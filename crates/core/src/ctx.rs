//! Per-query execution context: deadline + cooperative cancellation.
//!
//! A [`QueryCtx`] travels with one query through the whole scan stack —
//! facade, scan orchestration, partition workers, and (via the shared stop
//! flag) `BlockSource` refills. Cancellation is
//! *cooperative*: nothing is killed, every layer polls [`QueryCtx::check`]
//! at natural boundaries (a refill, a batch of at most `BATCH_SIZE` rows)
//! and unwinds with a structured [`EngineError::Cancelled`] /
//! [`EngineError::DeadlineExceeded`]. That cooperative shape is what lets
//! the merge layer still install whatever positional-map / cache /
//! statistics partials completed before the stop — the NoDB "no work is
//! wasted" promise applied to failure paths.
//!
//! The deadline is polled rather than timer-driven: the first observer that
//! notices `Instant::now() >= deadline` trips the shared stop flag, so all
//! sibling workers stop within one batch of each other without any
//! dedicated timer thread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use nodb_engine::{EngineError, EngineResult};

/// Deadline + cancellation state for one query.
///
/// Cloning is cheap and shares the underlying flags: every worker, scanner
/// and the caller-held [`CancelToken`] observe (and can trip) the same
/// stop signal.
#[derive(Debug, Clone)]
pub struct QueryCtx {
    /// The shared "stop now" flag: set by [`CancelToken::cancel`] or by the
    /// first observer of an expired deadline.
    stop: Arc<AtomicBool>,
    /// Distinguishes *why* the stop flag is set: `true` when a deadline
    /// expiry tripped it, `false` for an explicit cancel.
    deadline_hit: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl Default for QueryCtx {
    /// An unbounded context: never cancelled, no deadline. Used wherever a
    /// scan runs without a caller-supplied context.
    fn default() -> Self {
        QueryCtx {
            stop: Arc::new(AtomicBool::new(false)),
            deadline_hit: Arc::new(AtomicBool::new(false)),
            deadline: None,
        }
    }
}

impl QueryCtx {
    /// Context with no deadline (cancellable only through its token).
    pub fn unbounded() -> Self {
        QueryCtx::default()
    }

    /// Context that expires `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        QueryCtx {
            deadline: Some(Instant::now() + timeout),
            ..QueryCtx::default()
        }
    }

    /// Context from a config-style millisecond knob (`0` = no deadline).
    pub fn from_timeout_ms(timeout_ms: u64) -> Self {
        if timeout_ms == 0 {
            QueryCtx::unbounded()
        } else {
            QueryCtx::with_timeout(Duration::from_millis(timeout_ms))
        }
    }

    /// Whether this query runs under a deadline, and so may stop before it
    /// has read the whole file.
    pub(crate) fn has_deadline(&self) -> bool {
        self.deadline.is_some()
    }

    /// A token the caller can hold on to (or hand to another thread) to
    /// cancel this query from outside.
    pub fn cancel_token(&self) -> CancelToken {
        CancelToken {
            stop: Arc::clone(&self.stop),
        }
    }

    /// The raw stop flag, for layers below the engine error type: the
    /// rawcsv `BlockSource`s take this through `set_interrupt` and fail
    /// refills once it reads `true`.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Has the stop flag been tripped (by cancel or a noticed deadline)?
    /// Does not itself poll the clock — use [`Self::check`] on hot paths.
    pub fn is_stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Cooperative poll: `Ok(())` to keep going, or the structured error to
    /// unwind with. The first caller to observe an expired deadline trips
    /// the shared flag so every sibling stops within one check stride.
    pub fn check(&self) -> EngineResult<()> {
        if self.stop.load(Ordering::Relaxed) {
            return Err(self.stop_error());
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.deadline_hit.store(true, Ordering::Relaxed);
                self.stop.store(true, Ordering::Relaxed);
                return Err(EngineError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// The error this context stops with: [`EngineError::DeadlineExceeded`]
    /// when the deadline tripped the flag, [`EngineError::Cancelled`]
    /// otherwise. Workers report this in place of the I/O error a tripped
    /// interrupt flag surfaces as, so callers always see the structured
    /// cause rather than a wrapped "scan interrupted" read error.
    pub fn stop_error(&self) -> EngineError {
        if self.deadline_hit.load(Ordering::Relaxed) {
            EngineError::DeadlineExceeded
        } else {
            EngineError::Cancelled
        }
    }
}

/// Handle for cancelling a running query from another thread.
#[derive(Debug, Clone)]
pub struct CancelToken {
    stop: Arc<AtomicBool>,
}

impl CancelToken {
    /// Trip the stop flag: the query unwinds with
    /// [`EngineError::Cancelled`] at its next cooperative check.
    pub fn cancel(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_never_stops() {
        let ctx = QueryCtx::unbounded();
        assert!(ctx.check().is_ok());
        assert!(!ctx.is_stopped());
    }

    #[test]
    fn cancel_token_trips_all_clones() {
        let ctx = QueryCtx::unbounded();
        let clone = ctx.clone();
        ctx.cancel_token().cancel();
        assert!(matches!(clone.check(), Err(EngineError::Cancelled)));
        assert!(clone.stop_flag().load(Ordering::Relaxed));
    }

    #[test]
    fn expired_deadline_reports_deadline_exceeded_everywhere() {
        let ctx = QueryCtx::with_timeout(Duration::from_millis(0));
        let clone = ctx.clone();
        assert!(matches!(ctx.check(), Err(EngineError::DeadlineExceeded)));
        // The sibling sees the tripped flag without polling the clock.
        assert!(clone.is_stopped());
        assert!(matches!(clone.stop_error(), EngineError::DeadlineExceeded));
    }

    #[test]
    fn from_timeout_ms_zero_is_unbounded() {
        let ctx = QueryCtx::from_timeout_ms(0);
        assert!(ctx.deadline.is_none());
        assert!(QueryCtx::from_timeout_ms(5).deadline.is_some());
    }
}

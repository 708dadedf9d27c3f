//! Bounded admission control: one global scan-thread budget shared by every
//! concurrent query on a [`crate::NoDb`] instance.
//!
//! Before this module, each query fanned out `NoDbConfig::scan_threads`
//! workers of its own, so N concurrent clients ran `N × scan_threads`
//! threads — fine for a handful of in-process callers, catastrophic for a
//! serving layer fronting many connections. A [`ScanBudget`] replaces that
//! per-query fan-out with a semaphore-governed pool: a query *requests* its
//! configured thread count but is *granted* at most what the budget has
//! free (always at least one), and the grant is returned when the query
//! finishes. Total scan threads in flight therefore never exceed the
//! budget's capacity, no matter how many clients are connected.
//!
//! Admission is also **bounded**: at most `max_queue` queries may wait for
//! permits at once. A query arriving past that bound fails fast with
//! [`EngineError::Overloaded`] instead of piling onto an unbounded queue —
//! the serving layer's back-pressure signal. Waiters poll cooperatively
//! (short sleeps between attempts) and honor their [`QueryCtx`]: a
//! cancelled or deadline-expired query stops waiting immediately, so a
//! client disconnect releases its queue slot.
//!
//! Telemetry ([`BudgetTelemetry`]) records the high-water marks the
//! acceptance tests assert on: peak permits in flight (never above
//! capacity), peak queue depth, admitted/rejected totals.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use nodb_engine::{EngineError, EngineResult};
use parking_lot::Mutex;

use crate::ctx::QueryCtx;

/// How long a waiter sleeps between permit polls. Admission latency is
/// bounded by one scan finishing (milliseconds to seconds), so a
/// millisecond poll adds nothing measurable while keeping waiters
/// responsive to cancellation.
const WAIT_POLL: Duration = Duration::from_millis(1);

/// How many grants in a row must find no other query holding permits,
/// after a run of grants that did, before a query counts as running alone
/// again ([`ScanGrant::shared`]).
const RECENT_GRANTS: usize = 8;

/// Mutable semaphore state behind the budget's lock.
#[derive(Debug)]
struct BudgetState {
    /// Permits currently free.
    available: usize,
    /// Queries currently waiting for a permit.
    waiting: usize,
    /// Recent grants made while other queries held permits: each such grant
    /// adds one, up to [`RECENT_GRANTS`], and each grant made alone takes
    /// one off.
    contended: usize,
}

/// A shared scan-thread budget: a counting semaphore with a bounded wait
/// queue and high-water-mark telemetry.
///
/// Install one on a `NoDb` via [`crate::api::admin::Admin::
/// install_scan_budget`]; every subsequent query acquires its scan threads
/// here instead of spawning `scan_threads` workers unconditionally.
#[derive(Debug)]
pub struct ScanBudget {
    capacity: usize,
    max_queue: usize,
    state: Mutex<BudgetState>,
    peak_in_flight: AtomicUsize,
    peak_waiting: AtomicUsize,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

/// Snapshot of a budget's counters (the serving layer's telemetry panel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BudgetTelemetry {
    /// Configured permit capacity.
    pub capacity: usize,
    /// Configured wait-queue bound.
    pub max_queue: usize,
    /// Permits handed out right now.
    pub in_flight: usize,
    /// Queries waiting right now.
    pub waiting: usize,
    /// Highest number of permits ever simultaneously out. The acceptance
    /// invariant: this never exceeds `capacity`.
    pub peak_in_flight: usize,
    /// Deepest the wait queue ever got.
    pub peak_waiting: usize,
    /// Queries granted permits so far.
    pub admitted: u64,
    /// Queries bounced with [`EngineError::Overloaded`] so far.
    pub rejected: u64,
}

impl ScanBudget {
    /// Budget of `capacity` scan threads with a default wait-queue bound of
    /// `4 × capacity` queued queries.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        ScanBudget::with_queue(capacity, capacity * 4)
    }

    /// Budget with an explicit wait-queue bound (`0` = reject whenever no
    /// permit is immediately free).
    pub fn with_queue(capacity: usize, max_queue: usize) -> Self {
        let capacity = capacity.max(1);
        ScanBudget {
            capacity,
            max_queue,
            state: Mutex::new(BudgetState {
                available: capacity,
                waiting: 0,
                contended: 0,
            }),
            peak_in_flight: AtomicUsize::new(0),
            peak_waiting: AtomicUsize::new(0),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Permit capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquire up to `want` permits (at least one), blocking while the
    /// budget is exhausted. Fails with [`EngineError::Overloaded`] when the
    /// wait queue is full, or with the context's stop error if the query is
    /// cancelled / deadline-expired while waiting.
    pub fn acquire(self: &Arc<Self>, want: usize, ctx: &QueryCtx) -> EngineResult<ScanGrant> {
        let want = want.max(1);
        // Fast path: permits free right now.
        if let Some(grant) = self.try_take(want) {
            return Ok(grant);
        }
        // Slow path: join the bounded wait queue.
        {
            let mut s = self.state.lock();
            // Re-check under the lock: a permit may have been released
            // between the fast path and here.
            if s.available > 0 {
                let got = want.min(s.available);
                s.available -= got;
                drop(s);
                return Ok(self.granted(got));
            }
            if s.waiting >= self.max_queue {
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(EngineError::Overloaded { waiting: s.waiting });
            }
            s.waiting += 1;
            let now_waiting = s.waiting;
            drop(s);
            fetch_max(&self.peak_waiting, now_waiting);
        }
        // Poll loop: cheap, cancellation-aware, no condvar (the workspace's
        // parking_lot stand-in has no Condvar, and admission waits are
        // bounded by a scan finishing — milliseconds at minimum).
        loop {
            if let Err(stop) = ctx.check() {
                self.state.lock().waiting -= 1;
                return Err(stop);
            }
            {
                let mut s = self.state.lock();
                if s.available > 0 {
                    let got = want.min(s.available);
                    s.available -= got;
                    s.waiting -= 1;
                    drop(s);
                    return Ok(self.granted(got));
                }
            }
            std::thread::sleep(WAIT_POLL);
        }
    }

    /// Non-blocking acquire attempt.
    fn try_take(self: &Arc<Self>, want: usize) -> Option<ScanGrant> {
        let mut s = self.state.lock();
        if s.available == 0 {
            return None;
        }
        let got = want.min(s.available);
        s.available -= got;
        drop(s);
        Some(self.granted(got))
    }

    /// Bookkeeping for a successful grant of `got` permits.
    fn granted(self: &Arc<Self>, got: usize) -> ScanGrant {
        self.admitted.fetch_add(1, Ordering::Relaxed);
        let (in_flight, contended) = {
            let mut s = self.state.lock();
            let in_flight = self.capacity - s.available;
            s.contended = match in_flight > got {
                true => (s.contended + 1).min(RECENT_GRANTS),
                false => s.contended.saturating_sub(1),
            };
            (in_flight, s.contended)
        };
        fetch_max(&self.peak_in_flight, in_flight);
        ScanGrant {
            budget: Arc::clone(self),
            permits: got,
            shared: contended > 0,
        }
    }

    /// Current counters.
    pub fn telemetry(&self) -> BudgetTelemetry {
        let s = self.state.lock();
        BudgetTelemetry {
            capacity: self.capacity,
            max_queue: self.max_queue,
            in_flight: self.capacity - s.available,
            waiting: s.waiting,
            peak_in_flight: self.peak_in_flight.load(Ordering::Relaxed),
            peak_waiting: self.peak_waiting.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }
}

/// Monotonic max update for a telemetry high-water mark.
fn fetch_max(slot: &AtomicUsize, value: usize) {
    let mut cur = slot.load(Ordering::Relaxed);
    while value > cur {
        match slot.compare_exchange_weak(cur, value, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(seen) => cur = seen,
        }
    }
}

/// Permits held by one admitted query; returned to the budget on drop (also
/// on error/panic unwind paths, so a failed query never leaks threads).
#[derive(Debug)]
pub struct ScanGrant {
    budget: Arc<ScanBudget>,
    permits: usize,
    shared: bool,
}

impl ScanGrant {
    /// How many scan threads this query was granted (≥ 1, ≤ requested).
    pub fn permits(&self) -> usize {
        self.permits
    }

    /// Whether this query shares the machine with other queries: they held
    /// permits when it was granted, or when most of the budget's recent
    /// grants were made (each grant beside others raises a count, up to
    /// eight, and each grant alone lowers it; this is the count after this
    /// grant). Two clients that take turns thus never look alone in the gap
    /// between their queries; a client left alone does after a few.
    pub fn shared(&self) -> bool {
        self.shared
    }
}

impl Drop for ScanGrant {
    fn drop(&mut self) {
        let mut s = self.budget.state.lock();
        s.available = (s.available + self.permits).min(self.budget.capacity);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Poll until `waiting` threads are queued on `b`: a waiter thread the
    /// scheduler starves may take any time to get there. Panics after 10 s.
    fn wait_until_queued(b: &ScanBudget, waiting: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while b.telemetry().waiting != waiting {
            assert!(
                std::time::Instant::now() < deadline,
                "{waiting} waiter(s) never queued: {:?}",
                b.telemetry()
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn grants_at_most_available_and_at_least_one() {
        let b = Arc::new(ScanBudget::new(4));
        let ctx = QueryCtx::unbounded();
        let g1 = b.acquire(3, &ctx).unwrap();
        assert_eq!(g1.permits(), 3);
        assert!(!g1.shared(), "the only grant out");
        let g2 = b.acquire(8, &ctx).unwrap();
        assert_eq!(g2.permits(), 1, "clamped to what is free");
        assert!(g2.shared(), "granted beside `g1`");
        let t = b.telemetry();
        assert_eq!(t.in_flight, 4);
        assert_eq!(t.peak_in_flight, 4);
        drop(g1);
        drop(g2);
        assert_eq!(b.telemetry().in_flight, 0);
        assert_eq!(b.telemetry().admitted, 2);
    }

    /// A grant is shared while other queries hold permits, and for as many
    /// grants made alone as there were recent shared ones (at most eight).
    #[test]
    fn a_grant_is_shared_until_the_recent_overlaps_are_paid_off() {
        let b = Arc::new(ScanBudget::new(4));
        let ctx = QueryCtx::unbounded();
        let held = b.acquire(1, &ctx).unwrap();
        for _ in 0..3 {
            assert!(b.acquire(1, &ctx).unwrap().shared(), "beside `held`");
        }
        drop(held);
        let alone: Vec<bool> = (0..4)
            .map(|_| b.acquire(2, &ctx).unwrap().shared())
            .collect();
        assert_eq!(alone, [true, true, false, false]);
        let held = b.acquire(1, &ctx).unwrap();
        for _ in 0..20 {
            drop(b.acquire(1, &ctx).unwrap());
        }
        drop(held);
        let after: Vec<bool> = (0..9)
            .map(|_| b.acquire(1, &ctx).unwrap().shared())
            .collect();
        assert_eq!(
            after,
            [[true; 7].as_slice(), &[false; 2]].concat(),
            "capped at eight"
        );
    }

    #[test]
    fn waiters_block_until_release_and_peak_never_exceeds_capacity() {
        let b = Arc::new(ScanBudget::new(2));
        let ctx = QueryCtx::unbounded();
        let g = b.acquire(2, &ctx).unwrap();
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || {
            let ctx = QueryCtx::unbounded();
            let g = b2.acquire(2, &ctx).unwrap();
            g.permits()
        });
        wait_until_queued(&b, 1);
        assert_eq!(b.telemetry().waiting, 1, "waiter queued");
        drop(g);
        assert_eq!(waiter.join().unwrap(), 2);
        let t = b.telemetry();
        assert!(t.peak_in_flight <= t.capacity);
        assert_eq!(t.peak_waiting, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let b = Arc::new(ScanBudget::with_queue(1, 0));
        let ctx = QueryCtx::unbounded();
        let g = b.acquire(1, &ctx).unwrap();
        let err = b.acquire(1, &ctx).unwrap_err();
        assert!(matches!(err, EngineError::Overloaded { .. }), "{err:?}");
        assert_eq!(b.telemetry().rejected, 1);
        drop(g);
        assert!(b.acquire(1, &ctx).is_ok(), "permits usable after rejection");
    }

    #[test]
    fn cancelled_waiter_leaves_the_queue() {
        let b = Arc::new(ScanBudget::new(1));
        let ctx = QueryCtx::unbounded();
        let g = b.acquire(1, &ctx).unwrap();
        let waiter_ctx = QueryCtx::unbounded();
        let token = waiter_ctx.cancel_token();
        let b2 = Arc::clone(&b);
        let waiter = std::thread::spawn(move || b2.acquire(1, &waiter_ctx));
        wait_until_queued(&b, 1);
        token.cancel();
        let err = waiter.join().unwrap().unwrap_err();
        assert!(matches!(err, EngineError::Cancelled), "{err:?}");
        assert_eq!(b.telemetry().waiting, 0, "queue slot released");
        drop(g);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let b = Arc::new(ScanBudget::new(0));
        assert_eq!(b.capacity(), 1);
        let ctx = QueryCtx::unbounded();
        assert_eq!(b.acquire(5, &ctx).unwrap().permits(), 1);
    }
}

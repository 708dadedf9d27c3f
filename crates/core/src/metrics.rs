//! Execution breakdowns and system snapshots — the demo's two panels.
//!
//! [`Breakdown`] is the Figure 3 stacked bar: where one query's time went
//! (I/O, tokenizing, parsing, conversion, NoDB-structure maintenance,
//! processing). [`SystemSnapshot`] is the Figure 2 monitoring panel: what
//! the positional map and cache currently hold, their budgets, utilization
//! and usage statistics.

use std::time::{Duration, Instant};

use nodb_rawcsv::IoCounters;

use crate::rawscan::QuarantineSample;

/// Per-phase wall-clock breakdown of one query (Fig 3).
#[derive(Debug, Default, Clone, Copy)]
pub struct Breakdown {
    /// Reading raw bytes from disk: opening the file and the time inside
    /// block `read`s. Finding where lines end is not I/O: it is part of the
    /// tokenizing pass, which masks newlines and delimiters together.
    pub io: Duration,
    /// Locating newlines and delimiters (the batch fetch's mask pass,
    /// resumable tokenizing from map anchors).
    pub tokenizing: Duration,
    /// Navigating via positional-map offsets (jump + field-end location).
    pub parsing: Duration,
    /// Converting field bytes to binary datums.
    pub convert: Duration,
    /// Populating the positional map / cache / statistics (the "NoDB
    /// overhead" slice): the workers' partition-local partials plus
    /// [`Self::install`].
    pub nodb: Duration,
    /// The lock-side part of `nodb`: installing a scan's partials into the
    /// table under its write guard, during which no other query can read
    /// the table. A sub-slice — already counted in `nodb`, so
    /// [`Self::total`] leaves it out; `nodb - install` is the worker side.
    pub install: Duration,
    /// The engine pipeline above the scan: projection / aggregation /
    /// sort / limit over the scan's batches. Measured around the engine
    /// `execute` call, inside which the scan streams its cached rows and
    /// reads the rows after its cache frontier; that scan time is taken
    /// off this slice (the read's lands in its phase slices, the rest stays
    /// in `processing`), so "scan time" and "engine time" separate in the
    /// panel. An aggregate whose cached rows fold on several workers counts
    /// their summed thread time, as a parallel raw scan's phase slices do:
    /// the call's wall time plus its helper threads', less every worker's
    /// stream time and the calling thread's wait for its helpers. It stays
    /// above zero, and can exceed the wall clock it ran in.
    pub engine: Duration,
    /// Parsing the SQL text and planning the statement. Exactly zero when
    /// the query was served from the prepared-statement cache — the slice
    /// a prepared hit deletes.
    pub planning: Duration,
    /// Everything not attributed elsewhere: admission waits, lock waits,
    /// report assembly, a scan's cached stream (the predicate kernel over
    /// the cache windows) and a parallel fold's wait for its helpers. The
    /// wall clock's remainder after the
    /// other slices, clamped at zero: summed thread time in those slices
    /// (a parallel scan's phases, a parallel fold's engine time) can
    /// exceed it.
    pub processing: Duration,
    /// The part of `processing` spent waiting for scan-thread permits
    /// (`ScanBudget::acquire`). A sub-slice like [`Self::install`]:
    /// [`Self::total`] leaves it out.
    pub admission_wait: Duration,
    /// The part of `processing` spent acquiring the table's read/write
    /// guards: the query driver's and the scan install's. A sub-slice:
    /// [`Self::total`] leaves it out.
    pub lock_wait: Duration,
}

/// Run `acquire` (a permit or lock acquisition) and add its wall time to
/// `wait` — how [`Breakdown::admission_wait`] and [`Breakdown::lock_wait`]
/// are measured.
pub(crate) fn timed<T>(wait: &mut Duration, acquire: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let r = acquire();
    *wait += t.elapsed();
    r
}

impl Breakdown {
    /// Sum of all slices (`install` is part of `nodb`; `admission_wait`
    /// and `lock_wait` are part of `processing`).
    pub fn total(&self) -> Duration {
        self.io
            + self.tokenizing
            + self.parsing
            + self.convert
            + self.nodb
            + self.engine
            + self.planning
            + self.processing
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &Breakdown) {
        self.io += other.io;
        self.tokenizing += other.tokenizing;
        self.parsing += other.parsing;
        self.convert += other.convert;
        self.nodb += other.nodb;
        self.install += other.install;
        self.engine += other.engine;
        self.planning += other.planning;
        self.processing += other.processing;
        self.admission_wait += other.admission_wait;
        self.lock_wait += other.lock_wait;
    }

    /// Render as the Fig 3 panel row: `io=…ms tok=…ms parse=…ms conv=…ms
    /// nodb=…ms (install=…ms) engine=…ms plan=…ms proc=…ms (admit=…ms
    /// lock=…ms)`.
    pub fn panel_row(&self) -> String {
        fn ms(d: Duration) -> f64 {
            d.as_secs_f64() * 1e3
        }
        format!(
            "io={:8.2}ms tok={:8.2}ms parse={:8.2}ms conv={:8.2}ms nodb={:8.2}ms \
             (install={:8.2}ms) engine={:8.2}ms plan={:8.2}ms proc={:8.2}ms \
             (admit={:8.2}ms lock={:8.2}ms)",
            ms(self.io),
            ms(self.tokenizing),
            ms(self.parsing),
            ms(self.convert),
            ms(self.nodb),
            ms(self.install),
            ms(self.engine),
            ms(self.planning),
            ms(self.processing),
            ms(self.admission_wait),
            ms(self.lock_wait)
        )
    }
}

/// Counters of the snapshot persistence layer, one set per [`crate::NoDb`]
/// instance (read via `Admin::snapshot_stats`). Saves are write-behind
/// (after queries) plus explicit `Admin::snapshot_now` calls; restores are
/// counted at registration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapshotTelemetry {
    /// Sidecar files written successfully.
    pub saves: u64,
    /// Save attempts that failed (I/O); the query they rode behind still
    /// succeeded, and the next state growth retries.
    pub save_failures: u64,
    /// Tables restored warm from a sidecar at registration.
    pub restores: u64,
    /// Sidecars rejected at registration (corrupt, truncated, version
    /// skew, replaced file) — the table started cold instead.
    pub restores_rejected: u64,
}

/// Everything recorded about one query execution.
#[derive(Debug, Default, Clone)]
pub struct QueryReport {
    /// Wall-clock end-to-end latency (parse → result materialized).
    pub total: Duration,
    /// Per-phase breakdown.
    pub breakdown: Breakdown,
    /// Raw-file I/O performed by this query.
    pub io: IoCounters,
    /// Tuples scanned (rows of the raw file visited).
    pub rows_scanned: u64,
    /// Rows the query returned.
    pub rows_returned: u64,
    /// Cache hits during this query (row-values served without raw access).
    pub cache_hits: u64,
    /// Cache misses (values parsed from raw bytes).
    pub cache_misses: u64,
    /// Whether the scan was served entirely from the cache (no file access).
    pub fully_cached: bool,
    /// Whether the plan came from the prepared-statement cache: parse and
    /// plan were skipped entirely (`breakdown.planning` is exactly zero).
    pub prepared_hit: bool,
    /// Whether a positional-map chunk was installed as a side effect.
    pub installed_chunk: bool,
    /// Rows with a malformed cell tombstoned as NULL under the permissive
    /// parse-error policy (always 0 under strict, which aborts instead).
    pub rows_quarantined: u64,
    /// Capped per-row detail of the quarantined rows (row number, line byte
    /// offset, first offending attribute).
    pub quarantine_samples: Vec<QuarantineSample>,
    /// How many times this query found its backing file truncated or
    /// rewritten mid-scan, quarantined the table's adaptive state and
    /// retried with a cold rescan (bounded by the `source_change_retries`
    /// config knob). 0 on the happy path; non-zero means the answer came
    /// from a fresh epoch of the file.
    pub source_changed: u64,
    /// Plan summary (EXPLAIN-lite).
    pub plan: String,
}

/// One chunk's description in the monitoring panel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkInfo {
    /// Attributes stored together.
    pub attrs: Vec<usize>,
    /// Rows covered.
    pub rows: usize,
    /// Bytes held.
    pub bytes: usize,
}

/// The Figure 2 system monitoring panel as data.
#[derive(Debug, Clone, Default)]
pub struct SystemSnapshot {
    /// Positional-map bytes in use.
    pub map_bytes: usize,
    /// Positional-map budget.
    pub map_budget: usize,
    /// Map utilization in `[0, 1]`.
    pub map_utilization: f64,
    /// Installed chunks.
    pub map_chunks: Vec<ChunkInfo>,
    /// Shared row-index footprint (reported separately, not budgeted).
    pub row_index_bytes: usize,
    /// Map lifetime counters: installs, evictions, rejects.
    pub map_installs: u64,
    /// Chunks evicted so far.
    pub map_evictions: u64,
    /// Cache bytes in use.
    pub cache_bytes: usize,
    /// Cache budget.
    pub cache_budget: usize,
    /// Cache utilization in `[0, 1]`.
    pub cache_utilization: f64,
    /// Resident cached attributes with their row coverage.
    pub cache_resident: Vec<(usize, usize)>,
    /// Cache lifetime hit ratio.
    pub cache_hit_ratio: f64,
    /// Cache evictions so far.
    pub cache_evictions: u64,
    /// Attributes with statistics, sorted.
    pub stats_attrs: Vec<usize>,
    /// Per-attribute access counts since registration (usage panel).
    pub attr_access_counts: Vec<(usize, u64)>,
    /// Known row count, if a full scan has completed.
    pub row_count: Option<u64>,
}

impl SystemSnapshot {
    /// Render the panel as text (the demo GUI's textual twin).
    pub fn panel(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "positional map : {:>10} / {:>10} bytes ({:5.1}%)  chunks={} installs={} evictions={}\n",
            self.map_bytes,
            self.map_budget,
            self.map_utilization * 100.0,
            self.map_chunks.len(),
            self.map_installs,
            self.map_evictions,
        ));
        for c in &self.map_chunks {
            s.push_str(&format!(
                "   chunk attrs={:?} rows={} bytes={}\n",
                c.attrs, c.rows, c.bytes
            ));
        }
        s.push_str(&format!(
            "cache          : {:>10} / {:>10} bytes ({:5.1}%)  hit_ratio={:.2} evictions={}\n",
            self.cache_bytes,
            self.cache_budget,
            self.cache_utilization * 100.0,
            self.cache_hit_ratio,
            self.cache_evictions,
        ));
        for (attr, rows) in &self.cache_resident {
            s.push_str(&format!("   cached attr c{attr} rows={rows}\n"));
        }
        s.push_str(&format!("statistics     : attrs={:?}\n", self.stats_attrs));
        let touched: Vec<String> = self
            .attr_access_counts
            .iter()
            .filter(|(_, n)| *n > 0)
            .map(|(a, n)| format!("c{a}:{n}"))
            .collect();
        s.push_str(&format!("attr accesses  : {}\n", touched.join(" ")));
        if let Some(n) = self.row_count {
            s.push_str(&format!("rows known     : {n}\n"));
        }
        s
    }
}

/// Low-overhead phase stopwatch used inside the scan loop, which laps each
/// phase once per batch of rows.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseClock {
    /// What a start/lap pair reports around no work at all (one clock
    /// read's latency falls inside every window). Taken off each lap.
    overhead: Duration,
}

impl PhaseClock {
    /// Clock calibrated against its own read latency.
    pub fn new() -> Self {
        let overhead = (0..8)
            .map(|_| std::time::Instant::now().elapsed())
            .min()
            .unwrap_or_default();
        PhaseClock { overhead }
    }

    /// Start a measurement.
    #[inline]
    pub fn start(&self) -> std::time::Instant {
        std::time::Instant::now()
    }

    /// The time since `start`, net of the clock's own overhead.
    #[inline]
    pub fn since(&self, start: std::time::Instant) -> Duration {
        start.elapsed().saturating_sub(self.overhead)
    }

    /// Add the elapsed time since `start` to `slot`.
    #[inline]
    pub fn lap(&self, start: std::time::Instant, slot: &mut Duration) {
        *slot += self.since(start);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_merge() {
        let mut a = Breakdown {
            io: Duration::from_millis(10),
            ..Default::default()
        };
        let b = Breakdown {
            convert: Duration::from_millis(5),
            engine: Duration::from_millis(3),
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.total(), Duration::from_millis(18));
        // `install` is a part of `nodb`: merged, shown, never counted twice.
        a.merge(&Breakdown {
            nodb: Duration::from_millis(7),
            install: Duration::from_millis(4),
            ..Default::default()
        });
        assert_eq!(a.install, Duration::from_millis(4));
        assert_eq!(a.total(), Duration::from_millis(25));
        assert!(a.panel_row().contains("(install=    4.00ms)"));
        // So are the waits of `processing`.
        a.merge(&Breakdown {
            processing: Duration::from_millis(6),
            admission_wait: Duration::from_millis(2),
            lock_wait: Duration::from_millis(1),
            ..Default::default()
        });
        assert_eq!(a.total(), Duration::from_millis(31));
        assert!(a.panel_row().contains("(admit=    2.00ms lock=    1.00ms)"));
        assert!(a.panel_row().contains("io="));
        assert!(
            a.panel_row().contains("engine="),
            "engine slice visible in the Fig-3 row"
        );
    }

    #[test]
    fn snapshot_panel_renders() {
        let snap = SystemSnapshot {
            map_bytes: 100,
            map_budget: 1000,
            map_utilization: 0.1,
            map_chunks: vec![ChunkInfo {
                attrs: vec![0, 2],
                rows: 10,
                bytes: 40,
            }],
            cache_resident: vec![(2, 10)],
            attr_access_counts: vec![(0, 3), (1, 0)],
            row_count: Some(10),
            ..Default::default()
        };
        let p = snap.panel();
        assert!(p.contains("chunk attrs=[0, 2]"));
        assert!(p.contains("cached attr c2"));
        assert!(p.contains("c0:3"));
        assert!(!p.contains("c1:0"));
    }
}

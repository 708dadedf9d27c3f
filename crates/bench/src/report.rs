//! Text tables for experiment output (the demo panels, printable), plus the
//! machine-readable `BENCH_*.json` records future PRs use to track the
//! performance trajectory.

use std::fmt::Write as _;
use std::path::Path;

/// One benchmark measurement destined for a `BENCH_*.json` trajectory file.
///
/// `scan_threads` is a first-class column so the parallel-scan scaling
/// curve (1..N threads over the same dataset) is directly comparable across
/// PRs; `clients` is the number of concurrent query issuers (1 for
/// single-client microbenchmarks, >1 for the shared-registry multi-client
/// curve in `BENCH_concurrent_queries.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name, e.g. `cold_scan`.
    pub name: String,
    /// `NoDbConfig::scan_threads` the measurement ran with (resolved, not 0).
    pub scan_threads: usize,
    /// Concurrent query clients issuing against one shared instance.
    pub clients: usize,
    /// Data rows in the benchmark's input file.
    pub rows: u64,
    /// Mean wall-clock per iteration, milliseconds.
    pub mean_ms: f64,
    /// Fastest iteration, milliseconds.
    pub min_ms: f64,
    /// Execution-mode ablation label (e.g. `no_ctx` / `ctx` for the
    /// resilience bench). Part of the record's identity: the same bench at
    /// the same threads/rows in two modes is two measurements. Empty for
    /// benches without a mode axis, and optional when parsing so legacy
    /// `BENCH_*.json` files stay readable.
    pub mode: String,
    /// Median per-query latency, milliseconds (nearest-rank over the
    /// individual query latencies of a run, not the per-iteration wall
    /// clock). `0.0` for benches that don't track tail latency; the three
    /// percentile fields are optional when parsing so pre-percentile
    /// trajectory files stay readable, and they are *not* part of
    /// [`bench_key`] — they are measurements, not identity.
    pub p50_ms: f64,
    /// 95th-percentile per-query latency, milliseconds. The serving-layer
    /// tail the gate watches: admission queuing under a shared scan budget
    /// shows up here long before it moves the mean.
    pub p95_ms: f64,
    /// 99th-percentile per-query latency, milliseconds.
    pub p99_ms: f64,
}

impl BenchRecord {
    /// Build a single-client record from raw per-iteration durations.
    pub fn from_samples(
        name: impl Into<String>,
        scan_threads: usize,
        rows: u64,
        samples: &[std::time::Duration],
    ) -> Self {
        Self::from_samples_clients(name, scan_threads, 1, rows, samples)
    }

    /// Build a record with an explicit concurrent-client count.
    pub fn from_samples_clients(
        name: impl Into<String>,
        scan_threads: usize,
        clients: usize,
        rows: u64,
        samples: &[std::time::Duration],
    ) -> Self {
        let ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        let mean = if ms.is_empty() {
            0.0
        } else {
            ms.iter().sum::<f64>() / ms.len() as f64
        };
        let min = ms.iter().copied().fold(f64::INFINITY, f64::min);
        BenchRecord {
            name: name.into(),
            scan_threads,
            clients,
            rows,
            mean_ms: mean,
            min_ms: if min.is_finite() { min } else { 0.0 },
            mode: String::new(),
            p50_ms: 0.0,
            p95_ms: 0.0,
            p99_ms: 0.0,
        }
    }

    /// Attach an execution-mode label (ablation column).
    pub fn with_mode(mut self, mode: impl Into<String>) -> Self {
        self.mode = mode.into();
        self
    }

    /// Attach per-query latency percentiles (nearest-rank) computed from
    /// the individual query latencies of a run. Distinct from the
    /// constructor's `samples` (per-*iteration* wall clock): a concurrent
    /// bench has `clients × queries` latencies per iteration, and the tail
    /// of that distribution is what admission control is supposed to keep
    /// bounded.
    pub fn with_percentiles(mut self, latencies: &[std::time::Duration]) -> Self {
        if latencies.is_empty() {
            return self;
        }
        let mut ms: Vec<f64> = latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(|a, b| a.total_cmp(b));
        let nearest_rank = |q: f64| -> f64 {
            let rank = (q * ms.len() as f64).ceil() as usize;
            ms[rank.clamp(1, ms.len()) - 1]
        };
        self.p50_ms = nearest_rank(0.50);
        self.p95_ms = nearest_rank(0.95);
        self.p99_ms = nearest_rank(0.99);
        self
    }
}

/// Render records as the `BENCH_*.json` document (hand-rolled JSON: the
/// environment has no serde, and the schema is five flat fields).
pub fn bench_records_json(records: &[BenchRecord]) -> String {
    let mut out = String::from("{\n  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": {:?}, \"scan_threads\": {}, \"clients\": {}, \"rows\": {}, \
             \"mean_ms\": {:.3}, \"min_ms\": {:.3}",
            r.name, r.scan_threads, r.clients, r.rows, r.mean_ms, r.min_ms
        );
        if !r.mode.is_empty() {
            let _ = write!(out, ", \"mode\": {:?}", r.mode);
        }
        if r.p50_ms > 0.0 || r.p95_ms > 0.0 || r.p99_ms > 0.0 {
            let _ = write!(
                out,
                ", \"p50_ms\": {:.3}, \"p95_ms\": {:.3}, \"p99_ms\": {:.3}",
                r.p50_ms, r.p95_ms, r.p99_ms
            );
        }
        out.push('}');
        out.push_str(if i + 1 < records.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

/// Write records to `path` as JSON.
pub fn write_bench_json(path: impl AsRef<Path>, records: &[BenchRecord]) -> std::io::Result<()> {
    std::fs::write(path, bench_records_json(records))
}

/// The identity of one measurement within a `BENCH_*.json` trajectory:
/// records agreeing on all five fields describe the same experiment and are
/// comparable across runs (and across PRs). `mode` is "" for benches
/// without an ablation axis, so pre-mode records keep their identity.
pub fn bench_key(r: &BenchRecord) -> (String, usize, usize, u64, String) {
    (
        r.name.clone(),
        r.scan_threads,
        r.clients,
        r.rows,
        r.mode.clone(),
    )
}

/// Parse a `BENCH_*.json` document produced by [`bench_records_json`].
///
/// Hand-rolled like the writer (no serde in this environment): one record
/// per `{...}` object, five known fields, order-independent. Unknown fields
/// are ignored so older gates can read newer files. Returns `None` when a
/// record is missing a required field — a malformed baseline should fail
/// loudly in the gate, not silently compare nothing.
pub fn parse_bench_json(body: &str) -> Option<Vec<BenchRecord>> {
    let mut records = Vec::new();
    // Skip the envelope's opening brace; every subsequent '{'..'}' span is
    // one record object.
    let inner = &body[body.find('{')? + 1..];
    let mut rest = inner;
    while let Some(open) = rest.find('{') {
        let close = open + rest[open..].find('}')?;
        let obj = &rest[open + 1..close];
        rest = &rest[close + 1..];
        let field = |key: &str| -> Option<&str> {
            let tag = format!("\"{key}\":");
            let at = obj.find(&tag)? + tag.len();
            let val = obj[at..].trim_start();
            let end = val.find([',', '}']).unwrap_or(val.len());
            Some(val[..end].trim())
        };
        let name = field("name")?.trim_matches('"').to_string();
        records.push(BenchRecord {
            name,
            scan_threads: field("scan_threads")?.parse().ok()?,
            clients: field("clients")?.parse().ok()?,
            rows: field("rows")?.parse().ok()?,
            mean_ms: field("mean_ms")?.parse().ok()?,
            min_ms: field("min_ms")?.parse().ok()?,
            // Optional: files predating the ablation column omit it.
            mode: field("mode")
                .map(|v| v.trim_matches('"').to_string())
                .unwrap_or_default(),
            // Optional: files predating tail-latency tracking omit them.
            p50_ms: field("p50_ms").and_then(|v| v.parse().ok()).unwrap_or(0.0),
            p95_ms: field("p95_ms").and_then(|v| v.parse().ok()).unwrap_or(0.0),
            p99_ms: field("p99_ms").and_then(|v| v.parse().ok()).unwrap_or(0.0),
        });
    }
    Some(records)
}

/// Merge fresh records into the trajectory file at `path`: records matching
/// an existing [`bench_key`] replace it, new keys append. Benches run at
/// several row counts (full-size locally, reduced in CI), and merging keeps
/// one record per configuration alive in the same file — which is what lets
/// the CI perf gate find an equal-rows baseline to compare against.
pub fn update_bench_json(path: impl AsRef<Path>, fresh: &[BenchRecord]) -> std::io::Result<()> {
    let path = path.as_ref();
    // A missing file starts a fresh trajectory; a *present but unparseable*
    // one fails loudly — silently overwriting it would drop the history
    // this merge exists to preserve.
    let mut merged: Vec<BenchRecord> = match std::fs::read_to_string(path) {
        Ok(body) => parse_bench_json(&body).ok_or_else(|| {
            std::io::Error::other(format!(
                "malformed bench trajectory {}: fix or delete it before merging",
                path.display()
            ))
        })?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    for r in fresh {
        match merged.iter_mut().find(|m| bench_key(m) == bench_key(r)) {
            Some(slot) => *slot = r.clone(),
            None => merged.push(r.clone()),
        }
    }
    write_bench_json(path, &merged)
}

/// One baseline-vs-fresh comparison line of the perf gate.
#[derive(Debug, Clone)]
pub struct GateLine {
    /// Human-readable verdict for the report artifact.
    pub text: String,
    /// The fresh run regressed beyond the threshold.
    pub regressed: bool,
}

/// Outcome of gating one fresh record set against a baseline set.
#[derive(Debug, Default)]
pub struct GateReport {
    /// Per-record verdicts (compared records only).
    pub lines: Vec<GateLine>,
    /// Records compared (equal [`bench_key`] on both sides).
    pub compared: usize,
    /// Records only one side holds (informational, never failing): a
    /// fresh record with no equal-key baseline is a new bench without
    /// history, a baseline record with no equal-key fresh one a bench
    /// variant deleted since.
    pub skipped: usize,
    /// Comparisons that exceeded the threshold.
    pub regressions: usize,
}

/// Compare fresh records against baselines: a record regresses when its
/// mean latency exceeds the baseline's by more than `threshold` (0.25 =
/// 25% throughput regression at equal rows/threads/clients), or — when
/// both sides track tail latency — when its p95 does. Only records with an
/// equal [`bench_key`] are compared — cross-row-count comparisons would
/// gate noise, not performance; likewise the tail gate only arms when both
/// records carry percentiles, so pre-percentile baselines keep gating on
/// the mean alone.
pub fn gate_bench_records(
    baseline: &[BenchRecord],
    fresh: &[BenchRecord],
    threshold: f64,
) -> GateReport {
    let mut report = GateReport::default();
    for f in fresh {
        let Some(b) = baseline.iter().find(|b| bench_key(b) == bench_key(f)) else {
            report.skipped += 1;
            continue;
        };
        report.compared += 1;
        let ratio = if b.mean_ms > 0.0 {
            f.mean_ms / b.mean_ms
        } else {
            1.0
        };
        let tail_ratio = if b.p95_ms > 0.0 && f.p95_ms > 0.0 {
            Some(f.p95_ms / b.p95_ms)
        } else {
            None
        };
        let mean_regressed = ratio > 1.0 + threshold;
        let tail_regressed = tail_ratio.is_some_and(|r| r > 1.0 + threshold);
        let regressed = mean_regressed || tail_regressed;
        if regressed {
            report.regressions += 1;
        }
        let label = if f.mode.is_empty() {
            f.name.clone()
        } else {
            format!("{} [{}]", f.name, f.mode)
        };
        let tail = match tail_ratio {
            Some(r) => format!(
                "  p95 {:>8.2} -> {:>8.2} ms ({:+.1}%)",
                b.p95_ms,
                f.p95_ms,
                (r - 1.0) * 100.0
            ),
            None => String::new(),
        };
        report.lines.push(GateLine {
            text: format!(
                "{} {:<28} threads={:<2} clients={:<2} rows={:<9} base {:>9.2} ms  fresh {:>9.2} ms  ({:+.1}%){tail}",
                if regressed { "FAIL" } else { "  ok" },
                label,
                f.scan_threads,
                f.clients,
                f.rows,
                b.mean_ms,
                f.mean_ms,
                (ratio - 1.0) * 100.0
            ),
            regressed,
        });
    }
    report.skipped += baseline
        .iter()
        .filter(|b| !fresh.iter().any(|f| bench_key(f) == bench_key(b)))
        .count();
    report
}

/// A simple aligned text table builder.
#[derive(Debug, Default, Clone)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Table {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of cells.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        for (i, h) in self.header.iter().enumerate() {
            if i > 0 {
                out.push_str("  ");
            }
            let _ = write!(out, "{h:<w$}", w = widths[i]);
        }
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for r in &self.rows {
            for (i, c) in r.iter().enumerate().take(ncols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:<w$}", w = widths[i]);
            }
            out.push('\n');
        }
        out
    }
}

/// Format a duration in milliseconds with two decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Format a duration in seconds with three decimals.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("longer"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(ms(std::time::Duration::from_millis(1500)), "1500.00");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
    }

    #[test]
    fn bench_records_render_as_json() {
        use std::time::Duration;
        let records = vec![
            BenchRecord::from_samples(
                "cold_scan",
                1,
                1_000_000,
                &[Duration::from_millis(100), Duration::from_millis(200)],
            ),
            BenchRecord::from_samples("cold_scan", 4, 1_000_000, &[Duration::from_millis(50)]),
        ];
        assert!((records[0].mean_ms - 150.0).abs() < 1e-9);
        assert!((records[0].min_ms - 100.0).abs() < 1e-9);
        let json = bench_records_json(&records);
        assert!(json.contains("\"scan_threads\": 1"));
        assert!(json.contains("\"scan_threads\": 4"));
        assert!(json.contains("\"clients\": 1"));
        assert!(json.contains("\"mean_ms\": 150.000"));
        assert!(json.contains("\"rows\": 1000000"));
        assert!(json.trim_end().ends_with('}'));

        let multi = BenchRecord::from_samples_clients(
            "warm_shared",
            4,
            8,
            10_000,
            &[Duration::from_millis(9)],
        );
        assert_eq!(multi.clients, 8);
        assert!(bench_records_json(&[multi]).contains("\"clients\": 8"));
    }

    #[test]
    fn bench_json_parses_back() {
        use std::time::Duration;
        let records = vec![
            BenchRecord::from_samples("cold_scan", 1, 200_000, &[Duration::from_millis(100)]),
            BenchRecord::from_samples_clients(
                "warm_shared",
                4,
                8,
                50_000,
                &[Duration::from_millis(9), Duration::from_millis(11)],
            ),
        ];
        let parsed = parse_bench_json(&bench_records_json(&records)).unwrap();
        assert_eq!(parsed.len(), 2);
        for (a, b) in records.iter().zip(&parsed) {
            assert_eq!(bench_key(a), bench_key(b));
            assert!((a.mean_ms - b.mean_ms).abs() < 1e-3);
            assert!((a.min_ms - b.min_ms).abs() < 1e-3);
        }
        // Trajectory files written with a since-dropped `stall_ms` column,
        // and ones predating the `mode` column, still parse.
        let legacy = "{\"benchmarks\": [{\"name\": \"old\", \"scan_threads\": 1, \
                      \"clients\": 1, \"rows\": 10, \"mean_ms\": 5.0, \"min_ms\": 4.0, \
                      \"stall_ms\": 3.0}]}";
        let old = parse_bench_json(legacy).unwrap();
        assert_eq!(old.len(), 1);
        assert_eq!(old[0].min_ms, 4.0, "fields before an unknown one are read");
        assert_eq!(old[0].mode, "", "missing mode defaults to empty");
        // The ablation mode column round-trips and separates record keys.
        let moded = vec![
            BenchRecord::from_samples("warm_filter", 1, 10, &[Duration::from_millis(2)])
                .with_mode("vectorized"),
            BenchRecord::from_samples("warm_filter", 1, 10, &[Duration::from_millis(6)])
                .with_mode("rowwise"),
        ];
        assert_ne!(bench_key(&moded[0]), bench_key(&moded[1]));
        let back = parse_bench_json(&bench_records_json(&moded)).unwrap();
        assert_eq!(back[0].mode, "vectorized");
        assert_eq!(back[1].mode, "rowwise");
        // Tail-latency percentiles: nearest-rank, round-trip, and absent
        // from the JSON (and defaulted on parse) when never attached.
        let lat: Vec<Duration> = (1..=100).map(Duration::from_millis).collect();
        let tailed =
            BenchRecord::from_samples_clients("tcp_tail", 4, 8, 10, &[Duration::from_millis(7)])
                .with_percentiles(&lat);
        assert!((tailed.p50_ms - 50.0).abs() < 1e-9);
        assert!((tailed.p95_ms - 95.0).abs() < 1e-9);
        assert!((tailed.p99_ms - 99.0).abs() < 1e-9);
        let back = parse_bench_json(&bench_records_json(&[tailed])).unwrap();
        assert!((back[0].p50_ms - 50.0).abs() < 1e-3);
        assert!((back[0].p95_ms - 95.0).abs() < 1e-3);
        assert!((back[0].p99_ms - 99.0).abs() < 1e-3);
        assert!(
            !bench_records_json(&records).contains("p50_ms"),
            "records without percentiles emit no percentile fields"
        );
        assert_eq!(old[0].p95_ms, 0.0, "missing percentiles default to 0");
        assert!(parse_bench_json("{\"benchmarks\": []}\n")
            .unwrap()
            .is_empty());
        assert!(
            parse_bench_json("{\"benchmarks\": [{\"name\": \"x\"}]}").is_none(),
            "missing fields must not parse to a half-record"
        );
    }

    #[test]
    fn update_merges_by_key() {
        use std::time::Duration;
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_bench_merge_{}", std::process::id()));
        let old = vec![
            BenchRecord::from_samples("cold_scan", 1, 1_000_000, &[Duration::from_millis(400)]),
            BenchRecord::from_samples("cold_scan", 1, 200_000, &[Duration::from_millis(80)]),
        ];
        write_bench_json(&p, &old).unwrap();
        // Same key replaces, new key appends; the untouched row count stays.
        let fresh = vec![
            BenchRecord::from_samples("cold_scan", 1, 200_000, &[Duration::from_millis(70)]),
            BenchRecord::from_samples("cold_scan", 4, 200_000, &[Duration::from_millis(30)]),
        ];
        update_bench_json(&p, &fresh).unwrap();
        let merged = parse_bench_json(&std::fs::read_to_string(&p).unwrap()).unwrap();
        assert_eq!(merged.len(), 3);
        let at = |threads: usize, rows: u64| {
            merged
                .iter()
                .find(|r| r.scan_threads == threads && r.rows == rows)
                .unwrap()
                .mean_ms
        };
        assert!(
            (at(1, 1_000_000) - 400.0).abs() < 1e-6,
            "untouched key kept"
        );
        assert!(
            (at(1, 200_000) - 70.0).abs() < 1e-6,
            "matching key replaced"
        );
        assert!((at(4, 200_000) - 30.0).abs() < 1e-6, "new key appended");
        // A present-but-malformed trajectory must fail loudly, not be
        // silently overwritten; a missing file starts fresh.
        std::fs::write(&p, "{\"benchmarks\": [{\"name\": \"broken\"}]}").unwrap();
        assert!(update_bench_json(&p, &fresh).is_err());
        std::fs::remove_file(&p).unwrap();
        update_bench_json(&p, &fresh).unwrap();
        assert_eq!(
            parse_bench_json(&std::fs::read_to_string(&p).unwrap())
                .unwrap()
                .len(),
            2
        );
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn gate_flags_only_true_regressions() {
        use std::time::Duration;
        let base = vec![
            BenchRecord::from_samples("cold_scan", 4, 200_000, &[Duration::from_millis(100)]),
            BenchRecord::from_samples("cold_scan", 8, 200_000, &[Duration::from_millis(90)]),
            BenchRecord::from_samples("cold_scan", 4, 1_000_000, &[Duration::from_millis(500)]),
        ];
        // 4 threads: within threshold. 8 threads: 2x slower. 2 threads: no
        // baseline. The 1M-row baseline must not be compared against the
        // 200k-row fresh records: a key only the baseline holds (another
        // row count, a bench variant deleted since) is skipped like a key
        // only the fresh side holds, never a regression.
        let fresh = vec![
            BenchRecord::from_samples("cold_scan", 4, 200_000, &[Duration::from_millis(120)]),
            BenchRecord::from_samples("cold_scan", 8, 200_000, &[Duration::from_millis(180)]),
            BenchRecord::from_samples("cold_scan", 2, 200_000, &[Duration::from_millis(50)]),
        ];
        let gate = gate_bench_records(&base, &fresh, 0.25);
        assert_eq!(gate.compared, 2);
        assert_eq!(gate.skipped, 2, "one fresh-only key, one baseline-only");
        assert_eq!(gate.regressions, 1);
        let fail: Vec<&GateLine> = gate.lines.iter().filter(|l| l.regressed).collect();
        assert_eq!(fail.len(), 1);
        assert!(fail[0].text.contains("threads=8"), "{}", fail[0].text);
        // Equal performance passes.
        let clean = gate_bench_records(&base, &base, 0.25);
        assert_eq!(clean.regressions, 0);
        assert_eq!(clean.compared, 3);
    }

    #[test]
    fn gate_arms_tail_check_only_when_both_sides_track_it() {
        use std::time::Duration;
        let lat = |ms: u64| vec![Duration::from_millis(ms); 20];
        let mk = |mean: u64, p: Option<u64>| {
            let r = BenchRecord::from_samples_clients(
                "warm_shared_cache",
                4,
                8,
                200_000,
                &[Duration::from_millis(mean)],
            );
            match p {
                Some(ms) => r.with_percentiles(&lat(ms)),
                None => r,
            }
        };
        // Same mean, 2x p95: the tail gate fires.
        let gate = gate_bench_records(&[mk(100, Some(10))], &[mk(100, Some(20))], 0.25);
        assert_eq!(gate.regressions, 1, "{:?}", gate.lines);
        assert!(gate.lines[0].text.contains("p95"));
        // Tail within threshold: passes, and the line reports both axes.
        let gate = gate_bench_records(&[mk(100, Some(10))], &[mk(100, Some(11))], 0.25);
        assert_eq!(gate.regressions, 0, "{:?}", gate.lines);
        // Baseline predates percentiles: mean-only gating, no tail column.
        let gate = gate_bench_records(&[mk(100, None)], &[mk(100, Some(500))], 0.25);
        assert_eq!(gate.regressions, 0, "{:?}", gate.lines);
        assert!(!gate.lines[0].text.contains("p95"));
    }

    #[test]
    fn bench_json_round_trips_to_disk() {
        let mut p = std::env::temp_dir();
        p.push(format!("nodb_bench_json_{}", std::process::id()));
        let records = vec![BenchRecord::from_samples(
            "x",
            2,
            10,
            &[std::time::Duration::from_millis(5)],
        )];
        write_bench_json(&p, &records).unwrap();
        let body = std::fs::read_to_string(&p).unwrap();
        assert_eq!(body, bench_records_json(&records));
        std::fs::remove_file(p).unwrap();
    }
}

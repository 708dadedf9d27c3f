//! Exploratory analysis (§4.2 Query Adaptation): a scientist skims through
//! different parts of a wide raw file in epochs. Watch the positional map
//! and cache adapt — filling, then evicting stale attributes as the focus
//! shifts — on the text twin of the demo's monitoring panel.
//!
//! ```text
//! cargo run --release --example exploration
//! ```

use nodb_bench::systems::{Contestant, RawContestant};
use nodb_bench::workload::{epoch_workload, scratch_dir, Dataset};
use nodb_core::NoDbConfig;

fn main() {
    let dir = scratch_dir("exploration_example").expect("scratch dir");
    let cols = 30;
    let rows = 50_000u64;
    println!("generating {rows}-row, {cols}-attribute raw file ...");
    let data = Dataset::standard(&dir, cols, rows, 0xE59).expect("generate dataset");

    // Tight budgets so adaptation is visible: roughly 40% of the file's
    // attributes fit in each structure.
    let mut cfg = NoDbConfig::pm_c();
    cfg.cache_budget_bytes = (rows as usize) * 9 * 12;
    cfg.map_budget_bytes = (rows as usize) * 2 * 12;
    let mut sys = RawContestant::new(cfg);
    sys.init(&data.path, &data.schema()).expect("register");

    let wl = epoch_workload("t", cols, 3, 6, 8, 0x2024);
    for (e, queries) in wl.epochs.iter().enumerate() {
        let (lo, hi) = wl.windows[e];
        println!("\n=== epoch {e}: exploring attributes c{lo}..c{hi} ===");
        for (i, q) in queries.iter().enumerate() {
            let (r, d) = sys.run(q).expect("query");
            println!(
                "  q{i} {:>8.2}ms  {} rows   {}",
                d.as_secs_f64() * 1e3,
                r.len(),
                q
            );
        }
        println!("\n--- monitoring panel after epoch {e} ---");
        println!("{}", sys.db.snapshot("t").unwrap().panel());
    }
    println!(
        "Within an epoch, later queries get faster (map + cache warm up); when the epoch\n\
         shifts, the LRU policy evicts stale attributes to make room — exactly the behaviour\n\
         the demo visualizes by shading the queried region of the file."
    );
    std::fs::remove_dir_all(dir).ok();
}

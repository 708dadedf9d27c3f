//! Live updates (§4.2 Updates): rows are appended to the raw file — and the
//! whole file later replaced — *outside* the system, as if edited by hand.
//! NoDB detects both on the next query, reusing prefix state for appends
//! and dropping everything for replacement.
//!
//! ```text
//! cargo run --release --example live_updates
//! ```

use nodb_bench::systems::{Contestant, RawContestant};
use nodb_bench::workload::{scratch_dir, Dataset};
use nodb_rawcsv::GeneratorConfig;

fn main() {
    let dir = scratch_dir("updates_example").expect("scratch dir");
    let rows = 40_000u64;
    let data = Dataset::standard(&dir, 5, rows, 0x11).expect("generate dataset");
    let mut sys = RawContestant::pm_c();
    sys.init(&data.path, &data.schema()).expect("register");

    // COUNT(c0) touches a real attribute, so the cache/map panels show the
    // adaptive state being kept (append) or dropped (replace).
    let sql = "SELECT COUNT(c0) FROM t";
    let show = |sys: &mut RawContestant, label: &str| {
        let (r, d) = sys.run(sql).expect("query");
        let snap = sys.db.snapshot("t").unwrap();
        println!(
            "{label:28} count={:<8} latency={:>8.2}ms  cache={}B map={}B",
            r.scalar().unwrap(),
            d.as_secs_f64() * 1e3,
            snap.cache_bytes,
            snap.map_bytes,
        );
    };

    show(&mut sys, "initial query");
    show(&mut sys, "warm query (cached)");

    println!("\n>>> appending 20% more rows to the file (outside the system)");
    data.gen.append_rows(&data.path, rows / 5).expect("append");
    show(&mut sys, "after append");
    show(&mut sys, "warm after append");

    println!("\n>>> replacing the file entirely (outside the system)");
    GeneratorConfig::uniform_ints(5, rows / 10, 0x99)
        .generate_file(&data.path)
        .expect("replace");
    show(&mut sys, "after replacement");
    println!(
        "\nAppend kept the prefix cache/map valid (only the tail was re-learned);\n\
         replacement invalidated everything — no manual refresh in either case."
    );
    std::fs::remove_dir_all(dir).ok();
}

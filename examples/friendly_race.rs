//! The §4.3 "friendly race": PostgresRaw vs conventional load-then-query
//! systems on the same raw file and the same query sequence, scored by
//! *data-to-query time* — the clock starts before anyone has loaded
//! anything.
//!
//! ```text
//! cargo run --release --example friendly_race [-- rows]
//! ```

use nodb_bench::systems::race_lineup;
use nodb_bench::workload::{race_queries, scratch_dir, Dataset};

fn main() {
    let rows: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(100_000);
    let dir = scratch_dir("race_example").expect("scratch dir");
    println!("generating {rows}-row, 10-attribute raw file ...");
    let data = Dataset::standard(&dir, 10, rows, 0xCAFE).expect("generate dataset");
    let schema = data.schema();
    let queries = race_queries("t", 10);

    println!("\nSTARTING SHOT — every system begins from the raw file.\n");
    for mut sys in race_lineup().expect("scratch dirs") {
        let init = sys.init(&data.path, &schema).expect("init");
        let mut cum = init;
        let mut first = None;
        for q in &queries {
            let (_, d) = sys.run(q).expect("query");
            cum += d;
            first.get_or_insert(cum);
        }
        println!(
            "{:32} init {:>9.3}s   first answer at {:>9.3}s   all {} queries done at {:>9.3}s",
            sys.name(),
            init.as_secs_f64(),
            first.unwrap().as_secs_f64(),
            queries.len(),
            cum.as_secs_f64()
        );
    }
    println!(
        "\nPostgresRaw starts answering immediately; conventional systems are still loading.\n\
         (Run with a larger row count to widen the gap: cargo run --release --example friendly_race -- 500000)"
    );
    std::fs::remove_dir_all(dir).ok();
}

//! Experiment runner CLI: regenerates every table/figure of the paper.

use std::io::Write;

use nodb_bench::{experiments, BenchResult, Scale};

fn main() -> BenchResult<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ids: Vec<String> = Vec::new();
    let mut scale = Scale::Small;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| usage("bad --scale (small|full)"));
            }
            "--out" => {
                i += 1;
                out_path = Some(
                    args.get(i)
                        .cloned()
                        .unwrap_or_else(|| usage("--out needs a path")),
                );
            }
            "all" => ids = experiments::ALL.iter().map(|s| s.to_string()).collect(),
            other if experiments::ALL.contains(&other) => ids.push(other.to_string()),
            other => usage(&format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    if ids.is_empty() {
        usage("no experiment selected");
    }

    let mut full_output = String::new();
    for id in &ids {
        eprintln!("running {id} ({scale:?}) ...");
        let t0 = std::time::Instant::now();
        let report = experiments::run(id, scale)?;
        let text = report.render();
        println!("{text}");
        eprintln!("  done in {:.1}s", t0.elapsed().as_secs_f64());
        full_output.push_str(&text);
        full_output.push('\n');
    }
    if let Some(p) = out_path {
        let mut f = std::fs::File::create(&p)?;
        f.write_all(full_output.as_bytes())?;
        eprintln!("wrote {p}");
    }
    Ok(())
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("usage: experiments [all | fig2 fig3 seq adapt dataset race updates knobs]* [--scale small|full] [--out FILE]");
    std::process::exit(2);
}

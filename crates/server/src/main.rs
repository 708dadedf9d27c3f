//! nodb-server binary: serve registered raw CSV files over TCP.
//!
//! ```text
//! nodb-server --listen 127.0.0.1:7654 --table events=./events.csv
//! nodb-server --smoke            # self-contained CI smoke check
//! ```
//!
//! Flags:
//! * `--listen ADDR`      listen address (default `127.0.0.1:7654`)
//! * `--table NAME=PATH`  register a CSV file (repeatable)
//! * `--budget N`         global scan-thread budget (default 8)
//! * `--queue N`          admission queue bound (default 64)
//! * `--prepared N`       prepared-statement cache capacity (default 64)
//! * `--timeout-ms N`     per-query deadline (default 0 = none)
//! * `--smoke` — start on an ephemeral port with a synthetic table, run
//!   three queries over TCP (one repeated, asserting a prepared-statement
//!   hit) and a bare `LIMIT` (asserting it returns the unlimited answer's
//!   first rows), shut down cleanly, exit nonzero on any failure

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use nodb_core::{NoDb, NoDbConfig};
use nodb_server::{NoDbClient, Server, ServerConfig};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("nodb-server: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    listen: String,
    tables: Vec<(String, String)>,
    budget: usize,
    queue: usize,
    prepared: usize,
    timeout_ms: u64,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        listen: "127.0.0.1:7654".to_string(),
        tables: Vec::new(),
        budget: 8,
        queue: 64,
        prepared: 64,
        timeout_ms: 0,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--listen" => opts.listen = value("--listen")?,
            "--table" => {
                let spec = value("--table")?;
                let (name, path) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("--table wants NAME=PATH, got {spec:?}"))?;
                opts.tables.push((name.to_string(), path.to_string()));
            }
            "--budget" => {
                opts.budget = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget wants an integer".to_string())?
            }
            "--queue" => {
                opts.queue = value("--queue")?
                    .parse()
                    .map_err(|_| "--queue wants an integer".to_string())?
            }
            "--prepared" => {
                opts.prepared = value("--prepared")?
                    .parse()
                    .map_err(|_| "--prepared wants an integer".to_string())?
            }
            "--timeout-ms" => {
                opts.timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms wants an integer".to_string())?
            }
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => {
                return Err("usage: nodb-server [--listen ADDR] [--table NAME=PATH]... \
                            [--budget N] [--queue N] [--prepared N] [--timeout-ms N] [--smoke]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(opts)
}

fn run(args: &[String]) -> Result<(), String> {
    let opts = parse_args(args)?;
    if opts.smoke {
        return smoke();
    }
    if opts.tables.is_empty() {
        return Err("no tables registered; pass at least one --table NAME=PATH".to_string());
    }
    let mut db = NoDb::new(NoDbConfig::default());
    for (name, path) in &opts.tables {
        db.register_csv(name.clone(), path)
            .map_err(|e| format!("registering {name} from {path}: {e}"))?;
        eprintln!("registered table {name} from {path}");
    }
    let server = Server::start(
        Arc::new(db),
        ServerConfig {
            addr: opts.listen.clone(),
            scan_budget: opts.budget,
            admission_queue: opts.queue,
            prepared_statements: opts.prepared,
            query_timeout_ms: opts.timeout_ms,
        },
    )
    .map_err(|e| format!("binding {}: {e}", opts.listen))?;
    eprintln!(
        "nodb-server listening on {} (scan budget {}, queue {})",
        server.local_addr(),
        opts.budget,
        opts.queue
    );

    // Serve until SIGINT/SIGTERM. Signal handling without external crates:
    // a minimal handler flips an AtomicBool the main thread polls.
    let stop = install_stop_flag();
    // Main wait loop — polls the stop flag, so Ctrl-C shuts down cleanly.
    while !stop.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(100));
    }
    eprintln!("nodb-server: shutting down");
    let stats = server.shutdown();
    eprintln!(
        "nodb-server: served {} queries ({} errors) over {} connections",
        stats.queries_ok, stats.queries_err, stats.connections
    );
    Ok(())
}

/// The CI smoke check: synthesize a table, serve it on an ephemeral port,
/// run three queries over real TCP (the third repeats the first and must
/// be a prepared-statement hit), then a bare `LIMIT 5` of the second, whose
/// rows must be the second's first five, and shut down cleanly.
fn smoke() -> Result<(), String> {
    let mut path = std::env::temp_dir();
    path.push(format!("nodb_server_smoke_{}.csv", std::process::id()));
    let gen = nodb_rawcsv::GeneratorConfig::uniform_ints(5, 20_000, 42);
    gen.generate_file(&path)
        .map_err(|e| format!("generating smoke data: {e}"))?;
    let cleanup = TempFile(path.clone());

    let mut db = NoDb::new(NoDbConfig::default());
    db.register_csv_with_schema("smoke", &path, gen.schema(), false)
        .map_err(|e| format!("registering smoke table: {e}"))?;
    let server = Server::start(Arc::new(db), ServerConfig::default())
        .map_err(|e| format!("binding ephemeral port: {e}"))?;
    let addr = server.local_addr();
    eprintln!("smoke: serving on {addr}");

    let mut client = NoDbClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    if !client.ping().map_err(|e| format!("ping: {e}"))? {
        return Err("ping not OK".to_string());
    }

    let queries = [
        "SELECT COUNT(*) FROM smoke",
        "SELECT c1 FROM smoke WHERE c2 > 500000000",
        "SELECT COUNT(*) FROM smoke", // repeat: must hit the prepared cache
    ];
    let mut bodies = Vec::with_capacity(queries.len());
    for (i, sql) in queries.iter().enumerate() {
        let resp = client.query(sql).map_err(|e| format!("query {i}: {e}"))?;
        if !resp.is_ok() {
            return Err(format!("query {i} failed: {}", resp.status));
        }
        eprintln!("smoke: [{i}] {} -> {}", sql, resp.status);
        if i == 2 && !resp.status.contains("prepared=1") {
            return Err(format!(
                "repeat query was not a prepared-statement hit: {}",
                resp.status
            ));
        }
        bodies.push(resp.body);
    }

    // A bare LIMIT stops the scan early, and must still answer with the
    // unlimited query's first rows, in file order.
    let limited = "SELECT c1 FROM smoke WHERE c2 > 500000000 LIMIT 5";
    let resp = client
        .query(limited)
        .map_err(|e| format!("limit query: {e}"))?;
    if !resp.is_ok() {
        return Err(format!("limit query failed: {}", resp.status));
    }
    eprintln!("smoke: [3] {limited} -> {}", resp.status);
    let (got, all) = (body_rows(&resp.body), body_rows(&bodies[1]));
    if got.len() != 5 || all.get(..5) != Some(&got[..]) {
        return Err(format!(
            "LIMIT 5 returned {got:?}, not the first 5 of {} unlimited rows",
            all.len()
        ));
    }

    let stats = client.command("STATS").map_err(|e| format!("stats: {e}"))?;
    eprintln!("smoke: server stats\n{}", stats.body);
    client.quit().map_err(|e| format!("quit: {e}"))?;

    let final_stats = server.shutdown();
    if final_stats.queries_ok != 4 {
        return Err(format!(
            "expected 4 OK queries, saw {}",
            final_stats.queries_ok
        ));
    }
    eprintln!(
        "smoke: clean shutdown after {} queries",
        final_stats.queries_ok
    );
    drop(cleanup);
    Ok(())
}

/// The data rows of a rendered result body: the text table between its
/// header and rule lines and its `(n rows)` footer, right-trimmed (cells
/// are padded to the widest value of the whole result).
fn body_rows(body: &str) -> Vec<&str> {
    let lines: Vec<&str> = body.lines().collect();
    lines
        .get(2..lines.len().saturating_sub(1))
        .unwrap_or_default()
        .iter()
        .map(|l| l.trim_end())
        .collect()
}

struct TempFile(std::path::PathBuf);
impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Dependency-free stop channel: a helper thread drains stdin and flips
/// the flag at EOF (Ctrl-D, or the supervisor closing the pipe). Ctrl-C
/// still terminates the process directly via the default signal behavior —
/// this binary deliberately takes no signal-handling dependency.
fn install_stop_flag() -> Arc<AtomicBool> {
    let stop = Arc::new(AtomicBool::new(false));
    // Portable, dependency-free stop channel: closing stdin (or Ctrl-D)
    // requests shutdown. Ctrl-C still terminates the process directly.
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        use std::io::Read;
        let mut buf = [0u8; 64];
        let mut stdin = std::io::stdin();
        // Drain stdin until EOF, then request shutdown.
        loop {
            match stdin.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
        flag.store(true, Ordering::Relaxed);
    });
    stop
}

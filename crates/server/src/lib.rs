//! lint:cancellable — nodb-server: the TCP serving layer over a shared
//! [`NoDb`] registry. Every accept/dispatch loop in this crate polls its
//! shutdown flag (or the query's `QueryCtx`), so the server always winds
//! down cooperatively.
//!
//! # Architecture
//!
//! ```text
//!  client ──frame──▶ accept loop ──▶ connection thread ──arm──▶ NoDb::query_reported
//!                        │                  │   ◀──disarm──          │
//!                   shutdown flag           │                  ScanBudget::acquire
//!                   reaps finished   disconnect watchdog       (global permits)
//!                   connections      (one per connection, parked while idle)
//!                                           └── EOF while armed ──▶ CancelToken
//! ```
//!
//! [`Server::start`] installs two serving-layer features on the shared
//! `NoDb` through its admin surface:
//!
//! * a global [`ScanBudget`] of `scan_budget` permits with a bounded
//!   admission queue — N concurrent connections share one scan-thread
//!   pool instead of each fanning out `scan_threads` workers, and
//!   arrivals past the queue bound are bounced with `ERR overloaded`
//!   *before* touching any table state;
//! * a [prepared-statement cache](nodb_core::PreparedCache) so repeat SQL
//!   strings skip parse+plan (`prepared=1` in the response status line).
//!
//! Each connection owns one *disconnect watchdog* thread, parked while the
//! connection is idle. Each `QUERY` mints a [`QueryCtx`] (server-configured
//! deadline) and arms the watchdog with its [`CancelToken`]; while armed it
//! `peek`s the client socket, and a client hang-up trips the token: the
//! cooperative machinery from PR 6 unwinds the scan (merging completed
//! partials first), and the table stays fully usable for everyone else.
//! Disarming takes a lock and reads one flag — the response is never held
//! back by the watchdog's peek or by any timer.
//!
//! Wire protocol and command table: `crates/server/README.md`.

// Every narrowing cast on offset or row arithmetic states its bound in an
// `#[expect]`; test code is exempt.
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]

pub mod client;
pub mod protocol;

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nodb_core::{CancelToken, EngineError, NoDb, QueryCtx, ScanBudget};
use parking_lot::Mutex;

use protocol::{read_frame_shutdown_aware, write_frame, Command, READ_POLL};

pub use client::NoDbClient;

/// How often the accept loop wakes to poll the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// Tunables for one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Global scan-thread budget shared by every concurrent query.
    pub scan_budget: usize,
    /// Bounded admission queue: queries allowed to wait for permits at
    /// once; arrivals past this are rejected with `ERR overloaded`.
    pub admission_queue: usize,
    /// Prepared-statement cache capacity (distinct SQL strings); `0`
    /// disables the cache.
    pub prepared_statements: usize,
    /// Per-query deadline in milliseconds (`0` = none).
    pub query_timeout_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scan_budget: 8,
            admission_queue: 64,
            prepared_statements: 64,
            query_timeout_ms: 0,
        }
    }
}

/// Lifetime counters of one server (all monotonic except `active_connections`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStatsSnapshot {
    /// Connections accepted so far.
    pub connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Queries answered with `OK`.
    pub queries_ok: u64,
    /// Queries answered with `ERR` (including overload rejections).
    pub queries_err: u64,
    /// Queries cancelled because their client disconnected mid-flight.
    pub disconnect_cancels: u64,
}

#[derive(Debug, Default)]
struct ServerStats {
    connections: AtomicU64,
    active_connections: AtomicU64,
    queries_ok: AtomicU64,
    queries_err: AtomicU64,
    disconnect_cancels: AtomicU64,
}

impl ServerStats {
    fn snapshot(&self) -> ServerStatsSnapshot {
        ServerStatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active_connections.load(Ordering::Relaxed),
            queries_ok: self.queries_ok.load(Ordering::Relaxed),
            queries_err: self.queries_err.load(Ordering::Relaxed),
            disconnect_cancels: self.disconnect_cancels.load(Ordering::Relaxed),
        }
    }
}

/// A running nodb-server: accept loop + one thread per connection (plus
/// that connection's disconnect watchdog).
pub struct Server {
    db: Arc<NoDb>,
    budget: Arc<ScanBudget>,
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    accept_thread: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind, install the admission budget + prepared-statement cache on
    /// `db`, and start serving in background threads. Returns once the
    /// listener is bound (queries can be sent immediately).
    pub fn start(db: Arc<NoDb>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // Nonblocking accept so the loop can poll the shutdown flag.
        listener.set_nonblocking(true)?;

        let budget = Arc::new(ScanBudget::with_queue(
            config.scan_budget,
            config.admission_queue,
        ));
        db.admin().install_scan_budget(Arc::clone(&budget));
        if config.prepared_statements > 0 {
            db.admin()
                .enable_prepared_statements(config.prepared_statements);
        }

        let shutdown = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ServerStats::default());
        let connections: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let db = Arc::clone(&db);
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let connections = Arc::clone(&connections);
            let timeout_ms = config.query_timeout_ms;
            std::thread::spawn(move || {
                // Accept/dispatch loop: polls `shutdown` every iteration
                // (the lint:cancellable promise for this crate).
                loop {
                    if shutdown.load(Ordering::Relaxed) {
                        break;
                    }
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            stats.connections.fetch_add(1, Ordering::Relaxed);
                            stats.active_connections.fetch_add(1, Ordering::Relaxed);
                            let db = Arc::clone(&db);
                            let shutdown = Arc::clone(&shutdown);
                            let stats2 = Arc::clone(&stats);
                            let handle = std::thread::spawn(move || {
                                let _ =
                                    handle_connection(stream, &db, &stats2, &shutdown, timeout_ms);
                                stats2.active_connections.fetch_sub(1, Ordering::Relaxed);
                            });
                            // Reap connections that have ended, so a
                            // long-running server holds one handle per
                            // *open* connection, not per connection ever.
                            let mut conns = connections.lock();
                            for h in std::mem::take(&mut *conns) {
                                if h.is_finished() {
                                    let _ = h.join();
                                } else {
                                    conns.push(h);
                                }
                            }
                            conns.push(handle);
                        }
                        Err(e) if protocol::is_timeout(&e) => {
                            std::thread::sleep(ACCEPT_POLL);
                        }
                        Err(_) => {
                            // Transient accept failure (e.g. aborted
                            // handshake): keep serving.
                            std::thread::sleep(ACCEPT_POLL);
                        }
                    }
                }
            })
        };

        Ok(Server {
            db,
            budget,
            addr,
            shutdown,
            stats,
            accept_thread: Some(accept_thread),
            connections,
        })
    }

    /// The bound address (resolves the ephemeral port of `127.0.0.1:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared database this server fronts.
    pub fn db(&self) -> &Arc<NoDb> {
        &self.db
    }

    /// The admission budget installed at start (telemetry for tests and
    /// operators).
    pub fn budget(&self) -> &Arc<ScanBudget> {
        &self.budget
    }

    /// Current serving counters.
    pub fn stats(&self) -> ServerStatsSnapshot {
        self.stats.snapshot()
    }

    /// Signal shutdown and join the accept loop and every connection
    /// thread. Connections finish their in-flight request, then see the
    /// flag and exit.
    pub fn shutdown(mut self) -> ServerStatsSnapshot {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<JoinHandle<()>> = std::mem::take(&mut *self.connections.lock());
        for h in handles {
            let _ = h.join();
        }
        self.stats.snapshot()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Best-effort: a dropped-without-shutdown server still stops
        // accepting and lets detached connection threads drain.
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// Serve one connection until EOF, `QUIT`, or server shutdown.
fn handle_connection(
    mut stream: TcpStream,
    db: &Arc<NoDb>,
    stats: &Arc<ServerStats>,
    shutdown: &Arc<AtomicBool>,
    timeout_ms: u64,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_POLL))?;
    let watchdog = Watchdog::spawn(&stream)?;
    // This connection's most recent query report (REPORT command) — kept
    // per-connection so concurrent clients never see each other's reports.
    let mut last_report: Option<nodb_core::QueryReport> = None;
    // Dispatch loop: `read_frame_shutdown_aware` polls the shutdown flag
    // between read timeouts, so an idle connection notices shutdown within
    // one READ_POLL tick.
    // Runs until client EOF or server shutdown (a `None` frame).
    while let Some(line) = read_frame_shutdown_aware(&mut stream, shutdown)? {
        let command = match Command::parse(&line) {
            Ok(c) => c,
            Err(msg) => {
                respond(&mut stream, &format!("ERR {msg}"), "")?;
                continue;
            }
        };
        match command {
            Command::Ping => respond(&mut stream, "OK", "pong")?,
            Command::Quit => {
                respond(&mut stream, "OK", "bye")?;
                break;
            }
            Command::Tables => {
                let names = db.table_names().join("\n");
                respond(&mut stream, "OK", &names)?;
            }
            Command::Schema(table) => match db.schema(&table) {
                Some(schema) => respond(&mut stream, "OK", &schema.to_string())?,
                None => respond(&mut stream, &format!("ERR unknown table {table:?}"), "")?,
            },
            Command::Panel(table) => match db.snapshot(&table) {
                Some(snap) => respond(&mut stream, "OK", &snap.panel())?,
                None => respond(&mut stream, &format!("ERR unknown table {table:?}"), "")?,
            },
            Command::Report => match &last_report {
                Some(rep) => {
                    let body = format!("{}\nplan: {}", rep.breakdown.panel_row(), rep.plan);
                    respond(&mut stream, "OK", &body)?;
                }
                None => respond(&mut stream, "ERR no query on this connection yet", "")?,
            },
            Command::Stats => {
                let s = stats.snapshot();
                let mut body = format!(
                    "connections={}\nactive_connections={}\nqueries_ok={}\nqueries_err={}\ndisconnect_cancels={}",
                    s.connections,
                    s.active_connections,
                    s.queries_ok,
                    s.queries_err,
                    s.disconnect_cancels
                );
                if let Some(t) = db.admin().budget_telemetry() {
                    body.push_str(&format!(
                        "\nbudget_capacity={}\nbudget_in_flight={}\nbudget_waiting={}\nbudget_peak_in_flight={}\nbudget_peak_waiting={}\nbudget_admitted={}\nbudget_rejected={}",
                        t.capacity,
                        t.in_flight,
                        t.waiting,
                        t.peak_in_flight,
                        t.peak_waiting,
                        t.admitted,
                        t.rejected
                    ));
                }
                if let Some(p) = db.admin().prepared_stats() {
                    body.push_str(&format!(
                        "\nprepared_hits={}\nprepared_misses={}\nprepared_evictions={}\nprepared_invalidations={}",
                        p.hits, p.misses, p.evictions, p.invalidations
                    ));
                }
                respond(&mut stream, "OK", &body)?;
            }
            Command::Snapshot => {
                let results = db.admin().snapshot_now();
                let mut failed = 0usize;
                let body = results
                    .iter()
                    .map(|(table, r)| match r {
                        Ok(()) => format!("{table}=ok"),
                        Err(msg) => {
                            failed += 1;
                            format!("{table}=err {msg}")
                        }
                    })
                    .collect::<Vec<_>>()
                    .join("\n");
                let status = if failed == 0 {
                    "OK".to_string()
                } else {
                    format!("ERR {failed} snapshot save(s) failed")
                };
                respond(&mut stream, &status, &body)?;
            }
            Command::SnapshotStats => {
                let t = db.admin().snapshot_stats();
                let body = format!(
                    "saves={}\nsave_failures={}\nrestores={}\nrestores_rejected={}",
                    t.saves, t.save_failures, t.restores, t.restores_rejected
                );
                respond(&mut stream, "OK", &body)?;
            }
            Command::EpochStats => {
                let (source_changes, rows) = db.admin().epoch_report();
                let mut body = format!("source_changes={source_changes}");
                for (name, generation, epoch) in rows {
                    body.push_str(&format!(
                        "\ntable={name} generation={generation} len={} trusted_len={} torn_tail={}",
                        epoch.len,
                        epoch.trusted_len,
                        u8::from(epoch.trusted_len < epoch.len),
                    ));
                }
                respond(&mut stream, "OK", &body)?;
            }
            Command::Query(sql) => {
                let outcome = run_query(&mut stream, &watchdog, db, stats, timeout_ms, &sql);
                match outcome {
                    Ok(report) => {
                        last_report = report;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
    }
    Ok(())
}

/// Execute one `QUERY` under the connection's armed watchdog, write the
/// two response frames, and hand back the query's report (None on error
/// responses).
fn run_query(
    stream: &mut TcpStream,
    watchdog: &Watchdog,
    db: &Arc<NoDb>,
    stats: &Arc<ServerStats>,
    timeout_ms: u64,
    sql: &str,
) -> io::Result<Option<nodb_core::QueryReport>> {
    let ctx = QueryCtx::from_timeout_ms(timeout_ms);
    let t0 = Instant::now();
    watchdog.arm(ctx.cancel_token());
    let result = db.query_reported(sql, &ctx);
    if watchdog.disarm() {
        stats.disconnect_cancels.fetch_add(1, Ordering::Relaxed);
    }
    match result {
        Ok((result, report)) => {
            stats.queries_ok.fetch_add(1, Ordering::Relaxed);
            let status = format!(
                "OK rows={} prepared={} cached={} source_changed={} ms={:.3}",
                result.len(),
                u8::from(report.prepared_hit),
                u8::from(report.fully_cached),
                report.source_changed,
                t0.elapsed().as_secs_f64() * 1e3
            );
            respond(stream, &status, &result.to_string())?;
            Ok(Some(report))
        }
        Err(e) => {
            stats.queries_err.fetch_add(1, Ordering::Relaxed);
            let status = match &e {
                EngineError::Overloaded { .. } => format!("ERR overloaded: {e}"),
                _ => format!("ERR {e}"),
            };
            // A disconnected client cannot receive the error frame; ignore
            // the write failure and let the dispatch loop observe EOF.
            let _ = respond(stream, &status, "");
            Ok(None)
        }
    }
}

/// What a connection thread shares with its watchdog.
#[derive(Default)]
struct WatchState {
    /// The running query's token while armed; `None` while idle.
    armed: Option<CancelToken>,
    /// The watchdog cancelled the armed query (cleared by `disarm`).
    tripped: bool,
    /// Connection teardown: the watchdog exits.
    closing: bool,
}

/// One connection's disconnect watchdog: a thread parked while the
/// connection is idle that, while a query is armed, peeks the client
/// socket and trips the query's [`CancelToken`] on EOF. Dropping it stops
/// and joins the thread.
struct Watchdog {
    state: Arc<Mutex<WatchState>>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    fn spawn(stream: &TcpStream) -> io::Result<Watchdog> {
        // The clone is the same socket, so it shares the connection's
        // `READ_POLL` read timeout (`SO_RCVTIMEO` belongs to the socket,
        // not the descriptor): an armed peek returns within one tick.
        let peek = stream.try_clone()?;
        let state = Arc::new(Mutex::new(WatchState::default()));
        let shared = Arc::clone(&state);
        let handle = std::thread::Builder::new()
            .name("nodb-watchdog".to_string())
            .spawn(move || watch(&peek, &shared))?;
        Ok(Watchdog {
            state,
            handle: Some(handle),
        })
    }

    /// Watch the socket on behalf of the query owning `token`.
    fn arm(&self, token: CancelToken) {
        self.state.lock().armed = Some(token);
        self.wake();
    }

    /// Stop watching; `true` when the watchdog cancelled the query because
    /// its client disconnected. Never waits for the watchdog's peek.
    fn disarm(&self) -> bool {
        let mut s = self.state.lock();
        s.armed = None;
        std::mem::take(&mut s.tripped)
    }

    fn wake(&self) {
        if let Some(h) = &self.handle {
            h.thread().unpark();
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.state.lock().closing = true;
        self.wake();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// The watchdog thread: parked until armed or closing; while armed,
/// peeks the socket and cancels the armed query on EOF or a socket error.
fn watch(peek: &TcpStream, state: &Mutex<WatchState>) {
    let mut probe = [0u8; 1];
    loop {
        let armed = {
            let s = state.lock();
            if s.closing {
                return;
            }
            s.armed.is_some()
        };
        if !armed {
            std::thread::park();
            continue;
        }
        match peek.peek(&mut probe) {
            Err(e) if protocol::is_timeout(&e) => {}
            // The client pipelined its next request: nothing to watch
            // until `arm` wakes us for it.
            Ok(n) if n > 0 => std::thread::park(),
            // EOF or a reset: the client is gone. Cancel the query if it
            // is still running; the scan unwinds cooperatively and merges
            // completed partials (PR 6 semantics).
            _ => {
                let mut s = state.lock();
                if let Some(token) = s.armed.take() {
                    token.cancel();
                    s.tripped = true;
                }
            }
        }
    }
}

/// Write the canonical two-frame response: status line, then body.
fn respond(stream: &mut impl Write, status: &str, body: &str) -> io::Result<()> {
    write_frame(stream, status)?;
    write_frame(stream, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nodb_core::NoDbConfig;

    /// The accept loop joins ended connections: 200 connect-and-`QUIT`
    /// sessions leave a handful of handles behind, not 200.
    #[test]
    fn accept_loop_reaps_finished_connections() {
        let db = Arc::new(NoDb::new(NoDbConfig::default()));
        let server = Server::start(db, ServerConfig::default()).unwrap();
        for _ in 0..200 {
            NoDbClient::connect(server.local_addr())
                .unwrap()
                .quit()
                .unwrap();
        }
        let held = server.connections.lock().len();
        assert!(held <= 8, "{held} handles held after 200 closed sessions");
        assert_eq!(server.shutdown().connections, 200);
    }
}

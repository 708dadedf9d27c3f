//! `serve_mixed`: the wire path. A warm instance behind
//! `nodb_server::Server` on loopback, in this process, and `min(nproc, 4)`
//! `NoDbClient` connections, each a closed loop over its own stream of the
//! warm classes skewed short. Against `warm_analytics` (same kind of SQL,
//! no wire, one client) it isolates framing, result rendering, admission,
//! the planning lock and the prepared-statement cache.

use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

use nodb_core::{NoDb, QueryCtx};
use nodb_server::{NoDbClient, Server, ServerConfig};

use super::SERVE_MIXED;
use crate::datasets::{self, Dataset};
use crate::digest::{Expect, Rendered};
use crate::harness::{
    op_attrs, repeat_setup, warm_instance, Counters, Env, Oracle, Outcome, Sample, WARM_SETUP_REPS,
};
use crate::json::Value;
use crate::queries::{self, Mix};
use crate::stat::{median, Rng};
use crate::trace::{Span, Tracer};

/// A running server that is shut down, and its threads joined, on drop.
pub struct Served {
    server: Option<Server>,
}

impl Served {
    pub fn start(db: NoDb, tracer: &mut Tracer) -> Result<Served, String> {
        let span = tracer.begin("Server::start");
        let server = Server::start(Arc::new(db), ServerConfig::default());
        tracer.end(span);
        Ok(Served {
            server: Some(server.map_err(|e| format!("Server::start: {e}"))?),
        })
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("present until drop")
    }

    pub fn addr(&self) -> SocketAddr {
        self.server().local_addr()
    }

    pub fn db(&self) -> &NoDb {
        self.server().db()
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// How many connections the workload opens.
pub fn client_count() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// A warm instance over `narrow` behind a server.
pub fn warm_server(data: &Dataset, mix: &Mix, tracer: &mut Tracer) -> Result<Served, String> {
    let warm_sql: Vec<&str> = mix
        .pool
        .iter()
        .map(|q| match &q.check {
            queries::Check::BareLimit { unlimited, .. } => unlimited.as_str(),
            _ => q.sql.as_str(),
        })
        .collect();
    let db = warm_instance(data, &data.path, &warm_sql, tracer)?;
    Served::start(db, tracer)
}

struct ClientRun {
    samples: Vec<Sample>,
    spans: Vec<Span>,
    started: Instant,
    ended: Instant,
}

pub struct Phase {
    pub samples: Vec<Sample>,
    pub spans: Vec<Span>,
    /// First client's start to last client's end.
    pub wall_s: f64,
}

/// What every client of one phase is given.
#[derive(Clone, Copy)]
pub struct Load<'a> {
    pub addr: SocketAddr,
    pub mix: &'a Mix,
    pub expects: &'a [Expect],
    pub seconds: f64,
    pub seed: u64,
    pub traced: bool,
    /// Time zero of the run's trace.
    pub epoch: Instant,
}

/// `clients` closed loops for `load.seconds`, each walking the mix in its
/// own seeded order and checking every body it receives.
pub fn drive_clients(load: Load, clients: usize) -> Result<Phase, String> {
    let barrier = Barrier::new(clients);
    let runs: Vec<Result<ClientRun, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let connected = NoDbClient::connect(load.addr);
                    // Every client reaches the barrier, connected or not,
                    // so that one refused connection cannot hang the rest.
                    barrier.wait();
                    let conn = connected.map_err(|e| format!("connect {}: {e}", load.addr))?;
                    Ok(client_loop(conn, load, client))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("a client thread panicked".to_string()))
            })
            .collect()
    });
    let runs = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let started = runs.iter().map(|r| r.started).min().expect("clients >= 1");
    let ended = runs.iter().map(|r| r.ended).max().expect("clients >= 1");
    let mut phase = Phase {
        samples: Vec::new(),
        spans: Vec::new(),
        wall_s: ended.duration_since(started).as_secs_f64(),
    };
    for run in runs {
        phase.samples.extend(run.samples);
        phase.spans.extend(run.spans);
    }
    Ok(phase)
}

fn client_loop(mut conn: NoDbClient, load: Load, client: usize) -> ClientRun {
    let Load {
        mix,
        expects,
        seconds,
        traced,
        ..
    } = load;
    let stream = load.seed.wrapping_mul(1_000).wrapping_add(client as u64);
    let mut tracer = Tracer::new(load.epoch, client as u64 + 1);
    let mut order = Rng::new(stream);
    let mut trace_rng = Rng::new(stream ^ 0x7ace);
    let mut samples = Vec::new();
    let started = Instant::now();
    'phase: loop {
        for index in mix.shuffled_cycle(&mut order) {
            if started.elapsed().as_secs_f64() >= seconds {
                break 'phase;
            }
            let query = &mix.pool[index];
            let op_traced = traced && trace_rng.below(2) == 0;
            tracer.enabled = op_traced;
            let t = Instant::now();
            let root = tracer.begin("op");
            let call = tracer.begin("NoDbClient::query");
            let response = conn.query(&query.sql);
            tracer.end(call);
            tracer.end(root);
            let latency_ms = t.elapsed().as_secs_f64() * 1e3;
            // An I/O error, an `ERR` status (a refusal such as `ERR
            // overloaded` included) and a wrong body are all failed ops.
            let ok = match &response {
                Ok(r) if r.is_ok() => {
                    Rendered::of_wire_body(&r.body).is_some_and(|got| expects[index].matches(&got))
                }
                _ => false,
            };
            if let Ok(r) = &response {
                tracer.attr(root, "status", Value::str(r.status.clone()));
            }
            tracer.attr(root, "client", Value::Num(client as f64));
            op_attrs(
                &mut tracer,
                root,
                SERVE_MIXED,
                query.class,
                samples.len(),
                ok,
            );
            samples.push(Sample {
                class: query.class,
                latency_ms,
                traced: op_traced,
                ok,
            });
            if response.is_err() {
                // The connection is gone; what it would have sent is lost.
                break 'phase;
            }
        }
    }
    let ended = Instant::now();
    let _ = conn.quit();
    ClientRun {
        samples,
        spans: tracer.into_spans(),
        started,
        ended,
    }
}

/// What the engine does for this mix, without the wire: replay one cycle
/// in process against the served instance and sum the program's reports
/// (a `NoDbClient` receives only a status line and a body).
fn replay_in_process(db: &NoDb, mix: &Mix, cycles: usize) -> Result<Counters, String> {
    let mut counters = Counters::default();
    for _ in 0..cycles {
        for &index in &mix.cycle {
            let sql = &mix.pool[index].sql;
            let (_, report) = db
                .query_reported(sql, &QueryCtx::unbounded())
                .map_err(|e| format!("replay {sql:?}: {e}"))?;
            counters.add(&report);
        }
    }
    Ok(counters)
}

pub fn run(env: &mut Env) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let harness = Instant::now();
    let data = datasets::generate(
        "narrow",
        datasets::narrow_config(env.seed, env.quick),
        env.dir,
    )?;
    out.notes.push(data.describe());
    let mix = queries::serve_mix(env.seed);
    let expects = Oracle::load(&data, env.dir)?.expect_all(&mix.pool)?;
    out.sql_texts = mix.pool.iter().map(|q| q.sql.clone()).collect();
    out.harness_s = harness.elapsed().as_secs_f64();

    env.trace_all();
    let (served, setup_s) = repeat_setup(WARM_SETUP_REPS, || {
        warm_server(&data, &mix, &mut env.tracer)
    })?;
    out.setup_s = setup_s;

    let clients = client_count();
    let load = Load {
        addr: served.addr(),
        mix: &mix,
        expects: &expects,
        seconds: env.seconds,
        seed: env.seed,
        traced: env.traced,
        epoch: env.tracer.epoch(),
    };
    let phase = drive_clients(load, clients)?;
    out.notes
        .push(format!("{clients} client connections, closed loop"));
    out.busy_s = phase.wall_s;
    out.samples = phase.samples;
    out.record_state(served.db(), data.bytes);
    if env.traced {
        out.counters = replay_in_process(served.db(), &mix, 5)?;
    }
    env.extra_spans.extend(phase.spans);
    Ok(out)
}

/// The server's own layer metrics, measured the same way in every traced
/// run: a warm instance over `narrow` behind a server.
pub struct ServerProbe {
    pub ping_us: f64,
    pub wire_overhead_ms: f64,
    pub client_scaling: f64,
    pub prepared_hit_ratio: f64,
    pub admission_peak_in_flight: f64,
    pub admission_peak_waiting: f64,
    pub admission_rejected: f64,
}

pub fn probe(env: &mut Env, data: &Dataset, oracle: &mut Oracle) -> Result<ServerProbe, String> {
    let mix = queries::serve_mix(env.seed);
    let expects = oracle.expect_all(&mix.pool)?;
    let served = warm_server(data, &mix, &mut env.tracer)?;
    let mut conn = NoDbClient::connect(served.addr())
        .map_err(|e| format!("connect {}: {e}", served.addr()))?;

    let span = env.tracer.begin("probe server.ping_us");
    let mut pings = Vec::new();
    for _ in 0..if env.quick { 20 } else { 200 } {
        let t = Instant::now();
        if !conn.ping().map_err(|e| format!("ping: {e}"))? {
            return Err("ping was not answered with OK".to_string());
        }
        pings.push(t.elapsed().as_secs_f64() * 1e6);
    }
    env.tracer.end(span);

    // The same statements on the same warm instance, over one connection
    // and in process.
    let span = env.tracer.begin("probe server.wire_overhead_ms");
    let (mut wire, mut direct) = (Vec::new(), Vec::new());
    for _ in 0..if env.quick { 1 } else { 2 } {
        for &index in &mix.cycle {
            let sql = &mix.pool[index].sql;
            let t = Instant::now();
            let r = conn
                .query(sql)
                .map_err(|e| format!("wire probe {sql:?}: {e}"))?;
            wire.push(t.elapsed().as_secs_f64() * 1e3);
            if !r.is_ok() {
                return Err(format!("wire probe {sql:?}: {}", r.status));
            }
            let t = Instant::now();
            served
                .db()
                .query_reported(sql, &QueryCtx::unbounded())
                .map_err(|e| format!("wire probe {sql:?} in process: {e}"))?;
            direct.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    env.tracer.end(span);
    let _ = conn.quit();

    let span = env.tracer.begin("probe server.client_scaling");
    let load = Load {
        addr: served.addr(),
        mix: &mix,
        expects: &expects,
        seconds: if env.quick { 0.1 } else { 1.0 },
        seed: env.seed,
        traced: false,
        epoch: env.tracer.epoch(),
    };
    let throughput = |clients: usize| -> Result<f64, String> {
        let phase = drive_clients(load, clients)?;
        let correct = phase.samples.iter().filter(|s| s.ok).count();
        if correct < phase.samples.len() {
            return Err(format!(
                "server probe: {} of {} answers wrong",
                phase.samples.len() - correct,
                phase.samples.len()
            ));
        }
        Ok(correct as f64 / phase.wall_s)
    };
    let one = throughput(1)?;
    let many = throughput(client_count())?;
    env.tracer.end(span);

    let admin = served.db().admin();
    let budget = admin
        .budget_telemetry()
        .ok_or("the server installed no scan budget")?;
    let prepared = admin
        .prepared_stats()
        .ok_or("the server enabled no prepared-statement cache")?;
    Ok(ServerProbe {
        ping_us: median(&pings),
        wire_overhead_ms: median(&wire) - median(&direct),
        client_scaling: many / one,
        prepared_hit_ratio: prepared.hits as f64 / (prepared.hits + prepared.misses).max(1) as f64,
        admission_peak_in_flight: budget.peak_in_flight as f64,
        admission_peak_waiting: budget.peak_waiting as f64,
        admission_rejected: budget.rejected as f64,
    })
}

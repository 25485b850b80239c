//! `bank-tcp`: the full deployment. Two `Client` connections over
//! loopback TCP to an `lr-server` whose engine runs the `tcp:btree` DC
//! backend, so every transaction crosses two real sockets (client↔TC and
//! TC↔DC). Closed loop of transfers: read-for-update both accounts,
//! update both, commit. Keys are uniform over 100k bulk-loaded 8-byte
//! accounts, which fit in the 4,096-frame pool.

use crate::harness::{conflict_backoff, outcome, span, timed, timed_setups, Schedule, Tally};
use crate::journal::WireAgg;
use crate::layers::{engine_layers, Window, Work};
use crate::report::Report;
use crate::stats::{cpu_seconds, peak_rss_mb, ratio, Samples, Sliced};
use crate::{Opts, Outcome};
use lr_common::{Error, Result};
use lr_core::{Engine, EngineConfig, DEFAULT_TABLE};
use lr_server::{Client, Server, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

const ACCOUNTS: u64 = 100_000;
const POOL_PAGES: usize = 4_096;
const CLIENTS: usize = 2;
const WARMUP: Duration = Duration::from_secs(1);
const SETUPS: usize = 9;
const MAX_RETRIES: usize = 1_000;
/// Journal capacity for the traced phase. Rings are drained every
/// [`DRAIN_EVERY`]; this leaves two orders of magnitude of headroom over
/// one drain period's events.
const TRACE_CAPACITY: usize = 1 << 18;
const DRAIN_EVERY: Duration = Duration::from_millis(10);
/// Largest key range one verification scan asks the server for.
const SCAN_CHUNK: u64 = 8_192;

fn config(trace: bool) -> EngineConfig {
    EngineConfig {
        initial_rows: ACCOUNTS,
        row_value_size: 8,
        pool_pages: POOL_PAGES,
        backend: "tcp:btree".to_string(),
        io_model: lr_common::IoModel::zero(),
        commit_force_us: 0,
        trace,
        trace_capacity: TRACE_CAPACITY,
        ..EngineConfig::default()
    }
}

fn balance(bytes: &[u8]) -> Result<u64> {
    let raw: [u8; 8] = bytes
        .try_into()
        .map_err(|_| Error::RecoveryInvariant(format!("balance has {} bytes", bytes.len())))?;
    Ok(u64::from_le_bytes(raw))
}

/// Wrapping sum of the bulk-loaded balances: what every transfer must
/// conserve.
fn initial_total(cfg: &EngineConfig) -> u64 {
    (0..ACCOUNTS).fold(0u64, |sum, k| {
        sum.wrapping_add(balance(&cfg.initial_value(k)).expect("8-byte initial value"))
    })
}

struct Deployment {
    server: Server,
    clients: Vec<Client>,
}

fn deploy(trace: bool) -> Result<Deployment> {
    let engine = Engine::build(config(trace))?.into_shared();
    let cap = CLIENTS + 2;
    let (server, addr) = Server::start_tcp(engine, ServerConfig { max_sessions: cap })?;
    let clients = (0..CLIENTS).map(|_| Client::connect_tcp(addr)).collect::<Result<_>>()?;
    Ok(Deployment { server, clients })
}

#[derive(Default)]
struct ClientLog {
    /// Committed transfers' latencies by completion slice.
    done: Sliced,
    txn: Samples,
    begin: Samples,
    rfu: Samples,
    update: Samples,
    commit: Samples,
    attempted: u64,
    committed: u64,
    failed: u64,
    conflicts: u64,
    errors: Vec<String>,
    /// When the last measured transfer finished.
    last_end: Option<Instant>,
}

impl ClientLog {
    fn new(sched: &Schedule) -> ClientLog {
        ClientLog { done: sched.sliced(), ..ClientLog::default() }
    }

    fn merge(&mut self, o: ClientLog) {
        self.done.merge(&o.done);
        for (a, b) in [
            (&mut self.txn, &o.txn),
            (&mut self.begin, &o.begin),
            (&mut self.rfu, &o.rfu),
            (&mut self.update, &o.update),
            (&mut self.commit, &o.commit),
        ] {
            a.extend(b);
        }
        self.attempted += o.attempted;
        self.committed += o.committed;
        self.failed += o.failed;
        self.conflicts += o.conflicts;
        self.errors.extend(o.errors);
        self.last_end = self.last_end.max(o.last_end);
    }
}

/// One attempt at a transfer; every call is timed into `log` (when
/// `keep`), and a lock conflict surfaces for the caller to retry.
fn attempt(
    c: &mut Client,
    (from, to, amount): (u64, u64, u64),
    log: &mut ClientLog,
    keep: bool,
) -> Result<()> {
    let (r, d) = timed(|| c.begin());
    span(keep, &mut log.begin, d);
    r?;
    let mut balances = [0u64; 2];
    for (slot, key) in balances.iter_mut().zip([from, to]) {
        let (r, d) = timed(|| c.read_for_update(DEFAULT_TABLE, key));
        span(keep, &mut log.rfu, d);
        let bytes = r?.ok_or_else(|| Error::RecoveryInvariant(format!("account {key} missing")))?;
        *slot = balance(&bytes)?;
    }
    let [a, b] = balances;
    for (key, value) in [(from, a.wrapping_sub(amount)), (to, b.wrapping_add(amount))] {
        let (r, d) = timed(|| c.update(DEFAULT_TABLE, key, value.to_le_bytes().to_vec()));
        span(keep, &mut log.update, d);
        r?;
    }
    let (r, d) = timed(|| c.commit());
    span(keep, &mut log.commit, d);
    r
}

/// Closed loop on one connection until the schedule ends.
fn run_client(c: &mut Client, seed: u64, idx: u64, sched: Schedule) -> ClientLog {
    let mut rng = StdRng::seed_from_u64(seed ^ (idx + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mut log = ClientLog::new(&sched);
    loop {
        let start = Instant::now();
        if sched.over(start) {
            break;
        }
        let keep = sched.measured(start);
        let from = rng.gen_range(0..ACCOUNTS);
        let to = (from + rng.gen_range(1..ACCOUNTS)) % ACCOUNTS;
        let amount = rng.gen_range(1..100u64);
        let mut retries = 0usize;
        let result = loop {
            match attempt(c, (from, to, amount), &mut log, keep) {
                Ok(()) => break Ok(()),
                Err(Error::LockConflict { .. }) if retries < MAX_RETRIES => {
                    log.conflicts += u64::from(keep);
                    retries += 1;
                    if let Err(e) = c.abort() {
                        break Err(e);
                    }
                    conflict_backoff(retries);
                }
                Err(e) => {
                    let _ = c.abort();
                    break Err(e);
                }
            }
        };
        // A warm-up transfer's error still fails the run; only its
        // latency and count are left out.
        if let Err(e) = &result {
            if log.errors.len() < 5 {
                let when = if keep { "" } else { " (warm-up)" };
                log.errors.push(format!("transfer {from}->{to}{when}: {e}"));
            }
        }
        if !keep {
            continue;
        }
        let end = Instant::now();
        log.attempted += 1;
        log.last_end = Some(end);
        if result.is_ok() {
            log.committed += 1;
            log.txn.push(end - start);
            log.done.push(end, end - start);
        } else {
            log.failed += 1;
        }
    }
    log
}

struct Phase {
    log: ClientLog,
    seconds: f64,
    /// Process CPU time over the window, all threads.
    cpu_s: f64,
    window: Window,
    wire: WireAgg,
}

impl Phase {
    fn ops_per_s(&self) -> f64 {
        self.log.done.rate_median()
    }

    fn tally(&self) -> Tally<'_> {
        Tally { attempted: self.log.attempted, failed: self.log.failed, errors: &self.log.errors }
    }
}

fn run_phase(dep: &mut Deployment, seed: u64, measure: Duration) -> Phase {
    let sched = Schedule::starting_now(WARMUP, measure);
    let server = &dep.server;
    let engine = server.engine();
    let mut wire = WireAgg::default();
    let mut log = ClientLog::new(&sched);
    let mut before = None;
    let mut cpu0 = 0.0;
    std::thread::scope(|scope| {
        let handles: Vec<_> = dep
            .clients
            .iter_mut()
            .enumerate()
            .map(|(i, c)| scope.spawn(move || run_client(c, seed, i as u64, sched)))
            .collect();
        // Warm-up events are drained and dropped so the rings start the
        // window empty.
        Schedule::wait_until(sched.warm_end, DRAIN_EVERY, || drop(engine.drain_trace()));
        drop(engine.drain_trace());
        before = Some(server.metrics());
        cpu0 = cpu_seconds();
        while !handles.iter().all(|h| h.is_finished()) {
            std::thread::sleep(DRAIN_EVERY);
            wire.feed(&engine.drain_trace());
        }
        for h in handles {
            log.merge(h.join().expect("client thread"));
        }
    });
    let cpu_s = cpu_seconds() - cpu0;
    wire.feed(&engine.drain_trace());
    let after = server.metrics();
    let seconds = log.last_end.map_or(0.0, |t| (t - sched.warm_end).as_secs_f64());
    Phase { log, seconds, cpu_s, window: Window { before: before.expect("snapshot"), after }, wire }
}

/// Money is conserved, every account is still there, no lock leaked and
/// no transaction died with its connection.
fn verify(dep: &mut Deployment) -> Vec<String> {
    let mut problems = Vec::new();
    let expected = initial_total(dep.server.engine().config());
    let client = &mut dep.clients[0];
    let (mut rows, mut total) = (0u64, 0u64);
    let mut from = 0;
    while from < ACCOUNTS {
        let to = (from + SCAN_CHUNK).min(ACCOUNTS) - 1;
        match client.scan_range(DEFAULT_TABLE, from, to) {
            Ok(chunk) => {
                for (_, v) in &chunk {
                    match balance(v) {
                        Ok(b) => total = total.wrapping_add(b),
                        Err(e) => problems.push(e.to_string()),
                    }
                }
                rows += chunk.len() as u64;
            }
            Err(e) => problems.push(format!("verification scan failed: {e}")),
        }
        from = to + 1;
    }
    if rows != ACCOUNTS {
        problems.push(format!("{rows} accounts after the run, expected {ACCOUNTS}"));
    }
    if total != expected {
        problems.push(format!("balances sum to {total}, expected {expected}"));
    }
    let locks = dep.server.engine().tc().locks();
    if !locks.leaked().is_empty() || locks.lock_count() != 0 {
        problems.push(format!("locks leaked: {:?}", locks.leaked()));
    }
    let aborts = dep.server.stats().disconnect_aborts;
    if aborts != 0 {
        problems.push(format!("{aborts} transactions aborted by a disconnect"));
    }
    problems
}

pub fn run(opts: &Opts) -> Outcome {
    let mut report = Report::default();
    let measure = Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        // Untraced half for the overhead baseline, traced half for layers.
        let mut plain = deploy(false).expect("deploy bank-tcp");
        let base = run_phase(&mut plain, opts.seed, measure / 2);
        let mut problems = verify(&mut plain);
        drop(plain);
        let mut traced = deploy(true).expect("deploy traced bank-tcp");
        let phase = run_phase(&mut traced, opts.seed, measure / 2);
        problems.extend(verify(&mut traced));
        report.put("trace.overhead", ratio(phase.ops_per_s(), base.ops_per_s()), "ratio", 2);
        layer_metrics(&phase, &mut report);
        return outcome(report, problems, [base.tally(), phase.tally()]);
    }
    let (mut dep, setup_s, n) = timed_setups(SETUPS, || deploy(false).expect("deploy bank-tcp"));
    report.put("setup_s", setup_s, "s", n as u64);
    report.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    let phase = run_phase(&mut dep, opts.seed, measure);
    let problems = verify(&mut dep);
    // Not gated: the peak once the window's work and its checks are done.
    // It holds the log the window wrote, so it moves with the amount of
    // work done (see README.md).
    report.put("window_peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    let log = &phase.log;
    let n = log.done.len() as u64;
    report.put("ops_per_s", phase.ops_per_s(), "1/s", n);
    report.put(
        "cpu_us_per_op",
        ratio(phase.cpu_s * 1e6, log.committed as f64),
        "us",
        log.committed,
    );
    if let Some(p50) = log.done.quantile_median_us(0.5) {
        report.put("op_p50_us", p50, "us", n);
        report.put("txn_p50_us", p50, "us", n);
    }
    // Not gated: a p99 the sample cannot support is left out, not failed.
    if let Some(p99) = log.txn.clone().supported_us(0.99) {
        report.put("txn_p99_us", p99, "us", log.txn.len() as u64);
    }
    report.put(
        "failed_frac",
        ratio(log.failed as f64, log.attempted as f64),
        "ratio",
        log.attempted,
    );
    outcome(report, problems, [phase.tally()])
}

/// The traced phase's per-layer metrics.
fn layer_metrics(phase: &Phase, r: &mut Report) {
    let log = &phase.log;
    let txns = log.committed;
    let p50 = |s: &Samples| s.clone().p50_us().unwrap_or(0.0);
    let (begin, rfu, update, commit, txn) =
        (p50(&log.begin), p50(&log.rfu), p50(&log.update), p50(&log.commit), p50(&log.txn));
    r.put("server.begin_us", begin, "us", log.begin.len() as u64);
    r.put("server.read_for_update_us", rfu, "us", log.rfu.len() as u64);
    r.put("server.update_us", update, "us", log.update.len() as u64);
    r.put("server.commit_us", commit, "us", log.commit.len() as u64);
    let w = &phase.window;
    r.put("server.requests_per_txn", ratio(w.delta("server_requests"), txns as f64), "count", txns);
    r.put(
        "server.dispatch_us",
        w.hist_mean("server_request_latency_us"),
        "us",
        w.delta("server_requests") as u64,
    );
    let wire = &phase.wire;
    r.put("dc.round_trips_per_txn", ratio(wire.round_trips as f64, txns as f64), "count", txns);
    r.put("dc.round_trip_us", wire.rtt.clone().p50_us().unwrap_or(0.0), "us", wire.round_trips);
    r.put("dc.wire_bytes_per_txn", ratio(wire.bytes as f64, txns as f64), "B", txns);
    r.put(
        "dc.token_releases_per_txn",
        ratio(wire.token_releases as f64, txns as f64),
        "count",
        txns,
    );
    r.put("reconcile.ratio", ratio(begin + 2.0 * rfu + 2.0 * update + commit, txn), "ratio", txns);
    let work = Work {
        ops: txns,
        txns,
        writes: 2 * txns,
        read_calls: log.rfu.len() as u64,
        write_calls: log.update.len() as u64,
        scans: 0,
        conflicts: log.conflicts,
        seconds: phase.seconds,
        page_size: config(false).page_size as u64,
        // Sampling the pool mid-window would add DC round trips; the
        // gauge at the window's end stands in.
        dirty_fraction: (ratio(w.end("engine_dirty_pages"), w.end("engine_pool_capacity")), 1),
    };
    engine_layers(w, &work, r);
}

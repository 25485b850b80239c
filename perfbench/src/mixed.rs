//! `mixed-local`: an in-process `Session` on one thread, no wire at all.
//! Zipf(0.9) keys over 400k rows of 100 bytes (about 12.5k data pages)
//! against a 2,048-frame pool, with background maintenance on. The mix is
//! 70% point reads, 25% two-key read-modify-write transactions and 5%
//! 50-key range scans.
//!
//! One session, not two: on a two-CPU host, two sessions complete about
//! half the operations one does, at about three times the CPU per
//! operation, and land in a fast or a slow mode from run to run (see
//! README.md), which no bound the benchmark may set would absorb.
//!
//! Each write bumps a counter held in the first eight bytes of the row,
//! so a final scan can account for exactly the committed updates.

use crate::harness::{conflict_backoff, outcome, span, timed, timed_setups, Schedule, Tally};
use crate::layers::{engine_layers, Window, Work};
use crate::report::Report;
use crate::stats::{cpu_seconds, median, peak_rss_mb, ratio, Samples, Sliced};
use crate::{Opts, Outcome};
use lr_common::{Error, Result};
use lr_core::{Engine, EngineConfig, Session, DEFAULT_TABLE};
use lr_workload::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROWS: u64 = 400_000;
const VALUE_SIZE: usize = 100;
const POOL_PAGES: usize = 2_048;
const THETA: f64 = 0.9;
const SCAN_KEYS: u64 = 50;
const READ_SHARE: f64 = 0.70;
const TXN_SHARE: f64 = 0.25;
const WARMUP: Duration = Duration::from_secs(2);
const SETUPS: usize = 9;
const MAX_RETRIES: usize = 10_000;
const TRACE_CAPACITY: usize = 1 << 18;
const DRAIN_EVERY: Duration = Duration::from_millis(10);
/// Odd and not a multiple of 5, so coprime to [`ROWS`]: `rank·P + c mod
/// ROWS` is a bijection that scatters the hot ranks over the table.
const SCATTER: u128 = 2_654_435_761;

fn config(trace: bool) -> EngineConfig {
    EngineConfig {
        initial_rows: ROWS,
        row_value_size: VALUE_SIZE,
        pool_pages: POOL_PAGES,
        background_maintenance: true,
        io_model: lr_common::IoModel::zero(),
        commit_force_us: 0,
        trace,
        trace_capacity: TRACE_CAPACITY,
        ..EngineConfig::default()
    }
}

fn counter(value: &[u8]) -> Result<u64> {
    let head: [u8; 8] = value
        .get(..8)
        .and_then(|h| h.try_into().ok())
        .ok_or_else(|| Error::RecoveryInvariant(format!("row has {} bytes", value.len())))?;
    Ok(u64::from_le_bytes(head))
}

fn bumped(value: &[u8]) -> Result<Vec<u8>> {
    let mut v = value.to_vec();
    v[..8].copy_from_slice(&counter(value)?.wrapping_add(1).to_le_bytes());
    Ok(v)
}

struct Keys {
    zipf: Zipf,
    offset: u128,
}

impl Keys {
    fn new(seed: u64) -> Keys {
        Keys { zipf: Zipf::new(ROWS, THETA), offset: u128::from(seed) % u128::from(ROWS) }
    }

    fn sample(&self, rng: &mut StdRng) -> u64 {
        let rank = u128::from(self.zipf.sample(rng));
        ((rank * SCATTER + self.offset) % u128::from(ROWS)) as u64
    }
}

#[derive(Default)]
struct SessionLog {
    /// Every completed operation's latency by completion slice.
    op: Sliced,
    read: Samples,
    txn: Samples,
    scan: Samples,
    rfu: Samples,
    update: Samples,
    commit: Samples,
    reads: u64,
    txns: u64,
    scans: u64,
    attempted: u64,
    failed: u64,
    retries: u64,
    conflicts: u64,
    /// Committed bumps per key, warm-up included.
    bumps: HashMap<u64, u64>,
    errors: Vec<String>,
    last_end: Option<Instant>,
}

impl SessionLog {
    fn new(sched: &Schedule) -> SessionLog {
        SessionLog { op: sched.sliced(), ..SessionLog::default() }
    }

    fn error(&mut self, what: String) {
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }
}

/// One read-modify-write attempt over `keys`.
fn rmw(s: &mut Session, keys: [u64; 2], log: &mut SessionLog, keep: bool) -> Result<()> {
    s.begin()?;
    for key in keys {
        let (r, d) = timed(|| s.read_for_update(DEFAULT_TABLE, key));
        span(keep, &mut log.rfu, d);
        let old = r?.ok_or_else(|| Error::RecoveryInvariant(format!("row {key} missing")))?;
        let new = bumped(&old)?;
        let (r, d) = timed(|| s.update(key, new));
        span(keep, &mut log.update, d);
        r?;
    }
    let (r, d) = timed(|| s.commit());
    span(keep, &mut log.commit, d);
    r
}

/// A finished operation, or what went wrong with it.
type OpResult = std::result::Result<(), String>;

/// Which kind of operation a completed sample belongs to.
#[derive(Clone, Copy)]
enum Kind {
    Read,
    Txn,
    Scan,
}

impl SessionLog {
    /// Count one measured operation of `kind` that took `d` and ended at
    /// `end`.
    fn record(&mut self, kind: Kind, end: Instant, d: Duration, result: OpResult) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            self.error(e);
            return;
        }
        let (count, samples) = match kind {
            Kind::Read => (&mut self.reads, &mut self.read),
            Kind::Txn => (&mut self.txns, &mut self.txn),
            Kind::Scan => (&mut self.scans, &mut self.scan),
        };
        *count += 1;
        samples.push(d);
        self.op.push(end, d);
        self.last_end = Some(end);
    }
}

fn read(s: &Session, key: u64) -> OpResult {
    match s.read(DEFAULT_TABLE, key) {
        Ok(Some(v)) if v.len() == VALUE_SIZE => Ok(()),
        Ok(other) => Err(format!("read {key}: got {:?} bytes", other.map(|v| v.len()))),
        Err(e) => Err(format!("read {key}: {e}")),
    }
}

fn scan(s: &Session, key: u64) -> OpResult {
    let to = (key + SCAN_KEYS - 1).min(ROWS - 1);
    match s.scan_range(DEFAULT_TABLE, key, to) {
        Ok(rows) if rows.len() as u64 == to - key + 1 => Ok(()),
        Ok(rows) => Err(format!("scan {key}..={to}: {} rows", rows.len())),
        Err(e) => Err(format!("scan {key}..={to}: {e}")),
    }
}

/// A read-modify-write transaction over `keys`, retried on lock conflicts;
/// its bumps are counted once it commits, warm-up included.
fn txn(s: &mut Session, keys: [u64; 2], log: &mut SessionLog, keep: bool) -> OpResult {
    let mut retries = 0usize;
    let result = loop {
        match rmw(s, keys, log, keep) {
            Ok(()) => break Ok(()),
            Err(Error::LockConflict { .. }) if retries < MAX_RETRIES => {
                log.conflicts += u64::from(keep);
                retries += 1;
                if let Err(e) = s.abort() {
                    break Err(e);
                }
                conflict_backoff(retries);
            }
            Err(e) => {
                let _ = s.abort();
                break Err(e);
            }
        }
    };
    if keep {
        log.retries += retries as u64;
    }
    result.map_err(|e| format!("txn {keys:?}: {e}"))?;
    for k in keys {
        *log.bumps.entry(k).or_insert(0) += 1;
    }
    Ok(())
}

fn run_session(mut s: Session, keys: &Keys, seed: u64, sched: Schedule) -> SessionLog {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03);
    let mut log = SessionLog::new(&sched);
    loop {
        let start = Instant::now();
        if sched.over(start) {
            break;
        }
        let keep = sched.measured(start);
        let dice: f64 = rng.gen();
        let key = keys.sample(&mut rng);
        let (kind, result) = if dice < READ_SHARE {
            (Kind::Read, read(&s, key))
        } else if dice < READ_SHARE + TXN_SHARE {
            let mut other = keys.sample(&mut rng);
            while other == key {
                other = keys.sample(&mut rng);
            }
            (Kind::Txn, txn(&mut s, [key, other], &mut log, keep))
        } else {
            (Kind::Scan, scan(&s, key))
        };
        let d = start.elapsed();
        match result {
            _ if keep => log.record(kind, start + d, d, result),
            // A warm-up operation's error still fails the run; only its
            // latency and count are left out.
            Err(e) => log.error(format!("{e} (warm-up)")),
            Ok(()) => {}
        }
    }
    log
}

struct Phase {
    log: SessionLog,
    seconds: f64,
    /// Process CPU time over the window, all threads.
    cpu_s: f64,
    /// Dirty fraction of the cache, sampled through a traced window.
    dirty: Vec<f64>,
    window: Window,
}

impl Phase {
    fn ops(&self) -> u64 {
        self.log.reads + self.log.txns + self.log.scans
    }

    fn ops_per_s(&self) -> f64 {
        self.log.op.rate_median()
    }

    fn tally(&self) -> Tally<'_> {
        Tally { attempted: self.log.attempted, failed: self.log.failed, errors: &self.log.errors }
    }
}

fn run_phase(engine: &Arc<Engine>, seed: u64, measure: Duration) -> Phase {
    let keys = Keys::new(seed);
    let sched = Schedule::starting_now(WARMUP, measure);
    let sample_dirty = engine.config().trace;
    let mut dirty = Vec::new();
    // The session runs on its own thread while this one drains the
    // journal and takes the window's snapshots.
    let (log, before, cpu0) = std::thread::scope(|scope| {
        let session = Engine::session(engine);
        let worker = scope.spawn(|| run_session(session, &keys, seed, sched));
        Schedule::wait_until(sched.warm_end, DRAIN_EVERY, || drop(engine.drain_trace()));
        drop(engine.drain_trace());
        let before = engine.metrics();
        let cpu0 = cpu_seconds();
        while !worker.is_finished() {
            std::thread::sleep(DRAIN_EVERY);
            drop(engine.drain_trace());
            if sample_dirty {
                dirty.push(engine.stats().dirty_fraction());
            }
        }
        (worker.join().expect("session thread"), before, cpu0)
    });
    let cpu_s = cpu_seconds() - cpu0;
    let after = engine.metrics();
    let seconds = log.last_end.map_or(0.0, |t| (t - sched.warm_end).as_secs_f64());
    Phase { log, seconds, cpu_s, dirty, window: Window { before, after } }
}

/// A final scan accounts for exactly the committed bumps: each row's
/// counter moved by its bump count and the rest of the row is untouched.
fn verify(engine: &Engine, bumps: &HashMap<u64, u64>) -> Vec<String> {
    let mut problems = Vec::new();
    let locks = engine.tc().locks();
    if !locks.leaked().is_empty() || locks.lock_count() != 0 {
        problems.push(format!("locks leaked: {:?}", locks.leaked()));
    }
    let rows = match engine.scan_table(DEFAULT_TABLE) {
        Ok(rows) => rows,
        Err(e) => return vec![format!("verification scan failed: {e}")],
    };
    if rows.len() as u64 != ROWS {
        problems.push(format!("{} rows after the run, expected {ROWS}", rows.len()));
    }
    let cfg = engine.config();
    for (key, value) in &rows {
        let initial = cfg.initial_value(*key);
        let want = bumps.get(key).copied().unwrap_or(0);
        let got = match (counter(value), counter(&initial)) {
            (Ok(now), Ok(init)) => now.wrapping_sub(init),
            _ => u64::MAX,
        };
        if got != want || value.get(8..) != initial.get(8..) {
            problems.push(format!("row {key}: {got} bumps on disk, {want} committed"));
            if problems.len() > 5 {
                break;
            }
        }
    }
    problems
}

fn shut_down(engine: Arc<Engine>) {
    engine.stop_maintenance();
    drop(engine);
}

pub fn run(opts: &Opts) -> Outcome {
    let mut report = Report::default();
    let measure = Duration::from_secs_f64(opts.seconds);
    let build = |trace| Engine::build(config(trace)).expect("build mixed-local").into_shared();
    if opts.trace {
        // Untraced half for the overhead baseline, traced half for layers.
        let plain = build(false);
        let base = run_phase(&plain, opts.seed, measure / 2);
        let mut problems = verify(&plain, &base.log.bumps);
        shut_down(plain);
        let traced = build(true);
        let phase = run_phase(&traced, opts.seed, measure / 2);
        problems.extend(verify(&traced, &phase.log.bumps));
        shut_down(traced);
        report.put("trace.overhead", ratio(phase.ops_per_s(), base.ops_per_s()), "ratio", 2);
        layer_metrics(&phase, &mut report);
        return outcome(report, problems, [base.tally(), phase.tally()]);
    }
    let (engine, setup_s, n) = timed_setups(SETUPS, || build(false));
    report.put("setup_s", setup_s, "s", n as u64);
    report.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    let phase = run_phase(&engine, opts.seed, measure);
    let problems = verify(&engine, &phase.log.bumps);
    // Not gated: the peak once the window's work and its checks are done.
    // It holds the log the window wrote, so it moves with the amount of
    // work done (see README.md).
    report.put("window_peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    shut_down(engine);
    let log = &phase.log;
    let n = log.op.len() as u64;
    report.put("ops_per_s", phase.ops_per_s(), "1/s", n);
    report.put("cpu_us_per_op", ratio(phase.cpu_s * 1e6, phase.ops() as f64), "us", phase.ops());
    for (q, name) in [(0.5, "op_p50_us"), (0.99, "op_p99_us")] {
        if let Some(v) = log.op.quantile_median_us(q) {
            report.put(name, v, "us", n);
        }
    }
    // Not gated: a p99 the sample cannot support is left out, not failed.
    for (name, samples) in [("txn", &log.txn), ("read", &log.read), ("scan", &log.scan)] {
        let mut s = samples.clone();
        let n = s.len() as u64;
        if name != "scan" {
            report.put(format!("{name}_p50_us"), s.p50_us().unwrap_or(0.0), "us", n);
        }
        if let Some(v) = s.supported_us(0.99) {
            report.put(format!("{name}_p99_us"), v, "us", n);
        }
    }
    let w = &phase.window;
    let writes = 2 * log.txns;
    let page_bytes = w.delta("io_page_writes") * config(false).page_size as f64;
    let durable = w.delta("engine_log_bytes") + page_bytes;
    report.put("durable_bytes_per_write", ratio(durable, writes as f64), "B", writes);
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
    let p50 = |s: &Samples| s.clone().p50_us().unwrap_or(0.0);
    let (read, rfu, update, commit, scan, txn) = (
        p50(&log.read),
        p50(&log.rfu),
        p50(&log.update),
        p50(&log.commit),
        p50(&log.scan),
        p50(&log.txn),
    );
    r.put("core.read_us", read, "us", log.read.len() as u64);
    r.put("core.read_for_update_us", rfu, "us", log.rfu.len() as u64);
    r.put("core.update_us", update, "us", log.update.len() as u64);
    r.put("core.commit_us", commit, "us", log.commit.len() as u64);
    r.put("core.scan_us", scan, "us", log.scan.len() as u64);
    r.put("core.retries_per_txn", ratio(log.retries as f64, log.txns as f64), "count", log.txns);
    r.put("reconcile.ratio", ratio(2.0 * rfu + 2.0 * update + commit, txn), "ratio", log.txns);
    let work = Work {
        ops: phase.ops(),
        txns: log.txns,
        writes: 2 * log.txns,
        read_calls: log.reads + log.rfu.len() as u64,
        write_calls: log.update.len() as u64,
        scans: log.scans,
        conflicts: log.conflicts,
        seconds: phase.seconds,
        page_size: config(false).page_size as u64,
        dirty_fraction: (median(&phase.dirty), phase.dirty.len() as u64),
    };
    engine_layers(&phase.window, &work, r);
}

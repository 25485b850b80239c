//! `crash-recovery`: the paper's §5.2 crash at `paper_tenth` scale with a
//! 512MB-equivalent cache (6,540 frames, 15% of the database), recovered
//! side by side with logical (Log2) and physiological (SQL2) redo on the
//! common log. The crash image is prepared once; each recovery runs on a
//! fresh `fork_crashed` copy and is verified against the committed-state
//! oracle outside the timed window.
//!
//! One operation is a pair: a Log2 recovery and an SQL2 recovery of the
//! same image. Its latency is the two `recover_with` wall times summed.

use crate::harness::{outcome, timed, timed_setups, Tally};
use crate::journal::phase_walls;
use crate::report::{Report, METHODS, PHASES};
use crate::stats::{median, peak_rss_mb, ratio, spread, thread_cpu_seconds, Samples};
use crate::{Opts, Outcome};
use lr_common::RecoveryBreakdown;
use lr_core::{Engine, RecoveryMethod, RecoveryOptions, RecoveryReport, ShadowDb, DEFAULT_TABLE};
use lr_workload::{run_to_crash, Preset, TxnGenerator};
use std::collections::HashMap;
use std::time::{Duration, Instant};

const PRESET: Preset = Preset::PaperTenth;
const POOL_PAGES: usize = 6_540;
const SETUPS: usize = 3;
/// Two-worker recoveries per method in the traced run.
const W2_REPS: usize = 3;
/// Journal capacity per traced fork: one recovery's events fit in the
/// single ring its thread hashes to, so nothing is dropped.
const TRACE_CAPACITY: usize = 1 << 20;

/// A `RecoveryBreakdown` field reported per method: metric suffix, unit,
/// accessor.
type Field = (&'static str, &'static str, fn(&RecoveryBreakdown) -> u64);

/// The serial recovery breakdown, as reported under
/// `recovery.<method>.<suffix>`.
pub const BREAKDOWN: [Field; 15] = [
    ("analysis_us", "us", |b| b.analysis_us),
    ("smo_redo_us", "us", |b| b.smo_redo_us),
    ("index_preload_us", "us", |b| b.index_preload_us),
    ("redo_us", "us", |b| b.redo_us),
    ("undo_us", "us", |b| b.undo_us),
    ("data_pages_fetched", "count", |b| b.data_pages_fetched),
    ("index_pages_fetched", "count", |b| b.index_pages_fetched),
    ("data_stall_us", "us", |b| b.data_stall_us),
    ("index_stall_us", "us", |b| b.index_stall_us),
    ("prefetch_ios", "count", |b| b.prefetch_ios),
    ("dpt_size", "count", |b| b.dpt_size),
    ("skipped_no_dpt", "count", |b| b.skipped_no_dpt_entry),
    ("skipped_rlsn", "count", |b| b.skipped_rlsn),
    ("skipped_plsn", "count", |b| b.skipped_plsn),
    ("ops_reapplied", "count", |b| b.ops_reapplied),
];

fn method(name: &str) -> RecoveryMethod {
    name.parse().expect("catalogued recovery method")
}

/// A crashed engine plus the oracle of what it committed.
struct Image {
    master: Engine,
    shadow: ShadowDb,
}

fn prepare(seed: u64, trace: bool) -> Image {
    let mut cfg = PRESET.engine_config(POOL_PAGES);
    cfg.trace = trace;
    cfg.trace_capacity = TRACE_CAPACITY;
    let mut shadow = ShadowDb::with_initial_rows(&cfg);
    let mut gen = TxnGenerator::new(PRESET.workload(seed));
    let mut master = Engine::build(cfg).expect("build crash-recovery engine");
    run_to_crash(&mut master, &mut shadow, &mut gen, &PRESET.scenario()).expect("run to the crash");
    drop(master.drain_trace());
    Image { master, shadow }
}

/// One verified recovery.
struct Recovery {
    report: RecoveryReport,
    fork_s: f64,
    wall: Duration,
    /// CPU time of the recovering thread during `recover_with`.
    cpu_s: f64,
    verify_s: f64,
    phases: HashMap<&'static str, u64>,
    dropped: u64,
}

fn recover(img: &Image, m: RecoveryMethod, workers: usize) -> Result<Recovery, String> {
    let (fork, fork_d) = timed(|| img.master.fork_crashed());
    let fork = fork.map_err(|e| format!("{m}: fork failed: {e}"))?;
    let cpu0 = thread_cpu_seconds();
    let (report, wall) = timed(|| fork.recover_with(m, RecoveryOptions::with_workers(workers)));
    let cpu_s = thread_cpu_seconds() - cpu0;
    let report = report.map_err(|e| format!("{m}: recovery failed: {e}"))?;
    let phases = phase_walls(&fork.drain_trace());
    let dropped = fork.trace().dropped_events();
    let (checked, verify_d) = timed(|| {
        img.shadow.verify_against(&fork)?;
        fork.verify_table(DEFAULT_TABLE).map(drop)
    });
    checked.map_err(|e| format!("{m} (workers {workers}): recovered state is wrong: {e}"))?;
    Ok(Recovery {
        report,
        fork_s: fork_d.as_secs_f64(),
        wall,
        cpu_s,
        verify_s: verify_d.as_secs_f64(),
        phases,
        dropped,
    })
}

#[derive(Default)]
struct Log {
    /// Wall time of each whole Log2+SQL2 pair.
    pairs: Samples,
    /// Recovering-thread CPU time of each whole pair, in seconds.
    pair_cpu: Vec<f64>,
    by_method: HashMap<&'static str, Vec<Recovery>>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Log {
    fn record(
        &mut self,
        name: &'static str,
        r: Result<Recovery, String>,
    ) -> Option<(Duration, f64)> {
        self.attempted += 1;
        match r {
            Ok(rec) => {
                let cost = (rec.wall, rec.cpu_s);
                self.by_method.entry(name).or_default().push(rec);
                Some(cost)
            }
            Err(e) => {
                self.failed += 1;
                self.problems.push(e);
                None
            }
        }
    }

    /// Recovery pairs per second of recovery wall time.
    fn pairs_per_s(&self) -> f64 {
        ratio(self.pairs.len() as f64, self.pairs.total_s())
    }

    fn tally(&self) -> Tally<'_> {
        Tally { attempted: self.attempted, failed: self.failed, errors: &self.problems }
    }

    fn each<'a>(&'a self, name: &str) -> &'a [Recovery] {
        self.by_method.get(name).map_or(&[], Vec::as_slice)
    }

    fn median_of(&self, name: &str, f: impl Fn(&Recovery) -> f64) -> (f64, u64) {
        let v: Vec<f64> = self.each(name).iter().map(f).collect();
        (median(&v), v.len() as u64)
    }
}

/// Alternate Log2 and SQL2 recoveries of `img` until `measure` has passed
/// (at least one pair).
fn run_pairs(img: &Image, measure: Duration) -> Log {
    let mut log = Log::default();
    let end = Instant::now() + measure;
    loop {
        let (mut wall, mut cpu) = (Duration::ZERO, 0.0);
        let mut whole = true;
        for name in METHODS {
            match log.record(name, recover(img, method(name), 1)) {
                Some((w, c)) => (wall, cpu) = (wall + w, cpu + c),
                None => whole = false,
            }
        }
        if whole {
            log.pairs.push(wall);
            log.pair_cpu.push(cpu);
        }
        if Instant::now() >= end {
            return log;
        }
    }
}

pub fn run(opts: &Opts) -> Outcome {
    let mut report = Report::default();
    let measure = Duration::from_secs_f64(opts.seconds);
    if opts.trace {
        // Untraced half for the overhead baseline, traced half for layers.
        let plain = prepare(opts.seed, false);
        let base = run_pairs(&plain, measure / 2);
        drop(plain);
        let traced = prepare(opts.seed, true);
        let log = run_pairs(&traced, measure / 2);
        let mut w2 = Log::default();
        for name in METHODS {
            for _ in 0..W2_REPS {
                w2.record(name, recover(&traced, method(name), 2));
            }
        }
        report.put("trace.overhead", ratio(log.pairs_per_s(), base.pairs_per_s()), "ratio", 2);
        layer_metrics(&log, &w2, &mut report);
        return outcome(report, Vec::new(), [base.tally(), log.tally(), w2.tally()]);
    }
    let (img, setup_s, n) = timed_setups(SETUPS, || prepare(opts.seed, false));
    report.put("setup_s", setup_s, "s", n as u64);
    report.put("peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    let log = run_pairs(&img, measure);
    // Not gated: the peak once the window's work and its checks are done.
    // It holds the log the window wrote, so it moves with the amount of
    // work done (see README.md).
    report.put("window_peak_rss_mb", peak_rss_mb().unwrap_or(0.0), "MB", 1);
    let mut pairs = log.pairs.clone();
    let n = pairs.len() as u64;
    report.put("ops_per_s", log.pairs_per_s(), "1/s", n);
    report.put("op_p50_us", pairs.p50_us().unwrap_or(0.0), "us", n);
    report.put("cpu_us_per_op", median(&log.pair_cpu) * 1e6, "us", n);
    for name in METHODS {
        let (model, k) = log.median_of(name, |r| r.report.total_ms());
        report.put(format!("{name}_recovery_model_ms"), model, "ms", k);
        let (wall, k) = log.median_of(name, |r| r.wall.as_secs_f64() * 1e3);
        report.put(format!("{name}_recovery_wall_ms"), wall, "ms", k);
    }
    report.put(
        "failed_frac",
        ratio(log.failed as f64, log.attempted as f64),
        "ratio",
        log.attempted,
    );
    outcome(report, Vec::new(), [log.tally()])
}

/// Per-method recovery breakdowns (model), journal phase spans (real),
/// harness costs, and the two-worker spread.
fn layer_metrics(log: &Log, w2: &Log, r: &mut Report) {
    let mut phase_sum = 0.0;
    let mut dropped = 0;
    for name in METHODS {
        let (model, k) = log.median_of(name, |rec| rec.report.total_ms());
        r.put(format!("recovery.{name}.model_ms"), model, "ms", k);
        for (field, unit, f) in BREAKDOWN {
            let (v, k) = log.median_of(name, |rec| f(&rec.report.breakdown) as f64);
            r.put(format!("recovery.{name}.{field}"), v, unit, k);
        }
        for phase in PHASES {
            let (v, k) =
                log.median_of(name, |rec| rec.phases.get(phase).copied().unwrap_or(0) as f64);
            phase_sum += v;
            r.put(format!("recovery.{name}.phase_wall_us.{phase}"), v, "us", k);
        }
        let (v, k) = log.median_of(name, |rec| rec.fork_s * 1e3);
        r.put(format!("recovery.{name}.fork_ms"), v, "ms", k);
        let (v, k) = log.median_of(name, |rec| rec.verify_s * 1e3);
        r.put(format!("recovery.{name}.verify_ms"), v, "ms", k);
        let models: Vec<f64> = w2.each(name).iter().map(|rec| rec.report.total_ms()).collect();
        let k = models.len() as u64;
        r.put(format!("recovery.{name}.w2_model_ms"), median(&models), "ms", k);
        r.put(format!("recovery.{name}.w2_model_spread"), spread(&models), "ratio", k);
        let (v, k) = w2.median_of(name, |rec| rec.wall.as_secs_f64() * 1e3);
        r.put(format!("recovery.{name}.w2_wall_ms"), v, "ms", k);
        let (v, k) = w2.median_of(name, |rec| rec.report.breakdown.partition_skew());
        r.put(format!("recovery.{name}.w2_skew"), v, "ratio", k);
        dropped += log.each(name).iter().chain(w2.each(name)).map(|rec| rec.dropped).sum::<u64>();
    }
    r.put("trace.dropped_events", dropped as f64, "count", log.attempted + w2.attempted);
    // Buffer and device counters of one pair: each method's median summed.
    let pair = |f: fn(&Recovery) -> u64| -> f64 {
        METHODS.iter().map(|m| log.median_of(m, |rec| f(rec) as f64).0).sum()
    };
    let n = log.pairs.len() as u64;
    let hits = pair(|rec| rec.report.pool.hits);
    let fixes = hits + pair(|rec| rec.report.pool.misses);
    let evictions = pair(|rec| rec.report.pool.evictions);
    r.put("buffer.hit_rate", ratio(hits, fixes), "ratio", n);
    r.put("buffer.fixes_per_op", fixes, "count", n);
    r.put("buffer.evictions_per_op", evictions, "count", n);
    let examined = pair(|rec| rec.report.pool.clock_examinations);
    r.put("buffer.clock_examinations_per_eviction", ratio(examined, evictions), "count", n);
    let dirty = pair(|rec| rec.report.pool.dirty_evictions);
    r.put("buffer.dirty_eviction_frac", ratio(dirty, evictions), "ratio", n);
    let reads = pair(|rec| rec.report.io.sync_page_reads + rec.report.io.async_pages);
    r.put("storage.page_reads_per_op", reads, "count", n);
    let pair_p50 = log.pairs.clone().p50_us().unwrap_or(0.0);
    r.put("reconcile.ratio", ratio(phase_sum, pair_p50), "ratio", log.pairs.len() as u64);
}

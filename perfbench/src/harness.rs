//! Pieces the workloads share: repeated timed set-up, the warm-up/measure
//! schedule, conflict backoff, and folding phase logs into an outcome.

use crate::report::Report;
use crate::stats::{median, Samples, Sliced};
use crate::Outcome;
use std::time::{Duration, Instant};

/// Run `build` `n` times, timing each; keep the last result (earlier ones
/// are dropped before the next build starts) and return the median time
/// in seconds with all the timings.
pub fn timed_setups<T>(n: usize, mut build: impl FnMut() -> T) -> (T, f64, usize) {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times), times.len())
}

/// Length of one throughput/latency slice of a measured window.
pub const SLICE: Duration = Duration::from_secs(1);

/// When a closed-loop phase stops discarding (warm-up) and stops issuing.
#[derive(Clone, Copy)]
pub struct Schedule {
    pub warm_end: Instant,
    pub end: Instant,
}

impl Schedule {
    pub fn starting_now(warmup: Duration, measure: Duration) -> Schedule {
        let warm_end = Instant::now() + warmup;
        Schedule { warm_end, end: warm_end + measure }
    }

    /// Empty per-slice samples covering the whole slices of the window.
    pub fn sliced(&self) -> Sliced {
        let whole = ((self.end - self.warm_end).as_nanos() / SLICE.as_nanos()).max(1);
        Sliced::new(self.warm_end, SLICE, whole as usize)
    }

    /// Is an operation starting at `t` inside the measured window?
    pub fn measured(&self, t: Instant) -> bool {
        t >= self.warm_end
    }

    pub fn over(&self, t: Instant) -> bool {
        t >= self.end
    }

    /// Sleep the calling thread until `t`, running `tick` every `period`.
    pub fn wait_until(t: Instant, period: Duration, mut tick: impl FnMut()) {
        loop {
            let now = Instant::now();
            if now >= t {
                return;
            }
            std::thread::sleep(period.min(t - now));
            tick();
        }
    }
}

/// Back off before conflict retry `attempt` (1-based), with the same
/// shape as the library's own retry helpers: yield a few times, then
/// sleep exponentially longer, capped near 1.3 ms.
pub fn conflict_backoff(attempt: usize) {
    const YIELD_ATTEMPTS: usize = 3;
    if attempt <= YIELD_ATTEMPTS {
        std::thread::yield_now();
    } else {
        let exp = (attempt - YIELD_ATTEMPTS).min(7) as u32;
        std::thread::sleep(Duration::from_micros(10u64 << exp));
    }
}

/// Push a call's latency `d` into `s` when its operation is measured
/// (`keep`); warm-up calls are timed but not kept.
pub fn span(keep: bool, s: &mut Samples, d: Duration) {
    if keep {
        s.push(d);
    }
}

/// What one phase contributes to a run's outcome: operations attempted
/// and failed in its measured window, and every error it met, warm-up
/// included.
pub struct Tally<'a> {
    pub attempted: u64,
    pub failed: u64,
    pub errors: &'a [String],
}

/// Fold the phases' tallies and the verification `problems` into the
/// run's outcome; any error, in or before the measured window, makes the
/// run incorrect.
pub fn outcome<'a>(
    report: Report,
    mut problems: Vec<String>,
    tallies: impl IntoIterator<Item = Tally<'a>>,
) -> Outcome {
    let (mut attempted, mut failed) = (0, 0);
    for t in tallies {
        attempted += t.attempted;
        failed += t.failed;
        problems.extend(t.errors.iter().cloned());
    }
    Outcome { report, attempted, failed, problems }
}

/// Time one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

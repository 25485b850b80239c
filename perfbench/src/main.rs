//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bank-tcp --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --workload all
//! ```
//!
//! Workloads: `bank-tcp`, `mixed-local`, `crash-recovery` (see README.md
//! beside this crate); `all` runs the three untraced in turn. An untraced
//! run (`--trace 0`) reports the end-to-end metrics, a traced run
//! (`--trace 1`) the per-layer ones. Every run prints one line per metric
//! it measured — name, value, unit, sample count — then, as its last line,
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`. A
//! failed correctness check makes the exit code nonzero.

mod bank;
mod crash;
mod harness;
mod journal;
mod layers;
mod mixed;
mod report;
mod stats;

use report::{per_layer, result_line, Report, END_TO_END};

/// Command-line settings shared by every workload.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a workload run hands back for printing.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks, in words; empty when correct.
    pub problems: Vec<String>,
}

type Run = fn(&Opts) -> Outcome;

const WORKLOADS: [(&str, Run); 3] =
    [("bank-tcp", bank::run), ("mixed-local", mixed::run), ("crash-recovery", crash::run)];

const USAGE: &str = "usage: lr-perfbench --workload <bank-tcp|mixed-local|crash-recovery|all> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts { seed: 1, seconds: 20.0, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(opts.seconds > 0.0 && opts.seconds <= 3_600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|(n, _)| *n == workload) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok((workload, opts))
}

/// Print one workload's metric lines and problems; return the `metrics`
/// object of its result line.
fn emit(name: &str, opts: &Opts, outcome: &mut Outcome) -> lr_obs::Json {
    print!("{}", outcome.report.lines(name));
    let catalogue: Vec<(String, &'static str)> = if opts.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    let (metrics, missing) = outcome.report.json_metrics(&catalogue);
    if !opts.trace {
        // End-to-end metrics are never zero on a run that did its work.
        for (n, _) in &catalogue {
            if outcome.report.get(n).is_some_and(|v| v <= 0.0) || missing.contains(n) {
                outcome.problems.push(format!("end-to-end metric {n} was not measured"));
            }
        }
    }
    for p in &outcome.problems {
        println!("check failed {name}: {p}");
    }
    metrics
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "lr-perfbench workload={workload} seed={} seconds={} trace={} threads={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut correct = true;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = lr_obs::Json::obj();
    for (name, run) in WORKLOADS {
        if workload != "all" && workload != name {
            continue;
        }
        let mut outcome = run(&opts);
        let m = emit(name, &opts, &mut outcome);
        correct &= outcome.problems.is_empty();
        attempted += outcome.attempted;
        failed += outcome.failed;
        if workload == "all" {
            println!(
                "{}",
                result_line(outcome.problems.is_empty(), outcome.attempted, outcome.failed, m)
            );
        } else {
            metrics = m;
        }
    }
    if workload == "all" {
        println!("{}", result_line(correct, attempted, failed, lr_obs::Json::obj()));
    } else {
        println!("{}", result_line(correct, attempted, failed, metrics));
    }
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let (w, o) = parse(&args("--workload bank-tcp --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(w, "bank-tcp");
        assert_eq!((o.seed, o.seconds, o.trace), (7, 20.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload bank-tcp --trace 2",
            "--workload bank-tcp --seconds 0",
            "--workload bank-tcp --seed",
            "--workload bank-tcp --bogus 1",
        ] {
            assert!(parse(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }
}

//! The metric catalogue and the run's output: human-readable lines with
//! unit and sample count, then one JSON object on the last line.
//!
//! The catalogue here and `BENCHMARK.json` must name the same metrics in
//! the same order with the same units; a test below checks that.

use crate::crash::BREAKDOWN;
use lr_obs::Json;

/// End-to-end metrics, printed on every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("op_p50_us", "us"),
];

/// The recovery methods the crash-recovery workload compares, by the
/// lower-case name used in metric names.
pub const METHODS: [&str; 2] = ["log2", "sql2"];

/// Phases timed from the `recovery_phase_*` journal spans.
pub const PHASES: [&str; 5] = ["analysis", "smo_redo", "index_preload", "redo", "undo"];

const LAYER_FIXED: &[(&str, &str)] = &[
    ("server.begin_us", "us"),
    ("server.read_for_update_us", "us"),
    ("server.update_us", "us"),
    ("server.commit_us", "us"),
    ("server.requests_per_txn", "count"),
    ("server.dispatch_us", "us"),
    ("dc.round_trips_per_txn", "count"),
    ("dc.round_trip_us", "us"),
    ("dc.wire_bytes_per_txn", "B"),
    ("dc.token_releases_per_txn", "count"),
    ("core.read_us", "us"),
    ("core.read_for_update_us", "us"),
    ("core.update_us", "us"),
    ("core.commit_us", "us"),
    ("core.scan_us", "us"),
    ("core.retries_per_txn", "count"),
    ("tc.abort_frac", "ratio"),
    ("tc.lock_conflicts_per_txn", "count"),
    ("tc.eosl_per_commit", "count"),
    ("wal.forces_per_commit", "count"),
    ("wal.log_bytes_per_write", "B"),
    ("dc.optimistic_read_frac", "ratio"),
    ("dc.read_fallback_frac", "ratio"),
    ("dc.scan_fallback_frac", "ratio"),
    ("dc.optimistic_write_frac", "ratio"),
    ("dc.write_restarts_per_write", "count"),
    ("dc.delta_bytes_per_write", "B"),
    ("buffer.hit_rate", "ratio"),
    ("buffer.fixes_per_op", "count"),
    ("buffer.evictions_per_op", "count"),
    ("buffer.clock_examinations_per_eviction", "count"),
    ("buffer.dirty_eviction_frac", "ratio"),
    ("buffer.olc_validation_failure_frac", "ratio"),
    ("storage.page_reads_per_op", "count"),
    ("storage.page_writes_per_write", "count"),
    ("storage.durable_bytes_per_write", "B"),
    ("maintenance.checkpoints_per_s", "1/s"),
    ("maintenance.cleaner_pages_per_s", "1/s"),
    ("maintenance.dirty_fraction", "ratio"),
];

/// Per-method recovery metrics after the per-phase wall spans.
const RECOVERY_TAIL: &[(&str, &str)] = &[
    ("fork_ms", "ms"),
    ("verify_ms", "ms"),
    ("w2_model_ms", "ms"),
    ("w2_model_spread", "ratio"),
    ("w2_wall_ms", "ms"),
    ("w2_skew", "ratio"),
];

const HARNESS: &[(&str, &str)] =
    &[("trace.overhead", "ratio"), ("trace.dropped_events", "count"), ("reconcile.ratio", "ratio")];

/// Per-layer metrics, printed on every traced run of every workload (0
/// where the workload does not reach the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> =
        LAYER_FIXED.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for m in METHODS {
        v.push((format!("recovery.{m}.model_ms"), "ms"));
        v.extend(BREAKDOWN.iter().map(|&(f, u, _)| (format!("recovery.{m}.{f}"), u)));
        v.extend(PHASES.iter().map(|p| (format!("recovery.{m}.phase_wall_us.{p}"), "us")));
        v.extend(RECOVERY_TAIL.iter().map(|&(f, u)| (format!("recovery.{m}.{f}"), u)));
    }
    v.extend(HARNESS.iter().map(|&(n, u)| (n.to_string(), u)));
    v
}

struct Entry {
    name: String,
    value: f64,
    unit: &'static str,
    samples: u64,
}

/// Everything one workload run measured, by metric name.
#[derive(Default)]
pub struct Report {
    entries: Vec<Entry>,
}

impl Report {
    /// Record (or overwrite) one metric with the number of samples it
    /// rests on.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: u64) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.entries.iter_mut().find(|e| e.name == name) {
            Some(e) => *e = Entry { name, value, unit, samples },
            None => self.entries.push(Entry { name, value, unit, samples }),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.name == name).map(|e| e.value)
    }

    /// One `metric <name> = <value> <unit> (n=<samples>)` line per entry.
    pub fn lines(&self, workload: &str) -> String {
        self.entries
            .iter()
            .map(|e| {
                format!(
                    "metric {workload} {:<44} = {:>14.4} {:<6} (n={})\n",
                    e.name, e.value, e.unit, e.samples
                )
            })
            .collect()
    }

    /// The result line's `metrics` object over `catalogue`: every listed
    /// metric, in order. A metric this run did not record reads 0 and is
    /// returned in the second value.
    pub fn json_metrics(&self, catalogue: &[(String, &'static str)]) -> (Json, Vec<String>) {
        let mut obj = Json::obj();
        let mut missing = Vec::new();
        for (name, unit) in catalogue {
            let value = self.get(name).unwrap_or_else(|| {
                missing.push(name.clone());
                0.0
            });
            obj.push(name, Json::obj().with("value", value.into()).with("unit", (*unit).into()));
        }
        (obj, missing)
    }
}

/// The run's last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj()
        .with("correct", correct.into())
        .with("attempted", attempted.into())
        .with("failed", failed.into())
        .with("metrics", metrics)
        .render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalogue(doc: &Json, key: &str) -> Vec<(String, String)> {
        let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is not an array") };
        items
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let doc = lr_obs::json::parse(&text).expect("BENCHMARK.json parses");
        let e2e: Vec<(String, String)> =
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(catalogue(&doc, "end_to_end"), e2e);
        let layer: Vec<(String, String)> =
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect();
        assert_eq!(catalogue(&doc, "per_layer"), layer);
    }

    #[test]
    fn per_layer_names_are_unique_and_bounded() {
        let names = per_layer();
        assert!(names.len() <= 128, "{} per-layer metrics", names.len());
        let mut seen = std::collections::HashSet::new();
        for (n, _) in &names {
            assert!(n.len() <= 64 && seen.insert(n.clone()), "bad or duplicate name {n}");
        }
    }

    #[test]
    fn json_metrics_fill_missing_with_zero() {
        let mut r = Report::default();
        r.put("a", 1.5, "us", 3);
        r.put("a", 2.5, "us", 4);
        r.put("nan", f64::NAN, "ratio", 0);
        assert_eq!(r.get("a"), Some(2.5));
        assert_eq!(r.get("nan"), Some(0.0));
        let cat = vec![("a".to_string(), "us"), ("b".to_string(), "s")];
        let (json, missing) = r.json_metrics(&cat);
        assert_eq!(missing, vec!["b".to_string()]);
        assert_eq!(json.render(), r#"{"a":{"value":2.5,"unit":"us"},"b":{"value":0,"unit":"s"}}"#);
        let line = result_line(true, 7, 0, json);
        assert!(line.starts_with(r#"{"correct":true,"attempted":7,"failed":0,"metrics":{"#));
        assert!(r.lines("w").contains("(n=4)"));
    }
}

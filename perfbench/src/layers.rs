//! Per-layer metrics derived from the counters the program already
//! exports (`Engine::metrics`, `Server::metrics`), windowed to the
//! measured interval by differencing two snapshots.

use crate::report::Report;
use crate::stats::ratio;
use lr_core::{MetricValue, MetricsSnapshot};

/// Two snapshots bracketing the measured window.
pub struct Window {
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
}

impl Window {
    fn value(snap: &MetricsSnapshot, name: &str) -> f64 {
        match snap.get(name) {
            Some(MetricValue::Counter(c)) => *c as f64,
            Some(MetricValue::Gauge(g)) => *g,
            Some(MetricValue::Hist(h)) => h.count() as f64,
            None => 0.0,
        }
    }

    /// Growth of a counter (or gauge) across the window.
    pub fn delta(&self, name: &str) -> f64 {
        Self::value(&self.after, name) - Self::value(&self.before, name)
    }

    /// A gauge's value at the end of the window.
    pub fn end(&self, name: &str) -> f64 {
        Self::value(&self.after, name)
    }

    /// Mean of the observations a histogram gained during the window.
    pub fn hist_mean(&self, name: &str) -> f64 {
        let sum_count = |snap: &MetricsSnapshot| match snap.get(name) {
            Some(MetricValue::Hist(h)) => (h.sum() as f64, h.count() as f64),
            _ => (0.0, 0.0),
        };
        let (s1, c1) = sum_count(&self.after);
        let (s0, c0) = sum_count(&self.before);
        ratio(s1 - s0, c1 - c0)
    }
}

/// What the workload did in the window, counted by the benchmark itself.
pub struct Work {
    /// Operations the workload completed (its throughput unit).
    pub ops: u64,
    /// Committed transactions.
    pub txns: u64,
    /// Committed row writes.
    pub writes: u64,
    /// Point reads issued, read-for-update included.
    pub read_calls: u64,
    /// Row updates issued, aborted attempts included.
    pub write_calls: u64,
    /// Range scans issued.
    pub scans: u64,
    /// Lock conflicts the callers saw.
    pub conflicts: u64,
    /// Measured window length in seconds.
    pub seconds: f64,
    /// Data page size in bytes.
    pub page_size: u64,
    /// Dirty fraction of the cache during the window, with its sample
    /// count.
    pub dirty_fraction: (f64, u64),
}

/// The TC, WAL, DC, buffer, storage and maintenance layers' metrics.
pub fn engine_layers(w: &Window, work: &Work, r: &mut Report) {
    let txns = work.txns as f64;
    let writes = work.writes as f64;
    let ops = work.ops as f64;
    let n_txn = work.txns;
    let n_wr = work.writes;
    let n_op = work.ops;

    r.put("tc.abort_frac", ratio(w.delta("tc_aborts"), w.delta("tc_begins")), "ratio", n_txn);
    r.put("tc.lock_conflicts_per_txn", ratio(work.conflicts as f64, txns), "count", n_txn);
    let commits = w.delta("tc_commits");
    r.put("tc.eosl_per_commit", ratio(w.delta("tc_eosl_sent"), commits), "count", n_txn);
    r.put(
        "wal.forces_per_commit",
        ratio(w.delta("engine_group_commit_forces"), commits),
        "count",
        n_txn,
    );
    let log_bytes = w.delta("engine_log_bytes");
    r.put("wal.log_bytes_per_write", ratio(log_bytes, writes), "B", n_wr);

    let (reads, n_rd) = (work.read_calls as f64, work.read_calls);
    let opt_reads = w.delta("dc_optimistic_point_reads");
    r.put("dc.optimistic_read_frac", ratio(opt_reads, reads), "ratio", n_rd);
    r.put("dc.read_fallback_frac", ratio(w.delta("dc_read_fallbacks"), reads), "ratio", n_rd);
    r.put(
        "dc.scan_fallback_frac",
        ratio(w.delta("dc_scan_fallbacks"), work.scans as f64),
        "ratio",
        work.scans,
    );
    let (calls, n_wc) = (work.write_calls as f64, work.write_calls);
    r.put("dc.optimistic_write_frac", ratio(w.delta("dc_optimistic_writes"), calls), "ratio", n_wc);
    r.put(
        "dc.write_restarts_per_write",
        ratio(w.delta("engine_write_restarts"), calls),
        "count",
        n_wc,
    );
    let delta_bw = w.delta("dc_delta_bytes_logged") + w.delta("dc_bw_bytes_logged");
    r.put("dc.delta_bytes_per_write", ratio(delta_bw, writes), "B", n_wr);

    let hits = w.delta("pool_hits");
    let fixes = hits + w.delta("pool_misses");
    let evictions = w.delta("pool_evictions");
    r.put("buffer.hit_rate", ratio(hits, fixes), "ratio", fixes as u64);
    r.put("buffer.fixes_per_op", ratio(fixes, ops), "count", n_op);
    r.put("buffer.evictions_per_op", ratio(evictions, ops), "count", n_op);
    r.put(
        "buffer.clock_examinations_per_eviction",
        ratio(w.delta("pool_clock_examinations"), evictions),
        "count",
        evictions as u64,
    );
    r.put(
        "buffer.dirty_eviction_frac",
        ratio(w.delta("pool_dirty_evictions"), evictions),
        "ratio",
        evictions as u64,
    );
    let olc = w.delta("pool_optimistic_reads");
    r.put(
        "buffer.olc_validation_failure_frac",
        ratio(w.delta("pool_optimistic_validation_failures"), olc),
        "ratio",
        olc as u64,
    );

    let page_reads = w.delta("io_sync_page_reads") + w.delta("io_async_pages");
    let page_writes = w.delta("io_page_writes");
    r.put("storage.page_reads_per_op", ratio(page_reads, ops), "count", n_op);
    r.put("storage.page_writes_per_write", ratio(page_writes, writes), "count", n_wr);
    let durable = log_bytes + page_writes * work.page_size as f64;
    r.put("storage.durable_bytes_per_write", ratio(durable, writes), "B", n_wr);

    r.put(
        "maintenance.checkpoints_per_s",
        ratio(w.delta("engine_checkpoints_taken"), work.seconds),
        "1/s",
        w.delta("engine_checkpoints_taken") as u64,
    );
    r.put(
        "maintenance.cleaner_pages_per_s",
        ratio(w.delta("engine_cleaner_pages_flushed"), work.seconds),
        "1/s",
        w.delta("engine_cleaner_sweeps") as u64,
    );
    r.put("maintenance.dirty_fraction", work.dirty_fraction.0, "ratio", work.dirty_fraction.1);
    r.put("trace.dropped_events", w.delta("trace_dropped_events"), "count", 1);
}

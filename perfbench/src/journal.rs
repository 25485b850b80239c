//! Reductions over the drained trace journal.
//!
//! Over a `tcp:` backend both ends of the TC↔DC wire write into one
//! journal, so every round trip appears twice: client request, server
//! request, server reply, client reply, in that sequence order. The
//! client's view is the one a transaction waits on, so [`WireAgg`] counts
//! each request id once and times it from the client's reply.

use crate::stats::Samples;
use lr_core::{EventKind, RecoveryPhase, TraceEvent};
use std::collections::HashMap;

#[derive(Default)]
struct Pending {
    /// Client request bytes (the first `wire_request` for the id).
    req_bytes: u64,
    /// Replies seen so far for the id (the server's comes first).
    replies: u8,
}

/// Client-side DC round trips, accumulated across drains.
#[derive(Default)]
pub struct WireAgg {
    pending: HashMap<u64, Pending>,
    pub round_trips: u64,
    pub bytes: u64,
    pub rtt: Samples,
    pub token_releases: u64,
}

impl WireAgg {
    /// Fold one drained batch (in sequence order) into the totals. A
    /// request whose events straddle two drains is carried over.
    pub fn feed(&mut self, events: &[TraceEvent]) {
        for e in events {
            match e.kind {
                EventKind::WireRequest { req_id, bytes, .. } => {
                    self.pending.entry(req_id).or_insert(Pending { req_bytes: bytes, replies: 0 });
                }
                EventKind::WireReply { req_id, bytes, lat_us, .. } => {
                    let Some(p) = self.pending.get_mut(&req_id) else { continue };
                    p.replies += 1;
                    if p.replies == 2 {
                        self.round_trips += 1;
                        self.bytes += p.req_bytes + bytes;
                        self.rtt.push_ns(lat_us * 1_000);
                        self.pending.remove(&req_id);
                    }
                }
                EventKind::TokenRelease { .. } => self.token_releases += 1,
                _ => {}
            }
        }
    }
}

/// Real microseconds each recovery phase took on the coordinating worker
/// (worker 0), from its `recovery_phase_start`/`_end` span pair.
pub fn phase_walls(events: &[TraceEvent]) -> HashMap<&'static str, u64> {
    let mut open: HashMap<RecoveryPhase, u64> = HashMap::new();
    let mut walls = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::RecoveryPhaseStart { phase, worker: 0 } => {
                open.insert(phase, e.t_us);
            }
            EventKind::RecoveryPhaseEnd { phase, worker: 0, .. } => {
                if let Some(start) = open.remove(&phase) {
                    *walls.entry(phase.name()).or_insert(0) += e.t_us.saturating_sub(start);
                }
            }
            _ => {}
        }
    }
    walls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, t_us: u64, kind: EventKind) -> TraceEvent {
        TraceEvent { seq, tid: 0, t_us, kind }
    }

    #[test]
    fn each_round_trip_counts_once_from_the_client_side() {
        let req = |id| EventKind::WireRequest { req_id: id, op: 1, bytes: 10 };
        let rep =
            |id, lat_us| EventKind::WireReply { req_id: id, op: 1, bytes: 20, lat_us, ok: true };
        let mut agg = WireAgg::default();
        // Request 1 completes inside the first drain; request 2 straddles.
        agg.feed(&[ev(1, 0, req(1)), ev(2, 0, req(1)), ev(3, 0, rep(1, 5)), ev(4, 0, rep(1, 9))]);
        agg.feed(&[ev(5, 0, req(2)), ev(6, 0, req(2))]);
        agg.feed(&[
            ev(7, 0, rep(2, 2)),
            ev(8, 0, rep(2, 4)),
            ev(9, 0, EventKind::TokenRelease { token: 3 }),
        ]);
        assert_eq!(agg.round_trips, 2);
        assert_eq!(agg.bytes, 60);
        assert_eq!(agg.token_releases, 1);
        assert_eq!(agg.rtt.quantile_ns(1.0), Some(9_000));
        assert_eq!(agg.rtt.quantile_ns(0.5), Some(4_000));
    }

    #[test]
    fn phase_walls_pair_worker_zero_spans() {
        let start = |phase, worker| EventKind::RecoveryPhaseStart { phase, worker };
        let end = |phase, worker| EventKind::RecoveryPhaseEnd { phase, worker, busy_us: 1 };
        let walls = phase_walls(&[
            ev(1, 100, start(RecoveryPhase::Analysis, 0)),
            ev(2, 160, end(RecoveryPhase::Analysis, 0)),
            ev(3, 170, start(RecoveryPhase::Redo, 1)),
            ev(4, 200, start(RecoveryPhase::Redo, 0)),
            ev(5, 450, end(RecoveryPhase::Redo, 0)),
            ev(6, 900, end(RecoveryPhase::Redo, 1)),
        ]);
        assert_eq!(walls.get("analysis"), Some(&60));
        assert_eq!(walls.get("redo"), Some(&250));
        assert_eq!(walls.get("undo"), None);
    }
}

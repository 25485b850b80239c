//! The TC↔DC message shape of a transaction, counted.
//!
//! A 2-update transfer over a message boundary costs exactly six DC round
//! trips: two reads, two prepares and two applies. The apply carries its
//! prepare's token and frees the parked guard in the same exchange, and
//! the commit's EOSL rides on the next request instead of travelling as a
//! message of its own. Both deployments are checked — the in-process
//! loopback (`remote:btree`) and a real socket (`tcp:btree`) — on the
//! client's and the server's telemetry alike.
//!
//! The leftover paths get their own probes: a prepared op dropped
//! unapplied still releases its guard, an apply naming a stale or unknown
//! token is a typed error that leaks nothing, and a checkpoint over TCP
//! still flushes every page dirtied before bCkpt with the write-ahead gate
//! already open.

use lr_common::{Error, IoModel, Lsn, PageId, TxnId};
use lr_core::{Engine, EngineConfig, DEFAULT_TABLE};
use lr_dc::wire::MAX_REQ_TAG;
use lr_dc::{op_name, DcApi, PreparedOp, RemoteDc, WireTelemetrySnapshot, WriteIntent};
use lr_wal::{LogPayload, LogRecord};
use std::collections::BTreeMap;
use std::time::Duration;

const DEPLOYMENTS: [&str; 2] = ["remote:btree", "tcp:btree"];

fn engine(backend: &str) -> Engine {
    Engine::build(EngineConfig {
        initial_rows: 256,
        pool_pages: 64,
        io_model: IoModel::zero(),
        backend: backend.to_string(),
        ..EngineConfig::default()
    })
    .unwrap()
}

fn remote(engine: &Engine) -> &RemoteDc {
    engine.dc().as_remote().expect("a message-boundary deployment")
}

/// Per-op exchange counts added between two snapshots, by op name.
fn delta(before: &WireTelemetrySnapshot, after: &WireTelemetrySnapshot) -> BTreeMap<String, u64> {
    after
        .ops
        .iter()
        .map(|op| {
            let prior = before.op(op.op).map_or(0, |b| b.count);
            (op.name().to_string(), op.count - prior)
        })
        .filter(|(_, n)| *n > 0)
        .collect()
}

/// Move one unit between two accounts the way the bank workload does:
/// lock-and-read both, write both, commit.
fn transfer(engine: &Engine, from: u64, to: u64) {
    let txn = engine.begin().unwrap();
    let a = engine.read_for_update(txn, DEFAULT_TABLE, from).unwrap().unwrap();
    let b = engine.read_for_update(txn, DEFAULT_TABLE, to).unwrap().unwrap();
    engine.update(txn, from, bump(&a, -1)).unwrap();
    engine.update(txn, to, bump(&b, 1)).unwrap();
    engine.commit(txn).unwrap();
}

fn bump(value: &[u8], by: i64) -> Vec<u8> {
    let mut v = value.to_vec();
    let n = i64::from_le_bytes(v[..8].try_into().unwrap()).wrapping_add(by);
    v[..8].copy_from_slice(&n.to_le_bytes());
    v
}

#[test]
fn transfer_costs_six_dc_round_trips() {
    // The protocol has no EOSL message to send.
    assert!((0..=MAX_REQ_TAG).all(|tag| op_name(tag) != "eosl"));
    for backend in DEPLOYMENTS {
        let engine = engine(backend);
        let remote = remote(&engine);
        let server = remote.server().expect("co-located server");
        transfer(&engine, 1, 2); // warm the path; only the second is counted

        let (client0, server0) = (remote.wire_telemetry(), server.telemetry());
        transfer(&engine, 3, 4);
        let expect: BTreeMap<String, u64> =
            [("apply", 2), ("prepare_op", 2), ("read", 2)].map(|(k, n)| (k.to_string(), n)).into();
        let client = delta(&client0, &remote.wire_telemetry());
        let served = delta(&server0, &server.telemetry());
        assert_eq!(client, expect, "{backend}: client-side round trips of one transfer");
        assert_eq!(served, expect, "{backend}: server-side dispatches of one transfer");
        assert_eq!(client.values().sum::<u64>(), 6, "{backend}: DC round trips per transfer = 6");
        assert_eq!(server.held_guards(), 0, "{backend}: every parked guard freed by its apply");
        // The commit's EOSL reached the client watermark without a message.
        assert_eq!(remote.eosl_watermark(), engine.tc().stable_lsn(), "{backend}");
    }
}

/// Run `f` on a helper thread and fail (instead of hanging) if it does
/// not finish in time — a leaked guard shows up as a blocked prepare.
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    rx.recv_timeout(Duration::from_secs(20)).unwrap_or_else(|_| panic!("{what}: wedged"))
}

#[test]
fn dropped_prepared_op_still_sends_release_op() {
    for backend in DEPLOYMENTS {
        let engine = std::sync::Arc::new(engine(backend));
        let remote = remote(&engine);
        let server = remote.server().unwrap();
        let before = remote.wire_telemetry();

        let op = engine.dc().prepare_op(DEFAULT_TABLE, 7, WriteIntent::Update { value_len: 8 });
        let op = op.unwrap();
        assert_eq!(server.held_guards(), 1);
        drop(op); // abandoned: never logged, never applied

        let sent = delta(&before, &remote.wire_telemetry());
        assert_eq!(sent.get("release_op"), Some(&1), "{backend}: {sent:?}");
        assert_eq!(sent.get("apply"), None, "{backend}");
        assert_eq!(server.held_guards(), 0, "{backend}");

        // Another writer can now prepare (and commit) the same key.
        let e = engine.clone();
        within(backend, move || {
            let txn = e.begin().unwrap();
            e.update(txn, 7, vec![9; 8]).unwrap();
            e.commit(txn).unwrap();
        });
        assert_eq!(engine.read(DEFAULT_TABLE, 7).unwrap().unwrap(), vec![9; 8]);
        assert_eq!(server.held_guards(), 0, "{backend}");
    }
}

fn update_record(dc: &dyn DcApi, pid: PageId, key: u64, before: Vec<u8>) -> LogRecord {
    let after = vec![key as u8; 8];
    let payload = LogPayload::Update {
        txn: TxnId(999),
        table: DEFAULT_TABLE,
        key,
        pid,
        prev_lsn: Lsn::NULL,
        before,
        after,
    };
    LogRecord { lsn: dc.wal().append(&payload), payload }
}

#[test]
fn apply_with_a_stale_or_unknown_token_is_a_typed_error() {
    for backend in DEPLOYMENTS {
        let engine = engine(backend);
        let dc = engine.dc();
        let server = remote(&engine).server().unwrap();
        let no_release = |_token| {};

        // A token the server never issued.
        let before = dc.read(DEFAULT_TABLE, 10).unwrap().unwrap();
        let rec = update_record(dc, PageId(1), 10, before);
        let bogus = PreparedOp::parked(rec.payload.data_pid().unwrap(), None, 424_242, no_release);
        match dc.apply(bogus, &rec) {
            Err(Error::UnknownToken(424_242)) => {}
            other => panic!("{backend}: expected UnknownToken, got {other:?}"),
        }

        // A token already consumed by its own apply.
        let mut op =
            dc.prepare_op(DEFAULT_TABLE, 11, WriteIntent::Update { value_len: 8 }).unwrap();
        let (pid, token) = (op.pid, op.take_token().expect("a parked prepare"));
        let rec = update_record(dc, pid, 11, op.before.take().unwrap());
        dc.apply(PreparedOp::parked(pid, None, token, no_release), &rec).unwrap();
        match dc.apply(PreparedOp::parked(pid, None, token, no_release), &rec) {
            Err(Error::UnknownToken(t)) => assert_eq!(t, token, "{backend}"),
            other => panic!("{backend}: expected UnknownToken, got {other:?}"),
        }
        drop(op); // its token was claimed: dropping it sends nothing

        // Nothing leaked: no parked guard, and both keys take new writes.
        assert_eq!(server.held_guards(), 0, "{backend}");
        let txn = engine.begin().unwrap();
        engine.update(txn, 10, vec![3; 8]).unwrap();
        engine.update(txn, 11, vec![4; 8]).unwrap();
        engine.commit(txn).unwrap();
        assert_eq!(engine.read(DEFAULT_TABLE, 11).unwrap().unwrap(), vec![4; 8]);
        assert_eq!(server.held_guards(), 0, "{backend}");
    }
}

#[test]
fn tcp_checkpoint_flushes_pre_bckpt_pages_and_eosl_catches_up_on_the_next_request() {
    let engine = engine("tcp:btree");
    let remote = remote(&engine);
    let pool = engine.dc().pool(); // the DC's own pool (co-located)
    for k in 0..40u64 {
        transfer(&engine, k, (k * 37 + 11) % 256);
    }
    let dirty_before = pool.runtime_dpt();
    assert!(!dirty_before.is_empty(), "the transfers dirtied pages");

    let demands = pool.stats().eosl_demands;
    let bckpt = engine.checkpoint().unwrap();
    // Every page dirtied before bCkpt reached stable storage...
    for (pid, first_dirty) in pool.runtime_dpt() {
        assert!(first_dirty > bckpt, "page {pid} dirty since {first_dirty} survived bCkpt {bckpt}");
    }
    // ...without the pool ever demanding an EOSL advance: the RSSP
    // request already carried the TC's stable LSN.
    assert_eq!(pool.stats().eosl_demands, demands, "checkpoint flush hit a closed gate");

    // A commit publishes EOSL client-side; the DC sees it with the next
    // request, whatever that request is.
    transfer(&engine, 5, 6);
    let stable = engine.tc().stable_lsn();
    assert_eq!(remote.eosl_watermark(), stable);
    engine.read(DEFAULT_TABLE, 5).unwrap();
    assert_eq!(pool.current_elsn(), stable, "DC-side EOSL after the next request");
}

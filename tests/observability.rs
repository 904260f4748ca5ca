//! Property gates for the observability plane: per-thread snapshot
//! merging must agree with single-recorder aggregation, mismatched
//! bucket ladders must be rejected loudly rather than silently
//! corrupting percentiles, and the admin channel's wire form must
//! round-trip a snapshot bit-for-bit (including its JSON rendering).

use std::panic::AssertUnwindSafe;

use broadcast_ic::net::frame::{
    Frame, FrameReader, StatsPayload, StatsReplyFrame, CONTROL_SESSION,
};
use broadcast_ic::net::NetConfig;
use broadcast_ic::telemetry::hist::{Histogram, LATENCY_US_BOUNDS, QUEUE_DEPTH_BOUNDS};
use broadcast_ic::telemetry::{Recorder, Snapshot};
use proptest::prelude::*;

const COUNTERS: [&str; 3] = ["obs.sessions", "obs.bytes_tx", "obs.frames"];
const GAUGES: [&str; 2] = ["obs.inflight", "obs.parked"];
const HISTS: [&str; 2] = ["obs.latency_us", "obs.queue_depth"];

fn hist_bounds(idx: usize) -> &'static [u64] {
    if idx == 0 {
        LATENCY_US_BOUNDS
    } else {
        QUEUE_DEPTH_BOUNDS
    }
}

/// One recorder operation: which family, which name, what value.
#[derive(Debug, Clone, Copy)]
enum Op {
    Counter(usize, u64),
    Gauge(usize, u64),
    Hist(usize, u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..3, 0usize..8, 0u64..5_000_000).prop_map(|(kind, idx, value)| match kind {
        0 => Op::Counter(idx % COUNTERS.len(), value % 10_000),
        1 => Op::Gauge(idx % GAUGES.len(), value % 10_000),
        _ => Op::Hist(idx % HISTS.len(), value),
    })
}

fn apply(rec: &Recorder, op: Op) {
    match op {
        Op::Counter(i, v) => rec.counter_add(COUNTERS[i], v),
        Op::Gauge(i, v) => rec.gauge_set(GAUGES[i], v),
        Op::Hist(i, v) => rec.hist_record(HISTS[i], v, hist_bounds(i)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting one op stream across N per-thread recorders and merging
    /// their snapshots agrees with feeding every op to a single
    /// recorder: counters and histograms are identical, and gauges come
    /// out as the high-water mark (the documented merge semantics).
    #[test]
    fn merged_shards_agree_with_single_recorder(
        ops in prop::collection::vec(op_strategy(), 1..200),
        shards in 1usize..6,
        assign in prop::collection::vec(0usize..6, 200),
    ) {
        let single = Recorder::metrics_only();
        let shard_recs: Vec<Recorder> =
            (0..shards).map(|_| Recorder::metrics_only()).collect();
        for (i, &op) in ops.iter().enumerate() {
            apply(&single, op);
            apply(&shard_recs[assign[i] % shards], op);
        }

        let mut merged = Snapshot::default();
        for rec in &shard_recs {
            merged.merge(&rec.snapshot());
        }
        let expected = single.snapshot();

        prop_assert_eq!(&merged.counters, &expected.counters);
        prop_assert_eq!(&merged.hists, &expected.hists);
        // Gauges are last-write-wins within a shard and merge as max
        // across shards: the merged level is the max over shards of
        // each shard's final write. Recompute that from the op stream.
        for (i, name) in GAUGES.iter().enumerate() {
            let mut last_per_shard = vec![None; shards];
            for (j, &op) in ops.iter().enumerate() {
                if let Op::Gauge(g, v) = op {
                    if g == i {
                        last_per_shard[assign[j] % shards] = Some(v);
                    }
                }
            }
            match last_per_shard.into_iter().flatten().max() {
                Some(level) => prop_assert_eq!(merged.gauge(name), level),
                None => prop_assert!(!merged.gauges.contains_key(*name)),
            }
        }
    }

    /// A snapshot survives the admin channel's wire form exactly: encode
    /// as a [`Frame::StatsReply`] in the v2 envelope, decode it back,
    /// and both the rebuilt [`Snapshot`] and its JSON rendering are
    /// identical to the original.
    #[test]
    fn snapshot_round_trips_through_the_stats_frame(
        ops in prop::collection::vec(op_strategy(), 0..120),
        uptime_us in 0u64..u64::MAX / 2,
    ) {
        let rec = Recorder::metrics_only();
        for &op in &ops {
            apply(&rec, op);
        }
        let mut snap = rec.snapshot();
        snap.uptime_us = uptime_us; // pin the one wall-clock field

        let frame = Frame::StatsReply(Box::new(StatsReplyFrame {
            payload: StatsPayload::from_snapshot(&snap),
            events_jsonl: String::new(),
        }));
        let bytes = frame.to_bytes_mux(CONTROL_SESSION);

        let config = NetConfig::default();
        let mut reader = FrameReader::with_limits(config.max_frame_len);
        let mut cursor: &[u8] = &bytes;
        let (session, decoded) = reader
            .poll_mux(&mut cursor)
            .expect("decode")
            .expect("one whole frame");
        prop_assert_eq!(session, CONTROL_SESSION);
        let reply = match decoded {
            Frame::StatsReply(reply) => *reply,
            other => panic!("expected StatsReply, got {}", other.name()),
        };
        let rebuilt = reply.payload.into_snapshot().expect("valid payload");
        prop_assert_eq!(&rebuilt, &snap);
        prop_assert_eq!(
            rebuilt.to_json().to_string(),
            snap.to_json().to_string()
        );
    }
}

/// Merging snapshots whose shared histogram names carry different bucket
/// ladders must panic with a message that names the problem — silent
/// bucket-wise addition across ladders would corrupt every percentile.
#[test]
fn mismatched_bucket_ladders_are_rejected_loudly() {
    let mut a = Snapshot::default();
    let mut b = Snapshot::default();
    let mut ha = Histogram::new(LATENCY_US_BOUNDS);
    ha.record(120);
    let mut hb = Histogram::new(QUEUE_DEPTH_BOUNDS);
    hb.record(3);
    a.hists.insert("same.name".into(), ha);
    b.hists.insert("same.name".into(), hb);

    let err = std::panic::catch_unwind(AssertUnwindSafe(|| a.merge(&b)))
        .expect_err("merge across ladders must panic");
    let message = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("bucket ladders must match"),
        "panic should name the ladder mismatch, got: {message}"
    );
}

//! The mux determinism gate: a transcript multiplexed over real loopback
//! sockets must be bit-identical to `InProcessTransport` for the same
//! master seed.

use std::time::Duration;

use bci_mux::load::{bench_document, run_load, LoadSpec};
use bci_mux::CoordinatorKind;

fn small_spec() -> LoadSpec {
    let mut spec = LoadSpec::new(48, 3);
    spec.n = 32;
    spec.seed = 0xB10C;
    spec.deadline = Some(Duration::from_secs(20));
    spec
}

#[test]
fn multiplexed_transcripts_match_inprocess() {
    let spec = small_spec();
    let report = run_load(&spec).expect("mux load run");
    assert_eq!(report.kind, CoordinatorKind::Mux);
    assert_eq!(report.completed, spec.sessions, "all sessions complete");
    assert_eq!(report.failed, 0);
    assert_eq!(
        report.verified(),
        Some(true),
        "player-observed transcript fold {:#x} != in-process fold {:#x}",
        report.digest,
        report.digest_inprocess.unwrap()
    );
    // Frames actually crossed a socket: v2 framing is 13 bytes/frame.
    assert!(report.wire.frames_tx > 0 && report.wire.frames_rx > 0);
    assert_eq!(
        report.wire.framing_bytes(),
        13 * (report.wire.frames_tx + report.wire.frames_rx),
        "v2 framing identity"
    );
    assert!(report.wire.transcript_bits > 0);
}

#[test]
fn deep_multiplexing_with_small_inflight_window() {
    // Force many admission waves: 200 sessions through a 16-session
    // window, so parked sessions are resumed, finished, and replaced
    // hundreds of times while outcomes interleave out of order.
    let mut spec = small_spec();
    spec.sessions = 200;
    spec.max_inflight = 16;
    let report = run_load(&spec).expect("mux load run");
    assert_eq!(report.completed, 200);
    assert_eq!(report.verified(), Some(true));
    assert!(
        report.turn_latency.count() > 0,
        "turn latency histogram populated"
    );
}

#[test]
fn bench_document_is_schema_tagged_json() {
    let mut spec = small_spec();
    spec.sessions = 8;
    let report = run_load(&spec).expect("mux load run");
    let doc = bench_document(&spec, &[report]).to_string();
    assert!(doc.starts_with('{') && doc.ends_with('}'));
    assert!(doc.contains("\"schema\":\"bci.bench.v1\""));
    assert!(doc.contains("\"coordinator\""));
    assert!(doc.contains("\"mux\""));
    assert!(doc.contains("match"), "digest column verified: {doc}");
    assert!(!doc.contains("MISMATCH"), "{doc}");
}

//! The wire golden: two Theorem 2 DISJ sessions (k = 2, n = 16, a fixed
//! seed) run on the simulated network, and every direction of every
//! player's link is pinned to its byte length and FNV-1a digest. The
//! frame encoders, the daemon's write queues and the player's replies
//! all feed these bytes, so any change to what goes on the wire, however
//! small, fails here. A deliberate format change re-blesses the table.

mod sim;

use std::time::Instant;

use bci_encoding::wire::fnv1a;
use bci_mux::{MuxCore, MuxOptions, Outbox};
use bci_net::overhead::SWEEP_DENSITY;
use bci_net::NetConfig;
use bci_protocols::disj::broadcast::BroadcastDisj;
use bci_protocols::workload;
use bci_telemetry::Recorder;

use sim::{honest, inprocess_digests, Peer, SimNet};

const SEED: u64 = 0x0601_D3E5;
const SESSIONS: u64 = 2;
const N: usize = 16;
const K: usize = 2;

/// `(bytes, fnv1a)` of daemon → player `i`, then player `i` → daemon.
const GOLDEN: [[(usize, u64); 2]; K] = [
    [(511, 0x8eb6_c4bd_8cea_d495), (156, 0xbf7e_4c40_bd34_b18c)],
    [(511, 0x3acd_f617_7518_7a29), (153, 0x862a_3df1_c0f9_c160)],
];

#[test]
fn two_disj_sessions_put_the_pinned_bytes_on_every_link() {
    let protocol = BroadcastDisj::new(N, K);
    let sample = |_: u64, rng: &mut _| workload::random_sets(N, K, SWEEP_DENSITY, rng);
    let config = NetConfig::default();
    let opts = MuxOptions {
        config: config.clone(),
        ..MuxOptions::default()
    };
    let recorder = Recorder::metrics_only();
    let base = Instant::now();
    let core = MuxCore::new(
        base,
        &protocol,
        vec![Outbox::default(); K],
        SESSIONS,
        SEED,
        sample,
        &opts,
        &recorder,
    );
    let peers = (0..K).map(|i| Peer::new(honest(&protocol, i))).collect();
    let run = SimNet::new(base, core, peers, &config).run();

    // The sessions ran, and ran the in-process transcripts.
    let report = &run.report;
    assert_eq!(report.completed(), SESSIONS as usize, "{report:?}");
    let digests: Vec<u64> = report.records.iter().map(|r| r.digest).collect();
    assert_eq!(
        digests,
        inprocess_digests(&protocol, SESSIONS, SEED, sample)
    );
    // The logs are the daemon's own wire accounting.
    let down: usize = run.links.iter().map(|(d, _)| d.len()).sum();
    let up: usize = run.links.iter().map(|(_, u)| u.len()).sum();
    assert_eq!(report.wire.bytes_tx, down as u64);
    assert_eq!(report.wire.bytes_rx, up as u64);

    let links: Vec<[(usize, u64); 2]> = run
        .links
        .iter()
        .map(|(down, up)| [(down.len(), fnv1a(down)), (up.len(), fnv1a(up))])
        .collect();
    assert_eq!(links, GOLDEN, "the bytes on the wire changed");
}

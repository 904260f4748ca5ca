//! The driver-equivalence gate: every driver built on the sans-io
//! [`TurnEngine`] must produce **bit-identical** executions for the same
//! seed — same transcript (board and digest), same RNG stream, same
//! bits-written accounting — across random protocols whose turn order
//! itself depends on the randomness consumed so far.
//!
//! The matrix covers all three drivers:
//!
//! 1. the serial runner (`bci_blackboard::protocol::run`),
//! 2. `InProcessTransport` (fabric, same thread),
//! 3. the mux daemon (`run_mux_daemon` + `run_mux_player` over loopback,
//!    one thread per player),
//!
//! plus a hand-rolled `TurnEngine` drive that checks the *final RNG
//! state* byte-for-byte against the serial runner's external RNG — the
//! direct witness that all drivers consume the stream identically.
//!
//! A second matrix covers the non-blackboard topologies: the
//! coordinator-star and point-to-point DISJ protocols run natively on
//! the routed engine and, through `bci_topology::Embedded`, on the
//! blackboard drivers; every driver's transcript must decode back to
//! the native routed board byte for byte, and the mux daemon's
//! transcript digest must equal the serial board's.
//!
//! CI runs this as the "Driver equivalence" step.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use bci_blackboard::board::Board;
use bci_blackboard::engine::{Step, TurnEngine};
use bci_blackboard::protocol::Protocol;
use bci_blackboard::runner::derive_trial_seed;
use bci_blackboard::PlayerId;
use bci_encoding::bitio::BitVec;
use bci_encoding::bitset::BitSet;
use bci_encoding::wire::Wire;
use bci_fabric::session::SessionOutcome;
use bci_fabric::transport::{InProcessTransport, SessionContext, Transport, DISABLED_RECORDER};
use bci_mux::daemon::{accept_mux_roster, SessionInfo, SessionRecord};
use bci_mux::{connect_mux_player, run_mux_daemon, run_mux_player, MuxOptions};
use bci_net::overhead::transcript_digest;
use bci_net::NetConfig;
use bci_protocols::disj::disj_function;
use bci_protocols::msgpass::{P2pDisj, StarDisj};
use bci_telemetry::Recorder;
use bci_topology::{run_routed, Embedded, RoutedProtocol};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A randomly-parameterized protocol whose speaker schedule is a hash of
/// the evolving board — including `total_bits`, which depends on how
/// much randomness each message consumed. Any divergence in the RNG
/// stream between two drivers therefore derails not just message
/// contents but *who speaks next*, making transcript equality a sharp
/// witness of bit-identical execution.
struct RandTree {
    players: usize,
    rounds: usize,
    max_extra_bits: usize,
}

impl RandTree {
    fn total_turns(&self) -> usize {
        self.players * self.rounds
    }
}

fn fnv1a(words: &[u64]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x100000001b3);
        }
    }
    hash
}

impl Protocol for RandTree {
    type Input = u64;
    type Output = u64;

    fn num_players(&self) -> usize {
        self.players
    }

    fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
        let turn = board.messages().len();
        (turn < self.total_turns())
            .then(|| fnv1a(&[turn as u64, board.total_bits() as u64]) as usize % self.players)
    }

    fn message(
        &self,
        player: PlayerId,
        input: &u64,
        board: &Board,
        rng: &mut dyn RngCore,
    ) -> BitVec {
        let coin = rng.random_bool(0.5);
        let extra = rng.random_range(0..=self.max_extra_bits);
        let turn = board.messages().len();
        let mut bits = vec![
            (input >> (turn % 64)) & 1 == 1,
            coin,
            player.is_multiple_of(2),
        ];
        for _ in 0..extra {
            bits.push(rng.random_bool(0.5));
        }
        BitVec::from_bools(&bits)
    }

    fn output(&self, board: &Board) -> u64 {
        fnv1a(&[board.messages().len() as u64, board.total_bits() as u64])
    }
}

fn ctx(id: u64) -> SessionContext<'static> {
    SessionContext {
        session_id: id,
        deadline: Some(Duration::from_secs(30)),
        faults: &[],
        recorder: &DISABLED_RECORDER,
    }
}

fn fast_config() -> NetConfig {
    NetConfig {
        heartbeat_interval: Duration::from_millis(100),
        io_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(20),
        backoff_cap: Duration::from_millis(200),
        ..NetConfig::default()
    }
}

/// Runs exactly one session of `proto` through the mux daemon over real
/// loopback sockets and returns its record. `sample` draws the inputs
/// from the session's freshly seeded RNG, exactly as the other drivers'
/// callers do, so the session RNG lines up with every other driver.
fn mux_single_session<P, S>(proto: &P, master_seed: u64, sample: S) -> SessionRecord
where
    P: Protocol + Sync,
    P::Input: Wire,
    P::Output: Wire,
    S: Fn(&mut ChaCha8Rng) -> Vec<P::Input>,
{
    let config = fast_config();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let players = proto.num_players();
    let info = SessionInfo {
        protocol_id: "driver-eq".into(),
        players: players as u32,
        seed: master_seed,
        params: vec![],
    };
    let recorder = Recorder::metrics_only();
    let opts = MuxOptions {
        deadline: Some(Duration::from_secs(30)),
        config: config.clone(),
        ..MuxOptions::default()
    };
    let mut report = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..players)
            .map(|player| {
                let config = &config;
                scope.spawn(move || {
                    let (conn, _ack, _retries) =
                        connect_mux_player(addr, player, "driver-eq", config, master_seed)
                            .expect("player connects");
                    run_mux_player(proto, conn, player, config, false)
                        .expect("player runs to the final outcome")
                })
            })
            .collect();
        let conns = accept_mux_roster(
            &listener,
            &info,
            &config,
            Instant::now() + config.io_timeout,
            &recorder,
        )
        .expect("roster fills");
        let report = run_mux_daemon(
            proto,
            conns,
            None,
            1,
            master_seed,
            |_, rng| sample(rng),
            &opts,
            &recorder,
        );
        for handle in handles {
            handle.join().expect("player thread");
        }
        report
    });
    assert_eq!(report.records.len(), 1);
    report.records.pop().expect("one record")
}

/// The shared seeding discipline: sample one `u64` input per player,
/// leaving `rng` positioned to serve as the session RNG.
fn sample_inputs(players: usize, rng: &mut ChaCha8Rng) -> Vec<u64> {
    (0..players).map(|_| rng.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random tree protocols × all three drivers: identical boards,
    /// digests, outputs, bits-written, and final RNG state.
    #[test]
    fn all_three_drivers_agree_bit_for_bit(
        players in 2usize..5,
        rounds in 1usize..4,
        max_extra_bits in 0usize..12,
        master_seed in any::<u64>(),
    ) {
        let proto = RandTree { players, rounds, max_extra_bits };
        let seed = derive_trial_seed(master_seed, 0);
        let mut session_rng = ChaCha8Rng::seed_from_u64(seed);
        let inputs = sample_inputs(players, &mut session_rng);

        // Driver 1: the serial runner, driving an external RNG.
        let mut serial_rng = session_rng.clone();
        let serial = bci_blackboard::protocol::run(&proto, &inputs, &mut serial_rng);
        prop_assert_eq!(serial.board.messages().len(), proto.total_turns());

        // Witness for "identical RNG streams": a hand-rolled engine drive
        // (the parked-state path every transport uses) must leave the
        // session RNG in exactly the state the serial runner left its
        // external RNG in.
        let mut engine = TurnEngine::with_rng(&proto, inputs.len(), &session_rng)
            .expect("input count matches");
        while let Step::Grant(grant) = engine.poll().expect("no violations") {
            let mut rng = grant.resume_rng();
            let bits = proto.message(
                grant.speaker,
                &inputs[grant.speaker],
                engine.board(),
                &mut rng,
            );
            engine
                .apply(grant.speaker, bits, Some(&rng.state_bytes()))
                .expect("reply matches the grant");
        }
        prop_assert_eq!(
            engine.rng_state().expect("parked after halt"),
            &serial_rng.state_bytes(),
            "engine RNG stream diverged from the serial runner's"
        );
        prop_assert_eq!(engine.board(), &serial.board);
        prop_assert_eq!(engine.bits_written(), serial.bits_written);

        // Driver 2: the in-process fabric transport.
        let inproc =
            InProcessTransport.run_session(&proto, &inputs, session_rng.clone(), &ctx(0));
        prop_assert_eq!(&inproc.outcome, &SessionOutcome::Completed);
        prop_assert_eq!(&inproc.board, &serial.board);
        prop_assert_eq!(&inproc.output, &Some(serial.output));
        prop_assert_eq!(inproc.bits_written, serial.bits_written);

        // Driver 3: the mux daemon. It derives the session seed and
        // samples inputs itself, so agreement here proves the whole
        // seeding discipline matches, not just the turn loop.
        let record = mux_single_session(&proto, master_seed, |rng| sample_inputs(players, rng));
        prop_assert_eq!(record.kind, 0, "mux session must complete: {}", record.reason);
        prop_assert_eq!(record.digest, transcript_digest(&serial.board));
        prop_assert_eq!(record.transcript_bits, serial.bits_written as u64);
        prop_assert_eq!(record.turns as usize, proto.total_turns());
        let mux_output = u64::from_wire_bytes(&record.output).expect("wire-encoded u64");
        prop_assert_eq!(mux_output, serial.output);
    }
}

/// Runs one routed protocol natively on the routed engine, then through
/// the [`Embedded`] header shim on the blackboard drivers — serial
/// runner, the fabric transport and the mux daemon —
/// and checks every driver's decoded transcript equals the native
/// routed board byte for byte.
fn check_routed_matrix<P>(
    proto: P,
    inputs: &[BitSet],
    master_seed: u64,
    expect: bool,
) -> Result<(), TestCaseError>
where
    P: RoutedProtocol<Input = BitSet, Output = bool> + Sync,
{
    let session_rng = ChaCha8Rng::seed_from_u64(derive_trial_seed(master_seed, 0));

    let native = run_routed(&proto, inputs, &session_rng);
    prop_assert_eq!(native.output, expect);

    let embedded = Embedded::new(proto);
    let mut serial_rng = session_rng.clone();
    let serial = bci_blackboard::protocol::run(&embedded, inputs, &mut serial_rng);
    prop_assert_eq!(serial.output, expect);
    let headers = native.board.messages().len() * embedded.header_bits();
    prop_assert_eq!(
        serial.bits_written,
        native.stats.total_bits + headers,
        "blackboard cost must be routed cost plus link headers"
    );
    prop_assert_eq!(
        embedded.decode_board(&serial.board).to_bytes(),
        native.board.to_bytes()
    );

    let inproc = InProcessTransport.run_session(&embedded, inputs, session_rng.clone(), &ctx(0));
    prop_assert_eq!(&inproc.outcome, &SessionOutcome::Completed);
    prop_assert_eq!(&inproc.board, &serial.board);
    prop_assert_eq!(&inproc.output, &Some(expect));

    // The mux daemon seeds the session itself; handing back the fixed
    // inputs without touching the RNG leaves it where the others start.
    let record = mux_single_session(&embedded, master_seed, |_| inputs.to_vec());
    prop_assert_eq!(
        record.kind,
        0,
        "mux session must complete: {}",
        record.reason
    );
    prop_assert_eq!(record.digest, transcript_digest(&serial.board));
    prop_assert_eq!(record.transcript_bits, serial.bits_written as u64);
    let mux_output = bool::from_wire_bytes(&record.output).expect("wire-encoded bool");
    prop_assert_eq!(mux_output, expect);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The non-blackboard topologies ride the same driver matrix: the
    /// coordinator-star and point-to-point DISJ protocols, run through
    /// the `Embedded` shim, produce transcripts on every blackboard
    /// driver that decode back to the native routed execution.
    #[test]
    fn routed_topologies_ride_the_driver_matrix(
        n in 4usize..24,
        k in 2usize..6,
        density in 0.0f64..0.6,
        master_seed in any::<u64>(),
    ) {
        let mut input_rng =
            ChaCha8Rng::seed_from_u64(derive_trial_seed(master_seed, 1));
        let inputs: Vec<BitSet> = (0..k)
            .map(|_| {
                let mut s = BitSet::new(n);
                for e in 0..n {
                    if input_rng.random_bool(density) {
                        s.insert(e);
                    }
                }
                s
            })
            .collect();
        let expect = disj_function(&inputs);

        check_routed_matrix(StarDisj::new(n, k), &inputs, master_seed, expect)?;
        check_routed_matrix(P2pDisj::new(n, k), &inputs, master_seed, expect)?;
    }
}

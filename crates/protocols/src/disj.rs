//! Set disjointness `DISJ_{n,k}` in the broadcast model.
//!
//! Each player `i` holds a set `Xᵢ ⊆ [n]`; the players decide whether
//! `⋂ᵢ Xᵢ = ∅`. Both protocols here convince themselves of disjointness by
//! writing *zero coordinates* (elements outside the writer's set) on the
//! board: a coordinate with a published zero cannot be in the intersection,
//! and the sets are disjoint iff every coordinate gets one.
//!
//! * [`naive`] — the introduction's protocol: one cycle, each player writes
//!   all its new zeros as `⌈log₂ n⌉`-bit coordinates ⇒ `O(n log n + k)`.
//! * [`batched`] — the Theorem 2 protocol: zeros are written in *batches*,
//!   each batch a `⌈z/k⌉`-subset of the currently-uncovered set `Z`
//!   transmitted in `⌈log₂ C(z, ⌈z/k⌉)⌉` bits — `log₂(e·k)` per coordinate
//!   instead of `log₂ n` ⇒ `O(n log k + k)`.
//!
//! Both protocols are deterministic and zero-error. Each module also
//! provides a [`decode`](batched::decode) function that replays a finished
//! board *without any input*, recovering the speaker sequence and output —
//! machine-checkable evidence that the protocol is legal in the blackboard
//! model (the board alone determines everything).

use bci_blackboard::board::Board;
use bci_blackboard::PlayerId;
use bci_encoding::bitset::BitSet;

/// The reference function: `true` iff the sets have empty intersection.
///
/// # Panics
///
/// Panics if `inputs` is empty or the sets have mismatched capacities.
pub fn disj_function(inputs: &[BitSet]) -> bool {
    assert!(!inputs.is_empty(), "DISJ needs at least one player");
    let mut inter = inputs[0].clone();
    for x in &inputs[1..] {
        inter = inter.intersection(x);
    }
    inter.is_empty()
}

/// The result of running a disjointness protocol.
#[derive(Debug, Clone)]
pub struct DisjRun {
    /// The final board.
    pub board: Board,
    /// Total bits written.
    pub bits: usize,
    /// `true` = "disjoint".
    pub output: bool,
    /// Number of cycles executed.
    pub cycles: usize,
    /// Total zero-coordinates published.
    pub coords_written: usize,
}

/// The result of replaying a board without inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct Decoded {
    /// Speakers in board order (must match the board's attributions).
    pub speakers: Vec<PlayerId>,
    /// The output the board determines.
    pub output: bool,
    /// Every coordinate whose zero was published.
    pub covered: Vec<usize>,
}

fn check_inputs(n: usize, inputs: &[BitSet]) {
    assert!(!inputs.is_empty(), "need at least one player");
    assert!(
        inputs.iter().all(|x| x.capacity() == n),
        "all inputs must be sets over the same universe"
    );
}

/// The naive `O(n log n + k)` protocol from the paper's introduction.
pub mod naive {
    use super::*;
    use bci_encoding::bitio::{BitReader, BitVec, BitWriter};

    fn coord_width(n: usize) -> u32 {
        if n <= 1 {
            0
        } else {
            usize::BITS - (n - 1).leading_zeros()
        }
    }

    /// Runs the protocol: players `0..k` in order; each writes every zero
    /// coordinate of its input not already on the board, as
    /// `1`+`⌈log₂ n⌉-bit index` records, ending its turn with a `0` bit.
    /// Output: disjoint iff all `n` coordinates end up covered.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or capacities mismatch.
    pub fn run(inputs: &[BitSet]) -> DisjRun {
        let n = inputs.first().map_or(0, BitSet::capacity);
        check_inputs(n, inputs);
        let width = coord_width(n);
        let mut board = Board::new();
        let mut covered = BitSet::new(n);
        let mut coords_written = 0;
        for (player, x) in inputs.iter().enumerate() {
            let mut w = BitWriter::new();
            // Zero coordinates = complement of the player's set.
            for j in x.complement().difference(&covered).iter() {
                w.write_bit(true);
                w.write_bits(j as u64, width);
                covered.insert(j);
                coords_written += 1;
            }
            w.write_bit(false);
            board.write(player, w.into_bits());
            if covered.len() == n {
                break; // everything covered: disjoint, rest stay silent
            }
        }
        let bits = board.total_bits();
        DisjRun {
            board,
            bits,
            output: covered.len() == n,
            cycles: 1,
            coords_written,
        }
    }

    /// Replays a finished board without inputs; recovers speakers, covered
    /// coordinates and the output.
    ///
    /// # Panics
    ///
    /// Panics if the board is not a valid transcript of the naive protocol
    /// on universe size `n` with `k` players.
    pub fn decode(n: usize, k: usize, board: &Board) -> Decoded {
        let width = coord_width(n);
        let mut covered = BitSet::new(n);
        let mut speakers = Vec::new();
        for (turn, msg) in board.messages().iter().enumerate() {
            assert!(turn < k, "more turns than players");
            assert_eq!(msg.speaker, turn, "naive protocol speaks in order");
            speakers.push(msg.speaker);
            let bits: BitVec = msg.bits.clone();
            let mut r = BitReader::new(&bits);
            loop {
                match r.read_bit().expect("truncated turn") {
                    false => break,
                    true => {
                        let j = r.read_bits(width).expect("truncated coordinate") as usize;
                        assert!(j < n, "coordinate {j} out of range");
                        assert!(covered.insert(j), "coordinate {j} repeated");
                    }
                }
            }
            assert_eq!(r.remaining(), 0, "trailing bits in turn");
            if covered.len() == n {
                break;
            }
        }
        // The protocol only halts early on full coverage; otherwise all k
        // players must have spoken. A shorter board is truncated.
        assert!(
            covered.len() == n || speakers.len() == k,
            "board ended after {} turns without full coverage",
            speakers.len()
        );
        Decoded {
            speakers,
            output: covered.len() == n,
            covered: covered.iter().collect(),
        }
    }

    /// Exact worst-case communication of the naive protocol:
    /// `n·(⌈log₂ n⌉ + 1) + k` bits.
    pub fn worst_case_bits(n: usize, k: usize) -> usize {
        n * (coord_width(n) as usize + 1) + k
    }
}

/// The Theorem 2 protocol: `O(n log k + k)` bits via batched subset codes.
pub mod batched {
    use super::*;
    use bci_encoding::approx::approx_binomial_code_len;
    use bci_encoding::bitio::{BitReader, BitWriter};
    use bci_encoding::combinadic::SubsetCodec;

    fn index_width(z: usize) -> u32 {
        if z <= 1 {
            0
        } else {
            usize::BITS - (z - 1).leading_zeros()
        }
    }

    /// One player's action during a cycle, produced by the shared state
    /// machine and consumed by either the exact encoder or the cost model.
    enum Turn {
        /// "Pass": one bit.
        Pass,
        /// Fat-cycle batch: `indices` are positions within the cycle-start
        /// uncovered list (sorted ascending), of size `b`.
        Batch { indices: Vec<u64> },
        /// Final naive cycle: every new zero, as positions within the
        /// cycle-start uncovered list.
        Naive { indices: Vec<u64> },
    }

    /// Where the per-turn costs go: real bits or estimated counts.
    trait Sink {
        fn emit(&mut self, player: PlayerId, turn: &Turn, z: usize, b: usize);
    }

    /// The protocol's state machine, shared between [`run`] and [`cost`].
    /// Returns `(output, cycles, coords_written)`.
    fn simulate(inputs: &[BitSet], sink: &mut dyn Sink) -> (bool, usize, usize) {
        let n = inputs.first().map_or(0, BitSet::capacity);
        check_inputs(n, inputs);
        let k = inputs.len();
        let zeros: Vec<BitSet> = inputs.iter().map(BitSet::complement).collect();
        let mut covered = BitSet::new(n);
        let mut cycles = 0usize;
        let mut coords_written = 0usize;
        loop {
            if covered.len() == n {
                return (true, cycles, coords_written);
            }
            cycles += 1;
            let z_list: Vec<usize> = covered.complement().iter().collect();
            let z = z_list.len();
            // Position of each uncovered coordinate within Z.
            let pos_in_z = {
                let mut pos = vec![usize::MAX; n];
                for (idx, &j) in z_list.iter().enumerate() {
                    pos[j] = idx;
                }
                pos
            };
            if z >= k * k {
                // Fat cycle: batches of b = ⌈z/k⌉, or pass.
                let b = z.div_ceil(k);
                let mut all_passed = true;
                for (player, player_zeros) in zeros.iter().enumerate() {
                    let new_zeros: Vec<usize> = player_zeros.difference(&covered).iter().collect();
                    if new_zeros.len() >= b {
                        let chosen = &new_zeros[..b];
                        let indices: Vec<u64> =
                            chosen.iter().map(|&j| pos_in_z[j] as u64).collect();
                        debug_assert!(indices.windows(2).all(|w| w[0] < w[1]));
                        sink.emit(player, &Turn::Batch { indices }, z, b);
                        for &j in chosen {
                            covered.insert(j);
                        }
                        coords_written += b;
                        all_passed = false;
                        if covered.len() == n {
                            return (true, cycles, coords_written);
                        }
                    } else {
                        sink.emit(player, &Turn::Pass, z, b);
                    }
                }
                if all_passed {
                    return (false, cycles, coords_written);
                }
            } else {
                // Final naive cycle: everyone dumps all new zeros.
                for (player, player_zeros) in zeros.iter().enumerate() {
                    let new_zeros: Vec<usize> = player_zeros.difference(&covered).iter().collect();
                    let indices: Vec<u64> = new_zeros.iter().map(|&j| pos_in_z[j] as u64).collect();
                    coords_written += indices.len();
                    sink.emit(player, &Turn::Naive { indices }, z, 0);
                    for &j in &new_zeros {
                        covered.insert(j);
                    }
                    if covered.len() == n {
                        return (true, cycles, coords_written);
                    }
                }
                return (covered.len() == n, cycles, coords_written);
            }
        }
    }

    struct ExactSink {
        board: Board,
        /// The batch codec of the current cycle (`z` and `b` are fixed
        /// within a cycle), built at the cycle's first batch.
        codec: Option<SubsetCodec>,
    }

    impl Sink for ExactSink {
        fn emit(&mut self, player: PlayerId, turn: &Turn, z: usize, b: usize) {
            let mut w = BitWriter::new();
            match turn {
                Turn::Pass => w.write_bit(false),
                Turn::Batch { indices } => {
                    w.write_bit(true);
                    let (z, b) = (z as u64, b as u64);
                    let codec = match self.codec.take() {
                        Some(c) if c.universe() == z && c.subset_size() == b => c,
                        _ => SubsetCodec::new(z, b),
                    };
                    codec.encode(indices, &mut w);
                    self.codec = Some(codec);
                }
                Turn::Naive { indices } => {
                    let width = index_width(z);
                    for &idx in indices {
                        w.write_bit(true);
                        w.write_bits(idx, width);
                    }
                    w.write_bit(false);
                }
            }
            self.board.write(player, w.into_bits());
        }
    }

    /// Runs the Theorem 2 protocol, producing real decodable bits.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or capacities mismatch.
    pub fn run(inputs: &[BitSet]) -> DisjRun {
        let mut sink = ExactSink {
            board: Board::new(),
            codec: None,
        };
        let (output, cycles, coords_written) = simulate(inputs, &mut sink);
        let bits = sink.board.total_bits();
        DisjRun {
            board: sink.board,
            bits,
            output,
            cycles,
            coords_written,
        }
    }

    struct CostSink {
        bits: usize,
    }

    impl Sink for CostSink {
        fn emit(&mut self, _player: PlayerId, turn: &Turn, z: usize, b: usize) {
            self.bits += match turn {
                Turn::Pass => 1,
                Turn::Batch { .. } => 1 + approx_binomial_code_len(z as u64, b as u64) as usize,
                Turn::Naive { indices } => indices.len() * (1 + index_width(z) as usize) + 1,
            };
        }
    }

    /// Runs only the cost accounting: identical schedule and bit counts to
    /// [`run`] (up to float rounding in `⌈log₂ C(z,b)⌉`), but without
    /// big-integer subset ranking — usable for very large sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or capacities mismatch.
    pub fn cost(inputs: &[BitSet]) -> DisjRun {
        let mut sink = CostSink { bits: 0 };
        let (output, cycles, coords_written) = simulate(inputs, &mut sink);
        DisjRun {
            board: Board::new(),
            bits: sink.bits,
            output,
            cycles,
            coords_written,
        }
    }

    /// Replays a finished board without inputs; recovers speakers, covered
    /// coordinates and the output — the proof that the transcript is
    /// self-describing.
    ///
    /// # Panics
    ///
    /// Panics if the board is not a valid transcript of the batched protocol
    /// with universe `n` and `k` players.
    pub fn decode(n: usize, k: usize, board: &Board) -> Decoded {
        let mut covered = BitSet::new(n);
        let mut speakers = Vec::new();
        let mut msgs = board.messages().iter().peekable();
        let mut output = None;
        'cycles: while covered.len() < n {
            let z_list: Vec<usize> = covered.complement().iter().collect();
            let z = z_list.len();
            if z >= k * k {
                let b = z.div_ceil(k);
                let codec = SubsetCodec::new(z as u64, b as u64);
                let mut all_passed = true;
                for player in 0..k {
                    let msg = msgs.next().expect("board ended mid-cycle");
                    assert_eq!(msg.speaker, player, "unexpected speaker");
                    speakers.push(player);
                    let mut r = BitReader::new(&msg.bits);
                    if r.read_bit().expect("empty turn") {
                        let indices = codec.decode(&mut r);
                        for idx in indices {
                            let j = z_list[idx as usize];
                            assert!(covered.insert(j), "coordinate {j} repeated");
                        }
                        all_passed = false;
                        if covered.len() == n {
                            output = Some(true);
                            break 'cycles;
                        }
                    }
                    assert_eq!(r.remaining(), 0, "trailing bits in turn");
                }
                if all_passed {
                    output = Some(false);
                    break 'cycles;
                }
            } else {
                let width = index_width(z);
                for player in 0..k {
                    let msg = msgs.next().expect("board ended mid-cycle");
                    assert_eq!(msg.speaker, player, "unexpected speaker");
                    speakers.push(player);
                    let mut r = BitReader::new(&msg.bits);
                    while r.read_bit().expect("truncated turn") {
                        let idx = r.read_bits(width).expect("truncated index") as usize;
                        assert!(idx < z, "index {idx} out of range");
                        let j = z_list[idx];
                        assert!(covered.insert(j), "coordinate {j} repeated");
                    }
                    assert_eq!(r.remaining(), 0, "trailing bits in turn");
                    if covered.len() == n {
                        output = Some(true);
                        break 'cycles;
                    }
                }
                output = Some(covered.len() == n);
                break 'cycles;
            }
        }
        assert!(msgs.next().is_none(), "board has extra messages");
        Decoded {
            speakers,
            output: output.unwrap_or(true), // covered == n before any cycle
            covered: covered.iter().collect(),
        }
    }

    /// The Theorem 2 accounting bound on per-coordinate cost in fat cycles:
    /// `log₂(e·k)` bits per coordinate.
    pub fn per_coordinate_bound(k: usize) -> f64 {
        (std::f64::consts::E * k as f64).log2()
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::workload;
        use bci_encoding::bignum::BigUint;
        use bci_encoding::binomial::{binomial, binomial_code_len};
        use rand::SeedableRng;

        /// Writes every turn as [`ExactSink`] does, except that each batch
        /// is ranked term by term, `Σ_t C(c_t, t+1)`, with no Pascal walk
        /// and no [`SubsetCodec`].
        struct OracleSink(ExactSink);

        impl Sink for OracleSink {
            fn emit(&mut self, player: PlayerId, turn: &Turn, z: usize, b: usize) {
                let Turn::Batch { indices } = turn else {
                    return self.0.emit(player, turn, z, b);
                };
                let mut rank = BigUint::zero();
                for (t, &c) in indices.iter().enumerate() {
                    rank.add_assign(&binomial(c, t as u64 + 1));
                }
                let mut w = BitWriter::new();
                w.write_bit(true);
                for i in 0..u64::from(binomial_code_len(z as u64, b as u64)) {
                    w.write_bit(rank.bit(i));
                }
                self.0.board.write(player, w.into_bits());
            }
        }

        #[test]
        fn run_boards_equal_term_by_term_oracle_boards() {
            let mut r = rand_chacha::ChaCha8Rng::seed_from_u64(47);
            for trial in 0..24 {
                let n = [64, 300, 1024, 2048][trial % 4];
                let k = [2, 3, 4, 8, 16, 5][trial % 6];
                let inputs = match trial % 3 {
                    0 => workload::planted_zero_cover(n, k, 0.1, &mut r),
                    1 => workload::planted_intersection(n, k, 2, 0.4, &mut r),
                    _ => workload::random_sets(n, k, 0.5, &mut r),
                };
                let mut oracle = OracleSink(ExactSink {
                    board: Board::new(),
                    codec: None,
                });
                let (output, cycles, _) = simulate(&inputs, &mut oracle);
                let got = run(&inputs);
                assert_eq!((got.output, got.cycles), (output, cycles), "trial {trial}");
                assert_eq!(got.board, oracle.0.board, "trial {trial}");
            }
        }
    }
}

/// The naive protocol as a [`Protocol`](bci_blackboard::protocol::Protocol)
/// implementation, so disjointness can run under the generic executors
/// (`bci_blackboard::protocol::run`, the Monte-Carlo harness, and the
/// execution fabric).
///
/// Identical schedule and encoding to [`naive`]: players speak in order,
/// each publishing its not-yet-covered zero coordinates as
/// `1`+`⌈log₂ n⌉`-bit records, terminated by a `0` bit; the protocol halts
/// early once all `n` coordinates are covered. `next_speaker` and `output`
/// recover the covered set by replaying the board — they are functions of
/// the board alone, as the model requires.
pub mod broadcast {
    use super::*;
    use bci_blackboard::protocol::Protocol;
    use bci_encoding::bitio::{BitReader, BitVec, BitWriter};
    use rand::RngCore;

    /// `DISJ_{n,k}` as an executable [`Protocol`]. Input: one [`BitSet`]
    /// over `[n]` per player; output: `true` iff the sets are disjoint.
    #[derive(Debug, Clone)]
    pub struct BroadcastDisj {
        n: usize,
        k: usize,
    }

    impl BroadcastDisj {
        /// A protocol instance for `k` players over universe `[n]`.
        ///
        /// # Panics
        ///
        /// Panics if `k == 0`.
        pub fn new(n: usize, k: usize) -> Self {
            assert!(k > 0, "DISJ needs at least one player");
            BroadcastDisj { n, k }
        }

        /// Universe size `n`.
        pub fn universe(&self) -> usize {
            self.n
        }

        fn coord_width(&self) -> u32 {
            if self.n <= 1 {
                0
            } else {
                usize::BITS - (self.n - 1).leading_zeros()
            }
        }

        /// Replays the board, returning the covered set.
        fn covered(&self, board: &Board) -> BitSet {
            let width = self.coord_width();
            let mut covered = BitSet::new(self.n);
            for msg in board.messages() {
                let mut r = BitReader::new(&msg.bits);
                while r.read_bit().expect("truncated turn") {
                    let j = r.read_bits(width).expect("truncated coordinate") as usize;
                    covered.insert(j);
                }
            }
            covered
        }
    }

    impl Protocol for BroadcastDisj {
        type Input = BitSet;
        type Output = bool;

        fn num_players(&self) -> usize {
            self.k
        }

        fn next_speaker(&self, board: &Board) -> Option<PlayerId> {
            let turns = board.messages().len();
            if turns >= self.k || self.covered(board).len() == self.n {
                None // everyone spoke, or full coverage ended the protocol
            } else {
                Some(turns)
            }
        }

        fn message(
            &self,
            _player: PlayerId,
            input: &BitSet,
            board: &Board,
            _rng: &mut dyn RngCore,
        ) -> BitVec {
            assert_eq!(input.capacity(), self.n, "input universe mismatch");
            let width = self.coord_width();
            let covered = self.covered(board);
            let mut w = BitWriter::new();
            for j in input.complement().difference(&covered).iter() {
                w.write_bit(true);
                w.write_bits(j as u64, width);
            }
            w.write_bit(false);
            w.into_bits()
        }

        fn output(&self, board: &Board) -> bool {
            self.covered(board).len() == self.n
        }
    }
}

/// The coordinate-wise protocol: run sequential `AND_k` on every coordinate.
///
/// This is the protocol the Lemma 1 direct sum actually decomposes —
/// `DISJ_{n,k} = ¬⋁ⱼ AND_k(X^j)` solved by `n` independent `AND_k`
/// instances. Column `j` is processed in order: players announce the bit
/// `j ∈ Xᵢ` until someone says 0 (coordinate ruled out) or all `k` say 1
/// (the intersection is witnessed — halt, "non-disjoint").
///
/// Its communication is `Θ(Σⱼ (position of column j's first zero))` — up to
/// `n·k` — which is exactly why Theorem 2's batching matters: the
/// information in a column is only `O(log k)` bits, but announcing bits
/// one player at a time pays `Θ(k)` for late zeros. The A4 ablation
/// measures this gap.
pub mod coordinatewise {
    use super::*;
    use bci_encoding::bitio::{BitReader, BitVec};

    /// Runs the protocol. Each board message is one player's 1-bit
    /// announcement; board contents alone determine the column/player
    /// schedule (verified by [`decode`]).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty or capacities mismatch.
    pub fn run(inputs: &[BitSet]) -> DisjRun {
        let n = inputs.first().map_or(0, BitSet::capacity);
        check_inputs(n, inputs);
        let k = inputs.len();
        let mut board = Board::new();
        for j in 0..n {
            let mut all_ones = true;
            for (player, x) in inputs.iter().enumerate() {
                let bit = x.contains(j);
                board.write(player, BitVec::from_bools(&[bit]));
                if !bit {
                    all_ones = false;
                    break;
                }
            }
            if all_ones && k > 0 {
                let bits = board.total_bits();
                return DisjRun {
                    board,
                    bits,
                    output: false,
                    cycles: j + 1,
                    coords_written: j + 1,
                };
            }
        }
        let bits = board.total_bits();
        DisjRun {
            board,
            bits,
            output: true,
            cycles: n,
            coords_written: n,
        }
    }

    /// Replays a finished board without inputs.
    ///
    /// # Panics
    ///
    /// Panics if the board is not a valid coordinate-wise transcript.
    pub fn decode(n: usize, k: usize, board: &Board) -> Decoded {
        let mut speakers = Vec::new();
        let mut msgs = board.messages().iter();
        let mut covered = Vec::new();
        for j in 0..n {
            let mut ones = 0usize;
            loop {
                let Some(msg) = msgs.next() else {
                    panic!("board ended mid-column {j}");
                };
                assert_eq!(msg.speaker, ones, "column speaker order");
                speakers.push(msg.speaker);
                let mut r = BitReader::new(&msg.bits);
                let bit = r.read_bit().expect("empty announcement");
                assert_eq!(r.remaining(), 0, "announcements are one bit");
                if !bit {
                    covered.push(j);
                    break;
                }
                ones += 1;
                if ones == k {
                    // Intersection witnessed at column j.
                    assert!(msgs.next().is_none(), "board continues after halt");
                    return Decoded {
                        speakers,
                        output: false,
                        covered,
                    };
                }
            }
        }
        assert!(msgs.next().is_none(), "board has extra messages");
        Decoded {
            speakers,
            output: true,
            covered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn disj_function_basics() {
        let a = BitSet::from_elements(4, [0, 1]);
        let b = BitSet::from_elements(4, [2, 3]);
        assert!(disj_function(&[a.clone(), b.clone()]));
        let c = BitSet::from_elements(4, [1, 2]);
        assert!(!disj_function(&[a, c]));
    }

    #[test]
    fn both_protocols_agree_with_reference_on_random_instances() {
        let mut r = rng(42);
        for trial in 0..30 {
            let n = 40 + (trial % 5) * 17;
            let k = 2 + trial % 6;
            let inputs = workload::random_sets(n, k, 0.8, &mut r);
            let expect = disj_function(&inputs);
            assert_eq!(naive::run(&inputs).output, expect, "naive trial {trial}");
            assert_eq!(
                batched::run(&inputs).output,
                expect,
                "batched trial {trial}"
            );
        }
    }

    #[test]
    fn zero_error_on_planted_disjoint_and_intersecting() {
        let mut r = rng(7);
        for _ in 0..10 {
            let disjoint = workload::planted_zero_cover(200, 8, 0.05, &mut r);
            assert!(disj_function(&disjoint));
            assert!(naive::run(&disjoint).output);
            assert!(batched::run(&disjoint).output);

            let intersecting = workload::planted_intersection(200, 8, 3, 0.3, &mut r);
            assert!(!disj_function(&intersecting));
            assert!(!naive::run(&intersecting).output);
            assert!(!batched::run(&intersecting).output);
        }
    }

    #[test]
    fn naive_board_is_decodable_without_inputs() {
        let mut r = rng(3);
        for _ in 0..10 {
            let inputs = workload::random_sets(100, 5, 0.7, &mut r);
            let run = naive::run(&inputs);
            let dec = naive::decode(100, 5, &run.board);
            assert_eq!(dec.output, run.output);
            assert_eq!(
                dec.speakers,
                run.board
                    .messages()
                    .iter()
                    .map(|m| m.speaker)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn batched_board_is_decodable_without_inputs() {
        let mut r = rng(5);
        for trial in 0..10 {
            let n = 300 + trial * 50;
            let k = 4;
            let inputs = if trial % 2 == 0 {
                workload::planted_zero_cover(n, k, 0.1, &mut r)
            } else {
                workload::planted_intersection(n, k, 2, 0.4, &mut r)
            };
            let run = batched::run(&inputs);
            let dec = batched::decode(n, k, &run.board);
            assert_eq!(dec.output, run.output, "trial {trial}");
            assert_eq!(
                dec.speakers,
                run.board
                    .messages()
                    .iter()
                    .map(|m| m.speaker)
                    .collect::<Vec<_>>(),
                "trial {trial}"
            );
            assert_eq!(dec.covered.len(), run.coords_written);
        }
    }

    #[test]
    fn batched_uses_fat_cycles_when_n_at_least_k_squared() {
        let mut r = rng(11);
        let n = 400; // k = 4 → k² = 16 ≤ 400
        let inputs = workload::planted_zero_cover(n, 4, 0.0, &mut r);
        let run = batched::run(&inputs);
        assert!(
            run.cycles > 1,
            "expected multiple cycles, got {}",
            run.cycles
        );
        assert!(run.output);
    }

    #[test]
    fn batched_beats_naive_on_disjoint_dense_instances() {
        let mut r = rng(13);
        let n = 2048;
        let k = 8;
        let inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
        let fast = batched::run(&inputs);
        let slow = naive::run(&inputs);
        assert!(
            (fast.bits as f64) < 0.75 * slow.bits as f64,
            "batched {} vs naive {}",
            fast.bits,
            slow.bits
        );
    }

    #[test]
    fn batched_cost_model_matches_exact_run() {
        let mut r = rng(17);
        for trial in 0..6 {
            let n = 256 + trial * 128;
            let k = 3 + trial;
            let inputs = workload::planted_zero_cover(n, k, 0.1, &mut r);
            let exact = batched::run(&inputs);
            let est = batched::cost(&inputs);
            assert_eq!(est.output, exact.output);
            assert_eq!(est.cycles, exact.cycles);
            assert_eq!(est.coords_written, exact.coords_written);
            assert_eq!(est.bits, exact.bits, "trial {trial}");
        }
    }

    #[test]
    fn per_coordinate_cost_respects_theorem_2_bound_in_fat_cycles() {
        let mut r = rng(19);
        let n = 4096;
        for k in [4usize, 8, 16] {
            let inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
            let run = batched::run(&inputs);
            assert!(run.output);
            // Total cost ≤ n·log₂(ek) + (passes ≈ cycles·k) + naive tail.
            let bound = n as f64 * batched::per_coordinate_bound(k)
                + (run.cycles * k) as f64
                + (k * k) as f64 * (2.0 * (k as f64).log2() + 2.0)
                + k as f64;
            assert!(
                (run.bits as f64) <= bound,
                "k={k}: bits {} > bound {bound}",
                run.bits
            );
        }
    }

    #[test]
    fn empty_universe_is_trivially_disjoint() {
        let inputs = vec![BitSet::new(0), BitSet::new(0)];
        let run = batched::run(&inputs);
        assert!(run.output);
        assert_eq!(run.bits, 0);
        assert_eq!(run.cycles, 0);
        let dec = batched::decode(0, 2, &run.board);
        assert!(dec.output);
    }

    #[test]
    fn full_sets_are_reported_non_disjoint() {
        // Everyone holds all of [n]: nobody has a zero to write.
        let inputs = vec![BitSet::full(64); 4];
        assert!(!disj_function(&inputs));
        let run = batched::run(&inputs);
        assert!(!run.output);
        // One all-pass cycle: k bits exactly (n = 64 ≥ k² = 16).
        assert_eq!(run.bits, 4);
        let naive_run = naive::run(&inputs);
        assert!(!naive_run.output);
        assert_eq!(naive_run.bits, 4, "one end-of-turn bit per player");
    }

    #[test]
    fn single_player_disjointness() {
        // k = 1: disjoint iff X₁ = ∅ ... i.e. the complement covers [n].
        let empty = BitSet::new(10);
        let run = batched::run(&[empty]);
        assert!(run.output);
        let full = BitSet::full(10);
        let run = batched::run(&[full]);
        assert!(!run.output);
    }

    #[test]
    fn naive_worst_case_bound_is_respected() {
        let mut r = rng(23);
        let n = 500;
        let k = 6;
        let inputs = workload::random_sets(n, k, 0.3, &mut r);
        let run = naive::run(&inputs);
        assert!(run.bits <= naive::worst_case_bits(n, k));
    }

    #[test]
    fn coordinatewise_agrees_and_decodes() {
        let mut r = rng(31);
        for trial in 0..25 {
            let n = 20 + trial * 13;
            let k = 2 + trial % 6;
            let inputs = workload::random_sets(n, k, 0.6, &mut r);
            let expect = disj_function(&inputs);
            let run = coordinatewise::run(&inputs);
            assert_eq!(run.output, expect, "trial {trial}");
            let dec = coordinatewise::decode(n, k, &run.board);
            assert_eq!(dec.output, expect);
            assert_eq!(
                dec.speakers,
                run.board
                    .messages()
                    .iter()
                    .map(|m| m.speaker)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn coordinatewise_halts_early_on_intersection() {
        // All sets contain coordinate 0: the first column witnesses the
        // intersection in exactly k bits.
        let inputs = vec![BitSet::full(100); 5];
        let run = coordinatewise::run(&inputs);
        assert!(!run.output);
        assert_eq!(run.bits, 5);
    }

    #[test]
    fn coordinatewise_pays_theta_k_per_late_zero() {
        // Planted single zero per coordinate, uniformly placed: expected
        // ≈ (k+1)/2 + 1 bits per column — *linear in k*, versus the batched
        // protocol's log₂(e·k). This is the A4 ablation in miniature.
        let mut r = rng(37);
        let n = 1024;
        let k = 64;
        let inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
        let cw = coordinatewise::run(&inputs);
        assert!(cw.output);
        let per_coord = cw.bits as f64 / n as f64;
        assert!(
            (per_coord - (k as f64 + 1.0) / 2.0).abs() < 2.5,
            "per-coordinate {per_coord}"
        );
        let bt = batched::run(&inputs);
        assert!(
            (bt.bits as f64) < 0.5 * cw.bits as f64,
            "batched {} vs coordinate-wise {}",
            bt.bits,
            cw.bits
        );
    }

    #[test]
    fn broadcast_disj_reproduces_the_naive_transcript() {
        use bci_blackboard::protocol::run as run_protocol;
        let mut r = rng(41);
        for trial in 0..20 {
            let n = 30 + trial * 11;
            let k = 2 + trial % 5;
            let inputs = workload::random_sets(n, k, 0.7, &mut r);
            let reference = naive::run(&inputs);
            let proto = broadcast::BroadcastDisj::new(n, k);
            let exec = run_protocol(&proto, &inputs, &mut r);
            assert_eq!(exec.output, reference.output, "trial {trial}");
            assert_eq!(exec.board, reference.board, "trial {trial}");
            assert_eq!(exec.bits_written, reference.bits);
            assert_eq!(exec.output, disj_function(&inputs));
        }
    }

    #[test]
    fn broadcast_disj_halts_early_on_full_coverage() {
        use bci_blackboard::protocol::run as run_protocol;
        let mut r = rng(43);
        // Player 0 holds the empty set: it covers everything alone and the
        // remaining players never speak.
        let n = 50;
        let mut inputs = workload::random_sets(n, 4, 0.5, &mut r);
        inputs[0] = BitSet::new(n);
        let proto = broadcast::BroadcastDisj::new(n, 4);
        let exec = run_protocol(&proto, &inputs, &mut r);
        assert!(exec.output);
        assert_eq!(exec.board.messages().len(), 1);
    }

    #[test]
    fn batched_small_universe_goes_straight_to_naive_cycle() {
        // n < k²: single naive cycle.
        let mut r = rng(29);
        let inputs = workload::planted_zero_cover(20, 8, 0.0, &mut r);
        let run = batched::run(&inputs);
        assert!(run.output);
        assert_eq!(run.cycles, 1);
        let dec = batched::decode(20, 8, &run.board);
        assert_eq!(dec.output, run.output);
    }
}

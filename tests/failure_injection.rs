//! Failure injection: decoders must *fail loudly or cleanly* — never hang,
//! never return silently-wrong structure — when fed corrupted, truncated or
//! random bit streams.

use std::panic::{catch_unwind, AssertUnwindSafe};

use broadcast_ic::blackboard::board::Board;
use broadcast_ic::encoding::bitio::{BitReader, BitVec};
use broadcast_ic::encoding::combinadic::SubsetCodec;
use broadcast_ic::encoding::huffman::HuffmanCode;
use broadcast_ic::encoding::{elias, unary};
use broadcast_ic::protocols::disj::{batched, naive};
use broadcast_ic::protocols::workload;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> rand_chacha::ChaCha8Rng {
    rand_chacha::ChaCha8Rng::seed_from_u64(seed)
}

/// Runs `f`, swallowing panics (and their default stderr printing).
fn panics<R>(f: impl FnOnce() -> R) -> bool {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(f)).is_err();
    std::panic::set_hook(prev);
    result
}

/// Returns a copy of `board` with one bit of one message flipped.
fn flip_bit(board: &Board, msg_idx: usize, bit_idx: usize) -> Board {
    let mut out = Board::new();
    for (i, m) in board.messages().iter().enumerate() {
        if i == msg_idx && bit_idx < m.bits.len() {
            let mut bits: Vec<bool> = m.bits.iter().collect();
            bits[bit_idx] = !bits[bit_idx];
            out.write(m.speaker, BitVec::from_bools(&bits));
        } else {
            out.write(m.speaker, m.bits.clone());
        }
    }
    out
}

#[test]
fn corrupted_batched_boards_never_hang_or_crash_unsafely() {
    let mut r = rng(1);
    let n = 300;
    let k = 4;
    let inputs = workload::planted_zero_cover(n, k, 0.0, &mut r);
    let run = batched::run(&inputs);
    let msgs = run.board.messages().len();
    let mut clean_decodes = 0u32;
    let mut caught_panics = 0u32;
    for trial in 0..60 {
        let msg_idx = trial % msgs;
        let msg_len = run.board.messages()[msg_idx].bits.len();
        if msg_len == 0 {
            continue;
        }
        let bit_idx = (trial * 7) % msg_len;
        let corrupted = flip_bit(&run.board, msg_idx, bit_idx);
        // Either a clean decode (the flip may land in a spot that still
        // parses — producing a *different* covered set) or a panic with a
        // diagnostic. Both acceptable; hangs and UB are not.
        if panics(|| batched::decode(n, k, &corrupted)) {
            caught_panics += 1;
        } else {
            clean_decodes += 1;
        }
    }
    assert!(caught_panics + clean_decodes > 0);
    // A pass-bit flip always derails parsing somewhere: expect at least
    // some panics.
    assert!(caught_panics > 0, "no corruption was ever detected");
}

#[test]
fn truncated_boards_are_rejected() {
    let mut r = rng(2);
    let n = 200;
    let k = 5;
    let inputs = workload::planted_zero_cover(n, k, 0.2, &mut r);
    for decoder in ["naive", "batched"] {
        let board = match decoder {
            "naive" => naive::run(&inputs).board,
            _ => batched::run(&inputs).board,
        };
        // Drop the last message.
        let mut truncated = Board::new();
        let msgs = board.messages();
        for m in &msgs[..msgs.len() - 1] {
            truncated.write(m.speaker, m.bits.clone());
        }
        let did_panic = panics(|| match decoder {
            "naive" => naive::decode(n, k, &truncated).output,
            _ => batched::decode(n, k, &truncated).output,
        });
        assert!(did_panic, "{decoder}: truncated board must be rejected");
    }
}

#[test]
fn wrong_parameters_are_rejected() {
    let mut r = rng(3);
    let inputs = workload::planted_zero_cover(256, 4, 0.0, &mut r);
    let run = batched::run(&inputs);
    // Decoding with the wrong k or n must fail loudly, not mis-decode.
    assert!(panics(|| batched::decode(256, 5, &run.board)));
    assert!(panics(|| batched::decode(128, 4, &run.board)));
}

#[test]
fn random_bits_never_break_the_codecs() {
    let mut r = rng(4);
    for trial in 0..200 {
        let len = 1 + trial % 120;
        let bits: BitVec = (0..len).map(|_| r.random_bool(0.5)).collect();

        // Elias γ: Some(value) or None, never a panic.
        let ok = panics(|| {
            let mut reader = BitReader::new(&bits);
            while elias::gamma_decode(&mut reader).is_some() {}
        });
        assert!(!ok, "gamma decode panicked on random bits");

        // Unary: terminates (bounded by input length).
        let mut reader = BitReader::new(&bits);
        while unary::decode(&mut reader).is_some() {}

        // Subset codec try_decode: None or a valid sorted subset.
        let codec = SubsetCodec::new(40, 7);
        let mut reader = BitReader::new(&bits);
        if let Some(subset) = codec.try_decode(&mut reader) {
            assert_eq!(subset.len(), 7);
            assert!(subset.windows(2).all(|w| w[0] < w[1]));
            assert!(subset.iter().all(|&e| e < 40));
        }

        // Huffman: every prefix decodes to symbols or cleanly ends.
        let code = HuffmanCode::from_probs(&[0.4, 0.3, 0.2, 0.1]);
        let mut reader = BitReader::new(&bits);
        while let Some(sym) = code.decode(&mut reader) {
            assert!(sym < 4);
            if reader.remaining() == 0 {
                break;
            }
        }
    }
}

#[test]
fn board_with_reordered_speakers_is_rejected() {
    let mut r = rng(5);
    let inputs = workload::planted_zero_cover(300, 4, 0.0, &mut r);
    let run = batched::run(&inputs);
    // Swap the attribution of the first two messages.
    let msgs = run.board.messages();
    let mut swapped = Board::new();
    swapped.write(msgs[1].speaker, msgs[0].bits.clone());
    swapped.write(msgs[0].speaker, msgs[1].bits.clone());
    for m in &msgs[2..] {
        swapped.write(m.speaker, m.bits.clone());
    }
    assert!(panics(|| batched::decode(300, 4, &swapped)));
}

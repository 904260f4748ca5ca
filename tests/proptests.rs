//! Property-based tests (proptest) over the core data structures and
//! invariants: codecs round-trip, information quantities respect their
//! axioms, the factorized information cost agrees with brute force on
//! *random* protocol trees, and the disjointness protocols agree with the
//! reference function on arbitrary inputs.

use broadcast_ic::blackboard::tree::{ProtocolTree, TreeBuilder};
use broadcast_ic::encoding::bitio::{BitReader, BitVec, BitWriter};
use broadcast_ic::encoding::bitset::BitSet;
use broadcast_ic::encoding::combinadic::SubsetCodec;
use broadcast_ic::encoding::elias;
use broadcast_ic::info::dist::Dist;
use broadcast_ic::info::divergence::{kl, total_variation};
use broadcast_ic::info::joint::Joint2;
use broadcast_ic::protocols::disj::{batched, disj_function, naive};
use proptest::prelude::*;

// ---------------------------------------------------------------- encoding

proptest! {
    #[test]
    fn bitio_round_trips_any_bool_sequence(bits in prop::collection::vec(any::<bool>(), 0..300)) {
        let v = BitVec::from_bools(&bits);
        prop_assert_eq!(v.len(), bits.len());
        prop_assert_eq!(v.iter().collect::<Vec<_>>(), bits);
    }

    #[test]
    fn write_read_round_trips_any_values(vals in prop::collection::vec((any::<u64>(), 1u32..=64), 1..40)) {
        let mut w = BitWriter::new();
        for &(v, width) in &vals {
            let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            w.write_bits(masked, width);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for &(v, width) in &vals {
            let masked = if width == 64 { v } else { v & ((1u64 << width) - 1) };
            prop_assert_eq!(r.read_bits(width), Some(masked));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn elias_gamma_round_trip(vals in prop::collection::vec(1u64..=u64::MAX, 1..50)) {
        let mut w = BitWriter::new();
        for &v in &vals {
            elias::gamma_encode(v, &mut w);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for &v in &vals {
            prop_assert_eq!(elias::gamma_decode(&mut r), Some(v));
        }
    }

    #[test]
    fn combinadic_round_trips_random_subsets(
        (z, elems) in (2u64..200).prop_flat_map(|z| {
            (Just(z), prop::collection::btree_set(0..z, 0..=(z as usize).min(24)))
        })
    ) {
        let subset: Vec<u64> = elems.into_iter().collect();
        let codec = SubsetCodec::new(z, subset.len() as u64);
        let mut w = BitWriter::new();
        codec.encode(&subset, &mut w);
        let bits = w.into_bits();
        prop_assert_eq!(bits.len(), codec.code_len_bits() as usize);
        let mut r = BitReader::new(&bits);
        prop_assert_eq!(codec.decode(&mut r), subset);
    }

    #[test]
    fn bitset_algebra_laws(
        a in prop::collection::btree_set(0usize..128, 0..40),
        b in prop::collection::btree_set(0usize..128, 0..40),
    ) {
        let sa = BitSet::from_elements(128, a.iter().copied());
        let sb = BitSet::from_elements(128, b.iter().copied());
        // |A| + |B| = |A∪B| + |A∩B|
        prop_assert_eq!(
            sa.len() + sb.len(),
            sa.union(&sb).len() + sa.intersection(&sb).len()
        );
        // De Morgan
        prop_assert_eq!(
            sa.union(&sb).complement(),
            sa.complement().intersection(&sb.complement())
        );
        // Difference
        prop_assert_eq!(sa.difference(&sb), sa.intersection(&sb.complement()));
    }
}

proptest! {
    #[test]
    fn biguint_arithmetic_matches_u128_reference(
        a in 0u128..=u128::MAX / 2,
        m in 1u64..=u64::MAX,
        d in 1u64..1_000_000,
    ) {
        use broadcast_ic::encoding::bignum::BigUint;
        let mut x = BigUint::from(a);
        // add
        x.add_assign(&BigUint::from(a));
        prop_assert_eq!(x.to_decimal(), (a + a).to_string());
        // sub back
        x.sub_assign(&BigUint::from(a));
        prop_assert_eq!(x.to_decimal(), a.to_string());
        // mul by u64 then exact div back
        if let Some(prod) = a.checked_mul(u128::from(m)) {
            let mut y = BigUint::from(a);
            y.mul_assign_u64(m);
            prop_assert_eq!(y.to_decimal(), prod.to_string());
        }
        // div with remainder against the reference
        let mut z = BigUint::from(a);
        let rem = z.div_assign_u64(d);
        prop_assert_eq!(z.to_decimal(), (a / u128::from(d)).to_string());
        prop_assert_eq!(u128::from(rem), a % u128::from(d));
    }

    #[test]
    fn arithmetic_coder_round_trips_random_streams(
        (weights, symbols) in (2usize..12).prop_flat_map(|n| (
            prop::collection::vec(0.01f64..1.0, n),
            prop::collection::vec(any::<prop::sample::Index>(), 0..200),
        ))
    ) {
        use broadcast_ic::encoding::arithmetic::{
            decode_sequence, encode_sequence, ArithmeticModel,
        };
        let model = ArithmeticModel::from_probs(&weights);
        let syms: Vec<usize> = symbols.iter().map(|i| i.index(weights.len())).collect();
        let bits = encode_sequence(&model, &syms);
        prop_assert_eq!(decode_sequence(&model, &bits, syms.len()), syms);
    }

    #[test]
    fn board_bytes_round_trip_random_boards(
        msgs in prop::collection::vec(
            (0usize..16, prop::collection::vec(any::<bool>(), 0..50)),
            0..12,
        )
    ) {
        use broadcast_ic::blackboard::board::Board;
        let mut b = Board::new();
        for (speaker, bits) in &msgs {
            b.write(*speaker, BitVec::from_bools(bits));
        }
        let parsed = Board::from_bytes(&b.to_bytes()).expect("round trip");
        prop_assert_eq!(parsed, b);
    }
}

// ------------------------------------------------------------ information

fn arb_dist(n: usize) -> impl Strategy<Value = Dist> {
    prop::collection::vec(1e-6f64..1.0, n)
        .prop_map(|w| Dist::from_weights(w).expect("positive weights"))
}

proptest! {
    #[test]
    fn entropy_bounds(d in (2usize..12).prop_flat_map(arb_dist)) {
        let h = d.entropy();
        prop_assert!(h >= 0.0);
        prop_assert!(h <= (d.len() as f64).log2() + 1e-9);
    }

    #[test]
    fn kl_nonnegative_and_zero_on_self(
        (p, q) in (2usize..10).prop_flat_map(|n| (arb_dist(n), arb_dist(n)))
    ) {
        prop_assert!(kl(&p, &q) >= 0.0);
        prop_assert!(kl(&p, &p).abs() < 1e-9);
        // Pinsker: D ≥ (2/ln 2)·TV²  i.e. D·ln2/2 ≥ TV².
        let tv = total_variation(&p, &q);
        prop_assert!(kl(&p, &q) >= 2.0 * tv * tv / std::f64::consts::LN_2 - 1e-9);
    }

    #[test]
    fn mutual_information_axioms(
        rows in prop::collection::vec(prop::collection::vec(1e-6f64..1.0, 3), 3)
    ) {
        let total: f64 = rows.iter().flatten().sum();
        let normalized: Vec<Vec<f64>> =
            rows.iter().map(|r| r.iter().map(|x| x / total).collect()).collect();
        let j = Joint2::new(normalized).expect("normalized");
        let mi = j.mutual_information();
        prop_assert!(mi >= 0.0);
        prop_assert!(mi <= j.marginal_x().entropy() + 1e-9);
        prop_assert!(mi <= j.marginal_y().entropy() + 1e-9);
    }
}

// ---------------------------------------------- Huffman and alias sampling

proptest! {
    #[test]
    fn huffman_is_in_shannon_window_for_random_distributions(
        weights in prop::collection::vec(0.01f64..1.0, 2..40)
    ) {
        use broadcast_ic::encoding::huffman::HuffmanCode;
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let code = HuffmanCode::from_probs(&probs);
        let mean = code.expected_len(&probs);
        let h: f64 = probs.iter().map(|&p| -p * p.log2()).sum();
        prop_assert!(mean >= h - 1e-9, "{} < {}", mean, h);
        prop_assert!(mean < h + 1.0, "{} >= {}", mean, h + 1.0);
    }

    #[test]
    fn huffman_streams_round_trip(
        weights in prop::collection::vec(0.01f64..1.0, 2..20),
        symbols in prop::collection::vec(any::<prop::sample::Index>(), 1..60),
    ) {
        use broadcast_ic::encoding::huffman::HuffmanCode;
        let total: f64 = weights.iter().sum();
        let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
        let code = HuffmanCode::from_probs(&probs);
        let syms: Vec<usize> = symbols.iter().map(|i| i.index(probs.len())).collect();
        let mut w = BitWriter::new();
        for &s in &syms {
            code.encode(s, &mut w);
        }
        let bits = w.into_bits();
        let mut r = BitReader::new(&bits);
        for &s in &syms {
            prop_assert_eq!(code.decode(&mut r), Some(s));
        }
        prop_assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn alias_sampler_only_emits_support(
        weights in prop::collection::vec(0.0f64..1.0, 2..30),
        seed in any::<u64>(),
    ) {
        use broadcast_ic::info::sampling::AliasSampler;
        use rand::SeedableRng;
        prop_assume!(weights.iter().sum::<f64>() > 0.0);
        let d = Dist::from_weights(weights.clone()).unwrap();
        let sampler = AliasSampler::new(&d);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..200 {
            let x = sampler.sample(&mut rng);
            prop_assert!(x < d.len());
            prop_assert!(d.prob(x) > 0.0, "sampled zero-probability outcome {}", x);
        }
    }
}

// -------------------------------------------------- random protocol trees

/// Builds a random depth-3 protocol tree on `k ≤ 4` players with random
/// speakers and random binary-message probabilities.
fn arb_tree() -> impl Strategy<Value = (ProtocolTree, Vec<f64>)> {
    let probs = prop::collection::vec((0.01f64..0.99, 0.01f64..0.99), 7);
    let speakers = prop::collection::vec(0usize..3, 7);
    let priors = prop::collection::vec(0.05f64..0.95, 3);
    (probs, speakers, priors).prop_map(|(probs, speakers, priors)| {
        let k = 3;
        let mut b = TreeBuilder::new(k);
        // Complete binary tree of depth 3: nodes 0..7 internal, 8 leaves.
        let mut level: Vec<usize> = (0..8).map(|i| b.leaf(i % 2)).collect();
        let mut idx = 0;
        while level.len() > 1 {
            let mut next = Vec::new();
            for pair in level.chunks(2) {
                let (p0, p1) = probs[idx];
                let node = b.internal(
                    speakers[idx] % k,
                    vec![
                        (BitVec::from_bools(&[false]), [p0, p1], pair[0]),
                        (BitVec::from_bools(&[true]), [1.0 - p0, 1.0 - p1], pair[1]),
                    ],
                );
                idx += 1;
                next.push(node);
            }
            level = next;
        }
        (b.finish(level[0]), priors)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn factorized_ic_equals_bruteforce_on_random_trees((tree, priors) in arb_tree()) {
        let fast = tree.information_cost_product(&priors);
        let slow = tree.information_cost_bruteforce(&priors);
        prop_assert!((fast - slow).abs() < 1e-9, "{} vs {}", fast, slow);
    }

    #[test]
    fn transcript_distributions_normalize_on_random_trees((tree, _) in arb_tree()) {
        for xi in 0..8u32 {
            let x: Vec<bool> = (0..3).map(|i| (xi >> i) & 1 == 1).collect();
            let sum: f64 = tree.transcript_dist_given_input(&x).iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn ic_bounded_by_expected_communication((tree, priors) in arb_tree()) {
        // I(Π; X) ≤ H(Π) ≤ E[|Π|] for prefix-free transcripts... the tree's
        // labels are one bit per level, so E[bits] bounds the entropy.
        let ic = tree.information_cost_product(&priors);
        let ebits: f64 = tree
            .leaves()
            .iter()
            .map(|l| l.prob_under_product(&priors) * l.path_bits as f64)
            .sum();
        prop_assert!(ic <= ebits + 1e-9, "{} > {}", ic, ebits);
    }
}

// ----------------------------------------------------- sampling protocol

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lemma7_exchange_always_agrees_on_random_pairs(
        (eta_w, nu_w, seed) in (2usize..24).prop_flat_map(|n| (
            prop::collection::vec(0.01f64..1.0, n),
            prop::collection::vec(0.01f64..1.0, n),
            any::<u64>(),
        ))
    ) {
        use broadcast_ic::compression::sampling::{exchange, SamplerConfig};
        let eta = Dist::from_weights(eta_w).unwrap();
        let nu = Dist::from_weights(nu_w).unwrap();
        let e = exchange(&eta, &nu, &SamplerConfig::default(), seed);
        if !e.truncated {
            prop_assert_eq!(e.sender_sample, e.receiver_sample);
        }
        prop_assert!(e.sender_sample < eta.len());
        prop_assert!(eta.prob(e.sender_sample) > 0.0);
    }
}

// ---------------------------------------------------------- disjointness

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn disj_protocols_agree_on_arbitrary_inputs(
        (n, sets) in (1usize..120).prop_flat_map(|n| {
            (Just(n), prop::collection::vec(
                prop::collection::btree_set(0..n, 0..=n), 1..6))
        })
    ) {
        let inputs: Vec<BitSet> = sets
            .iter()
            .map(|s| BitSet::from_elements(n, s.iter().copied()))
            .collect();
        let expect = disj_function(&inputs);
        let nv = naive::run(&inputs);
        let bt = batched::run(&inputs);
        prop_assert_eq!(nv.output, expect);
        prop_assert_eq!(bt.output, expect);
        // Boards decode without inputs.
        prop_assert_eq!(naive::decode(n, inputs.len(), &nv.board).output, expect);
        prop_assert_eq!(batched::decode(n, inputs.len(), &bt.board).output, expect);
        // Cost model bit-identical.
        prop_assert_eq!(batched::cost(&inputs).bits, bt.bits);
    }
}

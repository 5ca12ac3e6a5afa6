//! Property tests on the word/transition/noise foundations.

use proptest::prelude::*;
use socbus_model::{
    bus_delay_factor, ln_q, q, q_inv, transition_energy_coeff, word_transition_energy, Transition,
    TransitionVector, Word,
};

fn word_strategy(width: usize) -> impl Strategy<Value = Word> {
    prop::collection::vec(any::<bool>(), width).prop_map(|bits| Word::from_bools(&bits))
}

proptest! {
    #[test]
    fn xor_is_associative_commutative_and_self_inverse(
        a in word_strategy(96),
        b in word_strategy(96),
        c in word_strategy(96),
    ) {
        prop_assert_eq!(a.xor(b), b.xor(a));
        prop_assert_eq!(a.xor(b).xor(c), a.xor(b.xor(c)));
        prop_assert_eq!(a.xor(a), Word::zero(96));
        prop_assert_eq!(a.xor(Word::zero(96)), a);
    }

    #[test]
    fn not_is_involutive_and_flips_everything(a in word_strategy(150)) {
        prop_assert_eq!(a.not().not(), a);
        prop_assert_eq!(a.not().count_ones() + a.count_ones(), 150);
    }

    #[test]
    fn concat_slice_roundtrip(a in word_strategy(70), b in word_strategy(90)) {
        let c = a.concat(b);
        prop_assert_eq!(c.width(), 160);
        prop_assert_eq!(c.slice(0, 70), a);
        prop_assert_eq!(c.slice(70, 90), b);
        prop_assert_eq!(c.count_ones(), a.count_ones() + b.count_ones());
    }

    #[test]
    fn hamming_distance_is_a_metric(
        a in word_strategy(64),
        b in word_strategy(64),
        c in word_strategy(64),
    ) {
        prop_assert_eq!(a.hamming_distance(b), b.hamming_distance(a));
        prop_assert_eq!(a.hamming_distance(a), 0);
        prop_assert!(a.hamming_distance(c) <= a.hamming_distance(b) + b.hamming_distance(c));
    }

    #[test]
    fn transition_vector_is_consistent_with_words(
        a in word_strategy(24),
        b in word_strategy(24),
    ) {
        let tv = TransitionVector::between(a, b);
        prop_assert_eq!(tv.switching_count() as u32, a.hamming_distance(b));
        for i in 0..24 {
            let t = tv.get(i);
            prop_assert_eq!(t.is_switching(), a.bit(i) != b.bit(i));
            if t == Transition::Rise {
                prop_assert!(!a.bit(i) && b.bit(i));
            }
        }
    }

    #[test]
    fn delay_factor_bounded_by_worst_class(
        a in word_strategy(10),
        b in word_strategy(10),
        lambda in 0.5f64..5.0,
    ) {
        let tv = TransitionVector::between(a, b);
        let f = bus_delay_factor(&tv, lambda);
        prop_assert!(f <= 1.0 + 4.0 * lambda + 1e-9);
        prop_assert!(f >= 0.0);
        // An idle bus has zero delay demand.
        if a == b {
            prop_assert_eq!(f, 0.0);
        }
    }

    #[test]
    fn energy_coeff_is_nonnegative_and_symmetric_under_complement(
        a in word_strategy(16),
        b in word_strategy(16),
    ) {
        let e = transition_energy_coeff(&TransitionVector::between(a, b));
        prop_assert!(e.self_coeff >= 0.0 && e.coupling_coeff >= 0.0);
        // Complementing both endpoints mirrors every transition: same energy.
        let ec = transition_energy_coeff(&TransitionVector::between(a.not(), b.not()));
        prop_assert!((e.self_coeff - ec.self_coeff).abs() < 1e-12);
        prop_assert!((e.coupling_coeff - ec.coupling_coeff).abs() < 1e-12);
    }

    #[test]
    fn q_is_monotone_decreasing(x in -6.0f64..12.0, dx in 0.01f64..2.0) {
        prop_assert!(q(x + dx) < q(x));
    }

    #[test]
    fn q_inv_roundtrips_over_the_design_range(exp in -21.0f64..-0.4) {
        let p = 10f64.powf(exp);
        let x = q_inv(p);
        let back = ln_q(x).exp();
        prop_assert!((back - p).abs() / p < 1e-6, "p={p} back={back}");
    }
}

/// `word_transition_energy` counts with popcounts; it must equal the
/// per-wire quadratic form bit for bit (`f64::to_bits`, so the `-0.0`
/// of an empty sum counts too) at every width a word can have,
/// including across limb boundaries.
#[test]
fn word_energy_equals_the_quadratic_form_at_every_width() {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for width in 0..=socbus_model::word::MAX_WIDTH {
        let alternating = Word::from_limbs([0x5555_5555_5555_5555; 4], width);
        let mut pairs = vec![
            (Word::zero(width), Word::zero(width)),
            (Word::zero(width), Word::zero(width).not()),
            (alternating, alternating.not()),
            (alternating.not(), alternating),
        ];
        for _ in 0..64 {
            let a = Word::from_limbs([next(), next(), next(), next()], width);
            // Sparse and dense flip masks both occur.
            let flips = Word::from_limbs([next() & next(), next(), next() | next(), next()], width);
            pairs.push((a, a.xor(flips)));
        }
        for (before, after) in pairs {
            let fast = word_transition_energy(before, after);
            let reference = transition_energy_coeff(&TransitionVector::between(before, after));
            assert_eq!(
                (fast.self_coeff.to_bits(), fast.coupling_coeff.to_bits()),
                (
                    reference.self_coeff.to_bits(),
                    reference.coupling_coeff.to_bits()
                ),
                "width {width}: {before:?} -> {after:?}: {fast:?} vs {reference:?}"
            );
        }
    }
}

//! Properties of the paper's joint codes, table-driven over
//! [`Scheme::build`]: roundtrips along data sequences, exhaustive
//! single-error correction in every codec state, the crosstalk class of
//! every transition, minimum distance, the delay-masking side wires of
//! DAPX and HammingX, BSC's phase, and the activity and energy savings of
//! the bus-invert codes. (Tables II/III wire counts are pinned in the
//! catalog's own tests, the bit-exact behaviour in `joint_golden.rs`.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socbus_codes::{BusCode, DecodeStatus, Hamming, Scheme};
use socbus_model::{
    bus_delay_factor, wire_delay_factor, word_transition_energy, DelayClass, TransitionVector, Word,
};

const JOINT: [Scheme; 7] = [
    Scheme::Dap,
    Scheme::Dapx,
    Scheme::Dapbi,
    Scheme::Bih,
    Scheme::HammingX,
    Scheme::FtcHc,
    Scheme::Bsc,
];

fn flip(w: Word, i: usize) -> Word {
    w.with_bit(i, !w.bit(i))
}

/// Encodes `data` in order from a fresh encoder.
fn encode_all(scheme: Scheme, k: usize, data: &[Word]) -> Vec<Word> {
    let mut enc = scheme.build(k);
    data.iter().map(|&d| enc.encode(d)).collect()
}

#[test]
fn joint_codes_roundtrip_clean_along_sequences() {
    let mut rng = StdRng::seed_from_u64(11);
    for scheme in JOINT {
        for k in [1, 4, 5, 8, 16, 32] {
            let data: Vec<Word> = (0..300)
                .map(|_| Word::from_bits(rng.gen::<u128>(), k))
                .collect();
            let mut dec = scheme.build(k);
            for (&d, cw) in data.iter().zip(encode_all(scheme, k, &data)) {
                assert_eq!(
                    dec.decode_checked(cw),
                    (d, DecodeStatus::Clean),
                    "{} k={k}",
                    scheme.name()
                );
            }
        }
    }
}

/// Every single-wire error on every codeword of every 4-bit data word is
/// corrected, in both phases of the stateful codes: the exhaustive data
/// sequence runs twice, shifted by one word, and each error is decoded
/// against a snapshot of the stream decoder.
#[test]
fn every_single_error_is_corrected_in_every_state() {
    let k = 4;
    let all: Vec<Word> = Word::enumerate_all(k).collect();
    let data: Vec<Word> = all.iter().chain([&all[5]]).chain(&all).copied().collect();
    for scheme in JOINT {
        let mut dec = scheme.build(k);
        for (&d, cw) in data.iter().zip(encode_all(scheme, k, &data)) {
            for i in 0..cw.width() {
                let (got, status) = dec.clone_box().decode_checked(flip(cw, i));
                assert_eq!(got, d, "{} flip {i} of {cw}", scheme.name());
                assert_ne!(status, DecodeStatus::Detected, "{}", scheme.name());
            }
            let _ = dec.decode(cw);
        }
    }
}

/// The CAC-class joint codes keep every bus transition at `(1 + 2λ)τ0`:
/// exhaustively over all data pairs from a fresh encoder and from one a
/// word further on (BSC's other phase, a non-zero bus-invert history),
/// and along a random sequence.
#[test]
fn cac_class_codes_keep_every_transition_in_the_cac_class() {
    let k = 4;
    let mut rng = StdRng::seed_from_u64(31);
    let random: Vec<Word> = (0..2000)
        .map(|_| Word::from_bits(rng.gen::<u128>(), k))
        .collect();
    for scheme in JOINT {
        if scheme.build(k).guaranteed_delay_class() != DelayClass::CAC {
            continue;
        }
        for lambda in [1.1, 2.8] {
            let limit = DelayClass::CAC.factor(lambda) + 1e-12;
            let mut sequences: Vec<Vec<Word>> = vec![random.clone()];
            for prefix in [vec![], vec![Word::from_bits(0b0110, k)]] {
                for b in Word::enumerate_all(k) {
                    for a in Word::enumerate_all(k) {
                        let mut seq = prefix.clone();
                        seq.extend([b, a]);
                        sequences.push(seq);
                    }
                }
            }
            for seq in sequences {
                let coded = encode_all(scheme, k, &seq);
                for pair in coded.windows(2) {
                    let f = bus_delay_factor(&TransitionVector::between(pair[0], pair[1]), lambda);
                    assert!(f <= limit, "{} factor {f} at λ={lambda}", scheme.name());
                }
            }
        }
    }
}

#[test]
fn joint_codes_have_minimum_distance_at_least_three() {
    let k = 4;
    for scheme in JOINT {
        let mut min = u32::MAX;
        for a in Word::enumerate_all(k) {
            for b in Word::enumerate_all(k) {
                if a != b {
                    let ca = scheme.build(k).encode(a);
                    let cb = scheme.build(k).encode(b);
                    min = min.min(ca.hamming_distance(cb));
                }
            }
        }
        // DAPX's second parity copy adds one.
        let expect = if scheme == Scheme::Dapx { 4 } else { 3 };
        assert_eq!(min, expect, "{}", scheme.name());
    }
}

/// The wires of `scheme` at `k` that no codeword ever drives: its shields.
fn quiet_wires(scheme: Scheme, k: usize) -> Vec<usize> {
    let mut code = scheme.build(k);
    let driven = Word::enumerate_all(k).fold(Word::zero(code.wires()), |acc, d| {
        let cw = code.encode(d);
        (0..cw.width()).fold(acc, |acc, i| acc.with_bit(i, acc.bit(i) || cw.bit(i)))
    });
    (0..driven.width()).filter(|&i| !driven.bit(i)).collect()
}

/// DAPX's duplicated parity pair switches in common mode at the bus
/// edge, so the outer copy flies at `(1 + λ)τ0` — the slack that hides
/// the parity encoder (paper §III-E).
#[test]
fn dapx_outer_parity_wire_flies_at_most_1_plus_lambda() {
    let k = 3;
    let lambda = 2.8;
    let outer = Scheme::Dapx.build(k).wires() - 1;
    for b in Word::enumerate_all(k) {
        for a in Word::enumerate_all(k) {
            let coded = encode_all(Scheme::Dapx, k, &[b, a]);
            let tv = TransitionVector::between(coded[0], coded[1]);
            let f = wire_delay_factor(&tv, outer, lambda);
            assert!(
                f <= DelayClass::DUPLICATED_EDGE.factor(lambda) + 1e-12,
                "{f}"
            );
        }
    }
}

/// HammingX: shields stay grounded, stripping them leaves the Hamming
/// codeword, and the half-shielded parity wires fly at `(1 + 3λ)τ0`.
#[test]
fn hammingx_is_hamming_with_half_shielded_parity() {
    let lambda = 2.8;
    for (k, shields) in [(4, vec![5]), (8, vec![9, 12]), (32, vec![33, 36, 39])] {
        if k <= 8 {
            assert_eq!(quiet_wires(Scheme::HammingX, k), shields);
        }
        let mut hx = Scheme::HammingX.build(k);
        let mut h = Hamming::new(k);
        let mut rng = StdRng::seed_from_u64(k as u64);
        for _ in 0..256 {
            let d = Word::from_bits(rng.gen::<u128>(), k);
            let cx = hx.encode(d);
            let stripped: Vec<bool> = (0..cx.width())
                .filter(|i| !shields.contains(i))
                .map(|i| cx.bit(i))
                .collect();
            assert_eq!(Word::from_bools(&stripped), h.encode(d), "k={k}");
            for &s in &shields {
                assert!(!cx.bit(s), "k={k}: shield {s} driven");
                // A shield flip is invisible to the decoder.
                assert_eq!(hx.decode_checked(flip(cx, s)), (d, DecodeStatus::Clean));
            }
        }
    }
    let k = 4;
    let parity = [4, 6, 7];
    for b in Word::enumerate_all(k) {
        for a in Word::enumerate_all(k) {
            let coded = encode_all(Scheme::HammingX, k, &[b, a]);
            let tv = TransitionVector::between(coded[0], coded[1]);
            for w in parity {
                let f = wire_delay_factor(&tv, w, lambda);
                assert!(
                    f <= DelayClass::new(3).factor(lambda) + 1e-12,
                    "wire {w}: {f}"
                );
            }
        }
    }
}

/// BSC is DAP on even words and DAP rotated one wire on odd words; a
/// reset returns encoder and decoder to the even phase.
#[test]
fn bsc_alternates_phase_and_reset_restores_it() {
    let k = 3;
    let d = Word::from_bits(0b101, k);
    let dap = Scheme::Dap.build(k).encode(d);
    let n = dap.width();
    let rotated = Word::from_bools(&(0..n).map(|i| dap.bit((i + n - 1) % n)).collect::<Vec<_>>());
    let mut enc = Scheme::Bsc.build(k);
    let mut dec = Scheme::Bsc.build(k);
    assert_eq!(enc.encode(d), dap);
    assert_eq!(enc.encode(d), rotated);
    assert_eq!(enc.encode(d), dap);
    assert_eq!(dec.decode(dap), d);
    enc.reset();
    dec.reset();
    assert_eq!(enc.encode(d), dap);
    assert_eq!(dec.decode(dap), d);
    assert_eq!(dec.decode(rotated), d);
}

/// Total switching activity (or bus energy) of `scheme` over `data`.
fn bus_cost(scheme: Scheme, k: usize, data: &[Word], cost: impl Fn(Word, Word) -> f64) -> f64 {
    let mut enc = scheme.build(k);
    let mut prev = Word::zero(enc.wires());
    data.iter()
        .map(|&d| {
            let cw = enc.encode(d);
            let c = cost(prev, cw);
            prev = cw;
            c
        })
        .sum()
}

/// Bus-invert pays for its invert wire: BIH toggles fewer wires than
/// Hamming, and DAPBI spends less bus energy than DAP (Table II: 1.81 +
/// 1.75λ against 2.25 + 2.00λ), both on uniform random data.
#[test]
fn bus_invert_codes_cut_activity_and_energy() {
    let mut rng = StdRng::seed_from_u64(17);
    let data: Vec<Word> = (0..4000)
        .map(|_| Word::from_bits(rng.gen::<u128>(), 16))
        .collect();
    let toggles = |a: Word, b: Word| f64::from(a.hamming_distance(b));
    let bih = bus_cost(Scheme::Bih, 16, &data, toggles);
    let hamming = bus_cost(Scheme::Hamming, 16, &data, toggles);
    assert!(bih < hamming, "BIH toggles {bih} vs Hamming {hamming}");

    let data: Vec<Word> = (0..20000)
        .map(|_| Word::from_bits(rng.gen::<u128>(), 4))
        .collect();
    let energy = |a: Word, b: Word| word_transition_energy(a, b).total(2.8);
    let dapbi = bus_cost(Scheme::Dapbi, 4, &data, energy);
    let dap = bus_cost(Scheme::Dap, 4, &data, energy);
    assert!(dapbi < dap, "DAPBI energy {dapbi} vs DAP {dap}");
}

/// BIH's parallel parity (paper §III-B): parities computed on the
/// uninverted data with a 0 invert bit, then flipped where the parity's
/// coverage (invert wire included) is odd, equal the parities of the
/// inverted data with a 1 invert bit — the netlist's XOR trick.
#[test]
fn bih_parallel_parity_xor_trick_is_sound() {
    let k = 6;
    let mut hamming = Hamming::new(k + 1);
    let m = hamming.parity_bits();
    for d in Word::enumerate_all(k) {
        let base = hamming.encode(d.concat(Word::from_bools(&[false])));
        let serial = hamming.encode(d.not().concat(Word::from_bools(&[true])));
        for j in 0..m {
            let odd = hamming.parity_coverage(j).len() % 2 == 1;
            assert_eq!(base.bit(k + 1 + j) ^ odd, serial.bit(k + 1 + j), "{d} p{j}");
        }
    }
}

/// DAPBI's parallel parity: for even `k`, the parity over the inverted
/// data plus the invert bit equals `parity(data) ⊕ inv`.
#[test]
fn dapbi_parallel_parity_identity_for_even_k() {
    for d in Word::enumerate_all(4) {
        for inv in [false, true] {
            let y = if inv { d.not() } else { d };
            let direct = (y.count_ones() % 2 == 1) ^ inv;
            let parallel = (d.count_ones() % 2 == 1) ^ inv;
            assert_eq!(direct, parallel, "d={d} inv={inv}");
        }
    }
}

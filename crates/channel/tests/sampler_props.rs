//! Flip-sampler verification suite.
//!
//! Every i.i.d. flip in the Monte-Carlo and rare-event engines comes
//! from [`FlipSampler`], so this suite pins what the estimators rely on:
//!
//! 1. **Exactness** — each lane is the scalar test `gen::<f64>() < ε`,
//!    lane by lane on scripted inputs, with marginal
//!    `ceil(ε·2^53)/2^53` and independent lanes on real draws.
//! 2. **Cost** — a deterministic draw count (≤ 9 RNG words per wire per
//!    64-word block), so a regression to per-wire draws fails on any
//!    machine; none at all at ε ∈ {0, 1}.
//! 3. **One stream** — [`BitFlipChannel::transmit`] and
//!    [`BitFlipChannel::corrupt_block`] consume identical flips across
//!    block boundaries, and partial blocks keep lanes ≥ `len` clear.
//! 4. **Oracle** — plain Monte-Carlo lands on the exhaustive-enumeration
//!    WER of every ≤ 12-wire catalog scheme.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use socbus_channel::montecarlo::word_error_rate_parallel;
use socbus_channel::rare::{failure_profile, oracle_catalog};
use socbus_channel::{BitFlipChannel, FlipSampler};
use socbus_codes::{WordBlock, BLOCK_WORDS};
use socbus_model::Word;

const UNIT: f64 = (1u64 << 53) as f64;

/// An RNG wrapper counting the 64-bit words drawn through it.
struct Counting<R> {
    inner: R,
    draws: u64,
}

impl<R: RngCore> RngCore for Counting<R> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// Serves the bit planes of 64 given 53-bit integers, most significant
/// bit first: draw `d` carries bit `52 − d` of value `j` in lane `j`.
struct Scripted {
    values: [u64; 64],
    bit: u32,
}

impl RngCore for Scripted {
    fn next_u64(&mut self) -> u64 {
        self.bit -= 1;
        let b = self.bit;
        self.values
            .iter()
            .enumerate()
            .fold(0, |acc, (j, &u)| acc | ((u >> b) & 1) << j)
    }
}

#[test]
fn plane_is_the_scalar_comparison_lane_by_lane() {
    let mut rng = StdRng::seed_from_u64(1);
    for eps in [1.0 / UNIT, 1e-3, 0.3, 0.5, 1.0 - 1.0 / UNIT, 0.75, 2e-2] {
        let t = FlipSampler::new(eps).threshold();
        for _ in 0..200 {
            // Values straddling the threshold as well as uniform ones.
            let values: [u64; 64] = std::array::from_fn(|j| {
                let u = rng.gen::<u64>() >> 11;
                match j % 4 {
                    0 => t.saturating_sub(1 + (u & 3)),
                    1 => (t + (u & 3)).min((1 << 53) - 1),
                    _ => u,
                }
            });
            let mut script = Scripted { values, bit: 53 };
            let plane = FlipSampler::new(eps).plane(&mut script);
            for (j, &u) in values.iter().enumerate() {
                // The scalar test: `(x >> 11) as f64 * 2^-53 < eps`.
                let scalar = (u as f64) * (1.0 / UNIT) < eps;
                assert_eq!(plane >> j & 1 == 1, scalar, "eps {eps}, U {u}");
            }
        }
    }
}

#[test]
fn marginal_is_ceil_eps_2_53_with_independent_lanes() {
    let planes_per_eps = 20_000u64;
    for (eps, t) in [
        (1.0 / UNIT, 1u64),
        (1e-3, (1e-3 * UNIT).ceil() as u64),
        (0.3, (0.3 * UNIT).ceil() as u64),
        (0.5, 1 << 52),
        (1.0 - 1.0 / UNIT, (1 << 53) - 1),
    ] {
        let sampler = FlipSampler::new(eps);
        assert_eq!(sampler.threshold(), t, "eps {eps}");
        let p = t as f64 / UNIT;
        let mut rng = StdRng::seed_from_u64(t);
        let mut per_lane = [0u64; 64];
        let mut adjacent = [0u64; 63];
        let mut successive = 0u64;
        let mut prev = 0u64;
        for _ in 0..planes_per_eps {
            let plane = sampler.plane(&mut rng);
            for (j, c) in per_lane.iter_mut().enumerate() {
                *c += plane >> j & 1;
            }
            for (j, c) in adjacent.iter_mut().enumerate() {
                *c += plane >> j & plane >> (j + 1) & 1;
            }
            successive += u64::from((plane & prev).count_ones());
            prev = plane;
        }
        // Binomial bounds at 5 standard deviations (plus one count for
        // the near-degenerate ends).
        let bound = |n: f64, q: f64| 5.0 * (n * q * (1.0 - q)).sqrt() + 1.0;
        let n = planes_per_eps as f64;
        let total: u64 = per_lane.iter().sum();
        assert!(
            (total as f64 - 64.0 * n * p).abs() <= bound(64.0 * n, p),
            "eps {eps}: {total} flips in {} lanes",
            64.0 * n
        );
        for (j, &c) in per_lane.iter().enumerate() {
            assert!(
                (c as f64 - n * p).abs() <= bound(n, p),
                "eps {eps} lane {j}: {c}"
            );
        }
        // Pairwise independence: neighbouring lanes of one plane, and the
        // same lane of successive planes, co-flip at rate p².
        for (j, &c) in adjacent.iter().enumerate() {
            assert!(
                (c as f64 - n * p * p).abs() <= bound(n, p * p),
                "eps {eps} lanes {j},{}: {c}",
                j + 1
            );
        }
        let pairs = 64.0 * (n - 1.0);
        assert!(
            (successive as f64 - pairs * p * p).abs() <= bound(pairs, p * p),
            "eps {eps}: successive planes co-flip {successive}"
        );
    }
}

#[test]
fn degenerate_eps_consume_no_draws() {
    for (eps, expect) in [(0.0, 0u64), (1.0, u64::MAX)] {
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(3),
            draws: 0,
        };
        let mut planes = [7u64; 21];
        FlipSampler::new(eps).fill(&mut rng, &mut planes);
        assert_eq!(rng.draws, 0, "eps {eps}");
        assert!(planes.iter().all(|&p| p == expect), "eps {eps}");
    }
}

/// The deterministic op count: a regression to one draw per wire per
/// word (64 per wire per block) fails here on any machine.
#[test]
fn draw_count_is_at_most_nine_per_wire_per_block() {
    let (wires, blocks) = (21usize, 4_000u64);
    for (eps, max_mean) in [(1e-3, 9.0), (0.5, 1.0), (0.3, 9.0), (1.0 / UNIT, 9.0)] {
        let mut rng = Counting {
            inner: StdRng::seed_from_u64(4),
            draws: 0,
        };
        let sampler = FlipSampler::new(eps);
        let mut planes = vec![0u64; wires];
        for _ in 0..blocks {
            sampler.fill(&mut rng, &mut planes);
        }
        let mean = rng.draws as f64 / (wires as f64 * blocks as f64);
        assert!(
            mean <= max_mean,
            "eps {eps}: {mean} draws per wire per block"
        );
        assert!(mean >= 1.0, "eps {eps}: every plane needs a draw");
    }
}

#[test]
fn partial_blocks_keep_lanes_above_len_clear() {
    for eps in [0.5, 1.0] {
        for n in [1usize, 33, 63] {
            let mut ch = BitFlipChannel::new(eps, 5);
            let mut block = WordBlock::zero(21, n);
            ch.corrupt_block(&mut block);
            for i in 0..block.width() {
                assert_eq!(block.lane(i) & !block.valid_mask(), 0, "eps {eps} n {n}");
            }
            if eps == 1.0 {
                assert!((0..21).all(|i| block.lane(i) == block.valid_mask()));
            }
        }
    }
}

#[test]
fn transmit_equals_corrupt_block_across_block_boundaries() {
    let mut rng = StdRng::seed_from_u64(6);
    for trials in [1usize, 63, 65, 127, 129, 200] {
        let words: Vec<Word> = (0..trials)
            .map(|_| Word::from_bits(rng.gen::<u128>(), 21))
            .collect();
        let mut scalar_ch = BitFlipChannel::new(0.1, 7);
        let scalar: Vec<Word> = words.iter().map(|&w| scalar_ch.transmit(w)).collect();
        // Full blocks then a partial one, as the Monte-Carlo loop runs…
        let mut block_ch = BitFlipChannel::new(0.1, 7);
        let mut batch = Vec::new();
        for chunk in words.chunks(BLOCK_WORDS) {
            let mut block = WordBlock::from_words(chunk);
            block_ch.corrupt_block(&mut block);
            batch.extend(block.to_words());
        }
        assert_eq!(batch, scalar, "{trials} trials in 64-word blocks");
        // …and blocks that straddle the plane sets.
        let mut odd_ch = BitFlipChannel::new(0.1, 7);
        let mut odd = Vec::new();
        let mut rest = &words[..];
        for size in [33usize, 40, 1, 64, 7].iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at((*size).min(rest.len()));
            let mut block = WordBlock::from_words(head);
            odd_ch.corrupt_block(&mut block);
            odd.extend(block.to_words());
            rest = tail;
        }
        assert_eq!(odd, scalar, "{trials} trials in odd blocks");
    }
}

/// Plain Monte-Carlo through the sampler must land on the exhaustive
/// truth for every enumerable catalog scheme (fixed seeds: a regression
/// pin, not a coin flip).
#[test]
fn plain_monte_carlo_matches_exact_oracle_on_small_buses() {
    let eps = 1e-2;
    for (scheme, k) in oracle_catalog() {
        let exact = failure_profile(scheme, k).wer(eps);
        let mc = word_error_rate_parallel(scheme, k, eps, 1 << 18, 2026, 2);
        assert!(
            (mc.rate - exact).abs() <= 4.0 * mc.confidence95(),
            "{} k={k}: MC {} (±{}) vs exact {exact}",
            scheme.name(),
            mc.rate,
            mc.confidence95()
        );
    }
}

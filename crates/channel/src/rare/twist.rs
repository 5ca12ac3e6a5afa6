//! Importance-sampled word-error estimation via exponential twisting.
//!
//! The per-wire flip probability is tilted from the nominal `ε` to
//! `ε_θ = ε·e^θ / (ε·e^θ + 1 − ε)` — the exponentially twisted Bernoulli
//! measure. Each trial draws its error pattern under `ε_θ` and carries
//! the exact likelihood ratio back to the nominal measure:
//!
//! ```text
//! w(e) = Π_wires  (ε/ε_θ)^[flipped] · ((1−ε)/(1−ε_θ))^[kept]
//! ```
//!
//! so `E_θ[w·fail] = Σ_e q_θ(e)·(p(e)/q_θ(e))·fail(e) = p_fail` — the
//! estimator is unbiased for *any* θ, and a good θ concentrates samples
//! on the error weights that dominate the failure set, shrinking the
//! variance by orders of magnitude at low ε.
//!
//! For the Gilbert–Elliott burst channel the chain is marginalized
//! *exactly*: word `t` is in the burst state with closed-form probability
//! `b_t` ([`RareChannel::occupancy`] averages it), the sampler draws each
//! trial's state from a `burst_boost`-tilted occupancy with its own
//! likelihood ratio, and the per-wire twist applies within the state.
//! Tilting the marginal rather than the path avoids the classic
//! path-weight degeneration of chain-level twisting (a product of
//! per-step ratios over millions of steps has unbounded variance).
//!
//! Flips are drawn as 64-lane planes by [`crate::FlipSampler`], one
//! block of trials at a time, and a trial's weight depends only on its
//! flipped-wire count, so each state's weights are one precomputed table.
//! Zero twist (`Twist::NONE`) is special-cased to use `ε` *exactly* —
//! same flip-RNG stream and planes as [`crate::BitFlipChannel`] — so it
//! reproduces [`crate::montecarlo::word_error_rate`] byte for byte; the
//! regression suite pins that down.

use super::{RareChannel, TrialStream, FLIP_SEED_SALT};
use crate::awgn::FlipSampler;
use crate::montecarlo::{block_lens, mc_shards, WeightedTally, MC_PROGRESS_CHUNK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use socbus_codes::{Scheme, BLOCK_WORDS};
use socbus_exec::run_shards;
use socbus_telemetry::Telemetry;

/// The sampling-measure tilt of one importance-sampled run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Twist {
    /// Exponential tilt θ of the per-wire flip probability; `0` samples
    /// the nominal measure.
    pub theta: f64,
    /// Multiplicative odds boost on the burst-state occupancy of a
    /// [`RareChannel::Burst`] channel; `1` leaves the chain marginal
    /// untouched. Ignored for i.i.d. channels.
    pub burst_boost: f64,
}

impl Twist {
    /// The identity twist: sample the nominal measure, all weights 1.
    pub const NONE: Twist = Twist {
        theta: 0.0,
        burst_boost: 1.0,
    };

    /// A pure per-wire tilt (no burst boost).
    #[must_use]
    pub fn theta(theta: f64) -> Twist {
        Twist {
            theta,
            burst_boost: 1.0,
        }
    }
}

/// The exponentially twisted flip probability
/// `ε_θ = ε·e^θ / (ε·e^θ + 1 − ε)`.
///
/// `θ = 0` returns `ε` **exactly** (bitwise, not just approximately):
/// the zero-twist estimator must draw the identical flip pattern to the
/// plain channel, and `ε·1.0/(ε·1.0 + 1 − ε)` is not guaranteed to
/// round back to `ε`.
#[must_use]
pub fn twisted_eps(eps: f64, theta: f64) -> f64 {
    if theta == 0.0 {
        return eps;
    }
    let tilted = eps * theta.exp();
    tilted / (tilted + (1.0 - eps))
}

/// The boosted burst occupancy `q' = q·B / (q·B + 1 − q)` (odds scaled
/// by `B`); `B = 1` returns `q` exactly, mirroring [`twisted_eps`].
fn boosted_occupancy(q: f64, boost: f64) -> f64 {
    if boost == 1.0 {
        return q;
    }
    let tilted = q * boost;
    tilted / (tilted + (1.0 - q))
}

/// The flip sampler of one channel state under the twist, with the
/// likelihood-ratio weight of a word by its flipped-wire count `f`:
/// `weights[f] = state_w · (ε/ε_θ)^f · ((1−ε)/(1−ε_θ))^(wires−f)`, every
/// entry exactly `state_w` at zero twist (or degenerate ε ∈ {0, 1},
/// avoiding the 0/0 shape at ε = 0).
struct StateDraw {
    flips: FlipSampler,
    weights: Vec<f64>,
}

impl StateDraw {
    fn new(eps: f64, theta: f64, state_w: f64, wires: usize) -> StateDraw {
        let eps_t = twisted_eps(eps, theta);
        let (flip_w, keep_w) = if eps_t == eps {
            (1.0, 1.0)
        } else {
            (eps / eps_t, (1.0 - eps) / (1.0 - eps_t))
        };
        let weights = (0..=wires)
            .map(|f| {
                let flips = (0..f).fold(state_w, |w, _| w * flip_w);
                (f..wires).fold(flips, |w, _| w * keep_w)
            })
            .collect();
        StateDraw {
            flips: FlipSampler::new(eps_t),
            weights,
        }
    }
}

/// Flipped-wire count of each of the 64 lanes of a plane set.
fn lane_flip_counts(planes: &[u64]) -> [usize; BLOCK_WORDS] {
    let mut counts = [0; BLOCK_WORDS];
    for &p in planes {
        let mut rem = p;
        while rem != 0 {
            counts[rem.trailing_zeros() as usize] += 1;
            rem &= rem - 1;
        }
    }
    counts
}

/// One single-threaded shard of the IS estimator: `trials` words of
/// `scheme` at width `k` through `channel` sampled under `twist`, with
/// the burst occupancy `occupancy` fixed by the caller (the *whole-run*
/// average — every shard of one run must target the same marginal or the
/// sharded estimate would depend on the decomposition).
#[allow(clippy::too_many_arguments)]
fn is_shard(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    occupancy: f64,
    trials: u64,
    seed: u64,
    tel: &Telemetry,
) -> WeightedTally {
    let mut stream = TrialStream::new(scheme, k, seed);
    let mut flip_rng = StdRng::seed_from_u64(seed ^ FLIP_SEED_SALT);
    let wires = stream.wires();
    let mut tally = WeightedTally::zero();
    let scheme_name = if tel.is_enabled() {
        scheme.name()
    } else {
        String::new()
    };
    // Per-state samplers and weight tables are trial-invariant; a burst
    // channel adds the occupancy sampler and the bad state.
    let (burst, w_good) = match channel {
        RareChannel::Iid { .. } => (None, 1.0),
        RareChannel::Burst { eps_bad, .. } => {
            let q = occupancy;
            let qb = boosted_occupancy(q, twist.burst_boost);
            // State weights q/q' and (1−q)/(1−q'): exact 1.0 at B = 1.
            let (w_bad, w_good) = if qb == q {
                (1.0, 1.0)
            } else {
                (q / qb, (1.0 - q) / (1.0 - qb))
            };
            let bad = StateDraw::new(eps_bad, twist.theta, w_bad, wires);
            (Some((FlipSampler::new(qb), bad)), w_good)
        }
    };
    let good = StateDraw::new(channel.base_eps(), twist.theta, w_good, wires);
    // Trials run in BLOCK_WORDS-sized batches: the block's flip planes
    // are drawn first (the flip RNG is a separate stream from the data
    // RNG, so neither stream's order depends on the batching), then one
    // batch encode/decode, then the tally records per trial in original
    // order. Zero twist on an i.i.d. channel draws exactly the planes
    // `BitFlipChannel::corrupt_block` draws for `word_error_rate`.
    let mut planes = vec![0u64; wires];
    let mut bad_planes = vec![0u64; wires];
    let mut done = 0u64;
    for n in block_lens(trials) {
        // Lanes in the burst state: one occupancy plane per block, then
        // the bad-state planes, then the good-state ones.
        let state = match &burst {
            None => 0,
            Some((occupied, bad)) => {
                let state = occupied.plane(&mut flip_rng);
                if state != 0 {
                    bad.flips.fill(&mut flip_rng, &mut bad_planes);
                }
                state
            }
        };
        if state != u64::MAX {
            good.flips.fill(&mut flip_rng, &mut planes);
        }
        for (p, &b) in planes.iter_mut().zip(&bad_planes) {
            *p = (state & b) | (!state & *p);
        }
        let counts = lane_flip_counts(&planes);
        let fail_mask = stream.fails_with_planes(&planes, n);
        for (j, &f) in counts.iter().enumerate().take(n) {
            let w = match &burst {
                Some((_, bad)) if state >> j & 1 == 1 => bad.weights[f],
                _ => good.weights[f],
            };
            tally.record(w, fail_mask >> j & 1 == 1);
            done += 1;
            if tel.is_enabled() && (done.is_multiple_of(MC_PROGRESS_CHUNK) || done == trials) {
                let labels = [("scheme", scheme_name.as_str())];
                tel.event("mc.rare.progress", &labels, done);
                tel.gauge("mc.rare.rate", &labels, tally.rate());
            }
        }
    }
    if tel.is_enabled() && trials > 0 {
        let labels = [("scheme", scheme_name.as_str())];
        tel.counter("mc.rare.trials", &labels, tally.trials);
        tel.counter("mc.rare.failures", &labels, tally.failures);
        tel.gauge("mc.rare.mean_weight", &labels, tally.mean_weight());
    }
    tally
}

/// Importance-sampled word-error estimate of `scheme` at width `k`
/// through `channel`, sampling under `twist`, over `trials` words.
///
/// With `Twist::NONE` on an i.i.d. channel this reproduces
/// [`crate::montecarlo::word_error_rate`] byte for byte (same seeds,
/// same RNG streams, weights exactly 1).
#[must_use]
pub fn is_word_error(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    trials: u64,
    seed: u64,
) -> WeightedTally {
    is_word_error_traced(scheme, k, channel, twist, trials, seed, &Telemetry::off())
}

/// [`is_word_error`] with `mc.rare.*` telemetry: an `mc.rare.progress`
/// event and `mc.rare.rate` gauge every [`MC_PROGRESS_CHUNK`] trials,
/// plus final `mc.rare.trials`/`mc.rare.failures` counters and the
/// `mc.rare.mean_weight` self-normalization gauge.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn is_word_error_traced(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    trials: u64,
    seed: u64,
    tel: &Telemetry,
) -> WeightedTally {
    is_shard(
        scheme,
        k,
        channel,
        twist,
        channel.occupancy(trials),
        trials,
        seed,
        tel,
    )
}

/// [`is_word_error`] on the deterministic parallel engine: the run is
/// cut by [`mc_shards`] into a thread-count-independent shard list, each
/// shard sampled with its own split seed against the *whole-run* burst
/// occupancy, and the per-shard tallies merged in shard order via
/// [`WeightedTally::merged`] — byte-identical at any `threads >= 1`.
#[must_use]
pub fn is_word_error_parallel(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    trials: u64,
    root_seed: u64,
    threads: usize,
) -> WeightedTally {
    is_word_error_parallel_traced(
        scheme,
        k,
        channel,
        twist,
        trials,
        root_seed,
        threads,
        &Telemetry::off(),
    )
}

/// [`is_word_error_parallel`] with merge-time telemetry: shards run
/// untraced, and one `mc.rare.progress` event plus
/// `mc.rare.trials`/`mc.rare.failures` counter increments are emitted
/// **per shard, at merge time, in shard order**; the final
/// `mc.rare.rate`, `mc.rare.ci95`, and `mc.rare.mean_weight` gauges are
/// set once — recording and estimate are thread-count invariant.
#[must_use]
#[allow(clippy::too_many_arguments)]
pub fn is_word_error_parallel_traced(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    trials: u64,
    root_seed: u64,
    threads: usize,
    tel: &Telemetry,
) -> WeightedTally {
    is_parallel_occ(
        scheme,
        k,
        channel,
        twist,
        channel.occupancy(trials),
        trials,
        root_seed,
        threads,
        tel,
    )
}

/// The occupancy-pinned core of [`is_word_error_parallel_traced`]:
/// callers that merge *multiple* parallel runs into one estimate (the
/// adaptive driver's geometric batches) must pin one burst occupancy
/// across every batch or the merged estimate would mix targets.
#[allow(clippy::too_many_arguments)]
pub(crate) fn is_parallel_occ(
    scheme: Scheme,
    k: usize,
    channel: RareChannel,
    twist: Twist,
    occupancy: f64,
    trials: u64,
    root_seed: u64,
    threads: usize,
    tel: &Telemetry,
) -> WeightedTally {
    let shards = mc_shards(trials, root_seed);
    let tallies = run_shards(threads, &shards, |_, &(shard_trials, seed)| {
        is_shard(
            scheme,
            k,
            channel,
            twist,
            occupancy,
            shard_trials,
            seed,
            &Telemetry::off(),
        )
    });
    if tel.is_enabled() {
        let scheme_name = scheme.name();
        let labels = [("scheme", scheme_name.as_str())];
        let mut done = 0u64;
        for shard in &tallies {
            done += shard.trials;
            tel.event("mc.rare.progress", &labels, done);
            tel.counter("mc.rare.trials", &labels, shard.trials);
            tel.counter("mc.rare.failures", &labels, shard.failures);
        }
        let merged = WeightedTally::merged(tallies.iter().copied());
        if merged.trials > 0 {
            tel.gauge("mc.rare.rate", &labels, merged.rate());
            tel.gauge("mc.rare.ci95", &labels, merged.confidence95());
            tel.gauge("mc.rare.mean_weight", &labels, merged.mean_weight());
        }
    }
    WeightedTally::merged(tallies)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twisted_eps_zero_theta_is_bitwise_identity() {
        for eps in [0.0, 1e-12, 1e-3, 0.4999999, 0.5, 1.0] {
            assert_eq!(twisted_eps(eps, 0.0).to_bits(), eps.to_bits());
        }
    }

    #[test]
    fn twisted_eps_monotone_in_theta() {
        let eps = 1e-3;
        let mut last = 0.0;
        for theta in [0.0, 1.0, 2.0, 4.0, 8.0] {
            let t = twisted_eps(eps, theta);
            assert!(t >= last, "theta={theta}");
            assert!((0.0..=1.0).contains(&t));
            last = t;
        }
        // Large positive tilt pushes ε toward 1; negative toward 0.
        assert!(twisted_eps(eps, 12.0) > 0.99);
        assert!(twisted_eps(eps, -4.0) < eps);
    }

    #[test]
    fn boosted_occupancy_edges() {
        assert_eq!(boosted_occupancy(0.125, 1.0).to_bits(), 0.125f64.to_bits());
        assert!(boosted_occupancy(0.01, 50.0) > 0.3);
        assert_eq!(boosted_occupancy(0.0, 50.0), 0.0);
    }

    #[test]
    fn zero_twist_weights_are_exactly_one() {
        let t = is_word_error(
            Scheme::Hamming,
            8,
            RareChannel::Iid { eps: 0.01 },
            Twist::NONE,
            5_000,
            7,
        );
        assert_eq!(t.weighted_trials, 5_000.0);
        assert_eq!(t.mean_weight(), 1.0);
        assert_eq!(t.sum, t.failures as f64);
    }

    #[test]
    fn twisted_estimate_is_consistent_with_plain() {
        // ε high enough for plain MC to see failures: the twisted
        // estimate must agree within joint CIs.
        let (k, eps) = (8, 0.02);
        let ch = RareChannel::Iid { eps };
        let plain = is_word_error(Scheme::Hamming, k, ch, Twist::NONE, 200_000, 11);
        let twisted = is_word_error(Scheme::Hamming, k, ch, Twist::theta(1.5), 200_000, 13);
        let gap = (plain.rate() - twisted.rate()).abs();
        let tol = 3.0 * (plain.confidence95() + twisted.confidence95());
        assert!(
            gap < tol,
            "plain {} (±{}) vs twisted {} (±{})",
            plain.rate(),
            plain.confidence95(),
            twisted.rate(),
            twisted.confidence95()
        );
        // And the twist actually concentrates samples on failures.
        assert!(twisted.failures > 10 * plain.failures);
    }

    #[test]
    fn burst_occupancy_closed_form_matches_recurrence() {
        let ch = RareChannel::Burst {
            eps_good: 1e-4,
            eps_bad: 0.1,
            p_enter: 0.01,
            p_exit: 0.2,
        };
        for trials in [1u64, 2, 17, 1000] {
            let mut b = 0.0f64;
            let mut acc = 0.0;
            for _ in 0..trials {
                // Transition happens before each word (GilbertElliott).
                b = b * (1.0 - 0.2) + (1.0 - b) * 0.01;
                acc += b;
            }
            let expect = acc / trials as f64;
            let got = ch.occupancy(trials);
            assert!(
                (got - expect).abs() < 1e-12,
                "trials={trials}: {got} vs {expect}"
            );
        }
        assert_eq!(RareChannel::Iid { eps: 0.5 }.occupancy(100), 0.0);
    }

    #[test]
    fn parallel_matches_thread_counts() {
        let ch = RareChannel::Iid { eps: 1e-3 };
        let tw = Twist::theta(3.0);
        let one = is_word_error_parallel(Scheme::Dap, 8, ch, tw, 100_000, 5, 1);
        let eight = is_word_error_parallel(Scheme::Dap, 8, ch, tw, 100_000, 5, 8);
        assert_eq!(one, eight);
        assert!(one.failures > 0, "twist must reach the failure set");
    }
}

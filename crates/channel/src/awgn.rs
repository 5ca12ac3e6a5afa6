//! The additive-Gaussian-noise bus channel (paper §II-A.3).
//!
//! Every wire of the received word sees the driven rail voltage plus a
//! zero-mean Gaussian noise sample of standard deviation σ_N; the
//! receiver slices at half swing. The resulting bit-error probability is
//! `ε = Q(swing / 2σ_N)` — eq. (5).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use socbus_codes::{WordBlock, BLOCK_WORDS};
use socbus_model::{bit_error_probability, Word};

/// A noisy bus channel.
#[derive(Clone, Debug)]
pub struct GaussianChannel {
    /// Signal swing on the wires (V); the scaled `V̂dd` when low-swing
    /// signaling is used.
    pub swing: f64,
    /// Noise standard deviation σ_N (V).
    pub sigma: f64,
    rng: StdRng,
}

impl GaussianChannel {
    /// A channel with the given swing and noise level.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are positive.
    #[must_use]
    pub fn new(swing: f64, sigma: f64, seed: u64) -> Self {
        assert!(swing > 0.0 && sigma > 0.0, "parameters must be positive");
        GaussianChannel {
            swing,
            sigma,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The per-wire bit-error probability `Q(swing/2σ)`.
    #[must_use]
    pub fn bit_error_probability(&self) -> f64 {
        bit_error_probability(self.swing, self.sigma)
    }

    /// One standard Gaussian sample (Box–Muller).
    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Transmits a word: drives each wire to its rail, adds noise, and
    /// slices at half swing.
    #[must_use]
    pub fn transmit(&mut self, word: Word) -> Word {
        let half = self.swing / 2.0;
        let mut out = Word::zero(word.width());
        for i in 0..word.width() {
            let v = if word.bit(i) { self.swing } else { 0.0 };
            let noisy = v + self.sigma * self.gauss();
            out.set_bit(i, noisy > half);
        }
        out
    }
}

/// `2^53`: the resolution of `rng.gen::<f64>()`, whose value is a
/// uniform 53-bit integer `U` scaled by `2^-53`.
const UNIT: u64 = 1 << 53;

/// Exact bit-sliced Bernoulli(ε) sampler: one call draws a 64-lane flip
/// plane, lane `j` set with probability `ceil(ε·2^53)/2^53`,
/// independently per lane — exactly the marginal of the scalar test
/// `rng.gen::<f64>() < ε`.
///
/// The scalar test compares a uniform 53-bit integer `U` against the
/// threshold `T = ceil(ε·2^53)`. The sampler runs that comparison for 64
/// lanes at once, most significant bit first: each `next_u64` supplies
/// bit `b` of all 64 lanes' `U`. A lane whose bit is below `T`'s bit is
/// decided "flip", above it "keep", equal stays open. Drawing stops as
/// soon as no lane is open, or after `T`'s lowest set bit (every lane
/// still tied there has `U ≥ T`). Each lane is open after a bit with
/// probability 1/2, so a plane costs about `log2(64) + 1.3 ≈ 7.3` draws
/// at any ε, one at ε = 1/2 and none at ε ∈ {0, 1}.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlipSampler {
    threshold: u64,
}

impl FlipSampler {
    /// The sampler for flip probability `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= eps <= 1`.
    #[must_use]
    pub fn new(eps: f64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "eps out of range");
        // ε·2^53 is exact (a power-of-two scale), and so is its ceiling.
        FlipSampler {
            threshold: (eps * UNIT as f64).ceil() as u64,
        }
    }

    /// The threshold `T = ceil(ε·2^53)`: a lane flips with probability
    /// `T / 2^53`.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// One 64-lane flip plane.
    pub fn plane<R: RngCore + ?Sized>(&self, rng: &mut R) -> u64 {
        let t = self.threshold;
        if t == 0 {
            return 0;
        }
        if t == UNIT {
            return u64::MAX;
        }
        let mut flip = 0u64;
        let mut open = u64::MAX;
        // `T`'s bits still to compare, the next one at the top; once only
        // zeros remain, every open lane has `U ≥ T`.
        let mut rest = t << 11;
        loop {
            let r = rng.next_u64();
            // All ones where `T` has a 1 at this bit (branch-free: the
            // bit pattern of `T` is data the predictor cannot learn).
            let t_bit = ((rest as i64) >> 63) as u64;
            flip |= open & !r & t_bit;
            open &= !(r ^ t_bit);
            rest <<= 1;
            if open == 0 || rest == 0 {
                return flip;
            }
        }
    }

    /// Fills `planes` with one flip plane per wire, wire-ascending.
    pub fn fill<R: RngCore + ?Sized>(&self, rng: &mut R, planes: &mut [u64]) {
        for p in planes {
            *p = self.plane(rng);
        }
    }
}

/// A simpler abstraction for validation: flips each wire independently
/// with probability ε (the regime the analytic formulas assume).
///
/// The channel is a stream of 64-lane flip-plane sets drawn by a
/// [`FlipSampler`]: one plane per wire, lane `j` of the set belonging
/// to the `j`-th word. [`BitFlipChannel::transmit`] hands out one lane
/// per call and [`BitFlipChannel::corrupt_block`] one lane per block
/// word, refilling from the same RNG whenever the set runs out — so the
/// scalar and batch paths see the identical flips for the same words in
/// the same order. A call at a different width than the buffered set
/// discards the set's remaining lanes and draws a fresh one.
#[derive(Clone, Debug)]
pub struct BitFlipChannel {
    /// Per-wire flip probability, read when a plane set is drawn: a
    /// change takes effect at the next set.
    pub eps: f64,
    rng: StdRng,
    planes: Vec<u64>,
    next_lane: usize,
}

impl BitFlipChannel {
    /// A channel flipping wires i.i.d. with probability `eps`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= eps <= 1`.
    #[must_use]
    pub fn new(eps: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&eps), "eps out of range");
        BitFlipChannel {
            eps,
            rng: StdRng::seed_from_u64(seed),
            planes: Vec::new(),
            next_lane: BLOCK_WORDS,
        }
    }

    /// Makes at least one unused lane available for a word of `width`
    /// wires, drawing a fresh plane set when needed.
    fn ensure_lane(&mut self, width: usize) {
        if self.next_lane == BLOCK_WORDS || self.planes.len() != width {
            self.planes.resize(width, 0);
            FlipSampler::new(self.eps).fill(&mut self.rng, &mut self.planes);
            self.next_lane = 0;
        }
    }

    /// Transmits a word through the flip channel, consuming one lane of
    /// the buffered plane set.
    #[must_use]
    pub fn transmit(&mut self, word: Word) -> Word {
        self.ensure_lane(word.width());
        let mut limbs = [0u64; Word::LIMB_COUNT];
        for (i, plane) in self.planes.iter().enumerate() {
            limbs[i / 64] |= ((plane >> self.next_lane) & 1) << (i % 64);
        }
        self.next_lane += 1;
        word.xor(Word::from_limbs(limbs, word.width()))
    }

    /// Transmits a whole [`WordBlock`] in place: word `j` takes the next
    /// lane of the plane stream, exactly the lane
    /// [`BitFlipChannel::transmit`] would hand out for it. Lanes at or
    /// above `block.len()` stay clear.
    pub fn corrupt_block(&mut self, block: &mut WordBlock) {
        let (n, width) = (block.len(), block.width());
        let mut done = 0;
        while done < n {
            self.ensure_lane(width);
            let take = (n - done).min(BLOCK_WORDS - self.next_lane);
            let mask = u64::MAX >> (BLOCK_WORDS - take);
            for (i, plane) in self.planes.iter().enumerate() {
                *block.lane_mut(i) ^= ((plane >> self.next_lane) & mask) << done;
            }
            self.next_lane += take;
            done += take;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_channel_is_transparent() {
        let mut ch = GaussianChannel::new(1.2, 1e-6, 1);
        let w = Word::from_bits(0b1011, 4);
        for _ in 0..100 {
            assert_eq!(ch.transmit(w), w);
        }
    }

    #[test]
    fn measured_ber_matches_q_function() {
        // σ chosen for ε ≈ 2.3% — measurable in few trials.
        let swing = 1.2;
        let sigma = 0.3;
        let mut ch = GaussianChannel::new(swing, sigma, 7);
        let expect = ch.bit_error_probability();
        let w = Word::from_bits(0, 64);
        let mut flips = 0u64;
        let trials = 4000;
        for _ in 0..trials {
            flips += u64::from(ch.transmit(w).count_ones());
        }
        let measured = flips as f64 / (64.0 * f64::from(trials));
        assert!(
            (measured - expect).abs() / expect < 0.1,
            "measured {measured} vs Q {expect}"
        );
    }

    #[test]
    fn lower_swing_raises_error_rate() {
        let hi = GaussianChannel::new(1.2, 0.1, 1).bit_error_probability();
        let lo = GaussianChannel::new(0.8, 0.1, 1).bit_error_probability();
        assert!(lo > hi);
    }

    #[test]
    fn corrupt_block_consumes_the_scalar_stream() {
        // Same seed, same words: the block path must produce exactly the
        // words the scalar path does, because it draws the same variates
        // in the same order.
        let words: Vec<Word> = (0..64u128).map(|j| Word::from_bits(j * 37, 11)).collect();
        let mut scalar_ch = BitFlipChannel::new(0.2, 99);
        let scalar: Vec<Word> = words.iter().map(|&w| scalar_ch.transmit(w)).collect();
        let mut block = WordBlock::from_words(&words);
        let mut block_ch = BitFlipChannel::new(0.2, 99);
        block_ch.corrupt_block(&mut block);
        assert_eq!(block.to_words(), scalar);
    }

    #[test]
    fn flip_channel_rate_is_calibrated() {
        let mut ch = BitFlipChannel::new(0.05, 3);
        let w = Word::zero(100);
        let mut flips = 0u64;
        for _ in 0..2000 {
            flips += u64::from(ch.transmit(w).count_ones());
        }
        let rate = flips as f64 / 200_000.0;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }
}

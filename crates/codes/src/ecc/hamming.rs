//! Systematic Hamming code: the paper's single-error-correcting baseline.

use crate::traits::{BusCode, DecodeStatus};
use socbus_model::Word;

/// Number of Hamming parity bits `m` for `k` data bits: the smallest `m`
/// with `k ≤ 2^m − m − 1` (paper §II-D). Grows as `log2 k`: 3 for k ≤ 4,
/// 4 for k ≤ 11, 5 for k ≤ 26, 6 for k ≤ 57.
///
/// # Panics
///
/// Panics if `k == 0`.
#[must_use]
pub fn hamming_parity_bits(k: usize) -> usize {
    assert!(k > 0, "need at least one data bit");
    let mut m = 2;
    while (1usize << m) - m - 1 < k {
        m += 1;
    }
    m
}

/// Systematic Hamming code over `k` data bits: `k + m` wires, Hamming
/// distance 3, corrects any single-wire error.
///
/// Wire layout: `[d0, ..., d(k-1), p0, ..., p(m-1)]` — the data crosses
/// unmodified (framework condition 4), parity is appended.
///
/// Internally data bit `i` occupies canonical Hamming position
/// `data_position(i)` (the `i`-th non-power-of-two position ≥ 3) and
/// parity bit `j` position `2^j`; the syndrome of a corrupted word equals
/// the canonical position of the flipped bit.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, Hamming};
/// use socbus_model::Word;
///
/// // Table III: 32 data bits need 6 parity bits -> 38 wires.
/// let mut code = Hamming::new(32);
/// assert_eq!(code.wires(), 38);
/// let d = Word::from_bits(0xCAFE_F00D, 32);
/// let mut cw = code.encode(d);
/// cw.set_bit(17, !cw.bit(17)); // single error anywhere
/// assert_eq!(code.decode(cw), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Hamming {
    k: usize,
    m: usize,
}

/// The canonical Hamming position (1-based) of each of `k` data bits: the
/// numbers from 3 up that are not powers of two.
pub(crate) fn data_positions(k: usize) -> impl Iterator<Item = usize> {
    (3usize..).filter(|p| !p.is_power_of_two()).take(k)
}

impl Hamming {
    /// Hamming code over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the coded bus exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        let m = hamming_parity_bits(k);
        assert!(k + m <= socbus_model::word::MAX_WIDTH, "bus too wide");
        Hamming { k, m }
    }

    /// Number of parity bits `m`.
    #[must_use]
    pub fn parity_bits(&self) -> usize {
        self.m
    }

    /// Data-bit indices covered by parity bit `j` — the XOR-tree fan-in of
    /// that parity output. Needed by the netlist generator and by BIH's
    /// parallel-parity trick (paper §III-B), which must know whether each
    /// parity covers an odd or even number of data bits.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.parity_bits()`.
    #[must_use]
    pub fn parity_coverage(&self, j: usize) -> Vec<usize> {
        assert!(j < self.m, "parity index {j} out of range");
        data_positions(self.k)
            .enumerate()
            .filter(|&(_, pos)| pos & (1 << j) != 0)
            .map(|(i, _)| i)
            .collect()
    }

    /// Computes the `m` parity bits for a data word: parity `j` is bit
    /// `j` of the XOR of the set data bits' canonical positions.
    fn parities(&self, data: Word) -> Word {
        let acc = data_positions(self.k)
            .enumerate()
            .filter(|&(i, _)| data.bit(i))
            .fold(0, |acc, (_, pos)| acc ^ pos);
        Word::from_bits(acc as u128, self.m)
    }
}

impl BusCode for Hamming {
    fn name(&self) -> String {
        "Hamming".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + self.m
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        data.concat(self.parities(data))
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut data = bus.slice(0, self.k);
        let recv_p = bus.slice(self.k, self.m);
        let calc_p = self.parities(data);
        let syndrome = recv_p.xor(calc_p).bits() as usize;
        if syndrome == 0 {
            return (data, DecodeStatus::Clean);
        }
        if !syndrome.is_power_of_two() {
            // Error in a data bit: find the bit with that canonical position.
            // Positions below it skip its floor(log2) + 1 powers of two.
            let i = syndrome - syndrome.ilog2() as usize - 2;
            if i >= self.k {
                // Syndrome points outside the used positions: uncorrectable
                // (multi-bit) error.
                return (data, DecodeStatus::Detected);
            }
            data.set_bit(i, !data.bit(i));
        }
        // Power-of-two syndrome: a parity wire flipped; data is intact.
        (data, DecodeStatus::Corrected)
    }

    fn correctable_errors(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn parity_bit_counts_match_paper() {
        assert_eq!(hamming_parity_bits(4), 3); // Table II: 7 wires
        assert_eq!(hamming_parity_bits(5), 4); // BIH 4-bit: data+invert
        assert_eq!(hamming_parity_bits(11), 4);
        assert_eq!(hamming_parity_bits(26), 5);
        assert_eq!(hamming_parity_bits(32), 6); // Table III: 38 wires
        assert_eq!(hamming_parity_bits(33), 6); // BIH 32-bit: 39 wires
        assert_eq!(hamming_parity_bits(57), 6);
        assert_eq!(hamming_parity_bits(64), 7);
    }

    #[test]
    fn roundtrip_clean() {
        let mut c = Hamming::new(8);
        for w in Word::enumerate_all(8) {
            let (d, s) = {
                let cw = c.encode(w);
                c.decode_checked(cw)
            };
            assert_eq!(d, w);
            assert_eq!(s, DecodeStatus::Clean);
        }
    }

    #[test]
    fn corrects_every_single_error_exhaustive() {
        let mut c = Hamming::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() {
                let bad = cw.with_bit(i, !cw.bit(i));
                let (d, s) = c.decode_checked(bad);
                assert_eq!(d, w, "flip wire {i} of {cw}");
                assert_eq!(s, DecodeStatus::Corrected);
            }
        }
    }

    #[test]
    fn corrects_single_errors_wide_random() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut c = Hamming::new(32);
        for _ in 0..300 {
            let w = Word::from_bits(rng.gen::<u128>(), 32);
            let cw = c.encode(w);
            let i = rng.gen_range(0..cw.width());
            assert_eq!(c.decode(cw.with_bit(i, !cw.bit(i))), w);
        }
    }

    #[test]
    fn minimum_distance_is_three() {
        let mut c = Hamming::new(4);
        let mut min = u32::MAX;
        for a in Word::enumerate_all(4) {
            for b in Word::enumerate_all(4) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 3);
    }

    #[test]
    fn code_is_linear() {
        // XOR of codewords is a codeword (needed by Appendix-I reasoning
        // and the framework's "linear ECC" requirement).
        let mut c = Hamming::new(6);
        for a in Word::enumerate_all(6) {
            for b in Word::enumerate_all(6) {
                let ca = c.encode(a);
                let cb = c.encode(b);
                assert_eq!(ca.xor(cb), c.encode(a.xor(b)));
            }
        }
    }

    #[test]
    fn parity_coverage_is_consistent_with_encoder() {
        let c = Hamming::new(16);
        for j in 0..c.parity_bits() {
            let cover = c.parity_coverage(j);
            // Flipping exactly one covered data bit flips parity j.
            let mut enc = c.clone();
            let base = enc.encode(Word::zero(16));
            let mut d = Word::zero(16);
            d.set_bit(cover[0], true);
            let cw = enc.encode(d);
            assert!(base.bit(16 + j) != cw.bit(16 + j));
        }
    }

    #[test]
    fn systematic_layout() {
        let mut c = Hamming::new(8);
        let d = Word::from_bits(0b1011_0010, 8);
        let cw = c.encode(d);
        assert_eq!(cw.slice(0, 8), d, "data must cross unmodified");
    }
}

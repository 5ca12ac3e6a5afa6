//! Wire duplication: the trivial forbidden-pattern code.

use crate::layout::Layout;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Duplication: every data bit driven on two adjacent wires —
/// `k` data bits on `2k` wires.
///
/// No codeword can contain `010` or `101` (bits come in equal pairs), so
/// the FP condition holds and the worst-case delay is `(1 + 2λ)τ0`.
/// Duplication is the CAC component of the paper's DAP-family joint codes
/// and doubles as a distance-2 error-detecting code.
///
/// Wire layout: `[d0, d0, d1, d1, ..., d(k-1), d(k-1)]`
/// ([`Layout::duplicated`]).
///
/// Decoding uses the even copy of each pair; [`Duplication::mismatch_mask`]
/// exposes pairs whose copies disagree (single-wire error detection).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Duplication {
    layout: Layout,
}

impl Duplication {
    /// Duplicated `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `2k` exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(
            2 * k <= socbus_model::word::MAX_WIDTH,
            "duplicated bus too wide"
        );
        Duplication {
            layout: Layout::duplicated(k),
        }
    }

    /// Data-bit positions whose two copies disagree in `bus` — a nonzero
    /// mask means a detectable error.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != 2k`.
    #[must_use]
    pub fn mismatch_mask(&self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut m = Word::zero(self.data_bits());
        for (i, (a, b)) in self.layout.copy_pairs().enumerate() {
            m.set_bit(i, bus.bit(a) != bus.bit(b));
        }
        m
    }
}

impl BusCode for Duplication {
    fn name(&self) -> String {
        "Duplication".into()
    }

    fn data_bits(&self) -> usize {
        self.layout.bits()
    }

    fn wires(&self) -> usize {
        self.layout.wires()
    }

    fn encode(&mut self, data: Word) -> Word {
        self.layout.place(data)
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.layout.read(bus)
    }

    fn detectable_errors(&self) -> usize {
        1
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        self.layout.read_checked(bus)
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::CAC
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{bus_delay_factor, TransitionVector};

    #[test]
    fn roundtrip() {
        let mut c = Duplication::new(4);
        for w in Word::enumerate_all(4) {
            assert_eq!(
                {
                    let cw = c.encode(w);
                    c.decode(cw)
                },
                w
            );
        }
    }

    #[test]
    fn codewords_have_no_forbidden_patterns() {
        let mut c = Duplication::new(4);
        for w in Word::enumerate_all(4) {
            let cw = c.encode(w);
            for i in 0..cw.width() - 2 {
                let pat = (cw.bit(i), cw.bit(i + 1), cw.bit(i + 2));
                assert_ne!(pat, (false, true, false), "010 in {cw}");
                assert_ne!(pat, (true, false, true), "101 in {cw}");
            }
        }
    }

    #[test]
    fn worst_case_delay_is_cac_class() {
        let lambda = 1.3;
        let mut c = Duplication::new(3);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!((worst - DelayClass::CAC.factor(lambda)).abs() < 1e-12);
    }

    #[test]
    fn minimum_distance_is_two() {
        let mut c = Duplication::new(3);
        let mut min = u32::MAX;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                if a != b {
                    min = min.min(c.encode(a).hamming_distance(c.encode(b)));
                }
            }
        }
        assert_eq!(min, 2);
    }

    #[test]
    fn decode_checked_reports_pair_mismatch() {
        let mut c = Duplication::new(4);
        let cw = c.encode(Word::from_bits(0b0110, 4));
        assert_eq!(c.decode_checked(cw).1, DecodeStatus::Clean);
        let corrupted = cw.with_bit(0, !cw.bit(0));
        let (_, status) = c.decode_checked(corrupted);
        assert_eq!(status, DecodeStatus::Detected);
    }

    #[test]
    fn mismatch_mask_flags_corrupted_pair() {
        let mut c = Duplication::new(4);
        let cw = c.encode(Word::from_bits(0b1010, 4));
        assert_eq!(c.mismatch_mask(cw).count_ones(), 0);
        let corrupted = cw.with_bit(5, !cw.bit(5)); // second copy of bit 2
        let mask = c.mismatch_mask(corrupted);
        assert_eq!(mask.count_ones(), 1);
        assert!(mask.bit(2));
    }
}

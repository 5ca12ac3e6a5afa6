//! Duplicate-add-parity (DAP): the paper's flagship joint CAC + ECC code.

use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// DAP: every data bit duplicated (FP-condition CAC, distance 2) plus one
/// parity wire (distance 3) — `2k + 1` wires, single-error correction at
/// `(1 + 2λ)τ0` worst-case delay.
///
/// Decoding (paper Fig. 6): regenerate the parity from copy set `A`; if it
/// matches the received parity output `A`, else output `B`. A single error
/// corrupts at most one of the sets or the parity, so the selected set is
/// always clean.
///
/// Wire layout: `[d0, d0, d1, d1, ..., d(k-1), d(k-1), p]`, with set `A`
/// on even wire indices and `B` on odd.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, Dap};
/// use socbus_model::{DelayClass, Word};
///
/// let mut dap = Dap::new(4);
/// assert_eq!(dap.wires(), 9); // paper Table II
/// assert_eq!(dap.guaranteed_delay_class(), DelayClass::CAC);
/// let d = Word::from_bits(0b1001, 4);
/// let cw = dap.encode(d);
/// // Any single wire error is corrected.
/// for i in 0..9 {
///     assert_eq!(dap.decode(cw.with_bit(i, !cw.bit(i))), d);
/// }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dap {
    k: usize,
}

impl Dap {
    /// DAP over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `2k + 1` exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k < socbus_model::word::MAX_WIDTH, "bus too wide");
        Dap { k }
    }
}

impl BusCode for Dap {
    fn name(&self) -> String {
        "DAP".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.k + 1
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = Word::zero(self.wires());
        for i in 0..self.k {
            out.set_bit(2 * i, data.bit(i));
            out.set_bit(2 * i + 1, data.bit(i));
        }
        out.set_bit(2 * self.k, data.count_ones() % 2 == 1);
        out
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut a = Word::zero(self.k);
        let mut b = Word::zero(self.k);
        for i in 0..self.k {
            a.set_bit(i, bus.bit(2 * i));
            b.set_bit(i, bus.bit(2 * i + 1));
        }
        // Fig. 6: regenerate set A's parity; on a match output A, else B.
        if (a.count_ones() % 2 == 1) != bus.bit(2 * self.k) {
            (b, DecodeStatus::Corrected)
        } else if a == b {
            (a, DecodeStatus::Clean)
        } else {
            (a, DecodeStatus::Corrected)
        }
    }

    fn correctable_errors(&self) -> usize {
        1
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
    fn wire_counts_match_paper() {
        assert_eq!(Dap::new(4).wires(), 9); // Table II
        assert_eq!(Dap::new(32).wires(), 65); // Table III
    }

    #[test]
    fn roundtrip_clean() {
        let mut c = Dap::new(5);
        for w in Word::enumerate_all(5) {
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
        let mut c = Dap::new(4);
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
    fn minimum_distance_is_three() {
        let mut c = Dap::new(4);
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
    fn worst_case_delay_is_cac_class() {
        let lambda = 2.8;
        let mut c = Dap::new(3);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!(
            worst <= DelayClass::CAC.factor(lambda) + 1e-12,
            "worst factor {worst}"
        );
    }

    #[test]
    fn average_energy_matches_paper_coefficients() {
        // Table II: DAP 4-bit bus energy 2.25 + 2.00λ (exact enumeration).
        let mut c = Dap::new(4);
        let mut acc = socbus_model::EnergyCoeff::default();
        let mut count = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                acc = acc.add(socbus_model::word_transition_energy(
                    c.encode(b),
                    c.encode(a),
                ));
                count += 1.0;
            }
        }
        let avg = acc.scale(1.0 / count);
        assert!((avg.self_coeff - 2.25).abs() < 1e-12, "{}", avg.self_coeff);
        assert!(
            (avg.coupling_coeff - 2.00).abs() < 1e-12,
            "{}",
            avg.coupling_coeff
        );
    }
}

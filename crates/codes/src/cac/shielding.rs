//! Wire shielding: the trivial forbidden-transition code.

use crate::layout::Layout;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Shielding: a grounded wire between every pair of data wires —
/// `k` data bits on `2k − 1` wires.
///
/// Every switching wire has only grounded neighbors, so its delay is at
/// most `(1 + 2λ)τ0` (the shields still present their coupling
/// capacitance). No codec logic is required, which is why the paper's
/// Table III shows shielding with zero codec overhead — at the price of the
/// largest wire count and no power or reliability benefit.
///
/// Wire layout: `[d0, S, d1, S, ..., d(k-1)]` ([`Layout::shielded`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Shielding {
    layout: Layout,
}

impl Shielding {
    /// Shielded `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the shielded bus exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(
            2 * k - 1 <= socbus_model::word::MAX_WIDTH,
            "shielded bus too wide"
        );
        Shielding {
            layout: Layout::shielded(k),
        }
    }
}

impl BusCode for Shielding {
    fn name(&self) -> String {
        "Shielding".into()
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

    /// Like [`BusCode::decode`], but reports whether the received bus was
    /// a valid codeword: the encoder grounds every odd (shield) wire, so a
    /// set shield marks the word [`DecodeStatus::Detected`]. Flips on data
    /// wires are invisible — every data pattern is a codeword — so
    /// [`BusCode::detectable_errors`] stays 0; the status is best-effort
    /// membership checking, not a detection promise.
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
        let mut c = Shielding::new(4);
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
    fn shields_stay_grounded() {
        let mut c = Shielding::new(3);
        let coded = c.encode(Word::from_bits(0b111, 3));
        assert_eq!(coded.to_string(), "10101");
    }

    #[test]
    fn wire_count_matches_paper() {
        // Table III: 32-bit shielded bus uses 63 wires.
        assert_eq!(Shielding::new(32).wires(), 63);
    }

    #[test]
    fn worst_case_delay_is_cac_class() {
        let lambda = 2.8;
        let mut c = Shielding::new(3);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(3) {
            for a in Word::enumerate_all(3) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!((worst - DelayClass::CAC.factor(lambda)).abs() < 1e-12);
    }
}

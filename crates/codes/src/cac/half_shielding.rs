//! Half-shielding: a shield after every *pair* of wires.

use crate::layout::Layout;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Half-shielding: data wires in pairs with a grounded shield between
/// consecutive pairs — `k` bits on `k + ceil(k/2) − 1` wires.
///
/// Each data wire has at most one switching neighbor, so the worst-case
/// delay is `(1 + 3λ)τ0` — between uncoded `(1+4λ)` and full shielding
/// `(1+2λ)`. The paper's HammingX uses this layout on the Hamming parity
/// group: the `λτ0` of slack masks the Hamming encoder delay (§III-E) at
/// roughly half the wire cost of full shielding.
///
/// Wire layout for k = 5: `[d0, d1, S, d2, d3, S, d4]`
/// ([`Layout::half_shielded`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HalfShielding {
    layout: Layout,
}

impl HalfShielding {
    /// Half-shielded `k`-bit bus.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the coded bus exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        let wires = k + k.div_ceil(2) - 1;
        assert!(wires <= socbus_model::word::MAX_WIDTH, "bus too wide");
        HalfShielding {
            layout: Layout::half_shielded(k),
        }
    }
}

impl BusCode for HalfShielding {
    fn name(&self) -> String {
        "Half-shielding".into()
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
    /// a valid codeword: shields sit at wires `≡ 2 (mod 3)` and the
    /// encoder grounds them, so a set shield marks the word
    /// [`DecodeStatus::Detected`]. Flips on data wires are invisible —
    /// every data pattern is a codeword — so
    /// [`BusCode::detectable_errors`] stays 0; the status is best-effort
    /// membership checking, not a detection promise.
    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        self.layout.read_checked(bus)
    }

    fn guaranteed_delay_class(&self) -> DelayClass {
        DelayClass::new(3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use socbus_model::{bus_delay_factor, TransitionVector};

    #[test]
    fn roundtrip() {
        for k in 1..=6 {
            let mut c = HalfShielding::new(k);
            for w in Word::enumerate_all(k) {
                assert_eq!(
                    {
                        let cw = c.encode(w);
                        c.decode(cw)
                    },
                    w
                );
            }
        }
    }

    #[test]
    fn wire_counts_match_paper() {
        // HammingX 4-bit: 3 parity bits half-shielded -> 4 wires (8 total).
        assert_eq!(HalfShielding::new(3).wires(), 4);
        // HammingX 32-bit: 6 parity bits -> 8 wires (41 total).
        assert_eq!(HalfShielding::new(6).wires(), 8);
    }

    #[test]
    fn layout_for_five_bits() {
        let mut c = HalfShielding::new(5);
        let coded = c.encode(Word::from_bits(0b11111, 5));
        // MSB-first string of [d0,d1,S,d2,d3,S,d4] with all-ones data.
        assert_eq!(coded.to_string(), "1011011");
    }

    #[test]
    fn worst_case_delay_is_1_plus_3_lambda() {
        let lambda = 2.2;
        let mut c = HalfShielding::new(4);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
                let tv = TransitionVector::between(c.encode(b), c.encode(a));
                worst = worst.max(bus_delay_factor(&tv, lambda));
            }
        }
        assert!(
            (worst - DelayClass::new(3).factor(lambda)).abs() < 1e-12,
            "worst factor {worst}"
        );
    }
}

//! The unified coding framework composer (paper §III, Fig. 4).
//!
//! A framework instance stacks up to three component codes around a
//! `k`-bit data word:
//!
//! ```text
//! data ──CAC──▶ n code bits ──LPC──▶ n code bits + p invert bits
//!                                         │              │
//!                                        ECC ◀───────────┤
//!                                         │              │
//!            bus = [ n code bits | LXC1(p invert) | LXC2(m parity) ]
//! ```
//!
//! and enforces the paper's five composition conditions:
//!
//! 1. CAC is outermost (nonlinear, disruptive mapping) — by construction.
//! 2. LPC must not destroy the CAC constraint — bus-invert composes with
//!    FP-based CACs (complementing preserves the FP condition) but not
//!    with FT-based ones; illegal pairs are rejected.
//! 3. LPC invert bits go through a linear CAC (LXC1).
//! 4. ECC is systematic — all ECCs here are.
//! 5. ECC parity bits go through a linear CAC (LXC2).
//!
//! The composer yields a working [`ComposedCode`], a [`Chain`] of the
//! chosen components laid out by one [`Layout`] — the same chain and
//! layout types the paper's named joint codes in [`crate::joint`] are
//! assembled from.

use crate::cac::{
    fpc_wires_for_bits, ftc_wires_for_bits, Duplication, ForbiddenPatternCode,
    ForbiddenTransitionCode, Shielding,
};
use crate::chain::Chain;
use crate::ecc::{hamming_parity_bits, ExtendedHamming, Hamming, ParityBit};
use crate::layout::Layout;
use crate::lpc::BusInvert;
use crate::traits::{BusCode, Uncoded};
use socbus_model::word::MAX_WIDTH;
use std::fmt;

/// CAC component selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CacChoice {
    /// No crosstalk avoidance on the data bits.
    #[default]
    None,
    /// Grounded shield between data wires (FT, linear).
    Shielding,
    /// Every bit duplicated (FP, linear).
    Duplication,
    /// Fibonacci-codebook forbidden-transition code (FT, nonlinear).
    Ftc,
    /// Forbidden-pattern codebook (FP, nonlinear).
    Fpc,
}

impl CacChoice {
    /// The CAC's part of a composed code's name.
    fn label(self) -> Option<&'static str> {
        match self {
            CacChoice::None => None,
            CacChoice::Shielding => Some("Shield"),
            CacChoice::Duplication => Some("Dup"),
            CacChoice::Ftc => Some("FTC"),
            CacChoice::Fpc => Some("FPC"),
        }
    }

    /// Whether this CAC's guarantee survives complementing the code bits.
    fn survives_inversion(self) -> bool {
        matches!(
            self,
            CacChoice::None | CacChoice::Duplication | CacChoice::Fpc
        )
    }
}

/// LPC component selection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum LpcChoice {
    /// No low-power coding.
    #[default]
    None,
    /// Bus-invert with the given number of sub-buses.
    BusInvert(usize),
}

/// ECC component selection (all systematic, per condition 4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum EccChoice {
    /// No error control.
    #[default]
    None,
    /// Single even-parity bit (detect 1).
    Parity,
    /// Hamming (correct 1).
    Hamming,
    /// Extended Hamming (correct 1, detect 2).
    ExtendedHamming,
}

/// Linear crosstalk-avoidance code for invert/parity side bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LxcChoice {
    /// Each side bit flanked by a grounded shield: `b → 2b` wires, and the
    /// leading shield isolates the region from its left neighbor.
    Shielding,
    /// Each side bit duplicated: `b → 2b` wires.
    Duplication,
}

/// Errors rejected by the framework's composition rules.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompositionError {
    /// Condition 2: the chosen LPC would destroy the CAC constraint
    /// (e.g. bus-invert over an FT-based code).
    LpcBreaksCac { cac: &'static str },
    /// Condition 3: an LPC produces invert bits but no LXC1 was given
    /// while the data bits carry a CAC guarantee.
    MissingLxc1,
    /// Condition 5: an ECC produces parity bits but no LXC2 was given
    /// while the data bits carry a CAC guarantee.
    MissingLxc2,
    /// The assembled bus exceeds the word-width limit (`wires` is a lower
    /// bound when the data word alone already does).
    TooWide { wires: usize },
    /// There are no data bits to code (`k = 0`).
    NoDataBits,
    /// Bus-invert needs between one sub-bus and one per code wire.
    SubBuses { sub_buses: usize, wires: usize },
    /// The forbidden-pattern codebook is enumerated in one group of at
    /// most 16 data bits.
    FpcTooWide { k: usize },
}

impl fmt::Display for CompositionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompositionError::LpcBreaksCac { cac } => {
                write!(f, "bus-invert destroys the {cac} crosstalk constraint")
            }
            CompositionError::MissingLxc1 => {
                write!(
                    f,
                    "invert bits need a linear CAC (LXC1) to keep the delay guarantee"
                )
            }
            CompositionError::MissingLxc2 => {
                write!(
                    f,
                    "parity bits need a linear CAC (LXC2) to keep the delay guarantee"
                )
            }
            CompositionError::TooWide { wires } => {
                write!(f, "composed bus of {wires} wires is too wide")
            }
            CompositionError::NoDataBits => write!(f, "a code needs at least one data bit"),
            CompositionError::SubBuses { sub_buses, wires } => {
                write!(
                    f,
                    "bus-invert over {wires} wires cannot have {sub_buses} sub-buses"
                )
            }
            CompositionError::FpcTooWide { k } => {
                write!(f, "the FPC codebook covers at most 16 data bits, not {k}")
            }
        }
    }
}

impl std::error::Error for CompositionError {}

/// Builder for a framework instance.
///
/// # Examples
///
/// A "generic DAPBI": duplication CAC + BI(1) + parity, invert bit through
/// LXC1 = duplication:
///
/// ```
/// use socbus_codes::framework::{CacChoice, EccChoice, Framework, LpcChoice, LxcChoice};
/// use socbus_codes::BusCode;
/// use socbus_model::Word;
///
/// # fn main() -> Result<(), socbus_codes::framework::CompositionError> {
/// let mut code = Framework::new(4)
///     .cac(CacChoice::Duplication)
///     .lpc(LpcChoice::BusInvert(1))
///     .lxc1(LxcChoice::Duplication)
///     .ecc(EccChoice::Parity)
///     .lxc2(LxcChoice::Duplication)
///     .build()?;
/// let d = Word::from_bits(0b1010, 4);
/// let coded = code.encode(d);
/// assert_eq!(code.decode(coded), d);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Framework {
    k: usize,
    cac: CacChoice,
    lpc: LpcChoice,
    ecc: EccChoice,
    lxc1: Option<LxcChoice>,
    lxc2: Option<LxcChoice>,
}

impl Framework {
    /// Starts a framework instance over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Framework {
            k,
            ..Framework::default()
        }
    }

    /// Selects the crosstalk-avoidance component.
    #[must_use]
    pub fn cac(mut self, c: CacChoice) -> Self {
        self.cac = c;
        self
    }

    /// Selects the low-power component.
    #[must_use]
    pub fn lpc(mut self, l: LpcChoice) -> Self {
        self.lpc = l;
        self
    }

    /// Selects the error-control component.
    #[must_use]
    pub fn ecc(mut self, e: EccChoice) -> Self {
        self.ecc = e;
        self
    }

    /// Selects the linear CAC protecting the invert bits.
    #[must_use]
    pub fn lxc1(mut self, l: LxcChoice) -> Self {
        self.lxc1 = Some(l);
        self
    }

    /// Selects the linear CAC protecting the parity bits.
    #[must_use]
    pub fn lxc2(mut self, l: LxcChoice) -> Self {
        self.lxc2 = Some(l);
        self
    }

    /// Validates the composition rules and the widths, then assembles the
    /// code. Every width is computed before any component is built, so an
    /// impossible bus is an error, never a panic.
    ///
    /// # Errors
    ///
    /// Returns a [`CompositionError`] when the combination violates one of
    /// the paper's conditions (see module docs) or cannot fit a bus.
    pub fn build(self) -> Result<ComposedCode, CompositionError> {
        let k = self.k;
        let has_cac_guarantee = !matches!(self.cac, CacChoice::None);
        if !matches!(self.lpc, LpcChoice::None) && !self.cac.survives_inversion() {
            let name = match self.cac {
                CacChoice::Shielding => "shielding",
                CacChoice::Ftc => "FTC",
                _ => unreachable!("inversion-safe CACs handled above"),
            };
            return Err(CompositionError::LpcBreaksCac { cac: name });
        }
        if has_cac_guarantee && !matches!(self.lpc, LpcChoice::None) && self.lxc1.is_none() {
            return Err(CompositionError::MissingLxc1);
        }
        if has_cac_guarantee && !matches!(self.ecc, EccChoice::None) && self.lxc2.is_none() {
            return Err(CompositionError::MissingLxc2);
        }
        if k == 0 {
            return Err(CompositionError::NoDataBits);
        }
        if k > MAX_WIDTH {
            return Err(CompositionError::TooWide { wires: k });
        }

        let n = match self.cac {
            CacChoice::None => k,
            CacChoice::Shielding => 2 * k - 1,
            CacChoice::Duplication => 2 * k,
            CacChoice::Ftc => ftc_wires_for_bits(k),
            CacChoice::Fpc if k > 16 => return Err(CompositionError::FpcTooWide { k }),
            CacChoice::Fpc => fpc_wires_for_bits(k),
        };
        let p = match self.lpc {
            LpcChoice::None => 0,
            LpcChoice::BusInvert(i) if i == 0 || i > n => {
                return Err(CompositionError::SubBuses {
                    sub_buses: i,
                    wires: n,
                })
            }
            LpcChoice::BusInvert(i) => i,
        };
        let m = match self.ecc {
            EccChoice::None => 0,
            EccChoice::Parity => 1,
            EccChoice::Hamming => hamming_parity_bits(n + p),
            EccChoice::ExtendedHamming => hamming_parity_bits(n + p) + 1,
        };
        let layout = Layout::identity(n)
            .then(&side_layout(self.lxc1, p))
            .then(&side_layout(self.lxc2, m));
        if layout.wires() > MAX_WIDTH {
            return Err(CompositionError::TooWide {
                wires: layout.wires(),
            });
        }

        let cac: Option<Box<dyn BusCode>> = match self.cac {
            CacChoice::None => None,
            CacChoice::Shielding => Some(Box::new(Shielding::new(k))),
            CacChoice::Duplication => Some(Box::new(Duplication::new(k))),
            CacChoice::Ftc => Some(Box::new(ForbiddenTransitionCode::new(k))),
            CacChoice::Fpc => Some(Box::new(ForbiddenPatternCode::new(k))),
        };
        let lpc: Option<Box<dyn BusCode>> = match self.lpc {
            LpcChoice::None => None,
            LpcChoice::BusInvert(i) => Some(Box::new(BusInvert::new(n, i))),
        };
        let ecc: Box<dyn BusCode> = match self.ecc {
            EccChoice::None => Box::new(Uncoded::new(n + p)),
            EccChoice::Parity => Box::new(ParityBit::new(n + p)),
            EccChoice::Hamming => Box::new(Hamming::new(n + p)),
            EccChoice::ExtendedHamming => Box::new(ExtendedHamming::new(n + p)),
        };
        let name = [
            self.cac.label().map(String::from),
            lpc.as_ref().map(|bi| bi.name()),
            (self.ecc != EccChoice::None).then(|| ecc.name()),
        ]
        .into_iter()
        .flatten()
        .reduce(|a, b| format!("{a}+{b}"))
        .unwrap_or_else(|| "Uncoded".into());
        // CAC then LPC is itself a chain: BI over the CAC's n wires.
        let outer: Option<Box<dyn BusCode>> = match (cac, lpc) {
            (Some(cac), Some(bi)) => Some(Box::new(Chain::new("", Some(cac), None, bi, None))),
            (cac, lpc) => lpc.or(cac),
        };
        let tap = (p > 0).then(|| Layout::bus_invert(n, p));
        Ok(Chain::new(name, outer, tap, ecc, Some(layout)))
    }
}

/// The layout of `bits` side bits through an LXC: `[S, b0, S, b1, …]`
/// for shielding, `[b0, b0, b1, b1, …]` for duplication, in order without
/// one.
fn side_layout(lxc: Option<LxcChoice>, bits: usize) -> Layout {
    match lxc {
        None => Layout::identity(bits),
        Some(LxcChoice::Shielding) => Layout::shield_each(bits),
        Some(LxcChoice::Duplication) => Layout::duplicated(bits),
    }
}

/// A code assembled by the [`Framework`] builder: a [`Chain`] whose outer
/// stage is the CAC and/or LPC, whose inner stage is the ECC over the
/// code and invert bits, and whose layout is
/// `[n CAC/LPC code wires | LXC1(invert bits) | LXC2(parity)]`.
/// Decoding runs ECC → LPC → CAC, the order condition 1 mandates.
pub type ComposedCode = Chain<Box<dyn BusCode>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::DecodeStatus;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use socbus_model::Word;

    fn roundtrip(code: &mut ComposedCode, k: usize, trials: usize, seed: u64) {
        let mut dec = code.clone();
        code.reset();
        dec.reset();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..trials {
            let d = Word::from_bits(rng.gen::<u128>(), k);
            assert_eq!(dec.decode(code.encode(d)), d, "{}", code.name());
        }
    }

    #[test]
    fn plain_combinations_roundtrip() {
        for cac in [
            CacChoice::None,
            CacChoice::Shielding,
            CacChoice::Duplication,
            CacChoice::Ftc,
        ] {
            for ecc in [EccChoice::None, EccChoice::Parity, EccChoice::Hamming] {
                let mut b = Framework::new(6).cac(cac).ecc(ecc);
                if !matches!(cac, CacChoice::None) {
                    b = b.lxc2(LxcChoice::Shielding);
                }
                let mut code = b.build().expect("legal composition");
                roundtrip(&mut code, 6, 100, 7);
            }
        }
    }

    #[test]
    fn generic_dapbi_roundtrips_and_corrects() {
        let code = Framework::new(4)
            .cac(CacChoice::Duplication)
            .lpc(LpcChoice::BusInvert(1))
            .lxc1(LxcChoice::Duplication)
            .ecc(EccChoice::Hamming)
            .lxc2(LxcChoice::Duplication)
            .build()
            .expect("legal composition");
        let mut enc = code.clone();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..200 {
            let d = Word::from_bits(rng.gen::<u128>(), 4);
            let cw = enc.encode(d);
            let wire = rng.gen_range(0..cw.width());
            let mut dec = code.clone();
            assert_eq!(dec.decode(cw.with_bit(wire, !cw.bit(wire))), d);
        }
    }

    #[test]
    fn bih_equivalent_composition() {
        // LPC + ECC without CAC: no LXC needed (no delay guarantee to keep).
        let mut code = Framework::new(8)
            .lpc(LpcChoice::BusInvert(1))
            .ecc(EccChoice::Hamming)
            .build()
            .expect("legal composition");
        assert_eq!(code.wires(), 8 + 1 + 4);
        roundtrip(&mut code, 8, 200, 13);
    }

    #[test]
    fn condition2_rejects_bus_invert_over_ftc() {
        let err = Framework::new(6)
            .cac(CacChoice::Ftc)
            .lpc(LpcChoice::BusInvert(1))
            .lxc1(LxcChoice::Shielding)
            .build()
            .unwrap_err();
        assert!(matches!(err, CompositionError::LpcBreaksCac { .. }));
    }

    #[test]
    fn condition3_requires_lxc1() {
        let err = Framework::new(6)
            .cac(CacChoice::Duplication)
            .lpc(LpcChoice::BusInvert(1))
            .ecc(EccChoice::Parity)
            .lxc2(LxcChoice::Duplication)
            .build()
            .unwrap_err();
        assert_eq!(err, CompositionError::MissingLxc1);
    }

    #[test]
    fn condition5_requires_lxc2() {
        let err = Framework::new(6)
            .cac(CacChoice::Shielding)
            .ecc(EccChoice::Hamming)
            .build()
            .unwrap_err();
        assert_eq!(err, CompositionError::MissingLxc2);
    }

    #[test]
    fn impossible_widths_are_errors_not_panics() {
        use CompositionError::{FpcTooWide, NoDataBits, SubBuses, TooWide};
        let dup_hamming = Framework::new(127)
            .cac(CacChoice::Duplication)
            .ecc(EccChoice::Hamming)
            .lxc2(LxcChoice::Duplication);
        let cases = [
            (
                Framework::new(200).cac(CacChoice::Duplication),
                TooWide { wires: 400 },
            ),
            (
                Framework::new(200).cac(CacChoice::Shielding),
                TooWide { wires: 399 },
            ),
            (
                Framework::new(200).cac(CacChoice::Ftc),
                TooWide {
                    wires: crate::cac::ftc_wires_for_bits(200),
                },
            ),
            (
                Framework::new(200).cac(CacChoice::Fpc),
                FpcTooWide { k: 200 },
            ),
            (
                Framework::new(250).ecc(EccChoice::Hamming),
                TooWide { wires: 259 },
            ),
            (dup_hamming, TooWide { wires: 254 + 2 * 9 }),
            (Framework::new(0).ecc(EccChoice::Hamming), NoDataBits),
            (Framework::new(300), TooWide { wires: 300 }),
            (Framework::new(0), NoDataBits),
            (
                Framework::new(2).lpc(LpcChoice::BusInvert(3)),
                SubBuses {
                    sub_buses: 3,
                    wires: 2,
                },
            ),
            (
                Framework::new(2).lpc(LpcChoice::BusInvert(0)),
                SubBuses {
                    sub_buses: 0,
                    wires: 2,
                },
            ),
        ];
        for (framework, expect) in cases {
            let desc = format!("{framework:?}");
            assert_eq!(framework.build().unwrap_err(), expect, "{desc}");
        }
        // The widest legal buses still build.
        assert_eq!(Framework::new(256).build().unwrap().wires(), 256);
        assert_eq!(
            Framework::new(128)
                .cac(CacChoice::Duplication)
                .build()
                .unwrap()
                .wires(),
            256
        );
    }

    #[test]
    fn composed_name_reflects_components() {
        let code = Framework::new(4)
            .cac(CacChoice::Duplication)
            .ecc(EccChoice::Parity)
            .lxc2(LxcChoice::Duplication)
            .build()
            .unwrap();
        assert_eq!(code.name(), "Dup+Parity");
    }

    #[test]
    fn composed_dap_equivalent_has_dapx_wire_count() {
        // Duplication + parity with LXC2=duplication has DAPX's wire count
        // (2k data wires + 2 parity wires) but not its code: the parity
        // covers the duplicated wires, so it is always 0 and corrects
        // nothing, where DAPX's covers the data and corrects one error.
        let code = Framework::new(4)
            .cac(CacChoice::Duplication)
            .ecc(EccChoice::Parity)
            .lxc2(LxcChoice::Duplication)
            .build()
            .unwrap();
        assert_eq!(code.wires(), 10);
    }

    #[test]
    fn extended_hamming_detects_doubles_through_framework() {
        let code = Framework::new(6)
            .ecc(EccChoice::ExtendedHamming)
            .build()
            .unwrap();
        let mut enc = code.clone();
        let d = Word::from_bits(0b101101, 6);
        let cw = enc.encode(d);
        let bad = cw.with_bit(0, !cw.bit(0)).with_bit(3, !cw.bit(3));
        let mut dec = code.clone();
        let (_, status) = dec.decode_checked(bad);
        assert_eq!(status, DecodeStatus::Detected);
    }
}

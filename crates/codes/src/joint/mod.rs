//! Joint codes derived from the unified framework (paper §III, Table I).
//!
//! | Code | CAC | LPC | ECC | LXC1 | LXC2 | Composition | Paper |
//! |------|-----|-----|-----|------|------|-------------|-------|
//! | [`Dap`] | duplication | — | parity | — | — | hand-written component | §III-C |
//! | DAPX | duplication | — | parity | — | duplication | [DAP, parity wire duplicated](assemble#dapx) | §III-E |
//! | DAPBI | duplication | BI(1) | parity | duplication | — | [BI(1) then DAP](assemble#dapbi) | §III-D |
//! | BIH | — | BI(1) | Hamming | — | — | [BI(1) then Hamming](assemble#bih) | §III-B |
//! | HammingX | — | — | Hamming | — | half-shielding | [Hamming, parity half-shielded](assemble#hammingx) | §III-E |
//! | FTC+HC | FTC | — | Hamming | — | shielding | [FTC then Hamming over its code bits](assemble#ftchc) | §III-C |
//! | BSC | boundary shift | — | parity | — | — | [DAP, rotated every other word](assemble#bsc) | baseline \[19\] |
//!
//! DAP is the one hand-written component: its Fig. 6 decoder selects a
//! copy set by regenerating the parity of copy set A, which no
//! composition of a duplication CAC and a parity ECC reproduces (the
//! composer's parity covers the duplicated wires and corrects nothing).
//! The other six are [`Chain`]s of catalog components plus a [`Layout`],
//! assembled by [`assemble`] — one recipe for both the scalar codec
//! ([`Scheme::build`]) and the bit-sliced one ([`crate::batch_build`]).

mod dap;

pub use dap::Dap;

use crate::cac::ftc_layout;
use crate::catalog::Scheme;
use crate::chain::{Chain, Stage};
use crate::ecc::hamming_parity_bits;
use crate::layout::Layout;

/// Assembles joint `scheme` over `k` data bits as a [`Chain`], making
/// each stage with `part` — [`Scheme::build`] for the scalar codec,
/// [`crate::batch_build`] for the batch one. `None` for the schemes that
/// are not compositions.
///
/// The recipes, bus layouts left to right (`m` the inner code's parity
/// bits, `S` a grounded shield):
///
/// - <a id="bih"></a>**BIH** — `BI(1)` over the data, then Hamming over
///   the `k + 1` bits (data and invert wire): `[y, inv, p0..p(m-1)]`.
///   The netlist computes the parities in parallel with the invert
///   decision (the XOR trick of §III-B); the bits on the bus are the same.
/// - <a id="dapbi"></a>**DAPBI** — `BI(1)`, then DAP over the `k + 1`
///   bits: `[y0, y0, …, inv, inv, p]`.
/// - <a id="dapx"></a>**DAPX** — DAP with its parity wire duplicated:
///   `[d0, d0, …, p, p]`. The decoder reads the first parity copy.
/// - <a id="hammingx"></a>**HammingX** — Hamming with a singleton parity
///   next to the data, then shield-separated pairs:
///   `[d, p0, S, p1, p2, S, p3, …]`.
/// - <a id="ftchc"></a>**FTC+HC** — FTC, then Hamming over FTC's code
///   bits (its internal shields are not protected, and are re-grounded
///   on decode), parity behind shields: `[FTC, S, p0, S, p1, …]`.
/// - <a id="bsc"></a>**BSC** — DAP, on even words as is, on odd words
///   rotated one wire right: `[p, d0, d0, …]`.
pub fn assemble<S: Stage>(
    scheme: Scheme,
    k: usize,
    part: impl Fn(Scheme, usize) -> S,
) -> Option<Chain<S>> {
    let chain = |outer: Option<(Scheme, usize)>, tap, inner: (Scheme, usize), layout| {
        let outer = outer.map(|(s, k)| part(s, k));
        Chain::new(scheme.label(), outer, tap, part(inner.0, inner.1), layout)
    };
    let bi = Some((Scheme::BusInvert(1), k));
    Some(match scheme {
        Scheme::Bih => chain(bi, None, (Scheme::Hamming, k + 1), None),
        Scheme::Dapbi => chain(bi, None, (Scheme::Dap, k + 1), None),
        Scheme::Dapx => {
            let layout = Layout::identity(2 * k + 1).copy(2 * k, 1);
            chain(None, None, (Scheme::Dap, k), Some(layout))
        }
        Scheme::HammingX => {
            let m = hamming_parity_bits(k);
            let layout = Layout::identity(k + 1)
                .shield()
                .then(&Layout::half_shielded(m - 1));
            chain(None, None, (Scheme::Hamming, k), Some(layout))
        }
        Scheme::FtcHc => {
            let code = ftc_layout(k);
            let m = hamming_parity_bits(code.bits());
            let layout = code.clone().then(&Layout::shield_each(m));
            let inner = (Scheme::Hamming, code.bits());
            chain(Some((Scheme::Ftc, k)), Some(code), inner, Some(layout))
        }
        Scheme::Bsc => {
            let odd = Layout::new().run(2 * k, 1).run(0, 2 * k);
            chain(None, None, (Scheme::Dap, k), None).alternating(odd)
        }
        _ => return None,
    })
}

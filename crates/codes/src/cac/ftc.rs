//! Forbidden-transition codes (FTC) — Victor & Keutzer's CAC.
//!
//! A set of codewords satisfies the **FT condition** when no transition
//! between two codewords of the set drives adjacent wires in opposite
//! directions. The largest such set on `n` wires has Fibonacci size
//! `F(n+2)` (3, 5, 8, 13, … for n = 2, 3, 4, 5), so 4 wires carry 3 bits —
//! the `FTC(4,3)` sub-bus code the paper builds FTC+HC from.
//!
//! Wide buses are partitioned into sub-bus groups with one grounded shield
//! wire between groups (groups are FT-safe internally; the shield makes
//! the boundary safe). For 32 bits this yields the paper's 53 wires:
//! ten 3-bit groups (4 wires each) + one 2-bit group (3 wires) + ten
//! shields.

use std::sync::Arc;

use crate::kernels::{codebook_kernel, BookKey, CodebookKernel};
use crate::layout::Layout;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};

/// Whether the transition `u → v` satisfies the FT condition: at no wire
/// boundary do the two words carry `01` in one and `10` in the other.
#[must_use]
pub fn ft_compatible(u: Word, v: Word) -> bool {
    assert_eq!(u.width(), v.width(), "width mismatch");
    for i in 0..u.width().saturating_sub(1) {
        let du = (u.bit(i), u.bit(i + 1));
        let dv = (v.bit(i), v.bit(i + 1));
        if (du == (false, true) && dv == (true, false))
            || (du == (true, false) && dv == (false, true))
        {
            return false;
        }
    }
    true
}

/// The maximum FT-condition codebook on `wires` wires, found by exact
/// maximum-clique search over the FT-compatibility graph, returned in
/// ascending numeric order.
///
/// The size follows the Fibonacci sequence `F(wires+2)`.
///
/// Memoized: the clique search runs once per process per wire count;
/// repeated calls clone the cached book.
///
/// # Panics
///
/// Panics if `wires == 0` or `wires > 6` (the clique search is exact and
/// exponential; wider buses should be partitioned into groups).
#[must_use]
pub fn ftc_codebook(wires: usize) -> Vec<Word> {
    crate::kernels::ft_book(wires).as_ref().clone()
}

/// The raw clique search behind [`ftc_codebook`] — called through the
/// process-wide cache in [`crate::kernels`], at most once per `wires`.
pub(crate) fn search_ft_book(wires: usize) -> Vec<Word> {
    assert!(
        (1..=6).contains(&wires),
        "ftc_codebook supports 1..=6 wires"
    );
    let n_vert = 1usize << wires;
    // adjacency bitsets over at most 64 vertices
    let mut adj = vec![0u64; n_vert];
    for a in 0..n_vert {
        for b in (a + 1)..n_vert {
            let wa = Word::from_bits(a as u128, wires);
            let wb = Word::from_bits(b as u128, wires);
            if ft_compatible(wa, wb) {
                adj[a] |= 1 << b;
                adj[b] |= 1 << a;
            }
        }
    }
    let best = max_clique(&adj);
    let mut book: Vec<Word> = (0..n_vert)
        .filter(|v| best & (1 << v) != 0)
        .map(|v| Word::from_bits(v as u128, wires))
        .collect();
    book.sort();
    book
}

/// Exact maximum clique over ≤64 vertices (simple branch and bound).
fn max_clique(adj: &[u64]) -> u64 {
    fn expand(adj: &[u64], current: u64, candidates: u64, best: &mut u64) {
        if candidates == 0 {
            if current.count_ones() > best.count_ones() {
                *best = current;
            }
            return;
        }
        if current.count_ones() + candidates.count_ones() <= best.count_ones() {
            return; // bound
        }
        let mut cand = candidates;
        while cand != 0 {
            let v = cand.trailing_zeros() as usize;
            let vbit = 1u64 << v;
            cand &= !vbit;
            if (current | cand).count_ones() < best.count_ones() {
                return;
            }
            expand(adj, current | vbit, cand & adj[v], best);
        }
    }
    let mut best = 0u64;
    expand(
        adj,
        0,
        (1u128 << adj.len()).wrapping_sub(1) as u64,
        &mut best,
    );
    if adj.len() == 64 {
        // (1<<64) wrapped; recompute candidates mask as all-ones.
        best = 0;
        expand(adj, 0, u64::MAX, &mut best);
    }
    best
}

/// Group shape used when partitioning `k` data bits into FTC sub-buses.
///
/// 3-bit groups on 4 wires are the densest small group (`F(6) = 8`); a
/// remainder of 2 bits takes 3 wires (`F(5) = 5`) and a remainder of 1 is
/// merged with a 3-bit group into a 4-bit group on 6 wires (`F(8) = 21`),
/// which beats a separate 1-bit group plus shield. This reproduces the
/// paper's wire counts: 53 wires for 32 bits (Table III) and 6 FTC wires
/// inside the 14-wire 4-bit FTC+HC (Table II).
fn group_sizes(k: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let full = k / 3;
    let rem = k % 3;
    match (full, rem) {
        (0, r) => {
            // k < 3: one small group.
            debug_assert!(r == k);
            out.push((k, [0, 2, 3][k]));
        }
        (f, 1) => {
            // Fold the lone remainder bit into the last group: 4 bits / 6 wires.
            for _ in 0..f - 1 {
                out.push((3, 4));
            }
            out.push((4, 6));
        }
        (f, r) => {
            for _ in 0..f {
                out.push((3, 4));
            }
            if r == 2 {
                out.push((2, 3));
            }
        }
    }
    out
}

/// The `(data_bits, wires)` sub-bus partition used for `k` data bits —
/// exposed so the gate-level synthesizer can mirror the exact grouping.
#[must_use]
pub fn ftc_groups(k: usize) -> Vec<(usize, usize)> {
    group_sizes(k)
}

/// Total wires (groups + inter-group shields) for `k` data bits.
#[must_use]
pub fn ftc_wires_for_bits(k: usize) -> usize {
    let groups = group_sizes(k);
    groups.iter().map(|&(_, w)| w).sum::<usize>() + groups.len().saturating_sub(1)
}

/// The FTC bus for `k` data bits as a layout of its code bits: every
/// group's wires in order, one grounded shield between groups. FTC+HC
/// protects exactly these code bits with its Hamming code.
#[must_use]
pub fn ftc_layout(k: usize) -> Layout {
    group_sizes(k)
        .into_iter()
        .enumerate()
        .fold(Layout::new(), |layout, (g, (_, wires))| {
            let layout = if g == 0 { layout } else { layout.shield() };
            let next = layout.bits();
            layout.run(next, wires)
        })
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Group {
    data_lo: usize,
    bits: usize,
    wire_lo: usize,
    wires: usize,
    /// Shared decode kernel for this group's shape. Only four distinct
    /// shapes ever occur (`group_sizes`), so every FTC instance in the
    /// process — any width, encoder or decoder — shares the same four
    /// cached kernels.
    kernel: Arc<CodebookKernel>,
}

/// Partitioned forbidden-transition code over `k` data bits.
///
/// # Examples
///
/// ```
/// use socbus_codes::{BusCode, ForbiddenTransitionCode};
/// use socbus_model::Word;
///
/// // The paper's Table III row: FTC on 32 bits uses 53 wires.
/// let mut ftc = ForbiddenTransitionCode::new(32);
/// assert_eq!(ftc.wires(), 53);
/// let d = Word::from_bits(0xDEAD_BEEF, 32);
/// let coded = ftc.encode(d);
/// assert_eq!(ftc.decode(coded), d);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ForbiddenTransitionCode {
    k: usize,
    wires: usize,
    groups: Vec<Group>,
    /// Set bits at the inter-group shield wires. Only meaningful on the
    /// raw fast path (`wires <= 128`); zero otherwise.
    shield_mask: u128,
}

impl ForbiddenTransitionCode {
    /// FTC over `k` data bits.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or the coded bus exceeds the word limit.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        let wires = ftc_wires_for_bits(k);
        assert!(wires <= socbus_model::word::MAX_WIDTH, "FTC bus too wide");
        let mut groups = Vec::new();
        let mut data_lo = 0;
        let mut wire_lo = 0;
        for (bits, gw) in group_sizes(k) {
            groups.push(Group {
                data_lo,
                bits,
                wire_lo,
                wires: gw,
                kernel: codebook_kernel(BookKey::FtcGroup { bits, wires: gw }),
            });
            data_lo += bits;
            wire_lo += gw + 1; // +1 shield after the group
        }
        let mut shield_mask = 0u128;
        if wires <= 128 {
            for g in &groups[..groups.len() - 1] {
                shield_mask |= 1u128 << (g.wire_lo + g.wires);
            }
        }
        ForbiddenTransitionCode {
            k,
            wires,
            groups,
            shield_mask,
        }
    }

    /// The reference linear-scan decoder (per group: exact match, then
    /// first-minimum nearest codeword — the same lowest-index tie-break
    /// as [`BusCode::decode`]). Kept for the decode-equivalence tests
    /// and the `bench --bin codec` scan baseline.
    #[must_use]
    pub fn decode_scan(&self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let mut out = Word::zero(self.k);
        for g in &self.groups {
            let recv = bus.slice(g.wire_lo, g.wires);
            let (idx, _) = g.kernel.decode_index_scan(recv);
            for b in 0..g.bits {
                out.set_bit(g.data_lo + b, (idx >> b) & 1 == 1);
            }
        }
        out
    }
}

impl BusCode for ForbiddenTransitionCode {
    fn name(&self) -> String {
        "FTC".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        if self.wires <= 128 {
            // Raw fast path: assemble the bus in one u128, no per-bit
            // Word mutation. Shields stay 0.
            let raw = data.bits();
            let mut out = 0u128;
            for g in &self.groups {
                #[allow(clippy::cast_possible_truncation)]
                let idx = ((raw >> g.data_lo) & ((1u128 << g.bits) - 1)) as usize;
                out |= g.kernel.codeword_bits(idx) << g.wire_lo;
            }
            return Word::from_bits(out, self.wires);
        }
        let mut out = Word::zero(self.wires);
        for g in &self.groups {
            #[allow(clippy::cast_possible_truncation)]
            let idx = data.slice(g.data_lo, g.bits).bits() as usize;
            let cw = g.kernel.book()[idx];
            for b in 0..g.wires {
                out.set_bit(g.wire_lo + b, cw.bit(b));
            }
        }
        out
    }

    /// Decodes each group via its kernel's inverse table: the exact match
    /// when the group slice is a codeword, else the **nearest codeword by
    /// Hamming distance, lowest codebook index on ties** — the pinned
    /// fallback contract (identical to a first-minimum linear scan, which
    /// the equivalence tests verify exhaustively). Shield wires are
    /// ignored here; [`BusCode::decode_checked`] inspects them.
    fn decode(&mut self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        if self.wires <= 128 {
            // Raw fast path: per group one shift-mask, one inverse-table
            // load, one or-shift — no Word slicing.
            let raw = bus.bits();
            let mut out = 0u128;
            for g in &self.groups {
                let recv = (raw >> g.wire_lo) & ((1u128 << g.wires) - 1);
                let (idx, _) = g.kernel.decode_index_raw(recv);
                out |= (idx as u128) << g.data_lo;
            }
            return Word::from_bits(out, self.k);
        }
        let mut out = Word::zero(self.k);
        for g in &self.groups {
            let recv = bus.slice(g.wire_lo, g.wires);
            let (idx, _) = g.kernel.decode_index(recv);
            for b in 0..g.bits {
                out.set_bit(g.data_lo + b, (idx >> b) & 1 == 1);
            }
        }
        out
    }

    /// Like [`BusCode::decode`], but reports whether the received bus was
    /// a valid codeword: every group slice must match its codebook exactly
    /// **and** every inter-group shield wire must read 0, else the word is
    /// [`DecodeStatus::Detected`] (best-effort nearest data per group).
    /// FTC guarantees no minimum distance ([`BusCode::detectable_errors`]
    /// stays 0) — the status is best-effort membership checking, not a
    /// detection promise.
    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let mut valid;
        let out;
        if self.wires <= 128 {
            let raw = bus.bits();
            // Shield wires sit just past every group but the last; the
            // encoder grounds them, so any set shield marks corruption.
            valid = raw & self.shield_mask == 0;
            let mut bits = 0u128;
            for g in &self.groups {
                let recv = (raw >> g.wire_lo) & ((1u128 << g.wires) - 1);
                let (idx, exact) = g.kernel.decode_index_raw(recv);
                valid &= exact;
                bits |= (idx as u128) << g.data_lo;
            }
            out = Word::from_bits(bits, self.k);
        } else {
            let mut bits = Word::zero(self.k);
            valid = true;
            for g in &self.groups {
                let recv = bus.slice(g.wire_lo, g.wires);
                let (idx, exact) = g.kernel.decode_index(recv);
                valid &= exact;
                for b in 0..g.bits {
                    bits.set_bit(g.data_lo + b, (idx >> b) & 1 == 1);
                }
            }
            for g in &self.groups[..self.groups.len() - 1] {
                valid &= !bus.bit(g.wire_lo + g.wires);
            }
            out = bits;
        }
        let status = if valid {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (out, status)
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
    fn codebook_sizes_are_fibonacci() {
        assert_eq!(ftc_codebook(1).len(), 2);
        assert_eq!(ftc_codebook(2).len(), 3);
        assert_eq!(ftc_codebook(3).len(), 5);
        assert_eq!(ftc_codebook(4).len(), 8);
        assert_eq!(ftc_codebook(5).len(), 13);
        assert_eq!(ftc_codebook(6).len(), 21);
    }

    #[test]
    fn codebook_is_pairwise_ft_compatible() {
        for wires in 2..=5 {
            let book = ftc_codebook(wires);
            for &a in &book {
                for &b in &book {
                    assert!(ft_compatible(a, b), "{a} vs {b} on {wires} wires");
                }
            }
        }
    }

    #[test]
    fn wire_counts_match_paper() {
        assert_eq!(ftc_wires_for_bits(32), 53); // Table III
        assert_eq!(ftc_wires_for_bits(3), 4); // FTC(4,3)
        assert_eq!(ftc_wires_for_bits(4), 6); // FTC part of 4-bit FTC+HC
        assert_eq!(ftc_wires_for_bits(6), 9); // two 3-bit groups + shield
        assert_eq!(ftc_wires_for_bits(7), 11); // 3-bit + 4-bit + shield
        assert_eq!(ftc_wires_for_bits(1), 2);
        assert_eq!(ftc_wires_for_bits(2), 3);
    }

    #[test]
    fn roundtrip_small_and_wide() {
        for k in [1usize, 2, 3, 4, 5, 7, 8] {
            let mut c = ForbiddenTransitionCode::new(k);
            for w in Word::enumerate_all(k) {
                assert_eq!(
                    {
                        let cw = c.encode(w);
                        c.decode(cw)
                    },
                    w,
                    "k={k}"
                );
            }
        }
    }

    #[test]
    fn worst_case_delay_is_cac_class_exhaustive() {
        // Full-bus check including the group-boundary shields.
        let lambda = 3.1;
        let mut c = ForbiddenTransitionCode::new(4);
        let mut worst: f64 = 0.0;
        for b in Word::enumerate_all(4) {
            for a in Word::enumerate_all(4) {
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
    fn ft_compatibility_examples() {
        let w = |b: u128| Word::from_bits(b, 2);
        assert!(!ft_compatible(w(0b01), w(0b10)));
        assert!(ft_compatible(w(0b00), w(0b11)));
        assert!(ft_compatible(w(0b01), w(0b11)));
        assert!(ft_compatible(w(0b01), w(0b00)));
    }

    #[test]
    fn decode_nearest_recovers_single_group_error() {
        // Not guaranteed correction, but the nearest-codeword fallback must
        // return *some* valid data word without panicking.
        let mut c = ForbiddenTransitionCode::new(3);
        let cw = c.encode(Word::from_bits(0b101, 3));
        let corrupted = cw.with_bit(0, !cw.bit(0));
        let _ = c.decode(corrupted);
    }
}

//! Bus layouts: which logical bit drives which wire.
//!
//! Every code in the crate ends in the same physical decision: the bits
//! its stages computed go onto wires — some on two adjacent wires
//! (duplication), some between grounded shields, the rest in order — and
//! the decoder reads them back. [`Layout`] owns that decision once, for
//! the shielding, half-shielding and duplication CACs, the framework's
//! LXC side-bit regions and bus-invert split, and the joint codes' bus
//! orders. It has a scalar form over [`Word`] and a batch form over
//! [`WordBlock`], where placing bits only moves lanes.

use crate::batch::{BlockStatus, WordBlock};
use crate::lpc::Partition;
use crate::traits::DecodeStatus;
use socbus_model::Word;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// The wires the decoder reads.
    Primary,
    /// Extra copies of bits that already have a primary wire.
    Copy,
    /// Grounded wires; they carry no bit.
    Shield,
}

/// `count` groups of `len` adjacent wires of one kind: group `g` starts
/// at wire `wire + g * stride` and carries logical bits from
/// `bit + g * len` (shields carry none), so a whole shielded or
/// duplicated region is one run. Fields are `u16` — layouts span a few
/// hundred wires — to keep codecs small.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Run {
    kind: Kind,
    bit: u16,
    wire: u16,
    len: u16,
    count: u16,
    stride: u16,
}

impl Run {
    fn len(self) -> usize {
        usize::from(self.len)
    }

    /// `(first bit, first wire)` of every group.
    fn groups(self) -> impl Iterator<Item = (usize, usize)> {
        let (bit, wire) = (usize::from(self.bit), usize::from(self.wire));
        (0..usize::from(self.count))
            .map(move |g| (bit + g * self.len(), wire + g * usize::from(self.stride)))
    }

    /// Every `(bit, wire)` the run covers.
    fn cells(self) -> impl Iterator<Item = (usize, usize)> {
        self.groups()
            .flat_map(move |(b, w)| (0..self.len()).map(move |i| (b + i, w + i)))
    }
}

/// `x` as a run field.
fn narrow(x: usize) -> u16 {
    u16::try_from(x).expect("layouts span at most 65535 wires")
}

/// A map from `bits` logical bits onto `wires` bus wires.
///
/// Each logical bit has one *primary* wire, the copy the decoder reads.
/// It may also drive extra *copies* (duplication), which are never read
/// back but can be checked against the primary. Every wire that carries
/// no bit is a grounded *shield*.
///
/// Layouts are built left to right: [`Layout::run`] appends the primary
/// wires of given logical bits, [`Layout::copy`] wires with copies of
/// bits already placed, [`Layout::shield`] a shield, and
/// [`Layout::then`] a whole layout over the next logical bits.
///
/// # Examples
///
/// ```
/// use socbus_codes::layout::Layout;
/// use socbus_model::Word;
///
/// // [b0, b0, S, b1]: bit 0 duplicated, bit 1 behind a shield.
/// let layout = Layout::new().run(0, 1).copy(0, 1).shield().run(1, 1);
/// assert_eq!((layout.bits(), layout.wires()), (2, 4));
/// let bus = layout.place(Word::from_bits(0b11, 2));
/// assert_eq!(bus.to_string(), "1011");
/// assert_eq!(layout.read(bus), Word::from_bits(0b11, 2));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Layout {
    bits: usize,
    wires: usize,
    runs: Vec<Run>,
}

impl Layout {
    /// The empty layout: no bits, no wires.
    #[must_use]
    pub fn new() -> Self {
        Layout::default()
    }

    /// `n` bits on `n` wires, in order.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        Layout::new().run(0, n)
    }

    /// A regular layout of `bits` bits on `wires` wires, built directly
    /// from its strided runs `(kind, bit, wire, len, count, stride)`
    /// rather than wire by wire; empty runs are dropped.
    fn regular(
        bits: usize,
        wires: usize,
        runs: &[(Kind, usize, usize, usize, usize, usize)],
    ) -> Self {
        let runs = runs
            .iter()
            .filter(|r| r.3 > 0 && r.4 > 0)
            .map(|&(kind, bit, wire, len, count, stride)| Run {
                kind,
                bit: narrow(bit),
                wire: narrow(wire),
                len: narrow(len),
                count: narrow(count),
                stride: narrow(stride),
            })
            .collect();
        Layout { bits, wires, runs }
    }

    /// Full shielding: `[b0, S, b1, S, …, b(n-1)]`, `2n − 1` wires.
    #[must_use]
    pub fn shielded(n: usize) -> Self {
        let s = n.saturating_sub(1);
        let runs = [
            (Kind::Primary, 0, 0, 1, n, 2),
            (Kind::Shield, 0, 1, 1, s, 2),
        ];
        Layout::regular(n, n + s, &runs)
    }

    /// Every bit behind its own leading shield: `[S, b0, S, b1, …]`,
    /// `2n` wires. The leading shield isolates the region from its left
    /// neighbour (the framework's shielding LXC).
    #[must_use]
    pub fn shield_each(n: usize) -> Self {
        let runs = [
            (Kind::Shield, 0, 0, 1, n, 2),
            (Kind::Primary, 0, 1, 1, n, 2),
        ];
        Layout::regular(n, 2 * n, &runs)
    }

    /// Half-shielding: pairs of bits with a shield between consecutive
    /// pairs, `[b0, b1, S, b2, b3, S, b4]`, `n + ⌈n/2⌉ − 1` wires.
    #[must_use]
    pub fn half_shielded(n: usize) -> Self {
        let (pairs, odd, s) = (n / 2, n % 2, n.saturating_sub(1) / 2);
        let runs = [
            (Kind::Primary, 0, 0, 2, pairs, 3),
            (Kind::Primary, n - odd, 3 * pairs, odd, 1, 3),
            (Kind::Shield, 0, 2, 1, s, 3),
        ];
        Layout::regular(n, n + s, &runs)
    }

    /// Duplication: `[b0, b0, b1, b1, …]`, `2n` wires; the even wire of
    /// each pair is the primary.
    #[must_use]
    pub fn duplicated(n: usize) -> Self {
        let runs = [(Kind::Primary, 0, 0, 1, n, 2), (Kind::Copy, 0, 1, 1, n, 2)];
        Layout::regular(n, 2 * n, &runs)
    }

    /// The bus-invert split of `BI(i)` over `k` bits: logical bits
    /// `[code bits | invert bits]` on the interleaved `BI(i)` wires, where
    /// each sub-bus's invert wire directly follows its code wires (sub-bus
    /// sizes as in [`crate::lpc::BusInvert`]). Reading a `BI(i)` word
    /// through it separates code from invert bits; placing merges them.
    #[must_use]
    pub fn bus_invert(k: usize, i: usize) -> Self {
        Partition::new(k, i)
            .subs()
            .enumerate()
            .fold(Layout::new(), |l, (s, sub)| {
                l.run(sub.data_lo, sub.len).run(k + s, 1)
            })
    }

    /// Appends `len` wires of `kind` carrying bits from `bit`, extending
    /// the last run when the new wires continue it.
    fn push(&mut self, kind: Kind, bit: usize, len: usize) {
        let (bit, wire, len) = (narrow(bit), narrow(self.wires), narrow(len));
        self.wires += usize::from(len);
        match self.runs.last_mut() {
            _ if len == 0 => {}
            Some(r)
                if r.kind == kind
                    && r.count == 1
                    && r.wire + r.len == wire
                    && (kind == Kind::Shield || r.bit + r.len == bit) =>
            {
                r.len += len;
            }
            _ => self.runs.push(Run {
                kind,
                bit,
                wire,
                len,
                count: 1,
                stride: len,
            }),
        }
    }

    /// Appends wires carrying logical bits `bit..bit + len`, their
    /// primary wires: the copies the decoder reads. Each bit gets one.
    #[must_use]
    pub fn run(mut self, bit: usize, len: usize) -> Self {
        self.bits += len;
        self.push(Kind::Primary, bit, len);
        self
    }

    /// Appends wires carrying extra copies of logical bits
    /// `bit..bit + len`, which already have their primary wires.
    ///
    /// # Panics
    ///
    /// Panics if a bit has no primary wire yet.
    #[must_use]
    pub fn copy(mut self, bit: usize, len: usize) -> Self {
        assert!(
            (bit..bit + len).all(|b| self.primary_wire(b).is_some()),
            "a copied bit needs its primary wire first"
        );
        self.push(Kind::Copy, bit, len);
        self
    }

    /// Appends one grounded shield wire.
    #[must_use]
    pub fn shield(mut self) -> Self {
        self.push(Kind::Shield, 0, 1);
        self
    }

    /// Appends `other`'s wires, its logical bits numbered after this
    /// layout's.
    #[must_use]
    pub fn then(mut self, other: &Layout) -> Self {
        let (bits, wires) = (narrow(self.bits), narrow(self.wires));
        self.runs.extend(other.runs.iter().map(|r| Run {
            bit: if r.kind == Kind::Shield {
                0
            } else {
                r.bit + bits
            },
            wire: r.wire + wires,
            ..*r
        }));
        self.bits += other.bits;
        self.wires += other.wires;
        self
    }

    /// Number of logical bits.
    #[must_use]
    pub fn bits(&self) -> usize {
        self.bits
    }

    /// Number of bus wires.
    #[must_use]
    pub fn wires(&self) -> usize {
        self.wires
    }

    fn runs_of(&self, kind: Kind) -> impl Iterator<Item = Run> + '_ {
        self.runs.iter().copied().filter(move |r| r.kind == kind)
    }

    /// The wire the decoder reads logical bit `bit` from.
    fn primary_wire(&self, bit: usize) -> Option<usize> {
        self.runs_of(Kind::Primary).find_map(|r| {
            let off = bit.checked_sub(usize::from(r.bit))?;
            let (group, i) = (off / r.len(), off % r.len());
            (group < usize::from(r.count))
                .then(|| usize::from(r.wire) + group * usize::from(r.stride) + i)
        })
    }

    /// `(primary wire, copy wire)` of every extra copy.
    pub(crate) fn copy_pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.runs_of(Kind::Copy)
            .flat_map(Run::cells)
            .map(|(bit, wire)| {
                let primary = self.primary_wire(bit).expect("copies follow primaries");
                (primary, wire)
            })
    }

    /// The grounded shield wires.
    fn shield_wires(&self) -> impl Iterator<Item = usize> + '_ {
        self.runs_of(Kind::Shield)
            .flat_map(Run::cells)
            .map(|(_, w)| w)
    }

    /// `(first bit, first wire, len)` of every group that carries bits:
    /// the primary wires, and the copies too when `copies`.
    fn carriers(&self, copies: bool) -> impl Iterator<Item = (usize, usize, usize)> + '_ {
        self.runs
            .iter()
            .filter(move |r| r.kind == Kind::Primary || copies && r.kind == Kind::Copy)
            .flat_map(|r| r.groups().map(move |(b, w)| (b, w, r.len())))
    }

    /// Drives `bits` onto a bus word: every primary and copy wire gets its
    /// bit, every shield 0.
    ///
    /// # Panics
    ///
    /// Panics if `bits.width() != self.bits()`.
    #[must_use]
    pub fn place(&self, bits: Word) -> Word {
        assert_eq!(bits.width(), self.bits, "layout bit count mismatch");
        let mut out = Word::zero(self.wires);
        for (b, w, len) in self.carriers(true) {
            if len == 1 {
                out.set_bit(w, bits.bit(b));
            } else {
                out.set_slice(w, bits.slice(b, len));
            }
        }
        out
    }

    /// Reads the logical bits back from their primary wires; copies and
    /// shields are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != self.wires()`.
    #[must_use]
    pub fn read(&self, bus: Word) -> Word {
        assert_eq!(bus.width(), self.wires, "layout wire count mismatch");
        let mut out = Word::zero(self.bits);
        for (b, w, len) in self.carriers(false) {
            if len == 1 {
                out.set_bit(b, bus.bit(w));
            } else {
                out.set_slice(b, bus.slice(w, len));
            }
        }
        out
    }

    /// [`Layout::read`] plus a membership check: [`DecodeStatus::Clean`]
    /// when every shield reads 0 and every copy equals its primary, else
    /// [`DecodeStatus::Detected`] — the linear CACs' `decode_checked`.
    #[must_use]
    pub fn read_checked(&self, bus: Word) -> (Word, DecodeStatus) {
        let out = self.read(bus);
        let placed = self.shield_wires().all(|w| !bus.bit(w))
            && self.copy_pairs().all(|(p, c)| bus.bit(p) == bus.bit(c));
        let status = if placed {
            DecodeStatus::Clean
        } else {
            DecodeStatus::Detected
        };
        (out, status)
    }

    /// Batch [`Layout::place`]: lane moves only.
    ///
    /// # Panics
    ///
    /// Panics if `bits.width() != self.bits()`.
    #[must_use]
    pub fn place_block(&self, bits: &WordBlock) -> WordBlock {
        assert_eq!(bits.width(), self.bits, "layout bit count mismatch");
        let mut out = WordBlock::zero(self.wires, bits.len());
        for (b, w, len) in self.carriers(true) {
            move_lanes(bits.lanes(), b, out.lanes_mut(), w, len);
        }
        out
    }

    /// Batch [`Layout::read`]: lane moves only.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != self.wires()`.
    #[must_use]
    pub fn read_block(&self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires, "layout wire count mismatch");
        let mut out = WordBlock::zero(self.bits, bus.len());
        for (b, w, len) in self.carriers(false) {
            move_lanes(bus.lanes(), w, out.lanes_mut(), b, len);
        }
        out
    }

    /// Batch [`Layout::read_checked`]: one OR tree over the shield lanes
    /// and the copy-mismatch planes.
    #[must_use]
    pub fn read_checked_block(&self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let out = self.read_block(bus);
        let lanes = bus.lanes();
        let shields = self.shield_wires().fold(0u64, |acc, w| acc | lanes[w]);
        let misplaced = self
            .copy_pairs()
            .fold(shields, |acc, (p, c)| acc | (lanes[p] ^ lanes[c]));
        let valid = bus.valid_mask();
        let status = BlockStatus {
            clean: valid & !misplaced,
            detected: valid & misplaced,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// Copies `len` lanes from `src[from..]` to `dst[to..]`; single lanes —
/// every group of the shielded and duplicated layouts — without a
/// memcpy.
fn move_lanes(src: &[u64], from: usize, dst: &mut [u64], to: usize, len: usize) {
    if len == 1 {
        dst[to] = src[from];
    } else {
        dst[to..to + len].copy_from_slice(&src[from..from + len]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word(bits: &str) -> Word {
        // MSB-first, like Word's Display.
        let bools: Vec<bool> = bits.chars().rev().map(|c| c == '1').collect();
        Word::from_bools(&bools)
    }

    /// The layout built one wire at a time from `slots`: `Some(bit)` a
    /// bit (its first wire the primary), `None` a shield.
    fn wire_by_wire(slots: &[Option<usize>]) -> Layout {
        let mut seen = Vec::new();
        slots.iter().fold(Layout::new(), |l, slot| match *slot {
            None => l.shield(),
            Some(b) if seen.contains(&b) => l.copy(b, 1),
            Some(b) => {
                seen.push(b);
                l.run(b, 1)
            }
        })
    }

    /// Every `(wire, bit)` of a layout, shields as `None`, by wire.
    fn cells(l: &Layout) -> Vec<(usize, Option<usize>)> {
        let mut cells: Vec<_> = l
            .runs
            .iter()
            .flat_map(|r| {
                r.cells()
                    .map(move |(bit, w)| (w, (r.kind != Kind::Shield).then_some(bit)))
            })
            .collect();
        cells.sort_unstable();
        cells
    }

    #[test]
    fn strided_layouts_match_their_wire_by_wire_builds() {
        for n in 0..9 {
            let slots = |f: &dyn Fn(usize) -> Vec<Option<usize>>| -> Vec<Option<usize>> {
                (0..n).flat_map(f).collect()
            };
            let shield_before = |i, shield: bool| {
                if shield {
                    vec![None, Some(i)]
                } else {
                    vec![Some(i)]
                }
            };
            for (strided, slots) in [
                (Layout::shielded(n), slots(&|i| shield_before(i, i > 0))),
                (Layout::shield_each(n), slots(&|i| shield_before(i, true))),
                (
                    Layout::half_shielded(n),
                    slots(&|i| shield_before(i, i > 0 && i % 2 == 0)),
                ),
                (Layout::duplicated(n), slots(&|i| vec![Some(i), Some(i)])),
            ] {
                let built = wire_by_wire(&slots);
                assert_eq!(
                    (strided.bits(), strided.wires()),
                    (built.bits(), built.wires())
                );
                assert_eq!(cells(&strided), cells(&built), "n={n}");
                let pairs = |l: &Layout| l.copy_pairs().collect::<Vec<_>>();
                assert_eq!(pairs(&strided), pairs(&built), "n={n}");
            }
        }
    }

    #[test]
    fn named_layouts_have_the_paper_shapes() {
        let ones = |n| Word::zero(n).not();
        assert_eq!(Layout::shielded(3).place(ones(3)).to_string(), "10101");
        assert_eq!(Layout::shield_each(2).place(ones(2)).to_string(), "1010");
        assert_eq!(
            Layout::half_shielded(5).place(ones(5)).to_string(),
            "1011011"
        );
        assert_eq!(Layout::duplicated(2).place(word("10")).to_string(), "1100");
        assert_eq!(
            Layout::shielded(4).shield_wires().collect::<Vec<_>>(),
            [1, 3, 5]
        );
    }

    #[test]
    fn bus_invert_split_separates_invert_wires() {
        // BI(2) on 5 bits: [c0 c1 c2 inv0 c3 c4 inv1].
        let layout = Layout::bus_invert(5, 2);
        assert_eq!((layout.bits(), layout.wires()), (7, 7));
        let bus = word("1000000"); // inv1 set
        assert_eq!(layout.read(bus), word("1000000"));
        let bus = word("0001000"); // inv0 set
        assert_eq!(layout.read(bus), word("0100000"));
        assert_eq!(layout.place(layout.read(bus)), bus);
    }

    #[test]
    fn then_renumbers_and_keeps_shields() {
        // [b0 b1 | S b2 S b3 | b4 b4]
        let layout = Layout::identity(2)
            .then(&Layout::shield_each(2))
            .then(&Layout::duplicated(1));
        assert_eq!((layout.bits(), layout.wires()), (5, 8));
        assert_eq!(layout.shield_wires().collect::<Vec<_>>(), [2, 4]);
        assert_eq!(layout.copy_pairs().collect::<Vec<_>>(), [(6, 7)]);
        let bits = word("10111");
        let bus = layout.place(bits);
        assert_eq!(bus.to_string(), "11001011");
        assert_eq!(layout.read(bus), bits);
        assert_eq!(layout.read_checked(bus), (bits, DecodeStatus::Clean));
        for bad in [bus.with_bit(2, true), bus.with_bit(7, false)] {
            assert_eq!(layout.read_checked(bad), (bits, DecodeStatus::Detected));
        }
    }

    #[test]
    fn rotated_layout_reads_back() {
        // [b4 b0 b1 b2 b3]: a one-wire rotation.
        let layout = Layout::new().run(4, 1).run(0, 4);
        let bits = word("10110");
        assert_eq!(layout.place(bits).to_string(), "01101");
        assert_eq!(layout.read(layout.place(bits)), bits);
    }

    #[test]
    fn block_forms_match_scalar_forms() {
        let layout = Layout::identity(70)
            .then(&Layout::half_shielded(5))
            .then(&Layout::duplicated(60));
        let mut seed = 7u64;
        let mut next = || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            seed
        };
        let words: Vec<Word> = (0..37)
            .map(|_| Word::from_limbs([next(), next(), next(), next()], layout.bits()))
            .collect();
        let placed = layout.place_block(&WordBlock::from_words(&words));
        let buses: Vec<Word> = words.iter().map(|&w| layout.place(w)).collect();
        assert_eq!(placed.to_words(), buses);
        assert_eq!(layout.read_block(&placed).to_words(), words);
        assert_eq!(layout.read_checked_block(&placed).1.detected, 0);
        let mut bad = placed.clone();
        bad.flip_bit(layout.wires() - 1, 5);
        bad.flip_bit(72, 9);
        assert_eq!(
            layout.read_checked_block(&bad).1.detected,
            (1 << 5) | (1 << 9)
        );
    }

    #[test]
    #[should_panic(expected = "needs its primary wire first")]
    fn copy_before_primary_panics() {
        let _ = Layout::identity(2).copy(2, 1);
    }
}

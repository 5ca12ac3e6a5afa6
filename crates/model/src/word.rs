//! Fixed-width bus words.
//!
//! A [`Word`] is the value carried by the parallel wires of an on-chip bus in
//! one clock cycle. Wire 0 is, by convention, the *first* (edge) wire of the
//! bus; adjacency of wire indices is physical adjacency, which is what the
//! crosstalk models in [`crate::delay`] and [`crate::energy`] act on.
//!
//! Words are value types backed by four 64-bit limbs, supporting buses of up
//! to 256 wires — the paper's widest evaluated design (DAPBI on a 64-bit
//! bus) needs 131.

use std::fmt;

/// Maximum supported bus width in wires.
pub const MAX_WIDTH: usize = 256;

const LIMBS: usize = MAX_WIDTH / 64;

/// A fixed-width binary word on a parallel bus.
///
/// Bit `i` of the word is the logic value on wire `i`. Two words on the same
/// bus must have equal [`width`](Word::width); operations that combine words
/// panic on width mismatch (this is a programming error, not a data error).
///
/// # Examples
///
/// ```
/// use socbus_model::Word;
///
/// let w = Word::from_bits(0b1011, 4);
/// assert_eq!(w.width(), 4);
/// assert!(w.bit(0) && w.bit(1) && !w.bit(2) && w.bit(3));
/// assert_eq!(w.count_ones(), 3);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Word {
    limbs: [u64; LIMBS],
    width: u16,
}

impl Word {
    /// Creates an all-zero word of the given width.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[inline]
    #[must_use]
    pub fn zero(width: usize) -> Self {
        assert!(width <= MAX_WIDTH, "bus width {width} exceeds {MAX_WIDTH}");
        Word {
            limbs: [0; LIMBS],
            width: width as u16,
        }
    }

    /// Creates a word from the low `width` bits of `bits`.
    ///
    /// Bits above `width` are masked off.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[must_use]
    pub fn from_bits(bits: u128, width: usize) -> Self {
        let mut w = Word::zero(width);
        w.limbs[0] = bits as u64;
        w.limbs[1] = (bits >> 64) as u64;
        w.mask_off();
        w
    }

    /// Creates a word from a slice of booleans, one per wire.
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > MAX_WIDTH`.
    #[must_use]
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut w = Word::zero(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            w.set_bit(i, b);
        }
        w
    }

    /// Clears any bits at or above `width`.
    #[inline]
    fn mask_off(&mut self) {
        let width = self.width as usize;
        for l in 0..LIMBS {
            let lo = l * 64;
            if width <= lo {
                self.limbs[l] = 0;
            } else if width < lo + 64 {
                self.limbs[l] &= (1u64 << (width - lo)) - 1;
            }
        }
    }

    /// Number of wires this word spans.
    #[must_use]
    pub fn width(self) -> usize {
        self.width as usize
    }

    /// The raw bit pattern as `u128` (low 128 wires).
    ///
    /// # Panics
    ///
    /// Panics if any wire at index 128 or above is set (the value would not
    /// fit); words up to width 128 always succeed. Callers that may see wider
    /// buses should use [`try_bits`](Word::try_bits) and degrade to the
    /// [`limb`](Word::limb) accessors instead.
    #[must_use]
    pub fn bits(self) -> u128 {
        self.try_bits()
            .expect("word has bits above 128; use try_bits()/limb() accessors")
    }

    /// The raw bit pattern as `u128`, or `None` if any wire at index 128 or
    /// above is set (the value would not fit).
    ///
    /// Non-panicking counterpart of [`bits`](Word::bits) for code that must
    /// keep working on 129–256-wire buses.
    #[must_use]
    pub fn try_bits(self) -> Option<u128> {
        if self.limbs[2] != 0 || self.limbs[3] != 0 {
            return None;
        }
        Some(u128::from(self.limbs[0]) | (u128::from(self.limbs[1]) << 64))
    }

    /// Number of 64-bit limbs backing every word ([`MAX_WIDTH`]` / 64`).
    pub const LIMB_COUNT: usize = LIMBS;

    /// Raw 64-bit limb `l` (wires `64*l .. 64*l + 64`), zero-padded above
    /// the word's width. Works at any width; the batch (bit-sliced) paths
    /// use this instead of [`bits`](Word::bits) so wide buses never panic.
    ///
    /// # Panics
    ///
    /// Panics if `l >= Self::LIMB_COUNT`.
    #[must_use]
    pub fn limb(self, l: usize) -> u64 {
        self.limbs[l]
    }

    /// Builds a word directly from its limbs; bits at or above `width` are
    /// masked off. Inverse of reading all [`limb`](Word::limb)s.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH`.
    #[inline]
    #[must_use]
    pub fn from_limbs(limbs: [u64; LIMBS], width: usize) -> Self {
        let mut w = Word::zero(width);
        w.limbs = limbs;
        w.mask_off();
        w
    }

    /// Logic value on wire `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    pub fn bit(self, i: usize) -> bool {
        assert!(
            i < self.width(),
            "wire {i} out of range for width {}",
            self.width
        );
        (self.limbs[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the logic value on wire `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn set_bit(&mut self, i: usize, value: bool) {
        assert!(
            i < self.width(),
            "wire {i} out of range for width {}",
            self.width
        );
        if value {
            self.limbs[i / 64] |= 1 << (i % 64);
        } else {
            self.limbs[i / 64] &= !(1 << (i % 64));
        }
    }

    /// Returns a copy with wire `i` set to `value`.
    #[must_use]
    pub fn with_bit(mut self, i: usize, value: bool) -> Self {
        self.set_bit(i, value);
        self
    }

    /// Number of wires at logic 1.
    #[must_use]
    pub fn count_ones(self) -> u32 {
        self.limbs.iter().map(|l| l.count_ones()).sum()
    }

    /// Bitwise XOR; the Hamming-distance mask between two words.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn xor(self, other: Word) -> Word {
        assert_eq!(self.width, other.width, "width mismatch in xor");
        let mut out = self;
        for l in 0..LIMBS {
            out.limbs[l] ^= other.limbs[l];
        }
        out
    }

    /// Bitwise complement within the word's width.
    #[must_use]
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Word {
        let mut out = self;
        for l in 0..LIMBS {
            out.limbs[l] = !out.limbs[l];
        }
        out.mask_off();
        out
    }

    /// Hamming distance to another word of the same width.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn hamming_distance(self, other: Word) -> u32 {
        self.xor(other).count_ones()
    }

    /// Number of wires that change value going from `self` to `next`
    /// (the self-transition count).
    #[must_use]
    pub fn transition_count(self, next: Word) -> u32 {
        self.hamming_distance(next)
    }

    /// Concatenates `other` above `self`: `self` occupies wires
    /// `0..self.width()` and `other` occupies the wires after it.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds [`MAX_WIDTH`].
    #[must_use]
    pub fn concat(self, other: Word) -> Word {
        let total = self.width() + other.width();
        assert!(
            total <= MAX_WIDTH,
            "concatenated width {total} exceeds {MAX_WIDTH}"
        );
        let mut out = Word::zero(total);
        out.limbs = self.limbs;
        out.set_slice(self.width(), other);
        out
    }

    /// Extracts wires `lo..lo + len` as a new word.
    ///
    /// # Panics
    ///
    /// Panics if `lo + len > self.width()`.
    #[must_use]
    pub fn slice(self, lo: usize, len: usize) -> Word {
        assert!(
            lo + len <= self.width(),
            "slice {lo}..{} out of range",
            lo + len
        );
        let mut out = Word::zero(len);
        let (q, r) = (lo / 64, lo % 64);
        for l in 0..len.div_ceil(64) {
            let low = self.limbs[q + l] >> r;
            let high = match self.limbs.get(q + l + 1) {
                Some(&next) if r != 0 => next << (64 - r),
                _ => 0,
            };
            out.limbs[l] = low | high;
        }
        out.mask_off();
        out
    }

    /// Overwrites wires `lo..lo + src.width()` with `src` — the inverse
    /// of [`slice`](Word::slice), one shifted limb at a time.
    ///
    /// # Panics
    ///
    /// Panics if `lo + src.width() > self.width()`.
    pub fn set_slice(&mut self, lo: usize, src: Word) {
        let len = src.width();
        assert!(
            lo + len <= self.width(),
            "slice {lo}..{} out of range",
            lo + len
        );
        for l in 0..len.div_ceil(64) {
            let n = (len - 64 * l).min(64);
            let mask = u64::MAX >> (64 - n);
            let (q, r) = ((lo + 64 * l) / 64, (lo + 64 * l) % 64);
            self.limbs[q] = (self.limbs[q] & !(mask << r)) | (src.limbs[l] << r);
            if r != 0 && r + n > 64 {
                let spill = 64 - r;
                self.limbs[q + 1] =
                    (self.limbs[q + 1] & !(mask >> spill)) | (src.limbs[l] >> spill);
            }
        }
    }

    /// Iterates over the logic values wire by wire, wire 0 first.
    pub fn iter_bits(self) -> impl Iterator<Item = bool> {
        (0..self.width()).map(move |i| (self.limbs[i / 64] >> (i % 64)) & 1 == 1)
    }

    /// All `2^width` words of a given width, in numeric order.
    ///
    /// Useful for exhaustive codebook analysis of narrow buses.
    ///
    /// # Panics
    ///
    /// Panics if `width >= 32` (the enumeration would be intractable).
    pub fn enumerate_all(width: usize) -> impl Iterator<Item = Word> {
        assert!(width < 32, "exhaustive enumeration limited to width < 32");
        (0u128..(1 << width)).map(move |b| Word::from_bits(b, width))
    }
}

impl fmt::Debug for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Word({}:", self.width)?;
        // Print wire (width-1) first so the string reads like a binary number.
        for i in (0..self.width()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width()).rev() {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        Ok(())
    }
}

impl fmt::Binary for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in (0..self.width().max(1)).rev() {
            let b = if i < self.width() && self.bit(i) {
                '1'
            } else {
                '0'
            };
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl fmt::LowerHex for Word {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = self.width().max(1).div_ceil(4);
        for d in (0..digits).rev() {
            let mut nibble = 0u8;
            for b in 0..4 {
                let i = d * 4 + b;
                if i < self.width() && self.bit(i) {
                    nibble |= 1 << b;
                }
            }
            write!(f, "{nibble:x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_has_no_ones() {
        let w = Word::zero(17);
        assert_eq!(w.count_ones(), 0);
        assert_eq!(w.width(), 17);
    }

    #[test]
    fn from_bits_masks_high_bits() {
        let w = Word::from_bits(0xFF, 4);
        assert_eq!(w.bits(), 0xF);
    }

    #[test]
    fn bit_get_set_roundtrip() {
        let mut w = Word::zero(8);
        w.set_bit(3, true);
        assert!(w.bit(3));
        w.set_bit(3, false);
        assert!(!w.bit(3));
    }

    #[test]
    fn from_bools_matches_bit_order() {
        let w = Word::from_bools(&[true, false, true]);
        assert_eq!(w.bits(), 0b101);
    }

    #[test]
    fn hamming_distance_counts_differing_wires() {
        let a = Word::from_bits(0b1100, 4);
        let b = Word::from_bits(0b1010, 4);
        assert_eq!(a.hamming_distance(b), 2);
    }

    #[test]
    fn not_stays_within_width() {
        let w = Word::from_bits(0b0101, 4);
        assert_eq!(w.not().bits(), 0b1010);
        assert_eq!(w.not().not(), w);
    }

    #[test]
    fn concat_places_other_above_self() {
        let lo = Word::from_bits(0b01, 2);
        let hi = Word::from_bits(0b11, 2);
        let c = lo.concat(hi);
        assert_eq!(c.width(), 4);
        assert_eq!(c.bits(), 0b1101);
    }

    #[test]
    fn slice_inverts_concat() {
        let lo = Word::from_bits(0b01, 2);
        let hi = Word::from_bits(0b10, 3);
        let c = lo.concat(hi);
        assert_eq!(c.slice(0, 2), lo);
        assert_eq!(c.slice(2, 3), hi);
    }

    #[test]
    fn slice_and_set_slice_match_bit_loops() {
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for width in [1usize, 7, 63, 64, 65, 127, 128, 129, 200, 256] {
            let w = Word::from_limbs([next(), next(), next(), next()], width);
            for lo in [0usize, 1, 5, 31, 63, 64, 65, 100, 191] {
                for len in [0usize, 1, 2, 33, 63, 64, 65, 120, 130] {
                    if lo + len > width {
                        continue;
                    }
                    let s = w.slice(lo, len);
                    assert_eq!(s.width(), len);
                    for i in 0..len {
                        assert_eq!(s.bit(i), w.bit(lo + i), "slice {width} {lo} {len} {i}");
                    }
                    let src = Word::from_limbs([next(), next(), next(), next()], len);
                    let mut got = w;
                    got.set_slice(lo, src);
                    let mut want = w;
                    for i in 0..len {
                        want.set_bit(lo + i, src.bit(i));
                    }
                    assert_eq!(got, want, "set_slice {width} {lo} {len}");
                }
            }
        }
    }

    #[test]
    fn enumerate_all_counts() {
        assert_eq!(Word::enumerate_all(5).count(), 32);
    }

    #[test]
    fn wide_words_work_across_limbs() {
        // 200-wire word: set bits straddling every limb boundary.
        let mut w = Word::zero(200);
        for &i in &[0usize, 63, 64, 127, 128, 191, 192, 199] {
            w.set_bit(i, true);
        }
        assert_eq!(w.count_ones(), 8);
        for &i in &[0usize, 63, 64, 127, 128, 191, 192, 199] {
            assert!(w.bit(i), "bit {i}");
        }
        assert_eq!(w.not().count_ones(), 192);
        // Slice across a limb boundary.
        let s = w.slice(60, 10); // contains original bits 63 and 64
        assert_eq!(s.count_ones(), 2);
        assert!(s.bit(3) && s.bit(4));
    }

    #[test]
    fn concat_across_limb_boundaries() {
        let lo = Word::from_bits(u128::MAX, 100);
        let hi = Word::from_bits(0b101, 3);
        let c = lo.concat(hi);
        assert_eq!(c.width(), 103);
        assert_eq!(c.count_ones(), 102);
        assert!(c.bit(100) && !c.bit(101) && c.bit(102));
        assert_eq!(c.slice(0, 100), lo);
        assert_eq!(c.slice(100, 3), hi);
    }

    #[test]
    fn max_width_word_works() {
        let mut w = Word::zero(MAX_WIDTH);
        for i in 0..MAX_WIDTH {
            w.set_bit(i, true);
        }
        assert_eq!(w.count_ones(), MAX_WIDTH as u32);
        assert_eq!(w.not().count_ones(), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn xor_panics_on_width_mismatch() {
        let _ = Word::zero(4).xor(Word::zero(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        let _ = Word::zero(4).bit(4);
    }

    #[test]
    #[should_panic(expected = "bits above 128")]
    fn bits_panics_above_128() {
        let w = Word::zero(200).with_bit(150, true);
        let _ = w.bits();
    }

    #[test]
    fn try_bits_degrades_instead_of_panicking() {
        // Width 129 with only low wires set: still representable.
        let low = Word::from_bits(0xDEAD_BEEF, 129);
        assert_eq!(low.try_bits(), Some(0xDEAD_BEEF));
        // Width 129 with wire 128 set: not representable, returns None.
        let w129 = Word::zero(129).with_bit(128, true);
        assert_eq!(w129.try_bits(), None);
        // Width 256 with the top wire set: not representable either.
        let w256 = Word::zero(256).with_bit(255, true).with_bit(0, true);
        assert_eq!(w256.try_bits(), None);
        // The limb view still sees every wire.
        assert_eq!(w129.limb(2), 1);
        assert_eq!(w256.limb(0), 1);
        assert_eq!(w256.limb(3), 1 << 63);
    }

    #[test]
    fn limbs_roundtrip_at_full_width() {
        let mut w = Word::zero(256);
        for &i in &[0usize, 63, 64, 127, 128, 191, 192, 255] {
            w.set_bit(i, true);
        }
        let limbs = [w.limb(0), w.limb(1), w.limb(2), w.limb(3)];
        assert_eq!(Word::from_limbs(limbs, 256), w);
        // from_limbs masks above the requested width.
        let narrowed = Word::from_limbs(limbs, 129);
        assert_eq!(narrowed.count_ones(), 5);
        assert!(narrowed.bit(128) && narrowed.try_bits().is_none());
    }

    #[test]
    fn display_is_msb_first() {
        let w = Word::from_bits(0b0011, 4);
        assert_eq!(w.to_string(), "0011");
    }

    #[test]
    fn hex_and_binary_formatting() {
        let w = Word::from_bits(0b1010_1111, 8);
        assert_eq!(format!("{w:x}"), "af");
        assert_eq!(format!("{w:b}"), "10101111");
    }
}

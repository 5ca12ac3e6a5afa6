//! Bit-sliced batch codecs: 64 bus words per bitwise operation.
//!
//! The scalar hot path processes one [`Word`] at a time; PR 5's raw-u128
//! FTC path showed that dropping the per-word object overhead is worth an
//! order of magnitude. This module goes further with a **transposed
//! (bit-plane) representation**: a [`WordBlock`] holds up to
//! [`BLOCK_WORDS`] words of a common width as `width` *lanes* of `u64`,
//! where bit `j` of lane `i` is wire `i` of word `j`. One bitwise op on a
//! lane then processes all 64 words at once.
//!
//! [`BatchCode`] mirrors [`BusCode`] over blocks. The linear schemes get
//! native bit-sliced implementations (parity and Hamming syndromes as XOR
//! trees over lanes, bus-invert popcounts via vertical counters, DAP set
//! selection as plane logic, shielding and duplication as lane moves
//! through their [`Layout`]); the enumerated CAC schemes (FTC, FPC)
//! decode through the PR 5 [`crate::kernels`] lookup tables with per-lane
//! gather/scatter; the joint codes are [`Chain`](crate::chain::Chain)s
//! of those planes. Only BCH-DEC and the planted-fault scheme fall back
//! to [`BatchScalar`], which loops the scalar codec — so [`batch_build`]
//! always succeeds and every scheme is batch-addressable behind one API.
//!
//! **Equivalence contract:** for every scheme, feeding the words of a
//! block through the batch codec produces bit-identical outputs and
//! statuses to feeding them one by one (in block order) through the
//! scalar codec from the same starting state. The exhaustive + property
//! suite in `crates/codes/tests/batch_equiv.rs` pins this, and it is what
//! lets `channel::montecarlo` use batching by default while reproducing
//! the scalar estimates byte for byte.

use std::sync::Arc;

use crate::cac::{fpc_wires_for_bits, ftc_groups, ftc_wires_for_bits};
use crate::catalog::Scheme;
use crate::ecc::{data_positions, Hamming};
use crate::joint;
use crate::kernels::{codebook_kernel, BookKey, CodebookKernel};
use crate::layout::Layout;
use crate::lpc::Partition;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::word::MAX_WIDTH;
use socbus_model::Word;

/// Number of words a full [`WordBlock`] holds: one per bit of a `u64` lane.
pub const BLOCK_WORDS: usize = 64;

/// A block of up to [`BLOCK_WORDS`] equal-width words in transposed
/// (bit-plane) layout: lane `i`, bit `j` is wire `i` of word `j`.
///
/// Invariant: every lane has zero bits at positions `>= len()`, so lane
/// logic composed of AND/OR/XOR of lanes stays masked for free; anything
/// involving complement must re-mask with [`WordBlock::valid_mask`].
///
/// Degenerate shapes are legal: a width-0 block (no wires) and a length-0
/// block (no words) both behave as empty products, and width-1 blocks are
/// just a single lane.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordBlock {
    lanes: Vec<u64>,
    len: usize,
}

impl WordBlock {
    /// An all-zero block of `len` words of `width` wires.
    ///
    /// # Panics
    ///
    /// Panics if `width > MAX_WIDTH` or `len > BLOCK_WORDS`.
    #[must_use]
    pub fn zero(width: usize, len: usize) -> Self {
        assert!(
            width <= MAX_WIDTH,
            "block width {width} exceeds {MAX_WIDTH}"
        );
        assert!(
            len <= BLOCK_WORDS,
            "block length {len} exceeds {BLOCK_WORDS}"
        );
        WordBlock {
            lanes: vec![0; width],
            len,
        }
    }

    /// Transposes a slice of equal-width words into a block (word `j` of
    /// the slice becomes bit `j` of every lane): one 64×64
    /// [`transpose64`] per 64-wire limb.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() > BLOCK_WORDS` or the widths are mixed.
    #[must_use]
    pub fn from_words(words: &[Word]) -> Self {
        let width = words.first().map_or(0, |w| w.width());
        assert!(
            words.iter().all(|w| w.width() == width),
            "mixed widths in block"
        );
        let mut block = WordBlock::zero(width, words.len());
        for (l, lanes) in block.lanes.chunks_mut(64).enumerate() {
            let mut m = [0u64; 64];
            for (row, w) in m.iter_mut().zip(words) {
                *row = w.limb(l);
            }
            transpose64(&mut m, lanes.len().next_power_of_two(), false);
            lanes.copy_from_slice(&m[..lanes.len()]);
        }
        block
    }

    /// Number of wires (lanes).
    #[must_use]
    pub fn width(&self) -> usize {
        self.lanes.len()
    }

    /// Number of words in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Mask with one set bit per word in the block (`len` low bits).
    #[must_use]
    pub fn valid_mask(&self) -> u64 {
        if self.len == BLOCK_WORDS {
            u64::MAX
        } else {
            (1u64 << self.len) - 1
        }
    }

    /// Untransposes word `j` back into the [`Word`] inspection view.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.len()`.
    #[must_use]
    pub fn word(&self, j: usize) -> Word {
        assert!(
            j < self.len,
            "word {j} out of range for block of {}",
            self.len
        );
        let mut limbs = [0u64; Word::LIMB_COUNT];
        for (i, lane) in self.lanes.iter().enumerate() {
            limbs[i / 64] |= ((lane >> j) & 1) << (i % 64);
        }
        Word::from_limbs(limbs, self.width())
    }

    /// Untransposes the whole block, word 0 first: one 64×64
    /// [`transpose64`] per 64-wire limb.
    #[must_use]
    pub fn to_words(&self) -> Vec<Word> {
        let mut limbs = [[0u64; 64]; Word::LIMB_COUNT];
        for (m, lanes) in limbs.iter_mut().zip(self.lanes.chunks(64)) {
            m[..lanes.len()].copy_from_slice(lanes);
            transpose64(m, lanes.len().next_power_of_two(), true);
        }
        (0..self.len)
            .map(|j| Word::from_limbs(std::array::from_fn(|l| limbs[l][j]), self.width()))
            .collect()
    }

    /// Raw lane `i` (wire `i` of every word, word `j` at bit `j`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    pub fn lane(&self, i: usize) -> u64 {
        self.lanes[i]
    }

    /// Mutable access to lane `i`. Callers must keep bits at positions
    /// `>= len()` clear (the masking invariant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn lane_mut(&mut self, i: usize) -> &mut u64 {
        &mut self.lanes[i]
    }

    /// All lanes, wire 0 first.
    pub(crate) fn lanes(&self) -> &[u64] {
        &self.lanes
    }

    /// All lanes, mutably; callers keep the masking invariant.
    pub(crate) fn lanes_mut(&mut self) -> &mut [u64] {
        &mut self.lanes
    }

    /// Flips wire `wire` of word `j` — the batch counterpart of a channel
    /// bit-flip.
    ///
    /// # Panics
    ///
    /// Panics if `wire >= self.width()` or `j >= self.len()`.
    pub fn flip_bit(&mut self, wire: usize, j: usize) {
        assert!(
            j < self.len,
            "word {j} out of range for block of {}",
            self.len
        );
        self.lanes[wire] ^= 1 << j;
    }
}

/// One butterfly stage of [`transpose64`]: swaps the off-diagonal
/// `J×J` sub-blocks of every `2J×2J` block among the first
/// `max(2J, h)` rows with one masked shift-XOR per row pair. The rows
/// past that bound are all zero whenever `transpose64` calls it.
#[inline(always)]
fn butterfly<const J: usize>(m: &mut [u64; 64], h: usize) {
    // The bits whose index has bit `log2 J` clear: 0x5555… for J = 1,
    // 0x3333… for J = 2, …, 0x0000_0000_FFFF_FFFF for J = 32.
    let mask = u64::MAX / ((1 << J) + 1);
    for base in (0..h.max(2 * J)).step_by(2 * J) {
        for r in base..base + J {
            let t = ((m[r] >> J) ^ m[r + J]) & mask;
            m[r + J] ^= t;
            m[r] ^= t << J;
        }
    }
}

/// Transposes a 64×64 bit matrix in place: bit `c` of row `r` moves to
/// bit `r` of row `c`, in six butterfly stages.
///
/// `h` (a power of two, `1..=64`) bounds the nonzero part: with `rows`
/// false every row's bits at or above `h` are zero, with `rows` true
/// every row at or above `h` is zero. The stages commute (stage `J`
/// swaps bit `log2 J` of the row index with the same bit of the column
/// index), so they run widest-first in the first case and
/// narrowest-first in the second; either way the nonzero part stays in
/// the first `max(2J, h)` rows at every stage, and a narrow bus costs a
/// fraction of a full transpose.
fn transpose64(m: &mut [u64; 64], h: usize, rows: bool) {
    debug_assert!(h.is_power_of_two() && h <= 64);
    if rows {
        butterfly::<1>(m, h);
        butterfly::<2>(m, h);
        butterfly::<4>(m, h);
        butterfly::<8>(m, h);
        butterfly::<16>(m, h);
        butterfly::<32>(m, h);
    } else {
        butterfly::<32>(m, h);
        butterfly::<16>(m, h);
        butterfly::<8>(m, h);
        butterfly::<4>(m, h);
        butterfly::<2>(m, h);
        butterfly::<1>(m, h);
    }
}

/// Per-word [`DecodeStatus`] planes for a decoded block: bit `j` of each
/// mask describes word `j`. For every word exactly one mask has its bit
/// set.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct BlockStatus {
    /// Words the scheme performs no checking on.
    pub unchecked: u64,
    /// Words received as valid codewords.
    pub clean: u64,
    /// Words with a corrected error.
    pub corrected: u64,
    /// Words with a detected but uncorrected error.
    pub detected: u64,
}

impl BlockStatus {
    /// All `len` words unchecked (the default for schemes without error
    /// control).
    #[must_use]
    pub fn all_unchecked(len: usize) -> Self {
        assert!(
            len <= BLOCK_WORDS,
            "block length {len} exceeds {BLOCK_WORDS}"
        );
        let mask = if len == BLOCK_WORDS {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        BlockStatus {
            unchecked: mask,
            ..BlockStatus::default()
        }
    }

    /// The status of word `j`.
    #[must_use]
    pub fn status(&self, j: usize) -> DecodeStatus {
        let bit = 1u64 << j;
        if self.clean & bit != 0 {
            DecodeStatus::Clean
        } else if self.corrected & bit != 0 {
            DecodeStatus::Corrected
        } else if self.detected & bit != 0 {
            DecodeStatus::Detected
        } else {
            DecodeStatus::Unchecked
        }
    }
}

/// A bus coding scheme over transposed blocks: the batch counterpart of
/// [`BusCode`], with the same state semantics — processing a block is
/// equivalent to processing its words in order through the scalar codec.
pub trait BatchCode {
    /// Scheme name, matching the scalar codec's [`BusCode::name`].
    fn name(&self) -> String;

    /// Number of data bits `k` per word.
    fn data_bits(&self) -> usize;

    /// Number of physical bus wires `n` per word.
    fn wires(&self) -> usize;

    /// Encodes a block of data words into a block of bus words.
    ///
    /// # Panics
    ///
    /// Panics if `data.width() != self.data_bits()`.
    fn encode(&mut self, data: &WordBlock) -> WordBlock;

    /// Decodes a block of received bus words back into data words.
    ///
    /// # Panics
    ///
    /// Panics if `bus.width() != self.wires()`.
    fn decode(&mut self, bus: &WordBlock) -> WordBlock;

    /// Decodes and reports per-word [`DecodeStatus`] planes.
    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        let len = bus.len();
        (self.decode(bus), BlockStatus::all_unchecked(len))
    }

    /// Clears any codec memory, like [`BusCode::reset`].
    fn reset(&mut self) {}
}

/// Builds the batch codec for `scheme` over `k` data bits: the native
/// bit-sliced implementation (for the joint codes, a
/// [`Chain`](crate::chain::Chain) of their components' native planes),
/// else a [`BatchScalar`] wrapper around the scalar codec. Never fails
/// for a buildable scheme.
#[must_use]
pub fn batch_build(scheme: Scheme, k: usize) -> Box<dyn BatchCode> {
    native(scheme, k).unwrap_or_else(|| Box::new(BatchScalar::new(scheme.build(k))))
}

/// Whether `scheme` has a native bit-sliced batch implementation (as
/// opposed to the [`BatchScalar`] fallback) — decided by the same match
/// [`batch_build`] dispatches on.
#[must_use]
pub fn batch_is_native(scheme: Scheme) -> bool {
    let k = match scheme {
        Scheme::BusInvert(i) => i.max(1),
        _ => 1,
    };
    native(scheme, k).is_some()
}

/// The native batch codec for `scheme`, or `None` where only the scalar
/// decoder exists (BCH's Berlekamp–Massey decoder, the planted fault).
fn native(scheme: Scheme, k: usize) -> Option<Box<dyn BatchCode>> {
    if let Some(chain) = joint::assemble(scheme, k, batch_build) {
        return Some(Box::new(chain));
    }
    Some(match scheme {
        Scheme::Uncoded => Box::new(BatchLayout::uncoded(k)),
        Scheme::BusInvert(i) => Box::new(BatchBusInvert::new(k, i)),
        Scheme::Shielding => Box::new(BatchLayout::shielding(k)),
        Scheme::Duplication => Box::new(BatchLayout::duplication(k)),
        Scheme::Ftc => Box::new(BatchLut::ftc(k)),
        Scheme::Parity => Box::new(BatchParity::new(k)),
        Scheme::Hamming => Box::new(BatchHamming::new(k)),
        Scheme::ExtHamming => Box::new(BatchExtendedHamming::new(k)),
        Scheme::Dap => Box::new(BatchDap::new(k)),
        Scheme::BchDec | Scheme::Sabotaged => return None,
        Scheme::HammingX
        | Scheme::Bih
        | Scheme::FtcHc
        | Scheme::Bsc
        | Scheme::Dapx
        | Scheme::Dapbi => unreachable!("joint::assemble builds {scheme:?}"),
    })
}

/// Adds a one-bit plane into a little-endian vertical counter: after the
/// call, interpreting bit `j` of `counter[0..]` as a binary number gives
/// the running per-word popcount. 64 parallel increments per call.
fn vertical_add(counter: &mut Vec<u64>, plane: u64) {
    let mut carry = plane;
    for c in counter.iter_mut() {
        let sum = *c ^ carry;
        carry &= *c;
        *c = sum;
        if carry == 0 {
            return;
        }
    }
    if carry != 0 {
        counter.push(carry);
    }
}

/// Reads word `j`'s count out of a vertical counter.
fn counter_at(counter: &[u64], j: usize) -> usize {
    counter
        .iter()
        .enumerate()
        .map(|(bit, plane)| (((plane >> j) & 1) as usize) << bit)
        .sum()
}

// ---------------------------------------------------------------------------
// Native bit-sliced schemes
// ---------------------------------------------------------------------------

/// Batch even-parity code: the parity lane is one XOR tree over the data
/// lanes — 64 parity bits per fold.
#[derive(Clone, Debug)]
pub struct BatchParity {
    k: usize,
}

impl BatchParity {
    /// Parity-protected `k`-bit bus.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(k < MAX_WIDTH, "bus too wide");
        BatchParity { k }
    }

    fn data_parity_plane(&self, block: &WordBlock) -> u64 {
        (0..self.k).fold(0u64, |acc, i| acc ^ block.lane(i))
    }
}

impl BatchCode for BatchParity {
    fn name(&self) -> String {
        "Parity".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + 1
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.k + 1, data.len());
        for i in 0..self.k {
            *out.lane_mut(i) = data.lane(i);
        }
        *out.lane_mut(self.k) = self.data_parity_plane(data);
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let vm = bus.valid_mask();
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            *out.lane_mut(i) = bus.lane(i);
        }
        let detected = (self.data_parity_plane(bus) ^ bus.lane(self.k)) & vm;
        let status = BlockStatus {
            clean: vm & !detected,
            detected,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// Batch systematic Hamming: each syndrome bit is an XOR tree over the
/// covered data lanes; the per-position correction masks are AND trees
/// over the syndrome planes.
#[derive(Clone, Debug)]
pub struct BatchHamming {
    k: usize,
    m: usize,
}

/// Everything the Hamming syndrome logic produces for one block, shared
/// with the extended (SEC-DED) wrapper.
struct HammingPlanes {
    /// Per-data-bit correction masks (`flip[i]` bit `j`: flip data bit `i`
    /// of word `j`).
    flip: Vec<u64>,
    /// Words with a nonzero syndrome.
    nonzero: u64,
    /// Words whose syndrome matches a data position or a parity wire.
    matched: u64,
}

impl BatchHamming {
    /// Hamming code over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        BatchHamming {
            k,
            m: Hamming::new(k).parity_bits(),
        }
    }

    /// Parity planes from the data lanes of `block` (lane `i` = data `i`).
    fn parity_planes(&self, block: &WordBlock) -> Vec<u64> {
        (0..self.m)
            .map(|j| {
                data_positions(self.k)
                    .enumerate()
                    .filter(|&(_, p)| p & (1 << j) != 0)
                    .fold(0u64, |acc, (i, _)| acc ^ block.lane(i))
            })
            .collect()
    }

    /// Syndrome planes and correction masks for a received bus block whose
    /// parity lanes start at `parity_lo`.
    fn syndrome_planes(&self, bus: &WordBlock, parity_lo: usize) -> HammingPlanes {
        let vm = bus.valid_mask();
        let calc = self.parity_planes(bus);
        let s: Vec<u64> = (0..self.m)
            .map(|j| calc[j] ^ bus.lane(parity_lo + j))
            .collect();
        let nonzero = s.iter().fold(0u64, |acc, &p| acc | p) & vm;
        let mut matched = 0u64;
        let mut flip = vec![0u64; self.k];
        for (i, pos) in data_positions(self.k).enumerate() {
            let mut mask = vm;
            for (j, &plane) in s.iter().enumerate() {
                mask &= if pos & (1 << j) != 0 { plane } else { !plane };
            }
            flip[i] = mask;
            matched |= mask;
        }
        // Power-of-two syndromes: a parity wire flipped, data intact.
        for j in 0..self.m {
            let mut mask = vm;
            for (l, &plane) in s.iter().enumerate() {
                mask &= if l == j { plane } else { !plane };
            }
            matched |= mask;
        }
        HammingPlanes {
            flip,
            nonzero,
            matched,
        }
    }
}

impl BatchCode for BatchHamming {
    fn name(&self) -> String {
        "Hamming".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + self.m
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires(), data.len());
        for i in 0..self.k {
            *out.lane_mut(i) = data.lane(i);
        }
        for (j, plane) in self.parity_planes(data).into_iter().enumerate() {
            *out.lane_mut(self.k + j) = plane;
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let vm = bus.valid_mask();
        let planes = self.syndrome_planes(bus, self.k);
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            *out.lane_mut(i) = bus.lane(i) ^ planes.flip[i];
        }
        let status = BlockStatus {
            clean: vm & !planes.nonzero,
            corrected: planes.nonzero & planes.matched,
            detected: planes.nonzero & !planes.matched,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// Batch extended Hamming (SEC-DED): the inner syndrome planes plus one
/// overall-parity plane drive the paper's §V status table.
#[derive(Clone, Debug)]
pub struct BatchExtendedHamming {
    inner: BatchHamming,
}

impl BatchExtendedHamming {
    /// SEC-DED code over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        let inner = BatchHamming::new(k);
        assert!(inner.wires() < MAX_WIDTH, "bus too wide");
        BatchExtendedHamming { inner }
    }
}

impl BatchCode for BatchExtendedHamming {
    fn name(&self) -> String {
        "ExtHamming".into()
    }

    fn data_bits(&self) -> usize {
        self.inner.k
    }

    fn wires(&self) -> usize {
        self.inner.wires() + 1
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        let base = self.inner.encode(data);
        let n = self.inner.wires();
        let mut out = WordBlock::zero(n + 1, data.len());
        let mut overall = 0u64;
        for i in 0..n {
            let lane = base.lane(i);
            *out.lane_mut(i) = lane;
            overall ^= lane;
        }
        *out.lane_mut(n) = overall;
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let vm = bus.valid_mask();
        let n = self.inner.wires();
        let k = self.inner.k;
        let overall_calc = (0..n).fold(0u64, |acc, i| acc ^ bus.lane(i));
        // Bit set where the recomputed overall parity disagrees with the
        // received overall-parity wire.
        let not_ok = (overall_calc ^ bus.lane(n)) & vm;
        let ok = vm & !not_ok;
        let planes = self.inner.syndrome_planes(bus, k);
        let inner_clean = vm & !planes.nonzero;
        let inner_corrected = planes.nonzero & planes.matched;
        let inner_detected = planes.nonzero & !planes.matched;
        let mut out = WordBlock::zero(k, bus.len());
        for i in 0..k {
            // Apply the inner correction only when the overall parity also
            // fired (odd error count). With overall parity consistent, a
            // fired syndrome means a double error: return the *raw* data
            // slice, exactly like the scalar decoder.
            *out.lane_mut(i) = bus.lane(i) ^ (planes.flip[i] & not_ok);
        }
        let status = BlockStatus {
            clean: inner_clean & ok,
            corrected: (inner_clean | inner_corrected) & not_ok,
            detected: (inner_corrected & ok) | inner_detected,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// Batch bus-invert `BI(i)`: per-word toggle counts come from vertical
/// counters over the difference planes; the invert decision chains
/// through the block word by word (it is inherently sequential — each
/// word's reference is the previously *driven* word), but all the
/// popcount work is bit-parallel.
#[derive(Clone, Debug)]
pub struct BatchBusInvert {
    k: usize,
    subs: Partition,
    /// Previously driven bus word (encoder memory), as in the scalar code.
    prev: Word,
}

impl BatchBusInvert {
    /// `BI(i)` over `k` data bits, partitioned exactly like the scalar
    /// [`crate::lpc::BusInvert`].
    #[must_use]
    pub fn new(k: usize, i: usize) -> Self {
        BatchBusInvert {
            k,
            subs: Partition::new(k, i),
            prev: Word::zero(k + i),
        }
    }
}

impl BatchCode for BatchBusInvert {
    fn name(&self) -> String {
        format!("BI({})", self.subs.count())
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.k + self.subs.count()
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let n = data.len();
        let mut out = WordBlock::zero(self.wires(), n);
        if n == 0 {
            return out;
        }
        let vm = data.valid_mask();
        for sub in self.subs.subs() {
            let prev_inv = self.prev.bit(sub.wire_lo + sub.len);
            // Difference planes between word j and word j-1 (word -1 is
            // the remembered driven word, un-inverted back to data view).
            let mut counter: Vec<u64> = Vec::new();
            for b in 0..sub.len {
                let lane = data.lane(sub.data_lo + b);
                let prev_data = u64::from(self.prev.bit(sub.wire_lo + b) ^ prev_inv);
                let shifted = (lane << 1) | prev_data;
                vertical_add(&mut counter, (lane ^ shifted) & vm);
            }
            // The invert recurrence is sequential: word j's toggle count
            // is against the driven word j-1, i.e. d_j or len-d_j
            // depending on the previous invert decision.
            let mut inv_mask = 0u64;
            let mut inv_prev = prev_inv;
            for j in 0..n {
                let d = counter_at(&counter, j);
                let toggles = if inv_prev { sub.len - d } else { d };
                let invert = 2 * toggles > sub.len;
                inv_mask |= u64::from(invert) << j;
                inv_prev = invert;
            }
            for b in 0..sub.len {
                *out.lane_mut(sub.wire_lo + b) = data.lane(sub.data_lo + b) ^ inv_mask;
            }
            *out.lane_mut(sub.wire_lo + sub.len) = inv_mask;
        }
        self.prev = out.word(n - 1);
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let mut out = WordBlock::zero(self.k, bus.len());
        for sub in self.subs.subs() {
            let inv = bus.lane(sub.wire_lo + sub.len);
            for b in 0..sub.len {
                *out.lane_mut(sub.data_lo + b) = bus.lane(sub.wire_lo + b) ^ inv;
            }
        }
        out
    }

    fn reset(&mut self) {
        self.prev = Word::zero(self.wires());
    }
}

/// The batch codes that are only a [`Layout`] — the identity
/// (`Uncoded`), shielding, duplication: lane moves, plus, for the two
/// CACs, the membership check (a set shield, or a copy that disagrees
/// with its primary) as one OR tree over lanes.
#[derive(Clone, Debug)]
pub struct BatchLayout {
    name: &'static str,
    layout: Layout,
    /// Whether `decode_checked` checks membership (the CACs) or reports
    /// every word unchecked (`Uncoded`).
    checked: bool,
}

impl BatchLayout {
    /// Uncoded `k`-bit bus.
    #[must_use]
    pub fn uncoded(k: usize) -> Self {
        assert!(k > 0 && k <= MAX_WIDTH);
        BatchLayout {
            name: "Uncoded",
            layout: Layout::identity(k),
            checked: false,
        }
    }

    /// Shielded `k`-bit bus, `[d0, S, d1, …]`.
    #[must_use]
    pub fn shielding(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k - 1 <= MAX_WIDTH, "shielded bus too wide");
        BatchLayout {
            name: "Shielding",
            layout: Layout::shielded(k),
            checked: true,
        }
    }

    /// Duplicated `k`-bit bus, `[d0, d0, d1, d1, …]`.
    #[must_use]
    pub fn duplication(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k <= MAX_WIDTH, "duplicated bus too wide");
        BatchLayout {
            name: "Duplication",
            layout: Layout::duplicated(k),
            checked: true,
        }
    }
}

impl BatchCode for BatchLayout {
    fn name(&self) -> String {
        self.name.into()
    }

    fn data_bits(&self) -> usize {
        self.layout.bits()
    }

    fn wires(&self) -> usize {
        self.layout.wires()
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        self.layout.place_block(data)
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.layout.read_block(bus)
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        if self.checked {
            self.layout.read_checked_block(bus)
        } else {
            (self.decode(bus), BlockStatus::all_unchecked(bus.len()))
        }
    }
}

/// Batch duplicate-add-parity: the Fig. 6 set selection as plane logic —
/// one XOR tree for copy-set A's parity, one OR tree for the pairwise
/// mismatch, one multiplexer per data lane.
#[derive(Clone, Debug)]
pub struct BatchDap {
    k: usize,
}

impl BatchDap {
    /// DAP over `k` data bits.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        assert!(2 * k < MAX_WIDTH, "bus too wide");
        BatchDap { k }
    }
}

impl BatchCode for BatchDap {
    fn name(&self) -> String {
        "DAP".into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        2 * self.k + 1
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires(), data.len());
        let mut parity = 0u64;
        for i in 0..self.k {
            let lane = data.lane(i);
            *out.lane_mut(2 * i) = lane;
            *out.lane_mut(2 * i + 1) = lane;
            parity ^= lane;
        }
        *out.lane_mut(2 * self.k) = parity;
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        let vm = bus.valid_mask();
        let parity_a = (0..self.k).fold(0u64, |acc, i| acc ^ bus.lane(2 * i));
        // Words where set A's parity disagrees with the parity wire select
        // copy set B.
        let use_b = (parity_a ^ bus.lane(2 * self.k)) & vm;
        let mut mismatch = 0u64;
        let mut out = WordBlock::zero(self.k, bus.len());
        for i in 0..self.k {
            let a = bus.lane(2 * i);
            let diff = a ^ bus.lane(2 * i + 1);
            mismatch |= diff;
            *out.lane_mut(i) = a ^ (use_b & diff);
        }
        let status = BlockStatus {
            clean: vm & !use_b & !mismatch,
            corrected: (use_b | mismatch) & vm,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

/// One codebook group of a [`BatchLut`] with its shared decode kernel.
#[derive(Clone, Debug)]
struct LutGroup {
    data_lo: usize,
    bits: usize,
    wire_lo: usize,
    wires: usize,
    kernel: Arc<CodebookKernel>,
}

/// Batch codebook codes — FTC (one group per sub-bus, a grounded shield
/// between groups) and FPC (one group): per-group LUT decode through the
/// PR 5 kernels, with the raw codeword values gathered from / scattered
/// to the lanes word by word (the lookup itself is irreducibly per word,
/// but all Word-object overhead is gone).
#[derive(Clone, Debug)]
pub struct BatchLut {
    name: &'static str,
    k: usize,
    wires: usize,
    groups: Vec<LutGroup>,
}

impl BatchLut {
    /// FTC over `k` data bits, partitioned exactly like the scalar
    /// [`crate::cac::ForbiddenTransitionCode`].
    #[must_use]
    pub fn ftc(k: usize) -> Self {
        assert!(k > 0, "need at least one data bit");
        let wires = ftc_wires_for_bits(k);
        assert!(wires <= MAX_WIDTH, "FTC bus too wide");
        let mut groups = Vec::new();
        let mut data_lo = 0;
        let mut wire_lo = 0;
        for (bits, gw) in ftc_groups(k) {
            groups.push(LutGroup {
                data_lo,
                bits,
                wire_lo,
                wires: gw,
                kernel: codebook_kernel(BookKey::FtcGroup { bits, wires: gw }),
            });
            data_lo += bits;
            wire_lo += gw + 1;
        }
        BatchLut {
            name: "FTC",
            k,
            wires,
            groups,
        }
    }

    /// FPC over `k` data bits (`1..=16`, like the scalar
    /// [`crate::cac::ForbiddenPatternCode`]).
    #[must_use]
    pub fn fpc(k: usize) -> Self {
        assert!(
            (1..=16).contains(&k),
            "single-group FPC supports 1..=16 data bits"
        );
        let wires = fpc_wires_for_bits(k);
        let kernel = codebook_kernel(BookKey::Fpc { k });
        BatchLut {
            name: "FPC",
            k,
            wires,
            groups: vec![LutGroup {
                data_lo: 0,
                bits: k,
                wire_lo: 0,
                wires,
                kernel,
            }],
        }
    }

    /// Decodes every group of every word; returns the data block and the
    /// mask of words whose every group slice was an exact codeword.
    fn decode_planes(&self, bus: &WordBlock) -> (WordBlock, u64) {
        let mut out = WordBlock::zero(self.k, bus.len());
        let mut exact_all = bus.valid_mask();
        for g in &self.groups {
            for j in 0..bus.len() {
                let mut raw = 0u128;
                for w in 0..g.wires {
                    raw |= u128::from((bus.lane(g.wire_lo + w) >> j) & 1) << w;
                }
                let (idx, exact) = g.kernel.decode_index_raw(raw);
                if !exact {
                    exact_all &= !(1u64 << j);
                }
                for b in 0..g.bits {
                    *out.lane_mut(g.data_lo + b) |= (((idx >> b) & 1) as u64) << j;
                }
            }
        }
        (out, exact_all)
    }
}

impl BatchCode for BatchLut {
    fn name(&self) -> String {
        self.name.into()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let mut out = WordBlock::zero(self.wires, data.len());
        for g in &self.groups {
            for j in 0..data.len() {
                let mut idx = 0usize;
                for b in 0..g.bits {
                    idx |= (((data.lane(g.data_lo + b) >> j) & 1) as usize) << b;
                }
                let cw = g.kernel.codeword_bits(idx);
                for w in 0..g.wires {
                    *out.lane_mut(g.wire_lo + w) |= (((cw >> w) & 1) as u64) << j;
                }
            }
        }
        out
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        self.decode_planes(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let vm = bus.valid_mask();
        let (out, exact_all) = self.decode_planes(bus);
        // Any set inter-group shield wire marks the word corrupted.
        let shields = self.groups[..self.groups.len() - 1]
            .iter()
            .fold(0u64, |acc, g| acc | bus.lane(g.wire_lo + g.wires));
        let clean = exact_all & !shields & vm;
        let status = BlockStatus {
            clean,
            detected: vm & !clean,
            ..BlockStatus::default()
        };
        (out, status)
    }
}

// ---------------------------------------------------------------------------
// Scalar fallback
// ---------------------------------------------------------------------------

/// Uniform batch API over any scalar [`BusCode`]: transposes the block,
/// runs the scalar codec word by word in block order, transposes back.
/// Trivially byte-identical to the scalar path — the schemes without a
/// native bit-sliced implementation (BCH-DEC and the planted-fault
/// scheme) route through this, so every scheme is batch-addressable.
pub struct BatchScalar {
    inner: Box<dyn BusCode>,
}

impl BatchScalar {
    /// Wraps a scalar codec.
    #[must_use]
    pub fn new(inner: Box<dyn BusCode>) -> Self {
        BatchScalar { inner }
    }
}

impl BatchCode for BatchScalar {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn data_bits(&self) -> usize {
        self.inner.data_bits()
    }

    fn wires(&self) -> usize {
        self.inner.wires()
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.data_bits(), "data width mismatch");
        if data.is_empty() {
            return WordBlock::zero(self.wires(), 0);
        }
        let words: Vec<Word> = data
            .to_words()
            .into_iter()
            .map(|w| self.inner.encode(w))
            .collect();
        WordBlock::from_words(&words)
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        if bus.is_empty() {
            return WordBlock::zero(self.data_bits(), 0);
        }
        let words: Vec<Word> = bus
            .to_words()
            .into_iter()
            .map(|w| self.inner.decode(w))
            .collect();
        WordBlock::from_words(&words)
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires(), "bus width mismatch");
        if bus.is_empty() {
            return (WordBlock::zero(self.data_bits(), 0), BlockStatus::default());
        }
        let mut status = BlockStatus::default();
        let mut words = Vec::with_capacity(bus.len());
        for (j, w) in bus.to_words().into_iter().enumerate() {
            let (d, s) = self.inner.decode_checked(w);
            words.push(d);
            let bit = 1u64 << j;
            match s {
                DecodeStatus::Unchecked => status.unchecked |= bit,
                DecodeStatus::Clean => status.clean |= bit,
                DecodeStatus::Corrected => status.corrected |= bit,
                DecodeStatus::Detected => status.detected |= bit,
            }
        }
        (WordBlock::from_words(&words), status)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_block(rng: &mut StdRng, width: usize, len: usize) -> WordBlock {
        let words: Vec<Word> = (0..len)
            .map(|_| {
                let mut w = Word::zero(width);
                for i in 0..width {
                    w.set_bit(i, rng.gen::<f64>() < 0.5);
                }
                w
            })
            .collect();
        let block = WordBlock::from_words(&words);
        // from_words is consistent with per-word readback.
        assert_eq!(block.to_words(), words);
        block
    }

    /// The bit-at-a-time transpose [`WordBlock::from_words`] used before
    /// the butterfly, kept as its reference. ([`WordBlock::word`] is
    /// still the per-lane gather and serves as the reference for
    /// [`WordBlock::to_words`].)
    fn from_words_reference(words: &[Word]) -> WordBlock {
        let width = words.first().map_or(0, |w| w.width());
        let mut block = WordBlock::zero(width, words.len());
        for (j, w) in words.iter().enumerate() {
            for (i, lane) in block.lanes.iter_mut().enumerate() {
                *lane |= ((w.limb(i / 64) >> (i % 64)) & 1) << j;
            }
        }
        block
    }

    fn random_words(rng: &mut StdRng, width: usize, len: usize) -> Vec<Word> {
        (0..len)
            .map(|_| Word::from_limbs([rng.gen(), rng.gen(), rng.gen(), rng.gen()], width))
            .collect()
    }

    #[test]
    fn transpose_matches_bit_loop_reference() {
        let mut rng = StdRng::seed_from_u64(64);
        for width in [0usize, 1, 16, 63, 64, 65, 128, 256] {
            for len in [0usize, 1, 33, 64] {
                let words = random_words(&mut rng, width, len);
                let block = WordBlock::from_words(&words);
                assert_eq!(block, from_words_reference(&words), "{width}x{len}");
                let back = block.to_words();
                let gathered: Vec<Word> = (0..len).map(|j| block.word(j)).collect();
                assert_eq!(back, gathered, "{width}x{len}");
                assert_eq!(back, words, "{width}x{len}: to_words(from_words(w)) == w");
            }
        }
    }

    #[test]
    fn transpose_keeps_lanes_above_len_clear() {
        let mut rng = StdRng::seed_from_u64(65);
        for len in [1usize, 33, 63] {
            let block = WordBlock::from_words(&random_words(&mut rng, 130, len));
            for i in 0..block.width() {
                assert_eq!(
                    block.lane(i) & !block.valid_mask(),
                    0,
                    "lane {i}, len {len}"
                );
            }
        }
    }

    #[test]
    fn transpose64_moves_every_bit_at_every_narrowing() {
        let mut rng = StdRng::seed_from_u64(66);
        for h in [1usize, 2, 4, 8, 16, 32, 64] {
            let cols = if h == 64 { u64::MAX } else { (1 << h) - 1 };
            let orig: [u64; 64] = std::array::from_fn(|_| rng.gen::<u64>() & cols);
            let mut m = orig;
            transpose64(&mut m, h, false);
            for (c, &row) in m.iter().enumerate() {
                for (r, &o) in orig.iter().enumerate() {
                    assert_eq!(row >> r & 1, o >> c & 1, "h {h}: ({r}, {c})");
                }
            }
            // Back again from the narrow-rows side.
            transpose64(&mut m, h, true);
            assert_eq!(m, orig, "h {h}");
        }
    }

    #[test]
    fn transpose_untranspose_is_identity_across_limb_boundaries() {
        let mut rng = StdRng::seed_from_u64(42);
        for width in [1usize, 2, 63, 64, 65, 127, 128, 129, 200, 255, 256] {
            for len in [0usize, 1, 2, 63, 64] {
                let block = random_block(&mut rng, width, len);
                // An empty slice carries no width: from_words infers 0.
                assert_eq!(block.width(), if len == 0 { 0 } else { width });
                assert_eq!(block.len(), len);
            }
        }
    }

    #[test]
    fn width_zero_block_is_legal() {
        let block = WordBlock::zero(0, 17);
        assert_eq!(block.width(), 0);
        assert_eq!(block.len(), 17);
        assert_eq!(block.valid_mask(), (1 << 17) - 1);
        // Every word reads back as the zero-width word.
        assert_eq!(block.word(3), Word::zero(0));
        let words = vec![Word::zero(0); 5];
        assert_eq!(WordBlock::from_words(&words).to_words(), words);
    }

    #[test]
    fn width_one_block_masks_correctly() {
        let words: Vec<Word> = (0..5).map(|j| Word::from_bits(j & 1, 1)).collect();
        let block = WordBlock::from_words(&words);
        assert_eq!(block.width(), 1);
        assert_eq!(block.lane(0), 0b01010);
        assert_eq!(block.valid_mask(), 0b11111);
        assert_eq!(block.to_words(), words);
    }

    #[test]
    fn empty_block_edge_cases() {
        let block = WordBlock::from_words(&[]);
        assert_eq!(block.width(), 0);
        assert!(block.is_empty());
        assert_eq!(block.valid_mask(), 0);
        assert!(block.to_words().is_empty());
    }

    #[test]
    fn full_block_valid_mask_is_all_ones() {
        assert_eq!(WordBlock::zero(3, BLOCK_WORDS).valid_mask(), u64::MAX);
    }

    #[test]
    fn flip_bit_matches_word_view() {
        let mut block = WordBlock::zero(130, 64);
        block.flip_bit(129, 63);
        assert!(block.word(63).bit(129));
        assert!(!block.word(62).bit(129));
        block.flip_bit(129, 63);
        assert_eq!(block.word(63), Word::zero(130));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_out_of_range_panics() {
        let _ = WordBlock::zero(4, 3).word(3);
    }

    #[test]
    #[should_panic(expected = "mixed widths")]
    fn mixed_width_block_panics() {
        let _ = WordBlock::from_words(&[Word::zero(4), Word::zero(5)]);
    }

    #[test]
    fn vertical_counter_counts() {
        let mut counter = Vec::new();
        // Three planes: word j's count = number of planes with bit j set.
        vertical_add(&mut counter, 0b1011);
        vertical_add(&mut counter, 0b0011);
        vertical_add(&mut counter, 0b0001);
        assert_eq!(counter_at(&counter, 0), 3);
        assert_eq!(counter_at(&counter, 1), 2);
        assert_eq!(counter_at(&counter, 2), 0);
        assert_eq!(counter_at(&counter, 3), 1);
    }

    #[test]
    fn block_status_picks_exactly_one() {
        let s = BlockStatus {
            unchecked: 0b0001,
            clean: 0b0010,
            corrected: 0b0100,
            detected: 0b1000,
        };
        assert_eq!(s.status(0), DecodeStatus::Unchecked);
        assert_eq!(s.status(1), DecodeStatus::Clean);
        assert_eq!(s.status(2), DecodeStatus::Corrected);
        assert_eq!(s.status(3), DecodeStatus::Detected);
    }

    #[test]
    fn batch_build_covers_every_catalog_scheme() {
        for scheme in Scheme::catalog() {
            let k = 8;
            let mut batch = batch_build(scheme, k);
            let scalar = scheme.build(k);
            assert_eq!(batch.name(), scalar.name());
            assert_eq!(batch.data_bits(), scalar.data_bits());
            assert_eq!(batch.wires(), scalar.wires());
            // Smoke roundtrip on a fresh pair of codecs.
            let mut rng = StdRng::seed_from_u64(7);
            let block = random_block(&mut rng, k, 64);
            let mut dec = batch_build(scheme, k);
            let coded = batch.encode(&block);
            assert_eq!(dec.decode(&coded), block, "{}", scalar.name());
        }
    }

    #[test]
    fn dap_at_64_bits_crosses_the_128_wire_ceiling() {
        // DAP(64) uses 129 wires — the satellite-1 regression: the batch
        // path (and the scalar one) must work where Word::bits() cannot.
        let k = 64;
        let mut enc = BatchDap::new(k);
        let mut dec = BatchDap::new(k);
        assert_eq!(enc.wires(), 129);
        let mut rng = StdRng::seed_from_u64(11);
        let block = random_block(&mut rng, k, 64);
        let mut coded = enc.encode(&block);
        // Flip one wire of every word, covering wires above the u128 range.
        for j in 0..64 {
            coded.flip_bit(128 - j, j);
        }
        let (out, status) = dec.decode_checked(&coded);
        assert_eq!(out, block);
        assert_eq!(status.clean, 0);
    }
}

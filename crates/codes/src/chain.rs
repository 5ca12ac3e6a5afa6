//! Two-stage codes: an outer code, a systematic inner code over its
//! wires, and a bus layout — the paper's Fig. 4 composition.
//!
//! ```text
//! data ──outer──▶ w ──tap──▶ payload ──inner──▶ [payload | parity] ──layout──▶ bus
//! ```
//!
//! The *outer* stage (a CAC, a bus-invert LPC, or both as a nested chain)
//! maps data to its wires; the *tap* picks the outer wires the inner stage
//! protects (all of them by default; FTC+HC skips FTC's internal shields,
//! the framework's bus-invert split moves the invert wires last); the
//! systematic *inner* stage (an ECC, or DAP) appends its parity; the
//! [`Layout`] puts the result on the bus — the same for every word, or
//! alternating with a second layout word by word (the boundary-shift
//! code's rotation).
//!
//! Decoding runs the other way, with error control first (the framework's
//! condition 1): read the bus through the layout, decode the inner stage
//! with its status, place the corrected payload back on the outer wires
//! (shields not tapped are re-grounded), decode the outer stage.
//!
//! One [`Chain`] type serves both paths: a chain of scalar stages
//! (`Box<dyn BusCode>`) is a [`BusCode`], a chain of the same stages'
//! native bit-sliced planes (`Box<dyn BatchCode>`) is a [`BatchCode`],
//! and both are built from the same recipe.

use crate::batch::{BatchCode, BlockStatus, WordBlock};
use crate::layout::Layout;
use crate::traits::{BusCode, DecodeStatus};
use socbus_model::{DelayClass, Word};
use std::borrow::Cow;
use std::fmt;

/// A chain stage: a scalar or a batch codec.
pub trait Stage {
    /// Data bits in.
    fn data_bits(&self) -> usize;
    /// Wires out.
    fn wires(&self) -> usize;
}

impl Stage for Box<dyn BusCode> {
    fn data_bits(&self) -> usize {
        BusCode::data_bits(&**self)
    }

    fn wires(&self) -> usize {
        BusCode::wires(&**self)
    }
}

impl Stage for Box<dyn BatchCode> {
    fn data_bits(&self) -> usize {
        BatchCode::data_bits(&**self)
    }

    fn wires(&self) -> usize {
        BatchCode::wires(&**self)
    }
}

/// A two-stage code over [`Stage`]s `S`.
#[derive(Clone)]
pub struct Chain<S> {
    name: Cow<'static, str>,
    k: usize,
    wires: usize,
    outer: Option<S>,
    tap: Option<Layout>,
    inner: S,
    /// The bus layout; `None`: the inner stage's wires in order.
    layout: Option<Layout>,
    /// The layout of every odd word after a reset, for a code that
    /// alternates two (the boundary-shift code).
    alternate: Option<Layout>,
    /// Whether the next word is an odd one.
    odd: bool,
}

impl<S: Stage> Chain<S> {
    /// Assembles a chain: `outer` (if any) feeds the payload bits `tap`
    /// reads from its wires (`None`: all of them, in order) to `inner`,
    /// whose output `layout` puts on the bus (`None`: in order).
    pub(crate) fn new(
        name: impl Into<Cow<'static, str>>,
        outer: Option<S>,
        tap: Option<Layout>,
        inner: S,
        layout: Option<Layout>,
    ) -> Self {
        Chain {
            name: name.into(),
            k: outer.as_ref().map_or(inner.data_bits(), Stage::data_bits),
            wires: layout.as_ref().map_or(inner.wires(), Layout::wires),
            outer,
            tap,
            inner,
            layout,
            alternate: None,
            odd: false,
        }
    }

    /// Lays every odd word out through `odd` instead.
    ///
    /// # Panics
    ///
    /// Panics if `odd` drives another number of wires.
    pub(crate) fn alternating(mut self, odd: Layout) -> Self {
        assert_eq!(odd.wires(), self.wires, "alternate layout width");
        self.alternate = Some(odd);
        self
    }
}

impl<S> Chain<S> {
    /// The layout of the next word (`None`: in order); the phase then
    /// advances by one word.
    fn next_layout(&mut self) -> Option<&Layout> {
        let odd = self.odd;
        self.odd = !odd;
        match &self.alternate {
            Some(alternate) if odd => Some(alternate),
            _ => self.layout.as_ref(),
        }
    }
}

impl<S> fmt::Debug for Chain<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Chain")
            .field("name", &self.name)
            .field("k", &self.k)
            .field("wires", &self.wires)
            .finish_non_exhaustive()
    }
}

impl BusCode for Chain<Box<dyn BusCode>> {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: Word) -> Word {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let w = match &mut self.outer {
            Some(outer) => outer.encode(data),
            None => data,
        };
        let payload = self.tap.as_ref().map_or(w, |tap| tap.read(w));
        let coded = self.inner.encode(payload);
        self.next_layout()
            .map_or(coded, |layout| layout.place(coded))
    }

    fn decode(&mut self, bus: Word) -> Word {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: Word) -> (Word, DecodeStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let coded = self.next_layout().map_or(bus, |layout| layout.read(bus));
        let (payload, status) = self.inner.decode_checked(coded);
        let w = self.tap.as_ref().map_or(payload, |tap| tap.place(payload));
        let data = match &mut self.outer {
            Some(outer) => outer.decode(w),
            None => w,
        };
        (data, status)
    }

    fn reset(&mut self) {
        if let Some(outer) = &mut self.outer {
            outer.reset();
        }
        self.inner.reset();
        self.odd = false;
    }

    fn is_stateful(&self) -> bool {
        self.alternate.is_some()
            || self.inner.is_stateful()
            || self.outer.as_ref().is_some_and(|o| o.is_stateful())
    }

    /// The inner stage's: it is the only error control in the chain.
    fn correctable_errors(&self) -> usize {
        self.inner.correctable_errors()
    }

    fn detectable_errors(&self) -> usize {
        self.inner.detectable_errors()
    }

    /// The tighter of the two stages' guarantees. The layouts keep it:
    /// every wire a CAC stage does not cover is a side bit routed through
    /// a linear CAC (the framework's conditions 3 and 5).
    fn guaranteed_delay_class(&self) -> DelayClass {
        let inner = self.inner.guaranteed_delay_class();
        self.outer
            .as_ref()
            .map_or(inner, |o| inner.min(o.guaranteed_delay_class()))
    }
}

impl Chain<Box<dyn BatchCode>> {
    /// Runs `op` on `block` through the layout of each of its words — for
    /// an alternating chain, through both layouts, merged lane by lane —
    /// and advances the phase. `None` when every word is laid out in
    /// order, so `block` passes through as is.
    fn through_layouts(
        &mut self,
        block: &WordBlock,
        op: impl Fn(&Layout, &WordBlock) -> WordBlock,
    ) -> Option<WordBlock> {
        let first_odd = self.odd;
        self.odd ^= block.len() % 2 == 1;
        let even = self.layout.as_ref().map(|layout| op(layout, block));
        let Some(alternate) = &self.alternate else {
            return even;
        };
        let odd = op(alternate, block);
        let even = even.as_ref().unwrap_or(block);
        // Word j is odd when its index parity differs from the first's.
        let odd_words = if first_odd {
            0x5555_5555_5555_5555
        } else {
            0xAAAA_AAAA_AAAA_AAAA
        };
        let mut merged = odd;
        for (out, e) in merged.lanes_mut().iter_mut().zip(even.lanes()) {
            *out = (*out & odd_words) | (e & !odd_words);
        }
        Some(merged)
    }
}

impl BatchCode for Chain<Box<dyn BatchCode>> {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn data_bits(&self) -> usize {
        self.k
    }

    fn wires(&self) -> usize {
        self.wires
    }

    fn encode(&mut self, data: &WordBlock) -> WordBlock {
        assert_eq!(data.width(), self.k, "data width mismatch");
        let outer_block;
        let w = match &mut self.outer {
            Some(outer) => {
                outer_block = outer.encode(data);
                &outer_block
            }
            None => data,
        };
        let coded = match &self.tap {
            Some(tap) => self.inner.encode(&tap.read_block(w)),
            None => self.inner.encode(w),
        };
        self.through_layouts(&coded, Layout::place_block)
            .unwrap_or(coded)
    }

    fn decode(&mut self, bus: &WordBlock) -> WordBlock {
        self.decode_checked(bus).0
    }

    fn decode_checked(&mut self, bus: &WordBlock) -> (WordBlock, BlockStatus) {
        assert_eq!(bus.width(), self.wires, "bus width mismatch");
        let read = self.through_layouts(bus, Layout::read_block);
        let (payload, status) = self.inner.decode_checked(read.as_ref().unwrap_or(bus));
        let w = match &self.tap {
            Some(tap) => tap.place_block(&payload),
            None => payload,
        };
        let data = match &mut self.outer {
            Some(outer) => outer.decode(&w),
            None => w,
        };
        (data, status)
    }

    fn reset(&mut self) {
        if let Some(outer) = &mut self.outer {
            outer.reset();
        }
        self.inner.reset();
        self.odd = false;
    }
}

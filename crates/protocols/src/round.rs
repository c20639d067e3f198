//! The packed lane codec of a synchronous round state.
//!
//! The single-mobile-failure model `M^mf` (Section 5) and the t-resilient
//! crash model (Section 6) run the same round of a [`SyncProtocol`], and
//! their states share the round, the inputs, the latched decisions and the
//! local states. Both pack those fields with [`RoundLanes`]; the crash
//! model stacks its failure record on top.

use layered_core::{pack_decision, unpack_decision, FieldPacker, PidGroup, Value, DECISION_BITS};

use crate::traits::SyncProtocol;

/// The packed codec of a synchronous round state's common fields, for an
/// `n`-process model whose protocol packs its local states. Layout, low
/// bits first: `n` lanes of `2` input bits, [`DECISION_BITS`] decision bits
/// and the protocol's local codec (one pid group), then 8 round bits. A
/// model may stack its own fields from bit [`top`](Self::top) up.
#[derive(Clone, Debug)]
pub struct RoundLanes<L> {
    n: usize,
    lane: u32,
    local: FieldPacker<L>,
}

/// The fields [`RoundLanes::unpack`] decodes: the round, the inputs, the
/// latched decisions and the local states.
pub type RoundFields<L> = (u16, Vec<Value>, Vec<Option<Value>>, Vec<L>);

impl<L> RoundLanes<L> {
    /// The codec for `n` processes running `protocol`, leaving `extra` bits
    /// above the round for the model; `None` if the protocol does not pack
    /// its local states or the word would exceed 127 bits.
    pub fn new<P: SyncProtocol<LocalState = L>>(
        n: usize,
        protocol: &P,
        extra: u32,
    ) -> Option<Self> {
        let local = protocol.local_packer()?;
        let lane = 2 + DECISION_BITS + local.bits();
        (n as u32 * lane + 8 + extra <= 127).then_some(RoundLanes { n, lane, local })
    }

    /// The lowest bit above the round bits.
    #[must_use]
    pub fn top(&self) -> u32 {
        self.n as u32 * self.lane + 8
    }

    /// The per-pid lanes, as the codec's pid group.
    #[must_use]
    pub fn group(&self) -> PidGroup {
        PidGroup {
            start: 0,
            width: self.lane,
        }
    }

    /// Packs the common fields, or `None` if any does not fit.
    #[must_use]
    pub fn pack(
        &self,
        round: u16,
        inputs: &[Value],
        decided: &[Option<Value>],
        locals: &[L],
    ) -> Option<u128> {
        if locals.len() != self.n || round >= 1 << 8 {
            return None;
        }
        let mut w = u128::from(round) << (self.top() - 8);
        for i in 0..self.n {
            let off = i as u32 * self.lane;
            let inp = u64::from(inputs[i].get());
            if inp >= 4 {
                return None;
            }
            let dec = pack_decision(decided[i])?;
            let loc = self.local.pack(&locals[i])?;
            w |= u128::from(inp) << off;
            w |= u128::from(dec) << (off + 2);
            w |= u128::from(loc) << (off + 2 + DECISION_BITS);
        }
        Some(w)
    }

    /// Decodes the common fields of a word produced by
    /// [`pack`](Self::pack).
    #[must_use]
    pub fn unpack(&self, w: u128) -> RoundFields<L> {
        let mut inputs = Vec::with_capacity(self.n);
        let mut decided = Vec::with_capacity(self.n);
        let mut locals = Vec::with_capacity(self.n);
        for i in 0..self.n {
            let off = i as u32 * self.lane;
            inputs.push(Value::new(((w >> off) & 0b11) as u32));
            decided.push(unpack_decision(
                ((w >> (off + 2)) as u64) & ((1 << DECISION_BITS) - 1),
            ));
            locals.push(
                self.local
                    .unpack(((w >> (off + 2 + DECISION_BITS)) as u64) & self.local.mask()),
            );
        }
        let round = ((w >> (self.top() - 8)) & 0xFF) as u16;
        (round, inputs, decided, locals)
    }
}

//! Arena memory accounting: byte footprints of the big analysis structures.
//!
//! The interning arenas are where scan memory goes, so we need to *see*
//! them. [`MemoryFootprint`] is
//! implemented by [`StateSpace`](crate::StateSpace),
//! [`QuotientSpace`](crate::QuotientSpace), [`Graph`](crate::graph::Graph)
//! and the valence solvers' memo tables; each reports a
//! [`MemoryBreakdown`] of named components that
//! [`MemoryBreakdown::report`] publishes as `mem.*` gauges.
//!
//! Accounting is *shallow and capacity-based*: each component reports
//! `capacity × size_of::<Element>()` plus directly owned buffers one level
//! down, excluding allocator headers and deep heap payloads inside user
//! state types. The numbers are therefore documented lower bounds — but
//! deterministic ones: for a fixed binary and input they depend only on
//! the (deterministic) sequence of insertions, so they are safe on the
//! canonical record surface.

use super::{Name, Observer};

/// Byte counts of a structure, itemized by component.
///
/// Component names are `mem.*` gauge [`Name`]s, so a breakdown can be
/// published verbatim with [`report`](MemoryBreakdown::report).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryBreakdown {
    components: Vec<(Name, u64)>,
}

impl MemoryBreakdown {
    /// An empty breakdown.
    #[must_use]
    pub fn new() -> Self {
        MemoryBreakdown::default()
    }

    /// Adds a component under a `mem.*` gauge name. Repeated names
    /// accumulate.
    pub fn push(&mut self, name: Name, bytes: u64) {
        if let Some(slot) = self.components.iter_mut().find(|(n, _)| *n == name) {
            slot.1 += bytes;
        } else {
            self.components.push((name, bytes));
        }
    }

    /// The components, in insertion order.
    #[must_use]
    pub fn components(&self) -> &[(Name, u64)] {
        &self.components
    }

    /// Total bytes across all components.
    #[must_use]
    pub fn total_bytes(&self) -> u64 {
        self.components.iter().map(|&(_, b)| b).sum()
    }

    /// Publishes every component as a gauge on `obs`.
    pub fn report(&self, obs: &dyn Observer) {
        for &(name, bytes) in &self.components {
            obs.gauge(name, bytes);
        }
    }
}

/// Structures that can account for their own heap footprint.
pub trait MemoryFootprint {
    /// The structure's current byte footprint, itemized by component.
    fn memory_footprint(&self) -> MemoryBreakdown;

    /// Publishes the footprint as `mem.*` gauges on `obs`.
    fn report_memory(&self, obs: &dyn Observer) {
        self.memory_footprint().report(obs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{names, MetricsRegistry};

    #[test]
    fn breakdown_accumulates_and_totals() {
        let mut b = MemoryBreakdown::new();
        b.push(names::MEM_SPACE_STATES_BYTES, 100);
        b.push(names::MEM_SPACE_INDEX_BYTES, 50);
        b.push(names::MEM_SPACE_STATES_BYTES, 10);
        assert_eq!(b.total_bytes(), 160);
        assert_eq!(b.components().len(), 2);
        assert_eq!(b.components()[0], (names::MEM_SPACE_STATES_BYTES, 110));
    }

    #[test]
    fn report_publishes_gauges() {
        let mut b = MemoryBreakdown::new();
        b.push(names::MEM_SPACE_STATES_BYTES, 4096);
        let reg = MetricsRegistry::new();
        b.report(&reg);
        assert_eq!(reg.snapshot().gauge_max("mem.space.states_bytes"), 4096);
    }
}

//! State-space census: quantitative structure of a layered model.
//!
//! The submodels the layerings induce are drastically smaller than the full
//! models (that is their point — compare `S₁`'s `n² + 1` actions with
//! `M^mf`'s `n·2ⁿ`). This module measures the induced state spaces level by
//! level: distinct states, layer sizes, deduplication factors, and decided
//! fractions; the experiment harness tabulates them per model.

use std::collections::HashSet;

use crate::telemetry::{Observer, Span};
use crate::{LayeredModel, Pid};

/// Census of one depth level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LevelCensus {
    /// Depth (layers from the initial states).
    pub depth: usize,
    /// Distinct states at this depth.
    pub states: usize,
    /// Successor edges leaving this level (with multiplicity).
    pub edges: usize,
    /// Minimum layer size over the level.
    pub min_layer: usize,
    /// Maximum layer size over the level.
    pub max_layer: usize,
    /// States at this level in which at least one process has decided.
    pub with_decisions: usize,
}

impl LevelCensus {
    /// Average layer size (edges per state).
    #[must_use]
    pub fn avg_layer(&self) -> f64 {
        if self.states == 0 {
            0.0
        } else {
            self.edges as f64 / self.states as f64
        }
    }

    /// Deduplication factor: edges emitted vs. distinct states produced at
    /// the next level (filled by [`census`]; `1.0` means no merging).
    #[must_use]
    pub fn dedup_factor(&self, next_states: usize) -> f64 {
        if next_states == 0 {
            0.0
        } else {
            self.edges as f64 / next_states as f64
        }
    }
}

/// Census of a model's induced state space, level by level. States
/// visited, dedup hits, frontier widths and decided-state counts are
/// reported to `obs`.
pub fn census<M: LayeredModel>(model: &M, depth: usize, obs: &dyn Observer) -> Vec<LevelCensus> {
    let _span = Span::enter(obs, "stats.census");
    let n = model.num_processes();
    let mut out = Vec::with_capacity(depth + 1);
    let mut level = model.initial_states();
    for d in 0..=depth {
        obs.gauge("engine.frontier_width", level.len() as u64);
        let mut edges = 0usize;
        let mut min_layer = usize::MAX;
        let mut max_layer = 0usize;
        let mut next = Vec::new();
        let mut seen = HashSet::new();
        let with_decisions = level
            .iter()
            .filter(|x| Pid::all(n).any(|i| model.decision(x, i).is_some()))
            .count();
        obs.counter("engine.states_visited", level.len() as u64);
        obs.counter("census.decided_states", with_decisions as u64);
        if d < depth {
            for x in &level {
                let layer = model.successors(x);
                edges += layer.len();
                min_layer = min_layer.min(layer.len());
                max_layer = max_layer.max(layer.len());
                for y in layer {
                    if seen.insert(y.clone()) {
                        next.push(y);
                    } else {
                        obs.counter("engine.dedup_hits", 1);
                    }
                }
            }
        }
        out.push(LevelCensus {
            depth: d,
            states: level.len(),
            edges,
            min_layer: if min_layer == usize::MAX {
                0
            } else {
                min_layer
            },
            max_layer,
            with_decisions,
        });
        level = next;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::NOOP;
    use crate::testkit::{flp_diamond, CounterModel};

    #[test]
    fn counter_census_counts() {
        let m = CounterModel::new(2, 3);
        let rows = census(&m, 2, &NOOP);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[0].states, 4); // 2^2 inputs
        assert_eq!(rows[0].edges, 12); // 3 successors each
        assert_eq!(rows[0].min_layer, 3);
        assert_eq!(rows[0].max_layer, 3);
        assert_eq!(rows[1].states, 12); // labels distinct per input vector
        assert_eq!(rows[0].with_decisions, 0);
        // Terminal level measures no edges.
        assert_eq!(rows[2].edges, 0);
    }

    #[test]
    fn diamond_census_sees_decisions() {
        let m = flp_diamond();
        let rows = census(&m, 2, &NOOP);
        assert_eq!(rows[0].states, 1);
        assert_eq!(rows[1].states, 2);
        assert_eq!(rows[2].states, 2);
        assert_eq!(rows[2].with_decisions, 2);
        assert_eq!(rows[1].with_decisions, 0);
    }

    #[test]
    fn avg_and_dedup_factors() {
        let m = CounterModel::new(2, 3);
        let rows = census(&m, 1, &NOOP);
        assert!((rows[0].avg_layer() - 3.0).abs() < 1e-9);
        assert!((rows[0].dedup_factor(rows[1].states) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn census_invariants_hold_on_known_models() {
        for rows in [
            census(&flp_diamond(), 2, &NOOP),
            census(&CounterModel::new(3, 2), 3, &NOOP),
        ] {
            for (i, r) in rows.iter().enumerate() {
                // Decided states are a subset of the level's states.
                assert!(
                    r.with_decisions <= r.states,
                    "level {i}: {} decided > {} states",
                    r.with_decisions,
                    r.states
                );
                // Layer bounds bracket the average.
                assert!(r.min_layer <= r.max_layer, "level {i}: min > max layer");
                if let Some(next) = rows.get(i + 1) {
                    // Merging can only shrink: the dedup factor is ≥ 1 once
                    // edges flow, i.e. edges ≥ distinct next-level states.
                    assert!(
                        r.edges >= next.states,
                        "level {i}: {} edges < {} next states",
                        r.edges,
                        next.states
                    );
                    assert!(r.dedup_factor(next.states) >= 1.0, "level {i}");
                }
            }
        }
    }

    #[test]
    fn census_records_engine_telemetry() {
        use crate::telemetry::MetricsRegistry;
        let m = CounterModel::new(2, 3);
        let reg = MetricsRegistry::new();
        let rows = census(&m, 2, &reg);
        let snap = reg.snapshot();
        let visited: usize = rows.iter().map(|r| r.states).sum();
        assert_eq!(snap.counter("engine.states_visited"), visited as u64);
        assert_eq!(
            snap.gauge_max("engine.frontier_width"),
            rows.iter().map(|r| r.states).max().unwrap_or(0) as u64
        );
        assert_eq!(snap.spans["stats.census"].count, 1);
    }
}

//! The s-diameter growth bound (Lemma 7.6 / Theorem 7.7).
//!
//! Lemma 7.6: if a set `X` of states is similarity connected with
//! s-diameter `d_X`, every layer `S(x)` is similarity connected with
//! s-diameter at most `d_Y`, and the model displays an arbitrary crash
//! failure on `X`, then `S(X)` is similarity connected with s-diameter at
//! most `d_X·d_Y + d_X + d_Y`. Iterating the recurrence bounds the diameter
//! of the round-`m` state set, which is the quantitative ingredient of the
//! Theorem 7.7 necessary condition for `t`-round solvability.
//!
//! [`diameter_sweep`] measures the actual s-diameters level by level and
//! tabulates them against the recurrence, so the bound can be *checked*
//! rather than assumed.

use layered_core::{s_diameter, LayeredModel, Region};

/// The Lemma 7.6 bound on the s-diameter of `S(X)`.
#[must_use]
pub fn lemma_7_6_bound(d_x: usize, d_y: usize) -> usize {
    d_x * d_y + d_x + d_y
}

/// One level of a [`diameter_sweep`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiameterRow {
    /// Depth (layers from the initial states).
    pub depth: usize,
    /// Number of distinct states at this depth.
    pub states: usize,
    /// Measured s-diameter of the full depth-`m` state set (`None` =
    /// similarity disconnected).
    pub measured: Option<usize>,
    /// Maximum measured s-diameter over the layers `S(x)` of the previous
    /// level (`d_Y^{m−1}`); `None` for the initial level.
    pub layer_diameter: Option<usize>,
    /// The recurrence bound `d_X·d_Y + d_X + d_Y` computed from the
    /// previous level's *measured* values; `None` where undefined.
    pub bound: Option<usize>,
}

impl DiameterRow {
    /// Whether the measured diameter respects the recurrence bound (rows
    /// with no bound or no measurement pass vacuously).
    #[must_use]
    pub fn within_bound(&self) -> bool {
        match (self.measured, self.bound) {
            (Some(m), Some(b)) => m <= b,
            _ => true,
        }
    }
}

/// Measures s-diameters of the depth-`m` state sets of `region`, for `m`
/// from 0 to its horizon, and tabulates them against the Lemma 7.6
/// recurrence. Each layer `S(x)` is read from the region's cached rows.
pub fn diameter_sweep<M: LayeredModel>(model: &M, region: &Region<M>) -> Vec<DiameterRow> {
    let space = region.space();
    let mut rows: Vec<DiameterRow> = Vec::with_capacity(region.levels().len());
    for (m, level) in region.levels().iter().enumerate() {
        let measured = s_diameter(model, &space.materialize(level));
        // d_Y^m: the worst layer diameter over this level (used for the
        // next row's bound); undefined on the last level.
        let layer_diameter = if m < region.horizon() {
            level.iter().try_fold(0usize, |worst, &x| {
                s_diameter(model, &space.materialize(region.row(x))).map(|d| worst.max(d))
            })
        } else {
            None
        };
        let bound = match rows.last() {
            Some(DiameterRow {
                measured: Some(dx),
                layer_diameter: Some(dy),
                ..
            }) => Some(lemma_7_6_bound(*dx, *dy)),
            _ => None,
        };
        rows.push(DiameterRow {
            depth: m,
            states: level.len(),
            measured,
            layer_diameter,
            bound,
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use layered_core::telemetry::NOOP;
    use layered_core::testkit::CounterModel;

    use super::*;

    #[test]
    fn bound_formula() {
        assert_eq!(lemma_7_6_bound(0, 0), 0);
        assert_eq!(lemma_7_6_bound(2, 3), 11);
        assert_eq!(lemma_7_6_bound(1, 1), 3);
    }

    #[test]
    fn sweep_on_counter_model() {
        // CounterModel initial states: all 2^n input vectors; agree-modulo
        // chains make the set similarity connected with diameter >= 1.
        let m = CounterModel::new(3, 2);
        let rows = diameter_sweep(&m, &Region::reachable(&m, 2, &NOOP));
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].depth, 0);
        assert_eq!(rows[0].states, 8);
        assert!(rows[0].measured.is_some());
        assert!(rows[0].bound.is_none());
        for r in &rows {
            assert!(r.within_bound(), "row {r:?} exceeds the Lemma 7.6 bound");
        }
    }

    #[test]
    fn rows_report_layer_diameters() {
        // branch = 1: singleton layers have diameter 0.
        let m = CounterModel::new(2, 1);
        let rows = diameter_sweep(&m, &Region::reachable(&m, 1, &NOOP));
        // Non-terminal rows carry a layer diameter, the last row does not.
        assert_eq!(rows[0].layer_diameter, Some(0));
        assert!(rows[1].layer_diameter.is_none());
        assert_eq!(rows[1].bound, rows[0].measured);
    }
}

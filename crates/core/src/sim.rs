//! Trait plumbing for the adversary-scheduler simulation runtime.
//!
//! The exhaustive engines in this crate reason about *all* runs `R(A, M)` of
//! a protocol by enumerating every layer successor. That is exact but caps
//! out around `n ≤ 3`. The `layered-sim` crate takes the complementary view
//! of the same objects — Gafni–Losa's adversary-vs-protocol game — and
//! executes *individual* long runs under concrete adversary strategies at
//! sizes the enumerator cannot touch.
//!
//! The bridge between the two worlds is [`SimModel`]: a
//! [`LayeredModel`] that additionally exposes its layer
//! as a set of compact, directly-applicable *moves* (environment actions)
//! instead of only as the materialized successor set. Every move yielded by
//! [`clean_move`](SimModel::clean_move), [`fault_move`](SimModel::fault_move)
//! or [`sample_move`](SimModel::sample_move) must satisfy
//!
//! ```text
//! apply_move(x, m) ∈ S(x)
//! ```
//!
//! so every simulated run is a genuine `S`-execution — re-checkable on small
//! instances against [`LayeredModel::successors`] via
//! [`ExecutionTrace::validate`](crate::ExecutionTrace::validate).
//!
//! Moves also [encode](SimModel::encode_move) into model-agnostic
//! [`MoveRecord`]s, which is what schedules serialize into JSON as and what
//! fault-injection counters are derived from.

use std::fmt::Debug;
use std::hash::Hash;

use crate::telemetry::json::Json;
use crate::{LayeredModel, Pid};

/// A compact, model-agnostic description of one layer move, for schedule
/// serialization and fault accounting.
///
/// The `kind` vocabulary is chosen by each model (e.g. `"clean"`, `"crash"`,
/// `"omit"`, `"absent"`, `"staggered"`, `"seq"`, `"conc"`, `"drop"`); `args`
/// carries the move's parameters (process indices, prefix bounds, orders) as
/// plain integers.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct MoveRecord {
    /// Model-chosen move tag.
    pub kind: &'static str,
    /// Move parameters, flattened to integers (0-based process indices).
    pub args: Vec<u64>,
    /// Whether the move injects a fault (silences, crashes or skips a
    /// process), as opposed to merely picking a fault-free scheduling order.
    pub fault: bool,
}

impl MoveRecord {
    /// A fault-free record with no parameters.
    #[must_use]
    pub fn clean() -> Self {
        MoveRecord {
            kind: "clean",
            args: Vec::new(),
            fault: false,
        }
    }

    /// The record as a JSON object `{"kind": …, "args": […], "fault": …}`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::Object(vec![
            ("kind".into(), Json::String(self.kind.to_string())),
            (
                "args".into(),
                Json::Array(self.args.iter().map(|&a| Json::from(a)).collect()),
            ),
            ("fault".into(), Json::from(self.fault)),
        ])
    }

    /// A canonical single-line rendering (`kind(arg,arg,…)`), used for
    /// byte-exact schedule comparison in determinism tests.
    #[must_use]
    pub fn display(&self) -> String {
        let args: Vec<String> = self.args.iter().map(u64::to_string).collect();
        format!("{}({})", self.kind, args.join(","))
    }
}

/// A [`LayeredModel`] whose layer moves can be constructed directly, without
/// enumerating the full successor set.
///
/// This is what lets the simulation runtime execute runs at `n = 16` or
/// `n = 64` in models whose layers have `n²` (synchronous) or `n!`
/// (permutation) members: the adversary *builds* one legal move per layer
/// instead of choosing from a materialized list.
///
/// # Contract
///
/// For every state `x` reachable in the model and every move `m` returned by
/// [`clean_move`](Self::clean_move), [`fault_move`](Self::fault_move) or
/// [`sample_move`](Self::sample_move) at `x`:
///
/// * `apply_move(x, m)` is a member of `successors(x)` (simulated runs are
///   `S`-executions);
/// * `apply_move` is deterministic: equal `(x, m)` give equal results;
/// * `clean_move` never injects a fault (its record satisfies
///   `!record.fault`), so replacing any move by the clean move — as schedule
///   shrinking does — can only remove failures, never add them.
pub trait SimModel: LayeredModel {
    /// The model-specific move (environment action) type.
    type Move: Clone + Eq + Hash + Debug;

    /// The canonical quiet move at `x`: a failure-free round / a full
    /// scheduling order. Always legal.
    fn clean_move(&self, x: &Self::State) -> Self::Move;

    /// A fault move directed at process `target`, with a model-specific
    /// `intensity` knob (message-prefix bound, rotation, stagger point, …).
    ///
    /// Returns `None` when no such fault is legal at `x` (e.g. the failure
    /// budget is exhausted or `target` is already crashed) — adversaries
    /// fall back to [`clean_move`](Self::clean_move) in that case.
    fn fault_move(&self, x: &Self::State, target: Pid, intensity: usize) -> Option<Self::Move>;

    /// Samples a legal move at `x`. `bits(bound)` must return a uniform draw
    /// in `[0, bound)`; the model decides how many draws to consume, and
    /// must consume the same number for equal states (determinism of replay
    /// from a seed).
    fn sample_move(&self, x: &Self::State, bits: &mut dyn FnMut(u64) -> u64) -> Self::Move;

    /// Applies a move, producing the unique successor it selects.
    ///
    /// # Panics
    ///
    /// May panic if `mv` is not legal at `x` (moves must come from the three
    /// constructors above, evaluated at `x`).
    fn apply_move(&self, x: &Self::State, mv: &Self::Move) -> Self::State;

    /// Encodes a move for serialization and fault accounting.
    fn encode_move(&self, mv: &Self::Move) -> MoveRecord;

    /// Decodes the `(kind, args)` of a [`MoveRecord`] back into a move —
    /// the inverse of [`encode_move`](Self::encode_move), used to replay
    /// schedules deserialized from JSON (certificate stores, `--json`
    /// records).
    ///
    /// Returns `None` for an unknown kind or a malformed argument list.
    /// Decoded moves must satisfy `decode_move(encode_move(m)) == Some(m)`
    /// for every move the three constructors produce.
    fn decode_move(&self, kind: &str, args: &[u64]) -> Option<Self::Move>;

    /// Whether the move injects a fault. Defaults to the encoded record's
    /// `fault` flag.
    fn is_fault(&self, mv: &Self::Move) -> bool {
        self.encode_move(mv).fault
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_record_shape() {
        let r = MoveRecord::clean();
        assert_eq!(r.kind, "clean");
        assert!(!r.fault);
        assert_eq!(r.display(), "clean()");
    }

    #[test]
    fn record_json_round_trips() {
        let r = MoveRecord {
            kind: "omit",
            args: vec![2, 3],
            fault: true,
        };
        let rendered = r.to_json().to_string();
        let parsed = Json::parse(&rendered).expect("valid json");
        assert_eq!(parsed["kind"].as_str(), Some("omit"));
        assert_eq!(parsed["args"][1].as_u64(), Some(3));
        assert_eq!(parsed["fault"].as_bool(), Some(true));
        assert_eq!(r.display(), "omit(2,3)");
    }
}

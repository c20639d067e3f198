//! Canonical, replayable serialization of proof artifacts.
//!
//! The engines in this workspace produce artifacts whose states are
//! model-specific types ([`ExecutionTrace`] chains, [`ImpossibilityWitness`]
//! bundles). Persisting them naively would require every protocol local
//! state to define a wire format. Instead, this module serializes a trace
//! *relative to its model* as the data needed to replay it:
//!
//! * the input assignment of the initial state, and
//! * for each step, the **index** of the chosen successor within
//!   `model.successors(x)` (whose order is deterministic under the repo's
//!   determinism contract, which the model crates' layer differential
//!   tests and the byte-stability suite enforce).
//!
//! Decoding replays the path from `initial_state(inputs)`, so a decoded
//! trace is a genuine `S`-execution *by construction*. To detect drift
//! (e.g. a successor-ordering change between engine versions) every state
//! additionally carries a 64-bit FNV-1a fingerprint of its canonical
//! `Debug` rendering, re-checked on decode.
//!
//! The JSON produced here is the body of the certificates in
//! `crates/cert`; the content hash of the full certificate makes the
//! encoding tamper-evident end to end.

use crate::telemetry::json::Json;
use crate::witness::ImpossibilityWitness;
use crate::{ExecutionTrace, LayeredModel, Value, MAX_HORIZON};

/// Why encoding or decoding an artifact failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// A required field is missing or has the wrong JSON type.
    Malformed(&'static str),
    /// The trace's first state is not `initial_state(inputs)`.
    NotInitial,
    /// A step's state is not among its predecessor's successors (encode),
    /// or a path index is out of range for the layer (decode).
    BadStep {
        /// Index of the offending step.
        step: usize,
    },
    /// A replayed state's fingerprint differs from the recorded one —
    /// the model or its successor ordering changed since encoding.
    FingerprintMismatch {
        /// Index of the first mismatching state.
        index: usize,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Malformed(what) => write!(f, "malformed artifact JSON: {what}"),
            ArtifactError::NotInitial => write!(f, "first state is not initial_state(inputs)"),
            ArtifactError::BadStep { step } => write!(f, "step {step} is not a layer transition"),
            ArtifactError::FingerprintMismatch { index } => {
                write!(f, "state {index} fingerprint mismatch (model drift?)")
            }
        }
    }
}

impl std::error::Error for ArtifactError {}

/// 64-bit FNV-1a over `bytes` — the cheap content fingerprint used for
/// per-state drift detection (the store's collision-resistant hash is the
/// certificate-level SHA in `crates/cert`).
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The fingerprint of one model state: FNV-1a of its `Debug` rendering,
/// as a fixed-width lowercase hex string (JSON numbers are `f64`-backed,
/// so 64-bit hashes travel as strings).
#[must_use]
pub fn state_fingerprint<S: std::fmt::Debug>(state: &S) -> String {
    format!("{:016x}", fnv1a64(format!("{state:?}").as_bytes()))
}

fn inputs_to_json(inputs: &[Value]) -> Json {
    Json::Array(
        inputs
            .iter()
            .map(|v| Json::from(u64::from(v.get())))
            .collect(),
    )
}

fn inputs_from_json(json: &Json) -> Result<Vec<Value>, ArtifactError> {
    let Json::Array(items) = json else {
        return Err(ArtifactError::Malformed("inputs must be an array"));
    };
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|v| u32::try_from(v).ok())
                .map(Value::new)
                .ok_or(ArtifactError::Malformed("inputs must be small integers"))
        })
        .collect()
}

fn u64s_from_json(json: &Json, what: &'static str) -> Result<Vec<u64>, ArtifactError> {
    let Json::Array(items) = json else {
        return Err(ArtifactError::Malformed(what));
    };
    items
        .iter()
        .map(|v| v.as_u64().ok_or(ArtifactError::Malformed(what)))
        .collect()
}

/// Encodes `trace` relative to `model` as a replayable path object:
/// `{"inputs": […], "path": […], "fp": […]}`.
///
/// # Errors
///
/// [`ArtifactError::NotInitial`] if the first state is not the model's
/// initial state for its own inputs; [`ArtifactError::BadStep`] if some
/// step is not a layer transition.
pub fn trace_to_json<M: LayeredModel>(
    model: &M,
    trace: &ExecutionTrace<M::State>,
) -> Result<Json, ArtifactError> {
    let inputs = model.inputs_of(trace.first());
    if *trace.first() != model.initial_state(&inputs) {
        return Err(ArtifactError::NotInitial);
    }
    let mut path = Vec::with_capacity(trace.steps());
    for (step, w) in trace.states().windows(2).enumerate() {
        let layer = model.successors(&w[0]);
        let index = layer
            .iter()
            .position(|y| *y == w[1])
            .ok_or(ArtifactError::BadStep { step })?;
        path.push(Json::from(index as u64));
    }
    let fp = trace
        .states()
        .iter()
        .map(|x| Json::String(state_fingerprint(x)))
        .collect();
    Ok(Json::Object(vec![
        ("inputs".into(), inputs_to_json(&inputs)),
        ("path".into(), Json::Array(path)),
        ("fp".into(), Json::Array(fp)),
    ]))
}

/// Decodes a trace previously encoded by [`trace_to_json`], replaying the
/// successor-index path from `initial_state(inputs)`.
///
/// The result is a genuine `S`-execution by construction; the recorded
/// fingerprints are re-checked so a successor-ordering change between
/// engine versions surfaces as [`ArtifactError::FingerprintMismatch`]
/// instead of a silently different execution.
///
/// # Errors
///
/// Any [`ArtifactError`]: malformed JSON, out-of-range path index, or a
/// fingerprint mismatch.
pub fn trace_from_json<M: LayeredModel>(
    model: &M,
    json: &Json,
) -> Result<ExecutionTrace<M::State>, ArtifactError> {
    let inputs = inputs_from_json(
        json.get("inputs")
            .ok_or(ArtifactError::Malformed("missing inputs"))?,
    )?;
    if inputs.len() != model.num_processes() {
        return Err(ArtifactError::Malformed("inputs length != n"));
    }
    let path = u64s_from_json(
        json.get("path")
            .ok_or(ArtifactError::Malformed("missing path"))?,
        "path must be an index array",
    )?;
    let fp = match json.get("fp") {
        Some(Json::Array(items)) => items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or(ArtifactError::Malformed("fp must hold hex strings"))
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err(ArtifactError::Malformed("fp must be an array")),
        None => Vec::new(),
    };
    if !fp.is_empty() && fp.len() != path.len() + 1 {
        return Err(ArtifactError::Malformed("fp length != path length + 1"));
    }

    let mut trace = ExecutionTrace::new(vec![model.initial_state(&inputs)]);
    for (step, &index) in path.iter().enumerate() {
        let layer = model.successors(trace.last());
        let index = usize::try_from(index).map_err(|_| ArtifactError::BadStep { step })?;
        let next = layer
            .into_iter()
            .nth(index)
            .ok_or(ArtifactError::BadStep { step })?;
        trace.push(next);
    }
    for (index, want) in fp.iter().enumerate() {
        if state_fingerprint(&trace.states()[index]) != *want {
            return Err(ArtifactError::FingerprintMismatch { index });
        }
    }
    Ok(trace)
}

/// Encodes a witness as its path-encoded chain plus the horizon and the
/// recorded undecided counts:
/// `{"inputs": …, "path": …, "fp": …, "horizon": …, "undecided": […]}`.
///
/// # Errors
///
/// As [`trace_to_json`] on the chain.
pub fn witness_to_json<M: LayeredModel>(
    model: &M,
    witness: &ImpossibilityWitness<M::State>,
) -> Result<Json, ArtifactError> {
    let Json::Object(mut members) = trace_to_json(model, &witness.chain)? else {
        unreachable!("trace_to_json returns an object");
    };
    members.push(("horizon".into(), Json::from(witness.horizon as u64)));
    members.push((
        "undecided".into(),
        Json::Array(
            witness
                .undecided
                .iter()
                .map(|&u| Json::from(u as u64))
                .collect(),
        ),
    ));
    Ok(Json::Object(members))
}

/// Decodes a witness previously encoded by [`witness_to_json`].
///
/// The chain is replayed via [`trace_from_json`]; the caller decides how
/// much semantic re-verification to run on top (see
/// [`ImpossibilityWitness::verify`] for the full re-check).
///
/// # Errors
///
/// Any [`ArtifactError`] from the chain, or malformed witness fields,
/// among them a horizon above [`MAX_HORIZON`].
pub fn witness_from_json<M: LayeredModel>(
    model: &M,
    json: &Json,
) -> Result<ImpossibilityWitness<M::State>, ArtifactError> {
    let horizon = json
        .get("horizon")
        .and_then(Json::as_u64)
        .and_then(|v| usize::try_from(v).ok())
        .ok_or(ArtifactError::Malformed("missing horizon"))?;
    if horizon > MAX_HORIZON {
        return Err(ArtifactError::Malformed("horizon above MAX_HORIZON"));
    }
    let chain = trace_from_json(model, json)?;
    let undecided = u64s_from_json(
        json.get("undecided")
            .ok_or(ArtifactError::Malformed("missing undecided"))?,
        "undecided must be a count array",
    )?
    .into_iter()
    .map(|u| usize::try_from(u).map_err(|_| ArtifactError::Malformed("undecided count too large")))
    .collect::<Result<Vec<_>, _>>()?;
    if undecided.len() != chain.states().len() {
        return Err(ArtifactError::Malformed("undecided length != chain length"));
    }
    Ok(ImpossibilityWitness {
        chain,
        horizon,
        undecided,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::CounterModel;

    fn trace_of_len(
        model: &CounterModel,
        steps: usize,
    ) -> ExecutionTrace<<CounterModel as LayeredModel>::State> {
        let mut trace = ExecutionTrace::new(vec![model.initial_states().remove(1)]);
        for _ in 0..steps {
            let next = model.successors(trace.last()).remove(1);
            trace.push(next);
        }
        trace
    }

    #[test]
    fn trace_round_trips() {
        let m = CounterModel::new(2, 5);
        let trace = trace_of_len(&m, 3);
        let json = trace_to_json(&m, &trace).expect("encodable");
        let back = trace_from_json(&m, &json).expect("decodable");
        assert_eq!(back, trace);
    }

    #[test]
    fn round_trip_survives_json_text() {
        let m = CounterModel::new(2, 5);
        let trace = trace_of_len(&m, 2);
        let text = trace_to_json(&m, &trace).expect("encodable").to_string();
        let parsed = Json::parse(&text).expect("valid json");
        assert_eq!(trace_from_json(&m, &parsed).expect("decodable"), trace);
    }

    #[test]
    fn unrooted_trace_is_not_encodable() {
        let m = CounterModel::new(2, 5);
        let x0 = m.initial_states().remove(0);
        let x1 = m.successors(&x0).remove(0);
        let x2 = m.successors(&x1).remove(0);
        let trace = ExecutionTrace::new(vec![x1, x2]);
        assert_eq!(trace_to_json(&m, &trace), Err(ArtifactError::NotInitial));
    }

    #[test]
    fn out_of_range_path_index_is_rejected() {
        let m = CounterModel::new(2, 5);
        let trace = trace_of_len(&m, 1);
        let Json::Object(mut members) = trace_to_json(&m, &trace).expect("encodable") else {
            panic!("object");
        };
        for (k, v) in &mut members {
            if k == "path" {
                *v = Json::Array(vec![Json::from(9999u64)]);
            }
        }
        assert_eq!(
            trace_from_json(&m, &Json::Object(members)),
            Err(ArtifactError::BadStep { step: 0 })
        );
    }

    #[test]
    fn fingerprint_mismatch_is_detected() {
        let m = CounterModel::new(2, 5);
        let trace = trace_of_len(&m, 1);
        let Json::Object(mut members) = trace_to_json(&m, &trace).expect("encodable") else {
            panic!("object");
        };
        for (k, v) in &mut members {
            if k == "fp" {
                *v = Json::Array(vec![
                    Json::String("0".repeat(16)),
                    Json::String("0".repeat(16)),
                ]);
            }
        }
        assert_eq!(
            trace_from_json(&m, &Json::Object(members)),
            Err(ArtifactError::FingerprintMismatch { index: 0 })
        );
    }

    #[test]
    fn horizon_above_the_bound_is_rejected() {
        let m = CounterModel::new(2, 5);
        let chain = trace_of_len(&m, 1);
        for horizon in [MAX_HORIZON, MAX_HORIZON + 1, 70_000] {
            let witness = ImpossibilityWitness {
                undecided: vec![0; chain.states().len()],
                chain: chain.clone(),
                horizon,
            };
            let json = witness_to_json(&m, &witness).expect("encodable");
            let back = witness_from_json(&m, &json);
            if horizon <= MAX_HORIZON {
                assert_eq!(back.expect("decodable").horizon, horizon);
            } else {
                assert_eq!(
                    back.err(),
                    Some(ArtifactError::Malformed("horizon above MAX_HORIZON"))
                );
            }
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}

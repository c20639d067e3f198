//! Bench regression gating: compare a fresh experiment run against the
//! best committed `BENCH_*.json` record per experiment.
//!
//! Every PR that touches the engines commits a `BENCH_PR<k>.json` with the
//! canonical JSON records of the scan experiments. This module parses those
//! records and gates a fresh run with a noise tolerance: a wall regression
//! fires only when the fresh time exceeds the *best* (lowest `wall_ns`)
//! baseline per experiment key by both a ratio (default 2×, CI machines
//! are noisy) *and* an absolute floor (default 50 ms, so micro-experiments
//! can't trip the ratio on scheduler jitter). Headline work counters
//! (`states_visited`, `dedup_hits`, `valence_cache_hits`,
//! `max_frontier_width`) are deterministic per instance and gated at a
//! tight 10% — they catch accidental work blow-ups that a generous wall
//! tolerance would hide. Counters are compared against the *latest*
//! committed baseline, not the best one: engines legitimately change how
//! much work an instance takes as PRs land, and each PR commits a fresh
//! record reflecting current semantics, while best-ever wall time remains
//! the performance bar.
//!
//! A fresh run is taken three times and folded by [`fold_samples`]: the
//! samples must agree on every gated counter and verdict, and each key
//! keeps its least wall time, so one sample slowed by a busy host does not
//! fail the gate. The tolerances apply to that minimum unchanged.
//!
//! The `bench` binary's `regress` subcommand drives this; the comparison
//! logic is a library so the negative test (a synthetically slowed record
//! must fail) can exercise it directly.

use std::collections::BTreeMap;

use layered_core::report::Table;
use layered_core::telemetry::json::Json;

/// The headline counters gated per experiment (top-level record fields,
/// deterministic for a fixed instance).
pub const GATED_COUNTERS: [&str; 4] = [
    "states_visited",
    "dedup_hits",
    "valence_cache_hits",
    "max_frontier_width",
];

/// One parsed bench record: the stable comparison key, the timing, and the
/// headline counters.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BenchRecord {
    /// Comparison key: the experiment id, qualified by the instance size
    /// when the record carries one (`E-sym@n=5`) and by `+full` when the
    /// run included the full-space baseline alongside the quotient
    /// (`E-sym@n=5+full`), so differently-sized or differently-shaped runs
    /// of one experiment never gate each other.
    pub key: String,
    /// The experiment id (`E-scan`, `E-sym`, …).
    pub id: String,
    /// Wall-clock nanoseconds of the run.
    pub wall_ns: u64,
    /// Whether the experiment's own verdict was `ok`.
    pub ok: bool,
    /// Gated counter values, in [`GATED_COUNTERS`] order.
    pub counters: Vec<(&'static str, u64)>,
}

impl BenchRecord {
    /// Parses one JSON record line as written by `Experiment::json_record`.
    pub fn parse(line: &str) -> Result<BenchRecord, String> {
        let json = Json::parse(line).map_err(|e| format!("bad record: {e}"))?;
        let id = json
            .get("id")
            .and_then(Json::as_str)
            .ok_or("record has no string `id`")?
            .to_string();
        let wall_ns = json
            .get("wall_ns")
            .and_then(Json::as_u64)
            .ok_or("record has no numeric `wall_ns`")?;
        let ok = json
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("record has no boolean `ok`")?;
        let counters = GATED_COUNTERS
            .iter()
            .map(|&name| (name, json.get(name).and_then(Json::as_u64).unwrap_or(0)))
            .collect();
        // Instance size, when the experiment records one as a gauge.
        let gauges = json.get("metrics").and_then(|m| m.get("gauges"));
        let n = gauges
            .and_then(|g| g.get("scan.sym.n"))
            .and_then(|g| g.get("last"))
            .and_then(Json::as_u64);
        // Whether the run included the full-space baseline: its wall and
        // counters are a different workload than a quotient-only run of the
        // same size (n = 5 crossed that line when the arenas went packed).
        let full = gauges.is_some_and(|g| g.get("scan.sym.full.states_seen").is_some());
        let key = match (n, full) {
            (Some(n), true) => format!("{id}@n={n}+full"),
            (Some(n), false) => format!("{id}@n={n}"),
            (None, _) => id.clone(),
        };
        Ok(BenchRecord {
            key,
            id,
            wall_ns,
            ok,
            counters,
        })
    }

    /// Parses a whole `BENCH_*.json` file (one record per line).
    pub fn parse_lines(text: &str) -> Result<Vec<BenchRecord>, String> {
        text.lines()
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(BenchRecord::parse)
            .collect()
    }
}

/// Noise tolerances of the gate. Ratios are fixed-point hundredths so the
/// comparison is integer-exact.
#[derive(Clone, Copy, Debug)]
pub struct Tolerance {
    /// Wall regression ratio threshold, in hundredths (200 = 2×).
    pub wall_ratio_x100: u64,
    /// Absolute wall floor in nanoseconds: deltas below this never fire.
    pub wall_floor_ns: u64,
    /// Counter drift threshold, in hundredths (110 = ±10%).
    pub counter_ratio_x100: u64,
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance {
            wall_ratio_x100: 200,
            wall_floor_ns: 50_000_000,
            counter_ratio_x100: 110,
        }
    }
}

/// The gate's verdict on one fresh record.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// The comparison key.
    pub key: String,
    /// Fresh wall nanoseconds.
    pub fresh_wall_ns: u64,
    /// Best baseline wall nanoseconds, when a baseline exists.
    pub baseline_wall_ns: Option<u64>,
    /// Human-readable failure reasons; empty iff the record passes.
    pub failures: Vec<String>,
}

impl Verdict {
    /// Whether this record passed the gate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The baselines the gate compares against, per comparison key.
#[derive(Clone, Debug, Default)]
pub struct Baselines {
    /// Lowest `wall_ns` ever committed — the performance bar.
    pub best_wall: BTreeMap<String, BenchRecord>,
    /// Most recently committed record — the current work-counter
    /// expectations.
    pub latest: BTreeMap<String, BenchRecord>,
}

/// Sorts `BENCH_*.json` file names into commit order: by the PR number of
/// `BENCH_PR<k>.json`, numerically (so `BENCH_PR15.json` follows
/// `BENCH_PR9.json`), then by name.
pub fn sort_commit_order(names: &mut [String]) {
    fn pr_number(name: &str) -> Option<u64> {
        name.strip_prefix("BENCH_PR")?
            .strip_suffix(".json")?
            .parse()
            .ok()
    }
    names.sort_by(|a, b| (pr_number(a), a).cmp(&(pr_number(b), b)));
}

/// Folds committed records (in commit order: oldest file first) into the
/// per-key baselines. Records whose own verdict was not `ok` are skipped —
/// a broken run is no baseline.
#[must_use]
pub fn collect_baselines(records: &[BenchRecord]) -> Baselines {
    let mut baselines = Baselines::default();
    for r in records {
        if !r.ok {
            continue;
        }
        match baselines.best_wall.get(&r.key) {
            Some(b) if b.wall_ns <= r.wall_ns => {}
            _ => {
                baselines.best_wall.insert(r.key.clone(), r.clone());
            }
        }
        baselines.latest.insert(r.key.clone(), r.clone());
    }
    baselines
}

/// Folds `k` samples of one fresh run into the records the gate compares:
/// for each record, the index of the sample with the least wall time.
///
/// Wall time on a shared host is the true cost plus interference that
/// only ever adds, so the minimum over samples is the steadiest estimate.
/// Work counters and verdicts are deterministic per instance, so samples
/// must agree on them exactly; every disagreement is returned as a reason
/// instead, as is a sample that does not list the same keys in the same
/// order as the first.
pub fn fold_samples(samples: &[Vec<BenchRecord>]) -> Result<Vec<usize>, Vec<String>> {
    let Some(first) = samples.first() else {
        return Err(vec!["no samples".to_string()]);
    };
    let keys = |records: &[BenchRecord]| -> Vec<String> {
        records.iter().map(|r| r.key.clone()).collect()
    };
    let mut failures = Vec::new();
    for (s, sample) in samples.iter().enumerate().skip(1) {
        if keys(sample) != keys(first) {
            failures.push(format!(
                "sample {s} ran {:?}, sample 0 ran {:?}",
                keys(sample),
                keys(first)
            ));
            continue;
        }
        for (a, b) in first.iter().zip(sample) {
            if a.ok != b.ok || a.counters != b.counters {
                failures.push(format!(
                    "{}: sample {s} disagrees with sample 0 (ok {} vs {}, counters {:?} vs {:?})",
                    a.key, b.ok, a.ok, b.counters, a.counters
                ));
            }
        }
    }
    if !failures.is_empty() {
        return Err(failures);
    }
    Ok((0..first.len())
        .map(|i| {
            (0..samples.len())
                .min_by_key(|&s| samples[s][i].wall_ns)
                .expect("at least one sample")
        })
        .collect())
}

/// Gates each fresh record against the baselines with the same key.
///
/// A fresh record fails when (a) its own experiment verdict is not `ok`,
/// (b) its wall time exceeds the best-ever baseline by both the ratio and
/// the absolute floor, or (c) a gated counter drifts beyond the counter
/// ratio in either direction from the latest baseline. Fresh records
/// without a baseline pass (first run of a new experiment); baselines
/// without a fresh record are ignored.
#[must_use]
pub fn compare(baselines: &Baselines, fresh: &[BenchRecord], tol: Tolerance) -> Vec<Verdict> {
    fresh
        .iter()
        .map(|f| {
            let mut failures = Vec::new();
            if !f.ok {
                failures.push("experiment verdict not ok".to_string());
            }
            let best = baselines.best_wall.get(&f.key);
            if let Some(b) = best {
                let limit = b.wall_ns.saturating_mul(tol.wall_ratio_x100) / 100;
                let delta = f.wall_ns.saturating_sub(b.wall_ns);
                if f.wall_ns > limit && delta > tol.wall_floor_ns {
                    failures.push(format!(
                        "wall {} ns > {}x baseline {} ns (delta {} ns > floor {} ns)",
                        f.wall_ns,
                        tol.wall_ratio_x100 as f64 / 100.0,
                        b.wall_ns,
                        delta,
                        tol.wall_floor_ns
                    ));
                }
            }
            if let Some(b) = baselines.latest.get(&f.key) {
                for (name, fresh_v) in &f.counters {
                    let base_v = b
                        .counters
                        .iter()
                        .find(|(n, _)| n == name)
                        .map_or(0, |&(_, v)| v);
                    let high = base_v.saturating_mul(tol.counter_ratio_x100) / 100;
                    let low = base_v.saturating_mul(100) / tol.counter_ratio_x100;
                    if *fresh_v > high || *fresh_v < low {
                        failures.push(format!(
                            "counter {name} drifted: fresh {fresh_v} vs baseline {base_v} (±{}%)",
                            tol.counter_ratio_x100 - 100
                        ));
                    }
                }
            }
            Verdict {
                key: f.key.clone(),
                fresh_wall_ns: f.wall_ns,
                baseline_wall_ns: best.map(|b| b.wall_ns),
                failures,
            }
        })
        .collect()
}

/// The record field `bench regress` adds to each record it writes: the
/// record's wall over the same experiment's least wall in as many
/// [`unobserved`](crate::unobserved) runs, interleaved with the gated
/// samples, ×1000 (`1030` reads "the registry costs 3%"). Reported, not
/// gated.
pub const OVERHEAD_FIELD: &str = "registry_overhead_x1000";

/// `line`, one canonical record, with [`OVERHEAD_FIELD`] set against a
/// no-op wall of `noop_wall_ns`, and the field's value.
///
/// # Errors
///
/// `line` is not a JSON object with a numeric `wall_ns`.
pub fn with_registry_overhead(line: &str, noop_wall_ns: u64) -> Result<(String, u64), String> {
    let json = Json::parse(line).map_err(|e| format!("bad record: {e}"))?;
    let wall_ns = json
        .get("wall_ns")
        .and_then(Json::as_u64)
        .ok_or("record has no numeric `wall_ns`")?;
    let Json::Object(mut fields) = json else {
        return Err("record is not an object".to_string());
    };
    let ratio = wall_ns.saturating_mul(1000) / noop_wall_ns.max(1);
    fields.retain(|(k, _)| k != OVERHEAD_FIELD);
    fields.push((OVERHEAD_FIELD.to_string(), Json::from(ratio)));
    Ok((Json::Object(fields).canonicalize().to_string(), ratio))
}

/// Renders the verdicts as a report table.
#[must_use]
pub fn verdict_table(verdicts: &[Verdict]) -> Table {
    let mut table = Table::new(
        "Bench regression gate — fresh run vs. best committed baseline",
        &["experiment", "fresh ms", "baseline ms", "verdict"],
    );
    for v in verdicts {
        table.row_owned(vec![
            v.key.clone(),
            format!("{:.1}", v.fresh_wall_ns as f64 / 1e6),
            v.baseline_wall_ns
                .map_or("(none)".to_string(), |b| format!("{:.1}", b as f64 / 1e6)),
            if v.passed() {
                "ok".to_string()
            } else {
                v.failures.join("; ")
            },
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_field_is_the_wall_ratio_in_thousandths() {
        let line = r#"{"id":"E-4.2","ok":true,"wall_ns":2060}"#;
        let (out, ratio) = with_registry_overhead(line, 2000).expect("object record");
        assert_eq!(ratio, 1030);
        assert_eq!(
            out,
            r#"{"id":"E-4.2","ok":true,"registry_overhead_x1000":1030,"wall_ns":2060}"#
        );
        // Re-pricing replaces the field, and the record still parses.
        let (again, _) = with_registry_overhead(&out, 2060).expect("object record");
        assert!(
            again.contains(r#""registry_overhead_x1000":1000"#),
            "{again}"
        );
        assert_eq!(BenchRecord::parse(&again).map(|r| r.wall_ns), Ok(2060));
        assert!(with_registry_overhead("[1]", 1).is_err());
    }

    #[test]
    fn bench_files_sort_by_pr_number() {
        let mut names: Vec<String> = ["BENCH_PR9.json", "BENCH_PR15.json", "BENCH_PR3.json"]
            .map(String::from)
            .to_vec();
        sort_commit_order(&mut names);
        assert_eq!(
            names,
            ["BENCH_PR3.json", "BENCH_PR9.json", "BENCH_PR15.json"]
        );
    }

    fn record(key: &str, wall_ns: u64, states: u64) -> BenchRecord {
        BenchRecord {
            key: key.to_string(),
            id: key.to_string(),
            wall_ns,
            ok: true,
            counters: vec![
                ("states_visited", states),
                ("dedup_hits", 10),
                ("valence_cache_hits", 20),
                ("max_frontier_width", 5),
            ],
        }
    }

    #[test]
    fn identical_runs_pass() {
        let base = collect_baselines(&[record("E-x", 1_000_000, 100)]);
        let verdicts = compare(
            &base,
            &[record("E-x", 1_000_000, 100)],
            Tolerance::default(),
        );
        assert!(verdicts.iter().all(Verdict::passed));
    }

    #[test]
    fn best_baseline_is_minimum_wall() {
        let base =
            collect_baselines(&[record("E-x", 3_000_000, 100), record("E-x", 1_000_000, 100)]);
        assert_eq!(base.best_wall["E-x"].wall_ns, 1_000_000);
    }

    #[test]
    fn broken_baselines_are_skipped() {
        let mut bad = record("E-x", 1, 100);
        bad.ok = false;
        let base = collect_baselines(&[bad, record("E-x", 2_000_000, 100)]);
        assert_eq!(base.best_wall["E-x"].wall_ns, 2_000_000);
    }

    #[test]
    fn slowdown_within_ratio_passes() {
        // 1.5x slower: inside the default 2x ratio.
        let base = collect_baselines(&[record("E-x", 100_000_000, 100)]);
        let verdicts = compare(
            &base,
            &[record("E-x", 150_000_000, 100)],
            Tolerance::default(),
        );
        assert!(verdicts[0].passed());
    }

    #[test]
    fn synthetically_slowed_record_fails() {
        // 10x slower and 900 ms over: both gates fire.
        let base = collect_baselines(&[record("E-x", 100_000_000, 100)]);
        let verdicts = compare(
            &base,
            &[record("E-x", 1_000_000_000, 100)],
            Tolerance::default(),
        );
        assert!(!verdicts[0].passed());
        assert!(verdicts[0].failures[0].contains("wall"));
    }

    #[test]
    fn small_absolute_delta_never_fires() {
        // 10x ratio but only 9 ms over: under the 50 ms floor.
        let base = collect_baselines(&[record("E-x", 1_000_000, 100)]);
        let verdicts = compare(
            &base,
            &[record("E-x", 10_000_000, 100)],
            Tolerance::default(),
        );
        assert!(verdicts[0].passed());
    }

    #[test]
    fn counter_drift_fails_both_directions() {
        let base = collect_baselines(&[record("E-x", 1_000_000, 100)]);
        for drifted in [200, 50] {
            let verdicts = compare(
                &base,
                &[record("E-x", 1_000_000, drifted)],
                Tolerance::default(),
            );
            assert!(!verdicts[0].passed(), "drift to {drifted} should fail");
            assert!(verdicts[0].failures[0].contains("states_visited"));
        }
    }

    #[test]
    fn counters_gate_against_latest_baseline_only() {
        // A stale old record with different counters must not fail the gate
        // when a newer record matches the fresh run — but the old record's
        // faster wall time is still the performance bar.
        let base =
            collect_baselines(&[record("E-x", 1_000_000, 999), record("E-x", 5_000_000, 100)]);
        let verdicts = compare(
            &base,
            &[record("E-x", 5_000_000, 100)],
            Tolerance::default(),
        );
        assert!(verdicts[0].passed(), "{:?}", verdicts[0].failures);
        assert_eq!(verdicts[0].baseline_wall_ns, Some(1_000_000));
    }

    #[test]
    fn samples_fold_to_the_least_wall_per_key() {
        let samples = [
            vec![record("E-x", 3, 100), record("E-y", 1, 7)],
            vec![record("E-x", 2, 100), record("E-y", 5, 7)],
            vec![record("E-x", 4, 100), record("E-y", 1, 7)],
        ];
        assert_eq!(fold_samples(&samples), Ok(vec![1, 0]));
    }

    #[test]
    fn samples_that_disagree_on_work_fail() {
        let drifted = [
            vec![record("E-x", 1, 100)],
            vec![record("E-x", 1, 100)],
            vec![record("E-x", 1, 101)],
        ];
        let failures = fold_samples(&drifted).expect_err("counters differ");
        assert!(failures[0].contains("sample 2"), "{failures:?}");
        let mut broken = record("E-x", 1, 100);
        broken.ok = false;
        assert!(fold_samples(&[vec![record("E-x", 1, 100)], vec![broken]]).is_err());
        let reordered = [
            vec![record("E-x", 1, 1), record("E-y", 1, 1)],
            vec![record("E-y", 1, 1), record("E-x", 1, 1)],
        ];
        assert!(fold_samples(&reordered).is_err());
        assert!(fold_samples(&[]).is_err());
    }

    #[test]
    fn missing_baseline_passes() {
        let base = collect_baselines(&[]);
        let verdicts = compare(
            &base,
            &[record("E-new", 1_000_000, 1)],
            Tolerance::default(),
        );
        assert!(verdicts[0].passed());
        assert_eq!(verdicts[0].baseline_wall_ns, None);
    }

    #[test]
    fn parse_round_trips_a_real_record_shape() {
        let line = r#"{"claim":"c","dedup_hits":48,"id":"E-scan","max_frontier_width":40,"metrics":{"counters":{},"gauges":{}},"ok":true,"states_visited":192,"valence_cache_hits":240,"wall_ns":11513687}"#;
        let r = BenchRecord::parse(line).expect("parses");
        assert_eq!(r.key, "E-scan");
        assert_eq!(r.wall_ns, 11_513_687);
        assert_eq!(r.counters[0], ("states_visited", 192));
    }

    #[test]
    fn sized_records_get_qualified_keys() {
        let line = r#"{"id":"E-sym","ok":true,"wall_ns":5,"metrics":{"gauges":{"scan.sym.n":{"last":5,"max":5}}}}"#;
        let r = BenchRecord::parse(line).expect("parses");
        assert_eq!(r.key, "E-sym@n=5");
    }

    #[test]
    fn full_baseline_runs_get_their_own_keys() {
        // A record carrying the full-space baseline gauges is a different
        // workload than a quotient-only run of the same size: it must not
        // gate against (or be gated by) the quotient-only baselines.
        let line = r#"{"id":"E-sym","ok":true,"wall_ns":5,"metrics":{"gauges":{"scan.sym.full.states_seen":{"last":112,"max":112},"scan.sym.n":{"last":5,"max":5}}}}"#;
        let r = BenchRecord::parse(line).expect("parses");
        assert_eq!(r.key, "E-sym@n=5+full");
    }
}

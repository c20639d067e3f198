//! The single registry of telemetry metric and span names.
//!
//! Every counter, gauge, histogram, span, event and progress name used
//! anywhere in the workspace must appear in [`NAMES`]. The `layered-lint`
//! static-analysis pass (rule **L005**) cross-checks each name literal
//! passed to an [`Observer`](super::Observer) method against this list, so
//! a typo'd metric name (`"valence.memo_hit"` for `"valence.memo_hits"`)
//! is a CI failure instead of a silently empty time series.
//!
//! Keep the list sorted and duplicate-free — `names_are_sorted_and_unique`
//! below enforces both — and add the name here in the same change that
//! introduces the instrumentation. Names follow the `engine.metric`
//! convention described in the [module docs](super).
//!
//! # Units
//!
//! Units are part of the name's contract:
//!
//! * `*_ns` — nanoseconds from the monotonic clock shim
//!   ([`clock`](super::clock)); nondeterministic, stripped by the
//!   byte-stability comparisons.
//! * `*_bytes` — shallow, capacity-based byte counts (see
//!   [`mem`](super::mem)); deterministic lower bounds.
//! * `*_x1000` — dimensionless ratios in fixed-point thousandths: a
//!   reading of `5920` means `5.920`. Used so ratios stay integers on the
//!   canonical surface (floats are banned from records by lint L006).
//! * `*_layers` — counts of protocol layers (rounds).
//! * everything else — plain counts of the named thing (states, hits,
//!   probes, edges, …).
//!
//! Gauges with units beyond a plain count:
//!
//! | gauge | units |
//! |---|---|
//! | `engine.frontier_width` | states in the current BFS frontier |
//! | `graph.bfs_frontier` | vertices in the current BFS frontier of a similarity graph (valence connectivity runs no BFS) |
//! | `mem.*_bytes` | bytes (shallow capacity accounting) |
//! | `scan.resume.*_wall_ns` | nanoseconds (timing; stripped) |
//! | `scan.resume.speedup_x1000` | cold wall / warm wall, ×1000 |
//! | `scan.sym.*.wall_ns` | nanoseconds (timing; stripped) |
//! | `space.intern.load_x1000` | intern-table load factor, ×1000 |
//! | `space.pack.bytes_saved` | bytes the packed words save over model structs; 0 when every state spills |
//! | `space.quotient.mean_orbit_x1000` | mean full states per orbit, ×1000 |
//! | `space.snapshot.bytes_written` | exact snapshot blob size in bytes (not a `mem.` capacity gauge) |
//! | `space.snapshot.load_ns` | nanoseconds (timing; stripped) |
//! | `space.snapshot.save_ns` | nanoseconds (timing; stripped) |
//!
//! Histograms:
//!
//! | histogram | units |
//! |---|---|
//! | `cert.server.request_ns` | nanoseconds per served request (timing; stripped) |
//! | `sim.fault_to_violation_layers` | layers from first injected fault to violation |
//! | `sim.run_layers` | layers executed per simulated run |
//! | `space.intern.probe_len` | hash-bucket candidates compared per intern |
//! | `space.layer_expand_ns` | nanoseconds per expanded layer (timing; stripped) |
//! | `space.succ_fanout` | successor edges per expanded state |

/// Every registered telemetry name, sorted lexicographically.
///
/// Counters, gauges, histograms, spans, events and progress names share
/// one namespace: a name's kind is fixed by its call sites, and no name is
/// used as two kinds at once.
pub const NAMES: &[&str] = &[
    "census.decided_states",
    "cert.server.computed",
    "cert.server.errors",
    "cert.server.request_ns",
    "cert.server.requests",
    "cert.store.hits",
    "cert.store.misses",
    "cert.store.puts",
    "cert.verify.fail",
    "cert.verify.ok",
    "checker.sweep",
    "checker.violations",
    "connectivity.chain_length",
    "connectivity.pairs_tested",
    "connectivity.similarity_edges",
    "engine.dedup_hits",
    "engine.frontier_width",
    "engine.states_visited",
    "experiment.run",
    "graph.bfs_frontier",
    "graph.bfs_visits",
    "layering.bivalent_run",
    "layering.candidates_tested",
    "layering.check_layer",
    "layering.extensions",
    "layering.layer_scan",
    "layering.layers_scanned",
    "layering.run_length",
    "layering.scan_violation",
    "layering.stuck",
    "mem.graph.adj_bytes",
    "mem.space.edges_bytes",
    "mem.space.index_bytes",
    "mem.space.orbits_bytes",
    "mem.space.perms_bytes",
    "mem.space.states_bytes",
    "mem.valence.memo_bytes",
    "scan.progress",
    "scan.resume.cold_wall_ns",
    "scan.resume.speedup_x1000",
    "scan.resume.warm_wall_ns",
    "scan.sym.full.states_seen",
    "scan.sym.full.wall_ns",
    "scan.sym.n",
    "scan.sym.quotient.states_seen",
    "scan.sym.quotient.wall_ns",
    "sim.fault_to_violation_layers",
    "sim.faults_injected",
    "sim.run",
    "sim.run_layers",
    "sim.runs",
    "sim.steps",
    "sim.violation",
    "space.build",
    "space.canon.hits",
    "space.canon.orbit_states",
    "space.canonicalize",
    "space.intern.hits",
    "space.intern.load_x1000",
    "space.intern.misses",
    "space.intern.probe_len",
    "space.layer",
    "space.layer_expand_ns",
    "space.pack.bytes_saved",
    "space.quotient.mean_orbit_x1000",
    "space.resume.loads",
    "space.resume.orbits_recomputed",
    "space.resume.orbits_reused",
    "space.resume.refresh",
    "space.resume.rows_recomputed",
    "space.resume.rows_reused",
    "space.snapshot.bytes_written",
    "space.snapshot.load",
    "space.snapshot.load_ns",
    "space.snapshot.save",
    "space.snapshot.save_ns",
    "space.states",
    "space.succ_fanout",
    "stats.census",
    "valence.classify",
    "valence.decided_probes",
    "valence.memo_hits",
    "valence.queries",
    "valence.states_classified",
];

/// Whether `name` is a registered telemetry name.
///
/// `O(log n)` — [`NAMES`] is sorted, so this is a binary search.
#[must_use]
pub fn is_registered(name: &str) -> bool {
    NAMES.binary_search(&name).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_and_unique() {
        assert!(
            NAMES.windows(2).all(|w| w[0] < w[1]),
            "NAMES must be sorted and duplicate-free (binary search depends on it)"
        );
    }

    #[test]
    fn lookup_finds_registered_and_rejects_typos() {
        assert!(is_registered("valence.memo_hits"));
        assert!(is_registered("engine.states_visited"));
        assert!(is_registered("space.intern.probe_len"));
        assert!(is_registered("space.quotient.mean_orbit_x1000"));
        assert!(!is_registered("valence.memo_hit"));
        assert!(!is_registered("space.quotient.ratio"));
        assert!(!is_registered(""));
    }

    #[test]
    fn names_follow_the_dotted_convention() {
        for name in NAMES {
            assert!(
                name.contains('.') && !name.starts_with('.') && !name.ends_with('.'),
                "{name} must be engine.metric shaped"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{name} must be lowercase dotted snake_case (digits only in unit suffixes)"
            );
            assert!(
                name.chars().next().is_some_and(|c| c.is_ascii_lowercase()),
                "{name} must start with a letter"
            );
        }
    }

    #[test]
    fn unit_suffixes_are_consistent() {
        // Fixed-point names carry the x1000 suffix; byte gauges live under
        // the mem. prefix.
        for name in NAMES {
            if name.ends_with("_bytes") {
                assert!(
                    name.starts_with("mem."),
                    "{name}: byte gauges use the mem. prefix"
                );
            }
            if name.starts_with("mem.") {
                assert!(
                    name.ends_with("_bytes"),
                    "{name}: mem. names report bytes and say so"
                );
            }
        }
    }
}

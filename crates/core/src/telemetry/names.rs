//! The single registry of telemetry metric and span names.
//!
//! Every counter, gauge, histogram, span, event and progress name is a
//! typed [`Name`] constant defined here, and every
//! [`Observer`](super::Observer) method takes a [`Name`]. `Name` has no
//! public constructor, so an unregistered or misspelt name does not
//! compile, and a typo cannot become a silently empty time series:
//!
//! ```
//! use layered_core::telemetry::{names, MetricsRegistry, Observer};
//!
//! let reg = MetricsRegistry::new();
//! reg.counter(names::VALENCE_MEMO_HITS, 1);
//! assert_eq!(reg.snapshot().counter("valence.memo_hits"), 1);
//! ```
//!
//! ```compile_fail
//! use layered_core::telemetry::{names, MetricsRegistry, Observer};
//!
//! let reg = MetricsRegistry::new();
//! reg.counter(names::VALENCE_MEMO_HIT, 1); // misspelt: no such constant
//! ```
//!
//! ```compile_fail
//! use layered_core::telemetry::{MetricsRegistry, Observer};
//!
//! let reg = MetricsRegistry::new();
//! reg.counter("valence.memo_hits", 1); // a string is not a `Name`
//! ```
//!
//! Each constant is its dense index in [`NAMES`], and
//! [`Name::as_str`] looks its string up;
//! [`MetricsRegistry`](super::MetricsRegistry) keeps its counters, gauges
//! and span totals in one slot per index. Keep the list sorted and
//! duplicate-free — `names_are_sorted_and_unique` below enforces both —
//! and add the name here in the same change that introduces the
//! instrumentation. Names follow the `engine.metric` convention described
//! in the [module docs](super); a name's constant is its string upper-cased
//! with `.` as `_`. Lint rule L010 flags a constant that no other file
//! uses.
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

use std::fmt;

/// A registered telemetry name: its index in [`NAMES`], one byte, so
/// observer calls pass it in a register.
///
/// The only values are the constants of this module. Names order, hash and
/// compare like their index, which orders like their string because
/// [`NAMES`] is sorted.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name {
    index: u8,
}

impl Name {
    /// The registered string (`"valence.memo_hits"`).
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        TEXTS[self.index as usize]
    }

    /// The name's position in [`NAMES`], in `0..NAMES.len()`.
    #[must_use]
    pub const fn index(self) -> usize {
        self.index as usize
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

/// Defines one documented `Name` constant per `IDENT = "string"` entry,
/// indexed in list order, and [`NAMES`] and the strings over the same
/// list.
macro_rules! registry {
    ($($id:ident = $text:literal,)*) => {
        /// Dense indices, in list order.
        #[allow(non_camel_case_types, clippy::upper_case_acronyms)]
        #[repr(u8)]
        enum Index {
            $($id,)*
        }

        $(
            #[doc = concat!("`", $text, "`")]
            pub const $id: Name = Name {
                index: Index::$id as u8,
            };
        )*

        /// Every registered telemetry name, sorted lexicographically by
        /// string, so `NAMES[name.index()] == name`.
        ///
        /// Counters, gauges, histograms, spans, events and progress names
        /// share one namespace: a name's kind is fixed by its call sites,
        /// and no name is used as two kinds at once.
        pub const NAMES: &[Name] = &[$($id,)*];

        /// The registered strings, in list order.
        const TEXTS: &[&str] = &[$($text,)*];

        /// The constants' identifiers, in list order.
        #[cfg(test)]
        const IDENTS: &[&str] = &[$(stringify!($id),)*];
    };
}

registry! {
    CENSUS_DECIDED_STATES = "census.decided_states",
    CERT_SERVER_COMPUTED = "cert.server.computed",
    CERT_SERVER_ERRORS = "cert.server.errors",
    CERT_SERVER_REQUEST_NS = "cert.server.request_ns",
    CERT_SERVER_REQUESTS = "cert.server.requests",
    CERT_STORE_HITS = "cert.store.hits",
    CERT_STORE_MISSES = "cert.store.misses",
    CERT_STORE_PUTS = "cert.store.puts",
    CERT_VERIFY_FAIL = "cert.verify.fail",
    CERT_VERIFY_OK = "cert.verify.ok",
    CHECKER_SWEEP = "checker.sweep",
    CHECKER_VIOLATIONS = "checker.violations",
    CONNECTIVITY_CHAIN_LENGTH = "connectivity.chain_length",
    CONNECTIVITY_PAIRS_TESTED = "connectivity.pairs_tested",
    CONNECTIVITY_SIMILARITY_EDGES = "connectivity.similarity_edges",
    ENGINE_DEDUP_HITS = "engine.dedup_hits",
    ENGINE_FRONTIER_WIDTH = "engine.frontier_width",
    ENGINE_STATES_VISITED = "engine.states_visited",
    EXPERIMENT_RUN = "experiment.run",
    GRAPH_BFS_FRONTIER = "graph.bfs_frontier",
    GRAPH_BFS_VISITS = "graph.bfs_visits",
    LAYERING_BIVALENT_RUN = "layering.bivalent_run",
    LAYERING_CANDIDATES_TESTED = "layering.candidates_tested",
    LAYERING_CHECK_LAYER = "layering.check_layer",
    LAYERING_EXTENSIONS = "layering.extensions",
    LAYERING_LAYER_SCAN = "layering.layer_scan",
    LAYERING_LAYERS_SCANNED = "layering.layers_scanned",
    LAYERING_RUN_LENGTH = "layering.run_length",
    LAYERING_SCAN_VIOLATION = "layering.scan_violation",
    LAYERING_STUCK = "layering.stuck",
    MEM_GRAPH_ADJ_BYTES = "mem.graph.adj_bytes",
    MEM_SPACE_EDGES_BYTES = "mem.space.edges_bytes",
    MEM_SPACE_INDEX_BYTES = "mem.space.index_bytes",
    MEM_SPACE_ORBITS_BYTES = "mem.space.orbits_bytes",
    MEM_SPACE_PERMS_BYTES = "mem.space.perms_bytes",
    MEM_SPACE_STATES_BYTES = "mem.space.states_bytes",
    MEM_VALENCE_MEMO_BYTES = "mem.valence.memo_bytes",
    SCAN_PROGRESS = "scan.progress",
    SCAN_RESUME_COLD_WALL_NS = "scan.resume.cold_wall_ns",
    SCAN_RESUME_SPEEDUP_X1000 = "scan.resume.speedup_x1000",
    SCAN_RESUME_WARM_WALL_NS = "scan.resume.warm_wall_ns",
    SCAN_SYM_FULL_STATES_SEEN = "scan.sym.full.states_seen",
    SCAN_SYM_FULL_WALL_NS = "scan.sym.full.wall_ns",
    SCAN_SYM_N = "scan.sym.n",
    SCAN_SYM_QUOTIENT_STATES_SEEN = "scan.sym.quotient.states_seen",
    SCAN_SYM_QUOTIENT_WALL_NS = "scan.sym.quotient.wall_ns",
    SIM_FAULT_TO_VIOLATION_LAYERS = "sim.fault_to_violation_layers",
    SIM_FAULTS_INJECTED = "sim.faults_injected",
    SIM_RUN = "sim.run",
    SIM_RUN_LAYERS = "sim.run_layers",
    SIM_RUNS = "sim.runs",
    SIM_STEPS = "sim.steps",
    SIM_VIOLATION = "sim.violation",
    SPACE_BUILD = "space.build",
    SPACE_CANON_HITS = "space.canon.hits",
    SPACE_CANON_ORBIT_STATES = "space.canon.orbit_states",
    SPACE_CANONICALIZE = "space.canonicalize",
    SPACE_INTERN_HITS = "space.intern.hits",
    SPACE_INTERN_LOAD_X1000 = "space.intern.load_x1000",
    SPACE_INTERN_MISSES = "space.intern.misses",
    SPACE_INTERN_PROBE_LEN = "space.intern.probe_len",
    SPACE_LAYER = "space.layer",
    SPACE_LAYER_EXPAND_NS = "space.layer_expand_ns",
    SPACE_PACK_BYTES_SAVED = "space.pack.bytes_saved",
    SPACE_QUOTIENT_MEAN_ORBIT_X1000 = "space.quotient.mean_orbit_x1000",
    SPACE_RESUME_LOADS = "space.resume.loads",
    SPACE_RESUME_ORBITS_RECOMPUTED = "space.resume.orbits_recomputed",
    SPACE_RESUME_ORBITS_REUSED = "space.resume.orbits_reused",
    SPACE_RESUME_REFRESH = "space.resume.refresh",
    SPACE_RESUME_ROWS_RECOMPUTED = "space.resume.rows_recomputed",
    SPACE_RESUME_ROWS_REUSED = "space.resume.rows_reused",
    SPACE_SNAPSHOT_BYTES_WRITTEN = "space.snapshot.bytes_written",
    SPACE_SNAPSHOT_LOAD = "space.snapshot.load",
    SPACE_SNAPSHOT_LOAD_NS = "space.snapshot.load_ns",
    SPACE_SNAPSHOT_SAVE = "space.snapshot.save",
    SPACE_SNAPSHOT_SAVE_NS = "space.snapshot.save_ns",
    SPACE_STATES = "space.states",
    SPACE_SUCC_FANOUT = "space.succ_fanout",
    STATS_CENSUS = "stats.census",
    VALENCE_CLASSIFY = "valence.classify",
    VALENCE_DECIDED_PROBES = "valence.decided_probes",
    VALENCE_MEMO_HITS = "valence.memo_hits",
    VALENCE_QUERIES = "valence.queries",
    VALENCE_STATES_CLASSIFIED = "valence.states_classified",
}

/// How many names are registered: the length of the registry's arrays.
pub(crate) const COUNT: usize = NAMES.len();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_sorted_and_unique() {
        assert!(
            NAMES.windows(2).all(|w| w[0].as_str() < w[1].as_str()),
            "NAMES must be sorted and duplicate-free"
        );
        assert_eq!(NAMES.len(), 84);
    }

    #[test]
    fn each_name_sits_at_its_own_index() {
        for (i, name) in NAMES.iter().enumerate() {
            assert_eq!(name.index(), i, "{name}");
        }
        assert_eq!(VALENCE_MEMO_HITS.as_str(), "valence.memo_hits");
        assert_eq!(VALENCE_MEMO_HITS, "valence.memo_hits");
        assert_eq!(format!("{VALENCE_MEMO_HITS:?}"), "\"valence.memo_hits\"");
        assert!(VALENCE_MEMO_HITS != "valence.memo_hit");
    }

    #[test]
    fn constants_spell_their_strings() {
        // The constant is the string upper-cased with `.` as `_`, so a
        // call site reads as the name it records.
        for (ident, name) in IDENTS.iter().zip(NAMES) {
            assert_eq!(*ident, name.as_str().to_ascii_uppercase().replace('.', "_"));
        }
    }

    #[test]
    fn names_follow_the_dotted_convention() {
        for name in NAMES.iter().map(|n| n.as_str()) {
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
        for name in NAMES.iter().map(|n| n.as_str()) {
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

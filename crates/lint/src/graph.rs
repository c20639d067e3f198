//! The approximate call graph and per-function effect summaries.
//!
//! Built on the [`crate::items`] symbol table, this module recovers the
//! second ingredient the whole-program rules need: *who calls whom*, and
//! *what each function does* that the determinism contract cares about.
//! Both are deliberately approximate — no type inference, no trait
//! dispatch — and both err in documented directions:
//!
//! * **Edges** are found by token shape. Free calls (`helper(…)`)
//!   resolve within the defining crate (same file, then same module,
//!   then crate-wide, then through `use` aliases). Qualified calls
//!   (`Type::method(…)`, `module::helper(…)`) resolve by the last two
//!   path segments. Bare method calls (`x.method(…)`) link to *every*
//!   workspace method of that name — an over-approximation — except for
//!   names on the [`COMMON_METHODS`] list, which shadow ubiquitous std
//!   methods and would wire unrelated types together; those resolve to
//!   nothing (an under-approximation the rule docs call out).
//! * **Local effects** are token patterns scanned over each function
//!   body (nested `fn` bodies excluded — they are their own nodes):
//!   wall-clock reads, laundered unordered-container iteration,
//!   non-deterministic hashing, computed-range slicing, and
//!   intern-shard guard acquisition.
//!
//! Transitive summaries propagate local effects from callee to caller
//! to a fixed point (a reverse breadth-first search per effect bit),
//! and a forward breadth-first search from the entry-point set records
//! parent pointers so every diagnostic can print a concrete call chain
//! from an entry to the offending site. All traversals iterate sorted
//! structures in index order, so summaries, chains, and therefore the
//! lint's own output are deterministic.

use std::collections::BTreeMap;
use std::collections::BTreeSet;

use crate::items::{is_keyword, FnDef, Workspace};
use crate::lexer::{matching, Tok, TokKind};
use crate::rules::{ITER_METHODS, ORDER_INSENSITIVE};

/// Effect bits tracked per function. Stored as a mask in [`Effects`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    /// Reads the wall clock (`Instant`/`SystemTime`) outside the
    /// sanctioned `telemetry::clock` wrapper.
    WallClock,
    /// Iterates an unordered hash container *field* in an
    /// order-sensitive position — the laundering pattern the per-file
    /// L001 cannot see.
    UnorderedIter,
    /// Uses non-deterministic hashing or randomness (`RandomState`,
    /// `thread_rng`).
    Random,
    /// Slices with a computed range (`[a..a + b]` and friends) that
    /// panics when out of bounds.
    PanicIndex,
}

/// All effect bits, in mask-bit order.
pub const EFFECTS: &[Effect] = &[
    Effect::WallClock,
    Effect::UnorderedIter,
    Effect::Random,
    Effect::PanicIndex,
];

impl Effect {
    /// The effect's bit in an [`Effects`] mask.
    #[must_use]
    pub fn bit(self) -> u8 {
        match self {
            Effect::WallClock => 1,
            Effect::UnorderedIter => 1 << 1,
            Effect::Random => 1 << 2,
            Effect::PanicIndex => 1 << 3,
        }
    }

    /// Index of the effect in [`EFFECTS`] (for per-bit tables).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Effect::WallClock => 0,
            Effect::UnorderedIter => 1,
            Effect::Random => 2,
            Effect::PanicIndex => 3,
        }
    }

    /// Short name used in `--graph-stats` and diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Effect::WallClock => "wall-clock",
            Effect::UnorderedIter => "unordered-iter",
            Effect::Random => "random",
            Effect::PanicIndex => "panic-index",
        }
    }
}

/// A set of [`Effect`]s, as a bit mask.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Effects(pub u8);

impl Effects {
    /// The empty set.
    pub const NONE: Effects = Effects(0);

    /// Whether `e` is in the set.
    #[must_use]
    pub fn has(self, e: Effect) -> bool {
        self.0 & e.bit() != 0
    }

    /// Adds `e` to the set.
    pub fn add(&mut self, e: Effect) {
        self.0 |= e.bit();
    }

    /// Set union.
    #[must_use]
    pub fn union(self, o: Effects) -> Effects {
        Effects(self.0 | o.0)
    }
}

/// One locally-detected effect occurrence inside a function body.
#[derive(Clone, Debug)]
pub struct LocalEffect {
    /// The effect.
    pub effect: Effect,
    /// 1-based source line of the occurrence.
    pub line: u32,
    /// Short description of the concrete pattern, for diagnostics.
    pub detail: String,
}

/// One step of a call chain: the function arrived at, and the line in
/// the *caller* where the call happens.
#[derive(Clone, Copy, Debug)]
pub struct ChainStep {
    /// Index into [`Workspace::fns`].
    pub func: usize,
    /// Call-site line in the previous chain element's file (the
    /// function's own definition line for the first element).
    pub line: u32,
}

/// The call graph: per-function edges, local effects, transitive
/// summaries, and the entry-point set.
#[derive(Clone, Debug, Default)]
pub struct CallGraph {
    /// Per function: sorted, deduplicated `(callee, call-site line)`.
    pub edges: Vec<Vec<(usize, u32)>>,
    /// Per function: sorted caller indexes (reverse edges).
    pub reverse: Vec<Vec<usize>>,
    /// Per function: local effect occurrences, in (effect, line) order.
    pub local: Vec<Vec<LocalEffect>>,
    /// Per function: transitive effect summary (local ∪ callees').
    pub summary: Vec<Effects>,
    /// Per function, per effect: the first-discovered `(callee,
    /// call-site line)` through which the effect arrives, for functions
    /// whose summary holds the effect non-locally.
    pub down: Vec<[Option<(usize, u32)>; EFFECTS.len()]>,
    /// Entry-point function indexes, sorted (see [`is_entry`]).
    pub entries: Vec<usize>,
    /// Per function: `(caller, call-site line)` parent pointer from the
    /// forward entry-reachability search; `None` if unreachable (entry
    /// points have `Some((self, def line))` as a root marker).
    pub from_entry: Vec<Option<(usize, u32)>>,
}

/// Method names that shadow ubiquitous std methods: bare `x.name(…)`
/// calls to these are *not* resolved to workspace methods, because the
/// receiver is far more often a std container than a workspace type.
/// Qualified calls (`Type::name(…)`) still resolve exactly.
pub const COMMON_METHODS: &[&str] = &[
    "all",
    "and_then",
    "any",
    "as_bytes",
    "as_mut",
    "as_ref",
    "as_str",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "count",
    "default",
    "drain",
    "entry",
    "eq",
    "expect",
    "extend",
    "filter",
    "first",
    "flush",
    "fmt",
    "fold",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "keys",
    "last",
    "len",
    "lock",
    "map",
    "max",
    "min",
    "ne",
    "new",
    "next",
    "or_else",
    "partial_cmp",
    "pop",
    "push",
    "push_str",
    "read",
    "remove",
    "rev",
    "sort",
    "sort_unstable",
    "split",
    "starts_with",
    "sum",
    "take",
    "to_owned",
    "to_string",
    "try_lock",
    "unwrap",
    "values",
    "write",
];

/// Whether `f` is a scan/sim/snapshot entry point: a `pub` function
/// that either lives in a determinism-critical module (`space`,
/// `snapshot`, `layering`, `sim`), belongs to the `layered_sim` crate,
/// or is named like a scan driver (`scan_*`, `expand_*`, `build_*`).
#[must_use]
pub fn is_entry(ws: &Workspace, f: &FnDef) -> bool {
    if !f.is_pub {
        return false;
    }
    if ["scan_", "expand_", "build_"]
        .iter()
        .any(|p| f.name.starts_with(p))
    {
        return true;
    }
    let file = &ws.files[f.file];
    if file.crate_name == "layered_sim" {
        return true;
    }
    f.module
        .iter()
        .any(|m| matches!(m.as_str(), "space" | "snapshot" | "layering" | "sim"))
}

impl CallGraph {
    /// Builds the graph over a parsed workspace.
    #[must_use]
    pub fn build(ws: &Workspace) -> CallGraph {
        let n = ws.fns.len();
        let mut g = CallGraph {
            edges: vec![Vec::new(); n],
            reverse: vec![Vec::new(); n],
            local: vec![Vec::new(); n],
            summary: vec![Effects::NONE; n],
            down: vec![[None; EFFECTS.len()]; n],
            entries: Vec::new(),
            from_entry: vec![None; n],
        };
        let resolver = Resolver::new(ws);
        let fields = FieldIndex::new(ws);
        for (idx, f) in ws.fns.iter().enumerate() {
            let Some(body) = body_view(ws, idx) else {
                continue;
            };
            g.edges[idx] = find_calls(ws, &resolver, f, &body);
            g.local[idx] = find_effects(ws, f, &body, &fields);
        }
        for (caller, outs) in g.edges.iter().enumerate() {
            for &(callee, _) in outs {
                g.reverse[callee].push(caller);
            }
        }
        for r in &mut g.reverse {
            r.sort_unstable();
            r.dedup();
        }
        g.propagate();
        g.entries = ws
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| is_entry(ws, f))
            .map(|(i, _)| i)
            .collect();
        g.forward_reach(ws);
        g
    }

    /// Propagates local effects caller-ward: one reverse BFS per effect
    /// bit, recording the first-discovered down-edge for chain
    /// reconstruction.
    fn propagate(&mut self) {
        for &eff in EFFECTS {
            let mut queue: Vec<usize> = Vec::new();
            for (i, locals) in self.local.iter().enumerate() {
                if locals.iter().any(|l| l.effect == eff) {
                    self.summary[i].add(eff);
                    queue.push(i);
                }
            }
            let mut head = 0;
            while head < queue.len() {
                let f = queue[head];
                head += 1;
                for &caller in &self.reverse[f] {
                    if self.summary[caller].has(eff) {
                        continue;
                    }
                    self.summary[caller].add(eff);
                    let line = self.edges[caller]
                        .iter()
                        .find(|(c, _)| *c == f)
                        .map_or(0, |(_, l)| *l);
                    self.down[caller][eff.index()] = Some((f, line));
                    queue.push(caller);
                }
            }
        }
    }

    /// Forward BFS from the entry set, recording parent pointers.
    fn forward_reach(&mut self, ws: &Workspace) {
        let mut queue: Vec<usize> = Vec::new();
        for &e in &self.entries {
            self.from_entry[e] = Some((e, ws.fns[e].line));
            queue.push(e);
        }
        let mut head = 0;
        while head < queue.len() {
            let f = queue[head];
            head += 1;
            for &(callee, line) in &self.edges[f] {
                if self.from_entry[callee].is_none() {
                    self.from_entry[callee] = Some((f, line));
                    queue.push(callee);
                }
            }
        }
    }

    /// Whether `f` is reachable from the entry set.
    #[must_use]
    pub fn reachable(&self, f: usize) -> bool {
        self.from_entry[f].is_some()
    }

    /// The call chain from an entry point to `f` (inclusive), built from
    /// the forward-BFS parent pointers. Empty if `f` is unreachable.
    #[must_use]
    pub fn chain_from_entry(&self, f: usize) -> Vec<ChainStep> {
        let mut rev = Vec::new();
        let mut cur = f;
        loop {
            let Some((parent, line)) = self.from_entry[cur] else {
                return Vec::new();
            };
            rev.push(ChainStep { func: cur, line });
            if parent == cur {
                break; // entry root
            }
            cur = parent;
            if rev.len() > self.from_entry.len() {
                break; // defensive: parent pointers never cycle, but cap anyway
            }
        }
        rev.reverse();
        rev
    }

    /// The chain from `f` *down* to the function carrying `eff`
    /// locally, following first-discovery down-edges. Starts at `f`.
    #[must_use]
    pub fn chain_to_local(&self, f: usize, eff: Effect, ws: &Workspace) -> Vec<ChainStep> {
        let mut chain = vec![ChainStep {
            func: f,
            line: ws.fns[f].line,
        }];
        let mut cur = f;
        while let Some((next, line)) = self.down[cur][eff.index()] {
            chain.push(ChainStep { func: next, line });
            cur = next;
            if chain.len() > self.down.len() {
                break;
            }
        }
        chain
    }

    /// The first local occurrence of `eff` in `f`, if any.
    #[must_use]
    pub fn local_occurrence(&self, f: usize, eff: Effect) -> Option<&LocalEffect> {
        self.local[f].iter().find(|l| l.effect == eff)
    }

    /// Total edge count (for `--graph-stats`).
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Summary numbers for `--graph-stats`: the size and effect census of
/// the call graph, deterministic across runs.
#[derive(Clone, Debug, Default)]
pub struct GraphStats {
    /// Parsed library/bin files.
    pub files: usize,
    /// Function nodes.
    pub fns: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Entry-point functions.
    pub entries: usize,
    /// Functions reachable from the entry set.
    pub reachable: usize,
    /// Per effect (in [`EFFECTS`] order): functions with the effect
    /// locally, and functions whose transitive summary includes it.
    pub per_effect: Vec<(&'static str, usize, usize)>,
}

impl GraphStats {
    /// Computes the census over a built graph.
    #[must_use]
    pub fn compute(ws: &Workspace, g: &CallGraph) -> GraphStats {
        GraphStats {
            files: ws.files.len(),
            fns: ws.fns.len(),
            edges: g.edge_count(),
            entries: g.entries.len(),
            reachable: (0..ws.fns.len()).filter(|&i| g.reachable(i)).count(),
            per_effect: EFFECTS
                .iter()
                .map(|&e| {
                    let local = g
                        .local
                        .iter()
                        .filter(|ls| ls.iter().any(|l| l.effect == e))
                        .count();
                    let summary = g.summary.iter().filter(|s| s.has(e)).count();
                    (e.name(), local, summary)
                })
                .collect(),
        }
    }
}

/// A function body as a token range with nested-fn sub-ranges excluded.
pub struct BodyView<'a> {
    /// The file's full token stream.
    pub toks: &'a [Tok],
    /// Body start (first token after the opening brace).
    pub start: usize,
    /// Body end (the closing brace's index, exclusive).
    pub end: usize,
    /// Sorted, disjoint sub-ranges to skip (nested fn bodies).
    pub skip: Vec<(usize, usize)>,
}

impl BodyView<'_> {
    /// Iterates the body's token indexes, excluding skipped ranges.
    pub fn indexes(&self) -> impl Iterator<Item = usize> + '_ {
        let mut skip_at = 0;
        (self.start..self.end).filter(move |&i| {
            while skip_at < self.skip.len() && self.skip[skip_at].1 <= i {
                skip_at += 1;
            }
            !(skip_at < self.skip.len() && i >= self.skip[skip_at].0)
        })
    }
}

/// The body of fn `idx` as a [`BodyView`] (nested fn bodies excluded),
/// or `None` for bodyless trait declarations.
#[must_use]
pub fn body_view(ws: &Workspace, idx: usize) -> Option<BodyView<'_>> {
    let f = &ws.fns[idx];
    let (s, e) = f.body?;
    Some(BodyView {
        toks: &ws.files[f.file].toks,
        start: s,
        end: e,
        skip: nested_ranges(ws, idx, s, e),
    })
}

/// Body ranges of *other* functions nested strictly inside `(s, e)` of
/// the same file — excluded from fn `idx`'s own body scan.
fn nested_ranges(ws: &Workspace, idx: usize, s: usize, e: usize) -> Vec<(usize, usize)> {
    let file = ws.fns[idx].file;
    let mut ranges: Vec<(usize, usize)> = ws
        .fns
        .iter()
        .enumerate()
        .filter(|&(j, other)| j != idx && other.file == file)
        .filter_map(|(_, other)| other.body)
        .filter(|&(os, oe)| os >= s && oe <= e)
        .collect();
    ranges.sort_unstable();
    // Keep only outermost nested ranges (a doubly-nested fn is inside an
    // already-skipped range).
    let mut out: Vec<(usize, usize)> = Vec::new();
    for r in ranges {
        match out.last() {
            Some(&(_, pe)) if r.1 <= pe => {}
            _ => out.push(r),
        }
    }
    out
}

/// Resolution indexes over the workspace's functions.
struct Resolver {
    /// Free functions by name → sorted fn indexes.
    free: BTreeMap<String, Vec<usize>>,
    /// Methods by name → sorted fn indexes (self_ty present).
    methods: BTreeMap<String, Vec<usize>>,
    /// Methods by `(self type, name)` → sorted fn indexes.
    typed: BTreeMap<(String, String), Vec<usize>>,
}

impl Resolver {
    fn new(ws: &Workspace) -> Resolver {
        let mut r = Resolver {
            free: BTreeMap::new(),
            methods: BTreeMap::new(),
            typed: BTreeMap::new(),
        };
        for (i, f) in ws.fns.iter().enumerate() {
            match &f.self_ty {
                Some(ty) => {
                    r.methods.entry(f.name.clone()).or_default().push(i);
                    r.typed
                        .entry((ty.clone(), f.name.clone()))
                        .or_default()
                        .push(i);
                }
                None => r.free.entry(f.name.clone()).or_default().push(i),
            }
        }
        r
    }

    /// Resolves a free call from `caller` to fns named `name`: same
    /// file, else same crate + module, else same crate, else through the
    /// caller file's `use` aliases into another workspace crate.
    fn free_call(&self, ws: &Workspace, caller: &FnDef, name: &str) -> Vec<usize> {
        let Some(cands) = self.free.get(name) else {
            return self.alias_call(ws, caller, name);
        };
        let same_file: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| ws.fns[i].file == caller.file)
            .collect();
        if !same_file.is_empty() {
            return same_file;
        }
        let crate_of = |i: usize| ws.files[ws.fns[i].file].crate_name.as_str();
        let caller_crate = ws.files[caller.file].crate_name.as_str();
        let same_mod: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| crate_of(i) == caller_crate && ws.fns[i].module == caller.module)
            .collect();
        if !same_mod.is_empty() {
            return same_mod;
        }
        let same_crate: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| crate_of(i) == caller_crate)
            .collect();
        if !same_crate.is_empty() {
            return same_crate;
        }
        self.alias_call(ws, caller, name)
    }

    /// Resolves `name` through the caller file's `use` aliases: a `use
    /// layered_x::…::name` (possibly renamed) maps the local name to a
    /// free fn in crate `layered_x`.
    fn alias_call(&self, ws: &Workspace, caller: &FnDef, name: &str) -> Vec<usize> {
        for u in ws.uses.iter().filter(|u| u.file == caller.file) {
            if u.alias != name {
                continue;
            }
            let Some(target) = u.path.last() else {
                continue;
            };
            let Some(crate_name) = u.path.first().filter(|c| c.starts_with("layered_")) else {
                continue;
            };
            let Some(cands) = self.free.get(target) else {
                continue;
            };
            let hits: Vec<usize> = cands
                .iter()
                .copied()
                .filter(|&i| &ws.files[ws.fns[i].file].crate_name == crate_name)
                .collect();
            if !hits.is_empty() {
                return hits;
            }
        }
        Vec::new()
    }

    /// Resolves a qualified call `qual::name(…)`. `qual` may be a type
    /// (`Store::slot_matches`), `Self`, or a module/crate path segment.
    fn path_call(&self, ws: &Workspace, caller: &FnDef, qual: &str, name: &str) -> Vec<usize> {
        let qual = if qual == "Self" {
            match &caller.self_ty {
                Some(ty) => ty.as_str(),
                None => return Vec::new(),
            }
        } else {
            qual
        };
        if let Some(hits) = self.typed.get(&(qual.to_string(), name.to_string())) {
            return hits.clone();
        }
        // Module-qualified free call: fns whose module path ends with
        // `qual`, or whose crate is `qual` resolved as a crate name.
        let Some(cands) = self.free.get(name) else {
            return Vec::new();
        };
        let hits: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&i| {
                let f = &ws.fns[i];
                f.module.last().is_some_and(|m| m == qual)
                    || ws.files[f.file].crate_name == qual
                    || (qual == "crate"
                        && ws.files[f.file].crate_name == ws.files[caller.file].crate_name)
            })
            .collect();
        hits
    }
}

/// Scans a body for call sites and resolves them into edges.
fn find_calls(
    ws: &Workspace,
    r: &Resolver,
    caller: &FnDef,
    body: &BodyView<'_>,
) -> Vec<(usize, u32)> {
    let toks = body.toks;
    let mut edges: Vec<(usize, u32)> = Vec::new();
    let idxs: Vec<usize> = body.indexes().collect();
    for (pos, &i) in idxs.iter().enumerate() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || is_keyword(&t.text) {
            continue;
        }
        // Must be directly followed by `(` (same filtered stream).
        let Some(&next) = idxs.get(pos + 1) else {
            continue;
        };
        if !toks[next].is_punct('(') {
            continue;
        }
        let prev = pos.checked_sub(1).map(|p| &toks[idxs[p]]);
        let prev2 = pos.checked_sub(2).map(|p| &toks[idxs[p]]);
        let targets = match prev {
            Some(p) if p.is_punct('.') => {
                if COMMON_METHODS.contains(&t.text.as_str()) {
                    Vec::new()
                } else {
                    r.methods.get(&t.text).cloned().unwrap_or_default()
                }
            }
            Some(p) if p.is_punct(':') && prev2.is_some_and(|q| q.is_punct(':')) => {
                // Qualified call: the segment before the `::`.
                match pos.checked_sub(3).map(|q| &toks[idxs[q]]) {
                    Some(q) if q.kind == TokKind::Ident => {
                        r.path_call(ws, caller, &q.text, &t.text)
                    }
                    _ => Vec::new(),
                }
            }
            Some(p) if p.is_ident("fn") => Vec::new(), // definition header
            _ => r.free_call(ws, caller, &t.text),
        };
        for target in targets {
            edges.push((target, t.line));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Struct-field knowledge for the laundered-iteration detector.
///
/// Field names are not globally unique (`buckets` is an `FxHashMap` on
/// the intern shard but a plain array on `Histogram`), so matching is
/// receiver-aware: a `self.field` access resolves against the enclosing
/// impl's struct exactly; any other receiver falls back to "some struct
/// *in the same crate* declares an unordered field of this name" — a
/// documented over-approximation that stays inside crate boundaries.
pub struct FieldIndex {
    /// `(struct, field)` → declared type mentions an unordered container.
    per_struct: BTreeMap<(String, String), bool>,
    /// `(crate, field)` pairs with at least one unordered declaration.
    per_crate: BTreeSet<(String, String)>,
}

impl FieldIndex {
    /// Builds the index over the workspace's parsed struct fields.
    #[must_use]
    pub fn new(ws: &Workspace) -> FieldIndex {
        let mut ix = FieldIndex {
            per_struct: BTreeMap::new(),
            per_crate: BTreeSet::new(),
        };
        for fd in &ws.fields {
            let key = (fd.struct_name.clone(), fd.name.clone());
            *ix.per_struct.entry(key).or_insert(false) |= fd.unordered;
            if fd.unordered {
                ix.per_crate
                    .insert((ws.files[fd.file].crate_name.clone(), fd.name.clone()));
            }
        }
        ix
    }

    /// Whether a `.field` access inside `f` touches an unordered
    /// container. If the enclosing impl's struct declares the field,
    /// that declaration decides (covering both `self.field` and
    /// same-type peers like `other.field` in a merge); otherwise any
    /// unordered declaration of the name in the same crate counts.
    fn unordered(&self, f: &FnDef, krate: &str, field: &str) -> bool {
        if let Some(ty) = &f.self_ty {
            if let Some(&u) = self.per_struct.get(&(ty.clone(), field.to_string())) {
                return u;
            }
        }
        self.per_crate
            .contains(&(krate.to_string(), field.to_string()))
    }
}

/// Scans a body for local effect occurrences.
fn find_effects(
    ws: &Workspace,
    f: &FnDef,
    body: &BodyView<'_>,
    fields: &FieldIndex,
) -> Vec<LocalEffect> {
    let toks = body.toks;
    let rel = ws.files[f.file].rel.as_str();
    let krate = ws.files[f.file].crate_name.as_str();
    let clock_exempt = rel == "crates/core/src/telemetry/clock.rs";
    let idxs: Vec<usize> = body.indexes().collect();
    let ordered = ordered_bindings(toks, &idxs);
    let mut out: Vec<LocalEffect> = Vec::new();
    for (pos, &i) in idxs.iter().enumerate() {
        let t = &toks[i];
        if t.kind == TokKind::Ident {
            match t.text.as_str() {
                "Instant" | "SystemTime" if !clock_exempt => out.push(LocalEffect {
                    effect: Effect::WallClock,
                    line: t.line,
                    detail: format!("`{}` wall-clock read", t.text),
                }),
                "RandomState" | "thread_rng" => out.push(LocalEffect {
                    effect: Effect::Random,
                    line: t.line,
                    detail: format!("`{}` non-deterministic hashing/randomness", t.text),
                }),
                "for" => {
                    if let Some(le) = for_loop_effect(toks, &idxs, pos, f, krate, fields, &ordered)
                    {
                        out.push(le);
                    }
                }
                _ => {}
            }
        }
        // `.field.<iter_method>(` — laundered iteration over an
        // unordered field.
        if t.is_punct('.')
            && pos + 4 < idxs.len()
            && toks[idxs[pos + 1]].kind == TokKind::Ident
            && fields.unordered(f, krate, &toks[idxs[pos + 1]].text)
            && toks[idxs[pos + 2]].is_punct('.')
            && toks[idxs[pos + 3]].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[idxs[pos + 3]].text.as_str())
            && toks_at(toks, &idxs, pos + 4).is_some_and(|n| n.is_punct('('))
        {
            let field = &toks[idxs[pos + 1]].text;
            if !in_for_header(toks, &idxs, pos)
                && !statement_order_insensitive(toks, &idxs, pos, &ordered)
            {
                out.push(LocalEffect {
                    effect: Effect::UnorderedIter,
                    line: toks[idxs[pos + 1]].line,
                    detail: format!(
                        "iterates unordered field `{field}` via `.{}()` in an order-sensitive position",
                        toks[idxs[pos + 3]].text
                    ),
                });
            }
        }
        // Computed-range slicing: postfix `[ … .. … ]` with arithmetic.
        if t.is_punct('[') && pos > 0 && is_postfix_target(&toks[idxs[pos - 1]]) {
            if let Some(close) = matching(toks, i, '[', ']') {
                let group = &toks[i + 1..close];
                let has_range = group
                    .windows(2)
                    .any(|w| w[0].is_punct('.') && w[1].is_punct('.'));
                // `*`/`-` are arithmetic only after an operand: `[*pos..]`
                // is a deref and `[..-x]`-style prefixes are unary.
                let has_arith = group.iter().enumerate().any(|(k, g)| {
                    if g.is_punct('+') || g.is_punct('/') || g.is_punct('%') {
                        return true;
                    }
                    (g.is_punct('*') || g.is_punct('-'))
                        && k > 0
                        && matches!(group[k - 1].kind, TokKind::Ident | TokKind::Num)
                });
                if has_range && has_arith {
                    out.push(LocalEffect {
                        effect: Effect::PanicIndex,
                        line: t.line,
                        detail: "computed-range slice — panics when out of bounds".to_string(),
                    });
                }
            }
        }
    }
    out.sort_by_key(|l| (l.effect, l.line));
    out
}

/// Token after `pos` in the filtered index stream, if any.
fn toks_at<'a>(toks: &'a [Tok], idxs: &[usize], pos: usize) -> Option<&'a Tok> {
    idxs.get(pos).map(|&i| &toks[i])
}

/// Whether a token can end the receiver of a postfix index expression.
fn is_postfix_target(t: &Tok) -> bool {
    (t.kind == TokKind::Ident && !is_keyword(&t.text)) || t.is_punct(')') || t.is_punct(']')
}

/// Names bound to ordered containers (`BTreeMap`/`BTreeSet`/
/// `BinaryHeap`) by a `let` in this body: sinks into these make an
/// unordered iteration order-insensitive.
fn ordered_bindings(toks: &[Tok], idxs: &[usize]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (pos, &i) in idxs.iter().enumerate() {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut p = pos + 1;
        if toks_at(toks, idxs, p).is_some_and(|t| t.is_ident("mut")) {
            p += 1;
        }
        let Some(name_tok) = toks_at(toks, idxs, p).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        // Scan the statement (to `;` at depth 0) for an ordered type.
        let mut depth = 0i32;
        let mut q = p + 1;
        let mut is_ordered = false;
        while let Some(&j) = idxs.get(q) {
            let t = &toks[j];
            if t.is_punct('(') || t.is_punct('{') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct('}') || t.is_punct(']') {
                depth -= 1;
            } else if t.is_punct(';') && depth <= 0 {
                break;
            } else if t.kind == TokKind::Ident
                && matches!(t.text.as_str(), "BTreeMap" | "BTreeSet" | "BinaryHeap")
            {
                is_ordered = true;
            }
            q += 1;
        }
        if is_ordered {
            out.insert(name_tok.text.clone());
        }
    }
    out
}

/// Whether filtered position `pos` sits inside a `for … in …` loop
/// header — there the `for`-loop detector owns the verdict (it can see
/// the loop body's sinks), so the expression-level detector stands down.
fn in_for_header(toks: &[Tok], idxs: &[usize], pos: usize) -> bool {
    let mut p = pos;
    while p > 0 {
        let t = &toks[idxs[p - 1]];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return false;
        }
        p -= 1;
        if t.is_ident("for") {
            return true;
        }
    }
    false
}

/// Whether the statement around filtered position `pos` consumes its
/// iteration order-insensitively: an [`ORDER_INSENSITIVE`] token, or a
/// method call on an ordered binding, anywhere between the enclosing
/// statement boundaries.
fn statement_order_insensitive(
    toks: &[Tok],
    idxs: &[usize],
    pos: usize,
    ordered: &BTreeSet<String>,
) -> bool {
    let insensitive = |p: usize| -> bool {
        let t = &toks[idxs[p]];
        if t.kind != TokKind::Ident {
            return false;
        }
        ORDER_INSENSITIVE.contains(&t.text.as_str())
            || (ordered.contains(&t.text)
                && toks_at(toks, idxs, p + 1).is_some_and(|n| n.is_punct('.')))
    };
    // Backward to the statement start.
    let mut p = pos;
    while p > 0 {
        let t = &toks[idxs[p - 1]];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        p -= 1;
        if insensitive(p) {
            return true;
        }
    }
    // Forward to the statement end (`;` at relative depth 0).
    let mut depth = 0i32;
    let mut q = pos;
    while let Some(&j) = idxs.get(q) {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if (t.is_punct(';') || t.is_punct('{')) && depth <= 0 {
            break;
        }
        if insensitive(q) {
            return true;
        }
        q += 1;
    }
    false
}

/// Detects order-sensitive `for … in …<unordered field>… { … }` loops.
#[allow(clippy::too_many_arguments)]
fn for_loop_effect(
    toks: &[Tok],
    idxs: &[usize],
    pos: usize,
    f: &FnDef,
    krate: &str,
    fields: &FieldIndex,
    ordered: &BTreeSet<String>,
) -> Option<LocalEffect> {
    // Find the `in` and the loop `{` at filtered depth 0.
    let mut p = pos + 1;
    let mut in_at: Option<usize> = None;
    let mut depth = 0i32;
    while let Some(&j) = idxs.get(p) {
        let t = &toks[j];
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_ident("in") && depth <= 0 && in_at.is_none() {
            in_at = Some(p);
        } else if t.is_punct('{') && depth <= 0 {
            break;
        }
        p += 1;
    }
    let (in_at, brace_pos) = (in_at?, p);
    let brace_tok_idx = *idxs.get(brace_pos)?;
    // The iterable: `. field` with an unordered field between `in` and `{`.
    let mut field: Option<&str> = None;
    for w in in_at + 1..brace_pos {
        if toks[idxs[w]].is_punct('.')
            && toks_at(toks, idxs, w + 1)
                .is_some_and(|t| t.kind == TokKind::Ident && fields.unordered(f, krate, &t.text))
        {
            field = Some(toks[idxs[w + 1]].text.as_str());
        }
    }
    let field = field?;
    // Order-insensitive if the loop body sinks into an ordered binding
    // or mentions an ORDER_INSENSITIVE consumer.
    let close = matching(toks, brace_tok_idx, '{', '}')?;
    for j in brace_tok_idx + 1..close {
        let t = &toks[j];
        if t.kind == TokKind::Ident
            && (ORDER_INSENSITIVE.contains(&t.text.as_str())
                || (ordered.contains(&t.text) && toks.get(j + 1).is_some_and(|n| n.is_punct('.'))))
        {
            return None;
        }
    }
    Some(LocalEffect {
        effect: Effect::UnorderedIter,
        line: toks[idxs[in_at]].line,
        detail: format!("`for` loop over unordered field `{field}` with an order-sensitive body"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::Workspace;
    use crate::rules::FileKind;

    fn build(src: &str) -> (Workspace, CallGraph) {
        let ws = Workspace::parse(&[(
            "crates/x/src/space/mod.rs".to_string(),
            FileKind::Library,
            src,
        )]);
        let g = CallGraph::build(&ws);
        (ws, g)
    }

    fn fn_idx(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn free_call_edges_resolve_within_the_file() {
        let (ws, g) = build("pub fn scan_a() { helper(); }\nfn helper() { leaf(); }\nfn leaf() {}");
        let a = fn_idx(&ws, "scan_a");
        let h = fn_idx(&ws, "helper");
        let l = fn_idx(&ws, "leaf");
        assert_eq!(g.edges[a].iter().map(|e| e.0).collect::<Vec<_>>(), vec![h]);
        assert_eq!(g.edges[h].iter().map(|e| e.0).collect::<Vec<_>>(), vec![l]);
        assert!(g.reverse[l].contains(&h));
    }

    #[test]
    fn method_and_qualified_calls_resolve_to_methods() {
        let (ws, g) = build(
            "struct S;\nimpl S { fn probe_or_stage(&self) {} fn tick(&self) { self.probe_or_stage(); } }\n\
             pub fn scan_b(s: &S) { S::probe_or_stage(s); }",
        );
        let m = fn_idx(&ws, "probe_or_stage");
        let t = fn_idx(&ws, "tick");
        let b = fn_idx(&ws, "scan_b");
        assert!(g.edges[t].iter().any(|e| e.0 == m), "dot call resolves");
        assert!(
            g.edges[b].iter().any(|e| e.0 == m),
            "qualified call resolves"
        );
    }

    #[test]
    fn common_method_names_do_not_link() {
        let (ws, g) = build(
            "struct S;\nimpl S { fn len(&self) -> usize { 0 } }\n\
             pub fn scan_c(v: &[u8]) -> usize { v.len() }",
        );
        let c = fn_idx(&ws, "scan_c");
        assert!(g.edges[c].is_empty(), "`.len()` stays unresolved");
    }

    #[test]
    fn effects_propagate_to_callers() {
        let (ws, g) = build(
            "pub fn scan_d() { mid(); }\nfn mid() { src(); }\n\
             fn src() { let _ = std::time::Instant::now(); }",
        );
        let d = fn_idx(&ws, "scan_d");
        let s = fn_idx(&ws, "src");
        assert!(g.summary[s].has(Effect::WallClock));
        assert!(g.summary[d].has(Effect::WallClock), "transitive summary");
        assert!(g.local[d].is_empty(), "no local effect on the entry");
        let chain = g.chain_to_local(d, Effect::WallClock, &ws);
        assert_eq!(chain.len(), 3, "entry → mid → src");
    }

    #[test]
    fn entry_reachability_builds_chains() {
        let (ws, g) = build("pub fn scan_e() { a(); }\nfn a() { b(); }\nfn b() {}\nfn island() {}");
        let b = fn_idx(&ws, "b");
        let island = fn_idx(&ws, "island");
        assert!(g.reachable(b));
        assert!(!g.reachable(island));
        let chain = g.chain_from_entry(b);
        assert_eq!(chain.len(), 3);
        assert_eq!(ws.fns[chain[0].func].name, "scan_e");
        assert_eq!(ws.fns[chain[2].func].name, "b");
    }

    #[test]
    fn unordered_field_iteration_is_an_effect_unless_sunk_ordered() {
        let (ws, g) = build(
            "struct T { m: HashMap<u32, u32> }\nimpl T {\n\
             fn bad(&self) -> Vec<u32> { self.m.values().copied().collect() }\n\
             fn good(&self) -> BTreeMap<u32, u32> {\n\
               let mut out = BTreeMap::new();\n\
               for (k, v) in self.m.iter() { out.insert(*k, *v); }\nout }\n\
             fn summed(&self) -> u32 { self.m.values().sum() }\n}",
        );
        let bad = fn_idx(&ws, "bad");
        let good = fn_idx(&ws, "good");
        let summed = fn_idx(&ws, "summed");
        assert!(g.summary[bad].has(Effect::UnorderedIter));
        assert!(!g.summary[good].has(Effect::UnorderedIter), "BTreeMap sink");
        assert!(!g.summary[summed].has(Effect::UnorderedIter), "sum() sink");
    }

    #[test]
    fn computed_range_slice_is_an_effect_but_plain_index_is_not() {
        let (ws, g) = build(
            "fn slice(v: &[u8], a: usize, n: usize) -> &[u8] { &v[a..a + n] }\n\
             fn plain(v: &[u8], i: usize) -> u8 { v[i] }\n\
             fn whole(v: &[u8]) -> &[u8] { &v[..] }",
        );
        assert!(g.summary[fn_idx(&ws, "slice")].has(Effect::PanicIndex));
        assert!(!g.summary[fn_idx(&ws, "plain")].has(Effect::PanicIndex));
        assert!(!g.summary[fn_idx(&ws, "whole")].has(Effect::PanicIndex));
    }
}

//! The rule catalog and the per-file token rules (L001–L006).
//!
//! Each rule is a pattern over the lossy token stream produced by
//! [`crate::lexer`]; the catalog, scoping and rationale are documented in
//! DESIGN.md ("Static analysis & the determinism contract"). Summary:
//!
//! | rule | severity | guards against |
//! |------|----------|----------------|
//! | L001 | deny | iterating a `HashMap`/`HashSet` where order can leak into output, serialization, or interning order |
//! | L002 | deny | `Instant::now`/`SystemTime` in result-record paths (timing must be a documented, strippable field) |
//! | L003 | warn | `unwrap()` / `expect("")` in library code — panics need a stated invariant |
//! | L004 | warn | crate roots missing `#![forbid(unsafe_code)]` / `#![deny(missing_docs)]` |
//! | L006 | deny | floats formatted with `{}`/`{:?}` straight into JSON text instead of the canonical encoder |
//!
//! Ids L005 and L008 are retired and not reused. L005 checked telemetry
//! name literals against the registry; names are now typed constants, so
//! an unregistered name does not compile. L008 checked the nesting of
//! intern shard locks, which no longer exist.
//!
//! Rules apply to library and binary sources only; tests, benches and
//! examples are exempt (L003 additionally exempts the `crates/bench`
//! harness). Code inside `#[cfg(test)]` items is exempt everywhere. Any
//! finding can be waived with an inline `// lint:allow(L00x, reason)` on
//! the same or preceding line; suppressions are counted in the report and
//! the repo-wide lint-clean test requires every one to carry a reason.

use crate::lexer::{lex, matching, Tok, TokKind};

/// Where in the workspace a source file lives — decides which rules run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// A library source (`src/…`, except `src/bin`).
    Library,
    /// A binary source (`src/bin/…`, `src/main.rs`, `build.rs`).
    Bin,
    /// An integration test (`tests/…`).
    Test,
    /// A benchmark (`benches/…`).
    Bench,
    /// An example (`examples/…`).
    Example,
}

/// One source file to check.
#[derive(Clone, Debug)]
pub struct FileInput<'a> {
    /// Workspace-relative path with `/` separators (used in findings and
    /// for L003's bench-crate exemption).
    pub path: String,
    /// The file's classification.
    pub kind: FileKind,
    /// Whether this is a crate root (`src/lib.rs`) — enables L004.
    pub crate_root: bool,
    /// The source text.
    pub src: &'a str,
}

/// Severity of a rule: `deny` findings break the determinism contract
/// directly, `warn` findings are contract hygiene. Both fail the build —
/// the distinction is for readers of the report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Severity {
    /// Contract-breaking.
    Deny,
    /// Contract hygiene.
    Warn,
}

impl Severity {
    /// The severity as a lowercase string for reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Deny => "deny",
            Severity::Warn => "warn",
        }
    }
}

/// Static description of one rule, for reports and docs.
#[derive(Clone, Copy, Debug)]
pub struct RuleMeta {
    /// The rule id (`L001`…`L010`).
    pub id: &'static str,
    /// The rule's severity.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// The rule catalog, in id order.
pub const RULES: &[RuleMeta] = &[
    RuleMeta {
        id: "L001",
        severity: Severity::Deny,
        summary: "iteration over an unordered HashMap/HashSet in non-test code",
    },
    RuleMeta {
        id: "L002",
        severity: Severity::Deny,
        summary: "Instant::now/SystemTime in result-record paths",
    },
    RuleMeta {
        id: "L003",
        severity: Severity::Warn,
        summary: "unwrap()/expect(\"\") in library code",
    },
    RuleMeta {
        id: "L004",
        severity: Severity::Warn,
        summary: "crate root missing #![forbid(unsafe_code)]/#![deny(missing_docs)]",
    },
    RuleMeta {
        id: "L006",
        severity: Severity::Deny,
        summary: "float formatted into JSON text instead of the canonical encoder",
    },
    RuleMeta {
        id: "L007",
        severity: Severity::Deny,
        summary: "nondeterministic source reachable from a scan/sim/snapshot entry point",
    },
    RuleMeta {
        id: "L009",
        severity: Severity::Warn,
        summary: "computed-range slice (panic risk) reachable from a scan path",
    },
    RuleMeta {
        id: "L010",
        severity: Severity::Deny,
        summary: "model crate missing SnapshotState/StatePacker, or dead telemetry name",
    },
];

/// Long-form `--explain` prose for a rule id, or `None` if unknown.
#[must_use]
pub fn explain(id: &str) -> Option<&'static str> {
    Some(match id {
        "L001" => {
            "L001 — unordered iteration (token rule).\n\
             Iterating a HashMap/HashSet (or the Fx variants) yields platform- and\n\
             seed-dependent order. If that order can reach output, serialization, or\n\
             interning, records stop being byte-stable. Fix: use BTreeMap/BTreeSet, or\n\
             sort before consuming, or consume with an order-insensitive reduction\n\
             (count/sum/min/max/…). The rule is per-file: it only sees bindings whose\n\
             unordered type is visible in the same file — the cross-file laundering\n\
             case is L007's job."
        }
        "L002" => {
            "L002 — wall-clock reads (token rule).\n\
             Instant::now/SystemTime values differ per run; anywhere outside the\n\
             telemetry::clock wrapper they can leak into result records and break\n\
             byte-stability. Fix: route timing through telemetry::clock, whose _ns\n\
             fields are documented as strippable."
        }
        "L003" => {
            "L003 — unwrap/expect(\"\") in library code (token rule).\n\
             A panic without a stated invariant is an undocumented proof obligation.\n\
             Fix: expect(\"<invariant that makes this infallible>\") or handle the\n\
             error. Tests and the bench harness are exempt."
        }
        "L004" => {
            "L004 — missing crate-root hygiene attributes (token rule).\n\
             Every crate root must carry #![forbid(unsafe_code)] and\n\
             #![deny(missing_docs)]: the determinism argument leans on the absence\n\
             of unsafe aliasing, and the lint itself parses doc comments."
        }
        "L006" => {
            "L006 — float formatted into JSON text (token rule).\n\
             Formatting an f64 with {} or {:?} bypasses the canonical JSON encoder's\n\
             shortest-roundtrip rendering and can differ across platforms. Fix:\n\
             build a Json value and render it."
        }
        "L007" => {
            "L007 — nondeterminism taint (call-graph rule).\n\
             A whole-program reachability check: starting from the scan/sim/snapshot\n\
             entry points (pub fns in space/snapshot/layering/sim modules, the sim\n\
             crate, and scan_*/expand_*/build_* drivers), any path that reaches a\n\
             nondeterministic source is flagged at the source, with the full call\n\
             chain in the message. Sources: Instant/SystemTime outside\n\
             telemetry::clock, iteration of a struct field holding a\n\
             HashMap/HashSet in an order-sensitive position (the laundering pattern\n\
             L001 cannot see across files), and RandomState/thread_rng. A sink into\n\
             a BTreeMap/BTreeSet or an order-insensitive reduction neutralizes the\n\
             iteration source."
        }
        "L009" => {
            "L009 — panic-freedom on hot paths (call-graph rule).\n\
             Extends L003 beyond unwrap: computed-range slicing (v[a..a + n] and\n\
             friends) panics when the arithmetic is wrong, and on a scan path that\n\
             tears down a multi-hour run. The rule flags computed-range slices in\n\
             functions reachable from the entry points. Plain v[i] indexing and\n\
             full-range v[..] are deliberately out of scope (the workspace uses\n\
             them pervasively behind checked invariants). Fix:\n\
             .get(a..a + n).expect(\"<invariant>\") to state the proof obligation."
        }
        "L010" => {
            "L010 — cross-crate conformance (call-graph rule).\n\
             Two completeness checks that previously relied on reviewer memory:\n\
             (1) every crate implementing SimModel or Symmetric must also provide a\n\
             SnapshotState impl and a state_packer definition, so its state spaces\n\
             are checkpointable and packable like every other model's; (2) every\n\
             telemetry name constant in telemetry/names.rs must be used in another\n\
             workspace file — a dead registry entry is a stale contract."
        }
        _ => return None,
    })
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule id.
    pub rule: &'static str,
    /// The rule severity.
    pub severity: Severity,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the defect.
    pub message: String,
}

/// A finding waived by an inline `lint:allow` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SuppressedFinding {
    /// The waived finding.
    pub finding: Finding,
    /// The reason given in the suppression comment (may be empty; the
    /// repo-wide test rejects empty reasons).
    pub reason: String,
}

/// The outcome of checking one file.
#[derive(Clone, Debug, Default)]
pub struct FileReport {
    /// Unsuppressed findings, in (line, rule) order.
    pub findings: Vec<Finding>,
    /// Suppressed findings, in (line, rule) order.
    pub suppressed: Vec<SuppressedFinding>,
}

/// Checks one file against the per-file rules.
#[must_use]
pub fn check_file(input: &FileInput<'_>) -> FileReport {
    let lexed = lex(input.src);
    let test_lines = test_line_ranges(&lexed.toks);
    let ctx = Ctx {
        input,
        toks: &lexed.toks,
        test_lines: &test_lines,
    };

    let mut raw: Vec<Finding> = Vec::new();
    rule_l001(&ctx, &mut raw);
    rule_l002(&ctx, &mut raw);
    rule_l003(&ctx, &mut raw);
    rule_l004(&ctx, &mut raw);
    rule_l006(&ctx, &mut raw);
    raw.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));

    // Apply suppressions: a `lint:allow` covers its own line and the next
    // line that holds code (so it can sit above the offending statement).
    let mut report = FileReport::default();
    'findings: for finding in raw {
        for sup in &lexed.suppressions {
            let covers = sup.line == finding.line
                || next_code_line(&lexed.toks, sup.line) == Some(finding.line);
            if covers && sup.rules.iter().any(|r| r == finding.rule) {
                report.suppressed.push(SuppressedFinding {
                    finding,
                    reason: sup.reason.clone(),
                });
                continue 'findings;
            }
        }
        report.findings.push(finding);
    }
    report
}

/// The first token line strictly after `line` — where a suppression
/// comment on its own line points.
pub(crate) fn next_code_line(toks: &[Tok], line: u32) -> Option<u32> {
    toks.iter().map(|t| t.line).find(|&l| l > line)
}

struct Ctx<'a> {
    input: &'a FileInput<'a>,
    toks: &'a [Tok],
    test_lines: &'a [(u32, u32)],
}

impl Ctx<'_> {
    fn in_test_code(&self, line: u32) -> bool {
        matches!(self.input.kind, FileKind::Test)
            || self
                .test_lines
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Library/bin code outside `#[cfg(test)]` — where the determinism
    /// rules apply.
    fn lintable(&self, line: u32) -> bool {
        matches!(self.input.kind, FileKind::Library | FileKind::Bin) && !self.in_test_code(line)
    }

    fn emit(&self, out: &mut Vec<Finding>, rule: &'static str, line: u32, message: String) {
        let severity = RULES
            .iter()
            .find(|r| r.id == rule)
            .map_or(Severity::Deny, |r| r.severity);
        out.push(Finding {
            rule,
            severity,
            file: self.input.path.clone(),
            line,
            message,
        });
    }
}

/// Line ranges covered by `#[cfg(test)]` items (usually `mod tests`).
///
/// Heuristic: find each `#[cfg(… test …)]` attribute (excluding
/// `cfg(not(test))`), skip any further attributes, then span to the end
/// of the following item — its matching `}` for a block, or the `;` for
/// a declaration.
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].is_punct('#') && toks[i + 1].is_punct('[') {
            let start = i;
            let Some(close) = matching(toks, i + 1, '[', ']') else {
                break;
            };
            let attr = &toks[i + 2..close];
            let mentions_cfg_test = attr.iter().any(|t| t.is_ident("cfg"))
                && attr.iter().any(|t| t.is_ident("test"))
                && !attr.iter().any(|t| t.is_ident("not"));
            i = close + 1;
            if !mentions_cfg_test {
                continue;
            }
            // Skip stacked attributes, then find the item's extent.
            let mut j = i;
            while j + 1 < toks.len() && toks[j].is_punct('#') && toks[j + 1].is_punct('[') {
                match matching(toks, j + 1, '[', ']') {
                    Some(end) => j = end + 1,
                    None => return ranges,
                }
            }
            let mut k = j;
            while k < toks.len() && !toks[k].is_punct('{') && !toks[k].is_punct(';') {
                k += 1;
            }
            let end_line = if k < toks.len() && toks[k].is_punct('{') {
                matching(toks, k, '{', '}')
                    .map_or_else(|| toks[toks.len() - 1].line, |end| toks[end].line)
            } else if k < toks.len() {
                toks[k].line
            } else {
                toks[toks.len() - 1].line
            };
            ranges.push((toks[start].line, end_line));
        } else {
            i += 1;
        }
    }
    ranges
}

/// The unordered hash containers the determinism rules track.
pub(crate) const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet", "FxHashMap", "FxHashSet"];
/// Iterator-producing methods on those containers.
pub(crate) const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];
/// Consumers that make iteration order unobservable: commutative
/// reductions, pure membership/size queries, and re-sorting collectors.
pub(crate) const ORDER_INSENSITIVE: &[&str] = &[
    "count",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "len",
    "contains",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// L001: iteration over a container this file binds to an unordered
/// hash type, unless the enclosing statement consumes it
/// order-insensitively.
fn rule_l001(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let unordered = unordered_bindings(ctx.toks);
    if unordered.is_empty() {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        // `<id>.iter()` and friends.
        if i + 3 < toks.len()
            && toks[i].kind == TokKind::Ident
            && unordered.iter().any(|u| *u == toks[i].text)
            && toks[i + 1].is_punct('.')
            && ITER_METHODS.iter().any(|m| toks[i + 2].is_ident(m))
            && toks[i + 3].is_punct('(')
        {
            let line = toks[i].line;
            if ctx.lintable(line) && !statement_is_order_insensitive(toks, i + 3) {
                ctx.emit(
                    out,
                    "L001",
                    line,
                    format!(
                        "iteration over unordered `{}` via `.{}()` — order can differ across \
                         runs; sort first, use a BTree container, or reduce order-insensitively",
                        toks[i].text,
                        toks[i + 2].text
                    ),
                );
            }
        }
        // `for x in &<id> { … }` — direct loop over the container.
        if toks[i].is_ident("for") {
            if let Some(j) = toks[i..].iter().take(12).position(|t| t.is_ident("in")) {
                let mut k = i + j + 1;
                while k < toks.len() && (toks[k].is_punct('&') || toks[k].is_ident("mut")) {
                    k += 1;
                }
                if k + 1 < toks.len()
                    && toks[k].kind == TokKind::Ident
                    && unordered.iter().any(|u| *u == toks[k].text)
                    && toks[k + 1].is_punct('{')
                {
                    let line = toks[k].line;
                    if ctx.lintable(line) {
                        ctx.emit(
                            out,
                            "L001",
                            line,
                            format!(
                                "`for` loop over unordered `{}` — order can differ across runs",
                                toks[k].text
                            ),
                        );
                    }
                }
            }
        }
    }
}

/// Identifiers this file binds to a hash-based container, via `let`
/// initializers, type annotations, or struct field declarations.
fn unordered_bindings(toks: &[Tok]) -> Vec<String> {
    let mut found: Vec<String> = Vec::new();
    for (t, tok) in toks.iter().enumerate() {
        if !(tok.kind == TokKind::Ident && UNORDERED_TYPES.iter().any(|u| tok.is_ident(u))) {
            continue;
        }
        // Strip a `path::to::` prefix before the type name.
        let mut j = t;
        while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
            j -= 2;
            if j >= 1 && toks[j - 1].kind == TokKind::Ident {
                j -= 1;
            }
        }
        // Skip reference sigils in `&mut HashMap`, `&'a HashMap`.
        while j >= 1
            && (toks[j - 1].is_punct('&')
                || toks[j - 1].is_ident("mut")
                || toks[j - 1].kind == TokKind::Lifetime)
        {
            j -= 1;
        }
        // `<id> : HashMap<…>` — annotation or struct field (a single `:`;
        // a double `::` would still be a path prefix).
        if j >= 2 && toks[j - 1].is_punct(':') && !toks[j - 2].is_punct(':') {
            if toks[j - 2].kind == TokKind::Ident && !toks[j - 2].is_ident("fn") {
                push_unique(&mut found, &toks[j - 2].text);
            }
            continue;
        }
        // Otherwise look back for `let [mut] <id> … = … HashMap…` in the
        // same statement.
        let mut back = t;
        let mut steps = 0;
        while back > 0 && steps < 40 {
            back -= 1;
            steps += 1;
            let tk = &toks[back];
            if tk.is_punct(';') || tk.is_punct('{') || tk.is_punct('}') {
                break;
            }
            if tk.is_ident("let") {
                let mut id = back + 1;
                if id < toks.len() && toks[id].is_ident("mut") {
                    id += 1;
                }
                if id < toks.len() && toks[id].kind == TokKind::Ident {
                    push_unique(&mut found, &toks[id].text);
                }
                break;
            }
        }
    }
    found
}

fn push_unique(list: &mut Vec<String>, item: &str) {
    if !list.iter().any(|x| x == item) {
        list.push(item.to_string());
    }
}

/// Whether the statement containing the call that opens at `open_paren`
/// ends in an order-insensitive consumer (see [`ORDER_INSENSITIVE`]).
fn statement_is_order_insensitive(toks: &[Tok], open_paren: usize) -> bool {
    let mut depth = 0i32;
    for tok in toks.iter().skip(open_paren).take(120) {
        if tok.is_punct('(') || tok.is_punct('[') {
            depth += 1;
        } else if tok.is_punct(')') || tok.is_punct(']') {
            depth -= 1;
        } else if tok.is_punct(';') && depth <= 0 {
            break;
        }
        if tok.kind == TokKind::Ident && ORDER_INSENSITIVE.iter().any(|m| tok.is_ident(m)) {
            return true;
        }
    }
    false
}

/// L002: wall-clock reads (`Instant::now`, `SystemTime`) outside test
/// code. Timing belongs in documented, strippable record fields;
/// legitimate uses carry a `lint:allow(L002, …)` naming the field.
fn rule_l002(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if toks[i].is_ident("Instant")
            && i + 3 < toks.len()
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now")
            && ctx.lintable(toks[i].line)
        {
            ctx.emit(
                out,
                "L002",
                toks[i].line,
                "`Instant::now` in a result-record path — timing must flow into a documented \
                 timing field that byte-stability comparisons strip"
                    .to_string(),
            );
        }
        if toks[i].is_ident("SystemTime") && ctx.lintable(toks[i].line) {
            ctx.emit(
                out,
                "L002",
                toks[i].line,
                "`SystemTime` in a result-record path — wall-clock timestamps break replay \
                 and golden records"
                    .to_string(),
            );
        }
    }
}

/// L003: `unwrap()` or `expect("")` in library code (tests, benches,
/// examples and the `crates/bench` harness are exempt).
fn rule_l003(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if ctx.input.kind != FileKind::Library || ctx.input.path.starts_with("crates/bench/") {
        return;
    }
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        if i + 3 < toks.len()
            && toks[i + 1].is_ident("unwrap")
            && toks[i + 2].is_punct('(')
            && toks[i + 3].is_punct(')')
            && !ctx.in_test_code(toks[i + 1].line)
        {
            ctx.emit(
                out,
                "L003",
                toks[i + 1].line,
                "`unwrap()` in library code — state the invariant with \
                 `expect(\"<invariant>\")` or return an error"
                    .to_string(),
            );
        }
        if i + 4 < toks.len()
            && toks[i + 1].is_ident("expect")
            && toks[i + 2].is_punct('(')
            && toks[i + 3].kind == TokKind::Str
            && toks[i + 3].text.is_empty()
            && toks[i + 4].is_punct(')')
            && !ctx.in_test_code(toks[i + 1].line)
        {
            ctx.emit(
                out,
                "L003",
                toks[i + 1].line,
                "`expect(\"\")` with an empty message — state the violated invariant".to_string(),
            );
        }
    }
}

/// L004: crate roots must carry both `#![forbid(unsafe_code)]` and
/// `#![deny(missing_docs)]`.
fn rule_l004(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    if !ctx.input.crate_root {
        return;
    }
    for (attr, arg) in [("forbid", "unsafe_code"), ("deny", "missing_docs")] {
        if !has_inner_attr(ctx.toks, attr, arg) {
            ctx.emit(
                out,
                "L004",
                1,
                format!("crate root is missing `#![{attr}({arg})]`"),
            );
        }
    }
}

fn has_inner_attr(toks: &[Tok], attr: &str, arg: &str) -> bool {
    toks.windows(7).any(|w| {
        w[0].is_punct('#')
            && w[1].is_punct('!')
            && w[2].is_punct('[')
            && w[3].is_ident(attr)
            && w[4].is_punct('(')
            && w[5].is_ident(arg)
            && w[6].is_punct(')')
    })
}

const FORMAT_MACROS: &[&str] = &[
    "format", "write", "writeln", "print", "println", "eprint", "eprintln",
];

/// L006: a `format!`-family call whose literal looks like JSON (contains
/// a `":` key separator) and whose arguments show float evidence
/// (`as f64`, `.as_f64()`, a float literal, `f64::`/`f32::`). Float
/// text must go through the canonical `Json` encoder so `1` vs `1.0`
/// never depends on the call site.
fn rule_l006(ctx: &Ctx<'_>, out: &mut Vec<Finding>) {
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !(toks[i].kind == TokKind::Ident
            && FORMAT_MACROS.iter().any(|m| toks[i].is_ident(m))
            && i + 2 < toks.len()
            && toks[i + 1].is_punct('!')
            && toks[i + 2].is_punct('('))
        {
            continue;
        }
        let Some(close) = matching(toks, i + 2, '(', ')') else {
            continue;
        };
        let call = &toks[i + 3..close];
        let Some(fmt) = call.iter().find(|t| t.kind == TokKind::Str) else {
            continue;
        };
        if !fmt.text.contains("\":") {
            continue;
        }
        let float_evidence = call
            .windows(2)
            .any(|w| w[0].is_ident("as") && (w[1].is_ident("f64") || w[1].is_ident("f32")))
            || call.iter().any(|t| {
                t.is_ident("as_f64")
                    || t.is_ident("as_f32")
                    || (t.kind == TokKind::Num && t.text.contains('.'))
            })
            || call.windows(3).any(|w| {
                (w[0].is_ident("f64") || w[0].is_ident("f32"))
                    && w[1].is_punct(':')
                    && w[2].is_punct(':')
            });
        if float_evidence && ctx.lintable(fmt.line) {
            ctx.emit(
                out,
                "L006",
                fmt.line,
                "float formatted into JSON text with `{}`/`{:?}` — route it through the \
                 canonical `Json` encoder so float rendering is defined in exactly one place"
                    .to_string(),
            );
        }
    }
}

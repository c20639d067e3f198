//! The traced run's span recorder.
//!
//! Spans are opened by the benchmark around its calls into each layer and
//! kept in memory as `(name, start, end, parent, op)`; they are written out
//! when the run ends. Every span belongs to one root: an `op` root wraps one
//! traced op, a `probe` root wraps the probes run after it (same op id).
//! A span's self time is its duration minus its direct children's.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::measure::{elapsed_ns, median};

/// One closed span.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// Span name (a layer boundary, e.g. `space.expand`).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Index of the root span this span belongs to (itself for a root).
    pub root: usize,
    /// The op this span was recorded for.
    pub op: u64,
}

impl SpanRecord {
    /// The span's wall time in nanoseconds.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    stack: Vec<usize>,
    op: u64,
    root_refs: BTreeMap<usize, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer.
    #[must_use]
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            root_refs: BTreeMap::new(),
        }
    }

    /// Runs `f` under a new root span for op `op`; returns its result and
    /// the root's index.
    ///
    /// # Panics
    ///
    /// Panics if called inside another span.
    pub fn root<T>(
        &mut self,
        name: &'static str,
        op: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, usize) {
        assert!(self.stack.is_empty(), "root spans do not nest");
        self.op = op;
        let id = self.spans.len();
        (self.span(name, f), id)
    }

    /// Runs `f` under a child span of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = elapsed_ns(self.epoch);
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            root: self.stack.first().copied().unwrap_or(id),
            op: self.op,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = elapsed_ns(self.epoch);
        out
    }

    /// Records the adjacent reference time of a root span.
    pub fn set_root_ref(&mut self, root: usize, ref_ns: f64) {
        self.root_refs.insert(root, ref_ns);
    }

    /// All spans, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// The spans of `root`'s tree (contiguous: roots never interleave).
    fn tree(&self, root: usize) -> &[SpanRecord] {
        let end = self.spans[root..]
            .iter()
            .position(|s| s.root != root)
            .map_or(self.spans.len(), |k| root + k);
        &self.spans[root..end]
    }

    /// Self time of every span of `root`'s tree, in tree order.
    fn tree_self_ns(&self, root: usize) -> Vec<u64> {
        let tree = self.tree(root);
        let mut covered = vec![0u64; tree.len()];
        for s in tree {
            if let Some(p) = s.parent {
                covered[p - root] += s.duration_ns();
            }
        }
        tree.iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns().saturating_sub(c))
            .collect()
    }

    /// Self time per span name within `root`'s tree, in nanoseconds.
    #[must_use]
    pub fn self_by_name(&self, root: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.tree(root).iter().zip(self.tree_self_ns(root)) {
            *out.entry(s.name).or_insert(0) += ns;
        }
        out
    }

    /// Share of `root`'s duration that no child span covers.
    #[must_use]
    pub fn unattributed_frac(&self, root: usize) -> f64 {
        let own = self.tree_self_ns(root)[0];
        own as f64 / self.spans[root].duration_ns().max(1) as f64
    }

    /// Checks that every span lies within its parent and carries its
    /// parent's op id.
    ///
    /// # Errors
    ///
    /// Describes the first span that escapes its parent.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            let Some(p) = s.parent else {
                if s.root != i {
                    return Err(format!("root span {i} ({}) names another root", s.name));
                }
                continue;
            };
            let parent = &self.spans[p];
            if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns || s.op != parent.op {
                return Err(format!(
                    "span {i} ({}) escapes its parent {p} ({})",
                    s.name, parent.name
                ));
            }
        }
        Ok(())
    }

    /// The spans as JSON lines: `id`, `name`, `op`, `root`, `parent`,
    /// `start_ns`, `end_ns`, and `ref_ns` on roots.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"root\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}",
                s.name, s.op, s.root, s.start_ns, s.end_ns
            );
            if let Some(r) = self.root_refs.get(&i) {
                let _ = write!(out, ",\"ref_ns\":{r}");
            }
            out.push_str("}\n");
        }
        out
    }

    /// Self-time table: per (root, span) name, the calls, the mean self
    /// time per root in ms, and the median self time per root in
    /// reference units.
    #[must_use]
    pub fn self_time_table(&self) -> String {
        type Key = (&'static str, &'static str);
        let mut calls: BTreeMap<Key, u64> = BTreeMap::new();
        let mut per_root: BTreeMap<Key, Vec<(u64, f64)>> = BTreeMap::new();
        let mut roots: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (root, r) in self.spans.iter().enumerate().filter(|(i, s)| s.root == *i) {
            *roots.entry(r.name).or_insert(0) += 1;
            let ref_ns = self.root_refs.get(&root).copied().unwrap_or(f64::NAN);
            for s in self.tree(root) {
                *calls.entry((r.name, s.name)).or_insert(0) += 1;
            }
            for (name, ns) in self.self_by_name(root) {
                per_root
                    .entry((r.name, name))
                    .or_default()
                    .push((ns, ns as f64 / ref_ns));
            }
        }
        let mut out = format!(
            "{:<8} {:<28} {:>8} {:>14} {:>14}\n",
            "root", "span", "calls", "self ms/root", "self ref/root"
        );
        for (key, samples) in &per_root {
            let n = roots.get(key.0).copied().unwrap_or(1).max(1) as f64;
            let ms = samples.iter().map(|(ns, _)| *ns as f64).sum::<f64>() / n / 1e6;
            let refs: Vec<f64> = samples.iter().map(|(_, r)| *r).collect();
            let _ = writeln!(
                out,
                "{:<8} {:<28} {:>8} {:>14.4} {:>14.4}",
                key.0,
                key.1,
                calls.get(key).copied().unwrap_or(0),
                ms,
                median(&refs)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let ((), root) = t.root("op", 0, |t| {
            t.span("a", |t| {
                t.span("b", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        t.check_nesting().expect("nested");
        let by = t.self_by_name(root);
        assert!(by["b"] >= 2_000_000);
        assert!(by["a"] < by["b"]);
        assert!(t.unattributed_frac(root) < 0.5);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }
}

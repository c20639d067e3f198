//! Timing primitives: the reference kernel every sample is paired with,
//! quantiles, the seeded generator, and process accounting.

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Processes of the kernel's synthetic model.
const LANES: usize = 4;

/// Successor states computed per reference run (a few milliseconds on a
/// current server core).
const APPLIES: usize = 5000;

/// A hasher with fixed keys, so the kernel's work is the same in every run.
type FixedHasher = BuildHasherDefault<DefaultHasher>;

/// A state of the kernel's synthetic round-based model: each process keeps
/// the sorted set of values it has heard of.
#[derive(Clone, PartialEq, Eq, Hash)]
struct KernelState {
    round: u8,
    inputs: Vec<u8>,
    views: Vec<Vec<u8>>,
    decided: Vec<Option<u8>>,
}

/// The state after one round in which process `j` loses its messages to
/// the processes in `lost_mask`.
fn kernel_step(x: &KernelState, j: usize, lost_mask: usize) -> KernelState {
    let lost: HashSet<usize, FixedHasher> =
        (0..LANES).filter(|p| (lost_mask >> p) & 1 == 1).collect();
    let mut views = Vec::with_capacity(LANES);
    let mut decided = x.decided.clone();
    for (to, decision) in decided.iter_mut().enumerate() {
        let received: Vec<Option<u8>> = (0..LANES)
            .map(|from| {
                let msg = x.views[from].iter().copied().min().unwrap_or(u8::MAX);
                (from == to || from != j || !lost.contains(&to)).then_some(msg)
            })
            .collect();
        let mut view = x.views[to].clone();
        for &m in received.iter().flatten() {
            if !view.contains(&m) {
                view.push(m);
            }
        }
        view.sort_unstable();
        if decision.is_none() && x.round >= 1 {
            *decision = view.first().copied();
        }
        views.push(view);
    }
    KernelState {
        round: x.round + 1,
        inputs: x.inputs.clone(),
        views,
        decided,
    }
}

/// The kernel's fixed work: expands the synthetic model breadth-first from
/// every input vector, interning each successor, until [`APPLIES`]
/// successors have been computed. Returns the number of states interned.
fn kernel_expand() -> usize {
    let mut index: HashMap<KernelState, u32, FixedHasher> = HashMap::default();
    let mut queue = VecDeque::new();
    for v in 0..(1u8 << LANES) {
        let inputs: Vec<u8> = (0..LANES).map(|i| (v >> i) & 1).collect();
        let x = KernelState {
            round: 0,
            views: inputs.iter().map(|&b| vec![b]).collect(),
            inputs,
            decided: vec![None; LANES],
        };
        let next = index.len() as u32;
        index.insert(x.clone(), next);
        queue.push_back(x);
    }
    let mut applies = 0;
    while let Some(x) = queue.pop_front() {
        let mut layer: HashSet<KernelState, FixedHasher> = HashSet::default();
        for j in 0..LANES {
            for lost_mask in 0..(1usize << LANES) {
                let y = kernel_step(&x, j, lost_mask);
                applies += 1;
                if layer.insert(y.clone()) {
                    let next = index.len() as u32;
                    if let Entry::Vacant(slot) = index.entry(y.clone()) {
                        slot.insert(next);
                        queue.push_back(y);
                    }
                }
                if applies == APPLIES {
                    return index.len();
                }
            }
        }
    }
    index.len()
}

/// Runs the reference kernel once and returns its wall time in nanoseconds.
///
/// The kernel is a fixed CPU workload that looks like the engine: it
/// expands a small synthetic round-based model breadth-first, computing
/// each successor from small heap-allocated views, deduplicating each layer
/// in a hash set and interning states in a hash map. Its work is constant,
/// so its time tracks only the host.
///
/// It mirrors the engine's allocation and hashing rather than a tight
/// integer loop: on a shared host, a cache-resident hash-and-probe loop
/// slowed less than the engine under contention, so the ratio drifted with
/// the neighbours (scan-full's median ratio ranged 18% across eight runs
/// against the engine-like kernel's 7%).
///
/// The kernel is part of the benchmark's definition: changing it changes
/// every `_ref` figure, so it stays as it is.
#[must_use]
pub fn reference_ns() -> u64 {
    time(kernel_expand).1
}

/// Times `f`, returning its result and wall time in nanoseconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, elapsed_ns(start))
}

/// Nanoseconds since `start`.
#[must_use]
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Pairs every timed sample with the reference kernel run immediately
/// before and after it.
pub struct Sampler {
    /// Every reference time so far; never empty.
    refs: Vec<u64>,
}

impl Sampler {
    /// Runs the kernel once, so the first sample has a reference before it.
    #[must_use]
    pub fn start() -> Self {
        Sampler {
            refs: vec![reference_ns()],
        }
    }

    /// The most recent reference time, in nanoseconds.
    #[must_use]
    pub fn last_ref(&self) -> u64 {
        *self
            .refs
            .last()
            .expect("a sampler starts with a reference run")
    }

    /// Runs the reference kernel and records its time.
    pub fn run_ref(&mut self) -> u64 {
        let ns = reference_ns();
        self.refs.push(ns);
        ns
    }

    /// Times `f` between two reference runs: returns its result, its time,
    /// and the adjacent reference time (mean of the runs before and after).
    pub fn paired<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64, f64) {
        let before = self.last_ref();
        let (out, ns) = time(f);
        let after = self.run_ref();
        (out, ns, adjacent(before, after))
    }

    /// Every reference time recorded so far, in nanoseconds.
    #[must_use]
    pub fn refs(&self) -> &[u64] {
        &self.refs
    }
}

/// The reference time adjacent to a sample: the mean of its neighbours.
#[must_use]
pub fn adjacent(before: u64, after: u64) -> f64 {
    (before as f64 + after as f64) / 2.0
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by linear interpolation between
/// order statistics; `NaN` when empty.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The splitmix64 finalizer.
#[must_use]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded generator for route and experiment orders.
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.state)
    }

    /// Fisher–Yates shuffle of `items`.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User plus system CPU time of the whole process, in milliseconds.
#[must_use]
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them, in clock ticks of 1/100 s.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: f64 = fields.get(11)?.parse().ok()?;
    let stime: f64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// States one kernel run interns; a different count means the kernel,
    /// and with it every `_ref` figure, changed.
    const KERNEL_INTERNED: usize = 144;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn kernel_work_is_fixed() {
        assert_eq!(kernel_expand(), KERNEL_INTERNED);
        assert_eq!(kernel_expand(), KERNEL_INTERNED);
    }

    #[test]
    fn shuffle_is_seeded() {
        let mut a: Vec<u32> = (0..16).collect();
        let mut b = a.clone();
        SplitMix64::new(7).shuffle(&mut a);
        SplitMix64::new(7).shuffle(&mut b);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..16).collect();
        SplitMix64::new(8).shuffle(&mut c);
        assert_ne!(a, c);
    }
}

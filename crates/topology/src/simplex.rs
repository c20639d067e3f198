//! Vertices, simplexes, and complexes (Section 7 of the paper).
//!
//! A *vertex* is a pair `⟨i, v⟩` of a process id and a value; a *simplex*
//! is a set of vertices with distinct process ids; a *complex* is a set of
//! simplexes closed under containment. A `k`-size simplex has `k` vertices;
//! in an `n`-size complex the maximal simplexes have `n` elements.

use std::collections::BTreeMap;
use std::fmt;

use layered_core::{Pid, Value};

/// A simplex: an assignment of values to a set of distinct processes.
///
/// # Examples
///
/// ```
/// use layered_core::{Pid, Value};
/// use layered_topology::Simplex;
///
/// let s = Simplex::from_pairs([(Pid::new(0), Value::ZERO), (Pid::new(2), Value::ONE)]);
/// assert_eq!(s.size(), 2);
/// assert!(s.contains_vertex(Pid::new(0), Value::ZERO));
/// ```
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Simplex {
    vertices: BTreeMap<Pid, Value>,
}

impl Simplex {
    /// The empty simplex.
    #[must_use]
    pub fn new() -> Self {
        Simplex::default()
    }

    /// A simplex from (process, value) pairs.
    ///
    /// # Panics
    ///
    /// Panics if a process id appears twice (vertices of a simplex carry
    /// distinct process ids).
    pub fn from_pairs<I: IntoIterator<Item = (Pid, Value)>>(pairs: I) -> Self {
        let mut vertices = BTreeMap::new();
        for (p, v) in pairs {
            assert!(
                vertices.insert(p, v).is_none(),
                "duplicate process id in simplex"
            );
        }
        Simplex { vertices }
    }

    /// The full simplex assigning `values[i]` to process `i`.
    #[must_use]
    pub fn full(values: &[Value]) -> Self {
        Simplex::from_pairs(values.iter().enumerate().map(|(i, &v)| (Pid::new(i), v)))
    }

    /// Number of vertices.
    #[must_use]
    pub fn size(&self) -> usize {
        self.vertices.len()
    }

    /// Whether the simplex has no vertices.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The value assigned to `p`, if any.
    #[must_use]
    pub fn value_of(&self, p: Pid) -> Option<Value> {
        self.vertices.get(&p).copied()
    }

    /// Whether `⟨p, v⟩` is a vertex of the simplex.
    #[must_use]
    pub fn contains_vertex(&self, p: Pid, v: Value) -> bool {
        self.value_of(p) == Some(v)
    }

    /// Whether `self ⊆ other` (every vertex of `self` is a vertex of
    /// `other`).
    #[must_use]
    pub fn is_face_of(&self, other: &Simplex) -> bool {
        self.vertices
            .iter()
            .all(|(p, v)| other.vertices.get(p) == Some(v))
    }

    /// The intersection of two simplexes (the common vertices).
    #[must_use]
    pub fn intersection(&self, other: &Simplex) -> Simplex {
        Simplex {
            vertices: self
                .vertices
                .iter()
                .filter(|(p, v)| other.vertices.get(p) == Some(v))
                .map(|(&p, &v)| (p, v))
                .collect(),
        }
    }

    /// Iterates over the vertices in process order.
    pub fn vertices(&self) -> impl Iterator<Item = (Pid, Value)> + '_ {
        self.vertices.iter().map(|(&p, &v)| (p, v))
    }

    /// The set of distinct values appearing in the simplex.
    #[must_use]
    pub fn values(&self) -> std::collections::BTreeSet<Value> {
        self.vertices.values().copied().collect()
    }

    /// The process ids of the simplex.
    #[must_use]
    pub fn processes(&self) -> Vec<Pid> {
        self.vertices.keys().copied().collect()
    }
}

impl fmt::Display for Simplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (p, v)) in self.vertices.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "⟨{p},{v}⟩")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn px(i: usize) -> Pid {
        Pid::new(i)
    }

    #[test]
    fn construction_and_access() {
        let s = Simplex::full(&[Value::ZERO, Value::ONE]);
        assert_eq!(s.size(), 2);
        assert_eq!(s.value_of(px(0)), Some(Value::ZERO));
        assert_eq!(s.value_of(px(5)), None);
        assert_eq!(s.values().len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate process id")]
    fn duplicate_pid_rejected() {
        let _ = Simplex::from_pairs([(px(0), Value::ZERO), (px(0), Value::ONE)]);
    }

    #[test]
    fn face_relation() {
        let big = Simplex::full(&[Value::ZERO, Value::ONE, Value::ONE]);
        let face = Simplex::from_pairs([(px(1), Value::ONE)]);
        assert!(face.is_face_of(&big));
        assert!(Simplex::new().is_face_of(&big));
        let not_face = Simplex::from_pairs([(px(1), Value::ZERO)]);
        assert!(!not_face.is_face_of(&big));
    }

    #[test]
    fn intersection_keeps_common_vertices() {
        let a = Simplex::full(&[Value::ZERO, Value::ONE, Value::ZERO]);
        let b = Simplex::full(&[Value::ZERO, Value::ZERO, Value::ZERO]);
        let i = a.intersection(&b);
        assert_eq!(i.size(), 2);
        assert!(i.contains_vertex(px(0), Value::ZERO));
        assert!(i.contains_vertex(px(2), Value::ZERO));
        assert_eq!(i.value_of(px(1)), None);
    }

    #[test]
    fn display_is_readable() {
        let s = Simplex::from_pairs([(px(0), Value::ONE)]);
        assert_eq!(s.to_string(), "{⟨p1,1⟩}");
    }
}

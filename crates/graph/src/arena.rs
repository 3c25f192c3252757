//! Arena storage for path sets.
//!
//! Algorithms that juggle many paths at once (Yen's candidate pool, CG
//! column stores, per-request route sets) pay one heap allocation per
//! path when each is a `Vec<EdgeId>`. A [`PathArena`] packs all of them
//! into one flat edge slab addressed by `(start, len)` spans, so growing
//! the working set is an amortized slab append and every lookup is a
//! contiguous slice borrow.

use crate::graph::EdgeId;
use crate::path::Path;

/// Handle to a path stored in a [`PathArena`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The dense index of this path within its arena.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A flat slab of edge sequences: one contiguous `Vec<EdgeId>` plus
/// `(start, len)` spans per stored path.
///
/// Paths are immutable once pushed and live until [`PathArena::clear`];
/// the slab never shrinks, so a cleared arena reuses its capacity on the
/// next round.
#[derive(Clone, Debug, Default)]
pub struct PathArena {
    slab: Vec<EdgeId>,
    spans: Vec<(u32, u32)>,
}

impl PathArena {
    /// An empty arena.
    pub fn new() -> Self {
        PathArena::default()
    }

    /// An empty arena with room for `edges` total edges reserved.
    pub fn with_capacity(edges: usize) -> Self {
        PathArena {
            slab: Vec::with_capacity(edges),
            spans: Vec::new(),
        }
    }

    /// Number of paths stored.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no paths.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total number of edges across all stored paths.
    pub fn edge_total(&self) -> usize {
        self.slab.len()
    }

    /// Drops all paths, keeping the slab capacity for reuse.
    pub fn clear(&mut self) {
        self.slab.clear();
        self.spans.clear();
    }

    /// Copies an edge sequence into the arena, returning its handle.
    pub fn push(&mut self, edges: &[EdgeId]) -> PathId {
        self.push_concat(edges, &[])
    }

    /// Copies the concatenation `prefix ++ suffix` into the arena as one
    /// path — the Yen spur case (root prefix + spur suffix) without an
    /// intermediate buffer.
    pub fn push_concat(&mut self, prefix: &[EdgeId], suffix: &[EdgeId]) -> PathId {
        let start = u32::try_from(self.slab.len()).expect("path arena slab exceeds u32 range");
        let len = u32::try_from(prefix.len() + suffix.len()).expect("path length exceeds u32");
        self.slab.extend_from_slice(prefix);
        self.slab.extend_from_slice(suffix);
        let id = PathId(u32::try_from(self.spans.len()).expect("path count exceeds u32"));
        self.spans.push((start, len));
        id
    }

    /// The edge sequence of a stored path.
    pub fn get(&self, id: PathId) -> &[EdgeId] {
        let (start, len) = self.spans[id.index()];
        &self.slab[start as usize..(start + len) as usize]
    }

    /// Materializes a stored path as an owned [`Path`].
    pub fn to_path(&self, id: PathId) -> Path {
        Path::new(self.get(id).to_vec())
    }

    /// Iterator over all stored path handles, in insertion order.
    pub fn ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.spans.len() as u32).map(PathId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EdgeId {
        EdgeId::new(i)
    }

    #[test]
    fn push_get_roundtrip() {
        let mut arena = PathArena::new();
        let a = arena.push(&[e(0), e(1)]);
        let b = arena.push(&[e(2)]);
        let empty = arena.push(&[]);
        assert_eq!(arena.get(a), &[e(0), e(1)]);
        assert_eq!(arena.get(b), &[e(2)]);
        assert_eq!(arena.get(empty), &[]);
        assert_eq!(arena.len(), 3);
        assert_eq!(arena.edge_total(), 3);
    }

    #[test]
    fn concat_joins_without_gap() {
        let mut arena = PathArena::new();
        let id = arena.push_concat(&[e(5), e(6)], &[e(7)]);
        assert_eq!(arena.get(id), &[e(5), e(6), e(7)]);
        assert_eq!(arena.to_path(id).edges(), &[e(5), e(6), e(7)]);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut arena = PathArena::new();
        for i in 0..100 {
            arena.push(&[e(i)]);
        }
        let cap = arena.slab.capacity();
        arena.clear();
        assert!(arena.is_empty());
        assert_eq!(arena.edge_total(), 0);
        assert_eq!(arena.slab.capacity(), cap);
        let id = arena.push(&[e(9)]);
        assert_eq!(id.index(), 0);
    }

    #[test]
    fn ids_iterate_in_insertion_order() {
        let mut arena = PathArena::new();
        let a = arena.push(&[e(0)]);
        let b = arena.push(&[e(1)]);
        let got: Vec<PathId> = arena.ids().collect();
        assert_eq!(got, vec![a, b]);
    }
}

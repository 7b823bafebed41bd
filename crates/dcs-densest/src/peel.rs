//! Priority structures for greedy peeling.
//!
//! Greedy peeling repeatedly removes the vertex of minimum *current* weighted degree and
//! must update the degrees of its neighbors.  The paper suggests a segment tree; the
//! production peel uses an [`IndexedHeap`] — a 4-ary min-heap with one slot per queued
//! vertex and a position index, so a degree change sifts the vertex in place (up or
//! down: negative edges can *raise* a degree) and no stale entries ever pile up.  It
//! has the same `O((n + m) log n)` complexity as the lazy binary heap
//! ([`LazyHeapQueue`], kept for the quasi-clique peel and as the reference the peel
//! property tests compare against) with a considerably smaller constant.  A naive
//! `O(n)`-per-extraction re-scan implementation is provided for the ablation
//! benchmark `bench_peeling`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use dcs_graph::{VertexId, Weight};

/// Lazy-heap entry: (current degree, vertex, version at insertion time).
#[derive(Debug, Clone, Copy)]
struct Entry {
    degree: Weight,
    vertex: VertexId,
    version: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.degree == other.degree && self.vertex == other.vertex
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want min-degree first, so reverse the comparison.
        other
            .degree
            .partial_cmp(&self.degree)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.vertex.cmp(&self.vertex))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable scratch state of a greedy peel: the indexed heap (which owns the current
/// degrees), the alive array, the removal order and the best-prefix marks.
///
/// A peel allocates all of this on first use and a **reused** workspace performs no
/// heap allocation at all in steady state (every `Vec` keeps its capacity across
/// internal resets).  One workspace serves any number of sequential peels of graphs
/// of any size; it is the peel-shaped slice of `dcs_core`'s `SolverWorkspace`.
#[derive(Debug, Clone, Default)]
pub struct PeelWorkspace {
    pub(crate) heap: IndexedHeap,
    pub(crate) alive: Vec<bool>,
    pub(crate) removal_order: Vec<VertexId>,
    pub(crate) in_best: Vec<bool>,
    /// Per-chunk partial sums of the initial degrees (see
    /// [`crate::charikar::DEGREE_CHUNK`]), folded in ascending chunk order.
    pub(crate) chunk_sums: Vec<Weight>,
}

impl PeelWorkspace {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> Self {
        PeelWorkspace::default()
    }

    /// Clears every buffer and re-sizes the per-vertex arrays for a universe of `n`
    /// vertices, keeping all allocated capacity.
    pub(crate) fn reset(&mut self, n: usize) {
        self.alive.clear();
        self.alive.resize(n, false);
        self.removal_order.clear();
        self.in_best.clear();
        self.in_best.resize(n, false);
        self.chunk_sums.clear();
    }

    /// The vertices removed by the most recent peel, in removal order — the surface
    /// the peel property tests compare across priority structures.
    pub fn removal_order(&self) -> &[VertexId] {
        &self.removal_order
    }
}

/// Common interface of the peeling priority structures.
pub trait MinDegreeQueue: Default {
    /// Creates the structure holding every vertex of `degrees` with that initial degree.
    fn from_degrees(degrees: &[Weight]) -> Self {
        let mut queue = Self::default();
        queue.rebuild(
            degrees.len(),
            degrees.iter().enumerate().map(|(v, &d)| (v as VertexId, d)),
        );
        queue
    }
    /// Re-initialises the structure over the vertex ids `0..n`, holding exactly the
    /// `(vertex, initial degree)` pairs of `queued` (each vertex at most once; the
    /// others count as already popped).  Implementations keep their allocated capacity.
    fn rebuild(&mut self, n: usize, queued: impl IntoIterator<Item = (VertexId, Weight)>);
    /// Removes and returns the alive vertex with the minimum current degree.
    fn pop_min(&mut self) -> Option<(VertexId, Weight)>;
    /// Adds `delta` to the current degree of `v` (no effect if `v` was already popped).
    fn adjust(&mut self, v: VertexId, delta: Weight);
    /// Number of vertices still alive.
    fn len(&self) -> usize;
    /// Returns `true` if no vertex is alive.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lazy binary-heap implementation of [`MinDegreeQueue`].
#[derive(Debug, Clone, Default)]
pub struct LazyHeapQueue {
    heap: BinaryHeap<Entry>,
    degree: Vec<Weight>,
    version: Vec<u32>,
    alive: Vec<bool>,
    alive_count: usize,
}

impl MinDegreeQueue for LazyHeapQueue {
    fn rebuild(&mut self, n: usize, queued: impl IntoIterator<Item = (VertexId, Weight)>) {
        self.heap.clear();
        self.heap.reserve(n);
        self.degree.clear();
        self.degree.resize(n, 0.0);
        self.version.clear();
        self.version.resize(n, 0);
        self.alive.clear();
        self.alive.resize(n, false);
        self.alive_count = 0;
        for (v, d) in queued {
            self.degree[v as usize] = d;
            self.alive[v as usize] = true;
            self.alive_count += 1;
            self.heap.push(Entry {
                degree: d,
                vertex: v,
                version: 0,
            });
        }
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        while let Some(entry) = self.heap.pop() {
            let v = entry.vertex as usize;
            if !self.alive[v] || entry.version != self.version[v] {
                continue; // stale entry
            }
            self.alive[v] = false;
            self.alive_count -= 1;
            return Some((entry.vertex, entry.degree));
        }
        None
    }

    fn adjust(&mut self, v: VertexId, delta: Weight) {
        let vi = v as usize;
        if !self.alive[vi] {
            return;
        }
        self.degree[vi] += delta;
        self.version[vi] += 1;
        self.heap.push(Entry {
            degree: self.degree[vi],
            vertex: v,
            version: self.version[vi],
        });
    }

    fn len(&self) -> usize {
        self.alive_count
    }
}

/// Indexed 4-ary min-heap implementation of [`MinDegreeQueue`] — the structure behind
/// the production peel.
///
/// Every queued vertex owns exactly one slot, and `pos[v]` records where it is, so
/// [`MinDegreeQueue::adjust`] rewrites the vertex's key in place and sifts it up or
/// down.  Keys are `(order-preserving bits of degree + 0.0, vertex id)`: adding `0.0`
/// folds `-0.0` into `0.0`, so the heap orders exactly like the lazy heap's
/// `partial_cmp` with the vertex-id tie-break and every peel removes vertices in the
/// same sequence.  [`MinDegreeQueue::rebuild`] keeps all capacity, so a reused heap
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct IndexedHeap {
    /// Heap-ordered `(key, vertex)` slots; `slots[0]` is the minimum.
    slots: Vec<(u64, VertexId)>,
    /// Slot index of each vertex, or [`NOT_QUEUED`] if it was popped or never queued.
    pos: Vec<u32>,
    /// Current degree of each queued vertex (the peel keeps no other degree array).
    degree: Vec<Weight>,
}

const ARITY: usize = 4;
const NOT_QUEUED: u32 = u32::MAX;

/// Maps a degree to a `u64` whose unsigned order is the float order of the degree,
/// with `-0.0` and `0.0` mapped to the same key.
#[inline]
fn degree_key(degree: Weight) -> u64 {
    debug_assert!(!degree.is_nan(), "peel degrees are never NaN");
    let bits = (degree + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

impl IndexedHeap {
    #[inline]
    fn place(&mut self, i: usize, item: (u64, VertexId)) {
        self.slots[i] = item;
        self.pos[item.1 as usize] = i as u32;
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.slots[i];
        while i > 0 {
            let parent = (i - 1) / ARITY;
            let above = self.slots[parent];
            if above <= item {
                break;
            }
            self.place(i, above);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.slots[i];
        let len = self.slots.len();
        loop {
            let first = ARITY * i + 1;
            if first >= len {
                break;
            }
            let mut child = first;
            let mut least = self.slots[first];
            for c in first + 1..(first + ARITY).min(len) {
                if self.slots[c] < least {
                    child = c;
                    least = self.slots[c];
                }
            }
            if item <= least {
                break;
            }
            self.place(i, least);
            i = child;
        }
        self.place(i, item);
    }
}

impl MinDegreeQueue for IndexedHeap {
    fn rebuild(&mut self, n: usize, queued: impl IntoIterator<Item = (VertexId, Weight)>) {
        self.degree.clear();
        self.degree.resize(n, 0.0);
        self.pos.clear();
        self.pos.resize(n, NOT_QUEUED);
        self.slots.clear();
        // One reservation up front (`queued` rarely knows its length); pages of
        // slots never written for masked-out vertices are never touched.
        self.slots.reserve(n);
        for (v, d) in queued {
            self.degree[v as usize] = d;
            self.pos[v as usize] = self.slots.len() as u32;
            self.slots.push((degree_key(d), v));
        }
        // Floyd's bottom-up heapify: sift down every internal slot, last first.
        for i in (0..self.slots.len().div_ceil(ARITY)).rev() {
            self.sift_down(i);
        }
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        let top = *self.slots.first()?;
        let last = self.slots.pop().expect("heap is non-empty");
        if !self.slots.is_empty() {
            self.place(0, last);
            self.sift_down(0);
        }
        let v = top.1 as usize;
        self.pos[v] = NOT_QUEUED;
        Some((top.1, self.degree[v]))
    }

    #[inline]
    fn adjust(&mut self, v: VertexId, delta: Weight) {
        let vi = v as usize;
        let i = self.pos[vi];
        if i == NOT_QUEUED {
            return;
        }
        let i = i as usize;
        self.degree[vi] += delta;
        let old = self.slots[i].0;
        let key = degree_key(self.degree[vi]);
        self.slots[i].0 = key;
        match key.cmp(&old) {
            Ordering::Less => self.sift_up(i),
            Ordering::Greater => self.sift_down(i),
            Ordering::Equal => {}
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }
}

/// Naive re-scan implementation of [`MinDegreeQueue`]: `pop_min` is `O(n)`.
///
/// Kept only as the baseline of the `bench_peeling` ablation; do not use for large
/// graphs.
#[derive(Debug, Clone, Default)]
pub struct RescanQueue {
    degree: Vec<Weight>,
    alive: Vec<bool>,
    alive_count: usize,
}

impl MinDegreeQueue for RescanQueue {
    fn rebuild(&mut self, n: usize, queued: impl IntoIterator<Item = (VertexId, Weight)>) {
        self.degree.clear();
        self.degree.resize(n, 0.0);
        self.alive.clear();
        self.alive.resize(n, false);
        self.alive_count = 0;
        for (v, d) in queued {
            self.degree[v as usize] = d;
            self.alive[v as usize] = true;
            self.alive_count += 1;
        }
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        let mut best: Option<(VertexId, Weight)> = None;
        for (v, &d) in self.degree.iter().enumerate() {
            if !self.alive[v] {
                continue;
            }
            match best {
                None => best = Some((v as VertexId, d)),
                Some((_, bd)) if d < bd => best = Some((v as VertexId, d)),
                _ => {}
            }
        }
        if let Some((v, _)) = best {
            self.alive[v as usize] = false;
            self.alive_count -= 1;
        }
        best
    }

    fn adjust(&mut self, v: VertexId, delta: Weight) {
        if self.alive[v as usize] {
            self.degree[v as usize] += delta;
        }
    }

    fn len(&self) -> usize {
        self.alive_count
    }
}

/// Segment-tree implementation of [`MinDegreeQueue`] — the structure suggested by the
/// paper for Algorithm 1.  `pop_min` and `adjust` are both `O(log n)` with a very small
/// constant; unlike the lazy heap it never accumulates stale entries, which makes it the
/// better choice when the number of `adjust` calls per removal is large (very dense
/// graphs).
#[derive(Debug, Clone, Default)]
pub struct SegmentTreeQueue {
    /// Number of leaves (padded to the next power of two).
    size: usize,
    /// `tree[i]` holds the (degree, vertex) minimum of the subtree rooted at `i`;
    /// removed vertices hold `f64::INFINITY`.
    tree: Vec<(Weight, VertexId)>,
    degree: Vec<Weight>,
    alive: Vec<bool>,
    alive_count: usize,
}

impl SegmentTreeQueue {
    fn update_leaf(&mut self, v: usize, value: Weight) {
        let mut i = self.size + v;
        self.tree[i] = (value, v as VertexId);
        while i > 1 {
            i /= 2;
            let left = self.tree[2 * i];
            let right = self.tree[2 * i + 1];
            self.tree[i] = if left.0 <= right.0 { left } else { right };
        }
    }
}

impl MinDegreeQueue for SegmentTreeQueue {
    fn rebuild(&mut self, n: usize, queued: impl IntoIterator<Item = (VertexId, Weight)>) {
        self.size = n.next_power_of_two().max(1);
        self.tree.clear();
        self.tree.resize(2 * self.size, (Weight::INFINITY, 0));
        self.degree.clear();
        self.degree.resize(n, 0.0);
        self.alive.clear();
        self.alive.resize(n, false);
        self.alive_count = 0;
        for (v, d) in queued {
            self.degree[v as usize] = d;
            self.alive[v as usize] = true;
            self.alive_count += 1;
            self.tree[self.size + v as usize] = (d, v);
        }
        for i in (1..self.size).rev() {
            let left = self.tree[2 * i];
            let right = self.tree[2 * i + 1];
            self.tree[i] = if left.0 <= right.0 { left } else { right };
        }
    }

    fn pop_min(&mut self) -> Option<(VertexId, Weight)> {
        if self.alive_count == 0 {
            return None;
        }
        let (degree, vertex) = self.tree[1];
        debug_assert!(
            degree.is_finite(),
            "alive vertices must have finite degrees"
        );
        self.alive[vertex as usize] = false;
        self.alive_count -= 1;
        self.update_leaf(vertex as usize, Weight::INFINITY);
        Some((vertex, degree))
    }

    fn adjust(&mut self, v: VertexId, delta: Weight) {
        let vi = v as usize;
        if !self.alive[vi] {
            return;
        }
        self.degree[vi] += delta;
        self.update_leaf(vi, self.degree[vi]);
    }

    fn len(&self) -> usize {
        self.alive_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise<Q: MinDegreeQueue>(degrees: &[Weight]) -> Vec<(VertexId, Weight)> {
        let mut q = Q::from_degrees(degrees);
        assert_eq!(q.len(), degrees.len());
        // Adjust vertex 0 upward and vertex 2 downward before popping.
        q.adjust(0, 10.0);
        q.adjust(2, -10.0);
        let mut order = Vec::new();
        while let Some(item) = q.pop_min() {
            order.push(item);
        }
        assert!(q.is_empty());
        order
    }

    #[test]
    fn heap_and_rescan_agree() {
        let degrees = vec![1.0, 5.0, 3.0, -2.0, 0.5];
        let a = exercise::<LazyHeapQueue>(&degrees);
        let b = exercise::<RescanQueue>(&degrees);
        assert_eq!(a, b);
        // After adjustments the degrees are [11, 5, -7, -2, 0.5] → popped ascending.
        let popped: Vec<VertexId> = a.iter().map(|(v, _)| *v).collect();
        assert_eq!(popped, vec![2, 3, 4, 1, 0]);
    }

    #[test]
    fn segment_tree_agrees_with_other_queues() {
        let degrees = vec![1.0, 5.0, 3.0, -2.0, 0.5, 7.25, 0.0];
        let a = exercise::<LazyHeapQueue>(&degrees);
        let c = exercise::<SegmentTreeQueue>(&degrees);
        // Popping order may differ on exact ties, but the multiset of (vertex, degree)
        // pairs and the sortedness by degree must match.
        let mut a_sorted = a.clone();
        let mut c_sorted = c.clone();
        a_sorted.sort_by_key(|x| x.0);
        c_sorted.sort_by_key(|x| x.0);
        assert_eq!(a_sorted, c_sorted);
        for pair in c.windows(2) {
            assert!(pair[0].1 <= pair[1].1 + 1e-12);
        }
    }

    #[test]
    fn segment_tree_pop_after_empty() {
        let mut q = SegmentTreeQueue::from_degrees(&[2.0]);
        assert_eq!(q.pop_min(), Some((0, 2.0)));
        assert_eq!(q.pop_min(), None);
        q.adjust(0, 5.0); // ignored: vertex already removed
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn segment_tree_adjust_changes_order() {
        let mut q = SegmentTreeQueue::from_degrees(&[1.0, 2.0, 3.0]);
        q.adjust(2, -5.0); // degree of 2 becomes -2 → must pop first
        assert_eq!(q.pop_min().unwrap().0, 2);
        assert_eq!(q.pop_min().unwrap().0, 0);
        assert_eq!(q.pop_min().unwrap().0, 1);
    }

    #[test]
    fn adjust_after_pop_is_ignored() {
        let mut q = LazyHeapQueue::from_degrees(&[1.0, 2.0]);
        let (v, _) = q.pop_min().unwrap();
        assert_eq!(v, 0);
        q.adjust(0, -100.0); // vertex 0 is gone; must not resurface
        let (v2, d2) = q.pop_min().unwrap();
        assert_eq!(v2, 1);
        assert_eq!(d2, 2.0);
        assert!(q.pop_min().is_none());
    }

    #[test]
    fn negative_degrees_supported() {
        let mut q = LazyHeapQueue::from_degrees(&[-5.0, -1.0, -3.0]);
        assert_eq!(q.pop_min().unwrap().0, 0);
        assert_eq!(q.pop_min().unwrap().0, 2);
        assert_eq!(q.pop_min().unwrap().0, 1);
    }
}

//! Property-based tests of the indexed-heap peel against the lazy-heap reference,
//! through the crate's **exported** API:
//!
//! * [`greedy_peeling_view_into`] (indexed 4-ary heap, in-place key changes) is
//!   **bit-identical** to [`greedy_peeling_view_with`] driven by [`LazyHeapQueue`]
//!   (binary heap with stale entries) — same best subset, same `average_degree`
//!   down to the last bit, the same vertex-by-vertex removal order — across random
//!   signed graphs on full, positive-filtered and masked views;
//! * exact degree ties (small integer weights) break by vertex id on both, and the
//!   queues order `-0.0` and `0.0` degrees as equal;
//! * a `stop` budget interrupts both at the same removal;
//! * one [`PeelWorkspace`] is reused across graphs of growing and shrinking size
//!   (the risky part: stale heap slots, positions or degrees leaking between peels).

use dcs_densest::peel::{IndexedHeap, LazyHeapQueue, MinDegreeQueue};
use dcs_densest::{greedy_peeling_view_into, greedy_peeling_view_with, PeelWorkspace};
use dcs_graph::{GraphBuilder, GraphView, SignedGraph, VertexMask};
use proptest::prelude::*;

/// Strategy: a random signed graph over `n < 48` vertices with real-valued weights
/// (signed, so the positive-filtered view differs from the full one).
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (4usize..48).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -8.0f64..8.0);
        (Just(n), proptest::collection::vec(edge, 0..160)).prop_map(|(n, edges)| build(n, edges))
    })
}

/// Strategy: a random signed graph whose weights come from a few small dyadic
/// values, so many vertices share exactly the same degree at every step and
/// degrees return to exactly zero.
fn arb_tied_graph() -> impl Strategy<Value = SignedGraph> {
    (2usize..40).prop_flat_map(|n| {
        let weight = prop::sample::select(vec![-2.0f64, -1.0, -0.5, 0.5, 1.0, 2.0]);
        let edge = (0..n as u32, 0..n as u32, weight);
        (Just(n), proptest::collection::vec(edge, 0..120)).prop_map(|(n, edges)| build(n, edges))
    })
}

fn build(n: usize, edges: Vec<(u32, u32, f64)>) -> SignedGraph {
    let mut b = GraphBuilder::new(n);
    for (u, v, w) in edges {
        if u != v && w != 0.0 {
            b.add_edge(u, v, w);
        }
    }
    b.build()
}

/// Peels `view` with the indexed heap and with the lazy-heap reference under the
/// same `budget` (`u64::MAX` = never stop), asserting full bit-identity.  The
/// workspaces come from the caller so reuse is exercised.
fn assert_matches_lazy_heap(
    view: GraphView<'_>,
    budget: u64,
    ws: &mut PeelWorkspace,
    reference_ws: &mut PeelWorkspace,
) -> Result<(), TestCaseError> {
    let mut used = 0u64;
    let (got, got_hit) = greedy_peeling_view_into(view, ws, |units| {
        used += units;
        used > budget
    });
    let mut reference_used = 0u64;
    let (want, want_hit) =
        greedy_peeling_view_with::<LazyHeapQueue, _>(view, reference_ws, |units| {
            reference_used += units;
            reference_used > budget
        });
    prop_assert_eq!(got_hit, want_hit);
    prop_assert_eq!(used, reference_used);
    prop_assert_eq!(ws.removal_order(), reference_ws.removal_order());
    prop_assert_eq!(&got.subset, &want.subset);
    prop_assert_eq!(got.average_degree.to_bits(), want.average_degree.to_bits());
    Ok(())
}

fn mask_out(g: &SignedGraph, holes: &[u32]) -> VertexMask {
    let mut mask = VertexMask::full(g.num_vertices());
    for &v in holes {
        if (v as usize) < g.num_vertices() {
            mask.remove(v);
        }
    }
    mask
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Indexed heap == lazy heap on the full view and on its positive part.
    #[test]
    fn indexed_heap_peel_matches_lazy_heap_on_full_views(g in arb_graph()) {
        let mut ws = PeelWorkspace::new();
        let mut reference_ws = PeelWorkspace::new();
        let view = GraphView::full(&g);
        assert_matches_lazy_heap(view, u64::MAX, &mut ws, &mut reference_ws)?;
        assert_matches_lazy_heap(view.positive_part(), u64::MAX, &mut ws, &mut reference_ws)?;
    }

    /// The same identity on masked views (vertices knocked out, as the top-k
    /// driver does) and on their positive part.
    #[test]
    fn indexed_heap_peel_matches_lazy_heap_on_masked_views(
        g in arb_graph(),
        holes in proptest::collection::vec(0u32..48, 0..24),
    ) {
        let mut ws = PeelWorkspace::new();
        let mut reference_ws = PeelWorkspace::new();
        let mask = mask_out(&g, &holes);
        let view = GraphView::masked(&g, &mask);
        assert_matches_lazy_heap(view, u64::MAX, &mut ws, &mut reference_ws)?;
        assert_matches_lazy_heap(view.positive_part(), u64::MAX, &mut ws, &mut reference_ws)?;
    }

    /// Exact degree ties everywhere: both peels break them by vertex id.
    #[test]
    fn exact_degree_ties_break_identically(
        g in arb_tied_graph(),
        holes in proptest::collection::vec(0u32..40, 0..8),
    ) {
        let mut ws = PeelWorkspace::new();
        let mut reference_ws = PeelWorkspace::new();
        let mask = mask_out(&g, &holes);
        for view in [GraphView::full(&g), GraphView::masked(&g, &mask)] {
            assert_matches_lazy_heap(view, u64::MAX, &mut ws, &mut reference_ws)?;
            assert_matches_lazy_heap(view.positive_part(), u64::MAX, &mut ws, &mut reference_ws)?;
        }
    }

    /// A `stop` budget interrupts both peels after the same number of removals and
    /// both report the interruption; the best-so-far prefix is still identical.
    #[test]
    fn interruption_trips_identically(
        g in arb_graph(),
        budget in 0u64..24,
        holes in proptest::collection::vec(0u32..48, 0..8),
    ) {
        let mut ws = PeelWorkspace::new();
        let mut reference_ws = PeelWorkspace::new();
        let mask = mask_out(&g, &holes);
        assert_matches_lazy_heap(GraphView::full(&g), budget, &mut ws, &mut reference_ws)?;
        assert_matches_lazy_heap(
            GraphView::masked(&g, &mask).positive_part(),
            budget,
            &mut ws,
            &mut reference_ws,
        )?;
    }

    /// One workspace pair serves a sequence of graphs whose vertex count grows and
    /// shrinks (down to a single vertex and the empty graph) with no leakage.
    #[test]
    fn one_workspace_serves_graphs_of_growing_and_shrinking_size(
        graphs in proptest::collection::vec(arb_graph(), 1..6),
        tiny in 0usize..2,
    ) {
        let mut ws = PeelWorkspace::new();
        let mut reference_ws = PeelWorkspace::new();
        let small = SignedGraph::empty(tiny);
        for g in graphs.iter().chain([&small]).chain(graphs.iter().rev()) {
            assert_matches_lazy_heap(GraphView::full(g), u64::MAX, &mut ws, &mut reference_ws)?;
        }
    }

    /// The queues themselves: the same pops (vertex and degree bits) from degree
    /// arrays full of ties and signed zeros under interleaved adjusts that raise
    /// and lower degrees.
    #[test]
    fn indexed_heap_pops_like_the_lazy_heap(
        degrees in proptest::collection::vec(
            prop::sample::select(vec![-1.0f64, -0.0, 0.0, 0.5, 1.0, 3.0]), 0..40),
        adjusts in proptest::collection::vec(
            (0u32..40, prop::sample::select(vec![-1.0f64, -0.5, 0.5, 1.0])), 0..80),
    ) {
        let mut heap = IndexedHeap::from_degrees(&degrees);
        let mut reference = LazyHeapQueue::from_degrees(&degrees);
        let n = degrees.len() as u32;
        for (step, &(v, delta)) in adjusts.iter().enumerate() {
            if n > 0 {
                heap.adjust(v % n, delta);
                reference.adjust(v % n, delta);
            }
            if step % 3 == 0 {
                let got = heap.pop_min().map(|(v, d)| (v, d.to_bits()));
                let want = reference.pop_min().map(|(v, d)| (v, d.to_bits()));
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(heap.len(), reference.len());
        }
        while let Some((v, d)) = reference.pop_min() {
            prop_assert_eq!(heap.pop_min().map(|(v, d)| (v, d.to_bits())), Some((v, d.to_bits())));
        }
        prop_assert!(heap.pop_min().is_none());
    }
}

/// `-0.0` and `0.0` are one key: the tie between them breaks by vertex id alone,
/// whichever of the two carries the negative sign.
#[test]
fn signed_zero_degrees_tie_by_vertex_id() {
    for degrees in [[-0.0, 0.0, -0.0], [0.0, -0.0, 0.0]] {
        let mut heap = IndexedHeap::from_degrees(&degrees);
        let popped: Vec<u32> = std::iter::from_fn(|| heap.pop_min().map(|(v, _)| v)).collect();
        assert_eq!(popped, vec![0, 1, 2]);
    }
    // A key change onto the other zero does not move the vertex past a lower id.
    let mut heap = IndexedHeap::from_degrees(&[1.0, 0.0, 0.0]);
    heap.adjust(0, -1.0);
    assert_eq!(heap.pop_min().map(|(v, _)| v), Some(0));
}

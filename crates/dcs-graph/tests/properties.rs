//! Property-based tests for the graph substrate.

use dcs_graph::{connected_components, core_decomposition, DeltaGraph, GraphBuilder, SignedGraph};
use proptest::prelude::*;

/// Strategy: a random edge list over `n <= 24` vertices with signed weights.
fn arb_graph() -> impl Strategy<Value = SignedGraph> {
    (2usize..24).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -5.0f64..5.0f64);
        (Just(n), proptest::collection::vec(edge, 0..80)).prop_map(|(n, edges)| build(n, edges))
    })
}

/// Strategy: like [`arb_graph`] half the time; otherwise weights come from
/// {−2, −1, 1, 2}, so several edges share the maximum weight.
fn arb_graph_with_ties() -> impl Strategy<Value = SignedGraph> {
    let tied = (2usize..24).prop_flat_map(|n| {
        let weight = prop::sample::select(vec![-2.0f64, -1.0, 1.0, 2.0]);
        let edge = (0..n as u32, 0..n as u32, weight);
        (Just(n), proptest::collection::vec(edge, 0..80)).prop_map(|(n, edges)| build(n, edges))
    });
    prop_oneof![arb_graph(), tied]
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

/// The max-weight-edge oracle: a fold over `g.edges()` in which only a strictly
/// greater weight replaces the first maximum.
fn first_max_edge(g: &SignedGraph) -> Option<(u32, u32, f64)> {
    g.edges().fold(None, |best, (u, v, w)| match best {
        Some((_, _, bw)) if w > bw => Some((u, v, w)),
        Some(_) => best,
        None => Some((u, v, w)),
    })
}

proptest! {
    /// Adjacency is symmetric: the weight of (u, v) equals the weight of (v, u), and
    /// every stored neighbor relation exists in both directions.
    #[test]
    fn adjacency_is_symmetric(g in arb_graph()) {
        for u in g.vertices() {
            for e in g.neighbors(u) {
                prop_assert_eq!(g.edge_weight(e.neighbor, u), Some(e.weight));
            }
        }
    }

    /// The positive part contains exactly the positive edges and no vertex is lost.
    #[test]
    fn positive_part_keeps_positive_edges(g in arb_graph()) {
        let gp = g.positive_part();
        prop_assert_eq!(gp.num_vertices(), g.num_vertices());
        prop_assert_eq!(gp.num_edges(), g.num_positive_edges());
        prop_assert_eq!(gp.num_negative_edges(), 0);
        for (u, v, w) in g.edges() {
            if w > 0.0 {
                prop_assert_eq!(gp.edge_weight(u, v), Some(w));
            } else {
                prop_assert_eq!(gp.edge_weight(u, v), None);
            }
        }
    }

    /// Negating twice is the identity (up to edge order).
    #[test]
    fn double_negation_is_identity(g in arb_graph()) {
        let gg = g.negated().negated();
        prop_assert_eq!(gg.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            prop_assert_eq!(gg.edge_weight(u, v), Some(w));
        }
    }

    /// The sum of weighted degrees equals twice the total weight.
    #[test]
    fn handshake_lemma(g in arb_graph()) {
        let degree_sum: f64 = g.vertices().map(|v| g.weighted_degree(v)).sum();
        prop_assert!((degree_sum - 2.0 * g.total_weight()).abs() < 1e-9);
    }

    /// total_degree over the full vertex set equals the degree sum, and average degree
    /// of the full set equals degree-sum / n.
    #[test]
    fn full_set_metrics(g in arb_graph()) {
        let all: Vec<u32> = g.vertices().collect();
        let w = g.total_degree(&all);
        let degree_sum: f64 = g.vertices().map(|v| g.weighted_degree(v)).sum();
        prop_assert!((w - degree_sum).abs() < 1e-9);
        prop_assert!((g.average_degree(&all) - degree_sum / all.len() as f64).abs() < 1e-9);
    }

    /// Core numbers are upper-bounded by degree and the k-core is non-empty for k <=
    /// degeneracy.
    #[test]
    fn core_numbers_are_sane(g in arb_graph()) {
        let cd = core_decomposition(&g);
        for v in g.vertices() {
            prop_assert!(cd.core[v as usize] as usize <= g.degree(v));
        }
        prop_assert!(!cd.k_core(cd.degeneracy).is_empty() || g.num_vertices() == 0);
        // Within the degeneracy-core, every vertex has induced degree >= degeneracy.
        let kcore = cd.k_core(cd.degeneracy);
        let marks = dcs_graph::VertexSubset::from_slice(g.num_vertices(), &kcore);
        for &v in &kcore {
            let deg_in = g
                .neighbors(v)
                .filter(|e| marks.contains(e.neighbor))
                .count() as u32;
            prop_assert!(deg_in >= cd.degeneracy);
        }
    }

    /// Every connected component is indeed connected and components partition the
    /// vertex set.
    #[test]
    fn components_partition(g in arb_graph()) {
        let cc = connected_components(&g);
        let groups = cc.groups();
        let total: usize = groups.iter().map(|grp| grp.len()).sum();
        prop_assert_eq!(total, g.num_vertices());
        for grp in &groups {
            prop_assert!(dcs_graph::components::is_connected(&g, grp));
        }
        // No edge crosses two components.
        for (u, v, _) in g.edges() {
            prop_assert_eq!(cc.labels[u as usize], cc.labels[v as usize]);
        }
    }

    /// Extracting an induced subgraph preserves induced metrics.
    #[test]
    fn induced_subgraph_preserves_metrics(g in arb_graph(), bits in proptest::collection::vec(any::<bool>(), 24)) {
        let subset: Vec<u32> = g
            .vertices()
            .filter(|&v| bits.get(v as usize).copied().unwrap_or(false))
            .collect();
        let (sub, map) = g.induced_subgraph(&subset);
        let all_new: Vec<u32> = sub.vertices().collect();
        prop_assert_eq!(map.len(), sub.num_vertices());
        prop_assert!((sub.total_degree(&all_new) - g.total_degree(&subset)).abs() < 1e-9);
        prop_assert_eq!(sub.induced_edge_count(&all_new), g.induced_edge_count(&subset));
    }

    /// Edge-list IO round-trips.
    #[test]
    fn io_roundtrip(g in arb_graph()) {
        let mut buf = Vec::new();
        dcs_graph::io::write_edge_list(&g, &mut buf).unwrap();
        let g2 = dcs_graph::io::read_edge_list(buf.as_slice()).unwrap();
        prop_assert_eq!(g2.num_edges(), g.num_edges());
        for (u, v, w) in g.edges() {
            let w2 = g2.edge_weight(u, v).unwrap();
            prop_assert!((w - w2).abs() < 1e-9);
        }
    }

    /// A DeltaGraph driven by an arbitrary mutation sequence (absolute sets,
    /// relative adds, removals via zero, repeated touches of the same edge)
    /// always snapshots to exactly the graph a from-scratch build produces —
    /// including across interleaved snapshots, where clean rows are copied
    /// from the previous snapshot instead of rebuilt.
    #[test]
    fn delta_snapshots_equal_scratch_builds(
        n in 2usize..20,
        ops in proptest::collection::vec((0u32..20, 0u32..20, -4.0f64..4.0, any::<bool>(), any::<bool>()), 0..120),
    ) {
        let mut delta = DeltaGraph::new(n);
        let mut reference: std::collections::BTreeMap<(u32, u32), f64> = std::collections::BTreeMap::new();
        for (i, (u, v, w, absolute, snapshot_now)) in ops.into_iter().enumerate() {
            let (u, v) = (u % n as u32, v % n as u32);
            if u == v {
                continue;
            }
            let key = if u < v { (u, v) } else { (v, u) };
            let value = if absolute {
                delta.set_weight(u, v, w);
                w
            } else {
                delta.add_weight(u, v, w)
            };
            if value == 0.0 {
                reference.remove(&key);
            } else {
                reference.insert(key, value);
            }
            // Snapshot mid-sequence on roughly a third of the operations so the
            // incremental (partially-dirty) rebuild path is exercised.
            if snapshot_now || i % 3 == 0 {
                let snap = delta.snapshot();
                let scratch = GraphBuilder::from_edges(
                    n,
                    reference.iter().map(|(&(a, b), &wt)| (a, b, wt)),
                );
                prop_assert_eq!(&*snap, &scratch);
            }
        }
        let snap = delta.snapshot();
        let scratch = GraphBuilder::from_edges(n, reference.iter().map(|(&(a, b), &wt)| (a, b, wt)));
        prop_assert_eq!(&*snap, &scratch);
        prop_assert_eq!(snap.num_edges(), delta.num_edges());
        // An unchanged version returns the cached snapshot, pointer-equal.
        let again = delta.snapshot();
        prop_assert!(std::sync::Arc::ptr_eq(&snap, &again));
    }
}

proptest! {
    /// A masked view is exactly the in-place vertex removal it replaces: same edge
    /// set, same degrees, same metrics — without touching the CSR arrays.
    #[test]
    fn masked_view_equals_in_place_removal(
        g in arb_graph_with_ties(),
        removal in proptest::collection::vec(0u32..24, 0..12),
    ) {
        use dcs_graph::{GraphView, VertexMask};
        let n = g.num_vertices();
        let removal: Vec<u32> = removal.into_iter().filter(|&v| (v as usize) < n).collect();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&removal);
        let view = GraphView::masked(&g, &mask);
        let mut reference = g.clone();
        reference.remove_vertices_in_place(&removal);
        prop_assert_eq!(view.materialize(), reference.clone());
        prop_assert_eq!(view.edges().count(), reference.num_edges());
        for v in view.vertices() {
            prop_assert_eq!(view.degree(v), reference.degree(v));
            let dv: f64 = view.weighted_degree(v);
            prop_assert!((dv - reference.weighted_degree(v)).abs() < 1e-12);
        }
        // The positive filter composes: view == materialised positive part.
        prop_assert_eq!(
            view.positive_part().materialize(),
            reference.positive_part()
        );
        // The max-edge scan keeps the first maximum, with and without the filter.
        prop_assert_eq!(view.max_weight_edge(), first_max_edge(&reference));
        prop_assert_eq!(
            view.positive_part().max_weight_edge(),
            first_max_edge(&reference.positive_part())
        );
        // Mask bookkeeping is exact.
        let mut unique = removal.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(mask.len(), n - unique.len());
        prop_assert_eq!(mask.iter().count(), mask.len());
    }

    /// View-based core decomposition equals the decomposition of the materialised
    /// view for the alive vertices.
    #[test]
    fn view_cores_match_materialized(
        g in arb_graph(),
        removal in proptest::collection::vec(0u32..24, 0..12),
    ) {
        use dcs_graph::{core_decomposition_view, GraphView, VertexMask};
        let n = g.num_vertices();
        let removal: Vec<u32> = removal.into_iter().filter(|&v| (v as usize) < n).collect();
        let mut mask = VertexMask::full(n);
        mask.remove_all(&removal);
        let view = GraphView::masked(&g, &mask);
        let of_view = core_decomposition_view(view);
        let of_materialized = core_decomposition(&view.materialize());
        for v in view.vertices() {
            prop_assert_eq!(of_view.core[v as usize], of_materialized.core[v as usize]);
        }
        prop_assert_eq!(of_view.degeneracy, of_materialized.degeneracy);
    }
}

//! Property-based tests of the parallel solver paths against their sequential
//! twins — the contract they rest on is **bit-identity**, not approximate
//! agreement:
//!
//! * the parallel NewSEA µ_u sweep ([`smart_initialization_order_par_in`]) produces
//!   the same `(vertex, µ_u)` order as [`smart_initialization_order_in`], with the
//!   core/order/scratch buffers reused across thread counts (the risky part: stale
//!   per-vertex maxima leaking between sweeps);
//! * DCSGreedy, whose `G_{D+}` peel runs beside the `G_D` peel at two or more
//!   threads, returns the same subset, objective bits, winner, `ρ_{D+}` bits and
//!   `SolveStats` at threads {1, 2, 4} under every budget around the point where
//!   the second peel's budget is forked off, and so do the average-degree top-k
//!   and α-sweep drivers built on it;
//! * the `dcs census` sweep ([`parallel_sweep`]) returns the same winner, counters
//!   and per-candidate solutions as the sequential [`SeaCd::sweep`] at threads
//!   {1, 2, 4}, with exact objective ties broken towards the lowest seed.

use dcs_core::dcsad::{CandidateKind, DcsGreedy};
use dcs_core::dcsga::{
    parallel_sweep, refine, smart_initialization_order_in, smart_initialization_order_par_in,
    DcsgaConfig, SeaCd,
};
use dcs_core::engine::{CancelToken, SolveContext, Termination};
use dcs_core::{
    alpha_sweep_in, default_alpha_grid, top_k_in, DensityMeasure, Embedding, SharedWorkspace,
};
use dcs_densest::{greedy_peeling_view_into, PeelWorkspace};
use dcs_graph::{CoreScratch, GraphBuilder, GraphView, SignedGraph, VertexId, VertexMask, Weight};
use proptest::prelude::*;

/// Strategy: a random signed graph over `n <= 40` vertices plus an embedding
/// supported on a random vertex subset with random positive weights.
fn arb_graph_and_embedding() -> impl Strategy<Value = (SignedGraph, Embedding)> {
    (4usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -6.0f64..6.0);
        let weight = (0..n as u32, 0.05f64..1.0);
        (
            Just(n),
            proptest::collection::vec(edge, 0..140),
            proptest::collection::vec(weight, 1..10),
        )
            .prop_map(|(n, edges, weights)| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    if u != v && w != 0.0 {
                        b.add_edge(u, v, w);
                    }
                }
                let mut x = Embedding::from_weights(weights);
                x.normalize();
                (b.build(), x)
            })
    })
}

/// Strategy: a random signed graph over `n <= 40` vertices plus a mask keeping a
/// random non-empty subset of its vertices alive.
fn arb_graph_and_mask() -> impl Strategy<Value = (SignedGraph, VertexMask)> {
    (2usize..40).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, -6.0f64..6.0);
        (
            Just(n),
            proptest::collection::vec(edge, 0..160),
            proptest::collection::vec(0..n as u32, 0..n),
        )
            .prop_map(|(n, edges, dead)| {
                let mut b = GraphBuilder::new(n);
                for (u, v, w) in edges {
                    if u != v && w != 0.0 {
                        b.add_edge(u, v, w);
                    }
                }
                let mut mask = VertexMask::full(n);
                for v in dead {
                    if mask.len() > 1 {
                        mask.remove(v);
                    }
                }
                (b.build(), mask)
            })
    })
}

/// Strategy: a pair `(G1, G2)` of non-negatively weighted graphs over the same
/// `n <= 30` vertices, the input of an α-sweep.
fn arb_graph_pair() -> impl Strategy<Value = (SignedGraph, SignedGraph)> {
    (2usize..30).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32, 0.1f64..5.0);
        (
            Just(n),
            proptest::collection::vec(edge.clone(), 0..100),
            proptest::collection::vec(edge, 0..100),
        )
            .prop_map(|(n, edges1, edges2)| {
                let build = |edges: Vec<(u32, u32, f64)>| {
                    let mut b = GraphBuilder::new(n);
                    for (u, v, w) in edges {
                        if u != v {
                            b.add_edge(u, v, w);
                        }
                    }
                    b.build()
                };
                (build(edges1), build(edges2))
            })
    })
}

/// Strategy: the positive part of a random signed graph over `n < 24` vertices, or
/// the empty graph.  Half the draws take every weight from {1, 2, 4}, so that
/// distinct initialisations reach exactly equal objectives.
fn arb_sweep_graph() -> impl Strategy<Value = SignedGraph> {
    let random = (1usize..24, any::<bool>()).prop_flat_map(|(n, tied)| {
        let edge = (
            0..n as u32,
            0..n as u32,
            -6.0f64..6.0,
            proptest::sample::select(vec![1.0, 2.0, 4.0]),
        );
        (Just(tied), proptest::collection::vec(edge, 0..90)).prop_map(move |(tied, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, w, level) in edges {
                let w = if tied { level } else { w };
                if u != v && w != 0.0 {
                    b.add_edge(u, v, w);
                }
            }
            b.build().positive_part()
        })
    });
    prop_oneof![1 => Just(SignedGraph::empty(0)), 15 => random]
}

/// An embedding as `(vertex, value bits)` pairs in vertex order.
fn embedding_bits(x: &Embedding) -> Vec<(VertexId, u64)> {
    x.support()
        .into_iter()
        .map(|v| (v, x.get(v).to_bits()))
        .collect()
}

/// Everything a DCSGreedy solve reports that must not depend on the thread count.
type GreedyFingerprint = (
    Vec<VertexId>,
    u64,
    CandidateKind,
    u64,
    u64,
    u64,
    Termination,
);

fn greedy_fingerprint(view: GraphView<'_>, cx: &SolveContext) -> GreedyFingerprint {
    let (solution, stats) = DcsGreedy::new().solve_view_bounded(view, &[], cx);
    (
        solution.subset,
        solution.density_difference.to_bits(),
        solution.winner,
        solution.rho_gd_plus.to_bits(),
        stats.iterations,
        stats.candidates,
        stats.termination,
    )
}

/// The `ρ_{D+}` bits, iterations, candidates and termination of DCSGreedy's two
/// peels run one after the other under a single meter — the plain sequential
/// candidate generation the forked flow must reproduce.  Only meaningful on a
/// view with a positive edge (otherwise DCSGreedy peels nothing).
fn sequential_peels(view: GraphView<'_>, cx: &SolveContext) -> (u64, u64, u64, Termination) {
    let mut meter = cx.meter();
    let mut ws = PeelWorkspace::new();
    greedy_peeling_view_into(view, &mut ws, |units| !meter.tick(units));
    let mut candidates = 2; // the max-weight edge and the G_D peel
    let mut rho_gd_plus = 0.0;
    if !meter.stopped() {
        let (peel, _) =
            greedy_peeling_view_into(view.positive_part(), &mut ws, |units| !meter.tick(units));
        rho_gd_plus = peel.average_degree;
        candidates += 1;
    }
    let stats = meter.finish();
    (
        rho_gd_plus.to_bits(),
        stats.iterations,
        candidates,
        stats.termination,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// DCSGreedy at threads 2 and 4 (the `G_{D+}` peel on a second thread) against
    /// threads 1 (both peels in sequence), on the full and the masked view, with no
    /// budget, with budgets around the fork point `alive − 1`, and under a
    /// pre-cancelled token.  One workspace per thread count is reused across all
    /// the solves, so stale peel scratch would show too.
    #[test]
    fn dcs_greedy_is_identical_across_thread_counts((g, mask) in arb_graph_and_mask()) {
        let workspaces: Vec<(usize, SharedWorkspace)> =
            [1usize, 2, 4].into_iter().map(|t| (t, SharedWorkspace::new())).collect();
        let cancelled = CancelToken::new();
        cancelled.cancel();
        for view in [GraphView::full(&g), GraphView::masked(&g, &mask)] {
            let alive = view.alive_count() as u64;
            let mut budgets: Vec<Option<u64>> = vec![None];
            for budget in [1, alive - 1, alive, alive + 1, 2 * alive - 2, 2 * alive - 1] {
                if !budgets.contains(&Some(budget)) {
                    budgets.push(Some(budget));
                }
            }
            let has_positive = matches!(view.max_weight_edge(), Some((_, _, w)) if w > 0.0);
            // Each context with the termination it must end in, where that is
            // known up front: the pre-cancelled token stops the first peel, unless
            // the view has no positive edge and needs no peel at all.
            let mut contexts: Vec<(SolveContext, Option<Termination>)> = budgets
                .into_iter()
                .map(|budget| match budget {
                    Some(units) => (SolveContext::unbounded().with_budget(units), None),
                    None => (SolveContext::unbounded(), Some(Termination::Converged)),
                })
                .collect();
            let cancelled_ends = if has_positive { Termination::Cancelled } else { Termination::Converged };
            contexts.push((SolveContext::unbounded().with_cancel(&cancelled), Some(cancelled_ends)));
            for (index, (cx, expected)) in contexts.iter().enumerate() {
                let solve = |(threads, ws): &(usize, SharedWorkspace)| {
                    greedy_fingerprint(view, &cx.clone().with_workspace(ws).with_threads(*threads))
                };
                let reference = solve(&workspaces[0]);
                for entry in &workspaces[1..] {
                    assert_eq!(solve(entry), reference, "context #{} threads={}", index, entry.0);
                }
                if let Some(expected) = expected {
                    assert_eq!(reference.6, *expected, "context #{}", index);
                }
                if has_positive {
                    assert_eq!(
                        (reference.3, reference.4, reference.5, reference.6),
                        sequential_peels(view, cx),
                        "context #{} against the sequential peels", index
                    );
                }
            }
        }
    }

    /// The average-degree top-k and α-sweep drivers, which call DCSGreedy once per
    /// round or grid point, return the same subsets and objective bits at threads 1
    /// and 4.
    #[test]
    fn average_degree_drivers_are_identical_across_thread_counts(
        (g1, g2) in arb_graph_pair(),
        k in 1usize..5,
    ) {
        let gd = dcs_core::difference_graph(&g2, &g1).unwrap();
        let run = |threads: usize| {
            let cx = SolveContext::unbounded().with_threads(threads);
            let topk = top_k_in(&gd, k, DensityMeasure::AverageDegree, DcsgaConfig::default(), &cx);
            let sweep = alpha_sweep_in(
                &g2, &g1, &default_alpha_grid(), DensityMeasure::AverageDegree, &cx,
            )
            .unwrap();
            let topk: Vec<(Vec<VertexId>, u64)> = topk
                .solutions
                .into_iter()
                .map(|s| (s.subset, s.objective.to_bits()))
                .collect();
            let sweep: Vec<(Vec<VertexId>, u64)> = sweep
                .points
                .into_iter()
                .map(|p| (p.subset, p.objective.to_bits()))
                .collect();
            (topk, sweep)
        };
        assert_eq!(run(1), run(4));
    }

    /// The NewSEA smart-initialisation µ_u sweep: identical `(vertex, µ_u)` pairs in
    /// identical order, with all four scratch buffers reused across thread counts.
    #[test]
    fn smart_init_order_par_is_bit_identical((g, _x) in arb_graph_and_embedding()) {
        let view = GraphView::full(&g).positive_part();

        let mut seq_order: Vec<(VertexId, Weight)> = Vec::new();
        let mut seq_incident: Vec<Weight> = Vec::new();
        let mut seq_cores = CoreScratch::default();
        smart_initialization_order_in(view, &mut seq_order, &mut seq_incident, &mut seq_cores);

        let mut par_order: Vec<(VertexId, Weight)> = Vec::new();
        let mut par_incident: Vec<Weight> = Vec::new();
        let mut par_cores = CoreScratch::default();
        for threads in [1usize, 2, 4] {
            smart_initialization_order_par_in(
                view, &mut par_order, &mut par_incident, &mut par_cores, threads,
            );
            assert_eq!(seq_order.len(), par_order.len(), "threads={}", threads);
            for (i, (s, p)) in seq_order.iter().zip(&par_order).enumerate() {
                assert_eq!(s.0, p.0, "threads={} rank={}", threads, i);
                assert_eq!(
                    s.1.to_bits(), p.1.to_bits(),
                    "threads={} rank={} vertex={}: {} vs {}", threads, i, s.0, s.1, p.1
                );
            }
            assert_eq!(&seq_incident, &par_incident, "threads={}", threads);
        }
    }

    /// The census sweep at threads {1, 2, 4} against the sequential sweep: the same
    /// best objective and embedding bits, counters, and every collected solution in
    /// vertex order.
    #[test]
    fn census_sweep_is_identical_across_thread_counts(g in arb_sweep_graph()) {
        let config = DcsgaConfig::default();
        let reference = SeaCd::new(config).sweep(&g, None, true, |g, x| refine(g, x, &config));
        let reference_solutions: Vec<_> =
            reference.all_solutions.iter().map(embedding_bits).collect();
        for threads in [1usize, 2, 4] {
            let sweep = parallel_sweep(&g, config, threads, true);
            assert_eq!(
                sweep.best_objective.to_bits(), reference.best_objective.to_bits(),
                "threads={}", threads
            );
            assert_eq!(embedding_bits(&sweep.best), embedding_bits(&reference.best));
            assert_eq!(sweep.initializations, reference.initializations);
            assert_eq!(sweep.expansion_errors, reference.expansion_errors);
            let solutions: Vec<_> = sweep.all_solutions.iter().map(embedding_bits).collect();
            assert_eq!(&solutions, &reference_solutions, "threads={}", threads);
        }
    }
}

//! The exhaustive SEACD+Refine initialisation sweep, fanned out over worker threads.
//!
//! The initialisations are independent local searches, so they parallelise naturally:
//! each scoped worker runs SEACD + refinement from its own first candidate vertex, then
//! from each next candidate it claims from a shared atomic index, in its own workspace,
//! keeping its own incumbent and its own collected solutions.  Nothing is shared but
//! the index; after the join the per-worker incumbents are merged in ascending seed
//! order, so [`parallel_sweep`] is bit-identical to [`SeaCd::sweep`] at every thread
//! count and under any scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

use dcs_densest::Embedding;
use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use super::refine::{refine, refine_with_workspace};
use super::seacd::{SeaCd, SeaCdSweep};
use super::DcsgaConfig;
use crate::workspace::SolverWorkspace;

/// What one worker of [`parallel_sweep`] hands back at the join.
struct WorkerResult {
    /// The worker's incumbent `(objective, seed vertex, embedding)`: the first of its
    /// candidates, in claim (= ascending seed) order, with the greatest objective
    /// above 0; `None` when none beat 0.
    best: Option<(Weight, VertexId, Embedding)>,
    expansion_errors: usize,
    /// `(candidate index, refined embedding)`, only when solutions are collected.
    solutions: Vec<(usize, Embedding)>,
}

/// Runs the exhaustive SEACD+Refine sweep (one initialisation per non-isolated vertex of
/// `gd_plus`) across `threads` worker threads.
///
/// Returns exactly what [`SeaCd::sweep`] with [`refine`] returns: the winner is the
/// initialisation with the strictly greatest objective, ties going to the lowest seed
/// vertex, and `all_solutions` (populated only when `collect_all` is set) is in vertex
/// order, so the clique census does not depend on scheduling or thread count.
pub fn parallel_sweep(
    gd_plus: &SignedGraph,
    config: DcsgaConfig,
    threads: usize,
    collect_all: bool,
) -> SeaCdSweep {
    let candidates: Vec<VertexId> = (0..gd_plus.num_vertices() as VertexId)
        .filter(|&u| gd_plus.degree(u) > 0)
        .collect();
    // The requested count is honoured even above the core count (the result is
    // identical at any count); more workers than candidates would only idle.
    let threads = threads.clamp(1, candidates.len().max(1));
    if threads == 1 {
        return SeaCd::new(config).sweep(gd_plus, None, collect_all, |g, x| refine(g, x, &config));
    }
    // Worker `w` starts at candidate `w` and then claims from the shared index,
    // so every worker takes part even when one core runs them one after another.
    let next = AtomicUsize::new(threads);
    let worker = |first: usize| {
        let solver = SeaCd::new(config);
        let mut ws = SolverWorkspace::new();
        let view = GraphView::full(gd_plus);
        let mut out = WorkerResult {
            best: None,
            expansion_errors: 0,
            solutions: Vec::new(),
        };
        let mut index = first;
        while let Some(&u) = candidates.get(index) {
            let run = solver.run_on_view_in(view, Embedding::singleton(u), &mut ws, |_| false);
            out.expansion_errors += run.expansion_errors;
            let refined = refine_with_workspace(gd_plus, run.embedding, &config, &mut ws);
            let objective = refined.affinity(gd_plus);
            let incumbent = out.best.as_ref().map_or(0.0, |best| best.0);
            if objective > incumbent {
                out.best = Some((objective, u, refined.clone()));
            }
            if collect_all {
                out.solutions.push((index, refined));
            }
            index = next.fetch_add(1, Ordering::Relaxed);
        }
        out
    };
    let results: Vec<WorkerResult> = std::thread::scope(|scope| {
        let worker = &worker;
        let handles: Vec<_> = (0..threads)
            .map(|first| scope.spawn(move || worker(first)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .collect()
    });

    let mut incumbents = Vec::with_capacity(threads);
    let mut solutions = Vec::new();
    let mut expansion_errors = 0;
    for result in results {
        incumbents.extend(result.best);
        solutions.extend(result.solutions);
        expansion_errors += result.expansion_errors;
    }
    // Merge in ascending seed order: only a strictly greater objective replaces the
    // incumbent, so an exact tie goes to the lower seed, as in the sequential sweep.
    incumbents.sort_unstable_by_key(|&(_, seed, _)| seed);
    let mut best_objective = 0.0;
    let mut best = Embedding::default();
    for (objective, _, embedding) in incumbents {
        if objective > best_objective {
            best_objective = objective;
            best = embedding;
        }
    }
    solutions.sort_unstable_by_key(|&(index, _)| index);
    SeaCdSweep {
        best,
        best_objective,
        initializations: candidates.len(),
        expansion_errors,
        all_solutions: solutions.into_iter().map(|(_, x)| x).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    /// A heavy 4-clique, a medium 5-clique and background noise.
    fn planted_graph() -> SignedGraph {
        let mut b = GraphBuilder::new(40);
        for u in 0..4u32 {
            for v in (u + 1)..4u32 {
                b.add_edge(u, v, 5.0);
            }
        }
        for u in 10..15u32 {
            for v in (u + 1)..15u32 {
                b.add_edge(u, v, 2.0);
            }
        }
        for i in 0..30u32 {
            b.add_edge(i, (i * 7 + 3) % 40, 0.3);
            b.add_edge((i * 5 + 1) % 40, (i * 11 + 2) % 40, -0.2);
        }
        b.build()
    }

    #[test]
    fn parallel_sweep_matches_sequential_best() {
        let gd = planted_graph();
        let gd_plus = gd.positive_part();
        let config = DcsgaConfig::default();
        let sequential =
            SeaCd::new(config).sweep(&gd_plus, None, false, |g, x| refine(g, x, &config));
        let parallel = parallel_sweep(&gd_plus, config, 4, false);
        assert!((sequential.best_objective - parallel.best_objective).abs() < 1e-9);
        assert_eq!(sequential.initializations, parallel.initializations);
        assert_eq!(parallel.expansion_errors, 0);
        assert_eq!(sequential.best.support(), parallel.best.support());
    }

    #[test]
    fn parallel_sweep_collects_one_solution_per_candidate() {
        let gd = planted_graph();
        let gd_plus = gd.positive_part();
        let parallel = parallel_sweep(&gd_plus, DcsgaConfig::default(), 3, true);
        assert_eq!(parallel.all_solutions.len(), parallel.initializations);
    }

    #[test]
    fn degenerate_inputs() {
        let config = DcsgaConfig::default();
        // No positive edges: empty solution, no crash.
        let negative = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        let sweep = parallel_sweep(&negative.positive_part(), config, 4, true);
        assert!(sweep.best.is_empty());
        assert_eq!(sweep.initializations, 0);
        // Empty graph.
        let sweep = parallel_sweep(&SignedGraph::empty(0), config, 4, true);
        assert_eq!(sweep.initializations, 0);
    }
}

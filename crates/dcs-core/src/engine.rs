//! The unified solver engine: one interface over every contrast solver.
//!
//! Every mining algorithm in this workspace — [`DcsGreedy`] (DCSAD, Algorithm 2),
//! [`NewSea`]/[`SeaCd`] (DCSGA, Algorithms 3/5), the EgoScan baseline and the classical
//! densest-subgraph routines of `dcs-densest` — historically exposed its own ad-hoc
//! `solve*` entry point, so every layer above (top-k peeling, α-sweeps, the mining
//! server's job pool, the CLI, the benches) hard-coded solver dispatch and had no way
//! to bound or interrupt a long mine.
//!
//! This module fixes that with one trait:
//!
//! * [`ContrastSolver`] — `solve_in(&self, gd, cx) -> EngineSolution`: every solver
//!   mines a signed difference graph under a [`SolveContext`];
//! * [`SolveContext`] — carries a cooperative [`CancelToken`], an optional wall-clock
//!   **deadline**, and an optional **work budget** (solver-specific iteration units);
//! * [`EngineSolution`] — the best solution found *so far* plus [`SolveStats`]
//!   telemetry (iterations, candidates examined, Theorem-6 early-exit prunes, wall
//!   time) and a [`Termination`] status: bounded solves never fail, they return the
//!   incumbent with `Deadline` / `Cancelled` / `BudgetExhausted` instead of
//!   `Converged`;
//! * [`MeasureSolver`] — the single place a [`DensityMeasure`] is mapped to a solver,
//!   used by the top-k / α-sweep / streaming drivers and everything above them.
//!
//! Solvers check the context **cooperatively** through a [`WorkMeter`]: one check per
//! coarse work unit (a peel removal, a SEACD shrink round, a local-search sweep, a
//! max-flow round).  A single unit is never cut short, so interruption latency is one
//! unit, not zero — which is exactly what makes best-so-far results always valid.
//!
//! ```
//! use dcs_core::engine::{ContrastSolver, SolveContext, Termination};
//! use dcs_core::dcsad::DcsGreedy;
//! use dcs_graph::GraphBuilder;
//!
//! let gd = GraphBuilder::from_edges(4, vec![(0, 1, 3.0), (1, 2, -1.0)]);
//! let solution = DcsGreedy::default().solve_in(&gd, &SolveContext::unbounded());
//! assert_eq!(solution.stats.termination, Termination::Converged);
//! assert_eq!(solution.subset, vec![0, 1]);
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dcs_graph::{GraphView, SignedGraph, VertexId, Weight};

use crate::dcsad::{DcsGreedy, DcsadSolution};
use crate::dcsga::{DcsgaConfig, DcsgaSolution, NewSea, SeaCd};
use crate::solution::{ContrastReport, DensityMeasure};
use crate::workspace::{SharedWorkspace, WorkspaceGuard};

/// Why a solve stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Termination {
    /// The solver ran to completion; the result is its final answer.
    Converged,
    /// The wall-clock deadline expired; the result is the best found so far.
    Deadline,
    /// The [`CancelToken`] was cancelled; the result is the best found so far.
    Cancelled,
    /// The work budget was exhausted; the result is the best found so far.
    BudgetExhausted,
}

impl Termination {
    /// Whether the solve ran to completion (the result is not truncated).
    pub fn is_converged(self) -> bool {
        matches!(self, Termination::Converged)
    }

    /// Stable lowercase token, used on the server wire protocol and in bench output.
    pub fn as_str(self) -> &'static str {
        match self {
            Termination::Converged => "converged",
            Termination::Deadline => "deadline",
            Termination::Cancelled => "cancelled",
            Termination::BudgetExhausted => "budget_exhausted",
        }
    }
}

impl std::fmt::Display for Termination {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A shared cooperative cancellation flag.
///
/// Cloning is cheap (an `Arc` bump); cancelling any clone cancels them all.  Solvers
/// observe cancellation at their next work-unit boundary and return best-so-far.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, not-yet-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Bounds and control for one solve: cancellation, deadline, work budget.
///
/// Built fluently; the default is fully unbounded:
///
/// ```
/// use std::time::Duration;
/// use dcs_core::engine::{CancelToken, SolveContext};
///
/// let token = CancelToken::new();
/// let cx = SolveContext::unbounded()
///     .with_deadline(Duration::from_millis(250))
///     .with_budget(10_000)
///     .with_cancel(&token);
/// assert!(!cx.is_unbounded());
/// ```
#[derive(Debug, Clone, Default)]
pub struct SolveContext {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    budget: Option<u64>,
    workspace: Option<SharedWorkspace>,
    threads: Option<usize>,
}

/// Reads the process-wide default solver thread count from the
/// `DCS_SOLVER_THREADS` environment variable once (clamped to at least 1;
/// unset, empty or unparsable values mean 1 = sequential).
fn default_solver_threads() -> usize {
    static DEFAULT: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("DCS_SOLVER_THREADS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .unwrap_or(1)
            .max(1)
    })
}

impl SolveContext {
    /// A context with no bounds: the solve runs to convergence, exactly like the
    /// pre-engine `solve()` entry points (which are now thin wrappers over this).
    pub fn unbounded() -> Self {
        SolveContext::default()
    }

    /// Bounds the solve by a wall-clock duration from now.
    pub fn with_deadline(self, after: Duration) -> Self {
        self.with_deadline_at(Instant::now() + after)
    }

    /// Bounds the solve by an absolute deadline (useful when queueing time should
    /// count against the job, as in the mining server).
    pub fn with_deadline_at(mut self, at: Instant) -> Self {
        self.deadline = Some(at);
        self
    }

    /// Attaches a cancellation token (stores a clone; cancel the original to stop the
    /// solve).
    pub fn with_cancel(mut self, token: &CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Bounds the solve by a work budget in solver-specific units (peel removals for
    /// DCSAD, coordinate-descent iterations and shrink rounds for DCSGA, local-search
    /// sweeps for EgoScan, max-flow rounds for Goldberg).
    pub fn with_budget(mut self, units: u64) -> Self {
        self.budget = Some(units);
        self
    }

    /// Attaches a [`SharedWorkspace`]: every solve under this context reuses the
    /// workspace's scratch buffers (degree arrays, peel heaps, removal orders, the
    /// max-flow arena) instead of allocating them.  The workspace never affects
    /// results — only where the scratch memory comes from.
    pub fn with_workspace(mut self, workspace: &SharedWorkspace) -> Self {
        self.workspace = Some(workspace.clone());
        self
    }

    /// Sets the intra-solve parallelism budget: the number of worker threads
    /// the DCSGA kernels (the NewSEA µ_u sweep and its KKT/expansion range scans)
    /// may use.  The greedy peel is always sequential.  `1` forces the sequential
    /// reference paths; higher values are safe on any machine because every
    /// parallel kernel is **bit-identical** to its sequential counterpart.  `0` restores the default (the
    /// `DCS_SOLVER_THREADS` environment variable, else 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = if threads == 0 { None } else { Some(threads) };
        self
    }

    /// The effective parallelism budget of this context (≥ 1): the explicit
    /// [`Self::with_threads`] value, else the process-wide `DCS_SOLVER_THREADS`
    /// default, else 1.
    pub fn threads(&self) -> usize {
        self.threads.unwrap_or_else(default_solver_threads)
    }

    /// Whether this context carries a shared workspace.
    pub fn has_workspace(&self) -> bool {
        self.workspace.is_some()
    }

    /// A clone of this context that is guaranteed to carry a workspace: drivers that
    /// run many solves under one job (top-k rounds, α-sweep grid points) call this
    /// once so all their solves share scratch buffers even when the caller did not
    /// attach any.
    pub fn ensure_workspace(&self) -> Self {
        if self.workspace.is_some() {
            self.clone()
        } else {
            self.clone().with_workspace(&SharedWorkspace::new())
        }
    }

    /// The scratch workspace for one solve: a lock on the shared workspace when the
    /// context carries one, a transient workspace otherwise.  Leaf solvers hold the
    /// guard for the duration of the solve; drivers must not call this around solver
    /// invocations (see the locking discipline in [`crate::workspace`]).
    pub fn workspace(&self) -> WorkspaceGuard<'_> {
        match &self.workspace {
            Some(shared) => WorkspaceGuard::Shared(shared.lock()),
            None => WorkspaceGuard::Owned(Box::default()),
        }
    }

    /// Whether this context carries no bound at all.
    pub fn is_unbounded(&self) -> bool {
        self.cancel.is_none() && self.deadline.is_none() && self.budget.is_none()
    }

    /// The context for a follow-up solve after `used` units of the budget were spent
    /// by earlier phases of the same job (drivers like top-k and the α-sweep run many
    /// solves under one budget).  Deadline and cancel token carry over unchanged.
    pub fn after_work(&self, used: u64) -> Self {
        let mut next = self.clone();
        if let Some(budget) = next.budget {
            next.budget = Some(budget.saturating_sub(used));
        }
        next
    }

    /// Starts metering one solve against this context.
    pub fn meter(&self) -> WorkMeter {
        WorkMeter {
            cancel: self.cancel.clone(),
            deadline: self.deadline,
            budget_left: self.budget,
            started: Instant::now(),
            stats: SolveStats::default(),
            verdict: None,
        }
    }
}

/// Telemetry of one solve (or of one driver phase aggregating several solves).
#[derive(Debug, Clone, PartialEq)]
pub struct SolveStats {
    /// Work units metered (solver-specific: peel removals, CD iterations + shrink
    /// rounds, local-search sweeps, max-flow rounds).  This is the quantity the
    /// budget bounds; the tick that trips the budget is still recorded, so the
    /// count can exceed the budget by at most one tick's units.
    pub iterations: u64,
    /// Candidate solutions examined (DCSGreedy candidates, SEACD initialisations,
    /// EgoScan seeds, Goldberg certified subgraphs).
    pub candidates: u64,
    /// Candidates skipped by an early-exit bound (the Theorem-6 `µ_u` prune of
    /// NewSEA).
    pub prunes: u64,
    /// Wall time of the solve.
    pub wall: Duration,
    /// Why the solve stopped.
    pub termination: Termination,
}

impl Default for SolveStats {
    fn default() -> Self {
        SolveStats {
            iterations: 0,
            candidates: 0,
            prunes: 0,
            wall: Duration::ZERO,
            termination: Termination::Converged,
        }
    }
}

impl SolveStats {
    /// Folds another solve's stats into this one (drivers aggregate per-round solves).
    /// Wall times add; the first non-converged termination wins.
    pub fn absorb(&mut self, other: &SolveStats) {
        self.iterations += other.iterations;
        self.candidates += other.candidates;
        self.prunes += other.prunes;
        self.wall += other.wall;
        if self.termination.is_converged() {
            self.termination = other.termination;
        }
    }
}

/// Meters one solve against a [`SolveContext`]: counts work, checks the bounds, and
/// produces the final [`SolveStats`].
///
/// Solvers call [`WorkMeter::tick`] once per work unit batch; a `false` return means
/// "stop now, return best-so-far".  The verdict is sticky — once a bound trips, every
/// further check reports stop.
#[derive(Debug)]
pub struct WorkMeter {
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    budget_left: Option<u64>,
    started: Instant,
    stats: SolveStats,
    verdict: Option<Termination>,
}

impl WorkMeter {
    /// Records `units` of work and checks every bound.  Returns `true` to keep going,
    /// `false` to stop (best-so-far).
    ///
    /// Once a verdict is set, further ticks stop without recording — solvers that
    /// pre-check before a work unit never inflate the count past the bound.  The
    /// tick that trips the budget is still recorded (post-work callers like the
    /// SEACD shrink meter units that were already performed), so `iterations` can
    /// exceed the budget by at most one tick's units.
    pub fn tick(&mut self, units: u64) -> bool {
        if self.verdict.is_some() {
            return false;
        }
        self.stats.iterations += units;
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                self.verdict = Some(Termination::Cancelled);
                return false;
            }
        }
        if let Some(budget) = &mut self.budget_left {
            if *budget <= units {
                *budget = 0;
                self.verdict = Some(Termination::BudgetExhausted);
                return false;
            }
            *budget -= units;
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.verdict = Some(Termination::Deadline);
                return false;
            }
        }
        true
    }

    /// Whether a bound has already tripped (checks without recording work).
    pub fn stopped(&mut self) -> bool {
        if self.verdict.is_some() {
            return true;
        }
        // A zero-unit tick performs every check without consuming budget.
        !self.tick(0)
    }

    /// Records candidates examined.
    pub fn note_candidates(&mut self, n: u64) {
        self.stats.candidates += n;
    }

    /// Records candidates pruned by an early-exit bound.
    pub fn note_prunes(&mut self, n: u64) {
        self.stats.prunes += n;
    }

    /// Finalises the stats: stamps the wall time and the termination status
    /// (`Converged` when no bound tripped).
    pub fn finish(mut self) -> SolveStats {
        self.stats.wall = self.started.elapsed();
        self.stats.termination = self.verdict.unwrap_or(Termination::Converged);
        self.stats
    }
}

/// Solver-specific detail preserved alongside the engine-level solution shape.
#[derive(Debug, Clone)]
pub enum SolverDetail {
    /// No extra detail beyond the subset (EgoScan, peel, Goldberg adapters).
    Subset,
    /// A DCSAD solution (winner candidate, data-dependent ratio, …).
    Dcsad(DcsadSolution),
    /// A DCSGA solution (embedding, smart-initialisation stats).
    Dcsga(DcsgaSolution),
}

/// What every [`ContrastSolver`] returns: the best solution found so far plus
/// telemetry.  Truncated solves (deadline, cancellation, exhausted budget) still
/// return a valid vertex subset — check [`SolveStats::termination`] to know whether
/// it is the converged answer.
#[derive(Debug, Clone)]
pub struct EngineSolution {
    /// The mined vertex set (support set for affinity solutions), sorted ascending.
    pub subset: Vec<VertexId>,
    /// The objective value under the solver's measure (density difference, affinity
    /// difference or total-degree difference).
    pub objective: Weight,
    /// Solver-specific detail (typed DCSAD/DCSGA solutions when available).
    pub detail: SolverDetail,
    /// Telemetry, including the [`Termination`] status.
    pub stats: SolveStats,
}

impl EngineSolution {
    /// Why the solve stopped.
    pub fn termination(&self) -> Termination {
        self.stats.termination
    }

    /// The affinity embedding, for solutions produced by a DCSGA solver.
    pub fn embedding(&self) -> Option<&dcs_densest::Embedding> {
        match &self.detail {
            SolverDetail::Dcsga(solution) => Some(&solution.embedding),
            _ => None,
        }
    }

    /// Full contrast statistics of the solution, evaluated on `gd`.  Affinity
    /// solutions are reported at their embedding, everything else at the subset.
    pub fn report(&self, gd: &SignedGraph) -> ContrastReport {
        self.report_in(gd, &SolveContext::unbounded())
    }

    /// [`Self::report`] under a [`SolveContext`]: when the context carries a
    /// workspace, the report's membership and connectivity scratch comes from it
    /// instead of being allocated — the steady-state reporting path of the streaming
    /// monitor and the serving layer.
    pub fn report_in(&self, gd: &SignedGraph, cx: &SolveContext) -> ContrastReport {
        let mut ws = cx.workspace();
        let crate::workspace::SolverWorkspace {
            marks,
            visited,
            stack,
            ..
        } = &mut *ws;
        match &self.detail {
            SolverDetail::Dcsga(solution) => {
                let mut report =
                    ContrastReport::for_subset_scratch(gd, &self.subset, marks, visited, stack);
                report.affinity_difference = solution.embedding.affinity(gd);
                report
            }
            _ => ContrastReport::for_subset_scratch(gd, &self.subset, marks, visited, stack),
        }
    }
}

/// A contrast-subgraph solver that can be bounded, cancelled and observed through a
/// [`SolveContext`].
///
/// Implementations must return **best-so-far** when a bound trips: the returned
/// subset is always valid for `gd`, and [`SolveStats::termination`] says whether it
/// is the converged answer.
pub trait ContrastSolver {
    /// A short stable name (used in telemetry and bench output).
    fn name(&self) -> &'static str;

    /// Mines the difference graph `gd` under the context `cx`.
    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution;

    /// Mines with a warm-start seed (the support of a previous mine on a
    /// slightly-changed graph).  Solvers without a seeded path ignore the seed.
    fn solve_seeded_in(
        &self,
        gd: &SignedGraph,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> EngineSolution {
        let _ = seed;
        self.solve_in(gd, cx)
    }
}

impl ContrastSolver for DcsGreedy {
    fn name(&self) -> &'static str {
        "dcs-greedy"
    }

    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution {
        self.solve_seeded_in(gd, &[], cx)
    }

    fn solve_seeded_in(
        &self,
        gd: &SignedGraph,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> EngineSolution {
        let (solution, stats) = self.solve_bounded(gd, seed, cx);
        EngineSolution {
            subset: solution.subset.clone(),
            objective: solution.density_difference,
            detail: SolverDetail::Dcsad(solution),
            stats,
        }
    }
}

impl ContrastSolver for NewSea {
    fn name(&self) -> &'static str {
        "newsea"
    }

    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution {
        self.solve_seeded_in(gd, &[], cx)
    }

    fn solve_seeded_in(
        &self,
        gd: &SignedGraph,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> EngineSolution {
        let (solution, stats) = self.solve_bounded(gd, seed, cx);
        dcsga_solution(solution, stats)
    }
}

impl ContrastSolver for SeaCd {
    fn name(&self) -> &'static str {
        "seacd"
    }

    /// The `SEACD+Refine` comparator: one initialisation per vertex of `G_{D+}` with
    /// Algorithm-4 refinement, no smart-initialisation pruning.
    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution {
        let (solution, stats) = self.solve_bounded(gd, cx);
        dcsga_solution(solution, stats)
    }
}

fn dcsga_solution(solution: DcsgaSolution, stats: SolveStats) -> EngineSolution {
    EngineSolution {
        subset: solution.support(),
        objective: solution.affinity_difference,
        detail: SolverDetail::Dcsga(solution),
        stats,
    }
}

/// The greedy peel of `G_D` itself as a [`ContrastSolver`] (the "GD only" comparator
/// of Tables X/XII, and the classical Charikar routine on non-negative inputs).
#[derive(Debug, Clone, Copy, Default)]
pub struct PeelSolver;

impl ContrastSolver for PeelSolver {
    fn name(&self) -> &'static str {
        "greedy-peel"
    }

    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution {
        let mut meter = cx.meter();
        let mut ws = cx.workspace();
        let (peel, _) =
            dcs_densest::greedy_peeling_view_into(GraphView::full(gd), &mut ws.peel, |units| {
                !meter.tick(units)
            });
        meter.note_candidates(1);
        EngineSolution {
            objective: peel.average_degree,
            subset: peel.subset,
            detail: SolverDetail::Subset,
            stats: meter.finish(),
        }
    }
}

/// Goldberg's exact densest subgraph of the positive part `G_{D+}` as a
/// [`ContrastSolver`], evaluated in `G_D` (an exact upper-bound comparator for
/// DCSAD-style mining; accepts signed inputs by construction).
#[derive(Debug, Clone, Copy, Default)]
pub struct GoldbergSolver;

impl ContrastSolver for GoldbergSolver {
    fn name(&self) -> &'static str {
        "goldberg-exact"
    }

    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution {
        let mut meter = cx.meter();
        let mut ws = cx.workspace();
        // `G_{D+}` as a positive-filtered view: no materialised copy, and the flow
        // arena is reused across the binary-search rounds (and across solves when
        // the context carries a shared workspace).
        let (exact, _) = dcs_densest::densest_subgraph_view_until(
            GraphView::full(gd).positive_part(),
            &mut ws.flow,
            |units| !meter.tick(units),
        );
        meter.note_candidates(1);
        EngineSolution {
            objective: gd.average_degree(&exact.subset),
            subset: exact.subset,
            detail: SolverDetail::Subset,
            stats: meter.finish(),
        }
    }
}

/// The single place a [`DensityMeasure`] picks a solver.  Every measure-dispatched
/// layer (top-k, α-sweep, streaming re-mines, the server, the CLI) goes through
/// this enum instead of matching on the measure itself.
#[derive(Debug, Clone)]
pub enum MeasureSolver {
    /// DCSAD: [`DcsGreedy`] (average degree; total degree falls back here too).
    AverageDegree(DcsGreedy),
    /// DCSGA: [`NewSea`] (graph affinity).
    Affinity(NewSea),
}

impl MeasureSolver {
    /// The solver for a measure with default configuration.
    pub fn for_measure(measure: DensityMeasure) -> Self {
        Self::with_config(measure, DcsgaConfig::default())
    }

    /// The solver for a measure, with an explicit DCSGA configuration (ignored by the
    /// average-degree solver, which has none).
    pub fn with_config(measure: DensityMeasure, config: DcsgaConfig) -> Self {
        match measure {
            DensityMeasure::GraphAffinity => MeasureSolver::Affinity(NewSea::new(config)),
            DensityMeasure::AverageDegree | DensityMeasure::TotalDegree => {
                MeasureSolver::AverageDegree(DcsGreedy::default())
            }
        }
    }

    /// The measure this solver mines under.
    pub fn measure(&self) -> DensityMeasure {
        match self {
            MeasureSolver::AverageDegree(_) => DensityMeasure::AverageDegree,
            MeasureSolver::Affinity(_) => DensityMeasure::GraphAffinity,
        }
    }

    /// The working graph a peeling driver should expose through per-round views.
    ///
    /// Both measures now borrow `G_D` outright: average-degree mining always worked
    /// on the signed graph, and affinity mining applies Theorem 5's restriction to
    /// `G_{D+}` as a positive-filtered view inside [`crate::dcsga::NewSea`] — the
    /// positive part is never materialised, so affinity jobs never copy the CSR.
    /// The `Cow` signature is kept for API stability.
    pub fn prepare_working_graph<'a>(
        &self,
        gd: &'a SignedGraph,
    ) -> std::borrow::Cow<'a, SignedGraph> {
        std::borrow::Cow::Borrowed(gd)
    }

    /// Solves on a masked view of a working graph produced by
    /// [`Self::prepare_working_graph`] — the peeling drivers' per-round entry point.
    /// The view replaces the old per-round `remove_vertices_in_place` CSR rewrite:
    /// mined vertices are masked out in O(1) each and the CSR arrays never move.
    pub fn solve_view_seeded_in(
        &self,
        view: GraphView<'_>,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> EngineSolution {
        match self {
            MeasureSolver::AverageDegree(solver) => {
                let (solution, stats) = solver.solve_view_bounded(view, seed, cx);
                EngineSolution {
                    subset: solution.subset.clone(),
                    objective: solution.density_difference,
                    detail: SolverDetail::Dcsad(solution),
                    stats,
                }
            }
            MeasureSolver::Affinity(solver) => {
                let (solution, stats) = solver.solve_on_view_bounded(view, seed, cx);
                dcsga_solution(solution, stats)
            }
        }
    }

    /// Whether a peeling driver has any contrast left to mine on the view.
    ///
    /// This is a short-circuiting scan (it stops at the first surviving qualifying
    /// edge, i.e. essentially O(1) while contrast remains); the terminating round
    /// pays one full O(n + m) pass, which is still cheaper than the wasted solve it
    /// avoids, and cheaper than maintaining a surviving-edge counter would be — that
    /// would need a per-removal adjacency walk, exactly the per-round cost the
    /// masked views eliminate.
    pub fn view_exhausted(&self, view: GraphView<'_>) -> bool {
        // Both measures mine positive contrast: the working graph is the signed
        // `G_D` for either, and an all-non-positive remainder is exhausted.
        !view.has_positive_edge()
    }
}

impl ContrastSolver for MeasureSolver {
    fn name(&self) -> &'static str {
        match self {
            MeasureSolver::AverageDegree(solver) => solver.name(),
            MeasureSolver::Affinity(solver) => solver.name(),
        }
    }

    fn solve_in(&self, gd: &SignedGraph, cx: &SolveContext) -> EngineSolution {
        self.solve_seeded_in(gd, &[], cx)
    }

    fn solve_seeded_in(
        &self,
        gd: &SignedGraph,
        seed: &[VertexId],
        cx: &SolveContext,
    ) -> EngineSolution {
        match self {
            MeasureSolver::AverageDegree(solver) => solver.solve_seeded_in(gd, seed, cx),
            MeasureSolver::Affinity(solver) => solver.solve_seeded_in(gd, seed, cx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcs_graph::GraphBuilder;

    fn triangle_and_pair() -> SignedGraph {
        GraphBuilder::from_edges(
            6,
            vec![
                (0, 1, 4.0),
                (0, 2, 4.0),
                (1, 2, 4.0),
                (3, 4, 1.0),
                (2, 5, -2.0),
            ],
        )
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn meter_enforces_budget_and_cancellation() {
        let cx = SolveContext::unbounded().with_budget(3);
        let mut meter = cx.meter();
        assert!(meter.tick(1));
        assert!(meter.tick(1));
        assert!(!meter.tick(1)); // third unit exhausts the budget
        assert!(!meter.tick(1)); // sticky, and no longer recorded
        let stats = meter.finish();
        assert_eq!(stats.termination, Termination::BudgetExhausted);
        assert_eq!(stats.iterations, 3);

        let token = CancelToken::new();
        let cx = SolveContext::unbounded().with_cancel(&token);
        let mut meter = cx.meter();
        assert!(meter.tick(5));
        token.cancel();
        assert!(!meter.tick(1));
        assert_eq!(meter.finish().termination, Termination::Cancelled);
    }

    #[test]
    fn expired_deadline_stops_on_first_tick() {
        let cx = SolveContext::unbounded().with_deadline(Duration::ZERO);
        let mut meter = cx.meter();
        assert!(!meter.tick(1));
        assert_eq!(meter.finish().termination, Termination::Deadline);
    }

    #[test]
    fn unbounded_engine_matches_direct_solvers() {
        let gd = triangle_and_pair();
        let cx = SolveContext::unbounded();

        let direct = DcsGreedy::default().solve(&gd);
        let engine = DcsGreedy::default().solve_in(&gd, &cx);
        assert_eq!(engine.subset, direct.subset);
        assert_eq!(engine.objective, direct.density_difference);
        assert!(engine.termination().is_converged());

        let direct = NewSea::default().solve(&gd);
        let engine = NewSea::default().solve_in(&gd, &cx);
        assert_eq!(engine.subset, direct.support());
        assert!((engine.objective - direct.affinity_difference).abs() < 1e-12);
        assert!(engine.embedding().is_some());

        let peel = PeelSolver.solve_in(&gd, &cx);
        assert_eq!(peel.subset, dcs_densest::greedy_peeling(&gd).subset);

        let exact = GoldbergSolver.solve_in(&gd, &cx);
        assert_eq!(exact.subset, vec![0, 1, 2]);
        assert!((exact.objective - 8.0).abs() < 1e-6);
    }

    #[test]
    fn cancelled_solve_returns_valid_best_so_far() {
        let gd = triangle_and_pair();
        let token = CancelToken::new();
        token.cancel();
        let cx = SolveContext::unbounded().with_cancel(&token);
        for solver in [
            &MeasureSolver::for_measure(DensityMeasure::AverageDegree) as &dyn ContrastSolver,
            &MeasureSolver::for_measure(DensityMeasure::GraphAffinity),
            &PeelSolver,
            &GoldbergSolver,
        ] {
            let solution = solver.solve_in(&gd, &cx);
            assert_eq!(
                solution.stats.termination,
                Termination::Cancelled,
                "{} did not observe the pre-cancelled token",
                solver.name()
            );
            assert!(solution
                .subset
                .iter()
                .all(|&v| (v as usize) < gd.num_vertices()));
        }
    }

    #[test]
    fn measure_solver_dispatch() {
        let degree = MeasureSolver::for_measure(DensityMeasure::AverageDegree);
        assert_eq!(degree.measure(), DensityMeasure::AverageDegree);
        let total = MeasureSolver::for_measure(DensityMeasure::TotalDegree);
        assert_eq!(total.measure(), DensityMeasure::AverageDegree);
        let affinity = MeasureSolver::for_measure(DensityMeasure::GraphAffinity);
        assert_eq!(affinity.measure(), DensityMeasure::GraphAffinity);

        let gd = triangle_and_pair();
        // Both measures borrow G_D outright: no working-graph copy — the affinity
        // solver positive-filters through the view itself.
        let working = affinity.prepare_working_graph(&gd);
        assert!(matches!(working, std::borrow::Cow::Borrowed(_)));
        let view = GraphView::full(&working);
        assert!(!affinity.view_exhausted(view));
        let solution = affinity.solve_view_seeded_in(view, &[], &SolveContext::unbounded());
        assert_eq!(solution.subset, vec![0, 1, 2]);
        let working = degree.prepare_working_graph(&gd);
        assert!(matches!(working, std::borrow::Cow::Borrowed(_)));
        // A graph whose only remaining edges are negative is exhausted for both.
        let spent = GraphBuilder::from_edges(3, vec![(0, 1, -1.0)]);
        assert!(affinity.view_exhausted(GraphView::full(&spent)));
        assert!(degree.view_exhausted(GraphView::full(&spent)));
    }

    #[test]
    fn workspace_reuse_is_transparent() {
        let gd = triangle_and_pair();
        let shared = crate::workspace::SharedWorkspace::new();
        let warm_cx = SolveContext::unbounded().with_workspace(&shared);
        assert!(warm_cx.has_workspace());
        assert!(warm_cx.is_unbounded(), "a workspace is not a bound");
        let cold_cx = SolveContext::unbounded();
        for solver in [
            &MeasureSolver::for_measure(DensityMeasure::AverageDegree) as &dyn ContrastSolver,
            &MeasureSolver::for_measure(DensityMeasure::GraphAffinity),
            &PeelSolver,
            &GoldbergSolver,
        ] {
            let cold = solver.solve_in(&gd, &cold_cx);
            // Repeated warm solves over one workspace: identical answers.
            for _ in 0..3 {
                let warm = solver.solve_in(&gd, &warm_cx);
                assert_eq!(warm.subset, cold.subset, "{} diverged", solver.name());
                assert_eq!(warm.objective, cold.objective);
            }
        }
        // ensure_workspace attaches one exactly when missing.
        assert!(cold_cx.ensure_workspace().has_workspace());
        let kept = warm_cx.ensure_workspace();
        assert!(kept.has_workspace());
    }

    #[test]
    fn after_work_reduces_only_the_budget() {
        let cx = SolveContext::unbounded().with_budget(100);
        let next = cx.after_work(60);
        let mut meter = next.meter();
        assert!(meter.tick(30));
        assert!(!meter.tick(30)); // 40 − 30 − 30 < 0
                                  // An unbounded context is unaffected.
        assert!(SolveContext::unbounded()
            .after_work(1_000_000)
            .is_unbounded());
    }

    #[test]
    fn stats_absorb_aggregates_and_keeps_first_failure() {
        let mut total = SolveStats::default();
        let converged_first = SolveStats {
            iterations: 2,
            candidates: 1,
            wall: Duration::from_millis(3),
            ..Default::default()
        };
        total.absorb(&converged_first);
        // Converged rounds leave the aggregate converged.
        assert_eq!(total.termination, Termination::Converged);
        assert_eq!(total.wall, Duration::from_millis(3));

        let truncated = SolveStats {
            iterations: 10,
            prunes: 4,
            wall: Duration::from_millis(7),
            termination: Termination::Deadline,
            ..Default::default()
        };
        total.absorb(&truncated);
        assert_eq!(total.termination, Termination::Deadline);

        // A later failure does not displace the first one, and a later
        // converged round does not reset it; counters and wall time keep
        // adding throughout.
        let cancelled = SolveStats {
            iterations: 3,
            wall: Duration::from_millis(5),
            termination: Termination::Cancelled,
            ..Default::default()
        };
        total.absorb(&cancelled);
        assert_eq!(total.termination, Termination::Deadline);
        let converged = SolveStats {
            iterations: 5,
            wall: Duration::from_millis(1),
            ..Default::default()
        };
        total.absorb(&converged);
        assert_eq!(total.iterations, 20);
        assert_eq!(total.candidates, 1);
        assert_eq!(total.prunes, 4);
        assert_eq!(total.wall, Duration::from_millis(16));
        assert_eq!(total.termination, Termination::Deadline);
    }
}

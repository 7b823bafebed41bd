//! `batch-large`: an offline analyst calling the library in a closed loop on
//! one large pair — DCSAD mine, NewSEA mine, top-5 and a 9-point α-sweep.

use std::collections::BTreeMap;
use std::time::Instant;

use dcs_core::dcsad::DcsGreedy;
use dcs_core::dcsga::{DcsgaConfig, NewSea};
use dcs_core::{
    alpha_sweep_in, default_alpha_grid, difference_graph, top_k_in, ContrastSolver, DensityMeasure,
    SharedWorkspace, SolveContext, SolveStats,
};
use dcs_graph::{GraphPack, SignedGraph, VertexId};
use serde_json::json;

use crate::inputs::{self, PackedPair};
use crate::report::{self, Metrics, Tally, WorkDir};
use crate::spans::{self, phase_table, set_solver_layers, PhaseSums, Tracer};
use crate::{probe, stats, Outcome, RunArgs};

const SOLVER_THREADS: usize = 2;
const TOP_K: usize = 5;
const SETUP_REPEATS: usize = 11;

/// Subsets and objective bits of one operation's result.
type Fingerprint = Vec<(Vec<VertexId>, u64)>;

struct Graphs {
    g1: SignedGraph,
    g2: SignedGraph,
    gd: SignedGraph,
}

struct SetupTiming {
    total_s: f64,
    pack_open_s: f64,
    diff_s: f64,
}

fn open_pair(pair: &PackedPair) -> (Graphs, SetupTiming) {
    let start = Instant::now();
    let open = |path| {
        GraphPack::open(path)
            .and_then(|pack| pack.to_graph())
            .expect("generated packs open")
    };
    let g1 = open(&pair.g1_pack);
    let g2 = open(&pair.g2_pack);
    let opened = Instant::now();
    let gd = difference_graph(&g2, &g1).expect("the pair shares its vertex set");
    let done = Instant::now();
    let timing = SetupTiming {
        total_s: (done - start).as_secs_f64(),
        pack_open_s: (opened - start).as_secs_f64(),
        diff_s: (done - opened).as_secs_f64(),
    };
    (Graphs { g1, g2, gd }, timing)
}

/// The four operations of one analyst cycle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum Op {
    MineAd,
    MineGa,
    TopK,
    Sweep,
}

const OPS: [Op; 4] = [Op::MineAd, Op::MineGa, Op::TopK, Op::Sweep];

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::MineAd => "mine_ad",
            Op::MineGa => "mine_ga",
            Op::TopK => "topk",
            Op::Sweep => "sweep",
        }
    }
}

struct OpResult {
    fingerprint: Fingerprint,
    stats: SolveStats,
    /// Rounds (top-k) or grid points (sweep) the operation ran.
    parts: usize,
}

fn call(op: Op, graphs: &Graphs, cx: &SolveContext) -> OpResult {
    match op {
        Op::MineAd | Op::MineGa => {
            let solution = if op == Op::MineAd {
                DcsGreedy::default().solve_in(&graphs.gd, cx)
            } else {
                NewSea::default().solve_in(&graphs.gd, cx)
            };
            OpResult {
                fingerprint: vec![(solution.subset, solution.objective.to_bits())],
                stats: solution.stats,
                parts: 1,
            }
        }
        Op::TopK => {
            let outcome = top_k_in(
                &graphs.gd,
                TOP_K,
                DensityMeasure::AverageDegree,
                DcsgaConfig::default(),
                cx,
            );
            let parts = outcome.solutions.len();
            OpResult {
                fingerprint: outcome
                    .solutions
                    .into_iter()
                    .map(|s| (s.subset, s.objective.to_bits()))
                    .collect(),
                stats: outcome.stats,
                parts,
            }
        }
        Op::Sweep => {
            let sweep = alpha_sweep_in(
                &graphs.g2,
                &graphs.g1,
                &default_alpha_grid(),
                DensityMeasure::AverageDegree,
                cx,
            )
            .expect("the default grid is valid");
            let parts = sweep.points.len();
            OpResult {
                fingerprint: sweep
                    .points
                    .into_iter()
                    .map(|p| (p.subset, p.objective.to_bits()))
                    .collect(),
                stats: sweep.stats,
                parts,
            }
        }
    }
}

#[derive(Default)]
struct Phase {
    cycles_s: Vec<f64>,
    op_s: BTreeMap<Op, Vec<f64>>,
    per_part_ms: BTreeMap<Op, Vec<f64>>,
    ga_stats: Vec<SolveStats>,
    traces: BTreeMap<Op, Vec<PhaseSums>>,
    elapsed_s: f64,
    tally: Tally,
}

fn measure(
    graphs: &Graphs,
    cx: &SolveContext,
    reference: Option<&BTreeMap<Op, Fingerprint>>,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Phase {
    let mut phase = Phase::default();
    let start = Instant::now();
    // At least one cycle, then whole cycles until `seconds` have passed.
    while phase.cycles_s.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let cycle_start = Instant::now();
        for op in OPS {
            let op_start = Instant::now();
            let result = std::hint::black_box(call(op, graphs, cx));
            let op_end = Instant::now();
            phase
                .op_s
                .entry(op)
                .or_default()
                .push((op_end - op_start).as_secs_f64());
            phase
                .per_part_ms
                .entry(op)
                .or_default()
                .push((op_end - op_start).as_secs_f64() * 1e3 / result.parts.max(1) as f64);
            if op == Op::MineGa {
                phase.ga_stats.push(result.stats.clone());
            }
            if let Some(reference) = reference {
                phase.tally.check(
                    result.fingerprint == reference[&op],
                    &format!("{} result differs from the reference", op.name()),
                );
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                let events = tracer.drain();
                let mine = spans::attribute(tracer.interval(op_start, op_end), &events);
                phase
                    .traces
                    .entry(op)
                    .or_default()
                    .push(spans::phase_sums(&mine));
            }
        }
        phase.cycles_s.push(cycle_start.elapsed().as_secs_f64());
    }
    phase.elapsed_s = start.elapsed().as_secs_f64();
    phase
}

pub fn run(args: &RunArgs, work: &WorkDir) -> Outcome {
    // Inputs, untimed.
    let pair = inputs::prepare(&args.workload, args.seed, &work.subdir("packs"));
    report::reset_peak_rss();

    // Set-up: open both packs and build G_D, several times.
    let mut setups = Vec::new();
    let mut graphs = None;
    let setup_cpu = report::CpuTimes::now();
    for _ in 0..SETUP_REPEATS {
        let (opened, timing) = open_pair(&pair);
        setups.push(timing);
        graphs = Some(opened);
    }
    let setup_steal = report::CpuTimes::now().steal_frac_since(&setup_cpu);
    let graphs = graphs.expect("at least one set-up");
    let setup_s: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
    let pack_open_s: Vec<f64> = setups.iter().map(|t| t.pack_open_s).collect();
    let diff_s: Vec<f64> = setups.iter().map(|t| t.diff_s).collect();

    // Reference results, untimed; they also warm every lazy buffer.
    let workspace = SharedWorkspace::new();
    let cx = SolveContext::unbounded()
        .with_threads(SOLVER_THREADS)
        .with_workspace(&workspace);
    let reference: BTreeMap<Op, Fingerprint> = OPS
        .iter()
        .map(|&op| (op, call(op, &graphs, &cx).fingerprint))
        .collect();
    let topk_subsets: Vec<Vec<VertexId>> = reference[&Op::TopK]
        .iter()
        .map(|(s, _)| s.clone())
        .collect();
    let jaccard = inputs::planted_jaccard(&pair.planted, &topk_subsets);

    let cpu_before = report::CpuTimes::now();
    let untraced = measure(&graphs, &cx, Some(&reference), args.seconds, None);
    let steal = report::CpuTimes::now().steal_frac_since(&cpu_before);
    let mut tally = untraced.tally;
    let cycle_p50_ms = report::median_ms(&untraced.cycles_s);
    let mut metrics = Metrics::default();
    let mut detail = json!({
        "cycle_ms": report::latency_summary(&report::to_ms(untraced.cycles_s.iter().copied())),
    });
    report::EndToEnd {
        setup_s,
        setup_steal,
        ops_per_s: untraced.cycles_s.len() as f64 / untraced.elapsed_s,
        op_steal: steal,
        peak_rss_mb: report::peak_rss_mb(),
    }
    .report(&mut metrics, &mut detail);
    for op in OPS {
        detail[format!("{}_ms", op.name()).as_str()] =
            report::latency_summary(&report::to_ms(untraced.op_s[&op].iter().copied()));
    }

    if args.trace {
        let mut tracer = Tracer::enable();
        let traced_cpu = report::CpuTimes::now();
        let traced = measure(
            &graphs,
            &cx,
            Some(&reference),
            args.seconds,
            Some(&mut tracer),
        );
        let traced_steal = report::CpuTimes::now().steal_frac_since(&traced_cpu);
        tally.absorb(traced.tally);
        let traced_p50 = report::median_ms(&traced.cycles_s);
        metrics.set(
            "obs.trace_overhead_frac",
            report::trace_overhead(traced_p50, traced_steal, cycle_p50_ms, steal),
        );
        metrics.set("obs.trace_dropped", tracer.dropped() as f64);
        metrics.set("graph.pack_open_ms", report::median_ms(&pack_open_s));
        metrics.set("core.diff_build_ms", report::median_ms(&diff_s));
        set_library_layers(&mut metrics, &traced);
        metrics.set("quality.planted_jaccard", jaccard);
        detail["traced_cycle_ms"] =
            report::latency_summary(&report::to_ms(traced.cycles_s.iter().copied()));
        let probed = probe::fill_missing(&mut metrics, &pair, args.seed, work);
        detail["probed"] = json!(probed);
        detail["phases"] = json!(OPS
            .iter()
            .map(|&op| (op.name(), phase_table(&traced.traces[&op])))
            .collect::<BTreeMap<_, _>>());
    }
    metrics.set("error_frac", tally.error_frac());

    Outcome {
        provenance: json!({
            "vertices": pair.vertices,
            "g1_edges": pair.g1_edges,
            "g2_edges": pair.g2_edges,
            "planted_groups": pair.planted.iter().map(Vec::len).collect::<Vec<_>>(),
            "solver_threads": SOLVER_THREADS,
            "top_k": TOP_K,
            "alpha_points": default_alpha_grid().len(),
            "setup_repeats": SETUP_REPEATS,
            "loop": "closed, one thread",
        }),
        detail,
        metrics,
        tally,
    }
}

/// Sets the library per-layer metrics of a traced phase: affinity solve
/// statistics, top-k round and sweep point times, peel and DCSGA phases.
fn set_library_layers(metrics: &mut Metrics, traced: &Phase) {
    let ga = &traced.ga_stats;
    let stat = |f: fn(&SolveStats) -> f64| {
        stats::median(&ga.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    metrics.set("core.solve_iterations", stat(|s| s.iterations as f64));
    metrics.set("core.solve_candidates", stat(|s| s.candidates as f64));
    metrics.set("core.solve_prunes", stat(|s| s.prunes as f64));
    metrics.set(
        "core.prune_ratio",
        stat(|s| s.prunes as f64 / (s.candidates.max(1)) as f64),
    );
    let part_ms = |op| stats::median(&traced.per_part_ms[&op]).unwrap_or(0.0);
    metrics.set("core.topk_round_ms", part_ms(Op::TopK));
    metrics.set("core.sweep_point_ms", part_ms(Op::Sweep));
    set_solver_layers(
        metrics,
        &traced.traces[&Op::MineAd],
        &traced.traces[&Op::MineGa],
    );
}

/// The library layers measured on another workload's pair: `G_D` built once
/// (timed) and one traced analyst cycle, unchecked.
pub fn probe_library(pair: &PackedPair) -> Metrics {
    let (graphs, timing) = open_pair(pair);
    let workspace = SharedWorkspace::new();
    let cx = SolveContext::unbounded()
        .with_threads(SOLVER_THREADS)
        .with_workspace(&workspace);
    let mut tracer = Tracer::enable();
    let traced = measure(&graphs, &cx, None, 0.0, Some(&mut tracer));
    let mut metrics = Metrics::default();
    metrics.set("core.diff_build_ms", timing.diff_s * 1e3);
    set_library_layers(&mut metrics, &traced);
    metrics
}

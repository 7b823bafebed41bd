//! Hot-path allocation benchmark of the solver workspaces and masked views.
//!
//! Measures, with a **counting global allocator** (every `alloc`/`realloc` call and
//! its bytes are tallied — bench-binary only, the library crates never carry the
//! instrumentation), how much heap churn one solve costs, for **both density
//! measures**:
//!
//! * **mine** — a from-scratch `mine_difference_in` with no workspace: every solve
//!   allocates its peel heaps, degree arrays and transient scratch.  This is the
//!   baseline the ≥2× reduction gate is measured against.
//! * **re-mine** — the steady-state streaming path: `StreamingDcs::mine_now` with
//!   the monitor's persistent `SolverWorkspace` warm.
//! * **top-k** — per-round allocations of the masked-view `top_k_in` driver with a
//!   warm shared workspace, against a from-scratch reference loop that clones the
//!   working graph and compacts it with `remove_vertices_in_place` per round (the
//!   pre-workspace driver shape).
//! * **sweep** — per-grid-point allocations of `alpha_sweep_in` (template-based
//!   in-place reweighting + shared workspace) against a cold loop building each α
//!   through `scaled_difference_graph` and solving without a workspace.
//!
//! The first two paths and the sweep are measured twice: under the **average
//! degree** measure (DCSGreedy peel) and, in the `dcsga` section, under the **graph
//! affinity** measure (NewSEA over the positive-filtered view, with the dense
//! workspace-backed embedding arena warm in the steady state).
//!
//! Output is a single JSON object written to `BENCH_hotpath.json` (and stdout).  In
//! `--smoke` mode the binary **fails** (exit 1) unless the steady-state re-mine
//! (both measures) and top-k round paths allocate at most half of what the
//! from-scratch solve does, and — when `--baseline <path>` points at a checked-in
//! previous report — unless every gated allocation metric is within 10% of that
//! baseline.  Timings (`ns_per_solve`) are reported for trend-watching but never
//! gated: absolute nanoseconds on CI machines are too noisy (the `--large` peel
//! gate below is a ratio of two paths timed side by side in one process).
//!
//! Two opt-in sections extend the core allocation suite: `--large` (a ≥2×
//! indexed-heap over lazy-heap peel gate from interleaved medians, plus
//! thread-count bit-identity, at million-edge scale) and `--load`
//! (cold-load wall clock and allocations of the text edge-list parser against
//! the zero-copy graph-pack reader, gating a ≥10× pack speedup and the
//! O(header) open-allocation contract of the mmap path).
//!
//! ```text
//! cargo run --release -p dcs-bench --bin solver_hotpath -- [--smoke] [--large] \
//!     [--load] [--pack-dir DIR] [--baseline BENCH_hotpath.json] [--out BENCH_hotpath.json]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dcs_core::dcsga::DcsgaConfig;
use dcs_core::{
    mine_difference_in, scaled_difference_graph, top_k_in, ContrastSolver, DensityMeasure,
    MeasureSolver, SharedWorkspace, SolveContext, StreamingConfig, StreamingDcs,
};
use dcs_graph::{GraphBuilder, SignedGraph, VertexId};
use serde_json::{json, Value};

/// Counts every allocation the process makes.  `realloc` counts as one allocation
/// of the new size (growth of a reused buffer is real allocator traffic too).
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Allocation + wall-clock tally of one measured closure.
struct Measured {
    allocs: u64,
    bytes: u64,
    nanos: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> (T, Measured) {
    let allocs0 = ALLOCATIONS.load(Ordering::Relaxed);
    let bytes0 = BYTES.load(Ordering::Relaxed);
    let start = Instant::now();
    let value = f();
    let nanos = start.elapsed().as_nanos() as u64;
    (
        value,
        Measured {
            allocs: ALLOCATIONS.load(Ordering::Relaxed) - allocs0,
            bytes: BYTES.load(Ordering::Relaxed) - bytes0,
            nanos,
        },
    )
}

/// Deterministic splitmix64 — keeps the workload identical across runs, which is
/// what makes allocation counts comparable against a checked-in baseline.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn weight(&mut self) -> f64 {
        1.0 + (self.next() % 1000) as f64 / 250.0
    }
}

struct BenchConfig {
    vertices: usize,
    baseline_edges: usize,
    repetitions: usize,
    topk: usize,
}

fn build_baseline(config: &BenchConfig, rng: &mut Rng) -> SignedGraph {
    let n = config.vertices;
    let mut builder = GraphBuilder::new(n);
    for v in 0..n {
        builder.add_edge(v as VertexId, ((v + 1) % n) as VertexId, rng.weight());
    }
    while builder.num_edges() < config.baseline_edges {
        let u = rng.below(n);
        let v = rng.below(n);
        if u != v {
            builder.add_edge(u as VertexId, v as VertexId, rng.weight());
        }
    }
    builder.build()
}

fn per(m: &Measured, count: usize) -> (f64, f64, f64) {
    let count = count.max(1) as f64;
    (
        m.allocs as f64 / count,
        m.bytes as f64 / count,
        m.nanos as f64 / count,
    )
}

fn path_json(label: &str, m: &Measured, count: usize) -> Value {
    let (allocs, bytes, nanos) = per(m, count);
    json!({
        "path": label,
        "allocs_per_solve": allocs,
        "bytes_per_solve": bytes,
        "ns_per_solve": nanos,
    })
}

/// Median and quartiles (`[q1, median, q3]`, nearest rank) of a timing sample.
fn quartiles(samples: &mut [u64]) -> [u64; 3] {
    samples.sort_unstable();
    let at = |q: usize| samples[(samples.len() - 1) * q / 4];
    [at(1), at(2), at(3)]
}

/// The `--large` section at million-edge scale (a 20k-vertex pair under
/// `--smoke`):
///
/// * **peel gate** — the production indexed-heap peel of `G_D` against the
///   lazy binary-heap peel it replaced, timed as interleaved samples in this
///   process (the two alternate, so machine drift hits both equally).  The
///   median lazy-heap time must be at least 2× the median indexed-heap time,
///   on every run and every machine; both peels must remove the vertices in
///   the same order and return the same subset and density bits.
/// * **thread bit-identity** — average-degree mining and top-k at
///   `--threads 1` and `--threads 4` must return bit-identical supports and
///   objectives.  Their wall clocks are reported; the >10% wall-clock
///   regression gate against a checked-in baseline with a `large` section
///   applies only on machines with at least 4 cores and the same core count
///   and workload as the baseline.
fn run_large_section(smoke: bool, baseline: Option<&Value>) -> (Value, bool) {
    use dcs_datasets::large::{generate, LargeConfig};
    use dcs_densest::peel::LazyHeapQueue;
    use dcs_densest::{greedy_peeling_view_into, greedy_peeling_view_with, PeelWorkspace};
    use dcs_graph::GraphView;

    let config = if smoke {
        LargeConfig {
            vertices: 20_000,
            edges: 200_000,
            group_sizes: vec![24, 16],
            ..LargeConfig::benchmark()
        }
    } else {
        LargeConfig::benchmark()
    };
    let repetitions = if smoke { 2 } else { 3 };
    eprintln!(
        "large: generating {} vertices / {} target background edges ...",
        config.vertices, config.edges
    );
    let pair = generate(&config);
    let gd = dcs_core::difference_graph(&pair.g2, &pair.g1).unwrap();

    // Peel gate: interleaved samples, one untimed warm-up pair first.
    let peel_samples = if smoke { 11 } else { 7 };
    let view = GraphView::full(&gd);
    let mut indexed_ws = PeelWorkspace::new();
    let mut lazy_ws = PeelWorkspace::new();
    let mut indexed_ns = Vec::with_capacity(peel_samples);
    let mut lazy_ns = Vec::with_capacity(peel_samples);
    for sample in 0..=peel_samples {
        let mut peel_indexed =
            || measure(|| greedy_peeling_view_into(view, &mut indexed_ws, |_| false).0);
        let mut peel_lazy = || {
            measure(|| {
                greedy_peeling_view_with::<LazyHeapQueue, _>(view, &mut lazy_ws, |_| false).0
            })
        };
        let ((indexed, indexed_time), (lazy, lazy_time)) = if sample % 2 == 0 {
            let first = peel_indexed();
            (first, peel_lazy())
        } else {
            let first = peel_lazy();
            (peel_indexed(), first)
        };
        if sample > 0 {
            indexed_ns.push(indexed_time.nanos);
            lazy_ns.push(lazy_time.nanos);
        }
        assert_eq!(
            indexed_ws.removal_order(),
            lazy_ws.removal_order(),
            "indexed-heap and lazy-heap peels must remove vertices in the same order"
        );
        assert_eq!(indexed.subset, lazy.subset);
        assert_eq!(
            indexed.average_degree.to_bits(),
            lazy.average_degree.to_bits(),
            "indexed-heap peel density must be bit-identical to the lazy-heap peel"
        );
    }
    let indexed_q = quartiles(&mut indexed_ns);
    let lazy_q = quartiles(&mut lazy_ns);
    let peel_speedup = lazy_q[1] as f64 / indexed_q[1].max(1) as f64;
    let mut failed = false;
    if peel_speedup < 2.0 {
        eprintln!(
            "FAIL: indexed-heap peel is only {peel_speedup:.2}x faster than the lazy-heap \
             peel (median {} ns vs {} ns over {peel_samples} interleaved samples)",
            indexed_q[1], lazy_q[1]
        );
        failed = true;
    }

    let streaming_config = StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::AverageDegree,
    };
    let ws1 = SharedWorkspace::new();
    let ws4 = SharedWorkspace::new();
    let cx1 = SolveContext::unbounded()
        .with_workspace(&ws1)
        .with_threads(1);
    let cx4 = SolveContext::unbounded()
        .with_workspace(&ws4)
        .with_threads(4);
    let mine =
        |cx: &SolveContext| mine_difference_in(&gd, &streaming_config, repetitions, None, cx);

    // Warm both workspaces outside the measured window.
    let warm1 = mine(&cx1);
    let warm4 = mine(&cx4);
    assert_eq!(
        warm1.report.subset, warm4.report.subset,
        "parallel mine must find the identical support"
    );

    let (alert1, remine1) = measure(|| {
        let mut last = None;
        for _ in 0..repetitions {
            last = Some(mine(&cx1));
        }
        last.expect("at least one repetition")
    });
    let (alert4, remine4) = measure(|| {
        let mut last = None;
        for _ in 0..repetitions {
            last = Some(mine(&cx4));
        }
        last.expect("at least one repetition")
    });
    assert_eq!(alert1.report.subset, alert4.report.subset);
    assert_eq!(
        alert1.report.average_degree_difference.to_bits(),
        alert4.report.average_degree_difference.to_bits(),
        "parallel mine must be bit-identical"
    );
    assert!(!alert1.report.subset.is_empty(), "large mine found nothing");

    let k = pair.planted.len() + 2;
    let topk = |cx: &SolveContext| {
        top_k_in(
            &gd,
            k,
            DensityMeasure::AverageDegree,
            DcsgaConfig::default(),
            cx,
        )
    };
    let _ = topk(&cx1); // warm
    let _ = topk(&cx4);
    let (outcome1, topk1) = measure(|| topk(&cx1));
    let (outcome4, topk4) = measure(|| topk(&cx4));
    assert_eq!(outcome1.solutions.len(), outcome4.solutions.len());
    for (a, b) in outcome1.solutions.iter().zip(&outcome4.solutions) {
        assert_eq!(a.subset, b.subset, "top-k supports must match per rank");
        assert_eq!(
            a.objective.to_bits(),
            b.objective.to_bits(),
            "top-k objectives must be bit-identical"
        );
    }

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    // Wall-clock baselines only transfer between runs of the same shape: the
    // same smoke/full workload on a machine with the same core count.  Absolute
    // nanoseconds from a differently-sized box gate nothing but noise.
    let baseline_large = baseline.and_then(|v| v.get("large"));
    let baseline_comparable = baseline_large
        .and_then(|l| l.get("cores"))
        .and_then(Value::as_u64)
        == Some(cores as u64)
        && baseline_large
            .and_then(|l| l.get("graph"))
            .and_then(|g| g.get("vertices"))
            .and_then(Value::as_u64)
            == Some(config.vertices as u64);
    let wall_gate = cores >= 4 && baseline_comparable;
    if wall_gate {
        // Wall-clock regression gate vs the checked-in baseline's large section.
        let checks: [(&str, f64, &[&str]); 2] = [
            (
                "large.remine.threads4.ns_per_solve",
                remine4.nanos as f64 / repetitions as f64,
                &["large", "remine", "threads4", "ns_per_solve"],
            ),
            (
                "large.topk.threads4.ns_per_solve",
                topk4.nanos as f64,
                &["large", "topk", "threads4", "ns_per_solve"],
            ),
        ];
        for (label, current, keys) in checks {
            let mut node = baseline;
            for key in keys {
                node = node.and_then(|v| v.get(key));
            }
            let Some(reference) = node.and_then(Value::as_f64) else {
                eprintln!("warning: baseline lacks {label}; skipping wall regression gate");
                continue;
            };
            if reference > 0.0 && current > reference * 1.10 {
                eprintln!(
                    "FAIL: {label} regressed: {current:.0} ns vs baseline {reference:.0} ns (>10%)"
                );
                failed = true;
            }
        }
    } else {
        eprintln!(
            "large: wall-regression gate skipped ({})",
            if cores < 4 {
                format!("{cores} cores < 4")
            } else {
                "baseline from a different workload or core count".to_string()
            }
        );
    }

    let section = json!({
        "graph": {
            "vertices": config.vertices,
            "difference_edges": gd.num_edges(),
        },
        "repetitions": repetitions,
        "cores": cores,
        "gates": {
            "peel_speedup": "enforced",
            "wall_regression": if wall_gate { "enforced" } else { "skipped" },
        },
        "bit_identical": true,
        "peel": {
            "samples": peel_samples,
            "indexed_heap": { "ns_q1": indexed_q[0], "ns_median": indexed_q[1], "ns_q3": indexed_q[2] },
            "lazy_heap": { "ns_q1": lazy_q[0], "ns_median": lazy_q[1], "ns_q3": lazy_q[2] },
            "speedup": peel_speedup,
        },
        "remine": {
            "threads1": { "ns_per_solve": remine1.nanos as f64 / repetitions as f64 },
            "threads4": { "ns_per_solve": remine4.nanos as f64 / repetitions as f64 },
        },
        "topk": {
            "k": k,
            "rounds": outcome1.solutions.len(),
            "threads1": { "ns_per_solve": topk1.nanos },
            "threads4": { "ns_per_solve": topk4.nanos },
        },
    });
    (section, failed)
}

/// The `--load` section: cold-load comparison of the text edge-list parser
/// against the zero-copy graph-pack path at large-graph scale.  Three numbers
/// per path (allocations, bytes, wall clock), two gates:
///
/// * **speedup** — `GraphPack::open` + `to_graph` must be ≥ 10× faster than
///   parsing the equivalent text edge list (a same-machine ratio, so it is
///   enforced everywhere, smoke and full alike).
/// * **open allocations** — on the mmap path, opening a pack must allocate
///   O(header) bytes (≤ 64 KiB) regardless of pack size: the CSR payload
///   stays in the kernel mapping.  Skipped when the platform falls back to
///   read-into-memory (`is_mapped() == false`).
///
/// The packs are produced by the **streaming** writer (`generate_packs`), so
/// the section doubly serves as an end-to-end run of the dataset-to-pack
/// pipeline.  `--pack-dir DIR` keeps the generated artifacts for reuse across
/// runs (CI caches them keyed on the generator sources); without it the files
/// live in a per-process temp directory and are removed afterwards.
fn run_load_section(smoke: bool, pack_dir: Option<&str>) -> (Value, bool) {
    use dcs_datasets::large::{generate_packs, LargeConfig};
    use dcs_graph::io::{read_edge_list_file, write_edge_list_file};
    use dcs_graph::GraphPack;
    use std::path::PathBuf;

    let config = if smoke {
        LargeConfig {
            vertices: 20_000,
            edges: 200_000,
            group_sizes: vec![24, 16],
            ..LargeConfig::benchmark()
        }
    } else {
        LargeConfig::benchmark()
    };
    let repetitions = 3usize;

    let (dir, ephemeral) = match pack_dir {
        Some(dir) => (PathBuf::from(dir), false),
        None => (
            std::env::temp_dir().join(format!("dcs_hotpath_load_{}", std::process::id())),
            true,
        ),
    };
    std::fs::create_dir_all(&dir).expect("create pack directory");
    let stem = format!("load_{}v_{}e", config.vertices, config.edges);
    let g1_pack = dir.join(format!("{stem}.g1.dcspack"));
    let g2_pack = dir.join(format!("{stem}.g2.dcspack"));
    let text = dir.join(format!("{stem}.g1.edges"));

    // Generation is pinned-seed and byte-identical, so a cached pack of the
    // right scale is interchangeable with a fresh one.  Anything that does not
    // open cleanly is regenerated.
    let cached = !ephemeral
        && text.exists()
        && g2_pack.exists()
        && GraphPack::open(&g1_pack)
            .map(|p| p.vertices() == config.vertices)
            .unwrap_or(false);
    if !cached {
        eprintln!(
            "load: streaming {} vertices / {} target background edges into packs ...",
            config.vertices, config.edges
        );
        generate_packs(&config, &g1_pack, &g2_pack).expect("stream packs to disk");
        let g1 = GraphPack::open(&g1_pack)
            .expect("open freshly written pack")
            .to_graph()
            .expect("decode freshly written pack");
        write_edge_list_file(&g1, &text).expect("write text edge list");
    }

    // Text parse: the pre-pack cold-load path.
    let (text_graph, parse) = measure(|| {
        let mut last = None;
        for _ in 0..repetitions {
            last = Some(read_edge_list_file(&text).expect("parse text edge list"));
        }
        last.expect("at least one repetition")
    });

    // Pack open alone: the O(header) eager work (magic, checksums, bounds).
    let (probe_pack, open) = measure(|| {
        let mut last = None;
        for _ in 0..repetitions {
            last = Some(GraphPack::open(&g1_pack).expect("open pack"));
        }
        last.expect("at least one repetition")
    });
    let mapped = probe_pack.is_mapped();

    // Pack open + decode to a solver-ready graph: the end-to-end comparison
    // against the text parse.
    let (pack_graph, load) = measure(|| {
        let mut last = None;
        for _ in 0..repetitions {
            let pack = GraphPack::open(&g1_pack).expect("open pack");
            last = Some(pack.to_graph().expect("decode pack"));
        }
        last.expect("at least one repetition")
    });
    // Read-into-memory fallback, reported for trend-watching, never gated (it
    // is the degraded path for platforms without a usable mmap).
    let (_, buffered) = measure(|| {
        GraphPack::open_buffered(&g1_pack)
            .expect("open pack buffered")
            .to_graph()
            .expect("decode buffered pack")
    });

    // The text round trip cannot represent trailing isolated vertices (an edge
    // list has no vertex-count record), so equality is on the edge sequences:
    // same CSR order, same endpoints, bit-identical weights.
    assert_eq!(text_graph.num_edges(), pack_graph.num_edges());
    assert!(
        text_graph.edges().eq(pack_graph.edges()),
        "pack decode and text parse must produce identical edges"
    );

    let (parse_allocs, parse_bytes, parse_ns) = per(&parse, repetitions);
    let (open_allocs, open_bytes, open_ns) = per(&open, repetitions);
    let (load_allocs, load_bytes, load_ns) = per(&load, repetitions);
    let speedup = parse_ns / load_ns.max(1.0);
    let pack_bytes = std::fs::metadata(&g1_pack).map(|m| m.len()).unwrap_or(0);
    let text_bytes = std::fs::metadata(&text).map(|m| m.len()).unwrap_or(0);

    let mut failed = false;
    if speedup < 10.0 {
        eprintln!(
            "FAIL: pack load is only {speedup:.1}x faster than text parse \
             ({load_ns:.0} ns vs {parse_ns:.0} ns; >= 10x required)"
        );
        failed = true;
    }
    const OPEN_BYTES_CEILING: f64 = 64.0 * 1024.0;
    if mapped {
        if open_bytes > OPEN_BYTES_CEILING {
            eprintln!(
                "FAIL: mmap pack open allocates {open_bytes:.0} bytes for a {pack_bytes}-byte \
                 pack (O(header) contract: <= {OPEN_BYTES_CEILING:.0} bytes)"
            );
            failed = true;
        }
    } else {
        eprintln!("load: open-allocation gate skipped (mmap unavailable, buffered fallback)");
    }

    let section = json!({
        "graph": {
            "vertices": config.vertices,
            "edges": text_graph.num_edges(),
        },
        "repetitions": repetitions,
        "cached_packs": cached,
        "pack_file_bytes": pack_bytes,
        "text_file_bytes": text_bytes,
        "mapped": mapped,
        "gates": {
            "speedup": "enforced",
            "open_allocs": if mapped { "enforced" } else { "skipped" },
        },
        "text_parse": {
            "allocs_per_load": parse_allocs,
            "bytes_per_load": parse_bytes,
            "ns_per_load": parse_ns,
        },
        "pack_open": {
            "allocs_per_open": open_allocs,
            "bytes_per_open": open_bytes,
            "ns_per_open": open_ns,
        },
        "pack_load": {
            "allocs_per_load": load_allocs,
            "bytes_per_load": load_bytes,
            "ns_per_load": load_ns,
        },
        "buffered_load": { "ns_per_load": buffered.nanos },
        "speedup_vs_text_parse": speedup,
    });
    if ephemeral {
        std::fs::remove_dir_all(&dir).ok();
    }
    (section, failed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help") {
        println!(
            "usage: solver_hotpath [--smoke] [--large] [--load] [--pack-dir DIR] \
             [--baseline BENCH_hotpath.json] [--out PATH]"
        );
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let large = args.iter().any(|a| a == "--large");
    let load = args.iter().any(|a| a == "--load");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let baseline_path = flag_value("--baseline");
    let pack_dir = flag_value("--pack-dir");
    let out_path = flag_value("--out").unwrap_or_else(|| "BENCH_hotpath.json".to_string());
    let baseline_json: Option<Value> =
        baseline_path
            .as_ref()
            .and_then(|path| match std::fs::read_to_string(path) {
                Ok(text) => match serde_json::from_str::<Value>(&text) {
                    Ok(previous) => Some(previous),
                    Err(error) => {
                        eprintln!("warning: baseline {path} is not valid JSON: {error}");
                        None
                    }
                },
                Err(_) => {
                    eprintln!("warning: baseline {path} not found; skipping regression gate");
                    None
                }
            });

    let config = if smoke {
        BenchConfig {
            vertices: 2_000,
            baseline_edges: 20_000,
            repetitions: 8,
            topk: 6,
        }
    } else {
        BenchConfig {
            vertices: 10_000,
            baseline_edges: 100_000,
            repetitions: 12,
            topk: 8,
        }
    };

    // ---- Workload: a streaming monitor at production density (the average-degree
    // measure exercises the DCSGreedy peel + G_{D+} + component hot path). --------
    let mut rng = Rng(0x5eed);
    let baseline = build_baseline(&config, &mut rng);
    let streaming_config = StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::AverageDegree,
    };
    let mut monitor = StreamingDcs::new(baseline.clone(), streaming_config).unwrap();
    let baseline_edges: Vec<(VertexId, VertexId)> =
        baseline.edges().map(|(u, v, _)| (u, v)).collect();
    for &(u, v) in &baseline_edges {
        monitor.observe(u, v, rng.weight());
    }
    let gd = monitor.difference_snapshot();

    // ---- 1. From-scratch mine: no workspace, every buffer allocated per solve. ---
    let (scratch_alert, scratch) = measure(|| {
        let mut last = None;
        for _ in 0..config.repetitions {
            last = Some(mine_difference_in(
                &gd,
                &streaming_config,
                monitor.observations(),
                None,
                &SolveContext::unbounded(),
            ));
        }
        last.expect("at least one repetition")
    });

    // ---- 2. Steady-state re-mine: the monitor's persistent workspace, warm. ------
    let _ = monitor.mine_now(); // warm the workspace and the seed
    let churn: Vec<(VertexId, VertexId)> = (0..config.repetitions)
        .map(|_| baseline_edges[rng.below(baseline_edges.len())])
        .collect();
    let mut remine_subset = Vec::new();
    let mut remine = Measured {
        allocs: 0,
        bytes: 0,
        nanos: 0,
    };
    for &(u, v) in &churn {
        // Sparse churn between re-mines, applied outside the measured section —
        // the gate is about the solve, not the observe (streaming_throughput
        // covers the observe path).
        monitor.observe(u, v, 0.25);
        let (alert, m) = measure(|| monitor.mine_now());
        remine.allocs += m.allocs;
        remine.bytes += m.bytes;
        remine.nanos += m.nanos;
        remine_subset = alert.report.subset;
    }
    // Sanity: workspace reuse must not change the answer on the unchanged graph
    // shape (the churn batches re-observe existing edges upward, so the mined core
    // stays a valid subset).
    assert!(
        !remine_subset.is_empty() && !scratch_alert.report.subset.is_empty(),
        "both paths must mine something"
    );

    // ---- 3. Top-k: masked views + shared workspace vs from-scratch rounds. -------
    let solver = MeasureSolver::for_measure(DensityMeasure::AverageDegree);
    let (reference_rounds, topk_scratch) = measure(|| {
        // The pre-workspace driver shape: clone the working graph, solve with no
        // workspace, compact the CSR in place after every round.
        let mut remaining = (*gd).clone();
        let mut rounds = 0usize;
        while rounds < config.topk && remaining.num_positive_edges() > 0 {
            let solution = solver.solve_seeded_in(&remaining, &[], &SolveContext::unbounded());
            if solution.objective <= 0.0 || solution.subset.is_empty() {
                break;
            }
            remaining.remove_vertices_in_place(&solution.subset);
            rounds += 1;
        }
        rounds
    });
    let shared = SharedWorkspace::new();
    let warm_cx = SolveContext::unbounded().with_workspace(&shared);
    let _ = top_k_in(
        &gd,
        config.topk,
        DensityMeasure::AverageDegree,
        DcsgaConfig::default(),
        &warm_cx,
    ); // warm the shared workspace
    let (steady_outcome, topk_steady) = measure(|| {
        top_k_in(
            &gd,
            config.topk,
            DensityMeasure::AverageDegree,
            DcsgaConfig::default(),
            &warm_cx,
        )
    });
    let steady_rounds = steady_outcome.solutions.len();

    // ---- 4. α-sweep: in-place reweighting + shared workspace vs cold rebuild. ----
    let g2 = monitor.observed_graph();
    let alphas: Vec<f64> = (0..=6).map(|i| i as f64 * 0.25).collect();
    let (cold_points, sweep_cold) = measure(|| {
        let mut points = 0usize;
        for &alpha in &alphas {
            let gd_alpha = scaled_difference_graph(&g2, &baseline, alpha).unwrap();
            let solution = solver.solve_seeded_in(&gd_alpha, &[], &SolveContext::unbounded());
            if !solution.subset.is_empty() {
                points += 1;
            }
        }
        points
    });
    let sweep_shared = SharedWorkspace::new();
    let sweep_cx = SolveContext::unbounded().with_workspace(&sweep_shared);
    let _ = dcs_core::alpha_sweep_in(
        &g2,
        &baseline,
        &alphas,
        DensityMeasure::AverageDegree,
        &sweep_cx,
    )
    .unwrap(); // warm
    let (sweep_outcome, sweep_steady) = measure(|| {
        dcs_core::alpha_sweep_in(
            &g2,
            &baseline,
            &alphas,
            DensityMeasure::AverageDegree,
            &sweep_cx,
        )
        .unwrap()
    });

    // ---- 5. DCSGA (graph affinity): from-scratch vs steady state + α-sweep. -----
    // A smaller workload: NewSEA runs many local searches per solve, and the metrics
    // are self-relative ratios, so the affinity section does not need the full
    // average-degree scale to be meaningful.
    let dcsga_scale = if smoke {
        (600, 4_000, 6)
    } else {
        (1_500, 12_000, 8)
    };
    let (ga_vertices, ga_edges, ga_reps) = dcsga_scale;
    let ga_bench = BenchConfig {
        vertices: ga_vertices,
        baseline_edges: ga_edges,
        repetitions: ga_reps,
        topk: 0,
    };
    let ga_baseline = build_baseline(&ga_bench, &mut rng);
    let ga_streaming_config = StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::GraphAffinity,
    };
    let mut ga_monitor = StreamingDcs::new(ga_baseline.clone(), ga_streaming_config).unwrap();
    let ga_baseline_edges: Vec<(VertexId, VertexId)> =
        ga_baseline.edges().map(|(u, v, _)| (u, v)).collect();
    for &(u, v) in &ga_baseline_edges {
        ga_monitor.observe(u, v, rng.weight());
    }
    let ga_gd = ga_monitor.difference_snapshot();

    // From-scratch affinity mine: no workspace, transient dense arena per solve.
    let (ga_scratch_alert, ga_scratch) = measure(|| {
        let mut last = None;
        for _ in 0..ga_bench.repetitions {
            last = Some(mine_difference_in(
                &ga_gd,
                &ga_streaming_config,
                ga_monitor.observations(),
                None,
                &SolveContext::unbounded(),
            ));
        }
        last.expect("at least one repetition")
    });

    // Steady-state affinity re-mine: the monitor's dense embedding arena warm.
    let _ = ga_monitor.mine_now();
    let ga_churn: Vec<(VertexId, VertexId)> = (0..ga_bench.repetitions)
        .map(|_| ga_baseline_edges[rng.below(ga_baseline_edges.len())])
        .collect();
    let mut ga_remine_subset = Vec::new();
    let mut ga_remine = Measured {
        allocs: 0,
        bytes: 0,
        nanos: 0,
    };
    for &(u, v) in &ga_churn {
        ga_monitor.observe(u, v, 0.25);
        let (alert, m) = measure(|| ga_monitor.mine_now());
        ga_remine.allocs += m.allocs;
        ga_remine.bytes += m.bytes;
        ga_remine.nanos += m.nanos;
        ga_remine_subset = alert.report.subset;
    }
    assert!(
        !ga_remine_subset.is_empty() && !ga_scratch_alert.report.subset.is_empty(),
        "both affinity paths must mine something"
    );

    // Affinity α-sweep: template + warm dense workspace vs per-α rebuild, cold.
    let ga_g2 = ga_monitor.observed_graph();
    let ga_solver = MeasureSolver::for_measure(DensityMeasure::GraphAffinity);
    let (ga_cold_points, ga_sweep_cold) = measure(|| {
        let mut points = 0usize;
        for &alpha in &alphas {
            let gd_alpha = scaled_difference_graph(&ga_g2, &ga_baseline, alpha).unwrap();
            let solution = ga_solver.solve_seeded_in(&gd_alpha, &[], &SolveContext::unbounded());
            if !solution.subset.is_empty() {
                points += 1;
            }
        }
        points
    });
    let ga_sweep_shared = SharedWorkspace::new();
    let ga_sweep_cx = SolveContext::unbounded().with_workspace(&ga_sweep_shared);
    let _ = dcs_core::alpha_sweep_in(
        &ga_g2,
        &ga_baseline,
        &alphas,
        DensityMeasure::GraphAffinity,
        &ga_sweep_cx,
    )
    .unwrap(); // warm
    let (ga_sweep_outcome, ga_sweep_steady) = measure(|| {
        dcs_core::alpha_sweep_in(
            &ga_g2,
            &ga_baseline,
            &alphas,
            DensityMeasure::GraphAffinity,
            &ga_sweep_cx,
        )
        .unwrap()
    });

    // ---- 6. Large-graph parallelism (opt-in: --large). ---------------------------
    let large_section = large.then(|| run_large_section(smoke, baseline_json.as_ref()));

    // ---- 7. Cold load: text parse vs zero-copy pack (opt-in: --load). ------------
    let load_section = load.then(|| run_load_section(smoke, pack_dir.as_deref()));

    // ---- Report. -----------------------------------------------------------------
    let (scratch_allocs, _, _) = per(&scratch, config.repetitions);
    let (remine_allocs, _, _) = per(&remine, config.repetitions);
    let (topk_scratch_allocs, _, _) = per(&topk_scratch, reference_rounds);
    let (topk_steady_allocs, _, _) = per(&topk_steady, steady_rounds);
    let (sweep_cold_allocs, _, _) = per(&sweep_cold, cold_points);
    let (sweep_steady_allocs, _, _) = per(&sweep_steady, sweep_outcome.points.len());
    let (ga_scratch_allocs, _, _) = per(&ga_scratch, ga_bench.repetitions);
    let (ga_remine_allocs, _, _) = per(&ga_remine, ga_bench.repetitions);
    let (ga_sweep_cold_allocs, _, _) = per(&ga_sweep_cold, ga_cold_points);
    let (ga_sweep_steady_allocs, _, _) = per(&ga_sweep_steady, ga_sweep_outcome.points.len());
    let remine_ratio = scratch_allocs / remine_allocs.max(1.0);
    let topk_ratio = topk_scratch_allocs / topk_steady_allocs.max(1.0);
    let sweep_ratio = sweep_cold_allocs / sweep_steady_allocs.max(1.0);
    let ga_remine_ratio = ga_scratch_allocs / ga_remine_allocs.max(1.0);
    let ga_sweep_ratio = ga_sweep_cold_allocs / ga_sweep_steady_allocs.max(1.0);

    let report = json!({
        "bench": "solver_hotpath",
        "mode": if smoke { "smoke" } else { "full" },
        "graph": {
            "vertices": config.vertices,
            "baseline_edges": baseline.num_edges(),
            "difference_edges": gd.num_edges(),
        },
        "repetitions": config.repetitions,
        "mine": path_json("from_scratch", &scratch, config.repetitions),
        "remine": {
            "path": "steady_state_workspace",
            "allocs_per_solve": remine_allocs,
            "bytes_per_solve": per(&remine, config.repetitions).1,
            "ns_per_solve": per(&remine, config.repetitions).2,
            "allocs_reduction_vs_scratch": remine_ratio,
        },
        "topk": {
            "k": config.topk,
            "scratch_rounds": reference_rounds,
            "steady_rounds": steady_rounds,
            "scratch": path_json("clone_and_compact", &topk_scratch, reference_rounds),
            "steady": path_json("masked_views_workspace", &topk_steady, steady_rounds),
            "allocs_reduction_per_round": topk_ratio,
        },
        "sweep": {
            "grid_points": alphas.len(),
            "cold": path_json("rebuild_per_alpha", &sweep_cold, cold_points),
            "steady": path_json("template_reweight_workspace", &sweep_steady, sweep_outcome.points.len()),
            "allocs_reduction_per_point": sweep_ratio,
        },
        "dcsga": {
            "graph": {
                "vertices": ga_bench.vertices,
                "baseline_edges": ga_baseline.num_edges(),
                "difference_edges": ga_gd.num_edges(),
            },
            "repetitions": ga_bench.repetitions,
            "mine": path_json("from_scratch", &ga_scratch, ga_bench.repetitions),
            "remine": {
                "path": "steady_state_dense_arena",
                "allocs_per_solve": ga_remine_allocs,
                "bytes_per_solve": per(&ga_remine, ga_bench.repetitions).1,
                "ns_per_solve": per(&ga_remine, ga_bench.repetitions).2,
                "allocs_reduction_vs_scratch": ga_remine_ratio,
            },
            "sweep": {
                "grid_points": alphas.len(),
                "cold": path_json("rebuild_per_alpha", &ga_sweep_cold, ga_cold_points),
                "steady": path_json(
                    "template_reweight_dense_arena",
                    &ga_sweep_steady,
                    ga_sweep_outcome.points.len(),
                ),
                "allocs_reduction_per_point": ga_sweep_ratio,
            },
        },
    });
    let mut report = report;
    if let Some((section, _)) = &large_section {
        report["large"] = section.clone();
    }
    if let Some((section, _)) = &load_section {
        report["load"] = section.clone();
    }
    let rendered = serde_json::to_string_pretty(&report).unwrap();
    println!("{rendered}");
    if let Err(error) = std::fs::write(&out_path, format!("{rendered}\n")) {
        eprintln!("warning: could not write {out_path}: {error}");
    }

    // ---- Gates. ------------------------------------------------------------------
    let mut failed = large_section.as_ref().is_some_and(|(_, f)| *f)
        || load_section.as_ref().is_some_and(|(_, f)| *f);
    if remine_ratio < 2.0 {
        eprintln!(
            "FAIL: steady-state re-mine allocates {remine_allocs:.1}/solve vs \
             {scratch_allocs:.1} from scratch ({remine_ratio:.2}x < 2x reduction)"
        );
        failed = true;
    }
    if topk_ratio < 2.0 {
        eprintln!(
            "FAIL: top-k steady rounds allocate {topk_steady_allocs:.1}/round vs \
             {topk_scratch_allocs:.1} from scratch ({topk_ratio:.2}x < 2x reduction)"
        );
        failed = true;
    }
    if ga_remine_ratio < 2.0 {
        eprintln!(
            "FAIL: DCSGA steady-state re-mine allocates {ga_remine_allocs:.1}/solve vs \
             {ga_scratch_allocs:.1} from scratch ({ga_remine_ratio:.2}x < 2x reduction)"
        );
        failed = true;
    }

    // Regression gate against a checked-in baseline, allocation metrics only
    // (allocation counts are deterministic for the fixed workload; timings are not).
    if let Some(previous) = &baseline_json {
        let path = baseline_path.as_deref().unwrap_or("baseline");
        let checks: [(&str, f64, &[&str]); 5] = [
            (
                "remine.allocs_per_solve",
                remine_allocs,
                &["remine", "allocs_per_solve"],
            ),
            (
                "topk.steady.allocs_per_solve",
                topk_steady_allocs,
                &["topk", "steady", "allocs_per_solve"],
            ),
            (
                "sweep.steady.allocs_per_solve",
                sweep_steady_allocs,
                &["sweep", "steady", "allocs_per_solve"],
            ),
            (
                "dcsga.remine.allocs_per_solve",
                ga_remine_allocs,
                &["dcsga", "remine", "allocs_per_solve"],
            ),
            (
                "dcsga.sweep.steady.allocs_per_solve",
                ga_sweep_steady_allocs,
                &["dcsga", "sweep", "steady", "allocs_per_solve"],
            ),
        ];
        for (label, current, keys) in checks {
            let mut node = Some(previous);
            for key in keys {
                node = node.and_then(|v| v.get(key));
            }
            let Some(reference) = node.and_then(|v| v.as_f64()) else {
                eprintln!("warning: baseline {path} lacks {label}; skipping");
                continue;
            };
            if reference > 0.0 && current > reference * 1.10 {
                eprintln!(
                    "FAIL: {label} regressed: {current:.1} vs baseline \
                     {reference:.1} (>10%)"
                );
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
}

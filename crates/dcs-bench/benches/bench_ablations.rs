//! Ablation benchmarks for the design choices called out in DESIGN.md §6:
//!
//! 1. smart initialisation on/off (NewSEA vs a capped SEACD+Refine sweep),
//! 2. coordinate-descent shrink vs replicator-dynamics shrink,
//! 3. indexed-heap peeling vs lazy-heap, segment-tree and naive re-scan peeling,
//! 4. exact (Goldberg) vs greedy (Charikar) densest subgraph on `G_D+`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcs_core::dcsga::{descend_to_local_kkt, refine, DcsgaConfig, NewSea, SeaCd};
use dcs_core::difference_graph;
use dcs_datasets::{CoauthorConfig, Scale};
use dcs_densest::charikar::{greedy_peeling, greedy_peeling_rescan};
use dcs_densest::replicator::{replicator_dynamics, ReplicatorStop};
use dcs_densest::{densest_subgraph_exact, Embedding};
use dcs_graph::GraphView;

fn bench_ablations(c: &mut Criterion) {
    let mut config_small = CoauthorConfig::for_scale(Scale::Tiny);
    config_small.num_authors = 1_500;
    config_small.background_edges = 6_000;
    let pair = config_small.generate();
    let gd = difference_graph(&pair.g2, &pair.g1).unwrap();
    let gd_plus = gd.positive_part();
    let config = DcsgaConfig::default();

    let mut group = c.benchmark_group("ablations");
    group.sample_size(10);

    // 1. Smart initialisation on/off.
    group.bench_function("newsea_smart_init", |b| {
        b.iter(|| NewSea::new(config).solve_on_positive_part(&gd_plus))
    });
    group.bench_function("seacd_refine_sweep_capped", |b| {
        b.iter(|| SeaCd::new(config).sweep(&gd_plus, Some(50), false, |g, x| refine(g, x, &config)))
    });

    // 2. Shrink strategy: 2-coordinate descent vs replicator dynamics, from the same
    // uniform start on a planted clique's neighbourhood.
    let seed_vertices: Vec<u32> = gd_plus.ego_net(gd_plus.num_vertices() as u32 - 2);
    let x0 = Embedding::uniform(&seed_vertices);
    group.bench_function(
        BenchmarkId::new("shrink_coordinate_descent", seed_vertices.len()),
        |b| b.iter(|| descend_to_local_kkt(&gd_plus, &x0, &seed_vertices, 1e-4, 100_000)),
    );
    group.bench_function(
        BenchmarkId::new("shrink_replicator_dynamics", seed_vertices.len()),
        |b| {
            b.iter(|| {
                replicator_dynamics(&gd_plus, &x0, ReplicatorStop::KktGap { eps: 1e-4 }, 100_000)
            })
        },
    );

    // 3. Peeling structure.
    group.bench_function("peeling_indexed_heap", |b| b.iter(|| greedy_peeling(&gd)));
    group.bench_function("peeling_lazy_heap", |b| {
        b.iter(|| {
            dcs_densest::greedy_peeling_view_with::<dcs_densest::peel::LazyHeapQueue, _>(
                GraphView::full(&gd),
                &mut dcs_densest::PeelWorkspace::new(),
                |_| false,
            )
        })
    });
    group.bench_function("peeling_segment_tree", |b| {
        b.iter(|| dcs_densest::charikar::greedy_peeling_segment_tree(&gd))
    });
    group.bench_function("peeling_rescan", |b| b.iter(|| greedy_peeling_rescan(&gd)));

    // 4. Exact vs greedy densest subgraph on G_D+.
    group.bench_function("densest_goldberg_exact", |b| {
        b.iter(|| densest_subgraph_exact(&gd_plus))
    });
    group.bench_function("densest_charikar_greedy", |b| {
        b.iter(|| greedy_peeling(&gd_plus))
    });

    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);

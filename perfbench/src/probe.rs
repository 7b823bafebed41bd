//! Layer probes for traced runs.  A workload bypasses some layers by design;
//! for the per-layer metrics of those layers a probe measures the layer
//! briefly on the workload's own inputs after the traced phase, so that every
//! per-layer figure of every workload is a measurement.  The run's `detail`
//! line lists the metrics a probe supplied.

use dcs_core::DensityMeasure;
use dcs_server::Request;
use serde_json::json;

use crate::inputs::{self, PackedPair, UpdateStream};
use crate::report::{Metrics, WorkDir};
use crate::spans::Tracer;
use crate::{batch, durable, serve};

const LIBRARY: [&str; 15] = [
    "core.diff_build_ms",
    "core.topk_round_ms",
    "core.sweep_point_ms",
    "core.solve_iterations",
    "core.solve_candidates",
    "core.solve_prunes",
    "core.prune_ratio",
    "densest.peel_ms",
    "densest.peel_vertices",
    "dcsga.mu_sweep_self_ms",
    "dcsga.mu_inits",
    "dcsga.cd_shrink_ms",
    "dcsga.cd_iterations",
    "dcsga.cd_expand_ms",
    "dcsga.refine_ms",
];

const STREAMING: [&str; 4] = [
    "core.apply_batch_us",
    "durable.checkpoint_write_ms",
    "protocol.parse_us",
    "protocol.render_us",
];

const SERVER: [&str; 12] = [
    "graph.snapshot_rebuild_ms",
    "graph.snapshot_dirty_rows",
    "server.queue_wait_p50_us",
    "server.queue_wait_p99_us",
    "server.job_wall_ms",
    "server.wire_ms",
    "server.read_events_per_req",
    "server.write_events_per_req",
    "server.cache_hit_rate",
    "server.coalesced",
    "server.shed",
    "server.errors",
];

/// Observe batches the streaming probe applies; the server probe observes
/// and mines `SERVER_ROUNDS` times.
const STREAMING_BATCHES: usize = 2000;
const SERVER_ROUNDS: usize = 8;
const SESSION: &str = "monitor";

/// Fills every per-layer metric the workload left unset from the probes
/// that measure it; returns the names filled.
pub fn fill_missing(
    metrics: &mut Metrics,
    pack: &PackedPair,
    seed: u64,
    work: &WorkDir,
) -> Vec<&'static str> {
    let stream = || {
        UpdateStream::new(
            &pack.open_g2(),
            16,
            inputs::derive_seed(seed, "probe/stream"),
        )
    };
    let probes: [(&[&'static str], &dyn Fn() -> Metrics); 3] = [
        (&LIBRARY, &|| batch::probe_library(pack)),
        (&STREAMING, &|| streaming(pack, &stream(), work)),
        (&SERVER, &|| server(pack, &stream())),
    ];
    let mut filled = Vec::new();
    for (names, probe) in probes {
        if names.iter().all(|name| metrics.get(name).is_some()) {
            continue;
        }
        let found = probe();
        for &name in names {
            if metrics.get(name).is_none() {
                if let Some(value) = found.get(name) {
                    metrics.set(name, value);
                    filled.push(name);
                }
            }
        }
    }
    filled
}

/// Batch apply, observe-line protocol costs and checkpoint writing on the
/// pair's update stream.
fn streaming(pack: &PackedPair, stream: &UpdateStream, work: &WorkDir) -> Metrics {
    let mut metrics = Metrics::default();
    let (apply_us, checkpoint_ms) = durable::replay(pack, stream, STREAMING_BATCHES, work);
    metrics.set("core.apply_batch_us", apply_us);
    metrics.set("durable.checkpoint_write_ms", checkpoint_ms);
    let (parse_us, render_us) = serve::protocol_costs(stream, STREAMING_BATCHES, SESSION);
    metrics.set("protocol.parse_us", parse_us);
    metrics.set("protocol.render_us", render_us);
    metrics
}

/// A server on the pair's baseline, alternating one observe batch and one
/// traced mine of each measure in turn.
fn server(pack: &PackedPair, stream: &UpdateStream) -> Metrics {
    let (handle, mut client) =
        serve::start_server(serve::server_config(), serve::pack_create(pack, false));
    let mut tracer = Tracer::enable();
    let mut mines = Vec::new();
    for round in 0..SERVER_ROUNDS {
        client
            .send(&Request::Observe {
                session: SESSION.to_string(),
                updates: stream.batch(round),
            })
            .expect("probe observe");
        let measure = if round % 2 == 0 {
            DensityMeasure::AverageDegree
        } else {
            DensityMeasure::GraphAffinity
        };
        mines.extend(serve::timed_mine(&mut client, measure, Some(&mut tracer)));
    }
    let stats = client
        .request(json!({ "cmd": "stats" }))
        .expect("server-wide stats");
    serve::stop_server(handle, client);
    let mut metrics = Metrics::default();
    serve::set_mine_layers(&mut metrics, &mines);
    serve::set_server_stats(&mut metrics, &stats);
    metrics
}

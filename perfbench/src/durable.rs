//! `durable-ingest`: a write-only feeder against an in-process server with
//! a data directory and `wal_sync: always`, followed by crash recovery from a
//! copy of the data directory.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dcs_core::{DensityMeasure, StreamingConfig, StreamingDcs};
use dcs_datasets::PackWriter;
use dcs_server::{Client, ServerConfig, WalSync};
use serde_json::{json, Value};

use crate::inputs::{self, PackedPair, UpdateStream};
use crate::report::{self, Metrics, Tally, WorkDir};
use crate::serve::{
    pack_create, protocol_costs, server_provenance, set_server_stats, start_server, stop_server,
    time_pack_open,
};
use crate::spans::Tracer;
use crate::{probe, stats, Outcome, RunArgs};

const BATCH: usize = 32;
const SETUP_REPEATS: usize = 11;
const RECOVER_REPEATS: usize = 5;
const SESSION: &str = "monitor";
/// Observes between two looks at the session directory in the traced run.
const CHECKPOINT_POLL: usize = 16;

fn server_config(data_dir: &Path) -> ServerConfig {
    ServerConfig {
        worker_threads: 2,
        io_threads: 1,
        solver_threads: 1,
        data_dir: Some(data_dir.to_path_buf()),
        wal_sync: WalSync::Always,
        ..ServerConfig::default()
    }
}

/// Generations `G` of the files `<prefix><G><suffix>` in `dir`.
fn generations(dir: &Path, prefix: &str, suffix: &str) -> Vec<u64> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut found: Vec<u64> = entries
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            name.strip_prefix(prefix)?
                .strip_suffix(suffix)?
                .parse()
                .ok()
        })
        .collect();
    found.sort_unstable();
    found
}

/// Every regular file under `dir` (one level of subdirectories) with its
/// length, skipping in-progress `.tmp` files.
fn listing(dir: &Path) -> Vec<(PathBuf, u64)> {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(current) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&current) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let Ok(meta) = entry.metadata() else { continue };
            if meta.is_dir() {
                stack.push(path);
            } else if path.extension().is_none_or(|ext| ext != "tmp") {
                files.push((path, meta.len()));
            }
        }
    }
    files.sort();
    files
}

/// Copies the live data directory as a crash image, retrying until no file
/// appeared, vanished or changed length during the copy (a background
/// checkpoint may rotate files right after the stream stops).
fn copy_crash_image(src: &Path, dst: &Path) {
    for _ in 0..100 {
        let before = listing(src);
        let _ = std::fs::remove_dir_all(dst);
        let copied = before.iter().all(|(path, _)| {
            let target = dst.join(path.strip_prefix(src).expect("listed under the source"));
            std::fs::create_dir_all(target.parent().expect("files have a parent")).is_ok()
                && std::fs::copy(path, &target).is_ok()
        });
        if copied && listing(src) == before {
            return;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    panic!("the data directory never held still long enough to copy");
}

fn copy_dir(src: &Path, dst: &Path) {
    for (path, _) in listing(src) {
        let target = dst.join(path.strip_prefix(src).expect("listed under the source"));
        std::fs::create_dir_all(target.parent().expect("files have a parent"))
            .expect("create the copy's directories");
        std::fs::copy(&path, &target).expect("copy the crash image");
    }
}

/// The session's directory inside a data directory.
fn session_dir(data_dir: &Path) -> PathBuf {
    data_dir.join(dcs_server::durable::encode_session_dir(SESSION))
}

/// WAL records of the image newer than its newest checkpoint: what recovery
/// replays.
fn replayed_records(image: &Path) -> (u64, u64) {
    let dir = session_dir(image);
    let checkpoint = generations(&dir, "ckpt-", ".dcspack")
        .last()
        .copied()
        .unwrap_or(0);
    let mut records = 0;
    for generation in generations(&dir, "wal-", ".ndjson") {
        let text = std::fs::read_to_string(dir.join(format!("wal-{generation}.ndjson")))
            .unwrap_or_default();
        records += text
            .lines()
            .filter_map(|line| serde_json::from_str::<Value>(line).ok())
            .filter(|record| record["v"].as_u64().is_some_and(|v| v > checkpoint))
            .count() as u64;
    }
    (checkpoint, records)
}

struct Phase {
    peak_rss_mb: f64,
    observe_s: Vec<f64>,
    elapsed_s: f64,
    acked_batches: usize,
    last_version: u64,
    write_bytes: u64,
    checkpoints_seen: usize,
    recover_s: Vec<f64>,
    checkpoint_version: u64,
    replayed: u64,
    recovered_subset: Vec<u32>,
    server_stats: Value,
    tally: Tally,
    dropped: u64,
}

fn mine_fingerprint(client: &mut Client) -> Option<(u64, Vec<u32>, u64)> {
    let response = client
        .request(json!({ "cmd": "mine", "session": SESSION, "measure": "average-degree" }))
        .ok()?;
    let result = &response["result"];
    let subset = result["subset"]
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|v| v as u32))
        .collect::<Option<Vec<_>>>()?;
    Some((
        response["version"].as_u64()?,
        subset,
        result["density_difference"].as_f64()?.to_bits(),
    ))
}

fn measure(
    pack: &PackedPair,
    stream: &UpdateStream,
    seconds: f64,
    traced: bool,
    work: &WorkDir,
) -> Phase {
    let tag = if traced { "traced" } else { "untraced" };
    let data_dir = work.subdir(&format!("data-{tag}"));
    let (handle, mut client) = start_server(server_config(&data_dir), pack_create(pack, true));
    let mut tracer = traced.then(Tracer::enable);
    let mut tally = Tally::default();

    let socket = TcpStream::connect(handle.local_addr()).expect("connect the feeder");
    socket.set_nodelay(true).expect("disable Nagle");
    let mut writer = socket.try_clone().expect("clone the feeder socket");
    let mut reader = BufReader::new(socket);
    let mut response = String::new();
    let mut observe_s = Vec::new();
    let mut last_version = 0u64;
    let mut checkpoints = BTreeSet::new();
    let live_dir = session_dir(&data_dir);

    let bytes_before = report::write_bytes();
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let line = inputs::observe_line(SESSION, &stream.batch(index));
        let sent = Instant::now();
        writer.write_all(line.as_bytes()).expect("send an observe");
        response.clear();
        reader
            .read_line(&mut response)
            .expect("read an acknowledgement");
        observe_s.push(sent.elapsed().as_secs_f64());
        let parsed: Option<Value> = serde_json::from_str(response.trim_end()).ok();
        let ok = parsed.as_ref().is_some_and(|r| {
            let version = r["version"].as_u64().unwrap_or(0);
            let fits = r["ok"] == true
                && version == last_version + r["applied"].as_u64().unwrap_or(u64::MAX);
            if fits {
                last_version = version;
            }
            fits
        });
        tally.check(ok, "an observe was refused or acknowledged out of order");
        index += 1;
        if let Some(tracer) = tracer.as_mut() {
            tracer.drain();
            if index % CHECKPOINT_POLL == 0 {
                checkpoints.extend(generations(&live_dir, "ckpt-", ".dcspack"));
            }
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = report::peak_rss_mb();
    let write_bytes = report::write_bytes().saturating_sub(bytes_before);
    let dropped = tracer.as_ref().map_or(0, Tracer::dropped);
    drop(tracer);
    drop(reader);
    drop(writer);

    // The crash image: the data directory as the live server left it.
    let image = work.subdir(&format!("image-{tag}"));
    copy_crash_image(&data_dir, &image);
    let original = mine_fingerprint(&mut client);
    tally.check(
        original.is_some(),
        "the mine on the original session failed",
    );
    let server_stats = client
        .request(json!({ "cmd": "stats" }))
        .expect("server-wide stats");
    stop_server(handle, client);
    let _ = std::fs::remove_dir_all(&data_dir);

    // Restart on fresh copies of the image until the session is served at
    // the last acknowledged version.
    let mut recover_s = Vec::new();
    let mut recovered_subset = Vec::new();
    for repeat in 0..RECOVER_REPEATS {
        let copy = work.subdir(&format!("recover-{tag}-{repeat}"));
        copy_dir(&image, &copy);
        let start = Instant::now();
        let handle = dcs_server::Server::bind("127.0.0.1:0", server_config(&copy))
            .expect("bind a loopback port")
            .start();
        let mut client = Client::connect(handle.local_addr()).expect("connect after recovery");
        let version = client
            .stats(SESSION)
            .ok()
            .and_then(|s| s["version"].as_u64());
        recover_s.push(start.elapsed().as_secs_f64());
        tally.check(
            version == Some(last_version),
            &format!("recovered version {version:?}, last acknowledged {last_version}"),
        );
        if repeat == 0 {
            let recovered = mine_fingerprint(&mut client);
            tally.check(
                recovered.is_some() && recovered == original,
                "the recovered session mines differently from the original",
            );
            recovered_subset = recovered.map(|(_, subset, _)| subset).unwrap_or_default();
        }
        stop_server(handle, client);
        let _ = std::fs::remove_dir_all(&copy);
    }
    let (checkpoint_version, replayed) = replayed_records(&image);
    let _ = std::fs::remove_dir_all(&image);

    Phase {
        peak_rss_mb,
        observe_s,
        elapsed_s,
        acked_batches: index,
        last_version,
        write_bytes,
        checkpoints_seen: checkpoints.len(),
        recover_s,
        checkpoint_version,
        replayed,
        recovered_subset,
        server_stats,
        tally,
        dropped,
    }
}

/// Replays the acknowledged batches locally: per-batch `apply_batch` time in
/// microseconds, and the milliseconds to write the final observed graph as a
/// checkpoint-shaped pack.
pub fn replay(
    pack: &PackedPair,
    stream: &UpdateStream,
    batches: usize,
    work: &WorkDir,
) -> (f64, f64) {
    let baseline = dcs_graph::GraphPack::open(&pack.g1_pack)
        .and_then(|p| p.to_graph())
        .expect("the baseline pack opens");
    let config = StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::GraphAffinity,
    };
    let mut monitor = StreamingDcs::new(baseline, config).expect("a valid baseline");
    let mut apply_us = Vec::with_capacity(batches);
    for index in 0..batches {
        let batch = stream.batch(index);
        let start = Instant::now();
        std::hint::black_box(monitor.apply_batch(batch));
        apply_us.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let observed = monitor.observed_graph();
    let meta = json!({ "format": 1, "monitor_version": monitor.version() }).to_string();
    let dir = work.subdir("checkpoint-write");
    let mut write_ms = Vec::new();
    for repeat in 0..3 {
        let path = dir.join(format!("ckpt-{repeat}.dcspack"));
        let start = Instant::now();
        PackWriter::write_graph_with_session(&observed, meta.as_bytes(), &path)
            .expect("write a checkpoint pack");
        write_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    let _ = std::fs::remove_dir_all(&dir);
    (
        stats::median(&apply_us).unwrap_or(0.0),
        stats::median(&write_ms).unwrap_or(0.0),
    )
}

pub fn run(args: &RunArgs, work: &WorkDir) -> Outcome {
    let pack = inputs::prepare(&args.workload, args.seed, &work.subdir("packs"));
    let stream = UpdateStream::new(
        &pack.open_g2(),
        BATCH,
        inputs::derive_seed(args.seed, "durable-ingest/stream"),
    );
    report::reset_peak_rss();

    let cpu_before = report::CpuTimes::now();
    let untraced = measure(&pack, &stream, args.seconds, false, work);
    let steal = report::CpuTimes::now().steal_frac_since(&cpu_before);
    // Set-ups run after the measured phase so their servers' memory does not
    // count toward its peak RSS.
    let mut setup_s = Vec::new();
    let mut pack_open_ms = Vec::new();
    let setup_cpu = report::CpuTimes::now();
    for repeat in 0..SETUP_REPEATS {
        let dir = work.subdir(&format!("setup-{repeat}"));
        let start = Instant::now();
        let (handle, client) = start_server(server_config(&dir), pack_create(&pack, true));
        setup_s.push(start.elapsed().as_secs_f64());
        stop_server(handle, client);
        let _ = std::fs::remove_dir_all(&dir);
        pack_open_ms.push(time_pack_open(&pack));
    }
    let setup_steal = report::CpuTimes::now().steal_frac_since(&setup_cpu);

    let mut tally = untraced.tally;
    let observe_p50_ms = report::median_ms(&untraced.observe_s);
    let mut metrics = Metrics::default();

    let updates = (untraced.acked_batches * BATCH) as f64;
    let mut detail = json!({
        "observe_ms": report::latency_summary(&report::to_ms(untraced.observe_s.iter().copied())),
        "observes_per_s": updates / untraced.elapsed_s,
        "recover_s": stats::median(&untraced.recover_s),
        "recover_s_samples": untraced.recover_s.clone(),
        "recovered_version": untraced.last_version,
        "checkpoint_version": untraced.checkpoint_version,
        "replayed_records": untraced.replayed,
        "write_bytes_per_update": untraced.write_bytes as f64 / updates.max(1.0),
    });
    report::EndToEnd {
        setup_s,
        setup_steal,
        ops_per_s: untraced.acked_batches as f64 / untraced.elapsed_s,
        op_steal: steal,
        peak_rss_mb: untraced.peak_rss_mb,
    }
    .report(&mut metrics, &mut detail);

    if args.trace {
        let traced_cpu = report::CpuTimes::now();
        let traced = measure(&pack, &stream, args.seconds, true, work);
        let traced_steal = report::CpuTimes::now().steal_frac_since(&traced_cpu);
        tally.absorb(traced.tally);
        let traced_p50 = report::median_ms(&traced.observe_s);
        metrics.set(
            "obs.trace_overhead_frac",
            report::trace_overhead(traced_p50, traced_steal, observe_p50_ms, steal),
        );
        metrics.set("obs.trace_dropped", traced.dropped as f64);
        metrics.set(
            "graph.pack_open_ms",
            stats::median(&pack_open_ms).unwrap_or(0.0),
        );
        let traced_updates = (traced.acked_batches * BATCH) as f64;
        metrics.set(
            "durable.write_bytes_per_update",
            traced.write_bytes as f64 / traced_updates.max(1.0),
        );
        metrics.set("durable.checkpoints", traced.checkpoints_seen as f64);
        metrics.set("durable.replayed_records", traced.replayed as f64);
        let (apply_us, checkpoint_ms) = replay(&pack, &stream, traced.acked_batches, work);
        metrics.set("core.apply_batch_us", apply_us);
        metrics.set("durable.checkpoint_write_ms", checkpoint_ms);
        set_server_stats(&mut metrics, &traced.server_stats);
        let (parse_us, render_us) = protocol_costs(&stream, traced.acked_batches, SESSION);
        metrics.set("protocol.parse_us", parse_us);
        metrics.set("protocol.render_us", render_us);
        metrics.set(
            "quality.planted_jaccard",
            inputs::planted_jaccard(
                &pack.planted,
                std::slice::from_ref(&traced.recovered_subset),
            ),
        );
        detail["traced_observe_ms"] =
            report::latency_summary(&report::to_ms(traced.observe_s.iter().copied()));
        detail["traced_recover_s"] = json!(stats::median(&traced.recover_s));
        let probed = probe::fill_missing(&mut metrics, &pack, args.seed, work);
        detail["probed"] = json!(probed);
        detail["server_stats"] = traced.server_stats;
    }
    metrics.set("error_frac", tally.error_frac());

    Outcome {
        provenance: json!({
            "vertices": pack.vertices,
            "g1_edges": pack.g1_edges,
            "g2_edges": pack.g2_edges,
            "planted_groups": pack.planted.iter().map(Vec::len).collect::<Vec<_>>(),
            "batch_updates": BATCH,
            "growth_batches": stream.growth_batches(),
            "loop": "closed, one connection",
            "server": server_provenance(&server_config(Path::new("data"))),
            "setup_repeats": SETUP_REPEATS,
            "recover_repeats": RECOVER_REPEATS,
        }),
        detail,
        metrics,
        tally,
    }
}

//! `serve-stream`: an online monitor against an in-process server.  One
//! connection streams observe batches in an open loop at a fixed rate; a
//! second mines in a closed loop, alternating the two measures.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use dcs_core::{mine_difference_in, DensityMeasure, SolveContext, StreamingConfig, StreamingDcs};
use dcs_graph::{GraphPack, SignedGraph, VertexId};
use dcs_server::{Client, Request, Response, Server, ServerConfig, ServerHandle};
use netpoll::{Event, Interest, Poller};
use serde_json::{json, Value};

use crate::inputs::{self, PackedPair, UpdateStream};
use crate::report::{self, Metrics, Tally, WorkDir};
use crate::spans::{self, phase_table, set_solver_layers, PhaseSums, Tracer};
use crate::{probe, stats, Outcome, RunArgs};

const BATCH: usize = 16;
/// Offered observe batches per second on the open-loop connection.
const RATE: f64 = 250.0;
const SETUP_REPEATS: usize = 11;
const SESSION: &str = "monitor";
/// Mid-stream mines per measure re-checked against a local replay.
const CHECKED_MINES: usize = 6;

pub fn server_config() -> ServerConfig {
    ServerConfig {
        worker_threads: 2,
        io_threads: 1,
        solver_threads: 1,
        ..ServerConfig::default()
    }
}

/// Binds a server and creates the session from the baseline pack; returns
/// once a first request on the session has succeeded.
pub fn start_server(config: ServerConfig, create: Value) -> (ServerHandle, Client) {
    let handle = Server::bind("127.0.0.1:0", config)
        .expect("bind a loopback port")
        .start();
    let mut client = Client::connect(handle.local_addr()).expect("connect to the server");
    client.request(create).expect("create the session");
    client
        .stats(SESSION)
        .expect("the new session answers stats");
    (handle, client)
}

pub fn stop_server(handle: ServerHandle, client: Client) {
    drop(client);
    handle.shutdown();
    handle.join();
}

pub fn pack_create(pack: &PackedPair, durable: bool) -> Value {
    let mut create = json!({
        "cmd": "create_session",
        "session": SESSION,
        "pack": pack.g1_pack.to_str().expect("scratch paths are UTF-8"),
    });
    if durable {
        create["durable"] = json!(true);
    }
    create
}

/// Opens and decodes a pack in-process, in milliseconds.
pub fn time_pack_open(pack: &PackedPair) -> f64 {
    let start = Instant::now();
    let graph = GraphPack::open(&pack.g1_pack)
        .and_then(|p| p.to_graph())
        .expect("the baseline pack opens");
    std::hint::black_box(graph);
    start.elapsed().as_secs_f64() * 1e3
}

pub fn server_provenance(config: &ServerConfig) -> Value {
    json!({
        "worker_threads": config.worker_threads,
        "io_threads": config.io_threads,
        "solver_threads": config.solver_threads,
        "queue_capacity": config.queue_capacity,
        "observe_mailbox": config.observe_mailbox,
        "wal_sync": config.wal_sync.as_str(),
        "group_commit_ms": config.group_commit_ms,
        "checkpoint_every": config.checkpoint_every,
        "durable": config.data_dir.is_some(),
    })
}

fn measure_token(measure: DensityMeasure) -> &'static str {
    match measure {
        DensityMeasure::AverageDegree => "average-degree",
        _ => "affinity",
    }
}

/// One mine as the closed-loop client saw it.
pub struct Mine {
    measure: DensityMeasure,
    rtt_s: f64,
    version: u64,
    subset: Vec<VertexId>,
    objective_bits: u64,
    wall_ms: f64,
    iterations: f64,
    candidates: f64,
    prunes: f64,
    trace: Option<PhaseSums>,
    queue_wait_us: Vec<f64>,
}

fn parse_mine(measure: DensityMeasure, rtt_s: f64, response: &Value) -> Option<Mine> {
    let result = &response["result"];
    let stats = &result["stats"];
    let subset = result["subset"]
        .as_array()?
        .iter()
        .map(|v| v.as_u64().map(|v| v as VertexId))
        .collect::<Option<Vec<_>>>()?;
    (response["termination"].as_str() == Some("converged")).then_some(())?;
    Some(Mine {
        measure,
        rtt_s,
        version: response["version"].as_u64()?,
        subset,
        objective_bits: result["density_difference"].as_f64()?.to_bits(),
        wall_ms: stats["wall_ms"].as_f64()?,
        iterations: stats["iterations"].as_f64()?,
        candidates: stats["candidates"].as_f64()?,
        prunes: stats["prunes"].as_f64()?,
        trace: None,
        queue_wait_us: Vec::new(),
    })
}

fn mine_request(measure: DensityMeasure) -> Value {
    json!({ "cmd": "mine", "session": SESSION, "measure": measure_token(measure) })
}

/// Sends one mine and times its round trip; when tracing, drains the rings
/// and attaches the spans the mine caused.
pub fn timed_mine(
    client: &mut Client,
    measure: DensityMeasure,
    tracer: Option<&mut Tracer>,
) -> Option<Mine> {
    let sent = Instant::now();
    let response = client.request(mine_request(measure));
    let received = Instant::now();
    let rtt_s = (received - sent).as_secs_f64();
    let mut mine = parse_mine(measure, rtt_s, &response.ok()?)?;
    if let Some(tracer) = tracer {
        let events = tracer.drain();
        let ours = spans::attribute(tracer.interval(sent, received), &events);
        mine.queue_wait_us = ours
            .iter()
            .filter(|e| e.phase == dcs_obs::trace::Phase::QueueWait)
            .map(|e| e.duration_us as f64)
            .collect();
        mine.trace = Some(spans::phase_sums(&ours));
    }
    Some(mine)
}

#[derive(Default)]
struct MinerLog {
    mines: Vec<Mine>,
    cycles_s: Vec<f64>,
    tally: Tally,
    elapsed_s: f64,
}

/// The closed-loop miner: alternates the measures until `stop` is set.
/// Each mine waits until the stream has moved the graph past the version
/// the previous mine of its measure saw, so every mine measures a solve
/// rather than a cache hit.
fn miner(
    client: &mut Client,
    stop: &AtomicBool,
    acked_version: &AtomicU64,
    mut tracer: Option<&mut Tracer>,
) -> MinerLog {
    let mut log = MinerLog::default();
    // The warm-up mined both measures at version 0.
    let mut last_mined = [0u64; 2];
    let start = Instant::now();
    'cycles: while !stop.load(Ordering::Relaxed) {
        let mut cycle_start = Instant::now();
        for (slot, measure) in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity]
            .into_iter()
            .enumerate()
        {
            while acked_version.load(Ordering::Acquire) <= last_mined[slot] {
                if stop.load(Ordering::Relaxed) {
                    break 'cycles;
                }
                std::thread::sleep(Duration::from_micros(100));
                // A cycle starts when its first mine can be sent.
                if slot == 0 {
                    cycle_start = Instant::now();
                }
            }
            let mine = timed_mine(client, measure, tracer.as_deref_mut());
            log.tally
                .check(mine.is_some(), "a mine failed or did not converge");
            let Some(mine) = mine else { continue };
            last_mined[slot] = mine.version;
            log.mines.push(mine);
        }
        log.cycles_s.push(cycle_start.elapsed().as_secs_f64());
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    log
}

/// One observe batch as the open-loop generator saw it.
struct Ack {
    latency_s: f64,
    lag_s: f64,
}

struct StreamLog {
    acks: Vec<Ack>,
    acked_batches: usize,
    elapsed_s: f64,
    tally: Tally,
}

/// The open-loop generator: sends batch `i` at `start + i / RATE` from one
/// thread over a nonblocking socket and times each acknowledgement from its
/// batch's due time.
fn open_loop(
    addr: SocketAddr,
    stream: &UpdateStream,
    seconds: f64,
    acked_version: &AtomicU64,
) -> StreamLog {
    let mut socket = TcpStream::connect(addr).expect("connect the observe stream");
    socket.set_nodelay(true).expect("disable Nagle");
    socket.set_nonblocking(true).expect("nonblocking socket");
    let poller = Poller::new().expect("open a poller");
    poller
        .register(socket.as_raw_fd(), 0, Interest::READABLE)
        .expect("register the socket");
    let mut events: Vec<Event> = Vec::new();

    let interval = Duration::from_secs_f64(1.0 / RATE);
    let batches = (seconds * RATE).floor() as usize;
    let start = Instant::now();
    let mut next = 0usize;
    let mut line = inputs::observe_line(SESSION, &stream.batch(0));
    let mut out: Vec<u8> = Vec::new();
    let mut written = 0usize;
    let mut pending: VecDeque<(Instant, Duration)> = VecDeque::new();
    let mut inbuf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut log = StreamLog {
        acks: Vec::new(),
        acked_batches: 0,
        elapsed_s: 0.0,
        tally: Tally::default(),
    };
    let mut last_version = 0u64;
    let give_up = start + Duration::from_secs_f64(seconds + 30.0);
    let mut watching_writes = false;

    while next < batches || !pending.is_empty() {
        let now = Instant::now();
        if now > give_up {
            log.tally
                .check(false, "observe acknowledgements stopped arriving");
            break;
        }
        let due = start + interval * next as u32;
        if next < batches && now >= due {
            out.extend_from_slice(line.as_bytes());
            pending.push_back((due, now - due));
            next += 1;
            if next < batches {
                line = inputs::observe_line(SESSION, &stream.batch(next));
            }
            continue;
        }
        // Flush what the socket takes.
        while written < out.len() {
            match socket.write(&out[written..]) {
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) => panic!("observe stream write failed: {e}"),
            }
        }
        if written == out.len() {
            out.clear();
            written = 0;
        }
        // Read every acknowledgement that has arrived.
        loop {
            match socket.read(&mut chunk) {
                Ok(0) => panic!("the server closed the observe stream"),
                Ok(n) => inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("observe stream read failed: {e}"),
            }
        }
        let arrived = Instant::now();
        while let Some(end) = inbuf.iter().position(|&b| b == b'\n') {
            let text: Vec<u8> = inbuf.drain(..=end).collect();
            let (due, lag) = pending
                .pop_front()
                .expect("a response answers a sent batch");
            let response: Option<Value> = std::str::from_utf8(&text)
                .ok()
                .and_then(|t| serde_json::from_str(t.trim_end()).ok());
            let ok = response.as_ref().is_some_and(|r| {
                let version = r["version"].as_u64().unwrap_or(0);
                let applied = r["applied"].as_u64().unwrap_or(u64::MAX);
                let fits = r["ok"] == true && version == last_version + applied;
                if fits {
                    last_version = version;
                    acked_version.store(version, Ordering::Release);
                }
                fits
            });
            log.tally
                .check(ok, "an observe was refused or acknowledged out of order");
            log.acks.push(Ack {
                latency_s: (arrived - due).as_secs_f64(),
                lag_s: lag.as_secs_f64(),
            });
            log.acked_batches += 1;
        }
        // Wait for the next due time or an acknowledgement.
        let want_writes = !out.is_empty();
        if want_writes != watching_writes {
            let interest = if want_writes {
                Interest::BOTH
            } else {
                Interest::READABLE
            };
            poller
                .modify(socket.as_raw_fd(), 0, interest)
                .expect("update the poll interest");
            watching_writes = want_writes;
        }
        let now = Instant::now();
        let until = if next < batches {
            (start + interval * next as u32).saturating_duration_since(now)
        } else {
            Duration::from_millis(50)
        };
        if until >= Duration::from_millis(1) {
            let whole_ms = Duration::from_millis(until.as_millis() as u64);
            poller
                .wait(&mut events, Some(whole_ms))
                .expect("poll the socket");
        } else if !until.is_zero() {
            std::thread::sleep(until);
        }
    }
    log.elapsed_s = start.elapsed().as_secs_f64();
    poller
        .deregister(socket.as_raw_fd())
        .expect("deregister the socket");
    log
}

struct Phase {
    peak_rss_mb: f64,
    /// Trace events lost to full rings (traced phase only).
    dropped: u64,
    miner: MinerLog,
    stream: StreamLog,
    server_stats: Value,
    tally: Tally,
    apply_batch_us: Vec<f64>,
    final_subsets: Vec<Vec<VertexId>>,
}

/// Replays the acknowledged batches through a local monitor, checking the
/// sampled mines (and the final ones) solve to the same subset and
/// objective bits.
fn replay_check(
    baseline: &SignedGraph,
    stream: &UpdateStream,
    acked_batches: usize,
    targets: &[(u64, DensityMeasure, Vec<VertexId>, u64)],
    tally: &mut Tally,
) -> Vec<f64> {
    let config = StreamingConfig {
        remine_every: 0,
        alert_threshold: 0.0,
        measure: DensityMeasure::GraphAffinity,
    };
    let mut monitor = StreamingDcs::new(baseline.clone(), config).expect("a valid baseline");
    let mut targets: Vec<_> = targets.iter().collect();
    targets.sort_by_key(|t| t.0);
    let mut targets = targets.into_iter().peekable();
    let cx = SolveContext::unbounded().with_threads(1);
    let mut apply_us = Vec::with_capacity(acked_batches);
    let mut check_due = |monitor: &mut StreamingDcs, tally: &mut Tally| {
        while let Some(&(version, measure, subset, bits)) = targets.peek() {
            if *version != monitor.version() {
                break;
            }
            let gd = monitor.difference_snapshot();
            let config = StreamingConfig {
                measure: *measure,
                ..config
            };
            let alert = mine_difference_in(&gd, &config, monitor.observations(), None, &cx);
            tally.check(
                alert.report.subset == *subset && alert.density_difference.to_bits() == *bits,
                &format!("mine at version {version} differs from the local replay"),
            );
            targets.next();
        }
    };
    check_due(&mut monitor, tally);
    for index in 0..acked_batches {
        let batch = stream.batch(index);
        let start = Instant::now();
        std::hint::black_box(monitor.apply_batch(batch));
        apply_us.push(start.elapsed().as_secs_f64() * 1e6);
        check_due(&mut monitor, tally);
    }
    for (version, ..) in targets {
        tally.check(
            false,
            &format!("no acknowledged prefix reaches mined version {version}"),
        );
    }
    apply_us
}

fn measure(
    pack: &PackedPair,
    baseline: &SignedGraph,
    stream: &UpdateStream,
    seconds: f64,
    traced: bool,
) -> Phase {
    // The set-up connection becomes the miner's; the stream opens the second.
    let (handle, mut miner_client) = start_server(server_config(), pack_create(pack, false));
    let addr = handle.local_addr();
    for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
        miner_client
            .request(mine_request(measure))
            .expect("warm-up mine");
    }
    let mut tracer = traced.then(Tracer::enable);
    let stop = AtomicBool::new(false);
    let acked_version = AtomicU64::new(0);
    let (miner_log, stream_log) = std::thread::scope(|scope| {
        let tracer_ref = tracer.as_mut();
        let client = &mut miner_client;
        let (stop, acked) = (&stop, &acked_version);
        let miner_thread = scope.spawn(move || miner(client, stop, acked, tracer_ref));
        let stream_log = open_loop(addr, stream, seconds, acked);
        stop.store(true, Ordering::Relaxed);
        let log = miner_thread.join().expect("the miner thread finishes");
        (log, stream_log)
    });
    let peak_rss_mb = report::peak_rss_mb();
    let dropped = tracer.as_ref().map_or(0, Tracer::dropped);
    drop(tracer);

    // Final mines after the stream stopped, for the replay check.
    let mut tally = Tally::default();
    let mut finals = Vec::new();
    for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
        let response = miner_client.request(mine_request(measure));
        let mine = response.ok().and_then(|r| parse_mine(measure, 0.0, &r));
        tally.check(mine.is_some(), "a final mine failed");
        finals.extend(mine);
    }
    let server_stats = miner_client
        .request(json!({ "cmd": "stats" }))
        .expect("server-wide stats");
    stop_server(handle, miner_client);

    // Sample mid-stream mines of each measure, plus the final ones.
    let mut targets = Vec::new();
    for measure in [DensityMeasure::AverageDegree, DensityMeasure::GraphAffinity] {
        let of_measure: Vec<&Mine> = miner_log
            .mines
            .iter()
            .filter(|m| m.measure == measure)
            .collect();
        let step = (of_measure.len() / CHECKED_MINES).max(1);
        targets.extend(
            of_measure
                .iter()
                .step_by(step)
                .map(|m| (m.version, measure, m.subset.clone(), m.objective_bits)),
        );
    }
    targets.extend(
        finals
            .iter()
            .map(|m| (m.version, m.measure, m.subset.clone(), m.objective_bits)),
    );
    let apply_batch_us = replay_check(
        baseline,
        stream,
        stream_log.acked_batches,
        &targets,
        &mut tally,
    );
    let final_subsets = finals.into_iter().map(|m| m.subset).collect();
    Phase {
        peak_rss_mb,
        dropped,
        miner: miner_log,
        stream: stream_log,
        server_stats,
        tally,
        apply_batch_us,
        final_subsets,
    }
}

/// Median microseconds to parse the observe lines and to render their
/// acknowledgements, on the first (up to 4000) of the workload's own batches.
pub fn protocol_costs(stream: &UpdateStream, batches: usize, session: &str) -> (f64, f64) {
    let mut parse_us = Vec::new();
    let mut render_us = Vec::new();
    let mut version = 0u64;
    for index in 0..batches.min(4000) {
        let batch = stream.batch(index);
        let line = inputs::observe_line(session, &batch);
        let start = Instant::now();
        let value: Value = serde_json::from_str(line.trim_end()).expect("observe lines parse");
        let request = Request::from_value(&value).expect("observe lines are valid requests");
        parse_us.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(request);
        version += batch.len() as u64;
        let start = Instant::now();
        let mut body = Response::Observed {
            applied: batch.len(),
            ignored: 0,
            version,
            alerts: Vec::new(),
        }
        .into_body();
        body["ok"] = json!(true);
        body["proto"] = json!(dcs_server::PROTO_VERSION);
        let rendered = serde_json::to_string(&body).expect("responses serialize");
        render_us.push(start.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(rendered);
    }
    (
        stats::median(&parse_us).unwrap_or(0.0),
        stats::median(&render_us).unwrap_or(0.0),
    )
}

/// Sets the per-layer metrics of traced mines: snapshot rebuild, queue
/// wait, job wall and wire time, affinity solve statistics, and the peel
/// and DCSGA phases.  Returns the per-mine phase sums of each measure.
pub fn set_mine_layers(metrics: &mut Metrics, mines: &[Mine]) -> (Vec<PhaseSums>, Vec<PhaseSums>) {
    let sums = |m: &Mine, phase: &str| {
        m.trace
            .as_ref()
            .and_then(|t| t.get(phase).copied())
            .unwrap_or_default()
    };
    let med = |values: Vec<f64>| stats::median(&values).unwrap_or(0.0);
    metrics.set(
        "graph.snapshot_rebuild_ms",
        med(mines
            .iter()
            .map(|m| sums(m, "snapshot_rebuild").total_us as f64 / 1e3)
            .collect()),
    );
    metrics.set(
        "graph.snapshot_dirty_rows",
        med(mines
            .iter()
            .map(|m| sums(m, "snapshot_rebuild").units as f64)
            .collect()),
    );
    let waits: Vec<f64> = mines
        .iter()
        .flat_map(|m| m.queue_wait_us.iter().copied())
        .collect();
    metrics.set(
        "server.queue_wait_p50_us",
        stats::percentile(&waits, 50.0).unwrap_or(0.0),
    );
    metrics.set(
        "server.queue_wait_p99_us",
        stats::percentile(&waits, 99.0).unwrap_or(0.0),
    );
    metrics.set(
        "server.job_wall_ms",
        med(mines.iter().map(|m| m.wall_ms).collect()),
    );
    metrics.set(
        "server.wire_ms",
        med(mines
            .iter()
            .map(|m| {
                m.rtt_s * 1e3
                    - m.queue_wait_us.iter().sum::<f64>() / 1e3
                    - sums(m, "snapshot_rebuild").total_us as f64 / 1e3
                    - m.wall_ms
            })
            .collect()),
    );
    let ga: Vec<&Mine> = mines
        .iter()
        .filter(|m| m.measure == DensityMeasure::GraphAffinity)
        .collect();
    metrics.set(
        "core.solve_iterations",
        med(ga.iter().map(|m| m.iterations).collect()),
    );
    metrics.set(
        "core.solve_candidates",
        med(ga.iter().map(|m| m.candidates).collect()),
    );
    metrics.set(
        "core.solve_prunes",
        med(ga.iter().map(|m| m.prunes).collect()),
    );
    metrics.set(
        "core.prune_ratio",
        med(ga
            .iter()
            .map(|m| m.prunes / m.candidates.max(1.0))
            .collect()),
    );
    let traces_of = |measure| -> Vec<PhaseSums> {
        mines
            .iter()
            .filter(|m| m.measure == measure)
            .filter_map(|m| m.trace.clone())
            .collect()
    };
    let ad_traces = traces_of(DensityMeasure::AverageDegree);
    let ga_traces = traces_of(DensityMeasure::GraphAffinity);
    set_solver_layers(metrics, &ad_traces, &ga_traces);
    (ad_traces, ga_traces)
}

/// Sets the per-layer metrics read off the server-wide `stats` payload.
pub fn set_server_stats(metrics: &mut Metrics, stats: &Value) {
    let number = |v: &Value| v.as_f64().unwrap_or(0.0);
    let requests = number(&stats["requests"]["total"]).max(1.0);
    metrics.set(
        "server.read_events_per_req",
        number(&stats["io"]["read_events"]) / requests,
    );
    metrics.set(
        "server.write_events_per_req",
        number(&stats["io"]["write_events"]) / requests,
    );
    metrics.set("server.cache_hit_rate", number(&stats["cache"]["hit_rate"]));
    metrics.set("server.coalesced", number(&stats["batching"]["coalesced"]));
    metrics.set("server.shed", number(&stats["io"]["shed"]));
    metrics.set("server.errors", number(&stats["requests"]["errors"]));
}

pub fn run(args: &RunArgs, work: &WorkDir) -> Outcome {
    let pack = inputs::prepare(&args.workload, args.seed, &work.subdir("packs"));
    let stream = UpdateStream::new(
        &pack.open_g2(),
        BATCH,
        inputs::derive_seed(args.seed, "serve-stream/stream"),
    );
    let baseline = GraphPack::open(&pack.g1_pack)
        .and_then(|p| p.to_graph())
        .expect("the baseline pack opens");
    report::reset_peak_rss();

    let cpu_before = report::CpuTimes::now();
    let untraced = measure(&pack, &baseline, &stream, args.seconds, false);
    let steal = report::CpuTimes::now().steal_frac_since(&cpu_before);
    // Set-ups run after the measured phase so their servers' memory does not
    // count toward its peak RSS.
    let mut setup_s = Vec::new();
    let mut pack_open_ms = Vec::new();
    let setup_cpu = report::CpuTimes::now();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let (handle, client) = start_server(server_config(), pack_create(&pack, false));
        setup_s.push(start.elapsed().as_secs_f64());
        stop_server(handle, client);
        pack_open_ms.push(time_pack_open(&pack));
    }
    let setup_steal = report::CpuTimes::now().steal_frac_since(&setup_cpu);

    let mut tally = untraced.tally;
    tally.absorb(untraced.miner.tally);
    tally.absorb(untraced.stream.tally);
    let cycle_p50_ms = report::median_ms(&untraced.miner.cycles_s);
    let mut metrics = Metrics::default();

    let mine_ms = |phase: &Phase, measure| {
        report::to_ms(
            phase
                .miner
                .mines
                .iter()
                .filter(|m| m.measure == measure)
                .map(|m| m.rtt_s),
        )
    };
    let lag_ms = report::to_ms(untraced.stream.acks.iter().map(|a| a.lag_s));
    let mut detail = json!({
        "cycle_ms": report::latency_summary(&report::to_ms(untraced.miner.cycles_s.iter().copied())),
        "mine_ad_ms": report::latency_summary(&mine_ms(&untraced, DensityMeasure::AverageDegree)),
        "mine_ga_ms": report::latency_summary(&mine_ms(&untraced, DensityMeasure::GraphAffinity)),
        "observe_ms": report::latency_summary(&report::to_ms(untraced.stream.acks.iter().map(|a| a.latency_s))),
        "observes_per_s": (untraced.stream.acked_batches * BATCH) as f64 / untraced.stream.elapsed_s,
        "offered_updates_per_s": RATE * BATCH as f64,
        "loadgen_lag_ms": report::latency_summary(&lag_ms),
        "final_versions_checked": untraced.final_subsets.len(),
    });
    report::EndToEnd {
        setup_s,
        setup_steal,
        ops_per_s: untraced.miner.cycles_s.len() as f64 / untraced.miner.elapsed_s,
        op_steal: steal,
        peak_rss_mb: untraced.peak_rss_mb,
    }
    .report(&mut metrics, &mut detail);

    if args.trace {
        let traced_cpu = report::CpuTimes::now();
        let traced = measure(&pack, &baseline, &stream, args.seconds, true);
        let traced_steal = report::CpuTimes::now().steal_frac_since(&traced_cpu);
        tally.absorb(traced.tally);
        tally.absorb(traced.miner.tally);
        tally.absorb(traced.stream.tally);
        let traced_p50 = report::median_ms(&traced.miner.cycles_s);
        metrics.set(
            "obs.trace_overhead_frac",
            report::trace_overhead(traced_p50, traced_steal, cycle_p50_ms, steal),
        );
        metrics.set("obs.trace_dropped", traced.dropped as f64);
        metrics.set(
            "graph.pack_open_ms",
            stats::median(&pack_open_ms).unwrap_or(0.0),
        );

        let (ad_traces, ga_traces) = set_mine_layers(&mut metrics, &traced.miner.mines);
        set_server_stats(&mut metrics, &traced.server_stats);
        let (parse_us, render_us) = protocol_costs(&stream, traced.stream.acked_batches, SESSION);
        metrics.set("protocol.parse_us", parse_us);
        metrics.set("protocol.render_us", render_us);
        metrics.set(
            "core.apply_batch_us",
            stats::median(&traced.apply_batch_us).unwrap_or(0.0),
        );
        metrics.set(
            "quality.planted_jaccard",
            inputs::planted_jaccard(&pack.planted, &traced.final_subsets),
        );
        detail["traced_cycle_ms"] =
            report::latency_summary(&report::to_ms(traced.miner.cycles_s.iter().copied()));
        detail["phases"] = json!({
            "mine_ad": phase_table(&ad_traces),
            "mine_ga": phase_table(&ga_traces),
        });
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
            "open_loop_batches_per_s": RATE,
            "server": server_provenance(&server_config()),
            "client_threads": 2,
            "connections": 2,
            "setup_repeats": SETUP_REPEATS,
        }),
        detail,
        metrics,
        tally,
    }
}

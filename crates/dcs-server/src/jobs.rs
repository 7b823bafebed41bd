//! Mining jobs and the worker pool that executes them.
//!
//! Mining is CPU-bound, so I/O threads never solve anything themselves: they
//! submit a [`JobSpec`] with a completion callback
//! ([`WorkerPool::submit_with`]): the callback renders the response on the
//! worker thread and posts it back to the owning event loop, so no I/O thread
//! ever blocks on a job.  The pool has a fixed number of workers and a
//! **bounded** queue — when it is full, submission fails immediately with
//! [`ServerError::Busy`] and the caller decides how to shed the load.
//!
//! Scheduling is **one FIFO with coalescing**: every submission joins the
//! back of a single locked queue, and an idle worker takes the front job.  A
//! worker that takes a mining job locks its session once and also takes
//! every queued job with the same session and cache key out of the queue.
//! On a cache hit all of them are answered from the cache; on a miss the
//! worker snapshots the session's graph once (shared `Arc<SignedGraph>`
//! handles) and solves once — the followers are answered with the leader's
//! result, marked `"coalesced": true`.  Jobs of other sessions or keys keep
//! their place in the queue for the next idle worker.  Batch sizes and
//! coalesced-job counts are exported through the pool's accessors into the
//! server's `stats` payload.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use dcs_core::dcsga::DcsgaConfig;
use dcs_core::{
    alpha_sweep_in, default_alpha_grid, mine_difference_in, top_k_in, CancelToken, DensityMeasure,
    SharedWorkspace, SolveContext, Termination,
};
use dcs_graph::VertexId;
use dcs_obs::metrics::{Gauge, Histogram, HistogramSnapshot};
use dcs_obs::trace;
use serde_json::{json, Value};

use crate::error::ServerError;
use crate::protocol::{alert_to_json, measure_token, report_to_json, stats_to_json};
use crate::session::SharedSession;

/// Description of one mining job; doubles as the cache key.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Mine the current DCS (the `mine` command).
    Mine {
        /// Measure override; `None` uses the session's configured measure.
        measure: Option<DensityMeasure>,
    },
    /// Mine up to `k` vertex-disjoint contrast subgraphs (the `topk` command).
    TopK {
        /// Maximum number of subgraphs.
        k: usize,
        /// Measure override.
        measure: Option<DensityMeasure>,
    },
    /// α-sweep of the scaled difference graph (the `sweep` command).
    Sweep {
        /// α grid; `None` uses [`default_alpha_grid`].
        alphas: Option<Vec<f64>>,
        /// Measure override.
        measure: Option<DensityMeasure>,
    },
}

impl JobSpec {
    /// Stable lowercase token naming the job kind (`"mine"` / `"topk"` /
    /// `"sweep"`) — the label latency metrics are aggregated under.
    pub fn kind_token(&self) -> &'static str {
        match self {
            JobSpec::Mine { .. } => "mine",
            JobSpec::TopK { .. } => "topk",
            JobSpec::Sweep { .. } => "sweep",
        }
    }

    /// The measure this job will solve with, given the session's default.
    pub fn resolved_measure(&self, default_measure: DensityMeasure) -> DensityMeasure {
        let measure = match self {
            JobSpec::Mine { measure } => measure,
            JobSpec::TopK { measure, .. } => measure,
            JobSpec::Sweep { measure, .. } => measure,
        };
        measure.unwrap_or(default_measure)
    }

    /// The cache key of this job given the session's default measure.  Two
    /// requests with the same key against the same graph version are
    /// interchangeable.
    pub fn cache_key(&self, default_measure: DensityMeasure) -> String {
        let resolved = |m: &Option<DensityMeasure>| measure_token(m.unwrap_or(default_measure));
        match self {
            JobSpec::Mine { measure } => format!("mine|{}", resolved(measure)),
            JobSpec::TopK { k, measure } => format!("topk|{k}|{}", resolved(measure)),
            JobSpec::Sweep { alphas, measure } => {
                let grid = match alphas {
                    None => "default".to_string(),
                    Some(values) => values
                        .iter()
                        .map(|a| format!("{a}"))
                        .collect::<Vec<_>>()
                        .join(","),
                };
                format!("sweep|{grid}|{}", resolved(measure))
            }
        }
    }

    fn snapshot(&self, session: &mut crate::session::Session) -> Snapshot {
        let monitor = session.monitor_mut();
        match self {
            JobSpec::Mine { measure } => {
                let mut config = *monitor.config();
                if let Some(m) = measure {
                    config.measure = *m;
                }
                Snapshot::Mine {
                    seed: monitor.last_support().map(<[VertexId]>::to_vec),
                    observations: monitor.observations(),
                    gd: monitor.difference_snapshot(),
                    config,
                }
            }
            JobSpec::TopK { k, measure } => Snapshot::TopK {
                k: *k,
                measure: measure.unwrap_or(monitor.config().measure),
                gd: monitor.difference_snapshot(),
            },
            JobSpec::Sweep { alphas, measure } => Snapshot::Sweep {
                g2: monitor.observed_graph(),
                g1: monitor.baseline_arc(),
                alphas: alphas.clone().unwrap_or_else(default_alpha_grid),
                measure: measure.unwrap_or(monitor.config().measure),
            },
        }
    }

    fn solve(
        &self,
        snapshot: Snapshot,
        version: u64,
        cx: &SolveContext,
    ) -> Result<(Value, Termination), ServerError> {
        match snapshot {
            Snapshot::Mine {
                gd,
                config,
                observations,
                seed,
            } => {
                let alert = mine_difference_in(&gd, &config, observations, seed.as_deref(), cx);
                let termination = alert.stats.termination;
                Ok((
                    json!({
                        "version": version,
                        "result": alert_to_json(&alert),
                        "termination": termination.as_str(),
                    }),
                    termination,
                ))
            }
            Snapshot::TopK { gd, k, measure } => {
                // Measure dispatch lives in the engine (`MeasureSolver` inside
                // `top_k_in`) — the server no longer hard-codes solver choice.
                let outcome = top_k_in(&gd, k, measure, DcsgaConfig::default(), cx);
                let results: Vec<Value> = outcome
                    .solutions
                    .iter()
                    .enumerate()
                    .map(|(rank, solution)| {
                        let mut value = report_to_json(&solution.report_in(&gd, cx));
                        value["rank"] = json!(rank + 1);
                        value["objective"] = json!(solution.objective);
                        value
                    })
                    .collect();
                Ok((
                    json!({
                        "version": version,
                        "results": results,
                        "termination": outcome.termination.as_str(),
                        "stats": stats_to_json(&outcome.stats),
                    }),
                    outcome.termination,
                ))
            }
            Snapshot::Sweep {
                g2,
                g1,
                alphas,
                measure,
            } => {
                let sweep = alpha_sweep_in(&g2, &g1, &alphas, measure, cx)?;
                let rendered: Vec<Value> = sweep
                    .points
                    .iter()
                    .map(|point| {
                        let mut value = report_to_json(&point.report);
                        value["alpha"] = json!(point.alpha);
                        value["objective"] = json!(point.objective);
                        value
                    })
                    .collect();
                Ok((
                    json!({
                        "version": version,
                        "points": rendered,
                        "termination": sweep.termination.as_str(),
                        "stats": stats_to_json(&sweep.stats),
                    }),
                    sweep.termination,
                ))
            }
        }
    }
}

/// Inputs captured under the session lock, solved outside it.
///
/// Graphs are `Arc` handles into the session's delta engine (and baseline) —
/// capturing a snapshot clones pointers, not adjacency arrays.  Only the
/// observed graph of a sweep is materialised, because the sweep re-scales the
/// raw `(G2, G1)` pair rather than consuming `G_D`.
enum Snapshot {
    Mine {
        gd: Arc<dcs_graph::SignedGraph>,
        config: dcs_core::StreamingConfig,
        observations: usize,
        /// Warm-start seed: the support of the session's last cadence mine.
        seed: Option<Vec<VertexId>>,
    },
    TopK {
        gd: Arc<dcs_graph::SignedGraph>,
        k: usize,
        measure: DensityMeasure,
    },
    Sweep {
        g2: dcs_graph::SignedGraph,
        g1: Arc<dcs_graph::SignedGraph>,
        alphas: Vec<f64>,
        measure: DensityMeasure,
    },
}

/// Any unit of work the pool can run (mining queries, cadence observes).
///
/// The argument is the executing **worker thread's** [`SharedWorkspace`]: each worker
/// owns one workspace for its whole lifetime, so back-to-back jobs on a thread reuse
/// the same solver scratch buffers — peel heaps and the flow arena for average-degree
/// jobs, the dense DCSGA embedding arena for affinity jobs, which also mine the
/// snapshot's positive part as a filtered view instead of copying the CSR (mining
/// tasks thread the workspace into their [`SolveContext`]; observe tasks ignore it).
pub type Task = Box<dyn FnOnce(&SharedWorkspace) -> Result<Value, ServerError> + Send + 'static>;

/// A completion callback invoked with the job's outcome on a worker thread:
/// the reply slot of one submitted job.  The serving tier's I/O threads must
/// never block on a job, so they hand the pool a callback that renders the
/// response and posts it back to the owning event loop.
pub type Completion = Box<dyn FnOnce(Result<Value, ServerError>) + Send + 'static>;

/// A mining job waiting in the queue.
struct MiningJob {
    session: SharedSession,
    spec: JobSpec,
    cx: SolveContext,
    reply: Completion,
    /// When the job was accepted — the claiming worker records the wait into
    /// the pool's queue-wait histogram (and, when tracing is enabled, a
    /// [`trace::Phase::QueueWait`] event).
    enqueued: Instant,
}

/// An opaque task (cadence observes) — never coalesced, runs as-is.
struct OpaqueJob {
    task: Task,
    reply: Completion,
    enqueued: Instant,
}

/// One entry of the pool's queue.
enum Job {
    Mining(MiningJob),
    Opaque(OpaqueJob),
}

/// The queue and the shutdown flag, guarded by one lock.
struct State {
    /// Accepted, unclaimed jobs in arrival order; its length is the
    /// admission count.
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// State shared between the pool handle and its workers.
struct PoolShared {
    state: Mutex<State>,
    /// Signalled once per submission and on shutdown.
    ready: Condvar,
    executed: AtomicU64,
    coalesced: AtomicU64,
    inflight: Gauge,
    queue_wait_us: Histogram,
    /// Jobs per executed solve (1 = no coalescing happened).
    batch_size: Histogram,
}

impl PoolShared {
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until a job is queued and takes the front one; `None` once the
    /// pool is shut down and the queue is drained.
    fn next_job(&self) -> Option<Job> {
        let mut state = self.lock_state();
        loop {
            if let Some(job) = state.jobs.pop_front() {
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Takes every queued mining job of `session` whose cache key is `key`
    /// out of the queue, in arrival order.  The caller holds the session
    /// lock: the lock order is session → queue, and nothing takes them the
    /// other way round.
    fn take_followers(
        &self,
        session: &SharedSession,
        key: &str,
        default_measure: DensityMeasure,
    ) -> Vec<MiningJob> {
        let mut state = self.lock_state();
        let mut followers = Vec::new();
        let mut index = 0;
        while index < state.jobs.len() {
            let follows = matches!(
                &state.jobs[index],
                Job::Mining(job) if Arc::ptr_eq(&job.session, session)
                    && job.spec.cache_key(default_measure) == key
            );
            if !follows {
                index += 1;
            } else if let Some(Job::Mining(job)) = state.jobs.remove(index) {
                followers.push(job);
            }
        }
        followers
    }

    /// Counts one job as claimed and records its queue wait.
    fn note_claimed(&self, enqueued: Instant) {
        self.inflight.inc();
        let wait = enqueued.elapsed();
        self.queue_wait_us.record_duration(wait);
        trace::record(trace::Phase::QueueWait, enqueued, wait, 1);
    }

    /// Replies to one claimed job and closes its inflight accounting.
    fn finish(&self, reply: Completion, outcome: Result<Value, ServerError>) {
        self.executed.fetch_add(1, Ordering::Relaxed);
        self.inflight.dec();
        reply(outcome);
    }
}

/// A fixed set of worker threads taking jobs from one bounded FIFO, with
/// queued same-session, same-key mining jobs answered by one cache hit or
/// one solve.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    rejected: AtomicU64,
    threads: usize,
    capacity: usize,
}

impl WorkerPool {
    /// Spawns `threads` workers admitting up to `capacity` queued jobs.
    pub fn new(threads: usize, capacity: usize) -> Self {
        let threads = threads.max(1);
        let capacity = capacity.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(State {
                jobs: VecDeque::with_capacity(capacity),
                shutdown: false,
            }),
            ready: Condvar::new(),
            executed: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            inflight: Gauge::new(),
            queue_wait_us: Histogram::new(),
            batch_size: Histogram::new(),
        });
        let workers = (0..threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            rejected: AtomicU64::new(0),
            threads,
            capacity,
        }
    }

    /// Bounded admission: rejects with [`ServerError::Busy`] when `capacity`
    /// jobs are already queued or the pool is shutting down.
    fn push(&self, job: Job) -> Result<(), ServerError> {
        let mut state = self.shared.lock_state();
        if state.shutdown || state.jobs.len() >= self.capacity {
            drop(state);
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Busy);
        }
        state.jobs.push_back(job);
        drop(state);
        self.shared.ready.notify_one();
        Ok(())
    }

    /// Submits a mining job bounded by `cx`; fails with [`ServerError::Busy`]
    /// when the queue is full.  On success, `done` runs exactly once with the
    /// job's outcome **on the worker thread** that finishes it.  The
    /// context's deadline is absolute, so time spent waiting in the queue
    /// counts against the job's deadline — an overloaded server answers
    /// "deadline, best-so-far" rather than holding the client for queue time
    /// plus solve time.
    ///
    /// The session lock is held only while checking the cache and
    /// snapshotting the inputs, and again while storing a result — never
    /// while solving — so observers keep streaming into the session during
    /// long mines.  Only **converged** results enter the session cache: a
    /// deadline-, budget- or cancel-truncated result is never served to
    /// another client.  Queued jobs with the job's session and cache key are
    /// answered by the same cache hit, or by the same solve and then marked
    /// `"coalesced": true`.
    pub fn submit_with(
        &self,
        session: SharedSession,
        spec: JobSpec,
        cx: SolveContext,
        done: Completion,
    ) -> Result<(), ServerError> {
        self.push(Job::Mining(MiningJob {
            session,
            spec,
            cx,
            reply: done,
            enqueued: Instant::now(),
        }))
    }

    /// Submits an arbitrary task (used for observes on cadence-mining
    /// sessions, which can trigger a solve and therefore must not run on
    /// I/O threads), with `done` run on the worker thread that finishes it.
    /// Same bounded-admission semantics as [`Self::submit_with`]; opaque tasks
    /// are never coalesced.
    pub fn submit_task_with(&self, task: Task, done: Completion) -> Result<(), ServerError> {
        self.push(Job::Opaque(OpaqueJob {
            task,
            reply: done,
            enqueued: Instant::now(),
        }))
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Queued-job capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Jobs executed so far (each coalesced follower counts as one job).
    pub fn executed(&self) -> u64 {
        self.shared.executed.load(Ordering::Relaxed)
    }

    /// Jobs rejected because the queue was full or the pool shut down.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Jobs accepted but not yet claimed by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_state().jobs.len()
    }

    /// Jobs claimed by workers and not yet answered.
    pub fn inflight(&self) -> i64 {
        self.shared.inflight.get().max(0)
    }

    /// Snapshot of the queue-wait distribution (microseconds).
    pub fn queue_wait_snapshot(&self) -> HistogramSnapshot {
        self.shared.queue_wait_us.snapshot()
    }

    /// Snapshot of the batch-size distribution: jobs answered per executed
    /// solve (1 = no coalescing).
    pub fn batch_size_snapshot(&self) -> HistogramSnapshot {
        self.shared.batch_size.snapshot()
    }

    /// Jobs answered from another job's solve (batch followers).
    pub fn coalesced(&self) -> u64 {
        self.shared.coalesced.load(Ordering::Relaxed)
    }

    /// Stops admissions, drains the remaining work and joins every worker.
    pub fn shutdown(&mut self) {
        self.shared.lock_state().shutdown = true;
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One worker thread: take the front job until the pool is shut down and the
/// queue is empty, so accepted jobs are drained, not dropped.
fn worker_loop(shared: &PoolShared) {
    // One solver workspace per worker, alive across jobs: the steady-state
    // serving path re-mines into the same scratch buffers instead of
    // allocating them per job.
    let workspace = SharedWorkspace::new();
    while let Some(job) = shared.next_job() {
        match job {
            Job::Mining(job) => serve_mining(shared, job, &workspace),
            Job::Opaque(job) => {
                shared.note_claimed(job.enqueued);
                let outcome = (job.task)(&workspace);
                shared.finish(job.reply, outcome);
            }
        }
    }
}

/// Serves one mining job and every queued job it can answer.  One
/// session-lock pass checks the cache and takes the queued followers (same
/// session, same cache key) out of the queue.  On a cache hit every member
/// is answered from the cached result; on a miss the pass also snapshots the
/// inputs, then one solve under the leader's context, one cache store
/// (converged results at an unchanged version only), and one reply per
/// member — followers marked `"coalesced": true`.  Every reply is sent with
/// no lock held.
fn serve_mining(shared: &PoolShared, leader: MiningJob, workspace: &SharedWorkspace) {
    shared.note_claimed(leader.enqueued);
    let MiningJob {
        session,
        spec,
        cx,
        reply,
        ..
    } = leader;
    let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
    let default_measure = guard.monitor().config().measure;
    let key = spec.cache_key(default_measure);
    let version = guard.version();
    let hit = guard.cache_mut().lookup(&key, version);
    let followers = shared.take_followers(&session, &key, default_measure);
    let mut members = Vec::with_capacity(1 + followers.len());
    members.push(reply);
    for follower in followers {
        shared.note_claimed(follower.enqueued);
        members.push(follower.reply);
    }
    if let Some(mut hit) = hit {
        drop(guard);
        hit["cached"] = json!(true);
        for reply in members {
            shared.finish(reply, Ok(hit.clone()));
        }
        return;
    }
    let snapshot = spec.snapshot(&mut guard);
    drop(guard);

    shared.batch_size.record(members.len() as u64);
    match spec.solve(snapshot, version, &cx.with_workspace(workspace)) {
        Ok((body, termination)) => {
            if termination.is_converged() {
                let mut guard = session.lock().unwrap_or_else(PoisonError::into_inner);
                if guard.version() == version {
                    guard.cache_mut().store(key, version, body.clone());
                }
            }
            for (position, reply) in members.into_iter().enumerate() {
                let mut response = body.clone();
                response["cached"] = json!(false);
                if position > 0 {
                    response["coalesced"] = json!(true);
                    shared.coalesced.fetch_add(1, Ordering::Relaxed);
                }
                shared.finish(reply, Ok(response));
            }
        }
        Err(error) => {
            // `ServerError` is not `Clone`: the leader gets the error itself,
            // followers a rendered copy.
            let message = error.to_string();
            let mut members = members.into_iter();
            if let Some(leader) = members.next() {
                shared.finish(leader, Err(error));
            }
            for reply in members {
                shared.finish(reply, Err(ServerError::Remote(message.clone())));
            }
        }
    }
}

/// Cancellation tokens of in-flight jobs, keyed by the client-supplied job id.
///
/// A mining request may carry a `"job"` field; the connection registers the job's
/// [`CancelToken`] here before submitting, so any *other* connection can abort it
/// with the `cancel` command.  Entries are removed when the job completes.
#[derive(Debug, Default)]
pub struct JobTable {
    tokens: Mutex<HashMap<String, CancelToken>>,
}

impl JobTable {
    /// An empty table.
    pub fn new() -> Self {
        JobTable::default()
    }

    /// Registers an in-flight job; fails when the id is already in use (ids are
    /// client-chosen, so a duplicate is a client error, not a hash collision).
    pub fn register(&self, id: &str, token: CancelToken) -> Result<(), ServerError> {
        let mut tokens = self.tokens.lock().unwrap_or_else(PoisonError::into_inner);
        if tokens.contains_key(id) {
            return Err(ServerError::BadRequest(format!(
                "job id {id:?} is already in flight"
            )));
        }
        tokens.insert(id.to_string(), token);
        Ok(())
    }

    /// Cancels a registered job; returns whether the id was found.
    pub fn cancel(&self, id: &str) -> bool {
        let tokens = self.tokens.lock().unwrap_or_else(PoisonError::into_inner);
        match tokens.get(id) {
            Some(token) => {
                token.cancel();
                true
            }
            None => false,
        }
    }

    /// Removes a completed job's token.
    pub fn remove(&self, id: &str) {
        let mut tokens = self.tokens.lock().unwrap_or_else(PoisonError::into_inner);
        tokens.remove(id);
    }

    /// Number of registered (named, in-flight) jobs.
    pub fn len(&self) -> usize {
        self.tokens
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether no named job is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use dcs_core::StreamingConfig;
    use std::sync::mpsc::{sync_channel, Receiver};
    use std::time::Duration;

    /// Submits a mining job whose completion sends the outcome down a fresh
    /// channel, for tests that block on the reply.
    fn submit_via_channel(
        pool: &WorkerPool,
        session: &SharedSession,
        spec: JobSpec,
        cx: SolveContext,
    ) -> Result<Receiver<Result<Value, ServerError>>, ServerError> {
        let (tx, rx) = sync_channel(1);
        let done: Completion = Box::new(move |outcome| {
            let _ = tx.send(outcome);
        });
        pool.submit_with(Arc::clone(session), spec, cx, done)?;
        Ok(rx)
    }

    /// Submits one unbounded job and waits for its reply.
    fn run(pool: &WorkerPool, session: &SharedSession, spec: JobSpec) -> Value {
        submit_via_channel(pool, session, spec, SolveContext::unbounded())
            .unwrap()
            .recv()
            .unwrap()
            .unwrap()
    }

    fn shared_session(vertices: usize) -> SharedSession {
        let config = StreamingConfig {
            remine_every: 0,
            alert_threshold: 1.0,
            measure: DensityMeasure::GraphAffinity,
        };
        Arc::new(Mutex::new(Session::new(vertices, config).unwrap()))
    }

    fn seed_triangle(session: &SharedSession) {
        session
            .lock()
            .unwrap()
            .observe(&[(0, 1, 4.0), (0, 2, 4.0), (1, 2, 4.0), (3, 4, 0.5)])
            .unwrap();
    }

    #[test]
    fn mine_job_finds_the_triangle_and_caches() {
        let pool = WorkerPool::new(1, 4);
        let session = shared_session(6);
        seed_triangle(&session);
        let spec = JobSpec::Mine { measure: None };
        let first = run(&pool, &session, spec.clone());
        assert_eq!(first["cached"], false);
        assert_eq!(first["result"]["subset"], serde_json::json!([0, 1, 2]));
        assert_eq!(first["result"]["triggered"], true);
        let second = run(&pool, &session, spec.clone());
        assert_eq!(second["cached"], true);
        assert_eq!(second["result"]["subset"], serde_json::json!([0, 1, 2]));
        // New observations invalidate the cache.
        session.lock().unwrap().observe(&[(3, 4, 1.0)]).unwrap();
        let third = run(&pool, &session, spec);
        assert_eq!(third["cached"], false);
    }

    #[test]
    fn distinct_specs_do_not_share_cache_entries() {
        let pool = WorkerPool::new(1, 4);
        let session = shared_session(6);
        seed_triangle(&session);
        let mine = JobSpec::Mine { measure: None };
        let mine_degree = JobSpec::Mine {
            measure: Some(DensityMeasure::AverageDegree),
        };
        assert_ne!(
            mine.cache_key(DensityMeasure::GraphAffinity),
            mine_degree.cache_key(DensityMeasure::GraphAffinity)
        );
        run(&pool, &session, mine);
        let degree = run(&pool, &session, mine_degree);
        assert_eq!(degree["cached"], false);
        // But an explicit measure equal to the default shares the key.
        let explicit = JobSpec::Mine {
            measure: Some(DensityMeasure::GraphAffinity),
        };
        assert_eq!(run(&pool, &session, explicit)["cached"], true);
    }

    #[test]
    fn topk_and_sweep_jobs_produce_ranked_output() {
        let pool = WorkerPool::new(1, 4);
        let session = shared_session(8);
        session
            .lock()
            .unwrap()
            .observe(&[(0, 1, 6.0), (0, 2, 6.0), (1, 2, 6.0), (4, 5, 3.0)])
            .unwrap();
        let topk = run(
            &pool,
            &session,
            JobSpec::TopK {
                k: 3,
                measure: None,
            },
        );
        let results = topk["results"].as_array().unwrap();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0]["rank"], 1);
        assert_eq!(results[0]["subset"], serde_json::json!([0, 1, 2]));
        assert_eq!(results[1]["subset"], serde_json::json!([4, 5]));

        let sweep = run(
            &pool,
            &session,
            JobSpec::Sweep {
                alphas: Some(vec![0.0, 1.0]),
                measure: None,
            },
        );
        let points = sweep["points"].as_array().unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0]["alpha"], 0);
        assert_eq!(points[1]["alpha"], 1);
    }

    #[test]
    fn pool_executes_submitted_jobs() {
        let pool = WorkerPool::new(2, 8);
        let session = shared_session(6);
        seed_triangle(&session);
        let receivers: Vec<_> = (0..6)
            .map(|_| {
                submit_via_channel(
                    &pool,
                    &session,
                    JobSpec::Mine { measure: None },
                    SolveContext::unbounded(),
                )
                .unwrap()
            })
            .collect();
        let mut shared = 0;
        for receiver in receivers {
            let value = receiver.recv().unwrap().unwrap();
            assert_eq!(value["result"]["subset"], serde_json::json!([0, 1, 2]));
            // Identical jobs are answered either from the cache or from a
            // coalesced batch — exactly one of the six pays for a solve.
            if value["cached"] == true || value["coalesced"] == true {
                shared += 1;
            }
        }
        assert!(shared >= 4, "later identical jobs share the first solve");
        assert_eq!(pool.executed(), 6);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.capacity(), 8);
    }

    #[test]
    fn same_version_jobs_coalesce_into_one_batch() {
        // One worker.  The first job blocks the worker on the session lock
        // (held by the test); three more identical jobs pile up behind it.
        // A budget of 0 units keeps every result non-converged, so nothing
        // enters the cache and the pile-up must be answered by coalescing —
        // one solve, followers marked "coalesced".
        let pool = WorkerPool::new(1, 16);
        let session = shared_session(6);
        seed_triangle(&session);
        let cx = || SolveContext::unbounded().with_budget(0);
        let guard = session.lock().unwrap();
        let first =
            submit_via_channel(&pool, &session, JobSpec::Mine { measure: None }, cx()).unwrap();
        // Give the worker time to claim the first job and block on the lock.
        std::thread::sleep(Duration::from_millis(100));
        let rest: Vec<_> = (0..3)
            .map(|_| {
                submit_via_channel(&pool, &session, JobSpec::Mine { measure: None }, cx()).unwrap()
            })
            .collect();
        drop(guard);
        let value = first.recv().unwrap().unwrap();
        assert_eq!(value["cached"], false);
        let mut coalesced = 0;
        for receiver in rest {
            let value = receiver.recv().unwrap().unwrap();
            assert_eq!(value["cached"], false, "budget-0 results must not cache");
            if value["coalesced"] == true {
                coalesced += 1;
            }
        }
        assert!(
            coalesced >= 2,
            "piled-up identical jobs must share one solve, got {coalesced}"
        );
        assert_eq!(pool.coalesced(), coalesced as u64);
        let batches = pool.batch_size_snapshot();
        assert!(batches.count >= 1, "batch sizes must be recorded");
        assert!(batches.max >= 3, "the pile-up forms a batch of at least 3");
        assert_eq!(pool.executed(), 4);
    }

    /// Runs `A1` (a mine on session `a`) on a one-worker pool while the test
    /// holds `a`'s lock, so the worker takes `A1` and blocks; then queues
    /// `rest` behind it, releases the lock and returns every `(label, reply)`
    /// in completion order.
    fn claim_behind_a_blocked_job(
        pool: &WorkerPool,
        a: &SharedSession,
        rest: Vec<(&SharedSession, JobSpec, &'static str)>,
        cx: SolveContext,
    ) -> Vec<(&'static str, Value)> {
        let (tx, rx) = std::sync::mpsc::channel();
        let submit = |session: &SharedSession, spec: JobSpec, label: &'static str| {
            let tx = tx.clone();
            pool.submit_with(
                Arc::clone(session),
                spec,
                cx.clone(),
                Box::new(move |outcome| tx.send((label, outcome.unwrap())).unwrap()),
            )
            .unwrap();
        };
        let guard = a.lock().unwrap();
        submit(a, JobSpec::Mine { measure: None }, "A1");
        while pool.queue_depth() != 0 {
            std::thread::yield_now();
        }
        let jobs = 1 + rest.len();
        for (session, spec, label) in rest {
            submit(session, spec, label);
        }
        drop(guard);
        (0..jobs)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap())
            .collect()
    }

    #[test]
    fn a_claim_takes_queued_same_key_jobs_and_leaves_the_rest_in_order() {
        // A1's claim takes A2 and A3 (same session, same cache key) out of
        // the queue; B and topk keep their FIFO places.  A budget of 0 units
        // keeps every result out of the cache.
        let pool = WorkerPool::new(1, 16);
        let a = shared_session(6);
        let b = shared_session(6);
        seed_triangle(&a);
        seed_triangle(&b);
        let mine = || JobSpec::Mine { measure: None };
        let topk = JobSpec::TopK {
            k: 2,
            measure: None,
        };
        let rest = vec![
            (&b, mine(), "B"),
            (&a, mine(), "A2"),
            (&a, topk, "topk"),
            (&a, mine(), "A3"),
        ];
        let cx = SolveContext::unbounded().with_budget(0);
        let replies = claim_behind_a_blocked_job(&pool, &a, rest, cx);
        let order: Vec<&str> = replies.iter().map(|(label, _)| *label).collect();
        assert_eq!(order, ["A1", "A2", "A3", "B", "topk"]);
        for (label, value) in &replies {
            assert_eq!(value["cached"], false, "{label}");
            let follower = matches!(*label, "A2" | "A3");
            assert_eq!(value["coalesced"] == true, follower, "{label}");
        }
        assert_eq!(pool.batch_size_snapshot().max, 3);
        assert_eq!(pool.executed(), 5);
    }

    #[test]
    fn a_cache_hit_answers_queued_same_key_jobs_too() {
        // A's mine is cached first; A1's claim then answers A2 and A3 from
        // the same cache hit, ahead of B, without solving.
        let pool = WorkerPool::new(1, 16);
        let a = shared_session(6);
        let b = shared_session(6);
        seed_triangle(&a);
        seed_triangle(&b);
        run(&pool, &a, JobSpec::Mine { measure: None });
        let mine = || JobSpec::Mine { measure: None };
        let rest = vec![(&b, mine(), "B"), (&a, mine(), "A2"), (&a, mine(), "A3")];
        let replies = claim_behind_a_blocked_job(&pool, &a, rest, SolveContext::unbounded());
        let order: Vec<&str> = replies.iter().map(|(label, _)| *label).collect();
        assert_eq!(order, ["A1", "A2", "A3", "B"]);
        for (label, value) in &replies {
            assert_eq!(value["cached"] == true, *label != "B", "{label}");
            assert_eq!(value["result"]["subset"], serde_json::json!([0, 1, 2]));
        }
        assert_eq!(pool.coalesced(), 0);
        assert_eq!(
            pool.batch_size_snapshot().count,
            2,
            "only A's first mine and B solve"
        );
        assert_eq!(pool.executed(), 5);
    }

    #[test]
    fn callback_submissions_complete_without_a_channel() {
        let pool = WorkerPool::new(2, 8);
        let session = shared_session(6);
        seed_triangle(&session);
        let (tx, rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let tx = tx.clone();
            pool.submit_with(
                Arc::clone(&session),
                JobSpec::Mine { measure: None },
                SolveContext::unbounded(),
                Box::new(move |outcome| {
                    let value = outcome.unwrap();
                    tx.send(value["result"]["subset"].clone()).unwrap();
                }),
            )
            .unwrap();
        }
        for _ in 0..3 {
            let subset = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(subset, serde_json::json!([0, 1, 2]));
        }
        // Opaque-task callbacks run too.
        let (tx, rx) = std::sync::mpsc::channel();
        pool.submit_task_with(
            Box::new(|_| Ok(json!({"done": true}))),
            Box::new(move |outcome| tx.send(outcome.unwrap()).unwrap()),
        )
        .unwrap();
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap()["done"],
            true
        );
        // The queue drained back to empty.
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.executed(), 4);
    }

    #[test]
    fn full_queue_rejects_with_busy() {
        // One worker, capacity-1 queue, and jobs that block on the session
        // lock held by the test.  At most one job can sit in the worker's
        // hands (blocked on the lock) and one in the queue, so among three
        // submissions at least one must bounce with Busy — independent of
        // how the worker thread is scheduled.
        let pool = WorkerPool::new(1, 1);
        let session = shared_session(6);
        seed_triangle(&session);
        let guard = session.lock().unwrap();
        let mut receivers = Vec::new();
        let mut busy = 0usize;
        for _ in 0..3 {
            match submit_via_channel(
                &pool,
                &session,
                JobSpec::Mine { measure: None },
                SolveContext::unbounded(),
            ) {
                Ok(receiver) => receivers.push(receiver),
                Err(ServerError::Busy) => busy += 1,
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        assert!(busy >= 1, "bounded queue must reject overload");
        assert!(pool.rejected() >= 1);
        // Unblock the session: every accepted job completes successfully.
        drop(guard);
        for receiver in receivers {
            assert!(receiver.recv().unwrap().is_ok());
        }
    }
}

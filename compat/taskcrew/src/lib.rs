//! Offline shim for a persistent worker crew with a blocking broadcast.
//!
//! The build environment has no access to crates.io, so the small slice of
//! `rayon::broadcast`-style functionality a round-based parallel kernel needs
//! is hand-rolled here: a fixed set of threads spawned **once** and reused
//! across many rounds, where [`WorkerCrew::broadcast`] runs one closure on
//! every worker (passed its index) and blocks until all of them finish.
//! This replaces per-round `std::thread::scope` spawns, whose setup/teardown
//! cost dominates short rounds.
//!
//! This crate is the **only** place in the workspace that erases the
//! lifetime of the broadcast closure; soundness rests on the invariant that
//! `broadcast` does not return until every worker has finished running the
//! closure, so the borrow it captures can never be outlived.  Consumers
//! work through the safe API below.
//!
//! No crate in the workspace depends on it at present.

#![warn(missing_docs)]

use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The broadcast closure as seen by workers: lifetime-erased to `'static`.
///
/// Only ever dereferenced between the moment `broadcast` publishes it and
/// the moment the last worker checks in — an interval during which the
/// original `&dyn Fn` borrow is provably alive because `broadcast` is still
/// blocked on `done_cv`.
#[derive(Clone, Copy)]
struct JobPtr(*const (dyn Fn(usize) + Sync + 'static));

// SAFETY: the pointee is `Sync` (shared calls from many threads are fine)
// and, per the invariant above, outlives every dereference.  The pointer is
// only moved between threads under the state mutex.
unsafe impl Send for JobPtr {}

struct CrewState {
    /// Bumped once per broadcast; workers run the job exactly when they see
    /// a generation newer than the last one they completed.
    generation: u64,
    job: Option<JobPtr>,
    /// Workers still running the current generation's job.
    remaining: usize,
    /// Workers that panicked during the current generation's job.
    panicked: usize,
    exit: bool,
}

struct CrewShared {
    state: Mutex<CrewState>,
    /// Signals workers: new generation published, or exit.
    work_cv: Condvar,
    /// Signals the broadcaster: `remaining` hit zero.
    done_cv: Condvar,
}

/// A fixed set of persistent worker threads that repeatedly run broadcast
/// closures, synchronized by a round barrier.
///
/// Dropping the crew shuts the workers down and joins them.
pub struct WorkerCrew {
    shared: Arc<CrewShared>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerCrew {
    /// Spawns `threads` workers (clamped to at least 1).  The workers idle
    /// on a condvar between broadcasts — no spinning.
    pub fn new(threads: usize) -> WorkerCrew {
        let threads = threads.max(1);
        let shared = Arc::new(CrewShared {
            state: Mutex::new(CrewState {
                generation: 0,
                job: None,
                remaining: 0,
                panicked: 0,
                exit: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("taskcrew-{index}"))
                    .spawn(move || worker_loop(&shared, index))
                    .expect("spawn crew worker")
            })
            .collect();
        WorkerCrew { shared, handles }
    }

    /// Number of worker threads in the crew.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Runs `job(index)` on every worker (index `0..threads`) and blocks
    /// until all of them return.  Panics if any worker's job panicked —
    /// after all workers have checked back in, so the crew stays usable.
    pub fn broadcast(&self, job: &(dyn Fn(usize) + Sync)) {
        // Erase the closure's lifetime.  SAFETY (of the later dereference):
        // this function blocks below until `remaining == 0`, i.e. until no
        // worker will touch the pointer again, so `job` outlives all uses.
        let ptr = JobPtr(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync + 'static),
            >(job as *const _)
        });
        let mut state = self.shared.state.lock().unwrap();
        debug_assert_eq!(state.remaining, 0, "broadcast is not reentrant");
        state.generation += 1;
        state.job = Some(ptr);
        state.remaining = self.handles.len();
        state.panicked = 0;
        self.shared.work_cv.notify_all();
        while state.remaining > 0 {
            state = self.shared.done_cv.wait(state).unwrap();
        }
        state.job = None;
        let panicked = state.panicked;
        drop(state);
        if panicked > 0 {
            panic!("{panicked} crew worker(s) panicked during broadcast");
        }
    }
}

impl Drop for WorkerCrew {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().unwrap();
            state.exit = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for WorkerCrew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerCrew")
            .field("threads", &self.handles.len())
            .finish()
    }
}

fn worker_loop(shared: &CrewShared, index: usize) {
    let mut last_done = 0u64;
    loop {
        let (job, generation) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.exit {
                    return;
                }
                if state.generation > last_done {
                    break;
                }
                state = shared.work_cv.wait(state).unwrap();
            }
            (
                state.job.expect("published generation carries a job"),
                state.generation,
            )
        };
        // SAFETY: the broadcaster is blocked on done_cv until we decrement
        // `remaining` below, so the borrow behind the pointer is alive.
        let call = AssertUnwindSafe(|| unsafe { (*job.0)(index) });
        let outcome = std::panic::catch_unwind(call);
        last_done = generation;
        let mut state = shared.state.lock().unwrap();
        if outcome.is_err() {
            state.panicked += 1;
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn broadcast_runs_every_index_exactly_once() {
        let crew = WorkerCrew::new(4);
        assert_eq!(crew.threads(), 4);
        let hits = [const { AtomicUsize::new(0) }; 4];
        crew.broadcast(&|i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn crew_is_reusable_across_many_rounds() {
        let crew = WorkerCrew::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..200 {
            crew.broadcast(&|i| {
                total.fetch_add(i + 1, Ordering::Relaxed);
            });
        }
        // Each round adds 1 + 2 + 3 = 6.
        assert_eq!(total.load(Ordering::SeqCst), 200 * 6);
    }

    #[test]
    fn broadcast_blocks_until_all_workers_finish() {
        let crew = WorkerCrew::new(2);
        let done = AtomicUsize::new(0);
        crew.broadcast(&|i| {
            // Stagger completion: the broadcast must still see both.
            std::thread::sleep(std::time::Duration::from_millis(10 * (i as u64 + 1)));
            done.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(done.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn borrowed_state_is_mutable_through_locks() {
        let crew = WorkerCrew::new(4);
        let slots: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        crew.broadcast(&|i| {
            *slots[i].lock().unwrap() = (i as u64 + 1) * 10;
        });
        let values: Vec<u64> = slots.iter().map(|s| *s.lock().unwrap()).collect();
        assert_eq!(values, vec![10, 20, 30, 40]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let crew = WorkerCrew::new(0);
        assert_eq!(crew.threads(), 1);
        let ran = AtomicUsize::new(0);
        crew.broadcast(&|i| {
            assert_eq!(i, 0);
            ran.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn worker_panic_propagates_and_crew_survives() {
        let crew = WorkerCrew::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            crew.broadcast(&|i| {
                if i == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The crew is still usable after a propagated panic.
        let ok = AtomicUsize::new(0);
        crew.broadcast(&|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn drop_joins_workers() {
        let crew = WorkerCrew::new(3);
        crew.broadcast(&|_| {});
        drop(crew); // must not hang
    }
}

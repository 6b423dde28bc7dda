//! A hand-rolled work-stealing thread pool with scoped execution.
//!
//! The serving layer (`alaya-serve`), per-head attention execution
//! (`alaya_core::Session`) and index construction (`alaya_index`) all need
//! CPU parallelism, and the build container is offline — no rayon. This
//! module provides the one shared substrate they fan out over:
//!
//! * **Work stealing** — each worker owns a deque; it pops its own work
//!   LIFO (cache-warm) and steals the *front* of other workers' deques
//!   when idle, so an uneven batch (one long DIPRS search next to many
//!   cheap window scans) still saturates every core.
//! * **Scoped execution** — [`WorkStealingPool::scope`] lets tasks borrow
//!   from the caller's stack (sessions, key matrices) exactly like
//!   `std::thread::scope`, but over persistent workers instead of
//!   spawn-per-call threads. The scope's owner *helps* — it executes its
//!   own scope's queued tasks while it waits (never unrelated work, so a
//!   latency-critical owner cannot stall behind a stolen long task) — so
//!   nested scopes (a scheduler batch whose per-request tasks open their
//!   own per-head scopes) cannot deadlock even on a single-worker pool.
//! * **Determinism** — the pool schedules, it never reorders results:
//!   [`WorkStealingPool::map`] writes each index's output into its own
//!   slot, so outputs are bitwise-identical to a serial loop for any
//!   worker count or steal interleaving.
//!
//! [`global`] exposes the process-wide pool (one worker per available
//! core); dedicated pools are only worth building for tests and for
//! benchmarks that sweep worker counts.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use alaya_telemetry::{Counter, Registry};
use parking_lot::{Condvar, Mutex};

/// Lifetime counters for one pool. Telemetry cells (single relaxed RMWs
/// off the queue locks), registerable into an engine's metric registry
/// via [`PoolStats::register_into`].
#[derive(Default)]
pub struct PoolStats {
    tasks_executed: Arc<Counter>,
    tasks_stolen: Arc<Counter>,
    panics_contained: Arc<Counter>,
}

impl PoolStats {
    /// Tasks run to completion — by workers, and by scope owners helping
    /// while they wait.
    pub fn tasks_executed(&self) -> u64 {
        self.tasks_executed.get()
    }

    /// Tasks a worker obtained by stealing from another worker's deque —
    /// the load-balancing activity of the pool.
    pub fn tasks_stolen(&self) -> u64 {
        self.tasks_stolen.get()
    }

    /// Panics contained by the pool's wrappers (detached tasks discard
    /// theirs; scoped tasks also re-raise in their scope owner).
    pub fn panics_contained(&self) -> u64 {
        self.panics_contained.get()
    }

    /// Attaches these cells to `registry` under `device.pool.*` so an
    /// engine-level snapshot covers the execution substrate. First
    /// registration wins; the getters read the same cells either way.
    pub fn register_into(&self, registry: &Registry) {
        registry.register_counter("device.pool.tasks_executed", &self.tasks_executed);
        registry.register_counter("device.pool.tasks_stolen", &self.tasks_stolen);
        registry.register_counter("device.pool.panics_contained", &self.panics_contained);
    }
}

/// A queued unit of work, tagged with the scope that spawned it (`0` for
/// detached [`WorkStealingPool::execute`] tasks) so a scope owner helping
/// while it waits can steal *only its own* tasks — a latency-critical
/// caller (the serving scheduler holding session locks) must never get
/// stuck executing an unrelated long task (say, an index build) it stole.
struct Task {
    scope: usize,
    f: Box<dyn FnOnce() + Send + 'static>,
}

/// Queues + parking shared between workers and submitters.
struct Shared {
    /// Per-worker deques: owner pops the back, thieves steal the front.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Parking lot for idle workers.
    idle: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
    /// Round-robin cursor distributing submissions across worker deques.
    next: AtomicUsize,
    /// Workers currently parked (or about to park) on `wake`; lets `push`
    /// skip the parking lock entirely while the pool is busy.
    idle_workers: AtomicUsize,
    stats: PoolStats,
    /// Armed failpoint registry (chaos builds only); a `OnceLock` rather
    /// than a lock so probing it adds no lock site and no ordering edges.
    #[cfg(feature = "instrumented")]
    chaos: OnceLock<Arc<alaya_chaos::Chaos>>,
}

/// Failpoint: fires inside a scoped task's panic-containment wrapper, so
/// an injected panic exercises exactly the real worker-panic path (scope
/// marked panicked, `remaining` still decremented, owner re-raises).
#[cfg(feature = "instrumented")]
pub const CHAOS_TASK_PANIC: &str = "device.pool.task_panic";

impl Shared {
    /// Pops a task for `worker`: own deque first, then the injector, then
    /// steals from the other workers.
    fn find_task(&self, worker: usize) -> Option<Task> {
        if let Some(t) = self.queues[worker].lock().pop_back() {
            return Some(t);
        }
        self.find_stolen(worker)
    }

    /// Steals a task without touching `worker`'s own deque.
    fn find_stolen(&self, worker: usize) -> Option<Task> {
        let n = self.queues.len();
        for off in 1..=n {
            let victim = (worker + off) % n;
            if let Some(t) = self.queues[victim].lock().pop_front() {
                if victim != worker {
                    self.stats.tasks_stolen.inc();
                }
                return Some(t);
            }
        }
        None
    }

    /// Steals a task belonging to `scope` from any deque — the helping
    /// entry point for scope owners, which must not pick up unrelated work.
    fn find_scope_task(&self, scope: usize) -> Option<Task> {
        for q in &self.queues {
            let mut q = q.lock();
            if let Some(pos) = q.iter().position(|t| t.scope == scope) {
                return q.remove(pos);
            }
        }
        None
    }

    fn push(&self, task: Task) {
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.queues.len();
        self.queues[slot].lock().push_back(task);
        // Only touch the parking lock when a worker might actually be
        // asleep; while the pool is busy this keeps submissions to one
        // deque lock. Sound because a worker registers in `idle_workers`
        // *before* its last queue re-check: if we read 0 here, that worker
        // has not re-checked yet and will find the task just enqueued.
        if self.idle_workers.load(Ordering::SeqCst) > 0 {
            // Lock the parking mutex so the notify cannot race a worker
            // that re-checked the queues and is about to wait.
            let _g = self.idle.lock();
            self.wake.notify_one();
        }
    }
}

/// Runs one task, containing any panic. Scoped tasks carry their own
/// catch (they report to their scope); this shields the *callers* — a
/// panicking detached [`WorkStealingPool::execute`] task must neither kill
/// a worker thread (silently shrinking the pool) nor unwind through the
/// owner-helping loop in [`WorkStealingPool::scope`], whose early exit
/// would free a frame that still-running scoped tasks borrow.
fn run_task(stats: &PoolStats, task: Task) {
    if catch_unwind(AssertUnwindSafe(task.f)).is_err() {
        stats.panics_contained.inc();
    }
    stats.tasks_executed.inc();
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    loop {
        if let Some(task) = shared.find_task(id) {
            run_task(&shared.stats, task);
            continue;
        }
        let guard = shared.idle.lock();
        if shared.shutdown.load(Ordering::Acquire) {
            drop(guard);
            // Final drain: every submission happened-before shutdown (Drop
            // takes `&mut self`), so whatever the queues still hold is the
            // already-submitted work `execute`'s contract promises to run.
            while let Some(task) = shared.find_task(id) {
                run_task(&shared.stats, task);
            }
            return;
        }
        // Register as idle *before* the re-check: `push` only takes the
        // parking lock to notify when it observes an idle worker, and the
        // ordering (enqueue, then read `idle_workers`) + this ordering
        // (increment, then re-check queues) guarantee at least one side
        // sees the other — the wait cannot miss a wakeup. The timeout is
        // belt-and-braces only.
        shared.idle_workers.fetch_add(1, Ordering::SeqCst);
        if let Some(task) = shared.find_task(id) {
            shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
            drop(guard);
            run_task(&shared.stats, task);
            continue;
        }
        // Long backstop: the registration protocol above cannot miss a
        // wakeup, so this only bounds recovery from a hypothetical bug and
        // keeps idle workers of the immortal global pool from burning CPU
        // on frequent re-polls.
        let mut guard = guard;
        let _ = shared.wake.wait_for(&mut guard, Duration::from_millis(500));
        shared.idle_workers.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
    }
}

/// A fixed-size work-stealing pool (see the module docs).
pub struct WorkStealingPool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkStealingPool {
    /// Spawns a pool with `threads` workers (`0` = one per available core).
    pub fn new(threads: usize) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            threads
        };
        let shared = Arc::new(Shared {
            queues: (0..threads)
                .map(|_| Mutex::new_named(VecDeque::new(), "device.pool.queue"))
                .collect(),
            idle: Mutex::new_named((), "device.pool.idle"),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            next: AtomicUsize::new(0),
            idle_workers: AtomicUsize::new(0),
            stats: PoolStats::default(),
            #[cfg(feature = "instrumented")]
            chaos: OnceLock::new(),
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("alaya-pool-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawning pool worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.workers.len()
    }

    /// This pool's lifetime counters (executed / stolen / contained
    /// panics).
    pub fn stats(&self) -> &PoolStats {
        &self.shared.stats
    }

    /// Installs the failpoint registry scoped tasks probe (first call
    /// wins). Only sensible on a dedicated pool — injecting into the
    /// process-wide [`global`] pool would fault unrelated tests.
    #[cfg(feature = "instrumented")]
    pub fn inject_chaos(&self, chaos: Arc<alaya_chaos::Chaos>) {
        let _ = self.shared.chaos.set(chaos);
    }

    /// Submits a detached (`'static`) task. Dropping the pool drains the
    /// queues: tasks already submitted run to completion before `Drop`
    /// returns. A panic in a detached task is caught and discarded — it
    /// never kills a worker.
    pub fn execute(&self, f: impl FnOnce() + Send + 'static) {
        self.shared.push(Task {
            scope: 0,
            f: Box::new(f),
        });
    }

    /// Runs `f` with a [`Scope`] whose spawned tasks may borrow from the
    /// enclosing stack frame. Returns only after every spawned task has
    /// finished; panics from tasks (or from `f`) are propagated.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            done: Mutex::new_named((), "device.pool.scope_done"),
            cv: Condvar::new(),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: PhantomData,
        };
        let scope_id = Arc::as_ptr(&state) as usize;
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));

        // Wait for every spawned task — also on unwind, since tasks borrow
        // the frame being unwound. Helping (running *this scope's* queued
        // tasks while waiting) keeps nested scopes deadlock-free even on a
        // single-worker pool, without the owner ever getting stuck behind
        // an unrelated long task it stole.
        while state.remaining.load(Ordering::Acquire) > 0 {
            if let Some(task) = self.shared.find_scope_task(scope_id) {
                // `run_task` contains panics: a task that panicked bare
                // would unwind this loop out of `scope` while
                // `remaining > 0` — freeing the frame its tasks borrow.
                run_task(&self.shared.stats, task);
                continue;
            }
            let mut guard = state.done.lock();
            if state.remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            let _ = state.cv.wait_for(&mut guard, Duration::from_millis(1));
        }

        match result {
            Err(payload) => resume_unwind(payload),
            Ok(r) => {
                if state.panicked.load(Ordering::Acquire) {
                    panic!("a task spawned in WorkStealingPool::scope panicked");
                }
                r
            }
        }
    }

    /// Computes `f(0..n)` in parallel, returning results in index order —
    /// bitwise-identical to `(0..n).map(f).collect()` for any worker count.
    pub fn map<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_bounded(n, 0, f)
    }

    /// [`WorkStealingPool::map`] with fan-out capped at `max_parallel`
    /// concurrent tasks — for callers bounding how much of the shared pool
    /// one job may occupy (e.g. an index build running next to serving).
    /// `max_parallel == 0` uses the pool default (over-chunked relative to
    /// the worker count so stealing can smooth out unevenly sized items);
    /// `1` runs serially on the caller. Results are in index order,
    /// bitwise-identical to the serial loop either way.
    pub fn map_bounded<T, F>(&self, n: usize, max_parallel: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let cap = if max_parallel == 0 {
            self.threads() * 4
        } else {
            max_parallel
        };
        let tasks = cap.min(n);
        if n <= 1 || tasks <= 1 || self.threads() <= 1 {
            return (0..n).map(f).collect();
        }
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let chunk = n.div_ceil(tasks);
        let f = &f;
        self.scope(|s| {
            for (ci, slots) in out.chunks_mut(chunk).enumerate() {
                let start = ci * chunk;
                s.spawn(move || {
                    for (i, slot) in slots.iter_mut().enumerate() {
                        *slot = Some(f(start + i));
                    }
                });
            }
        });
        out.into_iter()
            .map(|o| o.expect("map task filled every slot"))
            .collect()
    }
}

impl Drop for WorkStealingPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.idle.lock();
            self.shared.wake.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Join-state of one [`WorkStealingPool::scope`] call.
struct ScopeState {
    remaining: AtomicUsize,
    panicked: AtomicBool,
    done: Mutex<()>,
    cv: Condvar,
}

/// Spawn handle passed to the closure of [`WorkStealingPool::scope`].
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkStealingPool,
    state: Arc<ScopeState>,
    /// Invariant over `'env`, like `std::thread::Scope`.
    _env: PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Spawns a task that may borrow from the scope's environment. The task
    /// runs on the pool (or on the scope owner while it helps waiting).
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        self.state.remaining.fetch_add(1, Ordering::AcqRel);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(f);
        // SAFETY: lifetime extension justified by the scoped-execution
        // invariant: `WorkStealingPool::scope` does not return — on the
        // normal path *or* on unwind (its waiting loop runs under
        // `catch_unwind` and re-checks `remaining` before every exit) —
        // until `remaining` reaches zero, and `remaining` was incremented
        // above *before* this task was queued and is decremented only by
        // the task's completion wrapper below, after the closure has run
        // to completion or panicked. So every `'env` borrow inside the
        // closure strictly outlives the task's execution, on every worker
        // and on the helping owner alike. The transmute erases only the
        // lifetime bound of the trait object; the vtable and layout are
        // unchanged.
        let task: Box<dyn FnOnce() + Send + 'static> = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                task,
            )
        };
        let scope = Arc::as_ptr(&self.state) as usize;
        let panics = Arc::clone(&self.pool.shared.stats.panics_contained);
        #[cfg(feature = "instrumented")]
        let shared = Arc::clone(&self.pool.shared);
        self.pool.shared.push(Task {
            scope,
            f: Box::new(move || {
                // The chaos probe fires *inside* the containment wrapper:
                // an injected panic must walk the same path a real task
                // panic does (panicked flag, remaining decrement, owner
                // re-raise) — injecting outside it would instead leak
                // `remaining` and deadlock the scope.
                let guarded = AssertUnwindSafe(move || {
                    #[cfg(feature = "instrumented")]
                    if let Some(chaos) = shared.chaos.get() {
                        if chaos.should_fire(CHAOS_TASK_PANIC) {
                            panic!("chaos: injected worker panic");
                        }
                    }
                    task();
                });
                if catch_unwind(guarded).is_err() {
                    state.panicked.store(true, Ordering::Release);
                    // Counted here, at the containment point: `run_task`'s
                    // outer catch never sees scoped panics.
                    panics.inc();
                }
                if state.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
                    let _g = state.done.lock();
                    state.cv.notify_all();
                }
            }),
        });
    }
}

/// The process-wide shared pool (one worker per available core). This is
/// the pool `Session::attention`, `exact_knn`, RoarGraph
/// construction and the serving scheduler all execute on, so CPU
/// oversubscription cannot arise from composing those layers.
pub fn global() -> &'static Arc<WorkStealingPool> {
    static POOL: OnceLock<Arc<WorkStealingPool>> = OnceLock::new();
    POOL.get_or_init(|| Arc::new(WorkStealingPool::new(0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_matches_serial_for_any_worker_count() {
        let want: Vec<u64> = (0..257).map(|i| i * i).collect();
        for threads in [1, 2, 3, 8] {
            let pool = WorkStealingPool::new(threads);
            let got = pool.map(257, |i| (i as u64) * (i as u64));
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn scope_tasks_borrow_stack_data() {
        let pool = WorkStealingPool::new(4);
        let data: Vec<u32> = (0..100).collect();
        let mut sums = [0u32; 4];
        pool.scope(|s| {
            for (i, slot) in sums.iter_mut().enumerate() {
                let chunk = &data[i * 25..(i + 1) * 25];
                s.spawn(move || *slot = chunk.iter().sum());
            }
        });
        assert_eq!(sums.iter().sum::<u32>(), data.iter().sum::<u32>());
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // 2 workers, 4 single-item chunks: the owner must help with its
        // own queued outer tasks while worker threads run outer tasks that
        // open their own inner scopes.
        let pool = WorkStealingPool::new(2);
        let outer: Vec<usize> = pool.map_bounded(4, 4, |i| {
            let inner = pool.map_bounded(3, 3, move |j| i * 10 + j);
            inner.into_iter().sum()
        });
        assert_eq!(outer, vec![3, 33, 63, 93]);
    }

    #[test]
    fn owner_helps_on_single_worker_pool() {
        // scope() always queues (unlike map's serial shortcut), so with one
        // worker the owner's find_scope_task helping loop must run some of
        // these tasks itself for the scope to finish.
        let pool = WorkStealingPool::new(1);
        let mut out = [0usize; 64];
        pool.scope(|s| {
            for (i, slot) in out.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        assert_eq!(out.iter().sum::<usize>(), 64 * 65 / 2);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let pool = WorkStealingPool::new(2);
        assert!(pool.map(0, |i| i).is_empty());
        assert_eq!(pool.map(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn scope_propagates_task_panics() {
        let pool = WorkStealingPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(caught.is_err());
        // The pool survives the panic and keeps executing.
        assert_eq!(pool.map(3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn detached_task_panic_kills_no_worker_and_no_scope() {
        let pool = WorkStealingPool::new(2);
        // A bare panic in a detached task must be contained: neither a
        // worker thread nor a concurrently helping scope owner may unwind.
        for _ in 0..4 {
            pool.execute(|| panic!("detached boom"));
        }
        for _ in 0..10 {
            assert_eq!(pool.map(8, |i| i), (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn detached_execute_runs() {
        let pool = WorkStealingPool::new(2);
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        pool.execute(move || f2.store(true, Ordering::Release));
        for _ in 0..1000 {
            if flag.load(Ordering::Acquire) {
                return;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        panic!("detached task never ran");
    }

    #[test]
    fn global_pool_is_shared_and_works() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(a, b));
        assert!(a.threads() >= 1);
        assert_eq!(a.map(5, |i| i * 2), vec![0, 2, 4, 6, 8]);
    }

    /// Injected worker panics are indistinguishable from real ones: the
    /// scope re-raises each one, `remaining` reaches zero (no deadlock),
    /// and once the failpoint exhausts the pool serves normally.
    #[cfg(feature = "instrumented")]
    #[test]
    fn injected_worker_panics_follow_the_real_panic_path() {
        let pool = WorkStealingPool::new(2);
        let chaos = alaya_chaos::Chaos::new(0xC4A05);
        chaos.arm_limited(CHAOS_TASK_PANIC, 1.0, 2);
        pool.inject_chaos(Arc::clone(&chaos));
        let mut panics = 0;
        for _ in 0..4 {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| s.spawn(|| {}));
            }));
            if caught.is_err() {
                panics += 1;
            }
        }
        assert_eq!(panics, 2, "exactly max_fires scopes saw the injection");
        assert_eq!(chaos.fires(CHAOS_TASK_PANIC), 2);
        // The pool survived both injections and is fully functional.
        assert_eq!(pool.map(5, |i| i * 3), vec![0, 3, 6, 9, 12]);
    }

    #[test]
    fn many_concurrent_scopes_from_many_threads() {
        let pool = Arc::new(WorkStealingPool::new(4));
        std::thread::scope(|s| {
            for t in 0..8 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for round in 0..20 {
                        let base = t * 1000 + round;
                        let got = pool.map(17, |i| base + i);
                        let want: Vec<usize> = (0..17).map(|i| base + i).collect();
                        assert_eq!(got, want);
                    }
                });
            }
        });
    }
}

//! Shared parallel runtime: a persistent, size-configurable worker pool with
//! per-worker deques, work stealing, and scoped task submission.
//!
//! Vertexica's paper workload is superstep-structured: every superstep fans
//! out one worker-UDF invocation per vertex partition and joins at a barrier
//! (§2.2). The seed implementation spawned a fresh `crossbeam::thread::scope`
//! per superstep inside the SQL layer, paying thread start-up cost on the
//! hottest path and leaving the SQL engine and the coordinator with no shared
//! notion of parallelism. [`WorkerPool`] replaces that: threads are spawned
//! once, owned by the `Database`, reused across supersteps, resized on
//! demand, and shared by every layer (SQL transform execution, the
//! coordinator's superstep loop, and the BSP baseline engine).
//!
//! Design notes:
//!
//! * **Per-worker deques + stealing.** Each worker owns a deque; submissions
//!   are distributed round-robin over the live workers. A worker pops from
//!   the *front* of its own deque (FIFO, preserving rough submission order)
//!   and, when empty, steals from the *back* of a sibling's deque. Skewed
//!   partitions therefore no longer serialize behind a single shared queue:
//!   a worker stuck in one long partition keeps its backlog stealable.
//! * **Observability.** The pool keeps monotonic counters — tasks executed,
//!   tasks obtained by stealing, and cumulative queue wait (submission →
//!   execution start). Snapshot them with [`WorkerPool::metrics`]; the
//!   coordinator turns deltas into per-superstep [`PoolMetrics`].
//! * **Per-worker parking.** An idle worker parks on its *own* slot's
//!   mutex + condvar behind a wake-token handshake; a submitter tokens
//!   exactly one sleeping slot (preferring the deque that just received the
//!   job). The shared `idle` lock serializes only resizes and worker exits,
//!   so sleep/wake on a large, mostly-idle pool no longer contends on one
//!   pool-wide condvar.
//! * **Scoped submission.** [`WorkerPool::scope`] allows tasks to borrow from
//!   the caller's stack, like `std::thread::scope`, but runs them on the
//!   persistent pool. The scope does not return until every task submitted
//!   in it has finished, which is what makes the lifetime erasure sound.
//! * **Panic propagation.** A panicking task does not take down the worker
//!   thread; the first panic payload is captured and re-thrown from
//!   `scope()` on the submitting thread.
//! * **Sequential fallback.** A pool of size 1 (or a single-item
//!   [`WorkerPool::map_indexed`]) executes inline on the calling thread, so
//!   `worker_threads = 1` is genuinely sequential and nested use cannot
//!   deadlock.
//! * **Nestable scopes.** Tasks may submit follow-up work. Two shapes are
//!   supported. *Continuation spawns*: a running task can call
//!   [`Scope::spawn`] on the scope that spawned it (the scope handle is
//!   `Sync` and tasks are bounded by `'scope`, exactly like
//!   `std::thread::scope`), so dynamically discovered work — e.g. a
//!   partition sealing mid-assemble — is dispatched without a second
//!   barrier. *Nested scopes*: calling [`WorkerPool::scope`] from inside a
//!   pool task is also supported; while the nested scope waits, the blocked
//!   worker **helps** — it keeps draining its own deque and stealing from
//!   siblings — so nested tasks can never deadlock behind their own scope,
//!   even on a pool of one. Nested-scope entries are counted in
//!   [`PoolMetrics::nested_scopes`].

use crate::sync::{AtomicBool, AtomicU64, AtomicUsize, Condvar, Mutex, Ordering, RwLock};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// Which pool worker (pool identity + worker index) the current thread
    /// is, if any. Set for the lifetime of a worker thread; lets `scope`
    /// detect that it is being entered from inside a pool task and switch
    /// its barrier wait to the helping loop.
    static WORKER_CONTEXT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Clears [`WORKER_CONTEXT`] when a worker thread exits (pool shrink or
/// shutdown), including on unwind.
struct WorkerContextReset;

impl Drop for WorkerContextReset {
    fn drop(&mut self) {
        WORKER_CONTEXT.with(|ctx| ctx.set(None));
    }
}

/// A job plus its submission timestamp, for queue-wait accounting.
struct TimedJob {
    job: Job,
    enqueued: Instant,
}

/// One worker's deque plus its private parking lot. Slots are created on
/// demand and never removed, so a shrunken-away worker's leftover jobs
/// remain visible to stealers.
struct WorkerSlot {
    deque: Mutex<VecDeque<TimedJob>>,
    /// Deque length mirror, updated inside the deque lock. Lets pop/steal
    /// scans skip empty slots without touching their mutexes.
    len: AtomicUsize,
    /// Whether a live worker thread currently services this slot. Flipped
    /// only under the pool's `idle` mutex, which makes grow-after-shrink
    /// races impossible (no duplicate workers per slot, no missed spawns).
    occupied: AtomicBool,
    /// Per-worker parking: a wake token under this slot's own mutex, with a
    /// condvar only this slot's worker waits on. Submitters token exactly
    /// one sleeping slot instead of signalling a pool-wide condvar, so a
    /// large, mostly-idle pool no longer funnels every sleep/wake through
    /// one shared lock.
    park: Mutex<bool>,
    unpark: Condvar,
    /// Whether this slot's worker is parked (or committing to park). Read
    /// lock-free by submitters scanning for a worker to wake.
    sleeping: AtomicBool,
}

impl WorkerSlot {
    fn new() -> Self {
        WorkerSlot {
            deque: Mutex::new(VecDeque::new()),
            len: AtomicUsize::new(0),
            occupied: AtomicBool::new(false),
            park: Mutex::new(false),
            unpark: Condvar::new(),
            sleeping: AtomicBool::new(false),
        }
    }

    /// Deposits a wake token and signals the slot's worker. Tokens are
    /// idempotent: a spurious token just makes the worker rescan once.
    fn wake(&self) {
        let mut token = self.park.lock();
        *token = true;
        self.unpark.notify_one();
    }
}

/// Monotonic execution counters for a [`WorkerPool`].
///
/// All fields only ever grow over the life of the pool (the inline
/// sequential fallback bypasses the queue and is intentionally not counted).
/// Use [`PoolMetrics::delta_since`] to scope them to a phase, e.g. one
/// superstep.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PoolMetrics {
    /// Tasks that ran on a pool worker (excludes inline fallback runs).
    pub tasks_executed: u64,
    /// Tasks a worker obtained by stealing from a sibling's deque.
    pub tasks_stolen: u64,
    /// Cumulative seconds tasks spent queued before starting to execute.
    pub queue_wait_secs: f64,
    /// Scopes entered **from inside a pool task** (nesting depth ≥ 1). While
    /// such a scope waits, the blocked worker helps drain the pool instead
    /// of parking, so nested submission never deadlocks behind its own
    /// scope.
    pub nested_scopes: u64,
}

impl PoolMetrics {
    /// The counter increments between `earlier` and `self`.
    pub fn delta_since(&self, earlier: &PoolMetrics) -> PoolMetrics {
        PoolMetrics {
            tasks_executed: self.tasks_executed.saturating_sub(earlier.tasks_executed),
            tasks_stolen: self.tasks_stolen.saturating_sub(earlier.tasks_stolen),
            queue_wait_secs: (self.queue_wait_secs - earlier.queue_wait_secs).max(0.0),
            nested_scopes: self.nested_scopes.saturating_sub(earlier.nested_scopes),
        }
    }
}

struct PoolShared {
    /// Worker deques, indexed by worker id. Grows monotonically; `target`
    /// decides how many are live.
    slots: RwLock<Vec<Arc<WorkerSlot>>>,
    /// Desired number of workers; the source of truth for pool size.
    target: AtomicUsize,
    /// Jobs currently sitting in any deque (not yet picked up).
    queued: AtomicUsize,
    /// Workers currently parked (or committing to park) on their per-slot
    /// condvars. Lets `submit` skip the wake scan entirely when every worker
    /// is busy — the common case on a loaded pool.
    sleepers: AtomicUsize,
    /// Round-robin submission cursor.
    next: AtomicUsize,
    /// The lock under which worker-exit decisions and resizes are
    /// serialized. **Not** part of the parking hot path: workers park on
    /// their own slot's mutex/condvar and only touch this lock when exiting.
    idle: Mutex<()>,
    // ---- monotonic counters ----
    executed: AtomicU64,
    steals: AtomicU64,
    queue_wait_nanos: AtomicU64,
    nested_scopes: AtomicU64,
}

impl PoolShared {
    /// Pushes a job onto a live worker's deque (round-robin) and wakes one
    /// parked worker, preferring the deque's owner.
    fn submit(&self, job: Job) {
        let timed = TimedJob { job, enqueued: Instant::now() };
        let target = {
            let slots = self.slots.read();
            let live = self.target.load(Ordering::SeqCst).clamp(1, slots.len());
            let i = self.next.fetch_add(1, Ordering::Relaxed) % live;
            let mut deque = slots[i].deque.lock();
            deque.push_back(timed);
            slots[i].len.store(deque.len(), Ordering::SeqCst);
            // Incremented inside the deque lock: a worker popping this job
            // can never observe (and underflow) a not-yet-incremented count.
            self.queued.fetch_add(1, Ordering::SeqCst);
            i
        };
        // Workers set their slot's `sleeping` flag (and bump `sleepers`)
        // *before* re-checking `queued`, so reading 0 here means every
        // worker either runs or will observe the increment above — no lost
        // wakeups, and a busy pool pays nothing beyond this load.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            self.wake_one(target);
        }
    }

    /// Tokens exactly one sleeping worker, starting the scan at `preferred`
    /// (the slot that just received a job). Any woken worker rescans every
    /// deque — its own, then stealing — so waking "the wrong" sleeper is
    /// still correct.
    ///
    /// The `sleeping` flag is re-checked **under the slot's park lock**
    /// before the token is deposited: workers clear the flag under that same
    /// lock when they unpark or commit to exiting (pool shrink), so a token
    /// can never land on a slot whose worker has already left — which would
    /// strand the queued job if every other worker were parked. Finding no
    /// committed sleeper is safe: any worker parking after this submission's
    /// `queued` increment re-checks the queue under its lock and bails out.
    fn wake_one(&self, preferred: usize) {
        let slots = self.slots.read();
        let n = slots.len();
        for off in 0..n {
            let slot = &slots[(preferred + off) % n];
            if !slot.sleeping.load(Ordering::SeqCst) {
                continue;
            }
            let mut token = slot.park.lock();
            if !slot.sleeping.load(Ordering::SeqCst) {
                continue; // unparked or exited between the peek and the lock
            }
            *token = true;
            slot.unpark.notify_one();
            return;
        }
    }

    /// Tokens every slot (resize, shutdown).
    fn wake_all(&self) {
        let slots = self.slots.read();
        for slot in slots.iter() {
            slot.wake();
        }
    }

    /// Pops from the front of `slot`'s own deque, skipping the lock when the
    /// slot is empty.
    fn pop_own(&self, slot: &WorkerSlot) -> Option<TimedJob> {
        if slot.len.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let mut deque = slot.deque.lock();
        let tj = deque.pop_front();
        if tj.is_some() {
            slot.len.store(deque.len(), Ordering::SeqCst);
            self.queued.fetch_sub(1, Ordering::SeqCst);
        }
        tj
    }

    /// Attempts to steal a job from any slot other than `me`, scanning from
    /// the back of each sibling deque (empty slots are skipped lock-free).
    fn try_steal(&self, me: usize) -> Option<TimedJob> {
        let slots = self.slots.read();
        let n = slots.len();
        for off in 1..n {
            let j = (me + off) % n;
            if slots[j].len.load(Ordering::SeqCst) == 0 {
                continue;
            }
            let mut deque = slots[j].deque.lock();
            if let Some(tj) = deque.pop_back() {
                slots[j].len.store(deque.len(), Ordering::SeqCst);
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some(tj);
            }
        }
        None
    }

    /// Runs one dequeued job, updating counters.
    fn run(&self, timed: TimedJob, stolen: bool) {
        let waited = timed.enqueued.elapsed();
        self.queue_wait_nanos.fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        self.executed.fetch_add(1, Ordering::Relaxed);
        if stolen {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        (timed.job)();
    }
}

fn worker_loop(shared: Arc<PoolShared>, me: usize) {
    let my_slot = shared.slots.read()[me].clone();
    // Identify this thread as pool worker `me` so scopes entered from
    // inside a task switch to the helping wait (see `ScopeState::wait_all`).
    WORKER_CONTEXT.with(|ctx| ctx.set(Some((Arc::as_ptr(&shared) as usize, me))));
    let _reset = WorkerContextReset;
    loop {
        // 1. Own deque, front first (FIFO within a worker).
        if let Some(tj) = shared.pop_own(&my_slot) {
            shared.run(tj, false);
            continue;
        }
        // 2. Steal from a sibling's back.
        if let Some(tj) = shared.try_steal(me) {
            shared.run(tj, true);
            continue;
        }
        // 3. Nothing runnable: exit if shrunk away, otherwise park on this
        // worker's own condvar (no shared lock on the sleep/wake path).
        let mut token = my_slot.park.lock();
        // Register as a sleeper *before* re-checking `queued`: a submitter
        // that misses these stores is ordered before them, so the re-check
        // below observes its queued job (no lost wakeups); a submitter that
        // sees them will deposit a wake token.
        my_slot.sleeping.store(true, Ordering::SeqCst);
        shared.sleepers.fetch_add(1, Ordering::SeqCst);
        let unregister = |token: &mut bool| {
            *token = false;
            my_slot.sleeping.store(false, Ordering::SeqCst);
            shared.sleepers.fetch_sub(1, Ordering::SeqCst);
        };
        // This re-check is the lost-wakeup guard; the model checker proves
        // it load-bearing by seeding `runtime.skip_park_recheck`.
        let rescan = shared.queued.load(Ordering::SeqCst) > 0 || *token;
        if rescan && !crate::sync::model::mutation_enabled("runtime.skip_park_recheck") {
            // Work arrived between the scan and the park commit, or a stale
            // token was left behind: consume it and rescan.
            unregister(&mut token);
            continue;
        }
        if shared.target.load(Ordering::SeqCst) <= me {
            unregister(&mut token);
            drop(token);
            // The exit decision is re-taken under the idle lock, mirroring
            // `resize`'s spawn decision — the two can never disagree.
            let _guard = shared.idle.lock();
            if shared.target.load(Ordering::SeqCst) <= me {
                my_slot.occupied.store(false, Ordering::SeqCst);
                return;
            }
            continue; // a concurrent grow kept this worker alive
        }
        while !*token {
            token = my_slot.unpark.wait(token);
        }
        unregister(&mut token);
    }
}

/// A persistent pool of worker threads with per-worker deques, work
/// stealing, and scoped task submission.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("size", &self.size()).finish()
    }
}

impl WorkerPool {
    /// Creates a pool with `size` workers (clamped to at least 1).
    pub fn new(size: usize) -> Self {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                slots: RwLock::new(Vec::new()),
                target: AtomicUsize::new(0),
                queued: AtomicUsize::new(0),
                sleepers: AtomicUsize::new(0),
                next: AtomicUsize::new(0),
                idle: Mutex::new(()),
                executed: AtomicU64::new(0),
                steals: AtomicU64::new(0),
                queue_wait_nanos: AtomicU64::new(0),
                nested_scopes: AtomicU64::new(0),
            }),
            handles: Mutex::new(Vec::new()),
        };
        pool.resize(size);
        pool
    }

    /// A pool sized to the machine's core count.
    pub fn with_default_size() -> Self {
        Self::new(default_parallelism())
    }

    /// The configured number of workers.
    pub fn size(&self) -> usize {
        self.shared.target.load(Ordering::SeqCst)
    }

    /// A snapshot of the pool's monotonic execution counters.
    pub fn metrics(&self) -> PoolMetrics {
        PoolMetrics {
            tasks_executed: self.shared.executed.load(Ordering::Relaxed),
            tasks_stolen: self.shared.steals.load(Ordering::Relaxed),
            queue_wait_secs: self.shared.queue_wait_nanos.load(Ordering::Relaxed) as f64 / 1e9,
            nested_scopes: self.shared.nested_scopes.load(Ordering::Relaxed),
        }
    }

    /// Grows or shrinks the pool to `size` workers (clamped to at least 1).
    /// Pending tasks are never dropped: a shrunken-away worker keeps helping
    /// (stealing included) until it finds the pool momentarily drained, and
    /// any jobs left in its deque stay stealable by the surviving workers.
    pub fn resize(&self, size: usize) {
        let size = size.max(1);
        // The idle lock serializes this against worker exit decisions.
        let idle_guard = self.shared.idle.lock();
        let mut handles = self.handles.lock();
        handles.retain(|h| !h.is_finished());
        self.shared.target.store(size, Ordering::SeqCst);
        {
            let mut slots = self.shared.slots.write();
            while slots.len() < size {
                slots.push(Arc::new(WorkerSlot::new()));
            }
        }
        let slots = self.shared.slots.read();
        for (i, slot) in slots.iter().enumerate().take(size) {
            if !slot.occupied.swap(true, Ordering::SeqCst) {
                let shared = self.shared.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("vertexica-worker-{i}"))
                        .spawn(move || worker_loop(shared, i))
                        .expect("spawn pool worker"),
                );
            }
        }
        drop(slots);
        drop(handles);
        // Wake every worker so shrunken-away ones observe the new target.
        self.shared.wake_all();
        drop(idle_guard);
    }

    /// Runs `f` with a [`Scope`] through which tasks borrowing from the
    /// enclosing environment can be submitted to the pool. Returns only after
    /// every submitted task has completed — including tasks spawned *by*
    /// tasks (continuation spawns, see [`Scope::spawn`]). If any task
    /// panicked, the first panic is re-thrown here.
    ///
    /// `scope` may itself be called from inside a pool task (a **nested
    /// scope**). The nested barrier then does not park the worker: while its
    /// tasks are outstanding the worker keeps executing queued pool jobs —
    /// its own deque first, then stealing — so nested tasks cannot deadlock
    /// behind the scope that submitted them, even on a single-worker pool.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&'scope Scope<'scope, 'env>) -> R,
    {
        // A nested scope is one entered from a worker *of this pool*; a
        // worker of some other pool can block normally (its pool still has
        // threads to make progress with).
        let helper = WORKER_CONTEXT
            .with(|ctx| ctx.get())
            .and_then(|(pool, me)| (pool == Arc::as_ptr(&self.shared) as usize).then_some(me));
        if helper.is_some() {
            self.shared.nested_scopes.fetch_add(1, Ordering::Relaxed);
        }
        let state = Arc::new(ScopeState {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        });
        let scope = Scope { pool: self, state: state.clone(), _scope: std::marker::PhantomData };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // The barrier below is what makes `spawn`'s lifetime erasure sound:
        // no borrow handed to a task outlives this function's frame.
        match helper {
            Some(me) => state.wait_all_helping(&self.shared, me),
            None => state.wait_all(),
        }
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(value) => {
                if let Some(payload) = state.panic.lock().take() {
                    resume_unwind(payload);
                }
                value
            }
        }
    }

    /// Applies `f` to every item on the pool, returning results **in input
    /// order**. Single-item or single-worker calls run inline on the calling
    /// thread (sequential fallback).
    pub fn map_indexed<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if items.len() <= 1 || self.size() <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let n = items.len();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        self.scope(|scope| {
            for (i, item) in items.into_iter().enumerate() {
                let f = &f;
                let slots = &slots;
                scope.spawn(move || {
                    *slots[i].lock() = Some(f(i, item));
                });
            }
        });
        slots.into_iter().map(|slot| slot.into_inner().expect("pool task completed")).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let _guard = self.shared.idle.lock();
            self.shared.target.store(0, Ordering::SeqCst);
        }
        self.shared.wake_all();
        let mut handles = self.handles.lock();
        for handle in handles.drain(..) {
            let _ = handle.join();
        }
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl ScopeState {
    fn task_started(&self) {
        *self.pending.lock() += 1;
    }

    fn task_finished(&self) {
        let mut pending = self.pending.lock();
        *pending -= 1;
        if *pending == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait_all(&self) {
        let mut pending = self.pending.lock();
        while *pending > 0 {
            pending = self.all_done.wait(pending);
        }
    }

    /// The nested-scope barrier: called when the scope was entered from pool
    /// worker `me`. Instead of parking (which could leave this scope's own
    /// tasks stranded in this very worker's deque), the worker keeps
    /// draining the pool — own deque front first, then stealing — until the
    /// scope's task count hits zero. When nothing is runnable but tasks are
    /// still in flight on other workers, it naps briefly on the scope
    /// condvar; the timeout bounds the latency of picking up *new* jobs
    /// spawned by those in-flight tasks (a completion signal wakes it
    /// immediately).
    fn wait_all_helping(&self, shared: &PoolShared, me: usize) {
        let my_slot = shared.slots.read().get(me).cloned();
        loop {
            if *self.pending.lock() == 0 {
                return;
            }
            if let Some(slot) = my_slot.as_deref() {
                if let Some(tj) = shared.pop_own(slot) {
                    shared.run(tj, false);
                    continue;
                }
            }
            if let Some(tj) = shared.try_steal(me) {
                shared.run(tj, true);
                continue;
            }
            let pending = self.pending.lock();
            if *pending == 0 {
                return;
            }
            // Outstanding tasks are running elsewhere; nap until one
            // finishes or the timeout says "rescan the deques".
            let _ = self.all_done.wait_timeout(pending, Duration::from_micros(200));
        }
    }
}

/// Handle for submitting borrowing tasks to the pool within a
/// [`WorkerPool::scope`] call.
///
/// Mirrors `std::thread::Scope`: the handle is `Sync` and tasks are bounded
/// by `'scope`, so a running task can capture `&Scope` and spawn follow-up
/// work onto its own scope (the barrier counts dynamically spawned tasks
/// too — a task always registers its continuations before finishing, so the
/// scope can never observe a premature zero).
pub struct Scope<'scope, 'env: 'scope> {
    pool: &'scope WorkerPool,
    state: Arc<ScopeState>,
    /// Invariant over `'scope` and `'env`, like `std::thread::Scope`.
    _scope: std::marker::PhantomData<&'scope mut &'env ()>,
}

impl<'scope, 'env> Scope<'scope, 'env> {
    /// Submits a task that may borrow from the environment enclosing the
    /// scope — or from the scope itself (`F: 'scope`, so a task can capture
    /// `&Scope` and spawn continuations). The task runs on a pool worker;
    /// panics are captured and re-thrown from the enclosing `scope()` call.
    pub fn spawn<F>(&'scope self, task: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.state.task_started();
        let state = self.state.clone();
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(task));
            if let Err(payload) = result {
                let mut slot = state.panic.lock();
                if slot.is_none() {
                    *slot = Some(payload);
                }
            }
            state.task_finished();
        });
        // SAFETY: `scope()` blocks until `pending` reaches zero before
        // returning (even when the scope body panics), and every spawn —
        // including one from inside a running task — increments `pending`
        // before the spawning task's own decrement, so every borrow captured
        // by `job` (environment or scope-local) is live until after the job
        // completes. The transmute only erases the `'scope` lifetime to
        // `'static`.
        let job: Job =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) };
        self.pool.shared.submit(job);
    }
}

/// The machine's available parallelism, with a sane fallback.
pub fn default_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
}

/// A lock-free single-consumer mailbox: the cross-shard message channel of
/// the sharded engine. One `Outbox` exists per (source shard, destination
/// shard) pair; the source's assemble loop pushes remote-owned row batches
/// as it scatters chunks, and the destination drains between its own chunks
/// — so inter-shard rows flow *while both sides are still streaming*, with
/// no barrier on the data path.
///
/// The data path is lock-free: `push` is a Treiber-stack CAS, `try_drain`
/// a single `swap`. Batches come back in reverse push order (LIFO), which
/// is fine for every use in this codebase — the vertex worker canonically
/// sorts its whole input, so arrival order never reaches the output.
/// Consumer registration uses a `OnceLock` set once before the stream
/// starts; producers `unpark` the registered consumer after each push so a
/// parked `drain_wait` wakes promptly (and a `park_timeout` backstop covers
/// the unregistered window).
pub struct Outbox<T> {
    head: crate::sync::AtomicPtr<OutboxNode<T>>,
    closed: AtomicBool,
    consumer: std::sync::OnceLock<std::thread::Thread>,
    // `Mutex<T>` phantom: `Sync` exactly when `T: Send` (the consumer takes
    // ownership of items; nothing is ever shared by reference).
    _marker: std::marker::PhantomData<Mutex<T>>,
}

struct OutboxNode<T> {
    item: T,
    next: *mut OutboxNode<T>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Outbox<T> {
    /// An empty, open outbox with no registered consumer.
    pub fn new() -> Self {
        Self {
            head: crate::sync::AtomicPtr::new(std::ptr::null_mut()),
            closed: AtomicBool::new(false),
            consumer: std::sync::OnceLock::new(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Registers the calling thread as the consumer; subsequent pushes and
    /// the close will `unpark` it. First registration wins (single-consumer).
    pub fn register_consumer(&self) {
        let _ = self.consumer.set(std::thread::current());
        // A push may have raced ahead of registration and skipped the wake;
        // self-unpark so the first `drain_wait` never waits a full timeout
        // on an already-populated mailbox.
        std::thread::current().unpark();
    }

    fn wake_consumer(&self) {
        if let Some(t) = self.consumer.get() {
            t.unpark();
        }
    }

    /// Pushes one item (lock-free). Callers must not push after [`close`](Self::close)
    /// (checked in debug builds).
    pub fn push(&self, item: T) {
        debug_assert!(!self.closed.load(Ordering::Acquire), "push into a closed Outbox");
        let node = Box::into_raw(Box::new(OutboxNode { item, next: std::ptr::null_mut() }));
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            // SAFETY: `node` is exclusively ours until the CAS publishes it.
            unsafe { (*node).next = head };
            match self.head.compare_exchange_weak(head, node, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => break,
                Err(current) => head = current,
            }
        }
        self.wake_consumer();
    }

    /// Marks the stream complete: after every pushed item is drained,
    /// `drain_wait` returns `None`.
    pub fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake_consumer();
    }

    /// Whether the producer has marked the stream complete. Read this
    /// *before* a final [`try_drain`](Self::try_drain): close happens-after
    /// the last push, so `closed` + one more drain observes every item.
    pub fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Takes everything currently queued without blocking (possibly empty).
    /// Items arrive in reverse push order.
    pub fn try_drain(&self) -> Vec<T> {
        let mut node = self.head.swap(std::ptr::null_mut(), Ordering::AcqRel);
        let mut out = Vec::new();
        while !node.is_null() {
            // SAFETY: the swap took exclusive ownership of the whole chain.
            let boxed = unsafe { Box::from_raw(node) };
            node = boxed.next;
            out.push(boxed.item);
        }
        out
    }

    /// Blocks until at least one item is available (returning the whole
    /// current batch) or the outbox is closed *and* empty (returning
    /// `None`). Producers push-then-close, so observing `closed` and then
    /// draining empty means the stream is truly finished.
    pub fn drain_wait(&self) -> Option<Vec<T>> {
        loop {
            let items = self.try_drain();
            if !items.is_empty() {
                return Some(items);
            }
            if self.closed.load(Ordering::Acquire) {
                // Re-drain after observing the close: a final push
                // happens-before the close in the producer. Skipping this
                // re-drain tears the seal (a push racing the close is lost);
                // the model checker proves that by seeding
                // `runtime.outbox_skip_final_drain`.
                if crate::sync::model::mutation_enabled("runtime.outbox_skip_final_drain") {
                    return None;
                }
                let items = self.try_drain();
                return if items.is_empty() { None } else { Some(items) };
            }
            outbox_backstop();
        }
    }
}

/// The consumer's no-progress backstop in [`Outbox::drain_wait`]: a short
/// real-time park in production (producers `unpark` on every push), but a
/// model schedule point under the checker, so logical consumer threads
/// hand control to producers instead of sleeping wall-clock time.
fn outbox_backstop() {
    if crate::sync::model::in_model() {
        crate::sync::model::yield_now();
    } else {
        std::thread::park_timeout(Duration::from_millis(1));
    }
}

impl<T> Drop for Outbox<T> {
    fn drop(&mut self) {
        // Free anything never drained.
        for item in self.try_drain() {
            drop(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn executes_all_tasks() {
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..100 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn tasks_borrow_from_stack() {
        let pool = WorkerPool::new(2);
        let data = vec![1u64, 2, 3, 4];
        let sums: Vec<Mutex<u64>> = (0..4).map(|_| Mutex::new(0)).collect();
        pool.scope(|s| {
            for (i, slot) in sums.iter().enumerate() {
                let data = &data;
                s.spawn(move || {
                    *slot.lock() = data[i] * 10;
                });
            }
        });
        let total: u64 = sums.iter().map(|m| *m.lock()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn pool_threads_are_reused_across_scopes() {
        // The defining property of the refactor: consecutive supersteps
        // (scopes) run on the same persistent threads, not fresh spawns.
        const WORKERS: usize = 3;
        let pool = WorkerPool::new(WORKERS);
        // One task per worker, meeting at a WORKERS-party barrier: no task
        // can finish until every worker holds one, so the observed set is
        // the pool's whole worker set rather than whichever threads happened
        // to win the race for the tasks.
        let rendezvous = |pool: &WorkerPool| -> HashSet<ThreadId> {
            let ids = Mutex::new(HashSet::new());
            let arrived = Condvar::new();
            pool.scope(|s| {
                for _ in 0..WORKERS {
                    let (ids, arrived) = (&ids, &arrived);
                    s.spawn(move || {
                        let deadline = Instant::now() + Duration::from_secs(30);
                        let mut guard = ids.lock();
                        guard.insert(std::thread::current().id());
                        arrived.notify_all();
                        while guard.len() < WORKERS {
                            let left = deadline.saturating_duration_since(Instant::now());
                            assert!(
                                !left.is_zero(),
                                "only {} workers reached the barrier",
                                guard.len()
                            );
                            guard = arrived.wait_timeout(guard, left).0;
                        }
                    });
                }
            });
            ids.into_inner()
        };
        let first = rendezvous(&pool);
        let second = rendezvous(&pool);
        assert_eq!(first.len(), WORKERS, "scope 1 must run on every pool worker");
        assert_eq!(
            second, first,
            "scope 2 ran on threads outside the persistent pool: {second:?} vs {first:?}"
        );
    }

    #[test]
    fn panic_in_task_propagates_to_scope_caller() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom from worker"));
                s.spawn(|| { /* healthy sibling task */ });
            });
        }));
        let payload = result.expect_err("scope should rethrow the task panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().unwrap().as_str());
        assert!(msg.contains("boom from worker"));
        // The pool survives the panic and keeps executing.
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn map_indexed_preserves_input_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..64).rev().collect();
        let out = pool.map_indexed(items.clone(), |_, x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn size_one_pool_runs_inline_and_sequential() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.size(), 1);
        let caller = std::thread::current().id();
        let out = pool.map_indexed(vec![1, 2, 3], |i, x| {
            assert_eq!(std::thread::current().id(), caller, "sequential fallback must run inline");
            i + x
        });
        assert_eq!(out, vec![1, 3, 5]);
    }

    #[test]
    fn resize_grows_and_shrinks() {
        let pool = WorkerPool::new(1);
        pool.resize(4);
        assert_eq!(pool.size(), 4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..16 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        pool.resize(0); // clamps to 1
        assert_eq!(pool.size(), 1);
        pool.scope(|s| {
            s.spawn(|| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(counter.load(Ordering::SeqCst), 17);
    }

    #[test]
    fn repeated_resize_cycles_stay_healthy() {
        // Exercises the grow-after-shrink path: slots are reused, never
        // double-occupied, and the pool keeps executing correctly.
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        for round in 0..6 {
            pool.resize(if round % 2 == 0 { 1 } else { 5 });
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 48);
    }

    #[test]
    fn scope_body_panic_still_joins_tasks() {
        let pool = WorkerPool::new(2);
        let finished = Arc::new(AtomicU64::new(0));
        let finished2 = finished.clone();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                let finished = finished2.clone();
                s.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    finished.fetch_add(1, Ordering::SeqCst);
                });
                panic!("scope body panic");
            });
        }));
        assert!(result.is_err());
        // The spawned task must have completed before scope unwound.
        assert_eq!(finished.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn skewed_load_triggers_work_stealing() {
        // Round-robin puts half the tasks in each of two deques. Worker 0's
        // first task blocks it for a while; worker 1 drains its own deque in
        // microseconds and must steal worker 0's backlog to finish the scope.
        let pool = WorkerPool::new(2);
        let before = pool.metrics();
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for i in 0..16 {
                let counter = &counter;
                s.spawn(move || {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(60));
                    }
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 16);
        let delta = pool.metrics().delta_since(&before);
        assert_eq!(delta.tasks_executed, 16);
        assert!(delta.tasks_stolen > 0, "expected steals under skewed load, metrics: {delta:?}");
    }

    #[test]
    fn metrics_are_monotonic() {
        let pool = WorkerPool::new(3);
        let mut prev = pool.metrics();
        for _ in 0..4 {
            pool.scope(|s| {
                for _ in 0..12 {
                    s.spawn(|| {
                        std::thread::yield_now();
                    });
                }
            });
            let now = pool.metrics();
            assert!(now.tasks_executed >= prev.tasks_executed);
            assert!(now.tasks_stolen >= prev.tasks_stolen);
            assert!(now.queue_wait_secs >= prev.queue_wait_secs);
            prev = now;
        }
        assert_eq!(prev.tasks_executed, 48);
    }

    #[test]
    fn queue_wait_drops_with_pool_size() {
        // Regression guard for the per-worker parking backoff: a fixed load
        // of short tasks must observe *much* less cumulative queue wait on a
        // big pool than on a tiny one. Under the old single shared condvar,
        // wakeup contention at larger pool sizes ate into exactly this
        // margin.
        let load = |size: usize| -> f64 {
            let pool = WorkerPool::new(size);
            let before = pool.metrics();
            pool.scope(|s| {
                for _ in 0..48 {
                    s.spawn(|| {
                        std::thread::sleep(std::time::Duration::from_millis(3));
                    });
                }
            });
            let delta = pool.metrics().delta_since(&before);
            assert_eq!(delta.tasks_executed, 48);
            delta.queue_wait_secs
        };
        let small = load(2);
        let large = load(8);
        // The expected ratio is ~0.25 (4× the workers draining the same
        // queue), but both sides are wall-clock measurements: keep a wide
        // margin so scheduler noise on loaded CI runners can't flake this.
        assert!(
            large < small,
            "pool=8 should cut cumulative queue wait below pool=2: {large:.4}s vs {small:.4}s"
        );
    }

    #[test]
    fn shrink_then_submit_never_strands_a_job() {
        // Regression guard for a lost-wakeup window: a submission racing a
        // pool shrink must not deposit its single wake token on a worker
        // that is committing to exit (leaving the job queued while every
        // surviving worker stays parked). `wake_one` re-checks the sleeping
        // flag under the slot's park lock to close this; the loop below
        // hangs (scope never returns) if it regresses.
        let pool = WorkerPool::new(8);
        let counter = AtomicU64::new(0);
        for round in 0..40 {
            pool.resize(8);
            pool.resize(1);
            if round % 4 == 0 {
                // Give shrunken-away workers time to reach their exit path.
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            pool.scope(|s| {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn parked_workers_wake_for_late_submissions() {
        // Workers park on their own slots once the pool drains; later
        // submissions must still be picked up (no lost wakeups) even after
        // repeated park/unpark cycles.
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        for round in 0..10 {
            if round % 2 == 0 {
                // Give the workers time to actually park.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::SeqCst), 40);
    }

    #[test]
    fn tasks_spawn_continuations_onto_their_own_scope() {
        // A running task discovers more work and submits it to the same
        // scope (the pipelined dispatch pattern: a scatter task seals a
        // partition and spawns its compute task). The barrier must count
        // the continuations.
        let pool = WorkerPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                let counter = &counter;
                s.spawn(move || {
                    counter.fetch_add(1, Ordering::SeqCst);
                    // Two generations of continuations, spawned from workers.
                    s.spawn(move || {
                        counter.fetch_add(10, Ordering::SeqCst);
                        s.spawn(move || {
                            counter.fetch_add(100, Ordering::SeqCst);
                        });
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8 * 111);
    }

    #[test]
    fn continuation_panic_still_propagates() {
        let pool = WorkerPool::new(2);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(move || {
                    s.spawn(|| panic!("continuation boom"));
                });
            });
        }));
        let payload = result.expect_err("scope should rethrow the continuation panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or_else(|| payload.downcast_ref::<String>().unwrap().as_str());
        assert!(msg.contains("continuation boom"));
    }

    #[test]
    fn nested_scope_from_worker_completes() {
        // A pool task opens its own scope. The blocked worker must help run
        // the nested tasks rather than queueing behind its own scope.
        let pool = WorkerPool::new(3);
        let before = pool.metrics();
        let total = AtomicU64::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                let pool = &pool;
                let total = &total;
                s.spawn(move || {
                    let inner = AtomicU64::new(0);
                    pool.scope(|nested| {
                        for _ in 0..8 {
                            let inner = &inner;
                            nested.spawn(move || {
                                inner.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                    total.fetch_add(inner.load(Ordering::SeqCst), Ordering::SeqCst);
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 32);
        let delta = pool.metrics().delta_since(&before);
        assert_eq!(delta.nested_scopes, 4, "each task's scope counts as nested: {delta:?}");
        assert_eq!(delta.tasks_executed, 4 + 32);
    }

    #[test]
    fn nested_scope_on_single_worker_pool_cannot_deadlock() {
        // The regression the helping wait exists for: on a pool of one, a
        // task's nested scope submits into the only deque — the deque the
        // nesting task itself is blocking. Helping runs them inline.
        let pool = WorkerPool::new(1);
        let observed = AtomicU64::new(0);
        pool.scope(|s| {
            let pool = &pool;
            let observed = &observed;
            s.spawn(move || {
                pool.scope(|nested| {
                    for _ in 0..5 {
                        nested.spawn(move || {
                            observed.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
                // And map_indexed (built on scope) must nest too.
                let out = pool.map_indexed(vec![1u64, 2, 3], |_, x| x * 2);
                observed.fetch_add(out.iter().sum::<u64>(), Ordering::SeqCst);
            });
        });
        assert_eq!(observed.load(Ordering::SeqCst), 5 + 12);
    }

    #[test]
    fn nested_scope_metrics_are_monotonic() {
        let pool = WorkerPool::new(2);
        let mut prev = pool.metrics();
        assert_eq!(prev.nested_scopes, 0);
        for round in 0..3 {
            pool.scope(|s| {
                let pool = &pool;
                s.spawn(move || {
                    pool.scope(|nested| {
                        nested.spawn(std::thread::yield_now);
                    });
                });
            });
            let now = pool.metrics();
            assert!(now.nested_scopes > prev.nested_scopes, "round {round}: {now:?}");
            assert!(now.tasks_executed >= prev.tasks_executed);
            prev = now;
        }
        // Top-level scopes never count as nested.
        pool.scope(|s| s.spawn(|| {}));
        assert_eq!(pool.metrics().nested_scopes, prev.nested_scopes);
    }

    #[test]
    fn queue_wait_is_recorded() {
        // A pool of 2 fed 2 slow tasks + several queued ones: the queued
        // tasks must observe non-zero wait.
        let pool = WorkerPool::new(2);
        let before = pool.metrics();
        pool.scope(|s| {
            for _ in 0..6 {
                s.spawn(|| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                });
            }
        });
        let delta = pool.metrics().delta_since(&before);
        assert_eq!(delta.tasks_executed, 6);
        assert!(delta.queue_wait_secs > 0.0, "queued tasks should have waited: {delta:?}");
    }

    #[test]
    fn outbox_delivers_everything_once() {
        let outbox = Outbox::new();
        for i in 0..5 {
            outbox.push(i);
        }
        let mut got = outbox.try_drain();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
        assert!(outbox.try_drain().is_empty());
    }

    #[test]
    fn outbox_drain_wait_sees_stream_end() {
        let outbox = Arc::new(Outbox::new());
        let producer = {
            let outbox = outbox.clone();
            std::thread::spawn(move || {
                for i in 0..1000u64 {
                    outbox.push(i);
                    if i % 97 == 0 {
                        std::thread::yield_now();
                    }
                }
                outbox.close();
            })
        };
        outbox.register_consumer();
        let mut got = Vec::new();
        while let Some(batch) = outbox.drain_wait() {
            got.extend(batch);
        }
        producer.join().unwrap();
        got.sort_unstable();
        assert_eq!(got.len(), 1000);
        assert_eq!(got, (0..1000).collect::<Vec<_>>());
        assert!(outbox.is_closed());
        // After end-of-stream, further waits return immediately.
        assert!(outbox.drain_wait().is_none());
    }

    #[test]
    fn outbox_close_wakes_blocked_consumer() {
        let outbox = Arc::new(Outbox::<u64>::new());
        let consumer = {
            let outbox = outbox.clone();
            std::thread::spawn(move || {
                outbox.register_consumer();
                outbox.drain_wait()
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        outbox.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn outbox_drop_frees_undrained_items() {
        // Mostly a miri/asan courtesy: leak-free teardown of a non-empty box.
        let outbox = Outbox::new();
        outbox.push(String::from("left behind"));
        outbox.push(String::from("also left"));
        drop(outbox);
    }
}

/// Bounded model checks of the runtime's two concurrency protocols — the
/// [`Outbox`] produce/drain/seal handshake and the [`WorkerPool`]
/// park/wake/steal/exit protocol — plus mutation proofs that the
/// load-bearing re-checks are actually load-bearing. Compiled only under
/// `RUSTFLAGS='--cfg vertexica_model'`; run with
/// `cargo test -p vertexica-common model_`.
#[cfg(all(test, vertexica_model))]
mod model_tests {
    use super::*;
    use crate::sync::model::{self, Config, ViolationKind};

    // ---- Outbox produce / drain / seal ----

    /// One producer pushes two batches then seals; the consumer drains to
    /// end-of-stream. Every interleaving must deliver both items: close
    /// happens-after the last push, so `closed` + one final drain observes
    /// everything.
    fn outbox_scenario() {
        let ob = Arc::new(Outbox::<u32>::new());
        let producer = {
            let ob = ob.clone();
            model::spawn(move || {
                ob.push(1);
                ob.push(2);
                ob.close();
            })
        };
        let mut got = Vec::new();
        while let Some(batch) = ob.drain_wait() {
            got.extend(batch);
        }
        producer.join();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "torn seal: pushed items lost at close");
    }

    #[test]
    fn model_outbox_produce_drain_seal_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, outbox_scenario)
            .unwrap_or_else(|v| panic!("outbox protocol violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("atomic.cas"), "push CAS never explored: {:?}", stats.ops);
        eprintln!("[model] outbox clean: {stats:?}");
    }

    /// Seeding `runtime.outbox_skip_final_drain` (skip the re-drain after
    /// observing `closed`) must fail deterministically: same seed, same
    /// minimal schedule, same exploration count.
    #[test]
    fn model_outbox_torn_seal_mutation_detected() {
        let cfg = Config {
            max_preemptions: 2,
            mutation: Some("runtime.outbox_skip_final_drain"),
            ..Config::default()
        };
        let v1 =
            model::check(&cfg, outbox_scenario).expect_err("seeded torn-seal bug must be detected");
        assert_eq!(v1.kind, ViolationKind::Panic, "unexpected violation:\n{v1}");
        assert!(v1.message.contains("torn seal"), "unexpected failure: {}", v1.message);
        let v2 = model::check(&cfg, outbox_scenario).expect_err("second run must also fail");
        assert_eq!(v1.schedule, v2.schedule, "minimal schedule not deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
        eprintln!("[model] outbox mutation:\n{v1}");
    }

    // ---- WorkerPool park / wake / steal / exit ----

    fn pool_shared(n: usize) -> Arc<PoolShared> {
        Arc::new(PoolShared {
            slots: RwLock::new((0..n).map(|_| Arc::new(WorkerSlot::new())).collect()),
            target: AtomicUsize::new(n),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            idle: Mutex::new(()),
            executed: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            queue_wait_nanos: AtomicU64::new(0),
            nested_scopes: AtomicU64::new(0),
        })
    }

    fn fresh_scope() -> Arc<ScopeState> {
        Arc::new(ScopeState {
            pending: Mutex::new(0),
            all_done: Condvar::new(),
            panic: Mutex::new(None),
        })
    }

    /// The production shutdown protocol (`WorkerPool::drop` / `resize`):
    /// retarget under the idle lock, then token every slot.
    fn shutdown(shared: &Arc<PoolShared>) {
        {
            let _guard = shared.idle.lock();
            shared.target.store(0, Ordering::SeqCst);
        }
        shared.wake_all();
    }

    /// One logical worker and one submitter race a single job through the
    /// sleeper-registration / queued-re-check handshake, then shut the pool
    /// down. The barrier is the untimed condvar wait production
    /// `WorkerPool::scope` uses, so a lost wakeup surfaces as a deadlock.
    fn pool_scenario() {
        let shared = pool_shared(1);
        let worker = {
            let shared = shared.clone();
            model::spawn(move || worker_loop(shared, 0))
        };
        let state = fresh_scope();
        let ran = Arc::new(AtomicBool::new(false));
        state.task_started();
        {
            let state = state.clone();
            let ran = ran.clone();
            shared.submit(Box::new(move || {
                ran.store(true, Ordering::SeqCst);
                state.task_finished();
            }));
        }
        state.wait_all();
        assert!(ran.load(Ordering::SeqCst), "scope barrier released before the task ran");
        shutdown(&shared);
        worker.join();
        assert_eq!(shared.executed.load(Ordering::Relaxed), 1);
        assert_eq!(shared.queued.load(Ordering::SeqCst), 0);
        assert_eq!(shared.sleepers.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn model_pool_park_wake_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, pool_scenario)
            .unwrap_or_else(|v| panic!("worker-pool protocol violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("cond.wait"), "park never explored: {:?}", stats.ops);
        eprintln!("[model] pool park/wake clean: {stats:?}");
    }

    /// Seeding `runtime.skip_park_recheck` (park without re-checking
    /// `queued` after registering as a sleeper) is the classic lost-wakeup
    /// bug: the submitter reads `sleepers == 0`, skips the wake, and both
    /// sides block forever. The checker must report it as a deadlock,
    /// deterministically.
    #[test]
    fn model_pool_lost_wakeup_mutation_detected() {
        let cfg = Config {
            max_preemptions: 2,
            mutation: Some("runtime.skip_park_recheck"),
            ..Config::default()
        };
        let v1 =
            model::check(&cfg, pool_scenario).expect_err("seeded lost-wakeup bug must be detected");
        assert_eq!(v1.kind, ViolationKind::Deadlock, "unexpected violation:\n{v1}");
        let v2 = model::check(&cfg, pool_scenario).expect_err("second run must also fail");
        assert_eq!(v1.schedule, v2.schedule, "minimal schedule not deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
        eprintln!("[model] pool mutation:\n{v1}");
    }

    /// Two deques, one live worker: both jobs are queued round-robin before
    /// the worker starts, so completing the barrier requires stealing the
    /// ownerless sibling deque's job. Also exercises the shrink/exit
    /// decision under the idle lock.
    fn steal_scenario() {
        let shared = pool_shared(2);
        let state = fresh_scope();
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..2 {
            state.task_started();
            let state = state.clone();
            let done = done.clone();
            shared.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
                state.task_finished();
            }));
        }
        let worker = {
            let shared = shared.clone();
            model::spawn(move || worker_loop(shared, 1))
        };
        state.wait_all();
        assert_eq!(done.load(Ordering::SeqCst), 2, "a queued job was lost");
        shutdown(&shared);
        worker.join();
        assert_eq!(shared.executed.load(Ordering::Relaxed), 2);
        assert_eq!(shared.steals.load(Ordering::Relaxed), 1, "sibling deque was not stolen from");
        assert_eq!(shared.queued.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn model_pool_steal_and_exit_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, steal_scenario)
            .unwrap_or_else(|v| panic!("steal/exit protocol violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        eprintln!("[model] pool steal/exit clean: {stats:?}");
    }
}

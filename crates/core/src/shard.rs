//! Sharded execution: the graph hash-partitioned across N engine shards.
//!
//! A [`ShardedDatabase`] owns N fully independent [`Database`] engines —
//! each with its own catalog, worker pool and (when durable) its own WAL
//! directory under `<root>/shard<k>/`. Shard ownership is the engine-wide
//! ownership hash
//! [`int_key_partition`](vertexica_storage::partition::int_key_partition)
//! over vertex id: a vertex row, its outbound edges (keyed by `src`) and its
//! inbound messages (keyed by `recipient`) all land on the owning shard, so
//! at superstep time **only message rows ever cross a shard boundary** — a
//! shard's message table holds the messages its vertices *produced*,
//! whatever their recipient.
//!
//! ## Prescan-sealed cross-shard routing
//!
//! A sharded superstep is the coordinator's one per-shard step
//! (`run_shard_step` in [`crate::coordinator`]) run on one thread per
//! shard. Every shard thread:
//!
//! 1. prescans its local source tables' key columns and computes, for every
//!    (destination shard, destination partition) pair, how many union-schema
//!    rows it will contribute ([`crate::input::prescan`]);
//! 2. swaps those count matrices with every other shard through a condvar
//!    rendezvous (control plane only — no data moves here);
//! 3. streams its local assemble, splitting every chunk by owner: the local
//!    piece feeds its own pipelined scatter, remote pieces are pushed into
//!    lock-free per-(source, destination) [`Outbox`]es while the destination
//!    is still assembling — the overlapped dataflow crosses shard
//!    boundaries, and a partition fed from three shards **seals the moment
//!    its last inbound row lands** (the summed count matrices told it
//!    exactly how many to expect), not at any superstep-wide barrier.
//!
//! The only barrier left is the halting vote, which becomes two-phase: each
//! shard reports its local pending-message and active-vertex counts, and the
//! coordinator sums them before launching the next superstep.
//!
//! ## Bitwise equivalence with the single-database engine
//!
//! A single database *is* the 1-shard case of the same loop, so `shards = 1`
//! runs exactly the single-database code path. For N ≥ 2 the coordinator
//! coerces the config (`sharded_config`): table-union input and **the
//! apply-side combiner off**. The combiner must
//! be off because it folds per recipient *within the producing shard*: a
//! recipient fed from two shards would see `(a⊕b) ⊕ (c⊕d)` where the
//! single-database run folds `((a⊕b)⊕c)⊕d` — bitwise-divergent for
//! non-associative f64 folds. With raw messages the N-shard union of message
//! tables equals the 1-shard table row-for-row, and the worker's canonical
//! input sort makes every compute call's message slice identical. Global
//! aggregators are folded from the merged per-vertex partials sorted by
//! (name, vid) — the exact fold order of the single-database run.
//!
//! ## Per-shard durability and crash repair
//!
//! Every graph carries a superstep stamp table (`<name>_meta`, see
//! [`Stamp`]) that each shard's grouped commit rewrites: superstep number,
//! global vertex count, shard count, the superstep's *input* aggregates and
//! the shard's raw aggregator partials. On a durable
//! [`ShardedDatabase::create`]/[`open`](ShardedDatabase::open) root each
//! shard's commit additionally swaps `<name>_message_prev`, a retention of
//! the superstep's message *input* — all in the same atomic WAL commit
//! record, whichever update-vs-replace arm ran. The halting vote keeps shard
//! stamps within one superstep of each other, so recovery
//! ([`repair_if_needed`]) sees spread ≤ 1: a shard that crashed before
//! committing superstep `s` re-runs it locally, pulling its remote-owned
//! input rows from each peer — from the peer's retained `_message_prev` if
//! the peer already committed `s`, from its live message table if it is
//! equally behind. The repair commit is bitwise-identical to the one the
//! crash interrupted, and idempotent. [`resume_sharded`] then continues
//! from the common stamp.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;
use vertexica_common::sync::{AtomicBool, AtomicU64, Condvar, Mutex, Ordering};

use vertexica_common::graph::EdgeList;
use vertexica_common::pregel::VertexProgram;
use vertexica_common::runtime::Outbox;
use vertexica_common::{VertexData, VertexId};
use vertexica_sql::engine::ChunkSink;
use vertexica_sql::{Database, SqlError, SqlResult};
use vertexica_storage::partition::split_batch;
use vertexica_storage::{RecordBatch, TableOptions};

use crate::config::{InputMode, VertexicaConfig};
use crate::coordinator::{initialize_shard, run_sessions, run_shard_step, Inbound, RunStats, Step};
use crate::error::{VertexicaError, VertexicaResult};
use crate::input::message_union_batch;
use crate::session::{message_schema, GraphSession, Stamp, STAMP_INIT};

/// N independent engine shards behind one handle. In-memory
/// ([`ShardedDatabase::new`]) or durable, with each shard's WAL and segment
/// files under `<root>/shard<k>/` and the shard count recorded in
/// `<root>/SHARDS` ([`create`](Self::create) / [`open`](Self::open)).
pub struct ShardedDatabase {
    shards: Vec<Arc<Database>>,
    root: Option<PathBuf>,
}

impl ShardedDatabase {
    /// N in-memory shards (no durability, no repair — crash state dies with
    /// the process).
    pub fn new(num_shards: usize) -> Arc<Self> {
        let n = num_shards.max(1);
        Arc::new(ShardedDatabase {
            shards: (0..n).map(|_| Arc::new(Database::new())).collect(),
            root: None,
        })
    }

    /// Creates a durable sharded database: `<root>/SHARDS` records the shard
    /// count and each shard opens (WAL + segment files) under
    /// `<root>/shard<k>/`.
    pub fn create(root: impl AsRef<Path>, num_shards: usize) -> VertexicaResult<Arc<Self>> {
        let n = num_shards.max(1);
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| VertexicaError::Runtime(format!("create shard root: {e}")))?;
        std::fs::write(root.join("SHARDS"), format!("{n}\n"))
            .map_err(|e| VertexicaError::Runtime(format!("write SHARDS: {e}")))?;
        Self::open_shards(root, n)
    }

    /// Reopens a durable sharded database, recovering **every** shard (each
    /// shard's `Database::open` replays its own WAL to its last committed
    /// superstep boundary).
    pub fn open(root: impl AsRef<Path>) -> VertexicaResult<Arc<Self>> {
        let root = root.as_ref().to_path_buf();
        let text = std::fs::read_to_string(root.join("SHARDS"))
            .map_err(|e| VertexicaError::Runtime(format!("read SHARDS: {e}")))?;
        let n: usize = text
            .trim()
            .parse()
            .map_err(|_| VertexicaError::Runtime(format!("corrupt SHARDS file: {text:?}")))?;
        if n == 0 {
            return Err(VertexicaError::Runtime("SHARDS file declares zero shards".into()));
        }
        Self::open_shards(root, n)
    }

    fn open_shards(root: PathBuf, n: usize) -> VertexicaResult<Arc<Self>> {
        let mut shards = Vec::with_capacity(n);
        for k in 0..n {
            shards.push(Arc::new(Database::open(root.join(format!("shard{k}")))?));
        }
        Ok(Arc::new(ShardedDatabase { shards, root: Some(root) }))
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    pub fn shard(&self, k: usize) -> &Arc<Database> {
        &self.shards[k]
    }

    pub fn shards(&self) -> &[Arc<Database>] {
        &self.shards
    }

    /// Whether the shards are disk-backed (opened from a root directory).
    pub fn is_durable(&self) -> bool {
        self.root.is_some()
    }

    pub fn root(&self) -> Option<&Path> {
        self.root.as_deref()
    }

    /// Checkpoints every shard (flushes segment files, truncates each WAL).
    pub fn checkpoint(&self) -> VertexicaResult<()> {
        for s in &self.shards {
            s.checkpoint()?;
        }
        Ok(())
    }
}

/// A graph hash-partitioned across the shards of a [`ShardedDatabase`]:
/// one [`GraphSession`] per shard holding the shard-owned slice of the
/// vertex/edge/message tables and its superstep stamp, plus the per-shard
/// crash-repair retention table (`<name>_message_prev`).
pub struct ShardedGraphSession {
    db: Arc<ShardedDatabase>,
    sessions: Vec<GraphSession>,
    name: String,
}

impl ShardedGraphSession {
    /// Creates the per-shard graph tables plus the previous-message
    /// retention table on every shard.
    pub fn create(db: Arc<ShardedDatabase>, name: &str) -> VertexicaResult<Self> {
        let name = name.to_ascii_lowercase();
        let mut sessions = Vec::with_capacity(db.num_shards());
        for shard_db in db.shards() {
            let sess = GraphSession::create(shard_db.clone(), &name)?;
            shard_db.catalog().create_table(
                &sess.message_prev_table(),
                message_schema(),
                TableOptions::default().sorted_by(vec![0]),
            )?;
            sessions.push(sess);
        }
        Ok(ShardedGraphSession { db, sessions, name })
    }

    /// Opens an existing sharded graph and asserts the crash invariant the
    /// halting vote guarantees: every shard's superstep stamp is within one
    /// superstep of every other, and a shard without a stamp (its
    /// initialization was interrupted) only sits beside shards that have
    /// just been initialized.
    pub fn open(db: Arc<ShardedDatabase>, name: &str) -> VertexicaResult<Self> {
        let name = name.to_ascii_lowercase();
        let mut sessions = Vec::with_capacity(db.num_shards());
        for shard_db in db.shards() {
            let sess = GraphSession::open(shard_db.clone(), &name)?;
            shard_db.catalog().get(&sess.message_prev_table())?;
            sessions.push(sess);
        }
        let ss = ShardedGraphSession { db, sessions, name };
        check_stamps(&ss.name, &ss.stamps()?)?;
        Ok(ss)
    }

    pub fn db(&self) -> &Arc<ShardedDatabase> {
        &self.db
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn num_shards(&self) -> usize {
        self.sessions.len()
    }

    /// The per-shard sessions, indexed by shard id.
    pub fn shard_sessions(&self) -> &[GraphSession] {
        &self.sessions
    }

    /// Sharded bulk load: every shard keeps exactly the rows it owns
    /// ([`GraphSession::load_edges_shard`]), so the vertex table, outbound
    /// edges and (at runtime) inbound message rows of a vertex are all local
    /// to its owning shard.
    pub fn load_edges(&self, graph: &EdgeList) -> VertexicaResult<()> {
        let n = self.sessions.len();
        for (k, sess) in self.sessions.iter().enumerate() {
            sess.load_edges_shard(graph, k, n)?;
        }
        Ok(())
    }

    /// Global vertex count (sum of shard-local counts).
    pub fn num_vertices(&self) -> VertexicaResult<u64> {
        let mut n = 0;
        for sess in &self.sessions {
            n += sess.num_vertices()?;
        }
        Ok(n)
    }

    /// Global edge count (sum of shard-local counts).
    pub fn num_edges(&self) -> VertexicaResult<u64> {
        let mut n = 0;
        for sess in &self.sessions {
            n += sess.num_edges()?;
        }
        Ok(n)
    }

    /// Decodes all vertex values across every shard, sorted by id — same
    /// contract as [`GraphSession::vertex_values`].
    pub fn vertex_values<V: VertexData + Send>(&self) -> VertexicaResult<Vec<(VertexId, V)>> {
        let mut out = Vec::new();
        for sess in &self.sessions {
            out.extend(sess.vertex_values::<V>()?);
        }
        out.sort_by_key(|(id, _)| *id);
        Ok(out)
    }

    /// Every shard's superstep stamp (`None` = the shard has never been
    /// initialized).
    pub fn stamps(&self) -> VertexicaResult<Vec<Option<i64>>> {
        self.sessions.iter().map(|s| Ok(s.stamp()?.map(|m| m.superstep))).collect()
    }

    /// Checkpoints every shard.
    pub fn checkpoint(&self) -> VertexicaResult<()> {
        self.db.checkpoint()
    }
}

/// Rejects stamp sets no crash can produce: a spread beyond the halting
/// vote's bound of one superstep, or a shard without a stamp beside a shard
/// that has committed a superstep (an unstamped shard may only sit beside
/// shards whose initialization committed).
fn check_stamps(name: &str, stamps: &[Option<i64>]) -> VertexicaResult<()> {
    let known: Vec<i64> = stamps.iter().flatten().copied().collect();
    let (Some(&min), Some(&max)) = (known.iter().min(), known.iter().max()) else {
        return Ok(());
    };
    if known.len() < stamps.len() && max > STAMP_INIT {
        return Err(VertexicaError::Runtime(format!(
            "graph {name}: a shard has no superstep stamp while another committed superstep \
             {max}; storage is corrupt"
        )));
    }
    if max - min > 1 {
        return Err(VertexicaError::Runtime(format!(
            "graph {name}: shard superstep stamps spread {min}..{max} — the halting vote \
             bounds the spread to 1; storage is corrupt"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Config coercion.
// ---------------------------------------------------------------------------

/// The config an N-shard run actually executes with: the caller's own at
/// N = 1. Coercions at N ≥ 2 and why (each is proven bitwise-safe by the
/// equivalence harness):
///
/// * `input_mode = TableUnion` — the sharded exchange is built into the
///   streamed, plan-sealed union producer;
/// * `use_combiner = false` — the combiner folds per recipient *within the
///   producing shard*, which groups non-associative f64 folds differently
///   than the single-database run (see the module docs); raw messages make
///   the N-shard union of message tables equal the 1-shard table;
/// * `memory_budget_bytes` is divided by the shard count — N shards share
///   the one global budget instead of multiplying it.
fn sharded_config(config: &VertexicaConfig, num_shards: usize) -> VertexicaConfig {
    let mut c = config.clone();
    if num_shards > 1 {
        c.input_mode = InputMode::TableUnion;
        c.use_combiner = false;
        if let Some(budget) = c.memory_budget_bytes {
            c.memory_budget_bytes = Some((budget / num_shards).max(1));
        }
    }
    c
}

// ---------------------------------------------------------------------------
// The superstep exchange: outboxes + counts rendezvous.
// ---------------------------------------------------------------------------

/// One superstep's cross-shard fabric: an [`Outbox`] per (source,
/// destination) pair, the counts rendezvous, routing counters, and the
/// abort flag any failing shard raises so its peers stop waiting on it.
pub(crate) struct Exchange {
    /// `boxes[src][dst]` — src pushes, dst drains. The diagonal is unused.
    boxes: Vec<Vec<Outbox<RecordBatch>>>,
    counts: CountsBoard,
    remote_messages: AtomicU64,
    routed_bytes: AtomicU64,
    abort: AtomicBool,
}

impl Exchange {
    pub(crate) fn new(n: usize) -> Self {
        Exchange {
            boxes: (0..n).map(|_| (0..n).map(|_| Outbox::new()).collect()).collect(),
            counts: CountsBoard::new(n),
            remote_messages: AtomicU64::new(0),
            routed_bytes: AtomicU64::new(0),
            abort: AtomicBool::new(false),
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn aborted_error(shard: usize) -> SqlError {
        SqlError::Execution(format!("shard {shard}: sharded superstep aborted"))
    }

    /// Raised by a shard that errored or panicked: peers waiting on its
    /// counts or its outbox stream-end unstick via the flag, and closing the
    /// failed shard's outboxes wakes any parked consumer promptly.
    pub(crate) fn fail(&self, shard: usize) {
        self.abort.store(true, Ordering::Release);
        for d in 0..self.boxes.len() {
            if d != shard {
                self.boxes[shard][d].close();
            }
        }
    }

    /// Deposits `shard`'s `counts[destination][partition]` matrix and
    /// returns every shard's, once all are in.
    pub(crate) fn exchange_counts(
        &self,
        shard: usize,
        counts: Vec<Vec<u64>>,
    ) -> VertexicaResult<Vec<Vec<Vec<u64>>>> {
        self.counts.exchange(shard, counts, &self.abort)
    }

    /// Makes `shard`'s thread the single consumer of every inbound outbox.
    pub(crate) fn register_consumer(&self, shard: usize) {
        for j in 0..self.boxes.len() {
            if j != shard {
                self.boxes[j][shard].register_consumer();
            }
        }
    }

    /// Pushes a remote-owned piece from shard `from` to its owner `to`.
    pub(crate) fn route(&self, from: usize, to: usize, piece: RecordBatch) {
        self.remote_messages.fetch_add(piece.num_rows() as u64, Ordering::Relaxed);
        self.routed_bytes.fetch_add(piece.estimated_bytes() as u64, Ordering::Relaxed);
        self.boxes[from][to].push(piece);
    }

    /// Feeds whatever has arrived for `shard` so far into its scatter, so
    /// remote rows keep flowing (and sealing partitions) while both sides
    /// still stream. Fails once any shard has failed.
    pub(crate) fn drain(&self, shard: usize, sink: &mut ChunkSink<'_>) -> SqlResult<()> {
        if self.aborted() {
            return Err(Self::aborted_error(shard));
        }
        for j in 0..self.boxes.len() {
            if j != shard {
                for piece in self.boxes[j][shard].try_drain() {
                    sink(piece)?;
                }
            }
        }
        Ok(())
    }

    /// `shard`'s local end of stream: closes its outboxes (everything it
    /// will ever route is pushed), then drains every peer to stream-end.
    pub(crate) fn finish(&self, shard: usize, sink: &mut ChunkSink<'_>) -> SqlResult<()> {
        let n = self.boxes.len();
        for d in 0..n {
            if d != shard {
                self.boxes[shard][d].close();
            }
        }
        // Reading `closed` BEFORE the drain makes the final drain complete:
        // close happens-after the producer's last push.
        let mut done = vec![false; n];
        done[shard] = true;
        loop {
            let mut progressed = false;
            let mut remaining = false;
            for (j, done_j) in done.iter_mut().enumerate() {
                if *done_j {
                    continue;
                }
                let inbox = &self.boxes[j][shard];
                let closed = inbox.is_closed();
                let pieces = inbox.try_drain();
                progressed |= !pieces.is_empty();
                for piece in pieces {
                    sink(piece)?;
                }
                if closed {
                    for piece in inbox.try_drain() {
                        progressed = true;
                        sink(piece)?;
                    }
                    *done_j = true;
                } else {
                    remaining = true;
                }
            }
            if !remaining {
                break;
            }
            if !progressed {
                if self.aborted() {
                    return Err(Self::aborted_error(shard));
                }
                std::thread::park_timeout(Duration::from_micros(200));
            }
        }
        if self.aborted() {
            return Err(Self::aborted_error(shard));
        }
        Ok(())
    }

    /// Rows routed to a different shard this superstep.
    pub(crate) fn remote_messages(&self) -> u64 {
        self.remote_messages.load(Ordering::Relaxed)
    }

    /// Estimated bytes of rows routed to a different shard this superstep.
    pub(crate) fn routed_bytes(&self) -> u64 {
        self.routed_bytes.load(Ordering::Relaxed)
    }
}

/// The counts rendezvous: every shard deposits its
/// `counts[destination][partition]` matrix and waits (control plane only —
/// no rows block here) until all N are in, then reads the full set. Waits
/// poll the abort flag so one failing shard cannot hang the rest.
struct CountsBoard {
    slots: Mutex<CountsState>,
    ready: Condvar,
}

struct CountsState {
    filled: usize,
    slots: Vec<Option<Vec<Vec<u64>>>>,
}

impl CountsBoard {
    fn new(n: usize) -> Self {
        CountsBoard {
            slots: Mutex::new(CountsState { filled: 0, slots: vec![None; n] }),
            ready: Condvar::new(),
        }
    }

    fn exchange(
        &self,
        shard: usize,
        counts: Vec<Vec<u64>>,
        abort: &AtomicBool,
    ) -> VertexicaResult<Vec<Vec<Vec<u64>>>> {
        let mut guard = self.slots.lock();
        debug_assert!(guard.slots[shard].is_none(), "shard {shard} deposited counts twice");
        guard.slots[shard] = Some(counts);
        guard.filled += 1;
        if guard.filled == guard.slots.len() {
            self.ready.notify_all();
        }
        while guard.filled < guard.slots.len() {
            // Polling the abort flag is what lets one failed shard unstick
            // its peers; the model checker proves the poll load-bearing by
            // seeding `shard.skip_abort_recheck`.
            if abort.load(Ordering::Acquire)
                && !vertexica_common::sync::model::mutation_enabled("shard.skip_abort_recheck")
            {
                return Err(VertexicaError::Runtime(
                    "sharded superstep aborted during counts exchange".into(),
                ));
            }
            let (g, _) = self.ready.wait_timeout(guard, Duration::from_millis(50));
            guard = g;
        }
        Ok(guard.slots.iter().map(|s| s.clone().expect("all slots filled")).collect())
    }
}

// ---------------------------------------------------------------------------
// The sharded coordinator.
// ---------------------------------------------------------------------------

/// Runs a vertex program across every shard of a [`ShardedGraphSession`]:
/// the coordinator's one superstep loop over the shard sessions, with the
/// `sharded_config` coercions at N ≥ 2 (see its docs for each and why).
/// Results are bitwise-identical to a 1-shard run of the same program under
/// `use_combiner = false` (the cross-engine harness proves it per
/// algorithm).
pub fn run_sharded<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    run_sessions(&ss.sessions, program, &sharded_config(config, ss.num_shards()), false)
}

/// Resumes a sharded run after a crash: [`repair_if_needed`] brings every
/// shard to the same superstep stamp, then the loop continues from that
/// stamp + 1 with the aggregates folded from every shard's stamped partials.
pub fn resume_sharded<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    repair_if_needed(ss, program.clone(), config)?;
    run_sessions(&ss.sessions, program, &sharded_config(config, ss.num_shards()), true)
}

// ---------------------------------------------------------------------------
// Crash repair.
// ---------------------------------------------------------------------------

/// Brings every shard to the same superstep boundary after a crash.
///
/// Call after [`ShardedDatabase::open`] + [`ShardedGraphSession::open`]
/// (which already replayed each shard's WAL and checked the stamps). If all
/// shards stamp the same superstep there is nothing to do (`Ok(None)`). If
/// the crash interrupted initialization, the unstamped shards are
/// initialized (`Ok(None)`: no superstep was re-run). If some shard is one
/// behind — the crash hit between two shards' apply commits — the behind
/// shard **re-runs** the missing superstep locally: its own tables still
/// hold exactly that superstep's local input, and its remote-owned input
/// rows are read from each peer (the peer's retained `_message_prev` table
/// if the peer committed the superstep, its live message table if it is
/// equally behind). The re-run commit is bitwise-identical to the one the
/// crash interrupted — same input multiset, same canonical worker sort,
/// same apply — and idempotent: crashing *during repair* just repairs
/// again. Returns the re-run superstep number.
pub fn repair_if_needed<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<Option<u64>> {
    let n = ss.num_shards();
    let metas: Vec<Option<Stamp>> =
        ss.sessions.iter().map(GraphSession::stamp).collect::<VertexicaResult<_>>()?;
    let mut stamps: Vec<Option<i64>> =
        metas.iter().map(|m| m.as_ref().map(|m| m.superstep)).collect();
    check_stamps(&ss.name, &stamps)?;
    let c = sharded_config(config, n);
    for sess in &ss.sessions {
        sess.db().runtime().resize(c.num_workers);
    }
    if stamps.iter().all(Option::is_none) {
        return Ok(None);
    }
    if stamps.iter().any(Option::is_none) {
        // Initialization was interrupted (check_stamps: every stamped shard
        // is at STAMP_INIT); initializing is idempotent.
        let num_vertices = ss.num_vertices()?;
        for (sess, stamp) in ss.sessions.iter().zip(&stamps) {
            if stamp.is_none() {
                initialize_shard(sess, program.as_ref(), num_vertices, n)?;
            }
        }
        ss.db.checkpoint()?;
        return Ok(None);
    }
    let s_max = stamps.iter().flatten().copied().max().unwrap_or(STAMP_INIT);
    if stamps.iter().all(|s| *s == Some(s_max)) {
        return Ok(None);
    }
    if !ss.db.is_durable() {
        return Err(VertexicaError::Runtime(
            "cannot repair a non-durable sharded database: no retained message input".into(),
        ));
    }
    let ahead = metas
        .iter()
        .flatten()
        .find(|m| m.superstep == s_max)
        .ok_or_else(|| VertexicaError::Runtime("no shard holds the newest stamp".into()))?;
    if ahead.num_shards != n {
        return Err(VertexicaError::Runtime(format!(
            "graph {}: stamp says {} shards but the database has {n}",
            ss.name, ahead.num_shards
        )));
    }
    let step = Step {
        program: &program,
        config: &c,
        superstep: s_max as u64,
        num_vertices: ahead.num_vertices,
        num_shards: n,
        prev_aggregates: &ahead.input_aggregates,
    };
    for b in 0..n {
        if stamps[b] == Some(s_max) {
            continue;
        }
        repair_shard(ss, &step, b, &stamps)?;
        // The repaired shard's `_message_prev` now holds the superstep's
        // input (like any shard that committed it) — later behind shards
        // must read it from there, not from the now-advanced live table.
        stamps[b] = Some(s_max);
    }
    ss.db.checkpoint()?;
    Ok(Some(s_max as u64))
}

/// Re-runs one missing superstep on one behind shard (see
/// [`repair_if_needed`] for the protocol): the coordinator's per-shard step
/// with the peers' retained rows in place of the live exchange.
fn repair_shard<P: VertexProgram + 'static>(
    ss: &ShardedGraphSession,
    step: &Step<'_, P>,
    shard: usize,
    stamps: &[Option<i64>],
) -> VertexicaResult<()> {
    let n = ss.num_shards();
    let sess = &ss.sessions[shard];
    // Remote-owned input rows from every peer's copy of the superstep's
    // message input, reshaped to the union-schema wire format.
    let mut remote: Vec<RecordBatch> = Vec::new();
    for (j, peer) in ss.sessions.iter().enumerate() {
        if j == shard {
            continue;
        }
        let table = if stamps[j] == Some(step.superstep as i64) {
            peer.message_prev_table()
        } else {
            peer.message_table()
        };
        for batch in peer.db().scan_table(&table, None, &[])? {
            for (d, piece) in split_batch(&batch, &[0], n).map_err(VertexicaError::from)? {
                if d == shard {
                    remote.push(message_union_batch(&piece)?);
                }
            }
        }
    }
    run_shard_step(step, sess, shard, sess.num_vertices()?, Inbound::Replay(remote))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_common::hash::FxHashMap;
    use vertexica_common::pregel::{InitContext, VertexContext, VertexContextExt};
    use vertexica_storage::partition::int_key_partition;
    use vertexica_storage::Value;

    /// HashMax connected components (same as the coordinator's test program).
    struct MaxId;
    impl VertexProgram for MaxId {
        type Value = u64;
        type Message = u64;

        fn initial_value(&self, id: VertexId, _init: &InitContext) -> u64 {
            id
        }

        fn compute(&self, ctx: &mut dyn VertexContext<u64, u64>, messages: &[u64]) {
            let best = messages.iter().copied().fold(*ctx.value(), u64::max);
            if best > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(best);
                ctx.send_to_all_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn name(&self) -> &'static str {
            "maxid"
        }
    }

    /// Two components joined through several cross-owner edges, big enough
    /// that 2 and 3 shards each own something.
    fn chain_graph() -> EdgeList {
        let mut pairs = Vec::new();
        for i in 0..19u64 {
            pairs.push((i, i + 1));
            pairs.push((i + 1, i));
        }
        pairs.push((30, 31));
        pairs.push((31, 30));
        EdgeList::from_pairs(pairs)
    }

    fn test_config() -> VertexicaConfig {
        VertexicaConfig::default()
            .with_workers(2)
            .with_partitions(8)
            .with_combiner(false)
            .with_replace_threshold(0.0)
            .with_memory_budget(None)
    }

    fn plain_run() -> (Vec<(VertexId, u64)>, RunStats) {
        use crate::coordinator::run_program;
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&chain_graph()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &test_config()).unwrap();
        (g.vertex_values().unwrap(), stats)
    }

    fn sharded_run(n: usize) -> (Vec<(VertexId, u64)>, RunStats) {
        let db = ShardedDatabase::new(n);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        let stats = run_sharded(&ss, Arc::new(MaxId), &test_config()).unwrap();
        (ss.vertex_values().unwrap(), stats)
    }

    #[test]
    fn sharded_matches_single_database() {
        let (vals1, stats1) = plain_run();
        for n in [2usize, 3] {
            let (vals_n, stats_n) = sharded_run(n);
            assert_eq!(vals1, vals_n, "{n} shards: vertex values diverged");
            assert_eq!(stats1.total_messages, stats_n.total_messages, "{n} shards");
            assert_eq!(stats1.supersteps, stats_n.supersteps, "{n} shards");
            for (a, b) in stats1.per_superstep.iter().zip(&stats_n.per_superstep) {
                assert_eq!(a.messages, b.messages, "{n} shards, superstep {}", a.superstep);
                assert_eq!(a.vertex_changes, b.vertex_changes, "{n} shards");
            }
            // The chain crosses owners, so rows actually routed.
            assert!(
                stats_n.per_superstep.iter().map(|s| s.remote_messages).sum::<u64>() > 0,
                "{n} shards: expected cross-shard routing"
            );
            assert!(
                stats_n.per_superstep.iter().map(|s| s.routed_bytes).sum::<u64>() > 0,
                "{n} shards: routed bytes untracked"
            );
            assert!(stats_n.per_superstep.iter().all(|s| s.shard_skew >= 1.0));
        }
    }

    #[test]
    fn one_shard_collapses_to_plain_run() {
        let (vals1, stats1) = plain_run();
        let (vals_s, stats_s) = sharded_run(1);
        assert_eq!(vals1, vals_s);
        assert_eq!(stats1.total_messages, stats_s.total_messages);
        assert_eq!(stats1.supersteps, stats_s.supersteps);
        // A 1-shard run never routes.
        assert!(stats_s.per_superstep.iter().all(|s| s.remote_messages == 0));
    }

    #[test]
    fn sharded_load_partitions_by_ownership_hash() {
        let db = ShardedDatabase::new(3);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        assert_eq!(ss.num_vertices().unwrap(), 32);
        assert_eq!(ss.num_edges().unwrap(), 40);
        for (k, sess) in ss.shard_sessions().iter().enumerate() {
            // Every local vertex and edge row is owned by this shard.
            for row in sess.db().query(&format!("SELECT id FROM {}", sess.vertex_table())).unwrap()
            {
                let id = row[0].as_int().unwrap();
                assert_eq!(int_key_partition(id, 3), k, "vertex {id} misplaced");
            }
            for row in sess.db().query(&format!("SELECT src FROM {}", sess.edge_table())).unwrap() {
                let src = row[0].as_int().unwrap();
                assert_eq!(int_key_partition(src, 3), k, "edge src {src} misplaced");
            }
        }
    }

    #[test]
    fn meta_roundtrip() {
        let db = ShardedDatabase::new(2);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        let mut aggs = FxHashMap::default();
        aggs.insert("sum".to_string(), 0.1 + 0.2); // not exactly representable
        let partials =
            vec![("dangling".to_string(), 3, 1.0 / 3.0), ("dangling".to_string(), 9, -0.0)];
        let sess = &ss.shard_sessions()[0];
        let batch = Stamp::encode(7, 42, 2, &aggs, &partials).unwrap();
        sess.db()
            .commit_tables_segmented(vec![sess.stamp_group(batch).unwrap()], Vec::new())
            .unwrap();
        let meta = sess.stamp().unwrap().unwrap();
        assert_eq!(meta.superstep, 7);
        assert_eq!(meta.num_vertices, 42);
        assert_eq!(meta.num_shards, 2);
        // Bit-exact f64 round trips through the Int column.
        assert_eq!(meta.input_aggregates["sum"].to_bits(), (0.1f64 + 0.2).to_bits());
        let bits = |p: &[(String, i64, f64)]| -> Vec<(String, i64, u64)> {
            p.iter().map(|(n, v, x)| (n.clone(), *v, x.to_bits())).collect()
        };
        assert_eq!(bits(&meta.partials), bits(&partials));
        // An un-stamped shard reads as None.
        assert_eq!(ss.stamps().unwrap(), vec![Some(7), None]);
        // A stamp table the codec did not write is a typed error.
        let schema = Stamp::encode(0, 1, 1, &aggs, &[]).unwrap().schema().clone();
        let row = vec![Value::Str("bogus".into()), Value::Null, Value::Int(0)];
        let bogus = RecordBatch::from_rows(schema, &[row]).unwrap();
        assert!(matches!(Stamp::decode(&[bogus]), Err(VertexicaError::Codec(_))));
    }

    #[test]
    fn prescan_counts_cover_all_rows() {
        let db = ShardedDatabase::new(2);
        let ss = ShardedGraphSession::create(db, "g").unwrap();
        ss.load_edges(&chain_graph()).unwrap();
        let mut total = 0u64;
        for sess in ss.shard_sessions() {
            let counts = crate::input::prescan(sess, InputMode::TableUnion, 2, 4).unwrap();
            total += counts.iter().flatten().sum::<u64>();
        }
        // vertices + edges (no messages yet).
        assert_eq!(total, 32 + 40);
    }

    #[test]
    fn counts_board_aborts_instead_of_hanging() {
        let board = CountsBoard::new(2);
        let abort = AtomicBool::new(true);
        let err = board.exchange(0, vec![vec![0]], &abort);
        assert!(err.is_err(), "an aborted exchange must not wait for the missing shard");
    }
}

/// Bounded model checks of the counts rendezvous: every interleaving of two
/// depositing shards must hand both the complete matrix, and a shard that
/// fails before depositing must unstick its waiting peer via the abort
/// flag. Compiled only under `RUSTFLAGS='--cfg vertexica_model'`.
#[cfg(all(test, vertexica_model))]
mod model_tests {
    use super::*;
    use vertexica_common::sync::model::{self, Config, ViolationKind};

    /// Both shards deposit and rendezvous: each must observe the full,
    /// identical matrix, whichever order deposits and waits interleave in.
    fn rendezvous_scenario() {
        let board = Arc::new(CountsBoard::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let peer = {
            let board = board.clone();
            let abort = abort.clone();
            model::spawn(move || {
                board.exchange(1, vec![vec![10], vec![11]], &abort).expect("peer exchange")
            })
        };
        let mine = board.exchange(0, vec![vec![0], vec![1]], &abort).expect("exchange");
        let theirs = peer.join();
        assert_eq!(mine, theirs, "shards observed different count matrices");
        assert_eq!(mine[0], vec![vec![0], vec![1]]);
        assert_eq!(mine[1], vec![vec![10], vec![11]]);
    }

    /// Shard 1 fails before depositing: shard 0's timed wait must notice
    /// the abort flag and error out instead of waiting for a deposit that
    /// will never come.
    fn abort_scenario() {
        let board = Arc::new(CountsBoard::new(2));
        let abort = Arc::new(AtomicBool::new(false));
        let failer = {
            let abort = abort.clone();
            model::spawn(move || abort.store(true, Ordering::Release))
        };
        let res = board.exchange(0, vec![vec![1]], &abort);
        failer.join();
        assert!(res.is_err(), "abort must unstick the counts rendezvous");
    }

    #[test]
    fn model_shard_rendezvous_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, rendezvous_scenario)
            .unwrap_or_else(|v| panic!("counts rendezvous violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        eprintln!("[model] shard rendezvous clean: {stats:?}");
    }

    #[test]
    fn model_shard_abort_unsticks_waiter_clean() {
        let cfg = Config { max_preemptions: 2, ..Config::default() };
        let stats = model::check(&cfg, abort_scenario)
            .unwrap_or_else(|v| panic!("abort-aware wait violated:\n{v}"));
        assert!(stats.exhausted, "bounded schedule space not exhausted: {stats:?}");
        assert!(stats.ops.contains("cond.wait"), "timed wait never explored: {:?}", stats.ops);
        eprintln!("[model] shard abort clean: {stats:?}");
    }

    /// Seeding `shard.skip_abort_recheck` (drop the abort poll from the
    /// wait loop) strands the waiter on a rendezvous that can never fill;
    /// once its timeout-wake budget is spent the checker must report the
    /// stuck state as a deadlock, deterministically.
    #[test]
    fn model_shard_skip_abort_recheck_mutation_detected() {
        let cfg = Config {
            max_preemptions: 2,
            mutation: Some("shard.skip_abort_recheck"),
            ..Config::default()
        };
        let v1 = model::check(&cfg, abort_scenario)
            .expect_err("seeded missing-abort-poll bug must be detected");
        assert_eq!(v1.kind, ViolationKind::Deadlock, "unexpected violation:\n{v1}");
        let v2 = model::check(&cfg, abort_scenario).expect_err("second run must also fail");
        assert_eq!(v1.schedule, v2.schedule, "minimal schedule not deterministic");
        assert_eq!(v1.schedules_explored, v2.schedules_explored);
        eprintln!("[model] shard mutation:\n{v1}");
    }
}

//! The coordinator: a stored procedure that drives supersteps.
//!
//! "The coordinator is the driver program that manages the supersteps … We
//! implement the coordinator as a stored procedure; it runs as long as there
//! is any message for the next superstep" (§2.2). Each superstep:
//!
//! 1. assemble worker input ([`crate::input`], union or join mode),
//!    streamed chunk-by-chunk through per-segment scan cursors so the full
//!    table union never materializes;
//! 2. hash-partition it on vertex id (vertex batching) with **sealed**
//!    partitions: a key-column prescan ([`crate::input::prescan`]) tells
//!    each partition how many rows it will receive;
//! 3. run worker UDFs in parallel, one per partition, on the **shared
//!    runtime pool** ([`vertexica_common::runtime::WorkerPool`]) owned by
//!    the `Database` — the same persistent threads every superstep, resized
//!    once per run to `num_workers`, with per-worker deques and work
//!    stealing smoothing out skewed partitions;
//! 4. apply outputs via update-vs-replace ([`crate::apply`]): each
//!    partition's output is parsed on the pool worker that finished it, the
//!    new tables are built segment-parallel, and everything — message swap,
//!    vertex swap or in-place vertex updates, and the superstep [`Stamp`] —
//!    is one grouped commit (one WAL record on a durable database);
//! 5. halting vote, aggregator fold, halt check.
//!
//! A single database is literally the 1-shard case of the sharded
//! coordinator ([`crate::shard`]): one per-shard step (`run_shard_step`),
//! one loop over `&[GraphSession]`. At one shard the step runs inline with
//! no outboxes and no rendezvous; at N ≥ 2 it runs on one thread per shard
//! and remote-owned rows cross through the exchange.
//!
//! **Resume** reads the stamp every commit leaves behind
//! ([`resume_program`]): the last committed superstep, the vertex count,
//! and the raw aggregator partials that superstep produced, so the resumed
//! run folds bit-identical aggregates and continues at the next superstep.
//!
//! Steps 1–3 are **pipelined**
//! ([`vertexica_sql::Database::run_transform_pipelined`]): assemble chunks
//! are scattered by pool tasks, and a partition's worker UDF launches the
//! moment its last row lands — while assemble is still streaming later
//! chunks. The overlap actually achieved is reported per superstep as
//! [`SuperstepStats::overlap_secs`].
//!
//! Each superstep's [`SuperstepStats`] carries the pipeline's observability:
//! pool queue-wait, steal and nested-scope counts, compute/assemble overlap,
//! plus peak/total in-flight input bytes.

use std::panic::AssertUnwindSafe;
use std::sync::Arc;

use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, InitContext, VertexProgram};
use vertexica_common::runtime::PoolMetrics;
use vertexica_common::timer::Stopwatch;
use vertexica_common::VertexData;
use vertexica_sql::engine::PipelinedReport;
use vertexica_sql::{SqlError, TransformUdf};
use vertexica_storage::partition::{int_key_partition, split_batch};
use vertexica_storage::{ColumnBuilder, DataType, RecordBatch, Value};

use crate::apply::{apply_parallel, ParallelApply, SuperstepOutcome};
use crate::config::VertexicaConfig;
use crate::error::{VertexicaError, VertexicaResult};
use crate::input::{assemble_chunks, prescan};
use crate::session::{vertex_schema, GraphSession, Stamp, STAMP_INIT};
use crate::shard::Exchange;
use crate::worker::VertexWorker;

/// Per-superstep observability.
#[derive(Debug, Clone)]
pub struct SuperstepStats {
    /// Superstep number (0-based).
    pub superstep: u64,
    /// Messages delivered into the next superstep.
    pub messages: usize,
    /// Vertices whose value or halt state changed.
    pub vertex_changes: usize,
    /// Whether the vertex table was replaced (vs updated in place).
    pub replaced: bool,
    /// Wall-clock seconds assembling + partitioning worker input.
    pub assemble_secs: f64,
    /// Wall-clock seconds running worker UDFs (each partition's output is
    /// also parsed for apply in this window).
    pub compute_secs: f64,
    /// Wall-clock seconds applying outputs (table writes, halt check).
    pub apply_secs: f64,
    /// Width of the apply fan-out: segment buckets built in parallel on the
    /// pool (`num_workers`).
    pub apply_parallelism: usize,
    /// Seconds worker-UDF compute tasks ran **while assemble was still
    /// streaming chunks** — the overlap the pipelined dataflow exists to
    /// create. Zero on a single-worker pool (nothing is concurrent).
    pub overlap_secs: f64,
    /// Cumulative seconds this superstep's pool tasks spent queued before a
    /// worker picked them up (from [`vertexica_common::runtime::PoolMetrics`]).
    pub queue_wait_secs: f64,
    /// Pool tasks this superstep obtained by work stealing.
    pub steals: u64,
    /// Scopes entered from inside a pool task this superstep (nested
    /// parallelism, e.g. a big partition's worker sorting its input on the
    /// pool), from [`vertexica_common::runtime::PoolMetrics::nested_scopes`].
    pub nested_scopes: u64,
    /// Largest single in-flight input batch, in estimated bytes. Streaming
    /// keeps this far below [`input_bytes`](Self::input_bytes).
    pub peak_batch_bytes: usize,
    /// Total assembled worker input for this superstep, in estimated bytes.
    pub input_bytes: usize,
    /// The most un-emitted **source-scan** data assemble ever held at once,
    /// in estimated bytes. Pull-based scan cursors hold one in-flight batch
    /// per source (plus the hash-join build sides in 3-way-join mode) —
    /// strictly below [`input_bytes`](Self::input_bytes) on any multi-batch
    /// input.
    pub peak_resident_scan_bytes: usize,
    /// Compute partitions dispatched by a **seal** — their last planned row
    /// landed while assemble was still streaming — as opposed to the
    /// end-of-stream drain. Nonzero only on a multi-worker pool; with the
    /// join-mode row plan, the 3-way-join input seals partitions too.
    pub early_dispatches: usize,
    /// Write-ahead-log records appended during this superstep (zero on a
    /// non-durable database). The grouped apply commit contributes exactly
    /// one commit record regardless of how many tables it swapped.
    pub wal_records: u64,
    /// Bytes appended to the write-ahead log during this superstep,
    /// including frame headers (zero on a non-durable database).
    pub wal_bytes: u64,
    /// Bytes of table images flushed to segment files during this superstep
    /// — the grouped apply commit writes each swapped table's full physical
    /// image (zero on a non-durable database).
    pub flush_bytes: u64,
    /// Peak bytes of ROS segments resident in the storage buffer pool during
    /// this superstep. With a [`memory
    /// budget`](crate::VertexicaConfig::memory_budget_bytes) configured this
    /// stays at or below the budget (modulo the unevictable pinned/dirty
    /// working set); unbounded runs simply report the high-water mark.
    pub resident_bytes: u64,
    /// Cold ROS segments evicted from the buffer pool to disk twins during
    /// this superstep (zero without a memory budget).
    pub evictions: u64,
    /// Evicted ROS segments reloaded from their `.vxtb` spill images because
    /// a scan pinned them during this superstep (zero without a memory
    /// budget).
    pub reloads: u64,
    /// Messages routed to a *different* shard through a cross-shard outbox
    /// this superstep. Always zero on a single-database run; on a
    /// [`crate::shard::ShardedDatabase`] run the sharded coordinator sums
    /// every shard's outbound count.
    pub remote_messages: u64,
    /// Estimated bytes of cross-shard rows pushed through outboxes this
    /// superstep (zero on a single-database run).
    pub routed_bytes: u64,
    /// Shard load skew: max/mean worker-input rows across shards (1.0 for a
    /// single-database run or a perfectly balanced shard set).
    pub shard_skew: f64,
}

/// Whole-run observability.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Supersteps executed by this run.
    pub supersteps: u64,
    /// Total wall-clock seconds, including initialization.
    pub total_secs: f64,
    /// Messages delivered across all supersteps.
    pub total_messages: u64,
    /// Per-superstep breakdown, in execution order.
    pub per_superstep: Vec<SuperstepStats>,
    /// Final aggregator values.
    pub aggregates: FxHashMap<String, f64>,
}

/// Initializes the vertex table with the program's initial values (and
/// halted=false), and clears the message table.
pub fn initialize_vertices<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
) -> VertexicaResult<u64> {
    let n = session.num_vertices()?;
    initialize_shard(session, program, n, 1)?;
    Ok(n)
}

/// Initializes one shard's vertices with the *global* vertex count: a shard
/// holds only its own vertices, but `InitContext::num_vertices` (e.g.
/// PageRank's `1/N` seed) must reflect the whole graph. Out-degrees are
/// computed locally, which is exact because every vertex's outbound edges
/// are colocated with it by the ownership hash.
///
/// The fresh vertex table, the emptied message table and the
/// [`STAMP_INIT`] stamp commit as ONE grouped catalog commit (not
/// truncate-then-append): recovery can never land between an emptied vertex
/// table and its initialization, or separate an initialized graph from its
/// stamp.
pub(crate) fn initialize_shard<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    num_vertices: u64,
    num_shards: usize,
) -> VertexicaResult<()> {
    let degrees = session.out_degrees()?;
    let mut ids = ColumnBuilder::with_capacity(DataType::Int, degrees.len());
    let mut values = ColumnBuilder::with_capacity(DataType::Blob, degrees.len());
    let mut halted = ColumnBuilder::with_capacity(DataType::Bool, degrees.len());
    for (id, deg) in &degrees {
        let init = InitContext { num_vertices, out_degree: *deg };
        let v = program.initial_value(*id, &init);
        ids.push_int(*id as i64);
        values.push(Value::Blob(v.to_bytes())).map_err(VertexicaError::from)?;
        halted.push(Value::Bool(false)).map_err(VertexicaError::from)?;
    }
    let batch =
        RecordBatch::new(vertex_schema(), vec![ids.finish(), values.finish(), halted.finish()])
            .map_err(VertexicaError::from)?;
    let db = session.db();
    let stamp = Stamp::encode(STAMP_INIT, num_vertices, num_shards, &FxHashMap::default(), &[])?;
    db.commit_tables_segmented(
        vec![
            (session.vertex_table(), db.encode_segments_for(&session.vertex_table(), vec![batch])?),
            (session.message_table(), Vec::new()),
            session.stamp_group(stamp)?,
        ],
        Vec::new(),
    )?;
    Ok(())
}

/// Runs a vertex program to completion on a graph session — the 1-shard
/// case of the one superstep loop.
pub fn run_program<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    run_sessions(std::slice::from_ref(session), program, config, false)
}

/// Resumes a run from the graph's superstep [`Stamp`] — typically after a
/// crash, on a reopened durable database: continues from the stamped
/// superstep + 1 with the aggregates folded from the stamped partials, so
/// the finished graph is bitwise-identical to an uninterrupted run. A graph
/// without a stamp (the run never committed its initialization) runs from
/// scratch.
pub fn resume_program<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: &VertexicaConfig,
) -> VertexicaResult<RunStats> {
    run_sessions(std::slice::from_ref(session), program, config, true)
}

/// Sizes every shard's shared runtime pool once for the whole run (every
/// superstep reuses the same worker threads) and applies the out-of-core
/// budget before the first checkpoint, which gives every cold segment a
/// `.vxtb` spill twin the pool can evict down to.
fn prepare(sessions: &[GraphSession], config: &VertexicaConfig) {
    for sess in sessions {
        sess.db().runtime().resize(config.num_workers);
        if let Some(budget) = config.memory_budget_bytes {
            sess.db().catalog().buffer_pool().set_budget(Some(budget));
        }
    }
}

/// Flushes every shard's tables and truncates its log (no-op in memory).
fn checkpoint(sessions: &[GraphSession]) -> VertexicaResult<()> {
    for sess in sessions {
        sess.db().checkpoint()?;
    }
    Ok(())
}

/// The one superstep loop, over one session per shard — a single database
/// is the 1-shard case. A fresh run initializes every shard; a resumed run
/// continues from the shards' stamps, which must all name the same
/// superstep (a sharded caller repairs first), or starts fresh if any shard
/// is unstamped.
pub(crate) fn run_sessions<P: VertexProgram + 'static>(
    sessions: &[GraphSession],
    program: Arc<P>,
    config: &VertexicaConfig,
    resume: bool,
) -> VertexicaResult<RunStats> {
    let total = Stopwatch::start();
    let n = sessions.len();
    prepare(sessions, config);
    let specs = agg_specs(program.as_ref());
    let stamps = if resume {
        sessions.iter().map(GraphSession::stamp).collect::<VertexicaResult<Option<Vec<_>>>>()?
    } else {
        None
    };
    let (num_vertices, start, mut prev_aggregates) = match stamps {
        Some(stamps) => {
            let first = &stamps[0];
            if stamps.iter().any(|s| s.superstep != first.superstep) || first.num_shards != n {
                return Err(VertexicaError::Runtime(format!(
                    "cannot resume {n} shards from stamps {:?} of a {}-shard run (repair first)",
                    stamps.iter().map(|s| s.superstep).collect::<Vec<_>>(),
                    first.num_shards
                )));
            }
            let aggregates = fold_aggregates(&specs, stamps.iter().flat_map(|s| &s.partials))?;
            (first.num_vertices, (first.superstep + 1) as u64, aggregates)
        }
        None => {
            let mut num_vertices = 0;
            for sess in sessions {
                num_vertices += sess.num_vertices()?;
            }
            for sess in sessions {
                initialize_shard(sess, program.as_ref(), num_vertices, n)?;
            }
            // Flush the freshly initialized tables so recovery from a crash
            // in superstep 0 starts from the initialized state instead of
            // replaying graph loading.
            checkpoint(sessions)?;
            (num_vertices, 0, FxHashMap::default())
        }
    };
    // Each shard's own vertex count, once per run: the update-vs-replace
    // ratio is per shard, like the table it decides for.
    let local_vertices: Vec<u64> =
        sessions.iter().map(GraphSession::num_vertices).collect::<VertexicaResult<_>>()?;
    let mut stats = RunStats::default();
    let max_supersteps = config.max_supersteps.min(program.max_supersteps());
    let mut superstep = start;

    while superstep < max_supersteps {
        // The halting vote, phase one: after superstep 0, stop when no shard
        // has a pending message or an active vertex. The vote (with phase
        // two below) is the only superstep-wide synchronization point — rows
        // never barrier.
        if superstep > 0 {
            let (mut pending, mut active) = (0, 0);
            for sess in sessions {
                let db = sess.db();
                pending +=
                    db.query_int(&format!("SELECT COUNT(*) FROM {}", sess.message_table()))?;
                active += db.query_int(&format!(
                    "SELECT COUNT(*) FROM {} WHERE halted = FALSE",
                    sess.vertex_table()
                ))?;
            }
            if pending == 0 && active == 0 {
                break;
            }
        }

        let step = Step {
            program: &program,
            config,
            superstep,
            num_vertices,
            num_shards: n,
            prev_aggregates: &prev_aggregates,
        };
        let exchange = (n > 1).then(|| Exchange::new(n));
        let reports = run_step_on_shards(&step, sessions, &local_vertices, exchange.as_ref())?;
        let aggregates =
            fold_aggregates(&specs, reports.iter().flat_map(|r| &r.outcome.agg_partials))?;
        let all_halted = reports.iter().all(|r| r.outcome.all_halted);
        let s = superstep_stats(superstep, &reports, exchange.as_ref());
        let messages = s.messages;
        stats.per_superstep.push(s);
        stats.total_messages += messages as u64;
        stats.supersteps = superstep + 1 - start;
        stats.aggregates = aggregates.clone();
        prev_aggregates = aggregates;

        // The halting vote, phase two: every shard's outcome counted.
        if messages == 0 && all_halted {
            break;
        }
        superstep += 1;
    }
    // Land the final state in segment files and truncate the log.
    checkpoint(sessions)?;
    stats.total_secs = total.elapsed_secs();
    Ok(stats)
}

fn agg_specs<P: VertexProgram>(program: &P) -> FxHashMap<String, AggKind> {
    program.aggregators().into_iter().map(|s| (s.name.to_string(), s.kind)).collect()
}

/// Folds per-vertex aggregator partials — from every shard — sorted by
/// (name, vid): one total order however the vertices were partitioned or
/// sharded, so f64 folds are bitwise-identical across runs.
fn fold_aggregates<'a>(
    specs: &FxHashMap<String, AggKind>,
    partials: impl Iterator<Item = &'a (String, i64, f64)>,
) -> VertexicaResult<FxHashMap<String, f64>> {
    let mut partials: Vec<&(String, i64, f64)> = partials.collect();
    partials.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    let mut folded: FxHashMap<String, f64> = FxHashMap::default();
    for (name, _, v) in partials {
        let kind = specs
            .get(name)
            .ok_or_else(|| VertexicaError::Runtime(format!("unknown aggregator {name}")))?;
        let acc = folded.entry(name.clone()).or_insert(kind.identity());
        *acc = kind.combine(*acc, *v);
    }
    Ok(folded)
}

/// Where a shard's remote-owned worker input comes from.
pub(crate) enum Inbound<'a> {
    /// A single database: every row is local.
    Local,
    /// The live cross-shard exchange.
    Exchange(&'a Exchange),
    /// Crash repair: rows the peers retained, fed in place of the live
    /// exchange.
    Replay(Vec<RecordBatch>),
}

/// The superstep-wide inputs every shard's step shares.
pub(crate) struct Step<'a, P> {
    pub program: &'a Arc<P>,
    pub config: &'a VertexicaConfig,
    pub superstep: u64,
    /// Global vertex count.
    pub num_vertices: u64,
    pub num_shards: usize,
    pub prev_aggregates: &'a FxHashMap<String, f64>,
}

/// Everything one shard reports back from one superstep.
pub(crate) struct ShardReport {
    outcome: SuperstepOutcome,
    profile: PipelinedReport,
    apply_secs: f64,
    pool: PoolMetrics,
    wal_records: u64,
    wal_bytes: u64,
    flush_bytes: u64,
    resident_bytes: u64,
    evictions: u64,
    reloads: u64,
    /// Worker-input rows this shard consumed (local + inbound) — the skew
    /// gauge's numerator.
    input_rows: u64,
}

/// One shard's superstep: key prescan → counts exchange → pipelined
/// assemble/scatter/compute with the owner split → apply with the stamp in
/// the commit group. `local_vertices` is this shard's own vertex count (the
/// update-vs-replace denominator).
///
/// Every assembled chunk is split by owner: the shard's own piece feeds its
/// pipelined scatter, remote pieces go to their owners (or are dropped on a
/// repair replay: the owners consumed them already). The prescan's
/// per-(shard, partition) counts, summed over every source, tell each
/// partition exactly how many rows to expect, so it seals — and its worker
/// UDF starts — the moment its last row lands, wherever that row came from.
pub(crate) fn run_shard_step<P: VertexProgram + 'static>(
    step: &Step<'_, P>,
    sess: &GraphSession,
    shard: usize,
    local_vertices: u64,
    inbound: Inbound<'_>,
) -> VertexicaResult<ShardReport> {
    let (n, config) = (step.num_shards, step.config);
    let parts = config.num_partitions.max(1);
    let db = sess.db();
    let pool_before = db.runtime().metrics();
    let dur_before = db.durability_stats();
    let buffer_pool = db.catalog().buffer_pool().clone();
    buffer_pool.reset_peak();
    let bp_before = buffer_pool.stats();
    let (exchange, mut replay) = match inbound {
        Inbound::Local => (None, Vec::new()),
        Inbound::Exchange(x) => (Some(x), Vec::new()),
        Inbound::Replay(rows) => (None, rows),
    };

    // Durable shards retain this superstep's message *input* for crash
    // repair, pre-encoded here and committed atomically with the apply.
    let retained = if n > 1 && db.is_durable() {
        let table = sess.message_prev_table();
        let batches = db.scan_table(&sess.message_table(), None, &[])?;
        Some((table.clone(), db.encode_segments_for(&table, batches)?))
    } else {
        None
    };

    // Control plane: what partition p of THIS shard will receive from every
    // source — the seal thresholds. Only counts move here, never rows.
    let mut counts = prescan(sess, config.input_mode, n, parts)?;
    let mut expected = match exchange {
        Some(x) => {
            let matrix = x.exchange_counts(shard, counts)?;
            (0..parts).map(|p| matrix.iter().map(|m| m[shard][p]).sum()).collect()
        }
        None => counts.swap_remove(shard),
    };
    for batch in &replay {
        let keys = batch.column(0).as_int().ok_or_else(|| {
            VertexicaError::Runtime("replayed message rows without a BIGINT key".into())
        })?;
        for &key in keys {
            expected[int_key_partition(key, parts)] += 1;
        }
    }
    let input_rows: u64 = expected.iter().sum();
    if let Some(x) = exchange {
        x.register_consumer(shard);
    }

    let worker: Arc<dyn TransformUdf> = Arc::new(VertexWorker {
        program: step.program.clone(),
        superstep: step.superstep,
        num_vertices: step.num_vertices,
        prev_aggregates: Arc::new(step.prev_aggregates.clone()),
        use_combiner: config.use_combiner,
        pool: Some(db.runtime().clone()),
    });
    let apply = ParallelApply::for_program(step.program.as_ref(), config.num_workers.max(1));
    let to_sql = |e: VertexicaError| match e {
        VertexicaError::Sql(e) => e,
        other => SqlError::Execution(other.to_string()),
    };
    let profile = db.run_transform_pipelined(
        &worker,
        vec![0],
        parts,
        Some(expected),
        &mut |chunk_sink| {
            let peak =
                assemble_chunks(sess, config.input_mode, config.stream_chunk_rows, &mut |chunk| {
                    for (d, piece) in split_batch(&chunk, &[0], n).map_err(VertexicaError::from)? {
                        if d == shard {
                            chunk_sink(piece)?;
                        } else if let Some(x) = exchange {
                            x.route(shard, d, piece);
                        }
                    }
                    if let Some(x) = exchange {
                        // Keep remote rows flowing (and sealing partitions)
                        // while both sides still stream.
                        x.drain(shard, chunk_sink)?;
                    }
                    Ok(())
                })
                .map_err(to_sql)?;
            if let Some(x) = exchange {
                x.finish(shard, chunk_sink)?;
            }
            for piece in replay.drain(..) {
                chunk_sink(piece)?;
            }
            Ok(peak)
        },
        &|idx, out| apply.absorb(idx, &out).map_err(|e| SqlError::Udf(e.to_string())),
    )?;

    let sw = Stopwatch::start();
    let outcome =
        apply_parallel(sess, step.program.as_ref(), config, apply, local_vertices, |partials| {
            let stamp = Stamp::encode(
                step.superstep as i64,
                step.num_vertices,
                n,
                step.prev_aggregates,
                partials,
            )?;
            let mut extra = vec![sess.stamp_group(stamp)?];
            extra.extend(retained);
            Ok(extra)
        })?;
    let apply_secs = sw.elapsed_secs();

    let (wal_records, wal_bytes, flush_bytes) = match (dur_before, db.durability_stats()) {
        (Some(before), Some(after)) => (
            after.wal_records - before.wal_records,
            after.wal_bytes - before.wal_bytes,
            after.flush_bytes - before.flush_bytes,
        ),
        _ => (0, 0, 0),
    };
    let bp_after = buffer_pool.stats();
    Ok(ShardReport {
        outcome,
        profile,
        apply_secs,
        pool: db.runtime().metrics().delta_since(&pool_before),
        wal_records,
        wal_bytes,
        flush_bytes,
        resident_bytes: buffer_pool.peak_resident_bytes(),
        evictions: bp_after.evictions - bp_before.evictions,
        reloads: bp_after.reloads - bp_before.reloads,
        input_rows,
    })
}

/// Runs one superstep on every shard: inline on a single database, else one
/// thread per shard tied together by the exchange. A shard that errors or
/// panics raises the exchange abort so its peers unstick, then the first
/// error propagates.
fn run_step_on_shards<P: VertexProgram + 'static>(
    step: &Step<'_, P>,
    sessions: &[GraphSession],
    local_vertices: &[u64],
    exchange: Option<&Exchange>,
) -> VertexicaResult<Vec<ShardReport>> {
    let Some(exchange) = exchange else {
        return Ok(vec![run_shard_step(step, &sessions[0], 0, local_vertices[0], Inbound::Local)?]);
    };
    let superstep = step.superstep;
    let results: Vec<VertexicaResult<ShardReport>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sessions
            .iter()
            .enumerate()
            .map(|(k, sess)| {
                let local = local_vertices[k];
                scope.spawn(move || {
                    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
                        run_shard_step(step, sess, k, local, Inbound::Exchange(exchange))
                    }))
                    .unwrap_or_else(|_| {
                        Err(VertexicaError::Runtime(format!(
                            "shard {k} panicked in superstep {superstep}"
                        )))
                    });
                    if result.is_err() {
                        exchange.fail(k);
                    }
                    result
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(VertexicaError::Runtime("shard thread join failed".into()))
                })
            })
            .collect()
    });
    results.into_iter().collect()
}

/// The run-wide stats of one superstep: per-shard work summed, per-shard
/// wall clocks maxed (shards run concurrently).
fn superstep_stats(
    superstep: u64,
    reports: &[ShardReport],
    exchange: Option<&Exchange>,
) -> SuperstepStats {
    let sum = |f: fn(&ShardReport) -> u64| reports.iter().map(f).sum::<u64>();
    let fmax = |f: fn(&ShardReport) -> f64| reports.iter().map(f).fold(0.0f64, f64::max);
    let total_rows = sum(|r| r.input_rows);
    let mean_rows = total_rows as f64 / reports.len() as f64;
    let max_rows = reports.iter().map(|r| r.input_rows).max().unwrap_or(0);
    SuperstepStats {
        superstep,
        messages: reports.iter().map(|r| r.outcome.messages).sum(),
        vertex_changes: reports.iter().map(|r| r.outcome.vertex_changes).sum(),
        replaced: reports.iter().any(|r| r.outcome.replaced),
        assemble_secs: fmax(|r| r.profile.assemble_secs),
        compute_secs: fmax(|r| r.profile.compute_secs),
        apply_secs: fmax(|r| r.apply_secs),
        apply_parallelism: reports.iter().map(|r| r.outcome.apply_parallelism).max().unwrap_or(1),
        overlap_secs: fmax(|r| r.profile.overlap_secs),
        queue_wait_secs: reports.iter().map(|r| r.pool.queue_wait_secs).sum(),
        steals: sum(|r| r.pool.tasks_stolen),
        nested_scopes: sum(|r| r.pool.nested_scopes),
        peak_batch_bytes: reports.iter().map(|r| r.profile.peak_chunk_bytes).max().unwrap_or(0),
        input_bytes: reports.iter().map(|r| r.profile.input_bytes).sum(),
        peak_resident_scan_bytes: reports.iter().map(|r| r.profile.peak_resident_scan_bytes).sum(),
        early_dispatches: reports.iter().map(|r| r.profile.early_dispatches).sum(),
        wal_records: sum(|r| r.wal_records),
        wal_bytes: sum(|r| r.wal_bytes),
        flush_bytes: sum(|r| r.flush_bytes),
        resident_bytes: sum(|r| r.resident_bytes),
        evictions: sum(|r| r.evictions),
        reloads: sum(|r| r.reloads),
        remote_messages: exchange.map_or(0, Exchange::remote_messages),
        routed_bytes: exchange.map_or(0, Exchange::routed_bytes),
        shard_skew: if mean_rows > 0.0 { max_rows as f64 / mean_rows } else { 1.0 },
    }
}

/// Registers a vertex program as a named stored procedure so it can be
/// invoked with `db.call_procedure(name, &[])` — the deployment shape the
/// paper describes (coordinator = stored procedure inside the database).
/// Returns the procedure name.
pub fn register_as_procedure<P: VertexProgram + 'static>(
    session: &GraphSession,
    program: Arc<P>,
    config: VertexicaConfig,
) -> String {
    let proc_name = format!("vertexica_{}_{}", session.name(), program.name());
    let session = session.clone();
    session.db().clone().register_procedure(
        &proc_name,
        Arc::new(move |_db, _args| {
            let stats = run_program(&session, program.clone(), &config)
                .map_err(|e| vertexica_sql::SqlError::Execution(e.to_string()))?;
            Ok(Value::Int(stats.supersteps as i64))
        }),
    );
    proc_name
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::InputMode;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::pregel::{VertexContext, VertexContextExt};
    use vertexica_common::VertexId;
    use vertexica_sql::Database;

    /// HashMax connected components: every vertex adopts the largest id seen.
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

        fn combine(&self, a: &u64, b: &u64) -> Option<u64> {
            Some((*a).max(*b))
        }

        fn name(&self) -> &'static str {
            "maxid"
        }
    }

    fn two_components() -> EdgeList {
        // Component A: 0-1-2 (undirected), component B: 3-4.
        EdgeList::from_pairs([(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3)])
    }

    fn run_maxid(config: VertexicaConfig) -> Vec<(VertexId, u64)> {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats = run_program(&g, Arc::new(MaxId), &config).unwrap();
        assert!(stats.supersteps >= 2);
        g.vertex_values().unwrap()
    }

    #[test]
    fn converges_to_component_max() {
        let vals = run_maxid(VertexicaConfig::default().with_partitions(4).with_workers(2));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn single_partition_single_worker_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_partitions(1).with_workers(1));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn join_input_mode_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_input_mode(InputMode::ThreeWayJoin));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn no_combiner_same_answer() {
        let vals = run_maxid(VertexicaConfig::default().with_combiner(false));
        assert_eq!(vals, vec![(0, 2), (1, 2), (2, 2), (3, 4), (4, 4)]);
    }

    #[test]
    fn forced_replace_and_forced_update_agree() {
        let a = run_maxid(VertexicaConfig::default().with_replace_threshold(0.0));
        let b = run_maxid(VertexicaConfig::default().with_replace_threshold(1.0));
        assert_eq!(a, b);
    }

    #[test]
    fn max_supersteps_caps_run() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats =
            run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_max_supersteps(1))
                .unwrap();
        assert_eq!(stats.supersteps, 1);
    }

    #[test]
    fn stats_track_messages_and_replacement() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let stats = run_program(
            &g,
            Arc::new(MaxId),
            &VertexicaConfig::default().with_replace_threshold(0.0),
        )
        .unwrap();
        assert!(stats.total_messages > 0);
        assert!(stats.per_superstep[0].replaced);
        assert!(stats.per_superstep[0].messages > 0);
        // Final superstep emits nothing.
        assert_eq!(stats.per_superstep.last().unwrap().messages, 0);
    }

    #[test]
    fn coordinator_shares_the_database_pool() {
        let db = Arc::new(Database::new());
        let pool = db.runtime().clone();
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_workers(3)).unwrap();
        // The run resized the *shared* pool rather than creating its own…
        assert_eq!(pool.size(), 3);
        assert!(Arc::ptr_eq(&pool, db.runtime()));
        // …and a second run on the same database reuses it at a new size.
        run_program(&g, Arc::new(MaxId), &VertexicaConfig::default().with_workers(2)).unwrap();
        assert_eq!(pool.size(), 2);
    }

    #[test]
    fn runs_as_stored_procedure() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&two_components()).unwrap();
        let name = register_as_procedure(&g, Arc::new(MaxId), VertexicaConfig::default());
        let out = db.call_procedure(&name, &[]).unwrap();
        let Value::Int(supersteps) = out else { panic!() };
        assert!(supersteps >= 2);
        let vals: Vec<(VertexId, u64)> = g.vertex_values().unwrap();
        assert_eq!(vals[0], (0, 2));
    }
}

//! Applying worker outputs — the paper's **Update vs. Replace** optimization
//! (§2.3).
//!
//! Vertex-centric supersteps generate two kinds of writes: new vertex values
//! and a fresh message set. Naively UPDATE-ing the vertex table and
//! DELETE+INSERT-ing messages "can slow down the performance significantly".
//! Vertexica instead *replaces* tables: build `vertex_new` by LEFT JOINing
//! the old vertex table with the superstep's delta and swap it in. When few
//! tuples changed (below a threshold), in-place updates win — so the policy
//! is threshold-based.
//!
//! The policy runs **segment-parallel** ([`apply_parallel`]): each
//! partition's output is parsed and scattered into apply buckets **on the
//! pool worker that finished it** ([`ParallelApply::absorb`]), the new
//! vertex/message tables are built as per-bucket ROS segments in parallel on
//! the same pool — a replace is the LEFT-JOIN-equivalent merge of the old
//! vertex rows with the delta, bucket by bucket — and the commit is one
//! grouped catalog commit
//! ([`vertexica_sql::Database::commit_tables_segmented`]) whichever arm
//! runs: the message swap, the vertex swap *or* the in-place vertex updates,
//! and the coordinator's superstep stamp all land together. Canonicalizing
//! sorts at every segment boundary make the result independent of partition
//! completion order, worker count and bucket count, which
//! `tests/cross_engine_equivalence.rs`'s determinism matrix checks bitwise
//! on every vertex-centric algorithm.

use vertexica_common::sync::Mutex;

use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexProgram};
use vertexica_common::VertexData;
use vertexica_storage::partition::{hash_partition, int_key_partition};
use vertexica_storage::{RecordBatch, Value};

use crate::config::VertexicaConfig;
use crate::error::{VertexicaError, VertexicaResult};
use crate::session::{message_batch, vertex_schema, GraphSession};
use crate::worker::{OUT_AGGREGATE, OUT_MESSAGE, OUT_STATE};

/// What a superstep did, as observed by the coordinator.
#[derive(Debug, Clone, Default)]
pub struct SuperstepOutcome {
    /// Vertices whose value or halt state changed.
    pub vertex_changes: usize,
    /// Messages delivered into the next superstep.
    pub messages: usize,
    /// Whether the vertex table was replaced (vs updated in place).
    pub replaced: bool,
    /// Whether every vertex has voted to halt.
    pub all_halted: bool,
    /// Per-vertex aggregator partials `(name, vid, value)`, sorted by
    /// (name, vid). The coordinator folds the merge of every shard's
    /// partials in this order — per-shard folded f64 sums are not bitwise
    /// recombinable, the global fold must see the raw per-vertex terms.
    pub agg_partials: Vec<(String, i64, f64)>,
    /// Width of the apply fan-out: the number of segment buckets built in
    /// parallel on the pool.
    pub apply_parallelism: usize,
}

/// Parsed state rows for one apply bucket: `(vid, encoded value, halted)`.
type UpdateRows = Vec<(i64, Vec<u8>, bool)>;
/// Parsed message rows for one apply bucket: `(recipient, sender, payload)`.
type MessageRows = Vec<(u64, u64, Vec<u8>)>;
/// Per-vertex aggregator partials: `(name, vid, value)`.
type AggPartials = Vec<(String, i64, f64)>;

/// Parses one partition's worker output batches into state rows, message
/// rows and aggregator partials. Aggregator partials arrive tagged with
/// their vertex id, so their final fold order — (name, vid) — is
/// deterministic regardless of completion order, partitioning, or sharding.
fn parse_outputs(
    batches: &[RecordBatch],
    agg_specs: &FxHashMap<String, AggKind>,
) -> VertexicaResult<(UpdateRows, MessageRows, AggPartials)> {
    let (mut updates, mut messages, mut agg_partials) = (Vec::new(), Vec::new(), Vec::new());
    for batch in batches {
        for i in 0..batch.num_rows() {
            let row = batch.row(i);
            let kind = row[0].as_int().unwrap_or(-1);
            match kind {
                OUT_STATE => {
                    let vid = row[1]
                        .as_int()
                        .ok_or_else(|| VertexicaError::Runtime("state row without vid".into()))?;
                    let Value::Blob(bytes) = row[3].clone() else {
                        return Err(VertexicaError::Runtime("state row without payload".into()));
                    };
                    let halted = row[4].as_bool().unwrap_or(false);
                    updates.push((vid, bytes, halted));
                }
                OUT_MESSAGE => {
                    let to = row[1].as_int().unwrap_or(0) as u64;
                    let from = row[2].as_int().unwrap_or(0) as u64;
                    let Value::Blob(bytes) = row[3].clone() else {
                        return Err(VertexicaError::Runtime("message row without payload".into()));
                    };
                    messages.push((to, from, bytes));
                }
                OUT_AGGREGATE => {
                    let Value::Str(name) = row[5].clone() else {
                        return Err(VertexicaError::Runtime("aggregate row without name".into()));
                    };
                    let vid = row[1].as_int().ok_or_else(|| {
                        VertexicaError::Runtime("aggregate row without vid".into())
                    })?;
                    let v = row[6].as_float().unwrap_or(0.0);
                    if !agg_specs.contains_key(&name) {
                        return Err(VertexicaError::Runtime(format!("unknown aggregator {name}")));
                    }
                    agg_partials.push((name, vid, v));
                }
                other => {
                    return Err(VertexicaError::Runtime(format!("bad output kind {other}")));
                }
            }
        }
    }
    Ok((updates, messages, agg_partials))
}

/// Parses worker output batches (one per partition) and applies them to the
/// graph's tables in one call — [`ParallelApply::absorb`] for each batch,
/// then [`apply_parallel`] with nothing else in the commit.
pub fn apply_outputs<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    config: &VertexicaConfig,
    outputs: Vec<RecordBatch>,
    local_vertices: u64,
) -> VertexicaResult<SuperstepOutcome> {
    let apply = ParallelApply::for_program(program, config.num_workers.max(1));
    for (i, batch) in outputs.iter().enumerate() {
        apply.absorb(i, std::slice::from_ref(batch))?;
    }
    apply_parallel(session, program, config, apply, local_vertices, |_| Ok(Vec::new()))
}

/// Folds message partials addressed to the same recipient with the program's
/// combiner: `messages` must arrive sorted by `(recipient, sender, payload)`,
/// and partials for one recipient are combined in that order. The apply
/// calls this per recipient-hash bucket; every recipient lives in exactly
/// one bucket, so its fold sequence is the same whatever the bucket count.
fn combine_messages<P: VertexProgram>(
    program: &P,
    messages: Vec<(u64, u64, Vec<u8>)>,
) -> VertexicaResult<Vec<(u64, u64, Vec<u8>)>> {
    let mut folded: FxHashMap<u64, (u64, P::Message)> = FxHashMap::default();
    let mut passthrough: Vec<(u64, u64, Vec<u8>)> = Vec::new();
    for (to, from, bytes) in messages {
        let Some(m) = P::Message::from_bytes(&bytes) else {
            return Err(VertexicaError::Codec("cannot decode message for combine".into()));
        };
        match folded.remove(&to) {
            None => {
                folded.insert(to, (from, m));
            }
            Some((sender, existing)) => match program.combine(&existing, &m) {
                Some(c) => {
                    folded.insert(to, (sender, c));
                }
                None => {
                    passthrough.push((to, sender, existing.to_bytes()));
                    passthrough.push((to, from, m.to_bytes()));
                }
            },
        }
    }
    let mut messages = passthrough;
    for (to, (from, m)) in folded {
        messages.push((to, from, m.to_bytes()));
    }
    Ok(messages)
}

/// One partition's parsed worker output, **pre-scattered into apply
/// buckets** — the per-partition segment builder state.
struct PartitionDelta {
    partition: usize,
    /// Updates scattered by vertex-id hash: `updates[bucket]`.
    updates: Vec<UpdateRows>,
    /// Messages scattered by recipient hash: `messages[bucket]`.
    messages: Vec<MessageRows>,
    agg_partials: AggPartials,
    num_updates: usize,
}

/// Collector for the segment-parallel apply.
///
/// The streaming pipeline calls [`ParallelApply::absorb`] from whichever
/// pool worker finished a partition: the partition's raw output batches are
/// parsed **and scattered into apply buckets right there**, so by the time
/// the last partition lands, the post-barrier work is nothing but per-bucket
/// merges and segment builds (themselves fanned out on the pool). Only the
/// final vector push is serialized behind the mutex.
pub struct ParallelApply {
    agg_specs: FxHashMap<String, AggKind>,
    buckets: usize,
    deltas: Mutex<Vec<PartitionDelta>>,
}

impl ParallelApply {
    /// A collector scattering into `buckets` apply segments, validating
    /// aggregator names against `program`'s specs.
    pub fn for_program<P: VertexProgram>(program: &P, buckets: usize) -> Self {
        ParallelApply {
            agg_specs: program
                .aggregators()
                .into_iter()
                .map(|s| (s.name.to_string(), s.kind))
                .collect(),
            buckets: buckets.max(1),
            deltas: Mutex::new(Vec::new()),
        }
    }

    /// Parses one partition's worker output, scatters it into apply
    /// buckets, and files it under its partition index. Safe to call
    /// concurrently from pool workers; all the parsing and scattering
    /// happens outside the shared lock.
    pub fn absorb(&self, partition: usize, batches: &[RecordBatch]) -> VertexicaResult<()> {
        let (updates, messages, agg_partials) = parse_outputs(batches, &self.agg_specs)?;
        let num_updates = updates.len();
        let mut upd_buckets: Vec<UpdateRows> = (0..self.buckets).map(|_| Vec::new()).collect();
        for u in updates {
            upd_buckets[int_key_partition(u.0, self.buckets)].push(u);
        }
        let mut msg_buckets: Vec<MessageRows> = (0..self.buckets).map(|_| Vec::new()).collect();
        for m in messages {
            msg_buckets[int_key_partition(m.0 as i64, self.buckets)].push(m);
        }
        self.deltas.lock().push(PartitionDelta {
            partition,
            updates: upd_buckets,
            messages: msg_buckets,
            agg_partials,
            num_updates,
        });
        Ok(())
    }
}

/// The segment-parallel apply: scatter per-partition deltas into
/// recipient/vertex-hash buckets, build each bucket's new table segment in
/// parallel on the shared pool, and commit everything with one grouped
/// catalog commit.
///
/// `local_vertices` is the vertex count of *this* session's table — the
/// update-vs-replace ratio's denominator (on a shard, its own slice, not the
/// global count). `extra_commit` receives the superstep's sorted aggregator
/// partials and returns further pre-encoded table groups to ride the same
/// commit: the coordinator's superstep stamp and, on a durable sharded run,
/// the retained message input.
///
/// Determinism rests on three facts: every bucket is sorted before any
/// order-dependent fold (and every recipient lives in exactly one bucket,
/// so per-recipient combine folds see the same sequence at any bucket
/// count); updates are keyed by vertex id, which is unique, so override
/// maps agree; and the worker's canonical total-order input sort makes
/// downstream compute independent of physical table row order.
///
/// Commit protocol: **all** segments and in-place row updates are fully
/// built first; only then does one grouped commit swap the message table,
/// the vertex table (replace arm) or rewrite the changed vertex rows in
/// place (update arm), and the extra groups. On a durable database that is
/// one WAL commit record whichever arm runs, so recovery lands on a
/// superstep boundary. Any error or panic before the commit leaves every
/// table untouched — there is no torn state to clean up (the crash/abort
/// test injects a pool-task panic to prove it).
pub fn apply_parallel<P: VertexProgram>(
    session: &GraphSession,
    program: &P,
    config: &VertexicaConfig,
    apply: ParallelApply,
    local_vertices: u64,
    extra_commit: impl FnOnce(
        &[(String, i64, f64)],
    ) -> VertexicaResult<Vec<(String, Vec<vertexica_storage::Segment>)>>,
) -> VertexicaResult<SuperstepOutcome> {
    let ParallelApply { buckets, deltas, .. } = apply;
    let mut deltas = deltas.into_inner();
    deltas.sort_by_key(|d| d.partition);
    let pool = session.db().runtime().clone();

    // ---- aggregator partials, in their (name, vid) fold order ----
    let mut agg_partials: AggPartials =
        deltas.iter_mut().flat_map(|d| std::mem::take(&mut d.agg_partials)).collect();
    agg_partials.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));

    // ---- update-vs-replace decision (this table's delta size) ----
    let vertex_changes: usize = deltas.iter().map(|d| d.num_updates).sum();
    let change_ratio =
        if local_vertices == 0 { 0.0 } else { vertex_changes as f64 / local_vertices as f64 };
    let replaced = vertex_changes > 0 && change_ratio >= config.replace_threshold;

    // ---- messages: transpose per-partition buckets, build in parallel ----
    // `absorb` already scattered each partition's messages by recipient
    // hash, so this transpose moves whole vectors (O(partitions × buckets)
    // pointer swaps), never individual rows.
    let mut msg_buckets: Vec<Vec<MessageRows>> = (0..buckets).map(|_| Vec::new()).collect();
    for d in &mut deltas {
        for (b, v) in std::mem::take(&mut d.messages).into_iter().enumerate() {
            msg_buckets[b].push(v);
        }
    }
    let use_combiner = config.use_combiner;
    let msg_results: Vec<VertexicaResult<(usize, RecordBatch)>> =
        pool.map_indexed(msg_buckets, |_, parts| {
            let mut bucket: MessageRows = parts.into_iter().flatten().collect();
            // Canonicalizing sort at the segment boundary: partitions land
            // in completion order, so sort before the per-recipient combine
            // folds.
            bucket.sort();
            if use_combiner {
                bucket = combine_messages(program, bucket)?;
            }
            let count = bucket.len();
            Ok((count, message_batch(bucket)?))
        });
    let mut num_messages = 0usize;
    let mut msg_batches = Vec::with_capacity(buckets);
    for r in msg_results {
        let (count, batch) = r?;
        num_messages += count;
        if batch.num_rows() > 0 {
            msg_batches.push(batch);
        }
    }

    // ---- vertices: per-bucket LEFT-JOIN-equivalent merge, in parallel ----
    let mut vertex_batches = Vec::new();
    let mut active_after_replace = 0i64;
    if replaced {
        // Partition the old table's batches on the pool (one task per
        // storage batch), then transpose into per-bucket batch lists. The
        // hash matches `int_key_partition`, so each old row meets its
        // override in the same bucket.
        let old = session.db().scan_table(&session.vertex_table(), None, &[])?;
        let old_parted: Vec<VertexicaResult<Vec<Vec<RecordBatch>>>> =
            pool.map_indexed(old, |_, batch| {
                hash_partition(std::slice::from_ref(&batch), &[0], buckets)
                    .map_err(VertexicaError::from)
            });
        let mut old_buckets: Vec<Vec<RecordBatch>> = (0..buckets).map(|_| Vec::new()).collect();
        for per_batch in old_parted {
            for (b, v) in per_batch?.into_iter().enumerate() {
                old_buckets[b].extend(v);
            }
        }
        let mut upd_buckets: Vec<Vec<UpdateRows>> = (0..buckets).map(|_| Vec::new()).collect();
        for d in &mut deltas {
            for (b, v) in std::mem::take(&mut d.updates).into_iter().enumerate() {
                upd_buckets[b].push(v);
            }
        }
        let work: Vec<(Vec<RecordBatch>, Vec<UpdateRows>)> =
            old_buckets.into_iter().zip(upd_buckets).collect();
        let results: Vec<VertexicaResult<(RecordBatch, i64)>> =
            pool.map_indexed(work, |_, (old_batches, upd_parts)| {
                // Vertex ids are unique across partitions, so inserts never
                // collide.
                let ovr: FxHashMap<i64, (Vec<u8>, bool)> = upd_parts
                    .into_iter()
                    .flatten()
                    .map(|(id, bytes, halted)| (id, (bytes, halted)))
                    .collect();
                let mut rows: Vec<(i64, Value, Value)> = Vec::new();
                for batch in &old_batches {
                    let ids = batch.column(0);
                    for i in 0..batch.num_rows() {
                        let id = ids.value(i).as_int().ok_or_else(|| {
                            VertexicaError::Runtime("vertex row without id".into())
                        })?;
                        match ovr.get(&id) {
                            Some((bytes, halted)) => {
                                rows.push((id, Value::Blob(bytes.clone()), Value::Bool(*halted)))
                            }
                            // LEFT JOIN + COALESCE: untouched rows survive
                            // as-is; updates without an old row are dropped.
                            None => {
                                rows.push((id, batch.column(1).value(i), batch.column(2).value(i)))
                            }
                        }
                    }
                }
                rows.sort_by_key(|r| r.0);
                let mut ids = vertexica_storage::ColumnBuilder::with_capacity(
                    vertexica_storage::DataType::Int,
                    rows.len(),
                );
                let mut values = vertexica_storage::ColumnBuilder::with_capacity(
                    vertexica_storage::DataType::Blob,
                    rows.len(),
                );
                let mut halted = vertexica_storage::ColumnBuilder::with_capacity(
                    vertexica_storage::DataType::Bool,
                    rows.len(),
                );
                let mut active = 0i64;
                for (id, value, halt) in rows {
                    if halt == Value::Bool(false) {
                        active += 1;
                    }
                    ids.push_int(id);
                    values.push(value).map_err(VertexicaError::from)?;
                    halted.push(halt).map_err(VertexicaError::from)?;
                }
                let batch = RecordBatch::new(
                    vertex_schema(),
                    vec![ids.finish(), values.finish(), halted.finish()],
                )
                .map_err(VertexicaError::from)?;
                Ok((batch, active))
            });
        for r in results {
            let (batch, active) = r?;
            active_after_replace += active;
            if batch.num_rows() > 0 {
                vertex_batches.push(batch);
            }
        }
    }

    // ---- commit: build EVERYTHING, then commit it as one group ----
    // Every table's segments and the in-place row updates are fully built
    // before anything changes, and the change itself is a single grouped
    // catalog commit: on a durable database it is one atomic WAL commit
    // record, so crash recovery can never land on a message table at
    // superstep N+1 with the vertex table still at N. The commit call can
    // only fail on shape mismatches that are impossible by construction here
    // (the batches were built against the live schemas above).
    let msg_segments = session.db().encode_segments_for(&session.message_table(), msg_batches)?;
    let mut commit_group = vec![(session.message_table(), msg_segments)];
    let mut row_updates = Vec::new();
    if replaced {
        let segments = session.db().encode_segments_for(&session.vertex_table(), vertex_batches)?;
        commit_group.push((session.vertex_table(), segments));
    } else if vertex_changes > 0 {
        // The *update* arm rewrites only the changed vertex rows (delete +
        // re-insert by rowid): its cost, logged bytes included, stays
        // proportional to the change.
        let mut updates: UpdateRows =
            deltas.iter_mut().flat_map(|d| std::mem::take(&mut d.updates)).flatten().collect();
        updates.sort();
        row_updates.push((session.vertex_table(), in_place_updates(session, &updates)?));
    }
    commit_group.extend(extra_commit(&agg_partials)?);
    session.db().commit_tables_segmented(commit_group, row_updates)?;

    // ---- halting check ----
    // After a replace we counted the active vertices while building the
    // segments (the table *is* what we just wrote), saving a full SQL scan;
    // the in-place path still asks the table.
    let remaining = if replaced {
        active_after_replace
    } else {
        session.db().query_int(&format!(
            "SELECT COUNT(*) FROM {} WHERE halted = FALSE",
            session.vertex_table()
        ))?
    };

    Ok(SuperstepOutcome {
        vertex_changes,
        messages: num_messages,
        replaced,
        all_halted: remaining == 0,
        agg_partials,
        apply_parallelism: buckets,
    })
}

/// The *update* path: maps each changed vertex to its row in the existing
/// vertex table, as `(rowid, new row)` in-place updates for the commit.
fn in_place_updates(
    session: &GraphSession,
    updates: &[(i64, Vec<u8>, bool)],
) -> VertexicaResult<Vec<(u64, Vec<Value>)>> {
    let table = session.db().catalog().get(&session.vertex_table())?;
    let by_id: FxHashMap<i64, (&Vec<u8>, bool)> =
        updates.iter().map(|(id, b, h)| (*id, (b, *h))).collect();
    // Only the id column is needed to find the rows.
    let scans = {
        let guard = table.read();
        guard.scan_with_rowids(Some(&[0]), &[])?
    };
    let mut dml: Vec<(u64, Vec<Value>)> = Vec::with_capacity(updates.len());
    for (batch, rowids) in scans {
        let ids = batch.column(0);
        for (i, &rowid) in rowids.iter().enumerate().take(batch.num_rows()) {
            let id = ids.value(i).as_int().unwrap_or(i64::MIN);
            if let Some((bytes, halted)) = by_id.get(&id) {
                dml.push((
                    rowid,
                    vec![Value::Int(id), Value::Blob((*bytes).clone()), Value::Bool(*halted)],
                ));
            }
        }
    }
    Ok(dml)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::worker_output_schema;
    use std::sync::Arc;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::pregel::{InitContext, VertexContext};
    use vertexica_common::VertexId;
    use vertexica_sql::Database;

    struct Noop;
    impl VertexProgram for Noop {
        type Value = f64;
        type Message = f64;
        fn initial_value(&self, _id: VertexId, _init: &InitContext) -> f64 {
            0.0
        }
        fn compute(&self, _ctx: &mut dyn VertexContext<f64, f64>, _messages: &[f64]) {}
        fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
            Some(a + b)
        }
    }

    fn setup() -> GraphSession {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)])).unwrap();
        // Initialize values so the vertex table is fully formed.
        crate::coordinator::initialize_vertices(&g, &Noop).unwrap();
        g
    }

    fn out_batch(rows: Vec<Vec<Value>>) -> RecordBatch {
        RecordBatch::from_rows(worker_output_schema(), &rows).unwrap()
    }

    fn state_row(vid: i64, v: f64, halted: bool) -> Vec<Value> {
        vec![
            Value::Int(OUT_STATE),
            Value::Int(vid),
            Value::Null,
            Value::Blob(v.to_bytes()),
            Value::Bool(halted),
            Value::Null,
            Value::Null,
        ]
    }

    fn msg_row(to: i64, from: i64, v: f64) -> Vec<Value> {
        vec![
            Value::Int(OUT_MESSAGE),
            Value::Int(to),
            Value::Int(from),
            Value::Blob(v.to_bytes()),
            Value::Null,
            Value::Null,
            Value::Null,
        ]
    }

    #[test]
    fn small_delta_updates_in_place() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_replace_threshold(0.5).with_combiner(false);
        let out = out_batch(vec![state_row(1, 7.5, false)]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out], 4).unwrap();
        assert!(!outcome.replaced);
        assert_eq!(outcome.vertex_changes, 1);
        let vals: Vec<(VertexId, f64)> = g.vertex_values().unwrap();
        assert_eq!(vals[1], (1, 7.5));
        assert_eq!(vals[0], (0, 0.0));
    }

    #[test]
    fn large_delta_replaces_table() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_replace_threshold(0.5).with_combiner(false);
        let out = out_batch(vec![
            state_row(0, 1.0, false),
            state_row(1, 2.0, false),
            state_row(2, 3.0, false),
        ]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out], 4).unwrap();
        assert!(outcome.replaced);
        let vals: Vec<(VertexId, f64)> = g.vertex_values().unwrap();
        assert_eq!(vals.len(), 4);
        assert_eq!(vals[2], (2, 3.0));
        assert_eq!(vals[3], (3, 0.0)); // untouched row preserved by left join
        assert_eq!(g.num_vertices().unwrap(), 4);
    }

    #[test]
    fn messages_replace_the_message_table() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_combiner(false);
        // Pre-existing stale message must vanish.
        let stale = message_batch(vec![(0, 9, 1.0f64.to_bytes())]).unwrap();
        g.db().append_batches(&g.message_table(), &[stale]).unwrap();

        let out = out_batch(vec![msg_row(2, 0, 4.5), msg_row(3, 1, 5.5)]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out], 4).unwrap();
        assert_eq!(outcome.messages, 2);
        let n = g.db().query_int(&format!("SELECT COUNT(*) FROM {}", g.message_table())).unwrap();
        assert_eq!(n, 2);
        let stale_left = g
            .db()
            .query_int(&format!("SELECT COUNT(*) FROM {} WHERE sender = 9", g.message_table()))
            .unwrap();
        assert_eq!(stale_left, 0);
    }

    #[test]
    fn combiner_folds_across_partitions() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_combiner(true);
        // Two partitions each sent a partial to vertex 2.
        let out1 = out_batch(vec![msg_row(2, 0, 1.0)]);
        let out2 = out_batch(vec![msg_row(2, 1, 2.0)]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out1, out2], 4).unwrap();
        assert_eq!(outcome.messages, 1);
        let rows = g.db().query(&format!("SELECT value FROM {}", g.message_table())).unwrap();
        assert_eq!(rows[0][0], Value::Blob(3.0f64.to_bytes()));
    }

    #[test]
    fn all_halted_detection() {
        let g = setup();
        let cfg = VertexicaConfig::default().with_replace_threshold(0.0);
        let out = out_batch(vec![
            state_row(0, 0.0, true),
            state_row(1, 0.0, true),
            state_row(2, 0.0, true),
            state_row(3, 0.0, true),
        ]);
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![out], 4).unwrap();
        assert!(outcome.all_halted);
        assert!(outcome.replaced); // threshold 0 forces replace
    }

    #[test]
    fn empty_outputs_are_fine() {
        let g = setup();
        let cfg = VertexicaConfig::default();
        let outcome = apply_outputs(&g, &Noop, &cfg, vec![], 4).unwrap();
        assert_eq!(outcome.vertex_changes, 0);
        assert_eq!(outcome.messages, 0);
        assert!(!outcome.replaced);
    }
}

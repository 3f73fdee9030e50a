//! The worker: a transform UDF that executes the vertex compute function.
//!
//! "The worker is the container for the vertex-compute function … workers run
//! as database UDFs and typically there are as many parallel workers as the
//! number of cores" (§2.2). Each worker receives one hash partition of the
//! table union, sorts it by vertex id (vertex batching, §2.3), reconstructs
//! each vertex's value/edges/messages, runs `compute`, and emits new vertex
//! states, outgoing messages and aggregator contributions as rows.

use std::sync::Arc;

use vertexica_common::graph::{Edge, VertexId};
use vertexica_common::hash::FxHashMap;
use vertexica_common::pregel::{AggKind, VertexContext, VertexProgram};
use vertexica_common::runtime::WorkerPool;
use vertexica_common::VertexData;
use vertexica_sql::{SqlError, SqlResult, TransformUdf};
use vertexica_storage::{ColumnBuilder, DataType, Field, RecordBatch, Schema, Value};

use crate::input::{KIND_EDGE, KIND_MESSAGE, KIND_VERTEX};

/// Partitions at or above this row count sort their canonical input order
/// on the pool (chunk sorts in parallel + pairwise merges) instead of on
/// the worker alone. The worker itself runs *on* a pool thread, so this is
/// a nested scope — the runtime's help-first barrier makes it safe at any
/// pool size.
pub const PARALLEL_SORT_MIN_ROWS: usize = 4096;

/// Output-row kinds emitted by workers.
pub const OUT_STATE: i64 = 0;
pub const OUT_MESSAGE: i64 = 1;
pub const OUT_AGGREGATE: i64 = 2;

/// Worker output schema:
/// * state rows: `(0, vid, NULL, payload=new value, halted, NULL, NULL)`
/// * message rows: `(1, recipient, sender, payload, NULL, NULL, NULL)`
/// * aggregate rows: `(2, vid, NULL, NULL, NULL, name, value)` — one partial
///   per contributing vertex, so the apply-side fold order (by name, then
///   vid) is independent of partitioning and sharding
pub fn worker_output_schema() -> Arc<Schema> {
    Schema::new(vec![
        Field::not_null("kind", DataType::Int),
        Field::new("vid", DataType::Int),
        Field::new("other", DataType::Int),
        Field::new("payload", DataType::Blob),
        Field::new("halted", DataType::Bool),
        Field::new("agg_name", DataType::Str),
        Field::new("agg_value", DataType::Float),
    ])
}

/// The per-superstep worker UDF. Created fresh by the coordinator for every
/// superstep with that superstep's globals baked in.
pub struct VertexWorker<P: VertexProgram> {
    pub program: Arc<P>,
    pub superstep: u64,
    pub num_vertices: u64,
    /// Aggregator values from the previous superstep.
    pub prev_aggregates: Arc<FxHashMap<String, f64>>,
    /// Pre-combine messages per recipient within the partition.
    pub use_combiner: bool,
    /// The shared runtime pool, for sorting big partitions with nested
    /// parallelism (`None`: always sort on the calling thread).
    pub pool: Option<Arc<WorkerPool>>,
}

/// The `VertexContext` handed to user compute functions.
struct WorkerCtx<'a, P: VertexProgram> {
    id: VertexId,
    superstep: u64,
    num_vertices: u64,
    value: P::Value,
    edges: &'a [Edge],
    sent: Vec<(VertexId, P::Message)>,
    voted_halt: bool,
    agg_out: Vec<(String, f64)>,
    prev_aggregates: &'a FxHashMap<String, f64>,
}

impl<'a, P: VertexProgram> VertexContext<P::Value, P::Message> for WorkerCtx<'a, P> {
    fn vertex_id(&self) -> VertexId {
        self.id
    }

    fn superstep(&self) -> u64 {
        self.superstep
    }

    fn num_vertices(&self) -> u64 {
        self.num_vertices
    }

    fn value(&self) -> &P::Value {
        &self.value
    }

    fn set_value(&mut self, value: P::Value) {
        self.value = value;
    }

    fn out_edges(&self) -> &[Edge] {
        self.edges
    }

    fn send_message(&mut self, to: VertexId, msg: P::Message) {
        self.sent.push((to, msg));
    }

    fn vote_to_halt(&mut self) {
        self.voted_halt = true;
    }

    fn aggregate(&mut self, name: &str, value: f64) {
        self.agg_out.push((name.to_string(), value));
    }

    fn read_aggregate(&self, name: &str) -> Option<f64> {
        self.prev_aggregates.get(name).copied()
    }
}

/// Merges two runs sorted under `cmp` into one. Ties take from `a` first;
/// tying rows are byte-identical under the total order, so merge order
/// cannot change compute.
fn merge_runs(
    a: Vec<usize>,
    b: Vec<usize>,
    cmp: &impl Fn(usize, usize) -> std::cmp::Ordering,
) -> Vec<usize> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut ai, mut bi) = (0, 0);
    while ai < a.len() && bi < b.len() {
        if cmp(a[ai], b[bi]).is_le() {
            out.push(a[ai]);
            ai += 1;
        } else {
            out.push(b[bi]);
            bi += 1;
        }
    }
    out.extend_from_slice(&a[ai..]);
    out.extend_from_slice(&b[bi..]);
    out
}

impl<P: VertexProgram> VertexWorker<P> {
    fn decode_value(bytes: &[u8]) -> SqlResult<P::Value> {
        P::Value::from_bytes(bytes)
            .ok_or_else(|| SqlError::Udf("cannot decode vertex value".into()))
    }

    fn decode_message(bytes: &[u8]) -> SqlResult<P::Message> {
        P::Message::from_bytes(bytes)
            .ok_or_else(|| SqlError::Udf("cannot decode message value".into()))
    }
}

impl<P: VertexProgram> TransformUdf for VertexWorker<P> {
    fn name(&self) -> &str {
        "vertex_worker"
    }

    fn output_schema(&self, _input: &Schema) -> SqlResult<Arc<Schema>> {
        Ok(worker_output_schema())
    }

    fn execute(&self, partition: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
        // Merge the partition and sort row indices by (vid, kind): the
        // paper's per-partition sort on vertex id, with the vertex tuple
        // leading its edges and messages.
        let schema = partition
            .first()
            .map(|b| b.schema().clone())
            .unwrap_or_else(crate::input::union_schema);
        let merged = RecordBatch::concat(schema, &partition)?;
        let n = merged.num_rows();
        let vid_col = merged.column(0);
        let kind_col = merged.column(1);
        let other_col = merged.column(2);
        let weight_col = merged.column(3);
        let payload_col = merged.column(4);
        let halted_col = merged.column(5);

        let vids =
            vid_col.as_int().ok_or_else(|| SqlError::Udf("vid column must be BIGINT".into()))?;
        let kinds =
            kind_col.as_int().ok_or_else(|| SqlError::Udf("kind column must be BIGINT".into()))?;

        // Canonical **total** order: (vid, kind) first — the paper's
        // per-partition sort — then every remaining column as a tiebreak.
        // A mere (vid, kind) key leaves ties (a vertex's edges, its
        // messages) in input order, which silently couples compute to the
        // physical row order of the underlying tables; the segment-parallel
        // apply writes those tables bucket-major, so the order follows the
        // worker count. With a total order, any two runs that agree on
        // partition *contents* produce bitwise-identical compute — which the
        // determinism matrix in the equivalence harness asserts. Rows tying on
        // every column are interchangeable, so `sort_unstable` (and any
        // run-merge order in the parallel sort) is safe.
        let tiebreak_cols = [other_col, weight_col, payload_col, halted_col];
        let cmp = |a: usize, b: usize| {
            (vids[a], kinds[a]).cmp(&(vids[b], kinds[b])).then_with(|| {
                for col in tiebreak_cols {
                    let ord = col.value(a).total_cmp(&col.value(b));
                    if !ord.is_eq() {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            })
        };
        let mut order: Vec<usize> = (0..n).collect();
        let lanes = self.pool.as_ref().map_or(1, |p| p.size());
        if n >= PARALLEL_SORT_MIN_ROWS && lanes > 1 {
            // Big partition: sort contiguous runs as pool tasks — a nested
            // scope when this worker itself runs on the pool — then merge.
            let pool = self.pool.as_ref().expect("lanes > 1 implies a pool");
            let run_len = n.div_ceil(lanes);
            pool.scope(|s| {
                for run in order.chunks_mut(run_len) {
                    let cmp = &cmp;
                    s.spawn(move || run.sort_unstable_by(|&a, &b| cmp(a, b)));
                }
            });
            let mut runs: Vec<Vec<usize>> = order.chunks(run_len).map(<[usize]>::to_vec).collect();
            while runs.len() > 1 {
                let mut next = Vec::with_capacity(runs.len().div_ceil(2));
                let mut it = runs.into_iter();
                while let Some(a) = it.next() {
                    match it.next() {
                        Some(b) => next.push(merge_runs(a, b, &cmp)),
                        None => next.push(a),
                    }
                }
                runs = next;
            }
            order = runs.pop().unwrap_or_default();
        } else {
            order.sort_unstable_by(|&a, &b| cmp(a, b));
        }

        // Outputs.
        let mut state_rows: Vec<(VertexId, Vec<u8>, bool)> = Vec::new();
        let mut messages: Vec<(VertexId, VertexId, Vec<u8>)> = Vec::new();
        let mut combined: FxHashMap<VertexId, (VertexId, P::Message)> = FxHashMap::default();
        let mut agg_partials: Vec<(VertexId, String, f64)> = Vec::new();
        let agg_specs: FxHashMap<String, AggKind> =
            self.program.aggregators().into_iter().map(|s| (s.name.to_string(), s.kind)).collect();

        // Walk vertex groups.
        let mut i = 0usize;
        while i < n {
            let vid = vids[order[i]] as VertexId;
            let mut j = i;
            let mut vertex_row: Option<usize> = None;
            let mut edges: Vec<Edge> = Vec::new();
            let mut msgs: Vec<P::Message> = Vec::new();
            while j < n && vids[order[j]] as VertexId == vid {
                let row = order[j];
                match kinds[row] {
                    KIND_VERTEX => vertex_row = Some(row),
                    KIND_EDGE => {
                        let dst = other_col.value(row).as_int().unwrap_or(0) as VertexId;
                        let w = weight_col.value(row).as_float().unwrap_or(1.0);
                        edges.push(Edge::weighted(vid, dst, w));
                    }
                    KIND_MESSAGE => {
                        let bytes = match payload_col.value(row) {
                            Value::Blob(b) => b,
                            _ => return Err(SqlError::Udf("message payload not a blob".into())),
                        };
                        msgs.push(Self::decode_message(&bytes)?);
                    }
                    other => {
                        return Err(SqlError::Udf(format!("unknown tuple kind {other}")));
                    }
                }
                j += 1;
            }
            i = j;

            // Messages addressed to a vertex that doesn't exist are dropped
            // (consistent with Pregel's default resolver-less behaviour).
            let Some(vrow) = vertex_row else { continue };

            let old_halted = halted_col.value(vrow).as_bool().unwrap_or(false);
            let active = self.superstep == 0 || !old_halted || !msgs.is_empty();
            if !active {
                continue;
            }
            let old_bytes = match payload_col.value(vrow) {
                Value::Blob(b) => b,
                Value::Null => {
                    return Err(SqlError::Udf(format!("vertex {vid} has no initialized value")))
                }
                _ => return Err(SqlError::Udf("vertex payload not a blob".into())),
            };
            let value = Self::decode_value(&old_bytes)?;

            let mut ctx: WorkerCtx<'_, P> = WorkerCtx {
                id: vid,
                superstep: self.superstep,
                num_vertices: self.num_vertices,
                value,
                edges: &edges,
                sent: Vec::new(),
                voted_halt: false,
                agg_out: Vec::new(),
                prev_aggregates: &self.prev_aggregates,
            };
            self.program.compute(&mut ctx, &msgs);

            // Vertex state delta.
            let new_bytes = ctx.value.to_bytes();
            let new_halted = ctx.voted_halt;
            if new_bytes != old_bytes || new_halted != old_halted {
                state_rows.push((vid, new_bytes, new_halted));
            }

            // Outgoing messages (optionally pre-combined per recipient).
            for (to, m) in ctx.sent {
                if self.use_combiner {
                    match combined.remove(&to) {
                        None => {
                            combined.insert(to, (vid, m));
                        }
                        Some((sender, existing)) => {
                            match self.program.combine(&existing, &m) {
                                Some(folded) => {
                                    combined.insert(to, (sender, folded));
                                }
                                None => {
                                    // No combiner: flush both as plain rows.
                                    messages.push((to, sender, existing.to_bytes()));
                                    messages.push((to, vid, m.to_bytes()));
                                }
                            }
                        }
                    }
                } else {
                    messages.push((to, vid, m.to_bytes()));
                }
            }

            // Aggregator contributions fold **per vertex** (multiple calls by
            // the same vertex fold in call order) and emit one partial row per
            // (vertex, name). Per-vertex granularity is what keeps f64
            // aggregates invariant to partition and shard membership: the
            // apply stage folds all partials in (name, vid) order, which is
            // the same total order however the vertices were scattered.
            let mut per_vertex: Vec<(String, f64)> = Vec::new();
            for (name, v) in ctx.agg_out {
                let Some(kind) = agg_specs.get(&name).copied() else {
                    return Err(SqlError::Udf(format!("unknown aggregator {name}")));
                };
                match per_vertex.iter_mut().find(|(n, _)| *n == name) {
                    Some(entry) => entry.1 = kind.combine(entry.1, v),
                    None => per_vertex.push((name, kind.combine(kind.identity(), v))),
                }
            }
            for (name, v) in per_vertex {
                agg_partials.push((vid, name, v));
            }
        }
        for (to, (sender, m)) in combined {
            messages.push((to, sender, m.to_bytes()));
        }

        // Materialize the output batch.
        let out_schema = worker_output_schema();
        let total = state_rows.len() + messages.len() + agg_partials.len();
        let mut kind_b = ColumnBuilder::with_capacity(DataType::Int, total);
        let mut vid_b = ColumnBuilder::with_capacity(DataType::Int, total);
        let mut other_b = ColumnBuilder::with_capacity(DataType::Int, total);
        let mut payload_b = ColumnBuilder::with_capacity(DataType::Blob, total);
        let mut halted_b = ColumnBuilder::with_capacity(DataType::Bool, total);
        let mut name_b = ColumnBuilder::with_capacity(DataType::Str, total);
        let mut value_b = ColumnBuilder::with_capacity(DataType::Float, total);

        for (vid, bytes, halted) in state_rows {
            kind_b.push_int(OUT_STATE);
            vid_b.push_int(vid as i64);
            other_b.push_null();
            payload_b.push(Value::Blob(bytes))?;
            halted_b.push(Value::Bool(halted))?;
            name_b.push_null();
            value_b.push_null();
        }
        for (to, from, bytes) in messages {
            kind_b.push_int(OUT_MESSAGE);
            vid_b.push_int(to as i64);
            other_b.push_int(from as i64);
            payload_b.push(Value::Blob(bytes))?;
            halted_b.push_null();
            name_b.push_null();
            value_b.push_null();
        }
        for (vid, name, v) in agg_partials {
            kind_b.push_int(OUT_AGGREGATE);
            vid_b.push_int(vid as i64);
            other_b.push_null();
            payload_b.push_null();
            halted_b.push_null();
            name_b.push(Value::Str(name))?;
            value_b.push_float(v);
        }

        let batch = RecordBatch::new(
            out_schema,
            vec![
                kind_b.finish(),
                vid_b.finish(),
                other_b.finish(),
                payload_b.finish(),
                halted_b.finish(),
                name_b.finish(),
                value_b.finish(),
            ],
        )?;
        Ok(vec![batch])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::union_schema;
    use vertexica_common::pregel::{AggregatorSpec, InitContext, VertexContextExt};

    /// Echo program: forwards the max of (value, messages) to all neighbours
    /// and halts when nothing grew — a miniature of HashMax connectivity.
    struct MaxProp;

    impl VertexProgram for MaxProp {
        type Value = f64;
        type Message = f64;

        fn initial_value(&self, id: VertexId, _init: &InitContext) -> f64 {
            id as f64
        }

        fn compute(&self, ctx: &mut dyn VertexContext<f64, f64>, messages: &[f64]) {
            let best = messages.iter().copied().fold(*ctx.value(), f64::max);
            ctx.aggregate("touched", 1.0);
            if best > *ctx.value() || ctx.superstep() == 0 {
                ctx.set_value(best);
                ctx.send_to_all_neighbors(best);
            }
            ctx.vote_to_halt();
        }

        fn combine(&self, a: &f64, b: &f64) -> Option<f64> {
            Some(a.max(*b))
        }

        fn aggregators(&self) -> Vec<AggregatorSpec> {
            vec![AggregatorSpec { name: "touched", kind: AggKind::Sum }]
        }
    }

    /// Builds a union-schema batch for: vertex rows with f64 values, edges,
    /// messages of f64.
    fn build_input(
        vertices: &[(u64, f64, bool)],
        edges: &[(u64, u64)],
        msgs: &[(u64, u64, f64)],
    ) -> RecordBatch {
        let mut rows = Vec::new();
        for (id, v, halted) in vertices {
            rows.push(vec![
                Value::Int(*id as i64),
                Value::Int(KIND_VERTEX),
                Value::Null,
                Value::Null,
                Value::Blob(v.to_bytes()),
                Value::Bool(*halted),
            ]);
        }
        for (s, d) in edges {
            rows.push(vec![
                Value::Int(*s as i64),
                Value::Int(KIND_EDGE),
                Value::Int(*d as i64),
                Value::Float(1.0),
                Value::Null,
                Value::Null,
            ]);
        }
        for (to, from, m) in msgs {
            rows.push(vec![
                Value::Int(*to as i64),
                Value::Int(KIND_MESSAGE),
                Value::Int(*from as i64),
                Value::Null,
                Value::Blob(m.to_bytes()),
                Value::Null,
            ]);
        }
        RecordBatch::from_rows(union_schema(), &rows).unwrap()
    }

    fn worker(superstep: u64, combiner: bool) -> VertexWorker<MaxProp> {
        VertexWorker {
            program: Arc::new(MaxProp),
            superstep,
            num_vertices: 3,
            prev_aggregates: Arc::new(FxHashMap::default()),
            use_combiner: combiner,
            pool: None,
        }
    }

    fn rows_of_kind(out: &[RecordBatch], kind: i64) -> Vec<Vec<Value>> {
        out.iter()
            .flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i)))
            .filter(|r| r[0] == Value::Int(kind))
            .collect()
    }

    #[test]
    fn superstep_zero_activates_everyone() {
        let input = build_input(
            &[(0, 0.0, false), (1, 1.0, false), (2, 2.0, false)],
            &[(0, 1), (1, 2)],
            &[],
        );
        let out = worker(0, false).execute(vec![input]).unwrap();
        // Every vertex emits a state row (it halted, at minimum).
        assert_eq!(rows_of_kind(&out, OUT_STATE).len(), 3);
        // Vertices 0 and 1 send to their neighbour; 2 has no edges.
        assert_eq!(rows_of_kind(&out, OUT_MESSAGE).len(), 2);
        // One aggregate partial row per contributing vertex.
        let mut aggs = rows_of_kind(&out, OUT_AGGREGATE);
        aggs.sort_by_key(|r| r[1].as_int());
        assert_eq!(aggs.len(), 3);
        for (i, row) in aggs.iter().enumerate() {
            assert_eq!(row[1], Value::Int(i as i64), "partials are tagged with their vertex");
            assert_eq!(row[6], Value::Float(1.0));
        }
    }

    #[test]
    fn halted_vertices_without_messages_skip() {
        let input = build_input(&[(0, 0.0, true), (1, 1.0, true)], &[(0, 1)], &[]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        assert!(rows_of_kind(&out, OUT_STATE).is_empty());
        assert!(rows_of_kind(&out, OUT_MESSAGE).is_empty());
    }

    #[test]
    fn message_reactivates_halted_vertex() {
        let input = build_input(&[(1, 1.0, true)], &[(1, 0)], &[(1, 0, 9.0)]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        let states = rows_of_kind(&out, OUT_STATE);
        assert_eq!(states.len(), 1);
        // New value is 9.0.
        assert_eq!(states[0][3], Value::Blob(9.0f64.to_bytes()));
        // And it propagated.
        assert_eq!(rows_of_kind(&out, OUT_MESSAGE).len(), 1);
    }

    #[test]
    fn unchanged_vertex_emits_no_state_row() {
        // Vertex already halted=false... superstep 1, has a message smaller
        // than its value, so value doesn't change — but it votes halt, which
        // *is* a state change. Pre-halt it so the vote matches the old state:
        let input = build_input(&[(1, 5.0, true)], &[], &[(1, 0, 1.0)]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        // Message is smaller: value unchanged; votes halt → halted stays
        // true → no state row at all.
        assert!(rows_of_kind(&out, OUT_STATE).is_empty());
    }

    #[test]
    fn combiner_folds_messages() {
        // Two vertices both send to vertex 2; with combiner only one message
        // row survives carrying the max.
        let input = build_input(
            &[(0, 10.0, false), (1, 20.0, false), (2, 0.0, false)],
            &[(0, 2), (1, 2)],
            &[],
        );
        let out = worker(0, true).execute(vec![input]).unwrap();
        let msgs = rows_of_kind(&out, OUT_MESSAGE);
        assert_eq!(msgs.len(), 1);
        assert_eq!(msgs[0][3], Value::Blob(20.0f64.to_bytes()));
    }

    #[test]
    fn message_to_missing_vertex_dropped() {
        let input = build_input(&[(0, 0.0, false)], &[], &[(99, 0, 1.0)]);
        let out = worker(1, false).execute(vec![input]).unwrap();
        // No crash; only vertex 0's state.
        assert!(rows_of_kind(&out, OUT_STATE).len() <= 1);
    }

    #[test]
    fn parallel_sort_is_bitwise_identical_to_serial() {
        // A partition big enough to cross PARALLEL_SORT_MIN_ROWS, with
        // deliberately shuffled rows: the pooled sort path must produce
        // byte-identical output batches to the pool-less worker — and, when
        // invoked from inside a pool task (as the engine does), must
        // register as a *nested* scope.
        let n_vertices = PARALLEL_SORT_MIN_ROWS / 2;
        let vertices: Vec<(u64, f64, bool)> =
            (0..n_vertices as u64).map(|i| (i, (i % 97) as f64, false)).collect();
        let edges: Vec<(u64, u64)> =
            (0..n_vertices as u64).map(|i| (i, (i * 31 + 7) % n_vertices as u64)).collect();
        let msgs: Vec<(u64, u64, f64)> = (0..n_vertices as u64)
            .map(|i| (i, (i + 1) % n_vertices as u64, (i % 13) as f64))
            .collect();
        let mut input = build_input(&vertices, &edges, &msgs);
        // Shuffle rows deterministically so the sort has real work.
        let rows = input.num_rows();
        let perm: Vec<usize> = (0..rows).map(|i| (i * 7919) % rows).collect();
        // 7919 is prime and rows isn't a multiple of it ⇒ perm is a bijection.
        assert_eq!(perm.iter().collect::<std::collections::HashSet<_>>().len(), rows);
        input = input.take(&perm).unwrap();
        assert!(input.num_rows() >= PARALLEL_SORT_MIN_ROWS);

        let serial = worker(1, true).execute(vec![input.clone()]).unwrap();

        let pool = Arc::new(WorkerPool::new(4));
        let mut pooled_worker = worker(1, true);
        pooled_worker.pool = Some(pool.clone());
        let before = pool.metrics();
        // Run the worker the way the engine does: as a pool task.
        let result: vertexica_common::sync::Mutex<Option<SqlResult<Vec<RecordBatch>>>> =
            vertexica_common::sync::Mutex::new(None);
        pool.scope(|s| {
            let result = &result;
            let pooled_worker = &pooled_worker;
            let input = input.clone();
            s.spawn(move || {
                *result.lock() = Some(pooled_worker.execute(vec![input]));
            });
        });
        let pooled = result.into_inner().unwrap().unwrap();
        let delta = pool.metrics().delta_since(&before);
        assert!(delta.nested_scopes >= 1, "pooled sort from a worker must nest: {delta:?}");

        let rows_of = |out: &[RecordBatch]| -> Vec<Vec<Value>> {
            out.iter().flat_map(|b| (0..b.num_rows()).map(move |i| b.row(i))).collect()
        };
        assert_eq!(rows_of(&serial), rows_of(&pooled));
    }

    #[test]
    fn corrupt_payload_is_an_error() {
        let rows = vec![vec![
            Value::Int(0),
            Value::Int(KIND_VERTEX),
            Value::Null,
            Value::Null,
            Value::Blob(vec![1, 2, 3]), // not a valid f64
            Value::Bool(false),
        ]];
        let input = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        assert!(worker(0, false).execute(vec![input]).is_err());
    }

    #[test]
    fn uninitialized_vertex_value_is_an_error() {
        let rows = vec![vec![
            Value::Int(0),
            Value::Int(KIND_VERTEX),
            Value::Null,
            Value::Null,
            Value::Null,
            Value::Bool(false),
        ]];
        let input = RecordBatch::from_rows(union_schema(), &rows).unwrap();
        assert!(worker(0, false).execute(vec![input]).is_err());
    }
}

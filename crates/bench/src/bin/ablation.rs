//! Ablation benchmarks for the four §2.3 optimizations.
//!
//! ```text
//! cargo run -p vertexica-bench --release --bin ablation -- \
//!     [--exp union-vs-join|worker-scaling|batching|update-vs-replace|expr|wal|evict|shard|all]
//! ```

use std::sync::Arc;

use vertexica::{run_program, InputMode, VertexicaConfig};
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_bench::{figure2_dataset, fresh_session, HarnessConfig};
use vertexica_common::timer::Stopwatch;
use vertexica_sql::ast::BinaryOp;
use vertexica_sql::expr::PhysExpr;
use vertexica_sql::Database;
use vertexica_storage::{DataType, Field, RecordBatch, Schema, Value, BLOCK_ROWS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let exp = args
        .iter()
        .position(|a| a == "--exp")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
        .unwrap_or("all")
        .to_string();

    let cfg = HarnessConfig::from_env();
    // Ablations use the small (Twitter-profile) dataset so every variant —
    // including the deliberately slow ones — completes.
    let graph = figure2_dataset("twitter", &cfg);
    println!(
        "# Ablations on twitter profile at scale {}: {} nodes, {} edges\n",
        cfg.scale,
        graph.num_vertices,
        graph.num_edges()
    );

    if exp == "union-vs-join" || exp == "all" {
        println!("## §2.3 Table Unions: input assembly strategy (PageRank)");
        for (label, mode) in
            [("table-union", InputMode::TableUnion), ("3-way-join", InputMode::ThreeWayJoin)]
        {
            let session = fresh_session(&graph);
            let config = VertexicaConfig::default().with_input_mode(mode);
            let sw = Stopwatch::start();
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
            println!("{label:<14} {:.3}s", sw.elapsed_secs());
        }
        println!();
    }

    if exp == "worker-scaling" || exp == "all" {
        println!("## §2.3 Parallel Workers: worker count (PageRank)");
        for workers in [1usize, 2, 4, 8] {
            let session = fresh_session(&graph);
            let config = VertexicaConfig::default().with_workers(workers);
            let sw = Stopwatch::start();
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
            println!("workers={workers:<3} {:.3}s", sw.elapsed_secs());
        }
        println!();
    }

    if exp == "batching" || exp == "all" {
        println!("## §2.3 Vertex Batching: partition count (PageRank)");
        let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4);
        for partitions in [1, cores, cores * 4, cores * 16, cores * 64] {
            let session = fresh_session(&graph);
            let config = VertexicaConfig::default().with_partitions(partitions);
            let sw = Stopwatch::start();
            run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
            println!("partitions={partitions:<6} {:.3}s", sw.elapsed_secs());
        }
        println!();
    }

    if exp == "expr" || exp == "all" {
        expr_ablation(&cfg);
    }

    if exp == "wal" || exp == "all" {
        wal_ablation(&graph, &cfg);
    }

    if exp == "evict" || exp == "all" {
        evict_ablation(&graph, &cfg);
    }

    if exp == "shard" || exp == "all" {
        shard_ablation(&graph, &cfg);
    }

    if exp == "update-vs-replace" || exp == "all" {
        println!("## §2.3 Update vs Replace: threshold sweep");
        println!("# PageRank touches every vertex each superstep (dense updates);");
        println!("# SSSP touches a shrinking frontier (sparse updates).");
        for (wl, dense) in [("pagerank", true), ("sssp", false)] {
            for threshold in [0.0, 0.2, 0.5, 1.01] {
                let session = fresh_session(&graph);
                let config = VertexicaConfig::default().with_replace_threshold(threshold);
                let sw = Stopwatch::start();
                let stats = if dense {
                    run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap()
                } else {
                    run_program(&session, Arc::new(Sssp::new(0)), &config).unwrap()
                };
                let replaced = stats.per_superstep.iter().filter(|s| s.replaced).count();
                println!(
                    "{wl:<9} threshold={threshold:<5} {:.3}s  (replaced {}/{} supersteps)",
                    sw.elapsed_secs(),
                    replaced,
                    stats.per_superstep.len()
                );
            }
        }
    }
}

fn bin(left: PhysExpr, op: BinaryOp, right: PhysExpr) -> PhysExpr {
    PhysExpr::Binary { left: Box::new(left), op, right: Box::new(right) }
}

/// Durability ablation: the same PageRank run in-memory, write-ahead-logged
/// without fsync, and fully fsynced — isolating what the WAL append, the
/// grouped-commit table flushes, and `fsync` each cost. Writes
/// `BENCH_pr7.json` into the current directory.
fn wal_ablation(graph: &vertexica_common::graph::EdgeList, cfg: &HarnessConfig) {
    println!("## Durability: WAL + grouped-commit flush + fsync (PageRank)");
    println!("# in-memory: the baseline database (no durability);");
    println!("# wal-nosync: every superstep apply rides one atomic WAL commit");
    println!("#   record and flushes the swapped tables' images (OS-cached);");
    println!("# wal-fsync: the same, with fsync before each acknowledgment.");
    let mut lines = Vec::new();
    for (label, durable, sync) in
        [("in-memory", false, false), ("wal-nosync", true, false), ("wal-fsync", true, true)]
    {
        let (session, dir) = if durable {
            std::env::set_var("VERTEXICA_DURABLE_SYNC", if sync { "1" } else { "0" });
            let dir =
                std::env::temp_dir().join(format!("vx_bench_wal_{}_{label}", std::process::id()));
            std::fs::remove_dir_all(&dir).ok();
            let db = Arc::new(Database::open(&dir).expect("open durable bench db"));
            let session = vertexica::GraphSession::create(db, "bench").expect("create session");
            session.load_edges(graph).expect("load edges");
            (session, Some(dir))
        } else {
            (fresh_session(graph), None)
        };
        let config = VertexicaConfig::default();
        let sw = Stopwatch::start();
        let stats = run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
        let secs = sw.elapsed_secs();
        let wal_records: u64 = stats.per_superstep.iter().map(|s| s.wal_records).sum();
        let wal_bytes: u64 = stats.per_superstep.iter().map(|s| s.wal_bytes).sum();
        let flush_bytes: u64 = stats.per_superstep.iter().map(|s| s.flush_bytes).sum();
        let totals = session.db().durability_stats().unwrap_or_default();
        println!(
            "{label:<11} {secs:.3}s  wal-records={wal_records} wal-bytes={wal_bytes}B \
             flush-bytes={flush_bytes}B commits={} checkpoints={} rotations={}",
            totals.commits, totals.checkpoints, totals.rotations
        );
        lines.push(format!(
            "    {{\"label\": \"{label}\", \"secs\": {secs:.6}, \"wal_records\": {wal_records}, \
             \"wal_bytes\": {wal_bytes}, \"flush_bytes\": {flush_bytes}, \
             \"commits\": {}, \"checkpoints\": {}, \"rotations\": {}}}",
            totals.commits, totals.checkpoints, totals.rotations
        ));
        if let Some(dir) = dir {
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"wal\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"workload\": \"pagerank x5 on twitter profile\",\n  \"variants\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        lines.join(",\n")
    );
    std::fs::write("BENCH_pr7.json", &json).expect("write BENCH_pr7.json");
    println!("wrote BENCH_pr7.json");
    println!();
}

/// Out-of-core ablation: the same durable PageRank run with the segment
/// buffer pool unbounded, then squeezed to fractions of the checkpointed
/// footprint — isolating what clock eviction and reload-on-miss cost (and
/// proving the budgeted runs stay at or below their cap while producing the
/// same ranks). Writes `BENCH_pr8.json` into the current directory.
fn evict_ablation(graph: &vertexica_common::graph::EdgeList, cfg: &HarnessConfig) {
    use vertexica::session::edge_schema;
    use vertexica_common::graph::EdgeList;
    use vertexica_storage::ColumnBuilder;

    println!("## Out-of-core: segment buffer pool budget sweep (PageRank, durable)");
    println!("# Edges load in small append batches so the checkpointed graph spans");
    println!("# many ROS segments (the segment is the eviction granule — a budget");
    println!("# only binds if it exceeds the largest pinned segment). Each variant");
    println!("# caps the pool at a fraction of the unbounded footprint; evictions /");
    println!("# reloads are spill-twin round-trips, peak-resident is the per-");
    println!("# superstep high-water mark of pooled bytes.");
    std::env::set_var("VERTEXICA_DURABLE_SYNC", "0");

    // Finely segmented load: vertices via the normal path, then edges in
    // small append batches (one WOS moveout -> one ROS segment each).
    let load = |session: &vertexica::GraphSession| {
        let base = EdgeList::new(graph.num_vertices, vec![]);
        session.load_edges(&base).expect("load vertices");
        for chunk in graph.edges.chunks(512) {
            let mut src = ColumnBuilder::new(DataType::Int);
            let mut dst = ColumnBuilder::new(DataType::Int);
            let mut weight = ColumnBuilder::new(DataType::Float);
            let mut created = ColumnBuilder::new(DataType::Int);
            let mut etype = ColumnBuilder::new(DataType::Str);
            for e in chunk {
                src.push_int(e.src as i64);
                dst.push_int(e.dst as i64);
                weight.push_float(e.weight);
                created.push_int(0);
                etype.push_null();
            }
            let batch = RecordBatch::new(
                edge_schema(),
                vec![src.finish(), dst.finish(), weight.finish(), created.finish(), etype.finish()],
            )
            .expect("edge batch");
            session.db().append_batches(&session.edge_table(), &[batch]).expect("append edges");
        }
    };

    let mut lines = Vec::new();
    let mut footprint = 0usize;
    let mut reference: Option<Vec<(i64, Option<Vec<u8>>)>> = None;
    for (label, fraction) in
        [("unbounded", None), ("budget-1/2", Some(0.5f64)), ("budget-1/4", Some(0.25f64))]
    {
        let dir =
            std::env::temp_dir().join(format!("vx_bench_evict_{}_{label}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let db = Arc::new(Database::open(&dir).expect("open durable bench db"));
        // The measurement load runs unbounded even when the ambient
        // VERTEXICA_MEMORY_BUDGET (the CI out-of-core mode) is set.
        db.catalog().buffer_pool().set_budget(None);
        let session = vertexica::GraphSession::create(db.clone(), "bench").expect("create session");
        load(&session);
        db.checkpoint().expect("checkpoint load");
        if footprint == 0 {
            footprint = db.catalog().buffer_pool().stats().resident_bytes as usize;
        }
        let budget = fraction.map(|f| ((footprint as f64) * f) as usize);
        let config = VertexicaConfig::default().with_memory_budget(budget);
        if budget.is_none() {
            db.catalog().buffer_pool().set_budget(None);
        }
        let sw = Stopwatch::start();
        let stats = run_program(&session, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
        let secs = sw.elapsed_secs();
        let evictions: u64 = stats.per_superstep.iter().map(|s| s.evictions).sum();
        let reloads: u64 = stats.per_superstep.iter().map(|s| s.reloads).sum();
        let peak = stats.per_superstep.iter().map(|s| s.resident_bytes).max().unwrap_or(0);
        let ranks: Vec<(i64, Option<Vec<u8>>)> = {
            let batches =
                session.db().scan_table(&session.vertex_table(), None, &[]).expect("rank scan");
            let mut rows = Vec::new();
            for b in &batches {
                for i in 0..b.num_rows() {
                    let row = b.row(i);
                    rows.push((row[0].as_int().expect("id"), row[1].as_blob().map(|v| v.to_vec())));
                }
            }
            rows.sort();
            rows
        };
        match &reference {
            None => reference = Some(ranks),
            Some(expected) => {
                assert_eq!(&ranks, expected, "{label}: budgeted ranks diverged from unbounded")
            }
        }
        if let Some(b) = budget {
            assert!(evictions > 0, "{label}: a below-footprint budget must force evictions");
            assert!(peak <= b as u64, "{label}: peak residency {peak} exceeds the {b}-byte budget");
        }
        let budget_str = budget.map_or("null".to_string(), |b| b.to_string());
        println!(
            "{label:<11} {secs:.3}s  budget={}B evictions={evictions} reloads={reloads} \
             peak-resident={peak}B",
            budget.map_or("∞".to_string(), |b| b.to_string())
        );
        lines.push(format!(
            "    {{\"label\": \"{label}\", \"secs\": {secs:.6}, \"budget_bytes\": {budget_str}, \
             \"footprint_bytes\": {footprint}, \"evictions\": {evictions}, \
             \"reloads\": {reloads}, \"peak_resident_bytes\": {peak}}}"
        ));
        drop(session);
        drop(db);
        std::fs::remove_dir_all(&dir).ok();
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"evict\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"workload\": \"pagerank x5 on twitter profile, durable, finely segmented edges\",\n  \
         \"variants\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        lines.join(",\n")
    );
    std::fs::write("BENCH_pr8.json", &json).expect("write BENCH_pr8.json");
    println!("wrote BENCH_pr8.json");
    println!();
}

/// Sharded-execution ablation: the same PageRank run on 1, 2 and 4 engine
/// shards — isolating what graph partitioning, outbox routing and
/// prescan-sealed cross-shard dataflow cost (and what they move: remote
/// rows, routed bytes, load skew, early partition seals). On few-core hosts
/// the routing counters — not wall clock — are the experiment; the JSON
/// discloses the core count for exactly that reason. Writes
/// `BENCH_pr9.json` into the current directory.
fn shard_ablation(graph: &vertexica_common::graph::EdgeList, cfg: &HarnessConfig) {
    use vertexica::shard::{run_sharded, ShardedDatabase, ShardedGraphSession};

    println!("## Sharded execution: shard-count sweep (PageRank, in-memory)");
    println!("# Ownership is the engine-wide key hash over vertex id, so vertex");
    println!("# rows, outbound edges and inbound messages are shard-local by");
    println!("# construction — only produced messages route, through lock-free");
    println!("# per-(src,dst) outboxes while both sides still stream. remote-rows /");
    println!("# routed-bytes count that traffic; skew is the max/mean worker-input");
    println!("# ratio across shards; early-dispatches are partitions sealed by the");
    println!("# summed prescan counts before end-of-stream. shards=1 is the plain");
    println!("# single-database engine, byte for byte.");
    // The combiner is pinned off on every variant (the sharded coordinator
    // coerces it off; the 1-shard baseline must run the same fold), so ranks
    // are bitwise-comparable across the sweep.
    let config = VertexicaConfig::default()
        .with_workers(4)
        .with_partitions(16)
        .with_combiner(false)
        .with_replace_threshold(0.0);
    let mut lines = Vec::new();
    let mut reference: Option<Vec<(vertexica_common::VertexId, f64)>> = None;
    for shards in [1usize, 2, 4] {
        let db = ShardedDatabase::new(shards);
        let ss = ShardedGraphSession::create(db, "bench").expect("create sharded session");
        ss.load_edges(graph).expect("load edges");
        let sw = Stopwatch::start();
        let stats = run_sharded(&ss, Arc::new(PageRank::new(5, 0.85)), &config).unwrap();
        let secs = sw.elapsed_secs();
        let remote: u64 = stats.per_superstep.iter().map(|s| s.remote_messages).sum();
        let routed: u64 = stats.per_superstep.iter().map(|s| s.routed_bytes).sum();
        let early: usize = stats.per_superstep.iter().map(|s| s.early_dispatches).sum();
        let skew = stats.per_superstep.iter().map(|s| s.shard_skew).fold(1.0f64, f64::max);
        let ranks: Vec<(vertexica_common::VertexId, f64)> =
            ss.vertex_values().expect("readable ranks");
        match &reference {
            None => reference = Some(ranks),
            Some(expected) => {
                assert_eq!(&ranks, expected, "shards={shards}: ranks diverged from 1-shard")
            }
        }
        println!(
            "shards={shards:<2} {secs:.3}s  remote-rows={remote} routed-bytes={routed}B \
             skew={skew:.3} early-dispatches={early} supersteps={}",
            stats.supersteps
        );
        lines.push(format!(
            "    {{\"shards\": {shards}, \"secs\": {secs:.6}, \"remote_messages\": {remote}, \
             \"routed_bytes\": {routed}, \"shard_skew\": {skew:.4}, \
             \"early_dispatches\": {early}, \"supersteps\": {}}}",
            stats.supersteps
        ));
    }
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"shard\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"workload\": \"pagerank x5 on twitter profile, in-memory, combiner off\",\n  \
         \"note\": \"routing counters are the experiment on few-core hosts; \
         wall-clock deltas are not meaningful at cores={cores}\",\n  \"variants\": [\n{}\n  ]\n}}\n",
        cfg.scale,
        lines.join(",\n")
    );
    std::fs::write("BENCH_pr9.json", &json).expect("write BENCH_pr9.json");
    println!("wrote BENCH_pr9.json");
    println!();
}

/// Vectorized-expression + block-decode ablation: typed slice kernels vs the
/// `Value`-per-row loop on a selective predicate, then per-block zone-map
/// pruning vs a full-segment decode. Writes `BENCH_pr6.json` into the
/// current directory.
fn expr_ablation(cfg: &HarnessConfig) {
    println!("## Expression kernels: vectorized vs row-at-a-time predicate eval");
    println!("# Same predicate tree, same batches; the only difference is the");
    println!("# entry point: `eval` (kernels, per-node row fallback) vs");
    println!("# `eval_row_at_a_time` (row loop at every node). Both are");
    println!("# bitwise-identical (a property test proves it), so the delta is");
    println!("# pure evaluation cost.");

    // A selective filter over a mixed Int/Float batch, with enough operator
    // nodes that per-row dispatch overhead dominates the row path:
    //   (a * 2 + k % 97 < 1000 AND b * 0.5 < t) OR a IS NULL
    let eval_rows: usize = 65_536;
    let eval_iters: usize = (40.0 * (cfg.scale / 0.01).clamp(0.05, 4.0)) as usize;
    let schema = Schema::new(vec![
        Field::new("a", DataType::Int),
        Field::not_null("b", DataType::Float),
        Field::not_null("k", DataType::Int),
    ]);
    let rows: Vec<Vec<Value>> = (0..eval_rows)
        .map(|i| {
            let a = if i % 97 == 0 { Value::Null } else { Value::Int((i % 1000) as i64) };
            vec![a, Value::Float(i as f64 * 0.25), Value::Int(i as i64)]
        })
        .collect();
    let batch = RecordBatch::from_rows(schema, &rows).expect("bench batch");
    let predicate = bin(
        bin(
            bin(
                bin(
                    bin(PhysExpr::col(0), BinaryOp::Multiply, PhysExpr::lit(2i64)),
                    BinaryOp::Plus,
                    bin(PhysExpr::col(2), BinaryOp::Modulo, PhysExpr::lit(97i64)),
                ),
                BinaryOp::Lt,
                PhysExpr::lit(1000i64),
            ),
            BinaryOp::And,
            bin(
                bin(PhysExpr::col(1), BinaryOp::Multiply, PhysExpr::lit(0.5f64)),
                BinaryOp::Lt,
                PhysExpr::lit(7000.0f64),
            ),
        ),
        BinaryOp::Or,
        PhysExpr::IsNull { expr: Box::new(PhysExpr::col(0)), negated: false },
    );
    let mut timings = [0.0f64; 2];
    for (slot, vectorized) in [(0usize, true), (1usize, false)] {
        let sw = Stopwatch::start();
        let mut selected = 0u64;
        for _ in 0..eval_iters.max(1) {
            let col = if vectorized {
                predicate.eval(&batch)
            } else {
                predicate.eval_row_at_a_time(&batch)
            };
            let col = col.expect("predicate eval");
            let (data, valid) = (col.as_bool().expect("boolean predicate"), col.validity());
            selected += (0..data.len())
                .filter(|&i| data[i] && valid.is_none_or(|v| v.get(i)))
                .count() as u64;
        }
        timings[slot] = sw.elapsed_secs();
        std::hint::black_box(selected);
    }
    let (vec_secs, row_secs) = (timings[0], timings[1]);
    let speedup = row_secs.max(1e-12) / vec_secs.max(1e-12);
    println!(
        "rows={eval_rows} iters={} vectorized={vec_secs:.3}s row-at-a-time={row_secs:.3}s \
         speedup×{speedup:.2}",
        eval_iters.max(1)
    );

    println!();
    println!("## Block-granular decode: zone-map pruning inside one segment");
    println!("# A point-range query over a sorted key only decodes the blocks");
    println!("# whose [min,max] overlap the predicate; the full scan decodes");
    println!("# every block. bytes-decoded counts post-prune decode work.");
    let db = Database::new();
    db.execute("CREATE TABLE zb (k BIGINT NOT NULL, v BIGINT NOT NULL)").expect("create");
    let zb_schema = db.catalog().get("zb").expect("zb").read().schema().clone();
    let blocks_total: usize = 16;
    let n = BLOCK_ROWS * blocks_total;
    let zb_rows: Vec<Vec<Value>> =
        (0..n).map(|i| vec![Value::Int(i as i64), Value::Int((i * 3 % 1001) as i64)]).collect();
    let zb_batch = RecordBatch::from_rows(zb_schema, &zb_rows).expect("zb batch");
    db.replace_table_segmented("zb", vec![zb_batch]).expect("load zb");
    let handle = db.catalog().get("zb").expect("zb");
    let counters = || {
        let t = handle.read();
        (t.blocks_pruned(), t.bytes_decoded())
    };
    let (p0, d0) = counters();
    let lo = (BLOCK_ROWS * 7) as i64;
    let hi = lo + 99;
    let selective =
        db.query_int(&format!("SELECT SUM(v) FROM zb WHERE k >= {lo} AND k <= {hi}")).expect("sum");
    let (p1, d1) = counters();
    let full = db.query_int("SELECT SUM(v) FROM zb WHERE k >= 0").expect("full sum");
    let (_, d2) = counters();
    let pruned = p1 - p0;
    let (sel_bytes, full_bytes) = (d1 - d0, d2 - d1);
    println!(
        "blocks={blocks_total} pruned={pruned} selective-bytes={sel_bytes}B \
         full-scan-bytes={full_bytes}B (selective sum={selective}, full sum={full})"
    );
    assert!(pruned > 0, "selective scan should prune blocks");
    assert!(sel_bytes < full_bytes, "partial decode should beat the full-segment path");

    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1);
    let json = format!(
        "{{\n  \"experiment\": \"expr\",\n  \"cores\": {cores},\n  \"scale\": {},\n  \
         \"eval_rows\": {eval_rows},\n  \"eval_iters\": {},\n  \
         \"vectorized_secs\": {vec_secs:.6},\n  \"row_secs\": {row_secs:.6},\n  \
         \"speedup\": {speedup:.3},\n  \"blocks_total\": {blocks_total},\n  \
         \"blocks_pruned\": {pruned},\n  \"selective_bytes_decoded\": {sel_bytes},\n  \
         \"full_scan_bytes_decoded\": {full_bytes}\n}}\n",
        cfg.scale,
        eval_iters.max(1)
    );
    std::fs::write("BENCH_pr6.json", &json).expect("write BENCH_pr6.json");
    println!("wrote BENCH_pr6.json");
    println!();
}

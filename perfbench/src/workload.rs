//! The four workloads: fixed inputs, engine set-up, one algorithm run, and
//! the readback the oracle checks.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use vertexica::{
    run_program, run_sharded, GraphSession, RunStats, ShardedDatabase, ShardedGraphSession,
    SuperstepStats, VertexicaConfig, VertexicaError,
};
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_algorithms::{reference, sqlalgo};
use vertexica_common::graph::{Edge, EdgeList};
use vertexica_common::hash::splitmix64;
use vertexica_common::timer::Stopwatch;
use vertexica_common::VertexId;
use vertexica_sql::Database;

use crate::report::{json_number, Counters};
use crate::trace::{span, Tracer};

/// Dataset scale factor (fraction of the paper's graph sizes).
pub const DEFAULT_SCALE: f64 = 0.01;
/// Worker UDF instances on a single-database run.
pub const NUM_WORKERS: usize = 2;
/// Hash partitions (vertex batches) on a single-database run.
pub const NUM_PARTITIONS: usize = 8;
/// Engine shards on the sharded workload; each runs one worker.
pub const NUM_SHARDS: usize = 2;
/// PageRank iterations and damping, as in the paper's Figure 2.
pub const PR_ITERATIONS: u64 = 10;
pub const DAMPING: f64 = 0.85;
/// Seed of the R-MAT graph every workload runs on; `--seed` relabels it.
pub const GRAPH_SEED: u64 = 42;
/// Buffer-pool budget on the out-of-core workload: a fixed byte count, about
/// half of the checkpointed LiveJournal footprint at the default scale, so a
/// smaller footprint shows as fewer evictions.
pub const OOC_BUDGET_BYTES: usize = 20 << 20;
/// Graph (table-name prefix) every workload loads.
const GRAPH: &str = "bench";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PagerankLj,
    PagerankSqlLj,
    SsspLjOoc,
    PagerankGplus2Shard,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PagerankLj,
        Workload::PagerankSqlLj,
        Workload::SsspLjOoc,
        Workload::PagerankGplus2Shard,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PagerankLj => "pagerank-lj",
            Workload::PagerankSqlLj => "pagerank-sql-lj",
            Workload::SsspLjOoc => "sssp-lj-ooc",
            Workload::PagerankGplus2Shard => "pagerank-gplus-2shard",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// `vertexica_graphgen` profile the workload's graph comes from.
    pub fn profile(self) -> &'static str {
        match self {
            Workload::PagerankGplus2Shard => "gplus",
            _ => "livejournal",
        }
    }

    /// Whether the workload runs on a durable (`Database::open`) database.
    pub fn durable(self) -> bool {
        self == Workload::SsspLjOoc
    }

    /// The engine configuration. Environment overrides are cleared before
    /// this is built, so every default below is the code's own default; the
    /// paper-level parameters are set explicitly.
    pub fn config(self) -> VertexicaConfig {
        let base = VertexicaConfig::default()
            .with_workers(NUM_WORKERS)
            .with_partitions(NUM_PARTITIONS)
            .with_input_mode(vertexica::InputMode::TableUnion)
            .with_replace_threshold(0.2)
            .with_durable(false)
            .with_memory_budget(None)
            .with_shards(1)
            .with_max_supersteps(10_000);
        match self {
            Workload::PagerankLj | Workload::PagerankSqlLj => base.with_combiner(false),
            Workload::SsspLjOoc => base
                .with_combiner(true)
                .with_durable(true)
                .with_memory_budget(Some(OOC_BUDGET_BYTES)),
            Workload::PagerankGplus2Shard => base
                .with_combiner(false)
                .with_workers(1)
                .with_partitions(NUM_PARTITIONS / NUM_SHARDS)
                .with_shards(NUM_SHARDS),
        }
    }

    /// Generates the workload's input: `dataset(profile, scale, GRAPH_SEED)`
    /// with its vertex ids relabeled by a permutation drawn from `seed` (the
    /// identity for `GRAPH_SEED`). Every seed gives the same graph structure
    /// under different ids, so id order, storage layout and partition
    /// assignment vary with the seed while the work does not: on independent
    /// R-MAT draws, SSSP from the hub takes 6 or 7 supersteps depending on
    /// the seed, which alone moves its run time by about 12%.
    pub fn input(self, scale: f64, seed: u64) -> Option<Input> {
        let base = vertexica_graphgen::dataset(self.profile(), scale, GRAPH_SEED)?;
        let n = base.num_vertices;
        let mut perm: Vec<VertexId> = (0..n).collect();
        if seed != GRAPH_SEED {
            let mut state = seed;
            for i in (1..perm.len()).rev() {
                let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
                perm.swap(i, j);
            }
        }
        let edges = base
            .edges
            .iter()
            .map(|e| Edge::weighted(perm[e.src as usize], perm[e.dst as usize], e.weight))
            .collect();
        // The SSSP source is the base graph's vertex 0, the R-MAT hub.
        Some(Input { graph: EdgeList::new(n, edges), source: perm.first().copied().unwrap_or(0) })
    }

    /// Reference result for the oracle, indexed by vertex id.
    pub fn reference(self, input: &Input) -> Vec<f64> {
        match self {
            Workload::SsspLjOoc => reference::sssp(&input.graph, input.source),
            _ => reference::pagerank(&input.graph, PR_ITERATIONS as usize, DAMPING),
        }
    }
}

/// A workload's generated input.
pub struct Input {
    pub graph: EdgeList,
    /// SSSP source vertex.
    pub source: VertexId,
}

/// A database directory inside the benchmark's output directory, unique to
/// this process, removed when dropped (also while unwinding from a panic).
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(parent: &Path, tag: usize) -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let path = parent.join(format!("db-{}-{nanos}-{tag}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A loaded graph on one database or on a set of shards.
pub enum Engine {
    Single(GraphSession),
    Sharded(ShardedGraphSession),
}

impl Engine {
    /// Every database behind the engine (one per shard).
    pub fn databases(&self) -> Vec<Arc<Database>> {
        match self {
            Engine::Single(s) => vec![s.db().clone()],
            Engine::Sharded(ss) => ss.db().shards().to_vec(),
        }
    }

    /// Reads every vertex value back, sorted by id.
    pub fn readback(&self) -> Result<Vec<(VertexId, f64)>, String> {
        match self {
            Engine::Single(s) => s.vertex_values::<f64>(),
            Engine::Sharded(ss) => ss.vertex_values::<f64>(),
        }
        .map_err(|e| e.to_string())
    }
}

/// Clocks of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Open + create + load (+ checkpoint when durable).
    pub total_s: f64,
    pub load_s: f64,
    pub checkpoint_s: f64,
    /// Buffer-pool resident bytes once set-up is done (the checkpointed
    /// footprint on a durable database; nothing is pooled in memory).
    pub footprint_bytes: u64,
}

/// Opens the workload's database, creates the graph and loads `graph`; on
/// the durable workload also checkpoints it. `dir` is the durable
/// database's directory.
pub fn setup(
    w: Workload,
    graph: &EdgeList,
    dir: Option<&Path>,
    t: Option<&Tracer>,
) -> Result<(Engine, SetupTimes), String> {
    let err = |e: VertexicaError| e.to_string();
    let total = Stopwatch::start();
    let mut times = SetupTimes::default();
    let engine = if w == Workload::PagerankGplus2Shard {
        let sdb = span(t, "open", || ShardedDatabase::new(NUM_SHARDS));
        let ss = span(t, "create", || ShardedGraphSession::create(sdb, GRAPH)).map_err(err)?;
        let sw = Stopwatch::start();
        counted(t, "load_edges", ss.db().shards(), || ss.load_edges(graph)).0.map_err(err)?;
        times.load_s = sw.elapsed_secs();
        Engine::Sharded(ss)
    } else {
        let db = span(t, "open", || match dir {
            Some(d) => Database::open(d).map_err(|e| e.to_string()),
            None => Ok(Database::new()),
        })?;
        let db = Arc::new(db);
        let dbs = [db.clone()];
        let session = span(t, "create", || GraphSession::create(db, GRAPH)).map_err(err)?;
        let sw = Stopwatch::start();
        counted(t, "load_edges", &dbs, || session.load_edges(graph)).0.map_err(err)?;
        times.load_s = sw.elapsed_secs();
        if w.durable() {
            let sw = Stopwatch::start();
            counted(t, "checkpoint", &dbs, || session.db().checkpoint())
                .0
                .map_err(|e| e.to_string())?;
            times.checkpoint_s = sw.elapsed_secs();
        }
        Engine::Single(session)
    };
    times.total_s = total.elapsed_secs();
    times.footprint_bytes =
        engine.databases().iter().map(|db| db.catalog().buffer_pool().stats().resident_bytes).sum();
    Ok((engine, times))
}

/// What one algorithm run returns.
pub enum RunOutput {
    /// A vertex-centric run: the coordinator's stats; results stay in the
    /// vertex table.
    Program(RunStats),
    /// The hand-written SQL run: its results directly.
    Sql(Vec<(VertexId, f64)>),
}

/// Runs the workload's algorithm once on the loaded graph.
pub fn run_once(
    w: Workload,
    engine: &Engine,
    cfg: &VertexicaConfig,
    source: VertexId,
) -> Result<RunOutput, String> {
    let pagerank = || Arc::new(PageRank::new(PR_ITERATIONS, DAMPING));
    let out = match (w, engine) {
        (Workload::PagerankLj, Engine::Single(s)) => {
            run_program(s, pagerank(), cfg).map(RunOutput::Program)
        }
        (Workload::PagerankSqlLj, Engine::Single(s)) => {
            sqlalgo::pagerank_sql(s, PR_ITERATIONS as usize, DAMPING).map(RunOutput::Sql)
        }
        (Workload::SsspLjOoc, Engine::Single(s)) => {
            run_program(s, Arc::new(Sssp::new(source)), cfg).map(RunOutput::Program)
        }
        (Workload::PagerankGplus2Shard, Engine::Sharded(ss)) => {
            run_sharded(ss, pagerank(), cfg).map(RunOutput::Program)
        }
        _ => return Err(format!("{} cannot run on this engine", w.name())),
    };
    out.map_err(|e| e.to_string())
}

/// Runs `f` in a span named `name` and, when tracing, attaches the counter
/// deltas of `dbs` across the call to the span and returns the span id with
/// the deltas. Untraced, it is a plain call.
pub fn counted<T>(
    t: Option<&Tracer>,
    name: &str,
    dbs: &[Arc<Database>],
    f: impl FnOnce() -> T,
) -> (T, Option<(usize, Counters)>) {
    let Some(t) = t else { return (f(), None) };
    let before = Counters::snapshot(dbs);
    let id = t.enter(name);
    let out = f();
    t.exit(id);
    let delta = Counters::snapshot(dbs).since(&before);
    for (k, v) in delta.attrs() {
        t.attr(id, k, v);
    }
    (out, Some((id, delta)))
}

/// Reopens the durable workload's database in `dir` after the engine was
/// dropped: `Database::open` (WAL recovery) and `GraphSession::open`.
/// Returns the engine and the `Database::open` seconds.
pub fn reopen(dir: &Path, t: Option<&Tracer>) -> Result<(Engine, f64), String> {
    let sw = Stopwatch::start();
    let db = span(t, "open", || Database::open(dir)).map_err(|e| e.to_string())?;
    let open_s = sw.elapsed_secs();
    let session = span(t, "session_open", || GraphSession::open(Arc::new(db), GRAPH))
        .map_err(|e| e.to_string())?;
    Ok((Engine::Single(session), open_s))
}

/// Renders per-superstep stats as a JSON array (attached under run spans).
pub fn supersteps_json(steps: &[SuperstepStats]) -> String {
    let rows: Vec<String> = steps
        .iter()
        .map(|s| {
            let fields: [(&str, f64); 25] = [
                ("superstep", s.superstep as f64),
                ("messages", s.messages as f64),
                ("vertex_changes", s.vertex_changes as f64),
                ("replaced", f64::from(u8::from(s.replaced))),
                ("assemble_s", s.assemble_secs),
                ("compute_s", s.compute_secs),
                ("apply_s", s.apply_secs),
                ("apply_parallelism", s.apply_parallelism as f64),
                ("overlap_s", s.overlap_secs),
                ("queue_wait_s", s.queue_wait_secs),
                ("steals", s.steals as f64),
                ("nested_scopes", s.nested_scopes as f64),
                ("peak_batch_bytes", s.peak_batch_bytes as f64),
                ("input_bytes", s.input_bytes as f64),
                ("peak_resident_scan_bytes", s.peak_resident_scan_bytes as f64),
                ("early_dispatches", s.early_dispatches as f64),
                ("wal_records", s.wal_records as f64),
                ("wal_bytes", s.wal_bytes as f64),
                ("flush_bytes", s.flush_bytes as f64),
                ("resident_bytes", s.resident_bytes as f64),
                ("evictions", s.evictions as f64),
                ("reloads", s.reloads as f64),
                ("remote_messages", s.remote_messages as f64),
                ("routed_bytes", s.routed_bytes as f64),
                ("shard_skew", s.shard_skew),
            ];
            let row: Vec<String> =
                fields.iter().map(|(k, v)| format!("\"{k}\": {}", json_number(*v))).collect();
            format!("{{{}}}", row.join(", "))
        })
        .collect();
    format!("[{}]", rows.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pairs(input: &Input) -> Vec<(VertexId, VertexId)> {
        input.graph.edges.iter().map(|e| (e.src, e.dst)).collect()
    }

    fn sorted_degrees(input: &Input) -> Vec<u64> {
        let mut d = input.graph.out_degrees();
        d.sort_unstable();
        d
    }

    #[test]
    fn input_is_a_seeded_relabeling_of_the_base_graph() {
        let w = Workload::PagerankGplus2Shard;
        let base = w.input(0.001, GRAPH_SEED).expect("profile");
        let raw = vertexica_graphgen::dataset(w.profile(), 0.001, GRAPH_SEED).expect("profile");
        assert_eq!(pairs(&base), raw.edges.iter().map(|e| (e.src, e.dst)).collect::<Vec<_>>());
        assert_eq!(base.source, 0);

        let a = w.input(0.001, 7).expect("profile");
        let b = w.input(0.001, 7).expect("profile");
        let c = w.input(0.001, 8).expect("profile");
        assert_eq!(pairs(&a), pairs(&b), "same seed, same input");
        assert_eq!(a.source, b.source);
        assert_ne!(pairs(&a), pairs(&c), "another seed relabels differently");
        for other in [&a, &c] {
            assert_eq!(other.graph.num_vertices, base.graph.num_vertices);
            assert_eq!(sorted_degrees(other), sorted_degrees(&base));
        }
    }
}

//! `perfbench` — the repository benchmark for the Vertexica reproduction.
//!
//! ```text
//! perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!           [--scale F] [--out-dir DIR]
//! ```
//!
//! One process runs one workload: it generates the graph (relabeled by
//! `--seed`),
//! sets the engine up several times (the median is `setup_s`), then runs the
//! algorithm on the last set-up until `--seconds` have passed, checking every
//! run against the in-memory reference. The last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`); lines before
//! it start with `#` and describe the host, the resolved configuration and
//! the samples.
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced runs, reports the per-layer metrics of the last traced
//! run plus the tracing overhead, and writes the recorded spans to
//! `<out-dir>/trace-<workload>-seed<N>-<pid>.json`.

mod oracle;
mod report;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use vertexica::RunStats;
use vertexica_common::timer::Stopwatch;

use report::{median, Counters, Metric};
use trace::{span, Tracer};
use workload::{counted, Engine, RunOutput, SetupTimes, TempDir, Workload};

/// Environment variables that change engine defaults or how a database
/// opens. They are cleared before anything is opened, so the ambient
/// environment cannot change what is measured.
const NEUTRALISED_ENV: [&str; 9] = [
    "VERTEXICA_SHARDS",
    "VERTEXICA_DURABLE",
    "VERTEXICA_MEMORY_BUDGET",
    "VERTEXICA_PIPELINED",
    "VERTEXICA_PARALLEL_APPLY",
    "VERTEXICA_STREAM_SCAN",
    "VERTEXICA_VECTOR_EXPR",
    "VERTEXICA_DURABLE_SYNC",
    "VERTEXICA_SCALE",
];

/// Set-ups per process: at least `MIN_SETUPS`, then more while their total
/// stays under `SETUP_BUDGET_S`, up to `MAX_SETUPS`; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 20;
const SETUP_BUDGET_S: f64 = 2.0;

const USAGE: &str = "usage: perfbench --workload <pagerank-lj|pagerank-sql-lj|sssp-lj-ooc|\
                     pagerank-gplus-2shard> [--seed N] [--seconds S] [--trace 0|1] \
                     [--scale F] [--out-dir DIR]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: f64,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::PagerankLj,
        seed: 42,
        seconds: 10.0,
        trace: false,
        scale: workload::DEFAULT_SCALE,
        out_dir: PathBuf::from("perfbench/out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--scale" => args.scale = value.parse().map_err(|_| bad("scale"))?,
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let in_range = args.scale > 0.0 && args.scale <= 1.0 && args.seconds >= 0.0;
    if !in_range {
        return Err("--scale must be in (0, 1] and --seconds non-negative".into());
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    for var in NEUTRALISED_ENV {
        if let Ok(v) = std::env::var(var) {
            println!("# env: cleared {var}={v}");
        }
        std::env::remove_var(var);
    }
    match execute(&args) {
        Ok(out) => {
            println!(
                "{}",
                report::result_line(out.failed == 0, out.attempted, out.failed, &out.metrics)
            );
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

/// What the last traced run left for the per-layer report.
struct TracedRun {
    stats: Option<RunStats>,
    delta: Counters,
}

fn execute(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let cfg = w.config();
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    let run_id = format!("{}-seed{}-{}", w.name(), args.seed, std::process::id());
    let tracer = args.trace.then(|| Tracer::new(run_id.clone()));
    let t = tracer.as_ref();

    let input = span(t, "dataset", || w.input(args.scale, args.seed))
        .ok_or_else(|| format!("unknown dataset profile {}", w.profile()))?;
    let want = span(t, "reference", || w.reference(&input));
    let graph = &input.graph;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} scale={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.scale,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "# host: nproc={nproc} vertices={} edges={} sssp_source={} flush={} buffer_pool_budget={}",
        graph.num_vertices,
        graph.num_edges(),
        input.source,
        if w.durable() { "fsync-on-commit" } else { "none (in-memory)" },
        cfg.memory_budget_bytes.map_or("unbounded".to_string(), |b| b.to_string())
    );
    println!("# config: {cfg:?}");

    // Set up several times; the runs use the last set-up. The engine is
    // dropped before its directory (tuple fields drop in order).
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut kept: Option<(Engine, Option<TempDir>)> = None;
    let setup_clock = Stopwatch::start();
    for rep in 0..MAX_SETUPS {
        if rep >= MIN_SETUPS && setup_clock.elapsed_secs() >= SETUP_BUDGET_S {
            break;
        }
        drop(kept.take());
        let dir = if w.durable() { Some(TempDir::new(&args.out_dir, rep)?) } else { None };
        let (engine, times) =
            span(t, "setup", || workload::setup(w, graph, dir.as_ref().map(|d| d.path()), t))?;
        setups.push(times);
        kept = Some((engine, dir));
    }
    let (engine, dir) = kept.ok_or("no set-up ran")?;
    let dbs = engine.databases();
    let footprint = setups.last().map_or(0, |s| s.footprint_bytes);
    println!(
        "# setup_s: {:?} (footprint after set-up: {footprint} bytes)",
        setups.iter().map(|s| s.total_s).collect::<Vec<_>>()
    );

    // Runs: untraced only, or alternating untraced / traced under --trace 1.
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut readback_s = Vec::new();
    let mut attempted = 0usize;
    let mut failed = 0usize;
    let mut last_traced: Option<TracedRun> = None;
    let mut last_values = Vec::new();
    // Peak RSS as of the end of the first run: later runs on the same
    // process would let allocator growth depend on how many runs fit.
    let mut rss = 0.0;
    let phase = Stopwatch::start();
    loop {
        let traced = t.is_some() && attempted % 2 == 1;
        let rt = if traced { t } else { None };
        attempted += 1;
        let sw = Stopwatch::start();
        let (out, span_delta) =
            counted(rt, "run", &dbs, || workload::run_once(w, &engine, &cfg, input.source));
        let secs = sw.elapsed_secs();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: run {attempted} failed: {e}");
                failed += 1;
                break;
            }
        };
        if attempted == 1 {
            rss = report::peak_rss_mb();
        }
        if traced { &mut traced_s } else { &mut untraced_s }.push(secs);
        let (values, stats) = match out {
            RunOutput::Program(stats) => {
                let sw = Stopwatch::start();
                let (values, _) = counted(rt, "readback", &dbs, || engine.readback());
                readback_s.push(sw.elapsed_secs());
                (values?, Some(stats))
            }
            RunOutput::Sql(values) => (values, None),
        };
        if let (Some(tr), Some((id, _)), Some(stats)) = (rt, &span_delta, &stats) {
            tr.attach(*id, "supersteps", workload::supersteps_json(&stats.per_superstep));
        }
        if let Err(e) =
            span(rt, "oracle", || oracle::check_close(&values, &want, oracle::TOLERANCE))
        {
            eprintln!("perfbench: run {attempted} failed the oracle: {e}");
            failed += 1;
        }
        if let Some((_, delta)) = span_delta {
            last_traced = Some(TracedRun { stats, delta });
        }
        last_values = values;
        let enough = phase.elapsed_secs() >= args.seconds;
        let have_both = t.is_none() || (!untraced_s.is_empty() && !traced_s.is_empty());
        if enough && have_both {
            break;
        }
    }

    // The durable workload: drop the database, reopen it, read every value
    // back and compare bitwise with the values read before the drop.
    let mut reopen_s = 0.0;
    let mut open_s = 0.0;
    drop((engine, dbs));
    if let Some(dir) = dir {
        attempted += 1;
        let sw = Stopwatch::start();
        let id = t.map(|t| t.enter("reopen"));
        let (reopened, secs) = workload::reopen(dir.path(), t)?;
        open_s = secs;
        let (values, _) = counted(t, "readback", &reopened.databases(), || reopened.readback());
        reopen_s = sw.elapsed_secs();
        if let (Some(t), Some(id)) = (t, id) {
            t.exit(id);
        }
        let check = span(t, "oracle", || oracle::check_bitwise(&values?, &last_values));
        if let Err(e) = check {
            eprintln!("perfbench: reopen check failed: {e}");
            failed += 1;
        }
    }

    // No percentile above the median has ten samples beyond it until n > 10,
    // so a process reports the median, the sample count and the samples.
    let run_median = median(&untraced_s);
    println!(
        "# run_s: median {run_median} n={} untraced {untraced_s:?} traced {traced_s:?}",
        untraced_s.len()
    );
    println!("# error_rate: {failed}/{attempted}");
    if failed > 0 {
        return Ok(Outcome { attempted, failed, metrics: Vec::new() });
    }

    let metrics = if let Some(tr) = &tracer {
        let path = args.out_dir.join(format!("trace-{run_id}.json"));
        let spans = tr.len();
        tr.write(&path).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("# trace: {spans} spans written to {}", path.display());
        let run = last_traced.ok_or("no traced run")?;
        layer_metrics(LayerInputs {
            setups: &setups,
            run: &run,
            readback_s: median(&readback_s),
            reopen_s,
            open_s,
            overhead_s: median(&traced_s) - run_median,
        })
    } else {
        let setup_s = median(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>());
        vec![
            Metric { name: "setup_s", value: setup_s, unit: "s" },
            Metric { name: "run_s", value: run_median, unit: "s" },
            Metric { name: "peak_rss_mb", value: rss, unit: "MiB" },
        ]
    };
    Ok(Outcome { attempted, failed, metrics })
}

struct LayerInputs<'a> {
    setups: &'a [SetupTimes],
    run: &'a TracedRun,
    readback_s: f64,
    reopen_s: f64,
    open_s: f64,
    overhead_s: f64,
}

/// The per-layer metrics of one traced run.
fn layer_metrics(x: LayerInputs<'_>) -> Vec<Metric> {
    let steps = x.run.stats.as_ref().map_or(&[][..], |s| &s.per_superstep[..]);
    let sum = |f: &dyn Fn(&vertexica::SuperstepStats) -> f64| steps.iter().map(f).sum::<f64>();
    let max =
        |f: &dyn Fn(&vertexica::SuperstepStats) -> f64| steps.iter().map(f).fold(0.0, f64::max);
    let d = &x.run.delta;
    let tables = d.table_totals();
    let vertex_changes = sum(&|s| s.vertex_changes as f64);
    let written = (d.wal_bytes + d.flush_bytes) as f64;
    let per_change = if vertex_changes > 0.0 { written / vertex_changes } else { 0.0 };
    let reloads_per_eviction =
        if d.evictions > 0 { d.reloads as f64 / d.evictions as f64 } else { 0.0 };
    let setup_median =
        |f: &dyn Fn(&SetupTimes) -> f64| median(&x.setups.iter().map(f).collect::<Vec<_>>());
    let (supersteps, messages) =
        x.run.stats.as_ref().map_or((0.0, 0.0), |s| (s.supersteps as f64, s.total_messages as f64));
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("session.load_s", setup_median(&|s| s.load_s), "s"),
        m("session.readback_s", x.readback_s, "s"),
        m("session.reopen_s", x.reopen_s, "s"),
        m("coordinator.supersteps", supersteps, "count"),
        m("coordinator.messages", messages, "count"),
        m("input.assemble_s", sum(&|s| s.assemble_secs), "s"),
        m("input.input_bytes", sum(&|s| s.input_bytes as f64), "bytes"),
        m("input.peak_batch_bytes", max(&|s| s.peak_batch_bytes as f64), "bytes"),
        m("input.peak_resident_scan_bytes", max(&|s| s.peak_resident_scan_bytes as f64), "bytes"),
        m("input.early_dispatches", sum(&|s| s.early_dispatches as f64), "count"),
        m("worker.compute_s", sum(&|s| s.compute_secs), "s"),
        m("worker.overlap_s", sum(&|s| s.overlap_secs), "s"),
        m("apply.apply_s", sum(&|s| s.apply_secs), "s"),
        m("apply.replaced_supersteps", sum(&|s| f64::from(u8::from(s.replaced))), "count"),
        m("apply.vertex_changes", vertex_changes, "count"),
        m("runtime.tasks", d.tasks as f64, "count"),
        m("runtime.steals", d.steals as f64, "count"),
        m("runtime.queue_wait_s", d.queue_wait_s, "s"),
        m("runtime.nested_scopes", d.nested_scopes as f64, "count"),
        m("sql.bytes_decoded", tables.bytes_decoded as f64, "bytes"),
        m("sql.blocks_pruned", tables.blocks_pruned as f64, "count"),
        m("sql.segments_pruned", tables.segments_pruned as f64, "count"),
        m("wal.records", d.wal_records as f64, "count"),
        m("wal.bytes", d.wal_bytes as f64, "bytes"),
        m("wal.flush_bytes", d.flush_bytes as f64, "bytes"),
        m("wal.tables_flushed", d.tables_flushed as f64, "count"),
        m("wal.checkpoints", d.checkpoints as f64, "count"),
        m("wal.checkpoint_s", setup_median(&|s| s.checkpoint_s), "s"),
        m("wal.open_s", x.open_s, "s"),
        m("wal.write_bytes_per_change", per_change, "bytes/change"),
        m(
            "buffer_pool.footprint_bytes",
            x.setups.last().map_or(0.0, |s| s.footprint_bytes as f64),
            "bytes",
        ),
        m("buffer_pool.peak_resident_bytes", max(&|s| s.resident_bytes as f64), "bytes"),
        m("buffer_pool.evictions", d.evictions as f64, "count"),
        m("buffer_pool.reloads", d.reloads as f64, "count"),
        m("buffer_pool.reloads_per_eviction", reloads_per_eviction, "ratio"),
        m("shard.remote_messages", sum(&|s| s.remote_messages as f64), "count"),
        m("shard.routed_bytes", sum(&|s| s.routed_bytes as f64), "bytes"),
        m("shard.skew", max(&|s| s.shard_skew), "ratio"),
        m("trace.overhead_s", x.overhead_s, "s"),
    ]
}

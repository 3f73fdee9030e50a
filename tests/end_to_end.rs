//! End-to-end scenarios from the paper's demo section: pipelines, hybrid
//! analysis, dynamic graphs, crash injection and stamp-based resume, and
//! running the coordinator as a stored procedure.

use std::sync::Arc;

use vertexica::coordinator::{register_as_procedure, resume_program};
use vertexica::pipeline::Pipeline;
use vertexica::sql::Database;
use vertexica::storage::Value;
use vertexica::{run_program, GraphSession, VertexicaConfig};
use vertexica_algorithms::sqlalgo;
use vertexica_algorithms::vc::{PageRank, Sssp};
use vertexica_common::graph::{Edge, EdgeList, VertexId};
use vertexica_graphgen::metadata::edge_metadata;
use vertexica_graphgen::models::erdos_renyi;

fn session_with_metadata(db: &Arc<Database>, name: &str) -> GraphSession {
    let graph = erdos_renyi(80, 400, 21);
    let metas = edge_metadata(&graph, 0, 1000, 21);
    let edges: Vec<(Edge, i64, Option<String>)> = metas
        .iter()
        .map(|m| (Edge::weighted(m.src, m.dst, m.weight), m.created, Some(m.etype.to_string())))
        .collect();
    let s = GraphSession::create(db.clone(), name).unwrap();
    s.load_edges_with_metadata(&edges, graph.num_vertices).unwrap();
    s
}

#[test]
fn full_pipeline_select_rank_aggregate() {
    let db = Arc::new(Database::new());
    let session = session_with_metadata(&db, "p");
    let pipeline = Pipeline::new()
        .add_sql("friend_edges", "SELECT COUNT(*) FROM p_edge WHERE etype = 'friend'")
        .add_stage("rank", |s, ctx| {
            run_program(s, Arc::new(PageRank::new(5, 0.85)), &VertexicaConfig::default())?;
            let ranks: Vec<(VertexId, f64)> = s.vertex_values()?;
            sqlalgo::store_scores(s, "p_rank", &ranks)?;
            ctx.values.insert("ranked".into(), Value::Int(ranks.len() as i64));
            Ok(())
        })
        .add_sql("total_rank", "SELECT SUM(score) FROM p_rank")
        .add_sql("top3", "SELECT id FROM p_rank ORDER BY score DESC, id LIMIT 3");
    let (ctx, timings) = pipeline.run(&session).unwrap();
    assert_eq!(timings.len(), 4);
    assert_eq!(ctx.value("ranked"), Some(&Value::Int(80)));
    // PageRank is a probability distribution.
    let total = ctx.value("total_rank").and_then(|v| v.as_float()).unwrap();
    assert!((total - 1.0).abs() < 1e-9);
    assert_eq!(ctx.rows_of("top3").unwrap().len(), 3);
}

#[test]
fn metadata_filters_drive_scoped_analysis() {
    let db = Arc::new(Database::new());
    let session = session_with_metadata(&db, "scope");
    // §4.2.1: "select all edges of type Family" and analyse the subgraph.
    let (family, _) = vertexica_algorithms::hybrid::localized_pagerank(
        &session,
        "etype = 'family'",
        "scope_family",
        5,
    )
    .unwrap();
    let all = session.num_edges().unwrap();
    let fam = family.num_edges().unwrap();
    assert!(fam > 0 && fam < all);
    // Changing the filter changes the scope (§4.2.3 continuous mode).
    let (classmates, _) = vertexica_algorithms::hybrid::localized_pagerank(
        &session,
        "etype = 'classmate'",
        "scope_classmate",
        5,
    )
    .unwrap();
    let cls = classmates.num_edges().unwrap();
    assert!(cls > 0 && cls < all);
    assert_eq!(all as i64, db.query_int("SELECT COUNT(*) FROM scope_edge").unwrap());
}

fn durable_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vx_e2e_{tag}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A durable database holding `graph`, loaded and checkpointed.
fn durable_session(dir: &std::path::Path, name: &str, graph: &EdgeList) -> GraphSession {
    let db = Arc::new(Database::open(dir).unwrap());
    let session = GraphSession::create(db.clone(), name).unwrap();
    session.load_edges(graph).unwrap();
    db.checkpoint().unwrap();
    session
}

/// Every vertex value, bit for bit.
fn value_bits(session: &GraphSession) -> Vec<(VertexId, u64)> {
    let values: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    values.into_iter().map(|(id, v)| (id, v.to_bits())).collect()
}

/// Crash injection + resume: a durable PageRank run loses power halfway
/// through its durable writes; the reopened database resumes from its
/// superstep stamp and finishes bitwise-identical to an uninterrupted run.
#[test]
fn checkpoint_failure_injection_and_resume() {
    let graph = erdos_renyi(40, 160, 8);
    let program = Arc::new(PageRank::new(8, 0.85));
    let config = VertexicaConfig::default();

    let fresh_dir = durable_dir("fresh");
    let fresh_session = durable_session(&fresh_dir, "ck", &graph);
    let before = fresh_session.db().durability_stats().unwrap();
    run_program(&fresh_session, program.clone(), &config).unwrap();
    let after = fresh_session.db().durability_stats().unwrap();
    let fresh = value_bits(&fresh_session);
    let run_bytes = (after.wal_bytes + after.flush_bytes) - (before.wal_bytes + before.flush_bytes);

    let dir = durable_dir("ck");
    {
        let session = durable_session(&dir, "ck", &graph);
        let sink = session.db().catalog().wal_sink().unwrap();
        sink.set_crash_budget(Some(run_bytes / 2));
        assert!(run_program(&session, program.clone(), &config).is_err(), "the crash must fire");
    }

    // Recover and finish.
    let db = Arc::new(Database::open(&dir).unwrap());
    let session = GraphSession::open(db, "ck").unwrap();
    let stamp = session.stamp().unwrap().expect("the crash hit after initialization");
    assert!(stamp.superstep >= 0, "half the run's bytes commit at least superstep 0");
    let stats = resume_program(&session, program, &config).unwrap();
    assert!(stats.supersteps > 0);
    assert_eq!(value_bits(&session), fresh, "the resumed run must match the uninterrupted one");
    drop(session);
    drop(fresh_session);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}

/// PageRank's dangling aggregator must survive a stop and resume or ranks
/// drift: the stamp carries the stopped superstep's raw per-vertex partials,
/// and resume folds them into the next superstep's input aggregate.
#[test]
fn checkpoint_preserves_aggregator_state() {
    // Chain with a sink so the dangling aggregator is non-trivial.
    let graph = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3)]);
    let program = Arc::new(PageRank::new(6, 0.85));
    let config = VertexicaConfig::default();

    let fresh_dir = durable_dir("agg_fresh");
    let fresh_session = durable_session(&fresh_dir, "agg", &graph);
    run_program(&fresh_session, program.clone(), &config).unwrap();
    let fresh = value_bits(&fresh_session);

    let dir = durable_dir("agg");
    {
        let session = durable_session(&dir, "agg", &graph);
        run_program(&session, program.clone(), &config.clone().with_max_supersteps(3)).unwrap();
        let stamp = session.stamp().unwrap().unwrap();
        assert_eq!(stamp.superstep, 2);
        assert!(!stamp.partials.is_empty(), "the sink's dangling partial must be stamped");
    }
    let db = Arc::new(Database::open(&dir).unwrap());
    let session = GraphSession::open(db, "agg").unwrap();
    resume_program(&session, program, &config).unwrap();
    assert_eq!(value_bits(&session), fresh, "the resumed run must match the uninterrupted one");

    let resumed: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    let expected = vertexica_algorithms::reference::pagerank(&graph, 6, 0.85);
    for (id, rank) in resumed {
        assert!(
            (rank - expected[id as usize]).abs() < 1e-9,
            "vertex {id}: {rank} vs {}",
            expected[id as usize]
        );
    }
    drop(session);
    drop(fresh_session);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}

#[test]
fn stored_procedure_deployment() {
    let db = Arc::new(Database::new());
    let graph = erdos_renyi(30, 120, 2);
    let session = GraphSession::create(db.clone(), "sp").unwrap();
    session.load_edges(&graph).unwrap();
    let name = register_as_procedure(&session, Arc::new(Sssp::new(0)), VertexicaConfig::default());
    let out = db.call_procedure(&name, &[]).unwrap();
    assert!(matches!(out, Value::Int(n) if n > 0));
    let dist: Vec<(VertexId, f64)> = session.vertex_values().unwrap();
    assert_eq!(dist[0], (0, 0.0));
}

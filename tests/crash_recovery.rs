//! Crash-injection proof of the durability layer.
//!
//! Three escalating attacks on `open_durable` recovery:
//!
//! 1. **Byte-offset crash injection** (proptest): a random operation
//!    schedule runs against a durable catalog whose WAL sink is armed with
//!    a random byte budget — every durable write past the budget is
//!    truncated exactly at the boundary, mimicking a torn write at an
//!    arbitrary byte offset. Recovery must land **bitwise-exactly** on
//!    either the last fully acknowledged operation's state or (if the
//!    in-flight record made it to disk completely) the next one — never a
//!    torn mixture, never a lost acknowledged write.
//!
//! 2. **Corruption fuzz**: truncations, bit flips, bad magic and bad
//!    checksums against the segment-file format and the WAL/manifest
//!    readers must surface as clean `Err`s (corruption or torn-tail
//!    discard), never a panic and never silently wrong data.
//!
//! 3. **`kill -9` mid-superstep** (in `kill9_recovery.rs`'s helpers here):
//!    a child process runs real grouped superstep commits until the parent
//!    SIGKILLs it at an arbitrary moment; recovery must observe the
//!    multi-table commit atomically.
//!
//! 4. **Torn supersteps**: a durable SSSP run whose sparse supersteps take
//!    the in-place update arm is crashed at every few bytes of its durable
//!    writes, on one database and on shard 1 of two; every reopened (and,
//!    sharded, repaired) state must be exactly some superstep boundary of
//!    an uninterrupted run, carry that boundary's stamp, and resume to the
//!    uninterrupted result.

use std::path::PathBuf;
use std::sync::Arc;
use vertexica_common::sync::{AtomicU64, Ordering};

use proptest::prelude::*;
use vertexica_storage::persist;
use vertexica_storage::{
    open_durable, Catalog, DataType, Field, Schema, Table, TableOptions, Value,
};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("vx_crash_{tag}_{}_{n}", std::process::id()))
}

/// Physical image of every table in a catalog — the bitwise comparator.
fn catalog_image(catalog: &Catalog) -> Vec<(String, Vec<u8>)> {
    let mut names = catalog.list();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let t = catalog.get(&n).unwrap();
            let bytes = persist::table_to_bytes_physical(&t.read()).unwrap();
            (n, bytes)
        })
        .collect()
}

fn pair_schema() -> Arc<Schema> {
    Schema::new(vec![Field::not_null("id", DataType::Int), Field::new("val", DataType::Int)])
}

/// One atomic (single WAL record / single commit) operation in a schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Batch-insert rows into alpha (one record; may auto-moveout).
    Insert(Vec<(i64, Option<i64>)>),
    /// Delete the first `k` scanned rowids of alpha (one record).
    Delete(usize),
    /// Flush alpha's WOS into a ROS segment (one record).
    Moveout,
    /// Truncate beta (one record).
    TruncateBeta,
    /// Replace alpha+beta contents in one grouped commit (one commit
    /// record): alpha gets `n` rows tagged `tag`, beta gets `n/2`.
    ReplaceBoth { n: usize, tag: i64 },
    /// Replace beta and update the first `k` scanned rows of alpha in place,
    /// in one grouped commit (one commit record carrying the updates).
    ReplaceBetaUpdateAlpha { k: usize, tag: i64 },
    /// Exchange alpha's and beta's contents (`Catalog::swap`; one commit
    /// record on a durable catalog).
    SwapAlphaBeta,
    /// Drop gamma if present (one record, or none when absent).
    DropGamma,
    /// Create gamma if absent (one record, or none when present).
    CreateGamma,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => proptest::collection::vec((0i64..500, proptest::option::of(-50i64..50)), 1..20)
            .prop_map(Op::Insert),
        2 => (0usize..12).prop_map(Op::Delete),
        1 => Just(Op::Moveout),
        1 => Just(Op::TruncateBeta),
        2 => ((1usize..24), (0i64..1000)).prop_map(|(n, tag)| Op::ReplaceBoth { n, tag }),
        2 => ((1usize..8), (0i64..1000))
            .prop_map(|(k, tag)| Op::ReplaceBetaUpdateAlpha { k, tag }),
        1 => Just(Op::SwapAlphaBeta),
        1 => Just(Op::DropGamma),
        1 => Just(Op::CreateGamma),
    ]
}

/// Applies one op to a catalog (durable or shadow — identical calls).
fn apply_op(catalog: &Catalog, op: &Op) -> vertexica_storage::StorageResult<()> {
    match op {
        Op::Insert(rows) => {
            let t = catalog.get("alpha")?;
            let rows: Vec<Vec<Value>> = rows
                .iter()
                .map(|(id, val)| vec![Value::Int(*id), val.map(Value::Int).unwrap_or(Value::Null)])
                .collect();
            t.write().insert_rows(rows)?;
        }
        Op::Delete(k) => {
            let t = catalog.get("alpha")?;
            let doomed: Vec<u64> = {
                let guard = t.read();
                guard
                    .scan_with_rowids(None, &[])?
                    .into_iter()
                    .flat_map(|(_, ids)| ids)
                    .take(*k)
                    .collect()
            };
            t.write().delete_rowids(&doomed)?;
        }
        Op::Moveout => {
            catalog.get("alpha")?.write().moveout()?;
        }
        Op::TruncateBeta => {
            catalog.get("beta")?.write().truncate()?;
        }
        Op::ReplaceBoth { n, tag } => {
            let mk = |rows: usize| -> vertexica_storage::StorageResult<Table> {
                let mut t = Table::new(
                    "x",
                    pair_schema(),
                    TableOptions::default().with_moveout_threshold(8),
                );
                for i in 0..rows {
                    t.insert_row(vec![Value::Int(i as i64), Value::Int(*tag)])?;
                }
                Ok(t)
            };
            catalog.replace_contents_many(
                vec![("alpha".to_string(), mk(*n)?), ("beta".to_string(), mk(*n / 2)?)],
                Vec::new(),
            )?;
        }
        Op::ReplaceBetaUpdateAlpha { k, tag } => {
            let mut beta =
                Table::new("x", pair_schema(), TableOptions::default().with_moveout_threshold(8));
            beta.insert_row(vec![Value::Int(-1), Value::Int(*tag)])?;
            let updates: Vec<(u64, Vec<Value>)> = {
                let guard = catalog.get("alpha")?;
                let guard = guard.read();
                guard
                    .scan_with_rowids(None, &[])?
                    .into_iter()
                    .flat_map(|(batch, ids)| {
                        (0..batch.num_rows())
                            .map(|i| (ids[i], vec![batch.column(0).value(i), Value::Int(*tag)]))
                            .collect::<Vec<_>>()
                    })
                    .take(*k)
                    .collect()
            };
            catalog.replace_contents_many(
                vec![("beta".to_string(), beta)],
                vec![("alpha".to_string(), updates)],
            )?;
        }
        Op::SwapAlphaBeta => {
            catalog.swap("alpha", "beta")?;
        }
        Op::DropGamma => {
            catalog.drop_table_if_exists("gamma")?;
        }
        Op::CreateGamma => {
            if !catalog.contains("gamma") {
                catalog.create_table("gamma", pair_schema(), TableOptions::default())?;
            }
        }
    }
    Ok(())
}

fn seed_catalog(catalog: &Catalog) {
    let opts = TableOptions::default().with_moveout_threshold(8);
    catalog.create_table("alpha", pair_schema(), opts.clone()).unwrap();
    catalog.create_table("beta", pair_schema(), opts).unwrap();
    let t = catalog.get("alpha").unwrap();
    let rows: Vec<Vec<Value>> = (0..12).map(|i| vec![Value::Int(i), Value::Int(-i)]).collect();
    t.write().insert_rows(rows).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE durability property: crash a durable catalog by truncating its
    /// durable writes at an arbitrary byte offset mid-schedule; recovery
    /// must be bitwise-identical to the state after the last acknowledged
    /// operation (or the next one, if its single record fully landed).
    #[test]
    fn recovery_is_exact_at_any_crash_offset(
        ops in proptest::collection::vec(arb_op(), 1..14),
        budget in 0u64..6000,
    ) {
        let dir = temp_dir("offset");
        let durable = open_durable(&dir, false).unwrap();
        seed_catalog(&durable);

        // Shadow: the same schedule on a plain in-memory catalog, with a
        // bitwise snapshot after every op. snapshots[i] = state after ops[i].
        let shadow = Catalog::new();
        seed_catalog(&shadow);
        let mut snapshots = vec![catalog_image(&shadow)];

        // Arm the crash: every durable byte past `budget` is torn off.
        let sink = durable.wal_sink().unwrap();
        sink.set_crash_budget(Some(budget));

        let mut last_acked = 0usize; // snapshot index of last acknowledged op
        let mut crashed = false;
        for (i, op) in ops.iter().enumerate() {
            apply_op(&shadow, op).unwrap();
            snapshots.push(catalog_image(&shadow));
            match apply_op(&durable, op) {
                Ok(()) => last_acked = i + 1,
                Err(_) => {
                    crashed = true;
                    break;
                }
            }
        }
        drop(durable);

        let recovered = open_durable(&dir, false).unwrap();
        let image = catalog_image(&recovered);
        if crashed {
            // Either the in-flight record was torn (last acked state) or it
            // fully landed before the budget ran out (next state).
            prop_assert!(
                image == snapshots[last_acked] || image == snapshots[last_acked + 1],
                "recovered state matches neither the last acknowledged nor \
                 the in-flight operation's state (last_acked={last_acked})"
            );
        } else {
            prop_assert_eq!(&image, &snapshots[last_acked]);
        }

        // Recovery is idempotent: reopening lands on the identical image.
        drop(recovered);
        let again = open_durable(&dir, false).unwrap();
        prop_assert_eq!(catalog_image(&again), image);
        drop(again);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Arbitrary byte soup never panics the physical table reader.
    #[test]
    fn physical_reader_survives_random_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..600)) {
        prop_assert!(persist::table_from_bytes_physical(&bytes).is_err());
    }

    /// A **torn spill write** never corrupts recovery: a checkpoint that
    /// crashes at an arbitrary byte offset — possibly mid `.vxtb` segment
    /// image, the file eviction reloads from — leaves the directory
    /// recoverable to exactly the pre-crash acknowledged state. The torn
    /// image is unreachable (the manifest still anchors the old one) and the
    /// next recovery is bitwise-identical to the live catalog before the
    /// crash.
    #[test]
    fn torn_spill_write_never_corrupts_recovery(
        budget in 0u64..4000,
        n in 20usize..200,
    ) {
        let dir = temp_dir("torn_spill");
        let durable = open_durable(&dir, false).unwrap();
        let t = durable
            .create_table("alpha", pair_schema(), TableOptions::default())
            .unwrap();
        t.write()
            .insert_rows((0..n as i64).map(|i| vec![Value::Int(i), Value::Int(i % 13)]).collect())
            .unwrap();
        t.write().moveout().unwrap();
        // First checkpoint succeeds: every segment gets a durable spill twin.
        durable.checkpoint().unwrap();

        // Dirty the table again (all WAL-acknowledged), then crash the next
        // checkpoint at an arbitrary durable byte offset.
        t.write()
            .insert_rows(
                (0..n as i64).map(|i| vec![Value::Int(1000 + i), Value::Int(-i)]).collect(),
            )
            .unwrap();
        t.write().moveout().unwrap();
        let image = catalog_image(&durable);

        let sink = durable.wal_sink().unwrap();
        sink.set_crash_budget(Some(budget));
        // May tear mid `.vxtb`, mid MANIFEST, or fully land — all must be
        // recoverable.
        let _ = durable.checkpoint();
        drop(t);
        drop(durable);

        let recovered = open_durable(&dir, false).unwrap();
        prop_assert_eq!(
            catalog_image(&recovered),
            image,
            "torn checkpoint changed the recovered state"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A swap replaces two tables' whole contents, so on a durable catalog it
/// must move both tables' recovery watermarks past itself: otherwise a data
/// record logged against alpha *before* the swap replays onto the image
/// alpha holds *after* it (beta's old rows) once a later commit publishes a
/// manifest.
#[test]
fn swap_then_grouped_commit_reopens_exactly() {
    let ops = [
        Op::ReplaceBoth { n: 23, tag: 5 },
        Op::Delete(3),
        Op::SwapAlphaBeta,
        Op::ReplaceBetaUpdateAlpha { k: 1, tag: 7 },
    ];
    let dir = temp_dir("swap");
    let durable = open_durable(&dir, false).unwrap();
    seed_catalog(&durable);
    let shadow = Catalog::new();
    seed_catalog(&shadow);
    for op in &ops {
        apply_op(&durable, op).unwrap();
        apply_op(&shadow, op).unwrap();
    }
    let image = catalog_image(&durable);
    assert_eq!(image, catalog_image(&shadow));
    drop(durable);
    let recovered = open_durable(&dir, false).unwrap();
    assert_eq!(recovered.get("alpha").unwrap().read().num_rows(), 11);
    assert_eq!(catalog_image(&recovered), image);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

/// A committed durable directory to corrupt, plus its clean image.
fn committed_dir(tag: &str) -> (PathBuf, Vec<(String, Vec<u8>)>) {
    let dir = temp_dir(tag);
    let durable = open_durable(&dir, false).unwrap();
    seed_catalog(&durable);
    // Leave an unflushed WAL tail beyond the recovery checkpoint: reopen,
    // then write more without checkpointing.
    drop(durable);
    let durable = open_durable(&dir, false).unwrap();
    let t = durable.get("alpha").unwrap();
    t.write()
        .insert_rows((0..5).map(|i| vec![Value::Int(100 + i), Value::Null]).collect())
        .unwrap();
    let image = catalog_image(&durable);
    drop(durable);
    (dir, image)
}

#[test]
fn truncating_the_wal_tail_is_a_clean_stop() {
    // Every truncation point must recover cleanly: complete-frame prefixes
    // replay, torn tails are discarded. Never a panic, never a hard error.
    // Recovery checkpoints (rewriting the fixture), so each cut gets a
    // freshly built directory.
    let probe = committed_dir("trunc");
    let wal_len = {
        let wal_path = find_wal(&probe.0);
        std::fs::read(&wal_path).unwrap().len()
    };
    std::fs::remove_dir_all(&probe.0).ok();
    for cut in (14..wal_len).step_by(9) {
        let (dir, _) = committed_dir("trunc");
        let wal_path = find_wal(&dir);
        let bytes = std::fs::read(&wal_path).unwrap();
        assert_eq!(bytes.len(), wal_len, "fixture must be deterministic");
        std::fs::write(&wal_path, &bytes[..cut]).unwrap();
        let recovered = open_durable(&dir, false).unwrap();
        let t = recovered.get("alpha").unwrap();
        let rows = t.read().num_rows();
        assert!(
            rows >= 12,
            "checkpointed rows must survive a WAL truncation at byte {cut} (got {rows})"
        );
        drop(recovered);
        std::fs::remove_dir_all(&dir).ok();
    }
}

fn find_wal(dir: &std::path::Path) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.file_name().unwrap().to_str().unwrap().starts_with("wal-"))
        .unwrap()
}

#[test]
fn bit_flips_in_committed_wal_frames_are_corruption_not_garbage() {
    // Flip one bit inside a *complete* WAL frame: recovery must refuse with
    // a corruption error — not panic, not replay a mangled record.
    for flip_at_frac in [0.3f64, 0.5, 0.7, 0.9] {
        let (dir, _) = committed_dir("flip");
        let wal_path = find_wal(&dir);
        let mut bytes = std::fs::read(&wal_path).unwrap();
        if bytes.len() <= 20 {
            std::fs::remove_dir_all(&dir).ok();
            continue;
        }
        let pos = 14 + ((bytes.len() - 15) as f64 * flip_at_frac) as usize;
        bytes[pos] ^= 0x10;
        std::fs::write(&wal_path, &bytes).unwrap();
        match open_durable(&dir, false) {
            Err(vertexica_storage::StorageError::Corrupt(_)) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            // A flip in the length prefix can turn the frame into a torn
            // tail (length now exceeds the file) — that is a clean stop.
            Ok(_) => {}
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn bad_wal_magic_is_corruption() {
    let (dir, _) = committed_dir("magic");
    let wal_path = find_wal(&dir);
    let mut bytes = std::fs::read(&wal_path).unwrap();
    bytes[0] = b'Z';
    std::fs::write(&wal_path, &bytes).unwrap();
    assert!(matches!(open_durable(&dir, false), Err(vertexica_storage::StorageError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn manifest_bit_flip_is_corruption() {
    let (dir, _) = committed_dir("mf");
    let mf = dir.join("MANIFEST");
    let mut bytes = std::fs::read(&mf).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&mf, &bytes).unwrap();
    assert!(matches!(open_durable(&dir, false), Err(vertexica_storage::StorageError::Corrupt(_))));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn segment_file_corruption_is_detected() {
    let (dir, _) = committed_dir("seg");
    let seg_path = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().map(|e| e == "vxtb").unwrap_or(false))
        .expect("recovery checkpoint must leave table files");
    let clean = std::fs::read(&seg_path).unwrap();
    // Bit flips anywhere in the file: the CRC trailer catches them all.
    for frac in [0.1f64, 0.4, 0.8] {
        let mut bytes = clean.clone();
        let pos = (bytes.len() as f64 * frac) as usize;
        bytes[pos] ^= 0x20;
        std::fs::write(&seg_path, &bytes).unwrap();
        assert!(
            open_durable(&dir, false).is_err(),
            "flip at {pos}/{} must fail recovery",
            bytes.len()
        );
    }
    // Truncations: every prefix must fail, never panic.
    for cut in [0usize, 1, 6, clean.len() / 2, clean.len() - 1] {
        std::fs::write(&seg_path, &clean[..cut]).unwrap();
        assert!(open_durable(&dir, false).is_err());
    }
    // Restoring the clean bytes restores recovery.
    std::fs::write(&seg_path, &clean).unwrap();
    open_durable(&dir, false).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn physical_persist_truncations_all_error() {
    let mut t = Table::new("t", pair_schema(), TableOptions::default().with_moveout_threshold(4));
    for i in 0..40 {
        t.insert_row(vec![Value::Int(i % 7), Value::Int(i)]).unwrap();
    }
    // Deletes give the physical image non-empty delete vectors too.
    let doomed: Vec<u64> = t
        .scan_with_rowids(None, &[])
        .unwrap()
        .into_iter()
        .flat_map(|(_, ids)| ids)
        .step_by(3)
        .collect();
    t.delete_rowids(&doomed).unwrap();
    let clean = persist::table_to_bytes_physical(&t).unwrap();
    persist::table_from_bytes_physical(&clean).unwrap();
    for cut in 0..clean.len() {
        assert!(persist::table_from_bytes_physical(&clean[..cut]).is_err());
    }
    for pos in (0..clean.len()).step_by(3) {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x04;
        assert!(persist::table_from_bytes_physical(&bytes).is_err(), "flip at {pos} undetected");
    }
}

// ---------------------------------------------------------------------------
// Torn supersteps: crash durable vertex-centric runs at every few bytes.
// ---------------------------------------------------------------------------

use vertexica::{
    repair_if_needed, resume_program, resume_sharded, run_program, run_sharded, GraphSession,
    ShardedDatabase, ShardedGraphSession, VertexicaConfig,
};
use vertexica_algorithms::vc::Sssp;
use vertexica_common::graph::EdgeList;
use vertexica_sql::Database;

/// A 40-vertex chain: SSSP from 0 changes every vertex in superstep 0 (all
/// vote to halt) and exactly one vertex per superstep after — 1/40 is below
/// the default replace threshold, so supersteps 1.. take the update arm.
const CHAIN: u64 = 40;
/// Supersteps per run: 0..=7.
const CAP: u64 = 8;

fn chain() -> EdgeList {
    EdgeList::from_pairs((0..CHAIN - 1).map(|i| (i, i + 1)))
}

fn sweep_config(cap: u64) -> VertexicaConfig {
    VertexicaConfig::default()
        .with_workers(2)
        .with_partitions(4)
        .with_combiner(false)
        .with_replace_threshold(0.2)
        .with_max_supersteps(cap)
}

/// Vertex rows and message rows, bit for bit, plus the stamped superstep.
#[derive(Debug, PartialEq)]
struct GraphState {
    vertices: Vec<(i64, Option<Vec<u8>>, Option<bool>)>,
    messages: Vec<(i64, Option<i64>, Option<Vec<u8>>)>,
    stamp: Option<i64>,
}

/// The canonical state across every shard's session (stamps must agree).
fn graph_state(sessions: &[GraphSession]) -> GraphState {
    let mut vertices = Vec::new();
    let mut messages = Vec::new();
    let mut stamps = Vec::new();
    for sess in sessions {
        for b in sess.db().scan_table(&sess.vertex_table(), None, &[]).unwrap() {
            for row in (0..b.num_rows()).map(|i| b.row(i)) {
                vertices.push((
                    row[0].as_int().unwrap(),
                    row[1].as_blob().map(<[u8]>::to_vec),
                    row[2].as_bool(),
                ));
            }
        }
        for b in sess.db().scan_table(&sess.message_table(), None, &[]).unwrap() {
            for row in (0..b.num_rows()).map(|i| b.row(i)) {
                messages.push((
                    row[0].as_int().unwrap(),
                    row[1].as_int(),
                    row[2].as_blob().map(<[u8]>::to_vec),
                ));
            }
        }
        stamps.push(sess.stamp().unwrap().map(|s| s.superstep));
    }
    vertices.sort();
    messages.sort();
    stamps.dedup();
    assert_eq!(stamps.len(), 1, "shards disagree on the stamp: {stamps:?}");
    GraphState { vertices, messages, stamp: stamps[0] }
}

/// The oracle: the loaded-but-unrun state, then uninterrupted in-memory runs
/// capped at 0..=CAP supersteps (cap k stamps superstep k - 1).
fn boundaries() -> Vec<GraphState> {
    let fresh = || {
        let s = GraphSession::create(Arc::new(Database::new()), "g").unwrap();
        s.load_edges(&chain()).unwrap();
        s
    };
    let mut out = vec![graph_state(&[fresh()])];
    for cap in 0..=CAP {
        let s = fresh();
        let stats = run_program(&s, Arc::new(Sssp::new(0)), &sweep_config(cap)).unwrap();
        if cap == CAP {
            assert!(
                stats.per_superstep[1..].iter().all(|st| !st.replaced),
                "supersteps 1.. must take the update arm"
            );
        }
        out.push(graph_state(&[s]));
    }
    out
}

/// Durable bytes the `k`-th database writes during `run`.
fn durable_bytes(db: &Database, run: impl FnOnce()) -> u64 {
    let before = db.durability_stats().unwrap();
    run();
    let after = db.durability_stats().unwrap();
    (after.wal_bytes + after.flush_bytes) - (before.wal_bytes + before.flush_bytes)
}

/// Crash points: every `stride` bytes of a `total`-byte run, and its end.
fn crash_points(total: u64, stride: u64) -> Vec<u64> {
    (0..total).step_by(stride as usize).chain([total]).collect()
}

/// The single-database sweep: whatever byte the crash lands on, the
/// reopened database is exactly one superstep boundary — vertex table,
/// message table and stamp together — and resuming from it reaches the
/// uninterrupted result.
#[test]
fn torn_update_arm_recovers_to_a_superstep_boundary() {
    let oracle = boundaries();
    let durable_chain = |dir: &PathBuf| {
        let db = Arc::new(Database::open(dir).unwrap());
        let s = GraphSession::create(db.clone(), "g").unwrap();
        s.load_edges(&chain()).unwrap();
        db.checkpoint().unwrap();
        s
    };
    let dir = temp_dir("torn_measure");
    let total = {
        let s = durable_chain(&dir);
        durable_bytes(s.db(), || {
            run_program(&s, Arc::new(Sssp::new(0)), &sweep_config(CAP)).unwrap();
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    let mut landed = vec![0usize; oracle.len()];
    for budget in crash_points(total, 97) {
        let dir = temp_dir("torn");
        {
            let s = durable_chain(&dir);
            s.db().catalog().wal_sink().unwrap().set_crash_budget(Some(budget));
            let _ = run_program(&s, Arc::new(Sssp::new(0)), &sweep_config(CAP));
        }
        let s = GraphSession::open(Arc::new(Database::open(&dir).unwrap()), "g").unwrap();
        let state = graph_state(std::slice::from_ref(&s));
        let k = oracle.iter().position(|b| *b == state).unwrap_or_else(|| {
            panic!("crash at byte {budget} of {total} recovered to a torn state: {state:?}")
        });
        landed[k] += 1;
        resume_program(&s, Arc::new(Sssp::new(0)), &sweep_config(CAP)).unwrap();
        assert_eq!(graph_state(&[s]), oracle[oracle.len() - 1], "resume from byte {budget}");
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        landed[3..].iter().filter(|&&n| n > 0).count() >= 4,
        "the sweep must land inside several update-arm supersteps: {landed:?}"
    );
}

/// The sharded sweep: shard 1 of two loses power at every few bytes of its
/// durable writes; reopening plus [`repair_if_needed`] must land both shards
/// on one stamp whose merged state is exactly the uninterrupted run capped
/// there, and [`resume_sharded`] must finish the run.
#[test]
fn torn_update_arm_repairs_to_a_superstep_boundary_on_two_shards() {
    let oracle = boundaries();
    let durable_chain = |dir: &PathBuf| {
        let db = ShardedDatabase::create(dir, 2).unwrap();
        let ss = ShardedGraphSession::create(db.clone(), "g").unwrap();
        ss.load_edges(&chain()).unwrap();
        db.checkpoint().unwrap();
        ss
    };
    let dir = temp_dir("torn2_measure");
    let total = {
        let ss = durable_chain(&dir);
        durable_bytes(ss.db().shard(1), || {
            run_sharded(&ss, Arc::new(Sssp::new(0)), &sweep_config(CAP)).unwrap();
        })
    };
    std::fs::remove_dir_all(&dir).ok();

    let mut landed = vec![0usize; oracle.len()];
    for budget in crash_points(total, 211) {
        let dir = temp_dir("torn2");
        {
            let ss = durable_chain(&dir);
            ss.db().shard(1).catalog().wal_sink().unwrap().set_crash_budget(Some(budget));
            let _ = run_sharded(&ss, Arc::new(Sssp::new(0)), &sweep_config(CAP));
        }
        let ss = ShardedGraphSession::open(ShardedDatabase::open(&dir).unwrap(), "g").unwrap();
        repair_if_needed(&ss, Arc::new(Sssp::new(0)), &sweep_config(CAP)).unwrap();
        let state = graph_state(ss.shard_sessions());
        // A repaired stamp s is the run capped at s + 1 supersteps.
        let k = state.stamp.map_or(0, |s| (s + 2) as usize);
        assert_eq!(
            state, oracle[k],
            "crash at byte {budget} of {total}: repair missed the boundary"
        );
        landed[k] += 1;
        resume_sharded(&ss, Arc::new(Sssp::new(0)), &sweep_config(CAP)).unwrap();
        assert_eq!(
            graph_state(ss.shard_sessions()),
            oracle[oracle.len() - 1],
            "resume from byte {budget}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    assert!(
        landed[3..].iter().filter(|&&n| n > 0).count() >= 4,
        "the sweep must land inside several update-arm supersteps: {landed:?}"
    );
}

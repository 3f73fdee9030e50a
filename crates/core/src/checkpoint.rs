//! Superstep checkpointing.
//!
//! The paper's pitch (§1) includes relational features that dedicated graph
//! systems forgo — "transactions, checkpointing and recovery, fault
//! tolerance". Here the coordinator can persist the vertex and message
//! tables plus the aggregator state every N supersteps and resume after a
//! crash ([`crate::coordinator::resume_program`]).

use std::io::Write;
use std::path::Path;

use vertexica_common::hash::FxHashMap;
use vertexica_storage::persist;

use crate::error::{VertexicaError, VertexicaResult};
use crate::session::GraphSession;

/// State recovered from a checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointState {
    /// The last *completed* superstep.
    pub superstep: u64,
    pub aggregates: FxHashMap<String, f64>,
}

/// Writes a checkpoint: vertex table, message table, and a metadata file.
pub fn save(
    session: &GraphSession,
    dir: impl AsRef<Path>,
    superstep: u64,
    aggregates: &FxHashMap<String, f64>,
) -> VertexicaResult<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)
        .map_err(|e| VertexicaError::Checkpoint(format!("create dir: {e}")))?;

    for table_name in [session.vertex_table(), session.message_table()] {
        let table = session.db().catalog().get(&table_name)?;
        let guard = table.read();
        persist::write_table(&guard, dir.join(format!("{table_name}.vxtb")))?;
    }

    let mut meta = std::fs::File::create(dir.join("meta.txt"))
        .map_err(|e| VertexicaError::Checkpoint(format!("create meta: {e}")))?;
    writeln!(meta, "superstep={superstep}")
        .and_then(|_| {
            let mut names: Vec<&String> = aggregates.keys().collect();
            names.sort();
            for name in names {
                writeln!(meta, "agg.{name}={}", aggregates[name])?;
            }
            Ok(())
        })
        .map_err(|e| VertexicaError::Checkpoint(format!("write meta: {e}")))?;
    Ok(())
}

/// Restores a checkpoint into the session's tables and returns the state.
pub fn restore(session: &GraphSession, dir: impl AsRef<Path>) -> VertexicaResult<CheckpointState> {
    let dir = dir.as_ref();
    let meta = std::fs::read_to_string(dir.join("meta.txt"))
        .map_err(|e| VertexicaError::Checkpoint(format!("read meta: {e}")))?;
    let mut superstep: Option<u64> = None;
    let mut aggregates = FxHashMap::default();
    for line in meta.lines() {
        let Some((key, value)) = line.split_once('=') else { continue };
        if key == "superstep" {
            superstep = value.parse().ok();
        } else if let Some(name) = key.strip_prefix("agg.") {
            if let Ok(v) = value.parse::<f64>() {
                aggregates.insert(name.to_string(), v);
            }
        }
    }
    let superstep =
        superstep.ok_or_else(|| VertexicaError::Checkpoint("meta.txt missing superstep".into()))?;

    for table_name in [session.vertex_table(), session.message_table()] {
        let restored = persist::read_table(dir.join(format!("{table_name}.vxtb")))?;
        let live = session.db().catalog().get(&table_name)?;
        let mut guard = live.write();
        guard.truncate()?;
        let batches = restored.scan(None, &[])?;
        for b in &batches {
            guard.append_batch(b)?;
        }
    }
    Ok(CheckpointState { superstep, aggregates })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::message_batch;
    use std::sync::Arc;
    use vertexica_common::graph::EdgeList;
    use vertexica_common::VertexData;
    use vertexica_sql::Database;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("vertexica_ckpt_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn save_restore_roundtrip() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db.clone(), "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1), (1, 2)])).unwrap();
        let msgs = message_batch(vec![(1, 0, 4.25f64.to_bytes())]).unwrap();
        db.append_batches(&g.message_table(), &[msgs]).unwrap();

        let mut aggs = FxHashMap::default();
        aggs.insert("sum".to_string(), 12.5);
        let dir = temp_dir("roundtrip");
        save(&g, &dir, 7, &aggs).unwrap();

        // Clobber live state.
        db.execute(&format!("DELETE FROM {}", g.message_table())).unwrap();
        db.execute(&format!("DELETE FROM {} WHERE id = 0", g.vertex_table())).unwrap();

        let state = restore(&g, &dir).unwrap();
        assert_eq!(state.superstep, 7);
        assert_eq!(state.aggregates.get("sum"), Some(&12.5));
        assert_eq!(g.num_vertices().unwrap(), 3);
        assert_eq!(
            db.query_int(&format!("SELECT COUNT(*) FROM {}", g.message_table())).unwrap(),
            1
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_without_checkpoint_fails() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        let dir = temp_dir("missing");
        std::fs::remove_dir_all(&dir).ok();
        assert!(restore(&g, &dir).is_err());
    }

    #[test]
    fn corrupt_meta_fails() {
        let db = Arc::new(Database::new());
        let g = GraphSession::create(db, "g").unwrap();
        g.load_edges(&EdgeList::from_pairs([(0, 1)])).unwrap();
        let dir = temp_dir("corrupt");
        save(&g, &dir, 3, &FxHashMap::default()).unwrap();
        std::fs::write(dir.join("meta.txt"), "nonsense").unwrap();
        assert!(restore(&g, &dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}

//! The named-table catalog.
//!
//! Thread-safe: the catalog map and each table are behind seam (`vertexica_common::sync`)
//! RwLocks, so the coordinator can replace tables while workers are reading
//! others. [`Catalog::replace_contents_many`] is the primitive behind
//! Vertexica's *replace* strategy (§2.3): rebuild a table's contents off to
//! the side, then install them — for a whole superstep's tables at once —
//! under the existing handles. Every change to a table's whole contents,
//! [`Catalog::swap`] included, commits through it on a durable catalog; the
//! catalog's only other logged operations are create and drop.

use std::sync::Arc;

use vertexica_common::sync::RwLock;
use vertexica_common::FxHashMap;

use crate::buffer_pool::BufferPool;
use crate::error::{StorageError, StorageResult};
use crate::persist;
use crate::table::{Row, Table, TableOptions};
use crate::value::Schema;
use crate::wal::WalSink;

/// Shared handle to a table.
pub type TableRef = Arc<RwLock<Table>>;

/// A catalog of named tables.
///
/// With a durability sink attached (`Catalog::attach_wal`, done by
/// [`crate::wal::open_durable`]), create and drop are WAL-logged before they
/// apply, every table the catalog hands out logs its own mutations, and
/// [`Catalog::replace_contents_many`] and [`Catalog::swap`] run the durable
/// commit protocol.
#[derive(Default)]
pub struct Catalog {
    tables: RwLock<FxHashMap<String, TableRef>>,
    wal: RwLock<Option<Arc<WalSink>>>,
    /// The segment buffer pool every table's ROS segments register with.
    /// Its budget defaults from `VERTEXICA_MEMORY_BUDGET` (unbounded when
    /// unset); eviction only bites on durable catalogs, where checkpointed
    /// segments have spill images to reload from.
    pool: Arc<BufferPool>,
}

fn normalize(name: &str) -> String {
    name.to_ascii_lowercase()
}

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The attached durability sink, if this catalog belongs to a durable
    /// database.
    pub fn wal_sink(&self) -> Option<Arc<WalSink>> {
        self.wal.read().clone()
    }

    /// Whether a durability sink is attached.
    pub fn is_durable(&self) -> bool {
        self.wal.read().is_some()
    }

    /// The segment buffer pool shared by all of this catalog's tables.
    pub fn buffer_pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// Attaches the durability sink to the catalog and to every table it
    /// currently holds. Called once by [`crate::wal::open_durable`], after
    /// recovery replay (so replay itself is not re-logged).
    pub(crate) fn attach_wal(&self, wal: Arc<WalSink>) {
        // Wire the sink and pool together: GC keeps spill-referenced files,
        // and evicted segments reload out of the sink's directory.
        wal.attach_pool(self.pool.clone());
        self.pool.set_dir(wal.dir());
        let tables = self.tables.write();
        for (name, t) in tables.iter() {
            wal.ensure_meta(name);
            t.write().set_wal(Some(wal.clone()));
        }
        *self.wal.write() = Some(wal);
    }

    /// Creates a table; errors if the name is taken.
    pub fn create_table(
        &self,
        name: &str,
        schema: Arc<Schema>,
        options: TableOptions,
    ) -> StorageResult<TableRef> {
        let key = normalize(name);
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::DuplicateTable(name.to_string()));
        }
        let wal = self.wal.read().clone();
        if let Some(w) = &wal {
            w.log_create_table(&key, &schema, &options)?;
        }
        let mut table = Table::new(key.clone(), schema, options);
        table.set_wal(wal);
        table.set_pool(Some(self.pool.clone()));
        let table = Arc::new(RwLock::new(table));
        tables.insert(key, table.clone());
        Ok(table)
    }

    /// Registers an existing table object under its name, unlogged: only
    /// recovery calls this, before the durability sink is attached, to load
    /// tables whose images are already on disk.
    pub(crate) fn register(&self, table: Table) -> StorageResult<TableRef> {
        let key = normalize(table.name());
        let mut tables = self.tables.write();
        if tables.contains_key(&key) {
            return Err(StorageError::DuplicateTable(key));
        }
        let mut table = table;
        table.set_name(key.clone());
        table.set_wal(self.wal.read().clone());
        table.set_pool(Some(self.pool.clone()));
        let table = Arc::new(RwLock::new(table));
        tables.insert(key, table.clone());
        Ok(table)
    }

    /// Looks up a table by name.
    pub fn get(&self, name: &str) -> StorageResult<TableRef> {
        self.tables
            .read()
            .get(&normalize(name))
            .cloned()
            .ok_or_else(|| StorageError::NoSuchTable(name.to_string()))
    }

    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&normalize(name))
    }

    /// Drops a table; errors if missing.
    pub fn drop_table(&self, name: &str) -> StorageResult<()> {
        let key = normalize(name);
        let mut tables = self.tables.write();
        if !tables.contains_key(&key) {
            return Err(StorageError::NoSuchTable(name.to_string()));
        }
        if let Some(w) = self.wal.read().as_ref() {
            w.log_drop_table(&key)?;
        }
        tables.remove(&key);
        Ok(())
    }

    /// Drops a table if it exists; returns whether it did.
    pub fn drop_table_if_exists(&self, name: &str) -> StorageResult<bool> {
        let key = normalize(name);
        let mut tables = self.tables.write();
        if !tables.contains_key(&key) {
            return Ok(false);
        }
        if let Some(w) = self.wal.read().as_ref() {
            w.log_drop_table(&key)?;
        }
        tables.remove(&key);
        Ok(true)
    }

    /// Atomically exchanges the contents of two named tables (both keep their
    /// names, their data/handles swap).
    ///
    /// On a durable catalog the swap replaces both tables' whole contents, so
    /// it commits like [`Catalog::replace_contents_many`]: both post-swap
    /// images go to fresh segment files under **one** WAL `Commit` record,
    /// which moves both tables' recovery watermarks past every record logged
    /// against their old contents. If the commit fails, both tables are left
    /// exactly as they were.
    pub fn swap(&self, a: &str, b: &str) -> StorageResult<()> {
        let a_key = normalize(a);
        let b_key = normalize(b);
        let mut tables = self.tables.write();
        let ta = tables.get(&a_key).cloned().ok_or_else(|| StorageError::NoSuchTable(a.into()))?;
        let tb = tables.get(&b_key).cloned().ok_or_else(|| StorageError::NoSuchTable(b.into()))?;
        if a_key == b_key {
            return Ok(());
        }
        if let Some(w) = self.wal.read().clone() {
            // Write locks in name order (as `replace_contents_many` takes
            // them), held across commit and install.
            let (mut ga, mut gb) = if a_key < b_key {
                let ga = ta.write();
                (ga, tb.write())
            } else {
                let gb = tb.write();
                (ta.write(), gb)
            };
            ga.set_name(b_key.clone());
            gb.set_name(a_key.clone());
            if let Err(e) = commit_images(&w, [&*gb, &*ga]) {
                ga.set_name(a_key);
                gb.set_name(b_key);
                return Err(e);
            }
        } else {
            ta.write().set_name(b_key.clone());
            tb.write().set_name(a_key.clone());
        }
        tables.insert(a_key, tb);
        tables.insert(b_key, ta);
        Ok(())
    }

    /// Atomically replaces the **contents** of an existing table with a
    /// fully-built replacement, keeping the name and the shared handle.
    ///
    /// This is the commit half of the segment-parallel apply path: segments
    /// are encoded off to the side (on the worker pool), assembled into a
    /// fresh [`Table`], and swapped in here under a single table write lock —
    /// readers holding the [`TableRef`] observe either the complete old or
    /// the complete new contents, never a mixture, and no `_new`/`_delta`
    /// temporary tables are needed.
    pub fn replace_contents(&self, name: &str, table: Table) -> StorageResult<()> {
        self.replace_contents_many(vec![(name.to_string(), table)], Vec::new())
    }

    /// Atomically replaces the contents of **several** tables and updates
    /// rows of others in place, as one durable commit — the superstep-apply
    /// commit point. `updates` holds `(table, [(rowid, new row)])` groups
    /// (see [`Table::update_rows`]). In-memory, each table changes under its
    /// own write lock exactly like [`Catalog::replace_contents`]; on disk,
    /// the whole group commits via a *single* WAL `Commit` record naming
    /// every `(table, segment file)` pair and carrying the updated rows
    /// inline, so recovery lands on either all of the changes or none of
    /// them. An update costs log bytes proportional to the rows it touches,
    /// never a table image.
    ///
    /// Protocol: serialize each fresh table's physical image, take every
    /// target's write lock (in sorted name order — no lock-order inversion),
    /// validate the updated rows against their live schemas, write the
    /// images to fresh segment files + append the commit marker
    /// (`WalSink::commit_replace`), then install the new contents and apply
    /// the updates under the still-held locks. Holding the locks across
    /// log-then-install means no writer can slip a record against the doomed
    /// old contents in between.
    pub fn replace_contents_many(
        &self,
        tables: Vec<(String, Table)>,
        updates: Vec<(String, Vec<(u64, Row)>)>,
    ) -> StorageResult<()> {
        /// One table's part of the group.
        enum Change {
            /// Fresh contents, with their serialized image and segment spans
            /// on a durable catalog.
            Replace(Box<Table>, Option<(Vec<u8>, Vec<persist::SegmentSpan>)>),
            Update(Vec<(u64, Row)>),
        }
        let wal = self.wal.read().clone();
        // Normalize names, set them on the fresh tables, serialize images
        // (keeping each segment's byte span for spill addressing).
        let mut changes: Vec<(String, Change)> = Vec::with_capacity(tables.len() + updates.len());
        for (name, mut table) in tables {
            let key = normalize(&name);
            table.set_name(key.clone());
            let bytes = if wal.is_some() {
                Some(persist::table_to_bytes_physical_indexed(&table)?)
            } else {
                None
            };
            changes.push((key, Change::Replace(Box::new(table), bytes)));
        }
        for (name, rows) in updates {
            if !rows.is_empty() {
                changes.push((normalize(&name), Change::Update(rows)));
            }
        }
        changes.sort_by(|a, b| a.0.cmp(&b.0));
        for pair in changes.windows(2) {
            if pair[0].0 == pair[1].0 {
                return Err(StorageError::Internal(format!(
                    "replace_contents_many given table {} twice",
                    pair[0].0
                )));
            }
        }
        let refs: Vec<TableRef> =
            changes.iter().map(|(name, _)| self.get(name)).collect::<StorageResult<_>>()?;
        let mut guards: Vec<_> = refs.iter().map(|r| r.write()).collect();
        for ((_, change), guard) in changes.iter_mut().zip(&guards) {
            if let Change::Update(rows) = change {
                *rows = guard.check_updates(std::mem::take(rows))?;
            }
        }
        // Per replaced table, in group order: (image file, segment spans).
        let mut spill: Vec<(String, Vec<persist::SegmentSpan>)> = Vec::new();
        if let Some(w) = &wal {
            let mut entries: Vec<(String, Vec<u8>)> = Vec::new();
            let mut spans = Vec::new();
            let mut logged: Vec<(String, &[(u64, Row)])> = Vec::new();
            for (name, change) in &mut changes {
                match change {
                    Change::Replace(_, image) => {
                        let (bytes, sp) = image.take().ok_or_else(|| {
                            StorageError::Internal(format!("table {name} was not serialized"))
                        })?;
                        entries.push((name.clone(), bytes));
                        spans.push(sp);
                    }
                    Change::Update(rows) => logged.push((name.clone(), rows)),
                }
            }
            let files = w.commit_replace(&entries, &logged)?;
            spill = files.into_iter().map(|(_, file)| file).zip(spans).collect();
        }
        let mut spill = spill.into_iter();
        for ((_, change), guard) in changes.into_iter().zip(guards.iter_mut()) {
            match change {
                Change::Replace(table, _) => {
                    let mut table = *table;
                    table.set_wal(wal.clone());
                    table.set_pool(Some(self.pool.clone()));
                    // The commit wrote this table's image; its segments now
                    // have disk twins at the recorded spans and are evictable.
                    if let Some((file, spans)) = spill.next() {
                        table.assign_spill_addrs(&file, &spans)?;
                    }
                    **guard = table;
                }
                Change::Update(rows) => {
                    guard.update_rows_unlogged(rows)?;
                }
            }
        }
        drop(guards);
        // The old contents just dropped and new ones landed: re-enforce the
        // budget now that residency moved.
        self.pool.enforce();
        Ok(())
    }

    /// Flushes every **dirty** table's physical image to a segment file,
    /// publishes a fresh manifest, and — once nothing is left unflushed —
    /// rotates (truncates) the WAL. Clean tables keep their existing image
    /// files, watermarks, and segment spill addresses. Each flushed image
    /// becomes the spill twin of that table's segments, making them
    /// evictable; the budget is re-enforced before returning. No-op without
    /// an attached sink.
    pub fn checkpoint(&self) -> StorageResult<()> {
        let Some(wal) = self.wal_sink() else { return Ok(()) };
        // Holding the map write lock blocks DDL (not data writes, which go
        // through per-table locks + the sink directly) so the manifest's
        // table list is a consistent snapshot.
        let tables = self.tables.write();
        let mut names: Vec<&String> = tables.keys().collect();
        names.sort();
        for name in names {
            if !wal.needs_flush(name) {
                continue;
            }
            // Hold the table's read lock across the flush: writers log under
            // the write lock, so nothing can slip a record between the image
            // serialization and the watermark sample inside `flush_table`.
            let guard = tables[name].read();
            let (bytes, spans) = persist::table_to_bytes_physical_indexed(&guard)?;
            let file = wal.flush_table(name, &bytes)?;
            guard.assign_spill_addrs(&file, &spans)?;
        }
        wal.finish_checkpoint()?;
        drop(tables);
        self.pool.enforce();
        Ok(())
    }

    /// Sorted list of table names.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// Writes each table's physical image to a fresh segment file under one WAL
/// `Commit` record, then points the table's segments at their new disk twins.
fn commit_images(wal: &WalSink, tables: [&Table; 2]) -> StorageResult<()> {
    let mut entries = Vec::with_capacity(tables.len());
    let mut spans = Vec::with_capacity(tables.len());
    for t in tables {
        let (bytes, sp) = persist::table_to_bytes_physical_indexed(t)?;
        entries.push((t.name().to_string(), bytes));
        spans.push(sp);
    }
    let files = wal.commit_replace(&entries, &[])?;
    for ((t, (_, file)), sp) in tables.iter().zip(&files).zip(&spans) {
        t.assign_spill_addrs(file, sp)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Field, Value};

    fn schema() -> Arc<Schema> {
        Schema::new(vec![Field::new("x", DataType::Int)])
    }

    #[test]
    fn create_get_drop() {
        let cat = Catalog::new();
        cat.create_table("T1", schema(), TableOptions::default()).unwrap();
        assert!(cat.contains("t1"));
        assert!(cat.get("T1").is_ok());
        cat.drop_table("t1").unwrap();
        assert!(!cat.contains("t1"));
        assert!(matches!(cat.get("t1"), Err(StorageError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_create_rejected() {
        let cat = Catalog::new();
        cat.create_table("t", schema(), TableOptions::default()).unwrap();
        assert!(matches!(
            cat.create_table("T", schema(), TableOptions::default()),
            Err(StorageError::DuplicateTable(_))
        ));
    }

    #[test]
    fn swap_exchanges_contents() {
        let cat = Catalog::new();
        let a = cat.create_table("a", schema(), TableOptions::default()).unwrap();
        let b = cat.create_table("b", schema(), TableOptions::default()).unwrap();
        a.write().insert_row(vec![Value::Int(1)]).unwrap();
        b.write().insert_row(vec![Value::Int(2)]).unwrap();
        b.write().insert_row(vec![Value::Int(3)]).unwrap();
        cat.swap("a", "b").unwrap();
        assert_eq!(cat.get("a").unwrap().read().num_rows(), 2);
        assert_eq!(cat.get("b").unwrap().read().num_rows(), 1);
        assert_eq!(cat.get("a").unwrap().read().name(), "a");
        // Swapping a table with itself is a no-op.
        cat.swap("a", "A").unwrap();
        assert_eq!(cat.get("a").unwrap().read().num_rows(), 2);
    }

    #[test]
    fn swap_missing_table_rejected() {
        let cat = Catalog::new();
        cat.create_table("a", schema(), TableOptions::default()).unwrap();
        assert!(cat.swap("a", "nope").is_err());
    }

    #[test]
    fn list_is_sorted() {
        let cat = Catalog::new();
        cat.create_table("zeta", schema(), TableOptions::default()).unwrap();
        cat.create_table("alpha", schema(), TableOptions::default()).unwrap();
        assert_eq!(cat.list(), vec!["alpha".to_string(), "zeta".to_string()]);
    }

    #[test]
    fn replace_contents_swaps_under_existing_handle() {
        let cat = Catalog::new();
        let t = cat.create_table("t", schema(), TableOptions::default()).unwrap();
        t.write().insert_row(vec![Value::Int(1)]).unwrap();

        let mut fresh = Table::new("whatever", schema(), TableOptions::default());
        fresh.insert_row(vec![Value::Int(7)]).unwrap();
        fresh.insert_row(vec![Value::Int(8)]).unwrap();
        cat.replace_contents("T", fresh).unwrap();

        // The *same* handle observes the new contents under the old name.
        assert_eq!(t.read().num_rows(), 2);
        assert_eq!(t.read().name(), "t");
        assert_eq!(cat.get("t").unwrap().read().num_rows(), 2);
        assert!(cat
            .replace_contents("ghost", Table::new("x", schema(), TableOptions::default()))
            .is_err());
    }

    #[test]
    fn drop_if_exists() {
        let cat = Catalog::new();
        assert!(!cat.drop_table_if_exists("ghost").unwrap());
        cat.create_table("t", schema(), TableOptions::default()).unwrap();
        assert!(cat.drop_table_if_exists("t").unwrap());
    }
}

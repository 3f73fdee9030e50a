//! Counter snapshots, summary statistics and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use vertexica_sql::Database;

/// A finite number as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Median of a sample; 0 for an empty one.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The process's peak resident set (`VmHWM`) in MiB, or 0 where `/proc`
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The cumulative counters the engine's layers expose, summed over every
/// database (one per shard) at one instant.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub tasks: u64,
    pub steals: u64,
    pub nested_scopes: u64,
    pub queue_wait_s: f64,
    pub wal_records: u64,
    pub wal_bytes: u64,
    pub flush_bytes: u64,
    pub tables_flushed: u64,
    pub checkpoints: u64,
    pub evictions: u64,
    pub reloads: u64,
    /// `(database index, table) -> [bytes decoded, blocks pruned, segments
    /// pruned]` for every table in the catalog.
    tables: BTreeMap<(usize, String), [u64; 3]>,
}

/// Per-table scan counters summed over the tables alive at the later
/// snapshot (a table dropped in between takes its counts with it).
#[derive(Debug, Clone, Copy, Default)]
pub struct TableDelta {
    pub bytes_decoded: u64,
    pub blocks_pruned: u64,
    pub segments_pruned: u64,
}

impl Counters {
    pub fn snapshot(dbs: &[Arc<Database>]) -> Counters {
        let mut c = Counters::default();
        for (i, db) in dbs.iter().enumerate() {
            let pm = db.runtime().metrics();
            c.tasks += pm.tasks_executed;
            c.steals += pm.tasks_stolen;
            c.nested_scopes += pm.nested_scopes;
            c.queue_wait_s += pm.queue_wait_secs;
            if let Some(d) = db.durability_stats() {
                c.wal_records += d.wal_records;
                c.wal_bytes += d.wal_bytes;
                c.flush_bytes += d.flush_bytes;
                c.tables_flushed += d.tables_flushed;
                c.checkpoints += d.checkpoints;
            }
            let bp = db.catalog().buffer_pool().stats();
            c.evictions += bp.evictions;
            c.reloads += bp.reloads;
            for name in db.catalog().list() {
                if let Ok(table) = db.catalog().get(&name) {
                    let t = table.read();
                    c.tables.insert(
                        (i, name),
                        [t.bytes_decoded(), t.blocks_pruned(), t.segments_pruned()],
                    );
                }
            }
        }
        c
    }

    /// Counter increments from `earlier` to `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steals: self.steals.saturating_sub(earlier.steals),
            nested_scopes: self.nested_scopes.saturating_sub(earlier.nested_scopes),
            queue_wait_s: (self.queue_wait_s - earlier.queue_wait_s).max(0.0),
            wal_records: self.wal_records.saturating_sub(earlier.wal_records),
            wal_bytes: self.wal_bytes.saturating_sub(earlier.wal_bytes),
            flush_bytes: self.flush_bytes.saturating_sub(earlier.flush_bytes),
            tables_flushed: self.tables_flushed.saturating_sub(earlier.tables_flushed),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            reloads: self.reloads.saturating_sub(earlier.reloads),
            tables: self
                .tables
                .iter()
                .map(|(k, now)| {
                    let before = earlier.tables.get(k).copied().unwrap_or([0; 3]);
                    let d = [0, 1, 2].map(|j| now[j].saturating_sub(before[j]));
                    (k.clone(), d)
                })
                .collect(),
        }
    }

    pub fn table_totals(&self) -> TableDelta {
        let mut t = TableDelta::default();
        for [bd, bp, sp] in self.tables.values() {
            t.bytes_decoded += bd;
            t.blocks_pruned += bp;
            t.segments_pruned += sp;
        }
        t
    }

    /// The counters as `(name, value)` span attributes.
    pub fn attrs(&self) -> Vec<(&'static str, f64)> {
        let t = self.table_totals();
        vec![
            ("runtime.tasks", self.tasks as f64),
            ("runtime.steals", self.steals as f64),
            ("runtime.queue_wait_s", self.queue_wait_s),
            ("runtime.nested_scopes", self.nested_scopes as f64),
            ("wal.records", self.wal_records as f64),
            ("wal.bytes", self.wal_bytes as f64),
            ("wal.flush_bytes", self.flush_bytes as f64),
            ("wal.tables_flushed", self.tables_flushed as f64),
            ("wal.checkpoints", self.checkpoints as f64),
            ("buffer_pool.evictions", self.evictions as f64),
            ("buffer_pool.reloads", self.reloads as f64),
            ("sql.bytes_decoded", t.bytes_decoded as f64),
            ("sql.blocks_pruned", t.blocks_pruned as f64),
            ("sql.segments_pruned", t.segments_pruned as f64),
        ]
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i > 0 { ", " } else { "" };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 2, 0, &[Metric { name: "run_s", value: 1.25, unit: "s" }]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 2, \"failed\": 0, \
             \"metrics\": {\"run_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}

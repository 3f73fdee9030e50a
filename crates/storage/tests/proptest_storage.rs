//! Property-based tests for the storage layer: encoding round-trips, bitmap
//! algebra, persistence fidelity, table scan/DML invariants.

use proptest::prelude::*;
use vertexica_storage::encoding::EncodedColumn;
use vertexica_storage::persist;
use vertexica_storage::{
    Bitmap, Column, ColumnPredicate, DataType, Field, PredicateOp, RecordBatch, Schema, Table,
    TableOptions, Value,
};

fn arb_value_for(dtype: DataType) -> BoxedStrategy<Value> {
    match dtype {
        DataType::Bool => {
            prop_oneof![Just(Value::Null), any::<bool>().prop_map(Value::Bool)].boxed()
        }
        DataType::Int => prop_oneof![
            1 => Just(Value::Null),
            9 => any::<i64>().prop_map(Value::Int)
        ]
        .boxed(),
        DataType::Float => prop_oneof![
            1 => Just(Value::Null),
            9 => (-1e12f64..1e12).prop_map(Value::Float)
        ]
        .boxed(),
        DataType::Str => prop_oneof![
            1 => Just(Value::Null),
            9 => "[a-z]{0,12}".prop_map(Value::Str)
        ]
        .boxed(),
        DataType::Blob => prop_oneof![
            1 => Just(Value::Null),
            9 => proptest::collection::vec(any::<u8>(), 0..24).prop_map(Value::Blob)
        ]
        .boxed(),
    }
}

fn arb_dtype() -> impl Strategy<Value = DataType> {
    prop_oneof![
        Just(DataType::Bool),
        Just(DataType::Int),
        Just(DataType::Float),
        Just(DataType::Str),
        Just(DataType::Blob),
    ]
}

fn arb_column() -> impl Strategy<Value = (DataType, Vec<Value>)> {
    arb_dtype().prop_flat_map(|dt| {
        proptest::collection::vec(arb_value_for(dt), 0..200).prop_map(move |vals| (dt, vals))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every encoding decodes back to exactly the input values.
    #[test]
    fn encodings_roundtrip((dtype, values) in arb_column()) {
        let col = Column::from_values(dtype, &values).unwrap();
        let auto = EncodedColumn::encode_auto(&col).decode().unwrap();
        prop_assert_eq!(auto.iter().collect::<Vec<_>>(), values.clone());

        let rle = EncodedColumn::encode_rle(&col).decode().unwrap();
        prop_assert_eq!(rle.iter().collect::<Vec<_>>(), values.clone());

        if dtype == DataType::Str {
            let dict = EncodedColumn::encode_dict(&col).decode().unwrap();
            prop_assert_eq!(dict.iter().collect::<Vec<_>>(), values);
        }
    }

    /// Bitmap algebra obeys De Morgan and cardinality laws.
    #[test]
    fn bitmap_algebra(bits_a in proptest::collection::vec(any::<bool>(), 1..300)) {
        let n = bits_a.len();
        let bits_b: Vec<bool> = bits_a.iter().map(|b| !b).collect();
        let a = Bitmap::from_iter_bool(bits_a.iter().copied());
        let b = Bitmap::from_iter_bool(bits_b.iter().copied());
        prop_assert_eq!(a.and(&b).count_ones(), 0);
        prop_assert_eq!(a.or(&b).count_ones(), n);
        // De Morgan: !(a & b) == !a | !b
        prop_assert_eq!(a.and(&b).not(), a.not().or(&b.not()));
        prop_assert_eq!(a.count_ones() + a.count_zeros(), n);
        // iter_ones agrees with get.
        for i in a.iter_ones() {
            prop_assert!(a.get(i));
        }
    }

    /// Tables persist and restore to the same logical content, and the
    /// restored table re-serializes to the identical bytes.
    #[test]
    fn persistence_is_lossless(
        rows in proptest::collection::vec(
            (any::<i64>(), "[a-z]{0,6}", proptest::option::of(-1e6f64..1e6)),
            0..120,
        )
    ) {
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ]);
        let mut t = Table::new("t", schema.clone(), TableOptions::default().with_moveout_threshold(32));
        for (id, name, score) in &rows {
            t.insert_row(vec![
                Value::Int(*id),
                Value::Str(name.clone()),
                score.map(Value::Float).unwrap_or(Value::Null),
            ]).unwrap();
        }
        let bytes = persist::table_to_bytes_physical(&t).unwrap();
        let back = persist::table_from_bytes_physical(&bytes).unwrap();
        prop_assert_eq!(back.num_rows(), t.num_rows());
        prop_assert_eq!(persist::table_to_bytes_physical(&back).unwrap(), bytes);
        let read = |t: &Table| {
            let b = t.scan(None, &[]).unwrap();
            let merged = RecordBatch::concat(schema.clone(), &b).unwrap();
            let mut rows = merged.rows();
            rows.sort_by(|a, b| {
                format!("{a:?}").cmp(&format!("{b:?}"))
            });
            rows
        };
        prop_assert_eq!(read(&t), read(&back));
    }

    /// Scan predicates return exactly the rows a full-scan filter would.
    #[test]
    fn scan_predicates_match_post_filter(
        keys in proptest::collection::vec(-100i64..100, 1..200),
        threshold in -100i64..100,
    ) {
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int)]);
        let mut t = Table::new("t", schema, TableOptions::default().with_moveout_threshold(16).sorted_by(vec![0]));
        for k in &keys {
            t.insert_row(vec![Value::Int(*k)]).unwrap();
        }
        let pred = ColumnPredicate::new(0, PredicateOp::Gt, Value::Int(threshold));
        let got: usize = t.scan(None, &[pred]).unwrap().iter().map(|b| b.num_rows()).sum();
        let expected = keys.iter().filter(|&&k| k > threshold).count();
        prop_assert_eq!(got, expected);
    }

    /// delete + count stays consistent under arbitrary delete sets.
    #[test]
    fn deletes_are_exact(
        n in 1usize..150,
        delete_mask in proptest::collection::vec(any::<bool>(), 150),
    ) {
        let schema = Schema::new(vec![Field::not_null("k", DataType::Int)]);
        let mut t = Table::new("t", schema, TableOptions::default().with_moveout_threshold(20));
        for i in 0..n {
            t.insert_row(vec![Value::Int(i as i64)]).unwrap();
        }
        let scans = t.scan_with_rowids(None, &[]).unwrap();
        let mut doomed = Vec::new();
        let mut expected_dead = 0;
        for (batch, ids) in &scans {
            for (i, &rowid) in ids.iter().enumerate().take(batch.num_rows()) {
                let key = batch.row(i)[0].as_int().unwrap() as usize;
                if delete_mask[key] {
                    doomed.push(rowid);
                    expected_dead += 1;
                }
            }
        }
        let dead = t.delete_rowids(&doomed).unwrap();
        prop_assert_eq!(dead, expected_dead);
        prop_assert_eq!(t.num_rows(), n - expected_dead);
        // Deleted keys never reappear in scans.
        for b in t.scan(None, &[]).unwrap() {
            for i in 0..b.num_rows() {
                let key = b.row(i)[0].as_int().unwrap() as usize;
                prop_assert!(!delete_mask[key]);
            }
        }
    }

    /// A pull-based scan cursor over any mix of WOS rows, ROS segments,
    /// delete vectors and pushed-down predicates yields, concatenated,
    /// exactly the eager scan's batches — bitwise, batch for batch — and
    /// exactly the rows a reference row-filter selects.
    #[test]
    fn scan_cursor_is_bitwise_equal_to_eager_scan(
        rows in proptest::collection::vec(
            (-50i64..50, proptest::option::of(-100i64..100)),
            0..150,
        ),
        moveout in 3usize..40,
        compress in any::<bool>(),
        delete_mask in proptest::collection::vec(any::<bool>(), 150),
        threshold in -50i64..50,
        flip in any::<bool>(),
    ) {
        let schema = Schema::new(vec![
            Field::not_null("k", DataType::Int),
            Field::new("v", DataType::Int),
        ]);
        let mut options = TableOptions::default().with_moveout_threshold(moveout);
        if compress {
            options = options.compressed();
        }
        let mut t = Table::new("t", schema, options);
        for (k, v) in &rows {
            t.insert_row(vec![Value::Int(*k), v.map(Value::Int).unwrap_or(Value::Null)]).unwrap();
        }
        // Random deletes across WOS and ROS, addressed by scan position.
        let mut doomed = Vec::new();
        let mut live = vec![true; rows.len()];
        let mut pos = 0usize;
        for (_, ids) in t.scan_with_rowids(None, &[]).unwrap() {
            for id in ids {
                if delete_mask[pos % delete_mask.len()] {
                    doomed.push(id);
                    live[pos] = false;
                }
                pos += 1;
            }
        }
        // Rowid scan order may interleave WOS/ROS differently from insert
        // order, so recompute the expected survivors from the table itself.
        t.delete_rowids(&doomed).unwrap();
        let op = if flip { PredicateOp::Gt } else { PredicateOp::LtEq };
        let pred = ColumnPredicate::new(0, op, Value::Int(threshold));

        let eager = t.scan(None, std::slice::from_ref(&pred)).unwrap();
        let mut cursor = t.scan_cursor(None, std::slice::from_ref(&pred)).unwrap();
        let mut pulled = Vec::new();
        while let Some(b) = cursor.next_batch().unwrap() {
            pulled.push(b);
        }
        // Batch-for-batch bitwise identity (same segmentation, same rows).
        prop_assert_eq!(eager.len(), pulled.len());
        for (e, p) in eager.iter().zip(&pulled) {
            prop_assert_eq!(e.num_rows(), p.num_rows());
            prop_assert_eq!(e.rows(), p.rows());
        }
        // And both equal the reference row filter over live rows.
        let unfiltered: usize = t.scan(None, &[]).unwrap().iter().map(|b| b.num_rows()).sum();
        let expected: usize = {
            let all: Vec<Vec<Value>> =
                t.scan(None, &[]).unwrap().iter().flat_map(|b| b.rows()).collect();
            all.iter().filter(|r| pred.matches(&r[0])).count()
        };
        prop_assert!(unfiltered <= rows.len());
        prop_assert_eq!(RecordBatch::total_rows(&pulled), expected);
    }

    /// Evicting every checkpointed segment out of the buffer pool and
    /// faulting it back in through its `.vxtb` spill image is bitwise
    /// lossless: scans return identical rows and the physical table image
    /// re-serializes to the same bytes, for arbitrary row mixes, moveout
    /// granularities and encodings.
    #[test]
    fn evict_reload_roundtrips_bitwise(
        rows in proptest::collection::vec(
            (any::<i64>(), proptest::option::of("[a-z]{0,8}"), proptest::option::of(-1e9f64..1e9)),
            1..180,
        ),
        moveout in 4usize..48,
        compress in any::<bool>(),
    ) {
        use vertexica_common::sync::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "vx_evict_prop_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let schema = Schema::new(vec![
            Field::not_null("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ]);
        let mut options = TableOptions::default().with_moveout_threshold(moveout);
        if compress {
            options = options.compressed();
        }
        let catalog = vertexica_storage::open_durable(&dir, false).unwrap();
        let t = catalog.create_table("t", schema, options).unwrap();
        for (id, name, score) in &rows {
            t.write().insert_row(vec![
                Value::Int(*id),
                name.clone().map(Value::Str).unwrap_or(Value::Null),
                score.map(Value::Float).unwrap_or(Value::Null),
            ]).unwrap();
        }
        t.write().moveout().unwrap();
        catalog.checkpoint().unwrap();

        let before_rows: Vec<Vec<Value>> = t
            .read()
            .scan(None, &[])
            .unwrap()
            .iter()
            .flat_map(|b| b.rows())
            .collect();
        let before_image = persist::table_to_bytes_physical(&t.read()).unwrap();

        let pool = catalog.buffer_pool();
        pool.set_budget(Some(1));
        prop_assert!(pool.stats().evictions >= 1, "at least one segment must evict");

        let after_rows: Vec<Vec<Value>> = t
            .read()
            .scan(None, &[])
            .unwrap()
            .iter()
            .flat_map(|b| b.rows())
            .collect();
        prop_assert_eq!(before_rows, after_rows);
        let after_image = persist::table_to_bytes_physical(&t.read()).unwrap();
        prop_assert_eq!(before_image, after_image);
        prop_assert!(pool.stats().reloads >= 1);

        drop(t);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Values survive a coerce to their own type, and Int→Float→Int is the
    /// identity on integers that fit.
    #[test]
    fn coercion_laws(v in any::<i32>()) {
        let int = Value::Int(v as i64);
        prop_assert_eq!(int.coerce(DataType::Int).unwrap(), int.clone());
        let f = int.coerce(DataType::Float).unwrap();
        prop_assert_eq!(f.coerce(DataType::Int).unwrap(), int);
    }
}

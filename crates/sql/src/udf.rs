//! Transform UDFs — the engine's equivalent of Vertica's UDx framework.
//!
//! The paper's **workers** (§2.2) "run as database UDFs": each receives a hash
//! partition of the table union, parses vertex/edge/message tuples out of it,
//! runs the vertex program, and emits new vertex values and messages as rows.
//! [`TransformUdf`] is that contract: a table-in/table-out function executed
//! per partition, in parallel across partitions.

use std::sync::Arc;

use vertexica_storage::{RecordBatch, Schema};

use crate::error::SqlResult;

/// A table-valued transform function.
///
/// Implementations must be thread-safe: the engine runs one logical invocation
/// per partition, on a pool of worker threads (the paper: "as many parallel
/// workers as the number of cores").
pub trait TransformUdf: Send + Sync {
    /// Output schema for a given input schema.
    fn output_schema(&self, input: &Schema) -> SqlResult<Arc<Schema>>;

    /// Processes one partition of input batches into output batches.
    fn execute(&self, partition: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use vertexica_storage::{Column, ColumnBuilder, DataType, Field, Value};

    /// Doubles an integer column — the simplest possible transform.
    struct Doubler;

    impl TransformUdf for Doubler {
        fn output_schema(&self, _input: &Schema) -> SqlResult<Arc<Schema>> {
            Ok(Schema::new(vec![Field::new("doubled", DataType::Int)]))
        }

        fn execute(&self, partition: Vec<RecordBatch>) -> SqlResult<Vec<RecordBatch>> {
            let out_schema = Schema::new(vec![Field::new("doubled", DataType::Int)]);
            let mut out = Vec::new();
            for batch in partition {
                let mut b = ColumnBuilder::with_capacity(DataType::Int, batch.num_rows());
                for i in 0..batch.num_rows() {
                    match batch.column(0).value(i) {
                        Value::Int(v) => b.push_int(v * 2),
                        _ => b.push_null(),
                    }
                }
                let col: Column = b.finish();
                out.push(RecordBatch::new(out_schema.clone(), vec![col])?);
            }
            Ok(out)
        }
    }

    #[test]
    fn transform_udf_contract() {
        let udf = Doubler;
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        let batch =
            RecordBatch::from_rows(schema.clone(), &[vec![Value::Int(1)], vec![Value::Int(5)]])
                .unwrap();
        let out = udf.execute(vec![batch]).unwrap();
        assert_eq!(out[0].column(0).value(1), Value::Int(10));
        assert_eq!(udf.output_schema(&schema).unwrap().fields[0].name, "doubled");
    }
}

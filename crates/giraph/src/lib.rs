//! A Giraph-like in-memory BSP engine — the Figure-2 baseline.
//!
//! Faithful Pregel semantics (supersteps, synchronization barriers,
//! serialized message passing between hash partitions, combiners, global
//! aggregators, vote-to-halt) running the *same*
//! [`vertexica_common::VertexProgram`] implementations as the relational
//! Vertexica engine, so results can be asserted equal across engines.
//!
//! Apache Giraph itself is a JVM/Hadoop system; its constant costs (JVM/job
//! startup, ZooKeeper-coordinated barriers, Writable serialization) dominate
//! small graphs — the effect behind Figure 2's "Vertexica is 4× faster than
//! Giraph on the small graph, comparable on the large ones". Those costs are
//! modelled explicitly and configurably in [`overhead::OverheadModel`]
//! (a documented substitution; [`overhead`] gives the calibration against
//! the paper's published Giraph runtimes); `OverheadModel::none()`
//! gives the raw engine.

pub mod engine;
pub mod overhead;

pub use engine::{GiraphEngine, GiraphRunStats};
pub use overhead::OverheadModel;

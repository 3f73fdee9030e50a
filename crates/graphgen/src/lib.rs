//! Graph and metadata generators for the Vertexica reproduction.
//!
//! The paper evaluates on SNAP social graphs (Twitter, GPlus, LiveJournal)
//! and extends them with rich per-node/per-edge metadata (§4). Those exact
//! datasets are not redistributable here, so this crate provides:
//!
//! * [`rmat`] — an R-MAT/Kronecker generator whose heavy-tailed degree
//!   distributions match social networks (the property the experiments
//!   exercise);
//! * [`models`] — classical models (Erdős–Rényi, Barabási–Albert, grid,
//!   star, chain, complete, bipartite) for tests and micro-benchmarks;
//! * [`profiles`] — named profiles `twitter`/`gplus`/`livejournal` matching
//!   the paper's node/edge counts at `scale = 1.0` and downscalable for CI;
//! * [`metadata`] — the §4 metadata schema: 24 uniform ints, 8 zipfian ints,
//!   18 floats, 10 strings per node; weight/timestamp/type per edge;
//! * [`snap_io`] — SNAP edge-list reading/writing so real datasets drop in;
//! * [`stats`] — degree statistics used by tests.

pub mod metadata;
pub mod models;
pub mod profiles;
pub mod rmat;
pub mod snap_io;
pub mod stats;

pub use profiles::{dataset, DatasetProfile};
pub use rmat::{rmat_graph, RmatConfig};

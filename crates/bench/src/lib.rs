//! Shared pieces of `bench_serve` (the serving load generator whose JSON
//! snapshot `report --bench-diff` gates) and of the workspace-root examples
//! and integration tests. Kernel and layer timings live in `benchmark/`, the
//! repo's one experiment harness; paper tables and figures are not
//! regenerated here either, and DESIGN.md §3 says what measures or checks
//! each one.
//!
//! * [`ExpArgs`] — uniform CLI (`--scale`, `--threads`, `--trees`,
//!   `--seed`, `--full`, `--test`, `--out`);
//! * [`Table`] — aligned-markdown table rendering plus JSON dump;
//! * [`prepared`] — dataset generation + quantization, done once so every
//!   trainer sees byte-identical inputs;
//! * [`harp_params`] — the HarpGBDT configuration the paper uses in its
//!   headline comparisons (§V-E: K=32, feature_blk=4, node_blk=32, DP at
//!   D8 and ASYNC above).

pub mod args;
pub mod report;
pub mod runner;

pub use args::ExpArgs;
pub use report::Table;
pub use runner::{harp_params, prepared, run_config, PreparedData, RunResult};

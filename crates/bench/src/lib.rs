//! Shared pieces of the two gated bench binaries (`bench_buildhist`,
//! `bench_serve`), the Criterion micro-benchmarks and the workspace-root
//! integration tests. Paper tables and figures are not regenerated here:
//! `benchmark/` measures the layers they describe, and DESIGN.md §3 says
//! what measures or checks each one.
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
pub use runner::{harp_params, prepared, quantize_default, run_config, PreparedData, RunResult};

//! Experiment harness for the HarpGBDT reproduction.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see `DESIGN.md` §3 for the index). This library holds the shared pieces:
//!
//! * [`ExpArgs`] — uniform CLI (`--scale`, `--threads`, `--trees`,
//!   `--seed`, `--full`, `--out`);
//! * [`Table`] — aligned-markdown table rendering plus optional JSON dump;
//! * [`prepared`] — dataset generation + quantization, done once per
//!   experiment so every trainer sees byte-identical inputs;
//! * [`harp_params`] — the HarpGBDT configuration the paper uses in its
//!   headline comparisons (§V-E: K=32, feature_blk=4, node_blk=32, DP at
//!   D8 and ASYNC above).

pub mod args;
pub mod report;
pub mod runner;

pub use args::ExpArgs;
pub use report::Table;
pub use runner::{
    chunked_store, harp_params, harp_params_for, prepared, quantize_default, run_config, warmup,
    PreparedData, RunResult,
};

//! Histogram initialization: quantile binning of raw feature values into
//! `u8` bin ids.
//!
//! The paper's preprocessing step (§IV-E) replaces feature values by their
//! bin-id counterparts, reducing "the memory footprint to 1/4 as bin id need
//! only 1 Byte when max bin size is 256". This crate owns that step:
//!
//! * [`BinMapper`] — per-feature cut points at the exact quantiles of each
//!   column (long columns bucketed by counting with each quantile selected
//!   inside its bucket, short ones sorted; columns in parallel), plus
//!   value→bin lookup.
//! * [`QuantizedMatrix`] — the binned dataset in both row-major and
//!   column-major layouts (data parallelism scans rows; feature/model
//!   parallelism scans columns), written by row-block tasks in parallel;
//!   sparse data is stored as a CSC, and its CSR is made on the first row
//!   read.
//!
//! Together the two are *set-up*: what a user pays before the first tree.
//! It holds `threads × (n_rows × 6 + 260 KiB)` transient bytes beyond the
//! storage it returns (plus `nnz × 4` for sparse input);
//! `tests/setup_footprint.rs` gates that with a counting allocator.
//!
//! One bin id is reserved as the missing-value sentinel in dense storage, so
//! `max_bins` is capped at 255 rather than the paper's 256; missing-value
//! statistics are recovered as `node_total − Σ bins` (the LightGBM trick) and
//! the split finder decides a per-split default direction for them.
//!
//! Storage has one byte layout per kind: dense `u8` bins in both majors, or
//! a sparse CSC whose CSR is made on the first row read. Nothing is packed
//! or bundled on top (DESIGN.md §13).

mod bytes;
mod cache;
mod codec;
mod mapper;
mod quantized;
mod setup;
mod store;

pub use cache::{
    write_cache, CacheError, CacheSummary, ChunkedStore, CACHE_MAGIC, CACHE_VERSION,
    DEFAULT_ROWS_PER_CHUNK,
};
pub use mapper::{BinMapper, BinningConfig, FeatureCuts};
pub use quantized::{seek_row, QuantizedMatrix, SetupTimings, MISSING_BIN};
pub use store::{sweep_chunks, ChunkIoStats, ChunkRun, PinnedChunk, QuantStore, Rows};

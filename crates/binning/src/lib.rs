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
//!   parallelism scans columns), with CSR/CSC pairs for sparse data, written
//!   by row-block tasks in parallel.
//!
//! Together the two are *set-up*: what a user pays before the first tree.
//! It holds `threads × (n_rows × 6 + 260 KiB)` transient bytes beyond the
//! storage it returns (plus `nnz × 8` for sparse input);
//! `tests/setup_footprint.rs` gates that with a counting allocator.
//!
//! One bin id is reserved as the missing-value sentinel in dense storage, so
//! `max_bins` is capped at 255 rather than the paper's 256; missing-value
//! statistics are recovered as `node_total − Σ bins` (the LightGBM trick) and
//! the split finder decides a per-split default direction for them.
//!
//! Two compressed layouts sit on top of the base storage (DESIGN.md §13):
//! nibble-packed dense bins ([`U4Pack`], auto-selected when every feature
//! fits 16 bins) and exclusive feature bundling ([`bundling`], fusing
//! mutually-exclusive sparse features into dense synthetic columns). Both
//! are exact re-encodings; one [`LayoutOptions`] switch turns both on or off.

pub mod bundling;
mod bytes;
mod cache;
mod codec;
mod mapper;
mod quantized;
mod setup;
mod store;

pub use bundling::{BundleMap, BundleMember, BundleSlot};
pub use cache::{
    write_cache, CacheError, CacheSummary, ChunkedStore, CACHE_MAGIC, CACHE_VERSION,
    DEFAULT_ROWS_PER_CHUNK,
};
pub use mapper::{BinMapper, BinningConfig, FeatureCuts};
pub use quantized::{
    LayoutOptions, LayoutStats, QuantizedMatrix, SetupTimings, U4Pack, MISSING_BIN, MISSING_NIBBLE,
};
pub use store::{sweep_chunks, ChunkIoStats, ChunkRun, PinnedChunk, QuantStore, Rows, StoreLayout};

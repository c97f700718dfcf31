//! The five workloads: what each trains on, with which configuration, and
//! the outputs it must reproduce.

use crate::spans::Recorder;
use harp_binning::{write_cache, BinningConfig, ChunkedStore, QuantStore, QuantizedMatrix};
use harp_data::{Dataset, DatasetKind, FeatureMatrix, SynthConfig};
use harpgbdt::{BlockConfig, GrowthMethod, ParallelMode, TrainParams};
use std::path::PathBuf;

/// `--seconds` value the round counts below are sized for (on a 2-core
/// host, ~2 s per training call); other values scale the rounds linearly.
pub const REFERENCE_SECONDS: u64 = 10;

/// Rows per chunk of the chunked workload's cache file.
const ROWS_PER_CHUNK: usize = 16_384;

/// Share of the decoded matrix the chunked store may keep resident.
const CHUNK_BUDGET_FRACTION: f64 = 0.25;

/// Seed of every workload's population: the teacher that labels the rows.
/// `--seed` draws the sample and the split, not the problem, so `test_auc`
/// moves between seeds by sampling noise alone (0.2-0.6% on the dense
/// workloads, 1.1% on `yfcc_sparse_mp`; a fresh teacher per seed moved it
/// by 1-5%).
const POPULATION_SEED: u64 = 7;

/// One benchmark workload.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Why it is in the set; also the `why` of `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: DatasetKind,
    /// Multiplier on the generator's base row count.
    pub scale: f64,
    /// Share of the generated rows held out for `test_auc`.
    pub test_fraction: f64,
    pub tree_size: u32,
    pub mode: ParallelMode,
    /// Train through a `ChunkedStore` under a resident budget.
    pub chunked: bool,
    /// Boosting rounds of one full-length training call at
    /// [`REFERENCE_SECONDS`]: the end-to-end run makes one, the traced pass
    /// repeats it, see `layers`.
    pub rounds: usize,
    /// Rounds of the traced pass's side runs (1 thread, 4x threads,
    /// baselines); at most `rounds`.
    pub side_rounds: usize,
    /// Mean leaves per tree the end-to-end run must reach: the leaf budget
    /// `2^D` at D4 and D8; at D10 the seed-7 trees also fill it (1024), and
    /// 5% is left for seeds whose deepest trees run out of gain first.
    pub min_leaves_per_tree: f64,
    /// Held-out AUC the end-to-end run must exceed: 0.03 under the median
    /// over seeds 7-16 (`yfcc_sparse_mp`, which learns 4096 features from
    /// 1800 rows: 0.05 under).
    pub auc_floor: f64,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "higgs_dense_dp",
        why: "the paper's headline shape: row-proportional work on a dense 28-feature matrix, BuildHist does most of it",
        kind: DatasetKind::HiggsLike,
        scale: 20.0,
        test_fraction: 0.1,
        tree_size: 8,
        mode: ParallelMode::DataParallel,
        chunked: false,
        rounds: 18,
        side_rounds: 20,
        min_leaves_per_tree: 256.0,
        auc_floor: 0.78,
    },
    Workload {
        name: "criteo_deep_async",
        why: "node-proportional work: ~1000-leaf trees on few rows, FindSplit and the ASYNC queue/spin path dominate, BuildHist is small",
        kind: DatasetKind::CriteoLike,
        scale: 4.0,
        test_fraction: 0.1,
        tree_size: 10,
        mode: ParallelMode::Async,
        chunked: false,
        rounds: 14,
        side_rounds: 20,
        min_leaves_per_tree: 970.0,
        auc_floor: 0.818,
    },
    Workload {
        name: "yfcc_sparse_mp",
        why: "histogram-width-bound: 4096 sparse features make a 16 MB node histogram, so hist zero/reduce traffic and sparse kernels matter and rows barely do",
        kind: DatasetKind::YfccLike,
        scale: 3.0,
        test_fraction: 0.7,
        tree_size: 4,
        mode: ParallelMode::ModelParallel,
        chunked: false,
        rounds: 6,
        side_rounds: 6,
        min_leaves_per_tree: 16.0,
        auc_floor: 0.695,
    },
    Workload {
        name: "higgs_chunked_dp",
        why: "higgs_dense_dp through the other storage seam (mmap chunk cache, 25% resident): a scan-path or QuantStore change that helps one and costs the other shows",
        kind: DatasetKind::HiggsLike,
        scale: 20.0,
        test_fraction: 0.1,
        tree_size: 8,
        mode: ParallelMode::DataParallel,
        chunked: true,
        rounds: 12,
        side_rounds: 8,
        min_leaves_per_tree: 256.0,
        auc_floor: 0.77,
    },
    Workload {
        name: "airline_thin_sync",
        why: "thin matrix (8 features, many rows): ApplySplit and quantization do most of the work; the only end-to-end cover for the SYNC driver",
        kind: DatasetKind::AirlineLike,
        scale: 12.0,
        test_fraction: 0.1,
        tree_size: 8,
        mode: ParallelMode::Sync,
        chunked: false,
        rounds: 12,
        side_rounds: 20,
        min_leaves_per_tree: 256.0,
        auc_floor: 0.83,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Full-length round count for a `--seconds` value.
    pub fn rounds_for(&self, seconds: u64) -> usize {
        ((self.rounds as u64 * seconds).div_ceil(REFERENCE_SECONDS) as usize).max(4)
    }

    /// The HarpGBDT configuration of the paper's headline comparisons
    /// (§V-E: leafwise `K = 32`, `node_blk 32, feature_blk 4`), with wide
    /// feature blocks and few fused nodes for model parallelism on fat
    /// matrices (§IV-C), and `gamma = 0` so trees reach their leaf budget on
    /// scaled-down data.
    pub fn params(&self, n_trees: usize, threads: usize) -> TrainParams {
        let (node_blk_size, feature_blk_size) =
            if self.mode == ParallelMode::ModelParallel { (8, 32) } else { (32, 4) };
        TrainParams {
            n_trees,
            tree_size: self.tree_size,
            n_threads: threads,
            growth: GrowthMethod::Leafwise,
            k: 32,
            mode: self.mode,
            blocks: BlockConfig {
                row_blk_size: 0,
                node_blk_size,
                feature_blk_size,
                bin_blk_size: 0,
            },
            gamma: 0.0,
            ..TrainParams::default()
        }
    }

    /// Generates this workload's raw inputs from `seed`: a population of
    /// twice the workload's rows, the half of it that `seed` draws, and that
    /// half split into train and held-out test.
    pub fn generate(&self, seed: u64, rec: &mut Recorder) -> RawData {
        let config = SynthConfig::new(self.kind, POPULATION_SEED).with_scale(2.0 * self.scale);
        let (population, generate_secs) = rec.timed("data.generate", || config.generate());
        let n_generated = population.n_rows();
        let ((train, test), split_secs) = rec.timed("data.split", || {
            let (sample, _) = population.split(0.5, seed);
            drop(population);
            sample.split(self.test_fraction, seed)
        });
        RawData { train, test, n_generated, generate_secs, split_secs }
    }
}

/// A workload's raw inputs.
pub struct RawData {
    pub train: Dataset,
    pub test: Dataset,
    pub n_generated: usize,
    pub generate_secs: f64,
    pub split_secs: f64,
}

/// The trainable store built from raw features, plus how long each part of
/// building it took.
pub struct Prepared {
    /// The quantized matrix itself, or the chunk cache opened under its
    /// budget (the matrix is dropped once the cache is written, so the
    /// process holds what an out-of-core run holds). `None` only in `drop`.
    store: Option<Box<dyn QuantStore>>,
    /// The chunk cache file, when the workload trains out of core.
    cache_path: Option<PathBuf>,
    pub quantize_secs: f64,
    pub cache_write_secs: f64,
    pub cache_open_secs: f64,
}

impl Prepared {
    /// Raw features in memory → trainable store: quantization with the
    /// trainer-default binning, plus writing and opening the chunk cache
    /// when the workload trains out of core.
    pub fn build(w: &Workload, features: &FeatureMatrix, rec: &mut Recorder) -> Self {
        let (qm, quantize_secs) = rec.timed("binning.quantize", || {
            QuantizedMatrix::from_matrix(features, BinningConfig::default())
        });
        if !w.chunked {
            return Self {
                store: Some(Box::new(qm)),
                cache_path: None,
                quantize_secs,
                cache_write_secs: 0.0,
                cache_open_secs: 0.0,
            };
        }
        let path = crate::out_dir().join(format!("cache_{}.qsc", std::process::id()));
        let budget = (qm.storage_bytes() as f64 * CHUNK_BUDGET_FRACTION) as u64;
        let (_, cache_write_secs) = rec.timed("binning.cache_write", || {
            write_cache(&qm, ROWS_PER_CHUNK, &path).expect("write chunk cache")
        });
        drop(qm);
        let (store, cache_open_secs) = rec.timed("binning.cache_open", || {
            ChunkedStore::open(&path, budget).expect("open chunk cache")
        });
        Self {
            store: Some(Box::new(store)),
            cache_path: Some(path),
            quantize_secs,
            cache_write_secs,
            cache_open_secs,
        }
    }

    pub fn setup_secs(&self) -> f64 {
        self.quantize_secs + self.cache_write_secs + self.cache_open_secs
    }

    /// The store the workload trains through.
    pub fn store(&self) -> &dyn QuantStore {
        self.store.as_deref().expect("the store lives until drop")
    }

    /// Opens a second handle on the chunk cache under its own budget.
    pub fn reopen_chunked(&self, budget: u64) -> Option<ChunkedStore> {
        self.cache_path
            .as_ref()
            .map(|path| ChunkedStore::open(path, budget).expect("reopen chunk cache"))
    }
}

impl Drop for Prepared {
    fn drop(&mut self) {
        // Close the mapping before unlinking; a missing file is fine.
        self.store = None;
        if let Some(path) = &self.cache_path {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{Hash, Hasher};

    /// Hash of every byte a workload's generator hands the program.
    fn input_hash(w: &Workload, seed: u64) -> u64 {
        let small = Workload { scale: w.scale.min(0.1), ..*w };
        let raw = small.generate(seed, &mut Recorder::new(false));
        let mut h = std::collections::hash_map::DefaultHasher::new();
        for d in [&raw.train, &raw.test] {
            for l in &d.labels {
                l.to_bits().hash(&mut h);
            }
            for r in 0..d.n_rows() {
                d.features.for_each_in_row(r, |c, v| (c, v.to_bits()).hash(&mut h));
            }
        }
        h.finish()
    }

    #[test]
    fn same_seed_gives_identical_inputs_and_another_seed_does_not() {
        for w in &WORKLOADS {
            assert_eq!(input_hash(w, 7), input_hash(w, 7), "{}", w.name);
            assert_ne!(input_hash(w, 7), input_hash(w, 8), "{}", w.name);
        }
    }

    #[test]
    fn names_are_unique_and_rounds_scale_with_seconds() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert_eq!(w.rounds_for(REFERENCE_SECONDS), w.rounds);
            assert!(w.rounds_for(2 * REFERENCE_SECONDS) >= 2 * w.rounds - 1);
            assert!(w.rounds_for(1) >= 4);
            assert!(w.params(3, 2).validate().is_ok());
            assert!(find(w.name).is_some());
        }
        assert!(find("nope").is_none());
    }
}

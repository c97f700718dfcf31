//! Fuzzing the two files the program reads back from disk: the chunk cache
//! (`HARPQSC1`, version 3) and a model's JSON. Each case overwrites a random
//! byte range of a well-formed file, or truncates it. Loading must return
//! `Ok` or a typed error and never panic or abort; whatever loads must then
//! be usable: every chunk of a cache pins, routes and scans, and a model
//! compiles.

use harp_binning::{sweep_chunks, BinningConfig, QuantizedMatrix, Rows};
use harp_data::{CsrMatrix, Dataset, DenseMatrix, FeatureMatrix};
use harpgbdt::hist::hist_width_for;
use harpgbdt::kernels::{row_scan_store, GradSource};
use harpgbdt::{write_cache, ChunkedStore, GbdtModel, GbdtTrainer, QuantStore, TrainParams};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Rows of the fuzzed matrices: 8 chunks of 24 rows.
const N_ROWS: usize = 192;
const ROWS_PER_CHUNK: usize = 24;

/// A value of column `f` in row `r`, about one in seven missing.
fn cell(r: usize, f: usize) -> Option<f32> {
    let h = (r * 31 + f * 17) % 97;
    (h % 7 != 0).then_some(((h * (f + 3)) % 41) as f32 * 0.25 - 3.0)
}

/// A small dense matrix and a small sparse one, quantized.
fn matrices() -> [QuantizedMatrix; 2] {
    let m = 6;
    let values = (0..N_ROWS * m).map(|i| cell(i / m, i % m).unwrap_or(f32::NAN)).collect();
    let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(N_ROWS, m, values));
    let rows: Vec<Vec<(u32, f32)>> = (0..N_ROWS)
        .map(|r| (0..40).filter_map(|f| cell(r, f * 3).map(|v| (f as u32, v))).collect())
        .collect();
    let sparse = FeatureMatrix::Sparse(CsrMatrix::from_rows(40, &rows));
    [dense, sparse].map(|x| QuantizedMatrix::from_matrix(&x, BinningConfig::with_max_bins(16)))
}

/// A unique temp path for one case.
fn temp_path(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("harp_fuzz_{}_{tag}_{n}", std::process::id()))
}

/// The well-formed cache bytes of each matrix, and where its header ends.
fn caches() -> &'static [(Vec<u8>, usize); 2] {
    static CACHES: OnceLock<[(Vec<u8>, usize); 2]> = OnceLock::new();
    CACHES.get_or_init(|| {
        matrices().map(|qm| {
            let path = temp_path("clean");
            write_cache(&qm, ROWS_PER_CHUNK, &path).expect("write cache");
            let bytes = std::fs::read(&path).expect("read cache");
            std::fs::remove_file(&path).ok();
            let header = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
            (bytes, 20 + header)
        })
    })
}

/// `bytes` truncated at `at`, or with `patch` written from `at` on.
fn mutate(bytes: &[u8], truncate: bool, at: usize, patch: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if truncate {
        out.truncate(at);
    } else {
        let end = (at + patch.len()).min(out.len());
        out[at..end].copy_from_slice(&patch[..end - at]);
    }
    out
}

/// Opens the cache `bytes`; a store that opens must pin every chunk, route
/// every feature and scan every row.
fn open_and_read(bytes: &[u8]) -> Result<(), String> {
    let path = temp_path("cache");
    std::fs::write(&path, bytes).expect("write case");
    // Two chunks resident at a time, so the reads below evict.
    let opened = ChunkedStore::open(&path, 2 * 6 * ROWS_PER_CHUNK as u64);
    std::fs::remove_file(&path).ok();
    let store = match opened {
        Ok(store) => store,
        Err(e) => return Err(e.to_string()),
    };
    let (n, m) = (store.n_rows(), store.n_features());
    let mut pinned = 0;
    sweep_chunks(&store, &[Rows::Range(0..n)], |_| {}, |run| pinned += run.slab.n_rows());
    assert_eq!(pinned, n, "a sweep over every row pins every chunk");
    let rows: Vec<u32> = (0..n as u32).collect();
    for f in 0..m {
        let mut bins = Vec::new();
        store.gather_route_bins(f, &rows, &mut bins);
        assert_eq!(bins.len(), n);
    }
    let grads = vec![[1.0f32, 1.0]; n];
    let mut hist = vec![0.0; hist_width_for(&store)];
    row_scan_store(&store, &rows, GradSource::Global(&grads), 0..m, &mut hist, false);
    Ok(())
}

#[test]
fn clean_caches_open_and_read() {
    for (bytes, _) in caches() {
        open_and_read(bytes).expect("a well-formed cache opens");
    }
}

/// Counts the header claims — features, one feature's cuts, chunks — are
/// only read after the parser reserved room for them: a count of 2⁵⁰ or
/// more once made that reservation abort the process (found by the fuzzer
/// below). Each is now the typed error of a header too short to hold it.
#[test]
fn huge_counts_in_a_cache_header_are_typed_errors() {
    let (bytes, _) = &caches()[0];
    // Header fields, from offset 20: flags u8, n_rows, n_features,
    // rows_per_chunk, n_chunks, decoded_bytes, then the mapper's feature
    // count and its first feature's cut count, each a u64.
    let at = |field: usize| 21 + 8 * field;
    let cases: [&[(usize, u64)]; 3] = [
        &[(at(5), 1 << 60)],
        &[(at(6), 1 << 60)],
        &[(at(0), 1 << 50), (at(2), 1), (at(3), 1 << 50)],
    ];
    for fields in cases {
        let mut hostile = bytes.clone();
        for &(at, value) in fields {
            hostile[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        let err = open_and_read(&hostile).expect_err("a hostile header must not open");
        assert!(err.starts_with("malformed cache header"), "{fields:?}: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// A mutated or truncated cache, dense or sparse, opens as a typed
    /// error or as a store every reader can use. Half the cases land in
    /// the prelude and header, where the counts and offsets live.
    #[test]
    fn mutated_caches_open_as_typed_errors_or_readable_stores(
        sparse in any::<bool>(),
        truncate in any::<bool>(),
        in_header in any::<bool>(),
        at in 0usize..1 << 20,
        patch in proptest::collection::vec(any::<u8>(), 1..9),
    ) {
        let (bytes, header_end) = &caches()[usize::from(sparse)];
        let at = at % if in_header { *header_end } else { bytes.len() };
        let _ = open_and_read(&mutate(bytes, truncate, at, &patch));
    }
}

/// A small trained model's JSON.
fn model_json() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let m = 4;
        let values = (0..N_ROWS * m).map(|i| cell(i / m, i % m).unwrap_or(f32::NAN)).collect();
        let x = FeatureMatrix::Dense(DenseMatrix::from_vec(N_ROWS, m, values));
        let labels = (0..N_ROWS).map(|r| f32::from(cell(r, 1).is_some_and(|v| v > 0.0))).collect();
        let params = TrainParams { n_trees: 3, tree_size: 3, n_threads: 1, ..Default::default() };
        let trainer = GbdtTrainer::new(params).expect("valid params");
        let out = trainer.train(&Dataset::new("fuzz", x, labels));
        out.model.to_json().expect("serialize")
    })
}

/// The bytes a model file is made of, so a patch often keeps it parseable.
const JSON_BYTES: &[u8] = b"{}[],:\"0123456789.-eE truenulfalsxyz\\";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A mutated or truncated model file loads as a typed error, or as a
    /// model that compiles.
    #[test]
    fn mutated_models_load_as_typed_errors_or_compile(
        truncate in any::<bool>(),
        at in 0usize..1 << 20,
        patch in proptest::collection::vec(0usize..JSON_BYTES.len(), 1..6),
    ) {
        let json = model_json().as_bytes();
        let patch: Vec<u8> = patch.iter().map(|&i| JSON_BYTES[i]).collect();
        let text = String::from_utf8(mutate(json, truncate, at % json.len(), &patch)).unwrap();
        if let Ok(model) = GbdtModel::from_json(&text) {
            model.compile();
        }
    }
}

//! Fuzzing what the program reads from outside: the chunk cache
//! (`HARPQSC1`, version 3), a model's JSON, the scoring server's frames and
//! the CSV and LIBSVM loaders. Each case overwrites a random byte range of a
//! well-formed input, or truncates it. Reading must return `Ok` or a typed
//! error and never panic or abort; whatever is read must then be usable:
//! every chunk of a cache pins, routes and scans, a model compiles, a frame
//! encodes to bytes that decode to the same frame, and a dataset has a
//! label per row and its entries inside its columns.

use harp_binning::{sweep_chunks, BinningConfig, QuantizedMatrix, Rows};
use harp_data::io::{read_csv, read_libsvm};
use harp_data::{CsrMatrix, Dataset, DenseMatrix, FeatureMatrix};
use harp_serve::protocol::{parse_header, read_frame, DEFAULT_MAX_PAYLOAD, HEADER_LEN};
use harp_serve::{ErrorCode, Frame, RowsPayload};
use harpgbdt::hist::hist_width_for;
use harpgbdt::kernels::{row_scan_store, GradSource};
use harpgbdt::{write_cache, ChunkedStore, GbdtModel, GbdtTrainer, QuantStore, TrainParams};
use proptest::prelude::*;
use std::io::Cursor;
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

/// One well-formed encoding of every frame variant, a payload of each
/// Score layout included.
fn frames() -> Vec<Vec<u8>> {
    let json = r#"{"requests":3,"uptime_secs":1.5}"#.to_string();
    [
        Frame::Score { corr: 9, rows: RowsPayload::Dense { n_cols: 2, values: vec![1.0, -0.5] } },
        Frame::Score { corr: 9, rows: RowsPayload::Binned { n_cols: 3, bins: vec![0, 7, 255] } },
        Frame::Ping { corr: 1 },
        Frame::Reload { corr: 2, path: None },
        Frame::Reload { corr: 2, path: Some("models/m.json".into()) },
        Frame::Stats { corr: 3 },
        Frame::Shutdown { corr: 4 },
        Frame::Scores { corr: 5, n_groups: 2, scores: vec![0.25, -1.0, 3.0, 0.0] },
        Frame::Error { corr: 6, code: ErrorCode::BadShape, message: "3 columns, want 2".into() },
        Frame::Pong { corr: 7 },
        Frame::ReloadOk { corr: 8, generation: 41 },
        Frame::StatsReply { corr: 10, json },
        Frame::ShutdownOk { corr: 11 },
    ]
    .iter()
    .map(Frame::encode)
    .collect()
}

/// A decoded frame is a value the protocol can carry: its encoding decodes
/// to a frame that encodes to the same bytes.
fn assert_carried(frame: &Frame) {
    let bytes = frame.encode();
    let header: &[u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("a whole header");
    let h = parse_header(header, u32::MAX).expect("an encoded header parses");
    let again = Frame::decode(h.frame_type, h.corr, &bytes[HEADER_LEN..]).expect("decodes");
    assert_eq!(again.encode(), bytes, "{frame:?} does not survive a round trip");
}

/// A dataset a loader returned is well-formed.
fn assert_well_formed(data: &Dataset) {
    assert_eq!(data.labels.len(), data.features.n_rows());
    if let FeatureMatrix::Sparse(csr) = &data.features {
        for r in 0..csr.n_rows() {
            csr.row(r).for_each(|(c, _)| assert!((c as usize) < csr.n_cols()));
        }
    }
}

/// A label-first CSV file with a header, a missing cell and a `nan`, and a
/// LIBSVM file with 1-based indices, a comment and an empty row.
const CSV: &str = "label,f0,f1,f2\n1,0.5,,2\n0,-1.25,3e2,nan\n1,7,0.125,-0\n";
const LIBSVM: &str = "1 1:0.5 3:2 # first\n-1 2:-1.25 4:3e2\n0\n+1 1:7 4:nan\n";

/// The bytes text inputs are made of, so a patch often keeps them parseable.
const TEXT_BYTES: &[u8] = b"0123456789.,:-+eE #\nnaif\r\t\xff";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A mutated or truncated frame of any variant, through the header
    /// parser and the payload decoder, then through the blocking reader,
    /// is a typed error or a frame the protocol carries.
    #[test]
    fn mutated_frames_decode_as_typed_errors_or_carried_frames(
        which in 0usize..13,
        truncate in any::<bool>(),
        at in 0usize..1 << 20,
        patch in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let bytes = &frames()[which];
        let case = mutate(bytes, truncate, at % bytes.len(), &patch);
        if let Some(header) = case.first_chunk::<HEADER_LEN>() {
            if let Ok(h) = parse_header(header, DEFAULT_MAX_PAYLOAD) {
                if let Ok(frame) = Frame::decode(h.frame_type, h.corr, &case[HEADER_LEN..]) {
                    assert_carried(&frame);
                }
            }
        }
        if let Ok(Some(frame)) = read_frame(&mut Cursor::new(&case), DEFAULT_MAX_PAYLOAD) {
            assert_carried(&frame);
        }
    }

    /// A mutated or truncated CSV or LIBSVM file loads as a typed error or
    /// as a well-formed dataset.
    #[test]
    fn mutated_text_files_load_as_typed_errors_or_datasets(
        libsvm in any::<bool>(),
        truncate in any::<bool>(),
        at in 0usize..1 << 20,
        patch in proptest::collection::vec(0usize..TEXT_BYTES.len(), 1..6),
    ) {
        let text = if libsvm { LIBSVM } else { CSV }.as_bytes();
        let patch: Vec<u8> = patch.iter().map(|&i| TEXT_BYTES[i]).collect();
        let case = mutate(text, truncate, at % text.len(), &patch);
        let read = if libsvm { read_libsvm(&case[..], "f") } else { read_csv(&case[..], "f") };
        if let Ok(data) = read {
            assert_well_formed(&data);
        }
    }
}

#[test]
fn clean_frames_and_text_files_read() {
    for bytes in frames() {
        let frame = read_frame(&mut Cursor::new(&bytes), DEFAULT_MAX_PAYLOAD);
        assert_carried(&frame.expect("a well-formed frame reads").expect("not at EOF"));
    }
    let csv = read_csv(CSV.as_bytes(), "csv").expect("a well-formed CSV file loads");
    let libsvm = read_libsvm(LIBSVM.as_bytes(), "libsvm").expect("a well-formed LIBSVM file loads");
    assert_eq!((csv.n_rows(), csv.features.n_cols()), (3, 3));
    assert_eq!((libsvm.n_rows(), libsvm.features.n_cols()), (4, 4));
    assert_well_formed(&csv);
    assert_well_formed(&libsvm);
}

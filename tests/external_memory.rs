//! External-memory equivalence battery: training through a mmap-backed
//! [`ChunkedStore`] must be **bitwise identical** to in-core training on the
//! same quantized matrix, in every parallel mode and under any resident
//! budget — the budget may only change *when* chunks are decoded, never a
//! single accumulated bit.
//!
//! Why the equality holds: a node's row list is ascending, the chunked scan
//! splits it into per-chunk contiguous runs scanned in ascending chunk
//! order, so every histogram cell sees its rows in exactly the order the
//! monolithic scan used — the f64 summation expression is unchanged.

use harp_bench::{prepared, PreparedData};
use harpgbdt::{
    write_cache, CacheError, ChunkedStore, GbdtTrainer, GrowthMethod, ParallelMode, Predictor,
    QuantStore, TrainParams,
};
use std::path::PathBuf;

/// A deterministic configuration (static DP schedule): the in-core run is
/// reproducible, so the chunked run can be compared against it bitwise.
fn params(mode: ParallelMode) -> TrainParams {
    TrainParams {
        n_trees: 3,
        tree_size: 10,
        n_threads: 2,
        mode,
        growth: GrowthMethod::Leafwise,
        k: 8,
        deterministic: true,
        // Subtraction changes floating-point association when the cached
        // parent races in ASYNC, so the determinism suites disable it (the
        // membuf test below covers it on the deterministic DP schedule).
        hist_subtraction: false,
        gamma: 0.1,
        ..Default::default()
    }
}

/// Writes `data`'s chunk cache to a unique temp file; the caller removes it.
fn cache_file(data: &PreparedData, rows_per_chunk: usize, tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "harp_xmem_{}_{}_{tag}.qsc",
        std::process::id(),
        data.quantized.n_rows()
    ));
    write_cache(&data.quantized, rows_per_chunk, &path).expect("write cache");
    path
}

#[test]
fn chunked_training_is_bitwise_identical_in_every_mode_and_budget() {
    let data = prepared(harp_data::DatasetKind::HiggsLike, 0.03, 5);
    let qm_bytes = data.quantized.storage_bytes() as u64;
    // Chunks well under the budget: a worker can only scan one chunk at a
    // time, so the budget holds as long as it covers the handful of
    // concurrently-pinned chunks (workers + prefetch), which ~3% chunks do.
    // The floor stays small because the synth split is only a few hundred
    // rows — a 64-row floor would make each chunk a third of the budget.
    let rows_per_chunk = (data.quantized.n_rows() / 32).max(16);
    let path = cache_file(&data, rows_per_chunk, "modes");
    // tiny: ~a quarter of the matrix resident, forcing eviction on every
    // sweep; roomy: everything fits, so after warm-up nothing is evicted.
    let budgets = [("tiny", qm_bytes / 4), ("roomy", 4 * qm_bytes)];
    for mode in [
        ParallelMode::DataParallel,
        ParallelMode::ModelParallel,
        ParallelMode::Sync,
        ParallelMode::Async,
    ] {
        let trainer = GbdtTrainer::new(params(mode)).unwrap();
        let incore = trainer.train_store(&data.quantized, &data.train.labels, None);
        let incore_json = incore.model.to_json().unwrap();
        let incore_bits: Vec<u32> = incore
            .model
            .predict_raw(&data.test.features)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        for (label, budget) in budgets {
            let store = ChunkedStore::open(&path, budget).expect("open cache");
            let out = trainer.train_store(&store, &data.train.labels, None);
            // ASYNC numbers nodes in task-completion order, so its JSON is
            // schedule-dependent even in-core; the logical model (prediction
            // bits, below) is the bitwise contract there. The batch modes
            // number nodes deterministically and must match structurally.
            if mode != ParallelMode::Async {
                assert_eq!(
                    incore_json,
                    out.model.to_json().unwrap(),
                    "{mode:?}/{label}: chunked model diverged from in-core"
                );
            }
            let bits: Vec<u32> =
                out.model.predict_raw(&data.test.features).iter().map(|p| p.to_bits()).collect();
            assert_eq!(incore_bits, bits, "{mode:?}/{label}: predictions diverged");
            let io = store.io_stats();
            assert!(io.chunk_loads > 0, "{mode:?}/{label}: training never touched the store");
            assert!(
                io.resident_high_water <= budget,
                "{mode:?}/{label}: resident high-water {} exceeds the {budget}-byte budget",
                io.resident_high_water
            );
            match label {
                "tiny" => assert!(
                    io.chunk_evictions > 0,
                    "{mode:?}: a quarter-size budget must evict (loads {})",
                    io.chunk_loads
                ),
                _ => assert_eq!(
                    io.chunk_evictions, 0,
                    "{mode:?}: a roomy budget must keep every chunk resident"
                ),
            }
        }
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn membuf_and_subtraction_survive_the_chunked_path() {
    // MemBuf gradient replicas and parent-minus-sibling histograms are the
    // two scan-order-sensitive features; both must stay bitwise stable when
    // the rows arrive chunk by chunk.
    let data = prepared(harp_data::DatasetKind::AirlineLike, 0.01, 9);
    let path = cache_file(&data, (data.quantized.n_rows() / 8).max(64), "membuf");
    for (use_membuf, hist_subtraction) in [(true, true), (true, false), (false, true)] {
        let p = TrainParams { use_membuf, hist_subtraction, ..params(ParallelMode::DataParallel) };
        let trainer = GbdtTrainer::new(p).unwrap();
        let incore = trainer.train_store(&data.quantized, &data.train.labels, None);
        let store = ChunkedStore::open(&path, data.quantized.storage_bytes() as u64 / 4).unwrap();
        let chunked = trainer.train_store(&store, &data.train.labels, None);
        assert_eq!(
            incore.model.to_json().unwrap(),
            chunked.model.to_json().unwrap(),
            "membuf={use_membuf} subtraction={hist_subtraction} diverged"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn prediction_through_the_store_matches_the_monolithic_matrix() {
    let data = prepared(harp_data::DatasetKind::HiggsLike, 0.02, 3);
    let trainer = GbdtTrainer::new(params(ParallelMode::DataParallel)).unwrap();
    let model = trainer.train_store(&data.quantized, &data.train.labels, None).model;
    let engine = model.compile();
    let predictor = Predictor::new(&engine);
    let reference = predictor.predict_raw_store(&data.quantized);
    // The in-core store takes the exact same code path…
    assert_eq!(reference, predictor.predict_raw_store(&data.quantized));
    // …and the chunked store re-scores each row block against its slabs.
    let path = cache_file(&data, (data.quantized.n_rows() / 8).max(64), "predict");
    for budget in [data.quantized.storage_bytes() as u64 / 4, u64::MAX] {
        let store = ChunkedStore::open(&path, budget).unwrap();
        assert_eq!(
            reference,
            predictor.predict_raw_store(&store),
            "chunked prediction diverged at budget {budget}"
        );
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn store_scans_are_bitwise_equal_to_the_in_core_kernels() {
    // Elsewhere the three `*_store` scans meet in-core only through whole
    // trainings; here histogram by histogram, against the kernels called on
    // the matrix directly, through a one-chunk cache and a 32-row-chunk one.
    use harpgbdt::kernels::{
        col_scan, col_scan_store, row_scan, row_scan_root, row_scan_root_store, row_scan_store,
        GradSource,
    };
    for (kind, scale, dense) in [
        (harp_data::DatasetKind::HiggsLike, 0.02, true),
        (harp_data::DatasetKind::YfccLike, 0.1, false),
    ] {
        let data = prepared(kind, scale, 4);
        let qm = &data.quantized;
        let layout = QuantStore::layout(qm);
        assert!(layout.dense == dense && !layout.bundled, "{kind:?}: want dense u8 / plain CSR");
        let (n, m, mapper) = (qm.n_rows(), qm.n_features(), qm.mapper());
        assert!(n > 128, "the row range below must straddle several 32-row chunks");
        let width = harpgbdt::hist::hist_width(mapper.total_bins(), m);
        // Magnitudes over forty binades: the f64 sums round, so any change
        // of accumulation order shows in the last bits.
        let hash = |i: u64| (i ^ 0x9E37_79B9).wrapping_mul(0xBF58_476D_1CE4_E5B9) >> 20;
        let wide =
            |h: u64| (1.0 + (h % 1024) as f32 / 1024.0) * 2f32.powi((h >> 10) as i32 % 40 - 30);
        let grads: Vec<[f32; 2]> = (0..n as u64).map(|i| [wide(hash(i)), wide(hash(!i))]).collect();
        // A scattered ascending node list with its MemBuf replica, and a
        // root-style row range with its aligned one.
        let rows: Vec<u32> = (0..n as u32).filter(|&r| hash(u64::from(r) << 7) % 3 != 0).collect();
        let membuf: Vec<[f32; 2]> = rows.iter().map(|&r| grads[r as usize]).collect();
        let range = 20..n - 20;

        // Every scan's cell count and histogram bits: through `store`, or
        // with the kernels called on the matrix itself.
        let hists = |store: Option<&dyn QuantStore>| {
            let mut out: Vec<(u64, Vec<u64>)> = Vec::new();
            let mut fill = |scan: &dyn Fn(&mut [f64]) -> u64| {
                let mut hist = vec![0.0f64; width];
                let cells = scan(&mut hist);
                out.push((cells, hist.iter().map(|x| x.to_bits()).collect()));
            };
            for (node, aligned) in [
                (GradSource::MemBuf(&membuf), GradSource::MemBuf(&grads[range.clone()])),
                (GradSource::Global(&grads), GradSource::Global(&grads)),
            ] {
                fill(&|hist| match store {
                    Some(s) => row_scan_store(s, &rows, node, 0..m, hist, false),
                    None => row_scan(qm, &rows, node, 0..m, hist),
                });
                fill(&|hist| {
                    let scan_col = |f: usize| {
                        let bins = mapper.n_bins(f) as usize;
                        let base = mapper.bin_offset(f) as usize * 2;
                        let hist_f = &mut hist[base..base + bins * 2];
                        match store {
                            Some(s) => col_scan_store(s, f, &rows, node, 0..bins, hist_f, false),
                            None => col_scan(qm, f, &rows, node, 0..bins, hist_f),
                        }
                    };
                    (0..m).map(scan_col).sum()
                });
                fill(&|hist| match store {
                    Some(s) => row_scan_root_store(s, range.clone(), aligned, 0..m, hist),
                    None => row_scan_root(qm, range.clone(), aligned, 0..m, hist),
                });
            }
            out
        };
        let want = hists(None);
        assert!(want.iter().all(|&(cells, _)| cells > 0), "a scan saw no rows");
        for rows_per_chunk in [n, 32] {
            let path = cache_file(&data, rows_per_chunk, &format!("scans{rows_per_chunk}"));
            let store = ChunkedStore::open(&path, u64::MAX).unwrap();
            assert_eq!(store.n_chunks(), n.div_ceil(rows_per_chunk));
            let got = hists(Some(&store));
            assert!(want == got, "{kind:?}, {rows_per_chunk}-row chunks: a store scan diverged");
            drop(store);
            std::fs::remove_file(path).ok();
        }
    }
}

#[test]
fn ledger_reports_the_chunk_gauges_and_io_counters() {
    use harpgbdt::LedgerConfig;
    let data = prepared(harp_data::DatasetKind::HiggsLike, 0.02, 8);
    // Small chunks for the same budget-geometry reason as the modes test:
    // the high-water assertion needs chunks well under a quarter budget.
    let path = cache_file(&data, (data.quantized.n_rows() / 32).max(16), "ledger");
    let budget = data.quantized.storage_bytes() as u64 / 4;
    let store = ChunkedStore::open(&path, budget).unwrap();
    let p = TrainParams { ledger: LedgerConfig::enabled(), ..params(ParallelMode::DataParallel) };
    let out = GbdtTrainer::new(p).unwrap().train_store(&store, &data.train.labels, None);
    let ledger = out.diagnostics.ledger.expect("ledger enabled");
    let last = ledger.records().last().expect("rounds ran");
    let resident = last
        .mem
        .iter()
        .find(|m| m.name == harp_metrics::gauges::CHUNK_RESIDENT)
        .expect("chunk_resident gauge registered for chunked stores");
    assert!(resident.high_water_bytes > 0);
    assert!(
        resident.high_water_bytes <= budget,
        "ledger-reported resident high-water {} exceeds the {budget}-byte budget",
        resident.high_water_bytes
    );
    let quant = last
        .mem
        .iter()
        .find(|m| m.name == harp_metrics::gauges::QUANT_STORE)
        .expect("quant_store gauge registered");
    assert!(quant.high_water_bytes > 0);
    let loads: u64 = ledger
        .records()
        .iter()
        .flat_map(|r| r.counters.iter())
        .filter(|(name, _)| name == "chunk_loads")
        .map(|&(_, v)| v)
        .sum();
    assert!(loads > 0, "per-round counters must carry the chunk traffic");
    std::fs::remove_file(path).ok();
}

#[test]
fn corrupt_caches_fail_with_typed_errors_not_wrong_models() {
    let data = prepared(harp_data::DatasetKind::HiggsLike, 0.01, 2);
    let path = cache_file(&data, (data.quantized.n_rows() / 4).max(64), "corrupt");
    // Flip one byte near the end of the file (inside the last chunk's blob).
    let mut bytes = std::fs::read(&path).unwrap();
    let n = bytes.len();
    bytes[n - 9] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match ChunkedStore::open(&path, u64::MAX) {
        Err(CacheError::ChecksumMismatch { .. }) => {}
        Err(e) => panic!("expected a checksum mismatch, got {e}"),
        Ok(_) => panic!("a corrupt cache must not open"),
    }
    // A non-cache file fails on the magic, not by reading garbage.
    std::fs::write(&path, b"definitely not a cache file").unwrap();
    assert!(matches!(ChunkedStore::open(&path, u64::MAX), Err(CacheError::BadMagic)));
    std::fs::remove_file(path).ok();
}

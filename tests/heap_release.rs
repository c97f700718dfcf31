//! A training call starts on a trimmed heap: the pages its caller freed
//! before the call leave the resident set when training begins, so a run's
//! resident peak counts the bytes some part of the program still holds.
//!
//! The caller frees 48 MiB of 16 KiB blocks; a sentinel, the block at the
//! highest address, stays allocated and keeps `free` from trimming the
//! others off the top of the heap, so glibc keeps those pages resident until
//! `malloc_trim` hands them back. The resident set is process-wide, so this
//! file holds a single `#[test]`.

#![cfg(all(target_os = "linux", target_env = "gnu"))]

use harp_binning::{BinningConfig, QuantizedMatrix};
use harp_data::{DenseMatrix, FeatureMatrix};
use harpgbdt::{GbdtTrainer, TrainParams};
use std::hint::black_box;

const BLOCK_BYTES: usize = 16 << 10;
const FREED_BYTES: usize = 48 << 20;

/// `VmRSS` of this process in bytes.
fn resident_bytes() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("a VmRSS line");
    let kb: usize = line.split_whitespace().nth(1).and_then(|v| v.parse().ok()).expect("VmRSS kB");
    kb << 10
}

#[test]
fn training_hands_back_the_pages_its_caller_freed() {
    let (n, m) = (2_000usize, 6usize);
    let values: Vec<f32> = (0..n * m).map(|i| ((i * 37) % 101) as f32 / 101.0).collect();
    let labels: Vec<f32> =
        (0..n).map(|r| f32::from(values[r * m] + values[r * m + 1] > 1.0)).collect();
    let dense = FeatureMatrix::Dense(DenseMatrix::from_vec(n, m, values));
    let store = QuantizedMatrix::from_matrix(&dense, BinningConfig::default());
    let params = TrainParams { n_trees: 3, tree_size: 4, n_threads: 2, ..Default::default() };
    let trainer = GbdtTrainer::new(params).expect("valid params");
    // The warm-up run makes the pool's threads, their arenas and every
    // lazily built table once, so the measured run adds little of its own.
    black_box(trainer.train_store(&store, &labels, None));

    let mut blocks: Vec<Vec<u8>> = (0..=FREED_BYTES / BLOCK_BYTES)
        .map(|i| vec![1 + (i % 255) as u8; BLOCK_BYTES])
        .collect();
    let top = (0..blocks.len()).max_by_key(|&i| blocks[i].as_ptr() as usize).expect("blocks");
    let sentinel = blocks.swap_remove(top);
    drop(black_box(blocks));

    let before = resident_bytes();
    let out = trainer.train_store(&store, &labels, None);
    let after = resident_bytes();
    assert_eq!(out.model.n_trees(), 3);
    let released = before.saturating_sub(after);
    println!("resident {before} B before training, {after} B after: {released} B released");
    assert!(
        released >= FREED_BYTES / 4 * 3,
        "training released {released} B of the {FREED_BYTES} B freed before it \
         ({before} B resident before, {after} B after)"
    );
    drop(black_box(sentinel));
}

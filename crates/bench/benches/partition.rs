//! ApplySplit micro-benchmark: the stable two-plane partition inline and
//! through the pool, with and without MemBuf — one root split, a depth-3
//! nest (so the return trip to plane 0 is timed) and a batch of 32 nodes as
//! one `apply_splits` region.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use harp_parallel::ThreadPool;
use harpgbdt::partition::RowPartition;

const N: usize = 200_000;

fn fresh(grads: &[[f32; 2]], max_nodes: usize, membuf: bool) -> RowPartition {
    let mut p = RowPartition::new(grads.len(), max_nodes, membuf);
    p.reset(grads);
    p
}

/// Routes about a third of any node left, differently at every level.
fn route(level: u32, row: u32) -> bool {
    row.wrapping_mul(2654435761).wrapping_add(level) % 3 == 0
}

/// Splits every node of `level` (ids `2^level − 1 ..`, heap numbering) as
/// one batch.
fn split_level(p: &RowPartition, level: u32, pool: Option<&ThreadPool>) {
    let first = (1u32 << level) - 1;
    let splits: Vec<(u32, u32, u32)> =
        (first..2 * first + 1).map(|node| (node, 2 * node + 1, 2 * node + 2)).collect();
    p.apply_splits(&splits, &|_, _, row| route(level, row), pool);
}

fn bench_partition(c: &mut Criterion) {
    let grads: Vec<[f32; 2]> = (0..N).map(|i| [i as f32, 1.0]).collect();
    let pool = ThreadPool::new(4);

    let mut group = c.benchmark_group("partition");
    group.sample_size(20);
    for membuf in [false, true] {
        let label = format!("membuf_{membuf}");
        for (name, pool) in [("serial", None), ("parallel", Some(&pool))] {
            group.bench_with_input(BenchmarkId::new(name, &label), &membuf, |b, &membuf| {
                b.iter_batched(
                    || fresh(&grads, 8, membuf),
                    |p| p.apply_split(0, 1, 2, &|_, row| route(0, row), pool),
                    BatchSize::LargeInput,
                );
            });
            // Root, its two children, their four: planes 0 → 1 → 0 → 1.
            group.bench_with_input(
                BenchmarkId::new(format!("nested_depth3_{name}"), &label),
                &membuf,
                |b, &membuf| {
                    b.iter_batched(
                        || fresh(&grads, 16, membuf),
                        |p| (0..3).for_each(|level| split_level(&p, level, pool)),
                        BatchSize::LargeInput,
                    );
                },
            );
        }
        // 32 nodes (200 000 rows in all): one region of ⟨node, row-block⟩
        // tasks, where a node-at-a-time engine ran 32 serial partitions.
        group.bench_with_input(BenchmarkId::new("batch_of_32", &label), &membuf, |b, &membuf| {
            b.iter_batched(
                || {
                    let p = fresh(&grads, 128, membuf);
                    (0..5).for_each(|level| split_level(&p, level, None));
                    p
                },
                |p| split_level(&p, 5, Some(&pool)),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);

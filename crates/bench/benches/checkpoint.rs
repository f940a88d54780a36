//! Micro-benchmarks of checkpointing cost vs operator state size — the
//! mechanism behind Fig. 14's latency overhead.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seep_core::primitives::checkpoint_state;
use seep_core::StatefulOperator;
use seep_core::{BufferState, Checkpoint, IncrementalCheckpoint, OperatorId};
use seep_operators::WindowedWordCount;

fn counter_with_entries(entries: usize) -> WindowedWordCount {
    let mut op = WindowedWordCount::new(30_000);
    op.prepopulate(entries);
    op
}

fn bench_checkpoint_by_state_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_state");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for entries in [100usize, 10_000, 100_000] {
        let op = counter_with_entries(entries);
        let buffer = BufferState::new();
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| checkpoint_state(OperatorId::new(1), 1, &op, &buffer));
        });
    }
    group.finish();
}

fn bench_checkpoint_serialisation(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_serialise");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for entries in [100usize, 10_000, 100_000] {
        let op = counter_with_entries(entries);
        let cp = checkpoint_state(OperatorId::new(1), 1, &op, &BufferState::new());
        group.bench_with_input(BenchmarkId::from_parameter(entries), &entries, |b, _| {
            b.iter(|| cp.to_bytes().unwrap());
        });
    }
    group.finish();
}

fn bench_incremental_vs_full(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_checkpoint_diff");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let base_op = counter_with_entries(50_000);
    let base = checkpoint_state(OperatorId::new(1), 1, &base_op, &BufferState::new());
    // 1% of the state changes between checkpoints.
    let mut changed = base.clone();
    changed.meta.sequence = 2;
    let mut state = base_op.get_processing_state();
    for (i, (k, _)) in state.clone().iter().enumerate().take(500) {
        state.insert(k, vec![i as u8; 32]);
    }
    changed.processing = state;
    group.bench_function("diff_1pct_changed", |b| {
        b.iter(|| IncrementalCheckpoint::diff(&base, &changed));
    });
    group.bench_function("full_clone", |b| {
        b.iter(|| Checkpoint::clone(&changed));
    });
    group.finish();
}

/// Write+restore cost of one 10k-entry checkpoint per store backend — the
/// per-operation numbers underneath the `store_backends` comparison.
fn bench_store_backends(c: &mut Criterion) {
    use seep_store::{CheckpointStore, FileStore, FileStoreConfig, MemStore, TieredStore};

    let mut group = c.benchmark_group("store_put_latest");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let op = counter_with_entries(10_000);
    let cp = checkpoint_state(OperatorId::new(1), 1, &op, &BufferState::new());
    let dir = std::env::temp_dir().join(format!("seep-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let stores: Vec<(&str, Box<dyn CheckpointStore>)> = vec![
        ("mem", Box::new(MemStore::new())),
        (
            "file",
            Box::new(FileStore::open(FileStoreConfig::new(dir.join("file"))).unwrap()),
        ),
        (
            "tiered",
            Box::new(TieredStore::open(FileStoreConfig::new(dir.join("tiered")), 1 << 26).unwrap()),
        ),
    ];
    for (label, store) in &stores {
        group.bench_with_input(BenchmarkId::from_parameter(label), store, |b, store| {
            b.iter(|| {
                store.put(OperatorId::new(1), cp.clone()).unwrap();
                store.latest(OperatorId::new(1)).unwrap()
            });
        });
    }
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(
    benches,
    bench_checkpoint_by_state_size,
    bench_checkpoint_serialisation,
    bench_incremental_vs_full,
    bench_store_backends
);
criterion_main!(benches);

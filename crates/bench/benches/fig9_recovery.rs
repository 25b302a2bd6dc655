//! Fig. 9 micro-benchmark: one full crash+recovery cycle per system on the
//! hashmap. CSV breakdowns come from `repro fig9`.

use criterion::{criterion_group, criterion_main, Criterion};

use clobber_bench::common::{DsKind, Scale};
use clobber_bench::fig9;
use clobber_nvm::Backend;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig9_recovery_cycle");
    group.sample_size(10);
    for backend in [Backend::clobber(), Backend::Undo] {
        group.bench_function(backend.label(), |b| {
            b.iter(|| fig9::run_cell(DsKind::Hashmap, backend, Scale::Quick, 11));
        });
    }
    group.finish();

    // Scaling: fixed live data across a 16x pool-size spread (recovery must
    // stay O(live data)).
    let mut group = c.benchmark_group("fig9_recovery_scaling");
    group.sample_size(10);
    for pool_mib in [1u64, 16] {
        group.bench_function(format!("pool{pool_mib}mib"), |b| {
            b.iter(|| fig9::run_scaling_cell(pool_mib, 4, 11));
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

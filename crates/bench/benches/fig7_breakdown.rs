//! Fig. 7 micro-benchmark: hashmap insert latency under each logging
//! variant. Log counts/sizes are produced by `repro fig7`.

use criterion::{criterion_group, criterion_main, Criterion};

use clobber_bench::common::{make_runtime, DsHandle, DsKind, Scale};
use clobber_bench::fig7;
use clobber_workloads::ycsb::KvOp;
use clobber_workloads::Workload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig7_variant_insert");
    group.sample_size(10);
    for (variant, backend) in fig7::variants() {
        let (_pool, rt) = make_runtime(backend, Scale::Quick);
        let handle = DsHandle::create(DsKind::Hashmap, &rt);
        let mut key = 0u64;
        group.bench_function(variant, |b| {
            b.iter(|| {
                key = (key + 1) % 4096; // steady-state updates, see fig6 bench
                handle.exec(
                    &rt,
                    0,
                    &KvOp::Insert {
                        key,
                        value: Workload::value_for(key, 256),
                    },
                );
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

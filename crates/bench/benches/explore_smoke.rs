//! Explorer smoke bench (ISSUE 8): one bounded exploration of the pds
//! hash-map workload per iteration — every non-pruned interleaving of the
//! (2,1) insert lanes, a capped set of crash prefixes each, full
//! crash/recover/verify pipeline per prefix. Exists so the explorer's
//! end-to-end cost stays visible and the CI bench smoke (`--test`) keeps
//! the bench body compiling against the public explore API.
//! Throughput tables live in EXPERIMENTS.md ("Schedule exploration").

use criterion::{criterion_group, criterion_main, Criterion};

use clobber_nvm::{ExploreOptions, Explorer};
use clobber_pds::workload::ExploreWorkload;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("explore_hashmap_3op");
    group.sample_size(10);
    for shards in [1, 4] {
        group.bench_function(format!("shards{shards}"), |b| {
            let wl = ExploreWorkload::new(shards);
            let opts = ExploreOptions::default()
                .with_budget(64)
                .with_crash_stride(64)
                .with_max_crash_points(2);
            b.iter(|| {
                let explorer = Explorer::new(wl.session(), wl.seed_schedule(), opts.clone());
                let report = explorer.run().expect("exploration baseline");
                assert!(report.failures.is_empty());
                report.schedules_run
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);

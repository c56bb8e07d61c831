//! Criterion wrappers for online network evolution: one candidate arrival
//! integrated incrementally (`ProbabilisticNetwork::extend`, patching the
//! index and rebuilding only the merged shard) vs the full
//! index-build + sharded-fill a static pipeline would rerun. The
//! wall-clock claim that incremental maintenance beats the rebuild per
//! event is checked by `tests/timing.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::evolve::{
    candidate_pool, evolving_scenario, initial_network, live, rebuild, GROUPS,
};

fn bench_arrival(c: &mut Criterion) {
    let mut group = c.benchmark_group("evolve/one-arrival");
    for &groups in &GROUPS {
        let evo = evolving_scenario(groups, 7);
        let pool = candidate_pool(&evo, 7);
        // the t0 network; the measured arrival is the first scheduled one
        let pn = initial_network(&evo, &pool);
        let (corr, conf) = pool[evo.initial_count(pool.len())];
        // incremental: clone + extend (the clone is the same on both sides
        // of the comparison — the vendored criterion has no iter_batched)
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("incremental/g{groups}")),
            &pn,
            |b, pn| {
                b.iter(|| {
                    let mut fresh = pn.clone();
                    fresh.extend(corr.a(), corr.b(), conf).unwrap();
                    fresh
                })
            },
        );
        // rebuild: re-index + re-fill the whole network at the same state
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("rebuild/g{groups}")),
            &pn,
            |b, pn| b.iter(|| rebuild(&evo, live(pn).into_iter().chain([(corr, conf)]))),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_arrival);
criterion_main!(benches);

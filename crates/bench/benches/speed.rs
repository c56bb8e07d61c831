//! Criterion wrappers for the speed-ceiling paths: the sampling fill on
//! the largest standard size, the batched what-if evaluation against the
//! per-candidate loop, and a federation gain scan. The batched path's
//! agreement with the loop is certified by the `speed` module's tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::hotpaths::{bench_network, emission_config, SIZES};
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_network};
use smn_bench::speed::{what_if_queries, FEDERATION_GROUPS};
use smn_core::feedback::Feedback;
use smn_core::sampling::SampleStore;
use smn_core::ProbabilisticNetwork;

fn bench_sampling_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("speed/sampling-fill");
    let (s, a) = SIZES[SIZES.len() - 1];
    let net = bench_network(s, a, 7);
    let empty = Feedback::new(net.candidate_count());
    let n = net.candidate_count();
    group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &net, |b, net| {
        b.iter(|| SampleStore::new(net, &empty, emission_config()));
    });
    group.finish();
}

fn bench_what_if(c: &mut Criterion) {
    let net = federation_network(FEDERATION_GROUPS[0], 7);
    let pn = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
    let queries = what_if_queries(&pn);
    let n = pn.network().candidate_count();

    let mut group = c.benchmark_group("speed/what-if-batched");
    group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
        b.iter(|| pn.what_if_batch(&queries));
    });
    group.finish();

    let mut group = c.benchmark_group("speed/what-if-per-candidate");
    group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
        b.iter(|| queries.iter().map(|&(q, a)| pn.what_if(q, a)).sum::<f64>());
    });
    group.finish();
}

fn bench_federation_gains(c: &mut Criterion) {
    let mut group = c.benchmark_group("speed/federation-gain-scan");
    let net = federation_network(FEDERATION_GROUPS[0], 7);
    let pn = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
    let pool = pn.uncertain_candidates();
    let n = pn.network().candidate_count();
    group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
        b.iter(|| pn.information_gains(&pool));
    });
    group.finish();
}

criterion_group!(benches, bench_sampling_fill, bench_what_if, bench_federation_gains);
criterion_main!(benches);

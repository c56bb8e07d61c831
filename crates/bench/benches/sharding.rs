//! Criterion wrappers for the component-sharded representation on the
//! multi-component federation scenario: network fill, per-assertion
//! maintenance and batch information gain, monolithic vs sharded. That
//! the two representations agree is certified by `tests/sharding.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_network, GROUPS};
use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;
use smn_schema::CandidateId;

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharding/fill");
    for &groups in &GROUPS {
        let net = federation_network(groups, 7);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("monolithic/g{groups}")),
            &net,
            |b, net| b.iter(|| ProbabilisticNetwork::new(net.clone(), bench_sampler(3))),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sharded/g{groups}")),
            &net,
            |b, net| {
                b.iter(|| {
                    ProbabilisticNetwork::new_sharded(
                        net.clone(),
                        bench_sampler(3),
                        bench_sharding(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The vendored criterion stand-in has no `iter_batched`, so the measured
/// closure must include the `pn.clone()` setup — identical on both sides,
/// so the relative comparison stands.
fn bench_assert(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharding/assert-candidate (incl. clone)");
    for &groups in &GROUPS {
        let net = federation_network(groups, 7);
        let probe = |pn: &ProbabilisticNetwork| {
            (0..pn.network().candidate_count())
                .map(CandidateId::from_index)
                .find(|&c| pn.probability(c) > 0.0 && pn.probability(c) < 1.0)
                .expect("uncertain candidate exists")
        };
        let mono = ProbabilisticNetwork::new(net.clone(), bench_sampler(3));
        let c_mono = probe(&mono);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("monolithic/g{groups}")),
            &mono,
            |b, pn| {
                b.iter(|| {
                    let mut fresh = pn.clone();
                    fresh
                        .assert_candidate(Assertion { candidate: c_mono, approved: true })
                        .unwrap();
                    fresh
                })
            },
        );
        let sharded = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
        let c_sharded = probe(&sharded);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sharded/g{groups}")),
            &sharded,
            |b, pn| {
                b.iter(|| {
                    let mut fresh = pn.clone();
                    fresh
                        .assert_candidate(Assertion { candidate: c_sharded, approved: true })
                        .unwrap();
                    fresh
                })
            },
        );
    }
    group.finish();
}

fn bench_gains(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharding/information-gains");
    for &groups in &GROUPS {
        let net = federation_network(groups, 7);
        let mono = ProbabilisticNetwork::new(net.clone(), bench_sampler(3));
        let pool = mono.uncertain_candidates();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("monolithic/g{groups}")),
            &mono,
            |b, pn| b.iter(|| pn.information_gains(&pool)),
        );
        let sharded = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
        let pool = sharded.uncertain_candidates();
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sharded/g{groups}")),
            &sharded,
            |b, pn| b.iter(|| pn.information_gains(&pool)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fill, bench_assert, bench_gains);
criterion_main!(benches);

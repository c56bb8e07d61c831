//! Criterion wrappers for the copy-on-write snapshot primitives and the
//! multi-worker service round: fork, exact what-if, first-commit-on-fork
//! and a full budgeted service run. That a fork stays flat while the
//! stores grow is checked by `tests/timing.rs`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::service::{service_config, FORK_GROUPS};
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_case, federation_network};
use smn_core::feedback::Assertion;
use smn_core::{ProbabilisticNetwork, ReconciliationGoal};
use smn_schema::CandidateId;
use smn_service::{Aggregation, ReconciliationService};

fn uncertain_probe(pn: &ProbabilisticNetwork) -> CandidateId {
    (0..pn.network().candidate_count())
        .map(CandidateId::from_index)
        .find(|&c| pn.probability(c) > 0.0 && pn.probability(c) < 1.0)
        .expect("federation networks have uncertain candidates")
}

fn bench_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/fork");
    for &groups in &FORK_GROUPS {
        let net = federation_network(groups, 7);
        let sharded =
            ProbabilisticNetwork::new_sharded(net.clone(), bench_sampler(3), bench_sharding());
        let mono = ProbabilisticNetwork::new(net, bench_sampler(3));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sharded/g{groups}")),
            &sharded,
            |b, pn| b.iter(|| pn.fork()),
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("monolithic/g{groups}")),
            &mono,
            |b, pn| b.iter(|| pn.fork()),
        );
    }
    group.finish();
}

fn bench_what_if(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/what-if");
    for &groups in &FORK_GROUPS {
        let net = federation_network(groups, 7);
        let sharded = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
        let probe = uncertain_probe(&sharded);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sharded/g{groups}")),
            &(sharded, probe),
            |b, (pn, probe)| b.iter(|| pn.what_if(*probe, true)),
        );
    }
    group.finish();
}

fn bench_commit_on_fork(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/first-commit-on-fork (incl. fork)");
    for &groups in &FORK_GROUPS {
        let net = federation_network(groups, 7);
        let sharded = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
        let probe = uncertain_probe(&sharded);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("sharded/g{groups}")),
            &(sharded, probe),
            |b, (pn, probe)| {
                b.iter(|| {
                    let mut fresh = pn.fork();
                    fresh
                        .assert_candidate(Assertion { candidate: *probe, approved: true })
                        .unwrap();
                    fresh
                })
            },
        );
    }
    group.finish();
}

fn bench_service_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("service/budget-16-run");
    group.sample_size(10);
    let (net, truth) = federation_case(12, 7);
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("w{workers}")),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut svc = ReconciliationService::new(
                        net.clone(),
                        truth.clone(),
                        vec![0.1; workers],
                        service_config(
                            1,
                            Aggregation::Majority,
                            workers,
                            ReconciliationGoal::Budget(16),
                        ),
                    );
                    svc.run()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_fork, bench_what_if, bench_commit_on_fork, bench_service_round);
criterion_main!(benches);

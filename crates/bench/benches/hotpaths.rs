//! Criterion wrappers for the Algorithm 1 hot paths: batch
//! `information_gains` and the per-assertion `assert_candidate`
//! (view maintenance + probability recomputation), at the three standard
//! bench sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::hotpaths::{bench_network, store_config, SIZES};
use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;
use smn_schema::CandidateId;

fn prepared() -> Vec<ProbabilisticNetwork> {
    SIZES
        .iter()
        .map(|&(s, a)| ProbabilisticNetwork::new(bench_network(s, a, 7), store_config()))
        .collect()
}

fn bench_information_gains(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/information-gains");
    for pn in prepared() {
        let n = pn.network().candidate_count();
        let pool = pn.uncertain_candidates();
        group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
            b.iter(|| pn.information_gains(&pool));
        });
    }
    group.finish();
}

/// The vendored criterion stand-in has no `iter_batched`, so the measured
/// closure must include the `pn.clone()` setup. The companion
/// `clone-baseline` group times that clone alone — subtract it to get the
/// assertion path itself.
fn bench_assert_candidate(c: &mut Criterion) {
    let mut group = c.benchmark_group("hotpaths/assert-candidate (incl. clone)");
    for pn in prepared() {
        let n = pn.network().candidate_count();
        let probe = (0..n)
            .map(CandidateId::from_index)
            .find(|&cand| {
                let p = pn.probability(cand);
                p > 0.0 && p < 1.0
            })
            .expect("uncertain candidate");
        group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
            b.iter(|| {
                let mut fresh = pn.clone();
                fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
                fresh.entropy()
            });
        });
    }
    group.finish();
    let mut group = c.benchmark_group("hotpaths/clone-baseline");
    for pn in prepared() {
        let n = pn.network().candidate_count();
        group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
            b.iter(|| pn.clone().entropy());
        });
    }
    group.finish();
}

criterion_group!(benches, bench_information_gains, bench_assert_candidate);
criterion_main!(benches);

//! Criterion wrappers for the Algorithm 1 hot paths: batch
//! `information_gains` and the per-assertion `assert_candidate`
//! (view maintenance + probability recomputation), approving and
//! disapproving, at the three standard bench sizes. A disapproval is the
//! path that re-inserts shrunken dying instances. `commit-lanes` times
//! the serving write path: one `commit_batch` of assertions into distinct
//! small shards of the webform federation, each lane copying its shard.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::hotpaths::{
    bench_network, commit_lane_requests, store_config, COMMIT_LANES, LANE_GROUPS, SIZES,
};
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_network};
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
        for (verdict, approved) in [("approve", true), ("disapprove", false)] {
            let id = BenchmarkId::from_parameter(format!("{verdict}/C{n}"));
            group.bench_with_input(id, &pn, |b, pn| {
                b.iter(|| {
                    let mut fresh = pn.clone();
                    fresh.assert_candidate(Assertion { candidate: probe, approved }).unwrap();
                    fresh.entropy()
                });
            });
        }
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

/// Like the assert group, the measured closure includes the `pn.clone()`
/// that `clone-baseline` times alone; the entropy read after the batch is
/// the one a serving flush makes.
fn bench_commit_lanes(c: &mut Criterion) {
    let prepared: Vec<ProbabilisticNetwork> = LANE_GROUPS
        .iter()
        .map(|&g| {
            ProbabilisticNetwork::new_sharded(
                federation_network(g, 7),
                bench_sampler(3),
                bench_sharding(),
            )
        })
        .collect();
    let mut group = c.benchmark_group("hotpaths/commit-lanes (incl. clone)");
    for pn in &prepared {
        let requests = commit_lane_requests(pn, COMMIT_LANES);
        let id = BenchmarkId::from_parameter(format!("C{}", pn.network().candidate_count()));
        group.bench_with_input(id, pn, |b, pn| {
            b.iter(|| {
                let mut fresh = pn.clone();
                fresh.commit_batch(&requests);
                fresh.entropy()
            });
        });
    }
    group.finish();
    let mut group = c.benchmark_group("hotpaths/commit-lanes clone-baseline");
    for pn in &prepared {
        let id = BenchmarkId::from_parameter(format!("C{}", pn.network().candidate_count()));
        group.bench_with_input(id, pn, |b, pn| b.iter(|| pn.clone().entropy()));
    }
    group.finish();
}

criterion_group!(benches, bench_information_gains, bench_assert_candidate, bench_commit_lanes);
criterion_main!(benches);

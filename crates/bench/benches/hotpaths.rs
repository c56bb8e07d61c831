//! Criterion wrappers for the Algorithm 1 hot paths after the fill: the
//! batch `information_gains` scan, the per-assertion `assert_candidate`
//! (view maintenance + probability recomputation), approving and
//! disapproving, and the exact what-if, at the BP sizes under the whole
//! partition and the webform federations under the whole and the
//! component partition (`smn_bench::hotpaths`). A disapproval is the
//! path that re-inserts shrunken dying instances. `commit-lanes` times
//! the serving write path: one `commit_batch` of assertions into distinct
//! small shards of the webform federation, each lane copying its shard.
//! That the batched what-if agrees with the per-candidate loop is
//! certified by the `hotpaths` module's tests.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::hotpaths::{
    bp_points, commit_lane_requests, federation_points, what_if_queries, COMMIT_LANES, LANE_GROUPS,
    SCAN_GROUPS,
};
use smn_bench::sharding::sharded_federation;
use smn_core::feedback::Assertion;
use smn_core::ProbabilisticNetwork;

type Point = (String, ProbabilisticNetwork);

fn hotpaths(c: &mut Criterion) {
    let points: Vec<Point> = bp_points().into_iter().chain(federation_points()).collect();
    let scan: Point = (format!("component/g{SCAN_GROUPS}"), sharded_federation(SCAN_GROUPS));
    let lanes: Vec<Point> =
        LANE_GROUPS.iter().map(|&g| (format!("component/g{g}"), sharded_federation(g))).collect();
    information_gains(c, points.iter().chain([&scan]));
    assert_candidate(c, &points);
    clone_baseline(c, points.iter().chain(&lanes));
    commit_lanes(c, &lanes);
    what_if(c, &points, &scan);
}

fn information_gains<'a>(c: &mut Criterion, points: impl Iterator<Item = &'a Point>) {
    let mut group = c.benchmark_group("hotpaths/information-gains");
    for (label, pn) in points {
        let pool = pn.uncertain_candidates();
        group.bench_with_input(BenchmarkId::from_parameter(label), pn, |b, pn| {
            b.iter(|| pn.information_gains(&pool));
        });
    }
    group.finish();
}

/// The vendored criterion stand-in has no `iter_batched`, so the measured
/// closure must include the `pn.clone()` setup. The `clone-baseline`
/// group times that clone alone at every point — subtract it to get the
/// assertion path itself.
fn assert_candidate(c: &mut Criterion, points: &[Point]) {
    let mut group = c.benchmark_group("hotpaths/assert-candidate (incl. clone)");
    for (label, pn) in points {
        let probe = pn.uncertain_candidates()[0];
        for (verdict, approved) in [("approve", true), ("disapprove", false)] {
            let id = BenchmarkId::from_parameter(format!("{verdict}/{label}"));
            group.bench_with_input(id, pn, |b, pn| {
                b.iter(|| {
                    let mut fresh = pn.clone();
                    fresh.assert_candidate(Assertion { candidate: probe, approved }).unwrap();
                    fresh.entropy()
                });
            });
        }
    }
    group.finish();
}

fn clone_baseline<'a>(c: &mut Criterion, points: impl Iterator<Item = &'a Point>) {
    let mut group = c.benchmark_group("hotpaths/clone-baseline");
    for (label, pn) in points {
        group.bench_with_input(BenchmarkId::from_parameter(label), pn, |b, pn| {
            b.iter(|| pn.clone().entropy());
        });
    }
    group.finish();
}

/// Like the assert group, the measured closure includes the `pn.clone()`
/// that `clone-baseline` times alone; the entropy read after the batch is
/// the one a serving flush makes.
fn commit_lanes(c: &mut Criterion, lanes: &[Point]) {
    let mut group = c.benchmark_group("hotpaths/commit-lanes (incl. clone)");
    for (label, pn) in lanes {
        let requests = commit_lane_requests(pn, COMMIT_LANES);
        group.bench_with_input(BenchmarkId::from_parameter(label), pn, |b, pn| {
            b.iter(|| {
                let mut fresh = pn.clone();
                fresh.commit_batch(&requests);
                fresh.entropy()
            });
        });
    }
    group.finish();
}

/// One exact what-if at every point, and the standard query mix on the
/// scan federation: batched against the per-candidate loop.
fn what_if(c: &mut Criterion, points: &[Point], (scan_label, scan): &Point) {
    let mut group = c.benchmark_group("hotpaths/what-if");
    for (label, pn) in points {
        let probe = pn.uncertain_candidates()[0];
        group.bench_with_input(BenchmarkId::new("single", label), pn, |b, pn| {
            b.iter(|| pn.what_if(probe, true));
        });
    }
    let queries = what_if_queries(scan);
    let n = queries.len();
    group.bench_with_input(BenchmarkId::new(format!("batched-{n}"), scan_label), scan, |b, pn| {
        b.iter(|| pn.what_if_batch(&queries));
    });
    let id = BenchmarkId::new(format!("per-candidate-{n}"), scan_label);
    group.bench_with_input(id, scan, |b, pn| {
        b.iter(|| queries.iter().map(|&(q, a)| pn.what_if(q, a)).sum::<f64>());
    });
    group.finish();
}

criterion_group!(benches, hotpaths);
criterion_main!(benches);

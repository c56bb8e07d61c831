//! Criterion benches for the selection strategies of §IV-D: the cost of
//! one select step, the batch information-gain computation, and one warm
//! cached pick after an assertion (the steady-state per-question cost)
//! against one full-pool fresh scan on the small federation. That the
//! cached and fresh paths ask the same questions is certified by
//! `smn-core`'s `tests/evolution.rs` and `smn-dist`'s differential suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::bp_sampled;
use smn_bench::hotpaths::SCAN_GROUPS;
use smn_bench::sharding::sharded_federation;
use smn_core::feedback::Assertion;
use smn_core::selection::{
    ConfidenceOrderSelection, InformationGainSelection, MaxEntropySelection, RandomSelection,
    SelectionStrategy,
};
use smn_core::{GainSource, ProbabilisticNetwork};

fn bench_select_step(c: &mut Criterion) {
    let pn = bp_sampled();
    let mut group = c.benchmark_group("selection/step");
    group.bench_function("random", |b| {
        let mut s = RandomSelection::new(1);
        b.iter(|| s.select(&pn));
    });
    group.bench_function("information-gain", |b| {
        let mut s = InformationGainSelection::new(1);
        b.iter(|| s.select(&pn));
    });
    group.bench_function("information-gain-limit32", |b| {
        let mut s = InformationGainSelection::new(1).with_limit(32);
        b.iter(|| s.select(&pn));
    });
    group.bench_function("max-entropy", |b| {
        let mut s = MaxEntropySelection;
        b.iter(|| s.select(&pn));
    });
    group.bench_function("confidence-order", |b| {
        let mut s = ConfidenceOrderSelection;
        b.iter(|| s.select(&pn));
    });
    group.finish();
}

fn bench_information_gains_batch(c: &mut Criterion) {
    let pn = bp_sampled();
    let pool = pn.uncertain_candidates();
    let mut group = c.benchmark_group("selection/information-gains");
    group.bench_with_input(BenchmarkId::from_parameter(pool.len()), &pool, |b, pool| {
        b.iter(|| pn.information_gains(pool));
    });
    // the per-candidate path the batch API replaces (first 16 candidates
    // only — it is quadratically slower)
    group.bench_function("single-candidate-x16", |b| {
        b.iter(|| pool.iter().take(16).map(|&c| pn.information_gain(c)).sum::<f64>());
    });
    group.finish();
}

fn steady_state_network() -> ProbabilisticNetwork {
    let mut pn = sharded_federation(SCAN_GROUPS);
    // one integrated answer: the steady state a reconciliation loop
    // selects from (exactly one component dirty)
    let c = pn.uncertain_candidates()[0];
    pn.assert_candidate(Assertion { candidate: c, approved: false }).unwrap();
    pn
}

fn bench_cached_vs_fresh(c: &mut Criterion) {
    let pn = steady_state_network();
    let n = pn.network().candidate_count();
    let mut group = c.benchmark_group("selection/cached-vs-fresh");
    group.bench_with_input(BenchmarkId::new("fresh-scan", format!("C{n}")), &pn, |b, pn| {
        let mut strategy = InformationGainSelection::new(11).without_cache();
        b.iter(|| strategy.select(pn));
    });
    group.bench_with_input(BenchmarkId::new("cached", format!("C{n}")), &pn, |b, pn| {
        let mut strategy = InformationGainSelection::new(11);
        pn.refresh_gain_cache(); // pay the cold scan outside the timer
        b.iter(|| strategy.select(pn));
    });
    group.finish();
}

criterion_group!(benches, bench_select_step, bench_information_gains_batch, bench_cached_vs_fresh);
criterion_main!(benches);

//! Criterion wrappers for cached vs fresh-scan selection: one warm
//! cached pick after an assertion (the steady-state per-question cost)
//! against one full-pool fresh scan, on the small federation. That the
//! cached and fresh paths ask the same questions is certified by
//! `smn-core`'s `tests/evolution.rs` and `smn-dist`'s differential
//! suite.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_network};
use smn_bench::speed::FEDERATION_GROUPS;
use smn_core::feedback::Assertion;
use smn_core::selection::SelectionStrategy;
use smn_core::{GainSource, InformationGainSelection, ProbabilisticNetwork};

fn steady_state_network() -> ProbabilisticNetwork {
    let net = federation_network(FEDERATION_GROUPS[0], 7);
    let mut pn = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
    // one integrated answer: the steady state a reconciliation loop
    // selects from (exactly one component dirty)
    let c = pn.uncertain_candidates()[0];
    pn.assert_candidate(Assertion { candidate: c, approved: false }).unwrap();
    pn
}

fn bench_select(c: &mut Criterion) {
    let pn = steady_state_network();
    let n = pn.network().candidate_count();

    let mut group = c.benchmark_group("select/fresh-scan");
    group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
        let mut strategy = InformationGainSelection::new(11).without_cache();
        b.iter(|| strategy.select_with_score(pn));
    });
    group.finish();

    let mut group = c.benchmark_group("select/cached");
    group.bench_with_input(BenchmarkId::from_parameter(format!("C{n}")), &pn, |b, pn| {
        let mut strategy = InformationGainSelection::new(11);
        pn.refresh_gain_cache(); // pay the cold scan outside the timer
        b.iter(|| strategy.select_with_score(pn));
    });
    group.finish();
}

criterion_group!(benches, bench_select);
criterion_main!(benches);

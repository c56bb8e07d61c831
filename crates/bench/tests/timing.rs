//! Wall-clock claims, kept out of tier-1: every test here is ignored by a
//! plain `cargo test` and runs in its own CI step,
//! `cargo test --release -p smn-bench --test timing -- --ignored`.
//!
//! Each test re-times a path the criterion groups under `benches/` also
//! time, and asserts the claim made about it: incremental evolution
//! beats a full rebuild per event, a copy-on-write fork stays flat while
//! the stores grow, and every timed path takes measurable time. The
//! exactness and determinism half of each claim is checked in tier-1 by
//! the unit tests of the module that builds the scenario.

use smn_bench::evolve::{apply, candidate_pool, evolving_scenario, initial_network, live, rebuild};
use smn_bench::hotpaths::{bench_network, emission_config, store_config, SIZES};
use smn_bench::service::FORK_GROUPS;
use smn_bench::sharding::{bench_sampler, bench_sharding, federation_network};
use smn_core::feedback::{Assertion, Feedback};
use smn_core::sampling::SampleStore;
use smn_core::selection::SelectionStrategy;
use smn_core::{InformationGainSelection, ProbabilisticNetwork};
use smn_datasets::ChurnEvent;
use smn_dist::{spawn_local_cluster, DistNetwork, Transport};
use smn_schema::CandidateId;
use std::time::Instant;

/// Minimum wall-clock milliseconds of `f` over `iters` runs.
fn min_ms(iters: usize, mut f: impl FnMut()) -> f64 {
    (0..iters.max(1))
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e3
        })
        .fold(f64::INFINITY, f64::min)
}

/// Milliseconds of one `assert_candidate` on an unshared copy of `pn`: a
/// warm-up assertion on a same-shard neighbour first copies the shard,
/// so the timer sees the owned hot path, not the copy-on-write.
fn owned_assert_ms(pn: &ProbabilisticNetwork) -> f64 {
    let uncertain = pn.uncertain_candidates();
    let (warm, probe) = uncertain
        .iter()
        .enumerate()
        .find_map(|(i, &a)| {
            uncertain[i + 1..].iter().find(|&&b| pn.shard_of(a) == pn.shard_of(b)).map(|&b| (a, b))
        })
        .expect("a shard with two uncertain candidates");
    let mut fresh = pn.fork();
    fresh.assert_candidate(Assertion { candidate: warm, approved: false }).unwrap();
    min_ms(1, || fresh.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap())
}

#[test]
#[ignore = "wall-clock; run by the CI timing step"]
fn incremental_evolution_beats_rebuild() {
    let evo = evolving_scenario(4, 7);
    let pool = candidate_pool(&evo, 7);
    let mut pn = initial_network(&evo, &pool);
    let (mut arrivals, mut retirements, mut rebuilds) = (Vec::new(), Vec::new(), Vec::new());
    for event in evo.schedule(pool.len()) {
        let ms = min_ms(1, || apply(&mut pn, &pool, event));
        match event {
            ChurnEvent::Arrive(_) => arrivals.push(ms),
            ChurnEvent::Retire(_) => retirements.push(ms),
        }
        rebuilds.push(min_ms(1, || drop(rebuild(&evo, live(&pn)))));
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let rebuild_ms = mean(&rebuilds);
    let per_arrival = rebuild_ms / mean(&arrivals).max(1e-9);
    let per_retirement = rebuild_ms / mean(&retirements).max(1e-9);
    assert!(
        per_arrival > 1.5,
        "incremental arrival must beat rebuild-per-event: {per_arrival:.2}×"
    );
    assert!(
        per_retirement > 1.5,
        "incremental retirement must beat rebuild-per-event: {per_retirement:.2}×"
    );
}

#[test]
#[ignore = "wall-clock; run by the CI timing step"]
fn fork_cost_is_flat_while_stores_grow() {
    // (distinct samples, sharded fork µs) per federation size
    let points: Vec<(usize, f64)> = FORK_GROUPS
        .iter()
        .map(|&groups| {
            let net = federation_network(groups, 7);
            let mono = ProbabilisticNetwork::new(net.clone(), bench_sampler(3));
            let sharded =
                ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
            let fork_us = min_ms(50, || drop(sharded.fork())) * 1e3;
            assert!(fork_us < 1_000.0, "a fork must stay in microseconds: {fork_us} us");
            assert!(owned_assert_ms(&sharded) > 0.0 && owned_assert_ms(&mono) > 0.0);
            (sharded.distinct_sample_count(), fork_us)
        })
        .collect();
    let (first, last) = (points[0], points[points.len() - 1]);
    assert!(last.0 > first.0, "federation growth must grow the stores");
    // O(#shards) pointer copies: the 6× larger store must not make the
    // fork anywhere near 6× slower (allow generous jitter)
    assert!(
        last.1 < first.1 * 20.0 + 50.0,
        "sharded fork cost exploded: {} -> {} us",
        first.1,
        last.1
    );
}

#[test]
#[ignore = "wall-clock; run by the CI timing step"]
fn timed_paths_take_measurable_time() {
    // hot paths on the smallest standard size
    let (s, a) = SIZES[0];
    let net = bench_network(s, a, 7);
    let empty = Feedback::new(net.candidate_count());
    assert!(min_ms(1, || drop(SampleStore::new(&net, &empty, emission_config()))) > 0.0);
    let pn = ProbabilisticNetwork::new(net, store_config());
    let pool = pn.uncertain_candidates();
    assert!(min_ms(1, || drop(pn.information_gains(&pool))) >= 0.0);
    let probe = (0..pn.network().candidate_count())
        .map(CandidateId::from_index)
        .find(|&c| pn.probability(c) > 0.0 && pn.probability(c) < 1.0)
        .expect("bench network has uncertain candidates");
    let mut fresh = pn.clone();
    assert!(
        min_ms(1, || fresh
            .assert_candidate(Assertion { candidate: probe, approved: true })
            .unwrap())
            > 0.0
    );

    // monolithic and sharded fill, assertion and gain scan on a federation
    let net = federation_network(8, 7);
    let mono = || ProbabilisticNetwork::new(net.clone(), bench_sampler(3));
    let sharded =
        || ProbabilisticNetwork::new_sharded(net.clone(), bench_sampler(3), bench_sharding());
    assert!(min_ms(1, || drop(mono())) > 0.0 && min_ms(1, || drop(sharded())) > 0.0);
    let (mono, sharded) = (mono(), sharded());
    assert!(owned_assert_ms(&mono) > 0.0 && owned_assert_ms(&sharded) > 0.0);
    let pool = sharded.uncertain_candidates();
    assert!(min_ms(1, || drop(sharded.information_gains(&pool))) > 0.0);

    // cached and fresh-scan selection of one question
    for mut strategy in
        [InformationGainSelection::new(11).without_cache(), InformationGainSelection::new(11)]
    {
        let pn = sharded.fork();
        assert!(
            min_ms(1, || {
                std::hint::black_box(strategy.select(&pn));
            }) > 0.0
        );
    }

    // bootstrapping a two-server cluster
    let (links, handles) = spawn_local_cluster(2);
    let links: Vec<Box<dyn Transport>> =
        links.into_iter().map(|l| Box::new(l) as Box<dyn Transport>).collect();
    let start = Instant::now();
    let mut dist = DistNetwork::new(net.clone(), bench_sampler(3), bench_sharding(), links)
        .expect("bootstrap cluster");
    assert!(start.elapsed().as_secs_f64() > 0.0);
    dist.shutdown().expect("orderly shutdown");
    for h in handles {
        h.join().expect("server thread").expect("clean exit");
    }
}

//! Concurrency-determinism and differential certification of the
//! reconciliation service.
//!
//! * **Thread invariance** — a seeded run is byte-identical (report JSON,
//!   commit history, final posteriors) at 1, 4 and 8 OS threads: the
//!   thread count only changes who computes what, never the result.
//! * **Scheduler invariance** — `threads: 1` (each round's what-if batch
//!   under [`smn_core::pool::sequential`]) and `threads: 4` (the worker
//!   pool) produce byte-identical runs on the fig1, perturbed and
//!   federation presets: scheduling is pure wall-clock.
//! * **Sequential replay** — a 1-worker, redundancy-1 service with a
//!   perfect worker replays a sequential [`Session::run`] trace point for
//!   point: same candidates, same verdicts, same entropy/effort curve.
//! * **Redundancy** — majority voting over a noisy crowd commits fewer
//!   errors than a single noisy worker on the same schedule.

use smn_constraints::ConstraintConfig;
use smn_core::engine::Strategy;
use smn_core::shard::ShardingConfig;
use smn_core::{
    GroundTruthOracle, MatchingNetwork, ReconciliationGoal, Session, SessionConfig, StepOutcome,
};
use smn_datasets::webform_federation;
use smn_matchers::matcher::match_network;
use smn_matchers::PerturbationMatcher;
use smn_schema::Correspondence;
use smn_service::{Aggregation, ReconciliationService, Scheduler, ServiceConfig};
use smn_testkit::{fig1_network, fig1_truth, perturbed_network, tiny_sampler};

/// A genuinely multi-shard workload: the 12-cluster webform federation.
fn federation_case(seed: u64) -> (MatchingNetwork, Vec<Correspondence>) {
    let fed = webform_federation(seed);
    let truth = fed.dataset.selective_matching(&fed.graph);
    let matcher = PerturbationMatcher::new(truth.iter().copied(), 0.65, 0.85, seed);
    let cs = match_network(&matcher, &fed.dataset.catalog, &fed.graph).expect("valid candidates");
    let net = MatchingNetwork::new(
        fed.dataset.catalog.clone(),
        fed.graph.clone(),
        cs,
        ConstraintConfig::default(),
    );
    (net, truth)
}

fn service_config(threads: usize, goal: ReconciliationGoal) -> ServiceConfig {
    ServiceConfig {
        sampler: tiny_sampler(5),
        sharding: ShardingConfig::default(),
        redundancy: 2,
        aggregation: Aggregation::QualityWeighted,
        threads,
        scheduler: Scheduler::Pool,
        seed: 17,
        goal,
    }
}

#[test]
fn runs_are_byte_identical_across_thread_counts() {
    let (net, truth) = federation_case(3);
    let crowd = vec![0.05, 0.15, 0.25, 0.1, 0.3, 0.2];
    let mut outcomes: Vec<(String, Vec<f64>, usize)> = Vec::new();
    for threads in [1usize, 4, 8] {
        let mut svc = ReconciliationService::new(
            net.clone(),
            truth.clone(),
            crowd.clone(),
            service_config(threads, ReconciliationGoal::Budget(30)),
        );
        let report = svc.run();
        assert_eq!(svc.history().len(), 30);
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        outcomes.push((json, svc.base().probabilities().to_vec(), svc.history().len()));
    }
    let (ref_json, ref_probs, ref_len) = outcomes[0].clone();
    for (json, probs, len) in &outcomes[1..] {
        assert_eq!(*json, ref_json, "report JSON must not depend on the thread count");
        assert_eq!(*probs, ref_probs, "posteriors must not depend on the thread count");
        assert_eq!(*len, ref_len);
    }
    // and the same config run twice is reproducible outright
    let rerun = ReconciliationService::new(
        net,
        truth,
        crowd,
        service_config(8, ReconciliationGoal::Budget(30)),
    )
    .run();
    assert_eq!(serde_json::to_string_pretty(&rerun).unwrap(), ref_json);
}

#[test]
fn schedulers_produce_byte_identical_reports() {
    // `threads: 1` vs `threads: 4` on all three presets: scheduling is
    // pure wall-clock, so reports and posteriors must match byte for byte
    let cases: Vec<(MatchingNetwork, Vec<Correspondence>)> = vec![
        (fig1_network(), fig1_truth()),
        perturbed_network(3, 5, 0.7, 0.9, 11),
        federation_case(3),
    ];
    let crowd = vec![0.05, 0.15, 0.25, 0.1, 0.3, 0.2];
    for (case, (net, truth)) in cases.into_iter().enumerate() {
        let run = |threads: usize| {
            let mut svc = ReconciliationService::new(
                net.clone(),
                truth.clone(),
                crowd.clone(),
                service_config(threads, ReconciliationGoal::Budget(12)),
            );
            let report = svc.run();
            (
                serde_json::to_string_pretty(&report).expect("report serializes"),
                svc.base().probabilities().to_vec(),
            )
        };
        assert_eq!(run(4), run(1), "pool vs sequential diverged on case {case}");
    }
}

#[test]
fn single_perfect_worker_replays_the_sequential_session() {
    for (net, truth) in [(fig1_network(), fig1_truth()), perturbed_network(3, 5, 0.7, 0.9, 11)] {
        let seed = 23u64;
        let mut session = Session::new(
            net.clone(),
            SessionConfig {
                sampler: tiny_sampler(5),
                strategy: Strategy::InformationGain,
                strategy_seed: seed,
                sharding: ShardingConfig::default(),
            },
        );
        let mut oracle = GroundTruthOracle::new(truth.iter().copied());
        let sequential = session.run(&mut oracle, ReconciliationGoal::Complete);

        let mut svc = ReconciliationService::new(
            net,
            truth,
            vec![0.0],
            ServiceConfig {
                sampler: tiny_sampler(5),
                sharding: ShardingConfig::default(),
                redundancy: 1,
                aggregation: Aggregation::Majority,
                threads: 2,
                scheduler: Scheduler::Pool,
                seed,
                goal: ReconciliationGoal::Complete,
            },
        );
        svc.run();
        assert_eq!(
            svc.history(),
            &sequential[..],
            "k = 1 with a perfect worker must replay the sequential trace"
        );
        assert_eq!(svc.base().probabilities(), session.network().probabilities());
        assert_eq!(svc.base().entropy(), 0.0);
    }
}

#[test]
fn rounds_spread_leases_across_distinct_shards() {
    let (net, truth) = federation_case(3);
    let mut svc = ReconciliationService::new(
        net,
        truth,
        vec![0.0; 6],
        ServiceConfig { redundancy: 1, ..service_config(4, ReconciliationGoal::Budget(36)) },
    );
    let report = svc.run();
    // round 0 has plenty of uncertain components, so its 6 concurrent
    // leases must land on 6 distinct shards (later rounds may legitimately
    // collide once only one component retains uncertainty)
    let first: Vec<usize> =
        report.commits.iter().filter(|c| c.round == 0).map(|c| c.shard).collect();
    assert!(first.len() > 1, "a 6-worker federation run must batch concurrent leases");
    let mut dedup = first.clone();
    dedup.sort_unstable();
    dedup.dedup();
    assert_eq!(dedup.len(), first.len(), "round 0 re-leased a shard: {first:?}");
}

#[test]
fn redundancy_and_quality_weighting_beat_a_lone_noisy_worker() {
    // single runs are deterministic but knife-edge votes make any one
    // schedule noisy; aggregate committed errors over networks × seeds
    let (mut lone_errors, mut crowd_errors) = (0usize, 0usize);
    for net_seed in [7u64, 19] {
        let (net, truth) = perturbed_network(3, 8, 0.7, 0.9, net_seed);
        for svc_seed in [31u64, 5, 17] {
            let run = |error_rates: Vec<f64>, redundancy: usize, aggregation: Aggregation| {
                let mut svc = ReconciliationService::new(
                    net.clone(),
                    truth.clone(),
                    error_rates,
                    ServiceConfig {
                        sampler: tiny_sampler(5),
                        sharding: ShardingConfig::default(),
                        redundancy,
                        aggregation,
                        threads: 2,
                        scheduler: Scheduler::Pool,
                        seed: svc_seed,
                        goal: ReconciliationGoal::Complete,
                    },
                );
                let report = svc.run();
                report
                    .commits
                    .iter()
                    .filter(|c| c.outcome != "skipped")
                    .filter(|c| {
                        let corr = svc.base().network().corr(smn_schema::CandidateId(c.candidate));
                        c.approved != truth.contains(&corr)
                    })
                    .count()
            };
            lone_errors += run(vec![0.3], 1, Aggregation::Majority);
            crowd_errors += run(vec![0.3; 5], 5, Aggregation::QualityWeighted);
        }
    }
    assert!(
        crowd_errors < lone_errors,
        "5-vote aggregation ({crowd_errors}) must beat one noisy worker ({lone_errors})"
    );
}

#[test]
fn noisy_commits_survive_inconsistent_approvals() {
    // a high-noise crowd will eventually vote to approve conflicting
    // candidates; the service must flip — never panic — and trace it
    let (net, truth) = perturbed_network(3, 5, 0.6, 0.9, 19);
    let mut svc = ReconciliationService::new(
        net,
        truth,
        vec![0.45, 0.45, 0.45],
        ServiceConfig {
            sampler: tiny_sampler(5),
            sharding: ShardingConfig::default(),
            redundancy: 1,
            aggregation: Aggregation::Majority,
            threads: 2,
            scheduler: Scheduler::Pool,
            seed: 5,
            goal: ReconciliationGoal::Complete,
        },
    );
    let report = svc.run();
    assert!(report.commits.iter().all(|c| c.outcome != "skipped"));
    assert!(svc.history().iter().all(|t| t.outcome != StepOutcome::Skipped));
    assert_eq!(svc.base().effort(), 1.0, "even a noisy run validates everything");
}

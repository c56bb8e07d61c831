//! The round-mode service configuration of `exp_service`. Its tests
//! also pin the scenario behind the fork timing of `tests/timing.rs`.

use crate::sharding::{bench_sampler, bench_sharding};
use smn_core::ReconciliationGoal;
use smn_service::{Aggregation, ServiceConfig};

/// A round-mode service configuration over the bench sampler and
/// sharding, with service seed 17.
pub fn service_config(
    redundancy: usize,
    aggregation: Aggregation,
    goal: ReconciliationGoal,
) -> ServiceConfig {
    ServiceConfig {
        sampler: bench_sampler(3),
        sharding: bench_sharding(),
        redundancy,
        aggregation,
        seed: 17,
        goal,
        ..ServiceConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::{federation_network, GROUPS};
    use smn_core::feedback::Assertion;
    use smn_core::ProbabilisticNetwork;
    use smn_service::ReconciliationService;

    #[test]
    fn fork_cost_is_flat_while_stores_grow() {
        // the scenario behind the fork timing of `tests/timing.rs`: the
        // stores grow with the federation, and a fork is an exact copy
        // that a write on either side leaves independent
        let counts: Vec<usize> = GROUPS
            .iter()
            .map(|&groups| {
                let net = federation_network(groups, 7);
                let mono = ProbabilisticNetwork::new(net.clone(), bench_sampler(3));
                let sharded =
                    ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
                assert!(sharded.shard_count() > 1, "{groups} groups");
                for base in [&mono, &sharded] {
                    let mut fork = base.fork();
                    assert_eq!(fork.probabilities(), base.probabilities());
                    assert_eq!(fork.distinct_sample_count(), base.distinct_sample_count());
                    let before = base.probabilities().to_vec();
                    let probe = base.uncertain_candidates()[0];
                    fork.assert_candidate(Assertion { candidate: probe, approved: true }).unwrap();
                    assert_eq!(fork.probability(probe), 1.0);
                    assert_eq!(base.probabilities(), &before[..], "a fork write must not leak");
                }
                sharded.distinct_sample_count()
            })
            .collect();
        assert_eq!(counts.len(), GROUPS.len());
        assert!(counts[counts.len() - 1] > counts[0], "federation growth must grow the stores");
    }

    #[test]
    fn throughput_points_are_deterministic_in_content() {
        // the full crowd votes on every lease (k = W) on the 24-cluster
        // federation, so each worker count drives a different schedule
        let (net, truth) = crate::sharding::federation_case(24, 7);
        for workers in [1usize, 2, 4, 8] {
            let config = service_config(
                workers,
                Aggregation::QualityWeighted,
                ReconciliationGoal::Budget(48),
            );
            let run = || {
                ReconciliationService::new(net.clone(), truth.clone(), vec![0.1; workers], config)
                    .run()
            };
            let (a, b) = (run(), run());
            assert_eq!(a.commits.len(), 48, "the budget caps the commits");
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{workers} workers"
            );
        }
    }
}

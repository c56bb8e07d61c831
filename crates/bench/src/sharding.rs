//! The federation scenario shared by the benches: a federation of small
//! sparse webform networks fused into one catalog
//! ([`smn_datasets::FederationSpec`]). It has many independent conflict
//! clusters and no cross-cluster candidates — the regime where the
//! component-sharded `ProbabilisticNetwork` turns per-assertion and
//! information-gain cost local. `benches/sharding.rs` times fill,
//! assertion and gain scan on it, monolithic against sharded;
//! `tests/sharding.rs` certifies that the two representations agree.

use crate::{matched_network, MatcherKind};
use smn_core::{MatchingNetwork, SamplerConfig, ShardingConfig};
use smn_datasets::{FederationSpec, SharingModel, Vocabulary};

/// Federation sizes of the sharding bench (number of fused
/// sub-networks); 12 is the `webform_federation` preset shape.
pub const GROUPS: [usize; 3] = [4, 12, 24];

/// Builds the standard sharding bench scenario — a federation of `groups`
/// webform clusters (3 schemas each), matched by the calibrated
/// perturbation matcher — returning the network *and* its verified
/// matching (the service benches track precision/recall against it).
pub fn federation_case(
    groups: usize,
    seed: u64,
) -> (MatchingNetwork, Vec<smn_schema::Correspondence>) {
    let fed = FederationSpec {
        name: format!("Fed{groups}"),
        vocabulary: Vocabulary::web_form(),
        groups,
        schemas_per_group: 3,
        attrs_min: 8,
        attrs_max: 14,
        sharing: SharingModel::RankBiased { alpha: 1.3 },
    }
    .generate(seed);
    matched_network(&fed.dataset, &fed.graph, MatcherKind::perturbation(seed))
}

/// [`federation_case`] without the ground truth.
pub fn federation_network(groups: usize, seed: u64) -> MatchingNetwork {
    federation_case(groups, seed).0
}

/// Sampler configuration of the sharding bench: the §VI-B shape scaled to
/// interactive sizes.
pub fn bench_sampler(seed: u64) -> SamplerConfig {
    SamplerConfig { n_samples: 400, walk_steps: 4, n_min: 150, seed, anneal: true, chains: 1 }
}

/// Sharded configuration used by the benches: defaults, sequential fill
/// kept off so fill-time wins reflect locality *and* parallelism the way
/// a session would see them.
pub fn bench_sharding() -> ShardingConfig {
    ShardingConfig::default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_core::ProbabilisticNetwork;

    #[test]
    fn smallest_point_is_deterministic_and_multi_component() {
        let groups = GROUPS[0];
        let net = federation_network(groups, 7);
        let build =
            || ProbabilisticNetwork::new_sharded(net.clone(), bench_sampler(3), bench_sharding());
        let (sharded, again) = (build(), build());
        assert_eq!(
            sharded.probabilities(),
            again.probabilities(),
            "same seed must reproduce the sharded posteriors"
        );
        assert!(
            sharded.shard_count() >= groups,
            "a federation shards into at least one piece per group"
        );
        assert!(net.candidate_count() > 0);
    }
}

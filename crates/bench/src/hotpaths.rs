//! The hot-path bench networks.
//!
//! Per expert question, Algorithm 1 pays for three inner loops: the
//! Algorithm 3 sampling fill, the batch information-gain selection, and
//! the per-assertion view-maintenance + probability recomputation.
//! `benches/hotpaths.rs` and `benches/speed.rs` time those loops on the
//! calibrated network sizes built here. The serving write path, a
//! `commit_batch` whose lanes each copy one small shard, runs on the
//! webform federation instead ([`commit_lane_requests`]).

use crate::{matched_network, MatcherKind};
use smn_core::feedback::Assertion;
use smn_core::sampling::SamplerConfig;
use smn_core::{MatchingNetwork, ProbabilisticNetwork};
use smn_datasets::{DatasetSpec, SharingModel, Vocabulary};

/// The three bench sizes as (schemas, attributes per schema). The two
/// smaller entries match `benches/sampling.rs` so numbers stay comparable
/// across PRs; the largest pushes `|C|` towards the four-digit regime the
/// ROADMAP targets.
pub const SIZES: [(usize, usize); 3] = [(4, 40), (6, 60), (8, 90)];

/// Builds the standard bench network for a size entry.
pub fn bench_network(schemas: usize, attrs: usize, seed: u64) -> MatchingNetwork {
    let d = DatasetSpec {
        name: "bench".into(),
        vocabulary: Vocabulary::business_partner(),
        schema_count: schemas,
        attrs_min: attrs,
        attrs_max: attrs,
        sharing: SharingModel::RankBiased { alpha: 0.6 },
    }
    .generate(seed);
    let g = d.complete_graph();
    matched_network(&d, &g, MatcherKind::perturbation(seed)).0
}

/// Sampler configuration of the emission bench: one 50-emission pass.
pub fn emission_config() -> SamplerConfig {
    SamplerConfig { n_samples: 50, walk_steps: 4, n_min: 1, seed: 3, anneal: true, chains: 1 }
}

/// Sampler configuration backing the gain/assertion measurements.
pub fn store_config() -> SamplerConfig {
    SamplerConfig { n_samples: 400, walk_steps: 4, n_min: 150, seed: 3, anneal: true, chains: 1 }
}

/// Federation sizes (fused webform groups) of the commit-lane bench: each
/// has well over [`COMMIT_LANES`] components.
pub const LANE_GROUPS: [usize; 2] = [60, 240];

/// Assertions per commit-lane batch, one per shard.
pub const COMMIT_LANES: usize = 40;

/// One assertion into each of the first `lanes` shards of `pn` that have
/// an uncertain member: its lowest uncertain candidate, approved and
/// disapproved alternately. Every request opens its own lane, so a
/// `commit_batch` of them copies `lanes` distinct shards.
pub fn commit_lane_requests(pn: &ProbabilisticNetwork, lanes: usize) -> Vec<Assertion> {
    (0..pn.shard_count())
        .filter_map(|k| {
            let uncertain = |&c: &smn_schema::CandidateId| {
                let p = pn.probability(c);
                p > 0.0 && p < 1.0
            };
            pn.shard_members(k).into_iter().find(uncertain)
        })
        .take(lanes)
        .enumerate()
        .map(|(i, candidate)| Assertion { candidate, approved: i % 2 == 0 })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::{bench_sampler, bench_sharding, federation_network};
    use smn_core::feedback::Feedback;
    use smn_core::sampling::SampleStore;

    #[test]
    fn smallest_point_is_deterministic_and_positive() {
        let net = bench_network(SIZES[0].0, SIZES[0].1, 7);
        let empty = Feedback::new(net.candidate_count());
        let fill = SampleStore::new(&net, &empty, emission_config());
        let again = SampleStore::new(&net, &empty, emission_config());
        assert_eq!(
            fill.samples(),
            again.samples(),
            "same seed must reproduce the distinct-instance set"
        );
        assert!(net.candidate_count() > 0 && !fill.samples().is_empty());
    }

    #[test]
    fn commit_lane_requests_open_one_lane_each_and_integrate() {
        let net = federation_network(LANE_GROUPS[0], 7);
        let pn = ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
        let requests = commit_lane_requests(&pn, COMMIT_LANES);
        assert_eq!(requests.len(), COMMIT_LANES);
        let mut shards: Vec<usize> = requests.iter().map(|r| pn.shard_of(r.candidate)).collect();
        shards.dedup();
        assert_eq!(shards.len(), COMMIT_LANES, "one request per shard, in shard order");
        let outcomes = pn.fork().commit_batch(&requests);
        assert!(outcomes.iter().all(|o| o.mutated), "every request changes its shard");
    }
}

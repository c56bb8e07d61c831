//! The hot-path bench points.
//!
//! Per expert question, Algorithm 1 pays for three inner loops: the
//! Algorithm 3 sampling fill, the batch information-gain selection, and
//! the per-assertion view-maintenance + probability recomputation.
//! `benches/sampling.rs` times the fill and `benches/hotpaths.rs` the
//! other two, each at the points built here: the BP networks of
//! [`SIZES`] under the whole partition ([`bp_points`]) and the webform
//! federations of [`GROUPS`] under the whole and the component partition
//! ([`federation_points`]). The exact what-if, batched
//! ([`what_if_batch`]) against a per-candidate loop, runs on the
//! [`SCAN_GROUPS`] federation; the serving write path, a `commit_batch`
//! whose lanes each copy one small shard, on the [`LANE_GROUPS`]
//! federations ([`commit_lane_requests`]).
//!
//! [`what_if_batch`]: ProbabilisticNetwork::what_if_batch

use crate::sharding::{bench_sampler, bench_sharding, federation_network, GROUPS};
use crate::{matched_network, MatcherKind};
use smn_core::feedback::Assertion;
use smn_core::sampling::SamplerConfig;
use smn_core::{MatchingNetwork, ProbabilisticNetwork};
use smn_datasets::{DatasetSpec, SharingModel, Vocabulary};
use smn_schema::CandidateId;

/// The three BP bench sizes as (schemas, attributes per schema); the
/// largest pushes `|C|` towards the four-digit regime the ROADMAP targets.
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

/// Sampler configuration of a bare sample-store fill: one 50-emission pass.
pub fn emission_config() -> SamplerConfig {
    SamplerConfig { n_samples: 50, walk_steps: 4, n_min: 1, seed: 3, anneal: true, chains: 1 }
}

/// The network of each of [`SIZES`] under the whole partition, labelled
/// `whole/C{n}`.
pub fn bp_points() -> Vec<(String, ProbabilisticNetwork)> {
    SIZES
        .iter()
        .map(|&(s, a)| {
            let pn = ProbabilisticNetwork::new(bench_network(s, a, 7), bench_sampler(3));
            (format!("whole/C{}", pn.network().candidate_count()), pn)
        })
        .collect()
}

/// Each federation of [`GROUPS`] under the whole and the component
/// partition, labelled `whole/g{groups}` and `component/g{groups}`.
pub fn federation_points() -> Vec<(String, ProbabilisticNetwork)> {
    GROUPS
        .iter()
        .flat_map(|&groups| {
            let net = federation_network(groups, 7);
            let whole = ProbabilisticNetwork::new(net.clone(), bench_sampler(3));
            let component =
                ProbabilisticNetwork::new_sharded(net, bench_sampler(3), bench_sharding());
            [(format!("whole/g{groups}"), whole), (format!("component/g{groups}"), component)]
        })
        .collect()
}

/// The federation size (fused 3-schema sub-networks, ≈ 15 candidates
/// each) of the what-if, federation gain-scan and cached-selection
/// benches: `|C| ≈ 1.4k`, the hot-path regime.
pub const SCAN_GROUPS: usize = 96;

/// Hypothetical assertions evaluated by the what-if bench.
pub const WHAT_IF_QUERIES: usize = 128;

/// The standard what-if query mix on a network: the first
/// [`WHAT_IF_QUERIES`] uncertain candidates, alternating approve /
/// disapprove so both maintenance directions are exercised.
pub fn what_if_queries(pn: &ProbabilisticNetwork) -> Vec<(CandidateId, bool)> {
    pn.uncertain_candidates()
        .into_iter()
        .take(WHAT_IF_QUERIES)
        .enumerate()
        .map(|(i, c)| (c, i % 2 == 0))
        .collect()
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
            let uncertain = |&c: &CandidateId| {
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
    use crate::sharding::sharded_federation;
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
        let pn = sharded_federation(LANE_GROUPS[0]);
        let requests = commit_lane_requests(&pn, COMMIT_LANES);
        assert_eq!(requests.len(), COMMIT_LANES);
        let mut shards: Vec<usize> = requests.iter().map(|r| pn.shard_of(r.candidate)).collect();
        shards.dedup();
        assert_eq!(shards.len(), COMMIT_LANES, "one request per shard, in shard order");
        let outcomes = pn.fork().commit_batch(&requests);
        assert!(outcomes.iter().all(|o| o.mutated), "every request changes its shard");
    }

    #[test]
    fn what_if_batch_matches_per_candidate_loop() {
        let pn = sharded_federation(SCAN_GROUPS);
        let queries = what_if_queries(&pn);
        let batched = pn.what_if_batch(&queries);
        let max_abs_delta = queries
            .iter()
            .zip(&batched)
            .map(|(&(c, a), b)| (pn.what_if(c, a) - b).abs())
            .fold(0.0, f64::max);
        assert!(max_abs_delta <= 1e-12, "batched what-if drifted: max |Δ| = {max_abs_delta:e}");
        assert!(!queries.is_empty() && pn.shard_count() > SCAN_GROUPS / 2);
    }

    #[test]
    fn small_federation_point_is_deterministic() {
        let net = federation_network(8, 7);
        let build =
            || ProbabilisticNetwork::new_sharded(net.clone(), bench_sampler(3), bench_sharding());
        let (pn, again) = (build(), build());
        assert_eq!(
            pn.probabilities(),
            again.probabilities(),
            "sharded build must be bit-deterministic per seed"
        );
        assert!(net.candidate_count() > 0 && !pn.uncertain_candidates().is_empty());
        let largest = smn_constraints::Components::of_index(net.index()).largest();
        assert!(largest < net.candidate_count(), "a federation has many components");
    }
}

//! The hot-path bench networks.
//!
//! Per expert question, Algorithm 1 pays for three inner loops: the
//! Algorithm 3 sampling fill, the batch information-gain selection, and
//! the per-assertion view-maintenance + probability recomputation.
//! `benches/hotpaths.rs` and `benches/speed.rs` time those loops on the
//! calibrated network sizes built here.

use crate::{matched_network, MatcherKind};
use smn_core::sampling::SamplerConfig;
use smn_core::MatchingNetwork;
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

#[cfg(test)]
mod tests {
    use super::*;
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
}

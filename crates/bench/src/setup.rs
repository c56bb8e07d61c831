//! Shared experiment setup: datasets × matchers → matching networks.

use smn_constraints::ConstraintConfig;
use smn_core::{MatchingNetwork, ProbabilisticNetwork, SamplerConfig};
use smn_datasets::Dataset;
use smn_matchers::matcher::match_network;
use smn_matchers::{ensemble, PerturbationMatcher};
use smn_schema::Correspondence;

/// Which matcher generates the candidate set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatcherKind {
    /// COMA-like composite ensemble.
    Coma,
    /// AMC-like corpus-aware ensemble.
    Amc,
    /// Calibrated ground-truth perturbation (fast; used where the paper's
    /// experiment does not depend on a specific matcher).
    Perturbation {
        /// Target precision ×1000 (integer so the enum stays `Eq`).
        precision_milli: u32,
        /// Target recall ×1000.
        recall_milli: u32,
        /// Matcher seed.
        seed: u64,
    },
}

impl MatcherKind {
    /// Calibrated default perturbation: precision 0.65 / recall 0.85 — the
    /// candidate-quality regime the paper reports for its matchers.
    pub fn perturbation(seed: u64) -> Self {
        MatcherKind::Perturbation { precision_milli: 650, recall_milli: 850, seed }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            MatcherKind::Coma => "COMA",
            MatcherKind::Amc => "AMC",
            MatcherKind::Perturbation { .. } => "perturbation",
        }
    }
}

/// Matches `dataset` on `graph` with the requested matcher and assembles
/// the matching network plus the ground truth for that graph.
pub fn matched_network(
    dataset: &Dataset,
    graph: &smn_schema::InteractionGraph,
    matcher: MatcherKind,
) -> (MatchingNetwork, Vec<Correspondence>) {
    let truth = dataset.selective_matching(graph);
    let candidates = match matcher {
        MatcherKind::Coma => match_network(&ensemble::coma_like(), &dataset.catalog, graph)
            .expect("valid matcher output"),
        MatcherKind::Amc => {
            match_network(&ensemble::amc_like(&dataset.catalog), &dataset.catalog, graph)
                .expect("valid matcher output")
        }
        MatcherKind::Perturbation { precision_milli, recall_milli, seed } => {
            let m = PerturbationMatcher::new(
                truth.iter().copied(),
                precision_milli as f64 / 1000.0,
                recall_milli as f64 / 1000.0,
                seed,
            );
            match_network(&m, &dataset.catalog, graph).expect("valid matcher output")
        }
    };
    let network = MatchingNetwork::new(
        dataset.catalog.clone(),
        graph.clone(),
        candidates,
        ConstraintConfig::default(),
    );
    (network, truth)
}

/// The BP dataset (seed 1) matched by COMA on its complete interaction
/// graph — the network of the quality experiments — and its ground truth.
pub fn bp_coma() -> (MatchingNetwork, Vec<Correspondence>) {
    let dataset = smn_datasets::bp(1);
    matched_network(&dataset, &dataset.complete_graph(), MatcherKind::Coma)
}

/// [`bp_coma`]'s network sampled by [`standard_sampler`] with seed 1.
pub fn bp_sampled() -> ProbabilisticNetwork {
    ProbabilisticNetwork::new(bp_coma().0, standard_sampler(1))
}

/// The sampler configuration used by the quality experiments: 1000 samples
/// as in §VI-B, refill threshold 300.
pub fn standard_sampler(seed: u64) -> SamplerConfig {
    SamplerConfig { n_samples: 1000, walk_steps: 4, n_min: 300, seed, anneal: true, chains: 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_datasets::{DatasetSpec, SharingModel, Vocabulary};

    #[test]
    fn perturbation_setup_produces_network() {
        let d = DatasetSpec {
            name: "T".into(),
            vocabulary: Vocabulary::business_partner(),
            schema_count: 3,
            attrs_min: 10,
            attrs_max: 15,
            sharing: SharingModel::RankBiased { alpha: 0.7 },
        }
        .generate(1);
        let g = d.complete_graph();
        let (net, truth) = matched_network(&d, &g, MatcherKind::perturbation(1));
        assert!(net.candidate_count() > 0);
        assert!(!truth.is_empty());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(MatcherKind::Coma.label(), "COMA");
        assert_eq!(MatcherKind::Amc.label(), "AMC");
        assert_eq!(MatcherKind::perturbation(0).label(), "perturbation");
    }
}

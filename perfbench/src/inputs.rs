//! Input generation. Nothing here is timed.
//!
//! The datasets and the sampler are pinned to the seeds of the scenarios
//! behind the checked-in `BENCH_*.json` files (7 and 3), and are built
//! here rather than taken from the experiment harness so that a change to
//! the harness cannot silently change what this benchmark measures. The
//! benchmark's `--seed` drives what a user's traffic would vary: the
//! open-loop event stream, the crowd's answer noise, and the tie-breaks
//! of the selection strategy and the dispatcher. Pinning the sampler keeps
//! the amount of work the same from seed to seed, so a run's figures
//! spread by measurement noise, not by how hard its seed happened to be.

use smn_constraints::ConstraintConfig;
use smn_core::{MatchingNetwork, SamplerConfig, ShardingConfig};
use smn_datasets::{
    ChurnEvent, Dataset, DatasetSpec, EvolvingFederationSpec, FederationSpec, SharingModel,
    Vocabulary,
};
use smn_matchers::matcher::match_network;
use smn_matchers::PerturbationMatcher;
use smn_schema::{CandidateSet, Correspondence, InteractionGraph};
use smn_service::ServiceEvent;

/// Seed of every generated dataset and matcher.
pub const DATASET_SEED: u64 = 7;

/// A matching network with the verified matching it is reconciled against.
pub struct Scenario {
    pub network: MatchingNetwork,
    pub truth: Vec<Correspondence>,
}

/// Matches `dataset` with the calibrated perturbation matcher (precision
/// 0.65, recall 0.85: the candidate quality the paper reports).
fn matched(dataset: &Dataset, graph: &InteractionGraph) -> Scenario {
    let truth = dataset.selective_matching(graph);
    let matcher = PerturbationMatcher::new(truth.iter().copied(), 0.65, 0.85, DATASET_SEED);
    let candidates =
        match_network(&matcher, &dataset.catalog, graph).expect("perturbation output is valid");
    let network = MatchingNetwork::new(
        dataset.catalog.clone(),
        graph.clone(),
        candidates,
        ConstraintConfig::default(),
    );
    Scenario { network, truth }
}

fn federation_spec(groups: usize) -> FederationSpec {
    FederationSpec {
        name: format!("Fed{groups}"),
        vocabulary: Vocabulary::web_form(),
        groups,
        schemas_per_group: 3,
        attrs_min: 8,
        attrs_max: 14,
        sharing: SharingModel::RankBiased { alpha: 1.3 },
    }
}

/// A federation of `groups` webform clusters of three forms each.
pub fn federation(groups: usize) -> Scenario {
    let fed = federation_spec(groups).generate(DATASET_SEED);
    matched(&fed.dataset, &fed.graph)
}

/// The business-partner hot-path network: 8 schemas × 90 attributes on
/// the complete interaction graph (|C| ≈ 1.4k, one conflict component).
pub fn business_partner() -> Scenario {
    let d = DatasetSpec {
        name: "bench".into(),
        vocabulary: Vocabulary::business_partner(),
        schema_count: 8,
        attrs_min: 90,
        attrs_max: 90,
        sharing: SharingModel::RankBiased { alpha: 0.6 },
    }
    .generate(DATASET_SEED);
    let g = d.complete_graph();
    matched(&d, &g)
}

/// An evolving federation: the network live at t₀ (60% of the matcher
/// output) and its churn schedule (one retirement per four events on
/// average) as serving events. Retirements address candidates by their
/// id at the moment they apply, so the schedule is replayed once on a
/// bare matching network to resolve them.
pub fn evolving_federation(groups: usize) -> (Scenario, Vec<ServiceEvent>) {
    let evo = EvolvingFederationSpec {
        federation: federation_spec(groups),
        initial_fraction: 0.6,
        churn: 0.25,
    }
    .generate(DATASET_SEED);
    let full = matched(&evo.federation.dataset, &evo.federation.graph);
    let pool: Vec<(Correspondence, f64)> =
        full.network.candidates().candidates().iter().map(|c| (c.corr, c.confidence)).collect();
    let cat = &evo.federation.dataset.catalog;
    let graph = &evo.federation.graph;
    let mut cs = CandidateSet::new(cat);
    for &(corr, conf) in &pool[..evo.initial_count(pool.len())] {
        cs.add(cat, Some(graph), corr.a(), corr.b(), conf).expect("pool candidates are valid");
    }
    let network = MatchingNetwork::new(cat.clone(), graph.clone(), cs, ConstraintConfig::default());
    let mut shadow = network.clone();
    let churn = evo
        .schedule(pool.len())
        .into_iter()
        .map(|event| match event {
            ChurnEvent::Arrive(i) => {
                let (corr, confidence) = pool[i];
                shadow.extend(corr.a(), corr.b(), confidence).expect("fresh pool candidate");
                ServiceEvent::Extend { a: corr.a(), b: corr.b(), confidence }
            }
            ChurnEvent::Retire(i) => {
                let (corr, _) = pool[i];
                let candidate = shadow.candidates().find(corr.a(), corr.b()).expect("live");
                shadow.retire(candidate).expect("live candidate retires");
                ServiceEvent::Retire { candidate }
            }
        })
        .collect();
    (Scenario { network, truth: full.truth }, churn)
}

/// The sampler of every workload: 400 samples, the shape (and seed) of
/// the serving, sharding and hot-path benches.
pub fn sampler() -> SamplerConfig {
    SamplerConfig { n_samples: 400, walk_steps: 4, n_min: 150, seed: 3, anneal: true, chains: 1 }
}

/// Sharding with every component sampled, none enumerated exactly: the
/// regime a shard-server cluster exists for.
pub fn sampled_sharding() -> ShardingConfig {
    ShardingConfig { exact_threshold: 0, ..ShardingConfig::default() }
}

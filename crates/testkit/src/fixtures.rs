//! The fixture definitions, written against `smn_core::` paths.
//!
//! This file is compiled twice: as the body of the `smn-testkit` library
//! (for the integration suites) and — via `#[path]` inclusion under
//! `cfg(test)`, with `extern crate self as smn_core` aliasing — as
//! `smn-core`'s internal `testutil` module, whose unit tests need the
//! fixtures typed against the *test* build of the crate. One source, no
//! copy-paste drift.

use smn_constraints::ConstraintConfig;
use smn_core::engine::Strategy;
use smn_core::oracle::Oracle;
use smn_core::selection::SelectionStrategy;
use smn_core::{MatchingNetwork, ProbabilisticNetwork, SamplerConfig, SessionConfig};
use smn_datasets::{
    open_loop, ArrivalEvent, Dataset, DatasetSpec, FederationSpec, SharingModel, Vocabulary,
    WorkloadSpec,
};
use smn_matchers::matcher::match_network;
use smn_matchers::PerturbationMatcher;
use smn_schema::{
    AttributeId, CandidateId, CandidateSet, CatalogBuilder, Correspondence, InteractionGraph,
};

/// The motivating example of §II-A / Fig. 1, also used by Example 1: three
/// video providers.
///
/// Attributes: a0 = productionDate (EoverI), a1 = date (BBC),
/// a2 = releaseDate (DVDizzy), a3 = screenDate (DVDizzy).
/// Candidates: c0 = a0–a1, c1 = a1–a2, c2 = a0–a2, c3 = a1–a3, c4 = a0–a3.
///
/// Under the one-to-one + (triangle) cycle constraints the maximal matching
/// instances are exactly:
///
/// * `{c0, c1, c2}` and `{c0, c3, c4}` (the paper's I1 and I2), and
/// * `{c1, c4}` and `{c2, c3}` (mixed instances the paper's Example 1
///   glosses over: they are consistent and nothing can be added — adding
///   `c0` would complete an open cycle, anything else violates 1-1).
///
/// All exact probabilities are therefore 0.5 and the exact network entropy
/// is 5 bits.
pub fn fig1_network() -> MatchingNetwork {
    let mut b = CatalogBuilder::new();
    b.add_schema_with_attributes("EoverI", ["productionDate"]).unwrap();
    b.add_schema_with_attributes("BBC", ["date"]).unwrap();
    b.add_schema_with_attributes("DVDizzy", ["releaseDate", "screenDate"]).unwrap();
    let cat = b.build();
    let g = InteractionGraph::complete(3);
    let mut cs = CandidateSet::new(&cat);
    let a = AttributeId;
    cs.add(&cat, Some(&g), a(0), a(1), 0.9).unwrap(); // c0
    cs.add(&cat, Some(&g), a(1), a(2), 0.8).unwrap(); // c1
    cs.add(&cat, Some(&g), a(0), a(2), 0.8).unwrap(); // c2
    cs.add(&cat, Some(&g), a(1), a(3), 0.7).unwrap(); // c3
    cs.add(&cat, Some(&g), a(0), a(3), 0.7).unwrap(); // c4
    MatchingNetwork::new(cat, g, cs, ConstraintConfig::default())
}

/// The ground truth of [`fig1_network`]: the screenDate triangle
/// `{c0, c3, c4}` (the paper's selective matching I2).
pub fn fig1_truth() -> Vec<Correspondence> {
    let a = AttributeId;
    vec![
        Correspondence::new(a(0), a(1)),
        Correspondence::new(a(1), a(3)),
        Correspondence::new(a(0), a(3)),
    ]
}

/// A small random-ish network: `k` schemas in a complete graph, `m`
/// attributes each, candidates from a perturbed identity ground truth.
/// Deterministic in `seed`. Returns the network and the ground-truth
/// correspondences (the truth may be partially missing from `C`, so it
/// cannot be returned as candidate ids).
pub fn perturbed_network(
    k: usize,
    m: usize,
    precision: f64,
    recall: f64,
    seed: u64,
) -> (MatchingNetwork, Vec<Correspondence>) {
    let mut b = CatalogBuilder::new();
    for s in 0..k {
        b.add_schema_with_attributes(format!("s{s}"), (0..m).map(|i| format!("a{s}_{i}"))).unwrap();
    }
    let cat = b.build();
    let g = InteractionGraph::complete(k);
    // identity ground truth: attribute i of every schema denotes concept i
    let mut truth = Vec::new();
    for s1 in 0..k {
        for s2 in (s1 + 1)..k {
            for i in 0..m {
                truth.push(Correspondence::new(
                    AttributeId::from_index(s1 * m + i),
                    AttributeId::from_index(s2 * m + i),
                ));
            }
        }
    }
    let matcher = PerturbationMatcher::new(truth.iter().copied(), precision, recall, seed);
    let cs = match_network(&matcher, &cat, &g).expect("valid candidates");
    (MatchingNetwork::new(cat, g, cs, ConstraintConfig::default()), truth)
}

/// [`perturbed_network`] at the recall the robustness suites use (0.9) —
/// the "identity network" fixture of `tests/robustness.rs`.
pub fn identity_network(
    schemas: usize,
    attrs: usize,
    precision: f64,
    seed: u64,
) -> (MatchingNetwork, Vec<Correspondence>) {
    perturbed_network(schemas, attrs, precision, 0.9, seed)
}

/// The small business-partner dataset of the end-to-end suite: 3 schemas,
/// 20–30 attributes each, rank-biased concept sharing.
pub fn business_dataset(seed: u64) -> Dataset {
    DatasetSpec {
        name: "E2E".into(),
        vocabulary: Vocabulary::business_partner(),
        schema_count: 3,
        attrs_min: 20,
        attrs_max: 30,
        sharing: SharingModel::RankBiased { alpha: 0.7 },
    }
    .generate(seed)
}

/// A federation of `groups` small webform clusters (3 schemas each) fused
/// into one catalog, matched by the calibrated perturbation matcher — many
/// independent conflict components, the regime the sharding and durability
/// suites exercise. Deterministic in `seed`. Returns the network and its
/// selective-matching ground truth.
pub fn webform_federation(groups: usize, seed: u64) -> (MatchingNetwork, Vec<Correspondence>) {
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
    let truth = fed.dataset.selective_matching(&fed.graph);
    let matcher = PerturbationMatcher::new(truth.iter().copied(), 0.65, 0.85, seed);
    let cs = match_network(&matcher, &fed.dataset.catalog, &fed.graph).expect("valid candidates");
    let net = MatchingNetwork::new(fed.dataset.catalog, fed.graph, cs, ConstraintConfig::default());
    (net, truth)
}

/// The serving suites' standard open-loop workload: `sessions` concurrent
/// sessions issuing `questions` total question→answer exchanges with
/// seeded think-times, a publication tick every 32 arrivals. Deterministic
/// in `seed`; the serving tests and benches map these arrivals onto
/// `smn-service` ingress events one-to-one.
pub fn serve_workload(sessions: u64, questions: u64, seed: u64) -> Vec<ArrivalEvent> {
    open_loop(WorkloadSpec { sessions, questions, seed, ..WorkloadSpec::default() }).collect()
}

/// A sampler small enough for interactive test runtimes yet large enough
/// to exhaust every fixture network here: 300 emissions, refill threshold
/// 120 (the configuration the integration suites standardized on).
pub fn fast_sampler(seed: u64) -> SamplerConfig {
    SamplerConfig { anneal: true, n_samples: 300, walk_steps: 3, n_min: 120, seed, chains: 1 }
}

/// A [`SessionConfig`] over [`fast_sampler`] with the paper's
/// information-gain strategy and `seed` driving both sampler and strategy.
pub fn fast_session_config(seed: u64) -> SessionConfig {
    SessionConfig {
        sampler: fast_sampler(seed),
        strategy: Strategy::InformationGain,
        strategy_seed: seed,
        ..Default::default()
    }
}

/// A [`ProbabilisticNetwork`] over [`fig1_network`] with [`fast_sampler`]
/// semantics scaled down further (the unit-test configuration of
/// `smn-core`): 200 emissions, threshold 50.
pub fn tiny_sampler(seed: u64) -> SamplerConfig {
    SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed, chains: 1 }
}

/// Answers each elicitation from a fixed verdict script, cycling when the
/// script is shorter than the session — the adversarial oracle used to
/// regression-test contradictory and inconsistent assertions.
#[derive(Debug, Clone)]
pub struct ScriptedOracle {
    verdicts: Vec<bool>,
    pos: usize,
}

impl ScriptedOracle {
    /// Creates an oracle replaying `verdicts` cyclically.
    ///
    /// # Panics
    /// Panics on an empty script.
    pub fn new(verdicts: impl Into<Vec<bool>>) -> Self {
        let verdicts = verdicts.into();
        assert!(!verdicts.is_empty(), "a scripted oracle needs at least one verdict");
        Self { verdicts, pos: 0 }
    }
}

impl Oracle for ScriptedOracle {
    fn assert(&mut self, _corr: Correspondence) -> bool {
        let v = self.verdicts[self.pos % self.verdicts.len()];
        self.pos += 1;
        v
    }
}

/// Replays a fixed candidate script, re-selecting candidates even when
/// they are already asserted — the adversarial counterpart of the built-in
/// strategies, which never re-select.
#[derive(Debug, Clone)]
pub struct ScriptedSelection {
    script: Vec<CandidateId>,
    pos: usize,
}

impl ScriptedSelection {
    /// Creates a strategy replaying `script` once, then returning `None`.
    pub fn new(script: impl Into<Vec<CandidateId>>) -> Self {
        Self { script: script.into(), pos: 0 }
    }
}

impl SelectionStrategy for ScriptedSelection {
    fn name(&self) -> &'static str {
        "scripted"
    }

    fn select(&mut self, _pn: &ProbabilisticNetwork) -> Option<(CandidateId, Option<f64>)> {
        let next = self.script.get(self.pos).copied();
        self.pos += 1;
        next.map(|c| (c, None))
    }
}

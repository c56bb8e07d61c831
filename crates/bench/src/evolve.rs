//! The evolving-federation scenario of the evolve bench.
//!
//! The scenario is the evolving federation
//! ([`smn_datasets::EvolvingFederation`]): the matcher output over the
//! fused multi-component catalog is the candidate *pool*, a fraction of
//! which is live at t₀; the rest arrives as a deterministic stream
//! interleaved with retirements. [`apply`] takes the *incremental* path
//! for one event — [`ProbabilisticNetwork::extend`] /
//! [`ProbabilisticNetwork::retire`], which patch the conflict index from
//! the event's neighbourhood and rebuild only the merged or split shard.
//! [`rebuild`] is the path a static pipeline would take instead:
//! `ConflictIndex::build` over the whole catalog plus a full
//! `ProbabilisticNetwork::new_sharded` fill. `benches/evolve.rs` times
//! both; this module's test certifies that a replayed schedule is
//! deterministic and equals a from-scratch build at its final state.

use crate::sharding::bench_sampler;
use crate::{matched_network, MatcherKind};
use smn_core::{MatchingNetwork, ProbabilisticNetwork, ShardingConfig};
use smn_datasets::{ChurnEvent, EvolvingFederation, EvolvingFederationSpec, FederationSpec};
use smn_datasets::{SharingModel, Vocabulary};
use smn_schema::{CandidateSet, Correspondence};

/// Federation sizes of the evolve bench (fused sub-networks); 12 is the
/// `evolving_webform_federation` preset shape.
pub const GROUPS: [usize; 3] = [4, 12, 24];

/// The evolving scenario used by the benches: the `sharding` bench
/// federation shape under a 60%-initial / 25%-churn schedule.
pub fn evolving_scenario(groups: usize, seed: u64) -> EvolvingFederation {
    EvolvingFederationSpec {
        federation: FederationSpec {
            name: format!("EvoFed{groups}"),
            vocabulary: Vocabulary::web_form(),
            groups,
            schemas_per_group: 3,
            attrs_min: 8,
            attrs_max: 14,
            sharing: SharingModel::RankBiased { alpha: 1.3 },
        },
        initial_fraction: 0.6,
        churn: 0.25,
    }
    .generate(seed)
}

/// The candidate pool: matcher output over the full federation, in
/// candidate-id order.
pub fn candidate_pool(evo: &EvolvingFederation, seed: u64) -> Vec<(Correspondence, f64)> {
    let (net, _) = matched_network(
        &evo.federation.dataset,
        &evo.federation.graph,
        MatcherKind::perturbation(seed),
    );
    net.candidates().candidates().iter().map(|c| (c.corr, c.confidence)).collect()
}

/// Indexes the network over `candidates` from scratch.
pub fn matching_network(
    evo: &EvolvingFederation,
    candidates: impl IntoIterator<Item = (Correspondence, f64)>,
) -> MatchingNetwork {
    let cat = &evo.federation.dataset.catalog;
    let graph = &evo.federation.graph;
    let mut cs = CandidateSet::new(cat);
    for (corr, conf) in candidates {
        cs.add(cat, Some(graph), corr.a(), corr.b(), conf).unwrap();
    }
    MatchingNetwork::new(
        cat.clone(),
        graph.clone(),
        cs,
        smn_constraints::ConstraintConfig::default(),
    )
}

/// Builds the sharded network over `candidates` from scratch: re-index
/// plus a full fill, with the bench sampler.
pub fn rebuild(
    evo: &EvolvingFederation,
    candidates: impl IntoIterator<Item = (Correspondence, f64)>,
) -> ProbabilisticNetwork {
    let net = matching_network(evo, candidates);
    ProbabilisticNetwork::new_sharded(net, bench_sampler(3), ShardingConfig::default())
}

/// The live candidates of `pn`, in candidate-id order.
pub fn live(pn: &ProbabilisticNetwork) -> Vec<(Correspondence, f64)> {
    pn.network().candidates().candidates().iter().map(|c| (c.corr, c.confidence)).collect()
}

/// The t₀ network: the pool's initial fraction, built from scratch.
pub fn initial_network(
    evo: &EvolvingFederation,
    pool: &[(Correspondence, f64)],
) -> ProbabilisticNetwork {
    rebuild(evo, pool[..evo.initial_count(pool.len())].iter().copied())
}

/// Applies one schedule event on the incremental path.
pub fn apply(pn: &mut ProbabilisticNetwork, pool: &[(Correspondence, f64)], event: ChurnEvent) {
    match event {
        ChurnEvent::Arrive(i) => {
            let (corr, conf) = pool[i];
            pn.extend(corr.a(), corr.b(), conf).unwrap();
        }
        ChurnEvent::Retire(i) => {
            let (corr, _) = pool[i];
            let c = pn.network().candidates().find(corr.a(), corr.b()).expect("live");
            pn.retire(c).unwrap();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays the whole schedule incrementally from the t₀ network.
    fn replay(evo: &EvolvingFederation, pool: &[(Correspondence, f64)]) -> ProbabilisticNetwork {
        let mut pn = initial_network(evo, pool);
        for event in evo.schedule(pool.len()) {
            apply(&mut pn, pool, event);
        }
        pn
    }

    #[test]
    fn smallest_point_is_deterministic_and_exact() {
        let evo = evolving_scenario(GROUPS[0], 7);
        let pool = candidate_pool(&evo, 7);
        let schedule = evo.schedule(pool.len());
        let arrivals = schedule.iter().filter(|e| matches!(e, ChurnEvent::Arrive(_))).count();
        let retirements = schedule.len() - arrivals;
        assert!(arrivals > 0 && retirements > 0, "the schedule must churn");

        let pn = replay(&evo, &pool);
        let again = replay(&evo, &pool);
        assert_eq!(
            pn.probabilities(),
            again.probabilities(),
            "same history must reproduce the posteriors"
        );
        assert_eq!(
            pn.network().candidate_count(),
            evo.initial_count(pool.len()) + arrivals - retirements
        );

        let fresh = rebuild(&evo, live(&pn));
        assert!(
            pn.is_exhausted() && fresh.is_exhausted(),
            "federation components stay within the exact threshold"
        );
        let max_probability_delta = pn
            .probabilities()
            .iter()
            .zip(fresh.probabilities())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(
            max_probability_delta < 1e-12,
            "evolved posterior must equal the from-scratch build: {max_probability_delta}"
        );
    }
}

//! Evolving-network scenario generation: arrival/churn schedules over a
//! federation.
//!
//! The paper builds the matching network once (Algorithm 1) and
//! reconciles it pay-as-you-go; a production catalog, however, sees
//! matcher output *arrive and retire continuously* — new sources are
//! onboarded, stale correspondences are withdrawn. [`EvolvingFederation`]
//! models that regime on top of the multi-component
//! [`Federation`] scenario: a fraction of the candidate
//! pool is present at t₀, the rest arrives as a deterministic stream
//! interleaved with retirements of live candidates ("churn"). The
//! schedule is a pure function of the spec and its seed, so the
//! incremental-maintenance benchmarks and the differential harnesses
//! replay identical histories.
//!
//! The schedule speaks in *pool indices* — positions in whatever candidate
//! list the consumer derives (typically the matcher output over the fused
//! federation in candidate-id order) — because the dataset layer neither
//! runs matchers nor owns candidate ids.

use crate::federation::{Federation, FederationSpec};
use crate::generator::SharingModel;
use crate::vocab::Vocabulary;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One event of an evolution schedule, in terms of pool indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// The pool candidate at this index joins the network.
    Arrive(usize),
    /// The (currently live) pool candidate at this index leaves it.
    Retire(usize),
}

/// Specification of an evolving federation: the base federation plus the
/// arrival/churn regime.
#[derive(Debug, Clone)]
pub struct EvolvingFederationSpec {
    /// The underlying multi-component scenario.
    pub federation: FederationSpec,
    /// Fraction of the candidate pool present at t₀ (clamped to `[0, 1]`).
    pub initial_fraction: f64,
    /// Probability that the next event is a retirement of a live
    /// candidate rather than the next arrival (clamped to `[0, 0.9]` so
    /// the stream always drains).
    pub churn: f64,
}

impl EvolvingFederationSpec {
    /// Generates the federation and fixes the schedule seed.
    pub fn generate(&self, seed: u64) -> EvolvingFederation {
        EvolvingFederation {
            federation: self.federation.generate(seed),
            initial_fraction: self.initial_fraction.clamp(0.0, 1.0),
            churn: self.churn.clamp(0.0, 0.9),
            seed,
        }
    }
}

/// A generated evolving scenario: the fused federation plus the
/// deterministic churn schedule over any candidate pool drawn from it.
#[derive(Debug, Clone)]
pub struct EvolvingFederation {
    /// The fused multi-component scenario (catalog, graph, ground truth).
    pub federation: Federation,
    /// Fraction of the pool present at t₀.
    pub initial_fraction: f64,
    /// Retirement probability per event.
    pub churn: f64,
    /// Schedule seed (independent draws from the federation's own
    /// generation, but fixed by the same seed for reproducibility).
    pub seed: u64,
}

impl EvolvingFederation {
    /// How many of `pool` candidates are present at t₀ (the first
    /// `initial_count` pool indices, mirroring matcher output order).
    pub fn initial_count(&self, pool: usize) -> usize {
        ((pool as f64) * self.initial_fraction).floor() as usize
    }

    /// The deterministic event stream over a pool of `pool` candidates:
    /// the non-initial candidates arrive in a seed-shuffled order,
    /// interleaved — with probability [`churn`](EvolvingFederation::churn)
    /// per event — with retirements of uniformly drawn live candidates.
    /// Every non-initial candidate arrives exactly once; a retired
    /// candidate never re-arrives (its slot is simply gone, like a source
    /// taken offline).
    pub fn schedule(&self, pool: usize) -> Vec<ChurnEvent> {
        let initial = self.initial_count(pool);
        // decorrelated from the federation generation, which consumes the
        // raw seed
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5C11_ED01_E701_7EED);
        // Fisher–Yates over the pending arrivals (the vendored rand has no
        // shuffle adapter)
        let mut pending: Vec<usize> = (initial..pool).collect();
        for i in (1..pending.len()).rev() {
            let j = rng.random_range(0..=i);
            pending.swap(i, j);
        }
        pending.reverse(); // pop() consumes in shuffled order
        let mut live: Vec<usize> = (0..initial).collect();
        let mut events = Vec::new();
        while let Some(&next) = pending.last() {
            if !live.is_empty() && rng.random_bool(self.churn) {
                let victim = live.swap_remove(rng.random_range(0..live.len()));
                events.push(ChurnEvent::Retire(victim));
            } else {
                pending.pop();
                live.push(next);
                events.push(ChurnEvent::Arrive(next));
            }
        }
        events
    }
}

/// Preset evolving scenario in the WebForm regime: the
/// [`webform_federation`](crate::federation::webform_federation) shape
/// (12 clusters of 3 small forms) with 60% of the matcher output live at
/// t₀ and one retirement per four events on average.
pub fn evolving_webform_federation(seed: u64) -> EvolvingFederation {
    EvolvingFederationSpec {
        federation: FederationSpec {
            name: "WebFormFedEvolve".into(),
            vocabulary: Vocabulary::web_form(),
            groups: 12,
            schemas_per_group: 3,
            attrs_min: 8,
            attrs_max: 14,
            sharing: SharingModel::RankBiased { alpha: 0.9 },
        },
        initial_fraction: 0.6,
        churn: 0.25,
    }
    .generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> EvolvingFederationSpec {
        EvolvingFederationSpec {
            federation: FederationSpec {
                name: "Evo".into(),
                vocabulary: Vocabulary::business_partner(),
                groups: 3,
                schemas_per_group: 3,
                attrs_min: 5,
                attrs_max: 8,
                sharing: SharingModel::RankBiased { alpha: 1.2 },
            },
            initial_fraction: 0.5,
            churn: 0.3,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_complete() {
        let evo = small().generate(5);
        let a = evo.schedule(40);
        let b = evo.schedule(40);
        assert_eq!(a, b, "same seed, same schedule");
        let c = small().generate(6).schedule(40);
        assert_ne!(a, c, "different seeds diverge");
        // every non-initial candidate arrives exactly once
        let initial = evo.initial_count(40);
        assert_eq!(initial, 20);
        let mut arrived: Vec<usize> = a
            .iter()
            .filter_map(|e| match e {
                ChurnEvent::Arrive(i) => Some(*i),
                ChurnEvent::Retire(_) => None,
            })
            .collect();
        arrived.sort_unstable();
        assert_eq!(arrived, (initial..40).collect::<Vec<_>>());
    }

    #[test]
    fn retirements_only_target_live_candidates() {
        let evo = small().generate(9);
        let pool = 60;
        let mut live: Vec<bool> = (0..pool).map(|i| i < evo.initial_count(pool)).collect();
        let mut retirements = 0;
        for event in evo.schedule(pool) {
            match event {
                ChurnEvent::Arrive(i) => {
                    assert!(!live[i], "arrival of an already-live candidate");
                    live[i] = true;
                }
                ChurnEvent::Retire(i) => {
                    assert!(live[i], "retirement of a dead candidate");
                    live[i] = false;
                    retirements += 1;
                }
            }
        }
        assert!(retirements > 0, "churn 0.3 over 30 arrivals should retire something");
    }

    #[test]
    fn zero_churn_is_a_pure_arrival_stream() {
        let evo = EvolvingFederationSpec { churn: 0.0, ..small() }.generate(3);
        let events = evo.schedule(20);
        assert_eq!(events.len(), 20 - evo.initial_count(20));
        assert!(events.iter().all(|e| matches!(e, ChurnEvent::Arrive(_))));
    }

    #[test]
    fn preset_matches_the_federation_shape() {
        let evo = evolving_webform_federation(1);
        assert_eq!(evo.federation.groups, 12);
        assert_eq!(evo.federation.dataset.catalog.schema_count(), 36);
        assert!((evo.initial_fraction - 0.6).abs() < 1e-12);
    }
}

//! The shard-aware question dispatcher.
//!
//! Per round the dispatcher leases a batch of *distinct* uncertain
//! candidates, each to a disjoint group of workers. Its single-candidate
//! pick *is* [`smn_core::InformationGainSelection`]'s pick — both call
//! the shared [`scored_argmax`] kernel (same pool order, same 1e-12 tie
//! window, one RNG draw per pick) and the same scoreless random fallback
//! once nothing is uncertain — which is what makes a 1-worker,
//! redundancy-1 service schedule replay a sequential
//! [`smn_core::Session::run`] byte for byte. Beyond the first
//! pick of a round it additionally prefers candidates from conflict
//! components that have no lease in flight yet, so concurrent worker
//! evaluations copy-on-write *different* shards of the base snapshot.

use crate::model::ServeModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use smn_core::selection::{nth_matching, scored_argmax};
use smn_schema::{CandidateId, Correspondence};
use std::collections::HashSet;

/// One leased question: a candidate, the evidence for asking it, and the
/// workers assigned to answer it.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Position within the round (commit order).
    pub slot: usize,
    /// The leased candidate.
    pub candidate: CandidateId,
    /// The attribute pair workers are shown.
    pub correspondence: Correspondence,
    /// The candidate's probability at lease time.
    pub probability: f64,
    /// The dispatcher's information-gain estimate that justified the
    /// lease; `None` for fallback picks of certain-but-unasserted
    /// candidates (same convention as
    /// [`smn_core::Question::score`](smn_core::Question)).
    pub score: Option<f64>,
    /// The shard (conflict component) owning the candidate.
    pub shard: usize,
    /// The distinct workers assigned to answer (redundancy `k`).
    pub workers: Vec<usize>,
}

/// The seeded lease scheduler.
#[derive(Debug, Clone)]
pub struct Dispatcher {
    rng: StdRng,
}

impl Dispatcher {
    /// Creates a dispatcher; `seed` drives tie-breaking exactly like an
    /// [`smn_core::InformationGainSelection`] seeded the same.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }

    /// Leases up to `batch` distinct candidates for one round, assigning
    /// each `redundancy` distinct workers out of `workers` by
    /// round-rotated slots (worker `(round + slot·k + i) mod W` takes vote
    /// `i` of lease `slot`, so the crowd rotates across candidates over
    /// rounds and no worker answers twice per round).
    ///
    /// Returns fewer leases (possibly none) when the network runs out of
    /// unasserted candidates.
    pub fn lease_round<M: ServeModel>(
        &mut self,
        pn: &M,
        batch: usize,
        workers: usize,
        redundancy: usize,
        round: usize,
    ) -> Vec<Lease> {
        debug_assert!(batch * redundancy <= workers.max(redundancy));
        let mut leases: Vec<Lease> = Vec::with_capacity(batch);
        let mut excluded: Vec<CandidateId> = Vec::new();
        let mut leased_shards: HashSet<usize> = HashSet::new();
        for slot in 0..batch {
            let Some((candidate, score)) = self.pick(pn, &excluded, &leased_shards) else {
                break;
            };
            excluded.push(candidate);
            let shard = pn.shard_of(candidate);
            leased_shards.insert(shard);
            let start = round % workers.max(1);
            let assigned: Vec<usize> =
                (0..redundancy).map(|i| (start + slot * redundancy + i) % workers).collect();
            leases.push(Lease {
                slot,
                candidate,
                correspondence: pn.network().corr(candidate),
                probability: pn.probability(candidate),
                score,
                shard,
                workers: assigned,
            });
        }
        leases
    }

    /// One strategy-parity pick: argmax information gain over the
    /// uncertain pool (minus this round's earlier picks), ties within
    /// 1e-12 broken by one RNG draw; random unasserted fallback when no
    /// uncertainty is left. `leased_shards` steers (but never forces) the
    /// pick towards components without an in-flight lease.
    fn pick<M: ServeModel>(
        &mut self,
        pn: &M,
        excluded: &[CandidateId],
        leased_shards: &HashSet<usize>,
    ) -> Option<(CandidateId, Option<f64>)> {
        let mut pool: Vec<CandidateId> =
            pn.uncertain_candidates().into_iter().filter(|c| !excluded.contains(c)).collect();
        if pool.is_empty() {
            // mirror of the information-gain strategy's fallback: the
            // crowd keeps validating certain-but-unasserted candidates
            let n = pn.network().candidate_count();
            return nth_matching(n, &mut self.rng, |c| {
                !pn.feedback().is_asserted(c) && !excluded.contains(&c)
            })
            .map(|c| (c, None));
        }
        if excluded.is_empty() && leased_shards.is_empty() {
            // the unfiltered first pick of a round is exactly the
            // strategy's pick: argmax over all uncertain candidates, so
            // the cached tie window applies — dirty shards re-price, the
            // rest serve from cache, RNG stream unchanged
            let (window, gains) = pn.cached_gain_window();
            return scored_argmax(&window, &gains, &mut self.rng).map(|(c, gain)| (c, Some(gain)));
        }
        // shard-aware spreading: concurrent what-if forks then
        // copy-on-write disjoint shards (no-op for the first pick, so the
        // 1-worker schedule stays strategy-identical)
        if !leased_shards.is_empty() {
            let fresh: Vec<CandidateId> = pool
                .iter()
                .copied()
                .filter(|&c| !leased_shards.contains(&pn.shard_of(c)))
                .collect();
            if !fresh.is_empty() {
                pool = fresh;
            }
        }
        // a filtered pool is not the full argmax window, but its gains
        // still come from the cache — identical values, zero rescans of
        // clean shards
        let gains = pn.cached_gains(&pool);
        // the shared selection kernel — same tie window, same single RNG
        // draw as InformationGainSelection, by construction
        scored_argmax(&pool, &gains, &mut self.rng).map(|(c, gain)| (c, Some(gain)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_core::selection::SelectionStrategy;
    use smn_core::shard::ShardingConfig;
    use smn_core::{InformationGainSelection, ProbabilisticNetwork, SamplerConfig};
    use smn_testkit::{fig1_network, tiny_sampler};

    fn sharded(seed: u64) -> ProbabilisticNetwork {
        ProbabilisticNetwork::new_sharded(
            fig1_network(),
            tiny_sampler(seed),
            ShardingConfig::default(),
        )
    }

    #[test]
    fn single_pick_matches_information_gain_selection() {
        for seed in 0..8 {
            let pn = sharded(3);
            let mut strategy = InformationGainSelection::new(seed);
            let mut dispatcher = Dispatcher::new(seed);
            let expected = strategy.select(&pn).unwrap();
            let leases = dispatcher.lease_round(&pn, 1, 1, 1, 0);
            assert_eq!(leases.len(), 1);
            assert_eq!((leases[0].candidate, leases[0].score), expected);
            assert_eq!(leases[0].workers, vec![0]);
        }
    }

    #[test]
    fn batch_leases_are_distinct_with_disjoint_workers() {
        let pn = ProbabilisticNetwork::new_sharded(
            fig1_network(),
            SamplerConfig { seed: 5, ..tiny_sampler(5) },
            ShardingConfig::default(),
        );
        let mut dispatcher = Dispatcher::new(9);
        let leases = dispatcher.lease_round(&pn, 2, 4, 2, 3);
        assert_eq!(leases.len(), 2);
        assert_ne!(leases[0].candidate, leases[1].candidate);
        let mut seen: Vec<usize> = Vec::new();
        for l in &leases {
            assert_eq!(l.workers.len(), 2);
            for &w in &l.workers {
                assert!(!seen.contains(&w), "worker {w} double-leased in one round");
                seen.push(w);
            }
        }
    }

    #[test]
    fn rotation_spreads_workers_across_rounds() {
        let pn = sharded(5);
        let mut dispatcher = Dispatcher::new(9);
        let round0 = dispatcher.lease_round(&pn, 1, 3, 1, 0);
        let round1 = dispatcher.lease_round(&pn, 1, 3, 1, 1);
        assert_ne!(round0[0].workers, round1[0].workers);
    }
}

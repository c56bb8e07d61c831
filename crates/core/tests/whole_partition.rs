//! The whole partition under evolution: a network built with
//! [`ShardingConfig::disabled`] is one sample store spanning every
//! candidate, and must stay exactly one shard through any interleaving of
//! arrivals (including arrivals that conflict with nothing), retirements
//! and assertions — while [`ProbabilisticNetwork::samples`] keeps exposing
//! that store's instances, each a feedback-respecting maximal matching
//! instance of the evolved network.

use proptest::prelude::*;
use smn_constraints::ConstraintConfig;
use smn_core::feedback::Assertion;
use smn_core::{MatchingNetwork, ProbabilisticNetwork, ShardingConfig};
use smn_schema::{AttributeId, CandidateId, CandidateSet, CatalogBuilder, InteractionGraph};
use smn_testkit::tiny_sampler;

/// The instance-hood check of the evolution suite's sampled smoke: every
/// stored sample is consistent, maximal under the disapprovals and
/// respects the feedback.
fn assert_samples_are_instances(pn: &ProbabilisticNetwork) {
    let index = pn.network().index();
    assert_eq!(pn.samples().len(), pn.distinct_sample_count(), "samples() hides the store");
    for s in pn.samples() {
        assert_eq!(s.capacity(), pn.network().candidate_count(), "samples use global ids");
        assert!(index.is_consistent(s));
        assert!(index.is_maximal(s, pn.feedback().disapproved()));
        assert!(pn.feedback().respected_by(s));
    }
}

/// Whether candidate `c` shares no violation with any other candidate.
fn is_isolated(pn: &ProbabilisticNetwork, c: CandidateId) -> bool {
    let index = pn.network().index();
    index.pair_mask(c).is_empty() && index.other_pairs(c).is_empty()
}

proptest! {
    #[test]
    fn disabled_networks_stay_one_shard_through_evolution(
        sizes in prop::array::uniform3(1usize..4),
        ops in prop::collection::vec(any::<u32>(), 1..24),
    ) {
        let mut b = CatalogBuilder::new();
        for (i, &n) in sizes.iter().enumerate() {
            b.add_schema_with_attributes(format!("s{i}"), (0..n).map(|j| format!("a{i}_{j}")))
                .unwrap();
        }
        let cat = b.build();
        let graph = InteractionGraph::complete(3);
        let mut pool = Vec::new();
        for x in 0..cat.attribute_count() {
            for y in (x + 1)..cat.attribute_count() {
                let (ax, ay) = (AttributeId::from_index(x), AttributeId::from_index(y));
                if cat.schema_of(ax) != cat.schema_of(ay) {
                    pool.push((ax, ay));
                }
            }
        }
        // start empty: the first arrival always conflicts with nothing
        let net = MatchingNetwork::new(
            cat.clone(),
            graph,
            CandidateSet::new(&cat),
            ConstraintConfig::default(),
        );
        let mut pn = ProbabilisticNetwork::new_sharded(net, tiny_sampler(5), ShardingConfig::disabled());
        prop_assert_eq!(pn.shard_count(), 1);
        let mut isolated_arrivals = 0;
        for (step, &op) in std::iter::once(&0u32).chain(&ops).enumerate() {
            let pick = (op >> 2) as usize;
            let n = pn.network().candidate_count();
            match op % 3 {
                0 => {
                    let free: Vec<(AttributeId, AttributeId)> = pool
                        .iter()
                        .filter(|(x, y)| pn.network().candidates().find(*x, *y).is_none())
                        .copied()
                        .collect();
                    if free.is_empty() {
                        continue;
                    }
                    let (x, y) = free[pick % free.len()];
                    let id = pn.extend(x, y, 0.5).unwrap();
                    isolated_arrivals += usize::from(is_isolated(&pn, id));
                }
                1 if n > 0 => pn.retire(CandidateId::from_index(pick % n)).unwrap(),
                _ if n > 0 => {
                    let c = CandidateId::from_index(pick % n);
                    let _ = pn.assert_candidate(Assertion { candidate: c, approved: op & 2 != 0 });
                }
                _ => continue,
            }
            prop_assert_eq!(pn.shard_count(), 1, "step {} split the whole partition", step);
            if pn.network().candidate_count() > 0 {
                prop_assert_eq!(pn.shard_of(CandidateId(0)), 0);
            }
            for c in pn.feedback().approved().iter() {
                prop_assert_eq!(pn.probability(c), 1.0);
            }
            for c in pn.feedback().disapproved().iter() {
                prop_assert_eq!(pn.probability(c), 0.0);
            }
            assert_samples_are_instances(&pn);
        }
        prop_assert!(isolated_arrivals >= 1, "the opening arrival conflicts with nothing");
    }
}

//! Random-stream differential: a distributed run must stay *bitwise*
//! identical to the single-process network under arbitrary interleavings
//! of assertions and retirements — including the retirement epochs that
//! split components and migrate the rebuilt parts between servers, and
//! assertions the model rejects or ignores (contradictions, same-way
//! re-assertions, unknown ids). After every operation the two models are
//! compared on the operation's result and on their whole read surface.
//! The fixed-scenario certificates live in `differential.rs`; this suite
//! covers the streams nobody thought to write down (CI runs it at
//! `PROPTEST_CASES=1024`).

use proptest::prelude::*;
use smn_core::feedback::Assertion;
use smn_core::{GainSource, ProbabilisticNetwork, ShardingConfig};
use smn_dist::{spawn_local_cluster, DistNetwork, Transport};
use smn_schema::CandidateId;
use smn_service::ServeModel;
use smn_testkit::{perturbed_network, tiny_sampler};

/// Every id an assertion may name: the live candidates plus two past the
/// end, each way.
fn probes(n: usize) -> Vec<(CandidateId, bool)> {
    (0..n as u32 + 2).flat_map(|c| [(CandidateId(c), true), (CandidateId(c), false)]).collect()
}

proptest! {
    #[test]
    fn random_assertion_and_retirement_streams_stay_bit_identical(
        servers in 1usize..4,
        net_seed in 0u64..64,
        ops in prop::collection::vec(any::<u32>(), 1..12),
    ) {
        let net = perturbed_network(2, 4, 0.5, 0.9, net_seed).0;
        let sampler = tiny_sampler(3);
        // sampled everywhere: exact-enumeration shards would certify
        // only the routing, not seed derivation or sample shipment
        let sharding = ShardingConfig { exact_threshold: 0, ..ShardingConfig::default() };
        let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharding);
        let (links, handles) = spawn_local_cluster(servers);
        let links: Vec<Box<dyn Transport>> =
            links.into_iter().map(|l| Box::new(l) as Box<dyn Transport>).collect();
        let mut dist = DistNetwork::new(net, sampler, sharding, links).expect("bootstrap");
        prop_assert_eq!(dist.probabilities(), pn.probabilities());

        for &op in &ops {
            let pick = (op / 4) as usize;
            let count = pn.network().candidate_count();
            if op % 4 == 3 {
                // retire a random live candidate — the epoch path:
                // export, then one evolve request per server rebuilds
                // the split parts on their new owners
                if count == 0 {
                    continue;
                }
                let c = CandidateId((pick % count) as u32);
                let expected = pn.retire(c);
                let got = dist.retire(c);
                prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));
            } else {
                // any id, asserted or not, live or past the end
                let candidate = CandidateId((pick % (count + 2)) as u32);
                let assertion = Assertion { candidate, approved: op % 2 == 0 };
                let expected = pn.assert_candidate(assertion);
                let got = dist.assert_candidate(assertion);
                prop_assert_eq!(format!("{got:?}"), format!("{expected:?}"));
            }
            prop_assert_eq!(dist.probabilities(), pn.probabilities());
            prop_assert_eq!(dist.generation(), pn.generation());
            prop_assert_eq!(ServeModel::entropy(&dist).to_bits(), pn.entropy().to_bits());
            prop_assert_eq!(
                ServeModel::normalized_entropy(&dist).to_bits(),
                pn.normalized_entropy().to_bits()
            );
            prop_assert_eq!(ServeModel::effort(&dist).to_bits(), pn.effort().to_bits());
            for (candidate, approved) in probes(pn.network().candidate_count()) {
                let a = Assertion { candidate, approved };
                prop_assert_eq!(dist.validate_assertion(a), pn.validate_assertion(a));
            }
            prop_assert_eq!(dist.cached_gain_window(), pn.cached_gain_window());
        }

        // full query surface at the end state
        let pool = pn.uncertain_candidates();
        prop_assert_eq!(dist.information_gains(&pool), pn.information_gains(&pool));
        let queries = probes(pn.network().candidate_count());
        prop_assert_eq!(dist.what_if_batch(&queries), pn.what_if_batch(&queries));

        dist.shutdown().expect("orderly shutdown");
        for h in handles {
            h.join().expect("server thread").expect("clean server exit");
        }
    }
}

//! The memoized network uncertainty: `H(C, P)` is computed once per
//! mutation of the posterior and read back for free, so after every
//! assertion, arrival and retirement the value read must be the fresh
//! [`entropy_of`] of the current posterior to the bit — under the whole
//! partition, sharded, and on a coordinator over two shard servers. A
//! fork that asserts must memoize its own value and leave its parent's
//! alone. Every check reads `H` before the next event too, so a write
//! that forgot to clear the memo would be caught serving a stale value.

use proptest::prelude::*;
use proptest::TestCaseError;
use smn_core::feedback::Assertion;
use smn_core::{entropy_of, ProbabilisticNetwork, ShardingConfig};
use smn_dist::{spawn_local_cluster, DistNetwork, Transport};
use smn_schema::{AttributeId, CandidateId};
use smn_service::ServeModel;
use smn_testkit::{perturbed_network, tiny_sampler};

/// The memoized value must equal a fresh recomputation, bit for bit.
fn check_memo(h: f64, probs: &[f64], ctx: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(h.to_bits(), entropy_of(probs).to_bits(), "{}: memoized H is stale", ctx);
    Ok(())
}

/// Checks the three models' memoized `H`, and that the coordinator's
/// equals the sharded network's.
fn check_all(
    whole: &ProbabilisticNetwork,
    pn: &ProbabilisticNetwork,
    dist: &DistNetwork,
    ctx: &str,
) -> Result<(), TestCaseError> {
    check_memo(whole.entropy(), whole.probabilities(), &format!("{ctx} whole"))?;
    check_memo(pn.entropy(), pn.probabilities(), &format!("{ctx} sharded"))?;
    check_memo(ServeModel::entropy(dist), dist.probabilities(), &format!("{ctx} dist"))?;
    prop_assert_eq!(ServeModel::entropy(dist).to_bits(), pn.entropy().to_bits(), "{}", ctx);
    Ok(())
}

/// Forks `pn`, asserts the fork's first uncertain candidate, and checks
/// the fork memoizes its own `H` while the parent's stays put.
fn check_fork(pn: &ProbabilisticNetwork, approved: bool, ctx: &str) -> Result<(), TestCaseError> {
    let before = pn.entropy();
    let mut fork = pn.fork();
    let Some(&candidate) = pn.uncertain_candidates().first() else { return Ok(()) };
    let assertion = Assertion { candidate, approved };
    if fork.assert_candidate(assertion).is_err() {
        fork.assert_candidate(Assertion { candidate, approved: !approved }).expect("one verdict");
    }
    check_memo(fork.entropy(), fork.probabilities(), &format!("{ctx} fork"))?;
    prop_assert_eq!(pn.entropy().to_bits(), before.to_bits(), "{}: the fork moved its parent", ctx);
    check_memo(pn.entropy(), pn.probabilities(), &format!("{ctx} parent"))
}

proptest! {
    #[test]
    fn memoized_entropy_matches_a_fresh_sum_after_every_event(
        net_seed in 0u64..64,
        ops in prop::collection::vec(any::<u32>(), 1..16),
    ) {
        let net = perturbed_network(3, 3, 0.5, 0.9, net_seed).0;
        let attributes = net.catalog().attribute_count();
        let sampler = tiny_sampler(3);
        let sharded = ShardingConfig { exact_threshold: 0, ..ShardingConfig::default() };
        let mut whole =
            ProbabilisticNetwork::new_sharded(net.clone(), sampler, ShardingConfig::disabled());
        let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, sharded);
        let (links, handles) = spawn_local_cluster(2);
        let links: Vec<Box<dyn Transport>> =
            links.into_iter().map(|l| Box::new(l) as Box<dyn Transport>).collect();
        let mut dist = DistNetwork::new(net, sampler, sharded, links).expect("bootstrap");

        for (step, &op) in ops.iter().enumerate() {
            let ctx = format!("step {step} (op {op})");
            check_all(&whole, &pn, &dist, &format!("{ctx} before"))?;
            let pick = (op / 4) as usize;
            let count = pn.network().candidate_count();
            match op % 4 {
                3 if count > 0 => {
                    let c = CandidateId((pick % count) as u32);
                    let expected = pn.retire(c).is_ok();
                    prop_assert_eq!(whole.retire(c).is_ok(), expected);
                    prop_assert_eq!(dist.retire(c).is_ok(), expected);
                }
                2 => {
                    // any attribute pair: duplicates, same-schema pairs
                    // and self-pairs are rejected and must leave H alone
                    let x = AttributeId::from_index(pick % attributes);
                    let y = AttributeId::from_index((pick / attributes) % attributes);
                    let expected = pn.extend(x, y, 0.7).ok();
                    prop_assert_eq!(whole.extend(x, y, 0.7).ok(), expected);
                    prop_assert_eq!(dist.extend(x, y, 0.7).ok(), expected);
                }
                _ => {
                    let candidate = CandidateId((pick % (count + 1)) as u32);
                    let assertion = Assertion { candidate, approved: op % 2 == 0 };
                    let expected = format!("{:?}", pn.assert_candidate(assertion));
                    let got = format!("{:?}", whole.assert_candidate(assertion));
                    prop_assert_eq!(got, expected.clone());
                    prop_assert_eq!(format!("{:?}", dist.assert_candidate(assertion)), expected);
                }
            }
            check_all(&whole, &pn, &dist, &format!("{ctx} after"))?;
            check_fork(&whole, op % 2 == 0, &format!("{ctx} whole"))?;
            check_fork(&pn, op % 2 == 0, &format!("{ctx} sharded"))?;
        }

        dist.shutdown().expect("orderly shutdown");
        for h in handles {
            h.join().expect("server thread").expect("clean server exit");
        }
    }
}

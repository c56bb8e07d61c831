//! Rejected assertions on the coordinator are typed errors that leave
//! every process untouched — an unknown candidate id included.

use smn_core::feedback::Assertion;
use smn_core::{AssertError, ProbabilisticNetwork, ShardingConfig};
use smn_dist::{spawn_local_cluster, DistNetwork, Transport};
use smn_schema::CandidateId;
use smn_service::ServeModel;
use smn_testkit::{perturbed_network, tiny_sampler};

#[test]
fn unknown_candidates_are_typed_errors_not_panics() {
    let net = perturbed_network(2, 4, 0.5, 0.9, 7).0;
    let sampler = tiny_sampler(3);
    let sharding = ShardingConfig::default();
    let (links, handles) = spawn_local_cluster(2);
    let links: Vec<Box<dyn Transport>> =
        links.into_iter().map(|l| Box::new(l) as Box<dyn Transport>).collect();
    let mut dist = DistNetwork::new(net.clone(), sampler, sharding, links).expect("bootstrap");
    let pn = ProbabilisticNetwork::new_sharded(net, sampler, sharding);
    let (probs, h) = (dist.probabilities().to_vec(), ServeModel::entropy(&dist));
    let n = pn.network().candidate_count() as u32;
    let live = pn.uncertain_candidates()[0];
    for c in [CandidateId(n), CandidateId(n + 1), CandidateId(u32::MAX)] {
        for approved in [true, false] {
            let a = Assertion { candidate: c, approved };
            assert_eq!(dist.validate_assertion(a), Err(AssertError::UnknownCandidate(c)));
            assert_eq!(dist.assert_candidate(a), Err(AssertError::UnknownCandidate(c)));
        }
        let queries = [(c, true), (live, false), (c, false)];
        let priced = dist.what_if_batch(&queries);
        assert_eq!(priced[0].to_bits(), h.to_bits());
        assert_eq!(priced[2].to_bits(), h.to_bits());
        assert_eq!(priced, pn.what_if_batch(&queries), "the in-process model prices alike");
    }
    assert_eq!(dist.probabilities(), &probs[..]);
    assert_eq!(dist.generation(), 0);
    assert!(ServeModel::feedback(&dist).is_empty());

    dist.shutdown().expect("orderly shutdown");
    for h in handles {
        h.join().expect("server thread").expect("clean server exit");
    }
}

//! Rejected assertions on the coordinator are typed errors that leave
//! every process untouched — an unknown candidate id included — and
//! hostile requests sent straight to a shard server are refused without
//! changing it.

use smn_core::feedback::Assertion;
use smn_core::persist::NetworkEvent;
use smn_core::{AssertError, ProbabilisticNetwork, ShardHost, ShardingConfig};
use smn_dist::proto::{
    decode_exports, encode_evolve, encode_shipments, read_shard_probs, REQ_BOOTSTRAP, REQ_EVOLVE,
    REQ_EXPORT, REQ_GAINS, REQ_SHUTDOWN, RESP_ERR, RESP_OK,
};
use smn_dist::{spawn_local_cluster, DistNetwork, Transport};
use smn_schema::{AttributeId, CandidateId};
use smn_service::ServeModel;
use smn_storage::format::{decode_shard_state, encode_snapshot, put_ids, put_u64, Dec};
use smn_storage::wal::encode_record;
use smn_testkit::{perturbed_network, tiny_sampler, webform_federation};

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

/// Sends one request and returns the payload of its `RESP_OK` reply.
fn ok(link: &mut dyn Transport, kind: u32, payload: &[u8]) -> Vec<u8> {
    link.send(kind, payload).unwrap();
    let reply = link.recv().unwrap();
    assert_eq!(reply.kind, RESP_OK, "{}", String::from_utf8_lossy(&reply.payload));
    reply.payload
}

#[test]
fn hostile_evolve_requests_are_refused_and_leave_the_server_unchanged() {
    let net = perturbed_network(2, 4, 0.5, 0.9, 7).0;
    let (sampler, sharding) = (tiny_sampler(3), ShardingConfig::default());
    let mut mirror = ShardHost::new(net.clone(), sampler, sharding, &[]);
    let (mut links, handles) = spawn_local_cluster(1);
    let link = &mut links[0];
    // one server owning every component
    let mut bootstrap = Vec::new();
    put_ids(&mut bootstrap, &(0..mirror.component_count() as u32).collect::<Vec<_>>());
    bootstrap.extend_from_slice(&encode_snapshot(&mirror.structure(), &[], 0));
    ok(link, REQ_BOOTSTRAP, &bootstrap);
    let mut gains = Vec::new();
    put_ids(&mut gains, &(0..net.candidate_count() as u32).collect::<Vec<_>>());
    let before = ok(link, REQ_GAINS, &gains);

    // a valid extension: export the shards it dissolves, then evolve
    let cat = net.catalog();
    let (x, y) = (0..cat.attribute_count())
        .flat_map(|x| ((x + 1)..cat.attribute_count()).map(move |y| (x, y)))
        .map(|(x, y)| (AttributeId::from_index(x), AttributeId::from_index(y)))
        .find(|&(x, y)| {
            cat.schema_of(x) != cat.schema_of(y) && net.candidates().find(x, y).is_none()
        })
        .expect("an open cross-schema pair");
    let event = NetworkEvent::Extend { a: x, b: y, confidence: 0.6 };
    let (_, evo, _) = mirror.apply_extend(x, y, 0.6).unwrap();
    assert!(!evo.dissolved.is_empty(), "the arrival absorbs a component");
    let mut request = Vec::new();
    put_ids(&mut request, &evo.dissolved.iter().map(|(k, _)| *k as u32).collect::<Vec<_>>());
    let states = decode_exports(&ok(link, REQ_EXPORT, &request)).unwrap();
    let exports: Vec<(Vec<CandidateId>, Vec<u8>)> =
        evo.dissolved.iter().map(|(_, members)| members.clone()).zip(states).collect();
    let ship = |exports: &[(Vec<CandidateId>, Vec<u8>)]| {
        encode_shipments(
            &exports.iter().map(|(m, s)| (m.as_slice(), s.clone())).collect::<Vec<_>>(),
        )
    };
    let rebuilt: Vec<u32> = evo.rebuilt.iter().map(|&k| k as u32).collect();
    let valid = encode_evolve(1, &event, &rebuilt, &ship(&exports));

    let past_count = [mirror.component_count() as u32];
    let mut huge_count = encode_evolve(1, &event, &rebuilt, &[]);
    put_u64(&mut huge_count, 1 << 40);
    let mut short_members = exports.clone();
    short_members[0].0.pop();
    let hostile = [
        ("truncated record", valid[..encode_record(1, &event).len() - 1].to_vec()),
        (
            "rebuilt id past the component count",
            encode_evolve(1, &event, &past_count, &ship(&exports)),
        ),
        ("shipment count of 2^40", huge_count),
        (
            "state sized for other members",
            encode_evolve(1, &event, &rebuilt, &ship(&short_members)),
        ),
    ];
    for (what, payload) in hostile {
        link.send(REQ_EVOLVE, &payload).unwrap();
        assert_eq!(link.recv().unwrap().kind, RESP_ERR, "{what}: accepted");
        assert_eq!(ok(link, REQ_GAINS, &gains), before, "{what}: the server changed");
    }

    // the valid request still rebuilds exactly like the in-process model
    let mut pn = ProbabilisticNetwork::new_sharded(net, sampler, sharding);
    pn.extend(x, y, 0.6).unwrap();
    let reply = ok(link, REQ_EVOLVE, &valid);
    let mut d = Dec::new(&reply);
    let entries = read_shard_probs(&mut d).unwrap();
    assert_eq!(entries.iter().map(|(k, _)| *k).collect::<Vec<_>>(), evo.rebuilt);
    for (k, local) in entries {
        for (&g, p) in mirror.components().members(k).iter().zip(local) {
            assert_eq!(p.to_bits(), pn.probability(g).to_bits(), "rebuilt {g:?}");
        }
    }

    ok(link, REQ_SHUTDOWN, &[]);
    for h in handles {
        h.join().expect("no server panic").expect("clean server exit");
    }
}

#[test]
fn hostile_export_requests_are_refused_and_the_server_keeps_answering() {
    let net = webform_federation(3, 42).0;
    let (sampler, sharding) = (tiny_sampler(3), ShardingConfig::default());
    let mirror = ShardHost::new(net, sampler, sharding, &[]);
    let count = mirror.component_count() as u32;
    assert!(count >= 2, "a component to leave unowned");
    let (mut links, handles) = spawn_local_cluster(1);
    let link = &mut links[0];
    // the server owns every component but 0
    let mut bootstrap = Vec::new();
    put_ids(&mut bootstrap, &(1..count).collect::<Vec<_>>());
    bootstrap.extend_from_slice(&encode_snapshot(&mirror.structure(), &[], 0));
    ok(link, REQ_BOOTSTRAP, &bootstrap);

    let request = |ks: &[u32]| {
        let mut b = Vec::new();
        put_ids(&mut b, ks);
        b
    };
    let valid = request(&[count - 1, 1]);
    let before = ok(link, REQ_EXPORT, &valid);
    let states = decode_exports(&before).unwrap();
    assert_eq!(states.len(), 2, "one state per requested id");
    for state in &states {
        decode_shard_state(state).expect("each state decodes");
    }

    let mut huge_count = Vec::new();
    put_u64(&mut huge_count, 1 << 40);
    let mut trailing = valid.clone();
    trailing.push(0);
    let hostile = [
        ("non-owned id", request(&[0])),
        ("a non-owned id among owned ones", request(&[1, 0])),
        ("id past the component count", request(&[count])),
        ("count of 2^40", huge_count),
        ("trailing bytes", trailing),
    ];
    for (what, payload) in hostile {
        link.send(REQ_EXPORT, &payload).unwrap();
        assert_eq!(link.recv().unwrap().kind, RESP_ERR, "{what}: accepted");
        assert_eq!(ok(link, REQ_EXPORT, &valid), before, "{what}: the server changed");
    }

    ok(link, REQ_SHUTDOWN, &[]);
    for h in handles {
        h.join().expect("no server panic").expect("clean server exit");
    }
}

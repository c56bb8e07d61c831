//! The distributed differential certificate.
//!
//! Every test here drives the same operation stream into a
//! single-process [`ProbabilisticNetwork`] and a [`DistNetwork`] over N
//! shard servers, and requires *bitwise* agreement: posteriors
//! `f64`-equal, query surfaces value-equal, service reports byte-equal
//! as JSON. The suite runs at 1, 2 and 4 servers (the in-process
//! channel cluster — same protocol and frames as the multi-process
//! binary) and includes runs with at least one extension and one
//! retirement mid-stream, i.e. with components migrating between
//! servers while feedback is standing.

use smn_core::feedback::Assertion;
use smn_core::{ProbabilisticNetwork, SamplerConfig, ShardingConfig};
use smn_dist::{spawn_local_cluster, DistError, DistNetwork, Transport};
use smn_schema::{AttributeId, CandidateId, CandidateSet, CatalogBuilder, InteractionGraph};
use smn_service::{ReconciliationService, ServeModel, ServiceConfig};
use smn_testkit::{fast_sampler, fig1_network, fig1_truth, perturbed_network, webform_federation};
use std::thread::JoinHandle;

/// Sampled everywhere — forces every component through the sampler so the
/// suite certifies seed derivation and sticky ownership, not just exact
/// enumeration.
fn sampled(cfg: ShardingConfig) -> ShardingConfig {
    ShardingConfig { exact_threshold: 0, ..cfg }
}

fn cluster(
    net: smn_core::MatchingNetwork,
    sampler: SamplerConfig,
    sharding: ShardingConfig,
    servers: usize,
) -> (DistNetwork, Vec<JoinHandle<Result<(), DistError>>>) {
    let (links, handles) = spawn_local_cluster(servers);
    let links: Vec<Box<dyn Transport>> =
        links.into_iter().map(|l| Box::new(l) as Box<dyn Transport>).collect();
    let dist = DistNetwork::new(net, sampler, sharding, links).expect("bootstrap");
    (dist, handles)
}

fn teardown(mut dist: DistNetwork, handles: Vec<JoinHandle<Result<(), DistError>>>) {
    dist.shutdown().expect("orderly shutdown");
    for h in handles {
        h.join().expect("server thread").expect("clean server exit");
    }
}

/// Asserts the full query surface of the two models agrees bitwise.
fn assert_surface_matches(pn: &ProbabilisticNetwork, dist: &DistNetwork, ctx: &str) {
    assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx}: posterior");
    assert_eq!(ServeModel::entropy(dist), pn.entropy(), "{ctx}: entropy");
    assert_eq!(
        ServeModel::normalized_entropy(dist),
        pn.normalized_entropy(),
        "{ctx}: normalized entropy"
    );
    assert_eq!(ServeModel::effort(dist), pn.effort(), "{ctx}: effort");
    let pool = pn.uncertain_candidates();
    assert_eq!(ServeModel::uncertain_candidates(dist), pool, "{ctx}: pool");
    assert_eq!(dist.information_gains(&pool), pn.information_gains(&pool), "{ctx}: gains");
    let queries: Vec<(CandidateId, bool)> =
        pool.iter().flat_map(|&c| [(c, true), (c, false)]).collect();
    assert_eq!(dist.what_if_batch(&queries), pn.what_if_batch(&queries), "{ctx}: what-if");
}

/// Drives `steps` deterministic assertions into both models, checking the
/// whole surface after each: approve the pool candidate whose posterior
/// is highest, reject the one whose posterior is lowest, alternating.
fn drive_assertions(
    pn: &mut ProbabilisticNetwork,
    dist: &mut DistNetwork,
    steps: usize,
    ctx: &str,
) {
    for step in 0..steps {
        let pool = pn.uncertain_candidates();
        let Some(&candidate) = (if step % 2 == 0 {
            pool.iter().max_by(|&&a, &&b| {
                pn.probability(a).total_cmp(&pn.probability(b)).then(a.0.cmp(&b.0))
            })
        } else {
            pool.iter().min_by(|&&a, &&b| {
                pn.probability(a).total_cmp(&pn.probability(b)).then(a.0.cmp(&b.0))
            })
        }) else {
            return; // fully reconciled
        };
        let assertion = Assertion { candidate, approved: step % 2 == 0 };
        let expected = pn.assert_candidate(assertion);
        let got = dist.assert_candidate(assertion);
        assert_eq!(
            format!("{got:?}"),
            format!("{expected:?}"),
            "{ctx} step {step}: assert outcome"
        );
        assert_surface_matches(pn, dist, &format!("{ctx} step {step}"));
    }
}

#[test]
fn presets_match_single_process_at_1_2_and_4_servers() {
    let cases: Vec<(&str, smn_core::MatchingNetwork)> = vec![
        ("fig1", fig1_network()),
        ("perturbed", perturbed_network(3, 6, 0.6, 0.9, 9).0),
        ("federation", webform_federation(3, 42).0),
    ];
    for (name, net) in cases {
        for servers in [1usize, 2, 4] {
            for (cfg_name, cfg) in [
                ("exact", ShardingConfig::default()),
                ("sampled", sampled(ShardingConfig::default())),
            ] {
                let ctx = format!("{name}/{servers} servers/{cfg_name}");
                let sampler = fast_sampler(5);
                let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, cfg);
                let (mut dist, handles) = cluster(net.clone(), sampler, cfg, servers);
                assert_surface_matches(&pn, &dist, &format!("{ctx} bootstrap"));
                drive_assertions(&mut pn, &mut dist, 6, &ctx);
                teardown(dist, handles);
            }
        }
    }
}

/// `m` disjoint one-to-one conflict clusters over a 2-schema catalog:
/// cluster `i` is `{a_i–b_2i, a_i–b_2i+1}` (candidates `2i`, `2i+1`).
/// The arrival `a1–b0` couples clusters 0 and 1 into one component
/// while the other `m − 2` stay intact (and, distributed, stay on
/// their servers — the sticky-ownership rule under renumbering).
fn clusters_network(m: usize) -> smn_core::MatchingNetwork {
    let mut b = CatalogBuilder::new();
    b.add_schema_with_attributes("A", (0..m).map(|i| format!("a{i}"))).unwrap();
    b.add_schema_with_attributes("B", (0..2 * m).map(|i| format!("b{i}"))).unwrap();
    let cat = b.build();
    let g = InteractionGraph::complete(2);
    let mut cs = CandidateSet::new(&cat);
    let a = AttributeId::from_index;
    for i in 0..m {
        cs.add(&cat, Some(&g), a(i), a(m + 2 * i), 0.9).unwrap(); // c_2i
        cs.add(&cat, Some(&g), a(i), a(m + 2 * i + 1), 0.8).unwrap(); // c_2i+1
    }
    smn_core::MatchingNetwork::new(cat, g, cs, smn_constraints::ConstraintConfig::default())
}

#[test]
fn evolution_migrates_components_and_stays_bit_identical() {
    let mut saw_migration = false;
    for servers in [1usize, 2, 4] {
        for (cfg_name, cfg) in
            [("exact", ShardingConfig::default()), ("sampled", sampled(ShardingConfig::default()))]
        {
            let ctx = format!("evolution/{servers} servers/{cfg_name}");
            let m = 6;
            let net = clusters_network(m);
            let sampler = fast_sampler(7);
            let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, cfg);
            let (mut dist, handles) = cluster(net, sampler, cfg, servers);

            // feedback first, so the migrated state is not pristine
            let seed_assert = Assertion { candidate: CandidateId(0), approved: false };
            pn.assert_candidate(seed_assert).unwrap();
            dist.assert_candidate(seed_assert).unwrap();
            assert_surface_matches(&pn, &dist, &format!("{ctx} pre-extend"));

            // -- extend: a_i–b_2j merges clusters i and j into one
            //    component, which is placed fresh and rebuilt from
            //    shipped exports. Pick two clusters living on different
            //    servers when the placement offers them, so the merge
            //    provably pulls state across a server boundary.
            let owner_of_cluster = |dist: &DistNetwork, i: usize| {
                dist.owner_of(ServeModel::shard_of(dist, CandidateId((2 * i) as u32)))
            };
            let (i, j) = (0..m)
                .flat_map(|i| ((i + 1)..m).map(move |j| (i, j)))
                .find(|&(i, j)| owner_of_cluster(&dist, i) != owner_of_cluster(&dist, j))
                .unwrap_or((0, 1));
            let (owner_a, owner_b) = (owner_of_cluster(&dist, i), owner_of_cluster(&dist, j));
            let (ax, by) = (AttributeId::from_index(i), AttributeId::from_index(m + 2 * j));
            let arrival_pn = pn.extend(ax, by, 0.6).unwrap();
            let arrival = dist.extend(ax, by, 0.6).unwrap();
            assert_eq!(arrival, arrival_pn, "{ctx}: arrival id");
            let merged_owner = dist.owner_of(ServeModel::shard_of(&dist, arrival));
            if merged_owner != owner_a || merged_owner != owner_b {
                saw_migration = true;
            }
            assert_surface_matches(&pn, &dist, &format!("{ctx} post-extend"));
            drive_assertions(&mut pn, &mut dist, 2, &format!("{ctx} merged"));

            // -- retire the arrival: the merged component dissolves back
            //    into parts, each rebuilt from the same shipped state
            pn.retire(arrival).unwrap();
            dist.retire(arrival).unwrap();
            assert_surface_matches(&pn, &dist, &format!("{ctx} post-retire"));
            drive_assertions(&mut pn, &mut dist, 2, &format!("{ctx} split"));

            teardown(dist, handles);
        }
    }
    assert!(
        saw_migration,
        "no combination moved a component across servers — the suite is not \
         exercising migration"
    );
}

#[test]
fn rejections_match_and_leave_the_cluster_untouched() {
    let net = clusters_network(2);
    let sampler = fast_sampler(3);
    let cfg = ShardingConfig::default();
    let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, cfg);
    let (mut dist, handles) = cluster(net, sampler, cfg, 2);

    let c = CandidateId(0); // a0–b0
    pn.assert_candidate(Assertion { candidate: c, approved: true }).unwrap();
    dist.assert_candidate(Assertion { candidate: c, approved: true }).unwrap();
    let generation = dist.generation();
    let before = dist.probabilities().to_vec();

    // contradictory, inconsistent and duplicate assertions all reject
    // (or no-op) identically, without a cluster round trip
    for assertion in [
        Assertion { candidate: c, approved: false }, // contradicts
        Assertion { candidate: c, approved: true },  // same-way no-op
        Assertion { candidate: CandidateId(1), approved: true }, // a0–b1 conflicts with c0
    ] {
        let expected = pn.assert_candidate(assertion);
        let got = dist.assert_candidate(assertion);
        assert_eq!(format!("{got:?}"), format!("{expected:?}"), "{assertion:?}");
    }
    assert_eq!(dist.generation(), generation, "rejections must not bump the generation");
    assert_eq!(dist.probabilities(), &before[..], "rejections must not touch the posterior");

    // structure-level evolution rejections are typed and leave every
    // process consistent (the next operation still round-trips)
    assert!(matches!(dist.retire(CandidateId(99)), Err(DistError::Schema(_))));
    assert!(pn.retire(CandidateId(99)).is_err());
    assert_surface_matches(&pn, &dist, "after rejected retire");

    teardown(dist, handles);
}

#[test]
fn the_service_report_is_byte_identical_over_a_cluster() {
    let config = ServiceConfig {
        sampler: fast_sampler(11),
        redundancy: 2,
        seed: 0xD15C0,
        ..ServiceConfig::default()
    };
    let error_rates = [0.05, 0.1, 0.2];

    let mut local = ReconciliationService::new(fig1_network(), fig1_truth(), error_rates, config);
    let local_report = local.run();

    let (dist, handles) = cluster(fig1_network(), config.sampler, config.sharding, 2);
    let mut served: ReconciliationService<DistNetwork> =
        ReconciliationService::with_model(dist, fig1_truth(), error_rates, config);
    let dist_report = served.run();

    assert_eq!(
        serde_json::to_string(&local_report).unwrap(),
        serde_json::to_string(&dist_report).unwrap(),
        "a cluster-backed service must reproduce the in-process report byte for byte"
    );
    teardown(served.into_model(), handles);
}

#[test]
fn a_tcp_cluster_matches_the_channel_cluster() {
    use smn_dist::{serve, TcpTransport};
    use std::net::{TcpListener, TcpStream};

    let sampler = fast_sampler(17);
    let cfg = ShardingConfig::default();
    let mut pn = ProbabilisticNetwork::new_sharded(fig1_network(), sampler, cfg);

    let mut links: Vec<Box<dyn Transport>> = Vec::new();
    let mut handles = Vec::new();
    for _ in 0..2 {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        handles.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            serve(&mut t)
        }));
        links.push(Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap()));
    }
    let mut dist = DistNetwork::new(fig1_network(), sampler, cfg, links).unwrap();
    assert_surface_matches(&pn, &dist, "tcp bootstrap");
    drive_assertions(&mut pn, &mut dist, 3, "tcp");
    teardown(dist, handles);
}

/// The cached-selection certificate over a cluster: a [`Dispatcher`]
/// leasing from the [`DistNetwork`] — whose gain cache refreshes dirty
/// components through a *single-server* fan-out — must replay, pick for
/// pick and score bit for score bit, a fresh-scan
/// [`smn_core::InformationGainSelection`] over the single-process
/// network, through a stream that asserts, extends and retires
/// mid-flight. Runs at 1, 2 and 4 servers.
#[test]
fn cached_dispatch_over_a_cluster_matches_a_fresh_single_process_scan() {
    use smn_core::selection::SelectionStrategy;
    use smn_core::InformationGainSelection;
    use smn_service::Dispatcher;

    let (net, _) = webform_federation(3, 42);
    for servers in [1usize, 2, 4] {
        let ctx = format!("cached dispatch/{servers} servers");
        let sampler = fast_sampler(5);
        let cfg = ShardingConfig::default();
        let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler, cfg);
        let (mut dist, handles) = cluster(net.clone(), sampler, cfg, servers);
        let mut fresh = InformationGainSelection::new(7).without_cache();
        let mut dispatcher = Dispatcher::new(7);
        let mut driven = 0usize;
        for step in 0..18 {
            let expected = fresh.select(&pn);
            let leases = dispatcher.lease_round(&dist, 1, 1, 1, step);
            let got = leases.first().map(|l| (l.candidate, l.score.map(f64::to_bits)));
            assert_eq!(
                got,
                expected.map(|(c, s)| (c, s.map(f64::to_bits))),
                "{ctx} step {step}: lease vs fresh scan"
            );
            let Some((candidate, _)) = expected else { break };
            driven += 1;
            // deterministic verdict, identical on both models
            let approved = pn.probability(candidate) > 0.5;
            let assertion = Assertion { candidate, approved };
            let a = pn.assert_candidate(assertion);
            let b = dist.assert_candidate(assertion);
            assert_eq!(format!("{b:?}"), format!("{a:?}"), "{ctx} step {step}: outcome");
            // evolution mid-stream: the structure epoch must flush the
            // cache identically on both sides
            if step == 5 {
                let cat = pn.network().catalog().clone();
                let free = (0..cat.attribute_count())
                    .flat_map(|x| ((x + 1)..cat.attribute_count()).map(move |y| (x, y)))
                    .map(|(x, y)| (AttributeId::from_index(x), AttributeId::from_index(y)))
                    .find(|&(x, y)| {
                        cat.schema_of(x) != cat.schema_of(y)
                            && pn.network().candidates().find(x, y).is_none()
                    })
                    .expect("the federation leaves cross-schema pairs open");
                pn.extend(free.0, free.1, 0.5).unwrap();
                dist.extend(free.0, free.1, 0.5).unwrap();
            }
            if step == 11 {
                pn.retire(CandidateId(0)).unwrap();
                dist.retire(CandidateId(0)).unwrap();
            }
            assert_eq!(dist.probabilities(), pn.probabilities(), "{ctx} step {step}: posterior");
        }
        assert!(driven >= 13, "{ctx}: stream ended early after {driven} picks");
        teardown(dist, handles);
    }
}

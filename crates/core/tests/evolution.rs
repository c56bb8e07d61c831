//! Evolving-network differential harness for the probabilistic layer:
//! after any random interleaving of arrivals, retirements and assertions,
//! the *evolved* component-sharded [`ProbabilisticNetwork`] must agree
//! with a from-scratch rebuild over the surviving candidates that replays
//! the surviving assertions — probabilities, entropy and information gain
//! within 1e-12 (bitwise, in fact, since the exact per-shard stores hold
//! the same instance sets) and reconciliation traces equal under fixed
//! seeds.
//!
//! The generators stay in the *exact* regime (every conflict component at
//! or below the exact threshold, as with the default configuration on
//! federation-like workloads): there the posterior is a pure function of
//! (index, feedback), so incremental ≡ rebuilt is a hard invariant rather
//! than a statistical one. The sampled path is covered by a separate
//! determinism/soundness smoke below.

use proptest::prelude::*;
use smn_constraints::ConstraintConfig;
use smn_core::feedback::Assertion;
use smn_core::selection::{RandomSelection, SelectionStrategy};
use smn_core::{
    reconcile, InformationGainSelection, MatchingNetwork, ProbabilisticNetwork, ReconciliationGoal,
    SamplerConfig, ShardingConfig,
};
use smn_schema::{
    AttributeId, CandidateId, CandidateSet, Catalog, CatalogBuilder, Correspondence,
    InteractionGraph,
};
use smn_testkit::{tiny_sampler, ScriptedOracle};

/// A 3-schema catalog with `sizes` attributes per schema on the complete
/// graph (both constraint kinds live).
fn three_schema_catalog(sizes: [usize; 3]) -> (Catalog, InteractionGraph) {
    let mut b = CatalogBuilder::new();
    for (i, &n) in sizes.iter().enumerate() {
        let attrs: Vec<String> = (0..n).map(|j| format!("a{i}_{j}")).collect();
        b.add_schema_with_attributes(format!("s{i}"), attrs).unwrap();
    }
    (b.build(), InteractionGraph::complete(3))
}

/// Every cross-schema attribute pair — the arrival pool.
fn pair_pool(cat: &Catalog) -> Vec<(AttributeId, AttributeId)> {
    let mut pool = Vec::new();
    for x in 0..cat.attribute_count() {
        for y in (x + 1)..cat.attribute_count() {
            let (ax, ay) = (AttributeId::from_index(x), AttributeId::from_index(y));
            if cat.schema_of(ax) != cat.schema_of(ay) {
                pool.push((ax, ay));
            }
        }
    }
    pool
}

/// A sharding configuration whose exact threshold covers every component
/// these tiny catalogs can produce — the all-exact regime.
fn exact_sharding() -> ShardingConfig {
    ShardingConfig { exact_threshold: 64, exact_cap: 1 << 20, ..Default::default() }
}

fn sampler() -> SamplerConfig {
    tiny_sampler(7)
}

/// The trace projection compared across evolved/rebuilt networks:
/// everything except `normalized_entropy`, whose baseline is the
/// construction-time uncertainty and thus — by design — differs between a
/// network that evolved and one built fresh at the end state.
fn trace_key(
    t: &[smn_core::TracePoint],
) -> Vec<(usize, CandidateId, bool, smn_core::StepOutcome, f64, f64)> {
    t.iter().map(|p| (p.step, p.candidate, p.approved, p.outcome, p.effort, p.entropy)).collect()
}

proptest! {
    /// The headline differential: evolved sharded posteriors equal a
    /// rebuild-and-replay within 1e-12, and reconciliation traces under a
    /// fixed seed and a fixed scripted oracle are equal point for point.
    #[test]
    fn evolved_sharded_posterior_equals_rebuild_and_replay(
        sizes in prop::array::uniform3(1usize..4),
        seed_mask in any::<u64>(),
        ops in prop::collection::vec(any::<u32>(), 1..20),
    ) {
        let (cat, graph) = three_schema_catalog(sizes);
        let pool = pair_pool(&cat);
        // initial network from the mask
        let mut cs = CandidateSet::new(&cat);
        for (i, &(x, y)) in pool.iter().enumerate() {
            if seed_mask & (1 << (i % 64)) != 0 {
                cs.add(&cat, Some(&graph), x, y, 0.5).unwrap();
            }
        }
        let net =
            MatchingNetwork::new(cat.clone(), graph.clone(), cs, ConstraintConfig::default());
        let mut pn = ProbabilisticNetwork::new_sharded(net, sampler(), exact_sharding());
        // mirror of the surviving assertions, keyed by correspondence
        let mut asserted: Vec<(Correspondence, bool)> = Vec::new();
        for &op in &ops {
            let pick = (op >> 2) as usize;
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
                    pn.extend(x, y, 0.5).unwrap();
                }
                1 => {
                    let n = pn.network().candidate_count();
                    if n == 0 {
                        continue;
                    }
                    let c = CandidateId::from_index(pick % n);
                    let corr = pn.network().corr(c);
                    pn.retire(c).unwrap();
                    asserted.retain(|&(a, _)| a != corr);
                }
                _ => {
                    let n = pn.network().candidate_count();
                    if n == 0 {
                        continue;
                    }
                    let c = CandidateId::from_index(pick % n);
                    let approved = op & 2 != 0;
                    let corr = pn.network().corr(c);
                    if pn.assert_candidate(Assertion { candidate: c, approved }).is_ok()
                        && !asserted.iter().any(|&(a, _)| a == corr)
                    {
                        asserted.push((corr, approved));
                    }
                }
            }
        }
        // from-scratch rebuild over the survivors + chronological replay
        let mut cs2 = CandidateSet::new(&cat);
        for cand in pn.network().candidates().candidates() {
            cs2.add(&cat, Some(&graph), cand.corr.a(), cand.corr.b(), cand.confidence).unwrap();
        }
        let net2 =
            MatchingNetwork::new(cat.clone(), graph.clone(), cs2, ConstraintConfig::default());
        let mut fresh = ProbabilisticNetwork::new_sharded(net2, sampler(), exact_sharding());
        for &(corr, approved) in &asserted {
            let c = fresh.network().candidates().find(corr.a(), corr.b()).expect("survivor");
            fresh
                .assert_candidate(Assertion { candidate: c, approved })
                .expect("replaying a surviving assertion onto a consistent final state");
        }
        // structural equality of the conflict layer
        prop_assert_eq!(pn.network().index(), fresh.network().index());
        prop_assert_eq!(pn.shard_count(), fresh.shard_count());
        // exact regime: both all-exhausted, posteriors within 1e-12
        prop_assert!(pn.is_exhausted() && fresh.is_exhausted());
        prop_assert_eq!(pn.probabilities().len(), fresh.probabilities().len());
        for (i, (&p, &q)) in pn.probabilities().iter().zip(fresh.probabilities()).enumerate() {
            prop_assert!((p - q).abs() < 1e-12, "candidate {}: {} vs {}", i, p, q);
        }
        prop_assert!((pn.entropy() - fresh.entropy()).abs() < 1e-12);
        let uncertain = fresh.uncertain_candidates();
        prop_assert_eq!(pn.uncertain_candidates(), uncertain.clone());
        let (ga, gb) = (pn.information_gains(&uncertain), fresh.information_gains(&uncertain));
        for ((&c, &a), &b) in uncertain.iter().zip(&ga).zip(&gb) {
            prop_assert!((a - b).abs() < 1e-12, "gain of {}: {} vs {}", c, a, b);
        }
        // traces under fixed seeds are equal point for point
        let run = |mut pn: ProbabilisticNetwork| {
            let mut strat = RandomSelection::new(0xF00D);
            let mut oracle = ScriptedOracle::new([true, false, false, true]);
            reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Budget(6))
        };
        prop_assert_eq!(trace_key(&run(pn)), trace_key(&run(fresh)));
    }
}

/// The sampled path (exact enumeration disabled): evolution must stay
/// deterministic — two identical evolution histories yield byte-identical
/// posteriors — and sound: probabilities in range, assertions pinned,
/// every retained monolithic sample a feedback-respecting matching
/// instance.
#[test]
fn sampled_shards_evolve_deterministically_and_soundly() {
    let evolve = |sharded: bool| {
        let (net, _) = smn_testkit::perturbed_network(3, 5, 0.6, 0.9, 11);
        let sharding = ShardingConfig { exact_threshold: 0, ..Default::default() };
        let mut pn = if sharded {
            ProbabilisticNetwork::new_sharded(net, tiny_sampler(3), sharding)
        } else {
            ProbabilisticNetwork::new(net, tiny_sampler(3))
        };
        let pool = pair_pool(pn.network().catalog());
        // a fixed little history: two arrivals, one assertion, one retirement
        let fresh: Vec<(AttributeId, AttributeId)> = pool
            .iter()
            .filter(|(x, y)| pn.network().candidates().find(*x, *y).is_none())
            .take(2)
            .copied()
            .collect();
        for &(x, y) in &fresh {
            pn.extend(x, y, 0.5).unwrap();
        }
        let target = CandidateId::from_index(pn.network().candidate_count() / 2);
        let _ = pn.assert_candidate(Assertion { candidate: target, approved: false });
        pn.retire(CandidateId(0)).unwrap();
        pn
    };
    for sharded in [false, true] {
        let a = evolve(sharded);
        let b = evolve(sharded);
        assert_eq!(a.probabilities(), b.probabilities(), "evolution must be deterministic");
        for &p in a.probabilities() {
            assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        }
        for c in a.feedback().disapproved().iter() {
            assert_eq!(a.probability(c), 0.0, "disapproval must stay pinned");
        }
        // the monolithic store exposes its samples: check instance-hood
        if !sharded {
            let index = a.network().index();
            for s in a.samples() {
                assert!(index.is_consistent(s));
                assert!(index.is_maximal(s, a.feedback().disapproved()));
                assert!(a.feedback().respected_by(s));
            }
        }
    }
}

/// Monotone arrival stream: starting from an empty catalog's candidate
/// set and extending candidate by candidate reaches exactly the one-shot
/// network — the "cold start to full network, online" path.
#[test]
fn arrival_stream_from_empty_reaches_the_batch_network() {
    let (cat, graph) = three_schema_catalog([2, 2, 2]);
    let pool = pair_pool(&cat);
    let empty = CandidateSet::new(&cat);
    let net = MatchingNetwork::new(cat.clone(), graph.clone(), empty, ConstraintConfig::default());
    let mut pn = ProbabilisticNetwork::new_sharded(net, sampler(), exact_sharding());
    assert_eq!(pn.entropy(), 0.0);
    for &(x, y) in &pool {
        pn.extend(x, y, 0.5).unwrap();
    }
    let mut cs = CandidateSet::new(&cat);
    for &(x, y) in &pool {
        cs.add(&cat, Some(&graph), x, y, 0.5).unwrap();
    }
    let batch = ProbabilisticNetwork::new_sharded(
        MatchingNetwork::new(cat, graph, cs, ConstraintConfig::default()),
        sampler(),
        exact_sharding(),
    );
    assert_eq!(pn.network().index(), batch.network().index());
    assert_eq!(pn.probabilities(), batch.probabilities());
    assert_eq!(pn.shard_count(), batch.shard_count());
    assert_eq!(pn.entropy(), batch.entropy());
}

/// The cached-selection mirror of [`Session`]: a fresh-scan
/// [`InformationGainSelection`] (via
/// [`without_cache`](InformationGainSelection::without_cache)) over a
/// plain network. Driving it in lockstep with a real (cache-enabled)
/// session pins the gain cache's contract — it must never change a
/// question, a score bit, or an RNG draw, through any interleaving of
/// answers, arrivals and retirements.
struct FreshReference {
    pn: ProbabilisticNetwork,
    strategy: InformationGainSelection,
}

impl FreshReference {
    fn next_question(&mut self) -> Option<(CandidateId, Option<u64>)> {
        let (c, score) = self.strategy.select(&self.pn)?;
        Some((c, score.map(f64::to_bits)))
    }
}

/// Half of the pair pool on `sizes` attributes per schema — the starting
/// network of the cached-selection properties, leaving arrivals to draw.
fn half_pool_network(sizes: [usize; 3]) -> (MatchingNetwork, Vec<(AttributeId, AttributeId)>) {
    let (cat, graph) = three_schema_catalog(sizes);
    let pool = pair_pool(&cat);
    let mut cs = CandidateSet::new(&cat);
    for &(x, y) in pool.iter().take(pool.len().div_ceil(2)) {
        cs.add(&cat, Some(&graph), x, y, 0.5).unwrap();
    }
    (MatchingNetwork::new(cat, graph, cs, ConstraintConfig::default()), pool)
}

/// A pool pair `pn` has no candidate for yet, chosen by `pick`.
fn free_pair(
    pn: &ProbabilisticNetwork,
    pool: &[(AttributeId, AttributeId)],
    pick: usize,
) -> Option<(AttributeId, AttributeId)> {
    let free: Vec<_> = pool
        .iter()
        .filter(|(x, y)| pn.network().candidates().find(*x, *y).is_none())
        .copied()
        .collect();
    (!free.is_empty()).then(|| free[pick % free.len()])
}

proptest! {
    /// Cached selection ≡ fresh scan, byte for byte, across evolution.
    /// The real session runs the (default) cache-enabled
    /// [`InformationGainSelection`]; the reference recomputes every gain
    /// from scratch. Every question — candidate id *and* score bits —
    /// must agree at every step, which also proves the two sides consume
    /// identical RNG streams (one divergent draw would desynchronise all
    /// later tie-breaks).
    #[test]
    fn cached_session_trace_equals_fresh_scan_through_evolution(
        sizes in prop::array::uniform3(1usize..4),
        seed in any::<u64>(),
        ops in prop::collection::vec(any::<u32>(), 1..24),
    ) {
        let (net, pool) = half_pool_network(sizes);
        let mut session = smn_core::Session::new(
            net.clone(),
            smn_core::SessionConfig {
                sampler: sampler(),
                strategy: smn_core::Strategy::InformationGain,
                strategy_seed: seed,
                sharding: exact_sharding(),
            },
        );
        let mut fresh = FreshReference {
            pn: ProbabilisticNetwork::new_sharded(net, sampler(), exact_sharding()),
            strategy: InformationGainSelection::new(seed).without_cache(),
        };
        for &op in &ops {
            // lockstep question — the observable the cache must not move
            let question = session.next_question();
            let expected = fresh.next_question();
            prop_assert_eq!(
                question.as_ref().map(|q| (q.candidate, q.score.map(f64::to_bits))),
                expected,
                "cached and fresh questions diverged"
            );
            let pick = (op >> 3) as usize;
            match op % 6 {
                0..=3 => {
                    let Some(q) = question else { continue };
                    let approved = q.probability > 0.5;
                    let got = session.answer(q.candidate, approved);
                    let want = fresh.pn.assert_candidate(Assertion {
                        candidate: q.candidate,
                        approved,
                    });
                    prop_assert_eq!(got, want);
                }
                4 => {
                    let Some((x, y)) = free_pair(session.network(), &pool, pick) else {
                        continue;
                    };
                    session.extend(x, y, 0.5).unwrap();
                    fresh.pn.extend(x, y, 0.5).unwrap();
                }
                _ => {
                    let n = session.network().network().candidate_count();
                    if n == 0 {
                        continue;
                    }
                    let c = CandidateId::from_index(pick % n);
                    session.retire(c).unwrap();
                    fresh.pn.retire(c).unwrap();
                }
            }
        }
        // final posterior parity: the cache never touched the model
        prop_assert_eq!(session.network().probabilities(), fresh.pn.probabilities());
    }

    /// Forks share one gain cache on purpose (a serving snapshot and its
    /// session views reuse each other's clean shards), so the cache must
    /// never serve one fork an entry computed on another. Two forks of one
    /// network diverge under answers, arrivals, retirements and further
    /// forks; cached picks hop between the parked forks — returning to
    /// older ones whose shard epochs predate entries the others cached —
    /// and every pick must equal a fresh scan of its own fork, by
    /// candidate and by score bits. The globally unique epochs are what
    /// make each hit an entry computed from exactly the reader's state.
    #[test]
    fn forks_sharing_a_gain_cache_each_pick_their_own_fresh_scan(
        sizes in prop::array::uniform3(1usize..4),
        seed in any::<u64>(),
        ops in prop::collection::vec(any::<u32>(), 1..32),
    ) {
        let (net, pool) = half_pool_network(sizes);
        let root = ProbabilisticNetwork::new_sharded(net, sampler(), exact_sharding());
        let mut forks = vec![root.fork(), root];
        let mut cached = InformationGainSelection::new(seed);
        let mut fresh = InformationGainSelection::new(seed).without_cache();
        for (step, &op) in ops.iter().enumerate() {
            // alternate between the parked forks, else jump to any of them
            let f = if op & 8 == 0 { step % 2 } else { (op >> 4) as usize % forks.len() };
            let got = cached.select(&forks[f]);
            let want = fresh.select(&forks[f]);
            prop_assert_eq!(
                got.map(|(c, s)| (c, s.map(f64::to_bits))),
                want.map(|(c, s)| (c, s.map(f64::to_bits))),
                "fork {} step {}: cached pick vs its own fresh scan", f, step
            );
            let pick = (op >> 4) as usize;
            let pn = &mut forks[f];
            match op % 8 {
                0..=4 => {
                    let Some((candidate, _)) = want else { continue };
                    let approved = pn.probability(candidate) > 0.5;
                    pn.assert_candidate(Assertion { candidate, approved }).unwrap();
                }
                5 => {
                    if let Some((x, y)) = free_pair(pn, &pool, pick) {
                        pn.extend(x, y, 0.5).unwrap();
                    }
                }
                6 => {
                    let n = pn.network().candidate_count();
                    if n > 0 {
                        pn.retire(CandidateId::from_index(pick % n)).unwrap();
                    }
                }
                _ => {
                    let branch = pn.fork();
                    forks.push(branch);
                }
            }
        }
    }
}

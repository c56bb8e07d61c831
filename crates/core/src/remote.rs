//! Remote-shard hooks: the wire-facing half of [`ShardHost`].
//!
//! The conflict-graph factorization that makes shards independent within
//! one process (see [`crate::shard`]) also makes them independent across
//! *processes*: a shard server runs a [`ShardHost`] that owns a subset of
//! the components and answers every per-shard question — integrate an
//! assertion, evaluate a what-if entropy, scan information gains — without
//! seeing any other component's samples. This module adds what only
//! crosses a process boundary: bootstrapping a host from the
//! structure-only image, and shipping shard state out and back in.
//!
//! Determinism contract: every kernel a remote host runs is the *same
//! function* the in-process network runs — it is the same type, shard `k`
//! is seeded `seed + k` wherever it lives, and exported shard state
//! re-imports bit-identically through the same [`persist`](crate::persist)
//! re-recording path the snapshot loader uses. A distributed run over any
//! number of shard servers is therefore byte-identical to the
//! single-process run, which is what the `smn-dist` differential
//! certificate pins.

use crate::feedback::Feedback;
use crate::persist::{FeedbackState, NetworkState, ShardState};
use crate::probability::{network_from_state, network_to_structure, AssertError};
use crate::sampling::SampleStore;
use crate::shard::{partition, ShardHost, ShardSnapshot};
use smn_constraints::{BitSet, ConflictIndex};
use smn_schema::CandidateId;

impl ShardHost {
    /// Reconstructs a host from the structure of a [`NetworkState`] (the
    /// bootstrap image a coordinator ships) and the owned-component list.
    /// This is the one loader: the snapshot loader
    /// ([`ProbabilisticNetwork::from_state`](crate::ProbabilisticNetwork::from_state))
    /// starts here too. It re-adds catalog, graph and candidates, builds
    /// the conflict index with [`MatchingNetwork::new`](crate::MatchingNetwork::new)
    /// and refuses an image whose stored posting lists or triple table
    /// disagree with it, then derives the partition from that index. The
    /// owned shards are *built* here — samples never travel at bootstrap,
    /// so server fill cost scales with the owned slice.
    pub fn from_structure(state: &NetworkState, owned: &[usize]) -> Result<Self, String> {
        let network = network_from_state(state)?;
        let components = partition(network.index(), &state.sharding);
        if let Some(&bad) = owned.iter().find(|&&k| k >= components.count()) {
            return Err(format!("owned component {bad} of {}", components.count()));
        }
        Ok(Self::build(network, components, state.sampler, state.sharding, owned))
    }

    /// The structure-only image of this host's network — what a
    /// coordinator ships to bootstrap shard servers. Contains no feedback
    /// and no sample state.
    pub fn structure(&self) -> NetworkState {
        network_to_structure(&self.network, self.sampler, self.sharding)
    }

    /// Serializes an owned shard's sample state for shipment — the same
    /// [`ShardState`] a snapshot stores, so the importing side rebuilds it
    /// bit-identically through the snapshot loader's re-recording path.
    pub fn export_shard(&self, k: usize) -> Option<ShardState> {
        self.snapshot(k).map(|s| ShardState {
            feedback: FeedbackState::of(&s.feedback),
            store: s.store.to_state(),
        })
    }

    /// Installs a shipped (or snapshot-loaded) shard state as component
    /// `k`, deriving the sub-index locally (sub-indices are canonical:
    /// every derivation path yields the same index, so a migrated shard
    /// continues exactly as it would have on its old server). A state
    /// holding a sample that is not a matching instance of that sub-index
    /// under the shard feedback is refused.
    pub fn import_shard(&mut self, k: usize, state: &ShardState) -> Result<(), String> {
        if k >= self.components.count() {
            return Err(format!("imported component {k} of {}", self.components.count()));
        }
        let index = self.sub_index(k);
        let (feedback, store) = state.restore(&index).map_err(|e| format!("shard {k}: {e}"))?;
        self.install(k, ShardSnapshot { index, feedback, store });
        Ok(())
    }

    /// Decodes a shipped state of the component whose members are
    /// `members` (global ids, ascending) into a
    /// [`rebuild`](ShardHost::rebuild) source, checked like
    /// [`import_shard`](Self::import_shard). Call it on the host *before*
    /// it applies the evolution event, while the dissolved component is
    /// still one of its components; other member lists are refused.
    pub fn restore_dissolved(
        &self,
        members: &[CandidateId],
        state: &ShardState,
    ) -> Result<(Feedback, SampleStore), String> {
        let k = members
            .first()
            .and_then(|&c| self.locate(c))
            .map(|(k, _)| k)
            .filter(|&k| self.components.members(k) == members)
            .ok_or("the shipped members are not a component of this host")?;
        state.restore(&self.sub_index(k)).map_err(|e| format!("dissolved shard {k}: {e}"))
    }

    /// Checks `(candidate, approved)` against its owning shard alone, by
    /// the rule commit lanes and echoes use: `Ok(true)` would mutate,
    /// `Ok(false)` is a same-way re-assertion, errors are flips and
    /// conflicting approvals; `None` if the candidate is unknown or its
    /// shard is not owned. [`assert_unchecked`](Self::assert_unchecked)
    /// and [`entropy_after`](Self::entropy_after) trust their caller, so
    /// a shard server runs this on every request before either.
    pub fn validate_owned(
        &self,
        candidate: CandidateId,
        approved: bool,
    ) -> Option<Result<bool, AssertError>> {
        let (k, lc) = self.locate(candidate)?;
        Some(self.snapshot(k)?.validate(candidate, lc, approved))
    }
}

impl ShardState {
    /// Decodes the state of the shard whose restricted conflict index is
    /// `index` into its live feedback and store. A state sized for another
    /// member count is refused, and so is a store holding a sample that
    /// is not a matching instance under the shard feedback (inconsistent,
    /// against the feedback, or not maximal): view maintenance assumes
    /// every stored sample is one.
    pub(crate) fn restore(&self, index: &ConflictIndex) -> Result<(Feedback, SampleStore), String> {
        let m = index.candidate_count();
        if self.store.candidate_count != m {
            return Err(format!("store sized for {} of {m} members", self.store.candidate_count));
        }
        let feedback = self.feedback.build(m)?;
        let store = SampleStore::from_state(&self.store)?;
        let mut blocked = BitSet::new(m);
        let mut is_instance = |s: &BitSet| {
            index.is_consistent(s)
                && feedback.respected_by(s)
                && index.is_maximal_in(s, feedback.disapproved(), &mut blocked)
        };
        if let Some(i) = store.samples().iter().position(|s| !is_instance(s)) {
            return Err(format!("stored sample {i} is not a matching instance of the shard"));
        }
        Ok((feedback, store))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feedback::Assertion;
    use crate::persist::NetworkEvent;
    use crate::probability::ProbabilisticNetwork;
    use crate::sampling::SamplerConfig;
    use crate::shard::ShardingConfig;
    use crate::testutil::{fig1_network, perturbed_network};
    use smn_constraints::components::ComponentEvolution;

    fn sampler() -> SamplerConfig {
        SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed: 5, chains: 1 }
    }

    /// Sampled everywhere: force every component through the sampler so
    /// the tests exercise seed derivation, not just exact enumeration.
    fn sampled_cfg() -> ShardingConfig {
        ShardingConfig { exact_threshold: 0, ..Default::default() }
    }

    fn all_probs(host: &ShardHost) -> Vec<f64> {
        let n = host.network().candidate_count();
        let mut probs = vec![0.0; n];
        for k in host.owned_components() {
            let local = host.shard_probabilities(k).unwrap();
            for (j, &g) in host.components().members(k).iter().enumerate() {
                probs[g.index()] = local[j];
            }
        }
        probs
    }

    #[test]
    fn a_union_of_hosts_matches_the_single_process_shard_set() {
        for cfg in [ShardingConfig::default(), sampled_cfg()] {
            let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 9);
            let count = ShardHost::new(net.clone(), sampler(), cfg, &[]).component_count();
            let set = ShardHost::new(net.clone(), sampler(), cfg, &(0..count).collect::<Vec<_>>());
            let n = net.candidate_count();
            let reference = all_probs(&set);
            // split ownership across two hosts by parity
            let even: Vec<usize> = (0..count).filter(|k| k % 2 == 0).collect();
            let odd: Vec<usize> = (0..count).filter(|k| k % 2 == 1).collect();
            let a = ShardHost::new(net.clone(), sampler(), cfg, &even);
            let b = ShardHost::new(net.clone(), sampler(), cfg, &odd);
            let mut union = vec![0.0; n];
            for host in [&a, &b] {
                for (g, &p) in all_probs(host).iter().enumerate() {
                    if p != 0.0 || host.owns(host.component_of(CandidateId::from_index(g))) {
                        union[g] = p;
                    }
                }
            }
            assert_eq!(union, reference, "host shards diverged from the all-owning host");
            for (k, shard) in set.owned() {
                let host = if k % 2 == 0 { &a } else { &b };
                let state = host.export_shard(k).unwrap();
                let rebuilt = SampleStore::from_state(&state.store).unwrap();
                assert_eq!(rebuilt.samples(), shard.store.samples(), "shard {k} samples");
            }
        }
    }

    #[test]
    fn bootstrap_round_trips_through_the_structure_image() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 11);
        let direct = ShardHost::new(net.clone(), sampler(), ShardingConfig::default(), &[0]);
        let image = direct.structure();
        let count = direct.component_count();
        let owned: Vec<usize> = (0..count).collect();
        let shipped = ShardHost::from_structure(&image, &owned).unwrap();
        assert_eq!(shipped.network().index(), net.index(), "structure image lost the index");
        assert_eq!(shipped.component_count(), count);
        assert_eq!(
            shipped.shard_probabilities(0),
            direct.shard_probabilities(0),
            "a bootstrapped server builds the same shard a direct host builds"
        );
        // invalid owned ids are a typed error, not a panic
        assert!(ShardHost::from_structure(&image, &[count]).is_err());
    }

    #[test]
    fn export_import_migrates_a_shard_bit_identically() {
        // sampled stores: the shipped state reproduces the posterior and
        // the what-if surface exactly (the sampler's *live* walk state
        // does not travel — which is why the distributed mode pins
        // ownership of intact shards instead of relocating them)
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let count = ShardHost::new(net.clone(), sampler(), sampled_cfg(), &[]).component_count();
        let mut a =
            ShardHost::new(net.clone(), sampler(), sampled_cfg(), &(0..count).collect::<Vec<_>>());
        // integrate an assertion so the migrated state is not pristine
        let target = CandidateId::from_index(0);
        a.assert_unchecked(target, false).unwrap();
        let k = a.component_of(target);
        let state = a.export_shard(k).unwrap();
        let mut b = ShardHost::new(net.clone(), sampler(), sampled_cfg(), &[]);
        b.import_shard(k, &state).unwrap();
        assert_eq!(b.shard_probabilities(k), a.shard_probabilities(k));
        assert_eq!(b.entropy_after(&[(target, false)]), a.entropy_after(&[(target, false)]));
        // exhausted (exact) stores additionally maintain identically after
        // the trip — the same contract the crash-recovery harness certifies
        let count = ShardHost::new(net.clone(), sampler(), ShardingConfig::default(), &[])
            .component_count();
        let mut a = ShardHost::new(
            net.clone(),
            sampler(),
            ShardingConfig::default(),
            &(0..count).collect::<Vec<_>>(),
        );
        a.assert_unchecked(target, false).unwrap();
        let k = a.component_of(target);
        let mut b = ShardHost::new(net, sampler(), ShardingConfig::default(), &[]);
        b.import_shard(k, &a.export_shard(k).unwrap()).unwrap();
        assert_eq!(b.shard_probabilities(k), a.shard_probabilities(k));
        let next = a.components().members(k).iter().copied().find(|&c| c != target).unwrap();
        assert_eq!(a.assert_unchecked(next, true), b.assert_unchecked(next, true));
        assert_eq!(b.shard_probabilities(k), a.shard_probabilities(k));
    }

    #[test]
    fn a_stored_sample_that_is_not_a_matching_instance_is_refused() {
        // fig1 is one exact shard holding its four maximal instances
        let fig1 = || ShardHost::new(fig1_network(), sampler(), ShardingConfig::default(), &[]);
        let mut host = ShardHost::owning_all(fig1_network(), sampler(), ShardingConfig::default());
        host.assert_unchecked(CandidateId(4), false).unwrap();
        let good = host.export_shard(0).unwrap();
        fig1().import_shard(0, &good).expect("an exported shard re-imports");
        // {c0} is consistent and avoids the disapproved c4, but c1 can
        // still join it; {c0, c1, c3} breaks one-to-one at a1; {c0, c3,
        // c4} holds the disapproved c4
        for (sample, what) in
            [(vec![0], "not maximal"), (vec![0, 1, 3], "inconsistent"), (vec![0, 3, 4], "feedback")]
        {
            let mut bad = good.clone();
            bad.store.samples = vec![sample];
            bad.store.counts = vec![1];
            let err = fig1().import_shard(0, &bad).expect_err(what);
            assert!(err.contains("not a matching instance"), "{what}: {err}");
            // the same state is refused as a rebuild source
            let members = host.components().members(0);
            assert!(host.restore_dissolved(members, &bad).is_err(), "{what} as a source");
        }
        // a member list that is not a component is refused, not a panic
        assert!(host.restore_dissolved(&[], &good).is_err());
        assert!(host.restore_dissolved(&[CandidateId(0)], &good).is_err());
    }

    #[test]
    fn per_shard_queries_match_the_probabilistic_network() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 17);
        let pn =
            ProbabilisticNetwork::new_sharded(net.clone(), sampler(), ShardingConfig::default());
        let count = pn.shard_count();
        let host = ShardHost::new(
            net,
            sampler(),
            ShardingConfig::default(),
            &(0..count).collect::<Vec<_>>(),
        );
        assert_eq!(all_probs(&host), pn.probabilities());
        // gains through the host equal the single-process gain scan
        let pool = pn.uncertain_candidates();
        let reference = pn.information_gains(&pool);
        for k in 0..count {
            let locals: Vec<CandidateId> =
                pool.iter().copied().filter(|&c| host.component_of(c) == k).collect();
            if locals.is_empty() {
                continue;
            }
            let gains = host.gains(&locals).unwrap();
            for (c, g) in locals.iter().zip(&gains) {
                let pos = pool.iter().position(|x| x == c).unwrap();
                assert_eq!(*g, reference[pos], "gain of {c:?}");
            }
        }
    }

    /// Two disjoint one-to-one conflict clusters over a 2-schema catalog:
    /// `{c0 = a0–b0, c1 = a0–b1}` and `{c2 = a1–b2, c3 = a1–b3}` — the
    /// arrival `a1–b0` couples them into one component.
    fn two_cluster_network() -> crate::network::MatchingNetwork {
        use smn_schema::{AttributeId, CandidateSet, CatalogBuilder, InteractionGraph};
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a0", "a1"]).unwrap();
        b.add_schema_with_attributes("B", ["b0", "b1", "b2", "b3"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(2);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        cs.add(&cat, Some(&g), a(0), a(2), 0.9).unwrap(); // c0
        cs.add(&cat, Some(&g), a(0), a(3), 0.8).unwrap(); // c1
        cs.add(&cat, Some(&g), a(1), a(4), 0.8).unwrap(); // c2
        cs.add(&cat, Some(&g), a(1), a(5), 0.7).unwrap(); // c3
        crate::network::MatchingNetwork::new(
            cat,
            g,
            cs,
            smn_constraints::ConstraintConfig::default(),
        )
    }

    /// Rebuilds `ks` the way a shard server does: restores each shipped
    /// `(members, state)` source on the pre-event host `before`, then
    /// calls [`ShardHost::rebuild`].
    fn rebuild_shipped(
        host: &mut ShardHost,
        before: &ShardHost,
        event: &NetworkEvent,
        evo: &ComponentEvolution,
        ks: &[usize],
        shipped: &[(Vec<CandidateId>, ShardState)],
    ) -> Result<(), String> {
        let restored = shipped
            .iter()
            .map(|(members, state)| Ok((members, before.restore_dissolved(members, state)?)))
            .collect::<Result<Vec<_>, String>>()?;
        let sources: Vec<_> =
            restored.iter().map(|(members, (f, s))| (members.as_slice(), f, s)).collect();
        host.rebuild(event, evo, ks, &sources)
    }

    #[test]
    fn evolution_rebuilds_match_the_probabilistic_network() {
        use smn_schema::AttributeId;
        for cfg in [ShardingConfig::default(), sampled_cfg()] {
            let net = two_cluster_network();
            let mut pn = ProbabilisticNetwork::new_sharded(net.clone(), sampler(), cfg);
            let count = pn.shard_count();
            let mut host = ShardHost::new(net, sampler(), cfg, &(0..count).collect::<Vec<_>>());
            // -- extend: export the about-to-dissolve shards first, apply,
            //    then rebuild the merged component from the exports
            let (arrival_pn, merged_probs) = {
                let id = pn.extend(AttributeId(1), AttributeId(2), 0.6).unwrap();
                (id, pn.probabilities().to_vec())
            };
            let exports: Vec<(usize, Vec<CandidateId>, ShardState)> = host
                .owned_components()
                .iter()
                .map(|&k| (k, host.components().members(k).to_vec(), host.export_shard(k).unwrap()))
                .collect();
            let before = host.clone();
            let (arrival, evo, _) = host.apply_extend(AttributeId(1), AttributeId(2), 0.6).unwrap();
            assert_eq!(arrival, arrival_pn);
            let &[merged_k] = evo.rebuilt.as_slice() else { panic!("one merged component") };
            let absorbed: Vec<(Vec<CandidateId>, ShardState)> = evo
                .dissolved
                .iter()
                .map(|(old_k, members)| {
                    let (_, _, state) =
                        exports.iter().find(|(k, _, _)| k == old_k).expect("exported");
                    (members.clone(), state.clone())
                })
                .collect();
            let extend =
                NetworkEvent::Extend { a: AttributeId(1), b: AttributeId(2), confidence: 0.6 };
            rebuild_shipped(&mut host, &before, &extend, &evo, &[merged_k], &absorbed).unwrap();
            assert_eq!(all_probs(&host), merged_probs, "merged rebuild diverged");
            // -- retire: same dance through the split path
            let retiree = arrival;
            let old_members_of: Vec<(usize, Vec<CandidateId>)> = host
                .owned_components()
                .iter()
                .map(|&k| (k, host.components().members(k).to_vec()))
                .collect();
            let exports: Vec<(usize, ShardState)> = host
                .owned_components()
                .iter()
                .map(|&k| (k, host.export_shard(k).unwrap()))
                .collect();
            pn.retire(retiree).unwrap();
            let before = host.clone();
            let (evo, _) = host.apply_retire(retiree).unwrap();
            let (old_k, old_members) = evo.dissolved.first().expect("retiree shard dissolves");
            let old_state =
                &exports.iter().find(|(k, _)| k == old_k).expect("exported dissolved shard").1;
            assert_eq!(
                old_members,
                &old_members_of.iter().find(|(k, _)| k == old_k).unwrap().1,
                "evolution reports the pre-event member list"
            );
            for &part_k in &evo.rebuilt {
                let shipped = [(old_members.clone(), old_state.clone())];
                let retire = NetworkEvent::Retire { candidate: retiree };
                rebuild_shipped(&mut host, &before, &retire, &evo, &[part_k], &shipped).unwrap();
            }
            assert_eq!(all_probs(&host), pn.probabilities(), "split rebuild diverged");
        }
    }

    #[test]
    fn commit_lane_and_assert_agree_with_the_shard_set_paths() {
        // a host owning one component (a shard server's slice) commits a
        // lane exactly like the in-process network's all-owning host
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let mut pn =
            ProbabilisticNetwork::new_sharded(net.clone(), sampler(), ShardingConfig::default());
        let target = CandidateId::from_index(0);
        let k = pn.shard_of(target);
        let mut host = ShardHost::new(net, sampler(), ShardingConfig::default(), &[k]);
        let members = host.components().members(k).to_vec();
        let events: Vec<Assertion> = members[..members.len().min(3)]
            .iter()
            .enumerate()
            .map(|(i, &c)| Assertion { candidate: c, approved: i % 2 == 0 })
            .collect();
        let expected = pn.commit_batch(&events);
        let (snap, results) = host.commit_lane(k, &events);
        if let Some(s) = snap {
            host.install(k, s);
        }
        for (got, want) in results.iter().zip(&expected) {
            assert_eq!(*got, (want.approved, want.outcome, want.mutated));
        }
        let local = host.shard_probabilities(k).unwrap();
        for (j, &g) in members.iter().enumerate() {
            assert_eq!(local[j], pn.probability(g), "lane probability of {g:?}");
        }
    }
}

//! Component shards of the probabilistic model.
//!
//! The integrity constraints only couple candidates that share a conflict,
//! so the distribution over matching instances factorizes exactly over the
//! connected components of the conflict graph
//! ([`smn_constraints::Components`]): `I` is a matching
//! instance of the network iff every per-component restriction is a
//! matching instance of that component. [`ShardHost`] materializes that
//! factorization — one independent [`SampleStore`] per component, running
//! on a restricted, locally renumbered
//! [`smn_constraints::ConflictIndex`] — and is the one sample
//! representation behind every [`ProbabilisticNetwork`](crate::ProbabilisticNetwork).
//! A single unfactorized store is the partition with one part:
//! [`ShardingConfig::disabled`] selects [`Components::whole`], whose one
//! shard spans every candidate under the identity renumbering, is seeded
//! `seed + 0` and runs on the network's own conflict index.
//!
//! What the factorization buys:
//!
//! * **Local assertions** — integrating feedback on `c` view-maintains and
//!   recomputes only the shard owning `c`, not the whole store.
//! * **Local information gain** — candidates of different components are
//!   statistically independent, so their co-occurrence terms contribute
//!   zero gain; the batch gain scan shrinks from `O(|pool|·n·S/64)` to a
//!   sum of per-shard costs.
//! * **Exact small shards** — components at or below
//!   [`ShardingConfig::exact_threshold`] candidates are enumerated with
//!   [`crate::exact::enumerate_with_index`]
//!   instead of sampled: their stores are born exhausted and their
//!   posteriors exact (Eq. 1).
//! * **Parallel fill** — shard stores fill independently across the
//!   persistent worker pool's one run queue ([`crate::pool`]), each seeded
//!   `seed + shard_id` in the spirit of the multi-chain sampler and merged
//!   in shard-id order, so the result is bit-deterministic for a fixed
//!   configuration regardless of scheduling or thread count. Gain scans
//!   and what-if branches fan out the same way.
//! * **Distribution** — a host owns the sample state of a *subset* of the
//!   components. The in-process network's host owns all of them, a shard
//!   server's host owns its placement slice and the `smn-dist`
//!   coordinator's mirror owns none; all three run the same kernels, so a
//!   distributed run is byte-identical to the single-process one (see
//!   [`crate::remote`] for the wire-facing half).

use crate::entropy::binary_entropy;
use crate::exact;
use crate::feedback::{Assertion, Feedback};
use crate::ledger::check_verdict;
use crate::network::MatchingNetwork;
use crate::persist::NetworkEvent;
use crate::pool;
use crate::probability::{gains_within, AssertError};
use crate::reconcile::{commit_ladder, StepOutcome};
use crate::sampling::{SampleStore, SamplerConfig};
use smn_constraints::components::ComponentEvolution;
use smn_constraints::{BitSet, Components, ConflictIndex};
use smn_schema::{AttributeId, CandidateId, SchemaError};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Configuration of the component partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardingConfig {
    /// Whether the partition follows the conflict components;
    /// [`disabled`](ShardingConfig::disabled) keeps the whole network as
    /// one component — the classic single-store Algorithm 3 setup.
    pub enabled: bool,
    /// Components with at most this many candidates switch from sampling
    /// to exact enumeration (`0` samples everything).
    pub exact_threshold: usize,
    /// Instance cap for the exact-enumeration attempt; a small component
    /// that still exceeds it falls back to sampling.
    pub exact_cap: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self { enabled: true, exact_threshold: 24, exact_cap: 4096 }
    }
}

impl ShardingConfig {
    /// The whole-network configuration: one component spanning every
    /// candidate, always sampled.
    pub fn disabled() -> Self {
        Self { enabled: false, exact_threshold: 0, ..Self::default() }
    }

    /// Whether a component of `m` candidates is sampled rather than
    /// enumerated (`exact_threshold = 0` samples every component, the
    /// empty whole-network one included).
    fn samples(&self, m: usize) -> bool {
        m > self.exact_threshold || self.exact_threshold == 0
    }
}

/// The partition `sharding` selects over `index`: the conflict components,
/// or the whole network as one component.
pub(crate) fn partition(index: &ConflictIndex, sharding: &ShardingConfig) -> Components {
    if sharding.enabled {
        Components::of_index(index)
    } else {
        Components::whole(index.candidate_count())
    }
}

/// One conflict component's snapshot: its restricted index, local feedback
/// and independent sample store. Candidate ids are shard-local; the
/// [`Components`] partition owns the global ↔ local mapping. Opaque
/// outside this crate.
///
/// Snapshots are immutable behind `Arc` (see [`ShardHost`]): an assertion
/// copy-on-writes exactly the owning shard (`Arc::make_mut`), and even
/// that copy is thin — the sub-index is itself `Arc`-shared and the
/// store's sample matrix sits behind its own snapshot pointer, so the
/// first write after a fork duplicates one shard's feedback bitsets and
/// store overlay, nothing network-wide.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    pub(crate) index: Arc<ConflictIndex>,
    pub(crate) feedback: Feedback,
    pub(crate) store: SampleStore,
}

impl ShardSnapshot {
    /// Checks `(lc, approved)` against this shard's feedback and approval
    /// constraints by the rule of [`Ledger::validate`](crate::Ledger::validate),
    /// for working copies that carry no global feedback (commit lanes,
    /// session echoes): `Ok(true)` would mutate, `Ok(false)` is a same-way
    /// re-assertion, and errors name the global `candidate`.
    pub(crate) fn validate(
        &self,
        candidate: CandidateId,
        lc: CandidateId,
        approved: bool,
    ) -> Result<bool, AssertError> {
        check_verdict(&self.feedback, &self.index, lc, approved, candidate)
    }

    /// The assertion kernel every write path shares: records the
    /// validated `(lc, approved)` in the shard's feedback and
    /// view-maintains its store.
    pub(crate) fn integrate(&mut self, lc: CandidateId, approved: bool) {
        self.feedback.assert(Assertion { candidate: lc, approved });
        self.store.maintain_with_index(&self.index, &self.feedback, lc, approved);
    }
}

/// One commit-lane event's result: the standing verdict, how it resolved
/// and whether it mutated the shard.
pub(crate) type LaneStep = (bool, StepOutcome, bool);

/// A component an evolution dissolved, as [`ShardHost::rebuild`] reads
/// it: the pre-event member list (old global ids, ascending), the local
/// feedback and the sample store.
pub type Dissolved<'a> = (&'a [CandidateId], &'a Feedback, &'a SampleStore);

/// One process's view of the partitioned model: the full network
/// structure and component partition, plus the sample state of the
/// components this host owns.
///
/// Cloning a host is `O(#components)` pointer copies — no sample matrix,
/// conflict index or partition is duplicated until one side writes a
/// shard — which is the copy-on-write layer behind
/// [`ProbabilisticNetwork::fork`](crate::ProbabilisticNetwork::fork).
#[derive(Debug, Clone)]
pub struct ShardHost {
    pub(crate) network: MatchingNetwork,
    pub(crate) components: Arc<Components>,
    /// `shards[k]` is component `k`'s state when this host owns it.
    shards: Vec<Option<Arc<ShardSnapshot>>>,
    pub(crate) sampler: SamplerConfig,
    pub(crate) sharding: ShardingConfig,
}

impl ShardHost {
    /// Builds a host owning the listed components. Every participant
    /// derives the same partition and sub-indices from `network`, and
    /// each owned shard is built by the same seeded builder, so the union
    /// of the hosts' shards across servers is bit-identical to a host that
    /// owns everything.
    ///
    /// Panics if an entry of `owned` is not a component id; validate
    /// wire-derived lists via [`from_structure`](Self::from_structure)
    /// instead.
    pub fn new(
        network: MatchingNetwork,
        sampler: SamplerConfig,
        sharding: ShardingConfig,
        owned: &[usize],
    ) -> Self {
        let components = partition(network.index(), &sharding);
        for &k in owned {
            assert!(k < components.count(), "owned component {k} out of range");
        }
        Self::build(network, components, sampler, sharding, owned)
    }

    /// A host owning every component — the in-process network's.
    pub(crate) fn owning_all(
        network: MatchingNetwork,
        sampler: SamplerConfig,
        sharding: ShardingConfig,
    ) -> Self {
        let components = partition(network.index(), &sharding);
        let all: Vec<usize> = (0..components.count()).collect();
        Self::build(network, components, sampler, sharding, &all)
    }

    /// Builds the `owned` shards of `components` (valid ids) across the
    /// worker pool; the pool returns results in item order, so the shards
    /// do not depend on scheduling.
    pub(crate) fn build(
        network: MatchingNetwork,
        components: Components,
        sampler: SamplerConfig,
        sharding: ShardingConfig,
        owned: &[usize],
    ) -> Self {
        let count = components.count();
        let mut host = Self {
            network,
            components: Arc::new(components),
            shards: vec![None; count],
            sampler,
            sharding,
        };
        let built = pool::global().map(owned.iter().copied(), |k| {
            let sub = host.sub_index(k);
            let feedback = Feedback::new(sub.candidate_count());
            Arc::new(build_shard(k, sub, feedback, Vec::new(), sampler, &sharding))
        });
        for (&k, shard) in owned.iter().zip(built) {
            host.shards[k] = Some(shard);
        }
        host
    }

    /// Component `k`'s restricted sub-index.
    pub(crate) fn sub_index(&self, k: usize) -> Arc<ConflictIndex> {
        if self.components.is_whole() {
            self.network.shared_index().clone()
        } else {
            self.network.index().shard_component(&self.components, k)
        }
    }

    /// The underlying network structure.
    pub fn network(&self) -> &MatchingNetwork {
        &self.network
    }

    /// The component partition (identical on every participant).
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Number of components.
    pub fn component_count(&self) -> usize {
        self.components.count()
    }

    /// Component ids this host owns sample state for, ascending.
    pub fn owned_components(&self) -> Vec<usize> {
        self.owned().map(|(k, _)| k).collect()
    }

    /// Whether this host owns component `k`.
    pub fn owns(&self, k: usize) -> bool {
        self.snapshot(k).is_some()
    }

    /// Owning component of a global candidate.
    pub fn component_of(&self, c: CandidateId) -> usize {
        self.components.component_of(c)
    }

    /// Owning component and component-local id of a global candidate;
    /// `None` for an unknown id.
    pub(crate) fn locate(&self, c: CandidateId) -> Option<(usize, CandidateId)> {
        (c.index() < self.components.candidate_count()).then(|| {
            let lc = CandidateId::from_index(self.components.local_index(c));
            (self.components.component_of(c), lc)
        })
    }

    /// Component `k`'s snapshot, if owned.
    pub(crate) fn snapshot(&self, k: usize) -> Option<&ShardSnapshot> {
        self.shards.get(k)?.as_deref()
    }

    /// The owned snapshots with their component ids, ascending.
    pub(crate) fn owned(&self) -> impl Iterator<Item = (usize, &ShardSnapshot)> {
        self.shards.iter().enumerate().filter_map(|(k, s)| Some((k, s.as_deref()?)))
    }

    /// An owned shard's Eq. 2 probabilities in local member order.
    pub fn shard_probabilities(&self, k: usize) -> Option<Vec<f64>> {
        self.snapshot(k).map(snapshot_probabilities)
    }

    /// Integrates an assertion the caller already validated:
    /// copy-on-writes the owning shard (a no-op copy when the snapshot is
    /// not shared with a fork), updates its feedback and view-maintains
    /// its store. Other shards are untouched — and stay shared with any
    /// fork by pointer. Returns the shard's component id, or `None` if
    /// the candidate is unknown or this host does not own its shard.
    pub fn assert_unchecked(&mut self, candidate: CandidateId, approved: bool) -> Option<usize> {
        let (k, lc) = self.locate(candidate)?;
        Arc::make_mut(self.shards[k].as_mut()?).integrate(lc, approved);
        Some(k)
    }

    /// Applies a lane of decided assertions (global candidate ids, all
    /// owned by shard `k`, in decision order) against a *working copy* of
    /// the shard and returns the new snapshot plus one [`LaneStep`] per
    /// event. `self` is untouched — the caller [`install`](Self::install)s
    /// the snapshot afterwards, which is what lets disjoint lanes run on
    /// pool workers concurrently.
    ///
    /// Each event walks the [`commit_ladder`] on validation alone, against
    /// the lane's working snapshot and *before* any copy is made, so a
    /// lane of purely redundant events returns `None` — the shard is never
    /// cloned for work that turns out to be a no-op.
    pub(crate) fn commit_lane(
        &self,
        k: usize,
        events: &[Assertion],
    ) -> (Option<ShardSnapshot>, Vec<LaneStep>) {
        let base = self.snapshot(k).expect("lane shard is owned");
        let mut work: Option<ShardSnapshot> = None;
        let mut results = Vec::with_capacity(events.len());
        for event in events {
            let lc = CandidateId::from_index(self.components.local_index(event.candidate));
            let snap = work.as_ref().unwrap_or(base);
            let (approved, outcome, mutates) =
                commit_ladder(event.approved, |v| snap.validate(event.candidate, lc, v));
            let mutates = mutates.unwrap_or(false);
            if mutates {
                work.get_or_insert_with(|| base.clone()).integrate(lc, approved);
            }
            results.push((approved, outcome, mutates));
        }
        (work, results)
    }

    /// Installs a [`commit_lane`](Self::commit_lane) working snapshot as
    /// component `k`.
    pub(crate) fn install(&mut self, k: usize, snapshot: ShardSnapshot) {
        self.shards[k] = Some(Arc::new(snapshot));
    }

    /// The entropy (bits) each query's owning shard would carry after
    /// hypothetically integrating `(candidate, approved)`, aligned with
    /// `queries`: the real integration (feedback update, view maintenance,
    /// refill) on a throwaway copy of the one snapshot. Entropy is additive
    /// over independent components, so callers compose `H' = H − H_k + H'_k`
    /// from this without rebuilding the global probability vector (see
    /// [`Ledger::what_if_batch`](crate::Ledger::what_if_batch)). Each
    /// query is a pure function of its own shard, so the queries fan out
    /// across the worker pool, one item each, and the values do not
    /// depend on scheduling. Validation (inertness) is the caller's job;
    /// `None` if a candidate is unknown or its shard is not owned.
    pub fn entropy_after(&self, queries: &[(CandidateId, bool)]) -> Option<Vec<f64>> {
        self.entropy_after_on(pool::global(), queries)
    }

    /// [`entropy_after`](Self::entropy_after) on the given worker pool.
    fn entropy_after_on(
        &self,
        workers: &pool::WorkerPool,
        queries: &[(CandidateId, bool)],
    ) -> Option<Vec<f64>> {
        let after = |&(candidate, approved): &(CandidateId, bool)| {
            let (k, lc) = self.locate(candidate)?;
            let mut snap = self.snapshot(k)?.clone();
            snap.integrate(lc, approved);
            Some(snapshot_probabilities(&snap).into_iter().map(binary_entropy).sum())
        };
        workers.map(queries, after).into_iter().collect()
    }

    /// Expected information gains (Eq. 5) of the pool candidates (global
    /// ids), aligned with `pool`; `None` if a candidate is unknown or its
    /// shard is not owned. Each candidate is priced against its own shard only —
    /// candidates of other components are independent of it, so their
    /// co-occurrence terms contribute zero gain.
    ///
    /// Every gain is a pure function of its shard's sample matrix, so the
    /// scan splits freely: a big shard's pool is cut
    /// into one chunk per worker, and big scans fan the chunks out across
    /// the worker pool. Each chunk lands in its own `out` positions, so
    /// the result does not depend on scheduling; small scans stay on the
    /// caller to dodge the handoff cost.
    pub fn gains(&self, pool: &[CandidateId]) -> Option<Vec<f64>> {
        self.gains_on(pool::global(), pool)
    }

    /// [`gains`](Self::gains) on the given worker pool.
    fn gains_on(&self, workers: &pool::WorkerPool, pool: &[CandidateId]) -> Option<Vec<f64>> {
        let mut by_shard: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
        for (pos, &c) in pool.iter().enumerate() {
            let (k, lc) = self.locate(c)?;
            by_shard.entry(k).or_default().push((pos, lc.index()));
        }
        let groups: Vec<&ShardSnapshot> =
            by_shard.keys().map(|&k| self.snapshot(k)).collect::<Option<_>>()?;
        let threads = workers.threads();
        let mut chunks: Vec<(usize, &[(usize, usize)])> = Vec::new();
        let mut work = 0;
        for (g, entries) in by_shard.values().enumerate() {
            let cost = entries.len() * groups[g].index.candidate_count();
            work += cost;
            let size = if threads > 1 && entries.len() >= 2 && cost > 1 << 16 {
                entries.len().div_ceil(threads)
            } else {
                entries.len()
            };
            chunks.extend(entries.chunks(size).map(|part| (g, part)));
        }
        let scan = |&(g, entries): &(usize, &[(usize, usize)])| -> Vec<f64> {
            let locals: Vec<usize> = entries.iter().map(|&(_, l)| l).collect();
            gains_within(groups[g].store.matrix(), &locals)
        };
        let values: Vec<Vec<f64>> = if work > 1 << 14 {
            workers.map(&chunks, scan)
        } else {
            chunks.iter().map(scan).collect()
        };
        let mut out = vec![0.0; pool.len()];
        for ((_, entries), gains) in chunks.iter().zip(values) {
            for (&(pos, _), g) in entries.iter().zip(gains) {
                out[pos] = g;
            }
        }
        Some(out)
    }

    /// Applies a network extension to the structure: appends the
    /// candidate, patches the conflict index, merges the coupled
    /// components and rekeys the owned shards under the new numbering.
    /// Returns the arrival id, the partition evolution (identical on every
    /// participant) and the absorbed components' snapshots aligned with
    /// `evolution.dissolved` (`None` where not owned). The merged
    /// component has no state until its owner [`rebuild`](Self::rebuild)s
    /// it — in process from those snapshots, on a shard server from
    /// shipped ones.
    #[allow(clippy::type_complexity)]
    pub fn apply_extend(
        &mut self,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<(CandidateId, ComponentEvolution, Vec<Option<Arc<ShardSnapshot>>>), SchemaError>
    {
        let id = self.network.extend(x, y, confidence)?;
        let evo = Arc::make_mut(&mut self.components).add_candidate(self.network.index());
        let absorbed = self.rekey(&evo.remap);
        Ok((id, evo, absorbed))
    }

    /// Applies a retirement to the structure: removes the candidate,
    /// patches the index, splits its component and rekeys the owned
    /// shards. Returns the partition evolution and the dissolved
    /// component's snapshot aligned with `evolution.dissolved` (`None`
    /// where not owned); the split parts have no state until their owners
    /// [`rebuild`](Self::rebuild) them.
    #[allow(clippy::type_complexity)]
    pub fn apply_retire(
        &mut self,
        c: CandidateId,
    ) -> Result<(ComponentEvolution, Vec<Option<Arc<ShardSnapshot>>>), SchemaError> {
        if c.index() >= self.network.candidate_count() {
            return Err(SchemaError::UnknownCandidate(c));
        }
        self.network.retire(c)?;
        let evo = Arc::make_mut(&mut self.components).retire_candidate(self.network.index(), c);
        let dissolved = self.rekey(&evo.remap);
        Ok((evo, dissolved))
    }

    /// Moves the shards to their post-evolution ids and hands back the
    /// dissolved ones (`remap == None`, ascending old id).
    fn rekey(&mut self, remap: &[Option<usize>]) -> Vec<Option<Arc<ShardSnapshot>>> {
        let old = std::mem::replace(&mut self.shards, vec![None; self.components.count()]);
        let mut dissolved = Vec::new();
        for (old_k, shard) in old.into_iter().enumerate() {
            match remap[old_k] {
                Some(new_k) => self.shards[new_k] = shard,
                None => dissolved.push(shard),
            }
        }
        dissolved
    }

    /// Builds the post-event components `ks` of the evolution `event`
    /// this host has just applied (`evo` is what
    /// [`apply_extend`](Self::apply_extend) or
    /// [`apply_retire`](Self::apply_retire) returned) from the dissolved
    /// `sources`, given in `evo.dissolved` order: an extension merges
    /// them all into its one rebuilt component, a retirement splits its
    /// one source into the parts. The in-process network rebuilds all of
    /// `evo.rebuilt` from its own snapshots; a shard server rebuilds the
    /// ones it owns from shipped states. Ids outside `evo.rebuilt` and
    /// sources that are not the dissolved components are refused before
    /// anything is built.
    pub fn rebuild(
        &mut self,
        event: &NetworkEvent,
        evo: &ComponentEvolution,
        ks: &[usize],
        sources: &[Dissolved<'_>],
    ) -> Result<(), String> {
        let retired = match *event {
            NetworkEvent::Extend { .. } => None,
            NetworkEvent::Retire { candidate } => Some(candidate),
            NetworkEvent::Assert { .. } => return Err("an assertion rebuilds no component".into()),
        };
        if !ks.windows(2).all(|w| w[0] < w[1])
            || ks.iter().any(|k| evo.rebuilt.binary_search(k).is_err())
        {
            return Err(format!("components {ks:?} are not among the rebuilt {:?}", evo.rebuilt));
        }
        if ks.is_empty() {
            return Ok(());
        }
        if sources.len() != evo.dissolved.len()
            || sources.iter().zip(&evo.dissolved).any(|(s, (_, members))| s.0 != members.as_slice())
        {
            return Err("the rebuild sources are not the dissolved components".into());
        }
        for &k in ks {
            match retired {
                None => self.build_merged(k, sources),
                Some(c) => self.build_part(k, sources[0], c),
            }
        }
        Ok(())
    }

    /// Builds the merged component `k` of an extension from the absorbed
    /// sources in ascending *old* component order — the cross-combination
    /// order, which the carried-sample cap makes order-sensitive.
    /// Still-consistent cross-combinations of the sources' samples are
    /// carried over, and only this shard enumerates or refills.
    fn build_merged(&mut self, k: usize, sources: &[Dissolved<'_>]) {
        let arrival = CandidateId::from_index(self.network.candidate_count() - 1);
        let sub = self.sub_index(k);
        let m = sub.candidate_count();
        let local = |g: CandidateId| CandidateId::from_index(self.components.local_index(g));
        // merged local feedback: every absorbed shard's assertions remapped
        // old-local → global → merged-local (the arrival is unasserted, and
        // approvals of different components never conflict)
        let mut feedback = Feedback::new(m);
        for (members, source, _) in sources {
            for lc in source.approved().iter() {
                feedback.approve(local(members[lc.index()]));
            }
            for lc in source.disapproved().iter() {
                feedback.disapprove(local(members[lc.index()]));
            }
        }
        // sampled merges carry over cross-combined old samples: each
        // combination is maximal over the union of the old components, so
        // with the arrival inserted when addable (kept otherwise) it is a
        // matching instance of the merged component; the sampler refills
        // on top of them instead of restarting cold
        let carried = if self.sharding.samples(m) {
            let cap = self.sampler.n_samples.max(self.sampler.n_min).max(1);
            let mut combos: Vec<BitSet> = vec![BitSet::new(m)];
            for (members, _, store) in sources {
                let mut next = Vec::new();
                'cross: for combo in &combos {
                    for s in store.samples() {
                        let mut merged = combo.clone();
                        for lc in s.iter() {
                            merged.insert(local(members[lc.index()]));
                        }
                        next.push(merged);
                        if next.len() >= cap {
                            break 'cross;
                        }
                    }
                }
                combos = next;
            }
            let lc_new = local(arrival);
            for inst in &mut combos {
                if sub.can_add(inst, lc_new) {
                    inst.insert(lc_new);
                }
            }
            combos
        } else {
            Vec::new()
        };
        let shard = build_shard(k, sub, feedback, carried, self.sampler, &self.sharding);
        self.install(k, shard);
    }

    /// Builds split part `k` of a retirement from the dissolved shard,
    /// whose member list still contains `retired`. Feedback is restricted
    /// to the part, and sampled parts carry over the old samples
    /// restricted and deterministically re-maximized — retirement can
    /// unblock candidates that conflicted only with the departed one.
    fn build_part(&mut self, k: usize, dissolved: Dissolved<'_>, retired: CandidateId) {
        let (old_members, old_feedback, old_store) = dissolved;
        let sub = self.sub_index(k);
        let m = sub.candidate_count();
        // OLD-local id, within the dissolved shard, of each part member
        // (NEW global id → OLD global id undoes the retirement compaction)
        let old_local: Vec<CandidateId> = self
            .components
            .members(k)
            .iter()
            .map(|&g| {
                let g = if g >= retired { CandidateId(g.0 + 1) } else { g };
                CandidateId::from_index(old_members.binary_search(&g).expect("member of old shard"))
            })
            .collect();
        let mut feedback = Feedback::new(m);
        for (j, &ol) in old_local.iter().enumerate() {
            let lc = CandidateId::from_index(j);
            if old_feedback.approved().contains(ol) {
                feedback.approve(lc);
            } else if old_feedback.disapproved().contains(ol) {
                feedback.disapprove(lc);
            }
        }
        let carried = if self.sharding.samples(m) {
            old_store
                .samples()
                .iter()
                .map(|s| {
                    let mut inst = BitSet::new(m);
                    for (j, &ol) in old_local.iter().enumerate() {
                        if s.contains(ol) {
                            inst.insert(CandidateId::from_index(j));
                        }
                    }
                    complete_greedily(&sub, &feedback, &mut inst);
                    inst
                })
                .collect()
        } else {
            Vec::new()
        };
        let shard = build_shard(k, sub, feedback, carried, self.sampler, &self.sharding);
        self.install(k, shard);
    }
}

/// One shard's Eq. 2 probabilities in *local* id order: the fraction of
/// stored instances containing each member (uniform weights; exact Eq. 1
/// once the store is exhausted). An empty store (no instance) reports the
/// approved members as certain and everything else as 0.
pub(crate) fn snapshot_probabilities(snap: &ShardSnapshot) -> Vec<f64> {
    let matrix = snap.store.matrix();
    let total = matrix.sample_count();
    (0..snap.index.candidate_count())
        .map(|j| {
            let lc = CandidateId::from_index(j);
            if total == 0 {
                if snap.feedback.approved().contains(lc) {
                    1.0
                } else {
                    0.0
                }
            } else {
                matrix.membership_count(lc) as f64 / total as f64
            }
        })
        .collect()
}

/// Builds one shard under `feedback`: exact enumeration for components at
/// or below the exact threshold, the Algorithm 3 sampler seeded with any
/// `carried`-over instances otherwise; shard `k` is seeded `seed + k`
/// either way.
fn build_shard(
    k: usize,
    sub: Arc<ConflictIndex>,
    feedback: Feedback,
    carried: Vec<BitSet>,
    sampler: SamplerConfig,
    sharding: &ShardingConfig,
) -> ShardSnapshot {
    let m = sub.candidate_count();
    let config = SamplerConfig { seed: sampler.seed.wrapping_add(k as u64), ..sampler };
    let exact_attempt = if sharding.samples(m) {
        None
    } else {
        exact::enumerate_with_index(&sub, &feedback, sharding.exact_cap)
    };
    let store = match exact_attempt {
        Some(instances) => SampleStore::from_instances(m, instances, config),
        None => SampleStore::with_carried(&sub, &feedback, config, carried),
    };
    ShardSnapshot { index: sub, feedback, store }
}

/// Extends `inst` to a maximal consistent instance by scanning candidates
/// in ascending id order — the deterministic (RNG-free) re-maximization
/// used on carried-over samples after a retirement.
fn complete_greedily(index: &ConflictIndex, feedback: &Feedback, inst: &mut BitSet) {
    for j in 0..index.candidate_count() {
        let c = CandidateId::from_index(j);
        if !inst.contains(c) && !feedback.disapproved().contains(c) && index.can_add(inst, c) {
            inst.insert(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{fig1_network, perturbed_network};
    use std::collections::BTreeSet;

    fn sampler() -> SamplerConfig {
        SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed: 5, chains: 1 }
    }

    fn all_probs(host: &ShardHost) -> Vec<f64> {
        let mut probs = vec![0.0; host.network().candidate_count()];
        for k in host.owned_components() {
            for (&g, p) in
                host.components().members(k).iter().zip(host.shard_probabilities(k).unwrap())
            {
                probs[g.index()] = p;
            }
        }
        probs
    }

    #[test]
    fn fig1_is_a_single_exact_shard() {
        let host = ShardHost::owning_all(fig1_network(), sampler(), ShardingConfig::default());
        assert_eq!(host.component_count(), 1, "fig1's conflict graph is connected");
        let shard = host.snapshot(0).unwrap();
        assert!(shard.store.is_exhausted(), "5 candidates ≤ exact threshold");
        assert_eq!(shard.store.len(), 4, "all four maximal instances");
        for p in all_probs(&host) {
            assert!((p - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn exact_threshold_zero_samples_every_shard() {
        let cfg = ShardingConfig { exact_threshold: 0, ..Default::default() };
        let host = ShardHost::owning_all(fig1_network(), sampler(), cfg);
        // the sampler still exhausts the tiny space, by refill detection
        let shard = host.snapshot(0).unwrap();
        assert!(shard.store.is_exhausted());
        assert_eq!(shard.store.len(), 4);
    }

    #[test]
    fn whole_partition_is_one_shard_on_the_networks_own_index() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 9);
        let n = net.candidate_count();
        let host = ShardHost::owning_all(net, sampler(), ShardingConfig::disabled());
        assert_eq!(host.component_count(), 1);
        assert!(host.components().is_whole());
        assert!(
            Arc::ptr_eq(&host.snapshot(0).unwrap().index, host.network().shared_index()),
            "the whole shard must not copy the conflict index"
        );
        // identity renumbering, seed + 0: the classic single store
        let store = SampleStore::with_index(host.network().index(), &Feedback::new(n), sampler());
        assert_eq!(host.snapshot(0).unwrap().store.samples(), store.samples());
    }

    #[test]
    fn parallel_and_sequential_builds_agree() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 9);
        let build = || ShardHost::owning_all(net.clone(), sampler(), ShardingConfig::default());
        let (par, seq) = (build(), pool::sequential(build));
        assert_eq!(par.component_count(), seq.component_count());
        assert_eq!(all_probs(&par), all_probs(&seq), "shard fills must not depend on scheduling");
        for ((_, a), (_, b)) in par.owned().zip(seq.owned()) {
            assert_eq!(a.store.samples(), b.store.samples());
        }
    }

    #[test]
    fn batched_entropy_after_equals_one_call_per_query() {
        let (net, _) = crate::testutil::webform_federation(4, 11);
        let cfg = ShardingConfig { exact_threshold: 0, ..Default::default() };
        let host = ShardHost::owning_all(net, sampler(), cfg);
        // both verdicts of one uncertain candidate in each of ≥ 3 shards
        let mut queries = Vec::new();
        for k in host.owned_components() {
            let probs = host.shard_probabilities(k).unwrap();
            if let Some(i) = probs.iter().position(|&p| p > 0.0 && p < 1.0) {
                let c = host.components().members(k)[i];
                queries.extend([(c, true), (c, false)]);
            }
        }
        let shards: BTreeSet<usize> = queries.iter().map(|&(c, _)| host.component_of(c)).collect();
        assert!(shards.len() >= 3, "batch spans only {} shards", shards.len());
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        let one_by_one: Vec<f64> =
            queries.iter().map(|q| host.entropy_after(&[*q]).unwrap()[0]).collect();
        for threads in [1, 2] {
            let batched = host.entropy_after_on(&pool::WorkerPool::new(threads), &queries);
            assert_eq!(bits(batched.unwrap()), bits(one_by_one.clone()), "{threads} pool threads");
        }
    }

    #[test]
    fn chunked_gain_scan_equals_the_unchunked_kernel() {
        // one component large enough that the scan splits its pool
        let (net, _) = perturbed_network(4, 40, 0.6, 0.9, 3);
        let host = ShardHost::owning_all(net, sampler(), ShardingConfig::disabled());
        let shard = host.snapshot(0).unwrap();
        let probs = snapshot_probabilities(shard);
        let pool: Vec<CandidateId> = (0..probs.len())
            .filter(|&i| probs[i] > 0.0 && probs[i] < 1.0)
            .map(CandidateId::from_index)
            .collect();
        assert!(pool.len() * probs.len() > 1 << 16, "scan too small to be chunked");
        let locals: Vec<usize> = pool.iter().map(|c| c.index()).collect();
        let reference = gains_within(shard.store.matrix(), &locals);
        for threads in [1, 2] {
            let gains = host.gains_on(&pool::WorkerPool::new(threads), &pool).unwrap();
            let bits = |v: &[f64]| v.iter().map(|g| g.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&gains), bits(&reference), "{threads} pool threads");
        }
    }

    #[test]
    fn commit_lane_matches_sequential_assertions() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let host = ShardHost::owning_all(net, sampler(), ShardingConfig::default());
        let k = host.component_of(CandidateId::from_index(0));
        let events: Vec<Assertion> = host
            .components()
            .members(k)
            .iter()
            .take(3)
            .enumerate()
            .map(|(i, &c)| Assertion { candidate: c, approved: i % 2 == 0 })
            .collect();
        // reference: the same ladder, one `assert_unchecked` at a time
        let mut seq = host.clone();
        for e in &events {
            let lc = CandidateId::from_index(seq.components().local_index(e.candidate));
            let decision = {
                let shard = seq.snapshot(k).unwrap();
                let step = |approved: bool| -> Option<bool> {
                    if shard.feedback.is_asserted(lc) {
                        let prev = shard.feedback.approved().contains(lc);
                        if prev == approved {
                            Some(false)
                        } else {
                            None
                        }
                    } else if approved && !shard.index.can_add(shard.feedback.approved(), lc) {
                        None
                    } else {
                        Some(true)
                    }
                };
                match step(e.approved) {
                    Some(m) => Some((e.approved, m)),
                    None => step(false).map(|m| (false, m)),
                }
            };
            if let Some((approved, true)) = decision {
                seq.assert_unchecked(e.candidate, approved).unwrap();
            }
        }
        // lane: one batch
        let mut lane = host.clone();
        let (snap, results) = lane.commit_lane(k, &events);
        if let Some(s) = snap {
            lane.install(k, s);
        }
        assert_eq!(results.len(), events.len());
        assert_eq!(
            all_probs(&lane),
            all_probs(&seq),
            "lane commit diverged from sequential asserts"
        );
        assert_eq!(
            lane.snapshot(k).unwrap().store.samples(),
            seq.snapshot(k).unwrap().store.samples()
        );
    }

    #[test]
    fn redundant_lane_never_clones_the_shard() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let mut host = ShardHost::owning_all(net, sampler(), ShardingConfig::default());
        let target = CandidateId::from_index(0);
        let k = host.assert_unchecked(target, false).unwrap();
        let before = Arc::as_ptr(host.shards[k].as_ref().unwrap());
        // a lane of same-way re-assertions and contradiction-skips must not
        // copy-on-write the shard at all
        let events = vec![
            Assertion { candidate: target, approved: false }, // same-way no-op
            Assertion { candidate: target, approved: true },  // contradiction → fallback no-op
        ];
        let (snap, results) = host.commit_lane(k, &events);
        assert!(snap.is_none(), "redundant lane allocated a working snapshot");
        assert_eq!(results[0], (false, StepOutcome::Integrated, false));
        assert_eq!(results[1], (false, StepOutcome::Flipped, false));
        assert_eq!(
            Arc::as_ptr(host.shards[k].as_ref().unwrap()),
            before,
            "shard pointer must be untouched"
        );
    }

    #[test]
    fn assertion_touches_only_the_owning_shard() {
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let mut host = ShardHost::owning_all(net, sampler(), ShardingConfig::default());
        if host.component_count() < 2 {
            return; // degenerate draw: nothing cross-shard to observe
        }
        let before: Vec<Vec<BitSet>> =
            host.owned().map(|(_, s)| s.store.samples().to_vec()).collect();
        let target = CandidateId::from_index(0);
        let k = host.assert_unchecked(target, false).unwrap();
        for (i, shard) in host.owned() {
            if i != k {
                assert_eq!(shard.store.samples(), &before[i][..], "foreign shard touched");
            }
        }
        assert_eq!(all_probs(&host)[0], 0.0);
    }

    #[test]
    fn unknown_candidates_are_refused_not_panicked() {
        let mut host = ShardHost::owning_all(fig1_network(), sampler(), ShardingConfig::default());
        let unknown = CandidateId(99);
        assert_eq!(host.assert_unchecked(unknown, true), None);
        assert_eq!(host.entropy_after(&[(CandidateId(0), true), (unknown, true)]), None);
        assert_eq!(host.gains(&[CandidateId(0), unknown]), None);
    }
}

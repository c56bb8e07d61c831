//! The probabilistic matching network `⟨N, P⟩` (§III).
//!
//! [`ProbabilisticNetwork`] is the single mutable state of reconciliation:
//! it owns the network, the accumulated feedback, the view-maintained
//! sample representation and the derived probabilities. Every user
//! assertion flows through [`ProbabilisticNetwork::assert_candidate`],
//! which updates all of them consistently — the probabilistic model "acts
//! as a black-box … it contains all the information given by matchers and
//! user assertions".
//!
//! The sample representation is a [`ShardHost`] that owns every component
//! of a partition of the candidates (see [`crate::shard`]): the conflict
//! components ([`ProbabilisticNetwork::new_sharded`]), or the whole
//! network as one component ([`ProbabilisticNetwork::new`], the classic
//! single-store Algorithm 3 setup). Because the distribution factorizes
//! exactly over components, both partitions agree on probabilities,
//! entropy and information gain (bit-for-bit on exhausted stores), while
//! the finer one prices assertions and gain scans per shard instead of
//! per network.

use crate::entropy::binary_entropy;
use crate::feedback::{Assertion, Feedback};
use crate::gains::{GainCache, GainSource};
use crate::ledger::Ledger;
use crate::network::MatchingNetwork;
use crate::persist::NetworkEvent;
use crate::pool;
use crate::reconcile::StepOutcome;
use crate::sampling::{row_and_count, SampleMatrix, SamplerConfig};
use crate::shard::{Dissolved, ShardHost, ShardSnapshot, ShardingConfig};
use smn_constraints::components::ComponentEvolution;
use smn_constraints::BitSet;
use smn_schema::{AttributeId, CandidateId, SchemaError};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why [`ProbabilisticNetwork::assert_candidate`] (and with it
/// [`Session::answer`](crate::Session::answer)) rejected an assertion.
/// Rejections never mutate the model; re-asserting a candidate the *same*
/// way is a successful no-op, not an error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssertError {
    /// Approving the candidate contradicts earlier approvals under the
    /// integrity constraints — no matching instance can contain all of
    /// them, so the probabilistic model would become empty.
    InconsistentApproval(CandidateId),
    /// The candidate was already asserted the other way. The paper assumes
    /// "user assertions are always right", so flips are refused rather
    /// than integrated.
    Contradictory {
        /// The re-asserted candidate.
        candidate: CandidateId,
        /// The standing verdict (`true` = it is approved, and the rejected
        /// assertion tried to disapprove it).
        previously_approved: bool,
    },
    /// The id names no candidate of the network.
    UnknownCandidate(CandidateId),
}

impl fmt::Display for AssertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssertError::InconsistentApproval(c) => {
                write!(f, "approving {c} contradicts earlier approvals under the constraints")
            }
            AssertError::Contradictory { candidate, previously_approved } => {
                let standing = if *previously_approved { "approved" } else { "disapproved" };
                write!(f, "{candidate} is already {standing}; assertions cannot be flipped")
            }
            AssertError::UnknownCandidate(c) => write!(f, "{c} is not a candidate of the network"),
        }
    }
}

impl std::error::Error for AssertError {}

/// What [`ProbabilisticNetwork::commit_batch`] did with one requested
/// assertion, in request order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommitOutcome {
    /// The candidate the request named.
    pub candidate: CandidateId,
    /// The verdict actually standing after the commit: the requested one
    /// for [`StepOutcome::Integrated`], `false` for
    /// [`StepOutcome::Flipped`], the (rejected) requested one for
    /// [`StepOutcome::Skipped`].
    pub approved: bool,
    /// Integrated as requested, flipped to a disapproval, or skipped.
    pub outcome: StepOutcome,
    /// The shard that owns the candidate (0 under the whole partition).
    pub shard: usize,
    /// Whether the model actually changed: `false` for skips *and* for
    /// same-way re-assertions that resolved as no-op integrations.
    pub mutated: bool,
}

/// The probabilistic matching network: network + feedback + samples + `P`.
#[derive(Debug, Clone)]
pub struct ProbabilisticNetwork {
    /// The network, its partition and every component's shard.
    host: ShardHost,
    /// Feedback, `P`, entropy baseline and gain-cache stamps.
    ledger: Ledger,
}

impl ProbabilisticNetwork {
    /// Builds the probabilistic network with a single store over the whole
    /// network ([`ShardingConfig::disabled`]): samples matching instances
    /// and derives initial probabilities.
    pub fn new(network: MatchingNetwork, config: SamplerConfig) -> Self {
        Self::new_sharded(network, config, ShardingConfig::disabled())
    }

    /// Builds the probabilistic network over the partition `sharding`
    /// selects: one shard per conflict component, or the whole network as
    /// one shard when `sharding.enabled` is false. Shard `k` is seeded
    /// `config.seed + k`; components at or below
    /// [`ShardingConfig::exact_threshold`] candidates get exact, exhausted
    /// posteriors.
    pub fn new_sharded(
        network: MatchingNetwork,
        config: SamplerConfig,
        sharding: ShardingConfig,
    ) -> Self {
        let feedback = Feedback::new(network.candidate_count());
        Self::finish(ShardHost::owning_all(network, config, sharding), feedback, None)
    }

    /// Derives the probabilities from a host owning every shard; the
    /// entropy baseline is the given one, or the current entropy.
    fn finish(host: ShardHost, feedback: Feedback, initial_entropy: Option<f64>) -> Self {
        let ledger = Ledger::new(feedback, host.component_count());
        let mut pn = Self { host, ledger };
        for k in 0..pn.host.component_count() {
            pn.scatter(k);
        }
        pn.ledger.set_baseline(initial_entropy);
        pn
    }

    /// Writes owned shard `k`'s probabilities into `P`.
    fn scatter(&mut self, k: usize) {
        let local = self.host.shard_probabilities(k).expect("in-process host owns every component");
        self.ledger.scatter(&self.host, k, &local).expect("a shard matches its component");
    }

    /// The shard host behind the model (owns every component).
    pub(crate) fn host(&self) -> &ShardHost {
        &self.host
    }

    /// The underlying network `N`.
    pub fn network(&self) -> &MatchingNetwork {
        self.host.network()
    }

    /// Extracts the full serializable image of this network — see
    /// [`crate::persist`]. Besides the primary data (catalog, graph,
    /// candidates, feedback, sample state) the image carries copies of
    /// derived data: the conflict index's posting lists and triple table,
    /// the component member lists and each shard's local feedback.
    /// [`from_state`](Self::from_state) derives all of these again and
    /// refuses an image whose copies disagree.
    pub fn to_state(&self) -> crate::persist::NetworkState {
        let host = &self.host;
        let mut state = network_to_structure(host.network(), host.sampler, host.sharding);
        state.feedback = crate::persist::FeedbackState::of(self.ledger.feedback());
        state.initial_entropy = self.ledger.initial_entropy();
        let count = host.component_count();
        state.members = (0..count)
            .map(|k| host.components().members(k).iter().map(|c| c.0).collect())
            .collect();
        state.shards = (0..count)
            .map(|k| host.export_shard(k).expect("in-process host owns every component"))
            .collect();
        state
    }

    /// Rebuilds a network from [`to_state`](Self::to_state) output without
    /// re-sampling. The structure comes from the one loader every load
    /// shares, [`ShardHost::from_structure`]: catalog, graph and candidates
    /// are re-added in id order, the conflict index is built by
    /// [`MatchingNetwork::new`] and the partition derived from it. Each
    /// stored copy of derived data must then equal its derivation: the
    /// index (checked by the loader), the component member lists and every
    /// shard's local feedback, which must be the global feedback localized
    /// to its component. The global approvals must be consistent. Only then
    /// are the stored samples re-recorded, and the probabilities
    /// *recomputed* through the same kernels the live path uses, making
    /// them bit-identical to the saved run.
    ///
    /// Every disagreement or inconsistency in the input is a typed error;
    /// this never panics on untrusted (length/id-validated) state.
    pub fn from_state(state: &crate::persist::NetworkState) -> Result<Self, String> {
        let mut host = ShardHost::from_structure(state, &[])?;
        let components = host.components();
        let count = components.count();
        let derived = |k: usize| components.members(k).iter().map(|c| c.0);
        if state.members.len() != count
            || (0..count).any(|k| !state.members[k].iter().copied().eq(derived(k)))
        {
            return Err("the stored partition disagrees with the derived one".into());
        }
        if state.shards.len() != count {
            return Err(format!("{} shard states for {count} components", state.shards.len()));
        }
        let feedback = state.feedback.build(host.network().candidate_count())?;
        if !host.network().index().is_consistent(feedback.approved()) {
            return Err("the approved candidates conflict".into());
        }
        for (k, shard) in state.shards.iter().enumerate() {
            let members = components.members(k);
            // whether `stored` lists the local ids of `global`'s members
            let localized = |global: &BitSet, stored: &[u32]| {
                let ids = members.iter().enumerate().filter(|&(_, &c)| global.contains(c));
                ids.map(|(j, _)| j as u32).eq(stored.iter().copied())
            };
            let stored = &shard.feedback;
            if stored.len != members.len()
                || !localized(feedback.approved(), &stored.approved)
                || !localized(feedback.disapproved(), &stored.disapproved)
            {
                return Err(format!("shard {k}'s feedback disagrees with the global feedback"));
            }
        }
        for (k, shard) in state.shards.iter().enumerate() {
            host.import_shard(k, shard)?;
        }
        Ok(Self::finish(host, feedback, Some(state.initial_entropy)))
    }

    /// The mutation generation: bumped exactly when the model actually
    /// changed (an integrated or flipped assertion, an extend, a retire) —
    /// never by no-op re-assertions or rejected events. The serving
    /// layer's snapshot publisher compares this against the generation it
    /// last published to skip redundant `fork` + `Arc` swaps.
    pub fn generation(&self) -> u64 {
        self.ledger.generation()
    }

    /// The accumulated feedback `F`.
    pub fn feedback(&self) -> &Feedback {
        self.ledger.feedback()
    }

    /// The distinct sampled matching instances Ω\* when the partition has
    /// a single component (the whole partition, or a connected conflict
    /// graph) — its local ids are then the global ids. A network factorized
    /// into several components never materializes global samples — that
    /// is the point of factorizing — so it returns an empty slice; use
    /// [`distinct_sample_count`](ProbabilisticNetwork::distinct_sample_count)
    /// for coverage diagnostics that work for every partition.
    pub fn samples(&self) -> &[BitSet] {
        match self.host.snapshot(0) {
            Some(shard) if self.host.component_count() == 1 => shard.store.samples(),
            _ => &[],
        }
    }

    /// Distinct stored instances: the sum of per-shard counts (whose
    /// factorized coverage is the *product* of those counts) — `|Ω*|` for
    /// the whole partition.
    pub fn distinct_sample_count(&self) -> usize {
        self.host.owned().map(|(_, s)| s.store.len()).sum()
    }

    /// Number of independent sample stores: the component count of the
    /// partition (1 for the whole partition).
    pub fn shard_count(&self) -> usize {
        self.host.component_count()
    }

    /// Whether the partition follows the conflict components (`false` for
    /// the whole partition of [`new`](Self::new)).
    pub fn is_sharded(&self) -> bool {
        self.host.sharding.enabled
    }

    /// Whether Ω\* provably equals Ω (probabilities are exact): whether
    /// *every* shard is exhausted.
    pub fn is_exhausted(&self) -> bool {
        self.host.owned().all(|(_, s)| s.store.is_exhausted())
    }

    /// The probability vector `P`, indexed by candidate id.
    pub fn probabilities(&self) -> &[f64] {
        self.ledger.probabilities()
    }

    /// Probability of one candidate (Eq. 2).
    pub fn probability(&self, c: CandidateId) -> f64 {
        self.ledger.probability(c)
    }

    /// Network uncertainty `H(C, P)` in bits (Eq. 3) — the sum of the
    /// per-shard entropies, since entropy is additive over independent
    /// components.
    pub fn entropy(&self) -> f64 {
        self.ledger.entropy()
    }

    /// Uncertainty normalized by the initial (pre-feedback) uncertainty;
    /// in `[0, 1]` for monotone reconciliation, 0 when fully reconciled.
    pub fn normalized_entropy(&self) -> f64 {
        self.ledger.normalized_entropy()
    }

    /// The uncertain candidates `{c | 0 < p_c < 1}` — the selection pool of
    /// Algorithm 1.
    pub fn uncertain_candidates(&self) -> Vec<CandidateId> {
        self.ledger.uncertain_candidates()
    }

    /// User-effort fraction `E = |F| / |C|`.
    pub fn effort(&self) -> f64 {
        self.ledger.effort()
    }

    /// Forks the network into an independent copy-on-write branch.
    ///
    /// The fork shares every immutable snapshot with `self` by pointer:
    /// the underlying [`MatchingNetwork`] (catalog, candidates, conflict
    /// index), the component partition and every shard snapshot (its
    /// sub-index and sample matrix). Cost is `O(#shards)` pointer copies
    /// plus the `O(|C|)` probability vector and feedback bitsets —
    /// **no sample matrix or conflict index is copied** until one side
    /// writes, and a write copies exactly the one shard it touches
    /// (`Arc::make_mut`). `Clone` has the same semantics; `fork` is the
    /// intent-revealing name that serving's published snapshots and
    /// [`what_if`](Self::what_if) use.
    pub fn fork(&self) -> Self {
        self.clone()
    }

    /// Exact what-if analysis: the network uncertainty `H(C, P)` (bits)
    /// that integrating the assertion `(c, approved)` would produce,
    /// without touching `self`.
    ///
    /// Unlike the sampled Eq. 4 branch split behind
    /// [`information_gain`](Self::information_gain) — which estimates the
    /// *expected* post-assertion entropy from the current store — this
    /// runs the real integration (view maintenance, disapproval
    /// re-insertion, refill) on a throwaway [`fork`](Self::fork) and reads the entropy off it, so
    /// it is exactly the value [`assert_candidate`](Self::assert_candidate)
    /// would leave behind. The copy-on-write snapshot layer prices that at
    /// one shard copy per call.
    ///
    /// An assertion the model would reject (a contradiction of standing
    /// feedback, or an approval that conflicts with earlier approvals)
    /// leaves a real model unchanged, so its what-if uncertainty is the
    /// current entropy.
    pub fn what_if(&self, candidate: CandidateId, approved: bool) -> f64 {
        let mut branch = self.fork();
        match branch.assert_candidate(Assertion { candidate, approved }) {
            Ok(()) => branch.entropy(),
            Err(_) => self.entropy(),
        }
    }

    /// Batched what-if analysis: the post-assertion uncertainties of many
    /// hypothetical assertions at once, aligned with `queries` — each
    /// value equals the corresponding [`what_if`](Self::what_if) call (to
    /// floating-point association, within `1e-12` on realistic sizes).
    /// Unlike `what_if`, which forks the network and takes an `O(|C|)`
    /// entropy pass per query, a query re-evaluates only its own shard;
    /// [`Ledger::what_if_batch`] composes the result, and prices queries
    /// that would not mutate (rejections, same-way re-assertions, unknown
    /// ids) at the current entropy, exactly as in `what_if`.
    pub fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        self.ledger.what_if_batch(&self.host, queries, |live| {
            self.host.entropy_after(live).expect("in-process host owns every component")
        })
    }

    /// Which shard owns `c`: its component id (`0` under the whole
    /// partition). The service-layer dispatcher uses this to spread
    /// concurrent questions across distinct shards.
    pub fn shard_of(&self, c: CandidateId) -> usize {
        self.host.component_of(c)
    }

    /// The candidates shard `k` owns, ascending id — every candidate under
    /// the whole partition. The serving layer uses this to overlay exactly
    /// the shards a session echoed answers into.
    pub fn shard_members(&self, k: usize) -> Vec<CandidateId> {
        self.host.components().members(k).to_vec()
    }

    /// Integrates a user assertion: checks it against the standing
    /// feedback and the approval constraints, then updates the feedback,
    /// view-maintains the owning shard's samples and recomputes that
    /// shard's slice of `P`.
    ///
    /// Re-asserting a candidate the *same* way is a successful no-op (no
    /// maintenance, no recompute). Asserting it the *other* way, or
    /// approving a candidate that conflicts with earlier approvals,
    /// returns an [`AssertError`] and leaves the model untouched, as does
    /// an unknown candidate id — this method never panics on any input.
    pub fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        if !self.validate_assertion(assertion)? {
            return Ok(()); // same-way re-assertion: successful no-op
        }
        let Assertion { candidate, approved } = assertion;
        let k = self.host.assert_unchecked(candidate, approved).expect("owned shard");
        self.scatter(k);
        self.ledger.record(k, assertion);
        Ok(())
    }

    /// Checks an assertion against the standing feedback and the approval
    /// constraints *without touching the model*: `Ok(true)` means
    /// integrating it would mutate, `Ok(false)` means it is a same-way
    /// re-assertion (a successful no-op), and `Err` is exactly the error
    /// [`assert_candidate`](Self::assert_candidate) would return. Commit
    /// paths call this before allocating a fork or cloning a shard, so a
    /// redundant or rejected event never pays a copy-on-write. The rules
    /// are [`Ledger::validate`]'s.
    pub fn validate_assertion(&self, assertion: Assertion) -> Result<bool, AssertError> {
        self.ledger.validate(&self.host, assertion)
    }

    /// Commits a batch of decided assertions through per-shard lanes and
    /// returns one [`CommitOutcome`] per request, in request order.
    ///
    /// Each request walks the [`commit_ladder`](crate::reconcile::commit_ladder).
    /// Requests of the same shard apply in request order against that
    /// shard's single working copy (at most one copy-on-write per touched
    /// shard per batch, none for all-redundant lanes); disjoint shards are
    /// independent, so the lanes run as one worker-pool batch
    /// ([`WorkerPool::map`](pool::WorkerPool::map)), and the result is
    /// byte-identical to a run under [`pool::sequential`]
    /// because lanes are installed (and the mutation
    /// [`generation`](Self::generation) advanced) in ascending shard order
    /// either way.
    pub fn commit_batch(&mut self, requests: &[Assertion]) -> Vec<CommitOutcome> {
        if requests.is_empty() {
            return Vec::new();
        }
        // bucket request positions by owning shard; BTreeMap fixes the
        // lane install order (ascending shard id) independent of scheduling
        let mut by_shard: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, req) in requests.iter().enumerate() {
            by_shard.entry(self.shard_of(req.candidate)).or_default().push(pos);
        }
        let lanes: Vec<(usize, Vec<Assertion>)> = by_shard
            .iter()
            .map(|(&k, positions)| (k, positions.iter().map(|&p| requests[p]).collect()))
            .collect();
        let host = &self.host;
        let lane_results = pool::global()
            .map(&lanes, |(k, events): &(usize, Vec<Assertion>)| host.commit_lane(*k, events));
        // install lanes in ascending shard order and scatter outcomes back
        let mut out: Vec<Option<CommitOutcome>> = vec![None; requests.len()];
        for (((k, _), positions), (snapshot, results)) in
            lanes.iter().zip(by_shard.values()).zip(lane_results)
        {
            if let Some(snap) = snapshot {
                self.host.install(*k, snap);
                self.scatter(*k);
            }
            for (&pos, &(approved, outcome, mutated)) in positions.iter().zip(&results) {
                let candidate = requests[pos].candidate;
                if mutated {
                    // mirror the lane-local assertion into the ledger so
                    // effort / is_asserted stay coherent
                    self.ledger.record(*k, Assertion { candidate, approved });
                }
                out[pos] = Some(CommitOutcome { candidate, approved, outcome, shard: *k, mutated });
            }
        }
        out.into_iter().map(|o| o.expect("every request routed to a lane")).collect()
    }

    /// Admits a new candidate correspondence online and returns its id
    /// (the next dense id).
    ///
    /// The network is patched incrementally:
    /// [`MatchingNetwork::extend`] grows the conflict index from the
    /// arrival's neighbourhood, and only the components the arrival
    /// couples merge — carrying over still-consistent samples and
    /// refilling (or exactly re-enumerating) just the merged shard, while
    /// every other shard and probability is untouched. Under the whole
    /// partition the single shard is that merged shard.
    ///
    /// Errors (duplicate pair, non-edge, bad confidence, …) leave the
    /// model untouched.
    pub fn extend(
        &mut self,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<CandidateId, SchemaError> {
        let (id, evo, absorbed) = self.host.apply_extend(x, y, confidence)?;
        self.ledger.grow();
        self.rebuild(&NetworkEvent::Extend { a: x, b: y, confidence }, &evo, &absorbed);
        Ok(id)
    }

    /// Retires candidate `c` online: it leaves the candidate set (every
    /// later id shifts down by one), any assertion on it is discarded, and
    /// the model re-derives the posterior over the survivors.
    ///
    /// As with [`extend`](Self::extend) the patch is incremental: only the
    /// retired candidate's conflict component is re-extracted — split into
    /// its surviving sub-components, their samples carried over and
    /// re-maximized — while every other shard survives verbatim. An
    /// unknown id is a typed error that leaves the model untouched.
    pub fn retire(&mut self, c: CandidateId) -> Result<(), SchemaError> {
        let (evo, dissolved) = self.host.apply_retire(c)?;
        self.ledger.retire(c);
        self.rebuild(&NetworkEvent::Retire { candidate: c }, &evo, &dissolved);
        Ok(())
    }

    /// Rebuilds every component the just-applied evolution `event`
    /// rebuilt from the `dissolved` snapshots, scatters them and closes
    /// the step in the ledger.
    fn rebuild(
        &mut self,
        event: &NetworkEvent,
        evo: &ComponentEvolution,
        dissolved: &[Option<Arc<ShardSnapshot>>],
    ) {
        let sources: Vec<Dissolved<'_>> = evo
            .dissolved
            .iter()
            .zip(dissolved)
            .map(|((_, members), shard)| {
                let shard = shard.as_deref().expect("the in-process host owns every shard");
                (members.as_slice(), &shard.feedback, &shard.store)
            })
            .collect();
        self.host
            .rebuild(event, evo, &evo.rebuilt, &sources)
            .expect("in-process sources are the dissolved shards");
        for &k in &evo.rebuilt {
            self.scatter(k);
        }
        self.ledger.evolved(&self.host);
    }

    /// Information gain `IG(c) = H(C, P) − H(C | c, P)` (Eq. 5), clamped to
    /// zero against floating-point noise.
    ///
    /// The `gains_within` kernel runs on the owning shard only —
    /// candidates outside `c`'s component are independent of it, so their
    /// co-occurrence terms contribute zero gain. When the shared gain
    /// cache already holds `c`'s shard at the current epoch the value is
    /// served from it — bit-identical by construction (the cache is
    /// filled through the same kernel) — and a cold cache is left cold:
    /// this point query never triggers a batch refresh.
    pub fn information_gain(&self, c: CandidateId) -> f64 {
        if let Some(gain) = self.warm_cached_gain(c) {
            return gain;
        }
        self.information_gains(&[c])[0]
    }

    /// Batch information gain for a pool of candidates; gains are aligned
    /// with `pool`.
    ///
    /// Every candidate is evaluated against its own component through the
    /// word-parallel `gains_within` kernel: co-occurrence masses are
    /// AND+popcounts of candidate rows and branch entropies come from
    /// per-denominator lookup tables. A shard costs
    /// `O(|pool_k|·n_k·S/64)` word operations, the scan the sum over the
    /// touched shards; large scans split across the worker pool (see
    /// [`ShardHost::gains`]).
    pub fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.host.gains(pool).expect("in-process host owns every component")
    }

    /// The greedy initialization of Algorithm 2: the best stored sample by
    /// size (minimal repair distance), tie-broken by log-likelihood when
    /// `use_likelihood`. Both criteria decompose over independent
    /// components, so the per-shard argmaxes compose into the global
    /// argmax without ever materializing global samples. `None` when no
    /// sample exists (empty network).
    pub fn greedy_seed(&self, use_likelihood: bool) -> Option<BitSet> {
        if self.host.component_count() == 0 {
            return None;
        }
        let mut global = BitSet::new(self.network().candidate_count());
        for (k, shard) in self.host.owned() {
            let members = self.host.components().members(k);
            let local_probs: Vec<f64> = members.iter().map(|&g| self.probability(g)).collect();
            // a shard store is never empty (every component admits at
            // least one matching instance); bail defensively so callers
            // fall back to the maximize path
            let (local_best, _) = best_sample(shard.store.samples(), &local_probs, use_likelihood)?;
            for lc in local_best.iter() {
                global.insert(members[lc.index()]);
            }
        }
        Some(global)
    }
}

/// `ln u(I) = Σ_{c∈I} ln p_c` under `probs` (`f64::MIN_POSITIVE` floors
/// zero-probability members so the sum stays finite).
pub(crate) fn log_likelihood_of(probs: &[f64], inst: &BitSet) -> f64 {
    inst.iter().map(|c| probs[c.index()].max(f64::MIN_POSITIVE).ln()).sum()
}

/// Algorithm 2's lexicographic instance ordering: smaller repair distance
/// (= larger instance) first, then larger likelihood when enabled — the
/// single definition shared by the greedy seed (both representations) and
/// the local search of [`crate::instantiate`].
pub(crate) fn better_instance(
    cand: &BitSet,
    cand_ll: f64,
    best: &BitSet,
    best_ll: f64,
    use_likelihood: bool,
) -> bool {
    match cand.count().cmp(&best.count()) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => use_likelihood && cand_ll > best_ll,
    }
}

impl GainSource for ProbabilisticNetwork {
    fn gain_cache(&self) -> &Mutex<GainCache> {
        self.ledger.gain_cache()
    }

    fn gain_structure_epoch(&self) -> u64 {
        self.ledger.structure_epoch()
    }

    fn gain_shard_epochs(&self) -> &[u64] {
        self.ledger.shard_epochs()
    }

    fn gain_shard_of(&self, c: CandidateId) -> usize {
        self.shard_of(c)
    }

    fn gain_shard_uncertain(&self, k: usize) -> Vec<CandidateId> {
        self.ledger.uncertain_members(&self.host, k)
    }

    fn compute_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.information_gains(pool)
    }
}

/// Best stored sample under [`better_instance`], with its log-likelihood
/// over `probs` (which must index the same id space as the samples).
fn best_sample<'a>(
    samples: &'a [BitSet],
    probs: &[f64],
    use_likelihood: bool,
) -> Option<(&'a BitSet, f64)> {
    let mut best: Option<(&BitSet, f64)> = None;
    for s in samples {
        let ll = log_likelihood_of(probs, s);
        match &best {
            None => best = Some((s, ll)),
            Some((b, bll)) => {
                if better_instance(s, ll, b, *bll, use_likelihood) {
                    best = Some((s, ll));
                }
            }
        }
    }
    best
}

/// The structural half of [`ProbabilisticNetwork::to_state`]: schemas,
/// graph, candidates and conflict index of a bare [`MatchingNetwork`],
/// with empty feedback, a zero entropy baseline and no shards. This is the
/// *structure-only* image the distributed mode ships to bootstrap shard
/// servers — they rebuild their owned shards from it rather than
/// receiving sample state (see [`crate::remote`]).
pub(crate) fn network_to_structure(
    network: &MatchingNetwork,
    sampler: SamplerConfig,
    sharding: ShardingConfig,
) -> crate::persist::NetworkState {
    use crate::persist::*;
    let catalog = network.catalog();
    let index = network.index();
    let n = index.candidate_count();
    NetworkState {
        schemas: catalog
            .schemas()
            .iter()
            .map(|s| SchemaState {
                name: s.name.clone(),
                attributes: s
                    .attributes
                    .iter()
                    .map(|&a| catalog.attribute(a).name.clone())
                    .collect(),
            })
            .collect(),
        graph_vertices: network.graph().vertex_count(),
        graph_edges: network.graph().edges().iter().map(|&(a, b)| (a.0, b.0)).collect(),
        candidates: network
            .candidates()
            .candidates()
            .iter()
            .map(|c| {
                let [x, y] = c.corr.endpoints();
                CandidateState { a: x.0, b: y.0, confidence: c.confidence }
            })
            .collect(),
        constraints: index.config(),
        pair_conflicts: (0..n)
            .map(|i| index.pair_conflicts(CandidateId::from_index(i)).iter().map(|c| c.0).collect())
            .collect(),
        triples: index.triples().iter().map(|t| [t[0].0, t[1].0, t[2].0]).collect(),
        feedback: FeedbackState { len: n, approved: Vec::new(), disapproved: Vec::new() },
        sampler,
        sharding,
        initial_entropy: 0.0,
        members: Vec::new(),
        shards: Vec::new(),
    }
}

/// Rebuilds the [`MatchingNetwork`] of a state image: catalog, graph and
/// candidates are re-added in id order (each validated on the way in),
/// and the conflict index is built from them by [`MatchingNetwork::new`].
/// The image's stored posting lists and triple table must equal that
/// index. [`ShardHost::from_structure`], the one loader, calls this.
pub(crate) fn network_from_state(
    state: &crate::persist::NetworkState,
) -> Result<MatchingNetwork, String> {
    use smn_schema::{CandidateSet, CatalogBuilder, InteractionGraph, SchemaId};
    let mut builder = CatalogBuilder::new();
    for s in &state.schemas {
        builder
            .add_schema_with_attributes(s.name.clone(), s.attributes.iter().cloned())
            .map_err(|e| format!("catalog: {e}"))?;
    }
    let catalog = builder.build();
    let schema_count = catalog.schema_count();
    if state.graph_vertices != schema_count {
        return Err(format!(
            "graph sized for {} vertices, catalog has {schema_count} schemas",
            state.graph_vertices
        ));
    }
    if state
        .graph_edges
        .iter()
        .any(|&(a, b)| a as usize >= schema_count || b as usize >= schema_count)
    {
        return Err("graph edge endpoint out of range".into());
    }
    let graph = InteractionGraph::from_edges(
        state.graph_vertices,
        state.graph_edges.iter().map(|&(a, b)| (SchemaId(a), SchemaId(b))),
    );
    let mut candidates = CandidateSet::new(&catalog);
    for c in &state.candidates {
        candidates
            .add(&catalog, Some(&graph), AttributeId(c.a), AttributeId(c.b), c.confidence)
            .map_err(|e| format!("candidate: {e}"))?;
    }
    let network = MatchingNetwork::new(catalog, graph, candidates, state.constraints);
    let index = network.index();
    let pairs_agree = state.pair_conflicts.len() == index.candidate_count()
        && state.pair_conflicts.iter().enumerate().all(|(i, stored)| {
            let built = index.pair_conflicts(CandidateId::from_index(i));
            stored.iter().copied().eq(built.iter().map(|c| c.0))
        });
    if !pairs_agree {
        return Err("the stored pair conflicts disagree with the built index".into());
    }
    if !state.triples.iter().map(|t| t.map(CandidateId)).eq(index.triples().iter().copied()) {
        return Err("the stored cycle triples disagree with the built index".into());
    }
    Ok(network)
}

thread_local! {
    /// Memoized `H(k/w)` tables, indexed by denominator `w`: entry `w`
    /// holds `[H(0/w), …, H(w/w)]`. Each table is a pure function of `w`
    /// alone, so memoizing across gain scans (and across networks) can
    /// never change a value — it only stops every `information_gains`
    /// call from re-deriving the same logarithms. At 400-sample stores
    /// the rebuild was ~1 ms per call, the dominant cost of the scan at
    /// small `|C|`. Thread-local so pool workers warm their own copy
    /// without synchronization; worst-case footprint is O(S²) floats.
    static ENTROPY_TABLES: std::cell::RefCell<Vec<Option<std::rc::Rc<[f64]>>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// The memoized `[H(k/w); k = 0..=w]` table for denominator `w`.
fn entropy_table(w: usize) -> std::rc::Rc<[f64]> {
    ENTROPY_TABLES.with(|cell| {
        let mut tables = cell.borrow_mut();
        if tables.len() <= w {
            tables.resize(w + 1, None);
        }
        tables[w]
            .get_or_insert_with(|| (0..=w).map(|k| binary_entropy(k as f64 / w as f64)).collect())
            .clone()
    })
}

/// The batch information-gain kernel over one sample matrix (Eq. 4/5):
/// for each pool candidate `c`, split the samples on membership of `c`
/// and measure the expected entropy drop across the matrix's *uncertain*
/// rows. `pool` holds row indices; the returned gains align with `pool`.
/// Each row's probability is its Eq. 2 estimate — membership count over
/// sample count, the very division the network's probability vector holds
/// — so a gain is a pure function of the matrix.
///
/// Co-occurrence masses are AND+popcounts of candidate rows, and branch
/// entropies come from per-denominator lookup tables (`O(|pool|·S)`
/// `binary_entropy` evaluations instead of `O(|pool|·n)`) — the
/// difference between seconds and hours for the 50-run
/// uncertainty-reduction experiment (Fig. 9).
///
/// On x86-64 hosts with the `popcnt` instruction the kernel body runs
/// inside a `popcnt`-enabled instantiation (runtime-detected, like the
/// BMI2 column filter): the baseline target otherwise compiles every
/// `count_ones` of the row scan to a software bit-count. Popcounts are
/// integers, so both instantiations return the same bits.
pub(crate) fn gains_within(matrix: &SampleMatrix, pool: &[usize]) -> Vec<f64> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("popcnt") {
        // SAFETY: the popcnt feature was just confirmed at runtime
        return unsafe { gains_within_popcnt(matrix, pool) };
    }
    gains_body(matrix, pool)
}

/// [`gains_body`] compiled with the hardware POPCNT instruction.
///
/// # Safety
/// The caller must have verified `popcnt` is available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
unsafe fn gains_within_popcnt(matrix: &SampleMatrix, pool: &[usize]) -> Vec<f64> {
    gains_body(matrix, pool)
}

/// The one body of [`gains_within`], instantiated once portably and once
/// per target-feature set; its row split inlines into each.
#[inline(always)]
fn gains_body(matrix: &SampleMatrix, pool: &[usize]) -> Vec<f64> {
    let n = matrix.candidate_count();
    let s_total = matrix.sample_count();
    if s_total == 0 || pool.is_empty() {
        return vec![0.0; pool.len()];
    }
    // integer membership masses (weights are uniform)
    let totals: Vec<usize> =
        (0..n).map(|i| matrix.membership_count(CandidateId::from_index(i))).collect();
    // uncertain candidates only: certain rows contribute zero entropy
    // to both branches (plus ∈ {0, w_plus} exactly)
    let uncertain: Vec<usize> = (0..n).filter(|&i| totals[i] > 0 && totals[i] < s_total).collect();
    let prob = |i: usize| totals[i] as f64 / s_total as f64;
    // H over the uncertain rows — certain rows add exactly 0 bits
    let h_total: f64 = uncertain.iter().map(|&i| binary_entropy(prob(i))).sum();
    // Process pool candidates in blocks: the inner pass streams every
    // uncertain row through the cache once per *block* instead of once per
    // candidate, which cuts the scan's memory traffic by the block width.
    //
    // Per (row, candidate) pair the scan does NOT look the branch
    // entropies up — it histograms the split masses instead (`plus` and
    // `t_x − plus` land in two small per-candidate count arrays, L1-hot
    // across the whole block) and contracts each histogram against its
    // entropy table once per candidate afterwards. The entropy of a
    // branch only depends on how *often* each mass occurs, not on which
    // row produced it, so the contraction computes the same sum with
    // O(S) table reads per candidate instead of O(|uncertain|) gathers —
    // the gathers were the bottleneck of the whole scan. Each candidate's
    // value is a pure function of `(matrix, probs, ci)` (counts contract
    // in ascending-mass order), so results are independent of pool order,
    // blocking and scheduling.
    const BLOCK: usize = 8;
    let mut out = vec![0.0; pool.len()];
    // positions into `pool`
    let mut active: Vec<usize> = Vec::with_capacity(BLOCK);
    // histogram arena: per active slot, `t_c + 1` plus-mass counters
    // followed by `s_total − t_c + 1` minus-mass counters
    let mut hist: Vec<u32> = Vec::new();
    let slot_span = s_total + 2;
    for (chunk_idx, chunk) in pool.chunks(BLOCK).enumerate() {
        active.clear();
        for (j, &ci) in chunk.iter().enumerate() {
            let w_plus = totals[ci];
            // certain candidate: one branch is empty, the gain is 0
            if w_plus > 0 && w_plus < s_total {
                active.push(chunk_idx * BLOCK + j);
            }
        }
        if active.is_empty() {
            continue;
        }
        // hoist per-candidate rows, totals and arena offsets out of the
        // row loop — the inner pass must be loads, an AND+popcount and two
        // counter increments only
        let slots: Vec<(&[u64], usize, usize)> = active
            .iter()
            .enumerate()
            .map(|(slot, &pos)| {
                let ci = pool[pos];
                (matrix.row(CandidateId::from_index(ci)), totals[ci], slot * slot_span)
            })
            .collect();
        hist.clear();
        hist.resize(active.len() * slot_span, 0);
        split_block((matrix, &uncertain, &totals, &slots), &mut hist);
        for (slot, &pos) in active.iter().enumerate() {
            let ci = pool[pos];
            let t_c = totals[ci];
            let base = slot * slot_span;
            let t_plus = entropy_table(t_c);
            let t_minus = entropy_table(s_total - t_c);
            let mut h_plus = 0.0f64;
            for (k, &cnt) in hist[base..base + t_c + 1].iter().enumerate() {
                if cnt != 0 {
                    h_plus += cnt as f64 * t_plus[k];
                }
            }
            let mut h_minus = 0.0f64;
            for (k, &cnt) in hist[base + t_c + 1..base + slot_span].iter().enumerate() {
                if cnt != 0 {
                    h_minus += cnt as f64 * t_minus[k];
                }
            }
            let p = prob(ci);
            out[pos] = (h_total - (p * h_plus + (1.0 - p) * h_minus)).max(0.0);
        }
    }
    out
}

/// One block's split pass of [`gains_body`]: `(matrix, uncertain rows,
/// membership totals, active slots)`, each slot `(row_c, t_c, base)`.
type SplitRows<'a> = (&'a SampleMatrix, &'a [usize], &'a [usize], &'a [(&'a [u64], usize, usize)]);

/// [`split_rows`] at the matrix's row length: a direct call per arm, so
/// each instantiation inlines into the calling gain body and inherits its
/// target features.
#[inline(always)]
fn split_block(rows: SplitRows<'_>, hist: &mut [u32]) {
    match rows.0.sample_count().div_ceil(64) {
        1 => split_rows::<1>(rows, hist),
        2 => split_rows::<2>(rows, hist),
        3 => split_rows::<3>(rows, hist),
        4 => split_rows::<4>(rows, hist),
        5 => split_rows::<5>(rows, hist),
        6 => split_rows::<6>(rows, hist),
        7 => split_rows::<7>(rows, hist),
        8 => split_rows::<8>(rows, hist),
        _ => split_rows::<0>(rows, hist),
    }
}

/// Histograms, for every uncertain row `x` and active slot, the
/// plus-branch mass `|x ∧ c|` and the minus-branch mass `t_x − |x ∧ c|`.
///
/// `W > 0` fixes the row length at `W` words, so the AND+popcount unrolls
/// completely, with no loop or chunking overhead per pair. Stores of up
/// to 512 samples, every standard one, take that path; on the `hotpaths`
/// gain benchmark at `|C| = 1417` it cut the scan by about a fifth
/// against the wide kernel (2-core x86-64, hardware popcount). `W = 0`
/// takes rows of any length through the wide kernel. Both count the same
/// integers.
#[inline(always)]
fn split_rows<const W: usize>((matrix, uncertain, totals, slots): SplitRows<'_>, hist: &mut [u32]) {
    for &x in uncertain {
        let row_x = matrix.row(CandidateId::from_index(x));
        let t_x = totals[x];
        for &(row_c, t_c, base) in slots {
            let plus = if W == 0 {
                row_and_count(row_x, row_c)
            } else {
                let a: &[u64; W] = row_x.try_into().expect("row of W words");
                let b: &[u64; W] = row_c.try_into().expect("row of W words");
                (0..W).map(|i| (a[i] & b[i]).count_ones() as usize).sum()
            };
            hist[base + plus] += 1;
            // `plus ≥ t_x + t_c − s_total`, so `t_x − plus` stays within
            // the minus-branch sub-array
            hist[base + t_c + 1 + (t_x - plus)] += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SampleStore;
    use crate::testutil::fig1_network;

    fn sampler() -> SamplerConfig {
        SamplerConfig { anneal: true, n_samples: 200, walk_steps: 3, n_min: 50, seed: 5, chains: 1 }
    }

    fn pn() -> ProbabilisticNetwork {
        ProbabilisticNetwork::new(fig1_network(), sampler())
    }

    fn sharded_pn() -> ProbabilisticNetwork {
        ProbabilisticNetwork::new_sharded(fig1_network(), sampler(), ShardingConfig::default())
    }

    /// A store over `n` candidates holding `s` distinct random samples:
    /// row 0 is in every sample, row 1 in none, row 2 in exactly one, and
    /// the other rows have random per-row densities.
    fn random_store(rng: &mut rand::rngs::StdRng, n: usize, s: usize) -> SampleStore {
        use rand::Rng;
        let density: Vec<f64> =
            (0..n).map(|_| [0.03, 0.3, 0.5, 0.9][rng.random_range(0..4usize)]).collect();
        let mut samples = std::collections::HashSet::new();
        while samples.len() < s {
            let mut inst = BitSet::new(n);
            inst.insert(CandidateId(0));
            for (i, &d) in density.iter().enumerate().skip(3) {
                if rng.random_bool(d) {
                    inst.insert(CandidateId::from_index(i));
                }
            }
            samples.insert(inst);
        }
        let mut samples: Vec<BitSet> = samples.into_iter().collect();
        samples.sort_by(|a, b| a.words().cmp(b.words()));
        samples[s / 2].insert(CandidateId(2));
        let store = SampleStore::from_instances(n, samples, sampler());
        let matrix = store.matrix();
        assert_eq!((matrix.sample_count(), matrix.row(CandidateId(0)).len()), (s, s.div_ceil(64)));
        store
    }

    /// Column counts straddling the 64- and 256-bit edges: rows of 1–12
    /// words.
    const EDGE_COLUMNS: [usize; 17] =
        [1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513, 700, 767, 768];

    /// The portable gain body and its hardware-popcount instantiation
    /// return the same bits, for pools mixing certain, uncertain and
    /// repeated candidates.
    #[test]
    fn popcnt_gain_kernel_matches_the_portable_body_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        #[cfg(target_arch = "x86_64")]
        let hardware = std::arch::is_x86_feature_detected!("popcnt");
        #[cfg(not(target_arch = "x86_64"))]
        let hardware = false;
        if !hardware {
            eprintln!("popcnt unavailable: hardware gain kernel arm skipped");
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(23);
        for (case, &s) in EDGE_COLUMNS.iter().enumerate() {
            let n = 40 + case;
            let store = random_store(&mut rng, n, s);
            let matrix = store.matrix();
            let mut pool: Vec<usize> = (0..n).collect();
            pool.extend((0..n).map(|_| rng.random_range(0..n)));
            let portable = gains_body(matrix, &pool);
            #[cfg(target_arch = "x86_64")]
            if hardware {
                // SAFETY: popcnt was confirmed above
                let popcnt = unsafe { gains_within_popcnt(matrix, &pool) };
                for (i, (p, h)) in portable.iter().zip(&popcnt).enumerate() {
                    assert_eq!(p.to_bits(), h.to_bits(), "{s} columns, pool slot {i}");
                }
            }
            assert!(s == 1 || portable.iter().any(|&g| g > 0.0), "{s} columns: no uncertain gain");
            assert_eq!(portable[0], 0.0, "certain candidates gain nothing");
        }
    }

    /// The fixed-width split instantiations histogram exactly what the
    /// wide kernel does.
    #[test]
    fn fixed_width_split_matches_the_wide_kernel() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &s in &EDGE_COLUMNS {
            let n = 30;
            let store = random_store(&mut rng, n, s);
            let matrix = store.matrix();
            let totals: Vec<usize> =
                (0..n).map(|i| matrix.membership_count(CandidateId::from_index(i))).collect();
            let rows: Vec<usize> = (0..n).collect();
            let span = s + 2;
            let slots: Vec<(&[u64], usize, usize)> = (3..11)
                .enumerate()
                .map(|(slot, c)| (matrix.row(CandidateId::from_index(c)), totals[c], slot * span))
                .collect();
            let (mut fixed, mut wide) = (vec![0; 8 * span], vec![0; 8 * span]);
            split_block((matrix, &rows, &totals, &slots), &mut fixed);
            split_rows::<0>((matrix, &rows, &totals, &slots), &mut wide);
            assert_eq!(fixed, wide, "{s} columns");
        }
    }

    #[test]
    fn warm_information_gain_matches_the_batch_path() {
        // satellite regression: once the cache is warm, the singular
        // information_gain(c) must serve the cached value, and that value
        // must stay ≡ the batch path within 1e-12 (bit-identical in fact:
        // the cache is filled through the same kernel)
        for pn in [pn(), sharded_pn()] {
            let pool = pn.uncertain_candidates();
            let fresh = pn.information_gains(&pool);
            // cold: the point query must not warm the cache by itself
            assert_eq!(pn.warm_cached_gain(pool[0]), None, "point queries leave a cold cache cold");
            let cold: Vec<f64> = pool.iter().map(|&c| pn.information_gain(c)).collect();
            pn.refresh_gain_cache();
            for (i, &c) in pool.iter().enumerate() {
                let warm = pn.information_gain(c);
                assert_eq!(
                    pn.warm_cached_gain(c),
                    Some(warm),
                    "after a refresh the cache must hold {c}"
                );
                assert!((warm - fresh[i]).abs() <= 1e-12, "warm {warm} vs batch {}", fresh[i]);
                assert_eq!(warm.to_bits(), fresh[i].to_bits(), "cache fills through the kernel");
                assert_eq!(warm.to_bits(), cold[i].to_bits(), "cold and warm point paths agree");
            }
        }
    }

    #[test]
    fn gain_cache_invalidates_per_shard_and_on_evolution() {
        let mut pn = sharded_pn();
        pn.refresh_gain_cache();
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        // the cached window after the mutation must equal a fresh scan
        let pool = pn.uncertain_candidates();
        let fresh = pn.information_gains(&pool);
        let (window, gains) = pn.cached_gain_window();
        let max = fresh.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        for (&c, &g) in window.iter().zip(&gains) {
            let pos = pool.iter().position(|&p| p == c).expect("window ⊆ uncertain pool");
            assert_eq!(g.to_bits(), fresh[pos].to_bits());
            assert!(g >= max - 2e-12, "window holds only near-maximal gains");
        }
        // every near-maximal pool candidate is in the window
        for (i, &c) in pool.iter().enumerate() {
            if fresh[i] >= max - 2e-12 {
                assert!(window.contains(&c), "{c} (gain {}) missing from window", fresh[i]);
            }
        }
        // evolution renumbers shards: the cache must survive via the
        // structure epoch and keep matching fresh scans (fig1 is fully
        // populated, so free a pair by retirement before re-extending it)
        let freed = pn.network().corr(CandidateId(0));
        pn.retire(CandidateId(0)).unwrap();
        let pool = pn.uncertain_candidates();
        let fresh = pn.information_gains(&pool);
        let cached = pn.cached_gains(&pool);
        for (f, c) in fresh.iter().zip(&cached) {
            assert_eq!(f.to_bits(), c.to_bits(), "post-retire cache must re-derive");
        }
        pn.extend(freed.a(), freed.b(), 0.6).unwrap();
        let pool = pn.uncertain_candidates();
        let fresh = pn.information_gains(&pool);
        let cached = pn.cached_gains(&pool);
        for (f, c) in fresh.iter().zip(&cached) {
            assert_eq!(f.to_bits(), c.to_bits(), "post-extend cache must re-derive");
        }
    }

    #[test]
    fn generation_counts_only_real_mutations() {
        for mut pn in [pn(), sharded_pn()] {
            assert_eq!(pn.generation(), 0);
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            assert_eq!(pn.generation(), 1, "an integrated assertion bumps the generation");
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            assert_eq!(pn.generation(), 1, "a same-way no-op must not bump it");
            let _ = pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: false });
            assert_eq!(pn.generation(), 1, "a rejected assertion must not bump it");
            let fork = pn.fork();
            assert_eq!(fork.generation(), 1, "forks inherit the generation");
        }
    }

    #[test]
    fn commit_batch_walks_the_ladder_and_flags_mutations() {
        for mut pn in [pn(), sharded_pn()] {
            pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: false }).unwrap();
            let g = pn.generation();
            let out = pn.commit_batch(&[
                Assertion { candidate: CandidateId(2), approved: true }, // fresh → integrated
                Assertion { candidate: CandidateId(2), approved: true }, // re-assert → no-op
                Assertion { candidate: CandidateId(4), approved: true }, // contradiction → flip-no-op
            ]);
            assert_eq!(out[0].outcome, StepOutcome::Integrated);
            assert!(out[0].mutated && out[0].approved);
            assert_eq!(out[1].outcome, StepOutcome::Integrated);
            assert!(!out[1].mutated, "same-way re-assertion resolves as a no-op integration");
            assert_eq!(out[2].outcome, StepOutcome::Flipped);
            assert!(!out[2].mutated && !out[2].approved);
            assert_eq!(pn.generation(), g + 1, "exactly one event actually mutated");
            assert_eq!(pn.probability(CandidateId(2)), 1.0);
            assert_eq!(pn.probability(CandidateId(4)), 0.0);
        }
    }

    #[test]
    fn commit_batch_is_exec_invariant() {
        use crate::testutil::perturbed_network;
        let (net, _) = perturbed_network(3, 6, 0.6, 0.9, 13);
        let n = net.candidate_count();
        let requests: Vec<Assertion> = (0..n)
            .step_by(2)
            .map(|i| Assertion { candidate: CandidateId::from_index(i), approved: i % 4 == 0 })
            .collect();
        let run = || {
            let mut pn = ProbabilisticNetwork::new_sharded(
                net.clone(),
                sampler(),
                ShardingConfig::default(),
            );
            let out = pn.commit_batch(&requests);
            (out, pn.probabilities().to_vec(), pn.generation(), pn.effort())
        };
        let sequential = pool::sequential(run);
        assert_eq!(sequential, run(), "pool lanes diverged from sequential");
        // and the sequential lanes agree with one-at-a-time asserts
        let mut reference =
            ProbabilisticNetwork::new_sharded(net.clone(), sampler(), ShardingConfig::default());
        for req in &requests {
            if reference.validate_assertion(*req).is_err() {
                let fallback = Assertion { candidate: req.candidate, approved: false };
                if reference.validate_assertion(fallback).is_ok() {
                    reference.assert_candidate(fallback).unwrap();
                }
            } else {
                reference.assert_candidate(*req).unwrap();
            }
        }
        assert_eq!(sequential.1, reference.probabilities(), "lanes diverged from direct asserts");
    }

    #[test]
    fn fig1_probabilities_are_exact_half() {
        let pn = pn();
        assert!(pn.is_exhausted(), "4 instances < n_min");
        for c in 0..5 {
            assert!(
                (pn.probability(CandidateId(c)) - 0.5).abs() < 1e-12,
                "p(c{c}) = {}",
                pn.probability(CandidateId(c))
            );
        }
        assert!((pn.entropy() - 5.0).abs() < 1e-12);
        assert!((pn.normalized_entropy() - 1.0).abs() < 1e-12);
        assert_eq!(pn.uncertain_candidates().len(), 5);
    }

    #[test]
    fn approval_collapses_probabilities() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        // instances containing c2: {c0,c1,c2}, {c2,c3} → p(c0)=p(c1)=0.5,
        // p(c2)=1, p(c3)=0.5, p(c4)=0
        assert_eq!(pn.probability(CandidateId(2)), 1.0);
        assert_eq!(pn.probability(CandidateId(4)), 0.0);
        assert!((pn.probability(CandidateId(0)) - 0.5).abs() < 1e-12);
        assert!((pn.entropy() - 3.0).abs() < 1e-12);
        assert!((pn.effort() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn conflicting_approval_is_rejected() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(1), approved: true }).unwrap();
        let err = pn.assert_candidate(Assertion { candidate: CandidateId(3), approved: true });
        assert_eq!(err, Err(AssertError::InconsistentApproval(CandidateId(3))));
        // state unchanged by the rejected assertion
        assert_eq!(pn.probability(CandidateId(1)), 1.0);
        assert!(!pn.feedback().is_asserted(CandidateId(3)));
    }

    #[test]
    fn same_way_reassertion_is_a_true_noop() {
        for mut pn in [pn(), sharded_pn()] {
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            let snapshot = pn.probabilities().to_vec();
            let effort = pn.effort();
            // re-approving must succeed without touching the model
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            assert_eq!(pn.probabilities(), &snapshot[..]);
            assert_eq!(pn.effort(), effort, "no-op must not double-count effort");
            // same for re-disapproving a disapproved candidate
            pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: false }).unwrap();
            let snapshot = pn.probabilities().to_vec();
            pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: false }).unwrap();
            assert_eq!(pn.probabilities(), &snapshot[..]);
        }
    }

    #[test]
    fn contradictory_reassertion_errors_without_panicking() {
        for mut pn in [pn(), sharded_pn()] {
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            pn.assert_candidate(Assertion { candidate: CandidateId(0), approved: false }).unwrap();
            let snapshot = pn.probabilities().to_vec();
            assert_eq!(
                pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: false }),
                Err(AssertError::Contradictory {
                    candidate: CandidateId(2),
                    previously_approved: true
                })
            );
            assert_eq!(
                pn.assert_candidate(Assertion { candidate: CandidateId(0), approved: true }),
                Err(AssertError::Contradictory {
                    candidate: CandidateId(0),
                    previously_approved: false
                })
            );
            // rejected flips leave the model untouched
            assert_eq!(pn.probabilities(), &snapshot[..]);
            assert!(pn.feedback().approved().contains(CandidateId(2)));
            assert!(pn.feedback().disapproved().contains(CandidateId(0)));
        }
    }

    #[test]
    fn information_gain_of_certain_candidates_is_zero() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        assert_eq!(pn.information_gain(CandidateId(2)), 0.0);
        assert_eq!(pn.information_gain(CandidateId(4)), 0.0);
        assert!(pn.information_gain(CandidateId(0)) >= 0.0);
    }

    #[test]
    fn example1_ordering_effect() {
        // The paper's Example 1: asserting the correspondence shared by the
        // closed triangles (our c0) is less informative than asserting one
        // that discriminates between them (our c2). With the two mixed
        // instances present the effect persists: IG(c2) > IG(c0)?
        // Splitting on c0: plus = {012, 034} (H+ = 4·h(0.5) = wait, within
        // plus: c1,c2 at 0.5, c3,c4 at 0.5 → H+ = 4·1? No: in {012,034}
        // p(c1)=0.5, p(c2)=0.5, p(c3)=0.5, p(c4)=0.5 → H+ = 4.
        // minus = {14, 23}: same → H− = 4? p(c1)=0.5 … H− = 4.
        // H(C|c0) = 4 (no reduction beyond c0 itself: IG = 1).
        // Splitting on c2: plus = {012, 23}: p(c0)=0.5, p(c1)=0.5,
        // p(c3)=0.5, p(c4)=0 → H+ = 3. minus = {034, 14}: p(c0)=0.5,
        // p(c1)=0.5, p(c3)=0.5, p(c4)=1 → H− = 3. H(C|c2) = 3, IG = 2.
        let pn = pn();
        let ig0 = pn.information_gain(CandidateId(0));
        let ig2 = pn.information_gain(CandidateId(2));
        assert!((ig0 - 1.0).abs() < 1e-9, "IG(c0) = {ig0}");
        assert!((ig2 - 2.0).abs() < 1e-9, "IG(c2) = {ig2}");
        assert!(ig2 > ig0);
    }

    #[test]
    fn full_reconciliation_reaches_zero_entropy() {
        let mut pn = pn();
        // approving c3 and c4 pins the selective matching {c0, c3, c4}:
        // {c3, c4} alone is not maximal (c0 closes the triangle), so the
        // only remaining instance is {c0, c3, c4}
        pn.assert_candidate(Assertion { candidate: CandidateId(3), approved: true }).unwrap();
        pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: true }).unwrap();
        assert_eq!(pn.entropy(), 0.0, "approving c3 and c4 pins everything");
        assert_eq!(pn.probability(CandidateId(0)), 1.0);
        assert_eq!(pn.probability(CandidateId(1)), 0.0);
        assert_eq!(pn.probability(CandidateId(2)), 0.0);
        assert_eq!(pn.normalized_entropy(), 0.0);
        assert_eq!(pn.uncertain_candidates().len(), 0);
    }

    #[test]
    fn batch_gains_agree_with_single_candidate_gains() {
        let fresh = pn();
        let pool = fresh.uncertain_candidates();
        let batch = fresh.information_gains(&pool);
        for (&c, &g) in pool.iter().zip(&batch) {
            let single = fresh.information_gain(c);
            assert!((g - single).abs() < 1e-9, "{c}: batch {g} vs single {single}");
        }
        // and after an assertion
        let mut asserted = pn();
        asserted.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        let pool = asserted.uncertain_candidates();
        let batch = asserted.information_gains(&pool);
        for (&c, &g) in pool.iter().zip(&batch) {
            assert!((g - asserted.information_gain(c)).abs() < 1e-9);
        }
        // certain candidates report zero gain in batch mode too
        let certain = vec![CandidateId(2), CandidateId(4)];
        assert_eq!(asserted.information_gains(&certain), vec![0.0, 0.0]);
    }

    #[test]
    fn probabilities_respect_feedback_invariant() {
        let mut pn = pn();
        pn.assert_candidate(Assertion { candidate: CandidateId(0), approved: true }).unwrap();
        pn.assert_candidate(Assertion { candidate: CandidateId(1), approved: false }).unwrap();
        assert_eq!(pn.probability(CandidateId(0)), 1.0);
        assert_eq!(pn.probability(CandidateId(1)), 0.0);
    }

    #[test]
    fn sharded_fig1_matches_monolithic_exactly() {
        let mono = pn();
        let sharded = sharded_pn();
        assert!(sharded.is_sharded());
        assert_eq!(sharded.shard_count(), 1, "fig1's conflict graph is connected");
        assert!(sharded.is_exhausted());
        assert_eq!(sharded.probabilities(), mono.probabilities());
        assert_eq!(sharded.entropy(), mono.entropy());
        let pool = mono.uncertain_candidates();
        assert_eq!(sharded.uncertain_candidates(), pool);
        let (g_mono, g_sharded) = (mono.information_gains(&pool), sharded.information_gains(&pool));
        for (a, b) in g_mono.iter().zip(&g_sharded) {
            assert!((a - b).abs() < 1e-12, "gain mismatch: {a} vs {b}");
        }
    }

    #[test]
    fn sharded_assertions_track_monolithic() {
        let mut mono = pn();
        let mut sharded = sharded_pn();
        for (c, approved) in [(CandidateId(2), true), (CandidateId(0), false)] {
            mono.assert_candidate(Assertion { candidate: c, approved }).unwrap();
            sharded.assert_candidate(Assertion { candidate: c, approved }).unwrap();
            assert_eq!(sharded.probabilities(), mono.probabilities());
            assert_eq!(sharded.entropy(), mono.entropy());
        }
    }

    #[test]
    fn greedy_seed_is_a_largest_instance_on_both_representations() {
        for pn in [pn(), sharded_pn()] {
            let seed = pn.greedy_seed(true).expect("fig1 has samples");
            assert_eq!(seed.count(), 3, "largest fig1 instances have 3 members");
            assert!(pn.network().index().is_consistent(&seed));
        }
    }

    /// Fig. 1 without its last candidate (c4 = a0–a3).
    fn fig1_without_c4() -> crate::network::MatchingNetwork {
        use smn_schema::{AttributeId, CandidateSet, CatalogBuilder, InteractionGraph};
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("EoverI", ["productionDate"]).unwrap();
        b.add_schema_with_attributes("BBC", ["date"]).unwrap();
        b.add_schema_with_attributes("DVDizzy", ["releaseDate", "screenDate"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(3);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        cs.add(&cat, Some(&g), a(0), a(1), 0.9).unwrap();
        cs.add(&cat, Some(&g), a(1), a(2), 0.8).unwrap();
        cs.add(&cat, Some(&g), a(0), a(2), 0.8).unwrap();
        cs.add(&cat, Some(&g), a(1), a(3), 0.7).unwrap();
        crate::network::MatchingNetwork::new(
            cat,
            g,
            cs,
            smn_constraints::ConstraintConfig::default(),
        )
    }

    #[test]
    fn extend_matches_a_from_scratch_build_on_both_representations() {
        use smn_schema::AttributeId;
        let partial_mono = ProbabilisticNetwork::new(fig1_without_c4(), sampler());
        let partial_sharded = ProbabilisticNetwork::new_sharded(
            fig1_without_c4(),
            sampler(),
            ShardingConfig::default(),
        );
        for (mut evolved, fresh) in [(partial_mono, pn()), (partial_sharded, sharded_pn())] {
            let id = evolved.extend(AttributeId(0), AttributeId(3), 0.7).unwrap();
            assert_eq!(id, CandidateId(4));
            // the patched conflict index equals the full fig1 build exactly
            assert_eq!(evolved.network().index(), fresh.network().index());
            // exact (exhausted) stores: identical posteriors
            assert!(evolved.is_exhausted());
            assert_eq!(evolved.probabilities(), fresh.probabilities());
            assert_eq!(evolved.entropy(), fresh.entropy());
            let pool = fresh.uncertain_candidates();
            assert_eq!(evolved.information_gains(&pool), fresh.information_gains(&pool));
        }
    }

    #[test]
    fn retire_matches_a_from_scratch_build_on_both_representations() {
        let fresh_mono = ProbabilisticNetwork::new(fig1_without_c4(), sampler());
        let fresh_sharded = ProbabilisticNetwork::new_sharded(
            fig1_without_c4(),
            sampler(),
            ShardingConfig::default(),
        );
        for (mut evolved, fresh) in [(pn(), fresh_mono), (sharded_pn(), fresh_sharded)] {
            evolved.retire(CandidateId(4)).unwrap();
            assert_eq!(evolved.network().candidate_count(), 4);
            assert_eq!(evolved.network().index(), fresh.network().index());
            assert!(evolved.is_exhausted());
            assert_eq!(evolved.probabilities(), fresh.probabilities());
            assert_eq!(evolved.entropy(), fresh.entropy());
        }
    }

    #[test]
    fn retire_drops_assertions_and_shifts_ids() {
        for mut pn in [pn(), sharded_pn()] {
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            pn.assert_candidate(Assertion { candidate: CandidateId(4), approved: false }).unwrap();
            // retiring c2 discards its approval; c4's disapproval becomes c3's
            pn.retire(CandidateId(2)).unwrap();
            assert_eq!(pn.network().candidate_count(), 4);
            assert!(pn.feedback().approved().is_empty());
            assert!(pn.feedback().disapproved().contains(CandidateId(3)));
            assert_eq!(pn.probability(CandidateId(3)), 0.0);
            // the survivors keep a well-formed posterior
            for &p in pn.probabilities() {
                assert!((0.0..=1.0).contains(&p));
            }
        }
    }

    #[test]
    fn evolution_errors_leave_the_model_untouched() {
        use smn_schema::AttributeId;
        for mut pn in [pn(), sharded_pn()] {
            let snapshot = pn.probabilities().to_vec();
            // duplicate pair
            assert!(pn.extend(AttributeId(0), AttributeId(1), 0.5).is_err());
            // intra-schema pair
            assert!(pn.extend(AttributeId(2), AttributeId(3), 0.5).is_err());
            // unknown retiree
            assert_eq!(
                pn.retire(CandidateId(9)),
                Err(SchemaError::UnknownCandidate(CandidateId(9)))
            );
            assert_eq!(pn.probabilities(), &snapshot[..]);
            assert_eq!(pn.network().candidate_count(), 5);
        }
    }

    /// Two disjoint one-to-one conflict clusters over a 2-schema catalog:
    /// `{c0 = a0–b0, c1 = a0–b1}` and `{c2 = a1–b2, c3 = a1–b3}`.
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

    #[test]
    fn sharded_assert_errors_are_typed_and_leave_the_model_untouched() {
        // a *multi-shard* network (fig1 is a single component, so the PR 3
        // regression tests exercised the shard-local error paths only
        // through the trivial one-shard case)
        let mut pn = ProbabilisticNetwork::new_sharded(
            two_cluster_network(),
            sampler(),
            ShardingConfig::default(),
        );
        assert_eq!(pn.shard_count(), 2);
        // shard-local InconsistentApproval: c0 and c1 conflict inside the
        // first cluster
        pn.assert_candidate(Assertion { candidate: CandidateId(0), approved: true }).unwrap();
        let snapshot = pn.probabilities().to_vec();
        assert_eq!(
            pn.assert_candidate(Assertion { candidate: CandidateId(1), approved: true }),
            Err(AssertError::InconsistentApproval(CandidateId(1)))
        );
        assert_eq!(pn.probabilities(), &snapshot[..]);
        assert!(!pn.feedback().is_asserted(CandidateId(1)));
        // an approval in the *other* shard is unaffected by shard-1 state
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        assert_eq!(pn.probability(CandidateId(2)), 1.0);
        // same-way re-assertions are true no-ops on both shards
        let snapshot = pn.probabilities().to_vec();
        pn.assert_candidate(Assertion { candidate: CandidateId(0), approved: true }).unwrap();
        pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        assert_eq!(pn.probabilities(), &snapshot[..]);
        assert!((pn.effort() - 0.5).abs() < 1e-12, "no-ops must not double-count effort");
        // contradictory flips are typed errors with the standing verdict
        assert_eq!(
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: false }),
            Err(AssertError::Contradictory {
                candidate: CandidateId(2),
                previously_approved: true
            })
        );
        assert_eq!(pn.probabilities(), &snapshot[..]);
    }

    #[test]
    fn unknown_candidates_are_typed_errors_on_both_partitions() {
        for sharding in [ShardingConfig::default(), ShardingConfig::disabled()] {
            let mut pn =
                ProbabilisticNetwork::new_sharded(two_cluster_network(), sampler(), sharding);
            pn.assert_candidate(Assertion { candidate: CandidateId(0), approved: false }).unwrap();
            let (probs, generation, h) =
                (pn.probabilities().to_vec(), pn.generation(), pn.entropy());
            let n = pn.network().candidate_count() as u32;
            for c in [CandidateId(n), CandidateId(n + 1), CandidateId(u32::MAX)] {
                for approved in [true, false] {
                    let a = Assertion { candidate: c, approved };
                    assert_eq!(pn.validate_assertion(a), Err(AssertError::UnknownCandidate(c)));
                    assert_eq!(pn.assert_candidate(a), Err(AssertError::UnknownCandidate(c)));
                    assert_eq!(
                        pn.echo_validate(&crate::Echo::new(), a),
                        Err(AssertError::UnknownCandidate(c))
                    );
                    assert_eq!(pn.what_if(c, approved).to_bits(), h.to_bits());
                }
                let priced = pn.what_if_batch(&[(c, true), (CandidateId(1), false), (c, false)]);
                assert_eq!(priced[0].to_bits(), h.to_bits(), "{sharding:?}");
                assert_eq!(priced[2].to_bits(), h.to_bits(), "{sharding:?}");
                assert_eq!(
                    priced[1].to_bits(),
                    pn.what_if_batch(&[(CandidateId(1), false)])[0].to_bits()
                );
            }
            assert_eq!(pn.probabilities(), &probs[..], "{sharding:?}");
            assert_eq!(pn.generation(), generation, "{sharding:?}");
            assert_eq!(pn.feedback().len(), 1);
        }
    }

    #[test]
    fn fork_is_independent_and_copy_on_write() {
        for base in [pn(), sharded_pn()] {
            let branch = base.fork();
            assert_eq!(branch.probabilities(), base.probabilities());
            assert_eq!(branch.entropy(), base.entropy());
            // assert on the fork: the base must not move
            let mut branch = branch;
            let snapshot = base.probabilities().to_vec();
            branch
                .assert_candidate(Assertion { candidate: CandidateId(2), approved: true })
                .unwrap();
            assert_eq!(base.probabilities(), &snapshot[..]);
            assert_eq!(branch.probability(CandidateId(2)), 1.0);
            // and the other way around
            let mut base = base;
            let branch_snapshot = branch.probabilities().to_vec();
            base.assert_candidate(Assertion { candidate: CandidateId(0), approved: false })
                .unwrap();
            assert_eq!(branch.probabilities(), &branch_snapshot[..]);
        }
    }

    #[test]
    fn fork_of_a_multi_shard_network_copy_on_writes_one_shard() {
        let base = ProbabilisticNetwork::new_sharded(
            two_cluster_network(),
            sampler(),
            ShardingConfig::default(),
        );
        assert_eq!(base.shard_count(), 2);
        assert_eq!(base.shard_of(CandidateId(0)), base.shard_of(CandidateId(1)));
        assert_ne!(base.shard_of(CandidateId(0)), base.shard_of(CandidateId(2)));
        let mut branch = base.fork();
        branch.assert_candidate(Assertion { candidate: CandidateId(0), approved: true }).unwrap();
        // the untouched shard's snapshot is still pointer-shared
        let shard = |pn: &ProbabilisticNetwork, k| pn.host.snapshot(k).unwrap() as *const _;
        let k_written = base.shard_of(CandidateId(0));
        let k_shared = 1 - k_written;
        assert_eq!(
            shard(&base, k_shared),
            shard(&branch, k_shared),
            "foreign shard must stay shared after a fork write"
        );
        assert_ne!(
            shard(&base, k_written),
            shard(&branch, k_written),
            "written shard must have been copy-on-written"
        );
        // the sub-index inside the copied shard is still the same allocation
        let index = |pn: &ProbabilisticNetwork| pn.host.snapshot(k_written).unwrap().index.clone();
        assert!(std::sync::Arc::ptr_eq(&index(&base), &index(&branch)));
    }

    #[test]
    fn what_if_equals_fork_assert_entropy_and_leaves_self_untouched() {
        for base in [pn(), sharded_pn()] {
            let snapshot = base.probabilities().to_vec();
            for c in (0..5).map(CandidateId::from_index) {
                for approved in [true, false] {
                    let predicted = base.what_if(c, approved);
                    let mut replay = base.fork();
                    let expected =
                        match replay.assert_candidate(Assertion { candidate: c, approved }) {
                            Ok(()) => replay.entropy(),
                            Err(_) => base.entropy(),
                        };
                    assert!(
                        (predicted - expected).abs() < 1e-12,
                        "what_if({c}, {approved}) = {predicted} vs {expected}"
                    );
                }
            }
            assert_eq!(base.probabilities(), &snapshot[..], "what_if must not mutate");
            assert!(base.feedback().is_empty());
        }
    }

    #[test]
    fn what_if_of_a_rejected_assertion_is_the_current_entropy() {
        let mut base = pn();
        base.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
        let h = base.entropy();
        // flipping the approved c2 is contradictory: the model would
        // reject it, so the what-if entropy is the standing uncertainty
        assert_eq!(base.what_if(CandidateId(2), false), h);
    }

    #[test]
    fn what_if_batch_matches_per_candidate_what_if() {
        for mut base in [pn(), sharded_pn()] {
            // stand some feedback up so the batch contains every inert
            // flavour: same-way re-assertion, contradiction, inconsistent
            // approval — alongside live queries
            base.assert_candidate(Assertion { candidate: CandidateId(1), approved: true }).unwrap();
            let snapshot = base.probabilities().to_vec();
            let queries: Vec<(CandidateId, bool)> =
                (0..5).map(CandidateId::from_index).flat_map(|c| [(c, true), (c, false)]).collect();
            let batch = base.what_if_batch(&queries);
            for (&(c, approved), &got) in queries.iter().zip(&batch) {
                let expected = base.what_if(c, approved);
                assert!(
                    (got - expected).abs() < 1e-12,
                    "what_if_batch({c}, {approved}) = {got} vs what_if = {expected}"
                );
            }
            assert_eq!(base.probabilities(), &snapshot[..], "what_if_batch must not mutate");
        }
    }

    #[test]
    fn what_if_batch_agrees_across_representations_on_exhausted_stores() {
        // fig1's components are tiny, so both representations hold the
        // exact posterior; the hypothetical entropies must agree too
        let mono = pn();
        let shard = sharded_pn();
        let queries: Vec<(CandidateId, bool)> =
            (0..5).map(CandidateId::from_index).flat_map(|c| [(c, true), (c, false)]).collect();
        for (m, s) in mono.what_if_batch(&queries).iter().zip(shard.what_if_batch(&queries)) {
            assert!((m - s).abs() < 1e-12, "monolithic {m} vs sharded {s}");
        }
    }

    #[test]
    fn what_if_approval_on_exhausted_store_matches_the_eq4_plus_branch() {
        // on an exhausted store an approval's view maintenance keeps
        // exactly the instances containing the candidate — the Eq. 4
        // plus-branch — so the fork-measured entropy must equal the
        // entropy of that branch computed independently from the samples
        let base = pn();
        assert!(base.is_exhausted());
        for c in base.uncertain_candidates() {
            let plus: Vec<_> = base.samples().iter().filter(|s| s.contains(c)).cloned().collect();
            let n = base.network().candidate_count();
            let branch_probs: Vec<f64> = (0..n)
                .map(CandidateId::from_index)
                .map(|x| plus.iter().filter(|s| s.contains(x)).count() as f64 / plus.len() as f64)
                .collect();
            let h_plus = crate::entropy::entropy_of(&branch_probs);
            let measured = base.what_if(c, true);
            assert!(
                (measured - h_plus).abs() < 1e-12,
                "{c}: what_if {measured} vs plus-branch entropy {h_plus}"
            );
        }
    }

    #[test]
    fn arrival_coupling_two_components_merges_their_shards_and_retirement_splits() {
        use smn_schema::AttributeId;
        let mut pn = ProbabilisticNetwork::new_sharded(
            two_cluster_network(),
            sampler(),
            ShardingConfig::default(),
        );
        assert_eq!(pn.shard_count(), 2);
        let before = pn.probabilities().to_vec();
        assert_eq!(before, vec![0.5; 4]);
        // c4 = a1–b0 conflicts with c0 (shared b0) and with c2, c3 (shared
        // a1): the arrival couples both clusters into one shard
        let id = pn.extend(AttributeId(1), AttributeId(2), 0.6).unwrap();
        assert_eq!(pn.shard_count(), 1);
        // differential: the merged posterior equals a from-scratch build
        let fresh = ProbabilisticNetwork::new_sharded(
            pn.network().clone(),
            sampler(),
            ShardingConfig::default(),
        );
        assert_eq!(pn.probabilities(), fresh.probabilities());
        // instances: {c0,c2},{c0,c3},{c1,c2},{c1,c3},{c1,c4} → p(c4) = 1/5
        assert!((pn.probability(id) - 0.2).abs() < 1e-12);
        // retiring the bridge splits the shard back into the two clusters
        pn.retire(id).unwrap();
        assert_eq!(pn.shard_count(), 2);
        assert_eq!(pn.probabilities(), &before[..]);
    }
}

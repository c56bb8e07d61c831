//! The coordinator: one process owning all routing state, speaking the
//! [`proto`](crate::proto) protocol to N shard servers.
//!
//! [`DistNetwork`] mirrors exactly the *cheap* state of a single-process
//! [`ProbabilisticNetwork`](smn_core::ProbabilisticNetwork) — the
//! network structure (via a zero-owned
//! [`ShardHost`]), the global feedback, the global probability vector
//! and the entropy baseline — while every sample store lives on exactly
//! one shard server. Each operation routes to the owners and composes
//! replies with the same floating-point expressions the single-process
//! engine uses, so a distributed run is *byte-identical* to the
//! single-process run (posteriors bitwise, reports byte for byte) — the
//! contract the differential suite certifies at 1, 2 and 4 servers.
//!
//! ## Sticky ownership
//!
//! Placement starts from the consistent-hash ring
//! ([`Placement`]), but a live sampled store carries walk state its
//! serialized form deliberately does not (the save/load contract
//! certifies post-load maintenance only for exhausted stores) — so an
//! *intact* component must never relocate mid-run. The coordinator
//! therefore keeps an explicit owner map: through every evolution
//! renumbering, intact components inherit their server
//! (`owner[new_k] = owner[old_k]`); only dissolved-and-rebuilt
//! components (the merge of an extension, the split parts of a
//! retirement) are placed fresh on the ring. Rebuilt shards start from
//! fresh derived seeds wherever they land — bit-exact on any server —
//! which is exactly the single-process rebuild semantics.
//!
//! ## Failure semantics
//!
//! Structure-level rejections (contradictory assertions, duplicate
//! arrivals) are typed errors that leave the cluster untouched, exactly
//! like the single-process engine. *Link* failures mid-operation are
//! different: the cluster's state is no longer known to be coherent, so
//! the query paths that cannot surface an error through their
//! [`ServeModel`] signatures panic with context instead of fabricating
//! values. Construction, evolution and shutdown return typed
//! [`DistError`]s.

use crate::error::DistError;
use crate::proto::{
    encode_what_if, put_ids, put_u32, read_f64s, read_shard_probs, Rd, REQ_APPLY_EVENT, REQ_ASSERT,
    REQ_BOOTSTRAP, REQ_EXPORT, REQ_GAINS, REQ_REBUILD_MERGED, REQ_REBUILD_PART, REQ_SHUTDOWN,
    REQ_WHAT_IF, RESP_ERR, RESP_OK,
};
use crate::transport::Transport;
use smn_constraints::Placement;
use smn_core::entropy::{binary_entropy, entropy_of};
use smn_core::feedback::{Assertion, Feedback};
use smn_core::persist::NetworkEvent;
use smn_core::shard::ShardingConfig;
use smn_core::{AssertError, GainCache, GainSource, MatchingNetwork, SamplerConfig, ShardHost};
use smn_schema::{AttributeId, CandidateId};
use smn_service::ServeModel;
use smn_storage::format::encode_snapshot;
use smn_storage::wal::encode_record;
use smn_storage::Frame;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// The multi-process probabilistic network: full structure and global
/// bookkeeping here, sample state distributed over shard servers.
pub struct DistNetwork {
    /// Structure mirror with zero owned components — conflict index,
    /// component partition and evolution logic, no samples.
    mirror: ShardHost,
    /// Global feedback mirror (servers hold only shard-local feedback).
    feedback: Feedback,
    /// Global Eq. 2 posterior, scattered from shard replies.
    probs: Vec<f64>,
    /// Construction-time entropy baseline (see `normalized_entropy`).
    initial_entropy: f64,
    /// Monotone mutation counter, same discipline as the single-process
    /// network.
    generation: u64,
    /// The consistent-hash ring for *fresh* placements.
    placement: Placement,
    /// `owner[k]` = server index holding component `k`'s samples. Sticky:
    /// intact components keep their server through evolution.
    owner: Vec<usize>,
    /// One lockstep link per shard server. Mutexed so `&self` query
    /// paths (what-if, gains) can speak while the service fans out.
    links: Vec<Mutex<Box<dyn Transport>>>,
    /// WAL-style sequence stamping of the command stream.
    seq: u64,
    /// Per-component mutation epochs for the coordinator-side gain
    /// cache — same discipline as the single-process network: a routed
    /// assert re-stamps only the owning component, so a selection
    /// refresh fans out to that component's server alone.
    shard_epochs: Vec<u64>,
    /// Structural epoch, reset wholesale by extend / retire.
    structure_epoch: u64,
    /// The coordinator-side Eq. 5 gain cache (see [`smn_core::gains`]).
    gain_cache: Arc<Mutex<GainCache>>,
}

impl DistNetwork {
    /// Bootstraps a cluster: derives the component partition, assigns
    /// ownership on the consistent-hash ring, ships every server the
    /// structure-only snapshot image plus its owned-component list, and
    /// assembles the initial posterior from the servers' replies.
    /// Servers build their shards locally from the image (samples never
    /// travel at bootstrap), with the same derived seeds the
    /// single-process build uses.
    pub fn new(
        network: MatchingNetwork,
        sampler: SamplerConfig,
        sharding: ShardingConfig,
        links: Vec<Box<dyn Transport>>,
    ) -> Result<Self, DistError> {
        if links.is_empty() {
            return Err(DistError::Protocol("a cluster needs at least one shard server".into()));
        }
        let mirror = ShardHost::new(network, sampler, sharding, &[]);
        let n = mirror.network().candidate_count();
        let count = mirror.component_count();
        let placement = Placement::new(links.len());
        let owner = placement.assign(count);
        let image = encode_snapshot(&mirror.structure(), &[], 0);
        let epoch = smn_core::gains::next_epoch();
        let mut this = Self {
            mirror,
            feedback: Feedback::new(n),
            probs: vec![0.0; n],
            initial_entropy: 0.0,
            generation: 0,
            placement,
            owner,
            links: links.into_iter().map(Mutex::new).collect(),
            seq: 0,
            shard_epochs: vec![epoch; count],
            structure_epoch: epoch,
            gain_cache: Arc::new(Mutex::new(GainCache::default())),
        };
        // every server builds its owned shards concurrently — the point
        // of the cluster; replies scatter afterwards in server order
        // (order is irrelevant anyway: owned sets are disjoint)
        let replies = {
            let this = &this;
            let image = &image;
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..this.links.len())
                    .map(|server| {
                        s.spawn(move || -> Result<Vec<(usize, Vec<f64>)>, DistError> {
                            let owned: Vec<u32> = this
                                .owner
                                .iter()
                                .enumerate()
                                .filter(|&(_, &o)| o == server)
                                .map(|(k, _)| k as u32)
                                .collect();
                            let mut payload = Vec::with_capacity(4 + owned.len() * 4 + image.len());
                            put_ids(&mut payload, &owned);
                            payload.extend_from_slice(&image);
                            let reply = this.request(server, REQ_BOOTSTRAP, &payload)?;
                            let mut rd = Rd::new(&reply.payload);
                            let entries = read_shard_probs(&mut rd)?;
                            rd.finish("bootstrap reply")?;
                            Ok(entries)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("bootstrap fan-out thread"))
                    .collect::<Result<Vec<_>, DistError>>()
            })?
        };
        for entries in replies {
            for (k, local) in entries {
                scatter(&mut this.probs, this.mirror.components().members(k), k, &local)?;
            }
        }
        this.initial_entropy = entropy_of(&this.probs);
        Ok(this)
    }

    /// One lockstep request/response exchange with a server.
    fn request(&self, server: usize, kind: u32, payload: &[u8]) -> Result<Frame, DistError> {
        let mut link = self.links[server]
            .lock()
            .map_err(|_| DistError::Protocol(format!("link to server {server} poisoned")))?;
        link.send(kind, payload)?;
        let frame = link.recv()?;
        match frame.kind {
            RESP_OK => Ok(frame),
            RESP_ERR => {
                Err(DistError::Remote(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            k => Err(DistError::Protocol(format!("server {server} answered kind {k}"))),
        }
    }

    /// Shard servers in the cluster.
    pub fn servers(&self) -> usize {
        self.links.len()
    }

    /// The sticky component → server owner map.
    pub fn owner_of(&self, component: usize) -> usize {
        self.owner[component]
    }

    /// The global posterior (bitwise equal to the single-process vector).
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Monotone mutation counter (same discipline as the single-process
    /// network: bumped on integrated assertions and evolution only).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Mirrors [`ProbabilisticNetwork::validate_assertion`]: `Ok(true)`
    /// would mutate, `Ok(false)` is a same-way no-op, `Err` is the exact
    /// rejection. Pure local computation — conflicts never cross
    /// components, so the global mirror decides without a round trip.
    ///
    /// [`ProbabilisticNetwork::validate_assertion`]:
    /// smn_core::ProbabilisticNetwork::validate_assertion
    pub fn validate_assertion(&self, assertion: Assertion) -> Result<bool, AssertError> {
        let Assertion { candidate, approved } = assertion;
        if self.feedback.is_asserted(candidate) {
            let previously_approved = self.feedback.approved().contains(candidate);
            return if previously_approved == approved {
                Ok(false)
            } else {
                Err(AssertError::Contradictory { candidate, previously_approved })
            };
        }
        if approved && !self.mirror.network().index().can_add(self.feedback.approved(), candidate) {
            return Err(AssertError::InconsistentApproval(candidate));
        }
        Ok(true)
    }

    /// Whether integrating `(candidate, approved)` would leave the model
    /// untouched — the inertness guard of the batched what-if.
    fn assertion_is_inert(&self, candidate: CandidateId, approved: bool) -> bool {
        self.feedback.is_asserted(candidate)
            || (approved
                && !self.mirror.network().index().can_add(self.feedback.approved(), candidate))
    }

    /// Integrates a user assertion: validates against the global mirror,
    /// routes to the owning server, scatters the shard's new posterior.
    /// Same-way re-assertions are successful no-ops; rejections leave
    /// every process untouched. Panics only on link failure.
    pub fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        if !self.validate_assertion(assertion)? {
            return Ok(());
        }
        self.feedback.assert(assertion);
        let Assertion { candidate, approved } = assertion;
        let k = self.mirror.component_of(candidate);
        self.seq += 1;
        let record = encode_record(self.seq, &NetworkEvent::Assert { candidate, approved });
        let reply = self
            .request(self.owner[k], REQ_ASSERT, &record)
            .unwrap_or_else(|e| panic!("assert lost the cluster: {e}"));
        let mut rd = Rd::new(&reply.payload);
        let entries =
            read_shard_probs(&mut rd).unwrap_or_else(|e| panic!("assert reply malformed: {e}"));
        for (rk, local) in entries {
            scatter(&mut self.probs, self.mirror.components().members(rk), rk, &local)
                .unwrap_or_else(|e| panic!("assert reply malformed: {e}"));
            // only the touched component's cached gains go stale
            self.shard_epochs[rk] = smn_core::gains::next_epoch();
        }
        self.generation += 1;
        Ok(())
    }

    /// Batched what-if: inert queries price at the current entropy; the
    /// rest fan out to their owners batched per server, and compose as
    /// `(H − H_k + H'_k).max(0)` — the identical expression (and
    /// association) of the single-process
    /// [`what_if_batch`](smn_core::ProbabilisticNetwork::what_if_batch),
    /// with `H` and `H_k` computed from the mirrored posterior and only
    /// `H'_k` measured remotely. Panics only on link failure.
    pub fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        let h_current = entropy_of(&self.probs);
        let mut out = vec![0.0; queries.len()];
        let mut by_server: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, &(c, approved)) in queries.iter().enumerate() {
            if self.assertion_is_inert(c, approved) {
                out[pos] = h_current;
            } else {
                by_server.entry(self.owner[self.mirror.component_of(c)]).or_default().push(pos);
            }
        }
        // fan out concurrently — one scoped thread per server, each on
        // its own link; composition stays serial (and deterministic)
        let groups: Vec<(usize, Vec<usize>)> = by_server.into_iter().collect();
        let replies: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = groups
                .iter()
                .map(|(server, positions)| {
                    let batch: Vec<(CandidateId, bool)> =
                        positions.iter().map(|&p| queries[p]).collect();
                    s.spawn(move || {
                        let reply = self
                            .request(*server, REQ_WHAT_IF, &encode_what_if(&batch))
                            .unwrap_or_else(|e| panic!("what-if lost the cluster: {e}"));
                        let mut rd = Rd::new(&reply.payload);
                        read_f64s(&mut rd, "what-if reply")
                            .unwrap_or_else(|e| panic!("what-if: {e}"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("what-if fan-out thread")).collect()
        });
        for ((_, positions), values) in groups.iter().zip(replies) {
            assert_eq!(values.len(), positions.len(), "what-if reply miscounted");
            for (&pos, h_after) in positions.iter().zip(values) {
                let (c, _) = queries[pos];
                let members = self.mirror.components().members(self.mirror.component_of(c));
                let h_k: f64 = members.iter().map(|&g| binary_entropy(self.probs[g.index()])).sum();
                out[pos] = (h_current - h_k + h_after).max(0.0);
            }
        }
        out
    }

    /// Batch information gain: each server receives the flat pool of the
    /// candidates whose components it owns, and every value comes from the
    /// same per-shard kernel over the same local probabilities as the
    /// single-process scan (a gain does not depend on the rest of the
    /// pool). Panics only on link failure.
    pub fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        let mut out = vec![0.0; pool.len()];
        let mut by_server: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, &c) in pool.iter().enumerate() {
            by_server.entry(self.owner[self.mirror.component_of(c)]).or_default().push(pos);
        }
        // same scoped fan-out as the what-if path: one thread per server
        let fan: Vec<(usize, Vec<usize>)> = by_server.into_iter().collect();
        let replies: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = fan
                .iter()
                .map(|(server, positions)| {
                    let mut request = Vec::with_capacity(4 + 4 * positions.len());
                    put_ids(
                        &mut request,
                        &positions.iter().map(|&p| pool[p].0).collect::<Vec<_>>(),
                    );
                    s.spawn(move || {
                        let reply = self
                            .request(*server, REQ_GAINS, &request)
                            .unwrap_or_else(|e| panic!("gain scan lost the cluster: {e}"));
                        let mut rd = Rd::new(&reply.payload);
                        read_f64s(&mut rd, "gains reply").unwrap_or_else(|e| panic!("gains: {e}"))
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("gains fan-out thread")).collect()
        });
        for ((_, positions), values) in fan.iter().zip(replies) {
            assert_eq!(values.len(), positions.len(), "gains reply miscounted");
            for (&pos, value) in positions.iter().zip(values) {
                out[pos] = value;
            }
        }
        out
    }

    /// Exports a component's shard state from its owner (old numbering —
    /// called before the evolution event is broadcast).
    fn export(&self, owner: usize, k: usize) -> Result<Vec<u8>, DistError> {
        let mut payload = Vec::with_capacity(4);
        put_u32(&mut payload, k as u32);
        Ok(self.request(owner, REQ_EXPORT, &payload)?.payload)
    }

    /// Broadcasts an evolution event to every server (each applies it to
    /// its structure mirror and rekeys its owned shards).
    fn broadcast(&mut self, event: &NetworkEvent) -> Result<(), DistError> {
        self.seq += 1;
        let record = encode_record(self.seq, event);
        for server in 0..self.links.len() {
            self.request(server, REQ_APPLY_EVENT, &record)?;
        }
        Ok(())
    }

    /// Rewrites the owner map through an evolution: intact components
    /// inherit their server (sticky — their live walk state must not
    /// relocate), rebuilt components place fresh on the ring.
    fn rekey_owners(&mut self, remap: &[Option<usize>], rebuilt: &[usize]) {
        let old = std::mem::replace(&mut self.owner, vec![0; self.mirror.component_count()]);
        for (old_k, new_k) in remap.iter().enumerate() {
            if let Some(nk) = new_k {
                self.owner[*nk] = old[old_k];
            }
        }
        for &rk in rebuilt {
            self.owner[rk] = self.placement.server_of(rk);
        }
    }

    /// Admits a new candidate online — the distributed epoch of
    /// [`ProbabilisticNetwork::extend`]: export the about-to-dissolve
    /// components from their owners, broadcast the event (every server
    /// patches its structure and rekeys), re-place ownership, and
    /// rebuild the merged component at its new owner from the shipped
    /// states (ascending old component order, the exact single-process
    /// cross-combination order). The arrival's component may land on a
    /// different server than any absorbed source — that is the
    /// migration the differential suite certifies mid-run.
    ///
    /// [`ProbabilisticNetwork::extend`]:
    /// smn_core::ProbabilisticNetwork::extend
    pub fn extend(
        &mut self,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<CandidateId, DistError> {
        let old_owner = self.owner.clone();
        let (arrival, evo, _) =
            self.mirror.apply_extend(x, y, confidence).map_err(DistError::Schema)?;
        // export dissolved sources before any server learns of the event
        let mut shipments: Vec<(Vec<CandidateId>, Vec<u8>)> =
            Vec::with_capacity(evo.dissolved.len());
        for (old_k, members) in &evo.dissolved {
            shipments.push((members.clone(), self.export(old_owner[*old_k], *old_k)?));
        }
        self.broadcast(&NetworkEvent::Extend { a: x, b: y, confidence })?;
        self.feedback.grow();
        self.probs.push(0.0);
        self.rekey_owners(&evo.remap, &evo.rebuilt);
        let &[merged_k] = evo.rebuilt.as_slice() else {
            return Err(DistError::Protocol("an extension rebuilds exactly one component".into()));
        };
        let mut payload = Vec::new();
        put_u32(&mut payload, merged_k as u32);
        put_u32(&mut payload, shipments.len() as u32);
        for (members, state) in &shipments {
            put_ids(&mut payload, &members.iter().map(|c| c.0).collect::<Vec<u32>>());
            put_u32(&mut payload, state.len() as u32);
            payload.extend_from_slice(state);
        }
        let reply = self.request(self.owner[merged_k], REQ_REBUILD_MERGED, &payload)?;
        let mut rd = Rd::new(&reply.payload);
        for (rk, local) in read_shard_probs(&mut rd)? {
            scatter(&mut self.probs, self.mirror.components().members(rk), rk, &local)?;
        }
        self.generation += 1;
        self.bump_structure();
        if self.initial_entropy == 0.0 {
            self.initial_entropy = entropy_of(&self.probs);
        }
        Ok(arrival)
    }

    /// Retires a candidate online — the distributed epoch of
    /// [`ProbabilisticNetwork::retire`]: export the dissolving component
    /// from its owner, broadcast the event, re-place ownership, and
    /// rebuild every split part at its owner from the same shipped
    /// state (restrict + greedily re-maximize, the single-process
    /// carry-over).
    ///
    /// [`ProbabilisticNetwork::retire`]:
    /// smn_core::ProbabilisticNetwork::retire
    pub fn retire(&mut self, c: CandidateId) -> Result<(), DistError> {
        let old_owner = self.owner.clone();
        let (evo, _) = self.mirror.apply_retire(c).map_err(DistError::Schema)?;
        let (old_k, old_members) = evo
            .dissolved
            .first()
            .ok_or_else(|| DistError::Protocol("a retirement dissolves its component".into()))?;
        let shipment = self.export(old_owner[*old_k], *old_k)?;
        self.broadcast(&NetworkEvent::Retire { candidate: c })?;
        self.probs.remove(c.index());
        self.rekey_owners(&evo.remap, &evo.rebuilt);
        for &part_k in &evo.rebuilt {
            let mut payload = Vec::new();
            put_u32(&mut payload, part_k as u32);
            put_u32(&mut payload, c.0);
            put_ids(&mut payload, &old_members.iter().map(|m| m.0).collect::<Vec<u32>>());
            put_u32(&mut payload, shipment.len() as u32);
            payload.extend_from_slice(&shipment);
            let reply = self.request(self.owner[part_k], REQ_REBUILD_PART, &payload)?;
            let mut rd = Rd::new(&reply.payload);
            for (rk, local) in read_shard_probs(&mut rd)? {
                scatter(&mut self.probs, self.mirror.components().members(rk), rk, &local)?;
            }
        }
        self.feedback.retire(c);
        self.generation += 1;
        self.bump_structure();
        if self.initial_entropy == 0.0 {
            self.initial_entropy = entropy_of(&self.probs);
        }
        Ok(())
    }

    /// Re-stamps the structural epoch and every component epoch after an
    /// evolution step — components were renumbered, nothing cached by
    /// component id may be trusted again (same contract as the
    /// single-process network).
    fn bump_structure(&mut self) {
        let epoch = smn_core::gains::next_epoch();
        self.structure_epoch = epoch;
        self.shard_epochs = vec![epoch; self.mirror.component_count()];
    }

    /// Orderly cluster shutdown: every server acknowledges and exits its
    /// loop. Dropping a coordinator without calling this just closes the
    /// links — servers then exit with a link error instead of `Ok`.
    pub fn shutdown(&mut self) -> Result<(), DistError> {
        for server in 0..self.links.len() {
            self.request(server, REQ_SHUTDOWN, &[])?;
        }
        Ok(())
    }
}

/// Writes one shard's local-order probabilities into the global vector.
fn scatter(
    probs: &mut [f64],
    members: &[CandidateId],
    k: usize,
    local: &[f64],
) -> Result<(), DistError> {
    if members.len() != local.len() {
        return Err(DistError::Protocol(format!(
            "shard {k} reply carries {} probabilities for {} members",
            local.len(),
            members.len()
        )));
    }
    for (&g, &p) in members.iter().zip(local) {
        probs[g.index()] = p;
    }
    Ok(())
}

impl GainSource for DistNetwork {
    fn gain_cache(&self) -> &Mutex<GainCache> {
        &self.gain_cache
    }

    fn gain_structure_epoch(&self) -> u64 {
        self.structure_epoch
    }

    fn gain_shard_epochs(&self) -> &[u64] {
        &self.shard_epochs
    }

    fn gain_shard_of(&self, c: CandidateId) -> usize {
        self.mirror.component_of(c)
    }

    fn gain_shard_uncertain(&self, k: usize) -> Vec<CandidateId> {
        self.mirror
            .components()
            .members(k)
            .iter()
            .copied()
            .filter(|&c| {
                let p = self.probs[c.index()];
                p > 0.0 && p < 1.0
            })
            .collect()
    }

    fn compute_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        // buckets by component and batches per owning server — a refresh
        // of one dirty component therefore speaks to one server only
        DistNetwork::information_gains(self, pool)
    }
}

impl ServeModel for DistNetwork {
    fn network(&self) -> &MatchingNetwork {
        self.mirror.network()
    }

    fn feedback(&self) -> &Feedback {
        &self.feedback
    }

    fn probability(&self, c: CandidateId) -> f64 {
        self.probs[c.index()]
    }

    fn entropy(&self) -> f64 {
        entropy_of(&self.probs)
    }

    fn normalized_entropy(&self) -> f64 {
        if self.initial_entropy == 0.0 {
            0.0
        } else {
            entropy_of(&self.probs) / self.initial_entropy
        }
    }

    fn effort(&self) -> f64 {
        self.feedback.effort(self.mirror.network().candidate_count())
    }

    fn uncertain_candidates(&self) -> Vec<CandidateId> {
        self.probs
            .iter()
            .enumerate()
            .filter(|(_, &p)| p > 0.0 && p < 1.0)
            .map(|(i, _)| CandidateId::from_index(i))
            .collect()
    }

    fn shard_of(&self, c: CandidateId) -> usize {
        self.mirror.component_of(c)
    }

    fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        DistNetwork::information_gains(self, pool)
    }

    fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        DistNetwork::what_if_batch(self, queries)
    }

    fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        DistNetwork::assert_candidate(self, assertion)
    }
}

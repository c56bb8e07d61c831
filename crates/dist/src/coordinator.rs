//! The coordinator: one process owning all routing state, speaking the
//! [`proto`](crate::proto) protocol to N shard servers.
//!
//! [`DistNetwork`] holds the same two halves as a single-process
//! [`ProbabilisticNetwork`](smn_core::ProbabilisticNetwork): a
//! [`ShardHost`] for the network structure — here a zero-owned mirror
//! (conflict index, component partition, evolution logic, no samples) —
//! and a [`Ledger`] for the global state (feedback, posterior, entropy
//! baseline, gain-cache stamps) and every decision about it. Only the
//! shard work differs: every sample store lives on exactly one shard
//! server, so the coordinator routes each operation to the owners and
//! hands their replies (a shard's probabilities, a post-assertion shard
//! entropy, a gain) to the ledger, which composes them exactly as it does
//! in process. A distributed run is therefore *byte-identical* to the
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
//! Structure-level rejections (contradictory assertions, unknown ids,
//! duplicate arrivals) are typed errors that leave the cluster untouched,
//! exactly like the single-process engine. *Link* failures mid-operation
//! are different: the cluster's state is no longer known to be coherent,
//! so the query paths that cannot surface an error through their
//! [`ServeModel`] signatures panic with context instead of fabricating
//! values. Construction, evolution and shutdown return typed
//! [`DistError`]s.

use crate::error::DistError;
use crate::proto::{
    decode_exports, encode_evolve, encode_shipments, encode_what_if, read_shard_probs, REQ_ASSERT,
    REQ_BOOTSTRAP, REQ_EVOLVE, REQ_EXPORT, REQ_GAINS, REQ_SHUTDOWN, REQ_WHAT_IF, RESP_ERR, RESP_OK,
};
use crate::transport::Transport;
use smn_constraints::components::ComponentEvolution;
use smn_constraints::Placement;
use smn_core::feedback::{Assertion, Feedback};
use smn_core::persist::NetworkEvent;
use smn_core::shard::ShardingConfig;
use smn_core::{
    AssertError, GainCache, GainSource, Ledger, MatchingNetwork, SamplerConfig, ShardHost,
};
use smn_schema::{AttributeId, CandidateId};
use smn_service::ServeModel;
use smn_storage::format::{encode_snapshot, put_ids, Dec};
use smn_storage::wal::encode_record;
use smn_storage::Frame;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

/// The multi-process probabilistic network: full structure and global
/// bookkeeping here, sample state distributed over shard servers.
pub struct DistNetwork {
    /// Structure mirror with zero owned components — conflict index,
    /// component partition and evolution logic, no samples.
    mirror: ShardHost,
    /// Feedback, posterior, entropy baseline and gain-cache stamps.
    ledger: Ledger,
    /// The consistent-hash ring for *fresh* placements.
    placement: Placement,
    /// `owner[k]` = server index holding component `k`'s samples. Sticky:
    /// intact components keep their server through evolution.
    owner: Vec<usize>,
    /// One lockstep link per shard server. Mutexed so `&self` query
    /// paths (what-if, gains) can speak.
    links: Vec<Mutex<Box<dyn Transport>>>,
    /// WAL-style sequence stamping of the command stream.
    seq: u64,
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
        let mut this = Self {
            mirror,
            ledger: Ledger::new(Feedback::new(n), count),
            placement,
            owner,
            links: links.into_iter().map(Mutex::new).collect(),
            seq: 0,
        };
        // every server builds its owned shards concurrently — the point
        // of the cluster; replies scatter afterwards in server order
        // (order is irrelevant anyway: owned sets are disjoint)
        let requests = (0..this.links.len())
            .map(|server| {
                let owned: Vec<u32> =
                    (0..count).filter(|&k| this.owner[k] == server).map(|k| k as u32).collect();
                let mut payload = Vec::with_capacity(8 + owned.len() * 4 + image.len());
                put_ids(&mut payload, &owned);
                payload.extend_from_slice(&image);
                (server, payload)
            })
            .collect();
        for reply in this.exchange(REQ_BOOTSTRAP, requests) {
            this.scatter(&reply?)?;
        }
        this.ledger.set_baseline(None);
        Ok(this)
    }

    /// Hands a reply's shard probabilities to the ledger.
    fn scatter(&mut self, reply: &Frame) -> Result<(), DistError> {
        let mut d = Dec::new(&reply.payload);
        let entries = read_shard_probs(&mut d)?;
        d.finish("shard probabilities reply")?;
        for (k, local) in entries {
            self.ledger.scatter(&self.mirror, k, &local).map_err(DistError::Protocol)?;
        }
        Ok(())
    }

    /// Locks the link to `server`.
    fn link(&self, server: usize) -> Result<MutexGuard<'_, Box<dyn Transport>>, DistError> {
        self.links[server]
            .lock()
            .map_err(|_| DistError::Protocol(format!("link to server {server} poisoned")))
    }

    /// Reads `server`'s reply from its locked link.
    fn reply(server: usize, link: &mut dyn Transport) -> Result<Frame, DistError> {
        let frame = link.recv()?;
        match frame.kind {
            RESP_OK => Ok(frame),
            RESP_ERR => {
                Err(DistError::Remote(String::from_utf8_lossy(&frame.payload).into_owned()))
            }
            k => Err(DistError::Protocol(format!("server {server} answered kind {k}"))),
        }
    }

    /// One lockstep request/response exchange with a server.
    fn request(&self, server: usize, kind: u32, payload: &[u8]) -> Result<Frame, DistError> {
        let mut link = self.link(server)?;
        link.send(kind, payload)?;
        Self::reply(server, &mut **link)
    }

    /// Sends each `(server, payload)` request as a `kind` frame and
    /// returns the replies in request order. `requests` name each server
    /// at most once, in ascending order. Every request is written before
    /// any reply is read, so the servers compute concurrently while the
    /// coordinator waits on one thread. Each link stays locked from its
    /// write until its reply is read, and links are locked in ascending
    /// server order, so concurrent callers cannot deadlock.
    fn exchange(
        &self,
        kind: u32,
        requests: Vec<(usize, Vec<u8>)>,
    ) -> Vec<Result<Frame, DistError>> {
        debug_assert!(requests.windows(2).all(|w| w[0].0 < w[1].0), "one request per server");
        let sent: Vec<Result<_, DistError>> = requests
            .iter()
            .map(|(server, payload)| {
                let mut link = self.link(*server)?;
                link.send(kind, payload)?;
                Ok(link)
            })
            .collect();
        requests
            .iter()
            .zip(sent)
            .map(|((server, _), sent)| sent.and_then(|mut link| Self::reply(*server, &mut **link)))
            .collect()
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
        self.ledger.probabilities()
    }

    /// Monotone mutation counter (same discipline as the single-process
    /// network: bumped on integrated assertions and evolution only).
    pub fn generation(&self) -> u64 {
        self.ledger.generation()
    }

    /// [`Ledger::validate`] against the structure mirror: `Ok(true)`
    /// would mutate, `Ok(false)` is a same-way no-op, `Err` is the exact
    /// rejection. Pure local computation — conflicts never cross
    /// components, so the global state decides without a round trip.
    pub fn validate_assertion(&self, assertion: Assertion) -> Result<bool, AssertError> {
        self.ledger.validate(&self.mirror, assertion)
    }

    /// Integrates a user assertion: validates it, routes it to the owning
    /// server and records the shard's new posterior. Same-way
    /// re-assertions are successful no-ops; rejections leave every
    /// process untouched. Panics only on link failure.
    pub fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        if !self.validate_assertion(assertion)? {
            return Ok(());
        }
        let Assertion { candidate, approved } = assertion;
        let k = self.mirror.component_of(candidate);
        self.seq += 1;
        let record = encode_record(self.seq, &NetworkEvent::Assert { candidate, approved });
        let reply = self
            .request(self.owner[k], REQ_ASSERT, &record)
            .unwrap_or_else(|e| panic!("assert lost the cluster: {e}"));
        self.scatter(&reply).unwrap_or_else(|e| panic!("assert reply malformed: {e}"));
        self.ledger.record(k, assertion);
        Ok(())
    }

    /// Batched what-if, composed by [`Ledger::what_if_batch`]: only the
    /// post-assertion shard entropies `H'_k` are measured remotely, one
    /// request per owning server. Panics only on link failure.
    pub fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        self.ledger.what_if_batch(&self.mirror, queries, |live| {
            self.fan_out(live, |&(c, _)| c, REQ_WHAT_IF, encode_what_if, "what-if")
        })
    }

    /// Batch information gain: each server receives the flat pool of the
    /// candidates whose components it owns, and every value comes from the
    /// same per-shard kernel over the same local probabilities as the
    /// single-process scan (a gain does not depend on the rest of the
    /// pool). Panics only on link failure.
    pub fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        let encode = |batch: &[CandidateId]| {
            let mut request = Vec::with_capacity(8 + 4 * batch.len());
            put_ids(&mut request, &batch.iter().map(|c| c.0).collect::<Vec<_>>());
            request
        };
        self.fan_out(pool, |&c| c, REQ_GAINS, encode, "gain scan")
    }

    /// Groups positions by the server owning the component at each
    /// position, ascending by server — the one-request-per-server order
    /// [`exchange`](Self::exchange) takes.
    fn by_owner(&self, components: impl Iterator<Item = usize>) -> BTreeMap<usize, Vec<usize>> {
        let mut by_server: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (pos, k) in components.enumerate() {
            by_server.entry(self.owner[k]).or_default().push(pos);
        }
        by_server
    }

    /// Sends every server the items whose candidates its components own
    /// as one `kind` request, and returns the one-`f64`-per-item replies
    /// aligned with `items`. Panics only on link failure.
    fn fan_out<T: Copy>(
        &self,
        items: &[T],
        candidate: impl Fn(&T) -> CandidateId,
        kind: u32,
        encode: impl Fn(&[T]) -> Vec<u8>,
        what: &'static str,
    ) -> Vec<f64> {
        let by_server =
            self.by_owner(items.iter().map(|item| self.mirror.component_of(candidate(item))));
        let requests = by_server
            .iter()
            .map(|(&server, positions)| {
                (server, encode(&positions.iter().map(|&p| items[p]).collect::<Vec<_>>()))
            })
            .collect();
        let mut out = vec![0.0; items.len()];
        for (positions, reply) in by_server.values().zip(self.exchange(kind, requests)) {
            let reply = reply.unwrap_or_else(|e| panic!("{what} lost the cluster: {e}"));
            let values =
                Dec::new(&reply.payload).f64s(what).unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(values.len(), positions.len(), "{what} reply miscounted");
            for (&pos, value) in positions.iter().zip(values) {
                out[pos] = value;
            }
        }
        out
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

    /// Exports the `dissolved` shards from their owners — one
    /// [`REQ_EXPORT`] per owning server, all in one exchange — and
    /// encodes them as the shipment section, in dissolution order.
    fn export(&self, dissolved: &[(usize, Vec<CandidateId>)]) -> Result<Vec<u8>, DistError> {
        // old numbering: no server has seen the event yet
        let by_server = self.by_owner(dissolved.iter().map(|(k, _)| *k));
        let requests = by_server
            .iter()
            .map(|(&server, positions)| {
                let mut request = Vec::new();
                let ks: Vec<u32> = positions.iter().map(|&p| dissolved[p].0 as u32).collect();
                put_ids(&mut request, &ks);
                (server, request)
            })
            .collect();
        let mut states = vec![Vec::new(); dissolved.len()];
        for (positions, reply) in by_server.values().zip(self.exchange(REQ_EXPORT, requests)) {
            let exported = decode_exports(&reply?.payload)?;
            if exported.len() != positions.len() {
                return Err(DistError::Protocol("export reply miscounted".into()));
            }
            for (&pos, state) in positions.iter().zip(exported) {
                states[pos] = state;
            }
        }
        let shipments: Vec<_> = dissolved
            .iter()
            .zip(states)
            .map(|((_, members), state)| (members.as_slice(), state))
            .collect();
        Ok(encode_shipments(&shipments))
    }

    /// The distributed epoch of an evolution `event` the mirror has just
    /// applied: exports the dissolved shards from their owners (nothing
    /// when no component is rebuilt, as for a retiree alone in its
    /// component), re-places ownership, and sends every server one
    /// [`REQ_EVOLVE`] in one exchange — the event, the rebuilt components
    /// the server now owns and, only if it owns any, every dissolved
    /// shard once — so the servers apply the event and rebuild
    /// concurrently. Their replies carry the rebuilt shards'
    /// probabilities.
    fn evolve(&mut self, event: &NetworkEvent, evo: &ComponentEvolution) -> Result<(), DistError> {
        // with nothing rebuilt, no server reads a shipment
        let shipments =
            if evo.rebuilt.is_empty() { Vec::new() } else { self.export(&evo.dissolved)? };
        self.rekey_owners(&evo.remap, &evo.rebuilt);
        self.seq += 1;
        let requests = (0..self.links.len())
            .map(|server| {
                let owned: Vec<u32> = evo
                    .rebuilt
                    .iter()
                    .filter(|&&k| self.owner[k] == server)
                    .map(|&k| k as u32)
                    .collect();
                (server, encode_evolve(self.seq, event, &owned, &shipments))
            })
            .collect();
        for reply in self.exchange(REQ_EVOLVE, requests) {
            self.scatter(&reply?)?;
        }
        self.ledger.evolved(&self.mirror);
        Ok(())
    }

    /// Admits a new candidate online — the distributed epoch of
    /// [`ProbabilisticNetwork::extend`]. The merged component is rebuilt
    /// at its new owner from the absorbed shards' exports (ascending old
    /// component order, the exact single-process cross-combination
    /// order), and may land on a different server than any absorbed
    /// source — that is the migration the differential suite certifies
    /// mid-run.
    ///
    /// [`ProbabilisticNetwork::extend`]:
    /// smn_core::ProbabilisticNetwork::extend
    pub fn extend(
        &mut self,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<CandidateId, DistError> {
        let (arrival, evo, _) =
            self.mirror.apply_extend(x, y, confidence).map_err(DistError::Schema)?;
        self.ledger.grow();
        self.evolve(&NetworkEvent::Extend { a: x, b: y, confidence }, &evo)?;
        Ok(arrival)
    }

    /// Retires a candidate online — the distributed epoch of
    /// [`ProbabilisticNetwork::retire`]. Every split part is rebuilt at
    /// its owner from the dissolved shard's export (restrict + greedily
    /// re-maximize, the single-process carry-over).
    ///
    /// [`ProbabilisticNetwork::retire`]:
    /// smn_core::ProbabilisticNetwork::retire
    pub fn retire(&mut self, c: CandidateId) -> Result<(), DistError> {
        let (evo, _) = self.mirror.apply_retire(c).map_err(DistError::Schema)?;
        self.ledger.retire(c);
        self.evolve(&NetworkEvent::Retire { candidate: c }, &evo)
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

impl GainSource for DistNetwork {
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
        self.mirror.component_of(c)
    }

    fn gain_shard_uncertain(&self, k: usize) -> Vec<CandidateId> {
        self.ledger.uncertain_members(&self.mirror, k)
    }

    fn compute_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        // batches per owning server — a refresh of one dirty component
        // therefore speaks to one server only
        DistNetwork::information_gains(self, pool)
    }
}

impl ServeModel for DistNetwork {
    fn network(&self) -> &MatchingNetwork {
        self.mirror.network()
    }

    fn feedback(&self) -> &Feedback {
        self.ledger.feedback()
    }

    fn probability(&self, c: CandidateId) -> f64 {
        self.ledger.probability(c)
    }

    fn entropy(&self) -> f64 {
        self.ledger.entropy()
    }

    fn normalized_entropy(&self) -> f64 {
        self.ledger.normalized_entropy()
    }

    fn effort(&self) -> f64 {
        self.ledger.effort()
    }

    fn uncertain_candidates(&self) -> Vec<CandidateId> {
        self.ledger.uncertain_candidates()
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

//! Serializable state and event types for durability.
//!
//! This module defines the *logical* persistence boundary of the core
//! model; the binary encoding lives in the `smn-storage` crate, which
//! cannot reach the private fields of
//! [`ProbabilisticNetwork`] directly. Two
//! halves:
//!
//! * **State** — [`NetworkState`] is a plain-data image of a
//!   probabilistic network: catalog/graph/candidate construction data,
//!   the conflict index's *primary* data (posting lists + triple table;
//!   every dense query structure is re-derived on load), the feedback
//!   sets, and the per-store sample state
//!   ([`StoreState`]). Extraction and reconstruction are
//!   [`ProbabilisticNetwork::to_state`](crate::ProbabilisticNetwork::to_state)
//!   / [`from_state`](crate::ProbabilisticNetwork::from_state); the round
//!   trip is lossless (probabilities are *recomputed* from the restored
//!   samples through the same kernels, hence bit-identical).
//! * **Events** — [`NetworkEvent`] is the write-ahead-log alphabet:
//!   assertions, candidate arrivals and retirements. The serving
//!   engines append each applied event to `smn-storage`'s durable
//!   store; crash recovery replays the suffix onto a loaded snapshot via
//!   [`apply_event`], with [`apply_to_history`] as the one
//!   session-history rule (retirement drops and renumbers assertions;
//!   [`Session::retire`](crate::Session::retire) calls it too).

use crate::feedback::{Assertion, Feedback};
use crate::probability::ProbabilisticNetwork;
use crate::sampling::SamplerConfig;
use crate::shard::ShardingConfig;
use smn_constraints::ConstraintConfig;
use smn_schema::{AttributeId, CandidateId};

/// One schema of the serialized catalog: its name plus its attribute
/// names in id order. Re-adding schemas and attributes in this order
/// through `CatalogBuilder` reassigns the identical dense ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaState {
    /// Schema name (unique within the catalog).
    pub name: String,
    /// Attribute names in insertion (= id) order.
    pub attributes: Vec<String>,
}

/// One serialized candidate correspondence (endpoints by attribute id,
/// in stored endpoint order). Re-adding candidates in id order rebuilds
/// the candidate set with identical dense ids.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateState {
    /// First endpoint attribute id.
    pub a: u32,
    /// Second endpoint attribute id.
    pub b: u32,
    /// Matcher confidence.
    pub confidence: f64,
}

/// Serialized feedback: the approved/disapproved id lists over a
/// universe of `len` candidates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackState {
    /// Candidate universe size the bitsets were sized to.
    pub len: usize,
    /// Approved candidate ids, ascending.
    pub approved: Vec<u32>,
    /// Disapproved candidate ids, ascending.
    pub disapproved: Vec<u32>,
}

impl FeedbackState {
    /// Extracts the id lists of `feedback`.
    pub fn of(feedback: &Feedback) -> Self {
        Self {
            len: feedback.approved().capacity(),
            approved: feedback.approved().iter().map(|c| c.0).collect(),
            disapproved: feedback.disapproved().iter().map(|c| c.0).collect(),
        }
    }

    /// Rebuilds the feedback bitsets for a universe of `n` candidates.
    /// Fails (never panics) on a size mismatch, out-of-range ids or a
    /// candidate asserted both ways.
    pub fn build(&self, n: usize) -> Result<Feedback, String> {
        if self.len != n {
            return Err(format!("feedback sized for {} candidates, network has {n}", self.len));
        }
        let mut fb = Feedback::new(n);
        for &c in &self.approved {
            if c as usize >= n {
                return Err(format!("approved candidate {c} out of range"));
            }
            fb.approve(CandidateId(c));
        }
        for &c in &self.disapproved {
            if c as usize >= n {
                return Err(format!("disapproved candidate {c} out of range"));
            }
            if fb.approved().contains(CandidateId(c)) {
                return Err(format!("candidate {c} both approved and disapproved"));
            }
            fb.disapprove(CandidateId(c));
        }
        Ok(fb)
    }
}

/// Serialized sample-store state: the distinct instances Ω\* in
/// discovery order (each as an ascending candidate-id list) with their
/// visit counts, plus the sampler config and the exhaustion flag.
/// The transposed matrix and dedup map are derived on load by
/// re-recording the instances in order — bit-identically.
///
/// The store carries its *own* [`SamplerConfig`]: evolved shards are
/// reseeded per merge/split event, so their seeds differ from the
/// network-level config.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreState {
    /// The config the store runs with (seed included).
    pub config: SamplerConfig,
    /// Candidate universe size (shard-local for shard stores).
    pub candidate_count: usize,
    /// Whether the store concluded `Ω* = Ω`.
    pub exhausted: bool,
    /// Distinct instances in discovery order, each as ascending ids.
    pub samples: Vec<Vec<u32>>,
    /// Per-instance emission counts, aligned with `samples`.
    pub counts: Vec<u64>,
}

/// One serialized shard: its local feedback and store. The shard's
/// restricted sub-index is *not* serialized — it is a pure function of
/// the global index and the component partition and is re-derived on
/// load (`ConflictIndex::shard_component`).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardState {
    /// Shard-local feedback (ids in shard-local numbering).
    pub feedback: FeedbackState,
    /// Shard-local sample store.
    pub store: StoreState,
}

/// The full serializable image of a
/// [`ProbabilisticNetwork`].
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkState {
    /// Catalog schemas in id order.
    pub schemas: Vec<SchemaState>,
    /// Interaction-graph vertex count (= schema count).
    pub graph_vertices: usize,
    /// Interaction-graph edges in stored (normalized insertion) order.
    pub graph_edges: Vec<(u32, u32)>,
    /// Candidate correspondences in id order.
    pub candidates: Vec<CandidateState>,
    /// Which constraints the conflict index enforces.
    pub constraints: ConstraintConfig,
    /// Primary conflict data: `pair_conflicts[c]` = one-to-one partners.
    pub pair_conflicts: Vec<Vec<u32>>,
    /// Primary conflict data: the canonical cycle-triple table.
    pub triples: Vec<[u32; 3]>,
    /// Global feedback.
    pub feedback: FeedbackState,
    /// Network-level sampler config.
    pub sampler: SamplerConfig,
    /// The partition config; `enabled == false` is the whole partition.
    pub sharding: ShardingConfig,
    /// The construction-time entropy baseline.
    pub initial_entropy: f64,
    /// Component member lists (global ids, canonical order) — the single
    /// list `0..n` for the whole partition.
    pub members: Vec<Vec<u32>>,
    /// Per-component shard states, aligned with `members`.
    pub shards: Vec<ShardState>,
}

/// One durable event of the write-ahead log: exactly the mutations a
/// [`Session`](crate::Session) or the reconciliation service applies to
/// a [`ProbabilisticNetwork`] between
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NetworkEvent {
    /// A user assertion that was *applied* (same-way no-ops included;
    /// rejected assertions are never journaled).
    Assert {
        /// The asserted candidate.
        candidate: CandidateId,
        /// The applied verdict.
        approved: bool,
    },
    /// A candidate arrival ([`ProbabilisticNetwork::extend`]).
    Extend {
        /// First endpoint.
        a: AttributeId,
        /// Second endpoint.
        b: AttributeId,
        /// Matcher confidence.
        confidence: f64,
    },
    /// A candidate retirement ([`ProbabilisticNetwork::retire`]).
    Retire {
        /// The retired candidate (pre-retirement id).
        candidate: CandidateId,
    },
}

/// Applies one event to a recovered network — the replay half of crash
/// recovery. Mirrors exactly what the live path did when the event was
/// journaled; a failure (which a faithfully replayed log never
/// produces) is reported, never panicked.
pub fn apply_event(pn: &mut ProbabilisticNetwork, event: &NetworkEvent) -> Result<(), String> {
    match *event {
        NetworkEvent::Assert { candidate, approved } => {
            if candidate.index() >= pn.network().candidate_count() {
                return Err(format!("assert of unknown candidate {candidate}"));
            }
            pn.assert_candidate(Assertion { candidate, approved }).map_err(|e| e.to_string())
        }
        NetworkEvent::Extend { a, b, confidence } => {
            pn.extend(a, b, confidence).map(|_| ()).map_err(|e| e.to_string())
        }
        NetworkEvent::Retire { candidate } => pn.retire(candidate).map_err(|e| e.to_string()),
    }
}

/// The session-history rule for one event, shared by
/// [`Session`](crate::Session), the serving core and crash recovery: an
/// applied assertion appends, a retirement drops the retiree's
/// assertions and renumbers later ids down by one, an arrival changes
/// nothing.
pub fn apply_to_history(history: &mut Vec<Assertion>, event: &NetworkEvent) {
    match *event {
        NetworkEvent::Assert { candidate, approved } => {
            history.push(Assertion { candidate, approved });
        }
        NetworkEvent::Retire { candidate } => {
            history.retain(|a| a.candidate != candidate);
            for a in history.iter_mut() {
                if a.candidate > candidate {
                    a.candidate = CandidateId(a.candidate.0 - 1);
                }
            }
        }
        NetworkEvent::Extend { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_mirror_follows_retirement_renumbering() {
        let mut h = Vec::new();
        apply_to_history(
            &mut h,
            &NetworkEvent::Assert { candidate: CandidateId(1), approved: true },
        );
        apply_to_history(
            &mut h,
            &NetworkEvent::Assert { candidate: CandidateId(3), approved: false },
        );
        apply_to_history(
            &mut h,
            &NetworkEvent::Extend { a: AttributeId(0), b: AttributeId(1), confidence: 0.5 },
        );
        apply_to_history(&mut h, &NetworkEvent::Retire { candidate: CandidateId(1) });
        assert_eq!(h, vec![Assertion { candidate: CandidateId(2), approved: false }]);
    }

    #[test]
    fn network_state_round_trips_monolithic_and_sharded() {
        use crate::sampling::SamplerConfig;
        use crate::shard::ShardingConfig;
        let sampler = SamplerConfig { seed: 7, ..SamplerConfig::default() };
        for sharding in [ShardingConfig::disabled(), ShardingConfig::default()] {
            let net = crate::testutil::fig1_network();
            let mut pn = ProbabilisticNetwork::new_sharded(net, sampler, sharding);
            pn.assert_candidate(Assertion { candidate: CandidateId(2), approved: true }).unwrap();
            let state = pn.to_state();
            let restored = ProbabilisticNetwork::from_state(&state).unwrap();
            assert_eq!(restored.to_state(), state, "state extraction is stable");
            assert_eq!(restored.probabilities(), pn.probabilities(), "recompute is bit-exact");
            assert_eq!(restored.entropy(), pn.entropy());
            assert_eq!(restored.effort(), pn.effort());
            assert_eq!(restored.is_sharded(), pn.is_sharded());
        }
    }

    #[test]
    fn replay_reproduces_the_live_run() {
        use crate::sampling::SamplerConfig;
        let sampler = SamplerConfig { seed: 11, ..SamplerConfig::default() };
        let mut live = ProbabilisticNetwork::new(crate::testutil::fig1_network(), sampler);
        let mut journal: Vec<NetworkEvent> = Vec::new();
        let events = [
            NetworkEvent::Assert { candidate: CandidateId(2), approved: true },
            NetworkEvent::Retire { candidate: CandidateId(4) },
            NetworkEvent::Extend { a: AttributeId(0), b: AttributeId(3), confidence: 0.8 },
            NetworkEvent::Assert { candidate: CandidateId(0), approved: false },
        ];
        let mut history = Vec::new();
        for e in &events {
            apply_event(&mut live, e).unwrap();
            journal.push(*e);
            apply_to_history(&mut history, e);
        }
        // recover: rebuild from the pre-run state image and replay the log
        let mut recovered = ProbabilisticNetwork::from_state(
            &ProbabilisticNetwork::new(crate::testutil::fig1_network(), sampler).to_state(),
        )
        .unwrap();
        let mut recovered_history = Vec::new();
        for e in &journal {
            apply_event(&mut recovered, e).unwrap();
            apply_to_history(&mut recovered_history, e);
        }
        assert_eq!(recovered.to_state(), live.to_state());
        assert_eq!(recovered.probabilities(), live.probabilities());
        assert_eq!(recovered_history, history);
        // c2's assertion survives the retirement of the *later* id c4
        assert_eq!(
            history,
            vec![
                Assertion { candidate: CandidateId(2), approved: true },
                Assertion { candidate: CandidateId(0), approved: false },
            ]
        );
    }

    #[test]
    fn feedback_state_round_trips() {
        let mut fb = Feedback::new(6);
        fb.approve(CandidateId(1));
        fb.disapprove(CandidateId(4));
        let state = FeedbackState::of(&fb);
        assert_eq!(state.build(6).unwrap(), fb);
        assert!(state.build(5).is_err(), "size mismatch is a typed error");
        let bad = FeedbackState { len: 6, approved: vec![1], disapproved: vec![1] };
        assert!(bad.build(6).is_err(), "double assertion is a typed error");
        let oob = FeedbackState { len: 6, approved: vec![9], disapproved: vec![] };
        assert!(oob.build(6).is_err(), "out-of-range id is a typed error");
    }
}

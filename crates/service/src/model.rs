//! The serving-model abstraction.
//!
//! [`ServeModel`] is the exact query/commit surface the round loop
//! ([`ReconciliationService`](crate::ReconciliationService)) and the
//! [`Dispatcher`](crate::Dispatcher) need from the probabilistic network
//! they serve. [`smn_core::ProbabilisticNetwork`] is the canonical
//! in-process implementation; a distributed coordinator that owns the
//! same state across shard-server processes implements the same trait
//! and slots into the identical service unchanged — the round loop,
//! lease schedule and report format never know which one they drive.
//!
//! Every method is required to be a pure function of the model's
//! logical state (the network structure, the feedback set and the
//! per-component sample stores), so two implementations holding the
//! same logical state are interchangeable bit for bit. That is the
//! contract the distributed differential suite certifies.

use smn_core::feedback::{Assertion, Feedback};
use smn_core::{AssertError, GainSource, MatchingNetwork, ProbabilisticNetwork};
use smn_schema::CandidateId;

/// The query/commit surface a reconciliation service drives.
///
/// The round loop drives the model from one thread and makes one call
/// per batch; any fan-out happens inside the model (the in-process
/// network runs its per-shard batches on the worker pool, a distributed
/// coordinator sends one request per shard server), so the trait does
/// not require `Sync`. [`GainSource`] is a supertrait because the
/// dispatcher selects through the model's incremental gain cache — a
/// model that can price gains can always price them incrementally, and
/// the epoch contract (globally unique stamps per real mutation) is
/// implementable by construction wherever the mutation entry points are.
pub trait ServeModel: GainSource {
    /// The matching network being reconciled.
    fn network(&self) -> &MatchingNetwork;

    /// The standing user feedback.
    fn feedback(&self) -> &Feedback;

    /// Inclusion probability of one candidate.
    fn probability(&self, c: CandidateId) -> f64;

    /// Network uncertainty (Shannon entropy over inclusion variables).
    fn entropy(&self) -> f64;

    /// Entropy relative to the pre-feedback baseline.
    fn normalized_entropy(&self) -> f64;

    /// Fraction of candidates asserted so far.
    fn effort(&self) -> f64;

    /// Candidates with `0 < p < 1`, in id order.
    fn uncertain_candidates(&self) -> Vec<CandidateId>;

    /// The conflict component (shard) owning a candidate.
    fn shard_of(&self, c: CandidateId) -> usize;

    /// One-step expected information gain for each pool candidate.
    fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64>;

    /// Exact posterior entropy of each hypothetical assertion, priced
    /// per shard without mutating the model. Partitioning a batch must
    /// never change its values.
    fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64>;

    /// Commits one assertion (validated; inconsistent approvals are the
    /// caller's fallback decision).
    fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError>;

    /// The in-process [`ProbabilisticNetwork`] behind this model, if it
    /// is one. Durability attachment (snapshot + WAL publication) needs
    /// the concrete network; remote-backed models return `None` and the
    /// service surfaces a typed
    /// [`DurabilityError::RemoteModel`](crate::DurabilityError).
    fn as_local(&self) -> Option<&ProbabilisticNetwork> {
        None
    }
}

impl ServeModel for ProbabilisticNetwork {
    fn network(&self) -> &MatchingNetwork {
        ProbabilisticNetwork::network(self)
    }

    fn feedback(&self) -> &Feedback {
        ProbabilisticNetwork::feedback(self)
    }

    fn probability(&self, c: CandidateId) -> f64 {
        ProbabilisticNetwork::probability(self, c)
    }

    fn entropy(&self) -> f64 {
        ProbabilisticNetwork::entropy(self)
    }

    fn normalized_entropy(&self) -> f64 {
        ProbabilisticNetwork::normalized_entropy(self)
    }

    fn effort(&self) -> f64 {
        ProbabilisticNetwork::effort(self)
    }

    fn uncertain_candidates(&self) -> Vec<CandidateId> {
        ProbabilisticNetwork::uncertain_candidates(self)
    }

    fn shard_of(&self, c: CandidateId) -> usize {
        ProbabilisticNetwork::shard_of(self, c)
    }

    fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        ProbabilisticNetwork::information_gains(self, pool)
    }

    fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        ProbabilisticNetwork::what_if_batch(self, queries)
    }

    fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        ProbabilisticNetwork::assert_candidate(self, assertion)
    }

    fn as_local(&self) -> Option<&ProbabilisticNetwork> {
        Some(self)
    }
}

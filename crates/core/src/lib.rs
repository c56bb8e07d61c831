//! # smn-core
//!
//! The paper's contribution: *pay-as-you-go reconciliation* on a
//! probabilistic matching network (§II–§V of "Pay-as-you-go Reconciliation
//! in Schema Matching Networks", ICDE 2014).
//!
//! The crate implements the three framework steps of Fig. 2:
//!
//! 1. **Probability computation** (§III). [`probability::ProbabilisticNetwork`]
//!    assigns every candidate correspondence the probability of appearing in
//!    a *matching instance* (maximal, constraint-consistent, feedback-
//!    respecting candidate subset, Definition 1). Exact probabilities
//!    ([`exact`]) enumerate all instances; the tractable path is the
//!    non-uniform sampler of Algorithm 3 ([`sampling`]: random walk +
//!    simulated-annealing acceptance `1 − e^{−Δ}`) with view maintenance
//!    under user assertions. Because the constraints only couple
//!    candidates that share a conflict, the model factorizes exactly over
//!    conflict components; the [`shard`] module materializes that as one
//!    independent store per component, making assertions and gain scans
//!    local instead of global.
//! 2. **Uncertainty reduction** (§IV). Network uncertainty is Shannon
//!    entropy over inclusion variables ([`entropy`]); the expert is guided
//!    by one-step expected information gain ([`selection`]), driven through
//!    the generic reduction loop of Algorithm 1 ([`mod@reconcile`]) against an
//!    [`oracle::Oracle`].
//! 3. **Instantiation** (§V). [`instantiate`] approximates the NP-complete
//!    minimal-repair/max-likelihood instantiation problem (Theorem 1) with
//!    Algorithm 2: greedy pick among samples, then randomized local search
//!    with roulette-wheel proposals, a tabu queue and the greedy
//!    [`instance::repair`] of Algorithm 4.
//!
//! [`engine::Session`] ties the steps into the pay-as-you-go loop a
//! downstream application drives. See the repository examples.

// Lets the shared fixture source (smn-testkit's `fixtures.rs`, included
// below as `testutil`) refer to this crate by its external name.
extern crate self as smn_core;

pub mod echo;
pub mod engine;
pub mod entropy;
pub mod exact;
pub mod feedback;
pub mod fenwick;
pub mod gains;
pub mod instance;
pub mod instantiate;
pub mod ledger;
pub mod metrics;
pub mod network;
pub mod oracle;
pub mod persist;
pub mod pool;
pub mod probability;
pub mod reconcile;
pub mod remote;
pub mod sampling;
pub mod selection;
pub mod shard;

/// The shared workspace fixtures (`smn-testkit`), included at the source
/// level: unit tests compile this crate separately from the library the
/// testkit links, so importing the testkit *crate* here would yield
/// mismatched types — importing its *source* does not. Fixtures used only
/// by the integration suites are dead in this inclusion, hence the allow.
#[cfg(test)]
#[path = "../../testkit/src/fixtures.rs"]
#[allow(dead_code)]
pub(crate) mod testutil;

pub use echo::Echo;
pub use engine::{Question, Session, SessionConfig, Strategy};
pub use entropy::{binary_entropy, entropy_of};
pub use feedback::{Assertion, Feedback};
pub use gains::{GainCache, GainSource};
pub use instantiate::{Instantiation, InstantiationConfig};
pub use ledger::Ledger;
pub use metrics::{kl_divergence, kl_ratio, PrecisionRecall};
pub use network::MatchingNetwork;
pub use oracle::{CrowdOracle, GroundTruthOracle, NoisyOracle, Oracle};
pub use persist::{NetworkEvent, NetworkState};
pub use probability::{AssertError, CommitOutcome, ProbabilisticNetwork};
pub use reconcile::{reconcile, ReconciliationGoal, StepOutcome, TracePoint};
pub use sampling::SamplerConfig;
pub use selection::{
    ConfidenceOrderSelection, InformationGainSelection, MaxEntropySelection, RandomSelection,
    SelectionStrategy, TIE_EPSILON,
};
pub use shard::{ShardHost, ShardingConfig};

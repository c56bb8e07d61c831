//! Sparse private views over a shared base network.
//!
//! A reader that wants to see its own not-yet-committed assertions — a
//! serving session steering its next question by the answers it already
//! gave — needs the base network with those assertions applied. A full
//! [`ProbabilisticNetwork::fork`] copies the `O(|C|)` probability vector
//! and the per-shard pointer and epoch vectors even though an assertion
//! only ever rewrites its own component. An [`Echo`] keeps exactly the
//! difference: for each component the reader asserted into, a private
//! copy of that one shard (the same thin copy-on-write clone a fork's
//! first write makes) and its probabilities in local member order.
//! Everything else is read from the base, so an echo costs what its own
//! shards cost.
//!
//! The queries on [`ProbabilisticNetwork`] answer for *base + echo* and
//! match a fork that received the same assertions bit for bit: the
//! mutation runs through the shard kernel every write path shares, and a
//! shard's probabilities are recomputed whole, as
//! [`assert_candidate`](ProbabilisticNetwork::assert_candidate) does.

use crate::feedback::Assertion;
use crate::probability::{AssertError, ProbabilisticNetwork};
use crate::shard::{snapshot_probabilities, ShardSnapshot};
use smn_schema::CandidateId;
use std::collections::BTreeMap;

/// One reader's private assertions over a base network, kept per echoed
/// component. An echo is only meaningful against the base it was
/// started on: component ids and local orders are that base's.
#[derive(Debug, Clone, Default)]
pub struct Echo {
    shards: BTreeMap<usize, EchoShard>,
}

/// One echoed component: the private shard and its local-order
/// probabilities.
#[derive(Debug, Clone)]
struct EchoShard {
    snapshot: ShardSnapshot,
    probs: Vec<f64>,
}

impl Echo {
    /// An echo with no assertions: reads as the base itself.
    pub fn new() -> Self {
        Self::default()
    }

    /// The components this echo diverges from its base in, ascending.
    pub fn shards(&self) -> impl Iterator<Item = usize> + '_ {
        self.shards.keys().copied()
    }

    /// Whether the echo diverges from its base in component `k`.
    pub fn contains_shard(&self, k: usize) -> bool {
        self.shards.contains_key(&k)
    }
}

impl ProbabilisticNetwork {
    /// [`validate_assertion`](Self::validate_assertion) against this
    /// network with `echo` applied: `Ok(true)` would mutate, `Ok(false)`
    /// is a same-way re-assertion, errors are the ones a fork carrying the
    /// echo's assertions would return.
    pub fn echo_validate(&self, echo: &Echo, assertion: Assertion) -> Result<bool, AssertError> {
        let Assertion { candidate, approved } = assertion;
        let echoed =
            self.host().locate(candidate).and_then(|(k, lc)| Some((echo.shards.get(&k)?, lc)));
        match echoed {
            Some((shard, lc)) => shard.snapshot.validate(candidate, lc, approved),
            None => self.validate_assertion(assertion),
        }
    }

    /// Applies `assertion` to `echo` — never to `self` — and reports it
    /// like [`echo_validate`](Self::echo_validate): `Ok(true)` when the
    /// echo changed. The first mutation of a component copies that one
    /// shard from this network; later ones write the private copy in
    /// place. Rejected and same-way assertions leave the echo untouched.
    pub fn echo_assert(&self, echo: &mut Echo, assertion: Assertion) -> Result<bool, AssertError> {
        if !self.echo_validate(echo, assertion)? {
            return Ok(false);
        }
        let Assertion { candidate, approved } = assertion;
        let (k, lc) = self.host().locate(candidate).expect("validated candidate");
        let shard = echo.shards.entry(k).or_insert_with(|| EchoShard {
            snapshot: self.host().snapshot(k).expect("every shard is owned").clone(),
            probs: Vec::new(),
        });
        shard.snapshot.integrate(lc, approved);
        shard.probs = snapshot_probabilities(&shard.snapshot);
        Ok(true)
    }

    /// The probability of `c` in this network with `echo` applied.
    pub fn echo_probability(&self, echo: &Echo, c: CandidateId) -> f64 {
        let (k, lc) = self.host().locate(c).expect("a candidate of the base");
        match echo.shards.get(&k) {
            Some(shard) => shard.probs[lc.index()],
            None => self.probability(c),
        }
    }

    /// Whether `c` is asserted in this network with `echo` applied.
    pub fn echo_is_asserted(&self, echo: &Echo, c: CandidateId) -> bool {
        let (k, lc) = self.host().locate(c).expect("a candidate of the base");
        match echo.shards.get(&k) {
            Some(shard) => shard.snapshot.feedback.is_asserted(lc),
            None => self.feedback().is_asserted(c),
        }
    }
}

//! The global state of Algorithm 1's loop, written once: the feedback
//! `F`, the posterior `P` (Eq. 2), the entropy baseline (Eq. 3), the gain
//! cache and its stamps, with every rule about them. Both
//! [`ProbabilisticNetwork`](crate::ProbabilisticNetwork) and the
//! `smn-dist` coordinator hold a [`Ledger`] and hand it only shard-local
//! results (probabilities, post-assertion shard entropies), computed on
//! their own [`ShardHost`] or on shard servers. They agree bit for bit
//! because they share these rules and floating-point expressions. The
//! structure is the caller's: methods that need the conflict index or the
//! partition take its [`ShardHost`].
//!
//! `H(C, P) = Σ_c h(p_c)` is kept as its terms: beside `P` the ledger
//! holds `h(p_c)` per candidate, which [`scatter`](Ledger::scatter),
//! [`grow`](Ledger::grow) and [`retire`](Ledger::retire) write along with
//! `p_c`, so a write costs `h` of the members it touches. The total is
//! memoized per mutation: the first read after a write sums the terms in
//! candidate order, every later read returns that value. Those are the
//! values and the fold order of [`entropy_of`] over `P`, so the total is
//! the same to the bit.
//!
//! A fork does not copy the terms: every pinned published snapshot is a
//! fork, and the terms would double what each one holds. It carries the
//! parent's memoized total instead, so an unmutated fork answers
//! [`entropy`](Ledger::entropy) without them (or with one [`entropy_of`]
//! pass if the parent had not been read), and its first write builds the
//! terms from its own `P`.

use crate::entropy::{binary_entropy, entropy_of};
use crate::feedback::{Assertion, Feedback};
use crate::gains::GainCache;
use crate::probability::AssertError;
use crate::shard::ShardHost;
use smn_constraints::ConflictIndex;
use smn_schema::CandidateId;
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// Feedback, posterior, entropy baseline, gain cache and its stamps of
/// one network. `Clone` is a fork: everything is copied except the
/// entropy terms, which a fork rebuilds on its first write, and the gain
/// cache, which a fork starts empty.
#[derive(Debug)]
pub struct Ledger {
    feedback: Feedback,
    /// The global Eq. 2 posterior, indexed by candidate id.
    probs: Vec<f64>,
    /// `binary_entropy(probs[c])` per candidate, written with `probs`;
    /// `None` in a fork that has not been written yet.
    terms: Option<Vec<f64>>,
    /// `H(C, P)` of `probs`, computed on first read and cleared by every
    /// write to `probs`.
    total: OnceLock<f64>,
    initial_entropy: f64,
    /// Monotone mutation counter: bumped on every change to the model
    /// (integrated assertion, extend, retire) and *not* on no-ops or
    /// rejected assertions. Not serialized — a restored network restarts
    /// at 0.
    generation: u64,
    /// Per-shard mutation epochs for the gain cache: the generation at
    /// the shard's last change, re-stamped whenever the shard's state
    /// actually changes. Indexed by shard id.
    shard_epochs: Vec<u64>,
    /// The structural epoch: the generation of the last extend / retire,
    /// which renumber shards. See [`crate::gains`].
    structure_epoch: u64,
    /// This network's Eq. 5 gain cache, never serialized.
    gain_cache: Mutex<GainCache>,
}

impl Clone for Ledger {
    fn clone(&self) -> Self {
        Self {
            feedback: self.feedback.clone(),
            probs: self.probs.clone(),
            terms: None,
            total: self.total.clone(),
            initial_entropy: self.initial_entropy,
            generation: self.generation,
            shard_epochs: self.shard_epochs.clone(),
            structure_epoch: self.structure_epoch,
            gain_cache: Mutex::default(),
        }
    }
}

impl Ledger {
    /// A ledger over `shards` components carrying `feedback`, with an
    /// all-zero posterior: [`scatter`](Self::scatter) every shard, then
    /// [`set_baseline`](Self::set_baseline).
    pub fn new(feedback: Feedback, shards: usize) -> Self {
        let n = feedback.approved().capacity();
        Self {
            probs: vec![0.0; n],
            terms: Some(vec![binary_entropy(0.0); n]),
            total: OnceLock::new(),
            feedback,
            initial_entropy: 0.0,
            generation: 0,
            shard_epochs: vec![0; shards],
            structure_epoch: 0,
            gain_cache: Mutex::default(),
        }
    }

    /// Fixes the entropy baseline once the posterior is assembled: the
    /// given one (a restored network's), or the current entropy.
    pub fn set_baseline(&mut self, initial_entropy: Option<f64>) {
        self.initial_entropy = initial_entropy.unwrap_or_else(|| self.entropy());
    }

    /// The accumulated feedback `F`.
    pub fn feedback(&self) -> &Feedback {
        &self.feedback
    }

    /// The probability vector `P`, indexed by candidate id.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Probability of one candidate (Eq. 2).
    pub fn probability(&self, c: CandidateId) -> f64 {
        self.probs[c.index()]
    }

    /// The construction-time entropy baseline.
    pub fn initial_entropy(&self) -> f64 {
        self.initial_entropy
    }

    /// The mutation generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// This network's gain cache.
    pub fn gain_cache(&self) -> &Mutex<GainCache> {
        &self.gain_cache
    }

    /// The structural epoch.
    pub fn structure_epoch(&self) -> u64 {
        self.structure_epoch
    }

    /// Per-shard mutation epochs, indexed by shard id.
    pub fn shard_epochs(&self) -> &[u64] {
        &self.shard_epochs
    }

    /// Network uncertainty `H(C, P)` in bits (Eq. 3): the sum of the
    /// cached terms (or [`entropy_of`] the posterior in a fork without
    /// them), computed at most once per mutation of `P` and bit-equal to a
    /// fresh computation.
    pub fn entropy(&self) -> f64 {
        *self.total.get_or_init(|| match &self.terms {
            Some(terms) => terms.iter().sum(),
            None => entropy_of(&self.probs),
        })
    }

    /// `h(p_c)` of candidate index `i`: the cached term, or the same
    /// expression evaluated in a fork without terms.
    fn term(&self, i: usize) -> f64 {
        match &self.terms {
            Some(terms) => terms[i],
            None => binary_entropy(self.probs[i]),
        }
    }

    /// Uncertainty relative to the baseline; 0 when the baseline is 0.
    pub fn normalized_entropy(&self) -> f64 {
        if self.initial_entropy == 0.0 {
            0.0
        } else {
            self.entropy() / self.initial_entropy
        }
    }

    /// User-effort fraction `E = |F| / |C|`.
    pub fn effort(&self) -> f64 {
        self.feedback.effort(self.probs.len())
    }

    /// The uncertain candidates `{c | 0 < p_c < 1}`, ascending id.
    pub fn uncertain_candidates(&self) -> Vec<CandidateId> {
        self.probs
            .iter()
            .enumerate()
            .filter(|&(_, &p)| uncertain(p))
            .map(|(i, _)| CandidateId::from_index(i))
            .collect()
    }

    /// Shard `k`'s uncertain members, ascending id.
    pub fn uncertain_members(&self, host: &ShardHost, k: usize) -> Vec<CandidateId> {
        let members = host.components().members(k).iter().copied();
        members.filter(|&c| uncertain(self.probs[c.index()])).collect()
    }

    /// Checks an assertion against the feedback and the approval
    /// constraints of `host`'s network: `Ok(true)` means integrating it
    /// would mutate, `Ok(false)` that it is a same-way re-assertion (a
    /// successful no-op). Errors: an unknown id, a flip of a standing
    /// verdict, or an approval that conflicts with earlier approvals.
    pub fn validate(&self, host: &ShardHost, assertion: Assertion) -> Result<bool, AssertError> {
        let Assertion { candidate, approved } = assertion;
        if candidate.index() >= self.probs.len() {
            return Err(AssertError::UnknownCandidate(candidate));
        }
        check_verdict(&self.feedback, host.network().index(), candidate, approved, candidate)
    }

    /// Batched what-if: the network uncertainty each hypothetical
    /// assertion would leave behind, aligned with `queries`. Queries that
    /// would not mutate (rejections, same-way re-assertions, unknown ids)
    /// price at the current entropy `H`. The rest are handed to
    /// `entropy_after` in request order, which returns each one's
    /// post-assertion shard entropy `H'_k`, and compose as
    /// `(H − H_k + H'_k).max(0)`: entropy is additive over components, so
    /// only the owning shard is re-evaluated. `H` is the memoized value,
    /// and each touched shard's standing `H_k` sums its members' cached
    /// terms once per shard. Under the whole partition `H_k` is `H` to the
    /// bit, so the value is `H'_k`.
    pub fn what_if_batch(
        &self,
        host: &ShardHost,
        queries: &[(CandidateId, bool)],
        entropy_after: impl FnOnce(&[(CandidateId, bool)]) -> Vec<f64>,
    ) -> Vec<f64> {
        let h = self.entropy();
        let mut out = vec![h; queries.len()];
        let live: Vec<usize> = (0..queries.len())
            .filter(|&pos| {
                let (candidate, approved) = queries[pos];
                matches!(self.validate(host, Assertion { candidate, approved }), Ok(true))
            })
            .collect();
        let after = entropy_after(&live.iter().map(|&pos| queries[pos]).collect::<Vec<_>>());
        assert_eq!(after.len(), live.len(), "one post-assertion entropy per live query");
        let mut standing: BTreeMap<usize, f64> = BTreeMap::new();
        for (pos, h_after) in live.into_iter().zip(after) {
            let k = host.component_of(queries[pos].0);
            let h_k = *standing.entry(k).or_insert_with(|| {
                host.components().members(k).iter().map(|&g| self.term(g.index())).sum()
            });
            out[pos] = (h - h_k + h_after).max(0.0);
        }
        out
    }

    /// Writes shard `k`'s probabilities, in local member order, into `P`.
    /// A component id or length that does not match `host`'s partition is
    /// an error that leaves `P` untouched.
    pub fn scatter(&mut self, host: &ShardHost, k: usize, local: &[f64]) -> Result<(), String> {
        let components = host.components();
        if k >= components.count() {
            return Err(format!("shard {k} is not a component ({} exist)", components.count()));
        }
        let members = components.members(k);
        if members.len() != local.len() {
            return Err(format!(
                "shard {k} carries {} probabilities for {} members",
                local.len(),
                members.len()
            ));
        }
        let terms = self.terms.get_or_insert_with(|| terms_of(&self.probs));
        for (&g, &p) in members.iter().zip(local) {
            self.probs[g.index()] = p;
            terms[g.index()] = binary_entropy(p);
        }
        self.total.take();
        Ok(())
    }

    /// Records an integrated assertion that changed shard `k`: the
    /// feedback, the generation and the shard's epoch.
    pub fn record(&mut self, k: usize, assertion: Assertion) {
        self.feedback.assert(assertion);
        self.generation += 1;
        self.shard_epochs[k] = self.generation;
    }

    /// Opens the slot of an arriving candidate (unasserted, `p = 0` until
    /// its component is scattered).
    pub fn grow(&mut self) {
        self.feedback.grow();
        self.terms.get_or_insert_with(|| terms_of(&self.probs)).push(binary_entropy(0.0));
        self.probs.push(0.0);
        self.total.take();
    }

    /// Drops retired candidate `c`'s slot; later ids shift down by one.
    pub fn retire(&mut self, c: CandidateId) {
        self.feedback.retire(c);
        self.terms.get_or_insert_with(|| terms_of(&self.probs)).remove(c.index());
        self.probs.remove(c.index());
        self.total.take();
    }

    /// Closes an evolution step once the rebuilt shards are scattered:
    /// bumps the generation and re-stamps the structure and every
    /// component of `host` (they were renumbered, so nothing cached by
    /// shard id may be trusted again). The entropy baseline stays the
    /// construction-time one, except that a zero baseline (a network born
    /// certain, or fully reconciled before candidates arrived) adopts the
    /// current uncertainty.
    pub fn evolved(&mut self, host: &ShardHost) {
        self.generation += 1;
        self.structure_epoch = self.generation;
        self.shard_epochs = vec![self.generation; host.component_count()];
        if self.initial_entropy == 0.0 {
            self.initial_entropy = self.entropy();
        }
    }
}

/// The rule every write path checks an assertion `(c, approved)` by,
/// against `feedback` and the approval constraints of `index`, in which
/// `c` is an id (global in the ledger, shard-local in a shard): `Ok(true)`
/// means integrating it would mutate, `Ok(false)` that it is a same-way
/// re-assertion (a successful no-op). A flip of a standing verdict is
/// [`Contradictory`](AssertError::Contradictory), and an approval that
/// conflicts with earlier approvals is
/// [`InconsistentApproval`](AssertError::InconsistentApproval); errors
/// name the global `candidate`.
pub(crate) fn check_verdict(
    feedback: &Feedback,
    index: &ConflictIndex,
    c: CandidateId,
    approved: bool,
    candidate: CandidateId,
) -> Result<bool, AssertError> {
    if feedback.is_asserted(c) {
        let previously_approved = feedback.approved().contains(c);
        return if previously_approved == approved {
            Ok(false)
        } else {
            Err(AssertError::Contradictory { candidate, previously_approved })
        };
    }
    if approved && !index.can_add(feedback.approved(), c) {
        // the approved set must stay consistent or Ω becomes empty
        return Err(AssertError::InconsistentApproval(candidate));
    }
    Ok(true)
}

/// `h(p_c)` per candidate: the terms of [`entropy_of`], which a fork
/// builds on its first write.
fn terms_of(probs: &[f64]) -> Vec<f64> {
    probs.iter().map(|&p| binary_entropy(p)).collect()
}

/// Whether a probability is strictly between 0 and 1.
fn uncertain(p: f64) -> bool {
    p > 0.0 && p < 1.0
}

#[cfg(test)]
impl Ledger {
    /// Whether this ledger holds its entropy terms.
    fn has_terms(&self) -> bool {
        self.terms.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::SamplerConfig;
    use crate::shard::ShardingConfig;
    use crate::testutil::perturbed_network;
    use proptest::prelude::*;

    /// A host of a few components, and a ledger over it with every shard
    /// scattered.
    fn setup() -> (ShardHost, Ledger) {
        let (net, _) = perturbed_network(4, 6, 0.7, 0.9, 5);
        let sampler = SamplerConfig { n_samples: 60, n_min: 20, seed: 3, ..Default::default() };
        let host = ShardHost::owning_all(net, sampler, ShardingConfig::default());
        let feedback = Feedback::new(host.network().candidate_count());
        let mut ledger = Ledger::new(feedback, host.component_count());
        for k in 0..host.component_count() {
            let local = host.shard_probabilities(k).unwrap();
            ledger.scatter(&host, k, &local).unwrap();
        }
        (host, ledger)
    }

    /// A probability drawn from `seed`: the certain values, one half, and
    /// arbitrary fractions.
    fn probability(seed: u64) -> f64 {
        match seed % 5 {
            0 => 0.0,
            1 => 1.0,
            2 => 0.5,
            _ => (seed >> 11) as f64 / (1u64 << 53) as f64,
        }
    }

    fn assert_entropy_exact(ledger: &Ledger) {
        let fresh = entropy_of(ledger.probabilities());
        assert_eq!(ledger.entropy().to_bits(), fresh.to_bits());
    }

    #[test]
    fn an_unmutated_fork_reads_the_parents_total_without_terms() {
        let (host, parent) = setup();
        assert!(parent.has_terms());
        let h = parent.entropy();
        let mut fork = parent.clone();
        assert!(!fork.has_terms(), "a fork does not copy the terms");
        assert_eq!(fork.entropy().to_bits(), h.to_bits());
        assert!(!fork.has_terms(), "reading the entropy builds no terms");
        // an unread parent's fork computes the total from its own P
        let mut unread = parent.clone();
        unread.grow();
        let unread_fork = unread.clone();
        assert_entropy_exact(&unread_fork);
        assert!(!unread_fork.has_terms());
        // the first write builds the terms
        let local = vec![0.5; host.components().members(0).len()];
        fork.scatter(&host, 0, &local).unwrap();
        assert!(fork.has_terms());
        assert_entropy_exact(&fork);
    }

    #[test]
    fn what_if_batch_prices_the_same_with_and_without_terms() {
        let (host, parent) = setup();
        let fork = parent.clone();
        let queries: Vec<(CandidateId, bool)> = (0..host.network().candidate_count())
            .map(|i| (CandidateId::from_index(i), i % 2 == 0))
            .collect();
        let after = |live: &[(CandidateId, bool)]| vec![0.25; live.len()];
        let (with, without) = (
            parent.what_if_batch(&host, &queries, after),
            fork.what_if_batch(&host, &queries, after),
        );
        assert!(!fork.has_terms());
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&with), bits(&without));
    }

    proptest! {
        /// Random scatter / grow / retire sequences over a family of
        /// forks: every ledger's entropy is `entropy_of` its posterior to
        /// the bit after every step, whether it reads cached terms, a
        /// carried total or (in an unwritten fork) the posterior itself.
        #[test]
        fn entropy_is_entropy_of_the_posterior_across_writes_and_forks(
            ops in prop::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..40),
        ) {
            let (host, ledger) = setup();
            let base_len = ledger.probabilities().len();
            let mut ledgers = vec![ledger];
            for (kind, target, seed) in ops {
                let t = (target % ledgers.len() as u64) as usize;
                let ledger = &mut ledgers[t];
                match kind {
                    0 => {
                        let k = (seed % host.component_count() as u64) as usize;
                        let members = host.components().members(k).len();
                        let local: Vec<f64> = (0..members as u64)
                            .map(|i| probability(seed.rotate_left(i as u32) ^ i))
                            .collect();
                        ledger.scatter(&host, k, &local).unwrap();
                    }
                    1 => ledger.grow(),
                    // retire only while the ledger holds more slots than
                    // the host has candidates, so scatter's member ids stay
                    // in range
                    2 if ledger.probabilities().len() > base_len => {
                        let len = ledger.probabilities().len() as u64;
                        ledger.retire(CandidateId::from_index((seed % len) as usize));
                    }
                    2 => {}
                    _ => {
                        let fork = ledger.clone();
                        prop_assert!(!fork.has_terms());
                        ledgers.push(fork);
                    }
                }
                let ledger = &ledgers[if kind == 3 { ledgers.len() - 1 } else { t }];
                let fresh = entropy_of(ledger.probabilities());
                prop_assert_eq!(ledger.entropy().to_bits(), fresh.to_bits());
                if kind == 3 {
                    prop_assert!(!ledger.has_terms(), "reading an unwritten fork builds no terms");
                }
            }
            for ledger in &ledgers {
                let fresh = entropy_of(ledger.probabilities());
                prop_assert_eq!(ledger.entropy().to_bits(), fresh.to_bits());
            }
        }
    }
}

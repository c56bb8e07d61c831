//! The pay-as-you-go session: the user-facing facade over the three
//! framework steps (Fig. 2 of the paper).
//!
//! A [`Session`] wraps a [`ProbabilisticNetwork`] with a selection strategy
//! and exposes the interactive loop an application drives:
//!
//! ```text
//! let mut session = Session::new(network, SessionConfig::default());
//! while let Some(question) = session.next_question() {
//!     let verdict = ask_the_expert(question);
//!     session.answer(question.candidate, verdict)?;
//!     let matching = session.instantiate_default(); // usable at any time
//! }
//! ```

use crate::feedback::Assertion;
use crate::instantiate::{instantiate, Instantiation, InstantiationConfig};
use crate::network::MatchingNetwork;
use crate::oracle::Oracle;
use crate::persist::{apply_to_history, NetworkEvent};
use crate::probability::{AssertError, ProbabilisticNetwork};
use crate::reconcile::{reconcile, ReconciliationGoal, TracePoint};
use crate::sampling::SamplerConfig;
use crate::selection::{InformationGainSelection, RandomSelection, SelectionStrategy};
use crate::shard::ShardingConfig;
use smn_schema::{CandidateId, Correspondence};

/// Which built-in selection strategy a session uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Random ordering (baseline).
    Random,
    /// Information-gain ordering (the paper's heuristic).
    InformationGain,
}

/// Session configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// Sampler parameters for probability computation.
    pub sampler: SamplerConfig,
    /// Selection strategy.
    pub strategy: Strategy,
    /// Seed for strategy randomness (tie breaking / random baseline).
    pub strategy_seed: u64,
    /// Sample partition: [`ShardingConfig::disabled`] (the default) keeps
    /// one store over the whole network; an enabled config shards the
    /// store by conflict component (see
    /// [`ProbabilisticNetwork::new_sharded`]).
    pub sharding: ShardingConfig,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            sampler: SamplerConfig::default(),
            strategy: Strategy::InformationGain,
            strategy_seed: 0xACE,
            sharding: ShardingConfig::disabled(),
        }
    }
}

/// A question the session wants answered.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Question {
    /// Candidate id to pass back to [`Session::answer`].
    pub candidate: CandidateId,
    /// The attribute pair behind it.
    pub correspondence: Correspondence,
    /// Current probability of the candidate.
    pub probability: f64,
    /// The selection strategy's score for this pick — the information gain
    /// for the paper's heuristic, the marginal entropy / matcher
    /// confidence for the ablations, `None` for scoreless picks (random
    /// baseline, certain-candidate fallbacks). Carried on the question so
    /// dispatchers and experiment bins can log *why* it was chosen without
    /// recomputing gains.
    pub score: Option<f64>,
}

/// An interactive pay-as-you-go reconciliation session.
pub struct Session {
    pn: ProbabilisticNetwork,
    strategy: Box<dyn SelectionStrategy>,
    asked: Vec<Assertion>,
}

impl Session {
    /// Creates a session: builds the probabilistic network (initial
    /// sampling) and installs the selection strategy.
    pub fn new(network: MatchingNetwork, config: SessionConfig) -> Self {
        let pn = ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding);
        Self::resume(pn, Vec::new(), config)
    }

    /// Re-opens a session over a *recovered* probabilistic network — the
    /// crash-recovery path of `smn-storage`, where the network was loaded
    /// from a snapshot (plus replayed write-ahead-log suffix) rather than
    /// built by initial sampling, and `history` is the recovered
    /// assertion history. The selection strategy restarts from
    /// `config.strategy_seed`; the sampler/sharding members of `config`
    /// are ignored (the recovered network already carries its own).
    pub fn resume(
        pn: ProbabilisticNetwork,
        history: Vec<Assertion>,
        config: SessionConfig,
    ) -> Self {
        let strategy: Box<dyn SelectionStrategy> = match config.strategy {
            Strategy::Random => Box::new(RandomSelection::new(config.strategy_seed)),
            Strategy::InformationGain => {
                Box::new(InformationGainSelection::new(config.strategy_seed))
            }
        };
        Self { pn, strategy, asked: history }
    }

    /// Creates a session with a custom selection strategy.
    pub fn with_strategy(
        network: MatchingNetwork,
        sampler: SamplerConfig,
        strategy: Box<dyn SelectionStrategy>,
    ) -> Self {
        Self { pn: ProbabilisticNetwork::new(network, sampler), strategy, asked: Vec::new() }
    }

    /// The probabilistic network state.
    pub fn network(&self) -> &ProbabilisticNetwork {
        &self.pn
    }

    /// The next correspondence the expert should assert, or `None` when the
    /// network is fully reconciled.
    pub fn next_question(&mut self) -> Option<Question> {
        let (candidate, score) = self.strategy.select(&self.pn)?;
        Some(Question {
            candidate,
            correspondence: self.pn.network().corr(candidate),
            probability: self.pn.probability(candidate),
            score,
        })
    }

    /// Integrates the expert's answer for a candidate, in place.
    ///
    /// Repeating an earlier answer verbatim is a successful no-op;
    /// flipping an earlier answer or approving a candidate that conflicts
    /// with earlier approvals returns the corresponding [`AssertError`]
    /// with the session state untouched — the paper's Algorithm 1 takes
    /// every assertion as right, so there is nothing to roll back. This
    /// method never panics on any `(candidate, approved)` input.
    pub fn answer(&mut self, candidate: CandidateId, approved: bool) -> Result<(), AssertError> {
        let assertion = Assertion { candidate, approved };
        // a same-way re-assertion is a no-op and stays out of the history
        if self.pn.validate_assertion(assertion)? {
            self.pn.assert_candidate(assertion).expect("validated assertion integrates");
            self.asked.push(assertion);
        }
        Ok(())
    }

    /// Runs the reconciliation loop against an oracle until the goal holds
    /// (Algorithm 1). Returns the trace.
    pub fn run(&mut self, oracle: &mut dyn Oracle, goal: ReconciliationGoal) -> Vec<TracePoint> {
        let trace = reconcile(&mut self.pn, self.strategy.as_mut(), oracle, goal);
        for t in trace.iter().filter(|t| t.outcome != crate::reconcile::StepOutcome::Skipped) {
            self.asked.push(Assertion { candidate: t.candidate, approved: t.approved });
        }
        trace
    }

    /// Admits a new candidate correspondence to the live session (see
    /// [`ProbabilisticNetwork::extend`]): the probabilistic model is
    /// patched incrementally and the next question reflects the arrival.
    pub fn extend(
        &mut self,
        x: smn_schema::AttributeId,
        y: smn_schema::AttributeId,
        confidence: f64,
    ) -> Result<CandidateId, smn_schema::SchemaError> {
        self.pn.extend(x, y, confidence)
    }

    /// Retires a candidate from the live session (see
    /// [`ProbabilisticNetwork::retire`]): any assertion on it is
    /// discarded, and the recorded history renumbers to the compacted id
    /// space so [`Session::history`] keeps addressing the surviving
    /// candidates.
    pub fn retire(&mut self, c: CandidateId) -> Result<(), smn_schema::SchemaError> {
        self.pn.retire(c)?;
        apply_to_history(&mut self.asked, &NetworkEvent::Retire { candidate: c });
        Ok(())
    }

    /// Instantiates a trusted matching from the current state
    /// (Algorithm 2); available at any time — the "pay-as-you-go" promise.
    pub fn instantiate(&self, config: InstantiationConfig) -> Instantiation {
        instantiate(&self.pn, config)
    }

    /// [`Session::instantiate`] with default parameters.
    pub fn instantiate_default(&self) -> Instantiation {
        self.instantiate(InstantiationConfig::default())
    }

    /// Current network uncertainty (bits).
    pub fn entropy(&self) -> f64 {
        self.pn.entropy()
    }

    /// Current user effort `E`.
    pub fn effort(&self) -> f64 {
        self.pn.effort()
    }

    /// All assertions integrated so far, in order.
    pub fn history(&self) -> &[Assertion] {
        &self.asked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::testutil::{fig1_network, fig1_truth};
    use smn_schema::AttributeId;

    fn config() -> SessionConfig {
        SessionConfig {
            sampler: SamplerConfig {
                anneal: true,
                n_samples: 200,
                walk_steps: 3,
                n_min: 50,
                seed: 5,
                chains: 1,
            },
            strategy: Strategy::InformationGain,
            strategy_seed: 9,
            sharding: ShardingConfig::disabled(),
        }
    }

    #[test]
    fn interactive_loop_reconciles() {
        let mut session = Session::new(fig1_network(), config());
        let oracle = GroundTruthOracle::new(fig1_truth());
        let mut steps = 0;
        while let Some(q) = session.next_question() {
            session.answer(q.candidate, oracle.is_true(q.correspondence)).unwrap();
            steps += 1;
            assert!(steps < 10, "must terminate");
        }
        assert_eq!(session.entropy(), 0.0);
        assert_eq!(session.history().len(), steps);
        let m = session.instantiate_default();
        assert_eq!(m.instance.count(), 3);
        assert!(m.instance.contains(CandidateId(0)));
        assert!(m.instance.contains(CandidateId(3)));
        assert!(m.instance.contains(CandidateId(4)));
    }

    #[test]
    fn run_with_oracle_and_budget() {
        let mut session = Session::new(fig1_network(), config());
        let mut oracle = GroundTruthOracle::new(fig1_truth());
        let trace = session.run(&mut oracle, ReconciliationGoal::Budget(1));
        assert_eq!(trace.len(), 1);
        assert_eq!(session.history().len(), 1);
        assert!((session.effort() - 0.2).abs() < 1e-12);
        // instantiation works mid-way (pay-as-you-go)
        let m = session.instantiate_default();
        assert!(session.network().network().index().is_consistent(&m.instance));
    }

    #[test]
    fn question_carries_probability() {
        let mut session = Session::new(fig1_network(), config());
        let q = session.next_question().unwrap();
        assert!((q.probability - 0.5).abs() < 1e-12);
        assert_eq!(session.network().network().corr(q.candidate), q.correspondence);
    }

    #[test]
    fn random_strategy_session_also_terminates() {
        let mut session =
            Session::new(fig1_network(), SessionConfig { strategy: Strategy::Random, ..config() });
        let mut oracle = GroundTruthOracle::new(fig1_truth());
        session.run(&mut oracle, ReconciliationGoal::Complete);
        assert_eq!(session.entropy(), 0.0);
    }

    #[test]
    fn redundant_answer_is_ok_and_not_double_counted() {
        // regression: the empty re-assertion guard used to fall through and
        // redundantly re-run maintenance; now it is a true no-op
        let mut session = Session::new(fig1_network(), config());
        session.answer(CandidateId(2), true).unwrap();
        let effort = session.effort();
        let history = session.history().len();
        session.answer(CandidateId(2), true).unwrap();
        assert_eq!(session.effort(), effort);
        assert_eq!(session.history().len(), history, "no-op answers stay out of the history");
    }

    #[test]
    fn contradictory_answer_returns_err_instead_of_panicking() {
        // regression: a flipped answer used to reach Feedback::assert and
        // panic through the public API
        use crate::probability::AssertError;
        let mut session = Session::new(fig1_network(), config());
        session.answer(CandidateId(2), true).unwrap();
        assert_eq!(
            session.answer(CandidateId(2), false),
            Err(AssertError::Contradictory {
                candidate: CandidateId(2),
                previously_approved: true
            })
        );
        session.answer(CandidateId(0), false).unwrap();
        assert_eq!(
            session.answer(CandidateId(0), true),
            Err(AssertError::Contradictory {
                candidate: CandidateId(0),
                previously_approved: false
            })
        );
        // the rejected flips left the session usable
        assert_eq!(session.network().probability(CandidateId(2)), 1.0);
        assert_eq!(session.history().len(), 2);
    }

    #[test]
    fn session_evolves_online_and_renumbers_history() {
        let sharded_config =
            SessionConfig { sharding: crate::shard::ShardingConfig::default(), ..config() };
        let mut session = Session::new(fig1_network(), sharded_config);
        session.answer(CandidateId(2), true).unwrap();
        session.answer(CandidateId(4), false).unwrap();
        assert_eq!(session.history().len(), 2);
        // retire the approved c2: its history entry drops, c4's shifts to c3
        session.retire(CandidateId(2)).unwrap();
        assert_eq!(session.network().network().candidate_count(), 4);
        assert_eq!(session.history(), &[Assertion { candidate: CandidateId(3), approved: false }]);
        assert_eq!(session.network().probability(CandidateId(3)), 0.0);
        // a new arrival becomes askable and reconciliation still terminates
        let id = session.extend(AttributeId(0), AttributeId(2), 0.8).unwrap();
        assert_eq!(id, CandidateId(4));
        let mut oracle = GroundTruthOracle::new(fig1_truth());
        session.run(&mut oracle, ReconciliationGoal::Complete);
        assert_eq!(session.entropy(), 0.0);
    }

    #[test]
    fn question_carries_the_selection_score() {
        let mut session = Session::new(fig1_network(), config());
        let q = session.next_question().unwrap();
        // the IG strategy's best first-step gain on fig1 is exactly 2 bits
        // (see probability::tests::example1_ordering_effect)
        assert!((q.score.expect("IG picks carry their gain") - 2.0).abs() < 1e-9);
        // the random baseline is scoreless
        let mut session =
            Session::new(fig1_network(), SessionConfig { strategy: Strategy::Random, ..config() });
        assert_eq!(session.next_question().unwrap().score, None);
    }

    #[test]
    fn resume_restores_history_and_keeps_reconciling() {
        let mut session = Session::new(fig1_network(), config());
        session.answer(CandidateId(2), true).unwrap();
        let pn = session.network().fork();
        let history = session.history().to_vec();
        let mut resumed = Session::resume(pn, history, config());
        assert_eq!(resumed.history(), session.history());
        assert_eq!(resumed.network().probabilities(), session.network().probabilities());
        let mut oracle = GroundTruthOracle::new(fig1_truth());
        resumed.run(&mut oracle, ReconciliationGoal::Complete);
        assert_eq!(resumed.entropy(), 0.0);
    }

    #[test]
    fn sharded_session_reconciles_like_the_monolithic_one() {
        let sharded_config =
            SessionConfig { sharding: crate::shard::ShardingConfig::default(), ..config() };
        let mut mono = Session::new(fig1_network(), config());
        let mut sharded = Session::new(fig1_network(), sharded_config);
        assert!(sharded.network().is_sharded());
        assert_eq!(sharded.network().probabilities(), mono.network().probabilities());
        let mut oracle = GroundTruthOracle::new(fig1_truth());
        let trace_m = mono.run(&mut oracle, ReconciliationGoal::Complete);
        let mut oracle = GroundTruthOracle::new(fig1_truth());
        let trace_s = sharded.run(&mut oracle, ReconciliationGoal::Complete);
        assert_eq!(trace_m, trace_s, "exhausted fig1: identical traces");
        assert_eq!(sharded.entropy(), 0.0);
    }
}

//! The concurrent reconciliation service.
//!
//! [`ReconciliationService`] owns the base probabilistic network behind
//! the copy-on-write snapshot layer and drives rounds of a *seeded
//! virtual schedule*:
//!
//! 1. the [`Dispatcher`] leases up to
//!    `⌊W/k⌋` distinct uncertain candidates, each to `k` distinct workers
//!    (disjoint across the round's leases, rotated across rounds);
//! 2. worker evaluations run through one batched what-if per round
//!    ([`smn_core::ProbabilisticNetwork::what_if_batch`]) — each worker
//!    answers from its error-rate profile, and the exact uncertainty each
//!    distinct verdict would produce is measured against the base's
//!    copy-on-write snapshots (at most two branch queries per lease,
//!    shared by all its votes); the model fans the branches out across
//!    the one run queue of the persistent worker pool of
//!    [`smn_core::pool`];
//! 3. votes are reassembled by `(lease, vote)` slot and
//!    [aggregated](mod@crate::aggregate) in lease order; each aggregated
//!    assertion commits to the base through the same
//!    [`commit_ladder`] as [`smn_core::reconcile`](mod@smn_core::reconcile)
//!    (inconsistent approvals fall back to disapproval).
//!
//! Because every worker answer is a pure function, every branch entropy
//! is a pure function of the same base snapshot and its query, and
//! commits happen in lease order, the pool size and a
//! [`smn_core::pool::sequential`] scope only change *who computes what* —
//! never the result. Two runs with the same config are byte-identical at
//! any pool size, which the `determinism` integration suite asserts for a
//! pooled run against the same run in a sequential scope.

use crate::aggregate::{aggregate, Aggregation, Verdict, Vote};
use crate::dispatch::{Dispatcher, Lease};
use crate::model::ServeModel;
use crate::worker::{WorkerPool, WorkerStats};
use serde::Serialize;
use smn_core::feedback::Assertion;
use smn_core::reconcile::commit_ladder;
use smn_core::shard::ShardingConfig;
use smn_core::{
    MatchingNetwork, PrecisionRecall, ProbabilisticNetwork, ReconciliationGoal, SamplerConfig,
    StepOutcome, TracePoint,
};
use smn_schema::{CandidateId, Correspondence};

/// How per-shard work is scheduled. The worker pool alone decides
/// whether a batch runs concurrently (see `docs/POOL.md`), so `Pool` is
/// the only variant; the type and the `scheduler` config fields remain
/// for configuration compatibility and never affect results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// The persistent worker pool of [`smn_core::pool`]: one FIFO run
    /// queue that its workers and every submitting thread pop.
    #[default]
    Pool,
}

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Sampler parameters of the base network.
    pub sampler: SamplerConfig,
    /// Sample representation of the base network; the component-sharded
    /// default is what makes concurrent copy-on-write commits local.
    pub sharding: ShardingConfig,
    /// Votes per leased candidate (`k`), clamped to the worker count.
    pub redundancy: usize,
    /// How votes reduce to one assertion.
    pub aggregation: Aggregation,
    /// Ignored; kept for configuration compatibility like `scheduler`. The
    /// worker pool's size and [`smn_core::pool::sequential`] decide where
    /// a round's what-if batch runs.
    pub threads: usize,
    /// Kept for configuration compatibility; see [`Scheduler`].
    pub scheduler: Scheduler,
    /// Seed of the virtual schedule (dispatcher tie-breaking) and the
    /// worker noise.
    pub seed: u64,
    /// When the service stops: a commit budget, an entropy threshold, or
    /// complete validation of every candidate.
    pub goal: ReconciliationGoal,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            sampler: SamplerConfig::default(),
            sharding: ShardingConfig::default(),
            redundancy: 3,
            aggregation: Aggregation::Majority,
            threads: 0,
            scheduler: Scheduler::default(),
            seed: 0xC0FFEE,
            goal: ReconciliationGoal::Complete,
        }
    }
}

/// One committed (aggregated) assertion — the service-level analogue of a
/// [`TracePoint`], enriched with the crowd evidence behind it.
#[derive(Debug, Clone, Serialize)]
pub struct CommitRecord {
    /// 1-based commit count.
    pub step: usize,
    /// Round the commit happened in.
    pub round: usize,
    /// The asserted candidate id.
    pub candidate: u32,
    /// The shard (conflict component) the commit copy-on-wrote.
    pub shard: usize,
    /// The committed verdict (after any inconsistency fallback).
    pub approved: bool,
    /// `integrated`, `flipped` or `skipped` (see [`StepOutcome`]).
    pub outcome: String,
    /// The dispatcher's information-gain estimate behind the lease
    /// (`None` for fallback leases of certain candidates) — logged, not
    /// recomputed.
    pub score: Option<f64>,
    /// Raw approving votes.
    pub votes_for: usize,
    /// Raw disapproving votes.
    pub votes_against: usize,
    /// The lowest exact what-if entropy any voter measured on its fork.
    pub min_expected_entropy: f64,
    /// Network uncertainty after the commit.
    pub entropy_after: f64,
    /// User effort after the commit.
    pub effort_after: f64,
}

/// Per-round aggregates for effort/quality curves.
#[derive(Debug, Clone, Serialize)]
pub struct RoundStats {
    /// 0-based round index.
    pub round: usize,
    /// Leases dispatched this round.
    pub leases: usize,
    /// Assertions committed this round.
    pub commits: usize,
    /// Network uncertainty after the round.
    pub entropy: f64,
    /// User effort after the round.
    pub effort: f64,
    /// Precision of the probability-majority matching `{c : p_c > ½}`
    /// against the verified matching.
    pub precision: f64,
    /// Recall of the same matching.
    pub recall: f64,
}

/// The machine-readable outcome of a service run. Deliberately carries no
/// thread count and no wall-clock: everything in here is a deterministic
/// function of the configuration seeds, so identically-configured runs
/// serialize byte-identically at any parallelism.
#[derive(Debug, Clone, Serialize)]
pub struct ServiceReport {
    /// Workers in the pool.
    pub workers: usize,
    /// Effective redundancy `k`.
    pub redundancy: usize,
    /// Aggregation scheme label.
    pub aggregation: String,
    /// Per-worker configured error rates.
    pub worker_error_rates: Vec<f64>,
    /// Total worker answers collected.
    pub questions_asked: u64,
    /// Committed assertions.
    pub commits: Vec<CommitRecord>,
    /// Per-round quality/effort curve.
    pub rounds: Vec<RoundStats>,
    /// Per-worker tallies (answers, errors vs ground truth).
    pub worker_stats: Vec<WorkerStats>,
    /// Final network uncertainty.
    pub final_entropy: f64,
    /// Final user effort.
    pub final_effort: f64,
    /// Final precision of the probability-majority matching.
    pub final_precision: f64,
    /// Final recall of the probability-majority matching.
    pub final_recall: f64,
}

/// The concurrent multi-worker reconciliation service, generic over the
/// [`ServeModel`] it drives (the in-process
/// [`ProbabilisticNetwork`] by default; a distributed coordinator slots
/// in through [`with_model`](Self::with_model) without changing the
/// round loop, the lease schedule or the report format).
pub struct ReconciliationService<M: ServeModel = ProbabilisticNetwork> {
    base: M,
    pool: WorkerPool,
    dispatcher: Dispatcher,
    config: ServiceConfig,
    /// Per candidate, whether its correspondence is in the crowd's
    /// verified matching: built once, since the round loop never evolves
    /// the network.
    truth_mask: Vec<bool>,
    history: Vec<TracePoint>,
    commits: Vec<CommitRecord>,
    rounds: Vec<RoundStats>,
}

impl ReconciliationService {
    /// Builds the service: the base probabilistic network (initial
    /// sampling under `config.sampler`/`config.sharding`), a worker pool
    /// with the given per-worker error rates answering against `truth`,
    /// and the seeded dispatcher.
    pub fn new(
        network: MatchingNetwork,
        truth: Vec<Correspondence>,
        error_rates: impl IntoIterator<Item = f64>,
        config: ServiceConfig,
    ) -> Self {
        let base = ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding);
        Self::with_model(base, truth, error_rates, config)
    }
}

impl<M: ServeModel> ReconciliationService<M> {
    /// Builds the service around an already-constructed model — the
    /// generic entry point behind [`new`](ReconciliationService::new);
    /// `config.sampler`/`config.sharding` are kept for the record but
    /// the model arrives sampled.
    pub fn with_model(
        base: M,
        truth: Vec<Correspondence>,
        error_rates: impl IntoIterator<Item = f64>,
        config: ServiceConfig,
    ) -> Self {
        let pool = WorkerPool::new(error_rates, truth, crowd_seed(config.seed));
        let dispatcher = Dispatcher::new(config.seed);
        let truth_mask = truth_mask(base.network(), &pool);
        Self {
            base,
            pool,
            dispatcher,
            config,
            truth_mask,
            history: Vec::new(),
            commits: Vec::new(),
            rounds: Vec::new(),
        }
    }

    /// The base model (the probabilistic network in the default
    /// in-process configuration).
    pub fn base(&self) -> &M {
        &self.base
    }

    /// Consumes the service and returns its model — how a caller gets a
    /// remote-backed model back for an orderly cluster shutdown after
    /// the run (dropping it instead just closes the links).
    pub fn into_model(self) -> M {
        self.base
    }

    /// The committed assertions as a [`TracePoint`] sequence — directly
    /// comparable to a sequential [`smn_core::Session::run`] trace.
    pub fn history(&self) -> &[TracePoint] {
        &self.history
    }

    /// The worker pool (profiles and tallies).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    /// Runs rounds until the configured goal holds and returns the report.
    pub fn run(&mut self) -> ServiceReport {
        let workers = self.pool.len();
        let k = self.config.redundancy.clamp(1, workers);
        let mut round = self.rounds.len();
        loop {
            match self.config.goal {
                ReconciliationGoal::Budget(b) if self.history.len() >= b => break,
                ReconciliationGoal::EntropyBelow(h) if self.base.entropy() < h => break,
                _ => {}
            }
            let mut batch = (workers / k).max(1);
            if let ReconciliationGoal::Budget(b) = self.config.goal {
                batch = batch.min(b - self.history.len());
            }
            let leases = self.dispatcher.lease_round(&self.base, batch, workers, k, round);
            if leases.is_empty() {
                break; // every candidate validated
            }
            let ballots = collect_votes(&self.base, &self.pool, &leases);
            let committed = self.commit_round(round, &leases, &ballots);
            let quality = majority_quality(&self.base, &self.pool, &self.truth_mask);
            self.rounds.push(RoundStats {
                round,
                leases: leases.len(),
                commits: committed,
                entropy: self.base.entropy(),
                effort: self.base.effort(),
                precision: quality.precision,
                recall: quality.recall,
            });
            round += 1;
        }
        self.report()
    }

    /// Integrates one round's aggregated verdicts in lease order. Returns
    /// how many assertions were committed (vs skipped).
    fn commit_round(&mut self, round: usize, leases: &[Lease], ballots: &[Ballot]) -> usize {
        let mut committed = 0usize;
        for (lease, (votes, min_expected)) in leases.iter().zip(ballots) {
            for v in votes {
                self.pool.record(v.worker, lease.correspondence, v.approved);
            }
            let verdict: Verdict = aggregate(self.config.aggregation, votes, self.pool.profiles());
            let candidate = lease.candidate;
            let (approved, outcome, _) = commit_ladder(verdict.approved, |approved| {
                self.base.assert_candidate(Assertion { candidate, approved })
            });
            if outcome != StepOutcome::Skipped {
                committed += 1;
                self.history.push(TracePoint {
                    step: self.history.len() + 1,
                    candidate: lease.candidate,
                    approved,
                    outcome,
                    effort: self.base.effort(),
                    entropy: self.base.entropy(),
                    normalized_entropy: self.base.normalized_entropy(),
                });
            }
            self.commits.push(CommitRecord {
                step: self.commits.len() + 1,
                round,
                candidate: lease.candidate.0,
                shard: lease.shard,
                approved,
                outcome: outcome_label(outcome),
                score: lease.score,
                votes_for: verdict.votes_for,
                votes_against: verdict.votes_against,
                min_expected_entropy: *min_expected,
                entropy_after: self.base.entropy(),
                effort_after: self.base.effort(),
            });
        }
        committed
    }

    /// Assembles the (deterministic) report of everything so far.
    pub fn report(&self) -> ServiceReport {
        let quality = majority_quality(&self.base, &self.pool, &self.truth_mask);
        ServiceReport {
            workers: self.pool.len(),
            redundancy: self.config.redundancy.clamp(1, self.pool.len()),
            aggregation: self.config.aggregation.label().to_string(),
            worker_error_rates: self.pool.profiles().iter().map(|p| p.error_rate).collect(),
            questions_asked: self.pool.stats().iter().map(|s| s.answered).sum(),
            commits: self.commits.clone(),
            rounds: self.rounds.clone(),
            worker_stats: self.pool.stats().to_vec(),
            final_entropy: self.base.entropy(),
            final_effort: self.base.effort(),
            final_precision: quality.precision,
            final_recall: quality.recall,
        }
    }
}

/// The crowd's seed for a service seeded `seed`: derived, not shared, so
/// dispatcher tie-breaks and worker coins are independent streams. Both
/// serving loops use it, so a serve run and a round run over the same
/// seed share their crowd coins.
pub(crate) fn crowd_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0xA24B_AED4_963E_E407).wrapping_add(1)
}

/// The report label of a commit outcome.
pub(crate) fn outcome_label(outcome: StepOutcome) -> String {
    match outcome {
        StepOutcome::Integrated => "integrated",
        StepOutcome::Flipped => "flipped",
        StepOutcome::Skipped => "skipped",
    }
    .into()
}

/// Per candidate of `network`, whether `crowd`'s verified matching
/// contains its correspondence.
pub(crate) fn truth_mask(network: &MatchingNetwork, crowd: &WorkerPool) -> Vec<bool> {
    (0..network.candidate_count())
        .map(|i| crowd.is_true(network.corr(CandidateId::from_index(i))))
        .collect()
}

/// Precision/recall of `model`'s probability-majority matching
/// `{c : p_c > ½}` against `crowd`'s verified matching, given its
/// [`truth_mask`] over `model`'s candidates: the counts of
/// [`PrecisionRecall::of_instance`], in one pass over the posterior.
pub(crate) fn majority_quality<M: ServeModel>(
    model: &M,
    crowd: &WorkerPool,
    truth_mask: &[bool],
) -> PrecisionRecall {
    let (mut proposed, mut tp) = (0, 0);
    for (i, &verified) in truth_mask.iter().enumerate() {
        if model.probability(CandidateId::from_index(i)) > 0.5 {
            proposed += 1;
            tp += usize::from(verified);
        }
    }
    PrecisionRecall::of_counts(tp, proposed, crowd.truth_len())
}

/// One lease's votes, and the lowest exact what-if entropy among the
/// verdicts its voters gave.
type Ballot = (Vec<Vote>, f64);

/// Evaluates one round's leases: worker answers inline (pure-function
/// lookups), branch entropies through one batched what-if.
///
/// The expensive part — the exact uncertainty a verdict would produce —
/// depends only on `(lease, verdict)`, so each lease needs at most *two*
/// branch queries no matter the redundancy. The distinct queries go
/// through [`ProbabilisticNetwork::what_if_batch`] in one call: each is
/// priced at one copy-on-write shard fork plus the per-shard entropy
/// decomposition, never a network-wide fork, and the model fans the
/// queries out across the worker pool. Every query's value is a pure
/// function of the base and the query, so votes assembled by slot are
/// identical at any thread count.
fn collect_votes<M: ServeModel>(base: &M, pool: &WorkerPool, leases: &[Lease]) -> Vec<Ballot> {
    let answers: Vec<Vec<bool>> = leases
        .iter()
        .map(|l| l.workers.iter().map(|&w| pool.answer(w, l.correspondence)).collect())
        .collect();
    // distinct (lease, verdict) branches that need a what-if evaluation
    let jobs: Vec<(usize, bool)> = (0..leases.len())
        .flat_map(|li| {
            let answers = &answers;
            [true, false]
                .into_iter()
                .filter(move |&v| answers[li].contains(&v))
                .map(move |v| (li, v))
        })
        .collect();
    let queries: Vec<(CandidateId, bool)> =
        jobs.iter().map(|&(li, v)| (leases[li].candidate, v)).collect();
    let entropies = base.what_if_batch(&queries);
    // branch_entropy[li][approved as usize]
    let mut branch_entropy: Vec<[f64; 2]> = vec![[f64::NAN; 2]; leases.len()];
    for (&(li, v), h) in jobs.iter().zip(entropies) {
        branch_entropy[li][usize::from(v)] = h;
    }
    leases
        .iter()
        .zip(&answers)
        .zip(&branch_entropy)
        .map(|((l, answers), branch)| {
            let votes = l.workers.iter().zip(answers);
            let min_expected =
                answers.iter().map(|&a| branch[usize::from(a)]).fold(f64::INFINITY, f64::min);
            (votes.map(|(&worker, &approved)| Vote { worker, approved }).collect(), min_expected)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_testkit::{fig1_network, fig1_truth, tiny_sampler};

    fn config(goal: ReconciliationGoal) -> ServiceConfig {
        ServiceConfig {
            sampler: tiny_sampler(5),
            sharding: ShardingConfig::default(),
            redundancy: 1,
            aggregation: Aggregation::Majority,
            threads: 2,
            scheduler: Scheduler::default(),
            seed: 9,
            goal,
        }
    }

    /// Runs a service, then replays its committed history round by round
    /// on a fresh network built like its base, and checks each round's
    /// precision/recall and the report's final pair bitwise against
    /// [`PrecisionRecall::of_instance`] on the replayed majority matching.
    fn assert_quality_is_of_instance(
        network: MatchingNetwork,
        truth: &[Correspondence],
        rates: Vec<f64>,
        config: ServiceConfig,
    ) {
        let mut svc = ReconciliationService::new(network.clone(), truth.to_vec(), rates, config);
        let report = svc.run();
        let mut replay =
            ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding);
        let of_instance = |pn: &ProbabilisticNetwork| {
            let n = pn.network().candidate_count();
            let ids = (0..n).map(CandidateId::from_index).filter(|&c| pn.probability(c) > 0.5);
            let majority = smn_constraints::BitSet::from_ids(n, ids);
            PrecisionRecall::of_instance(pn.network(), &majority, truth.iter().copied())
        };
        let bits = |q: PrecisionRecall| (q.precision.to_bits(), q.recall.to_bits());
        let mut history = svc
            .history()
            .iter()
            .map(|t| Assertion { candidate: t.candidate, approved: t.approved });
        for round in &report.rounds {
            for a in history.by_ref().take(round.commits) {
                replay.assert_candidate(a).expect("a committed assertion replays");
            }
            let got = PrecisionRecall { precision: round.precision, recall: round.recall };
            assert_eq!(bits(got), bits(of_instance(&replay)), "round {}", round.round);
        }
        assert!(history.next().is_none(), "every commit belongs to a round");
        assert_eq!(replay.probabilities(), svc.base().probabilities(), "the replay diverged");
        let got =
            PrecisionRecall { precision: report.final_precision, recall: report.final_recall };
        assert_eq!(bits(got), bits(of_instance(&replay)), "final");
    }

    #[test]
    fn round_quality_is_bitwise_of_instance_on_fig1() {
        // a duplicated truth: recall divides by the distinct count
        let truth: Vec<Correspondence> = fig1_truth().into_iter().chain(fig1_truth()).collect();
        let config = ServiceConfig { redundancy: 2, ..config(ReconciliationGoal::Complete) };
        assert_quality_is_of_instance(fig1_network(), &truth, vec![0.3; 4], config);
    }

    #[test]
    fn round_quality_is_bitwise_of_instance_on_a_sampled_federation() {
        let (network, truth) = smn_testkit::webform_federation(4, 3);
        let config = ServiceConfig {
            sharding: ShardingConfig { exact_threshold: 0, ..ShardingConfig::default() },
            redundancy: 2,
            aggregation: Aggregation::QualityWeighted,
            ..config(ReconciliationGoal::Complete)
        };
        assert_quality_is_of_instance(network, &truth, vec![0.2; 4], config);
    }

    fn perfect_service(workers: usize, goal: ReconciliationGoal) -> ReconciliationService {
        ReconciliationService::new(fig1_network(), fig1_truth(), vec![0.0; workers], config(goal))
    }

    #[test]
    fn perfect_crowd_reconciles_fig1_completely() {
        let mut svc = perfect_service(3, ReconciliationGoal::Complete);
        let report = svc.run();
        assert_eq!(report.final_entropy, 0.0);
        assert_eq!(report.final_precision, 1.0);
        assert_eq!(report.final_recall, 1.0);
        assert_eq!(svc.base().effort(), 1.0, "Complete validates every candidate");
        assert!(!report.rounds.is_empty());
        assert_eq!(report.workers, 3);
    }

    #[test]
    fn budget_goal_caps_commits() {
        let mut svc = perfect_service(4, ReconciliationGoal::Budget(2));
        let report = svc.run();
        assert_eq!(svc.history().len(), 2);
        assert_eq!(report.commits.len(), 2);
        assert!((report.final_effort - 0.4).abs() < 1e-12);
    }

    #[test]
    fn commits_carry_the_lease_score() {
        let mut svc = perfect_service(1, ReconciliationGoal::Budget(1));
        let report = svc.run();
        let c = &report.commits[0];
        assert!(c.score.expect("first lease has uncertain candidates") > 0.0);
        assert!(c.min_expected_entropy <= svc.base().entropy() + 1e-12 + 5.0);
        assert_eq!(c.outcome, "integrated");
    }

    #[test]
    fn noisy_majority_still_terminates_and_reports() {
        let mut svc = ReconciliationService::new(
            fig1_network(),
            fig1_truth(),
            vec![0.3, 0.3, 0.3],
            ServiceConfig {
                redundancy: 3,
                aggregation: Aggregation::QualityWeighted,
                ..config(ReconciliationGoal::Complete)
            },
        );
        let report = svc.run();
        assert_eq!(report.redundancy, 3);
        assert_eq!(report.aggregation, "quality-weighted");
        assert_eq!(svc.base().effort(), 1.0);
        assert_eq!(
            report.questions_asked,
            report.commits.len() as u64 * 3,
            "every commit aggregates k = 3 votes"
        );
    }
}

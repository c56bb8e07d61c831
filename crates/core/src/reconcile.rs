//! The generic uncertainty-reduction loop (Algorithm 1, §IV-B).
//!
//! Repeats select → elicit → integrate until the reconciliation goal `δ`
//! holds, recording a trace point per assertion so experiments can plot
//! uncertainty/quality against user effort (Figs. 9–11).

use crate::feedback::Assertion;
use crate::oracle::Oracle;
use crate::probability::ProbabilisticNetwork;
use crate::selection::SelectionStrategy;
use smn_schema::CandidateId;

/// The reconciliation goal `δ` of Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReconciliationGoal {
    /// Stop after `k` assertions (the limited effort budget of Problem 1).
    Budget(usize),
    /// Stop once network uncertainty drops below a threshold (bits).
    EntropyBelow(f64),
    /// Reconcile until the strategy has nothing left to select. For the
    /// built-in random baseline and the information-gain heuristic that is
    /// *every* candidate (both fall back to certain-but-unasserted ones,
    /// like the expert of §VI-C who reviews the complete output);
    /// uncertainty-only strategies stop at zero entropy.
    Complete,
}

/// How an elicited assertion was integrated into the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The oracle's verdict was integrated as given.
    Integrated,
    /// The verdict was an approval the model rejected as inconsistent
    /// with earlier approvals; the step was integrated as a *disapproval*
    /// instead (the tool refuses input that would empty Ω).
    Flipped,
    /// Neither the verdict nor the disapproval fallback could be
    /// integrated (the oracle re-asserted a candidate against its
    /// standing feedback); the model is unchanged.
    Skipped,
}

/// One step of the reconciliation trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// 1-based assertion count after this step.
    pub step: usize,
    /// The asserted candidate.
    pub candidate: CandidateId,
    /// The recorded verdict: the oracle's verdict as integrated for
    /// [`Integrated`](StepOutcome::Integrated) steps, the disapproval
    /// fallback for [`Flipped`](StepOutcome::Flipped) ones, and the
    /// oracle's *rejected* verdict for [`Skipped`](StepOutcome::Skipped)
    /// ones (nothing was integrated — check `outcome` before counting).
    pub approved: bool,
    /// How the verdict was integrated.
    pub outcome: StepOutcome,
    /// User effort `E` after this step.
    pub effort: f64,
    /// Network uncertainty (bits) after this step.
    pub entropy: f64,
    /// Uncertainty normalized by the pre-reconciliation uncertainty.
    pub normalized_entropy: f64,
}

/// Runs Algorithm 1: reduces uncertainty with `strategy`-selected
/// assertions elicited from `oracle` until `goal` is met.
///
/// Assertions the probabilistic model rejects as contradictory (a noisy
/// oracle approving a candidate that conflicts with earlier approvals) are
/// recorded as *disapprovals* of the contradicting candidate — the model
/// stays consistent and the loop proceeds; this mirrors a real session
/// where the tool would refuse the inconsistent input. If even the
/// fallback is rejected (the oracle flipped its own earlier verdict), the
/// step is traced as [`StepOutcome::Skipped`] with the model untouched —
/// a noisy oracle can never panic the loop.
pub fn reconcile(
    pn: &mut ProbabilisticNetwork,
    strategy: &mut dyn SelectionStrategy,
    oracle: &mut dyn Oracle,
    goal: ReconciliationGoal,
) -> Vec<TracePoint> {
    let mut trace = Vec::new();
    loop {
        match goal {
            ReconciliationGoal::Budget(k) if trace.len() >= k => break,
            ReconciliationGoal::EntropyBelow(h) if pn.entropy() < h => break,
            _ => {}
        }
        // (1) select an uncertain correspondence
        let Some((candidate, _)) = strategy.select(pn) else {
            break; // fully reconciled
        };
        // (2) elicit the assertion
        let corr = pn.network().corr(candidate);
        let approved = oracle.assert(corr);
        // (3) integrate the feedback
        let (approved, outcome, _) =
            commit_ladder(approved, |v| pn.assert_candidate(Assertion { candidate, approved: v }));
        trace.push(TracePoint {
            step: trace.len() + 1,
            candidate,
            approved,
            outcome,
            effort: pn.effort(),
            entropy: pn.entropy(),
            normalized_entropy: pn.normalized_entropy(),
        });
    }
    trace
}

/// The commit ladder every write path walks: `assert` the verdict
/// `approved` as given; if it is rejected, `assert` a disapproval instead
/// ([`StepOutcome::Flipped`]); if that is rejected too, skip
/// ([`StepOutcome::Skipped`]). Returns the standing verdict (the rejected
/// request for a skip), the outcome, and what the accepted `assert`
/// returned (`None` for a skip).
pub fn commit_ladder<T, E>(
    approved: bool,
    mut assert: impl FnMut(bool) -> Result<T, E>,
) -> (bool, StepOutcome, Option<T>) {
    match assert(approved) {
        Ok(t) => (approved, StepOutcome::Integrated, Some(t)),
        Err(_) => match assert(false) {
            Ok(t) => (false, StepOutcome::Flipped, Some(t)),
            Err(_) => (approved, StepOutcome::Skipped, None),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::GroundTruthOracle;
    use crate::sampling::SamplerConfig;
    use crate::selection::{InformationGainSelection, RandomSelection};
    use crate::testutil::{fig1_network, perturbed_network};
    use crate::ProbabilisticNetwork;
    use smn_schema::{AttributeId, Correspondence};

    fn fig1_pn(seed: u64) -> ProbabilisticNetwork {
        ProbabilisticNetwork::new(
            fig1_network(),
            SamplerConfig {
                anneal: true,
                n_samples: 200,
                walk_steps: 3,
                n_min: 50,
                seed,
                chains: 1,
            },
        )
    }

    /// Ground truth of the Fig. 1 network: the screenDate triangle.
    fn fig1_oracle() -> GroundTruthOracle {
        let a = AttributeId;
        GroundTruthOracle::new([
            Correspondence::new(a(0), a(1)), // c0
            Correspondence::new(a(1), a(3)), // c3
            Correspondence::new(a(0), a(3)), // c4
        ])
    }

    #[test]
    fn complete_reconciliation_zeroes_entropy() {
        let mut pn = fig1_pn(1);
        let mut strat = InformationGainSelection::new(2);
        let trace =
            reconcile(&mut pn, &mut strat, &mut fig1_oracle(), ReconciliationGoal::Complete);
        assert!(!trace.is_empty());
        assert_eq!(pn.entropy(), 0.0);
        // the surviving instance is exactly the ground truth triangle
        assert_eq!(pn.probability(smn_schema::CandidateId(0)), 1.0);
        assert_eq!(pn.probability(smn_schema::CandidateId(3)), 1.0);
        assert_eq!(pn.probability(smn_schema::CandidateId(4)), 1.0);
        assert_eq!(pn.probability(smn_schema::CandidateId(1)), 0.0);
        assert_eq!(pn.probability(smn_schema::CandidateId(2)), 0.0);
    }

    #[test]
    fn budget_goal_stops_early() {
        let mut pn = fig1_pn(2);
        let mut strat = RandomSelection::new(3);
        let trace =
            reconcile(&mut pn, &mut strat, &mut fig1_oracle(), ReconciliationGoal::Budget(2));
        assert_eq!(trace.len(), 2);
        assert!((trace[1].effort - 2.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn entropy_goal_stops_when_reached() {
        let mut pn = fig1_pn(3);
        let mut strat = InformationGainSelection::new(4);
        let trace = reconcile(
            &mut pn,
            &mut strat,
            &mut fig1_oracle(),
            ReconciliationGoal::EntropyBelow(3.5),
        );
        assert!(pn.entropy() < 3.5);
        // IG strategy needs a single assertion: any of c1..c4 drops H from
        // 5 to 3 (see probability tests)
        assert_eq!(trace.len(), 1);
    }

    #[test]
    fn trace_is_monotone_in_effort() {
        let (net, truth) = perturbed_network(3, 6, 0.7, 0.9, 5);
        let mut pn = ProbabilisticNetwork::new(
            net,
            SamplerConfig {
                anneal: true,
                n_samples: 300,
                walk_steps: 3,
                n_min: 100,
                seed: 6,
                chains: 1,
            },
        );
        let mut strat = RandomSelection::new(7);
        let mut oracle = GroundTruthOracle::new(truth);
        let trace = reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete);
        for w in trace.windows(2) {
            assert!(w[1].effort > w[0].effort);
            assert_eq!(w[1].step, w[0].step + 1);
        }
        let last = trace.last().unwrap();
        assert_eq!(last.entropy, 0.0, "complete reconciliation ends certain");
    }

    use crate::testutil::{ScriptedOracle, ScriptedSelection};

    #[test]
    fn inconsistent_approval_is_flipped_not_panicked() {
        use smn_schema::CandidateId;
        // approve c1, then (noisily) approve its 1-1 conflict partner c3:
        // the model refuses the approval and records a disapproval instead
        let mut pn = fig1_pn(4);
        let mut strat = ScriptedSelection::new([CandidateId(1), CandidateId(3)]);
        let mut oracle = ScriptedOracle::new([true, true]);
        let trace = reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].outcome, StepOutcome::Integrated);
        assert_eq!(trace[1].outcome, StepOutcome::Flipped);
        assert!(!trace[1].approved, "the flipped step records the integrated disapproval");
        assert!(pn.feedback().disapproved().contains(CandidateId(3)));
    }

    #[test]
    fn oracle_contradicting_itself_never_panics() {
        use smn_schema::CandidateId;
        // the oracle disapproves c2, is asked again and approves it: the
        // approval is refused and the disapproval fallback lands on the
        // standing verdict (a no-op) — the step surfaces as Flipped with
        // the model unchanged. Before the typed-error fix this panicked
        // inside Feedback::assert.
        let mut pn = fig1_pn(5);
        let mut strat = ScriptedSelection::new([CandidateId(2), CandidateId(2)]);
        let mut oracle = ScriptedOracle::new([false, true]);
        let trace = reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].outcome, StepOutcome::Integrated);
        assert_eq!(trace[1].outcome, StepOutcome::Flipped);
        // the contradictory step changed nothing
        assert_eq!(trace[1].effort, trace[0].effort);
        assert_eq!(trace[1].entropy, trace[0].entropy);
        assert!(pn.feedback().disapproved().contains(CandidateId(2)));
        // the reverse flip (disapproving an approved candidate) cannot use
        // the fallback either — it surfaces as Skipped, through the path
        // that used to panic on the `expect`
        let mut strat = ScriptedSelection::new([CandidateId(1), CandidateId(1)]);
        let mut oracle = ScriptedOracle::new([true, false]);
        let trace = reconcile(&mut pn, &mut strat, &mut oracle, ReconciliationGoal::Complete);
        assert_eq!(trace[1].outcome, StepOutcome::Skipped);
        assert_eq!(trace[1].effort, trace[0].effort);
        assert!(pn.feedback().approved().contains(CandidateId(1)));
    }

    #[test]
    fn information_gain_needs_no_more_steps_than_random_on_fig1() {
        // On the Fig. 1 network the IG strategy resolves everything in two
        // assertions; random may need up to four.
        let mut ig_steps = Vec::new();
        let mut rnd_steps = Vec::new();
        for seed in 0..10 {
            let mut pn = fig1_pn(seed);
            let mut strat = InformationGainSelection::new(seed);
            ig_steps.push(
                reconcile(&mut pn, &mut strat, &mut fig1_oracle(), ReconciliationGoal::Complete)
                    .len(),
            );
            let mut pn = fig1_pn(seed);
            let mut strat = RandomSelection::new(seed);
            rnd_steps.push(
                reconcile(&mut pn, &mut strat, &mut fig1_oracle(), ReconciliationGoal::Complete)
                    .len(),
            );
        }
        let ig_avg: f64 = ig_steps.iter().sum::<usize>() as f64 / ig_steps.len() as f64;
        let rnd_avg: f64 = rnd_steps.iter().sum::<usize>() as f64 / rnd_steps.len() as f64;
        assert!(ig_avg <= rnd_avg, "IG {ig_avg} should not exceed random {rnd_avg}");
    }
}

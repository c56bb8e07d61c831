//! The `expert-session` workload: the paper's Algorithm 1 with one expert.
//!
//! A [`Session`] over the default monolithic sample store selects by
//! information gain, a ground-truth oracle answers, and after a fixed
//! question budget the session instantiates a trusted matching
//! (Algorithm 2). A run repeats this pass, each on a fresh session, until
//! its time is spent; every pass must reproduce the first one's
//! fingerprint.

use crate::inputs;
use crate::record::{
    median, peak_rss_mb, timed, trace_summary, warm_median, Fingerprint, Outcome, Samples, Tracer,
    TAIL_WINDOW,
};
use crate::recovery::{fresh_dir, Recovery};
use smn_constraints::BitSet;
use smn_core::{
    GroundTruthOracle, MatchingNetwork, Oracle, PrecisionRecall, ProbabilisticNetwork, Session,
    SessionConfig, ShardingConfig, Strategy,
};
use smn_schema::{CandidateId, Correspondence};
use std::path::Path;
use std::time::{Duration, Instant};

/// Questions per pass, then one instantiation.
const QUESTIONS: usize = 150;
/// Tie-break seed of the selection strategy (the `SessionConfig`
/// default). Pinned: one expert answering from the truth has no traffic
/// to vary, and each tie-break sends the session down a different
/// trajectory with a different amount of work, so the run's seed is only
/// recorded.
const STRATEGY_SEED: u64 = 0xACE;
/// Session set-ups measured per run, at least (one is a few ms).
const MIN_SETUPS: usize = 21;

/// One pass's measurements.
struct Pass {
    setup: Duration,
    select: Samples,
    assert: Samples,
    instantiate: Duration,
    /// Questions, answers and the instantiation.
    wall: Duration,
    answers: usize,
    errors: u64,
    fingerprint: u64,
}

/// Runs one pass on a fresh session and returns it with the session.
fn pass(
    network: &MatchingNetwork,
    truth: &[Correspondence],
    config: SessionConfig,
    tracer: &Tracer,
) -> (Pass, Session) {
    let network = network.clone();
    let (mut session, setup) = timed(|| Session::new(network, config));
    let mut oracle = GroundTruthOracle::new(truth.iter().copied());
    let (mut select, mut assert) = (Samples::default(), Samples::default());
    let mut f = Fingerprint::default();
    let (mut answers, mut errors) = (0, 0);
    let span = tracer.begin("expert.pass");
    let start = Instant::now();
    for _ in 0..QUESTIONS {
        let t0 = Instant::now();
        let question = session.next_question();
        let t1 = Instant::now();
        select.push(t1 - t0);
        tracer.record("core.select", t0, t1);
        let Some(q) = question else { break };
        let verdict = oracle.assert(q.correspondence);
        let t2 = Instant::now();
        let result = session.answer(q.candidate, verdict);
        let t3 = Instant::now();
        assert.push(t3 - t2);
        tracer.record("core.assert", t2, t3);
        answers += 1;
        errors += u64::from(result.is_err());
        f.word(u64::from(q.candidate.0));
        f.word(u64::from(verdict));
    }
    let t = Instant::now();
    let instantiation = session.instantiate_default();
    let instantiate = t.elapsed();
    tracer.record("core.instantiate", t, t + instantiate);
    let wall = start.elapsed();
    drop(span);
    for &w in instantiation.instance.words() {
        f.word(w);
    }
    f.f64s(session.network().probabilities().iter().copied());
    let fingerprint = f.value();
    (Pass { setup, select, assert, instantiate, wall, answers, errors, fingerprint }, session)
}

/// Precision and recall of the probability-majority matching `{c : p_c > ½}`.
fn quality(pn: &ProbabilisticNetwork, truth: &[Correspondence]) -> PrecisionRecall {
    let n = pn.network().candidate_count();
    let majority = BitSet::from_ids(
        n,
        (0..n).map(CandidateId::from_index).filter(|&c| pn.probability(c) > 0.5),
    );
    PrecisionRecall::of_instance(pn.network(), &majority, truth.iter().copied())
}

/// Runs the expert workload for about `seconds` and checks its outputs.
pub fn run(_seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let scenario = inputs::business_partner();
    let config = SessionConfig {
        sampler: inputs::sampler(),
        strategy: Strategy::InformationGain,
        strategy_seed: STRATEGY_SEED,
        sharding: ShardingConfig::disabled(),
    };
    let mut out = Outcome::default();
    out.config("candidates", scenario.network.candidate_count());
    out.config("schemas", 8);
    out.config("questions_per_pass", QUESTIONS);
    out.config("samples", config.sampler.n_samples);

    let budget = Duration::from_secs_f64(seconds);
    let begun = Instant::now();
    let untraced = Tracer::new(false);
    // the first pass's session is scored, then dropped: a second live
    // session would inflate the peak resident set
    let (first, session) = pass(&scenario.network, &scenario.truth, config, &untraced);
    let q = quality(session.network(), &scenario.truth);
    drop(session);
    let mut passes: Vec<Pass> = vec![first];
    while passes.len() < 2 || (!trace && begun.elapsed() < budget) {
        let (p, _) = pass(&scenario.network, &scenario.truth, config, &untraced);
        out.check(p.fingerprint == passes[0].fingerprint, || {
            "two identical expert passes diverged".into()
        });
        passes.push(p);
    }
    // read before the traced pass, the extra set-ups and the checkpoint
    // below, which are the benchmark's own work
    let rss = peak_rss_mb("self").unwrap_or(0.0);
    let first = &passes[0];

    let mut select = Samples::default();
    let mut assert = Samples::default();
    for p in &passes {
        select.extend(&p.select);
        assert.extend(&p.assert);
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    let rates: Vec<f64> = passes.iter().map(|p| p.answers as f64 / p.wall.as_secs_f64()).collect();

    let traced = trace.then(|| {
        let tracer = Tracer::new(true);
        let (p, traced_session) = pass(&scenario.network, &scenario.truth, config, &tracer);
        out.check(p.fingerprint == first.fingerprint, || {
            "the traced pass's fingerprint differs from the untraced one".into()
        });
        let samples = traced_session.network().samples().len();
        (tracer, p, samples, traced_session.entropy())
    });
    while setups.len() < MIN_SETUPS {
        let network = scenario.network.clone();
        setups.push(timed(|| Session::new(network, config)).1.as_secs_f64());
    }

    let initial = ProbabilisticNetwork::new_sharded(
        scenario.network.clone(),
        config.sampler,
        config.sharding,
    );
    let recovery = Recovery::checkpoint(&fresh_dir(out_dir, "checkpoint"), &initial, &[], &mut out);

    out.attempted = (first.answers + 1) as u64;
    out.failed = first.errors;
    out.check(first.errors == 0, || format!("{} answers were rejected", first.errors));

    out.metric("setup_s", median(&setups), "s");
    out.metric("answers_per_s", warm_median(&rates), "1/s");
    out.metric("question_p50_ms", select.quantile_ms(0.50), "ms");
    out.metric("question_p99_ms", select.windowed_quantile_ms(0.99, TAIL_WINDOW), "ms");
    out.metric("commit_visible_p90_ms", assert.quantile_ms(0.90), "ms");
    out.metric("commit_visible_p99_ms", assert.windowed_quantile_ms(0.99, TAIL_WINDOW), "ms");
    out.metric("recover_s", recovery.recover_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("precision", q.precision, "ratio");
    out.metric("recall", q.recall, "ratio");
    out.config("passes", passes.len());
    out.config("question_samples", select.count());

    if let Some((tracer, p, samples, entropy)) = traced {
        let network = scenario.network.clone();
        let (_, fill) =
            timed(|| ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding));
        out.metric("core.fill_ms", fill.as_secs_f64() * 1e3, "ms");
        out.layer("core.select", &tracer.layer("core.select"), true);
        out.layer("core.assert", &tracer.layer("core.assert"), true);
        out.metric("core.instantiate_ms", p.instantiate.as_secs_f64() * 1e3, "ms");
        out.metric("core.samples_distinct", samples as f64, "count");
        out.metric("core.entropy_bits", entropy, "bits");
        recovery.layer_metrics(&mut out, Duration::ZERO);
        let covered = ["core.select", "core.assert", "core.instantiate"]
            .iter()
            .map(|l| tracer.layer(l).busy_ms())
            .sum();
        let traced_rate = p.answers as f64 / p.wall.as_secs_f64();
        let spans = out_dir.join("spans.jsonl");
        let untraced = warm_median(&rates);
        trace_summary(&mut out, &tracer, p.wall, covered, true, traced_rate, untraced, &spans);
    }
    out
}

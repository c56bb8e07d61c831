//! The serving workloads, `serve-crowd` and `serve-churn-durable`: a
//! [`ServingCore`] driven one event at a time through `submit` and `pump`.
//!
//! A run makes three kinds of pass, each over a fresh core:
//!
//! * the **unpaced replay** submits the whole stream as fast as the core
//!   takes it and gives `answers_per_s` and the run's fingerprint;
//! * the **paced pass** offers the whole stream at a fixed rate, one event
//!   per `pump` (an open loop: the schedule never waits for the core), and
//!   gives the question and commit-visibility latencies;
//! * the **traced replay** (trace runs only) repeats the unpaced replay
//!   with a span around every `submit` and every `pump`, each pump named
//!   after what its event did.

use crate::inputs::{self, Scenario};
use crate::record::{
    median, peak_rss_mb, timed, trace_summary, warm_median, Fingerprint, Outcome, Samples, Tracer,
    TAIL_WINDOW,
};
use crate::recovery::{fresh_dir, Recovery};
use smn_core::{ProbabilisticNetwork, ShardingConfig};
use smn_datasets::{open_loop, SessionAction, WorkloadSpec};
use smn_service::{Aggregation, Scheduler, ServeConfig, ServeReport, ServiceEvent, ServingCore};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Crowd error rate of both simulated workers.
const ERROR_RATE: f64 = 0.1;
/// Redundancy `k` = crowd size = commit threads.
const WORKERS: usize = 2;
/// Seed of the open-loop stream (the `BENCH_serve` stream). Pinned: the
/// stream fixes which questions join an open lease and which select
/// afresh, and the run's seed varies the crowd's answers instead.
const STREAM_SEED: u64 = 13;
/// Setups measured per run, at least.
const MIN_SETUPS: usize = 7;
/// Unpaced replays per run, at least; the first is cold and is not
/// counted in `answers_per_s`.
const MIN_UNPACED: usize = 4;
/// Paced passes per run, at least.
const MIN_PACED: usize = 2;

/// One serving workload's fixed shape.
pub struct Shape {
    /// Webform clusters of the federation.
    pub groups: usize,
    /// Open-loop sessions.
    pub sessions: u64,
    /// Questions as a share of the answer capacity (uncertain × k).
    pub capacity_share: f64,
    /// One churn event is interleaved after every this many session
    /// events (`None`: a static network).
    pub churn_every: Option<usize>,
    /// Attach a durable store (snapshot + WAL fsynced per flush).
    pub durable: bool,
    /// Offered rate of the paced pass, in events per second: about half
    /// the unpaced event throughput measured on the two-core benchmark
    /// host (see the README), so that the core is about half busy there.
    pub offered_rate: f64,
}

pub const CROWD: Shape = Shape {
    groups: 700,
    sessions: 10_000,
    capacity_share: 1.0,
    churn_every: None,
    durable: false,
    offered_rate: 10000.0,
};

pub const CHURN: Shape = Shape {
    groups: 240,
    sessions: 128,
    capacity_share: 3.0,
    churn_every: Some(400),
    durable: true,
    offered_rate: 10000.0,
};

struct Workload<'a> {
    shape: &'a Shape,
    scenario: Scenario,
    events: Vec<ServiceEvent>,
    config: ServeConfig,
    out_dir: PathBuf,
    stores: usize,
}

/// A core ready for its first event.
struct Setup {
    core: ServingCore,
    /// `ServingCore::new` plus `attach_durability`.
    elapsed: Duration,
    /// `attach_durability` alone, with the store directory.
    store: Option<(PathBuf, Duration)>,
}

/// What a finished replay left behind.
struct Replay {
    /// The final posterior; the core itself is dropped so that no two
    /// cores (and their session forks) are alive at once.
    probabilities: Vec<f64>,
    /// Accepted events.
    accepted: u64,
    report: ServeReport,
    wall: Duration,
    fingerprint: u64,
    /// Ingress `Full` rejections (each resubmitted after a pump).
    full: u64,
    /// Commits per flushing pump (traced replays only).
    flush_batches: Vec<usize>,
}

#[derive(Default)]
struct Paced {
    question: Samples,
    /// From the moment the event whose pump flushed a commit was due to
    /// the end of that pump: the queueing and the flush itself.
    commit_visible: Samples,
    /// From the end of the pump that cast a commit's deciding vote to the
    /// end of the pump that flushed it. At a fixed offered rate this wait
    /// is set by `flush_every` and the publish ticks, not by the flush.
    commit_wait: Samples,
    late_max: Duration,
    passes: usize,
}

impl Workload<'_> {
    fn setup(&mut self) -> Setup {
        let dir = self.shape.durable.then(|| {
            self.stores += 1;
            fresh_dir(&self.out_dir, &format!("store-{}", self.stores))
        });
        // cloning the inputs is input generation, not set-up
        let (network, truth) = (self.scenario.network.clone(), self.scenario.truth.clone());
        let start = Instant::now();
        let mut core = ServingCore::new(network, truth, vec![ERROR_RATE; WORKERS], self.config)
            .expect("a two-worker crowd is a valid config");
        let store = dir.map(|dir| {
            let attach = Instant::now();
            core.attach_durability(&dir).expect("the store directory is writable");
            (dir, attach.elapsed())
        });
        Setup { core, elapsed: start.elapsed(), store }
    }

    /// Submits and pumps every event, then finishes the run.
    fn replay(&self, mut core: ServingCore, tracer: &Tracer) -> Replay {
        let traced = tracer.enabled();
        let mut full = 0u64;
        let mut flush_batches = Vec::new();
        let pass = tracer.begin("serve.replay");
        let start = Instant::now();
        for &event in &self.events {
            let t0 = traced.then(Instant::now);
            if core.submit(event).is_err() {
                full += 1;
                core.pump();
                core.submit(event).expect("a drained ingress accepts");
            }
            let Some(t0) = t0 else {
                core.pump();
                continue;
            };
            let t1 = Instant::now();
            tracer.record("service.ingress.submit", t0, t1);
            let (flushes, commits) = (core.flushes(), core.commits().len());
            core.pump();
            let t2 = Instant::now();
            let flushed = core.flushes() != flushes;
            if flushed {
                flush_batches.push(core.commits().len() - commits);
            }
            tracer.record(layer_of(event, flushed), t1, t2);
        }
        let report = {
            let _finish = tracer.begin("service.finish");
            core.finish()
        };
        let wall = start.elapsed();
        drop(pass);
        Replay {
            fingerprint: fingerprint(&report, core.base()),
            probabilities: core.base().probabilities().to_vec(),
            accepted: core.event_log().len() as u64,
            report,
            wall,
            full,
            flush_batches,
        }
    }

    /// Offers the whole stream at `offered_rate`, one event per pump,
    /// timing each question from the moment its event was due to the end
    /// of its pump.
    fn paced(&self, mut core: ServingCore, out: &mut Paced) {
        let gap = Duration::from_secs_f64(1.0 / self.shape.offered_rate);
        let mut voted: HashMap<u64, Instant> = HashMap::new();
        let start = Instant::now();
        for (i, &event) in self.events.iter().enumerate() {
            let due = start + gap * u32::try_from(i).expect("stream under 2^32 events");
            wait_until(due);
            out.late_max = out.late_max.max(Instant::now().saturating_duration_since(due));
            let clock = core.submit(event).expect("an empty ingress accepts");
            let committed = core.commits().len();
            core.pump();
            let end = Instant::now();
            match event {
                ServiceEvent::Question { .. } => out.question.push(end - due),
                ServiceEvent::Answer { .. } => {
                    voted.insert(clock, end);
                }
                _ => {}
            }
            for commit in &core.commits()[committed..] {
                out.commit_visible.push(end - due);
                if let Some(vote) = voted.remove(&commit.decided_clock) {
                    out.commit_wait.push(end - vote);
                }
            }
        }
        out.passes += 1;
        drop(core.finish());
    }
}

/// Sleeps while the deadline is far, then spins: a wake-up that
/// overshoots would add the scheduler's latency to every question.
fn wait_until(deadline: Instant) {
    loop {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        let left = deadline - now;
        if left > Duration::from_millis(2) {
            std::thread::sleep(left - Duration::from_millis(1));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The layer a pump is attributed to: an evolution epoch (which flushes
/// first), else the flush when it flushed, else the kind of event it
/// applied.
fn layer_of(event: ServiceEvent, flushed: bool) -> &'static str {
    match event {
        ServiceEvent::Extend { .. } | ServiceEvent::Retire { .. } => "service.epoch",
        _ if flushed => "service.flush",
        ServiceEvent::Question { .. } => "service.question",
        ServiceEvent::Answer { .. } => "service.answer",
        ServiceEvent::PublishTick => "service.publish",
    }
}

const LAYERS: [&str; 7] = [
    "service.ingress.submit",
    "service.question",
    "service.answer",
    "service.flush",
    "service.publish",
    "service.epoch",
    "service.finish",
];

/// The commit sequence, the failure counters and the bits of the final
/// posterior.
fn fingerprint(report: &ServeReport, base: &ProbabilisticNetwork) -> u64 {
    let mut f = Fingerprint::default();
    for c in &report.commits {
        f.word(u64::from(c.candidate));
        f.word(u64::from(c.approved));
        f.word(c.outcome.len() as u64);
        f.word(c.decided_clock);
        f.word(c.committed_clock);
        f.f64s([c.entropy_after]);
    }
    f.word(report.questions_asked);
    f.word(report.starved_questions);
    f.word(report.ignored_answers);
    f.word(report.epochs);
    f.f64s(base.probabilities().iter().copied());
    f.value()
}

/// The open-loop session stream with churn events interleaved.
fn stream(shape: &Shape, uncertain: usize, churn: &[ServiceEvent]) -> Vec<ServiceEvent> {
    let questions = ((uncertain * WORKERS) as f64 * shape.capacity_share).round() as u64;
    let spec = WorkloadSpec {
        sessions: shape.sessions,
        questions,
        think_min: 1,
        think_max: 16,
        publish_every: 256,
        seed: STREAM_SEED,
    };
    let mut churn = churn.iter().copied();
    let mut events = Vec::new();
    for (i, arrival) in open_loop(spec).enumerate() {
        events.push(match arrival.action {
            SessionAction::Question { session } => ServiceEvent::Question { session },
            SessionAction::Answer { session } => ServiceEvent::Answer { session, verdict: None },
            SessionAction::Publish => ServiceEvent::PublishTick,
        });
        if shape.churn_every.is_some_and(|every| (i + 1) % every == 0) {
            events.extend(churn.next());
        }
    }
    events
}

/// Runs a serving workload for about `seconds` and checks its outputs.
pub fn run(shape: &Shape, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let (scenario, churn) = if shape.churn_every.is_some() {
        inputs::evolving_federation(shape.groups)
    } else {
        (inputs::federation(shape.groups), Vec::new())
    };
    let config = ServeConfig {
        sampler: inputs::sampler(),
        sharding: ShardingConfig::default(),
        redundancy: WORKERS,
        aggregation: Aggregation::QualityWeighted,
        threads: WORKERS,
        scheduler: Scheduler::Pool,
        seed,
        capacity: 65_536,
        flush_every: 64,
        max_forks: 8_192,
    };
    // the fill alone, on the core's own input: it sizes the stream and is
    // the core layer's share of set-up
    let network = scenario.network.clone();
    let (probe, fill) =
        timed(|| ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding));
    let uncertain = probe.probabilities().iter().filter(|&&p| p > 0.0 && p < 1.0).count();
    drop(probe);
    let events = stream(shape, uncertain, &churn);
    let mut w =
        Workload { shape, scenario, events, config, out_dir: out_dir.to_path_buf(), stores: 0 };

    let mut out = Outcome::default();
    out.config("groups", shape.groups);
    out.config("candidates", w.scenario.network.candidate_count());
    out.config("uncertain", uncertain);
    out.config("sessions", shape.sessions);
    out.config("capacity_share", shape.capacity_share);
    out.config("events", w.events.len());
    let epochs = w
        .events
        .iter()
        .filter(|e| matches!(e, ServiceEvent::Extend { .. } | ServiceEvent::Retire { .. }));
    out.config("churn_events", epochs.count());
    out.config("workers", WORKERS);
    out.config("threads", WORKERS);
    out.config("durable", shape.durable);
    out.config("offered_rate_per_s", shape.offered_rate);

    let budget = Duration::from_secs_f64(seconds);
    let begun = Instant::now();
    let mut setups: Vec<f64> = Vec::new();
    let mut throughputs: Vec<f64> = Vec::new();
    let mut event_rates: Vec<f64> = Vec::new();

    // unpaced replays: a fixed number, more while half the budget lasts
    let mut first: Option<(Replay, Option<(PathBuf, Duration)>)> = None;
    loop {
        let setup = w.setup();
        setups.push(setup.elapsed.as_secs_f64());
        let replay = w.replay(setup.core, &Tracer::new(false));
        throughputs.push(replay.report.questions_asked as f64 / replay.wall.as_secs_f64());
        event_rates.push(replay.accepted as f64 / replay.wall.as_secs_f64());
        match &first {
            None => first = Some((replay, setup.store)),
            Some((reference, _)) => out.check(replay.fingerprint == reference.fingerprint, || {
                "two identical unpaced replays diverged".into()
            }),
        }
        if throughputs.len() >= MIN_UNPACED && (trace || begun.elapsed() >= budget / 2) {
            break;
        }
    }
    let (reference, store) = first.expect("one replay ran");

    // paced passes over the whole stream, each on a fresh core
    let mut paced = Paced::default();
    while paced.passes < MIN_PACED || (!trace && begun.elapsed() < budget) {
        let setup = w.setup();
        setups.push(setup.elapsed.as_secs_f64());
        w.paced(setup.core, &mut paced);
    }
    // read before the traced replay, the extra set-ups and the recovery
    // below, which are the benchmark's own work
    let rss = peak_rss_mb("self").unwrap_or(0.0);

    let traced = trace.then(|| {
        let tracer = Tracer::new(true);
        let setup = w.setup();
        setups.push(setup.elapsed.as_secs_f64());
        let replay = w.replay(setup.core, &tracer);
        out.check(replay.fingerprint == reference.fingerprint, || {
            "the traced replay's fingerprint differs from the untraced one".into()
        });
        (tracer, replay)
    });
    while setups.len() < MIN_SETUPS {
        setups.push(w.setup().elapsed.as_secs_f64());
    }

    // recovery: the durable workload's own store (initial snapshot plus
    // the whole WAL), otherwise a checkpoint of the initial network
    let recovery = match &store {
        Some((dir, _)) => Recovery::existing(dir, &reference.probabilities, &mut out),
        None => {
            let network = w.scenario.network.clone();
            let initial =
                ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding);
            Recovery::checkpoint(&fresh_dir(out_dir, "checkpoint"), &initial, &[], &mut out)
        }
    };

    let report = &reference.report;
    out.check(report.durability_error.is_none(), || {
        format!("storage fault: {:?}", report.durability_error)
    });
    if shape.churn_every.is_none() {
        out.check(report.final_entropy == 0.0, || {
            format!("the crowd run ended at entropy {} bits, not 0", report.final_entropy)
        });
    }

    out.attempted = reference.accepted + reference.full;
    out.failed = report.starved_questions
        + report.ignored_answers
        + reference.full
        + u64::from(report.durability_error.is_some());

    let unpaced_rate = warm_median(&event_rates);
    out.metric("setup_s", median(&setups), "s");
    out.metric("answers_per_s", warm_median(&throughputs), "1/s");
    out.metric("question_p50_ms", paced.question.quantile_ms(0.50), "ms");
    out.metric("question_p99_ms", paced.question.windowed_quantile_ms(0.99, TAIL_WINDOW), "ms");
    out.metric("commit_visible_p90_ms", paced.commit_visible.quantile_ms(0.90), "ms");
    let visible = paced.commit_visible.windowed_quantile_ms(0.99, TAIL_WINDOW);
    out.metric("commit_visible_p99_ms", visible, "ms");
    let wait = paced.commit_wait.windowed_quantile_ms(0.99, TAIL_WINDOW);
    out.metric("commit_wait_p99_ms", wait, "ms");
    out.metric("recover_s", recovery.recover_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("precision", report.final_precision, "ratio");
    out.metric("recall", report.final_recall, "ratio");
    out.config("unpaced_events_per_s", unpaced_rate);
    out.config("utilization", shape.offered_rate / unpaced_rate);
    out.config("question_samples", paced.question.count());
    out.config("commit_samples", paced.commit_visible.count());
    out.config("paced_passes", paced.passes);
    out.config("unpaced_replays", throughputs.len());

    if let Some((tracer, replay)) = traced {
        let r = &replay.report;
        out.metric(
            "service.ingress.submit_ms",
            tracer.layer("service.ingress.submit").busy_ms(),
            "ms",
        );
        out.metric("service.ingress.full", replay.full as f64, "count");
        out.layer("service.question", &tracer.layer("service.question"), true);
        out.layer("service.answer", &tracer.layer("service.answer"), false);
        out.layer("service.flush", &tracer.layer("service.flush"), true);
        let batches = &replay.flush_batches;
        let batch_mean = batches.iter().sum::<usize>() as f64 / batches.len().max(1) as f64;
        out.metric("service.flush.batch_mean", batch_mean, "count");
        out.layer("service.publish", &tracer.layer("service.publish"), false);
        out.layer("service.epoch", &tracer.layer("service.epoch"), true);
        out.metric("service.finish_ms", tracer.layer("service.finish").busy_ms(), "ms");
        out.metric("service.answers_ignored", r.ignored_answers as f64, "count");
        out.metric("service.questions_starved", r.starved_questions as f64, "count");
        let answer_events = r.questions_asked + r.ignored_answers;
        let lost = r.ignored_answers as f64 / answer_events.max(1) as f64;
        out.metric("service.lost_lease_ratio", lost, "ratio");
        let join = 1.0 - r.commits.len() as f64 / r.questions_leased.max(1) as f64;
        out.metric("service.join_ratio", join, "ratio");
        out.metric("core.fill_ms", fill.as_secs_f64() * 1e3, "ms");
        out.metric("core.entropy_bits", r.final_entropy, "bits");
        recovery.layer_metrics(&mut out, store.map_or(Duration::ZERO, |(_, attach)| attach));
        out.metric("loadgen.late_max_ms", paced.late_max.as_secs_f64() * 1e3, "ms");
        let covered: f64 = LAYERS.iter().map(|l| tracer.layer(l).busy_ms()).sum();
        let traced_rate = r.questions_asked as f64 / replay.wall.as_secs_f64();
        let spans = out_dir.join("spans.jsonl");
        trace_summary(
            &mut out,
            &tracer,
            replay.wall,
            covered,
            true,
            traced_rate,
            warm_median(&throughputs),
            &spans,
        );
    }
    out
}

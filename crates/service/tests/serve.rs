//! Determinism, backpressure and durability certification of the
//! request-driven serving core.
//!
//! * **Thread invariance** — a seeded serving run over the open-loop
//!   workload on the worker pool is byte-identical (report JSON, commit
//!   stream, final posteriors) to the same run executed under
//!   [`smn_core::pool::sequential`], on the federation and on the fig1
//!   network. CI runs the suite at pool sizes 1 and 8 as well as the
//!   default.
//! * **Replay** — feeding the accepted-event log of a live run through
//!   [`ServingCore::replay`] reproduces the run byte for byte, including
//!   runs that hit ingress backpressure (proptest over random streams).
//! * **Backpressure** — a full ingress returns the typed
//!   [`IngressError::Full`] and never drops or reorders accepted events
//!   (proptest: the accepted log always equals the submitted stream,
//!   gapless clocks `0..n`).
//! * **Evolution epochs** — extend/retire take an exclusive epoch and
//!   leave the core consistent, replayable and durably recoverable.

use proptest::prelude::*;
use smn_core::MatchingNetwork;
use smn_datasets::SessionAction;
use smn_schema::{AttributeId, CandidateId, Correspondence};
use smn_service::{
    Aggregation, IngressError, ReplayError, ServeConfig, ServeConfigError, ServeReport,
    ServiceEvent, ServingCore, StampedEvent,
};
use smn_storage::DurableStore;
use smn_testkit::{fig1_network, fig1_truth, serve_workload, tiny_sampler, webform_federation};
use std::path::PathBuf;

fn to_event(action: SessionAction) -> ServiceEvent {
    match action {
        SessionAction::Question { session } => ServiceEvent::Question { session },
        SessionAction::Answer { session } => ServiceEvent::Answer { session, verdict: None },
        SessionAction::Publish => ServiceEvent::PublishTick,
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        sampler: tiny_sampler(5),
        redundancy: 2,
        aggregation: Aggregation::QualityWeighted,
        seed: 17,
        capacity: 1024,
        flush_every: 8,
        ..ServeConfig::default()
    }
}

/// A multi-shard serving run over the federation network and the standard
/// open-loop workload.
fn federation_run() -> (ServeReport, Vec<f64>) {
    let (net, truth) = webform_federation(4, 11);
    serving_run(net, truth, 4)
}

/// A serving run of `crowd` workers over the standard open-loop workload.
fn serving_run(
    net: MatchingNetwork,
    truth: Vec<Correspondence>,
    crowd: usize,
) -> (ServeReport, Vec<f64>) {
    let mut core =
        ServingCore::new(net, truth, vec![0.1; crowd], serve_config()).expect("serving config");
    core.run_events(serve_workload(32, 160, 7).into_iter().map(|a| to_event(a.action)));
    let report = core.finish();
    (report, core.base().probabilities().to_vec())
}

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn serving_runs_are_byte_identical_across_thread_counts() {
    let (pooled, pp) = federation_run();
    let (inline, pi) = smn_core::pool::sequential(federation_run);
    assert!(
        pooled.questions_asked > 0 && !pooled.commits.is_empty(),
        "the workload must exercise commits"
    );
    let json = |r: &ServeReport| serde_json::to_string(r).unwrap();
    assert_eq!(json(&pooled), json(&inline), "pool vs one thread");
    assert_eq!(pp, pi, "posteriors on one thread");
    // and the same run twice is reproducible outright
    assert_eq!(json(&federation_run().0), json(&pooled));
}

#[test]
fn serving_runs_are_byte_identical_across_schedulers() {
    // a sequential scope inlines every commit lane, fill and gain scan;
    // on the one-component fig1 network every flush is a single lane
    let fig1 = || serving_run(fig1_network(), fig1_truth(), 2);
    let (pooled, pp) = fig1();
    let (inline, pi) = smn_core::pool::sequential(fig1);
    let json = |r: &ServeReport| serde_json::to_string(r).unwrap();
    assert!(!pooled.commits.is_empty(), "the workload must exercise commits");
    assert_eq!(json(&pooled), json(&inline), "pool vs sequential scope");
    assert_eq!(pp, pi);
}

#[test]
fn replaying_the_accepted_log_reproduces_the_live_run() {
    let (net, truth) = webform_federation(4, 11);
    let config = serve_config();
    let mut live =
        ServingCore::new(net.clone(), truth.clone(), vec![0.1; 4], config).expect("serving config");
    live.run_events(serve_workload(32, 160, 7).into_iter().map(|a| to_event(a.action)));
    let live_report = live.finish();

    let mut replayed =
        ServingCore::replay(net, truth, vec![0.1; 4], config, live.event_log()).expect("replay");
    let replay_report = replayed.finish();
    assert_eq!(
        serde_json::to_string(&live_report).unwrap(),
        serde_json::to_string(&replay_report).unwrap(),
        "replay must reproduce the live report byte for byte"
    );
    assert_eq!(live.base().probabilities(), replayed.base().probabilities());
    assert_eq!(live.history(), replayed.history());
}

#[test]
fn a_full_ingress_returns_the_typed_error_and_preserves_accepted_events() {
    let (net, truth) = (fig1_network(), fig1_truth());
    let mut core = ServingCore::new(
        net,
        truth,
        vec![0.0; 2],
        ServeConfig { capacity: 2, redundancy: 1, ..serve_config() },
    )
    .expect("serving config");
    assert_eq!(core.submit(ServiceEvent::Question { session: 0 }), Ok(0));
    assert_eq!(core.submit(ServiceEvent::Question { session: 1 }), Ok(1));
    assert_eq!(
        core.submit(ServiceEvent::Question { session: 2 }),
        Err(IngressError::Full { capacity: 2 }),
        "backpressure is a typed error, not a panic or a drop"
    );
    core.pump();
    assert_eq!(core.submit(ServiceEvent::Question { session: 2 }), Ok(2), "clock stays gapless");
    core.pump();
    let log = core.event_log();
    assert_eq!(log.len(), 3, "rejected submissions never enter the log");
    for (i, stamped) in log.iter().enumerate() {
        assert_eq!(stamped.clock, i as u64);
        assert_eq!(stamped.event, ServiceEvent::Question { session: i as u64 });
    }
}

#[test]
fn a_perfect_crowd_reconciles_fig1_completely() {
    let (net, truth) = (fig1_network(), fig1_truth());
    let mut core = ServingCore::new(
        net,
        truth,
        vec![0.0; 2],
        ServeConfig { redundancy: 1, flush_every: 2, ..serve_config() },
    )
    .expect("serving config");
    core.run_events(serve_workload(2, 24, 3).into_iter().map(|a| to_event(a.action)));
    let report = core.finish();
    assert_eq!(report.final_effort, 1.0, "enough questions must assert every candidate");
    assert_eq!(report.final_precision, 1.0, "a perfect crowd never errs");
    assert_eq!(report.final_recall, 1.0);
    assert!(report.starved_questions > 0, "the tail of the workload finds nothing left to ask");
    assert!(report.latency.count > 0 && report.latency.p99 >= report.latency.p50);
}

#[test]
fn evolution_takes_an_epoch_and_stays_replayable() {
    let (net, truth) = (fig1_network(), fig1_truth());
    let config = ServeConfig { redundancy: 1, flush_every: 3, ..serve_config() };
    let mut live =
        ServingCore::new(net.clone(), truth.clone(), vec![0.0; 2], config).expect("serving config");
    let mut events: Vec<ServiceEvent> =
        serve_workload(2, 8, 3).into_iter().map(|a| to_event(a.action)).collect();
    // a mid-stream arrival and a retirement, each an exclusive epoch
    events
        .insert(4, ServiceEvent::Extend { a: AttributeId(0), b: AttributeId(3), confidence: 0.7 });
    events.insert(9, ServiceEvent::Retire { candidate: CandidateId(1) });
    live.run_events(events);
    let live_report = live.finish();
    assert_eq!(live_report.epochs, 2, "extend and retire each take one epoch");
    assert!(live_report.publications > 0, "epochs republish the snapshot");

    let mut replayed =
        ServingCore::replay(net, truth, vec![0.0; 2], config, live.event_log()).expect("replay");
    let replay_report = replayed.finish();
    assert_eq!(
        serde_json::to_string(&live_report).unwrap(),
        serde_json::to_string(&replay_report).unwrap()
    );
    assert_eq!(live.base().probabilities(), replayed.base().probabilities());
}

#[test]
fn serving_durability_recovers_the_live_base_exactly() {
    let dir = scratch("serve-durable").join("store");
    let (net, truth) = webform_federation(4, 11);
    let config = serve_config();

    let mut plain =
        ServingCore::new(net.clone(), truth.clone(), vec![0.1; 4], config).expect("serving config");
    plain.run_events(serve_workload(16, 80, 7).into_iter().map(|a| to_event(a.action)));
    let plain_report = plain.finish();

    let mut durable = ServingCore::new(net, truth, vec![0.1; 4], config).expect("serving config");
    durable.attach_durability(&dir).expect("attach");
    durable.run_events(serve_workload(16, 80, 7).into_iter().map(|a| to_event(a.action)));
    let report = durable.finish();
    assert!(report.durability_error.is_none(), "healthy runs surface no storage fault");
    // journaling must not perturb the run (the report carries the extra
    // durability_error field only)
    assert_eq!(
        serde_json::to_string(&plain_report.commits).unwrap(),
        serde_json::to_string(&report.commits).unwrap()
    );
    assert_eq!(plain.base().probabilities(), durable.base().probabilities());

    let rec = DurableStore::recover(&dir).expect("recover");
    assert_eq!(rec.history, durable.history(), "WAL order reproduces the commit history");
    assert_eq!(rec.network.to_state(), durable.base().to_state(), "structural equality");
    assert_eq!(rec.network.probabilities(), durable.base().probabilities(), "posterior equality");
}

#[test]
fn serving_storage_faults_latch_and_surface_in_the_report() {
    let dir = scratch("serve-latched").join("store");
    let (net, truth) = (fig1_network(), fig1_truth());
    let mut core =
        ServingCore::new(net, truth, vec![0.0; 2], ServeConfig { redundancy: 1, ..serve_config() })
            .expect("serving config");
    core.attach_durability(&dir).expect("attach");
    // yank the store directory: the final snapshot publication fails, the
    // fault latches, and the report carries it verbatim
    std::fs::remove_dir_all(&dir).expect("remove the live store directory");
    core.run_events(serve_workload(2, 12, 3).into_iter().map(|a| to_event(a.action)));
    let report = core.finish();
    let latched = core.durability_error().expect("the publish failure must latch");
    assert_eq!(report.durability_error.as_deref(), Some(latched.to_string().as_str()));
}

#[test]
fn an_empty_crowd_is_a_typed_construction_error() {
    // regression: this used to build fine and then panic on the first
    // answer event (`session % crowd.len()` and `redundancy.clamp(1, 0)`)
    let err = ServingCore::new(fig1_network(), fig1_truth(), Vec::<f64>::new(), serve_config())
        .err()
        .expect("an empty crowd must be rejected at construction");
    assert_eq!(err, ServeConfigError::EmptyCrowd);
    assert!(err.to_string().contains("crowd worker"), "the error must explain itself");
}

#[test]
fn finishing_a_zero_commit_run_reports_zeroed_latency() {
    // regression: the percentile helper used to `expect("nonempty")` on
    // runs that never flushed a commit
    let mut core = ServingCore::new(fig1_network(), fig1_truth(), vec![0.0; 2], serve_config())
        .expect("serving config");
    // questions only — nothing ever decides, so nothing ever commits
    for s in 0..4 {
        core.submit(ServiceEvent::Question { session: s }).expect("capacity");
    }
    core.pump();
    let report = core.finish();
    assert!(report.commits.is_empty(), "no answers means no commits");
    assert_eq!(report.latency.count, 0);
    assert_eq!(report.latency.p50, 0);
    assert_eq!(report.latency.p99, 0);
    assert_eq!(report.latency.max, 0);
    assert_eq!(report.latency.mean, 0.0);
}

#[test]
fn replay_clamps_zero_capacity_and_rejects_drifted_logs() {
    // regression: replay used to `expect("replay queue never fills")`.
    // A zero-capacity replay config is clamped to 1 at the config level
    // and succeeds (replay pumps after every submit)...
    let (net, truth) = (fig1_network(), fig1_truth());
    let config = ServeConfig { redundancy: 1, ..serve_config() };
    let mut live =
        ServingCore::new(net.clone(), truth.clone(), vec![0.0; 2], config).expect("serving config");
    live.run_events(serve_workload(2, 12, 3).into_iter().map(|a| to_event(a.action)));
    let live_report = live.finish();

    let zero_capacity = ServeConfig { capacity: 0, ..config };
    assert_eq!(zero_capacity.effective_capacity(), 1, "capacity clamps at the config level");
    let mut replayed = ServingCore::replay(
        net.clone(),
        truth.clone(),
        vec![0.0; 2],
        zero_capacity,
        live.event_log(),
    )
    .expect("a clamped zero-capacity replay must succeed");
    assert_eq!(
        serde_json::to_string(&live_report).unwrap(),
        serde_json::to_string(&replayed.finish()).unwrap(),
        "the clamped replay reproduces the live run byte for byte"
    );

    // ...while a log whose clocks don't match the gapless stamping is a
    // typed error, not a debug assertion
    let drifted = vec![StampedEvent { clock: 5, event: ServiceEvent::Question { session: 0 } }];
    let err = ServingCore::replay(net.clone(), truth.clone(), vec![0.0; 2], config, &drifted)
        .err()
        .expect("a drifted log must be rejected");
    assert_eq!(err, ReplayError::ClockDrift { expected: 5, got: 0 });

    // ...and a rejected configuration surfaces through replay too
    let err = ServingCore::replay(net, truth, Vec::<f64>::new(), config, &[])
        .err()
        .expect("an empty crowd must surface through replay");
    assert_eq!(err, ReplayError::Config(ServeConfigError::EmptyCrowd));
}

/// Decodes one opcode into a valid fig1 serving event: mostly
/// question/answer traffic from six sessions (explicit and simulated
/// verdicts), with publish ticks and the occasional evolution event.
fn decode_event(op: u32) -> ServiceEvent {
    let session = (op >> 4) as u64 % 6;
    match op % 16 {
        0..=5 => ServiceEvent::Question { session },
        6..=11 => ServiceEvent::Answer {
            session,
            verdict: match op % 3 {
                0 => None,
                1 => Some(true),
                _ => Some(false),
            },
        },
        12 | 13 => ServiceEvent::PublishTick,
        14 => ServiceEvent::Extend { a: AttributeId(0), b: AttributeId(3), confidence: 0.7 },
        _ => ServiceEvent::Retire { candidate: CandidateId((op >> 8) % 5) },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Backpressure never drops or reorders: whatever the stream and the
    /// (tiny) capacity, the accepted log equals the submitted stream with
    /// gapless clocks.
    #[test]
    fn ingress_backpressure_never_drops_or_reorders(
        ops in prop::collection::vec(any::<u32>(), 1..40),
        capacity in 1usize..5,
    ) {
        let events: Vec<ServiceEvent> = ops.iter().map(|&op| decode_event(op)).collect();
        let mut core = ServingCore::new(
            fig1_network(),
            fig1_truth(),
            vec![0.0; 2],
            ServeConfig { capacity, redundancy: 1, ..serve_config() },
        )
        .expect("serving config");
        let mut rejections = 0u32;
        for &event in &events {
            if core.submit(event).is_err() {
                rejections += 1;
                core.pump();
                prop_assert_eq!(core.submit(event).map(|_| ()), Ok(()), "drained queues accept");
            }
        }
        core.pump();
        let log = core.event_log();
        prop_assert_eq!(log.len(), events.len(), "no accepted event is ever dropped");
        for (i, (stamped, submitted)) in log.iter().zip(&events).enumerate() {
            prop_assert_eq!(stamped.clock, i as u64, "clocks are gapless");
            prop_assert_eq!(&stamped.event, submitted, "order is submission order");
        }
        if capacity < events.len() {
            // tiny queues must actually exercise the backpressure path
            prop_assert!(rejections > 0 || events.len() <= capacity);
        }
    }

    /// Replaying the accepted log of any random live run reproduces it
    /// byte for byte — including runs with evolution epochs.
    #[test]
    fn replay_reproduces_any_live_run(
        ops in prop::collection::vec(any::<u32>(), 1..60),
        capacity in 2usize..6,
    ) {
        let events: Vec<ServiceEvent> = ops.iter().map(|&op| decode_event(op)).collect();
        let config = ServeConfig {
            capacity,
            redundancy: 2,
            flush_every: 4,
            ..serve_config()
        };
        let mut live = ServingCore::new(fig1_network(), fig1_truth(), vec![0.05; 3], config)
            .expect("serving config");
        live.run_events(events.iter().copied());
        let live_report = live.finish();

        let mut replayed = ServingCore::replay(
            fig1_network(),
            fig1_truth(),
            vec![0.05; 3],
            config,
            live.event_log(),
        )
        .expect("replay");
        let replay_report = replayed.finish();
        prop_assert_eq!(
            serde_json::to_string(&live_report).unwrap(),
            serde_json::to_string(&replay_report).unwrap()
        );
        prop_assert_eq!(live.base().probabilities(), replayed.base().probabilities());
        prop_assert_eq!(live.history(), replayed.history());
    }
}

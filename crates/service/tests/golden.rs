//! The serving golden: a fixed seeded [`ServingCore`] run whose commit
//! sequence and final posterior bits are checked in under
//! `tests/fixtures/serve_golden.txt`, so a change to the serving path that
//! moves any question, vote, commit or posterior fails here instead of
//! passing unnoticed (the determinism suites only compare a run with its
//! own rerun).
//!
//! The run: a 40-group webform federation, 48 open-loop sessions with a
//! live-view cap below the session count (so views are evicted and
//! re-admitted), redundancy 2 with quality-weighted votes, a durable
//! store, and a retirement or a re-arrival of a retired correspondence
//! after every 200 session events.
//!
//! To regenerate the fixture after a change that is *meant* to move
//! serving output:
//!
//! ```sh
//! SMN_WRITE_GOLDEN=1 cargo test -p smn-service --test golden
//! ```

use smn_datasets::SessionAction;
use smn_schema::CandidateId;
use smn_service::{Aggregation, Scheduler, ServeConfig, ServiceEvent, ServingCore};
use smn_storage::DurableStore;
use smn_testkit::{serve_workload, tiny_sampler, webform_federation};
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/serve_golden.txt");

fn config() -> ServeConfig {
    ServeConfig {
        sampler: tiny_sampler(13),
        redundancy: 2,
        aggregation: Aggregation::QualityWeighted,
        threads: 2,
        scheduler: Scheduler::Pool,
        seed: 29,
        capacity: 256,
        flush_every: 8,
        max_forks: 16,
        ..ServeConfig::default()
    }
}

/// The open-loop stream with churn interleaved: after every 200 session
/// events, alternately retire a live candidate or re-admit the most
/// recently retired correspondence. A shadow network resolves the ids
/// each event names at the moment it applies.
fn events(network: &smn_core::MatchingNetwork) -> Vec<ServiceEvent> {
    let mut shadow = network.clone();
    let mut retired = Vec::new();
    let mut out = Vec::new();
    for (i, arrival) in serve_workload(48, 1600, 23).into_iter().enumerate() {
        out.push(match arrival.action {
            SessionAction::Question { session } => ServiceEvent::Question { session },
            SessionAction::Answer { session } => ServiceEvent::Answer { session, verdict: None },
            SessionAction::Publish => ServiceEvent::PublishTick,
        });
        if (i + 1) % 200 != 0 {
            continue;
        }
        let round = (i + 1) / 200;
        if round % 2 == 1 || retired.is_empty() {
            let n = shadow.candidate_count();
            let candidate = CandidateId::from_index((round * 7919) % n);
            let info = &shadow.candidates().candidates()[candidate.index()];
            let (corr, confidence) = (info.corr, info.confidence);
            shadow.retire(candidate).expect("live candidate retires");
            retired.push((corr, confidence));
            out.push(ServiceEvent::Retire { candidate });
        } else {
            let (corr, confidence) = retired.pop().expect("checked nonempty");
            shadow.extend(corr.a(), corr.b(), confidence).expect("retired pair re-arrives");
            out.push(ServiceEvent::Extend { a: corr.a(), b: corr.b(), confidence });
        }
    }
    out
}

/// Runs the golden scenario and renders its fingerprint: one line per
/// commit, the run counters, and the bits of every final posterior.
fn fingerprint() -> String {
    let (network, truth) = webform_federation(40, 5);
    let events = events(&network);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("serve-golden");
    let _ = std::fs::remove_dir_all(&dir);
    let mut core =
        ServingCore::new(network, truth, [0.05, 0.1, 0.2], config()).expect("serving config");
    core.attach_durability(&dir).expect("attach");
    core.run_events(events);
    let report = core.finish();
    assert!(report.durability_error.is_none(), "the golden run must stay durable");
    let recovered = DurableStore::recover(&dir).expect("recover");
    assert_eq!(
        recovered.network.probabilities(),
        core.base().probabilities(),
        "the store recovers the live posteriors"
    );

    let mut out = String::new();
    writeln!(out, "# step candidate shard approved outcome decided committed entropy_bits")
        .unwrap();
    for c in &report.commits {
        writeln!(
            out,
            "{} {} {} {} {} {} {} {:016x}",
            c.step,
            c.candidate,
            c.shard,
            u8::from(c.approved),
            c.outcome,
            c.decided_clock,
            c.committed_clock,
            c.entropy_after.to_bits()
        )
        .unwrap();
    }
    writeln!(
        out,
        "# leased {} asked {} starved {} ignored {} flushes {} publications {} epochs {}",
        report.questions_leased,
        report.questions_asked,
        report.starved_questions,
        report.ignored_answers,
        report.flushes,
        report.publications,
        report.epochs
    )
    .unwrap();
    let probs = core.base().probabilities();
    writeln!(out, "# posterior bits of {} candidates", probs.len()).unwrap();
    for chunk in probs.chunks(8) {
        let line: Vec<String> = chunk.iter().map(|p| format!("{:016x}", p.to_bits())).collect();
        writeln!(out, "{}", line.join(" ")).unwrap();
    }
    out
}

#[test]
fn serving_output_matches_the_checked_in_golden() {
    let got = fingerprint();
    if std::env::var_os("SMN_WRITE_GOLDEN").is_some() {
        std::fs::create_dir_all(PathBuf::from(FIXTURE).parent().expect("fixture dir"))
            .expect("create the fixture directory");
        std::fs::write(FIXTURE, &got).expect("write the golden");
        return;
    }
    let want = std::fs::read_to_string(FIXTURE).expect("the checked-in serving golden");
    if got != want {
        let (line, (g, w)) = got
            .lines()
            .zip(want.lines())
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((got.lines().count().min(want.lines().count()), ("<end>", "<end>")));
        panic!(
            "serving output diverged from the golden at line {}:\n got: {g}\nwant: {w}",
            line + 1
        );
    }
}

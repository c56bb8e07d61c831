//! The request-driven serving scenario of the serve bench.
//!
//! A webform federation served by a
//! [`ServingCore`](smn_service::ServingCore): an open-loop workload
//! (`smn_datasets::open_loop`) of question→answer exchanges with seeded
//! think-times drives the core event by event. `benches/serve.rs` times
//! whole runs and a warm exchange on it; the repository benchmark's
//! `serve-crowd` workload measures serving at scale.

use crate::sharding::{bench_sampler, bench_sharding, federation_case};
use smn_core::{MatchingNetwork, ProbabilisticNetwork};
use smn_datasets::{open_loop, SessionAction, WorkloadSpec};
use smn_schema::Correspondence;
use smn_service::{Aggregation, Scheduler, ServeConfig, ServiceEvent};

/// Builds the serving scenario once: network, truth and the uncertain
/// count of its seeded initial sampling.
pub fn serve_scenario(groups: usize) -> (MatchingNetwork, Vec<Correspondence>, usize) {
    let (net, truth) = federation_case(groups, 7);
    let probe = ProbabilisticNetwork::new_sharded(net.clone(), bench_sampler(3), bench_sharding());
    let uncertain = probe.probabilities().iter().filter(|&&p| p > 0.0 && p < 1.0).count();
    (net, truth, uncertain)
}

/// The serving config of a bench point.
pub fn serve_config(workers: usize) -> ServeConfig {
    ServeConfig {
        sampler: bench_sampler(3),
        sharding: bench_sharding(),
        redundancy: workers,
        aggregation: Aggregation::QualityWeighted,
        threads: workers,
        scheduler: Scheduler::Pool,
        seed: 17,
        capacity: 65_536,
        flush_every: 64,
        max_forks: 8_192,
    }
}

/// The open-loop event stream of a bench point: enough question→answer
/// exchanges to exhaust the answer capacity (`uncertain × k`, plus a 20%
/// tail that starves), spread over `sessions` sessions.
pub fn serve_events(sessions: u64, uncertain: usize, k: usize, seed: u64) -> Vec<ServiceEvent> {
    let questions = (uncertain * k) as u64 * 6 / 5;
    let spec =
        WorkloadSpec { sessions, questions, think_min: 1, think_max: 16, publish_every: 256, seed };
    open_loop(spec)
        .map(|a| match a.action {
            SessionAction::Question { session } => ServiceEvent::Question { session },
            SessionAction::Answer { session } => ServiceEvent::Answer { session, verdict: None },
            SessionAction::Publish => ServiceEvent::PublishTick,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_service::ServingCore;

    #[test]
    fn serve_points_are_deterministic_in_content() {
        let (net, truth, uncertain) = serve_scenario(8);
        let events = serve_events(64, uncertain, 2, 13);
        let run = || {
            let mut core =
                ServingCore::new(net.clone(), truth.clone(), vec![0.1; 2], serve_config(2))
                    .expect("bench serving config");
            core.run_events(events.iter().copied());
            core.finish()
        };
        let (a, b) = (run(), run());
        assert!(a.questions_asked > 0, "the workload must collect answers");
        assert!(!a.commits.is_empty(), "answers must commit");
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }
}

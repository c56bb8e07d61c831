//! Open-loop serving workloads: seeded session/arrival event streams.
//!
//! The round-mode service drives itself — it decides when to lease
//! questions and when workers answer. A request-driven serving core is
//! driven from *outside*, so benchmarking and testing it needs a
//! workload: thousands of concurrent sessions, each repeatedly asking
//! for a question, thinking for a while, answering, thinking again.
//! [`open_loop`] generates exactly that as a deterministic, lazily
//! evaluated event stream on a logical-time axis:
//!
//! * session `s` starts at a seeded offset and alternates
//!   [`SessionAction::Question`] → (think) → [`SessionAction::Answer`]
//!   → (think) → … until its per-session question quota is spent;
//! * think times are pure splitmix64 functions of
//!   `(seed, session, step)` drawn uniformly from
//!   `[think_min, think_max]` — no RNG state threads through the
//!   stream, so any sub-range can be regenerated independently;
//! * every [`WorkloadSpec::publish_every`] popped events a
//!   [`SessionAction::Publish`] tick is interleaved (count-based, not
//!   time-based, so the tick schedule is invariant to think-time
//!   rescaling);
//! * ties on the time axis break by `(time, session, kind)` through a
//!   binary heap — the merged order is total and reproducible.
//!
//! Logical times are abstract ticks: the serving benchmark submits
//! events as fast as the ingress queue accepts them (open-loop — the
//! generator never waits for the server), and the deterministic suites
//! only rely on the *order*.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Shape of an open-loop serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Concurrent sessions. Sessions are numbered `0..sessions`.
    pub sessions: u64,
    /// Total questions asked across all sessions, split as evenly as the
    /// division allows (the first `questions % sessions` sessions ask one
    /// more). With `questions < sessions`, only the first `questions`
    /// sessions participate.
    pub questions: u64,
    /// Inclusive lower bound of the think-time draw (ticks).
    pub think_min: u64,
    /// Inclusive upper bound of the think-time draw (ticks).
    pub think_max: u64,
    /// Interleave one [`SessionAction::Publish`] tick every this many
    /// popped events (`0` disables publication ticks).
    pub publish_every: u64,
    /// Seed of every think-time and start-offset draw.
    pub seed: u64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        Self {
            sessions: 64,
            questions: 256,
            think_min: 1,
            think_max: 16,
            publish_every: 32,
            seed: 0x5E55_1025,
        }
    }
}

/// What one workload event asks the serving core to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionAction {
    /// Session requests its next question.
    Question {
        /// The asking session.
        session: u64,
    },
    /// Session answers its outstanding question.
    Answer {
        /// The answering session.
        session: u64,
    },
    /// A snapshot-publication tick.
    Publish,
}

/// One workload event on the logical time axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalEvent {
    /// Logical arrival tick (nondecreasing across the stream).
    pub at: u64,
    /// The action arriving at that tick.
    pub action: SessionAction,
}

/// Lazy open-loop event stream; see [`open_loop`].
#[derive(Debug)]
pub struct OpenLoopWorkload {
    spec: WorkloadSpec,
    /// Min-heap of `(time, session, kind, step)`: kind 0 = question,
    /// 1 = answer; the tuple order makes ties total.
    heap: BinaryHeap<Reverse<(u64, u64, u8, u64)>>,
    /// Remaining questions per participating session.
    remaining: Vec<u64>,
    popped: u64,
}

/// Splitmix64 over `(seed, session, step)` — the stateless think-time
/// generator.
fn mix(seed: u64, session: u64, step: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(session.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(step.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl OpenLoopWorkload {
    fn think(&self, session: u64, step: u64) -> u64 {
        let lo = self.spec.think_min.min(self.spec.think_max);
        let hi = self.spec.think_min.max(self.spec.think_max);
        lo + mix(self.spec.seed, session, step) % (hi - lo + 1)
    }
}

impl Iterator for OpenLoopWorkload {
    type Item = ArrivalEvent;

    fn next(&mut self) -> Option<ArrivalEvent> {
        // count-based publish ticks ride between session events, stamped
        // at the time of the event they precede
        if self.spec.publish_every > 0
            && self.popped > 0
            && self.popped % self.spec.publish_every == 0
        {
            if let Some(&Reverse((at, _, _, _))) = self.heap.peek() {
                self.popped += 1; // consume the tick slot
                return Some(ArrivalEvent { at, action: SessionAction::Publish });
            }
        }
        let Reverse((at, session, kind, step)) = self.heap.pop()?;
        self.popped += 1;
        let action = if kind == 0 {
            // the answer follows after one think-time
            self.heap.push(Reverse((
                at + self.think(session, step.wrapping_mul(2).wrapping_add(1)),
                session,
                1,
                step,
            )));
            SessionAction::Question { session }
        } else {
            // schedule the next question, if the quota allows
            let left = &mut self.remaining[session as usize];
            *left -= 1;
            if *left > 0 {
                self.heap.push(Reverse((
                    at + self.think(session, step.wrapping_mul(2).wrapping_add(2)),
                    session,
                    0,
                    step + 1,
                )));
            }
            SessionAction::Answer { session }
        };
        Some(ArrivalEvent { at, action })
    }
}

/// Builds the open-loop workload stream for `spec` — deterministic in
/// the spec, lazily evaluated, `2 × questions` session events plus the
/// interleaved publish ticks.
pub fn open_loop(spec: WorkloadSpec) -> OpenLoopWorkload {
    let participants = spec.sessions.min(spec.questions);
    let mut remaining = vec![0u64; spec.sessions as usize];
    let mut heap = BinaryHeap::new();
    for s in 0..participants {
        let quota = spec.questions / spec.sessions.max(1)
            + u64::from(s < spec.questions % spec.sessions.max(1));
        let quota = if spec.questions < spec.sessions { 1 } else { quota };
        remaining[s as usize] = quota;
        heap.push(Reverse((mix(spec.seed, s, 0) % (spec.think_max.max(1)), s, 0u8, 0u64)));
    }
    OpenLoopWorkload { spec, heap, remaining, popped: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            sessions: 8,
            questions: 40,
            think_min: 1,
            think_max: 9,
            publish_every: 10,
            seed: 42,
        }
    }

    #[test]
    fn stream_is_deterministic_in_the_spec() {
        let a: Vec<ArrivalEvent> = open_loop(spec()).collect();
        let b: Vec<ArrivalEvent> = open_loop(spec()).collect();
        assert_eq!(a, b);
        let c: Vec<ArrivalEvent> = open_loop(WorkloadSpec { seed: 43, ..spec() }).collect();
        assert_ne!(a, c, "a different seed must reshuffle the stream");
    }

    #[test]
    fn event_counts_match_the_quota() {
        let events: Vec<ArrivalEvent> = open_loop(spec()).collect();
        let questions =
            events.iter().filter(|e| matches!(e.action, SessionAction::Question { .. })).count();
        let answers =
            events.iter().filter(|e| matches!(e.action, SessionAction::Answer { .. })).count();
        assert_eq!(questions, 40);
        assert_eq!(answers, 40, "every question is eventually answered");
    }

    #[test]
    fn times_are_nondecreasing_and_sessions_alternate() {
        let events: Vec<ArrivalEvent> = open_loop(spec()).collect();
        let mut last = 0u64;
        let mut outstanding = [false; 8];
        for e in &events {
            assert!(e.at >= last, "time went backwards");
            last = e.at;
            match e.action {
                SessionAction::Question { session } => {
                    assert!(!outstanding[session as usize], "question before answering");
                    outstanding[session as usize] = true;
                }
                SessionAction::Answer { session } => {
                    assert!(outstanding[session as usize], "answer without a question");
                    outstanding[session as usize] = false;
                }
                SessionAction::Publish => {}
            }
        }
        assert!(outstanding.iter().all(|o| !o), "every session finishes answered");
    }

    #[test]
    fn every_session_participates_and_publishes_interleave() {
        let events: Vec<ArrivalEvent> = open_loop(spec()).collect();
        for s in 0..8u64 {
            assert!(
                events.iter().any(|e| e.action == SessionAction::Question { session: s }),
                "session {s} never asked"
            );
        }
        let publishes = events.iter().filter(|e| e.action == SessionAction::Publish).count();
        assert!(publishes >= 6, "expected interleaved publish ticks, saw {publishes}");
    }

    #[test]
    fn more_sessions_than_questions_still_answers_everything() {
        let spec = WorkloadSpec { sessions: 16, questions: 5, publish_every: 0, ..spec() };
        let events: Vec<ArrivalEvent> = open_loop(spec).collect();
        let answers =
            events.iter().filter(|e| matches!(e.action, SessionAction::Answer { .. })).count();
        assert_eq!(answers, 5);
        assert!(events.iter().all(|e| e.action != SessionAction::Publish));
    }
}

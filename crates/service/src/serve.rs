//! The request-driven serving core.
//!
//! [`ServingCore`] inverts the round-driven [`crate::service`] loop:
//! instead of the service deciding when workers answer, *events* arrive
//! — question requests, answers, candidate arrivals/retirements,
//! snapshot-publication ticks — through a bounded [`IngressQueue`] with
//! typed backpressure, and the core reacts:
//!
//! * **Questions** are leased per session by the [`SessionManager`]:
//!   join an under-replicated open question first (redundancy `k`
//!   fills from concurrent sessions), else select fresh on the
//!   session's view: the published snapshot plus a sparse echo of the
//!   session's own answers.
//! * **Answers** resolve to a vote (an explicit verdict, or the
//!   session's simulated crowd worker answering from its error
//!   profile); the `k`-th vote aggregates and the decided assertion
//!   enters the pending commit buffer.
//! * **Commits** flush in batches through
//!   [`ProbabilisticNetwork::commit_batch`]: pending assertions are
//!   ordered by `(shard, decision clock)` and applied through
//!   per-shard commit lanes on the worker pool's high-priority lane
//!   (`threads: 1` runs them under [`smn_core::pool::sequential`]).
//!   When durability is attached, each committed assertion is appended
//!   to the write-ahead log in that commit order, with one fsync per
//!   flush.
//! * **Evolution** (extend/retire) takes a brief exclusive epoch: the
//!   pending buffer flushes, every open question, assignment, claim and
//!   session view drops, the base evolves, and a fresh snapshot
//!   publishes.
//! * **Publication** swaps an immutable `Arc` snapshot of the base for
//!   readers — only when the base's mutation
//!   [`generation`](ProbabilisticNetwork::generation) actually moved.
//!
//! ## Determinism and replay
//!
//! Every accepted event is stamped with a gapless logical clock at
//! ingress, and everything the core does is a pure function of the
//! accepted-event sequence: worker answers are pure hashes, selection
//! is an entropy argmax on deterministic snapshots, commits order by
//! `(shard, clock)`, and commit lanes are byte-identical at any pool
//! size and under [`smn_core::pool::sequential`]. Hence the report and
//! the posteriors are byte-reproducible across 1/4/8 threads, and
//! [`ServingCore::replay`] of the accepted log reproduces a live run
//! exactly — rejected (backpressured) submissions never influence
//! results because they never enter the log. The integration suite
//! `serve.rs` pins all of it, including proptests over random event
//! streams.

use crate::aggregate::{aggregate, Aggregation, Verdict, Vote};
use crate::event::{IngressError, IngressQueue, ServiceEvent, StampedEvent};
use crate::service::{
    crowd_seed, majority_quality, outcome_label, truth_mask, with_threads, Scheduler,
};
use crate::session::SessionManager;
use crate::worker::{WorkerPool, WorkerStats};
use serde::Serialize;
use smn_core::feedback::Assertion;
use smn_core::persist::{apply_to_history, NetworkEvent};
use smn_core::shard::ShardingConfig;
use smn_core::{MatchingNetwork, ProbabilisticNetwork, SamplerConfig, StepOutcome};
use smn_schema::{CandidateId, Correspondence};
use smn_storage::{DurableStore, StorageError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::path::Path;
use std::sync::Arc;

/// A rejected serving configuration — every variant is a condition that
/// would otherwise surface later as a panic deep inside the event loop
/// (remote-triggerable once events arrive over a network boundary), so
/// [`ServingCore::new`] refuses it up front instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServeConfigError {
    /// `error_rates` was empty: with no crowd workers, answer events
    /// would divide by the crowd size and clamp redundancy into an
    /// empty range.
    EmptyCrowd,
    /// A worker's error rate lies outside `[0, 1]` or is NaN: it is the
    /// probability that the worker answers against the truth.
    ErrorRate {
        /// The worker's position in `error_rates`.
        worker: usize,
        /// The rejected rate.
        rate: f64,
    },
}

impl fmt::Display for ServeConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyCrowd => {
                write!(f, "serving requires at least one crowd worker (error_rates was empty)")
            }
            Self::ErrorRate { worker, rate } => {
                write!(f, "crowd worker {worker} has error rate {rate}, outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ServeConfigError {}

/// A failed [`ServingCore::replay`] — the log could not be re-accepted
/// exactly as recorded, so the replayed run would not be byte-identical
/// to the live one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReplayError {
    /// The replay configuration itself was rejected.
    Config(ServeConfigError),
    /// The replay ingress rejected a log event: its capacity (after the
    /// ≥ 1 clamp) is smaller than the recording run required at this
    /// point of the log.
    CapacityExceeded {
        /// The replay queue's effective capacity.
        capacity: usize,
        /// The log clock of the event that could not be re-accepted.
        clock: u64,
    },
    /// An accepted event was stamped with a different clock than the log
    /// recorded — the log is not a gapless prefix-faithful recording
    /// (truncated from the front, spliced, or hand-edited).
    ClockDrift {
        /// The clock the log recorded.
        expected: u64,
        /// The clock the replay ingress issued.
        got: u64,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(e) => write!(f, "replay configuration rejected: {e}"),
            Self::CapacityExceeded { capacity, clock } => write!(
                f,
                "replay ingress (capacity {capacity}) rejected the log event at clock {clock}"
            ),
            Self::ClockDrift { expected, got } => {
                write!(f, "replay clock drifted from the log: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

impl From<ServeConfigError> for ReplayError {
    fn from(e: ServeConfigError) -> Self {
        Self::Config(e)
    }
}

/// Configuration of the request-driven serving core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Sampler parameters of the base network.
    pub sampler: SamplerConfig,
    /// Sample representation of the base network.
    pub sharding: ShardingConfig,
    /// Votes per open question (`k`), clamped to the crowd size.
    pub redundancy: usize,
    /// How votes reduce to one assertion.
    pub aggregation: Aggregation,
    /// `1` runs each flush's commit lanes on the calling thread (under
    /// [`smn_core::pool::sequential`]); any other value leaves them to the
    /// worker pool, whose size bounds the parallelism. Never affects
    /// results, only wall-clock.
    pub threads: usize,
    /// Kept for configuration compatibility; see [`Scheduler`].
    pub scheduler: Scheduler,
    /// Seed of the simulated crowd's answer noise.
    pub seed: u64,
    /// Ingress queue capacity (typed backpressure beyond it).
    pub capacity: usize,
    /// Flush the pending commit buffer whenever it reaches this many
    /// decided assertions (publication ticks and evolution always
    /// flush).
    pub flush_every: usize,
    /// Cap on live session views (FIFO eviction beyond it, min 1). A view
    /// is the published snapshot's `Arc` plus the components the session
    /// echoed its own answers into; an evicted session reopens a fresh
    /// view and forgets its echo. Views a publish left dead take no echo
    /// but count toward the cap until replaced or evicted.
    pub max_forks: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            sampler: SamplerConfig::default(),
            sharding: ShardingConfig::default(),
            redundancy: 3,
            aggregation: Aggregation::Majority,
            threads: 0,
            scheduler: Scheduler::default(),
            seed: 0xC0FFEE,
            capacity: 65_536,
            flush_every: 64,
            max_forks: 8_192,
        }
    }
}

impl ServeConfig {
    /// The ingress capacity actually used: the configured value clamped
    /// to ≥ 1 at the *config* level, so a zero-capacity config can never
    /// produce a queue that rejects every submission (which would turn
    /// [`ServingCore::replay`] of any nonempty log into an error).
    pub fn effective_capacity(&self) -> usize {
        self.capacity.max(1)
    }
}

/// One committed (aggregated) assertion of a serving run.
#[derive(Debug, Clone, Serialize)]
pub struct ServeCommit {
    /// 1-based commit count.
    pub step: usize,
    /// The asserted candidate id.
    pub candidate: u32,
    /// The shard (conflict component) the commit lane wrote.
    pub shard: usize,
    /// The committed verdict (after any inconsistency fallback).
    pub approved: bool,
    /// `integrated`, `flipped` or `skipped` (see [`StepOutcome`]).
    pub outcome: String,
    /// Raw approving votes.
    pub votes_for: usize,
    /// Raw disapproving votes.
    pub votes_against: usize,
    /// Logical clock of the `k`-th (deciding) vote.
    pub decided_clock: u64,
    /// Logical clock of the flush that committed it.
    pub committed_clock: u64,
    /// Network uncertainty after the commit's flush.
    pub entropy_after: f64,
    /// User effort after the commit's flush.
    pub effort_after: f64,
}

/// Order statistics of the decided→committed logical-clock latency.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct LatencySummary {
    /// Committed assertions measured.
    pub count: u64,
    /// Median latency in clock ticks.
    pub p50: u64,
    /// 99th-percentile latency in clock ticks.
    pub p99: u64,
    /// Worst latency in clock ticks.
    pub max: u64,
    /// Mean latency in clock ticks.
    pub mean: f64,
}

impl LatencySummary {
    fn of(latencies: &[u64]) -> Self {
        if latencies.is_empty() {
            return Self { count: 0, p50: 0, p99: 0, max: 0, mean: 0.0 };
        }
        let mut sorted = latencies.to_vec();
        sorted.sort_unstable();
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        Self {
            count: sorted.len() as u64,
            p50: q(0.50),
            p99: q(0.99),
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
        }
    }
}

/// The machine-readable outcome of a serving run. Carries no thread
/// count and no wall-clock: everything is a deterministic function of
/// the accepted-event sequence and the configuration seeds, so
/// identically-driven runs serialize byte-identically at any
/// parallelism — the `serve` determinism suite pins it.
#[derive(Debug, Clone, Serialize)]
pub struct ServeReport {
    /// Distinct sessions that sent at least one event.
    pub sessions: u64,
    /// Simulated crowd workers.
    pub workers: usize,
    /// Effective redundancy `k`.
    pub redundancy: usize,
    /// Aggregation scheme label.
    pub aggregation: String,
    /// Per-worker configured error rates.
    pub worker_error_rates: Vec<f64>,
    /// Events accepted at ingress (= the accepted log length).
    pub events_accepted: u64,
    /// Question events that ended with the session holding a lease.
    pub questions_leased: u64,
    /// Worker answers collected (the serving throughput numerator).
    pub questions_asked: u64,
    /// Question events that found nothing available to ask.
    pub starved_questions: u64,
    /// Answer events with no outstanding question (dropped).
    pub ignored_answers: u64,
    /// Committed assertions, in commit order.
    pub commits: Vec<ServeCommit>,
    /// Commit-buffer flushes executed.
    pub flushes: u64,
    /// Snapshot publications that actually swapped the `Arc`.
    pub publications: u64,
    /// Exclusive evolution epochs taken.
    pub epochs: u64,
    /// Decided→committed latency in logical clock ticks.
    pub latency: LatencySummary,
    /// Per-worker tallies (answers, errors vs ground truth).
    pub worker_stats: Vec<WorkerStats>,
    /// Final network uncertainty.
    pub final_entropy: f64,
    /// Final user effort.
    pub final_effort: f64,
    /// Final precision of the probability-majority matching.
    pub final_precision: f64,
    /// Final recall of the same matching.
    pub final_recall: f64,
    /// The latched storage fault of the attached durable store, if any —
    /// in the report itself so saved JSON cannot silently drop it.
    pub durability_error: Option<String>,
}

/// An open (leased, under-voted) question.
struct OpenQuestion {
    assigned: Vec<u64>,
    votes: Vec<Vote>,
}

/// A `k`-voted assertion waiting for its commit flush.
#[derive(Debug, Clone, Copy)]
struct DecidedAssertion {
    clock: u64,
    candidate: CandidateId,
    approved: bool,
    votes_for: usize,
    votes_against: usize,
}

/// The request-driven serving core; see the module docs.
pub struct ServingCore {
    base: ProbabilisticNetwork,
    published: Arc<ProbabilisticNetwork>,
    sessions: SessionManager,
    crowd: WorkerPool,
    config: ServeConfig,
    ingress: IngressQueue,
    open: HashMap<CandidateId, OpenQuestion>,
    open_fifo: VecDeque<CandidateId>,
    assignments: HashMap<u64, CandidateId>,
    pending: Vec<DecidedAssertion>,
    pending_set: HashSet<CandidateId>,
    /// Candidates asserted in the base — recounted after every flush and
    /// epoch, so the starvation check (`available() == 0`) is O(1) per
    /// question event instead of an O(|C|) scan.
    asserted_count: usize,
    log: Vec<StampedEvent>,
    commits: Vec<ServeCommit>,
    history: Vec<Assertion>,
    latencies: Vec<u64>,
    sessions_seen: HashSet<u64>,
    questions_leased: u64,
    questions_asked: u64,
    starved_questions: u64,
    ignored_answers: u64,
    flushes: u64,
    publications: u64,
    epochs: u64,
    /// The attached durable store. It latches its own first fault, so
    /// the results of its writes are dropped here and read back through
    /// [`durability_error`](Self::durability_error).
    store: Option<DurableStore>,
}

impl ServingCore {
    /// Builds the core: the base probabilistic network (initial sampling
    /// under `config.sampler`/`config.sharding`), a simulated crowd with
    /// the given per-worker error rates answering against `truth`, and
    /// an empty ingress.
    ///
    /// An empty `error_rates` is rejected with
    /// [`ServeConfigError::EmptyCrowd`] and a rate outside `[0, 1]` (or
    /// NaN) with [`ServeConfigError::ErrorRate`], both *before* any
    /// sampling happens: a crowdless core would otherwise panic on the
    /// first answer event (worker selection divides by the crowd size,
    /// and redundancy clamps into the empty `1..=0` range), and the crowd
    /// itself refuses such a rate.
    pub fn new(
        network: MatchingNetwork,
        truth: Vec<Correspondence>,
        error_rates: impl IntoIterator<Item = f64>,
        config: ServeConfig,
    ) -> Result<Self, ServeConfigError> {
        let rates: Vec<f64> = error_rates.into_iter().collect();
        if rates.is_empty() {
            return Err(ServeConfigError::EmptyCrowd);
        }
        if let Some((worker, &rate)) =
            rates.iter().enumerate().find(|(_, r)| !(0.0..=1.0).contains(*r))
        {
            return Err(ServeConfigError::ErrorRate { worker, rate });
        }
        let base = ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding);
        let crowd = WorkerPool::new(rates, truth, crowd_seed(config.seed));
        let published = Arc::new(base.fork());
        Ok(Self {
            base,
            published,
            sessions: SessionManager::new(config.max_forks),
            crowd,
            config,
            ingress: IngressQueue::new(config.effective_capacity()),
            open: HashMap::new(),
            open_fifo: VecDeque::new(),
            assignments: HashMap::new(),
            pending: Vec::new(),
            pending_set: HashSet::new(),
            asserted_count: 0,
            log: Vec::new(),
            commits: Vec::new(),
            history: Vec::new(),
            latencies: Vec::new(),
            sessions_seen: HashSet::new(),
            questions_leased: 0,
            questions_asked: 0,
            starved_questions: 0,
            ignored_answers: 0,
            flushes: 0,
            publications: 0,
            epochs: 0,
            store: None,
        })
    }

    /// The effective redundancy `k`: the configured value clamped into
    /// `1..=crowd.len()`. The crowd is never empty (construction rejects
    /// that), so the clamp range is always nonempty.
    fn redundancy(&self) -> usize {
        self.config.redundancy.clamp(1, self.crowd.len())
    }

    /// Attaches a durable store under `dir`: the current base and
    /// committed history snapshot immediately, and every later commit is
    /// WAL-appended in commit order as its flush records it, fsynced
    /// once per flush. The store latches its first fault (see
    /// [`durability_error`](Self::durability_error) and
    /// [`ServeReport::durability_error`]) — the core never fails on
    /// storage trouble.
    pub fn attach_durability(&mut self, dir: impl AsRef<Path>) -> Result<(), StorageError> {
        self.store = Some(DurableStore::open(
            dir.as_ref(),
            &self.base,
            &self.history,
            self.history.len() as u64,
        )?);
        Ok(())
    }

    /// The first storage fault the attached store hit, if any.
    pub fn durability_error(&self) -> Option<&StorageError> {
        self.store.as_ref().and_then(DurableStore::fault)
    }

    /// The base probabilistic network (the writer's view).
    pub fn base(&self) -> &ProbabilisticNetwork {
        &self.base
    }

    /// The last published immutable snapshot (the readers' view).
    pub fn published(&self) -> &Arc<ProbabilisticNetwork> {
        &self.published
    }

    /// The accepted-event log: every event ever accepted at ingress, in
    /// clock order. Replaying it through [`ServingCore::replay`]
    /// reproduces this run byte for byte.
    pub fn event_log(&self) -> &[StampedEvent] {
        &self.log
    }

    /// The committed assertions so far, in commit order.
    pub fn commits(&self) -> &[ServeCommit] {
        &self.commits
    }

    /// Commit-buffer flushes executed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// The committed assertion history in `smn-core` terms.
    pub fn history(&self) -> &[Assertion] {
        &self.history
    }

    /// The simulated crowd.
    pub fn crowd(&self) -> &WorkerPool {
        &self.crowd
    }

    /// Submits one event to the bounded ingress. Accepted events are
    /// stamped with the next gapless logical clock and their tick is
    /// returned; a full queue rejects with [`IngressError::Full`]
    /// *without* consuming a tick — drain with [`pump`](Self::pump) and
    /// resubmit.
    pub fn submit(&mut self, event: ServiceEvent) -> Result<u64, IngressError> {
        self.ingress.push(event)
    }

    /// Drains the ingress queue, applying every accepted event in clock
    /// order. Returns how many events were applied.
    pub fn pump(&mut self) -> usize {
        let mut applied = 0;
        while let Some(stamped) = self.ingress.pop() {
            self.log.push(stamped);
            self.apply(stamped);
            applied += 1;
        }
        applied
    }

    /// Drives a whole event stream: submits each event, transparently
    /// pumping on backpressure. The accepted order equals the stream
    /// order — backpressure delays, never drops or reorders.
    pub fn run_events(&mut self, events: impl IntoIterator<Item = ServiceEvent>) {
        for event in events {
            if self.submit(event).is_err() {
                self.pump();
                self.submit(event).expect("a drained queue accepts");
            }
        }
        self.pump();
    }

    /// Finishes the run: drains the ingress, flushes the pending commit
    /// buffer, publishes a final snapshot (and a final durable
    /// checkpoint when attached), and assembles the report.
    pub fn finish(&mut self) -> ServeReport {
        self.pump();
        let clock = self.ingress.clock();
        self.flush(clock);
        self.publish();
        if let Some(store) = &mut self.store {
            let _ = store.publish(&self.base, &self.history);
        }
        self.report()
    }

    /// Replays an accepted-event log through a fresh core: each event is
    /// submitted and applied one at a time (so the queue holds at most
    /// one event regardless of capacity), reproducing the live run that
    /// emitted the log byte for byte.
    ///
    /// Never panics on hostile input: a rejected configuration, an
    /// ingress that cannot re-accept a log event, or a log whose clocks
    /// do not match the replay's gapless stamping all return a typed
    /// [`ReplayError`] instead.
    pub fn replay(
        network: MatchingNetwork,
        truth: Vec<Correspondence>,
        error_rates: impl IntoIterator<Item = f64>,
        config: ServeConfig,
        log: &[StampedEvent],
    ) -> Result<Self, ReplayError> {
        let mut core = Self::new(network, truth, error_rates, config)?;
        for stamped in log {
            let clock = core.submit(stamped.event).map_err(|_| ReplayError::CapacityExceeded {
                capacity: config.effective_capacity(),
                clock: stamped.clock,
            })?;
            if clock != stamped.clock {
                return Err(ReplayError::ClockDrift { expected: stamped.clock, got: clock });
            }
            core.pump();
        }
        Ok(core)
    }

    /// Applies one accepted event.
    fn apply(&mut self, stamped: StampedEvent) {
        match stamped.event {
            ServiceEvent::Question { session } => self.on_question(session),
            ServiceEvent::Answer { session, verdict } => {
                self.on_answer(stamped.clock, session, verdict);
            }
            ServiceEvent::PublishTick => {
                self.flush(stamped.clock);
                self.publish();
            }
            ServiceEvent::Extend { a, b, confidence } => {
                self.epoch(stamped.clock, |core| {
                    if core.base.extend(a, b, confidence).is_ok() {
                        core.record(NetworkEvent::Extend { a, b, confidence });
                    }
                });
            }
            ServiceEvent::Retire { candidate } => {
                self.epoch(stamped.clock, |core| {
                    if core.base.retire(candidate).is_ok() {
                        core.record(NetworkEvent::Retire { candidate });
                    }
                });
            }
        }
    }

    /// Leases a question to `session`: re-issue its outstanding one,
    /// join the oldest under-replicated open question it hasn't voted
    /// on, or select fresh on its session view.
    fn on_question(&mut self, session: u64) {
        self.sessions_seen.insert(session);
        if self.assignments.contains_key(&session) {
            self.questions_leased += 1; // re-issue of the outstanding lease
            return;
        }
        let k = self.redundancy();
        // compact the join queue: a question that was decided or whose k
        // seats all filled never becomes joinable again (seats only fill,
        // and a decided candidate cannot reopen before an epoch clears
        // the queue), so dead heads pop permanently — amortized O(1)
        while let Some(&c) = self.open_fifo.front() {
            match self.open.get(&c) {
                Some(q) if q.assigned.len() < k => break,
                _ => {
                    self.open_fifo.pop_front();
                }
            }
        }
        // join: oldest open question still under k assignees, skipping
        // ones this session already holds or voted on
        let mut joined: Option<CandidateId> = None;
        for &c in &self.open_fifo {
            let Some(q) = self.open.get(&c) else { continue }; // lazily stale
            if q.assigned.len() < k && !q.assigned.contains(&session) {
                joined = Some(c);
                break;
            }
        }
        if let Some(c) = joined {
            self.open.get_mut(&c).expect("found above").assigned.push(session);
            self.assignments.insert(session, c);
            self.questions_leased += 1;
            return;
        }
        if self.available() == 0 {
            // every candidate is asserted, open or awaiting its commit:
            // no view, no scan — starvation is a counter bump
            self.starved_questions += 1;
            return;
        }
        // fresh selection on the session's view; availability is
        // authoritative against the base + in-flight state
        let selected = {
            let base_feedback = self.base.feedback();
            let pending = &self.pending_set;
            let open = &self.open;
            let unavailable = move |c: CandidateId| {
                base_feedback.is_asserted(c) || pending.contains(&c) || open.contains_key(&c)
            };
            self.sessions.select(session, &self.published, &unavailable)
        };
        match selected {
            Some(c) => {
                // open → pending → asserted: c never returns to the pool
                // before the next epoch resets the claims
                self.sessions.claim(c);
                self.open.insert(c, OpenQuestion { assigned: vec![session], votes: Vec::new() });
                self.open_fifo.push_back(c);
                self.assignments.insert(session, c);
                self.questions_leased += 1;
            }
            None => self.starved_questions += 1,
        }
    }

    /// Resolves `session`'s outstanding question into a vote; the `k`-th
    /// vote aggregates into a decided assertion.
    fn on_answer(&mut self, clock: u64, session: u64, verdict: Option<bool>) {
        self.sessions_seen.insert(session);
        let Some(candidate) = self.assignments.remove(&session) else {
            self.ignored_answers += 1;
            return;
        };
        let corr = self.base.network().corr(candidate);
        let worker = (session as usize) % self.crowd.len();
        let approved = verdict.unwrap_or_else(|| self.crowd.answer(worker, corr));
        self.crowd.record(worker, corr, approved);
        self.questions_asked += 1;
        self.sessions.observe(session, &self.published, Assertion { candidate, approved });
        let k = self.redundancy();
        let Some(q) = self.open.get_mut(&candidate) else { return };
        q.votes.push(Vote { worker, approved });
        if q.votes.len() < k {
            return;
        }
        let q = self.open.remove(&candidate).expect("present above");
        let verdict: Verdict = aggregate(self.config.aggregation, &q.votes, self.crowd.profiles());
        self.pending.push(DecidedAssertion {
            clock,
            candidate,
            approved: verdict.approved,
            votes_for: verdict.votes_for,
            votes_against: verdict.votes_against,
        });
        self.pending_set.insert(candidate);
        if self.pending.len() >= self.config.flush_every.max(1) {
            self.flush(clock);
        }
    }

    /// Flushes the pending commit buffer at logical time `clock`:
    /// decided assertions order by `(shard, decision clock)` and commit
    /// through per-shard lanes; the outcomes come back in that order, so
    /// appending each committed one to the WAL as it is recorded, then
    /// syncing once, journals the flush in commit order.
    fn flush(&mut self, clock: u64) {
        if self.pending.is_empty() {
            return;
        }
        let mut decided = std::mem::take(&mut self.pending);
        decided.sort_by_key(|d| (self.base.shard_of(d.candidate), d.clock));
        let requests: Vec<Assertion> = decided
            .iter()
            .map(|d| Assertion { candidate: d.candidate, approved: d.approved })
            .collect();
        let outcomes = with_threads(self.config.threads, || self.base.commit_batch(&requests));
        let (entropy_after, effort_after) = (self.base.entropy(), self.base.effort());
        for (d, o) in decided.iter().zip(&outcomes) {
            self.pending_set.remove(&d.candidate);
            self.latencies.push(clock - d.clock);
            if o.outcome != StepOutcome::Skipped {
                self.record(NetworkEvent::Assert { candidate: o.candidate, approved: o.approved });
            }
            self.commits.push(ServeCommit {
                step: self.commits.len() + 1,
                candidate: o.candidate.0,
                shard: o.shard,
                approved: o.approved,
                outcome: outcome_label(o.outcome),
                votes_for: d.votes_for,
                votes_against: d.votes_against,
                decided_clock: d.clock,
                committed_clock: clock,
                entropy_after,
                effort_after,
            });
        }
        self.flushes += 1;
        self.recount_asserted();
        if let Some(store) = &mut self.store {
            if outcomes.iter().any(|o| o.outcome != StepOutcome::Skipped) {
                let _ = store.sync();
            }
        }
    }

    /// Candidates a fresh question could still target: unasserted in the
    /// base and neither open nor awaiting a commit. O(1) — see
    /// `asserted_count`.
    fn available(&self) -> usize {
        self.base
            .network()
            .candidate_count()
            .saturating_sub(self.asserted_count)
            .saturating_sub(self.open.len())
            .saturating_sub(self.pending_set.len())
    }

    /// Recounts base assertions after a flush or epoch (the only moments
    /// the base's feedback can change).
    fn recount_asserted(&mut self) {
        self.asserted_count = self.base.feedback().len();
    }

    /// Publishes a fresh immutable snapshot when the base actually moved
    /// since the last publication (a fork carries its base's generation),
    /// which leaves every session view opened on the old snapshot dead.
    fn publish(&mut self) {
        if self.base.generation() != self.published.generation() {
            self.published = Arc::new(self.base.fork());
            self.publications += 1;
        }
    }

    /// An exclusive evolution epoch: flush, drop every open question,
    /// assignment, claim and session view, evolve, publish.
    fn epoch(&mut self, clock: u64, evolve: impl FnOnce(&mut Self)) {
        self.flush(clock);
        self.open.clear();
        self.open_fifo.clear();
        self.assignments.clear();
        self.sessions.reset();
        evolve(self);
        self.recount_asserted();
        if let Some(store) = &mut self.store {
            let _ = store.sync();
        }
        self.publish();
        self.epochs += 1;
    }

    /// Records one applied event: the committed history follows it, and
    /// the write-ahead log appends it when a store is attached.
    fn record(&mut self, event: NetworkEvent) {
        apply_to_history(&mut self.history, &event);
        if let Some(store) = &mut self.store {
            let _ = store.append(&event);
        }
    }

    /// Assembles the (deterministic) report of everything so far.
    pub fn report(&self) -> ServeReport {
        // the network evolves, so the mask is built per report
        let mask = truth_mask(self.base.network(), &self.crowd);
        let quality = majority_quality(&self.base, &self.crowd, &mask);
        ServeReport {
            sessions: self.sessions_seen.len() as u64,
            workers: self.crowd.len(),
            redundancy: self.redundancy(),
            aggregation: self.config.aggregation.label().to_string(),
            worker_error_rates: self.crowd.profiles().iter().map(|p| p.error_rate).collect(),
            events_accepted: self.log.len() as u64,
            questions_leased: self.questions_leased,
            questions_asked: self.questions_asked,
            starved_questions: self.starved_questions,
            ignored_answers: self.ignored_answers,
            commits: self.commits.clone(),
            flushes: self.flushes,
            publications: self.publications,
            epochs: self.epochs,
            latency: LatencySummary::of(&self.latencies),
            worker_stats: self.crowd.stats().to_vec(),
            final_entropy: self.base.entropy(),
            final_effort: self.base.effort(),
            final_precision: quality.precision,
            final_recall: quality.recall,
            durability_error: self.durability_error().map(|e| e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_testkit::{fig1_network, fig1_truth, tiny_sampler};

    fn core(rates: Vec<f64>) -> Result<ServingCore, ServeConfigError> {
        let config = ServeConfig { sampler: tiny_sampler(5), threads: 1, ..ServeConfig::default() };
        ServingCore::new(fig1_network(), fig1_truth(), rates, config)
    }

    #[test]
    fn an_out_of_range_error_rate_is_a_typed_construction_error() {
        // regression: these used to panic inside the crowd's constructor
        for (rates, worker) in [(vec![0.1, 1.5], 1), (vec![-0.1], 0), (vec![0.0, f64::NAN], 1)] {
            let bad = rates[worker];
            let err = core(rates).err().expect("an out-of-range rate is rejected");
            match err {
                ServeConfigError::ErrorRate { worker: w, rate } => {
                    assert_eq!(w, worker, "the error names the offending worker");
                    assert_eq!(rate.to_bits(), bad.to_bits(), "the error carries the rate");
                }
                other => panic!("expected ErrorRate, got {other:?}"),
            }
            assert!(err.to_string().contains("[0, 1]"), "the error must explain itself");
        }
        // the boundaries stay valid
        assert!(core(vec![0.0, 1.0]).is_ok());
    }
}

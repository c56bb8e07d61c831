//! The `cluster-rounds` workload: the round-mode
//! [`ReconciliationService`] over a [`DistNetwork`] whose shard servers
//! are child processes of this binary, linked over loopback TCP.
//!
//! Every model call the service makes goes through [`TimedModel`], and
//! every frame through [`TimedTransport`]; that is how the run is
//! measured from outside. A run first reconciles the same network in
//! process, then repeats the cluster pass (spawn, bootstrap, run, shut
//! down) until its time is spent; each pass must reproduce the
//! in-process run's fingerprint.

use crate::inputs;
use crate::record::{
    median, peak_rss_mb, timed, trace_summary, warm_median, Fingerprint, Outcome, Samples, Tracer,
    TAIL_WINDOW,
};
use crate::recovery::{fresh_dir, Recovery};
use smn_core::feedback::{Assertion, Feedback};
use smn_core::{
    AssertError, GainCache, GainSource, MatchingNetwork, ProbabilisticNetwork, ReconciliationGoal,
};
use smn_dist::{serve, DistError, DistNetwork, TcpTransport, Transport};
use smn_schema::{CandidateId, Correspondence};
use smn_service::{
    Aggregation, ReconciliationService, Scheduler, ServeModel, ServiceConfig, ServiceReport,
};
use smn_storage::Frame;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Webform clusters of the federation (|C| ≈ 3.4k).
const GROUPS: usize = 240;
/// Shard-server processes.
const SERVERS: usize = 2;
/// Crowd workers; with `k = 2` a round leases two candidates.
const WORKERS: usize = 4;
const REDUNDANCY: usize = 2;
const THREADS: usize = 2;
const ERROR_RATE: f64 = 0.1;

/// The model layers a call is attributed to.
#[derive(Clone, Copy)]
enum Layer {
    /// Gain pricing that selects a lease (the question).
    Select,
    /// Other gain pricing.
    Gains,
    WhatIf,
    Assert,
    /// A scan of the coordinator's posterior mirror (entropy, the
    /// uncertain pool): no server is reached, but each costs O(|C|).
    Mirror,
}

impl Layer {
    fn span(self) -> &'static str {
        match self {
            Layer::Select | Layer::Gains => "dist.gains",
            Layer::WhatIf => "dist.what_if",
            Layer::Assert => "dist.assert",
            Layer::Mirror => "dist.mirror",
        }
    }
}

#[derive(Default)]
struct CallLog {
    select: Samples,
    gains: Samples,
    what_if: Samples,
    assert: Samples,
    mirror: Samples,
    /// Every timed call's interval, for the time the model was busy.
    intervals: Vec<(Instant, Instant)>,
}

impl CallLog {
    /// Wall time covered by at least one model call (calls on the worker
    /// pool overlap).
    fn busy_union(&self) -> Duration {
        let mut v = self.intervals.clone();
        v.sort_unstable_by_key(|&(s, _)| s);
        let mut total = Duration::ZERO;
        let mut current: Option<(Instant, Instant)> = None;
        for (s, e) in v {
            current = match current {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    total += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        total + current.map_or(Duration::ZERO, |(s, e)| e - s)
    }
}

/// A [`ServeModel`] that forwards every method, provided ones included,
/// to the wrapped model and times each call that can reach a shard
/// server or scans the coordinator's posterior mirror. Constant-time
/// accessors (`probability`, `shard_of`, ...) are forwarded untimed: a
/// span would cost more than the call. Their cost, and the service's own
/// work between model calls, is the dispatch remainder.
pub struct TimedModel<M> {
    inner: M,
    log: Mutex<CallLog>,
    tracer: Arc<Tracer>,
}

impl<M> TimedModel<M> {
    fn new(inner: M, tracer: Arc<Tracer>) -> Self {
        Self { inner, log: Mutex::new(CallLog::default()), tracer }
    }

    fn note(&self, layer: Layer, start: Instant, end: Instant) {
        let mut log = self.log.lock().expect("call log poisoned");
        let d = end - start;
        match layer {
            Layer::Select => log.select.push(d),
            Layer::Gains => log.gains.push(d),
            Layer::WhatIf => log.what_if.push(d),
            Layer::Assert => log.assert.push(d),
            Layer::Mirror => log.mirror.push(d),
        }
        log.intervals.push((start, end));
    }

    fn call<R>(&self, layer: Layer, f: impl FnOnce(&M) -> R) -> R {
        let span = self.tracer.begin(layer.span());
        let start = Instant::now();
        let r = f(&self.inner);
        self.note(layer, start, Instant::now());
        drop(span);
        r
    }
}

impl<M: GainSource> GainSource for TimedModel<M> {
    fn gain_cache(&self) -> &Mutex<GainCache> {
        self.inner.gain_cache()
    }

    fn gain_structure_epoch(&self) -> u64 {
        self.inner.gain_structure_epoch()
    }

    fn gain_shard_epochs(&self) -> &[u64] {
        self.inner.gain_shard_epochs()
    }

    fn gain_shard_of(&self, c: CandidateId) -> usize {
        self.inner.gain_shard_of(c)
    }

    fn gain_shard_uncertain(&self, k: usize) -> Vec<CandidateId> {
        self.inner.gain_shard_uncertain(k)
    }

    fn compute_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.call(Layer::Gains, |m| m.compute_gains(pool))
    }

    fn refresh_gain_cache(&self) {
        self.call(Layer::Gains, |m| m.refresh_gain_cache());
    }

    fn cached_gain_window(&self) -> (Vec<CandidateId>, Vec<f64>) {
        self.call(Layer::Select, |m| m.cached_gain_window())
    }

    fn cached_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.call(Layer::Select, |m| m.cached_gains(pool))
    }

    fn warm_cached_gain(&self, c: CandidateId) -> Option<f64> {
        self.inner.warm_cached_gain(c)
    }
}

impl<M: ServeModel> ServeModel for TimedModel<M> {
    fn network(&self) -> &MatchingNetwork {
        self.inner.network()
    }

    fn feedback(&self) -> &Feedback {
        self.inner.feedback()
    }

    fn probability(&self, c: CandidateId) -> f64 {
        self.inner.probability(c)
    }

    fn entropy(&self) -> f64 {
        self.call(Layer::Mirror, |m| m.entropy())
    }

    fn normalized_entropy(&self) -> f64 {
        self.call(Layer::Mirror, |m| m.normalized_entropy())
    }

    fn effort(&self) -> f64 {
        self.inner.effort()
    }

    fn uncertain_candidates(&self) -> Vec<CandidateId> {
        self.call(Layer::Mirror, |m| m.uncertain_candidates())
    }

    fn shard_of(&self, c: CandidateId) -> usize {
        self.inner.shard_of(c)
    }

    fn information_gains(&self, pool: &[CandidateId]) -> Vec<f64> {
        self.call(Layer::Gains, |m| m.information_gains(pool))
    }

    fn what_if_batch(&self, queries: &[(CandidateId, bool)]) -> Vec<f64> {
        self.call(Layer::WhatIf, |m| m.what_if_batch(queries))
    }

    fn assert_candidate(&mut self, assertion: Assertion) -> Result<(), AssertError> {
        let span = self.tracer.begin(Layer::Assert.span());
        let start = Instant::now();
        let r = self.inner.assert_candidate(assertion);
        self.note(Layer::Assert, start, Instant::now());
        drop(span);
        r
    }

    fn as_local(&self) -> Option<&ProbabilisticNetwork> {
        self.inner.as_local()
    }
}

/// Frame and byte counts of every link, and the time spent blocked on
/// replies.
#[derive(Default)]
struct Wire {
    frames: AtomicU64,
    bytes_sent: AtomicU64,
    bytes_recv: AtomicU64,
    recv_wait_ns: AtomicU64,
}

/// A [`Transport`] that counts what crosses it.
struct TimedTransport {
    inner: TcpTransport,
    wire: Arc<Wire>,
    tracer: Arc<Tracer>,
}

impl Transport for TimedTransport {
    fn send(&mut self, kind: u32, payload: &[u8]) -> Result<(), DistError> {
        // statistics only: no other data is published through them
        self.wire.frames.fetch_add(1, Ordering::Relaxed);
        self.wire.bytes_sent.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.inner.send(kind, payload)
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        let span = self.tracer.begin("dist.wire.recv");
        let start = Instant::now();
        let frame = self.inner.recv();
        let waited = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        drop(span);
        self.wire.recv_wait_ns.fetch_add(waited, Ordering::Relaxed);
        if let Ok(f) = &frame {
            self.wire.frames.fetch_add(1, Ordering::Relaxed);
            self.wire.bytes_recv.fetch_add(f.payload.len() as u64, Ordering::Relaxed);
        }
        frame
    }
}

/// The shard-server child processes of one pass. Dropping kills and
/// reaps any still running.
struct Servers {
    children: Vec<Child>,
}

impl Servers {
    /// Spawns the servers (this binary with `--shard-server`) and
    /// connects to each.
    fn spawn(n: usize) -> (Self, Vec<TcpStream>) {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let mut servers = Self { children: Vec::with_capacity(n) };
        let mut streams = Vec::with_capacity(n);
        for _ in 0..n {
            let mut child = Command::new(&exe)
                .arg("--shard-server")
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn a shard server");
            let stdout = child.stdout.take().expect("piped stdout");
            servers.children.push(child);
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line).expect("read the server's port");
            let port: u16 = line
                .trim()
                .strip_prefix("PORT ")
                .and_then(|p| p.parse().ok())
                .unwrap_or_else(|| panic!("shard server announced {line:?}"));
            streams.push(TcpStream::connect(("127.0.0.1", port)).expect("connect a shard server"));
        }
        (servers, streams)
    }

    /// Summed peak resident set of the servers, in MB.
    fn peak_rss_mb(&self) -> f64 {
        self.children.iter().filter_map(|c| peak_rss_mb(&c.id().to_string())).sum()
    }

    /// Waits for every server; true when all exited cleanly.
    fn wait(mut self) -> bool {
        std::mem::take(&mut self.children)
            .into_iter()
            .map(|mut c| c.wait().is_ok_and(|s| s.success()))
            .fold(true, |a, b| a & b)
    }
}

impl Drop for Servers {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `--shard-server` entry: binds a loopback port, announces it on
/// stdout, serves one coordinator connection and returns. A server that
/// no coordinator reaches within a minute exits on its own, so a failed
/// run cannot leave it behind.
pub fn shard_server_main() -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let port = listener.local_addr().map_err(|e| e.to_string())?.port();
    let mut stdout = std::io::stdout();
    writeln!(stdout, "PORT {port}").and_then(|()| stdout.flush()).map_err(|e| e.to_string())?;
    let connected = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&connected);
    let watchdog = std::thread::spawn(move || {
        for _ in 0..600 {
            if flag.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        std::process::exit(3);
    });
    let (stream, _) = listener.accept().map_err(|e| e.to_string())?;
    connected.store(true, Ordering::SeqCst);
    watchdog.join().map_err(|_| "watchdog panicked".to_string())?;
    let mut transport = TcpTransport::new(stream).map_err(|e| e.to_string())?;
    serve(&mut transport).map_err(|e| e.to_string())
}

/// The commit sequence, the answer count and the bits of the final
/// posterior.
fn fingerprint<M: ServeModel>(report: &ServiceReport, model: &M) -> u64 {
    let mut f = Fingerprint::default();
    for c in &report.commits {
        f.word(u64::from(c.candidate));
        f.word(u64::from(c.approved));
        f.word(c.round as u64);
        f.word(c.outcome.len() as u64);
        f.f64s([c.entropy_after, c.min_expected_entropy]);
    }
    f.word(report.questions_asked);
    let n = model.network().candidate_count();
    f.f64s((0..n).map(|i| model.probability(CandidateId::from_index(i))));
    f.value()
}

struct Pass {
    setup: Duration,
    wall: Duration,
    report: ServiceReport,
    fingerprint: u64,
    log: CallLog,
    wire: Arc<Wire>,
    servers_rss_mb: f64,
    clean_exit: bool,
}

fn pass(
    network: &MatchingNetwork,
    truth: &[Correspondence],
    config: ServiceConfig,
    tracer: &Arc<Tracer>,
) -> Pass {
    let wire = Arc::new(Wire::default());
    let (dist, servers, setup) = bootstrap(network, config, |inner| {
        Box::new(TimedTransport { inner, wire: Arc::clone(&wire), tracer: Arc::clone(tracer) })
    });
    let model = TimedModel::new(dist, Arc::clone(tracer));
    let mut service =
        ReconciliationService::with_model(model, truth.to_vec(), vec![ERROR_RATE; WORKERS], config);
    let span = tracer.begin("cluster.run");
    let (report, wall) = timed(|| service.run());
    drop(span);
    let model = service.into_model();
    let fingerprint = fingerprint(&report, &model);
    let servers_rss_mb = servers.peak_rss_mb();
    let TimedModel { inner: mut dist, log, .. } = model;
    let shut_down = dist.shutdown().is_ok();
    drop(dist);
    let clean_exit = servers.wait() && shut_down;
    let log = log.into_inner().expect("call log poisoned");
    Pass { setup, wall, report, fingerprint, log, wire, servers_rss_mb, clean_exit }
}

/// Spawns the servers and bootstraps a coordinator over links made by
/// `link`; returns them with the set-up time (input cloning excluded).
fn bootstrap(
    network: &MatchingNetwork,
    config: ServiceConfig,
    link: impl Fn(TcpTransport) -> Box<dyn Transport>,
) -> (DistNetwork, Servers, Duration) {
    let network = network.clone();
    let start = Instant::now();
    let (servers, streams) = Servers::spawn(SERVERS);
    let links = streams
        .into_iter()
        .map(|s| link(TcpTransport::new(s).expect("loopback stream takes TCP_NODELAY")))
        .collect();
    let dist = DistNetwork::new(network, config.sampler, config.sharding, links)
        .expect("the cluster bootstraps");
    (dist, servers, start.elapsed())
}

/// Spawns and bootstraps a cluster, then shuts it down: a set-up sample
/// without a run.
fn setup_only(network: &MatchingNetwork, config: ServiceConfig) -> (Duration, bool) {
    let (mut dist, servers, setup) = bootstrap(network, config, |t| Box::new(t));
    let shut_down = dist.shutdown().is_ok();
    drop(dist);
    (setup, servers.wait() && shut_down)
}

/// Runs the cluster workload for about `seconds` and checks its outputs.
pub fn run(seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Outcome {
    let scenario = inputs::federation(GROUPS);
    let config = ServiceConfig {
        sampler: inputs::sampler(),
        sharding: inputs::sampled_sharding(),
        redundancy: REDUNDANCY,
        aggregation: Aggregation::QualityWeighted,
        threads: THREADS,
        scheduler: Scheduler::Pool,
        seed,
        goal: ReconciliationGoal::Complete,
    };
    let mut out = Outcome::default();
    out.config("groups", GROUPS);
    out.config("candidates", scenario.network.candidate_count());
    out.config("servers", SERVERS);
    out.config("workers", WORKERS);
    out.config("redundancy", REDUNDANCY);
    out.config("threads", THREADS);

    let budget = Duration::from_secs_f64(seconds);
    let begun = Instant::now();
    let untraced = Arc::new(Tracer::new(false));
    let mut passes: Vec<Pass> = Vec::new();
    let mut rss = 0.0;
    loop {
        passes.push(pass(&scenario.network, &scenario.truth, config, &untraced));
        if passes.len() == 2 {
            // read after a fixed number of passes, whose call logs stay
            // alive: a faster host fits more passes into the budget; and
            // before the in-process reference below, which holds the whole
            // single-process network that the cluster exists to spread out
            rss = peak_rss_mb("self").unwrap_or(0.0) + passes[0].servers_rss_mb;
        }
        if passes.len() >= 2 && (trace || begun.elapsed() >= budget) {
            break;
        }
    }

    // the in-process reference: the same round-mode run over a
    // ProbabilisticNetwork, whose build is the core layer's fill and
    // whose initial state is the checkpoint the storage layer recovers
    let network = scenario.network.clone();
    let (local, fill) =
        timed(|| ProbabilisticNetwork::new_sharded(network, config.sampler, config.sharding));
    let recovery = Recovery::checkpoint(&fresh_dir(out_dir, "checkpoint"), &local, &[], &mut out);
    let mut reference = ReconciliationService::with_model(
        local,
        scenario.truth.clone(),
        vec![ERROR_RATE; WORKERS],
        config,
    );
    let reference_report = reference.run();
    let expected = fingerprint(&reference_report, reference.base());
    drop(reference);
    for p in &passes {
        out.check(p.fingerprint == expected, || {
            "the cluster run differs from the in-process run".into()
        });
        out.check(p.clean_exit, || "a shard server did not shut down cleanly".into());
    }
    let first = &passes[0];
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    let rates: Vec<f64> =
        passes.iter().map(|p| p.report.questions_asked as f64 / p.wall.as_secs_f64()).collect();
    let (mut select, mut assert) = (Samples::default(), Samples::default());
    for p in &passes {
        select.extend(&p.log.select);
        assert.extend(&p.log.assert);
    }

    let traced = trace.then(|| {
        let tracer = Arc::new(Tracer::new(true));
        let p = pass(&scenario.network, &scenario.truth, config, &tracer);
        out.check(p.fingerprint == expected, || {
            "the traced cluster run's fingerprint differs from the untraced one".into()
        });
        setups.push(p.setup.as_secs_f64());
        (tracer, p)
    });
    while setups.len() < 3 {
        let (setup, clean) = setup_only(&scenario.network, config);
        out.check(clean, || "a shard server did not shut down cleanly".into());
        setups.push(setup.as_secs_f64());
    }

    let report = &first.report;
    let skipped = report.commits.iter().filter(|c| c.outcome == "skipped").count() as u64;
    out.attempted = report.questions_asked + report.commits.len() as u64;
    out.failed = skipped + u64::from(!first.clean_exit);

    out.metric("setup_s", median(&setups), "s");
    out.metric("answers_per_s", warm_median(&rates), "1/s");
    out.metric("question_p50_ms", select.quantile_ms(0.50), "ms");
    out.metric("question_p99_ms", select.windowed_quantile_ms(0.99, TAIL_WINDOW), "ms");
    out.metric("commit_visible_p90_ms", assert.quantile_ms(0.90), "ms");
    out.metric("commit_visible_p99_ms", assert.windowed_quantile_ms(0.99, TAIL_WINDOW), "ms");
    out.metric("recover_s", recovery.recover_s, "s");
    out.metric("peak_rss_mb", rss, "MB");
    out.metric("precision", report.final_precision, "ratio");
    out.metric("recall", report.final_recall, "ratio");
    out.config("passes", passes.len());
    out.config("rounds", report.rounds.len());
    out.config("question_samples", select.count());

    if let Some((tracer, p)) = traced {
        out.metric("core.fill_ms", fill.as_secs_f64() * 1e3, "ms");
        out.metric("core.entropy_bits", p.report.final_entropy, "bits");
        let gains = {
            let mut g = p.log.gains.clone();
            g.extend(&p.log.select);
            g
        };
        out.layer("dist.gains", &gains, false);
        out.layer("dist.what_if", &p.log.what_if, false);
        out.layer("dist.assert", &p.log.assert, true);
        out.layer("dist.mirror", &p.log.mirror, false);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        out.metric("dist.wire.frames", load(&p.wire.frames), "count");
        out.metric("dist.wire.bytes_sent", load(&p.wire.bytes_sent), "bytes");
        out.metric("dist.wire.bytes_recv", load(&p.wire.bytes_recv), "bytes");
        out.metric("dist.wire.recv_wait_ms", load(&p.wire.recv_wait_ns) / 1e6, "ms");
        // coverage counts recorded spans only; the dispatch remainder is
        // the part of the wall time they leave uncovered. It is not held
        // to 90%: the service's own per-round work (the majority matching
        // over every posterior, vote aggregation) runs inside
        // `ReconciliationService::run` between model calls, behind no
        // public boundary a span could wrap.
        let model = p.log.busy_union();
        let dispatch = p.wall.saturating_sub(model);
        out.metric("service.dispatch_ms", dispatch.as_secs_f64() * 1e3, "ms");
        recovery.layer_metrics(&mut out, Duration::ZERO);
        let covered = model.as_secs_f64() * 1e3;
        let traced_rate = p.report.questions_asked as f64 / p.wall.as_secs_f64();
        let spans = out_dir.join("spans.jsonl");
        let untraced = warm_median(&rates);
        trace_summary(&mut out, &tracer, p.wall, covered, false, traced_rate, untraced, &spans);
    }
    out
}

//! Measurement plumbing: wall-clock samples, the span recorder of the
//! traced run, fingerprints, and the metric list a workload returns.
//!
//! Spans are kept in memory while a pass runs and written out once the
//! benchmark ends, so the traced run pays one `Instant::now` pair and one
//! short critical section per span, and no I/O.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall-clock durations of one kind of call.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
}

impl Samples {
    pub fn push(&mut self, d: Duration) {
        self.ns.push(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    pub fn extend(&mut self, other: &Samples) {
        self.ns.extend_from_slice(&other.ns);
    }

    pub fn count(&self) -> usize {
        self.ns.len()
    }

    pub fn busy_ms(&self) -> f64 {
        self.ns.iter().map(|&n| n as f64).sum::<f64>() / 1e6
    }

    /// Nearest-rank quantile in milliseconds (`0` when empty).
    pub fn quantile_ms(&self, q: f64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        let mut sorted = self.ns.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1] as f64 / 1e6
    }

    /// The median over consecutive windows of `window` samples (a short
    /// last window is dropped unless it is the only one) of each window's
    /// `q` quantile, in milliseconds. A tail statistic that a single
    /// stall of the host, which delays every request in flight at once,
    /// moves by one window instead of setting the whole run's tail.
    pub fn windowed_quantile_ms(&self, q: f64, window: usize) -> f64 {
        if self.ns.len() <= window {
            return self.quantile_ms(q);
        }
        let per_window: Vec<f64> = self
            .ns
            .chunks_exact(window)
            .map(|w| Samples { ns: w.to_vec() }.quantile_ms(q))
            .collect();
        median(&per_window)
    }
}

/// Samples per window of a windowed tail quantile (see
/// [`Samples::windowed_quantile_ms`]).
pub const TAIL_WINDOW: usize = 1000;

/// Median of a nonempty list (mean of the middle pair when even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The median of repeated passes without the first: the first pass in a
/// process pays its cold start (the heap growing page by page), which a
/// long-running service pays once.
pub fn warm_median(xs: &[f64]) -> f64 {
    median(if xs.len() > 1 { &xs[1..] } else { xs })
}

/// Times one call.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed())
}

/// FNV-1a over 64-bit words: the fingerprint of a run's commit sequence
/// and final posterior.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    pub fn f64s(&mut self, xs: impl IntoIterator<Item = f64>) {
        for x in xs {
            self.word(x.to_bits());
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// One recorded span: a call into a layer.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start: Instant,
    end: Instant,
}

thread_local! {
    /// Open spans of this thread, innermost last: a new span's parent.
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder. Disabled, every call is one branch.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it records the end time.
#[must_use]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if self.id == 0 {
            return;
        }
        let end = Instant::now();
        OPEN.with(|open| open.borrow_mut().pop());
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans[self.id as usize - 1].end = end;
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span whose parent is this thread's innermost open span.
    pub fn begin(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { tracer: self, id: 0 };
        }
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
        let now = Instant::now();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            spans.push(Span { name, parent, start: now, end: now });
            u32::try_from(spans.len()).expect("fewer than 2^32 spans")
        };
        OPEN.with(|open| open.borrow_mut().push(id));
        SpanGuard { tracer: self, id }
    }

    /// Records a finished span, named after the fact (a serving pump is
    /// attributed once it is known what the event did).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
        self.spans.lock().expect("span recorder poisoned").push(Span { name, parent, start, end });
    }

    /// Durations of every span with this name.
    pub fn layer(&self, name: &str) -> Samples {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut s = Samples::default();
        for span in spans.iter().filter(|s| s.name == name) {
            s.push(span.end.duration_since(span.start));
        }
        s
    }

    /// Writes every span as one JSON line `[id, parent, name, start_us,
    /// end_us]`, times relative to the first span.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let Some(origin) = spans.iter().map(|s| s.start).min() else { return Ok(()) };
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "[{},{},\"{}\",{:.3},{:.3}]",
                i + 1,
                s.parent,
                s.name,
                s.start.duration_since(origin).as_secs_f64() * 1e6,
                s.end.duration_since(origin).as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// `(name, value, unit)` of every metric the run produced.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Failed correctness checks, one line each.
    pub check_failures: Vec<String>,
    /// Operations attempted and failed (see the README's definition).
    pub attempted: u64,
    pub failed: u64,
    /// Workload configuration for the result envelope, as JSON values.
    pub config: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }

    pub fn config(&mut self, key: &'static str, value: impl ToString) {
        self.config.push((key, value.to_string()));
    }

    /// Adds a layer's `count`, `busy_ms` and optionally `p99_us`.
    pub fn layer(&mut self, prefix: &str, s: &Samples, p99: bool) {
        self.metric(&format!("{prefix}.count"), s.count() as f64, "count");
        self.metric(&format!("{prefix}.busy_ms"), s.busy_ms(), "ms");
        if p99 {
            self.metric(&format!("{prefix}.p99_us"), s.quantile_ms(0.99) * 1e3, "us");
        }
    }
}

/// Peak resident set of a process in MB (`VmHWM`), `None` if unreadable.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The traced pass's own figures (its wall time, the share of it the
/// layer spans cover, its throughput and the overhead against the
/// untraced passes of the same run); the spans go to `spans`. With
/// `check_coverage`, spans covering less than 90% of the wall time fail
/// the run.
#[allow(clippy::too_many_arguments)]
pub fn trace_summary(
    out: &mut Outcome,
    tracer: &Tracer,
    wall: Duration,
    covered_ms: f64,
    check_coverage: bool,
    traced: f64,
    untraced: f64,
    spans: &Path,
) {
    let wall_ms = wall.as_secs_f64() * 1e3;
    out.metric("trace.wall_ms", wall_ms, "ms");
    out.metric("trace.coverage", covered_ms / wall_ms, "ratio");
    out.metric("trace.answers_per_s", traced, "1/s");
    out.metric("trace.overhead_pct", (untraced / traced - 1.0) * 100.0, "%");
    out.check(!check_coverage || covered_ms >= 0.9 * wall_ms, || {
        format!("layer spans cover {:.1}% of the traced wall time", covered_ms / wall_ms * 100.0)
    });
    if let Err(e) = tracer.write(spans) {
        out.check(false, || format!("writing spans failed: {e}"));
    }
}

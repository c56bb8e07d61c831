//! The repository benchmark. One run measures one workload:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! It prints the result envelope (commit, host, seed, configuration,
//! every metric and every failed check) as one JSON line, then, as the
//! last line, `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics of the
//! traced run with `--trace 1`. It exits non-zero when a correctness check
//! fails. See `README.md` beside this package for what each workload and
//! metric is for.

mod cluster;
mod expert;
mod inputs;
mod record;
mod recovery;
mod serve;

use record::Outcome;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const WORKLOADS: [&str; 4] =
    ["serve-crowd", "serve-churn-durable", "expert-session", "cluster-rounds"];

/// End-to-end metrics, every workload, untraced runs.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("answers_per_s", "1/s"),
    ("commit_visible_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("precision", "ratio"),
    ("recall", "ratio"),
];

/// Per-layer metrics of the traced run; a layer a workload does not
/// exercise reads 0.
const PER_LAYER: [(&str, &str); 54] = [
    ("service.ingress.submit_ms", "ms"),
    ("service.ingress.full", "count"),
    ("service.question.count", "count"),
    ("service.question.busy_ms", "ms"),
    ("service.question.p99_us", "us"),
    ("service.answer.count", "count"),
    ("service.answer.busy_ms", "ms"),
    ("service.flush.count", "count"),
    ("service.flush.busy_ms", "ms"),
    ("service.flush.p99_us", "us"),
    ("service.flush.batch_mean", "count"),
    ("service.publish.count", "count"),
    ("service.publish.busy_ms", "ms"),
    ("service.epoch.count", "count"),
    ("service.epoch.busy_ms", "ms"),
    ("service.epoch.p99_us", "us"),
    ("service.finish_ms", "ms"),
    ("service.answers_ignored", "count"),
    ("service.questions_starved", "count"),
    ("service.lost_lease_ratio", "ratio"),
    ("service.join_ratio", "ratio"),
    ("service.dispatch_ms", "ms"),
    ("core.fill_ms", "ms"),
    ("core.select.count", "count"),
    ("core.select.busy_ms", "ms"),
    ("core.select.p99_us", "us"),
    ("core.assert.count", "count"),
    ("core.assert.busy_ms", "ms"),
    ("core.assert.p99_us", "us"),
    ("core.instantiate_ms", "ms"),
    ("core.samples_distinct", "count"),
    ("core.entropy_bits", "bits"),
    ("storage.open_ms", "ms"),
    ("storage.wal_bytes", "bytes"),
    ("storage.snapshot_bytes", "bytes"),
    ("storage.recover_ms", "ms"),
    ("dist.gains.count", "count"),
    ("dist.gains.busy_ms", "ms"),
    ("dist.what_if.count", "count"),
    ("dist.what_if.busy_ms", "ms"),
    ("dist.assert.count", "count"),
    ("dist.assert.busy_ms", "ms"),
    ("dist.assert.p99_us", "us"),
    ("dist.mirror.count", "count"),
    ("dist.mirror.busy_ms", "ms"),
    ("dist.wire.frames", "count"),
    ("dist.wire.bytes_sent", "bytes"),
    ("dist.wire.bytes_recv", "bytes"),
    ("dist.wire.recv_wait_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.answers_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds out of range: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The commit being measured: `SMN_GIT_REV` when set, else read from a
/// `.git` directory in the working directory, else `unknown`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("SMN_GIT_REV") {
        return rev;
    }
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn bmi2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `{"name": {"value": v, "unit": u}, ...}` for the listed metrics.
fn metrics_json(values: &[(String, f64, &str)], listed: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (name, unit)) in listed.iter().enumerate() {
        let value = values.iter().find(|(n, _, _)| n == name).map_or(0.0, |&(_, v, _)| v);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        );
    }
    out.push('}');
    out
}

fn run(args: &Args, out_dir: &Path) -> Outcome {
    match args.workload.as_str() {
        "serve-crowd" => serve::run(&serve::CROWD, args.seed, args.seconds, args.trace, out_dir),
        "serve-churn-durable" => {
            serve::run(&serve::CHURN, args.seed, args.seconds, args.trace, out_dir)
        }
        "expert-session" => expert::run(args.seed, args.seconds, args.trace, out_dir),
        "cluster-rounds" => cluster::run(args.seed, args.seconds, args.trace, out_dir),
        other => unreachable!("workload {other} was validated"),
    }
}

/// Keeps freed memory in the process instead of returning it to the
/// kernel. A run repeats its passes on fresh cores; with glibc's default
/// trimming every pass would fault its heap in again page by page, and
/// the time the host takes to serve those faults varies far more than the
/// program's own work. A long-running service keeps its heap warm too.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_heap() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only changes glibc malloc tunables, takes plain
    // integers, and runs here before the process spawns any thread.
    unsafe {
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_heap() {}

fn main() -> ExitCode {
    keep_heap();
    if std::env::args().nth(1).as_deref() == Some("--shard-server") {
        return match cluster::shard_server_main() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("shard server: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir: PathBuf = Path::new(".bench_out").join(format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let _ = std::fs::remove_dir_all(&out_dir);
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    let mut outcome = run(&args, &out_dir);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    for (name, unit) in END_TO_END {
        let found = outcome.metrics.iter().find(|(n, _, _)| n == name);
        outcome
            .check(found.is_some_and(|&(_, v, u)| u == unit && v > 0.0 && v.is_finite()), || {
                format!("end-to-end metric {name} is missing, zero or not finite")
            });
    }
    for (name, value, _) in &mut outcome.metrics {
        if !value.is_finite() {
            outcome.check_failures.push(format!("metric {name} is not finite"));
            *value = 0.0;
        }
    }

    let correct = outcome.check_failures.is_empty();
    let config: Vec<String> = [
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
    ]
    .into_iter()
    .chain(outcome.config.iter().map(|(k, v)| {
        let v = if v.parse::<f64>().is_ok() || v == "true" || v == "false" {
            v.clone()
        } else {
            json_str(v)
        };
        (k.to_string(), v)
    }))
    .map(|(k, v)| format!("{}: {v}", json_str(&k)))
    .collect();
    let all: Vec<(&str, &str)> = outcome.metrics.iter().map(|(n, _, u)| (n.as_str(), *u)).collect();
    let checks: Vec<String> = outcome.check_failures.iter().map(|c| json_str(c)).collect();
    let envelope = format!(
        "{{\"bench\": \"perfbench\", \"schema_version\": 1, \"git_rev\": {}, \"host\": {{\"cores\": {cores}, \"bmi2\": {}}}, \"config\": {{{}}}, \"points\": [{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"failed_checks\": [{}], \"metrics\": {}}}]}}",
        json_str(&git_rev()),
        bmi2(),
        config.join(", "),
        outcome.attempted,
        outcome.failed,
        checks.join(", "),
        metrics_json(&outcome.metrics, &all),
    );
    println!("{envelope}");
    let _ = std::fs::write(out_dir.join("result.json"), format!("{envelope}\n"));
    // the stores and checkpoints are large and read by nothing later
    if let Ok(entries) = std::fs::read_dir(&out_dir) {
        for e in entries.flatten().filter(|e| e.path().is_dir()) {
            let _ = std::fs::remove_dir_all(e.path());
        }
    }
    for failure in &outcome.check_failures {
        eprintln!("perfbench: check failed: {failure}");
    }

    let listed: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(&outcome.metrics, listed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! Concurrent multi-worker reconciliation on the federation scenario:
//! the crowd grid (worker count × error rate × redundancy, with
//! precision/recall vs user-effort curves echoing the Fig. 7
//! methodology), checked in as `BENCH_service.json`.
//!
//! Run: `cargo run --release -p smn-bench --bin exp_service -- [label]`
//! (`SMN_BENCH_FAST=1` shrinks the federation).

use serde::Serialize;
use smn_bench::service::service_config;
use smn_bench::sharding::federation_case;
use smn_bench::{save_json, Table};
use smn_core::ReconciliationGoal;
use smn_datasets::mixed_crowd;
use smn_service::{Aggregation, ReconciliationService, RoundStats};

/// One crowd-grid cell.
#[derive(Debug, Clone, Serialize)]
struct GridCell {
    scenario: String,
    workers: usize,
    redundancy: usize,
    aggregation: String,
    uniform_error_rate: Option<f64>,
    commits: usize,
    questions: u64,
    final_entropy: f64,
    final_effort: f64,
    final_precision: f64,
    final_recall: f64,
    /// Per-round (effort, precision, recall) curve.
    rounds: Vec<RoundStats>,
}

#[derive(Debug, Clone, Serialize)]
struct ServiceExperiment {
    groups: usize,
    candidates: usize,
    grid: Vec<GridCell>,
}

fn run_cell(
    scenario: &str,
    net: &smn_core::MatchingNetwork,
    truth: &[smn_schema::Correspondence],
    error_rates: Vec<f64>,
    redundancy: usize,
    aggregation: Aggregation,
    uniform: Option<f64>,
) -> GridCell {
    let workers = error_rates.len();
    let mut svc = ReconciliationService::new(
        net.clone(),
        truth.to_vec(),
        error_rates,
        service_config(redundancy, aggregation, ReconciliationGoal::Complete),
    );
    let report = svc.run();
    // thin the effort/quality curve to ≤ 12 evenly spaced points (first
    // and last kept: ≤ 11 stride multiples plus the final round) so the
    // checked-in JSON stays compact
    let rounds = {
        let n = report.rounds.len();
        let stride = n.div_ceil(11).max(1);
        report
            .rounds
            .iter()
            .enumerate()
            .filter(|(i, _)| i % stride == 0 || *i == n - 1)
            .map(|(_, r)| r.clone())
            .collect()
    };
    GridCell {
        scenario: scenario.to_string(),
        workers,
        redundancy,
        aggregation: report.aggregation.clone(),
        uniform_error_rate: uniform,
        commits: report.commits.len(),
        questions: report.questions_asked,
        final_entropy: report.final_entropy,
        final_effort: report.final_effort,
        final_precision: report.final_precision,
        final_recall: report.final_recall,
        rounds,
    }
}

fn main() {
    let label = std::env::args().nth(1).unwrap_or_else(|| "run".into());
    let fast = std::env::var("SMN_BENCH_FAST").is_ok_and(|v| v == "1");
    let groups = if fast { 4 } else { 12 };
    let (net, truth) = federation_case(groups, 7);

    let mut grid: Vec<GridCell> = Vec::new();
    // redundancy sweep: a fixed noisy crowd, k growing, both aggregations
    for &k in &[1usize, 3, 6] {
        for aggregation in [Aggregation::Majority, Aggregation::QualityWeighted] {
            if k == 1 && aggregation == Aggregation::QualityWeighted {
                continue; // one vote aggregates identically either way
            }
            grid.push(run_cell(
                "redundancy",
                &net,
                &truth,
                vec![0.25; 6],
                k,
                aggregation,
                Some(0.25),
            ));
        }
    }
    // error-rate sweep at fixed redundancy 3
    for &e in &[0.05f64, 0.15, 0.25, 0.35] {
        grid.push(run_cell(
            "error-rate",
            &net,
            &truth,
            vec![e; 6],
            3,
            Aggregation::Majority,
            Some(e),
        ));
    }
    // worker-scale sweep: perfect crowd, k = 1 (pure parallel validation)
    for &w in &[1usize, 2, 4, 8] {
        grid.push(run_cell(
            "scale",
            &net,
            &truth,
            vec![0.0; w],
            1,
            Aggregation::Majority,
            Some(0.0),
        ));
    }
    // the mixed crowd preset: reliable/noisy mixture, quality weighting vs majority
    for aggregation in [Aggregation::Majority, Aggregation::QualityWeighted] {
        grid.push(run_cell("mixed-crowd", &net, &truth, mixed_crowd(6, 9), 3, aggregation, None));
    }

    let mut table = Table::new([
        "scenario",
        "W",
        "k",
        "aggregation",
        "error",
        "commits",
        "questions",
        "precision",
        "recall",
        "H final",
    ]);
    for c in &grid {
        table.row([
            c.scenario.clone(),
            c.workers.to_string(),
            c.redundancy.to_string(),
            c.aggregation.clone(),
            c.uniform_error_rate.map_or_else(|| "mixed".into(), |e| format!("{e:.2}")),
            c.commits.to_string(),
            c.questions.to_string(),
            format!("{:.3}", c.final_precision),
            format!("{:.3}", c.final_recall),
            format!("{:.3}", c.final_entropy),
        ]);
    }
    println!("Concurrent multi-worker reconciliation ({groups}-cluster federation)");
    table.print();

    let experiment = ServiceExperiment { groups, candidates: net.candidate_count(), grid };
    if let Ok(path) = save_json(&format!("service_{label}"), &experiment) {
        println!("\nwrote {}", path.display());
    }
}

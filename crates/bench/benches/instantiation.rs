//! Criterion benches for Algorithm 2, including the tabu-list and
//! proposal-rule ablations called out in DESIGN.md.

use criterion::{criterion_group, criterion_main, Criterion};
use smn_bench::bp_sampled;
use smn_core::instantiate::{instantiate, InstantiationConfig, Proposal};

fn bench_instantiate(c: &mut Criterion) {
    let pn = bp_sampled();
    let mut group = c.benchmark_group("instantiation");
    group.bench_function("greedy-pick-only", |b| {
        b.iter(|| {
            instantiate(&pn, InstantiationConfig { iterations: 0, ..Default::default() })
                .repair_distance
        });
    });
    group.bench_function("local-search-200", |b| {
        b.iter(|| instantiate(&pn, InstantiationConfig::default()).repair_distance);
    });
    group.finish();
}

/// Ablations: tabu on/off, roulette vs uniform proposals, likelihood
/// on/off. Criterion reports the time; the quality impact is reported by
/// the figure experiments and `EXPERIMENTS.md §Ablations`.
fn bench_ablations(c: &mut Criterion) {
    let pn = bp_sampled();
    let mut group = c.benchmark_group("instantiation/ablations");
    let configs = [
        ("baseline", InstantiationConfig::default()),
        ("no-tabu", InstantiationConfig { tabu_size: 0, ..Default::default() }),
        (
            "uniform-proposal",
            InstantiationConfig { proposal: Proposal::Uniform, ..Default::default() },
        ),
        ("no-likelihood", InstantiationConfig { use_likelihood: false, ..Default::default() }),
    ];
    for (name, cfg) in configs {
        group.bench_function(name, |b| {
            b.iter(|| instantiate(&pn, cfg).repair_distance);
        });
    }
    group.finish();
}

criterion_group!(benches, bench_instantiate, bench_ablations);
criterion_main!(benches);

//! Criterion benches for the constraint engine: index construction,
//! violation counting, the hot incremental primitives, and the index's
//! own arrival and retirement patches.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smn_bench::bp_coma;
use smn_bench::evolve::{candidate_pool, evolving_scenario, matching_network};
use smn_constraints::{BitSet, ClosureChecker, ConflictIndex, ConstraintConfig};
use smn_core::MatchingNetwork;
use smn_datasets::{ChurnEvent, EvolvingFederation};
use smn_schema::{CandidateId, Correspondence};

/// Groups of the multi-component point: the 240-group evolving
/// federation, many small conflict components.
const FEDERATION_GROUPS: usize = 240;

/// The t₀ network of the evolving federation and its candidate pool.
fn federation() -> (EvolvingFederation, Vec<(Correspondence, f64)>, MatchingNetwork) {
    let evo = evolving_scenario(FEDERATION_GROUPS, 7);
    let pool = candidate_pool(&evo, 7);
    let net = matching_network(&evo, pool[..evo.initial_count(pool.len())].iter().copied());
    (evo, pool, net)
}

/// The `can_add` sweep: every candidate outside a random consistent
/// instance of `index`, probed against it.
fn can_add_sweep(index: &ConflictIndex, seed: u64) -> (BitSet, Vec<CandidateId>) {
    let n = index.candidate_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut inst = BitSet::new(n);
    for i in 0..n {
        let cand = CandidateId::from_index(i);
        if rng.random_bool(0.6) && index.can_add(&inst, cand) {
            inst.insert(cand);
        }
    }
    let outside =
        (0..n).map(CandidateId::from_index).filter(|&cand| !inst.contains(cand)).collect();
    (inst, outside)
}

fn bench_index_build(c: &mut Criterion) {
    let (net, _) = bp_coma();
    let mut group = c.benchmark_group("constraints/build");
    group.bench_function("bp-coma", |b| {
        b.iter(|| {
            ConflictIndex::build(
                net.catalog(),
                net.graph(),
                net.candidates(),
                ConstraintConfig::default(),
            )
            .potential_triple_count()
        });
    });
    group.finish();
}

fn bench_incremental_ops(c: &mut Criterion) {
    let (net, _) = bp_coma();
    let n = net.candidate_count();
    let index = net.index();
    // a random consistent instance to probe against
    let (inst, outside) = can_add_sweep(index, 5);
    let (_, _, fed) = federation();
    let (fed_inst, fed_outside) = can_add_sweep(fed.index(), 5);
    let mut group = c.benchmark_group("constraints/incremental");
    group.bench_function("can_add-sweep", |b| {
        b.iter(|| outside.iter().filter(|&&cand| index.can_add(&inst, cand)).count());
    });
    group.bench_function(format!("can_add-sweep/g{FEDERATION_GROUPS}"), |b| {
        b.iter(|| fed_outside.iter().filter(|&&cand| fed.index().can_add(&fed_inst, cand)).count());
    });
    group.bench_function("violations_in-full-set", |b| {
        let full = BitSet::full(n);
        b.iter(|| index.violations_in(&full).len());
    });
    group.bench_function("is_consistent", |b| {
        b.iter(|| index.is_consistent(&inst));
    });
    group.bench_function("is_maximal", |b| {
        let forbidden = BitSet::new(n);
        b.iter(|| index.is_maximal(&inst, &forbidden));
    });
    group.finish();
}

/// One arrival and one retirement patched into the federation's index,
/// each on a fresh clone (the vendored criterion has no `iter_batched`),
/// beside the clone alone.
fn bench_index_evolution(c: &mut Criterion) {
    let (evo, pool, net) = federation();
    let index = net.index();
    let (cat, graph) = (net.catalog(), net.graph());
    // the arrival of the evolve bench, appended to the candidate set
    let (corr, conf) = pool[evo.initial_count(pool.len())];
    let mut grown = net.candidates().clone();
    grown.add(cat, Some(graph), corr.a(), corr.b(), conf).unwrap();
    // the schedule's first retirement of a t₀ candidate
    let retiree = evo
        .schedule(pool.len())
        .into_iter()
        .find_map(|event| match event {
            ChurnEvent::Retire(i) => net.candidates().find(pool[i].0.a(), pool[i].0.b()),
            ChurnEvent::Arrive(_) => None,
        })
        .expect("the schedule retires a t0 candidate");
    let mut group = c.benchmark_group("constraints/evolution (incl. clone)");
    let g = FEDERATION_GROUPS;
    group.bench_function(format!("clone-baseline/g{g}"), |b| b.iter(|| index.clone()));
    group.bench_function(format!("add_candidate/g{g}"), |b| {
        b.iter(|| {
            let mut fresh = index.clone();
            fresh.add_candidate(cat, graph, &grown);
            fresh
        })
    });
    group.bench_function(format!("retire_candidate/g{g}"), |b| {
        b.iter(|| {
            let mut fresh = index.clone();
            fresh.retire_candidate(retiree);
            fresh
        })
    });
    group.finish();
}

fn bench_closure_checker(c: &mut Criterion) {
    let (net, _) = bp_coma();
    let checker = ClosureChecker::new(net.catalog(), net.candidates());
    let full = BitSet::full(net.candidate_count());
    let mut group = c.benchmark_group("constraints/closure");
    group.bench_function("full-set", |b| {
        b.iter(|| checker.is_consistent(&full));
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_index_build,
    bench_incremental_ops,
    bench_index_evolution,
    bench_closure_checker
);
criterion_main!(benches);

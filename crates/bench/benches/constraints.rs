//! Criterion benches for the constraint engine: index construction,
//! violation counting, and the hot incremental primitives.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use smn_bench::bp_coma;
use smn_constraints::{BitSet, ClosureChecker, ConflictIndex, ConstraintConfig};
use smn_schema::CandidateId;

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
    let mut rng = StdRng::seed_from_u64(5);
    let mut inst = BitSet::new(n);
    for i in 0..n {
        let cand = CandidateId::from_index(i);
        if rng.random_bool(0.6) && index.can_add(&inst, cand) {
            inst.insert(cand);
        }
    }
    let outside: Vec<CandidateId> =
        (0..n).map(CandidateId::from_index).filter(|&cand| !inst.contains(cand)).collect();
    let mut group = c.benchmark_group("constraints/incremental");
    group.bench_function("can_add-sweep", |b| {
        b.iter(|| outside.iter().filter(|&&cand| index.can_add(&inst, cand)).count());
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

criterion_group!(benches, bench_index_build, bench_incremental_ops, bench_closure_checker);
criterion_main!(benches);

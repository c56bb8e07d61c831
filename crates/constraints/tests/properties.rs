//! Property-based tests for the constraint engine.

use proptest::prelude::*;
use smn_constraints::{BitSet, ClosureChecker, ConflictIndex, ConstraintConfig};
use smn_schema::{
    AttributeId, CandidateId, CandidateSet, Catalog, CatalogBuilder, InteractionGraph,
};

/// Builds a 3-schema catalog with `sizes` attributes per schema and a random
/// candidate subset of all cross-schema pairs, selected by `mask` bits.
fn three_schema_network(sizes: [usize; 3], mask: u64) -> (Catalog, InteractionGraph, CandidateSet) {
    let mut b = CatalogBuilder::new();
    for (i, &n) in sizes.iter().enumerate() {
        let attrs: Vec<String> = (0..n).map(|j| format!("a{i}_{j}")).collect();
        b.add_schema_with_attributes(format!("s{i}"), attrs).unwrap();
    }
    let cat = b.build();
    let g = InteractionGraph::complete(3);
    let mut cs = CandidateSet::new(&cat);
    let mut bit = 0u32;
    for x in 0..cat.attribute_count() {
        for y in (x + 1)..cat.attribute_count() {
            let (ax, ay) = (AttributeId::from_index(x), AttributeId::from_index(y));
            if cat.schema_of(ax) == cat.schema_of(ay) {
                continue;
            }
            if mask & (1 << (bit % 64)) != 0 {
                cs.add(&cat, Some(&g), ax, ay, 0.5).unwrap();
            }
            bit += 1;
        }
    }
    (cat, g, cs)
}

fn subset_from_mask(n: usize, mask: u64) -> BitSet {
    BitSet::from_ids(n, (0..n).filter(|i| mask & (1 << (i % 64)) != 0).map(CandidateId::from_index))
}

proptest! {
    /// On three-schema complete networks, triangle-based cycle checking plus
    /// one-to-one is exactly closure consistency (see DESIGN.md: longer
    /// violating walks always contain a 1-1 violation or a triangle).
    #[test]
    fn triangle_plus_one_to_one_equals_closure_on_three_schemas(
        cand_mask in any::<u64>(),
        inst_mask in any::<u64>(),
        sizes in prop::array::uniform3(1usize..4),
    ) {
        let (cat, g, cs) = three_schema_network(sizes, cand_mask);
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let closure = ClosureChecker::new(&cat, &cs);
        let inst = subset_from_mask(cs.len(), inst_mask);
        prop_assert_eq!(idx.is_consistent(&inst), closure.is_consistent(&inst));
    }

    /// `can_add` agrees with `violations_introduced == 0`, and adding an
    /// allowed candidate preserves consistency.
    #[test]
    fn can_add_is_violations_introduced_zero(
        cand_mask in any::<u64>(),
        inst_mask in any::<u64>(),
        sizes in prop::array::uniform3(1usize..4),
    ) {
        let (cat, g, cs) = three_schema_network(sizes, cand_mask);
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        // build a consistent instance greedily from the mask
        let mut inst = BitSet::new(cs.len());
        for i in 0..cs.len() {
            let c = CandidateId::from_index(i);
            if inst_mask & (1 << (i % 64)) != 0 && idx.can_add(&inst, c) {
                inst.insert(c);
            }
        }
        prop_assert!(idx.is_consistent(&inst));
        for i in 0..cs.len() {
            let c = CandidateId::from_index(i);
            if inst.contains(c) { continue; }
            let can = idx.can_add(&inst, c);
            prop_assert_eq!(can, idx.violations_introduced(&inst, c) == 0);
            if can {
                let mut bigger = inst.clone();
                bigger.insert(c);
                prop_assert!(idx.is_consistent(&bigger));
            }
        }
    }

    /// Violation counts computed by enumeration match the per-kind totals,
    /// and each enumerated violation really is inconsistent on its own.
    #[test]
    fn enumerated_violations_are_minimal_witnesses(
        cand_mask in any::<u64>(),
        sizes in prop::array::uniform3(1usize..4),
    ) {
        let (cat, g, cs) = three_schema_network(sizes, cand_mask);
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let full = BitSet::full(cs.len());
        let viols = idx.violations_in(&full);
        let counts = idx.count_violations(&full);
        prop_assert_eq!(viols.len(), counts.total());
        for v in &viols {
            let witness = BitSet::from_ids(cs.len(), v.members.iter().copied());
            prop_assert!(!idx.is_consistent(&witness), "violation members alone must violate");
            // removing any one member restores consistency (minimality)
            for &m in &v.members {
                let mut sub = witness.clone();
                sub.remove(m);
                prop_assert!(idx.is_consistent(&sub));
            }
        }
    }

    /// Greedy completion always yields maximal consistent instances.
    #[test]
    fn greedy_completion_is_maximal(
        cand_mask in any::<u64>(),
        sizes in prop::array::uniform3(1usize..4),
    ) {
        let (cat, g, cs) = three_schema_network(sizes, cand_mask);
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let mut inst = BitSet::new(cs.len());
        for i in 0..cs.len() {
            let c = CandidateId::from_index(i);
            if idx.can_add(&inst, c) {
                inst.insert(c);
            }
        }
        prop_assert!(idx.is_consistent(&inst));
        prop_assert!(idx.is_maximal(&inst, &BitSet::new(cs.len())));
    }

    /// The conflict-component partition is sound and the sharded
    /// sub-indices agree with the global index: `can_add`, consistency and
    /// maximality of a global set equal the conjunction/evaluation of the
    /// localized checks on every shard.
    #[test]
    fn sharded_indices_agree_with_global(
        cand_mask in any::<u64>(),
        inst_mask in any::<u64>(),
        forb_mask in any::<u64>(),
        sizes in prop::array::uniform3(1usize..4),
    ) {
        use smn_constraints::Components;
        let (cat, g, cs) = three_schema_network(sizes, cand_mask);
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let comps = Components::of_index(&idx);
        let shards: Vec<_> = (0..comps.count()).map(|k| idx.shard_component(&comps, k)).collect();
        prop_assert_eq!(shards.len(), comps.count());
        // consistency of an arbitrary set factorizes over shards
        let raw = subset_from_mask(cs.len(), inst_mask);
        let all_consistent = (0..comps.count())
            .all(|k| shards[k].is_consistent(&comps.localize(k, &raw)));
        prop_assert_eq!(idx.is_consistent(&raw), all_consistent);
        // greedy-complete the mask so can_add/maximality are well-defined
        let mut inst = BitSet::new(cs.len());
        for i in 0..cs.len() {
            let c = CandidateId::from_index(i);
            if inst_mask & (1 << (i % 64)) != 0 && idx.can_add(&inst, c) {
                inst.insert(c);
            }
        }
        for i in 0..cs.len() {
            let c = CandidateId::from_index(i);
            if inst.contains(c) { continue; }
            let k = comps.component_of(c);
            let local_set = comps.localize(k, &inst);
            let lc = CandidateId::from_index(comps.local_index(c));
            prop_assert_eq!(idx.can_add(&inst, c), shards[k].can_add(&local_set, lc));
            prop_assert_eq!(
                idx.violations_introduced(&inst, c),
                shards[k].violations_introduced(&local_set, lc)
            );
        }
        // maximality relative to a forbidden set factorizes over shards
        let forbidden = subset_from_mask(cs.len(), forb_mask);
        let all_maximal = (0..comps.count()).all(|k| {
            shards[k].is_maximal(&comps.localize(k, &inst), &comps.localize(k, &forbidden))
        });
        prop_assert_eq!(idx.is_maximal(&inst, &forbidden), all_maximal);
    }

    /// BitSet algebra: symmetric difference is |A|+|B|−2|A∩B|; subset and
    /// union/difference behave like the std set operations.
    #[test]
    fn bitset_algebra(a_mask in any::<u64>(), b_mask in any::<u64>(), n in 1usize..100) {
        let a = subset_from_mask(n, a_mask);
        let b = subset_from_mask(n, b_mask);
        let inter = a.intersection_count(&b);
        prop_assert_eq!(
            a.symmetric_difference_count(&b),
            a.count() + b.count() - 2 * inter
        );
        let mut u = a.clone();
        u.union_with(&b);
        prop_assert_eq!(u.count(), a.count() + b.count() - inter);
        prop_assert!(a.is_subset(&u) && b.is_subset(&u));
        let mut d = a.clone();
        d.difference_with(&b);
        prop_assert_eq!(d.count(), a.count() - inter);
        prop_assert!(d.is_disjoint(&b));
    }
}

/// Capacities straddling every kernel boundary: word edges (63/64/65),
/// wide-lane edges (255/256/257 bits = 4-word blocks) and their
/// neighbourhoods, so the tail paths of the unrolled kernels and the
/// block-skipping iterators are all exercised.
fn edge_lengths() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=5,
        61usize..=67,
        125usize..=131,
        189usize..=195,
        253usize..=259,
        317usize..=323,
        509usize..=515,
    ]
}

/// A random subset of `0..n` drawn bit by bit (unlike `subset_from_mask`,
/// which aliases ids mod 64 and so cannot distinguish tail-word bugs).
fn dense_subset(n: usize) -> impl Strategy<Value = BitSet> {
    prop::collection::vec(any::<bool>(), n..n + 1).prop_map(move |bits| {
        BitSet::from_ids(
            n,
            bits.iter().enumerate().filter(|(_, &b)| b).map(|(i, _)| CandidateId::from_index(i)),
        )
    })
}

proptest! {
    /// No kernel ever counts or yields a bit at or past `len`, across
    /// capacities that are not multiples of 64 or of the 256-bit lane.
    #[test]
    fn tail_bits_never_leak(sets in edge_lengths().prop_flat_map(|n| (dense_subset(n), dense_subset(n)))) {
        let (a, b) = sets;
        let n = a.capacity();
        let members: Vec<usize> = a.iter().map(|c| c.index()).collect();
        let others: Vec<usize> = b.iter().map(|c| c.index()).collect();
        prop_assert!(members.iter().all(|&i| i < n));
        prop_assert_eq!(a.count(), members.len());
        prop_assert_eq!(BitSet::full(n).count(), n);

        // and_not_count against a per-bit reference
        let expect = members.iter().filter(|i| !others.contains(i)).count();
        prop_assert_eq!(a.and_not_count(&b), expect);
        prop_assert_eq!(a.intersection_count(&b), members.iter().filter(|i| others.contains(i)).count());
        prop_assert_eq!(a.intersects(&b), members.iter().any(|i| others.contains(i)));

        // iter_unset is exactly the complement within 0..n
        let unset: Vec<usize> = a.iter_unset().map(|c| c.index()).collect();
        prop_assert!(unset.iter().all(|&i| i < n));
        prop_assert_eq!(unset.len(), n - members.len());
        prop_assert!(unset.iter().all(|i| !members.contains(i)));
    }

    /// `grow` keeps membership, starts new bits unset, and the grown tail
    /// participates correctly in counting kernels.
    #[test]
    fn grow_preserves_members_and_clears_new_tail(
        a in edge_lengths().prop_flat_map(dense_subset),
        extra in 1usize..70,
    ) {
        let n = a.capacity();
        let before: Vec<_> = a.to_vec();
        let mut g = a.clone();
        g.grow(n + extra);
        prop_assert_eq!(g.capacity(), n + extra);
        prop_assert_eq!(g.to_vec(), before.clone());
        prop_assert_eq!(g.count(), before.len());
        prop_assert_eq!(g.iter_unset().count(), n + extra - before.len());
        let top = CandidateId::from_index(n + extra - 1);
        prop_assert!(!g.contains(top));
        g.insert(top);
        prop_assert_eq!(g.count(), before.len() + 1);
    }

    /// `collapse` at any position equals the id-remapped rebuild, at
    /// capacities that straddle word and lane boundaries.
    #[test]
    fn collapse_matches_rebuild_at_edge_lengths(
        case in edge_lengths().prop_flat_map(|n| (dense_subset(n), 0..n)),
    ) {
        let (a, victim) = case;
        let n = a.capacity();
        let members: Vec<usize> = a.iter().map(|c| c.index()).collect();
        let mut s = a.clone();
        let was = s.collapse(CandidateId::from_index(victim));
        prop_assert_eq!(was, members.contains(&victim));
        prop_assert_eq!(s.capacity(), n - 1);
        let expect: Vec<CandidateId> = members
            .iter()
            .filter(|&&m| m != victim)
            .map(|&m| CandidateId::from_index(if m > victim { m - 1 } else { m }))
            .collect();
        prop_assert_eq!(s.to_vec(), expect);
        // the shrunk set still counts cleanly (no stale tail bits)
        prop_assert_eq!(s.count() + s.iter_unset().count(), n - 1);
    }
}

//! Differential certification of the evolving conflict structures: after
//! any random interleaving of candidate arrivals and retirements, the
//! incrementally patched [`ConflictIndex`] and [`Components`] must equal —
//! structurally, with `==` — a from-scratch rebuild over the surviving
//! candidate set. Posting lists, the (canonicalized) triple table, its
//! other-two table and the component partition are all covered, as is the
//! [`ComponentEvolution`] contract the sharded sample stores rely on: a
//! remapped component carries exactly its old members (shifted on
//! retirement), and rebuilt components are exactly the rest.

use proptest::prelude::*;
use proptest::TestCaseError;
use smn_constraints::{Components, ConflictIndex, ConstraintConfig};
use smn_schema::{
    AttributeId, CandidateId, CandidateSet, Catalog, CatalogBuilder, InteractionGraph,
};

/// A 3-schema catalog with `sizes` attributes per schema on the complete
/// interaction graph (triangles present, so both constraint kinds fire).
fn three_schema_catalog(sizes: [usize; 3]) -> (Catalog, InteractionGraph) {
    let mut b = CatalogBuilder::new();
    for (i, &n) in sizes.iter().enumerate() {
        let attrs: Vec<String> = (0..n).map(|j| format!("a{i}_{j}")).collect();
        b.add_schema_with_attributes(format!("s{i}"), attrs).unwrap();
    }
    (b.build(), InteractionGraph::complete(3))
}

/// Every cross-schema attribute pair of the catalog — the arrival pool.
fn pair_pool(cat: &Catalog) -> Vec<(AttributeId, AttributeId)> {
    let mut pool = Vec::new();
    for x in 0..cat.attribute_count() {
        for y in (x + 1)..cat.attribute_count() {
            let (ax, ay) = (AttributeId::from_index(x), AttributeId::from_index(y));
            if cat.schema_of(ax) != cat.schema_of(ay) {
                pool.push((ax, ay));
            }
        }
    }
    pool
}

/// The evolving triple (candidate set, index, partition), advanced one
/// event at a time through the incremental APIs.
struct Evolving<'a> {
    cat: &'a Catalog,
    graph: &'a InteractionGraph,
    pool: &'a [(AttributeId, AttributeId)],
    cs: CandidateSet,
    idx: ConflictIndex,
    comps: Components,
}

impl<'a> Evolving<'a> {
    fn new(
        cat: &'a Catalog,
        graph: &'a InteractionGraph,
        pool: &'a [(AttributeId, AttributeId)],
        config: ConstraintConfig,
    ) -> Self {
        let cs = CandidateSet::new(cat);
        let idx = ConflictIndex::build(cat, graph, &cs, config);
        let comps = Components::of_index(&idx);
        Self { cat, graph, pool, cs, idx, comps }
    }

    /// Decodes and applies one event: even ops arrive the `pick`-th free
    /// pool pair, odd ops retire the `pick`-th live candidate. No-ops when
    /// the respective side is empty. Also checks the
    /// [`ComponentEvolution`] member contract against a pre-op snapshot.
    fn step(&mut self, op: u32) -> Result<(), TestCaseError> {
        let retire = op & 1 == 1;
        let pick = (op >> 1) as usize;
        let old_members: Vec<Vec<CandidateId>> =
            (0..self.comps.count()).map(|k| self.comps.members(k).to_vec()).collect();
        if retire {
            if self.cs.is_empty() {
                return Ok(());
            }
            let c = CandidateId::from_index(pick % self.cs.len());
            self.cs.remove(self.cat, c).unwrap();
            self.idx.retire_candidate(c);
            let evo = self.comps.retire_candidate(&self.idx, c);
            let shift = |x: CandidateId| if x > c { CandidateId(x.0 - 1) } else { x };
            for (old_k, members) in old_members.iter().enumerate() {
                if let Some(new_k) = evo.remap[old_k] {
                    let shifted: Vec<CandidateId> = members.iter().map(|&m| shift(m)).collect();
                    prop_assert_eq!(
                        self.comps.members(new_k),
                        &shifted[..],
                        "surviving component must carry its (shifted) members"
                    );
                }
            }
        } else {
            let free: Vec<(AttributeId, AttributeId)> =
                self.pool.iter().filter(|(x, y)| self.cs.find(*x, *y).is_none()).copied().collect();
            if free.is_empty() {
                return Ok(());
            }
            let (x, y) = free[pick % free.len()];
            self.cs.add(self.cat, Some(self.graph), x, y, 0.5).unwrap();
            self.idx.add_candidate(self.cat, self.graph, &self.cs);
            let evo = self.comps.add_candidate(&self.idx);
            prop_assert_eq!(evo.rebuilt.len(), 1, "an arrival forms exactly one new component");
            for (old_k, members) in old_members.iter().enumerate() {
                if let Some(new_k) = evo.remap[old_k] {
                    prop_assert_eq!(
                        self.comps.members(new_k),
                        &members[..],
                        "untouched component must carry its members verbatim"
                    );
                }
            }
        }
        Ok(())
    }

    /// Full differential: candidate set, index and partition all equal a
    /// from-scratch rebuild over the current survivors.
    fn assert_equals_rebuild(&self, config: ConstraintConfig) -> Result<(), TestCaseError> {
        let mut rebuilt_cs = CandidateSet::new(self.cat);
        for cand in self.cs.candidates() {
            rebuilt_cs
                .add(self.cat, Some(self.graph), cand.corr.a(), cand.corr.b(), cand.confidence)
                .unwrap();
        }
        prop_assert_eq!(&rebuilt_cs, &self.cs, "candidate set must look freshly built");
        let rebuilt_idx = ConflictIndex::build(self.cat, self.graph, &rebuilt_cs, config);
        prop_assert_eq!(&rebuilt_idx, &self.idx, "incremental index must equal a rebuild");
        let rebuilt_comps = Components::of_index(&self.idx);
        prop_assert_eq!(&rebuilt_comps, &self.comps, "partition must equal a rebuild");
        Ok(())
    }
}

proptest! {
    /// The headline differential: any interleaving of arrivals and
    /// retirements leaves the incremental structures exactly equal to a
    /// from-scratch rebuild — after *every* event, not just at the end.
    #[test]
    fn interleaved_arrivals_and_retirements_match_rebuild(
        sizes in prop::array::uniform3(1usize..4),
        seed_mask in any::<u64>(),
        ops in prop::collection::vec(any::<u32>(), 1..16),
    ) {
        let (cat, graph) = three_schema_catalog(sizes);
        let pool = pair_pool(&cat);
        let config = ConstraintConfig::default();
        let mut state = Evolving::new(&cat, &graph, &pool, config);
        // initial population arrives through the same incremental path
        for i in 0..pool.len() {
            if seed_mask & (1 << (i % 64)) != 0 {
                state.step((i as u32) << 1)?;
            }
        }
        state.assert_equals_rebuild(config)?;
        for &op in &ops {
            state.step(op)?;
            state.assert_equals_rebuild(config)?;
        }
    }

    /// The same differential under the one-to-one-only configuration
    /// (no triple table at all — the pair-mask paths must hold alone).
    #[test]
    fn evolution_matches_rebuild_without_cycle_constraint(
        sizes in prop::array::uniform3(1usize..4),
        ops in prop::collection::vec(any::<u32>(), 1..16),
    ) {
        let (cat, graph) = three_schema_catalog(sizes);
        let pool = pair_pool(&cat);
        let config = ConstraintConfig::one_to_one_only();
        let mut state = Evolving::new(&cat, &graph, &pool, config);
        for &op in &ops {
            state.step(op)?;
        }
        state.assert_equals_rebuild(config)?;
    }
}

/// Deterministic spot check: Fig. 1 grown candidate-by-candidate equals
/// the one-shot build at every prefix, and retiring each candidate from
/// the full network equals the rebuild over the remaining four.
#[test]
fn fig1_grown_and_shrunk_incrementally_matches_batch_builds() {
    let mut b = CatalogBuilder::new();
    b.add_schema_with_attributes("EoverI", ["productionDate"]).unwrap();
    b.add_schema_with_attributes("BBC", ["date"]).unwrap();
    b.add_schema_with_attributes("DVDizzy", ["releaseDate", "screenDate"]).unwrap();
    let cat = b.build();
    let g = InteractionGraph::complete(3);
    let a = AttributeId;
    let pairs = [(a(0), a(1)), (a(1), a(2)), (a(0), a(2)), (a(1), a(3)), (a(0), a(3))];
    let config = ConstraintConfig::default();

    let mut cs = CandidateSet::new(&cat);
    let mut idx = ConflictIndex::build(&cat, &g, &cs, config);
    let mut comps = Components::of_index(&idx);
    for &(x, y) in &pairs {
        cs.add(&cat, Some(&g), x, y, 0.5).unwrap();
        idx.add_candidate(&cat, &g, &cs);
        comps.add_candidate(&idx);
        assert_eq!(idx, ConflictIndex::build(&cat, &g, &cs, config));
        assert_eq!(comps, Components::of_index(&idx));
    }
    assert_eq!(idx.potential_pair_count(), 2);
    assert_eq!(idx.potential_triple_count(), 2);
    assert_eq!(comps.count(), 1, "fig1's conflict graph is connected");

    for victim in 0..pairs.len() {
        let (mut cs2, mut idx2, mut comps2) = (cs.clone(), idx.clone(), comps.clone());
        let c = CandidateId::from_index(victim);
        cs2.remove(&cat, c).unwrap();
        idx2.retire_candidate(c);
        comps2.retire_candidate(&idx2, c);
        assert_eq!(idx2, ConflictIndex::build(&cat, &g, &cs2, config), "retire c{victim}");
        assert_eq!(comps2, Components::of_index(&idx2), "retire c{victim}");
    }
}

//! Connected components of the candidate conflict graph.
//!
//! Two candidates are *coupled* when they appear in a common potential
//! violation — a one-to-one pair conflict or a cycle triple. The integrity
//! constraints of the paper (§II-B) never couple candidates across
//! components, so the set of matching instances factorizes exactly: `I` is
//! a matching instance of the network iff its restriction to every
//! component is a matching instance of that component. [`Components`]
//! extracts this partition once per network (union-find over the dense
//! pair-conflict masks plus the triple table) and provides the
//! global ↔ shard-local candidate remapping the sharded probabilistic
//! model in `smn-core` is built on.

use crate::bitset::BitSet;
use crate::index::ConflictIndex;
use smn_schema::CandidateId;

/// The partition of a candidate set into conflict-connected components,
/// with per-component (shard-local) candidate renumbering.
///
/// Components are numbered by their smallest member id, and the members of
/// each component are listed in ascending global id order — so the
/// partition, the shard order and the local ids are all deterministic
/// functions of the [`ConflictIndex`]. The partition can be maintained
/// online — [`add_candidate`](Components::add_candidate) merges the
/// components a new arrival couples, and
/// [`retire_candidate`](Components::retire_candidate) splits the one a
/// departure may disconnect — and the maintained state is always `==` to a
/// fresh [`of_index`](Components::of_index) over the patched index.
///
/// [`whole`](Components::whole) is the trivial partition: one component
/// holding every candidate under the identity renumbering, which stays
/// one component through every arrival and retirement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    /// `component_of[c]` = component id of candidate `c`.
    component_of: Vec<u32>,
    /// `local_of[c]` = index of `c` inside `members[component_of[c]]`.
    local_of: Vec<u32>,
    /// Per-component member lists, ascending global ids.
    members: Vec<Vec<CandidateId>>,
    /// Whether this is the one-component partition of
    /// [`whole`](Components::whole), kept whole under evolution.
    whole: bool,
}

impl Components {
    /// Extracts the conflict components of `index`: union-find over every
    /// pair-conflict mask and every cycle triple (both members of a
    /// violation always land in one component).
    pub fn of_index(index: &ConflictIndex) -> Self {
        let n = index.candidate_count();
        let mut uf = UnionFind::new(n);
        for i in 0..n {
            let c = CandidateId::from_index(i);
            for other in index.pair_mask(c).iter() {
                uf.union(i, other.index());
            }
            for &[a, b] in index.other_pairs(c) {
                uf.union(i, a.index());
                uf.union(i, b.index());
            }
        }
        // number components by smallest member (= first occurrence in
        // ascending id order) and assign local ids in the same order
        let mut component_of = vec![u32::MAX; n];
        let mut local_of = vec![0u32; n];
        let mut members: Vec<Vec<CandidateId>> = Vec::new();
        let mut id_of_root: Vec<u32> = vec![u32::MAX; n];
        for i in 0..n {
            let root = uf.find(i);
            if id_of_root[root] == u32::MAX {
                id_of_root[root] = u32::try_from(members.len()).expect("component id fits u32");
                members.push(Vec::new());
            }
            let k = id_of_root[root];
            component_of[i] = k;
            let list = &mut members[k as usize];
            local_of[i] = u32::try_from(list.len()).expect("local id fits u32");
            list.push(CandidateId::from_index(i));
        }
        Self { component_of, local_of, members, whole: false }
    }

    /// The one-component partition of `candidate_count` candidates: every
    /// candidate in component 0 with local id = global id. Evolution keeps
    /// it whole — an arrival joins component 0 whatever it conflicts with,
    /// and a retirement never splits it — so a whole-partition model is
    /// the single unfactorized store.
    pub fn whole(candidate_count: usize) -> Self {
        let ids = 0..u32::try_from(candidate_count).expect("candidate id fits u32");
        Self {
            component_of: vec![0; candidate_count],
            local_of: ids.clone().collect(),
            members: vec![ids.map(CandidateId).collect()],
            whole: true,
        }
    }

    /// Whether this is the [`whole`](Components::whole) partition.
    pub fn is_whole(&self) -> bool {
        self.whole
    }

    /// Reassembles a partition from its canonical member lists (ascending
    /// global ids within each component, components ordered by smallest
    /// member) — the form a snapshot serializes. The inverse maps
    /// (`component_of`, `local_of`) are re-derived, so the round trip
    /// through [`members`](Self::members) is lossless.
    ///
    /// # Panics
    /// Panics if the lists are not a partition of `0..candidate_count` —
    /// callers deserializing untrusted bytes must validate coverage first
    /// (the storage crate does).
    pub fn from_members(candidate_count: usize, members: Vec<Vec<CandidateId>>) -> Self {
        let mut component_of = vec![u32::MAX; candidate_count];
        let mut local_of = vec![0u32; candidate_count];
        for (k, list) in members.iter().enumerate() {
            let k32 = u32::try_from(k).expect("component id fits u32");
            for (j, &c) in list.iter().enumerate() {
                assert!(c.index() < candidate_count, "member id out of range");
                assert_eq!(component_of[c.index()], u32::MAX, "candidate in two components");
                component_of[c.index()] = k32;
                local_of[c.index()] = u32::try_from(j).expect("local id fits u32");
            }
        }
        assert!(component_of.iter().all(|&k| k != u32::MAX), "partition must cover all candidates");
        Self { component_of, local_of, members, whole: false }
    }

    /// Number of components (shards).
    pub fn count(&self) -> usize {
        self.members.len()
    }

    /// Number of candidates across all components.
    pub fn candidate_count(&self) -> usize {
        self.component_of.len()
    }

    /// Component id of a candidate.
    #[inline]
    pub fn component_of(&self, c: CandidateId) -> usize {
        self.component_of[c.index()] as usize
    }

    /// Shard-local index of a candidate within its component.
    #[inline]
    pub fn local_index(&self, c: CandidateId) -> usize {
        self.local_of[c.index()] as usize
    }

    /// Members of component `k`, ascending global ids (the local→global
    /// map: local id `j` is `members(k)[j]`).
    #[inline]
    pub fn members(&self, k: usize) -> &[CandidateId] {
        &self.members[k]
    }

    /// Size of the largest component.
    pub fn largest(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Restricts a global candidate set to component `k`, remapped to
    /// local ids.
    pub fn localize(&self, k: usize, global: &BitSet) -> BitSet {
        BitSet::from_ids(
            self.members[k].len(),
            self.members[k]
                .iter()
                .enumerate()
                .filter(|&(_, &c)| global.contains(c))
                .map(|(j, _)| CandidateId::from_index(j)),
        )
    }

    /// Rebuilds the flattened arrays from a list of `(old component index,
    /// member list)` entries — `None` marks a component with no surviving
    /// old counterpart (the merged component of an arrival, the split
    /// parts of a retirement). Entries are renumbered by smallest member;
    /// the returned [`ComponentEvolution`] records the old → new index
    /// remap and which new indices were freshly formed.
    fn rebuild(
        &mut self,
        mut entries: Vec<(Option<usize>, Vec<CandidateId>)>,
        old_count: usize,
        candidate_count: usize,
    ) -> ComponentEvolution {
        entries.sort_by_key(|(_, members)| members[0]);
        let mut remap = vec![None; old_count];
        let mut rebuilt = Vec::new();
        self.component_of = vec![u32::MAX; candidate_count];
        self.local_of = vec![0; candidate_count];
        self.members = Vec::with_capacity(entries.len());
        for (new_k, (old_k, members)) in entries.into_iter().enumerate() {
            match old_k {
                Some(old) => remap[old] = Some(new_k),
                None => rebuilt.push(new_k),
            }
            let k32 = u32::try_from(new_k).expect("component id fits u32");
            for (j, &c) in members.iter().enumerate() {
                self.component_of[c.index()] = k32;
                self.local_of[c.index()] = u32::try_from(j).expect("local id fits u32");
            }
            self.members.push(members);
        }
        debug_assert!(self.component_of.iter().all(|&k| k != u32::MAX));
        ComponentEvolution { remap, rebuilt, dissolved: Vec::new() }
    }

    /// Evolves the whole partition to `candidate_count` candidates: its one
    /// component dissolves (handing back its pre-event member list) and is
    /// rebuilt whole.
    fn rewhole(&mut self, candidate_count: usize) -> ComponentEvolution {
        let old = std::mem::replace(self, Self::whole(candidate_count));
        let old_members = old.members.into_iter().next().expect("whole has one component");
        ComponentEvolution {
            remap: vec![None],
            rebuilt: vec![0],
            dissolved: vec![(0, old_members)],
        }
    }

    /// Maintains the partition for the candidate just appended to `index`
    /// (`index.candidate_count()` must be exactly one more than this
    /// partition covers): the components of the arrival's conflict
    /// partners merge — a union-find merge along the new conflict edges —
    /// and everything untouched keeps its member list. An arrival without
    /// conflicts forms a fresh singleton component.
    pub fn add_candidate(&mut self, index: &ConflictIndex) -> ComponentEvolution {
        let n = index.candidate_count();
        assert_eq!(n, self.component_of.len() + 1, "index must hold exactly one new candidate");
        let c = CandidateId::from_index(n - 1);
        if self.whole {
            return self.rewhole(n);
        }
        // the components the arrival couples (sorted, deduplicated)
        let mut coupled: Vec<usize> = index
            .pair_mask(c)
            .iter()
            .map(|p| self.component_of(p))
            .chain(index.other_pairs(c).iter().flatten().map(|&p| self.component_of(p)))
            .collect();
        coupled.sort_unstable();
        coupled.dedup();
        let old_count = self.members.len();
        // move the member lists rather than cloning them: untouched
        // components keep theirs verbatim, merge sources hand theirs to
        // the caller via `dissolved` (the sharded stores remap their
        // feedback and samples through exactly those lists)
        let old_members = std::mem::take(&mut self.members);
        let mut entries: Vec<(Option<usize>, Vec<CandidateId>)> = Vec::with_capacity(old_count + 1);
        let mut merged: Vec<CandidateId> = Vec::new();
        let mut dissolved: Vec<(usize, Vec<CandidateId>)> = Vec::new();
        for (k, members) in old_members.into_iter().enumerate() {
            if coupled.binary_search(&k).is_ok() {
                merged.extend_from_slice(&members);
                dissolved.push((k, members));
            } else {
                entries.push((Some(k), members));
            }
        }
        // member lists of different components interleave by id, so the
        // concatenation must be re-sorted; `c` is the largest id
        merged.sort_unstable();
        merged.push(c);
        entries.push((None, merged));
        let mut evo = self.rebuild(entries, old_count, n);
        evo.dissolved = dissolved;
        evo
    }

    /// Maintains the partition after candidate `retired` was removed from
    /// `index` (already patched and id-compacted): only the retired
    /// candidate's component can disconnect, so its remaining members are
    /// re-grouped by a union-find over their surviving conflicts while
    /// every other component just renumbers. The split parts are reported
    /// as `rebuilt`; a retired singleton dissolves without parts.
    pub fn retire_candidate(
        &mut self,
        index: &ConflictIndex,
        retired: CandidateId,
    ) -> ComponentEvolution {
        let n = index.candidate_count();
        assert_eq!(n + 1, self.component_of.len(), "index must have dropped exactly one candidate");
        if self.whole {
            return self.rewhole(n);
        }
        let k_old = self.component_of(retired);
        let shift = |x: CandidateId| if x > retired { CandidateId(x.0 - 1) } else { x };
        // regroup the retired component's remaining members (new ids) by
        // their surviving conflicts; everything stays inside the old
        // component because retirement only removes conflict edges
        let survivors: Vec<CandidateId> =
            self.members[k_old].iter().filter(|&&m| m != retired).map(|&m| shift(m)).collect();
        let mut uf = UnionFind::new(n);
        for &m in &survivors {
            for p in index.pair_mask(m).iter() {
                uf.union(m.index(), p.index());
            }
            for &[a, b] in index.other_pairs(m) {
                uf.union(m.index(), a.index());
                uf.union(m.index(), b.index());
            }
        }
        let mut parts: Vec<Vec<CandidateId>> = Vec::new();
        let mut part_of_root: Vec<usize> = vec![usize::MAX; n];
        for &m in &survivors {
            let root = uf.find(m.index());
            if part_of_root[root] == usize::MAX {
                part_of_root[root] = parts.len();
                parts.push(Vec::new());
            }
            parts[part_of_root[root]].push(m);
        }
        let old_count = self.members.len();
        // move the member lists: untouched components shift theirs in
        // place, the dissolving one hands its (pre-retirement, old-id)
        // list to the caller for feedback/sample remapping
        let old_members = std::mem::take(&mut self.members);
        let mut entries: Vec<(Option<usize>, Vec<CandidateId>)> = Vec::with_capacity(old_count);
        let mut dissolved: Vec<(usize, Vec<CandidateId>)> = Vec::new();
        for (k, mut members) in old_members.into_iter().enumerate() {
            if k == k_old {
                dissolved.push((k, members));
            } else {
                for m in members.iter_mut() {
                    *m = shift(*m);
                }
                entries.push((Some(k), members));
            }
        }
        entries.extend(parts.into_iter().map(|p| (None, p)));
        let mut evo = self.rebuild(entries, old_count, n);
        evo.dissolved = dissolved;
        evo
    }
}

/// How one evolution step reshaped the component partition — the
/// bookkeeping [`crate::ConflictIndex`]-sharded sample stores need to know
/// which shards survive verbatim and which must be re-extracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentEvolution {
    /// `remap[old_k]` = index of old component `old_k` in the new
    /// partition; `None` when it was absorbed by a merge or dissolved by a
    /// split.
    pub remap: Vec<Option<usize>>,
    /// New component indices with no surviving old counterpart, ascending:
    /// the merged component of an arrival (exactly one), the split parts
    /// of a retirement (zero or more).
    pub rebuilt: Vec<usize>,
    /// The `remap == None` components, ascending by old index, *moved out*
    /// with their pre-event member lists (old global ids; a retirement's
    /// list still contains the retiree) — exactly what a per-component
    /// store needs to remap its local feedback and samples into the
    /// rebuilt components, without re-deriving or cloning the partition.
    pub dissolved: Vec<(usize, Vec<CandidateId>)>,
}

/// Path-halving union-find over candidate indices.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n).map(|i| u32::try_from(i).expect("candidate id fits u32")).collect() }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] as usize != x {
            let grand = self.parent[self.parent[x] as usize];
            self.parent[x] = grand;
            x = grand as usize;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // attach the larger root id under the smaller so component
            // representatives stay the smallest member
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = u32::try_from(lo).expect("candidate id fits u32");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ConstraintConfig;
    use smn_schema::{AttributeId, CandidateSet, CatalogBuilder, InteractionGraph};

    /// Two disjoint Fig.-1-style conflict clusters plus one isolated
    /// candidate.
    fn disjoint_network() -> (ConflictIndex, usize) {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a0", "a1"]).unwrap();
        b.add_schema_with_attributes("B", ["b0", "b1"]).unwrap();
        b.add_schema_with_attributes("C", ["c0"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(3);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        // chained cluster: c0 = a0–b0 and c1 = a0–b1 conflict on a0,
        // c1 and c2 = a1–b1 conflict on b1 → {c0, c1, c2} is one component
        cs.add(&cat, Some(&g), a(0), a(2), 0.9).unwrap(); // c0
        cs.add(&cat, Some(&g), a(0), a(3), 0.8).unwrap(); // c1
        cs.add(&cat, Some(&g), a(1), a(3), 0.8).unwrap(); // c2
                                                          // c3 = b0–c0 shares b0 with c0, but the other endpoints (a0 in A,
                                                          // c0 in C) sit in different schemas: no 1-1 conflict, and with no
                                                          // A–C candidate there is no cycle triple → c3 is a singleton
        cs.add(&cat, Some(&g), a(2), a(4), 0.7).unwrap(); // c3
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        (idx, cs.len())
    }

    #[test]
    fn partition_covers_all_candidates_exactly_once() {
        let (idx, n) = disjoint_network();
        let comps = Components::of_index(&idx);
        assert_eq!(comps.candidate_count(), n);
        let mut seen = vec![false; n];
        for k in 0..comps.count() {
            for (j, &c) in comps.members(k).iter().enumerate() {
                assert!(!seen[c.index()], "candidate in two components");
                seen[c.index()] = true;
                assert_eq!(comps.component_of(c), k);
                assert_eq!(comps.local_index(c), j);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn conflicting_candidates_share_a_component() {
        let (idx, n) = disjoint_network();
        let comps = Components::of_index(&idx);
        for i in 0..n {
            let c = CandidateId::from_index(i);
            for other in idx.pair_mask(c).iter() {
                assert_eq!(comps.component_of(c), comps.component_of(other));
            }
            for &[a, b] in idx.other_pairs(c) {
                assert_eq!(comps.component_of(c), comps.component_of(a));
                assert_eq!(comps.component_of(c), comps.component_of(b));
            }
        }
    }

    #[test]
    fn members_are_ascending_and_components_ordered_by_smallest() {
        let (idx, _) = disjoint_network();
        let comps = Components::of_index(&idx);
        let mut prev_smallest = None;
        for k in 0..comps.count() {
            let m = comps.members(k);
            assert!(m.windows(2).all(|w| w[0] < w[1]), "members not ascending");
            if let Some(p) = prev_smallest {
                assert!(m[0] > p, "components not ordered by smallest member");
            }
            prev_smallest = Some(m[0]);
        }
    }

    #[test]
    fn localize_remaps_global_sets() {
        let (idx, n) = disjoint_network();
        let comps = Components::of_index(&idx);
        let global = BitSet::full(n);
        for k in 0..comps.count() {
            let local = comps.localize(k, &global);
            assert_eq!(local.count(), comps.members(k).len());
        }
        let empty = BitSet::new(n);
        for k in 0..comps.count() {
            assert!(comps.localize(k, &empty).is_empty());
        }
    }

    #[test]
    fn conflict_free_network_is_all_singletons() {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a0", "a1"]).unwrap();
        b.add_schema_with_attributes("B", ["b0", "b1"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(2);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        cs.add(&cat, Some(&g), a(0), a(2), 0.9).unwrap();
        cs.add(&cat, Some(&g), a(1), a(3), 0.9).unwrap();
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let comps = Components::of_index(&idx);
        assert_eq!(comps.count(), 2);
        assert_eq!(comps.largest(), 1);
    }

    #[test]
    fn whole_partition_stays_one_component_under_evolution() {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a0", "a1"]).unwrap();
        b.add_schema_with_attributes("B", ["b0", "b1"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(2);
        let a = AttributeId;
        let mut cs = CandidateSet::new(&cat);
        cs.add(&cat, Some(&g), a(0), a(2), 0.9).unwrap();
        let mut idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let mut comps = Components::whole(1);
        // a1–b1 conflicts with nothing, yet joins the single component
        cs.add(&cat, Some(&g), a(1), a(3), 0.9).unwrap();
        idx.add_candidate(&cat, &g, &cs);
        let evo = comps.add_candidate(&idx);
        assert_eq!(evo.remap, vec![None]);
        assert_eq!(evo.rebuilt, vec![0]);
        assert_eq!(evo.dissolved, vec![(0, vec![CandidateId(0)])]);
        assert_eq!(comps, Components::whole(2));
        idx.retire_candidate(CandidateId(0));
        let evo = comps.retire_candidate(&idx, CandidateId(0));
        assert_eq!(evo.rebuilt, vec![0]);
        assert_eq!(evo.dissolved, vec![(0, vec![CandidateId(0), CandidateId(1)])]);
        assert_eq!(comps, Components::whole(1));
        idx.retire_candidate(CandidateId(0));
        comps.retire_candidate(&idx, CandidateId(0));
        assert_eq!(comps.count(), 1, "an emptied whole partition keeps its component");
        assert!(comps.members(0).is_empty());
    }

    #[test]
    fn empty_index_has_no_components() {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a0"]).unwrap();
        b.add_schema_with_attributes("B", ["b0"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(2);
        let cs = CandidateSet::new(&cat);
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        let comps = Components::of_index(&idx);
        assert_eq!(comps.count(), 0);
        assert_eq!(comps.largest(), 0);
    }
}

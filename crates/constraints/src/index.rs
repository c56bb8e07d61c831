//! The pre-computed conflict index.
//!
//! [`ConflictIndex::build`] enumerates, once per network, every *potential*
//! violation among the candidate set `C`:
//!
//! * pair conflicts (one-to-one): stored as adjacency lists, and
//! * triple conflicts (cycle, per interaction-graph triangle): stored as a
//!   flat table of `[CandidateId; 3]` with a per-candidate posting list.
//!
//! Whether an actual violation exists in a concrete instance `I ⊆ C` is then
//! a matter of checking which pre-computed conflicts are fully contained in
//! `I`. All hot queries of the sampler (`can_add`), the repair routine
//! (`conflicts_of_in`) and the instantiation search run in time proportional
//! to the local conflict degree of the touched candidate rather than `|C|`.

use crate::bitset::BitSet;
use crate::violation::{Violation, ViolationCounts, ViolationKind};
use serde::Serialize;
use smn_schema::{CandidateId, CandidateSet, Catalog, InteractionGraph};
use std::sync::Arc;

/// Which constraints the index enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ConstraintConfig {
    /// Enforce the one-to-one constraint.
    pub one_to_one: bool,
    /// Enforce the cycle constraint along interaction-graph triangles.
    pub cycle: bool,
}

impl Default for ConstraintConfig {
    /// Both constraints on — the configuration used throughout the paper's
    /// evaluation (§VI-A "we consider two well-known constraints").
    fn default() -> Self {
        Self { one_to_one: true, cycle: true }
    }
}

impl ConstraintConfig {
    /// Only the one-to-one constraint (the setting of Theorem 1).
    pub fn one_to_one_only() -> Self {
        Self { one_to_one: true, cycle: false }
    }
}

/// Pre-computed conflict structure of one candidate set.
///
/// Conflicts are stored twice: as sparse posting lists (the enumeration
/// form) and as dense per-candidate [`BitSet`] masks plus a flattened
/// other-two table (the query form). The masks turn `can_add`,
/// `violations_introduced` and `conflicts_of_in` into a handful of
/// AND+popcount word operations instead of per-element `contains` probes —
/// the difference that keeps Algorithm 3's walk interactive at `|C|` in
/// the thousands.
///
/// The index is *canonical*: posting lists ascend, and the triple table is
/// kept in lexicographic order regardless of how the triples were
/// discovered. Two indices over the same candidate set therefore compare
/// equal with `==` whether they were
/// built in one shot ([`build`](Self::build)) or grown online
/// ([`add_candidate`](Self::add_candidate) /
/// [`retire_candidate`](Self::retire_candidate)) — the structural half of
/// the evolving-network differential harness.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ConflictIndex {
    config: ConstraintConfig,
    candidate_count: usize,
    /// `pair_conflicts[c]` = candidates forming a one-to-one violation with `c`.
    pair_conflicts: Vec<Vec<CandidateId>>,
    /// All potential cycle violations, each a sorted triple.
    triples: Vec<[CandidateId; 3]>,
    /// `triples_of[c]` = indices into `triples` that involve `c`.
    triples_of: Vec<Vec<u32>>,
    /// `pair_masks[c]` = `pair_conflicts[c]` as a dense bitset.
    pair_masks: Vec<BitSet>,
    /// Flattened other-two table: for the `i`-th triple posting of `c`
    /// (aligned with `triples_of[c]`), the two members besides `c`.
    triple_other: Vec<[CandidateId; 2]>,
    /// `triple_other[triple_other_start[c] .. triple_other_start[c + 1]]`
    /// are the other-two pairs of candidate `c`.
    triple_other_start: Vec<u32>,
}

impl ConflictIndex {
    /// Builds the index for `candidates` over `catalog` and `graph`.
    pub fn build(
        catalog: &Catalog,
        graph: &InteractionGraph,
        candidates: &CandidateSet,
        config: ConstraintConfig,
    ) -> Self {
        let n = candidates.len();
        let mut index = Self {
            config,
            candidate_count: n,
            pair_conflicts: vec![Vec::new(); n],
            triples: Vec::new(),
            triples_of: vec![Vec::new(); n],
            pair_masks: Vec::new(),
            triple_other: Vec::new(),
            triple_other_start: Vec::new(),
        };
        if config.one_to_one {
            index.build_pairs(catalog, candidates);
        }
        if config.cycle {
            index.build_triples(catalog, graph, candidates);
        }
        index.build_dense();
        index
    }

    /// Derives the dense query structures (conflict masks, per-candidate
    /// triple postings, flattened other-two table) from the primary data:
    /// the pair posting lists and the triple table.
    ///
    /// The triple table is canonicalized (sorted lexicographically) first,
    /// so the derived structures — and the index as a whole — are a pure
    /// function of the conflict *sets*, independent of discovery order.
    /// This is what lets the incremental `add_candidate`/`retire_candidate`
    /// patches compare `==` against a from-scratch [`build`](Self::build).
    fn build_dense(&mut self) {
        let n = self.candidate_count;
        self.triples.sort_unstable();
        self.triples_of = vec![Vec::new(); n];
        for (i, t) in self.triples.iter().enumerate() {
            let idx = u32::try_from(i).expect("triple index overflow");
            for &m in t {
                self.triples_of[m.index()].push(idx);
            }
        }
        self.pair_masks =
            self.pair_conflicts.iter().map(|l| BitSet::from_ids(n, l.iter().copied())).collect();
        self.rebuild_other_table();
    }

    /// Re-derives the flattened other-two table from `triples` and
    /// `triples_of`, reusing the existing buffers — the only full pass the
    /// incremental patches keep (it is `O(n + T)` sequential writes with
    /// no per-candidate allocation).
    fn rebuild_other_table(&mut self) {
        let n = self.candidate_count;
        self.triple_other.clear();
        self.triple_other_start.clear();
        for c in 0..n {
            self.triple_other_start
                .push(u32::try_from(self.triple_other.len()).expect("table overflow"));
            for &t in &self.triples_of[c] {
                let [x, y, z] = self.triples[t as usize];
                self.triple_other.push(other_two(x, y, z, CandidateId::from_index(c)));
            }
        }
        self.triple_other_start
            .push(u32::try_from(self.triple_other.len()).expect("table overflow"));
    }

    /// The other-two members of every triple posting of `c` (aligned with
    /// `triples_of[c]`, each pair sorted ascending) — the flattened table
    /// behind the triple checks of `can_add` and the incremental frontier.
    #[inline]
    pub fn other_pairs(&self, c: CandidateId) -> &[[CandidateId; 2]] {
        let lo = self.triple_other_start[c.index()] as usize;
        let hi = self.triple_other_start[c.index() + 1] as usize;
        &self.triple_other[lo..hi]
    }

    /// One-to-one: for every attribute, any two incident candidates whose
    /// *other* endpoints are in the same schema conflict.
    fn build_pairs(&mut self, catalog: &Catalog, candidates: &CandidateSet) {
        for attr in catalog.attributes() {
            let incident = candidates.incident(attr.id);
            for (i, &x) in incident.iter().enumerate() {
                let ox = candidates.corr(x).other(attr.id).expect("incident candidate");
                for &y in &incident[i + 1..] {
                    let oy = candidates.corr(y).other(attr.id).expect("incident candidate");
                    if catalog.schema_of(ox) == catalog.schema_of(oy) {
                        self.pair_conflicts[x.index()].push(y);
                        self.pair_conflicts[y.index()].push(x);
                    }
                }
            }
        }
        // deduplicate: two candidates can share at most one attribute, so no
        // duplicates arise, but keep the lists sorted for determinism.
        for list in &mut self.pair_conflicts {
            list.sort_unstable();
            list.dedup();
        }
    }

    /// Cycle: for every interaction-graph triangle `(A, B, C)` and every
    /// triple with one candidate per triangle edge, the triple conflicts iff
    /// it closes at exactly two of the three junctions (an open 3-path).
    ///
    /// The enumeration below visits each family (mismatch at `A`, `B` or `C`)
    /// once, so each violating triple is generated exactly once.
    fn build_triples(
        &mut self,
        catalog: &Catalog,
        graph: &InteractionGraph,
        candidates: &CandidateSet,
    ) {
        for (sa, sb, sc) in graph.triangles() {
            let ab = candidates.for_edge(sa, sb);
            let bc = candidates.for_edge(sb, sc);
            let ac = candidates.for_edge(sa, sc);
            if ab.is_empty() && bc.is_empty() && ac.is_empty() {
                continue;
            }
            // endpoint of candidate `c` lying in schema `s`
            let end = |c: CandidateId, s| {
                let corr = candidates.corr(c);
                let [x, y] = corr.endpoints();
                if catalog.schema_of(x) == s {
                    x
                } else {
                    debug_assert_eq!(catalog.schema_of(y), s);
                    y
                }
            };
            // family 1: junctions at B and C match, mismatch at A
            for &e2 in bc {
                let (b, c) = (end(e2, sb), end(e2, sc));
                for &e1 in candidates.incident(b) {
                    if !ab.contains(&e1) {
                        continue;
                    }
                    let a1 = end(e1, sa);
                    for &e3 in candidates.incident(c) {
                        if !ac.contains(&e3) {
                            continue;
                        }
                        if end(e3, sa) != a1 {
                            self.push_triple(e1, e2, e3);
                        }
                    }
                }
            }
            // family 2: junctions at A and C match, mismatch at B
            for &e3 in ac {
                let (a, c) = (end(e3, sa), end(e3, sc));
                for &e1 in candidates.incident(a) {
                    if !ab.contains(&e1) {
                        continue;
                    }
                    let b1 = end(e1, sb);
                    for &e2 in candidates.incident(c) {
                        if !bc.contains(&e2) {
                            continue;
                        }
                        if end(e2, sb) != b1 {
                            self.push_triple(e1, e2, e3);
                        }
                    }
                }
            }
            // family 3: junctions at A and B match, mismatch at C
            for &e1 in ab {
                let (a, b) = (end(e1, sa), end(e1, sb));
                for &e2 in candidates.incident(b) {
                    if !bc.contains(&e2) {
                        continue;
                    }
                    let c1 = end(e2, sc);
                    for &e3 in candidates.incident(a) {
                        if !ac.contains(&e3) {
                            continue;
                        }
                        if end(e3, sc) != c1 {
                            self.push_triple(e1, e2, e3);
                        }
                    }
                }
            }
        }
    }

    /// Records one potential cycle triple (members sorted). The posting
    /// lists (`triples_of`) are derived later by
    /// [`build_dense`](Self::build_dense), which also canonicalizes the
    /// table order.
    fn push_triple(&mut self, x: CandidateId, y: CandidateId, z: CandidateId) {
        let mut t = [x, y, z];
        t.sort_unstable();
        self.triples.push(t);
    }

    /// The constraint configuration this index was built with.
    pub fn config(&self) -> ConstraintConfig {
        self.config
    }

    /// Number of candidates the index covers.
    pub fn candidate_count(&self) -> usize {
        self.candidate_count
    }

    /// Candidates that pairwise conflict with `c`.
    #[inline]
    pub fn pair_conflicts(&self, c: CandidateId) -> &[CandidateId] {
        &self.pair_conflicts[c.index()]
    }

    /// The full canonical (lexicographically sorted) triple table — the
    /// primary cycle-conflict data a snapshot serializes. Together with
    /// [`pair_conflicts`](Self::pair_conflicts) per candidate, the
    /// [`config`](Self::config) and the candidate count, it determines the
    /// whole index (see [`from_parts`](Self::from_parts)).
    #[inline]
    pub fn triples(&self) -> &[[CandidateId; 3]] {
        &self.triples
    }

    /// Reassembles an index from its primary data — the pair posting lists
    /// and the triple table — re-deriving every dense query structure
    /// (masks, postings, other-two table) exactly as
    /// [`build`](Self::build) would. Because the dense rebuild
    /// canonicalizes, the result is `==`
    /// to the index the parts were read from: the round trip is lossless.
    ///
    /// # Panics
    /// Panics if `pair_conflicts.len() != candidate_count` or any stored id
    /// is out of range — callers deserializing untrusted bytes must
    /// validate both before reassembling (the storage crate does).
    pub fn from_parts(
        config: ConstraintConfig,
        candidate_count: usize,
        pair_conflicts: Vec<Vec<CandidateId>>,
        triples: Vec<[CandidateId; 3]>,
    ) -> Self {
        assert_eq!(pair_conflicts.len(), candidate_count, "posting list per candidate");
        assert!(
            pair_conflicts.iter().flatten().all(|&x| x.index() < candidate_count)
                && triples.iter().flatten().all(|&x| x.index() < candidate_count),
            "conflict member id out of range"
        );
        let mut index = Self {
            config,
            candidate_count,
            pair_conflicts,
            triples,
            triples_of: Vec::new(),
            pair_masks: Vec::new(),
            triple_other: Vec::new(),
            triple_other_start: Vec::new(),
        };
        for list in &mut index.pair_conflicts {
            list.sort_unstable();
            list.dedup();
        }
        index.build_dense();
        index
    }

    /// Total number of potential pair conflicts (each counted once).
    pub fn potential_pair_count(&self) -> usize {
        self.pair_conflicts.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Total number of potential cycle triples.
    pub fn potential_triple_count(&self) -> usize {
        self.triples.len()
    }

    /// The dense one-to-one conflict mask of `c`.
    #[inline]
    pub fn pair_mask(&self, c: CandidateId) -> &BitSet {
        &self.pair_masks[c.index()]
    }

    /// Whether adding `c` to the consistent instance `set` introduces no
    /// violation — one AND-intersection over the pair mask plus two probes
    /// per triple posting.
    #[inline]
    pub fn can_add(&self, set: &BitSet, c: CandidateId) -> bool {
        if self.pair_masks[c.index()].intersects(set) {
            return false;
        }
        // a triple fires only if the other two members are present
        self.other_pairs(c).iter().all(|&[a, b]| !(set.contains(a) && set.contains(b)))
    }

    /// Number of violations that adding `c` to `set` would introduce
    /// (`c ∉ set` expected; members of `set` only).
    pub fn violations_introduced(&self, set: &BitSet, c: CandidateId) -> usize {
        let pairs = self.pair_masks[c.index()].intersection_count(set);
        let triples = self
            .other_pairs(c)
            .iter()
            .filter(|&&[a, b]| set.contains(a) && set.contains(b))
            .count();
        pairs + triples
    }

    /// Number of violations *within* `set` that `c ∈ set` participates in —
    /// the `I.getConflict(c_i, Γ)` primitive of Algorithm 4.
    pub fn conflicts_of_in(&self, set: &BitSet, c: CandidateId) -> usize {
        debug_assert!(set.contains(c));
        let pairs = self.pair_masks[c.index()].intersection_count(set);
        let triples = self
            .other_pairs(c)
            .iter()
            .filter(|&&[a, b]| set.contains(a) && set.contains(b))
            .count();
        pairs + triples
    }

    /// Scalar (posting-list) reference implementation of
    /// [`can_add`](ConflictIndex::can_add), retained as the oracle for the
    /// differential property tests.
    #[cfg(test)]
    pub fn scalar_can_add(&self, set: &BitSet, c: CandidateId) -> bool {
        if self.pair_conflicts[c.index()].iter().any(|&x| set.contains(x)) {
            return false;
        }
        self.triples_of[c.index()].iter().all(|&t| {
            let [x, y, z] = self.triples[t as usize];
            !(other_two(x, y, z, c).into_iter().all(|m| set.contains(m)))
        })
    }

    /// Scalar reference implementation of
    /// [`violations_introduced`](ConflictIndex::violations_introduced).
    #[cfg(test)]
    pub fn scalar_violations_introduced(&self, set: &BitSet, c: CandidateId) -> usize {
        let pairs = self.pair_conflicts[c.index()].iter().filter(|&&x| set.contains(x)).count();
        let triples = self.triples_of[c.index()]
            .iter()
            .filter(|&&t| {
                let [x, y, z] = self.triples[t as usize];
                other_two(x, y, z, c).into_iter().all(|m| set.contains(m))
            })
            .count();
        pairs + triples
    }

    /// Scalar reference implementation of
    /// [`is_maximal`](ConflictIndex::is_maximal): re-checks `can_add` for
    /// every candidate outside `set ∪ forbidden`.
    #[cfg(test)]
    pub fn scalar_is_maximal(&self, set: &BitSet, forbidden: &BitSet) -> bool {
        (0..self.candidate_count)
            .map(CandidateId::from_index)
            .all(|c| set.contains(c) || forbidden.contains(c) || !self.scalar_can_add(set, c))
    }

    /// Whether `set` satisfies all configured constraints (`I |= Γ`).
    pub fn is_consistent(&self, set: &BitSet) -> bool {
        for c in set.iter() {
            if self.pair_conflicts[c.index()].iter().any(|&x| x > c && set.contains(x)) {
                return false;
            }
        }
        self.triples.iter().all(|t| !t.iter().all(|&m| set.contains(m)))
    }

    /// Enumerates the concrete violations inside `set`.
    pub fn violations_in(&self, set: &BitSet) -> Vec<Violation> {
        let mut out = Vec::new();
        for c in set.iter() {
            for &x in &self.pair_conflicts[c.index()] {
                if x > c && set.contains(x) {
                    out.push(Violation::one_to_one(c, x));
                }
            }
        }
        for t in &self.triples {
            if t.iter().all(|&m| set.contains(m)) {
                out.push(Violation::cycle(t[0], t[1], t[2]));
            }
        }
        out
    }

    /// Violations inside `set` that involve `c`. After adding `c` to a
    /// previously consistent instance, *all* violations involve `c`, so this
    /// is the work list of the repair routine.
    pub fn violations_involving(&self, set: &BitSet, c: CandidateId) -> Vec<Violation> {
        let mut out = Vec::new();
        self.violations_involving_into(set, c, &mut out);
        out
    }

    /// Allocation-free form of
    /// [`violations_involving`](ConflictIndex::violations_involving):
    /// appends into a caller-owned (scratch) buffer.
    pub fn violations_involving_into(
        &self,
        set: &BitSet,
        c: CandidateId,
        out: &mut Vec<Violation>,
    ) {
        for x in self.pair_masks[c.index()].iter_and(set) {
            out.push(Violation::one_to_one(c, x));
        }
        for (&t, &[a, b]) in self.triples_of[c.index()].iter().zip(self.other_pairs(c)) {
            if set.contains(a) && set.contains(b) {
                let tr = self.triples[t as usize];
                out.push(Violation::cycle(tr[0], tr[1], tr[2]));
            }
        }
    }

    /// Calls `f` with the member slice of every violation inside `set`
    /// involving `c`, without materializing [`Violation`] records — the
    /// work-list enumeration of the Algorithm 4 repair hot path.
    pub fn for_each_violation_involving(
        &self,
        set: &BitSet,
        c: CandidateId,
        mut f: impl FnMut(&[CandidateId]),
    ) {
        for x in self.pair_masks[c.index()].iter_and(set) {
            f(&[c, x]);
        }
        for (&t, &[a, b]) in self.triples_of[c.index()].iter().zip(self.other_pairs(c)) {
            if set.contains(a) && set.contains(b) {
                f(&self.triples[t as usize]);
            }
        }
    }

    /// Per-constraint violation totals inside `set` (Table III numbers when
    /// `set` is the full candidate set).
    pub fn count_violations(&self, set: &BitSet) -> ViolationCounts {
        let mut counts = ViolationCounts::default();
        for v in self.violations_in(set) {
            match v.kind {
                ViolationKind::OneToOne => counts.one_to_one += 1,
                ViolationKind::Cycle => counts.cycle += 1,
            }
        }
        counts
    }

    /// Writes into `blocked` the set of candidates that cannot join `set`
    /// without a violation: the union of the pair masks of `set`'s members
    /// plus every third member of a triple whose other two lie in `set`.
    ///
    /// For a consistent `set` this is exactly `{c ∉ set | ¬can_add(set, c)}`
    /// (members of `set` may also appear; callers exclude them anyway), so
    /// the *addable frontier* is the complement of
    /// `set ∪ forbidden ∪ blocked`.
    pub fn blocked_into(&self, set: &BitSet, blocked: &mut BitSet) {
        debug_assert_eq!(blocked.capacity(), self.candidate_count);
        blocked.clear();
        for c in set.iter() {
            blocked.union_with(&self.pair_masks[c.index()]);
            for &[a, b] in self.other_pairs(c) {
                if set.contains(a) {
                    blocked.insert(b);
                }
                if set.contains(b) {
                    blocked.insert(a);
                }
            }
        }
    }

    /// Whether `set` is *maximal*: no candidate outside `set ∪ forbidden`
    /// can be added without violating a constraint (Definition 1).
    ///
    /// Word-parallel: derives the blocked set once and checks emptiness of
    /// `addable \ (set ∪ forbidden)` in one OR+complement pass instead of
    /// probing `can_add` for all of `0..n`.
    pub fn is_maximal(&self, set: &BitSet, forbidden: &BitSet) -> bool {
        let mut blocked = BitSet::new(self.candidate_count);
        self.is_maximal_in(set, forbidden, &mut blocked)
    }

    /// Scratch-buffer form of [`is_maximal`](ConflictIndex::is_maximal);
    /// `blocked` is overwritten.
    pub fn is_maximal_in(&self, set: &BitSet, forbidden: &BitSet, blocked: &mut BitSet) -> bool {
        self.blocked_into(set, blocked);
        blocked.union_with(set);
        blocked.union_with(forbidden);
        blocked.iter_unset().next().is_none()
    }

    /// Extracts the sub-index of component `k` of a conflict-component
    /// partition, candidates renumbered to shard-local ids
    /// (`components.local_index`), in one pass over that component's
    /// posting lists. Conflicts never span components by construction of
    /// [`crate::components::Components`], so every pair and triple of
    /// `self` lands — remapped — in exactly one component's sub-index.
    ///
    /// The sub-index is returned behind [`Arc`] because it is immutable
    /// once built: the copy-on-write shard snapshots of `smn-core` share
    /// it by pointer across forks and overlay clones, so it is built
    /// exactly once per (re)extraction and never deep-cloned.
    pub fn shard_component(
        &self,
        components: &crate::components::Components,
        k: usize,
    ) -> Arc<ConflictIndex> {
        debug_assert_eq!(components.candidate_count(), self.candidate_count);
        let members = components.members(k);
        let m = members.len();
        let mut sub = ConflictIndex {
            config: self.config,
            candidate_count: m,
            pair_conflicts: vec![Vec::new(); m],
            triples: Vec::new(),
            triples_of: Vec::new(),
            pair_masks: Vec::new(),
            triple_other: Vec::new(),
            triple_other_start: Vec::new(),
        };
        let local = |c: CandidateId| CandidateId::from_index(components.local_index(c));
        for (j, &g) in members.iter().enumerate() {
            sub.pair_conflicts[j] =
                self.pair_conflicts[g.index()].iter().map(|&x| local(x)).collect();
            for &t in &self.triples_of[g.index()] {
                let tr = self.triples[t as usize];
                // emit each triple once: when visiting its smallest member
                if tr[0] == g {
                    sub.triples.push([local(tr[0]), local(tr[1]), local(tr[2])]);
                }
            }
        }
        sub.build_dense();
        Arc::new(sub)
    }

    /// Incrementally extends the index for the candidate just appended to
    /// `candidates` (`candidates.len()` must be exactly one more than the
    /// indexed count): computes the new candidate's pair conflicts and
    /// cycle triples from its local neighbourhood — attribute-incident
    /// candidates and the interaction-graph triangles through its schema
    /// edge — and patches the posting lists and dense query structures.
    /// New conflicts always involve the new candidate, so nothing else is
    /// re-enumerated; the result is `==` to a from-scratch
    /// [`build`](ConflictIndex::build) over the grown candidate set.
    ///
    /// Returns the new candidate's id.
    pub fn add_candidate(
        &mut self,
        catalog: &Catalog,
        graph: &InteractionGraph,
        candidates: &CandidateSet,
    ) -> CandidateId {
        let n = self.candidate_count;
        assert_eq!(candidates.len(), n + 1, "add_candidate expects exactly one appended candidate");
        let c = CandidateId::from_index(n);
        self.candidate_count = n + 1;
        self.pair_conflicts.push(Vec::new());
        let corr = candidates.corr(c);
        if self.config.one_to_one {
            // one-to-one: share an endpoint attribute with `c` while the
            // other endpoints lie in the same schema
            for attr in corr.endpoints() {
                let oc = corr.other(attr).expect("endpoint of its own correspondence");
                for &y in candidates.incident(attr) {
                    if y == c {
                        continue;
                    }
                    let oy = candidates.corr(y).other(attr).expect("incident candidate");
                    if catalog.schema_of(oc) == catalog.schema_of(oy) {
                        self.pair_conflicts[c.index()].push(y);
                        // `c` is the largest id, so pushing keeps the
                        // partner's list sorted
                        self.pair_conflicts[y.index()].push(c);
                    }
                }
            }
            self.pair_conflicts[c.index()].sort_unstable();
        }
        let mut added: Vec<[CandidateId; 3]> = Vec::new();
        if self.config.cycle {
            // cycle: for every triangle through c's schema edge, a triple
            // (c, e2, e3) with one candidate per remaining edge conflicts
            // iff it closes at exactly two of the three junctions — the
            // same open-3-path rule `build_triples` enumerates family-wise
            let [pa, pb] = corr.endpoints();
            let (sa, sb) = (catalog.schema_of(pa), catalog.schema_of(pb));
            for &sc in graph.neighbors(sa) {
                if sc == sb || !graph.has_edge(sb, sc) {
                    continue;
                }
                let bc = candidates.for_edge(sb, sc);
                let ac = candidates.for_edge(sa, sc);
                for &e2 in bc {
                    let (b2, c2) =
                        (end_of(catalog, candidates, e2, sb), end_of(catalog, candidates, e2, sc));
                    for &e3 in ac {
                        let (a3, c3) = (
                            end_of(catalog, candidates, e3, sa),
                            end_of(catalog, candidates, e3, sc),
                        );
                        let closes =
                            usize::from(pb == b2) + usize::from(c2 == c3) + usize::from(a3 == pa);
                        if closes == 2 {
                            let mut t = [c, e2, e3];
                            t.sort_unstable();
                            added.push(t);
                        }
                    }
                }
            }
        }
        self.patch_dense_add(c, added);
        c
    }

    /// Dense patch for an arrival: grow every pair mask by one slot and
    /// set the partner bits; merge the (few) new triples into the
    /// canonical table, remapping the existing postings in place; then
    /// re-derive the flattened other-two table. `O(n + P + T)` sequential
    /// work with no per-candidate allocation — versus
    /// [`build`](ConflictIndex::build)'s full conflict enumeration over
    /// the catalog plus `n` fresh mask and posting vectors.
    fn patch_dense_add(&mut self, c: CandidateId, mut added: Vec<[CandidateId; 3]>) {
        let n = self.candidate_count;
        for mask in &mut self.pair_masks {
            mask.grow(n);
        }
        for &y in &self.pair_conflicts[c.index()] {
            self.pair_masks[y.index()].insert(c);
        }
        self.pair_masks.push(BitSet::from_ids(n, self.pair_conflicts[c.index()].iter().copied()));
        self.triples_of.push(Vec::new());
        if !added.is_empty() {
            // one merge pass keeps the table canonical (new triples contain
            // `c` but need not sort after the old ones) and yields the
            // old → new position remap for the existing postings
            added.sort_unstable();
            let old = std::mem::take(&mut self.triples);
            let mut merged = Vec::with_capacity(old.len() + added.len());
            let mut old_pos = Vec::with_capacity(old.len());
            let mut added_pos = Vec::with_capacity(added.len());
            let (mut ai, mut oi) = (0usize, 0usize);
            while oi < old.len() || ai < added.len() {
                let take_added = ai < added.len() && (oi >= old.len() || added[ai] < old[oi]);
                let pos = u32::try_from(merged.len()).expect("triple index overflow");
                if take_added {
                    added_pos.push(pos);
                    merged.push(added[ai]);
                    ai += 1;
                } else {
                    old_pos.push(pos);
                    merged.push(old[oi]);
                    oi += 1;
                }
            }
            self.triples = merged;
            for list in &mut self.triples_of {
                for t in list.iter_mut() {
                    *t = old_pos[*t as usize];
                }
            }
            for (&p, t) in added_pos.iter().zip(&added) {
                for &m in t {
                    let list = &mut self.triples_of[m.index()];
                    let at = list.partition_point(|&x| x < p);
                    list.insert(at, p);
                }
            }
        }
        self.rebuild_other_table();
    }

    /// Incrementally removes candidate `c` from the index, compacting the
    /// id space: every candidate above `c` shifts down by one (the same
    /// order-preserving renumbering [`CandidateSet::remove`] applies).
    /// Conflicts not involving `c` are untouched apart from the renumber,
    /// so the result is `==` to a from-scratch
    /// [`build`](ConflictIndex::build) over the shrunken candidate set.
    pub fn retire_candidate(&mut self, c: CandidateId) {
        assert!(c.index() < self.candidate_count, "retire of unknown candidate {c}");
        let shift = |x: CandidateId| if x > c { CandidateId(x.0 - 1) } else { x };
        self.pair_conflicts.remove(c.index());
        for list in &mut self.pair_conflicts {
            list.retain(|&x| x != c);
            for x in list.iter_mut() {
                *x = shift(*x);
            }
        }
        // dense pair patch: drop c's mask, collapse its bit position in
        // every other (the monotone renumbering keeps the words exact)
        self.pair_masks.remove(c.index());
        for mask in &mut self.pair_masks {
            mask.collapse(c);
        }
        // compact the triple table in place (the retiree's triples die),
        // tracking the old → new position remap for the postings; the
        // order-preserving compaction plus the monotone id shift keep the
        // table canonical without a re-sort
        let mut alive_pos = vec![u32::MAX; self.triples.len()];
        let mut write = 0usize;
        for read in 0..self.triples.len() {
            if !self.triples[read].contains(&c) {
                alive_pos[read] = u32::try_from(write).expect("triple index overflow");
                self.triples[write] = self.triples[read];
                write += 1;
            }
        }
        self.triples.truncate(write);
        for t in &mut self.triples {
            for m in t.iter_mut() {
                *m = shift(*m);
            }
        }
        self.triples_of.remove(c.index());
        for list in &mut self.triples_of {
            list.retain_mut(|t| {
                let p = alive_pos[*t as usize];
                *t = p;
                p != u32::MAX
            });
        }
        self.candidate_count -= 1;
        self.rebuild_other_table();
    }
}

/// Endpoint of candidate `c` lying in schema `s`.
#[inline]
fn end_of(
    catalog: &Catalog,
    candidates: &CandidateSet,
    c: CandidateId,
    s: smn_schema::SchemaId,
) -> smn_schema::AttributeId {
    let [x, y] = candidates.corr(c).endpoints();
    if catalog.schema_of(x) == s {
        x
    } else {
        debug_assert_eq!(catalog.schema_of(y), s);
        y
    }
}

#[inline]
fn other_two(x: CandidateId, y: CandidateId, z: CandidateId, c: CandidateId) -> [CandidateId; 2] {
    if x == c {
        [y, z]
    } else if y == c {
        [x, z]
    } else {
        debug_assert_eq!(z, c);
        [x, y]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_schema::{AttributeId, CatalogBuilder};

    /// The motivating example of §II-A / Fig. 1: three video providers.
    ///
    /// Attributes: a0 = productionDate (EoverI), a1 = date (BBC),
    /// a2 = releaseDate (DVDizzy), a3 = screenDate (DVDizzy).
    /// Candidates: c0 = a0–a1, c1 = a1–a2, c2 = a0–a2, c3 = a1–a3, c4 = a0–a3.
    ///
    /// With one-to-one + cycle constraints the only two maximal instances
    /// are {c0, c1, c2} and {c0, c3, c4} (Example 1 of the paper, relabeled).
    fn fig1() -> (Catalog, InteractionGraph, CandidateSet, ConflictIndex) {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("EoverI", ["productionDate"]).unwrap();
        b.add_schema_with_attributes("BBC", ["date"]).unwrap();
        b.add_schema_with_attributes("DVDizzy", ["releaseDate", "screenDate"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::complete(3);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        cs.add(&cat, Some(&g), a(0), a(1), 0.9).unwrap(); // c0
        cs.add(&cat, Some(&g), a(1), a(2), 0.8).unwrap(); // c1
        cs.add(&cat, Some(&g), a(0), a(2), 0.8).unwrap(); // c2
        cs.add(&cat, Some(&g), a(1), a(3), 0.7).unwrap(); // c3
        cs.add(&cat, Some(&g), a(0), a(3), 0.7).unwrap(); // c4
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        (cat, g, cs, idx)
    }

    fn set(n: usize, ids: &[u32]) -> BitSet {
        BitSet::from_ids(n, ids.iter().map(|&i| CandidateId(i)))
    }

    #[test]
    fn fig1_pair_conflicts() {
        let (_, _, _, idx) = fig1();
        // c1 (a1–a2) vs c3 (a1–a3): share a1, others in DVDizzy → 1-1 conflict
        assert_eq!(idx.pair_conflicts(CandidateId(1)), &[CandidateId(3)]);
        // c2 (a0–a2) vs c4 (a0–a3): share a0, others in DVDizzy → 1-1 conflict
        assert_eq!(idx.pair_conflicts(CandidateId(2)), &[CandidateId(4)]);
        // c0 conflicts with nobody pairwise
        assert!(idx.pair_conflicts(CandidateId(0)).is_empty());
    }

    #[test]
    fn fig1_cycle_triples() {
        let (_, _, _, idx) = fig1();
        let mut triples: Vec<_> = idx.triples.clone();
        triples.sort();
        // open 3-paths: {c0,c1,c4} (closes at a1 and ... ) and {c0,c2,c3}
        assert_eq!(
            triples,
            vec![
                [CandidateId(0), CandidateId(1), CandidateId(4)],
                [CandidateId(0), CandidateId(2), CandidateId(3)],
            ]
        );
    }

    #[test]
    fn fig1_consistency_of_known_instances() {
        let (_, _, cs, idx) = fig1();
        let n = cs.len();
        let i1 = set(n, &[0, 1, 2]);
        let i2 = set(n, &[0, 3, 4]);
        assert!(idx.is_consistent(&i1));
        assert!(idx.is_consistent(&i2));
        // the full candidate set is inconsistent
        assert!(!idx.is_consistent(&BitSet::full(n)));
        // mixed picks are inconsistent
        assert!(!idx.is_consistent(&set(n, &[0, 1, 3]))); // 1-1 on a1
        assert!(!idx.is_consistent(&set(n, &[0, 1, 4]))); // open cycle
        assert!(!idx.is_consistent(&set(n, &[0, 2, 3]))); // open cycle
    }

    #[test]
    fn fig1_maximality() {
        let (_, _, cs, idx) = fig1();
        let n = cs.len();
        let none = BitSet::new(n);
        assert!(idx.is_maximal(&set(n, &[0, 1, 2]), &none));
        assert!(idx.is_maximal(&set(n, &[0, 3, 4]), &none));
        // {c0} alone is not maximal — c1 can still be added
        assert!(!idx.is_maximal(&set(n, &[0]), &none));
        // but becomes maximal if everything else is forbidden
        assert!(idx.is_maximal(&set(n, &[0]), &set(n, &[1, 2, 3, 4])));
    }

    #[test]
    fn fig1_can_add_and_introduced() {
        let (_, _, cs, idx) = fig1();
        let n = cs.len();
        let i = set(n, &[0, 1]);
        assert!(idx.can_add(&i, CandidateId(2)));
        assert!(!idx.can_add(&i, CandidateId(3))); // 1-1 with c1
        assert!(!idx.can_add(&i, CandidateId(4))); // open cycle with c0, c1
        assert_eq!(idx.violations_introduced(&i, CandidateId(3)), 1);
        assert_eq!(idx.violations_introduced(&i, CandidateId(4)), 1);
        assert_eq!(idx.violations_introduced(&i, CandidateId(2)), 0);
    }

    #[test]
    fn fig1_violation_enumeration_and_counts() {
        let (_, _, cs, idx) = fig1();
        let full = BitSet::full(cs.len());
        let viols = idx.violations_in(&full);
        let counts = idx.count_violations(&full);
        assert_eq!(counts.one_to_one, 2);
        assert_eq!(counts.cycle, 2);
        assert_eq!(counts.total(), viols.len());
        // every violation involving c0 is a cycle violation
        let involving0 = idx.violations_involving(&full, CandidateId(0));
        assert_eq!(involving0.len(), 2);
        assert!(involving0.iter().all(|v| v.kind == ViolationKind::Cycle));
    }

    #[test]
    fn conflicts_of_in_counts_local_violations() {
        let (_, _, cs, idx) = fig1();
        let full = BitSet::full(cs.len());
        // c0 participates in both cycle triples
        assert_eq!(idx.conflicts_of_in(&full, CandidateId(0)), 2);
        // c1: 1-1 with c3, cycle {c0,c1,c4}
        assert_eq!(idx.conflicts_of_in(&full, CandidateId(1)), 2);
    }

    #[test]
    fn one_to_one_only_config_ignores_cycles() {
        let (cat, g, cs, _) = fig1();
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::one_to_one_only());
        assert_eq!(idx.potential_triple_count(), 0);
        assert_eq!(idx.potential_pair_count(), 2);
        // the open 3-path is now allowed
        assert!(idx.is_consistent(&set(cs.len(), &[0, 1, 4])));
    }

    #[test]
    fn empty_set_is_consistent_but_not_maximal() {
        let (_, _, cs, idx) = fig1();
        let n = cs.len();
        let empty = BitSet::new(n);
        assert!(idx.is_consistent(&empty));
        assert!(!idx.is_maximal(&empty, &BitSet::new(n)));
    }

    /// Builds a 3-schema catalog with `sizes` attributes per schema and a
    /// random candidate subset of all cross-schema pairs selected by `mask`
    /// bits (mirrors the generator of `tests/properties.rs`).
    fn random_network(sizes: [usize; 3], mask: u64) -> (Catalog, InteractionGraph, CandidateSet) {
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

    fn mask_subset(n: usize, mask: u64) -> BitSet {
        BitSet::from_ids(
            n,
            (0..n).filter(|i| mask & (1 << (i % 64)) != 0).map(CandidateId::from_index),
        )
    }

    mod differential {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The mask-based `can_add` / `violations_introduced` /
            /// `conflicts_of_in` agree with the scalar posting-list oracles
            /// on arbitrary (not necessarily consistent) subsets.
            #[test]
            fn masked_primitives_match_scalar_oracles(
                cand_mask in any::<u64>(),
                inst_mask in any::<u64>(),
                sizes in prop::array::uniform3(1usize..4),
            ) {
                let (cat, g, cs) = random_network(sizes, cand_mask);
                let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
                let set = mask_subset(cs.len(), inst_mask);
                for i in 0..cs.len() {
                    let c = CandidateId::from_index(i);
                    prop_assert_eq!(idx.can_add(&set, c), idx.scalar_can_add(&set, c));
                    prop_assert_eq!(
                        idx.violations_introduced(&set, c),
                        idx.scalar_violations_introduced(&set, c)
                    );
                }
            }

            /// Word-parallel maximality agrees with the scalar all-candidates
            /// scan, on both greedily-completed and raw random sets, with and
            /// without a random forbidden set.
            #[test]
            fn masked_maximality_matches_scalar_oracle(
                cand_mask in any::<u64>(),
                inst_mask in any::<u64>(),
                forb_mask in any::<u64>(),
                sizes in prop::array::uniform3(1usize..4),
            ) {
                let (cat, g, cs) = random_network(sizes, cand_mask);
                let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
                let forbidden = mask_subset(cs.len(), forb_mask);
                // greedy consistent completion of the mask
                let mut inst = BitSet::new(cs.len());
                for i in 0..cs.len() {
                    let c = CandidateId::from_index(i);
                    if inst_mask & (1 << (i % 64)) != 0 && idx.can_add(&inst, c) {
                        inst.insert(c);
                    }
                }
                prop_assert_eq!(
                    idx.is_maximal(&inst, &forbidden),
                    idx.scalar_is_maximal(&inst, &forbidden)
                );
                prop_assert_eq!(
                    idx.is_maximal(&inst, &BitSet::new(cs.len())),
                    idx.scalar_is_maximal(&inst, &BitSet::new(cs.len()))
                );
            }

            /// `blocked_into` is exactly the complement characterization of
            /// `can_add` outside the instance: for consistent sets,
            /// `c ∉ set` is blocked iff `¬can_add(set, c)`.
            #[test]
            fn blocked_set_characterizes_can_add(
                cand_mask in any::<u64>(),
                inst_mask in any::<u64>(),
                sizes in prop::array::uniform3(1usize..4),
            ) {
                let (cat, g, cs) = random_network(sizes, cand_mask);
                let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
                let mut inst = BitSet::new(cs.len());
                for i in 0..cs.len() {
                    let c = CandidateId::from_index(i);
                    if inst_mask & (1 << (i % 64)) != 0 && idx.can_add(&inst, c) {
                        inst.insert(c);
                    }
                }
                let mut blocked = BitSet::new(cs.len());
                idx.blocked_into(&inst, &mut blocked);
                for i in 0..cs.len() {
                    let c = CandidateId::from_index(i);
                    if inst.contains(c) {
                        continue;
                    }
                    prop_assert_eq!(blocked.contains(c), !idx.can_add(&inst, c));
                }
            }
        }
    }

    #[test]
    fn no_triangle_graph_has_no_triples() {
        // A—B—C path: no triangle, so no cycle conflicts even with the
        // cycle constraint enabled.
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a"]).unwrap();
        b.add_schema_with_attributes("B", ["b"]).unwrap();
        b.add_schema_with_attributes("C", ["c"]).unwrap();
        let cat = b.build();
        let g = InteractionGraph::path(3);
        let mut cs = CandidateSet::new(&cat);
        cs.add(&cat, Some(&g), AttributeId(0), AttributeId(1), 0.5).unwrap();
        cs.add(&cat, Some(&g), AttributeId(1), AttributeId(2), 0.5).unwrap();
        let idx = ConflictIndex::build(&cat, &g, &cs, ConstraintConfig::default());
        assert_eq!(idx.potential_triple_count(), 0);
        assert!(idx.is_consistent(&BitSet::full(2)));
    }
}

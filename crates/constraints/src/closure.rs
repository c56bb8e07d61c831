//! Transitive-closure consistency via union-find.
//!
//! A strictly stronger alternative to the triangle-based cycle check: the
//! correspondences of an instance are interpreted as "these attributes
//! denote the same concept". Taking the transitive closure, a consistent
//! instance must never place two *different* attributes of the same schema
//! in one equivalence class — that would simultaneously generalize the
//! one-to-one constraint (two partners in one schema collapse into one
//! class) and the cycle constraint over cycles of *any* length, not just
//! triangles.
//!
//! The checker is used for cross-validation of the [`ConflictIndex`]
//! (property tests assert that triangle+one-to-one consistency coincides
//! with closure consistency on three-schema networks) and as an optional
//! strict post-check for instantiated matchings.
//!
//! [`ConflictIndex`]: crate::index::ConflictIndex

use crate::bitset::BitSet;
use smn_schema::{AttributeId, CandidateSet, Catalog, SchemaId};
use std::collections::HashMap;

/// Union-find over attribute ids with path compression and union by size.
#[derive(Debug)]
struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        Self { parent: (0..n as u32).collect(), size: vec![1; n] }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut root = x;
        while self.parent[root as usize] != root {
            root = self.parent[root as usize];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur as usize] != root {
            let next = self.parent[cur as usize];
            self.parent[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) =
            if self.size[ra as usize] >= self.size[rb as usize] { (ra, rb) } else { (rb, ra) };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }
}

/// Checks closure consistency of instances over one candidate set.
#[derive(Debug, Clone)]
pub struct ClosureChecker {
    /// `schema_of[attr]` for every attribute id.
    schema_of: Vec<SchemaId>,
    /// endpoint pairs per candidate id.
    endpoints: Vec<[AttributeId; 2]>,
}

impl ClosureChecker {
    /// Builds a checker for `candidates` over `catalog`.
    pub fn new(catalog: &Catalog, candidates: &CandidateSet) -> Self {
        Self {
            schema_of: catalog.attributes().iter().map(|a| a.schema).collect(),
            endpoints: candidates.candidates().iter().map(|c| c.corr.endpoints()).collect(),
        }
    }

    /// Whether the instance is closure-consistent: the transitive closure of
    /// its correspondences places at most one attribute of each schema in
    /// every equivalence class.
    pub fn is_consistent(&self, instance: &BitSet) -> bool {
        let mut uf = UnionFind::new(self.schema_of.len());
        for c in instance.iter() {
            let [a, b] = self.endpoints[c.index()];
            uf.union(a.0, b.0);
        }
        // count (root, schema) collisions among attributes that participate
        let mut seen: HashMap<(u32, SchemaId), AttributeId> = HashMap::new();
        for c in instance.iter() {
            for attr in self.endpoints[c.index()] {
                let root = uf.find(attr.0);
                let schema = self.schema_of[attr.index()];
                if let Some(&prev) = seen.get(&(root, schema)) {
                    if prev != attr {
                        return false;
                    }
                } else {
                    seen.insert((root, schema), attr);
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_schema::{CandidateId, CatalogBuilder, InteractionGraph};

    /// Four schemas in a 4-cycle; a chain of correspondences that returns to
    /// a *different* attribute of schema A is caught by closure but not by
    /// triangle-based checking (no triangle exists in the graph).
    #[test]
    fn closure_catches_long_cycles() {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a", "a2"]).unwrap(); // 0, 1
        b.add_schema_with_attributes("B", ["b"]).unwrap(); // 2
        b.add_schema_with_attributes("C", ["c"]).unwrap(); // 3
        b.add_schema_with_attributes("D", ["d"]).unwrap(); // 4
        let cat = b.build();
        let g = InteractionGraph::cycle(4);
        let mut cs = CandidateSet::new(&cat);
        let a = AttributeId;
        cs.add(&cat, Some(&g), a(0), a(2), 0.5).unwrap(); // a–b
        cs.add(&cat, Some(&g), a(2), a(3), 0.5).unwrap(); // b–c
        cs.add(&cat, Some(&g), a(3), a(4), 0.5).unwrap(); // c–d
        cs.add(&cat, Some(&g), a(4), a(1), 0.5).unwrap(); // d–a2  (!)
        let checker = ClosureChecker::new(&cat, &cs);
        let full = BitSet::full(cs.len());
        assert!(!checker.is_consistent(&full), "a and a2 end up in one class");
        // dropping the offending link restores consistency
        let mut ok = full.clone();
        ok.remove(CandidateId(3));
        assert!(checker.is_consistent(&ok));
    }

    #[test]
    fn closure_subsumes_one_to_one() {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a"]).unwrap(); // 0
        b.add_schema_with_attributes("B", ["b1", "b2"]).unwrap(); // 1, 2
        let cat = b.build();
        let g = InteractionGraph::complete(2);
        let mut cs = CandidateSet::new(&cat);
        cs.add(&cat, Some(&g), AttributeId(0), AttributeId(1), 0.5).unwrap();
        cs.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.5).unwrap();
        let checker = ClosureChecker::new(&cat, &cs);
        assert!(!checker.is_consistent(&BitSet::full(2)));
        assert!(checker.is_consistent(&BitSet::from_ids(2, [CandidateId(0)])));
    }

    #[test]
    fn empty_instance_is_consistent() {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a"]).unwrap();
        b.add_schema_with_attributes("B", ["b"]).unwrap();
        let cat = b.build();
        let cs = CandidateSet::new(&cat);
        let checker = ClosureChecker::new(&cat, &cs);
        assert!(checker.is_consistent(&BitSet::new(0)));
    }
}

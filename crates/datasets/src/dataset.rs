//! The generated dataset: catalog + concept assignment + ground truth.

use serde::Serialize;
use smn_schema::{AttributeId, Catalog, Correspondence, InteractionGraph, SchemaId};
use std::collections::HashMap;

/// A dataset: a catalog of schemas whose attributes carry hidden concept
/// labels, from which the ground-truth *selective matching* is derived for
/// any interaction graph.
#[derive(Debug, Clone, Serialize)]
pub struct Dataset {
    /// Dataset label (`BP`, `PO`, …).
    pub name: String,
    /// The schemas.
    pub catalog: Catalog,
    /// `concept_of[attr.index()]` = hidden concept id of each attribute.
    concept_of: Vec<u32>,
}

impl Dataset {
    /// Assembles a dataset (used by the generator).
    pub(crate) fn new(name: String, catalog: Catalog, concept_of: Vec<u32>) -> Self {
        assert_eq!(catalog.attribute_count(), concept_of.len());
        Self { name, catalog, concept_of }
    }

    /// Hidden concept of an attribute.
    pub fn concept_of(&self, attr: AttributeId) -> u32 {
        self.concept_of[attr.index()]
    }

    /// The ground-truth selective matching `M` for a given interaction
    /// graph: for every edge, every pair of attributes denoting the same
    /// concept.
    ///
    /// Because the generator assigns each concept to at most one attribute
    /// per schema, this matching satisfies the one-to-one constraint and —
    /// concept classes having at most one attribute per schema — the cycle
    /// constraint on any graph.
    pub fn selective_matching(&self, graph: &InteractionGraph) -> Vec<Correspondence> {
        let mut by_schema_concept: HashMap<(SchemaId, u32), AttributeId> = HashMap::new();
        for a in self.catalog.attributes() {
            by_schema_concept.insert((a.schema, self.concept_of(a.id)), a.id);
        }
        let mut truth = Vec::new();
        for &(s1, s2) in graph.edges() {
            for &a in &self.catalog.schema(s1).attributes {
                let concept = self.concept_of(a);
                if let Some(&b) = by_schema_concept.get(&(s2, concept)) {
                    truth.push(Correspondence::new(a, b));
                }
            }
        }
        truth.sort_unstable();
        truth
    }

    /// A complete interaction graph over the dataset's schemas — the
    /// configuration of the paper's reconciliation experiments.
    pub fn complete_graph(&self) -> InteractionGraph {
        InteractionGraph::complete(self.catalog.schema_count())
    }

    /// Table II row: `(#schemas, min attributes, max attributes)`.
    pub fn statistics(&self) -> (usize, usize, usize) {
        let (lo, hi) = self.catalog.attribute_min_max().unwrap_or((0, 0));
        (self.catalog.schema_count(), lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smn_schema::CatalogBuilder;

    fn tiny() -> Dataset {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a_date", "a_name"]).unwrap();
        b.add_schema_with_attributes("B", ["b_date", "b_other"]).unwrap();
        b.add_schema_with_attributes("C", ["c_name", "c_date"]).unwrap();
        // concepts: 0 = date, 1 = name, 2 = other
        Dataset::new("tiny".into(), b.build(), vec![0, 1, 0, 2, 1, 0])
    }

    #[test]
    fn selective_matching_on_complete_graph() {
        let d = tiny();
        let truth = d.selective_matching(&d.complete_graph());
        // date: A-B, A-C, B-C; name: A-C → 4 correspondences
        assert_eq!(truth.len(), 4);
        let a = AttributeId;
        assert!(truth.contains(&Correspondence::new(a(0), a(2)))); // date A-B
        assert!(truth.contains(&Correspondence::new(a(0), a(5)))); // date A-C
        assert!(truth.contains(&Correspondence::new(a(2), a(5)))); // date B-C
        assert!(truth.contains(&Correspondence::new(a(1), a(4)))); // name A-C
    }

    #[test]
    fn selective_matching_respects_graph_edges() {
        let d = tiny();
        let g = InteractionGraph::from_edges(3, [(SchemaId(0), SchemaId(1))]);
        let truth = d.selective_matching(&g);
        assert_eq!(truth.len(), 1, "only the A—B date pair");
    }

    #[test]
    fn statistics_row() {
        let d = tiny();
        assert_eq!(d.statistics(), (3, 2, 2));
    }

    #[test]
    fn truth_is_sorted_and_deduplicated() {
        let d = tiny();
        let truth = d.selective_matching(&d.complete_graph());
        let mut sorted = truth.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(truth, sorted);
    }
}

//! Multi-component scenario generation: federations of small sparse
//! networks fused into one catalog.
//!
//! Real schema matching networks rarely form one giant conflict cluster —
//! the WebForm dataset of §VI is a corpus of topical clusters whose
//! candidate sets barely touch. A [`FederationSpec`] models the extreme of
//! that regime: `groups` independent sub-networks, each generated like a
//! regular [`DatasetSpec`], fused into a single [`Dataset`] whose
//! interaction graph is a disjoint union of per-group cliques. With no
//! cross-group edges there are no cross-group candidates, so the conflict
//! graph of any matcher output decomposes into at least `groups`
//! components — the workload the component-sharded probabilistic model
//! (`smn-core::shard`) is built for, and the scenario behind the
//! `sharding` bench group.

use crate::dataset::Dataset;
use crate::generator::{DatasetSpec, SharingModel};
use crate::vocab::Vocabulary;
use smn_schema::InteractionGraph;

/// A generated federation: the fused catalog plus its group-clique
/// interaction graph (the graph is not derivable from the catalog alone,
/// so the pair travels together).
#[derive(Debug, Clone)]
pub struct Federation {
    /// The fused dataset; ground truth (`selective_matching`) stays
    /// group-local because concept ids are offset per group.
    pub dataset: Dataset,
    /// Disjoint union of per-group cliques
    /// ([`InteractionGraph::disjoint_cliques`]).
    pub graph: InteractionGraph,
    /// Number of fused sub-networks.
    pub groups: usize,
}

/// Specification of a federation of small sparse networks.
#[derive(Debug, Clone)]
pub struct FederationSpec {
    /// Federation label.
    pub name: String,
    /// Domain vocabulary, shared by every group (concept ids are offset
    /// per group so the ground truth never crosses groups).
    pub vocabulary: Vocabulary,
    /// Number of independent sub-networks.
    pub groups: usize,
    /// Schemas per sub-network.
    pub schemas_per_group: usize,
    /// Smallest schema size within a group.
    pub attrs_min: usize,
    /// Largest schema size within a group.
    pub attrs_max: usize,
    /// Concept-sharing model within each group.
    pub sharing: SharingModel,
}

impl FederationSpec {
    /// Generates the federation deterministically from `seed`: group `g`
    /// is a regular [`DatasetSpec`] generation under `seed + g`, and the
    /// groups are fused schema-by-schema into one catalog.
    ///
    /// # Panics
    /// Panics under the same conditions as [`DatasetSpec::generate`].
    pub fn generate(&self, seed: u64) -> Federation {
        assert!(self.groups >= 1, "need at least one group");
        let vocab_len = u32::try_from(self.vocabulary.len()).expect("vocabulary fits u32");
        let mut builder = smn_schema::CatalogBuilder::new();
        let mut concept_of: Vec<u32> = Vec::new();
        for g in 0..self.groups {
            let sub = DatasetSpec {
                name: format!("{}_g{g:02}", self.name),
                vocabulary: self.vocabulary.clone(),
                schema_count: self.schemas_per_group,
                attrs_min: self.attrs_min,
                attrs_max: self.attrs_max,
                sharing: self.sharing,
            }
            .generate(seed.wrapping_add(g as u64));
            // fuse: re-add every schema/attribute; offset concepts so two
            // groups never share a concept (truth stays group-local even
            // if a graph with cross-group edges were used downstream)
            let offset = u32::try_from(g).expect("group fits u32") * vocab_len;
            for schema in sub.catalog.schemas() {
                let fused = builder
                    .add_schema(schema.name.clone())
                    .expect("group-prefixed schema names are unique");
                for &attr in &schema.attributes {
                    builder
                        .add_attribute(fused, sub.catalog.attribute(attr).name.clone())
                        .expect("attribute names are unique within their schema");
                    concept_of.push(offset + sub.concept_of(attr));
                }
            }
        }
        let graph = InteractionGraph::disjoint_cliques(self.groups, self.schemas_per_group);
        let dataset = Dataset::new(self.name.clone(), builder.build(), concept_of);
        Federation { dataset, graph, groups: self.groups }
    }
}

/// Preset federation in the WebForm regime: 12 clusters of 3 small forms
/// each — the multi-component scenario of the `sharding` benches.
pub fn webform_federation(seed: u64) -> Federation {
    FederationSpec {
        name: "WebFormFed".into(),
        vocabulary: Vocabulary::web_form(),
        groups: 12,
        schemas_per_group: 3,
        attrs_min: 8,
        attrs_max: 14,
        sharing: SharingModel::RankBiased { alpha: 0.9 },
    }
    .generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FederationSpec {
        FederationSpec {
            name: "Fed".into(),
            vocabulary: Vocabulary::business_partner(),
            groups: 4,
            schemas_per_group: 3,
            attrs_min: 5,
            attrs_max: 9,
            sharing: SharingModel::RankBiased { alpha: 1.5 },
        }
    }

    #[test]
    fn federation_shape_matches_spec() {
        let fed = small().generate(1);
        assert_eq!(fed.groups, 4);
        assert_eq!(fed.dataset.catalog.schema_count(), 12);
        assert_eq!(fed.graph.vertex_count(), 12);
        assert_eq!(fed.graph.component_count(), 4);
        let (schemas, lo, hi) = fed.dataset.statistics();
        assert_eq!(schemas, 12);
        assert!(lo >= 5 && hi <= 9);
    }

    #[test]
    fn ground_truth_never_crosses_groups() {
        let fed = small().generate(2);
        // even on a complete graph the concept offsets keep truth local
        let complete = fed.dataset.complete_graph();
        let truth = fed.dataset.selective_matching(&complete);
        assert!(!truth.is_empty());
        for corr in truth {
            let sa = fed.dataset.catalog.schema_of(corr.a()).index();
            let sb = fed.dataset.catalog.schema_of(corr.b()).index();
            assert_eq!(sa / 3, sb / 3, "truth pair crosses groups: {corr:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small().generate(7);
        let b = small().generate(7);
        assert_eq!(a.dataset.catalog, b.dataset.catalog);
        assert_eq!(a.graph, b.graph);
        let c = small().generate(8);
        assert_ne!(a.dataset.catalog, c.dataset.catalog);
    }

    #[test]
    fn webform_federation_preset_is_multi_component() {
        let fed = webform_federation(1);
        assert_eq!(fed.groups, 12);
        assert_eq!(fed.dataset.catalog.schema_count(), 36);
        assert_eq!(fed.graph.component_count(), 12);
        let truth = fed.dataset.selective_matching(&fed.graph);
        assert!(!truth.is_empty(), "groups must share concepts internally");
    }
}

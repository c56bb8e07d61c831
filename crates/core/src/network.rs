//! The (non-probabilistic) matching network `N = ⟨S, G_S, Γ, C⟩`.

use smn_constraints::{BitSet, ConflictIndex, ConstraintConfig, ViolationCounts};
use smn_schema::{
    AttributeId, Candidate, CandidateId, CandidateSet, Catalog, Correspondence, InteractionGraph,
    SchemaError,
};
use std::sync::Arc;

/// A network of schemas: catalog, interaction graph, candidate
/// correspondences and the (pre-indexed) integrity constraints.
///
/// This is the immutable substrate; all reconciliation state (feedback,
/// probabilities, samples) lives in
/// [`ProbabilisticNetwork`](crate::probability::ProbabilisticNetwork).
/// Every part is `Arc`-shared so cloning a network — which happens on
/// every [`ProbabilisticNetwork::fork`](crate::ProbabilisticNetwork::fork)
/// — copies four pointers; in particular the [`ConflictIndex`] is never
/// deep-cloned by a fork. Online evolution
/// ([`extend`](Self::extend)/[`retire`](Self::retire)) copy-on-writes the
/// candidate set and index (`Arc::make_mut` — a real copy only when a
/// fork still shares them).
#[derive(Debug, Clone)]
pub struct MatchingNetwork {
    catalog: Arc<Catalog>,
    graph: Arc<InteractionGraph>,
    candidates: Arc<CandidateSet>,
    index: Arc<ConflictIndex>,
}

impl MatchingNetwork {
    /// Assembles a network and builds its conflict index.
    pub fn new(
        catalog: Catalog,
        graph: InteractionGraph,
        candidates: CandidateSet,
        config: ConstraintConfig,
    ) -> Self {
        let index = ConflictIndex::build(&catalog, &graph, &candidates, config);
        Self {
            catalog: Arc::new(catalog),
            graph: Arc::new(graph),
            candidates: Arc::new(candidates),
            index: Arc::new(index),
        }
    }

    /// Reassembles a network from already-validated parts, including a
    /// pre-built conflict index — the snapshot-load path of `smn-storage`,
    /// which reconstructs the index from its serialized primary data
    /// ([`ConflictIndex::from_parts`]) instead of re-enumerating conflicts
    /// over the catalog.
    pub fn from_parts(
        catalog: Catalog,
        graph: InteractionGraph,
        candidates: CandidateSet,
        index: ConflictIndex,
    ) -> Self {
        debug_assert_eq!(index.candidate_count(), candidates.len());
        Self {
            catalog: Arc::new(catalog),
            graph: Arc::new(graph),
            candidates: Arc::new(candidates),
            index: Arc::new(index),
        }
    }

    /// The schemas.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The interaction graph `G_S`.
    pub fn graph(&self) -> &InteractionGraph {
        &self.graph
    }

    /// The candidate set `C`.
    pub fn candidates(&self) -> &CandidateSet {
        &self.candidates
    }

    /// The pre-computed conflict index over `Γ`.
    pub fn index(&self) -> &ConflictIndex {
        &self.index
    }

    /// The conflict index's shared allocation — the sub-index of the
    /// whole-network shard, which therefore never copies the index.
    pub(crate) fn shared_index(&self) -> &Arc<ConflictIndex> {
        &self.index
    }

    /// `|C|`.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Correspondence of a candidate id.
    pub fn corr(&self, c: CandidateId) -> Correspondence {
        self.candidates.corr(c)
    }

    /// Violation totals among the *full* candidate set (the Table III
    /// numbers for this network).
    pub fn initial_violations(&self) -> ViolationCounts {
        self.index.count_violations(&BitSet::full(self.candidates.len()))
    }

    /// Admits a new candidate correspondence online: validates and appends
    /// it to the candidate set (it gets the next dense id) and patches the
    /// conflict index incrementally
    /// ([`ConflictIndex::add_candidate`]) instead of
    /// rebuilding it — new conflicts always involve the arrival, so only
    /// its attribute/triangle neighbourhood is enumerated.
    pub fn extend(
        &mut self,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<CandidateId, SchemaError> {
        let id = Arc::make_mut(&mut self.candidates).add(
            &self.catalog,
            Some(&self.graph),
            x,
            y,
            confidence,
        )?;
        let patched = Arc::make_mut(&mut self.index).add_candidate(
            &self.catalog,
            &self.graph,
            &self.candidates,
        );
        debug_assert_eq!(patched, id);
        Ok(id)
    }

    /// Retires candidate `c` online: removes it from the candidate set
    /// (every later id shifts down by one) and patches the conflict index
    /// incrementally ([`ConflictIndex::retire_candidate`]). Returns the
    /// retired candidate.
    pub fn retire(&mut self, c: CandidateId) -> Result<Candidate, SchemaError> {
        let removed = Arc::make_mut(&mut self.candidates).remove(&self.catalog, c)?;
        Arc::make_mut(&mut self.index).retire_candidate(c);
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::fig1_network;

    #[test]
    fn accessors_are_consistent() {
        let net = fig1_network();
        assert_eq!(net.candidate_count(), 5);
        assert_eq!(net.candidates().len(), 5);
        assert_eq!(net.index().candidate_count(), 5);
        assert_eq!(net.catalog().schema_count(), 3);
        assert_eq!(net.graph().edge_count(), 3);
    }

    #[test]
    fn initial_violations_match_fig1() {
        let net = fig1_network();
        let v = net.initial_violations();
        assert_eq!(v.one_to_one, 2);
        assert_eq!(v.cycle, 2);
    }
}

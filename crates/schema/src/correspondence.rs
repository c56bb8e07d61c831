//! Attribute correspondences and the candidate set `C`.
//!
//! A [`Correspondence`] is an unordered pair of attributes from two different
//! schemas. The matcher output for the whole network is collected in a
//! [`CandidateSet`], which assigns dense [`CandidateId`]s and maintains the
//! indexes the constraint engine and the sampler rely on:
//!
//! * candidates grouped by interaction-graph edge (`C_{i,j}`),
//! * candidates incident to each attribute,
//! * exact lookup from attribute pair to candidate id.

use crate::catalog::Catalog;
use crate::error::SchemaError;
use crate::graph::InteractionGraph;
use crate::ids::{AttributeId, CandidateId, SchemaId};
use serde::Serialize;
use std::collections::HashMap;

/// An unordered pair of attributes from two different schemas.
///
/// Stored normalized (`a.0 < b.0`) so that `(x, y)` and `(y, x)` compare
/// equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Correspondence {
    a: AttributeId,
    b: AttributeId,
}

impl Correspondence {
    /// Creates a normalized correspondence.
    ///
    /// # Panics
    /// Panics if both endpoints are the same attribute.
    pub fn new(x: AttributeId, y: AttributeId) -> Self {
        assert_ne!(x, y, "correspondence endpoints must differ");
        if x.0 < y.0 {
            Self { a: x, b: y }
        } else {
            Self { a: y, b: x }
        }
    }

    /// Lower endpoint (by id).
    #[inline]
    pub fn a(&self) -> AttributeId {
        self.a
    }

    /// Higher endpoint (by id).
    #[inline]
    pub fn b(&self) -> AttributeId {
        self.b
    }

    /// Both endpoints as an array.
    #[inline]
    pub fn endpoints(&self) -> [AttributeId; 2] {
        [self.a, self.b]
    }

    /// Whether this correspondence touches `attr`.
    #[inline]
    pub fn touches(&self, attr: AttributeId) -> bool {
        self.a == attr || self.b == attr
    }

    /// Given one endpoint, returns the other; `None` if `attr` is not an
    /// endpoint.
    #[inline]
    pub fn other(&self, attr: AttributeId) -> Option<AttributeId> {
        if self.a == attr {
            Some(self.b)
        } else if self.b == attr {
            Some(self.a)
        } else {
            None
        }
    }
}

/// A candidate correspondence: a correspondence plus the matcher confidence.
///
/// Confidences are kept because matchers report them, but — as the paper
/// argues (§III-A) — they are "not normalized, often unreliable", so the core
/// crate derives probabilities from constraint structure instead. Confidences
/// still matter as matcher-internal tie-breakers and for matcher evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Candidate {
    /// Dense id in the owning [`CandidateSet`].
    pub id: CandidateId,
    /// The attribute pair.
    pub corr: Correspondence,
    /// Matcher confidence in `[0, 1]`.
    pub confidence: f64,
}

/// The candidate set `C` of a matching network, with dense ids and indexes.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct CandidateSet {
    candidates: Vec<Candidate>,
    by_pair: HashMap<Correspondence, CandidateId>,
    /// For each attribute id (dense), candidate ids incident to it.
    incident: Vec<Vec<CandidateId>>,
    /// Candidates grouped by normalized schema pair.
    by_edge: HashMap<(SchemaId, SchemaId), Vec<CandidateId>>,
}

impl CandidateSet {
    /// Creates an empty candidate set sized for `catalog`.
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            candidates: Vec::new(),
            by_pair: HashMap::new(),
            incident: vec![Vec::new(); catalog.attribute_count()],
            by_edge: HashMap::new(),
        }
    }

    /// Adds a candidate, validating that the endpoints belong to different
    /// schemas, that the schema pair is an interaction edge (when a graph is
    /// supplied), that the confidence is in `[0,1]`, and that the pair was
    /// not added before.
    pub fn add(
        &mut self,
        catalog: &Catalog,
        graph: Option<&InteractionGraph>,
        x: AttributeId,
        y: AttributeId,
        confidence: f64,
    ) -> Result<CandidateId, SchemaError> {
        catalog.try_attribute(x)?;
        catalog.try_attribute(y)?;
        let (sx, sy) = (catalog.schema_of(x), catalog.schema_of(y));
        if sx == sy {
            return Err(SchemaError::IntraSchemaCorrespondence(x, y));
        }
        if let Some(g) = graph {
            if !g.has_edge(sx, sy) {
                return Err(SchemaError::NotAnInteractionEdge(sx, sy));
            }
        }
        if !(0.0..=1.0).contains(&confidence) || confidence.is_nan() {
            return Err(SchemaError::InvalidConfidence(confidence));
        }
        let corr = Correspondence::new(x, y);
        if self.by_pair.contains_key(&corr) {
            return Err(SchemaError::DuplicateCandidate(x, y));
        }
        let id = CandidateId::from_index(self.candidates.len());
        self.by_pair.insert(corr, id);
        self.incident[corr.a().index()].push(id);
        self.incident[corr.b().index()].push(id);
        let edge = if sx.0 <= sy.0 { (sx, sy) } else { (sy, sx) };
        self.by_edge.entry(edge).or_default().push(id);
        self.candidates.push(Candidate { id, corr, confidence });
        Ok(id)
    }

    /// Removes a candidate, compacting the dense id space: every candidate
    /// with a higher id shifts down by one (order-preserving renumbering),
    /// and the derived indexes are patched in place — the retiree dropped,
    /// higher ids shifted, an emptied schema-pair group removed — so the
    /// result is `==` a set built by re-adding the survivors in order.
    /// Returns the removed candidate (with its original id).
    ///
    /// This is the candidate-retirement primitive of the evolving-network
    /// stack; `catalog` must be the catalog the set was built against.
    pub fn remove(&mut self, catalog: &Catalog, id: CandidateId) -> Result<Candidate, SchemaError> {
        if id.index() >= self.candidates.len() {
            return Err(SchemaError::UnknownCandidate(id));
        }
        let removed = self.candidates.remove(id.index());
        let shift = |c: &mut CandidateId| {
            if *c > id {
                c.0 -= 1;
            }
        };
        for cand in &mut self.candidates[id.index()..] {
            shift(&mut cand.id);
        }
        self.by_pair.remove(&removed.corr);
        self.by_pair.values_mut().for_each(shift);
        for attr in removed.corr.endpoints() {
            self.incident[attr.index()].retain(|&c| c != id);
        }
        self.incident.iter_mut().flatten().for_each(shift);
        let (sx, sy) = (catalog.schema_of(removed.corr.a()), catalog.schema_of(removed.corr.b()));
        let edge = if sx.0 <= sy.0 { (sx, sy) } else { (sy, sx) };
        if let Some(group) = self.by_edge.get_mut(&edge) {
            group.retain(|&c| c != id);
            if group.is_empty() {
                self.by_edge.remove(&edge);
            }
        }
        self.by_edge.values_mut().flatten().for_each(shift);
        Ok(removed)
    }

    /// Number of candidates (`|C|`).
    #[inline]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// All candidates in id order.
    #[inline]
    pub fn candidates(&self) -> &[Candidate] {
        &self.candidates
    }

    /// Candidate by id.
    ///
    /// # Panics
    /// Panics if the id is not from this set.
    #[inline]
    pub fn get(&self, id: CandidateId) -> &Candidate {
        &self.candidates[id.index()]
    }

    /// Correspondence of a candidate.
    #[inline]
    pub fn corr(&self, id: CandidateId) -> Correspondence {
        self.candidates[id.index()].corr
    }

    /// Matcher confidence of a candidate.
    #[inline]
    pub fn confidence(&self, id: CandidateId) -> f64 {
        self.candidates[id.index()].confidence
    }

    /// Looks up the candidate id of an attribute pair, if present.
    pub fn find(&self, x: AttributeId, y: AttributeId) -> Option<CandidateId> {
        if x == y {
            return None;
        }
        self.by_pair.get(&Correspondence::new(x, y)).copied()
    }

    /// Candidates incident to an attribute.
    #[inline]
    pub fn incident(&self, attr: AttributeId) -> &[CandidateId] {
        &self.incident[attr.index()]
    }

    /// Candidates for a schema pair (`C_{i,j}`), empty if none.
    pub fn for_edge(&self, a: SchemaId, b: SchemaId) -> &[CandidateId] {
        let edge = if a.0 <= b.0 { (a, b) } else { (b, a) };
        self.by_edge.get(&edge).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterates over all `(schema pair, candidates)` groups.
    pub fn edges(&self) -> impl Iterator<Item = ((SchemaId, SchemaId), &[CandidateId])> {
        self.by_edge.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Iterates over candidate ids.
    pub fn ids(&self) -> impl Iterator<Item = CandidateId> + '_ {
        (0..self.candidates.len()).map(CandidateId::from_index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogBuilder;

    fn setup() -> (Catalog, InteractionGraph) {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("A", ["a1", "a2"]).unwrap();
        b.add_schema_with_attributes("B", ["b1", "b2"]).unwrap();
        b.add_schema_with_attributes("C", ["c1"]).unwrap();
        let catalog = b.build();
        // A—B and B—C but NOT A—C
        let g = InteractionGraph::from_edges(
            3,
            [(SchemaId(0), SchemaId(1)), (SchemaId(1), SchemaId(2))],
        );
        (catalog, g)
    }

    #[test]
    fn correspondence_is_normalized() {
        let c1 = Correspondence::new(AttributeId(5), AttributeId(2));
        let c2 = Correspondence::new(AttributeId(2), AttributeId(5));
        assert_eq!(c1, c2);
        assert_eq!(c1.a(), AttributeId(2));
        assert_eq!(c1.b(), AttributeId(5));
        assert!(c1.touches(AttributeId(2)));
        assert!(!c1.touches(AttributeId(3)));
        assert_eq!(c1.other(AttributeId(2)), Some(AttributeId(5)));
        assert_eq!(c1.other(AttributeId(5)), Some(AttributeId(2)));
        assert_eq!(c1.other(AttributeId(9)), None);
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn degenerate_correspondence_panics() {
        let _ = Correspondence::new(AttributeId(1), AttributeId(1));
    }

    #[test]
    fn add_and_lookup() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        let id = set.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.9).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.find(AttributeId(2), AttributeId(0)), Some(id));
        assert_eq!(set.confidence(id), 0.9);
        assert_eq!(set.incident(AttributeId(0)), &[id]);
        assert_eq!(set.incident(AttributeId(2)), &[id]);
        assert_eq!(set.for_edge(SchemaId(1), SchemaId(0)), &[id]);
        assert!(set.for_edge(SchemaId(1), SchemaId(2)).is_empty());
    }

    #[test]
    fn rejects_intra_schema_pairs() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        let err = set.add(&cat, Some(&g), AttributeId(0), AttributeId(1), 0.5).unwrap_err();
        assert!(matches!(err, SchemaError::IntraSchemaCorrespondence(_, _)));
    }

    #[test]
    fn rejects_non_edges_when_graph_given() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        // A—C is not an interaction edge
        let err = set.add(&cat, Some(&g), AttributeId(0), AttributeId(4), 0.5).unwrap_err();
        assert!(matches!(err, SchemaError::NotAnInteractionEdge(_, _)));
        // without a graph it is allowed
        assert!(set.add(&cat, None, AttributeId(0), AttributeId(4), 0.5).is_ok());
    }

    #[test]
    fn rejects_duplicates_and_bad_confidence() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        set.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.5).unwrap();
        assert!(matches!(
            set.add(&cat, Some(&g), AttributeId(2), AttributeId(0), 0.7),
            Err(SchemaError::DuplicateCandidate(_, _))
        ));
        assert!(matches!(
            set.add(&cat, Some(&g), AttributeId(1), AttributeId(2), 1.5),
            Err(SchemaError::InvalidConfidence(_))
        ));
        assert!(matches!(
            set.add(&cat, Some(&g), AttributeId(1), AttributeId(2), f64::NAN),
            Err(SchemaError::InvalidConfidence(_))
        ));
    }

    #[test]
    fn ids_are_dense() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        set.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.5).unwrap();
        set.add(&cat, Some(&g), AttributeId(1), AttributeId(3), 0.6).unwrap();
        set.add(&cat, Some(&g), AttributeId(2), AttributeId(4), 0.7).unwrap();
        let ids: Vec<_> = set.ids().collect();
        assert_eq!(ids, vec![CandidateId(0), CandidateId(1), CandidateId(2)]);
        for c in set.candidates() {
            assert_eq!(set.get(c.id).corr, c.corr);
        }
    }

    #[test]
    fn remove_compacts_ids_like_a_rebuild() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        set.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.5).unwrap();
        set.add(&cat, Some(&g), AttributeId(1), AttributeId(3), 0.6).unwrap();
        set.add(&cat, Some(&g), AttributeId(2), AttributeId(4), 0.7).unwrap();
        let removed = set.remove(&cat, CandidateId(1)).unwrap();
        assert_eq!(removed.corr, Correspondence::new(AttributeId(1), AttributeId(3)));
        // survivors renumbered in order; equal to re-adding them from scratch
        let mut rebuilt = CandidateSet::new(&cat);
        rebuilt.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.5).unwrap();
        rebuilt.add(&cat, Some(&g), AttributeId(2), AttributeId(4), 0.7).unwrap();
        assert_eq!(set, rebuilt);
        assert_eq!(set.find(AttributeId(2), AttributeId(4)), Some(CandidateId(1)));
        assert_eq!(set.incident(AttributeId(2)), &[CandidateId(0), CandidateId(1)]);
        // unknown ids are a typed error, and the set is untouched
        assert_eq!(
            set.remove(&cat, CandidateId(9)),
            Err(SchemaError::UnknownCandidate(CandidateId(9)))
        );
        assert_eq!(set.len(), 2);
        // removing everything leaves a usable empty set
        set.remove(&cat, CandidateId(0)).unwrap();
        set.remove(&cat, CandidateId(0)).unwrap();
        assert!(set.is_empty());
        assert!(set.for_edge(SchemaId(0), SchemaId(1)).is_empty());
    }

    #[test]
    fn edge_grouping_covers_all_candidates() {
        let (cat, g) = setup();
        let mut set = CandidateSet::new(&cat);
        set.add(&cat, Some(&g), AttributeId(0), AttributeId(2), 0.5).unwrap();
        set.add(&cat, Some(&g), AttributeId(1), AttributeId(3), 0.6).unwrap();
        set.add(&cat, Some(&g), AttributeId(2), AttributeId(4), 0.7).unwrap();
        let total: usize = set.edges().map(|(_, ids)| ids.len()).sum();
        assert_eq!(total, set.len());
    }
}

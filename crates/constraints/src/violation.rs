//! Violation records and per-constraint counts.

use serde::Serialize;
use smn_schema::CandidateId;
use std::fmt;

/// Which constraint a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum ViolationKind {
    /// Two candidates map one attribute to two attributes of the same schema.
    OneToOne,
    /// Three candidates form an open 3-path around an interaction-graph
    /// triangle (the composed matching does not close).
    Cycle,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViolationKind::OneToOne => write!(f, "one-to-one"),
            ViolationKind::Cycle => write!(f, "cycle"),
        }
    }
}

/// A concrete violation: the kind plus the participating candidates
/// (two for one-to-one, three for cycle).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize)]
pub struct Violation {
    /// The violated constraint.
    pub kind: ViolationKind,
    /// Participating candidate ids, sorted ascending.
    pub members: Vec<CandidateId>,
}

impl Violation {
    /// A one-to-one violation between `x` and `y`.
    pub fn one_to_one(x: CandidateId, y: CandidateId) -> Self {
        let mut members = vec![x, y];
        members.sort_unstable();
        Self { kind: ViolationKind::OneToOne, members }
    }

    /// A cycle violation between `x`, `y`, `z`.
    pub fn cycle(x: CandidateId, y: CandidateId, z: CandidateId) -> Self {
        let mut members = vec![x, y, z];
        members.sort_unstable();
        Self { kind: ViolationKind::Cycle, members }
    }

    /// Whether `c` participates in the violation.
    pub fn involves(&self, c: CandidateId) -> bool {
        self.members.contains(&c)
    }
}

/// Violation totals per constraint, as reported in Table III of the paper.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ViolationCounts {
    /// Number of violating candidate pairs.
    pub one_to_one: usize,
    /// Number of violating candidate triples.
    pub cycle: usize,
}

impl ViolationCounts {
    /// Combined count (`# Violations` column of Table III).
    pub fn total(&self) -> usize {
        self.one_to_one + self.cycle
    }
}

impl fmt::Display for ViolationCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (1-1: {}, cycle: {})", self.total(), self.one_to_one, self.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_sorted() {
        let v = Violation::one_to_one(CandidateId(9), CandidateId(2));
        assert_eq!(v.members, vec![CandidateId(2), CandidateId(9)]);
        let v = Violation::cycle(CandidateId(5), CandidateId(1), CandidateId(3));
        assert_eq!(v.members, vec![CandidateId(1), CandidateId(3), CandidateId(5)]);
    }

    #[test]
    fn involvement() {
        let v = Violation::cycle(CandidateId(5), CandidateId(1), CandidateId(3));
        assert!(v.involves(CandidateId(3)));
        assert!(!v.involves(CandidateId(4)));
    }

    #[test]
    fn counts_total() {
        let c = ViolationCounts { one_to_one: 3, cycle: 4 };
        assert_eq!(c.total(), 7);
        assert_eq!(c.to_string(), "7 (1-1: 3, cycle: 4)");
    }

    #[test]
    fn violations_compare_structurally() {
        assert_eq!(
            Violation::one_to_one(CandidateId(1), CandidateId(2)),
            Violation::one_to_one(CandidateId(2), CandidateId(1))
        );
        assert_ne!(
            Violation::one_to_one(CandidateId(1), CandidateId(2)),
            Violation::one_to_one(CandidateId(1), CandidateId(3))
        );
    }
}

//! # smn-constraints
//!
//! Network-level integrity constraints for schema matching networks and the
//! machinery to detect, count and index their violations (§II-A/§II-B of
//! "Pay-as-you-go Reconciliation in Schema Matching Networks", ICDE 2014).
//!
//! Two constraints from the paper are implemented:
//!
//! * **One-to-one**: each attribute of one schema is matched to at most one
//!   attribute of any other schema. Violations are *pairs* of candidates
//!   sharing an endpoint whose other endpoints lie in the same schema.
//! * **Cycle**: if schemas are matched along a cycle, the matched attributes
//!   must form a closed cycle. Following the companion work (ER'13, ref. 34)
//!   this is enforced along interaction-graph *triangles*: a violation is a
//!   *triple* of candidates, one per triangle edge, that forms an open
//!   3-path (it closes at exactly two of the three junctions). The
//!   [`closure`] module offers a strictly stronger union-find check
//!   (transitive closure must not put two attributes of one schema in the
//!   same component) that covers cycles of arbitrary length and is used for
//!   cross-validation.
//!
//! The central type is [`ConflictIndex`]: it pre-computes every potential
//! pair and triple violation of a candidate set once, then answers the
//! incremental questions the sampler, the repair routine and the
//! instantiation search ask (`can_add`, `violations_introduced`,
//! `conflicts_of_in`) in time proportional to the local conflict degree.
//! Matching instances themselves are plain [`BitSet`]s over candidate ids.
//!
//! Because constraints only couple candidates that share a conflict, the
//! conflict graph decomposes sparse networks into independent connected
//! components; [`Components`] extracts that partition and
//! [`ConflictIndex::shard_component`] splits the index along it — the
//! foundation of the component-sharded probabilistic model in `smn-core`.

pub mod bitset;
pub mod closure;
pub mod components;
pub mod index;
pub mod kernels;
pub mod placement;
pub mod violation;

pub use bitset::BitSet;
pub use closure::ClosureChecker;
pub use components::Components;
pub use index::{ConflictIndex, ConstraintConfig};
pub use placement::Placement;
pub use violation::{Violation, ViolationCounts, ViolationKind};

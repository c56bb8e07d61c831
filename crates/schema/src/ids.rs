//! Compact integer identifiers.
//!
//! Every entity of the network (schema, attribute, candidate correspondence)
//! is referred to by a dense integer id. Dense ids let the rest of the stack
//! use `Vec`-indexed side tables and bitsets instead of hash maps, which is
//! what keeps the Algorithm 3 sampler and the information-gain computation
//! cheap (cf. the conflict-index design in `smn-constraints`).

use serde::Serialize;
use std::fmt;

/// Identifier of a schema within one [`Catalog`](crate::Catalog).
///
/// Schemas are numbered densely from zero in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct SchemaId(pub u32);

/// Identifier of an attribute, unique across the *whole* catalog.
///
/// The paper requires `s_i ∩ s_j = ∅` for distinct schemas ("each schema is
/// built of unique attributes (by using unique identifiers)"); global dense
/// numbering realizes exactly that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct AttributeId(pub u32);

/// Identifier of a candidate correspondence inside one
/// [`CandidateSet`](crate::CandidateSet).
///
/// Dense numbering is what allows matching instances to be represented as
/// bitsets over candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct CandidateId(pub u32);

macro_rules! impl_id {
    ($ty:ident, $prefix:literal) => {
        impl $ty {
            /// Returns the id as a `usize` index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a `usize` index.
            ///
            /// # Panics
            /// Panics if `index` does not fit in `u32`.
            #[inline]
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id overflow"))
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$ty> for usize {
            #[inline]
            fn from(id: $ty) -> usize {
                id.index()
            }
        }
    };
}

impl_id!(SchemaId, "s");
impl_id!(AttributeId, "a");
impl_id!(CandidateId, "c");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let s = SchemaId::from_index(7);
        assert_eq!(s.index(), 7);
        assert_eq!(usize::from(s), 7);
        let a = AttributeId::from_index(123_456);
        assert_eq!(a.index(), 123_456);
        let c = CandidateId::from_index(0);
        assert_eq!(c.index(), 0);
    }

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(SchemaId(3).to_string(), "s3");
        assert_eq!(AttributeId(14).to_string(), "a14");
        assert_eq!(CandidateId(5).to_string(), "c5");
    }

    #[test]
    fn ordering_follows_numeric_value() {
        assert!(CandidateId(2) < CandidateId(10));
        assert!(AttributeId(0) < AttributeId(1));
    }

    #[test]
    #[should_panic(expected = "id overflow")]
    fn from_index_rejects_overflow() {
        let _ = SchemaId::from_index(usize::MAX);
    }
}

//! Schemas, attributes and the catalog that owns them.
//!
//! A [`Catalog`] is the set `S = {s_1, …, s_n}` of the paper: every schema is
//! a finite set of attributes, and attribute identifiers are unique across
//! the whole catalog (`s_i ∩ s_j = ∅`). The catalog is immutable once built;
//! construction goes through [`CatalogBuilder`], which validates name
//! uniqueness and assigns dense ids.

use crate::error::SchemaError;
use crate::ids::{AttributeId, SchemaId};
use serde::Serialize;
use std::collections::HashMap;

/// A single attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Attribute {
    /// Globally unique id of this attribute.
    pub id: AttributeId,
    /// The schema this attribute belongs to.
    pub schema: SchemaId,
    /// Attribute name as it would appear in the source (e.g. `releaseDate`).
    pub name: String,
}

/// A database schema: a named, finite set of attributes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Schema {
    /// Dense id of this schema within its catalog.
    pub id: SchemaId,
    /// Human-readable schema name (e.g. `BBC`).
    pub name: String,
    /// Ids of the attributes owned by this schema, in insertion order.
    pub attributes: Vec<AttributeId>,
}

impl Schema {
    /// Number of attributes in the schema.
    #[inline]
    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    /// Whether the schema has no attributes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }
}

/// An immutable set of schemas with globally unique attributes.
///
/// ```
/// use smn_schema::CatalogBuilder;
///
/// let mut b = CatalogBuilder::new();
/// let s = b.add_schema("EoverI").unwrap();
/// b.add_attribute(s, "productionDate").unwrap();
/// let catalog = b.build();
/// assert_eq!(catalog.schema_count(), 1);
/// assert_eq!(catalog.attribute_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Catalog {
    schemas: Vec<Schema>,
    attributes: Vec<Attribute>,
}

impl Catalog {
    /// Number of schemas in the catalog.
    #[inline]
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    /// Total number of attributes across all schemas (`|A_S|`).
    #[inline]
    pub fn attribute_count(&self) -> usize {
        self.attributes.len()
    }

    /// All schemas in id order.
    #[inline]
    pub fn schemas(&self) -> &[Schema] {
        &self.schemas
    }

    /// All attributes in id order.
    #[inline]
    pub fn attributes(&self) -> &[Attribute] {
        &self.attributes
    }

    /// Looks up a schema by id.
    ///
    /// # Panics
    /// Panics if the id is not from this catalog.
    #[inline]
    pub fn schema(&self, id: SchemaId) -> &Schema {
        &self.schemas[id.index()]
    }

    /// Looks up an attribute by id.
    ///
    /// # Panics
    /// Panics if the id is not from this catalog.
    #[inline]
    pub fn attribute(&self, id: AttributeId) -> &Attribute {
        &self.attributes[id.index()]
    }

    /// Schema that owns the given attribute.
    #[inline]
    pub fn schema_of(&self, id: AttributeId) -> SchemaId {
        self.attributes[id.index()].schema
    }

    /// Fallible lookup of a schema.
    pub fn try_schema(&self, id: SchemaId) -> Result<&Schema, SchemaError> {
        self.schemas.get(id.index()).ok_or(SchemaError::UnknownSchema(id))
    }

    /// Fallible lookup of an attribute.
    pub fn try_attribute(&self, id: AttributeId) -> Result<&Attribute, SchemaError> {
        self.attributes.get(id.index()).ok_or(SchemaError::UnknownAttribute(id))
    }

    /// Finds a schema by name (linear scan; intended for tests and examples).
    pub fn schema_by_name(&self, name: &str) -> Option<&Schema> {
        self.schemas.iter().find(|s| s.name == name)
    }

    /// Finds an attribute by `(schema, name)` (linear scan over the schema).
    pub fn attribute_by_name(&self, schema: SchemaId, name: &str) -> Option<&Attribute> {
        self.schemas
            .get(schema.index())?
            .attributes
            .iter()
            .map(|&a| self.attribute(a))
            .find(|a| a.name == name)
    }

    /// Smallest and largest schema sizes, as reported in Table II of the
    /// paper (`#Attributes (Min/Max)`). Returns `None` for an empty catalog.
    pub fn attribute_min_max(&self) -> Option<(usize, usize)> {
        let mut it = self.schemas.iter().map(Schema::len);
        let first = it.next()?;
        Some(it.fold((first, first), |(lo, hi), n| (lo.min(n), hi.max(n))))
    }
}

/// Incremental, validating builder for [`Catalog`].
#[derive(Debug, Default)]
pub struct CatalogBuilder {
    schemas: Vec<Schema>,
    attributes: Vec<Attribute>,
    schema_names: HashMap<String, SchemaId>,
    attribute_names: HashMap<(SchemaId, String), AttributeId>,
}

impl CatalogBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a new schema and returns its id.
    pub fn add_schema(&mut self, name: impl Into<String>) -> Result<SchemaId, SchemaError> {
        let name = name.into();
        if self.schema_names.contains_key(&name) {
            return Err(SchemaError::DuplicateSchema(name));
        }
        let id = SchemaId::from_index(self.schemas.len());
        self.schema_names.insert(name.clone(), id);
        self.schemas.push(Schema { id, name, attributes: Vec::new() });
        Ok(id)
    }

    /// Registers a new attribute under `schema` and returns its id.
    pub fn add_attribute(
        &mut self,
        schema: SchemaId,
        name: impl Into<String>,
    ) -> Result<AttributeId, SchemaError> {
        let name = name.into();
        let s = self.schemas.get_mut(schema.index()).ok_or(SchemaError::UnknownSchema(schema))?;
        let key = (schema, name.clone());
        if self.attribute_names.contains_key(&key) {
            return Err(SchemaError::DuplicateAttribute {
                schema: s.name.clone(),
                attribute: name,
            });
        }
        let id = AttributeId::from_index(self.attributes.len());
        self.attribute_names.insert(key, id);
        s.attributes.push(id);
        self.attributes.push(Attribute { id, schema, name });
        Ok(id)
    }

    /// Convenience: registers a schema together with all its attributes.
    pub fn add_schema_with_attributes<I, T>(
        &mut self,
        name: impl Into<String>,
        attrs: I,
    ) -> Result<SchemaId, SchemaError>
    where
        I: IntoIterator<Item = T>,
        T: Into<String>,
    {
        let id = self.add_schema(name)?;
        for a in attrs {
            self.add_attribute(id, a)?;
        }
        Ok(id)
    }

    /// Number of schemas added so far.
    pub fn schema_count(&self) -> usize {
        self.schemas.len()
    }

    /// Finalizes the catalog.
    pub fn build(self) -> Catalog {
        Catalog { schemas: self.schemas, attributes: self.attributes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_schema_catalog() -> Catalog {
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("EoverI", ["productionDate", "title"]).unwrap();
        b.add_schema_with_attributes("BBC", ["date", "name"]).unwrap();
        b.add_schema_with_attributes("DVDizzy", ["releaseDate", "screenDate"]).unwrap();
        b.build()
    }

    #[test]
    fn ids_are_dense_and_global() {
        let c = three_schema_catalog();
        assert_eq!(c.schema_count(), 3);
        assert_eq!(c.attribute_count(), 6);
        for (i, a) in c.attributes().iter().enumerate() {
            assert_eq!(a.id.index(), i);
        }
        // attributes of different schemas never share ids (paper: s_i ∩ s_j = ∅)
        let s0: Vec<_> = c.schema(SchemaId(0)).attributes.clone();
        let s1: Vec<_> = c.schema(SchemaId(1)).attributes.clone();
        assert!(s0.iter().all(|a| !s1.contains(a)));
    }

    #[test]
    fn schema_of_maps_back() {
        let c = three_schema_catalog();
        for s in c.schemas() {
            for &a in &s.attributes {
                assert_eq!(c.schema_of(a), s.id);
            }
        }
    }

    #[test]
    fn duplicate_schema_name_is_rejected() {
        let mut b = CatalogBuilder::new();
        b.add_schema("po").unwrap();
        assert_eq!(b.add_schema("po"), Err(SchemaError::DuplicateSchema("po".into())));
    }

    #[test]
    fn duplicate_attribute_name_is_rejected_within_schema_only() {
        let mut b = CatalogBuilder::new();
        let s0 = b.add_schema("a").unwrap();
        let s1 = b.add_schema("b").unwrap();
        b.add_attribute(s0, "date").unwrap();
        assert!(b.add_attribute(s0, "date").is_err());
        // the same name in another schema is fine
        assert!(b.add_attribute(s1, "date").is_ok());
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let mut b = CatalogBuilder::new();
        assert_eq!(b.add_attribute(SchemaId(4), "x"), Err(SchemaError::UnknownSchema(SchemaId(4))));
    }

    #[test]
    fn lookup_by_name() {
        let c = three_schema_catalog();
        let bbc = c.schema_by_name("BBC").unwrap();
        assert_eq!(bbc.name, "BBC");
        let date = c.attribute_by_name(bbc.id, "date").unwrap();
        assert_eq!(date.name, "date");
        assert!(c.attribute_by_name(bbc.id, "releaseDate").is_none());
        assert!(c.schema_by_name("nope").is_none());
    }

    #[test]
    fn min_max_statistics() {
        let c = three_schema_catalog();
        assert_eq!(c.attribute_min_max(), Some((2, 2)));
        let mut b = CatalogBuilder::new();
        b.add_schema_with_attributes("s", ["a"]).unwrap();
        b.add_schema_with_attributes("t", ["a", "b", "c"]).unwrap();
        assert_eq!(b.build().attribute_min_max(), Some((1, 3)));
        assert_eq!(CatalogBuilder::new().build().attribute_min_max(), None);
    }

    #[test]
    fn try_lookups_report_errors() {
        let c = three_schema_catalog();
        assert!(c.try_schema(SchemaId(0)).is_ok());
        assert!(c.try_schema(SchemaId(99)).is_err());
        assert!(c.try_attribute(AttributeId(0)).is_ok());
        assert!(c.try_attribute(AttributeId(99)).is_err());
    }
}

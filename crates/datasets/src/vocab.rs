//! Domain vocabularies.
//!
//! A [`Vocabulary`] is a pool of [`Concept`]s — the real-world notions
//! ("supplier street address", "applicant birth date") that attributes of
//! different schemas may denote. Two attributes correspond in the ground
//! truth iff they denote the same concept.
//!
//! Concepts are produced two ways:
//!
//! * a hand-curated list of standalone concepts per domain, and
//! * a combinatorial *entity × property* expansion (`supplier` × `address`,
//!   `order` × `date`, …), which yields the hundreds of concepts the larger
//!   datasets need (PO schemas reach 408 attributes) while staying
//!   realistic.
//!
//! The per-token synonym table drives the name-variant generator in
//! [`crate::variants`]; it is also what creates the *hard* confusions
//! (`releaseDate` vs `screenDate` style) that make reconciliation
//! non-trivial.

use serde::Serialize;

/// A real-world notion that schema attributes can denote.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Concept {
    /// Dense id within the vocabulary.
    pub id: u32,
    /// Canonical lowercase tokens, e.g. `["supplier", "address"]`.
    pub tokens: Vec<String>,
}

impl Concept {
    /// Canonical display name (tokens joined by space).
    pub fn canonical(&self) -> String {
        self.tokens.join(" ")
    }
}

/// A pool of concepts plus a synonym table for name rendering.
#[derive(Debug, Clone, Serialize)]
pub struct Vocabulary {
    /// Domain label (`business-partner`, `purchase-order`, …).
    pub domain: String,
    concepts: Vec<Concept>,
    /// `(token, synonyms)` pairs used by the variant generator.
    synonyms: Vec<(String, Vec<String>)>,
}

impl Vocabulary {
    /// Builds a vocabulary from entity/property/standalone word lists.
    pub fn compose(
        domain: &str,
        entities: &[&str],
        properties: &[&str],
        standalone: &[&str],
        synonyms: &[(&str, &[&str])],
    ) -> Self {
        let mut concepts = Vec::new();
        let mut push = |tokens: Vec<String>| {
            let id = u32::try_from(concepts.len()).expect("concept overflow");
            concepts.push(Concept { id, tokens });
        };
        for s in standalone {
            push(s.split_whitespace().map(str::to_string).collect());
        }
        for e in entities {
            for p in properties {
                let mut tokens: Vec<String> = e.split_whitespace().map(str::to_string).collect();
                tokens.extend(p.split_whitespace().map(str::to_string));
                push(tokens);
            }
        }
        let synonyms = synonyms
            .iter()
            .map(|(k, vs)| (k.to_string(), vs.iter().map(|v| v.to_string()).collect()))
            .collect();
        Self { domain: domain.to_string(), concepts, synonyms }
    }

    /// Number of concepts in the pool.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// All concepts, id-ordered. Lower ids are treated as more "popular" by
    /// the generator (they appear in more schemas).
    pub fn concepts(&self) -> &[Concept] {
        &self.concepts
    }

    /// Concept by id.
    pub fn concept(&self, id: u32) -> &Concept {
        &self.concepts[id as usize]
    }

    /// Synonyms of a token (empty if none).
    pub fn synonyms_of(&self, token: &str) -> &[String] {
        self.synonyms.iter().find(|(k, _)| k == token).map(|(_, v)| v.as_slice()).unwrap_or(&[])
    }

    /// The business-partner domain (BP dataset).
    pub fn business_partner() -> Self {
        Self::compose(
            "business-partner",
            &[
                "partner",
                "company",
                "contact",
                "billing",
                "shipping",
                "bank",
                "tax",
                "legal",
                "sales",
                "account",
                "branch",
                "headquarters",
                "representative",
            ],
            &[
                "id",
                "name",
                "code",
                "type",
                "status",
                "number",
                "address",
                "street",
                "city",
                "region",
                "postal code",
                "country",
                "phone",
                "fax",
                "email",
                "currency",
                "language",
                "category",
                "rating",
                "since date",
                "valid date",
            ],
            &[
                "vat number",
                "duns number",
                "industry sector",
                "employee count",
                "annual revenue",
                "credit limit",
                "payment terms",
                "discount rate",
                "website",
                "time zone",
                "incorporation date",
            ],
            COMMON_SYNONYMS,
        )
    }

    /// The purchase-order domain (PO dataset).
    pub fn purchase_order() -> Self {
        Self::compose(
            "purchase-order",
            &[
                "order",
                "item",
                "product",
                "supplier",
                "buyer",
                "invoice",
                "payment",
                "delivery",
                "shipment",
                "warehouse",
                "contract",
                "line",
                "customer",
                "vendor",
                "freight",
                "package",
                "return",
                "credit",
                "quote",
                "receipt",
            ],
            &[
                "id",
                "number",
                "name",
                "code",
                "date",
                "status",
                "type",
                "amount",
                "price",
                "quantity",
                "unit",
                "total",
                "tax",
                "discount",
                "currency",
                "description",
                "reference",
                "address",
                "city",
                "country",
                "weight",
                "comment",
                "due date",
                "category",
            ],
            &[
                "purchase order number",
                "requested delivery date",
                "incoterms",
                "settlement date",
                "gross amount",
                "net amount",
                "carrier name",
                "tracking number",
                "bill of lading",
                "customs declaration",
            ],
            COMMON_SYNONYMS,
        )
    }

    /// The university-application-form domain (UAF dataset).
    pub fn university_application() -> Self {
        Self::compose(
            "university-application",
            &[
                "applicant",
                "student",
                "parent",
                "guardian",
                "school",
                "college",
                "program",
                "course",
                "test",
                "essay",
                "recommendation",
                "transcript",
                "enrollment",
                "scholarship",
                "residence",
                "emergency contact",
            ],
            &[
                "id",
                "name",
                "first name",
                "last name",
                "middle name",
                "date",
                "birth date",
                "gender",
                "address",
                "city",
                "state",
                "zip",
                "country",
                "phone",
                "email",
                "status",
                "type",
                "score",
                "grade",
                "year",
                "term",
                "level",
                "title",
                "code",
            ],
            &[
                "gpa",
                "sat score",
                "act score",
                "toefl score",
                "citizenship",
                "visa status",
                "intended major",
                "application deadline",
                "high school name",
                "graduation year",
                "financial aid requested",
                "ethnicity",
                "veteran status",
            ],
            COMMON_SYNONYMS,
        )
    }

    /// The assorted web-forms domain (WebForm dataset).
    pub fn web_form() -> Self {
        Self::compose(
            "web-form",
            &[
                "user",
                "account",
                "contact",
                "billing",
                "shipping",
                "card",
                "search",
                "booking",
                "flight",
                "hotel",
                "car",
                "passenger",
                "guest",
                "member",
                "profile",
                "subscription",
                "feedback",
                "movie",
                "event",
            ],
            &[
                "id",
                "name",
                "first name",
                "last name",
                "email",
                "password",
                "phone",
                "address",
                "city",
                "state",
                "zip",
                "country",
                "date",
                "start date",
                "end date",
                "number",
                "type",
                "status",
                "count",
                "time",
                "price",
                "category",
                "rating",
                "comment",
            ],
            &[
                "promo code",
                "departure airport",
                "arrival airport",
                "check in date",
                "check out date",
                "room count",
                "adult count",
                "child count",
                "security code",
                "expiry date",
                "newsletter opt in",
                "screen name",
                "release date",
                "production date",
            ],
            COMMON_SYNONYMS,
        )
    }
}

/// Per-token synonyms shared by all domains. Rendering may substitute a
/// token by one of its synonyms, which is what defeats naive exact-name
/// matching and produces realistic matcher errors.
const COMMON_SYNONYMS: &[(&str, &[&str])] = &[
    ("id", &["identifier", "key"]),
    ("number", &["num", "no", "nr"]),
    ("name", &["title", "label"]),
    ("code", &["cd", "abbreviation"]),
    ("date", &["day", "dt"]),
    ("address", &["addr", "location"]),
    ("street", &["st", "road"]),
    ("city", &["town", "municipality"]),
    ("region", &["state", "province"]),
    ("postal", &["zip"]),
    ("phone", &["telephone", "tel"]),
    ("email", &["mail", "e mail"]),
    ("amount", &["sum", "value"]),
    ("price", &["cost", "rate"]),
    ("quantity", &["qty", "count"]),
    ("type", &["kind", "category"]),
    ("status", &["state flag", "condition"]),
    ("comment", &["note", "remark"]),
    ("description", &["desc", "details"]),
    ("supplier", &["vendor", "seller"]),
    ("buyer", &["purchaser", "client"]),
    ("customer", &["client", "consumer"]),
    ("order", &["purchase", "po"]),
    ("delivery", &["shipping", "dispatch"]),
    ("birth", &["born"]),
    ("first", &["given"]),
    ("last", &["family", "sur"]),
    ("total", &["overall", "grand"]),
    ("reference", &["ref"]),
    ("applicant", &["candidate"]),
    ("program", &["programme", "major"]),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn all_domains_build_and_are_large_enough() {
        // PO schemas reach 408 attributes, so its pool must exceed that.
        assert!(Vocabulary::purchase_order().len() >= 408 + 20);
        assert!(Vocabulary::business_partner().len() >= 106 + 20);
        assert!(Vocabulary::university_application().len() >= 228 + 20);
        assert!(Vocabulary::web_form().len() >= 120 + 20);
    }

    #[test]
    fn concept_ids_are_dense_and_canonical_names_unique() {
        for vocab in [
            Vocabulary::business_partner(),
            Vocabulary::purchase_order(),
            Vocabulary::university_application(),
            Vocabulary::web_form(),
        ] {
            let mut names = HashSet::new();
            for (i, c) in vocab.concepts().iter().enumerate() {
                assert_eq!(c.id as usize, i);
                assert!(!c.tokens.is_empty());
                assert!(
                    names.insert(c.canonical()),
                    "duplicate concept {:?} in {}",
                    c.canonical(),
                    vocab.domain
                );
            }
        }
    }

    #[test]
    fn synonyms_lookup() {
        let v = Vocabulary::purchase_order();
        assert!(v.synonyms_of("number").contains(&"num".to_string()));
        assert!(v.synonyms_of("nonexistent-token").is_empty());
    }

    #[test]
    fn tokens_are_lowercase_words() {
        for vocab in [Vocabulary::business_partner(), Vocabulary::web_form()] {
            for c in vocab.concepts() {
                for t in &c.tokens {
                    assert!(t.chars().all(|ch| ch.is_lowercase() || ch.is_numeric()), "{t:?}");
                }
            }
        }
    }

    #[test]
    fn concept_accessor_roundtrips() {
        let v = Vocabulary::business_partner();
        let c = v.concept(5);
        assert_eq!(c.id, 5);
        assert_eq!(v.concepts()[5], *c);
    }
}

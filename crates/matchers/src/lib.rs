//! # smn-matchers
//!
//! First-party schema matchers, built from scratch because the matchers used
//! in the paper's evaluation — COMA++ (ref. 13) and AMC (ref. 35) — are closed-source
//! Java systems with no Rust equivalent.
//!
//! The crate follows the classical matcher architecture those systems share:
//!
//! 1. **First-line matchers** ([`firstline`]) score attribute-name pairs with
//!    one string-similarity measure each ([`text`]: Levenshtein,
//!    Jaro–Winkler, q-grams, token overlap, TF-IDF cosine, Monge–Elkan,
//!    prefix/suffix).
//! 2. **Ensembles** ([`ensemble`]) aggregate several first-line score
//!    matrices (average, weighted, max, …) and apply a *selection* policy
//!    (threshold, top-k per attribute) to produce candidate correspondences
//!    with confidence values. Presets [`ensemble::coma_like`] and
//!    [`ensemble::amc_like`] mimic the two tools' output character (COMA:
//!    conservative composite average; AMC: aggressive max-combination —
//!    slightly noisier, matching the violation profile of Table III).
//! 3. **Synthetic matchers** ([`synthetic`]) generate candidates by
//!    perturbing a known ground truth at exact target precision/recall —
//!    used for controlled experiments.
//!
//! Matchers only see pairs of schemas (the paper: "schema matchers only take
//! two schemas as input"), so their network-level output routinely violates
//! the network constraints — which is precisely the uncertainty that
//! `smn-core` quantifies and reconciles.

pub mod ensemble;
pub mod eval;
pub mod firstline;
pub mod matcher;
pub mod synthetic;
pub mod text;

pub use ensemble::{Aggregation, EnsembleMatcher, Selection};
pub use eval::MatchQuality;
pub use matcher::{NameScorer, PairMatcher, ScoredPair};
pub use synthetic::PerturbationMatcher;

//! Property-based tests for the string measures and matchers.

use proptest::prelude::*;
use smn_matchers::text;

/// Arbitrary attribute-like names: alphanumeric with occasional separators.
fn name_strategy() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[A-Za-z0-9_ -]{0,24}").expect("valid regex")
}

/// A character-level similarity measure with its name.
type Measure = (&'static str, fn(&str, &str) -> f64);

proptest! {
    /// Every character-level measure is bounded, symmetric and reflexive.
    #[test]
    fn measures_are_bounded_symmetric_reflexive(a in name_strategy(), b in name_strategy()) {
        let measures: [Measure; 4] = [
            ("levenshtein", text::levenshtein_similarity),
            ("jaro-winkler", text::jaro_winkler),
            ("token-jaccard", text::token_jaccard),
            ("monge-elkan", text::monge_elkan),
        ];
        for (name, m) in measures {
            let ab = m(&a, &b);
            let ba = m(&b, &a);
            prop_assert!((0.0..=1.0).contains(&ab), "{name}({a:?},{b:?}) = {ab}");
            prop_assert!((ab - ba).abs() < 1e-9, "{name} asymmetric on ({a:?},{b:?})");
            let aa = m(&a, &a);
            prop_assert!((aa - 1.0).abs() < 1e-9, "{name} not reflexive on {a:?}");
        }
        for q in [2usize, 3] {
            let ab = text::qgram_jaccard(&a, &b, q);
            prop_assert!((0.0..=1.0).contains(&ab));
            prop_assert!((ab - text::qgram_jaccard(&b, &a, q)).abs() < 1e-9);
            prop_assert!((text::qgram_jaccard(&a, &a, q) - 1.0).abs() < 1e-9);
        }
    }

    /// Levenshtein distance is a metric: identity, symmetry, triangle
    /// inequality.
    #[test]
    fn levenshtein_is_a_metric(
        a in name_strategy(),
        b in name_strategy(),
        c in name_strategy(),
    ) {
        let d = text::levenshtein_distance;
        prop_assert_eq!(d(&a, &a), 0);
        prop_assert_eq!(d(&a, &b), d(&b, &a));
        prop_assert!(d(&a, &c) <= d(&a, &b) + d(&b, &c), "triangle violated");
        // distance bounded by the longer string
        prop_assert!(d(&a, &b) <= a.chars().count().max(b.chars().count()));
    }

    /// Tokenization is idempotent under re-joining: tokens of the joined
    /// lowercase form equal the original tokens.
    #[test]
    fn tokenize_is_stable(a in name_strategy()) {
        let once = text::tokenize(&a);
        let rejoined = once.join(" ");
        let twice = text::tokenize(&rejoined);
        prop_assert_eq!(once, twice);
    }

    /// Jaro–Winkler dominates Jaro and both stay in bounds.
    #[test]
    fn winkler_dominates_jaro(a in name_strategy(), b in name_strategy()) {
        let j = text::jaro(&a, &b);
        let jw = text::jaro_winkler(&a, &b);
        prop_assert!(jw >= j - 1e-12);
        prop_assert!(jw <= 1.0 + 1e-12);
    }

    /// IDF model: fitted weights are non-negative and cosine stays bounded
    /// on arbitrary inputs.
    #[test]
    fn idf_cosine_bounds(corpus in prop::collection::vec(name_strategy(), 1..12), a in name_strategy(), b in name_strategy()) {
        let model = text::IdfModel::fit(corpus.iter().map(String::as_str));
        let s = model.cosine(&a, &b);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&s), "cosine {s}");
        for t in text::tokenize(&a) {
            prop_assert!(model.idf(&t) >= 0.0);
        }
    }
}

mod perturbation {
    use proptest::prelude::*;
    use smn_matchers::matcher::match_network;
    use smn_matchers::{MatchQuality, PerturbationMatcher};
    use smn_schema::{AttributeId, CatalogBuilder, Correspondence, InteractionGraph};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The perturbation matcher's output quality tracks its targets on
        /// reasonably sized networks.
        #[test]
        fn targets_are_tracked(
            seed in 0u64..1000,
            precision in 0.4f64..0.95,
            recall in 0.5f64..0.95,
        ) {
            let m = 40usize;
            let mut b = CatalogBuilder::new();
            b.add_schema_with_attributes("A", (0..m).map(|i| format!("x{i}"))).unwrap();
            b.add_schema_with_attributes("B", (0..m).map(|i| format!("y{i}"))).unwrap();
            let cat = b.build();
            let truth: Vec<Correspondence> = (0..m)
                .map(|i| Correspondence::new(AttributeId::from_index(i), AttributeId::from_index(m + i)))
                .collect();
            let matcher = PerturbationMatcher::new(truth.iter().copied(), precision, recall, seed);
            let set = match_network(&matcher, &cat, &InteractionGraph::complete(2)).unwrap();
            let q = MatchQuality::of(&set, truth.iter().copied());
            prop_assert!((q.recall - recall).abs() < 0.2, "recall {} target {recall}", q.recall);
            if q.recall > 0.0 {
                prop_assert!((q.precision - precision).abs() < 0.2, "precision {} target {precision}", q.precision);
            }
            // every emitted confidence is a valid probability
            for c in set.candidates() {
                prop_assert!((0.0..=1.0).contains(&c.confidence));
            }
        }
    }
}

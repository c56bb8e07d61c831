//! Name-variant rendering.
//!
//! Every schema renders its concepts through one [`NamingStyle`]: a case
//! convention plus per-token probabilities for abbreviation and synonym
//! substitution. Styles are coherent *within* a schema (as in real
//! databases) and differ *across* schemas, which is exactly what makes two
//! schemas name the same concept differently — the raw material of schema
//! matching.

use crate::vocab::Vocabulary;
use rand::seq::IndexedRandom;
use rand::Rng;
use serde::Serialize;

/// Case convention of a schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CaseStyle {
    /// `supplierAddress`
    Camel,
    /// `SupplierAddress`
    Pascal,
    /// `supplier_address`
    Snake,
    /// `supplier-address`
    Kebab,
    /// `supplieraddress`
    Flat,
    /// `SUPPLIER_ADDRESS`
    ScreamingSnake,
}

impl CaseStyle {
    /// All styles, for sampling.
    pub const ALL: [CaseStyle; 6] = [
        CaseStyle::Camel,
        CaseStyle::Pascal,
        CaseStyle::Snake,
        CaseStyle::Kebab,
        CaseStyle::Flat,
        CaseStyle::ScreamingSnake,
    ];

    /// Joins lowercase tokens according to the style.
    pub fn join(self, tokens: &[String]) -> String {
        let cap = |t: &str| {
            let mut cs = t.chars();
            match cs.next() {
                Some(f) => f.to_uppercase().collect::<String>() + cs.as_str(),
                None => String::new(),
            }
        };
        match self {
            CaseStyle::Camel => tokens
                .iter()
                .enumerate()
                .map(|(i, t)| if i == 0 { t.clone() } else { cap(t) })
                .collect(),
            CaseStyle::Pascal => tokens.iter().map(|t| cap(t)).collect(),
            CaseStyle::Snake => tokens.join("_"),
            CaseStyle::Kebab => tokens.join("-"),
            CaseStyle::Flat => tokens.concat(),
            CaseStyle::ScreamingSnake => tokens.join("_").to_uppercase(),
        }
    }
}

/// A schema's naming style.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct NamingStyle {
    /// Case convention.
    pub case: CaseStyle,
    /// Per-token probability of abbreviating (truncation or vowel drop).
    pub abbreviation: f64,
    /// Per-token probability of substituting a synonym.
    pub synonym: f64,
}

impl NamingStyle {
    /// Samples a random style. Abbreviation and synonym rates are kept
    /// moderate so that matchers err but are not hopeless — mirroring the
    /// candidate quality the paper reports (precision ≈ 0.67 on BP).
    pub fn sample(rng: &mut impl Rng) -> Self {
        Self {
            case: *CaseStyle::ALL.choose(rng).expect("non-empty"),
            abbreviation: rng.random_range(0.03..0.18),
            synonym: rng.random_range(0.05..0.25),
        }
    }

    /// Renders a concept's tokens into an attribute name.
    pub fn render(&self, vocab: &Vocabulary, tokens: &[String], rng: &mut impl Rng) -> String {
        let mut out: Vec<String> = Vec::with_capacity(tokens.len());
        for t in tokens {
            let mut token = t.clone();
            // synonym substitution first (synonyms may be multi-word)
            if rng.random_bool(self.synonym) {
                if let Some(syn) = vocab.synonyms_of(&token).choose(rng) {
                    for part in syn.split_whitespace() {
                        out.push(part.to_string());
                    }
                    continue;
                }
            }
            if token.len() > 4 && rng.random_bool(self.abbreviation) {
                token = abbreviate(&token, rng);
            }
            out.push(token);
        }
        self.case.join(&out)
    }
}

/// Abbreviates a token: either truncation (`quantity` → `quan`) or vowel
/// dropping after the first letter (`supplier` → `spplr`).
fn abbreviate(token: &str, rng: &mut impl Rng) -> String {
    if rng.random_bool(0.6) {
        let keep = rng.random_range(3..=4.min(token.len()));
        token.chars().take(keep).collect()
    } else {
        let mut out = String::new();
        for (i, ch) in token.chars().enumerate() {
            if i == 0 || !matches!(ch, 'a' | 'e' | 'i' | 'o' | 'u') {
                out.push(ch);
            }
        }
        if out.len() < 2 {
            token.to_string()
        } else {
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toks(ts: &[&str]) -> Vec<String> {
        ts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn case_styles_join_correctly() {
        let t = toks(&["supplier", "address"]);
        assert_eq!(CaseStyle::Camel.join(&t), "supplierAddress");
        assert_eq!(CaseStyle::Pascal.join(&t), "SupplierAddress");
        assert_eq!(CaseStyle::Snake.join(&t), "supplier_address");
        assert_eq!(CaseStyle::Kebab.join(&t), "supplier-address");
        assert_eq!(CaseStyle::Flat.join(&t), "supplieraddress");
        assert_eq!(CaseStyle::ScreamingSnake.join(&t), "SUPPLIER_ADDRESS");
    }

    #[test]
    fn single_token_cases() {
        let t = toks(&["date"]);
        assert_eq!(CaseStyle::Camel.join(&t), "date");
        assert_eq!(CaseStyle::Pascal.join(&t), "Date");
    }

    #[test]
    fn abbreviation_shortens_or_keeps() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let a = abbreviate("quantity", &mut rng);
            assert!(a.len() <= "quantity".len());
            assert!(a.len() >= 2);
            assert!(a.starts_with('q'));
        }
    }

    #[test]
    fn zero_rates_render_canonically() {
        let vocab = Vocabulary::business_partner();
        let style = NamingStyle { case: CaseStyle::Snake, abbreviation: 0.0, synonym: 0.0 };
        let mut rng = StdRng::seed_from_u64(2);
        let name = style.render(&vocab, &toks(&["postal", "code"]), &mut rng);
        assert_eq!(name, "postal_code");
    }

    #[test]
    fn high_synonym_rate_substitutes() {
        let vocab = Vocabulary::business_partner();
        let style = NamingStyle { case: CaseStyle::Snake, abbreviation: 0.0, synonym: 1.0 };
        let mut rng = StdRng::seed_from_u64(3);
        // "number" always has synonyms, so rendering must differ from canonical
        let name = style.render(&vocab, &toks(&["number"]), &mut rng);
        assert_ne!(name, "number");
        assert!(["num", "no", "nr"].contains(&name.as_str()), "{name}");
    }

    #[test]
    fn sample_is_deterministic_per_seed() {
        let a = NamingStyle::sample(&mut StdRng::seed_from_u64(7));
        let b = NamingStyle::sample(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn rendered_names_are_nonempty() {
        let vocab = Vocabulary::web_form();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            let style = NamingStyle::sample(&mut rng);
            for c in vocab.concepts().iter().take(30) {
                let name = style.render(&vocab, &c.tokens, &mut rng);
                assert!(!name.is_empty());
            }
        }
    }
}

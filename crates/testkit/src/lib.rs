//! # smn-testkit
//!
//! Shared test fixtures for the whole workspace — the reference networks,
//! scripted oracles/strategies and fast sampler configurations that the
//! integration suites (`tests/`), the crate-level unit tests and the
//! property harnesses all build on. Before this crate existed the Fig. 1
//! network and the perturbed-identity generators were copy-pasted into
//! `tests/end_to_end.rs`, `tests/paper_scenarios.rs`, `tests/robustness.rs`
//! *and* `smn-core`'s internal test module; new suites (the
//! evolving-network differential harness in particular) would have been a
//! fifth copy.
//!
//! The definitions live in [`mod@fixtures`], which `smn-core` includes
//! textually (`#[path]`) as its unit-test `testutil` module — unit tests
//! compile the crate separately, so linking this library from there would
//! produce mismatched types; sharing the *source* shares the fixtures
//! without that trap.
//!
//! Everything here is deterministic given its seed arguments. The crate is
//! a dev-dependency only — it never ships in the library graph.

pub mod faults;
pub mod fixtures;

pub use fixtures::*;

#[cfg(test)]
mod tests {
    use super::*;
    use smn_core::oracle::Oracle;
    use smn_core::selection::SelectionStrategy;
    use smn_core::ProbabilisticNetwork;
    use smn_schema::{AttributeId, CandidateId, Correspondence};

    #[test]
    fn fig1_network_matches_its_documentation() {
        let net = fig1_network();
        assert_eq!(net.candidate_count(), 5);
        let v = net.initial_violations();
        assert_eq!((v.one_to_one, v.cycle), (2, 2));
    }

    #[test]
    fn generators_are_deterministic() {
        let (a, ta) = perturbed_network(3, 6, 0.7, 0.9, 5);
        let (b, tb) = perturbed_network(3, 6, 0.7, 0.9, 5);
        assert_eq!(a.candidate_count(), b.candidate_count());
        assert_eq!(ta, tb);
        let (c, _) = identity_network(3, 6, 0.7, 5);
        assert_eq!(a.candidate_count(), c.candidate_count());
        assert_eq!(business_dataset(3).catalog, business_dataset(3).catalog);
    }

    #[test]
    fn scripted_oracle_cycles_and_selection_terminates() {
        let mut oracle = ScriptedOracle::new([true, false]);
        let corr = Correspondence::new(AttributeId(0), AttributeId(1));
        assert!(oracle.assert(corr));
        assert!(!oracle.assert(corr));
        assert!(oracle.assert(corr), "script cycles");
        let pn = ProbabilisticNetwork::new(fig1_network(), tiny_sampler(1));
        let mut sel = ScriptedSelection::new([CandidateId(2)]);
        assert_eq!(sel.select(&pn), Some((CandidateId(2), None)));
        assert_eq!(sel.select(&pn), None);
    }
}

//! # smn-bench
//!
//! Experiment harness for the ICDE 2014 evaluation (§VI). Each binary in
//! `src/bin/` regenerates one table or figure of the paper:
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `exp_table2` | Table II — dataset statistics |
//! | `exp_table3` | Table III — constraint violations per matcher |
//! | `exp_fig6` | Fig. 6 — sampling time vs network size |
//! | `exp_fig7` | Fig. 7 — sampling effectiveness (K-L ratio) |
//! | `exp_fig8` | Fig. 8 — probability vs correctness histogram |
//! | `exp_fig9` | Fig. 9 — uncertainty reduction vs user effort |
//! | `exp_fig10` | Fig. 10 — ordering strategies vs instantiation quality |
//! | `exp_fig11` | Fig. 11 — likelihood criterion in instantiation |
//! | `exp_noisy` | §VI extension — reconciliation under erroneous assertions |
//! | `exp_service` | concurrent multi-worker reconciliation: worker × error × redundancy grid |
//!
//! Binaries print the paper's rows/series to stdout and write
//! machine-readable JSON to `results/`. The repetition binaries map their
//! seeds over the worker pool of `smn_core::pool`, so `SMN_POOL_THREADS`
//! sizes every thread they use. Criterion micro-benchmarks (incl. the
//! ablations listed in DESIGN.md) live under `benches/`, one group per
//! hot path; the `evolve`, `hotpaths` and `sharding` modules hold the
//! points they share, and `service` the configuration of `exp_service`.
//! End-to-end speed is measured by the repository benchmark in
//! `perfbench/`.

pub mod evolve;
pub mod grid;
pub mod hotpaths;
pub mod report;
pub mod service;
pub mod setup;
pub mod sharding;

pub use grid::EffortGrid;
pub use report::{save_json, Table};
pub use setup::{bp_coma, bp_sampled, matched_network, standard_sampler, MatcherKind};

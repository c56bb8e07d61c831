//! # smn-service
//!
//! A concurrent multi-worker reconciliation service over copy-on-write
//! network snapshots — the multi-user extension the paper's conclusion
//! points to ("our framework is extensible as the underlying probabilistic
//! model is independent of the number of users", §VII/§VIII), built on the
//! fork/commit ownership model of `smn-core`:
//!
//! * a [`WorkerPool`] of simulated crowd workers with
//!   per-worker error rates (the quality-aware-matching regime of
//!   PoWareMatch, Shraga & Gal 2021), whose noisy answers are a pure
//!   function of `(seed, worker, correspondence)` — consistent like a
//!   memoized oracle, yet independent of query order and scheduling;
//! * a shard-aware [`Dispatcher`] that leases
//!   distinct candidates to distinct workers per round, spreading
//!   concurrent questions across conflict components and replicating the
//!   information-gain strategy's selection (draw for draw) so a
//!   single-worker schedule replays a sequential [`smn_core::Session`]
//!   exactly;
//! * a redundancy-`k` [`aggregator`](mod@aggregate) — majority or
//!   quality-weighted (log-odds) voting — that commits one aggregated
//!   assertion per leased candidate back to the base snapshot;
//! * the [`ReconciliationService`] driving
//!   worker evaluations through one batched what-if per round
//!   ([`smn_core::ProbabilisticNetwork::what_if_batch`]), which fans out
//!   on the one run queue of the persistent worker pool of
//!   [`smn_core::pool`]: each distinct verdict of a lease is priced once
//!   by its exact what-if entropy on one copy-on-write shard fork (at
//!   most two branch queries per lease however large the crowd), a
//!   lease's ballot carries the lowest of its branch entropies, and
//!   results are committed in lease order under a seeded virtual
//!   schedule — so a run is **byte-reproducible at any thread count and
//!   under [`smn_core::pool::sequential`]**, and precision/recall against the
//!   verified matching is tracked per round (in the spirit of Validation
//!   of Matching, Le et al. 2014);
//! * a **request-driven serving layer** ([`ServingCore`]) inverting the
//!   round loop: typed [`ServiceEvent`]s flow through a bounded
//!   [`IngressQueue`] with typed backpressure and gapless logical-clock
//!   stamping; a [`SessionManager`] multiplexes thousands of concurrent
//!   sessions over the published snapshot, each with a sparse echo of
//!   its own answers (only the components it answered into);
//!   decided assertions commit in `(shard, clock)` order through
//!   per-shard commit lanes on the worker pool, with
//!   WAL-append-at-commit per lane
//!   ([`attach_durability`](ServingCore::attach_durability) — after a
//!   crash, [`smn_storage::DurableStore::recover`] reproduces the base
//!   network bit for bit); evolution takes a brief exclusive epoch and
//!   snapshots publish by `Arc` swap. The accepted event log replays
//!   byte for byte ([`ServingCore::replay`]) — see `docs/SERVING.md`.

pub mod aggregate;
pub mod dispatch;
pub mod event;
pub mod model;
pub mod serve;
pub mod service;
pub mod session;
pub mod worker;

pub use aggregate::{aggregate, Aggregation, Verdict, Vote};
pub use dispatch::{Dispatcher, Lease};
pub use event::{IngressError, IngressQueue, ServiceEvent, StampedEvent};
pub use model::ServeModel;
pub use serve::{
    LatencySummary, ReplayError, ServeCommit, ServeConfig, ServeConfigError, ServeReport,
    ServingCore,
};
pub use service::{
    CommitRecord, ReconciliationService, RoundStats, Scheduler, ServiceConfig, ServiceReport,
};
pub use session::SessionManager;
pub use worker::{WorkerPool, WorkerProfile, WorkerStats};

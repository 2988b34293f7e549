//! # crowddb-core
//!
//! The CrowdDB system facade: everything from Figure 1 of the demo paper
//! wired together.
//!
//! [`CrowdDB`] owns the storage engine, the UI Template Manager, the
//! Worker Relationship Manager, and the session comparison caches. Its
//! [`CrowdDB::execute`] entry point runs the full pipeline:
//!
//! ```text
//! CrowdSQL ──parse──► AST ──bind──► logical plan ──optimize──► plan
//!    (crowddb-sql)      (crowddb-plan)        │
//!                                             ▼  boundedness check
//!                  ┌───────────── execution round ─────────────┐
//!                  │ rows + task needs   (crowddb-exec)        │
//!                  │      │ needs empty? ──► final result      │
//!                  │      ▼                                    │
//!                  │ Task Manager: post HITs ► platform ►      │
//!                  │ majority vote ► write-back / caches ──────┘
//!                  └──────────────── (crowddb-platform) ───────┘
//! ```
//!
//! The loop is the paper's Task Manager: "It instantiates the user
//! interfaces, makes the API calls to post tasks, assess their status,
//! and obtain results. The Task Manager also interacts with the storage
//! engine to [...] memorize the results sourced from the crowd." (§3)

#![forbid(unsafe_code)]

pub mod config;
pub mod crowddb;
pub mod governor;
pub mod par;
pub mod result;
pub mod subscribe;
pub mod taskman;

pub use config::{
    ConcurrencyPolicy, CrowdConfig, DurabilityPolicy, QualityPolicy, RetryPolicy,
    SubscriptionPolicy,
};
pub use crowddb::{CrowdDB, Prepared};
pub use crowddb_obs::{Event, EventRecord, MetricsSnapshot, Obs};
pub use crowddb_wal::FsyncPolicy;
pub use governor::{AdmissionController, CancelToken, GovernorPolicy, StatementGuard};
pub use result::{CrowdSummary, QueryResult};
pub use subscribe::{canonical_rows, DeltaBatch, SubscriberState, SubscriptionHandle};

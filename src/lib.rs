//! # CrowdDB
//!
//! A crowd-enabled SQL database engine — a from-scratch Rust reproduction
//! of **"CrowdDB: Query Processing with the VLDB Crowd"** (VLDB 2011
//! demo) and its companion system paper (SIGMOD 2011).
//!
//! CrowdDB answers queries that a conventional DBMS cannot: queries over
//! **missing data** (crowdsourced on demand via `CROWD` columns, `CROWD`
//! tables, and the `CNULL` marker) and queries needing **subjective
//! judgment** (`CROWDEQUAL` entity resolution, `CROWDORDER` ranking).
//!
//! ```
//! use crowddb::{CrowdDB, MockPlatform, Answer, TaskKind};
//!
//! let db = CrowdDB::new();
//! // A deterministic "crowd" for the doctest; use SimPlatform for the
//! // full marketplace simulation, or implement `Platform` for a real one.
//! let mut crowd = MockPlatform::unanimous(|kind| match kind {
//!     TaskKind::Probe { asked, .. } => Answer::Form(
//!         asked.iter().map(|(c, _)| (c.clone(), "An abstract".into())).collect(),
//!     ),
//!     _ => Answer::Yes,
//! });
//!
//! db.execute(
//!     "CREATE TABLE paper (title STRING PRIMARY KEY, abstract CROWD STRING)",
//!     &mut crowd,
//! ).unwrap();
//! db.execute("INSERT INTO paper VALUES ('CrowdDB', CNULL)", &mut crowd).unwrap();
//!
//! // The paper's motivating query: a normal DBMS returns nothing useful;
//! // CrowdDB asks people and memorizes the answer.
//! let r = db.execute(
//!     "SELECT abstract FROM paper WHERE title = 'CrowdDB'",
//!     &mut crowd,
//! ).unwrap();
//! assert_eq!(r.rows[0][0].to_string(), "An abstract");
//! ```
//!
//! The workspace crates, re-exported here:
//!
//! * [`crowddb_common`] — values (incl. `CNULL`), schemas, errors;
//! * [`crowddb_sql`] — CrowdSQL lexer/parser/AST;
//! * [`crowddb_storage`] — catalog, heap tables, indexes, snapshots;
//! * [`crowddb_plan`] — binder, rule-based optimizer, boundedness;
//! * [`crowddb_exec`] — executor and crowd operators;
//! * [`crowddb_platform`] — task model, AMT/mobile simulators, WRM;
//! * [`crowddb_ui`] — schema-driven task UI generation;
//! * [`crowddb_quality`] — majority voting, entity resolution, ranking;
//! * [`crowddb_wal`] — write-ahead log, snapshots, crash recovery;
//! * [`crowddb_core`] — the [`CrowdDB`] facade and Task Manager loop.
//!
//! ## Durability
//!
//! Crowd answers cost real money, so a session can be made durable:
//! [`CrowdDB::open`] roots the database in a directory, logs every
//! committed statement and crowd answer to a write-ahead log, and
//! recovers the exact pre-crash state on reopen — answers the crowd
//! already provided are never bought twice. See the `persistence`
//! example and the "Durability & recovery" section of `DESIGN.md`.

#![forbid(unsafe_code)]

pub use crowddb_common::{CrowdError, DataType, Result, Row, Value};
pub use crowddb_core::{
    CancelToken, CrowdConfig, CrowdDB, CrowdSummary, DurabilityPolicy, FsyncPolicy, GovernorPolicy,
    QualityPolicy, QueryResult, RetryPolicy,
};
pub use crowddb_platform::{
    Answer, FaultConfig, FaultStats, FaultyPlatform, MockPlatform, Platform, SimConfig,
    SimPlatform, TaskKind, TaskSpec,
};
pub use crowddb_quality::VoteConfig;

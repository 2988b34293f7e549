//! # crowddb-exec
//!
//! The CrowdDB execution engine: a push-based, pipelined executor for
//! optimized logical plans, plus the three crowd operators from paper
//! §3.2.1:
//!
//! * **CrowdProbe** — lives inside table scans: rows whose *needed*
//!   CROWD columns hold `CNULL` generate probe task needs, and bounded
//!   CROWD-table scans short of their quota generate new-tuple needs;
//! * **CrowdJoin** — an index nested-loop join whose inner side is a
//!   CROWD table: outer rows without a match generate new-tuple needs
//!   with the join key preset;
//! * **CrowdCompare** — embedded in predicate evaluation (`CROWDEQUAL`)
//!   and sorting (`CROWDORDER`), one primitive for both
//!   ([`ExecCtx::crowd_compare`]): comparisons missing from the session's
//!   answer caches generate compare task needs.
//!
//! Execution is **round-based**: a run never blocks on humans. It
//! produces the rows derivable from current knowledge plus the list of
//! [`TaskNeed`]s that would refine the answer. The driver (in
//! `crowddb-core`) posts those needs to a platform, ingests answers
//! (write-back + caches), and re-runs; when a run reports no needs the
//! result is final. This mirrors the paper's Task Manager loop and makes
//! every code path testable with a deterministic platform.

//!
//! Execution itself is organized around the physical plan: the driver
//! ([`executor`]) lowers the optimized logical plan via
//! [`crowddb_plan::physical::lower`] and runs the resulting tree through
//! the per-operator modules in [`ops`], which record an [`OpStatsNode`]
//! tree of per-operator statistics alongside the rows.

#![forbid(unsafe_code)]

pub mod context;
pub mod dml;
pub mod eval;
pub mod executor;
pub mod need;
pub mod ops;

pub use context::{CompareCaches, ExecCtx, ExecGuard, OpStats, RunContext, RunStats};
pub use executor::{
    execute, execute_physical, execute_physical_analyzed, execute_physical_guarded, live_row_stats,
    lower_plan, primary_key, ExecResult, Maintained,
};
pub use need::TaskNeed;
pub use ops::{
    flush_op_stats, maintenance, render_analyzed, Delta, Flow, Maintenance, OpStatsNode, Operator,
    Sink, TableChange,
};

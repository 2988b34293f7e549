//! # crowddb-plan
//!
//! Logical planning and the rule-based optimizer.
//!
//! "The current CrowdDB compiler is based on a simple rule-based
//! optimizer. The optimizer implements several essential query rewriting
//! rules such as predicate push-down, stopafter push-down, join-ordering
//! and determining if the plan is bounded. The last optimization deals
//! with the open-world assumption by ensuring that the amount of data
//! requested from the crowd is bounded. Thus, the heuristic first
//! annotates the query plan with the cardinality predictions between the
//! operators. Afterwards, the heuristic tries to re-order the operators to
//! minimize the requests against the crowd and warns the user at
//! compile-time if the number of requests cannot be bounded." (paper
//! §3.2.2)
//!
//! The pipeline is exactly the paper's three stages:
//!
//! 1. **binding** ([`binder`]) — parse tree → [`LogicalPlan`] with all
//!    names resolved against the catalog;
//! 2. **rewriting** ([`optimizer`]) — constant folding, predicate
//!    push-down (with crowd predicates kept separate and evaluated last),
//!    stop-after push-down, greedy join ordering that pushes CROWD tables
//!    late;
//! 3. **annotation** ([`cardinality`], [`bounded`]) — per-node cardinality
//!    estimates and the boundedness verdict.
//!
//! Physical operator *selection* lives in [`physical`]: [`physical::lower`]
//! turns the optimized logical plan into a [`physical::PhysicalPlan`] tree
//! with explicit crowd operators. Execution of that tree lives in
//! `crowddb-exec`.

#![forbid(unsafe_code)]

pub mod binder;
pub mod bound_expr;
pub mod bounded;
pub mod cardinality;
pub mod logical;
pub mod optimizer;
pub mod physical;
pub mod schema;
pub mod standing;
pub mod value_ops;

pub use binder::Binder;
pub use bound_expr::{AggCall, AggFn, BExpr, ScalarFn};
pub use bounded::{analyze_boundedness, BoundednessReport};
pub use cardinality::annotate_cardinality;
pub use logical::{JoinType, LogicalPlan, SortKey};
pub use optimizer::{optimize, OptimizerConfig};
pub use physical::{lower, Access, IndexMeta, PhysAnnot, PhysicalPlan};
pub use schema::{PlanColumn, PlanSchema};
pub use standing::StandingPlan;

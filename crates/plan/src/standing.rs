//! Standing plans for continuous queries (`SUBSCRIBE SELECT ...`).
//!
//! A standing plan wraps an optimized logical plan with the metadata the
//! engine needs to keep it up to date: which base tables the query
//! *watches* (any write to one of them can change the result), and
//! whether the query is crowd-related (so settling crowd rounds must also
//! trigger re-evaluation). How a trigger is answered — by the operators'
//! delta rules over the rows a DML changed, or by evaluating afresh and
//! diffing — is decided once, over the lowered plan, next to those rules
//! (`crowddb-exec`'s `maintenance`); this section only prints it. The
//! engine lowers the logical plan whenever it evaluates afresh, so index
//! selection follows the catalog.
//!
//! The trigger model is deliberately coarse (table-level, not
//! predicate-level): CrowdDB's open-world tables gain tuples and fill
//! CNULLs in ways no static predicate analysis can bound, so the only
//! safe skip is "no watched table was touched".

use std::fmt::Display;

use crate::logical::LogicalPlan;

/// A lowered standing query: the optimized logical plan plus the
/// trigger metadata for incremental re-evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct StandingPlan {
    /// The optimized logical plan of the underlying `SELECT`.
    pub logical: LogicalPlan,
    /// Base tables whose writes can change the result (sorted, deduped,
    /// catalog names — not aliases), those only a subquery reads
    /// included.
    pub tables: Vec<String>,
    /// Whether crowd activity (settling rounds) can change the result,
    /// in addition to DML: [`LogicalPlan::is_crowd_related`]. The engine
    /// re-evaluates only such queries when a round settles, so this errs
    /// on the side of `true`.
    pub crowd_related: bool,
}

impl StandingPlan {
    /// Wrap an optimized logical plan as a standing plan.
    pub fn new(logical: LogicalPlan) -> StandingPlan {
        StandingPlan {
            tables: tables_of(&logical),
            crowd_related: logical.is_crowd_related(),
            logical,
        }
    }

    /// Whether a write to `table` can change this standing query's
    /// result (i.e. the subscription must re-evaluate).
    pub fn watches(&self, table: &str) -> bool {
        self.tables.iter().any(|t| t == table)
    }

    /// The `== Standing plan ==` EXPLAIN section: watched tables,
    /// triggers, the `maintenance` route the engine decided, and delivery
    /// semantics.
    pub fn explain(&self, maintenance: impl Display) -> String {
        let watches = if self.tables.is_empty() {
            "(none — constant query, initial snapshot only)".to_string()
        } else {
            self.tables.join(", ")
        };
        let triggers = if self.crowd_related {
            "crowd round settlement, DML commit"
        } else {
            "DML commit"
        };
        format!(
            "== Standing plan ==\nwatches: {watches}\ntriggers: {triggers}\n\
             maintenance: {maintenance}\n\
             delivery: delta batches (+row/-row), monotone revisions, bounded queue\n"
        )
    }
}

/// The base tables `plan` reads, subqueries included: catalog names,
/// sorted, deduped.
fn tables_of(plan: &LogicalPlan) -> Vec<String> {
    fn rec(plan: &LogicalPlan, tables: &mut Vec<String>) {
        plan.walk(&mut |n| {
            if let LogicalPlan::Scan { table, .. } = n {
                tables.push(table.clone());
            }
            for e in n.exprs() {
                e.walk(&mut |e| {
                    if let Some(sub) = e.subplan() {
                        rec(sub, tables);
                    }
                });
            }
        });
    }
    let mut tables = Vec::new();
    rec(plan, &mut tables);
    tables.sort();
    tables.dedup();
    tables
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound_expr::BExpr;
    use crate::schema::{PlanColumn, PlanSchema};
    use crowddb_common::DataType;

    fn scan(table: &str, crowd: bool) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: table.into(),
            schema: PlanSchema::new(vec![PlanColumn {
                qualifier: Some(table.into()),
                name: "a".into(),
                data_type: Some(DataType::Int),
                crowd: false,
                base: Some((table.into(), 0)),
            }]),
            crowd_table: crowd,
            needed_columns: vec![0],
            expected_tuples: None,
        }
    }

    #[test]
    fn collects_watched_tables_sorted_deduped() {
        let plan = LogicalPlan::Join {
            left: Box::new(scan("zeta", false)),
            right: Box::new(LogicalPlan::Join {
                left: Box::new(scan("alpha", false)),
                right: Box::new(scan("zeta", false)),
                kind: crate::logical::JoinType::Cross,
                on: None,
            }),
            kind: crate::logical::JoinType::Cross,
            on: None,
        };
        let sp = StandingPlan::new(plan);
        assert_eq!(sp.tables, vec!["alpha".to_string(), "zeta".to_string()]);
        assert!(sp.watches("alpha"));
        assert!(!sp.watches("beta"));
        assert!(!sp.crowd_related);
    }

    #[test]
    fn crowd_scan_marks_crowd_related() {
        let sp = StandingPlan::new(scan("paper", true));
        assert!(sp.crowd_related);
        let section = sp.explain("recompute (crowd-related)");
        assert!(section.contains("== Standing plan =="));
        assert!(section.contains("watches: paper"));
        assert!(section.contains("crowd round settlement"));
    }

    #[test]
    fn local_plan_triggers_on_dml_only() {
        let sp = StandingPlan::new(scan("sessions", false));
        let section = sp.explain("incremental");
        assert!(section.contains("triggers: DML commit\n"));
        assert!(section.contains("maintenance: incremental\n"));
    }

    #[test]
    fn a_subquery_is_watched_and_makes_the_plan_crowd_related_too() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("sessions", false)),
            predicate: BExpr::InPlan {
                expr: Box::new(BExpr::Column(0)),
                plan: Box::new(scan("paper", true)),
                negated: false,
            },
        };
        let sp = StandingPlan::new(plan);
        assert_eq!(sp.tables, vec!["paper".to_string(), "sessions".to_string()]);
        assert!(
            sp.crowd_related,
            "a round can change what the subquery holds"
        );
    }

    #[test]
    fn constant_query_watches_nothing() {
        let sp = StandingPlan::new(LogicalPlan::Values {
            rows: vec![],
            schema: PlanSchema::default(),
        });
        assert!(sp.tables.is_empty());
        assert!(sp.explain("incremental").contains("constant query"));
    }
}

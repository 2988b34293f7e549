//! Standing plans for continuous queries (`SUBSCRIBE SELECT ...`).
//!
//! A standing plan wraps an optimized logical plan with the metadata the
//! incremental evaluator needs: which base tables the query *watches*
//! (any write to one of them can change the result), whether the query
//! is crowd-related (so settling crowd rounds must also trigger
//! re-evaluation), and how a trigger is answered — by the operators'
//! delta rules over the rows a DML changed, or by evaluating afresh and
//! diffing ([`StandingPlan::maintenance`]). The engine lowers the logical
//! plan whenever it evaluates afresh, so index selection follows the
//! catalog.
//!
//! The trigger model is deliberately coarse (table-level, not
//! predicate-level): CrowdDB's open-world tables gain tuples and fill
//! CNULLs in ways no static predicate analysis can bound, so the only
//! safe skip is "no watched table was touched".

use crate::bound_expr::BExpr;
use crate::logical::{JoinType, LogicalPlan};

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

    /// How a DML trigger is answered, as `EXPLAIN SUBSCRIBE` words it:
    /// `incremental` when every operator has a delta rule
    /// (`crowddb-exec`'s `Operator::delta`; this walk states the same
    /// rules over the logical plan), else `recompute (<the first thing
    /// without one>)`. Two rules depend on which table a DML writes and
    /// say so instead.
    pub fn maintenance(&self) -> String {
        if self.crowd_related {
            return "recompute (crowd-related: a settled round can change any verdict)".into();
        }
        let mut reason = None;
        let mut conditions = Vec::new();
        self.logical.walk(&mut |n| {
            if reason.is_none() {
                reason = no_delta_rule(n, &mut conditions);
            }
        });
        match reason {
            Some(reason) => format!("recompute ({reason})"),
            None if conditions.is_empty() => "incremental".into(),
            None => format!("incremental, recompute on {}", conditions.join("; ")),
        }
    }

    /// The `== Standing plan ==` EXPLAIN section: watched tables,
    /// triggers, maintenance route, and delivery semantics.
    pub fn explain(&self) -> String {
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
             maintenance: {}\n\
             delivery: delta batches (+row/-row), monotone revisions, bounded queue\n",
            self.maintenance()
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

/// Why `node` has no delta rule, if it has none; a rule that holds only
/// for some DMLs adds when it does not to `conditions`.
fn no_delta_rule(node: &LogicalPlan, conditions: &mut Vec<String>) -> Option<String> {
    match node {
        // The identity, whatever its keys read.
        LogicalPlan::Sort { .. } => return None,
        LogicalPlan::Limit { .. } => return Some("StopAfter".into()),
        LogicalPlan::Distinct { .. } => return Some("Distinct".into()),
        LogicalPlan::Union { all: false, .. } => return Some("UNION without ALL".into()),
        LogicalPlan::Aggregate { input, aggs, .. } => {
            let schema = input.schema();
            if let Some(call) = aggs.iter().find(|a| !a.exact_running(&schema)) {
                return Some(format!("Aggregate {call}"));
            }
        }
        LogicalPlan::Join {
            left, right, kind, ..
        } => {
            let (left, right) = (tables_of(left), tables_of(right));
            if let Some(both) = left.iter().find(|t| right.contains(t)) {
                conditions.push(format!(
                    "a DML that changes both sides of the self-join on {both}"
                ));
            }
            if *kind == JoinType::Left && !right.is_empty() {
                conditions.push(format!(
                    "DML to {} (nullable side of a LEFT join)",
                    right.join(", ")
                ));
            }
        }
        _ => {}
    }
    node.exprs()
        .into_iter()
        .any(BExpr::has_subplan)
        .then(|| "subquery: it reads tables the change does not name".into())
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let section = sp.explain();
        assert!(section.contains("== Standing plan =="));
        assert!(section.contains("watches: paper"));
        assert!(section.contains("crowd round settlement"));
    }

    #[test]
    fn local_plan_triggers_on_dml_only() {
        let sp = StandingPlan::new(scan("sessions", false));
        let section = sp.explain();
        assert!(section.contains("triggers: DML commit\n"));
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
        assert!(sp.maintenance().starts_with("recompute (crowd-related"));
    }

    #[test]
    fn maintenance_names_what_has_no_delta_rule() {
        let join = |kind, right: &str| LogicalPlan::Join {
            left: Box::new(scan("sessions", false)),
            right: Box::new(scan(right, false)),
            kind,
            on: None,
        };
        let of = |plan: LogicalPlan| StandingPlan::new(plan).maintenance();
        assert_eq!(
            of(join(crate::logical::JoinType::Inner, "room")),
            "incremental"
        );
        assert_eq!(
            of(join(crate::logical::JoinType::Left, "room")),
            "incremental, recompute on DML to room (nullable side of a LEFT join)"
        );
        assert!(of(join(crate::logical::JoinType::Inner, "sessions")).contains("self-join"));
        // The first node without a rule, from the root down.
        let limited = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan("sessions", false)),
            }),
            limit: Some(3),
            offset: 0,
        };
        assert_eq!(of(limited), "recompute (StopAfter)");
        let sum_of = |data_type| LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "fee".into(),
                alias: "fee".into(),
                schema: PlanSchema::new(vec![PlanColumn::computed("amount", Some(data_type))]),
                crowd_table: false,
                needed_columns: vec![0],
                expected_tuples: None,
            }),
            group_by: vec![],
            aggs: vec![crate::bound_expr::AggCall {
                func: crate::bound_expr::AggFn::Sum,
                arg: Some(BExpr::Column(0)),
                distinct: false,
            }],
            schema: PlanSchema::default(),
        };
        assert_eq!(of(sum_of(DataType::Int)), "incremental");
        assert_eq!(of(sum_of(DataType::Float)), "recompute (Aggregate SUM(#0))");
    }

    #[test]
    fn constant_query_watches_nothing() {
        let sp = StandingPlan::new(LogicalPlan::Values {
            rows: vec![],
            schema: PlanSchema::default(),
        });
        assert!(sp.tables.is_empty());
        assert!(sp.explain().contains("constant query"));
    }
}

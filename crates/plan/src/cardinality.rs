//! Cardinality annotation.
//!
//! "The heuristic first annotates the query plan with the cardinality
//! predictions between the operators" (§3.2.2). Estimates come from table
//! statistics plus the classic textbook selectivity constants; they only
//! need to be good enough to order joins and to bound crowd requests.
//!
//! `node_rows` is the one formula: a node's estimate from its inputs'.
//! The annotation pass ([`crate::bounded`]) applies it bottom-up once per
//! plan for `lower`, EXPLAIN's `== Cardinality ==` section and the
//! boundedness report; [`estimate_rows`] applies it to a bare subtree,
//! which is what join ordering asks for.

use crowddb_sql::BinaryOp;

use crate::bound_expr::BExpr;
use crate::bounded::{annotate, Annotated};
use crate::logical::{JoinType, LogicalPlan};

/// Source of base-table row counts.
pub trait StatsSource {
    /// Live rows of `table`, if known.
    fn table_rows(&self, table: &str) -> Option<u64>;
}

/// Stats from a closure (used by tests and by `crowddb-core`, which wraps
/// the storage layer).
pub struct FnStats<F: Fn(&str) -> Option<u64>>(pub F);

impl<F: Fn(&str) -> Option<u64>> StatsSource for FnStats<F> {
    fn table_rows(&self, table: &str) -> Option<u64> {
        (self.0)(table)
    }
}

/// Default guess for a table with unknown statistics. CROWD tables with
/// no bound get this too — the boundedness analysis, not the estimator,
/// is responsible for flagging them.
pub const DEFAULT_TABLE_ROWS: f64 = 1000.0;

/// Selectivity of an equality predicate.
pub const EQ_SELECTIVITY: f64 = 0.1;
/// Selectivity of a range predicate.
pub const RANGE_SELECTIVITY: f64 = 0.3;
/// Selectivity of any other predicate.
pub const MISC_SELECTIVITY: f64 = 0.5;

/// Estimated selectivity of a bound predicate (product over conjuncts).
pub fn selectivity(pred: &BExpr) -> f64 {
    match pred {
        BExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => (selectivity(left) * selectivity(right)).max(1e-6),
        BExpr::Binary {
            op: BinaryOp::Or,
            left,
            right,
        } => {
            let l = selectivity(left);
            let r = selectivity(right);
            (l + r - l * r).min(1.0)
        }
        BExpr::Binary { op, .. } => match op {
            BinaryOp::Eq => EQ_SELECTIVITY,
            BinaryOp::NotEq => 1.0 - EQ_SELECTIVITY,
            BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => RANGE_SELECTIVITY,
            _ => MISC_SELECTIVITY,
        },
        BExpr::CrowdEqual { .. } => EQ_SELECTIVITY,
        BExpr::Is { .. } => 0.1,
        BExpr::Like { .. } => 0.25,
        BExpr::Between { .. } => RANGE_SELECTIVITY,
        BExpr::InList { list, .. } => (EQ_SELECTIVITY * list.len() as f64).min(1.0),
        BExpr::InPlan { .. } | BExpr::ExistsPlan { .. } => MISC_SELECTIVITY,
        BExpr::Unary { .. } => MISC_SELECTIVITY,
        _ => MISC_SELECTIVITY,
    }
}

/// Estimate the output rows of a plan node.
pub fn estimate_rows(plan: &LogicalPlan, stats: &dyn StatsSource) -> f64 {
    let inputs: Vec<f64> = plan
        .children()
        .into_iter()
        .map(|c| estimate_rows(c, stats))
        .collect();
    node_rows(plan, &inputs, stored_rows(plan, stats))
}

/// The stored rows of a scan's table, the one statistic a node's
/// estimate reads (`None` for any other node, or when unknown).
pub(crate) fn stored_rows(plan: &LogicalPlan, stats: &dyn StatsSource) -> Option<u64> {
    match plan {
        LogicalPlan::Scan { table, .. } => stats.table_rows(table),
        _ => None,
    }
}

/// One node's estimate from its inputs' (left before right) and, for a
/// scan, [`stored_rows`].
pub(crate) fn node_rows(plan: &LogicalPlan, inputs: &[f64], stored: Option<u64>) -> f64 {
    match plan {
        LogicalPlan::Scan {
            expected_tuples,
            crowd_table,
            ..
        } => match (stored.map(|r| r as f64), expected_tuples, crowd_table) {
            // A bounded crowd scan produces at most `expected` rows
            // (existing + crowdsourced up to the bound).
            (Some(s), Some(e), true) => s.max(*e as f64),
            (Some(s), _, _) => s,
            (None, Some(e), _) => *e as f64,
            (None, None, _) => DEFAULT_TABLE_ROWS,
        },
        LogicalPlan::Filter { predicate, .. } => inputs[0] * selectivity(predicate),
        LogicalPlan::Project { .. } | LogicalPlan::Sort { .. } => inputs[0],
        LogicalPlan::Join { kind, on, .. } => {
            let (l, r) = (inputs[0], inputs[1]);
            match (kind, on) {
                (JoinType::Cross, _) | (_, None) => l * r,
                (_, Some(p)) => {
                    let est = l * r * selectivity(p);
                    match kind {
                        // A left join yields at least one row per left row.
                        JoinType::Left => est.max(l),
                        _ => est,
                    }
                }
            }
        }
        LogicalPlan::Aggregate { group_by, .. } => {
            if group_by.is_empty() {
                1.0
            } else {
                // Classic sqrt heuristic for group count.
                inputs[0].sqrt().max(1.0).min(inputs[0])
            }
        }
        LogicalPlan::Limit { limit, offset, .. } => {
            let rows = (inputs[0] - *offset as f64).max(0.0);
            limit.map_or(rows, |l| (l as f64).min(rows))
        }
        LogicalPlan::Distinct { .. } => (inputs[0] * 0.8).max(1.0_f64.min(inputs[0])),
        LogicalPlan::Values { rows, .. } => rows.len() as f64,
        LogicalPlan::Union { all, .. } => {
            let sum = inputs[0] + inputs[1];
            if *all {
                sum
            } else {
                (sum * 0.9).max(1.0_f64.min(sum))
            }
        }
    }
}

/// Produce the annotated EXPLAIN text: each node line prefixed with the
/// estimate the annotation pass gave it.
pub fn annotate_cardinality(
    plan: &LogicalPlan,
    stats: &dyn StatsSource,
    pk_columns: &dyn Fn(&str) -> Vec<usize>,
) -> String {
    fn rec(node: &Annotated, depth: usize, out: &mut String) {
        out.push_str(&format!(
            "{}[~{:.0} rows] {}\n",
            "  ".repeat(depth),
            node.est_rows,
            node.plan.describe()
        ));
        for input in &node.inputs {
            rec(input, depth + 1, out);
        }
    }
    let mut out = String::new();
    rec(&annotate(plan, stats, pk_columns).0, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::scan_schema;
    use crowddb_common::{DataType, Value};

    fn scan(table: &str, expected: Option<u64>, crowd: bool) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: table.into(),
            schema: scan_schema(table, &[("a".into(), DataType::Int, false)], table),
            crowd_table: crowd,
            needed_columns: vec![0],
            expected_tuples: expected,
        }
    }

    fn stats() -> FnStats<impl Fn(&str) -> Option<u64>> {
        FnStats(|t: &str| match t {
            "big" => Some(10_000),
            "small" => Some(10),
            _ => None,
        })
    }

    fn eq_pred() -> BExpr {
        BExpr::Binary {
            left: Box::new(BExpr::Column(0)),
            op: BinaryOp::Eq,
            right: Box::new(BExpr::Literal(Value::Int(1))),
        }
    }

    #[test]
    fn scan_uses_stats() {
        assert_eq!(estimate_rows(&scan("big", None, false), &stats()), 10_000.0);
        assert_eq!(
            estimate_rows(&scan("unknown", None, false), &stats()),
            DEFAULT_TABLE_ROWS
        );
    }

    #[test]
    fn bounded_crowd_scan_uses_expected() {
        // empty crowd table, bounded to 10 tuples
        let s = scan("unknown", Some(10), true);
        assert_eq!(estimate_rows(&s, &FnStats(|_| Some(0))), 10.0);
    }

    #[test]
    fn filter_reduces() {
        let f = LogicalPlan::Filter {
            input: Box::new(scan("big", None, false)),
            predicate: eq_pred(),
        };
        assert_eq!(estimate_rows(&f, &stats()), 1000.0);
    }

    #[test]
    fn and_multiplies_or_adds() {
        let and = BExpr::Binary {
            left: Box::new(eq_pred()),
            op: BinaryOp::And,
            right: Box::new(eq_pred()),
        };
        assert!((selectivity(&and) - 0.01).abs() < 1e-9);
        let or = BExpr::Binary {
            left: Box::new(eq_pred()),
            op: BinaryOp::Or,
            right: Box::new(eq_pred()),
        };
        assert!((selectivity(&or) - 0.19).abs() < 1e-9);
    }

    #[test]
    fn join_estimates() {
        let j = LogicalPlan::Join {
            left: Box::new(scan("big", None, false)),
            right: Box::new(scan("small", None, false)),
            kind: JoinType::Inner,
            on: Some(eq_pred()),
        };
        assert_eq!(estimate_rows(&j, &stats()), 10_000.0 * 10.0 * 0.1);
        let cross = LogicalPlan::Join {
            left: Box::new(scan("big", None, false)),
            right: Box::new(scan("small", None, false)),
            kind: JoinType::Cross,
            on: None,
        };
        assert_eq!(estimate_rows(&cross, &stats()), 100_000.0);
    }

    #[test]
    fn limit_caps() {
        let l = LogicalPlan::Limit {
            input: Box::new(scan("big", None, false)),
            limit: Some(10),
            offset: 0,
        };
        assert_eq!(estimate_rows(&l, &stats()), 10.0);
        let l2 = LogicalPlan::Limit {
            input: Box::new(scan("small", None, false)),
            limit: Some(100),
            offset: 4,
        };
        assert_eq!(estimate_rows(&l2, &stats()), 6.0);
    }

    #[test]
    fn aggregate_single_group() {
        let a = LogicalPlan::Aggregate {
            input: Box::new(scan("big", None, false)),
            group_by: vec![],
            aggs: vec![],
            schema: Default::default(),
        };
        assert_eq!(estimate_rows(&a, &stats()), 1.0);
    }

    #[test]
    fn annotation_lists_every_node() {
        let f = LogicalPlan::Filter {
            input: Box::new(scan("big", None, false)),
            predicate: eq_pred(),
        };
        let text = annotate_cardinality(&f, &stats(), &|_| vec![]);
        assert!(text.contains("[~1000 rows] Filter"), "{text}");
        assert!(text.contains("[~10000 rows] Scan big"), "{text}");
    }
}

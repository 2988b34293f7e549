//! Boundedness analysis for the open-world assumption.
//!
//! "The last optimization deals with the open-world assumption by
//! ensuring that the amount of data requested from the crowd is bounded
//! [... the optimizer] warns the user at compile-time if the number of
//! requests cannot be bounded." (§3.2.2)
//!
//! A CROWD-table access is bounded when one of these holds:
//!
//! * the scan carries an `expected_tuples` bound (stop-after push-down
//!   reached it);
//! * the scan is filtered by an equality on its primary key (at most one
//!   tuple is requested);
//! * the scan is the **inner side of a join with a finite outer**: the
//!   crowd is asked for matching tuples per outer row (the CrowdJoin
//!   pattern), so requests ≤ |outer| × per-key quota.
//!
//! Everything else — a bare `SELECT * FROM crowd_table`, or sorting a
//! crowd table by a machine key under a LIMIT — is unbounded: no finite
//! number of crowd answers can provably complete it.

use crowddb_sql::BinaryOp;

use crate::bound_expr::BExpr;
use crate::cardinality::{estimate_rows, StatsSource};
use crate::logical::{JoinType, LogicalPlan};

/// Result of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundednessReport {
    /// Is every crowd access bounded?
    pub bounded: bool,
    /// Human-readable explanation per crowd access.
    pub notes: Vec<String>,
    /// Estimated upper bound on crowd task *batches* (probe groups / join
    /// lookups), when bounded. `None` when unbounded or crowd-free.
    pub estimated_crowd_calls: Option<u64>,
}

impl BoundednessReport {
    fn crowd_free() -> BoundednessReport {
        BoundednessReport {
            bounded: true,
            notes: vec![],
            estimated_crowd_calls: None,
        }
    }
}

/// Analyze a plan. `pk_columns` maps a table name to its primary-key
/// column ordinals (used to recognize key-equality filters).
pub fn analyze_boundedness(
    plan: &LogicalPlan,
    stats: &dyn StatsSource,
    pk_columns: &dyn Fn(&str) -> Vec<usize>,
) -> BoundednessReport {
    let mut report = BoundednessReport::crowd_free();
    let mut calls: f64 = 0.0;

    // Probe work (CNULL filling) is always bounded: it touches stored
    // tuples only. Count it for the estimate.
    for scan in plan.scans() {
        let LogicalPlan::Scan {
            table,
            schema,
            needed_columns,
            ..
        } = scan
        else {
            continue;
        };
        let crowd_needed = needed_columns
            .iter()
            .filter(|&&c| schema.columns.get(c).map(|x| x.crowd).unwrap_or(false))
            .count();
        if crowd_needed > 0 {
            let rows = stats.table_rows(table).unwrap_or(0) as f64;
            calls += rows; // at most one probe batch per stored tuple
            report.notes.push(format!(
                "probe of {crowd_needed} CROWD column(s) of '{table}' is bounded by its \
                 {rows} stored tuple(s)"
            ));
        }
    }

    // New-tuple work: every CROWD-table scan must justify a bound.
    analyze_node(plan, stats, pk_columns, None, &mut report, &mut calls);

    report.estimated_crowd_calls = if report.notes.is_empty() {
        None
    } else {
        Some(calls.min(u64::MAX as f64) as u64)
    };
    report
}

/// Recursive walk. `outer_bound` carries the estimated row count of a
/// finite join outer when the current subtree is a join inner driven by
/// key lookups.
fn analyze_node(
    node: &LogicalPlan,
    stats: &dyn StatsSource,
    pk_columns: &dyn Fn(&str) -> Vec<usize>,
    outer_bound: Option<f64>,
    report: &mut BoundednessReport,
    calls: &mut f64,
) {
    match node {
        LogicalPlan::Scan {
            table,
            crowd_table,
            expected_tuples,
            ..
        } => {
            if !crowd_table {
                return;
            }
            if let Some(e) = expected_tuples {
                *calls += *e as f64;
                report.notes.push(format!(
                    "CROWD table '{table}' bounded by stop-after: at most {e} tuple(s) requested"
                ));
            } else if let Some(outer) = outer_bound {
                *calls += outer;
                report.notes.push(format!(
                    "CROWD table '{table}' bounded as join inner: one lookup batch per outer \
                     row (~{outer:.0})"
                ));
            } else {
                report.bounded = false;
                report.notes.push(format!(
                    "UNBOUNDED: full scan of CROWD table '{table}' — the open world cannot be \
                     enumerated; add a LIMIT, a primary-key predicate, or join it from a \
                     finite table"
                ));
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            // A PK-equality filter bounds an immediate crowd scan.
            if let LogicalPlan::Scan {
                table,
                crowd_table: true,
                expected_tuples: None,
                ..
            } = input.as_ref()
            {
                if filter_pins_primary_key(predicate, &pk_columns(table)) {
                    *calls += 1.0;
                    report.notes.push(format!(
                        "CROWD table '{table}' bounded by primary-key predicate: at most one \
                         entity requested"
                    ));
                    return;
                }
            }
            analyze_node(input, stats, pk_columns, outer_bound, report, calls);
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            // The left (outer) side must be bounded on its own.
            analyze_node(left, stats, pk_columns, None, report, calls);
            // The right side may be driven by the outer when there is an
            // equality join condition (the CrowdJoin pattern).
            let driven = matches!(kind, JoinType::Inner | JoinType::Left)
                && on.as_ref().map(has_equality_conjunct).unwrap_or(false)
                && subtree_is_finite(left);
            let bound = if driven {
                Some(estimate_rows(left, stats))
            } else {
                None
            };
            analyze_node(right, stats, pk_columns, bound, report, calls);
        }
        LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Distinct { input } => {
            analyze_node(input, stats, pk_columns, outer_bound, report, calls)
        }
        LogicalPlan::Limit { input, .. } => {
            // The stop-after rewrite already transferred usable bounds to
            // scans; a Limit here does not by itself bound a deeper crowd
            // scan (e.g. below a machine sort).
            analyze_node(input, stats, pk_columns, outer_bound, report, calls)
        }
        LogicalPlan::Values { .. } => {}
        LogicalPlan::Union { left, right, .. } => {
            analyze_node(left, stats, pk_columns, None, report, calls);
            analyze_node(right, stats, pk_columns, None, report, calls);
        }
    }
}

/// Whether this subtree contains no CROWD-table scan without a
/// stop-after bound (a conservative re-check, independent of the report).
fn subtree_is_finite(node: &LogicalPlan) -> bool {
    !node.any(&|n| {
        matches!(
            n,
            LogicalPlan::Scan {
                crowd_table: true,
                expected_tuples: None,
                ..
            }
        )
    })
}

fn has_equality_conjunct(on: &BExpr) -> bool {
    on.any(&|e| {
        matches!(
            e,
            BExpr::Binary {
                op: BinaryOp::Eq,
                ..
            }
        )
    })
}

/// Whether a predicate pins every primary-key column with an equality to
/// a literal (conjunctions allowed). Unlike access-path choice, which
/// reads the same comparisons, `pk = NULL` counts: it matches nothing,
/// so the scan still requests at most one entity.
pub(crate) fn filter_pins_primary_key(pred: &BExpr, pk: &[usize]) -> bool {
    let cmps = pred.literal_comparisons();
    !pk.is_empty()
        && pk
            .iter()
            .all(|p| cmps.iter().any(|(c, op, _)| c == p && *op == BinaryOp::Eq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use crate::cardinality::FnStats;
    use crate::optimizer::{optimize, OptimizerConfig};
    use crowddb_sql::{parse_statement, Statement};
    use crowddb_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for ddl in [
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
             nb_attendees CROWD INTEGER)",
            "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF Talk(title))",
        ] {
            let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
                panic!()
            };
            let schema = c.schema_from_ast(&ct).unwrap();
            c.register(schema).unwrap();
        }
        c
    }

    fn analyze(sql: &str) -> BoundednessReport {
        let cat = catalog();
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let bound = Binder::new(&cat).bind_query(&q).unwrap();
        let stats = FnStats(|t: &str| match t {
            "talk" => Some(500),
            "notableattendee" => Some(3),
            _ => None,
        });
        let plan = optimize(bound, &stats, &OptimizerConfig::default());
        let pk = |t: &str| -> Vec<usize> {
            match t {
                "talk" => vec![0],
                "notableattendee" => vec![0],
                _ => vec![],
            }
        };
        analyze_boundedness(&plan, &stats, &pk)
    }

    #[test]
    fn electronic_query_is_trivially_bounded() {
        let r = analyze("SELECT title FROM Talk WHERE title = 'x'");
        assert!(r.bounded);
    }

    #[test]
    fn probe_queries_are_bounded_by_stored_tuples() {
        let r = analyze("SELECT abstract FROM Talk WHERE title = 'CrowdDB'");
        assert!(r.bounded);
        assert!(
            r.notes.iter().any(|n| n.contains("probe")),
            "notes: {:?}",
            r.notes
        );
        assert!(r.estimated_crowd_calls.is_some());
    }

    #[test]
    fn bare_crowd_table_scan_is_unbounded() {
        let r = analyze("SELECT name FROM NotableAttendee");
        assert!(!r.bounded);
        assert!(
            r.notes.iter().any(|n| n.contains("UNBOUNDED")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn limit_bounds_crowd_table_scan() {
        let r = analyze("SELECT name FROM NotableAttendee LIMIT 10");
        assert!(r.bounded, "{:?}", r.notes);
        assert!(r.notes.iter().any(|n| n.contains("stop-after")));
        assert!(r.estimated_crowd_calls.unwrap() >= 10);
    }

    #[test]
    fn pk_equality_bounds_crowd_table() {
        let r = analyze("SELECT title FROM NotableAttendee WHERE name = 'Mike Franklin'");
        assert!(r.bounded, "{:?}", r.notes);
        assert!(r.notes.iter().any(|n| n.contains("primary-key")));
    }

    #[test]
    fn non_key_equality_does_not_bound() {
        let r = analyze("SELECT name FROM NotableAttendee WHERE title = 'CrowdDB'");
        // Filtering on a non-key column can match unboundedly many
        // entities... but this is exactly the CrowdJoin pattern without a
        // finite outer; our rule keeps it unbounded.
        assert!(!r.bounded, "{:?}", r.notes);
    }

    #[test]
    fn join_from_finite_outer_bounds_crowd_inner() {
        let r = analyze(
            "SELECT t.title, n.name FROM Talk t JOIN NotableAttendee n ON t.title = n.title",
        );
        assert!(r.bounded, "{:?}", r.notes);
        assert!(
            r.notes.iter().any(|n| n.contains("join inner")),
            "{:?}",
            r.notes
        );
    }

    #[test]
    fn crowd_cross_join_is_unbounded() {
        let r = analyze("SELECT * FROM Talk t CROSS JOIN NotableAttendee n");
        assert!(!r.bounded, "{:?}", r.notes);
    }

    #[test]
    fn machine_sort_blocks_limit_bound() {
        let r = analyze("SELECT name FROM NotableAttendee ORDER BY name LIMIT 5");
        assert!(!r.bounded, "{:?}", r.notes);
    }

    #[test]
    fn crowdorder_with_limit_is_still_unbounded_scan() {
        // CROWDORDER ranks whatever tuples exist, but the *scan* of the
        // crowd table is still unbounded without its own bound.
        let r = analyze(
            "SELECT name FROM NotableAttendee ORDER BY CROWDORDER(name, 'better?') LIMIT 5",
        );
        assert!(!r.bounded, "{:?}", r.notes);
    }

    #[test]
    fn crowd_free_report() {
        let r = analyze("SELECT title FROM Talk");
        assert!(r.bounded);
        // `title` is electronic: no crowd access at all.
        assert!(r.estimated_crowd_calls.is_none(), "{:?}", r.notes);
    }
}

//! Boundedness analysis for the open-world assumption, and the one
//! annotation pass every reader of a plan's estimates shares.
//!
//! "The last optimization deals with the open-world assumption by
//! ensuring that the amount of data requested from the crowd is bounded
//! [... the optimizer] warns the user at compile-time if the number of
//! requests cannot be bounded." (§3.2.2)
//!
//! `annotate` walks an optimized plan once, bottom-up, giving every node
//! its cardinality estimate ([`crate::cardinality`]) and a `Verdict` on
//! the new tuples it may request, in the lattice
//! `Bounded < Drivable < Unbounded`:
//!
//! * a CROWD-table scan is `Bounded` by an `expected_tuples` quota
//!   (stop-after push-down reached it), else `Drivable`; a filter pinning
//!   its primary key makes it `Bounded` (at most one entity requested);
//! * Filter, Project, Aggregate, Sort, Distinct and Limit pass their
//!   input's verdict through (a Limit left above a machine sort bounds
//!   nothing below it);
//! * a join *resolves* its left side, `Drivable` → `Unbounded`; its right
//!   side's `Drivable` becomes `Bounded` when an equality from a finite
//!   left side drives it (the CrowdJoin pattern: requests ≤ |outer| ×
//!   per-key quota), `Unbounded` otherwise;
//! * a union and the root resolve their inputs like a join's left side,
//!   and so does a subquery: an unbounded one makes the node whose
//!   expression holds it `Unbounded`.
//!
//! A node is bounded when its verdict is `Bounded`, and resolving a scan
//! writes its note in the root's [`BoundednessReport`]. A bare `SELECT *
//! FROM crowd_table` resolves `Unbounded`: no finite number of crowd
//! answers can provably complete it.

use crowddb_sql::BinaryOp;

use crate::bound_expr::BExpr;
use crate::cardinality::{node_rows, stored_rows, StatsSource};
use crate::logical::{JoinType, LogicalPlan};

/// Result of the analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundednessReport {
    /// Is every crowd access bounded?
    pub bounded: bool,
    /// Human-readable explanation per crowd access.
    pub notes: Vec<String>,
    /// Estimated upper bound on crowd task *batches* (probe groups / join
    /// lookups). `None` when the plan asks the crowd nothing.
    pub estimated_crowd_calls: Option<u64>,
}

/// Analyze a plan. `pk_columns` maps a table name to its primary-key
/// column ordinals (used to recognize key-equality filters).
pub fn analyze_boundedness(
    plan: &LogicalPlan,
    stats: &dyn StatsSource,
    pk_columns: &dyn Fn(&str) -> Vec<usize>,
) -> BoundednessReport {
    annotate(plan, stats, pk_columns).1
}

/// Where a subtree stands on requesting new tuples from the crowd.
/// `Drivable` names the CROWD table whose bound is still open; only a
/// chain of single-input nodes over one scan stays `Drivable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Verdict<'p> {
    Bounded,
    Drivable(&'p str),
    Unbounded,
}

/// One plan node as [`annotate`] saw it, its inputs' below it.
pub(crate) struct Annotated<'p> {
    pub(crate) plan: &'p LogicalPlan,
    pub(crate) est_rows: f64,
    pub(crate) verdict: Verdict<'p>,
    /// Every CROWD-table scan below has a stop-after quota: the subtree
    /// may drive a join's inner.
    finite: bool,
    pub(crate) inputs: Vec<Annotated<'p>>,
}

/// The annotation pass: every node's estimate and verdict, each computed
/// once from its inputs' (a scan reads `stats` once), and the report of
/// the whole plan.
pub(crate) fn annotate<'p>(
    plan: &'p LogicalPlan,
    stats: &dyn StatsSource,
    pk_columns: &dyn Fn(&str) -> Vec<usize>,
) -> (Annotated<'p>, BoundednessReport) {
    let mut pass = Pass {
        stats,
        pk_columns,
        probes: Vec::new(),
        fetches: Vec::new(),
    };
    let root = pass.node(plan);
    let bounded = pass.resolve(root.verdict, None) == Verdict::Bounded;
    // Probe work (CNULL filling) is always bounded; its notes come first.
    let notes: Vec<(String, f64)> = pass.probes.into_iter().chain(pass.fetches).collect();
    let calls: f64 = notes.iter().map(|(_, c)| c).sum();
    let report = BoundednessReport {
        bounded,
        estimated_crowd_calls: (!notes.is_empty()).then(|| calls.min(u64::MAX as f64) as u64),
        notes: notes.into_iter().map(|(n, _)| n).collect(),
    };
    (root, report)
}

/// The pass's state: the notes so far, each with the crowd task batches
/// it accounts for.
struct Pass<'a> {
    stats: &'a dyn StatsSource,
    pk_columns: &'a dyn Fn(&str) -> Vec<usize>,
    probes: Vec<(String, f64)>,
    fetches: Vec<(String, f64)>,
}

impl Pass<'_> {
    fn node<'p>(&mut self, plan: &'p LogicalPlan) -> Annotated<'p> {
        let stored = stored_rows(plan, self.stats);
        let (inputs, mut verdict) = match plan {
            LogicalPlan::Scan {
                table,
                schema,
                crowd_table,
                needed_columns,
                expected_tuples,
                ..
            } => {
                let crowd_needed = needed_columns
                    .iter()
                    .filter(|&&c| schema.columns.get(c).is_some_and(|x| x.crowd))
                    .count();
                if crowd_needed > 0 {
                    // At most one probe batch per stored tuple.
                    let rows = stored.unwrap_or(0) as f64;
                    let note = format!(
                        "probe of {crowd_needed} CROWD column(s) of '{table}' is bounded by \
                         its {rows} stored tuple(s)"
                    );
                    self.probes.push((note, rows));
                }
                let verdict = match expected_tuples {
                    _ if !crowd_table => Verdict::Bounded,
                    None => Verdict::Drivable(table),
                    Some(e) => {
                        let note = format!(
                            "CROWD table '{table}' bounded by stop-after: at most {e} tuple(s) \
                             requested"
                        );
                        self.fetches.push((note, *e as f64));
                        Verdict::Bounded
                    }
                };
                (Vec::new(), verdict)
            }
            LogicalPlan::Filter { input, predicate } => {
                let input = self.node(input);
                let verdict = match input.verdict {
                    Verdict::Drivable(table)
                        if matches!(input.plan, LogicalPlan::Scan { .. })
                            && filter_pins_primary_key(predicate, &(self.pk_columns)(table)) =>
                    {
                        let note = format!(
                            "CROWD table '{table}' bounded by primary-key predicate: at most \
                             one entity requested"
                        );
                        self.fetches.push((note, 1.0));
                        Verdict::Bounded
                    }
                    v => v,
                };
                (vec![input], verdict)
            }
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right, .. } => {
                let left = self.node(left);
                let lv = self.resolve(left.verdict, None);
                let right = self.node(right);
                let driven = left.finite
                    && matches!(plan, LogicalPlan::Join {
                        kind: JoinType::Inner | JoinType::Left,
                        on: Some(on),
                        ..
                    } if on.any(&|e| matches!(e, BExpr::Binary { op: BinaryOp::Eq, .. })));
                let rv = self.resolve(right.verdict, driven.then_some(left.est_rows));
                (vec![left, right], lv.max(rv))
            }
            LogicalPlan::Values { .. } => (Vec::new(), Verdict::Bounded),
            LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => {
                let input = self.node(input);
                let verdict = input.verdict;
                (vec![input], verdict)
            }
        };
        // A subquery is planned and run on its own: its verdict resolves
        // like a root's, and an unbounded one makes this node unbounded.
        for e in plan.exprs() {
            e.walk(&mut |e| {
                if let Some(sub) = e.subplan() {
                    let sub = self.node(sub).verdict;
                    if self.resolve(sub, None) == Verdict::Unbounded {
                        verdict = Verdict::Unbounded;
                    }
                }
            });
        }
        let rows: Vec<f64> = inputs.iter().map(|a| a.est_rows).collect();
        let open_crowd_scan = matches!(
            plan,
            LogicalPlan::Scan {
                crowd_table: true,
                expected_tuples: None,
                ..
            }
        );
        Annotated {
            plan,
            est_rows: node_rows(plan, &rows, stored),
            verdict,
            finite: !open_crowd_scan && inputs.iter().all(|a| a.finite),
            inputs,
        }
    }

    /// Settle a `Drivable` verdict: bounded as a join inner when `outer`
    /// (the finite outer's estimated rows) drives it, unbounded otherwise.
    fn resolve<'p>(&mut self, verdict: Verdict<'p>, outer: Option<f64>) -> Verdict<'p> {
        let Verdict::Drivable(table) = verdict else {
            return verdict;
        };
        let Some(outer) = outer else {
            let note = format!(
                "UNBOUNDED: full scan of CROWD table '{table}' — the open world cannot be \
                 enumerated; add a LIMIT, a primary-key predicate, or join it from a finite \
                 table"
            );
            self.fetches.push((note, 0.0));
            return Verdict::Unbounded;
        };
        let note = format!(
            "CROWD table '{table}' bounded as join inner: one lookup batch per outer row \
             (~{outer:.0})"
        );
        self.fetches.push((note, outer));
        Verdict::Bounded
    }
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
    fn crowd_scan_in_a_subquery_is_unbounded() {
        let r = analyze("SELECT title FROM Talk WHERE title IN (SELECT name FROM NotableAttendee)");
        assert!(!r.bounded, "{:?}", r.notes);
        let r = analyze(
            "SELECT title FROM Talk WHERE EXISTS \
             (SELECT title FROM NotableAttendee WHERE name = 'Mike Franklin')",
        );
        assert!(r.bounded, "{:?}", r.notes);
        assert!(r.notes.iter().any(|n| n.contains("primary-key")));
    }

    #[test]
    fn crowd_free_report() {
        let r = analyze("SELECT title FROM Talk");
        assert!(r.bounded);
        // `title` is electronic: no crowd access at all.
        assert!(r.estimated_crowd_calls.is_none(), "{:?}", r.notes);
    }
}

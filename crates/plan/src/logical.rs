//! The logical plan.

use std::fmt;

use crowddb_common::DataType;

use crate::bound_expr::{AggCall, BExpr};
use crate::schema::{PlanColumn, PlanSchema};

/// Join types at the logical level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner join.
    Inner,
    /// Left outer join.
    Left,
    /// Cross product.
    Cross,
}

impl JoinType {
    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            JoinType::Inner => "INNER",
            JoinType::Left => "LEFT",
            JoinType::Cross => "CROSS",
        }
    }
}

/// One sort key.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// Key expression (may be [`BExpr::CrowdOrder`]).
    pub expr: BExpr,
    /// Descending?
    pub desc: bool,
}

/// A logical query plan node.
///
/// Every node computes its output [`PlanSchema`] via
/// [`LogicalPlan::schema`]. The crowd-specific information lives on
/// [`LogicalPlan::Scan`]: which base columns the query *needs* (those
/// drive CrowdProbe for CNULLs) and, for CROWD tables, how many tuples a
/// bounded plan expects (filled in by stop-after push-down).
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Base-table scan.
    Scan {
        /// Table name in the catalog.
        table: String,
        /// Visible alias.
        alias: String,
        /// Output schema (all table columns, qualified by the alias).
        schema: PlanSchema,
        /// Is this a `CROWD` table (open world)?
        crowd_table: bool,
        /// Base-column ordinals whose values the query actually uses;
        /// CNULLs in these columns trigger CrowdProbe. Filled by the
        /// binder with every referenced column.
        needed_columns: Vec<usize>,
        /// For CROWD tables in bounded plans: how many tuples the plan
        /// wants at most (from stop-after push-down). `None` = no bound
        /// established (the boundedness analysis will flag it unless the
        /// scan is driven by a join key).
        expected_tuples: Option<u64>,
    },
    /// Row filter.
    Filter {
        /// Input.
        input: Box<LogicalPlan>,
        /// Predicate over the input schema.
        predicate: BExpr,
    },
    /// Projection / expression evaluation.
    Project {
        /// Input.
        input: Box<LogicalPlan>,
        /// Output expressions over the input schema.
        exprs: Vec<BExpr>,
        /// Output schema (one column per expression).
        schema: PlanSchema,
    },
    /// Join of two inputs; `on` is over the concatenated schema.
    Join {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Join type.
        kind: JoinType,
        /// Join predicate (None for cross).
        on: Option<BExpr>,
    },
    /// Grouping + aggregation. Output = group-by columns then aggregates.
    Aggregate {
        /// Input.
        input: Box<LogicalPlan>,
        /// Group-by expressions over the input schema.
        group_by: Vec<BExpr>,
        /// Aggregate calls over the input schema.
        aggs: Vec<AggCall>,
        /// Output schema.
        schema: PlanSchema,
    },
    /// Sort.
    Sort {
        /// Input.
        input: Box<LogicalPlan>,
        /// Keys, major first.
        keys: Vec<SortKey>,
    },
    /// LIMIT/OFFSET ("stop-after").
    Limit {
        /// Input.
        input: Box<LogicalPlan>,
        /// Maximum rows to emit (`None` = no limit, offset only).
        limit: Option<u64>,
        /// Rows to skip.
        offset: u64,
    },
    /// Duplicate elimination over whole rows.
    Distinct {
        /// Input.
        input: Box<LogicalPlan>,
    },
    /// Literal rows (e.g. `SELECT 1 + 1`).
    Values {
        /// Rows of expressions (no input columns available).
        rows: Vec<Vec<BExpr>>,
        /// Output schema.
        schema: PlanSchema,
    },
    /// `UNION [ALL]` of two equally-shaped inputs. Output schema is the
    /// left input's; without `all`, duplicates (across both inputs) are
    /// eliminated.
    Union {
        /// Left input.
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// Keep duplicates?
        all: bool,
    },
}

impl LogicalPlan {
    /// The node's output schema.
    pub fn schema(&self) -> PlanSchema {
        match self {
            LogicalPlan::Scan { schema, .. } => schema.clone(),
            LogicalPlan::Filter { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. } => schema.clone(),
            LogicalPlan::Join { left, right, .. } => left.schema().join(&right.schema()),
            LogicalPlan::Aggregate { schema, .. } => schema.clone(),
            LogicalPlan::Sort { input, .. } => input.schema(),
            LogicalPlan::Limit { input, .. } => input.schema(),
            LogicalPlan::Distinct { input } => input.schema(),
            LogicalPlan::Values { schema, .. } => schema.clone(),
            LogicalPlan::Union { left, .. } => left.schema(),
        }
    }

    /// Immediate children.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => vec![input],
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Call `f` on each of [`LogicalPlan::children`], mutably, left
    /// before right.
    pub(crate) fn inputs_mut(&mut self, mut f: impl FnMut(&mut LogicalPlan)) {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Values { .. } => {}
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Distinct { input } => f(input),
            LogicalPlan::Join { left, right, .. } | LogicalPlan::Union { left, right, .. } => {
                f(left);
                f(right);
            }
        }
    }

    /// This node with each input replaced by `f(input)`, left before
    /// right, in the boxes it already has; a leaf comes back as it is. A
    /// rewrite handles the nodes its rule acts on and hands every other
    /// node to this.
    pub(crate) fn map_inputs(
        mut self,
        mut f: impl FnMut(LogicalPlan) -> LogicalPlan,
    ) -> LogicalPlan {
        self.inputs_mut(|input| {
            let placeholder = LogicalPlan::Values {
                rows: Vec::new(),
                schema: PlanSchema::default(),
            };
            *input = f(std::mem::replace(input, placeholder));
        });
        self
    }

    /// The expressions this node itself evaluates (not its inputs'),
    /// aggregate arguments included.
    pub(crate) fn exprs(&self) -> Vec<&BExpr> {
        match self {
            LogicalPlan::Scan { .. }
            | LogicalPlan::Limit { .. }
            | LogicalPlan::Distinct { .. }
            | LogicalPlan::Union { .. } => vec![],
            LogicalPlan::Filter { predicate, .. } => vec![predicate],
            LogicalPlan::Project { exprs, .. } => exprs.iter().collect(),
            LogicalPlan::Join { on, .. } => on.iter().collect(),
            LogicalPlan::Aggregate { group_by, aggs, .. } => group_by
                .iter()
                .chain(aggs.iter().filter_map(|a| a.arg.as_ref()))
                .collect(),
            LogicalPlan::Sort { keys, .. } => keys.iter().map(|k| &k.expr).collect(),
            LogicalPlan::Values { rows, .. } => rows.iter().flatten().collect(),
        }
    }

    /// Visit all nodes pre-order.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a LogicalPlan)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// Whether `pred` holds for this node or any node below it.
    pub(crate) fn any(&self, pred: &impl Fn(&LogicalPlan) -> bool) -> bool {
        pred(self) || self.children().into_iter().any(|c| c.any(pred))
    }

    /// All scans in the plan, pre-order.
    pub fn scans(&self) -> Vec<&LogicalPlan> {
        let mut out = Vec::new();
        self.walk(&mut |n| {
            if matches!(n, LogicalPlan::Scan { .. }) {
                out.push(n);
            }
        });
        out
    }

    /// Whether executing the plan may ask the crowd: it reads a CROWD
    /// table or a CROWD column, any node evaluates a crowd comparison
    /// (predicate, select list, join condition, sort key, aggregate),
    /// or a subquery anywhere is crowd-related itself. The one answer
    /// to that question: standing queries and the server's admission
    /// tier both read it.
    pub fn is_crowd_related(&self) -> bool {
        let asks = |e: &BExpr| {
            matches!(e, BExpr::CrowdEqual { .. } | BExpr::CrowdOrder { .. })
                || e.subplan().is_some_and(LogicalPlan::is_crowd_related)
        };
        self.any(&|n| {
            let reads_crowd = match n {
                LogicalPlan::Scan {
                    schema,
                    crowd_table,
                    needed_columns,
                    ..
                } => {
                    *crowd_table
                        || needed_columns
                            .iter()
                            .any(|&c| schema.columns.get(c).is_some_and(|pc| pc.crowd))
                }
                _ => false,
            };
            reads_crowd || n.exprs().into_iter().any(|e| e.any(&asks))
        })
    }

    /// This node's own EXPLAIN line, without indentation or children.
    pub(crate) fn describe(&self) -> String {
        fn list<T: fmt::Display>(items: impl IntoIterator<Item = T>) -> String {
            let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
            items.join(", ")
        }
        match self {
            LogicalPlan::Scan {
                table,
                alias,
                crowd_table,
                needed_columns,
                expected_tuples,
                schema,
            } => {
                let crowd_cols = list(
                    needed_columns
                        .iter()
                        .filter_map(|&i| schema.columns.get(i))
                        .filter(|c| c.crowd)
                        .map(|c| &c.name),
                );
                format!(
                    "Scan {table}{}{}{}{}",
                    if alias != table {
                        format!(" AS {alias}")
                    } else {
                        String::new()
                    },
                    if *crowd_table { " [CROWD TABLE]" } else { "" },
                    if crowd_cols.is_empty() {
                        String::new()
                    } else {
                        format!(" [probe: {crowd_cols}]")
                    },
                    match expected_tuples {
                        Some(n) => format!(" [expect ≤{n} tuples]"),
                        None => String::new(),
                    }
                )
            }
            LogicalPlan::Filter { predicate, .. } => {
                let tag = if predicate.is_crowd() {
                    "CrowdFilter"
                } else {
                    "Filter"
                };
                format!("{tag} {predicate}")
            }
            LogicalPlan::Project { exprs, .. } => format!("Project {}", list(exprs)),
            LogicalPlan::Join { kind, on, .. } => match on {
                Some(p) => format!("{} Join ON {p}", kind.name()),
                None => format!("{} Join", kind.name()),
            },
            LogicalPlan::Aggregate { group_by, aggs, .. } => {
                format!("Aggregate group=[{}] aggs=[{}]", list(group_by), list(aggs))
            }
            LogicalPlan::Sort { keys, .. } => {
                let crowd = keys.iter().any(|k| k.expr.is_crowd());
                format!(
                    "{} {}",
                    if crowd { "CrowdSort" } else { "Sort" },
                    list(keys.iter().map(|k| format!(
                        "{}{}",
                        k.expr,
                        if k.desc { " DESC" } else { "" }
                    )))
                )
            }
            LogicalPlan::Limit { limit, offset, .. } => format!(
                "Limit{}{}",
                match limit {
                    Some(l) => format!(" {l}"),
                    None => " ∞".to_string(),
                },
                if *offset > 0 {
                    format!(" OFFSET {offset}")
                } else {
                    String::new()
                }
            ),
            LogicalPlan::Distinct { .. } => "Distinct".to_string(),
            LogicalPlan::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
            LogicalPlan::Union { all, .. } => format!("Union{}", if *all { " ALL" } else { "" }),
        }
    }

    /// Render the plan as an indented EXPLAIN tree: one `describe()`
    /// line per node, children indented below.
    pub fn explain(&self) -> String {
        fn rec(plan: &LogicalPlan, depth: usize, out: &mut String) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&plan.describe());
            out.push('\n');
            for c in plan.children() {
                rec(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        rec(self, 0, &mut out);
        out
    }
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

/// Build a Scan node's schema from catalog information.
pub fn scan_schema(alias: &str, columns: &[(String, DataType, bool)], table: &str) -> PlanSchema {
    PlanSchema::new(
        columns
            .iter()
            .enumerate()
            .map(|(i, (name, ty, crowd))| PlanColumn {
                qualifier: Some(alias.to_ascii_lowercase()),
                name: name.clone(),
                data_type: Some(*ty),
                crowd: *crowd,
                base: Some((table.to_ascii_lowercase(), i)),
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::Value;
    use crowddb_sql::BinaryOp;

    fn talk_scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "talk".into(),
            alias: "talk".into(),
            schema: scan_schema(
                "talk",
                &[
                    ("title".into(), DataType::Str, false),
                    ("abstract".into(), DataType::Str, true),
                    ("nb_attendees".into(), DataType::Int, true),
                ],
                "talk",
            ),
            crowd_table: false,
            needed_columns: vec![0, 1],
            expected_tuples: None,
        }
    }

    #[test]
    fn scan_schema_has_provenance() {
        let s = talk_scan().schema();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.columns[1].base, Some(("talk".into(), 1)));
        assert!(s.columns[1].crowd);
        assert!(!s.columns[0].crowd);
    }

    #[test]
    fn filter_passes_schema_through() {
        let f = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: BExpr::Binary {
                left: Box::new(BExpr::Column(0)),
                op: BinaryOp::Eq,
                right: Box::new(BExpr::Literal(Value::str("CrowdDB"))),
            },
        };
        assert_eq!(f.schema().arity(), 3);
    }

    #[test]
    fn join_concatenates_schemas() {
        let j = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(talk_scan()),
            kind: JoinType::Inner,
            on: None,
        };
        assert_eq!(j.schema().arity(), 6);
    }

    #[test]
    fn crowd_relatedness() {
        assert!(talk_scan().is_crowd_related(), "needed crowd column");
        let plain = LogicalPlan::Scan {
            table: "t".into(),
            alias: "t".into(),
            schema: scan_schema("t", &[("a".into(), DataType::Int, false)], "t"),
            crowd_table: false,
            needed_columns: vec![0],
            expected_tuples: None,
        };
        assert!(!plain.is_crowd_related());
        let crowd_sort = LogicalPlan::Sort {
            input: Box::new(plain.clone()),
            keys: vec![SortKey {
                expr: BExpr::CrowdOrder {
                    expr: Box::new(BExpr::Column(0)),
                    instruction: "pick".into(),
                },
                desc: false,
            }],
        };
        assert!(crowd_sort.is_crowd_related());
    }

    #[test]
    fn explain_marks_crowd_operators() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Sort {
                input: Box::new(talk_scan()),
                keys: vec![SortKey {
                    expr: BExpr::CrowdOrder {
                        expr: Box::new(BExpr::Column(0)),
                        instruction: "Which talk did you like better".into(),
                    },
                    desc: false,
                }],
            }),
            limit: Some(10),
            offset: 0,
        };
        let text = plan.explain();
        assert!(text.contains("Limit 10"), "{text}");
        assert!(text.contains("CrowdSort"), "{text}");
        assert!(text.contains("probe: abstract"), "{text}");
    }

    #[test]
    fn scans_collects_all() {
        let j = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(talk_scan()),
            kind: JoinType::Cross,
            on: None,
        };
        assert_eq!(j.scans().len(), 2);
    }

    #[test]
    fn values_schema() {
        let v = LogicalPlan::Values {
            rows: vec![vec![BExpr::Literal(Value::Int(1))]],
            schema: PlanSchema::new(vec![PlanColumn::computed("x", Some(DataType::Int))]),
        };
        assert_eq!(v.schema().arity(), 1);
        assert!(v.explain().contains("Values [1 rows]"));
    }
}

//! Bound expressions: the AST after name resolution.
//!
//! [`BExpr`] mirrors the parser's `Expr` with column references replaced
//! by ordinals into the input row, aggregates separated out (they only
//! appear in `Aggregate` nodes), and the two crowd built-ins represented
//! explicitly so the optimizer and executor can treat them specially.

use std::fmt;

use crowddb_common::{DataType, Value};
use crowddb_sql::{BinaryOp, UnaryOp};

/// Scalar (non-crowd, non-aggregate) built-in functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFn {
    /// `LOWER(s)`
    Lower,
    /// `UPPER(s)`
    Upper,
    /// `LENGTH(s)`
    Length,
    /// `ABS(x)`
    Abs,
    /// `ROUND(x)`
    Round,
    /// `TRIM(s)`
    Trim,
    /// `COALESCE(a, b, ...)` — first non-missing argument.
    Coalesce,
    /// `SUBSTR(s, start [, len])` — 1-based.
    Substr,
    /// `CONCAT(a, b, ...)`
    ConcatFn,
}

impl ScalarFn {
    /// Parse a function name.
    pub fn from_name(name: &str) -> Option<ScalarFn> {
        Some(match name {
            "lower" => ScalarFn::Lower,
            "upper" => ScalarFn::Upper,
            "length" | "len" => ScalarFn::Length,
            "abs" => ScalarFn::Abs,
            "round" => ScalarFn::Round,
            "trim" => ScalarFn::Trim,
            "coalesce" => ScalarFn::Coalesce,
            "substr" | "substring" => ScalarFn::Substr,
            "concat" => ScalarFn::ConcatFn,
            _ => return None,
        })
    }

    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            ScalarFn::Lower => "LOWER",
            ScalarFn::Upper => "UPPER",
            ScalarFn::Length => "LENGTH",
            ScalarFn::Abs => "ABS",
            ScalarFn::Round => "ROUND",
            ScalarFn::Trim => "TRIM",
            ScalarFn::Coalesce => "COALESCE",
            ScalarFn::Substr => "SUBSTR",
            ScalarFn::ConcatFn => "CONCAT",
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// `COUNT(*)` / `COUNT(x)`
    Count,
    /// `SUM(x)`
    Sum,
    /// `AVG(x)`
    Avg,
    /// `MIN(x)`
    Min,
    /// `MAX(x)`
    Max,
}

impl AggFn {
    /// Parse an aggregate name.
    pub fn from_name(name: &str) -> Option<AggFn> {
        Some(match name {
            "count" => AggFn::Count,
            "sum" => AggFn::Sum,
            "avg" => AggFn::Avg,
            "min" => AggFn::Min,
            "max" => AggFn::Max,
            _ => return None,
        })
    }

    /// SQL spelling.
    pub fn name(self) -> &'static str {
        match self {
            AggFn::Count => "COUNT",
            AggFn::Sum => "SUM",
            AggFn::Avg => "AVG",
            AggFn::Min => "MIN",
            AggFn::Max => "MAX",
        }
    }
}

/// One aggregate call inside an `Aggregate` node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The function.
    pub func: AggFn,
    /// Argument (`None` for `COUNT(*)`).
    pub arg: Option<BExpr>,
    /// `DISTINCT` aggregation?
    pub distinct: bool,
}

impl AggCall {
    /// Whether a running accumulator reproduces this call exactly, byte
    /// for byte, whatever order rows came and went in — what lets a
    /// standing query maintain an aggregate instead of recomputing it:
    /// `COUNT(*)`, `COUNT(x)`, and `SUM` of an `INTEGER` column of
    /// `input` (the aggregate's input schema). Not `AVG` or a float `SUM`
    /// (rounding depends on the order of the additions), not `MIN`/`MAX`
    /// (the runner-up is gone once the extreme leaves), not `DISTINCT`.
    pub fn exact_running(&self, input: &crate::schema::PlanSchema) -> bool {
        let int_column = |arg: &BExpr| match arg {
            BExpr::Column(c) => {
                input.columns.get(*c).and_then(|c| c.data_type) == Some(DataType::Int)
            }
            _ => false,
        };
        !self.distinct
            && match self.func {
                AggFn::Count => !self.arg.as_ref().is_some_and(BExpr::has_subplan),
                AggFn::Sum => self.arg.as_ref().is_some_and(int_column),
                AggFn::Avg | AggFn::Min | AggFn::Max => false,
            }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.func.name())?;
        if self.distinct {
            f.write_str("DISTINCT ")?;
        }
        match &self.arg {
            Some(a) => write!(f, "{a}")?,
            None => f.write_str("*")?,
        }
        f.write_str(")")
    }
}

/// A bound expression evaluated against one input row.
#[derive(Debug, Clone, PartialEq)]
pub enum BExpr {
    /// Literal.
    Literal(Value),
    /// Input column by ordinal.
    Column(usize),
    /// Unary op.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<BExpr>,
    },
    /// Binary op (never `CrowdEq` — that becomes [`BExpr::CrowdEqual`]).
    Binary {
        /// Left operand.
        left: Box<BExpr>,
        /// Operator.
        op: BinaryOp,
        /// Right operand.
        right: Box<BExpr>,
    },
    /// `IS [NOT] NULL` / `IS [NOT] CNULL`.
    Is {
        /// Operand.
        expr: Box<BExpr>,
        /// Negated?
        negated: bool,
        /// Test CNULL instead of NULL?
        cnull: bool,
    },
    /// `LIKE`.
    Like {
        /// Tested expression.
        expr: Box<BExpr>,
        /// Pattern.
        pattern: Box<BExpr>,
        /// Negated?
        negated: bool,
    },
    /// `BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<BExpr>,
        /// Low bound.
        low: Box<BExpr>,
        /// High bound.
        high: Box<BExpr>,
        /// Negated?
        negated: bool,
    },
    /// `IN (list)`.
    InList {
        /// Tested expression.
        expr: Box<BExpr>,
        /// Candidates.
        list: Vec<BExpr>,
        /// Negated?
        negated: bool,
    },
    /// `IN (subquery)` — the subquery is planned independently
    /// (uncorrelated) and materialized once at execution.
    InPlan {
        /// Tested expression.
        expr: Box<BExpr>,
        /// Materialized subplan (single output column).
        plan: Box<crate::logical::LogicalPlan>,
        /// Negated?
        negated: bool,
    },
    /// `EXISTS (subquery)` (uncorrelated).
    ExistsPlan {
        /// Subplan.
        plan: Box<crate::logical::LogicalPlan>,
        /// Negated?
        negated: bool,
    },
    /// Scalar subquery (uncorrelated, single column; errors at runtime if
    /// it yields more than one row).
    ScalarPlan(Box<crate::logical::LogicalPlan>),
    /// `CASE`.
    Case {
        /// Optional operand.
        operand: Option<Box<BExpr>>,
        /// `(when, then)` pairs.
        branches: Vec<(BExpr, BExpr)>,
        /// `ELSE`.
        else_expr: Option<Box<BExpr>>,
    },
    /// `CAST(x AS t)`.
    Cast {
        /// Operand.
        expr: Box<BExpr>,
        /// Target type.
        data_type: DataType,
    },
    /// Scalar function call.
    Scalar {
        /// Function.
        func: ScalarFn,
        /// Arguments.
        args: Vec<BExpr>,
    },
    /// `CROWDEQUAL(a, b)` / `a ~= b`: crowd-judged equality. The executor
    /// routes this to the CrowdCompare machinery.
    CrowdEqual {
        /// Left operand.
        left: Box<BExpr>,
        /// Right operand.
        right: Box<BExpr>,
    },
    /// `CROWDORDER(expr, 'instruction')`: crowd-judged sort key. Only
    /// legal inside `ORDER BY`; the executor sorts with crowd comparisons
    /// of the rendered `expr` values.
    CrowdOrder {
        /// Item to compare.
        expr: Box<BExpr>,
        /// Question shown to workers.
        instruction: String,
    },
}

impl BExpr {
    /// The immediate subexpressions, in evaluation order. A subquery's
    /// plan is not among them: it is planned and evaluated on its own.
    pub(crate) fn children(&self) -> impl Iterator<Item = &BExpr> {
        type Parts<'e> = (
            [Option<&'e BExpr>; 3],
            &'e [BExpr],
            &'e [(BExpr, BExpr)],
            Option<&'e BExpr>,
        );
        let (head, list, pairs, tail): Parts = match self {
            BExpr::Literal(_)
            | BExpr::Column(_)
            | BExpr::ExistsPlan { .. }
            | BExpr::ScalarPlan(_) => ([None; 3], &[], &[], None),
            BExpr::Unary { expr, .. }
            | BExpr::Is { expr, .. }
            | BExpr::Cast { expr, .. }
            | BExpr::CrowdOrder { expr, .. }
            | BExpr::InPlan { expr, .. } => ([Some(expr), None, None], &[], &[], None),
            BExpr::Binary { left, right, .. }
            | BExpr::CrowdEqual { left, right }
            | BExpr::Like {
                expr: left,
                pattern: right,
                ..
            } => ([Some(left), Some(right), None], &[], &[], None),
            BExpr::Between {
                expr, low, high, ..
            } => ([Some(expr), Some(low), Some(high)], &[], &[], None),
            BExpr::InList { expr, list, .. } => ([Some(expr), None, None], list, &[], None),
            BExpr::Case {
                operand,
                branches,
                else_expr,
            } => (
                [operand.as_deref(), None, None],
                &[],
                branches,
                else_expr.as_deref(),
            ),
            BExpr::Scalar { args, .. } => ([None; 3], args, &[], None),
        };
        let pairs = pairs.iter().flat_map(|(w, t)| [w, t]);
        head.into_iter()
            .flatten()
            .chain(list)
            .chain(pairs)
            .chain(tail)
    }

    /// [`BExpr::children`], mutably.
    pub(crate) fn children_mut(&mut self) -> impl Iterator<Item = &mut BExpr> {
        type Parts<'e> = (
            [Option<&'e mut BExpr>; 3],
            &'e mut [BExpr],
            &'e mut [(BExpr, BExpr)],
            Option<&'e mut BExpr>,
        );
        let (head, list, pairs, tail): Parts = match self {
            BExpr::Literal(_)
            | BExpr::Column(_)
            | BExpr::ExistsPlan { .. }
            | BExpr::ScalarPlan(_) => ([None, None, None], &mut [], &mut [], None),
            BExpr::Unary { expr, .. }
            | BExpr::Is { expr, .. }
            | BExpr::Cast { expr, .. }
            | BExpr::CrowdOrder { expr, .. }
            | BExpr::InPlan { expr, .. } => ([Some(expr), None, None], &mut [], &mut [], None),
            BExpr::Binary { left, right, .. }
            | BExpr::CrowdEqual { left, right }
            | BExpr::Like {
                expr: left,
                pattern: right,
                ..
            } => ([Some(left), Some(right), None], &mut [], &mut [], None),
            BExpr::Between {
                expr, low, high, ..
            } => ([Some(expr), Some(low), Some(high)], &mut [], &mut [], None),
            BExpr::InList { expr, list, .. } => ([Some(expr), None, None], list, &mut [], None),
            BExpr::Case {
                operand,
                branches,
                else_expr,
            } => (
                [operand.as_deref_mut(), None, None],
                &mut [],
                branches,
                else_expr.as_deref_mut(),
            ),
            BExpr::Scalar { args, .. } => ([None, None, None], args, &mut [], None),
        };
        let pairs = pairs.iter_mut().flat_map(|(w, t)| [w, t]);
        head.into_iter()
            .flatten()
            .chain(list)
            .chain(pairs)
            .chain(tail)
    }

    /// Visit all nodes pre-order (not descending into subplans).
    pub fn walk(&self, f: &mut impl FnMut(&BExpr)) {
        f(self);
        for c in self.children() {
            c.walk(f);
        }
    }

    /// Whether `pred` holds for this node or any node below it (not
    /// descending into subplans).
    pub(crate) fn any(&self, pred: &impl Fn(&BExpr) -> bool) -> bool {
        pred(self) || self.children().any(|c| c.any(pred))
    }

    /// The plan of a subquery node (`IN (SELECT …)`, `EXISTS`, scalar).
    pub(crate) fn subplan(&self) -> Option<&crate::logical::LogicalPlan> {
        match self {
            BExpr::InPlan { plan, .. }
            | BExpr::ExistsPlan { plan, .. }
            | BExpr::ScalarPlan(plan) => Some(plan),
            _ => None,
        }
    }

    /// Ordinals of all referenced input columns.
    pub fn column_refs(&self) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let BExpr::Column(i) = e {
                out.push(*i);
            }
        });
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether the expression contains a crowd call (`CROWDEQUAL` or
    /// `CROWDORDER`). Such predicates are expensive: the optimizer
    /// evaluates them after all machine predicates.
    pub fn is_crowd(&self) -> bool {
        self.any(&|e| matches!(e, BExpr::CrowdEqual { .. } | BExpr::CrowdOrder { .. }))
    }

    /// Whether the expression contains a subquery plan.
    pub fn has_subplan(&self) -> bool {
        self.any(&|e| e.subplan().is_some())
    }

    /// The `column <cmp> literal` conjuncts of this predicate (`=`, `<`,
    /// `<=`, `>`, `>=`), in conjunct order, each normalised so the column
    /// is on the left (`5 < c` reads `c > 5`). The one place the planner
    /// reads literal pins and bounds off a predicate: access-path choice
    /// and the primary-key boundedness rule both start here.
    pub(crate) fn literal_comparisons(&self) -> Vec<(usize, BinaryOp, &Value)> {
        use BinaryOp::{And, Eq, Gt, GtEq, Lt, LtEq};
        fn rec<'e>(e: &'e BExpr, out: &mut Vec<(usize, BinaryOp, &'e Value)>) {
            let BExpr::Binary { left, op, right } = e else {
                return;
            };
            match (left.as_ref(), *op, right.as_ref()) {
                (l, And, r) => {
                    rec(l, out);
                    rec(r, out);
                }
                (BExpr::Column(c), Eq | Lt | LtEq | Gt | GtEq, BExpr::Literal(v)) => {
                    out.push((*c, *op, v))
                }
                (BExpr::Literal(v), Eq, BExpr::Column(c)) => out.push((*c, Eq, v)),
                (BExpr::Literal(v), Lt, BExpr::Column(c)) => out.push((*c, Gt, v)),
                (BExpr::Literal(v), LtEq, BExpr::Column(c)) => out.push((*c, GtEq, v)),
                (BExpr::Literal(v), Gt, BExpr::Column(c)) => out.push((*c, Lt, v)),
                (BExpr::Literal(v), GtEq, BExpr::Column(c)) => out.push((*c, LtEq, v)),
                _ => {}
            }
        }
        let mut out = Vec::new();
        rec(self, &mut out);
        out
    }

    /// Rewrite every column ordinal through `map` (used when predicates
    /// move across joins/projections).
    /// A subquery's plan is copied as it is: it is uncorrelated, so its
    /// ordinals index its own rows.
    pub fn remap_columns(&self, map: &impl Fn(usize) -> usize) -> BExpr {
        fn remap(e: &mut BExpr, map: &impl Fn(usize) -> usize) {
            if let BExpr::Column(i) = e {
                *i = map(*i);
            }
            for c in e.children_mut() {
                remap(c, map);
            }
        }
        let mut e = self.clone();
        remap(&mut e, map);
        e
    }
}

impl fmt::Display for BExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BExpr::Literal(v) => f.write_str(&v.sql_literal()),
            BExpr::Column(i) => write!(f, "#{i}"),
            BExpr::Unary { op, expr } => match op {
                UnaryOp::Not => write!(f, "(NOT {expr})"),
                UnaryOp::Neg => write!(f, "(-{expr})"),
                UnaryOp::Pos => write!(f, "(+{expr})"),
            },
            BExpr::Binary { left, op, right } => write!(f, "({left} {} {right})", op.sql()),
            BExpr::Is {
                expr,
                negated,
                cnull,
            } => write!(
                f,
                "({expr} IS {}{})",
                if *negated { "NOT " } else { "" },
                if *cnull { "CNULL" } else { "NULL" }
            ),
            BExpr::Like {
                expr,
                pattern,
                negated,
            } => write!(
                f,
                "({expr} {}LIKE {pattern})",
                if *negated { "NOT " } else { "" }
            ),
            BExpr::Between {
                expr,
                low,
                high,
                negated,
            } => write!(
                f,
                "({expr} {}BETWEEN {low} AND {high})",
                if *negated { "NOT " } else { "" }
            ),
            BExpr::InList {
                expr,
                list,
                negated,
            } => {
                write!(f, "({expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, e) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{e}")?;
                }
                f.write_str("))")
            }
            BExpr::InPlan { expr, negated, .. } => write!(
                f,
                "({expr} {}IN (<subquery>))",
                if *negated { "NOT " } else { "" }
            ),
            BExpr::ExistsPlan { negated, .. } => {
                write!(
                    f,
                    "({}EXISTS (<subquery>))",
                    if *negated { "NOT " } else { "" }
                )
            }
            BExpr::ScalarPlan(_) => f.write_str("(<scalar subquery>)"),
            BExpr::Case { branches, .. } => write!(f, "CASE [{} branches]", branches.len()),
            BExpr::Cast { expr, data_type } => {
                write!(f, "CAST({expr} AS {})", data_type.sql_name())
            }
            BExpr::Scalar { func, args } => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                f.write_str(")")
            }
            BExpr::CrowdEqual { left, right } => write!(f, "CROWDEQUAL({left}, {right})"),
            BExpr::CrowdOrder { expr, instruction } => {
                write!(f, "CROWDORDER({expr}, '{instruction}')")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(i: usize) -> BExpr {
        BExpr::Column(i)
    }

    #[test]
    fn column_refs_sorted_deduped() {
        let e = BExpr::Binary {
            left: Box::new(BExpr::Binary {
                left: Box::new(col(3)),
                op: BinaryOp::Add,
                right: Box::new(col(1)),
            }),
            op: BinaryOp::Eq,
            right: Box::new(col(3)),
        };
        assert_eq!(e.column_refs(), vec![1, 3]);
    }

    #[test]
    fn crowd_detection() {
        let e = BExpr::CrowdEqual {
            left: Box::new(col(0)),
            right: Box::new(BExpr::Literal(Value::str("IBM"))),
        };
        assert!(e.is_crowd());
        let wrapped = BExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(e),
        };
        assert!(wrapped.is_crowd());
        assert!(!col(0).is_crowd());
    }

    #[test]
    fn remap_rewrites_ordinals() {
        let e = BExpr::Binary {
            left: Box::new(col(0)),
            op: BinaryOp::Lt,
            right: Box::new(col(2)),
        };
        let shifted = e.remap_columns(&|i| i + 10);
        assert_eq!(shifted.column_refs(), vec![10, 12]);
        // A column in every child position of every variant that has one
        // is both found and moved.
        let every = BExpr::Case {
            operand: Some(Box::new(col(1))),
            branches: vec![(
                BExpr::Like {
                    expr: Box::new(col(2)),
                    pattern: Box::new(col(3)),
                    negated: false,
                },
                BExpr::Scalar {
                    func: ScalarFn::Coalesce,
                    args: vec![
                        col(4),
                        BExpr::Cast {
                            expr: Box::new(col(5)),
                            data_type: DataType::Int,
                        },
                    ],
                },
            )],
            else_expr: Some(Box::new(BExpr::InList {
                expr: Box::new(BExpr::Between {
                    expr: Box::new(col(6)),
                    low: Box::new(col(7)),
                    high: Box::new(col(8)),
                    negated: false,
                }),
                list: vec![
                    col(9),
                    BExpr::Is {
                        expr: Box::new(col(10)),
                        negated: false,
                        cnull: true,
                    },
                ],
                negated: false,
            })),
        };
        assert_eq!(every.column_refs(), (1..=10).collect::<Vec<_>>());
        let moved = every.remap_columns(&|i| i + 10);
        assert_eq!(moved.column_refs(), (11..=20).collect::<Vec<_>>());
    }

    #[test]
    fn display_is_readable() {
        let e = BExpr::Binary {
            left: Box::new(col(1)),
            op: BinaryOp::Eq,
            right: Box::new(BExpr::Literal(Value::str("CrowdDB"))),
        };
        assert_eq!(e.to_string(), "(#1 = 'CrowdDB')");
        let c = BExpr::CrowdOrder {
            expr: Box::new(col(0)),
            instruction: "Which talk did you like better".into(),
        };
        assert!(c.to_string().contains("CROWDORDER(#0"));
    }

    #[test]
    fn scalar_fn_lookup() {
        assert_eq!(ScalarFn::from_name("lower"), Some(ScalarFn::Lower));
        assert_eq!(ScalarFn::from_name("substring"), Some(ScalarFn::Substr));
        assert_eq!(ScalarFn::from_name("nope"), None);
        assert_eq!(AggFn::from_name("avg"), Some(AggFn::Avg));
        assert_eq!(AggFn::from_name("lower"), None);
    }

    #[test]
    fn agg_call_display() {
        let c = AggCall {
            func: AggFn::Count,
            arg: None,
            distinct: false,
        };
        assert_eq!(c.to_string(), "COUNT(*)");
        let d = AggCall {
            func: AggFn::Count,
            arg: Some(col(2)),
            distinct: true,
        };
        assert_eq!(d.to_string(), "COUNT(DISTINCT #2)");
    }
}

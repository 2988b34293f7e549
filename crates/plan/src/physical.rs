//! The physical plan layer: explicit operator choices for the executor.
//!
//! The paper separates a rule-based compiler that *selects* crowd
//! operators (CrowdProbe, CrowdJoin, CrowdCompare embedded in host
//! operators, §3.2.1) from the engine that runs them. [`lower`] performs
//! that selection: it walks the optimized [`LogicalPlan`] and emits a
//! [`PhysicalPlan`] tree in which every decision the executor used to
//! make implicitly is now an explicit, inspectable node:
//!
//! * filter-over-scan fusion and access-path choice →
//!   [`PhysicalPlan::Scan`] with a `residual` predicate (so machine
//!   predicates reject rows *before* any probe task is generated) and an
//!   [`Access`] saying which tuples are fetched at all;
//! * a machine join → [`PhysicalPlan::HashJoin`] on its equi-conjuncts;
//!   one without any is a keyless `HashJoin`, the whole `ON` its
//!   residual, shown as `NestedLoopJoin`;
//! * the CrowdJoin pattern (single-column equi key into a CROWD-table
//!   scan) → [`PhysicalPlan::CrowdJoin`] with its batch-size annotation;
//! * `ORDER BY` → [`PhysicalPlan::Sort`], shown as `CrowdSort` when a key
//!   is a `CROWDORDER` (CrowdCompare inside the sort, see
//!   [`crowd_sorted`]);
//! * `LIMIT` → [`PhysicalPlan::StopAfter`] (the paper's operator name),
//!   which hands a machine-keyed sort below it the number of rows it
//!   needs (`top=k`).
//!
//! Every node carries a [`PhysAnnot`]: the cardinality estimate and
//! boundedness verdict that the one annotation pass
//! ([`crate::bounded`]) gave the logical node it was lowered from.
//! `lower` runs that pass once and reads it; it estimates nothing itself.

use std::borrow::Cow;

use crate::bound_expr::{AggCall, BExpr};
use crate::bounded::{annotate, Annotated, Verdict};
use crate::cardinality::StatsSource;
use crate::logical::{JoinType, LogicalPlan, SortKey};
use crate::optimizer::split_conjuncts;
use crate::schema::PlanSchema;
use crowddb_common::Value;
use crowddb_sql::BinaryOp;

/// Catalog metadata about one index, supplied to [`lower`] by the caller
/// (the plan crate cannot depend on the storage crate, so access-path
/// selection sees indexes through this thin description).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexMeta {
    /// Index name (shown in EXPLAIN).
    pub name: String,
    /// Base-table column ordinals the index covers, in key order.
    pub columns: Vec<usize>,
}

/// Per-outer-tuple quota of crowdsourced matches requested by a
/// [`PhysicalPlan::CrowdJoin`] (the paper's CrowdJoin asks for a handful
/// of matching tuples per outer tuple).
pub const DEFAULT_JOIN_BATCH: u64 = 3;

/// Static annotations attached to every physical node: what the
/// annotation pass ([`crate::bounded`]) computed for the logical node it
/// was lowered from.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysAnnot {
    /// Estimated output rows (see [`crate::cardinality`]).
    pub est_rows: f64,
    /// Whether the subtree, run as a plan of its own, requests a bounded
    /// number of new tuples from the crowd (its verdict is `Bounded`).
    pub bounded: bool,
}

impl PhysAnnot {
    /// Render as the ` {~N rows, bounded}` suffix used in EXPLAIN output.
    pub fn render(&self) -> String {
        format!(
            " {{~{:.0} rows, {}}}",
            self.est_rows,
            if self.bounded { "bounded" } else { "UNBOUNDED" }
        )
    }
}

/// How a [`PhysicalPlan::Scan`] reaches its candidate tuples. Every
/// kind yields a *superset* of the qualifying rows in tid order, so the
/// choice changes which pages are read, never what the query means.
#[derive(Debug, Clone, PartialEq)]
pub enum Access {
    /// Every live tuple (shown as `TableScan`).
    Full,
    /// Index point access (shown as `IndexScan`): the predicate pins
    /// every column of `index` with literal equalities, so the scan
    /// touches only the matching tuples — plus tuples whose key is still
    /// missing, whose CNULLs may decide the predicate and so keep their
    /// probe semantics.
    Point {
        /// The chosen index.
        index: IndexMeta,
        /// Literal key values, one per index column, in key order.
        key: Vec<Value>,
    },
    /// Index range access over a single-column index (shown as
    /// `IndexRangeScan`): literal comparisons bound the key and the
    /// B-tree enumerates the candidate range. Strict bounds need no
    /// special casing — the range is a superset. Missing-key tuples are
    /// included, as for [`Access::Point`].
    Range {
        /// The chosen single-column index.
        index: IndexMeta,
        /// Inclusive lower bound on the key (None = open).
        low: Option<Value>,
        /// Inclusive upper bound on the key (None = open).
        high: Option<Value>,
    },
}

/// An operator kind's name and the names of its per-operator metrics:
/// the rows-in counter, the rows-out counter and the rows-out histogram.
/// The metric names are spelled out at compile time, so flushing a
/// round's stats formats none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpKind {
    /// As shown in EXPLAIN and the stats tree (e.g. `TableScan`).
    pub name: &'static str,
    /// `crowddb_exec_rows_in_total_<op>`, `crowddb_exec_rows_out_total_<op>`
    /// and `crowddb_exec_rows_out_<op>`, `<op>` the name in lowercase.
    pub metrics: [&'static str; 3],
}

/// The [`OpKind`] named `$name`, whose metric names end in `$op`; a
/// `$op` that is not `$name` in lowercase fails to compile.
macro_rules! op_kind {
    ($name:literal, $op:literal) => {{
        const _: () = assert!(
            lowercase_of($name, $op),
            concat!($op, " must be ", $name, " in lowercase")
        );
        OpKind {
            name: $name,
            metrics: [
                concat!("crowddb_exec_rows_in_total_", $op),
                concat!("crowddb_exec_rows_out_total_", $op),
                concat!("crowddb_exec_rows_out_", $op),
            ],
        }
    }};
}

/// Whether `lower` is `name` in ASCII lowercase.
const fn lowercase_of(name: &str, lower: &str) -> bool {
    let (name, lower) = (name.as_bytes(), lower.as_bytes());
    if name.len() != lower.len() {
        return false;
    }
    let mut i = 0;
    while i < name.len() {
        if name[i].to_ascii_lowercase() != lower[i] {
            return false;
        }
        i += 1;
    }
    true
}

/// A physical operator tree, lowered from an optimized [`LogicalPlan`]
/// by [`lower`]. Execution semantics (one evaluation per round, rows
/// pushed from operator to operator) live in `crowddb-exec`; this type only records *which* operator runs where.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Base-table access — the one way a plan (and an `UPDATE`/`DELETE`)
    /// reads stored tuples — with CrowdProbe insertion points: needed
    /// CROWD columns holding `CNULL` probe the crowd; a bounded
    /// CROWD-table scan short of `expected_tuples` asks for new tuples. A
    /// fused `residual` predicate is evaluated before any probe need is
    /// generated (predicate push-down "minimizes the requests against
    /// the crowd", paper §3.2.2). `access` only narrows which tuples are
    /// fetched; the residual is always the full predicate, re-evaluated
    /// exactly over the candidates.
    Scan {
        /// Base table name.
        table: String,
        /// Visible alias (equals `table` when not aliased).
        alias: String,
        /// Output schema (base-table columns).
        schema: PlanSchema,
        /// Scanning a `CREATE CROWD TABLE`?
        crowd_table: bool,
        /// Column ordinals the query actually uses (probe candidates).
        needed_columns: Vec<usize>,
        /// Tuple quota for bounded CROWD-table scans.
        expected_tuples: Option<u64>,
        /// How the candidate tuples are reached.
        access: Access,
        /// Fused filter predicate, if the logical plan had a filter
        /// directly over this scan.
        residual: Option<BExpr>,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Standalone filter (input is not a scan, so no fusion applies).
    Filter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Predicate; rows whose truth value is not `True` are dropped.
        predicate: BExpr,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Projection of expressions over the input.
    Project {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Output expressions.
        exprs: Vec<BExpr>,
        /// Output schema.
        schema: PlanSchema,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Hash join on the equi-conjuncts, building on the right side and
    /// probing with the left (the executor builds first and streams the
    /// left input through the probe where it may); `residual` conjuncts
    /// are evaluated on each joined row. Without an
    /// equi key it is a nested-loop join (every left row meets every
    /// right row) whose residual is the whole `ON`, if any, and EXPLAIN
    /// shows it as `NestedLoopJoin … ON p`.
    HashJoin {
        /// Left (probe) input.
        left: Box<PhysicalPlan>,
        /// Right (build) input.
        right: Box<PhysicalPlan>,
        /// Join type.
        kind: JoinType,
        /// Equi-key pairs `(left expr, right expr)`; the right expr is
        /// already remapped to right-row ordinals.
        equi: Vec<(BExpr, BExpr)>,
        /// Non-equi conjuncts of the join condition.
        residual: Vec<BExpr>,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// The paper's CrowdJoin: an index nested-loop join whose inner side
    /// is a CROWD-table scan. Outer rows without a match generate
    /// new-tuple needs with the join key preset, `batch_size` at a time.
    CrowdJoin {
        /// Left (outer) input.
        left: Box<PhysicalPlan>,
        /// Right (inner, crowd) input.
        right: Box<PhysicalPlan>,
        /// Join type.
        kind: JoinType,
        /// The single equi-key pair `(left expr, right expr)`.
        equi: (BExpr, BExpr),
        /// Non-equi conjuncts of the join condition.
        residual: Vec<BExpr>,
        /// The inner CROWD table new tuples are requested for.
        inner_table: String,
        /// Inner column name the join key is preset on.
        key_column: String,
        /// Index on the inner key column, when one exists: the executor
        /// probes it per distinct outer key (true index nested-loop, the
        /// paper's CrowdJoin shape) instead of hashing a full inner scan.
        probe_index: Option<IndexMeta>,
        /// How many tuples to request per unmatched outer row.
        batch_size: u64,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Sort. When a key is a `CROWDORDER` ([`crowd_sorted`]; shown as
    /// `CrowdSort`) it is the paper's CrowdCompare inside a deterministic
    /// quicksort, consulting the session order cache and emitting
    /// compare needs for missing pairs.
    Sort {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Sort keys.
        keys: Vec<SortKey>,
        /// Emit only the first `k` rows of the (stable) order, keeping
        /// no more than `k` while sorting — shown as `top=k`. Set by
        /// [`lower`] on a machine-keyed sort that a `LIMIT` reads through
        /// nothing but projections which ask no crowd: `offset + limit`.
        keep: Option<u64>,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Grouped aggregation.
    Aggregate {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Grouping expressions.
        group_by: Vec<BExpr>,
        /// Aggregate calls.
        aggs: Vec<AggCall>,
        /// Output schema.
        schema: PlanSchema,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// The paper's StopAfter operator (`LIMIT`/`OFFSET`).
    StopAfter {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Maximum rows to emit (`None` = unlimited, offset only).
        limit: Option<u64>,
        /// Rows to skip first.
        offset: u64,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Duplicate elimination.
    Distinct {
        /// Input operator.
        input: Box<PhysicalPlan>,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Literal rows (`SELECT` without `FROM`).
    Values {
        /// Row expressions.
        rows: Vec<Vec<BExpr>>,
        /// Output schema.
        schema: PlanSchema,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
    /// Bag/set union of two inputs.
    Union {
        /// Left input.
        left: Box<PhysicalPlan>,
        /// Right input.
        right: Box<PhysicalPlan>,
        /// `UNION ALL` (keep duplicates)?
        all: bool,
        /// Cardinality/boundedness annotations.
        annot: PhysAnnot,
    },
}

impl PhysicalPlan {
    /// Output schema of this operator: lent where a node below holds it,
    /// built only where a join puts two together.
    pub fn schema(&self) -> Cow<'_, PlanSchema> {
        match self {
            PhysicalPlan::Scan { schema, .. }
            | PhysicalPlan::Project { schema, .. }
            | PhysicalPlan::Aggregate { schema, .. }
            | PhysicalPlan::Values { schema, .. } => Cow::Borrowed(schema),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::StopAfter { input, .. }
            | PhysicalPlan::Distinct { input, .. } => input.schema(),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::CrowdJoin { left, right, .. } => {
                Cow::Owned(left.schema().join(&right.schema()))
            }
            PhysicalPlan::Union { left, .. } => left.schema(),
        }
    }

    /// The node's annotations.
    pub fn annot(&self) -> &PhysAnnot {
        match self {
            PhysicalPlan::Scan { annot, .. }
            | PhysicalPlan::Filter { annot, .. }
            | PhysicalPlan::Project { annot, .. }
            | PhysicalPlan::HashJoin { annot, .. }
            | PhysicalPlan::CrowdJoin { annot, .. }
            | PhysicalPlan::Sort { annot, .. }
            | PhysicalPlan::Aggregate { annot, .. }
            | PhysicalPlan::StopAfter { annot, .. }
            | PhysicalPlan::Distinct { annot, .. }
            | PhysicalPlan::Values { annot, .. }
            | PhysicalPlan::Union { annot, .. } => annot,
        }
    }

    /// Child operators, in plan order (a join's left input first).
    pub fn children(&self) -> Vec<&PhysicalPlan> {
        self.inputs().collect()
    }

    /// [`PhysicalPlan::children`], visited in place: nothing is collected.
    pub fn inputs(&self) -> impl Iterator<Item = &PhysicalPlan> {
        let (first, second) = match self {
            PhysicalPlan::Scan { .. } | PhysicalPlan::Values { .. } => (None, None),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::StopAfter { input, .. }
            | PhysicalPlan::Distinct { input, .. } => (Some(&**input), None),
            PhysicalPlan::HashJoin { left, right, .. }
            | PhysicalPlan::CrowdJoin { left, right, .. }
            | PhysicalPlan::Union { left, right, .. } => (Some(&**left), Some(&**right)),
        };
        first.into_iter().chain(second)
    }

    /// Operator name, as shown in EXPLAIN and the stats tree.
    pub fn name(&self) -> &'static str {
        self.kind().name
    }

    /// The operator's name and its metric names.
    pub fn kind(&self) -> OpKind {
        match self {
            PhysicalPlan::Scan { access, .. } => match access {
                Access::Full => op_kind!("TableScan", "tablescan"),
                Access::Point { .. } => op_kind!("IndexScan", "indexscan"),
                Access::Range { .. } => op_kind!("IndexRangeScan", "indexrangescan"),
            },
            PhysicalPlan::Filter { predicate, .. } => {
                if predicate.is_crowd() {
                    op_kind!("CrowdFilter", "crowdfilter")
                } else {
                    op_kind!("Filter", "filter")
                }
            }
            PhysicalPlan::Project { .. } => op_kind!("Project", "project"),
            PhysicalPlan::HashJoin { equi, .. } if equi.is_empty() => {
                op_kind!("NestedLoopJoin", "nestedloopjoin")
            }
            PhysicalPlan::HashJoin { .. } => op_kind!("HashJoin", "hashjoin"),
            PhysicalPlan::CrowdJoin { .. } => op_kind!("CrowdJoin", "crowdjoin"),
            PhysicalPlan::Sort { keys, .. } if crowd_sorted(keys) => {
                op_kind!("CrowdSort", "crowdsort")
            }
            PhysicalPlan::Sort { .. } => op_kind!("Sort", "sort"),
            PhysicalPlan::Aggregate { .. } => op_kind!("Aggregate", "aggregate"),
            PhysicalPlan::StopAfter { .. } => op_kind!("StopAfter", "stopafter"),
            PhysicalPlan::Distinct { .. } => op_kind!("Distinct", "distinct"),
            PhysicalPlan::Values { .. } => op_kind!("Values", "values"),
            PhysicalPlan::Union { .. } => op_kind!("Union", "union"),
        }
    }

    /// One-line description of this node (no children, no annotations).
    pub fn describe(&self) -> String {
        match self {
            PhysicalPlan::Scan {
                table,
                alias,
                schema,
                crowd_table,
                needed_columns,
                expected_tuples,
                access,
                residual,
                ..
            } => {
                let col = |c: &usize| schema.columns.get(*c).map_or("?", |col| col.name.as_str());
                let via = match access {
                    Access::Full => String::new(),
                    Access::Point { index, key } => {
                        let keys: Vec<String> = index
                            .columns
                            .iter()
                            .zip(key)
                            .map(|(c, v)| format!("{}={}", col(c), v.sql_literal()))
                            .collect();
                        format!(" via {} [key: {}]", index.name, keys.join(", "))
                    }
                    Access::Range { index, low, high } => {
                        let col = index.columns.first().map_or("?", col);
                        let range = match (low, high) {
                            (Some(l), Some(h)) => {
                                format!("{} <= {col} <= {}", l.sql_literal(), h.sql_literal())
                            }
                            (Some(l), None) => format!("{col} >= {}", l.sql_literal()),
                            (None, Some(h)) => format!("{col} <= {}", h.sql_literal()),
                            (None, None) => col.to_string(),
                        };
                        format!(" via {} [range: {range}]", index.name)
                    }
                };
                let probe_cols: Vec<&str> = needed_columns
                    .iter()
                    .filter_map(|&i| schema.columns.get(i))
                    .filter(|c| c.crowd || *crowd_table)
                    .map(|c| c.name.as_str())
                    .collect();
                let mut out = format!("{} {table}", self.name());
                if alias != table {
                    out += &format!(" AS {alias}");
                }
                out += &via;
                if *crowd_table {
                    out += " [CROWD TABLE]";
                }
                if !probe_cols.is_empty() {
                    out += &format!(" [probe: {}]", probe_cols.join(", "));
                }
                if let Some(n) = expected_tuples {
                    out += &format!(" [expect ≤{n} tuples]");
                }
                if let Some(p) = residual {
                    out += &format!(" [residual: {p}]");
                }
                out
            }
            PhysicalPlan::Filter { predicate, .. } => format!("{} {predicate}", self.name()),
            PhysicalPlan::Project { exprs, .. } => {
                let cols: Vec<String> = exprs.iter().map(|e| e.to_string()).collect();
                format!("Project {}", cols.join(", "))
            }
            PhysicalPlan::HashJoin {
                kind,
                equi,
                residual,
                ..
            } if equi.is_empty() => {
                let on = residual
                    .first()
                    .map_or(String::new(), |p| format!(" ON {p}"));
                format!("{} {}{on}", self.name(), kind.name())
            }
            PhysicalPlan::HashJoin {
                kind,
                equi,
                residual,
                ..
            } => {
                let keys: Vec<String> = equi.iter().map(|(l, r)| format!("{l}={r}")).collect();
                format!(
                    "HashJoin {} on=[{}]{}",
                    kind.name(),
                    keys.join(", "),
                    render_residual(residual)
                )
            }
            PhysicalPlan::CrowdJoin {
                kind,
                equi,
                residual,
                inner_table,
                key_column,
                probe_index,
                batch_size,
                ..
            } => format!(
                "CrowdJoin {} on=[{}={}] inner={inner_table} key={key_column}{} \
                 batch={batch_size}{}",
                kind.name(),
                equi.0,
                equi.1,
                match probe_index {
                    Some(idx) => format!(" [INL probe via {}]", idx.name),
                    None => String::new(),
                },
                render_residual(residual)
            ),
            PhysicalPlan::Sort { keys, keep, .. } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|k| format!("{}{}", k.expr, if k.desc { " DESC" } else { "" }))
                    .collect();
                let top = keep.map_or(String::new(), |k| format!(" top={k}"));
                format!("{} {}{top}", self.name(), ks.join(", "))
            }
            PhysicalPlan::Aggregate { group_by, aggs, .. } => {
                let g: Vec<String> = group_by.iter().map(|e| e.to_string()).collect();
                let a: Vec<String> = aggs.iter().map(|c| c.to_string()).collect();
                format!("Aggregate group=[{}] aggs=[{}]", g.join(", "), a.join(", "))
            }
            PhysicalPlan::StopAfter { limit, offset, .. } => format!(
                "StopAfter{}{}",
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
            PhysicalPlan::Distinct { .. } => "Distinct".to_string(),
            PhysicalPlan::Values { rows, .. } => format!("Values [{} rows]", rows.len()),
            PhysicalPlan::Union { all, .. } => {
                format!("Union{}", if *all { " ALL" } else { "" })
            }
        }
    }

    /// Render the tree as an indented EXPLAIN block, annotations
    /// included.
    pub fn explain(&self) -> String {
        fn rec(plan: &PhysicalPlan, depth: usize, out: &mut String) {
            let pad = "  ".repeat(depth);
            out.push_str(&format!(
                "{pad}{}{}\n",
                plan.describe(),
                plan.annot().render()
            ));
            for c in plan.children() {
                rec(c, depth + 1, out);
            }
        }
        let mut out = String::new();
        rec(self, 0, &mut out);
        out
    }
}

/// Whether a [`PhysicalPlan::Sort`] over `keys` asks the crowd: some key
/// is a `CROWDORDER`, so it sorts by CrowdCompare (and EXPLAIN shows
/// `CrowdSort`).
pub fn crowd_sorted(keys: &[SortKey]) -> bool {
    keys.iter()
        .any(|k| matches!(k.expr, BExpr::CrowdOrder { .. }))
}

fn render_residual(residual: &[BExpr]) -> String {
    if residual.is_empty() {
        String::new()
    } else {
        let rs: Vec<String> = residual.iter().map(|e| e.to_string()).collect();
        format!(" residual=[{}]", rs.join(", "))
    }
}

/// Lower an optimized logical plan to a physical operator tree.
///
/// `stats` and `pk_columns` feed the annotation pass whose per-node
/// estimate and verdict every node carries, and `indexes` the
/// access-path selection; all come from the catalog in practice (see
/// `crowddb_exec`'s driver).
pub fn lower(
    plan: &LogicalPlan,
    stats: &dyn StatsSource,
    pk_columns: &dyn Fn(&str) -> Vec<usize>,
    indexes: &dyn Fn(&str) -> Vec<IndexMeta>,
) -> PhysicalPlan {
    lower_node(&annotate(plan, stats, pk_columns).0, indexes)
}

fn lower_node(node: &Annotated, indexes: &dyn Fn(&str) -> Vec<IndexMeta>) -> PhysicalPlan {
    let annot = PhysAnnot {
        est_rows: node.est_rows,
        bounded: node.verdict == Verdict::Bounded,
    };
    let input = |i: usize| Box::new(lower_node(&node.inputs[i], indexes));
    match node.plan {
        LogicalPlan::Scan { .. } => lower_scan(node.plan, None, annot, indexes),
        // Filter-over-scan fusion: the predicate becomes the scan's
        // residual so decidedly-rejected rows never generate probes — and,
        // when the predicate pins an index, the scan itself narrows to an
        // index access path.
        LogicalPlan::Filter {
            input: scan,
            predicate,
        } if matches!(**scan, LogicalPlan::Scan { .. }) => {
            lower_scan(scan, Some(predicate), annot, indexes)
        }
        LogicalPlan::Filter { predicate, .. } => PhysicalPlan::Filter {
            input: input(0),
            predicate: predicate.clone(),
            annot,
        },
        LogicalPlan::Project { exprs, schema, .. } => PhysicalPlan::Project {
            input: input(0),
            exprs: exprs.clone(),
            schema: schema.clone(),
            annot,
        },
        LogicalPlan::Join {
            left,
            right,
            kind,
            on,
        } => {
            let left_arity = left.schema().arity();
            let (equi, mut residual) = split_join_condition(on.as_ref(), left_arity);
            let (pleft, pright) = (input(0), input(1));
            // No equi key: a nested loop, the whole ON its one residual.
            if equi.is_empty() {
                residual = on.iter().cloned().collect();
            }
            // The CrowdJoin pattern: exactly one equi key, landing on a
            // base column of a CROWD-table scan on the inner side.
            if equi.len() == 1 {
                if let Some((scan_table, scan_schema)) = crowd_scan_of(right) {
                    if let BExpr::Column(rc) = &equi[0].1 {
                        let key_column = scan_schema.columns[*rc].name.clone();
                        // Index nested-loop upgrade: a single-column
                        // index on the inner key lets the executor probe
                        // per outer key instead of hashing a full scan.
                        let probe_index = indexes(&scan_table)
                            .into_iter()
                            .find(|idx| idx.columns == [*rc]);
                        let equi0 = equi.into_iter().next().expect("len checked");
                        return PhysicalPlan::CrowdJoin {
                            left: pleft,
                            right: pright,
                            kind: *kind,
                            equi: equi0,
                            residual,
                            inner_table: scan_table,
                            key_column,
                            probe_index,
                            batch_size: DEFAULT_JOIN_BATCH,
                            annot,
                        };
                    }
                }
            }
            PhysicalPlan::HashJoin {
                left: pleft,
                right: pright,
                kind: *kind,
                equi,
                residual,
                annot,
            }
        }
        LogicalPlan::Aggregate {
            group_by,
            aggs,
            schema,
            ..
        } => PhysicalPlan::Aggregate {
            input: input(0),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
            schema: schema.clone(),
            annot,
        },
        LogicalPlan::Sort { keys, .. } => PhysicalPlan::Sort {
            input: input(0),
            keys: keys.clone(),
            keep: None,
            annot,
        },
        LogicalPlan::Limit { limit, offset, .. } => {
            let mut input = input(0);
            if let Some(limit) = limit {
                keep_top(&mut input, offset.saturating_add(*limit));
            }
            PhysicalPlan::StopAfter {
                input,
                limit: *limit,
                offset: *offset,
                annot,
            }
        }
        LogicalPlan::Distinct { .. } => PhysicalPlan::Distinct {
            input: input(0),
            annot,
        },
        LogicalPlan::Values { rows, schema } => PhysicalPlan::Values {
            rows: rows.clone(),
            schema: schema.clone(),
            annot,
        },
        LogicalPlan::Union { all, .. } => PhysicalPlan::Union {
            left: input(0),
            right: input(1),
            all: *all,
            annot,
        },
    }
}

/// Stop-after push-down into a sort: the machine-keyed [`PhysicalPlan::Sort`]
/// under `plan` — `plan` itself or below projections — keeps its first `k`
/// rows only. A projection that asks the crowd or holds a subquery stops
/// the descent: it evaluates every row the sort emits, so keeping fewer
/// would change what it asks. A `CROWDORDER` sort keeps its every row
/// too: the comparisons it asks are the bill.
fn keep_top(plan: &mut PhysicalPlan, k: u64) {
    match plan {
        PhysicalPlan::Sort { keys, keep, .. } if !crowd_sorted(keys) => *keep = Some(k),
        PhysicalPlan::Project { input, exprs, .. }
            if !exprs.iter().any(|e| e.is_crowd() || e.has_subplan()) =>
        {
            keep_top(input, k)
        }
        _ => {}
    }
}

/// Build the one base-access node from a `LogicalPlan::Scan`, with the
/// fused `residual` and the access path it allows.
fn lower_scan(
    scan: &LogicalPlan,
    residual: Option<&BExpr>,
    annot: PhysAnnot,
    indexes: &dyn Fn(&str) -> Vec<IndexMeta>,
) -> PhysicalPlan {
    let LogicalPlan::Scan {
        table,
        alias,
        schema,
        crowd_table,
        needed_columns,
        expected_tuples,
    } = scan
    else {
        unreachable!("lower_scan over {scan:?}")
    };
    let access = residual.map_or(Access::Full, |p| choose_access(p, schema, &indexes(table)));
    PhysicalPlan::Scan {
        table: table.clone(),
        alias: alias.clone(),
        schema: schema.clone(),
        crowd_table: *crowd_table,
        needed_columns: needed_columns.clone(),
        expected_tuples: *expected_tuples,
        access,
        residual: residual.cloned(),
        annot,
    }
}

/// Pick the access path for a fused scan predicate: an index path when
/// one applies, [`Access::Full`] otherwise. Deterministic selection
/// rules, in order:
///
/// 1. **Point**: the index whose columns are *all* pinned by literal
///    equalities; ties broken by most columns pinned, then catalog
///    order. (A unique multi-column match beats a single-column one.)
/// 2. **Range**: the first single-column index whose column has at
///    least one literal comparison bound.
///
/// A point probe matches stored keys exactly, where SQL `=` unifies
/// numerics, so a pin only counts when its literal stores as the
/// column's type: `price = 3` probes a FLOAT index with `3.0`, while
/// `id = 3.0` on an INTEGER column pins nothing and the residual decides
/// over a wider access. Range bounds need no such care — index order
/// unifies numerics — and are deliberately sloppy-inclusive (`>`
/// contributes the same lower bound as `>=`): the full predicate is
/// re-evaluated as the residual, so the access path only has to be a
/// superset.
fn choose_access(predicate: &BExpr, schema: &PlanSchema, indexes: &[IndexMeta]) -> Access {
    // A comparison against a missing literal is Unknown for every row:
    // no key to probe with. (The boundedness rule reads the same
    // comparisons but does count `pk = NULL` as a pin — it bounds how
    // many entities are *requested*, and that is still at most one.)
    let cmps: Vec<(usize, BinaryOp, &Value)> = predicate
        .literal_comparisons()
        .into_iter()
        .filter(|(_, _, lit)| !lit.is_missing())
        .collect();
    // The first equality on `col` whose literal is a storable key.
    let pin = |col: usize| {
        let ty = schema.columns[col].data_type?;
        cmps.iter()
            .filter(|(c, op, _)| *c == col && *op == BinaryOp::Eq)
            .find_map(|(.., lit)| (*lit).clone().coerce_to(ty))
    };
    // The first comparison on `col` among `ops`.
    let bound = |col: usize, ops: [BinaryOp; 2]| {
        cmps.iter()
            .find(|(c, op, _)| *c == col && ops.contains(op))
            .map(|(.., lit)| (*lit).clone())
    };
    // Rule 1: fully pinned index, widest first.
    let mut best: Option<(&IndexMeta, Vec<Value>)> = None;
    for idx in indexes {
        let key: Option<Vec<Value>> = idx.columns.iter().map(|&c| pin(c)).collect();
        if let Some(key) = key {
            if !key.is_empty()
                && best
                    .as_ref()
                    .is_none_or(|(b, _)| key.len() > b.columns.len())
            {
                best = Some((idx, key));
            }
        }
    }
    if let Some((index, key)) = best {
        return Access::Point {
            index: index.clone(),
            key,
        };
    }
    // Rule 2: single-column index with a range bound. (A
    // storable equality pin on such an index is caught by rule 1.)
    for idx in indexes {
        if idx.columns.len() != 1 {
            continue;
        }
        let low = bound(idx.columns[0], [BinaryOp::Gt, BinaryOp::GtEq]);
        let high = bound(idx.columns[0], [BinaryOp::Lt, BinaryOp::LtEq]);
        if low.is_some() || high.is_some() {
            return Access::Range {
                index: idx.clone(),
                low,
                high,
            };
        }
    }
    Access::Full
}

/// Split a join condition into hashable equi-conjuncts (right exprs
/// remapped to right-row ordinals) and residual conjuncts — the same
/// decomposition the executor applies at runtime, now made static.
pub fn split_join_condition(
    on: Option<&BExpr>,
    left_arity: usize,
) -> (Vec<(BExpr, BExpr)>, Vec<BExpr>) {
    let mut equi: Vec<(BExpr, BExpr)> = Vec::new();
    let mut residual: Vec<BExpr> = Vec::new();
    if let Some(on) = on {
        let mut conjuncts = Vec::new();
        split_conjuncts(on.clone(), &mut conjuncts);
        for c in conjuncts {
            if let BExpr::Binary {
                left: cl,
                op: BinaryOp::Eq,
                right: cr,
            } = &c
            {
                let l_refs = cl.column_refs();
                let r_refs = cr.column_refs();
                let l_is_left = l_refs.iter().all(|&i| i < left_arity);
                let l_is_right = l_refs.iter().all(|&i| i >= left_arity);
                let r_is_left = r_refs.iter().all(|&i| i < left_arity);
                let r_is_right = r_refs.iter().all(|&i| i >= left_arity);
                if l_is_left && r_is_right && !r_refs.is_empty() {
                    equi.push(((**cl).clone(), cr.remap_columns(&|i| i - left_arity)));
                    continue;
                }
                if l_is_right && r_is_left && !l_refs.is_empty() {
                    equi.push(((**cr).clone(), cl.remap_columns(&|i| i - left_arity)));
                    continue;
                }
            }
            residual.push(c);
        }
    }
    (equi, residual)
}

/// If `plan` is a CROWD-table scan (possibly under filters that keep
/// base columns in place), return its table name and schema.
fn crowd_scan_of(plan: &LogicalPlan) -> Option<(String, PlanSchema)> {
    match plan {
        LogicalPlan::Scan {
            table,
            crowd_table: true,
            schema,
            ..
        } => Some((table.clone(), schema.clone())),
        LogicalPlan::Filter { input, .. } => crowd_scan_of(input),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cardinality::FnStats;
    use crate::logical::scan_schema;
    use crowddb_common::{DataType, Value};

    fn stats() -> FnStats<impl Fn(&str) -> Option<u64>> {
        FnStats(|_t: &str| Some(100))
    }

    fn pk(_t: &str) -> Vec<usize> {
        vec![0]
    }

    fn lower_t(plan: &LogicalPlan) -> PhysicalPlan {
        lower(plan, &stats(), &pk, &|_| vec![])
    }

    fn lower_idx(plan: &LogicalPlan, idx: Vec<IndexMeta>) -> PhysicalPlan {
        lower(plan, &stats(), &pk, &move |_| idx.clone())
    }

    fn talk_scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "talk".into(),
            alias: "talk".into(),
            schema: scan_schema(
                "talk",
                &[
                    ("title".into(), DataType::Str, false),
                    ("nb_attendees".into(), DataType::Int, true),
                ],
                "talk",
            ),
            crowd_table: false,
            needed_columns: vec![0, 1],
            expected_tuples: None,
        }
    }

    fn attendee_scan() -> LogicalPlan {
        LogicalPlan::Scan {
            table: "notableattendee".into(),
            alias: "notableattendee".into(),
            schema: scan_schema(
                "notableattendee",
                &[
                    ("name".into(), DataType::Str, false),
                    ("title".into(), DataType::Str, false),
                ],
                "notableattendee",
            ),
            crowd_table: true,
            needed_columns: vec![0, 1],
            expected_tuples: Some(5),
        }
    }

    fn col(i: usize) -> BExpr {
        BExpr::Column(i)
    }

    fn eq(l: BExpr, r: BExpr) -> BExpr {
        BExpr::Binary {
            left: Box::new(l),
            op: BinaryOp::Eq,
            right: Box::new(r),
        }
    }

    #[test]
    fn scan_lowers_to_table_scan() {
        let p = lower_t(&talk_scan());
        let PhysicalPlan::Scan {
            table,
            access: Access::Full,
            residual,
            ..
        } = &p
        else {
            panic!("{p:?}")
        };
        assert_eq!(p.name(), "TableScan");
        assert_eq!(table, "talk");
        assert!(residual.is_none());
        assert!(p.annot().bounded);
    }

    #[test]
    fn filter_over_scan_fuses_residual() {
        let plan = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: eq(col(0), BExpr::Literal(Value::str("CrowdDB"))),
        };
        let p = lower_t(&plan);
        let PhysicalPlan::Scan {
            access: Access::Full,
            residual,
            ..
        } = &p
        else {
            panic!("{p:?}")
        };
        assert!(residual.is_some(), "predicate must fuse into the scan");
    }

    #[test]
    fn filter_over_join_stays_a_filter() {
        let join = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(talk_scan()),
            kind: JoinType::Cross,
            on: None,
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(join),
            predicate: eq(col(0), col(2)),
        };
        let p = lower_t(&plan);
        assert!(matches!(p, PhysicalPlan::Filter { .. }), "{p:?}");
    }

    #[test]
    fn equi_join_lowers_to_hash_join() {
        let plan = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(talk_scan()),
            kind: JoinType::Inner,
            on: Some(eq(col(0), col(2))),
        };
        let p = lower_t(&plan);
        let PhysicalPlan::HashJoin { equi, residual, .. } = &p else {
            panic!("{p:?}")
        };
        assert_eq!(equi.len(), 1);
        assert_eq!(equi[0].1, col(0), "right key remapped to right ordinals");
        assert!(residual.is_empty());
    }

    #[test]
    fn crowd_inner_equi_join_lowers_to_crowd_join() {
        let plan = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(attendee_scan()),
            kind: JoinType::Inner,
            on: Some(eq(col(0), col(3))),
        };
        let p = lower_t(&plan);
        let PhysicalPlan::CrowdJoin {
            inner_table,
            key_column,
            batch_size,
            ..
        } = &p
        else {
            panic!("{p:?}")
        };
        assert_eq!(inner_table, "notableattendee");
        assert_eq!(key_column, "title");
        assert_eq!(*batch_size, DEFAULT_JOIN_BATCH);
    }

    #[test]
    fn multi_key_join_with_crowd_inner_stays_hash_join() {
        let plan = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(attendee_scan()),
            kind: JoinType::Inner,
            on: Some(BExpr::Binary {
                left: Box::new(eq(col(0), col(3))),
                op: BinaryOp::And,
                right: Box::new(eq(col(0), col(2))),
            }),
        };
        let p = lower_t(&plan);
        assert!(matches!(p, PhysicalPlan::HashJoin { .. }), "{p:?}");
    }

    #[test]
    fn join_without_equi_key_lowers_to_nested_loop() {
        let plan = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(talk_scan()),
            kind: JoinType::Inner,
            on: Some(BExpr::Binary {
                left: Box::new(col(1)),
                op: BinaryOp::Lt,
                right: Box::new(col(3)),
            }),
        };
        let p = lower_t(&plan);
        assert_eq!(p.name(), "NestedLoopJoin", "{p:?}");
    }

    #[test]
    fn residual_conjuncts_split_from_equi() {
        let on = BExpr::Binary {
            left: Box::new(eq(col(0), col(2))),
            op: BinaryOp::And,
            right: Box::new(BExpr::Binary {
                left: Box::new(col(1)),
                op: BinaryOp::Lt,
                right: Box::new(col(3)),
            }),
        };
        let (equi, residual) = split_join_condition(Some(&on), 2);
        assert_eq!(equi.len(), 1);
        assert_eq!(residual.len(), 1);
    }

    #[test]
    fn crowdorder_key_selects_crowd_sort() {
        let plan = LogicalPlan::Sort {
            input: Box::new(talk_scan()),
            keys: vec![SortKey {
                expr: BExpr::CrowdOrder {
                    expr: Box::new(col(0)),
                    instruction: "which?".into(),
                },
                desc: false,
            }],
        };
        let p = lower_t(&plan);
        assert_eq!(p.name(), "CrowdSort", "{p:?}");
    }

    #[test]
    fn machine_keys_select_machine_sort() {
        let plan = LogicalPlan::Sort {
            input: Box::new(talk_scan()),
            keys: vec![SortKey {
                expr: col(0),
                desc: true,
            }],
        };
        let p = lower_t(&plan);
        assert_eq!(p.name(), "Sort", "{p:?}");
    }

    #[test]
    fn limit_lowers_to_stop_after() {
        let plan = LogicalPlan::Limit {
            input: Box::new(attendee_scan()),
            limit: Some(5),
            offset: 1,
        };
        let p = lower_t(&plan);
        let PhysicalPlan::StopAfter { limit, offset, .. } = &p else {
            panic!("{p:?}")
        };
        assert_eq!(*limit, Some(5));
        assert_eq!(*offset, 1);
        assert!(p.explain().contains("StopAfter 5 OFFSET 1"));
    }

    #[test]
    fn unbounded_crowd_scan_annotated() {
        let mut scan = attendee_scan();
        if let LogicalPlan::Scan {
            expected_tuples, ..
        } = &mut scan
        {
            *expected_tuples = None;
        }
        let p = lower_t(&scan);
        assert!(!p.annot().bounded);
        assert!(p.explain().contains("UNBOUNDED"), "{}", p.explain());
    }

    fn pk_index() -> IndexMeta {
        IndexMeta {
            name: "talk_pk".into(),
            columns: vec![0],
        }
    }

    fn att_index() -> IndexMeta {
        IndexMeta {
            name: "talk_att".into(),
            columns: vec![1],
        }
    }

    #[test]
    fn pinned_index_column_selects_index_scan() {
        let plan = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: eq(col(0), BExpr::Literal(Value::str("CrowdDB"))),
        };
        let p = lower_idx(&plan, vec![pk_index(), att_index()]);
        let PhysicalPlan::Scan {
            access: Access::Point { index, key },
            residual,
            ..
        } = &p
        else {
            panic!("{p:?}")
        };
        assert_eq!(p.name(), "IndexScan");
        assert_eq!(index.name, "talk_pk");
        assert_eq!(key, &[Value::str("CrowdDB")]);
        assert!(residual.is_some(), "full predicate stays as residual");
        assert!(
            p.explain().contains("IndexScan talk via talk_pk"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn widest_fully_pinned_index_wins() {
        let wide = IndexMeta {
            name: "talk_both".into(),
            columns: vec![0, 1],
        };
        let plan = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: BExpr::Binary {
                left: Box::new(eq(col(0), BExpr::Literal(Value::str("a")))),
                op: BinaryOp::And,
                right: Box::new(eq(col(1), BExpr::Literal(Value::Int(7)))),
            },
        };
        let p = lower_idx(&plan, vec![pk_index(), wide]);
        let PhysicalPlan::Scan {
            access: Access::Point { index, key },
            ..
        } = &p
        else {
            panic!("{p:?}")
        };
        assert_eq!(index.name, "talk_both");
        assert_eq!(key, &[Value::str("a"), Value::Int(7)]);
    }

    #[test]
    fn range_bounds_select_index_range_scan() {
        let plan = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: BExpr::Binary {
                left: Box::new(BExpr::Binary {
                    left: Box::new(col(1)),
                    op: BinaryOp::GtEq,
                    right: Box::new(BExpr::Literal(Value::Int(10))),
                }),
                op: BinaryOp::And,
                right: Box::new(BExpr::Binary {
                    left: Box::new(BExpr::Literal(Value::Int(50))),
                    op: BinaryOp::Gt,
                    right: Box::new(col(1)),
                }),
            },
        };
        let p = lower_idx(&plan, vec![pk_index(), att_index()]);
        let PhysicalPlan::Scan {
            access: Access::Range { index, low, high },
            ..
        } = &p
        else {
            panic!("{p:?}")
        };
        assert_eq!(p.name(), "IndexRangeScan");
        assert_eq!(index.name, "talk_att");
        assert_eq!(low.as_ref(), Some(&Value::Int(10)));
        // `50 > col` flips to `col < 50`; sloppy-inclusive upper bound.
        assert_eq!(high.as_ref(), Some(&Value::Int(50)));
        assert!(
            p.explain().contains("IndexRangeScan talk via talk_att"),
            "{}",
            p.explain()
        );
    }

    #[test]
    fn unindexed_predicate_stays_a_table_scan() {
        let plan = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: eq(col(1), BExpr::Literal(Value::Int(10))),
        };
        // Only the (hash) pk index on column 0 exists: no access path.
        let p = lower_idx(&plan, vec![pk_index()]);
        assert!(
            matches!(
                p,
                PhysicalPlan::Scan {
                    access: Access::Full,
                    ..
                }
            ),
            "{p:?}"
        );
    }

    fn and(l: BExpr, r: BExpr) -> BExpr {
        BExpr::Binary {
            left: Box::new(l),
            op: BinaryOp::And,
            right: Box::new(r),
        }
    }

    fn lit(v: Value) -> BExpr {
        BExpr::Literal(v)
    }

    fn access_of(predicate: BExpr, idx: Vec<IndexMeta>) -> Access {
        let plan = LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate,
        };
        let PhysicalPlan::Scan { access, .. } = lower_idx(&plan, idx) else {
            panic!("filter over scan must fuse")
        };
        access
    }

    /// Since the `<table>_pk` index is listed with the table's other
    /// indexes, a predicate that pins the whole primary key with present
    /// literals of the key's own types always gets a Point path — which
    /// is why the executor needs no primary-key fast path of its own
    /// inside a full scan.
    #[test]
    fn pk_pinned_filter_never_lowers_to_full_access() {
        let crowd = BExpr::CrowdEqual {
            left: Box::new(col(0)),
            right: Box::new(lit(Value::str("x"))),
        };
        let composite = IndexMeta {
            name: "talk_pk".into(),
            columns: vec![0, 1],
        };
        let both = and(
            eq(lit(Value::Int(7)), col(1)),
            eq(col(0), lit(Value::str("a"))),
        );
        let cases: Vec<(BExpr, IndexMeta, Vec<Value>)> = vec![
            (
                eq(col(0), lit(Value::str("a"))),
                pk_index(),
                vec![Value::str("a")],
            ),
            (
                eq(lit(Value::str("a")), col(0)),
                pk_index(),
                vec![Value::str("a")],
            ),
            (
                and(crowd.clone(), eq(col(0), lit(Value::str("a")))),
                pk_index(),
                vec![Value::str("a")],
            ),
            (
                both.clone(),
                composite.clone(),
                vec![Value::str("a"), Value::Int(7)],
            ),
            (
                and(and(crowd, both), eq(col(1), lit(Value::Int(9)))),
                composite,
                vec![Value::str("a"), Value::Int(7)],
            ),
        ];
        for (predicate, pk_idx, want) in cases {
            assert!(
                crate::bounded::filter_pins_primary_key(&predicate, &pk_idx.columns),
                "{predicate}"
            );
            // The pk index last: catalog order must not matter either.
            match access_of(predicate.clone(), vec![att_index(), pk_idx]) {
                Access::Point { index, key } => {
                    assert_eq!(index.name, "talk_pk", "{predicate}");
                    assert_eq!(key, want, "{predicate}");
                }
                other => panic!("{predicate}: {other:?}"),
            }
        }
    }

    /// `BExpr::literal_comparisons` is the only reader of literal pins;
    /// this holds it to what each of its two callers answered when each
    /// had an analysis of its own.
    #[test]
    fn one_pin_analysis_serves_both_callers() {
        let or = BExpr::Binary {
            left: Box::new(eq(col(0), lit(Value::str("a")))),
            op: BinaryOp::Or,
            right: Box::new(eq(col(0), lit(Value::str("b")))),
        };
        let gt = |l: BExpr, r: BExpr| BExpr::Binary {
            left: Box::new(l),
            op: BinaryOp::Gt,
            right: Box::new(r),
        };
        // (predicate, boundedness says "pins pk [0]", access kind)
        let cases: Vec<(BExpr, bool, &str)> = vec![
            (eq(col(0), lit(Value::str("a"))), true, "IndexScan"),
            (eq(lit(Value::str("a")), col(0)), true, "IndexScan"),
            (
                and(
                    eq(col(1), lit(Value::Int(1))),
                    eq(col(0), lit(Value::str("a"))),
                ),
                true,
                "IndexScan",
            ),
            // The one disagreement, kept: `pk = NULL` bounds the crowd
            // requests (it can match at most one entity — none), but is
            // no key to probe an index with.
            (eq(col(0), lit(Value::Null)), true, "TableScan"),
            (eq(col(0), lit(Value::CNull)), true, "TableScan"),
            // Not pins for either caller.
            (eq(col(0), col(1)), false, "TableScan"),
            (or, false, "TableScan"),
            // A range bound pins nothing for boundedness; any
            // single-column index serves it, the primary key's included.
            (gt(col(0), lit(Value::str("a"))), false, "IndexRangeScan"),
            (gt(lit(Value::Int(5)), col(1)), false, "IndexRangeScan"),
            (eq(col(1), lit(Value::Int(5))), false, "IndexScan"),
            // Only comparisons are read: `title OR 'a'` is not one.
            (
                BExpr::Binary {
                    left: Box::new(col(0)),
                    op: BinaryOp::Or,
                    right: Box::new(lit(Value::str("a"))),
                },
                false,
                "TableScan",
            ),
            // A literal that does not store as the column's type bounds
            // the request like any pin, but is no key: SQL `=` unifies
            // numerics, an index probe matches stored keys exactly.
            (eq(col(0), lit(Value::Int(1))), true, "TableScan"),
            (eq(col(1), lit(Value::Float(5.0))), false, "TableScan"),
            // Index order does unify numerics, so a bound may differ.
            (gt(col(1), lit(Value::Float(4.5))), false, "IndexRangeScan"),
        ];
        for (predicate, pins_pk, kind) in cases {
            assert_eq!(
                crate::bounded::filter_pins_primary_key(&predicate, &[0]),
                pins_pk,
                "{predicate}"
            );
            let plan = LogicalPlan::Filter {
                input: Box::new(talk_scan()),
                predicate: predicate.clone(),
            };
            assert_eq!(
                lower_idx(&plan, vec![pk_index(), att_index()]).name(),
                kind,
                "{predicate}"
            );
        }
        // First pin per column wins, as before.
        let twice = and(
            eq(col(0), lit(Value::str("a"))),
            eq(col(0), lit(Value::str("b"))),
        );
        let Access::Point { key, .. } = access_of(twice, vec![pk_index()]) else {
            panic!()
        };
        assert_eq!(key, vec![Value::str("a")]);
        // A pin is stored the way the column stores it (Int widens to a
        // FLOAT column), and an unstorable pin yields to a later one.
        let price = IndexMeta {
            name: "item_price".into(),
            columns: vec![1],
        };
        let predicate = and(
            eq(col(1), lit(Value::str("3"))),
            eq(col(1), lit(Value::Int(3))),
        );
        let schema = scan_schema(
            "item",
            &[
                ("id".into(), DataType::Int, false),
                ("price".into(), DataType::Float, false),
            ],
            "item",
        );
        match choose_access(&predicate, &schema, &[price]) {
            // `Value`'s `==` holds `3 == 3.0`: match the variant.
            Access::Point { key, .. } => assert!(matches!(key[..], [Value::Float(f)] if f == 3.0)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crowd_join_picks_up_probe_index() {
        let plan = LogicalPlan::Join {
            left: Box::new(talk_scan()),
            right: Box::new(attendee_scan()),
            kind: JoinType::Inner,
            on: Some(eq(col(0), col(3))),
        };
        let inner_idx = IndexMeta {
            name: "notableattendee_fk_title".into(),
            columns: vec![1],
        };
        let p = lower_idx(&plan, vec![inner_idx]);
        let PhysicalPlan::CrowdJoin { probe_index, .. } = &p else {
            panic!("{p:?}")
        };
        assert_eq!(
            probe_index.as_ref().map(|i| i.name.as_str()),
            Some("notableattendee_fk_title")
        );
        assert!(
            p.explain()
                .contains("[INL probe via notableattendee_fk_title]"),
            "{}",
            p.explain()
        );
    }

    /// Stats that count how often they are asked.
    struct CountingStats(std::cell::Cell<usize>);

    impl StatsSource for CountingStats {
        fn table_rows(&self, _table: &str) -> Option<u64> {
            self.0.set(self.0.get() + 1);
            Some(100)
        }
    }

    #[test]
    fn annotation_reads_each_scan_once() {
        let filtered_talk = || LogicalPlan::Filter {
            input: Box::new(talk_scan()),
            predicate: BExpr::Binary {
                left: Box::new(col(1)),
                op: BinaryOp::Gt,
                right: Box::new(lit(Value::Int(10))),
            },
        };
        let mut crowd_inner = attendee_scan();
        if let LogicalPlan::Scan {
            expected_tuples, ..
        } = &mut crowd_inner
        {
            *expected_tuples = None;
        }
        // 1..=5 filtered machine scans joined left-deep, then the CROWD
        // table as the inner they drive: 2- to 6-way joins.
        for machine in 1..=5 {
            let mut plan = filtered_talk();
            for k in 1..machine {
                plan = LogicalPlan::Join {
                    left: Box::new(plan),
                    right: Box::new(filtered_talk()),
                    kind: JoinType::Inner,
                    on: Some(eq(col(0), col(2 * k))),
                };
            }
            let plan = LogicalPlan::Join {
                left: Box::new(plan),
                right: Box::new(crowd_inner.clone()),
                kind: JoinType::Inner,
                on: Some(eq(col(0), col(2 * machine + 1))),
            };
            let scans = machine + 1;
            let stats = CountingStats(std::cell::Cell::new(0));
            assert!(lower(&plan, &stats, &pk, &|_| vec![]).annot().bounded);
            assert!(stats.0.get() <= scans, "lower: {} reads", stats.0.get());
            stats.0.set(0);
            assert!(crate::analyze_boundedness(&plan, &stats, &pk).bounded);
            assert!(stats.0.get() <= scans, "analysis: {} reads", stats.0.get());
        }
    }

    #[test]
    fn explain_renders_annotated_tree() {
        let plan = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Filter {
                input: Box::new(talk_scan()),
                predicate: eq(col(0), BExpr::Literal(Value::str("CrowdDB"))),
            }),
            limit: Some(2),
            offset: 0,
        };
        let text = lower_t(&plan).explain();
        assert!(text.contains("StopAfter 2"), "{text}");
        assert!(text.contains("TableScan talk"), "{text}");
        assert!(text.contains("[residual: "), "{text}");
        assert!(text.contains("rows, bounded}"), "{text}");
    }
}

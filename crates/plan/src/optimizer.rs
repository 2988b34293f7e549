//! The rule-based optimizer (paper §3.2.2).
//!
//! Rules, applied in order:
//!
//! 1. **constant folding** — literal subexpressions are evaluated and
//!    boolean identities simplified;
//! 2. **predicate push-down** — conjuncts move below joins toward their
//!    source relations; **crowd predicates** (`CROWDEQUAL`) are never
//!    pushed and always ordered *after* machine predicates at the same
//!    level, so the expensive human calls see as few rows as possible;
//! 3. **join ordering** — inner/cross join chains are re-ordered
//!    greedily by estimated cardinality. In a statement that asks no
//!    crowd a chain starts with its largest relation, so that every hash
//!    join probes with the stream and builds on a smaller relation; in
//!    one that asks the crowd it starts with its smallest and places
//!    CROWD tables last (minimizing crowd requests), and the needs keep
//!    the order they were always recorded in. Where the order changed, a
//!    final projection restores the original column order so the rewrite
//!    is transparent;
//! 4. **stop-after push-down** — `LIMIT` descends through projections;
//!    when it reaches a CROWD-table scan it sets the scan's
//!    `expected_tuples` bound, which is what makes an open-world query
//!    *bounded*.
//!
//! Each rule matches only the nodes it acts on and hands every other
//! node to `LogicalPlan::map_inputs`, which rebuilds it around its
//! rewritten inputs.

use crowddb_common::Value;
use crowddb_sql::BinaryOp;

use crate::bound_expr::BExpr;
use crate::cardinality::{estimate_rows, StatsSource};
use crate::logical::{JoinType, LogicalPlan};
use crate::schema::PlanSchema;
use crate::value_ops::{eval_binary, eval_unary};

/// Optimizer knobs.
#[derive(Debug, Clone)]
pub struct OptimizerConfig {
    /// Enable constant folding.
    pub fold_constants: bool,
    /// Enable predicate push-down.
    pub pushdown_predicates: bool,
    /// Enable join re-ordering.
    pub reorder_joins: bool,
    /// Enable stop-after push-down.
    pub pushdown_limit: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            fold_constants: true,
            pushdown_predicates: true,
            reorder_joins: true,
            pushdown_limit: true,
        }
    }
}

/// Run the full rewrite pipeline.
pub fn optimize(
    plan: LogicalPlan,
    stats: &dyn StatsSource,
    config: &OptimizerConfig,
) -> LogicalPlan {
    let mut plan = plan;
    if config.fold_constants {
        plan = rewrite_exprs(plan, &fold_expr);
    }
    if config.pushdown_predicates {
        plan = pushdown(plan);
    }
    if config.reorder_joins {
        let asks_crowd = plan.is_crowd_related();
        plan = reorder_joins(plan, stats, asks_crowd);
        if config.pushdown_predicates {
            // Re-run push-down: re-ordering exposes new opportunities.
            plan = pushdown(plan);
        }
    }
    if config.pushdown_limit {
        plan = pushdown_limit(plan);
    }
    plan
}

// ---------------------------------------------------------------------
// Rule 1: constant folding
// ---------------------------------------------------------------------

/// Apply `f` bottom-up to the expressions of filters, projections,
/// join conditions, group keys and sort keys.
fn rewrite_exprs(plan: LogicalPlan, f: &impl Fn(BExpr) -> BExpr) -> LogicalPlan {
    let rewrite = |e: &mut BExpr| *e = f(std::mem::replace(e, BExpr::Column(0)));
    let mut plan = plan.map_inputs(|input| rewrite_exprs(input, f));
    match &mut plan {
        LogicalPlan::Filter { predicate, .. } => rewrite(predicate),
        LogicalPlan::Project { exprs, .. }
        | LogicalPlan::Aggregate {
            group_by: exprs, ..
        } => exprs.iter_mut().for_each(rewrite),
        LogicalPlan::Join { on, .. } => on.iter_mut().for_each(rewrite),
        LogicalPlan::Sort { keys, .. } => keys.iter_mut().for_each(|k| rewrite(&mut k.expr)),
        _ => {}
    }
    plan
}

/// Fold literal subexpressions and boolean identities.
pub fn fold_expr(e: BExpr) -> BExpr {
    // First fold children.
    let e = match e {
        BExpr::Unary { op, expr } => BExpr::Unary {
            op,
            expr: Box::new(fold_expr(*expr)),
        },
        BExpr::Binary { left, op, right } => BExpr::Binary {
            left: Box::new(fold_expr(*left)),
            op,
            right: Box::new(fold_expr(*right)),
        },
        other => other,
    };
    match e {
        BExpr::Binary { left, op, right } => {
            if let (BExpr::Literal(l), BExpr::Literal(r)) = (left.as_ref(), right.as_ref()) {
                // Fold to what the executor would compute. Errors
                // (overflow, /0, NaN, type) and missing results stay
                // unfolded for the runtime; `CrowdEq` is an error here,
                // so crowd operators never fold.
                if let Some(v) = eval_binary(l, op, r).ok().filter(|v| !v.is_missing()) {
                    return BExpr::Literal(v);
                }
            }
            // Boolean identities.
            match op {
                BinaryOp::And => {
                    if is_true(&left) {
                        return *right;
                    }
                    if is_true(&right) {
                        return *left;
                    }
                    if is_false(&left) || is_false(&right) {
                        return BExpr::Literal(Value::Bool(false));
                    }
                }
                BinaryOp::Or => {
                    if is_false(&left) {
                        return *right;
                    }
                    if is_false(&right) {
                        return *left;
                    }
                    if is_true(&left) || is_true(&right) {
                        return BExpr::Literal(Value::Bool(true));
                    }
                }
                _ => {}
            }
            BExpr::Binary { left, op, right }
        }
        BExpr::Unary { op, expr } => {
            // As for binary operators: an error (`-` overflow, a type
            // error) or a missing result stays for the runtime.
            if let BExpr::Literal(v) = expr.as_ref() {
                if let Some(v) = eval_unary(op, v.clone()).ok().filter(|v| !v.is_missing()) {
                    return BExpr::Literal(v);
                }
            }
            BExpr::Unary { op, expr }
        }
        other => other,
    }
}

fn is_true(e: &BExpr) -> bool {
    matches!(e, BExpr::Literal(Value::Bool(true)))
}
fn is_false(e: &BExpr) -> bool {
    matches!(e, BExpr::Literal(Value::Bool(false)))
}

// ---------------------------------------------------------------------
// Rule 2: predicate push-down
// ---------------------------------------------------------------------

/// Split a predicate into AND conjuncts.
pub fn split_conjuncts(pred: BExpr, out: &mut Vec<BExpr>) {
    match pred {
        BExpr::Binary {
            op: BinaryOp::And,
            left,
            right,
        } => {
            split_conjuncts(*left, out);
            split_conjuncts(*right, out);
        }
        other => out.push(other),
    }
}

/// Rebuild a conjunction with machine predicates first, crowd predicates
/// last (the crowd-isolation ordering).
pub fn conjoin(mut conjuncts: Vec<BExpr>) -> Option<BExpr> {
    conjuncts.sort_by_key(|c| c.is_crowd()); // false < true: machine first
    let mut iter = conjuncts.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, c| BExpr::Binary {
        left: Box::new(acc),
        op: BinaryOp::And,
        right: Box::new(c),
    }))
}

fn pushdown(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Filter { input, predicate } => {
            let mut conjuncts = Vec::new();
            split_conjuncts(predicate, &mut conjuncts);
            push_conjuncts(pushdown(*input), conjuncts)
        }
        other => other.map_inputs(pushdown),
    }
}

/// Push a set of conjuncts as deep as possible over `plan`.
fn push_conjuncts(plan: LogicalPlan, conjuncts: Vec<BExpr>) -> LogicalPlan {
    if conjuncts.is_empty() {
        return plan;
    }
    match plan {
        // Merge adjacent filters.
        LogicalPlan::Filter { input, predicate } => {
            let mut all = Vec::new();
            split_conjuncts(predicate, &mut all);
            all.extend(conjuncts);
            push_conjuncts(*input, all)
        }
        // Route one-sided, non-crowd conjuncts below an inner/cross join.
        LogicalPlan::Join {
            left,
            right,
            kind: kind @ (JoinType::Inner | JoinType::Cross),
            on,
        } => {
            let left_arity = left.schema().arity();
            let total = left_arity + right.schema().arity();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts {
                if c.is_crowd() || c.has_subplan() {
                    stay.push(c);
                    continue;
                }
                let refs = c.column_refs();
                let all_left = refs.iter().all(|&i| i < left_arity);
                let all_right = refs.iter().all(|&i| i >= left_arity && i < total);
                if all_left {
                    to_left.push(c);
                } else if all_right {
                    to_right.push(c.remap_columns(&|i| i - left_arity));
                } else {
                    stay.push(c);
                }
            }
            let new_left = push_conjuncts(*left, to_left);
            let new_right = push_conjuncts(*right, to_right);
            // Two-sided equality conjuncts become join conditions.
            let mut on_parts = Vec::new();
            if let Some(on) = on {
                split_conjuncts(on, &mut on_parts);
            }
            let mut still_stay = Vec::new();
            for c in stay {
                let refs = c.column_refs();
                let two_sided =
                    refs.iter().any(|&i| i < left_arity) && refs.iter().any(|&i| i >= left_arity);
                if two_sided && !c.is_crowd() && !c.has_subplan() {
                    on_parts.push(c);
                } else {
                    still_stay.push(c);
                }
            }
            let kind = if kind == JoinType::Cross && !on_parts.is_empty() {
                JoinType::Inner
            } else {
                kind
            };
            let join = LogicalPlan::Join {
                left: Box::new(new_left),
                right: Box::new(new_right),
                kind,
                on: conjoin(on_parts),
            };
            wrap_filter(join, still_stay)
        }
        // Push below sort and distinct (both commute with filtering), and
        // into both arms of a union (the arms have identical output
        // shapes, so the conjuncts bind unchanged).
        plan @ (LogicalPlan::Sort { .. }
        | LogicalPlan::Distinct { .. }
        | LogicalPlan::Union { .. }) => {
            plan.map_inputs(|input| push_conjuncts(input, conjuncts.clone()))
        }
        // Push through a projection when every conjunct only references
        // pass-through columns.
        LogicalPlan::Project {
            input,
            exprs,
            schema,
        } => {
            let mut pushable = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts {
                let refs = c.column_refs();
                let all_passthrough = refs
                    .iter()
                    .all(|&i| matches!(exprs.get(i), Some(BExpr::Column(_))));
                if all_passthrough && !c.is_crowd() {
                    let mapped = c.remap_columns(&|i| match &exprs[i] {
                        BExpr::Column(src) => *src,
                        _ => unreachable!("checked pass-through"),
                    });
                    pushable.push(mapped);
                } else {
                    stay.push(c);
                }
            }
            let projected = LogicalPlan::Project {
                input: Box::new(push_conjuncts(*input, pushable)),
                exprs,
                schema,
            };
            wrap_filter(projected, stay)
        }
        // Everything else: filter stays here.
        other => wrap_filter(other, conjuncts),
    }
}

fn wrap_filter(plan: LogicalPlan, conjuncts: Vec<BExpr>) -> LogicalPlan {
    match conjoin(conjuncts) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        },
        None => plan,
    }
}

// ---------------------------------------------------------------------
// Rule 3: join ordering
// ---------------------------------------------------------------------

/// Reorder every inner/cross join region of `plan`. `asks_crowd`: the
/// statement asks the crowd somewhere — in a region or in what reads one
/// — so the order rows flow in is the order its needs are recorded in.
fn reorder_joins(plan: LogicalPlan, stats: &dyn StatsSource, asks_crowd: bool) -> LogicalPlan {
    match plan {
        LogicalPlan::Join {
            kind: JoinType::Inner | JoinType::Cross,
            ..
        } => try_reorder_region(plan, stats, asks_crowd),
        // Outer joins are not commutative: like every other node, they
        // only have their children reordered. So does a filter above a
        // region: push-down has already moved every conjunct it could
        // into the region, and what stays above — a crowd comparison, a
        // subquery — sees joined rows only.
        other => other.map_inputs(|input| reorder_joins(input, stats, asks_crowd)),
    }
}

/// Flatten a maximal inner/cross join region, reorder it greedily, and
/// rebuild — with a restoring projection if the order moved.
fn try_reorder_region(plan: LogicalPlan, stats: &dyn StatsSource, asks_crowd: bool) -> LogicalPlan {
    // 1. Flatten.
    let mut relations: Vec<LogicalPlan> = Vec::new();
    let mut conjuncts: Vec<BExpr> = Vec::new();
    fn flatten(
        node: LogicalPlan,
        relations: &mut Vec<LogicalPlan>,
        conjuncts: &mut Vec<BExpr>,
        stats: &dyn StatsSource,
        asks_crowd: bool,
    ) -> bool {
        match node {
            LogicalPlan::Join {
                left,
                right,
                kind: JoinType::Inner | JoinType::Cross,
                on,
            } => {
                let base = relations.iter().map(|r| r.schema().arity()).sum::<usize>();
                let ok_left = flatten(*left, relations, conjuncts, stats, asks_crowd);
                if !ok_left {
                    return false;
                }
                let mid = relations.iter().map(|r| r.schema().arity()).sum::<usize>();
                let ok_right = flatten(*right, relations, conjuncts, stats, asks_crowd);
                if !ok_right {
                    return false;
                }
                debug_assert!(mid >= base);
                if let Some(on) = on {
                    let mut parts = Vec::new();
                    split_conjuncts(on, &mut parts);
                    conjuncts.extend(parts);
                }
                true
            }
            // Leaves of the region: anything else (scans, left joins,
            // aggregates, projected subqueries...).
            other => {
                // Recursively optimize inside the leaf.
                relations.push(reorder_joins(other, stats, asks_crowd));
                true
            }
        }
    }

    if !flatten(plan, &mut relations, &mut conjuncts, stats, asks_crowd) || relations.len() < 2 {
        // Nothing to reorder; rebuild as it was.
        return rebuild_left_deep(relations, conjuncts);
    }

    // Old flat offsets per relation.
    let arities: Vec<usize> = relations.iter().map(|r| r.schema().arity()).collect();
    let mut old_offsets = Vec::with_capacity(arities.len());
    let mut acc = 0;
    for a in &arities {
        old_offsets.push(acc);
        acc += a;
    }
    let total_arity = acc;

    // 2. Greedy order. A statement that asks the crowd keeps the order its
    //    needs are pinned to: crowd-table relations last, the smallest of
    //    the rest first. One that asks nothing starts with the largest
    //    relation: it is the probe side every later join streams, and the
    //    smaller relations are the build sides. Either way the rest follow
    //    connected by a predicate to the already-chosen set first, then
    //    smallest first.
    let is_crowd_rel: Vec<bool> = relations
        .iter()
        .map(|r| {
            r.any(&|n| {
                matches!(
                    n,
                    LogicalPlan::Scan {
                        crowd_table: true,
                        ..
                    }
                )
            })
        })
        .collect();
    let sizes: Vec<f64> = relations.iter().map(|r| estimate_rows(r, stats)).collect();

    let rel_of_col = |col: usize| -> usize {
        for (i, &off) in old_offsets.iter().enumerate() {
            if col >= off && col < off + arities[i] {
                return i;
            }
        }
        unreachable!("column {col} out of range {total_arity}")
    };

    let n = relations.len();
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut remaining: Vec<usize> = (0..n).collect();

    // Seed: the largest relation, or with the crowd asked the smallest
    // non-crowd relation (or smallest overall).
    remaining.sort_by(|&a, &b| {
        let size = match asks_crowd {
            true => sizes[a].total_cmp(&sizes[b]),
            false => sizes[b].total_cmp(&sizes[a]),
        };
        is_crowd_rel[a]
            .cmp(&is_crowd_rel[b])
            .then(size)
            .then(a.cmp(&b))
    });
    chosen.push(remaining.remove(0));

    while !remaining.is_empty() {
        // Prefer connected, non-crowd, small.
        let connected = |cand: usize| {
            conjuncts.iter().any(|c| {
                let refs = c.column_refs();
                let touches_cand = refs.iter().any(|&r| rel_of_col(r) == cand);
                let touches_chosen = refs.iter().any(|&r| chosen.contains(&rel_of_col(r)));
                touches_cand && touches_chosen
            })
        };
        remaining.sort_by(|&a, &b| {
            is_crowd_rel[a]
                .cmp(&is_crowd_rel[b])
                .then(connected(b).cmp(&connected(a)))
                .then(sizes[a].total_cmp(&sizes[b]))
                .then(a.cmp(&b))
        });
        chosen.push(remaining.remove(0));
    }

    // 3. Column permutation old → new.
    let mut new_offsets = vec![0usize; n];
    let mut acc2 = 0;
    for &rel in &chosen {
        new_offsets[rel] = acc2;
        acc2 += arities[rel];
    }
    let old_to_new = |old: usize| -> usize {
        let rel = rel_of_col(old);
        new_offsets[rel] + (old - old_offsets[rel])
    };

    let remapped: Vec<BExpr> = conjuncts
        .iter()
        .map(|c| c.remap_columns(&old_to_new))
        .collect();

    // 4. Rebuild left-deep in the chosen order, attaching each conjunct at
    //    the shallowest level where all its columns are available.
    let ordered_rels: Vec<LogicalPlan> = {
        // Pull relations out in chosen order.
        let mut slots: Vec<Option<LogicalPlan>> = relations.into_iter().map(Some).collect();
        chosen
            .iter()
            .map(|&i| slots[i].take().expect("each relation used once"))
            .collect()
    };
    let plan = rebuild_left_deep(ordered_rels, remapped);
    // A statement that asks the crowd is planned as it always was, its
    // restoring projections included.
    if !asks_crowd && chosen.iter().enumerate().all(|(at, &rel)| at == rel) {
        return plan;
    }

    // 5. Restore original column order for transparency.
    let restore: Vec<BExpr> = (0..total_arity)
        .map(|old| BExpr::Column(old_to_new(old)))
        .collect();
    // Schema: original flat order.
    let mut schema_cols = Vec::with_capacity(total_arity);
    {
        let new_schema = plan.schema();
        for item in restore.iter() {
            let BExpr::Column(idx) = item else {
                unreachable!()
            };
            schema_cols.push(new_schema.columns[*idx].clone());
        }
    }
    LogicalPlan::Project {
        input: Box::new(plan),
        exprs: restore,
        schema: PlanSchema::new(schema_cols),
    }
}

/// Left-deep rebuild: join relations in order, attaching each conjunct at
/// the first level where its columns are all in scope; leftovers become a
/// top filter.
fn rebuild_left_deep(relations: Vec<LogicalPlan>, conjuncts: Vec<BExpr>) -> LogicalPlan {
    let mut iter = relations.into_iter();
    let Some(mut plan) = iter.next() else {
        return LogicalPlan::Values {
            rows: vec![],
            schema: PlanSchema::default(),
        };
    };
    let mut pending = conjuncts;
    let mut in_scope = plan.schema().arity();

    // Conjuncts that fit the first relation alone become filters on it.
    let (apply, keep): (Vec<BExpr>, Vec<BExpr>) = pending
        .into_iter()
        .partition(|c| c.column_refs().iter().all(|&r| r < in_scope));
    plan = wrap_filter(plan, apply);
    pending = keep;

    for right in iter {
        let right_arity = right.schema().arity();
        let new_scope = in_scope + right_arity;
        let (apply, keep): (Vec<BExpr>, Vec<BExpr>) = pending
            .into_iter()
            .partition(|c| c.column_refs().iter().all(|&r| r < new_scope));
        let kind = if apply.iter().any(|c| !c.is_crowd()) {
            JoinType::Inner
        } else {
            JoinType::Cross
        };
        // Crowd conjuncts never become join conditions; they filter above.
        let (crowd_apply, machine_apply): (Vec<BExpr>, Vec<BExpr>) =
            apply.into_iter().partition(|c| c.is_crowd());
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            kind: if machine_apply.is_empty() {
                JoinType::Cross
            } else {
                kind
            },
            on: conjoin(machine_apply),
        };
        plan = wrap_filter(plan, crowd_apply);
        pending = keep;
        in_scope = new_scope;
    }
    wrap_filter(plan, pending)
}

// ---------------------------------------------------------------------
// Rule 4: stop-after push-down
// ---------------------------------------------------------------------

fn pushdown_limit(plan: LogicalPlan) -> LogicalPlan {
    match plan {
        LogicalPlan::Limit {
            input,
            limit,
            offset,
        } => LogicalPlan::Limit {
            input: Box::new(push_limit_into(*input, limit.map(|l| l + offset))),
            limit,
            offset,
        },
        other => other.map_inputs(pushdown_limit),
    }
}

/// Descend from a Limit through order/cardinality-preserving nodes,
/// annotating CROWD-table scans with the expected tuple bound.
fn push_limit_into(mut plan: LogicalPlan, want: Option<u64>) -> LogicalPlan {
    match &mut plan {
        // Projection preserves cardinality 1:1, and UNION ALL needs at
        // most `want` rows from either arm.
        LogicalPlan::Project { .. } | LogicalPlan::Union { all: true, .. } => {
            plan.map_inputs(|input| push_limit_into(input, want))
        }
        LogicalPlan::Scan {
            crowd_table: true,
            expected_tuples,
            ..
        } => {
            if let Some(w) = want {
                *expected_tuples = Some(expected_tuples.map_or(w, |e| e.min(w)));
            }
            plan
        }
        // Any other node blocks the bound. A machine sort needs *all*
        // its input rows, and a crowd sort (CROWDORDER) ranks whatever
        // item set is produced below it; the limit shrinks neither. The
        // subtree may still hold independent Limits.
        _ => pushdown_limit(plan),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binder::Binder;
    use crate::cardinality::FnStats;
    use crowddb_sql::{parse_statement, Statement, UnaryOp};
    use crowddb_storage::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for ddl in [
            "CREATE TABLE Talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
             nb_attendees CROWD INTEGER)",
            "CREATE CROWD TABLE NotableAttendee (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF Talk(title))",
            "CREATE TABLE Big (id INTEGER PRIMARY KEY, v STRING)",
            "CREATE TABLE Small (id INTEGER PRIMARY KEY, w STRING)",
        ] {
            let Statement::CreateTable(ct) = parse_statement(ddl).unwrap() else {
                panic!()
            };
            let schema = c.schema_from_ast(&ct).unwrap();
            c.register(schema).unwrap();
        }
        c
    }

    fn stats() -> FnStats<impl Fn(&str) -> Option<u64>> {
        FnStats(|t: &str| match t {
            "big" => Some(100_000),
            "small" => Some(10),
            "talk" => Some(500),
            "notableattendee" => Some(0),
            _ => None,
        })
    }

    fn plan_of(sql: &str) -> LogicalPlan {
        let cat = catalog();
        let Statement::Select(q) = parse_statement(sql).unwrap() else {
            panic!()
        };
        let bound = Binder::new(&cat).bind_query(&q).unwrap();
        optimize(bound, &stats(), &OptimizerConfig::default())
    }

    #[test]
    fn fold_constants_basics() {
        assert_eq!(
            fold_expr(BExpr::Binary {
                left: Box::new(BExpr::Literal(Value::Int(2))),
                op: BinaryOp::Add,
                right: Box::new(BExpr::Literal(Value::Int(3))),
            }),
            BExpr::Literal(Value::Int(5))
        );
        // TRUE AND x -> x
        assert_eq!(
            fold_expr(BExpr::Binary {
                left: Box::new(BExpr::Literal(Value::Bool(true))),
                op: BinaryOp::And,
                right: Box::new(BExpr::Column(0)),
            }),
            BExpr::Column(0)
        );
        // x AND FALSE -> FALSE
        assert_eq!(
            fold_expr(BExpr::Binary {
                left: Box::new(BExpr::Column(0)),
                op: BinaryOp::And,
                right: Box::new(BExpr::Literal(Value::Bool(false))),
            }),
            BExpr::Literal(Value::Bool(false))
        );
        // Division by zero is left to runtime.
        let div = BExpr::Binary {
            left: Box::new(BExpr::Literal(Value::Int(1))),
            op: BinaryOp::Div,
            right: Box::new(BExpr::Literal(Value::Int(0))),
        };
        assert_eq!(fold_expr(div.clone()), div);
    }

    #[test]
    fn fold_preserves_null_comparisons() {
        // NULL = NULL must stay for 3VL runtime, not fold to TRUE.
        let e = BExpr::Binary {
            left: Box::new(BExpr::Literal(Value::Null)),
            op: BinaryOp::Eq,
            right: Box::new(BExpr::Literal(Value::Null)),
        };
        assert_eq!(fold_expr(e.clone()), e);
    }

    /// The folder has no arithmetic or logic of its own: over every
    /// literal, literal pair and operator it either leaves the expression
    /// for the runtime or writes down exactly what the executor's
    /// `eval_unary` / `eval_binary` computes — so `FALSE AND NULL` folds
    /// to `FALSE`, `NULL = NULL`, `1 / 0` and `-(-9223372036854775808)`
    /// stay, and `CROWDEQUAL` (an error there) never folds.
    #[test]
    fn fold_agrees_with_the_executor_on_every_literal_pair() {
        use BinaryOp::*;
        let values = [
            Value::Int(0),
            Value::Int(7),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(2.5),
            Value::Float(0.0),
            Value::str("a"),
            Value::Bool(true),
            Value::Bool(false),
            Value::Null,
            Value::CNull,
        ];
        let ops = [
            Add, Sub, Mul, Div, Mod, Concat, Eq, NotEq, Lt, LtEq, Gt, GtEq, And, Or, CrowdEq,
        ];
        // `Value`'s `==` holds `3 == 3.0` and `0 == -0.0`; the debug text
        // tells the variants (and the zeros) apart.
        let same = |a: &BExpr, b: &BExpr| format!("{a:?}") == format!("{b:?}");
        let mut folded_count = 0;
        for l in &values {
            for r in &values {
                for op in ops {
                    let e = BExpr::Binary {
                        left: Box::new(BExpr::Literal(l.clone())),
                        op,
                        right: Box::new(BExpr::Literal(r.clone())),
                    };
                    let folded = fold_expr(e.clone());
                    // The AND/OR identities look at one operand only:
                    // they may return the other one as it stands (`TRUE
                    // AND NULL` -> `NULL`), even one the runtime would
                    // reject (`TRUE AND 7` -> `7`), or the absorbing
                    // constant (`FALSE AND 7` -> `FALSE`).
                    let identity = matches!(op, And | Or)
                        && (matches!(l, Value::Bool(_)) || matches!(r, Value::Bool(_)));
                    let ok = match eval_binary(l, op, r) {
                        Ok(v) if !v.is_missing() => same(&folded, &BExpr::Literal(v)),
                        Ok(_) | Err(_) => same(&folded, &e) || identity,
                    };
                    assert!(ok, "{l:?} {op:?} {r:?} folded to {folded:?}");
                    folded_count += usize::from(!same(&folded, &e));
                }
            }
        }
        assert!(folded_count > 300, "{folded_count} of 1815 folded");
        for op in [UnaryOp::Neg, UnaryOp::Not, UnaryOp::Pos] {
            for v in &values {
                let e = BExpr::Unary {
                    op,
                    expr: Box::new(BExpr::Literal(v.clone())),
                };
                let folded = fold_expr(e.clone());
                let ok = match eval_unary(op, v.clone()) {
                    Ok(r) if !r.is_missing() => same(&folded, &BExpr::Literal(r)),
                    Ok(_) | Err(_) => same(&folded, &e),
                };
                assert!(ok, "{op:?} {v:?} folded to {folded:?}");
            }
        }
    }

    #[test]
    fn predicate_pushdown_splits_to_join_sides() {
        let plan =
            plan_of("SELECT * FROM Big b, Small s WHERE b.id = s.id AND b.v = 'x' AND s.w = 'y'");
        let text = plan.explain();
        // Single-table conjuncts sit directly on their scans.
        let scan_big_idx = text.find("Scan big").unwrap();
        let filter_v = text.find("(#1 = 'x')").unwrap_or(usize::MAX);
        assert!(filter_v != usize::MAX, "b.v filter exists: {text}");
        // The join condition landed in the join node.
        assert!(text.contains("Join ON"), "{text}");
        let _ = scan_big_idx;
    }

    #[test]
    fn crowd_predicate_stays_above_and_last() {
        let plan = plan_of(
            "SELECT * FROM Big b, Small s \
             WHERE b.id = s.id AND CROWDEQUAL(b.v, s.w) AND b.v = 'x'",
        );
        let text = plan.explain();
        // The crowd predicate must be in a CrowdFilter above the join, not
        // inside the join condition.
        assert!(text.contains("CrowdFilter"), "{text}");
        let crowd_pos = text.find("CrowdFilter").unwrap();
        let join_pos = text.find("Join").unwrap();
        assert!(
            crowd_pos < join_pos,
            "crowd filter should be above the join:\n{text}"
        );
    }

    #[test]
    fn machine_conjuncts_precede_crowd_in_same_filter() {
        let e = conjoin(vec![
            BExpr::CrowdEqual {
                left: Box::new(BExpr::Column(0)),
                right: Box::new(BExpr::Literal(Value::str("IBM"))),
            },
            BExpr::Binary {
                left: Box::new(BExpr::Column(1)),
                op: BinaryOp::Eq,
                right: Box::new(BExpr::Literal(Value::Int(1))),
            },
        ])
        .unwrap();
        // Machine predicate first in the AND chain.
        let BExpr::Binary { left, .. } = &e else {
            panic!()
        };
        assert!(!left.is_crowd());
    }

    #[test]
    fn join_reorder_puts_small_first_and_crowd_last() {
        let plan = plan_of(
            "SELECT * FROM NotableAttendee n, Big b, Small s \
             WHERE n.title = b.v AND b.id = s.id",
        );
        let text = plan.explain();
        // The crowd table should be the deepest *right* side / last joined.
        // We check textual order: 'small' scan appears before 'big', and
        // 'notableattendee' appears last among scans.
        let scans: Vec<&str> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("Scan"))
            .collect();
        assert_eq!(scans.len(), 3, "{text}");
        assert!(
            scans[2].contains("notableattendee"),
            "crowd table must be joined last:\n{text}"
        );
    }

    #[test]
    fn reorder_restores_column_order() {
        let plan = plan_of("SELECT b.id, s.id FROM Big b, Small s WHERE b.id = s.id");
        // Regardless of reordering, output is (b.id, s.id).
        let schema = plan.schema();
        assert_eq!(schema.columns[0].qualifier.as_deref(), Some("b"));
        assert_eq!(schema.columns[1].qualifier.as_deref(), Some("s"));
    }

    /// With no crowd asked, the largest relation starts the chain — the
    /// probe side — whatever order the statement wrote; written that
    /// way, the chain needs no restoring projection.
    #[test]
    fn machine_join_starts_with_the_largest_relation() {
        for (sql, projections) in [
            ("SELECT * FROM Big b, Small s WHERE b.id = s.id", 1),
            ("SELECT * FROM Small s, Big b WHERE b.id = s.id", 2),
        ] {
            let text = plan_of(sql).explain();
            let scans: Vec<&str> = text
                .lines()
                .filter(|l| l.trim_start().starts_with("Scan"))
                .collect();
            assert!(scans[0].contains("big"), "{text}");
            assert_eq!(text.matches("Project").count(), projections, "{text}");
        }
    }

    #[test]
    fn limit_pushdown_bounds_crowd_scan() {
        let plan = plan_of("SELECT name FROM NotableAttendee LIMIT 10");
        let mut bound = None;
        plan.walk(&mut |n| {
            if let LogicalPlan::Scan {
                expected_tuples, ..
            } = n
            {
                bound = *expected_tuples;
            }
        });
        assert_eq!(bound, Some(10));
    }

    #[test]
    fn limit_with_offset_bounds_to_sum() {
        let plan = plan_of("SELECT name FROM NotableAttendee LIMIT 10 OFFSET 5");
        let mut bound = None;
        plan.walk(&mut |n| {
            if let LogicalPlan::Scan {
                expected_tuples, ..
            } = n
            {
                bound = *expected_tuples;
            }
        });
        assert_eq!(bound, Some(15));
    }

    #[test]
    fn limit_does_not_cross_machine_sort() {
        // Sorting by a machine key needs all rows: the crowd scan stays
        // unbounded (the boundedness analysis will flag this query).
        let plan = plan_of("SELECT name FROM NotableAttendee ORDER BY name LIMIT 10");
        let mut bound = None;
        plan.walk(&mut |n| {
            if let LogicalPlan::Scan {
                expected_tuples, ..
            } = n
            {
                bound = *expected_tuples;
            }
        });
        assert_eq!(bound, None);
    }

    #[test]
    fn non_crowd_scan_unaffected_by_limit() {
        let plan = plan_of("SELECT title FROM Talk LIMIT 10");
        let mut bound = Some(99);
        plan.walk(&mut |n| {
            if let LogicalPlan::Scan {
                expected_tuples, ..
            } = n
            {
                bound = *expected_tuples;
            }
        });
        assert_eq!(bound, None);
    }

    #[test]
    fn optimizer_config_can_disable_rules() {
        let cat = catalog();
        let Statement::Select(q) =
            parse_statement("SELECT * FROM Big b, Small s WHERE b.v = 'x'").unwrap()
        else {
            panic!()
        };
        let bound = Binder::new(&cat).bind_query(&q).unwrap();
        let disabled = OptimizerConfig {
            fold_constants: false,
            pushdown_predicates: false,
            reorder_joins: false,
            pushdown_limit: false,
        };
        let unopt = optimize(bound.clone(), &stats(), &disabled);
        assert_eq!(unopt, bound, "disabled optimizer must be identity");
    }

    #[test]
    fn filters_merge() {
        // Filter over filter collapses into one level with both conjuncts
        // attached near the scan.
        let plan = plan_of("SELECT v FROM Big WHERE id > 1 AND id < 5 AND v = 'q'");
        let text = plan.explain();
        // All three conjuncts live in one filter directly over the scan.
        assert_eq!(
            text.lines()
                .filter(|l| l.trim_start().starts_with("Filter"))
                .count(),
            1,
            "{text}"
        );
    }
}

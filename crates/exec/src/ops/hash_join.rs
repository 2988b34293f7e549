//! HashJoin: equi-join building a hash table on the right input. Also
//! hosts the shared probe loop [`join_hashed`] that
//! [`super::crowd_join`] reuses with a crowd enumeration policy on top.

use std::collections::HashMap;

use crowddb_common::{Result, Row, Value};
use crowddb_plan::{BExpr, JoinType, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::{eval, eval_truth};
use crate::need::TaskNeed;
use crate::ops::{build, join_delta, run_op, BoxedOp, Delta, OpStatsNode, Operator, TableChange};

/// Hash-join operator; see [`PhysicalPlan::HashJoin`].
pub struct HashJoinOp<'p> {
    left: BoxedOp<'p>,
    right: BoxedOp<'p>,
    /// The node, for the children's plans (`delta` runs one unobserved).
    plan: &'p PhysicalPlan,
    kind: JoinType,
    equi: &'p [(BExpr, BExpr)],
    residual: &'p [BExpr],
    right_arity: usize,
}

impl<'p> HashJoinOp<'p> {
    /// Build from a [`PhysicalPlan::HashJoin`] node.
    pub fn new(plan: &'p PhysicalPlan) -> HashJoinOp<'p> {
        let PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            equi,
            residual,
            ..
        } = plan
        else {
            unreachable!("HashJoinOp built from {plan:?}")
        };
        HashJoinOp {
            right_arity: right.schema().arity(),
            left: build(left),
            right: build(right),
            plan,
            kind: *kind,
            equi,
            residual,
        }
    }
}

impl Operator for HashJoinOp<'_> {
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>> {
        let left_rows = run_op(self.left.as_ref(), ctx, &mut stats.children[0])?;
        let right_rows = run_op(self.right.as_ref(), ctx, &mut stats.children[1])?;
        stats.rows_in += (left_rows.len() + right_rows.len()) as u64;
        self.join(ctx, &left_rows, &right_rows)
    }

    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        let on = self
            .equi
            .iter()
            .flat_map(|(l, r)| [l, r])
            .chain(self.residual);
        if on.into_iter().any(BExpr::has_subplan) {
            return Ok(None);
        }
        let children = self.plan.children();
        join_delta(
            ctx,
            change,
            (self.left.as_ref(), children[0]),
            (self.right.as_ref(), children[1]),
            self.kind,
            |ctx, l, r| self.join(ctx, l, r),
        )
    }
}

impl HashJoinOp<'_> {
    fn join(&self, ctx: &mut ExecCtx<'_>, left: &[Row], right: &[Row]) -> Result<Vec<Row>> {
        join_hashed(
            ctx,
            left,
            right,
            self.kind,
            self.equi,
            self.residual,
            self.right_arity,
            None,
        )
    }
}

/// Crowd enumeration policy for unmatched outer rows: ask the crowd for
/// `batch` new `table` tuples with `key_column` preset to the join key.
pub(crate) struct CrowdSpec<'p> {
    pub table: &'p str,
    pub key_column: &'p str,
    pub batch: u64,
}

/// The shared hash-join loop: build on the right, probe from the left.
///
/// Rows with missing key values never match (and never enter the build
/// table). With `crowd` set, unmatched outer rows whose key is known
/// become [`TaskNeed::NewTuples`] needs — the paper's CrowdJoin.
#[allow(clippy::too_many_arguments)] // one call site per join flavor
pub(crate) fn join_hashed(
    ctx: &mut ExecCtx<'_>,
    left_rows: &[Row],
    right_rows: &[Row],
    kind: JoinType,
    equi: &[(BExpr, BExpr)],
    residual: &[BExpr],
    right_arity: usize,
    crowd: Option<&CrowdSpec<'_>>,
) -> Result<Vec<Row>> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::new();
    for (idx, r) in right_rows.iter().enumerate() {
        let mut key = Vec::with_capacity(equi.len());
        let mut missing = false;
        for (_, re) in equi {
            let v = eval(ctx, re, r)?;
            if v.is_missing() {
                missing = true;
                break;
            }
            key.push(v);
        }
        if !missing {
            table.entry(key).or_default().push(idx);
        }
    }
    let mut out = Vec::new();
    for l in left_rows {
        ctx.rt.check()?;
        let mut key = Vec::with_capacity(equi.len());
        let mut missing = false;
        for (le, _) in equi {
            let v = eval(ctx, le, l)?;
            if v.is_missing() {
                missing = true;
                break;
            }
            key.push(v);
        }
        let mut matched = false;
        if !missing {
            if let Some(idxs) = table.get(&key) {
                for &ri in idxs {
                    let joined = l.concat(&right_rows[ri]);
                    if residual_passes(ctx, residual, &joined)? {
                        out.push(joined);
                        matched = true;
                    }
                }
            }
        }
        if !matched {
            // CrowdJoin: "implements an index nested-loop join over two
            // tables, at least one of which is marked as crowdsourced" —
            // a missing inner match becomes a new-tuple request with the
            // join key preset.
            if !missing {
                if let Some(spec) = crowd {
                    ctx.rt.push_need(TaskNeed::NewTuples {
                        table: spec.table.to_string(),
                        preset: vec![(spec.key_column.to_string(), key[0].clone())],
                        want: spec.batch,
                    });
                }
            }
            if kind == JoinType::Left {
                let pad = Row::new(vec![Value::Null; right_arity]);
                out.push(l.concat(&pad));
            }
        }
    }
    Ok(out)
}

fn residual_passes(ctx: &mut ExecCtx<'_>, residual: &[BExpr], row: &Row) -> Result<bool> {
    for p in residual {
        if !eval_truth(ctx, p, row)?.passes_filter() {
            return Ok(false);
        }
    }
    Ok(true)
}

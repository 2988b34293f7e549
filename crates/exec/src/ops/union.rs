//! Union: bag (`UNION ALL`) or set union of two inputs.

use std::collections::HashSet;

use crowddb_common::{Result, Row};
use crowddb_plan::PhysicalPlan;

use crate::context::ExecCtx;
use crate::ops::{build, run_op, BoxedOp, Delta, OpStatsNode, Operator, TableChange};

/// Union operator; see [`PhysicalPlan::Union`].
pub struct UnionOp<'p> {
    left: BoxedOp<'p>,
    right: BoxedOp<'p>,
    all: bool,
}

impl<'p> UnionOp<'p> {
    /// Build from a [`PhysicalPlan::Union`] node.
    pub fn new(plan: &'p PhysicalPlan) -> UnionOp<'p> {
        let PhysicalPlan::Union {
            left, right, all, ..
        } = plan
        else {
            unreachable!("UnionOp built from {plan:?}")
        };
        UnionOp {
            left: build(left),
            right: build(right),
            all: *all,
        }
    }
}

impl Operator for UnionOp<'_> {
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>> {
        let mut rows = run_op(self.left.as_ref(), ctx, &mut stats.children[0])?;
        rows.extend(run_op(self.right.as_ref(), ctx, &mut stats.children[1])?);
        stats.rows_in += rows.len() as u64;
        if !self.all {
            let mut seen = HashSet::new();
            rows.retain(|r| seen.insert(r.clone()));
        }
        Ok(rows)
    }
    /// `UNION ALL` concatenates its inputs, so their deltas too. Set
    /// union has no rule: whether a row leaves depends on the copies the
    /// other input still holds.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if !self.all {
            return Ok(None);
        }
        let (Some(mut delta), Some(right)) = (
            self.left.delta(ctx, change)?,
            self.right.delta(ctx, change)?,
        ) else {
            return Ok(None);
        };
        delta.removed.extend(right.removed);
        delta.added.extend(right.added);
        Ok(Some(delta))
    }
}

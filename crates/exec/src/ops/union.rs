//! Union: bag (`UNION ALL`) or set union of two inputs.

use std::collections::HashSet;

use crowddb_common::{Result, Row};
use crowddb_plan::PhysicalPlan;

use crate::context::ExecCtx;
use crate::ops::{build, run_op, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, TableChange};

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
    /// Left, then right, each straight into the consumer's sink: the
    /// operator has no row code that could ask the crowd or re-enter the
    /// database, and whether its *inputs* may be streamed from was the
    /// consumer's decision when it chose that sink.
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let mut seen = HashSet::new();
        let mut each = |ctx: &mut ExecCtx<'_>, row: &mut Row| {
            if !self.all {
                if seen.contains(&*row) {
                    return Ok(Flow::More);
                }
                seen.insert(row.clone());
            }
            sink(ctx, row)
        };
        if run_op(self.left.as_ref(), ctx, &mut stats.children[0], &mut each)? == Flow::Stop {
            return Ok(Flow::Stop);
        }
        run_op(self.right.as_ref(), ctx, &mut stats.children[1], &mut each)
    }

    /// `UNION ALL` concatenates its inputs, so their deltas too. (Set
    /// union has no rule: whether a row leaves depends on the copies the
    /// other input still holds.)
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
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

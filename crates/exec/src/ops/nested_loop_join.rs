//! NestedLoopJoin: cross products and joins without a usable equi key.

use crowddb_common::{Result, Row, Value};
use crowddb_plan::{BExpr, JoinType, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval_truth;
use crate::ops::{
    build, collect, join_delta, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, TableChange,
};

/// Nested-loop join operator; see [`PhysicalPlan::NestedLoopJoin`].
pub struct NestedLoopJoinOp<'p> {
    left: BoxedOp<'p>,
    right: BoxedOp<'p>,
    /// The node, for the children's plans (`delta` runs one unobserved).
    plan: &'p PhysicalPlan,
    kind: JoinType,
    on: Option<&'p BExpr>,
    right_arity: usize,
}

impl<'p> NestedLoopJoinOp<'p> {
    /// Build from a [`PhysicalPlan::NestedLoopJoin`] node.
    pub fn new(plan: &'p PhysicalPlan) -> NestedLoopJoinOp<'p> {
        let PhysicalPlan::NestedLoopJoin {
            left,
            right,
            kind,
            on,
            ..
        } = plan
        else {
            unreachable!("NestedLoopJoinOp built from {plan:?}")
        };
        NestedLoopJoinOp {
            right_arity: right.schema().arity(),
            left: build(left),
            right: build(right),
            plan,
            kind: *kind,
            on: on.as_ref(),
        }
    }
}

impl Operator for NestedLoopJoinOp<'_> {
    /// Both inputs collected: every left row reads all of the right.
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let left_rows = collect(self.left.as_ref(), ctx, &mut stats.children[0])?;
        let right_rows = collect(self.right.as_ref(), ctx, &mut stats.children[1])?;
        self.join(ctx, &left_rows, &right_rows, sink)
    }

    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if self.on.is_some_and(BExpr::has_subplan) {
            return Ok(None);
        }
        let children = self.plan.children();
        join_delta(
            ctx,
            change,
            (self.left.as_ref(), children[0]),
            (self.right.as_ref(), children[1]),
            self.kind,
            |ctx, l, r, sink| self.join(ctx, l, r, sink),
        )
    }
}

impl NestedLoopJoinOp<'_> {
    /// Everything each row of `left` joins with in `right` goes on.
    fn join(
        &self,
        ctx: &mut ExecCtx<'_>,
        left: &[Row],
        right: &[Row],
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        for l in left {
            ctx.rt.check()?;
            let mut matched = false;
            for r in right {
                let joined = l.concat(r);
                let ok = match self.on {
                    Some(p) => eval_truth(ctx, p, &joined)?.passes_filter(),
                    None => true,
                };
                if ok {
                    matched = true;
                    if sink(ctx, joined)? == Flow::Stop {
                        return Ok(Flow::Stop);
                    }
                }
            }
            if !matched && self.kind == JoinType::Left {
                let pad = Row::new(vec![Value::Null; self.right_arity]);
                if sink(ctx, l.concat(&pad))? == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
        }
        Ok(Flow::More)
    }
}

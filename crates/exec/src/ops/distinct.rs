//! Distinct: whole-row duplicate elimination (first occurrence wins;
//! the seen-set keeps a copy of it, and the lent row goes on).

use std::collections::HashSet;

use crowddb_common::Result;
use crowddb_plan::PhysicalPlan;

use crate::context::ExecCtx;
use crate::ops::{build, for_each_row, BoxedOp, Flow, OpStatsNode, Operator, Sink, Streams};

/// Duplicate-elimination operator; see [`PhysicalPlan::Distinct`].
pub struct DistinctOp<'p> {
    input: BoxedOp<'p>,
    streams: Streams<'p>,
}

impl<'p> DistinctOp<'p> {
    /// Build from a [`PhysicalPlan::Distinct`] node.
    pub fn new(plan: &'p PhysicalPlan) -> DistinctOp<'p> {
        let PhysicalPlan::Distinct { input, .. } = plan else {
            unreachable!("DistinctOp built from {plan:?}")
        };
        DistinctOp {
            streams: Streams::new(plan, input),
            input: build(input),
        }
    }
}

impl Operator for DistinctOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let mut seen = HashSet::new();
        for_each_row(
            self.input.as_ref(),
            ctx,
            &mut stats.children[0],
            self.streams.get(),
            &mut |ctx, row| match seen.contains(&*row) {
                false => {
                    seen.insert(row.clone());
                    sink(ctx, row)
                }
                true => Ok(Flow::More),
            },
        )
    }
}

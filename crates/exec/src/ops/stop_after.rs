//! StopAfter: the paper's LIMIT/OFFSET operator.

use crowddb_common::Result;
use crowddb_plan::PhysicalPlan;

use crate::context::ExecCtx;
use crate::ops::{build, for_each_row, BoxedOp, Flow, OpStatsNode, Operator, Sink, Streams};

/// Limit/offset operator; see [`PhysicalPlan::StopAfter`].
pub struct StopAfterOp<'p> {
    input: BoxedOp<'p>,
    limit: Option<u64>,
    offset: u64,
    streams: Streams<'p>,
}

impl<'p> StopAfterOp<'p> {
    /// Build from a [`PhysicalPlan::StopAfter`] node.
    pub fn new(plan: &'p PhysicalPlan) -> StopAfterOp<'p> {
        let PhysicalPlan::StopAfter {
            input,
            limit,
            offset,
            ..
        } = plan
        else {
            unreachable!("StopAfterOp built from {plan:?}")
        };
        StopAfterOp {
            streams: Streams::new(plan, input),
            input: build(input),
            limit: *limit,
            offset: *offset,
        }
    }
}

impl Operator for StopAfterOp<'_> {
    /// Skips `offset` rows, passes `limit` on, and then stops its input —
    /// which, where the input streams, is where a `LIMIT` stops reading
    /// pages. An input that asks the crowd is collected whole first
    /// (`ops` invariant (i)): this operator never cuts crowd work.
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let (mut skip, mut take) = (self.offset, self.limit);
        // What the consumer said last; this operator's own `Stop`s to its
        // input are not the consumer's.
        let mut said = Flow::More;
        for_each_row(
            self.input.as_ref(),
            ctx,
            &mut stats.children[0],
            self.streams.get(),
            &mut |ctx, row| {
                if skip > 0 {
                    skip -= 1;
                    return Ok(Flow::More);
                }
                if take == Some(0) {
                    return Ok(Flow::Stop);
                }
                take = take.map(|n| n - 1);
                said = sink(ctx, row)?;
                Ok(match take {
                    Some(0) => Flow::Stop,
                    _ => said,
                })
            },
        )?;
        Ok(said)
    }
}

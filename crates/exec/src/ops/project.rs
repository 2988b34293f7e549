//! Project: expression evaluation over each input row.

use crowddb_common::{CrowdError, Result, Row, Value};
use crowddb_plan::{BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{
    build, for_each_row, map_delta, streams, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink,
    TableChange,
};

/// Projection operator; see [`PhysicalPlan::Project`].
pub struct ProjectOp<'p> {
    input: BoxedOp<'p>,
    exprs: &'p [BExpr],
    /// The input columns the expressions are, when each is a plain
    /// column reference and none is repeated: the output row's values are
    /// then moved out of the input row, not cloned.
    moves: Option<Vec<usize>>,
    streams: bool,
}

impl<'p> ProjectOp<'p> {
    /// Build from a [`PhysicalPlan::Project`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ProjectOp<'p> {
        let PhysicalPlan::Project { input, exprs, .. } = plan else {
            unreachable!("ProjectOp built from {plan:?}")
        };
        let columns: Option<Vec<usize>> = (exprs.iter())
            .map(|e| match e {
                BExpr::Column(i) => Some(*i),
                _ => None,
            })
            .collect();
        let distinct = |cs: &Vec<usize>| cs.iter().enumerate().all(|(n, c)| !cs[..n].contains(c));
        ProjectOp {
            streams: streams(plan, input),
            input: build(input),
            exprs,
            moves: columns.filter(distinct),
        }
    }
}

impl ProjectOp<'_> {
    /// The output row of `row` goes on.
    fn project(&self, ctx: &mut ExecCtx<'_>, row: Row, sink: &mut Sink<'_>) -> Result<Flow> {
        ctx.rt.check()?;
        let values = match &self.moves {
            Some(columns) => {
                let mut input = row.into_values();
                let mut take = |i: usize| {
                    let v = input
                        .get_mut(i)
                        .ok_or_else(|| CrowdError::Internal(format!("column #{i} out of range")))?;
                    Ok(std::mem::replace(v, Value::Null))
                };
                columns.iter().map(|&i| take(i)).collect::<Result<_>>()?
            }
            None => {
                let mut values = Vec::with_capacity(self.exprs.len());
                for e in self.exprs {
                    values.push(eval(ctx, e, &row)?);
                }
                values
            }
        };
        sink(ctx, Row::new(values))
    }
}

impl Operator for ProjectOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        for_each_row(
            self.input.as_ref(),
            ctx,
            &mut stats.children[0],
            self.streams,
            &mut |ctx, row| self.project(ctx, row, sink),
        )
    }

    /// Row-at-a-time expressions map both lists (see `FilterOp::delta`).
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if self.exprs.iter().any(BExpr::has_subplan) {
            return Ok(None);
        }
        let Some(input) = self.input.delta(ctx, change)? else {
            return Ok(None);
        };
        map_delta(ctx, input, |ctx, row, sink| self.project(ctx, row, sink)).map(Some)
    }
}

//! Sort: stable machine sort (no `CROWDORDER` keys — those select
//! [`super::crowd_sort`] at lowering).

use std::cmp::Ordering;

use crowddb_common::{Result, Row, Value};
use crowddb_plan::{PhysicalPlan, SortKey};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{
    build, collect, emit_all, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, TableChange,
};

/// Machine-sort operator; see [`PhysicalPlan::Sort`].
pub struct SortOp<'p> {
    input: BoxedOp<'p>,
    keys: &'p [SortKey],
}

impl<'p> SortOp<'p> {
    /// Build from a [`PhysicalPlan::Sort`] node.
    pub fn new(plan: &'p PhysicalPlan) -> SortOp<'p> {
        let PhysicalPlan::Sort { input, keys, .. } = plan else {
            unreachable!("SortOp built from {plan:?}")
        };
        SortOp {
            input: build(input),
            keys,
        }
    }
}

impl Operator for SortOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let rows = collect(self.input.as_ref(), ctx, &mut stats.children[0])?;
        if rows.len() <= 1 {
            return emit_all(ctx, rows, sink);
        }
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
        for row in rows {
            ctx.rt.check()?;
            let mut ks = Vec::with_capacity(self.keys.len());
            for key in self.keys {
                ks.push(eval(ctx, &key.expr, &row)?);
            }
            keyed.push((ks, row));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            for (i, key) in self.keys.iter().enumerate() {
                let ord = a[i].sort_cmp(&b[i]);
                let ord = if key.desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        emit_all(ctx, keyed.into_iter().map(|(_, r)| r), sink)
    }

    /// A delta is a multiset: sorting changes no row, only their order.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        self.input.delta(ctx, change)
    }
}

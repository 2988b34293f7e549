//! Sort: every row's keys evaluated once, then ordered by a machine
//! comparison or, for a `CROWDORDER` key, by the paper's CrowdCompare.
//!
//! All-machine keys go through the std stable sort. With a `CROWDORDER`
//! key (shown as `CrowdSort`) the comparator consults the session order
//! cache; missing pairs are recorded as needs and compared by rendered
//! text for this round (the fallback keeps the round deterministic; once
//! the crowd answers arrive the cache decides). Crowd verdicts need not
//! be transitive, and std's sort may panic on a comparator that is not a
//! total order, so such a sort runs a deterministic quicksort instead.

use std::cmp::Ordering;

use crowddb_common::{Result, Row, Value};
use crowddb_plan::physical::crowd_sorted;
use crowddb_plan::{BExpr, PhysicalPlan, SortKey};

use crate::context::{Compare, ExecCtx};
use crate::eval::eval;
use crate::ops::{
    build, collect, emit_all, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, TableChange,
};

/// Sort operator; see [`PhysicalPlan::Sort`].
pub struct SortOp<'p> {
    input: BoxedOp<'p>,
    keys: &'p [SortKey],
    /// Some key is a `CROWDORDER`: sort by [`quicksort`].
    crowd: bool,
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
            crowd: crowd_sorted(keys),
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
        // Checkpoints live in this key-materialization pre-pass: the
        // comparators below return `Ordering` and cannot propagate a
        // cancellation error. A `CROWDORDER` key is kept as the text the
        // crowd compares.
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
        for row in rows {
            ctx.rt.check()?;
            let mut ks = Vec::with_capacity(self.keys.len());
            for key in self.keys {
                ks.push(match &key.expr {
                    BExpr::CrowdOrder { expr, .. } => {
                        Value::Str(eval(ctx, expr, &row)?.to_string())
                    }
                    machine => eval(ctx, machine, &row)?,
                });
            }
            keyed.push((ks, row));
        }
        if !self.crowd {
            keyed.sort_by(|(a, _), (b, _)| compare(ctx, self.keys, a, b));
            return emit_all(ctx, keyed.into_iter().map(|(_, r)| r), sink);
        }
        let mut order: Vec<usize> = (0..keyed.len()).collect();
        quicksort(&mut order, |a, b| {
            compare(ctx, self.keys, &keyed[a].0, &keyed[b].0)
        });
        let mut rows: Vec<Option<Row>> = keyed.into_iter().map(|(_, r)| Some(r)).collect();
        emit_all(ctx, order.into_iter().filter_map(|i| rows[i].take()), sink)
    }

    /// A delta is a multiset: sorting changes no row, only their order.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        self.input.delta(ctx, change)
    }
}

/// Two rows' materialized keys, key by key: by machine ordering, or by
/// [`crowd_order`] at a `CROWDORDER` key.
fn compare(ctx: &mut ExecCtx<'_>, keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for ((key, a), b) in keys.iter().zip(a).zip(b) {
        let ord = match (&key.expr, a, b) {
            (BExpr::CrowdOrder { instruction, .. }, Value::Str(a), Value::Str(b)) => {
                crowd_order(ctx, a, b, instruction)
            }
            _ => a.sort_cmp(b),
        };
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// CrowdCompare as a sort order: the preferred item sorts first. Under
/// [`crate::ExecGuard::hybrid_order`], machine-comparable pairs
/// (identical after trimming, or both numeric) are ordered locally and
/// never reach the cache or the crowd — the hybrid CROWDORDER
/// optimization.
fn crowd_order(ctx: &mut ExecCtx<'_>, left: &str, right: &str, instruction: &str) -> Ordering {
    if left == right {
        return Ordering::Equal;
    }
    if ctx.rt.hybrid_order() {
        if let Some(ord) = crowddb_quality::try_machine_order(left, right) {
            ctx.rt.stats.machine_ordered += 1;
            return ord;
        }
    }
    match ctx.crowd_compare(Compare::Order, left, right, instruction) {
        Some(true) => Ordering::Less,
        Some(false) => Ordering::Greater,
        // Deterministic fallback for this round.
        None => left.cmp(right),
    }
}

/// Deterministic quicksort over row indices: pivot = first index, the
/// less-partition sorted before the greater one. An explicit work stack
/// instead of recursion, so an input of any length is sorted completely.
fn quicksort(idxs: &mut [usize], mut cmp: impl FnMut(usize, usize) -> Ordering) {
    let mut work = vec![(0, idxs.len())];
    while let Some((lo, hi)) = work.pop() {
        if hi - lo <= 1 {
            continue;
        }
        let pivot = idxs[lo];
        let (mut less, mut greater) = (Vec::new(), Vec::new());
        for &i in &idxs[lo + 1..hi] {
            match cmp(i, pivot) {
                Ordering::Less => less.push(i),
                _ => greater.push(i),
            }
        }
        let at = lo + less.len();
        idxs[lo..at].copy_from_slice(&less);
        idxs[at] = pivot;
        idxs[at + 1..hi].copy_from_slice(&greater);
        // Popped last-in first-out: the less-partition goes first.
        work.push((at + 1, hi));
        work.push((lo, at));
    }
}

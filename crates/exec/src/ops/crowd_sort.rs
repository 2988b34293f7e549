//! CrowdSort: the paper's CrowdCompare inside a deterministic quicksort.
//!
//! The comparator consults the session order cache; missing pairs are
//! recorded as needs and compared by rendered text for this round (the
//! fallback keeps the round deterministic; once the crowd answers arrive
//! the cache decides). Machine keys mixed in with `CROWDORDER` keys are
//! compared by machine ordering at their position.

use std::cmp::Ordering;

use crowddb_common::{Result, Row, Value};
use crowddb_plan::{BExpr, PhysicalPlan, SortKey};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{build, collect, emit_all, BoxedOp, Flow, OpStatsNode, Operator, Sink};

/// Crowd-sort operator; see [`PhysicalPlan::CrowdSort`].
pub struct CrowdSortOp<'p> {
    input: BoxedOp<'p>,
    keys: &'p [SortKey],
}

impl<'p> CrowdSortOp<'p> {
    /// Build from a [`PhysicalPlan::CrowdSort`] node.
    pub fn new(plan: &'p PhysicalPlan) -> CrowdSortOp<'p> {
        let PhysicalPlan::CrowdSort { input, keys, .. } = plan else {
            unreachable!("CrowdSortOp built from {plan:?}")
        };
        CrowdSortOp {
            input: build(input),
            keys,
        }
    }
}

impl Operator for CrowdSortOp<'_> {
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
        // Materialize sort keys per row.
        // Checkpoints live in this key-materialization pre-pass: the
        // quicksort comparator below returns `Ordering` and cannot
        // propagate a cancellation error.
        let mut keyed: Vec<(Vec<KeyVal>, Row)> = Vec::with_capacity(rows.len());
        for row in rows {
            ctx.rt.check()?;
            let mut ks = Vec::with_capacity(self.keys.len());
            for key in self.keys {
                match &key.expr {
                    BExpr::CrowdOrder { expr, instruction } => {
                        let v = eval(ctx, expr, &row)?;
                        ks.push(KeyVal::Crowd {
                            rendered: v.to_string(),
                            instruction: instruction.clone(),
                        });
                    }
                    machine => ks.push(KeyVal::Machine(eval(ctx, machine, &row)?)),
                }
            }
            keyed.push((ks, row));
        }
        let mut order: Vec<usize> = (0..keyed.len()).collect();
        let descs: Vec<bool> = self.keys.iter().map(|k| k.desc).collect();
        quicksort(ctx, &mut order, &keyed, &descs, 0);
        emit_all(ctx, order.into_iter().map(|i| keyed[i].1.clone()), sink)
    }
}

/// One materialized sort key: machine value or crowd-compared rendering.
enum KeyVal {
    Machine(Value),
    Crowd {
        rendered: String,
        instruction: String,
    },
}

impl KeyVal {
    fn compare(&self, other: &KeyVal, ctx: &mut ExecCtx<'_>) -> Ordering {
        match (self, other) {
            (KeyVal::Machine(a), KeyVal::Machine(b)) => a.sort_cmp(b),
            (
                KeyVal::Crowd {
                    rendered: a,
                    instruction,
                },
                KeyVal::Crowd { rendered: b, .. },
            ) => ctx.crowd_compare(a, b, instruction),
            _ => Ordering::Equal, // keys are homogeneous per position
        }
    }
}

/// Deterministic quicksort over row indices (pivot = first index,
/// recursion capped so crowd-fallback comparisons can't blow the stack).
fn quicksort(
    ctx: &mut ExecCtx<'_>,
    idxs: &mut [usize],
    keyed: &[(Vec<KeyVal>, Row)],
    descs: &[bool],
    depth: usize,
) {
    if idxs.len() <= 1 || depth > 64 {
        return;
    }
    let pivot = idxs[0];
    let rest = &idxs[1..];
    let mut less = Vec::new();
    let mut greater = Vec::new();
    for &i in rest {
        match compare_keyed(ctx, &keyed[i].0, &keyed[pivot].0, descs) {
            Ordering::Less => less.push(i),
            _ => greater.push(i),
        }
    }
    quicksort(ctx, &mut less, keyed, descs, depth + 1);
    quicksort(ctx, &mut greater, keyed, descs, depth + 1);
    let mut merged = Vec::with_capacity(idxs.len());
    merged.extend_from_slice(&less);
    merged.push(pivot);
    merged.extend_from_slice(&greater);
    idxs.copy_from_slice(&merged);
}

fn compare_keyed(ctx: &mut ExecCtx<'_>, a: &[KeyVal], b: &[KeyVal], descs: &[bool]) -> Ordering {
    for (i, (ka, kb)) in a.iter().zip(b.iter()).enumerate() {
        let ord = ka.compare(kb, ctx);
        let ord = if descs.get(i).copied().unwrap_or(false) {
            ord.reverse()
        } else {
            ord
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

//! Sort: every row's keys evaluated once, then ordered by a machine
//! comparison or, for a `CROWDORDER` key, by the paper's CrowdCompare.
//!
//! All-machine keys go through the std stable sort — or, with a `keep`
//! of `k` (a `LIMIT` above, shown as `top=k`), through a heap of the `k`
//! best rows so far, ordered by (keys, arrival): O(n log k), and the same
//! `k` rows, in the same order, as the first `k` of the stable sort. The
//! input is read through `for_each_row`, so it streams where `ops`
//! allows. With a `CROWDORDER` key (shown as `CrowdSort`) the comparator
//! consults the session order cache; missing pairs are recorded as needs
//! and compared by rendered text for this round (the fallback keeps the
//! round deterministic; once the crowd answers arrive the cache decides).
//! Crowd verdicts need not be transitive, and std's sort may panic on a
//! comparator that is not a total order, so such a sort runs a
//! deterministic quicksort instead, over every row.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crowddb_common::{Result, Row, Value};
use crowddb_plan::physical::crowd_sorted;
use crowddb_plan::{BExpr, PhysicalPlan, SortKey};

use crate::context::{Compare, ExecCtx};
use crate::eval::eval;
use crate::ops::{
    build, emit_all, for_each_row, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, Streams,
    TableChange,
};

/// Sort operator; see [`PhysicalPlan::Sort`].
pub struct SortOp<'p> {
    input: BoxedOp<'p>,
    keys: &'p [SortKey],
    /// Emit only this many rows (never set on a crowd sort).
    keep: Option<u64>,
    /// Some key is a `CROWDORDER`: sort by [`quicksort`].
    crowd: bool,
    streams: Streams<'p>,
}

impl<'p> SortOp<'p> {
    /// Build from a [`PhysicalPlan::Sort`] node.
    pub fn new(plan: &'p PhysicalPlan) -> SortOp<'p> {
        let PhysicalPlan::Sort {
            input, keys, keep, ..
        } = plan
        else {
            unreachable!("SortOp built from {plan:?}")
        };
        let crowd = crowd_sorted(keys);
        SortOp {
            streams: Streams::new(plan, input),
            input: build(input),
            keys,
            keep: keep.filter(|_| !crowd),
            crowd,
        }
    }

    /// The row function: `row`'s keys evaluated into `keys` (a buffer the
    /// caller reuses), and the row taken in. A checkpoint: the
    /// comparators below return `Ordering` and cannot propagate a
    /// cancellation error. A `CROWDORDER` key is kept as the text the
    /// crowd compares.
    fn take(
        &self,
        ctx: &mut ExecCtx<'_>,
        taken: &mut Taken<'_>,
        keys: &mut Vec<Value>,
        row: &mut Row,
    ) -> Result<()> {
        ctx.rt.check()?;
        keys.clear();
        for key in self.keys {
            keys.push(match &key.expr {
                BExpr::CrowdOrder { expr, .. } => Value::Str(eval(ctx, expr, row)?.to_string()),
                machine => eval(ctx, machine, row)?,
            });
        }
        match taken {
            Taken::Top(top) => top.offer(keys, row),
            Taken::All(all) => all.push((std::mem::take(keys), std::mem::take(row))),
        }
        Ok(())
    }
}

/// The rows a sort has taken in, with their keys.
enum Taken<'k> {
    /// Every row, in arrival order.
    All(Vec<(Vec<Value>, Row)>),
    /// The first `k` so far (a `keep`).
    Top(TopK<'k>),
}

impl Operator for SortOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let mut taken = match self.keep {
            Some(k) => Taken::Top(TopK::new(self.keys, k)),
            None => Taken::All(Vec::new()),
        };
        // An input of one row goes on as it is, its keys never evaluated,
        // as a sort's always has: the first row waits for a second.
        let (mut first, mut arrived, mut keys) = (None, 0u64, Vec::new());
        let input = self.input.as_ref();
        for_each_row(
            input,
            ctx,
            &mut stats.children[0],
            self.streams.get(),
            &mut |ctx, row| {
                arrived += 1;
                if arrived == 1 {
                    first = Some(std::mem::take(row));
                    return Ok(Flow::More);
                }
                if let Some(mut held) = first.take() {
                    self.take(ctx, &mut taken, &mut keys, &mut held)?;
                }
                self.take(ctx, &mut taken, &mut keys, row)?;
                Ok(Flow::More)
            },
        )?;
        if let Some(only) = first {
            return emit_all(ctx, [only], sink);
        }
        let mut keyed = match taken {
            Taken::Top(top) => return emit_all(ctx, top.into_sorted(), sink),
            Taken::All(keyed) => keyed,
        };
        if !self.crowd {
            keyed.sort_by(|(a, _), (b, _)| machine_compare(self.keys, a, b));
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
    /// (Keeping the first `k` does change which rows, but only under a
    /// `StopAfter`, which has no rule.)
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        self.input.delta(ctx, change)
    }
}

/// The `k` rows that sort first among those offered so far: a max-heap
/// whose root is the kept row that sorts last, so a new row either beats
/// it or is dropped without a copy. Arrival breaks ties — an earlier row
/// sorts first — which is what makes the rows kept the first `k` of a
/// stable sort.
struct TopK<'k> {
    by: &'k [SortKey],
    k: usize,
    heap: BinaryHeap<Kept<'k>>,
    arrived: u64,
}

/// One kept row with its keys and arrival number.
struct Kept<'k> {
    by: &'k [SortKey],
    keys: Vec<Value>,
    seq: u64,
    row: Row,
}

impl Ord for Kept<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        machine_compare(self.by, &self.keys, &other.keys).then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Kept<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Kept<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Kept<'_> {}

impl<'k> TopK<'k> {
    fn new(by: &'k [SortKey], k: u64) -> TopK<'k> {
        let k = usize::try_from(k).unwrap_or(usize::MAX);
        TopK {
            by,
            k,
            heap: BinaryHeap::with_capacity(k.min(1024)),
            arrived: 0,
        }
    }

    /// Offer the next row, its keys evaluated into `keys`. A row that
    /// makes the cut is taken (`row` and `keys` are left empty); one that
    /// does not leaves both as they were, for the caller to reuse.
    fn offer(&mut self, keys: &mut Vec<Value>, row: &mut Row) {
        let (by, seq) = (self.by, self.arrived);
        self.arrived += 1;
        let kept = |keys: &mut Vec<Value>, row: &mut Row| Kept {
            by,
            keys: std::mem::take(keys),
            seq,
            row: std::mem::take(row),
        };
        if self.heap.len() < self.k {
            self.heap.push(kept(keys, row));
            return;
        }
        // Full (or `k` is 0): the new row arrived last, so it must sort
        // strictly before the root to displace it.
        let Some(mut last) = self.heap.peek_mut() else {
            return;
        };
        if machine_compare(by, keys, &last.keys) == Ordering::Less {
            *last = kept(keys, row);
        }
    }

    /// The kept rows, first to last.
    fn into_sorted(self) -> impl Iterator<Item = Row> + 'k {
        self.heap.into_sorted_vec().into_iter().map(|kept| kept.row)
    }
}

/// Two rows' machine keys, key by key.
fn machine_compare(keys: &[SortKey], a: &[Value], b: &[Value]) -> Ordering {
    for ((key, a), b) in keys.iter().zip(a).zip(b) {
        let ord = a.sort_cmp(b);
        let ord = if key.desc { ord.reverse() } else { ord };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
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

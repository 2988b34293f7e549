//! Aggregate: grouping (first-seen group order) and aggregate functions,
//! in one pass over running accumulators.
//!
//! Every input row is folded into its group's [`Acc`]s as it arrives and
//! dropped; the output rows are read off the accumulators at the end.
//! For a standing query that same state, [`Groups`], is what the
//! operator keeps between triggers — provided every call has an *exact*
//! running accumulator and every fold so far stayed exact — so that a
//! changed input row moves its group's output row without the group
//! being re-read: `delta` applies the changed rows with the very
//! [`AggregateOp::fold`] that `execute` built the state with.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use crowddb_common::{CrowdError, Result, Row, Value};
use crowddb_plan::{AggCall, AggFn, BExpr, PhysicalPlan};

use crate::context::{ExecCtx, NodeState};
use crate::eval::{eval, operand};
use crate::ops::{
    build, emit_all, for_each_row, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, Streams,
    TableChange,
};

/// Aggregation operator; see [`PhysicalPlan::Aggregate`].
pub struct AggregateOp<'p> {
    input: BoxedOp<'p>,
    group_by: &'p [BExpr],
    aggs: &'p [AggCall],
    /// Where this node's [`Groups`] live in the context's node states:
    /// the address of the plan node.
    key: usize,
    streams: Streams<'p>,
}

/// The running state of one `Aggregate` node.
#[derive(Debug)]
pub(crate) struct Groups {
    by_key: HashMap<Vec<Value>, Group>,
    /// Whether the state is still certain to equal, byte for byte, what a
    /// fresh evaluation would build — see [`AggregateOp::fold`].
    exact: bool,
}

/// One group's accumulators.
#[derive(Debug)]
struct Group {
    /// How many groups were seen before this one: the output order.
    seq: usize,
    /// Input rows in the group (`COUNT(*)`; zero drops the group).
    rows: u64,
    /// One per aggregate call, in call order.
    accs: Vec<Acc>,
}

/// The accumulator of one call over one group's arguments — the
/// non-missing ones, each once under `DISTINCT` — in arrival order.
#[derive(Debug, Default, Clone)]
struct Acc {
    /// How many there are (`COUNT(x)`; `SUM`/`AVG` are `NULL` at zero).
    n: u64,
    /// Their sum, while all are integers and no partial sum overflowed.
    sum: i64,
    /// A partial integer sum overflowed: an error if they stay integers.
    overflowed: bool,
    /// The sum of their magnitudes. While it fits an `i64` no partial sum
    /// can overflow in *any* order of addition, so a fresh evaluation
    /// returns `sum` too instead of an overflow error.
    magnitude: u64,
    /// Their sum as floats, added in arrival order.
    float: f64,
    /// One was not an integer / not a number at all.
    non_int: bool,
    non_numeric: bool,
    /// `MIN`/`MAX`: the winner so far.
    extreme: Option<Value>,
    /// `DISTINCT`: the arguments already counted.
    seen: HashSet<Value>,
}

impl<'p> AggregateOp<'p> {
    /// Build from a [`PhysicalPlan::Aggregate`] node.
    pub fn new(plan: &'p PhysicalPlan) -> AggregateOp<'p> {
        let PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
            ..
        } = plan
        else {
            unreachable!("AggregateOp built from {plan:?}")
        };
        AggregateOp {
            key: plan as *const PhysicalPlan as usize,
            streams: Streams::new(plan, input),
            input: build(input),
            group_by,
            aggs,
        }
    }

    /// No rows yet: no group, but for the one group of an aggregate
    /// without `GROUP BY`, which exists over empty input too.
    fn no_rows(&self) -> Groups {
        let mut by_key = HashMap::new();
        if self.group_by.is_empty() {
            by_key.insert(vec![], self.new_group(0));
        }
        Groups {
            by_key,
            exact: true,
        }
    }

    /// An empty group, the `seq`-th seen.
    fn new_group(&self, seq: usize) -> Group {
        Group {
            seq,
            rows: 0,
            accs: vec![Acc::default(); self.aggs.len()],
        }
    }

    /// The grouping key of `row`. A one-expression key that is a column
    /// or a literal is lent from `row` or the plan: looking its group up
    /// copies nothing, and only a new group gets a key of its own.
    fn key_of<'a>(&'a self, ctx: &mut ExecCtx<'_>, row: &'a Row) -> Result<Cow<'a, [Value]>> {
        if let [g] = self.group_by {
            return Ok(match operand(ctx, g, row)? {
                Cow::Borrowed(v) => Cow::Borrowed(std::slice::from_ref(v)),
                Cow::Owned(v) => Cow::Owned(vec![v]),
            });
        }
        let mut key = Vec::with_capacity(self.group_by.len());
        for g in self.group_by {
            key.push(eval(ctx, g, row)?);
        }
        Ok(Cow::Owned(key))
    }

    /// The row function: add (`enters`) or take away one input row of
    /// group `key`. Taking away is for `delta` alone, which only runs
    /// over calls with an exact running accumulator (`COUNT`s and integer
    /// `SUM`s).
    ///
    /// Clears `groups.exact` when the state would no longer be certain to
    /// equal a fresh evaluation byte for byte: a FLOAT grouping key
    /// (`0.0 = -0.0` and `NaN = NaN` merge groups, and the first-seen row
    /// names the key), a `SUM` argument that is not an integer after all,
    /// a sum whose partial sums could overflow, or a row leaving a group
    /// that does not hold it. That ends the state's life as a standing
    /// query's; the round's own answer is unaffected.
    fn fold(
        &self,
        ctx: &mut ExecCtx<'_>,
        groups: &mut Groups,
        key: &[Value],
        row: &Row,
        enters: bool,
    ) -> Result<()> {
        groups.exact &= !key.iter().any(|v| matches!(v, Value::Float(_)));
        let step = |n: u64| match enters {
            true => n.checked_add(1),
            false => n.checked_sub(1),
        };
        let seq = groups.by_key.len();
        let group = match groups.by_key.get_mut(key) {
            Some(group) => group,
            None => groups
                .by_key
                .entry(key.to_vec())
                .or_insert(self.new_group(seq)),
        };
        let rows = step(group.rows);
        group.rows = rows.unwrap_or(0);
        let mut exact = rows.is_some();
        for (acc, agg) in group.accs.iter_mut().zip(self.aggs) {
            // COUNT(*) is the group's row count.
            let Some(arg) = &agg.arg else { continue };
            let v = operand(ctx, arg, row)?;
            if v.is_missing() || (agg.distinct && !acc.seen.insert(v.clone().into_owned())) {
                continue;
            }
            let n = step(acc.n);
            acc.n = n.unwrap_or(0);
            exact &= n.is_some();
            match agg.func {
                AggFn::Count => {}
                AggFn::Sum | AggFn::Avg => {
                    match *v {
                        Value::Int(i) => {
                            let (sum, magnitude) = match enters {
                                true => (
                                    acc.sum.checked_add(i),
                                    acc.magnitude.checked_add(i.unsigned_abs()),
                                ),
                                false => (
                                    acc.sum.checked_sub(i),
                                    acc.magnitude.checked_sub(i.unsigned_abs()),
                                ),
                            };
                            acc.overflowed |= sum.is_none();
                            acc.sum = sum.unwrap_or(0);
                            acc.magnitude = magnitude.unwrap_or(u64::MAX);
                            exact &= acc.magnitude <= i64::MAX as u64;
                        }
                        Value::Float(_) => acc.non_int = true,
                        _ => (acc.non_int, acc.non_numeric) = (true, true),
                    }
                    acc.float += v.as_f64().unwrap_or(0.0);
                    exact &= !acc.non_int;
                }
                // Of equals, MIN keeps the first and MAX the last.
                AggFn::Min | AggFn::Max => {
                    let wins = match (&acc.extreme, agg.func) {
                        (None, _) => true,
                        (Some(best), AggFn::Min) => v.sort_cmp(best) == Ordering::Less,
                        (Some(best), _) => v.sort_cmp(best) != Ordering::Less,
                    };
                    if wins {
                        acc.extreme = Some(v.into_owned());
                    }
                }
            }
        }
        groups.exact &= exact;
        Ok(())
    }

    /// The output row of group `key`, if the group exists: it holds a
    /// row, or it is the one group of an aggregate without `GROUP BY`.
    fn group_row(&self, key: &[Value], group: Option<&Group>) -> Result<Option<Row>> {
        let Some(group) = group else {
            return Ok(None);
        };
        if group.rows == 0 && !self.group_by.is_empty() {
            return Ok(None);
        }
        let mut values = key.to_vec();
        for (acc, agg) in group.accs.iter().zip(self.aggs) {
            values.push(match (agg.func, &agg.arg) {
                (AggFn::Count, None) => Value::Int(group.rows as i64),
                (AggFn::Count, Some(_)) => Value::Int(acc.n as i64),
                (AggFn::Min | AggFn::Max, _) => acc.extreme.clone().unwrap_or(Value::Null),
                _ if acc.n == 0 => Value::Null,
                (AggFn::Sum, _) if !acc.non_int => match acc.overflowed {
                    true => return Err(CrowdError::Exec("integer overflow in SUM".into())),
                    false => Value::Int(acc.sum),
                },
                (func, _) if acc.non_numeric => {
                    let name = func.name();
                    return Err(CrowdError::Type(format!("{name} over non-numeric values")));
                }
                (AggFn::Sum, _) => Value::Float(acc.float),
                (_, _) => Value::Float(acc.float / acc.n as f64),
            });
        }
        Ok(Some(Row::new(values)))
    }
}

impl Operator for AggregateOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let mut groups = self.no_rows();
        for_each_row(
            self.input.as_ref(),
            ctx,
            &mut stats.children[0],
            self.streams.get(),
            &mut |ctx, row| {
                ctx.rt.check()?;
                let key = self.key_of(ctx, row)?;
                self.fold(ctx, &mut groups, &key, row, true)?;
                Ok(Flow::More)
            },
        )?;
        let mut first_seen: Vec<_> = groups.by_key.iter().collect();
        first_seen.sort_unstable_by_key(|(_, group)| group.seq);
        let mut out = Vec::with_capacity(first_seen.len());
        for (key, group) in first_seen {
            out.extend(self.group_row(key, Some(group))?);
        }
        if groups.exact {
            ctx.keep_state(self.key, NodeState::Groups(groups));
        }
        emit_all(ctx, out, sink)
    }

    /// Fold the input's delta into the groups it touches and emit, per
    /// touched group, `-` the row it showed before and `+` the row it
    /// shows now. The state is taken out of the context while it moves:
    /// a `None` on the way leaves none behind, and the re-execution that
    /// follows rebuilds it.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        let Some(input) = self.input.delta(ctx, change)? else {
            return Ok(None);
        };
        let Some(NodeState::Groups(mut groups)) = ctx.take_state(self.key) else {
            return Ok(None);
        };
        let mut before: HashMap<Vec<Value>, Option<Row>> = HashMap::new();
        for (rows, enters) in [(&input.removed, false), (&input.added, true)] {
            for row in rows {
                let key = self.key_of(ctx, row)?;
                if !before.contains_key(&*key) {
                    let was = self.group_row(&key, groups.by_key.get(&*key))?;
                    before.insert(key.to_vec(), was);
                }
                self.fold(ctx, &mut groups, &key, row, enters)?;
                if !groups.exact {
                    return Ok(None);
                }
            }
        }
        let mut delta = Delta::default();
        for (key, was) in before {
            let is = self.group_row(&key, groups.by_key.get(&key))?;
            if is.is_none() {
                groups.by_key.remove(&key);
            }
            if was != is {
                delta.removed.extend(was);
                delta.added.extend(is);
            }
        }
        ctx.keep_state(self.key, NodeState::Groups(groups));
        Ok(Some(delta))
    }
}

//! Aggregate: grouping (first-seen group order) and aggregate functions.
//!
//! For a standing query the operator also keeps [`Groups`] — per group a
//! row count and one exact running accumulator per call — so that a
//! changed input row moves its group's output row without the group
//! being re-read. The state is built by `execute` (when the context asks
//! for it) with the same [`AggregateOp::fold`] that `delta` applies the
//! changed rows with.

use std::collections::{HashMap, HashSet};

use crowddb_common::{CrowdError, Result, Row, Value};
use crowddb_plan::{AggCall, AggFn, BExpr, PhysicalPlan};

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::{build, run_op, BoxedOp, Delta, OpStatsNode, Operator, TableChange};

/// Aggregation operator; see [`PhysicalPlan::Aggregate`].
pub struct AggregateOp<'p> {
    input: BoxedOp<'p>,
    group_by: &'p [BExpr],
    aggs: &'p [AggCall],
    /// Every call has an exact running accumulator
    /// ([`AggCall::exact_running`]) and no grouping key reads a subquery.
    maintainable: bool,
    /// Where this node's [`Groups`] live in `ExecCtx::groups`: the
    /// address of the plan node, which is stable for as long as the
    /// standing query owns its boxed plan. A miss (say, after a clone)
    /// only means "no delta".
    key: usize,
}

/// The running state of one `Aggregate` node: group key → accumulators.
pub(crate) type Groups = HashMap<Vec<Value>, Group>;

/// One group's accumulators.
#[derive(Debug)]
pub(crate) struct Group {
    /// Input rows in the group (`COUNT(*)`; zero drops the group).
    rows: u64,
    /// One per aggregate call, in call order.
    accs: Vec<Acc>,
}

impl Group {
    fn empty(calls: usize) -> Group {
        Group {
            rows: 0,
            accs: vec![Acc::default(); calls],
        }
    }
}

/// The accumulator of one call over one group's non-missing arguments.
#[derive(Debug, Default, Clone)]
struct Acc {
    /// How many there are (`COUNT(x)`; `SUM` is `NULL` at zero).
    n: u64,
    /// Their sum.
    sum: i64,
    /// The sum of their magnitudes. While it fits an `i64` no partial sum
    /// can overflow in *any* order of addition, so a fresh evaluation
    /// returns `sum` too instead of an overflow error.
    magnitude: u64,
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
        let input_schema = input.schema();
        AggregateOp {
            maintainable: aggs.iter().all(|a| a.exact_running(&input_schema))
                && !group_by.iter().any(BExpr::has_subplan),
            key: plan as *const PhysicalPlan as usize,
            input: build(input),
            group_by,
            aggs,
        }
    }

    /// The grouping key of `row`.
    fn key_of(&self, ctx: &mut ExecCtx<'_>, row: &Row) -> Result<Vec<Value>> {
        let mut key = Vec::with_capacity(self.group_by.len());
        for g in self.group_by {
            key.push(eval(ctx, g, row)?);
        }
        Ok(key)
    }

    /// Add (`enters`) or take away one input row of group `key`. `false`
    /// when the result would no longer be certain to equal a fresh
    /// evaluation byte for byte: a FLOAT grouping key (`0.0 = -0.0` and
    /// `NaN = NaN` merge groups, and the first-seen row names the key), a
    /// `SUM` argument that is not an integer after all, a sum whose
    /// partial sums could overflow, or a row leaving a group that does
    /// not hold it.
    fn fold(
        &self,
        ctx: &mut ExecCtx<'_>,
        groups: &mut Groups,
        key: Vec<Value>,
        row: &Row,
        enters: bool,
    ) -> Result<bool> {
        if key.iter().any(|v| matches!(v, Value::Float(_))) {
            return Ok(false);
        }
        let group = groups
            .entry(key)
            .or_insert_with(|| Group::empty(self.aggs.len()));
        let step = |n: u64| match enters {
            true => n.checked_add(1),
            false => n.checked_sub(1),
        };
        let Some(rows) = step(group.rows) else {
            return Ok(false);
        };
        group.rows = rows;
        for (acc, agg) in group.accs.iter_mut().zip(self.aggs) {
            let Some(arg) = &agg.arg else { continue };
            let int = match (agg.func, eval(ctx, arg, row)?) {
                (_, v) if v.is_missing() => continue,
                (AggFn::Count, _) => 0,
                (_, Value::Int(i)) => i,
                _ => return Ok(false),
            };
            let moved = match enters {
                true => (
                    acc.sum.checked_add(int),
                    acc.magnitude.checked_add(int.unsigned_abs()),
                ),
                false => (
                    acc.sum.checked_sub(int),
                    acc.magnitude.checked_sub(int.unsigned_abs()),
                ),
            };
            let (Some(n), (Some(sum), Some(magnitude))) = (step(acc.n), moved) else {
                return Ok(false);
            };
            if magnitude > i64::MAX as u64 {
                return Ok(false);
            }
            *acc = Acc { n, sum, magnitude };
        }
        Ok(true)
    }

    /// The output row of group `key`, if the group exists: it holds a
    /// row, or it is the one group of an aggregate without `GROUP BY`.
    fn group_row(&self, groups: &Groups, key: &[Value]) -> Option<Row> {
        let group = groups.get(key)?;
        if group.rows == 0 && !self.group_by.is_empty() {
            return None;
        }
        let mut values = key.to_vec();
        for (acc, agg) in group.accs.iter().zip(self.aggs) {
            values.push(match (agg.func, &agg.arg) {
                (AggFn::Count, None) => Value::Int(group.rows as i64),
                (AggFn::Count, Some(_)) => Value::Int(acc.n as i64),
                _ if acc.n == 0 => Value::Null,
                _ => Value::Int(acc.sum),
            });
        }
        Some(Row::new(values))
    }

    /// The state `rows` leave behind, if it can be kept exactly.
    fn groups_of(&self, ctx: &mut ExecCtx<'_>, rows: &[Row]) -> Result<Option<Groups>> {
        let mut groups = Groups::new();
        if self.group_by.is_empty() {
            groups.insert(vec![], Group::empty(self.aggs.len()));
        }
        for row in rows {
            let key = self.key_of(ctx, row)?;
            if !self.fold(ctx, &mut groups, key, row, true)? {
                return Ok(None);
            }
        }
        Ok(Some(groups))
    }
}

impl Operator for AggregateOp<'_> {
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>> {
        let rows = run_op(self.input.as_ref(), ctx, &mut stats.children[0])?;
        stats.rows_in += rows.len() as u64;
        // Group rows, preserving first-seen group order.
        let mut groups: Vec<(Vec<Value>, Vec<usize>)> = Vec::new();
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for (i, row) in rows.iter().enumerate() {
            ctx.rt.check()?;
            let key = self.key_of(ctx, row)?;
            match index.get(&key) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    index.insert(key.clone(), groups.len());
                    groups.push((key, vec![i]));
                }
            }
        }
        // Aggregate without GROUP BY over empty input: one empty group.
        if groups.is_empty() && self.group_by.is_empty() {
            groups.push((vec![], vec![]));
        }

        let mut out = Vec::with_capacity(groups.len());
        for (key, members) in groups {
            let mut values = key;
            for agg in self.aggs {
                values.push(eval_agg(ctx, agg, &members, &rows)?);
            }
            out.push(Row::new(values));
        }
        if self.maintainable && ctx.groups.is_some() {
            let groups = self.groups_of(ctx, &rows)?;
            if let (Some(states), Some(groups)) = (&mut ctx.groups, groups) {
                states.insert(self.key, groups);
            }
        }
        Ok(out)
    }

    /// Fold the input's delta into the groups it touches and emit, per
    /// touched group, `-` the row it showed before and `+` the row it
    /// shows now. The state is taken out of the context while it moves:
    /// a `None` on the way leaves none behind, and the re-execution that
    /// follows rebuilds it.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if !self.maintainable {
            return Ok(None);
        }
        let Some(input) = self.input.delta(ctx, change)? else {
            return Ok(None);
        };
        let Some(mut groups) = ctx.groups.as_mut().and_then(|s| s.remove(&self.key)) else {
            return Ok(None);
        };
        let mut before: HashMap<Vec<Value>, Option<Row>> = HashMap::new();
        for (rows, enters) in [(&input.removed, false), (&input.added, true)] {
            for row in rows {
                let key = self.key_of(ctx, row)?;
                if !before.contains_key(&key) {
                    before.insert(key.clone(), self.group_row(&groups, &key));
                }
                if !self.fold(ctx, &mut groups, key, row, enters)? {
                    return Ok(None);
                }
            }
        }
        let mut delta = Delta::default();
        for (key, was) in before {
            let is = self.group_row(&groups, &key);
            if is.is_none() {
                groups.remove(&key);
            }
            if was != is {
                delta.removed.extend(was);
                delta.added.extend(is);
            }
        }
        if let Some(states) = &mut ctx.groups {
            states.insert(self.key, groups);
        }
        Ok(Some(delta))
    }
}

/// Evaluate one aggregate call over a group's member rows.
fn eval_agg(
    ctx: &mut ExecCtx<'_>,
    agg: &AggCall,
    members: &[usize],
    rows: &[Row],
) -> Result<Value> {
    // COUNT(*) counts rows.
    if agg.func == AggFn::Count && agg.arg.is_none() {
        return Ok(Value::Int(members.len() as i64));
    }
    let arg = agg
        .arg
        .as_ref()
        .ok_or_else(|| CrowdError::Internal("non-COUNT aggregate without arg".into()))?;
    let mut vals: Vec<Value> = Vec::with_capacity(members.len());
    for &i in members {
        let v = eval(ctx, arg, &rows[i])?;
        if !v.is_missing() {
            vals.push(v);
        }
    }
    if agg.distinct {
        let mut seen = HashSet::new();
        vals.retain(|v| seen.insert(v.clone()));
    }
    Ok(match agg.func {
        AggFn::Count => Value::Int(vals.len() as i64),
        AggFn::Sum => {
            if vals.is_empty() {
                Value::Null
            } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                let mut acc: i64 = 0;
                for v in &vals {
                    let i = v.as_i64().ok_or_else(|| {
                        CrowdError::Internal("SUM integer fast path saw a non-integer".into())
                    })?;
                    acc = acc
                        .checked_add(i)
                        .ok_or_else(|| CrowdError::Exec("integer overflow in SUM".into()))?;
                }
                Value::Int(acc)
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_f64()
                        .ok_or_else(|| CrowdError::Type("SUM over non-numeric values".into()))?;
                }
                Value::Float(acc)
            }
        }
        AggFn::Avg => {
            if vals.is_empty() {
                Value::Null
            } else {
                let mut acc = 0.0;
                for v in &vals {
                    acc += v
                        .as_f64()
                        .ok_or_else(|| CrowdError::Type("AVG over non-numeric values".into()))?;
                }
                Value::Float(acc / vals.len() as f64)
            }
        }
        AggFn::Min => vals
            .into_iter()
            .min_by(|a, b| a.sort_cmp(b))
            .unwrap_or(Value::Null),
        AggFn::Max => vals
            .into_iter()
            .max_by(|a, b| a.sort_cmp(b))
            .unwrap_or(Value::Null),
    })
}

//! HashJoin: the machine join, building a hash table on the right input
//! by the equi key and probing it with the left. Without an equi key
//! every right row sits under the one empty key, so each left row meets
//! all of them in order: a nested loop whose residual is the whole `ON`.
//! Also hosts [`HashJoin`], the build and the probe that
//! [`super::crowd_join`] reuses with a crowd enumeration policy on top.
//!
//! In a standing query the join keeps its build side between triggers
//! (as `Aggregate` keeps its groups): a change to the left input probes
//! what the last evaluation built instead of reading the right input
//! again.

use std::borrow::Cow;
use std::collections::HashMap;

use crowddb_common::{Result, Row, Value};
use crowddb_plan::{BExpr, JoinType, PhysicalPlan};

use crate::context::{ExecCtx, NodeState};
use crate::eval::{eval, eval_truth};
use crate::need::TaskNeed;
use crate::ops::{
    build, collect, run_op, BoxedOp, Delta, Flow, OpStatsNode, Operator, Sink, Streams, TableChange,
};

/// Hash-join operator; see [`PhysicalPlan::HashJoin`].
pub struct HashJoinOp<'p> {
    left: BoxedOp<'p>,
    right: BoxedOp<'p>,
    /// The plans of the two inputs (`delta` runs one unobserved).
    inputs: [&'p PhysicalPlan; 2],
    join: HashJoin<'p>,
    /// The probe may run inside the left input's pipeline.
    streams: Streams<'p>,
    /// Where this node's build side lives in the context's node states:
    /// the address of the plan node.
    key: usize,
}

impl<'p> HashJoinOp<'p> {
    /// Build from a [`PhysicalPlan::HashJoin`] node.
    pub fn new(plan: &'p PhysicalPlan) -> HashJoinOp<'p> {
        let PhysicalPlan::HashJoin {
            left,
            right,
            kind,
            equi,
            residual,
            ..
        } = plan
        else {
            unreachable!("HashJoinOp built from {plan:?}")
        };
        HashJoinOp {
            join: HashJoin {
                kind: *kind,
                equi,
                residual,
                right_arity: right.schema().arity(),
                crowd: None,
            },
            streams: Streams::new(plan, left),
            key: plan as *const PhysicalPlan as usize,
            left: build(left),
            right: build(right),
            inputs: [left, right],
        }
    }
}

impl Operator for HashJoinOp<'_> {
    /// Where the left input may stream (`ops::streams`: it records no
    /// need, and the join condition asks nothing and reads no subquery),
    /// the right input is collected and built first and the left input's
    /// pipeline runs through the probe: only the build side is held, and
    /// nothing re-enters the database under the left scan's read lock.
    /// The join order puts the smaller input on the right for this
    /// (`crowddb_plan` rule 3). Otherwise both inputs are collected, left
    /// before right, so the needs either records keep their order.
    ///
    /// Which input runs first decides the order in which two scans go
    /// through a bounded buffer pool, which is page traffic: a plan
    /// change that moves a relation from one side to the other moves it.
    ///
    /// A standing query's evaluation keeps the build side (see `delta`).
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let left_rows = match self.streams.get() {
            true => None,
            false => Some(collect(self.left.as_ref(), ctx, &mut stats.children[0])?),
        };
        let right_rows = collect(self.right.as_ref(), ctx, &mut stats.children[1])?;
        let built = self
            .join
            .build(ctx, Cow::Owned(right_rows), |pair| &pair.1)?;
        let flow = match left_rows {
            Some(left_rows) => self.join.probe_all(ctx, &built, &left_rows, sink)?,
            None => {
                let (mut joined, mut buf) = (Row::default(), Vec::new());
                run_op(
                    self.left.as_ref(),
                    ctx,
                    &mut stats.children[0],
                    &mut |ctx, l| {
                        self.join
                            .probe(ctx, &built, l, (&mut joined, &mut buf), sink)
                    },
                )?
            }
        };
        ctx.keep_state(self.key, NodeState::Build(built));
        Ok(flow)
    }

    /// Δ(L ⋈ R) = ΔL ⋈ R while R stands still, and the mirror image.
    /// Both children are asked. A changed left input is probed, removed
    /// rows and added rows, through the right input's table: the one the
    /// last evaluation or trigger kept, or else one collected and built
    /// now and kept. A changed right input makes what was kept stale, so
    /// it is dropped; the left input is collected as in any round, built
    /// once, and probed with the removed and the added right rows. No
    /// rule when both sides changed (a self-join) or when the nullable
    /// side of a LEFT join did (a preserved row may gain or lose its
    /// `NULL` padding).
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        let (left, right) = (self.left.as_ref(), self.right.as_ref());
        let (Some(dl), Some(dr)) = (left.delta(ctx, change)?, right.delta(ctx, change)?) else {
            return Ok(None);
        };
        match (dl.is_empty(), dr.is_empty()) {
            (true, true) => Ok(Some(Delta::default())),
            (false, true) => {
                let built = match ctx.take_state(self.key) {
                    Some(NodeState::Build(built)) => built,
                    _ => {
                        let rows = collect(right, ctx, &mut OpStatsNode::skeleton(self.inputs[1]))?;
                        self.join.build(ctx, Cow::Owned(rows), |pair| &pair.1)?
                    }
                };
                let half = |ctx: &mut ExecCtx<'_>, changed: &[Row]| -> Result<Vec<Row>> {
                    let mut out = Vec::new();
                    self.join.probe_all(ctx, &built, changed, &mut |_, row| {
                        out.push(std::mem::take(row));
                        Ok(Flow::More)
                    })?;
                    Ok(out)
                };
                let delta = Delta {
                    removed: half(ctx, &dl.removed)?,
                    added: half(ctx, &dl.added)?,
                };
                ctx.keep_state(self.key, NodeState::Build(built));
                Ok(Some(delta))
            }
            (true, false) if self.join.kind != JoinType::Left => {
                ctx.take_state(self.key);
                let rows = collect(left, ctx, &mut OpStatsNode::skeleton(self.inputs[0]))?;
                let built = self.join.build(ctx, Cow::Borrowed(&rows), |pair| &pair.0)?;
                Ok(Some(Delta {
                    removed: self.join.probe_right(ctx, &built, &dr.removed)?,
                    added: self.join.probe_right(ctx, &built, &dr.added)?,
                }))
            }
            _ => Ok(None),
        }
    }
}

/// Crowd enumeration policy for unmatched outer rows: ask the crowd for
/// `batch` new `table` tuples with `key_column` preset to the join key.
pub(crate) struct CrowdSpec<'p> {
    pub table: &'p str,
    pub key_column: &'p str,
    pub batch: u64,
}

/// What a hash join is: build on the right, probe from the left.
///
/// Rows with missing key values never match (and never enter the build
/// table). With `crowd` set, unmatched outer rows whose key is known
/// become [`TaskNeed::NewTuples`] needs — the paper's CrowdJoin.
pub(crate) struct HashJoin<'p> {
    pub kind: JoinType,
    pub equi: &'p [(BExpr, BExpr)],
    pub residual: &'p [BExpr],
    pub right_arity: usize,
    pub crowd: Option<CrowdSpec<'p>>,
}

/// The build side: one input's rows, and which of them hold each key —
/// the first and the last in `rows` order, and from each such row the
/// next one under its key. Only a key seen for the first time is copied
/// into the table; every other build row allocates nothing.
#[derive(Debug)]
pub(crate) struct Built<'r> {
    rows: Cow<'r, [Row]>,
    by_key: HashMap<Vec<Value>, (usize, usize)>,
    next: Vec<Option<usize>>,
}

/// A build side that owns its rows: what a standing query's join keeps
/// between triggers.
pub(crate) type Kept = Built<'static>;

impl Built<'_> {
    /// The build rows under `key`, in `rows` order.
    fn matches(&self, key: Option<&[Value]>) -> impl Iterator<Item = &Row> {
        let first = key
            .and_then(|k| self.by_key.get(k))
            .map(|&(first, _)| first);
        std::iter::successors(first, |&at| self.next[at]).map(|at| &self.rows[at])
    }
}

impl HashJoin<'_> {
    /// The join key of `row` under the left (`.0`) or right (`.1`) side
    /// of every equi pair, evaluated into `buf`, which the caller reuses;
    /// `None` if any part is missing.
    fn key<'b>(
        &self,
        ctx: &mut ExecCtx<'_>,
        row: &Row,
        side: impl Fn(&(BExpr, BExpr)) -> &BExpr,
        buf: &'b mut Vec<Value>,
    ) -> Result<Option<&'b [Value]>> {
        buf.clear();
        for pair in self.equi {
            let v = eval(ctx, side(pair), row)?;
            if v.is_missing() {
                return Ok(None);
            }
            buf.push(v);
        }
        Ok(Some(buf))
    }

    /// Hash `rows` by their join key under `side` (see [`HashJoin::key`]).
    fn build<'r>(
        &self,
        ctx: &mut ExecCtx<'_>,
        rows: Cow<'r, [Row]>,
        side: impl Fn(&(BExpr, BExpr)) -> &BExpr,
    ) -> Result<Built<'r>> {
        let mut by_key: HashMap<Vec<Value>, (usize, usize)> = HashMap::new();
        let mut next = vec![None; rows.len()];
        let mut buf = Vec::new();
        for (idx, r) in rows.iter().enumerate() {
            let Some(key) = self.key(ctx, r, &side, &mut buf)? else {
                continue;
            };
            match by_key.get_mut(key) {
                Some((_, last)) => {
                    next[*last] = Some(idx);
                    *last = idx;
                }
                None => {
                    by_key.insert(key.to_vec(), (idx, idx));
                }
            }
        }
        Ok(Built { rows, by_key, next })
    }

    /// The row function: everything left row `l` joins with goes on,
    /// refilled into `joined`; `buf` holds an evaluated key.
    fn probe(
        &self,
        ctx: &mut ExecCtx<'_>,
        built: &Built<'_>,
        l: &Row,
        (joined, buf): (&mut Row, &mut Vec<Value>),
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        ctx.rt.check()?;
        let key = self.key(ctx, l, |pair| &pair.0, buf)?;
        let mut matched = false;
        for r in built.matches(key) {
            joined.refill(l.values().iter().chain(r.values()).map(Cow::Borrowed));
            if residual_passes(ctx, self.residual, joined)? {
                matched = true;
                if sink(ctx, joined)? == Flow::Stop {
                    return Ok(Flow::Stop);
                }
            }
        }
        if matched {
            return Ok(Flow::More);
        }
        // CrowdJoin: "implements an index nested-loop join over two
        // tables, at least one of which is marked as crowdsourced" — a
        // missing inner match becomes a new-tuple request with the join
        // key preset.
        if let (Some(key), Some(spec)) = (key, &self.crowd) {
            ctx.rt.push_need(TaskNeed::NewTuples {
                table: spec.table.to_string(),
                preset: vec![(spec.key_column.to_string(), key[0].clone())],
                want: spec.batch,
            });
        }
        if self.kind == JoinType::Left {
            let pad = std::iter::repeat_n(&Value::Null, self.right_arity);
            joined.refill(l.values().iter().chain(pad).map(Cow::Borrowed));
            return sink(ctx, joined);
        }
        Ok(Flow::More)
    }

    /// Probe `built`, a table of the right input, with every row of
    /// `left_rows`.
    fn probe_all(
        &self,
        ctx: &mut ExecCtx<'_>,
        built: &Built<'_>,
        left_rows: &[Row],
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let (mut joined, mut buf) = (Row::default(), Vec::new());
        for l in left_rows {
            if self.probe(ctx, built, l, (&mut joined, &mut buf), sink)? == Flow::Stop {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::More)
    }

    /// The mirror image of [`HashJoin::probe_all`] for a join that pads
    /// nothing: every pair of a row of `right_rows` with a row of
    /// `built`, a table of the left input, that passes the condition,
    /// joined as the probe joins them (left values first).
    fn probe_right(
        &self,
        ctx: &mut ExecCtx<'_>,
        built: &Built<'_>,
        right_rows: &[Row],
    ) -> Result<Vec<Row>> {
        let (mut out, mut joined, mut buf) = (Vec::new(), Row::default(), Vec::new());
        for r in right_rows {
            ctx.rt.check()?;
            let key = self.key(ctx, r, |pair| &pair.1, &mut buf)?;
            for l in built.matches(key) {
                joined.refill(l.values().iter().chain(r.values()).map(Cow::Borrowed));
                if residual_passes(ctx, self.residual, &joined)? {
                    out.push(joined.clone());
                }
            }
        }
        Ok(out)
    }

    /// Build, then probe with every row of `left_rows`.
    pub fn join(
        &self,
        ctx: &mut ExecCtx<'_>,
        left_rows: &[Row],
        right_rows: &[Row],
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let built = self.build(ctx, Cow::Borrowed(right_rows), |pair| &pair.1)?;
        self.probe_all(ctx, &built, left_rows, sink)
    }
}

fn residual_passes(ctx: &mut ExecCtx<'_>, residual: &[BExpr], row: &Row) -> Result<bool> {
    for p in residual {
        if !eval_truth(ctx, p, row)?.passes_filter() {
            return Ok(false);
        }
    }
    Ok(true)
}

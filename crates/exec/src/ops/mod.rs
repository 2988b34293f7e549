//! Physical operator implementations — one module per operator.
//!
//! [`build`] turns a [`PhysicalPlan`] into a tree of boxed [`Operator`]s
//! borrowing the plan; [`run_op`] executes a node while recording
//! per-operator statistics into an [`OpStatsNode`] tree that mirrors the
//! plan shape. Rows are pushed: an operator lends each output row to the
//! [`Sink`] its consumer gave it, and the consumer answers with a
//! [`Flow`] — `Stop` once it has enough. A producer lends one buffer,
//! which it refills from scratch for every row (a scan decodes into it,
//! a join or a projection refills it through [`Row::refill`]), so a
//! streaming pipeline allocates nothing per row. A consumer may read the
//! lent row or change it in place; only one that keeps the row past its
//! call takes it, with `std::mem::take` — `collect` (and so the inputs
//! of Sort and the joins, and the statement's result) — and the
//! seen-sets of Distinct and Union keep a copy of each first
//! occurrence. Nothing is materialized between
//! two operators unless one of them has to see all of its input before
//! it can emit anything (Sort, the inputs of the two joins;
//! Aggregate keeps accumulators, not rows) or one of the two invariants
//! below says so. Crowd work surfaces as needs on the shared [`ExecCtx`];
//! a round is still one full evaluation.
//!
//! ## Where rows may stream
//!
//! Both are static properties of the plan, read off it when an operator
//! executes (`streams`; a delta never streams, so building an operator
//! for one does not walk the plan for it); neither is a setting.
//!
//! * **(i) Need order is part of the bill.** The driver posts a round's
//!   needs in the order they were recorded and, under a budget, only a
//!   prefix of them. A materializing executor records every need of a
//!   subtree before its consumer evaluates a single row, so an operator
//!   runs its row code inside its input's pipeline only when that input
//!   records no need at all — no CROWD table, no needed crowd column, no
//!   `CROWDEQUAL`/`CROWDORDER` (so no CrowdSort), no CrowdJoin, no subquery (it
//!   may record some) — and its own row code asks nothing either.
//!   Otherwise it `collect`s the input first, as a materializing
//!   executor would. It follows that `Flow::Stop` only ever cuts machine
//!   work: a `LIMIT` over a subtree that asks the crowd
//!   still lets that subtree ask everything (letting it ask less is the
//!   paper's stop-after push-down, a change to the bill).
//! * **(ii) A sink runs under the database read lock.** The scan at the
//!   bottom of a pipeline holds `Database`'s read lock while its cursor
//!   is open, and a second `read()` on a thread that already holds one
//!   deadlocks as soon as a writer queues in between. So row code that
//!   may re-enter the database — an expression with a subquery, an
//!   index-nested-loop probe, a join reading its other input — never
//!   runs inside a pipeline: that operator collects its input first too.
//!
//! ## Operator contract
//!
//! * `execute` pushes this round's output, derived from current
//!   knowledge, into `sink`, stops as soon as the sink says `Stop`, and
//!   returns what the sink said last; it must not block on the crowd —
//!   undecidable work is recorded as needs via `ctx.rt.push_need`.
//! * Children are run through [`run_op`] (or `collect` /
//!   `for_each_row` on top of it) against `stats.children[i]`, where
//!   `i` is the child's position in [`PhysicalPlan::children`].
//! * A leaf sets `stats.rows_in` itself (candidates examined);
//!   everything else (rows in of an inner node, rows out, needs, cache
//!   counters, wall time) is attributed by [`run_op`].
//! * Each operator has one row function, which `execute` and `delta`
//!   both drive.
//! * `delta` answers "what does this [`TableChange`] do to my output?"
//!   for a standing query, against storage that already holds the
//!   change. It is asked only of a plan [`maintenance`] admits to the
//!   delta route, so it checks nothing that decision has checked: what
//!   is left are the conditions that depend on which table the DML
//!   wrote (both sides of a self-join, the nullable side of a LEFT join,
//!   an aggregate whose state stopped being exact), on which it returns
//!   `None` and the caller re-executes and diffs. A rule re-runs the
//!   operator's own row code over the changed rows; there is no second
//!   evaluator. An operator the decision never admits keeps the
//!   default, `None`.

pub(crate) mod aggregate;
mod crowd_join;
mod distinct;
mod filter;
pub(crate) mod hash_join;
mod project;
pub(crate) mod scan;
mod sort;
mod stop_after;
mod union;
mod values;

use std::fmt;
use std::time::{Duration, Instant};

use crowddb_common::{Result, Row, TupleId};
use crowddb_obs::MetricsRegistry;
use crowddb_plan::{BExpr, JoinType, LogicalPlan, PhysicalPlan};

use crate::context::{ExecCtx, OpStats};

/// The stored rows one applied DML statement took out of and put into a
/// base table — an `UPDATE` does both, under the same tuple id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableChange {
    /// Catalog name of the table written.
    pub table: String,
    /// Rows as they were stored before the statement.
    pub removed: Vec<(TupleId, Row)>,
    /// Rows as they are stored after it.
    pub added: Vec<(TupleId, Row)>,
}

impl TableChange {
    /// Whether the statement touched no row.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// What a [`TableChange`] does to one operator's output, as a multiset:
/// rows that leave it and rows that enter it, in no particular order. A
/// row may appear in both lists (an `UPDATE` of a column the operator
/// does not show); the consumer cancels those.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    /// Rows leaving the output.
    pub removed: Vec<Row>,
    /// Rows entering the output.
    pub added: Vec<Row>,
}

impl Delta {
    /// Whether the output does not change.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

/// A consumer's answer to a row: whether it wants any more.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep the rows coming.
    More,
    /// Enough: the producer stops, and tells *its* input to.
    Stop,
}

/// Where an operator's output goes: its consumer's row function, lent
/// each row. The producer refills the row for the next call, so a
/// consumer that keeps one takes it (`std::mem::take`).
pub type Sink<'s> = dyn FnMut(&mut ExecCtx<'_>, &mut Row) -> Result<Flow> + 's;

/// A physical operator: pushes one round's output into a sink.
pub trait Operator {
    /// Push this node's output, from current knowledge, into `sink` until
    /// it is exhausted or the sink says [`Flow::Stop`]; crowd needs go to
    /// `ctx`. Returns the sink's last word.
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow>;

    /// The difference `change` (already applied to storage) makes to
    /// this node's output, or `None` for "no rule for this DML:
    /// re-execute". Asked only of a plan [`maintenance`] admits.
    fn delta(&self, _ctx: &mut ExecCtx<'_>, _change: &TableChange) -> Result<Option<Delta>> {
        Ok(None)
    }
}

/// How a standing query answers a DML, as `EXPLAIN SUBSCRIBE` prints it:
/// the one decision between the operators' delta rules and
/// recompute-and-diff ([`maintenance`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Maintenance {
    /// Every operator has a delta rule: the delta route, on which the
    /// query keeps node state. Names the DMLs on which a rule declines,
    /// and the query recomputes for that DML.
    Incremental(Vec<String>),
    /// No delta route: why, the first thing without a rule.
    Recompute(String),
}

impl fmt::Display for Maintenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Maintenance::Incremental(except) if except.is_empty() => f.write_str("incremental"),
            Maintenance::Incremental(except) => {
                write!(f, "incremental, recompute on {}", except.join("; "))
            }
            Maintenance::Recompute(why) => write!(f, "recompute ({why})"),
        }
    }
}

/// The one decision on how a standing query is maintained: over the plan
/// `physical` that `logical` lowered to, whether every operator has a
/// delta rule ([`Operator::delta`]). A crowd-related plan
/// ([`LogicalPlan::is_crowd_related`]) never has: a settled round can
/// flip any verdict and arrives outside any DML. Otherwise the first
/// node without a rule, from the root down, is the reason to recompute;
/// the rules that hold only for some DMLs say on which they do not.
pub fn maintenance(logical: &LogicalPlan, physical: &PhysicalPlan) -> Maintenance {
    if logical.is_crowd_related() {
        let why = "crowd-related: a settled round can change any verdict";
        return Maintenance::Recompute(why.into());
    }
    let mut except = Vec::new();
    match no_delta_rule(physical, &mut except) {
        Some(why) => Maintenance::Recompute(why),
        None => Maintenance::Incremental(except),
    }
}

/// Why `plan`, or the first node below it, has no delta rule, if one
/// has none; a rule that holds only for some DMLs adds when it does not
/// to `except`.
fn no_delta_rule(plan: &PhysicalPlan, except: &mut Vec<String>) -> Option<String> {
    let why = match plan {
        PhysicalPlan::StopAfter { .. } => Some("StopAfter".into()),
        PhysicalPlan::Distinct { .. } => Some("Distinct".into()),
        PhysicalPlan::CrowdJoin { .. } => Some("CrowdJoin".into()),
        PhysicalPlan::Union { all: false, .. } => Some("UNION without ALL".into()),
        PhysicalPlan::Aggregate { input, aggs, .. } => {
            let schema = input.schema();
            let call = aggs.iter().find(|a| !a.exact_running(&schema));
            call.map(|call| format!("Aggregate {call}"))
        }
        PhysicalPlan::HashJoin {
            left, right, kind, ..
        } => {
            let (left, right) = (scanned_tables(left), scanned_tables(right));
            if let Some(both) = left.iter().find(|t| right.contains(t)) {
                except.push(format!(
                    "a DML that changes both sides of the self-join on {both}"
                ));
            }
            if *kind == JoinType::Left && !right.is_empty() {
                except.push(format!(
                    "DML to {} (nullable side of a LEFT join)",
                    right.join(", ")
                ));
            }
            None
        }
        _ => None,
    };
    // A sort is the identity, whatever its keys read.
    let subquery = || {
        let reads =
            !matches!(plan, PhysicalPlan::Sort { .. }) && any_own_expr(plan, BExpr::has_subplan);
        reads.then(|| "subquery: it reads tables the change does not name".into())
    };
    why.or_else(subquery)
        .or_else(|| plan.inputs().find_map(|input| no_delta_rule(input, except)))
}

/// The base tables `plan`'s scans read: catalog names, sorted, deduped.
fn scanned_tables(plan: &PhysicalPlan) -> Vec<&str> {
    let mut tables: Vec<&str> = plan.inputs().flat_map(scanned_tables).collect();
    if let PhysicalPlan::Scan { table, .. } = plan {
        tables.push(table);
    }
    tables.sort_unstable();
    tables.dedup();
    tables
}

/// A built operator tree borrowing the physical plan it was built from.
pub type BoxedOp<'p> = Box<dyn Operator + 'p>;

/// Build the operator tree for a physical plan.
pub fn build<'p>(plan: &'p PhysicalPlan) -> BoxedOp<'p> {
    match plan {
        PhysicalPlan::Scan { .. } => Box::new(scan::ScanOp::new(plan)),
        PhysicalPlan::Filter { .. } => Box::new(filter::FilterOp::new(plan)),
        PhysicalPlan::Project { .. } => Box::new(project::ProjectOp::new(plan)),
        PhysicalPlan::HashJoin { .. } => Box::new(hash_join::HashJoinOp::new(plan)),
        PhysicalPlan::CrowdJoin { .. } => Box::new(crowd_join::CrowdJoinOp::new(plan)),
        PhysicalPlan::Sort { .. } => Box::new(sort::SortOp::new(plan)),
        PhysicalPlan::Aggregate { .. } => Box::new(aggregate::AggregateOp::new(plan)),
        PhysicalPlan::StopAfter { .. } => Box::new(stop_after::StopAfterOp::new(plan)),
        PhysicalPlan::Distinct { .. } => Box::new(distinct::DistinctOp::new(plan)),
        PhysicalPlan::Values { .. } => Box::new(values::ValuesOp::new(plan)),
        PhysicalPlan::Union { .. } => Box::new(union::UnionOp::new(plan)),
    }
}

/// Whether `pred` holds for any expression `plan`'s own row code
/// evaluates, each visited in place.
fn any_own_expr(plan: &PhysicalPlan, pred: impl Fn(&BExpr) -> bool) -> bool {
    match plan {
        PhysicalPlan::Scan { residual, .. } => residual.iter().any(pred),
        PhysicalPlan::Filter { predicate, .. } => pred(predicate),
        PhysicalPlan::Project { exprs, .. } => exprs.iter().any(pred),
        PhysicalPlan::HashJoin { equi, residual, .. } => {
            equi.iter().any(|(l, r)| pred(l) || pred(r)) || residual.iter().any(pred)
        }
        PhysicalPlan::CrowdJoin { equi, residual, .. } => {
            pred(&equi.0) || pred(&equi.1) || residual.iter().any(pred)
        }
        PhysicalPlan::Sort { keys, .. } => keys.iter().any(|k| pred(&k.expr)),
        PhysicalPlan::Aggregate { group_by, aggs, .. } => {
            group_by.iter().any(&pred) || aggs.iter().filter_map(|a| a.arg.as_ref()).any(pred)
        }
        PhysicalPlan::Values { rows, .. } => rows.iter().flatten().any(pred),
        PhysicalPlan::StopAfter { .. }
        | PhysicalPlan::Distinct { .. }
        | PhysicalPlan::Union { .. } => false,
    }
}

/// Whether executing `plan` can record a crowd need (invariant (i)). A
/// subquery counts: what it records lands wherever it is first evaluated.
fn records_needs(plan: &PhysicalPlan) -> bool {
    let own = match plan {
        PhysicalPlan::CrowdJoin { .. } => true,
        PhysicalPlan::Scan {
            schema,
            crowd_table,
            needed_columns,
            ..
        } => {
            let probes = |c: &usize| schema.columns.get(*c).is_none_or(|c| c.crowd);
            *crowd_table || needed_columns.iter().any(probes)
        }
        _ => false,
    };
    let asks = |e: &BExpr| e.is_crowd() || e.has_subplan();
    own || any_own_expr(plan, asks) || plan.inputs().any(records_needs)
}

/// Whether `plan`'s operator may run its row code inside the pipeline of
/// its child `input`, rather than after it: the input records no need
/// (invariant (i)), and the row code neither re-enters the database
/// (invariant (ii)) nor asks the crowd itself — [`run_op`] attributes
/// needs and cache traffic by diffing counters around a child, so what a
/// consumer recorded from inside that child's pipeline would be charged
/// to the child.
fn streams(plan: &PhysicalPlan, input: &PhysicalPlan) -> bool {
    !records_needs(input) && !any_own_expr(plan, |e| e.is_crowd() || e.has_subplan())
}

/// Whether an operator may run its row code inside its input's pipeline
/// ([`streams`]), worked out when it executes.
#[derive(Clone, Copy)]
pub(crate) struct Streams<'p> {
    plan: &'p PhysicalPlan,
    input: &'p PhysicalPlan,
}

impl<'p> Streams<'p> {
    pub(crate) fn new(plan: &'p PhysicalPlan, input: &'p PhysicalPlan) -> Streams<'p> {
        Streams { plan, input }
    }

    pub(crate) fn get(self) -> bool {
        streams(self.plan, self.input)
    }
}

/// Per-operator statistics, one node per physical operator, accumulated
/// across rounds.
///
/// `cum` is *cumulative over the subtree* (children run inside their
/// parent's `execute`); [`OpStatsNode::own`] subtracts the children's.
#[derive(Debug, Clone, Default)]
pub struct OpStatsNode {
    /// Operator name (e.g. `TableScan`, `CrowdJoin`).
    pub name: String,
    /// Input rows consumed: what the children put out, or for a leaf the
    /// candidates it examined.
    pub rows_in: u64,
    /// Output rows produced.
    pub rows_out: u64,
    /// Rounds this node executed.
    pub rounds: u64,
    /// Per-child stats, in [`PhysicalPlan::children`] order.
    pub children: Vec<OpStatsNode>,
    pub(crate) cum: OpStats,
}

impl OpStatsNode {
    /// An all-zero stats tree mirroring `plan`.
    pub fn skeleton(plan: &PhysicalPlan) -> OpStatsNode {
        OpStatsNode {
            name: plan.name().to_string(),
            children: plan.inputs().map(Self::skeleton).collect(),
            ..OpStatsNode::default()
        }
    }

    /// What this operator did itself, its children excluded.
    pub fn own(&self) -> OpStats {
        self.children.iter().fold(self.cum, |own, c| own - c.cum)
    }

    /// Accumulate another round's stats tree into this one. The trees
    /// must have the same shape: plans are re-lowered per round, and a
    /// caller that cannot rule out a shape change between rounds starts a
    /// fresh tree instead of merging.
    pub fn merge(&mut self, other: &OpStatsNode) {
        debug_assert!(
            self.name == other.name && self.children.len() == other.children.len(),
            "stats trees differ in shape at {}",
            self.name
        );
        self.rows_in += other.rows_in;
        self.rows_out += other.rows_out;
        self.rounds += other.rounds;
        self.cum = self.cum + other.cum;
        for (mine, theirs) in self.children.iter_mut().zip(&other.children) {
            mine.merge(theirs);
        }
    }

    /// One-line stats summary (everything but the operator name).
    ///
    /// `time=` is always the final token so snapshot tests can scrub it.
    pub fn summary(&self) -> String {
        let own = self.own();
        format!(
            "rounds={} in={} out={} probe={} new={} eq={} ord={} hit={} miss={} mord={} \
             pages={} pool_hit={} iprobe={} time={:?}",
            self.rounds,
            self.rows_in,
            self.rows_out,
            own.probe,
            own.new_tuples,
            own.equal,
            own.order,
            own.cache_hits,
            own.cache_misses,
            own.machine_ordered,
            own.pages_read,
            own.pool_hits,
            own.index_probes,
            own.wall,
        )
    }

    /// Render the stats tree alone (used by the bench harness).
    pub fn render(&self) -> Vec<String> {
        fn rec(node: &OpStatsNode, depth: usize, out: &mut Vec<String>) {
            out.push(format!(
                "{}{} | {}",
                "  ".repeat(depth),
                node.name,
                node.summary()
            ));
            for c in &node.children {
                rec(c, depth + 1, out);
            }
        }
        let mut out = Vec::new();
        rec(self, 0, &mut out);
        out
    }
}

/// Execute `op` for one round, attributing counters to `node`.
///
/// Reads `ExecCtx::op_stats` around the call; the difference
/// (cumulative over the subtree, since children run inside the parent)
/// accumulates on `node`. Pager counters are engine-global, so this
/// charges the subtree's page traffic to `node`. Every row on its way
/// to `sink` is charged to the intermediate-row cap, which makes each
/// one a cancel checkpoint.
///
/// In a pipeline the consumers' row code runs *inside* this call. The
/// counters do not mind — a sink reads no page, and a consumer that asks
/// the crowd never streams (see `streams`) — but the clock would: under
/// `EXPLAIN ANALYZE` (`ExecCtx::timed`) the time spent in `sink` is
/// measured row by row and taken back out, so that `time=` stays self
/// time. A plain statement reads the clock twice per operator, as ever,
/// and its unread `time=` charges a pipeline to the scan that drives it.
pub fn run_op(
    op: &dyn Operator,
    ctx: &mut ExecCtx<'_>,
    node: &mut OpStatsNode,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    let before = ctx.op_stats();
    let children_out = |node: &OpStatsNode| node.children.iter().map(|c| c.rows_out).sum::<u64>();
    let in0 = children_out(node);
    let timed = ctx.timed;
    let (mut rows_out, mut downstream) = (0u64, Duration::ZERO);
    let t0 = Instant::now();
    let flow = op.execute(ctx, node, &mut |ctx, row| {
        rows_out += 1;
        ctx.rt.charge_rows(1)?;
        if !timed {
            return sink(ctx, row);
        }
        let handed = Instant::now();
        let flow = sink(ctx, row);
        downstream += handed.elapsed();
        flow
    })?;
    // Every operator boundary is a cancel checkpoint, rows or no rows.
    ctx.rt.check()?;
    let wall = t0.elapsed().saturating_sub(downstream);
    node.cum = node.cum
        + OpStats {
            wall,
            ..ctx.op_stats() - before
        };
    node.rows_in += children_out(node) - in0;
    node.rows_out += rows_out;
    node.rounds += 1;
    Ok(flow)
}

/// Run `op` to its end and keep what it puts out: for an operator that
/// must see all of an input before it can emit (or, by invariants (i)
/// and (ii), before it may evaluate) anything.
pub(crate) fn collect(
    op: &dyn Operator,
    ctx: &mut ExecCtx<'_>,
    node: &mut OpStatsNode,
) -> Result<Vec<Row>> {
    let mut rows = Vec::new();
    run_op(op, ctx, node, &mut |_, row| {
        rows.push(std::mem::take(row));
        Ok(Flow::More)
    })?;
    Ok(rows)
}

/// Hand every row of `input` to `each`, the caller's row function: as
/// the input produces them when the caller is `streaming` (see [`streams`]),
/// after the input has finished otherwise.
pub(crate) fn for_each_row(
    input: &dyn Operator,
    ctx: &mut ExecCtx<'_>,
    node: &mut OpStatsNode,
    streaming: bool,
    each: &mut Sink<'_>,
) -> Result<Flow> {
    if streaming {
        return run_op(input, ctx, node, each);
    }
    let rows = collect(input, ctx, node)?;
    emit_all(ctx, rows, each)
}

/// Push `rows` into `sink` until it has had enough.
pub(crate) fn emit_all(
    ctx: &mut ExecCtx<'_>,
    rows: impl IntoIterator<Item = Row>,
    sink: &mut Sink<'_>,
) -> Result<Flow> {
    for mut row in rows {
        if sink(ctx, &mut row)? == Flow::Stop {
            return Ok(Flow::Stop);
        }
    }
    Ok(Flow::More)
}

/// An operator's row function over both lists of `input`'s delta, if
/// it has one for `change`.
pub(crate) fn map_delta(
    ctx: &mut ExecCtx<'_>,
    input: &dyn Operator,
    change: &TableChange,
    mut each: impl FnMut(&mut ExecCtx<'_>, &mut Row, &mut Sink<'_>) -> Result<Flow>,
) -> Result<Option<Delta>> {
    let Some(input) = input.delta(ctx, change)? else {
        return Ok(None);
    };
    let mut through = |rows: Vec<Row>| -> Result<Vec<Row>> {
        let mut out = Vec::new();
        for mut row in rows {
            each(ctx, &mut row, &mut |_, row| {
                out.push(std::mem::take(row));
                Ok(Flow::More)
            })?;
        }
        Ok(out)
    };
    Ok(Some(Delta {
        removed: through(input.removed)?,
        added: through(input.added)?,
    }))
}

/// Flush one round's per-operator stats tree into the metrics registry.
///
/// Per operator (by sanitized lowercase name): rows in/out counters and
/// a rows-out histogram. Crowd needs, compare-cache hits and misses are
/// self-attributed per node and summed into engine-wide counters. Wall
/// time is deliberately *not* flushed — it is nondeterministic and would
/// break golden metric snapshots.
pub fn flush_op_stats(registry: &MetricsRegistry, stats: &OpStatsNode) {
    let op = sanitize_metric_component(&stats.name);
    registry.counter_add(&format!("crowddb_exec_rows_in_total_{op}"), stats.rows_in);
    registry.counter_add(&format!("crowddb_exec_rows_out_total_{op}"), stats.rows_out);
    registry.observe(
        &format!("crowddb_exec_rows_out_{op}"),
        stats.rows_out as f64,
    );
    let own = stats.own();
    registry.counter_add("crowddb_exec_needs_probe_total", own.probe);
    registry.counter_add("crowddb_exec_needs_new_tuples_total", own.new_tuples);
    registry.counter_add("crowddb_exec_needs_equal_total", own.equal);
    registry.counter_add("crowddb_exec_needs_order_total", own.order);
    registry.counter_add("crowddb_exec_cache_hits_total", own.cache_hits);
    registry.counter_add("crowddb_exec_cache_misses_total", own.cache_misses);
    registry.counter_add("crowddb_exec_machine_ordered_total", own.machine_ordered);
    registry.counter_add("crowddb_exec_pages_read_total", own.pages_read);
    registry.counter_add("crowddb_exec_pool_hits_total", own.pool_hits);
    registry.counter_add("crowddb_exec_index_probes_total", own.index_probes);
    for child in &stats.children {
        flush_op_stats(registry, child);
    }
}

/// Lowercase `name` and replace anything outside `[a-z0-9]` with `_` so
/// operator names slot into Prometheus-legal metric names.
fn sanitize_metric_component(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// Render the physical plan with per-operator stats appended to each
/// node — the body of `EXPLAIN ANALYZE`.
///
/// `plan` and `stats` must have the same shape (the stats tree is built
/// by [`OpStatsNode::skeleton`] from the same plan).
pub fn render_analyzed(plan: &PhysicalPlan, stats: &OpStatsNode) -> String {
    fn rec(plan: &PhysicalPlan, stats: &OpStatsNode, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        out.push_str(&format!(
            "{pad}{}{} | {}\n",
            plan.describe(),
            plan.annot().render(),
            stats.summary()
        ));
        for (c, cs) in plan.inputs().zip(&stats.children) {
            rec(c, cs, depth + 1, out);
        }
    }
    let mut out = String::new();
    rec(plan, stats, 0, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::DataType;
    use crowddb_plan::cardinality::FnStats;
    use crowddb_plan::{AggCall, AggFn, PlanColumn, PlanSchema};

    fn scan(table: &str, crowd: bool) -> LogicalPlan {
        LogicalPlan::Scan {
            table: table.into(),
            alias: table.into(),
            schema: PlanSchema::new(vec![PlanColumn {
                qualifier: Some(table.into()),
                name: "a".into(),
                data_type: Some(DataType::Int),
                crowd: false,
                base: Some((table.into(), 0)),
            }]),
            crowd_table: crowd,
            needed_columns: vec![0],
            expected_tuples: None,
        }
    }

    /// The route of `plan`, decided over what it lowers to.
    fn route(plan: &LogicalPlan) -> String {
        let stats = FnStats(|_: &str| None);
        let physical = crowddb_plan::lower(plan, &stats, &|_| vec![0], &|_| vec![]);
        maintenance(plan, &physical).to_string()
    }

    #[test]
    fn maintenance_names_what_has_no_delta_rule() {
        let join = |kind, right: &str| LogicalPlan::Join {
            left: Box::new(scan("sessions", false)),
            right: Box::new(scan(right, false)),
            kind,
            on: None,
        };
        let of = |plan: LogicalPlan| route(&plan);
        assert_eq!(of(join(JoinType::Inner, "room")), "incremental");
        assert_eq!(
            of(join(JoinType::Left, "room")),
            "incremental, recompute on DML to room (nullable side of a LEFT join)"
        );
        assert!(of(join(JoinType::Inner, "sessions")).contains("self-join"));
        // The first node without a rule, from the root down.
        let limited = LogicalPlan::Limit {
            input: Box::new(LogicalPlan::Distinct {
                input: Box::new(scan("sessions", false)),
            }),
            limit: Some(3),
            offset: 0,
        };
        assert_eq!(of(limited), "recompute (StopAfter)");
        let sum_of = |data_type| LogicalPlan::Aggregate {
            input: Box::new(LogicalPlan::Scan {
                table: "fee".into(),
                alias: "fee".into(),
                schema: PlanSchema::new(vec![PlanColumn::computed("amount", Some(data_type))]),
                crowd_table: false,
                needed_columns: vec![0],
                expected_tuples: None,
            }),
            group_by: vec![],
            aggs: vec![AggCall {
                func: AggFn::Sum,
                arg: Some(BExpr::Column(0)),
                distinct: false,
            }],
            schema: PlanSchema::default(),
        };
        assert_eq!(of(sum_of(DataType::Int)), "incremental");
        assert_eq!(of(sum_of(DataType::Float)), "recompute (Aggregate SUM(#0))");
    }

    /// A subquery over a CROWD table makes the plan crowd-related, and
    /// that decides the route before any operator is looked at.
    #[test]
    fn a_crowd_related_plan_recomputes() {
        let plan = LogicalPlan::Filter {
            input: Box::new(scan("sessions", false)),
            predicate: BExpr::InPlan {
                expr: Box::new(BExpr::Column(0)),
                plan: Box::new(scan("paper", true)),
                negated: false,
            },
        };
        assert!(route(&plan).starts_with("recompute (crowd-related"));
    }
}

//! Physical operator implementations — one module per operator.
//!
//! [`build`] turns a [`PhysicalPlan`] into a tree of boxed [`Operator`]s
//! borrowing the plan; [`run_op`] executes a node while recording
//! per-operator statistics into an [`OpStatsNode`] tree that mirrors the
//! plan shape. Execution stays materialize-per-round: each operator
//! returns its full output, and crowd work surfaces as needs on the
//! shared [`ExecCtx`].
//!
//! ## Operator contract
//!
//! * `execute` materializes the node's full output for this round from
//!   current knowledge; it must not block on the crowd — undecidable
//!   work is recorded as needs via `ctx.rt.push_need`.
//! * Children are run through [`run_op`] against `stats.children[i]`,
//!   where `i` is the child's position in [`PhysicalPlan::children`].
//! * `execute` sets `stats.rows_in` itself (input rows consumed);
//!   everything else (rows out, needs, cache counters, wall time) is
//!   attributed by [`run_op`] via snapshot diffs.
//! * `delta` answers "what does this [`TableChange`] do to my output?"
//!   for a standing query, against storage that already holds the
//!   change. It returns `None` unless the answer is certain to equal,
//!   row for row, the difference of two `execute`s — the default, which
//!   every operator without a rule keeps, and which makes the caller
//!   re-execute and diff. A rule re-runs the operator's own row code
//!   over the changed rows; there is no second evaluator.

pub(crate) mod aggregate;
mod crowd_join;
mod crowd_sort;
mod distinct;
mod filter;
mod hash_join;
mod nested_loop_join;
mod project;
pub(crate) mod scan;
mod sort;
mod stop_after;
mod union;
mod values;

use std::time::{Duration, Instant};

use crowddb_common::{Result, Row, TupleId};
use crowddb_obs::MetricsRegistry;
use crowddb_plan::{JoinType, PhysicalPlan};

use crate::context::{ExecCtx, NeedCounts};

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

/// A physical operator: materializes its output for one round.
pub trait Operator {
    /// Produce this node's full output from current knowledge, recording
    /// input row counts into `stats` and crowd needs into `ctx`.
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>>;

    /// The difference `change` (already applied to storage) makes to
    /// this node's output, or `None` for "no delta rule: re-execute".
    fn delta(&self, _ctx: &mut ExecCtx<'_>, _change: &TableChange) -> Result<Option<Delta>> {
        Ok(None)
    }
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
        PhysicalPlan::NestedLoopJoin { .. } => {
            Box::new(nested_loop_join::NestedLoopJoinOp::new(plan))
        }
        PhysicalPlan::Sort { .. } => Box::new(sort::SortOp::new(plan)),
        PhysicalPlan::CrowdSort { .. } => Box::new(crowd_sort::CrowdSortOp::new(plan)),
        PhysicalPlan::Aggregate { .. } => Box::new(aggregate::AggregateOp::new(plan)),
        PhysicalPlan::StopAfter { .. } => Box::new(stop_after::StopAfterOp::new(plan)),
        PhysicalPlan::Distinct { .. } => Box::new(distinct::DistinctOp::new(plan)),
        PhysicalPlan::Values { .. } => Box::new(values::ValuesOp::new(plan)),
        PhysicalPlan::Union { .. } => Box::new(union::UnionOp::new(plan)),
    }
}

/// Per-operator statistics, one node per physical operator, accumulated
/// across rounds.
///
/// The counters captured around `execute` are *cumulative over the
/// subtree* (children run inside their parent's `execute`); the
/// self-attributed accessors ([`OpStatsNode::needs`],
/// [`OpStatsNode::cache_hits`], [`OpStatsNode::cache_misses`],
/// [`OpStatsNode::wall`]) subtract the children's cumulative totals.
#[derive(Debug, Clone, Default)]
pub struct OpStatsNode {
    /// Operator name (e.g. `TableScan`, `CrowdJoin`).
    pub name: String,
    /// Input rows consumed (set by the operator itself).
    pub rows_in: u64,
    /// Output rows produced.
    pub rows_out: u64,
    /// Rounds this node executed.
    pub rounds: u64,
    /// Per-child stats, in [`PhysicalPlan::children`] order.
    pub children: Vec<OpStatsNode>,
    pub(crate) cum_needs: NeedCounts,
    pub(crate) cum_hits: u64,
    pub(crate) cum_misses: u64,
    pub(crate) cum_pages_read: u64,
    pub(crate) cum_pool_hits: u64,
    pub(crate) cum_index_probes: u64,
    pub(crate) cum_machine_ordered: u64,
    pub(crate) cum_wall: Duration,
}

impl OpStatsNode {
    /// An all-zero stats tree mirroring `plan`.
    pub fn skeleton(plan: &PhysicalPlan) -> OpStatsNode {
        OpStatsNode {
            name: plan.name().to_string(),
            children: plan.children().into_iter().map(Self::skeleton).collect(),
            ..OpStatsNode::default()
        }
    }

    /// Needs emitted by this operator itself (children excluded).
    pub fn needs(&self) -> NeedCounts {
        let child: NeedCounts = self
            .children
            .iter()
            .fold(NeedCounts::default(), |acc, c| acc.add(&c.cum_needs));
        self.cum_needs.diff(&child)
    }

    /// Compare-cache hits by this operator itself.
    pub fn cache_hits(&self) -> u64 {
        self.cum_hits - self.children.iter().map(|c| c.cum_hits).sum::<u64>()
    }

    /// Compare-cache misses by this operator itself.
    pub fn cache_misses(&self) -> u64 {
        self.cum_misses - self.children.iter().map(|c| c.cum_misses).sum::<u64>()
    }

    /// Pages this operator itself fetched from the storage backend
    /// (buffer-pool misses that did I/O).
    pub fn pages_read(&self) -> u64 {
        self.cum_pages_read - self.children.iter().map(|c| c.cum_pages_read).sum::<u64>()
    }

    /// Page requests this operator itself answered from the buffer pool.
    pub fn pool_hits(&self) -> u64 {
        self.cum_pool_hits - self.children.iter().map(|c| c.cum_pool_hits).sum::<u64>()
    }

    /// Secondary-index probes issued by this operator itself.
    pub fn index_probes(&self) -> u64 {
        self.cum_index_probes
            - self
                .children
                .iter()
                .map(|c| c.cum_index_probes)
                .sum::<u64>()
    }

    /// Comparisons this operator itself resolved via the hybrid
    /// CROWDORDER machine path.
    pub fn machine_ordered(&self) -> u64 {
        self.cum_machine_ordered
            - self
                .children
                .iter()
                .map(|c| c.cum_machine_ordered)
                .sum::<u64>()
    }

    /// Wall time spent in this operator itself.
    pub fn wall(&self) -> Duration {
        self.children
            .iter()
            .fold(self.cum_wall, |acc, c| acc.saturating_sub(c.cum_wall))
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
        self.cum_needs = self.cum_needs.add(&other.cum_needs);
        self.cum_hits += other.cum_hits;
        self.cum_misses += other.cum_misses;
        self.cum_pages_read += other.cum_pages_read;
        self.cum_pool_hits += other.cum_pool_hits;
        self.cum_index_probes += other.cum_index_probes;
        self.cum_machine_ordered += other.cum_machine_ordered;
        self.cum_wall += other.cum_wall;
        for (mine, theirs) in self.children.iter_mut().zip(&other.children) {
            mine.merge(theirs);
        }
    }

    /// One-line stats summary (everything but the operator name).
    ///
    /// `time=` is always the final token so snapshot tests can scrub it.
    pub fn summary(&self) -> String {
        let needs = self.needs();
        format!(
            "rounds={} in={} out={} probe={} new={} eq={} ord={} hit={} miss={} mord={} \
             pages={} pool_hit={} iprobe={} time={:?}",
            self.rounds,
            self.rows_in,
            self.rows_out,
            needs.probe,
            needs.new_tuples,
            needs.equal,
            needs.order,
            self.cache_hits(),
            self.cache_misses(),
            self.machine_ordered(),
            self.pages_read(),
            self.pool_hits(),
            self.index_probes(),
            self.wall(),
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
/// Snapshots the shared need/cache counters around the call; the diffs
/// (cumulative over the subtree, since children run inside the parent)
/// accumulate on `node`.
pub fn run_op(
    op: &dyn Operator,
    ctx: &mut ExecCtx<'_>,
    node: &mut OpStatsNode,
) -> Result<Vec<Row>> {
    let needs0 = ctx.rt.need_counts;
    let hits0 = ctx.rt.stats.compare_cache_hits;
    let misses0 = ctx.rt.stats.compare_cache_misses;
    let mord0 = ctx.rt.stats.machine_ordered;
    let probes0 = ctx.rt.stats.index_probes;
    let pager0 = ctx.db.pager_stats();
    let t0 = Instant::now();
    let rows = op.execute(ctx, node)?;
    // Central guard charge: every operator's output counts toward the
    // intermediate-row cap, and each boundary is a cancel checkpoint.
    ctx.rt.charge_rows(rows.len() as u64)?;
    node.cum_wall += t0.elapsed();
    node.cum_needs = node.cum_needs.add(&ctx.rt.need_counts.diff(&needs0));
    node.cum_hits += ctx.rt.stats.compare_cache_hits - hits0;
    node.cum_misses += ctx.rt.stats.compare_cache_misses - misses0;
    node.cum_machine_ordered += ctx.rt.stats.machine_ordered - mord0;
    // Pager counters are engine-global; diffing around `execute` charges
    // this subtree's page traffic to this node (children run inside, so
    // the self-attributed accessors subtract them back out).
    let pager = ctx.db.pager_stats().diff(&pager0);
    node.cum_pages_read += pager.pages_read;
    node.cum_pool_hits += pager.pool_hits;
    node.cum_index_probes += ctx.rt.stats.index_probes - probes0;
    node.rows_out += rows.len() as u64;
    node.rounds += 1;
    Ok(rows)
}

/// The delta rule of the two machine joins: Δ(L ⋈ R) = ΔL ⋈ R while R
/// stands still, and the mirror image. Both children are asked; the side
/// that did not change is `execute`d as in any round and `join` — the
/// operator's own loop — runs once over the removed and once over the
/// added rows of the other. No rule when both sides changed (a
/// self-join) or when the nullable side of a LEFT join did (a preserved
/// row may gain or lose its `NULL` padding).
pub(crate) fn join_delta(
    ctx: &mut ExecCtx<'_>,
    change: &TableChange,
    (left, left_plan): (&dyn Operator, &PhysicalPlan),
    (right, right_plan): (&dyn Operator, &PhysicalPlan),
    kind: JoinType,
    mut join: impl FnMut(&mut ExecCtx<'_>, &[Row], &[Row]) -> Result<Vec<Row>>,
) -> Result<Option<Delta>> {
    let (Some(dl), Some(dr)) = (left.delta(ctx, change)?, right.delta(ctx, change)?) else {
        return Ok(None);
    };
    let (changed, (still, still_plan), left_changed) = match (dl.is_empty(), dr.is_empty()) {
        (true, true) => return Ok(Some(Delta::default())),
        (false, true) => (dl, (right, right_plan), true),
        (true, false) if kind != JoinType::Left => (dr, (left, left_plan), false),
        _ => return Ok(None),
    };
    let rows = run_op(still, ctx, &mut OpStatsNode::skeleton(still_plan))?;
    let mut half = |changed: &[Row]| match (changed.is_empty(), left_changed) {
        (true, _) => Ok(Vec::new()),
        (false, true) => join(ctx, changed, &rows),
        (false, false) => join(ctx, &rows, changed),
    };
    Ok(Some(Delta {
        removed: half(&changed.removed)?,
        added: half(&changed.added)?,
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
    let needs = stats.needs();
    registry.counter_add("crowddb_exec_needs_probe_total", needs.probe);
    registry.counter_add("crowddb_exec_needs_new_tuples_total", needs.new_tuples);
    registry.counter_add("crowddb_exec_needs_equal_total", needs.equal);
    registry.counter_add("crowddb_exec_needs_order_total", needs.order);
    registry.counter_add("crowddb_exec_cache_hits_total", stats.cache_hits());
    registry.counter_add("crowddb_exec_cache_misses_total", stats.cache_misses());
    registry.counter_add(
        "crowddb_exec_machine_ordered_total",
        stats.machine_ordered(),
    );
    registry.counter_add("crowddb_exec_pages_read_total", stats.pages_read());
    registry.counter_add("crowddb_exec_pool_hits_total", stats.pool_hits());
    registry.counter_add("crowddb_exec_index_probes_total", stats.index_probes());
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
        for (c, cs) in plan.children().into_iter().zip(&stats.children) {
            rec(c, cs, depth + 1, out);
        }
    }
    let mut out = String::new();
    rec(plan, stats, 0, &mut out);
    out
}

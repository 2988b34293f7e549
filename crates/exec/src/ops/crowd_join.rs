//! CrowdJoin: the paper's index nested-loop join with a crowdsourced
//! inner side. Executes as a hash join plus an enumeration policy —
//! outer rows without an inner match generate new-tuple needs with the
//! join key preset, `batch_size` tuples at a time.
//!
//! With a `probe_index` on the inner key the inner side is not scanned
//! at all: the executor probes the index once per distinct outer key
//! (plus the missing-key prefix, whose rows may match once the crowd
//! fills them) and feeds only those candidates to the hash join. The
//! join output is identical — rows skipped by the probes have inner
//! keys equal to no outer key, so they could never join — only the page
//! traffic changes.

use std::collections::HashSet;

use crowddb_common::{Result, Row};
use crowddb_plan::{Access, IndexMeta, PhysicalPlan};
use crowddb_storage::IndexKey;

use crate::context::ExecCtx;
use crate::eval::eval;
use crate::ops::hash_join::{CrowdSpec, HashJoin};
use crate::ops::scan::ScanOp;
use crate::ops::{build, collect, BoxedOp, Flow, OpStatsNode, Operator, Sink};

/// Crowd-join operator; see [`PhysicalPlan::CrowdJoin`].
pub struct CrowdJoinOp<'p> {
    left: BoxedOp<'p>,
    right: BoxedOp<'p>,
    join: HashJoin<'p>,
    probe: Option<InlProbe<'p>>,
}

/// The index-nested-loop plan for the inner side: the chosen index plus
/// the inner scan itself, so probed candidates run through the same
/// residual/probe/quota pipeline the scan would have applied.
struct InlProbe<'p> {
    index: &'p IndexMeta,
    scan: ScanOp<'p>,
}

impl<'p> CrowdJoinOp<'p> {
    /// Build from a [`PhysicalPlan::CrowdJoin`] node.
    pub fn new(plan: &'p PhysicalPlan) -> CrowdJoinOp<'p> {
        let PhysicalPlan::CrowdJoin {
            left,
            right,
            kind,
            equi,
            residual,
            inner_table,
            key_column,
            probe_index,
            batch_size,
            ..
        } = plan
        else {
            unreachable!("CrowdJoinOp built from {plan:?}")
        };
        // The INL upgrade replays the inner scan's pipeline over the
        // probed candidates, so it applies when the inner side is a scan
        // that would otherwise read the whole crowd table.
        let probe = match (probe_index, right.as_ref()) {
            (
                Some(index),
                PhysicalPlan::Scan {
                    access: Access::Full,
                    ..
                },
            ) => Some(InlProbe {
                index,
                scan: ScanOp::new(right),
            }),
            _ => None,
        };
        CrowdJoinOp {
            join: HashJoin {
                kind: *kind,
                equi: std::slice::from_ref(equi),
                residual,
                right_arity: right.schema().arity(),
                crowd: Some(CrowdSpec {
                    table: inner_table,
                    key_column,
                    batch: *batch_size,
                }),
            },
            left: build(left),
            right: build(right),
            probe,
        }
    }

    /// Index-nested-loop inner fetch: probe the inner index once per
    /// distinct present outer key, union the missing-key prefix, and run
    /// the inner scan's pipeline over just those candidates. Charged to
    /// the inner child's stats node (which never executes as a scan).
    fn probe_inner(
        &self,
        ctx: &mut ExecCtx<'_>,
        child: &mut OpStatsNode,
        probe: &InlProbe<'_>,
        left_rows: &[Row],
    ) -> Result<Vec<Row>> {
        // Distinct outer keys in first-appearance order (determinism);
        // missing keys can never equal an inner key, so they probe
        // nothing (the unmatched outer row still drives the new-tuple
        // policy in the join below).
        let mut keys: Vec<IndexKey> = Vec::new();
        let mut seen = HashSet::new();
        for row in left_rows {
            let key = eval(ctx, &self.join.equi[0].0, row)?;
            if !key.is_missing() && seen.insert(key.clone()) {
                keys.push(IndexKey(vec![key]));
            }
        }
        let rows = probe.scan.probe_rows(ctx, child, probe.index, &keys)?;
        child.rows_out += rows.len() as u64;
        child.rounds += 1;
        Ok(rows)
    }
}

impl Operator for CrowdJoinOp<'_> {
    /// Both sides collected, outer first: the operator asks the crowd
    /// (`ops` invariant (i)) and its probes re-enter the database (ii).
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let left_rows = collect(self.left.as_ref(), ctx, &mut stats.children[0])?;
        let right_rows = match &self.probe {
            Some(probe) => self.probe_inner(ctx, &mut stats.children[1], probe, &left_rows)?,
            None => collect(self.right.as_ref(), ctx, &mut stats.children[1])?,
        };
        self.join.join(ctx, &left_rows, &right_rows, sink)
    }
}

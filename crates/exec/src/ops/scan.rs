//! Scan: the one base-table access path, with CrowdProbe insertion
//! points and an optional fused residual filter.
//!
//! Every read of stored tuples — the three [`Access`] kinds of a query's
//! scan, CrowdJoin's index-nested-loop probes, and the row selection of
//! UPDATE/DELETE — is "fetch `(tid, row)` candidates, then
//! [`ScanOp::process`]". An access path fetches a *candidate superset* of
//! the qualifying rows (an index result is unioned with the tuples whose
//! indexed key is still `NULL`/`CNULL`, since those may qualify once the
//! crowd fills them) in tid order; it changes which pages are read, never
//! what the statement means.

use crowddb_common::{CrowdError, DataType, Result, Row, Truth, TupleId, Value};
use crowddb_plan::{Access, BExpr, IndexMeta, PhysicalPlan};
use crowddb_storage::IndexKey;

use crate::context::ExecCtx;
use crate::eval::eval_truth;
use crate::need::TaskNeed;
use crate::ops::{Delta, OpStatsNode, Operator, TableChange};

/// Scan operator; see [`PhysicalPlan::Scan`].
pub struct ScanOp<'p> {
    table: &'p str,
    needed_columns: &'p [usize],
    crowd_table: bool,
    expected_tuples: Option<u64>,
    access: &'p Access,
    residual: Option<&'p BExpr>,
}

impl<'p> ScanOp<'p> {
    /// Build from a [`PhysicalPlan::Scan`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ScanOp<'p> {
        let PhysicalPlan::Scan {
            table,
            needed_columns,
            crowd_table,
            expected_tuples,
            access,
            residual,
            ..
        } = plan
        else {
            unreachable!("ScanOp built from {plan:?}")
        };
        ScanOp {
            table,
            needed_columns,
            crowd_table: *crowd_table,
            expected_tuples: *expected_tuples,
            access,
            residual: residual.as_ref(),
        }
    }

    /// The `(tid, row)` pairs this scan passes, in tid order — what an
    /// UPDATE/DELETE acts on. Collected in full before the caller mutates
    /// anything, so an UPDATE that moves the very key the access path
    /// used never revisits a row.
    pub(crate) fn tuples(&self, ctx: &mut ExecCtx<'_>) -> Result<Vec<(TupleId, Row)>> {
        let candidates = self.candidates(ctx)?;
        let mut out = Vec::new();
        self.process(ctx, candidates, |tid, row| out.push((tid, row)))?;
        Ok(out)
    }

    /// Index-nested-loop fetch for CrowdJoin: this scan's pipeline over
    /// the tuples `index` holds under any of `keys` instead of over its
    /// own access path.
    pub(crate) fn probe_rows(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        index: &IndexMeta,
        keys: &[IndexKey],
    ) -> Result<Vec<Row>> {
        let candidates = self.probe(ctx, index, keys)?;
        self.rows(ctx, stats, candidates)
    }

    /// Fetch the candidates of this scan's own access path.
    fn candidates(&self, ctx: &mut ExecCtx<'_>) -> Result<Vec<(TupleId, Row)>> {
        match self.access {
            Access::Full => ctx.db.with_table(self.table, |t| t.scan_rows())?,
            Access::Point { index, key } => self.probe(ctx, index, &[IndexKey(key.clone())]),
            Access::Range { index, low, high } => {
                let low = low.clone().map(|v| IndexKey(vec![v]));
                let high = high.clone().map(|v| IndexKey(vec![v]));
                self.index_fetch(ctx, index, 1, |idx, pager| {
                    idx.range(pager, low.as_ref(), high.as_ref())?
                        .ok_or_else(|| {
                            CrowdError::Internal(format!(
                                "index {} on {} is unordered but was planned for a range scan",
                                index.name, self.table
                            ))
                        })
                })
            }
        }
    }

    /// Point-probe `index` once per key.
    fn probe(
        &self,
        ctx: &mut ExecCtx<'_>,
        index: &IndexMeta,
        keys: &[IndexKey],
    ) -> Result<Vec<(TupleId, Row)>> {
        self.index_fetch(ctx, index, keys.len() as u64, |idx, pager| {
            let mut tids = Vec::new();
            for key in keys {
                tids.extend(idx.get(pager, key)?);
            }
            Ok(tids)
        })
    }

    /// Resolve the planned index on the live table, take the tids
    /// `lookup` finds in it, union the index's missing-key tuples (which
    /// may qualify once the crowd fills them), and fetch the live rows in
    /// tid order — the order a heap scan yields, so access-path choice
    /// never reorders output.
    fn index_fetch(
        &self,
        ctx: &mut ExecCtx<'_>,
        index: &IndexMeta,
        probes: u64,
        lookup: impl FnOnce(&crowddb_storage::Index, &crowddb_storage::Pager) -> Result<Vec<TupleId>>,
    ) -> Result<Vec<(TupleId, Row)>> {
        ctx.rt.stats.index_probes += probes;
        ctx.db.with_table(self.table, |t| {
            // The plan was built against the same catalog, so absence
            // means concurrent DDL — a typed error, not a panic.
            let idx = t
                .indexes()
                .iter()
                .find(|i| i.name == index.name)
                .ok_or_else(|| {
                    CrowdError::Internal(format!(
                        "planned index {} no longer exists on {}",
                        index.name, self.table
                    ))
                })?;
            let mut tids = lookup(idx, t.pager())?;
            tids.extend(idx.missing_key_tids(t.pager())?);
            tids.sort_unstable_by_key(|tid| tid.0);
            tids.dedup();
            let mut out = Vec::with_capacity(tids.len());
            for tid in tids {
                if let Some(row) = t.get(tid)? {
                    out.push((tid, row));
                }
            }
            Ok(out)
        })?
    }

    /// Run the pipeline as an operator: rows out, candidates counted in.
    fn rows(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        candidates: Vec<(TupleId, Row)>,
    ) -> Result<Vec<Row>> {
        stats.rows_in += candidates.len() as u64;
        let mut out = Vec::with_capacity(candidates.len());
        self.process(ctx, candidates, |_, row| out.push(row))?;
        Ok(out)
    }

    /// The scan pipeline over already-fetched candidates: residual
    /// filtering (decidedly-False rows drop before any crowd work),
    /// CrowdProbe needs for missing values, and the bounded CROWD-table
    /// tuple quota. Rows whose residual is True go to `emit`.
    fn process(
        &self,
        ctx: &mut ExecCtx<'_>,
        candidates: Vec<(TupleId, Row)>,
        mut emit: impl FnMut(TupleId, Row),
    ) -> Result<()> {
        let schema = ctx.table_schema(self.table)?;
        ctx.rt.stats.rows_scanned += candidates.len() as u64;

        for (tid, row) in candidates {
            ctx.rt.check()?;
            // Fused filter: a decidedly-False predicate drops the row
            // before any crowd work is generated for it; Unknown keeps
            // probing (the missing value may decide the predicate).
            let truth = match self.residual {
                Some(p) => eval_truth(ctx, p, &row)?,
                None => Truth::True,
            };
            if truth == Truth::False {
                continue;
            }
            // CrowdProbe, missing-value flavor: any needed column that is
            // CNULL (and crowdsourceable) becomes a probe need.
            let mut missing: Vec<(usize, String, DataType)> = Vec::new();
            for &c in self.needed_columns {
                if row.get(c).map(Value::is_cnull).unwrap_or(false) {
                    let col = &schema.columns[c];
                    if col.crowd || schema.crowd_table {
                        ctx.rt.stats.cnulls_seen += 1;
                        missing.push((c, col.name.clone(), col.data_type));
                    }
                }
            }
            if !missing.is_empty() {
                let context: Vec<(String, String)> = schema
                    .columns
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| {
                        schema.primary_key.contains(i)
                            || (self.needed_columns.contains(i)
                                && !row.get(*i).map(Value::is_missing).unwrap_or(true))
                    })
                    .map(|(i, c)| (c.name.clone(), row[i].to_string()))
                    .collect();
                ctx.rt.push_need(TaskNeed::ProbeValues {
                    table: self.table.to_string(),
                    tid,
                    context,
                    columns: missing,
                });
            }
            // Unknown rows are probed above but excluded from this
            // round's output (SQL WHERE semantics); they qualify on
            // re-execution once the crowd fills the value in.
            if truth.passes_filter() {
                emit(tid, row);
            }
        }

        // CrowdProbe, new-tuple flavor: a bounded CROWD-table scan short
        // of its quota asks the crowd for more tuples. The quota counts
        // stored tuples, not candidates or filter survivors: the bound
        // caps how much of the open world is enumerated.
        if let (true, Some(expected)) = (self.crowd_table, self.expected_tuples) {
            let have = ctx.db.stats(self.table)?.live_rows as u64;
            if have < expected {
                ctx.rt.push_need(TaskNeed::NewTuples {
                    table: self.table.to_string(),
                    preset: vec![],
                    want: expected - have,
                });
            }
        }
        Ok(())
    }
}

impl Operator for ScanOp<'_> {
    fn execute(&self, ctx: &mut ExecCtx<'_>, stats: &mut OpStatsNode) -> Result<Vec<Row>> {
        let candidates = self.candidates(ctx)?;
        self.rows(ctx, stats, candidates)
    }

    /// The changed rows are the candidates: the residual is the whole
    /// predicate, so which access path would have fetched them does not
    /// matter. A change to another table leaves a scan alone, and storage
    /// is not touched either way.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        if self.residual.is_some_and(BExpr::has_subplan) {
            return Ok(None);
        }
        let mut delta = Delta::default();
        if change.table == self.table {
            self.process(ctx, change.removed.clone(), |_, row| {
                delta.removed.push(row)
            })?;
            self.process(ctx, change.added.clone(), |_, row| delta.added.push(row))?;
        }
        Ok(Some(delta))
    }
}

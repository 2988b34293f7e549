//! Scan: the one base-table access path, with CrowdProbe insertion
//! points and an optional fused residual filter.
//!
//! Every read of stored tuples — the three [`Access`] kinds of a query's
//! scan, CrowdJoin's index-nested-loop probes, the row selection of
//! UPDATE/DELETE, the changed rows of a standing query's delta — is one
//! [`ScanOp::pass`]: fetch candidates, hand each to [`ScanOp::admit`].
//! An access path fetches a *candidate superset* of the qualifying rows
//! (an index result is unioned with the tuples whose indexed key is
//! still `NULL`/`CNULL`, since those may qualify once the crowd fills
//! them) in tid order; it changes which pages are read, never what the
//! statement means.
//!
//! A candidate comes as the bytes storage holds, lent from the leaf page
//! the cursor has pinned, and is decoded only as far as the plan reads
//! it: the residual judges it on one row buffer the pass reuses, in
//! which just the columns the residual reads are materialized (strings
//! elsewhere are checked, not allocated), so a rejected row allocates
//! nothing; a row it keeps is decoded in its *kept* columns — the ones
//! the plan reads, plus the primary key a probe need names — into a
//! second buffer the pass reuses and lends to the consumer, and its
//! other strings hold `''`. (Decoding the kept columns straight away,
//! for rows the residual then rejects, measured slower than decoding a
//! passing row twice.) Only [`ScanOp::tuples`], whose rows an
//! UPDATE writes back, decodes every column. The whole pass runs under
//! the database read lock — see `ops` invariant (ii) for what that
//! forbids the consumer, and [`ScanOp::pass`] for the one case where the
//! scan itself must step out of it first.

use std::borrow::Cow;
use std::cell::OnceCell;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CrowdError, DataType, Result, Row, TableSchema, Truth, TupleId, Value};
use crowddb_plan::{Access, BExpr, IndexMeta, PhysicalPlan};
use crowddb_storage::{HeapTable, Index, IndexKey};

use crate::context::ExecCtx;
use crate::eval::eval_truth;
use crate::need::TaskNeed;
use crate::ops::{Delta, Flow, OpStatsNode, Operator, Sink, TableChange};

/// Scan operator; see [`PhysicalPlan::Scan`].
pub struct ScanOp<'p> {
    table: &'p str,
    needed_columns: &'p [usize],
    crowd_table: bool,
    expected_tuples: Option<u64>,
    access: &'p Access,
    residual: Option<&'p BExpr>,
    /// The columns the residual reads: a stored row is judged decoded in
    /// these alone.
    reads: Vec<bool>,
    /// The columns a kept row is decoded in, worked out on the first
    /// pass that lends rows in their kept columns only.
    keeps: OnceCell<Vec<bool>>,
}

/// Where a pass takes its candidates from.
enum Source<'a> {
    /// Storage: the tuples `index` holds under any of `keys` (CrowdJoin's
    /// probes), or without a probe the scan's own access path.
    Stored(Option<(&'a IndexMeta, &'a [IndexKey])>),
    /// Rows already in hand (a standing query's changed rows).
    Rows(&'a [(TupleId, Row)]),
}

/// One candidate: as stored, or already decoded.
enum Candidate<'a> {
    Stored(&'a [u8]),
    Row(&'a Row),
}

/// Where the tuples a pass admits go, lent as [`super::Sink`] lends rows.
type TupleSink<'s> = dyn FnMut(&mut ExecCtx<'_>, TupleId, &mut Row) -> Result<Flow> + 's;

/// Who a fetch lends each candidate's stored bytes to.
type Borrower<'s> = dyn FnMut(&mut ExecCtx<'_>, TupleId, &[u8]) -> Result<Flow> + 's;

impl<'p> ScanOp<'p> {
    /// Build from a [`PhysicalPlan::Scan`] node.
    pub fn new(plan: &'p PhysicalPlan) -> ScanOp<'p> {
        let PhysicalPlan::Scan {
            table,
            schema,
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
        let read = residual
            .as_ref()
            .map(BExpr::column_refs)
            .unwrap_or_default();
        ScanOp {
            table,
            needed_columns,
            crowd_table: *crowd_table,
            expected_tuples: *expected_tuples,
            access,
            residual: residual.as_ref(),
            reads: (0..schema.arity()).map(|c| read.contains(&c)).collect(),
            keeps: OnceCell::new(),
        }
    }

    /// The `(tid, row)` pairs this scan passes, in tid order — what an
    /// UPDATE/DELETE acts on — and how many rows it left out because the
    /// residual was Unknown on a `CNULL` it reads: rows the statement
    /// cannot decide without asking the crowd. Collected in full before
    /// the caller mutates anything, so an UPDATE that moves the very key
    /// the access path used never revisits a row.
    pub(crate) fn tuples(&self, ctx: &mut ExecCtx<'_>) -> Result<(Vec<(TupleId, Row)>, u64)> {
        let mut out = Vec::new();
        let pass = self.pass(ctx, Source::Stored(None), true, &mut |_, tid, row| {
            out.push((tid, std::mem::take(row)));
            Ok(Flow::More)
        })?;
        Ok((out, pass.undecided))
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
        let mut out = Vec::new();
        let probe = Source::Stored(Some((index, keys)));
        let pass = self.pass(ctx, probe, false, &mut |_, _, row| {
            out.push(std::mem::take(row));
            Ok(Flow::More)
        })?;
        stats.rows_in += pass.examined;
        Ok(out)
    }

    /// One pass of the pipeline: every candidate of `source` through
    /// [`ScanOp::admit`] until `emit` has had enough, then the tuple
    /// quota. A row goes to `emit` decoded in every column if `whole`,
    /// else in its kept columns only.
    ///
    /// Candidates are admitted as they are read, under the database read
    /// lock — unless the residual reads a subquery, whose evaluation
    /// would take that lock again (`ops` invariant (ii)): then they are
    /// fetched and decoded first and admitted after the lock is gone.
    fn pass(
        &self,
        ctx: &mut ExecCtx<'_>,
        source: Source<'_>,
        whole: bool,
        emit: &mut TupleSink<'_>,
    ) -> Result<Pass> {
        let schema = ctx.table_schema(self.table)?;
        // What the plan reads of a kept row: the needed columns, the
        // residual's, and the primary key, which a probe need's context
        // names whether or not the query reads it.
        let keeps = (!whole).then(|| {
            let kept = |c: &usize| {
                self.needed_columns.contains(c)
                    || self.reads.get(*c) == Some(&true)
                    || schema.primary_key.contains(c)
            };
            let keeps = self
                .keeps
                .get_or_init(|| (0..schema.arity()).map(|c| kept(&c)).collect());
            keeps.as_slice()
        });
        let (mut judged, mut kept) = (Row::default(), Row::default());
        let (mut examined, mut undecided) = (0u64, 0u64);
        let mut admit = |ctx: &mut ExecCtx<'_>, tid, candidate: Candidate<'_>| {
            examined += 1;
            let buffers = (keeps, &mut judged, &mut kept);
            let (flow, unknown_on_cnull) =
                self.admit(ctx, &schema, buffers, tid, candidate, emit)?;
            undecided += u64::from(unknown_on_cnull);
            Ok(flow)
        };
        let flow = match source {
            Source::Rows(rows) => each(rows, |(tid, row)| admit(ctx, *tid, Candidate::Row(row)))?,
            Source::Stored(probe) if self.residual.is_some_and(BExpr::has_subplan) => {
                let mut held = Vec::new();
                self.fetch(ctx, probe, &mut |_, tid, stored| {
                    let mut row = Row::default();
                    decode_into(stored, keeps, &mut row)?;
                    held.push((tid, row));
                    Ok(Flow::More)
                })?;
                each(&held, |(tid, row)| admit(ctx, *tid, Candidate::Row(row)))?
            }
            Source::Stored(probe) => self.fetch(ctx, probe, &mut |ctx, tid, stored| {
                admit(ctx, tid, Candidate::Stored(stored))
            })?,
        };

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
        Ok(Pass {
            examined,
            undecided,
            flow,
        })
    }

    /// Lend `each` the stored bytes of every candidate — of `probe`, or
    /// of the scan's own access path — in tid order, inside one
    /// `with_table`: under the read lock.
    fn fetch(
        &self,
        ctx: &mut ExecCtx<'_>,
        probe: Option<(&IndexMeta, &[IndexKey])>,
        each: &mut Borrower<'_>,
    ) -> Result<Flow> {
        let db = ctx.db;
        db.with_table(self.table, |t| {
            // Point-probe `index` once per key.
            let gets =
                |index, keys: &[IndexKey], ctx: &mut ExecCtx<'_>, each: &mut Borrower<'_>| {
                    let lookup = |idx: &Index| {
                        let mut tids = Vec::new();
                        for key in keys {
                            tids.extend(idx.get(t.pager(), key)?);
                            // A composite key's entries that miss a later
                            // value the crowd may yet fill to match.
                            tids.extend(idx.missing_under(t.pager(), key)?);
                        }
                        Ok(tids)
                    };
                    self.index_fetch(ctx, t, index, keys.len() as u64, lookup, each)
                };
            match (probe, self.access) {
                (Some((index, keys)), _) => gets(index, keys, ctx, each),
                (None, Access::Point { index, key }) => {
                    gets(index, &[IndexKey(key.clone())], ctx, each)
                }
                (None, Access::Range { index, low, high }) => {
                    let low = low.clone().map(|v| IndexKey(vec![v]));
                    let high = high.clone().map(|v| IndexKey(vec![v]));
                    let lookup = |idx: &Index| idx.range(t.pager(), low.as_ref(), high.as_ref());
                    self.index_fetch(ctx, t, index, 1, lookup, each)
                }
                (None, Access::Full) => {
                    let mut cursor = t.cursor()?;
                    while let Some((tid, stored)) = cursor.next_stored()? {
                        if each(ctx, tid, &stored)? == Flow::Stop {
                            return Ok(Flow::Stop);
                        }
                    }
                    Ok(Flow::More)
                }
            }
        })?
    }

    /// Resolve the planned index on the live table, take the tids
    /// `lookup` finds in it (`probes` probes' worth), union the index's
    /// tuples whose leading key value is missing (which may qualify once
    /// the crowd fills them), and lend out the live rows in tid order —
    /// the order a heap scan yields, so access-path choice never reorders
    /// output.
    fn index_fetch(
        &self,
        ctx: &mut ExecCtx<'_>,
        t: &HeapTable,
        index: &IndexMeta,
        probes: u64,
        lookup: impl FnOnce(&Index) -> Result<Vec<TupleId>>,
        each: &mut Borrower<'_>,
    ) -> Result<Flow> {
        ctx.rt.stats.index_probes += probes;
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
        let mut tids = lookup(idx)?;
        tids.extend(idx.missing_key_tids(t.pager())?);
        tids.sort_unstable_by_key(|tid| tid.0);
        tids.dedup();
        for tid in tids {
            let flow = t.get_stored(tid, |stored| each(ctx, tid, stored))?;
            if flow == Some(Flow::Stop) {
                return Ok(Flow::Stop);
            }
        }
        Ok(Flow::More)
    }

    /// The row function: residual filtering (decidedly-False rows drop
    /// before any crowd work is generated for them, judged on the pass's
    /// reused buffer `judged` and decoded no further), CrowdProbe needs
    /// for missing values. Rows whose residual is True go to `emit`, lent
    /// in the pass's other buffer `row`, blanked outside `keeps` (`None`:
    /// every column is kept). Also says whether the residual was Unknown
    /// on a row with a `CNULL` in a column it reads.
    fn admit(
        &self,
        ctx: &mut ExecCtx<'_>,
        schema: &TableSchema,
        (keeps, judged, row): (Option<&[bool]>, &mut Row, &mut Row),
        tid: TupleId,
        candidate: Candidate<'_>,
        emit: &mut TupleSink<'_>,
    ) -> Result<(Flow, bool)> {
        ctx.rt.check()?;
        ctx.rt.stats.rows_scanned += 1;
        // Fused filter: a decidedly-False predicate drops the row
        // before any crowd work is generated for it; Unknown keeps
        // probing (the missing value may decide the predicate).
        let (truth, unknown_on_cnull) = match (self.residual, &candidate) {
            (None, _) => (Truth::True, false),
            (Some(p), Candidate::Stored(stored)) => {
                codec::decode_row_into(&mut Reader::new(stored), &self.reads, judged)?;
                self.judge(ctx, p, judged)?
            }
            (Some(p), Candidate::Row(row)) => self.judge(ctx, p, row)?,
        };
        if truth == Truth::False {
            return Ok((Flow::More, false));
        }
        match candidate {
            Candidate::Stored(stored) => decode_into(stored, keeps, row)?,
            Candidate::Row(candidate) => copy_into(candidate, keeps, row),
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
        let flow = match truth.passes_filter() {
            true => emit(ctx, tid, row)?,
            false => Flow::More,
        };
        Ok((flow, unknown_on_cnull))
    }

    /// The residual's verdict on `row`, and whether it is Unknown with a
    /// `CNULL` in a column the residual reads.
    fn judge(&self, ctx: &mut ExecCtx<'_>, p: &BExpr, row: &Row) -> Result<(Truth, bool)> {
        let truth = eval_truth(ctx, p, row)?;
        let on_cnull = truth == Truth::Unknown
            && (row.values().iter().zip(&self.reads)).any(|(v, read)| *read && v.is_cnull());
        Ok((truth, on_cnull))
    }
}

/// What one [`ScanOp::pass`] did.
struct Pass {
    /// Candidates examined.
    examined: u64,
    /// Candidates whose residual was Unknown on a `CNULL` it reads.
    undecided: u64,
    /// What the consumer said last.
    flow: Flow,
}

/// A stored row into `row`, decoded in the columns `keeps` names (every
/// column if `None`); strings elsewhere hold `''`. A kept string lands in
/// the allocation its slot already holds.
fn decode_into(stored: &[u8], keeps: Option<&[bool]>, row: &mut Row) -> Result<()> {
    let mut r = Reader::new(stored);
    match keeps {
        Some(keeps) => codec::decode_row_into(&mut r, keeps, row)?,
        None => *row = codec::decode_row(&mut r)?,
    }
    Ok(())
}

/// An already-decoded row into `row` as [`decode_into`] would have left
/// it: strings outside `keeps` hold `''`. A string lands in the
/// allocation its slot already holds.
fn copy_into(candidate: &Row, keeps: Option<&[bool]>, row: &mut Row) {
    static BLANK: Value = Value::Str(String::new());
    let kept = |c: usize| keeps.is_none_or(|keeps| keeps.get(c).copied().unwrap_or(false));
    row.refill(candidate.values().iter().enumerate().map(|(c, v)| match v {
        Value::Str(_) if !kept(c) => Cow::Borrowed(&BLANK),
        v => Cow::Borrowed(v),
    }));
}

/// `f` over `items` until it says stop.
fn each<T>(
    items: impl IntoIterator<Item = T>,
    mut f: impl FnMut(T) -> Result<Flow>,
) -> Result<Flow> {
    for item in items {
        if f(item)? == Flow::Stop {
            return Ok(Flow::Stop);
        }
    }
    Ok(Flow::More)
}

impl Operator for ScanOp<'_> {
    fn execute(
        &self,
        ctx: &mut ExecCtx<'_>,
        stats: &mut OpStatsNode,
        sink: &mut Sink<'_>,
    ) -> Result<Flow> {
        let pass = self.pass(ctx, Source::Stored(None), false, &mut |ctx, _, row| {
            sink(ctx, row)
        })?;
        stats.rows_in += pass.examined;
        Ok(pass.flow)
    }

    /// The changed rows are the candidates: the residual is the whole
    /// predicate, so which access path would have fetched them does not
    /// matter. A change to another table leaves a scan alone, and storage
    /// is not touched either way.
    fn delta(&self, ctx: &mut ExecCtx<'_>, change: &TableChange) -> Result<Option<Delta>> {
        let mut delta = Delta::default();
        if change.table == self.table {
            for (rows, out) in [
                (&change.removed, &mut delta.removed),
                (&change.added, &mut delta.added),
            ] {
                self.pass(ctx, Source::Rows(rows), false, &mut |_, _, row| {
                    out.push(std::mem::take(row));
                    Ok(Flow::More)
                })?;
            }
        }
        Ok(Some(delta))
    }
}

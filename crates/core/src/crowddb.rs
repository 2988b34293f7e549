//! The [`CrowdDB`] facade.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowddb_common::codec::{self, Reader};
use crowddb_common::sync::{Mutex, RwLock};
use crowddb_common::{CancelReason, CrowdError, Result, Row, Value};
use crowddb_exec::{
    dml, execute_physical_analyzed, execute_physical_guarded, flush_op_stats, live_row_stats,
    lower_plan, maintenance, primary_key, render_analyzed, CompareCaches, ExecGuard, ExecResult,
    Maintained, OpStatsNode, TableChange, TaskNeed,
};
use crowddb_obs::{Event, MetricsSnapshot, Obs};
use crowddb_plan::{
    analyze_boundedness, annotate_cardinality, optimize, Binder, BoundednessReport, LogicalPlan,
    OptimizerConfig, PhysicalPlan, StandingPlan,
};
use crowddb_platform::{Platform, WorkerRelationshipManager};
use crowddb_sql::{parse_statement, Delete, Query, Statement, Update};
use crowddb_storage::{Database, LogRecord};
use crowddb_ui::manager::UiTemplateManager;
use crowddb_ui::render_task;
use crowddb_wal::{DurableStore, FsyncPolicy, GroupCommitStore};

use crate::config::CrowdConfig;
use crate::governor::{AdmissionController, CancelToken, GovernorPolicy, StatementGuard};
use crate::result::{CrowdSummary, QueryResult};
use crate::subscribe::{self, DeltaBatch, NetDelta, SubRegistry, SubState, SubscriptionHandle};
use crate::taskman;

/// A CrowdDB instance: storage + planner + crowd machinery.
///
/// ```
/// use crowddb_core::CrowdDB;
/// use crowddb_platform::{Answer, MockPlatform};
///
/// let db = CrowdDB::new();
/// let mut crowd = MockPlatform::unanimous(|kind| match kind {
///     crowddb_platform::TaskKind::Probe { asked, .. } => Answer::Form(
///         asked.iter().map(|(c, _)| (c.clone(), "42".to_string())).collect(),
///     ),
///     _ => Answer::Yes,
/// });
/// db.execute("CREATE TABLE talk (title STRING PRIMARY KEY, nb_attendees CROWD INTEGER)",
///            &mut crowd).unwrap();
/// db.execute("INSERT INTO talk VALUES ('CrowdDB', CNULL)", &mut crowd).unwrap();
/// let r = db.execute("SELECT nb_attendees FROM talk WHERE title = 'CrowdDB'",
///                    &mut crowd).unwrap();
/// assert_eq!(r.rows[0][0], crowddb_common::Value::Int(42));
/// ```
pub struct CrowdDB {
    db: Database,
    /// Comparison-verdict caches. Settlement writes under the write
    /// lock; a round reads its own copy (see `CrowdDB::local_step`).
    caches: RwLock<CompareCaches>,
    templates: Mutex<UiTemplateManager>,
    wrm: Mutex<WorkerRelationshipManager>,
    /// Dedup keys of needs the crowd already failed to satisfy — never
    /// re-posted within this session.
    exhausted: Mutex<std::collections::HashSet<String>>,
    config: CrowdConfig,
    optimizer: OptimizerConfig,
    /// Write-ahead log + snapshot store for sessions created with
    /// [`CrowdDB::open`], behind a group-commit wrapper so concurrent
    /// sessions share one log and piggyback fsyncs. `None` for purely
    /// in-memory sessions.
    durable: Option<GroupCommitStore>,
    /// Shared observability handle: metrics registry + event log. Every
    /// layer below (taskman, exec flushes, WAL, fault injector when
    /// shared) reports into it; snapshots surface via
    /// [`CrowdDB::metrics`].
    obs: Arc<Obs>,
    /// Monotone statement ids pairing `StatementBegin`/`StatementEnd`
    /// events.
    next_statement_id: AtomicU64,
    /// Session-wide cancellation token observed by every governed
    /// statement (see [`CrowdDB::cancel_handle`]).
    cancel: CancelToken,
    /// Admission control over concurrent statements, configured from
    /// `config.governor` at construction.
    admission: AdmissionController,
    /// Standing queries (`SUBSCRIBE`): id allocator + per-subscription
    /// state — and the one writer section (DESIGN.md §10). Every DDL and
    /// DML holds it from its first mutation through its log append and
    /// its standing-query fold, and a checkpoint, a registration and a
    /// settlement's re-evaluation hold it too. So writers apply and log
    /// in one order, no snapshot lands between a mutation and its
    /// record, and nothing changes storage between a subscription's last
    /// fold and the next DML, which makes that DML's delta exact.
    ///
    /// Lock order: this → `durable` → `db` / verdict cache / `wrm` /
    /// `templates`. Nothing takes it while holding one of those.
    subs: Mutex<SubRegistry>,
}

impl Default for CrowdDB {
    fn default() -> Self {
        Self::new()
    }
}

// Dropping a CrowdDB drops its `DurableStore` (if any), whose `Wal` fsyncs
// on drop — a session abandoned without [`CrowdDB::close`] still keeps
// every logged record, it just skips the final checkpoint.

impl CrowdDB {
    /// A CrowdDB with default configuration.
    pub fn new() -> CrowdDB {
        CrowdDB::with_config(CrowdConfig::default())
    }

    /// A CrowdDB with custom crowd configuration.
    pub fn with_config(config: CrowdConfig) -> CrowdDB {
        CrowdDB::with_obs(config, Obs::new())
    }

    /// A CrowdDB reporting into a caller-provided observability handle —
    /// share the same `Arc<Obs>` with a
    /// [`FaultyPlatform`](crowddb_platform::faults) (or a metrics
    /// scraper) to see engine and platform counters side by side.
    pub fn with_obs(config: CrowdConfig, obs: Arc<Obs>) -> CrowdDB {
        Self::assemble(Database::new(), CompareCaches::default(), config, obs, &[])
            .expect("an empty log replays")
    }

    /// The one constructor: a session around `db` and `caches` with `log`
    /// replayed on top, and a crowd UI template registered for every
    /// table the catalog then holds (replayed DDL included).
    fn assemble(
        db: Database,
        caches: CompareCaches,
        config: CrowdConfig,
        obs: Arc<Obs>,
        log: &[LogRecord],
    ) -> Result<CrowdDB> {
        let admission = AdmissionController::new(&config.governor);
        let session = CrowdDB {
            db,
            caches: RwLock::new(caches),
            templates: Mutex::new(UiTemplateManager::new()),
            wrm: Mutex::new(WorkerRelationshipManager::new()),
            exhausted: Mutex::new(std::collections::HashSet::new()),
            config,
            optimizer: OptimizerConfig::default(),
            durable: None,
            obs,
            next_statement_id: AtomicU64::new(0),
            cancel: CancelToken::new(),
            admission,
            subs: Mutex::new(SubRegistry::default()),
        };
        for rec in log {
            session.replay_record(rec).map_err(|e| {
                CrowdError::Io(format!(
                    "recovery: replaying {} record failed: {e}",
                    rec.kind()
                ))
            })?;
        }
        let schemas: Vec<_> = session.db.with_catalog(|c| c.schemas().cloned().collect());
        for schema in &schemas {
            session.templates.lock().register_schema(schema);
        }
        Ok(session)
    }

    /// Open (or create) a durable CrowdDB session rooted at directory
    /// `path` with default configuration.
    ///
    /// On first open the directory is created and an empty log laid down.
    /// On reopen the latest snapshot (if any) is restored and the log
    /// tail replayed, reproducing the exact pre-crash state — including
    /// every crowd answer already paid for.
    pub fn open(path: impl AsRef<Path>) -> Result<CrowdDB> {
        CrowdDB::open_with_config(path, CrowdConfig::default())
    }

    /// [`CrowdDB::open`] with a custom configuration. Fsync and
    /// checkpoint behaviour come from `config.durability`; page size and
    /// buffer-pool budget from `config.storage`.
    ///
    /// Durable sessions run on the file-backed paged engine: tuples live
    /// in a page file next to the log, checkpoints flush only dirty
    /// pages, and the committed snapshot payload is the small paged
    /// metadata blob rather than a full state dump. A directory whose
    /// last checkpoint is a full-state snapshot (the format from before
    /// the paged engine, which nothing writes any more) is refused with
    /// an `io` error.
    pub fn open_with_config(path: impl AsRef<Path>, config: CrowdConfig) -> Result<CrowdDB> {
        let fsync = config.durability.fsync;
        let (mut store, recovered) = DurableStore::open(path.as_ref(), fsync)?;
        let (db, caches) = match &recovered.snapshot {
            Some(bytes) => {
                let (storage_bytes, caches) = Self::split_snapshot(bytes)?;
                if !Database::is_paged_meta(storage_bytes) {
                    return Err(CrowdError::Io(format!(
                        "{}: the checkpoint's storage section is not paged metadata \
                         (`CDBM\\x01`); a full-state `CDBS\\x02` checkpoint, the format \
                         from before the paged engine, is no longer read",
                        path.as_ref().display()
                    )));
                }
                let db = Database::open_paged(path.as_ref(), config.storage, storage_bytes)?;
                (db, caches)
            }
            // No checkpoint yet: the log replays history from genesis
            // into a fresh page file.
            None => (
                Database::open_file(path.as_ref(), config.storage)?,
                CompareCaches::default(),
            ),
        };
        let mut crowddb = Self::assemble(db, caches, config, Obs::new(), &recovered.records)?;
        store.set_obs(crowddb.obs.clone());
        crowddb.durable = Some(GroupCommitStore::new(store));
        Ok(crowddb)
    }

    /// Snapshot of the session's metrics registry — statement spans,
    /// crowd resilience counters, per-operator execution stats, vote
    /// outcomes, WAL activity, and crowd spend (the paper's "cost"
    /// column), all queryable by name.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// The shared observability handle (to inspect the event log, or to
    /// hand to a fault injector so its counters land in the same place).
    pub fn obs(&self) -> &Arc<Obs> {
        &self.obs
    }

    /// The structured event log as JSON lines.
    pub fn events_jsonl(&self) -> String {
        self.obs.events().to_jsonl()
    }

    /// Apply one recovered log record to this session's in-memory state.
    fn replay_record(&self, rec: &LogRecord) -> Result<()> {
        // Storage-level records (DDL, physical write-backs) replay inside
        // the storage engine; the rest are session-level.
        if self.db.apply(rec)? {
            return Ok(());
        }
        match rec {
            LogRecord::Dml { sql } => {
                let stmt = parse_statement(sql)?;
                self.write_dml(&stmt, None, &ExecGuard::unlimited(), false)?;
                Ok(())
            }
            LogRecord::PutEqual {
                left,
                right,
                instruction,
                verdict,
            } => {
                self.caches
                    .write()
                    .put_equal(left, right, instruction, *verdict);
                Ok(())
            }
            LogRecord::PutOrder {
                left,
                right,
                instruction,
                left_preferred,
            } => {
                self.caches
                    .write()
                    .put_prefer(left, right, instruction, *left_preferred);
                Ok(())
            }
            other => Err(CrowdError::Io(format!(
                "wal: unhandled {} record during replay",
                other.kind()
            ))),
        }
    }

    /// Append one record to the write-ahead log (no-op for in-memory
    /// sessions). Called *after* the in-memory mutation succeeded, so an
    /// error here means "applied but possibly not durable".
    fn log_record(&self, rec: LogRecord) -> Result<()> {
        if let Some(store) = &self.durable {
            store.append(&rec)?;
        }
        Ok(())
    }

    /// Take a checkpoint now and truncate the log. No-op for in-memory
    /// sessions.
    ///
    /// This flushes only the pages dirtied since the last checkpoint:
    /// dirty pages are journaled, the small paged metadata blob is
    /// committed as the snapshot payload (the durable commit point), and
    /// the journal is then applied to the page file. A crash anywhere in
    /// that window recovers on reopen via the journal-epoch protocol.
    pub fn checkpoint(&self) -> Result<()> {
        let Some(store) = &self.durable else {
            return Ok(());
        };
        // Inside the writer section (the `subs` field): a snapshot must
        // not land between a DDL/DML mutation and its log record, or
        // recovery would apply the record on top of state that holds it.
        let _writers = self.subs.lock();
        // Hold the store lock across the state capture so no append can
        // slip between the snapshot and the truncation.
        let covered = store.with_store(|s| {
            let (prep, meta) = self.db.begin_checkpoint()?;
            s.checkpoint(&self.wrap_snapshot(&meta))?;
            // Metadata committed: applying the journaled pages to
            // the page file is now safe (and redone on crash).
            self.db.complete_checkpoint(&prep)?;
            self.obs.registry().counter_add(
                "crowddb_checkpoint_pages_written_total",
                prep.pages_written(),
            );
            Ok::<u64, CrowdError>(s.last_lsn())
        })?;
        // A checkpoint fsyncs the log before snapshotting, so everything
        // it covered is durable — later group commits for that prefix are
        // free. LSNs are monotone across the truncation.
        store.note_synced(covered);
        Ok(())
    }

    /// Checkpoint if the log has grown past the configured threshold.
    fn maybe_checkpoint(&self) -> Result<()> {
        let every = self.config.durability.checkpoint_every_records;
        if every == 0 {
            return Ok(());
        }
        let Some(store) = &self.durable else {
            return Ok(());
        };
        if store.with_store(|s| s.records_since_checkpoint()) < every {
            return Ok(());
        }
        self.checkpoint()
    }

    /// Close a durable session cleanly: final checkpoint (per
    /// `durability.checkpoint_on_close`) or at least an fsync of the log.
    /// In-memory sessions close trivially. Dropping a `CrowdDB` without
    /// calling `close` still fsyncs the log best-effort, but skips the
    /// final checkpoint, so the next open replays the tail.
    pub fn close(self) -> Result<()> {
        if self.durable.is_none() {
            return Ok(());
        }
        if self.config.durability.checkpoint_on_close {
            self.checkpoint()
        } else {
            self.durable
                .as_ref()
                .expect("checked above")
                .with_store(|s| s.sync())
        }
    }

    /// The underlying storage engine (benchmarks and tests seed data
    /// directly through it).
    pub fn storage(&self) -> &Database {
        &self.db
    }

    /// Crowd configuration.
    pub fn config(&self) -> &CrowdConfig {
        &self.config
    }

    /// Switch the answer-quality policy (majority voting vs. EM truth
    /// inference) for subsequent statements. The pump loop's platform
    /// interaction is policy-independent; only settle-time verdicts
    /// change, so flipping mid-session never perturbs determinism.
    pub fn set_quality_policy(&mut self, policy: crate::config::QualityPolicy) {
        self.config.quality = policy;
    }

    /// Set the posting/HIT batch size (`0` = one platform batch per
    /// wave, `≥2` additionally merges same-instruction compares into
    /// batched HITs).
    pub fn set_max_batch_size(&mut self, size: usize) {
        self.config.concurrency.max_batch_size = size;
    }

    /// Toggle hybrid CROWDORDER: machine-comparable sort pairs are
    /// ordered locally, only incomparable pairs go to the crowd.
    pub fn set_hybrid_order(&mut self, on: bool) {
        self.config.hybrid_order = on;
    }

    /// Run `f` against the Worker Relationship Manager.
    pub fn with_wrm<R>(&self, f: impl FnOnce(&mut WorkerRelationshipManager) -> R) -> R {
        f(&mut self.wrm.lock())
    }

    /// Run `f` against the UI Template Manager (the Form Editor hook).
    pub fn with_templates<R>(&self, f: impl FnOnce(&mut UiTemplateManager) -> R) -> R {
        f(&mut self.templates.lock())
    }

    /// Run `f` against the session comparison caches under their write
    /// lock (tests seed verdicts directly). `f` must not run a statement
    /// on this session: a round's copy waits for the lock.
    pub fn with_caches<R>(&self, f: impl FnOnce(&mut CompareCaches) -> R) -> R {
        f(&mut self.caches.write())
    }

    /// Execute any CrowdSQL statement, engaging `platform` as needed.
    /// Runs under the session's [`GovernorPolicy`]
    /// (`config.governor`); use [`CrowdDB::execute_with_policy`] for a
    /// per-statement override.
    pub fn execute(&self, sql: &str, platform: &mut dyn Platform) -> Result<QueryResult> {
        self.execute_with_policy(sql, platform, &self.config.governor)
    }

    /// Parse `sql` once and, for a query, bind, optimize and annotate it
    /// once: the [`Prepared`] statement every entry point runs, and whose
    /// [`Prepared::may_touch_crowd`] chooses its admission tier. A query
    /// that fails to plan still prepares; it fails with that error when
    /// run, inside its statement span.
    pub fn prepare<'a>(&self, sql: &'a str) -> Result<Prepared<'a>> {
        let statement = parse_statement(sql)?;
        let plan = match strip_explain(&statement) {
            Statement::Select(query) | Statement::Subscribe(query) => Some(self.plan_query(query)),
            _ => None,
        };
        Ok(Prepared {
            sql,
            statement,
            plan,
        })
    }

    /// Bind, optimize, and annotate one query block with its boundedness
    /// report.
    fn plan_query(&self, query: &Query) -> Result<(LogicalPlan, BoundednessReport)> {
        let bound = self.db.with_catalog(|c| Binder::new(c).bind_query(query))?;
        let stats = live_row_stats(&self.db);
        let plan = optimize(bound, &stats, &self.optimizer);
        let report = analyze_boundedness(&plan, &stats, &|t| primary_key(&self.db, t));
        Ok((plan, report))
    }

    /// A clonable handle that cancels this session's in-flight statement
    /// from any thread. The running statement observes it at its next
    /// executor checkpoint or round boundary and terminates with
    /// `Cancelled(user-requested)`; answers the crowd already produced
    /// stay memorized. The request is consumed when a statement
    /// terminates as cancelled (and is otherwise sticky, so cancelling
    /// between statements cancels the next one).
    pub fn cancel_handle(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// [`CrowdDB::execute`] under an explicit per-statement
    /// [`GovernorPolicy`]: deadline, row caps, and crowd budget come
    /// from `policy`, while the admission *limits* stay session-wide
    /// (only the admission wait behaviour is per-statement).
    ///
    /// Every statement on this path is panic-isolated: an operator panic
    /// is contained and surfaced as [`CrowdError::Internal`], leaving
    /// the session — and concurrent sessions sharing the process —
    /// fully usable.
    pub fn execute_with_policy(
        &self,
        sql: &str,
        platform: &mut dyn Platform,
        policy: &GovernorPolicy,
    ) -> Result<QueryResult> {
        let prepared = self.prepare(sql)?;
        self.run(&prepared, Some((platform, policy, &self.cancel)))
    }

    /// [`CrowdDB::execute_with_policy`] of an already [prepared](CrowdDB::prepare)
    /// statement under a caller-supplied [`CancelToken`] instead of the
    /// session-wide one.
    ///
    /// This is the multi-client entry point: a server holding one shared
    /// `Arc<CrowdDB>` prepares each statement once, admits it on the tier
    /// [`Prepared::may_touch_crowd`] names, and runs it here; every
    /// connection has its own token, so a wire-level cancel stops exactly
    /// that connection's in-flight statement and no one else's. The token
    /// is consumed (cleared) when a statement terminates as
    /// user-cancelled, exactly like the session-wide token.
    pub fn execute_with_session(
        &self,
        prepared: &Prepared<'_>,
        platform: &mut dyn Platform,
        policy: &GovernorPolicy,
        cancel: &CancelToken,
    ) -> Result<QueryResult> {
        self.run(prepared, Some((platform, policy, cancel)))
    }

    /// The one statement pipeline: admit on the tier the prepared plan
    /// names → build the guard → open the span → execute, containing any
    /// panic → close the span → checkpoint if due. Without `governed`
    /// ([`CrowdDB::execute_local`]) there is no admission, no platform and
    /// an unlimited guard.
    fn run(
        &self,
        prepared: &Prepared<'_>,
        governed: Option<(&mut dyn Platform, &GovernorPolicy, &CancelToken)>,
    ) -> Result<QueryResult> {
        let reg = self.obs.registry();
        let (platform, guard, permit, cancel) = match governed {
            None => (None, StatementGuard::unlimited(), None, None),
            Some((platform, policy, cancel)) => {
                let crowd = prepared.may_touch_crowd();
                let permit = match self.admission.acquire(
                    crowd,
                    policy.admission_timeout_virtual_secs,
                    &mut |dt| platform.advance(dt),
                ) {
                    Ok(p) => p,
                    Err(e) => {
                        reg.counter_inc("crowddb_governor_rejected_total");
                        self.obs.events().emit(Event::AdmissionRejected { crowd });
                        return Err(e);
                    }
                };
                reg.counter_inc("crowddb_governor_admitted_total");
                let guard = StatementGuard::new(policy, cancel, platform.now());
                (Some(platform), guard, Some(permit), Some(cancel))
            }
        };
        let id = self.begin_statement(prepared.sql);
        // The statement's one crowd ledger: every wave adds into it as it
        // settles, so it keeps what was paid however the statement ends.
        let mut ledger = CrowdSummary::default();
        // Panic isolation: a panicking operator (or a chaos hook) must
        // not take down the session. The unwind releases the admission
        // permit and every lock on the way out (`crowddb_common::sync`
        // locks recover from poisoning), so containment is safe.
        let r = match catch_unwind(AssertUnwindSafe(|| {
            self.execute_statement(prepared, platform, &guard, &mut ledger)
        })) {
            Ok(r) => r,
            Err(payload) => {
                reg.counter_inc("crowddb_governor_panics_contained_total");
                self.obs.events().emit(Event::PanicContained { id });
                Err(CrowdError::Internal(format!(
                    "statement panicked (contained): {}",
                    panic_message(payload.as_ref())
                )))
            }
        };
        drop(permit);
        if let Err(CrowdError::Cancelled(reason)) = &r {
            reg.counter_inc("crowddb_governor_cancelled_total");
            if matches!(reason, CancelReason::DeadlineExceeded) {
                reg.counter_inc("crowddb_governor_deadline_exceeded_total");
            }
            self.obs.events().emit(Event::StatementCancelled {
                id,
                reason: reason.tag(),
            });
            // The cancel request is consumed by the statement it stopped.
            if let (CancelReason::UserRequested, Some(cancel)) = (reason, cancel) {
                cancel.clear();
            }
        }
        self.finish_statement(id, &r, &ledger);
        let r = r?;
        self.maybe_checkpoint()?;
        Ok(QueryResult { crowd: ledger, ..r })
    }

    /// Emit the `StatementBegin` span event and hand back its id.
    fn begin_statement(&self, sql: &str) -> u64 {
        let id = self.next_statement_id.fetch_add(1, Ordering::Relaxed) + 1;
        self.obs.events().emit(Event::StatementBegin {
            id,
            sql: sql.trim().to_string(),
        });
        id
    }

    /// Close a statement span, whatever its outcome: `StatementEnd`
    /// event, per-statement metrics and the slow-statement log, all read
    /// from the statement's ledger `c`.
    fn finish_statement(&self, id: u64, outcome: &Result<QueryResult>, c: &CrowdSummary) {
        let reg = self.obs.registry();
        reg.counter_inc("crowddb_statements_total");
        let complete = match outcome {
            Ok(r) if !r.complete => {
                reg.counter_inc("crowddb_statements_incomplete_total");
                false
            }
            Ok(_) => true,
            Err(_) => {
                reg.counter_inc("crowddb_statement_errors_total");
                false
            }
        };
        reg.counter_add("crowddb_statement_rounds_total", c.rounds as u64);
        reg.gauge_set("crowddb_statement_cents_spent_last", c.cents_spent as f64);
        reg.observe("crowddb_statement_cents_spent", c.cents_spent as f64);
        reg.observe("crowddb_statement_rounds", c.rounds as f64);
        reg.observe("crowddb_statement_virtual_secs", c.virtual_secs);
        self.obs.events().emit(Event::StatementEnd {
            id,
            ok: outcome.is_ok(),
            complete,
            rounds: c.rounds as u64,
            tasks_posted: c.tasks_posted,
            answers: c.answers_collected,
            cents: c.cents_spent,
            virtual_secs: c.virtual_secs,
        });
        if let Some(threshold) = self.config.slow_statement_virtual_secs {
            if c.virtual_secs >= threshold {
                reg.counter_inc("crowddb_slow_statements_total");
                self.obs.events().emit(Event::SlowStatement {
                    id,
                    virtual_secs: c.virtual_secs,
                    threshold_secs: threshold,
                });
            }
        }
    }

    /// Execute a statement using local data only — the statement driver
    /// with no platform attached, under an unlimited guard and outside
    /// admission control. Statements that would need the crowd return a
    /// partial result with a warning; nothing is posted and nothing is
    /// marked exhausted.
    pub fn execute_local(&self, sql: &str) -> Result<QueryResult> {
        self.run(&self.prepare(sql)?, None)
    }

    /// EXPLAIN output for a statement: optimized plan, lowered physical
    /// plan, cardinality annotation, and the boundedness report. For an
    /// `UPDATE`/`DELETE`, the scan that will select its rows.
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.explain_statement(&self.prepare(sql)?)
    }

    /// [`CrowdDB::explain`] of a prepared statement. `EXPLAIN` wrappers
    /// (however deeply nested) are stripped, and the prepared plan is
    /// the one explained.
    fn explain_statement(&self, prepared: &Prepared<'_>) -> Result<String> {
        let inner = strip_explain(&prepared.statement);
        let standing = match inner {
            Statement::Select(_) => false,
            Statement::Subscribe(_) => true,
            Statement::Update(Update { table, filter, .. })
            | Statement::Delete(Delete { table, filter }) => {
                let scan = dml::target_plan(&self.db, table, filter.as_ref())?;
                return Ok(format!("== Physical plan ==\n{}", scan.explain()));
            }
            _ => return Ok(format!("{inner}")),
        };
        let (plan, report) = prepared.plan()?;
        let physical = lower_plan(&self.db, plan);
        let mut out = String::new();
        if standing {
            let route = maintenance(plan, &physical);
            out.push_str(&StandingPlan::new(plan.clone()).explain(route));
            out.push('\n');
        }
        out.push_str("== Optimized plan ==\n");
        out.push_str(&plan.explain());
        out.push_str("\n== Physical plan ==\n");
        out.push_str(&physical.explain());
        out.push_str("\n== Cardinality ==\n");
        out.push_str(&annotate_cardinality(
            plan,
            &live_row_stats(&self.db),
            &|t| primary_key(&self.db, t),
        ));
        out.push_str("\n== Boundedness ==\n");
        out.push_str(if report.bounded {
            "plan is BOUNDED\n"
        } else {
            "plan is UNBOUNDED\n"
        });
        for n in &report.notes {
            out.push_str("  - ");
            out.push_str(n);
            out.push('\n');
        }
        if let Some(calls) = report.estimated_crowd_calls {
            out.push_str(&format!("  estimated crowd task batches: ≤{calls}\n"));
        }
        Ok(out)
    }

    /// `EXPLAIN ANALYZE` as text: [`CrowdDB::execute`] of `EXPLAIN
    /// ANALYZE <sql>` — the statement's execution, rendered as the
    /// physical plan annotated with measured per-operator statistics
    /// (rows in/out, crowd needs by kind, compare-cache hits/misses, wall
    /// time) and per-round crowd accounting.
    ///
    /// Only `SELECT` statements are analyzed; for anything else the
    /// output falls back to plain [`CrowdDB::explain`].
    pub fn explain_analyze(&self, sql: &str, platform: &mut dyn Platform) -> Result<String> {
        let r = self.execute(&format!("EXPLAIN ANALYZE {sql}"), platform)?;
        Ok(r.rows.iter().map(|row| format!("{}\n", row[0])).collect())
    }

    /// Render the Mechanical-Turk-style page for the first task a query
    /// would post (demo support: "we will show how CrowdDB tasks are
    /// compiled onto the crowdsourcing platforms").
    pub fn preview_first_task(&self, sql: &str) -> Result<Option<String>> {
        let prepared = self.prepare(sql)?;
        let Statement::Select(_) = prepared.statement else {
            return Ok(None);
        };
        let (plan, _) = prepared.plan()?;
        let exec = self.evaluate_once(plan)?;
        let templates = self.templates.lock();
        Ok(exec.needs.first().map(|need| {
            let spec = taskman::need_to_spec(need, &self.config, &templates);
            render_task(&spec.kind)
        }))
    }

    fn execute_statement(
        &self,
        prepared: &Prepared<'_>,
        crowd: Option<&mut dyn Platform>,
        guard: &StatementGuard,
        ledger: &mut CrowdSummary,
    ) -> Result<QueryResult> {
        let (sql, stmt) = (prepared.sql, &prepared.statement);
        // The log keeps the text the statement was parsed from: replay
        // parses exactly what was parsed live.
        let ddl_record = || LogRecord::Ddl { sql: sql.into() };
        match stmt {
            Statement::Explain { statement, analyze } => {
                // EXPLAIN ANALYZE is the statement's execution, rendered:
                // the same driver call, its summary, and the plan text
                // (warnings included) as the rows.
                let mut r = QueryResult::ddl();
                let text = match strip_explain(statement) {
                    Statement::Select(_) if *analyze => {
                        let mut analysis = Analysis::default();
                        r = self.execute_select(
                            prepared.plan()?,
                            crowd,
                            guard,
                            ledger,
                            Some(&mut analysis),
                        )?;
                        analysis.render(&r, ledger)
                    }
                    _ => self.explain_statement(prepared)?,
                };
                Ok(QueryResult {
                    columns: vec!["plan".into()],
                    rows: text.lines().map(|l| Row::new(vec![l.into()])).collect(),
                    warnings: Vec::new(),
                    ..r
                })
            }
            Statement::CreateTable(ct) => {
                let schema = self.db.with_catalog(|c| c.schema_from_ast(ct))?;
                if ct.if_not_exists && self.db.schema(&schema.name).is_ok() {
                    return Ok(QueryResult::ddl());
                }
                self.logged(ddl_record(), |_| {
                    self.templates.lock().register_schema(&schema);
                    self.db.create_table(schema)?;
                    Ok(((), None))
                })?;
                Ok(QueryResult::ddl())
            }
            Statement::CreateIndex(ci) => {
                self.logged(ddl_record(), |_| {
                    self.db
                        .create_index(&ci.name, &ci.table, &ci.columns, ci.unique)?;
                    // Standing queries keep the plan they last lowered;
                    // the table's watchers lower again, with the index.
                    Ok(((), Some(Trigger::Ddl(&ci.table))))
                })?;
                Ok(QueryResult::ddl())
            }
            Statement::DropTable { name, if_exists } => {
                self.logged(ddl_record(), |_| {
                    self.db.drop_table(name, *if_exists)?;
                    self.templates.lock().drop_table(name);
                    // Standing queries watching the table fail.
                    Ok(((), Some(Trigger::Ddl(name))))
                })?;
                Ok(QueryResult::ddl())
            }
            Statement::Insert(ins) => {
                let (affected, complete, _) = self.apply_dml(sql, stmt, &ins.table, None, guard)?;
                Ok(QueryResult {
                    affected,
                    complete,
                    ..Default::default()
                })
            }
            Statement::Update(upd) => self.execute_dml(sql, stmt, &upd.table, crowd, guard, ledger),
            Statement::Delete(del) => self.execute_dml(sql, stmt, &del.table, crowd, guard, ledger),
            Statement::Select(_) => {
                self.execute_select(prepared.plan()?, crowd, guard, ledger, None)
            }
            Statement::Subscribe(query) => {
                let (id, _columns) = self.register_subscription(query, prepared.plan()?)?;
                Ok(QueryResult {
                    columns: vec!["subscription_id".into()],
                    rows: vec![Row::new(vec![Value::Int(id as i64)])],
                    complete: true,
                    ..Default::default()
                })
            }
            Statement::Unsubscribe { id } => {
                self.unsubscribe(*id)?;
                Ok(QueryResult::ddl())
            }
        }
    }

    /// The writer section (the `subs` field): apply one DDL or DML
    /// statement, append its log record and fold what it changed into the
    /// standing queries its trigger concerns, all under the registry lock.
    /// `mutate` is told whether any subscription is open (whether a DML
    /// should collect its change set). A failed mutation changed nothing;
    /// a failed append still folds, since the mutation stands.
    fn logged<'t, T>(
        &self,
        record: LogRecord,
        mutate: impl FnOnce(bool) -> Result<(T, Option<Trigger<'t>>)>,
    ) -> Result<T> {
        let mut subs = self.subs.lock();
        let (out, trigger) = mutate(!subs.subs.is_empty())?;
        let appended = self.log_record(record);
        if let Some(trigger) = trigger {
            self.notify_subscriptions(&mut subs, &trigger);
        }
        appended.map(|()| out)
    }

    /// The statement driver: the one round loop behind `SELECT`, `EXPLAIN
    /// ANALYZE`, `UPDATE`/`DELETE` and [`CrowdDB::execute_local`] (DESIGN.md
    /// §3, "Statement driver"). Each round checks the governor, runs `step`
    /// as a [`CrowdDB::local_step`] and, if that left needs, has the Task
    /// Manager fulfill them and goes again. `crowd: None` is what "local"
    /// means: one round, nothing posted, nothing marked exhausted. Rounds
    /// and waves land in `ledger` as they happen.
    fn drive<T>(
        &self,
        mut crowd: Option<&mut (dyn Platform + '_)>,
        guard: &StatementGuard,
        ledger: &mut CrowdSummary,
        mut warnings: Vec<String>,
        mut step: impl FnMut(&CompareCaches, ExecGuard) -> Result<(T, Vec<TaskNeed>)>,
    ) -> Result<Driven<T>> {
        let budget = guard.max_crowd_cents;
        let mut output = None;
        let mut stop = StopReason::RoundCap;
        for round in 1..=self.config.max_rounds {
            // Governor checkpoint: terminate at the round boundary if the
            // statement was cancelled or overran its virtual deadline.
            // Everything earlier rounds paid for is already memorized.
            guard.check(crowd.as_deref().map_or(0.0, |p| p.now()))?;
            ledger.rounds = round;
            let (out, mut needs) = self.local_step(&guard.exec, &mut step)?;
            output = Some(out);
            if needs.is_empty() {
                stop = StopReason::Complete;
                break;
            }
            let Some(platform) = crowd.as_deref_mut() else {
                warnings.push(format!(
                    "{} crowd task(s) would be needed to complete this result",
                    needs.len()
                ));
                stop = StopReason::Local;
                break;
            };
            let exhausted = self.exhausted.lock();
            needs.retain(|n| !exhausted.contains(&n.dedup_key()));
            drop(exhausted);
            if needs.is_empty() {
                warnings.push(
                    "result is partial: remaining crowd tasks were previously exhausted".into(),
                );
                stop = StopReason::Exhausted;
                break;
            }
            if let Some(budget) = budget {
                // Budget-aware wave sizing: post the longest prefix of the
                // recorded needs the remaining budget pays for, each priced
                // as the HIT it becomes (escalations may still nudge past
                // the line; the next round's check catches that).
                let spent = ledger.cents_spent;
                let mut left = budget.saturating_sub(spent);
                let affordable = needs
                    .iter()
                    .map(|n| {
                        self.config.reward_cents as u64
                            * taskman::assignments(n, &self.config) as u64
                    })
                    .take_while(|&price| match left.checked_sub(price) {
                        Some(rest) => {
                            left = rest;
                            true
                        }
                        None => false,
                    })
                    .count();
                if affordable == 0 {
                    warnings.push(format!(
                        "crowd budget of {budget}¢ exhausted ({spent}¢ spent); \
                         {} task(s) abandoned, result is partial",
                        needs.len()
                    ));
                    stop = StopReason::Budget;
                    break;
                }
                if affordable < needs.len() {
                    warnings.push(format!(
                        "budget allows only {affordable} of {} crowd task(s) this wave",
                        needs.len()
                    ));
                    needs.truncate(affordable);
                }
            }
            self.fulfill(&needs, platform, &mut warnings, round, guard, ledger)?;
        }
        if stop == StopReason::RoundCap {
            warnings.push(format!(
                "round budget ({}) exhausted; result may be partial",
                self.config.max_rounds
            ));
        }
        Ok(Driven {
            output,
            warnings,
            stop,
        })
    }

    /// One local evaluation against a point-in-time copy of the verdict
    /// caches, under `guard` with the session's `hybrid_order`: the
    /// driver's round step, and what task previews, standing-query
    /// evaluation, DML application and log replay run exactly once. The
    /// only place the engine copies the caches for evaluation (the read
    /// guard is dropped before `step` runs), and the only place it reads
    /// `hybrid_order`.
    fn local_step<T>(
        &self,
        guard: &ExecGuard,
        step: impl FnOnce(&CompareCaches, ExecGuard) -> T,
    ) -> T {
        let guard = ExecGuard {
            hybrid_order: self.config.hybrid_order,
            ..guard.clone()
        };
        let caches = self.caches.read().clone();
        step(&caches, guard)
    }

    /// Lower `plan` against the live catalog and execute it for one
    /// round. Lowering is repeated per round on purpose — cardinality
    /// estimates shift as crowd answers are written back — and this is
    /// the only place a plan is lowered for execution.
    fn run_plan(
        &self,
        plan: &LogicalPlan,
        caches: &CompareCaches,
        guard: ExecGuard,
        analyzed: bool,
    ) -> Result<(PhysicalPlan, ExecResult, OpStatsNode)> {
        let physical = lower_plan(&self.db, plan);
        // Only a tree that will be rendered pays for per-operator self
        // time (a clock read around every row handed on).
        let run = match analyzed {
            true => execute_physical_analyzed,
            false => execute_physical_guarded,
        };
        let (exec, stats) = run(&self.db, caches, &physical, guard)?;
        Ok((physical, exec, stats))
    }

    /// One ungoverned evaluation of `plan` on current knowledge: what a
    /// task preview inspects. Deliberately flushes no operator stats.
    fn evaluate_once(&self, plan: &LogicalPlan) -> Result<ExecResult> {
        let (_, exec, _) = self.local_step(&ExecGuard::unlimited(), |caches, guard| {
            self.run_plan(plan, caches, guard, false)
        })?;
        Ok(exec)
    }

    /// One full, ungoverned evaluation of a standing query on current
    /// knowledge (unsettled crowd state simply shows as CNULLs / missing
    /// tuples until a later trigger): the rows, and what the delta route
    /// continues from if the plan is routed there. Flushes no operator
    /// stats either.
    fn evaluate_standing(&self, plan: &LogicalPlan) -> Result<(Vec<Row>, Option<Maintained>)> {
        let (exec, maintained) = self.local_step(&ExecGuard::unlimited(), |caches, guard| {
            Maintained::evaluate(&self.db, caches, plan, guard)
        })?;
        Ok((exec.rows, maintained))
    }

    /// The rows sink of the driver — and, given an `analysis` to fill,
    /// the analyzed-tree sink: `EXPLAIN ANALYZE` runs this very function
    /// and keeps each round's operator stats for rendering.
    fn execute_select(
        &self,
        (plan, report): &(LogicalPlan, BoundednessReport),
        crowd: Option<&mut dyn Platform>,
        guard: &StatementGuard,
        ledger: &mut CrowdSummary,
        mut analysis: Option<&mut Analysis>,
    ) -> Result<QueryResult> {
        // `EXPLAIN ANALYZE` runs an unbounded query, warning about it.
        if analysis.is_none() {
            refuse_unbounded(report)?;
        }
        let warnings = if report.bounded {
            Vec::new()
        } else {
            vec![format!(
                "unbounded crowd query: {}",
                unbounded_detail(report)
            )]
        };
        let driven = self.drive(crowd, guard, ledger, warnings, |caches, exec_guard| {
            let (physical, exec, stats) =
                self.run_plan(plan, caches, exec_guard, analysis.is_some())?;
            flush_op_stats(self.obs.registry(), &stats);
            if let Some(analysis) = analysis.as_deref_mut() {
                analysis.absorb(physical, stats, &exec);
            }
            Ok((exec.rows, exec.needs))
        })?;
        Ok(QueryResult {
            columns: output_columns(plan),
            rows: driven.output.unwrap_or_default(),
            warnings: driven.warnings,
            complete: driven.stop == StopReason::Complete,
            ..Default::default()
        })
    }

    /// The DML sink of the driver: every round *selects* — what the
    /// statement would write on current knowledge, and the crowd work its
    /// predicates still need — and the last round's selection is applied,
    /// once: `SET n = n + 1` must not be re-applied per round.
    fn execute_dml(
        &self,
        sql: &str,
        stmt: &Statement,
        table: &str,
        mut crowd: Option<&mut dyn Platform>,
        guard: &StatementGuard,
        ledger: &mut CrowdSummary,
    ) -> Result<QueryResult> {
        let select = |caches: &CompareCaches, exec: ExecGuard| {
            let selection = dml::select(&self.db, caches, stmt, exec)?;
            let needs = selection.needs.clone();
            Ok((selection, needs))
        };
        let mut driven = self.drive(crowd.as_deref_mut(), guard, ledger, Vec::new(), select)?;
        // A cancelled or deadline-exceeded DML errors *before* the
        // mutation is applied (paid crowd verdicts stay cached).
        guard.check(crowd.map_or(0.0, |p| p.now()))?;
        // Only at the round cap did a wave settle after the last selection.
        let current = driven.stop != StopReason::RoundCap;
        let selected = driven.output.filter(|_| current);
        let (affected, complete, undecided) = self.apply_dml(sql, stmt, table, selected, guard)?;
        if driven.stop != StopReason::Complete {
            driven
                .warnings
                .push("DML applied with some crowd predicates undecided".into());
        }
        if undecided > 0 {
            driven.warnings.push(format!(
                "{undecided} row(s) left alone: the WHERE reads a CNULL, \
                 which a DML statement does not ask the crowd for"
            ));
        }
        Ok(QueryResult {
            affected,
            warnings: driven.warnings,
            complete: driven.stop == StopReason::Complete && complete,
            ..Default::default()
        })
    }

    /// Apply a DML statement once, log it as `sql`, the text it was parsed
    /// from, and hand the standing queries the rows it changed, in the
    /// writer section. Returns what `write_dml` does, with the rows
    /// affected.
    fn apply_dml(
        &self,
        sql: &str,
        stmt: &Statement,
        table: &str,
        selected: Option<dml::Selection>,
        guard: &StatementGuard,
    ) -> Result<(usize, bool, u64)> {
        let record = LogRecord::Dml { sql: sql.into() };
        self.logged(record, |report| {
            let (applied, complete, undecided) =
                self.write_dml(stmt, selected, &guard.exec, report)?;
            let trigger = Trigger::Dml {
                table,
                change: applied.change,
            };
            Ok(((applied.affected, complete, undecided), Some(trigger)))
        })
    }

    /// Write `selected` — or, without one, and again whenever `apply`
    /// finds a target no longer stored as selected (a crowd write-back or
    /// another session's DML got there first), a fresh selection. Also
    /// returns whether the selection written was the whole statement —
    /// no crowd work pending and no row left undecided on a `CNULL` — and
    /// how many rows were ([`dml::Selection::undecided`]).
    fn write_dml(
        &self,
        stmt: &Statement,
        mut selected: Option<dml::Selection>,
        guard: &ExecGuard,
        report: bool,
    ) -> Result<(dml::Applied, bool, u64)> {
        loop {
            let selection = match selected.take() {
                Some(selection) => selection,
                None => self.local_step(guard, |c, g| dml::select(&self.db, c, stmt, g))?,
            };
            let undecided = selection.undecided;
            let complete = selection.needs.is_empty() && undecided == 0;
            if let Some(applied) = dml::apply(&self.db, selection, report)? {
                return Ok((applied, complete, undecided));
            }
        }
    }

    /// Hand one wave of needs to the Task Manager and settle what comes
    /// back: the statement's ledger and the registry counters (before
    /// anything that can fail), round events, the write-ahead log, the
    /// session's exhausted set, and the standing queries.
    fn fulfill(
        &self,
        needs: &[TaskNeed],
        platform: &mut dyn Platform,
        warnings: &mut Vec<String>,
        round: usize,
        guard: &StatementGuard,
        ledger: &mut CrowdSummary,
    ) -> Result<()> {
        self.obs.events().emit(Event::RoundBegin {
            round: round as u64,
            needs: needs.len() as u64,
        });
        let (before, start) = (platform.stats(), platform.now());
        let fulfilled = {
            let mut wrm = self.wrm.lock();
            let templates = self.templates.lock();
            taskman::fulfill_needs(
                &self.db,
                &self.caches,
                &mut wrm,
                &templates,
                platform,
                &self.config,
                needs,
                &self.obs,
                guard,
            )
        };
        // What the platform counted over the wave, and what only the
        // Task Manager saw: paid for, so booked even if the wave failed.
        let after = platform.stats();
        let wave = CrowdSummary {
            tasks_posted: after.hits_posted - before.hits_posted,
            answers_collected: after.assignments_completed - before.assignments_completed,
            cents_spent: after.cents_spent - before.cents_spent,
            virtual_secs: platform.now() - start,
            ..fulfilled.as_ref().map(|f| f.crowd).unwrap_or_default()
        };
        self.book_wave(ledger, wave);
        let mut fulfill = fulfilled?;
        warnings.append(&mut fulfill.warnings);
        let reg = self.obs.registry();
        reg.counter_add(
            "crowddb_crowd_exhausted_needs_total",
            fulfill.exhausted.len() as u64,
        );
        if wave.degraded {
            reg.counter_inc("crowddb_crowd_degraded_waves_total");
        }
        self.obs.events().emit(Event::RoundEnd {
            round: round as u64,
            posted: wave.tasks_posted,
            answers: wave.answers_collected,
            retries: wave.retries,
            reposts: wave.reposts,
            degraded: wave.degraded,
        });
        // Persist every answer the crowd just produced before the round
        // ends: a crash from here on loses at most in-flight work, never
        // a paid answer. The sync is unconditional for Always/Batch
        // policies; `Never` opts out of round-boundary durability too.
        // Round records are idempotent (write-backs and cache verdicts
        // replay harmlessly over a covering snapshot), so they need no
        // writer section; the sync goes through group commit so concurrent
        // sessions finishing rounds together share one fsync.
        if let Some(store) = &self.durable {
            for rec in fulfill.log.drain(..) {
                store.append(&rec)?;
            }
            if !matches!(self.config.durability.fsync, FsyncPolicy::Never) {
                store.sync()?;
            }
        }
        {
            let mut exhausted = self.exhausted.lock();
            for k in fulfill.exhausted.drain(..) {
                exhausted.insert(k);
            }
        }
        // The round settled: every write-back and cache verdict is in
        // place, so re-evaluate the crowd-related standing queries (no
        // other lock is held here: see the `subs` field's lock order).
        self.notify_subscriptions(&mut self.subs.lock(), &Trigger::Settlement);
        Ok(())
    }

    /// Add one wave into the statement's ledger and the same numbers into
    /// the `crowddb_crowd_*` counters, so the two reconcile by
    /// construction.
    fn book_wave(&self, ledger: &mut CrowdSummary, wave: CrowdSummary) {
        *ledger += wave;
        let reg = self.obs.registry();
        for (name, n) in [
            ("crowddb_crowd_tasks_posted_total", wave.tasks_posted),
            ("crowddb_crowd_answers_total", wave.answers_collected),
            ("crowddb_crowd_cents_spent_total", wave.cents_spent),
            ("crowddb_crowd_retries_total", wave.retries),
            ("crowddb_crowd_reposts_total", wave.reposts),
            (
                "crowddb_crowd_duplicates_dropped_total",
                wave.duplicates_dropped,
            ),
            ("crowddb_crowd_post_failures_total", wave.post_failures),
            ("crowddb_crowd_extend_failures_total", wave.extend_failures),
            ("crowddb_crowd_gave_up_total", wave.gave_up),
        ] {
            reg.counter_add(name, n);
        }
    }

    // ── Continuous queries (`SUBSCRIBE`) ────────────────────────────

    /// Register a standing query and return a polling handle. Accepts
    /// `SUBSCRIBE SELECT ...` or a bare `SELECT ...`.
    ///
    /// The handle's first poll yields the initial snapshot batch
    /// (revision 1); later polls drain the delta batches produced as
    /// crowd rounds settle and DML commits. Subscriptions are
    /// session-level state: they are not persisted, so after a crash a
    /// client re-registers and receives a fresh snapshot.
    pub fn subscribe(&self, sql: &str) -> Result<SubscriptionHandle<'_>> {
        let (id, columns) = self.subscribe_id(sql)?;
        Ok(SubscriptionHandle::new(self, id, columns))
    }

    /// [`CrowdDB::subscribe`] returning the raw subscription id and
    /// output columns instead of a borrowing handle (what a server
    /// session holding `Arc<CrowdDB>` needs).
    pub fn subscribe_id(&self, sql: &str) -> Result<(u64, Vec<String>)> {
        let prepared = self.prepare(sql)?;
        match &prepared.statement {
            Statement::Subscribe(query) | Statement::Select(query) => {
                self.register_subscription(query, prepared.plan()?)
            }
            other => Err(CrowdError::Plan(format!(
                "SUBSCRIBE requires a SELECT query, got: {other}"
            ))),
        }
    }

    /// Drop a standing query. Errors if the id is unknown.
    pub fn unsubscribe(&self, id: u64) -> Result<()> {
        let mut subs = self.subs.lock();
        if subs.subs.remove(&id).is_none() {
            return Err(CrowdError::Exec(format!("no such subscription: {id}")));
        }
        self.obs
            .registry()
            .gauge_set("crowddb_subscriptions_active", subs.subs.len() as f64);
        self.obs.events().emit(Event::SubscriptionClosed { id });
        Ok(())
    }

    /// Currently registered subscriptions as `(id, sql)` pairs.
    pub fn subscriptions(&self) -> Vec<(u64, String)> {
        self.subs
            .lock()
            .subs
            .iter()
            .map(|(id, s)| (*id, s.sql.clone()))
            .collect()
    }

    /// Re-arm a consumed lag notification: the next
    /// [`CrowdDB::poll_subscription`] returns the typed lag error
    /// again, and the one after that the resync snapshot.
    ///
    /// [`CrowdDB::poll_subscription`] consumes the lag flag when it
    /// reports it. A transport that batches several polls into one
    /// response frame can hit lag *mid-batch* — after it has already
    /// drained deliverable batches — and its error frame cannot also
    /// carry those batches. It delivers the batches and calls this, so
    /// the lag error stays pending instead of being silently lost.
    /// Unknown ids are a no-op (the subscription may have been dropped
    /// concurrently; its polls already error).
    pub fn rearm_subscription_lag(&self, id: u64) {
        let mut subs = self.subs.lock();
        if let Some(sub) = subs.subs.get_mut(&id) {
            sub.lagged = true;
            sub.resync_pending = false;
        }
    }

    /// Next queued delta batch for subscription `id`, if any.
    ///
    /// After the consumer fell behind its bounded queue, one call
    /// returns [`CrowdError::SubscriptionLagged`] and the next delivers
    /// a resync snapshot batch carrying the full current result.
    pub fn poll_subscription(&self, id: u64) -> Result<Option<DeltaBatch>> {
        let mut subs = self.subs.lock();
        let sub = subs
            .subs
            .get_mut(&id)
            .ok_or_else(|| CrowdError::Exec(format!("no such subscription: {id}")))?;
        if let Some(err) = &sub.failed {
            return Err(err.clone());
        }
        if sub.lagged {
            sub.lagged = false;
            sub.resync_pending = true;
            return Err(CrowdError::SubscriptionLagged(format!(
                "subscription {id} fell behind its delta queue; \
                 the next poll returns a resync snapshot"
            )));
        }
        if sub.resync_pending {
            sub.resync_pending = false;
            sub.revision += 1;
            return Ok(Some(DeltaBatch {
                revision: sub.revision,
                snapshot: true,
                added: subscribe::rowset_to_rows(&sub.last)?,
                removed: vec![],
            }));
        }
        Ok(sub.queue.pop_front())
    }

    /// Register `query`'s prepared plan as a standing query and evaluate
    /// it; queue its snapshot batch as revision 1.
    fn register_subscription(
        &self,
        query: &Query,
        (plan, report): &(LogicalPlan, BoundednessReport),
    ) -> Result<(u64, Vec<String>)> {
        refuse_unbounded(report)?;
        let columns = output_columns(plan);
        let standing = StandingPlan::new(plan.clone());
        let sql = query.to_string();
        // Evaluation happens in the writer section, so the result is
        // exact as of the last DML and the next one's delta applies to it.
        let mut subs = self.subs.lock();
        if subs.subs.len() >= self.config.subscriptions.max_subscriptions {
            return Err(CrowdError::Overloaded(format!(
                "subscription limit ({}) reached",
                self.config.subscriptions.max_subscriptions
            )));
        }
        let (rows, maintained) = self.evaluate_standing(&standing.logical)?;
        // One copy at a time: the snapshot batch is decoded from `last`.
        let last = subscribe::rowset_from_rows(&rows);
        drop(rows);
        subs.next_id += 1;
        let id = subs.next_id;
        let snapshot = subscribe::rowset_to_rows(&last)?;
        let mut state = SubState {
            sql: sql.clone(),
            plan: standing,
            last,
            maintained,
            revision: 0,
            queue: std::collections::VecDeque::new(),
            lagged: false,
            resync_pending: false,
            failed: None,
        };
        self.obs
            .events()
            .emit(Event::SubscriptionOpened { id, sql });
        let max_queue = self.config.subscriptions.max_queue_batches.max(1);
        state.publish(id, &self.obs, max_queue, true, (snapshot, vec![]));
        subs.subs.insert(id, state);
        let reg = self.obs.registry();
        reg.gauge_set("crowddb_subscriptions_active", subs.subs.len() as f64);
        Ok((id, columns))
    }

    /// Bring the standing queries `trigger` concerns up to date, each by
    /// its delta rules where they apply and by re-evaluation where they
    /// do not; either way at most one delta batch per subscription, and
    /// the same one. `subs` is the held registry: the caller is in the
    /// writer section.
    fn notify_subscriptions(&self, subs: &mut SubRegistry, trigger: &Trigger<'_>) {
        // Fast path: with no subscriptions the machinery must be
        // invisible — no metrics, no events, no evaluation — so
        // non-subscribing workloads stay byte-identical to older builds.
        if subs.subs.is_empty() {
            return;
        }
        let reg = self.obs.registry();
        let max_queue = self.config.subscriptions.max_queue_batches.max(1);
        for (id, sub) in subs.subs.iter_mut() {
            if sub.failed.is_some() {
                continue;
            }
            let concerned = match trigger {
                Trigger::Settlement => sub.plan.crowd_related,
                Trigger::Ddl(table) => sub.plan.watches(table),
                Trigger::Dml { table, change } => {
                    sub.plan.watches(table) && !change.as_ref().is_some_and(TableChange::is_empty)
                }
            };
            if !concerned {
                reg.counter_inc("crowddb_subscription_evals_skipped_total");
                continue;
            }
            reg.counter_inc("crowddb_subscription_evals_total");
            let delta = match self.delta_of(sub, trigger) {
                Some(delta) => {
                    reg.counter_inc("crowddb_subscription_evals_incremental_total");
                    Ok(delta)
                }
                None => self.reevaluate(sub),
            };
            // One tail for both routes from here on: the netted change
            // folds into `last` and comes out as the batch's lists.
            let (added, removed) = match delta.and_then(|net| net.apply(&mut sub.last)) {
                Ok(delta) => delta,
                Err(e) => {
                    // E.g. a watched table was dropped. The error is
                    // surfaced on the consumer's next poll.
                    sub.failed = Some(e);
                    continue;
                }
            };
            if !added.is_empty() || !removed.is_empty() {
                sub.publish(*id, &self.obs, max_queue, false, (added, removed));
            }
        }
    }

    /// The delta route: the plan's delta rules over the rows a DML
    /// changed, netted by row, for a subscription that holds a
    /// [`Maintained`] — one whose plan the last evaluation routed there.
    /// Exact by construction: the writer section lets nothing change
    /// storage between the subscription's last fold and this DML. `None`
    /// sends the caller to [`CrowdDB::reevaluate`], as does a rule that
    /// declines this DML.
    fn delta_of(&self, sub: &mut SubState, trigger: &Trigger<'_>) -> Option<NetDelta> {
        let (
            Trigger::Dml {
                change: Some(change),
                ..
            },
            Some(maintained),
        ) = (trigger, &mut sub.maintained)
        else {
            return None;
        };
        let delta = maintained.delta(&self.db, change).ok().flatten()?;
        Some(NetDelta::of_lists(delta.removed, delta.added))
    }

    /// The recompute route: evaluate afresh (which also renews what the
    /// delta route continues from) and diff against the last result.
    fn reevaluate(&self, sub: &mut SubState) -> Result<NetDelta> {
        let (rows, maintained) = self.evaluate_standing(&sub.plan.logical)?;
        let diff = NetDelta::between(&sub.last, &subscribe::rowset_from_rows(&rows))?;
        sub.maintained = maintained;
        Ok(diff)
    }

    /// Serialize the full session: storage (schemas + rows, including
    /// everything memorized from the crowd) plus the comparison caches.
    /// Restoring yields a CrowdDB that answers previously crowdsourced
    /// queries without posting a single task.
    ///
    /// The encoding is deterministic — cache entries are emitted in
    /// sorted key order through the storage codec — so two sessions in
    /// the same logical state produce byte-identical snapshots. Crash
    /// recovery relies on this to verify replayed state.
    pub fn snapshot(&self) -> Result<Vec<u8>> {
        let storage = self.db.snapshot()?;
        Ok(self.wrap_snapshot(&storage))
    }

    /// Split a session snapshot into its storage section and its
    /// decoded caches.
    fn split_snapshot(bytes: &[u8]) -> Result<(&[u8], CompareCaches)> {
        let mut r = Reader::new(bytes);
        let storage_len = r.u64()? as usize;
        let storage_bytes = r.take(storage_len, "session snapshot storage section")?;
        let caches_len = r.u64()? as usize;
        let caches_bytes = r.take(caches_len, "session snapshot caches section")?;
        let caches = CompareCaches::decode(caches_bytes)
            .map_err(|e| CrowdError::Internal(format!("bad caches in snapshot: {e}")))?;
        Ok((storage_bytes, caches))
    }

    /// Wrap a storage section (v2 full-state bytes or paged metadata)
    /// and the current caches into the session-snapshot container.
    fn wrap_snapshot(&self, storage: &[u8]) -> Vec<u8> {
        let caches_bytes = self.caches.read().encode();
        let mut out = Vec::with_capacity(16 + storage.len() + caches_bytes.len());
        codec::put_u64(&mut out, storage.len() as u64);
        out.extend_from_slice(storage);
        codec::put_u64(&mut out, caches_bytes.len() as u64);
        out.extend_from_slice(&caches_bytes);
        out
    }

    /// Restore a session saved by [`CrowdDB::snapshot`].
    pub fn restore(bytes: &[u8], config: CrowdConfig) -> Result<CrowdDB> {
        let (storage_bytes, caches) = Self::split_snapshot(bytes)?;
        let db = Database::restore(storage_bytes)?;
        Self::assemble(db, caches, config, Obs::new(), &[])
    }
}

/// The UNBOUNDED notes of a report, joined: what a refused statement's
/// error and an allowed one's warning say.
fn unbounded_detail(report: &BoundednessReport) -> String {
    report
        .notes
        .iter()
        .filter(|n| n.contains("UNBOUNDED"))
        .cloned()
        .collect::<Vec<_>>()
        .join("; ")
}

/// The paper's optimizer "warns the user at compile-time"; here the
/// warning is a hard error for a query about to run (`EXPLAIN` and task
/// previews still read an unbounded plan's report).
fn refuse_unbounded(report: &BoundednessReport) -> Result<()> {
    match report.bounded {
        true => Ok(()),
        false => Err(CrowdError::UnboundedCrowdQuery(unbounded_detail(report))),
    }
}

/// A statement parsed once — and, if it is a query (`SELECT`, `EXPLAIN
/// [ANALYZE] SELECT`, `SUBSCRIBE`), bound, optimized and annotated once —
/// by [`CrowdDB::prepare`]. Its plan is a compile-time fact the admission
/// tier reads ([`Prepared::may_touch_crowd`]) before the statement runs
/// that same plan.
#[derive(Debug)]
pub struct Prepared<'a> {
    /// The text the statement was parsed from: what its span names and,
    /// for DDL and DML, what the write-ahead log keeps.
    sql: &'a str,
    statement: Statement,
    /// The plan of the query the statement runs, explains or subscribes
    /// to, or the error planning it raised (surfaced inside the
    /// statement's span); `None` for any other statement.
    plan: Option<Result<(LogicalPlan, BoundednessReport)>>,
}

impl Prepared<'_> {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// The one admission rule: whether running this statement may engage
    /// the crowd. A query (`SELECT`, `EXPLAIN ANALYZE SELECT`) may when
    /// its plan is crowd-related, or when it failed to plan (it fails
    /// with that error inside its span); `UPDATE` and `DELETE` always
    /// may. DDL, `INSERT`, plain `EXPLAIN`, `SUBSCRIBE` and `UNSUBSCRIBE`
    /// never post a HIT.
    pub fn may_touch_crowd(&self) -> bool {
        match &self.statement {
            Statement::Update(_) | Statement::Delete(_) => true,
            Statement::Select(_) | Statement::Explain { analyze: true, .. } => {
                matches!(strip_explain(&self.statement), Statement::Select(_))
                    && self
                        .plan()
                        .map_or(true, |(plan, _)| plan.is_crowd_related())
            }
            _ => false,
        }
    }

    /// The prepared query plan and its boundedness report.
    fn plan(&self) -> Result<&(LogicalPlan, BoundednessReport)> {
        let planned = self.plan.as_ref().ok_or_else(|| {
            CrowdError::Internal(format!("no query plan for: {}", self.statement))
        })?;
        planned.as_ref().map_err(Clone::clone)
    }
}

// Compile-time guarantee that sessions can be shared across threads:
// `Arc<CrowdDB>` is the multi-session deployment shape (DESIGN.md §10).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CrowdDB>();
};

/// Why the statement driver stopped — the one value every sink words
/// its outcome from. Anything but `Complete` is a partial result and
/// carries a warning saying so.
#[derive(PartialEq)]
enum StopReason {
    /// A round reported no needs: the output is final.
    Complete,
    /// No platform attached: one round ran, its needs stayed unposted.
    Local,
    /// Every remaining need was already given up on in this session.
    Exhausted,
    /// The crowd budget ran out with needs still open.
    Budget,
    /// `max_rounds` rounds ran without converging.
    RoundCap,
}

/// What [`CrowdDB::drive`] hands its sink.
struct Driven<T> {
    /// The last round's output (`None` only under `max_rounds == 0`).
    output: Option<T>,
    /// The caller's planning warnings, each wave's, the stop reason's.
    warnings: Vec<String>,
    stop: StopReason,
}

/// What sets the standing queries off.
enum Trigger<'a> {
    /// A crowd round settled: every crowd-related query re-evaluates.
    Settlement,
    /// DDL on a table: its watchers re-evaluate (and re-lower).
    Ddl(&'a str),
    /// A DML applied: its table's watchers take the change set through
    /// their delta rules, or re-evaluate where a plan is crowd-related,
    /// an operator has no rule, or the change was not collected (`None`).
    Dml {
        table: &'a str,
        change: Option<TableChange>,
    },
}

/// What `EXPLAIN ANALYZE` keeps of its statement's execution: the
/// round-1 physical plan with every round's operator stats merged in,
/// and one line per round.
#[derive(Default)]
struct Analysis {
    tree: Option<(PhysicalPlan, OpStatsNode)>,
    rounds: Vec<String>,
}

impl Analysis {
    fn absorb(&mut self, physical: PhysicalPlan, stats: OpStatsNode, exec: &ExecResult) {
        self.rounds.push(format!(
            "round {}: {} row(s), {} need(s)\n",
            self.rounds.len() + 1,
            exec.rows.len(),
            exec.needs.len()
        ));
        match &mut self.tree {
            Some((_, merged)) if same_shape(merged, &stats) => merged.merge(&stats),
            // Round 1 — or a concurrent DDL changed what the plan lowers
            // to mid-statement, in which case the tree starts over.
            tree => *tree = Some((physical, stats)),
        }
    }

    /// The `EXPLAIN ANALYZE` text for the execution that produced `r`
    /// and booked `crowd`.
    fn render(&self, r: &QueryResult, crowd: &CrowdSummary) -> String {
        let tree = self
            .tree
            .as_ref()
            .map(|(p, stats)| render_analyzed(p, stats));
        let mut out = format!(
            "== Physical plan (analyzed) ==\n{}\n== Rounds ==\n{}result: {}\n\n== Crowd ==\n\
             tasks posted: {}\nanswers collected: {}\ncents spent: {}\nvirtual seconds: {}\n",
            tree.unwrap_or_default(),
            self.rounds.concat(),
            if r.complete { "complete" } else { "partial" },
            crowd.tasks_posted,
            crowd.answers_collected,
            crowd.cents_spent,
            crowd.virtual_secs,
        );
        for w in &r.warnings {
            out.push_str(&format!("warning: {w}\n"));
        }
        out
    }
}

fn same_shape(a: &OpStatsNode, b: &OpStatsNode) -> bool {
    a.name == b.name
        && a.children.len() == b.children.len()
        && a.children
            .iter()
            .zip(&b.children)
            .all(|(a, b)| same_shape(a, b))
}

/// The statement under any number of `EXPLAIN` wrappers.
fn strip_explain(mut stmt: &Statement) -> &Statement {
    while let Statement::Explain { statement, .. } = stmt {
        stmt = statement;
    }
    stmt
}

fn output_columns(plan: &LogicalPlan) -> Vec<String> {
    plan.schema().columns.into_iter().map(|c| c.name).collect()
}

/// Best-effort text from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::row;
    use crowddb_platform::{Answer, MockPlatform, TaskKind};

    fn ddl(db: &CrowdDB) {
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute(
            "CREATE TABLE talk (title STRING PRIMARY KEY, abstract CROWD STRING, \
             nb_attendees CROWD INTEGER)",
            &mut p,
        )
        .unwrap();
        db.execute(
            "CREATE CROWD TABLE notableattendee (name STRING PRIMARY KEY, title STRING, \
             FOREIGN KEY (title) REF talk(title))",
            &mut p,
        )
        .unwrap();
    }

    #[test]
    fn ddl_registers_templates() {
        let db = CrowdDB::new();
        ddl(&db);
        db.with_templates(|t| {
            assert!(t
                .get("talk", crowddb_ui::template::TemplateKind::Probe)
                .is_some());
            assert!(t
                .get(
                    "notableattendee",
                    crowddb_ui::template::TemplateKind::NewTuples
                )
                .is_some());
        });
    }

    #[test]
    fn end_to_end_probe_with_mock_crowd() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        ddl(&db);
        let mut crowd = MockPlatform::unanimous(|kind| match kind {
            TaskKind::Probe { asked, .. } => Answer::Form(
                asked
                    .iter()
                    .map(|(c, _)| {
                        let text = if c == "abstract" {
                            "Answering queries with crowdsourcing".to_string()
                        } else {
                            "120".to_string()
                        };
                        (c.clone(), text)
                    })
                    .collect(),
            ),
            _ => Answer::Blank,
        });
        db.execute(
            "INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)",
            &mut crowd,
        )
        .unwrap();
        let r = db
            .execute(
                "SELECT abstract, nb_attendees FROM talk WHERE title = 'CrowdDB'",
                &mut crowd,
            )
            .unwrap();
        assert!(r.complete, "warnings: {:?}", r.warnings);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(
            r.rows[0],
            row!["Answering queries with crowdsourcing", 120i64]
        );
        assert_eq!(r.crowd.rounds, 2);
        assert!(r.crowd.tasks_posted >= 1);
        // Answers are memorized: a second run touches no crowd.
        let r2 = db
            .execute(
                "SELECT abstract, nb_attendees FROM talk WHERE title = 'CrowdDB'",
                &mut crowd,
            )
            .unwrap();
        assert_eq!(r2.crowd.rounds, 1);
        assert_eq!(r2.crowd.tasks_posted, 0);
    }

    #[test]
    fn unbounded_query_rejected_at_compile_time() {
        let db = CrowdDB::new();
        ddl(&db);
        let mut crowd = MockPlatform::unanimous(|_| Answer::Blank);
        let err = db
            .execute("SELECT name FROM notableattendee", &mut crowd)
            .unwrap_err();
        assert_eq!(err.category(), "unbounded-crowd-query");
        // But LIMIT makes it acceptable.
        assert!(db
            .execute("SELECT name FROM notableattendee LIMIT 3", &mut crowd)
            .is_ok());
    }

    #[test]
    fn explain_reports_plan_and_boundedness() {
        let db = CrowdDB::new();
        ddl(&db);
        let text = db
            .explain("SELECT abstract FROM talk WHERE title = 'CrowdDB'")
            .unwrap();
        assert!(text.contains("Optimized plan"), "{text}");
        assert!(text.contains("BOUNDED"), "{text}");
        let text = db.explain("SELECT name FROM notableattendee").unwrap();
        assert!(text.contains("UNBOUNDED"), "{text}");
    }

    #[test]
    fn local_execution_reports_pending_work() {
        let db = CrowdDB::new();
        ddl(&db);
        db.execute_local("INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)")
            .unwrap();
        let r = db
            .execute_local("SELECT abstract FROM talk WHERE title = 'CrowdDB'")
            .unwrap();
        assert!(!r.complete);
        assert!(!r.warnings.is_empty());
        assert!(r.rows[0][0].is_cnull());
    }

    #[test]
    fn preview_first_task_renders_html() {
        let db = CrowdDB::new();
        ddl(&db);
        db.execute_local("INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)")
            .unwrap();
        let html = db
            .preview_first_task("SELECT abstract FROM talk WHERE title = 'CrowdDB'")
            .unwrap()
            .expect("a task preview");
        assert!(html.contains("value=\"CrowdDB\""), "{html}");
        assert!(html.contains("name=\"abstract\""));
    }

    #[test]
    fn subscribe_streams_dml_deltas() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        let sub = db
            .subscribe("SUBSCRIBE SELECT a FROM t WHERE a > 1")
            .unwrap();
        assert_eq!(sub.columns(), ["a".to_string()]);
        let first = sub.poll().unwrap().unwrap();
        assert!(first.snapshot);
        assert_eq!(first.revision, 1);
        assert!(first.added.is_empty());
        db.execute("INSERT INTO t VALUES (5)", &mut p).unwrap();
        let d = sub.poll().unwrap().unwrap();
        assert!(!d.snapshot);
        assert_eq!(d.revision, 2);
        assert_eq!(d.added, vec![row![5i64]]);
        assert!(d.removed.is_empty());
        // A filtered-out insert produces no delta.
        db.execute("INSERT INTO t VALUES (0)", &mut p).unwrap();
        assert!(sub.poll().unwrap().is_none());
        db.execute("DELETE FROM t WHERE a = 5", &mut p).unwrap();
        let d = sub.poll().unwrap().unwrap();
        assert_eq!(d.revision, 3);
        assert_eq!(d.removed, vec![row![5i64]]);
        sub.unsubscribe().unwrap();
        assert!(db.poll_subscription(1).is_err());
    }

    #[test]
    fn subscribe_statement_allocates_and_unsubscribe_drops() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        let r = db.execute("SUBSCRIBE SELECT a FROM t", &mut p).unwrap();
        assert_eq!(r.columns, vec!["subscription_id".to_string()]);
        let Value::Int(id) = r.rows[0][0] else {
            panic!("id row: {:?}", r.rows)
        };
        assert_eq!(
            db.subscriptions(),
            vec![(id as u64, "SELECT a FROM t".to_string())]
        );
        db.execute(&format!("UNSUBSCRIBE {id}"), &mut p).unwrap();
        assert!(db.subscriptions().is_empty());
        assert!(db.execute(&format!("UNSUBSCRIBE {id}"), &mut p).is_err());
    }

    #[test]
    fn crowd_settlement_triggers_deltas() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        ddl(&db);
        let mut crowd = MockPlatform::unanimous(|kind| match kind {
            TaskKind::Probe { asked, .. } => Answer::Form(
                asked
                    .iter()
                    .map(|(c, _)| (c.clone(), "120".to_string()))
                    .collect(),
            ),
            _ => Answer::Blank,
        });
        db.execute(
            "INSERT INTO talk VALUES ('CrowdDB', CNULL, CNULL)",
            &mut crowd,
        )
        .unwrap();
        let sub = db
            .subscribe("SELECT nb_attendees FROM talk WHERE title = 'CrowdDB'")
            .unwrap();
        let snap = sub.poll().unwrap().unwrap();
        assert!(snap.snapshot);
        assert_eq!(snap.added.len(), 1);
        assert!(snap.added[0][0].is_cnull());
        // Running the query settles the CNULL; the fulfillment round
        // must push an incremental delta to the standing query.
        db.execute(
            "SELECT nb_attendees FROM talk WHERE title = 'CrowdDB'",
            &mut crowd,
        )
        .unwrap();
        let d = sub.poll().unwrap().unwrap();
        assert!(!d.snapshot);
        assert_eq!(d.added, vec![row![120i64]]);
        assert_eq!(d.removed.len(), 1);
        assert!(d.removed[0][0].is_cnull());
        assert!(sub.poll().unwrap().is_none());
    }

    /// `Plain` (no crowd column anywhere) with one row above and one
    /// below the watch's filter, and a subscription on it, drained.
    fn plain_watch(db: &CrowdDB) -> SubscriptionHandle<'_> {
        for sql in [
            "CREATE TABLE plain (k INTEGER PRIMARY KEY, v INTEGER)",
            "INSERT INTO plain VALUES (1, 10), (2, 3)",
        ] {
            db.execute_local(sql).unwrap();
        }
        let sub = db
            .subscribe("SUBSCRIBE SELECT k, v FROM plain WHERE v >= 10")
            .unwrap();
        assert_eq!(sub.poll().unwrap().unwrap().added, vec![row![1i64, 10i64]]);
        sub
    }

    fn sub_counter(db: &CrowdDB, which: &str) -> u64 {
        db.metrics()
            .counter(&format!("crowddb_subscription_evals_{which}total"))
    }

    #[test]
    fn dml_that_touches_no_row_triggers_no_evaluation() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        let sub = plain_watch(&db);
        let r = db
            .execute_local("UPDATE plain SET v = 5 WHERE k = 99")
            .unwrap();
        assert_eq!(r.affected, 0);
        db.execute_local("DELETE FROM plain WHERE v > 1000")
            .unwrap();
        assert_eq!(sub_counter(&db, ""), 0, "nothing changed, nothing to do");
        assert_eq!(sub_counter(&db, "skipped_"), 2);
        assert!(sub.poll().unwrap().is_none());
        // The next real change still goes the delta route.
        db.execute_local("UPDATE plain SET v = 50 WHERE k = 2")
            .unwrap();
        assert_eq!(sub_counter(&db, ""), 1);
        assert_eq!(sub_counter(&db, "incremental_"), 1);
        let d = sub.poll().unwrap().unwrap();
        assert_eq!((d.added, d.removed), (vec![row![2i64, 50i64]], vec![]));
    }

    #[test]
    fn settlement_leaves_plans_no_round_can_move_alone() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        ddl(&db);
        let sub = plain_watch(&db);
        assert!(db
            .explain("SUBSCRIBE SELECT k, v FROM plain WHERE v >= 10")
            .unwrap()
            .contains("triggers: DML commit\n"));
        let mut crowd = MockPlatform::unanimous(|kind| match kind {
            TaskKind::Probe { asked, .. } => Answer::Form(
                asked
                    .iter()
                    .map(|(c, _)| (c.clone(), "an abstract".to_string()))
                    .collect(),
            ),
            _ => Answer::Blank,
        });
        db.execute("INSERT INTO talk (title) VALUES ('CrowdDB')", &mut crowd)
            .unwrap();
        let (evals, skipped) = (sub_counter(&db, ""), sub_counter(&db, "skipped_"));
        let r = db
            .execute(
                "SELECT abstract FROM talk WHERE title = 'CrowdDB'",
                &mut crowd,
            )
            .unwrap();
        assert_eq!(r.crowd.rounds, 2, "a round settled");
        assert_eq!(sub_counter(&db, ""), evals, "EXPLAIN said DML only");
        assert_eq!(sub_counter(&db, "skipped_"), skipped + 1);
        assert!(sub.poll().unwrap().is_none());
    }

    /// Only a watch that the one maintenance decision routes incremental
    /// keeps node state: a crowd-related one and one with an operator
    /// without a rule hold no `Maintained`, after registration and after
    /// a trigger, while crowdbench's three watches do.
    #[test]
    fn only_a_watch_routed_incremental_holds_node_state() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        ddl(&db);
        for sql in [
            "CREATE TABLE Sessions (k INTEGER PRIMARY KEY, room STRING, cap INTEGER)",
            "CREATE TABLE Room (room STRING PRIMARY KEY, floor INTEGER)",
            "INSERT INTO Room VALUES ('R0', 0), ('R1', 1)",
            "INSERT INTO Sessions VALUES (1, 'R0', 300), (2, 'R1', 40)",
            "INSERT INTO talk (title) VALUES ('CrowdDB')",
        ] {
            db.execute_local(sql).unwrap();
        }
        let watches = [
            ("SELECT abstract FROM talk WHERE title = 'CrowdDB'", false),
            ("SELECT DISTINCT room FROM Sessions", false),
            ("SELECT room, AVG(cap) FROM Sessions GROUP BY room", false),
            (
                "SELECT k FROM Sessions WHERE room IN (SELECT room FROM Room WHERE floor > 0)",
                false,
            ),
            ("SELECT k, room FROM Sessions WHERE cap >= 250", true),
            (
                "SELECT s.k, r.floor FROM Sessions s JOIN Room r ON s.room = r.room",
                true,
            ),
            (
                "SELECT room, COUNT(*), SUM(cap) FROM Sessions GROUP BY room",
                true,
            ),
        ];
        let ids: Vec<u64> = watches
            .iter()
            .map(|(sql, _)| db.subscribe(sql).unwrap().id())
            .collect();
        let held = || -> Vec<bool> {
            let subs = db.subs.lock();
            let held = |id| subs.subs[id].maintained.is_some();
            ids.iter().map(held).collect()
        };
        let routed: Vec<bool> = watches
            .iter()
            .map(|(_, incremental)| *incremental)
            .collect();
        assert_eq!(held(), routed, "after registration");
        db.execute_local("UPDATE Sessions SET cap = 260 WHERE k = 2")
            .unwrap();
        db.execute_local("INSERT INTO talk (title) VALUES ('Qurk')")
            .unwrap();
        assert_eq!(sub_counter(&db, ""), 7, "every watch was triggered");
        assert_eq!(sub_counter(&db, "incremental_"), 3);
        assert_eq!(held(), routed, "after a trigger");
    }

    /// A failed DML changed nothing, so the next one still finds the
    /// subscription exact and goes the delta route.
    #[test]
    fn failed_dml_leaves_the_delta_route_open() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        for sql in [
            "CREATE TABLE t (k INTEGER PRIMARY KEY, v INTEGER)",
            "INSERT INTO t VALUES (1, 1)",
        ] {
            db.execute_local(sql).unwrap();
        }
        let sub = db.subscribe("SELECT k, v FROM t WHERE v > 0").unwrap();
        db.execute_local("UPDATE t SET v = 2 WHERE k = 1").unwrap();
        assert_eq!(sub_counter(&db, "incremental_"), 1);
        let err = db.execute_local("INSERT INTO t VALUES (1, 5)").unwrap_err();
        assert_eq!(err.category(), "constraint", "{err}");
        db.execute_local("UPDATE t SET v = 3 WHERE k = 1").unwrap();
        assert_eq!(sub_counter(&db, "incremental_"), 2);
        let batches: Vec<_> = sub.map(Result::unwrap).collect();
        assert_eq!(batches.last().unwrap().added, vec![row![1i64, 3i64]]);
    }

    /// `hybrid_order` holds on every path: a governed statement, a local
    /// one and a task preview all order numbers without the crowd.
    #[test]
    fn hybrid_order_holds_on_every_path() {
        let mut db = CrowdDB::with_config(CrowdConfig::fast_test());
        db.set_hybrid_order(true);
        db.execute_local("CREATE TABLE t (s STRING PRIMARY KEY)")
            .unwrap();
        db.execute_local("INSERT INTO t VALUES ('30'), ('4'), ('100')")
            .unwrap();
        let sql = "SELECT s FROM t ORDER BY CROWDORDER(s, 'bigger?')";
        let ordered = vec![row!["4"], row!["30"], row!["100"]];
        let mut crowd = MockPlatform::unanimous(|_| Answer::Blank);
        let r = db.execute(sql, &mut crowd).unwrap();
        assert!(r.complete, "{:?}", r.warnings);
        assert_eq!(r.crowd.tasks_posted, 0);
        assert_eq!(r.rows, ordered);
        let r = db.execute_local(sql).unwrap();
        assert!(r.complete, "{:?}", r.warnings);
        assert_eq!(r.rows, ordered);
        assert_eq!(db.preview_first_task(sql).unwrap(), None);
    }

    /// An UPDATE of a column the projection does not show produces a
    /// non-empty operator delta (-row +row) and, normalised, no batch.
    #[test]
    fn update_the_projection_does_not_show_produces_no_batch() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        db.execute_local("CREATE TABLE t (k INTEGER PRIMARY KEY, shown INTEGER, hidden INTEGER)")
            .unwrap();
        db.execute_local("INSERT INTO t VALUES (1, 10, 100)")
            .unwrap();
        let sub = db.subscribe("SELECT k, shown FROM t").unwrap();
        let _ = sub.poll().unwrap();
        db.execute_local("UPDATE t SET hidden = 7 WHERE k = 1")
            .unwrap();
        assert_eq!(sub_counter(&db, "incremental_"), 1);
        assert!(sub.poll().unwrap().is_none());
    }

    #[test]
    fn lagged_subscription_errors_once_then_resyncs() {
        let mut cfg = CrowdConfig::fast_test();
        cfg.subscriptions.max_queue_batches = 2;
        let db = CrowdDB::with_config(cfg);
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        let sub = db.subscribe("SELECT a FROM t").unwrap();
        for i in 0..5 {
            db.execute(&format!("INSERT INTO t VALUES ({i})"), &mut p)
                .unwrap();
        }
        let err = sub.poll().unwrap_err();
        assert_eq!(err.category(), "subscription-lagged");
        let resync = sub.poll().unwrap().unwrap();
        assert!(resync.snapshot);
        assert_eq!(
            resync.added,
            vec![row![0i64], row![1i64], row![2i64], row![3i64], row![4i64]]
        );
        // Revisions stayed monotone across the gap: 1 snapshot + 5
        // deltas + 1 resync.
        assert_eq!(resync.revision, 7);
        assert!(sub.poll().unwrap().is_none());
        // Deltas flow normally again after the resync.
        db.execute("INSERT INTO t VALUES (9)", &mut p).unwrap();
        let d = sub.poll().unwrap().unwrap();
        assert_eq!(d.added, vec![row![9i64]]);
    }

    /// A consumed lag error can be re-armed: the next poll delivers the
    /// typed error again, and the one after that the resync snapshot —
    /// what a batching transport needs when lag surfaces after it has
    /// already drained deliverable batches into a response frame.
    #[test]
    fn rearmed_lag_error_surfaces_again_then_resyncs() {
        let mut cfg = CrowdConfig::fast_test();
        cfg.subscriptions.max_queue_batches = 1;
        let db = CrowdDB::with_config(cfg);
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        let sub = db.subscribe("SELECT a FROM t").unwrap();
        for i in 0..3 {
            db.execute(&format!("INSERT INTO t VALUES ({i})"), &mut p)
                .unwrap();
        }
        let id = sub.id();
        let err = db.poll_subscription(id).unwrap_err();
        assert_eq!(err.category(), "subscription-lagged");
        db.rearm_subscription_lag(id);
        let err = db.poll_subscription(id).unwrap_err();
        assert_eq!(err.category(), "subscription-lagged");
        let resync = db.poll_subscription(id).unwrap().unwrap();
        assert!(resync.snapshot);
        assert_eq!(resync.added, vec![row![0i64], row![1i64], row![2i64]]);
        // Unknown ids are a no-op, not a panic.
        db.rearm_subscription_lag(9999);
    }

    #[test]
    fn drop_table_fails_watching_subscriptions() {
        let db = CrowdDB::with_config(CrowdConfig::fast_test());
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        let sub = db.subscribe("SELECT a FROM t").unwrap();
        let _ = sub.poll().unwrap();
        db.execute("DROP TABLE t", &mut p).unwrap();
        assert!(sub.poll().is_err());
        sub.unsubscribe().unwrap();
    }

    #[test]
    fn subscription_limit_enforced() {
        let mut cfg = CrowdConfig::fast_test();
        cfg.subscriptions.max_subscriptions = 1;
        let db = CrowdDB::with_config(cfg);
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        let _sub = db.subscribe("SELECT a FROM t").unwrap();
        let err = db.subscribe("SELECT a FROM t").unwrap_err();
        assert_eq!(err.category(), "overloaded");
    }

    #[test]
    fn explain_subscribe_renders_standing_section() {
        let db = CrowdDB::new();
        ddl(&db);
        let text = db
            .explain("EXPLAIN SUBSCRIBE SELECT abstract FROM talk WHERE title = 'CrowdDB'")
            .unwrap();
        assert!(text.contains("== Standing plan =="), "{text}");
        assert!(text.contains("watches: talk"), "{text}");
        assert!(text.contains("== Optimized plan =="), "{text}");
        assert!(text.contains("== Boundedness =="), "{text}");
    }

    #[test]
    fn if_not_exists_is_idempotent() {
        let db = CrowdDB::new();
        let mut p = MockPlatform::unanimous(|_| Answer::Blank);
        db.execute("CREATE TABLE t (a INTEGER)", &mut p).unwrap();
        assert!(db.execute("CREATE TABLE t (a INTEGER)", &mut p).is_err());
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)", &mut p)
            .unwrap();
        db.execute("DROP TABLE t", &mut p).unwrap();
        assert!(db.execute("DROP TABLE t", &mut p).is_err());
        db.execute("DROP TABLE IF EXISTS t", &mut p).unwrap();
    }
}

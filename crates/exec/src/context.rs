//! The per-run execution context: crowd answer caches, collected
//! needs, and the cooperative-cancellation guard.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use crowddb_common::sync::RwLock;
use crowddb_common::{CancelReason, CrowdError, Result, Row, TableSchema};
use crowddb_plan::LogicalPlan;
use crowddb_storage::Database;

use crate::need::TaskNeed;

/// Session-lived caches of crowd comparison verdicts.
///
/// Probe answers are written back into storage, so they need no cache;
/// comparisons (`CROWDEQUAL`, `CROWDORDER`) have nowhere to live in the
/// schema and are remembered here. Keys are the canonicalized rendered
/// operand pair plus the instruction (see [`CompareCaches::pair_key`]).
#[derive(Debug, Clone, Default)]
pub struct CompareCaches {
    /// `pair_key` → the two values are equal.
    pub equal: HashMap<String, bool>,
    /// `pair_key` → the *lexicographically smaller* operand is preferred.
    ///
    /// Storing the verdict relative to the canonical operand order makes
    /// the cache direction-independent.
    pub order: HashMap<String, bool>,
}

impl CompareCaches {
    /// Canonical cache key for an operand pair under an instruction.
    /// Returns `(key, swapped)` where `swapped` records whether the
    /// operands were reordered to canonicalize.
    pub fn pair_key(left: &str, right: &str, instruction: &str) -> (String, bool) {
        if left <= right {
            (format!("{instruction}\u{1}{left}\u{1}{right}"), false)
        } else {
            (format!("{instruction}\u{1}{right}\u{1}{left}"), true)
        }
    }

    /// Look up an equality verdict.
    pub fn get_equal(&self, left: &str, right: &str, instruction: &str) -> Option<bool> {
        let (key, _) = Self::pair_key(left, right, instruction);
        self.equal.get(&key).copied()
    }

    /// Record an equality verdict.
    pub fn put_equal(&mut self, left: &str, right: &str, instruction: &str, verdict: bool) {
        let (key, _) = Self::pair_key(left, right, instruction);
        self.equal.insert(key, verdict);
    }

    /// Look up an order verdict: `Some(true)` means `left` is preferred
    /// over `right`.
    pub fn get_prefer(&self, left: &str, right: &str, instruction: &str) -> Option<bool> {
        let (key, swapped) = Self::pair_key(left, right, instruction);
        self.order
            .get(&key)
            .map(|&small_wins| if swapped { !small_wins } else { small_wins })
    }

    /// Record an order verdict: `left_preferred` relative to the operands
    /// as given.
    pub fn put_prefer(&mut self, left: &str, right: &str, instruction: &str, left_preferred: bool) {
        let (key, swapped) = Self::pair_key(left, right, instruction);
        let small_wins = if swapped {
            !left_preferred
        } else {
            left_preferred
        };
        self.order.insert(key, small_wins);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.equal.len() + self.order.len()
    }

    /// Whether both caches are empty.
    pub fn is_empty(&self) -> bool {
        self.equal.is_empty() && self.order.is_empty()
    }
}

/// Shard count for [`SharedCaches`]. A power of two so the hash can be
/// masked; 16 shards keep contention negligible for any realistic
/// session count without bloating the empty-cache footprint.
const CACHE_SHARDS: usize = 16;

/// FNV-1a over the canonical pair key; stable across platforms so shard
/// routing (and therefore lock-acquisition patterns) is deterministic.
fn shard_for(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) & (CACHE_SHARDS - 1)
}

/// Sharded, thread-safe wrapper over [`CompareCaches`] so concurrent
/// sessions can read and settle comparison verdicts without funneling
/// through one lock.
///
/// Verdicts are routed to a shard by an FNV-1a hash of the canonical
/// pair key, so lookups and inserts for different comparisons usually
/// touch different locks. Reads during a round take a whole-cache
/// [`snapshot`](SharedCaches::snapshot) instead of locking per
/// comparison — a round sees one consistent cache state, matching the
/// single-threaded engine's semantics.
#[derive(Debug, Default)]
pub struct SharedCaches {
    shards: [RwLock<CompareCaches>; CACHE_SHARDS],
}

impl SharedCaches {
    /// An empty sharded cache.
    pub fn new() -> SharedCaches {
        SharedCaches::default()
    }

    /// Build from a flat cache (snapshot restore), routing every verdict
    /// to its shard.
    pub fn from_caches(flat: CompareCaches) -> SharedCaches {
        let shared = SharedCaches::new();
        shared.replace(flat);
        shared
    }

    /// Replace the entire contents with `flat`. Not atomic with respect
    /// to concurrent writers; callers serialize externally (restore and
    /// tests run single-threaded).
    pub fn replace(&self, flat: CompareCaches) {
        for shard in &self.shards {
            let mut guard = shard.write();
            guard.equal.clear();
            guard.order.clear();
        }
        for (key, v) in flat.equal {
            self.shards[shard_for(&key)].write().equal.insert(key, v);
        }
        for (key, v) in flat.order {
            self.shards[shard_for(&key)].write().order.insert(key, v);
        }
    }

    /// Merged copy of all shards, for round execution and snapshots.
    pub fn snapshot(&self) -> CompareCaches {
        let mut flat = CompareCaches::default();
        for shard in &self.shards {
            let guard = shard.read();
            flat.equal
                .extend(guard.equal.iter().map(|(k, v)| (k.clone(), *v)));
            flat.order
                .extend(guard.order.iter().map(|(k, v)| (k.clone(), *v)));
        }
        flat
    }

    /// Look up an equality verdict.
    pub fn get_equal(&self, left: &str, right: &str, instruction: &str) -> Option<bool> {
        let (key, _) = CompareCaches::pair_key(left, right, instruction);
        self.shards[shard_for(&key)].read().equal.get(&key).copied()
    }

    /// Record an equality verdict.
    pub fn put_equal(&self, left: &str, right: &str, instruction: &str, verdict: bool) {
        let (key, _) = CompareCaches::pair_key(left, right, instruction);
        self.shards[shard_for(&key)]
            .write()
            .equal
            .insert(key, verdict);
    }

    /// Look up an order verdict: `Some(true)` means `left` is preferred.
    pub fn get_prefer(&self, left: &str, right: &str, instruction: &str) -> Option<bool> {
        let (key, swapped) = CompareCaches::pair_key(left, right, instruction);
        self.shards[shard_for(&key)]
            .read()
            .order
            .get(&key)
            .map(|&small_wins| if swapped { !small_wins } else { small_wins })
    }

    /// Record an order verdict relative to the operands as given.
    pub fn put_prefer(&self, left: &str, right: &str, instruction: &str, left_preferred: bool) {
        let (key, swapped) = CompareCaches::pair_key(left, right, instruction);
        let small_wins = if swapped {
            !left_preferred
        } else {
            left_preferred
        };
        self.shards[shard_for(&key)]
            .write()
            .order
            .insert(key, small_wins);
    }

    /// Number of cached verdicts across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }
}

/// What a [`ExecCtx::crowd_compare`] asks of two values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Compare {
    /// Do they refer to the same entity (`CROWDEQUAL`)?
    Equal,
    /// Is the left one preferred (`CROWDORDER`)?
    Order,
}

/// What an operator subtree did, as one value: the needs it recorded by
/// kind, its verdict-cache, machine-order, page and index traffic, and
/// its wall time. `ops::run_op` takes the difference of two
/// `ExecCtx::op_stats` readings around an operator; a stats node keeps
/// the sum over its subtree, so its own share is one subtraction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Missing-value probe needs accepted (post-dedup).
    pub probe: u64,
    /// New-tuple enumeration needs accepted.
    pub new_tuples: u64,
    /// `CROWDEQUAL` comparison needs accepted.
    pub equal: u64,
    /// `CROWDORDER` comparison needs accepted.
    pub order: u64,
    /// Crowd comparisons answered from the verdict caches.
    pub cache_hits: u64,
    /// Crowd comparisons missing from the verdict caches.
    pub cache_misses: u64,
    /// Comparisons resolved by the hybrid `CROWDORDER` machine path.
    pub machine_ordered: u64,
    /// Pages fetched from the storage backend (pool misses that did I/O).
    pub pages_read: u64,
    /// Page requests answered from the buffer pool.
    pub pool_hits: u64,
    /// Index probes, the primary-key index included.
    pub index_probes: u64,
    /// Wall time, self time once a node's children are taken out.
    pub wall: Duration,
}

impl std::ops::Add for OpStats {
    type Output = OpStats;
    fn add(self, o: OpStats) -> OpStats {
        OpStats {
            probe: self.probe + o.probe,
            new_tuples: self.new_tuples + o.new_tuples,
            equal: self.equal + o.equal,
            order: self.order + o.order,
            cache_hits: self.cache_hits + o.cache_hits,
            cache_misses: self.cache_misses + o.cache_misses,
            machine_ordered: self.machine_ordered + o.machine_ordered,
            pages_read: self.pages_read + o.pages_read,
            pool_hits: self.pool_hits + o.pool_hits,
            index_probes: self.index_probes + o.index_probes,
            wall: self.wall + o.wall,
        }
    }
}

/// `self` must be the later reading (or the enclosing subtree). Wall
/// time saturates: clock reads around nested operators need not nest.
impl std::ops::Sub for OpStats {
    type Output = OpStats;
    fn sub(self, o: OpStats) -> OpStats {
        OpStats {
            probe: self.probe - o.probe,
            new_tuples: self.new_tuples - o.new_tuples,
            equal: self.equal - o.equal,
            order: self.order - o.order,
            cache_hits: self.cache_hits - o.cache_hits,
            cache_misses: self.cache_misses - o.cache_misses,
            machine_ordered: self.machine_ordered - o.machine_ordered,
            pages_read: self.pages_read - o.pages_read,
            pool_hits: self.pool_hits - o.pool_hits,
            index_probes: self.index_probes - o.index_probes,
            wall: self.wall.saturating_sub(o.wall),
        }
    }
}

/// Counters reported per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Rows scanned from base tables.
    pub rows_scanned: u64,
    /// CNULLs encountered in needed columns.
    pub cnulls_seen: u64,
    /// Crowd comparisons answered from cache.
    pub compare_cache_hits: u64,
    /// Crowd comparisons missing from cache.
    pub compare_cache_misses: u64,
    /// Comparisons resolved locally by the hybrid CROWDORDER machine
    /// path (identical/numeric operands) — no cache entry, no HIT.
    pub machine_ordered: u64,
    /// Always zero (a pinned primary key counts in `index_probes` like
    /// any index); kept because the frozen crowdbench sums the field.
    pub index_lookups: u64,
    /// Index probes (point gets, range scans, and INL crowd-join
    /// probes), the primary-key index included.
    pub index_probes: u64,
}

/// Cooperative-cancellation guard threaded through the operator tree.
///
/// Operators call [`RunContext::check`] in their row functions and
/// [`super::ops::run_op`] charges each row an operator puts out through
/// [`RunContext::charge_rows`]; both are cheap no-ops when no limit is
/// armed (`enabled` is precomputed so the hot path is one branch).
///
/// The guard is per-*round*: counters reset when a fresh `ExecCtx` is
/// built for the next round, so `max_intermediate_rows` bounds the rows
/// operators hand on within a single round (the unit of work the
/// governor terminates at). The chaos hooks `trip_cancel_after` / `panic_after`
/// fire at the Nth checkpoint and exist purely for fault-injection
/// tests.
#[derive(Debug, Clone, Default)]
pub struct ExecGuard {
    /// Session cancel flag; set by `CancelToken::cancel`.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Cap on rows put out by operators within one round.
    pub max_intermediate_rows: Option<u64>,
    /// Cap on rows returned by the plan root (enforced by
    /// `execute_physical_guarded`, not by `check`).
    pub max_output_rows: Option<u64>,
    /// Chaos hook: behave as if the user cancelled at the Nth check.
    pub trip_cancel_after: Option<u64>,
    /// Chaos hook: panic at the Nth check (panic-containment tests).
    pub panic_after: Option<u64>,
    /// Hybrid CROWDORDER: resolve machine-comparable pairs (identical
    /// strings, numeric operands) locally and send only genuinely
    /// incomparable pairs to the crowd. Off by default — turning it on
    /// changes which HITs are posted, so runs are comparable only at
    /// equal settings.
    pub hybrid_order: bool,
}

impl ExecGuard {
    /// A guard with no limits armed — every check is a near-free branch.
    pub fn unlimited() -> ExecGuard {
        ExecGuard::default()
    }

    /// Whether any check-point work is needed at all.
    fn engaged(&self) -> bool {
        self.cancel.is_some()
            || self.max_intermediate_rows.is_some()
            || self.trip_cancel_after.is_some()
            || self.panic_after.is_some()
    }
}

/// Mutable state threaded through one execution round.
pub struct RunContext<'caches> {
    /// Session comparison caches (shared across rounds).
    pub caches: &'caches CompareCaches,
    /// Collected needs, deduplicated.
    needs: Vec<TaskNeed>,
    seen_needs: HashSet<String>,
    /// Materialized uncorrelated subquery results, keyed by plan text.
    pub subquery_results: HashMap<String, Vec<Row>>,
    /// Counters.
    pub stats: RunStats,
    /// Accepted needs by kind: the need fields of `ExecCtx::op_stats`.
    pub need_counts: OpStats,
    /// Cooperative-cancellation guard for this round.
    guard: ExecGuard,
    /// Fast path: false ⇒ `check()` is a single branch.
    guard_engaged: bool,
    /// Chaos hooks armed ⇒ route checks through the counting slow path.
    chaos_engaged: bool,
    /// Checkpoints passed this round (drives the chaos hooks).
    checks: u64,
    /// Rows charged by operators this round.
    intermediate_rows: u64,
}

impl<'caches> RunContext<'caches> {
    /// Fresh context for one round.
    pub fn new(caches: &'caches CompareCaches) -> RunContext<'caches> {
        RunContext::with_guard(caches, ExecGuard::unlimited())
    }

    /// Fresh context for one round with a cancellation guard armed.
    pub fn with_guard(caches: &'caches CompareCaches, guard: ExecGuard) -> RunContext<'caches> {
        let guard_engaged = guard.engaged();
        let chaos_engaged = guard.trip_cancel_after.is_some() || guard.panic_after.is_some();
        RunContext {
            caches,
            needs: Vec::new(),
            seen_needs: HashSet::new(),
            subquery_results: HashMap::new(),
            stats: RunStats::default(),
            need_counts: OpStats::default(),
            guard,
            guard_engaged,
            chaos_engaged,
            checks: 0,
            intermediate_rows: 0,
        }
    }

    /// Cooperative-cancellation checkpoint. Operators call this in
    /// per-row loops; it is a single branch when no guard is armed, and
    /// one relaxed atomic load in the common armed case (cancel flag
    /// without chaos hooks) — kept inline so a governed session's
    /// per-row cost stays in the noise (E13).
    #[inline]
    pub fn check(&mut self) -> Result<()> {
        if !self.guard_engaged {
            return Ok(());
        }
        if self.chaos_engaged {
            return self.check_chaos();
        }
        if let Some(flag) = &self.guard.cancel {
            if flag.load(AtomicOrdering::Relaxed) {
                return Err(CrowdError::Cancelled(CancelReason::UserRequested));
            }
        }
        Ok(())
    }

    #[cold]
    fn check_chaos(&mut self) -> Result<()> {
        self.checks += 1;
        if let Some(n) = self.guard.panic_after {
            if self.checks >= n {
                panic!("injected operator panic at check {n} (chaos hook)");
            }
        }
        if let Some(n) = self.guard.trip_cancel_after {
            if self.checks >= n {
                return Err(CrowdError::Cancelled(CancelReason::UserRequested));
            }
        }
        if let Some(flag) = &self.guard.cancel {
            if flag.load(AtomicOrdering::Relaxed) {
                return Err(CrowdError::Cancelled(CancelReason::UserRequested));
            }
        }
        Ok(())
    }

    /// Charge `n` operator-output rows against the intermediate-row cap
    /// (also a checkpoint). Called centrally by `ops::run_op`.
    pub fn charge_rows(&mut self, n: u64) -> Result<()> {
        self.check()?;
        self.intermediate_rows += n;
        if let Some(cap) = self.guard.max_intermediate_rows {
            if self.intermediate_rows > cap {
                return Err(CrowdError::Cancelled(CancelReason::IntermediateRowLimit));
            }
        }
        Ok(())
    }

    /// The guard's output-row cap (enforced at the plan root).
    pub fn max_output_rows(&self) -> Option<u64> {
        self.guard.max_output_rows
    }

    /// Whether the guard resolves machine-comparable `CROWDORDER` pairs
    /// locally ([`ExecGuard::hybrid_order`]).
    pub(crate) fn hybrid_order(&self) -> bool {
        self.guard.hybrid_order
    }

    /// Checkpoints passed so far this round (test introspection).
    pub fn checks_passed(&self) -> u64 {
        self.checks
    }

    /// Record a need (deduplicated). Returns whether the need was
    /// accepted (`false` ⇒ an identical need was already recorded).
    pub fn push_need(&mut self, need: TaskNeed) -> bool {
        let key = need.dedup_key();
        if !self.seen_needs.insert(key) {
            return false;
        }
        match &need {
            TaskNeed::ProbeValues { .. } => self.need_counts.probe += 1,
            TaskNeed::NewTuples { .. } => self.need_counts.new_tuples += 1,
            TaskNeed::Equal { .. } => self.need_counts.equal += 1,
            TaskNeed::Order { .. } => self.need_counts.order += 1,
        }
        self.needs.push(need);
        true
    }

    /// Needs collected so far.
    pub fn needs(&self) -> &[TaskNeed] {
        &self.needs
    }

    /// Consume the context, yielding the needs.
    pub fn into_needs(self) -> Vec<TaskNeed> {
        self.needs
    }
}

/// The running state of a standing query's `Aggregate` nodes, by node
/// (see `ops::aggregate`).
pub(crate) type GroupStates = HashMap<usize, crate::ops::aggregate::Groups>;

/// Everything one execution round threads through the operator tree:
/// the database, the per-round [`RunContext`], and a table-schema cache.
///
/// Operators (see [`crate::ops`]) and the expression evaluator
/// ([`crate::eval::eval`]) take `&mut ExecCtx` rather than owning any
/// state, so the same context serves the main plan, subqueries, and DML.
pub struct ExecCtx<'a> {
    /// The database being queried.
    pub db: &'a Database,
    /// Per-round mutable state (needs, counters, subquery memo).
    pub rt: RunContext<'a>,
    /// `execute` leaves aggregate state here when there is a map to
    /// leave it in, `delta` moves it; `None` for a one-shot statement.
    pub(crate) groups: Option<GroupStates>,
    /// `EXPLAIN ANALYZE`: time every hand-over between operators, so
    /// that per-operator wall time is self time (see `ops::run_op`).
    pub(crate) timed: bool,
    schema_cache: HashMap<String, TableSchema>,
}

impl<'a> ExecCtx<'a> {
    /// Fresh context sharing the session's comparison caches.
    pub fn new(db: &'a Database, caches: &'a CompareCaches) -> ExecCtx<'a> {
        ExecCtx::with_guard(db, caches, ExecGuard::unlimited())
    }

    /// Fresh context with a cooperative-cancellation guard armed.
    pub fn with_guard(
        db: &'a Database,
        caches: &'a CompareCaches,
        guard: ExecGuard,
    ) -> ExecCtx<'a> {
        ExecCtx {
            db,
            rt: RunContext::with_guard(caches, guard),
            groups: None,
            timed: false,
            schema_cache: HashMap::new(),
        }
    }

    /// Finish the round, yielding collected needs and counters.
    pub fn finish(self) -> (Vec<TaskNeed>, RunStats) {
        let stats = self.rt.stats;
        (self.rt.into_needs(), stats)
    }

    /// Every count [`OpStats`] attributes, as of now (the wall time is
    /// the caller's to measure).
    pub(crate) fn op_stats(&self) -> OpStats {
        let (stats, pager) = (&self.rt.stats, self.db.pager_stats());
        OpStats {
            cache_hits: stats.compare_cache_hits,
            cache_misses: stats.compare_cache_misses,
            machine_ordered: stats.machine_ordered,
            pages_read: pager.pages_read,
            pool_hits: pager.pool_hits,
            index_probes: stats.index_probes,
            ..self.rt.need_counts
        }
    }

    /// Catalog schema for `table`, cached per round.
    pub fn table_schema(&mut self, table: &str) -> Result<TableSchema> {
        if let Some(s) = self.schema_cache.get(table) {
            return Ok(s.clone());
        }
        let s = self.db.schema(table)?;
        self.schema_cache.insert(table.to_string(), s.clone());
        Ok(s)
    }

    /// Run an uncorrelated subplan, memoized per round by plan text.
    ///
    /// Lowers the logical subplan and executes it through the operator
    /// tree; its needs and cache counters land on whichever operator's
    /// expression evaluation triggered it.
    pub fn run_subplan(&mut self, plan: &LogicalPlan) -> Result<Vec<Row>> {
        let key = plan.explain();
        if let Some(rows) = self.rt.subquery_results.get(&key) {
            return Ok(rows.clone());
        }
        let physical = crate::executor::lower_plan(self.db, plan);
        let op = crate::ops::build(&physical);
        let mut node = crate::ops::OpStatsNode::skeleton(&physical);
        let rows = crate::ops::collect(op.as_ref(), self, &mut node)?;
        self.rt.subquery_results.insert(key, rows.clone());
        Ok(rows)
    }

    /// CrowdCompare, the one primitive behind `CROWDEQUAL` and
    /// `CROWDORDER`: the session's verdict on `left` against `right`
    /// under `instruction` — the two are equal ([`Compare::Equal`]), or
    /// `left` is preferred ([`Compare::Order`]) — counted as a
    /// compare-cache hit. A miss is counted, records a
    /// [`TaskNeed::Equal`] or [`TaskNeed::Order`] need and yields `None`:
    /// what stands in for the verdict until the crowd answers is the
    /// caller's business.
    pub fn crowd_compare(
        &mut self,
        kind: Compare,
        left: &str,
        right: &str,
        instruction: &str,
    ) -> Option<bool> {
        let verdict = match kind {
            Compare::Equal => self.rt.caches.get_equal(left, right, instruction),
            Compare::Order => self.rt.caches.get_prefer(left, right, instruction),
        };
        if verdict.is_some() {
            self.rt.stats.compare_cache_hits += 1;
            return verdict;
        }
        self.rt.stats.compare_cache_misses += 1;
        let (left, right) = (left.to_string(), right.to_string());
        let instruction = instruction.to_string();
        self.rt.push_need(match kind {
            Compare::Equal => TaskNeed::Equal {
                left,
                right,
                instruction,
            },
            Compare::Order => TaskNeed::Order {
                left,
                right,
                instruction,
            },
        });
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_cache_symmetric() {
        let mut c = CompareCaches::default();
        c.put_equal("IBM", "I.B.M.", "same?", true);
        assert_eq!(c.get_equal("I.B.M.", "IBM", "same?"), Some(true));
        assert_eq!(c.get_equal("IBM", "Apple", "same?"), None);
        assert_eq!(c.get_equal("IBM", "I.B.M.", "other q"), None);
    }

    #[test]
    fn order_cache_direction_aware() {
        let mut c = CompareCaches::default();
        // "b" preferred over "a".
        c.put_prefer("b", "a", "which?", true);
        assert_eq!(c.get_prefer("b", "a", "which?"), Some(true));
        assert_eq!(c.get_prefer("a", "b", "which?"), Some(false));
        // And the reverse registration works too.
        c.put_prefer("x", "y", "which?", false);
        assert_eq!(c.get_prefer("y", "x", "which?"), Some(true));
    }

    #[test]
    fn needs_dedup() {
        let caches = CompareCaches::default();
        let mut ctx = RunContext::new(&caches);
        for _ in 0..3 {
            ctx.push_need(TaskNeed::Equal {
                left: "a".into(),
                right: "b".into(),
                instruction: "?".into(),
            });
        }
        ctx.push_need(TaskNeed::Equal {
            left: "b".into(),
            right: "a".into(),
            instruction: "?".into(),
        });
        assert_eq!(ctx.needs().len(), 1);
        assert_eq!(ctx.into_needs().len(), 1);
    }

    #[test]
    fn cache_len() {
        let mut c = CompareCaches::default();
        assert!(c.is_empty());
        c.put_equal("a", "b", "q", false);
        c.put_prefer("a", "b", "q", true);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn shared_caches_match_flat_semantics() {
        let shared = SharedCaches::new();
        assert!(shared.is_empty());
        shared.put_equal("IBM", "I.B.M.", "same?", true);
        shared.put_prefer("b", "a", "which?", true);
        assert_eq!(shared.get_equal("I.B.M.", "IBM", "same?"), Some(true));
        assert_eq!(shared.get_prefer("a", "b", "which?"), Some(false));
        assert_eq!(shared.len(), 2);

        let flat = shared.snapshot();
        assert_eq!(flat.get_equal("IBM", "I.B.M.", "same?"), Some(true));
        assert_eq!(flat.get_prefer("b", "a", "which?"), Some(true));

        let rebuilt = SharedCaches::from_caches(flat);
        assert_eq!(rebuilt.len(), 2);
        assert_eq!(rebuilt.get_prefer("b", "a", "which?"), Some(true));
    }

    #[test]
    fn shared_caches_round_trip_many_keys() {
        let shared = SharedCaches::new();
        for i in 0..200 {
            shared.put_equal(&format!("L{i}"), &format!("R{i}"), "q", i % 2 == 0);
            shared.put_prefer(&format!("L{i}"), &format!("R{i}"), "q", i % 3 == 0);
        }
        assert_eq!(shared.len(), 400);
        let snap = shared.snapshot();
        assert_eq!(snap.len(), 400);
        for i in 0..200 {
            assert_eq!(
                shared.get_equal(&format!("R{i}"), &format!("L{i}"), "q"),
                Some(i % 2 == 0),
                "key {i}"
            );
        }
    }

    #[test]
    fn unarmed_guard_checks_are_free() {
        let caches = CompareCaches::default();
        let mut ctx = RunContext::new(&caches);
        for _ in 0..1000 {
            ctx.check().unwrap();
            ctx.charge_rows(10).unwrap();
        }
        // The fast path never even counts checkpoints.
        assert_eq!(ctx.checks_passed(), 0);
    }

    #[test]
    fn cancel_flag_trips_check() {
        use crowddb_common::{CancelReason, CrowdError};
        let caches = CompareCaches::default();
        let flag = Arc::new(AtomicBool::new(false));
        let guard = ExecGuard {
            cancel: Some(Arc::clone(&flag)),
            ..ExecGuard::default()
        };
        let mut ctx = RunContext::with_guard(&caches, guard);
        ctx.check().unwrap();
        flag.store(true, AtomicOrdering::Relaxed);
        assert_eq!(
            ctx.check(),
            Err(CrowdError::Cancelled(CancelReason::UserRequested))
        );
    }

    #[test]
    fn intermediate_row_cap_trips_charge() {
        use crowddb_common::{CancelReason, CrowdError};
        let caches = CompareCaches::default();
        let guard = ExecGuard {
            max_intermediate_rows: Some(25),
            ..ExecGuard::default()
        };
        let mut ctx = RunContext::with_guard(&caches, guard);
        ctx.charge_rows(20).unwrap();
        assert_eq!(
            ctx.charge_rows(20),
            Err(CrowdError::Cancelled(CancelReason::IntermediateRowLimit))
        );
    }

    #[test]
    fn trip_cancel_after_counts_checkpoints() {
        use crowddb_common::{CancelReason, CrowdError};
        let caches = CompareCaches::default();
        let guard = ExecGuard {
            trip_cancel_after: Some(3),
            ..ExecGuard::default()
        };
        let mut ctx = RunContext::with_guard(&caches, guard);
        ctx.check().unwrap();
        ctx.check().unwrap();
        assert_eq!(
            ctx.check(),
            Err(CrowdError::Cancelled(CancelReason::UserRequested))
        );
    }

    #[test]
    fn shared_caches_concurrent_writers() {
        let shared = std::sync::Arc::new(SharedCaches::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let shared = std::sync::Arc::clone(&shared);
                scope.spawn(move || {
                    for i in 0..100 {
                        shared.put_equal(&format!("t{t}-{i}"), "x", "q", true);
                    }
                });
            }
        });
        assert_eq!(shared.len(), 400);
    }
}

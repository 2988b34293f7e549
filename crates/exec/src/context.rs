//! The per-run execution context: crowd answer caches, collected
//! needs, and the cooperative-cancellation guard.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::Duration;

use crowddb_common::codec::{self, Reader};
use crowddb_common::{CancelReason, CrowdError, Result, Row, TableSchema, Value};
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

/// Append `part` to `key`, writing `separator` and U+0002 (the escape)
/// each as U+0002 followed by the character, so a key joined by
/// `separator` names exactly one sequence of parts. A part holding
/// neither character is copied as is.
pub(crate) fn push_key_part(key: &mut String, part: &str, separator: char) {
    for c in part.chars() {
        if c == separator || c == '\u{2}' {
            key.push('\u{2}');
        }
        key.push(c);
    }
}

/// Append the operands in canonical (ascending) order, escaped and
/// joined by U+0001; returns whether they were swapped to get there.
pub(crate) fn push_pair(key: &mut String, left: &str, right: &str) -> bool {
    let swapped = left > right;
    let (a, b) = if swapped {
        (right, left)
    } else {
        (left, right)
    };
    push_key_part(key, a, '\u{1}');
    key.push('\u{1}');
    push_key_part(key, b, '\u{1}');
    swapped
}

impl CompareCaches {
    /// Canonical cache key for an operand pair under an instruction:
    /// the instruction and the ordered operands joined by U+0001, with
    /// U+0001 and U+0002 inside a part written as U+0002 and the
    /// character, so two pairs never share a key. Returns `(key, swapped)`
    /// where `swapped` records whether the operands were reordered to
    /// canonicalize.
    pub fn pair_key(left: &str, right: &str, instruction: &str) -> (String, bool) {
        let mut key = String::with_capacity(instruction.len() + left.len() + right.len() + 2);
        push_key_part(&mut key, instruction, '\u{1}');
        key.push('\u{1}');
        let swapped = push_pair(&mut key, left, right);
        (key, swapped)
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

    /// Deterministic encoding, the caches section of a session snapshot:
    /// each map is a count followed by `(Str key, Bool verdict)` codec
    /// values in sorted key order.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        for map in [&self.equal, &self.order] {
            let mut keys: Vec<&String> = map.keys().collect();
            keys.sort();
            codec::put_u64(&mut buf, keys.len() as u64);
            for k in keys {
                codec::encode_value(&mut buf, &Value::Str(k.clone()));
                codec::encode_value(&mut buf, &Value::Bool(map[k]));
            }
        }
        buf
    }

    /// Inverse of [`encode`](Self::encode); trailing bytes are an error.
    pub fn decode(bytes: &[u8]) -> Result<CompareCaches> {
        fn decode_map(r: &mut Reader<'_>) -> Result<HashMap<String, bool>> {
            // An entry is a tagged string (5 bytes at least) and a bool.
            let n = r.count_u64(6)?;
            let mut map = HashMap::with_capacity(n);
            for _ in 0..n {
                let (k, v) = (codec::decode_value(r)?, codec::decode_value(r)?);
                let (Value::Str(k), Value::Bool(v)) = (k, v) else {
                    return Err(CrowdError::Internal(
                        "cache entry must be a (string, bool) pair".into(),
                    ));
                };
                map.insert(k, v);
            }
            Ok(map)
        }
        let mut r = Reader::new(bytes);
        let caches = CompareCaches {
            equal: decode_map(&mut r)?,
            order: decode_map(&mut r)?,
        };
        r.finish()?;
        Ok(caches)
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

/// What a standing query's stateful nodes keep between triggers, by
/// plan-node address, which is stable for as long as the standing query
/// owns its boxed plan (a miss, say after a clone, only means "no delta"
/// or "build again").
pub(crate) type NodeStates = HashMap<usize, NodeState>;

/// The state one node keeps (see [`NodeStates`]).
#[derive(Debug)]
pub(crate) enum NodeState {
    /// An `Aggregate`'s running groups (`ops::aggregate`).
    Groups(crate::ops::aggregate::Groups),
    /// A `HashJoin`'s build side (`ops::hash_join`).
    Build(crate::ops::hash_join::Kept),
}

/// Table schemas read off the catalog, by name.
pub(crate) type Schemas = HashMap<String, Arc<TableSchema>>;

/// What a standing query carries from one trigger to the next besides
/// its plan: what its nodes keep and the schemas its scans read. Only a
/// DDL changes a schema, and a DDL on a watched table re-evaluates the
/// query, which starts a fresh `Carried`.
#[derive(Debug, Default)]
pub(crate) struct Carried {
    states: NodeStates,
    schemas: Schemas,
}

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
    /// `execute` leaves what a stateful node keeps here when there is a
    /// map to leave it in, `delta` moves it; `None` for a one-shot
    /// statement and for a standing query that recomputes.
    states: Option<NodeStates>,
    /// `EXPLAIN ANALYZE`: time every hand-over between operators, so
    /// that per-operator wall time is self time (see `ops::run_op`).
    pub(crate) timed: bool,
    schemas: Schemas,
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
            states: None,
            timed: false,
            schemas: Schemas::new(),
        }
    }

    /// Continue from what a standing query carried out of its last
    /// evaluation or trigger: its nodes find what they kept, its scans
    /// the schemas they read, and what they keep now is kept.
    pub(crate) fn carry_in(&mut self, carried: Carried) {
        self.states = Some(carried.states);
        self.schemas = carried.schemas;
    }

    /// What this context carries out for the next trigger.
    pub(crate) fn carry_out(&mut self) -> Carried {
        Carried {
            states: self.states.take().unwrap_or_default(),
            schemas: std::mem::take(&mut self.schemas),
        }
    }

    /// Take out what node `key` kept, if anything.
    pub(crate) fn take_state(&mut self, key: usize) -> Option<NodeState> {
        self.states.as_mut()?.remove(&key)
    }

    /// Keep `state` for node `key`, if this context keeps anything (a
    /// standing query's on the delta route does).
    pub(crate) fn keep_state(&mut self, key: usize, state: NodeState) {
        if let Some(states) = &mut self.states {
            states.insert(key, state);
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

    /// Catalog schema for `table`, read from the catalog once per round
    /// (once per standing query, which carries its schemas from trigger
    /// to trigger) and shared after that: a scan pass copies no column
    /// name.
    pub fn table_schema(&mut self, table: &str) -> Result<Arc<TableSchema>> {
        if let Some(s) = self.schemas.get(table) {
            return Ok(Arc::clone(s));
        }
        let s = Arc::new(self.db.schema(table)?);
        self.schemas.insert(table.to_string(), Arc::clone(&s));
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
    fn encode_decode_round_trips() {
        let mut c = CompareCaches::default();
        for i in 0..200 {
            c.put_equal(&format!("L{i}"), &format!("R{i}"), "q", i % 2 == 0);
            c.put_prefer(&format!("L{i}"), &format!("R{i}"), "q", i % 3 == 0);
        }
        c.put_equal("a\u{1}b", "\u{2}", "same?", true);
        let bytes = c.encode();
        let back = CompareCaches::decode(&bytes).unwrap();
        assert_eq!((back.equal.clone(), back.order.clone()), (c.equal, c.order));
        assert_eq!(back.encode(), bytes, "the encoding is deterministic");
        assert_eq!(back.get_prefer("R7", "L7", "q"), Some(true));
        assert!(CompareCaches::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut trailing = bytes;
        trailing.push(0);
        assert!(CompareCaches::decode(&trailing).is_err());
    }

    #[test]
    fn pair_key_names_one_pair() {
        // Joined unescaped, both pairs would read "q\u{1}a\u{1}b\u{1}c".
        let (k1, _) = CompareCaches::pair_key("a\u{1}b", "c", "q");
        let (k2, _) = CompareCaches::pair_key("a", "b\u{1}c", "q");
        assert_ne!(k1, k2);
        // Every triple over {a, U+0001, U+0002} of length <= 2 per part
        // gets its own key.
        let alphabet = ["a", "\u{1}", "\u{2}"];
        let mut parts = vec![String::new()];
        for x in alphabet {
            parts.push(x.to_string());
            for y in alphabet {
                parts.push(format!("{x}{y}"));
            }
        }
        let mut seen = HashMap::new();
        for q in &parts {
            for l in &parts {
                for r in parts.iter().filter(|r| l <= *r) {
                    let (key, _) = CompareCaches::pair_key(l, r, q);
                    assert_eq!(*seen.entry(key).or_insert((q, l, r)), (q, l, r));
                }
            }
        }
        // Parts without either character keep the plain joined key.
        assert_eq!(
            CompareCaches::pair_key("IBM", "I.B.M.", "same?"),
            ("same?\u{1}I.B.M.\u{1}IBM".to_string(), true)
        );
        let mut c = CompareCaches::default();
        c.put_equal("a\u{1}b", "c", "q", true);
        assert_eq!(c.get_equal("a", "b\u{1}c", "q"), None);
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
}

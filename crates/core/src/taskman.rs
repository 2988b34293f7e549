//! The Task Manager: turns execution-round [`TaskNeed`]s into platform
//! tasks, collects and quality-controls the answers, and memorizes them
//! (storage write-back for probe answers and new tuples, session caches
//! for comparisons).
//!
//! [`fulfill_needs`] is three calls over one `Wave`: `post`, `pump`,
//! `settle`. What was asked has one holder, the wave's slice of needs;
//! a post unit's `Tracker` keeps what was posted for it and what the
//! crowd said back — one vote per asked column or compared pair, or the
//! contributed tuples — and points at its needs by index, so settlement
//! reads table, tuple id, columns, preset and operands from the need
//! itself. Answer ingest, which normalizes free text, is the one phase
//! that runs on the worker pool; decisions and settlement are plain
//! loops on the coordinator.
//!
//! A compare unit is the same-instruction `CROWDEQUAL` (or
//! `CROWDORDER`) pairs one HIT carries: `max_batch_size` sizes the unit,
//! and a lone comparison is a unit of one pair that runs through the
//! same tracker, decisions and settle arm. Unit size shows in two places
//! only: the wire shape (`unit_spec` posts `Equal`/`Order` for one pair
//! and `EqualBatch`/`OrderBatch` for more; `ingest_answer` takes back
//! exactly the shape posted) and WRM agreement scoring (voters of a
//! one-pair HIT are scored; batched voters are paid but not scored —
//! inherited from the two code paths this replaced, see DESIGN §15.2).

use std::collections::{HashMap, HashSet};

use crowddb_common::rng::splitmix64;
use crowddb_common::sync::RwLock;
use crowddb_common::{Result, Row, TableSchema, Value};
use crowddb_exec::{CompareCaches, TaskNeed};
use crowddb_obs::{Event, Obs};
use crowddb_platform::{
    batched_reward_cents, Answer, HitId, Platform, TaskKind, TaskSpec, WorkerId,
    WorkerRelationshipManager,
};
use crowddb_quality::{
    infer, record_em_round, record_vote_outcome, EmConfig, MajorityVote, Normalizer, VoteOutcome,
};
use crowddb_storage::{Database, LogRecord};
use crowddb_ui::manager::UiTemplateManager;
use crowddb_ui::template::TemplateKind;

use crate::config::{CrowdConfig, QualityPolicy};
use crate::par::par_map_mut;
use crate::result::CrowdSummary;

/// Maximum tuples one new-tuple assignment may carry.
const MAX_TUPLES_PER_ASSIGNMENT: usize = 5;

/// Virtual seconds the pump advances the platform per step.
const PUMP_STEP_SECS: f64 = 600.0;

/// A worker is banned at settle once at least `BAN_MIN_TASKS` of their
/// answers have been agreement-scored and their (Laplace-smoothed)
/// agreement rate is below `BAN_AGREEMENT`. A banned worker's later
/// answers are paid but not counted.
const BAN_MIN_TASKS: u64 = 10;
const BAN_AGREEMENT: f64 = 0.25;

/// What one fulfillment pass hands back to the driver.
#[derive(Debug, Clone, Default)]
pub struct FulfillSummary {
    /// Needs that could not be resolved (their dedup keys).
    pub exhausted: Vec<String>,
    /// Human-readable warnings.
    pub warnings: Vec<String>,
    /// The facts only the task manager sees: retries, reposts,
    /// duplicates dropped, post and extend failures, needs given up on,
    /// and whether the breaker tripped. What the platform itself counts
    /// (HITs, assignments, cents, virtual time) stays zero here; the
    /// driver reads it off the platform around the wave.
    pub crowd: CrowdSummary,
    /// Durable effects of this pass (crowd-answer write-backs, new-tuple
    /// insertions, comparison verdicts) in the order they were applied.
    /// A durable session appends these to its write-ahead log as soon as
    /// the pass returns — i.e. as each round completes — so a crash loses
    /// at most the in-flight round, never answers the crowd was paid for.
    pub log: Vec<LogRecord>,
}

impl FulfillSummary {
    /// Append the structured one-line fault digest, if any fault was
    /// absorbed this pass.
    fn note_absorbed_faults(&mut self) {
        let c = &self.crowd;
        let faulted = c.post_failures + c.extend_failures + c.duplicates_dropped + c.reposts;
        if faulted == 0 {
            return;
        }
        self.warnings.push(format!(
            "platform faults absorbed: {} post failure(s) ({} retried), {} extend failure(s), \
             {} duplicate answer(s) dropped, {} HIT(s) reposted",
            c.post_failures, c.retries, c.extend_failures, c.duplicates_dropped, c.reposts
        ));
    }
}

/// Convert a [`TaskNeed`] into a platform task, using the UI template
/// manager's (possibly developer-edited) instructions.
pub fn need_to_spec(
    need: &TaskNeed,
    config: &CrowdConfig,
    templates: &UiTemplateManager,
) -> TaskSpec {
    let kind = match need {
        TaskNeed::ProbeValues {
            table,
            context,
            columns,
            ..
        } => TaskKind::Probe {
            table: table.clone(),
            known: context.clone(),
            asked: columns.iter().map(|(_, n, t)| (n.clone(), *t)).collect(),
            instructions: templates
                .get(table, TemplateKind::Probe)
                .map(|t| t.instructions.clone())
                .unwrap_or_default(),
        },
        TaskNeed::NewTuples { table, preset, .. } => {
            let preset_names: Vec<&str> = preset.iter().map(|(n, _)| n.as_str()).collect();
            let columns = templates
                .get(table, TemplateKind::NewTuples)
                .map(|t| {
                    t.fields
                        .iter()
                        .filter(|f| !preset_names.contains(&f.name.as_str()))
                        .map(|f| (f.name.clone(), f.data_type))
                        .collect()
                })
                .unwrap_or_default();
            TaskKind::NewTuples {
                table: table.clone(),
                columns,
                preset: preset
                    .iter()
                    .map(|(n, v)| (n.clone(), v.to_string()))
                    .collect(),
                max_tuples: MAX_TUPLES_PER_ASSIGNMENT,
                instructions: templates
                    .get(table, TemplateKind::NewTuples)
                    .map(|t| t.instructions.clone())
                    .unwrap_or_default(),
            }
        }
        TaskNeed::Equal {
            left,
            right,
            instruction,
        } => TaskKind::Equal {
            left: left.clone(),
            right: right.clone(),
            instruction: instruction.clone(),
        },
        TaskNeed::Order {
            left,
            right,
            instruction,
        } => TaskKind::Order {
            left: left.clone(),
            right: right.clone(),
            instruction: instruction.clone(),
        },
    };
    TaskSpec::new(kind)
        .reward(config.reward_cents)
        .replicate(first_ask(need, config))
}

/// The most assignments the HIT posted for `need` asks for before it
/// escalates: what the driver's budget check prices it at, so that no
/// free extension can overrun a budget. New-tuple tasks are inherently
/// replicated by asking several workers for contributions;
/// compare/probe tasks use the vote replication.
pub fn assignments(need: &TaskNeed, config: &CrowdConfig) -> u32 {
    match need {
        TaskNeed::NewTuples { .. } => config.vote.replication.max(2) as u32,
        _ => config.vote.replication as u32,
    }
}

/// How many assignments the HIT posted for `need` asks for at first:
/// a vote's quorum, which a contested vote extends towards
/// [`assignments`]; a new-tuples HIT asks for all of them.
fn first_ask(need: &TaskNeed, config: &CrowdConfig) -> u32 {
    match need {
        TaskNeed::NewTuples { .. } => assignments(need, config),
        _ => config.vote.quorum() as u32,
    }
}

/// Deterministic unit-interval hash (one splitmix64 step). Backoff
/// jitter must not disturb the byte-identical-per-seed reproducibility
/// contract, so it is derived from a counter instead of an RNG.
fn jitter01(x: u64) -> f64 {
    let mut state = x;
    (splitmix64(&mut state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Capped exponential backoff with deterministic jitter for retry
/// `attempt` (1-based).
fn backoff_secs(policy: &crate::config::RetryPolicy, attempt: u32, salt: u64) -> f64 {
    let exp = attempt.saturating_sub(1).min(32);
    let raw = (policy.backoff_base_secs * (1u64 << exp) as f64).min(policy.backoff_cap_secs);
    let j = policy.backoff_jitter.clamp(0.0, 1.0);
    raw * (1.0 - j + 2.0 * j * jitter01(salt))
}

/// Consecutive-failure circuit breaker: after `threshold` platform
/// failures in a row the platform is considered degraded and no further
/// calls are made this pass.
struct Breaker {
    consecutive: u32,
    threshold: u32,
    tripped: bool,
}

impl Breaker {
    fn new(threshold: u32) -> Breaker {
        Breaker {
            consecutive: 0,
            threshold: threshold.max(1),
            tripped: false,
        }
    }

    fn succeeded(&mut self) {
        self.consecutive = 0;
    }

    fn failed(&mut self) {
        self.consecutive += 1;
        if self.consecutive >= self.threshold {
            self.tripped = true;
        }
    }
}

/// One post unit's lifecycle across posting, reposts, and voting: what
/// was posted for it and what the crowd said back. What was *asked* —
/// table, tuple, columns, preset, operands, instruction — is read from
/// the wave's needs, which `unit` indexes.
struct Tracker {
    /// The needs this unit's HIT covers, as indices into the wave's
    /// needs: one, or the pairs of a batched compare HIT.
    unit: Vec<usize>,
    /// The spec posted for the unit, built once; retries and reposts
    /// post clones of it.
    spec: TaskSpec,
    /// One vote per asked column (probe) or per pair (compare), in need
    /// order — the order EM inference and settlement walk. Empty for a
    /// new-tuples unit.
    votes: Vec<MajorityVote>,
    /// New-tuple contributions in arrival order.
    tuples: Vec<Vec<(String, String)>>,
    /// The currently active HIT for this unit (reposts swap it; stale
    /// HITs stay mapped so straggler answers still count).
    hit: HitId,
    /// Assignments the active HIT has asked for: its post plus every
    /// extension. Extensions up to the vote replication are free; past
    /// it each one is an escalation.
    asked: u32,
    /// Virtual deadline after which the active HIT counts as abandoned.
    deadline: f64,
    reposts: u32,
    /// Free extensions the platform refused; each is tried again at the
    /// next sweep, up to [`FREE_EXTENSION_ATTEMPTS`] refusals.
    refused_extensions: u32,
    /// No further posting/extension decisions for this unit; its final
    /// outcome is settled from whatever votes exist.
    resolved: bool,
    /// Answers staged by the (serial) collector this pump step, waiting
    /// for the parallel QC ingest: `(worker_votes slot, worker, answer)`.
    pending: Vec<(usize, WorkerId, Answer)>,
}

/// Template-group key for a need, mirroring [`TaskKind::group_key`]:
/// needs sharing a key render with the same UI template and may share a
/// posting batch.
fn need_group_key(need: &TaskNeed) -> String {
    match need {
        TaskNeed::ProbeValues { table, columns, .. } => {
            let cols: Vec<&str> = columns.iter().map(|(_, n, _)| n.as_str()).collect();
            format!("probe:{table}:{}", cols.join(","))
        }
        TaskNeed::NewTuples { table, .. } => format!("new:{table}"),
        TaskNeed::Equal { instruction, .. } => format!("equal:{instruction}"),
        TaskNeed::Order { instruction, .. } => format!("order:{instruction}"),
    }
}

/// Plan the wave's *post units*: each unit is one HIT covering one or
/// more needs. With `max_batch_size < 2` every need is its own unit
/// (the classic one-HIT-per-need regime). Otherwise consecutive runs of
/// same-instruction Equal (resp. Order) needs merge into batched
/// compare HITs of up to `max_batch_size` items — the same knob that
/// chunks posting batches now also sizes the HIT payload itself.
/// Probe and NewTuples needs never batch: their UI is already one form.
fn plan_units(needs: &[TaskNeed], max_batch_size: usize) -> Vec<Vec<usize>> {
    if max_batch_size < 2 {
        return (0..needs.len()).map(|i| vec![i]).collect();
    }
    let batchable = |n: &TaskNeed| matches!(n, TaskNeed::Equal { .. } | TaskNeed::Order { .. });
    let mut units = Vec::new();
    let mut i = 0usize;
    while i < needs.len() {
        if !batchable(&needs[i]) {
            units.push(vec![i]);
            i += 1;
            continue;
        }
        // `need_group_key` carries both the kind prefix ("equal:" /
        // "order:") and the instruction, so key equality is exactly
        // "may share a HIT".
        let key = need_group_key(&needs[i]);
        let mut unit = vec![i];
        let mut j = i + 1;
        while j < needs.len() && unit.len() < max_batch_size && need_group_key(&needs[j]) == key {
            unit.push(j);
            j += 1;
        }
        units.push(unit);
        i = j;
    }
    units
}

/// Contiguous posting batches over units. `max_batch_size == 0` posts
/// the whole wave as one platform batch (HIT groups then form
/// server-side — the historical behavior); otherwise runs of
/// same-template units are chunked so each `post()` carries at most
/// `max_batch_size` specs and a rejected batch abandons only its own
/// needs.
fn batch_ranges(
    needs: &[TaskNeed],
    units: &[Vec<usize>],
    max_batch_size: usize,
) -> Vec<std::ops::Range<usize>> {
    if max_batch_size == 0 || units.is_empty() {
        return std::iter::once(0..units.len()).collect();
    }
    let key_of = |u: &[usize]| need_group_key(&needs[u[0]]);
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for i in 1..=units.len() {
        let split = i == units.len()
            || i - start >= max_batch_size
            || key_of(&units[i]) != key_of(&units[start]);
        if split {
            ranges.push(start..i);
            start = i;
        }
    }
    ranges
}

/// The `(left, right, instruction)` of a compare need.
fn compare_operands(need: &TaskNeed) -> (&String, &String, &String) {
    match need {
        TaskNeed::Equal {
            left,
            right,
            instruction,
        }
        | TaskNeed::Order {
            left,
            right,
            instruction,
        } => (left, right, instruction),
        _ => unreachable!("a compare unit holds only compare needs"),
    }
}

/// Build the platform spec for one post unit. The wire kind is chosen
/// by unit size: a unit of one keeps the classic per-need spec (it is
/// what the platform, the simulator's per-batch error draw and the UI
/// renderer see for a lone comparison); a larger unit becomes a single
/// batched compare HIT whose reward grows sublinearly in the item
/// count, so the per-item price strictly drops (the batching economics
/// the knob is for).
fn unit_spec(
    needs: &[TaskNeed],
    unit: &[usize],
    config: &CrowdConfig,
    templates: &UiTemplateManager,
) -> TaskSpec {
    let first = &needs[unit[0]];
    if unit.len() == 1 {
        return need_to_spec(first, config, templates);
    }
    let pairs = unit
        .iter()
        .map(|&i| {
            let (left, right, _) = compare_operands(&needs[i]);
            (left.clone(), right.clone())
        })
        .collect();
    let instruction = compare_operands(first).2.clone();
    let kind = if matches!(first, TaskNeed::Order { .. }) {
        TaskKind::OrderBatch { pairs, instruction }
    } else {
        TaskKind::EqualBatch { pairs, instruction }
    };
    TaskSpec::new(kind)
        .reward(batched_reward_cents(config.reward_cents, unit.len()))
        .replicate(config.vote.quorum() as u32)
}

/// One fulfillment pass: what [`fulfill_needs`] was called with, and
/// what its three phases — [`post`](Wave::post), [`pump`](Wave::pump),
/// [`settle`](Wave::settle) — hand one another.
struct Wave<'a> {
    db: &'a Database,
    caches: &'a RwLock<CompareCaches>,
    wrm: &'a mut WorkerRelationshipManager,
    templates: &'a UiTemplateManager,
    platform: &'a mut dyn Platform,
    config: &'a CrowdConfig,
    needs: &'a [TaskNeed],
    obs: &'a Obs,
    guard: &'a crate::governor::StatementGuard,
    normalizer: Normalizer,
    summary: FulfillSummary,
    breaker: Breaker,
    /// Virtual seconds this pass has spent — pump steps and backoff
    /// waits alike; HIT deadlines are measured on it.
    elapsed: f64,
    /// One per unit the platform accepted, in unit order.
    trackers: Vec<Tracker>,
    hit_to_tracker: HashMap<HitId, usize>,
    /// `(worker, tracker, voted key)` per accepted delivery, in arrival
    /// order, to pay and score agreement at settle.
    worker_votes: Vec<(WorkerId, usize, Option<String>)>,
    /// Per need: its key is in `summary.exhausted` already.
    exhausted: Vec<bool>,
}

/// Post `needs` to `platform`, pump until resolved (or the governor
/// interrupts, or the breaker trips), quality-control the answers, and
/// memorize them.
///
/// This function upholds the degradation contract: platform failures
/// (post errors, partial batches, abandoned HITs, duplicate or garbled
/// deliveries, extend errors) never abort the statement and never discard
/// answers already collected. Failed posts are retried with capped
/// exponential backoff; HITs that miss their deadline are reposted a
/// bounded number of times; duplicate `(worker, HIT)` deliveries are
/// dropped; a refused extension towards the vote replication is asked
/// again at the next sweep, a bounded number of times; a failed
/// escalation downgrades to a plurality decision; and
/// after `RetryPolicy::breaker_threshold` consecutive failures the
/// platform is marked degraded and every remaining need is converted to
/// an exhausted entry. The summary always comes back `Ok`, with warnings
/// describing whatever was absorbed.
#[allow(clippy::too_many_arguments)]
pub fn fulfill_needs(
    db: &Database,
    caches: &RwLock<CompareCaches>,
    wrm: &mut WorkerRelationshipManager,
    templates: &UiTemplateManager,
    platform: &mut dyn Platform,
    config: &CrowdConfig,
    needs: &[TaskNeed],
    obs: &Obs,
    guard: &crate::governor::StatementGuard,
) -> Result<FulfillSummary> {
    if needs.is_empty() {
        return Ok(FulfillSummary::default());
    }
    let mut wave = Wave {
        db,
        caches,
        wrm,
        templates,
        platform,
        config,
        needs,
        obs,
        guard,
        normalizer: Normalizer::new(),
        summary: FulfillSummary::default(),
        breaker: Breaker::new(config.retry.breaker_threshold),
        elapsed: 0.0,
        trackers: Vec::new(),
        hit_to_tracker: HashMap::new(),
        worker_votes: Vec::new(),
        exhausted: vec![false; needs.len()],
    };
    wave.post();
    wave.pump();
    wave.settle()
}

impl Wave<'_> {
    /// Plan post units (several same-instruction compares may share one
    /// batched HIT), then post the wave: one batch by default, or
    /// same-template chunks of at most `max_batch_size` specs (HIT
    /// groups form on the platform). Every unit the platform accepted
    /// gets a tracker; the needs of a rejected batch are abandoned.
    fn post(&mut self) {
        let (needs, config) = (self.needs, self.config);
        let max_batch_size = config.concurrency.max_batch_size;
        let units = plan_units(needs, max_batch_size);
        let specs: Vec<TaskSpec> = units
            .iter()
            .map(|unit| unit_spec(needs, unit, config, self.templates))
            .collect();
        let mut posted: Vec<Option<HitId>> = vec![None; units.len()];
        let mut rejected: Vec<usize> = Vec::new();
        for range in batch_ranges(needs, &units, max_batch_size) {
            match self.post_with_retry(&specs[range.clone()]) {
                // A platform may accept fewer HITs than specs (partial
                // batch); the unposted tail goes untracked and the next
                // round re-requests it, exactly as before batching.
                Some(ids) => {
                    for (slot, id) in posted[range].iter_mut().zip(ids) {
                        *slot = Some(id);
                    }
                }
                None => rejected.extend(units[range].iter().flatten()),
            }
        }
        for ((unit, spec), hit) in units.into_iter().zip(specs).zip(posted) {
            let Some(hit) = hit else { continue };
            let votes = match &needs[unit[0]] {
                TaskNeed::ProbeValues { columns, .. } => columns.len(),
                TaskNeed::NewTuples { .. } => 0,
                TaskNeed::Equal { .. } | TaskNeed::Order { .. } => unit.len(),
            };
            self.hit_to_tracker.insert(hit, self.trackers.len());
            self.trackers.push(Tracker {
                unit,
                votes: vec![MajorityVote::new(); votes],
                tuples: Vec::new(),
                hit,
                asked: spec.assignments,
                spec,
                deadline: self.elapsed + config.retry.hit_deadline_secs,
                reposts: 0,
                refused_extensions: 0,
                resolved: false,
                pending: Vec::new(),
            });
        }

        // If the platform never accepted any batch every need goes; in
        // the batching regime, where some chunks were rejected while
        // others posted, just the rejected ones.
        let nothing_posted = self.trackers.is_empty();
        if nothing_posted {
            rejected = (0..needs.len()).collect();
        }
        let n = rejected.len();
        if n == 0 {
            return;
        }
        self.summary.crowd.gave_up += n as u64;
        if nothing_posted && self.breaker.tripped {
            self.abandon(rejected, Some(n), format!("{n} task(s) abandoned"));
        } else {
            let which = if nothing_posted { "the" } else { "their" };
            let why = format!("{n} crowd task(s) abandoned: the platform rejected {which} batch");
            self.abandon(rejected, None, why);
        }
    }

    /// Post a batch with bounded retries and backoff; every attempt
    /// hands the platform its own clone of `specs`. Backoff waits
    /// advance platform-virtual time.
    /// Returns `None` when every attempt failed or the breaker tripped.
    fn post_with_retry(&mut self, specs: &[TaskSpec]) -> Option<Vec<HitId>> {
        if self.breaker.tripped {
            return None;
        }
        let policy = &self.config.retry;
        let attempts = policy.max_post_attempts.max(1);
        let liability: u64 = specs
            .iter()
            .map(|s| s.reward_cents as u64 * s.assignments as u64)
            .sum();
        let mut last_err = String::new();
        for attempt in 1..=attempts {
            match self.platform.post(specs.to_vec()) {
                Ok(ids) => {
                    self.breaker.succeeded();
                    self.obs.events().emit(Event::HitsPosted {
                        count: ids.len() as u64,
                        reward_cents: liability,
                    });
                    return Some(ids);
                }
                Err(e) => {
                    self.summary.crowd.post_failures += 1;
                    self.breaker.failed();
                    last_err = e.to_string();
                    if self.breaker.tripped || attempt == attempts {
                        break;
                    }
                    let salt = self
                        .summary
                        .crowd
                        .post_failures
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        ^ u64::from(attempt);
                    let wait = backoff_secs(policy, attempt, salt);
                    self.platform.advance(wait);
                    self.elapsed += wait;
                    self.summary.crowd.retries += 1;
                    self.obs.events().emit(Event::PostRetried {
                        attempt: u64::from(attempt),
                    });
                }
            }
        }
        self.summary
            .warnings
            .push(format!("task posting failed after retries: {last_err}"));
        None
    }

    /// Record that need `ni` could not be resolved — once per pass,
    /// however many of its columns or phases come to say so.
    fn exhaust(&mut self, ni: usize) {
        if !std::mem::replace(&mut self.exhausted[ni], true) {
            self.summary.exhausted.push(self.needs[ni].dedup_key());
        }
    }

    /// Abandon `needs` for this pass — gracefully, not with an error, so
    /// the statement still returns a (partial) result: each is recorded
    /// exhausted and `why` becomes a warning. `degraded` is the task
    /// count to report when the tripped breaker is what abandons them.
    fn abandon(&mut self, needs: Vec<usize>, degraded: Option<usize>, why: String) {
        for ni in needs {
            self.exhaust(ni);
        }
        let Some(tasks) = degraded else {
            self.summary.warnings.push(why);
            return;
        };
        self.summary.crowd.degraded = true;
        self.obs.events().emit(Event::Degraded {
            abandoned: tasks as u64,
        });
        self.summary.warnings.push(format!(
            "platform '{}' marked degraded after {} consecutive failures; {why}",
            self.platform.name(),
            self.breaker.consecutive
        ));
    }

    /// Advance virtual time step by step, feeding arrivals into their
    /// unit's votes and deciding, extending or reposting HITs, until
    /// every tracker is resolved, the governor interrupts or the breaker
    /// trips. Reposts, extensions up to the replication and escalations
    /// are each bounded, so a tracker resolves within a bounded number of
    /// HIT deadlines: one per post, repost and extension.
    fn pump(&mut self) {
        let (needs, config, events) = (self.needs, self.config, self.obs.events());
        let workers = config.concurrency.fulfill_workers.max(1);
        // AMT one-assignment rule: each (worker, HIT) pair may vote once.
        let mut seen: HashSet<(WorkerId, HitId)> = HashSet::new();

        while self.trackers.iter().any(|t| !t.resolved) {
            // Governor checkpoint: a deadline or cancel interrupts the pump
            // *before* the next virtual-time step, so termination lands on a
            // deterministic boundary. Answers already collected still settle
            // — paid work is never discarded.
            if self.guard.interruption(self.platform.now()).is_some() {
                self.summary.warnings.push(
                    "statement interrupted mid-round; settling answers already collected".into(),
                );
                break;
            }
            self.platform.advance(PUMP_STEP_SECS);
            self.elapsed += PUMP_STEP_SECS;
            // Stage arrivals serially: dedup, ban checks, and events depend
            // on arrival order and global state.
            for resp in self.platform.collect() {
                let Some(&ti) = self.hit_to_tracker.get(&resp.hit) else {
                    // Unknown HIT (e.g. orphaned by a partial batch failure).
                    events.emit(Event::HitAnswered { duplicate: false });
                    continue;
                };
                if !seen.insert((resp.worker, resp.hit)) {
                    self.summary.crowd.duplicates_dropped += 1;
                    events.emit(Event::HitAnswered { duplicate: true });
                    continue;
                }
                events.emit(Event::HitAnswered { duplicate: false });
                self.worker_votes.push((resp.worker, ti, None));
                if !self.wrm.is_banned(resp.worker) {
                    let slot = self.worker_votes.len() - 1;
                    self.trackers[ti]
                        .pending
                        .push((slot, resp.worker, resp.answer));
                }
            }

            // QC ingest — normalization and vote tallies, the CPU-heavy pure
            // part and the one phase on the worker pool. Trackers are
            // disjoint, so any schedule computes the same votes; patching
            // the voted keys back by staged slot keeps `worker_votes`
            // byte-identical to the serial path.
            let normalizer = &self.normalizer;
            let voted = par_map_mut(&mut self.trackers, workers, |_, t| {
                let need = &needs[t.unit[0]];
                std::mem::take(&mut t.pending)
                    .into_iter()
                    .map(|(slot, worker, answer)| {
                        (slot, ingest_answer(need, t, worker, &answer, normalizer))
                    })
                    .collect::<Vec<_>>()
            });
            for (slot, key) in voted.into_iter().flatten() {
                self.worker_votes[slot].2 = key;
            }

            self.sweep();
            if self.breaker.tripped {
                let (mut tasks, mut abandoned) = (0, Vec::new());
                for t in self.trackers.iter_mut().filter(|t| !t.resolved) {
                    t.resolved = true;
                    tasks += 1;
                    abandoned.extend(&t.unit);
                }
                let why = format!("abandoning {tasks} open task(s)");
                self.abandon(abandoned, Some(tasks), why);
                break;
            }
        }
        let unresolved = self.trackers.iter().filter(|t| !t.resolved).count();
        if unresolved > 0 {
            self.summary.warnings.push(format!(
                "{unresolved} task(s) did not complete before the interruption"
            ));
        }
    }

    /// One pass over the open trackers: decide completed HITs, repost
    /// abandoned ones.
    fn sweep(&mut self) {
        let config = self.config;
        let policy = &config.retry;
        // Completion and the clock are snapshotted up front: a backoff
        // wait incurred by a mid-sweep repost advances the platform, and
        // must neither complete a later tracker's HIT under it (its new
        // answers are not collected yet) nor move its deadline arithmetic
        // — deadline and budget exhaustion are order-independent by
        // construction.
        let sweep_elapsed = self.elapsed;
        let complete_now: Vec<bool> = self
            .trackers
            .iter()
            .map(|t| !t.resolved && self.platform.is_complete(t.hit))
            .collect();
        for (ti, complete) in complete_now.into_iter().enumerate() {
            if self.breaker.tripped {
                break;
            }
            if self.trackers[ti].resolved {
                continue;
            }
            if complete {
                let t = &mut self.trackers[ti];
                let Some(extra) = extension(&t.votes, &config.vote, t.asked) else {
                    t.resolved = true;
                    continue;
                };
                let escalation = t.asked >= config.vote.replication as u32;
                match self.platform.extend(t.hit, extra) {
                    Ok(()) => {
                        self.breaker.succeeded();
                        t.asked += extra;
                        if escalation {
                            t.votes.iter_mut().for_each(MajorityVote::note_escalation);
                        }
                        t.deadline = sweep_elapsed + policy.hit_deadline_secs;
                    }
                    Err(_) => {
                        self.summary.crowd.extend_failures += 1;
                        // A free extension asks for ballots that posting
                        // the whole replication would have had, so it is
                        // tried again at the next sweep, a bounded number
                        // of times. An escalation unavailable, or a free
                        // extension refused that often: settle for
                        // whatever plurality the collected votes give.
                        // Only the refusal that settles the vote counts
                        // towards the breaker, so a contested vote costs
                        // it one failure however often it was asked.
                        t.refused_extensions += u32::from(!escalation);
                        t.resolved = escalation || t.refused_extensions >= FREE_EXTENSION_ATTEMPTS;
                        if t.resolved {
                            self.breaker.failed();
                        }
                    }
                }
            } else if sweep_elapsed >= self.trackers[ti].deadline {
                // The HIT sat incomplete past its deadline (lost or
                // ignored by workers): repost it, a bounded number of
                // times.
                let reposts = self.trackers[ti].reposts;
                if reposts >= policy.max_reposts {
                    self.obs.events().emit(Event::HitExpired {
                        reposts: u64::from(reposts),
                    });
                    self.trackers[ti].resolved = true;
                    continue;
                }
                let spec = self.trackers[ti].spec.clone();
                let reposted = self.post_with_retry(&[spec]);
                let t = &mut self.trackers[ti];
                match reposted.as_deref() {
                    Some([new_hit, ..]) => {
                        self.summary.crowd.reposts += 1;
                        t.reposts += 1;
                        self.obs.events().emit(Event::HitReposted {
                            repost: u64::from(t.reposts),
                        });
                        t.hit = *new_hit;
                        t.asked = t.spec.assignments;
                        t.deadline = sweep_elapsed + policy.hit_deadline_secs;
                        // Keep the stale HIT mapped: straggler answers to
                        // it still feed the same vote.
                        self.hit_to_tracker.insert(*new_hit, ti);
                    }
                    _ => t.resolved = true,
                }
            }
        }
    }

    /// Truth inference (policy knob). Under `QualityPolicy::Em` the
    /// per-vote verdicts are re-derived from a joint worker-reliability /
    /// answer-posterior estimate over *all* of this pass's votes, Dawid–
    /// Skene style. Crucially the pump already ran entirely on majority
    /// logic — extend/escalate decisions, platform calls, and RNG draws
    /// are byte-identical under either policy; EM only changes what is
    /// *believed* at settle time.
    ///
    /// Returns one entry per vote, trackers in order and each tracker's
    /// votes in order — the order [`settle`](Wave::settle) walks — or
    /// nothing when inference does not run. A vote without ballots has
    /// no verdict (nothing to infer from — majority fallbacks apply).
    fn em_verdicts(&self, trackers: &[Tracker]) -> Vec<Option<VoteOutcome>> {
        let QualityPolicy::Em { max_iters, tol } = self.config.quality else {
            return Vec::new();
        };
        let votes: Vec<&MajorityVote> = trackers.iter().flat_map(|t| &t.votes).collect();
        if votes.iter().all(|v| v.ballots().is_empty()) {
            return Vec::new();
        }
        let tasks: Vec<infer::TaskBallots> = votes.iter().map(|v| v.ballots().to_vec()).collect();
        let solution = infer::infer(&tasks, &EmConfig { max_iters, tol });
        let mut confidences = Vec::new();
        let verdicts = votes
            .iter()
            .enumerate()
            .map(|(task, vote)| {
                let (key, confidence) = solution.map_answer(task)?;
                confidences.push(confidence);
                Some(VoteOutcome::Decided {
                    value: vote.stored(key).cloned().unwrap_or(Value::Bool(false)),
                    votes: vote.count(key),
                    total: vote.total(),
                })
            })
            .collect();
        record_em_round(self.obs.registry(), solution.iters, &confidences);
        verdicts
    }

    /// A vote's final word: the EM verdict when truth inference produced
    /// one for it, the plain majority outcome otherwise. Reports it
    /// (registry counters via `crowddb_quality`, and the `VoteResolved`
    /// event) and returns whether it was decided, and the value to
    /// accept — the decided value, else the plurality leader, else
    /// nothing.
    fn resolve(
        &self,
        kind: &'static str,
        vote: &MajorityVote,
        em: Option<VoteOutcome>,
    ) -> (bool, Option<Value>) {
        let outcome = em.unwrap_or_else(|| vote.outcome(&self.config.vote));
        record_vote_outcome(self.obs.registry(), &outcome);
        // An undecided outcome carries no tally: report the ballots cast.
        let (decided, votes, total) = match &outcome {
            VoteOutcome::Decided { votes, total, .. } => (true, *votes, *total),
            _ => (false, 0, vote.total()),
        };
        self.obs.events().emit(Event::VoteResolved {
            kind,
            decided,
            votes: votes as u64,
            total: total as u64,
        });
        match outcome {
            VoteOutcome::Decided { value, .. } => (true, Some(value)),
            _ => (false, vote.leader().map(|(v, _)| v.clone())),
        }
    }

    /// Settle: one arm per task family. Each tracker's outcome is read
    /// off its votes and applied — write-backs, cache puts, log records,
    /// events, warnings — by the one loop, in tracker (hence need) order;
    /// then the workers are paid and scored.
    fn settle(mut self) -> Result<FulfillSummary> {
        let (needs, db) = (self.needs, self.db);
        let trackers = std::mem::take(&mut self.trackers);
        let mut em = self.em_verdicts(&trackers).into_iter();
        // Per tracker, the answer keys its scored voters are held against.
        let mut winning_keys: Vec<Option<Vec<String>>> = Vec::with_capacity(trackers.len());
        for t in &trackers {
            let mut winners = Vec::new();
            winning_keys.push(match &needs[t.unit[0]] {
                TaskNeed::ProbeValues {
                    table,
                    tid,
                    columns,
                    ..
                } => {
                    let mut fell_back = false;
                    for ((col, name, _), vote) in columns.iter().zip(&t.votes) {
                        let (decided, accepted) = self.resolve("probe", vote, em.next().flatten());
                        fell_back |= !decided;
                        // Accept the leader if any votes exist, otherwise
                        // give up on this value.
                        let Some(value) = accepted else {
                            self.exhaust(t.unit[0]);
                            self.summary.warnings.push(format!(
                                "no usable answers for {table}.{name}; value left CNULL"
                            ));
                            continue;
                        };
                        db.write_back_value(table, *tid, *col, value.clone())?;
                        winners.push(self.normalizer.normalize(&value.to_string()));
                        self.summary.log.push(LogRecord::WriteBackValue {
                            table: table.clone(),
                            tid: *tid,
                            col: *col,
                            value,
                        });
                        if !decided {
                            self.summary.warnings.push(format!(
                                "accepted plurality answer for {table}.{name} without a strict \
                                 majority"
                            ));
                        }
                    }
                    if fell_back {
                        self.summary.crowd.gave_up += 1;
                    }
                    Some(winners)
                }
                TaskNeed::NewTuples {
                    table,
                    preset,
                    want,
                } => {
                    let schema = db.schema(table)?;
                    let mut inserted = 0u64;
                    let rows = t
                        .tuples
                        .iter()
                        .filter_map(|fields| build_tuple(&schema, preset, fields));
                    for row in rows {
                        if inserted >= *want {
                            break;
                        }
                        if db.write_back_tuple(table, row.clone())?.is_some() {
                            self.summary.log.push(LogRecord::WriteBackTuple {
                                table: table.clone(),
                                row,
                            });
                            inserted += 1;
                        }
                    }
                    if inserted < *want {
                        // The open world ran dry: remember so the next round
                        // does not re-request the same work forever.
                        self.summary.crowd.gave_up += 1;
                        self.exhaust(t.unit[0]);
                        self.summary.warnings.push(if inserted == 0 {
                            format!("the crowd contributed no valid new tuples for '{table}'")
                        } else {
                            format!(
                                "the crowd contributed {inserted}/{want} requested tuples for \
                                 '{table}'"
                            )
                        });
                    }
                    None
                }
                first @ (TaskNeed::Equal { .. } | TaskNeed::Order { .. }) => {
                    // Each pair settles on its own vote, whatever shared its
                    // HIT: a strict majority, else the plurality leader, else
                    // a default that lets the query converge (not-equal,
                    // left-preferred).
                    let order = matches!(first, TaskNeed::Order { .. });
                    let kind = if order { "order" } else { "equal" };
                    for (&ni, vote) in t.unit.iter().zip(&t.votes) {
                        let (left, right, instruction) = compare_operands(&needs[ni]);
                        let (decided, accepted) = self.resolve(kind, vote, em.next().flatten());
                        let had_ballots = accepted.is_some();
                        // The defaults: not-equal (false), left-preferred (true).
                        let verdict = accepted.and_then(|v| v.as_bool()).unwrap_or(order);
                        if order {
                            self.caches
                                .write()
                                .put_prefer(left, right, instruction, verdict);
                            self.summary.log.push(LogRecord::PutOrder {
                                left: left.clone(),
                                right: right.clone(),
                                instruction: instruction.clone(),
                                left_preferred: verdict,
                            });
                        } else {
                            self.caches
                                .write()
                                .put_equal(left, right, instruction, verdict);
                            self.summary.log.push(LogRecord::PutEqual {
                                left: left.clone(),
                                right: right.clone(),
                                instruction: instruction.clone(),
                                verdict,
                            });
                        }
                        if decided {
                            // Inherited, not designed: voters are scored
                            // against a *decided* verdict only. A unit
                            // settled by fallbacks alone holds its scored
                            // voters against nothing, and the WRM pass
                            // below then counts each as agreeing.
                            winners.push(verdict_key(order, verdict).to_string());
                            continue;
                        }
                        self.summary.crowd.gave_up += 1;
                        let warning = if order {
                            format!(
                                "accepted fallback preference for CROWDORDER('{left}' vs '{right}')"
                            )
                        } else if had_ballots {
                            format!(
                                "accepted plurality verdict for CROWDEQUAL('{left}', '{right}')"
                            )
                        } else {
                            self.exhaust(ni);
                            format!(
                                "no verdicts for CROWDEQUAL('{left}', '{right}'); assumed FALSE"
                            )
                        };
                        self.summary.warnings.push(warning);
                    }
                    (!winners.is_empty()).then_some(winners)
                }
            });
        }

        // WRM: pay and score workers. Assignments without a voted key (new-
        // tuple contributions, batched compares, or answers QC discarded)
        // are paid but not scored — scoring them as disagreement would
        // eventually ban honest contributors whose task kind simply has no
        // majority vote.
        for (worker, ti, voted) in self.worker_votes {
            // Pay what the posted HIT offered, which is what the platform
            // charged (a batched compare offers more than the base, a
            // volunteer HIT nothing).
            let reward = u64::from(trackers[ti].spec.reward_cents);
            match (voted, &winning_keys[ti]) {
                (Some(key), Some(winners)) => {
                    self.wrm
                        .record_assignment(worker, reward, winners.contains(&key));
                }
                (Some(_), None) => self.wrm.record_assignment(worker, reward, true),
                (None, _) => self.wrm.record_contribution(worker, reward),
            }
        }
        for worker in self.wrm.flagged_workers(BAN_MIN_TASKS, BAN_AGREEMENT) {
            self.wrm.ban(worker);
        }

        self.summary.note_absorbed_faults();
        Ok(self.summary)
    }
}

/// The key a compare verdict is tallied under: a worker's Yes/No
/// (CROWDEQUAL) or Left/Right (CROWDORDER).
fn verdict_key(order: bool, verdict: bool) -> &'static str {
    match (order, verdict) {
        (false, true) => "yes",
        (false, false) => "no",
        (true, true) => "left",
        (true, false) => "right",
    }
}

/// How many times a free extension is asked of the platform, one ask
/// per sweep, before its vote settles by plurality.
const FREE_EXTENSION_ATTEMPTS: u32 = 4;

/// The assignments a completed HIT's extension asks for, given the
/// `asked` assignments its active HIT has asked for so far. `None` when
/// no vote needs another ballot, or the HIT is out of escalations — each
/// vote then settles from what it has (new-tuple collection has no vote
/// to wait for).
///
/// Below the replication `r` an extension is free: it asks the fewest
/// ballots that could decide the most contested vote, never past `r`.
/// At `r` the HIT has asked what posting all `r` up front would have, so
/// from there each extension is one escalation and asks what an
/// escalation always asked — the valid ballots a vote is short of `r`,
/// else one — and a HIT out of escalations asks nothing.
fn extension(
    votes: &[MajorityVote],
    config: &crowddb_quality::VoteConfig,
    asked: u32,
) -> Option<u32> {
    let r = config.replication as u32;
    let free = asked < r;
    let extra = votes
        .iter()
        .filter_map(|vote| {
            let needed = vote.needed(config)? as u32;
            Some(if free {
                needed.min(r - asked)
            } else {
                r.saturating_sub(vote.total() as u32).max(1)
            })
        })
        .max()?;
    // A tracker's votes escalate together, so they share one count.
    let out_of_escalations = votes
        .iter()
        .any(|vote| vote.escalations_used() >= config.max_escalations);
    (free || !out_of_escalations).then_some(extra)
}

/// Feed one answer to the HIT of `need`'s unit into the unit's votes (or
/// collected tuples); returns the normalized key the worker voted for
/// (for agreement scoring). Ballots are recorded with the worker's
/// identity so the EM policy can estimate per-worker reliability at
/// settle time.
fn ingest_answer(
    need: &TaskNeed,
    t: &mut Tracker,
    worker: WorkerId,
    answer: &Answer,
    normalizer: &Normalizer,
) -> Option<String> {
    let w = worker.0;
    match (need, answer) {
        (TaskNeed::ProbeValues { columns, .. }, Answer::Form(fields)) => {
            let mut first_key = None;
            for ((_, name, ty), vote) in columns.iter().zip(t.votes.iter_mut()) {
                if let Some((_, text)) = fields.iter().find(|(f, _)| f == name) {
                    if let Some((key, value)) = normalizer.normalize_typed(text, *ty) {
                        vote.add_from(w, key.clone(), value);
                        first_key.get_or_insert(key);
                    }
                }
            }
            first_key
        }
        (TaskNeed::NewTuples { .. }, Answer::Tuples(tuples)) => {
            t.tuples.extend(tuples.iter().cloned());
            None
        }
        // One verdict per pair lands in that pair's vote. The answer must
        // have the shape that was posted: a bare verdict for a lone
        // pair, a batch of equal arity otherwise.
        (TaskNeed::Equal { .. } | TaskNeed::Order { .. }, answer) => {
            let order = matches!(need, TaskNeed::Order { .. });
            let lone = t.votes.len() == 1;
            let items = match answer {
                Answer::Batch(items) if !lone => items.as_slice(),
                bare => std::slice::from_ref(bare),
            };
            if items.len() != t.votes.len() {
                return None; // malformed arity: QC discards
            }
            let mut voted = None;
            for (vote, item) in t.votes.iter_mut().zip(items) {
                let verdict = match (order, item) {
                    (false, Answer::Yes) | (true, Answer::Left) => true,
                    (false, Answer::No) | (true, Answer::Right) => false,
                    _ => continue, // blank/mismatched item: discarded
                };
                let key = verdict_key(order, verdict);
                vote.add_from(w, key.into(), Value::Bool(verdict));
                voted = Some(key);
            }
            // Inherited, not designed: only a HIT carrying one pair has
            // its voters agreement-scored. Batched voters are paid per
            // assignment but never scored (so `BAN_AGREEMENT` is inert
            // for them); the EM policy weighs them through the ballot
            // record instead.
            voted.filter(|_| lone).map(String::from)
        }
        // Blank or shape-mismatched answers are discarded by QC.
        _ => None,
    }
}

/// Assemble a storable row for a crowdsourced tuple: preset values are
/// authoritative, answered fields are parsed by column type, anything
/// left over defaults to CNULL (it can be crowdsourced later).
fn build_tuple(
    schema: &TableSchema,
    preset: &[(String, Value)],
    fields: &[(String, String)],
) -> Option<Row> {
    let mut values: Vec<Value> = vec![Value::CNull; schema.arity()];
    for (name, v) in preset {
        let idx = schema.column_index(name)?;
        values[idx] = v.clone();
    }
    for (name, text) in fields {
        let Some(idx) = schema.column_index(name) else {
            continue;
        };
        if preset.iter().any(|(p, _)| p == name) {
            continue; // preset values are not overridable by workers
        }
        if let Some(v) = Value::parse_answer(text, schema.columns[idx].data_type) {
            values[idx] = v;
        }
    }
    // Primary-key columns must have concrete values.
    for &pk in &schema.primary_key {
        if values[pk].is_missing() {
            return None;
        }
    }
    Some(Row::new(values))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::{ColumnDef, DataType};
    use crowddb_platform::PlatformStats;
    use crowddb_quality::VoteConfig;

    fn attendee_schema() -> TableSchema {
        TableSchema::new(
            "notableattendee",
            vec![
                ColumnDef::new("name", DataType::Str),
                ColumnDef::new("title", DataType::Str),
            ],
        )
        .unwrap()
        .with_primary_key(&["name"])
        .unwrap()
        .crowd()
    }

    #[test]
    fn build_tuple_with_preset_and_fields() {
        let schema = attendee_schema();
        let row = build_tuple(
            &schema,
            &[("title".into(), Value::str("CrowdDB"))],
            &[("name".into(), " Mike Franklin ".into())],
        )
        .unwrap();
        assert_eq!(row[0], Value::str("Mike Franklin"));
        assert_eq!(row[1], Value::str("CrowdDB"));
    }

    #[test]
    fn build_tuple_requires_pk() {
        let schema = attendee_schema();
        assert!(build_tuple(
            &schema,
            &[("title".into(), Value::str("CrowdDB"))],
            &[("name".into(), "   ".into())],
        )
        .is_none());
    }

    #[test]
    fn build_tuple_ignores_unknown_and_preset_overrides() {
        let schema = attendee_schema();
        let row = build_tuple(
            &schema,
            &[("title".into(), Value::str("CrowdDB"))],
            &[
                ("name".into(), "Sam".into()),
                ("title".into(), "HACKED".into()),
                ("bogus".into(), "x".into()),
            ],
        )
        .unwrap();
        assert_eq!(row[1], Value::str("CrowdDB"), "preset wins");
    }

    #[test]
    fn need_to_spec_probe_uses_template_instructions() {
        let mut templates = UiTemplateManager::new();
        let schema = TableSchema::new(
            "talk",
            vec![
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("abstract", DataType::Str).crowd(),
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap();
        templates.register_schema(&schema);
        templates
            .edit("talk", TemplateKind::Probe, |t| {
                t.instructions = "Check the conference site first.".into();
            })
            .unwrap();
        let need = TaskNeed::ProbeValues {
            table: "talk".into(),
            tid: crowddb_common::TupleId(0),
            context: vec![("title".into(), "CrowdDB".into())],
            columns: vec![(1, "abstract".into(), DataType::Str)],
        };
        let spec = need_to_spec(&need, &CrowdConfig::default(), &templates);
        match spec.kind {
            TaskKind::Probe { instructions, .. } => {
                assert_eq!(instructions, "Check the conference site first.");
            }
            other => panic!("{other:?}"),
        }
        // A quorum of the default 3-way replication: a contested vote
        // is extended towards 3.
        assert_eq!(spec.assignments, 2);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = crate::config::RetryPolicy {
            backoff_base_secs: 10.0,
            backoff_cap_secs: 40.0,
            backoff_jitter: 0.0,
            ..Default::default()
        };
        assert_eq!(backoff_secs(&policy, 1, 0), 10.0);
        assert_eq!(backoff_secs(&policy, 2, 0), 20.0);
        assert_eq!(backoff_secs(&policy, 3, 0), 40.0);
        assert_eq!(backoff_secs(&policy, 9, 0), 40.0, "capped");
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let policy = crate::config::RetryPolicy {
            backoff_base_secs: 100.0,
            backoff_cap_secs: 100.0,
            backoff_jitter: 0.25,
            ..Default::default()
        };
        for salt in 0..200 {
            let w = backoff_secs(&policy, 1, salt);
            assert!((75.0..=125.0).contains(&w), "salt {salt}: {w}");
            assert_eq!(w, backoff_secs(&policy, 1, salt), "deterministic");
        }
    }

    #[test]
    fn breaker_trips_after_threshold_and_resets_on_success() {
        let mut b = Breaker::new(3);
        b.failed();
        b.failed();
        b.succeeded();
        b.failed();
        b.failed();
        assert!(!b.tripped);
        b.failed();
        assert!(b.tripped);
    }

    /// Scripted platform for the sweep-clock regression test below: two
    /// Equal needs, the "b" need's HIT completes once (forcing an extend
    /// and therefore a *later* deadline than "a"), the "a" need's first
    /// repost attempt fails once (forcing a 10-step retry backoff
    /// mid-sweep).
    struct SweepClockPlatform {
        now: f64,
        post_calls: u32,
        next_hit: u64,
        b_first_hit: Option<HitId>,
        delivered: bool,
    }

    impl SweepClockPlatform {
        fn new() -> SweepClockPlatform {
            SweepClockPlatform {
                now: 0.0,
                post_calls: 0,
                next_hit: 0,
                b_first_hit: None,
                delivered: false,
            }
        }
    }

    impl Platform for SweepClockPlatform {
        fn name(&self) -> &str {
            "sweep-clock"
        }
        fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
            self.post_calls += 1;
            if self.post_calls == 2 {
                // The first repost attempt (always need "a": it is the
                // only tracker past its deadline at that sweep) fails,
                // forcing a retry backoff that advances the live clock.
                return Err(crowddb_common::CrowdError::Platform(
                    "transient outage".into(),
                ));
            }
            Ok(tasks
                .iter()
                .map(|spec| {
                    self.next_hit += 1;
                    let hit = HitId(self.next_hit);
                    if let TaskKind::Equal { left, .. } = &spec.kind {
                        if left.starts_with('b') && self.b_first_hit.is_none() {
                            self.b_first_hit = Some(hit);
                        }
                    }
                    hit
                })
                .collect())
        }
        fn extend(&mut self, _hit: HitId, _extra: u32) -> Result<()> {
            Ok(())
        }
        fn advance(&mut self, dt: f64) {
            self.now += dt;
        }
        fn collect(&mut self) -> Vec<crowddb_platform::TaskResponse> {
            if self.delivered || self.now < PUMP_STEP_SECS {
                return vec![];
            }
            self.delivered = true;
            let hit = self.b_first_hit.expect("b posted before first pump");
            vec![crowddb_platform::TaskResponse {
                hit,
                worker: crowddb_platform::WorkerId(1),
                answer: Answer::Yes,
                completed_at: self.now,
            }]
        }
        fn now(&self) -> f64 {
            self.now
        }
        fn stats(&self) -> crowddb_platform::PlatformStats {
            crowddb_platform::PlatformStats {
                hits_posted: self.next_hit,
                ..Default::default()
            }
        }
        fn is_complete(&self, hit: HitId) -> bool {
            // Only b's original HIT, and only at the first sweep: one
            // vote, short of its quorum of two, forces an extension,
            // whose success gives b a deadline one pump step later than
            // a's.
            self.b_first_hit == Some(hit) && self.now <= 1.5 * PUMP_STEP_SECS
        }
    }

    fn sweep_need(tag: &str) -> TaskNeed {
        TaskNeed::Equal {
            left: format!("{tag}-left"),
            right: format!("{tag}-right"),
            instruction: "same thing?".into(),
        }
    }

    /// Everything one fulfillment pass leaves behind.
    struct Settled {
        summary: FulfillSummary,
        caches: RwLock<CompareCaches>,
        wrm: WorkerRelationshipManager,
        obs: std::sync::Arc<Obs>,
    }

    fn fulfill(config: &CrowdConfig, needs: &[TaskNeed], platform: &mut dyn Platform) -> Settled {
        fulfill_in(&Database::new(), config, needs, platform)
    }

    /// One pass under `config.governor`, as a statement starting at the
    /// platform's current clock would run it.
    fn fulfill_in(
        db: &Database,
        config: &CrowdConfig,
        needs: &[TaskNeed],
        platform: &mut dyn Platform,
    ) -> Settled {
        let caches = RwLock::default();
        let mut wrm = WorkerRelationshipManager::new();
        let obs = Obs::new();
        let guard = crate::governor::StatementGuard::new(
            &config.governor,
            &crate::governor::CancelToken::new(),
            platform.now(),
        );
        let summary = fulfill_needs(
            db,
            &caches,
            &mut wrm,
            &UiTemplateManager::new(),
            platform,
            config,
            needs,
            &obs,
            &guard,
        )
        .unwrap();
        Settled {
            summary,
            caches,
            wrm,
            obs,
        }
    }

    /// Replication 3, one escalation, 2¢ base reward.
    fn vote_three_escalate_once(quality: QualityPolicy) -> CrowdConfig {
        CrowdConfig {
            reward_cents: 2,
            vote: crowddb_quality::VoteConfig {
                replication: 3,
                max_escalations: 1,
            },
            quality,
            ..CrowdConfig::default()
        }
    }

    fn vote_resolved_events(obs: &Obs) -> Vec<Event> {
        obs.events()
            .records()
            .into_iter()
            .map(|r| r.event)
            .filter(|e| matches!(e, Event::VoteResolved { .. }))
            .collect()
    }

    /// Times in pump steps: a 20-step statement deadline, a 10-step
    /// backoff and a 5-step HIT deadline.
    fn run_sweep(order: [&str; 2]) -> (FulfillSummary, u64) {
        let mut config = CrowdConfig::default();
        config.governor.deadline_virtual_secs = Some(20.0 * PUMP_STEP_SECS);
        config.vote = crowddb_quality::VoteConfig::replicated(3);
        config.retry = crate::config::RetryPolicy {
            max_post_attempts: 2,
            backoff_base_secs: 10.0 * PUMP_STEP_SECS,
            backoff_cap_secs: 10.0 * PUMP_STEP_SECS,
            backoff_jitter: 0.0,
            hit_deadline_secs: 5.0 * PUMP_STEP_SECS,
            max_reposts: 2,
            breaker_threshold: 100,
        };
        let needs: Vec<TaskNeed> = order.iter().map(|t| sweep_need(t)).collect();
        let mut platform = SweepClockPlatform::new();
        let summary = fulfill(&config, &needs, &mut platform).summary;
        (summary, platform.stats().hits_posted)
    }

    /// Regression: the decision sweep snapshots the clock up front, so a
    /// retry backoff incurred by one tracker's repost must not expire
    /// trackers later in iteration order. Before the snapshot, order
    /// [a, b] saw a's 10-step backoff push the live clock past b's extended
    /// deadline mid-sweep — b was reposted a sweep early and the two
    /// orders produced different accounting.
    #[test]
    fn budget_exhaustion_is_order_independent() {
        let ab = run_sweep(["a", "b"]);
        let ba = run_sweep(["b", "a"]);
        let key = |(s, hits_posted): &(FulfillSummary, u64)| {
            let mut exhausted = s.exhausted.clone();
            exhausted.sort();
            (*hits_posted, s.crowd, exhausted)
        };
        assert_eq!(key(&ab), key(&ba), "need order must not change accounting");
        // a expires twice (deadlines at steps 5 then 10), b once (step 6,
        // checked against the sweep clock, not the post-backoff clock).
        let (ab, hits_posted) = ab;
        assert_eq!(ab.crowd.reposts, 3, "a twice, b once: {ab:?}");
        assert_eq!(hits_posted, 5, "2 initial + 3 reposts");
        assert_eq!(ab.crowd.post_failures, 1);
        assert_eq!(ab.crowd.retries, 1);
    }

    #[test]
    fn need_to_spec_new_tuples_excludes_preset_columns() {
        let mut templates = UiTemplateManager::new();
        templates.register_schema(&attendee_schema());
        let need = TaskNeed::NewTuples {
            table: "notableattendee".into(),
            preset: vec![("title".into(), Value::str("CrowdDB"))],
            want: 3,
        };
        let spec = need_to_spec(&need, &CrowdConfig::default(), &templates);
        match spec.kind {
            TaskKind::NewTuples {
                columns, preset, ..
            } => {
                assert_eq!(columns.len(), 1);
                assert_eq!(columns[0].0, "name");
                assert_eq!(preset[0], ("title".into(), "CrowdDB".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    // -----------------------------------------------------------------
    // The settle table: what one compare unit leaves behind, for
    // CROWDEQUAL and CROWDORDER, as its own HIT and inside a batch of two.
    // -----------------------------------------------------------------

    const INSTRUCTION: &str = "same thing?";

    fn compare_need(order: bool, j: usize) -> TaskNeed {
        let (left, right, instruction) = (format!("l{j}"), format!("r{j}"), INSTRUCTION.into());
        if order {
            TaskNeed::Order {
                left,
                right,
                instruction,
            }
        } else {
            TaskNeed::Equal {
                left,
                right,
                instruction,
            }
        }
    }

    /// One scripted assignment. `y` is the affirmative verdict (Yes /
    /// Left), `n` the negative (No / Right), anything else a blank; a
    /// bracketed entry is a batch answer with one verdict per char.
    fn scripted_answer(order: bool, entry: &str) -> Answer {
        let item = |c: char| match (c, order) {
            ('y', false) => Answer::Yes,
            ('n', false) => Answer::No,
            ('y', true) => Answer::Left,
            ('n', true) => Answer::Right,
            _ => Answer::Blank,
        };
        match entry.strip_prefix('[').and_then(|e| e.strip_suffix(']')) {
            Some(items) => Answer::Batch(items.chars().map(item).collect()),
            None => item(entry.chars().next().unwrap_or('_')),
        }
    }

    /// Post `items` same-instruction compares as one unit (`items` 1 at
    /// `max_batch_size` 0, `items` 2 at 2) to a mock whose assignment
    /// `k` answers `script[k]`, and blank past the end of the script.
    /// Replication 3, one escalation, 2¢ base reward.
    fn run_compare_unit(order: bool, items: usize, script: Vec<String>) -> Settled {
        let mut config = vote_three_escalate_once(QualityPolicy::MajorityVote);
        config.concurrency.max_batch_size = if items == 1 { 0 } else { items };
        let needs: Vec<TaskNeed> = (0..items).map(|j| compare_need(order, j)).collect();
        let mut platform = crowddb_platform::MockPlatform::new(Box::new(move |kind, ordinal| {
            // The wire kind is chosen by unit size.
            let batch = match (kind, order) {
                (TaskKind::Equal { .. }, false) | (TaskKind::Order { .. }, true) => None,
                (TaskKind::EqualBatch { pairs, .. }, false)
                | (TaskKind::OrderBatch { pairs, .. }, true) => Some(pairs.len()),
                other => panic!("unexpected task {other:?}"),
            };
            assert_eq!(batch.unwrap_or(1), items, "{kind:?}");
            match (script.get(ordinal as usize), batch) {
                (Some(entry), _) => scripted_answer(order, entry),
                (None, None) => Answer::Blank,
                (None, Some(n)) => Answer::Batch(vec![Answer::Blank; n]),
            }
        }));
        let settled = fulfill(&config, &needs, &mut platform);
        // Every collected assignment was paid what the unit's HIT offered.
        let stats = platform.stats();
        assert_eq!(stats.hits_posted, 1);
        assert_eq!(settled.wrm.total_paid_cents(), stats.cents_spent);
        assert_eq!(
            stats.cents_spent,
            stats.assignments_completed * u64::from(batched_reward_cents(2, items))
        );
        settled
    }

    /// One item's expected settlement.
    struct ItemOutcome {
        /// The verdict memorized for the pair.
        verdict: bool,
        /// Votes for the winner when a strict majority decided.
        decided: Option<u64>,
        /// Ballots that reached the item's vote.
        total: u64,
    }

    /// Assert everything a settled unit left behind. `scored` has one
    /// char per worker in arrival order: `a` the WRM scored an agreeing
    /// assignment, `d` a disagreeing one, `c` an unscored contribution.
    fn assert_unit(label: &str, order: bool, s: &Settled, items: &[ItemOutcome], scored: &str) {
        let mut log = Vec::new();
        let mut warnings = Vec::new();
        let mut exhausted = Vec::new();
        let mut events = Vec::new();
        for (j, item) in items.iter().enumerate() {
            let (left, right) = (format!("l{j}"), format!("r{j}"));
            let cached = if order {
                s.caches.read().get_prefer(&left, &right, INSTRUCTION)
            } else {
                s.caches.read().get_equal(&left, &right, INSTRUCTION)
            };
            assert_eq!(cached, Some(item.verdict), "{label}: cached verdict {j}");
            events.push(Event::VoteResolved {
                kind: if order { "order" } else { "equal" },
                decided: item.decided.is_some(),
                votes: item.decided.unwrap_or(0),
                total: item.total,
            });
            if item.decided.is_none() {
                warnings.push(match (order, item.total) {
                    (true, _) => format!(
                        "accepted fallback preference for CROWDORDER('{left}' vs '{right}')"
                    ),
                    (false, 0) => {
                        exhausted.push(compare_need(order, j).dedup_key());
                        format!("no verdicts for CROWDEQUAL('{left}', '{right}'); assumed FALSE")
                    }
                    (false, _) => {
                        format!("accepted plurality verdict for CROWDEQUAL('{left}', '{right}')")
                    }
                });
            }
            let instruction = INSTRUCTION.to_string();
            log.push(if order {
                LogRecord::PutOrder {
                    left,
                    right,
                    instruction,
                    left_preferred: item.verdict,
                }
            } else {
                LogRecord::PutEqual {
                    left,
                    right,
                    instruction,
                    verdict: item.verdict,
                }
            });
        }
        assert_eq!(s.summary.log, log, "{label}: log");
        assert_eq!(s.summary.warnings, warnings, "{label}: warnings");
        assert_eq!(s.summary.exhausted, exhausted, "{label}: exhausted");
        assert_eq!(
            s.summary.crowd.gave_up,
            warnings.len() as u64,
            "{label}: gave_up"
        );
        let resolved = vote_resolved_events(&s.obs);
        assert_eq!(resolved, events, "{label}: VoteResolved events");
        assert_eq!(
            wrm_scoring(&s.wrm),
            scored,
            "{label}: WRM scoring per worker"
        );
    }

    /// How the WRM recorded each worker's one assignment, in arrival
    /// order: `a` scored as agreeing, `d` as disagreeing, `c` an unscored
    /// contribution. One scored assignment moves the Laplace-smoothed
    /// rate off its 1/2 prior: 2/3 agreed, 1/3 disagreed; a contribution
    /// leaves it.
    fn wrm_scoring(wrm: &WorkerRelationshipManager) -> String {
        (0..wrm.community_size() as u64)
            .map(
                |w| match wrm.agreement_rate(crowddb_platform::WorkerId(w)) {
                    Some(r) if r > 0.6 => 'a',
                    Some(r) if r < 0.4 => 'd',
                    Some(_) => 'c',
                    None => '?',
                },
            )
            .collect()
    }

    /// One item's scripted ballots for assignment ordinals 0–2 and what
    /// they must settle to. The HIT asks for ordinals 0–1 (a quorum of
    /// three), ordinal 2 while a vote is split or short, and past that
    /// escalates; every escalation assignment answers blank. An item
    /// decided by ordinals 0–1 leaves ordinal 2 blank, so when a partner
    /// on its HIT asks for ordinal 2 the item's tally does not move.
    struct ItemCase {
        ballots: &'static str,
        /// Assignments the item's HIT asks for in all when the item is
        /// alone on it (a shared HIT asks the most any of its items asks).
        asks: usize,
        decided: Option<u64>,
        total: u64,
        /// Verdict memorized when the item is a CROWDEQUAL pair / a
        /// CROWDORDER pair. They differ on an exact tie, which goes to
        /// the smaller key: `no` < `yes` but `left` < `right`.
        equal: bool,
        order: bool,
        /// WRM view of each worker when the item is its own HIT.
        scored: &'static str,
    }

    const ITEM_CASES: [ItemCase; 7] = [
        // A quorum agrees: ordinal 2 is never asked.
        ItemCase {
            ballots: "yy_",
            asks: 2,
            decided: Some(2),
            total: 2,
            equal: true,
            order: true,
            scored: "aa",
        },
        // Strict majorities, one dissenter each: the split asks for the
        // replication's third ballot, free, and it decides.
        ItemCase {
            ballots: "yny",
            asks: 3,
            decided: Some(2),
            total: 3,
            equal: true,
            order: true,
            scored: "ada",
        },
        ItemCase {
            ballots: "nyn",
            asks: 3,
            decided: Some(2),
            total: 3,
            equal: false,
            order: false,
            scored: "ada",
        },
        // A split the escalation does not resolve: the plurality leader
        // of an exact tie is accepted, and on a lone HIT both voters
        // score as agreeing with it.
        ItemCase {
            ballots: "yn_",
            asks: 4,
            decided: None,
            total: 2,
            equal: false,
            order: true,
            scored: "aacc",
        },
        // Too few valid ballots after escalation: the leader, which is
        // not the kind's default for `y`/Equal and `n`/Order.
        ItemCase {
            ballots: "y__",
            asks: 5,
            decided: None,
            total: 1,
            equal: true,
            order: true,
            scored: "acccc",
        },
        ItemCase {
            ballots: "n__",
            asks: 5,
            decided: None,
            total: 1,
            equal: false,
            order: false,
            scored: "acccc",
        },
        // No ballots at all: Equal assumes FALSE and is exhausted, Order
        // assumes the left operand.
        ItemCase {
            ballots: "___",
            asks: 6,
            decided: None,
            total: 0,
            equal: false,
            order: true,
            scored: "cccccc",
        },
    ];

    #[test]
    fn settle_table_equal_and_order_as_units_of_one_and_two() {
        for order in [false, true] {
            for size in [1usize, 2] {
                for first in 0..ITEM_CASES.len() {
                    let unit: Vec<&ItemCase> = (0..size)
                        .map(|k| &ITEM_CASES[(first + k) % ITEM_CASES.len()])
                        .collect();
                    let script = (0..3)
                        .map(|o| {
                            let verdicts: String =
                                unit.iter().map(|c| &c.ballots[o..o + 1]).collect();
                            if size == 1 {
                                verdicts
                            } else {
                                format!("[{verdicts}]")
                            }
                        })
                        .collect();
                    let settled = run_compare_unit(order, size, script);
                    let items: Vec<ItemOutcome> = unit
                        .iter()
                        .map(|c| ItemOutcome {
                            verdict: if order { c.order } else { c.equal },
                            decided: c.decided,
                            total: c.total,
                        })
                        .collect();
                    // Inherited, not designed: only a HIT carrying one
                    // pair has its voters agreement-scored.
                    let scored = if size == 1 {
                        unit[0].scored.to_string()
                    } else {
                        "c".repeat(unit.iter().map(|c| c.asks).max().unwrap())
                    };
                    let label = format!(
                        "{} x{size} {:?}",
                        if order { "order" } else { "equal" },
                        unit.iter().map(|c| c.ballots).collect::<Vec<_>>()
                    );
                    assert_unit(&label, order, &settled, &items, &scored);
                }
            }
        }
    }

    #[test]
    fn settle_table_discards_answers_of_the_wrong_shape() {
        for order in [false, true] {
            // A lone pair takes a bare verdict; a batch answer to it is
            // discarded (that worker is paid, not scored). y alone asks
            // the replication's third assignment; y + n escalate once,
            // and that y decides 2 of 3.
            let script = ["y", "[y]", "n", "y"].map(String::from).to_vec();
            let settled = run_compare_unit(order, 1, script);
            let items = [ItemOutcome {
                verdict: true,
                decided: Some(2),
                total: 3,
            }];
            assert_unit("lone pair", order, &settled, &items, "acda");

            // A batch of two takes a batch answer of arity two: the
            // one-item answer and the bare verdict are discarded whole,
            // a blank item only skips its own vote. Item 0 gets y,y
            // (decided) and, from the escalation item 1 asks, one more y;
            // item 1 gets one y — short of a quorum once the escalation
            // is spent, so its leader is accepted.
            let script = ["[yy]", "[y]", "[y_]", "[y_]", "y"]
                .map(String::from)
                .to_vec();
            let settled = run_compare_unit(order, 2, script);
            let items = [
                ItemOutcome {
                    verdict: true,
                    decided: Some(3),
                    total: 3,
                },
                ItemOutcome {
                    verdict: true,
                    decided: None,
                    total: 1,
                },
            ];
            assert_unit("batch of two", order, &settled, &items, "ccccc");
        }
    }

    // -----------------------------------------------------------------
    // The settle tables of the other two families: what one probe HIT
    // asking two columns of a row, and one new-tuples HIT wanting two
    // rows, leave behind.
    // -----------------------------------------------------------------

    /// What assignment `k` types into a field, from the column's ballot
    /// string: a letter is an abstract, a digit an attendance, anything
    /// else (and every assignment past the end) leaves the field empty.
    fn typed(ballots: &str, k: u32) -> String {
        match ballots.as_bytes().get(k as usize) {
            Some(b'a') => "Alpha",
            Some(b'b') => "Beta",
            Some(b'c') => "Gamma",
            Some(b'1') => "100",
            Some(b'2') => "200",
            _ => "",
        }
        .to_string()
    }

    struct ProbeCase {
        label: &'static str,
        /// Ballots per asked column, one char per assignment ordinal.
        ballots: [&'static str; 2],
        quality: QualityPolicy,
        extend_fails: bool,
        /// The value written back per column; `None` leaves it CNULL.
        wrote: [Option<Value>; 2],
        /// `VoteResolved` per column: votes for a decided winner, ballots.
        resolved: [(Option<u64>, u64); 2],
        warnings: &'static [&'static str],
        gave_up: u64,
        /// Times the need's key is pushed to `exhausted`.
        exhausted: usize,
        scored: &'static str,
    }

    fn probe_cases() -> Vec<ProbeCase> {
        vec![
            // A worker's voted key is that of the first column they
            // answered, scored against the winners of every column. Both
            // columns split on the quorum and the third ballot decides.
            ProbeCase {
                label: "strict majority",
                ballots: ["aba", "121"],
                quality: QualityPolicy::MajorityVote,
                extend_fails: false,
                wrote: [Some(Value::str("Alpha")), Some(Value::Int(100))],
                resolved: [(Some(2), 3), (Some(2), 3)],
                warnings: &[],
                gave_up: 0,
                exhausted: 0,
                scored: "ada",
            },
            // Two answers, unlike: the vote asks for one more, the
            // platform refuses at each of the four sweeps that ask
            // (`FREE_EXTENSION_ATTEMPTS`), and the leader of the tie
            // (smallest key) is accepted. The attendance's quorum already
            // decided it.
            ProbeCase {
                label: "plurality after failed extend",
                ballots: ["ab", "11"],
                quality: QualityPolicy::MajorityVote,
                extend_fails: true,
                wrote: [Some(Value::str("Alpha")), Some(Value::Int(100))],
                resolved: [(None, 2), (Some(2), 2)],
                warnings: &[
                    "accepted plurality answer for talk.abstract without a strict majority",
                    "platform faults absorbed: 0 post failure(s) (0 retried), 4 extend \
                     failure(s), 0 duplicate answer(s) dropped, 0 HIT(s) reposted",
                ],
                gave_up: 1,
                exhausted: 0,
                scored: "ad",
            },
            // The blank column asks for the replication's third
            // assignment and then escalates by three more, which answer
            // nothing at all.
            ProbeCase {
                label: "one column blank",
                ballots: ["___", "111"],
                quality: QualityPolicy::MajorityVote,
                extend_fails: false,
                wrote: [None, Some(Value::Int(100))],
                resolved: [(None, 0), (Some(3), 3)],
                warnings: &["no usable answers for talk.abstract; value left CNULL"],
                gave_up: 1,
                exhausted: 1,
                scored: "aaaccc",
            },
            // Two unanswered columns, one exhausted need.
            ProbeCase {
                label: "all blank",
                ballots: ["___", "___"],
                quality: QualityPolicy::MajorityVote,
                extend_fails: false,
                wrote: [None, None],
                resolved: [(None, 0), (None, 0)],
                warnings: &[
                    "no usable answers for talk.abstract; value left CNULL",
                    "no usable answers for talk.nb; value left CNULL",
                ],
                gave_up: 1,
                exhausted: 1,
                scored: "cccccc",
            },
            // One ballot each way on the abstract, which the escalation
            // (a blank form) does not break. Majority would accept the
            // tie's leader, Alpha, as a fallback; EM trusts the worker
            // who sided with the attendance majority and decides Beta.
            ProbeCase {
                label: "EM verdict overriding a tie",
                ballots: ["ba_", "121"],
                quality: QualityPolicy::em(),
                extend_fails: false,
                wrote: [Some(Value::str("Beta")), Some(Value::Int(100))],
                resolved: [(Some(1), 2), (Some(2), 3)],
                warnings: &[],
                gave_up: 0,
                exhausted: 0,
                scored: "adac",
            },
        ]
    }

    #[test]
    fn settle_table_probe_of_two_columns() {
        let schema = TableSchema::new(
            "talk",
            vec![
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("abstract", DataType::Str).crowd(),
                ColumnDef::new("nb", DataType::Int).crowd(),
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap();
        for case in probe_cases() {
            let label = case.label;
            let db = Database::new();
            db.create_table(schema.clone()).unwrap();
            let stored = Row::new(vec![Value::str("CrowdDB"), Value::CNull, Value::CNull]);
            let tid = db.insert("talk", stored).unwrap();
            let need = TaskNeed::ProbeValues {
                table: "talk".into(),
                tid,
                context: vec![("title".into(), "CrowdDB".into())],
                columns: vec![
                    (1, "abstract".into(), DataType::Str),
                    (2, "nb".into(), DataType::Int),
                ],
            };
            let ballots = case.ballots;
            let mock = crowddb_platform::MockPlatform::new(Box::new(move |kind, k| {
                assert!(matches!(kind, TaskKind::Probe { .. }), "{kind:?}");
                Answer::Form(vec![
                    ("abstract".into(), typed(ballots[0], k)),
                    ("nb".into(), typed(ballots[1], k)),
                ])
            }));
            let mut faults = crowddb_platform::FaultConfig::none(0);
            faults.extend_fail_rate = if case.extend_fails { 1.0 } else { 0.0 };
            let mut platform = crowddb_platform::FaultyPlatform::new(mock, faults);
            let config = vote_three_escalate_once(case.quality);
            let s = fulfill_in(&db, &config, std::slice::from_ref(&need), &mut platform);

            let row = db.with_table("talk", |t| t.get(tid)).unwrap().unwrap();
            let row = row.expect("the probed row");
            let mut log = Vec::new();
            let mut events = Vec::new();
            for (j, col) in [1usize, 2].into_iter().enumerate() {
                let value = case.wrote[j].clone();
                assert_eq!(row[col], value.clone().unwrap_or(Value::CNull), "{label}");
                log.extend(value.map(|value| LogRecord::WriteBackValue {
                    table: "talk".into(),
                    tid,
                    col,
                    value,
                }));
                let (decided, total) = case.resolved[j];
                events.push(Event::VoteResolved {
                    kind: "probe",
                    decided: decided.is_some(),
                    votes: decided.unwrap_or(0),
                    total,
                });
            }
            assert_eq!(s.summary.log, log, "{label}: log");
            assert_eq!(vote_resolved_events(&s.obs), events, "{label}: events");
            assert_eq!(s.summary.warnings, case.warnings, "{label}: warnings");
            assert_eq!(s.summary.crowd.gave_up, case.gave_up, "{label}: gave_up");
            assert_eq!(
                s.summary.exhausted,
                vec![need.dedup_key(); case.exhausted],
                "{label}: exhausted"
            );
            assert_eq!(wrm_scoring(&s.wrm), case.scored, "{label}: WRM scoring");
            // Every assignment, scored or not, is paid the base reward.
            assert_eq!(platform.stats().hits_posted, 1, "{label}");
            assert_eq!(
                s.wrm.total_paid_cents(),
                2 * case.scored.len() as u64,
                "{label}: paid"
            );
        }
    }

    /// The WRM pays each assignment what its posted HIT offered, so its
    /// ledger reconciles with the platform's bill: a volunteer (0¢) probe
    /// wave, and a batched compare wave, whose HIT offers more than the
    /// base.
    #[test]
    fn wrm_earnings_equal_the_platform_bill() {
        let schema = TableSchema::new(
            "talk",
            vec![
                ColumnDef::new("title", DataType::Str),
                ColumnDef::new("abstract", DataType::Str).crowd(),
            ],
        )
        .unwrap()
        .with_primary_key(&["title"])
        .unwrap();
        let db = Database::new();
        db.create_table(schema).unwrap();
        let tid = db
            .insert("talk", Row::new(vec![Value::str("CrowdDB"), Value::CNull]))
            .unwrap();
        let probe = TaskNeed::ProbeValues {
            table: "talk".into(),
            tid,
            context: vec![("title".into(), "CrowdDB".into())],
            columns: vec![(1, "abstract".into(), DataType::Str)],
        };
        let compares = (0..2).map(|j| compare_need(false, j)).collect();
        for (label, max_batch_size, needs) in [
            ("0¢ probe", 0, vec![probe]),
            ("batched compare", 2, compares),
        ] {
            let mut config = vote_three_escalate_once(QualityPolicy::MajorityVote);
            config.reward_cents = 0;
            config.concurrency.max_batch_size = max_batch_size;
            let mut platform = crowddb_platform::MockPlatform::unanimous(|kind| match kind {
                TaskKind::Probe { asked, .. } => Answer::Form(
                    asked
                        .iter()
                        .map(|(c, _)| (c.clone(), "an abstract".to_string()))
                        .collect(),
                ),
                TaskKind::EqualBatch { pairs, .. } => Answer::Batch(vec![Answer::Yes; pairs.len()]),
                _ => Answer::Yes,
            });
            let s = fulfill_in(&db, &config, &needs, &mut platform);
            let stats = platform.stats();
            assert!(stats.assignments_completed > 0, "{label}");
            assert_eq!(s.wrm.total_paid_cents(), stats.cents_spent, "{label}");
        }
    }

    #[test]
    fn settle_table_new_tuples_wanting_two() {
        // Per case: the name each of the three assignments contributes
        // (`-`: a blank answer), the names inserted, and the warning.
        let cases = [
            ("3 valid", ["Ann", "Bob", "Cy"], "Ann Bob", None),
            (
                "1 valid + 1 missing PK + 1 duplicate key",
                ["Ann", "  ", "Ann"],
                "Ann",
                Some("the crowd contributed 1/2 requested tuples for 'notableattendee'"),
            ),
            (
                "none",
                ["-", "-", "-"],
                "",
                Some("the crowd contributed no valid new tuples for 'notableattendee'"),
            ),
        ];
        let need = TaskNeed::NewTuples {
            table: "notableattendee".into(),
            preset: vec![("title".into(), Value::str("CrowdDB"))],
            want: 2,
        };
        for (label, contributed, inserted, warning) in cases {
            let db = Database::new();
            db.create_table(attendee_schema()).unwrap();
            let mut platform = crowddb_platform::MockPlatform::new(Box::new(move |kind, k| {
                assert!(matches!(kind, TaskKind::NewTuples { .. }), "{kind:?}");
                match contributed[k as usize] {
                    "-" => Answer::Blank,
                    name => Answer::Tuples(vec![vec![("name".into(), name.into())]]),
                }
            }));
            let config = vote_three_escalate_once(QualityPolicy::MajorityVote);
            let s = fulfill_in(&db, &config, std::slice::from_ref(&need), &mut platform);

            let rows: Vec<Row> = inserted
                .split_whitespace()
                .map(|name| Row::new(vec![Value::str(name), Value::str("CrowdDB")]))
                .collect();
            let stored: Vec<Row> = db
                .with_table("notableattendee", |t| t.scan_rows())
                .unwrap()
                .unwrap()
                .into_iter()
                .map(|(_, row)| row)
                .collect();
            assert_eq!(stored, rows, "{label}: stored rows");
            let log: Vec<LogRecord> = rows
                .into_iter()
                .map(|row| LogRecord::WriteBackTuple {
                    table: "notableattendee".into(),
                    row,
                })
                .collect();
            assert_eq!(s.summary.log, log, "{label}: log");
            let short = warning.is_some();
            assert_eq!(
                s.summary.warnings,
                warning.into_iter().collect::<Vec<_>>(),
                "{label}: warnings"
            );
            assert_eq!(
                s.summary.crowd.gave_up,
                u64::from(short),
                "{label}: gave_up"
            );
            assert_eq!(
                s.summary.exhausted,
                vec![need.dedup_key(); usize::from(short)],
                "{label}: exhausted"
            );
            // Contributions are paid and never agreement-scored.
            assert_eq!(wrm_scoring(&s.wrm), "ccc", "{label}: WRM scoring");
            assert_eq!(s.wrm.total_paid_cents(), 6, "{label}: paid");
            assert_eq!(vote_resolved_events(&s.obs), vec![], "{label}: events");
        }
    }

    // -----------------------------------------------------------------
    // A quorum first, extended while contested, settles what posting the
    // whole replication up front settled.
    // -----------------------------------------------------------------

    /// How one rule left a vote over a ballot sequence: the assignments
    /// its HIT asked for, whether the vote was decided, and the value it
    /// accepts (the decided value, else the plurality leader).
    #[derive(Debug, PartialEq)]
    struct Ran {
        asked: usize,
        decided: bool,
        value: Option<Value>,
    }

    /// Feed `vote` the answers of ordinals `*fed..asked` of `sequence`
    /// (`None` is a blank, discarded before the tally). `false` when the
    /// sequence ends first.
    fn feed(
        vote: &mut MajorityVote,
        sequence: &[Option<char>],
        fed: &mut usize,
        asked: usize,
    ) -> bool {
        let Some(answers) = sequence.get(*fed..asked) else {
            return false;
        };
        for key in answers.iter().flatten() {
            vote.add(key.to_string(), Value::str(key.to_string()));
        }
        *fed = asked;
        true
    }

    fn ran(vote: &MajorityVote, asked: usize, outcome: VoteOutcome) -> Ran {
        match outcome {
            VoteOutcome::Decided { value, .. } => Ran {
                asked,
                decided: true,
                value: Some(value),
            },
            _ => Ran {
                asked,
                decided: false,
                value: vote.leader().map(|(value, _)| value.clone()),
            },
        }
    }

    /// The rule the quorum replaced: post `r` assignments; decide a
    /// strict majority of at least `r` valid ballots; else escalate by
    /// the valid ballots short of `r`, or by one, while escalations last.
    /// `None` when it asks past the end of `sequence`.
    fn replication_first(sequence: &[Option<char>], config: &VoteConfig) -> Option<Ran> {
        let (r, mut vote, mut fed) = (config.replication, MajorityVote::new(), 0);
        let mut asked = r;
        loop {
            if !feed(&mut vote, sequence, &mut fed, asked) {
                return None;
            }
            let total = vote.total();
            let majority = vote
                .leader()
                .filter(|&(_, votes)| total >= r && votes * 2 > total);
            if let Some((value, votes)) = majority {
                let value = value.clone();
                let decided = VoteOutcome::Decided {
                    value,
                    votes,
                    total,
                };
                return Some(ran(&vote, asked, decided));
            }
            if vote.escalations_used() >= config.max_escalations {
                return Some(ran(&vote, asked, VoteOutcome::Unresolved));
            }
            vote.note_escalation();
            asked += if total < r { r - total } else { 1 };
        }
    }

    /// The rule in force, as `Wave::sweep` runs it over one completed
    /// HIT at a time: post a quorum, then extend by what `extension` asks.
    fn quorum_first(sequence: &[Option<char>], config: &VoteConfig) -> Option<Ran> {
        let (mut vote, mut fed) = (MajorityVote::new(), 0);
        let mut asked = config.quorum() as u32;
        loop {
            if !feed(&mut vote, sequence, &mut fed, asked as usize) {
                return None;
            }
            let Some(extra) = extension(std::slice::from_ref(&vote), config, asked) else {
                return Some(ran(&vote, asked as usize, vote.outcome(config)));
            };
            if asked >= config.replication as u32 {
                vote.note_escalation();
            }
            asked += extra;
        }
    }

    /// Walk every ballot sequence over {a, b, c, blank} that either rule
    /// reads, extending a prefix only while one of them asks past it.
    fn every_sequence(prefix: &mut Vec<Option<char>>, config: &VoteConfig, checked: &mut usize) {
        if let (Some(old), Some(new)) = (
            replication_first(prefix, config),
            quorum_first(prefix, config),
        ) {
            let at = format!("{config:?} over {prefix:?}: {old:?} then, now {new:?}");
            assert!(new.asked <= old.asked, "asked for more: {at}");
            assert!(
                new.decided || !old.decided,
                "left a decided vote undecided: {at}"
            );
            assert_eq!(new.value, old.value, "settled another value: {at}");
            *checked += 1;
            return;
        }
        for ballot in [Some('a'), Some('b'), Some('c'), None] {
            prefix.push(ballot);
            every_sequence(prefix, config, checked);
            prefix.pop();
        }
    }

    #[test]
    fn a_quorum_first_settles_what_the_whole_replication_settled() {
        let mut checked = 0;
        for replication in [1, 2, 3, 5] {
            for max_escalations in [0, 2] {
                let config = VoteConfig {
                    replication,
                    max_escalations,
                };
                every_sequence(&mut Vec::new(), &config, &mut checked);
            }
        }
        // Every sequence either rule can tell apart, none skipped.
        assert_eq!(checked, 112_262);
    }

    /// The default config under `vote`.
    fn voting(vote: VoteConfig) -> CrowdConfig {
        CrowdConfig {
            vote,
            ..CrowdConfig::default()
        }
    }

    /// A mock that refuses the first `refusals` extensions asked of it.
    struct RefusingExtensions {
        inner: crowddb_platform::MockPlatform,
        refusals: u64,
    }

    impl Platform for RefusingExtensions {
        fn name(&self) -> &str {
            "refusing-extensions"
        }
        fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
            self.inner.post(tasks)
        }
        fn extend(&mut self, hit: HitId, extra: u32) -> Result<()> {
            if self.refusals > 0 {
                self.refusals -= 1;
                return Err(crowddb_common::CrowdError::Platform("refused".into()));
            }
            self.inner.extend(hit, extra)
        }
        fn advance(&mut self, dt: f64) {
            self.inner.advance(dt)
        }
        fn collect(&mut self) -> Vec<crowddb_platform::TaskResponse> {
            self.inner.collect()
        }
        fn now(&self) -> f64 {
            self.inner.now()
        }
        fn stats(&self) -> PlatformStats {
            self.inner.stats()
        }
        fn is_complete(&self, hit: HitId) -> bool {
            self.inner.is_complete(hit)
        }
    }

    /// A mock whose assignment `k` answers the `k`-th char of `script`
    /// (`y` Yes, `n` No, anything else or past the end a blank), refusing
    /// the first `refusals` extensions, and a lone CROWDEQUAL need run
    /// through it: what its one HIT asked for.
    fn run_lone_equal(
        config: CrowdConfig,
        script: &'static str,
        refusals: u64,
    ) -> (Settled, PlatformStats) {
        let inner = crowddb_platform::MockPlatform::new(Box::new(move |_, k| {
            scripted_answer(false, script.get(k as usize..=k as usize).unwrap_or("_"))
        }));
        let mut platform = RefusingExtensions { inner, refusals };
        let settled = fulfill(&config, &[compare_need(false, 0)], &mut platform);
        (settled, platform.stats())
    }

    #[test]
    fn a_refused_free_extension_is_asked_again() {
        // Posting the replication would have had the split's third
        // ballot without an extension, so a refusal is not the end of
        // it: two refusals, then the third ask decides 2 of 3.
        let (s, stats) = run_lone_equal(voting(VoteConfig::replicated(3)), "yny", 2);
        assert_eq!(s.summary.crowd.extend_failures, 2);
        assert_eq!(stats.assignments_requested, 3);
        let decided = Event::VoteResolved {
            kind: "equal",
            decided: true,
            votes: 2,
            total: 3,
        };
        assert_eq!(vote_resolved_events(&s.obs), [decided]);
        assert!(!s.summary.crowd.degraded);
    }

    #[test]
    fn a_free_extension_refused_every_time_costs_the_breaker_one_failure() {
        // Refused at every ask, the split settles by plurality. Only the
        // last refusal counts towards the breaker: a threshold of two
        // does not trip on one contested vote.
        let mut config = voting(VoteConfig::replicated(3));
        config.retry.breaker_threshold = 2;
        let (s, stats) = run_lone_equal(config, "yn", u64::MAX);
        assert_eq!(
            s.summary.crowd.extend_failures,
            u64::from(FREE_EXTENSION_ATTEMPTS)
        );
        assert_eq!(stats.assignments_requested, 2);
        assert!(!s.summary.crowd.degraded, "{:?}", s.summary.warnings);
        let unsettled = Event::VoteResolved {
            kind: "equal",
            decided: false,
            votes: 0,
            total: 2,
        };
        assert_eq!(vote_resolved_events(&s.obs), [unsettled]);
    }

    #[test]
    fn a_split_gets_its_replications_last_ballot_without_escalations() {
        let vote = VoteConfig {
            replication: 3,
            max_escalations: 0,
        };
        let (s, stats) = run_lone_equal(voting(vote), "yny", 0);
        assert_eq!(stats.hits_posted, 1);
        assert_eq!(stats.assignments_requested, 3, "a quorum of 2, then 1 free");
        let items = [ItemOutcome {
            verdict: true,
            decided: Some(2),
            total: 3,
        }];
        assert_unit("1-1 split", false, &s, &items, "ada");
    }

    #[test]
    fn a_hit_answered_only_blank_stops_after_its_escalations() {
        // Free extensions end at the replication; past it each ask is an
        // escalation, sized as posting the replication sized it: the
        // valid ballots short of r. So r + max_escalations * r in all.
        for (replication, max_escalations) in [(1, 0), (2, 0), (3, 0), (3, 2), (5, 2)] {
            let vote = VoteConfig {
                replication,
                max_escalations,
            };
            let (s, stats) = run_lone_equal(voting(vote), "", 0);
            let label = format!("{vote:?}");
            assert_eq!(
                stats.assignments_requested,
                (replication * (1 + max_escalations)) as u64,
                "{label}"
            );
            assert_eq!(
                stats.assignments_completed, stats.assignments_requested,
                "{label}"
            );
            let items = [ItemOutcome {
                verdict: false,
                decided: None,
                total: 0,
            }];
            let scored = "c".repeat(stats.assignments_completed as usize);
            assert_unit(&label, false, &s, &items, &scored);
        }
    }
}

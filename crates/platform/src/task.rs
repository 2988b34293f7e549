//! The platform-independent task model and the [`Platform`] trait.
//!
//! CrowdDB's Task Manager "instantiates the user interfaces, makes the
//! API calls to post tasks, assess their status, and obtain results"
//! (paper §3). This module is the API those calls are made against. The
//! vocabulary follows AMT: a **HIT** (Human Intelligence Task) is one
//! posted task; each HIT requests several **assignments** (distinct
//! workers) whose answers feed majority voting.

use std::fmt;

use crowddb_common::{DataType, Result};

/// Identifies a posted HIT on a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HitId(pub u64);

impl fmt::Display for HitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hit{}", self.0)
    }
}

/// Identifies a worker on a platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// What the crowd is asked to do. The variants map 1:1 to the paper's
/// crowd operators (§3.2.1).
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// CrowdProbe, missing-value flavor: fill in `asked` fields of a tuple
    /// whose `known` fields are shown for context (paper Fig. 2: "Please
    /// fill out missing fields of the following Table").
    Probe {
        /// Table the tuple belongs to (shown to the worker).
        table: String,
        /// `(column, rendered value)` pairs copied into the form.
        known: Vec<(String, String)>,
        /// `(column, type)` pairs the worker must provide.
        asked: Vec<(String, DataType)>,
        /// Extra instructions (schema annotations).
        instructions: String,
    },
    /// CrowdProbe, new-tuple flavor: contribute new tuples of a CROWD
    /// table, optionally with some columns preset (e.g. the foreign key
    /// binding used by CrowdJoin).
    NewTuples {
        /// Target CROWD table.
        table: String,
        /// Open `(column, type)` pairs of the form.
        columns: Vec<(String, DataType)>,
        /// `(column, rendered value)` pairs fixed by the query context.
        preset: Vec<(String, String)>,
        /// Maximum number of tuples one assignment may contribute.
        max_tuples: usize,
        /// Extra instructions.
        instructions: String,
    },
    /// CrowdCompare, equality flavor (`CROWDEQUAL` / `~=`).
    Equal {
        /// Left rendered value.
        left: String,
        /// Right rendered value.
        right: String,
        /// Question shown to the worker.
        instruction: String,
    },
    /// CrowdCompare, ordering flavor (`CROWDORDER`).
    Order {
        /// Left rendered item.
        left: String,
        /// Right rendered item.
        right: String,
        /// Question shown to the worker (e.g. "Which talk did you like
        /// better?").
        instruction: String,
    },
    /// Batched CrowdCompare, equality flavor: one HIT carries `k`
    /// equality questions under the same instruction. "Human-powered
    /// Sorts and Joins" shows batched interfaces cut HITs per answer by
    /// ~k; the answer is an [`Answer::Batch`] with one verdict per pair,
    /// in order.
    EqualBatch {
        /// `(left, right)` rendered pairs, each an equality question.
        pairs: Vec<(String, String)>,
        /// Question shown once for the whole batch.
        instruction: String,
    },
    /// Batched CrowdCompare, ordering flavor: `k` ordering questions in
    /// one HIT, answered by an [`Answer::Batch`] of Left/Right verdicts.
    OrderBatch {
        /// `(left, right)` rendered pairs, each an ordering question.
        pairs: Vec<(String, String)>,
        /// Question shown once for the whole batch.
        instruction: String,
    },
    /// Rank an `s`-element group in one HIT (the sort interface of
    /// "Human-powered Sorts and Joins"); answered by an
    /// [`Answer::Ranking`] of item indices, best first.
    RankGroup {
        /// Rendered items to rank.
        items: Vec<String>,
        /// Question shown to the worker.
        instruction: String,
    },
}

impl TaskKind {
    /// HIT-group key: tasks with the same key are listed as one group on
    /// the platform UI (AMT groups identical HIT types; group size drives
    /// worker attention, which experiment E2 measures).
    pub fn group_key(&self) -> String {
        match self {
            TaskKind::Probe { table, asked, .. } => {
                let cols: Vec<&str> = asked.iter().map(|(c, _)| c.as_str()).collect();
                format!("probe:{table}:{}", cols.join(","))
            }
            TaskKind::NewTuples { table, .. } => format!("new:{table}"),
            TaskKind::Equal { instruction, .. } => format!("equal:{instruction}"),
            TaskKind::Order { instruction, .. } => format!("order:{instruction}"),
            // Batched tasks group separately from their single-item
            // cousins: the UI (and the attention model) differ.
            TaskKind::EqualBatch { instruction, .. } => format!("equalbatch:{instruction}"),
            TaskKind::OrderBatch { instruction, .. } => format!("orderbatch:{instruction}"),
            TaskKind::RankGroup { instruction, .. } => format!("rank:{instruction}"),
        }
    }

    /// Short human-readable label used in logs and the demo UI.
    pub fn label(&self) -> String {
        match self {
            TaskKind::Probe { table, .. } => format!("probe {table}"),
            TaskKind::NewTuples { table, .. } => format!("new tuples for {table}"),
            TaskKind::Equal { left, right, .. } => format!("equal? {left} ~ {right}"),
            TaskKind::Order { left, right, .. } => format!("order? {left} vs {right}"),
            TaskKind::EqualBatch { pairs, .. } => format!("equal? batch of {}", pairs.len()),
            TaskKind::OrderBatch { pairs, .. } => format!("order? batch of {}", pairs.len()),
            TaskKind::RankGroup { items, .. } => format!("rank {} items", items.len()),
        }
    }
}

/// Reward for a HIT carrying `items` batched questions, given the
/// per-single-task base reward. Batched work pays more than one task
/// but less than `items` tasks — `max(base, base·(items+1)/2)` — so for
/// any `items ≥ 2` the crowd cost per answered item strictly drops
/// while workers still earn more for bigger forms.
pub fn batched_reward_cents(base: u32, items: usize) -> u32 {
    let items = items.max(1) as u64;
    let base = base.max(1) as u64;
    (base.max(base * (items + 1) / 2)).min(u32::MAX as u64) as u32
}

/// One answer from one assignment.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// Probe answer: `(field, raw text)` pairs as typed into the form.
    Form(Vec<(String, String)>),
    /// New-tuple answer: contributed tuples, each as `(field, raw text)`.
    Tuples(Vec<Vec<(String, String)>>),
    /// Equality verdict: the two values denote the same entity.
    Yes,
    /// Equality verdict: different entities.
    No,
    /// Ordering verdict: the left item wins.
    Left,
    /// Ordering verdict: the right item wins.
    Right,
    /// The worker submitted nothing useful (skipped / spam); quality
    /// control discards these.
    Blank,
    /// Batched-compare answer: one verdict per batched pair, in pair
    /// order (items a worker skipped are [`Answer::Blank`]).
    Batch(Vec<Answer>),
    /// Rank-group answer: item indices, best first.
    Ranking(Vec<u32>),
}

/// A task to post: kind + marketplace parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskSpec {
    /// What to ask.
    pub kind: TaskKind,
    /// Reward per assignment, in US cents (AMT's unit of payment).
    pub reward_cents: u32,
    /// Number of assignments (distinct workers) requested.
    pub assignments: u32,
    /// Optional geographic constraint `(lat, lon, radius_meters)` honored
    /// by locality-aware platforms (the mobile platform); ignored by AMT.
    pub locality: Option<(f64, f64, f64)>,
}

impl TaskSpec {
    /// A task with default marketplace parameters (1 cent, 3 assignments).
    pub fn new(kind: TaskKind) -> TaskSpec {
        TaskSpec {
            kind,
            reward_cents: 1,
            assignments: 3,
            locality: None,
        }
    }

    /// Builder: set the reward.
    pub fn reward(mut self, cents: u32) -> TaskSpec {
        self.reward_cents = cents;
        self
    }

    /// Builder: set the assignment count.
    pub fn replicate(mut self, n: u32) -> TaskSpec {
        self.assignments = n.max(1);
        self
    }

    /// Builder: constrain to a location.
    pub fn near(mut self, lat: f64, lon: f64, radius_m: f64) -> TaskSpec {
        self.locality = Some((lat, lon, radius_m));
        self
    }
}

/// One completed assignment delivered by a platform.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskResponse {
    /// The HIT this answers.
    pub hit: HitId,
    /// The worker who answered.
    pub worker: WorkerId,
    /// The answer.
    pub answer: Answer,
    /// Platform-virtual completion time, seconds since platform start.
    pub completed_at: f64,
}

/// Aggregate platform counters (basis of experiments E1–E3).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PlatformStats {
    /// HITs posted so far.
    pub hits_posted: u64,
    /// Assignments requested (including extensions).
    pub assignments_requested: u64,
    /// Assignments completed.
    pub assignments_completed: u64,
    /// Rewards paid out, cents.
    pub cents_spent: u64,
    /// HITs whose requested assignments are all complete.
    pub hits_complete: u64,
}

/// A crowdsourcing platform, real or simulated.
///
/// The Task Manager drives this interface in rounds: `post` new tasks,
/// `advance` (wall-clock passes / simulator steps), `collect` finished
/// assignments, and `extend` HITs whose majority vote tied. Platforms are
/// single-threaded state machines owned by one session: CrowdDB's
/// fulfillment coordinator serializes every call, but sessions hop
/// threads (and platforms ride along), hence the `Send` bound.
pub trait Platform: Send {
    /// Platform name (for logs and EXPLAIN output).
    fn name(&self) -> &str;

    /// Post a batch of tasks; returns one [`HitId`] per spec, in order.
    fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>>;

    /// Request `extra` additional assignments on an existing HIT
    /// (escalation after a tied vote).
    fn extend(&mut self, hit: HitId, extra: u32) -> Result<()>;

    /// Advance platform-virtual time by `dt` seconds.
    fn advance(&mut self, dt: f64);

    /// Drain all assignments completed since the last call.
    fn collect(&mut self) -> Vec<TaskResponse>;

    /// Current platform-virtual time in seconds.
    fn now(&self) -> f64;

    /// Aggregate counters.
    fn stats(&self) -> PlatformStats;

    /// Whether all requested assignments of `hit` are complete.
    fn is_complete(&self, hit: HitId) -> bool;
}

impl<P: Platform + ?Sized> Platform for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
        (**self).post(tasks)
    }
    fn extend(&mut self, hit: HitId, extra: u32) -> Result<()> {
        (**self).extend(hit, extra)
    }
    fn advance(&mut self, dt: f64) {
        (**self).advance(dt)
    }
    fn collect(&mut self) -> Vec<TaskResponse> {
        (**self).collect()
    }
    fn now(&self) -> f64 {
        (**self).now()
    }
    fn stats(&self) -> PlatformStats {
        (**self).stats()
    }
    fn is_complete(&self, hit: HitId) -> bool {
        (**self).is_complete(hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_keys_cluster_same_shape() {
        let a = TaskKind::Probe {
            table: "talk".into(),
            known: vec![("title".into(), "CrowdDB".into())],
            asked: vec![("abstract".into(), DataType::Str)],
            instructions: String::new(),
        };
        let b = TaskKind::Probe {
            table: "talk".into(),
            known: vec![("title".into(), "Qurk".into())],
            asked: vec![("abstract".into(), DataType::Str)],
            instructions: String::new(),
        };
        assert_eq!(a.group_key(), b.group_key());
        let c = TaskKind::Probe {
            table: "talk".into(),
            known: vec![],
            asked: vec![("nb_attendees".into(), DataType::Int)],
            instructions: String::new(),
        };
        assert_ne!(a.group_key(), c.group_key());
    }

    #[test]
    fn order_tasks_group_by_instruction() {
        let mk = |l: &str, r: &str| TaskKind::Order {
            left: l.into(),
            right: r.into(),
            instruction: "Which talk did you like better".into(),
        };
        assert_eq!(mk("a", "b").group_key(), mk("c", "d").group_key());
    }

    #[test]
    fn spec_builders() {
        let t = TaskSpec::new(TaskKind::Equal {
            left: "IBM".into(),
            right: "I.B.M.".into(),
            instruction: "same company?".into(),
        })
        .reward(4)
        .replicate(5)
        .near(47.6, -122.3, 500.0);
        assert_eq!(t.reward_cents, 4);
        assert_eq!(t.assignments, 5);
        assert!(t.locality.is_some());
    }

    #[test]
    fn replicate_is_at_least_one() {
        let t = TaskSpec::new(TaskKind::Equal {
            left: "a".into(),
            right: "b".into(),
            instruction: "?".into(),
        })
        .replicate(0);
        assert_eq!(t.assignments, 1);
    }

    #[test]
    fn batched_kinds_group_apart_from_single() {
        let single = TaskKind::Equal {
            left: "a".into(),
            right: "b".into(),
            instruction: "same?".into(),
        };
        let batch = TaskKind::EqualBatch {
            pairs: vec![("a".into(), "b".into()), ("c".into(), "d".into())],
            instruction: "same?".into(),
        };
        assert_ne!(single.group_key(), batch.group_key());
    }

    #[test]
    fn batched_reward_grows_sublinearly() {
        assert_eq!(batched_reward_cents(2, 1), 2);
        assert_eq!(batched_reward_cents(2, 4), 5); // 2*(4+1)/2
        assert_eq!(batched_reward_cents(1, 8), 4);
        // Strictly cheaper per item for every batch size ≥ 2.
        for base in 1u32..=5 {
            for k in 2usize..=16 {
                let batched = batched_reward_cents(base, k) as f64 / k as f64;
                assert!(batched < base as f64, "base {base} k {k}");
            }
        }
    }

    #[test]
    fn ids_display() {
        assert_eq!(HitId(5).to_string(), "hit5");
        assert_eq!(WorkerId(9).to_string(), "w9");
    }

    #[test]
    fn labels_are_informative() {
        let k = TaskKind::NewTuples {
            table: "notableattendee".into(),
            columns: vec![("name".into(), DataType::Str)],
            preset: vec![("title".into(), "CrowdDB".into())],
            max_tuples: 3,
            instructions: String::new(),
        };
        assert!(k.label().contains("notableattendee"));
    }
}

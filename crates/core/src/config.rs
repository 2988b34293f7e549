//! Engine configuration.

use crowddb_quality::VoteConfig;
use crowddb_storage::PagerConfig;
use crowddb_wal::FsyncPolicy;

use crate::governor::GovernorPolicy;

/// When a durable session takes checkpoints (snapshot + log truncation)
/// and how eagerly the write-ahead log reaches stable storage.
#[derive(Debug, Clone)]
pub struct DurabilityPolicy {
    /// fsync policy for the write-ahead log.
    pub fsync: FsyncPolicy,
    /// Take a checkpoint once this many records have accumulated in the
    /// log since the last one. `0` disables count-triggered checkpoints
    /// (the log then only shrinks on [`close`](crate::CrowdDB::close)).
    pub checkpoint_every_records: u64,
    /// Take a final checkpoint in [`close`](crate::CrowdDB::close) so a
    /// reopened session starts from a snapshot instead of a log replay.
    pub checkpoint_on_close: bool,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy {
            fsync: FsyncPolicy::default(),
            checkpoint_every_records: 1024,
            checkpoint_on_close: true,
        }
    }
}

/// How the Task Manager survives a misbehaving platform: bounded retries
/// with exponential backoff for failed posts, per-HIT deadlines with
/// bounded reposts for abandoned HITs, and a circuit breaker that stops
/// engaging a platform that keeps failing. All waits are in platform-
/// virtual seconds; jitter is derived deterministically so identical
/// runs stay byte-identical. A wave ends when its HITs resolve — within
/// a bounded number of HIT deadlines, one per post, repost and
/// extension — when the governor's deadline passes, or when the breaker
/// trips.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per `post()` call (1 = no retries).
    pub max_post_attempts: u32,
    /// Backoff before retry `k` is `base * 2^(k-1)`, capped below.
    pub backoff_base_secs: f64,
    /// Upper bound on a single backoff wait.
    pub backoff_cap_secs: f64,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a
    /// deterministic factor in `[1 - jitter, 1 + jitter]`.
    pub backoff_jitter: f64,
    /// Virtual seconds a posted HIT may sit incomplete before it is
    /// considered abandoned and reposted.
    pub hit_deadline_secs: f64,
    /// Maximum reposts per task need; after that the need gives up and
    /// falls back to whatever answers were collected.
    pub max_reposts: u32,
    /// Consecutive platform failures (post or extend) after which the
    /// platform is marked degraded and remaining needs are abandoned.
    pub breaker_threshold: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_post_attempts: 4,
            backoff_base_secs: 60.0,
            backoff_cap_secs: 3600.0,
            backoff_jitter: 0.25,
            hit_deadline_secs: 2.0 * 24.0 * 3600.0, // two virtual days
            max_reposts: 2,
            breaker_threshold: 6,
        }
    }
}

/// How much intra-round parallelism the Task Manager uses and how waves
/// are batched onto the platform.
///
/// The determinism contract is preserved for *every* value of
/// `fulfill_workers`: the platform is driven by one coordinator in a
/// fixed order, worker threads only run pure per-unit computation
/// (answer normalization and vote tallies), and their results are
/// merged in need order — so serial and parallel runs
/// produce byte-identical answers, metrics, and WAL contents (see
/// DESIGN.md §10). `max_batch_size`, by contrast, changes *which*
/// platform calls are made; runs are comparable only at equal values.
#[derive(Debug, Clone)]
pub struct ConcurrencyPolicy {
    /// Worker threads for the parallel phase of round fulfillment
    /// (answer QC ingest). `0` or `1` runs fully serial; any larger value
    /// threads every wave of two or more HITs.
    pub fulfill_workers: usize,
    /// Maximum task specs per platform `post()` call; same-template runs
    /// are chunked to this size. `0` posts the whole wave as one batch
    /// (the historical behavior).
    pub max_batch_size: usize,
}

impl Default for ConcurrencyPolicy {
    fn default() -> Self {
        ConcurrencyPolicy {
            fulfill_workers: 1,
            max_batch_size: 0,
        }
    }
}

/// Bounds on continuous queries (`SUBSCRIBE`): how many standing queries
/// a session may hold and how far a consumer may fall behind before its
/// queued delta batches are dropped in favor of a resync snapshot.
#[derive(Debug, Clone)]
pub struct SubscriptionPolicy {
    /// Delta batches buffered per subscription before the consumer is
    /// declared lagged (its queue is cleared and the next poll returns a
    /// typed `subscription-lagged` error, then a fresh snapshot). Must
    /// be ≥ 1; the bound is what keeps a slow subscriber from growing
    /// memory without limit.
    pub max_queue_batches: usize,
    /// Maximum simultaneously registered subscriptions per engine.
    pub max_subscriptions: usize,
}

impl Default for SubscriptionPolicy {
    fn default() -> Self {
        SubscriptionPolicy {
            max_queue_batches: 64,
            max_subscriptions: 256,
        }
    }
}

/// How a round's collected ballots are turned into accepted answers at
/// settle time.
///
/// Both policies see the *same* platform interaction: escalation and
/// repost decisions during the pump loop are always majority-driven, so
/// switching policy never changes which HITs are posted, what they
/// cost, or the simulator's random stream — only which answer wins when
/// the ballots are in. That is what makes the differential quality
/// oracle (same seed, both policies, compare accuracy at identical
/// cents) a fair comparison.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum QualityPolicy {
    /// Per-task strict majority over normalized answer keys (the
    /// paper's built-in quality control). The default.
    #[default]
    MajorityVote,
    /// Dawid–Skene-style EM truth inference over all of the round's
    /// tasks jointly: per-worker reliability is estimated from
    /// cross-task agreement and ballots are reweighted by it (see
    /// `crowddb_quality::infer`).
    Em {
        /// Maximum E/M iterations per settle (0 degenerates to
        /// majority vote).
        max_iters: u32,
        /// Convergence tolerance on posterior movement.
        tol: f64,
    },
}

impl QualityPolicy {
    /// EM with the default iteration cap and tolerance.
    pub fn em() -> QualityPolicy {
        QualityPolicy::Em {
            max_iters: 20,
            tol: 1e-6,
        }
    }
}

/// Knobs controlling how CrowdDB engages the crowd.
#[derive(Debug, Clone)]
pub struct CrowdConfig {
    /// Reward per assignment, US cents.
    pub reward_cents: u32,
    /// Voting policy (replication & escalation) for probe/compare tasks.
    pub vote: VoteConfig,
    /// Maximum execute→crowdsource→re-execute rounds before returning a
    /// partial result with a warning.
    pub max_rounds: usize,
    /// Slow-statement threshold in crowd-virtual seconds: statements
    /// whose crowd waits exceed it are counted in
    /// `crowddb_slow_statements_total` and logged as `slow_statement`
    /// events. `None` disables the slow log.
    pub slow_statement_virtual_secs: Option<f64>,
    /// Resilience policy against platform failures.
    pub retry: RetryPolicy,
    /// Checkpoint + fsync policy for sessions opened with
    /// [`CrowdDB::open`](crate::CrowdDB::open). Ignored by purely
    /// in-memory sessions.
    pub durability: DurabilityPolicy,
    /// Parallel-fulfillment and batching knobs.
    pub concurrency: ConcurrencyPolicy,
    /// Page size and buffer-pool budget of a durable session's page file
    /// (in-memory sessions take the storage layer's defaults). The
    /// default honors `CROWDDB_PAGE_SIZE` / `CROWDDB_POOL_PAGES`.
    ///
    /// Neither knob affects query results: the pool is no-steal, so its
    /// size only changes page traffic (`pages_read`/`pool_hits` in
    /// `EXPLAIN ANALYZE`). The first checkpoint fixes the page size; a
    /// later reopen keeps the page file's recorded size.
    pub storage: PagerConfig,
    /// Resource-governor limits applied to every statement: deadline,
    /// row caps, crowd budget, and admission control. The default is
    /// fully ungoverned. Per-statement overrides go through
    /// [`CrowdDB::execute_with_policy`](crate::CrowdDB::execute_with_policy);
    /// the admission *limits* are fixed per session at construction.
    pub governor: GovernorPolicy,
    /// Continuous-query bounds (queue depth, subscription count).
    pub subscriptions: SubscriptionPolicy,
    /// How collected ballots become accepted answers at settle time.
    pub quality: QualityPolicy,
    /// Hybrid `CROWDORDER`: comparisons a machine can resolve
    /// (identical strings, both-numeric) are ordered locally and only
    /// genuinely incomparable pairs go to the crowd. Off by default —
    /// turning it on changes which HITs are posted, so runs are only
    /// comparable at equal settings.
    pub hybrid_order: bool,
}

impl Default for CrowdConfig {
    fn default() -> Self {
        CrowdConfig {
            reward_cents: 1,
            vote: VoteConfig::default(),
            max_rounds: 16,
            slow_statement_virtual_secs: None,
            retry: RetryPolicy::default(),
            durability: DurabilityPolicy::default(),
            concurrency: ConcurrencyPolicy::default(),
            storage: PagerConfig::default(),
            governor: GovernorPolicy::default(),
            subscriptions: SubscriptionPolicy::default(),
            quality: QualityPolicy::default(),
            hybrid_order: false,
        }
    }
}

impl CrowdConfig {
    /// A configuration suitable for fast unit tests: single assignment,
    /// no escalation, few rounds.
    pub fn fast_test() -> CrowdConfig {
        CrowdConfig {
            vote: VoteConfig::single(),
            max_rounds: 8,
            ..CrowdConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = CrowdConfig::default();
        assert!(c.max_rounds >= 2);
        assert_eq!(c.vote.replication, 3);
    }

    #[test]
    fn fast_test_single_vote() {
        let c = CrowdConfig::fast_test();
        assert_eq!(c.vote.replication, 1);
    }

    #[test]
    fn concurrency_defaults_are_serial() {
        let c = ConcurrencyPolicy::default();
        assert_eq!(c.fulfill_workers, 1);
        assert_eq!(c.max_batch_size, 0);
    }

    #[test]
    fn retry_defaults_are_sane() {
        let r = RetryPolicy::default();
        assert!(r.max_post_attempts >= 1);
        assert!(r.backoff_base_secs > 0.0);
        assert!(r.backoff_cap_secs >= r.backoff_base_secs);
        assert!((0.0..1.0).contains(&r.backoff_jitter));
        assert!(r.hit_deadline_secs > 0.0);
        assert!(r.breaker_threshold >= 1);
    }
}

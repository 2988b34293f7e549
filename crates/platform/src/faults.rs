//! Deterministic fault injection for platform hardening tests.
//!
//! Real crowdsourcing platforms misbehave in every way a distributed
//! service can: the REST API times out mid-batch, posted HITs sit
//! untouched until they expire, flaky connections redeliver the same
//! assignment, workers paste garbage into forms, and latency has a heavy
//! tail. [`FaultyPlatform`] wraps any [`Platform`] and injects exactly
//! those failures from a seeded RNG, so the Task Manager's resilience
//! machinery (retries, reposts, dedup, circuit breaker — see
//! `crowddb-core::taskman`) can be exercised reproducibly: the same seed
//! and call sequence always injects the same faults.
//!
//! Injectable fault kinds:
//!
//! 1. **Transient post outage** — `post()` fails wholesale; a retry may
//!    succeed.
//! 2. **Partial batch failure** — `post()` creates a prefix of the batch
//!    on the platform, then errors. The caller never learns the created
//!    [`HitId`]s (orphaned HITs, exactly the AMT batch-post hazard).
//! 3. **Lost/abandoned HITs** — a posted HIT is accepted but never
//!    completes: its assignments are silently swallowed.
//! 4. **Duplicate delivery** — a completed assignment is delivered twice
//!    (violating the one-worker-one-assignment rule the AMT API promises).
//! 5. **Garbled answers** — the answer payload is corrupted: form fields
//!    become junk text, verdicts become [`Answer::Blank`].
//! 6. **Extend failure** — `extend()` (vote escalation) errors.
//! 7. **Latency spikes** — a completed assignment is withheld for extra
//!    virtual time before delivery.

use std::collections::HashSet;
use std::sync::Arc;

use crowddb_common::rng::Rng;
use crowddb_common::{CrowdError, Result};
use crowddb_obs::{Event, Obs};

use crate::task::{Answer, HitId, Platform, PlatformStats, TaskResponse, TaskSpec};

/// Fault rates and shape. All rates are probabilities in `[0, 1]`; a rate
/// of `0` disables that fault kind entirely (and consumes no randomness,
/// so an all-zero config is bit-for-bit transparent).
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// RNG seed; equal seeds + equal call sequences → equal faults.
    pub seed: u64,
    /// Probability that `post()` fails without creating anything.
    pub post_fail_rate: f64,
    /// Probability that a multi-task `post()` creates only a prefix of the
    /// batch before failing (orphaning the created HITs).
    pub post_partial_rate: f64,
    /// Probability that a successfully posted HIT is lost: it never
    /// completes and none of its assignments are ever delivered.
    pub lose_hit_rate: f64,
    /// Probability that a delivered assignment is delivered a second time.
    pub duplicate_rate: f64,
    /// Probability that a delivered assignment's answer is garbled.
    pub garble_rate: f64,
    /// Probability that `extend()` fails.
    pub extend_fail_rate: f64,
    /// Probability that a delivered assignment is delayed by
    /// [`latency_spike_secs`](Self::latency_spike_secs).
    pub latency_spike_rate: f64,
    /// Extra virtual seconds a latency-spiked assignment is withheld.
    pub latency_spike_secs: f64,
    /// Upper bound on *consecutive* injected post/extend failures; once
    /// reached the next call is allowed through, modelling outages that
    /// are transient rather than permanent. `0` means unbounded (the
    /// platform may fail forever).
    pub max_consecutive_failures: u32,
}

impl FaultConfig {
    /// No faults at all: the decorator is a transparent pass-through.
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            post_fail_rate: 0.0,
            post_partial_rate: 0.0,
            lose_hit_rate: 0.0,
            duplicate_rate: 0.0,
            garble_rate: 0.0,
            extend_fail_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike_secs: 0.0,
            max_consecutive_failures: 0,
        }
    }

    /// Every fault kind at the same `rate` — the chaos-sweep preset.
    /// Outages are bounded at 3 consecutive failures so a retrying caller
    /// always makes progress eventually.
    pub fn uniform(seed: u64, rate: f64) -> FaultConfig {
        assert!((0.0..=1.0).contains(&rate), "rate {rate} out of range");
        FaultConfig {
            seed,
            post_fail_rate: rate,
            post_partial_rate: rate,
            lose_hit_rate: rate,
            duplicate_rate: rate,
            garble_rate: rate,
            extend_fail_rate: rate,
            latency_spike_rate: rate,
            latency_spike_secs: 3600.0,
            max_consecutive_failures: 3,
        }
    }
}

/// Counters for the faults actually injected (not merely configured) —
/// chaos tests assert against these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// `post()` calls failed wholesale.
    pub posts_failed: u64,
    /// `post()` calls that created a prefix and then failed.
    pub posts_partial: u64,
    /// HITs orphaned by partial batch failures.
    pub hits_orphaned: u64,
    /// HITs accepted but lost (never complete).
    pub hits_lost: u64,
    /// Assignments delivered twice.
    pub duplicates_injected: u64,
    /// Assignment answers corrupted.
    pub answers_garbled: u64,
    /// `extend()` calls failed.
    pub extends_failed: u64,
    /// Assignments withheld by a latency spike.
    pub latency_spikes: u64,
}

/// A decorator injecting seeded faults into any [`Platform`] — composes
/// over [`MockPlatform`](crate::mock::MockPlatform) and the
/// [`SimPlatform`](crate::sim::SimPlatform) marketplace alike.
pub struct FaultyPlatform<P> {
    inner: P,
    name: String,
    cfg: FaultConfig,
    rng: Rng,
    /// HITs swallowed by the lost-HIT fault.
    lost: HashSet<HitId>,
    /// Latency-spiked responses: `(release_at, response)`.
    delayed: Vec<(f64, TaskResponse)>,
    consecutive_failures: u32,
    injected: FaultStats,
    obs: Option<Arc<Obs>>,
}

impl<P: Platform> FaultyPlatform<P> {
    /// Wrap `inner`, injecting faults per `cfg`.
    pub fn new(inner: P, cfg: FaultConfig) -> FaultyPlatform<P> {
        let name = format!("faulty({})", inner.name());
        FaultyPlatform {
            inner,
            name,
            rng: Rng::seed_from_u64(cfg.seed),
            cfg,
            lost: HashSet::new(),
            delayed: Vec::new(),
            consecutive_failures: 0,
            injected: FaultStats::default(),
            obs: None,
        }
    }

    /// Report injected faults into a shared observability handle: each
    /// injection bumps `crowddb_faults_<kind>_total` (kind names match
    /// the [`FaultStats`] field names exactly, so counters reconcile
    /// with the struct) and emits a `fault_injected` event.
    pub fn with_obs(mut self, obs: Arc<Obs>) -> FaultyPlatform<P> {
        self.obs = Some(obs);
        self
    }

    fn record_fault(&self, kind: &'static str, n: u64) {
        if let Some(obs) = &self.obs {
            obs.registry()
                .counter_add(&format!("crowddb_faults_{kind}_total"), n);
            for _ in 0..n {
                obs.events().emit(Event::FaultInjected { kind });
            }
        }
    }

    /// The wrapped platform.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> P {
        self.inner
    }

    /// Counters of faults injected so far.
    pub fn injected(&self) -> FaultStats {
        self.injected
    }

    /// Roll a fault die. Zero-rate faults consume no randomness, keeping
    /// an all-zero config byte-identical to the bare inner platform.
    fn roll(&mut self, rate: f64) -> bool {
        rate > 0.0 && self.rng.gen_bool(rate.min(1.0))
    }

    /// Whether another injected outage is allowed, honouring the bounded-
    /// outage cap.
    fn outage_allowed(&self) -> bool {
        self.cfg.max_consecutive_failures == 0
            || self.consecutive_failures < self.cfg.max_consecutive_failures
    }

    fn maybe_lose(&mut self, ids: &[HitId]) {
        for &id in ids {
            if self.roll(self.cfg.lose_hit_rate) {
                self.lost.insert(id);
                self.injected.hits_lost += 1;
                self.record_fault("hits_lost", 1);
            }
        }
    }

    fn garble(&mut self, answer: &Answer) -> Answer {
        match answer {
            // A worker mashed the keyboard: every field becomes junk text
            // (typed columns will fail normalization; string columns get a
            // spam vote for majority voting to out-vote).
            Answer::Form(fields) => Answer::Form(
                fields
                    .iter()
                    .map(|(name, _)| (name.clone(), format!("##{:016x}##", self.rng.next_u64())))
                    .collect(),
            ),
            // A garbled batch keeps its arity — the wire shape survives,
            // the verdicts don't — so codec round-trips stay valid while
            // quality control discards every item.
            Answer::Batch(items) => Answer::Batch(vec![Answer::Blank; items.len()]),
            // Verdicts, rankings, and tuple contributions degrade to an
            // unusable submission, which quality control discards.
            _ => Answer::Blank,
        }
    }
}

impl<P: Platform> Platform for FaultyPlatform<P> {
    fn name(&self) -> &str {
        &self.name
    }

    fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
        if self.outage_allowed() && self.roll(self.cfg.post_fail_rate) {
            self.consecutive_failures += 1;
            self.injected.posts_failed += 1;
            self.record_fault("posts_failed", 1);
            return Err(CrowdError::Platform(
                "injected fault: transient post outage".into(),
            ));
        }
        if tasks.len() > 1 && self.outage_allowed() && self.roll(self.cfg.post_partial_rate) {
            // The batch dies mid-flight: a strict prefix was created on
            // the platform, but the caller gets an error and never learns
            // the ids. The orphans keep running (and being answered).
            let cut = self.rng.gen_range(1..tasks.len());
            let total = tasks.len();
            let mut tasks = tasks;
            tasks.truncate(cut);
            let orphans = self.inner.post(tasks)?;
            self.maybe_lose(&orphans);
            self.injected.hits_orphaned += orphans.len() as u64;
            self.record_fault("hits_orphaned", orphans.len() as u64);
            self.consecutive_failures += 1;
            self.injected.posts_partial += 1;
            self.record_fault("posts_partial", 1);
            return Err(CrowdError::Platform(format!(
                "injected fault: batch post failed after {cut} of {total} task(s)"
            )));
        }
        let ids = self.inner.post(tasks)?;
        self.consecutive_failures = 0;
        self.maybe_lose(&ids);
        Ok(ids)
    }

    fn extend(&mut self, hit: HitId, extra: u32) -> Result<()> {
        if self.outage_allowed() && self.roll(self.cfg.extend_fail_rate) {
            self.consecutive_failures += 1;
            self.injected.extends_failed += 1;
            self.record_fault("extends_failed", 1);
            return Err(CrowdError::Platform(format!(
                "injected fault: extend failed for {hit}"
            )));
        }
        self.inner.extend(hit, extra)?;
        self.consecutive_failures = 0;
        Ok(())
    }

    fn advance(&mut self, dt: f64) {
        self.inner.advance(dt);
    }

    fn collect(&mut self) -> Vec<TaskResponse> {
        let now = self.inner.now();
        let mut out = Vec::new();
        // Deliver matured latency-spiked responses first, in arrival order.
        let mut still = Vec::new();
        for (release_at, resp) in self.delayed.drain(..) {
            if release_at <= now {
                out.push(resp);
            } else {
                still.push((release_at, resp));
            }
        }
        self.delayed = still;
        for resp in self.inner.collect() {
            if self.lost.contains(&resp.hit) {
                // Abandoned HIT: the work evaporates.
                continue;
            }
            let mut resp = resp;
            if self.roll(self.cfg.garble_rate) {
                resp.answer = self.garble(&resp.answer);
                self.injected.answers_garbled += 1;
                self.record_fault("answers_garbled", 1);
            }
            let duplicate = self.roll(self.cfg.duplicate_rate);
            if duplicate {
                self.injected.duplicates_injected += 1;
                self.record_fault("duplicates_injected", 1);
                out.push(resp.clone());
            }
            if self.roll(self.cfg.latency_spike_rate) {
                self.injected.latency_spikes += 1;
                self.record_fault("latency_spikes", 1);
                self.delayed.push((now + self.cfg.latency_spike_secs, resp));
            } else {
                out.push(resp);
            }
        }
        out
    }

    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn stats(&self) -> PlatformStats {
        self.inner.stats()
    }

    fn is_complete(&self, hit: HitId) -> bool {
        // A lost HIT never completes — the caller's per-HIT deadline is
        // its only way out.
        !self.lost.contains(&hit) && self.inner.is_complete(hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mock::MockPlatform;
    use crate::task::TaskKind;

    fn equal_spec() -> TaskSpec {
        TaskSpec::new(TaskKind::Equal {
            left: "a".into(),
            right: "b".into(),
            instruction: "?".into(),
        })
        .replicate(3)
    }

    fn mock() -> MockPlatform {
        MockPlatform::unanimous(|_| Answer::Yes)
    }

    fn drain(p: &mut impl Platform, specs: Vec<TaskSpec>) -> Vec<TaskResponse> {
        p.post(specs).unwrap();
        p.advance(1.0);
        p.collect()
    }

    #[test]
    fn zero_rates_are_transparent() {
        let mut faulty = FaultyPlatform::new(mock(), FaultConfig::none(7));
        let mut bare = mock();
        let a = drain(&mut faulty, vec![equal_spec(), equal_spec()]);
        let b = drain(&mut bare, vec![equal_spec(), equal_spec()]);
        assert_eq!(a, b);
        assert_eq!(faulty.injected(), FaultStats::default());
        assert_eq!(faulty.name(), "faulty(mock)");
    }

    #[test]
    fn same_seed_same_faults() {
        let run = || {
            let mut p = FaultyPlatform::new(mock(), FaultConfig::uniform(42, 0.3));
            let mut all = Vec::new();
            for _ in 0..10 {
                let _ = p.post(vec![equal_spec(), equal_spec()]);
                p.advance(3600.0);
                all.extend(p.collect());
            }
            (all, p.injected())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "responses must be byte-identical per seed");
        assert_eq!(sa, sb);
    }

    #[test]
    fn post_outage_is_transient() {
        let mut cfg = FaultConfig::none(1);
        cfg.post_fail_rate = 1.0;
        cfg.max_consecutive_failures = 2;
        let mut p = FaultyPlatform::new(mock(), cfg);
        assert!(p.post(vec![equal_spec()]).is_err());
        assert!(p.post(vec![equal_spec()]).is_err());
        // Bounded outage: the third attempt is let through.
        assert!(p.post(vec![equal_spec()]).is_ok());
        assert_eq!(p.injected().posts_failed, 2);
    }

    #[test]
    fn partial_batch_orphans_a_prefix() {
        let mut cfg = FaultConfig::none(5);
        cfg.post_partial_rate = 1.0;
        cfg.max_consecutive_failures = 1;
        let mut p = FaultyPlatform::new(mock(), cfg);
        let err = p.post(vec![equal_spec(), equal_spec(), equal_spec()]);
        assert!(err.is_err());
        let orphaned = p.injected().hits_orphaned;
        assert!((1..3).contains(&orphaned), "orphaned {orphaned}");
        assert_eq!(p.stats().hits_posted, orphaned, "prefix is live on inner");
        // Orphans still complete and deliver answers (to ids nobody knows).
        p.advance(1.0);
        assert_eq!(p.collect().len() as u64, orphaned * 3);
    }

    #[test]
    fn lost_hits_never_complete_or_answer() {
        let mut cfg = FaultConfig::none(3);
        cfg.lose_hit_rate = 1.0;
        let mut p = FaultyPlatform::new(mock(), cfg);
        let ids = p.post(vec![equal_spec()]).unwrap();
        p.advance(1.0);
        assert!(p.collect().is_empty());
        assert!(!p.is_complete(ids[0]));
        assert_eq!(p.injected().hits_lost, 1);
    }

    #[test]
    fn duplicates_redeliver_same_worker_assignment() {
        let mut cfg = FaultConfig::none(9);
        cfg.duplicate_rate = 1.0;
        let mut p = FaultyPlatform::new(mock(), cfg);
        let rs = drain(&mut p, vec![equal_spec()]);
        assert_eq!(rs.len(), 6, "every assignment delivered twice");
        let mut keys: Vec<_> = rs.iter().map(|r| (r.worker, r.hit)).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 3);
        assert_eq!(p.injected().duplicates_injected, 3);
    }

    #[test]
    fn garbled_verdicts_become_blank() {
        let mut cfg = FaultConfig::none(11);
        cfg.garble_rate = 1.0;
        let mut p = FaultyPlatform::new(mock(), cfg);
        let rs = drain(&mut p, vec![equal_spec()]);
        assert!(rs.iter().all(|r| r.answer == Answer::Blank));
        assert_eq!(p.injected().answers_garbled, 3);
    }

    #[test]
    fn garbled_forms_become_junk_text() {
        let mut cfg = FaultConfig::none(11);
        cfg.garble_rate = 1.0;
        let mut p = FaultyPlatform::new(
            MockPlatform::unanimous(|_| Answer::Form(vec![("n".into(), "42".into())])),
            cfg,
        );
        let spec = TaskSpec::new(TaskKind::Probe {
            table: "t".into(),
            known: vec![],
            asked: vec![("n".into(), crowddb_common::DataType::Int)],
            instructions: String::new(),
        });
        let rs = drain(&mut p, vec![spec]);
        for r in &rs {
            match &r.answer {
                Answer::Form(fields) => {
                    assert_eq!(fields[0].0, "n", "field names survive");
                    assert_ne!(fields[0].1, "42", "text is corrupted");
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn extend_failures_are_injected() {
        let mut cfg = FaultConfig::none(13);
        cfg.extend_fail_rate = 1.0;
        cfg.max_consecutive_failures = 1;
        let mut p = FaultyPlatform::new(mock(), cfg);
        let ids = p.post(vec![equal_spec()]).unwrap();
        p.advance(1.0);
        p.collect();
        assert!(p.extend(ids[0], 1).is_err());
        assert!(p.extend(ids[0], 1).is_ok(), "outage is bounded");
        assert_eq!(p.injected().extends_failed, 1);
    }

    #[test]
    fn latency_spikes_withhold_then_deliver() {
        let mut cfg = FaultConfig::none(17);
        cfg.latency_spike_rate = 1.0;
        cfg.latency_spike_secs = 1000.0;
        let mut p = FaultyPlatform::new(mock(), cfg);
        p.post(vec![equal_spec()]).unwrap();
        p.advance(1.0);
        assert!(p.collect().is_empty(), "all spiked");
        p.advance(1500.0);
        assert_eq!(p.collect().len(), 3, "delivered after the spike");
        assert_eq!(p.injected().latency_spikes, 3);
    }

    #[test]
    fn composes_over_the_simulator() {
        use crate::model::PerfectModel;
        use crate::sim::SimPlatform;
        let sim = SimPlatform::amt(1, Box::new(PerfectModel));
        let mut p = FaultyPlatform::new(sim, FaultConfig::uniform(2, 0.2));
        let _ = p.post(vec![equal_spec()]);
        for _ in 0..48 {
            p.advance(3600.0);
            p.collect();
        }
        assert_eq!(p.name(), "faulty(amt-sim)");
    }
}

//! Discrete-event simulation of a microtask marketplace.
//!
//! The simulator reproduces the AMT dynamics the SIGMOD 2011 evaluation
//! measured, using a virtual clock and an event queue:
//!
//! * **worker sessions** arrive as a Poisson process; each arrival is a
//!   worker drawn from the Zipf-weighted pool;
//! * the worker **browses HIT groups** and picks one with probability
//!   proportional to `group_size^α · reward^β` — this is the empirically
//!   observed attention model: big groups and well-paying tasks get picked
//!   up faster (experiments E1/E2);
//! * the worker **accepts** tasks only if the reward clears a soft
//!   reservation-wage threshold, then completes a geometric number of
//!   assignments from the group, each taking a log-normal service time;
//! * each answer is **correct** with probability `1 − error_rate`, else
//!   drawn from the [`CrowdModel`]'s error distribution;
//! * AMT's rule that a worker may complete **at most one assignment per
//!   HIT** is enforced.
//!
//! Everything is seeded: the same config and call sequence reproduces the
//! same marketplace byte for byte.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, HashMap, HashSet};

use crowddb_common::rng::Rng;
use crowddb_common::{CrowdError, Result};

use crate::model::CrowdModel;
use crate::task::{HitId, Platform, PlatformStats, TaskResponse, TaskSpec, WorkerId};
use crate::worker::{WorkerPool, WorkerPoolConfig};

/// Simulator parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// The worker population.
    pub pool: WorkerPoolConfig,
    /// RNG seed (population + marketplace noise).
    pub seed: u64,
    /// Worker-session arrivals per (virtual) hour.
    pub arrivals_per_hour: f64,
    /// Exponent α of HIT-group-size attention (`group_size^α`).
    pub group_size_affinity: f64,
    /// Exponent β of reward attention (`reward^β`).
    pub reward_affinity: f64,
    /// Mean assignments a worker completes per session (geometric).
    pub session_tasks_mean: f64,
    /// Honor `TaskSpec::locality` (the mobile platform does; AMT ignores
    /// it).
    pub enforce_locality: bool,
}

impl SimConfig {
    /// An AMT-like marketplace: thousands of registered workers, a few
    /// hundred active sessions per hour, strong group-size affinity.
    pub fn amt(seed: u64) -> SimConfig {
        SimConfig {
            pool: WorkerPoolConfig::amt(2000),
            seed,
            arrivals_per_hour: 40.0,
            group_size_affinity: 0.6,
            reward_affinity: 1.0,
            session_tasks_mean: 4.0,
            enforce_locality: false,
        }
    }

    /// A conference mobile platform: small local volunteer pool, sessions
    /// between talks, locality enforced.
    pub fn mobile(seed: u64, venue: (f64, f64)) -> SimConfig {
        SimConfig {
            pool: WorkerPoolConfig::mobile(120, venue),
            seed,
            arrivals_per_hour: 60.0,
            group_size_affinity: 0.2,
            reward_affinity: 0.0, // volunteers: reward-insensitive
            session_tasks_mean: 3.0,
            enforce_locality: true,
        }
    }
}

#[derive(Debug)]
struct Hit {
    spec: TaskSpec,
    group_key: String,
    requested: u32,
    in_flight: u32,
    completed: u32,
    workers_seen: HashSet<WorkerId>,
}

impl Hit {
    fn open_slots(&self) -> u32 {
        self.requested
            .saturating_sub(self.in_flight + self.completed)
    }
}

#[derive(Debug)]
enum EventKind {
    WorkerArrives,
    AssignmentCompletes { hit: HitId, worker_idx: usize },
}

struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulated marketplace platform.
pub struct SimPlatform {
    name: String,
    config: SimConfig,
    pool: WorkerPool,
    model: Box<dyn CrowdModel>,
    rng: Rng,
    clock: f64,
    next_hit: u64,
    next_seq: u64,
    hits: HashMap<HitId, Hit>,
    /// group key -> HITs with open slots
    open_groups: BTreeMap<String, Vec<HitId>>,
    events: BinaryHeap<Event>,
    ready: Vec<TaskResponse>,
    stats: PlatformStats,
    arrival_scheduled: bool,
}

impl SimPlatform {
    /// Create a simulated platform.
    pub fn new(
        name: impl Into<String>,
        config: SimConfig,
        model: Box<dyn CrowdModel>,
    ) -> SimPlatform {
        let pool = WorkerPool::generate(&config.pool, config.seed);
        let rng = Rng::seed_from_u64(config.seed.wrapping_mul(0x9E3779B97F4A7C15));
        SimPlatform {
            name: name.into(),
            config,
            pool,
            model,
            rng,
            clock: 0.0,
            next_hit: 0,
            next_seq: 0,
            hits: HashMap::new(),
            open_groups: BTreeMap::new(),
            events: BinaryHeap::new(),
            ready: Vec::new(),
            stats: PlatformStats::default(),
            arrival_scheduled: false,
        }
    }

    /// AMT-flavored simulator with the given crowd knowledge model.
    pub fn amt(seed: u64, model: Box<dyn CrowdModel>) -> SimPlatform {
        SimPlatform::new("amt-sim", SimConfig::amt(seed), model)
    }

    /// Mobile-platform-flavored simulator.
    pub fn mobile(seed: u64, venue: (f64, f64), model: Box<dyn CrowdModel>) -> SimPlatform {
        SimPlatform::new("mobile-sim", SimConfig::mobile(seed, venue), model)
    }

    /// The worker pool (benchmarks inspect worker profiles).
    pub fn pool(&self) -> &WorkerPool {
        &self.pool
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Event { time, seq, kind });
    }

    fn schedule_next_arrival(&mut self) {
        let rate_per_sec = self.config.arrivals_per_hour / 3600.0;
        if rate_per_sec <= 0.0 {
            return;
        }
        // Exponential inter-arrival via inverse CDF.
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let dt = -u.ln() / rate_per_sec;
        let t = self.clock + dt;
        self.push_event(t, EventKind::WorkerArrives);
        self.arrival_scheduled = true;
    }

    fn distance_ok(&self, worker_idx: usize, spec: &TaskSpec) -> bool {
        if !self.config.enforce_locality {
            return true;
        }
        let Some((lat, lon, radius_m)) = spec.locality else {
            return true;
        };
        let w = self.pool.get(worker_idx);
        // Equirectangular approximation; adequate at venue scale.
        let dlat = (w.location.0 - lat).to_radians();
        let dlon = (w.location.1 - lon).to_radians() * lat.to_radians().cos();
        let dist_m = (dlat * dlat + dlon * dlon).sqrt() * 6_371_000.0;
        dist_m <= radius_m
    }

    /// A worker session: browse groups, pick one, take a few assignments.
    fn handle_arrival(&mut self) {
        let worker_idx = self.pool.sample_active(&mut self.rng);
        // Browse: weight each open group by size^alpha * reward^beta.
        let group_keys: Vec<String> = self
            .open_groups
            .iter()
            .filter(|(_, hits)| !hits.is_empty())
            .map(|(k, _)| k.clone())
            .collect();
        if group_keys.is_empty() {
            return;
        }
        let mut weights = Vec::with_capacity(group_keys.len());
        for k in &group_keys {
            let hits = &self.open_groups[k];
            let size = hits.len() as f64;
            let reward = hits
                .first()
                .and_then(|h| self.hits.get(h))
                .map(|h| h.spec.reward_cents as f64)
                .unwrap_or(1.0)
                .max(0.25); // zero-reward tasks still get nonzero attention
            weights.push(
                size.powf(self.config.group_size_affinity)
                    * reward.powf(self.config.reward_affinity),
            );
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return;
        }
        let mut x = self.rng.gen_range(0.0..total);
        let mut chosen = 0usize;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                chosen = i;
                break;
            }
            x -= w;
        }
        let group_key = group_keys[chosen].clone();

        // Acceptance: reservation wage vs reward of the group.
        let reward = self.open_groups[&group_key]
            .first()
            .and_then(|h| self.hits.get(h))
            .map(|h| h.spec.reward_cents)
            .unwrap_or(0);
        let accept_p = WorkerPool::acceptance_probability(self.pool.get(worker_idx), reward);
        if !self.rng.gen_bool(accept_p.clamp(0.0, 1.0)) {
            return;
        }

        // Session length: geometric with the configured mean.
        let mean = self.config.session_tasks_mean.max(1.0);
        let p_stop = 1.0 / mean;
        let mut remaining = 1usize;
        while !self.rng.gen_bool(p_stop) && remaining < 50 {
            remaining += 1;
        }

        let worker_id = self.pool.get(worker_idx).id;
        let mut t = self.clock;
        let mut taken = Vec::new();
        // Take assignments from the chosen group; the borrow of
        // open_groups is kept short so we can mutate hits.
        let candidates: Vec<HitId> = self.open_groups[&group_key].clone();
        for hit_id in candidates {
            if taken.len() >= remaining {
                break;
            }
            let Some(hit) = self.hits.get(&hit_id) else {
                continue;
            };
            if hit.open_slots() == 0 || hit.workers_seen.contains(&worker_id) {
                continue;
            }
            if !self.distance_ok(worker_idx, &hit.spec) {
                continue;
            }
            taken.push(hit_id);
        }
        for hit_id in taken {
            let service = {
                let w = self.pool.get(worker_idx);
                // Per-task service time: worker's mean scaled by lognormal
                // noise around 1.
                let noise: f64 = self.rng.gen_range(0.5..1.8);
                w.mean_service_secs * noise
            };
            t += service;
            {
                let hit = self.hits.get_mut(&hit_id).expect("hit exists");
                hit.in_flight += 1;
                hit.workers_seen.insert(worker_id);
            }
            self.maybe_close_group(hit_id);
            self.push_event(
                t,
                EventKind::AssignmentCompletes {
                    hit: hit_id,
                    worker_idx,
                },
            );
        }
    }

    fn maybe_close_group(&mut self, hit_id: HitId) {
        let Some(hit) = self.hits.get(&hit_id) else {
            return;
        };
        if hit.open_slots() == 0 {
            if let Some(group) = self.open_groups.get_mut(&hit.group_key) {
                group.retain(|h| *h != hit_id);
                if group.is_empty() {
                    self.open_groups.remove(&hit.group_key);
                }
            }
        }
    }

    fn reopen_in_group(&mut self, hit_id: HitId) {
        let Some(hit) = self.hits.get(&hit_id) else {
            return;
        };
        if hit.open_slots() > 0 {
            let group = self.open_groups.entry(hit.group_key.clone()).or_default();
            if !group.contains(&hit_id) {
                group.push(hit_id);
            }
        }
    }

    fn handle_completion(&mut self, hit_id: HitId, worker_idx: usize) {
        let (answer, reward) = {
            let Some(hit) = self.hits.get(&hit_id) else {
                return;
            };
            let w = self.pool.get(worker_idx);
            // One correctness draw per (worker, HIT). For batched kinds
            // (EqualBatch/OrderBatch/RankGroup) this is what makes
            // per-item errors *correlated*: a careless worker degrades
            // the whole batch (the model then flips items with high
            // probability), rather than re-rolling worker quality
            // independently per item.
            let correct = !self.rng.gen_bool(w.error_rate.clamp(0.0, 1.0));
            let answer = if correct {
                self.model.ideal_answer(&hit.spec.kind)
            } else {
                self.model.erroneous_answer(&hit.spec.kind, &mut self.rng)
            };
            (answer, hit.spec.reward_cents)
        };
        let worker_id = self.pool.get(worker_idx).id;
        {
            let hit = self.hits.get_mut(&hit_id).expect("hit exists");
            hit.in_flight = hit.in_flight.saturating_sub(1);
            hit.completed += 1;
            if hit.completed >= hit.requested {
                self.stats.hits_complete += 1;
            }
        }
        self.stats.assignments_completed += 1;
        self.stats.cents_spent += reward as u64;
        self.ready.push(TaskResponse {
            hit: hit_id,
            worker: worker_id,
            answer,
            completed_at: self.clock,
        });
    }
}

impl Platform for SimPlatform {
    fn name(&self) -> &str {
        &self.name
    }

    fn post(&mut self, tasks: Vec<TaskSpec>) -> Result<Vec<HitId>> {
        let mut ids = Vec::with_capacity(tasks.len());
        for spec in tasks {
            if spec.assignments == 0 {
                return Err(CrowdError::Platform(
                    "a HIT must request at least one assignment".into(),
                ));
            }
            let id = HitId(self.next_hit);
            self.next_hit += 1;
            let group_key = spec.kind.group_key();
            self.stats.hits_posted += 1;
            self.stats.assignments_requested += spec.assignments as u64;
            self.hits.insert(
                id,
                Hit {
                    group_key: group_key.clone(),
                    requested: spec.assignments,
                    in_flight: 0,
                    completed: 0,
                    workers_seen: HashSet::new(),
                    spec,
                },
            );
            self.open_groups.entry(group_key).or_default().push(id);
            ids.push(id);
        }
        if !self.arrival_scheduled {
            self.schedule_next_arrival();
        }
        Ok(ids)
    }

    fn extend(&mut self, hit: HitId, extra: u32) -> Result<()> {
        {
            let h = self
                .hits
                .get_mut(&hit)
                .ok_or_else(|| CrowdError::Platform(format!("unknown HIT {hit}")))?;
            let was_complete = h.completed >= h.requested;
            h.requested += extra;
            self.stats.assignments_requested += extra as u64;
            if was_complete {
                self.stats.hits_complete = self.stats.hits_complete.saturating_sub(1);
            }
        }
        self.reopen_in_group(hit);
        Ok(())
    }

    fn advance(&mut self, dt: f64) {
        let target = self.clock + dt.max(0.0);
        loop {
            let next_time = match self.events.peek() {
                Some(e) if e.time <= target => e.time,
                _ => break,
            };
            let event = self.events.pop().expect("peeked event exists");
            self.clock = next_time.max(self.clock);
            match event.kind {
                EventKind::WorkerArrives => {
                    self.arrival_scheduled = false;
                    self.handle_arrival();
                    self.schedule_next_arrival();
                }
                EventKind::AssignmentCompletes { hit, worker_idx } => {
                    self.handle_completion(hit, worker_idx);
                }
            }
        }
        self.clock = target;
    }

    fn collect(&mut self) -> Vec<TaskResponse> {
        std::mem::take(&mut self.ready)
    }

    fn now(&self) -> f64 {
        self.clock
    }

    fn stats(&self) -> PlatformStats {
        self.stats
    }

    fn is_complete(&self, hit: HitId) -> bool {
        self.hits
            .get(&hit)
            .map(|h| h.completed >= h.requested)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::PerfectModel;
    use crate::task::TaskKind;

    fn probe_spec() -> TaskSpec {
        TaskSpec::new(TaskKind::Probe {
            table: "talk".into(),
            known: vec![("title".into(), "CrowdDB".into())],
            asked: vec![("abstract".into(), crowddb_common::DataType::Str)],
            instructions: String::new(),
        })
        .reward(2)
        .replicate(3)
    }

    fn run_until_complete(
        p: &mut SimPlatform,
        hits: &[HitId],
        max_hours: f64,
    ) -> Vec<TaskResponse> {
        let mut responses = Vec::new();
        let mut hours = 0.0;
        while hours < max_hours {
            p.advance(600.0);
            hours += 600.0 / 3600.0;
            responses.extend(p.collect());
            if hits.iter().all(|h| p.is_complete(*h)) {
                break;
            }
        }
        responses
    }

    #[test]
    fn posts_complete_eventually() {
        let mut p = SimPlatform::amt(1, Box::new(PerfectModel));
        let hits = p.post(vec![probe_spec(); 10]).unwrap();
        let responses = run_until_complete(&mut p, &hits, 48.0);
        assert!(
            hits.iter().all(|h| p.is_complete(*h)),
            "10 HITs should finish within 48 virtual hours; got {} responses",
            responses.len()
        );
        assert_eq!(responses.len(), 30); // 10 HITs * 3 assignments
        let s = p.stats();
        assert_eq!(s.hits_posted, 10);
        assert_eq!(s.assignments_completed, 30);
        assert_eq!(s.hits_complete, 10);
        assert_eq!(s.cents_spent, 60);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut p = SimPlatform::amt(seed, Box::new(PerfectModel));
            let hits = p.post(vec![probe_spec(); 5]).unwrap();
            let r = run_until_complete(&mut p, &hits, 48.0);
            let times: Vec<u64> = r.iter().map(|x| x.completed_at.to_bits()).collect();
            (r.len(), p.stats().assignments_completed, times)
        };
        assert_eq!(run(7), run(7));
        // Different seeds explore different trajectories (statistically
        // certain with continuous completion times).
        assert_ne!(run(7).2, run(8).2);
    }

    #[test]
    fn one_seed_logs_one_arrival_sequence_across_open_groups() {
        // Five groups open at once, so every browse's weighted pick
        // depends on the order the groups are walked in.
        let run = || {
            let mut p = SimPlatform::amt(5, Box::new(PerfectModel));
            let mut hits = Vec::new();
            for table in ["talk", "paper", "room", "chair", "slot"] {
                let spec = TaskSpec::new(TaskKind::Probe {
                    table: table.into(),
                    known: vec![("title".into(), "CrowdDB".into())],
                    asked: vec![("abstract".into(), crowddb_common::DataType::Str)],
                    instructions: String::new(),
                });
                hits.extend(p.post(vec![spec.reward(2).replicate(2); 6]).unwrap());
            }
            run_until_complete(&mut p, &hits, 96.0)
                .iter()
                .map(|r| (r.hit, r.worker, r.completed_at.to_bits()))
                .collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first.len(), 60);
        assert_eq!(first, run());
    }

    #[test]
    fn no_worker_repeats_a_hit() {
        let mut p = SimPlatform::amt(3, Box::new(PerfectModel));
        let hits = p.post(vec![probe_spec().replicate(5); 4]).unwrap();
        let responses = run_until_complete(&mut p, &hits, 72.0);
        use std::collections::HashSet;
        let mut seen: HashSet<(HitId, WorkerId)> = HashSet::new();
        for r in &responses {
            assert!(
                seen.insert((r.hit, r.worker)),
                "worker {} answered {} twice",
                r.worker,
                r.hit
            );
        }
    }

    #[test]
    fn higher_reward_completes_faster() {
        // E1's shape: completion time decreases with reward.
        let time_to_done = |cents: u32| {
            let mut p = SimPlatform::amt(11, Box::new(PerfectModel));
            let hits = p
                .post(vec![probe_spec().reward(cents).replicate(1); 30])
                .unwrap();
            let mut t = 0.0;
            while !hits.iter().all(|h| p.is_complete(*h)) && t < 400_000.0 {
                p.advance(300.0);
                t = p.now();
            }
            let done = hits.iter().filter(|h| p.is_complete(**h)).count();
            (t, done)
        };
        let (t_cheap, done_cheap) = time_to_done(1);
        let (t_rich, done_rich) = time_to_done(8);
        assert!(done_rich >= done_cheap);
        assert!(
            t_rich < t_cheap,
            "8c should finish before 1c: {t_rich} vs {t_cheap}"
        );
    }

    #[test]
    fn extend_reopens_hit() {
        let mut p = SimPlatform::amt(5, Box::new(PerfectModel));
        let hits = p.post(vec![probe_spec().replicate(1)]).unwrap();
        run_until_complete(&mut p, &hits, 48.0);
        assert!(p.is_complete(hits[0]));
        p.extend(hits[0], 2).unwrap();
        assert!(!p.is_complete(hits[0]));
        run_until_complete(&mut p, &hits, 48.0);
        assert!(p.is_complete(hits[0]));
        assert_eq!(p.stats().assignments_completed, 3);
    }

    #[test]
    fn extend_unknown_hit_errors() {
        let mut p = SimPlatform::amt(5, Box::new(PerfectModel));
        assert!(p.extend(HitId(99), 1).is_err());
    }

    #[test]
    fn zero_assignment_post_rejected() {
        let mut p = SimPlatform::amt(5, Box::new(PerfectModel));
        let mut spec = probe_spec();
        spec.assignments = 0;
        assert!(p.post(vec![spec]).is_err());
    }

    #[test]
    fn clock_advances_even_without_events() {
        let mut p = SimPlatform::amt(5, Box::new(PerfectModel));
        p.advance(123.0);
        assert_eq!(p.now(), 123.0);
        p.advance(0.0);
        assert_eq!(p.now(), 123.0);
    }

    #[test]
    fn mobile_locality_excludes_remote_tasks() {
        let venue = (47.6, -122.3);
        let mut p = SimPlatform::mobile(2, venue, Box::new(PerfectModel));
        // Task constrained to the other side of the planet: nobody there.
        let far = probe_spec().near(-33.9, 151.2, 1000.0).replicate(1);
        let near = probe_spec().near(venue.0, venue.1, 5000.0).replicate(1);
        let hits = p.post(vec![far, near]).unwrap();
        let mut t = 0.0;
        while !p.is_complete(hits[1]) && t < 200_000.0 {
            p.advance(600.0);
            t = p.now();
        }
        assert!(p.is_complete(hits[1]), "near task should complete");
        assert!(!p.is_complete(hits[0]), "far task must find no workers");
    }

    #[test]
    fn worker_community_is_skewed() {
        // E3's shape: a small set of workers does most of the work.
        let mut p = SimPlatform::amt(13, Box::new(PerfectModel));
        let hits = p.post(vec![probe_spec().replicate(1); 200]).unwrap();
        let responses = run_until_complete(&mut p, &hits, 400.0);
        assert!(responses.len() >= 100, "got {}", responses.len());
        let mut per_worker: HashMap<WorkerId, usize> = HashMap::new();
        for r in &responses {
            *per_worker.entry(r.worker).or_default() += 1;
        }
        let mut counts: Vec<usize> = per_worker.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: usize = counts.iter().take(10).sum();
        assert!(
            (top10 as f64) > 0.3 * responses.len() as f64,
            "top-10 workers should carry a large share: {top10}/{}",
            responses.len()
        );
    }
}

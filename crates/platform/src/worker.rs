//! The simulated worker population.
//!
//! Calibrated after the empirical observations in the SIGMOD 2011
//! evaluation and the broader AMT literature of the period:
//!
//! * worker **activity is heavily skewed** (a small community does most
//!   of the work) — modeled with Zipf weights;
//! * workers have a **reservation wage**: low-paying HITs are accepted
//!   more slowly and by fewer workers — modeled with a log-normal wage
//!   distribution and a soft acceptance rule;
//! * answer **quality varies per worker** — modeled with a Beta-
//!   distributed per-worker error rate;
//! * task **service times are heavy-tailed** — log-normal.

use crowddb_common::rng::{Beta, LogNormal, Rng};

use crate::task::WorkerId;

/// One simulated worker.
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    /// Platform-wide id.
    pub id: WorkerId,
    /// Probability that one of this worker's answers is wrong.
    pub error_rate: f64,
    /// Minimum reward (cents) at which the worker reliably accepts tasks.
    pub reservation_wage_cents: f64,
    /// Mean seconds this worker needs per assignment.
    pub mean_service_secs: f64,
    /// Relative likelihood of showing up (Zipf weight, unnormalized).
    pub activity_weight: f64,
    /// Home location `(lat, lon)` — used by locality-aware platforms.
    pub location: (f64, f64),
}

/// Parameters of the worker population.
#[derive(Debug, Clone)]
pub struct WorkerPoolConfig {
    /// Number of registered workers.
    pub pool_size: usize,
    /// Zipf exponent for activity skew (0 = uniform, ~1 = strong skew).
    pub zipf_exponent: f64,
    /// Beta(a, b) parameters for per-worker error rates.
    pub error_alpha: f64,
    /// Beta(a, b) parameters for per-worker error rates.
    pub error_beta: f64,
    /// Log-normal (mu, sigma) of reservation wages in cents.
    pub wage_mu: f64,
    /// Log-normal sigma of reservation wages.
    pub wage_sigma: f64,
    /// Log-normal (mu, sigma) of per-task service seconds.
    pub service_mu: f64,
    /// Log-normal sigma of service seconds.
    pub service_sigma: f64,
    /// Center of the population's home locations.
    pub location_center: (f64, f64),
    /// Spread (degrees) of home locations around the center.
    pub location_spread: f64,
}

impl WorkerPoolConfig {
    /// An AMT-like population: large, globally spread, wage-sensitive.
    ///
    /// Defaults give a median reservation wage of ~3 cents with a long
    /// tail, median service time ~45 s, and mean error rate ~12% —
    /// consistent with the completion rates and answer quality the
    /// SIGMOD evaluation reports for 1–4 cent HITs.
    pub fn amt(pool_size: usize) -> WorkerPoolConfig {
        WorkerPoolConfig {
            pool_size,
            zipf_exponent: 1.05,
            error_alpha: 1.5,
            error_beta: 11.0,
            wage_mu: 1.1, // exp(1.1) ≈ 3 cents median
            wage_sigma: 0.8,
            service_mu: 3.8, // exp(3.8) ~ 45 s median
            service_sigma: 0.6,
            location_center: (0.0, 0.0),
            location_spread: 90.0,
        }
    }

    /// A conference-mobile population: small, local, volunteer (no wage
    /// sensitivity), slightly noisier answers (people between sessions).
    pub fn mobile(pool_size: usize, venue: (f64, f64)) -> WorkerPoolConfig {
        WorkerPoolConfig {
            pool_size,
            zipf_exponent: 0.8,
            error_alpha: 2.0,
            error_beta: 10.0,
            wage_mu: f64::NEG_INFINITY, // reservation wage 0: volunteers
            wage_sigma: 0.0,
            service_mu: 3.4, // exp(3.4) ~ 30 s: short mobile tasks
            service_sigma: 0.5,
            location_center: venue,
            location_spread: 0.01, // everyone near the venue
        }
    }
}

/// The generated population.
#[derive(Debug, Clone)]
pub struct WorkerPool {
    workers: Vec<WorkerProfile>,
    cumulative_weights: Vec<f64>,
}

impl WorkerPool {
    /// Generate a population deterministically from `seed`.
    pub fn generate(config: &WorkerPoolConfig, seed: u64) -> WorkerPool {
        let mut rng = Rng::seed_from_u64(seed);
        let error_dist = Beta::new(config.error_alpha, config.error_beta);
        let service_dist = LogNormal::new(config.service_mu, config.service_sigma);
        let wage_dist = if config.wage_mu.is_finite() && config.wage_sigma > 0.0 {
            Some(LogNormal::new(config.wage_mu, config.wage_sigma))
        } else {
            None
        };
        let mut workers = Vec::with_capacity(config.pool_size);
        for i in 0..config.pool_size {
            // Zipf activity: weight of the i-th worker is 1/(i+1)^s.
            let activity_weight = 1.0 / ((i + 1) as f64).powf(config.zipf_exponent);
            let location = (
                config.location_center.0 + rng.gen_range(-1.0..1.0) * config.location_spread,
                config.location_center.1 + rng.gen_range(-1.0..1.0) * config.location_spread,
            );
            workers.push(WorkerProfile {
                id: WorkerId(i as u64),
                error_rate: error_dist.sample(&mut rng).clamp(0.0, 1.0),
                reservation_wage_cents: wage_dist
                    .as_ref()
                    .map(|d| d.sample(&mut rng))
                    .unwrap_or(0.0),
                mean_service_secs: service_dist.sample(&mut rng).max(2.0),
                activity_weight,
                location,
            });
        }
        let mut cumulative_weights = Vec::with_capacity(workers.len());
        let mut acc = 0.0;
        for w in &workers {
            acc += w.activity_weight;
            cumulative_weights.push(acc);
        }
        WorkerPool {
            workers,
            cumulative_weights,
        }
    }

    /// Number of workers.
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.workers.is_empty()
    }

    /// The profile of worker `idx`.
    pub fn get(&self, idx: usize) -> &WorkerProfile {
        &self.workers[idx]
    }

    /// All workers.
    pub fn workers(&self) -> &[WorkerProfile] {
        &self.workers
    }

    /// Sample a worker index according to Zipf activity weights.
    pub fn sample_active(&self, rng: &mut Rng) -> usize {
        let total = *self
            .cumulative_weights
            .last()
            .expect("non-empty worker pool");
        let x = rng.gen_range(0.0..total);
        match self
            .cumulative_weights
            .binary_search_by(|w| w.partial_cmp(&x).expect("no NaN weights"))
        {
            Ok(i) => (i + 1).min(self.workers.len() - 1),
            Err(i) => i,
        }
    }

    /// Probability that `worker` accepts a task paying `reward_cents`.
    ///
    /// A soft threshold around the reservation wage: well below it the
    /// probability collapses, well above it saturates near 1. Volunteers
    /// (reservation wage 0) always accept.
    pub fn acceptance_probability(worker: &WorkerProfile, reward_cents: u32) -> f64 {
        if worker.reservation_wage_cents <= 0.0 {
            return 1.0;
        }
        let ratio = reward_cents as f64 / worker.reservation_wage_cents;
        // Logistic in log-ratio: p = 1 / (1 + ratio^-k)
        let k = 2.5;
        1.0 / (1.0 + ratio.powf(-k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(n: usize) -> WorkerPool {
        WorkerPool::generate(&WorkerPoolConfig::amt(n), 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = WorkerPool::generate(&WorkerPoolConfig::amt(50), 1);
        let b = WorkerPool::generate(&WorkerPoolConfig::amt(50), 1);
        for (x, y) in a.workers().iter().zip(b.workers().iter()) {
            assert_eq!(x.error_rate, y.error_rate);
            assert_eq!(x.reservation_wage_cents, y.reservation_wage_cents);
        }
        let c = WorkerPool::generate(&WorkerPoolConfig::amt(50), 2);
        assert_ne!(
            a.get(0).error_rate,
            c.get(0).error_rate,
            "different seeds must differ"
        );
    }

    #[test]
    fn error_rates_are_plausible() {
        let p = pool(500);
        let mean: f64 = p.workers().iter().map(|w| w.error_rate).sum::<f64>() / p.len() as f64;
        assert!(mean > 0.05 && mean < 0.25, "mean error {mean}");
        assert!(p
            .workers()
            .iter()
            .all(|w| (0.0..=1.0).contains(&w.error_rate)));
    }

    #[test]
    fn activity_sampling_is_skewed() {
        let p = pool(200);
        let mut rng = Rng::seed_from_u64(9);
        let mut counts = vec![0usize; p.len()];
        for _ in 0..20_000 {
            counts[p.sample_active(&mut rng)] += 1;
        }
        // The most active decile should dwarf the least active decile.
        let top: usize = counts[..20].iter().sum();
        let bottom: usize = counts[180..].iter().sum();
        assert!(
            top > bottom * 5,
            "expected heavy skew, top={top} bottom={bottom}"
        );
        // And every index sampled must be valid (no panics above).
    }

    #[test]
    fn acceptance_increases_with_reward() {
        let w = WorkerProfile {
            id: WorkerId(0),
            error_rate: 0.1,
            reservation_wage_cents: 2.0,
            mean_service_secs: 30.0,
            activity_weight: 1.0,
            location: (0.0, 0.0),
        };
        let p1 = WorkerPool::acceptance_probability(&w, 1);
        let p2 = WorkerPool::acceptance_probability(&w, 2);
        let p4 = WorkerPool::acceptance_probability(&w, 4);
        assert!(p1 < p2 && p2 < p4, "{p1} {p2} {p4}");
        assert!((WorkerPool::acceptance_probability(&w, 2) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn volunteers_always_accept() {
        let mut w = WorkerProfile {
            id: WorkerId(0),
            error_rate: 0.1,
            reservation_wage_cents: 0.0,
            mean_service_secs: 30.0,
            activity_weight: 1.0,
            location: (0.0, 0.0),
        };
        assert_eq!(WorkerPool::acceptance_probability(&w, 0), 1.0);
        w.reservation_wage_cents = -1.0;
        assert_eq!(WorkerPool::acceptance_probability(&w, 0), 1.0);
    }

    #[test]
    fn mobile_pool_is_local_and_volunteer() {
        let venue = (47.61, -122.33);
        let p = WorkerPool::generate(&WorkerPoolConfig::mobile(40, venue), 3);
        for w in p.workers() {
            assert!(w.reservation_wage_cents == 0.0);
            assert!((w.location.0 - venue.0).abs() < 0.02);
            assert!((w.location.1 - venue.1).abs() < 0.02);
        }
    }

    #[test]
    fn service_times_positive() {
        let p = pool(100);
        assert!(p.workers().iter().all(|w| w.mean_service_secs >= 2.0));
    }
}

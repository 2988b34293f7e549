//! EM truth inference (Dawid–Skene style).
//!
//! Majority voting treats every worker as equally reliable; the paper's
//! quality-control layer (and follow-up work such as T-Crowd) shows that
//! jointly estimating *per-worker reliability* and *posterior answer
//! distributions* over all open tasks in a round dominates per-task
//! majority vote — reliable workers' ballots count for more, careless
//! workers' for less.
//!
//! The model is a symmetric-confusion simplification of Dawid–Skene:
//! worker `w` answers correctly with probability `r_w` and otherwise
//! picks uniformly among an open answer space of at least
//! `SPREAD_FLOOR` alternatives. The E-step computes
//! posterior answer distributions given reliabilities; the M-step
//! re-estimates reliabilities as the posterior-weighted agreement rate
//! (Laplace-smoothed, clamped away from 0 and 1 so no ballot is ever
//! infinitely trusted or distrusted).
//!
//! Everything here is deterministic: tasks are processed in input order,
//! candidate keys are kept sorted, workers live in `BTreeMap`s, ties in
//! the MAP answer break toward the lexicographically smaller key using
//! [`f64::total_cmp`] — the same tie-break as
//! [`MajorityVote::leader`](crate::MajorityVote::leader), so the two
//! policies agree whenever the posteriors carry no extra information.

use std::collections::BTreeMap;

/// Reliability clamp: estimates are kept inside `[MIN_R, 1 - MIN_R]` so
/// a worker can never be treated as an oracle (or an anti-oracle) on the
/// basis of finitely many ballots.
const MIN_R: f64 = 0.05;

/// Open-world floor on the error spread: a careless worker's wrong
/// answer is modeled as landing uniformly in a space of at least this
/// many alternatives, even when fewer candidates were *observed*.
///
/// Without the floor the model is unidentifiable on two-candidate
/// tasks: "two reliable workers agree" and "two careless workers missed
/// onto the same answer" have symmetric likelihoods, and a single
/// hyper-active worker (crowd marketplaces are zipf-skewed) can drag EM
/// into the inverted fixed point that trusts them against every
/// agreeing pair. Pricing a miss-collision at `(1-r)/SPREAD_FLOOR`
/// breaks the symmetry the way an open answer space actually does:
/// independent errors rarely collide, so observed agreement is evidence
/// of truth.
///
/// The floor's value is the effective size of the error space. CrowdDB
/// answers are open strings (typos, junk e-mails, misremembered names),
/// so the space is large: with a small floor, one high-reliability
/// worker's *unique* wrong answer can out-log-odds two low-reliability
/// workers who independently agree on the truth — an inversion observed
/// at floor 3 on replication-3 probe rounds. Sweeping the floor over
/// captured rounds (independent-error and 30%-channel-fault regimes)
/// showed every regime improves monotonically up to ~15 and is flat
/// after; 15 prices a two-worker miss-collision steeply enough that
/// agreement wins unless the agreeing workers are at the reliability
/// clamp and the dissenter is near-perfect.
const SPREAD_FLOOR: f64 = 15.0;

/// Iteration/tolerance knobs for [`infer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EmConfig {
    /// Maximum E/M iterations. `0` skips inference entirely: posteriors
    /// are the raw vote fractions, which makes the MAP answer identical
    /// to the majority-vote leader (the reduction property the property
    /// suite checks).
    pub max_iters: u32,
    /// Convergence tolerance: stop once no posterior probability moved
    /// by more than this between iterations.
    pub tol: f64,
}

impl Default for EmConfig {
    fn default() -> Self {
        EmConfig {
            max_iters: 20,
            tol: 1e-6,
        }
    }
}

/// One task's ballots: `(worker, normalized answer key)` in arrival
/// order.
pub type TaskBallots = Vec<(u64, String)>;

/// The result of EM inference over one round's open tasks.
#[derive(Debug, Clone)]
pub struct EmSolution {
    /// Per task (input order): `(candidate key, posterior probability)`
    /// sorted by key. Empty for tasks that had no ballots.
    pub posteriors: Vec<Vec<(String, f64)>>,
    /// Estimated reliability per worker, clamped to `[0.05, 0.95]`.
    pub reliability: BTreeMap<u64, f64>,
    /// E/M iterations actually run (≤ `max_iters`).
    pub iters: u32,
}

impl EmSolution {
    /// The MAP answer for task `t`: the key with the highest posterior,
    /// ties broken toward the lexicographically smaller key. Returns the
    /// key and its posterior confidence.
    pub fn map_answer(&self, t: usize) -> Option<(&str, f64)> {
        argmax(self.posteriors.get(t)?)
    }
}

/// Deterministic argmax over `(key, probability)` pairs: highest
/// probability wins under [`f64::total_cmp`]; exact ties go to the
/// smaller key. `NaN` never wins against a real probability because
/// `total_cmp` orders it below every positive value — but the E-step
/// cannot produce `NaN` in the first place (see `e_step`).
fn argmax(dist: &[(String, f64)]) -> Option<(&str, f64)> {
    dist.iter()
        .max_by(|(ka, pa), (kb, pb)| pa.total_cmp(pb).then_with(|| kb.cmp(ka)))
        .map(|(k, p)| (k.as_str(), *p))
}

/// Initial posteriors: per-task vote fractions over the sorted candidate
/// set. A task with `n` ballots of which `c` chose key `k` starts at
/// `q(k) = c/n`.
fn vote_fractions(tasks: &[TaskBallots]) -> Vec<Vec<(String, f64)>> {
    tasks
        .iter()
        .map(|ballots| {
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for (_, key) in ballots {
                *counts.entry(key.as_str()).or_default() += 1;
            }
            let n = ballots.len() as f64;
            counts
                .into_iter()
                .map(|(k, c)| (k.to_string(), c as f64 / n))
                .collect()
        })
        .collect()
}

/// M-step: reliability of each worker is their posterior-weighted
/// agreement rate across all ballots, Laplace-smoothed (`+1 / +2`) and
/// clamped to `[MIN_R, 1 - MIN_R]`.
fn m_step(tasks: &[TaskBallots], posteriors: &[Vec<(String, f64)>]) -> BTreeMap<u64, f64> {
    let mut agree: BTreeMap<u64, f64> = BTreeMap::new();
    let mut seen: BTreeMap<u64, f64> = BTreeMap::new();
    for (t, ballots) in tasks.iter().enumerate() {
        let dist = &posteriors[t];
        for (worker, key) in ballots {
            let q = dist
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, p)| *p)
                .unwrap_or(0.0);
            *agree.entry(*worker).or_default() += q;
            *seen.entry(*worker).or_default() += 1.0;
        }
    }
    agree
        .into_iter()
        .map(|(w, a)| {
            let n = seen[&w];
            let r = (a + 1.0) / (n + 2.0);
            (w, r.clamp(MIN_R, 1.0 - MIN_R))
        })
        .collect()
}

/// E-step: posterior over each task's candidates given per-worker
/// reliabilities. Uses log-space accumulation with max-subtraction so
/// the softmax can neither overflow nor produce `NaN`: every log weight
/// is finite (reliabilities are clamped away from 0 and 1), so the
/// normalizer is ≥ 1 (the max term contributes exactly `exp(0) = 1`).
///
/// `reliability_of` maps a worker to `r_w`; pass a constant closure for
/// the uniform-reliability reduction property.
pub fn e_step(
    tasks: &[TaskBallots],
    candidates: &[Vec<String>],
    reliability_of: impl Fn(u64) -> f64,
) -> Vec<Vec<(String, f64)>> {
    tasks
        .iter()
        .zip(candidates)
        .map(|(ballots, cands)| {
            if cands.is_empty() {
                return Vec::new();
            }
            // Symmetric confusion with an open-world floor: a wrong
            // worker spreads error mass uniformly over at least
            // `SPREAD_FLOOR` alternatives, not just the observed m-1
            // (see the constant's docs for why the floor is load-bearing).
            let spread = (cands.len() as f64 - 1.0).max(SPREAD_FLOOR);
            let mut logw: Vec<f64> = vec![0.0; cands.len()];
            for (worker, key) in ballots {
                let r = reliability_of(*worker).clamp(MIN_R, 1.0 - MIN_R);
                let ln_hit = r.ln();
                let ln_miss = ((1.0 - r) / spread).ln();
                for (i, cand) in cands.iter().enumerate() {
                    logw[i] += if cand == key { ln_hit } else { ln_miss };
                }
            }
            let max = logw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = logw.iter().map(|l| (l - max).exp()).collect();
            let norm: f64 = weights.iter().sum();
            cands
                .iter()
                .zip(&weights)
                .map(|(k, w)| (k.clone(), w / norm))
                .collect()
        })
        .collect()
}

/// Maximum absolute posterior movement between two E-steps.
fn max_delta(a: &[Vec<(String, f64)>], b: &[Vec<(String, f64)>]) -> f64 {
    let mut d: f64 = 0.0;
    for (da, db) in a.iter().zip(b) {
        for ((_, pa), (_, pb)) in da.iter().zip(db) {
            d = d.max((pa - pb).abs());
        }
    }
    d
}

/// Run EM truth inference over one round's tasks.
///
/// Posteriors start from per-task vote fractions (so `max_iters == 0`
/// is exactly majority vote), then alternate M-steps (reliability from
/// posteriors) and E-steps (posteriors from reliability) until either
/// the iteration cap is hit or no posterior moves by more than
/// `cfg.tol`.
pub fn infer(tasks: &[TaskBallots], cfg: &EmConfig) -> EmSolution {
    refine(tasks, vote_fractions(tasks), cfg)
}

/// Like [`infer`] but starting from the given posteriors instead of the
/// vote fractions. Running `refine` on a converged solution's own
/// posteriors moves nothing (fixed-point stability — checked by the
/// property suite).
pub fn refine(tasks: &[TaskBallots], init: Vec<Vec<(String, f64)>>, cfg: &EmConfig) -> EmSolution {
    let candidates: Vec<Vec<String>> = init
        .iter()
        .map(|dist| dist.iter().map(|(k, _)| k.clone()).collect())
        .collect();
    let mut posteriors = init;
    let mut reliability = BTreeMap::new();
    let mut iters = 0;
    for _ in 0..cfg.max_iters {
        reliability = m_step(tasks, &posteriors);
        let rel = &reliability;
        let next = e_step(tasks, &candidates, |w| rel[&w]);
        let delta = max_delta(&posteriors, &next);
        posteriors = next;
        iters += 1;
        if delta <= cfg.tol {
            break;
        }
    }
    if reliability.is_empty() {
        // max_iters == 0: report the smoothed agreement against the raw
        // vote fractions so callers still get a reliability readout.
        reliability = m_step(tasks, &posteriors);
    }
    EmSolution {
        posteriors,
        reliability,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ballots: &[(u64, &str)]) -> TaskBallots {
        ballots.iter().map(|(w, k)| (*w, k.to_string())).collect()
    }

    #[test]
    fn unanimous_task_is_certain() {
        let tasks = vec![t(&[(1, "ibm"), (2, "ibm"), (3, "ibm")])];
        let sol = infer(&tasks, &EmConfig::default());
        let (key, conf) = sol.map_answer(0).unwrap();
        assert_eq!(key, "ibm");
        assert!((conf - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reliable_minority_can_outvote_careless_majority() {
        // Workers 1 and 2 agree with each other on nine tasks; workers
        // 3, 4, 5 answer randomly-looking junk that never agrees. On the
        // probe task, EM should trust the two consistent workers over
        // the three mutually-disagreeing ones, flipping the raw 3-vs-2
        // "majority" (three distinct junk answers never held a majority,
        // but make the consistent pair a minority of ballots).
        let mut tasks: Vec<TaskBallots> = Vec::new();
        for i in 0..9 {
            let good = format!("g{i}");
            tasks.push(t(&[
                (1, &good),
                (2, &good),
                (3, &format!("x{i}")),
                (4, &format!("y{i}")),
                (5, &format!("z{i}")),
            ]));
        }
        // Probe: 1,2 say "right"; 3,4 happen to collide on "wrong".
        tasks.push(t(&[
            (1, "right"),
            (2, "right"),
            (3, "wrong"),
            (4, "wrong"),
            (5, "other"),
        ]));
        let sol = infer(&tasks, &EmConfig::default());
        let (key, conf) = sol.map_answer(9).unwrap();
        assert_eq!(key, "right", "reliability should break the tie");
        assert!(conf > 0.5);
        assert!(sol.reliability[&1] > sol.reliability[&3]);
    }

    #[test]
    fn zero_iters_is_majority_vote() {
        let tasks = vec![t(&[(1, "a"), (2, "a"), (3, "b")])];
        let sol = infer(
            &tasks,
            &EmConfig {
                max_iters: 0,
                tol: 1e-6,
            },
        );
        assert_eq!(sol.iters, 0);
        let (key, conf) = sol.map_answer(0).unwrap();
        assert_eq!(key, "a");
        assert!((conf - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn equal_posterior_tie_breaks_to_smaller_key() {
        // Crafted equal-posterior candidates: symmetric 1-vs-1 ballots
        // give exactly equal posteriors at every iteration; the MAP
        // answer must deterministically pick the smaller key (the same
        // convention as MajorityVote::leader), not whichever hash order
        // or NaN artifact happens by.
        let tasks = vec![t(&[(1, "beta"), (2, "alpha")])];
        let sol = infer(&tasks, &EmConfig::default());
        let dist = &sol.posteriors[0];
        assert!((dist[0].1 - dist[1].1).abs() < 1e-12, "posteriors tie");
        assert_eq!(sol.map_answer(0).unwrap().0, "alpha");
    }

    #[test]
    fn hyperactive_wrong_worker_cannot_invert_the_round() {
        // Zipf-skewed marketplaces have hub workers answering most of a
        // round's HITs. Worker 0 is on every task, wrong on a third of
        // them with unique typos; pairs of occasional workers agree on
        // the truth. Without the open-world spread floor, EM converges
        // to the inverted fixed point that trusts worker 0 against every
        // agreeing pair (observed two-candidate tasks make "reliable
        // agreement" and "colliding misses" symmetric). With it, the
        // agreeing pairs must win every task they are right on.
        let mut tasks: Vec<TaskBallots> = Vec::new();
        for i in 0..12 {
            let truth = format!("t{i}");
            let pair = (10 + 2 * (i as u64 % 6), 11 + 2 * (i as u64 % 6));
            let hub = if i % 3 == 0 {
                format!("typo-{i}") // worker 0 wrong, uniquely
            } else {
                truth.clone()
            };
            tasks.push(t(&[(pair.0, &truth), (pair.1, &truth), (0, &hub)]));
        }
        let sol = infer(&tasks, &EmConfig::default());
        for (i, _) in tasks.iter().enumerate() {
            assert_eq!(
                sol.map_answer(i).unwrap().0,
                format!("t{i}"),
                "task {i}: the hub worker hijacked the round"
            );
        }
        let hub_r = sol.reliability[&0];
        let pair_r = sol.reliability[&10];
        assert!(
            hub_r < pair_r,
            "hub (r={hub_r}) must not outrank consistent pair workers (r={pair_r})"
        );
    }

    #[test]
    fn empty_tasks_are_harmless() {
        let tasks: Vec<TaskBallots> = vec![Vec::new(), t(&[(1, "a")])];
        let sol = infer(&tasks, &EmConfig::default());
        assert!(sol.map_answer(0).is_none());
        assert_eq!(sol.map_answer(1).unwrap().0, "a");
    }

    #[test]
    fn posteriors_are_normalized_and_finite() {
        let tasks = vec![
            t(&[(1, "a"), (2, "b"), (3, "c"), (4, "a"), (5, "a")]),
            t(&[(1, "x"), (2, "x"), (3, "y")]),
        ];
        let sol = infer(&tasks, &EmConfig::default());
        for dist in &sol.posteriors {
            let sum: f64 = dist.iter().map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9);
            assert!(dist.iter().all(|(_, p)| p.is_finite() && *p >= 0.0));
        }
    }
}

//! Property tests for the quality-control primitives: seeded loops over
//! `crowddb_common::rng`, reproducible by seed.
//!
//! Properties:
//!
//! * majority voting is **permutation-invariant**: the outcome does not
//!   depend on the order ballots arrive in;
//! * a decided vote never returns a value **outside the candidate set**;
//! * normalization is **idempotent** for every normalizer preset;
//! * Borda rank aggregation is **total** (a permutation of `0..n`);
//! * pairwise majorities and Kendall tau are **antisymmetric**;
//! * EM truth inference is **permutation-invariant** in both ballot and
//!   task order, **reduces to majority vote** at zero iterations,
//!   always yields **normalized, finite posteriors**, and is a
//!   **fixed point** of its own refinement.

use std::collections::HashMap;

use crowddb_common::rng::Rng;
use crowddb_common::Value;
use crowddb_quality::infer::{infer, refine, TaskBallots};
use crowddb_quality::rank::{kendall_tau, PairwiseVotes};
use crowddb_quality::{EmConfig, MajorityVote, Normalizer, VoteConfig, VoteOutcome};

/// A random ballot multiset over a small key alphabet. The stored value
/// is derived from the key, mirroring how the normalizer feeds the vote
/// (one canonical key → one stored value).
fn random_ballots(rng: &mut Rng) -> Vec<(String, Value)> {
    let n = rng.gen_range(1..=12);
    (0..n)
        .map(|_| {
            let key = format!("key-{}", rng.gen_range(0..5));
            let stored = Value::str(key.to_uppercase());
            (key, stored)
        })
        .collect()
}

fn random_vote_config(rng: &mut Rng) -> VoteConfig {
    VoteConfig {
        replication: rng.gen_range(1..=5),
        max_escalations: rng.gen_range(0..4),
    }
}

fn tally(ballots: &[(String, Value)]) -> MajorityVote {
    let mut vote = MajorityVote::new();
    for (key, stored) in ballots {
        vote.add(key.clone(), stored.clone());
    }
    vote
}

#[test]
fn vote_outcome_is_permutation_invariant() {
    let mut rng = Rng::seed_from_u64(0xC0FFEE);
    for _ in 0..300 {
        let ballots = random_ballots(&mut rng);
        let config = random_vote_config(&mut rng);
        let baseline = tally(&ballots).outcome(&config);
        let mut shuffled = ballots.clone();
        rng.shuffle(&mut shuffled);
        let outcome = tally(&shuffled).outcome(&config);
        assert_eq!(
            outcome, baseline,
            "ballot order changed the outcome: {ballots:?} vs {shuffled:?}"
        );
    }
}

#[test]
fn decided_vote_never_leaves_the_candidate_set() {
    let mut rng = Rng::seed_from_u64(0xBEEF);
    for _ in 0..300 {
        let ballots = random_ballots(&mut rng);
        let config = random_vote_config(&mut rng);
        if let VoteOutcome::Decided {
            value,
            votes,
            total,
        } = tally(&ballots).outcome(&config)
        {
            assert!(
                ballots.iter().any(|(_, stored)| *stored == value),
                "winner {value:?} was never a ballot in {ballots:?}"
            );
            assert!(votes * 2 > total, "majority must be strict");
            assert_eq!(total, ballots.len());
        }
    }
}

#[test]
fn normalize_is_idempotent() {
    let mut rng = Rng::seed_from_u64(0xDECADE);
    let alphabet: Vec<char> = "aAbBzZ019 \t\n.,;:!?'\"()[]{}éÉßΣσ-_/#".chars().collect();
    let normalizers = [
        Normalizer::new(),
        Normalizer::for_entities(),
        Normalizer {
            case_fold: false,
            collapse_whitespace: true,
            strip_punctuation: true,
        },
    ];
    for _ in 0..300 {
        let len = rng.gen_range(0..24);
        let raw: String = (0..len)
            .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
            .collect();
        for n in &normalizers {
            let once = n.normalize(&raw);
            let twice = n.normalize(&once);
            assert_eq!(once, twice, "not idempotent on {raw:?}");
        }
    }
}

#[test]
fn borda_ranking_is_a_total_order() {
    let mut rng = Rng::seed_from_u64(0xFACADE);
    for _ in 0..200 {
        let n = rng.gen_range(2..11);
        let mut pv = PairwiseVotes::new();
        for _ in 0..rng.gen_range(0..40) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a != b {
                pv.record(a, b);
            }
        }
        let ranking = pv.borda_ranking(n);
        assert_eq!(ranking.len(), n, "ranking must cover every item");
        let mut sorted = ranking.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..n).collect::<Vec<_>>(),
            "ranking must be a permutation of 0..{n}"
        );
    }
}

#[test]
fn pairwise_majorities_are_antisymmetric() {
    let mut rng = Rng::seed_from_u64(0xABBA);
    for _ in 0..200 {
        let n = rng.gen_range(2..8);
        let mut pv = PairwiseVotes::new();
        let mut flipped = PairwiseVotes::new();
        let mut counts: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
        for _ in 0..rng.gen_range(1..=30) {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            pv.record(a, b);
            flipped.record(b, a);
            let key = (a.min(b), a.max(b));
            let e = counts.entry(key).or_insert((0, 0));
            if a < b {
                e.0 += 1;
            } else {
                e.1 += 1;
            }
        }
        for (&(a, b), &(wa, wb)) in &counts {
            // winner() is order-of-arguments symmetric...
            assert_eq!(pv.winner(a, b), pv.winner(b, a));
            if wa != wb {
                // ...and a strict majority flips when every ballot flips.
                let w = pv.winner(a, b).unwrap();
                let w_flipped = flipped.winner(a, b).unwrap();
                assert_ne!(w, w_flipped, "strict winner must flip: pair ({a},{b})");
                assert_eq!(w, if wa > wb { a } else { b });
            } else {
                // Exact ties break to the smaller index either way.
                assert_eq!(pv.winner(a, b), Some(a));
                assert_eq!(flipped.winner(a, b), Some(a));
            }
        }
    }
}

#[test]
fn kendall_tau_is_antisymmetric_under_reversal() {
    let mut rng = Rng::seed_from_u64(0x5EED);
    for _ in 0..200 {
        let n = rng.gen_range(2..12);
        let mut a: Vec<usize> = (0..n).collect();
        let mut b: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut a);
        rng.shuffle(&mut b);
        let tau = kendall_tau(&a, &b);
        assert!((-1.0..=1.0).contains(&tau), "tau out of range: {tau}");
        assert!(
            (kendall_tau(&a, &a) - 1.0).abs() < 1e-12,
            "self-correlation must be 1"
        );
        // Reversing one ranking flips every pairwise order, so tau negates.
        let reversed: Vec<usize> = b.iter().rev().copied().collect();
        let tau_rev = kendall_tau(&a, &reversed);
        assert!(
            (tau + tau_rev).abs() < 1e-12,
            "tau({a:?}, {b:?}) = {tau} but reversed gives {tau_rev}"
        );
    }
}

/// A random round of EM tasks: 1–6 tasks, each with 1–7 ballots cast by
/// workers drawn from a pool of 6 over a 4-key alphabet. Worker identity
/// repeats across tasks, so reliability estimation has signal to chew on.
fn random_tasks(rng: &mut Rng) -> Vec<TaskBallots> {
    let n_tasks = rng.gen_range(1..=6);
    (0..n_tasks)
        .map(|_| {
            let n = rng.gen_range(1..=7);
            (0..n)
                .map(|_| {
                    (
                        rng.gen_range(0..6u64),
                        format!("key-{}", rng.gen_range(0..4)),
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn em_is_permutation_invariant() {
    // Shuffling ballot arrival order within tasks AND reordering whole
    // tasks must not change posterior mass or reliability beyond float
    // roundoff (summation order moves the last bits) — the model
    // conditions on the multiset of (worker, key) ballots.
    let mut rng = Rng::seed_from_u64(0xE31);
    let cfg = EmConfig::default();
    for _ in 0..150 {
        let tasks = random_tasks(&mut rng);
        let baseline = infer(&tasks, &cfg);
        let mut shuffled = tasks.clone();
        for ballots in &mut shuffled {
            rng.shuffle(ballots);
        }
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        rng.shuffle(&mut order);
        let permuted: Vec<TaskBallots> = order.iter().map(|&i| shuffled[i].clone()).collect();
        let sol = infer(&permuted, &cfg);
        for (w, r) in &baseline.reliability {
            assert!(
                (sol.reliability[w] - r).abs() < 1e-6,
                "worker {w}: reliability moved under permutation"
            );
        }
        for (new_t, &old_t) in order.iter().enumerate() {
            for ((ka, pa), (kb, pb)) in sol.posteriors[new_t]
                .iter()
                .zip(&baseline.posteriors[old_t])
            {
                assert_eq!(ka, kb, "task {old_t}: candidate sets diverged");
                assert!(
                    (pa - pb).abs() < 1e-6,
                    "task {old_t} key {ka}: posterior depends on order ({pa} vs {pb})"
                );
            }
        }
    }
}

#[test]
fn em_with_zero_iters_is_majority_vote() {
    // `max_iters == 0` must make the MAP answer coincide with
    // `MajorityVote::leader` — same winner, same tie-break to the
    // smaller key — on every input, not just crafted examples.
    let mut rng = Rng::seed_from_u64(0xE32);
    let cfg = EmConfig {
        max_iters: 0,
        tol: 1e-6,
    };
    for _ in 0..300 {
        let tasks = random_tasks(&mut rng);
        let sol = infer(&tasks, &cfg);
        assert_eq!(sol.iters, 0);
        for (t, ballots) in tasks.iter().enumerate() {
            let mut vote = MajorityVote::new();
            for (w, key) in ballots {
                vote.add_from(*w, key.clone(), Value::str(key.to_uppercase()));
            }
            let (leader_value, leader_votes) = vote.leader().expect("non-empty task");
            let (map_key, conf) = sol.map_answer(t).expect("non-empty task");
            assert_eq!(
                Value::str(map_key.to_uppercase()),
                *leader_value,
                "task {t}: EM@0 and majority disagree on {ballots:?}"
            );
            let frac = leader_votes as f64 / ballots.len() as f64;
            assert!(
                (conf - frac).abs() < 1e-12,
                "task {t}: posterior {conf} is not the vote fraction {frac}"
            );
        }
    }
}

#[test]
fn em_posteriors_are_normalized_and_finite() {
    // For every random input and iteration budget: each non-empty task's
    // posterior sums to 1 with no NaN/negative/infinite mass, and the
    // reliability estimates stay inside the documented clamp.
    let mut rng = Rng::seed_from_u64(0xE33);
    for _ in 0..200 {
        let tasks = random_tasks(&mut rng);
        let cfg = EmConfig {
            max_iters: rng.gen_range(0..30u32),
            tol: 0.0, // never converge early: exercise the full budget
        };
        let sol = infer(&tasks, &cfg);
        for (t, dist) in sol.posteriors.iter().enumerate() {
            assert!(!dist.is_empty(), "task {t} had ballots");
            let sum: f64 = dist.iter().map(|(_, p)| p).sum();
            assert!((sum - 1.0).abs() < 1e-9, "task {t}: sums to {sum}");
            assert!(
                dist.iter().all(|(_, p)| p.is_finite() && *p >= 0.0),
                "task {t}: non-finite or negative posterior in {dist:?}"
            );
        }
        for (w, r) in &sol.reliability {
            assert!(
                (0.05..=0.95).contains(r),
                "worker {w}: reliability {r} escaped the clamp"
            );
        }
    }
}

#[test]
fn em_fixed_point_is_stable_under_refinement() {
    // Run EM to convergence, then refine again from the converged
    // posteriors: nothing may move by more than the tolerance. A policy
    // whose output shifts when re-settled would break settle-time
    // determinism.
    let mut rng = Rng::seed_from_u64(0xE34);
    let cfg = EmConfig {
        max_iters: 200,
        tol: 1e-12,
    };
    for _ in 0..100 {
        let tasks = random_tasks(&mut rng);
        let sol = infer(&tasks, &cfg);
        if sol.iters >= cfg.max_iters {
            continue; // hit the cap without converging; not a fixed point
        }
        let again = refine(
            &tasks,
            sol.posteriors.clone(),
            &EmConfig {
                max_iters: 1,
                tol: 1e-12,
            },
        );
        for (t, (da, db)) in sol.posteriors.iter().zip(&again.posteriors).enumerate() {
            for ((ka, pa), (kb, pb)) in da.iter().zip(db) {
                assert_eq!(ka, kb);
                assert!(
                    (pa - pb).abs() < 1e-6,
                    "task {t} key {ka}: converged posterior moved {pa} -> {pb}"
                );
            }
        }
    }
}

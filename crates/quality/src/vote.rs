//! Majority voting with escalation.
//!
//! Each crowd task is replicated across several assignments; the answers
//! are normalized into keys and the key with a strict majority wins. When
//! no strict majority exists the vote **escalates**: the task manager
//! posts additional assignments until a majority emerges or the escalation
//! budget is exhausted.

use std::collections::HashMap;

use crowddb_common::Value;

/// Voting policy for one task type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteConfig {
    /// Initial number of assignments per task (the paper's experiments
    /// used 1, 3, and 5).
    pub replication: usize,
    /// Maximum number of *additional* assignments that may be posted when
    /// the vote ties.
    pub max_escalations: usize,
}

impl Default for VoteConfig {
    fn default() -> Self {
        VoteConfig {
            replication: 3,
            max_escalations: 2,
        }
    }
}

impl VoteConfig {
    /// A single-assignment config (no quality control; fastest/cheapest).
    pub fn single() -> VoteConfig {
        VoteConfig {
            replication: 1,
            max_escalations: 0,
        }
    }

    /// Classic `n`-way majority with up to `n` extra assignments.
    pub fn replicated(n: usize) -> VoteConfig {
        VoteConfig {
            replication: n.max(1),
            max_escalations: n,
        }
    }
}

/// The current state of a vote.
#[derive(Debug, Clone, PartialEq)]
pub enum VoteOutcome {
    /// A strict majority exists; carries the winning stored value and its
    /// vote count.
    Decided {
        /// The winning (stored) value.
        value: Value,
        /// Votes for the winner.
        votes: usize,
        /// Total valid votes cast.
        total: usize,
    },
    /// Not enough votes yet, or a tie: `needed` more assignments are
    /// required before a strict majority is possible.
    Pending {
        /// Additional assignments to post.
        needed: usize,
    },
    /// Escalation budget exhausted without a majority.
    Unresolved,
}

/// An in-progress majority vote over normalized answer keys.
///
/// Keys are produced by [`crate::Normalizer`]; each key remembers the
/// first stored [`Value`] seen for it (first-answer-wins within a key, the
/// usual convention since keys are canonical).
#[derive(Debug, Clone, Default)]
pub struct MajorityVote {
    tallies: HashMap<String, (Value, usize)>,
    /// `(worker, key)` per ballot, in arrival order. Only populated via
    /// [`add_from`](MajorityVote::add_from); the EM truth-inference
    /// policy consumes these to estimate per-worker reliability.
    ballots: Vec<(u64, String)>,
    total: usize,
    escalations_used: usize,
}

impl MajorityVote {
    /// Empty vote.
    pub fn new() -> MajorityVote {
        MajorityVote::default()
    }

    /// Record one worker's (normalized key, stored value) answer.
    pub fn add(&mut self, key: String, stored: Value) {
        let e = self.tallies.entry(key).or_insert((stored, 0));
        e.1 += 1;
        self.total += 1;
    }

    /// Like [`add`](MajorityVote::add) but remembers *which* worker cast
    /// the ballot, enabling joint worker-reliability inference
    /// ([`crate::infer`]) at settle time.
    pub fn add_from(&mut self, worker: u64, key: String, stored: Value) {
        self.ballots.push((worker, key.clone()));
        self.add(key, stored);
    }

    /// Ballots recorded through [`add_from`](MajorityVote::add_from),
    /// in arrival order.
    pub fn ballots(&self) -> &[(u64, String)] {
        &self.ballots
    }

    /// The stored value first seen for `key`, if any ballot used it.
    pub fn stored(&self, key: &str) -> Option<&Value> {
        self.tallies.get(key).map(|(v, _)| v)
    }

    /// Raw vote count for `key`.
    pub fn count(&self, key: &str) -> usize {
        self.tallies.get(key).map(|(_, c)| *c).unwrap_or(0)
    }

    /// Total valid votes cast so far.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Record that an escalation round was posted.
    pub fn note_escalation(&mut self) {
        self.escalations_used += 1;
    }

    /// Escalation rounds used so far.
    pub fn escalations_used(&self) -> usize {
        self.escalations_used
    }

    /// The current leader `(value, votes)`, breaking exact ties by key so
    /// the result is deterministic.
    pub fn leader(&self) -> Option<(&Value, usize)> {
        self.tallies
            .iter()
            .max_by(|(ka, (_, ca)), (kb, (_, cb))| ca.cmp(cb).then_with(|| kb.cmp(ka)))
            .map(|(_, (v, c))| (v, *c))
    }

    /// Evaluate the vote under `config`.
    ///
    /// A winner needs a *strict* majority of the votes cast so far, and at
    /// least `config.replication` votes must have been cast (so a 1-vote
    /// "majority" cannot short-circuit a 3-way replication).
    pub fn outcome(&self, config: &VoteConfig) -> VoteOutcome {
        if self.total < config.replication {
            // Too few *valid* votes (spam/blank answers are discarded
            // before they reach the tally). Keep escalating only while
            // the budget allows; otherwise the vote is unresolvable —
            // without this check a task whose answers never parse would
            // escalate forever.
            if self.escalations_used >= config.max_escalations {
                return VoteOutcome::Unresolved;
            }
            return VoteOutcome::Pending {
                needed: config.replication - self.total,
            };
        }
        if let Some((value, votes)) = self.leader() {
            if votes * 2 > self.total {
                return VoteOutcome::Decided {
                    value: value.clone(),
                    votes,
                    total: self.total,
                };
            }
        }
        if self.escalations_used < config.max_escalations {
            // Post enough extra assignments that a strict majority becomes
            // possible: one extra vote breaks a two-way tie.
            VoteOutcome::Pending { needed: 1 }
        } else {
            VoteOutcome::Unresolved
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn add_str(v: &mut MajorityVote, s: &str) {
        v.add(s.to_lowercase(), Value::str(s));
    }

    #[test]
    fn unanimous_wins() {
        let mut v = MajorityVote::new();
        for _ in 0..3 {
            add_str(&mut v, "IBM");
        }
        match v.outcome(&VoteConfig::default()) {
            VoteOutcome::Decided {
                value,
                votes,
                total,
            } => {
                assert_eq!(value, Value::str("IBM"));
                assert_eq!(votes, 3);
                assert_eq!(total, 3);
            }
            other => panic!("expected Decided, got {other:?}"),
        }
    }

    #[test]
    fn majority_wins_over_minority() {
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        add_str(&mut v, "IBM");
        add_str(&mut v, "Apple");
        assert!(matches!(
            v.outcome(&VoteConfig::default()),
            VoteOutcome::Decided {
                votes: 2,
                total: 3,
                ..
            }
        ));
    }

    #[test]
    fn pending_until_replication_met() {
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        let out = v.outcome(&VoteConfig::default());
        assert_eq!(out, VoteOutcome::Pending { needed: 2 });
    }

    #[test]
    fn no_early_decision_with_single_vote_under_replication() {
        // Even a unanimous single vote can't decide a 3-replicated task.
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        assert!(matches!(
            v.outcome(&VoteConfig::replicated(3)),
            VoteOutcome::Pending { .. }
        ));
    }

    #[test]
    fn tie_escalates_then_resolves() {
        let cfg = VoteConfig {
            replication: 2,
            max_escalations: 1,
        };
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        add_str(&mut v, "Apple");
        assert_eq!(v.outcome(&cfg), VoteOutcome::Pending { needed: 1 });
        v.note_escalation();
        add_str(&mut v, "IBM");
        assert!(matches!(
            v.outcome(&cfg),
            VoteOutcome::Decided {
                votes: 2,
                total: 3,
                ..
            }
        ));
    }

    #[test]
    fn tie_exhausts_escalation_budget() {
        let cfg = VoteConfig {
            replication: 2,
            max_escalations: 1,
        };
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        add_str(&mut v, "Apple");
        v.note_escalation();
        add_str(&mut v, "Dell");
        // 1/1/1 with no escalations left.
        assert_eq!(v.outcome(&cfg), VoteOutcome::Unresolved);
    }

    #[test]
    fn single_config_decides_immediately() {
        let mut v = MajorityVote::new();
        add_str(&mut v, "whatever");
        assert!(matches!(
            v.outcome(&VoteConfig::single()),
            VoteOutcome::Decided {
                votes: 1,
                total: 1,
                ..
            }
        ));
    }

    #[test]
    fn leader_tie_break_is_deterministic() {
        let mut v = MajorityVote::new();
        v.add("a".into(), Value::str("A"));
        v.add("b".into(), Value::str("B"));
        // Smaller key wins the tie-break.
        assert_eq!(v.leader().unwrap().0, &Value::str("A"));
    }

    #[test]
    fn adding_agreeing_votes_never_flips_winner() {
        let mut v = MajorityVote::new();
        add_str(&mut v, "X");
        add_str(&mut v, "X");
        add_str(&mut v, "Y");
        let winner_before = v.leader().unwrap().0.clone();
        add_str(&mut v, "X");
        assert_eq!(v.leader().unwrap().0, &winner_before);
    }

    #[test]
    fn normalized_keys_vote_together() {
        let mut v = MajorityVote::new();
        // Same key, different stored values: first stored value retained.
        v.add("ibm".into(), Value::str("IBM"));
        v.add("ibm".into(), Value::str("ibm"));
        v.add("apple".into(), Value::str("Apple"));
        match v.outcome(&VoteConfig::default()) {
            VoteOutcome::Decided { value, votes, .. } => {
                assert_eq!(value, Value::str("IBM"));
                assert_eq!(votes, 2);
            }
            other => panic!("{other:?}"),
        }
    }
}

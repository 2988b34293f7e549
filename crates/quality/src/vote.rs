//! Majority voting with escalation.
//!
//! Each crowd task is replicated across several assignments; the answers
//! are normalized into keys and the key with a strict majority wins. A
//! vote over a replication of `r` asks for its ballots a quorum at a
//! time: `⌊r/2⌋ + 1` ballots can already hold a majority of `r`, and
//! once the leader holds that many, the ballots not yet asked cannot
//! overturn it. A contested vote grows towards `r`; when `r` ballots
//! still give no strict majority the vote **escalates**: the task manager
//! posts additional assignments until a majority emerges or the
//! escalation budget is exhausted.

use std::collections::HashMap;

use crowddb_common::Value;

/// Voting policy for one task type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteConfig {
    /// The ballots a contested vote reaches before it escalates (the
    /// paper's experiments replicated 1, 3, and 5 ways). A task first
    /// asks for [`quorum`](VoteConfig::quorum) of them.
    pub replication: usize,
    /// Maximum number of extensions past `replication` that may be
    /// posted while the vote ties or its answers are unusable.
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

    /// The fewest ballots that hold a strict majority of `replication`:
    /// `⌊r/2⌋ + 1`, what a task asks for first. A leader with this many
    /// ballots has won whatever the rest of the replication says.
    pub fn quorum(&self) -> usize {
        (self.replication / 2 + 1).min(self.replication)
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
    /// No quorum yet, or a tie, and escalations left.
    /// [`needed`](MajorityVote::needed) says how many more ballots could
    /// decide it.
    Pending,
    /// No majority, and the escalation budget is spent.
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

    /// The fewest further votes that could decide the vote under
    /// `config`, escalation budget aside; `None` once it is decided.
    ///
    /// Short of `replication` votes, that is the votes its leader lacks
    /// for a quorum, capped at what `replication` still owes. At or past
    /// `replication` it is one: one extra vote breaks a two-way tie.
    pub fn needed(&self, config: &VoteConfig) -> Option<usize> {
        let votes = self.leader().map_or(0, |(_, votes)| votes);
        if votes >= config.quorum() && votes * 2 > self.total {
            return None;
        }
        Some(if self.total < config.replication {
            (config.quorum() - votes).min(config.replication - self.total)
        } else {
            1
        })
    }

    /// Evaluate the vote under `config`.
    ///
    /// A winner needs a *strict* majority of the votes cast so far and at
    /// least [`quorum`](VoteConfig::quorum) votes (so a 1-vote "majority"
    /// cannot short-circuit a 3-way replication). An undecided vote is
    /// pending while it has escalations left, and unresolved once they
    /// are spent. Whether and how far an undecided vote is extended is
    /// the task manager's call, which counts what its HIT has asked for.
    pub fn outcome(&self, config: &VoteConfig) -> VoteOutcome {
        if self.needed(config).is_some() {
            return if self.escalations_used < config.max_escalations {
                VoteOutcome::Pending
            } else {
                VoteOutcome::Unresolved
            };
        }
        let (value, votes) = self.leader().expect("a decided vote has a leader");
        VoteOutcome::Decided {
            value: value.clone(),
            votes,
            total: self.total,
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
    fn pending_until_a_quorum_agrees() {
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        // One more agreeing vote makes a quorum of two.
        assert_eq!(v.outcome(&VoteConfig::default()), VoteOutcome::Pending);
        assert_eq!(v.needed(&VoteConfig::default()), Some(1));
        // Five-way: the leader lacks two votes for a quorum of three.
        assert_eq!(v.outcome(&VoteConfig::replicated(5)), VoteOutcome::Pending);
        assert_eq!(v.needed(&VoteConfig::replicated(5)), Some(2));
    }

    #[test]
    fn a_quorum_decides_before_the_replication() {
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        add_str(&mut v, "IBM");
        assert!(matches!(
            v.outcome(&VoteConfig::default()),
            VoteOutcome::Decided {
                votes: 2,
                total: 2,
                ..
            }
        ));
        // A split asks only what the replication still owes.
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        add_str(&mut v, "Apple");
        assert_eq!(v.outcome(&VoteConfig::default()), VoteOutcome::Pending);
        assert_eq!(v.needed(&VoteConfig::default()), Some(1));
    }

    #[test]
    fn a_vote_out_of_escalations_still_needs_its_replication() {
        // No escalations, but the replication still owes a vote: whether
        // asking for it is free is the task manager's call.
        let cfg = VoteConfig {
            replication: 3,
            max_escalations: 0,
        };
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        add_str(&mut v, "Apple");
        assert_eq!(v.needed(&cfg), Some(1));
        assert_eq!(v.outcome(&cfg), VoteOutcome::Unresolved);
        add_str(&mut v, "IBM");
        assert_eq!(v.needed(&cfg), None);
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
    fn quorum_is_a_majority_of_the_replication() {
        let quorum = |r| VoteConfig::replicated(r).quorum();
        assert_eq!(
            [quorum(1), quorum(2), quorum(3), quorum(4), quorum(5)],
            [1, 2, 2, 3, 3]
        );
    }

    #[test]
    fn no_early_decision_with_single_vote_under_replication() {
        // Even a unanimous single vote can't decide a 3-replicated task.
        let mut v = MajorityVote::new();
        add_str(&mut v, "IBM");
        assert!(matches!(
            v.outcome(&VoteConfig::replicated(3)),
            VoteOutcome::Pending
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
        assert_eq!(v.outcome(&cfg), VoteOutcome::Pending);
        assert_eq!(v.needed(&cfg), Some(1));
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

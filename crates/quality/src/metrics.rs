//! Quality-control observability: votes-per-verdict counters and
//! agreement-score histograms, recorded into a
//! [`MetricsRegistry`].

use crowddb_obs::MetricsRegistry;

use crate::vote::VoteOutcome;

/// Agreement-score histogram buckets: fraction of ballots that voted
/// for the winning answer, so meaningful values live in `(0.5, 1.0]`
/// for decided votes.
pub const AGREEMENT_BUCKETS: &[f64] = &[0.5, 0.6, 0.7, 0.8, 0.9, 1.0];

/// Posterior-confidence histogram buckets for EM-settled answers. EM
/// posteriors can land anywhere in `(1/m, 1.0]`, so the buckets start
/// lower than the majority-agreement ones.
pub const POSTERIOR_BUCKETS: &[f64] = &[0.3, 0.5, 0.7, 0.8, 0.9, 0.95, 0.99, 1.0];

/// Record one round of EM truth inference: the iteration count goes
/// into the `crowddb_quality_em_iters` counter and each settled task's
/// MAP posterior confidence into the
/// `crowddb_quality_posterior_confidence` histogram.
pub fn record_em_round(registry: &MetricsRegistry, iters: u32, confidences: &[f64]) {
    registry.counter_add("crowddb_quality_em_rounds_total", 1);
    registry.counter_add("crowddb_quality_em_iters", iters as u64);
    for c in confidences {
        registry.observe_with(
            "crowddb_quality_posterior_confidence",
            POSTERIOR_BUCKETS,
            *c,
        );
    }
}

/// Record one *final* vote outcome.
///
/// Counters: `crowddb_votes_total` plus one of
/// `crowddb_votes_{decided,pending,unresolved}_total`. Decided votes
/// also observe their agreement score (`votes / total`) into the
/// `crowddb_vote_agreement` histogram — the quality signal the paper's
/// majority-vote quality control is built on.
pub fn record_vote_outcome(registry: &MetricsRegistry, outcome: &VoteOutcome) {
    registry.counter_inc("crowddb_votes_total");
    match outcome {
        VoteOutcome::Decided { votes, total, .. } => {
            registry.counter_inc("crowddb_votes_decided_total");
            if *total > 0 {
                registry.observe_with(
                    "crowddb_vote_agreement",
                    AGREEMENT_BUCKETS,
                    *votes as f64 / *total as f64,
                );
            }
        }
        VoteOutcome::Pending => registry.counter_inc("crowddb_votes_pending_total"),
        VoteOutcome::Unresolved => registry.counter_inc("crowddb_votes_unresolved_total"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowddb_common::Value;

    #[test]
    fn em_round_records_iters_and_confidences() {
        let r = MetricsRegistry::new();
        record_em_round(&r, 7, &[0.6, 0.97]);
        let snap = r.snapshot();
        assert_eq!(snap.counter("crowddb_quality_em_rounds_total"), 1);
        assert_eq!(snap.counter("crowddb_quality_em_iters"), 7);
        let h = snap
            .histogram("crowddb_quality_posterior_confidence")
            .unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 1.57).abs() < 1e-9);
    }

    #[test]
    fn outcomes_are_counted_by_verdict() {
        let r = MetricsRegistry::new();
        record_vote_outcome(
            &r,
            &VoteOutcome::Decided {
                value: Value::str("x"),
                votes: 2,
                total: 3,
            },
        );
        record_vote_outcome(&r, &VoteOutcome::Pending);
        record_vote_outcome(&r, &VoteOutcome::Unresolved);
        let snap = r.snapshot();
        assert_eq!(snap.counter("crowddb_votes_total"), 3);
        assert_eq!(snap.counter("crowddb_votes_decided_total"), 1);
        assert_eq!(snap.counter("crowddb_votes_pending_total"), 1);
        assert_eq!(snap.counter("crowddb_votes_unresolved_total"), 1);
        let h = snap.histogram("crowddb_vote_agreement").unwrap();
        assert_eq!(h.count, 1);
        assert!((h.sum - 2.0 / 3.0).abs() < 1e-9);
    }
}

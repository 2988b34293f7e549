//! Inter-rater agreement statistics.
//!
//! The Worker Relationship Manager tracks how often each worker agrees
//! with the accepted majority answer; chronically disagreeing workers are
//! flagged (the paper's WRM "reports and answers worker complaints" and
//! manages bonuses — agreement is the signal it acts on).

/// Per-worker agreement tracker used by the WRM.
#[derive(Debug, Clone, Default)]
pub struct AgreementTracker {
    agreed: u64,
    total: u64,
}

impl AgreementTracker {
    /// Record one task outcome for this worker.
    pub fn record(&mut self, agreed_with_majority: bool) {
        self.total += 1;
        if agreed_with_majority {
            self.agreed += 1;
        }
    }

    /// Number of scored tasks.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Agreement rate with a Laplace prior (so a worker's first
    /// disagreement doesn't immediately zero their score).
    pub fn rate(&self) -> f64 {
        (self.agreed as f64 + 1.0) / (self.total as f64 + 2.0)
    }

    /// Whether this worker should be flagged for review: at least
    /// `min_tasks` scored tasks and an agreement rate strictly below
    /// `threshold`.
    ///
    /// [`rate`](AgreementTracker::rate) is always finite in `(0, 1)`,
    /// and the comparison uses [`f64::total_cmp`] so the decision is a
    /// total order: a non-finite `threshold` (a caller bug) flags no one
    /// instead of depending on IEEE `NaN < x` being silently false, and
    /// a rate exactly at the threshold never flags.
    pub fn flagged(&self, min_tasks: u64, threshold: f64) -> bool {
        threshold.is_finite()
            && self.total >= min_tasks
            && self.rate().total_cmp(&threshold) == std::cmp::Ordering::Less
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_laplace_smoothing() {
        let mut t = AgreementTracker::default();
        assert!((t.rate() - 0.5).abs() < 1e-12); // prior
        t.record(true);
        assert!(t.rate() > 0.5);
        t.record(false);
        assert!((t.rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tracker_flags_bad_workers_only_after_min_tasks() {
        let mut t = AgreementTracker::default();
        for _ in 0..3 {
            t.record(false);
        }
        assert!(!t.flagged(5, 0.5), "too few tasks to flag");
        for _ in 0..3 {
            t.record(false);
        }
        assert!(t.flagged(5, 0.5));
    }

    #[test]
    fn tracker_flagging_is_total_ordered() {
        let mut t = AgreementTracker::default();
        t.record(true);
        t.record(false); // rate() is exactly 0.5
        assert!(
            !t.flagged(1, 0.5),
            "rate exactly at the threshold must not flag"
        );
        assert!(t.flagged(1, 0.5 + 1e-9));
        assert!(!t.flagged(1, f64::NAN), "NaN threshold flags no one");
        assert!(
            !t.flagged(1, f64::INFINITY),
            "non-finite threshold flags no one"
        );
    }

    #[test]
    fn tracker_good_worker_not_flagged() {
        let mut t = AgreementTracker::default();
        for _ in 0..20 {
            t.record(true);
        }
        t.record(false);
        assert!(!t.flagged(5, 0.5));
        assert_eq!(t.total(), 21);
    }
}

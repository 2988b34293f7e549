//! The resource governor: statement budgets, cooperative cancellation,
//! and admission control.
//!
//! Every statement entering [`CrowdDB::execute`](crate::CrowdDB::execute)
//! runs under a [`StatementGuard`] built from a [`GovernorPolicy`]. The
//! guard is threaded through the executor's operator tree (as an
//! [`ExecGuard`]) and through the Task Manager's round loop, so a runaway
//! statement — too many rows, too much virtual time, a user cancel — is
//! terminated *cooperatively* at the next operator or round boundary with
//! a typed [`CrowdError::Cancelled`]. Crowd spending is governed through
//! the existing graceful-degradation path instead: a statement that hits
//! its crowd budget keeps everything already paid for and returns a
//! partial result, never an error.
//!
//! Admission control is a counting semaphore over concurrent statements
//! (total, and crowd-touching separately). Waits are measured in
//! *virtual* seconds — a bounded admission wait advances the statement's
//! platform clock instead of sleeping — so governed runs stay
//! byte-identical per seed at any worker count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::sync::{Condvar, PoisonError};

use crowddb_common::sync::Mutex;
use crowddb_common::{CancelReason, CrowdError, Result};
use crowddb_exec::ExecGuard;

/// Per-statement resource limits. Every field is independently optional;
/// the default is fully ungoverned (every limit off), matching the
/// engine's historical behaviour.
#[derive(Debug, Clone, Default)]
pub struct GovernorPolicy {
    /// Virtual seconds a statement may consume (measured on the
    /// platform clock from statement start) before it is cancelled with
    /// [`CancelReason::DeadlineExceeded`]. Checked at round boundaries
    /// and between pump steps, so termination lands on a deterministic
    /// virtual-time boundary.
    pub deadline_virtual_secs: Option<f64>,
    /// Maximum rows a statement may return. Exceeding it is an error
    /// ([`CancelReason::OutputRowLimit`]), not a silent truncation —
    /// `LIMIT` is the tool for wanting fewer rows.
    pub max_output_rows: Option<u64>,
    /// Maximum rows any single operator may emit during one execution
    /// round (a memory guard against exploding joins). Exceeding it
    /// cancels with [`CancelReason::IntermediateRowLimit`].
    pub max_intermediate_rows: Option<u64>,
    /// Per-statement crowd budget in cents; `None` = unlimited. The one
    /// crowd budget: `config.governor`'s value is the session default,
    /// and a policy passed to
    /// [`CrowdDB::execute_with_policy`](crate::CrowdDB::execute_with_policy)
    /// replaces it. Each round posts the longest prefix of its needs the
    /// rest of the budget pays for; once not even the first fits, the
    /// graceful-degradation path follows: remaining needs are abandoned,
    /// paid answers are kept, and the statement returns a partial result
    /// with a warning.
    pub max_crowd_cents: Option<u64>,
    /// Maximum statements executing concurrently in this session
    /// (admission control). `None` = unlimited.
    pub max_concurrent_statements: Option<usize>,
    /// Maximum *crowd-touching* statements executing concurrently: those
    /// [`Prepared::may_touch_crowd`](crate::Prepared::may_touch_crowd)
    /// names — a `SELECT` or `EXPLAIN ANALYZE SELECT` whose plan is
    /// crowd-related, `UPDATE` and `DELETE`. A read of machine tables
    /// takes only the total slot.
    pub max_concurrent_crowd_statements: Option<usize>,
    /// Admission wait policy when the session is at capacity:
    /// `None` blocks until a slot frees; `Some(t)` waits `t` *virtual*
    /// seconds (advancing the statement's platform clock, not sleeping)
    /// and then fails with [`CrowdError::Overloaded`]; `Some(0.0)`
    /// rejects immediately.
    pub admission_timeout_virtual_secs: Option<f64>,
    /// Chaos hook: trip a [`CancelReason::UserRequested`] cancellation at
    /// the Nth executor checkpoint of each round. Tests use this to walk
    /// a cancellation through every operator boundary.
    pub trip_cancel_at_check: Option<u64>,
    /// Chaos hook: panic at the Nth executor checkpoint of each round,
    /// exercising the panic-isolation path.
    pub panic_at_check: Option<u64>,
}

impl GovernorPolicy {
    /// The fully ungoverned policy (all limits off).
    pub fn unlimited() -> GovernorPolicy {
        GovernorPolicy::default()
    }
}

/// A clonable handle that cancels the session's in-flight statement.
///
/// Obtained from [`CrowdDB::cancel_handle`](crate::CrowdDB::cancel_handle)
/// and safe to trigger from any thread: the running statement observes
/// the flag at its next executor checkpoint or round boundary and
/// terminates with `Cancelled(UserRequested)`. The flag is consumed
/// (cleared) when a statement terminates as user-cancelled, so the next
/// statement starts fresh.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation of the statement currently observing this
    /// token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation is currently requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// Withdraw a cancellation request.
    pub fn clear(&self) {
        self.flag.store(false, Ordering::Relaxed);
    }

    /// The shared flag, for embedding into an [`ExecGuard`].
    pub(crate) fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// The per-statement enforcement state built from a [`GovernorPolicy`]
/// when a statement is admitted: an [`ExecGuard`] for the operator tree
/// plus the round-loop limits (deadline, crowd budget).
#[derive(Debug, Clone)]
pub struct StatementGuard {
    /// Guard embedded into every execution round's `RunContext`.
    pub exec: ExecGuard,
    /// Absolute virtual deadline (platform clock), if any.
    deadline_at: Option<f64>,
    cancel: Option<Arc<AtomicBool>>,
    /// Per-statement crowd budget in cents, if any.
    pub max_crowd_cents: Option<u64>,
}

impl StatementGuard {
    /// A guard that never trips (ungoverned internal paths: recovery
    /// replay, local execution, tests).
    pub fn unlimited() -> StatementGuard {
        StatementGuard {
            exec: ExecGuard::unlimited(),
            deadline_at: None,
            cancel: None,
            max_crowd_cents: None,
        }
    }

    /// Build the guard for one statement. `start_virtual` is the
    /// platform clock at statement start; the deadline is absolute from
    /// there.
    pub fn new(
        policy: &GovernorPolicy,
        cancel: &CancelToken,
        start_virtual: f64,
    ) -> StatementGuard {
        StatementGuard {
            exec: ExecGuard {
                cancel: Some(cancel.flag()),
                max_intermediate_rows: policy.max_intermediate_rows,
                max_output_rows: policy.max_output_rows,
                trip_cancel_after: policy.trip_cancel_at_check,
                panic_after: policy.panic_at_check,
                ..ExecGuard::unlimited()
            },
            deadline_at: policy.deadline_virtual_secs.map(|d| start_virtual + d),
            cancel: Some(cancel.flag()),
            max_crowd_cents: policy.max_crowd_cents,
        }
    }

    /// Why the statement should stop at this boundary, if at all.
    /// `now_virtual` is the current platform clock.
    pub fn interruption(&self, now_virtual: f64) -> Option<CancelReason> {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return Some(CancelReason::UserRequested);
            }
        }
        if let Some(deadline) = self.deadline_at {
            if now_virtual >= deadline {
                return Some(CancelReason::DeadlineExceeded);
            }
        }
        None
    }

    /// Round-boundary checkpoint: `Err(Cancelled(reason))` when the
    /// statement should terminate.
    pub fn check(&self, now_virtual: f64) -> Result<()> {
        match self.interruption(now_virtual) {
            Some(reason) => Err(CrowdError::Cancelled(reason)),
            None => Ok(()),
        }
    }
}

struct AdmissionCounts {
    active: usize,
    active_crowd: usize,
}

/// A counting semaphore over concurrent statements. Built once per
/// session from the session's [`GovernorPolicy`]; per-statement policies
/// choose only the *wait* behaviour (`admission_timeout_virtual_secs`),
/// not the limits.
///
/// A `crowddb_common::sync::Mutex` paired with a std `Condvar`: lock
/// poisoning is recovered everywhere (by the lock, and with `into_inner`
/// after a wait) because a panicking statement is contained, not fatal —
/// its permit is released during unwind and the counters it protects (two
/// integers) are always internally consistent.
pub struct AdmissionController {
    max_total: Option<usize>,
    max_crowd: Option<usize>,
    counts: Mutex<AdmissionCounts>,
    freed: Condvar,
}

impl AdmissionController {
    /// A controller enforcing `policy`'s concurrency limits.
    pub fn new(policy: &GovernorPolicy) -> AdmissionController {
        AdmissionController {
            max_total: policy.max_concurrent_statements,
            max_crowd: policy.max_concurrent_crowd_statements,
            counts: Mutex::new(AdmissionCounts {
                active: 0,
                active_crowd: 0,
            }),
            freed: Condvar::new(),
        }
    }

    fn fits(&self, counts: &AdmissionCounts, crowd: bool) -> bool {
        if let Some(max) = self.max_total {
            if counts.active >= max {
                return false;
            }
        }
        if crowd {
            if let Some(max) = self.max_crowd {
                if counts.active_crowd >= max {
                    return false;
                }
            }
        }
        true
    }

    /// Admit one statement or fail with [`CrowdError::Overloaded`].
    ///
    /// `timeout_virtual_secs`: `None` blocks until a slot frees;
    /// `Some(t)` with `t > 0` waits `t` virtual seconds by calling
    /// `advance(t)` (the statement's platform clock moves, no real
    /// sleeping — deterministic) and retries once; `Some(0)` rejects
    /// immediately.
    pub fn acquire<'a>(
        &'a self,
        crowd: bool,
        timeout_virtual_secs: Option<f64>,
        advance: &mut dyn FnMut(f64),
    ) -> Result<AdmissionPermit<'a>> {
        // A poisoned admission lock only means some other statement
        // panicked while holding it; the counts are two integers that are
        // never left mid-update, so recover and continue.
        let mut counts = self.counts.lock();
        if !self.fits(&counts, crowd) {
            match timeout_virtual_secs {
                None => {
                    while !self.fits(&counts, crowd) {
                        counts = self
                            .freed
                            .wait(counts)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
                Some(t) if t > 0.0 => {
                    // The bounded wait is virtual: release the lock,
                    // advance the statement's clock, and re-check. A
                    // concurrent release during the advance is honoured.
                    drop(counts);
                    advance(t);
                    counts = self.counts.lock();
                    if !self.fits(&counts, crowd) {
                        return Err(CrowdError::Overloaded(format!(
                            "admission timed out after {t} virtual second(s)"
                        )));
                    }
                }
                Some(_) => {
                    return Err(CrowdError::Overloaded(
                        "session at concurrent-statement capacity".into(),
                    ));
                }
            }
        }
        counts.active += 1;
        if crowd {
            counts.active_crowd += 1;
        }
        Ok(AdmissionPermit {
            controller: self,
            crowd,
        })
    }

    /// Currently admitted statements `(total, crowd_touching)`.
    pub fn active(&self) -> (usize, usize) {
        let counts = self.counts.lock();
        (counts.active, counts.active_crowd)
    }
}

impl std::fmt::Debug for AdmissionController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (active, crowd) = self.active();
        f.debug_struct("AdmissionController")
            .field("max_total", &self.max_total)
            .field("max_crowd", &self.max_crowd)
            .field("active", &active)
            .field("active_crowd", &crowd)
            .finish()
    }
}

/// RAII admission slot: releasing (including during a panic unwind)
/// frees the slot and wakes blocked waiters.
pub struct AdmissionPermit<'a> {
    controller: &'a AdmissionController,
    crowd: bool,
}

impl std::fmt::Debug for AdmissionPermit<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdmissionPermit")
            .field("crowd", &self.crowd)
            .finish_non_exhaustive()
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut counts = self.controller.counts.lock();
        counts.active = counts.active.saturating_sub(1);
        if self.crowd {
            counts.active_crowd = counts.active_crowd.saturating_sub(1);
        }
        drop(counts);
        self.controller.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_ungoverned() {
        let g = StatementGuard::new(&GovernorPolicy::default(), &CancelToken::new(), 0.0);
        assert!(g.check(1e12).is_ok());
        assert!(g.max_crowd_cents.is_none());
    }

    #[test]
    fn deadline_is_absolute_from_start() {
        let policy = GovernorPolicy {
            deadline_virtual_secs: Some(100.0),
            ..Default::default()
        };
        let g = StatementGuard::new(&policy, &CancelToken::new(), 50.0);
        assert!(g.check(149.9).is_ok());
        let err = g.check(150.0).unwrap_err();
        assert!(matches!(
            err,
            CrowdError::Cancelled(CancelReason::DeadlineExceeded)
        ));
    }

    #[test]
    fn cancel_token_trips_guard_and_clears() {
        let token = CancelToken::new();
        let g = StatementGuard::new(&GovernorPolicy::default(), &token, 0.0);
        assert!(g.check(0.0).is_ok());
        token.cancel();
        assert_eq!(g.interruption(0.0), Some(CancelReason::UserRequested));
        token.clear();
        assert!(g.check(0.0).is_ok());
    }

    #[test]
    fn cancel_takes_precedence_over_deadline() {
        let policy = GovernorPolicy {
            deadline_virtual_secs: Some(1.0),
            ..Default::default()
        };
        let token = CancelToken::new();
        token.cancel();
        let g = StatementGuard::new(&policy, &token, 0.0);
        assert_eq!(g.interruption(10.0), Some(CancelReason::UserRequested));
    }

    #[test]
    fn admission_rejects_at_capacity() {
        let policy = GovernorPolicy {
            max_concurrent_statements: Some(1),
            ..Default::default()
        };
        let ctl = AdmissionController::new(&policy);
        let mut advance = |_dt: f64| {};
        let p1 = ctl.acquire(false, Some(0.0), &mut advance).unwrap();
        let err = ctl.acquire(false, Some(0.0), &mut advance).unwrap_err();
        assert_eq!(err.category(), "overloaded");
        drop(p1);
        assert!(ctl.acquire(false, Some(0.0), &mut advance).is_ok());
    }

    #[test]
    fn admission_bounded_wait_advances_virtual_clock() {
        let policy = GovernorPolicy {
            max_concurrent_statements: Some(1),
            ..Default::default()
        };
        let ctl = AdmissionController::new(&policy);
        let mut waited = 0.0;
        let _p1 = ctl.acquire(false, None, &mut |_| {}).unwrap();
        let err = ctl
            .acquire(false, Some(30.0), &mut |dt| waited += dt)
            .unwrap_err();
        assert_eq!(err.category(), "overloaded");
        assert_eq!(waited, 30.0, "the wait is charged to the virtual clock");
    }

    #[test]
    fn admission_tracks_crowd_statements_separately() {
        let policy = GovernorPolicy {
            max_concurrent_crowd_statements: Some(1),
            ..Default::default()
        };
        let ctl = AdmissionController::new(&policy);
        let mut advance = |_dt: f64| {};
        let _crowd = ctl.acquire(true, Some(0.0), &mut advance).unwrap();
        // Non-crowd statements are unaffected by the crowd limit.
        let _plain = ctl.acquire(false, Some(0.0), &mut advance).unwrap();
        let err = ctl.acquire(true, Some(0.0), &mut advance).unwrap_err();
        assert_eq!(err.category(), "overloaded");
        assert_eq!(ctl.active(), (2, 1));
    }

    #[test]
    fn admission_blocking_wait_wakes_on_release() {
        use std::sync::Arc;
        let policy = GovernorPolicy {
            max_concurrent_statements: Some(1),
            ..Default::default()
        };
        let ctl = Arc::new(AdmissionController::new(&policy));
        let permit = ctl.acquire(false, None, &mut |_| {}).unwrap();
        let ctl2 = Arc::clone(&ctl);
        let waiter = std::thread::spawn(move || {
            // Blocks until the main thread releases.
            let p = ctl2.acquire(false, None, &mut |_| {}).unwrap();
            drop(p);
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(permit);
        waiter.join().unwrap();
        assert_eq!(ctl.active(), (0, 0));
    }

    #[test]
    fn permit_released_during_unwind() {
        let policy = GovernorPolicy {
            max_concurrent_statements: Some(1),
            ..Default::default()
        };
        let ctl = AdmissionController::new(&policy);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _p = ctl.acquire(false, Some(0.0), &mut |_| {}).unwrap();
            panic!("boom");
        }));
        assert!(r.is_err());
        // The unwound statement's slot is free again.
        assert!(ctl.acquire(false, Some(0.0), &mut |_| {}).is_ok());
    }
}

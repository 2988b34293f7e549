//! Multi-tenant accounting: authentication, connection caps, crowd-cent
//! quotas, and per-tenant metric names.
//!
//! The server shares one [`CrowdDB`](crowddb_core::CrowdDB) engine across
//! every connection, so tenancy is enforced at the session boundary: a
//! `Hello` frame names a tenant and presents its token; the tenant then
//! supplies the session's [`GovernorPolicy`] and a crowd-cent *quota* —
//! a durable budget across all of the tenant's sessions, unlike the
//! per-statement budget the governor already enforces. The quota maps
//! onto the existing budget machinery by *reservation*: each statement
//! takes a [`QuotaHold`] on a slice of the unreserved quota and runs
//! with `max_crowd_cents` clamped to that slice, so N concurrent
//! statements split the remainder instead of each seeing all of it, and
//! an exhausted tenant degrades gracefully (partial results, then typed
//! `budget` errors on new crowd statements) without touching other
//! tenants.
//!
//! The metrics registry has no label support, so per-tenant series use
//! the Prometheus label syntax *inside the metric name* (for example
//! `crowddb_server_requests_total{tenant="acme"}`) — the exposition
//! output is then already well-formed labeled Prometheus text.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crowddb_core::GovernorPolicy;

/// Static configuration for one tenant.
#[derive(Debug, Clone)]
pub struct TenantConfig {
    /// Tenant name presented in `Hello`.
    pub name: String,
    /// Shared-secret token; empty string means the tenant is open.
    pub token: String,
    /// Crowd-cent quota across all of the tenant's sessions; `None` is
    /// unmetered.
    pub quota_cents: Option<u64>,
    /// Maximum concurrent connections for this tenant; `None` defers to
    /// the server-wide cap alone.
    pub max_connections: Option<usize>,
    /// Maximum concurrent standing queries across all of the tenant's
    /// sessions; `None` defers to the engine-wide
    /// `SubscriptionPolicy::max_subscriptions` cap alone. A per-tenant
    /// cap keeps one tenant from filling the engine-wide registry (each
    /// standing query re-evaluates on every relevant commit, taxing
    /// every writer).
    pub max_subscriptions: Option<usize>,
    /// Statement policy applied to every statement the tenant runs.
    pub policy: GovernorPolicy,
}

impl TenantConfig {
    /// An open, unmetered, ungoverned tenant — the default for local
    /// development.
    pub fn open(name: impl Into<String>) -> TenantConfig {
        TenantConfig {
            name: name.into(),
            token: String::new(),
            quota_cents: None,
            max_connections: None,
            max_subscriptions: None,
            policy: GovernorPolicy::default(),
        }
    }
}

/// Live accounting for one tenant.
#[derive(Debug)]
pub struct TenantState {
    /// The tenant's static configuration.
    pub config: TenantConfig,
    spent_cents: AtomicU64,
    /// Cents held by in-flight statements, not yet settled as spend.
    reserved_cents: AtomicU64,
    connections: AtomicU64,
    subscriptions: AtomicU64,
}

/// Why a `Hello` was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthError {
    /// No tenant with the presented name.
    UnknownTenant(String),
    /// The token did not match.
    BadToken(String),
    /// The tenant is at its connection cap.
    TooManyConnections(String),
}

impl AuthError {
    /// The wire error category for this refusal. Connection-cap
    /// refusals are `overloaded` (retryable); credential failures are
    /// `auth` (not).
    pub fn category(&self) -> &'static str {
        match self {
            AuthError::UnknownTenant(_) | AuthError::BadToken(_) => "auth",
            AuthError::TooManyConnections(_) => "overloaded",
        }
    }

    /// Human-readable refusal message.
    pub fn message(&self) -> String {
        match self {
            AuthError::UnknownTenant(t) => format!("unknown tenant '{t}'"),
            AuthError::BadToken(t) => format!("bad token for tenant '{t}'"),
            AuthError::TooManyConnections(t) => {
                format!("tenant '{t}' is at its connection limit")
            }
        }
    }
}

impl TenantState {
    /// Crowd cents this tenant has spent across all sessions.
    pub fn spent_cents(&self) -> u64 {
        self.spent_cents.load(Ordering::Relaxed)
    }

    /// Crowd cents left in the quota; `None` when unmetered.
    pub fn remaining_cents(&self) -> Option<u64> {
        self.config
            .quota_cents
            .map(|q| q.saturating_sub(self.spent_cents()))
    }

    /// Charge crowd spend against the quota (normally via
    /// [`QuotaHold::settle`]). Saturating: over-spend in a final
    /// statement (the governor's budget check is a pre-check, the crowd
    /// may answer slightly past it) is recorded, and `remaining_cents`
    /// floors at zero.
    pub fn charge(&self, cents: u64) {
        self.spent_cents.fetch_add(cents, Ordering::SeqCst);
    }

    /// Open connections for this tenant right now.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Begin one statement: reserve a slice of the unreserved quota and
    /// build the statement's policy with `max_crowd_cents` clamped to
    /// that slice.
    ///
    /// The reservation (a compare-and-swap against `reserved_cents`) is
    /// what bounds *concurrent* spend: N simultaneous statements split
    /// `quota - spent - reserved` between them rather than each
    /// snapshotting the full remainder and collectively spending N times
    /// it. A metered tenant without a per-statement cap reserves the
    /// whole remainder, so its concurrent crowd statements serialize at
    /// the quota boundary (later ones see a zero clamp, which the
    /// engine's budget path turns into a typed `budget` error for crowd
    /// statements). The hold must be settled with what the statement
    /// paid, `Ok` or not, when it completes; collective spend is then
    /// bounded by the quota plus at most one in-flight statement's
    /// overshoot past the engine's budget pre-check.
    pub fn begin_statement(self: &Arc<Self>) -> (GovernorPolicy, QuotaHold) {
        let mut policy = self.config.policy.clone();
        let held = match self.config.quota_cents {
            // Unmetered: nothing to reserve, the policy is untouched.
            None => 0,
            Some(quota) => loop {
                let reserved = self.reserved_cents.load(Ordering::SeqCst);
                let spent = self.spent_cents.load(Ordering::SeqCst);
                let available = quota.saturating_sub(spent).saturating_sub(reserved);
                let want = match policy.max_crowd_cents {
                    Some(per_stmt) => per_stmt.min(available),
                    None => available,
                };
                if self
                    .reserved_cents
                    .compare_exchange(
                        reserved,
                        reserved + want,
                        Ordering::SeqCst,
                        Ordering::SeqCst,
                    )
                    .is_ok()
                {
                    break want;
                }
            },
        };
        if self.config.quota_cents.is_some() {
            policy.max_crowd_cents = Some(held);
        }
        (
            policy,
            QuotaHold {
                state: Arc::clone(self),
                held,
                settled: false,
            },
        )
    }

    /// Whether the quota is exhausted (metered and nothing left).
    pub fn exhausted(&self) -> bool {
        self.remaining_cents() == Some(0)
    }

    /// Standing queries currently open across the tenant's sessions.
    pub fn subscriptions(&self) -> u64 {
        self.subscriptions.load(Ordering::Relaxed)
    }

    /// Take a standing-query slot; `false` at the cap. The same
    /// optimistic increment-with-rollback the connection cap uses, so
    /// the cap is exact under concurrent `Subscribe` frames.
    pub fn try_take_subscription(&self) -> bool {
        let now = self.subscriptions.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(max) = self.config.max_subscriptions {
            if now as usize > max {
                self.subscriptions.fetch_sub(1, Ordering::SeqCst);
                return false;
            }
        }
        true
    }

    /// Release a slot taken by [`TenantState::try_take_subscription`]
    /// (unsubscribe, or session cleanup on disconnect).
    pub fn release_subscription(&self) {
        self.subscriptions.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A reservation of crowd budget for one in-flight statement, from
/// [`TenantState::begin_statement`].
///
/// [`QuotaHold::settle`] releases the reservation and records the
/// statement's actual spend, whatever the statement's outcome; dropping
/// an unsettled hold (a session that panicked outside the engine's
/// containment) releases the reservation without charging anything.
#[derive(Debug)]
pub struct QuotaHold {
    state: Arc<TenantState>,
    held: u64,
    settled: bool,
}

impl QuotaHold {
    /// Record the statement's actual crowd spend and release the hold.
    /// The spend may exceed the held amount: the engine's budget check
    /// is a pre-check and the crowd can answer slightly past it; the
    /// overshoot is recorded and `remaining_cents` floors at zero.
    pub fn settle(mut self, actual_cents: u64) {
        // Charge before releasing the reservation so a concurrent
        // `begin_statement` never sees the cents as both unspent and
        // unreserved.
        self.state.charge(actual_cents);
        self.state
            .reserved_cents
            .fetch_sub(self.held, Ordering::SeqCst);
        self.settled = true;
    }
}

impl Drop for QuotaHold {
    fn drop(&mut self) {
        if !self.settled {
            self.state
                .reserved_cents
                .fetch_sub(self.held, Ordering::SeqCst);
        }
    }
}

/// All tenants known to one server.
#[derive(Debug, Default)]
pub struct TenantRegistry {
    tenants: HashMap<String, Arc<TenantState>>,
}

impl TenantRegistry {
    /// A registry over `configs`.
    pub fn new(configs: Vec<TenantConfig>) -> TenantRegistry {
        let tenants = configs
            .into_iter()
            .map(|config| {
                (
                    config.name.clone(),
                    Arc::new(TenantState {
                        config,
                        spent_cents: AtomicU64::new(0),
                        reserved_cents: AtomicU64::new(0),
                        connections: AtomicU64::new(0),
                        subscriptions: AtomicU64::new(0),
                    }),
                )
            })
            .collect();
        TenantRegistry { tenants }
    }

    /// Authenticate `Hello{tenant, token}` and take a connection slot.
    /// The returned guard releases the slot on drop.
    pub fn connect(&self, tenant: &str, token: &str) -> Result<ConnectionSlot, AuthError> {
        let state = self
            .tenants
            .get(tenant)
            .ok_or_else(|| AuthError::UnknownTenant(tenant.to_string()))?;
        if state.config.token != token {
            return Err(AuthError::BadToken(tenant.to_string()));
        }
        // Optimistic increment with rollback keeps the cap exact under
        // concurrent Hellos without a lock.
        let now = state.connections.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(max) = state.config.max_connections {
            if now as usize > max {
                state.connections.fetch_sub(1, Ordering::SeqCst);
                return Err(AuthError::TooManyConnections(tenant.to_string()));
            }
        }
        Ok(ConnectionSlot {
            state: Arc::clone(state),
        })
    }

    /// Look up a tenant without taking a connection slot.
    pub fn get(&self, tenant: &str) -> Option<&Arc<TenantState>> {
        self.tenants.get(tenant)
    }

    /// All tenant states, for reconciliation and shutdown reporting.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<TenantState>> {
        self.tenants.values()
    }
}

/// RAII connection slot: holding one keeps the tenant's connection count
/// up; dropping it (normal close, protocol error, or session panic)
/// releases it.
#[derive(Debug)]
pub struct ConnectionSlot {
    state: Arc<TenantState>,
}

impl ConnectionSlot {
    /// The tenant this slot belongs to.
    pub fn tenant(&self) -> &Arc<TenantState> {
        &self.state
    }
}

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.state.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// A per-tenant metric name in Prometheus label syntax, e.g.
/// `crowddb_server_requests_total{tenant="acme"}`. The registry treats
/// it as an opaque name; the exposition output is well-formed labeled
/// Prometheus text.
pub fn tenant_metric(base: &str, tenant: &str) -> String {
    format!("{base}{{tenant=\"{tenant}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> TenantRegistry {
        TenantRegistry::new(vec![
            TenantConfig {
                name: "acme".into(),
                token: "s3cret".into(),
                quota_cents: Some(10),
                max_connections: Some(2),
                max_subscriptions: Some(2),
                policy: GovernorPolicy::default(),
            },
            TenantConfig::open("public"),
        ])
    }

    #[test]
    fn auth_checks_name_and_token() {
        let reg = registry();
        assert_eq!(
            reg.connect("nobody", "").unwrap_err(),
            AuthError::UnknownTenant("nobody".into())
        );
        assert_eq!(
            reg.connect("acme", "wrong").unwrap_err(),
            AuthError::BadToken("acme".into())
        );
        assert!(reg.connect("acme", "s3cret").is_ok());
        assert!(reg.connect("public", "").is_ok());
    }

    #[test]
    fn connection_cap_is_exact_and_released_on_drop() {
        let reg = registry();
        let a = reg.connect("acme", "s3cret").unwrap();
        let _b = reg.connect("acme", "s3cret").unwrap();
        let err = reg.connect("acme", "s3cret").unwrap_err();
        assert_eq!(err.category(), "overloaded");
        drop(a);
        assert!(reg.connect("acme", "s3cret").is_ok());
    }

    #[test]
    fn quota_clamps_statement_budget() {
        let reg = registry();
        let tenant = reg.get("acme").unwrap();
        let (policy, hold) = tenant.begin_statement();
        assert_eq!(policy.max_crowd_cents, Some(10));
        hold.settle(7);
        let (policy, hold) = tenant.begin_statement();
        assert_eq!(policy.max_crowd_cents, Some(3));
        hold.settle(5); // crowd answered past the pre-check
        assert_eq!(tenant.remaining_cents(), Some(0));
        assert!(tenant.exhausted());
        assert_eq!(tenant.begin_statement().0.max_crowd_cents, Some(0));
    }

    /// Concurrent statements split the quota via reservation: they can
    /// never each snapshot the full remainder and collectively spend a
    /// multiple of it.
    #[test]
    fn concurrent_holds_split_the_quota() {
        let reg = registry();
        let tenant = reg.get("acme").unwrap();
        let (p1, h1) = tenant.begin_statement();
        let (p2, h2) = tenant.begin_statement();
        assert_eq!(p1.max_crowd_cents, Some(10));
        assert_eq!(p2.max_crowd_cents, Some(0), "quota already held by p1");
        // Dropping an unsettled hold releases it without charge.
        drop(h1);
        h2.settle(0);
        assert_eq!(tenant.spent_cents(), 0);
        let (p3, _h3) = tenant.begin_statement();
        assert_eq!(p3.max_crowd_cents, Some(10), "released hold is reusable");
    }

    #[test]
    fn per_statement_budget_still_wins_when_tighter() {
        let mut config = TenantConfig::open("t");
        config.quota_cents = Some(100);
        config.policy.max_crowd_cents = Some(5);
        let reg = TenantRegistry::new(vec![config]);
        let tenant = reg.get("t").unwrap();
        let (p1, _h1) = tenant.begin_statement();
        let (p2, _h2) = tenant.begin_statement();
        assert_eq!(p1.max_crowd_cents, Some(5));
        assert_eq!(p2.max_crowd_cents, Some(5), "capped statements coexist");
    }

    #[test]
    fn unmetered_tenant_stays_unmetered() {
        let reg = registry();
        let tenant = reg.get("public").unwrap();
        let (policy, hold) = tenant.begin_statement();
        assert_eq!(policy.max_crowd_cents, None);
        hold.settle(1_000_000); // spend is still recorded for reporting
        assert_eq!(tenant.spent_cents(), 1_000_000);
        assert_eq!(tenant.remaining_cents(), None);
        assert!(!tenant.exhausted());
        assert_eq!(tenant.begin_statement().0.max_crowd_cents, None);
    }

    #[test]
    fn subscription_cap_is_exact_and_released() {
        let reg = registry();
        let capped = reg.get("acme").unwrap();
        assert!(capped.try_take_subscription());
        assert!(capped.try_take_subscription());
        assert!(!capped.try_take_subscription(), "cap of 2 is exact");
        capped.release_subscription();
        assert!(capped.try_take_subscription(), "released slot is reusable");
        assert_eq!(capped.subscriptions(), 2);

        let open = reg.get("public").unwrap();
        for _ in 0..100 {
            assert!(
                open.try_take_subscription(),
                "uncapped tenant never refuses"
            );
        }
    }

    #[test]
    fn tenant_metric_uses_label_syntax() {
        assert_eq!(
            tenant_metric("crowddb_server_requests_total", "acme"),
            "crowddb_server_requests_total{tenant=\"acme\"}"
        );
    }
}

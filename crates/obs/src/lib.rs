//! # crowddb-obs — the observability layer
//!
//! A small, dependency-free, *deterministic*
//! measurement substrate for the engine:
//!
//! - [`MetricsRegistry`] — named counters, gauges, and fixed-bucket
//!   histograms behind one mutex; snapshots are name-sorted and
//!   export to the Prometheus text format.
//! - [`EventLog`] — a bounded structured event sink covering statement
//!   spans, crowd rounds, the HIT lifecycle, vote resolutions, WAL
//!   activity, and injected faults; exports as JSON lines.
//! - [`Clock`] — injectable timestamps. The default [`TickClock`] is a
//!   logical sequence number, so event logs are byte-identical per
//!   seed; production can opt into [`WallClock`].
//!
//! The two halves are bundled into an [`Obs`] handle that every layer
//! shares via `Arc`:
//!
//! ```
//! use crowddb_obs::{Event, Obs};
//!
//! let obs = Obs::new(); // Arc<Obs> with a deterministic tick clock
//! obs.registry().counter_add("crowddb_demo_total", 2);
//! obs.events().emit(Event::HitsPosted { count: 2, reward_cents: 6 });
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("crowddb_demo_total"), 2);
//! assert!(snap.to_prometheus().contains("crowddb_demo_total 2"));
//! assert!(obs.events().to_jsonl().starts_with("{\"ts\":1,\"event\":\"hits_posted\""));
//! ```
//!
//! ## Metric naming scheme
//!
//! `crowddb_<subsystem>_<quantity>[_total]`, snake_case throughout;
//! counters end in `_total`. The full taxonomy lives in DESIGN.md §9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod event;
pub mod export;
pub mod registry;

use std::sync::Arc;

pub use clock::{Clock, FixedClock, TickClock, WallClock};
pub use event::{Event, EventLog, EventRecord};
pub use registry::{HistogramSnapshot, MetricValue, MetricsRegistry, MetricsSnapshot};

/// The shared observability handle: one registry + one event log.
///
/// Constructed once per `CrowdDB` session (or injected, so tests and
/// the chaos platform can share it) and threaded through every layer.
pub struct Obs {
    registry: MetricsRegistry,
    events: EventLog,
}

impl Obs {
    /// Observability with the deterministic [`TickClock`] — the default
    /// everywhere, keeping golden files reproducible.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<Obs> {
        Obs::with_clock(Arc::new(TickClock::new()))
    }

    /// Observability with real wall-clock timestamps.
    pub fn wall() -> Arc<Obs> {
        Obs::with_clock(Arc::new(WallClock))
    }

    /// Observability with a caller-provided clock.
    pub fn with_clock(clock: Arc<dyn Clock>) -> Arc<Obs> {
        Arc::new(Obs {
            registry: MetricsRegistry::new(),
            events: EventLog::new(clock),
        })
    }

    /// The metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// Snapshot the registry (shorthand for `registry().snapshot()`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("metrics", &self.registry.snapshot().len())
            .field("events", &self.events.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_bundles_registry_and_events() {
        let obs = Obs::new();
        obs.registry().counter_inc("crowddb_x_total");
        obs.events()
            .emit(Event::FaultInjected { kind: "hits_lost" });
        assert_eq!(obs.snapshot().counter("crowddb_x_total"), 1);
        assert_eq!(obs.events().len(), 1);
        let dbg = format!("{obs:?}");
        assert!(dbg.contains("metrics"));
    }

    #[test]
    fn independent_obs_are_isolated() {
        let a = Obs::new();
        let b = Obs::new();
        a.registry().counter_inc("crowddb_x_total");
        assert_eq!(b.snapshot().counter("crowddb_x_total"), 0);
        assert!(b.events().is_empty());
    }
}

//! The structured event log.
//!
//! Every layer of the engine emits [`Event`]s into a shared
//! [`EventLog`]: statement spans from `core`, crowd-round and HIT
//! lifecycle events from the task manager, vote resolutions from
//! `quality`, WAL activity from the durability subsystem, and injected
//! faults from the chaos platform. The log is a bounded in-memory ring
//! (oldest entries dropped first) exported as JSON lines.

use std::collections::VecDeque;
use std::sync::Arc;

use crowddb_common::sync::Mutex;

use crate::clock::Clock;
use crate::export;

/// Default event-log capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// One structured event. Field order here is the field order in the
/// JSON-lines export.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A SQL statement entered the engine.
    StatementBegin {
        /// Session-unique statement id (pairs with `StatementEnd`).
        id: u64,
        /// The statement text, trimmed.
        sql: String,
    },
    /// A SQL statement finished (successfully or not).
    StatementEnd {
        /// Statement id from the matching `StatementBegin`.
        id: u64,
        /// Whether execution returned `Ok`.
        ok: bool,
        /// Whether the result was complete (no exhausted crowd work).
        complete: bool,
        /// Crowd rounds executed.
        rounds: u64,
        /// HITs posted (platform-visible).
        tasks_posted: u64,
        /// Assignments completed.
        answers: u64,
        /// Cents spent on this statement.
        cents: u64,
        /// Virtual seconds of crowd latency.
        virtual_secs: f64,
    },
    /// A statement exceeded the configured slow-statement threshold.
    SlowStatement {
        /// Statement id.
        id: u64,
        /// Observed virtual seconds.
        virtual_secs: f64,
        /// The threshold it exceeded.
        threshold_secs: f64,
    },
    /// A crowd round (one task-manager wave) is starting.
    RoundBegin {
        /// 1-based round number within the statement.
        round: u64,
        /// Task needs handed to the wave (post budget trim).
        needs: u64,
    },
    /// A crowd round finished.
    RoundEnd {
        /// Round number from the matching `RoundBegin`.
        round: u64,
        /// HITs posted this round.
        posted: u64,
        /// Responses collected this round.
        answers: u64,
        /// Post retries this round.
        retries: u64,
        /// HIT reposts this round.
        reposts: u64,
        /// Whether the wave degraded (circuit breaker tripped).
        degraded: bool,
    },
    /// A batch of HITs was accepted by the platform.
    HitsPosted {
        /// HITs in the batch.
        count: u64,
        /// Total liability in cents (reward × assignments, summed).
        reward_cents: u64,
    },
    /// One assignment response arrived.
    HitAnswered {
        /// Whether it was a duplicate delivery (dropped, not voted).
        duplicate: bool,
    },
    /// A failed post is being retried after backoff.
    PostRetried {
        /// 1-based attempt number that just failed.
        attempt: u64,
    },
    /// A HIT missed its deadline and was reposted.
    HitReposted {
        /// 1-based repost number for the underlying need.
        repost: u64,
    },
    /// A HIT missed its deadline with no repost budget left.
    HitExpired {
        /// Reposts already consumed for the need.
        reposts: u64,
    },
    /// The circuit breaker tripped; unresolved needs were abandoned.
    Degraded {
        /// Needs abandoned by the trip.
        abandoned: u64,
    },
    /// A majority vote reached its final outcome.
    VoteResolved {
        /// Task kind (`probe` / `equal` / `order`).
        kind: &'static str,
        /// Whether a strict majority decided.
        decided: bool,
        /// Votes for the winning answer (0 when undecided).
        votes: u64,
        /// Total ballots cast.
        total: u64,
    },
    /// A record was appended to the write-ahead log.
    WalAppend {
        /// Record kind (`LogRecord::kind`).
        kind: &'static str,
        /// Framed bytes written.
        bytes: u64,
    },
    /// The log was fsynced.
    WalFsync {
        /// Wall-clock fsync latency in microseconds.
        micros: u64,
    },
    /// A snapshot checkpoint truncated the log.
    WalCheckpoint {
        /// Snapshot payload bytes.
        bytes: u64,
        /// Log records the checkpoint absorbed.
        records: u64,
    },
    /// The fault injector fired.
    FaultInjected {
        /// Fault kind (`FaultStats` field name).
        kind: &'static str,
    },
    /// The resource governor terminated a statement.
    StatementCancelled {
        /// Statement id.
        id: u64,
        /// `CancelReason::tag()` (`user-requested`, `deadline-exceeded`,
        /// `output-row-limit`, `intermediate-row-limit`).
        reason: &'static str,
    },
    /// Admission control rejected a statement (session at capacity).
    AdmissionRejected {
        /// Whether the rejected statement was crowd-touching.
        crowd: bool,
    },
    /// A panicking statement was contained by the governor; the session
    /// stays usable.
    PanicContained {
        /// Statement id.
        id: u64,
    },
    /// A client connection completed the wire handshake and
    /// authenticated to a tenant.
    ConnectionOpened {
        /// Tenant the connection authenticated as.
        tenant: String,
        /// Server-unique session id.
        session: u64,
    },
    /// A client connection ended (clean close, drain, or error).
    ConnectionClosed {
        /// Tenant the connection belonged to.
        tenant: String,
        /// Session id from the matching `ConnectionOpened`.
        session: u64,
        /// Requests the session served.
        requests: u64,
    },
    /// Server-level admission control turned a request away with an
    /// `Overloaded` response.
    ServerOverloaded {
        /// Tenant whose request was rejected.
        tenant: String,
        /// Whether the rejected request was crowd-touching.
        crowd: bool,
    },
    /// A standing query (`SUBSCRIBE`) was registered.
    SubscriptionOpened {
        /// Engine-unique subscription id.
        id: u64,
        /// Canonical SQL of the underlying `SELECT`.
        sql: String,
    },
    /// A standing query was dropped (`UNSUBSCRIBE` or session cleanup).
    SubscriptionClosed {
        /// Subscription id from the matching `SubscriptionOpened`.
        id: u64,
    },
    /// A standing query emitted a delta batch.
    SubscriptionDelta {
        /// Subscription id.
        id: u64,
        /// Monotone revision number of the batch.
        revision: u64,
        /// Rows added.
        added: u64,
        /// Rows removed.
        removed: u64,
    },
    /// A subscription consumer fell behind its bounded queue; queued
    /// batches were dropped pending a resync snapshot.
    SubscriptionLagged {
        /// Subscription id.
        id: u64,
        /// Delta batches dropped from the queue.
        dropped: u64,
    },
}

/// A timestamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct EventRecord {
    /// Timestamp from the log's [`Clock`] (a sequence number under the
    /// default `TickClock`).
    pub ts: u64,
    /// The event.
    pub event: Event,
}

impl EventRecord {
    /// One JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        export::event_to_json(self)
    }
}

struct Inner {
    events: VecDeque<EventRecord>,
    dropped: u64,
    cap: usize,
}

/// Bounded, thread-safe event sink.
pub struct EventLog {
    clock: Arc<dyn Clock>,
    inner: Mutex<Inner>,
}

impl EventLog {
    /// Event log with the default capacity.
    pub fn new(clock: Arc<dyn Clock>) -> EventLog {
        EventLog::with_capacity(clock, DEFAULT_EVENT_CAPACITY)
    }

    /// Event log keeping at most `cap` most-recent events.
    pub fn with_capacity(clock: Arc<dyn Clock>, cap: usize) -> EventLog {
        EventLog {
            clock,
            inner: Mutex::new(Inner {
                events: VecDeque::new(),
                dropped: 0,
                cap: cap.max(1),
            }),
        }
    }

    /// Append `event`, timestamped by the log's clock. Drops the oldest
    /// entry when full.
    pub fn emit(&self, event: Event) {
        let ts = self.clock.now_micros();
        let mut inner = self.inner.lock();
        if inner.events.len() == inner.cap {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        inner.events.push_back(EventRecord { ts, event });
    }

    /// Events currently retained (oldest first).
    pub fn records(&self) -> Vec<EventRecord> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events discarded because the log was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Discard all retained events (the drop counter is kept).
    pub fn clear(&self) {
        self.inner.lock().events.clear();
    }

    /// Export the retained events as JSON lines (one object per line,
    /// trailing newline included when non-empty).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for rec in self.inner.lock().events.iter() {
            out.push_str(&export::event_to_json(rec));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Debug for EventLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLog")
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TickClock;

    #[test]
    fn emit_orders_and_timestamps() {
        let log = EventLog::new(Arc::new(TickClock::new()));
        log.emit(Event::HitsPosted {
            count: 3,
            reward_cents: 9,
        });
        log.emit(Event::HitAnswered { duplicate: false });
        let recs = log.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, 1);
        assert_eq!(recs[1].ts, 2);
        assert!(recs[0]
            .to_json()
            .starts_with(r#"{"ts":1,"event":"hits_posted","#));
    }

    #[test]
    fn capacity_drops_oldest() {
        let log = EventLog::with_capacity(Arc::new(TickClock::new()), 2);
        for _ in 0..5 {
            log.emit(Event::HitAnswered { duplicate: false });
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
        assert_eq!(log.records()[0].ts, 4);
    }
}

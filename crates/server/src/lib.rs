//! # crowddb-server
//!
//! Network serving for CrowdDB: many clients, one engine, over TCP.
//!
//! The embedded [`CrowdDB`](crowddb_core::CrowdDB) engine already
//! supports concurrent sessions in one process; this crate puts a wire
//! on it. The pieces:
//!
//! - [`protocol`] — CDBP, a length-framed, CRC-checked binary protocol
//!   (the same framing discipline as the write-ahead log, applied to a
//!   socket). Corruption-evident: every single-byte corruption of a
//!   frame is rejected with a typed error.
//! - [`tenant`] — multi-tenancy at the session boundary: token
//!   authentication, per-tenant connection caps, governor policies, and
//!   crowd-cent *quotas* that clamp each statement's crowd budget, so
//!   one tenant exhausting its money degrades only itself.
//! - [`server`] — thread-per-connection serving over one shared engine,
//!   with server-wide two-tier admission control (total and
//!   crowd-touching statements) answering `Overloaded` instead of
//!   queueing unboundedly, and a drain-style shutdown that finishes
//!   in-flight statements and checkpoints exactly once.
//! - [`session`] — the per-connection state machine, including the
//!   Postgres-style out-of-band cancel channel.
//! - [`client`] — a blocking client library (used by the CLI, the load
//!   generator, and the integration suite).
//!
//! Sessions carry a platform *seed* in their `Hello`: the server builds
//! each session's crowd platform from a seeded factory, so a statement
//! stream over the wire returns byte-identical results to the same
//! stream executed in-process with the same seed — remote serving adds
//! no nondeterminism.

#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;
pub mod tenant;

pub use client::{CancelHandle, Client, ClientError};
pub use protocol::{ProtocolError, Request, Response};
pub use server::{EngineGuard, PlatformFactory, Server, ServerConfig};
pub use tenant::{AuthError, QuotaHold, TenantConfig, TenantRegistry, TenantState};

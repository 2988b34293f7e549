//! # crowddb-platform
//!
//! The crowdsourcing platform layer of CrowdDB.
//!
//! The paper's prototype talks to two platforms: **Amazon Mechanical
//! Turk** and a **locality-aware mobile platform** used live at VLDB. We
//! cannot use live workers in a reproduction, so this crate provides:
//!
//! * the platform-independent **task model** ([`task`]) — HITs,
//!   assignments, rewards, answers — mirroring the AMT API surface that
//!   CrowdDB's Task Manager programs against;
//! * the [`Platform`] trait — post tasks, advance time, collect answers,
//!   extend assignments (escalation), expire HITs;
//! * a **discrete-event marketplace simulator** ([`sim`]) with a
//!   configurable worker population (per-worker error rates, reservation
//!   wages, Zipf-distributed activity, HIT-group-size affinity, log-normal
//!   service times). The simulator reproduces the marketplace dynamics the
//!   SIGMOD 2011 evaluation measured: higher rewards and larger HIT
//!   groups complete faster, and a small community of workers does most
//!   of the work;
//! * a **mobile platform** variant (small volunteer pool, locality
//!   filtering, no payments) standing in for the demo's conference
//!   platform;
//! * a deterministic [`mock::MockPlatform`] for tests;
//! * a seeded **fault injector** ([`faults`]) wrapping any platform with
//!   reproducible outages, lost HITs, duplicate deliveries, garbled
//!   answers, and latency spikes — the adversary the Task Manager's
//!   resilience machinery is tested against;
//! * the **Worker Relationship Manager** ([`wrm`]) — payments, bonuses,
//!   complaints, per-worker agreement tracking.
//!
//! The substitution of a simulator for the live marketplace is documented
//! in `DESIGN.md`; every CrowdDB-side code path (task creation, polling,
//! quality control, write-back, escalation) is identical to what a live
//! platform backend would exercise.

#![forbid(unsafe_code)]

pub mod faults;
pub mod mock;
pub mod model;
pub mod sim;
pub mod task;
pub mod worker;
pub mod wrm;

pub use faults::{FaultConfig, FaultStats, FaultyPlatform};
pub use mock::MockPlatform;
pub use model::{ClosureModel, CrowdModel, PerfectModel};
pub use sim::{SimConfig, SimPlatform};
pub use task::{
    batched_reward_cents, Answer, HitId, Platform, PlatformStats, TaskKind, TaskResponse, TaskSpec,
    WorkerId,
};
pub use worker::{WorkerPool, WorkerPoolConfig, WorkerProfile};
pub use wrm::WorkerRelationshipManager;

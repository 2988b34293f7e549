//! # crowddb-quality
//!
//! Quality control for human answers.
//!
//! "Since human inputs are inherently error prone and diverse in formats,
//! answers from the crowd workers can never be assumed to be complete or
//! correct. The \[crowd\] operators also have majority-vote driven quality
//! control measures built-in." (paper §3.2.1)
//!
//! This crate provides the building blocks the crowd operators use:
//!
//! * [`normalize`] — canonicalize free-text answers before voting, so
//!   `" IBM "` and `"ibm"` count as the same answer;
//! * [`vote`] — majority voting with escalation on ties;
//! * [`entity`] — entity-resolution helpers used by `CROWDEQUAL`;
//! * [`rank`] — pairwise-comparison aggregation and rank-quality metrics
//!   (Kendall tau) used by `CROWDORDER`;
//! * [`agreement`] — inter-rater agreement statistics surfaced by the
//!   Worker Relationship Manager;
//! * [`infer`] — EM truth inference (Dawid–Skene style): joint
//!   estimation of per-worker reliability and posterior answer
//!   distributions, the engine behind `QualityPolicy::Em`;
//! * [`metrics`] — votes-per-verdict counters and agreement histograms
//!   recorded into the shared observability registry.

#![forbid(unsafe_code)]

pub mod agreement;
pub mod entity;
pub mod infer;
pub mod metrics;
pub mod normalize;
pub mod rank;
pub mod vote;

pub use infer::{EmConfig, EmSolution};
pub use metrics::{record_em_round, record_vote_outcome};
pub use normalize::Normalizer;
pub use rank::try_machine_order;
pub use vote::{MajorityVote, VoteConfig, VoteOutcome};

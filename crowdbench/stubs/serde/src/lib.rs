//! Offline stand-in for `serde`: the two trait names plus (behind the
//! `derive` feature) derives that expand to nothing.

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

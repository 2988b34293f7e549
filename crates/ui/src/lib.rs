//! # crowddb-ui
//!
//! Automatic task user-interface generation.
//!
//! "CrowdDB leverages the available database schema information to
//! automatically generate user interfaces. This generation is a two-step
//! process. At compile-time, the UI Creation component creates templates
//! to crowdsource missing information from all CROWD tables and all
//! regular tables which have CROWD columns. [...] Finally, at runtime the
//! Task Manager instantiates the templates on request of the crowd
//! operators in order to provide a user interface for a concrete tuple or
//! a set of tuples." (paper §3.1)
//!
//! This crate implements the three components from Figure 1:
//!
//! * **UI Creation** ([`creation`]) — builds [`UiTemplate`]s from schemas;
//! * **UI Template Manager** ([`manager`]) — stores and serves templates;
//! * **Form Editor** ([`manager::UiTemplateManager::edit`]) — lets
//!   application developers customize instructions;
//!
//! plus the runtime renderer ([`render`]) that turns each posted task —
//! carrying its template's instructions and fields — into the HTML pages
//! shown in the paper's Figures 2 (Mechanical Turk) and 3 (mobile).

#![forbid(unsafe_code)]

pub mod creation;
pub mod html;
pub mod manager;
pub mod render;
pub mod template;

pub use creation::UiCreation;
pub use manager::UiTemplateManager;
pub use render::{render_mobile_task, render_task};
pub use template::{FieldSpec, UiTemplate};

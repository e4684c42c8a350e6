//! Helpers shared by this crate's integration tests.

pub mod reference_layout;

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 5).
//!
//! Each experiment module computes a structured result (so tests and the
//! `repro` binary can share it) and renders it as an aligned text table.
//! The mapping to the paper:
//!
//! | Module       | Reproduces |
//! |--------------|------------|
//! | [`profiling`]  | Tables 1 and 2 (automatic object profiling) |
//! | [`expert`]     | Table 3 and Figure 6 (expert finding, rank difference) |
//! | [`semantics`]  | Tables 4, 7 and Figure 7 (path semantics) |
//! | [`query`]      | Table 5 (AUC of conference→author search) |
//! | [`clustering`] | Table 6 (NMI of NCut clustering) |
//! | [`scaling`]    | Section 4.6 complexity comparison (HeteSim vs SimRank) |
//!
//! Absolute values differ from the paper — the substrate is a synthetic
//! network, not the 2010 ACM crawl — but the *shape* of each result (who
//! wins, what is symmetric, which rankings invert) is asserted by the
//! integration tests in `tests/`.

pub mod approx;
pub mod clustering;
pub mod datasets;
pub mod expert;
pub mod profiling;
pub mod query;
pub mod scaling;
pub mod semantics;
pub mod table;

pub use table::Table;

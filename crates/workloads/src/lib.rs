//! # spanner-workloads — documents and queries for the experiments
//!
//! Generators for the documents and spanner queries used by the experiments
//! (DESIGN.md §7), perfbench and the examples, plus the request-traffic
//! schedules of the serving experiments and perfbench ([`traffic`]).
//! The paper has no empirical section, so these workloads are designed to
//! exercise the parameters its complexity bounds depend on: the SLP size
//! `s`, the SLP depth, the document length `d`, the number of variables
//! `|X|` and the result count `r` — see DESIGN.md §6.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod documents;
pub mod queries;
pub mod traffic;

pub use corpus::{sharded_block_document, sharded_power_family, ShardedCase};
pub use documents::{dna_with_repeats, repetitive_log, tunable_repetitiveness, LogOptions};
pub use queries::{named_queries, NamedQuery};
pub use traffic::{
    closed_loop_schedule, multi_tenant_schedule, open_loop_arrivals, Mix, Op, OpKind, TenantOp,
    TenantProfile,
};

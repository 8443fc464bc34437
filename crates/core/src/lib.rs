//! # spanner-slp-core — spanner evaluation over SLP-compressed documents
//!
//! This crate is the primary contribution of the reproduced paper
//! (*"Spanner Evaluation over SLP-Compressed Documents"*, Schmid &
//! Schweikardt, PODS 2021): evaluating a regular spanner `M` directly on a
//! document `D` given as a straight-line program `S`, **without
//! decompressing**.
//!
//! For an SLP of size `s`, depth `depth(S)`, an automaton with `q` states
//! and `|M|` transitions, and `r = |⟦M⟧(D)|` results:
//!
//! | task | entry point | data complexity | paper |
//! |---|---|---|---|
//! | non-emptiness `⟦M⟧(D) ≠ ∅` | [`nonemptiness::is_non_empty`] | `O(s)` | Thm 5.1(1) |
//! | model checking `t ∈ ⟦M⟧(D)` | [`model_check::check`]; [`model_check::check_on_matrices`] on prepared matrices | `O(s)`; `O(depth(S) · |X|)` on prepared matrices | Thm 5.1(2) |
//! | computing `⟦M⟧(D)` | [`compute::compute_all`] | `O(s · r)` | Thm 7.1 |
//! | enumerating `⟦M⟧(D)` | [`enumerate::Enumerator`] | `O(s)` preprocessing, `O(depth(S) · |X|)` delay | Thm 8.10 |
//! | counting `|⟦M⟧(D)|` | [`count::count_results`] | `O(s)` | extension (see module docs) |
//!
//! The convenience wrapper [`SlpSpanner`] bundles an automaton and a
//! compressed document and exposes all four tasks.  For serving many
//! queries over many documents — concurrently, with per-request statistics
//! and memory-bounded matrix caches — use the [`service::Service`] layer.
//!
//! ```
//! use slp::families;
//! use spanner::regex;
//! use spanner_slp_core::SlpSpanner;
//!
//! // The document (ab)^1000 compressed into ~30 grammar rules.
//! let doc = families::power_word(b"ab", 1000);
//! // Extract every maximal "ab" block start: x spans a single "a" directly
//! // followed by "b".
//! let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
//! let spanner = SlpSpanner::new(&m, &doc).unwrap();
//! assert!(spanner.is_non_empty());
//! assert_eq!(spanner.count(), 1000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmat;
pub mod cache;
pub mod compute;
pub mod count;
pub mod engine;
pub mod enumerate;
pub mod error;
pub mod executor;
pub mod matrices;
pub mod model_check;
pub mod nonemptiness;
pub mod prepared;
pub mod service;
pub mod trace;

pub use engine::{DocumentId, PreparedDocument, PreparedQuery, QueryId};
pub use error::EvalError;
pub use executor::{LocalExecutor, ShardExecutor, ShardJob, ShardOutcome};
pub use service::{
    QuotaError, RequestStats, Service, ServiceBuilder, ServiceStats, Task, TaskOutcome,
    TaskRequest, TaskResponse, TenantConfig, TenantId, TenantUsage,
};
pub use trace::{Hist, HistSnapshot, ShardTrace, SpanRec, TraceContext, Tracer};

use prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::{SpanTuple, SpannerAutomaton};

/// A spanner bound to an SLP-compressed document: convenience facade over
/// the four evaluation tasks.
///
/// Construction runs the two preparation stages (the automaton-side
/// transformations of [`engine::PreparedQuery`] and the document-side
/// transformation of [`engine::PreparedDocument`]) and the `O(|M| + s·q³)`
/// pair preprocessing of Lemma 6.5 once; the individual tasks then reuse
/// it.  To share those stages across many queries and documents, use
/// [`service::Service`] instead.
#[derive(Debug)]
pub struct SlpSpanner {
    prepared: PreparedEvaluation,
}

impl SlpSpanner {
    /// Binds a spanner automaton to a compressed document.
    ///
    /// Non-deterministic automata are determinised automatically (this
    /// affects combined complexity only; see the end of Section 8 of the
    /// paper).  Use the task-specific modules directly for finer control.
    pub fn new(
        automaton: &SpannerAutomaton<u8>,
        document: &NormalFormSlp<u8>,
    ) -> Result<Self, EvalError> {
        Ok(Self::from_stages(
            PreparedQuery::determinized(automaton),
            PreparedDocument::new(document),
        ))
    }

    /// Binds an already prepared query to an already prepared document,
    /// reusing whatever work both stages (and the document's matrix cache)
    /// already hold.
    ///
    /// `SlpSpanner` guarantees a deterministic automaton (so [`count`] and
    /// [`enumerate`] are duplicate-free); a query prepared with the
    /// non-determinising [`PreparedQuery::new`] is upgraded here via its
    /// ε-free automaton.
    ///
    /// [`count`]: SlpSpanner::count
    /// [`enumerate`]: SlpSpanner::enumerate
    pub fn from_stages(query: PreparedQuery, document: PreparedDocument) -> Self {
        let query = if query.is_deterministic() {
            query
        } else {
            PreparedQuery::determinized(query.automaton())
        };
        SlpSpanner {
            prepared: PreparedEvaluation::from_stages(query, document),
        }
    }

    /// The (deterministic) automaton in use.
    pub fn automaton(&self) -> &SpannerAutomaton<u8> {
        self.prepared.query.automaton()
    }

    /// The compressed document.
    pub fn document(&self) -> &NormalFormSlp<u8> {
        self.prepared.document.original()
    }

    /// The prepared query stage (reusable across documents).
    pub fn query(&self) -> &PreparedQuery {
        &self.prepared.query
    }

    /// The full prepared evaluation context backing this spanner.
    pub fn prepared(&self) -> &PreparedEvaluation {
        &self.prepared
    }

    /// Non-emptiness: `⟦M⟧(D) ≠ ∅` (Theorem 5.1(1)); answered in `O(|F|)`
    /// from the prepared matrices via Lemma 6.3.
    pub fn is_non_empty(&self) -> bool {
        !self.prepared.pre.reachable_accepting().is_empty()
    }

    /// Model checking: `t ∈ ⟦M⟧(D)` in time `O((s + |X|·depth(S))·q³)`
    /// (Theorem 5.1(2)).
    pub fn check(&self, tuple: &SpanTuple) -> Result<bool, EvalError> {
        model_check::check(
            self.prepared.query.automaton(),
            self.prepared.document.original(),
            tuple,
        )
    }

    /// Computes the whole relation `⟦M⟧(D)` (Theorem 7.1).
    pub fn compute(&self) -> Vec<SpanTuple> {
        compute::compute_from_prepared(&self.prepared)
    }

    /// Enumerates `⟦M⟧(D)` with `O(depth(S)·|X|)` delay (Theorem 8.10).
    pub fn enumerate(&self) -> enumerate::Enumeration<'_> {
        enumerate::Enumeration::from_prepared(&self.prepared)
    }

    /// Number of results `|⟦M⟧(D)|`, counted in `O(size(S)·q³)` *without*
    /// enumerating (see [`count::count_results`]).
    ///
    /// Returned as `u128`: on SLP-compressed documents the result count can
    /// exceed any machine word (`d` itself may be near `2^64`, and `r` is
    /// polynomial in `d` of degree `2·|X|`).
    pub fn count(&self) -> u128 {
        count::count_from_prepared(&self.prepared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{Span, Variable};

    #[test]
    fn facade_runs_all_tasks_on_the_paper_example() {
        let slp = slp::examples::example_4_2();
        let m = figure_2_spanner();
        let s = SlpSpanner::new(&m, &slp).unwrap();
        assert!(s.is_non_empty());

        // Example 8.2's result: y = [4, 6⟩.
        let mut t = SpanTuple::empty(2);
        t.set(Variable(1), Span::new(4, 6).unwrap());
        assert!(s.check(&t).unwrap());

        let computed = s.compute();
        assert!(computed.contains(&t));
        let enumerated: Vec<SpanTuple> = s.enumerate().collect();
        assert_eq!(enumerated.len(), computed.len());
        assert_eq!(s.count(), computed.len() as u128);
    }

    #[test]
    fn facade_handles_empty_results() {
        let slp = slp::compress::Compressor::compress(&slp::compress::Bisection, b"cccc");
        let m = figure_2_spanner();
        let s = SlpSpanner::new(&m, &slp).unwrap();
        assert!(!s.is_non_empty());
        assert!(s.compute().is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn doc_example_from_lib_rs() {
        let doc = families::power_word(b"ab", 1000);
        let m = spanner::regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let spanner = SlpSpanner::new(&m, &doc).unwrap();
        assert!(spanner.is_non_empty());
        assert_eq!(spanner.count(), 1000);
    }
}

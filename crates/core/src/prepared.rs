//! Shared preparation: the "end-of-document" transformation of Section 6.1
//! and the preprocessing of Lemma 6.5.
//!
//! The evaluation algorithms for computing and enumerating `⟦M⟧(D)` require
//! every accepted subword-marked word to be *non-tail-spanning* (no markers
//! after the last terminal).  The paper achieves this with the language
//! transformation `L(M') = { w·# : w ∈ L(M) }` for a fresh terminal `#`,
//! evaluated over `D·#`; results are unchanged (`⟦M⟧(D) = ⟦M'⟧(D#)`).
//! [`EByte`] is the extended terminal alphabet; [`PreparedEvaluation`]
//! bundles a [`PreparedQuery`], a [`PreparedDocument`] and the preprocessed
//! matrices of the pair — see the [`engine`](crate::engine) module for the
//! two-stage split and the pooling/caching layer on top of it.

use crate::engine::{PreparedDocument, PreparedQuery};
use crate::matrices::Preprocessed;
use slp::NormalFormSlp;
use spanner::{MarkedSymbol, SpannerAutomaton};
use spanner_automata::nfa::{Label, Nfa};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// The document alphabet extended by the end-of-document sentinel `#`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EByte {
    /// An ordinary document byte.
    Byte(u8),
    /// The end-of-document sentinel (the paper's `#`).
    End,
}

/// The result of the shared preprocessing for one (query, document) pair:
/// the two prepared stages plus the matrices of Lemma 6.5.  Total
/// construction time is `O(|M| + size(S) · q³)`.
///
/// The three parts are reusable independently: the query stage across other
/// documents, the document stage across other queries, and the matrices
/// whenever the same pair is evaluated again (see [`crate::service::Service`]).
#[derive(Debug)]
pub struct PreparedEvaluation {
    /// The query-side stage: end-transformed, ε-free automaton over
    /// `Σ∪{#} ∪ P(Γ_X)`.
    pub query: PreparedQuery,
    /// The document-side stage: the SLP for `D·#` (plus matrix cache).
    pub document: PreparedDocument,
    /// The matrices `R_A`, `M_{T_x}` and auxiliary grammar data for the
    /// pair.
    pub pre: Arc<Preprocessed>,
}

impl PreparedEvaluation {
    /// Builds the prepared evaluation context for an automaton and a
    /// compressed document.
    ///
    /// ε-transitions are removed first if present (they are a representation
    /// convenience and never needed by the algorithms); the automaton is
    /// *not* determinised — use [`PreparedQuery::determinized`] with
    /// [`PreparedEvaluation::from_stages`] for the tasks that need it.
    pub fn new(
        automaton: &SpannerAutomaton<u8>,
        document: &NormalFormSlp<u8>,
    ) -> Result<Self, crate::EvalError> {
        Ok(Self::from_stages(
            PreparedQuery::new(automaton),
            PreparedDocument::new(document),
        ))
    }

    /// Combines an already prepared query and document, building (or
    /// fetching from the document's cache) the pair's matrices.
    pub fn from_stages(query: PreparedQuery, document: PreparedDocument) -> Self {
        let pre = document.matrices(&query);
        PreparedEvaluation {
            query,
            document,
            pre,
        }
    }

    /// The end-transformed, ε-free automaton over `Σ∪{#} ∪ P(Γ_X)`.
    pub fn nfa(&self) -> &Nfa<MarkedSymbol<EByte>> {
        self.query.nfa()
    }

    /// The SLP for `D·#`.
    pub fn slp(&self) -> &NormalFormSlp<EByte> {
        self.document.ended()
    }

    /// Number of span variables `|X|`.
    pub fn num_vars(&self) -> usize {
        self.query.num_vars()
    }

    /// `true` if the (transformed) automaton is deterministic, the
    /// precondition of duplicate-free enumeration (Lemma 8.8).
    pub fn deterministic(&self) -> bool {
        self.query.is_deterministic()
    }
}

/// Number of times [`end_transform`] has run in this process (across all
/// threads).  Test instrumentation for the reuse guarantee: preparing one
/// query against `k` documents must perform the automaton-side
/// transformation exactly once.
static END_TRANSFORM_COUNT: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of [`end_transform`] runs (test instrumentation).
pub fn end_transform_count() -> usize {
    END_TRANSFORM_COUNT.load(Ordering::SeqCst)
}

/// The paper's non-tail-spanning transformation: `L(M') = L(M)·#`.
///
/// A fresh state `f` is added; every accepting state gets a `#`-transition
/// to `f`, and `f` becomes the unique accepting state.  Determinism and
/// ε-freeness are preserved.
pub fn end_transform(nfa: &Nfa<MarkedSymbol<u8>>) -> Nfa<MarkedSymbol<EByte>> {
    END_TRANSFORM_COUNT.fetch_add(1, Ordering::SeqCst);
    let mut out: Nfa<MarkedSymbol<EByte>> = Nfa::with_states(nfa.num_states() + 1);
    let end_state = nfa.num_states();
    out.set_start(nfa.start());
    for (p, label, q) in nfa.arcs() {
        match label {
            Label::Symbol(MarkedSymbol::Terminal(b)) => {
                out.add_transition(p, MarkedSymbol::Terminal(EByte::Byte(b)), q)
            }
            Label::Symbol(MarkedSymbol::Markers(m)) => {
                out.add_transition(p, MarkedSymbol::Markers(m), q)
            }
            Label::Epsilon => out.add_epsilon(p, q),
        }
    }
    for q in nfa.accepting_states() {
        out.add_transition(q, MarkedSymbol::Terminal(EByte::End), end_state);
    }
    out.set_accepting(end_state, true);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spanner::examples::figure_2_spanner;

    #[test]
    fn end_transform_adds_one_state_and_stays_deterministic() {
        let m = figure_2_spanner();
        let before = end_transform_count();
        let ended = end_transform(m.nfa());
        assert!(end_transform_count() > before);
        assert_eq!(ended.num_states(), m.num_states() + 1);
        assert_eq!(ended.num_transitions(), m.num_transitions() + 1);
        assert!(ended.is_deterministic());
        assert_eq!(ended.accepting_states(), vec![m.num_states()]);
    }

    #[test]
    fn prepared_evaluation_builds_for_the_paper_example() {
        let m = figure_2_spanner();
        let slp = slp::examples::example_4_2();
        let prep = PreparedEvaluation::new(&m, &slp).unwrap();
        assert!(prep.deterministic());
        assert_eq!(prep.num_vars(), 2);
        // D# has length 11.
        assert_eq!(prep.slp().document_len(), 11);
        // Terminals of the transformed SLP include the sentinel.
        assert!(prep.slp().terminals().contains(&EByte::End));
    }

    #[test]
    fn from_stages_reuses_the_document_cache() {
        let m = figure_2_spanner();
        let slp = slp::examples::example_4_2();
        let query = PreparedQuery::new(&m);
        let document = PreparedDocument::new(&slp);
        let first = document.matrices(&query);
        let prep = PreparedEvaluation::from_stages(query, document);
        assert!(Arc::ptr_eq(&first, &prep.pre));
    }
}

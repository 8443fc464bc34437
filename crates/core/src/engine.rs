//! The two-stage evaluation engine: query-side preparation × document-side
//! preparation, pooled by the concurrent [`Service`].
//!
//! The `O(|M| + size(S)·q³)` preprocessing of Lemma 6.5 factors cleanly into
//! two independent halves plus one pair-dependent product:
//!
//! 1. **[`PreparedQuery`]** — automaton-only work (ε-removal, optional
//!    determinisation, the end-of-document transformation of Section 6.1).
//!    Depends on `M` alone, so it is done **once per query** and reused
//!    across every document.
//! 2. **[`PreparedDocument`]** — SLP-only work (extending the terminal
//!    alphabet and appending the `#` sentinel, `D ↦ D·#`).  Depends on `S`
//!    alone, so it is done **once per document** and reused across every
//!    query.  The pair-dependent matrices `R_A` / `M_{T_x}` of
//!    [`Preprocessed`] are built on first use of a (query, document) pair
//!    and cached here, keyed by the query's unique token, in a concurrent
//!    (optionally byte-budgeted) [`MatrixCache`] — so sharing a prepared
//!    document across threads needs no locking on the caller's side.
//!
//! The [`Service`] pools both stages and answers task requests over their
//! cross-product from any number of threads.
//!
//! ```
//! use slp::families;
//! use spanner::regex;
//! use spanner_slp_core::engine::{PreparedDocument, PreparedQuery};
//!
//! let query = PreparedQuery::determinized(&regex::compile(".*x{ab}.*", b"ab").unwrap());
//! let d1 = PreparedDocument::new(&families::power_word(b"ab", 100));
//! let d2 = PreparedDocument::new(&families::power_word(b"ab", 1000));
//! // The automaton-side transformation ran once; each document builds the
//! // pair's matrices on first use and caches them.
//! assert!(!d1.matrices(&query).reachable_accepting().is_empty());
//! assert!(!d2.matrices(&query).reachable_accepting().is_empty());
//! assert_eq!(d2.cached_query_count(), 1);
//! ```

use crate::cache::{CacheLookup, CacheStats, MatrixCache, PairKey};
use crate::executor::{LocalExecutor, ShardExecutor};
use crate::matrices::Preprocessed;
use crate::prepared::{end_transform, EByte};
#[cfg(doc)]
use crate::service::Service;
use crate::trace::ShardTrace;
use slp::shard::{self, ShardLayout, ShardedDocument};
use slp::NormalFormSlp;
use spanner::{MarkedSymbol, SpannerAutomaton};
use spanner_automata::nfa::Nfa;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Source of unique tokens identifying prepared queries in matrix caches.
static NEXT_QUERY_TOKEN: AtomicU64 = AtomicU64::new(0);

/// Source of unique tokens identifying prepared documents in matrix caches
/// (the other half of a [`PairKey`]).
static NEXT_DOC_TOKEN: AtomicU64 = AtomicU64::new(0);

/// The query-side half of the preprocessing: everything that depends only on
/// the automaton `M`.
///
/// Construction performs ε-removal (if needed), optional determinisation and
/// the end-of-document transformation `L(M') = L(M)·#` exactly once; the
/// result is reused across every document the query is evaluated on.
#[derive(Debug, Clone)]
pub struct PreparedQuery {
    token: u64,
    /// ε-free automaton over `Σ ∪ P(Γ_X)` (determinised iff constructed via
    /// [`PreparedQuery::determinized`] or already deterministic).
    automaton: SpannerAutomaton<u8>,
    /// The end-transformed automaton over `Σ∪{#} ∪ P(Γ_X)`.
    nfa: Nfa<MarkedSymbol<EByte>>,
    deterministic: bool,
}

impl PreparedQuery {
    /// Prepares a query without determinising: ε-transitions are removed,
    /// then the end-of-document transformation is applied.  Suitable for
    /// [`compute`](crate::compute) (duplicate-elimination is built in); use
    /// [`PreparedQuery::determinized`] for duplicate-free enumeration and
    /// counting.
    pub fn new(automaton: &SpannerAutomaton<u8>) -> Self {
        let automaton = if automaton.nfa().has_epsilon() {
            automaton.without_epsilon()
        } else {
            automaton.clone()
        };
        Self::from_epsilon_free(automaton)
    }

    /// Prepares a query for the full task suite: non-deterministic automata
    /// are determinised first (this affects combined complexity only; see
    /// the end of Section 8 of the paper).
    pub fn determinized(automaton: &SpannerAutomaton<u8>) -> Self {
        let automaton = if automaton.is_deterministic() {
            automaton.clone()
        } else {
            automaton.without_epsilon().determinized()
        };
        Self::from_epsilon_free(automaton)
    }

    fn from_epsilon_free(automaton: SpannerAutomaton<u8>) -> Self {
        let deterministic = automaton.is_deterministic();
        let nfa = end_transform(automaton.nfa());
        PreparedQuery {
            token: NEXT_QUERY_TOKEN.fetch_add(1, Ordering::Relaxed),
            automaton,
            nfa,
            deterministic,
        }
    }

    /// The unique token identifying this prepared query in document-side
    /// matrix caches.
    pub fn token(&self) -> u64 {
        self.token
    }

    /// The ε-free (and possibly determinised) automaton over `Σ ∪ P(Γ_X)`.
    pub fn automaton(&self) -> &SpannerAutomaton<u8> {
        &self.automaton
    }

    /// The end-transformed, ε-free automaton the matrices are built against.
    pub fn nfa(&self) -> &Nfa<MarkedSymbol<EByte>> {
        &self.nfa
    }

    /// Number of span variables `|X|`.
    pub fn num_vars(&self) -> usize {
        self.automaton.num_vars()
    }

    /// `true` if the prepared automaton is deterministic — the precondition
    /// of duplicate-free enumeration (Lemma 8.8) and of counting.
    pub fn is_deterministic(&self) -> bool {
        self.deterministic
    }
}

/// The document-side half of the preprocessing: everything that depends only
/// on the SLP `S`, plus a concurrent cache of the pair-dependent matrices
/// keyed by (document, query) pair.
///
/// All methods take `&self`; the matrix cache is a sharded-lock
/// [`MatrixCache`], so one prepared document can serve any number of
/// threads simultaneously.  A duplicate matrix build for the same query on
/// two racing threads is benign (first insert wins — the matrices are
/// deterministic and read-only after construction).  A standalone prepared
/// document owns a private cache; documents registered in a
/// [`Service`] share the service's one cache, so every
/// document competes for one global byte budget.
///
/// A document can additionally be *sharded*
/// ([`PreparedDocument::sharded`]): its SLP is cut at the start rule into
/// `k` balanced sub-grammars whose matrix passes run independently and are
/// merged at the root (see [`Preprocessed::build_sharded`]).  Every
/// result is identical to the monolithic path.
#[derive(Debug, Clone)]
pub struct PreparedDocument {
    original: NormalFormSlp<u8>,
    /// The SLP for `D·#` over the extended alphabet.
    ended: NormalFormSlp<EByte>,
    /// Where each shard's rules live inside `ended`, for sharded documents.
    shard_layout: Option<ShardLayout>,
    /// This document's half of the matrix-cache [`PairKey`].
    token: u64,
    /// `R_A` / `M_{T_x}` matrices per (document, query) pair (Lemma 6.5) —
    /// private here, re-homed onto the shared service cache on
    /// registration.
    cache: Arc<MatrixCache>,
    /// The backend that runs this document's per-shard matrix passes
    /// ([`LocalExecutor`] by default; a service configured with a remote
    /// pool re-homes this on registration, like the cache).  Unused for
    /// monolithic documents.
    executor: Arc<dyn ShardExecutor>,
}

impl PreparedDocument {
    /// Prepares a document: extends the terminal alphabet by the sentinel
    /// and appends it (`D ↦ D·#`, Section 6.1).  Done once per document and
    /// reused across every query.  The matrix cache is unbounded; use
    /// [`PreparedDocument::with_cache_budget`] to cap it.
    pub fn new(document: &NormalFormSlp<u8>) -> Self {
        Self::with_cache_budget(document, None)
    }

    /// Like [`PreparedDocument::new`], but caps the resident bytes of
    /// cached matrices at `budget` with LRU eviction (`None` = unbounded).
    pub fn with_cache_budget(document: &NormalFormSlp<u8>, budget: Option<usize>) -> Self {
        PreparedDocument {
            original: document.clone(),
            ended: document
                .map_terminals(EByte::Byte)
                .append_terminal(EByte::End),
            shard_layout: None,
            token: NEXT_DOC_TOKEN.fetch_add(1, Ordering::Relaxed),
            cache: Arc::new(MatrixCache::new(budget)),
            executor: Arc::new(LocalExecutor),
        }
    }

    /// Prepares a document for scatter-gather evaluation: the SLP is split
    /// at the start rule into `k` balanced sub-grammars (`k` clamped to
    /// `1..=document length`, see [`slp::shard::split`]), composed back with
    /// a root spine, and the `#` sentinel appended.  Matrix builds then run
    /// one independent pass per shard and merge at the root; every
    /// evaluation result is identical to [`PreparedDocument::new`].
    pub fn sharded(document: &NormalFormSlp<u8>, k: usize) -> Self {
        let (combined, layout) = shard::split(document, k).compose();
        Self::from_composed(document.clone(), combined, layout)
    }

    /// Prepares an already split document (e.g. shards assembled from a
    /// corpus pipeline).  The original text is recovered from the shard
    /// concatenation.
    pub fn from_shards(sharded: ShardedDocument<u8>) -> Self {
        let (combined, layout) = sharded.compose();
        Self::from_composed(combined.clone(), combined, layout)
    }

    /// Like [`PreparedDocument::sharded`], but reusing a split the caller
    /// already performed on `document` (e.g. the probe split of an
    /// auto-tuned registration), so the grammar surgery runs once.  Unlike
    /// [`PreparedDocument::from_shards`], the original grammar is kept for
    /// model checking.
    pub fn sharded_precut(document: &NormalFormSlp<u8>, sharded: &ShardedDocument<u8>) -> Self {
        debug_assert_eq!(
            sharded.total_len(),
            document.document_len(),
            "the split must be of this document"
        );
        let (combined, layout) = sharded.compose();
        Self::from_composed(document.clone(), combined, layout)
    }

    fn from_composed(
        original: NormalFormSlp<u8>,
        combined: NormalFormSlp<u8>,
        layout: ShardLayout,
    ) -> Self {
        // `map_terminals` keeps rule indices; `append_terminal` adds the
        // sentinel rules *after* every shard block — both preserve the
        // layout's self-contained ranges.
        let ended = combined
            .map_terminals(EByte::Byte)
            .append_terminal(EByte::End);
        PreparedDocument {
            original,
            ended,
            shard_layout: Some(layout),
            token: NEXT_DOC_TOKEN.fetch_add(1, Ordering::Relaxed),
            cache: Arc::new(MatrixCache::new(None)),
            executor: Arc::new(LocalExecutor),
        }
    }

    /// The original SLP for `D`.
    pub fn original(&self) -> &NormalFormSlp<u8> {
        &self.original
    }

    /// The unique token identifying this prepared document in matrix
    /// caches (the document half of a [`PairKey`]).
    pub fn token(&self) -> u64 {
        self.token
    }

    /// `true` if this document evaluates via the scatter-gather shard path.
    pub fn is_sharded(&self) -> bool {
        self.shard_layout.is_some()
    }

    /// Number of shards (1 for monolithic documents).
    pub fn shard_count(&self) -> usize {
        self.shard_layout
            .as_ref()
            .map_or(1, |layout| layout.ranges.len())
    }

    /// The shard layout of the ended SLP, if this document is sharded.
    pub fn shard_layout(&self) -> Option<&ShardLayout> {
        self.shard_layout.as_ref()
    }

    /// Re-homes this document's matrix cache onto `cache` (the service's
    /// shared pool), carrying over any matrices already built for *this*
    /// document — the previous cache may be another service's shared pool
    /// (this document was cloned across services), which is left untouched.
    pub(crate) fn rehome_cache(&mut self, cache: Arc<MatrixCache>) {
        if Arc::ptr_eq(&self.cache, &cache) {
            return;
        }
        cache.absorb_doc(&self.cache, self.token);
        self.cache = cache;
    }

    /// Sets the backend that runs this document's per-shard matrix passes
    /// (the default is the in-process [`LocalExecutor`]).  Registering the
    /// document in a [`Service`] overrides this with the service-wide
    /// executor (see `ServiceBuilder::shard_executor`).  Has no effect on
    /// monolithic documents.
    pub fn set_shard_executor(&mut self, executor: Arc<dyn ShardExecutor>) {
        self.executor = executor;
    }

    /// The backend this document's sharded matrix builds run on.
    pub fn shard_executor(&self) -> &Arc<dyn ShardExecutor> {
        &self.executor
    }

    /// The SLP for `D·#`.
    pub fn ended(&self) -> &NormalFormSlp<EByte> {
        &self.ended
    }

    /// Length of the (original) document `|D|`.
    pub fn document_len(&self) -> u64 {
        self.original.document_len()
    }

    /// The matrices of Lemma 6.5 for this document and the given query,
    /// built on first use (`O(|M| + size(S)·q³)`) and cached thereafter.
    pub fn matrices(&self, query: &PreparedQuery) -> Arc<Preprocessed> {
        self.matrices_with_stats(query).0
    }

    /// Like [`PreparedDocument::matrices`], additionally reporting whether
    /// the lookup hit the cache, what a miss cost, and — for sharded
    /// documents — the per-shard build/merge timings of a miss.
    pub fn matrices_with_stats(&self, query: &PreparedQuery) -> (Arc<Preprocessed>, CacheLookup) {
        self.matrices_traced(query, None)
    }

    /// [`PreparedDocument::matrices_with_stats`] for a *sampled* request:
    /// the trace handle rides into a sharded build so executors attribute
    /// per-shard time to the request's span tree.  `None` is exactly the
    /// untraced lookup (and a cache *hit* records nothing here either way —
    /// the caller times the lookup itself).
    pub fn matrices_traced(
        &self,
        query: &PreparedQuery,
        trace: Option<ShardTrace>,
    ) -> (Arc<Preprocessed>, CacheLookup) {
        let key = PairKey {
            doc: self.token,
            query: query.token(),
        };
        self.cache.get_or_build(key, || match &self.shard_layout {
            Some(layout) => {
                let (pre, stats) = Preprocessed::build_sharded_traced(
                    query.nfa(),
                    &self.ended,
                    query.num_vars(),
                    layout,
                    &*self.executor,
                    trace,
                );
                (pre, Some(stats))
            }
            None => (
                Preprocessed::build(query.nfa(), &self.ended, query.num_vars()),
                None,
            ),
        })
    }

    /// The matrices for `query` if they are already cached (without
    /// touching LRU recency).
    pub fn cached_matrices(&self, query: &PreparedQuery) -> Option<Arc<Preprocessed>> {
        self.cache.peek(PairKey {
            doc: self.token,
            query: query.token(),
        })
    }

    /// Number of queries whose matrices are currently cached for this
    /// document.
    pub fn cached_query_count(&self) -> usize {
        self.cache.len_for(self.token)
    }

    /// Bytes of this document's preprocessed matrices currently resident in
    /// the (possibly shared) cache.
    pub fn cache_bytes(&self) -> usize {
        self.cache.resident_bytes_for(self.token)
    }

    /// The byte budget of the cache this document lives in (`None` =
    /// unbounded).  Service-registered documents report the service-wide
    /// budget.
    pub fn cache_budget(&self) -> Option<usize> {
        self.cache.budget()
    }

    /// Cumulative counters of the cache this document lives in.  For
    /// service-registered documents these are the *service-wide* totals of
    /// the shared pool.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Drops this document's cached matrices (e.g. to bound memory in a
    /// long-running pool), leaving other documents sharing the cache
    /// untouched.  In-flight evaluations holding `Arc`s are unaffected.
    pub fn clear_cache(&self) {
        self.cache.clear_doc(self.token);
    }
}

/// Identifier of a query registered in a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryId(pub(crate) usize);

impl QueryId {
    /// The pool index behind the id.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a document registered in a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DocumentId(pub(crate) usize);

impl DocumentId {
    /// The pool index behind the id.
    pub fn index(self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::Service;
    use crate::SlpSpanner;
    use slp::compress::{Bisection, Compressor};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::regex;
    use spanner::SpanTuple;
    use std::collections::BTreeSet;

    /// Count and result set of one pair, answered from its matrices.
    fn answers(query: &PreparedQuery, document: &PreparedDocument) -> (u128, BTreeSet<SpanTuple>) {
        let pre = document.matrices(query);
        let tuples = crate::compute::compute_from_matrices(&pre);
        (
            crate::count::count_from_matrices(&pre),
            tuples.into_iter().collect(),
        )
    }

    /// The same pair through a fresh single-pair facade.
    fn fresh(m: &SpannerAutomaton<u8>, doc: &NormalFormSlp<u8>) -> (u128, BTreeSet<SpanTuple>) {
        let spanner = SlpSpanner::new(m, doc).unwrap();
        (spanner.count(), spanner.compute().into_iter().collect())
    }

    #[test]
    fn engine_matches_fresh_slp_spanner_per_pair() {
        // One prepared query serves every document and one prepared
        // document every query; each pair still answers as if fresh.
        let queries = [
            figure_2_spanner(),
            regex::compile(".*x{ab}.*", b"abc").unwrap(),
        ];
        let docs = [
            Bisection.compress(b"aabccaabaa"),
            Bisection.compress(b"ababab"),
            families::power_word(b"ab", 64),
        ];
        let prepared_queries: Vec<PreparedQuery> =
            queries.iter().map(PreparedQuery::determinized).collect();
        let prepared_docs: Vec<PreparedDocument> = docs.iter().map(PreparedDocument::new).collect();
        for (m, query) in queries.iter().zip(&prepared_queries) {
            for (doc, document) in docs.iter().zip(&prepared_docs) {
                assert_eq!(answers(query, document), fresh(m, doc));
            }
        }
    }

    #[test]
    fn sharded_documents_answer_identically_through_the_engine() {
        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let doc = Bisection.compress(b"aabbaabbabab");
        let query = PreparedQuery::determinized(&m);
        for k in [2usize, 4, 8] {
            let sharded = PreparedDocument::sharded(&doc, k);
            assert!(sharded.is_sharded());
            assert_eq!(sharded.shard_count(), k);
            assert_eq!(answers(&query, &sharded), fresh(&m, &doc), "k={k}");
        }
    }

    #[test]
    fn matrices_are_cached_per_pair() {
        let service = Service::new();
        let q1 = service.add_query(&figure_2_spanner());
        let q2 = service.add_query(&regex::compile(".*x{ab}.*", b"abc").unwrap());
        let d = service.add_document(&Bisection.compress(b"aabccaabaa"));
        let document = service.document(d);
        assert_eq!(document.cached_query_count(), 0);
        let first = document.matrices(&service.query(q1));
        assert_eq!(document.cached_query_count(), 1);
        // Same pair again: cache hit, no growth, the same allocation.
        let again = document.matrices(&service.query(q1));
        assert_eq!(document.cached_query_count(), 1);
        assert!(Arc::ptr_eq(&first, &again));
        document.matrices(&service.query(q2));
        assert_eq!(document.cached_query_count(), 2);
        let cached = document.cached_matrices(&service.query(q1)).unwrap();
        assert!(Arc::ptr_eq(&cached, &first));
    }

    #[test]
    fn run_batch_through_the_service_covers_the_cross_product() {
        use crate::service::{Task, TaskRequest};
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let dids: Vec<DocumentId> = [8u64, 32, 128]
            .iter()
            .map(|&k| service.add_document(&families::power_word(b"ab", k)))
            .collect();
        let requests: Vec<TaskRequest> = dids
            .iter()
            .map(|&d| TaskRequest {
                query: q,
                doc: d,
                task: Task::Compute { limit: None },
            })
            .collect();
        let results = service.run_batch(&requests);
        assert_eq!(results.len(), 3);
        for (result, &k) in results.into_iter().zip(&[8usize, 32, 128]) {
            let tuples = result.unwrap().outcome.into_tuples().unwrap();
            assert_eq!(tuples.len(), k);
        }
    }

    #[test]
    fn prepared_document_is_query_independent() {
        let doc = Bisection.compress(b"aabccaabaa");
        let prepared = PreparedDocument::new(&doc);
        assert_eq!(prepared.document_len(), 10);
        assert_eq!(prepared.ended().document_len(), 11);
        assert!(prepared.ended().terminals().contains(&EByte::End));
        assert_eq!(prepared.original().derive(), doc.derive());
    }

    #[test]
    fn add_prepared_query_upgrades_nondeterministic_queries() {
        // Count and enumerate rely on determinism; a query prepared with
        // the non-determinising constructor is upgraded on registration so
        // results stay duplicate-free.
        use crate::service::{Task, TaskRequest};
        let nondet = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!nondet.is_deterministic());
        let service = Service::new();
        let q = service.add_prepared_query(PreparedQuery::new(&nondet));
        assert!(service.query(q).is_deterministic());
        let d = service.add_document(&Bisection.compress(b"abab"));
        let run = |task| {
            let request = TaskRequest {
                query: q,
                doc: d,
                task,
            };
            service.run(&request).unwrap().outcome
        };
        let computed = run(Task::Compute { limit: None }).into_tuples().unwrap();
        assert_eq!(run(Task::Count).as_count(), Some(computed.len() as u128));
        let enumerated = run(Task::Enumerate {
            skip: 0,
            limit: None,
        });
        assert_eq!(enumerated.into_tuples().unwrap().len(), computed.len());
    }

    #[test]
    fn slp_spanner_from_stages_upgrades_nondeterministic_queries() {
        let nondet = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        let doc = Bisection.compress(b"abab");
        let s = SlpSpanner::from_stages(PreparedQuery::new(&nondet), PreparedDocument::new(&doc));
        assert!(s.query().is_deterministic());
        assert_eq!(s.count(), s.compute().len() as u128);
        assert_eq!(s.enumerate().count(), s.compute().len());
    }

    #[test]
    fn prepared_query_tokens_are_unique() {
        let m = figure_2_spanner();
        let a = PreparedQuery::new(&m);
        let b = PreparedQuery::new(&m);
        assert_ne!(a.token(), b.token());
        assert!(a.is_deterministic());
        // Figure 2 is already deterministic, so both constructors agree.
        let c = PreparedQuery::determinized(&m);
        assert_eq!(c.nfa().num_states(), a.nfa().num_states());
    }

    #[test]
    fn evaluations_outlive_cache_eviction() {
        // A tiny budget forces every pair out of the cache; matrices already
        // handed out still answer from their own Arc.
        let service = Service::builder().cache_budget(1).build();
        let q1 = service.add_query(&figure_2_spanner());
        let q2 = service.add_query(&regex::compile(".*x{ab}.*", b"abc").unwrap());
        let d = service.add_document(&Bisection.compress(b"aabccaabaa"));
        let document = service.document(d);
        let pre1 = document.matrices(&service.query(q1));
        let pre2 = document.matrices(&service.query(q2));
        assert_eq!(document.cache_bytes(), 0, "budget of 1 byte");
        assert!(!pre1.reachable_accepting().is_empty());
        assert_eq!(
            crate::count::count_from_matrices(&pre2),
            crate::compute::compute_from_matrices(&pre2).len() as u128
        );
    }
}

//! The multi-tenant evaluation service: `&self` evaluation over a shared
//! query/document pool, task-oriented requests and memory-bounded matrix
//! caches.
//!
//! The paper's whole economic argument is that the Lemma 6.5 preprocessing
//! is *reusable*: pay `O(|M| + size(S)·q³)` once per (query, document) pair,
//! then answer every task from the cached matrices.  [`Service`] turns that
//! into a serving contract:
//!
//! * **`&self` evaluation.**  [`Service::run`] and [`Service::run_batch`]
//!   take `&self`; the service is `Sync`, so any number of threads can
//!   evaluate simultaneously over one shared instance.  The matrix cache is
//!   one service-wide sharded `RwLock` map of `Arc<Preprocessed>` keyed by
//!   (document, query) pairs (see [`crate::cache::MatrixCache`]): hits take
//!   a read lock only, and a concurrent duplicate build of the same pair is
//!   benign — matrices are deterministic and read-only after construction,
//!   the first insert wins and the loser adopts it.
//! * **Task-oriented requests.**  A [`TaskRequest`] names a pooled query, a
//!   pooled document and a [`Task`]; the [`TaskResponse`] carries the
//!   [`TaskOutcome`] plus per-request [`RequestStats`] (cache hit/miss,
//!   matrix build time, result count).  Asking for `Count` never
//!   materialises tuples; `Enumerate { skip, limit }` streams just the
//!   window it needs.
//! * **Warm point lookups off the `O(size(S))` path.**  A pair's count is
//!   memoised on its cached matrices, so only the first `Count` runs the
//!   counting pass.  `ModelCheck` never *builds* matrices: on a resident
//!   pair it walks only the tuple's marked root-to-leaf paths over them
//!   ([`model_check::check_on_matrices`]); otherwise it splices the
//!   original SLP ([`model_check::check`]) and leaves the cache alone.
//! * **Scatter-gather over shards.**  [`Service::add_document_sharded`]
//!   registers a document split at the start rule into `k` balanced
//!   sub-grammars; its matrix builds run one independent pass per shard and
//!   merge by matrix products at the root, with results identical to the
//!   monolithic path.  [`TaskResponse::shard_stats`] reports what each
//!   shard and the merge cost.  How a build's shard passes run is the
//!   [`ShardExecutor`]'s choice: the default [`LocalExecutor`] runs them
//!   in order on the request's thread.
//! * **One global cache budget.**  [`ServiceBuilder::cache_budget`] caps
//!   the bytes of preprocessed matrices resident *service-wide*: every
//!   document — and every shard of every document — competes for one pool
//!   with LRU eviction under one shared eviction clock; evicted pairs are
//!   transparently rebuilt on next use.
//!
//! ```
//! use slp::families;
//! use spanner::regex;
//! use spanner_slp_core::service::{Service, Task, TaskRequest};
//!
//! let service = Service::new();
//! let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
//! let d = service.add_document(&families::power_word(b"ab", 1000));
//! let response = service
//!     .run(&TaskRequest { query: q, doc: d, task: Task::Count })
//!     .unwrap();
//! assert_eq!(response.outcome.as_count(), Some(1000));
//! assert!(!response.stats.cache_hit); // first touch of the pair builds
//! let again = service
//!     .run(&TaskRequest { query: q, doc: d, task: Task::NonEmptiness })
//!     .unwrap();
//! assert!(again.stats.cache_hit); // every later task reuses the matrices
//! ```

use crate::cache::{CacheLookup, MatrixCache};
use crate::engine::{DocumentId, PreparedDocument, PreparedQuery, QueryId};
use crate::error::EvalError;
use crate::executor::{LocalExecutor, ShardExecutor};
use crate::matrices::ShardBuildStats;
use crate::trace::Tracer;
use crate::{compute, count, enumerate, model_check};
use slp::NormalFormSlp;
use spanner::{SpanTuple, SpannerAutomaton};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One evaluation task over a (query, document) pair — the request side of
/// the paper's task suite (Theorems 5.1, 7.1, 8.10 and the counting
/// extension).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Task {
    /// Is `⟦M⟧(D) ≠ ∅`?  (Theorem 5.1(1); `O(|F|)` from the matrices.)
    NonEmptiness,
    /// Is the given tuple in `⟦M⟧(D)`?  (Theorem 5.1(2).)
    ModelCheck(SpanTuple),
    /// `|⟦M⟧(D)|` without materialising any tuple (counting extension).
    Count,
    /// Materialise `⟦M⟧(D)` (Theorem 7.1), keeping the first `limit` tuples
    /// in `⪯` order (`None` = all).  The pass pulls only the list prefixes
    /// those tuples need, so a small limit never builds the whole relation.
    Compute {
        /// Maximum number of tuples to return (`None` = no bound).
        limit: Option<usize>,
    },
    /// Stream a window of `⟦M⟧(D)` with the paper's `O(depth(S)·|X|)`
    /// delay (Theorem 8.10): skip the first `skip` results, then return up
    /// to `limit` (`None` = all remaining).  Cost is proportional to
    /// `skip + limit`, not to `|⟦M⟧(D)|`.
    Enumerate {
        /// Number of leading results to discard.
        skip: usize,
        /// Maximum number of tuples to return after skipping (`None` = no
        /// bound).
        limit: Option<usize>,
    },
}

impl Task {
    /// All task-kind names in [`Task::kind_index`] order — the label set
    /// of per-kind metric arrays.
    pub const KIND_NAMES: [&'static str; 5] = [
        "non_emptiness",
        "model_check",
        "count",
        "compute",
        "enumerate",
    ];

    /// Stable index of this task's kind: the slot order of
    /// [`TaskKindCounts`] and of per-kind histogram arrays.
    pub fn kind_index(&self) -> usize {
        match self {
            Task::NonEmptiness => 0,
            Task::ModelCheck(_) => 1,
            Task::Count => 2,
            Task::Compute { .. } => 3,
            Task::Enumerate { .. } => 4,
        }
    }

    /// Stable snake_case name of this task's kind (span attributes, scrape
    /// labels).
    pub fn kind_name(&self) -> &'static str {
        Task::KIND_NAMES[self.kind_index()]
    }

    /// Which QoS cost class this task belongs to.
    ///
    /// NonEmptiness / ModelCheck / Count answer from the prepared matrices
    /// and their per-pair memos in microseconds; Compute and Enumerate
    /// return up to the whole relation, one tuple at a time, and can hold a
    /// worker for milliseconds.  Schedulers use the split so one burst of
    /// scans cannot starve point lookups.
    pub fn class(&self) -> TaskClass {
        match self {
            Task::NonEmptiness | Task::ModelCheck(_) | Task::Count => TaskClass::Cheap,
            Task::Compute { .. } | Task::Enumerate { .. } => TaskClass::Expensive,
        }
    }
}

/// Coarse cost class of a [`Task`] — the task-kind half of the QoS
/// scheduler's (class, tenant) queue key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskClass {
    /// Matrix-lookup tasks: non-emptiness, model-check, count.
    Cheap,
    /// Document-walking tasks: compute, enumerate.
    Expensive,
}

impl TaskClass {
    /// All classes, in [`TaskClass::index`] order.
    pub const ALL: [TaskClass; 2] = [TaskClass::Cheap, TaskClass::Expensive];

    /// Stable slot index (metric arrays, queue-depth gauges).
    pub fn index(self) -> usize {
        match self {
            TaskClass::Cheap => 0,
            TaskClass::Expensive => 1,
        }
    }

    /// Stable scrape-label name.
    pub fn name(self) -> &'static str {
        match self {
            TaskClass::Cheap => "cheap",
            TaskClass::Expensive => "expensive",
        }
    }

    /// Relative scheduling weight of the class itself (multiplied by the
    /// tenant's admission weight to form a queue's WFQ weight).  Cheap
    /// tasks get 8× the service share per unit queued, which keeps point
    /// lookups flowing under scan load while still draining scans.
    pub fn weight(self) -> u64 {
        match self {
            TaskClass::Cheap => 8,
            TaskClass::Expensive => 1,
        }
    }
}

/// A request against a [`Service`]: which pooled query, which pooled
/// document, which task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskRequest {
    /// The pooled query to evaluate.
    pub query: QueryId,
    /// The pooled document to evaluate on.
    pub doc: DocumentId,
    /// What to compute for the pair.
    pub task: Task,
}

/// The result payload of a [`TaskResponse`], one variant per [`Task`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskOutcome {
    /// Answer to [`Task::NonEmptiness`].
    NonEmpty(bool),
    /// Answer to [`Task::ModelCheck`].
    Checked(bool),
    /// Answer to [`Task::Count`].
    Count(u128),
    /// Answer to [`Task::Compute`] / [`Task::Enumerate`].
    Tuples(Vec<SpanTuple>),
}

impl TaskOutcome {
    /// The Boolean payload of [`NonEmpty`](TaskOutcome::NonEmpty) or
    /// [`Checked`](TaskOutcome::Checked).
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            TaskOutcome::NonEmpty(b) | TaskOutcome::Checked(b) => Some(b),
            _ => None,
        }
    }

    /// The payload of [`Count`](TaskOutcome::Count).
    pub fn as_count(&self) -> Option<u128> {
        match *self {
            TaskOutcome::Count(n) => Some(n),
            _ => None,
        }
    }

    /// The tuples of [`Tuples`](TaskOutcome::Tuples).
    pub fn tuples(&self) -> Option<&[SpanTuple]> {
        match self {
            TaskOutcome::Tuples(t) => Some(t),
            _ => None,
        }
    }

    /// Consumes the outcome into its tuples ([`Tuples`](TaskOutcome::Tuples)
    /// only).
    pub fn into_tuples(self) -> Option<Vec<SpanTuple>> {
        match self {
            TaskOutcome::Tuples(t) => Some(t),
            _ => None,
        }
    }
}

/// Per-request statistics carried on every [`TaskResponse`].
///
/// [`Task::ModelCheck`] never builds matrices and is not a cache lookup:
/// it answers from the pair's matrices when they are already resident
/// (peeking without bumping LRU recency) and from the original automaton ×
/// SLP otherwise (Theorem 5.1(2)).  Either way its responses report
/// `cache_hit: false` with zero build time and zero matrix bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestStats {
    /// `true` if the pair's matrices were already resident.
    pub cache_hit: bool,
    /// Time this request spent building the Lemma 6.5 matrices (zero on a
    /// cache hit).
    pub matrix_build: Duration,
    /// [`crate::matrices::Preprocessed::approx_bytes`] of the pair's
    /// matrices.
    pub matrix_bytes: usize,
    /// Time spent answering the task itself (after the matrices were in
    /// hand).
    pub task_time: Duration,
    /// Number of tuples materialised into the response (zero for the
    /// Boolean and counting tasks).
    pub results: u64,
}

/// The response to one [`TaskRequest`]: the outcome plus request statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskResponse {
    /// The task's result.
    pub outcome: TaskOutcome,
    /// What the request cost.
    pub stats: RequestStats,
    /// Per-shard build and root-merge timings, present exactly when this
    /// request ran a scatter-gather matrix build (a cache miss on a sharded
    /// document); `None` on hits, monolithic documents and
    /// [`Task::ModelCheck`].
    pub shard_stats: Option<ShardBuildStats>,
}

/// Cumulative request counts broken down by [`Task`] kind, part of
/// [`ServiceStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TaskKindCounts {
    /// [`Task::NonEmptiness`] requests.
    pub non_emptiness: u64,
    /// [`Task::ModelCheck`] requests.
    pub model_check: u64,
    /// [`Task::Count`] requests.
    pub count: u64,
    /// [`Task::Compute`] requests.
    pub compute: u64,
    /// [`Task::Enumerate`] requests (including streamed ones).
    pub enumerate: u64,
}

impl TaskKindCounts {
    /// Sum over all task kinds (equals [`ServiceStats::requests`]).
    pub fn total(&self) -> u64 {
        self.non_emptiness + self.model_check + self.count + self.compute + self.enumerate
    }
}

/// Aggregate service counters, a snapshot of [`Service::stats`].
///
/// `cache_hits + cache_misses` need not equal `requests`:
/// [`Task::ModelCheck`] requests count as neither (they only peek at
/// resident matrices, see [`RequestStats`]).
///
/// The snapshot is *request-atomic*: every request commits all its counter
/// updates (request total, per-kind count, cache hit/miss) in one step, and
/// [`Service::stats`] excludes commits in flight — a snapshot taken under
/// concurrent [`Service::run`]s never observes a request that is
/// counted in `requests` but missing from `by_task`, or vice versa.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Total requests served (including failed ones).
    pub requests: u64,
    /// `requests` broken down by task kind.
    pub by_task: TaskKindCounts,
    /// Cache lookups answered from resident matrices.
    pub cache_hits: u64,
    /// Cache lookups that built matrices.
    pub cache_misses: u64,
    /// Matrix sets evicted from the shared cache pool (lifetime total).
    pub evictions: u64,
    /// Bytes of preprocessed matrices currently resident in the shared
    /// cache pool (all documents).
    pub resident_bytes: usize,
    /// Matrix sets currently resident in the shared cache pool.
    pub resident_entries: usize,
}

/// A tenant namespace identifier.  [`TenantId::DEFAULT`] (id 0) always
/// exists, carries no quotas unless explicitly configured, and is where the
/// tenant-unaware registration methods ([`Service::add_document`] and
/// friends) place their documents — so single-tenant callers never see the
/// tenancy machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The always-present default tenant.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-tenant quotas and resource shares.  Quota fields use `0` to mean
/// "unlimited"; `cache_share` is an absolute byte reservation carved from
/// the service's global matrix-cache budget (`0` = no reservation), and
/// `admission_weight` is consumed by serving front-ends to weight their
/// admission queues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Human-readable tenant name.
    pub name: String,
    /// Maximum live documents (`0` = unlimited).
    pub max_docs: u64,
    /// Maximum total corpus bytes over live documents (`0` = unlimited).
    pub max_corpus_bytes: u64,
    /// Reserved matrix-cache bytes (see
    /// [`crate::cache::MatrixCache::set_tenant_share`]); `0` = none.
    pub cache_share: usize,
    /// Relative admission weight for serving front-ends.
    pub admission_weight: u32,
}

impl Default for TenantConfig {
    fn default() -> Self {
        TenantConfig {
            name: String::new(),
            max_docs: 0,
            max_corpus_bytes: 0,
            cache_share: 0,
            admission_weight: 1,
        }
    }
}

/// Live resource usage of one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Live documents registered by the tenant.
    pub docs: u64,
    /// Total corpus bytes (original document lengths) of those documents.
    pub corpus_bytes: u64,
}

/// A registration rejected by tenant quota enforcement.
///
/// Deliberately *not* an [`EvalError`]: quota exhaustion is an admission
/// decision, and front-ends must surface it as a structured quota error —
/// distinguishable from both evaluation failures and `busy` backpressure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuotaError {
    /// The registering tenant does not exist.
    UnknownTenant,
    /// The tenant is at its document-count quota.
    Docs {
        /// Configured maximum.
        limit: u64,
        /// Live documents at rejection time.
        used: u64,
    },
    /// The registration would push the tenant over its corpus-byte quota.
    CorpusBytes {
        /// Configured maximum.
        limit: u64,
        /// Live corpus bytes at rejection time.
        used: u64,
        /// Bytes the rejected document would have added.
        requested: u64,
    },
}

impl std::fmt::Display for QuotaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QuotaError::UnknownTenant => write!(f, "unknown tenant"),
            QuotaError::Docs { limit, used } => {
                write!(f, "document quota exhausted ({used}/{limit} documents)")
            }
            QuotaError::CorpusBytes {
                limit,
                used,
                requested,
            } => write!(
                f,
                "corpus byte quota exhausted ({used}/{limit} bytes, {requested} requested)"
            ),
        }
    }
}

impl std::error::Error for QuotaError {}

/// A tenant's registry entry.
#[derive(Debug)]
struct TenantState {
    config: TenantConfig,
    usage: TenantUsage,
}

/// Which tenant owns a document slot, and what it was charged.
#[derive(Debug, Clone, Copy)]
struct DocOwner {
    tenant: u32,
    bytes: u64,
}

/// Configuration assembled by [`ServiceBuilder`].
#[derive(Debug, Clone)]
struct ServiceConfig {
    cache_budget: Option<usize>,
    determinize: bool,
    shard_executor: Arc<dyn ShardExecutor>,
}

/// Builder for a [`Service`]: cache budget, determinisation policy, shard
/// execution backend.
#[derive(Debug, Clone)]
pub struct ServiceBuilder {
    config: ServiceConfig,
}

impl Default for ServiceBuilder {
    fn default() -> Self {
        ServiceBuilder {
            config: ServiceConfig {
                cache_budget: None,
                determinize: true,
                shard_executor: Arc::new(LocalExecutor),
            },
        }
    }
}

impl ServiceBuilder {
    /// Starts from the defaults: unbounded caches, determinising query
    /// registration, local shard execution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps the preprocessed-matrix bytes resident **service-wide** at
    /// `bytes`: all documents (and all shards of all documents) compete for
    /// one pool, with LRU eviction over (document, query) pairs driven by
    /// one shared eviction clock.  The total resident footprint is bounded
    /// by `bytes` no matter how many documents are registered.
    pub fn cache_budget(mut self, bytes: usize) -> Self {
        self.config.cache_budget = Some(bytes);
        self
    }

    /// Removes the cache budget (the default): matrices accumulate until
    /// [`PreparedDocument::clear_cache`] is called.
    pub fn unbounded_cache(mut self) -> Self {
        self.config.cache_budget = None;
        self
    }

    /// Sets the determinisation policy for [`Service::add_query`].  With
    /// `true` (the default) every pooled query is determinised, so the full
    /// task suite is available.  With `false` queries keep their prepared
    /// form; [`Task::Count`] and [`Task::Enumerate`] then fail with
    /// [`EvalError::NondeterministicAutomaton`] for non-deterministic
    /// queries (duplicate-freeness needs determinism, Lemma 8.8), while the
    /// other tasks work unchanged.
    pub fn determinize(mut self, yes: bool) -> Self {
        self.config.determinize = yes;
        self
    }

    /// Sets the backend the per-shard matrix passes of *sharded* documents
    /// run on, service-wide.  The default [`LocalExecutor`] runs every
    /// shard in-process; `spanner-server`'s `RemoteExecutor` ships shard
    /// blocks to a pool of worker processes (falling back to local
    /// execution on worker failure, so results are never lost).
    /// Monolithic documents are unaffected.
    pub fn shard_executor(mut self, executor: Arc<dyn ShardExecutor>) -> Self {
        self.config.shard_executor = executor;
        self
    }

    /// Builds the (empty) service.
    pub fn build(self) -> Service {
        let mut tenants = HashMap::new();
        tenants.insert(
            0,
            TenantState {
                config: TenantConfig {
                    name: "default".to_string(),
                    ..TenantConfig::default()
                },
                usage: TenantUsage::default(),
            },
        );
        Service {
            queries: RwLock::new(Vec::new()),
            documents: RwLock::new(Vec::new()),
            cache: Arc::new(MatrixCache::new(self.config.cache_budget)),
            config: self.config,
            counters: Counters::default(),
            tenants: RwLock::new(tenants),
            doc_owners: RwLock::new(HashMap::new()),
            auto_probes: AtomicU64::new(0),
        }
    }
}

/// The service-wide request counters, updated once per request under a
/// shared gate so [`Service::stats`] can take a request-atomic snapshot.
///
/// Writers (requests committing their counts) take the gate in *read* mode
/// — commits from any number of threads proceed in parallel, each a handful
/// of relaxed `fetch_add`s.  [`Service::stats`] takes the gate in *write*
/// mode, which excludes half-committed requests from the snapshot without
/// blocking evaluation itself (the matrices are built and the task answered
/// entirely outside the gate).
#[derive(Debug, Default)]
struct Counters {
    /// Writers hold this shared; `stats()` holds it exclusively.
    gate: RwLock<()>,
    requests: AtomicU64,
    /// One slot per task kind, indexed by [`Task::kind_index`].
    by_task: [AtomicU64; 5],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

impl Counters {
    /// Commits one request (and its cache lookup, if any) atomically with
    /// respect to [`Counters::snapshot`].
    fn commit(&self, task: &Task, lookup: Option<&CacheLookup>) {
        let _shared = self.gate.read().expect("stats gate poisoned");
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.by_task[task.kind_index()].fetch_add(1, Ordering::Relaxed);
        if let Some(lookup) = lookup {
            if lookup.hit {
                self.cache_hits.fetch_add(1, Ordering::Relaxed);
            } else {
                self.cache_misses.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Reads all counters with no commit in flight.
    fn snapshot(&self) -> (u64, TaskKindCounts, u64, u64) {
        let _exclusive = self.gate.write().expect("stats gate poisoned");
        let kind = |i: usize| self.by_task[i].load(Ordering::Relaxed);
        (
            self.requests.load(Ordering::Relaxed),
            TaskKindCounts {
                non_emptiness: kind(0),
                model_check: kind(1),
                count: kind(2),
                compute: kind(3),
                enumerate: kind(4),
            },
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }
}

/// A shared pool of prepared queries and documents with concurrent, task-
/// oriented evaluation over the cross-product.  See the module docs for the
/// concurrency contract and [`ServiceBuilder`] for the knobs.
///
/// `Service` is `Sync`: registration and evaluation all take `&self`, so a
/// single instance can be shared across threads (e.g. behind an `Arc` in a
/// server) without external locking.
#[derive(Debug)]
pub struct Service {
    queries: RwLock<Vec<Arc<PreparedQuery>>>,
    /// `None` slots are removed documents: ids stay stable, the Arc (and
    /// its cache entries, via [`MatrixCache::clear_doc`]) are gone.
    documents: RwLock<Vec<Option<Arc<PreparedDocument>>>>,
    /// The one matrix pool every registered document shares: a global byte
    /// budget and a shared eviction clock across documents and shards.
    cache: Arc<MatrixCache>,
    config: ServiceConfig,
    counters: Counters,
    /// The tenant registry: id → configuration + live usage.  Tenant 0 (the
    /// default) is created with the service and never removed.
    tenants: RwLock<HashMap<u32, TenantState>>,
    /// Document slot index → owning tenant and charged corpus bytes, for
    /// releasing quota on [`Service::remove_document`].
    doc_owners: RwLock<HashMap<usize, DocOwner>>,
    /// Number of `auto_k` probe splits run by auto registrations — warm
    /// restarts replaying recorded shard counts must leave this at zero.
    auto_probes: AtomicU64,
}

impl Default for Service {
    fn default() -> Self {
        ServiceBuilder::new().build()
    }
}

impl Service {
    /// Creates a service with the default configuration (see
    /// [`ServiceBuilder`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts configuring a service.
    pub fn builder() -> ServiceBuilder {
        ServiceBuilder::new()
    }

    /// Registers a query, running the automaton-side preparation once
    /// (ε-removal, end-transformation, and — under the default policy —
    /// determinisation; see [`ServiceBuilder::determinize`]).
    pub fn add_query(&self, automaton: &SpannerAutomaton<u8>) -> QueryId {
        let prepared = if self.config.determinize {
            PreparedQuery::determinized(automaton)
        } else {
            PreparedQuery::new(automaton)
        };
        self.push_query(Arc::new(prepared))
    }

    /// Registers an already prepared query.  Under the determinising policy
    /// a non-deterministic query is upgraded via its ε-free automaton.
    pub fn add_prepared_query(&self, query: PreparedQuery) -> QueryId {
        let query = if self.config.determinize && !query.is_deterministic() {
            PreparedQuery::determinized(query.automaton())
        } else {
            query
        };
        self.push_query(Arc::new(query))
    }

    fn push_query(&self, query: Arc<PreparedQuery>) -> QueryId {
        let mut queries = self.queries.write().expect("query pool lock poisoned");
        queries.push(query);
        QueryId(queries.len() - 1)
    }

    /// Registers a document, running the document-side preparation
    /// (`D ↦ D·#`) once.  Its matrices live in the service's shared,
    /// globally budgeted pool.  The document lands in the default tenant's
    /// namespace; use [`Service::add_document_for`] for tenant-scoped,
    /// quota-checked registration.
    pub fn add_document(&self, document: &NormalFormSlp<u8>) -> DocumentId {
        self.add_document_for(TenantId::DEFAULT, document)
            .expect("default tenant rejected a registration (quota configured on tenant 0)")
    }

    /// Registers a document into `tenant`'s namespace, enforcing the
    /// tenant's document-count and corpus-byte quotas.
    pub fn add_document_for(
        &self,
        tenant: TenantId,
        document: &NormalFormSlp<u8>,
    ) -> Result<DocumentId, QuotaError> {
        self.add_owned(tenant, document.document_len(), || {
            PreparedDocument::new(document)
        })
    }

    /// Registers a document split into `k` balanced shards: matrix builds
    /// for it scatter one independent pass per shard and gather at the root
    /// (see [`PreparedDocument::sharded`]); task results are identical to
    /// [`Service::add_document`], and the per-request
    /// [`TaskResponse::shard_stats`] report what each shard cost.
    pub fn add_document_sharded(&self, document: &NormalFormSlp<u8>, k: usize) -> DocumentId {
        self.add_document_sharded_for(TenantId::DEFAULT, document, k)
            .expect("default tenant rejected a registration (quota configured on tenant 0)")
    }

    /// [`Service::add_document_sharded`] into `tenant`'s namespace, with
    /// quota enforcement.
    pub fn add_document_sharded_for(
        &self,
        tenant: TenantId,
        document: &NormalFormSlp<u8>,
        k: usize,
    ) -> Result<DocumentId, QuotaError> {
        self.add_owned(tenant, document.document_len(), || {
            PreparedDocument::sharded(document, k)
        })
    }

    /// Registers a document with an auto-tuned shard count: a cheap probe
    /// split estimates how well the grammar partitions
    /// ([`slp::shard::critical_ratio`]) and
    /// [`slp::shard::auto_k`] turns that, the host's core count and the
    /// grammar size into `k`.  Exponentially shared grammars (power
    /// families) and small documents stay monolithic; large block-like
    /// documents scatter over the cores.  Results are identical to
    /// [`Service::add_document`] either way.
    pub fn add_document_auto(&self, document: &NormalFormSlp<u8>) -> DocumentId {
        self.add_document_auto_for(TenantId::DEFAULT, document)
            .expect("default tenant rejected a registration (quota configured on tenant 0)")
    }

    /// [`Service::add_document_auto`] into `tenant`'s namespace, with quota
    /// enforcement.  Each probe split it runs increments
    /// [`Service::auto_probe_count`] — replay paths registering recorded
    /// shard counts bypass this method entirely and leave the counter
    /// untouched.
    pub fn add_document_auto_for(
        &self,
        tenant: TenantId,
        document: &NormalFormSlp<u8>,
    ) -> Result<DocumentId, QuotaError> {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        // Cheap gates first: ratio 0.0 is the most shard-friendly input
        // auto_k can see, so if even that says "monolithic" (single core,
        // small grammar) the probe split cannot change the answer — skip
        // the surgery entirely.
        if slp::shard::auto_k(document.size(), cores, 0.0) <= 1 {
            return self.add_document_for(tenant, document);
        }
        self.auto_probes.fetch_add(1, Ordering::Relaxed);
        let sharded = slp::shard::split(document, Self::probe_k(cores));
        let ratio = slp::shard::critical_ratio(&sharded, document.size());
        match slp::shard::auto_k(document.size(), cores, ratio) {
            0 | 1 => self.add_document_for(tenant, document),
            // The probe split *is* the split we want — reuse it instead of
            // cutting the grammar a second time.
            k if k == sharded.k() => self.add_owned(tenant, document.document_len(), || {
                PreparedDocument::sharded_precut(document, &sharded)
            }),
            k => self.add_document_sharded_for(tenant, document, k),
        }
    }

    /// Number of `auto_k` probe splits run by the auto registrations since
    /// the service was built.  A warm restart that replays recorded shard
    /// counts must leave this at zero — the whole point of persisting the
    /// tuned `k` values.
    pub fn auto_probe_count(&self) -> u64 {
        self.auto_probes.load(Ordering::Relaxed)
    }

    /// Shard count of the structural probe split behind the auto policy.
    fn probe_k(cores: usize) -> usize {
        cores.clamp(2, 8)
    }

    /// Sweeps the matrices a request inserted for a document that was
    /// removed *while the build was in flight*: `remove_document`'s
    /// `clear_doc` runs before such a build completes its insert, so
    /// without this re-check the entry would sit in the shared pool under
    /// a burned token forever (the token is never reissued and nothing
    /// would ever clear it again).  Whichever of this sweep and the
    /// removal's clear runs last sees the entry, so every interleaving
    /// ends with the pool clean.
    fn sweep_if_removed(&self, d: DocumentId, document: &PreparedDocument, lookup: &CacheLookup) {
        if !lookup.hit && self.try_document(d).is_none() {
            document.clear_cache();
        }
    }

    /// Registers an already prepared document, re-homing it (and any
    /// matrices it already built) onto the service's shared cache pool and
    /// onto the service-wide shard executor.  The document lands in the
    /// default tenant's namespace.
    pub fn add_prepared_document(&self, document: PreparedDocument) -> DocumentId {
        let bytes = document.document_len();
        self.charge(TenantId::DEFAULT, bytes)
            .expect("default tenant rejected a registration (quota configured on tenant 0)");
        self.register_owned(TenantId::DEFAULT, bytes, document)
    }

    /// [`Service::add_prepared_document`] into `tenant`'s namespace, with
    /// quota enforcement.
    pub fn add_prepared_document_for(
        &self,
        tenant: TenantId,
        document: PreparedDocument,
    ) -> Result<DocumentId, QuotaError> {
        let bytes = document.document_len();
        self.charge(tenant, bytes)?;
        Ok(self.register_owned(tenant, bytes, document))
    }

    /// Charges quota, then builds and registers the document.  The build
    /// runs only after the (cheap) quota check passed, so a rejected
    /// registration never pays document preparation.
    fn add_owned(
        &self,
        tenant: TenantId,
        bytes: u64,
        prepare: impl FnOnce() -> PreparedDocument,
    ) -> Result<DocumentId, QuotaError> {
        self.charge(tenant, bytes)?;
        Ok(self.register_owned(tenant, bytes, prepare()))
    }

    /// Atomically checks and reserves `bytes` + one document of `tenant`'s
    /// quota.
    fn charge(&self, tenant: TenantId, bytes: u64) -> Result<(), QuotaError> {
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        let state = tenants
            .get_mut(&tenant.0)
            .ok_or(QuotaError::UnknownTenant)?;
        let config = &state.config;
        if config.max_docs > 0 && state.usage.docs >= config.max_docs {
            return Err(QuotaError::Docs {
                limit: config.max_docs,
                used: state.usage.docs,
            });
        }
        if config.max_corpus_bytes > 0
            && state.usage.corpus_bytes.saturating_add(bytes) > config.max_corpus_bytes
        {
            return Err(QuotaError::CorpusBytes {
                limit: config.max_corpus_bytes,
                used: state.usage.corpus_bytes,
                requested: bytes,
            });
        }
        state.usage.docs += 1;
        state.usage.corpus_bytes += bytes;
        Ok(())
    }

    /// Registers a quota-charged document under its owning tenant.
    fn register_owned(
        &self,
        tenant: TenantId,
        bytes: u64,
        mut document: PreparedDocument,
    ) -> DocumentId {
        // Assign the cache-token mapping *before* re-homing: matrices the
        // document carries in are then accounted to the right tenant.
        self.cache.assign_doc_tenant(document.token(), tenant.0);
        document.rehome_cache(self.cache.clone());
        document.set_shard_executor(self.config.shard_executor.clone());
        let id = {
            let mut documents = self.documents.write().expect("document pool lock poisoned");
            documents.push(Some(Arc::new(document)));
            DocumentId(documents.len() - 1)
        };
        self.doc_owners
            .write()
            .expect("doc owner map poisoned")
            .insert(
                id.index(),
                DocOwner {
                    tenant: tenant.0,
                    bytes,
                },
            );
        id
    }

    /// Unregisters a document: its id stops resolving (subsequent requests
    /// panic via [`Service::document`] / are rejected via
    /// [`Service::try_document`]), and every matrix the document holds in
    /// the shared cache pool is invalidated through
    /// [`MatrixCache::clear_doc`] — other documents' residents are
    /// untouched.  In-flight evaluations holding `Arc`s complete
    /// unaffected.  Returns `false` if the id was never issued or already
    /// removed.
    pub fn remove_document(&self, d: DocumentId) -> bool {
        let removed = {
            let mut documents = self.documents.write().expect("document pool lock poisoned");
            match documents.get_mut(d.index()) {
                Some(slot) => slot.take(),
                None => None,
            }
        };
        match removed {
            Some(document) => {
                document.clear_cache();
                // Release the owning tenant's quota charge.
                if let Some(owner) = self
                    .doc_owners
                    .write()
                    .expect("doc owner map poisoned")
                    .remove(&d.index())
                {
                    let mut tenants = self.tenants.write().expect("tenant registry poisoned");
                    if let Some(state) = tenants.get_mut(&owner.tenant) {
                        state.usage.docs = state.usage.docs.saturating_sub(1);
                        state.usage.corpus_bytes =
                            state.usage.corpus_bytes.saturating_sub(owner.bytes);
                    }
                }
                true
            }
            None => false,
        }
    }

    /// Creates a tenant.  Returns `false` (changing nothing) if the id is
    /// already taken.  The tenant's cache share is pushed onto the shared
    /// matrix pool immediately.
    pub fn create_tenant(&self, id: TenantId, config: TenantConfig) -> bool {
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        if tenants.contains_key(&id.0) {
            return false;
        }
        self.cache.set_tenant_share(id.0, config.cache_share);
        tenants.insert(
            id.0,
            TenantState {
                config,
                usage: TenantUsage::default(),
            },
        );
        true
    }

    /// Replaces a tenant's configuration (usage is untouched; documents
    /// already over a tightened quota stay registered — only *new*
    /// registrations are checked).  Returns `false` for unknown tenants.
    pub fn update_tenant(&self, id: TenantId, config: TenantConfig) -> bool {
        let mut tenants = self.tenants.write().expect("tenant registry poisoned");
        let Some(state) = tenants.get_mut(&id.0) else {
            return false;
        };
        self.cache.set_tenant_share(id.0, config.cache_share);
        state.config = config;
        true
    }

    /// A tenant's configuration.
    pub fn tenant_config(&self, id: TenantId) -> Option<TenantConfig> {
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .get(&id.0)
            .map(|state| state.config.clone())
    }

    /// A tenant's live usage counters.
    pub fn tenant_usage(&self, id: TenantId) -> Option<TenantUsage> {
        self.tenants
            .read()
            .expect("tenant registry poisoned")
            .get(&id.0)
            .map(|state| state.usage)
    }

    /// All tenant ids, ascending (always contains the default tenant).
    pub fn tenant_ids(&self) -> Vec<TenantId> {
        let mut ids: Vec<TenantId> = self
            .tenants
            .read()
            .expect("tenant registry poisoned")
            .keys()
            .map(|&id| TenantId(id))
            .collect();
        ids.sort();
        ids
    }

    /// Matrix-cache bytes currently resident for a tenant's documents.
    pub fn tenant_cache_resident(&self, id: TenantId) -> usize {
        self.cache.resident_bytes_for_tenant(id.0)
    }

    /// The tenant owning a document id (`None` if the id was never issued
    /// or the document was removed).
    pub fn document_tenant(&self, d: DocumentId) -> Option<TenantId> {
        self.doc_owners
            .read()
            .expect("doc owner map poisoned")
            .get(&d.index())
            .map(|owner| TenantId(owner.tenant))
    }

    /// The prepared query behind an id.
    ///
    /// # Panics
    /// If `q` was not returned by this service's `add_query`/
    /// `add_prepared_query`.
    pub fn query(&self, q: QueryId) -> Arc<PreparedQuery> {
        self.queries.read().expect("query pool lock poisoned")[q.index()].clone()
    }

    /// The prepared document behind an id.
    ///
    /// # Panics
    /// If `d` was not returned by this service's `add_document`/
    /// `add_prepared_document`, or was removed via
    /// [`Service::remove_document`].
    pub fn document(&self, d: DocumentId) -> Arc<PreparedDocument> {
        self.try_document(d)
            .expect("document id unknown or removed")
    }

    /// The prepared document behind an id, or `None` if the id was never
    /// issued or the document was removed — the non-panicking lookup a
    /// front-end validating external ids should use.
    pub fn try_document(&self, d: DocumentId) -> Option<Arc<PreparedDocument>> {
        self.documents
            .read()
            .expect("document pool lock poisoned")
            .get(d.index())
            .and_then(|slot| slot.clone())
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.read().expect("query pool lock poisoned").len()
    }

    /// Number of registered documents still resolving (removed documents
    /// no longer count; their ids stay burned).
    pub fn num_documents(&self) -> usize {
        self.documents
            .read()
            .expect("document pool lock poisoned")
            .iter()
            .filter(|slot| slot.is_some())
            .count()
    }

    /// Serves one request: fetches (or builds) the pair's matrices, answers
    /// the task, and reports what it cost.  Takes `&self` — see the module
    /// docs for the concurrency contract.
    ///
    /// # Errors
    /// [`EvalError::NondeterministicAutomaton`] for [`Task::Count`] /
    /// [`Task::Enumerate`] on a non-deterministic query (only possible with
    /// [`ServiceBuilder::determinize`]`(false)`),
    /// [`EvalError::DocumentRemoved`] when the document was removed — even
    /// concurrently, so a front-end racing [`Service::remove_document`]
    /// gets a structured error, never a panic — and any error of the
    /// model-checking algorithm (e.g. out-of-bounds tuples).
    ///
    /// # Panics
    /// If the request names a query id not issued by this service.
    pub fn run(&self, request: &TaskRequest) -> Result<TaskResponse, EvalError> {
        self.run_traced(request, None)
    }

    /// [`Service::run`] for a *sampled* request: spans for the cache
    /// lookup (with the matrix build and any per-shard executor fragments
    /// grafted beneath it on a miss) and the task execution are recorded
    /// into `tracer`.  `None` is exactly [`Service::run`]; the unsampled
    /// path allocates nothing here.
    pub fn run_traced(
        &self,
        request: &TaskRequest,
        tracer: Option<&Tracer>,
    ) -> Result<TaskResponse, EvalError> {
        let query = self.query(request.query);
        let document = self
            .try_document(request.doc)
            .ok_or(EvalError::DocumentRemoved)?;

        // Model checking never builds the pair matrices (or evicts a hot
        // pair) for itself: on resident matrices it walks only the marked
        // spine, otherwise it splices the original SLP (Theorem 5.1(2)).
        // Either way its stats report zero cache traffic, and the peek
        // leaves LRU recency alone.
        if let Task::ModelCheck(tuple) = &request.task {
            self.counters.commit(&request.task, None);
            let exec_from = tracer.map(|t| t.now_us());
            let start = Instant::now();
            let verdict = match document.cached_matrices(&query) {
                Some(pre) => model_check::check_on_matrices(&pre, tuple)?,
                None => model_check::check(query.automaton(), document.original(), tuple)?,
            };
            let task_time = start.elapsed();
            if let Some(t) = tracer {
                t.record(
                    "task_exec",
                    exec_from.unwrap_or(0),
                    task_time.as_micros() as u64,
                    None,
                    &[("kind", request.task.kind_name().to_string())],
                );
            }
            return Ok(TaskResponse {
                outcome: TaskOutcome::Checked(verdict),
                stats: RequestStats {
                    cache_hit: false,
                    matrix_build: Duration::ZERO,
                    matrix_bytes: 0,
                    task_time,
                    results: 0,
                },
                shard_stats: None,
            });
        }

        // Reject tasks whose duplicate-freeness needs determinism (Lemma
        // 8.8) *before* paying the matrix build — an erroring request must
        // not spend `O(size(S)·q³)` or evict a hot pair from the cache.
        if matches!(request.task, Task::Count | Task::Enumerate { .. }) && !query.is_deterministic()
        {
            self.counters.commit(&request.task, None);
            return Err(EvalError::NondeterministicAutomaton);
        }

        let lookup_from = tracer.map(|t| t.now_us());
        let (pre, lookup) = document.matrices_traced(&query, tracer.map(|t| t.shard_trace()));
        if let Some(t) = tracer {
            self.trace_lookup(t, lookup_from.unwrap_or(0), &lookup);
        }
        self.counters.commit(&request.task, Some(&lookup));
        self.sweep_if_removed(request.doc, &document, &lookup);

        let exec_from = tracer.map(|t| t.now_us());
        let start = Instant::now();
        let outcome = match &request.task {
            Task::NonEmptiness => TaskOutcome::NonEmpty(!pre.reachable_accepting().is_empty()),
            Task::ModelCheck(_) => unreachable!("handled above"),
            Task::Count => TaskOutcome::Count(count::count_from_matrices(&pre)),
            Task::Compute { limit } => {
                TaskOutcome::Tuples(compute::compute_prefix_from_matrices(&pre, *limit))
            }
            Task::Enumerate { skip, limit } => {
                let iter = enumerate::Enumeration::from_matrices(&pre).skip(*skip);
                let tuples: Vec<SpanTuple> = match *limit {
                    Some(limit) => iter.take(limit).collect(),
                    None => iter.collect(),
                };
                TaskOutcome::Tuples(tuples)
            }
        };
        let task_time = start.elapsed();
        let results = outcome.tuples().map_or(0, |t| t.len() as u64);
        if let Some(t) = tracer {
            t.record(
                "task_exec",
                exec_from.unwrap_or(0),
                task_time.as_micros() as u64,
                None,
                &[
                    ("kind", request.task.kind_name().to_string()),
                    ("results", results.to_string()),
                ],
            );
        }
        Ok(TaskResponse {
            outcome,
            stats: RequestStats {
                cache_hit: lookup.hit,
                matrix_build: lookup.build_time,
                matrix_bytes: lookup.bytes,
                task_time,
                results,
            },
            shard_stats: lookup.shard_stats,
        })
    }

    /// Records the cache-lookup span of a sampled request, with the matrix
    /// build (and the sharded build's executor fragment, already in the
    /// request timebase) grafted beneath it on a miss.
    fn trace_lookup(&self, tracer: &Tracer, from_us: u64, lookup: &CacheLookup) {
        let dur = tracer.now_us().saturating_sub(from_us);
        let span = tracer.record(
            "cache_lookup",
            from_us,
            dur,
            None,
            &[
                ("hit", lookup.hit.to_string()),
                ("bytes", lookup.bytes.to_string()),
            ],
        );
        if !lookup.hit {
            let build_us = lookup.build_time.as_micros() as u64;
            let build = tracer.record(
                "matrix_build",
                (from_us + dur).saturating_sub(build_us),
                build_us,
                Some(span),
                &[],
            );
            if let Some(stats) = &lookup.shard_stats {
                tracer.graft(&stats.spans, Some(build), 0);
            }
        }
    }

    /// Serves a batch of requests one after another, on the calling
    /// thread.  Responses are in request order.  Requests sharing a
    /// (query, document) pair share its matrices: the first builds them,
    /// the rest hit the cache.
    pub fn run_batch(&self, requests: &[TaskRequest]) -> Vec<Result<TaskResponse, EvalError>> {
        requests.iter().map(|request| self.run(request)).collect()
    }

    /// Serves one [`Task::Enumerate`] request *streamed*: results are
    /// handed to `emit` in pages of at most `page_size` tuples as the
    /// enumeration produces them, so a consumer (e.g. a network transport
    /// flushing each page) observes the paper's per-result delay rather
    /// than the total evaluation time.  `emit` returning `false` stops the
    /// enumeration early (a gone client must not keep paying for results).
    ///
    /// The returned response carries an **empty** tuple vector — the tuples
    /// went through `emit` — with `stats.results` counting what was
    /// actually streamed.  Any other task kind is delegated to
    /// [`Service::run`] unchanged, so callers can route every request
    /// through this entry point.
    ///
    /// # Errors / Panics
    /// As for [`Service::run`].
    pub fn run_paged(
        &self,
        request: &TaskRequest,
        page_size: usize,
        emit: &mut dyn FnMut(Vec<SpanTuple>) -> bool,
    ) -> Result<TaskResponse, EvalError> {
        self.run_paged_traced(request, page_size, emit, None)
    }

    /// [`Service::run_paged`] for a *sampled* request: like
    /// [`Service::run_traced`], plus one `enumerate_page` span per emitted
    /// page under the task-execution span — the per-page delay the paper's
    /// enumeration guarantee bounds, made visible.
    pub fn run_paged_traced(
        &self,
        request: &TaskRequest,
        page_size: usize,
        emit: &mut dyn FnMut(Vec<SpanTuple>) -> bool,
        tracer: Option<&Tracer>,
    ) -> Result<TaskResponse, EvalError> {
        let Task::Enumerate { skip, limit } = request.task else {
            return self.run_traced(request, tracer);
        };
        let query = self.query(request.query);
        let document = self
            .try_document(request.doc)
            .ok_or(EvalError::DocumentRemoved)?;
        if !query.is_deterministic() {
            self.counters.commit(&request.task, None);
            return Err(EvalError::NondeterministicAutomaton);
        }
        let lookup_from = tracer.map(|t| t.now_us());
        let (pre, lookup) = document.matrices_traced(&query, tracer.map(|t| t.shard_trace()));
        if let Some(t) = tracer {
            self.trace_lookup(t, lookup_from.unwrap_or(0), &lookup);
        }
        self.counters.commit(&request.task, Some(&lookup));
        self.sweep_if_removed(request.doc, &document, &lookup);

        let exec_from = tracer.map(|t| t.now_us());
        let start = Instant::now();
        let page_size = page_size.max(1);
        let cap = limit.unwrap_or(usize::MAX);
        let mut streamed: usize = 0;
        let mut page = Vec::with_capacity(page_size);
        let mut page_from = exec_from.unwrap_or(0);
        let mut pages = 0u64;
        let mut emit_page = |page: Vec<SpanTuple>, page_from: &mut u64, pages: &mut u64| {
            let tuples = page.len();
            let keep_going = emit(page);
            if let Some(t) = tracer {
                let now = t.now_us();
                t.record(
                    "enumerate_page",
                    *page_from,
                    now.saturating_sub(*page_from),
                    None,
                    &[("page", pages.to_string()), ("tuples", tuples.to_string())],
                );
                *page_from = now;
            }
            *pages += 1;
            keep_going
        };
        let mut iter = enumerate::Enumeration::from_matrices(&pre).skip(skip);
        while streamed < cap {
            let Some(tuple) = iter.next() else { break };
            page.push(tuple);
            streamed += 1;
            if page.len() == page_size
                && !emit_page(
                    std::mem::replace(&mut page, Vec::with_capacity(page_size)),
                    &mut page_from,
                    &mut pages,
                )
            {
                page.clear();
                break;
            }
        }
        if !page.is_empty() {
            emit_page(page, &mut page_from, &mut pages);
        }
        let task_time = start.elapsed();
        if let Some(t) = tracer {
            t.record(
                "task_exec",
                exec_from.unwrap_or(0),
                task_time.as_micros() as u64,
                None,
                &[
                    ("kind", request.task.kind_name().to_string()),
                    ("results", streamed.to_string()),
                    ("pages", pages.to_string()),
                ],
            );
        }
        Ok(TaskResponse {
            outcome: TaskOutcome::Tuples(Vec::new()),
            stats: RequestStats {
                cache_hit: lookup.hit,
                matrix_build: lookup.build_time,
                matrix_bytes: lookup.bytes,
                task_time,
                results: streamed as u64,
            },
            shard_stats: lookup.shard_stats,
        })
    }

    /// A snapshot of the aggregate counters (requests by task kind, cache
    /// traffic, plus the shared cache pool's eviction and residency
    /// totals).  Request-atomic under concurrency — see [`ServiceStats`].
    pub fn stats(&self) -> ServiceStats {
        let (requests, by_task, cache_hits, cache_misses) = self.counters.snapshot();
        let cache = self.cache.stats();
        ServiceStats {
            requests,
            by_task,
            cache_hits,
            cache_misses,
            evictions: cache.evictions,
            resident_bytes: cache.resident_bytes,
            resident_entries: cache.resident_entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SlpSpanner;
    use slp::compress::{Bisection, Compressor};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::regex;
    use std::collections::BTreeSet;

    fn assert_sync<T: Send + Sync>() {}

    #[test]
    fn service_is_send_and_sync() {
        assert_sync::<Service>();
    }

    #[test]
    fn all_tasks_match_the_facade() {
        let service = Service::new();
        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let doc = Bisection.compress(b"aabbaabb");
        let q = service.add_query(&m);
        let d = service.add_document(&doc);
        let fresh = SlpSpanner::new(&m, &doc).unwrap();
        let run = |task: Task| {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task,
                })
                .unwrap()
        };

        assert_eq!(
            run(Task::NonEmptiness).outcome.as_bool(),
            Some(fresh.is_non_empty())
        );
        assert_eq!(run(Task::Count).outcome.as_count(), Some(fresh.count()));
        let all: BTreeSet<SpanTuple> = fresh.compute().into_iter().collect();
        let computed = run(Task::Compute { limit: None });
        assert_eq!(
            computed
                .outcome
                .tuples()
                .unwrap()
                .iter()
                .cloned()
                .collect::<BTreeSet<_>>(),
            all
        );
        assert_eq!(computed.stats.results as usize, all.len());
        let tuple = fresh.compute().remove(0);
        assert_eq!(
            run(Task::ModelCheck(tuple)).outcome.as_bool(),
            Some(true),
            "computed tuples model-check"
        );
        let enumerated = run(Task::Enumerate {
            skip: 0,
            limit: None,
        });
        assert_eq!(
            enumerated
                .outcome
                .into_tuples()
                .unwrap()
                .into_iter()
                .collect::<BTreeSet<_>>(),
            all
        );
    }

    #[test]
    fn tenant_quotas_reject_with_structured_errors_and_release_on_remove() {
        let service = Service::new();
        let t = TenantId(4);
        assert!(service.create_tenant(
            t,
            TenantConfig {
                name: "acme".into(),
                max_docs: 2,
                max_corpus_bytes: 40,
                ..TenantConfig::default()
            }
        ));
        assert!(
            !service.create_tenant(t, TenantConfig::default()),
            "duplicate id"
        );

        let doc = families::power_word(b"ab", 8); // 16 bytes
        let a = service.add_document_for(t, &doc).unwrap();
        let _b = service.add_document_for(t, &doc).unwrap();
        assert_eq!(
            service.tenant_usage(t).unwrap(),
            TenantUsage {
                docs: 2,
                corpus_bytes: 32
            }
        );
        // Doc-count quota hits first.
        assert_eq!(
            service.add_document_for(t, &doc),
            Err(QuotaError::Docs { limit: 2, used: 2 })
        );
        // Removing releases both quota dimensions.
        assert!(service.remove_document(a));
        assert_eq!(
            service.tenant_usage(t).unwrap(),
            TenantUsage {
                docs: 1,
                corpus_bytes: 16
            }
        );
        // Now the byte quota rejects a too-large document (16 + 32 > 40).
        let big = families::power_word(b"ab", 16); // 32 bytes
        assert_eq!(
            service.add_document_for(t, &big),
            Err(QuotaError::CorpusBytes {
                limit: 40,
                used: 16,
                requested: 32
            })
        );
        // Unknown tenants are a structured error too.
        assert_eq!(
            service.add_document_for(TenantId(99), &doc),
            Err(QuotaError::UnknownTenant)
        );
        // The default tenant is unlimited and untouched by all of this.
        let d = service.add_document(&doc);
        assert_eq!(service.document_tenant(d), Some(TenantId::DEFAULT));
        assert_eq!(service.tenant_usage(TenantId::DEFAULT).unwrap().docs, 1);
    }

    #[test]
    fn auto_probe_counter_tracks_probe_splits_only() {
        let service = Service::new();
        // A recorded-k registration must never probe.
        let doc = families::power_word(b"ab", 4096);
        service.add_document_sharded(&doc, 4);
        service.add_document(&doc);
        assert_eq!(service.auto_probe_count(), 0);
        // The auto path may or may not probe depending on the host's core
        // count; on multi-core hosts a large block document probes once.
        let blocks: Vec<u8> = (0..64u32)
            .flat_map(|i| {
                let b = [b'a', b'b', b'c', b'd'][(i % 4) as usize];
                std::iter::repeat_n(b, 64)
            })
            .collect();
        let block_doc = slp::compress::Compressor::compress(&Bisection, &blocks);
        let before = service.auto_probe_count();
        service.add_document_auto(&block_doc);
        let after = service.auto_probe_count();
        assert!(after == before || after == before + 1);
    }

    #[test]
    fn enumerate_windows_partition_the_relation() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d = service.add_document(&families::power_word(b"ab", 100));
        let mut seen = Vec::new();
        for window in 0..4 {
            let response = service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Enumerate {
                        skip: window * 30,
                        limit: Some(30),
                    },
                })
                .unwrap();
            seen.extend(response.outcome.into_tuples().unwrap());
        }
        // 100 results in windows of 30: 30 + 30 + 30 + 10.
        assert_eq!(seen.len(), 100);
        assert_eq!(seen.iter().collect::<BTreeSet<_>>().len(), 100);
    }

    #[test]
    fn compute_limit_trims_the_response() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d = service.add_document(&families::power_word(b"ab", 64));
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Compute { limit: Some(5) },
            })
            .unwrap();
        assert_eq!(response.stats.results, 5);
        // The capped pass returns exactly the uncapped answer's prefix.
        let full = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Compute { limit: None },
            })
            .unwrap();
        assert_eq!(
            response.outcome.tuples().unwrap(),
            &full.outcome.tuples().unwrap()[..5]
        );
    }

    #[test]
    fn request_stats_track_cache_traffic() {
        let service = Service::new();
        let q = service.add_query(&figure_2_spanner());
        let d = service.add_document(&Bisection.compress(b"aabccaabaa"));
        let request = TaskRequest {
            query: q,
            doc: d,
            task: Task::NonEmptiness,
        };
        let first = service.run(&request).unwrap();
        assert!(!first.stats.cache_hit);
        assert!(first.stats.matrix_bytes > 0);
        let second = service.run(&request).unwrap();
        assert!(second.stats.cache_hit);
        assert_eq!(second.stats.matrix_build, Duration::ZERO);
        let stats = service.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!((stats.cache_hits, stats.cache_misses), (1, 1));
        assert_eq!(stats.resident_bytes, first.stats.matrix_bytes);
    }

    #[test]
    fn stats_break_requests_down_by_task_kind() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d = service.add_document(&families::power_word(b"ab", 32));
        let run = |task: Task| {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task,
                })
                .unwrap()
        };
        run(Task::NonEmptiness);
        run(Task::Count);
        run(Task::Count);
        let tuple = run(Task::Compute { limit: Some(1) })
            .outcome
            .into_tuples()
            .unwrap()
            .remove(0);
        run(Task::ModelCheck(tuple));
        run(Task::Enumerate {
            skip: 0,
            limit: Some(3),
        });
        let stats = service.stats();
        assert_eq!(
            stats.by_task,
            TaskKindCounts {
                non_emptiness: 1,
                model_check: 1,
                count: 2,
                compute: 1,
                enumerate: 1,
            }
        );
        assert_eq!(stats.requests, stats.by_task.total());
    }

    #[test]
    fn stats_snapshot_is_request_atomic_under_run_batch() {
        // Hammer stats() while a batch runs; every snapshot must be
        // internally consistent: the per-kind counts always sum to the
        // request total (a half-committed request would break this).
        let service = Arc::new(Service::new());
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d = service.add_document(&families::power_word(b"ab", 256));
        let requests: Vec<TaskRequest> = (0..64)
            .map(|i| TaskRequest {
                query: q,
                doc: d,
                task: if i % 2 == 0 {
                    Task::Count
                } else {
                    Task::NonEmptiness
                },
            })
            .collect();
        std::thread::scope(|scope| {
            let svc = service.clone();
            let batch = scope.spawn(move || svc.run_batch(&requests));
            for _ in 0..200 {
                let stats = service.stats();
                assert_eq!(
                    stats.requests,
                    stats.by_task.total(),
                    "snapshot caught a half-committed request"
                );
            }
            for response in batch.join().unwrap() {
                response.unwrap();
            }
        });
        let stats = service.stats();
        assert_eq!(stats.requests, 64);
        assert_eq!(stats.by_task.count, 32);
        assert_eq!(stats.by_task.non_emptiness, 32);
    }

    #[test]
    fn run_paged_streams_the_same_tuples_as_run() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d = service.add_document(&families::power_word(b"ab", 100));
        let request = TaskRequest {
            query: q,
            doc: d,
            task: Task::Enumerate {
                skip: 5,
                limit: Some(50),
            },
        };
        let direct = service.run(&request).unwrap();
        let mut pages = 0;
        let mut streamed = Vec::new();
        let response = service
            .run_paged(&request, 8, &mut |page| {
                assert!(page.len() <= 8);
                pages += 1;
                streamed.extend(page);
                true
            })
            .unwrap();
        assert_eq!(streamed, direct.outcome.into_tuples().unwrap());
        assert_eq!(pages, 7, "50 results in pages of 8: 6 full + 1 short");
        assert_eq!(response.stats.results, 50);
        assert!(response.outcome.tuples().unwrap().is_empty());
        // Early stop: the consumer cancels after the first page.
        let mut first_pages = 0;
        let cancelled = service
            .run_paged(&request, 8, &mut |_| {
                first_pages += 1;
                false
            })
            .unwrap();
        assert_eq!(first_pages, 1);
        assert_eq!(cancelled.stats.results, 8);
        // Non-enumerate tasks delegate to run().
        let count = service
            .run_paged(
                &TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                },
                8,
                &mut |_| panic!("count must not stream"),
            )
            .unwrap();
        assert_eq!(count.outcome.as_count(), Some(100));
    }

    #[test]
    fn add_document_auto_matches_the_monolithic_results() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        // The shard count a 16-core host would pick, whatever this host has.
        let advice_on_16_cores = |doc: &slp::NormalFormSlp<u8>| {
            let ratio = slp::shard::critical_ratio(&slp::shard::split(doc, 8), doc.size());
            slp::shard::auto_k(doc.size(), 16, ratio)
        };
        // A power family is exponentially shared: auto keeps it monolithic
        // on any core count.
        let power = families::power_word(b"ab", 1 << 16);
        assert_eq!(advice_on_16_cores(&power), 1);
        let d_auto = service.add_document_auto(&power);
        assert!(!service.document(d_auto).is_sharded());
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d_auto,
                task: Task::Count,
            })
            .unwrap();
        assert_eq!(response.outcome.as_count(), Some(1 << 16));
        // A low-repetitiveness block document partitions: with enough cores
        // the auto policy shards it, and the results are unchanged.
        let mut state = 0x9E37_79B9u64;
        let block: Vec<u8> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                b'a' + ((state >> 33) % 2) as u8
            })
            .collect();
        let slp = slp::NormalFormSlp::from_document(&block).unwrap();
        assert!(advice_on_16_cores(&slp) > 1);
        let d_block = service.add_document_auto(&slp);
        let reference =
            SlpSpanner::new(&regex::compile(".*x{ab}.*", b"ab").unwrap(), &slp).unwrap();
        let counted = service
            .run(&TaskRequest {
                query: q,
                doc: d_block,
                task: Task::Count,
            })
            .unwrap();
        assert_eq!(counted.outcome.as_count(), Some(reference.count()));
    }

    #[test]
    fn run_batch_matches_run_in_request_order() {
        let service = Service::new();
        let q1 = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let q2 = service.add_query(&regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap());
        let docs = [
            Bisection.compress(b"aabbaabbab"),
            families::power_word(b"ab", 64),
        ];
        let dids: Vec<DocumentId> = docs.iter().map(|d| service.add_document(d)).collect();
        let mut requests = Vec::new();
        for &q in &[q1, q2] {
            for &d in &dids {
                requests.push(TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                });
                requests.push(TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Compute { limit: None },
                });
            }
        }
        let batch = service.run_batch(&requests);
        assert_eq!(batch.len(), requests.len());
        for (request, response) in requests.iter().zip(batch) {
            let serial = service.run(request).unwrap();
            assert_eq!(response.unwrap().outcome, serial.outcome);
        }
    }

    #[test]
    fn nondeterministic_policy_gates_the_duplicate_free_tasks() {
        let service = Service::builder().determinize(false).build();
        let nondet = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!nondet.is_deterministic());
        let q = service.add_query(&nondet);
        let d = service.add_document(&Bisection.compress(b"abab"));
        assert!(!service.query(q).is_deterministic());
        let err = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            })
            .unwrap_err();
        assert_eq!(err, EvalError::NondeterministicAutomaton);
        assert_eq!(
            service.document(d).cached_query_count(),
            0,
            "a rejected request must not pay the matrix build"
        );
        // Non-emptiness and compute still work (duplicates eliminated by ⪯).
        let compute = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Compute { limit: None },
            })
            .unwrap();
        let det = SlpSpanner::new(&nondet, &Bisection.compress(b"abab")).unwrap();
        assert_eq!(
            compute.stats.results as usize,
            det.compute().len(),
            "compute is duplicate-free even without determinisation"
        );
    }

    #[test]
    fn model_check_requests_skip_the_matrix_cache() {
        let service = Service::new();
        let q = service.add_query(&figure_2_spanner());
        let d = service.add_document(&Bisection.compress(b"aabccaabaa"));
        let tuple = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Compute { limit: None },
            })
            .unwrap()
            .outcome
            .into_tuples()
            .unwrap()
            .remove(0);
        service.document(d).clear_cache();
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::ModelCheck(tuple),
            })
            .unwrap();
        assert_eq!(response.outcome.as_bool(), Some(true));
        // No matrices were built or reported for the check.
        assert!(!response.stats.cache_hit);
        assert_eq!(response.stats.matrix_bytes, 0);
        assert_eq!(
            service.document(d).cached_query_count(),
            0,
            "model checking must not populate the cache"
        );
    }

    #[test]
    fn warm_counts_and_model_checks_answer_from_the_resident_pair() {
        let service = Service::new();
        let q = service.add_query(&figure_2_spanner());
        let d = service.add_document(&Bisection.compress(b"aabccaabaa"));
        let run = |task| {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task,
                })
                .unwrap()
        };
        let first = run(Task::Count);
        let pre = service
            .document(d)
            .cached_matrices(&service.query(q))
            .expect("the count made the pair resident");
        assert_eq!(pre.memo().count.get().copied(), first.outcome.as_count());
        let second = run(Task::Count);
        assert!(second.stats.cache_hit);
        assert_eq!(second.outcome, first.outcome);

        // A model check on the resident pair walks its matrices: the
        // unmarked rows get filled, and no cache traffic is counted.
        let before = service.stats();
        assert!(pre.memo().unmarked.get().is_none());
        let mut tuple = SpanTuple::empty(2);
        tuple.set(spanner::Variable(1), spanner::Span::new(4, 6).unwrap());
        let checked = run(Task::ModelCheck(tuple));
        assert_eq!(checked.outcome.as_bool(), Some(true));
        assert!(!checked.stats.cache_hit);
        assert_eq!(checked.stats.matrix_bytes, 0);
        assert!(pre.memo().unmarked.get().is_some());
        let after = service.stats();
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses)
        );
    }

    #[test]
    fn racing_first_counts_on_one_pair_agree() {
        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let slp = Bisection.compress(&b"aabbbabaabbbbaaab".repeat(40));
        let expected = SlpSpanner::new(&m, &slp).unwrap().count();
        let service = Service::new();
        let q = service.add_query(&m);
        let d = service.add_document(&slp);
        let request = |task| TaskRequest {
            query: q,
            doc: d,
            task,
        };
        // Resident first, so the threads race the count memo itself.
        service.run(&request(Task::NonEmptiness)).unwrap();
        let barrier = std::sync::Barrier::new(8);
        let counts: Vec<Option<u128>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        service
                            .run(&request(Task::Count))
                            .unwrap()
                            .outcome
                            .as_count()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(counts, vec![Some(expected); 8]);
        let pre = service
            .document(d)
            .cached_matrices(&service.query(q))
            .unwrap();
        assert_eq!(pre.memo().count.get().copied(), Some(expected));
    }

    #[test]
    fn run_batch_prebuilds_duplicated_cold_pairs_once() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d = service.add_document(&families::power_word(b"ab", 64));
        let requests = vec![
            TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            };
            6
        ];
        let batch = service.run_batch(&requests);
        for (i, response) in batch.into_iter().enumerate() {
            let response = response.unwrap();
            assert_eq!(response.outcome.as_count(), Some(64));
            // The first request builds the pair; every later one hits.
            assert_eq!(response.stats.cache_hit, i > 0, "request {i}");
        }
        assert_eq!(service.document(d).cache_stats().misses, 1);
    }

    #[test]
    fn re_registering_a_cloned_document_leaves_the_source_service_warm() {
        let source = Service::new();
        let q = source.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let x = source.add_document(&families::power_word(b"ab", 64));
        let y = source.add_document(&families::power_word(b"ab", 32));
        for &d in &[x, y] {
            source
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                })
                .unwrap();
        }
        let warm_bytes = source.stats().resident_bytes;

        // Clone document x out of the source service and register it in a
        // second one: the source pool — including document y — must stay
        // fully resident, and the clone's matrices follow it for free.
        let second = Service::new();
        let x2 = second.add_prepared_document((*source.document(x)).clone());
        assert_eq!(source.stats().resident_bytes, warm_bytes);
        assert_eq!(source.document(x).cached_query_count(), 1);
        assert_eq!(source.document(y).cached_query_count(), 1);
        let q2 = second.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        assert_eq!(
            second.document(x2).cached_query_count(),
            1,
            "the already built matrices followed the clone"
        );
        // (q2 is a fresh token, so its first request still builds.)
        let response = second
            .run(&TaskRequest {
                query: q2,
                doc: x2,
                task: Task::Count,
            })
            .unwrap();
        assert_eq!(response.outcome.as_count(), Some(64));
    }

    #[test]
    fn remove_document_burns_the_id_and_clears_only_its_matrices() {
        let service = Service::new();
        let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
        let d1 = service.add_document(&families::power_word(b"ab", 32));
        let d2 = service.add_document(&families::power_word(b"ab", 64));
        for &d in &[d1, d2] {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                })
                .unwrap();
        }
        assert_eq!(service.stats().resident_entries, 2);
        assert_eq!(service.num_documents(), 2);

        assert!(service.remove_document(d1));
        assert!(!service.remove_document(d1), "removal is idempotent-false");
        assert!(service.try_document(d1).is_none());
        assert!(service.try_document(d2).is_some());
        assert_eq!(service.num_documents(), 1);
        assert_eq!(
            service.stats().resident_entries,
            1,
            "only the removed document's matrices were invalidated"
        );

        // The survivor stays warm; new registrations get fresh ids.
        let warm = service
            .run(&TaskRequest {
                query: q,
                doc: d2,
                task: Task::Count,
            })
            .unwrap();
        assert!(warm.stats.cache_hit);
        let d3 = service.add_document(&families::power_word(b"ab", 16));
        assert_ne!(d3.index(), d1.index(), "burned ids are not reissued");

        // Requests racing the removal draw a structured error, not a
        // panic — a front-end validating ids before dispatch can still
        // lose the race and must survive it.
        for task in [Task::Count, Task::ModelCheck(spanner::SpanTuple::empty(1))] {
            assert_eq!(
                service
                    .run(&TaskRequest {
                        query: q,
                        doc: d1,
                        task,
                    })
                    .unwrap_err(),
                EvalError::DocumentRemoved
            );
        }
        assert_eq!(
            service
                .run_paged(
                    &TaskRequest {
                        query: q,
                        doc: d1,
                        task: Task::Enumerate {
                            skip: 0,
                            limit: None,
                        },
                    },
                    8,
                    &mut |_| panic!("removed documents must not stream"),
                )
                .unwrap_err(),
            EvalError::DocumentRemoved
        );
    }

    #[test]
    fn cache_budget_bounds_resident_bytes() {
        let probe = {
            let service = Service::new();
            let q = service.add_query(&regex::compile(".*x{ab}.*", b"ab").unwrap());
            let d = service.add_document(&families::power_word(b"ab", 64));
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::NonEmptiness,
                })
                .unwrap()
                .stats
                .matrix_bytes
        };
        // Budget for roughly two (similar) matrix sets per document.
        let service = Service::builder().cache_budget(probe * 5 / 2).build();
        let queries = [
            ".*x{ab}.*",
            ".*x{a+}y{b+}.*",
            "(a|b)*x{abb?}(a|b)*",
            ".*x{ba}.*",
        ];
        let qids: Vec<QueryId> = queries
            .iter()
            .map(|p| service.add_query(&regex::compile(p, b"ab").unwrap()))
            .collect();
        let d = service.add_document(&families::power_word(b"ab", 64));
        for &q in &qids {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                })
                .unwrap();
            assert!(service.stats().resident_bytes <= probe * 5 / 2);
        }
        let stats = service.stats();
        assert!(stats.evictions > 0, "four queries cannot all stay resident");
        assert_eq!(service.document(d).cache_budget(), Some(probe * 5 / 2));
    }
}

//! The long-running TCP server: accept loop, per-connection workers,
//! permit-based admission, streaming enumeration and graceful drain.
//!
//! ## Threading model
//!
//! One accept-loop thread plus one reader thread per live connection, plus
//! a fixed pool of [`ServerConfig::scheduler_workers`] dispatcher threads
//! draining the QoS scheduler.  A frame without a request id (`"rid"`) is
//! answered lock-step, in order; a frame *with* an id may complete out of
//! order, its response carrying the id back.  Any number of requests
//! evaluate concurrently over the one shared [`Service`] — that is exactly
//! the service layer's `&self` contract, so the server adds **no** locking
//! around evaluation; per-connection response writes serialize on one
//! writer mutex (whole frames only, so streams interleave per page, never
//! mid-frame).
//!
//! ## Admission control
//!
//! Every work-bearing frame — tasks, registrations, tenant operations and
//! a worker's `shard_build` — holds one of
//! [`ServerConfig::scheduler_workers`] execution permits while it runs.
//! When a permit is free that no queued frame is waiting for, the frame
//! runs right on its reader thread: an idle server pays no dispatcher
//! hop, and inline work never delays queued work.  Otherwise it waits in
//! its bounded (cost class, tenant) queue until a dispatcher takes it with
//! a freed permit, in weighted-fair order.  A queued
//! lock-step frame holds its reader until its reply is written, so
//! lock-step replies stay in order.  An id-carrying expensive task always
//! queues, so a scan never blocks a pipelined connection's reader.  A full
//! queue answers [`ErrorCode::Busy`] at once — the connection is never
//! dropped and the client owns the retry policy.  `ping`/`stats` are always
//! admitted (an operator must be able to observe an overloaded server), and
//! `shutdown` is always admitted so an overload can be drained away.
//!
//! ## Pipelining and the QoS scheduler (v3)
//!
//! Each connection may have up to [`ServerConfig::pipeline_window`]
//! id-carrying frames in flight; past the window the reader thread stops
//! reading, which surfaces to the client as TCP backpressure rather than
//! an error.  The scheduler serves its queues by stride-based weighted fair
//! queueing: a queue's weight is the tenant's admission weight times the
//! class weight (cheap matrix-lookup tasks get [`TaskClass::weight`] = 8×
//! the share of document-walking scans; registrations and `shard_build`
//! count as expensive), so a burst of Enumerate scans can no longer starve
//! ModelCheck point lookups.  A frame may carry a deadline budget (`"dl"`,
//! µs from receipt); work still queued when its budget lapses is shed with
//! [`ErrorCode::Expired`] instead of being executed late.  Queue time is
//! visible as a `queue_wait` span on sampled traces and as
//! `spanner_queue_depth`/`spanner_shed_total` scrape lines.
//!
//! ## Framing
//!
//! Newline-delimited frames with a hard length cap
//! ([`ServerConfig::max_frame_len`]).  A frame that does not parse draws
//! [`ErrorCode::Malformed`]; a frame that exceeds the cap is discarded up
//! to the next newline (the server never buffers more than the cap) and
//! draws [`ErrorCode::Oversized`].  Both leave the connection usable.
//!
//! ## Streaming enumeration
//!
//! `enumerate` responses are written as a stream of `page` frames, each
//! flushed as soon as the underlying [`Service::run_paged`] hands it over —
//! the client sees the paper's constant-delay behaviour on the wire, not
//! one response after the total evaluation time.
//!
//! ## Graceful shutdown
//!
//! The `shutdown` verb (or [`Server::request_shutdown`]) flips a flag: the
//! accept loop stops accepting, in-flight requests run to completion and
//! their responses are written, idle connections are closed at the next
//! poll tick, and new requests on surviving connections draw
//! [`ErrorCode::ShuttingDown`].  [`Server::join`] returns only after every
//! worker has exited — a clean drain, never a mid-response cut.
//!
//! ## Tenancy
//!
//! Documents live in per-tenant namespaces: each tenant has its own wire
//! id space, and an id never resolves in another tenant's namespace (a
//! frame carrying the wrong tenant draws [`ErrorCode::UnknownId`], exactly
//! as if the document did not exist).  Quota violations draw the
//! structured [`ErrorCode::Quota`] — an admission decision, distinct from
//! the transient [`ErrorCode::Busy`].  Admission itself is weighted: under
//! backlog, a tenant's queues are served in proportion to its admission
//! weight (the WFQ key's weight is `w_t ×` the class weight), so one
//! tenant's flood cannot starve another's interactive traffic
//! (`ping`/`stats`/`shutdown` stay exempt, as ever).
//!
//! ## Persistence
//!
//! With a [`Store`] attached (see [`ServerOptions::persistence`]), every
//! successful corpus mutation — registrations with their *resolved* shard
//! counts, removals, tenant changes — is appended to the durable log
//! before the response is written.  A snapshot is cut every
//! `snapshot_every` verbs, or once the log reaches `snapshot_bytes`; both
//! triggers cut it inline, under the lock that serializes corpus
//! mutations.  [`Server::bind_with`] replays the store on boot,
//! reconstructing tenants, quotas, wire ids (including burned ones) and
//! shard layouts bit-identically — recorded shard counts are replayed
//! as-is, so a warm restart runs **zero** `auto_k` probes
//! ([`Service::auto_probe_count`] stays 0).

use crate::blockcache::{BlockCache, BlockKind};
use crate::json::Json;
use crate::metrics::Scrape;
use crate::proto::{ErrorCode, ProtoError, Request, Response, WireStats, PROTOCOL_VERSION};
use crate::remote::RemoteExecutor;
use slp::NormalFormSlp;
use spanner::regex;
use spanner_slp_core::prepared::EByte;
use spanner_slp_core::service::{Service, Task, TaskClass, TaskRequest, TenantConfig, TenantId};
use spanner_slp_core::trace::{
    Hist, HistSnapshot, Sampler, ShardTrace, SpanRec, TraceContext, Tracer,
};
use spanner_slp_core::{DocumentId, QueryId};
use spanner_store::{CorpusImage, LogVerb, Store, TenantSpec};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server knobs; the defaults suit tests and small deployments.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Maximum accepted frame length in bytes (longer lines are discarded
    /// and answered with [`ErrorCode::Oversized`]).
    pub max_frame_len: usize,
    /// Tuples per streamed enumeration page.
    pub page_size: usize,
    /// How often blocked reads and the accept loop re-check the shutdown
    /// flag (the latency of a drain, not of requests).
    pub poll_interval: Duration,
    /// How long one response write may block before its connection is
    /// abandoned.  A client that stops reading mid-stream fills the TCP
    /// send buffer; without this bound its worker would block in `write`
    /// forever and wedge the shutdown drain behind it.
    pub write_timeout: Duration,
    /// Worker role (the `spanner-server --worker` mode): the process
    /// serves `shard_build`, `ping`, `stats` and `shutdown` only;
    /// registrations and tasks draw [`ErrorCode::Unsupported`].  A worker
    /// holds no corpus — it is a stateless shard-pass engine behind a
    /// `RemoteExecutor` pool, sharing the frame/admission machinery with
    /// full servers.
    pub worker: bool,
    /// Byte budget of the worker's content-addressed block cache (decoded
    /// shard blocks and query automata, keyed by content hash, LRU under
    /// this budget).  `0` disables the cache: every hash-only
    /// `shard_build` frame draws a `need` answer.
    pub block_cache_budget: usize,
    /// Slow-query threshold in milliseconds: a task slower than this emits
    /// its full span tree as one structured JSON line on stderr (at most
    /// one line per second).  `0` disables the slow-query log.  While
    /// enabled, *every* task is traced server-side so the tree is there
    /// when a request turns out slow — a deliberate observability-for-
    /// allocation trade the operator opts into.
    pub slow_log_ms: u64,
    /// Maximum id-carrying (pipelined) frames in flight per connection.
    /// Past the window the connection's reader stops reading — the client
    /// sees TCP backpressure, never an error.
    pub pipeline_window: usize,
    /// Execution permits (clamped to at least 1): at most this many
    /// work-bearing frames run at once, inline on their reader threads or
    /// on the same number of dispatcher threads draining the scheduler
    /// queues.
    pub scheduler_workers: usize,
    /// Bound of each (cost class, tenant) scheduler queue; a frame that
    /// would queue beyond it is answered with [`ErrorCode::Busy`] — the
    /// only source of `busy`.
    pub class_queue_depth: usize,
    /// Degrade the QoS scheduler to a single global FIFO that ignores
    /// class and tenant weights — the head-of-line-blocking baseline the
    /// E17 experiment measures against.  Never set in production.
    pub fifo_scheduler: bool,
    /// Probability (`0.0..=1.0`) that the server arms tracing for a task
    /// whose client did not opt in, feeding the slow-query machinery and
    /// rate-limited `sampled_query` lines without cooperative clients.
    /// `0.0` disables server-side sampling.
    pub trace_sample_rate: f64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_frame_len: 1 << 20,
            page_size: 64,
            poll_interval: Duration::from_millis(25),
            write_timeout: Duration::from_secs(10),
            worker: false,
            block_cache_budget: 64 << 20,
            slow_log_ms: 0,
            pipeline_window: 32,
            scheduler_workers: 4,
            class_queue_depth: 64,
            fifo_scheduler: false,
            trace_sample_rate: 0.0,
        }
    }
}

/// Everything beyond [`ServerConfig`] a durable, multi-tenant deployment
/// wires in: persistence and a remote worker pool handle (for fallback
/// observability).  The in-memory default (`ServerOptions::from(config)`)
/// behaves exactly like [`Server::bind`].
#[derive(Debug, Default)]
pub struct ServerOptions {
    /// The transport knobs.
    pub config: ServerConfig,
    /// Attach a durable store: replay it on boot, log every corpus
    /// mutation, snapshot periodically.
    pub persistence: Option<PersistenceOptions>,
    /// The remote executor the service scatters over, if any — held here
    /// so `stats` can export its fallback count.
    pub remote: Option<Arc<RemoteExecutor>>,
}

impl From<ServerConfig> for ServerOptions {
    fn from(config: ServerConfig) -> Self {
        ServerOptions {
            config,
            ..Default::default()
        }
    }
}

/// Where and how often the corpus is made durable.
#[derive(Debug, Clone)]
pub struct PersistenceOptions {
    /// Directory holding `corpus.log` and `corpus.snapshot` (created if
    /// missing).
    pub dir: PathBuf,
    /// Cut a snapshot (and truncate the log) every this many appended
    /// verbs; `0` disables periodic snapshots (the log just grows).
    pub snapshot_every: u64,
    /// Also cut a snapshot whenever the log reaches this many bytes —
    /// compaction for remove-heavy corpora whose dead documents would
    /// otherwise ride the log between cadence cuts.  `0` disables the
    /// size trigger.
    pub snapshot_bytes: u64,
}

/// What boot-time replay reconstructed (see [`Server::recovery`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `true` if a snapshot seeded the image (log-only boots are `false`).
    pub from_snapshot: bool,
    /// Log verbs replayed on top of the snapshot.
    pub replayed_verbs: u64,
    /// Bytes of torn log tail dropped (non-zero only after a crash
    /// mid-append).
    pub torn_bytes: u64,
    /// Live documents re-registered.
    pub documents: u64,
    /// Tenants recreated (excluding the default tenant).
    pub tenants: u64,
}

/// Transport-level counters, exported by `Shared::render_metrics`.
#[derive(Debug, Default)]
struct Metrics {
    connections: AtomicU64,
    frames: AtomicU64,
    busy_rejections: AtomicU64,
    malformed_frames: AtomicU64,
    oversized_frames: AtomicU64,
    pages_streamed: AtomicU64,
    quota_rejections: AtomicU64,
    /// Queued requests dropped because their deadline elapsed while
    /// queued (answered with [`ErrorCode::Expired`], never executed).
    shed_expired: AtomicU64,
    /// Requests refused because their class queue was full (answered with
    /// [`ErrorCode::Busy`]; `busy_rejections` counts the same replies).
    shed_overflow: AtomicU64,
}

/// The durable half of a server: the store, an in-memory mirror of the
/// corpus image (so snapshots never re-read the log), and the snapshot
/// cadence.  The mirror mutex also serializes append+apply so the mirror's
/// `last_seq` tracks the log exactly.
struct Persist {
    store: Store,
    mirror: Mutex<CorpusImage>,
    snapshot_every: u64,
    snapshot_bytes: u64,
    /// Snapshots cut by the every-N-verbs cadence (a snapshot that trips
    /// both triggers at once counts as a cadence cut).
    cadence_snapshots: AtomicU64,
    /// Snapshots cut because the log reached `snapshot_bytes`.
    size_snapshots: AtomicU64,
}

impl Persist {
    /// Makes one corpus mutation durable: append to the log, fold into the
    /// mirror, and cut a snapshot inline if the cadence or the log-size
    /// threshold says so.  Durability failures are loud but non-fatal —
    /// the in-memory serving state already mutated, and refusing to answer
    /// would not un-mutate it.
    fn record(&self, verb: &LogVerb) {
        let mut mirror = self.mirror.lock().expect("corpus mirror poisoned");
        match self.store.append(verb) {
            Ok(seq) => mirror.apply(seq, verb),
            Err(e) => {
                eprintln!("spanner-server: WARNING: log append failed: {e}");
                return;
            }
        }
        let metrics = self.store.metrics();
        let trigger = if self.snapshot_every > 0 && metrics.log_records >= self.snapshot_every {
            &self.cadence_snapshots
        } else if self.snapshot_bytes > 0 && metrics.log_bytes >= self.snapshot_bytes {
            &self.size_snapshots
        } else {
            return;
        };
        match self.store.snapshot(&mirror) {
            Ok(()) => {
                trigger.fetch_add(1, Ordering::Relaxed);
            }
            Err(e) => eprintln!("spanner-server: WARNING: snapshot failed: {e}"),
        }
    }
}

/// Latency histograms plus the slow-query-log rate limiter.  Everything
/// here is wait-free on the hot path: recording one request is a handful
/// of relaxed atomic adds, and unsampled requests touch nothing else —
/// the only allocation is the once-per-tenant histogram insertion.
struct Obs {
    /// Per-task-kind request latency, indexed by `Task::kind_index`.
    kinds: [Hist; Task::KIND_NAMES.len()],
    /// Per-tenant request latency (created on a tenant's first task).
    tenants: RwLock<HashMap<u32, Arc<Hist>>>,
    /// Shard-pass latency as observed by *this* process's worker verb
    /// (coordinators with a remote pool export the executor's histogram
    /// instead, which also covers local fallbacks).
    shard_pass: Hist,
    /// Offset (µs from `epoch`, shifted by one second so the first line
    /// always passes) of the last emitted slow-query line.
    slow_log_last_us: AtomicU64,
    /// Same clock for `sampled_query` lines — a separate limiter, so
    /// sampled lines never crowd out slow-query lines or vice versa.
    sample_log_last_us: AtomicU64,
    epoch: Instant,
}

impl Obs {
    fn new() -> Obs {
        Obs {
            kinds: std::array::from_fn(|_| Hist::new()),
            tenants: RwLock::new(HashMap::new()),
            shard_pass: Hist::new(),
            slow_log_last_us: AtomicU64::new(0),
            sample_log_last_us: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Records one finished task into the kind and tenant histograms.
    fn observe(&self, kind: usize, tenant: u32, us: u64) {
        self.kinds[kind.min(self.kinds.len() - 1)].observe(us);
        let hist = self
            .tenants
            .read()
            .expect("tenant histogram map poisoned")
            .get(&tenant)
            .cloned();
        let hist = hist.unwrap_or_else(|| {
            self.tenants
                .write()
                .expect("tenant histogram map poisoned")
                .entry(tenant)
                .or_insert_with(|| Arc::new(Hist::new()))
                .clone()
        });
        hist.observe(us);
    }

    /// Claims the right to emit one slow-query line; at most one caller
    /// per second wins (lock-free compare-and-swap, losers just skip).
    fn slow_log_permit(&self) -> bool {
        Obs::log_permit(&self.slow_log_last_us, &self.epoch)
    }

    /// The same once-per-second claim for `sampled_query` lines.
    fn sample_log_permit(&self) -> bool {
        Obs::log_permit(&self.sample_log_last_us, &self.epoch)
    }

    fn log_permit(last_us: &AtomicU64, epoch: &Instant) -> bool {
        let now = epoch.elapsed().as_micros() as u64 + 1_000_000;
        let last = last_us.load(Ordering::Relaxed);
        now.saturating_sub(last) >= 1_000_000
            && last_us
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
    }
}

/// State shared between the accept loop and every connection worker.
struct Shared {
    service: Service,
    config: ServerConfig,
    /// Wire id → service id, in registration order.  The indirection keeps
    /// the service's id types opaque and lets the server validate ids
    /// instead of panicking on unknown ones.
    queries: RwLock<Vec<QueryId>>,
    /// Per-tenant document namespaces: tenant id → (wire id → service id).
    /// A `None` slot is a removed document — the wire id is burned, never
    /// reissued — and an id only ever resolves inside its own tenant's
    /// vector, so cross-tenant ids cannot leak.
    documents: RwLock<HashMap<u32, Vec<Option<DocumentId>>>>,
    persist: Option<Persist>,
    remote: Option<Arc<RemoteExecutor>>,
    /// The content-addressed cache behind the `shard_build` have/need
    /// negotiation.  Only worker processes populate it, but it lives on
    /// every server so the handler and `stats` need no special-casing.
    block_cache: BlockCache<CachedBlock>,
    shutdown: AtomicBool,
    metrics: Metrics,
    obs: Obs,
    /// The one admission mechanism: execution permits plus the QoS queues.
    scheduler: Scheduler,
    /// Server-side probabilistic trace sampler
    /// ([`ServerConfig::trace_sample_rate`]).
    sampler: Sampler,
}

/// A decoded value in the worker block cache — automata and rule blocks
/// share one byte budget.
#[derive(Debug, Clone)]
enum CachedBlock {
    Nfa(Arc<spanner_automata::nfa::Nfa<spanner::MarkedSymbol<EByte>>>),
    Rules(Arc<NormalFormSlp<EByte>>),
}

impl Shared {
    /// The `stats` answer: every metric this process exports, rendered as
    /// Prometheus text straight from its sources — the service counters,
    /// the transport atomics, the tenant table, the scheduler, the
    /// block cache, the remote executor, the store and the latency
    /// histograms.  The only place a metric is named.
    fn render_metrics(&self) -> String {
        let mut m = Scrape::default();
        let s = self.service.stats();
        m.counter("spanner_requests_total", &[], s.requests);
        m.counter("spanner_cache_hits_total", &[], s.cache_hits);
        m.counter("spanner_cache_misses_total", &[], s.cache_misses);
        m.counter("spanner_cache_evictions_total", &[], s.evictions);
        m.gauge("spanner_cache_resident_bytes", &[], s.resident_bytes as u64);
        m.gauge(
            "spanner_cache_resident_entries",
            &[],
            s.resident_entries as u64,
        );
        // In `Task::kind_index` order, so the labels match the duration
        // histograms'.
        let t = &s.by_task;
        let by_kind = [
            t.non_emptiness,
            t.model_check,
            t.count,
            t.compute,
            t.enumerate,
        ];
        for (kind, value) in Task::KIND_NAMES.iter().zip(by_kind) {
            m.counter("spanner_tasks_total", &[("kind", kind)], value);
        }

        let v = &self.metrics;
        let remote = self.remote.as_deref();
        for (name, value) in [
            ("connections_total", &v.connections),
            ("frames_total", &v.frames),
            ("busy_rejections_total", &v.busy_rejections),
            ("quota_rejections_total", &v.quota_rejections),
            ("malformed_frames_total", &v.malformed_frames),
            ("oversized_frames_total", &v.oversized_frames),
            ("pages_streamed_total", &v.pages_streamed),
        ] {
            m.counter(
                &format!("spanner_server_{name}"),
                &[],
                value.load(Ordering::Relaxed),
            );
        }
        let (fallbacks, hedges) = remote.map_or((0, 0), |r| (r.fallback_count(), r.hedge_count()));
        m.counter("spanner_server_executor_fallbacks_total", &[], fallbacks);
        m.counter("spanner_server_executor_hedges_total", &[], hedges);
        let cache = &self.block_cache;
        m.counter("spanner_server_block_cache_hits_total", &[], cache.hits());
        m.counter(
            "spanner_server_block_cache_misses_total",
            &[],
            cache.misses(),
        );
        m.counter(
            "spanner_server_block_cache_evictions_total",
            &[],
            cache.evictions(),
        );
        m.gauge(
            "spanner_server_block_cache_resident_bytes",
            &[],
            cache.resident_bytes(),
        );
        // Work holding a permit, inline on a reader or on a dispatcher.
        let (running, depths) = self.scheduler.gauges();
        m.gauge("spanner_server_inflight", &[], running as u64);
        for class in TaskClass::ALL {
            m.gauge(
                "spanner_queue_depth",
                &[("class", class.name())],
                depths[class.index()],
            );
        }
        m.counter(
            "spanner_shed_total",
            &[("reason", "expired")],
            v.shed_expired.load(Ordering::Relaxed),
        );
        m.counter(
            "spanner_shed_total",
            &[("reason", "overflow")],
            v.shed_overflow.load(Ordering::Relaxed),
        );

        for id in self.service.tenant_ids() {
            let config = self.service.tenant_config(id).unwrap_or_default();
            let usage = self.service.tenant_usage(id).unwrap_or_default();
            let load = self.scheduler.tenant_load(id.0);
            let tenant = id.0.to_string();
            let label = [("tenant", tenant.as_str())];
            m.gauge("spanner_tenant_docs", &label, usage.docs);
            m.gauge("spanner_tenant_docs_quota", &label, config.max_docs);
            m.gauge("spanner_tenant_corpus_bytes", &label, usage.corpus_bytes);
            m.gauge(
                "spanner_tenant_corpus_bytes_quota",
                &label,
                config.max_corpus_bytes,
            );
            m.gauge(
                "spanner_tenant_cache_resident_bytes",
                &label,
                self.service.tenant_cache_resident(id) as u64,
            );
            m.gauge(
                "spanner_tenant_cache_share_bytes",
                &label,
                config.cache_share as u64,
            );
            m.gauge(
                "spanner_tenant_admission_weight",
                &label,
                config.admission_weight as u64,
            );
            m.gauge("spanner_tenant_inflight", &label, load.inflight);
            m.counter(
                "spanner_tenant_busy_rejections_total",
                &label,
                load.busy_rejections,
            );
            m.counter(
                "spanner_tenant_quota_rejections_total",
                &label,
                load.quota_rejections,
            );
        }

        if let Some(p) = &self.persist {
            let store = p.store.metrics();
            m.gauge("spanner_store_log_records", &[], store.log_records);
            m.gauge("spanner_store_log_bytes", &[], store.log_bytes);
            m.gauge("spanner_store_last_seq", &[], store.last_seq);
            m.gauge("spanner_store_snapshot_seq", &[], store.snapshot_seq);
            m.counter("spanner_store_snapshots_total", &[], store.snapshots);
            m.counter(
                "spanner_store_snapshot_triggers_total",
                &[("trigger", "cadence")],
                p.cadence_snapshots.load(Ordering::Relaxed),
            );
            m.counter(
                "spanner_store_snapshot_triggers_total",
                &[("trigger", "size")],
                p.size_snapshots.load(Ordering::Relaxed),
            );
            if let Some(age) = store.snapshot_age_secs {
                m.gauge("spanner_store_snapshot_age_seconds", &[], age);
            }
        }

        const DURATION: &str = "spanner_request_duration_us";
        for (kind, hist) in Task::KIND_NAMES.iter().zip(&self.obs.kinds) {
            m.hist(DURATION, &[("kind", kind)], &hist.snapshot());
        }
        let mut tenants: Vec<(u32, HistSnapshot)> = self
            .obs
            .tenants
            .read()
            .expect("tenant histogram map poisoned")
            .iter()
            .map(|(&id, hist)| (id, hist.snapshot()))
            .collect();
        tenants.sort_by_key(|&(id, _)| id);
        for (id, hist) in &tenants {
            m.hist(DURATION, &[("tenant", id.to_string().as_str())], hist);
        }
        // A coordinator with a remote pool exports the executor's
        // histogram, which also covers local fallbacks.
        let shard_pass = remote.map_or_else(
            || self.obs.shard_pass.snapshot(),
            |r| r.pass_latency_histogram(),
        );
        m.hist("spanner_shard_pass_duration_us", &[], &shard_pass);
        m.gauge(
            "spanner_executor_hedge_budget_us",
            &[],
            remote.map_or(0, |r| r.hedge_budget_us()),
        );
        m.gauge(
            "spanner_executor_hedge_window_samples",
            &[],
            remote.map_or(0, |r| r.hedge_sample_count()),
        );
        m.finish()
    }

    /// Counts one quota rejection against the tenant and the server.
    fn count_quota_rejection(&self, tenant: u32) {
        self.metrics
            .quota_rejections
            .fetch_add(1, Ordering::Relaxed);
        self.scheduler.lock().tenant(tenant).quota_rejections += 1;
    }
}

// ---------------------------------------------------------------------------
// Connections and the scheduler
// ---------------------------------------------------------------------------

/// Per-connection state shared between the reader thread and the
/// dispatcher pool: the write half (whole frames serialize on the mutex)
/// and the pipeline window.
struct Conn {
    writer: Mutex<TcpStream>,
    /// This connection's jobs parked in or taken from the scheduler queues
    /// and not yet answered.  The reader stops reading while the window is
    /// full (TCP backpressure), waits for zero behind a queued lock-step
    /// frame, and waits for zero before closing.
    window: Mutex<usize>,
    cond: Condvar,
}

impl Conn {
    fn new(writer: TcpStream) -> Conn {
        Conn {
            writer: Mutex::new(writer),
            window: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Writes one response frame tagged with `id` (`0` = lock-step, no
    /// tag).  Whole-frame atomicity is the writer lock's contract: pages
    /// of a streamed enumeration interleave with other responses on the
    /// same socket, but never inside a frame.
    fn send(&self, id: u64, response: &Response) -> io::Result<()> {
        let mut writer = self.writer.lock().expect("connection writer poisoned");
        let mut frame = response.encode_framed(id);
        frame.push(b'\n');
        writer.write_all(&frame)?;
        writer.flush()
    }

    /// Blocks while the pipeline window is full (re-checking the shutdown
    /// flag every poll tick).  Only the reader fills the window, so there
    /// is still room when its next job is queued.  `false` means a drain
    /// began while waiting and the request should be refused.
    fn wait_for_room(&self, shared: &Shared) -> bool {
        let cap = shared.config.pipeline_window.max(1);
        let mut window = self.window.lock().expect("pipeline window poisoned");
        while *window >= cap {
            if shared.shutdown.load(Ordering::SeqCst) {
                return false;
            }
            window = self
                .cond
                .wait_timeout(window, shared.config.poll_interval)
                .expect("pipeline window poisoned")
                .0;
        }
        true
    }

    /// Takes one window slot for a job being queued.
    fn claim_slot(&self) {
        *self.window.lock().expect("pipeline window poisoned") += 1;
    }

    fn release_slot(&self) {
        let mut window = self.window.lock().expect("pipeline window poisoned");
        *window -= 1;
        drop(window);
        self.cond.notify_all();
    }

    /// Blocks until every queued job of this connection has been answered
    /// (each holds a window slot until its response is written or shed) —
    /// the lock-step ordering and graceful-drain guarantees.
    fn drain(&self) {
        let mut window = self.window.lock().expect("pipeline window poisoned");
        while *window > 0 {
            window = self
                .cond
                .wait_timeout(window, Duration::from_millis(25))
                .expect("pipeline window poisoned")
                .0;
        }
    }
}

/// One admitted work-bearing frame — a task, registration, tenant op or
/// `shard_build` — and the connection its reply goes to.
struct Job {
    conn: Arc<Conn>,
    /// The frame's request id; `0` = lock-step.
    id: u64,
    /// Execution budget in µs from `received`; `0` = no deadline.
    deadline_us: u64,
    /// The work's true cost class (also the depth-gauge slot, even when
    /// FIFO mode collapses the queue keys).
    class: TaskClass,
    tenant: u32,
    work: Request,
    received: Instant,
}

/// Stride-scheduling pass increment numerator: a queue of weight `w`
/// advances its pass by `SCALE / w` per dispatch, so relative dispatch
/// rates converge to the weight ratio.
const STRIDE_SCALE: u64 = 1 << 20;

/// One (cost class, tenant) queue of the weighted-fair scheduler.
struct ClassQueue {
    queue: VecDeque<Job>,
    /// Stride pass: the virtual time of this queue's next dispatch.
    pass: u64,
    weight: u64,
}

/// One tenant's admission counters (the `spanner_tenant_*` series).
#[derive(Debug, Clone, Copy, Default)]
struct TenantLoad {
    /// Jobs of this tenant holding a permit.
    inflight: u64,
    busy_rejections: u64,
    quota_rejections: u64,
}

struct SchedState {
    /// Queue key → queue.  In FIFO mode everything collapses into one key
    /// and WFQ degenerates to global arrival order.
    classes: HashMap<(TaskClass, u32), ClassQueue>,
    /// Virtual time of the last dispatch; newly-backlogged queues start
    /// here so an idle queue cannot bank credit.
    global_pass: u64,
    /// Jobs holding a permit, inline on a reader or on a dispatcher.
    running: usize,
    /// Queued jobs per [`TaskClass::index`] (by the job's true class even
    /// in FIFO mode, so the gauges stay meaningful).
    depths: [u64; TaskClass::ALL.len()],
    tenants: HashMap<u32, TenantLoad>,
    stopped: bool,
}

impl SchedState {
    fn tenant(&mut self, tenant: u32) -> &mut TenantLoad {
        self.tenants.entry(tenant).or_default()
    }

    fn queued(&self) -> usize {
        self.depths.iter().sum::<u64>() as usize
    }
}

/// The server's one admission mechanism: `permits` execution permits and
/// bounded per-(class, tenant) queues, drained by the dispatcher pool in
/// stride-scheduled weighted-fair order.  Work runs on its caller's
/// thread while a permit is spare (held by no one and wanted by no queued
/// job), so WFQ order applies only under backlog.
struct Scheduler {
    state: Mutex<SchedState>,
    cond: Condvar,
    permits: usize,
}

/// A held execution permit, returned on drop together with a queued
/// job's window slot — also when the job's execution unwinds, so a
/// panicking request neither shrinks the permit pool nor wedges its
/// connection's drain.
struct Running<'a> {
    scheduler: &'a Scheduler,
    tenant: u32,
    /// The connection whose window slot the (queued) job holds.
    slot: Option<Arc<Conn>>,
}

impl Drop for Running<'_> {
    fn drop(&mut self) {
        let mut state = self.scheduler.lock();
        state.running -= 1;
        state.tenant(self.tenant).inflight -= 1;
        let wake = state.queued() > 0;
        drop(state);
        if wake {
            self.scheduler.cond.notify_one();
        }
        // Permit first: a lock-step reader woken by the slot may admit its
        // next frame inline at once.
        if let Some(conn) = &self.slot {
            conn.release_slot();
        }
    }
}

/// What [`Scheduler::schedule`] did with an arriving job.
enum Admit<'a> {
    /// A spare permit was free: the caller runs the job while holding it.
    Inline(Job, Running<'a>),
    /// Parked, holding a window slot of its connection; a dispatcher will
    /// run it.
    Queued,
    /// The job's queue is full: it is to be answered with
    /// [`ErrorCode::Busy`].
    Overflow,
}

impl Scheduler {
    fn new(permits: usize) -> Scheduler {
        Scheduler {
            state: Mutex::new(SchedState {
                classes: HashMap::new(),
                global_pass: 0,
                running: 0,
                depths: [0; TaskClass::ALL.len()],
                tenants: HashMap::new(),
                stopped: false,
            }),
            cond: Condvar::new(),
            permits,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().expect("scheduler poisoned")
    }

    /// Admits `job`.  When `inline` allows it and more permits are free
    /// than jobs are queued, the job takes a permit and comes back to run
    /// on the calling thread — never one a queued job is waiting for.
    /// Otherwise it is parked in its (class, tenant) queue with WFQ weight
    /// `weight()`, unless that queue is at its bound.
    fn schedule(
        &self,
        job: Job,
        inline: bool,
        weight: impl FnOnce() -> u64,
        config: &ServerConfig,
    ) -> Admit<'_> {
        let mut guard = self.lock();
        let state = &mut *guard;
        if inline && state.running + state.queued() < self.permits {
            state.running += 1;
            state.tenant(job.tenant).inflight += 1;
            let running = Running {
                scheduler: self,
                tenant: job.tenant,
                slot: None,
            };
            return Admit::Inline(job, running);
        }
        let (key, weight) = if config.fifo_scheduler {
            ((TaskClass::Cheap, 0), 1)
        } else {
            ((job.class, job.tenant), weight().max(1))
        };
        let global_pass = state.global_pass;
        let entry = state.classes.entry(key).or_insert_with(|| ClassQueue {
            queue: VecDeque::new(),
            pass: global_pass,
            weight,
        });
        if entry.queue.len() >= config.class_queue_depth.max(1) {
            state.tenant(job.tenant).busy_rejections += 1;
            return Admit::Overflow;
        }
        if entry.queue.is_empty() {
            // A queue going from idle to backlogged joins at the current
            // virtual time (it keeps any pass ahead of it, never behind).
            entry.pass = entry.pass.max(global_pass);
        }
        entry.weight = weight;
        state.depths[job.class.index()] += 1;
        job.conn.claim_slot();
        entry.queue.push_back(job);
        let wake = state.running < self.permits;
        drop(guard);
        if wake {
            self.cond.notify_one();
        }
        Admit::Queued
    }

    /// The next job in weighted-fair order, taken together with a permit;
    /// blocks while nothing is queued or every permit is held.  Once the
    /// scheduler is stopped it drains the backlog, then yields `None`.
    fn next(&self, poll: Duration) -> Option<(Job, Running<'_>)> {
        let mut guard = self.lock();
        loop {
            let state = &mut *guard;
            if state.running < self.permits {
                let min = state
                    .classes
                    .iter()
                    .filter(|(_, c)| !c.queue.is_empty())
                    .min_by_key(|(_, c)| c.pass)
                    .map(|(&key, _)| key);
                if let Some(key) = min {
                    let entry = state.classes.get_mut(&key).expect("picked key exists");
                    let job = entry.queue.pop_front().expect("picked queue non-empty");
                    let pass = entry.pass;
                    entry.pass += STRIDE_SCALE / entry.weight;
                    state.global_pass = pass;
                    state.depths[job.class.index()] -= 1;
                    state.running += 1;
                    state.tenant(job.tenant).inflight += 1;
                    let running = Running {
                        scheduler: self,
                        tenant: job.tenant,
                        slot: Some(job.conn.clone()),
                    };
                    return Some((job, running));
                }
            }
            if state.stopped && state.queued() == 0 {
                return None;
            }
            guard = self
                .cond
                .wait_timeout(guard, poll)
                .expect("scheduler poisoned")
                .0;
        }
    }

    fn stop(&self) {
        self.lock().stopped = true;
        self.cond.notify_all();
    }

    /// Jobs holding a permit, and queued jobs per [`TaskClass::index`].
    fn gauges(&self) -> (usize, [u64; TaskClass::ALL.len()]) {
        let state = self.lock();
        (state.running, state.depths)
    }

    fn tenant_load(&self, tenant: u32) -> TenantLoad {
        self.lock()
            .tenants
            .get(&tenant)
            .copied()
            .unwrap_or_default()
    }
}

/// One dispatcher thread: takes queued jobs with a permit in weighted-fair
/// order, sheds the already-late ones and executes the rest; dropping
/// the [`Running`] guard returns the permit and the job's window slot.
/// Write errors end only the affected connection (its reader will observe
/// EOF); the dispatcher itself never dies.
fn scheduler_loop(shared: Arc<Shared>) {
    while let Some((job, _running)) = shared.scheduler.next(shared.config.poll_interval) {
        let waited_us = job.received.elapsed().as_micros() as u64;
        if job.deadline_us > 0 && waited_us > job.deadline_us {
            shared.metrics.shed_expired.fetch_add(1, Ordering::Relaxed);
            let _ = job.conn.send(
                job.id,
                &Response::Error {
                    code: ErrorCode::Expired,
                    detail: format!(
                        "deadline budget of {} µs elapsed after {} µs in queue",
                        job.deadline_us, waited_us
                    ),
                },
            );
        } else {
            let _ = execute(&shared, job, Some(waited_us));
        }
    }
}

/// A running server: owns the listener thread and the shared state.  Bind
/// with [`Server::bind`], stop with the wire `shutdown` verb or
/// [`Server::request_shutdown`], then [`Server::join`] for the drain.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    dispatchers: Vec<JoinHandle<()>>,
    recovery: Option<RecoveryReport>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service` with the given configuration — in-memory, single
    /// (default) tenant.  See [`Server::bind_with`] for the durable /
    /// multi-tenant variant.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Service,
        config: ServerConfig,
    ) -> io::Result<Server> {
        Server::bind_with(addr, service, ServerOptions::from(config))
    }

    /// Binds `addr` with the full option set: optional durable store
    /// (replayed into `service` before the socket opens) and optional
    /// remote pool handle.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Service,
        options: ServerOptions,
    ) -> io::Result<Server> {
        let ServerOptions {
            config,
            persistence,
            remote,
        } = options;
        let mut documents: HashMap<u32, Vec<Option<DocumentId>>> = HashMap::new();
        let mut persist = None;
        let mut recovery = None;
        if let Some(opts) = persistence {
            let (store, recovered) = Store::open(&opts.dir)?;
            let report = replay(&service, &mut documents, &recovered.image)?;
            recovery = Some(RecoveryReport {
                from_snapshot: recovered.from_snapshot,
                replayed_verbs: recovered.replayed_verbs,
                torn_bytes: recovered.torn_bytes,
                ..report
            });
            persist = Some(Persist {
                store,
                mirror: Mutex::new(recovered.image),
                snapshot_every: opts.snapshot_every,
                snapshot_bytes: opts.snapshot_bytes,
                cadence_snapshots: AtomicU64::new(0),
                size_snapshots: AtomicU64::new(0),
            });
        }

        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            service,
            config,
            queries: RwLock::new(Vec::new()),
            documents: RwLock::new(documents),
            persist,
            remote,
            block_cache: BlockCache::new(config.block_cache_budget),
            shutdown: AtomicBool::new(false),
            metrics: Metrics::default(),
            obs: Obs::new(),
            scheduler: Scheduler::new(config.scheduler_workers.max(1)),
            sampler: Sampler::new(config.trace_sample_rate),
        });
        let dispatchers = (0..config.scheduler_workers.max(1))
            .map(|_| {
                let shared = shared.clone();
                std::thread::spawn(move || scheduler_loop(shared))
            })
            .collect();
        let accept = {
            let shared = shared.clone();
            std::thread::spawn(move || accept_loop(listener, shared))
        };
        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
            dispatchers,
            recovery,
        })
    }

    /// What boot-time replay reconstructed; `None` when the server was
    /// bound without persistence.
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The bound address (with the actual port when bound ephemeral).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served evaluation service (e.g. to pre-register a corpus before
    /// opening the doors to clients).
    pub fn service(&self) -> &Service {
        &self.shared.service
    }

    /// Flips the shutdown flag, exactly like the wire `shutdown` verb.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// `true` once a shutdown was requested (wire verb or
    /// [`Server::request_shutdown`]).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the drain to complete: the accept loop exits and every
    /// connection worker finishes its in-flight work.  Blocks until a
    /// shutdown is requested by someone (a client's `shutdown` verb or
    /// [`Server::request_shutdown`]).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            accept.join().expect("accept loop panicked");
        }
        // Every connection has drained (each waits for its pipeline window
        // to empty), so the scheduler backlog is empty: stop the pool.
        self.shared.scheduler.stop();
        for dispatcher in std::mem::take(&mut self.dispatchers) {
            dispatcher.join().expect("scheduler dispatcher panicked");
        }
    }

    /// [`Server::request_shutdown`] + [`Server::join`].
    pub fn shutdown_and_join(self) {
        self.request_shutdown();
        self.join();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // A dropped server (e.g. a test bailing early) must not leak the
        // accept loop; request a drain and let the thread go.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.scheduler.stop();
        for dispatcher in std::mem::take(&mut self.dispatchers) {
            let _ = dispatcher.join();
        }
    }
}

/// Rebuilds the serving state from a recovered corpus image: tenants
/// first (with quotas lifted so replay cannot refuse documents the live
/// server once admitted), then every document at its *recorded* shard
/// count — never through the auto-tuning path, so replay runs zero
/// `auto_k` probes — then the recorded quotas, then the wire-id floors
/// (burned ids stay burned).
fn replay(
    service: &Service,
    documents: &mut HashMap<u32, Vec<Option<DocumentId>>>,
    image: &CorpusImage,
) -> io::Result<RecoveryReport> {
    let invalid = |what: String| io::Error::new(io::ErrorKind::InvalidData, what);
    for spec in &image.tenants {
        let unlimited = TenantConfig {
            name: spec.name.clone(),
            max_docs: 0,
            max_corpus_bytes: 0,
            cache_share: spec.cache_share as usize,
            admission_weight: spec.admission_weight,
        };
        if !service.create_tenant(TenantId(spec.id), unlimited) {
            return Err(invalid(format!(
                "replay: tenant {} already exists in the service",
                spec.id
            )));
        }
    }
    for doc in &image.docs {
        let slp = NormalFormSlp::from_document(&doc.text)
            .map_err(|e| invalid(format!("replay: cannot recompress document: {e}")))?;
        let tenant = TenantId(doc.tenant);
        let k = doc.shards.max(1) as usize;
        let id = if k == 1 {
            service.add_document_for(tenant, &slp)
        } else {
            service.add_document_sharded_for(tenant, &slp, k)
        }
        .map_err(|e| invalid(format!("replay: registration refused: {e}")))?;
        let namespace = documents.entry(doc.tenant).or_default();
        let slot = usize::try_from(doc.wire_id)
            .map_err(|_| invalid("replay: wire id out of range".into()))?;
        if namespace.len() <= slot {
            namespace.resize(slot + 1, None);
        }
        if namespace[slot].is_some() {
            return Err(invalid(format!(
                "replay: duplicate wire id {} in tenant {}",
                doc.wire_id, doc.tenant
            )));
        }
        namespace[slot] = Some(id);
    }
    // Now that the corpus is back, install the real quotas (update never
    // re-checks existing usage).
    for spec in &image.tenants {
        let config = TenantConfig {
            name: spec.name.clone(),
            max_docs: spec.max_docs,
            max_corpus_bytes: spec.max_corpus_bytes,
            cache_share: spec.cache_share as usize,
            admission_weight: spec.admission_weight,
        };
        service.update_tenant(TenantId(spec.id), config);
    }
    // Pad every namespace up to its recorded next-id so removed documents
    // at the tail stay burned instead of being reissued.
    for &(tenant, next) in &image.next_ids {
        let namespace = documents.entry(tenant).or_default();
        let next =
            usize::try_from(next).map_err(|_| invalid("replay: next id out of range".into()))?;
        if namespace.len() < next {
            namespace.resize(next, None);
        }
    }
    Ok(RecoveryReport {
        documents: image.docs.len() as u64,
        tenants: image.tenants.len() as u64,
        ..Default::default()
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.metrics.connections.fetch_add(1, Ordering::Relaxed);
                let shared = shared.clone();
                workers.push(std::thread::spawn(move || {
                    // Connection-level I/O errors end that connection only.
                    let _ = serve_connection(stream, shared);
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reap workers of closed connections while idle, so a
                // long-running server under connection churn holds handles
                // only for *live* connections, not for every connection it
                // ever accepted.
                workers.retain(|worker| !worker.is_finished());
                std::thread::sleep(shared.config.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.config.poll_interval),
        }
    }
    drop(listener); // stop accepting before the drain
    for worker in workers {
        worker.join().expect("connection worker panicked");
    }
}

/// What one attempt to read a frame produced.
enum Frame {
    /// A complete line (without the newline).
    Line(Vec<u8>),
    /// A line longer than the cap; it was discarded up to its newline.
    Oversized,
    /// The peer closed the connection.
    Eof,
    /// The shutdown flag was observed while waiting for the next frame.
    Drain,
}

/// Buffered, length-capped, shutdown-aware line reader.
struct FrameReader {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Already-consumed prefix of `buf` (compacted between frames).
    pos: usize,
}

impl FrameReader {
    fn new(stream: TcpStream) -> FrameReader {
        FrameReader {
            stream,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Reads the next frame, honouring the length cap and the shutdown
    /// flag (checked at every poll tick while idle).
    fn next_frame(&mut self, shared: &Shared) -> io::Result<Frame> {
        let max = shared.config.max_frame_len;
        let mut scanned = 0;
        let mut discarding = false;
        loop {
            // Scan what we have for the newline.
            if let Some(nl) = self.buf[self.pos + scanned..]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = self.pos + scanned + nl;
                // A line over the cap is oversized even when its newline
                // arrived in the same read chunk (no discard loop needed).
                let over_cap = end - self.pos > max;
                let line = if discarding || over_cap {
                    Vec::new()
                } else {
                    self.buf[self.pos..end].to_vec()
                };
                self.pos = end + 1;
                self.compact();
                if discarding || over_cap {
                    return Ok(Frame::Oversized);
                }
                return Ok(Frame::Line(line));
            }
            scanned = self.buf.len() - self.pos;
            if !discarding && scanned > max {
                // Too long: stop buffering, drain to the next newline.
                discarding = true;
            }
            if discarding {
                // Throw away everything buffered so far (keeping `pos` at a
                // fresh start) so a hostile line cannot grow the buffer.
                self.buf.clear();
                self.pos = 0;
                scanned = 0;
            }
            // Need more bytes.
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Ok(Frame::Eof),
                Ok(n) => {
                    if discarding {
                        if let Some(nl) = chunk[..n].iter().position(|&b| b == b'\n') {
                            // Keep the tail after the newline for the next
                            // frame.
                            self.buf.extend_from_slice(&chunk[nl + 1..n]);
                            return Ok(Frame::Oversized);
                        }
                    } else {
                        self.buf.extend_from_slice(&chunk[..n]);
                    }
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shared.shutdown.load(Ordering::SeqCst) {
                        return Ok(Frame::Drain);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

fn serve_connection(stream: TcpStream, shared: Arc<Shared>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(shared.config.poll_interval))?;
    stream.set_write_timeout(Some(shared.config.write_timeout))?;
    let conn = Arc::new(Conn::new(stream.try_clone()?));
    let mut reader = FrameReader::new(stream);
    let result = loop {
        match reader.next_frame(&shared) {
            Err(e) => break Err(e),
            Ok(Frame::Eof) | Ok(Frame::Drain) => break Ok(()),
            Ok(Frame::Oversized) => {
                shared.metrics.frames.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .oversized_frames
                    .fetch_add(1, Ordering::Relaxed);
                let write = conn.send(
                    0,
                    &Response::Error {
                        code: ErrorCode::Oversized,
                        detail: format!(
                            "frame exceeds the {}-byte cap",
                            shared.config.max_frame_len
                        ),
                    },
                );
                if let Err(e) = write {
                    break Err(e);
                }
            }
            Ok(Frame::Line(line)) => {
                shared.metrics.frames.fetch_add(1, Ordering::Relaxed);
                // Frame receipt is the trace epoch: decode, admission and
                // id resolution all show up inside the request's tree.
                let received = Instant::now();
                match handle_frame(&line, &shared, &conn, received) {
                    Err(e) => break Err(e),
                    Ok(true) => break Ok(()),
                    Ok(false) => {}
                }
            }
        }
    };
    // Pipelined tasks still queued or executing hold window slots; wait
    // them out so every accepted request gets its response written before
    // the connection worker exits (the drain guarantee).
    conn.drain();
    result
}

/// Parses and dispatches one frame; `Ok(true)` ends the connection (the
/// frame was a `shutdown`).  `received` is the instant the frame was read
/// — the epoch of the request's trace, when it is sampled.
///
/// `ping`, `stats` and `shutdown` are answered at once; every other frame
/// is a job for the scheduler (see the module docs' *Admission control*).
fn handle_frame(
    line: &[u8],
    shared: &Arc<Shared>,
    conn: &Arc<Conn>,
    received: Instant,
) -> io::Result<bool> {
    let (request, meta) = match Request::decode_framed(line) {
        Ok(decoded) => decoded,
        Err(ProtoError::Version(v)) => {
            shared
                .metrics
                .malformed_frames
                .fetch_add(1, Ordering::Relaxed);
            conn.send(
                0,
                &Response::Error {
                    code: ErrorCode::Version,
                    detail: format!("client speaks v{v}, this server speaks v{PROTOCOL_VERSION}"),
                },
            )?;
            return Ok(false);
        }
        Err(ProtoError::Malformed(detail)) => {
            shared
                .metrics
                .malformed_frames
                .fetch_add(1, Ordering::Relaxed);
            conn.send(
                0,
                &Response::Error {
                    code: ErrorCode::Malformed,
                    detail,
                },
            )?;
            return Ok(false);
        }
    };

    match request {
        // Observability is always admitted.
        Request::Ping => conn
            .send(
                meta.id,
                &Response::Pong {
                    proto: PROTOCOL_VERSION,
                },
            )
            .map(|()| false),
        Request::Stats => conn
            .send(
                meta.id,
                &Response::Stats {
                    text: shared.render_metrics(),
                },
            )
            .map(|()| false),
        // Shutdown is always admitted: an overloaded server must drain.
        Request::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            conn.send(meta.id, &Response::ShuttingDown)?;
            Ok(true)
        }
        // Everything else is work: refuse during a drain, check the role,
        // then run it inline or queue it.
        work => {
            let refuse = |code: ErrorCode, detail: String| {
                conn.send(meta.id, &Response::Error { code, detail })
                    .map(|()| false)
            };
            let draining = || refuse(ErrorCode::ShuttingDown, "the server is draining".into());
            if shared.shutdown.load(Ordering::SeqCst) {
                return draining();
            }
            // Worker processes are stateless shard-pass engines: they hold
            // no corpus, so registrations and tasks are refused with a
            // structured error (the connection stays usable).
            if shared.config.worker && !matches!(work, Request::ShardBuild { .. }) {
                return refuse(
                    ErrorCode::Unsupported,
                    "this is a --worker process; it serves shard_build, ping, stats and \
                     shutdown only"
                        .into(),
                );
            }
            // Registrations and `shard_build` walk whole documents or
            // blocks: they are expensive, like scans.  Frames without a
            // tenant field run as the default tenant.
            let (tenant, class) = match &work {
                Request::Task { tenant, task, .. } => (*tenant, task.to_task().class()),
                Request::AddDoc { tenant, .. }
                | Request::AddDocSharded { tenant, .. }
                | Request::RemoveDoc { tenant, .. } => (*tenant, TaskClass::Expensive),
                _ => (0, TaskClass::Expensive),
            };
            if meta.id != 0 && !conn.wait_for_room(shared) {
                return draining();
            }
            let job = Job {
                conn: conn.clone(),
                id: meta.id,
                deadline_us: meta.deadline_us,
                class,
                tenant,
                work,
                received,
            };
            // Lock-step frames and cheap pipelined tasks may run on this
            // reader; a pipelined expensive task always queues, so a scan
            // never blocks the connection's other requests.
            let inline = meta.id == 0 || class == TaskClass::Cheap;
            let weight = || {
                let tenant_weight = shared
                    .service
                    .tenant_config(TenantId(tenant))
                    .map_or(1, |c| c.admission_weight.max(1));
                u64::from(tenant_weight) * class.weight()
            };
            match shared
                .scheduler
                .schedule(job, inline, weight, &shared.config)
            {
                Admit::Inline(job, _running) => execute(shared, job, None).map(|()| false),
                // A queued lock-step frame holds its reader until it is
                // answered, so lock-step replies stay in order.
                Admit::Queued => {
                    if meta.id == 0 {
                        conn.drain();
                    }
                    Ok(false)
                }
                Admit::Overflow => {
                    let metrics = &shared.metrics;
                    metrics.busy_rejections.fetch_add(1, Ordering::Relaxed);
                    metrics.shed_overflow.fetch_add(1, Ordering::Relaxed);
                    refuse(
                        ErrorCode::Busy,
                        format!(
                            "the {}/tenant-{} queue is at its {}-deep bound",
                            class.name(),
                            tenant,
                            shared.config.class_queue_depth.max(1)
                        ),
                    )
                }
            }
        }
    }
}

/// Runs one admitted job and writes its reply tagged with the job's id
/// (`0` = lock-step).  `queue_wait_us` is `Some` for a job a dispatcher
/// took from the scheduler queues.
fn execute(shared: &Arc<Shared>, job: Job, queue_wait_us: Option<u64>) -> io::Result<()> {
    let Job {
        conn,
        id,
        work,
        received,
        ..
    } = job;
    let response = match work {
        Request::AddQuery { pattern, alphabet } => add_query(shared, &pattern, &alphabet),
        Request::AddDoc { tenant, text } => add_doc(shared, tenant, &text, Some(1)),
        Request::AddDocSharded { tenant, k, text } => {
            add_doc(shared, tenant, &text, (k > 0).then_some(k as usize))
        }
        Request::RemoveDoc { tenant, doc } => remove_doc(shared, tenant, doc),
        Request::TenantCreate { spec } => tenant_upsert(shared, spec, false),
        Request::TenantUpdate { spec } => tenant_upsert(shared, spec, true),
        Request::ShardBuild {
            nfa,
            rules,
            root,
            nfa_hash,
            block_hash,
            trace,
        } => shard_build(shared, nfa, rules, root, nfa_hash, block_hash, trace),
        Request::Task {
            tenant,
            trace,
            query,
            doc,
            task,
        } => {
            return run_task(
                shared,
                &conn,
                id,
                tenant,
                trace,
                query,
                doc,
                task,
                received,
                queue_wait_us,
            )
        }
        Request::Ping | Request::Stats | Request::Shutdown => {
            unreachable!("always admitted, never a job")
        }
    };
    conn.send(id, &response)
}

fn add_query(shared: &Shared, pattern: &str, alphabet: &[u8]) -> Response {
    let automaton = match regex::compile(pattern, alphabet) {
        Ok(automaton) => automaton,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Eval,
                detail: format!("cannot compile pattern: {e}"),
            }
        }
    };
    let id = shared.service.add_query(&automaton);
    let mut queries = shared.queries.write().expect("query map poisoned");
    queries.push(id);
    Response::QueryAdded {
        id: (queries.len() - 1) as u64,
    }
}

/// The wire answer for a refused registration.  Quota exhaustion is an
/// admission decision (`quota`, no retry); an unknown tenant is an id
/// problem.
fn quota_error(shared: &Shared, tenant: u32, e: spanner_slp_core::QuotaError) -> Response {
    match e {
        spanner_slp_core::QuotaError::UnknownTenant => Response::Error {
            code: ErrorCode::UnknownId,
            detail: format!("unknown tenant {tenant}"),
        },
        e => {
            shared.count_quota_rejection(tenant);
            Response::Error {
                code: ErrorCode::Quota,
                detail: e.to_string(),
            }
        }
    }
}

/// Compresses and registers a document in `tenant`'s namespace.  `k = None`
/// auto-tunes the shard count; `Some(1)` stays monolithic.  Successful
/// registrations are made durable with their *resolved* shard count, so a
/// replay never re-probes.
fn add_doc(shared: &Shared, tenant: u32, text: &[u8], k: Option<usize>) -> Response {
    let slp = match NormalFormSlp::from_document(text) {
        Ok(slp) => slp,
        Err(e) => {
            return Response::Error {
                code: ErrorCode::Eval,
                detail: format!("cannot compress document: {e}"),
            }
        }
    };
    let tid = TenantId(tenant);
    let id = match k {
        None => shared.service.add_document_auto_for(tid, &slp),
        Some(1) => shared.service.add_document_for(tid, &slp),
        Some(k) => shared.service.add_document_sharded_for(tid, &slp, k),
    };
    let id = match id {
        Ok(id) => id,
        Err(e) => return quota_error(shared, tenant, e),
    };
    let shards = shared.service.document(id).shard_count() as u64;
    let wire_id = {
        let mut documents = shared.documents.write().expect("document map poisoned");
        let namespace = documents.entry(tenant).or_default();
        namespace.push(Some(id));
        (namespace.len() - 1) as u64
    };
    if let Some(persist) = &shared.persist {
        persist.record(&LogVerb::AddDoc {
            tenant,
            wire_id,
            text: text.to_vec(),
            shards,
        });
    }
    Response::DocAdded {
        id: wire_id,
        shards,
        len: text.len() as u64,
    }
}

/// Unregisters a document: burns its wire id inside its tenant's namespace
/// and invalidates its cached matrices through the service
/// (`MatrixCache::clear_doc`).  Ids never resolve across tenants.
fn remove_doc(shared: &Shared, tenant: u32, doc: u64) -> Response {
    let service_id = {
        let mut documents = shared.documents.write().expect("document map poisoned");
        documents
            .get_mut(&tenant)
            .and_then(|namespace| namespace.get_mut(doc as usize))
            .and_then(|slot| slot.take())
    };
    match service_id {
        Some(id) => {
            shared.service.remove_document(id);
            if let Some(persist) = &shared.persist {
                persist.record(&LogVerb::RemoveDoc {
                    tenant,
                    wire_id: doc,
                });
            }
            Response::DocRemoved { id: doc }
        }
        None => Response::Error {
            code: ErrorCode::UnknownId,
            detail: format!("unknown or already removed document {doc}"),
        },
    }
}

/// Creates (`update = false`) or reconfigures (`update = true`) a tenant
/// and records the change in the durable log.  The scheduler reads the
/// tenant's admission weight whenever it queues the tenant's work.
fn tenant_upsert(shared: &Shared, spec: TenantSpec, update: bool) -> Response {
    let config = TenantConfig {
        name: spec.name.clone(),
        max_docs: spec.max_docs,
        max_corpus_bytes: spec.max_corpus_bytes,
        cache_share: spec.cache_share as usize,
        admission_weight: spec.admission_weight,
    };
    let id = TenantId(spec.id);
    let ok = if update {
        shared.service.update_tenant(id, config)
    } else {
        shared.service.create_tenant(id, config)
    };
    if !ok {
        return if update {
            Response::Error {
                code: ErrorCode::UnknownId,
                detail: format!("unknown tenant {}", spec.id),
            }
        } else {
            Response::Error {
                code: ErrorCode::Eval,
                detail: format!("tenant {} already exists (use tenant_update)", spec.id),
            }
        };
    }
    if let Some(persist) = &shared.persist {
        let verb = if update {
            LogVerb::TenantUpdate(spec.clone())
        } else {
            LogVerb::TenantCreate(spec.clone())
        };
        persist.record(&verb);
    }
    Response::TenantOk {
        id: spec.id,
        created: !update,
    }
}

/// Decoded-size estimate of a cached automaton, the cost the block cache
/// charges against its byte budget.
fn nfa_cache_cost(wire: &crate::proto::WireNfa) -> usize {
    32 + wire.accepting.len() * 8 + wire.arcs.len() * 24
}

/// Runs one shard's matrix pass (the worker verb): resolves the query
/// automaton and the standalone block — from the frame's bytes or from
/// the content-addressed block cache when the coordinator shipped only
/// hashes — runs the in-process executor, and answers with the block's
/// summary rows, never the full matrices.  A hash-only frame naming
/// values the cache does not hold answers [`Response::NeedBlocks`]; a
/// frame whose bytes do not match their claimed hash is malformed and
/// never cached (the negotiation trusts recomputed hashes only).
fn shard_build(
    shared: &Shared,
    nfa: Option<crate::proto::WireNfa>,
    rules: Option<Vec<slp::NfRule<EByte>>>,
    root: u64,
    nfa_hash: u64,
    block_hash: u64,
    trace: u64,
) -> Response {
    use spanner_slp_core::executor::{LocalExecutor, ShardExecutor, ShardJob};
    // The worker's span fragment measures offsets from its own receipt of
    // the frame; the coordinator re-bases it by the attempt's issue
    // offset when stitching, so the wire latency shows up as the gap.
    let received = Instant::now();
    let cache = &shared.block_cache;

    let mut need_nfa = false;
    let nfa = match nfa {
        Some(wire) => {
            if wire.content_hash() != nfa_hash {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    detail: "nfa bytes do not match their claimed content hash".into(),
                };
            }
            let decoded = match wire.to_nfa() {
                Ok(nfa) => nfa,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::Eval,
                        detail: format!("bad automaton: {e}"),
                    }
                }
            };
            let decoded = Arc::new(decoded);
            cache.put(
                BlockKind::Nfa,
                nfa_hash,
                CachedBlock::Nfa(decoded.clone()),
                nfa_cache_cost(&wire),
            );
            Some(decoded)
        }
        None => match cache.get(BlockKind::Nfa, nfa_hash) {
            Some(CachedBlock::Nfa(decoded)) => Some(decoded),
            _ => {
                need_nfa = true;
                None
            }
        },
    };

    let mut need_block = false;
    let block = match rules {
        Some(rules) => {
            let root = match u32::try_from(root)
                .ok()
                .filter(|&r| (r as usize) < rules.len())
            {
                Some(root) => slp::NonTerminal(root),
                None => {
                    return Response::Error {
                        code: ErrorCode::Eval,
                        detail: format!("root {root} outside the {}-rule block", rules.len()),
                    }
                }
            };
            if slp::block_content_hash(&rules, root.0) != block_hash {
                return Response::Error {
                    code: ErrorCode::Malformed,
                    detail: "shard block bytes do not match their claimed content hash".into(),
                };
            }
            let block = match slp::NormalFormSlp::new(rules, root) {
                Ok(block) => block,
                Err(e) => {
                    return Response::Error {
                        code: ErrorCode::Eval,
                        detail: format!("bad shard block: {e}"),
                    }
                }
            };
            let block = Arc::new(block);
            // `48` ≈ the decoded bytes per rule: the rule itself plus the
            // precomputed length/depth/order tables.
            let cost = block.num_non_terminals() * 48;
            cache.put(
                BlockKind::Rules,
                block_hash,
                CachedBlock::Rules(block.clone()),
                cost,
            );
            Some(block)
        }
        None => match cache.get(BlockKind::Rules, block_hash) {
            Some(CachedBlock::Rules(block)) => {
                // The hash covers `(rules, root)`: a frame whose root
                // disagrees with the cached block it names is mis-claimed.
                if block.start().0 as u64 != root {
                    return Response::Error {
                        code: ErrorCode::Malformed,
                        detail: format!(
                            "root {root} disagrees with the cached block named by its hash"
                        ),
                    };
                }
                Some(block)
            }
            _ => {
                need_block = true;
                None
            }
        },
    };

    if need_nfa || need_block {
        return Response::NeedBlocks {
            need_nfa,
            need_block,
        };
    }
    let (nfa, block) = (nfa.expect("resolved above"), block.expect("resolved above"));
    let outcome = LocalExecutor.execute(&ShardJob {
        nfa: &nfa,
        block: &block,
        shard_index: 0,
        trace: (trace != 0).then_some(ShardTrace {
            ctx: TraceContext {
                trace_id: trace,
                sampled: true,
            },
            epoch: received,
        }),
    });
    shared
        .obs
        .shard_pass
        .observe(outcome.elapsed.as_micros() as u64);
    Response::ShardBuilt {
        q: nfa.num_states() as u64,
        rows: outcome.rows,
        elapsed_us: outcome.elapsed.as_micros() as u64,
        spans: outcome.spans,
    }
}

/// The wire code for an evaluation-layer error: a document removed while
/// the request was in flight is an id problem, not an evaluation failure.
fn eval_error_code(e: &spanner_slp_core::EvalError) -> ErrorCode {
    match e {
        spanner_slp_core::EvalError::DocumentRemoved => ErrorCode::UnknownId,
        _ => ErrorCode::Eval,
    }
}

/// Closes a request's trace: feeds the slow-query log (rate-limited to
/// one line per second), emits a rate-limited `sampled_query` line for
/// server-sampled requests that were not slow, and returns the span tree
/// when the client asked for it (`trace_id != 0`).  Server-side sampling
/// (probabilistic or slow-log) records spans but never ships them back.
fn finish_trace(
    shared: &Shared,
    tracer: Option<Tracer>,
    trace_id: u64,
    sampled_id: u64,
    tenant: u32,
    kind: &'static str,
    total_us: u64,
) -> Option<Vec<SpanRec>> {
    let spans = tracer?.finish();
    let log_line = |key: &str, id: u64| {
        let line = Json::Obj(vec![(
            key.to_string(),
            Json::Obj(vec![
                ("trace_id".to_string(), Json::num(id)),
                ("tenant".to_string(), Json::num(tenant)),
                ("kind".to_string(), Json::str(kind)),
                ("us".to_string(), Json::num(total_us)),
                ("spans".to_string(), crate::proto::spans_to_json(&spans)),
            ]),
        )]);
        eprintln!("{}", String::from_utf8_lossy(&line.to_bytes()));
    };
    let slow_us = shared.config.slow_log_ms.saturating_mul(1000);
    if slow_us > 0 && total_us >= slow_us && shared.obs.slow_log_permit() {
        // Slow-log-worthy requests are always kept, whatever the sampler
        // decided — the "always keep" half of the sampling policy.
        log_line(
            "slow_query",
            if trace_id != 0 { trace_id } else { sampled_id },
        );
    } else if sampled_id != 0 && shared.obs.sample_log_permit() {
        log_line("sampled_query", sampled_id);
    }
    (trace_id != 0).then_some(spans)
}

/// Executes one task and writes its response(s) tagged with `id` (`0` for
/// the lock-step path).  `queue_wait_us` is the scheduler wait of a
/// queued task (recorded as a `queue_wait` span on sampled traces); a
/// task run inline passes `None` and records an `admit` span.
#[allow(clippy::too_many_arguments)]
fn run_task(
    shared: &Arc<Shared>,
    conn: &Conn,
    id: u64,
    tenant: u32,
    trace_id: u64,
    query: u64,
    doc: u64,
    task: crate::proto::WireTask,
    received: Instant,
    queue_wait_us: Option<u64>,
) -> io::Result<()> {
    let query_id = shared
        .queries
        .read()
        .expect("query map poisoned")
        .get(query as usize)
        .copied();
    // Ids resolve only inside the requesting tenant's namespace: another
    // tenant's wire ids are indistinguishable from unknown ids.
    let doc_id = shared
        .documents
        .read()
        .expect("document map poisoned")
        .get(&tenant)
        .and_then(|namespace| namespace.get(doc as usize).copied().flatten());
    let (Some(query_id), Some(doc_id)) = (query_id, doc_id) else {
        return conn.send(
            id,
            &Response::Error {
                code: ErrorCode::UnknownId,
                detail: format!("unknown query {query} or document {doc}"),
            },
        );
    };
    let request = TaskRequest {
        query: query_id,
        doc: doc_id,
        task: task.to_task(),
    };
    let kind = request.task.kind_index();
    let kind_name = request.task.kind_name();
    // Server-side probabilistic sampling arms tracing for requests whose
    // client did not opt in (a fresh non-zero id, never shipped back).
    let sampled_id = if trace_id == 0 {
        shared.sampler.sample().unwrap_or(0)
    } else {
        0
    };
    // Sampled when the client sent a trace id, when the sampler picked the
    // request, or server-side when the slow-query log is armed (the tree
    // must exist by the time a request turns out slow).  Unsampled
    // requests build no tracer at all.
    let tracer = (trace_id != 0 || sampled_id != 0 || shared.config.slow_log_ms > 0).then(|| {
        let tracer = Tracer::with_epoch(
            TraceContext {
                trace_id: if trace_id != 0 { trace_id } else { sampled_id },
                sampled: true,
            },
            received,
        );
        match queue_wait_us {
            // A queued task: the dominant pre-execution cost is its
            // scheduler queue wait.
            Some(waited) => tracer.record(
                "queue_wait",
                0,
                waited,
                None,
                &[
                    ("tenant", tenant.to_string()),
                    ("class", request.task.class().name().to_string()),
                ],
            ),
            // Inline: everything between frame receipt and here —
            // decode, admission, id resolution.
            None => tracer.record(
                "admit",
                0,
                tracer.now_us(),
                None,
                &[("tenant", tenant.to_string())],
            ),
        };
        tracer
    });

    if let crate::proto::WireTask::Enumerate { .. } = task {
        // Stream pages as the enumeration produces them; the terminal
        // frame carries the stats.  A write failure stops the enumeration
        // (the service sees `false` from the sink) and ends the
        // connection via the propagated error.
        let mut sink_error: Option<io::Error> = None;
        let result = shared.service.run_paged_traced(
            &request,
            shared.config.page_size,
            &mut |tuples| match conn.send(id, &Response::Page { tuples }) {
                Ok(()) => {
                    shared
                        .metrics
                        .pages_streamed
                        .fetch_add(1, Ordering::Relaxed);
                    true
                }
                Err(e) => {
                    sink_error = Some(e);
                    false
                }
            },
            tracer.as_ref(),
        );
        if let Some(e) = sink_error {
            return Err(e);
        }
        let total_us = received.elapsed().as_micros() as u64;
        shared.obs.observe(kind, tenant, total_us);
        return match result {
            Ok(response) => {
                let trace = finish_trace(
                    shared, tracer, trace_id, sampled_id, tenant, kind_name, total_us,
                );
                conn.send(
                    id,
                    &Response::StreamEnd {
                        streamed: response.stats.results,
                        stats: (&response.stats).into(),
                        trace,
                    },
                )
            }
            Err(e) => conn.send(
                id,
                &Response::Error {
                    code: eval_error_code(&e),
                    detail: e.to_string(),
                },
            ),
        };
    }

    let result = shared.service.run_traced(&request, tracer.as_ref());
    let total_us = received.elapsed().as_micros() as u64;
    shared.obs.observe(kind, tenant, total_us);
    let response = match result {
        Ok(response) => {
            let trace = finish_trace(
                shared, tracer, trace_id, sampled_id, tenant, kind_name, total_us,
            );
            let stats: WireStats = (&response.stats).into();
            match response.outcome {
                spanner_slp_core::service::TaskOutcome::NonEmpty(value) => Response::NonEmpty {
                    value,
                    stats,
                    trace,
                },
                spanner_slp_core::service::TaskOutcome::Checked(value) => Response::Checked {
                    value,
                    stats,
                    trace,
                },
                spanner_slp_core::service::TaskOutcome::Count(value) => Response::Counted {
                    value,
                    stats,
                    trace,
                },
                spanner_slp_core::service::TaskOutcome::Tuples(tuples) => Response::Tuples {
                    tuples,
                    stats,
                    trace,
                },
            }
        }
        Err(e) => Response::Error {
            code: eval_error_code(&e),
            detail: e.to_string(),
        },
    };
    conn.send(id, &response)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let config = ServerConfig::default();
        assert!(config.scheduler_workers > 0);
        assert!(config.max_frame_len >= 4096);
        assert!(config.page_size > 0);
        assert!(config.poll_interval > Duration::ZERO);
    }
}

//! The remote shard-execution backend: a self-managing worker-fleet
//! client implementing the evaluation core's [`ShardExecutor`] over the
//! wire protocol.
//!
//! A [`RemoteExecutor`] holds the addresses of long-running
//! `spanner-server --worker` processes.  When a sharded matrix build
//! scatters, every job of the build is in flight at once, one scoped
//! thread each, and each shard's [`ShardJob`] becomes a `shard_build` frame —
//! the query's end-transformed automaton plus the shard's *standalone
//! rule block*, never the document text — and the worker answers with the
//! block's three-valued summaries as packed bitplanes, so the gather leg
//! is summary-sized.  On top of that seam the executor manages the fleet:
//!
//! * **Content-addressed negotiation.**  Both payload halves are keyed by
//!   content hash ([`WireNfa::content_hash`],
//!   `NormalFormSlp::content_hash`).  The executor remembers, per worker,
//!   which hashes it has successfully shipped and sends hash-only frames
//!   for those — a warm re-build of a document collapses to hash-sized
//!   scatter traffic.  A worker that lost the bytes (restart, cache
//!   eviction) answers `need`, and the exchange re-sends them on the same
//!   connection ([`RemoteExecutor::renegotiation_count`]).
//! * **Rendezvous placement.**  Shards map to workers by
//!   highest-random-weight hashing of the block's content hash against
//!   each worker's address: deterministic, stable when a worker leaves
//!   the pool (only its shards move), and cache-affine — the same block
//!   keeps landing on the same warm worker.
//! * **Re-issued passes.**  A shard pass is a pure function of its block
//!   and the automaton, so any worker can answer it.  When the primary
//!   fails (refused connect, dead process, timeout, bad reply) or is
//!   still unanswered after a per-shard latency budget — fixed
//!   ([`RemoteExecutor::with_hedge_after`]) or 3× the median of recent
//!   winning round trips — the shard is re-issued to the next worker
//!   in its rendezvous ranking and the first answer wins.  Both attempts
//!   compute the same deterministic summaries, so whichever copy lands
//!   first is entry-identical to the other.  There is no membership
//!   state: every build tries each shard's primary again.  A dead process
//!   costs one refused connect per shard placed on it.  On an unreachable
//!   host the attempts queued behind a timed-out connect fail with it
//!   instead of each reconnecting, and the adaptive budget learns only
//!   the winning attempts' round trips, so once the budget has samples
//!   the host costs each of its shards one budget wait; until then a
//!   build's shards on it, all in flight together, wait out one connect
//!   timeout between them.  A restarted worker is
//!   back as soon as it accepts (its first `need` answer renegotiates the
//!   forgotten blocks).
//!
//! **Results are never lost.**  When no second worker exists or both
//! attempts fail — connection refused, a worker dying mid-build, a
//! timeout, a malformed or short reply, busy backpressure beyond the
//! retry budget — the shard falls back to the in-process
//! [`LocalExecutor`], the outcome is marked as a fallback (surfaced
//! through `ShardBuildStats::fallbacks` and
//! [`RemoteExecutor::fallback_count`]) and the broken connection is
//! dropped so the next build reconnects cleanly.  A build against a fully
//! dead pool therefore degrades to exactly the local scatter-gather path.

use crate::client::ClientError;
use crate::proto::{ErrorCode, Request, Response, WireNfa};
use slp::NfRule;
use spanner_slp_core::executor::{LocalExecutor, ShardExecutor, ShardJob, ShardOutcome};
use spanner_slp_core::matrices::RMatrix;
use spanner_slp_core::prepared::EByte;
use spanner_slp_core::trace::{self, Hist, HistSnapshot, ShardTrace, SpanRec};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Key domains of the per-worker shipped-hash memory (mirrors the
/// worker's cache key domains).
const DOMAIN_NFA: u8 = 0;
const DOMAIN_BLOCK: u8 = 1;

/// One pooled worker: its address, a lazily re-established connection and
/// the set of content hashes known to be shipped.
#[derive(Debug)]
struct WorkerSlot {
    addr: String,
    /// The live connection and the last failure.  The mutex also
    /// serializes the lock-step request/response exchange per worker;
    /// shards assigned to *different* workers proceed in parallel.
    link: Mutex<Link>,
    /// Content hashes this worker has acknowledged receiving the bytes
    /// for — the coordinator's half of the have/need negotiation.  An
    /// entry here only ever costs one extra round-trip if it turns out
    /// stale (the worker answers `need`).
    shipped: Mutex<HashSet<(u8, u64)>>,
}

/// A worker slot's connection state, behind the slot's one mutex.
#[derive(Debug, Default)]
struct Link {
    /// The live connection, if any.
    conn: Option<Conn>,
    /// When the last exchange failed.  Attempts issued before then fail
    /// at once instead of reconnecting, so those queued behind a timed-out
    /// connect do not each pay the connect timeout again.
    failed_at: Option<Instant>,
}

#[derive(Debug)]
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// The shared half of the executor: worker slots plus every counter, held
/// in an `Arc` so attempt threads outlive no one.
#[derive(Debug)]
struct Pool {
    workers: Vec<WorkerSlot>,
    fallbacks: AtomicU64,
    remote_passes: AtomicU64,
    scatter_bytes: AtomicU64,
    gather_bytes: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    hash_only_passes: AtomicU64,
    renegotiations: AtomicU64,
    /// Every shard pass's total wall-clock (remote wins and local
    /// fallbacks alike) — the histogram behind the adaptive-hedge window.
    pass_hist: Hist,
}

/// The copyable exchange knobs handed to attempt threads.
#[derive(Debug, Clone, Copy)]
struct ExchangeCfg {
    timeout: Duration,
    max_frame: usize,
    busy_retries: usize,
}

/// One shard's owned wire payload: everything an attempt thread needs to
/// run the negotiation without borrowing the job.
struct Payload {
    wire_nfa: WireNfa,
    rules: Vec<NfRule<EByte>>,
    root: u64,
    nfa_hash: u64,
    block_hash: u64,
    /// Trace id propagated on the wire (`"tr"` key); 0 when the build is
    /// unsampled, and the key is then omitted entirely.
    trace: u64,
    expected_q: usize,
    expected_rows: usize,
}

impl Payload {
    fn of_job(job: &ShardJob<'_>) -> Payload {
        let wire_nfa = WireNfa::from_nfa(job.nfa);
        let nfa_hash = wire_nfa.content_hash();
        let block_hash = job.block.content_hash();
        Payload {
            wire_nfa,
            rules: job.block.rules().to_vec(),
            root: job.block.start().0 as u64,
            nfa_hash,
            block_hash,
            trace: job
                .trace
                .filter(|t| t.ctx.sampled)
                .map(|t| t.ctx.trace_id)
                .unwrap_or(0),
            expected_q: job.nfa.num_states(),
            expected_rows: job.block.num_non_terminals(),
        }
    }

    /// Encodes one `shard_build` frame (newline-terminated), shipping each
    /// half inline or as its hash alone.
    fn frame(&self, include_nfa: bool, include_block: bool) -> Vec<u8> {
        let request = Request::ShardBuild {
            nfa: include_nfa.then(|| self.wire_nfa.clone()),
            rules: include_block.then(|| self.rules.clone()),
            root: self.root,
            nfa_hash: self.nfa_hash,
            block_hash: self.block_hash,
            trace: self.trace,
        };
        let mut frame = request.encode();
        frame.push(b'\n');
        frame
    }
}

/// A fleet client that executes shard passes on remote worker processes,
/// falling back to [`LocalExecutor`] whenever a worker cannot answer.
/// See the module docs for placement, negotiation, hedging and the
/// failure semantics.
#[derive(Debug)]
pub struct RemoteExecutor {
    pool: Arc<Pool>,
    /// Per-exchange connect, read and write timeout: a worker that stalls
    /// longer than this has its shard re-issued (or, failing that, re-run
    /// locally).
    timeout: Duration,
    /// Frame cap, both ways: scatter frames larger than this are not
    /// shipped at all (the workers' `ServerConfig::max_frame_len` would
    /// reject them anyway — falling back locally up front avoids moving
    /// megabytes just to be refused on every build), and worker replies
    /// are read at most this far, so a misbehaving peer streaming
    /// newline-free bytes cannot grow coordinator memory without bound.
    max_frame: usize,
    /// How many times a `busy` answer is retried before falling back.
    busy_retries: usize,
    /// Fixed hedge budget; `None` = adaptive (3× the median of recent
    /// winning round trips, once enough samples exist).
    hedge_after: Option<Duration>,
    /// Round-trip times of recent winning attempts, feeding the adaptive
    /// budget.
    latencies: Mutex<VecDeque<Duration>>,
}

/// Latency samples required before the adaptive hedge budget activates.
const HEDGE_MIN_SAMPLES: usize = 8;
/// Latency samples retained for the adaptive hedge budget.
const HEDGE_WINDOW: usize = 64;

impl RemoteExecutor {
    /// Creates a pool client over worker addresses (e.g.
    /// `["127.0.0.1:7001", "127.0.0.1:7002"]`) with a 10-second exchange
    /// timeout and adaptive hedging.
    ///
    /// # Panics
    /// If `addrs` is empty — an empty pool is a configuration error, not a
    /// "silently always local" mode.
    pub fn new<S: Into<String>>(addrs: impl IntoIterator<Item = S>) -> RemoteExecutor {
        let workers: Vec<WorkerSlot> = addrs
            .into_iter()
            .map(|addr| WorkerSlot {
                addr: addr.into(),
                link: Mutex::new(Link::default()),
                shipped: Mutex::new(HashSet::new()),
            })
            .collect();
        assert!(
            !workers.is_empty(),
            "a remote pool needs at least one worker"
        );
        RemoteExecutor {
            pool: Arc::new(Pool {
                workers,
                fallbacks: AtomicU64::new(0),
                remote_passes: AtomicU64::new(0),
                scatter_bytes: AtomicU64::new(0),
                gather_bytes: AtomicU64::new(0),
                hedges: AtomicU64::new(0),
                hedge_wins: AtomicU64::new(0),
                hash_only_passes: AtomicU64::new(0),
                renegotiations: AtomicU64::new(0),
                pass_hist: Hist::new(),
            }),
            timeout: Duration::from_secs(10),
            busy_retries: 20,
            max_frame: crate::server::ServerConfig::default().max_frame_len,
            hedge_after: None,
            latencies: Mutex::new(VecDeque::new()),
        }
    }

    /// Sets the per-exchange timeout (connection, write and read).
    pub fn with_timeout(mut self, timeout: Duration) -> RemoteExecutor {
        self.timeout = timeout;
        self
    }

    /// Sets the frame cap, which must match the workers'
    /// `ServerConfig::max_frame_len` (the default matches the server
    /// default).  Shard blocks that would exceed it run locally without
    /// touching the wire.
    pub fn with_max_frame(mut self, max_frame: usize) -> RemoteExecutor {
        self.max_frame = max_frame.max(1);
        self
    }

    /// Fixes the hedge budget: a shard unanswered after `budget` is
    /// re-issued to the next worker in its rendezvous ranking.  Without
    /// this the budget adapts to 3× the median of recent winning round trips
    /// (no hedging until enough samples exist).
    pub fn with_hedge_after(mut self, budget: Duration) -> RemoteExecutor {
        self.hedge_after = Some(budget);
        self
    }

    /// Number of workers in the pool.
    pub fn worker_count(&self) -> usize {
        self.pool.workers.len()
    }

    /// Shard passes completed remotely over this executor's lifetime.
    pub fn remote_pass_count(&self) -> u64 {
        self.pool.remote_passes.load(Ordering::Relaxed)
    }

    /// Shard passes that fell back to local execution.
    pub fn fallback_count(&self) -> u64 {
        self.pool.fallbacks.load(Ordering::Relaxed)
    }

    /// Bytes shipped to workers (serialized shard blocks + automata, or
    /// their hashes on warm paths) — the scatter leg of the wire cost.
    pub fn scatter_bytes(&self) -> u64 {
        self.pool.scatter_bytes.load(Ordering::Relaxed)
    }

    /// Bytes received from workers (summary rows) — the gather leg.
    pub fn gather_bytes(&self) -> u64 {
        self.pool.gather_bytes.load(Ordering::Relaxed)
    }

    /// Shard passes re-issued to a second worker, after a failed primary
    /// or after the hedge budget.
    pub fn hedge_count(&self) -> u64 {
        self.pool.hedges.load(Ordering::Relaxed)
    }

    /// Re-issued passes whose *second* copy answered first (after a
    /// failed primary, the only copy that answered).
    pub fn hedge_win_count(&self) -> u64 {
        self.pool.hedge_wins.load(Ordering::Relaxed)
    }

    /// Remote passes completed without shipping any block bytes (both
    /// halves answered from the worker's content-addressed cache).
    pub fn hash_only_pass_count(&self) -> u64 {
        self.pool.hash_only_passes.load(Ordering::Relaxed)
    }

    /// `need` answers received: hash-only frames the worker could not
    /// satisfy, each followed by an inline re-send on the same connection.
    pub fn renegotiation_count(&self) -> u64 {
        self.pool.renegotiations.load(Ordering::Relaxed)
    }

    /// The hedge budget currently in force, in microseconds — the fixed
    /// budget, or 3× the window median once enough samples exist.  0 while
    /// hedging is off (adaptive mode warming up).
    pub fn hedge_budget_us(&self) -> u64 {
        self.hedge_budget()
            .map(|d| d.as_micros() as u64)
            .unwrap_or(0)
    }

    /// Latency samples currently held in the adaptive-hedge window.
    pub fn hedge_sample_count(&self) -> u64 {
        self.latencies
            .lock()
            .expect("latency window poisoned")
            .len() as u64
    }

    /// Snapshot of the shard-pass latency histogram (remote passes and
    /// local fallbacks alike).
    pub fn pass_latency_histogram(&self) -> HistSnapshot {
        self.pool.pass_hist.snapshot()
    }

    fn cfg(&self) -> ExchangeCfg {
        ExchangeCfg {
            timeout: self.timeout,
            max_frame: self.max_frame,
            busy_retries: self.busy_retries,
        }
    }

    /// The current hedge budget, or `None` when hedging is off (adaptive
    /// mode without enough samples yet).
    fn hedge_budget(&self) -> Option<Duration> {
        if let Some(fixed) = self.hedge_after {
            return Some(fixed.max(Duration::from_micros(100)));
        }
        let latencies = self.latencies.lock().expect("latency window poisoned");
        if latencies.len() < HEDGE_MIN_SAMPLES {
            return None;
        }
        let mut sorted: Vec<Duration> = latencies.iter().copied().collect();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        Some((median * 3).max(Duration::from_millis(1)))
    }

    fn record_latency(&self, sample: Duration) {
        let mut latencies = self.latencies.lock().expect("latency window poisoned");
        if latencies.len() == HEDGE_WINDOW {
            latencies.pop_front();
        }
        latencies.push_back(sample);
    }
}

/// Ranks the workers for `key` by rendezvous (highest-random-weight)
/// hashing: score every worker by `fnv(addr ++ key)` and sort descending.
/// Deterministic for a given pool; removing a worker only moves the
/// shards it owned.
fn rendezvous_ranking(pool: &Pool, key: u64) -> Vec<usize> {
    use std::hash::Hasher;
    let mut scored: Vec<(u64, usize)> = pool
        .workers
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let mut h = slp::Fnv64::new();
            h.write(w.addr.as_bytes());
            h.write_u64(key);
            (h.finish(), i)
        })
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    scored.into_iter().map(|(_, i)| i).collect()
}

/// One lock-step negotiated `shard_build` exchange with worker `idx`:
/// optimistic frame under the shipped-hash memory, at most one `need`
/// re-send, busy retries.  Any error leaves the slot disconnected so the
/// next call starts from a fresh connection, and stamps the failure so
/// that attempts issued before it fail at once instead of reconnecting.
fn exchange(
    pool: &Pool,
    idx: usize,
    cfg: ExchangeCfg,
    payload: &Payload,
    issued: Instant,
) -> Result<(Vec<RMatrix>, Vec<SpanRec>), ClientError> {
    let slot = &pool.workers[idx];
    let mut link = slot.link.lock().expect("worker slot poisoned");
    if link.conn.is_none() && link.failed_at.is_some_and(|failed| failed >= issued) {
        return Err(ClientError::Protocol(format!(
            "an exchange with {} failed while this attempt waited",
            slot.addr
        )));
    }
    let guard = &mut link.conn;

    let result = (|| -> Result<(Vec<RMatrix>, Vec<SpanRec>), ClientError> {
        for attempt in 0.. {
            let conn = match guard.as_mut() {
                Some(conn) => conn,
                None => {
                    let addr = slot.addr.to_socket_addrs()?.next().ok_or_else(|| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidInput,
                            format!("{} resolves to no address", slot.addr),
                        )
                    })?;
                    let stream = TcpStream::connect_timeout(&addr, cfg.timeout)?;
                    stream.set_nodelay(true)?;
                    stream.set_read_timeout(Some(cfg.timeout))?;
                    stream.set_write_timeout(Some(cfg.timeout))?;
                    *guard = Some(Conn {
                        reader: BufReader::new(stream.try_clone()?),
                        writer: stream,
                    });
                    guard.as_mut().expect("just connected")
                }
            };
            // Optimistic frame: ship only the halves this worker is not
            // known to hold.
            let (include_nfa, include_block) = {
                let shipped = slot.shipped.lock().expect("shipped set poisoned");
                (
                    !shipped.contains(&(DOMAIN_NFA, payload.nfa_hash)),
                    !shipped.contains(&(DOMAIN_BLOCK, payload.block_hash)),
                )
            };
            let frame = payload.frame(include_nfa, include_block);
            conn.writer.write_all(&frame)?;
            conn.writer.flush()?;
            pool.scatter_bytes
                .fetch_add(frame.len() as u64, Ordering::Relaxed);

            match read_reply(conn, cfg, pool)? {
                Response::ShardBuilt { q, rows, spans, .. } => {
                    if q as usize != payload.expected_q || rows.len() != payload.expected_rows {
                        return Err(ClientError::Protocol(format!(
                            "worker answered q={q}, {} rows for a q={}, {}-rule block",
                            rows.len(),
                            payload.expected_q,
                            payload.expected_rows,
                        )));
                    }
                    {
                        let mut shipped = slot.shipped.lock().expect("shipped set poisoned");
                        shipped.insert((DOMAIN_NFA, payload.nfa_hash));
                        shipped.insert((DOMAIN_BLOCK, payload.block_hash));
                    }
                    if !include_nfa && !include_block {
                        pool.hash_only_passes.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok((rows, spans));
                }
                Response::NeedBlocks {
                    need_nfa,
                    need_block,
                } => {
                    // The worker lost (or never had) what we thought we
                    // shipped: forget it and loop — the next frame carries
                    // the bytes inline on this same connection.
                    if (need_nfa && include_nfa) || (need_block && include_block) {
                        return Err(ClientError::Protocol(
                            "worker demanded blocks that were sent inline".into(),
                        ));
                    }
                    pool.renegotiations.fetch_add(1, Ordering::Relaxed);
                    let mut shipped = slot.shipped.lock().expect("shipped set poisoned");
                    if need_nfa {
                        shipped.remove(&(DOMAIN_NFA, payload.nfa_hash));
                    }
                    if need_block {
                        shipped.remove(&(DOMAIN_BLOCK, payload.block_hash));
                    }
                }
                Response::Error {
                    code: ErrorCode::Busy,
                    ..
                } if attempt < cfg.busy_retries => {
                    // Structured backpressure: the worker's queue is
                    // full, not broken — back off briefly.
                    std::thread::sleep(Duration::from_millis(2));
                }
                Response::Error { code, detail } => {
                    return Err(ClientError::Server { code, detail })
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "expected shard rows, got {other:?}"
                    )))
                }
            }
        }
        unreachable!("the retry loop returns")
    })();
    if result.is_err() {
        // Whatever broke, do not reuse the stream: the lock-step protocol
        // state is unknown.  The next build reconnects.
        link.conn = None;
        link.failed_at = Some(Instant::now());
    }
    result
}

/// Reads one bounded reply frame: a peer streaming newline-free bytes
/// must exhaust the cap, not the coordinator's memory.
fn read_reply(conn: &mut Conn, cfg: ExchangeCfg, pool: &Pool) -> Result<Response, ClientError> {
    let mut line = Vec::new();
    let n = (&mut conn.reader)
        .take(cfg.max_frame as u64 + 1)
        .read_until(b'\n', &mut line)?;
    if n == 0 {
        return Err(ClientError::Protocol(
            "worker closed the connection mid-build".into(),
        ));
    }
    if line.last() != Some(&b'\n') {
        return Err(ClientError::Protocol(format!(
            "worker reply exceeds the {}-byte frame cap",
            cfg.max_frame
        )));
    }
    pool.gather_bytes
        .fetch_add(line.len() as u64, Ordering::Relaxed);
    line.pop();
    Ok(Response::decode(&line)?)
}

/// One hedge attempt's answer: attempt index, worker index, round-trip
/// time, and the rows plus the worker's span fragment (worker timebase).
type AttemptReply = (
    usize,
    usize,
    Duration,
    Result<(Vec<RMatrix>, Vec<SpanRec>), ClientError>,
);

/// Builds the span record for one winning remote attempt: a `shard_rpc`
/// span anchored at the attempt's issue offset (request timebase), with
/// the worker's fragment re-based under it — the worker clock starts at
/// its frame receipt, so adding the issue offset places its spans inside
/// the rpc window (wire latency shows up as the gap on either side).  A
/// worker sees a standalone block and labels its pass shard 0, so the
/// grafted spans take the coordinator's shard index.
fn rpc_spans(
    trace: Option<ShardTrace>,
    shard: usize,
    worker_addr: &str,
    attempt: usize,
    issue_us: u64,
    rtt: Duration,
    fragment: &[SpanRec],
) -> Vec<SpanRec> {
    if trace.filter(|t| t.ctx.sampled).is_none() {
        return Vec::new();
    }
    let mut spans = vec![SpanRec {
        name: "shard_rpc".to_string(),
        start_us: issue_us,
        dur_us: rtt.as_micros() as u64,
        parent: None,
        attrs: vec![
            ("shard".to_string(), shard.to_string()),
            ("worker".to_string(), worker_addr.to_string()),
            ("attempt".to_string(), attempt.to_string()),
        ],
    }];
    trace::graft(&mut spans, fragment, Some(0), issue_us);
    for (key, value) in spans[1..].iter_mut().flat_map(|span| &mut span.attrs) {
        if key == "shard" {
            *value = shard.to_string();
        }
    }
    spans
}

impl RemoteExecutor {
    /// One shard's pass: the primary attempt, at most one re-issue, and
    /// the local fallback.
    fn execute_one(&self, job: &ShardJob<'_>) -> ShardOutcome {
        let start = Instant::now();
        let payload = Arc::new(Payload::of_job(job));
        // Up-front frame-cap check on the *full* frame: a block the
        // workers would reject as oversized runs locally without shipping
        // a byte (and without betting on a hash-only frame whose `need`
        // answer would force the oversized bytes anyway).
        let oversized = payload.frame(true, true).len() > self.max_frame;
        let ranking = rendezvous_ranking(&self.pool, payload.block_hash);
        let sampled = job.trace.filter(|t| t.ctx.sampled);

        // The winning attempt's rows and round-trip time.
        let mut rows: Option<(Vec<RMatrix>, Duration)> = None;
        let mut spans: Vec<SpanRec> = Vec::new();
        let mut hedged = false;
        if !oversized {
            let (tx, rx) = mpsc::channel::<AttemptReply>();
            let cfg = self.cfg();
            let spawn_attempt = |attempt: usize, worker: usize| {
                let pool = self.pool.clone();
                let payload = payload.clone();
                let tx = tx.clone();
                std::thread::spawn(move || {
                    let issued = Instant::now();
                    let result = exchange(&pool, worker, cfg, &payload, issued);
                    let _ = tx.send((attempt, worker, issued.elapsed(), result));
                });
            };
            let mut issue_us = [0u64; 2];
            if let Some(trace) = sampled {
                issue_us[0] = trace.offset_us(Instant::now());
            }
            spawn_attempt(0, ranking[0]);
            // The hard deadline only guards against pathological stalls;
            // attempt threads are already bounded by their socket
            // timeouts.
            let hard_wait = cfg.timeout.saturating_mul(2) + Duration::from_secs(1);
            let first_wait = self.hedge_budget().unwrap_or(hard_wait).min(hard_wait);
            let first = rx.recv_timeout(first_wait);
            match first {
                Ok((attempt, worker, rtt, Ok((answer, fragment)))) => {
                    spans = rpc_spans(
                        sampled,
                        job.shard_index,
                        &self.pool.workers[worker].addr,
                        attempt,
                        issue_us[attempt],
                        rtt,
                        &fragment,
                    );
                    rows = Some((answer, rtt));
                }
                first => {
                    // The primary failed or is a straggler.  Re-issue to
                    // the next worker in the ranking and take whichever
                    // answers first; the loser's result is discarded when
                    // it lands (both are entry-identical by contract).  A
                    // straggler is still outstanding; a failed primary is
                    // not.
                    let mut outstanding = usize::from(first.is_err());
                    if let Some(&second) = ranking.get(1) {
                        hedged = true;
                        self.pool.hedges.fetch_add(1, Ordering::Relaxed);
                        if let Some(trace) = sampled {
                            issue_us[1] = trace.offset_us(Instant::now());
                            spans.push(SpanRec {
                                name: "hedge_issue".to_string(),
                                start_us: issue_us[1],
                                dur_us: 0,
                                parent: None,
                                attrs: vec![
                                    ("shard".to_string(), job.shard_index.to_string()),
                                    ("worker".to_string(), self.pool.workers[second].addr.clone()),
                                ],
                            });
                        }
                        spawn_attempt(1, second);
                        outstanding += 1;
                    }
                    while outstanding > 0 && rows.is_none() {
                        match rx.recv_timeout(hard_wait) {
                            Ok((attempt, worker, rtt, Ok((answer, fragment)))) => {
                                outstanding -= 1;
                                if attempt == 1 {
                                    self.pool.hedge_wins.fetch_add(1, Ordering::Relaxed);
                                }
                                let mut won = rpc_spans(
                                    sampled,
                                    job.shard_index,
                                    &self.pool.workers[worker].addr,
                                    attempt,
                                    issue_us[attempt],
                                    rtt,
                                    &fragment,
                                );
                                if attempt == 1 {
                                    if let Some(root) = won.first_mut() {
                                        root.attrs
                                            .push(("hedge_win".to_string(), "true".to_string()));
                                    }
                                }
                                spans.append(&mut won);
                                rows = Some((answer, rtt));
                            }
                            Ok((_, _, _, Err(_))) => outstanding -= 1,
                            Err(_) => break,
                        }
                    }
                }
            }
        }

        match rows {
            Some((rows, rtt)) => {
                self.pool.remote_passes.fetch_add(1, Ordering::Relaxed);
                let elapsed = start.elapsed();
                // The budget bounds one attempt's wait: learn from the
                // winner alone, never from a failed primary's wait.
                self.record_latency(rtt);
                self.pool.pass_hist.observe(elapsed.as_micros() as u64);
                ShardOutcome {
                    rows,
                    // Leaf tables are rebuilt by the coordinator from the
                    // automaton; they never cross the wire.
                    leaf_tables: None,
                    elapsed,
                    fallback: false,
                    hedged,
                    spans,
                }
            }
            None => {
                self.pool.fallbacks.fetch_add(1, Ordering::Relaxed);
                if let Some(trace) = sampled {
                    spans.push(SpanRec {
                        name: "local_fallback".to_string(),
                        start_us: trace.offset_us(Instant::now()),
                        dur_us: 0,
                        parent: None,
                        attrs: vec![("shard".to_string(), job.shard_index.to_string())],
                    });
                }
                let mut outcome = LocalExecutor.execute(&[*job]).remove(0);
                outcome.fallback = true;
                outcome.hedged = hedged;
                // Charge the failed remote attempt (connect, stall, up to
                // the full timeout) to this shard too: the build really
                // did wait that long, and `ShardBuildStats::critical_path`
                // (the `remote.critical_path_us` benchmark metric) must
                // see the wait.
                outcome.elapsed = start.elapsed();
                self.pool
                    .pass_hist
                    .observe(outcome.elapsed.as_micros() as u64);
                spans.append(&mut outcome.spans);
                outcome.spans = spans;
                outcome
            }
        }
    }
}

impl ShardExecutor for RemoteExecutor {
    fn execute(&self, jobs: &[ShardJob<'_>]) -> Vec<ShardOutcome> {
        std::thread::scope(|scope| {
            let passes: Vec<_> = jobs
                .iter()
                .map(|job| scope.spawn(move || self.execute_one(job)))
                .collect();
            passes
                .into_iter()
                .map(|pass| pass.join().expect("shard pass panicked"))
                .collect()
        })
    }

    fn name(&self) -> &'static str {
        "remote"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_pools_are_rejected() {
        RemoteExecutor::new(Vec::<String>::new());
    }

    #[test]
    fn counters_start_at_zero() {
        let executor = RemoteExecutor::new(["127.0.0.1:1"]);
        assert_eq!(executor.worker_count(), 1);
        assert_eq!(executor.remote_pass_count(), 0);
        assert_eq!(executor.fallback_count(), 0);
        assert_eq!(executor.scatter_bytes() + executor.gather_bytes(), 0);
        assert_eq!(executor.hedge_count() + executor.hedge_win_count(), 0);
        assert_eq!(
            executor.hash_only_pass_count() + executor.renegotiation_count(),
            0
        );
        assert_eq!(executor.name(), "remote");
    }

    #[test]
    fn rendezvous_ranking_is_deterministic_and_stable_under_leave() {
        let addrs = ["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"];
        let full = RemoteExecutor::new(addrs);
        for key in [1u64, 42, 0xdead_beef, u64::MAX] {
            let a = rendezvous_ranking(&full.pool, key);
            let b = rendezvous_ranking(&full.pool, key);
            assert_eq!(a, b, "same pool, same key, same ranking");
            assert_eq!(a.len(), 3);
        }
        // A pool without the second address must not move keys between
        // the others: every key either keeps its primary or (if the
        // missing worker owned it) falls to its old second choice.
        let without = RemoteExecutor::new([addrs[0], addrs[2]]);
        let by_addr = |executor: &RemoteExecutor, key: u64| -> Vec<String> {
            rendezvous_ranking(&executor.pool, key)
                .into_iter()
                .map(|i| executor.pool.workers[i].addr.clone())
                .collect()
        };
        for key in 0..200u64 {
            let expected: Vec<String> = by_addr(&full, key)
                .into_iter()
                .filter(|a| a != addrs[1])
                .collect();
            assert_eq!(
                by_addr(&without, key),
                expected,
                "key {key}: the others keep their relative order"
            );
        }
    }

    #[test]
    fn rendezvous_spreads_keys_over_the_pool() {
        let executor = RemoteExecutor::new(["127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003"]);
        let mut owned = [0usize; 3];
        for key in 0..300 {
            owned[rendezvous_ranking(&executor.pool, key)[0]] += 1;
        }
        for (i, &count) in owned.iter().enumerate() {
            assert!(
                count > 30,
                "worker {i} owns {count}/300 keys — placement is pathologically skewed"
            );
        }
    }

    #[test]
    fn fixed_hedge_budget_overrides_the_adaptive_window() {
        let fixed =
            RemoteExecutor::new(["127.0.0.1:1"]).with_hedge_after(Duration::from_millis(50));
        assert_eq!(fixed.hedge_budget(), Some(Duration::from_millis(50)));

        let adaptive = RemoteExecutor::new(["127.0.0.1:1"]);
        assert_eq!(
            adaptive.hedge_budget(),
            None,
            "no samples yet — hedging stays off"
        );
        for _ in 0..HEDGE_MIN_SAMPLES {
            adaptive.record_latency(Duration::from_millis(10));
        }
        assert_eq!(adaptive.hedge_budget(), Some(Duration::from_millis(30)));
    }
}

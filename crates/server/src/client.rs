//! Clients for the wire protocol: the blocking [`Client`] (typed calls
//! over one TCP connection, page streaming for `enumerate`), the v3
//! [`PipelinedClient`] (many requests in flight on one socket, responses
//! matched back by request id), and a busy-retry helper with capped
//! exponential backoff.
//!
//! [`Client`] keeps the lock-step discipline (one request, then its
//! response — or its page stream): a simple synchronous state machine
//! whose frames carry no request id.
//! [`PipelinedClient`] tags every submission with a fresh id and lets the
//! server complete them out of order — `submit` as fast as the socket
//! accepts, then `poll` replies in completion order.  Server-side errors
//! surface as [`ClientError::Server`] with the structured [`ErrorCode`],
//! so callers can distinguish backpressure ([`ErrorCode::Busy`] — retry)
//! and deadline shedding ([`ErrorCode::Expired`]) from real failures.

use crate::proto::{ErrorCode, FrameMeta, ProtoError, Request, Response, WireStats, WireTask};
use spanner::SpanTuple;
use spanner_slp_core::trace::{splitmix64, SpanRec};
use spanner_store::TenantSpec;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Process-wide trace-id counter: ids are `pid << 32 | counter`, unique
/// within a process and practically unique across the clients of one
/// server (never 0, which the wire reserves for "unsampled").
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(1);

fn next_trace_id() -> u64 {
    (std::process::id() as u64) << 32 | TRACE_COUNTER.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff
}

/// What a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (connection refused, reset, …).
    Io(io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered with a structured error frame.
    Server {
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Protocol(detail) => write!(f, "protocol violation: {detail}"),
            ClientError::Server { code, detail } => write!(f, "server error [{code}]: {detail}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

impl ClientError {
    /// `true` if this is the server's structured backpressure signal
    /// ([`ErrorCode::Busy`]) — the one error that invites a retry.
    pub fn is_busy(&self) -> bool {
        matches!(
            self,
            ClientError::Server {
                code: ErrorCode::Busy,
                ..
            }
        )
    }
}

/// The document-registration receipt of `add_doc` / `add_doc_sharded`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocReceipt {
    /// Wire id for task requests.
    pub id: u64,
    /// Shard count the server registered the document with (interesting
    /// after `add_doc_sharded(…, 0)`, where the server auto-tunes it).
    pub shards: u64,
    /// Document length in bytes.
    pub len: u64,
}

/// A connected protocol client.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The tenant namespace corpus verbs and tasks run in; `0` (the
    /// default tenant) keeps the tenant key off the wire.
    tenant: u32,
    /// When `true`, every task request carries a fresh trace id (`"tr"`)
    /// and the server's span tree is captured in [`Client::last_trace`].
    tracing: bool,
    /// The span forest of the most recent traced response.
    last_trace: Option<Vec<SpanRec>>,
}

impl Client {
    /// Connects to a server (as the default tenant).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            tenant: 0,
            tracing: false,
            last_trace: None,
        })
    }

    /// Turns request tracing on or off: when on, every task request is
    /// *sampled* — it carries a fresh trace id, the server records spans
    /// end-to-end (through workers, for sharded documents), and the
    /// stitched tree is captured in [`Client::last_trace`].
    pub fn set_tracing(&mut self, on: bool) {
        self.tracing = on;
        if !on {
            self.last_trace = None;
        }
    }

    /// The span forest of the most recent traced task response (`None`
    /// before any traced call, or when tracing is off).
    pub fn last_trace(&self) -> Option<&[SpanRec]> {
        self.last_trace.as_deref()
    }

    /// The trace id the next task request will carry: a fresh id when
    /// tracing is on, 0 (unsampled) otherwise.
    fn task_trace_id(&self) -> u64 {
        if self.tracing {
            next_trace_id()
        } else {
            0
        }
    }

    /// Captures the `"trace"` field of a task response.
    fn capture_trace(&mut self, trace: &Option<Vec<SpanRec>>) {
        if let Some(spans) = trace {
            self.last_trace = Some(spans.clone());
        }
    }

    /// Switches the tenant namespace subsequent calls run in (`0` is the
    /// default tenant).
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = tenant;
    }

    /// Builder-style [`Client::set_tenant`].
    pub fn with_tenant(mut self, tenant: u32) -> Client {
        self.set_tenant(tenant);
        self
    }

    /// The tenant namespace this client currently runs in.
    pub fn tenant(&self) -> u32 {
        self.tenant
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut frame = request.encode();
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, ClientError> {
        let mut line = Vec::new();
        let n = self.reader.read_until(b'\n', &mut line)?;
        if n == 0 {
            return Err(ClientError::Protocol("server closed the connection".into()));
        }
        if line.last() == Some(&b'\n') {
            line.pop();
        }
        Ok(Response::decode(&line)?)
    }

    fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.send(request)?;
        let response = self.recv()?;
        if let Response::Error { code, detail } = response {
            return Err(ClientError::Server { code, detail });
        }
        Ok(response)
    }

    /// Probes liveness; returns the server's protocol version.
    pub fn ping(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong { proto } => Ok(proto),
            other => Err(unexpected("pong", &other)),
        }
    }

    /// Compiles and pools a query; returns its wire id.
    pub fn add_query(&mut self, pattern: &str, alphabet: &[u8]) -> Result<u64, ClientError> {
        let request = Request::AddQuery {
            pattern: pattern.to_string(),
            alphabet: alphabet.to_vec(),
        };
        match self.call(&request)? {
            Response::QueryAdded { id } => Ok(id),
            other => Err(unexpected("query id", &other)),
        }
    }

    /// Compresses and pools a document (monolithic).
    pub fn add_doc(&mut self, text: &[u8]) -> Result<DocReceipt, ClientError> {
        self.add_doc_request(&Request::AddDoc {
            tenant: self.tenant,
            text: text.to_vec(),
        })
    }

    /// Compresses and pools a document split into `k` shards; `k = 0` lets
    /// the server auto-tune the count (see the receipt's `shards`).
    pub fn add_doc_sharded(&mut self, text: &[u8], k: u64) -> Result<DocReceipt, ClientError> {
        self.add_doc_request(&Request::AddDocSharded {
            tenant: self.tenant,
            k,
            text: text.to_vec(),
        })
    }

    fn add_doc_request(&mut self, request: &Request) -> Result<DocReceipt, ClientError> {
        match self.call(request)? {
            Response::DocAdded { id, shards, len } => Ok(DocReceipt { id, shards, len }),
            other => Err(unexpected("document receipt", &other)),
        }
    }

    /// Unregisters a pooled document: its wire id stops resolving and the
    /// server invalidates every matrix the document held in its cache.
    pub fn remove_doc(&mut self, doc: u64) -> Result<(), ClientError> {
        match self.call(&Request::RemoveDoc {
            tenant: self.tenant,
            doc,
        })? {
            Response::DocRemoved { id } if id == doc => Ok(()),
            other => Err(unexpected("removal receipt", &other)),
        }
    }

    /// Non-emptiness of a pooled pair.
    pub fn non_empty(&mut self, query: u64, doc: u64) -> Result<(bool, WireStats), ClientError> {
        match self.task(query, doc, WireTask::NonEmptiness)? {
            Response::NonEmpty { value, stats, .. } => Ok((value, stats)),
            other => Err(unexpected("non-emptiness verdict", &other)),
        }
    }

    /// Model-checks a tuple against a pooled pair.
    pub fn model_check(
        &mut self,
        query: u64,
        doc: u64,
        tuple: &SpanTuple,
    ) -> Result<(bool, WireStats), ClientError> {
        match self.task(query, doc, WireTask::ModelCheck(tuple.clone()))? {
            Response::Checked { value, stats, .. } => Ok((value, stats)),
            other => Err(unexpected("model-check verdict", &other)),
        }
    }

    /// Counts the results of a pooled pair.
    pub fn count(&mut self, query: u64, doc: u64) -> Result<(u128, WireStats), ClientError> {
        match self.task(query, doc, WireTask::Count)? {
            Response::Counted { value, stats, .. } => Ok((value, stats)),
            other => Err(unexpected("count", &other)),
        }
    }

    /// Materialises (up to `limit`) results of a pooled pair.
    pub fn compute(
        &mut self,
        query: u64,
        doc: u64,
        limit: Option<u64>,
    ) -> Result<(Vec<SpanTuple>, WireStats), ClientError> {
        match self.task(query, doc, WireTask::Compute { limit })? {
            Response::Tuples { tuples, stats, .. } => Ok((tuples, stats)),
            other => Err(unexpected("tuples", &other)),
        }
    }

    /// Streams an enumeration window, invoking `on_page` for every page as
    /// it arrives (so the caller observes the per-page delay), and returns
    /// all tuples plus the terminal stats.
    pub fn enumerate(
        &mut self,
        query: u64,
        doc: u64,
        skip: u64,
        limit: Option<u64>,
        mut on_page: impl FnMut(&[SpanTuple]),
    ) -> Result<(Vec<SpanTuple>, WireStats), ClientError> {
        self.send(&Request::Task {
            tenant: self.tenant,
            trace: self.task_trace_id(),
            query,
            doc,
            task: WireTask::Enumerate { skip, limit },
        })?;
        let mut all = Vec::new();
        loop {
            match self.recv()? {
                Response::Page { tuples } => {
                    on_page(&tuples);
                    all.extend(tuples);
                }
                Response::StreamEnd {
                    streamed,
                    stats,
                    trace,
                } => {
                    self.capture_trace(&trace);
                    if streamed as usize != all.len() {
                        return Err(ClientError::Protocol(format!(
                            "stream announced {streamed} tuples but delivered {}",
                            all.len()
                        )));
                    }
                    return Ok((all, stats));
                }
                Response::Error { code, detail } => {
                    return Err(ClientError::Server { code, detail })
                }
                other => return Err(unexpected("page or stream end", &other)),
            }
        }
    }

    /// Runs one task and returns the raw response frame (errors already
    /// lifted to [`ClientError::Server`]).  Prefer the typed wrappers; this
    /// is for tests and tooling.  Not for [`WireTask::Enumerate`] — that
    /// response is a stream, use [`Client::enumerate`].
    pub fn task(&mut self, query: u64, doc: u64, task: WireTask) -> Result<Response, ClientError> {
        debug_assert!(
            !matches!(task, WireTask::Enumerate { .. }),
            "enumerate responses are streams; use Client::enumerate"
        );
        let response = self.call(&Request::Task {
            tenant: self.tenant,
            trace: self.task_trace_id(),
            query,
            doc,
            task,
        })?;
        match &response {
            Response::NonEmpty { trace, .. }
            | Response::Checked { trace, .. }
            | Response::Counted { trace, .. }
            | Response::Tuples { trace, .. } => self.capture_trace(trace),
            _ => {}
        }
        Ok(response)
    }

    /// Creates a tenant from a full spec (quotas, cache share, admission
    /// weight).  Fails if the id is already taken.
    pub fn tenant_create(&mut self, spec: TenantSpec) -> Result<(), ClientError> {
        let id = spec.id;
        match self.call(&Request::TenantCreate { spec })? {
            Response::TenantOk { id: got, created } if got == id && created => Ok(()),
            other => Err(unexpected("tenant receipt", &other)),
        }
    }

    /// Reconfigures an existing tenant (existing usage is never re-checked
    /// against the new quotas; only future registrations are).
    pub fn tenant_update(&mut self, spec: TenantSpec) -> Result<(), ClientError> {
        let id = spec.id;
        match self.call(&Request::TenantUpdate { spec })? {
            Response::TenantOk { id: got, created } if got == id && !created => Ok(()),
            other => Err(unexpected("tenant receipt", &other)),
        }
    }

    /// Scrapes every metric the server exports, as Prometheus text (one
    /// `name{labels} value` line per series; read single series back with
    /// [`crate::metrics::value`]).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats { text } => Ok(text),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Asks the server to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutdown acknowledgement", &other)),
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ClientError {
    ClientError::Protocol(format!("expected {wanted}, got {got:?}"))
}

// ---------------------------------------------------------------------------
// Pipelined client (protocol v3)
// ---------------------------------------------------------------------------

/// One completed pipelined request, handed back by
/// [`PipelinedClient::poll`] in *completion* order.
#[derive(Debug)]
pub struct PipelinedReply {
    /// The id [`PipelinedClient::submit`] returned for this request.
    pub id: u64,
    /// The terminal response frame.  Per-request failures (busy, expired,
    /// unknown id, eval errors) arrive here as [`Response::Error`] —
    /// [`ClientError`] is reserved for transport and protocol faults that
    /// affect the whole connection.
    pub response: Response,
    /// Tuples streamed ahead of the terminal frame (enumerate pages;
    /// empty for every other task kind).
    pub pages: Vec<SpanTuple>,
}

impl PipelinedReply {
    /// `true` when the terminal frame is a structured server error.
    pub fn is_error(&self) -> bool {
        matches!(self.response, Response::Error { .. })
    }
}

/// A v3 pipelined connection: submit many tasks without waiting, then
/// poll replies as the server completes them — out of order, interleaved
/// with the pages of concurrent enumerations, all on one socket.
///
/// The server bounds the in-flight window per connection
/// (`pipeline_window`); past it, submissions block in TCP rather than
/// drawing errors.  For lock-step semantics, use
/// [`Client`].
pub struct PipelinedClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    tenant: u32,
    next_id: u64,
    /// Submitted but not yet completed request ids.
    outstanding: usize,
    /// Pages accumulated for still-running enumerations, by request id.
    pages: HashMap<u64, Vec<SpanTuple>>,
}

impl PipelinedClient {
    /// Connects to a v3 server (as the default tenant).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<PipelinedClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(PipelinedClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            tenant: 0,
            next_id: 1,
            outstanding: 0,
            pages: HashMap::new(),
        })
    }

    /// Switches the tenant namespace subsequent submissions run in.
    pub fn set_tenant(&mut self, tenant: u32) {
        self.tenant = tenant;
    }

    /// Submitted requests whose replies have not been polled yet.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Submits one task without waiting for its result; returns the id its
    /// reply will carry.
    pub fn submit(&mut self, query: u64, doc: u64, task: WireTask) -> Result<u64, ClientError> {
        self.submit_meta(query, doc, task, 0)
    }

    /// [`PipelinedClient::submit`] with a deadline budget: if the task is
    /// still queued server-side when `deadline` has elapsed since the
    /// server read the frame, it is shed with [`ErrorCode::Expired`]
    /// instead of being executed late.
    pub fn submit_with_deadline(
        &mut self,
        query: u64,
        doc: u64,
        task: WireTask,
        deadline: Duration,
    ) -> Result<u64, ClientError> {
        self.submit_meta(query, doc, task, (deadline.as_micros() as u64).max(1))
    }

    fn submit_meta(
        &mut self,
        query: u64,
        doc: u64,
        task: WireTask,
        deadline_us: u64,
    ) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        let mut frame = Request::Task {
            tenant: self.tenant,
            trace: 0,
            query,
            doc,
            task,
        }
        .encode_with(FrameMeta { id, deadline_us });
        frame.push(b'\n');
        self.writer.write_all(&frame)?;
        self.writer.flush()?;
        self.outstanding += 1;
        Ok(id)
    }

    /// Blocks until the next request *completes* (whichever finishes
    /// first, not submission order) and returns its reply.  Pages of
    /// still-running enumerations are absorbed along the way and handed
    /// back with their own terminal frame.
    pub fn poll(&mut self) -> Result<PipelinedReply, ClientError> {
        if self.outstanding == 0 {
            return Err(ClientError::Protocol(
                "poll with no outstanding requests".into(),
            ));
        }
        loop {
            let mut line = Vec::new();
            let n = self.reader.read_until(b'\n', &mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol("server closed the connection".into()));
            }
            if line.last() == Some(&b'\n') {
                line.pop();
            }
            let (id, response) = Response::decode_framed(&line)?;
            if id == 0 {
                return Err(ClientError::Protocol(format!(
                    "response frame without a request id: {response:?}"
                )));
            }
            if let Response::Page { tuples } = response {
                self.pages.entry(id).or_default().extend(tuples);
                continue;
            }
            self.outstanding -= 1;
            return Ok(PipelinedReply {
                id,
                response,
                pages: self.pages.remove(&id).unwrap_or_default(),
            });
        }
    }

    /// Polls until every outstanding request has completed.
    pub fn drain(&mut self) -> Result<Vec<PipelinedReply>, ClientError> {
        let mut replies = Vec::with_capacity(self.outstanding);
        while self.outstanding > 0 {
            replies.push(self.poll()?);
        }
        Ok(replies)
    }
}

// ---------------------------------------------------------------------------
// Busy retry with capped exponential backoff
// ---------------------------------------------------------------------------

/// Process-wide decorrelation salt for retry jitter: every sleeping
/// retrier draws a distinct pseudo-random stream, deterministically.
static RETRY_SALT: AtomicU64 = AtomicU64::new(1);

/// Largest multiple of the base backoff the exponential ramp reaches
/// (attempt 6 and beyond sleep `base × 64`, jittered).
const BACKOFF_CAP_SHIFT: u32 = 6;

/// Calls `operation` until it succeeds or fails with something other than
/// the server's `busy` backpressure signal (at most `attempts` tries; the
/// last busy error is returned if the budget runs out).
///
/// Between attempts it sleeps an exponentially growing multiple of
/// `backoff` — `1×, 2×, 4×, … 64×` (capped) — scaled by a deterministic
/// pseudo-random jitter in `[0.5, 1.0]`.  The ramp sheds load from an
/// overloaded server instead of hammering it at a fixed rate, and the
/// jitter decorrelates the retry herd a shed synchronizes: without it,
/// every client rejected in the same instant would retry in the same
/// instant, forever.
pub fn retry_busy<T>(
    attempts: usize,
    backoff: Duration,
    mut operation: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut last = None;
    for attempt in 0..attempts.max(1) as u32 {
        match operation() {
            Err(e) if e.is_busy() => {
                last = Some(e);
                std::thread::sleep(backoff_delay(
                    backoff,
                    attempt,
                    RETRY_SALT.fetch_add(1, Ordering::Relaxed),
                ));
            }
            other => return other,
        }
    }
    Err(last.expect("at least one attempt ran"))
}

/// The sleep before retry `attempt + 1`: `base × 2^min(attempt, cap)`,
/// jittered into `[0.5, 1.0]` of itself by a SplitMix64 draw over `salt`.
/// Pure, so the policy is testable without sleeping.
fn backoff_delay(base: Duration, attempt: u32, salt: u64) -> Duration {
    let ramp = base.saturating_mul(1u32 << attempt.min(BACKOFF_CAP_SHIFT));
    // 53 uniform mantissa bits → factor in [0.5, 1.0].
    let unit = (splitmix64(salt) >> 11) as f64 / (1u64 << 53) as f64;
    ramp.mul_f64(0.5 + unit / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_ramps_exponentially_and_caps() {
        let base = Duration::from_millis(10);
        for attempt in 0..12 {
            let delay = backoff_delay(base, attempt, 42);
            let ramp = base * (1 << attempt.min(BACKOFF_CAP_SHIFT));
            assert!(
                delay >= ramp / 2,
                "attempt {attempt}: {delay:?} < half ramp"
            );
            assert!(delay <= ramp, "attempt {attempt}: {delay:?} > full ramp");
        }
        // The cap: attempts past the shift all ramp to the same ceiling.
        assert!(backoff_delay(base, 40, 7) <= base * 64);
    }

    #[test]
    fn jitter_is_deterministic_but_decorrelated() {
        let base = Duration::from_millis(10);
        assert_eq!(backoff_delay(base, 3, 9), backoff_delay(base, 3, 9));
        // Two clients retrying the same attempt draw different delays —
        // the herd decorrelates.
        let distinct: std::collections::HashSet<Duration> =
            (0..32).map(|salt| backoff_delay(base, 3, salt)).collect();
        assert!(
            distinct.len() > 16,
            "only {} distinct delays",
            distinct.len()
        );
    }
}

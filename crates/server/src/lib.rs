//! # spanner-server — a network serving front-end over the evaluation
//! service
//!
//! The paper's economic argument (conf. PODS 2021, Schmid & Schweikardt)
//! is that spanner evaluation over SLP-compressed documents is fast enough
//! to *serve*: pay the `O(|M| + size(S)·q³)` preprocessing once per
//! (query, document) pair, then answer non-emptiness, model checking,
//! counting, computation and constant-delay enumeration from the cached
//! matrices.  The [`Service`](spanner_slp_core::Service) layer provides the
//! concurrency contract (`&self` evaluation, one globally budgeted matrix
//! cache); this crate puts a transport on top:
//!
//! * [`proto`] — the versioned, newline-delimited JSON-like wire format
//!   (hand-rolled over [`json`]; the build environment has no registry
//!   access, the same constraint as `crates/shims/*`), with canonical
//!   encode/decode round-trips for every frame.
//! * [`server`] — the long-running TCP server: accept loop, per-connection
//!   workers, permit-based admission whose bounded queues answer overflow
//!   with structured `busy` errors (never a dropped connection), frame
//!   length caps, streamed enumeration pages, and graceful shutdown that
//!   drains in-flight work.
//! * [`client`] — a blocking typed client used by the integration tests,
//!   the CI smoke script and the load generator, plus the v3
//!   [`PipelinedClient`] that keeps many requests in flight on one socket
//!   and polls replies in completion order.
//! * [`remote`] — the distributed half: [`RemoteExecutor`] implements the
//!   core's `ShardExecutor` over the wire protocol as a self-managing
//!   worker fleet — content-hash have/need negotiation (block bytes cross
//!   the wire once per worker, see [`blockcache`]), rendezvous-hash
//!   shard→worker placement, and re-issued passes that send a shard
//!   whose primary failed or straggles to its second-choice worker
//!   (falling back to local execution when both fail, so results are
//!   never lost).
//! * [`blockcache`] — the worker-resident byte-budgeted LRU of decoded
//!   blocks behind the negotiation.
//! * [`metrics`] — the server's one metrics path: the `stats` verb answers
//!   with Prometheus text the server renders itself, and this module holds
//!   its writer, the shape linter and a single-series lookup.
//!
//! Two binaries ship with the crate: `spanner-server` (boot a server, a
//! `--worker` shard-pass engine, or a `--workers a,b` front-end over a
//! pool) and `spanner-client` (drive one with a script — see the CI smoke
//! steps).
//!
//! ## Loopback example
//!
//! ```
//! use spanner_slp_core::Service;
//! use spanner_server::{Client, Server, ServerConfig};
//!
//! let server = Server::bind("127.0.0.1:0", Service::new(), ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
//! let d = client.add_doc(b"abababab").unwrap();
//! let (count, _stats) = client.count(q, d.id).unwrap();
//! assert_eq!(count, 4);
//! client.shutdown().unwrap();
//! server.join(); // drains in-flight work, then returns
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blockcache;
pub mod client;
pub mod metrics;
pub mod proto;
pub mod remote;
pub mod server;

// The canonical JSON layer moved into `spanner-store` (the on-disk log and
// snapshot formats share it); re-exported here so `crate::json` keeps
// working for the protocol and its tests.
pub use spanner_store::json;

pub use client::{retry_busy, Client, ClientError, DocReceipt, PipelinedClient, PipelinedReply};
pub use proto::{ErrorCode, FrameMeta, Request, Response, WireNfa, WireTask, PROTOCOL_VERSION};
pub use remote::RemoteExecutor;
pub use server::{PersistenceOptions, RecoveryReport, Server, ServerConfig, ServerOptions};
// The tenant spec doubles as the wire `tenant_create`/`tenant_update`
// payload; re-exported so clients need not depend on the store crate.
pub use spanner_store::TenantSpec;

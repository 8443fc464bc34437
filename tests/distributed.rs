//! Distributed shard execution: a `RemoteExecutor` pool over
//! `spanner-server --worker` processes must produce matrices
//! entry-identical to the monolithic build, ship only summary-sized payloads
//! (never the full matrices or the document text), and degrade to local
//! execution — never losing a result — when workers die mid-build or
//! answer garbage.

use slp_spanner::eval::matrices::Preprocessed;
use slp_spanner::prelude::*;
use slp_spanner::slp::families;
use spanner_server::{RemoteExecutor, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn boot_worker() -> Server {
    Server::bind(
        "127.0.0.1:0",
        Service::new(),
        ServerConfig {
            worker: true,
            ..ServerConfig::default()
        },
    )
    .expect("bind worker")
}

/// A deterministic low-repetitiveness document whose shards partition the
/// grammar (the regime where distribution pays).
fn block_document(len: usize) -> NormalFormSlp<u8> {
    let mut state = 0x9E37_79B9u64;
    let text: Vec<u8> = (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b'a' + ((state >> 33) % 2) as u8
        })
        .collect();
    NormalFormSlp::from_document(&text).unwrap()
}

fn documents() -> Vec<NormalFormSlp<u8>> {
    vec![
        slp_spanner::slp::examples::example_4_2(),
        Bisection.compress(b"aabbaabbab"),
        block_document(2048),
    ]
}

/// The acceptance check: for k ∈ {2, 4, 8} on the paper examples and a
/// block-family document, a 2-worker `RemoteExecutor` build produces a
/// `Preprocessed` entry-identical to the monolithic `build`, with every shard pass
/// actually running remotely (no fallbacks).
#[test]
fn two_worker_remote_builds_are_entry_identical_to_serial() {
    let workers = [boot_worker(), boot_worker()];
    let executor = Arc::new(RemoteExecutor::new(
        workers.iter().map(|w| w.local_addr().to_string()),
    ));
    let queries = [
        compile_query(".*x{a+}y{b+}.*", b"ab").unwrap(),
        slp_spanner::spanner::examples::figure_2_spanner(),
    ];
    for query in &queries {
        for doc in &documents() {
            let reference = SlpSpanner::new(query, doc).unwrap();
            for k in [2usize, 4, 8] {
                let service = Service::builder().shard_executor(executor.clone()).build();
                let q = service.add_query(query);
                let d = service.add_document_sharded(doc, k);
                let response = service
                    .run(&TaskRequest {
                        query: q,
                        doc: d,
                        task: Task::Count,
                    })
                    .unwrap();
                assert_eq!(
                    response.outcome.as_count(),
                    Some(reference.count()),
                    "k={k}"
                );
                let stats = response.shard_stats.expect("cold sharded build");
                assert_eq!(stats.fallbacks, 0, "k={k}: every pass ran remotely");
                assert_eq!(stats.k(), service.document(d).shard_count());

                // Entry-identical matrices: every R row and every leaf
                // table equals the monolithic build's.
                let prepared_query = service.query(q);
                let document = service.document(d);
                let via_remote = document
                    .cached_matrices(&prepared_query)
                    .expect("the build is resident");
                let whole = Preprocessed::build(
                    prepared_query.nfa(),
                    document.ended(),
                    prepared_query.num_vars(),
                );
                assert_eq!(via_remote.r, whole.r, "k={k}");
                assert_eq!(via_remote.leaf_tables, whole.leaf_tables, "k={k}");
            }
        }
    }
    assert!(executor.remote_pass_count() > 0);
    assert_eq!(executor.fallback_count(), 0);
    for worker in workers {
        worker.shutdown_and_join();
    }
}

/// The wire-cost check: the gather leg carries only three-valued
/// summaries (packed bitplanes, 2 bits per entry — never the marker-set
/// matrices), and the scatter leg carries the compressed shard blocks —
/// never the document text.
#[test]
fn gather_is_summary_sized_and_scatter_never_ships_the_document() {
    let worker = boot_worker();
    let executor = Arc::new(RemoteExecutor::new([worker.local_addr().to_string()]));
    let service = Service::builder().shard_executor(executor.clone()).build();
    let q = service.add_query(&compile_query(".*x{ab}.*", b"ab").unwrap());
    // Highly compressible: 65536 text bytes, a few dozen grammar rules.
    let doc = families::power_word(b"ab", 1 << 15);
    let k = 4usize;
    let d = service.add_document_sharded(&doc, k);
    let response = service
        .run(&TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        })
        .unwrap();
    assert_eq!(response.outcome.as_count(), Some(1 << 15));
    assert_eq!(executor.fallback_count(), 0);

    let prepared_query = service.query(q);
    let document = service.document(d);
    let q_states = prepared_query.nfa().num_states();
    let block_rules: usize = document
        .shard_layout()
        .expect("sharded")
        .ranges
        .iter()
        .map(|r| r.len())
        .sum();

    // Gather: two bitplanes per rule (2 bits per summary entry, base64 on
    // the wire) plus bounded framing — independent of how large the
    // marker-set matrices are, and ~3× below a one-byte-per-entry
    // payload bound.
    let gather = executor.gather_bytes() as usize;
    assert!(gather > 0);
    let plane_bytes = (q_states * q_states).div_ceil(8);
    let packed_payload = (block_rules * 2 * plane_bytes).div_ceil(3) * 4;
    assert!(
        gather <= packed_payload + 160 * k,
        "gather {gather} bytes exceeds the packed-plane payload bound \
         ({block_rules} rules × 2 planes × {plane_bytes} B, base64)"
    );
    assert!(
        gather < block_rules * q_states * q_states + 160 * k,
        "gather {gather} bytes should undercut the one-byte-per-entry \
         bound ({block_rules} rules × {q_states}²)"
    );
    let resident = document
        .cached_matrices(&prepared_query)
        .unwrap()
        .approx_bytes();
    assert!(
        gather < resident,
        "gather {gather} must be smaller than the {resident}-byte matrices it stands for"
    );

    // Scatter: the serialized sub-grammars, a tiny fraction of the text a
    // monolithic document shipment would move.
    let scatter = executor.scatter_bytes();
    assert!(scatter > 0);
    assert!(
        scatter < doc.document_len() / 4,
        "scatter {scatter} bytes is not 'compressed': the document is {} bytes",
        doc.document_len()
    );
    worker.shutdown_and_join();
}

/// What a broken "worker" does with each accepted connection.
#[derive(Clone, Copy)]
enum Sabotage {
    /// Read the request, then die without answering (a worker killed
    /// mid-build).
    DieMidBuild,
    /// Answer with a frame that is not protocol at all.
    Garbage,
}

/// Boots a fake worker that sabotages every exchange.  Serves a bounded
/// number of connections on a background thread.
fn broken_worker(mode: Sabotage) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().take(64).flatten() {
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = Vec::new();
            let _ = reader.read_until(b'\n', &mut line);
            match mode {
                Sabotage::DieMidBuild => drop(stream),
                Sabotage::Garbage => {
                    let mut stream = stream;
                    let _ = stream.write_all(b"this is not protocol\n");
                    let _ = stream.flush();
                }
            }
        }
    });
    addr
}

/// The fault-path check: a worker killed mid-build and a worker
/// returning malformed frames both fall back to `LocalExecutor` with an
/// entry-identical `Preprocessed` and a recorded fallback count.
#[test]
fn worker_failures_fall_back_to_local_with_identical_matrices() {
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(1024);
    let reference = SlpSpanner::new(&query, &doc).unwrap();
    for mode in [Sabotage::DieMidBuild, Sabotage::Garbage] {
        let addr = broken_worker(mode);
        let executor =
            Arc::new(RemoteExecutor::new([addr.to_string()]).with_timeout(Duration::from_secs(2)));
        let service = Service::builder().shard_executor(executor.clone()).build();
        let q = service.add_query(&query);
        let k = 4usize;
        let d = service.add_document_sharded(&doc, k);
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            })
            .unwrap();
        // The result is never lost...
        assert_eq!(response.outcome.as_count(), Some(reference.count()));
        // ...the fallbacks are recorded per build and on the executor...
        let stats = response.shard_stats.expect("cold sharded build");
        assert_eq!(stats.fallbacks, k, "every shard fell back");
        assert_eq!(executor.fallback_count(), k as u64);
        assert_eq!(executor.remote_pass_count(), 0);
        // ...and the matrices are entry-identical to the monolithic build.
        let prepared_query = service.query(q);
        let document = service.document(d);
        let via_fallback = document.cached_matrices(&prepared_query).unwrap();
        let whole = Preprocessed::build(
            prepared_query.nfa(),
            document.ended(),
            prepared_query.num_vars(),
        );
        assert_eq!(via_fallback.r, whole.r);
        assert_eq!(via_fallback.leaf_tables, whole.leaf_tables);
    }
}

/// Shard blocks larger than the configured worker frame cap never touch
/// the wire: the build falls back locally up front instead of shipping a
/// frame every worker would refuse as oversized.
#[test]
fn over_cap_shard_blocks_run_locally_without_shipping() {
    let worker = boot_worker();
    let executor =
        Arc::new(RemoteExecutor::new([worker.local_addr().to_string()]).with_max_frame(256));
    let service = Service::builder().shard_executor(executor.clone()).build();
    let q = service.add_query(&compile_query(".*x{ab}.*", b"ab").unwrap());
    let d = service.add_document_sharded(&block_document(2048), 2);
    let response = service
        .run(&TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        })
        .unwrap();
    assert!(response.outcome.as_count().is_some());
    assert_eq!(response.shard_stats.unwrap().fallbacks, 2);
    assert_eq!(executor.scatter_bytes(), 0, "nothing was shipped");
    assert_eq!(executor.remote_pass_count(), 0);
    worker.shutdown_and_join();
}

/// A pool whose workers are simply gone (connection refused) degrades the
/// same way — and keeps serving every later request locally.
#[test]
fn a_dead_pool_degrades_to_local_execution() {
    // Bind-then-drop: the port is (almost certainly) unbound afterwards.
    let dead_addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap()
    };
    let executor = Arc::new(
        RemoteExecutor::new([dead_addr.to_string()]).with_timeout(Duration::from_millis(500)),
    );
    let service = Service::builder().shard_executor(executor.clone()).build();
    let q = service.add_query(&compile_query(".*x{ab}.*", b"ab").unwrap());
    let d = service.add_document_sharded(&families::power_word(b"ab", 256), 2);
    for round in 0..2 {
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            })
            .unwrap();
        assert_eq!(response.outcome.as_count(), Some(256), "round {round}");
    }
    // The power word's two shard blocks are content-identical, so the
    // dedupe pass collapses them to one executed pass — at least that one
    // fell back (the duplicate inherits the flag in per-build stats).
    assert!(
        executor.fallback_count() >= 1,
        "cold build fell back per executed shard"
    );
    assert_eq!(executor.remote_pass_count(), 0);
}

/// A listener that never accepts, with its accept queue filled until a
/// connect can no longer complete — an unreachable host, as far as a
/// connecting client can tell.  Keep both halves alive for the test.
fn unanswered_listener() -> (TcpListener, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut held = Vec::new();
    while TcpStream::connect_timeout(&addr, Duration::from_millis(100))
        .map(|stream| held.push(stream))
        .is_ok()
    {
        assert!(held.len() < 1024, "the accept queue never filled");
    }
    (listener, held)
}

/// The exchange's connect honours the exchange timeout: a worker whose
/// listen queue is full never completes the handshake, and the build
/// must give up on it after the timeout rather than after the kernel's
/// SYN retries.
#[test]
fn an_unanswered_connect_times_out_at_the_exchange_timeout() {
    let (listener, held) = unanswered_listener();
    let addr = listener.local_addr().unwrap();
    let executor =
        Arc::new(RemoteExecutor::new([addr.to_string()]).with_timeout(Duration::from_millis(300)));
    let service = Service::builder().shard_executor(executor.clone()).build();
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(2048);
    let q = service.add_query(&query);
    let d = service.add_document_sharded(&doc, 2);
    let started = Instant::now();
    let response = service
        .run(&TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        })
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        response.outcome.as_count(),
        Some(SlpSpanner::new(&query, &doc).unwrap().count())
    );
    assert_eq!(executor.remote_pass_count(), 0);
    assert!(
        elapsed < Duration::from_millis(1500),
        "a 2-shard build against an unanswered connect took {elapsed:?}"
    );
    drop(held);
    drop(listener);
}

/// An unreachable primary does not queue builds behind its connects:
/// attempts waiting on the host's slot fail at once when the connect
/// ahead of them times out, each of its shards fails over to the live
/// worker, and the adaptive budget learns only the winning attempts'
/// round trips.  With one live worker and one unreachable host, only the
/// first `k = 16` build — run while the budget has no samples — waits
/// out connect timeouts; every later build finishes well inside one
/// exchange timeout, and no shard falls back.
#[test]
fn an_unreachable_worker_does_not_queue_builds_behind_its_connects() {
    let timeout = Duration::from_secs(1);
    let live = boot_worker();
    let (listener, held) = unanswered_listener();
    let executor = Arc::new(
        RemoteExecutor::new([
            live.local_addr().to_string(),
            listener.local_addr().unwrap().to_string(),
        ])
        .with_timeout(timeout),
    );
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(8192);
    let expected = SlpSpanner::new(&query, &doc).unwrap().count();
    let mut times = Vec::new();
    for _ in 0..6 {
        // A fresh service per build: its matrix cache is cold.
        let service = Service::builder().shard_executor(executor.clone()).build();
        let q = service.add_query(&query);
        let d = service.add_document_sharded(&doc, 16);
        let started = Instant::now();
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            })
            .unwrap();
        times.push(started.elapsed());
        assert_eq!(response.outcome.as_count(), Some(expected));
    }
    assert_eq!(
        executor.fallback_count(),
        0,
        "the live worker answers every shard"
    );
    assert!(
        executor.hedge_count() >= 1,
        "the unreachable host's shards fail over"
    );
    assert!(
        times[0] < timeout * 10,
        "the first build took {:?}",
        times[0]
    );
    assert!(
        times[1..].iter().all(|&t| t < timeout),
        "builds after the first must not wait out connect timeouts: {times:?}"
    );
    assert!(
        Duration::from_micros(executor.hedge_budget_us()) < timeout / 4,
        "failover waits leaked into the adaptive budget: {} µs",
        executor.hedge_budget_us()
    );
    drop(held);
    drop(listener);
}

/// A build keeps all its shards in flight at once, so the first cold
/// build against an unreachable host waits out one connect timeout, not
/// one per shard placed on it: the attempts queued behind the timed-out
/// connect fail with it and go to the live worker together.
#[test]
fn a_first_build_waits_out_one_connect_timeout_for_an_unreachable_worker() {
    let timeout = Duration::from_secs(1);
    let live = boot_worker();
    let (listener, held) = unanswered_listener();
    let executor = Arc::new(
        RemoteExecutor::new([
            live.local_addr().to_string(),
            listener.local_addr().unwrap().to_string(),
        ])
        .with_timeout(timeout),
    );
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(8192);
    let service = Service::builder().shard_executor(executor.clone()).build();
    let q = service.add_query(&query);
    let d = service.add_document_sharded(&doc, 16);
    let started = Instant::now();
    let response = service
        .run(&TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        })
        .unwrap();
    let elapsed = started.elapsed();
    assert_eq!(
        response.outcome.as_count(),
        Some(SlpSpanner::new(&query, &doc).unwrap().count())
    );
    assert_eq!(executor.fallback_count(), 0);
    assert!(
        executor.hedge_count() >= 1,
        "the unreachable host's shards fail over"
    );
    assert!(
        elapsed < timeout * 2,
        "the first k = 16 build took {elapsed:?}"
    );
    drop(held);
    drop(listener);
    live.shutdown_and_join();
}

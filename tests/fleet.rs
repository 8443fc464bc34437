//! Self-managing worker-fleet behaviour: content-addressed have/need
//! negotiation (warm re-builds collapse to hash-sized scatter frames),
//! worker restarts and cache pressure forcing re-negotiation instead of
//! wrong answers, adversarial hash-mismatch frames rejected at the
//! protocol layer, hedged shard passes completing under stragglers and
//! mid-hedge kills, and shards whose primary worker is dead re-issued to
//! their second choice — always with results entry-identical to the
//! serial build.

use slp_spanner::eval::matrices::Preprocessed;
use slp_spanner::prelude::*;
use spanner_server::{
    metrics, Client, PersistenceOptions, RemoteExecutor, Request, Response, Server, ServerConfig,
    ServerOptions, TenantSpec, WireNfa,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn boot_worker() -> Server {
    boot_worker_with_budget(ServerConfig::default().block_cache_budget)
}

fn boot_worker_with_budget(block_cache_budget: usize) -> Server {
    Server::bind(
        "127.0.0.1:0",
        Service::new(),
        ServerConfig {
            worker: true,
            block_cache_budget,
            ..ServerConfig::default()
        },
    )
    .expect("bind worker")
}

/// A deterministic low-repetitiveness document (distinct shard blocks, so
/// the dedupe pass has nothing to collapse and every shard really runs).
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

/// A repointable (and optionally per-chunk-delaying) TCP proxy: lets a
/// test present a *stable address* whose backend can die, change, or lag —
/// the shapes worker restart and straggler tests need, without fighting
/// the kernel over rebinding a just-closed port.
fn proxy(delay: Duration) -> (SocketAddr, Arc<Mutex<Option<SocketAddr>>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let backend = Arc::new(Mutex::new(None::<SocketAddr>));
    let shared = backend.clone();
    std::thread::spawn(move || {
        for stream in listener.incoming().take(256).flatten() {
            let Some(target) = *shared.lock().unwrap() else {
                // No backend: drop the connection, as a dead worker would.
                continue;
            };
            let Ok(upstream) = TcpStream::connect(target) else {
                continue;
            };
            let mut client_r = stream.try_clone().unwrap();
            let mut upstream_w = upstream.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match client_r.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if delay > Duration::ZERO {
                                std::thread::sleep(delay);
                            }
                            if upstream_w.write_all(&buf[..n]).is_err() {
                                break;
                            }
                            let _ = upstream_w.flush();
                        }
                    }
                }
                let _ = upstream_w.shutdown(Shutdown::Write);
            });
            let mut upstream_r = upstream;
            let mut client_w = stream;
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                loop {
                    match upstream_r.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if client_w.write_all(&buf[..n]).is_err() {
                                break;
                            }
                            let _ = client_w.flush();
                        }
                    }
                }
                let _ = client_w.shutdown(Shutdown::Write);
            });
        }
    });
    (addr, backend)
}

/// Runs one count through a fresh service wired to `executor` and checks
/// the cached matrices against the serial build.
fn build_and_check(
    executor: &Arc<RemoteExecutor>,
    query: &SpannerAutomaton<u8>,
    doc: &NormalFormSlp<u8>,
    k: usize,
) -> u128 {
    let reference = SlpSpanner::new(query, doc).unwrap();
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
    let count = response.outcome.as_count().unwrap();
    assert_eq!(count, reference.count());
    let prepared_query = service.query(q);
    let document = service.document(d);
    let via_fleet = document.cached_matrices(&prepared_query).unwrap();
    let serial = Preprocessed::build_serial(
        prepared_query.nfa(),
        document.ended(),
        prepared_query.num_vars(),
    );
    assert_eq!(via_fleet.r, serial.r, "fleet build must be entry-identical");
    assert_eq!(via_fleet.leaf_tables, serial.leaf_tables);
    count
}

/// The headline negotiation check: re-building the same (query, doc)
/// pair against a warm fleet ships ≥10× fewer scatter bytes than the cold
/// build — the frames carry content hashes, not block bytes — and the
/// workers serve the passes from their block caches.
#[test]
fn warm_rebuilds_collapse_to_hash_sized_scatter() {
    let workers = [boot_worker(), boot_worker()];
    let executor = Arc::new(RemoteExecutor::new(
        workers.iter().map(|w| w.local_addr().to_string()),
    ));
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(4096);

    build_and_check(&executor, &query, &doc, 4);
    let cold = executor.scatter_bytes();
    assert!(cold > 0);
    assert_eq!(executor.fallback_count(), 0);

    // A fresh service re-builds the same pair (its matrix cache is cold);
    // only the executor's shipped-hash memory is warm.
    build_and_check(&executor, &query, &doc, 4);
    let warm = executor.scatter_bytes() - cold;
    assert!(warm > 0, "the warm build still scatters (hash frames)");
    assert!(
        warm * 10 <= cold,
        "warm re-build scattered {warm} bytes — not ≥10× below the {cold}-byte cold build"
    );
    assert!(executor.hash_only_pass_count() >= 1);
    assert_eq!(executor.renegotiation_count(), 0, "nothing was evicted");
    assert_eq!(executor.fallback_count(), 0);

    // The workers' caches, not re-decoding, served the warm passes.
    let hits: u64 = workers
        .iter()
        .map(|w| {
            let mut client = Client::connect(w.local_addr()).unwrap();
            let scrape = client.stats().unwrap();
            metrics::value(&scrape, "spanner_server_block_cache_hits_total").unwrap()
        })
        .sum();
    assert!(hits >= 1, "no worker reported a block-cache hit");
    for worker in workers {
        worker.shutdown_and_join();
    }
}

/// A restarted worker holds an empty cache: the coordinator's optimistic
/// hash-only frame is answered with `need`, the bytes are re-sent on the
/// same connection, and the build completes — no fallback, no wrong
/// answer, just one extra round-trip.
#[test]
fn worker_restart_forgets_its_cache_and_renegotiates() {
    let (proxy_addr, backend) = proxy(Duration::ZERO);
    let first = boot_worker();
    *backend.lock().unwrap() = Some(first.local_addr());

    let executor = Arc::new(
        RemoteExecutor::new([proxy_addr.to_string()]).with_timeout(Duration::from_secs(2)),
    );
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(4096);
    build_and_check(&executor, &query, &doc, 4);
    assert_eq!(executor.fallback_count(), 0);

    // "Restart" the worker: a different process at the same address.
    first.shutdown_and_join();
    let second = boot_worker();
    *backend.lock().unwrap() = Some(second.local_addr());

    // The pooled connection died with the first worker, so the next build
    // may spend fallbacks rediscovering that; the build after it runs on
    // fresh connections and must renegotiate the forgotten blocks.
    build_and_check(&executor, &query, &doc, 4);
    build_and_check(&executor, &query, &doc, 4);
    assert!(
        executor.renegotiation_count() >= 1,
        "the restarted worker should have answered `need` at least once"
    );
    let mut client = Client::connect(second.local_addr()).unwrap();
    let scrape = client.stats().unwrap();
    assert!(
        metrics::value(&scrape, "spanner_server_block_cache_misses_total").unwrap() >= 1,
        "the fresh worker's cache started empty"
    );
    drop(client);
    second.shutdown_and_join();
}

/// A zero-budget block cache retains nothing: every warm hash-only frame
/// is answered `need` and re-sent inline — correctness never depends on
/// the cache actually holding anything.
#[test]
fn zero_cache_budgets_force_renegotiation_not_wrong_answers() {
    let worker = boot_worker_with_budget(0);
    let executor = Arc::new(RemoteExecutor::new([worker.local_addr().to_string()]));
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(2048);
    build_and_check(&executor, &query, &doc, 4);
    build_and_check(&executor, &query, &doc, 4);
    assert!(
        executor.renegotiation_count() >= 1,
        "a cacheless worker must demand the bytes again"
    );
    assert_eq!(executor.fallback_count(), 0);
    assert_eq!(executor.hash_only_pass_count(), 0);
    let mut client = Client::connect(worker.local_addr()).unwrap();
    let scrape = client.stats().unwrap();
    assert_eq!(
        metrics::value(&scrape, "spanner_server_block_cache_hits_total"),
        Some(0)
    );
    drop(client);
    worker.shutdown_and_join();
}

/// Protocol-level negotiation and trust: claimed content hashes are
/// verified by recomputation, so a hash-collision-shaped adversarial frame
/// (bytes that do not hash to their claim) is rejected as malformed and
/// never poisons the cache.
#[test]
fn mismatched_content_hashes_are_rejected_as_malformed() {
    // Derive a legitimate (nfa, block) pair from a local service.
    let service = Service::new();
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let q = service.add_query(&query);
    let d = service.add_document(&block_document(512));
    let prepared_query = service.query(q);
    let document = service.document(d);
    let wire_nfa = WireNfa::from_nfa(prepared_query.nfa());
    let nfa_hash = wire_nfa.content_hash();
    let rules = document.ended().rules().to_vec();
    let root = document.ended().start().0 as u64;
    let block_hash = document.ended().content_hash();

    let worker = boot_worker();
    let stream = TcpStream::connect(worker.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut call = |request: &Request| -> Response {
        let mut frame = request.encode();
        frame.push(b'\n');
        writer.write_all(&frame).unwrap();
        writer.flush().unwrap();
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line).unwrap();
        line.pop();
        Response::decode(&line).unwrap()
    };

    // A cold hash-only frame: the worker has nothing and says so.
    let need = call(&Request::ShardBuild {
        trace: 0,
        nfa: None,
        rules: None,
        root,
        nfa_hash,
        block_hash,
    });
    assert_eq!(
        need,
        Response::NeedBlocks {
            need_nfa: true,
            need_block: true,
        }
    );

    // Bytes whose claimed hash does not match are rejected outright.
    for (bad_nfa_hash, bad_block_hash) in [(nfa_hash ^ 1, block_hash), (nfa_hash, block_hash ^ 1)] {
        let response = call(&Request::ShardBuild {
            trace: 0,
            nfa: Some(wire_nfa.clone()),
            rules: Some(rules.clone()),
            root,
            nfa_hash: bad_nfa_hash,
            block_hash: bad_block_hash,
        });
        match response {
            Response::Error { code, detail } => {
                assert_eq!(code, spanner_server::ErrorCode::Malformed);
                assert!(detail.contains("content hash"), "{detail}");
            }
            other => panic!("expected malformed, got {other:?}"),
        }
    }

    // The falsely-claimed half must not have primed the cache: the block
    // bytes never matched their claim, so a hash-only frame still needs
    // them.  (The second bad frame's *nfa* half was honestly hashed and
    // may legitimately have been cached.)
    match call(&Request::ShardBuild {
        trace: 0,
        nfa: None,
        rules: None,
        root,
        nfa_hash,
        block_hash,
    }) {
        Response::NeedBlocks { need_block, .. } => {
            assert!(need_block, "a rejected block must not be cached");
        }
        other => panic!("expected `need`, got {other:?}"),
    }

    // An honest full frame works and primes the cache...
    let built = call(&Request::ShardBuild {
        trace: 0,
        nfa: Some(wire_nfa.clone()),
        rules: Some(rules.clone()),
        root,
        nfa_hash,
        block_hash,
    });
    assert!(matches!(built, Response::ShardBuilt { .. }));
    // ...after which the hash-only frame is served — but only with the
    // root the cached block actually has.
    let warm = call(&Request::ShardBuild {
        trace: 0,
        nfa: None,
        rules: None,
        root,
        nfa_hash,
        block_hash,
    });
    assert!(matches!(warm, Response::ShardBuilt { .. }));
    let wrong_root = call(&Request::ShardBuild {
        trace: 0,
        nfa: None,
        rules: None,
        root: root + 1,
        nfa_hash,
        block_hash,
    });
    match wrong_root {
        Response::Error { code, detail } => {
            assert_eq!(code, spanner_server::ErrorCode::Malformed);
            assert!(detail.contains("disagrees"), "{detail}");
        }
        other => panic!("expected malformed root disagreement, got {other:?}"),
    }
    worker.shutdown_and_join();
}

/// Straggling workers are hedged: with every path through a 200 ms-delay
/// proxy and a 30 ms hedge budget, each executed shard re-issues to the
/// second worker and the build still completes remotely, entry-identical.
#[test]
fn hedged_passes_complete_under_uniform_stragglers() {
    let worker = boot_worker();
    let (slow_a, backend_a) = proxy(Duration::from_millis(200));
    let (slow_b, backend_b) = proxy(Duration::from_millis(200));
    *backend_a.lock().unwrap() = Some(worker.local_addr());
    *backend_b.lock().unwrap() = Some(worker.local_addr());

    let executor = Arc::new(
        RemoteExecutor::new([slow_a.to_string(), slow_b.to_string()])
            .with_timeout(Duration::from_secs(5))
            .with_hedge_after(Duration::from_millis(30)),
    );
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(2048);
    build_and_check(&executor, &query, &doc, 4);
    assert!(
        executor.hedge_count() >= 1,
        "a 30 ms budget against 200 ms stragglers must hedge"
    );
    assert_eq!(executor.fallback_count(), 0, "the slow answers still land");
    assert!(executor.remote_pass_count() >= 1);
    worker.shutdown_and_join();
}

/// A "worker" that accepts, reads the request, lingers past the hedge
/// budget, then dies — so a hedged pass has *both* copies in flight when
/// both die.
fn lingering_killer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().take(64).flatten() {
            std::thread::spawn(move || {
                let mut reader = BufReader::new(stream);
                let mut line = Vec::new();
                let _ = reader.read_until(b'\n', &mut line);
                std::thread::sleep(Duration::from_millis(150));
                // Dropping the stream here kills the build mid-flight.
            });
        }
    });
    addr
}

/// The mid-hedge kill: the primary stalls past the budget, the hedge is
/// issued, then *both* workers die with both copies in flight.  Every
/// shard falls back locally, the hedges and fallbacks are recorded, and
/// the result is entry-identical.
#[test]
fn workers_killed_mid_hedge_fall_back_entry_identical() {
    let executor = Arc::new(
        RemoteExecutor::new([
            lingering_killer().to_string(),
            lingering_killer().to_string(),
        ])
        .with_timeout(Duration::from_secs(2))
        .with_hedge_after(Duration::from_millis(30)),
    );
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(2048);
    let k = 4usize;

    let reference = SlpSpanner::new(&query, &doc).unwrap();
    let service = Service::builder().shard_executor(executor.clone()).build();
    let q = service.add_query(&query);
    let d = service.add_document_sharded(&doc, k);
    let response = service
        .run(&TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        })
        .unwrap();
    assert_eq!(response.outcome.as_count(), Some(reference.count()));
    let stats = response.shard_stats.expect("cold sharded build");
    assert_eq!(stats.fallbacks, k, "every shard fell back");
    assert!(stats.hedges >= 1, "the hedges are visible in build stats");
    assert!(executor.hedge_count() >= 1);
    assert_eq!(executor.remote_pass_count(), 0);
    assert_eq!(executor.fallback_count(), k as u64);

    let prepared_query = service.query(q);
    let document = service.document(d);
    let via_fallback = document.cached_matrices(&prepared_query).unwrap();
    let serial = Preprocessed::build_serial(
        prepared_query.nfa(),
        document.ended(),
        prepared_query.num_vars(),
    );
    assert_eq!(via_fallback.r, serial.r);
    assert_eq!(via_fallback.leaf_tables, serial.leaf_tables);
}

/// A failed primary is re-issued to its second-choice worker, like a
/// straggler: with one live worker and one address that drops every
/// connection, builds complete remotely without a single fallback, and
/// once the address answers again it serves its own shards with no
/// re-issue.
#[test]
fn failed_primaries_are_reissued_to_their_second_choice() {
    let live = boot_worker();
    let (flaky_addr, flaky_backend) = proxy(Duration::ZERO); // no backend: dead
    let executor = Arc::new(
        RemoteExecutor::new([live.local_addr().to_string(), flaky_addr.to_string()])
            .with_timeout(Duration::from_secs(2))
            // No healthy pass takes this long, so every re-issue below
            // follows a failed primary.
            .with_hedge_after(Duration::from_secs(5)),
    );
    let query = compile_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let doc = block_document(8192);
    build_and_check(&executor, &query, &doc, 16);
    build_and_check(&executor, &query, &doc, 16);
    assert_eq!(
        executor.fallback_count(),
        0,
        "the live worker answered every shard the dead address owned"
    );
    assert!(
        executor.hedge_count() >= 2,
        "each build re-issues the dead address's shards ({} re-issues)",
        executor.hedge_count()
    );

    // The address comes back (a live backend behind it) and serves again.
    let second = boot_worker();
    *flaky_backend.lock().unwrap() = Some(second.local_addr());
    let reissued = executor.hedge_count();
    build_and_check(&executor, &query, &doc, 16);
    assert_eq!(executor.fallback_count(), 0);
    assert_eq!(
        executor.hedge_count(),
        reissued,
        "a healthy pool re-issues nothing"
    );

    live.shutdown_and_join();
    second.shutdown_and_join();
}

/// The full scrape of a durable, two-tenant front-end over a remote pool
/// carries every metric family at once — service, transport, scheduler,
/// tenant, store, executor, block-cache and latency histograms — and both
/// it and the worker's scrape are well-formed Prometheus text.
#[test]
fn full_scrapes_of_a_durable_two_tenant_front_end_and_its_worker_lint() {
    let worker = boot_worker();
    let executor = Arc::new(RemoteExecutor::new([worker.local_addr().to_string()]));
    let dir = std::env::temp_dir().join(format!("spanner-fleet-scrape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = ServerOptions {
        persistence: Some(PersistenceOptions {
            dir: dir.clone(),
            snapshot_every: 2,
            snapshot_bytes: 0,
        }),
        remote: Some(executor.clone()),
        ..ServerOptions::from(ServerConfig::default())
    };
    let service = Service::builder().shard_executor(executor).build();
    let front = Server::bind_with("127.0.0.1:0", service, options).expect("bind front-end");
    let mut client = Client::connect(front.local_addr()).unwrap();
    client
        .tenant_create(TenantSpec {
            id: 5,
            name: "acme".into(),
            max_docs: 10,
            max_corpus_bytes: 1 << 20,
            cache_share: 0,
            admission_weight: 2,
        })
        .unwrap();
    let q = client.add_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    let sharded = client
        .add_doc_sharded(&b"aabbab".repeat(300), 4)
        .unwrap()
        .id;
    assert!(client.count(q, sharded).unwrap().0 > 0);
    client.set_tenant(5);
    let own = client.add_doc(b"abab").unwrap().id;
    client.non_empty(q, own).unwrap();
    client.enumerate(q, own, 0, None, |_| {}).unwrap();

    let scrape = client.stats().unwrap();
    metrics::lint(&scrape).unwrap_or_else(|e| panic!("{e}:\n{scrape}"));
    for family in [
        "spanner_requests_total",
        "spanner_tasks_total{kind=\"count\"}",
        "spanner_cache_resident_bytes",
        "spanner_server_frames_total",
        "spanner_server_inflight",
        "spanner_server_executor_fallbacks_total",
        "spanner_server_executor_hedges_total",
        "spanner_server_block_cache_hits_total",
        "spanner_queue_depth{class=\"cheap\"}",
        "spanner_shed_total{reason=\"expired\"}",
        "spanner_tenant_docs{tenant=\"0\"}",
        "spanner_tenant_docs{tenant=\"5\"}",
        "spanner_tenant_admission_weight{tenant=\"5\"}",
        "spanner_store_log_records",
        "spanner_store_snapshots_total",
        "spanner_store_snapshot_triggers_total{trigger=\"cadence\"}",
        "spanner_request_duration_us_count{kind=\"enumerate\"}",
        "spanner_request_duration_us_count{tenant=\"5\"}",
        "spanner_shard_pass_duration_us_count",
        "spanner_executor_hedge_budget_us",
    ] {
        assert!(
            metrics::value(&scrape, family).is_some(),
            "front-end scrape lacks {family}:\n{scrape}"
        );
    }
    assert_eq!(
        metrics::value(&scrape, "spanner_tenant_docs{tenant=\"5\"}"),
        Some(1)
    );
    assert!(metrics::value(&scrape, "spanner_shard_pass_duration_us_count").unwrap() >= 4);

    let mut worker_client = Client::connect(worker.local_addr()).unwrap();
    let worker_scrape = worker_client.stats().unwrap();
    metrics::lint(&worker_scrape).unwrap_or_else(|e| panic!("{e}:\n{worker_scrape}"));
    assert!(
        metrics::value(&worker_scrape, "spanner_server_block_cache_resident_bytes").unwrap() > 0,
        "{worker_scrape}"
    );
    assert!(metrics::value(&worker_scrape, "spanner_shard_pass_duration_us_count").unwrap() >= 4);

    client.shutdown().unwrap();
    front.join();
    drop(worker_client);
    worker.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

//! Integration tests of the network serving front-end (`spanner-server`):
//! transport transparency against the in-process `Service`, concurrent
//! stress, framing robustness, admission backpressure and graceful
//! shutdown.

use slp::NormalFormSlp;
use spanner::regex;
use spanner_server::{
    metrics, retry_busy, Client, ClientError, ErrorCode, PipelinedClient, Server, ServerConfig,
    WireTask,
};
use spanner_slp_core::service::{Service, Task, TaskOutcome, TaskRequest};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const PATTERNS: [&str; 2] = [".*x{ab}.*", ".*x{a+}y{b+}.*"];
const TEXTS: [&[u8]; 3] = [b"abababab", b"aabbaabbab", b"babaabab"];

/// Boots a loopback server over a fresh service.
fn boot(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", Service::new(), config).expect("bind loopback")
}

/// A reference service with the same corpus as the test server, registered
/// via the same compression path (`NormalFormSlp::from_document`).
fn reference() -> (
    Service,
    Vec<spanner_slp_core::QueryId>,
    Vec<spanner_slp_core::DocumentId>,
) {
    let service = Service::new();
    let qids = PATTERNS
        .iter()
        .map(|p| service.add_query(&regex::compile(p, b"ab").unwrap()))
        .collect();
    let dids = TEXTS
        .iter()
        .map(|t| service.add_document(&NormalFormSlp::from_document(t).unwrap()))
        .collect();
    (service, qids, dids)
}

/// Registers the shared corpus through the wire.
fn register(client: &mut Client) -> (Vec<u64>, Vec<u64>) {
    let qids = PATTERNS
        .iter()
        .map(|p| client.add_query(p, b"ab").expect("add_query"))
        .collect();
    let dids = TEXTS
        .iter()
        .map(|t| client.add_doc(t).expect("add_doc").id)
        .collect();
    (qids, dids)
}

#[test]
fn every_task_is_transport_transparent() {
    // The acceptance check: for every task variant, the payload through
    // the server is identical to the direct `Service::run` result.
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (qids, dids) = register(&mut client);
    let (reference, ref_q, ref_d) = reference();

    for (qi, &q) in qids.iter().enumerate() {
        for (di, &d) in dids.iter().enumerate() {
            let direct = |task: Task| {
                reference
                    .run(&TaskRequest {
                        query: ref_q[qi],
                        doc: ref_d[di],
                        task,
                    })
                    .unwrap()
                    .outcome
            };

            // Non-emptiness.
            let (non_empty, _) = client.non_empty(q, d).unwrap();
            assert_eq!(TaskOutcome::NonEmpty(non_empty), direct(Task::NonEmptiness));

            // Count.
            let (count, _) = client.count(q, d).unwrap();
            assert_eq!(TaskOutcome::Count(count), direct(Task::Count));

            // Compute, unlimited and limited.
            for limit in [None, Some(3u64)] {
                let (tuples, _) = client.compute(q, d, limit).unwrap();
                assert_eq!(
                    TaskOutcome::Tuples(tuples),
                    direct(Task::Compute {
                        limit: limit.map(|n| n as usize),
                    })
                );
            }

            // Enumerate: windowed, as a page stream.
            let (streamed, _) = client.enumerate(q, d, 1, Some(5), |_| {}).unwrap();
            assert_eq!(
                TaskOutcome::Tuples(streamed),
                direct(Task::Enumerate {
                    skip: 1,
                    limit: Some(5),
                })
            );

            // Model check: a computed tuple verifies, a bogus span does not
            // — and both verdicts agree with the direct path.
            let (all, _) = client.compute(q, d, None).unwrap();
            for tuple in all.iter().take(2) {
                let (checked, _) = client.model_check(q, d, tuple).unwrap();
                assert_eq!(
                    TaskOutcome::Checked(checked),
                    direct(Task::ModelCheck(tuple.clone()))
                );
                assert!(checked);
            }
        }
    }
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn sixteen_concurrent_clients_get_identical_results() {
    let server = boot(ServerConfig {
        // Four permits for 16 clients: most frames queue behind running
        // ones, and every one is still answered.
        scheduler_workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    let (qids, dids) = register(&mut admin);
    let (reference, ref_q, ref_d) = reference();

    // Expected payloads, precomputed directly.
    let expected_counts: Vec<Vec<u128>> = ref_q
        .iter()
        .map(|&q| {
            ref_d
                .iter()
                .map(|&d| {
                    reference
                        .run(&TaskRequest {
                            query: q,
                            doc: d,
                            task: Task::Count,
                        })
                        .unwrap()
                        .outcome
                        .as_count()
                        .unwrap()
                })
                .collect()
        })
        .collect();

    std::thread::scope(|scope| {
        for worker in 0..16 {
            let (qids, dids, expected_counts) = (&qids, &dids, &expected_counts);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..6 {
                    let qi = (worker + round) % qids.len();
                    let di = (worker * 7 + round) % dids.len();
                    let (count, _) = retry_busy(10_000, Duration::from_micros(200), || {
                        client.count(qids[qi], dids[di])
                    })
                    .expect("count under load");
                    assert_eq!(
                        count, expected_counts[qi][di],
                        "worker {worker} round {round}"
                    );
                    let (tuples, _) = retry_busy(10_000, Duration::from_micros(200), || {
                        client.enumerate(qids[qi], dids[di], 0, Some(4), |_| {})
                    })
                    .expect("enumerate under load");
                    assert!(tuples.len() <= 4);
                }
            });
        }
    });

    // Overload queues (or, past the queue bound, is answered with
    // structured busy errors) and never drops: every connection above
    // completed all its rounds.
    let scrape = admin.stats().unwrap();
    assert_eq!(
        metrics::value(&scrape, "spanner_server_connections_total"),
        Some(17)
    );
    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn malformed_frames_draw_errors_and_keep_the_connection() {
    let server = boot(ServerConfig::default());
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());
    let mut reply = String::new();

    // Garbage, valid JSON with an unknown op, and version mismatches (the
    // server speaks v3 only).
    for (frame, code) in [
        ("this is not json\n", "malformed"),
        ("{\"v\":3,\"op\":\"frobnicate\"}\n", "malformed"),
        ("{\"v\":99,\"op\":\"ping\"}\n", "version"),
        ("{\"v\":2,\"op\":\"ping\"}\n", "version"),
    ] {
        raw.write_all(frame.as_bytes()).unwrap();
        reply.clear();
        reader.read_line(&mut reply).unwrap();
        assert!(
            reply.contains(&format!("\"error\":\"{code}\"")),
            "frame {frame:?} drew {reply:?}"
        );
    }

    // The connection is still perfectly usable.
    raw.write_all(b"{\"v\":3,\"op\":\"ping\"}\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"proto\":3"), "{reply:?}");
    server.shutdown_and_join();
}

#[test]
fn oversized_frames_are_discarded_not_buffered() {
    let server = boot(ServerConfig {
        max_frame_len: 256,
        ..ServerConfig::default()
    });
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(raw.try_clone().unwrap());

    // A line way beyond the cap (sent in chunks, like a real client would).
    let huge = vec![b'x'; 64 * 1024];
    raw.write_all(&huge).unwrap();
    raw.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"error\":\"oversized\""), "{reply:?}");

    // The next (valid) frame on the same connection works.
    raw.write_all(b"{\"v\":3,\"op\":\"ping\"}\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"proto\":3"), "{reply:?}");

    // An over-cap line whose newline arrives in the SAME write (and so,
    // very likely, the same server-side read chunk) must be rejected too —
    // the cap is on the frame, not on how it happened to be chunked.
    let mut sneaky = vec![b'y'; 1024];
    sneaky.push(b'\n');
    raw.write_all(&sneaky).unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"error\":\"oversized\""), "{reply:?}");
    raw.write_all(b"{\"v\":3,\"op\":\"ping\"}\n").unwrap();
    reply.clear();
    reader.read_line(&mut reply).unwrap();
    assert!(reply.contains("\"proto\":3"), "{reply:?}");
    server.shutdown_and_join();
}

#[test]
fn a_stalled_reader_cannot_wedge_the_drain() {
    // A client starts a large enumeration stream and never reads a byte:
    // the worker eventually blocks filling the TCP send buffer.  With a
    // write timeout the drain still completes instead of joining that
    // worker forever.
    let server = boot(ServerConfig {
        page_size: 64,
        write_timeout: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    let q = admin.add_query(PATTERNS[0], b"ab").unwrap();
    let d = admin.add_doc(&b"ab".repeat(20_000)).unwrap().id;

    // Raw socket: fire the enumerate request, then go silent.
    let mut stalled = TcpStream::connect(addr).unwrap();
    stalled
        .write_all(
            format!("{{\"v\":3,\"op\":\"task\",\"task\":\"enumerate\",\"query\":{q},\"doc\":{d},\"skip\":0,\"limit\":null}}\n")
                .as_bytes(),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(50)); // let the stream start

    let start = std::time::Instant::now();
    admin.shutdown().unwrap();
    server.join();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "drain took {:?} — a stalled reader wedged it",
        start.elapsed()
    );
    drop(stalled);
}

/// Polls one series of the server's scrape until it reads `want`.
fn await_series(client: &mut Client, name: &str, want: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let value = metrics::value(&client.stats().unwrap(), name);
        if value == Some(want) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{name} stuck at {value:?}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn overload_backpressure_is_structured_busy_not_a_drop() {
    // One permit, pinned by a page-size-1 scan whose client never reads,
    // and a one-deep queue holding a second scan: the next expensive frame
    // of the same tenant overflows its queue, deterministically.
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        class_queue_depth: 1,
        page_size: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{a.*}.*", b"ab").unwrap();
    let d = client.add_doc(&b"ab".repeat(1000)).unwrap().id;
    let scan = WireTask::Enumerate {
        skip: 0,
        limit: None,
    };
    let mut pin = PipelinedClient::connect(server.local_addr()).unwrap();
    pin.submit(q, d, scan.clone()).unwrap();
    await_series(&mut client, "spanner_server_inflight", 1);
    pin.submit(q, d, scan).unwrap();
    await_series(&mut client, "spanner_queue_depth{class=\"expensive\"}", 1);

    let err = client.add_query(PATTERNS[0], b"ab").unwrap_err();
    match &err {
        ClientError::Server { code, detail } => {
            assert_eq!(*code, ErrorCode::Busy);
            assert!(detail.contains("queue is at its 1-deep bound"), "{detail}");
        }
        other => panic!("expected structured busy, got {other:?}"),
    }
    assert!(err.is_busy());

    // The connection survives; observability stays admitted.
    assert_eq!(client.ping().unwrap(), 3);
    let scrape = client.stats().unwrap();
    assert_eq!(
        metrics::value(&scrape, "spanner_server_busy_rejections_total"),
        Some(1)
    );
    // Closing the scan's connection fails its next page write and frees
    // the permit.
    drop(pin);
    server.shutdown_and_join();
}

#[test]
fn streamed_enumeration_pages_match_and_flush_incrementally() {
    let server = boot(ServerConfig {
        page_size: 8,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(PATTERNS[0], b"ab").unwrap();
    let text: Vec<u8> = b"ab".repeat(100);
    let d = client.add_doc(&text).unwrap().id;

    let mut pages = Vec::new();
    let (tuples, stats) = client
        .enumerate(q, d, 0, None, |page| pages.push(page.len()))
        .unwrap();
    assert_eq!(tuples.len(), 100);
    assert_eq!(stats.results, 100);
    // 100 results in pages of 8: 12 full pages + one of 4, each flushed
    // separately.
    assert_eq!(pages.len(), 13);
    assert!(pages[..12].iter().all(|&n| n == 8));
    assert_eq!(pages[12], 4);

    // Payload equality with the direct path.
    let service = Service::new();
    let rq = service.add_query(&regex::compile(PATTERNS[0], b"ab").unwrap());
    let rd = service.add_document(&NormalFormSlp::from_document(&text).unwrap());
    let direct = service
        .run(&TaskRequest {
            query: rq,
            doc: rd,
            task: Task::Enumerate {
                skip: 0,
                limit: None,
            },
        })
        .unwrap();
    assert_eq!(direct.outcome.into_tuples().unwrap(), tuples);
    server.shutdown_and_join();
}

#[test]
fn auto_sharded_documents_serve_identically() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(PATTERNS[0], b"ab").unwrap();

    // Tiny document: the auto policy keeps it monolithic (k = 0 = auto).
    let tiny = client.add_doc_sharded(b"abababab", 0).unwrap();
    assert_eq!(tiny.shards, 1);
    let (count, _) = client.count(q, tiny.id).unwrap();
    assert_eq!(count, 4);

    // Explicit shard counts round the answer through the scatter-gather
    // path; payloads stay identical.
    let text: Vec<u8> = b"ab".repeat(500);
    let mono = client.add_doc(&text).unwrap();
    let sharded = client.add_doc_sharded(&text, 4).unwrap();
    assert_eq!(sharded.shards, 4);
    let (mono_tuples, _) = client.compute(q, mono.id, None).unwrap();
    let (sharded_tuples, _) = client.compute(q, sharded.id, None).unwrap();
    assert_eq!(mono_tuples, sharded_tuples);
    server.shutdown_and_join();
}

#[test]
fn graceful_shutdown_drains_and_refuses_new_work() {
    let server = boot(ServerConfig::default());
    let addr = server.local_addr();
    let mut worker = Client::connect(addr).unwrap();
    let (qids, dids) = register(&mut worker);
    // A request completes fully before the drain begins…
    let (count_before, _) = worker.count(qids[0], dids[0]).unwrap();

    // …then a second connection asks for shutdown.
    let mut terminator = Client::connect(addr).unwrap();
    terminator.shutdown().unwrap();

    // New work on the surviving connection is refused in a structured way
    // (or the drain already closed the socket — both are clean outcomes,
    // never a mid-response cut).
    match worker.count(qids[0], dids[1]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        Err(ClientError::Protocol(_) | ClientError::Io(_)) => {}
        Ok(_) => panic!("work admitted after shutdown"),
    }

    // The drain completes; the port is closed afterwards.
    server.join();
    assert!(
        TcpStream::connect(addr).is_err() || {
            // A TIME_WAIT race can let one connect through; it must be dead.
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_millis(200)))
                .unwrap();
            let mut buf = [0u8; 1];
            stream.write_all(b"{\"v\":3,\"op\":\"ping\"}\n").is_err()
                || matches!(stream.read(&mut buf), Ok(0) | Err(_))
        }
    );
    assert_eq!(count_before, 4);
}

#[test]
fn remove_doc_burns_the_id_and_clears_the_cache() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(PATTERNS[0], b"ab").unwrap();
    let d1 = client.add_doc(TEXTS[0]).unwrap().id;
    let d2 = client.add_doc(TEXTS[1]).unwrap().id;
    client.count(q, d1).unwrap();
    client.count(q, d2).unwrap();
    let resident = |client: &mut Client| {
        metrics::value(&client.stats().unwrap(), "spanner_cache_resident_entries")
    };
    assert_eq!(resident(&mut client), Some(2));

    client.remove_doc(d1).unwrap();

    // The cached matrices of d1 are gone; d2's stay resident and warm.
    assert_eq!(resident(&mut client), Some(1));
    let (_, stats) = client.count(q, d2).unwrap();
    assert!(stats.cache_hit, "the surviving document stays warm");

    // The id is burned: tasks and a second removal both draw unknown_id.
    for err in [
        client.count(q, d1).unwrap_err(),
        client.remove_doc(d1).unwrap_err(),
    ] {
        match err {
            ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownId),
            other => panic!("expected unknown_id, got {other:?}"),
        }
    }

    // New registrations get fresh ids, never the burned one.
    let d3 = client.add_doc(TEXTS[2]).unwrap().id;
    assert_eq!(d3, 2);
    client.count(q, d3).unwrap();
    server.shutdown_and_join();
}

#[test]
fn worker_mode_refuses_corpus_verbs_but_stays_observable() {
    let server = boot(ServerConfig {
        worker: true,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    // Observability is untouched.
    assert_eq!(client.ping().unwrap(), 3);
    client.stats().unwrap();
    // Registrations and tasks draw the structured `unsupported` error and
    // the connection survives each refusal.
    let refusals = [
        client.add_query(PATTERNS[0], b"ab").unwrap_err(),
        client.add_doc(TEXTS[0]).unwrap_err(),
        client.count(0, 0).unwrap_err(),
        client.remove_doc(0).unwrap_err(),
    ];
    for err in refusals {
        match err {
            ClientError::Server { code, detail } => {
                assert_eq!(code, ErrorCode::Unsupported);
                assert!(detail.contains("worker"), "{detail}");
            }
            other => panic!("expected unsupported, got {other:?}"),
        }
    }
    assert_eq!(client.ping().unwrap(), 3);
    server.shutdown_and_join();
}

#[test]
fn wire_ids_are_validated_not_panicked_on() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.count(7, 9).unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::UnknownId),
        other => panic!("expected unknown_id, got {other:?}"),
    }
    // The server survived to tell the tale.
    assert_eq!(client.ping().unwrap(), 3);
    server.shutdown_and_join();
}

#[test]
fn empty_documents_are_eval_errors() {
    let server = boot(ServerConfig::default());
    let mut client = Client::connect(server.local_addr()).unwrap();
    let err = client.add_doc(b"").unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Eval),
        other => panic!("expected eval error, got {other:?}"),
    }
    let err = client.add_query("(((", b"ab").unwrap_err();
    match err {
        ClientError::Server { code, .. } => assert_eq!(code, ErrorCode::Eval),
        other => panic!("expected eval error, got {other:?}"),
    }
    server.shutdown_and_join();
}

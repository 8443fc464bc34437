//! Integration tests of protocol v3 pipelining and the QoS scheduler:
//! out-of-order completion, page interleaving on one socket, deadline
//! shedding, class-queue overflow, lock-step frames beside pipelined ones,
//! and lock-step frames queued behind a held permit.

use spanner_server::{
    metrics, Client, ErrorCode, PipelinedClient, Response, Server, ServerConfig, TenantSpec,
    WireTask,
};
use spanner_slp_core::Service;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const SHED_EXPIRED: &str = "spanner_shed_total{reason=\"expired\"}";
const SHED_OVERFLOW: &str = "spanner_shed_total{reason=\"overflow\"}";
const INFLIGHT: &str = "spanner_server_inflight";

/// Boots a loopback server over a fresh service.
fn boot(config: ServerConfig) -> Server {
    Server::bind("127.0.0.1:0", Service::new(), config).expect("bind loopback")
}

/// One series of a server's scrape.
fn series(client: &mut Client, name: &str) -> u64 {
    let scrape = client.stats().unwrap();
    metrics::value(&scrape, name).unwrap_or_else(|| panic!("no series {name}:\n{scrape}"))
}

/// Registers one query and one document whose enumeration yields `pairs`
/// tuples.
fn register(client: &mut Client, pairs: usize) -> (u64, u64) {
    let query = client.add_query(".*x{ab}.*", b"ab").expect("add_query");
    let doc = client.add_doc(&b"ab".repeat(pairs)).expect("add_doc").id;
    (query, doc)
}

/// Polls one series of the scrape until it reads `want`.
fn await_series(client: &mut Client, name: &str, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let value = series(client, name);
        if value == want {
            return;
        }
        assert!(Instant::now() < deadline, "{name} stuck at {value}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Pins the permit of a one-permit server: a page-size-1 scan over ~10⁶
/// results whose client never reads blocks in its page writes.  Dropping
/// the returned client fails the next write and frees the permit.
fn pin_permit(admin: &mut Client, addr: std::net::SocketAddr) -> PipelinedClient {
    let query = admin.add_query(".*x{a.*}.*", b"ab").expect("add_query");
    let doc = admin.add_doc(&b"ab".repeat(1000)).expect("add_doc").id;
    let mut pin = PipelinedClient::connect(addr).unwrap();
    pin.submit(
        query,
        doc,
        WireTask::Enumerate {
            skip: 0,
            limit: None,
        },
    )
    .unwrap();
    await_series(admin, INFLIGHT, 1);
    pin
}

#[test]
fn cheap_tasks_complete_ahead_of_queued_scans() {
    // One dispatcher, pinned by a scan whose client never reads: six
    // enumerates and then a model check queue behind it.  Once the pin is
    // dropped, the weighted-fair scheduler runs the check — submitted
    // *last*, into the cheap class queue — ahead of queued scans, so its
    // reply arrives out of submission order.  Socket backpressure, not
    // enumeration time, holds the queue.
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        page_size: 1,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let (query, doc) = register(&mut admin, 400);
    let (tuples, _) = admin.compute(query, doc, Some(1)).unwrap();
    let witness = tuples[0].clone();
    let pin = pin_permit(&mut admin, server.local_addr());

    let mut pipe = PipelinedClient::connect(server.local_addr()).unwrap();
    let scans: Vec<u64> = (0..6)
        .map(|_| {
            pipe.submit(
                query,
                doc,
                WireTask::Enumerate {
                    skip: 0,
                    limit: None,
                },
            )
            .unwrap()
        })
        .collect();
    let check = pipe
        .submit(query, doc, WireTask::ModelCheck(witness))
        .unwrap();
    await_series(&mut admin, "spanner_queue_depth{class=\"expensive\"}", 6);
    await_series(&mut admin, "spanner_queue_depth{class=\"cheap\"}", 1);
    drop(pin);

    let replies = pipe.drain().unwrap();
    assert_eq!(replies.len(), 7);
    for reply in &replies {
        assert!(!reply.is_error(), "unexpected error: {:?}", reply.response);
        if scans.contains(&reply.id) {
            assert_eq!(reply.pages.len(), 400, "scan {} lost pages", reply.id);
        }
    }
    let position = |id: u64| replies.iter().position(|r| r.id == id).unwrap();
    // The check was submitted seventh but must not complete seventh: at
    // least one earlier-submitted scan is still queued behind it.
    assert!(
        position(check) < position(*scans.last().unwrap()),
        "model check completed after every scan — no out-of-order completion"
    );

    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn pages_interleave_with_point_lookups_on_one_socket() {
    // Raw socket so the arrival order of frames is observable: a streaming
    // enumerate's pages and concurrent model-check replies must share the
    // connection, not serialise behind each other.  The scan's pages are
    // several times the loopback socket buffers and the test reads nothing
    // until the checks are in, so socket backpressure — not enumeration
    // time — keeps the scan open while the checks are answered.
    let server = boot(ServerConfig {
        scheduler_workers: 2,
        page_size: 1,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let query = admin.add_query(".*x{a.*}.*", b"ab").expect("add_query");
    let doc = admin.add_doc(&b"ab".repeat(1000)).expect("add_doc").id;
    let (tuples, _) = admin.compute(query, doc, Some(1)).unwrap();
    let witness = tuples[0].clone();

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut submit = |id: u64, task: WireTask| {
        let mut frame = spanner_server::Request::Task {
            tenant: 0,
            trace: 0,
            query,
            doc,
            task,
        }
        .encode_with(spanner_server::FrameMeta { id, deadline_us: 0 });
        frame.push(b'\n');
        writer.write_all(&frame).unwrap();
        writer.flush().unwrap();
    };
    let read_frame = |reader: &mut BufReader<TcpStream>| -> (u64, Response) {
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line).unwrap();
        assert_eq!(line.pop(), Some(b'\n'));
        Response::decode_framed(&line).unwrap()
    };

    // ~250k one-tuple pages, well over 10 MB of frames.
    const SCAN: u64 = 1;
    const PAGES: u64 = 250_000;
    const CHECKS: u64 = 8;
    submit(
        SCAN,
        WireTask::Enumerate {
            skip: 0,
            limit: Some(PAGES),
        },
    );
    await_series(&mut admin, INFLIGHT, 1);
    for check in 1..=CHECKS {
        submit(SCAN + check, WireTask::ModelCheck(witness.clone()));
    }
    // Record the arrival order of every frame up to the scan's terminal
    // frame.
    let mut arrivals: Vec<(u64, bool)> = Vec::new();
    let mut outstanding_checks = CHECKS;
    loop {
        let (id, response) = read_frame(&mut reader);
        let page = matches!(response, Response::Page { .. });
        if id != SCAN {
            assert!(matches!(response, Response::Checked { .. }));
            outstanding_checks -= 1;
        }
        arrivals.push((id, page));
        if id == SCAN && !page {
            assert!(matches!(response, Response::StreamEnd { .. }));
            break;
        }
    }
    assert_eq!(
        arrivals
            .iter()
            .filter(|&&(id, page)| id == SCAN && page)
            .count() as u64,
        PAGES
    );
    for _ in 0..outstanding_checks {
        let (id, response) = read_frame(&mut reader);
        assert_ne!(id, SCAN);
        assert!(matches!(response, Response::Checked { .. }));
    }

    let first_page = arrivals.iter().position(|&(id, page)| id == SCAN && page);
    let interleaved =
        first_page.is_some_and(|start| arrivals[start..].iter().any(|&(id, _)| id != SCAN));
    assert!(
        interleaved,
        "no model-check reply arrived between the scan's pages: {} frames",
        arrivals.len()
    );

    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn late_queued_work_is_shed_as_expired_not_busy() {
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        page_size: 1,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let (query, doc) = register(&mut admin, 800);
    let pin = pin_permit(&mut admin, server.local_addr());

    let mut pipe = PipelinedClient::connect(server.local_addr()).unwrap();
    // A scan whose client never reads pins the only dispatcher; a scan and
    // a deadlined count queue behind it.  The count waits far past its
    // microsecond budget and must be shed as expired — the structured
    // signal for "too late", distinct from busy.
    let scan = pipe
        .submit(
            query,
            doc,
            WireTask::Enumerate {
                skip: 0,
                limit: None,
            },
        )
        .unwrap();
    let doomed = pipe
        .submit_with_deadline(query, doc, WireTask::Count, Duration::from_micros(1))
        .unwrap();
    // A generous budget survives the same queue wait.
    let patient = pipe
        .submit_with_deadline(query, doc, WireTask::Count, Duration::from_secs(30))
        .unwrap();
    await_series(&mut admin, "spanner_queue_depth{class=\"expensive\"}", 1);
    await_series(&mut admin, "spanner_queue_depth{class=\"cheap\"}", 2);
    drop(pin);

    for reply in pipe.drain().unwrap() {
        if reply.id == scan {
            assert!(matches!(reply.response, Response::StreamEnd { .. }));
        } else if reply.id == doomed {
            match &reply.response {
                Response::Error { code, detail } => {
                    assert_eq!(*code, ErrorCode::Expired, "wrong code: {detail}");
                }
                other => panic!("doomed count was not shed: {other:?}"),
            }
        } else {
            assert_eq!(reply.id, patient);
            assert!(
                matches!(reply.response, Response::Counted { .. }),
                "patient count shed: {:?}",
                reply.response
            );
        }
    }

    assert!(
        series(&mut admin, SHED_EXPIRED) >= 1,
        "shed_expired not counted"
    );
    assert_eq!(series(&mut admin, SHED_OVERFLOW), 0);
    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn class_queue_overflow_sheds_busy_without_penalising_other_classes() {
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        page_size: 1,
        class_queue_depth: 2,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let (query, doc) = register(&mut admin, 800);
    let pin = pin_permit(&mut admin, server.local_addr());

    let mut pipe = PipelinedClient::connect(server.local_addr()).unwrap();
    let scan = pipe
        .submit(
            query,
            doc,
            WireTask::Enumerate {
                skip: 0,
                limit: None,
            },
        )
        .unwrap();
    // With the dispatcher pinned by a scan whose client never reads, the
    // cheap class queue (bound 2) overflows on the third queued count.
    let counts: Vec<u64> = (0..8)
        .map(|_| pipe.submit(query, doc, WireTask::Count).unwrap())
        .collect();
    await_series(&mut admin, SHED_OVERFLOW, 6);
    drop(pin);

    let replies = pipe.drain().unwrap();
    let shed = replies
        .iter()
        .filter(|r| {
            counts.contains(&r.id)
                && matches!(
                    r.response,
                    Response::Error {
                        code: ErrorCode::Busy,
                        ..
                    }
                )
        })
        .count();
    let served = replies
        .iter()
        .filter(|r| counts.contains(&r.id) && matches!(r.response, Response::Counted { .. }))
        .count();
    assert_eq!(shed + served, counts.len());
    assert!(
        shed >= 1,
        "queue bound of 2 never overflowed across 8 counts"
    );
    assert!(
        served >= 2,
        "the bounded queue should still serve its depth"
    );
    // The scan itself is untouched by the cheap class overflowing.
    let scan_reply = replies.iter().find(|r| r.id == scan).unwrap();
    assert!(matches!(scan_reply.response, Response::StreamEnd { .. }));

    assert!(
        series(&mut admin, SHED_OVERFLOW) >= 1,
        "shed_overflow not counted"
    );
    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn idless_frames_get_lockstep_replies_without_rid() {
    // A frame without a request id is served inline, and its responses
    // carry no `rid` key at all.
    let server = boot(ServerConfig::default());
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let (query, doc) = register(&mut admin, 4);

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut call = |frame: &[u8]| -> Vec<u8> {
        writer.write_all(frame).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line).unwrap();
        assert_eq!(line.pop(), Some(b'\n'));
        line
    };

    let pong = call(b"{\"v\":3,\"op\":\"ping\"}");
    assert!(
        !pong.windows(5).any(|w| w == b"\"rid\""),
        "pong carries rid"
    );
    assert!(matches!(
        Response::decode(&pong).unwrap(),
        Response::Pong { proto: 3 }
    ));

    let counted = call(
        format!("{{\"v\":3,\"op\":\"task\",\"task\":\"count\",\"query\":{query},\"doc\":{doc}}}")
            .as_bytes(),
    );
    assert!(
        !counted.windows(5).any(|w| w == b"\"rid\""),
        "lock-step response carries rid"
    );
    match Response::decode(&counted).unwrap() {
        Response::Counted { value, .. } => assert_eq!(value, 4),
        other => panic!("expected a count, got {other:?}"),
    }

    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn queue_depth_gauges_are_reported() {
    // The scheduler's introspection surface: both class gauges exist in
    // the scrape (zero on an idle server) — scrape wiring depends on them.
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        page_size: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).unwrap();
    for name in [
        "spanner_queue_depth{class=\"cheap\"}",
        "spanner_queue_depth{class=\"expensive\"}",
        SHED_EXPIRED,
        SHED_OVERFLOW,
        INFLIGHT,
    ] {
        assert_eq!(series(&mut client, name), 0, "{name}");
    }

    // A pipelined scan executing on a dispatcher is in flight: it holds a
    // permit, and the gauge must see it.  Its client reads nothing until
    // the end, so the scan stays busy writing pages while the gauge is
    // polled.
    let (query, doc) = register(&mut client, 50_000);
    let mut pipe = PipelinedClient::connect(server.local_addr()).unwrap();
    pipe.submit(
        query,
        doc,
        WireTask::Enumerate {
            skip: 0,
            limit: None,
        },
    )
    .unwrap();
    // Polls the gauge until `done` holds (or a generous deadline passes).
    let mut poll_inflight = |done: fn(u64) -> bool| {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let inflight = series(&mut client, INFLIGHT);
            if done(inflight) || std::time::Instant::now() >= deadline {
                return inflight;
            }
        }
    };
    assert!(
        poll_inflight(|n| n >= 1) >= 1,
        "a running pipelined scan is not in flight"
    );
    assert!(matches!(
        pipe.drain().unwrap()[0].response,
        Response::StreamEnd { .. }
    ));
    // The dispatcher leaves the gauge right after writing the last frame.
    assert_eq!(poll_inflight(|n| n == 0), 0);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn queued_lockstep_frame_is_answered_in_order_once_the_permit_frees() {
    // A lock-step frame arriving while the only permit is held queues (it
    // is not refused as busy) and holds its reader: the ping sent right
    // behind it is read, and answered, only after it.
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        page_size: 1,
        ..ServerConfig::default()
    });
    let mut admin = Client::connect(server.local_addr()).unwrap();
    let (query, doc) = register(&mut admin, 4);
    admin.count(query, doc).unwrap(); // warm, so the queued count is quick
    let pin = pin_permit(&mut admin, server.local_addr());

    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    writer
        .write_all(
            format!(
                "{{\"v\":3,\"op\":\"task\",\"task\":\"count\",\"query\":{query},\"doc\":{doc}}}\n\
                 {{\"v\":3,\"op\":\"ping\"}}\n"
            )
            .as_bytes(),
        )
        .unwrap();
    await_series(&mut admin, "spanner_queue_depth{class=\"cheap\"}", 1);
    // Nothing is answered while the permit stays pinned.
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut line = Vec::new();
    assert!(reader.read_until(b'\n', &mut line).is_err(), "{line:?}");
    assert!(line.is_empty());

    drop(pin);
    reader.get_ref().set_read_timeout(None).unwrap();
    let mut read_line = || {
        let mut line = Vec::new();
        reader.read_until(b'\n', &mut line).unwrap();
        assert_eq!(line.pop(), Some(b'\n'));
        line
    };
    let counted = read_line();
    assert!(
        !counted.windows(5).any(|w| w == b"\"rid\""),
        "lock-step response carries rid"
    );
    match Response::decode(&counted).unwrap() {
        Response::Counted { value, .. } => assert_eq!(value, 4),
        other => panic!("expected the queued count, got {other:?}"),
    }
    assert!(matches!(
        Response::decode(&read_line()).unwrap(),
        Response::Pong { proto: 3 }
    ));
    assert_eq!(
        series(&mut admin, "spanner_server_busy_rejections_total"),
        0
    );
    admin.shutdown().unwrap();
    server.join();
}

#[test]
fn tenant_weights_order_queued_lockstep_frames() {
    // Four lock-step scans each from a weight-4 and a weight-1 tenant queue
    // behind the pinned permit.  Stride scheduling then runs the heavier
    // tenant's queue four times as often, so its scans finish at ranks
    // {1,3,4,5} or {2,3,4,5} (rank sum 13 or 14, by which queue wins the
    // opening tie); equal weights alternate (16 or 20).
    const HEAVY: u32 = 1;
    const LIGHT: u32 = 2;
    let server = boot(ServerConfig {
        scheduler_workers: 1,
        page_size: 1,
        ..ServerConfig::default()
    });
    let addr = server.local_addr();
    let mut admin = Client::connect(addr).unwrap();
    let query = admin.add_query(".*x{ab}.*", b"ab").unwrap();
    let mut docs = Vec::new();
    for (id, weight) in [(HEAVY, 4), (LIGHT, 1)] {
        admin
            .tenant_create(TenantSpec {
                id,
                name: format!("tenant-{id}"),
                max_docs: 0,
                max_corpus_bytes: 0,
                cache_share: 0,
                admission_weight: weight,
            })
            .unwrap();
        admin.set_tenant(id);
        let doc = admin.add_doc(&b"ab".repeat(2000)).unwrap().id;
        // Warm the pair: every queued scan then costs the same page
        // stream, ~2000 flushed pages, so completions are well apart.
        admin.count(query, doc).unwrap();
        docs.push((id, doc));
    }
    admin.set_tenant(0);
    let pin = pin_permit(&mut admin, addr);

    let finished: Mutex<Vec<u32>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for &(tenant, doc) in &docs {
            for _ in 0..4 {
                let finished = &finished;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.set_tenant(tenant);
                    let (tuples, _) = client.enumerate(query, doc, 0, None, |_| {}).unwrap();
                    assert_eq!(tuples.len(), 2000);
                    finished.lock().unwrap().push(tenant);
                });
            }
        }
        await_series(&mut admin, "spanner_queue_depth{class=\"expensive\"}", 8);
        drop(pin);
    });

    let order = finished.into_inner().unwrap();
    let heavy_ranks: usize = (1..=order.len()).filter(|&r| order[r - 1] == HEAVY).sum();
    // One unit of slack for two neighbouring replies whose client threads
    // wake in swapped order.
    assert!(
        heavy_ranks <= 15,
        "the weight-4 tenant's queued work did not run ahead: {order:?}"
    );
    admin.shutdown().unwrap();
    server.join();
}

//! End-to-end request tracing: a sampled task returns a stitched span
//! tree (admission, cache, per-shard scatter work, task execution), a
//! remote sharded build grafts worker-recorded fragments under the
//! coordinator's `shard_rpc` spans, unsampled requests return no trace at
//! all, and the latency histograms in `stats` observe every request.

use slp_spanner::prelude::*;
use spanner_server::{metrics, Client, RemoteExecutor, Server, ServerConfig};
use spanner_slp_core::trace::SpanRec;
use std::sync::Arc;

fn boot() -> Server {
    Server::bind("127.0.0.1:0", Service::new(), ServerConfig::default()).expect("bind")
}

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

/// A deterministic low-repetitiveness document (distinct shard blocks, so
/// every shard really runs).
fn block_text(len: usize) -> Vec<u8> {
    let mut state = 0x9E37_79B9u64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b'a' + ((state >> 33) % 2) as u8
        })
        .collect()
}

fn names(spans: &[SpanRec]) -> Vec<&str> {
    spans.iter().map(|s| s.name.as_str()).collect()
}

/// Every parent index must point at an earlier span (the recorder appends
/// children after their parents, and grafts remap into the same space).
fn assert_well_parented(spans: &[SpanRec]) {
    for (i, span) in spans.iter().enumerate() {
        if let Some(p) = span.parent {
            assert!((p as usize) < i, "span {i} has forward parent {p}");
        }
    }
}

#[test]
fn sampled_task_returns_a_span_tree_and_unsampled_does_not() {
    let server = boot();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    client.add_doc(b"abababab").unwrap();

    client.set_tracing(true);
    let (count, _) = client.count(q, 0).unwrap();
    assert_eq!(count, 4);
    let spans = client
        .last_trace()
        .expect("sampled request returns a trace");
    let names = names(spans);
    for expected in ["admit", "cache_lookup", "task_exec"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    // The first request built matrices; the repeat is a cache hit and
    // must not record a build span.
    assert!(names.contains(&"matrix_build"), "{names:?}");
    assert_well_parented(spans);
    let (count, _) = client.count(q, 0).unwrap();
    assert_eq!(count, 4);
    let spans = client.last_trace().unwrap();
    let repeat_names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(!repeat_names.contains(&"matrix_build"), "{spans:?}");

    // Unsampled again: the captured trace is dropped and none returns.
    client.set_tracing(false);
    assert!(client.last_trace().is_none());
    let (count, _) = client.count(q, 0).unwrap();
    assert_eq!(count, 4);
    assert!(client.last_trace().is_none());
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn enumeration_returns_the_trace_on_the_terminal_frame() {
    let server = boot();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    client.add_doc(b"abababab").unwrap();
    client.set_tracing(true);
    let (tuples, _) = client.enumerate(q, 0, 0, None, |_| {}).unwrap();
    assert_eq!(tuples.len(), 4);
    let spans = client.last_trace().expect("stream end carries the trace");
    let names = names(spans);
    for expected in ["admit", "cache_lookup", "enumerate_page"] {
        assert!(names.contains(&expected), "missing {expected} in {names:?}");
    }
    assert_well_parented(spans);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn remote_sharded_builds_stitch_worker_fragments_into_the_tree() {
    let workers = [boot_worker(), boot_worker()];
    let executor = Arc::new(RemoteExecutor::new(
        workers.iter().map(|w| w.local_addr().to_string()),
    ));
    let service = Service::builder().shard_executor(executor.clone()).build();
    let server = Server::bind("127.0.0.1:0", service, ServerConfig::default()).expect("bind");
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{a+}y{b+}.*", b"ab").unwrap();
    client.add_doc_sharded(&block_text(2048), 4).unwrap();
    client.set_tracing(true);
    let (count, _) = client.count(q, 0).unwrap();
    assert!(count > 0);
    let spans = client.last_trace().expect("sampled build returns a trace");
    assert_well_parented(spans);
    let rpcs: Vec<&SpanRec> = spans.iter().filter(|s| s.name == "shard_rpc").collect();
    assert_eq!(rpcs.len(), 4, "one scatter leg per shard: {spans:?}");
    for rpc in &rpcs {
        assert!(
            rpc.attrs.iter().any(|(k, _)| k == "worker"),
            "shard_rpc without worker attr: {rpc:?}"
        );
    }
    // Each leg carries the worker-recorded fragment: a `shard_pass` span
    // whose parent is a `shard_rpc` span, re-based into request time.
    let passes: Vec<&SpanRec> = spans.iter().filter(|s| s.name == "shard_pass").collect();
    assert_eq!(passes.len(), 4, "{spans:?}");
    for pass in &passes {
        let parent = pass.parent.expect("worker fragments are grafted") as usize;
        assert_eq!(spans[parent].name, "shard_rpc", "{spans:?}");
        assert!(
            pass.start_us >= spans[parent].start_us,
            "fragment not re-based: {pass:?} under {:?}",
            spans[parent]
        );
    }
    // ... and each shard's pass hangs under that shard's own leg: every
    // `shard_rpc` (one per shard index) parents exactly one `shard_pass`.
    let shard_of = |span: &SpanRec| {
        span.attrs
            .iter()
            .find(|(k, _)| k == "shard")
            .map(|(_, v)| v.clone())
            .expect("shard attr")
    };
    let mut legs: Vec<String> = rpcs.iter().map(|rpc| shard_of(rpc)).collect();
    legs.sort();
    legs.dedup();
    assert_eq!(legs.len(), 4, "one leg per shard index: {spans:?}");
    for (index, rpc) in spans.iter().enumerate() {
        if rpc.name != "shard_rpc" {
            continue;
        }
        let children = passes
            .iter()
            .filter(|pass| pass.parent == Some(index as u32))
            .count();
        assert_eq!(
            children,
            1,
            "shard {}'s leg parents {children} passes: {spans:?}",
            shard_of(rpc)
        );
    }
    // ... and carries that shard's label, not the worker's local index.
    for pass in &passes {
        let parent = &spans[pass.parent.expect("grafted") as usize];
        assert_eq!(shard_of(pass), shard_of(parent), "{spans:?}");
    }
    assert!(names(spans).contains(&"gather_products"), "{spans:?}");

    client.shutdown().unwrap();
    server.join();
    for worker in workers {
        let mut c = Client::connect(worker.local_addr()).unwrap();
        c.shutdown().unwrap();
        worker.join();
    }
}

#[test]
fn latency_histograms_observe_every_request_per_kind_and_tenant() {
    let server = boot();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let q = client.add_query(".*x{ab}.*", b"ab").unwrap();
    client.add_doc(b"abababab").unwrap();
    for _ in 0..3 {
        client.count(q, 0).unwrap();
    }
    client.non_empty(q, 0).unwrap();
    let scrape = client.stats().unwrap();
    let count = |labels: &str| {
        metrics::value(
            &scrape,
            &format!("spanner_request_duration_us_count{{{labels}}}"),
        )
        .unwrap_or_else(|| panic!("no histogram for {labels}:\n{scrape}"))
    };
    let kinds: Vec<u64> = Task::KIND_NAMES
        .iter()
        .map(|kind| count(&format!("kind=\"{kind}\"")))
        .collect();
    // KIND_NAMES order: non_emptiness, model_check, count, compute, enumerate.
    assert_eq!(kinds, [1, 0, 3, 0, 0], "{scrape}");
    // The request counters carry the same kind labels, so the two join.
    let tasks: Vec<u64> = Task::KIND_NAMES
        .iter()
        .map(|kind| {
            let name = format!("spanner_tasks_total{{kind=\"{kind}\"}}");
            metrics::value(&scrape, &name).unwrap_or_else(|| panic!("no {name}:\n{scrape}"))
        })
        .collect();
    assert_eq!(tasks, [1, 0, 3, 0, 0], "{scrape}");
    assert_eq!(
        count("tenant=\"0\""),
        4,
        "every request lands in a tenant histogram"
    );
    let tenant_families = scrape
        .lines()
        .filter(|line| line.starts_with("spanner_request_duration_us_count{tenant="))
        .count();
    assert_eq!(tenant_families, 1, "{scrape}");
    // p99 of a non-empty histogram is a real bucket bound.
    let p99 = metrics::value(&scrape, "spanner_request_duration_us_p99{kind=\"count\"}");
    assert!(p99.unwrap() >= 1);
    client.shutdown().unwrap();
    server.join();
}

//! Serving demo: boot the TCP front-end on a loopback port, drive it with
//! the bundled client, and watch the pieces the transport adds on top of
//! the `Service` layer — wire-level task requests, streamed enumeration
//! pages, structured backpressure, and a graceful drain.
//!
//! Run with `cargo run --release --example serving`.

use spanner_server::{
    metrics, retry_busy, Client, PipelinedClient, Server, ServerConfig, WireTask, PROTOCOL_VERSION,
};
use spanner_slp_core::Service;
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A server over a fresh service; page_size kept small so the streaming
    // below is visible.
    let server = Server::bind(
        "127.0.0.1:0",
        Service::new(),
        ServerConfig {
            page_size: 32,
            ..ServerConfig::default()
        },
    )?;
    let addr = server.local_addr();
    println!("server listening on {addr}");

    // Register a query and two documents over the wire: a log-like text and
    // the same text with an auto-tuned shard count (k = 0; tiny documents
    // stay monolithic, large block-like ones scatter over the cores).
    let mut client = Client::connect(addr)?;
    let q = client.add_query(".*x{ab}.*", b"ab")?;
    let text: Vec<u8> = b"ab".repeat(512);
    let mono = client.add_doc(&text)?;
    let auto = client.add_doc_sharded(&text, 0)?;
    println!(
        "registered query {q}, document {} ({} bytes) and auto-sharded twin {} (k = {})",
        mono.id, mono.len, auto.id, auto.shards
    );

    // The task suite over the wire.  The first request pays the matrix
    // build; every later task on the pair hits the cache.
    let (non_empty, stats) = client.non_empty(q, mono.id)?;
    println!(
        "non-empty: {non_empty} (cache {}, build {} µs)",
        if stats.cache_hit { "hit" } else { "miss" },
        stats.build_us
    );
    let (count, stats) = client.count(q, mono.id)?;
    println!(
        "count: {count} (cache {})",
        if stats.cache_hit { "hit" } else { "miss" }
    );
    let (tuples, _) = client.compute(q, mono.id, Some(3))?;
    println!("compute limit=3: {} tuples", tuples.len());
    let (verdict, _) = client.model_check(q, mono.id, &tuples[0])?;
    println!("model check of the first computed tuple: {verdict}");

    // Streamed enumeration: pages are flushed as they are produced, so the
    // first page arrives at the enumeration delay, not after the total.
    let start = Instant::now();
    let mut first_page = None;
    let (all, stats) = client.enumerate(q, mono.id, 0, None, |page| {
        first_page.get_or_insert_with(|| (page.len(), start.elapsed()));
    })?;
    let (first_len, first_at) = first_page.expect("at least one page");
    println!(
        "enumerate: {} results streamed ({} µs); first page of {first_len} after {} µs",
        all.len(),
        stats.task_us,
        first_at.as_micros()
    );

    // The sharded twin answers identically.
    let (count_sharded, _) = client.count(q, auto.id)?;
    assert_eq!(count, count_sharded);

    // Backpressure in one picture: a second server with one execution
    // permit and one-deep queues.  A page-at-a-time scan whose client never
    // reads pins the permit, a second scan fills the queue, and the next
    // expensive frame is answered with a structured `busy` error — the
    // connection survives, and retry_busy is how clients ride it out.
    let capped = Server::bind(
        "127.0.0.1:0",
        Service::new(),
        ServerConfig {
            scheduler_workers: 1,
            class_queue_depth: 1,
            page_size: 1,
            ..ServerConfig::default()
        },
    )?;
    let mut capped_client = Client::connect(capped.local_addr())?;
    let wide = capped_client.add_query(".*x{a.*}.*", b"ab")?;
    let long = capped_client.add_doc(&b"ab".repeat(1000))?.id;
    let scan = WireTask::Enumerate {
        skip: 0,
        limit: None,
    };
    let mut pin = PipelinedClient::connect(capped.local_addr())?;
    pin.submit(wide, long, scan.clone())?;
    await_series(&mut capped_client, "spanner_server_inflight", 1)?;
    pin.submit(wide, long, scan)?;
    await_series(
        &mut capped_client,
        "spanner_queue_depth{class=\"expensive\"}",
        1,
    )?;
    let refused = capped_client.add_query(".*x{ab}.*", b"ab").unwrap_err();
    println!("saturated server says: {refused}");
    assert!(refused.is_busy());
    assert_eq!(
        capped_client.ping()?,
        PROTOCOL_VERSION,
        "the connection survived the busy"
    );
    assert!(retry_busy(3, Duration::from_millis(1), || {
        capped_client.add_query(".*x{ab}.*", b"ab")
    })
    .is_err());
    // Closing the scan's connection ends it and frees the permit.
    drop(pin);
    capped.shutdown_and_join();

    // Service-wide and transport counters over the wire, then a drain.
    let scrape = client.stats()?;
    let series = |name: &str| metrics::value(&scrape, name).unwrap_or(0);
    println!(
        "stats: {} requests ({} enumerate), {} cache hits / {} misses, {} pages streamed",
        series("spanner_requests_total"),
        series("spanner_tasks_total{kind=\"enumerate\"}"),
        series("spanner_cache_hits_total"),
        series("spanner_cache_misses_total"),
        series("spanner_server_pages_streamed_total")
    );
    client.shutdown()?;
    server.join();
    println!("server drained and exited cleanly");
    Ok(())
}

/// Polls one series of the server's scrape until it reads `want`.
fn await_series(
    client: &mut Client,
    name: &str,
    want: u64,
) -> Result<(), Box<dyn std::error::Error>> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics::value(&client.stats()?, name) != Some(want) {
        if Instant::now() >= deadline {
            return Err(format!("{name} never reached {want}").into());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

//! The `spanner-server` binary: boot a long-running evaluation server, a
//! shard worker, or a front-end over a worker pool.
//!
//! ```text
//! spanner-server [--addr HOST:PORT] [--max-frame BYTES]
//!                [--page-size N] [--cache-budget BYTES]
//!                [--block-cache-budget BYTES]
//!                [--data-dir DIR] [--snapshot-every N] [--snapshot-bytes B]
//!                [--worker] [--workers ADDR,ADDR,...]
//!                [--hedge-after-ms MS]
//!                [--slow-log-ms MS] [--trace-sample-rate R]
//!                [--pipeline-window N] [--sched-workers N]
//!                [--class-queue-depth N] [--fifo]
//! ```
//!
//! `--worker` boots a stateless shard-pass worker (serves `shard_build`,
//! `ping`, `stats`, `shutdown`; refuses registrations and tasks).  Workers
//! keep a `--block-cache-budget`-byte content-addressed cache of decoded
//! blocks (default 64 MiB; 0 disables it) so repeat builds negotiate down
//! to hash-sized frames.
//! `--workers a,b` boots a front-end whose sharded matrix builds scatter
//! over the listed worker processes (falling back to local execution when
//! a worker fails).  The two are the halves of a distributed pool: boot N
//! workers, then one front-end pointing at them.  The front-end re-issues
//! a shard to its second-choice worker when the first one fails, or when
//! it is still unanswered after `--hedge-after-ms` (default 0 = adaptive,
//! 3× the median recent round trip).  Every build tries each shard's
//! first-choice worker again, so a dead worker is found by its refused
//! connect and a restarted one serves from the next build on.
//!
//! `--data-dir DIR` makes the server durable: corpus verbs are appended to
//! `DIR/corpus.log`, a snapshot is cut every `--snapshot-every` verbs
//! (default 256; 0 disables periodic snapshots) or whenever the log grows
//! past both `--snapshot-bytes` (default 0 = no size trigger) and the
//! current snapshot's size, and on boot the store is replayed — tenants,
//! quotas, wire ids and shard layouts come back bit-identically, with zero
//! `auto_k` re-probing.  A recovered boot prints
//! `RECOVERED docs=<n> tenants=<n> verbs=<n> snapshot=<bool>` before
//! `LISTENING`.
//!
//! `--slow-log-ms MS` arms the slow-query log: any task slower than MS
//! milliseconds emits its span tree as one structured JSON line on stderr
//! (rate-limited to one line per second).  `--trace-sample-rate R` (a
//! fraction in `[0, 1]`) additionally traces that share of untraced
//! requests server-side, emitting `sampled_query` lines on the same
//! rate-limited stderr channel.
//!
//! Admission: `--sched-workers N` is the number of execution permits
//! (default 4).  Every work-bearing frame runs on its reader thread when a
//! permit is free that no queued frame is waiting for, and otherwise
//! waits in its weighted-fair (class, tenant) queue for one of the N
//! dispatchers.
//! `--class-queue-depth N` bounds each queue (default 64); arrivals past
//! it draw `busy`.  `--pipeline-window N` bounds the per-connection
//! in-flight window of pipelined frames (default 32), and `--fifo`
//! collapses the scheduler to a single FIFO class — the experiment
//! baseline, not a production mode.
//!
//! Prints `LISTENING <addr>` once the socket is bound (scripts parse this
//! to learn an ephemeral port), then serves until a client sends the
//! `shutdown` verb; exits 0 after a clean drain.

use spanner_server::{PersistenceOptions, RemoteExecutor, Server, ServerConfig, ServerOptions};
use spanner_slp_core::Service;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut config = ServerConfig::default();
    let mut cache_budget: Option<usize> = None;
    let mut workers: Vec<String> = Vec::new();
    let mut data_dir: Option<PathBuf> = None;
    let mut snapshot_every: u64 = 256;
    let mut snapshot_bytes: u64 = 0;
    let mut hedge_after_ms: u64 = 0;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let value = |i: usize| {
            args.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for {}", args[i]);
                std::process::exit(2);
            })
        };
        match args[i].as_str() {
            "--addr" => addr = value(i),
            "--max-frame" => config.max_frame_len = parse(&value(i), "--max-frame"),
            "--page-size" => config.page_size = parse(&value(i), "--page-size"),
            "--cache-budget" => cache_budget = Some(parse(&value(i), "--cache-budget")),
            "--block-cache-budget" => {
                config.block_cache_budget = parse(&value(i), "--block-cache-budget")
            }
            "--data-dir" => data_dir = Some(PathBuf::from(value(i))),
            "--snapshot-every" => snapshot_every = parse(&value(i), "--snapshot-every") as u64,
            "--snapshot-bytes" => snapshot_bytes = parse(&value(i), "--snapshot-bytes") as u64,
            "--hedge-after-ms" => hedge_after_ms = parse(&value(i), "--hedge-after-ms") as u64,
            "--slow-log-ms" => config.slow_log_ms = parse(&value(i), "--slow-log-ms") as u64,
            "--trace-sample-rate" => {
                config.trace_sample_rate = parse_rate(&value(i), "--trace-sample-rate")
            }
            "--pipeline-window" => config.pipeline_window = parse(&value(i), "--pipeline-window"),
            "--sched-workers" => config.scheduler_workers = parse(&value(i), "--sched-workers"),
            "--class-queue-depth" => {
                config.class_queue_depth = parse(&value(i), "--class-queue-depth")
            }
            "--fifo" => {
                config.fifo_scheduler = true;
                i += 1;
                continue;
            }
            "--worker" => {
                config.worker = true;
                i += 1;
                continue;
            }
            "--workers" => {
                workers = value(i)
                    .split(',')
                    .filter(|a| !a.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--help" | "-h" => {
                println!(
                    "usage: spanner-server [--addr HOST:PORT] \
                     [--max-frame BYTES] [--page-size N] [--cache-budget BYTES] \
                     [--block-cache-budget BYTES] \
                     [--data-dir DIR] [--snapshot-every N] [--snapshot-bytes B] \
                     [--worker] [--workers ADDR,ADDR,...] \
                     [--hedge-after-ms MS] [--slow-log-ms MS] \
                     [--trace-sample-rate R] [--pipeline-window N] [--sched-workers N] \
                     [--class-queue-depth N] [--fifo]\n\n\
                     --snapshot-bytes B: also snapshot once the log holds B bytes and at \
                     least the current snapshot's size (0 = no size trigger)"
                );
                return;
            }
            other => {
                eprintln!("unknown flag {other} (try --help)");
                std::process::exit(2);
            }
        }
        i += 2;
    }
    if config.worker && !workers.is_empty() {
        eprintln!("--worker and --workers are mutually exclusive roles");
        std::process::exit(2);
    }
    if config.worker && data_dir.is_some() {
        eprintln!("--worker processes are stateless; --data-dir makes no sense there");
        std::process::exit(2);
    }

    let mut builder = Service::builder();
    if let Some(budget) = cache_budget {
        builder = builder.cache_budget(budget);
    }
    let remote = (!workers.is_empty()).then(|| {
        let mut executor = RemoteExecutor::new(workers);
        if hedge_after_ms > 0 {
            executor = executor.with_hedge_after(Duration::from_millis(hedge_after_ms));
        }
        Arc::new(executor)
    });
    if let Some(remote) = &remote {
        builder = builder.shard_executor(remote.clone());
    }
    let options = ServerOptions {
        config,
        persistence: data_dir.map(|dir| PersistenceOptions {
            dir,
            snapshot_every,
            snapshot_bytes,
        }),
        remote,
    };
    let server = match Server::bind_with(addr.as_str(), builder.build(), options) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(report) = server.recovery() {
        println!(
            "RECOVERED docs={} tenants={} verbs={} snapshot={}",
            report.documents, report.tenants, report.replayed_verbs, report.from_snapshot
        );
    }
    println!("LISTENING {}", server.local_addr());
    // Scripts wait for the line above; make sure it is not stuck in a pipe
    // buffer.
    use std::io::Write;
    let _ = std::io::stdout().flush();

    server.join();
    println!("SHUTDOWN clean");
}

fn parse(value: &str, flag: &str) -> usize {
    value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects an unsigned integer, got '{value}'");
        std::process::exit(2);
    })
}

fn parse_rate(value: &str, flag: &str) -> f64 {
    let rate: f64 = value.parse().unwrap_or_else(|_| {
        eprintln!("{flag} expects a fraction in [0, 1], got '{value}'");
        std::process::exit(2);
    });
    if !(0.0..=1.0).contains(&rate) {
        eprintln!("{flag} expects a fraction in [0, 1], got '{value}'");
        std::process::exit(2);
    }
    rate
}

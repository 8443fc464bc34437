//! The experiment report generator: runs every experiment of DESIGN.md §7
//! (E1–E10, E13–E17) with moderate parameters and prints one markdown table
//! per experiment.  EXPERIMENTS.md is produced from this output.  Timings
//! come from [`spanner_bench::time`] (a warm-up run, then the median of
//! repeated runs); the serving workloads are measured by perfbench.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p spanner-bench --bin experiments            # all
//! cargo run --release -p spanner-bench --bin experiments -- e5 e6  # subset
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp::balance::rebalance;
use slp::compress::{Chain, Compressor};
use slp::{families, NormalFormSlp, SlpStats};
use spanner_automata::membership::compressed_membership;
use spanner_bench::{
    ab_family, log_family, measure_delays, random_byte_nfa, repetitiveness_family, row, time,
    unary_family, us, DocCase,
};
use spanner_slp_core::{
    compute::{compute_all, compute_prefix_counted},
    enumerate::Enumerator,
    model_check, nonemptiness,
    prepared::PreparedEvaluation,
    PreparedDocument, Service, Task, TaskRequest,
};
use spanner_workloads::{corpus, queries};

/// One series of a server's metrics scrape (see `spanner_server::metrics`).
fn series(scrape: &str, name: &str) -> u64 {
    spanner_server::metrics::value(scrape, name)
        .unwrap_or_else(|| panic!("the scrape has no series {name}"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |name: &str| args.is_empty() || args.iter().any(|a| a.eq_ignore_ascii_case(name));
    println!("# Experiment report (generated by `experiments`)\n");
    if run("e1") {
        e1();
    }
    if run("e2") {
        e2();
    }
    if run("e3") {
        e3();
    }
    if run("e4") || run("e5") {
        e4_e5();
    }
    if run("e6") {
        e6();
    }
    if run("e7") {
        e7();
    }
    if run("e8") {
        e8();
    }
    if run("e9") {
        e9();
    }
    if run("e10") {
        e10();
    }
    if run("e13") {
        e13();
    }
    if run("e14") {
        e14();
    }
    if run("e15") {
        e15();
    }
    if run("e16") {
        e16();
    }
    if run("e17") {
        e17();
    }
}

fn header(cols: &[&str]) {
    row(&cols.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    row(&cols.iter().map(|_| "---".to_string()).collect::<Vec<_>>());
}

/// E1 — non-emptiness: time vs size(S) and d.
fn e1() {
    println!("## E1 — non-emptiness (Theorem 5.1(1))\n");
    header(&["document", "d", "size(S)", "non-empty", "time (µs)"]);
    let figure2 = queries::figure2().automaton;
    for case in unary_family(&[10, 14, 18, 22, 26, 30]) {
        let (t, result) = time(|| nonemptiness::is_non_empty(&figure2, &case.slp));
        row(&[
            case.name.clone(),
            case.doc_len().to_string(),
            case.slp_size().to_string(),
            result.to_string(),
            us(t),
        ]);
    }
    let log_query = queries::log_error_value().automaton;
    for case in log_family(&[100, 1000, 10_000, 50_000]) {
        let (t, result) = time(|| nonemptiness::is_non_empty(&log_query, &case.slp));
        row(&[
            case.name.clone(),
            case.doc_len().to_string(),
            case.slp_size().to_string(),
            result.to_string(),
            us(t),
        ]);
    }
    println!();
}

/// E2 — model checking: time vs size(S) + |X|·depth(S).
fn e2() {
    println!("## E2 — model checking (Theorem 5.1(2))\n");
    header(&[
        "document",
        "d",
        "size(S)",
        "depth(S)",
        "x",
        "verdict",
        "time (µs)",
    ]);
    let query = queries::ab_blocks().automaton;
    let x = query.variables().get("x").expect("x");
    for case in ab_family(&[1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24]) {
        // `mid` is odd, the start of an "ab": a match; one position on, a
        // "ba" is not.
        let mid = case.doc_len() / 2 + 1;
        for (start, expected) in [(mid, true), (mid + 1, false)] {
            let mut tuple = spanner::SpanTuple::empty(1);
            tuple.set(x, spanner::Span::new(start, start + 2).expect("valid"));
            let (t, verdict) =
                time(|| model_check::check(&query, &case.slp, &tuple).expect("in bounds"));
            assert_eq!(verdict, expected, "model check of [{start}, {}⟩", start + 2);
            row(&[
                case.name.clone(),
                case.doc_len().to_string(),
                case.slp_size().to_string(),
                case.slp.depth().to_string(),
                format!("[{start}, {}⟩", start + 2),
                verdict.to_string(),
                us(t),
            ]);
        }
    }
    println!();
}

/// E3 — computation: time vs r (at ~constant s) and vs s (at r = 1).
fn e3() {
    println!("## E3 — computing ⟦M⟧(D) (Theorem 7.1)\n");
    header(&[
        "document",
        "d",
        "size(S)",
        "r = |⟦M⟧(D)|",
        "time (µs)",
        "µs / result",
    ]);
    let ab_blocks = queries::ab_blocks();
    // The same pattern over {a, b, c}, for the documents holding c's.
    let abc = spanner::regex::compile_deterministic(ab_blocks.pattern, b"abc").expect("compiles");
    // r grows linearly with k, size(S) only logarithmically.
    let r_sweep = ab_family(&[1 << 6, 1 << 8, 1 << 10, 1 << 12, 1 << 14])
        .into_iter()
        .map(|case| (&ab_blocks.automaton, case));
    // r = 1: the single "ab" follows a run of c's whose SLP size grows, so
    // time should track size(S), not d.
    let s_sweep = [10u32, 14, 18].map(|n| {
        let case = DocCase {
            name: format!("c^2^{n}·ab"),
            slp: families::power_of_two_unary(b'c', n)
                .append_terminal(b'a')
                .append_terminal(b'b'),
        };
        (&abc, case)
    });
    for (query, case) in r_sweep.chain(s_sweep) {
        let (t, results) = time(|| compute_all(query, &case.slp).expect("evaluation succeeds"));
        let per = t.as_secs_f64() * 1e6 / results.len().max(1) as f64;
        row(&[
            case.name.clone(),
            case.doc_len().to_string(),
            case.slp_size().to_string(),
            results.len().to_string(),
            us(t),
            format!("{per:.3}"),
        ]);
    }
    println!();
}

/// E4/E5 — enumeration preprocessing and delay.
fn e4_e5() {
    println!("## E4 / E5 — enumeration (Theorem 8.10): preprocessing and delay\n");
    header(&[
        "query",
        "document",
        "d",
        "size(S)",
        "depth(S)",
        "preprocessing (µs)",
        "first result (µs)",
        "mean delay (µs)",
        "max delay (µs)",
        "results drawn",
    ]);
    let cases = [
        (
            queries::ab_blocks(),
            ab_family(&[1 << 8, 1 << 12, 1 << 16, 1 << 20, 1 << 24]),
        ),
        (queries::figure2(), unary_family(&[10, 16, 22])),
        (queries::key_value(), log_family(&[100, 1000])),
    ];
    for (query, family) in &cases {
        for case in family {
            let (prep_time, enumerator) =
                time(|| Enumerator::new(&query.automaton, &case.slp).expect("deterministic"));
            let stats = measure_delays(enumerator.iter(), 10_000);
            row(&[
                query.name.to_string(),
                case.name.clone(),
                case.doc_len().to_string(),
                case.slp_size().to_string(),
                case.slp.depth().to_string(),
                us(prep_time),
                us(stats.first),
                us(stats.mean_delay),
                us(stats.max_delay),
                stats.results.to_string(),
            ]);
        }
    }
    println!();
}

/// E6 — compressed evaluation vs decompress-and-solve across compressibility.
fn e6() {
    println!("## E6 — crossover: compressed vs decompress-and-solve\n");
    header(&[
        "novelty",
        "d",
        "size(S)",
        "ratio",
        "r",
        "compressed enumerate-all (µs)",
        "baseline decompress+DAG (µs)",
        "compressed non-empty (µs)",
        "baseline non-empty (µs)",
        "winner (enumerate)",
    ]);
    let query = queries::adjacent_blocks().automaton;
    for (novelty, _doc, slp) in repetitiveness_family(1 << 15, &[0.0, 0.001, 0.01, 0.1, 0.5, 1.0]) {
        let stats = SlpStats::of(&slp);
        let (t_compressed, r) = time(|| {
            let spanner = spanner_slp_core::SlpSpanner::new(&query, &slp).expect("well-formed");
            spanner.enumerate().count()
        });
        let (t_baseline, r2) = time(|| spanner_baseline::compute_slp(&query, &slp).len());
        assert_eq!(r, r2, "compressed and baseline disagree");
        let (t_ne_compressed, ne1) = time(|| nonemptiness::is_non_empty(&query, &slp));
        let (t_ne_baseline, ne2) = time(|| spanner_baseline::is_non_empty_slp(&query, &slp));
        assert_eq!(ne1, ne2, "non-emptiness disagreement");
        let winner = if t_compressed < t_baseline {
            "compressed"
        } else {
            "baseline"
        };
        row(&[
            format!("{novelty}"),
            stats.document_len.to_string(),
            stats.size.to_string(),
            format!("{:.4}", stats.ratio),
            r.to_string(),
            us(t_compressed),
            us(t_baseline),
            us(t_ne_compressed),
            us(t_ne_baseline),
            winner.to_string(),
        ]);
    }
    println!();
}

/// E7 — SLP membership in a regular language vs decompress-and-run.
fn e7() {
    println!("## E7 — membership substrate (Lemma 4.5)\n");
    header(&[
        "document",
        "q (states)",
        "d",
        "size(S)",
        "compressed (µs)",
        "decompress-and-run (µs)",
    ]);
    // A highly compressible document and an essentially incompressible one of
    // the same length: the compressed algorithm wins on the former, the
    // decompress-and-run baseline wins on the latter (the paper's point that
    // the run times are incomparable in general, Section 1.3).
    let compressible = families::power_word(b"ab", 1 << 16);
    let random_doc: Vec<u8> = {
        let text = spanner_workloads::documents::tunable_repetitiveness(1 << 17, 8, 1.0, 77);
        text.iter()
            .map(|c| if c % 2 == 0 { b'a' } else { b'b' })
            .collect()
    };
    let incompressible = slp::compress::RePair::default().compress(&random_doc);
    for (name, slp) in [("(ab)^2^16", &compressible), ("random", &incompressible)] {
        let doc = slp.derive();
        for q in [2usize, 8, 32, 64] {
            let nfa = random_byte_nfa(q, 0xBEEF + q as u64);
            let (t_c, a) = time(|| compressed_membership(&nfa, slp));
            let (t_u, b) = time(|| nfa.accepts(&doc));
            assert_eq!(a, b, "membership algorithms disagree");
            row(&[
                name.to_string(),
                q.to_string(),
                slp.document_len().to_string(),
                slp.size().to_string(),
                us(t_c),
                us(t_u),
            ]);
        }
    }
    println!();
}

/// E8 — balancing ablation: delay on chain vs rebalanced SLPs.
fn e8() {
    println!("## E8 — balancing ablation (Theorem 4.3 substitute)\n");
    println!(
        "Delays over the whole enumeration (d/2 results).  The d = 2^17 row is \
         dropped: a full chain enumeration there takes about 100 s.\n"
    );
    header(&[
        "d",
        "chain depth",
        "balanced depth",
        "chain mean delay (µs)",
        "balanced mean delay (µs)",
        "chain max delay (µs)",
        "balanced max delay (µs)",
    ]);
    let query = queries::ab_blocks().automaton;
    for exp in [10u32, 12, 14] {
        let doc: Vec<u8> = std::iter::repeat_n(b"ab".iter().copied(), 1 << exp)
            .flatten()
            .collect();
        let chain = Chain.compress(&doc);
        let balanced = rebalance(&chain);
        assert!(balanced.depth() < chain.depth());
        // Whole enumerations: a chain's first results lie near its root,
        // so only the full draw reaches its Θ(d)-deep descents.
        let chain_stats = measure_delays(
            Enumerator::new(&query, &chain)
                .expect("deterministic")
                .iter(),
            usize::MAX,
        );
        let balanced_stats = measure_delays(
            Enumerator::new(&query, &balanced)
                .expect("deterministic")
                .iter(),
            usize::MAX,
        );
        row(&[
            (2u64 << exp).to_string(),
            chain.depth().to_string(),
            balanced.depth().to_string(),
            us(chain_stats.mean_delay),
            us(balanced_stats.mean_delay),
            us(chain_stats.max_delay),
            us(balanced_stats.max_delay),
        ]);
    }
    println!();
}

/// E10 — the service layer's per-request cache statistics: three rounds of
/// counting over a query × document grid against a byte-budgeted matrix
/// cache.  Round 1 is all misses (cold builds); rounds 2–3 show which pairs
/// stayed resident under the per-document budget and what a rebuild costs.
fn e10() {
    println!("## E10 — service cache behaviour (per-request hit statistics)\n");
    let queries = [
        queries::ab_blocks(),
        queries::adjacent_blocks(),
        queries::figure2(),
    ];
    let docs = ab_family(&[1 << 12, 1 << 16, 1 << 20]);

    // Budget sized from the largest single pair so roughly two thirds of
    // the grid fits per document: evictions are forced, not pathological.
    let probe = {
        let service = Service::new();
        let q = service.add_query(&queries[1].automaton);
        let d = service.add_document(&docs.last().expect("family non-empty").slp);
        service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::NonEmptiness,
            })
            .expect("probe")
            .stats
            .matrix_bytes
    };
    let budget = probe * 2;
    println!("per-document cache budget: {budget} bytes\n");

    header(&[
        "round",
        "query",
        "document",
        "count",
        "count cache",
        "build (µs)",
        "count (µs)",
        "enum(5) cache",
        "enum(5) (µs)",
        "matrices (bytes)",
    ]);
    let service = Service::builder().cache_budget(budget).build();
    let qids: Vec<_> = queries
        .iter()
        .map(|q| service.add_query(&q.automaton))
        .collect();
    let dids: Vec<_> = docs.iter().map(|c| service.add_document(&c.slp)).collect();
    let cache = |hit: bool| if hit { "hit" } else { "miss" }.to_string();
    for round in 1..=3 {
        for (query, &q) in queries.iter().zip(&qids) {
            for (case, &d) in docs.iter().zip(&dids) {
                // Two tasks per pair: the count pays the build on a cold
                // pair (or after an eviction); the enumeration window that
                // follows always reuses the now-resident matrices.
                let counted = service
                    .run(&TaskRequest {
                        query: q,
                        doc: d,
                        task: Task::Count,
                    })
                    .expect("counting succeeds");
                let window = service
                    .run(&TaskRequest {
                        query: q,
                        doc: d,
                        task: Task::Enumerate {
                            skip: 0,
                            limit: Some(5),
                        },
                    })
                    .expect("enumeration succeeds");
                row(&[
                    round.to_string(),
                    query.name.to_string(),
                    case.name.clone(),
                    counted.outcome.as_count().expect("count").to_string(),
                    cache(counted.stats.cache_hit),
                    us(counted.stats.matrix_build),
                    us(counted.stats.task_time),
                    cache(window.stats.cache_hit),
                    us(window.stats.task_time),
                    counted.stats.matrix_bytes.to_string(),
                ]);
            }
        }
    }
    let stats = service.stats();
    println!(
        "\ntotals: {} requests, {} hits, {} misses, {} evictions, {} bytes resident\n",
        stats.requests, stats.cache_hits, stats.cache_misses, stats.evictions, stats.resident_bytes,
    );
    e10_sharding();
}

/// E10 (continued) — scatter-gather over shards vs the monolithic matrix
/// build.  "sharded total" is the work summed over every per-shard pass
/// plus the root merge; "critical path" is `max(shard) + merge`, the
/// wall-clock a host with ≥ k cores needs.  Power families share grammar
/// rules across the whole document, so cutting them duplicates structure
/// into every shard (total grows); block documents have little cross-shard
/// sharing, so the shards partition the work and the critical path drops
/// towards `monolithic / k`.
fn e10_sharding() {
    println!("### sharded scatter-gather vs monolithic matrix build\n");
    header(&[
        "document",
        "d",
        "size(S)",
        "k",
        "shards size(S)",
        "monolithic build (µs)",
        "sharded total (µs)",
        "critical path (µs)",
        "deduped",
        "count (≡ monolithic)",
    ]);
    let query = queries::ab_blocks();
    let shard_counts = [2usize, 4, 8];
    let mut cases = corpus::sharded_power_family(b"ab", &[1 << 16, 1 << 24], &shard_counts);
    cases.push(corpus::sharded_block_document(
        1 << 15,
        64,
        1.0,
        9,
        &shard_counts,
    ));
    for case in &cases {
        let monolithic = Service::new();
        let q = monolithic.add_query(&query.automaton);
        let d = monolithic.add_document(&case.slp);
        let request = TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        };
        let mono = monolithic.run(&request).expect("monolithic count");
        let mono_count = mono.outcome.as_count().expect("count");
        row(&[
            case.name.clone(),
            case.slp.document_len().to_string(),
            case.slp.size().to_string(),
            "1".to_string(),
            case.slp.size().to_string(),
            us(mono.stats.matrix_build),
            "-".to_string(),
            "-".to_string(),
            "-".to_string(),
            mono_count.to_string(),
        ]);
        for (k, sharded) in &case.sharded {
            let shards_size: usize = sharded.shards().iter().map(|s| s.size()).sum();
            let service = Service::new();
            let q = service.add_query(&query.automaton);
            let d = service.add_prepared_document(PreparedDocument::from_shards(sharded.clone()));
            let response = service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                })
                .expect("sharded count");
            assert_eq!(
                response.outcome.as_count(),
                Some(mono_count),
                "sharded and monolithic counts must agree"
            );
            let stats = response
                .shard_stats
                .expect("cold sharded builds report shard stats");
            row(&[
                case.name.clone(),
                case.slp.document_len().to_string(),
                case.slp.size().to_string(),
                k.to_string(),
                shards_size.to_string(),
                us(mono.stats.matrix_build),
                us(stats.total()),
                us(stats.critical_path()),
                stats.deduped.to_string(),
                "yes".to_string(),
            ]);
        }
    }
    println!(
        "\n(deduped = content-identical standalone shard blocks collapsed to one \
         executed pass before scatter — the power families' repetitive structure \
         cuts shards into equal sub-grammars, so all but one pass is shared; the \
         pseudo-random block document has nothing to share.)\n"
    );
}

/// E15 — the self-managing fleet: content-addressed scatter collapse on
/// warm re-builds, and hedged tail latency under a deliberately slow
/// worker.
fn e15() {
    use spanner_server::{RemoteExecutor, Server, ServerConfig};
    use spanner_slp_core::ShardExecutor;
    use std::io::{Read, Write};
    use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    println!("## E15 — worker fleet: content-addressed negotiation and hedged stragglers\n");
    let boot_worker = || {
        Server::bind(
            "127.0.0.1:0",
            Service::new(),
            ServerConfig {
                worker: true,
                ..ServerConfig::default()
            },
        )
        .expect("bind worker")
    };
    let workers: Vec<Server> = (0..4).map(|_| boot_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let query = queries::ab_blocks();
    let build = |executor: &Arc<RemoteExecutor>, slp, sharded| {
        let service = Service::builder()
            .shard_executor(executor.clone() as Arc<dyn ShardExecutor>)
            .build();
        let q = service.add_query(&query.automaton);
        let d = service.add_prepared_document(PreparedDocument::sharded_precut(slp, sharded));
        let started = Instant::now();
        service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            })
            .expect("fleet build");
        started.elapsed()
    };

    // ── Part 1: cold vs warm scatter bytes ────────────────────────────
    println!("### scatter bytes: cold build vs warm re-build (hash negotiation)\n");
    header(&[
        "document",
        "d",
        "size(S)",
        "k",
        "cold scatter (B)",
        "warm scatter (B)",
        "ratio",
        "hash-only passes",
        "renegotiations",
    ]);
    let executor = Arc::new(RemoteExecutor::new(addrs.clone()));
    let mut cases = corpus::sharded_power_family(b"ab", &[1 << 20], &[4]);
    cases.push(corpus::sharded_block_document(1 << 14, 64, 1.0, 9, &[4]));
    for case in &cases {
        let (k, sharded) = &case.sharded[0];
        let s0 = executor.scatter_bytes();
        build(&executor, &case.slp, sharded);
        let cold = executor.scatter_bytes() - s0;
        let h0 = executor.hash_only_pass_count();
        let r0 = executor.renegotiation_count();
        let s1 = executor.scatter_bytes();
        build(&executor, &case.slp, sharded);
        let warm = executor.scatter_bytes() - s1;
        row(&[
            case.name.clone(),
            case.slp.document_len().to_string(),
            case.slp.size().to_string(),
            k.to_string(),
            cold.to_string(),
            warm.to_string(),
            format!("{:.1}x", cold as f64 / warm.max(1) as f64),
            (executor.hash_only_pass_count() - h0).to_string(),
            (executor.renegotiation_count() - r0).to_string(),
        ]);
    }
    println!(
        "\n(The warm re-build ships content hashes instead of block bytes: the \
         workers' block caches still hold the decoded grammars, so scatter \
         collapses to hash-sized frames.  `renegotiations` counts hash-only \
         frames a worker could not satisfy — 0 here, nothing was evicted.)\n"
    );
    drop(executor);

    // ── Part 2: hedged tail latency under one slow worker ─────────────
    // A delaying proxy in front of one worker models a straggler: every
    // request chunk through it stalls 20 ms before reaching the worker.
    let delay_proxy = |target: SocketAddr, delay: Duration| -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for stream in listener.incoming().take(256).flatten() {
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
                                std::thread::sleep(delay);
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
        addr
    };
    let slow = Duration::from_millis(20);
    let never = Duration::from_secs(3600); // "hedging off"
    let slow_addr_unhedged = delay_proxy(workers[3].local_addr(), slow).to_string();
    let slow_addr_hedged = delay_proxy(workers[3].local_addr(), slow).to_string();
    let pools: Vec<(&str, Arc<RemoteExecutor>)> = vec![
        (
            "4 workers, 0 slow, no hedging",
            Arc::new(RemoteExecutor::new(addrs.clone()).with_hedge_after(never)),
        ),
        (
            "4 workers, 1 slow (20 ms), no hedging",
            Arc::new(
                RemoteExecutor::new([
                    addrs[0].clone(),
                    addrs[1].clone(),
                    addrs[2].clone(),
                    slow_addr_unhedged,
                ])
                .with_hedge_after(never),
            ),
        ),
        (
            "4 workers, 1 slow (20 ms), hedge after 5 ms",
            Arc::new(
                RemoteExecutor::new([
                    addrs[0].clone(),
                    addrs[1].clone(),
                    addrs[2].clone(),
                    slow_addr_hedged,
                ])
                .with_hedge_after(Duration::from_millis(5)),
            ),
        ),
    ];
    // 24 distinct documents so rendezvous placement varies per build and
    // the slow worker owns a changing subset of the shard primaries.
    let docs: Vec<_> = (0..24)
        .map(|seed| corpus::sharded_block_document(1 << 13, 64, 1.0, seed, &[4]))
        .collect();
    println!("### build latency percentiles with and without hedging\n");
    header(&[
        "pool",
        "builds",
        "p50 (µs)",
        "p99 (µs)",
        "hedges",
        "hedge wins",
        "fallbacks",
    ]);
    for (name, executor) in &pools {
        // Warm the pool connections (and skip their setup cost).
        build(executor, &docs[0].slp, &docs[0].sharded[0].1);
        let mut latencies: Vec<Duration> = docs
            .iter()
            .map(|case| build(executor, &case.slp, &case.sharded[0].1))
            .collect();
        latencies.sort_unstable();
        let p50 = latencies[latencies.len() / 2];
        let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
        row(&[
            name.to_string(),
            latencies.len().to_string(),
            us(p50),
            us(p99),
            executor.hedge_count().to_string(),
            executor.hedge_win_count().to_string(),
            executor.fallback_count().to_string(),
        ]);
    }
    println!(
        "\n(Each build uses a distinct document, so rendezvous placement varies \
         and the slow worker owns a changing subset of shard primaries.  With \
         hedging off, any build whose shards touch the slow worker pays the \
         full 20 ms stall; with a 5 ms budget the straggling pass is re-issued \
         to the next worker in its rendezvous ranking and the fast copy wins \
         the tail back.)\n"
    );
    for worker in workers {
        worker.shutdown_and_join();
    }
}

/// E9 — direct computation vs enumerate-and-collect, uncapped and capped.
fn e9() {
    println!("## E9 — compute (Thm 7.1) vs enumerate-and-collect (Thm 8.10)\n");
    header(&[
        "document",
        "r",
        "compute (µs)",
        "enumerate-and-collect (µs)",
    ]);
    let query = queries::ab_blocks().automaton;
    for case in ab_family(&[1 << 8, 1 << 10, 1 << 12, 1 << 14]) {
        let (t_compute, r) = time(|| {
            compute_all(&query, &case.slp)
                .expect("evaluation succeeds")
                .len()
        });
        let (t_enum, r2) = time(|| {
            Enumerator::new(&query, &case.slp)
                .expect("deterministic")
                .iter()
                .count()
        });
        assert_eq!(r, r2);
        row(&[case.name.clone(), r.to_string(), us(t_compute), us(t_enum)]);
    }
    println!();

    // Capped: the first 64 tuples from resident matrices.  The pull count
    // is the number of entries `M_A[i,j]` the pass computes; it must track
    // the 64 tuples returned, not the whole relation.
    const LIMIT: usize = 64;
    const MAX_PULLS: u64 = 1_000;
    header(&[
        "document",
        "query",
        "r",
        "compute{64} (µs)",
        "enumerate-take-64 (µs)",
        "entries pulled (capped)",
        "entries pulled (uncapped)",
    ]);
    for seed in 1..=3u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let text: Vec<u8> = (0..20_000)
            .map(|_| if rng.gen_bool(0.5) { b'a' } else { b'b' })
            .collect();
        let slp = NormalFormSlp::from_document(&text).expect("non-empty");
        for query in [queries::ab_blocks(), queries::adjacent_blocks()] {
            let prepared = PreparedEvaluation::new(&query.automaton, &slp).expect("prepares");
            let (all, all_pulls) = compute_prefix_counted(&prepared.pre, None);
            let (t_compute, (first, pulls)) =
                time(|| compute_prefix_counted(&prepared.pre, Some(LIMIT)));
            let enumerator = Enumerator::from_prepared(prepared);
            let (t_enum, taken) = time(|| enumerator.iter().take(LIMIT).collect::<Vec<_>>());
            assert_eq!(first, all[..LIMIT.min(all.len())]);
            assert_eq!(first.len(), taken.len());
            assert!(
                pulls <= MAX_PULLS,
                "compute{{64}} pulled {pulls} entries (bound {MAX_PULLS})"
            );
            row(&[
                format!("random-ab-20000 (seed {seed})"),
                query.pattern.to_string(),
                all.len().to_string(),
                us(t_compute),
                us(t_enum),
                pulls.to_string(),
                all_pulls.to_string(),
            ]);
        }
    }
    println!();
}

/// E13 — the bit-packed three-valued kernel: the scalar entry-at-a-time
/// Lemma 6.5 product (kept as the correctness oracle) vs the word-parallel
/// bitplane product, plus what the packing buys the end-to-end builds that
/// are dominated by summary products.
///
/// The ⊥/℮-heavy workload is the honest headline: real reachability
/// summaries are mostly `⊥`, and the scalar kernel's early `break` on a
/// witnessed `1` makes *dense* matrices its best case — so the dense column
/// is the packed kernel's worst case, reported alongside.
fn e13() {
    use spanner_slp_core::matrices::{REntry, RMatrix};
    use std::hint::black_box;

    println!("## E13 — bit-packed kernel: scalar vs word-parallel product (Lemma 6.5)\n");
    header(&[
        "q",
        "workload",
        "scalar (µs/product)",
        "packed (µs/product)",
        "speedup",
    ]);

    // Deterministic xorshift64 fill so every run benchmarks identical
    // matrices.
    fn fill(q: usize, mut seed: u64, weights: (u64, u64, u64)) -> RMatrix {
        let total = weights.0 + weights.1 + weights.2;
        let mut m = RMatrix::bot(q);
        for i in 0..q {
            for j in 0..q {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                let draw = seed % total;
                let entry = if draw < weights.0 {
                    REntry::Bot
                } else if draw < weights.0 + weights.1 {
                    REntry::Empty
                } else {
                    REntry::NonEmpty
                };
                m.set(i, j, entry);
            }
        }
        m
    }

    for &q in &[8usize, 16, 32, 64, 128] {
        // Enough repetitions that even the fastest kernel accumulates
        // well past timer resolution.
        let iters = (64_000_000 / (q * q * q)).max(8);
        for (workload, weights) in [("⊥/℮-heavy", (6u64, 3u64, 1u64)), ("dense", (1, 2, 7))] {
            let b = fill(q, 0x9E37_79B9_7F4A_7C15 ^ q as u64, weights);
            let c = fill(q, 0xC2B2_AE3D_27D4_EB4F ^ (q as u64) << 1, weights);
            // The two kernels must agree bit for bit before either is timed.
            assert_eq!(
                RMatrix::product(&b, &c),
                RMatrix::product_scalar(&b, &c),
                "kernel divergence at q={q} ({workload})"
            );
            let (t_scalar, _) = time(|| {
                for _ in 0..iters {
                    black_box(RMatrix::product_scalar(black_box(&b), black_box(&c)));
                }
            });
            let (t_packed, _) = time(|| {
                for _ in 0..iters {
                    black_box(RMatrix::product(black_box(&b), black_box(&c)));
                }
            });
            let per_scalar = t_scalar.as_secs_f64() * 1e6 / iters as f64;
            let per_packed = t_packed.as_secs_f64() * 1e6 / iters as f64;
            row(&[
                q.to_string(),
                workload.to_string(),
                format!("{per_scalar:.3}"),
                format!("{per_packed:.3}"),
                format!("{:.1}x", per_scalar / per_packed),
            ]);
        }
    }

    // What the kernel swap does to the end-to-end paths that spend their
    // time in summary products.  The "v5 seed" column is the checked-in
    // EXPERIMENTS.md measurement of the byte-per-entry kernel on this
    // machine; "this build" re-measures the same workloads now.
    println!("\n### end-to-end effect on the product-bound builds\n");
    header(&["experiment", "workload", "v5 seed (µs)", "this build (µs)"]);
    let report = |experiment: &str, workload: &str, seed_us: &str, t: std::time::Duration| {
        row(&[
            experiment.to_string(),
            workload.to_string(),
            seed_us.to_string(),
            us(t),
        ]);
    };

    let log_query = queries::log_error_value().automaton;
    let log_case = log_family(&[50_000]).remove(0);
    let (t, non_empty) = time(|| nonemptiness::is_non_empty(&log_query, &log_case.slp));
    assert!(non_empty);
    report("E1 non-emptiness", "log-50000", "42569.959", t);

    let ab_query = queries::ab_blocks().automaton;
    {
        let case = ab_family(&[1 << 24]).remove(0);
        let x = ab_query.variables().get("x").expect("x");
        let mid = case.doc_len() / 2 + 1;
        let mut tuple = spanner::SpanTuple::empty(1);
        tuple.set(x, spanner::Span::new(mid, mid + 2).expect("valid"));
        let (t, _) = time(|| model_check::check(&ab_query, &case.slp, &tuple).expect("in bounds"));
        report("E2 model checking", "(ab)^16777216", "27.996", t);
    }
    for (exp, seed_us) in [(10usize, "389.876"), (14, "7588.220")] {
        let case = ab_family(&[1 << exp]).remove(0);
        let (t, results) = time(|| compute_all(&ab_query, &case.slp).expect("evaluation succeeds"));
        assert!(!results.is_empty());
        report("E3 compute", &format!("(ab)^{}", 1usize << exp), seed_us, t);
    }
    let monolithic_build = |name: &str, slp: &slp::NormalFormSlp<u8>, seed_us: &str| {
        let service = Service::new();
        let q = service.add_query(&queries::ab_blocks().automaton);
        let d = service.add_document(slp);
        let response = service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::Count,
            })
            .expect("monolithic count");
        report(
            "E10 monolithic build",
            name,
            seed_us,
            response.stats.matrix_build,
        );
    };
    monolithic_build(
        "(ab)^16777216",
        &ab_family(&[1 << 24]).remove(0).slp,
        "12.430",
    );
    monolithic_build(
        "block-32768-nov1",
        &corpus::sharded_block_document(1 << 15, 64, 1.0, 9, &[2]).slp,
        "3905.312",
    );
    println!(
        "\n(The scalar kernel stays in the tree as `RMatrix::product_scalar`, the \
         oracle the packed kernel is property-tested against.  \"v5 seed\" is the \
         byte-per-entry kernel's number from the previously checked-in report on \
         the same machine; builds that were already cache- or leaf-bound move \
         little, product-bound ones move with the kernel.)\n"
    );
}

/// E14 — durable restarts: cold boot (register the corpus from scratch)
/// vs replaying the append log vs replaying a snapshot, over growing
/// corpus sizes.  Replay registers every document at its *recorded* shard
/// count, so the probe column must read 0 — a warm restart never re-runs
/// `auto_k` probing.
fn e14() {
    use spanner_server::{Client, PersistenceOptions, Server, ServerConfig, ServerOptions};
    use std::path::PathBuf;
    use std::time::Instant;

    println!("## E14 — durable store: cold boot vs log/snapshot replay\n");
    header(&[
        "docs",
        "corpus (KB)",
        "cold registration (ms)",
        "log replay (ms)",
        "snapshot replay (ms)",
        "log replay (MB/s)",
        "auto probes after replay",
    ]);

    let ms = |t: std::time::Duration| format!("{:.2}", t.as_secs_f64() * 1e3);
    let durable = |dir: PathBuf, snapshot_every: u64| ServerOptions {
        persistence: Some(PersistenceOptions {
            dir,
            snapshot_every,
            snapshot_bytes: 0,
        }),
        ..ServerOptions::from(ServerConfig::default())
    };

    for &docs in &[8usize, 32, 128] {
        // A deterministic mixed corpus: repetitive ab-blocks with per-doc
        // phase shifts, ~2 KB each, every fourth document explicitly
        // sharded so replay exercises both layouts.
        let texts: Vec<Vec<u8>> = (0..docs)
            .map(|i| {
                (0..2048)
                    .map(|j| {
                        if (i + j) % (3 + i % 5) == 0 {
                            b'a'
                        } else {
                            b'b'
                        }
                    })
                    .collect()
            })
            .collect();
        let corpus_bytes: usize = texts.iter().map(Vec::len).sum();

        // Cold boot: compress + register everything into a fresh service.
        let (t_cold, _) = time(|| {
            let service = Service::new();
            for (i, text) in texts.iter().enumerate() {
                let slp = slp::NormalFormSlp::from_document(text).expect("compresses");
                if i % 4 == 0 {
                    service.add_document_sharded(&slp, 2);
                } else {
                    service.add_document(&slp);
                }
            }
        });

        // Write the verbs through a durable server, log only.
        let dir = std::env::temp_dir().join(format!("spanner-e14-{docs}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        {
            let server = Server::bind_with("127.0.0.1:0", Service::new(), durable(dir.clone(), 0))
                .expect("bind durable");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            for (i, text) in texts.iter().enumerate() {
                if i % 4 == 0 {
                    client.add_doc_sharded(text, 2).expect("add sharded");
                } else {
                    client.add_doc(text).expect("add");
                }
            }
            client.shutdown().expect("shutdown");
            server.join();
        }

        // Restart 1: replay the full log.  Boots are timed once with
        // `Instant`: `time` would boot several servers on one data dir.
        let (t_log, probes) = {
            let started = Instant::now();
            let server = Server::bind_with("127.0.0.1:0", Service::new(), durable(dir.clone(), 0))
                .expect("rebind on log");
            let t = started.elapsed();
            let probes = server.service().auto_probe_count();
            assert_eq!(server.recovery().expect("recovered").documents, docs as u64);
            server.shutdown_and_join();
            (t, probes)
        };

        // Cut a snapshot (snapshot_every = 1 snapshots on the next verb),
        // then restart 2: replay the snapshot image.
        {
            let server = Server::bind_with("127.0.0.1:0", Service::new(), durable(dir.clone(), 1))
                .expect("rebind to snapshot");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            client.add_doc(b"abab").expect("snapshot trigger");
            client.shutdown().expect("shutdown");
            server.join();
        }
        let (t_snap, from_snapshot) = {
            let started = Instant::now();
            let server = Server::bind_with("127.0.0.1:0", Service::new(), durable(dir.clone(), 0))
                .expect("rebind on snapshot");
            let t = started.elapsed();
            let from_snapshot = server.recovery().expect("recovered").from_snapshot;
            server.shutdown_and_join();
            (t, from_snapshot)
        };
        assert!(from_snapshot, "the cut snapshot must drive the last boot");
        let _ = std::fs::remove_dir_all(&dir);

        row(&[
            docs.to_string(),
            (corpus_bytes / 1024).to_string(),
            ms(t_cold),
            ms(t_log),
            ms(t_snap),
            format!(
                "{:.1}",
                corpus_bytes as f64 / 1e6 / t_log.as_secs_f64().max(1e-9)
            ),
            probes.to_string(),
        ]);
    }
    println!(
        "\n(Replay re-registers each document at its recorded shard count — the \
         auto-probe column must read 0.  Snapshot replay skips log parsing but \
         both restarts re-run compression and matrix-free registration; the gap \
         between them grows with log length, which is what periodic snapshots \
         bound.)\n"
    );
}

/// E16 — per-tenant isolation under a shared cache and two execution
/// permits: a heavy tenant churning many distinct (query, doc) pairs
/// competes with a light tenant's repeated point lookups.  Without
/// isolation the heavy tenant's builds evict the light tenant's hot
/// matrices and hold the permits; with a reserved cache share and a higher
/// admission weight the light tenant's tail collapses back towards the hit
/// path.
/// Latencies come from the server's own per-tenant histograms (the
/// tracing subsystem's `obs` stats), not client-side clocks.
fn e16() {
    use spanner_server::{retry_busy, Client, Server, ServerConfig, TenantSpec};
    use spanner_workloads::traffic::{self, Mix, OpKind, TenantProfile};

    println!("## E16 — per-tenant isolation: reserved cache shares and admission weights\n");

    const LIGHT: u32 = 1;
    const HEAVY: u32 = 2;
    const CACHE_BUDGET: usize = 1 << 19;
    const HEAVY_DOCS: usize = 12;
    const OPS: usize = 600;
    const THREADS: usize = 4;

    // The heavy tenant cycles pseudo-random (low-repetitiveness) documents
    // whose matrices are ~200 KB resident apiece — far past the shared
    // budget, so its builds churn the cache.  The light tenant re-reads one
    // small repetitive document (a pure cache hit while its ~10 KB of
    // matrices survive).
    let heavy_texts: Vec<Vec<u8>> = (0..HEAVY_DOCS)
        .map(|i| {
            let mut state = 0x9E37_79B9u64 ^ ((i as u64 + 1) << 32);
            (0..4096usize)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    b'a' + ((state >> 33) % 2) as u8
                })
                .collect()
        })
        .collect();
    let light_text: Vec<u8> = (0..1024usize)
        .map(|j| if j % 3 == 0 { b'a' } else { b'b' })
        .collect();
    let patterns = [".*x{ab}.*", ".*x{a+}y{b+}.*"];

    let profiles = [
        TenantProfile {
            weight: 1,
            mix: Mix::new([(OpKind::Count, 1)]),
            num_docs: 1,
        },
        TenantProfile {
            weight: 7,
            mix: Mix::new([(OpKind::Count, 3), (OpKind::Compute { limit: Some(16) }, 1)]),
            num_docs: HEAVY_DOCS,
        },
    ];
    let schedule = traffic::multi_tenant_schedule(patterns.len(), &profiles, OPS, 0xE16);

    // (configuration label, light tenant spec, heavy tenant spec)
    let spec = |id: u32, name: &str, cache_share: u64, admission_weight: u32| TenantSpec {
        id,
        name: name.to_string(),
        max_docs: 0,
        max_corpus_bytes: 0,
        cache_share,
        admission_weight,
    };
    let configs = [
        (
            "shared (no isolation)",
            spec(LIGHT, "light", 0, 1),
            spec(HEAVY, "heavy", 0, 1),
        ),
        (
            "isolated (share + weight)",
            spec(LIGHT, "light", 1 << 16, 4),
            spec(HEAVY, "heavy", 0, 1),
        ),
    ];

    header(&[
        "configuration",
        "light ops",
        "light p50 (µs)",
        "light p95 (µs)",
        "light p99 (µs)",
        "heavy p99 (µs)",
        "cache hit rate",
    ]);
    for (label, light_spec, heavy_spec) in configs {
        let service = Service::builder().cache_budget(CACHE_BUDGET).build();
        let server = Server::bind(
            "127.0.0.1:0",
            service,
            ServerConfig {
                scheduler_workers: 2,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = server.local_addr();

        let mut admin = Client::connect(addr).expect("connect");
        admin.tenant_create(light_spec).expect("light tenant");
        admin.tenant_create(heavy_spec).expect("heavy tenant");
        let qids: Vec<u64> = patterns
            .iter()
            .map(|p| admin.add_query(p, b"ab").expect("add_query"))
            .collect();
        admin.set_tenant(LIGHT);
        let light_doc = retry_busy(1000, std::time::Duration::from_millis(1), || {
            admin.add_doc(&light_text)
        })
        .expect("light doc")
        .id;
        admin.set_tenant(HEAVY);
        let heavy_docs: Vec<u64> = heavy_texts
            .iter()
            .map(|t| {
                retry_busy(1000, std::time::Duration::from_millis(1), || {
                    admin.add_doc(t)
                })
                .expect("heavy doc")
                .id
            })
            .collect();

        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let schedule = &schedule;
                let (qids, heavy_docs) = (&qids, &heavy_docs);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for top in schedule.iter().skip(t).step_by(THREADS) {
                        let q = qids[top.op.query];
                        let (tenant, d) = match top.tenant {
                            0 => (LIGHT, light_doc),
                            _ => (HEAVY, heavy_docs[top.op.doc]),
                        };
                        client.set_tenant(tenant);
                        let limit = match top.op.kind {
                            OpKind::Compute { limit } => limit,
                            _ => None,
                        };
                        retry_busy(10_000, std::time::Duration::from_micros(200), || match top
                            .op
                            .kind
                        {
                            OpKind::Compute { .. } => client.compute(q, d, limit).map(|_| ()),
                            _ => client.count(q, d).map(|_| ()),
                        })
                        .expect("scheduled op");
                    }
                });
            }
        });

        let scrape = admin.stats().expect("stats");
        let tenant = |id: u32, stat: &str| {
            series(
                &scrape,
                &format!("spanner_request_duration_us_{stat}{{tenant=\"{id}\"}}"),
            )
        };
        let hits = series(&scrape, "spanner_cache_hits_total");
        let lookups = hits + series(&scrape, "spanner_cache_misses_total");
        row(&[
            label.to_string(),
            tenant(LIGHT, "count").to_string(),
            tenant(LIGHT, "p50").to_string(),
            tenant(LIGHT, "p95").to_string(),
            tenant(LIGHT, "p99").to_string(),
            tenant(HEAVY, "p99").to_string(),
            format!("{:.0}%", 100.0 * hits as f64 / lookups.max(1) as f64),
        ]);
        admin.shutdown().expect("shutdown");
        server.join();
    }
    println!(
        "\n(Same {OPS}-op interleaved schedule both rows; {THREADS} closed-loop \
         connections against a {CACHE_BUDGET}-byte matrix cache and 2 execution \
         permits; latencies include queue wait.  The isolated row reserves a \
         64 KB cache share for the light tenant and weights its admission 4:1, \
         so its queued lookups run ahead of the heavy tenant's backlog and hit \
         the cache: its p50/p95 stay below the shared row's.)\n"
    );
}

/// E17 — QoS scheduling under a mixed-priority pipelined load: point
/// lookup tail latency with and without weighted-fair queueing.
fn e17() {
    use spanner_server::{Client, FrameMeta, Request, Response, Server, ServerConfig, WireTask};
    use spanner_workloads::traffic::{self, Mix, OpKind};
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    println!("## E17 — pipelined QoS: weighted-fair vs FIFO under a mixed-priority open loop\n");

    const OPS: usize = 600;
    const MEAN_GAP_US: u64 = 3_000;
    // A full scan of `(ab)^20000` (20 000 tuples, ~313 pages) costs more
    // than the mean arrival gap, so the single dispatcher is overloaded by
    // the scan class alone.
    const SCAN_PAIRS: usize = 20_000;

    // One open-loop schedule for both rows: 70% model checks (the
    // latency-sensitive class), 30% full-relation scans (the bandwidth
    // class), Poisson arrivals at a mean 3 ms gap on one pipelined
    // connection with a single dispatcher — the regime in which FIFO lets
    // every queued scan head-of-line-block the point lookups behind it.
    let kinds: Vec<OpKind> =
        traffic::closed_loop_schedule(1, 1, &Mix::mixed_priority(), OPS, 0xE17)
            .into_iter()
            .map(|op| op.kind)
            .collect();
    let arrivals = traffic::open_loop_arrivals(OPS, MEAN_GAP_US, 0xE17);

    header(&[
        "scheduler",
        "check p50 (µs)",
        "check p99 (µs)",
        "scan p99 (µs)",
        "scans/s",
        "wall (s)",
    ]);
    let mut check_p99 = [0u64; 2];
    let mut scan_rate = [0f64; 2];
    for (row_i, fifo) in [true, false].into_iter().enumerate() {
        let server = Server::bind(
            "127.0.0.1:0",
            Service::new(),
            ServerConfig {
                scheduler_workers: 1,
                pipeline_window: 256,
                class_queue_depth: 512,
                page_size: 64,
                fifo_scheduler: fifo,
                ..ServerConfig::default()
            },
        )
        .expect("bind loopback");
        let addr = server.local_addr();

        let mut admin = Client::connect(addr).expect("connect");
        let query = admin.add_query(".*x{ab}.*", b"ab").expect("add_query");
        let doc = admin
            .add_doc(&b"ab".repeat(SCAN_PAIRS))
            .expect("add_doc")
            .id;
        // Pre-build the matrices (and fetch a model-check witness) so the
        // timed run measures scheduling, not the one-off preprocessing.
        let (tuples, _) = admin.compute(query, doc, Some(1)).expect("warm-up");
        let witness = tuples[0].clone();

        let stream = TcpStream::connect(addr).expect("connect pipelined");
        stream.set_nodelay(true).expect("nodelay");
        let reader_stream = stream.try_clone().expect("clone");
        let started = Instant::now();
        let sender = {
            let kinds = kinds.clone();
            let arrivals = arrivals.clone();
            let witness = witness.clone();
            let mut writer = stream;
            std::thread::spawn(move || {
                for (i, (kind, at)) in kinds.iter().zip(&arrivals).enumerate() {
                    let due = Duration::from_micros(*at);
                    let now = started.elapsed();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let task = match kind {
                        OpKind::ModelCheck => WireTask::ModelCheck(witness.clone()),
                        _ => WireTask::Enumerate {
                            skip: 0,
                            limit: None,
                        },
                    };
                    let mut frame = Request::Task {
                        tenant: 0,
                        trace: 0,
                        query,
                        doc,
                        task,
                    }
                    .encode_with(FrameMeta {
                        id: i as u64 + 1,
                        deadline_us: 0,
                    });
                    frame.push(b'\n');
                    writer.write_all(&frame).expect("submit");
                    writer.flush().expect("flush");
                }
            })
        };
        let scans_total = kinds
            .iter()
            .filter(|k| !matches!(k, OpKind::ModelCheck))
            .count();
        let mut reader = BufReader::new(reader_stream);
        let mut terminals = 0usize;
        let mut line = Vec::new();
        while terminals < OPS {
            line.clear();
            reader.read_until(b'\n', &mut line).expect("read frame");
            line.pop();
            let (id, response) = Response::decode_framed(&line).expect("decode frame");
            assert!(id != 0, "lock-step frame on the pipelined connection");
            match response {
                Response::Page { .. } => {}
                Response::Error { code, detail } => {
                    panic!("request {id} failed [{code}]: {detail}")
                }
                _ => terminals += 1,
            }
        }
        let wall = started.elapsed();
        sender.join().expect("sender");

        // Server-side end-to-end latency (queue wait included).
        let scrape = admin.stats().expect("stats");
        let kind = |kind: &str, stat: &str| {
            series(
                &scrape,
                &format!("spanner_request_duration_us_{stat}{{kind=\"{kind}\"}}"),
            )
        };
        let shed = series(&scrape, "spanner_shed_total{reason=\"expired\"}")
            + series(&scrape, "spanner_shed_total{reason=\"overflow\"}");
        assert_eq!(shed, 0);
        check_p99[row_i] = kind("model_check", "p99");
        scan_rate[row_i] = scans_total as f64 / wall.as_secs_f64();
        row(&[
            if fifo {
                "FIFO (single class)"
            } else {
                "weighted-fair"
            }
            .to_string(),
            kind("model_check", "p50").to_string(),
            check_p99[row_i].to_string(),
            kind("enumerate", "p99").to_string(),
            format!("{:.1}", scan_rate[row_i]),
            format!("{:.2}", wall.as_secs_f64()),
        ]);
        admin.shutdown().expect("shutdown");
        server.join();
    }
    println!(
        "\n(Same {OPS}-op Poisson schedule both rows — {MEAN_GAP_US} µs mean gap, 70/30 \
         check/scan — on one pipelined connection, one dispatcher, a 256-deep \
         pipeline window and 512-deep class queues; latencies are the server's \
         own per-kind histograms, so queue wait is included.  Acceptance: \
         weighted-fair check p99 at least 5× below FIFO ({} µs vs {} µs → \
         {:.1}×), scan throughput within 20% ({:.1}/s vs {:.1}/s).)\n",
        check_p99[1],
        check_p99[0],
        check_p99[0] as f64 / check_p99[1].max(1) as f64,
        scan_rate[1],
        scan_rate[0],
    );
}

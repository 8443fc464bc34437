//! The service layer's concurrency contract: `run`/`run_batch` take
//! `&self`, so one shared `Service` must serve many threads — over mixed
//! cache-hit/miss pairs, racing duplicate builds, and LRU eviction under a
//! byte budget — and produce exactly the serial reference results.

use slp_spanner::prelude::*;
use slp_spanner::slp::families;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

fn pool_queries() -> Vec<SpannerAutomaton<u8>> {
    vec![
        compile_query(".*x{a+}y{b+}.*", b"ab").unwrap(),
        compile_query(".*x{ab}.*", b"ab").unwrap(),
        compile_query("(a|b)*x{abb?}(a|b)*", b"ab").unwrap(),
        compile_query(".*x{ba+}.*", b"ab").unwrap(),
    ]
}

fn pool_documents() -> Vec<NormalFormSlp<u8>> {
    vec![
        Bisection.compress(b"aabbaabbab"),
        RePair::default().compress(b"abababab"),
        families::power_word(b"ab", 128),
        Bisection.compress(b"baabba"),
        families::power_word(b"ab", 57),
    ]
}

/// What a serial, fresh-per-pair evaluation says about every pair.
struct Reference {
    counts: Vec<Vec<u128>>,
    sets: Vec<Vec<BTreeSet<SpanTuple>>>,
}

fn reference(queries: &[SpannerAutomaton<u8>], docs: &[NormalFormSlp<u8>]) -> Reference {
    let mut counts = Vec::new();
    let mut sets = Vec::new();
    for m in queries {
        let mut count_row = Vec::new();
        let mut set_row = Vec::new();
        for d in docs {
            let fresh = SlpSpanner::new(m, d).unwrap();
            count_row.push(fresh.count());
            set_row.push(fresh.compute().into_iter().collect());
        }
        counts.push(count_row);
        sets.push(set_row);
    }
    Reference { counts, sets }
}

/// Many threads × one shared `Service`, mixed tasks over the full pair
/// grid in thread-dependent orders (so hits and misses interleave and the
/// same cold pair races from several threads at once).  Every response must
/// equal the serial reference.
#[test]
fn concurrent_evaluation_matches_the_serial_reference() {
    let queries = pool_queries();
    let docs = pool_documents();
    let expected = reference(&queries, &docs);

    let service = Service::new();
    let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
    let dids: Vec<DocumentId> = docs.iter().map(|d| service.add_document(d)).collect();

    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let service = &service;
            let expected = &expected;
            let qids = &qids;
            let dids = &dids;
            let failures = &failures;
            scope.spawn(move || {
                let pairs = qids.len() * dids.len();
                // Strides coprime to the 20-pair grid (gcd(s, 20) = 1), so
                // every thread visits every pair, each in its own order.
                const STRIDES: [usize; 8] = [1, 3, 7, 9, 11, 13, 17, 19];
                for round in 0..ROUNDS {
                    for step in 0..pairs {
                        let k = (step * STRIDES[thread % STRIDES.len()] + round) % pairs;
                        let (qi, di) = (k / dids.len(), k % dids.len());
                        let request = |task: Task| TaskRequest {
                            query: qids[qi],
                            doc: dids[di],
                            task,
                        };
                        let ok = match (thread + step + round) % 3 {
                            0 => {
                                let got = service.run(&request(Task::Count)).unwrap();
                                got.outcome.as_count() == Some(expected.counts[qi][di])
                            }
                            1 => {
                                let got = service
                                    .run(&request(Task::Compute { limit: None }))
                                    .unwrap();
                                got.outcome
                                    .into_tuples()
                                    .unwrap()
                                    .into_iter()
                                    .collect::<BTreeSet<_>>()
                                    == expected.sets[qi][di]
                            }
                            _ => {
                                let got = service.run(&request(Task::NonEmptiness)).unwrap();
                                got.outcome.as_bool() == Some(!expected.sets[qi][di].is_empty())
                            }
                        };
                        if !ok {
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::SeqCst), 0);

    // Every pair is cached at most once despite the racing cold starts.
    for &d in &dids {
        assert!(service.document(d).cached_query_count() <= qids.len());
    }
    let stats = service.stats();
    assert_eq!(
        stats.requests as usize,
        THREADS * ROUNDS * qids.len() * dids.len()
    );
    assert!(
        stats.cache_hits > stats.cache_misses,
        "the grid is revisited many times: {stats:?}"
    );
}

/// `run_batch` fans a mixed workload out across a thread scope and must
/// agree with request-by-request `run`s on a second service.
#[test]
fn run_batch_agrees_with_serial_runs() {
    let queries = pool_queries();
    let docs = pool_documents();
    let expected = reference(&queries, &docs);

    let batched = Service::new();
    let serial = Service::new();
    let mut requests_per = Vec::new();
    for service in [&batched, &serial] {
        let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
        let dids: Vec<DocumentId> = docs.iter().map(|d| service.add_document(d)).collect();
        let mut requests = Vec::new();
        for (qi, &q) in qids.iter().enumerate() {
            for (di, &d) in dids.iter().enumerate() {
                for task in [
                    Task::Count,
                    Task::Compute { limit: None },
                    Task::Enumerate {
                        skip: 1,
                        limit: Some(10),
                    },
                ] {
                    requests.push((
                        (qi, di),
                        TaskRequest {
                            query: q,
                            doc: d,
                            task,
                        },
                    ));
                }
            }
        }
        requests_per.push(requests);
    }

    let reqs: Vec<TaskRequest> = requests_per[0].iter().map(|(_, r)| r.clone()).collect();
    let batch = batched.run_batch(&reqs);
    let one_by_one: Vec<_> = requests_per[1]
        .iter()
        .map(|(_, request)| serial.run(request))
        .collect();

    for (requests, responses) in requests_per.iter().zip([batch, one_by_one]) {
        for (((qi, di), request), response) in requests.iter().zip(responses) {
            let response = response.unwrap();
            match request.task {
                Task::Count => {
                    assert_eq!(response.outcome.as_count(), Some(expected.counts[*qi][*di]))
                }
                Task::Compute { .. } => assert_eq!(
                    response
                        .outcome
                        .into_tuples()
                        .unwrap()
                        .into_iter()
                        .collect::<BTreeSet<_>>(),
                    expected.sets[*qi][*di]
                ),
                Task::Enumerate { skip, limit } => {
                    let want = expected.counts[*qi][*di] as usize;
                    let window = want.saturating_sub(skip).min(limit.unwrap());
                    assert_eq!(response.stats.results as usize, window);
                }
                _ => unreachable!(),
            }
        }
    }
}

/// The byte budget is respected at every step, evictions happen once the
/// working set exceeds it, and evicted pairs are rebuilt with identical
/// results.
#[test]
fn eviction_respects_the_budget_and_rebuilds_correctly() {
    let queries = pool_queries();
    let doc = families::power_word(b"ab", 128);
    let expected: Vec<u128> = queries
        .iter()
        .map(|m| SlpSpanner::new(m, &doc).unwrap().count())
        .collect();

    // Probe one pair's matrix size on an unbounded service.
    let probe = {
        let service = Service::new();
        let q = service.add_query(&queries[0]);
        let d = service.add_document(&doc);
        service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::NonEmptiness,
            })
            .unwrap()
            .stats
            .matrix_bytes
    };

    // Budget for about two matrix sets; four queries share the document.
    let budget = probe * 5 / 2;
    let service = Service::builder().cache_budget(budget).build();
    let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
    let d = service.add_document(&doc);

    for round in 0..3 {
        for (qi, &q) in qids.iter().enumerate() {
            let response = service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                })
                .unwrap();
            assert_eq!(
                response.outcome.as_count(),
                Some(expected[qi]),
                "round {round}, query {qi}: rebuilt matrices answer identically"
            );
            assert!(
                service.document(d).cache_bytes() <= budget,
                "round {round}, query {qi}: budget exceeded"
            );
        }
    }

    let stats = service.stats();
    assert!(
        stats.evictions > 0,
        "4 working-set entries cannot fit a 2-entry budget: {stats:?}"
    );
    // Later rounds cycle through the 4 queries against a 2-slot cache in
    // LRU order, so every request of rounds 2 and 3 misses (Bélády's
    // anomaly pattern) — which is exactly what proves rebuild-on-demand.
    assert!(stats.cache_misses > qids.len() as u64);
    assert!(service.document(d).cache_bytes() <= budget);
}

/// The budgeted cache under concurrency: many threads thrash a cache that
/// can hold only ~2 of 4 working-set entries, so inserts and LRU evictions
/// race continuously — every answer must still equal the serial reference,
/// the resident total must settle within budget, and in-flight evaluations
/// must survive eviction of their matrices.
#[test]
fn concurrent_eviction_keeps_results_correct_and_budget_settled() {
    let queries = pool_queries();
    let doc = families::power_word(b"ab", 128);
    let expected: Vec<u128> = queries
        .iter()
        .map(|m| SlpSpanner::new(m, &doc).unwrap().count())
        .collect();
    let probe = {
        let service = Service::new();
        let q = service.add_query(&queries[0]);
        let d = service.add_document(&doc);
        service
            .run(&TaskRequest {
                query: q,
                doc: d,
                task: Task::NonEmptiness,
            })
            .unwrap()
            .stats
            .matrix_bytes
    };
    let budget = probe * 5 / 2;

    let service = Service::builder().cache_budget(budget).build();
    let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
    let d = service.add_document(&doc);
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for thread in 0..8 {
            let service = &service;
            let qids = &qids;
            let expected = &expected;
            let failures = &failures;
            scope.spawn(move || {
                for round in 0..6 {
                    for slot in 0..qids.len() {
                        // Skew the walk per thread so evictions interleave
                        // with hits on other threads' resident pairs.
                        let qi = (slot + thread + round) % qids.len();
                        let response = service
                            .run(&TaskRequest {
                                query: qids[qi],
                                doc: d,
                                task: Task::Count,
                            })
                            .unwrap();
                        if response.outcome.as_count() != Some(expected[qi]) {
                            failures.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
            });
        }
    });
    assert_eq!(failures.load(Ordering::SeqCst), 0);
    // With no insert in flight the budget invariant holds, and the 4-entry
    // working set over a ~2-entry budget must have evicted.
    assert!(service.document(d).cache_bytes() <= budget);
    let stats = service.stats();
    assert!(stats.evictions > 0, "{stats:?}");
}

/// Unbounded services never evict; the budget knob is what turns it on.
#[test]
fn unbounded_cache_never_evicts() {
    let queries = pool_queries();
    let doc = families::power_word(b"ab", 64);
    let service = Service::new();
    let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
    let d = service.add_document(&doc);
    for _ in 0..2 {
        for &q in &qids {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::NonEmptiness,
                })
                .unwrap();
        }
    }
    let stats = service.stats();
    assert_eq!(stats.evictions, 0);
    assert_eq!(service.document(d).cached_query_count(), qids.len());
    assert_eq!(
        (stats.cache_misses, stats.cache_hits),
        (qids.len() as u64, qids.len() as u64)
    );
}

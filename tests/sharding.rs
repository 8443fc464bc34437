//! Cross-shard equivalence: evaluating a document through the
//! scatter-gather shard path (split at the start rule, per-shard matrix
//! passes, root merge) must be indistinguishable from the monolithic path —
//! for every task, every `k ∈ {2, 4, 8}`, on the paper's own examples, and
//! under an 8-thread stress run against the service-wide cache budget.

use slp_spanner::prelude::*;
use slp_spanner::slp::{families, shard};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

fn queries() -> Vec<SpannerAutomaton<u8>> {
    vec![
        slp_spanner::spanner::examples::figure_2_spanner(),
        compile_query(".*x{a+}y{b+}.*", b"ab").unwrap(),
        compile_query(".*x{ab}.*", b"ab").unwrap(),
    ]
}

/// The paper's example documents plus compressed and generated ones.
fn documents() -> Vec<NormalFormSlp<u8>> {
    vec![
        slp_spanner::slp::examples::example_4_2(),
        Bisection.compress(b"aabccaabaa"),
        RePair::default().compress(b"abababababab"),
        families::power_word(b"ab", 256),
        families::power_word(b"ab", 57),
    ]
}

/// Count, NonEmptiness, Compute, Enumerate and ModelCheck on the sharded
/// path equal the monolithic reference for k ∈ {2, 4, 8} on every document.
#[test]
fn sharded_results_equal_monolithic_for_k_2_4_8() {
    for query in &queries() {
        for doc in &documents() {
            let reference = SlpSpanner::new(query, doc).unwrap();
            let ref_count = reference.count();
            let ref_set: BTreeSet<SpanTuple> = reference.compute().into_iter().collect();
            for k in [2usize, 4, 8] {
                let service = Service::new();
                let q = service.add_query(query);
                let d = service.add_document_sharded(doc, k);
                let request = |task: Task| TaskRequest {
                    query: q,
                    doc: d,
                    task,
                };

                let counted = service.run(&request(Task::Count)).unwrap();
                assert_eq!(counted.outcome.as_count(), Some(ref_count), "count, k={k}");

                let non_empty = service.run(&request(Task::NonEmptiness)).unwrap();
                assert_eq!(
                    non_empty.outcome.as_bool(),
                    Some(!ref_set.is_empty()),
                    "non-emptiness, k={k}"
                );

                let computed = service
                    .run(&request(Task::Compute { limit: None }))
                    .unwrap()
                    .outcome
                    .into_tuples()
                    .unwrap();
                assert_eq!(
                    computed.iter().cloned().collect::<BTreeSet<_>>(),
                    ref_set,
                    "compute, k={k}"
                );
                assert_eq!(computed.len() as u128, ref_count, "duplicates, k={k}");

                let enumerated = service
                    .run(&request(Task::Enumerate {
                        skip: 0,
                        limit: None,
                    }))
                    .unwrap()
                    .outcome
                    .into_tuples()
                    .unwrap();
                assert_eq!(
                    enumerated.into_iter().collect::<BTreeSet<_>>(),
                    ref_set,
                    "enumerate, k={k}"
                );

                if let Some(tuple) = ref_set.iter().next() {
                    let checked = service
                        .run(&request(Task::ModelCheck(tuple.clone())))
                        .unwrap();
                    assert_eq!(checked.outcome.as_bool(), Some(true), "model check, k={k}");
                }
            }
        }
    }
}

/// A cache miss on a sharded document reports per-shard build and merge
/// timings; later hits do not.
#[test]
fn shard_stats_appear_exactly_on_sharded_misses() {
    let service = Service::new();
    let q = service.add_query(&compile_query(".*x{ab}.*", b"ab").unwrap());
    let sharded = service.add_document_sharded(&families::power_word(b"ab", 128), 4);
    let mono = service.add_document(&families::power_word(b"ab", 128));

    let miss = service
        .run(&TaskRequest {
            query: q,
            doc: sharded,
            task: Task::Count,
        })
        .unwrap();
    assert!(!miss.stats.cache_hit);
    let stats = miss.shard_stats.expect("sharded misses carry shard stats");
    assert_eq!(stats.k(), 4);
    assert!(stats.critical_path() <= stats.total());

    let hit = service
        .run(&TaskRequest {
            query: q,
            doc: sharded,
            task: Task::Count,
        })
        .unwrap();
    assert!(hit.stats.cache_hit);
    assert!(hit.shard_stats.is_none(), "hits rebuild nothing");

    let mono_response = service
        .run(&TaskRequest {
            query: q,
            doc: mono,
            task: Task::Count,
        })
        .unwrap();
    assert!(mono_response.shard_stats.is_none(), "monolithic builds");
    assert_eq!(mono_response.outcome.as_count(), miss.outcome.as_count());
}

/// 8 threads hammer one shared service holding sharded documents (mixed
/// k), interleaving tasks in thread-dependent orders; every response must
/// equal the serial monolithic reference.
#[test]
fn eight_thread_stress_over_sharded_documents_matches_reference() {
    let queries = queries();
    let docs = documents();
    let shard_counts = [2usize, 4, 8, 4, 2];

    // Serial monolithic reference.
    let mut counts = Vec::new();
    let mut sets = Vec::new();
    for m in &queries {
        let mut count_row = Vec::new();
        let mut set_row = Vec::new();
        for d in &docs {
            let fresh = SlpSpanner::new(m, d).unwrap();
            count_row.push(fresh.count());
            set_row.push(fresh.compute().into_iter().collect::<BTreeSet<_>>());
        }
        counts.push(count_row);
        sets.push(set_row);
    }

    let service = Service::new();
    let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
    let dids: Vec<DocumentId> = docs
        .iter()
        .zip(&shard_counts)
        .map(|(d, &k)| service.add_document_sharded(d, k))
        .collect();

    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let failures = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let service = &service;
            let qids = &qids;
            let dids = &dids;
            let counts = &counts;
            let sets = &sets;
            let failures = &failures;
            scope.spawn(move || {
                let pairs = qids.len() * dids.len();
                for round in 0..ROUNDS {
                    for step in 0..pairs {
                        // Stride coprime to the 15-pair grid so threads race
                        // the same cold shard builds in different orders.
                        let k = (step * (2 * thread + 1) + round) % pairs;
                        let (qi, di) = (k / dids.len(), k % dids.len());
                        let request = |task: Task| TaskRequest {
                            query: qids[qi],
                            doc: dids[di],
                            task,
                        };
                        let ok = match (thread + step + round) % 3 {
                            0 => {
                                let got = service.run(&request(Task::Count)).unwrap();
                                got.outcome.as_count() == Some(counts[qi][di])
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
                                    == sets[qi][di]
                            }
                            _ => {
                                let got = service.run(&request(Task::NonEmptiness)).unwrap();
                                got.outcome.as_bool() == Some(!sets[qi][di].is_empty())
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
    let stats = service.stats();
    assert_eq!(
        stats.requests as usize,
        THREADS * ROUNDS * qids.len() * dids.len()
    );
    assert!(stats.cache_hits > stats.cache_misses, "{stats:?}");
}

/// The cache budget is service-wide: matrices of *different documents*
/// compete for one pool under a shared eviction clock, the resident total
/// never exceeds the single budget, and evicted pairs rebuild identically.
#[test]
fn global_budget_is_shared_across_documents_and_shards() {
    let query = compile_query(".*x{ab}.*", b"ab").unwrap();
    let docs: Vec<NormalFormSlp<u8>> = [64u64, 96, 128, 160]
        .iter()
        .map(|&k| families::power_word(b"ab", k))
        .collect();
    let expected: Vec<u128> = docs
        .iter()
        .map(|d| SlpSpanner::new(&query, d).unwrap().count())
        .collect();

    // Probe one pair's matrix size on an unbounded service.
    let probe = {
        let service = Service::new();
        let q = service.add_query(&query);
        let d = service.add_document_sharded(&docs[0], 2);
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

    // One budget for the whole service: about 2.5 matrix sets for 4
    // documents (one sharded, three monolithic).
    let budget = probe * 5 / 2;
    let service = Service::builder().cache_budget(budget).build();
    let q = service.add_query(&query);
    let dids: Vec<DocumentId> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            if i % 2 == 0 {
                service.add_document_sharded(d, 2)
            } else {
                service.add_document(d)
            }
        })
        .collect();

    for round in 0..3 {
        for (di, &d) in dids.iter().enumerate() {
            let response = service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task: Task::Count,
                })
                .unwrap();
            assert_eq!(
                response.outcome.as_count(),
                Some(expected[di]),
                "round {round}, document {di}"
            );
            assert!(
                service.stats().resident_bytes <= budget,
                "round {round}, document {di}: global budget exceeded"
            );
        }
    }
    let stats = service.stats();
    assert!(
        stats.evictions > 0,
        "4 documents cannot all stay resident in a ~2-entry pool: {stats:?}"
    );
}

/// The shard split itself round-trips the paper's examples, and the
/// composed grammar derives the identical text.
#[test]
fn shard_split_round_trips_the_paper_examples() {
    for doc in documents() {
        let text = doc.derive();
        for k in [2usize, 4, 8] {
            let sharded = shard::split(&doc, k);
            assert_eq!(sharded.derive(), text);
            let (combined, layout) = sharded.compose();
            assert_eq!(combined.derive(), text);
            assert_eq!(layout.ranges.len(), sharded.k());
        }
    }
}

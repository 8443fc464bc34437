//! Randomised integration tests: on random documents and spanners, all
//! four compressed evaluation algorithms agree with the brute-force
//! reference and with the decompress-and-solve baseline, for every
//! compressor and also after rebalancing.
//!
//! The random cases are generated with a seeded RNG (one fixed seed per
//! property), so the suite is fully deterministic while still covering a
//! spread of documents, queries and candidate tuples — the offline
//! replacement for the original property-based (proptest) formulation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp_spanner::baseline;
use slp_spanner::eval::{compute, enumerate::Enumerator, model_check, nonemptiness};
use slp_spanner::slp::balance::rebalance;
use slp_spanner::slp::compress::{Bisection, Chain, Compressor, Lz78, RePair};
use slp_spanner::spanner::{reference, regex, Span, SpanTuple, SpannerAutomaton, Variable};
use std::collections::BTreeSet;

/// The query pool used by the random tests (all deterministic, ≤ 2 vars).
fn query_pool() -> Vec<SpannerAutomaton<u8>> {
    vec![
        slp_spanner::spanner::examples::figure_2_spanner(),
        regex::compile_deterministic(".*x{a+}y{b+}.*", b"abc").unwrap(),
        regex::compile_deterministic(".*x{ab}.*", b"abc").unwrap(),
        regex::compile_deterministic("(x{a})?(a|b|c)*y{c}", b"abc").unwrap(),
        regex::compile_deterministic("(a|b|c)*x{ab+c}(a|b|c)*", b"abc").unwrap(),
    ]
}

fn compressor_pool() -> Vec<Box<dyn Compressor>> {
    vec![
        Box::new(Bisection),
        Box::new(RePair::default()),
        Box::new(Lz78),
        Box::new(Chain),
    ]
}

fn random_doc(rng: &mut StdRng, alphabet: &[u8], max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(1..=max_len);
    (0..len)
        .map(|_| alphabet[rng.gen_range(0..alphabet.len())])
        .collect()
}

/// Compressed computation, enumeration, non-emptiness and the baseline
/// all produce exactly the reference result set.
#[test]
fn all_evaluators_agree() {
    let queries = query_pool();
    let mut rng = StdRng::seed_from_u64(0x5EED_0001);
    for case in 0..24 {
        let doc = random_doc(&mut rng, b"abc", 13);
        let query = &queries[case % queries.len()];
        let expected = reference::evaluate(query, &doc);

        // Decompress-and-solve baseline.
        let baseline_set: BTreeSet<SpanTuple> = baseline::compute_uncompressed(query, &doc)
            .into_iter()
            .collect();
        assert_eq!(baseline_set, expected, "baseline, doc {doc:?}");

        for compressor in compressor_pool() {
            let slp = compressor.compress(&doc);
            let name = compressor.name();

            // Non-emptiness.
            assert_eq!(
                nonemptiness::is_non_empty(query, &slp),
                !expected.is_empty(),
                "nonemptiness/{name}, doc {doc:?}"
            );

            // Computation.
            let computed: BTreeSet<SpanTuple> = compute::compute_all(query, &slp)
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(computed, expected, "compute/{name}, doc {doc:?}");

            // Enumeration (DFA ⇒ duplicate-free).
            let enumerated: Vec<SpanTuple> = Enumerator::new(query, &slp).unwrap().iter().collect();
            assert_eq!(
                enumerated.len(),
                expected.len(),
                "enum len/{name}, doc {doc:?}"
            );
            let enumerated: BTreeSet<SpanTuple> = enumerated.into_iter().collect();
            assert_eq!(enumerated, expected, "enumerate/{name}, doc {doc:?}");

            // Rebalancing must not change any answer.
            let balanced = rebalance(&slp);
            let rebalanced: BTreeSet<SpanTuple> = compute::compute_all(query, &balanced)
                .unwrap()
                .into_iter()
                .collect();
            assert_eq!(rebalanced, expected, "rebalanced/{name}, doc {doc:?}");
        }
    }
}

/// Every task served through the shared `Service` pool agrees with the
/// brute-force reference on random documents — one pool instance across all
/// cases, so later cases exercise warm query-side preparation.
#[test]
fn service_tasks_agree_with_the_reference() {
    use slp_spanner::prelude::*;
    let queries = query_pool();
    let service = Service::new();
    let qids: Vec<QueryId> = queries.iter().map(|m| service.add_query(m)).collect();
    let mut rng = StdRng::seed_from_u64(0x5EED_0004);
    for case in 0..16 {
        let doc = random_doc(&mut rng, b"abc", 12);
        let query = &queries[case % queries.len()];
        let q = qids[case % queries.len()];
        let expected = reference::evaluate(query, &doc);
        let d = service.add_document(&Bisection.compress(&doc));
        let run = |task: Task| {
            service
                .run(&TaskRequest {
                    query: q,
                    doc: d,
                    task,
                })
                .expect("pooled tasks cannot fail")
        };

        assert_eq!(
            run(Task::NonEmptiness).outcome.as_bool(),
            Some(!expected.is_empty()),
            "nonemptiness, doc {doc:?}"
        );
        assert_eq!(
            run(Task::Count).outcome.as_count(),
            Some(expected.len() as u128),
            "count, doc {doc:?}"
        );
        let computed: BTreeSet<SpanTuple> = run(Task::Compute { limit: None })
            .outcome
            .into_tuples()
            .unwrap()
            .into_iter()
            .collect();
        assert_eq!(computed, expected, "compute, doc {doc:?}");
        let enumerated = run(Task::Enumerate {
            skip: 0,
            limit: None,
        })
        .outcome
        .into_tuples()
        .unwrap();
        assert_eq!(enumerated.len(), expected.len(), "enum len, doc {doc:?}");
        for t in &expected {
            assert_eq!(
                run(Task::ModelCheck(t.clone())).outcome.as_bool(),
                Some(true),
                "model check {t:?}, doc {doc:?}"
            );
        }
    }
    // The pool registered one document per case and five queries total.
    // Each case's first request builds its pair's matrices (one miss); the
    // Count/Compute/Enumerate follow-ups hit them (model checks only peek
    // at resident matrices and count as neither).
    let stats = service.stats();
    assert_eq!(service.num_documents(), 16);
    assert!(stats.cache_hits > stats.cache_misses);
}

/// Model checking agrees with membership of the tuple in the reference
/// result set, for result tuples and for perturbed non-results alike — on
/// the splice path and through `Service` on both of its paths (see
/// `service_paths_agree`), for determinised and non-deterministic queries.
#[test]
fn model_checking_agrees_pointwise() {
    use slp_spanner::eval::{QueryId, Service};
    let queries = query_pool();
    let nondeterministic = nondeterministic_pool();
    let det = Service::new();
    let nondet = Service::builder().determinize(false).build();
    let det_ids: Vec<QueryId> = queries.iter().map(|m| det.add_query(m)).collect();
    let nondet_ids: Vec<QueryId> = nondeterministic
        .iter()
        .map(|m| nondet.add_query(m))
        .collect();
    let mut rng = StdRng::seed_from_u64(0x5EED_0002);
    for case in 0..24 {
        let doc = random_doc(&mut rng, b"abc", 11);
        let query = &queries[case % queries.len()];
        let start = rng.gen_range(1u64..12);
        let len = rng.gen_range(0u64..6);
        let expected = reference::evaluate(query, &doc);
        let slp = Bisection.compress(&doc);

        // Every reference result model-checks positively.
        for t in &expected {
            assert!(
                model_check::check(query, &slp, t).unwrap(),
                "missing {t:?}, doc {doc:?}"
            );
        }

        // A candidate single-variable tuple agrees with reference membership.
        let d = doc.len() as u64;
        let single = |start: u64, end: u64, num_vars: usize| {
            let mut t = SpanTuple::empty(num_vars);
            t.set(Variable(0), Span::new(start, end).unwrap());
            t
        };
        let mut candidates: Vec<SpanTuple> = expected.iter().cloned().collect();
        if query.num_vars() >= 1 && start <= d + 1 && start + len <= d + 1 {
            let candidate = single(start, start + len, query.num_vars());
            let verdict = model_check::check(query, &slp, &candidate).unwrap();
            assert_eq!(
                verdict,
                expected.contains(&candidate),
                "candidate {candidate:?}, doc {doc:?}"
            );
            candidates.push(candidate);
        }

        // Through the service: the same candidates plus tail-spanning
        // tuples (markers at position d+1) and out-of-bounds ones.
        let extra = |num_vars: usize| {
            [(d + 1, d + 1), (start.min(d + 1), d + 1), (1, d + 2)]
                .map(|(s, e)| single(s, e, num_vars))
        };
        candidates.extend(extra(query.num_vars()));
        service_paths_agree(
            &det,
            det_ids[case % queries.len()],
            query,
            &slp,
            &doc,
            &candidates,
        );

        let nd_query = &nondeterministic[case % nondeterministic.len()];
        let mut nd_candidates: Vec<SpanTuple> =
            reference::evaluate(nd_query, &doc).into_iter().collect();
        nd_candidates.extend(extra(nd_query.num_vars()));
        nd_candidates.push(single(start, start + len, nd_query.num_vars()));
        service_paths_agree(
            &nondet,
            nondet_ids[case % nondeterministic.len()],
            nd_query,
            &slp,
            &doc,
            &nd_candidates,
        );
    }
}

/// Non-deterministic queries (served without determinisation).
fn nondeterministic_pool() -> Vec<SpannerAutomaton<u8>> {
    let pool: Vec<SpannerAutomaton<u8>> = [".*x{a.*}.*", ".*x{a+}y{b+}.*", "(a|b|c)*x{(a|b)+c}.*"]
        .iter()
        .map(|p| regex::compile(p, b"abc").unwrap())
        .collect();
    assert!(pool.iter().any(|m| !m.is_deterministic()));
    pool
}

/// Registers `slp` monolithic and sharded with k ∈ {2, 4}, and model-checks
/// every candidate twice per registration: on the resident pair (the spine
/// walk over its matrices) and after `clear_cache` (the splice path).  Both
/// answers equal reference membership; out-of-bounds candidates fail with
/// the same error on both paths.
fn service_paths_agree(
    service: &slp_spanner::eval::Service,
    q: slp_spanner::eval::QueryId,
    query: &SpannerAutomaton<u8>,
    slp: &slp_spanner::slp::NormalFormSlp<u8>,
    doc: &[u8],
    candidates: &[SpanTuple],
) {
    use slp_spanner::eval::{EvalError, Task, TaskRequest};
    let expected = reference::evaluate(query, doc);
    let d = doc.len() as u64;
    let registrations = [
        ("monolithic", service.add_document(slp)),
        ("k=2", service.add_document_sharded(slp, 2)),
        ("k=4", service.add_document_sharded(slp, 4)),
    ];
    for (layout, id) in registrations {
        let run = |task: Task| {
            service.run(&TaskRequest {
                query: q,
                doc: id,
                task,
            })
        };
        let check_all = || -> Vec<Result<bool, EvalError>> {
            candidates
                .iter()
                .map(|t| run(Task::ModelCheck(t.clone())).map(|r| r.outcome.as_bool().unwrap()))
                .collect()
        };
        run(Task::NonEmptiness).unwrap();
        let resident = check_all();
        assert_eq!(service.document(id).cached_query_count(), 1, "{layout}");
        service.document(id).clear_cache();
        let spliced = check_all();
        assert_eq!(service.document(id).cached_query_count(), 0, "{layout}");
        for ((t, walk), splice) in candidates.iter().zip(resident).zip(spliced) {
            assert_eq!(walk, splice, "{layout}: paths differ on {t:?}, doc {doc:?}");
            if t.check_compatible(d).is_ok() {
                assert_eq!(
                    walk,
                    Ok(expected.contains(t)),
                    "{layout}: {t:?}, doc {doc:?}"
                );
            } else {
                assert!(
                    matches!(walk, Err(EvalError::TupleOutOfBounds { .. })),
                    "{layout}: {t:?} must be out of bounds, doc {doc:?}"
                );
            }
        }
    }
}

/// The compressed membership substrate (Lemma 4.5) agrees with direct
/// NFA simulation on random documents.
#[test]
fn membership_substrate_agrees() {
    let mut rng = StdRng::seed_from_u64(0x5EED_0003);
    for seed in 0u64..50 {
        let doc = random_doc(&mut rng, b"ab", 39);
        let q = rng.gen_range(2usize..10);
        let nfa = spanner_bench::random_byte_nfa(q, seed);
        let slp = RePair::default().compress(&doc);
        assert_eq!(
            slp_spanner::automata::compressed_membership(&nfa, &slp),
            nfa.accepts(&doc),
            "seed {seed}, q {q}, doc {doc:?}"
        );
    }
}

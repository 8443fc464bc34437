//! Integration tests for the two-stage evaluation engine behind the
//! `Service` pool: query-side preparation is shared across documents,
//! document-side preparation across queries, batch evaluation matches
//! per-pair evaluation, and the depth-strata matrix pass is output-identical
//! to the serial oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp_spanner::eval::matrices::Preprocessed;
use slp_spanner::eval::prepared::end_transform_count;
use slp_spanner::prelude::*;
use slp_spanner::slp::compress::Chain;
use slp_spanner::slp::families;
use std::collections::BTreeSet;
use std::sync::Mutex;

/// The end-transformation counter is process-global, so tests in this file
/// serialise on a lock to keep their counter windows disjoint.
static COUNTER_LOCK: Mutex<()> = Mutex::new(());

fn documents() -> Vec<NormalFormSlp<u8>> {
    vec![
        Bisection.compress(b"aabbaabbab"),
        RePair::default().compress(b"abababab"),
        families::power_word(b"ab", 256),
        Bisection.compress(b"ba"),
        families::power_word(b"ab", 33),
    ]
}

fn queries() -> Vec<SpannerAutomaton<u8>> {
    vec![
        compile_query(".*x{a+}y{b+}.*", b"ab").unwrap(),
        compile_query(".*x{ab}.*", b"ab").unwrap(),
        compile_query("(a|b)*x{abb?}(a|b)*", b"ab").unwrap(),
    ]
}

fn run(service: &Service, query: QueryId, doc: DocumentId, task: Task) -> TaskOutcome {
    let request = TaskRequest { query, doc, task };
    service.run(&request).unwrap().outcome
}

/// Preparing one query against `k` documents performs the automaton-side
/// transformation (ε-removal + end-transformation) exactly once.
#[test]
fn query_preparation_runs_once_across_documents() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let query = queries().remove(0);
    let docs = documents();

    let before = end_transform_count();
    let service = Service::new();
    let q = service.add_query(&query);
    let dids: Vec<DocumentId> = docs.iter().map(|d| service.add_document(d)).collect();
    let mut counts = Vec::new();
    for &d in &dids {
        counts.push(run(&service, q, d, Task::Count).as_count().unwrap());
    }
    let after = end_transform_count();
    assert_eq!(
        after - before,
        1,
        "one query × {} documents must end-transform exactly once",
        docs.len()
    );

    // And the results are the fresh-per-pair ones.
    for (doc, count) in docs.iter().zip(counts) {
        let fresh = SlpSpanner::new(&query, doc).unwrap();
        assert_eq!(count, fresh.count());
    }
}

/// One document serves `k` queries from a single document-side preparation,
/// caching one matrix set per query; results equal fresh per-pair
/// evaluation.
#[test]
fn document_preparation_is_shared_across_queries() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let doc = families::power_word(b"ab", 128);
    let qs = queries();

    let service = Service::new();
    let d = service.add_document(&doc);
    let qids: Vec<QueryId> = qs.iter().map(|m| service.add_query(m)).collect();
    for (m, &q) in qs.iter().zip(&qids) {
        let pooled: BTreeSet<SpanTuple> = run(&service, q, d, Task::Compute { limit: None })
            .into_tuples()
            .unwrap()
            .into_iter()
            .collect();
        let fresh: BTreeSet<SpanTuple> = SlpSpanner::new(m, &doc)
            .unwrap()
            .compute()
            .into_iter()
            .collect();
        assert_eq!(pooled, fresh);
    }
    assert_eq!(service.document(d).cached_query_count(), qs.len());

    // Re-evaluating every pair hits the cache: no new matrix sets appear.
    for &q in &qids {
        let request = TaskRequest {
            query: q,
            doc: d,
            task: Task::Count,
        };
        assert!(service.run(&request).unwrap().stats.cache_hit);
    }
    assert_eq!(service.document(d).cached_query_count(), qs.len());
}

/// `Service::run_batch` over the full query × document cross-product
/// returns exactly what a fresh `SlpSpanner` per pair computes — it is the
/// one batch fan-out point.
#[test]
fn run_batch_matches_fresh_slp_spanner_per_pair() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let qs = queries();
    let docs = documents();

    let service = Service::new();
    let qids: Vec<QueryId> = qs.iter().map(|m| service.add_query(m)).collect();
    let dids: Vec<DocumentId> = docs.iter().map(|d| service.add_document(d)).collect();
    let requests: Vec<TaskRequest> = qids
        .iter()
        .flat_map(|&q| {
            dids.iter().map(move |&d| TaskRequest {
                query: q,
                doc: d,
                task: Task::Compute { limit: None },
            })
        })
        .collect();

    let batch = service.run_batch(&requests);
    assert_eq!(batch.len(), qs.len() * docs.len());

    for ((qi, di), response) in qids
        .iter()
        .enumerate()
        .flat_map(|(qi, _)| dids.iter().enumerate().map(move |(di, _)| (qi, di)))
        .zip(batch)
    {
        let response = response.expect("compute cannot fail on pooled pairs");
        let result = response.outcome.into_tuples().unwrap();
        let fresh = SlpSpanner::new(&qs[qi], &docs[di]).unwrap();
        let expected: BTreeSet<SpanTuple> = fresh.compute().into_iter().collect();
        let got: BTreeSet<SpanTuple> = result.iter().cloned().collect();
        assert_eq!(got, expected, "query {qi} × document {di}");
        assert_eq!(
            result.len(),
            expected.len(),
            "duplicates in query {qi} × document {di}"
        );
    }
}

/// `Preprocessed::build` — the one depth-strata pass, each stratum mapped
/// across cores — produces matrices identical to the plain bottom-up
/// `build_serial` oracle.  Besides the shared documents, two inputs cover
/// both arms of `par_map`: a Chain grammar holds one rule per stratum (the
/// serial arm), and RePair over a seeded random `{a,b}` text of 2 000
/// symbols has strata wider than the thread count (the spawning arm).  On
/// a one-CPU host every stratum takes the serial arm.
#[test]
fn parallel_matrices_equal_serial_matrices() {
    let _guard = COUNTER_LOCK.lock().unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let random_text: Vec<u8> = (0..2_000)
        .map(|_| b"ab"[rng.gen_range(0..2usize)])
        .collect();
    let chain_text: Vec<u8> = b"aab".iter().copied().cycle().take(300).collect();
    let mut docs = documents();
    docs.push(Chain.compress(&chain_text));
    docs.push(RePair::default().compress(&random_text));
    for query in &queries() {
        let prepared = PreparedQuery::determinized(query);
        for doc in &docs {
            let prepared_doc = PreparedDocument::new(doc);
            let via_build =
                Preprocessed::build(prepared.nfa(), prepared_doc.ended(), prepared.num_vars());
            let serial = Preprocessed::build_serial(
                prepared.nfa(),
                prepared_doc.ended(),
                prepared.num_vars(),
            );
            assert_eq!(via_build, serial);
        }
    }
}

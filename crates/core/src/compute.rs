//! Computing the full relation `⟦M⟧(D)`, Theorem 7.1: time
//! `O(sort(|M|)·q² + size(S)·q⁴·size(⟦M⟧(D)))` in combined complexity,
//! `O(size(S)·|⟦M⟧(D)|)` in data complexity.
//!
//! The algorithm materialises the sets `M_A[i,j]` (Definition 6.2) for the
//! triples `(A, i, j)` that can actually contribute to an accepting run
//! (the paper's condition (†)), recursively via
//! `M_A[i,j] = ⋃_{k ∈ I_A[i,j]} M_B[i,k] ⊗_{|D(B)|} M_C[k,j]`
//! (Lemma 6.8).  Sets are kept as `⪯`-sorted duplicate-free lists, so unions
//! are merges and the `⊗` products stay sorted (appendix D).
//!
//! A cap `L` ([`compute_prefix_from_matrices`]) keeps every materialised
//! list at its first `L` elements: leaf copies, `⊗` products, unions and
//! the root union.  This is exact.  Left positions are `≤ |D(B)| <` right
//! positions, so a product's `l`-major nested loops emit it sorted, and its
//! first `L` elements use only each input's first `L`; a sorted union's
//! first `L` elements likewise depend only on each input's first `L`.  So
//! the capped pass returns exactly the first `L` tuples of `⟦M⟧(D)` in `⪯`
//! order — though phase 1 and the (†)-entries of phase 2 are still all
//! visited, whatever the cap.
//!
//! With the `parallel` feature (default on) the phase-2 materialisation
//! runs level-parallel over the grammar's depth strata — the same wave
//! schedule as the Lemma 6.5 matrix pass — producing values identical to
//! the serial bottom-up order.

use crate::error::EvalError;
use crate::matrices::{Preprocessed, REntry};
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::{PartialMarkerSet, SpanTuple, SpannerAutomaton};
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

/// Computes `⟦M⟧(D)` for the document derived by the SLP (Theorem 7.1).
///
/// Non-deterministic automata are fine here (duplicates are eliminated by
/// the sorted-merge unions); ε-transitions are removed automatically.
pub fn compute_all(
    automaton: &SpannerAutomaton<u8>,
    document: &NormalFormSlp<u8>,
) -> Result<Vec<SpanTuple>, EvalError> {
    let prepared = PreparedEvaluation::new(automaton, document)?;
    Ok(compute_from_prepared(&prepared))
}

/// Computes `⟦M⟧(D)` from an existing [`PreparedEvaluation`].
pub fn compute_from_prepared(prepared: &PreparedEvaluation) -> Vec<SpanTuple> {
    compute_from_matrices(&prepared.pre)
}

/// Computes `⟦M⟧(D)` directly from the preprocessed matrices of a
/// (query, document) pair — the engine-facing entry point.
pub fn compute_from_matrices(pre: &Preprocessed) -> Vec<SpanTuple> {
    compute_prefix_from_matrices(pre, None)
}

/// The first `limit` tuples of [`compute_from_matrices`]'s answer (all of
/// them for `None`), with every list the pass materialises capped at
/// `limit` (see the module docs for why this is exact).
pub fn compute_prefix_from_matrices(pre: &Preprocessed, limit: Option<usize>) -> Vec<SpanTuple> {
    let cap = limit.unwrap_or(usize::MAX);
    let start_nt = pre.start_nt;
    let q0 = pre.nfa_start;
    let final_states = pre.reachable_accepting();
    if final_states.is_empty() || cap == 0 {
        return Vec::new();
    }

    // Phase 1 (top-down): which entries (A, i, j) are needed?  Exactly the
    // triples satisfying the paper's condition (†), which is what bounds
    // |M_A[i,j]| by |⟦M⟧(D)| (Claim 2 in the proof of Theorem 7.1).
    let n = pre.children.len();
    let mut needed: Vec<HashSet<(usize, usize)>> = vec![HashSet::new(); n];
    for &j in &final_states {
        needed[start_nt as usize].insert((q0, j));
    }
    // Parents before children: reverse bottom-up order.
    for &a in pre.bottom_up.iter().rev() {
        if needed[a as usize].is_empty() {
            continue;
        }
        if let Some((b, c)) = pre.children[a as usize] {
            let entries: Vec<(usize, usize)> = needed[a as usize].iter().copied().collect();
            for (i, j) in entries {
                for k in pre.i_set(a, i, j) {
                    needed[b as usize].insert((i, k));
                    needed[c as usize].insert((k, j));
                }
            }
        }
    }

    // Phase 2 (bottom-up): materialise the needed sets as sorted lists,
    // wave-scheduled over the grammar's depth strata exactly like the
    // Lemma 6.5 matrix pass: `M_A[i,j]` of a depth-d rule reads only
    // entries of strictly shallower rules, so all entries of one stratum
    // are independent pure functions of the strata below.  With the
    // `parallel` feature a large enough stratum is mapped across cores;
    // every entry is still computed by [`materialise_entry`] from the same
    // inputs, so the values are identical to the serial order.
    let max_depth = pre
        .bottom_up
        .iter()
        .map(|&a| pre.depths[a as usize])
        .max()
        .unwrap_or(0) as usize;
    let mut strata: Vec<Vec<(u32, usize, usize)>> = vec![Vec::new(); max_depth + 1];
    for &a in &pre.bottom_up {
        if needed[a as usize].is_empty() {
            continue;
        }
        let mut entries: Vec<(usize, usize)> = needed[a as usize].iter().copied().collect();
        entries.sort_unstable();
        strata[pre.depths[a as usize] as usize].extend(entries.into_iter().map(|(i, j)| (a, i, j)));
    }
    let mut values: HashMap<(u32, usize, usize), Vec<PartialMarkerSet>> = HashMap::new();
    for items in strata.iter().filter(|s| !s.is_empty()) {
        let materialise =
            |&(a, i, j): &(u32, usize, usize)| materialise_entry(pre, &values, a, i, j, cap);
        let computed: Vec<Vec<PartialMarkerSet>> = if items.len() >= PHASE2_PAR_THRESHOLD {
            rayon::par_map(items, materialise)
        } else {
            // Small strata stay serial: spawning threads for a handful of
            // entries costs more than the entries themselves.
            items.iter().map(materialise).collect()
        };
        for (&key, value) in items.iter().zip(computed) {
            values.insert(key, value);
        }
    }

    // Phase 3: ⟦M⟧(D) = ⋃_{j ∈ F'} M_{S₀}[q₀, j]  (Lemma 6.3).
    let roots: Vec<Vec<PartialMarkerSet>> = final_states
        .iter()
        .map(|&j| values.remove(&(start_nt, q0, j)).unwrap_or_default())
        .collect();
    merge_sorted(roots, cap)
        .into_iter()
        .map(|markers| {
            SpanTuple::from_marker_set(&markers, pre.num_vars)
                .expect("accepted subword-marked words encode valid span-tuples")
        })
        .collect()
}

/// Minimum stratum size before phase 2 fans an entry wave across cores:
/// below this the thread handoff dominates the merge work itself.
const PHASE2_PAR_THRESHOLD: usize = 16;

/// One `M_A[i,j]` materialisation (Lemma 6.8), capped at its first `cap`
/// elements: leaves copy their precomputed table cell, `⊥` entries are
/// empty, and inner entries merge the `⊗`-products over `I_A[i,j]` —
/// reading only values of strictly shallower rules, which is what makes
/// the per-stratum waves of [`compute_prefix_from_matrices`] safe.
fn materialise_entry(
    pre: &Preprocessed,
    values: &HashMap<(u32, usize, usize), Vec<PartialMarkerSet>>,
    a: u32,
    i: usize,
    j: usize,
    cap: usize,
) -> Vec<PartialMarkerSet> {
    match pre.children[a as usize] {
        None => {
            let cell = pre.leaf_set(a, i, j);
            cell[..cell.len().min(cap)].to_vec()
        }
        Some((b, c)) => {
            if pre.r_entry(a, i, j) == REntry::Bot {
                return Vec::new();
            }
            let shift = pre.lengths[b as usize];
            let mut parts: Vec<Vec<PartialMarkerSet>> = Vec::new();
            for k in pre.i_set(a, i, j) {
                let left = &values[&(b, i, k)];
                let right = &values[&(c, k, j)];
                parts.push(product(left, shift, right, cap));
            }
            merge_sorted(parts, cap)
        }
    }
}

/// The first `cap` elements of `K^k_A[i,j] = M_B[i,k] ⊗_s M_C[k,j]`
/// (Definition 6.7).  Both inputs are `⪯`-sorted; by the order's
/// compatibility with `⊗` (appendix D) the output produced by the
/// `l`-major nested loops is sorted as well, and by Lemma 6.9 it has no
/// duplicates.
fn product(
    left: &[PartialMarkerSet],
    shift: u64,
    right: &[PartialMarkerSet],
    cap: usize,
) -> Vec<PartialMarkerSet> {
    let mut out = Vec::with_capacity((left.len() * right.len()).min(cap));
    'rows: for l in left {
        for r in right {
            if out.len() == cap {
                break 'rows;
            }
            out.push(l.compose(shift, r));
        }
    }
    debug_assert!(out.windows(2).all(|w| w[0] < w[1]));
    out
}

/// Merges sorted duplicate-free lists into the first `cap` elements of
/// their sorted duplicate-free union (the paper's sorted-list unions).
fn merge_sorted(mut parts: Vec<Vec<PartialMarkerSet>>, cap: usize) -> Vec<PartialMarkerSet> {
    // Simple repeated two-way merge; the number of parts is at most q (or
    // |F'|), so this stays within the stated bounds.
    let mut acc = parts.pop().unwrap_or_default();
    acc.truncate(cap);
    while let Some(next) = parts.pop() {
        acc = merge_two(acc, next, cap);
    }
    acc
}

fn merge_two(
    a: Vec<PartialMarkerSet>,
    b: Vec<PartialMarkerSet>,
    cap: usize,
) -> Vec<PartialMarkerSet> {
    let mut out = Vec::with_capacity((a.len() + b.len()).min(cap));
    let mut ia = a.into_iter().peekable();
    let mut ib = b.into_iter().peekable();
    while out.len() < cap {
        let next = match (ia.peek(), ib.peek()) {
            (Some(x), Some(y)) => match x.cmp(y) {
                Ordering::Less => ia.next(),
                Ordering::Greater => ib.next(),
                Ordering::Equal => {
                    ib.next();
                    ia.next()
                }
            },
            (Some(_), None) => ia.next(),
            (None, _) => ib.next(),
        };
        match next {
            Some(set) => out.push(set),
            None => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::compress::{Bisection, Chain, Compressor, Lz78, RePair};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, regex, Span, Variable};
    use std::collections::BTreeSet;

    fn compute_set(
        automaton: &SpannerAutomaton<u8>,
        doc: &[u8],
        compressor: &dyn Compressor,
    ) -> BTreeSet<SpanTuple> {
        let slp = compressor.compress(doc);
        compute_all(automaton, &slp).unwrap().into_iter().collect()
    }

    #[test]
    fn matches_reference_on_the_paper_example() {
        let m = figure_2_spanner();
        let doc = b"aabccaabaa";
        let expected = reference::evaluate(&m, doc);
        for compressor in [
            &Bisection as &dyn Compressor,
            &RePair::default(),
            &Lz78,
            &Chain,
        ] {
            assert_eq!(
                compute_set(&m, doc, compressor),
                expected,
                "compressor {}",
                compressor.name()
            );
        }
        // Sanity: the Example 8.2 tuple is among the results.
        let mut t = SpanTuple::empty(2);
        t.set(Variable(1), Span::new(4, 6).unwrap());
        assert!(expected.contains(&t));
    }

    #[test]
    fn matches_reference_on_assorted_documents_and_spanners() {
        let figure2 = figure_2_spanner();
        let blocks = regex::compile(".*x{a+}y{b+}.*", b"abc").unwrap();
        let optional = regex::compile("(x{a})?(b|c)*y{c}", b"abc").unwrap();
        let docs: Vec<&[u8]> = vec![b"a", b"c", b"ab", b"abc", b"aabbcc", b"cabcab", b"bca"];
        for (name, m) in [
            ("figure2", &figure2),
            ("blocks", &blocks),
            ("optional", &optional),
        ] {
            for doc in &docs {
                let expected = reference::evaluate(m, doc);
                let got = compute_set(m, doc, &Bisection);
                assert_eq!(got, expected, "spanner {name}, doc {:?}", doc);
            }
        }
    }

    #[test]
    fn computes_on_exponentially_compressed_documents() {
        // x spans each "ab" occurrence in (ab)^k: exactly k results, computed
        // from an SLP of size O(log k).
        let m = regex::compile(".*x{ab}.*", b"ab").unwrap();
        let k = 1u64 << 10;
        let slp = families::power_word(b"ab", k);
        let results = compute_all(&m, &slp).unwrap();
        assert_eq!(results.len(), k as usize);
        // Every result is an [2i+1, 2i+3⟩ span.
        let x = Variable(0);
        for t in &results {
            let s = t.get(x).unwrap();
            assert_eq!(s.len(), 2);
            assert_eq!(s.start % 2, 1);
        }
    }

    #[test]
    fn nondeterministic_automata_produce_no_duplicates() {
        // An intentionally ambiguous NFA: .*x{a.*}.* compiled without
        // determinisation has many accepting runs per tuple.
        let m = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!m.is_deterministic());
        let doc = b"abab";
        let expected = reference::evaluate(&m, doc);
        let got = compute_all(&m, &Bisection.compress(doc)).unwrap();
        assert_eq!(got.len(), expected.len(), "duplicates or missing results");
        assert_eq!(got.into_iter().collect::<BTreeSet<_>>(), expected);
    }

    #[test]
    fn empty_relation_yields_empty_vector() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"cccc");
        assert!(compute_all(&m, &slp).unwrap().is_empty());
    }

    #[test]
    fn boolean_spanner_yields_the_empty_tuple() {
        let m = regex::compile("(a|b)*abb", b"ab").unwrap();
        let yes = Bisection.compress(b"aabb");
        let no = Bisection.compress(b"aab");
        assert_eq!(compute_all(&m, &yes).unwrap(), vec![SpanTuple::empty(0)]);
        assert!(compute_all(&m, &no).unwrap().is_empty());
    }

    #[test]
    fn capped_compute_is_the_prefix_of_the_full_answer() {
        // Each cap L must return exactly full[..min(L, r)], bit for bit, for
        // deterministic and non-deterministic automata on every compressor.
        let automata = [
            figure_2_spanner(),
            regex::compile_deterministic(".*x{a+}y{b+}.*", b"abc").unwrap(),
            regex::compile(".*x{a+}y{b+}.*", b"abc").unwrap(),
            regex::compile(".*x{a.*}.*", b"abc").unwrap(),
            regex::compile("(x{a})?(b|c)*y{c}", b"abc").unwrap(),
            regex::compile_deterministic(".*x{a*}y{b*}.*", b"abc").unwrap(),
            regex::compile_deterministic("(a|b|c)*abb", b"abc").unwrap(),
        ];
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        let mut cases = 0;
        for m in &automata {
            for _ in 0..10 {
                let len = 1 + (next() % 24) as usize;
                let doc: Vec<u8> = (0..len).map(|_| b"abc"[(next() % 3) as usize]).collect();
                for compressor in [&Bisection as &dyn Compressor, &RePair::default(), &Chain] {
                    let prepared = PreparedEvaluation::new(m, &compressor.compress(&doc)).unwrap();
                    let full = compute_from_prepared(&prepared);
                    let r = full.len();
                    for cap in [0, 1, 2, 3, 5, 8, 13, 64, r, r + 1] {
                        let got = compute_prefix_from_matrices(&prepared.pre, Some(cap));
                        assert_eq!(got, full[..cap.min(r)], "cap {cap}, doc {doc:?}");
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, 2_100);
    }
}

//! Computing the full relation `⟦M⟧(D)`, Theorem 7.1: time
//! `O(sort(|M|)·q² + size(S)·q⁴·size(⟦M⟧(D)))` in combined complexity,
//! `O(size(S)·|⟦M⟧(D)|)` in data complexity.
//!
//! The sets `M_A[i,j]` (Definition 6.2) are kept as `⪯`-sorted
//! duplicate-free lists and obtained from
//! `M_A[i,j] = ⋃_{k ∈ I_A[i,j]} M_B[i,k] ⊗_{|D(B)|} M_C[k,j]`
//! (Lemma 6.8), so unions are merges and the `⊗` products stay sorted
//! (appendix D).
//!
//! The lists are pulled on demand from the root.  A pull of `M_A[i,j]` to
//! `T` elements yields the set's first `T` elements, and pulls only what
//! those need.  So a cap `L` ([`compute_prefix_from_matrices`]) pays for
//! about the `L` tuples it returns, not for the whole relation, and the
//! uncapped pass is the same pull with `T = usize::MAX`:
//! * Pulls are memoised per `(A, i, j)` with the length asked for.  A
//!   prefix shorter than its request is the whole set.  A re-pull asks for
//!   at least twice the previous request, so recomputation costs at most 2×.
//! * A leaf copies its table cell; `R_A[i,j] = ⊥` gives `[]` and `℮` gives
//!   `[∅]`.
//! * The elements with a non-`∅` left part come first: their first
//!   position is at most `|D(B)|`, while `∅` is `⪯`-largest and the blocks
//!   `∅ ⊗ M_C[k,j] = rs_{|D(B)|}(M_C[k,j])` hold only later positions.  A
//!   branch `k` with `R_B[i,k] = 1` pulls `M_C[k,j]` to `T` elements (`m`
//!   of them), then `M_B[i,k]` to `⌈T/m⌉`: `∅` can only be a list's last
//!   element, so a left prefix holding it is complete.  The product runs
//!   `l`-major over the non-`∅` left elements, which emits it sorted, and
//!   the products are merged.
//! * Only if that union falls short of `T` are the `∅`-left blocks merged
//!   in: those of the branches with `R_B[i,k] = ℮`, and those of the others
//!   whose left list ends in `∅`.  A short union means no product hit the
//!   cap, so every input it read is already complete.
//!
//! Every pulled entry lies on an accepting run (`k ∈ I_A[i,j]` makes both
//! children non-`⊥`), which is the paper's condition (†) without a pass of
//! its own.  The pulls run on an explicit stack: chain grammars have depth
//! `Θ(d)`.

use crate::error::EvalError;
use crate::matrices::{Preprocessed, REntry};
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::{PartialMarkerSet, SpanTuple, SpannerAutomaton};
use std::cmp::Ordering;
use std::collections::HashMap;

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

/// The first `limit` tuples of [`compute_from_matrices`]'s answer in `⪯`
/// order (all of them for `None`), pulling only the list prefixes they
/// need (see the module docs).
pub fn compute_prefix_from_matrices(pre: &Preprocessed, limit: Option<usize>) -> Vec<SpanTuple> {
    compute_prefix_counted(pre, limit).0
}

/// [`compute_prefix_from_matrices`] plus the number of entries `M_A[i,j]`
/// it (re)computed: the work a cap saves, counted without a clock.
pub fn compute_prefix_counted(pre: &Preprocessed, limit: Option<usize>) -> (Vec<SpanTuple>, u64) {
    let cap = limit.unwrap_or(usize::MAX);
    let final_states = pre.reachable_accepting();
    if final_states.is_empty() || cap == 0 {
        return (Vec::new(), 0);
    }
    let mut pull = Pull {
        pre,
        memo: HashMap::new(),
        stack: Vec::new(),
        pulls: 0,
    };
    // ⟦M⟧(D) = ⋃_{j ∈ F'} M_{S₀}[q₀, j]  (Lemma 6.3).
    let mut roots = Vec::with_capacity(final_states.len());
    for j in final_states {
        let key = (pre.start_nt, pre.nfa_start, j);
        pull.run(key, cap);
        roots.push(pull.memo.remove(&key).map_or_else(Vec::new, |p| p.prefix));
    }
    let tuples = merge_sorted(roots, cap)
        .into_iter()
        .map(|markers| {
            SpanTuple::from_marker_set(&markers, pre.num_vars)
                .expect("accepted subword-marked words encode valid span-tuples")
        })
        .collect();
    (tuples, pull.pulls)
}

/// `(A, i, j)`, naming the entry `M_A[i,j]`.
type Key = (u32, usize, usize);

/// A memoised pull: the first elements of `M_A[i,j]`, and how many were
/// asked for.  The prefix is the whole set iff it is shorter than that.
struct Pulled {
    prefix: Vec<PartialMarkerSet>,
    asked: usize,
}

impl Pulled {
    /// `true` if the prefix answers a pull to `t` elements.
    fn covers(&self, t: usize) -> bool {
        self.asked >= t || self.prefix.len() < self.asked
    }

    /// The first `t` elements (all of them if there are fewer).
    fn upto(&self, t: usize) -> &[PartialMarkerSet] {
        &self.prefix[..self.prefix.len().min(t)]
    }
}

/// A pull on the explicit stack: the entry, the length it is pulled to,
/// and how far it got.
struct Frame {
    key: Key,
    t: usize,
    stage: Stage,
}

enum Stage {
    /// Not started; the memo may already cover it.
    Start,
    /// Needs the right lists `M_C[k,j]` of the branches with
    /// `R_B[i,k] = 1`.
    Rights,
    /// Needs those branches' left lists `M_B[i,k]`.
    Lefts,
    /// The non-`∅`-left union (held here) fell short of `t`; needs the
    /// right lists of the `R_B[i,k] = ℮` branches.
    Blocks(Vec<PartialMarkerSet>),
}

struct Pull<'a> {
    pre: &'a Preprocessed,
    memo: HashMap<Key, Pulled>,
    stack: Vec<Frame>,
    /// Entries (re)computed so far.
    pulls: u64,
}

impl Pull<'_> {
    /// Pulls `M_A[i,j]` until its memo entry covers `t` elements.
    fn run(&mut self, key: Key, t: usize) {
        self.stack.push(Frame {
            key,
            t,
            stage: Stage::Start,
        });
        while let Some(frame) = self.stack.pop() {
            self.step(frame);
        }
    }

    /// Advances `frame` until it finishes or waits on pulls it pushed
    /// above itself.
    fn step(&mut self, mut frame: Frame) {
        let pre = self.pre;
        let (a, i, j) = frame.key;
        if let Stage::Start = frame.stage {
            let t = match self.memo.get(&frame.key) {
                Some(p) if p.covers(frame.t) => return,
                Some(p) => frame.t.max(p.asked.saturating_mul(2)),
                None => frame.t,
            };
            match (pre.is_leaf(a), pre.r_entry(a, i, j)) {
                (true, _) => {
                    let cell = pre.leaf_set(a, i, j);
                    return self.store(frame.key, cell[..cell.len().min(t)].to_vec(), t);
                }
                (false, REntry::Bot) => return self.store(frame.key, Vec::new(), t),
                (false, REntry::Empty) => {
                    return self.store(frame.key, vec![PartialMarkerSet::empty()], t)
                }
                (false, REntry::NonEmpty) => {
                    frame.t = t;
                    frame.stage = Stage::Rights;
                }
            }
        }
        let (b, c) = pre.children[a as usize].expect("only inner entries get past the start");
        let t = frame.t;
        loop {
            let needs: Vec<(Key, usize)> = match &frame.stage {
                Stage::Start => unreachable!("handled above"),
                Stage::Rights => self
                    .branches(frame.key, false)
                    .map(|k| ((c, k, j), t))
                    .collect(),
                Stage::Lefts => self
                    .branches(frame.key, false)
                    .map(|k| ((b, i, k), left_pull(t, self.got((c, k, j), t).len())))
                    .collect(),
                Stage::Blocks(union) => self
                    .branches(frame.key, true)
                    .map(|k| ((c, k, j), t - union.len()))
                    .collect(),
            };
            let base = self.stack.len();
            for (key, t) in needs {
                if !self.memo.get(&key).is_some_and(|p| p.covers(t)) {
                    self.stack.push(Frame {
                        key,
                        t,
                        stage: Stage::Start,
                    });
                }
            }
            if self.stack.len() > base {
                self.stack.insert(base, frame);
                return;
            }
            frame.stage = match std::mem::replace(&mut frame.stage, Stage::Start) {
                Stage::Rights => Stage::Lefts,
                Stage::Lefts => {
                    let shift = pre.lengths[b as usize];
                    let products = self
                        .branches(frame.key, false)
                        .map(|k| {
                            let right = self.got((c, k, j), t);
                            let left = self.got((b, i, k), left_pull(t, right.len()));
                            product(left, shift, right, t)
                        })
                        .collect();
                    let union = merge_sorted(products, t);
                    if union.len() == t {
                        return self.store(frame.key, union, t);
                    }
                    Stage::Blocks(union)
                }
                Stage::Blocks(mut union) => {
                    // Every input read so far is complete (module docs), so
                    // a left list holds `∅` iff it ends in it.
                    let rest = t - union.len();
                    let shift = pre.lengths[b as usize];
                    let ends_in_empty = |k: usize| {
                        let right = self.got((c, k, j), t).len();
                        self.got((b, i, k), left_pull(t, right))
                            .last()
                            .is_some_and(PartialMarkerSet::is_empty)
                    };
                    let blocks = self
                        .branches(frame.key, true)
                        .chain(
                            self.branches(frame.key, false)
                                .filter(|&k| ends_in_empty(k)),
                        )
                        .map(|k| {
                            let right = self.got((c, k, j), rest);
                            right.iter().map(|r| r.right_shift(shift)).collect()
                        })
                        .collect();
                    union.extend(merge_sorted(blocks, rest));
                    return self.store(frame.key, union, t);
                }
                Stage::Start => unreachable!("handled above"),
            };
        }
    }

    /// The branches `k ∈ I_A[i,j]` of an inner entry whose left summary
    /// `R_B[i,k]` is `℮` (`deferred`) or `1` (not `deferred`).
    fn branches(&self, (a, i, j): Key, deferred: bool) -> impl Iterator<Item = usize> + '_ {
        let (b, c) = self.pre.children[a as usize].expect("inner entry");
        let (rb, rc) = (&self.pre.r[b as usize], &self.pre.r[c as usize]);
        let want = if deferred {
            REntry::Empty
        } else {
            REntry::NonEmpty
        };
        (0..self.pre.q).filter(move |&k| rb.get(i, k) == want && rc.is_nonbot(k, j))
    }

    /// The first `t` elements of a pulled entry.
    fn got(&self, key: Key, t: usize) -> &[PartialMarkerSet] {
        self.memo[&key].upto(t)
    }

    fn store(&mut self, key: Key, prefix: Vec<PartialMarkerSet>, asked: usize) {
        self.pulls += 1;
        self.memo.insert(key, Pulled { prefix, asked });
    }
}

/// How far a branch pulls its left list to fill `t` products with `m`
/// right elements: `⌈t/m⌉` non-`∅` elements, or the whole list if it ends
/// in `∅` before that.
fn left_pull(t: usize, m: usize) -> usize {
    t.div_ceil(m.max(1))
}

/// The first `cap` elements of `K^k_A[i,j] = M_B[i,k] ⊗_s M_C[k,j]`
/// (Definition 6.7) with a non-`∅` left part.  Both inputs are `⪯`-sorted;
/// by the order's compatibility with `⊗` (appendix D) the output produced
/// by the `l`-major nested loops is sorted as well, and by Lemma 6.9 it has
/// no duplicates.
fn product(
    left: &[PartialMarkerSet],
    shift: u64,
    right: &[PartialMarkerSet],
    cap: usize,
) -> Vec<PartialMarkerSet> {
    let mut out = Vec::with_capacity(left.len().saturating_mul(right.len()).min(cap));
    'rows: for l in left.iter().filter(|l| !l.is_empty()) {
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
    use crate::enumerate::Enumerator;
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
                // An oracle outside this module for the uncapped pass, so
                // the prefixes are not only checked against themselves.
                let expected = reference::evaluate(m, &doc);
                for compressor in [&Bisection as &dyn Compressor, &RePair::default(), &Chain] {
                    let prepared = PreparedEvaluation::new(m, &compressor.compress(&doc)).unwrap();
                    let full = compute_from_prepared(&prepared);
                    let r = full.len();
                    let set: BTreeSet<SpanTuple> = full.iter().cloned().collect();
                    assert_eq!(set, expected, "doc {doc:?}");
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

    fn spans(t: &SpanTuple) -> Vec<Option<(u64, u64)>> {
        (0..t.num_vars())
            .map(|v| t.get(Variable(v as u8)).map(|s| (s.start, s.end)))
            .collect()
    }

    #[test]
    fn golden_sequences_in_precedes_order() {
        // Recorded from the two-phase eager pass this pull replaced, for
        // deterministic and non-deterministic automata: the answer's `⪯`
        // order must stay exactly this.
        type Golden = Vec<Vec<Option<(u64, u64)>>>;
        fn golden<const N: usize>(rows: &[[Option<(u64, u64)>; N]]) -> Golden {
            rows.iter().map(|t| t.to_vec()).collect()
        }
        let figure_2: Golden = golden(&[
            [Some((1, 2)), None],
            [Some((1, 3)), None],
            [Some((2, 3)), None],
            [None, Some((4, 6))],
            [None, Some((5, 6))],
            [Some((6, 7)), None],
            [Some((6, 8)), None],
            [Some((6, 9)), None],
            [Some((6, 10)), None],
            [Some((7, 8)), None],
            [Some((7, 9)), None],
            [Some((7, 10)), None],
            [Some((8, 9)), None],
            [Some((8, 10)), None],
            [Some((9, 10)), None],
        ]);
        let suffixes: Golden = golden(&[
            [Some((1, 2))],
            [Some((1, 3))],
            [Some((1, 4))],
            [Some((1, 5))],
            [Some((1, 6))],
            [Some((3, 4))],
            [Some((3, 5))],
            [Some((3, 6))],
            [Some((4, 5))],
            [Some((4, 6))],
        ]);
        let blocks: Golden = golden(&[
            [Some((1, 3)), Some((3, 4))],
            [Some((1, 3)), Some((3, 5))],
            [Some((2, 3)), Some((3, 4))],
            [Some((2, 3)), Some((3, 5))],
            [Some((6, 7)), Some((7, 8))],
            [Some((6, 7)), Some((7, 9))],
            [Some((6, 7)), Some((7, 10))],
            [Some((10, 12)), Some((12, 13))],
            [Some((11, 12)), Some((12, 13))],
            [Some((14, 15)), Some((15, 16))],
        ]);
        let empty_spans: Golden = golden(&[
            [Some((1, 1)), Some((1, 1))],
            [Some((1, 2)), Some((2, 2))],
            [Some((1, 2)), Some((2, 3))],
            [Some((1, 2)), Some((2, 4))],
            [Some((2, 2)), Some((2, 2))],
            [Some((2, 2)), Some((2, 3))],
            [Some((2, 2)), Some((2, 4))],
            [Some((3, 3)), Some((3, 3))],
            [Some((3, 3)), Some((3, 4))],
            [Some((4, 4)), Some((4, 4))],
        ]);
        let figure_2_query = figure_2_spanner();
        let suffix_query = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        let blocks_query = regex::compile(".*x{a+}y{b+}.*", b"abc").unwrap();
        let empty_query = regex::compile(".*x{a*}y{b*}.*", b"ab").unwrap();
        let mixed = b"aabbcabbbaabcab";
        let cases: Vec<(&SpannerAutomaton<u8>, NormalFormSlp<u8>, &Golden)> = vec![
            (&figure_2_query, slp::examples::example_4_2(), &figure_2),
            (&suffix_query, Chain.compress(b"abaab"), &suffixes),
            (&suffix_query, Bisection.compress(b"abaab"), &suffixes),
            (&blocks_query, RePair::default().compress(mixed), &blocks),
            (&blocks_query, Chain.compress(mixed), &blocks),
            (
                &empty_query,
                RePair::default().compress(b"abb"),
                &empty_spans,
            ),
        ];
        for (case, (m, slp, expected)) in cases.into_iter().enumerate() {
            let got: Golden = compute_all(m, &slp).unwrap().iter().map(spans).collect();
            assert_eq!(&got, expected, "case {case}");
        }
    }

    /// A seeded random text over `{a, b}` (xorshift64).
    fn random_ab(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                if seed & 1 == 0 {
                    b'a'
                } else {
                    b'b'
                }
            })
            .collect()
    }

    #[test]
    fn a_capped_pass_pulls_about_what_it_returns() {
        // The step count behind "compute{64} pays for 64 tuples": on a
        // 20,000-symbol random text the uncapped pass computes thousands of
        // entries, the capped one a few hundred.
        let queries = [".*x{ab}.*", ".*x{a+}y{b+}.*"]
            .map(|q| regex::compile_deterministic(q, b"abcdefgh").unwrap());
        for seed in 1..=3u64 {
            let doc = random_ab(20_000, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let slp = Bisection.compress(&doc);
            for m in &queries {
                let prepared = PreparedEvaluation::new(m, &slp).unwrap();
                let (all, all_pulls) = compute_prefix_counted(&prepared.pre, None);
                let (first, pulls) = compute_prefix_counted(&prepared.pre, Some(64));
                assert_eq!(first, all[..64], "seed {seed}");
                assert!(pulls <= 1_000, "seed {seed}: {pulls} pulls for 64 tuples");
                assert!(
                    pulls * 10 < all_pulls,
                    "seed {seed}: {pulls} capped against {all_pulls} uncapped pulls"
                );
            }
        }
    }

    #[test]
    fn deep_chain_grammars_do_not_recurse() {
        // A chain SLP of (ab)^20000 has depth 40,000; this runs on the
        // default test-thread stack.  The uncapped pass runs a query whose
        // two matches sit at the bottom of the chain: uncapped, `.*x{ab}.*`
        // would hold Θ(size(S)·r) ≈ 8·10⁸ list elements, Theorem 7.1's bound.
        let slp = Chain.compress(&b"ab".repeat(20_000));
        assert_eq!(slp.depth(), 40_000);
        let every = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let cursor = Enumerator::new(&every, &slp).unwrap();
        for limit in [1, 64] {
            let got = compute_prefix_from_matrices(&cursor.prepared().pre, Some(limit));
            assert_eq!(
                got.len(),
                cursor.iter().take(limit).count(),
                "limit {limit}"
            );
        }
        let first = regex::compile_deterministic("(ab)?x{ab}.*", b"ab").unwrap();
        let cursor = Enumerator::new(&first, &slp).unwrap();
        let got: BTreeSet<SpanTuple> = compute_from_matrices(&cursor.prepared().pre)
            .into_iter()
            .collect();
        assert_eq!(got.len(), 2);
        assert_eq!(got, cursor.iter().collect());
    }
}

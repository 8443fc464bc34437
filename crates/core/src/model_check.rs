//! Model checking, Theorem 5.1(2): decide `t ∈ ⟦M⟧(D)` in time
//! `O((size(S) + |X|·depth(S))·q³)` directly on the compressed document.
//!
//! Following the paper's proof, the SLP `S` for `D` is spliced into an SLP
//! `S'` for the subword-marked word `m(D, t)`: for each of the at most
//! `2·|X|` positions carrying markers, the root-to-leaf path of that
//! position is copied (adding `O(depth(S))` fresh non-terminals) and a new
//! leaf for the marker-set symbol is inserted in front of the position's
//! leaf.  Then `t ∈ ⟦M⟧(D)` iff `D(S') ∈ L(M)` (Proposition 3.3), which is
//! checked with Lemma 4.5 ([`check`]).
//!
//! Only the `|X|·depth(S)` part of that bound depends on the tuple.  When a
//! pair's Lemma 6.5 matrices are already in hand, [`check_on_matrices`]
//! pays only that part: the tuple-independent Boolean matrices
//! `U_A[i, j] = (∅ ∈ M_A[i, j])` (the unmarked readings of `D(A)`, i.e.
//! Lemma 4.5's matrices) are built once per pair in one bottom-up pass and
//! memoised on the [`Preprocessed`], and a check walks the ended document
//! `D·#` from the start symbol carrying the set of reachable states: a
//! subtree without markers is one row-vector product with its `U_A`, and
//! only the at most `2·|X|` marked root-to-leaf paths are descended — the
//! spine, `O(|X|·depth(S))` non-terminals at `O(q²/64)` each.
//!
//! The splice path stays: it is the only one that needs no matrices (a
//! model check never builds or evicts a pair's matrices just for itself),
//! and it is the reference the spine walk is tested against.

use crate::bitmat::set_bits;
use crate::error::EvalError;
use crate::matrices::Preprocessed;
use slp::{NfRule, NonTerminal, NormalFormSlp, SlpError, Terminal};
use spanner::{MarkedSymbol, MarkerSet, PartialMarkerSet, SpanTuple, SpannerAutomaton};
use spanner_automata::membership::compressed_membership;

/// The error for a tuple that does not fit a document of length `d`.
fn check_bounds(tuple: &SpanTuple, d: u64) -> Result<(), EvalError> {
    tuple
        .check_compatible(d)
        .map_err(|_| EvalError::TupleOutOfBounds {
            position: tuple
                .defined_variables()
                .iter()
                .filter_map(|&v| tuple.get(v))
                .map(|s| s.end)
                .max()
                .unwrap_or(0),
            document_len: d,
        })
}

/// Builds an SLP for the marked word `m(D, t)` over `Σ ∪ P(Γ_X)` from an SLP
/// for `D`, adding `O(|X| · depth(S))` non-terminals (the construction in
/// the proof of Theorem 5.1(2)).
pub fn marked_document_slp(
    document: &NormalFormSlp<u8>,
    tuple: &SpanTuple,
) -> Result<NormalFormSlp<MarkedSymbol<u8>>, EvalError> {
    check_bounds(tuple, document.document_len())?;

    let mut slp = document.map_terminals(MarkedSymbol::Terminal);
    // Insert marker-set symbols right-to-left so earlier positions are not
    // shifted by later insertions.
    let markers = tuple.marker_set();
    let mut insertions: Vec<(u64, MarkerSet)> = markers.entries().collect();
    insertions.sort_by_key(|&(p, _)| std::cmp::Reverse(p));
    for (pos, set) in insertions {
        let symbol = MarkedSymbol::Markers(set);
        slp = if pos == slp.document_len() + 1 {
            // Tail-spanning markers sit after the last terminal: append.
            slp.append_terminal(symbol)
        } else {
            insert_before(&slp, pos, symbol)?
        };
    }
    Ok(slp)
}

/// Returns a new SLP whose document has `symbol` inserted immediately before
/// (1-based) position `pos` of the old document, by copying the root-to-leaf
/// path of `pos` (`O(depth(S))` new rules).
pub fn insert_before<T: Terminal>(
    slp: &NormalFormSlp<T>,
    pos: u64,
    symbol: T,
) -> Result<NormalFormSlp<T>, EvalError> {
    let (path, leaf) = slp.path_to(pos)?;
    let mut rules: Vec<NfRule<T>> = slp.rules().to_vec();

    // Leaf for the inserted symbol (reuse an existing one if present).
    let symbol_leaf = rules
        .iter()
        .position(|r| matches!(r, NfRule::Leaf(x) if *x == symbol))
        .map(|i| NonTerminal(i as u32))
        .unwrap_or_else(|| {
            rules.push(NfRule::Leaf(symbol));
            NonTerminal((rules.len() - 1) as u32)
        });

    // Replace the position's leaf L by a fresh rule L' → symbol_leaf · L.
    rules.push(NfRule::Pair(symbol_leaf, leaf));
    let mut replacement = NonTerminal((rules.len() - 1) as u32);

    // Walk the path bottom-up, copying each node with the affected child
    // replaced.
    for step in path.iter().rev() {
        let (b, c) = match rules[step.node.index()] {
            NfRule::Pair(b, c) => (b, c),
            NfRule::Leaf(_) => unreachable!("path steps are inner non-terminals"),
        };
        let new_rule = if step.went_right {
            NfRule::Pair(b, replacement)
        } else {
            NfRule::Pair(replacement, c)
        };
        rules.push(new_rule);
        replacement = NonTerminal((rules.len() - 1) as u32);
    }

    NormalFormSlp::new(rules, replacement).map_err(EvalError::Slp)
}

/// Theorem 5.1(2): `t ∈ ⟦M⟧(D)` for the document derived by `document`,
/// without decompressing.
pub fn check(
    automaton: &SpannerAutomaton<u8>,
    document: &NormalFormSlp<u8>,
    tuple: &SpanTuple,
) -> Result<bool, EvalError> {
    let marked = marked_document_slp(document, tuple)?;
    Ok(compressed_membership(automaton.nfa(), &marked))
}

/// Theorem 5.1(2) on a pair's resident matrices: `t ∈ ⟦M⟧(D)` by the
/// spine walk of the module docs, in `O(|X|·depth(S)·q²/64)` once the
/// pair's unmarked rows exist (the first check on a pair builds them in
/// `O(size(S)·q³/64)`).
///
/// `pre` must be built over the ended document `D·#` (as every
/// [`Preprocessed`] of a [`crate::PreparedDocument`] or a
/// [`crate::prepared::PreparedEvaluation`] is); monolithic and sharded
/// builds alike.  Agrees with [`check`] on the same query and document,
/// including the [`EvalError::TupleOutOfBounds`] error.
pub fn check_on_matrices(pre: &Preprocessed, tuple: &SpanTuple) -> Result<bool, EvalError> {
    spine_walk(pre, tuple).map(|(verdict, _)| verdict)
}

/// The spine walk behind [`check_on_matrices`]; also returns how many
/// non-terminals it descended into (each one on a marked root-to-leaf path).
fn spine_walk(pre: &Preprocessed, tuple: &SpanTuple) -> Result<(bool, usize), EvalError> {
    let q = pre.q;
    let w = q.div_ceil(64);
    let d = pre.lengths[pre.start_nt as usize] - 1;
    check_bounds(tuple, d)?;
    let markers: Vec<(u64, MarkerSet)> = tuple.marker_set().entries().collect();
    if markers.first().is_some_and(|&(p, _)| p == 0) {
        // A hand-built span starting at 0; the splice path cannot place it
        // either.
        return Err(EvalError::Slp(SlpError::PositionOutOfBounds {
            position: 0,
            document_len: d,
        }));
    }
    let unmarked = pre.memo().unmarked.get_or_init(|| unmarked_rows(pre));

    let mut states = vec![0u64; w];
    states[pre.nfa_start / 64] |= 1 << (pre.nfa_start % 64);
    let mut next = vec![0u64; w];
    let mut descended = 0usize;
    // Left-to-right over (non-terminal, offset of its first position,
    // its slice of the position-sorted markers).
    let mut stack = vec![(pre.start_nt, 0u64, &markers[..])];
    while let Some((a, offset, marks)) = stack.pop() {
        next.fill(0);
        if marks.is_empty() {
            // Unmarked subtree: states · U_A.
            let rows = &unmarked[a as usize * q * w..][..q * w];
            for l in set_bits(&states) {
                for (out, &word) in next.iter_mut().zip(&rows[l * w..][..w]) {
                    *out |= word;
                }
            }
        } else {
            descended += 1;
            match pre.children[a as usize] {
                Some((b, c)) => {
                    let split = offset + pre.lengths[b as usize];
                    let cut = marks.partition_point(|&(p, _)| p <= split);
                    stack.push((c, split, &marks[cut..]));
                    stack.push((b, offset, &marks[..cut]));
                    continue;
                }
                None => {
                    // A marked leaf: its only position carries the set Y.
                    let read = PartialMarkerSet::at_position_one(marks[0].1);
                    for l in set_bits(&states) {
                        for t in 0..q {
                            if pre.leaf_set(a, l, t).binary_search(&read).is_ok() {
                                next[t / 64] |= 1 << (t % 64);
                            }
                        }
                    }
                }
            }
        }
        std::mem::swap(&mut states, &mut next);
    }
    let accepted = pre
        .nfa_accepting
        .iter()
        .any(|&f| (states[f / 64] >> (f % 64)) & 1 == 1);
    Ok((accepted, descended))
}

/// The unmarked-reachability rows of every non-terminal, one bottom-up
/// pass: a leaf's `U[i, j]` is whether its table cell holds `∅`, an inner
/// rule's `U_A = U_B · U_C`.  Layout as in [`Preprocessed::unmarked_rows_bytes`].
fn unmarked_rows(pre: &Preprocessed) -> Vec<u64> {
    let q = pre.q;
    let w = q.div_ceil(64);
    let stride = q * w;
    let mut u = vec![0u64; pre.children.len() * stride];
    let mut block = vec![0u64; stride];
    for &a in &pre.bottom_up {
        block.fill(0);
        match pre.children[a as usize] {
            None => {
                for i in 0..q {
                    for j in 0..q {
                        if pre.leaf_set(a, i, j).iter().any(|set| set.is_empty()) {
                            block[i * w + j / 64] |= 1 << (j % 64);
                        }
                    }
                }
            }
            Some((b, c)) => {
                let u_b = &u[b as usize * stride..][..stride];
                let u_c = &u[c as usize * stride..][..stride];
                for i in 0..q {
                    let row = &mut block[i * w..][..w];
                    for k in set_bits(&u_b[i * w..][..w]) {
                        for (out, &word) in row.iter_mut().zip(&u_c[k * w..][..w]) {
                            *out |= word;
                        }
                    }
                }
            }
        }
        u[a as usize * stride..][..stride].copy_from_slice(&block);
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::compress::{Bisection, Compressor};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, Span, Variable};

    #[test]
    fn insert_before_splices_single_symbols() {
        let slp = Bisection.compress(b"abcdefgh");
        for pos in 1..=8u64 {
            let spliced = insert_before(&slp, pos, b'#').unwrap();
            let mut expected = b"abcdefgh".to_vec();
            expected.insert((pos - 1) as usize, b'#');
            assert_eq!(spliced.derive(), expected, "pos {pos}");
            assert_eq!(spliced.document_len(), 9);
        }
        assert!(insert_before(&slp, 0, b'#').is_err());
        assert!(insert_before(&slp, 10, b'#').is_err());
    }

    #[test]
    fn insert_before_adds_at_most_depth_plus_two_rules() {
        let slp = families::power_of_two_unary(b'a', 16);
        let spliced = insert_before(&slp, 12345, b'b').unwrap();
        assert!(
            spliced.num_non_terminals() <= slp.num_non_terminals() + slp.depth() as usize + 2,
            "added {} rules",
            spliced.num_non_terminals() - slp.num_non_terminals()
        );
        let derived = spliced.derive();
        assert_eq!(derived.len(), (1 << 16) + 1);
        assert_eq!(derived[12344], b'b');
        assert!(derived.iter().filter(|&&c| c == b'b').count() == 1);
    }

    #[test]
    fn marked_document_slp_derives_the_marked_word() {
        let doc = b"aabccaabaa";
        let slp = Bisection.compress(doc);
        let mut t = SpanTuple::empty(2);
        t.set(Variable(1), Span::new(4, 6).unwrap());
        let marked = marked_document_slp(&slp, &t).unwrap();
        let derived = marked.derive();
        let expected = spanner::MarkedWord::from_document_and_tuple(doc, &t)
            .unwrap()
            .to_symbols();
        assert_eq!(derived, expected);
    }

    #[test]
    fn model_check_agrees_with_the_uncompressed_check() {
        let m = figure_2_spanner();
        let doc = b"aabccaabaa";
        let slp = Bisection.compress(doc);
        // All tuples over a few interesting spans, including invalid ones.
        let spans: Vec<Option<Span>> = vec![
            None,
            Some(Span::new(4, 6).unwrap()),
            Some(Span::new(7, 10).unwrap()),
            Some(Span::new(1, 3).unwrap()),
            Some(Span::new(4, 5).unwrap()),
            Some(Span::new(10, 11).unwrap()),
        ];
        for x in &spans {
            for y in &spans {
                let mut t = SpanTuple::empty(2);
                if let Some(s) = x {
                    t.set(Variable(0), *s);
                }
                if let Some(s) = y {
                    t.set(Variable(1), *s);
                }
                let expected = m.matches(doc, &t).unwrap();
                assert_eq!(check(&m, &slp, &t).unwrap(), expected, "tuple {t:?}");
            }
        }
    }

    #[test]
    fn model_check_agrees_with_reference_everywhere() {
        let m = figure_2_spanner();
        let doc = b"abcab";
        let slp = Bisection.compress(doc);
        let expected = reference::evaluate(&m, doc);
        // Every tuple in the reference result model-checks positively.
        for t in &expected {
            assert!(check(&m, &slp, t).unwrap(), "missing {t:?}");
        }
        // And a few that are not in the result are rejected.
        let mut t = SpanTuple::empty(2);
        t.set(Variable(0), Span::new(3, 4).unwrap()); // spans the 'c'
        assert!(!expected.contains(&t));
        assert!(!check(&m, &slp, &t).unwrap());
    }

    #[test]
    fn tail_spanning_tuples_are_handled() {
        // A tuple whose close marker sits at position d+1 (after the last
        // symbol): the splice must append rather than descend.
        let m = spanner::regex::compile(".*x{b+}", b"ab").unwrap();
        let doc = b"aabb";
        let slp = Bisection.compress(doc);
        let mut t = SpanTuple::empty(1);
        t.set(Variable(0), Span::new(3, 5).unwrap());
        assert!(check(&m, &slp, &t).unwrap());
        let mut t = SpanTuple::empty(1);
        t.set(Variable(0), Span::new(3, 4).unwrap());
        assert!(!check(&m, &slp, &t).unwrap());
    }

    #[test]
    fn out_of_bounds_tuples_error() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"abc");
        let mut t = SpanTuple::empty(2);
        t.set(Variable(0), Span::new(2, 9).unwrap());
        assert!(matches!(
            check(&m, &slp, &t),
            Err(EvalError::TupleOutOfBounds { .. })
        ));
        let prepared = crate::prepared::PreparedEvaluation::new(&m, &slp).unwrap();
        assert_eq!(check_on_matrices(&prepared.pre, &t), check(&m, &slp, &t));
        // A hand-built span starting at 0 is an error on both paths, too.
        let mut t = SpanTuple::empty(2);
        t.set(Variable(0), Span { start: 0, end: 1 });
        assert!(matches!(check(&m, &slp, &t), Err(EvalError::Slp(_))));
        assert!(matches!(
            check_on_matrices(&prepared.pre, &t),
            Err(EvalError::Slp(_))
        ));
    }

    #[test]
    fn spine_walk_descends_only_the_marked_paths() {
        use crate::engine::{PreparedDocument, PreparedQuery};
        // D = (ab)^(2^30): every check descends at most the 2|X| marked
        // root-to-leaf paths of the ended grammar and agrees with the
        // splice path.
        let m = spanner::regex::compile(".*x{ab}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        let slp = families::power_word(b"ab", 1 << 30);
        let pre = PreparedDocument::new(&slp).matrices(&query);
        let depth = pre.depths[pre.start_nt as usize] as usize;
        let d = slp.document_len();
        for (start, end, member) in [
            (1, 3, true),
            (2, 4, false),
            (12345, 12347, true),
            (d - 1, d + 1, true),
            (d - 1, d, false),
            (d + 1, d + 1, false),
        ] {
            let mut t = SpanTuple::empty(1);
            t.set(Variable(0), Span::new(start, end).unwrap());
            let (verdict, descended) = spine_walk(&pre, &t).unwrap();
            assert_eq!(verdict, member, "{t:?}");
            assert_eq!(verdict, check(query.automaton(), &slp, &t).unwrap());
            assert!(
                descended <= 2 * (depth + 1),
                "{descended} > 2·({depth} + 1)"
            );
        }

        // A grammar far larger than it is deep: the walk's work follows
        // depth(S), not size(S).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let text: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state & 1 == 0 {
                    b'a'
                } else {
                    b'b'
                }
            })
            .collect();
        let m = spanner::regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        let slp = Bisection.compress(&text);
        let pre = PreparedDocument::new(&slp).matrices(&query);
        let depth = pre.depths[pre.start_nt as usize] as usize;
        let bound = 2 * 2 * (depth + 1);
        assert!(
            bound * 10 < pre.children.len(),
            "the grammar is not shallow"
        );
        for start in [1u64, 777, 2048, 4000] {
            let mut t = SpanTuple::empty(2);
            t.set(Variable(0), Span::new(start, start + 2).unwrap());
            t.set(Variable(1), Span::new(start + 2, start + 5).unwrap());
            let (verdict, descended) = spine_walk(&pre, &t).unwrap();
            assert_eq!(verdict, check(query.automaton(), &slp, &t).unwrap());
            assert!(descended <= bound, "{descended} > {bound}");
        }
    }

    #[test]
    fn unmarked_rows_are_built_on_first_use_only() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"aabccaabaa");
        let prepared = crate::prepared::PreparedEvaluation::new(&m, &slp).unwrap();
        let pre = &prepared.pre;
        assert!(
            pre.memo().unmarked.get().is_none(),
            "the build fills no memo"
        );
        let mut t = SpanTuple::empty(2);
        t.set(Variable(1), Span::new(4, 6).unwrap());
        assert!(check_on_matrices(pre, &t).unwrap());
        let rows = pre
            .memo()
            .unmarked
            .get()
            .expect("filled by the first check");
        assert_eq!(rows.len() * 8, pre.unmarked_rows_bytes());
        let other = SpanTuple::empty(2);
        assert_eq!(
            check_on_matrices(pre, &other).unwrap(),
            check(&m, &slp, &other).unwrap()
        );
        assert!(std::ptr::eq(rows, pre.memo().unmarked.get().unwrap()));
    }

    #[test]
    fn works_on_exponentially_compressed_documents() {
        // D = (ab)^(2^20), x = the first "ab" block.
        let m = spanner::regex::compile("x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 1 << 20);
        let mut t = SpanTuple::empty(1);
        t.set(Variable(0), Span::new(1, 3).unwrap());
        assert!(check(&m, &slp, &t).unwrap());
        let mut t = SpanTuple::empty(1);
        t.set(Variable(0), Span::new(2, 4).unwrap());
        assert!(!check(&m, &slp, &t).unwrap());
    }
}

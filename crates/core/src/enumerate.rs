//! Enumerating `⟦M⟧(D)` with logarithmic delay, Theorem 8.10:
//! preprocessing `O(|M| + size(S)·q³)`, delay `O(depth(S)·|X|)` — i.e.
//! `O(|X|·log d)` once the SLP is balanced (Theorem 4.3).
//!
//! The algorithm enumerates `(M,S)`-trees (Section 8): small ordered binary
//! trees (at most `4·|X|·depth(S)` nodes, Lemma 8.4) that describe *which*
//! intermediate automaton states an accepting run passes through at the
//! boundaries of the SLP's non-terminals.  The partial marker sets in a
//! tree's *yield* (Definition 8.1) are read off by combining the
//! precomputed leaf tables `M_{T_x}` with the position shifts stored on the
//! tree's right-child arcs (Lemma 8.5).  For deterministic automata the
//! yields of distinct trees are disjoint (Lemma 8.8), so the enumeration is
//! duplicate-free.
//!
//! Algorithm 1's recursive generator `EnumAll` runs here as one
//! explicit-stack cursor.  The current tree is a pre-order vector of
//! frames, one per inner node `A⟨i▷k▷j⟩`, each holding its current choices
//! `kb ∈ Ī_B[i,k]` and `kc ∈ Ī_C[k,j]`.  Algorithm 1's loop nest — `kb`
//! outermost, then `kc`, then the left subtree's trees, then the right
//! subtree's — is the lexicographic order of these pre-order choice
//! sequences.  So the next tree comes from advancing the last frame whose
//! choice can move on and rebuilding everything after it with first trees.
//! The yield is an odometer over the terminal leaves' lists.  Nothing
//! recurses, and a result allocates only the returned tuple.

use crate::error::EvalError;
use crate::matrices::{Preprocessed, REntry};
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::{PartialMarkerSet, Span, SpanTuple, SpannerAutomaton};

/// An enumerator for `⟦M⟧(D)` over an SLP-compressed document.
///
/// Construction runs the preprocessing once; [`Enumerator::iter`] then
/// starts an enumeration with `O(depth(S)·|X|)` delay per result.
#[derive(Debug)]
pub struct Enumerator {
    prepared: PreparedEvaluation,
}

impl Enumerator {
    /// Prepares the enumeration of `⟦M⟧(D)` (Theorem 8.10).
    ///
    /// Fails with [`EvalError::NondeterministicAutomaton`] if the automaton
    /// is not deterministic: determinism is what guarantees a duplicate-free
    /// enumeration (Lemma 8.8).  Either call
    /// [`SpannerAutomaton::determinized`] first or opt into duplicates with
    /// [`Enumerator::new_allow_duplicates`].
    pub fn new(
        automaton: &SpannerAutomaton<u8>,
        document: &NormalFormSlp<u8>,
    ) -> Result<Self, EvalError> {
        let prepared = PreparedEvaluation::new(automaton, document)?;
        if !prepared.deterministic() {
            return Err(EvalError::NondeterministicAutomaton);
        }
        Ok(Enumerator { prepared })
    }

    /// Prepares an enumeration for a possibly non-deterministic automaton.
    /// The same set `⟦M⟧(D)` is enumerated with the same delay bounds, but
    /// individual results may appear more than once (final remark of
    /// Section 8 in the paper).
    pub fn new_allow_duplicates(
        automaton: &SpannerAutomaton<u8>,
        document: &NormalFormSlp<u8>,
    ) -> Result<Self, EvalError> {
        let prepared = PreparedEvaluation::new(automaton, document)?;
        Ok(Enumerator { prepared })
    }

    /// Wraps an existing prepared evaluation.
    pub fn from_prepared(prepared: PreparedEvaluation) -> Self {
        Enumerator { prepared }
    }

    /// The prepared evaluation backing this enumerator.
    pub fn prepared(&self) -> &PreparedEvaluation {
        &self.prepared
    }

    /// Starts an enumeration of `⟦M⟧(D)`.
    pub fn iter(&self) -> Enumeration<'_> {
        Enumeration::from_prepared(&self.prepared)
    }
}

/// The paper's `base` element of `Ī_A[i,j]`: the node is a leaf of the
/// `(M,S)`-tree (a leaf non-terminal, or an entry with `R_A[i,j] = ℮`).
const BASE: u32 = u32::MAX;

/// The root's parent index.
const NO_PARENT: u32 = u32::MAX;

/// An `(M,S)`-tree node `A⟨i▷k▷j⟩` (`k = BASE` for a leaf) with the
/// position shift of its subtree and its place under its parent frame.
#[derive(Debug, Clone, Copy)]
struct Node {
    a: u32,
    i: u32,
    k: u32,
    j: u32,
    /// Sum of the arc labels `|D(B)|` on the root-to-node path.
    offset: u64,
    /// Index of the parent frame ([`NO_PARENT`] for the root).
    parent: u32,
    /// `true` if the node is its parent's left child.
    left: bool,
}

/// An inner node of the current tree with its current choices.
#[derive(Debug, Clone, Copy)]
struct Frame {
    node: Node,
    /// Current element of `Ī_B[i,k]`: the left child's `k`.
    kb: u32,
    /// Current element of `Ī_C[k,j]`: the right child's `k`.
    kc: u32,
    /// Number of terminal leaves before this frame in pre-order.
    leaves_before: u32,
}

/// The lazily evaluated enumeration of `⟦M⟧(D)`.
pub struct Enumeration<'a> {
    pre: &'a Preprocessed,
    /// `F'`, the reachable accepting states (Theorem 8.10).
    finals: Vec<usize>,
    /// Index into `finals` of the current root's `j`.
    root_final: usize,
    /// The current root's element of `Ī_{S₀}[q₀, j]`.
    root_k: u32,
    /// The current tree's inner nodes in pre-order.
    frames: Vec<Frame>,
    /// Work stack of nodes whose first subtree is still to be built.
    pending: Vec<Node>,
    /// The current tree's terminal leaves in document order: each leaf's
    /// shift and its list `M_{T_x}[i,j]`.
    leaves: Vec<(u64, &'a [PartialMarkerSet])>,
    /// The yield odometer: one index into each leaf's list.
    odometer: Vec<usize>,
    /// Open-marker positions of the tuple being filled, per variable.
    opens: Vec<u64>,
    /// `true` while the odometer addresses a result not yet returned.
    live: bool,
}

impl<'a> Enumeration<'a> {
    /// Starts an enumeration from a prepared evaluation.
    pub fn from_prepared(prepared: &'a PreparedEvaluation) -> Self {
        Self::from_matrices(&prepared.pre)
    }

    /// Starts an enumeration directly from the preprocessed matrices of a
    /// (query, document) pair — the engine-facing entry point.
    pub fn from_matrices(pre: &'a Preprocessed) -> Self {
        let mut e = Enumeration {
            pre,
            finals: pre.reachable_accepting(),
            root_final: 0,
            root_k: BASE,
            frames: Vec::new(),
            pending: Vec::new(),
            leaves: Vec::new(),
            odometer: Vec::new(),
            opens: vec![0; pre.num_vars],
            live: false,
        };
        if let Some(&j) = e.finals.first() {
            e.root_k = first_choice(pre, pre.start_nt, pre.nfa_start, j);
            e.load_root();
            e.live = true;
        }
        e
    }

    /// Builds the first tree under the current root choice.
    fn load_root(&mut self) {
        self.frames.clear();
        self.leaves.clear();
        self.pending.push(Node {
            a: self.pre.start_nt,
            i: self.pre.nfa_start as u32,
            k: self.root_k,
            j: self.finals[self.root_final] as u32,
            offset: 0,
            parent: NO_PARENT,
            left: false,
        });
        self.build();
    }

    /// Drains the work stack, appending each node's first subtree in
    /// pre-order, then points the odometer at the tree's first result.
    fn build(&mut self) {
        let pre = self.pre;
        while let Some(node) = self.pending.pop() {
            let (a, i, k, j) = (node.a, node.i as usize, node.k, node.j as usize);
            if k == BASE {
                // `A⟨i▷j, ℮⟩` yields `{∅}` and adds no leaf; a terminal leaf
                // `T_x⟨i▷j, 1⟩` yields `M_{T_x}[i,j]`.
                if pre.r_entry(a, i, j) != REntry::Empty {
                    self.leaves.push((node.offset, pre.leaf_set(a, i, j)));
                }
                continue;
            }
            let (b, c) = pre.children[a as usize].expect("k ≠ base implies an inner non-terminal");
            self.frames.push(Frame {
                node,
                kb: first_choice(pre, b, i, k as usize),
                kc: first_choice(pre, c, k as usize, j),
                leaves_before: self.leaves.len() as u32,
            });
            let index = self.frames.len() - 1;
            self.pending.push(self.child(index, false));
            self.pending.push(self.child(index, true));
        }
        self.odometer.clear();
        self.odometer.resize(self.leaves.len(), 0);
    }

    /// The left (`B`) or right (`C`) child of frame `index` under its
    /// current choices.
    fn child(&self, index: usize, left: bool) -> Node {
        let Frame { node, kb, kc, .. } = self.frames[index];
        let (b, c) = self.pre.children[node.a as usize].expect("frames are inner nodes");
        let (a, i, k, j, offset) = if left {
            (b, node.i, kb, node.k, node.offset)
        } else {
            let shift = self.pre.lengths[b as usize];
            (c, node.k, kc, node.j, node.offset + shift)
        };
        let parent = index as u32;
        Node {
            a,
            i,
            k,
            j,
            offset,
            parent,
            left,
        }
    }

    /// Moves to the next `(M,S₀)`-tree; `false` once every tree is done.
    fn next_tree(&mut self) -> bool {
        let pre = self.pre;
        for t in (0..self.frames.len()).rev() {
            let Frame { node, kb, kc, .. } = self.frames[t];
            let (b, c) = pre.children[node.a as usize].expect("frames are inner nodes");
            let (i, k, j) = (node.i as usize, node.k as usize, node.j as usize);
            // `kc` is the inner loop, `kb` the outer one (Algorithm 1).
            let (kb, kc) = match next_choice(pre, c, k, j, kc) {
                Some(kc) => (kb, kc),
                None => match next_choice(pre, b, i, k, kb) {
                    Some(kb) => (kb, first_choice(pre, c, k, j)),
                    None => continue,
                },
            };
            let frame = &mut self.frames[t];
            (frame.kb, frame.kc) = (kb, kc);
            let leaves_before = frame.leaves_before as usize;
            self.frames.truncate(t + 1);
            self.leaves.truncate(leaves_before);
            // Rebuild everything after frame `t` in pre-order: the right
            // subtrees of the ancestors whose left subtree holds `t`
            // (stacked farthest first, so the nearest is built first), then
            // `t`'s own children.
            let mut at = self.frames[t].node;
            while at.parent != NO_PARENT {
                if at.left {
                    self.pending.push(self.child(at.parent as usize, false));
                }
                at = self.frames[at.parent as usize].node;
            }
            self.pending.reverse();
            self.pending.push(self.child(t, false));
            self.pending.push(self.child(t, true));
            self.build();
            return true;
        }
        // No frame can move on: advance the root's `k`, then its `j`.
        let (s, q0) = (pre.start_nt, pre.nfa_start);
        let j = self.finals[self.root_final];
        if let Some(k) = next_choice(pre, s, q0, j, self.root_k) {
            self.root_k = k;
        } else {
            self.root_final += 1;
            let Some(&j) = self.finals.get(self.root_final) else {
                return false;
            };
            self.root_k = first_choice(pre, s, q0, j);
        }
        self.load_root();
        true
    }

    /// Moves to the next result, finishing the enumeration after the last:
    /// the last leaf turns fastest, and a full wrap moves to the next tree.
    fn step(&mut self) {
        for (idx, (_, list)) in self.odometer.iter_mut().zip(&self.leaves).rev() {
            *idx += 1;
            if *idx < list.len() {
                return;
            }
            *idx = 0;
        }
        self.live = self.next_tree();
    }

    /// The span tuple the odometer currently addresses, filled straight
    /// from the shifted leaf entries.  Leaves are in document order and the
    /// set bits of a marker set put `⊿x` (bit `2x`) before `◁x`, so every
    /// open marker is seen before its close marker.
    fn tuple(&mut self) -> SpanTuple {
        let mut assignment = vec![None; self.opens.len()];
        for (&(shift, list), &idx) in self.leaves.iter().zip(&self.odometer) {
            for (pos, set) in list[idx].entries() {
                let pos = pos + shift;
                let mut bits = set.bits();
                while bits != 0 {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if bit.is_multiple_of(2) {
                        self.opens[bit / 2] = pos;
                    } else {
                        let start = self.opens[bit / 2];
                        debug_assert!(start <= pos, "close marker before its open marker");
                        assignment[bit / 2] = Some(Span { start, end: pos });
                    }
                }
            }
        }
        SpanTuple::from_assignment(assignment)
    }
}

impl Iterator for Enumeration<'_> {
    type Item = SpanTuple;

    fn next(&mut self) -> Option<SpanTuple> {
        if !self.live {
            return None;
        }
        let tuple = self.tuple();
        self.step();
        Some(tuple)
    }

    /// Skips `n` results by stepping the odometer, building no tuple.
    fn nth(&mut self, n: usize) -> Option<SpanTuple> {
        for _ in 0..n {
            if !self.live {
                return None;
            }
            self.step();
        }
        self.next()
    }
}

impl std::fmt::Debug for Enumeration<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Enumeration")
            .field("num_vars", &self.opens.len())
            .field("tree_nodes", &self.frames.len())
            .finish_non_exhaustive()
    }
}

/// The first element of `Ī_A[i,j]` (non-empty whenever `R_A[i,j] ≠ ⊥`).
fn first_choice(pre: &Preprocessed, a: u32, i: usize, j: usize) -> u32 {
    choice_from(pre, a, i, j, 0).expect("R_A[i,j] ≠ ⊥ makes Ī_A[i,j] non-empty")
}

/// The element of `Ī_A[i,j]` after `k`, if any.
fn next_choice(pre: &Preprocessed, a: u32, i: usize, j: usize, k: u32) -> Option<u32> {
    if k == BASE {
        return None;
    }
    choice_from(pre, a, i, j, k as usize + 1)
}

/// The smallest element of the paper's `Ī_A[i,j]` that is `≥ from`:
/// `{base}` for leaves and `℮` entries, otherwise the next set bit `k'` of
/// row `i` of `R_B ≠ ⊥` with `R_C[k',j] ≠ ⊥` (`A → BC`).  No set is built.
fn choice_from(pre: &Preprocessed, a: u32, i: usize, j: usize, from: usize) -> Option<u32> {
    let Some((b, c)) = pre.children[a as usize] else {
        return (from == 0).then_some(BASE);
    };
    if pre.r_entry(a, i, j) == REntry::Empty {
        return (from == 0).then_some(BASE);
    }
    let row = pre.r[b as usize].nonbot_plane().row_words(i);
    let rc = &pre.r[c as usize];
    let mut word = from / 64;
    let mut bits = row.get(word)? & (!0u64 << (from % 64));
    loop {
        while bits != 0 {
            let k = word * 64 + bits.trailing_zeros() as usize;
            if rc.is_nonbot(k, j) {
                return Some(k as u32);
            }
            bits &= bits - 1;
        }
        word += 1;
        bits = *row.get(word)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::compress::{Bisection, Chain, Compressor, RePair};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, regex, Span, Variable};
    use std::collections::BTreeSet;

    fn enumerate_set(
        automaton: &SpannerAutomaton<u8>,
        doc: &[u8],
        compressor: &dyn Compressor,
    ) -> Vec<SpanTuple> {
        let slp = compressor.compress(doc);
        Enumerator::new(automaton, &slp).unwrap().iter().collect()
    }

    #[test]
    fn matches_reference_on_the_paper_example() {
        let m = figure_2_spanner();
        let doc = b"aabccaabaa";
        let expected = reference::evaluate(&m, doc);
        for compressor in [&Bisection as &dyn Compressor, &RePair::default(), &Chain] {
            let got = enumerate_set(&m, doc, compressor);
            assert_eq!(
                got.len(),
                expected.len(),
                "compressor {}",
                compressor.name()
            );
            assert_eq!(
                got.into_iter().collect::<BTreeSet<_>>(),
                expected,
                "compressor {}",
                compressor.name()
            );
        }
    }

    #[test]
    fn enumeration_has_no_duplicates_for_dfas() {
        let m = figure_2_spanner();
        for doc in [&b"aabccaabaa"[..], b"abcabc", b"ccaab", b"ababab"] {
            let got = enumerate_set(&m, doc, &Bisection);
            let dedup: BTreeSet<_> = got.iter().cloned().collect();
            assert_eq!(got.len(), dedup.len(), "duplicates on {:?}", doc);
        }
    }

    #[test]
    fn matches_reference_for_regex_spanners() {
        let patterns: Vec<(&str, &[u8])> = vec![
            (".*x{a+}y{b+}.*", b"abc"),
            ("(x{a})?(b|c)*y{c}", b"abc"),
            (".*x{ab}.*", b"ab"),
            ("(a|b)*x{abb}(a|b)*", b"ab"),
        ];
        let docs: Vec<&[u8]> = vec![b"a", b"ab", b"abc", b"aabbc", b"cabab", b"abbabb"];
        for (pattern, alphabet) in patterns {
            let m = regex::compile_deterministic(pattern, alphabet).unwrap();
            for doc in &docs {
                let expected = reference::evaluate(&m, doc);
                let slp = Bisection.compress(doc);
                let got: BTreeSet<SpanTuple> = Enumerator::new(&m, &slp).unwrap().iter().collect();
                assert_eq!(got, expected, "pattern {pattern}, doc {:?}", doc);
            }
        }
    }

    #[test]
    fn nondeterministic_automata_are_rejected_by_default() {
        let m = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!m.is_deterministic());
        let slp = Bisection.compress(b"abab");
        assert!(matches!(
            Enumerator::new(&m, &slp),
            Err(EvalError::NondeterministicAutomaton)
        ));
        // The duplicate-tolerant mode still enumerates the correct *set*.
        let e = Enumerator::new_allow_duplicates(&m, &slp).unwrap();
        let got: BTreeSet<SpanTuple> = e.iter().collect();
        assert_eq!(got, reference::evaluate(&m, b"abab"));
    }

    #[test]
    fn enumeration_agrees_with_computation_on_compressed_families() {
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 512);
        let computed: BTreeSet<SpanTuple> = crate::compute::compute_all(&m, &slp)
            .unwrap()
            .into_iter()
            .collect();
        let enumerated: Vec<SpanTuple> = Enumerator::new(&m, &slp).unwrap().iter().collect();
        assert_eq!(enumerated.len(), 512);
        assert_eq!(enumerated.into_iter().collect::<BTreeSet<_>>(), computed);
    }

    #[test]
    fn results_stream_lazily() {
        // Taking a prefix of the enumeration must not require materialising
        // all results: (ab)^(2^16) has 65536 results, we take 10.
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 1 << 16);
        let e = Enumerator::new(&m, &slp).unwrap();
        let first_ten: Vec<SpanTuple> = e.iter().take(10).collect();
        assert_eq!(first_ten.len(), 10);
        let x = Variable(0);
        for t in &first_ten {
            assert_eq!(t.get(x).unwrap().len(), 2);
        }
    }

    #[test]
    fn empty_relation_enumerates_nothing() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"cccc");
        let e = Enumerator::new(&m, &slp).unwrap();
        assert_eq!(e.iter().count(), 0);
    }

    #[test]
    fn boolean_spanner_enumerates_the_empty_tuple_once() {
        let m = regex::compile_deterministic("(a|b)*abb", b"ab").unwrap();
        let slp = Bisection.compress(b"aabb");
        let e = Enumerator::new(&m, &slp).unwrap();
        let results: Vec<SpanTuple> = e.iter().collect();
        assert_eq!(results, vec![SpanTuple::empty(0)]);
    }

    #[test]
    fn figure_4_tree_yield_appears_in_the_enumeration() {
        // Example 8.2: the (M,S₀)-tree of Figure 4 has yield
        // {{(⊿y,4),(◁y,6)}}, i.e. the tuple (x ↦ ⊥, y ↦ [4,6⟩).
        let m = figure_2_spanner();
        let slp = slp::examples::example_4_2();
        let results: Vec<SpanTuple> = Enumerator::new(&m, &slp).unwrap().iter().collect();
        let mut expected = SpanTuple::empty(2);
        expected.set(Variable(1), Span::new(4, 6).unwrap());
        assert!(results.contains(&expected));
        // And the full result set matches the reference.
        let reference_set = reference::evaluate(&m, b"aabccaabaa");
        assert_eq!(results.into_iter().collect::<BTreeSet<_>>(), reference_set);
    }

    /// A tuple as a literal: each variable's span as `(start, end)`.
    fn spans(t: &SpanTuple) -> Vec<Option<(u64, u64)>> {
        (0..t.num_vars())
            .map(|v| t.get(Variable(v as u8)).map(|s| (s.start, s.end)))
            .collect()
    }

    /// The order the enumeration of `slp` emits, as literals.
    fn order(m: &SpannerAutomaton<u8>, slp: &NormalFormSlp<u8>) -> Vec<Vec<Option<(u64, u64)>>> {
        Enumerator::new(m, slp)
            .unwrap()
            .iter()
            .map(|t| spans(&t))
            .collect()
    }

    #[test]
    fn golden_order_for_figure_2_on_example_4_2() {
        // Recorded from the recursive `EnumAll` generator this cursor
        // replaced: the cursor must keep Algorithm 1's order exactly.
        let expected: Vec<[Option<(u64, u64)>; 2]> = vec![
            [Some((9, 10)), None],
            [Some((8, 10)), None],
            [Some((8, 9)), None],
            [Some((7, 10)), None],
            [Some((6, 10)), None],
            [Some((7, 9)), None],
            [Some((6, 9)), None],
            [Some((7, 8)), None],
            [Some((6, 8)), None],
            [Some((6, 7)), None],
            [None, Some((5, 6))],
            [None, Some((4, 6))],
            [Some((2, 3)), None],
            [Some((1, 3)), None],
            [Some((1, 2)), None],
        ];
        let got = order(&figure_2_spanner(), &slp::examples::example_4_2());
        assert_eq!(got, expected.iter().map(|t| t.to_vec()).collect::<Vec<_>>());
    }

    #[test]
    fn golden_order_for_adjacent_blocks_on_a_mixed_document() {
        // Recorded from the recursive generator, as above; Bisection and
        // RePair happen to agree on this document.
        let expected: Vec<[Option<(u64, u64)>; 2]> = vec![
            [Some((14, 15)), Some((15, 16))],
            [Some((11, 12)), Some((12, 13))],
            [Some((10, 12)), Some((12, 13))],
            [Some((6, 7)), Some((7, 10))],
            [Some((6, 7)), Some((7, 9))],
            [Some((6, 7)), Some((7, 8))],
            [Some((2, 3)), Some((3, 5))],
            [Some((1, 3)), Some((3, 5))],
            [Some((2, 3)), Some((3, 4))],
            [Some((1, 3)), Some((3, 4))],
        ];
        let expected: Vec<Vec<_>> = expected.iter().map(|t| t.to_vec()).collect();
        let m = regex::compile_deterministic(".*x{a+}y{b+}.*", b"abc").unwrap();
        for compressor in [&Bisection as &dyn Compressor, &RePair::default()] {
            let slp = compressor.compress(b"aabbcabbbaabcab");
            assert_eq!(
                order(&m, &slp),
                expected,
                "compressor {}",
                compressor.name()
            );
        }
    }

    #[test]
    fn skipping_equals_the_collected_suffix() {
        let cases: Vec<(SpannerAutomaton<u8>, &[u8])> = vec![
            (figure_2_spanner(), b"aabccaabaa"),
            (
                regex::compile_deterministic(".*x{a+}y{b+}.*", b"abc").unwrap(),
                b"aabbcabbbaabcabab",
            ),
            (regex::compile(".*x{a.*}.*", b"ab").unwrap(), b"abaab"),
            (
                regex::compile_deterministic("(a|b)*abb", b"ab").unwrap(),
                b"aabb",
            ),
        ];
        for (m, doc) in &cases {
            for compressor in [&Bisection as &dyn Compressor, &RePair::default(), &Chain] {
                let slp = compressor.compress(doc);
                let e = Enumerator::new_allow_duplicates(m, &slp).unwrap();
                let all: Vec<SpanTuple> = e.iter().collect();
                for s in 0..=all.len() + 2 {
                    let suffix = &all[s.min(all.len())..];
                    assert_eq!(e.iter().skip(s).collect::<Vec<_>>(), suffix, "skip {s}");
                    assert_eq!(e.iter().nth(s).as_ref(), suffix.first(), "nth {s}");
                }
                // `next` and `nth` interleaved: every third result.
                let mut it = e.iter();
                for t in all.iter().step_by(3) {
                    assert_eq!(it.next().as_ref(), Some(t));
                    it.nth(1);
                }
            }
        }
    }

    #[test]
    fn choices_handle_leaves_and_empty_entries() {
        // Ī_A[i,j] is {base} for leaves and ℮ entries, otherwise I_A[i,j].
        use slp::examples::names_4_2;
        let m = figure_2_spanner();
        let p = PreparedEvaluation::new(&m, &slp::examples::example_4_2()).unwrap();
        let pre = &p.pre;
        for (a, i, j) in [(names_4_2::TC.0, 4, 4), (names_4_2::C.0, 0, 0)] {
            assert_eq!(first_choice(pre, a, i, j), BASE);
            assert_eq!(next_choice(pre, a, i, j, BASE), None);
        }
        let (a, i, j) = (names_4_2::A.0, 0, 4);
        let mut choices = vec![first_choice(pre, a, i, j)];
        while let Some(k) = next_choice(pre, a, i, j, *choices.last().unwrap()) {
            choices.push(k);
        }
        assert!(!choices.contains(&BASE));
        let expected: Vec<u32> = pre.i_set(a, i, j).into_iter().map(|k| k as u32).collect();
        assert_eq!(choices, expected);
    }

    #[test]
    fn chain_grammars_enumerate_without_recursion() {
        // A Chain SLP has depth Θ(d): the cursor's explicit stack must carry
        // trees thousands of nodes deep.
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = Chain.compress(&b"ab".repeat(2_000));
        let e = Enumerator::new(&m, &slp).unwrap();
        let x = Variable(0);
        let first: Vec<SpanTuple> = e.iter().take(3).collect();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|t| t.get(x).unwrap().len() == 2));
        let last = e.iter().nth(1_999).unwrap();
        assert_eq!(last.get(x).unwrap().len(), 2);
        assert_eq!(e.iter().nth(2_000), None);
    }
}

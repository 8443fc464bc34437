//! Sharding: cutting one SLP at the start rule into `k` balanced
//! sub-grammars (the corpus layer of the evaluation service).
//!
//! The matrices of the paper's Lemma 6.5 compose under concatenation: if
//! `D = D₁·D₂`, the root summary `R` for `D` is the three-valued matrix
//! product of the root summaries for `D₁` and `D₂`.  A huge SLP can
//! therefore be cut into `k` balanced sub-grammars whose matrix passes run
//! independently (on other cores, or other machines) and are merged by
//! `k − 1` matrix products at the root.  [`split`] performs the cut;
//! [`ShardedDocument`] holds the shards plus the composition metadata and
//! round-trips back to the original text ([`ShardedDocument::derive`],
//! [`ShardedDocument::compose`]).
//!
//! The cut itself is the classic canonical-segment decomposition of the
//! derivation tree: a range `[lo, hi]` of document positions is covered by
//! maximal whole subtrees (`O(depth(S))` of them on balanced grammars),
//! which are joined back into one grammar by a *depth-aware fold* — the
//! shallowest neighbouring segments are paired first, the same height
//! bookkeeping as the AVL joins of [`crate::balance`].  Each shard
//! therefore has depth at most `depth(S) + O(log depth(S))`; for a
//! balanced input this stays `O(log d)`.
//!
//! ```
//! use slp::{families, shard};
//!
//! let doc = families::power_word(b"ab", 1000);
//! let sharded = shard::split(&doc, 4);
//! assert_eq!(sharded.k(), 4);
//! assert_eq!(sharded.derive(), doc.derive());      // text round-trips
//! let (combined, layout) = sharded.compose();
//! assert_eq!(combined.derive(), doc.derive());     // and composes back
//! assert_eq!(layout.ranges.len(), 4);
//! ```

use crate::grammar::{NonTerminal, Terminal};
use crate::normal_form::{NfRule, NormalFormSlp};
use std::ops::Range;

/// An SLP split into `k` sub-grammars whose derived words concatenate to
/// the original document, plus the composition metadata needed to evaluate
/// them shard-by-shard and merge at the root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedDocument<T> {
    shards: Vec<NormalFormSlp<T>>,
    /// 0-based start offset of every shard's text in the original document.
    offsets: Vec<u64>,
    total_len: u64,
}

/// Where each shard's rules live inside the grammar built by
/// [`ShardedDocument::compose`]: one contiguous, self-contained rule-index
/// range per shard (rules in a range reference only rules of the same
/// range), plus the shard roots the composition spine concatenates.  Rules
/// outside every range are the spine (and anything appended later, e.g. an
/// end-of-document sentinel); they are the "merge at the root" part of a
/// scatter-gather matrix build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLayout {
    /// `ranges[i]` is the rule-index block of shard `i` in the composed
    /// grammar.
    pub ranges: Vec<Range<usize>>,
    /// `roots[i]` is the composed-grammar non-terminal deriving shard `i`'s
    /// text.
    pub roots: Vec<u32>,
}

impl ShardLayout {
    /// Number of shards in this layout.
    pub fn k(&self) -> usize {
        self.ranges.len()
    }

    /// Extracts shard `i` of a composed grammar's rule table as a
    /// *standalone* rule block: the block's rules rebased to local indices
    /// `0..len` plus the local index of the shard root.  Because every
    /// block is self-contained (rules reference only their own range), the
    /// result is a valid grammar on its own — this is what crosses a
    /// process boundary in distributed shard execution: the sub-grammar,
    /// never the document text it derives.
    ///
    /// # Panics
    /// If `i` is out of range or `rules` is shorter than the layout
    /// expects (the layout must come from the grammar the rules belong to).
    pub fn standalone_block<T: Terminal>(
        &self,
        rules: &[NfRule<T>],
        i: usize,
    ) -> (Vec<NfRule<T>>, NonTerminal) {
        let range = &self.ranges[i];
        let base = range.start as u32;
        let block: Vec<NfRule<T>> = rules[range.clone()]
            .iter()
            .map(|rule| match rule {
                NfRule::Leaf(t) => NfRule::Leaf(*t),
                NfRule::Pair(b, c) => {
                    NfRule::Pair(NonTerminal(b.0 - base), NonTerminal(c.0 - base))
                }
            })
            .collect();
        (block, NonTerminal(self.roots[i] - base))
    }

    /// [`ShardLayout::standalone_block`] assembled into a validated
    /// [`NormalFormSlp`], one per shard.
    pub fn standalone_blocks<T: Terminal>(&self, rules: &[NfRule<T>]) -> Vec<NormalFormSlp<T>> {
        (0..self.k())
            .map(|i| {
                let (block, root) = self.standalone_block(rules, i);
                NormalFormSlp::new(block, root)
                    .expect("shard blocks are self-contained sub-grammars")
            })
            .collect()
    }
}

impl<T: Terminal> ShardedDocument<T> {
    /// Number of shards `k`.
    pub fn k(&self) -> usize {
        self.shards.len()
    }

    /// The shard sub-grammars, in document order.
    pub fn shards(&self) -> &[NormalFormSlp<T>] {
        &self.shards
    }

    /// 0-based start offset of every shard's text in the original document.
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// Length of the original document.
    pub fn total_len(&self) -> u64 {
        self.total_len
    }

    /// Decompresses the original document by concatenating the shard
    /// expansions (the round-trip guarantee of [`split`]).
    pub fn derive(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.total_len as usize);
        for shard in &self.shards {
            out.extend(shard.derive());
        }
        out
    }

    /// Builds one grammar deriving the original document from the shards:
    /// the shard rule tables are placed in disjoint index blocks and the
    /// shard roots are concatenated by a depth-aware fold of fresh pair
    /// rules (the *composition spine*).  The returned [`ShardLayout`] maps
    /// every shard to its rule block, which is what lets a matrix build
    /// scatter over the shards and gather at the spine.
    pub fn compose(&self) -> (NormalFormSlp<T>, ShardLayout) {
        let mut rules: Vec<NfRule<T>> = Vec::new();
        let mut ranges = Vec::with_capacity(self.shards.len());
        let mut parts = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let base = rules.len();
            for rule in shard.rules() {
                rules.push(match rule {
                    NfRule::Leaf(t) => NfRule::Leaf(*t),
                    NfRule::Pair(b, c) => NfRule::Pair(
                        NonTerminal(b.0 + base as u32),
                        NonTerminal(c.0 + base as u32),
                    ),
                });
            }
            ranges.push(base..rules.len());
            let root = NonTerminal(shard.start().0 + base as u32);
            parts.push((root, shard.depth()));
        }
        let roots = parts.iter().map(|(root, _)| root.0).collect();
        let start = depth_aware_fold(&mut rules, &parts);
        let combined =
            NormalFormSlp::new(rules, start).expect("shard composition preserves validity");
        (combined, ShardLayout { ranges, roots })
    }

    /// [`ShardedDocument::compose`] without the layout.
    pub fn to_slp(&self) -> NormalFormSlp<T> {
        self.compose().0
    }
}

/// Minimum number of grammar rules a shard must be worth before the split
/// overhead (duplicated spine structure, per-shard leaf tables, the root
/// merge) can pay off.  Grammars below `2 ×` this size are never auto-split.
const MIN_SHARD_RULES: usize = 256;

/// Picks a shard count from the grammar size, the available cores and the
/// (estimated or measured) *critical ratio* — the fraction of the whole
/// matrix pass that the slowest shard still pays after a split:
///
/// * `critical_ratio ≈ 1/k`: the shards partition the grammar (block-like
///   documents) — the achievable speedup is `≈ 1/critical_ratio`, so use as
///   many shards as the cores allow.
/// * `critical_ratio ≈ 1`: the grammar shares its rules across the whole
///   document (power-like families) — every shard duplicates nearly the
///   full structure, sharding only adds work, keep the document monolithic.
///
/// The returned `k` is `1/critical_ratio` rounded, capped by `cores` and by
/// the grammar size (each shard must be worth ≥ 256 rules);
/// tiny grammars and single-core hosts always get `k = 1`.  Feed it the
/// [`critical_ratio`] of a probe split at registration time.
pub fn auto_k(size: usize, cores: usize, critical_ratio: f64) -> usize {
    let cores = cores.max(1);
    if cores == 1 || size < 2 * MIN_SHARD_RULES {
        return 1;
    }
    let cap = cores.min(size / MIN_SHARD_RULES).max(1);
    let ratio = critical_ratio.clamp(0.0, 1.0);
    if ratio <= f64::EPSILON {
        return cap;
    }
    ((1.0 / ratio).round() as usize).clamp(1, cap)
}

/// Estimates the critical ratio of an already performed split without
/// building any matrices: the matrix pass costs `O(rules · q³)` per shard,
/// so `max(shard size) / size(S)` approximates the fraction of the
/// monolithic pass the slowest shard would still pay.  Near `1/k` when the
/// shards partition the grammar; near `1` (or above, clamped) when the
/// grammar's shared structure is duplicated into every shard.
/// `original_size` is the rule count of the unsplit grammar.
///
/// The probe split is only grammar surgery ([`split`] + garbage
/// collection), no evaluation — cheap enough to run once per document
/// registration, and a caller that goes on to *use* the split (auto-tuned
/// registration) pays that surgery once, not twice.
pub fn critical_ratio<T: Terminal>(sharded: &ShardedDocument<T>, original_size: usize) -> f64 {
    let size = original_size.max(1);
    let max_shard = sharded
        .shards()
        .iter()
        .map(|s| s.size())
        .max()
        .unwrap_or(size);
    (max_shard as f64 / size as f64).clamp(0.0, 1.0)
}

/// Splits an SLP at the start rule into `k` sub-grammars of balanced text
/// length (lengths differ by at most one symbol).  `k` is clamped to
/// `1..=document length`, so every shard derives a non-empty word.
///
/// The concatenation of the shard expansions is exactly the original
/// document; each shard is a compact, self-contained grammar (unreachable
/// rules are dropped and the remainder renumbered).
pub fn split<T: Terminal>(slp: &NormalFormSlp<T>, k: usize) -> ShardedDocument<T> {
    let d = slp.document_len();
    let k = (k.max(1) as u64).min(d);
    let mut shards = Vec::with_capacity(k as usize);
    let mut offsets = Vec::with_capacity(k as usize);
    for i in 0..k {
        // Shard i covers 1-based positions (i·d/k, (i+1)·d/k].
        let lo = i * d / k + 1;
        let hi = (i + 1) * d / k;
        offsets.push(lo - 1);
        shards.push(extract_range(slp, lo, hi));
    }
    ShardedDocument {
        shards,
        offsets,
        total_len: d,
    }
}

/// The canonical segment cover of positions `[lo, hi]` (1-based,
/// inclusive): maximal non-terminals whose expansions tile the range, in
/// document order.
fn cover<T: Terminal>(slp: &NormalFormSlp<T>, lo: u64, hi: u64) -> Vec<NonTerminal> {
    let mut out = Vec::new();
    // (node, 1-based global start of D(node)); right child pushed first so
    // the left child is processed first and the cover comes out in order.
    let mut stack: Vec<(NonTerminal, u64)> = vec![(slp.start(), 1)];
    while let Some((node, start)) = stack.pop() {
        let end = start + slp.derived_len(node) - 1;
        if end < lo || start > hi {
            continue;
        }
        if lo <= start && end <= hi {
            out.push(node);
            continue;
        }
        let (b, c) = slp
            .children(node)
            .expect("a partially covered node has length > 1, hence is inner");
        stack.push((c, start + slp.derived_len(b)));
        stack.push((b, start));
    }
    out
}

/// Builds the sub-grammar deriving `D[lo..=hi]` (1-based, inclusive):
/// cover segments joined by a depth-aware fold, then garbage-collected.
fn extract_range<T: Terminal>(slp: &NormalFormSlp<T>, lo: u64, hi: u64) -> NormalFormSlp<T> {
    debug_assert!(lo >= 1 && lo <= hi && hi <= slp.document_len());
    let segments = cover(slp, lo, hi);
    let mut rules: Vec<NfRule<T>> = slp.rules().to_vec();
    let parts: Vec<(NonTerminal, u32)> = segments
        .into_iter()
        .map(|node| (node, slp.depth_of(node)))
        .collect();
    let root = depth_aware_fold(&mut rules, &parts);
    garbage_collect(&rules, root)
}

/// Concatenates the expansions of `parts` (left to right) with fresh pair
/// rules, pairing the neighbours of smallest height first — the height
/// bookkeeping of the AVL joins in [`crate::balance`] — so the result's
/// depth exceeds the deepest part by only `O(log(number of parts))`.
fn depth_aware_fold<T: Terminal>(
    rules: &mut Vec<NfRule<T>>,
    parts: &[(NonTerminal, u32)],
) -> NonTerminal {
    assert!(!parts.is_empty(), "cannot fold an empty part list");
    let mut parts: Vec<(NonTerminal, u32)> = parts.to_vec();
    while parts.len() > 1 {
        // The adjacent pair whose merged node would be shallowest.
        let best = (0..parts.len() - 1)
            .min_by_key(|&i| parts[i].1.max(parts[i + 1].1))
            .expect("at least one adjacent pair");
        let (left, hl) = parts[best];
        let (right, hr) = parts[best + 1];
        rules.push(NfRule::Pair(left, right));
        let merged = NonTerminal((rules.len() - 1) as u32);
        parts[best] = (merged, 1 + hl.max(hr));
        parts.remove(best + 1);
    }
    parts[0].0
}

/// Keeps only the rules reachable from `root`, renumbering the survivors.
fn garbage_collect<T: Terminal>(rules: &[NfRule<T>], root: NonTerminal) -> NormalFormSlp<T> {
    let mut reachable = vec![false; rules.len()];
    let mut stack = vec![root];
    reachable[root.index()] = true;
    while let Some(a) = stack.pop() {
        if let NfRule::Pair(b, c) = rules[a.index()] {
            for child in [b, c] {
                if !reachable[child.index()] {
                    reachable[child.index()] = true;
                    stack.push(child);
                }
            }
        }
    }
    let mut remap = vec![u32::MAX; rules.len()];
    let mut next = 0u32;
    for (i, &keep) in reachable.iter().enumerate() {
        if keep {
            remap[i] = next;
            next += 1;
        }
    }
    let compact: Vec<NfRule<T>> = rules
        .iter()
        .enumerate()
        .filter(|(i, _)| reachable[*i])
        .map(|(_, rule)| match rule {
            NfRule::Leaf(t) => NfRule::Leaf(*t),
            NfRule::Pair(b, c) => {
                NfRule::Pair(NonTerminal(remap[b.index()]), NonTerminal(remap[c.index()]))
            }
        })
        .collect();
    NormalFormSlp::new(compact, NonTerminal(remap[root.index()]))
        .expect("range extraction preserves validity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::{Chain, Compressor, RePair};
    use crate::families;

    fn documents() -> Vec<NormalFormSlp<u8>> {
        vec![
            crate::examples::example_4_2(),
            RePair::default().compress(b"abracadabra_abracadabra_abracadabra"),
            families::power_word(b"ab", 257),
            families::fibonacci_word(15),
            NormalFormSlp::from_document(b"x").unwrap(),
        ]
    }

    #[test]
    fn split_round_trips_for_all_k() {
        for doc in documents() {
            let text = doc.derive();
            for k in [1usize, 2, 3, 4, 8, 1000] {
                let sharded = split(&doc, k);
                assert_eq!(sharded.derive(), text, "k={k}");
                assert_eq!(sharded.to_slp().derive(), text, "composed, k={k}");
                assert_eq!(sharded.total_len(), text.len() as u64);
                assert_eq!(sharded.k(), k.max(1).min(text.len()));
            }
        }
    }

    #[test]
    fn shard_lengths_are_balanced_and_offsets_consistent() {
        let doc = families::power_word(b"abc", 341); // d = 1023
        let sharded = split(&doc, 8);
        let lens: Vec<u64> = sharded.shards().iter().map(|s| s.document_len()).collect();
        let (min, max) = (lens.iter().min().unwrap(), lens.iter().max().unwrap());
        assert!(max - min <= 1, "lengths {lens:?} must differ by at most 1");
        let mut expected_offset = 0;
        for (shard, &offset) in sharded.shards().iter().zip(sharded.offsets()) {
            assert_eq!(offset, expected_offset);
            expected_offset += shard.document_len();
        }
        assert_eq!(expected_offset, sharded.total_len());
    }

    #[test]
    fn compose_layout_is_disjoint_and_self_contained() {
        let doc = RePair::default().compress(b"the quick brown fox jumps over the lazy dog");
        let sharded = split(&doc, 4);
        let (combined, layout) = sharded.compose();
        assert_eq!(layout.ranges.len(), 4);
        assert_eq!(layout.roots.len(), 4);
        // Blocks are contiguous, disjoint and in order.
        let mut end = 0;
        for (range, &root) in layout.ranges.iter().zip(&layout.roots) {
            assert_eq!(range.start, end);
            end = range.end;
            assert!(range.contains(&(root as usize)), "root inside its block");
        }
        assert!(
            end <= combined.num_non_terminals(),
            "spine lives after the blocks"
        );
        // Self-containment: every rule in a block references only its block.
        for range in &layout.ranges {
            for i in range.clone() {
                if let NfRule::Pair(b, c) = combined.rules()[i] {
                    assert!(range.contains(&b.index()) && range.contains(&c.index()));
                }
            }
        }
        // The shard roots derive exactly the shard texts.
        for ((shard, &root), offset) in sharded
            .shards()
            .iter()
            .zip(&layout.roots)
            .zip(sharded.offsets())
        {
            assert_eq!(
                combined.derive_from(NonTerminal(root)),
                shard.derive(),
                "shard at offset {offset}"
            );
        }
    }

    #[test]
    fn standalone_blocks_are_valid_grammars_deriving_the_shard_texts() {
        for doc in documents() {
            for k in [2usize, 4, 8] {
                let sharded = split(&doc, k);
                let (combined, layout) = sharded.compose();
                assert_eq!(layout.k(), sharded.k());
                let blocks = layout.standalone_blocks(combined.rules());
                assert_eq!(blocks.len(), sharded.k());
                for (block, shard) in blocks.iter().zip(sharded.shards()) {
                    // The rebased block is exactly the shard sub-grammar:
                    // same text, same size, same depth.
                    assert_eq!(block.derive(), shard.derive());
                    assert_eq!(block.size(), shard.size());
                    assert_eq!(block.depth(), shard.depth());
                }
                // And the appended sentinel (evaluation adds one after the
                // blocks) does not disturb the block ranges.
                let ended = combined.append_terminal(*b"#".first().unwrap());
                let ended_blocks = layout.standalone_blocks(ended.rules());
                for (a, b) in blocks.iter().zip(&ended_blocks) {
                    assert_eq!(a.rules(), b.rules());
                }
            }
        }
    }

    #[test]
    fn sharding_keeps_balanced_grammars_shallow() {
        let doc = families::power_word(b"ab", 1 << 14);
        let sharded = split(&doc, 8);
        let slack = 2 * (2 * doc.depth().max(1)).ilog2() + 4;
        for shard in sharded.shards() {
            assert!(
                shard.depth() <= doc.depth() + slack,
                "shard depth {} vs original {} (+{slack} slack)",
                shard.depth(),
                doc.depth()
            );
        }
        let (combined, _) = sharded.compose();
        assert!(combined.depth() <= doc.depth() + slack + 4);
    }

    #[test]
    fn auto_k_keeps_power_families_monolithic() {
        // Exponentially compressed: the whole grammar is shared structure,
        // so every shard duplicates it.  Both gates fire: the grammar is
        // tiny, and the estimated critical ratio is ~1.
        let doc = families::power_word(b"ab", 1 << 20);
        assert!(doc.size() < 2 * MIN_SHARD_RULES);
        let ratio = critical_ratio(&split(&doc, 8), doc.size());
        assert_eq!(auto_k(doc.size(), 8, ratio), 1);
        // Even pretending the grammar were large, the ratio alone says "do
        // not shard".
        assert!(ratio > 0.8, "power-family shards duplicate the grammar");
        assert_eq!(auto_k(1 << 20, 8, ratio), 1);
    }

    #[test]
    fn auto_k_scales_block_documents_to_the_cores() {
        // Low repetitiveness: shards partition the grammar, the estimated
        // critical ratio is ~1/k, so auto_k spends the cores.
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let doc: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state % 26) as u8 + b'a'
            })
            .collect();
        let slp = NormalFormSlp::from_document(&doc).unwrap();
        assert!(slp.size() >= 2 * MIN_SHARD_RULES);
        let ratio = critical_ratio(&split(&slp, 8), slp.size());
        assert!(ratio < 0.5, "block shards partition the grammar: {ratio}");
        let k = auto_k(slp.size(), 8, ratio);
        assert!(k >= 4, "auto_k should spend the cores, got {k}");
        assert!(k <= 8);
    }

    #[test]
    fn auto_k_respects_cores_size_and_ratio_gates() {
        // Single core or tiny grammar: never shard.
        assert_eq!(auto_k(1 << 20, 1, 0.1), 1);
        assert_eq!(auto_k(MIN_SHARD_RULES, 16, 0.1), 1);
        // Serial critical path: never shard, whatever the cores.
        assert_eq!(auto_k(1 << 20, 16, 1.0), 1);
        // Perfect partition: bounded by the cores...
        assert_eq!(auto_k(1 << 20, 8, 0.0), 8);
        assert_eq!(auto_k(1 << 20, 8, 1.0 / 16.0), 8);
        // ...and by the per-shard minimum work.
        assert_eq!(auto_k(4 * MIN_SHARD_RULES, 16, 0.0), 4);
        // The ratio picks the sweet spot between 1 and the cap.
        assert_eq!(auto_k(1 << 20, 16, 0.25), 4);
        // Out-of-range ratios are clamped, not trusted.
        assert_eq!(auto_k(1 << 20, 8, 7.5), 1);
        assert_eq!(auto_k(1 << 20, 8, -3.0), 8);
    }

    #[test]
    fn splitting_a_chain_still_round_trips() {
        let doc: Vec<u8> = (0..500u32).map(|i| (i % 7) as u8 + b'a').collect();
        let chain = Chain.compress(&doc);
        let sharded = split(&chain, 4);
        assert_eq!(sharded.derive(), doc);
    }

    #[test]
    fn single_symbol_document_clamps_to_one_shard() {
        let doc = NormalFormSlp::from_document(b"z").unwrap();
        let sharded = split(&doc, 8);
        assert_eq!(sharded.k(), 1);
        assert_eq!(sharded.derive(), b"z".to_vec());
        let (combined, layout) = sharded.compose();
        assert_eq!(combined.derive(), b"z".to_vec());
        assert_eq!(layout.ranges.len(), 1);
    }
}

//! Partial marker sets `Λ ⊆ Γ_X × ℕ` (Section 6.1 of the paper): the
//! "pieces" of span-tuples that single non-terminals of the SLP contribute,
//! together with the right-shift `rs_ℓ`, the composition `⊗_s` and the total
//! order `⪯` that the computation algorithm (Theorem 7.1, appendix D) uses
//! for duplicate-free unions.

use crate::marker::{Marker, MarkerSet};
use std::cmp::Ordering;
use std::fmt;

/// A partial marker set `Λ`: a finite set of `(marker, position)` pairs,
/// stored as a position-sorted run-length list `(position, marker set)`.
///
/// Positions are 1-based, matching the paper's convention that a marker at
/// position `i` sits immediately before the `i`-th terminal (or after the
/// last terminal for position `d + 1`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct PartialMarkerSet {
    /// Sorted by position; every [`MarkerSet`] is non-empty; positions are
    /// pairwise distinct.
    entries: Vec<(u64, MarkerSet)>,
}

impl PartialMarkerSet {
    /// The empty partial marker set `∅`.
    pub fn empty() -> Self {
        PartialMarkerSet {
            entries: Vec::new(),
        }
    }

    /// Builds a partial marker set from `(position, marker)` pairs (in any
    /// order; duplicates are merged).
    pub fn from_marker_positions(pairs: impl IntoIterator<Item = (u64, Marker)>) -> Self {
        let mut pairs: Vec<(u64, Marker)> = pairs.into_iter().collect();
        pairs.sort_by_key(|&(p, _)| p);
        let mut entries: Vec<(u64, MarkerSet)> = Vec::new();
        for (p, m) in pairs {
            match entries.last_mut() {
                Some((lp, set)) if *lp == p => set.insert(m),
                _ => entries.push((p, MarkerSet::singleton(m))),
            }
        }
        PartialMarkerSet { entries }
    }

    /// Builds a partial marker set from `(position, marker set)` entries (in
    /// any order; empty sets are dropped, equal positions are merged).
    pub fn from_entries(entries: impl IntoIterator<Item = (u64, MarkerSet)>) -> Self {
        let mut raw: Vec<(u64, MarkerSet)> =
            entries.into_iter().filter(|(_, s)| !s.is_empty()).collect();
        raw.sort_by_key(|&(p, _)| p);
        let mut entries: Vec<(u64, MarkerSet)> = Vec::new();
        for (p, s) in raw {
            match entries.last_mut() {
                Some((lp, set)) if *lp == p => *set = set.union(s),
                _ => entries.push((p, s)),
            }
        }
        PartialMarkerSet { entries }
    }

    /// The singleton `{(σ, 1) : σ ∈ set}` — the partial marker set of a
    /// marker-set symbol read right before the first (and only) terminal of
    /// a leaf non-terminal (used for the matrices `M_{T_x}` of Lemma 6.5).
    pub fn at_position_one(set: MarkerSet) -> Self {
        if set.is_empty() {
            PartialMarkerSet::empty()
        } else {
            PartialMarkerSet {
                entries: vec![(1, set)],
            }
        }
    }

    /// The `(position, marker set)` entries, sorted by position.
    pub fn entries(&self) -> impl Iterator<Item = (u64, MarkerSet)> + '_ {
        self.entries.iter().copied()
    }

    /// The number of `(marker, position)` pairs `|Λ|` (at most `2·|X|`).
    pub fn len(&self) -> usize {
        self.entries.iter().map(|(_, s)| s.len()).sum()
    }

    /// `true` if `Λ = ∅`.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of distinct positions carrying at least one marker.
    pub fn num_positions(&self) -> usize {
        self.entries.len()
    }

    /// The largest position in the set (`0` if empty).
    pub fn max_position(&self) -> u64 {
        self.entries.last().map(|&(p, _)| p).unwrap_or(0)
    }

    /// The marker set at a given position (empty if none).
    pub fn at(&self, position: u64) -> MarkerSet {
        match self.entries.binary_search_by_key(&position, |&(p, _)| p) {
            Ok(i) => self.entries[i].1,
            Err(_) => MarkerSet::EMPTY,
        }
    }

    /// `Λ` is *compatible* with a document of length `d` if all positions
    /// are at most `d + 1` (Section 6.1).
    pub fn is_compatible_with(&self, document_len: u64) -> bool {
        self.max_position() <= document_len + 1
    }

    /// The `ℓ`-right-shift `rs_ℓ(Λ) = {(σ, k + ℓ) : (σ, k) ∈ Λ}`.
    pub fn right_shift(&self, shift: u64) -> Self {
        PartialMarkerSet {
            entries: self.entries.iter().map(|&(p, s)| (p + shift, s)).collect(),
        }
    }

    /// The composition `Λ ⊗_s Λ' = Λ ∪ rs_s(Λ')` (Section 6.2).
    ///
    /// In the evaluation algorithms `Λ` only has positions `≤ s` (it stems
    /// from a non-tail-spanning marked word for the left child of length
    /// `s`), so the concatenation is a cheap append; the general merging
    /// case is still handled correctly.
    pub fn compose(&self, shift: u64, right: &PartialMarkerSet) -> Self {
        let Some(&(first, _)) = right.entries.first() else {
            return self.clone();
        };
        let shifted = right.entries.iter().map(|&(p, s)| (p + shift, s));
        if self.max_position() < first + shift {
            // Fast path: strictly separated halves (the only case the
            // evaluation algorithms produce), one allocation.
            let mut entries = Vec::with_capacity(self.entries.len() + right.entries.len());
            entries.extend_from_slice(&self.entries);
            entries.extend(shifted);
            return PartialMarkerSet { entries };
        }
        PartialMarkerSet::from_entries(self.entries().chain(shifted))
    }

    /// Heap bytes owned by this partial marker set (the backing entry
    /// buffer), for cache size accounting.  The inline `size_of::<Self>()`
    /// part is accounted by whichever container holds the value.
    pub fn heap_bytes(&self) -> usize {
        self.entries.capacity() * std::mem::size_of::<(u64, MarkerSet)>()
    }

    /// Expands into the sequence of `(position, marker)` pairs in the
    /// paper's `⪯`-order on `Γ_X × ℕ` (position-major, marker-minor).
    pub fn expand(&self) -> Vec<(u64, Marker)> {
        let mut out = Vec::with_capacity(self.len());
        for &(p, s) in &self.entries {
            for m in s.iter() {
                out.push((p, m));
            }
        }
        out
    }
}

/// The paper's total order `⪯` on partial marker sets (appendix D): compare
/// the expanded `(position, marker)` sequences at the leftmost position
/// where they differ; if one sequence is a *prefix* of the other, the prefix
/// is the **larger** one.  This ordering is compatible with `⊗_s`
/// composition, which is what makes merge-based duplicate elimination in the
/// computation algorithm sound.
///
/// The comparison walks the run-length entries pairwise and allocates
/// nothing.  Markers are ranked by their bit in a [`MarkerSet`], and every
/// entry's set is non-empty, so:
/// * at the first pair of different positions, the smaller position's
///   sequence is smaller;
/// * at the first equal position with different sets, the side holding the
///   lowest differing bit is smaller (the other side continues with a
///   higher bit, a later position, or nothing — a prefix, hence larger);
/// * if one entry list is a prefix of the other, the shorter list is larger.
impl Ord for PartialMarkerSet {
    fn cmp(&self, other: &Self) -> Ordering {
        for (&(pa, sa), &(pb, sb)) in self.entries.iter().zip(&other.entries) {
            if pa != pb {
                return pa.cmp(&pb);
            }
            let differ = sa.bits() ^ sb.bits();
            if differ != 0 {
                let lowest = differ & differ.wrapping_neg();
                return if sa.bits() & lowest != 0 {
                    Ordering::Less
                } else {
                    Ordering::Greater
                };
            }
        }
        other.entries.len().cmp(&self.entries.len())
    }
}

impl PartialOrd for PartialMarkerSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Display for PartialMarkerSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (p, m) in self.expand() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "({m}, {p})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variable::Variable;

    fn open(v: u8) -> Marker {
        Marker::Open(Variable(v))
    }
    fn close(v: u8) -> Marker {
        Marker::Close(Variable(v))
    }

    #[test]
    fn construction_merges_positions() {
        let l = PartialMarkerSet::from_marker_positions(vec![
            (4, open(0)),
            (2, open(1)),
            (4, close(1)),
        ]);
        assert_eq!(l.num_positions(), 2);
        assert_eq!(l.len(), 3);
        assert_eq!(l.max_position(), 4);
        assert!(l.at(4).contains(open(0)));
        assert!(l.at(4).contains(close(1)));
        assert!(l.at(2).contains(open(1)));
        assert!(l.at(3).is_empty());
    }

    #[test]
    fn example_6_1_composition() {
        // Λ1 = {(⊿y,2), (⊿z,4), (⊿x,4), (◁z,6)}, Λ2 = {(◁x,2), (◁y,4)},
        // with x=0, y=1, z=2; |D1| = 6.
        let l1 = PartialMarkerSet::from_marker_positions(vec![
            (2, open(1)),
            (4, open(2)),
            (4, open(0)),
            (6, close(2)),
        ]);
        let l2 = PartialMarkerSet::from_marker_positions(vec![(2, close(0)), (4, close(1))]);
        let combined = l1.compose(6, &l2);
        let expected = PartialMarkerSet::from_marker_positions(vec![
            (2, open(1)),
            (4, open(2)),
            (4, open(0)),
            (6, close(2)),
            (8, close(0)),
            (10, close(1)),
        ]);
        assert_eq!(combined, expected);
        assert_eq!(combined.len(), 6);
        assert!(combined.is_compatible_with(10));
        assert!(!combined.is_compatible_with(8));
    }

    #[test]
    fn compose_with_empty_sides() {
        let l = PartialMarkerSet::from_marker_positions(vec![(1, open(0))]);
        let e = PartialMarkerSet::empty();
        assert_eq!(l.compose(5, &e), l);
        assert_eq!(e.compose(3, &l).max_position(), 4);
        assert_eq!(e.compose(0, &e), e);
    }

    #[test]
    fn compose_merges_overlapping_positions() {
        // General (non-evaluation) case: overlapping positions merge.
        let l1 = PartialMarkerSet::from_marker_positions(vec![(3, open(0))]);
        let l2 = PartialMarkerSet::from_marker_positions(vec![(1, close(0))]);
        let c = l1.compose(2, &l2);
        assert_eq!(c.num_positions(), 1);
        assert_eq!(c.len(), 2);
        assert!(c.at(3).contains(open(0)) && c.at(3).contains(close(0)));
    }

    #[test]
    fn right_shift_is_injective_on_positions() {
        let l = PartialMarkerSet::from_marker_positions(vec![(1, open(0)), (5, close(0))]);
        let s = l.right_shift(7);
        assert_eq!(s.expand(), vec![(8, open(0)), (12, close(0))]);
    }

    #[test]
    fn lemma_6_9_unique_decomposition() {
        // ΛB ⊗_s ΛC = Λ'B ⊗_s Λ'C  ⇔  ΛB = Λ'B and ΛC = Λ'C, provided both
        // ΛB, Λ'B only use positions ≤ s.
        let s = 5;
        let candidates_b = [
            PartialMarkerSet::empty(),
            PartialMarkerSet::from_marker_positions(vec![(1, open(0))]),
            PartialMarkerSet::from_marker_positions(vec![(5, open(0))]),
            PartialMarkerSet::from_marker_positions(vec![(2, open(0)), (4, close(0))]),
        ];
        let candidates_c = [
            PartialMarkerSet::empty(),
            PartialMarkerSet::from_marker_positions(vec![(1, close(0))]),
            PartialMarkerSet::from_marker_positions(vec![(3, open(1)), (4, close(1))]),
        ];
        let mut seen = std::collections::HashSet::new();
        for b in &candidates_b {
            for c in &candidates_c {
                let composed = b.compose(s, c);
                assert!(
                    seen.insert(composed.clone()),
                    "composition is not injective for {b} ⊗ {c}"
                );
            }
        }
    }

    #[test]
    fn order_is_total_and_prefix_is_larger() {
        let empty = PartialMarkerSet::empty();
        let a = PartialMarkerSet::from_marker_positions(vec![(1, open(0))]);
        let ab = PartialMarkerSet::from_marker_positions(vec![(1, open(0)), (4, close(0))]);
        let b = PartialMarkerSet::from_marker_positions(vec![(2, open(0))]);
        // The empty set is a prefix of everything, so it is the largest.
        assert!(empty > a);
        assert!(empty > ab);
        // A proper prefix is larger than its extension.
        assert!(a > ab);
        // Leftmost difference decides otherwise.
        assert!(a < b);
        assert!(ab < b);
        // Consistency with equality.
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn order_is_compatible_with_composition() {
        // ΛB ≺ Λ'B  ⇒  ΛB ⊗ ΛC ≺ Λ'B ⊗ Λ'C  (appendix D key property).
        let s = 6;
        let b1 = PartialMarkerSet::from_marker_positions(vec![(2, open(0))]);
        let b2 = PartialMarkerSet::from_marker_positions(vec![(3, open(0))]);
        let c1 = PartialMarkerSet::from_marker_positions(vec![(1, close(0))]);
        let c2 = PartialMarkerSet::from_marker_positions(vec![(4, close(0))]);
        for c_left in [&c1, &c2] {
            for c_right in [&c1, &c2] {
                assert!(b1.compose(s, c_left) < b2.compose(s, c_right));
            }
        }
        // Equal left halves: the right halves decide.
        assert!(b1.compose(s, &c1) < b1.compose(s, &c2));
        // Prefix case: b1 is a prefix of b1 ∪ {(5, ◁x)}.
        let b1_ext = PartialMarkerSet::from_marker_positions(vec![(2, open(0)), (5, close(0))]);
        assert!(b1.compose(s, &c1) > b1_ext.compose(s, &c1));
    }

    #[test]
    fn display_lists_pairs() {
        let l = PartialMarkerSet::from_marker_positions(vec![(2, open(1)), (4, close(1))]);
        let txt = l.to_string();
        assert!(txt.contains("2"));
        assert!(txt.contains("4"));
    }

    /// The order as appendix D defines it, on expanded `(position, marker
    /// rank)` sequences: the leftmost difference decides, a prefix is larger.
    fn expanded_cmp(a: &[(u64, u32)], b: &[(u64, u32)]) -> Ordering {
        match a.iter().zip(b).find(|(x, y)| x != y) {
            Some((x, y)) => x.cmp(y),
            None => b.len().cmp(&a.len()),
        }
    }

    #[test]
    fn in_place_order_agrees_with_the_expanded_order() {
        // Every partial marker set over positions 1–3 and the four markers
        // of two variables: 16³ sets, compared against a stride of the
        // others (every pair of sets differing at one position included).
        let sets: Vec<PartialMarkerSet> = (0..16u64 * 16 * 16)
            .map(|code| {
                PartialMarkerSet::from_entries(
                    (0..3).map(|p| (p + 1, MarkerSet::from_bits((code >> (4 * p)) & 15))),
                )
            })
            .collect();
        let rank = |m: Marker| match m {
            Marker::Open(v) => 2 * v.0 as u32,
            Marker::Close(v) => 2 * v.0 as u32 + 1,
        };
        let expanded: Vec<Vec<(u64, u32)>> = sets
            .iter()
            .map(|s| s.expand().into_iter().map(|(p, m)| (p, rank(m))).collect())
            .collect();
        let check = |i: usize, j: usize| {
            let expected = expanded_cmp(&expanded[i], &expanded[j]);
            assert_eq!(
                sets[i].cmp(&sets[j]),
                expected,
                "{} vs {}",
                sets[i],
                sets[j]
            );
        };
        let mut pairs = 0usize;
        for i in 0..sets.len() {
            for j in (i % 7..sets.len()).step_by(7) {
                check(i, j);
                pairs += 1;
            }
            for p in 0..3 {
                for bits in 0..16 {
                    check(i, (i & !(15 << (4 * p))) | (bits << (4 * p)));
                }
            }
        }
        assert!(pairs > 2_000_000);
    }
}

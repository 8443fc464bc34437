//! Bit-packed three-valued `R_A` matrices: two bitplanes per matrix,
//! 2 bits per entry, 64 entries per `u64` word per plane.
//!
//! The three-valued domain of Definition 6.4 — `⊥` / `℮` / `1` — embeds
//! into two Boolean planes: `nonbot[i,j]` records `R_A[i,j] ≠ ⊥` and
//! `nonempty[i,j]` records `R_A[i,j] = 1`, with the invariant
//! `nonempty ⊆ nonbot`.  Rows are padded to the word boundary with zero
//! bits, so derived equality and hashing stay canonical.
//!
//! The payoff is the Lemma 6.5 product: over this encoding
//!
//! ```text
//! nonbot_out[i,j]   = OR_k ( nonbot_B[i,k] ∧ nonbot_C[k,j] )
//! nonempty_out[i,j] = OR_k ( nonbot_B[i,k] ∧ nonbot_C[k,j]
//!                            ∧ (nonempty_B[i,k] ∨ nonempty_C[k,j]) )
//! ```
//!
//! which [`RMatrix::product`] evaluates as row-broadcast OR sweeps over
//! whole `u64` words — `O(q³/64)` word operations instead of `O(q³)`
//! entry operations, bit-identical to the scalar kernel
//! ([`RMatrix::product_scalar`], kept as the oracle for the property
//! tests).

use crate::matrices::REntry;
use spanner_automata::matrix::BoolMatrix;

/// The indices of the set bits of a packed row, in increasing order.
#[inline]
pub(crate) fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(word_idx, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let t = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                word_idx * 64 + t
            })
        })
    })
}

/// A `q × q` three-valued matrix packed into two Boolean bitplanes.
///
/// Invariants (maintained by every constructor and mutator):
/// * every `nonempty` bit implies the corresponding `nonbot` bit;
/// * row padding bits (columns `≥ q`) are zero in both planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RMatrix {
    q: usize,
    nonbot: BoolMatrix,
    nonempty: BoolMatrix,
}

impl RMatrix {
    /// The all-`⊥` matrix of dimension `q × q`.
    pub fn bot(q: usize) -> RMatrix {
        RMatrix {
            q,
            nonbot: BoolMatrix::zero(q),
            nonempty: BoolMatrix::zero(q),
        }
    }

    /// Matrix dimension `q`.
    #[inline]
    pub fn q(&self) -> usize {
        self.q
    }

    /// `true` if this is the 0-dimensional placeholder no build ever reads.
    #[inline]
    pub fn is_placeholder(&self) -> bool {
        self.q == 0
    }

    /// Reads entry `(i, j)`.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> REntry {
        if !self.nonbot.get(i, j) {
            REntry::Bot
        } else if self.nonempty.get(i, j) {
            REntry::NonEmpty
        } else {
            REntry::Empty
        }
    }

    /// `true` iff `R[i,j] ≠ ⊥` — one plane probe, the common filter in
    /// `I_A` computations.
    #[inline]
    pub fn is_nonbot(&self, i: usize, j: usize) -> bool {
        self.nonbot.get(i, j)
    }

    /// Writes entry `(i, j)`, maintaining `nonempty ⊆ nonbot`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, entry: REntry) {
        match entry {
            REntry::Bot => {
                self.nonbot.set(i, j, false);
                self.nonempty.set(i, j, false);
            }
            REntry::Empty => {
                self.nonbot.set(i, j, true);
                self.nonempty.set(i, j, false);
            }
            REntry::NonEmpty => {
                self.nonbot.set(i, j, true);
                self.nonempty.set(i, j, true);
            }
        }
    }

    /// Packs a dense row-major `q·q` entry slice.
    pub fn from_entries(q: usize, entries: &[REntry]) -> RMatrix {
        assert_eq!(entries.len(), q * q, "entry slice must be q·q long");
        let mut m = RMatrix::bot(q);
        for i in 0..q {
            for j in 0..q {
                m.set(i, j, entries[i * q + j]);
            }
        }
        m
    }

    /// Unpacks into a dense row-major `q·q` entry vector.
    pub fn to_entries(&self) -> Vec<REntry> {
        let q = self.q;
        let mut out = Vec::with_capacity(q * q);
        for i in 0..q {
            for j in 0..q {
                out.push(self.get(i, j));
            }
        }
        out
    }

    /// The `nonbot` bitplane (`R[i,j] ≠ ⊥`).
    #[inline]
    pub fn nonbot_plane(&self) -> &BoolMatrix {
        &self.nonbot
    }

    /// The `nonempty` bitplane (`R[i,j] = 1`).
    #[inline]
    pub fn nonempty_plane(&self) -> &BoolMatrix {
        &self.nonempty
    }

    /// Rebuilds a matrix from its two bitplanes, checking the invariants:
    /// every `nonempty` bit must have its `nonbot` bit set.  Returns `None`
    /// on dimension mismatch or an `1`-without-`≠⊥` entry — the validation
    /// the wire decoder relies on against hostile peers.
    pub fn from_planes(nonbot: BoolMatrix, nonempty: BoolMatrix) -> Option<RMatrix> {
        if nonbot.dim() != nonempty.dim() {
            return None;
        }
        let q = nonbot.dim();
        for i in 0..q {
            for (wb, we) in nonbot.row_words(i).iter().zip(nonempty.row_words(i)) {
                if we & !wb != 0 {
                    return None;
                }
            }
        }
        Some(RMatrix {
            q,
            nonbot,
            nonempty,
        })
    }

    /// Heap footprint in bytes of both planes, padding words included —
    /// the admission weight charged by the byte-budgeted matrix caches.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.nonbot.heap_bytes() + self.nonempty.heap_bytes()
    }

    /// The word-parallel Lemma 6.5 product (see the module docs for the
    /// Boolean derivation): for each set bit `k` of `B`'s `nonbot` row `i`,
    /// `C`'s row `k` is OR-broadcast into the output row — `nonbot` always,
    /// and into `nonempty` either `C`'s `nonbot` row (when `B[i,k] = 1`,
    /// any `≠⊥` continuation yields `1`) or `C`'s `nonempty` row (when
    /// `B[i,k] = ℮`, only a `1` continuation does).  `O(q³/64)` words.
    pub fn product(b: &RMatrix, c: &RMatrix) -> RMatrix {
        assert_eq!(b.q, c.q, "dimension mismatch");
        let q = b.q;
        let mut out = RMatrix::bot(q);
        if q == 0 {
            return out;
        }
        let w = out.nonbot.words_per_row();
        let mut acc_nb = vec![0u64; w];
        let mut acc_ne = vec![0u64; w];
        for i in 0..q {
            acc_nb.iter_mut().for_each(|x| *x = 0);
            acc_ne.iter_mut().for_each(|x| *x = 0);
            let row_nb = b.nonbot.row_words(i);
            let row_ne = b.nonempty.row_words(i);
            for (word_idx, (&wb, &we)) in row_nb.iter().zip(row_ne).enumerate() {
                let mut bits = wb;
                while bits != 0 {
                    let t = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let k = word_idx * 64 + t;
                    let c_nb = c.nonbot.row_words(k);
                    // B[i,k] = 1 ⇒ any ≠⊥ continuation is 1;
                    // B[i,k] = ℮ ⇒ only a 1 continuation is.
                    let c_ne = if (we >> t) & 1 == 1 {
                        c_nb
                    } else {
                        c.nonempty.row_words(k)
                    };
                    for ((a_nb, a_ne), (&nb, &ne)) in acc_nb
                        .iter_mut()
                        .zip(acc_ne.iter_mut())
                        .zip(c_nb.iter().zip(c_ne))
                    {
                        *a_nb |= nb;
                        *a_ne |= ne;
                    }
                }
            }
            out.nonbot.row_words_mut(i).copy_from_slice(&acc_nb);
            out.nonempty.row_words_mut(i).copy_from_slice(&acc_ne);
        }
        out
    }

    /// The scalar Lemma 6.5 product, one entry at a time — the original
    /// `O(q³)` kernel, kept as the oracle the property tests compare
    /// [`RMatrix::product`] against.
    pub fn product_scalar(b: &RMatrix, c: &RMatrix) -> RMatrix {
        assert_eq!(b.q, c.q, "dimension mismatch");
        let q = b.q;
        let mut out = RMatrix::bot(q);
        for i in 0..q {
            for j in 0..q {
                let mut entry = REntry::Bot;
                for k in 0..q {
                    let eb = b.get(i, k);
                    let ec = c.get(k, j);
                    if eb == REntry::Bot || ec == REntry::Bot {
                        continue;
                    }
                    if eb == REntry::NonEmpty || ec == REntry::NonEmpty {
                        entry = REntry::NonEmpty;
                        break;
                    }
                    entry = REntry::Empty;
                }
                out.set(i, j, entry);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64 stream for reproducible pseudo-random fills.
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn random_matrix(q: usize, next: &mut impl FnMut() -> u64) -> RMatrix {
        let mut m = RMatrix::bot(q);
        for i in 0..q {
            for j in 0..q {
                let entry = match next() % 4 {
                    0 | 1 => REntry::Bot,
                    2 => REntry::Empty,
                    _ => REntry::NonEmpty,
                };
                m.set(i, j, entry);
            }
        }
        m
    }

    #[test]
    fn get_set_round_trips_all_values() {
        let mut m = RMatrix::bot(3);
        assert_eq!(m.get(1, 2), REntry::Bot);
        m.set(1, 2, REntry::NonEmpty);
        assert_eq!(m.get(1, 2), REntry::NonEmpty);
        assert!(m.is_nonbot(1, 2));
        m.set(1, 2, REntry::Empty);
        assert_eq!(m.get(1, 2), REntry::Empty);
        assert!(m.is_nonbot(1, 2));
        m.set(1, 2, REntry::Bot);
        assert_eq!(m.get(1, 2), REntry::Bot);
        assert!(!m.is_nonbot(1, 2));
        // Downgrading from NonEmpty must clear the nonempty plane too.
        m.set(0, 0, REntry::NonEmpty);
        m.set(0, 0, REntry::Empty);
        assert_eq!(m.get(0, 0), REntry::Empty);
        assert!(!m.nonempty_plane().get(0, 0));
    }

    #[test]
    fn entries_round_trip_across_word_boundaries() {
        for q in [1usize, 7, 63, 64, 65, 130] {
            let mut next = rng(q as u64 * 0x9e3779b9);
            let m = random_matrix(q, &mut next);
            let entries = m.to_entries();
            assert_eq!(entries.len(), q * q);
            let back = RMatrix::from_entries(q, &entries);
            assert_eq!(back, m, "q={q}");
        }
    }

    #[test]
    fn packed_product_matches_the_scalar_oracle() {
        for q in [1usize, 7, 63, 65] {
            for seed in 1..=4u64 {
                let mut next = rng(seed.wrapping_mul(0x2545f491) ^ q as u64);
                let b = random_matrix(q, &mut next);
                let c = random_matrix(q, &mut next);
                let fast = RMatrix::product(&b, &c);
                let slow = RMatrix::product_scalar(&b, &c);
                assert_eq!(fast, slow, "q={q} seed={seed}");
            }
        }
    }

    #[test]
    fn packed_product_matches_on_degenerate_densities() {
        // All-⊥, all-℮ and all-1 operands in every combination: the gating
        // of the nonempty sweep must agree with the scalar kernel even when
        // one plane is saturated.
        let q = 65;
        let fills = [REntry::Bot, REntry::Empty, REntry::NonEmpty];
        for &fb in &fills {
            for &fc in &fills {
                let b = RMatrix::from_entries(q, &vec![fb; q * q]);
                let c = RMatrix::from_entries(q, &vec![fc; q * q]);
                let fast = RMatrix::product(&b, &c);
                let slow = RMatrix::product_scalar(&b, &c);
                assert_eq!(fast, slow, "fills {fb:?} × {fc:?}");
            }
        }
    }

    #[test]
    fn from_planes_enforces_the_subset_invariant() {
        let mut nonbot = BoolMatrix::zero(66);
        let mut nonempty = BoolMatrix::zero(66);
        nonbot.set(0, 65, true);
        nonempty.set(0, 65, true);
        assert!(RMatrix::from_planes(nonbot.clone(), nonempty.clone()).is_some());
        // A 1 entry whose ≠⊥ bit is clear is malformed.
        nonempty.set(1, 3, true);
        assert!(RMatrix::from_planes(nonbot.clone(), nonempty).is_none());
        // Dimension mismatch is malformed.
        assert!(RMatrix::from_planes(nonbot, BoolMatrix::zero(65)).is_none());
    }

    #[test]
    fn heap_bytes_counts_both_planes_with_padding() {
        // q = 65 pads each row to two words: 65 rows × 2 words × 8 bytes
        // per plane, two planes.
        let m = RMatrix::bot(65);
        assert!(m.heap_bytes() >= 65 * 2 * 8 * 2);
        // The placeholder still owns one word per plane per row (zero rows).
        assert_eq!(RMatrix::bot(0).heap_bytes(), 0);
        assert!(RMatrix::bot(0).is_placeholder());
        assert!(!m.is_placeholder());
    }

    #[test]
    fn product_keeps_padding_bits_zero() {
        let q = 65;
        let b = RMatrix::from_entries(q, &vec![REntry::NonEmpty; q * q]);
        let out = RMatrix::product(&b, &b);
        for i in 0..q {
            let last_nb = *out.nonbot_plane().row_words(i).last().unwrap();
            let last_ne = *out.nonempty_plane().row_words(i).last().unwrap();
            // Only column 64 (bit 0 of the second word) may be set.
            assert_eq!(last_nb & !1, 0);
            assert_eq!(last_ne & !1, 0);
        }
        // Canonical padding means derived equality is usable.
        assert_eq!(out, RMatrix::product_scalar(&b, &b));
    }
}

//! Counting `|⟦M⟧(D)|` **without enumerating**, in time `O(size(S)·q³)`.
//!
//! This is a natural extension of the paper's toolbox (it is not spelled
//! out in the paper, but follows directly from its Section 6 machinery):
//! by Lemma 6.9 the composition `M_B[i,k] ⊗ M_C[k,j]` is duplicate-free, so
//! `|K^k_A[i,j]| = |M_B[i,k]| · |M_C[k,j]|`, and for a *deterministic*
//! automaton the sets `K^k_A[i,j]` for different `k` and the sets
//! `M_{S₀}[q₀, j]` for different accepting `j` are pairwise disjoint
//! (Lemma 8.7).  Hence the cardinalities satisfy the recurrence
//!
//! ```text
//! cnt_A[i,j] = Σ_{k ∈ I_A[i,j]}  cnt_B[i,k] · cnt_C[k,j]
//! |⟦M⟧(D)|   = Σ_{j ∈ F'}        cnt_{S₀}[q₀, j]
//! ```
//!
//! which is a single bottom-up pass over the SLP — the result count of a
//! document with 2⁴⁰ symbols is obtained in microseconds.  Counts are
//! returned as `u128` (they can be astronomically large: up to
//! `(d²/2 + 2)^|X|`).
//!
//! The count is a pure function of the pair's Lemma 6.5 matrices, so it is
//! memoised on them: the first request for a pair runs the pass, every
//! later one (for as long as the matrices stay cached) reads the memo.
//! The pass only visits the `(i, k, j)` triples the `nonbot` bitplanes
//! admit — `cnt_B[i,k]` is non-zero exactly when `R_B[i,k] ≠ ⊥` — over
//! one `n·q²` table cut into a few fixed-size slabs.

use crate::bitmat::set_bits;
use crate::error::EvalError;
use crate::matrices::Preprocessed;
use crate::prepared::PreparedEvaluation;
use slp::NormalFormSlp;
use spanner::SpannerAutomaton;

/// Counts `|⟦M⟧(D)|` in `O(|M| + size(S)·q³)` without enumerating.
///
/// Requires a deterministic automaton (otherwise different accepting runs of
/// the same result would be counted multiple times); non-deterministic
/// automata are rejected with [`EvalError::NondeterministicAutomaton`] —
/// determinise first, exactly as for enumeration.
pub fn count_results(
    automaton: &SpannerAutomaton<u8>,
    document: &NormalFormSlp<u8>,
) -> Result<u128, EvalError> {
    let prepared = PreparedEvaluation::new(automaton, document)?;
    if !prepared.deterministic() {
        return Err(EvalError::NondeterministicAutomaton);
    }
    Ok(count_from_prepared(&prepared))
}

/// Counts `|⟦M⟧(D)|` from an existing (deterministic) prepared evaluation.
pub fn count_from_prepared(prepared: &PreparedEvaluation) -> u128 {
    count_from_matrices(&prepared.pre)
}

/// Counts `|⟦M⟧(D)|` directly from the preprocessed matrices of a
/// (query, document) pair — the engine-facing entry point.  The matrices
/// must have been built from a deterministic automaton for the count to be
/// duplicate-free.
///
/// The first call on a [`Preprocessed`] runs the `O(size(S)·q³)` pass and
/// memoises its result; later calls (from any thread) return the memo.
pub fn count_from_matrices(pre: &Preprocessed) -> u128 {
    *pre.memo().count.get_or_init(|| count_pass(pre))
}

/// Bytes per slab of the count pass's table.  The table lives only until
/// the count is memoised, so it is cut into slabs below the allocator's
/// default mmap threshold (128 KiB in glibc): a single multi-megabyte
/// buffer would be mmapped, and freeing it raises that threshold for the
/// rest of the process, which then keeps unrelated large buffers on the
/// heap and grows the resident set.
const SLAB_BYTES: usize = 64 << 10;

/// The bottom-up counting pass: the table of non-terminal `A` holds
/// `|M_A[i, j]|` at `i·q + j`; consecutive non-terminals share a slab.
fn count_pass(pre: &Preprocessed) -> u128 {
    let q = pre.q;
    let qq = q * q;
    let n = pre.children.len();
    let per_slab = (SLAB_BYTES / (qq * std::mem::size_of::<u128>())).max(1);
    let mut slabs: Vec<Vec<u128>> = (0..n)
        .step_by(per_slab)
        .map(|first| vec![0u128; (n - first).min(per_slab) * qq])
        .collect();
    // Non-terminal `a`'s table: slab `a / per_slab`, from `a % per_slab · q²`.
    let locate = |a: usize| (a / per_slab, a % per_slab * qq);
    let mut table = vec![0u128; qq];
    for &a in &pre.bottom_up {
        let a = a as usize;
        table.fill(0);
        match pre.children[a] {
            None => {
                for (idx, cell) in table.iter_mut().enumerate() {
                    *cell = pre.leaf_set(a as u32, idx / q, idx % q).len() as u128;
                }
            }
            Some((b, c)) => {
                let (b, c) = (b as usize, c as usize);
                let (nonbot_b, nonbot_c) = (pre.r[b].nonbot_plane(), pre.r[c].nonbot_plane());
                let ((slab_b, at_b), (slab_c, at_c)) = (locate(b), locate(c));
                let cnt_b = &slabs[slab_b][at_b..at_b + qq];
                let cnt_c = &slabs[slab_c][at_c..at_c + qq];
                for i in 0..q {
                    let row = &mut table[i * q..][..q];
                    for k in set_bits(nonbot_b.row_words(i)) {
                        let left = cnt_b[i * q + k];
                        let right = &cnt_c[k * q..][..q];
                        for j in set_bits(nonbot_c.row_words(k)) {
                            row[j] += left * right[j];
                        }
                    }
                }
            }
        }
        let (slab, at) = locate(a);
        slabs[slab][at..at + qq].copy_from_slice(&table);
    }
    let (slab, at) = locate(pre.start_nt as usize);
    let root = &slabs[slab][at..at + qq];
    pre.reachable_accepting()
        .into_iter()
        .map(|j| root[pre.nfa_start * q + j])
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slp::compress::{Bisection, Compressor};
    use slp::families;
    use spanner::examples::figure_2_spanner;
    use spanner::{reference, regex};

    #[test]
    fn matches_reference_counts_on_small_documents() {
        let m = figure_2_spanner();
        for doc in [&b"aabccaabaa"[..], b"ca", b"cccc", b"ababab", b"cabc"] {
            let slp = Bisection.compress(doc);
            let expected = reference::evaluate(&m, doc).len() as u128;
            assert_eq!(count_results(&m, &slp).unwrap(), expected, "doc {:?}", doc);
        }
    }

    #[test]
    fn matches_enumeration_on_regex_spanners() {
        let m = regex::compile_deterministic(".*x{a+}y{b+}.*", b"ab").unwrap();
        let doc = b"aabbaabbab";
        let slp = Bisection.compress(doc);
        let enumerated = crate::enumerate::Enumerator::new(&m, &slp)
            .unwrap()
            .iter()
            .count() as u128;
        assert_eq!(count_results(&m, &slp).unwrap(), enumerated);
    }

    #[test]
    fn counts_astronomically_large_relations() {
        // (ab)^(2^30): exactly 2^30 results for the ab-block query, counted
        // from a ~100-rule SLP without enumerating a single one.
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let slp = families::power_word(b"ab", 1 << 30);
        assert_eq!(count_results(&m, &slp).unwrap(), 1 << 30);
        // And the unary spanner x{a} over a^(2^40) has 2^40 results.
        let m = regex::compile_deterministic(".*x{a}.*", b"a").unwrap();
        let slp = families::power_of_two_unary(b'a', 40);
        assert_eq!(count_results(&m, &slp).unwrap(), 1u128 << 40);
    }

    #[test]
    fn the_count_is_memoised_on_the_matrices() {
        let m = regex::compile_deterministic(".*x{ab}.*", b"ab").unwrap();
        let prepared = PreparedEvaluation::new(&m, &families::power_word(b"ab", 1000)).unwrap();
        let pre = &prepared.pre;
        assert_eq!(
            pre.memo().count.get().copied(),
            None,
            "the build runs no count"
        );
        assert_eq!(count_from_matrices(pre), 1000);
        assert_eq!(pre.memo().count.get().copied(), Some(1000));
        assert_eq!(count_from_matrices(pre), 1000);
    }

    #[test]
    fn empty_relations_count_zero() {
        let m = figure_2_spanner();
        let slp = Bisection.compress(b"cccc");
        assert_eq!(count_results(&m, &slp).unwrap(), 0);
    }

    #[test]
    fn nondeterministic_automata_are_rejected() {
        let m = regex::compile(".*x{a.*}.*", b"ab").unwrap();
        assert!(!m.is_deterministic());
        let slp = Bisection.compress(b"abab");
        assert!(matches!(
            count_results(&m, &slp),
            Err(EvalError::NondeterministicAutomaton)
        ));
    }
}

//! The preprocessing of Lemma 6.5: the matrices `R_A` (for every
//! non-terminal) and `M_{T_x}` (for every leaf non-terminal), plus the
//! grammar metadata the computation and enumeration phases need.
//!
//! `M_A[i,j]` (Definition 6.2) is the set of partial marker sets `Λ` such
//! that the automaton can go from state `i` to state `j` reading the marked
//! word `m(D(A), Λ)` (non-tail-spanning).  These sets are huge for inner
//! non-terminals, so only their three-valued summary `R_A[i,j]` (empty /
//! only-∅ / something more) is precomputed; the full sets are materialised
//! lazily by the computation (Theorem 7.1) and enumeration (Theorem 8.10)
//! algorithms.  For *leaf* non-terminals the full `M_{T_x}` tables are tiny
//! (`O(|M|)` overall) and are precomputed here.
//!
//! Every matrix build runs one pass, `block_pass`: independent leaf
//! tables, then the inner `R_A` summaries over the grammar's depth strata,
//! each stratum mapped across all cores (serially on a one-CPU host).
//! [`Preprocessed::build`] runs it over the whole grammar,
//! [`Preprocessed::build_sharded`] per shard block.  The plain bottom-up
//! [`Preprocessed::build_serial`] is the bit-identical oracle.

pub use crate::bitmat::RMatrix;
use crate::executor::{ShardExecutor, ShardJob, ShardOutcome};
use crate::prepared::EByte;
use crate::trace::{self, ShardTrace, SpanRec};
use slp::{NfRule, NonTerminal, NormalFormSlp, ShardLayout, Terminal};
use spanner::{MarkedSymbol, MarkerSet, PartialMarkerSet};
use spanner_automata::nfa::{Label, Nfa};
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// The three-valued summary of `M_A[i,j]` (Definition 6.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum REntry {
    /// `M_A[i,j] = ∅`: no marked word for `D(A)` leads from `i` to `j`.
    Bot,
    /// `M_A[i,j] = {∅}`: only the unmarked word `D(A)` leads from `i` to `j`
    /// (the paper's `℮`).
    Empty,
    /// `M_A[i,j]` contains a non-empty partial marker set (the paper's `1`).
    NonEmpty,
}

/// One shard of a scatter-gather matrix build: the rule-index block the
/// shard's independent pass covered and the non-terminal deriving the
/// shard's text (see [`Preprocessed::build_sharded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardInfo {
    /// First rule index of the shard's block.
    pub first: u32,
    /// One past the last rule index of the shard's block.
    pub last: u32,
    /// The non-terminal deriving the shard's text.
    pub root: u32,
}

/// Per-shard timing of one scatter-gather matrix build
/// ([`Preprocessed::build_sharded`]): what each independent shard pass cost
/// and what the root merge cost.  On a multi-core host the wall-clock of
/// the build is `max(shard_build) + merge` (the critical path), versus the
/// sum for a monolithic pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardBuildStats {
    /// Wall-clock of every per-shard matrix pass, in shard order.  For
    /// remote executors this is the coordinator-observed round-trip — the
    /// cost the critical path actually pays.
    pub shard_build: Vec<Duration>,
    /// Wall-clock of the root composition pass (spine + sentinel rules,
    /// merged by three-valued matrix products).
    pub merge: Duration,
    /// Number of shard passes a non-local executor could not complete and
    /// handed to the in-process fallback, plus outcomes the gather found
    /// malformed and redid in-process (always `0` for
    /// [`crate::executor::LocalExecutor`] builds).  Shards that reused a
    /// deduplicated outcome inherit its fallback flag, so this stays a
    /// per-shard count.
    pub fallbacks: usize,
    /// Number of shard passes the executor re-issued to a second backend,
    /// after a failed first attempt or an expired latency budget (hedged
    /// passes; `0` for local builds).
    pub hedges: usize,
    /// Number of shards whose standalone block was structurally identical
    /// to an earlier shard's block and therefore never executed — the
    /// cross-shard sharing pass reused the earlier outcome (its
    /// `shard_build` entry is zero).
    pub deduped: usize,
    /// Span fragment of a *sampled* build: the executors' per-shard spans
    /// plus the root merge span, all in the request timebase with `None`
    /// parents (the service grafts them under its matrix-build span).
    /// Empty — and allocation-free — for unsampled builds.
    pub spans: Vec<SpanRec>,
}

impl ShardBuildStats {
    /// Number of shards.
    pub fn k(&self) -> usize {
        self.shard_build.len()
    }

    /// `max(shard_build) + merge`: the wall-clock a fully parallel
    /// scatter-gather build needs.
    pub fn critical_path(&self) -> Duration {
        self.shard_build.iter().max().copied().unwrap_or_default() + self.merge
    }

    /// `sum(shard_build) + merge`: the total work performed.
    pub fn total(&self) -> Duration {
        self.shard_build.iter().sum::<Duration>() + self.merge
    }
}

/// Preprocessed evaluation data (Lemma 6.5) plus grammar metadata.
///
/// Equality compares the matrices and metadata only; the lazily filled
/// per-pair memos (the result count and the model check's unmarked rows)
/// take no part in it.
#[derive(Debug, PartialEq, Eq)]
pub struct Preprocessed {
    /// Number of automaton states `q`.
    pub q: usize,
    /// The automaton's start state.
    pub nfa_start: usize,
    /// The automaton's accepting states `F`.
    pub nfa_accepting: Vec<usize>,
    /// Number of span variables `|X|`.
    pub num_vars: usize,
    /// The SLP's start non-terminal.
    pub start_nt: u32,
    /// `children[a] = Some((b, c))` for inner rules `A → BC`, `None` for leaves.
    pub children: Vec<Option<(u32, u32)>>,
    /// `|D(A)|` per non-terminal (the shifts used by `⊗`).
    pub lengths: Vec<u64>,
    /// Non-terminals in bottom-up (children first) order.
    pub bottom_up: Vec<u32>,
    /// `depth(A)` per non-terminal.
    pub depths: Vec<u32>,
    /// `r[a].get(i, j) = R_A[i, j]`, each matrix bit-packed into two
    /// bitplanes (see [`RMatrix`]).
    pub r: Vec<RMatrix>,
    /// For leaf non-terminals: `leaf_tables[a][i·q + j] = M_{T_x}[i, j]` as a
    /// `⪯`-sorted, duplicate-free list.
    pub leaf_tables: Vec<Option<Vec<Vec<PartialMarkerSet>>>>,
    /// The per-shard composition plan of a scatter-gather build
    /// ([`Preprocessed::build_sharded`]); empty for monolithic builds.
    pub shards: Vec<ShardInfo>,
    /// Answers derived from the matrices on first use; no build fills them.
    memo: PairMemo,
}

/// Pure functions of a pair's matrices, filled by the first request that
/// needs them and shared by every later one: the result count
/// ([`crate::count`]) and the unmarked-reachability rows of the spine-walk
/// model check ([`crate::model_check`]).  Always equal, so two
/// [`Preprocessed`] compare by their matrices alone.
#[derive(Debug, Default)]
pub(crate) struct PairMemo {
    /// `|⟦M⟧(D)|`.
    pub(crate) count: OnceLock<u128>,
    /// `U_A[i, j] = (∅ ∈ M_A[i, j])`, row `i` of non-terminal `A` at word
    /// offset `(A·q + i)·⌈q/64⌉`.
    pub(crate) unmarked: OnceLock<Vec<u64>>,
}

impl PartialEq for PairMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for PairMemo {}

/// `P_i = {(ℓ, Y) : ℓ --Y--> i with Y a marker set}` for every state `i`
/// (Lemma 6.5 proof).
fn incoming_marker_arcs<T: Terminal>(
    nfa: &Nfa<MarkedSymbol<T>>,
    q: usize,
) -> Vec<Vec<(usize, MarkerSet)>> {
    let mut incoming: Vec<Vec<(usize, MarkerSet)>> = vec![Vec::new(); q];
    for (p, label, t) in nfa.arcs() {
        if let Label::Symbol(MarkedSymbol::Markers(m)) = label {
            incoming[t].push((p, m));
        }
    }
    incoming
}

/// Builds the full leaf table `M_{T_x}` and its three-valued summary for the
/// leaf non-terminal deriving terminal `x`.
fn leaf_table<T: Terminal>(
    nfa: &Nfa<MarkedSymbol<T>>,
    incoming_markers: &[Vec<(usize, MarkerSet)>],
    q: usize,
    x: T,
) -> (Vec<Vec<PartialMarkerSet>>, RMatrix) {
    let mut table: Vec<Vec<PartialMarkerSet>> = vec![Vec::new(); q * q];
    for (p, label, t) in nfa.arcs() {
        if label == Label::Symbol(MarkedSymbol::Terminal(x)) {
            // The unmarked reading  p --x--> t.
            table[p * q + t].push(PartialMarkerSet::empty());
            // Marked readings  ℓ --Y--> p --x--> t.
            for &(l, y) in &incoming_markers[p] {
                table[l * q + t].push(PartialMarkerSet::at_position_one(y));
            }
        }
    }
    let mut summary = RMatrix::bot(q);
    for (idx, cell) in table.iter_mut().enumerate() {
        cell.sort();
        cell.dedup();
        let entry = if cell.is_empty() {
            REntry::Bot
        } else if cell.len() == 1 && cell[0].is_empty() {
            REntry::Empty
        } else {
            REntry::NonEmpty
        };
        summary.set(idx / q, idx % q, entry);
    }
    (table, summary)
}

/// One standalone rule block's full matrix pass (Lemma 6.5): leaf tables,
/// then the inner `R_A` summaries one depth stratum at a time, each
/// stratum's entries mapped across cores.  A depth-d rule's children are
/// shallower, so each stratum reads only strata already done; the maximum
/// depth is taken over every rule, since rules unreachable from the start
/// may be deeper than `S₀`.  [`Preprocessed::build`] runs it over the whole
/// grammar; [`crate::executor::LocalExecutor`], the worker and the gather's
/// fallback over one shard block.  Returns the `R` rows and leaf tables.
#[allow(clippy::type_complexity)]
pub(crate) fn block_pass<T: Terminal>(
    nfa: &Nfa<MarkedSymbol<T>>,
    block: &NormalFormSlp<T>,
) -> (Vec<RMatrix>, Vec<Option<Vec<Vec<PartialMarkerSet>>>>) {
    let q = nfa.num_states();
    let n = block.num_non_terminals();
    let order = block.bottom_up_order();
    let incoming_markers = incoming_marker_arcs(nfa, q);
    let mut r: Vec<RMatrix> = vec![RMatrix::bot(0); n];
    let mut leaf_tables: Vec<Option<Vec<Vec<PartialMarkerSet>>>> = vec![None; n];

    // Leaf tables M_{T_x}: independent per leaf non-terminal.
    let leaves: Vec<(NonTerminal, T)> = order
        .iter()
        .filter_map(|&a| match block.rule(a) {
            NfRule::Leaf(x) => Some((a, x)),
            NfRule::Pair(..) => None,
        })
        .collect();
    let built = rayon::par_map(&leaves, |&(_, x)| leaf_table(nfa, &incoming_markers, q, x));
    for ((a, _), (table, summary)) in leaves.into_iter().zip(built) {
        leaf_tables[a.index()] = Some(table);
        r[a.index()] = summary;
    }

    // Inner R summaries, one depth stratum at a time.
    let max_depth = order.iter().map(|&a| block.depth_of(a)).max().unwrap_or(0) as usize;
    let mut strata: Vec<Vec<NonTerminal>> = vec![Vec::new(); max_depth + 1];
    for &a in order {
        if matches!(block.rule(a), NfRule::Pair(..)) {
            strata[block.depth_of(a) as usize].push(a);
        }
    }
    for stratum in strata.iter().filter(|s| !s.is_empty()) {
        let computed = rayon::par_map(stratum, |&a| {
            let (b, c) = block.children(a).expect("stratum members are inner rules");
            RMatrix::product(&r[b.index()], &r[c.index()])
        });
        for (&a, summary) in stratum.iter().zip(computed) {
            r[a.index()] = summary;
        }
    }

    (r, leaf_tables)
}

impl Preprocessed {
    /// Runs the preprocessing of Lemma 6.5 in time `O(|M| + size(S)·q³)`:
    /// `block_pass` over the whole grammar, data-parallel over its depth
    /// strata.  The result is identical to [`Preprocessed::build_serial`].
    pub fn build<T: Terminal>(
        nfa: &Nfa<MarkedSymbol<T>>,
        slp: &NormalFormSlp<T>,
        num_vars: usize,
    ) -> Self {
        let (r, leaf_tables) = block_pass(nfa, slp);
        Self::assemble(nfa, slp, num_vars, r, leaf_tables)
    }

    /// Single-threaded preprocessing, the oracle the tests compare
    /// [`Preprocessed::build`] and the sharded build against (identical
    /// output).
    pub fn build_serial<T: Terminal>(
        nfa: &Nfa<MarkedSymbol<T>>,
        slp: &NormalFormSlp<T>,
        num_vars: usize,
    ) -> Self {
        let q = nfa.num_states();
        let n = slp.num_non_terminals();
        let incoming_markers = incoming_marker_arcs(nfa, q);

        // Leaf tables M_{T_x} and their R summaries.
        let mut leaf_tables: Vec<Option<Vec<Vec<PartialMarkerSet>>>> = vec![None; n];
        let mut r: Vec<RMatrix> = vec![RMatrix::bot(0); n];
        for &a in slp.bottom_up_order() {
            if let NfRule::Leaf(x) = slp.rule(a) {
                let (table, summary) = leaf_table(nfa, &incoming_markers, q, x);
                leaf_tables[a.index()] = Some(table);
                r[a.index()] = summary;
            }
        }

        // R for inner non-terminals, bottom-up (Lemma 6.5 proof).
        for &a in slp.bottom_up_order() {
            if let NfRule::Pair(b, c) = slp.rule(a) {
                r[a.index()] = RMatrix::product(&r[b.index()], &r[c.index()]);
            }
        }

        Self::assemble(nfa, slp, num_vars, r, leaf_tables)
    }

    /// Scatter-gather preprocessing over a sharded grammar (see
    /// [`slp::shard`]): every shard's rule block is a self-contained
    /// sub-grammar, so its pass runs independently as a [`ShardJob`] on
    /// `executor` (standalone rebased rules — never the document text), the
    /// jobs run concurrently, and only the composition spine (shard
    /// concatenation plus the end-of-document sentinel) is merged at the
    /// root by three-valued matrix products.  Leaf `M_{T_x}` tables an
    /// executor did not return are rebuilt locally from the automaton.
    ///
    /// Every executor that honours the [`ShardExecutor`] contract yields
    /// matrices identical to [`Preprocessed::build_serial`]; only
    /// [`Preprocessed::shards`] records the composition plan.  The returned
    /// [`ShardBuildStats`] report the per-shard and merge wall-clock.  With
    /// a sampled `trace`, executors record per-shard spans in the request
    /// timebase and [`ShardBuildStats::spans`] also covers the root merge;
    /// `None` is the untraced build.
    pub fn build_sharded(
        nfa: &Nfa<MarkedSymbol<EByte>>,
        slp: &NormalFormSlp<EByte>,
        num_vars: usize,
        layout: &ShardLayout,
        executor: &dyn ShardExecutor,
        trace: Option<ShardTrace>,
    ) -> (Self, ShardBuildStats) {
        let q = nfa.num_states();
        let n = slp.num_non_terminals();
        let incoming_markers = incoming_marker_arcs(nfa, q);

        // Which shard (if any) owns each rule: rules outside every block
        // form the composition spine merged at the root below.
        let mut owned: Vec<bool> = vec![false; n];
        for range in &layout.ranges {
            for i in range.clone() {
                owned[i] = true;
            }
        }

        // Cross-shard grammar sharing: standalone blocks that are
        // structurally identical (equal rules and start — common under
        // power families and repeated documents cut into equal shards)
        // run once; the duplicates reuse the canonical outcome.  The
        // content hash is only a grouping key: candidates are compared in
        // full before sharing, so a collision costs nothing but the
        // comparison.
        let blocks = layout.standalone_blocks(slp.rules());
        let mut canonical: Vec<usize> = Vec::with_capacity(blocks.len());
        let mut by_hash: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, block) in blocks.iter().enumerate() {
            let reps = by_hash.entry(block.content_hash()).or_default();
            match reps.iter().copied().find(|&j| blocks[j] == *block) {
                Some(j) => canonical.push(j),
                None => {
                    reps.push(i);
                    canonical.push(i);
                }
            }
        }
        let unique: Vec<usize> = (0..blocks.len()).filter(|&i| canonical[i] == i).collect();
        let deduped = blocks.len() - unique.len();

        // Scatter: one self-contained job per *unique* shard block, fanned
        // out concurrently over the executor (for remote executors that
        // means wire calls to several workers in flight).
        let jobs: Vec<ShardJob<'_>> = unique
            .iter()
            .map(|&shard_index| ShardJob {
                nfa,
                block: &blocks[shard_index],
                shard_index,
                trace,
            })
            .collect();
        let unique_outcomes = rayon::par_map(&jobs, |job| executor.execute(job));

        // Fan the unique outcomes back out to shard order.  Duplicates
        // clone the canonical rows at zero recorded cost but inherit its
        // fallback flag (the pass they share really did fall back);
        // iterating in reverse lets the canonical shard — always the
        // earliest of its group — take the outcome by value.
        let pos_of: HashMap<usize, usize> =
            unique.iter().enumerate().map(|(p, &i)| (i, p)).collect();
        let mut pending: Vec<Option<ShardOutcome>> =
            unique_outcomes.into_iter().map(Some).collect();
        let mut slots: Vec<Option<ShardOutcome>> = vec![None; blocks.len()];
        for i in (0..blocks.len()).rev() {
            let pos = pos_of[&canonical[i]];
            slots[i] = Some(if canonical[i] == i {
                pending[pos].take().expect("canonical outcome taken once")
            } else {
                let o = pending[pos]
                    .as_ref()
                    .expect("duplicates resolve before canonical");
                ShardOutcome {
                    rows: o.rows.clone(),
                    leaf_tables: o.leaf_tables.clone(),
                    elapsed: Duration::ZERO,
                    fallback: o.fallback,
                    hedged: false,
                    spans: Vec::new(),
                }
            });
        }
        let outcomes: Vec<ShardOutcome> = slots.into_iter().map(Option::unwrap).collect();

        // Gather: stitch the per-shard summary rows (and leaf tables,
        // rebuilt from the automaton where the executor did not supply
        // them) into the global tables.
        let mut leaf_tables: Vec<Option<Vec<Vec<PartialMarkerSet>>>> = vec![None; n];
        let mut r: Vec<RMatrix> = vec![RMatrix::bot(0); n];
        let mut shard_build = Vec::with_capacity(outcomes.len());
        let mut fallbacks = 0usize;
        let mut hedges = 0usize;
        let mut spans: Vec<SpanRec> = Vec::new();
        for ((range, block), mut outcome) in layout.ranges.iter().zip(&blocks).zip(outcomes) {
            // Each fragment's parent indices are local to it: re-base them
            // so every worker `shard_pass` stays under its own `shard_rpc`.
            trace::graft(&mut spans, &outcome.spans, None, 0);
            // An outcome that breaks the executor contract (wrong row
            // count, wrong dimension, short leaf tables) is redone by the
            // local pass and counted as a fallback: a misbehaving backend
            // costs time, never the process or the answer.
            let malformed = outcome.rows.len() != range.len()
                || outcome.rows.iter().any(|row| row.q() != q)
                || outcome
                    .leaf_tables
                    .as_ref()
                    .is_some_and(|t| t.len() != range.len());
            if malformed {
                let (rows, tables) = block_pass(nfa, block);
                outcome.rows = rows;
                outcome.leaf_tables = Some(tables);
                outcome.fallback = true;
            }
            let tables = outcome.leaf_tables.unwrap_or_else(|| {
                block
                    .rules()
                    .iter()
                    .map(|rule| match rule {
                        NfRule::Leaf(x) => Some(leaf_table(nfa, &incoming_markers, q, *x).0),
                        NfRule::Pair(..) => None,
                    })
                    .collect()
            });
            for (offset, (row, table)) in outcome.rows.into_iter().zip(tables).enumerate() {
                r[range.start + offset] = row;
                leaf_tables[range.start + offset] = table;
            }
            shard_build.push(outcome.elapsed);
            fallbacks += usize::from(outcome.fallback);
            hedges += usize::from(outcome.hedged);
        }

        // Merge: the composition spine (and any rules outside every shard
        // block, e.g. the end-of-document sentinel) bottom-up at the root.
        // The spine's children are shard roots, so this pass consumes only
        // the shards' q×q root summaries.
        let merge_start = Instant::now();
        for &a in slp.bottom_up_order() {
            if owned[a.index()] {
                continue;
            }
            match slp.rule(a) {
                NfRule::Leaf(x) => {
                    let (table, summary) = leaf_table(nfa, &incoming_markers, q, x);
                    leaf_tables[a.index()] = Some(table);
                    r[a.index()] = summary;
                }
                NfRule::Pair(b, c) => {
                    r[a.index()] = RMatrix::product(&r[b.index()], &r[c.index()]);
                }
            }
        }
        let merge = merge_start.elapsed();
        if let Some(trace) = trace.filter(|t| t.ctx.sampled) {
            spans.push(SpanRec {
                name: "gather_products".to_string(),
                start_us: trace.offset_us(merge_start),
                dur_us: merge.as_micros() as u64,
                parent: None,
                attrs: vec![("shards".to_string(), layout.ranges.len().to_string())],
            });
        }

        let mut pre = Self::assemble(nfa, slp, num_vars, r, leaf_tables);
        pre.shards = layout
            .ranges
            .iter()
            .zip(&layout.roots)
            .map(|(range, &root)| ShardInfo {
                first: range.start as u32,
                last: range.end as u32,
                root,
            })
            .collect();
        (
            pre,
            ShardBuildStats {
                shard_build,
                merge,
                fallbacks,
                hedges,
                deduped,
                spans,
            },
        )
    }

    /// Packs the computed matrices together with the grammar metadata the
    /// evaluation phases need.
    fn assemble<T: Terminal>(
        nfa: &Nfa<MarkedSymbol<T>>,
        slp: &NormalFormSlp<T>,
        num_vars: usize,
        r: Vec<RMatrix>,
        leaf_tables: Vec<Option<Vec<Vec<PartialMarkerSet>>>>,
    ) -> Self {
        let q = nfa.num_states();
        let n = slp.num_non_terminals();
        let children: Vec<Option<(u32, u32)>> = (0..n)
            .map(|a| match slp.rule(NonTerminal(a as u32)) {
                NfRule::Leaf(_) => None,
                NfRule::Pair(b, c) => Some((b.0, c.0)),
            })
            .collect();
        let lengths: Vec<u64> = (0..n)
            .map(|a| slp.derived_len(NonTerminal(a as u32)))
            .collect();
        let depths: Vec<u32> = (0..n)
            .map(|a| slp.depth_of(NonTerminal(a as u32)))
            .collect();

        Preprocessed {
            q,
            nfa_start: nfa.start(),
            nfa_accepting: nfa.accepting_states(),
            num_vars,
            start_nt: slp.start().0,
            children,
            lengths,
            bottom_up: slp.bottom_up_order().iter().map(|a| a.0).collect(),
            depths,
            r,
            leaf_tables,
            shards: Vec::new(),
            memo: PairMemo::default(),
        }
    }

    /// `R_A[i, j]`.
    #[inline]
    pub fn r_entry(&self, a: u32, i: usize, j: usize) -> REntry {
        self.r[a as usize].get(i, j)
    }

    /// `M_{T_x}[i, j]` for a leaf non-terminal, as a sorted list.
    #[inline]
    pub fn leaf_set(&self, a: u32, i: usize, j: usize) -> &[PartialMarkerSet] {
        self.leaf_tables[a as usize]
            .as_ref()
            .expect("leaf_set is only called for leaf non-terminals")[i * self.q + j]
            .as_slice()
    }

    /// The lazily filled per-pair memos.
    pub(crate) fn memo(&self) -> &PairMemo {
        &self.memo
    }

    /// Size in bytes of the unmarked-reachability rows once filled: one
    /// `⌈q/64⌉`-word row per state per non-terminal.
    pub(crate) fn unmarked_rows_bytes(&self) -> usize {
        self.children.len() * self.q * self.q.div_ceil(64) * std::mem::size_of::<u64>()
    }

    /// `true` if `a` is a leaf non-terminal.
    #[inline]
    pub fn is_leaf(&self, a: u32) -> bool {
        self.children[a as usize].is_none()
    }

    /// `I_A[i, j] = {k : R_B[i,k] ≠ ⊥ ∧ R_C[k,j] ≠ ⊥}` for an inner
    /// non-terminal `A → BC` (Definition 6.4), computed on the fly in `O(q)`.
    pub fn i_set(&self, a: u32, i: usize, j: usize) -> Vec<usize> {
        let (b, c) = self.children[a as usize].expect("i_set needs an inner non-terminal");
        let (rb, rc) = (&self.r[b as usize], &self.r[c as usize]);
        (0..self.q)
            .filter(|&k| rb.is_nonbot(i, k) && rc.is_nonbot(k, j))
            .collect()
    }

    /// Approximate resident size of the preprocessed matrices in bytes:
    /// the struct itself plus every owned buffer (the bit-packed `R_A`
    /// bitplanes including their row padding words, the leaf tables down
    /// to each partial marker set's entry list, and the grammar metadata
    /// vectors).  The per-pair memos are charged at their full size whether
    /// or not a request has filled them yet, so a cache entry's weight
    /// never changes while it is resident.
    ///
    /// This is the admission weight used by the engine's byte-budgeted
    /// matrix caches.  It is an estimate of the heap footprint (allocator
    /// slack is not modelled), but it is exact in the units that matter for
    /// relative sizing: `O(size(S)·q²)` matrix entries dominate, and those
    /// are counted precisely.
    pub fn approx_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut total = size_of::<Self>();
        total += self.nfa_accepting.capacity() * size_of::<usize>();
        total += self.children.capacity() * size_of::<Option<(u32, u32)>>();
        total += self.lengths.capacity() * size_of::<u64>();
        total += self.bottom_up.capacity() * size_of::<u32>();
        total += self.depths.capacity() * size_of::<u32>();
        total += self.r.capacity() * size_of::<RMatrix>();
        for matrix in &self.r {
            // Both bitplanes, padding words included.
            total += matrix.heap_bytes();
        }
        total += self.leaf_tables.capacity() * size_of::<Option<Vec<Vec<PartialMarkerSet>>>>();
        for table in self.leaf_tables.iter().flatten() {
            total += table.capacity() * size_of::<Vec<PartialMarkerSet>>();
            for cell in table {
                total += cell.capacity() * size_of::<PartialMarkerSet>();
                for set in cell {
                    total += set.heap_bytes();
                }
            }
        }
        // The per-shard composition buffers of a scatter-gather build: they
        // live as long as the matrices, so the (global) budget accounting
        // must charge for them too.
        total += self.shards.capacity() * size_of::<ShardInfo>();
        // The count memo lives inline in the struct; the unmarked rows are
        // one flat buffer of fixed size.
        total += self.unmarked_rows_bytes();
        total
    }

    /// The accepting states reachable from the start state on the whole
    /// document, `F' = {j ∈ F : R_{S₀}[q₀, j] ≠ ⊥}` (Theorem 7.1 / 8.10).
    pub fn reachable_accepting(&self) -> Vec<usize> {
        self.nfa_accepting
            .iter()
            .copied()
            .filter(|&j| self.r_entry(self.start_nt, self.nfa_start, j) != REntry::Bot)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::LocalExecutor;
    use crate::prepared::PreparedEvaluation;
    use slp::examples::{example_4_2, names_4_2};
    use spanner::examples::figure_2_spanner;

    fn prep() -> PreparedEvaluation {
        PreparedEvaluation::new(&figure_2_spanner(), &example_4_2()).unwrap()
    }

    #[test]
    fn leaf_tables_match_the_figure_4_yields() {
        // In the paper's notation (states 1..6 here are 0..5):
        // yield(Tc⟨1▷5,1⟩) = {{(⊿y,1)}} and yield(Ta⟨5▷6,1⟩) = {{(◁y,1)}}.
        let p = prep();
        let pre = &p.pre;
        // T_c is the leaf for 'c' in the *ended* SLP; find it via names_4_2
        // (indices are preserved by map_terminals / append_terminal).
        let tc = names_4_2::TC.0;
        let ta = names_4_2::TA.0;
        let set = pre.leaf_set(tc, 0, 4);
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].len(), 1);
        assert_eq!(set[0].max_position(), 1);
        let set = pre.leaf_set(ta, 4, 5);
        assert_eq!(set.len(), 1);
        assert_eq!(set[0].len(), 1);
        // Unmarked self-loop readings give the {∅} entry.
        let set = pre.leaf_set(tc, 4, 4);
        assert_eq!(set.len(), 1);
        assert!(set[0].is_empty());
        assert_eq!(pre.r_entry(tc, 4, 4), REntry::Empty);
        assert_eq!(pre.r_entry(tc, 0, 4), REntry::NonEmpty);
        // No way to read 'c' from state 2 (paper state 3).
        assert_eq!(pre.r_entry(tc, 2, 2), REntry::Bot);
    }

    #[test]
    fn inner_r_entries_follow_the_example() {
        let p = prep();
        let pre = &p.pre;
        // R_C[1,1] = ℮ in the paper (aab read from state 1 to state 1 with
        // no markers possible): paper state 1 is id 0.
        assert_eq!(pre.r_entry(names_4_2::C.0, 0, 0), REntry::Empty);
        // R_A[1,5] = 1 (the ⊿y cc reading exists): ids (0, 4).
        assert_eq!(pre.r_entry(names_4_2::A.0, 0, 4), REntry::NonEmpty);
        // I_A[1,5] contains the intermediate state 1 (id 0): D(C)=aab read
        // 0→0, D(D)=cc read 0→4.
        assert!(pre.i_set(names_4_2::A.0, 0, 4).contains(&0));
    }

    #[test]
    fn reachable_accepting_is_nonempty_for_the_example() {
        let p = prep();
        // The end-transformed automaton has a single accepting state which
        // must be reachable on D# (the example has results).
        assert_eq!(p.pre.reachable_accepting().len(), 1);
    }

    #[test]
    fn build_handles_unreachable_rules_deeper_than_the_start() {
        // Rule 3 (depth 4) is unreachable from the start symbol (rule 1,
        // depth 2) but passes SLP validation; the stratum buckets must be
        // sized by the global maximum depth, not depth(S₀).
        use slp::{NfRule, NonTerminal, NormalFormSlp};
        let slp = NormalFormSlp::new(
            vec![
                NfRule::Leaf(b'a'),
                NfRule::Pair(NonTerminal(0), NonTerminal(0)),
                NfRule::Pair(NonTerminal(1), NonTerminal(1)),
                NfRule::Pair(NonTerminal(2), NonTerminal(2)),
            ],
            NonTerminal(1),
        )
        .unwrap();
        let m = figure_2_spanner();
        let prep = PreparedEvaluation::new(&m, &slp).unwrap();
        assert_eq!(prep.slp().document_len(), 3); // "aa" + sentinel
        let serial = Preprocessed::build_serial(prep.nfa(), prep.slp(), prep.num_vars());
        assert_eq!(*prep.pre, serial);
    }

    #[test]
    fn approx_bytes_scales_with_grammar_size() {
        use slp::families;
        use spanner::regex;
        let m = regex::compile(".*x{ab}.*", b"ab").unwrap();
        let small = crate::engine::PreparedDocument::new(&families::power_word(b"ab", 1 << 4));
        let large = crate::engine::PreparedDocument::new(&families::power_word(b"ab", 1 << 12));
        let q = crate::engine::PreparedQuery::determinized(&m);
        let small_pre = Preprocessed::build(q.nfa(), small.ended(), q.num_vars());
        let large_pre = Preprocessed::build(q.nfa(), large.ended(), q.num_vars());
        let (sb, lb) = (small_pre.approx_bytes(), large_pre.approx_bytes());
        // Any honest accounting covers at least the packed R bitplanes:
        // two planes of q rows of ceil(q/64) words each, per rule.
        let q = small_pre.q;
        let plane_bytes = q * q.div_ceil(64) * std::mem::size_of::<u64>();
        assert!(sb >= small_pre.r.len() * 2 * plane_bytes);
        // (ab)^2^12 has ~8 more grammar rules than (ab)^2^4; the matrices
        // grow with size(S) accordingly.
        assert!(lb > sb, "{lb} vs {sb}");
    }

    #[test]
    fn build_sharded_matches_serial_on_composed_grammars() {
        use crate::engine::{PreparedDocument, PreparedQuery};
        use crate::prepared::EByte;
        use slp::{families, shard};
        use spanner::regex;
        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        for doc in [
            slp::examples::example_4_2(),
            families::power_word(b"ab", 200),
        ] {
            for k in [2usize, 4, 8] {
                let sharded = shard::split(&doc, k);
                let (combined, layout) = sharded.compose();
                let ended = combined
                    .map_terminals(EByte::Byte)
                    .append_terminal(EByte::End);
                let (via_shards, stats) = Preprocessed::build_sharded(
                    query.nfa(),
                    &ended,
                    query.num_vars(),
                    &layout,
                    &LocalExecutor,
                    None,
                );
                let serial = Preprocessed::build_serial(query.nfa(), &ended, query.num_vars());
                // Identical matrices; only the composition plan differs.
                assert_eq!(via_shards.r, serial.r, "k={k}");
                assert_eq!(via_shards.leaf_tables, serial.leaf_tables, "k={k}");
                assert_eq!(via_shards.shards.len(), sharded.k(), "k={k}");
                assert_eq!(stats.k(), sharded.k());
                assert!(stats.critical_path() <= stats.total());
                // And the sharded evaluation agrees with the monolithic one.
                let monolithic = PreparedDocument::new(&doc);
                let mono_pre =
                    Preprocessed::build(query.nfa(), monolithic.ended(), query.num_vars());
                assert_eq!(
                    via_shards.reachable_accepting(),
                    mono_pre.reachable_accepting()
                );
            }
        }
    }

    #[test]
    fn approx_bytes_charges_for_the_composition_plan() {
        use crate::engine::PreparedQuery;
        use crate::prepared::EByte;
        use slp::{families, shard};
        use spanner::regex;
        let m = regex::compile(".*x{ab}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        let doc = families::power_word(b"ab", 128);
        let sharded = shard::split(&doc, 4);
        let (combined, layout) = sharded.compose();
        let ended = combined
            .map_terminals(EByte::Byte)
            .append_terminal(EByte::End);
        let (pre, _) = Preprocessed::build_sharded(
            query.nfa(),
            &ended,
            query.num_vars(),
            &layout,
            &LocalExecutor,
            None,
        );
        let with_plan = pre.approx_bytes();
        let plan_bytes = pre.shards.capacity() * std::mem::size_of::<ShardInfo>();
        assert!(plan_bytes > 0);
        // Stripping the plan must reduce the reported footprint by exactly
        // the buffer the plan occupies: the accounting is honest.
        let mut stripped = pre;
        stripped.shards = Vec::new();
        assert_eq!(stripped.approx_bytes(), with_plan - plan_bytes);
    }

    #[test]
    fn gather_redoes_a_malformed_shard_outcome_locally() {
        use crate::count::count_from_matrices;
        use crate::engine::{PreparedDocument, PreparedQuery};
        use crate::executor::{ShardExecutor, ShardJob, ShardOutcome};
        use slp::compress::{Bisection, Compressor};
        use slp::shard;
        use spanner::regex;

        /// Breaks the contract on shard 1: one summary row short.
        #[derive(Debug)]
        struct DropsARow;
        impl ShardExecutor for DropsARow {
            fn execute(&self, job: &ShardJob<'_>) -> ShardOutcome {
                let mut outcome = LocalExecutor.execute(job);
                if job.shard_index == 1 {
                    outcome.rows.pop();
                    outcome.leaf_tables = None;
                }
                outcome
            }
        }

        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        let doc = Bisection.compress(b"abbabaaabbbabbaabababbbaaabbabab");
        let (combined, layout) = shard::split(&doc, 4).compose();
        let ended = combined
            .map_terminals(EByte::Byte)
            .append_terminal(EByte::End);
        let (via_shards, stats) = Preprocessed::build_sharded(
            query.nfa(),
            &ended,
            query.num_vars(),
            &layout,
            &DropsARow,
            None,
        );
        assert_eq!(stats.deduped, 0, "every shard block is distinct");
        assert_eq!(stats.fallbacks, 1);
        let serial = Preprocessed::build_serial(query.nfa(), &ended, query.num_vars());
        assert_eq!(via_shards.r, serial.r);
        assert_eq!(via_shards.leaf_tables, serial.leaf_tables);
        let monolithic = PreparedDocument::new(&doc).matrices(&query);
        assert_eq!(
            count_from_matrices(&via_shards),
            count_from_matrices(&monolithic)
        );
    }
}

//! Pluggable shard execution: the [`ShardExecutor`] abstraction behind
//! [`Preprocessed::build_sharded`](crate::matrices::Preprocessed::build_sharded).
//!
//! A sharded matrix build (see [`slp::shard`] and `DESIGN.md` §2.2/§4) is a
//! scatter-gather computation: every shard of the document is a
//! *self-contained* sub-grammar whose Lemma 6.5 pass depends on nothing but
//! the shard's own rule block and the prepared query automaton, and the
//! root merge consumes only the shards' `q×q` root summaries.  That makes
//! the per-shard pass a perfect unit of *remote* execution — and this
//! module cuts the build path at exactly that seam:
//!
//! * a [`ShardJob`] is one shard's work order: the standalone rule block
//!   (rebased to local indices, produced by
//!   [`slp::ShardLayout::standalone_block`]) plus the query's
//!   end-transformed automaton — never the surrounding document;
//! * a [`ShardOutcome`] is what the scatter phase hands back: the block's
//!   three-valued summary rows `R_A` (the root summary is `rows[root]`),
//!   optionally the leaf `M_{T_x}` tables (recomputed locally from the
//!   automaton when absent, so they never need to cross a process
//!   boundary), the pass's wall-clock, and whether the executor had to
//!   fall back;
//! * a [`ShardExecutor`] turns jobs into outcomes.  [`LocalExecutor`] is
//!   the default in-process backend (the one depth-strata pass that
//!   [`Preprocessed::build`](crate::matrices::Preprocessed::build) runs
//!   over the whole grammar); `spanner-server`'s
//!   `RemoteExecutor` ships jobs to worker processes over the wire
//!   protocol and falls back to [`LocalExecutor`] when a worker fails, so
//!   results are never lost.
//!
//! The contract every executor must honour: the returned `rows` must be
//! exactly what [`LocalExecutor`] would produce for the same job (the
//! summaries are deterministic pure functions of the block and the
//! automaton), and `rows.len()` must equal the block's rule count.  The
//! gather phase validates the shape of every outcome and reruns a
//! malformed one in-process, counting it in
//! [`ShardBuildStats::fallbacks`](crate::matrices::ShardBuildStats::fallbacks),
//! rather than assembling corrupt matrices.

use crate::matrices::{block_pass, RMatrix};
use crate::prepared::EByte;
use crate::trace::{ShardTrace, SpanRec};
use slp::NormalFormSlp;
use spanner::{MarkedSymbol, PartialMarkerSet};
use spanner_automata::nfa::Nfa;
use std::fmt;
use std::time::{Duration, Instant};

/// One shard's work order: a self-contained rule block plus the prepared
/// query.  Everything a worker needs — and nothing else: the document text
/// and the other shards never cross the executor boundary.
#[derive(Debug, Clone, Copy)]
pub struct ShardJob<'a> {
    /// The query's end-transformed, ε-free automaton (shared by every
    /// shard of one build).  Together with the block this determines the
    /// pass completely — span variables, for instance, are already baked
    /// into the automaton's marker arcs.
    pub nfa: &'a Nfa<MarkedSymbol<EByte>>,
    /// The shard's standalone sub-grammar: rules rebased to `0..len`, the
    /// start symbol deriving exactly the shard's text.
    pub block: &'a NormalFormSlp<EByte>,
    /// Position of this shard in the document's shard order (for logs and
    /// per-shard bookkeeping).
    pub shard_index: usize,
    /// Trace handle of the sampled request this job belongs to, `None` on
    /// the unsampled hot path.  The embedded epoch is the *request's*, so
    /// an in-process executor records spans directly in the request
    /// timebase; remote executors propagate `ctx` on the wire instead and
    /// re-base the worker's fragment at the gather.
    pub trace: Option<ShardTrace>,
}

/// What one shard pass produced.
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The block's three-valued summaries, one bit-packed `q×q`
    /// [`RMatrix`] per block rule in local index order.
    /// `rows[block.start()]` is the shard's root summary — the only row
    /// the gather phase's spine merge reads.
    pub rows: Vec<RMatrix>,
    /// The block's full leaf tables `M_{T_x}` (local index order), if the
    /// executor computed them in-process.  `None` means "recompute from
    /// the automaton at the gather" — leaf tables depend only on the query
    /// automaton and the leaf's terminal, so remote executors never ship
    /// them.
    pub leaf_tables: Option<Vec<Option<Vec<Vec<PartialMarkerSet>>>>>,
    /// Wall-clock of the pass as observed by the executor (for remote
    /// backends: the full round-trip, which is what the critical path of a
    /// distributed build actually pays).
    pub elapsed: Duration,
    /// `true` if a non-local executor failed and this outcome came from
    /// the local fallback.
    pub fallback: bool,
    /// `true` if the executor re-issued the pass to a second backend after
    /// a latency budget expired (a *hedged* pass) — regardless of which
    /// copy won.  Purely observational: hedged outcomes carry the same
    /// entry-identical rows as unhedged ones.
    pub hedged: bool,
    /// Span fragment recorded by the executor when the job carried a
    /// [`ShardTrace`] — already in the request timebase (empty, and
    /// allocation-free, on the unsampled path).
    pub spans: Vec<SpanRec>,
}

/// A backend that runs one shard's matrix pass.  Implementations must be
/// shareable across threads: a sharded build scatters its jobs
/// concurrently, and a [`Service`](crate::service::Service) holds one
/// executor for every document it serves.
///
/// See the module docs for the output contract.
pub trait ShardExecutor: fmt::Debug + Send + Sync {
    /// Runs the Lemma 6.5 pass over one shard block.
    fn execute(&self, job: &ShardJob<'_>) -> ShardOutcome;

    /// A short human-readable backend name (for logs and experiments).
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

/// The in-process backend: leaf tables plus the depth-strata `R_A` wave
/// schedule over the block, exactly the pass a monolithic
/// [`Preprocessed::build`](crate::matrices::Preprocessed::build) runs —
/// entry-identical output, and still the default for every service.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalExecutor;

impl ShardExecutor for LocalExecutor {
    fn execute(&self, job: &ShardJob<'_>) -> ShardOutcome {
        let start = Instant::now();
        let (rows, leaf_tables) = block_pass(job.nfa, job.block);
        let elapsed = start.elapsed();
        let spans = match &job.trace {
            Some(trace) if trace.ctx.sampled => vec![SpanRec {
                name: "shard_pass".to_string(),
                start_us: trace.offset_us(start),
                dur_us: elapsed.as_micros() as u64,
                parent: None,
                attrs: vec![
                    ("shard".to_string(), job.shard_index.to_string()),
                    (
                        "rules".to_string(),
                        job.block.num_non_terminals().to_string(),
                    ),
                ],
            }],
            _ => Vec::new(),
        };
        ShardOutcome {
            rows,
            leaf_tables: Some(leaf_tables),
            elapsed,
            fallback: false,
            hedged: false,
            spans,
        }
    }

    fn name(&self) -> &'static str {
        "local"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PreparedQuery;
    use crate::matrices::Preprocessed;
    use slp::{families, shard};
    use spanner::regex;
    use std::sync::Arc;

    #[test]
    fn local_executor_matches_the_serial_pass_per_block() {
        let m = regex::compile(".*x{a+}y{b+}.*", b"ab").unwrap();
        let query = PreparedQuery::determinized(&m);
        let doc = families::power_word(b"ab", 200);
        let (combined, layout) = shard::split(&doc, 4).compose();
        let ended = combined
            .map_terminals(EByte::Byte)
            .append_terminal(EByte::End);
        for (i, block) in layout.standalone_blocks(ended.rules()).iter().enumerate() {
            let job = ShardJob {
                nfa: query.nfa(),
                block,
                shard_index: i,
                trace: None,
            };
            let outcome = LocalExecutor.execute(&job);
            assert_eq!(outcome.rows.len(), block.num_non_terminals());
            assert!(!outcome.fallback);
            // The block is a grammar of its own; a full serial build over it
            // must agree row-for-row with the executor's pass.
            let serial = Preprocessed::build_serial(query.nfa(), block, query.num_vars());
            assert_eq!(outcome.rows, serial.r, "shard {i}");
            assert_eq!(
                outcome.leaf_tables.as_deref().unwrap(),
                &serial.leaf_tables[..],
                "shard {i}"
            );
        }
    }

    #[test]
    fn executors_are_object_safe_and_shareable() {
        let executor: Arc<dyn ShardExecutor> = Arc::new(LocalExecutor);
        assert_eq!(executor.name(), "local");
        let clone = executor.clone();
        std::thread::spawn(move || clone.name()).join().unwrap();
    }
}

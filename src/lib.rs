//! # slp-spanner — regular spanner evaluation over SLP-compressed documents
//!
//! A Rust implementation of the PODS 2021 paper *"Spanner Evaluation over
//! SLP-Compressed Documents"* by Markus L. Schmid and Nicole Schweikardt,
//! together with every substrate it depends on: straight-line programs and
//! grammar compressors, finite automata over spanner alphabets, the document
//! spanner formalism, the classical uncompressed baselines and a benchmark
//! suite.  See `README.md` for a tour and `DESIGN.md` for the system
//! inventory and experiment index.
//!
//! This facade crate re-exports the individual workspace crates under short
//! names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`slp`] | `slp` | SLPs, compressors, balancing, random access |
//! | [`automata`] | `spanner-automata` | NFA/DFA, determinisation, compressed membership |
//! | [`spanner`] | `spanner` | spans, markers, marked words, variable regexes |
//! | [`eval`] | `spanner-slp-core` | the paper's algorithms (Theorems 5.1, 7.1, 8.10) |
//! | [`baseline`] | `spanner-baseline` | decompress-and-solve product-DAG evaluation |
//! | [`workloads`] | `spanner-workloads` | document and query generators |
//!
//! ## Quickstart
//!
//! ```
//! use slp_spanner::prelude::*;
//!
//! // A log file of a million identical-looking lines, compressed to a few
//! // hundred grammar rules.
//! let line = b"level=info path=/health status=200\n";
//! let doc = slp_spanner::slp::families::power_word(line, 1_000_000);
//! assert!(doc.size() < 500);
//!
//! // A spanner that extracts the status code of each line.
//! let query = compile_query(".*status=x{[0-9]+}\n.*", line).unwrap();
//!
//! // Evaluate directly on the compressed document.
//! let spanner = SlpSpanner::new(&query, &doc).unwrap();
//! assert!(spanner.is_non_empty());
//! let first = spanner.enumerate().next().unwrap();
//! let x = query.variables().get("x").unwrap();
//! assert_eq!(first.get(x).unwrap().len(), 3);
//! ```
//!
//! ## Serving many queries over many documents
//!
//! The [`Service`](eval::service::Service) pools prepared queries and
//! documents, answers task-oriented requests from any number of threads
//! (`run`/`run_batch` take `&self`), reports per-request cache statistics,
//! and keeps the preprocessed matrices under a configurable byte budget:
//!
//! ```
//! use slp_spanner::prelude::*;
//!
//! let service = Service::builder().cache_budget(64 << 20).build();
//! let q = service.add_query(&compile_query(".*x{ab}.*", b"ab").unwrap());
//! let d = service.add_document(&slp_spanner::slp::families::power_word(b"ab", 1_000_000));
//! let response = service
//!     .run(&TaskRequest { query: q, doc: d, task: Task::Count })
//!     .unwrap();
//! assert_eq!(response.outcome.as_count(), Some(1_000_000));
//! assert!(!response.stats.cache_hit); // first touch built the matrices
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use slp;
pub use spanner;
pub use spanner_automata as automata;
pub use spanner_baseline as baseline;
pub use spanner_slp_core as eval;
pub use spanner_workloads as workloads;

/// The most common imports for application code.
pub mod prelude {
    pub use crate::eval::{
        compute::compute_all, count::count_results, enumerate::Enumerator, model_check,
        nonemptiness, DocumentId, EvalError, PreparedDocument, PreparedQuery, QueryId,
        RequestStats, Service, ServiceBuilder, ServiceStats, SlpSpanner, Task, TaskOutcome,
        TaskRequest, TaskResponse,
    };
    pub use crate::slp::{
        compress::{Bisection, Compressor, RePair},
        NormalFormSlp, ShardedDocument, SlpStats,
    };
    pub use crate::spanner::{
        regex::compile_deterministic as compile_query, Span, SpanTuple, SpannerAutomaton, Variable,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_exposes_the_main_types() {
        let doc = RePair::default().compress(b"abcabcabc");
        let query = compile_query(".*x{abc}.*", b"abc").unwrap();
        let spanner = SlpSpanner::new(&query, &doc).unwrap();
        assert_eq!(spanner.count(), 3);
        let stats = SlpStats::of(&doc);
        assert_eq!(stats.document_len, 9);
    }
}

//! # spanner-bench — shared harness for the experiment suite
//!
//! Workload construction and measurement helpers for the `experiments`
//! report binary, which regenerates every table of EXPERIMENTS.md, and for
//! the delay and equivalence tests.  The experiment ids are defined in
//! DESIGN.md §7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use slp::compress::{Compressor, RePair};
use slp::{families, NormalFormSlp};
use spanner_automata::nfa::Nfa;
use spanner_workloads::documents;
use std::time::{Duration, Instant};

/// A named compressed document used as a benchmark case.
pub struct DocCase {
    /// Human-readable case name (used as the table id).
    pub name: String,
    /// The compressed document.
    pub slp: NormalFormSlp<u8>,
}

impl DocCase {
    /// Document length `d`.
    pub fn doc_len(&self) -> u64 {
        self.slp.document_len()
    }

    /// SLP size `size(S)`.
    pub fn slp_size(&self) -> usize {
        self.slp.size()
    }
}

/// The unary family `a^(2^n)` — the paper's own example of exponential
/// compression (SLP size `O(n)`).
pub fn unary_family(exponents: &[u32]) -> Vec<DocCase> {
    exponents
        .iter()
        .map(|&n| DocCase {
            name: format!("a^2^{n}"),
            slp: families::power_of_two_unary(b'a', n),
        })
        .collect()
}

/// The `(ab)^k` family: every `ab` occurrence is one result of the
/// `ab_blocks` query, so the result count equals `k`.
pub fn ab_family(ks: &[u64]) -> Vec<DocCase> {
    ks.iter()
        .map(|&k| DocCase {
            name: format!("(ab)^{k}"),
            slp: families::power_word(b"ab", k),
        })
        .collect()
}

/// Synthetic server logs of growing size, compressed with batched Re-Pair.
pub fn log_family(line_counts: &[usize]) -> Vec<DocCase> {
    line_counts
        .iter()
        .map(|&lines| {
            let doc = documents::repetitive_log(&documents::LogOptions {
                lines,
                templates: 8,
                seed: 42,
            });
            DocCase {
                name: format!("log-{lines}"),
                slp: RePair::default().compress(&doc),
            }
        })
        .collect()
}

/// Documents of fixed length with a repetitiveness sweep (experiment E6);
/// returns `(novelty, explicit document, its Re-Pair SLP)` triples.
pub fn repetitiveness_family(
    length: usize,
    novelties: &[f64],
) -> Vec<(f64, Vec<u8>, NormalFormSlp<u8>)> {
    novelties
        .iter()
        .map(|&novelty| {
            let doc = documents::tunable_repetitiveness(length, 32, novelty, 7);
            let slp = RePair::default().compress(&doc);
            (novelty, doc, slp)
        })
        .collect()
}

/// A pseudo-random ε-free NFA over the byte alphabet `{a, b}` with `q`
/// states (used by the membership substrate experiment E7).
pub fn random_byte_nfa(q: usize, seed: u64) -> Nfa<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nfa = Nfa::with_states(q);
    for p in 0..q {
        for &c in b"ab" {
            // Between one and three successors per (state, symbol).
            let succs = 1 + (rng.gen_range(0..3usize));
            for _ in 0..succs {
                nfa.add_transition(p, c, rng.gen_range(0..q));
            }
        }
    }
    nfa.set_accepting(q - 1, true);
    nfa
}

/// Fewest timed runs per [`time`] measurement, however slow each run is.
const MIN_SAMPLES: usize = 3;
/// Most timed runs per [`time`] measurement.
const MAX_SAMPLES: usize = 15;
/// Timed runs stop at `MIN_SAMPLES` once they have used this much time.
const SAMPLE_BUDGET: Duration = Duration::from_millis(100);

/// Wall-clock timing of a closure: one untimed warm-up run (allocator,
/// caches, lazily built tables), then the median of 3 to 15 timed runs, as
/// many as fit in 100 ms.  Returns the median and the last run's result;
/// results are dropped outside the timed window.
pub fn time<R>(mut f: impl FnMut() -> R) -> (Duration, R) {
    let mut last = f();
    let mut samples = Vec::with_capacity(MAX_SAMPLES);
    let budget = Instant::now();
    while samples.len() < MIN_SAMPLES
        || (samples.len() < MAX_SAMPLES && budget.elapsed() < SAMPLE_BUDGET)
    {
        let start = Instant::now();
        let r = f();
        samples.push(start.elapsed());
        last = r;
    }
    samples.sort_unstable();
    (samples[samples.len() / 2], last)
}

/// Delay statistics of an enumeration: time-to-first result, maximum and
/// mean delay between consecutive results, and the number of results drawn.
#[derive(Debug, Clone, Copy)]
pub struct DelayStats {
    /// Time from starting the iterator to the first result.
    pub first: Duration,
    /// Maximum delay between two consecutive results.
    pub max_delay: Duration,
    /// Mean delay between two consecutive results.
    pub mean_delay: Duration,
    /// Number of results drawn.
    pub results: usize,
}

/// Draws up to `limit` results from an iterator and records the delays.
pub fn measure_delays<I: Iterator>(mut iter: I, limit: usize) -> DelayStats {
    let mut last = Instant::now();
    let start = last;
    let mut first = Duration::ZERO;
    let mut max_delay = Duration::ZERO;
    let mut total = Duration::ZERO;
    let mut results = 0usize;
    while results < limit {
        match iter.next() {
            None => break,
            Some(_) => {
                let now = Instant::now();
                let delta = now - last;
                last = now;
                if results == 0 {
                    first = now - start;
                } else {
                    max_delay = max_delay.max(delta);
                    total += delta;
                }
                results += 1;
            }
        }
    }
    DelayStats {
        first,
        max_delay,
        mean_delay: if results > 1 {
            total / (results as u32 - 1)
        } else {
            Duration::ZERO
        },
        results,
    }
}

/// Formats a duration in microseconds with three decimals (table output).
pub fn us(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e6)
}

/// Prints a markdown table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_have_expected_sizes() {
        let unary = unary_family(&[4, 8]);
        assert_eq!(unary[0].doc_len(), 16);
        assert_eq!(unary[1].doc_len(), 256);
        assert!(unary[1].slp_size() < 40);
        let ab = ab_family(&[3, 10]);
        assert_eq!(ab[0].doc_len(), 6);
        assert_eq!(ab[1].doc_len(), 20);
        let logs = log_family(&[10]);
        assert!(logs[0].doc_len() > 100);
    }

    #[test]
    fn repetitiveness_sweep_produces_decreasing_compressibility() {
        let sweep = repetitiveness_family(4096, &[0.0, 1.0]);
        assert!(sweep[0].2.size() < sweep[1].2.size());
        assert_eq!(sweep[0].1.len(), 4096);
    }

    #[test]
    fn random_nfa_is_reproducible() {
        let a = random_byte_nfa(8, 1);
        let b = random_byte_nfa(8, 1);
        assert_eq!(a.num_transitions(), b.num_transitions());
        assert_eq!(a.num_states(), 8);
    }

    #[test]
    fn time_warms_up_then_takes_the_median_of_at_least_three_runs() {
        let mut runs = 0;
        let (_, last) = time(|| {
            runs += 1;
            runs
        });
        assert_eq!(last, runs, "the last run's result is returned");
        assert!(
            runs > MIN_SAMPLES,
            "a warm-up plus {MIN_SAMPLES} timed runs"
        );
        assert!(runs <= MAX_SAMPLES + 1);
    }

    #[test]
    fn delay_measurement_counts_results() {
        let stats = measure_delays(0..100, 10);
        assert_eq!(stats.results, 10);
        let stats = measure_delays(0..3, 10);
        assert_eq!(stats.results, 3);
    }
}

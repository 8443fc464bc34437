//! Zero-dependency request tracing and latency histograms.
//!
//! Every layer of the serving stack (admission → matrix cache → sharded
//! scatter-gather → task execution) can attribute its share of a request's
//! wall-clock here:
//!
//! * A [`TraceContext`] names one request (`trace_id`) and says whether it
//!   is **sampled**.  Unsampled requests pay *nothing* on this module —
//!   the only per-request observability cost on the hot path is a
//!   histogram bucket increment ([`Hist::observe`], one atomic add, no
//!   allocation).
//! * A [`Tracer`] collects [`SpanRec`]s for one sampled request: flat
//!   records (name, start offset µs from the request epoch, duration µs,
//!   parent index, small `key=value` attributes) forming a forest — the
//!   natural shape of a request that does several top-level things
//!   (admission, cache lookup, task execution).
//! * Span *fragments* recorded elsewhere (a shard executor, a remote
//!   worker answering over the wire in its own timebase) are stitched into
//!   a trace with [`graft`]: parent indices are remapped, fragment roots
//!   are re-parented, and start offsets are re-based.
//! * [`Hist`] is a log2-bucketed latency histogram (32 power-of-two
//!   buckets over microseconds) with lock-free `observe` and mergeable
//!   [`HistSnapshot`]s that estimate percentiles — the metrics surface for
//!   the *unsampled* majority of traffic.
//!
//! The module is `std`-only by design: traces cross the wire protocol and
//! must not pull serialization dependencies into the core crate.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identity and sampling decision of one request's trace, propagated
/// end-to-end (client → coordinator → workers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Caller-chosen request identity (`0` is reserved for "no trace" on
    /// the wire, so samplers never assign it).
    pub trace_id: u64,
    /// Whether spans are recorded for this request.  Carrying an unsampled
    /// context is legal and free: recorders check this flag first.
    pub sampled: bool,
}

/// One recorded span: a named interval of a request, with its parent (an
/// index into the owning trace's span vector; `None` for a root of the
/// forest) and small `key=value` attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    /// What the interval was spent on (`"cache_lookup"`, `"shard_rpc"`…).
    pub name: String,
    /// Start offset in microseconds from the trace's epoch (for worker
    /// fragments: from the *worker's* receipt of the job, until grafted).
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Index of the parent span in the same vector; `None` for roots.
    pub parent: Option<u32>,
    /// Small key=value attributes (`worker=127.0.0.1:7879`, `hit=true`…).
    pub attrs: Vec<(String, String)>,
}

impl SpanRec {
    /// End offset in microseconds.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

/// What a sampled request hands down into the shard build path: the
/// context plus the request's epoch, so per-shard executors record spans
/// directly in the request's timebase.
#[derive(Debug, Clone, Copy)]
pub struct ShardTrace {
    /// The request's trace context.
    pub ctx: TraceContext,
    /// The request's epoch: span start offsets are measured from here.
    pub epoch: Instant,
}

impl ShardTrace {
    /// Microseconds elapsed from the epoch to `at` (saturating — an
    /// executor clock can never observe a negative offset).
    pub fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }
}

/// Collects the spans of one sampled request.  Recording is `&self` (the
/// span vector sits behind a mutex) so parallel build phases can append
/// concurrently; the hot path never constructs one of these.
#[derive(Debug)]
pub struct Tracer {
    ctx: TraceContext,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

impl Tracer {
    /// A tracer whose epoch is "now".
    pub fn new(ctx: TraceContext) -> Tracer {
        Tracer::with_epoch(ctx, Instant::now())
    }

    /// A tracer measuring offsets from an explicit epoch (e.g. the instant
    /// a server read the request frame, so admission wait is visible).
    pub fn with_epoch(ctx: TraceContext, epoch: Instant) -> Tracer {
        Tracer {
            ctx,
            epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The trace's context.
    pub fn ctx(&self) -> TraceContext {
        self.ctx
    }

    /// Microseconds elapsed since the trace epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The handle shard builds carry down to executors.
    pub fn shard_trace(&self) -> ShardTrace {
        ShardTrace {
            ctx: self.ctx,
            epoch: self.epoch,
        }
    }

    /// Records one span and returns its index (usable as a parent).
    pub fn record(
        &self,
        name: &str,
        start_us: u64,
        dur_us: u64,
        parent: Option<u32>,
        attrs: &[(&str, String)],
    ) -> u32 {
        let mut spans = self.spans.lock().expect("trace span lock poisoned");
        spans.push(SpanRec {
            name: name.to_string(),
            start_us,
            dur_us,
            parent,
            attrs: attrs
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        (spans.len() - 1) as u32
    }

    /// Stitches a recorded fragment under `parent` (see [`graft`]).
    pub fn graft(&self, fragment: &[SpanRec], parent: Option<u32>, base_us: u64) {
        let mut spans = self.spans.lock().expect("trace span lock poisoned");
        graft(&mut spans, fragment, parent, base_us);
    }

    /// Consumes the tracer, yielding the span forest.
    pub fn finish(self) -> Vec<SpanRec> {
        self.spans.into_inner().expect("trace span lock poisoned")
    }
}

/// Appends `fragment` to `into`, remapping the fragment's internal parent
/// indices, re-parenting its roots to `parent`, and shifting every start
/// offset by `base_us` (0 when the fragment already shares the target's
/// timebase; a worker fragment is re-based by the coordinator's issue
/// offset, which charges the network to the enclosing RPC span).
pub fn graft(into: &mut Vec<SpanRec>, fragment: &[SpanRec], parent: Option<u32>, base_us: u64) {
    let offset = into.len() as u32;
    for span in fragment {
        into.push(SpanRec {
            name: span.name.clone(),
            start_us: span.start_us + base_us,
            dur_us: span.dur_us,
            parent: span.parent.map(|p| p + offset).or(parent),
            attrs: span.attrs.clone(),
        });
    }
}

// ---------------------------------------------------------------------------
// Server-side probabilistic sampling
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: a cheap, high-quality 64-bit mixing function.
/// Used wherever the stack needs deterministic pseudo-randomness without a
/// seeded RNG dependency (trace sampling, retry jitter).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A server-side probabilistic trace sampler: arms tracing for a fraction
/// of requests that did not opt in themselves, so histograms and span
/// trees fill without cooperative clients.
///
/// The decision is deterministic — SplitMix64 over an atomic request
/// counter compared against `rate · 2⁶⁴` — which makes tests exact and
/// keeps the hot path to one relaxed `fetch_add` plus a few arithmetic
/// ops.  Sampled requests get a fresh non-zero trace id (0 is the wire's
/// "no trace" sentinel).  Slow-log capture is a separate, *always-on*
/// policy: the server traces every request whenever `--slow-log-ms` is
/// set, regardless of this sampler.
#[derive(Debug)]
pub struct Sampler {
    /// Sample request `n` iff `splitmix64(n) < threshold`.
    threshold: u64,
    counter: AtomicU64,
}

impl Sampler {
    /// A sampler keeping roughly `rate` of requests (clamped to `0.0..=1.0`;
    /// `0.0` never samples, `1.0` always does).
    pub fn new(rate: f64) -> Sampler {
        let rate = if rate.is_finite() {
            rate.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // `as` saturates: rate 1.0 maps to u64::MAX, i.e. "always".
        let threshold = (rate * (u64::MAX as f64)) as u64;
        Sampler {
            threshold,
            counter: AtomicU64::new(0),
        }
    }

    /// Whether this sampler can ever fire (rate > 0) — callers use this to
    /// skip per-request work when sampling is off.
    pub fn enabled(&self) -> bool {
        self.threshold != 0
    }

    /// The sampling decision for the next request: `Some(trace_id)` to arm
    /// tracing (the id is non-zero and deterministic in the request
    /// ordinal), `None` to stay on the free path.
    pub fn sample(&self) -> Option<u64> {
        if self.threshold == 0 {
            return None;
        }
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        if splitmix64(n) >= self.threshold {
            return None;
        }
        // A second, independent mix spreads ids even when every request is
        // sampled; 0 is reserved on the wire, so remap it.
        Some(splitmix64(!n).max(1))
    }
}

// ---------------------------------------------------------------------------
// Log2-bucketed latency histograms
// ---------------------------------------------------------------------------

/// Number of power-of-two buckets: bucket `i` counts observations
/// `≤ 2^i µs`, and the last bucket absorbs everything above (≈ 36 minutes —
/// effectively `+Inf` for a request latency).
pub const HIST_BUCKETS: usize = 32;

/// The bucket an observation of `us` microseconds lands in: the smallest
/// `i` with `us ≤ 2^i`, clamped to the last bucket.
pub fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        ((64 - (us - 1).leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Upper edge of bucket `i` in microseconds (`2^i`); the label a
/// Prometheus `le` rendering uses.
pub fn bucket_le(i: usize) -> u64 {
    1u64 << i
}

/// A lock-free log2 latency histogram: observation is one relaxed atomic
/// add per counter — no locks, no allocation — so it is safe to sit on the
/// unsampled hot path.
#[derive(Debug, Default)]
pub struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Hist {
    /// A fresh, empty histogram.
    pub fn new() -> Hist {
        Hist::default()
    }

    /// Records one observation of `us` microseconds.
    pub fn observe(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
    }

    /// A point-in-time copy (relaxed reads: totals may trail concurrent
    /// observers by a few counts, never tear a single counter).
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// An owned histogram state: what scrapes render and what percentile
/// estimation runs on.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistSnapshot {
    /// Per-bucket (non-cumulative) observation counts; shorter vectors are
    /// implicitly zero-padded to [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values in microseconds.
    pub sum: u64,
}

impl HistSnapshot {
    /// Count in bucket `i` (0 beyond the stored prefix).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Folds another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &c) in other.buckets.iter().enumerate() {
            self.buckets[i] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Drops trailing zero buckets — a compact form that changes no
    /// statistic (bucket lookups zero-pad).
    pub fn trimmed(mut self) -> HistSnapshot {
        while self.buckets.last() == Some(&0) {
            self.buckets.pop();
        }
        self
    }

    /// Cumulative counts (`cum[i]` = observations `≤ 2^i µs`), always
    /// [`HIST_BUCKETS`] entries, with `cum[last] == count`.
    pub fn cumulative(&self) -> Vec<u64> {
        let mut cum = Vec::with_capacity(HIST_BUCKETS);
        let mut acc = 0u64;
        for i in 0..HIST_BUCKETS {
            acc += self.bucket(i);
            cum.push(acc);
        }
        cum
    }

    /// Upper-bound percentile estimate: the upper edge (µs) of the first
    /// bucket whose cumulative count reaches `p·count`.  Every recorded
    /// observation at that rank was `≤` the returned value (the bucket
    /// width — at most 2× — is the estimation error).  Returns 0 on an
    /// empty histogram.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for i in 0..HIST_BUCKETS {
            acc += self.bucket(i);
            if acc >= rank {
                return bucket_le(i);
            }
        }
        bucket_le(HIST_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let mut last = 0usize;
        for us in [0u64, 1, 2, 3, 4, 5, 8, 9, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(us);
            assert!(i >= last, "bucket index must be monotone in the value");
            assert!(i < HIST_BUCKETS);
            // The value really is ≤ the bucket's upper edge (except in the
            // clamped last bucket).
            if i < HIST_BUCKETS - 1 {
                assert!(us <= bucket_le(i), "us={us} exceeds le={}", bucket_le(i));
                if i > 0 {
                    assert!(us > bucket_le(i - 1), "us={us} fits the bucket below");
                }
            }
            last = i;
        }
    }

    #[test]
    fn cumulative_buckets_are_monotone_and_end_at_count() {
        let h = Hist::new();
        for us in [0u64, 1, 1, 3, 100, 5_000, 5_000, 70_000, 1 << 25] {
            h.observe(us);
        }
        let snap = h.snapshot();
        let cum = snap.cumulative();
        assert_eq!(cum.len(), HIST_BUCKETS);
        for w in cum.windows(2) {
            assert!(w[0] <= w[1], "cumulative counts must be non-decreasing");
        }
        assert_eq!(*cum.last().unwrap(), snap.count);
        assert_eq!(snap.count, 9);
        assert_eq!(
            snap.sum,
            1 + 1 + 3 + 100 + 5_000 + 5_000 + 70_000 + (1 << 25)
        );
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Hist::new();
        let b = Hist::new();
        let (xs, ys) = ([1u64, 50, 3_000], [2u64, 50, 1 << 22, 7]);
        for &x in &xs {
            a.observe(x);
        }
        for &y in &ys {
            b.observe(y);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());

        let all = Hist::new();
        for v in xs.iter().chain(ys.iter()) {
            all.observe(*v);
        }
        let expect = all.snapshot();
        assert_eq!(merged.count, expect.count);
        assert_eq!(merged.sum, expect.sum);
        for i in 0..HIST_BUCKETS {
            assert_eq!(merged.bucket(i), expect.bucket(i), "bucket {i}");
        }
    }

    /// Percentile property: for a deterministic pseudo-random sample, the
    /// histogram's estimate is an upper bound on the true percentile and
    /// within one bucket (≤ 2×, and never below the bucket's lower edge).
    #[test]
    fn percentile_estimates_bound_the_true_rank_statistic() {
        let mut seed = 0x1234_5678_9ABC_DEF0u64;
        let mut sample = Vec::new();
        let h = Hist::new();
        for _ in 0..10_000 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let v = seed % 1_000_000;
            sample.push(v);
            h.observe(v);
        }
        sample.sort_unstable();
        let snap = h.snapshot();
        for p in [0.5, 0.95, 0.99] {
            let rank = (((sample.len() as f64) * p).ceil() as usize).clamp(1, sample.len());
            let truth = sample[rank - 1];
            let est = snap.percentile(p);
            assert!(
                est >= truth,
                "p{p}: estimate {est} below true value {truth}"
            );
            // The estimate is the upper edge of the bucket holding the true
            // value, so it overshoots by less than the bucket width.
            assert!(
                est <= bucket_le(bucket_index(truth)),
                "p{p}: estimate {est} beyond the true value's bucket"
            );
        }
        assert_eq!(
            snap.percentile(1.0),
            bucket_le(bucket_index(*sample.last().unwrap())).max(snap.percentile(1.0))
        );
    }

    #[test]
    fn empty_histogram_percentile_is_zero() {
        assert_eq!(HistSnapshot::default().percentile(0.99), 0);
    }

    #[test]
    fn trimming_drops_only_trailing_zeros_and_changes_no_statistic() {
        let h = Hist::new();
        for us in [1u64, 5, 5, 900] {
            h.observe(us);
        }
        let full = h.snapshot();
        let trimmed = full.clone().trimmed();
        assert!(trimmed.buckets.len() < HIST_BUCKETS);
        assert_ne!(trimmed.buckets.last(), Some(&0));
        assert_eq!(trimmed.count, full.count);
        assert_eq!(trimmed.sum, full.sum);
        for i in 0..HIST_BUCKETS {
            assert_eq!(trimmed.bucket(i), full.bucket(i), "bucket {i}");
        }
        for p in [0.5, 0.95, 0.99] {
            assert_eq!(trimmed.percentile(p), full.percentile(p));
        }
        // Idempotent, and the empty histogram trims to no buckets at all.
        assert_eq!(trimmed.clone().trimmed(), trimmed);
        assert!(Hist::new().snapshot().trimmed().buckets.is_empty());
    }

    #[test]
    fn sampler_rates_are_exact_at_the_extremes() {
        let never = Sampler::new(0.0);
        assert!(!never.enabled());
        assert!((0..1000).all(|_| never.sample().is_none()));

        let always = Sampler::new(1.0);
        assert!(always.enabled());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            let id = always.sample().expect("rate 1.0 samples everything");
            assert_ne!(id, 0, "0 is the wire's no-trace sentinel");
            assert!(seen.insert(id), "ids must not repeat");
        }
        // Out-of-range and non-finite rates degrade safely.
        assert!(Sampler::new(7.5).sample().is_some());
        assert!(Sampler::new(-1.0).sample().is_none());
        assert!(Sampler::new(f64::NAN).sample().is_none());
    }

    #[test]
    fn sampler_keeps_roughly_the_requested_fraction() {
        for rate in [0.1, 0.5, 0.9] {
            let sampler = Sampler::new(rate);
            let kept = (0..20_000).filter(|_| sampler.sample().is_some()).count();
            let got = kept as f64 / 20_000.0;
            assert!(
                (got - rate).abs() < 0.02,
                "rate {rate}: kept fraction {got}"
            );
        }
        // Deterministic: two samplers at the same rate make identical
        // decisions in the same order.
        let (a, b) = (Sampler::new(0.3), Sampler::new(0.3));
        for _ in 0..1000 {
            assert_eq!(a.sample(), b.sample());
        }
    }

    #[test]
    fn tracer_records_and_parents_spans() {
        let tracer = Tracer::new(TraceContext {
            trace_id: 7,
            sampled: true,
        });
        let root = tracer.record("cache_lookup", 0, 120, None, &[("hit", "false".into())]);
        tracer.record("matrix_build", 10, 100, Some(root), &[]);
        let spans = tracer.finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "cache_lookup");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[0].attrs,
            vec![("hit".to_string(), "false".to_string())]
        );
    }

    /// Grafting a worker fragment: internal parents are remapped by the
    /// insertion offset, fragment roots adopt the target parent, and every
    /// start offset shifts by the re-base.
    #[test]
    fn graft_remaps_parents_and_rebases_offsets() {
        let mut trace = vec![SpanRec {
            name: "shard_rpc".into(),
            start_us: 500,
            dur_us: 900,
            parent: None,
            attrs: Vec::new(),
        }];
        let fragment = vec![
            SpanRec {
                name: "worker_build".into(),
                start_us: 0,
                dur_us: 800,
                parent: None,
                attrs: Vec::new(),
            },
            SpanRec {
                name: "shard_pass".into(),
                start_us: 100,
                dur_us: 650,
                parent: Some(0),
                attrs: Vec::new(),
            },
        ];
        graft(&mut trace, &fragment, Some(0), 500);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[1].name, "worker_build");
        assert_eq!(
            trace[1].parent,
            Some(0),
            "fragment root re-parents to the RPC span"
        );
        assert_eq!(
            trace[1].start_us, 500,
            "fragment re-bases to the issue offset"
        );
        assert_eq!(trace[2].parent, Some(1), "fragment-internal parent remaps");
        assert_eq!(trace[2].start_us, 600);
    }
}

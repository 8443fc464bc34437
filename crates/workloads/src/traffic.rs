//! Traffic generation for the serving experiments (E16, E17), perfbench and
//! smoke tests: deterministic open- and closed-loop request schedules over a
//! pool of registered queries and documents.
//!
//! A schedule is transport-agnostic: it names *which* pooled query and
//! document to hit and *what kind* of task to run, leaving the mapping to
//! concrete `TaskRequest`s or wire frames to the driver (the experiments
//! bin, the integration tests, the `spanner-client` scripts).  That keeps
//! this crate free of the evaluation-core dependency and lets one schedule
//! drive both the in-process service and the network server, so their
//! numbers are comparable.
//!
//! * **Closed loop** ([`closed_loop_schedule`]): each client thread works
//!   through its operations back-to-back — offered load adapts to service
//!   speed; the measurement of interest is per-request latency under a
//!   given concurrency.
//! * **Open loop** ([`open_loop_arrivals`]): operations arrive at
//!   exponentially distributed intervals regardless of completion —
//!   offered load is fixed; the measurement of interest is queueing and
//!   backpressure (`busy` rates) around saturation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One request kind, weighted inside a [`Mix`].  Mirrors the service's
/// task suite without depending on it (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Boolean non-emptiness probe.
    NonEmptiness,
    /// Model-check some known-good tuple (the driver picks which).
    ModelCheck,
    /// Count the full relation.
    Count,
    /// Materialise up to `limit` tuples (`None` = all).
    Compute {
        /// Result-count cap forwarded to the request.
        limit: Option<u64>,
    },
    /// Stream an enumeration window.
    Enumerate {
        /// Results to skip.
        skip: u64,
        /// Window size (`None` = all remaining).
        limit: Option<u64>,
    },
}

/// One scheduled operation: which pooled pair to hit and what to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Index of the query in the driver's pool.
    pub query: usize,
    /// Index of the document in the driver's pool.
    pub doc: usize,
    /// What to run on the pair.
    pub kind: OpKind,
}

/// A weighted request mix.
#[derive(Debug, Clone)]
pub struct Mix {
    /// `(kind, weight)` pairs; weights are relative, not normalised.
    entries: Vec<(OpKind, u32)>,
}

impl Mix {
    /// Builds a mix from `(kind, weight)` pairs (zero-weight entries are
    /// dropped; at least one positive weight is required).
    pub fn new(entries: impl IntoIterator<Item = (OpKind, u32)>) -> Mix {
        let entries: Vec<(OpKind, u32)> = entries.into_iter().filter(|(_, w)| *w > 0).collect();
        assert!(
            !entries.is_empty(),
            "a mix needs at least one positive weight"
        );
        Mix { entries }
    }

    /// The mixed-priority QoS mix (E17): mostly latency-sensitive model
    /// checks with a steady minority of large enumeration scans — the
    /// regime in which a FIFO pipeline lets one scan head-of-line-block a
    /// crowd of point lookups, and weighted-fair scheduling should not.
    pub fn mixed_priority() -> Mix {
        Mix::new([
            (OpKind::ModelCheck, 70),
            (
                OpKind::Enumerate {
                    skip: 0,
                    limit: None,
                },
                30,
            ),
        ])
    }

    fn sample(&self, rng: &mut StdRng) -> OpKind {
        let total: u32 = self.entries.iter().map(|(_, w)| w).sum();
        let mut ticket = rng.gen_range(0..total);
        for (kind, weight) in &self.entries {
            if ticket < *weight {
                return *kind;
            }
            ticket -= weight;
        }
        unreachable!("ticket drawn below the total weight")
    }
}

/// Builds a deterministic closed-loop schedule: `ops` operations drawn
/// from `mix` over a pool of `num_queries × num_docs` pairs, uniformly at
/// random.  Equal seeds give equal schedules, so concurrent runs and
/// reruns are comparable.
pub fn closed_loop_schedule(
    num_queries: usize,
    num_docs: usize,
    mix: &Mix,
    ops: usize,
    seed: u64,
) -> Vec<Op> {
    assert!(num_queries > 0 && num_docs > 0, "empty pool");
    let mut rng = StdRng::seed_from_u64(seed);
    (0..ops)
        .map(|_| Op {
            query: rng.gen_range(0..num_queries),
            doc: rng.gen_range(0..num_docs),
            kind: mix.sample(&mut rng),
        })
        .collect()
}

/// Builds the arrival offsets of an open-loop run: `ops` exponentially
/// distributed inter-arrival gaps with the given mean (in microseconds),
/// accumulated into monotone offsets from the run start.  Pair it with a
/// [`closed_loop_schedule`] of the same length to know *what* arrives
/// *when*.
pub fn open_loop_arrivals(ops: usize, mean_gap_us: u64, seed: u64) -> Vec<u64> {
    assert!(mean_gap_us > 0, "zero mean gap");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5_5A5A_DEAD_BEEF);
    let mut at = 0u64;
    (0..ops)
        .map(|_| {
            // Inverse-CDF sampling: gap = -mean · ln(u), u uniform in (0,1].
            let u = (rng.gen_range(1..=1u64 << 53) as f64) / (1u64 << 53) as f64;
            let gap = (-(u.ln()) * mean_gap_us as f64).round() as u64;
            at = at.saturating_add(gap);
            at
        })
        .collect()
}

/// One tenant's slice of a multi-tenant run: its share of the offered
/// load, its request mix, and the size of its private document pool.
/// Like [`Op`], everything is an index — the driver owns the mapping to
/// real tenant ids and pooled documents.
#[derive(Debug, Clone)]
pub struct TenantProfile {
    /// Relative traffic weight (how much of the schedule this tenant
    /// sends); zero-weight tenants send nothing.
    pub weight: u32,
    /// The tenant's request mix.
    pub mix: Mix,
    /// Number of documents in the tenant's private namespace.
    pub num_docs: usize,
}

/// One scheduled multi-tenant operation: which tenant sends it, and what
/// it is.  `op.doc` indexes the *tenant's own* document pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantOp {
    /// Index of the sending tenant in the driver's profile list.
    pub tenant: usize,
    /// The operation inside that tenant's namespace.
    pub op: Op,
}

/// Builds a deterministic multi-tenant closed-loop schedule: `ops`
/// operations, each first assigned to a tenant by weighted draw, then
/// drawn from that tenant's own mix and document pool.  The interleaving
/// is what exercises tenant isolation: a heavy tenant's scans land between
/// a light tenant's point lookups, so fairness failures (cache evictions,
/// admission starvation) show up in the light tenant's numbers.
pub fn multi_tenant_schedule(
    num_queries: usize,
    profiles: &[TenantProfile],
    ops: usize,
    seed: u64,
) -> Vec<TenantOp> {
    assert!(num_queries > 0, "empty query pool");
    let total: u32 = profiles.iter().map(|p| p.weight).sum();
    assert!(total > 0, "at least one tenant needs a positive weight");
    let mut rng = StdRng::seed_from_u64(seed ^ 0x007E_4A97 /* tenant lane */);
    (0..ops)
        .map(|_| {
            let mut ticket = rng.gen_range(0..total);
            let tenant = profiles
                .iter()
                .position(|p| {
                    if ticket < p.weight {
                        true
                    } else {
                        ticket -= p.weight;
                        false
                    }
                })
                .expect("ticket drawn below the total weight");
            let profile = &profiles[tenant];
            assert!(profile.num_docs > 0, "tenant {tenant} has an empty pool");
            TenantOp {
                tenant,
                op: Op {
                    query: rng.gen_range(0..num_queries),
                    doc: rng.gen_range(0..profile.num_docs),
                    kind: profile.mix.sample(&mut rng),
                },
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_deterministic_per_seed() {
        let mix = Mix::new([
            (OpKind::NonEmptiness, 40),
            (OpKind::Count, 30),
            (OpKind::ModelCheck, 15),
            (
                OpKind::Enumerate {
                    skip: 0,
                    limit: Some(10),
                },
                15,
            ),
        ]);
        let a = closed_loop_schedule(3, 4, &mix, 500, 42);
        let b = closed_loop_schedule(3, 4, &mix, 500, 42);
        assert_eq!(a, b);
        let c = closed_loop_schedule(3, 4, &mix, 500, 43);
        assert_ne!(a, c, "different seeds give different schedules");
        assert!(a.iter().all(|op| op.query < 3 && op.doc < 4));
    }

    #[test]
    fn mixes_respect_their_weights_roughly() {
        let mix = Mix::new([(OpKind::Count, 3), (OpKind::NonEmptiness, 1)]);
        let schedule = closed_loop_schedule(1, 1, &mix, 4000, 7);
        let counts = schedule
            .iter()
            .filter(|op| op.kind == OpKind::Count)
            .count();
        // 3:1 weighting → ~3000 of 4000; allow generous slack.
        assert!((2600..3400).contains(&counts), "got {counts}");
    }

    #[test]
    fn open_loop_arrivals_are_monotone_with_sane_mean() {
        let arrivals = open_loop_arrivals(2000, 100, 11);
        assert!(arrivals.windows(2).all(|w| w[0] <= w[1]));
        let last = *arrivals.last().unwrap();
        // 2000 gaps of mean 100µs ≈ 200ms total; expect the right order of
        // magnitude.
        assert!((100_000..400_000).contains(&last), "total {last}µs");
    }

    #[test]
    #[should_panic(expected = "at least one positive weight")]
    fn empty_mixes_are_rejected() {
        Mix::new([(OpKind::Count, 0)]);
    }

    #[test]
    fn multi_tenant_schedules_respect_weights_and_pools() {
        let profiles = [
            TenantProfile {
                weight: 3,
                mix: Mix::new([
                    (OpKind::Compute { limit: Some(256) }, 40),
                    (
                        OpKind::Enumerate {
                            skip: 0,
                            limit: Some(128),
                        },
                        40,
                    ),
                    (OpKind::Count, 20),
                ]),
                num_docs: 5,
            },
            TenantProfile {
                weight: 1,
                mix: Mix::new([
                    (OpKind::NonEmptiness, 40),
                    (OpKind::Count, 30),
                    (OpKind::ModelCheck, 15),
                ]),
                num_docs: 2,
            },
        ];
        let schedule = multi_tenant_schedule(2, &profiles, 4000, 99);
        assert_eq!(schedule, multi_tenant_schedule(2, &profiles, 4000, 99));
        let heavy = schedule.iter().filter(|o| o.tenant == 0).count();
        // 3:1 weighting → ~3000 of 4000; allow generous slack.
        assert!((2600..3400).contains(&heavy), "got {heavy}");
        for op in &schedule {
            assert!(op.op.doc < profiles[op.tenant].num_docs);
            assert!(op.op.query < 2);
        }
        // Each tenant draws from its *own* mix: the read-heavy tenant never
        // computes, the scan-heavy one never model-checks.
        assert!(schedule
            .iter()
            .filter(|o| o.tenant == 1)
            .all(|o| !matches!(o.op.kind, OpKind::Compute { .. })));
        assert!(schedule
            .iter()
            .filter(|o| o.tenant == 0)
            .all(|o| !matches!(o.op.kind, OpKind::ModelCheck)));
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_tenant_weights_are_rejected() {
        multi_tenant_schedule(
            1,
            &[TenantProfile {
                weight: 0,
                mix: Mix::new([(OpKind::Count, 1)]),
                num_docs: 1,
            }],
            10,
            1,
        );
    }
}

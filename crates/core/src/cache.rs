//! A concurrent, byte-budgeted cache for the pair-dependent matrices of
//! Lemma 6.5 — shared **service-wide** across documents.
//!
//! Entries are keyed by a [`PairKey`] (document token × query token).  A
//! standalone [`PreparedDocument`](crate::engine::PreparedDocument) owns a
//! private cache; documents registered in a
//! [`Service`](crate::service::Service) are re-homed onto the service's one
//! shared cache, so the matrices of *every* document — and every shard of
//! every document — compete for a single byte pool under one global budget
//! with one shared eviction clock.  The cache is designed for the service
//! layer's `&self` evaluation contract:
//!
//! * **Sharded `RwLock` map.**  Lookups take a shard read lock only, so any
//!   number of threads can serve cache hits simultaneously; inserts take a
//!   single shard's write lock.
//! * **Benign build races.**  On a miss the `O(size(S)·q³)` matrix build
//!   runs *outside* all locks.  If two threads miss on the same key
//!   concurrently, both build, and the first insert wins — the loser adopts
//!   the winner's `Arc` and drops its own copy.  Matrices are read-only
//!   after construction and deterministic per (query, document) pair, so
//!   duplicated work is the only cost, never divergence.
//! * **Global LRU admission/eviction under one byte budget.**  Each entry
//!   is weighed by [`Preprocessed::approx_bytes`]; when an insert pushes
//!   the resident total over the budget, the globally least-recently-used
//!   entries — regardless of which document they belong to — are evicted
//!   until the total fits again.  Recency is tracked with a lock-free
//!   logical clock shared by all documents, so the LRU order is approximate
//!   under contention (exact when requests are sequential).  Evicted
//!   matrices that are still referenced by in-flight evaluations stay alive
//!   through their `Arc`s and are simply rebuilt on the next request.

use crate::matrices::{Preprocessed, ShardBuildStats};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Number of independent lock shards.  Tokens are sequential, so mixing the
/// document and query halves spreads a pool of pairs evenly.
const SHARDS: usize = 8;

/// The cache key of one (document, query) pair: both sides carry a
/// process-unique token, so one shared map can serve every document of a
/// service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairKey {
    /// The prepared document's unique token.
    pub doc: u64,
    /// The prepared query's unique token.
    pub query: u64,
}

/// One cached matrix set plus its bookkeeping.
#[derive(Debug)]
struct CacheEntry {
    pre: Arc<Preprocessed>,
    /// Admission weight, [`Preprocessed::approx_bytes`] at insert time.
    bytes: usize,
    /// Owning tenant, resolved from the document token at insert time (so
    /// eviction accounting never drifts even if the mapping changes later).
    tenant: u32,
    /// Logical timestamp of the last lookup that returned this entry.
    last_used: AtomicU64,
}

/// Per-tenant state of the shared pool: which document tokens belong to
/// which tenant, each tenant's reserved byte share, and each tenant's
/// current resident total.
#[derive(Debug, Default)]
struct Tenancy {
    /// Document token → owning tenant (absent = default tenant 0).
    doc_tenants: HashMap<u64, u32>,
    /// Tenant → reserved byte share (only tenants with a non-zero share).
    shares: HashMap<u32, usize>,
    /// Tenant → bytes currently resident for its documents.
    resident: HashMap<u32, usize>,
}

/// The outcome of one cache lookup, reported back to the caller for
/// per-request statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheLookup {
    /// `true` if the matrices were already resident (no build ran in this
    /// request).
    pub hit: bool,
    /// Wall-clock time this request spent building matrices (zero on a
    /// hit; on a lost build race the loser still reports its build time).
    pub build_time: Duration,
    /// [`Preprocessed::approx_bytes`] of the returned matrices.
    pub bytes: usize,
    /// Per-shard build/merge timings when this lookup ran a scatter-gather
    /// build (`None` on hits and on monolithic builds).
    pub shard_stats: Option<ShardBuildStats>,
}

/// Cumulative counters of one [`MatrixCache`] (monotone over its lifetime).
/// For documents registered in a service these are the *service-wide*
/// totals of the shared cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from resident matrices.
    pub hits: u64,
    /// Lookups that had to build (including lost build races).
    pub misses: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub resident_entries: usize,
}

/// A sharded, optionally byte-budgeted map from (document, query) pair keys
/// to the preprocessed matrices of Lemma 6.5.  See the module docs for the
/// concurrency contract and the global-budget semantics.
#[derive(Debug)]
pub struct MatrixCache {
    shards: Box<[RwLock<HashMap<PairKey, CacheEntry>>]>,
    /// Logical clock for LRU recency, shared by every document on this
    /// cache (the service-wide eviction clock).
    clock: AtomicU64,
    /// Sum of `bytes` over all resident entries.
    resident: AtomicUsize,
    /// `None` = unbounded (the standalone-document default).
    budget: Option<usize>,
    /// Per-tenant document ownership, shares and residency (see the
    /// module docs on tenant shares).
    tenancy: RwLock<Tenancy>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl MatrixCache {
    /// Creates a cache; `budget` is the maximum resident byte total across
    /// every document that shares this cache (`None` = unbounded).
    pub fn new(budget: Option<usize>) -> Self {
        MatrixCache {
            shards: (0..SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            clock: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            budget,
            tenancy: RwLock::new(Tenancy::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: PairKey) -> &RwLock<HashMap<PairKey, CacheEntry>> {
        let mixed = key
            .doc
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key.query);
        &self.shards[(mixed % SHARDS as u64) as usize]
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The configured byte budget (`None` = unbounded).
    pub fn budget(&self) -> Option<usize> {
        self.budget
    }

    /// Assigns a document token to a tenant: entries inserted for that
    /// document from now on count against the tenant's residency and enjoy
    /// its reserved share.  Tokens never assigned belong to the default
    /// tenant 0.
    pub fn assign_doc_tenant(&self, doc: u64, tenant: u32) {
        let mut tenancy = self.tenancy.write().expect("tenancy lock poisoned");
        if tenant == 0 {
            tenancy.doc_tenants.remove(&doc);
        } else {
            tenancy.doc_tenants.insert(doc, tenant);
        }
    }

    /// Sets a tenant's reserved byte share of the budgeted pool (`0`
    /// removes the reservation).  While a tenant's resident total is at or
    /// below its share, budget pressure from *other* tenants cannot evict
    /// its entries — shares are carved out of the global budget, so callers
    /// should keep the sum of shares within it.
    pub fn set_tenant_share(&self, tenant: u32, bytes: usize) {
        let mut tenancy = self.tenancy.write().expect("tenancy lock poisoned");
        if bytes == 0 {
            tenancy.shares.remove(&tenant);
        } else {
            tenancy.shares.insert(tenant, bytes);
        }
    }

    /// Bytes currently resident for one tenant's documents.
    pub fn resident_bytes_for_tenant(&self, tenant: u32) -> usize {
        self.tenancy
            .read()
            .expect("tenancy lock poisoned")
            .resident
            .get(&tenant)
            .copied()
            .unwrap_or(0)
    }

    /// The tenant a document token currently maps to.
    fn tenant_of(&self, doc: u64) -> u32 {
        self.tenancy
            .read()
            .expect("tenancy lock poisoned")
            .doc_tenants
            .get(&doc)
            .copied()
            .unwrap_or(0)
    }

    fn add_tenant_resident(&self, tenant: u32, bytes: usize) {
        let mut tenancy = self.tenancy.write().expect("tenancy lock poisoned");
        *tenancy.resident.entry(tenant).or_default() += bytes;
    }

    fn sub_tenant_resident(&self, tenant: u32, bytes: usize) {
        let mut tenancy = self.tenancy.write().expect("tenancy lock poisoned");
        if let Some(total) = tenancy.resident.get_mut(&tenant) {
            *total = total.saturating_sub(bytes);
            if *total == 0 {
                tenancy.resident.remove(&tenant);
            }
        }
    }

    /// Returns the matrices for `key`, building them with `build` on a
    /// miss.  `build` also reports the scatter-gather timings if the build
    /// was sharded.  Concurrent callers with the same key may build in
    /// parallel; the first insert wins (see the module docs).
    pub fn get_or_build(
        &self,
        key: PairKey,
        build: impl FnOnce() -> (Preprocessed, Option<ShardBuildStats>),
    ) -> (Arc<Preprocessed>, CacheLookup) {
        if let Some((pre, bytes)) = self.lookup(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (
                pre,
                CacheLookup {
                    hit: true,
                    build_time: Duration::ZERO,
                    bytes,
                    shard_stats: None,
                },
            );
        }

        // Miss: build outside all locks.
        let start = Instant::now();
        let (built, shard_stats) = build();
        let built = Arc::new(built);
        let build_time = start.elapsed();
        let bytes = built.approx_bytes();
        self.misses.fetch_add(1, Ordering::Relaxed);

        let tenant = self.tenant_of(key.doc);
        let pre = {
            let mut shard = self.shard(key).write().expect("cache lock poisoned");
            match shard.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    // Lost a benign build race: adopt the first insert.
                    e.get().last_used.store(self.tick(), Ordering::Relaxed);
                    e.get().pre.clone()
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    self.resident.fetch_add(bytes, Ordering::Relaxed);
                    self.add_tenant_resident(tenant, bytes);
                    e.insert(CacheEntry {
                        pre: built.clone(),
                        bytes,
                        tenant,
                        last_used: AtomicU64::new(self.tick()),
                    });
                    built
                }
            }
        };
        self.enforce_budget();
        (
            pre,
            CacheLookup {
                hit: false,
                build_time,
                bytes,
                shard_stats,
            },
        )
    }

    /// The matrices for `key` (with their stored byte weight) if they are
    /// resident, bumping recency.  The weight comes from the entry, not a
    /// re-walk of the matrices, so hits stay read-lock-only and `O(1)`.
    pub fn lookup(&self, key: PairKey) -> Option<(Arc<Preprocessed>, usize)> {
        let shard = self.shard(key).read().expect("cache lock poisoned");
        shard.get(&key).map(|e| {
            e.last_used.store(self.tick(), Ordering::Relaxed);
            (e.pre.clone(), e.bytes)
        })
    }

    /// The matrices for `key` if they are resident, *without* bumping
    /// recency or hit counters (introspection).
    pub fn peek(&self, key: PairKey) -> Option<Arc<Preprocessed>> {
        let shard = self.shard(key).read().expect("cache lock poisoned");
        shard.get(&key).map(|e| e.pre.clone())
    }

    /// Copies one document's entries from `other` into this cache (used
    /// when a prepared document joins a service: its already built matrices
    /// follow it into the shared pool).  Only entries keyed by `doc` are
    /// taken, and `other` is left untouched — it may be another service's
    /// shared pool (a registered document was cloned across services),
    /// whose residents must not be disturbed; the matrices themselves are
    /// shared `Arc`s, so a copy costs no rebuild.  Existing entries win on
    /// key collision.
    pub fn absorb_doc(&self, other: &MatrixCache, doc: u64) {
        for shard in other.shards.iter() {
            let shard = shard.read().expect("cache lock poisoned");
            for (&key, entry) in shard.iter().filter(|(k, _)| k.doc == doc) {
                let tenant = self.tenant_of(key.doc);
                let mut target = self.shard(key).write().expect("cache lock poisoned");
                if let std::collections::hash_map::Entry::Vacant(e) = target.entry(key) {
                    self.resident.fetch_add(entry.bytes, Ordering::Relaxed);
                    self.add_tenant_resident(tenant, entry.bytes);
                    e.insert(CacheEntry {
                        pre: entry.pre.clone(),
                        bytes: entry.bytes,
                        tenant,
                        last_used: AtomicU64::new(self.tick()),
                    });
                }
            }
        }
        self.enforce_budget();
    }

    /// Evicts least-recently-used entries until the resident total fits the
    /// budget again.  If a single entry alone exceeds the whole budget it is
    /// evicted too — the invariant `resident_bytes ≤ budget` holds whenever
    /// no insert is in flight.
    ///
    /// Victim selection honours tenant shares: an entry is *protected* while
    /// its tenant's resident total is at or below the tenant's reserved
    /// share, so budget pressure (e.g. one tenant flooding the pool) evicts
    /// from unprotected tenants first.  Only if every resident entry is
    /// protected — shares oversubscribed against the budget, which callers
    /// are expected to avoid — does eviction fall back to the global LRU.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        while self.resident.load(Ordering::Relaxed) > budget {
            // Snapshot tenant protection, then the least-recently-used
            // entry among unprotected tenants (and globally, as fallback).
            let (shares, by_tenant) = {
                let tenancy = self.tenancy.read().expect("tenancy lock poisoned");
                (tenancy.shares.clone(), tenancy.resident.clone())
            };
            let protected = |tenant: u32| {
                shares
                    .get(&tenant)
                    .is_some_and(|&share| by_tenant.get(&tenant).copied().unwrap_or(0) <= share)
            };
            let mut lru: Option<(u64, PairKey)> = None; // (last_used, key)
            let mut lru_any: Option<(u64, PairKey)> = None;
            for shard in self.shards.iter() {
                let shard = shard.read().expect("cache lock poisoned");
                for (&key, entry) in shard.iter() {
                    let used = entry.last_used.load(Ordering::Relaxed);
                    if lru_any.map(|(u, _)| used < u).unwrap_or(true) {
                        lru_any = Some((used, key));
                    }
                    if !protected(entry.tenant) && lru.map(|(u, _)| used < u).unwrap_or(true) {
                        lru = Some((used, key));
                    }
                }
            }
            let Some((_, key)) = lru.or(lru_any) else {
                return;
            };
            let mut shard = self.shard(key).write().expect("cache lock poisoned");
            if let Some(entry) = shard.remove(&key) {
                self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
                self.sub_tenant_resident(entry.tenant, entry.bytes);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of resident entries (all documents).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache lock poisoned").len())
            .sum()
    }

    /// Number of resident entries belonging to one document.
    pub fn len_for(&self, doc: u64) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("cache lock poisoned")
                    .keys()
                    .filter(|k| k.doc == doc)
                    .count()
            })
            .sum()
    }

    /// `true` if no matrices are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes currently resident (all documents).
    pub fn resident_bytes(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Bytes currently resident for one document's entries.
    pub fn resident_bytes_for(&self, doc: u64) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .expect("cache lock poisoned")
                    .iter()
                    .filter(|(k, _)| k.doc == doc)
                    .map(|(_, e)| e.bytes)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Drops all resident matrices (in-flight `Arc`s stay alive).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut shard = shard.write().expect("cache lock poisoned");
            for (_, entry) in shard.drain() {
                self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
                self.sub_tenant_resident(entry.tenant, entry.bytes);
            }
        }
    }

    /// Drops one document's resident matrices, leaving the other documents
    /// sharing this cache untouched.
    pub fn clear_doc(&self, doc: u64) {
        let mut freed: Vec<(u32, usize)> = Vec::new();
        for shard in self.shards.iter() {
            let mut shard = shard.write().expect("cache lock poisoned");
            shard.retain(|key, entry| {
                if key.doc == doc {
                    self.resident.fetch_sub(entry.bytes, Ordering::Relaxed);
                    freed.push((entry.tenant, entry.bytes));
                    false
                } else {
                    true
                }
            });
        }
        for (tenant, bytes) in freed {
            self.sub_tenant_resident(tenant, bytes);
        }
        // The token is never reissued: drop its tenant mapping too.
        self.tenancy
            .write()
            .expect("tenancy lock poisoned")
            .doc_tenants
            .remove(&doc);
    }

    /// A snapshot of the cumulative counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident_bytes(),
            resident_entries: self.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{PreparedDocument, PreparedQuery};
    use slp::families;
    use spanner::regex;

    fn build_one(k: u64) -> (Preprocessed, Option<ShardBuildStats>) {
        let m = regex::compile(".*x{ab}.*", b"ab").unwrap();
        let q = PreparedQuery::determinized(&m);
        let d = PreparedDocument::new(&families::power_word(b"ab", k));
        (Preprocessed::build(q.nfa(), d.ended(), q.num_vars()), None)
    }

    fn key(doc: u64, query: u64) -> PairKey {
        PairKey { doc, query }
    }

    #[test]
    fn hits_misses_and_races_share_one_allocation() {
        let cache = MatrixCache::new(None);
        let (a, first) = cache.get_or_build(key(0, 7), || build_one(16));
        assert!(!first.hit);
        assert!(first.bytes > 0);
        let (b, second) = cache.get_or_build(key(0, 7), || panic!("must not rebuild"));
        assert!(second.hit);
        assert!(Arc::ptr_eq(&a, &b));
        // A lost race adopts the resident entry.
        let (c, third) = cache.get_or_build(key(0, 7), || build_one(16));
        assert!(third.hit);
        assert!(Arc::ptr_eq(&a, &c));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(stats.resident_entries, 1);
        assert_eq!(stats.resident_bytes, first.bytes);
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let probe = build_one(16).0.approx_bytes();
        // Room for two entries, not three.
        let cache = MatrixCache::new(Some(probe * 5 / 2));
        cache.get_or_build(key(0, 0), || build_one(16));
        cache.get_or_build(key(0, 1), || build_one(16));
        assert_eq!(cache.len(), 2);
        // Touch 0 so 1 is the LRU victim.
        assert!(cache.lookup(key(0, 0)).is_some());
        cache.get_or_build(key(0, 2), || build_one(16));
        assert!(cache.resident_bytes() <= probe * 5 / 2);
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(key(0, 0)).is_some(), "recently used survives");
        assert!(cache.peek(key(0, 1)).is_none(), "LRU entry evicted");
        assert!(cache.peek(key(0, 2)).is_some(), "new entry admitted");
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn budget_is_global_across_documents() {
        let probe = build_one(16).0.approx_bytes();
        let cache = MatrixCache::new(Some(probe * 5 / 2));
        // Two different documents, one query each, then a third document:
        // eviction picks the globally least-recently-used pair, crossing
        // document boundaries.
        cache.get_or_build(key(10, 0), || build_one(16));
        cache.get_or_build(key(11, 0), || build_one(16));
        assert!(cache.lookup(key(10, 0)).is_some()); // doc 11 is now LRU
        cache.get_or_build(key(12, 0), || build_one(16));
        assert!(cache.peek(key(10, 0)).is_some());
        assert!(cache.peek(key(11, 0)).is_none(), "other document evicted");
        assert!(cache.peek(key(12, 0)).is_some());
        assert_eq!(cache.len_for(10), 1);
        assert_eq!(cache.len_for(11), 0);
        assert!(cache.resident_bytes_for(10) > 0);
        assert_eq!(cache.resident_bytes_for(11), 0);
    }

    #[test]
    fn budget_accounting_matches_the_packed_plane_sizes() {
        // `approx_bytes` now charges the bit-packed `R_A` bitplanes
        // (two `⌈q/64⌉`-word rows per matrix row, padding included), so a
        // budget tuned against it admits exactly as many entries as fit.
        let (pre, _) = build_one(16);
        let probe = pre.approx_bytes();
        let q = pre.q;
        let plane_bytes = q * q.div_ceil(64) * std::mem::size_of::<u64>();
        let packed_floor = pre.r.len() * 2 * plane_bytes;
        assert!(
            probe >= packed_floor,
            "approx_bytes {probe} must cover {packed_floor} bytes of bitplanes"
        );
        // And the charge really is the heap the planes hold, not a stale
        // per-entry estimate: every matrix reports its own plane bytes.
        let plane_sum: usize = pre.r.iter().map(|m| m.heap_bytes()).sum();
        assert!(probe >= plane_sum);
        // The per-pair memos are charged before any request fills them:
        // filling them leaves the entry's weight unchanged.
        assert!(probe >= packed_floor + pre.unmarked_rows_bytes());
        assert_eq!(crate::count::count_from_matrices(&pre), 16);
        let mut tuple = spanner::SpanTuple::empty(1);
        tuple.set(spanner::Variable(0), spanner::Span::new(1, 3).unwrap());
        assert!(crate::model_check::check_on_matrices(&pre, &tuple).unwrap());
        assert_eq!(pre.approx_bytes(), probe);
        // Eviction respects the packed sizes: a budget for two packed
        // entries holds two, and the third displaces the LRU entry.
        let cache = MatrixCache::new(Some(probe * 2));
        cache.get_or_build(key(0, 0), || build_one(16));
        cache.get_or_build(key(0, 1), || build_one(16));
        assert_eq!(cache.len(), 2);
        cache.get_or_build(key(0, 2), || build_one(16));
        assert_eq!(cache.len(), 2, "third packed entry displaces one");
        assert!(cache.resident_bytes() <= probe * 2);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn tenant_share_protects_entries_from_other_tenants_pressure() {
        let probe = build_one(16).0.approx_bytes();
        // Room for three entries.  Tenant 7 reserves one entry's worth.
        let cache = MatrixCache::new(Some(probe * 3));
        cache.assign_doc_tenant(100, 7);
        cache.set_tenant_share(7, probe);
        // Tenant 7 caches one pair, then goes idle (it becomes the global
        // LRU candidate).
        cache.get_or_build(key(100, 0), || build_one(16));
        // The default tenant floods the pool far past the budget.
        for q in 0..6 {
            cache.get_or_build(key(200, q), || build_one(16));
        }
        assert!(cache.resident_bytes() <= probe * 3);
        assert!(
            cache.peek(key(100, 0)).is_some(),
            "the shared entry is within tenant 7's share and must survive"
        );
        assert_eq!(cache.resident_bytes_for_tenant(7), probe);
        // Beyond its share the tenant is fair game: a second pair from
        // tenant 7 pushes it over, and pressure may now evict its LRU.
        cache.get_or_build(key(100, 1), || build_one(16));
        for q in 6..12 {
            cache.get_or_build(key(200, q), || build_one(16));
        }
        assert!(cache.resident_bytes_for_tenant(7) <= probe);
    }

    #[test]
    fn clear_doc_releases_tenant_residency() {
        let cache = MatrixCache::new(None);
        cache.assign_doc_tenant(5, 3);
        cache.get_or_build(key(5, 0), || build_one(16));
        assert!(cache.resident_bytes_for_tenant(3) > 0);
        cache.clear_doc(5);
        assert_eq!(cache.resident_bytes_for_tenant(3), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn oversized_entry_is_not_retained() {
        let cache = MatrixCache::new(Some(8));
        let (pre, lookup) = cache.get_or_build(key(0, 0), || build_one(64));
        assert!(lookup.bytes > 8);
        // The caller still gets the matrices; the cache stays within budget.
        assert!(!pre.reachable_accepting().is_empty());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn clear_resets_residency() {
        let cache = MatrixCache::new(None);
        cache.get_or_build(key(0, 0), || build_one(16));
        cache.get_or_build(key(0, 1), || build_one(32));
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.resident_bytes(), 0);
    }

    #[test]
    fn clear_doc_leaves_other_documents_resident() {
        let cache = MatrixCache::new(None);
        cache.get_or_build(key(1, 0), || build_one(16));
        cache.get_or_build(key(2, 0), || build_one(16));
        cache.clear_doc(1);
        assert_eq!(cache.len_for(1), 0);
        assert_eq!(cache.len_for(2), 1);
        assert_eq!(cache.resident_bytes(), cache.resident_bytes_for(2));
    }

    #[test]
    fn absorb_doc_copies_only_that_documents_entries() {
        // The source doubles as another service's shared pool: it must be
        // left completely untouched when document 5 is re-homed elsewhere.
        let source = MatrixCache::new(None);
        let (a, _) = source.get_or_build(key(5, 3), || build_one(16));
        source.get_or_build(key(6, 3), || build_one(16));
        let before = source.resident_bytes();
        let shared = MatrixCache::new(Some(1 << 20));
        shared.absorb_doc(&source, 5);
        assert_eq!(source.len_for(5), 1, "the source keeps its entries");
        assert_eq!(source.len_for(6), 1);
        assert_eq!(source.resident_bytes(), before);
        let b = shared.peek(key(5, 3)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "the copy shares the Arc, no rebuild");
        assert!(shared.peek(key(6, 3)).is_none(), "only doc 5 was taken");
        assert_eq!(shared.resident_bytes(), shared.resident_bytes_for(5));
    }
}

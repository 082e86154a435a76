//! The sharded, content-hash-keyed LRU response cache.
//!
//! Repeated audits of the same page bytes must never re-parse: the server
//! keys the serialized JSON response by an FNV-1a hash of the raw request
//! body and answers cache hits byte-identically. The map is split into
//! [`ShardedCache::shard_count`] shards, each behind its own
//! `std::sync::Mutex`, so concurrent hits on different pages contend
//! only when they land on the same shard — the classic striped-lock
//! layout of production response caches. Audits compute outside the
//! shard locks, and no panic leaves a shard half-updated, so a lock
//! poisoned by a panicking request is taken over: one panic never turns
//! later requests into panics.
//!
//! Eviction is exact LRU per shard: every entry carries the shard's
//! monotonic access tick; inserting into a full shard evicts the entry
//! with the smallest tick. Capacities are small (hundreds of entries), so
//! the O(shard-len) eviction scan is cheaper than maintaining an
//! intrusive list — and trivially correct, which the eviction-order tests
//! exercise directly.

use serde::Serialize;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// 64-bit FNV-1a over arbitrary bytes.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Murmur3's 64-bit finalizer (fmix64): two xor-shift/multiply rounds that
/// give full avalanche — every input bit flips every output bit with
/// probability ≈ 1/2. FNV-1a alone is a fine identity hash but a poor
/// *distribution* hash for one-or-two-byte inputs (the last multiply
/// under-mixes the high bits), and shard selection reduces the hash
/// modulo a small count, so it needs the avalanche.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Cache key: content hash plus original length (the length guard turns a
/// 64-bit-collision stale answer into a 64-bit-collision *on equal-length
/// bodies*, which is as close to content addressing as a fixed-width key
/// gets without storing the body).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub hash: u64,
    pub len: u64,
}

impl CacheKey {
    /// Key for a raw request body.
    pub fn of(body: &[u8]) -> CacheKey {
        CacheKey {
            hash: fnv1a64(body),
            len: body.len() as u64,
        }
    }

    /// Hex rendering used in audit responses (`content_hash`).
    pub fn hex(&self) -> String {
        format!("{:016x}", self.hash)
    }
}

struct Shard {
    entries: HashMap<CacheKey, (Arc<Vec<u8>>, u64)>,
    tick: u64,
}

/// Counters snapshot, serialized into `GET /v1/stats`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CacheSnapshot {
    pub shards: usize,
    pub capacity_per_shard: usize,
    pub entries: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Hits as a share of lookups, 0–1 (0 when no lookups yet).
    pub hit_rate: f64,
}

/// Lock one shard, taking a poisoned lock over (see the module docs).
fn lock_shard(shard: &Mutex<Shard>) -> MutexGuard<'_, Shard> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The sharded LRU response cache.
pub struct ShardedCache {
    shards: Vec<Mutex<Shard>>,
    capacity_per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ShardedCache {
    /// `shards` stripes of `capacity_per_shard` entries each. Both are
    /// clamped to at least 1.
    pub fn new(shards: usize, capacity_per_shard: usize) -> Self {
        let shards = shards.max(1);
        ShardedCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        tick: 0,
                    })
                })
                .collect(),
            capacity_per_shard: capacity_per_shard.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Which shard a key lands on. FNV-1a's final multiply leaves the
    /// high word under-mixed for short inputs (measured: 3 of 8 shards
    /// absorbed everything on `page-N` keys under the earlier XOR-fold of
    /// the halves), so the hash goes through a full 64-bit finalizer
    /// before reduction.
    pub fn shard_of(&self, key: CacheKey) -> usize {
        (mix64(key.hash) as usize) % self.shards.len()
    }

    /// Look up a key, bumping its recency on hit.
    pub fn get(&self, key: CacheKey) -> Option<Arc<Vec<u8>>> {
        let mut shard = lock_shard(&self.shards[self.shard_of(key)]);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(&key) {
            Some((bytes, last_used)) => {
                *last_used = tick;
                let bytes = Arc::clone(bytes);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(bytes)
            }
            None => {
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert (or refresh) a value, evicting the shard's LRU entry when
    /// full.
    pub fn insert(&self, key: CacheKey, value: Arc<Vec<u8>>) {
        let mut shard = lock_shard(&self.shards[self.shard_of(key)]);
        shard.tick += 1;
        let tick = shard.tick;
        if !shard.entries.contains_key(&key) && shard.entries.len() >= self.capacity_per_shard {
            if let Some(&victim) = shard
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                shard.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, (value, tick));
    }

    /// The serve hot path: answer from cache, or compute, insert, and
    /// answer. Returns `(bytes, was_hit)`.
    ///
    /// `compute` runs *outside* the shard lock — an audit takes hundreds
    /// of microseconds and must not serialize the whole shard behind it.
    /// Two racers on the same cold key may both compute; both produce
    /// byte-identical JSON (the engine is deterministic), so last-write
    /// wins safely.
    pub fn get_or_compute(
        &self,
        body: &[u8],
        compute: impl FnOnce() -> Vec<u8>,
    ) -> (Arc<Vec<u8>>, bool) {
        let key = CacheKey::of(body);
        if let Some(found) = self.get(key) {
            return (found, true);
        }
        let value = Arc::new(compute());
        self.insert(key, Arc::clone(&value));
        (value, false)
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries per shard, in shard order (used by the striping tests).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| lock_shard(s).entries.len())
            .collect()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> CacheSnapshot {
        let hits = self.hits();
        let misses = self.misses();
        let lookups = hits + misses;
        CacheSnapshot {
            shards: self.shard_count(),
            capacity_per_shard: self.capacity_per_shard,
            entries: self.len(),
            hits,
            misses,
            evictions: self.evictions.load(Ordering::Relaxed),
            hit_rate: if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn val(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn get_or_compute_hits_after_miss() {
        let cache = ShardedCache::new(4, 8);
        let computed = AtomicUsize::new(0);
        let compute = || {
            computed.fetch_add(1, Ordering::Relaxed);
            b"json".to_vec()
        };
        let (a, hit_a) = cache.get_or_compute(b"<html>page</html>", compute);
        assert!(!hit_a);
        let (b, hit_b) = cache.get_or_compute(b"<html>page</html>", || unreachable!());
        assert!(hit_b);
        assert_eq!(a, b, "cached bytes must be identical");
        assert_eq!(computed.load(Ordering::Relaxed), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn lru_eviction_order_is_exact() {
        // Single shard so the order is fully observable.
        let cache = ShardedCache::new(1, 3);
        let (ka, kb, kc, kd) = (
            CacheKey::of(b"a"),
            CacheKey::of(b"b"),
            CacheKey::of(b"c"),
            CacheKey::of(b"d"),
        );
        cache.insert(ka, val("A"));
        cache.insert(kb, val("B"));
        cache.insert(kc, val("C"));
        // Touch `a`: `b` becomes least recently used.
        assert!(cache.get(ka).is_some());
        cache.insert(kd, val("D"));
        assert_eq!(cache.len(), 3);
        assert!(cache.get(kb).is_none(), "b was LRU and must be evicted");
        assert!(cache.get(ka).is_some());
        assert!(cache.get(kc).is_some());
        assert!(cache.get(kd).is_some());

        // Continue: now the recency order is a, c, d (b missed above does
        // not count); touching c then inserting a fifth key evicts a.
        assert!(cache.get(kc).is_some());
        let ke = CacheKey::of(b"e");
        cache.insert(ke, val("E"));
        assert!(cache.get(ka).is_none(), "a was LRU after c was touched");
        assert_eq!(cache.snapshot().evictions, 2);
    }

    #[test]
    fn reinsert_of_existing_key_does_not_evict() {
        let cache = ShardedCache::new(1, 2);
        let (ka, kb) = (CacheKey::of(b"a"), CacheKey::of(b"b"));
        cache.insert(ka, val("A"));
        cache.insert(kb, val("B"));
        cache.insert(ka, val("A2"));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.snapshot().evictions, 0);
        assert_eq!(cache.get(ka).unwrap().as_slice(), b"A2");
    }

    #[test]
    fn keys_stripe_across_shards() {
        let cache = ShardedCache::new(8, 64);
        for i in 0..256u32 {
            let body = format!("page-{i}");
            cache.insert(CacheKey::of(body.as_bytes()), val(&body));
        }
        let lens = cache.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), 256);
        // FNV distributes: no shard may be empty or hold the majority.
        for (i, len) in lens.iter().enumerate() {
            assert!(*len > 0, "shard {i} empty: {lens:?}");
            assert!(*len < 128, "shard {i} overloaded: {lens:?}");
        }
    }

    #[test]
    fn short_keys_stripe_across_shards() {
        // The under-mixed-high-bits failure mode: one- and two-byte
        // bodies. With the fmix64 finalizer every shard must take a fair
        // share; without it a handful of shards absorb everything.
        let cache = ShardedCache::new(8, 64);
        let mut inserted = 0;
        for a in b'a'..=b'z' {
            cache.insert(CacheKey::of(&[a]), val("x"));
            inserted += 1;
            for b in b'0'..=b'9' {
                cache.insert(CacheKey::of(&[a, b]), val("y"));
                inserted += 1;
            }
        }
        let lens = cache.shard_lens();
        assert_eq!(lens.iter().sum::<usize>(), inserted);
        let expected = inserted / 8;
        for (i, len) in lens.iter().enumerate() {
            assert!(
                *len >= expected / 2 && *len <= expected * 2,
                "shard {i} holds {len} of {inserted} (expected ≈{expected}): {lens:?}"
            );
        }
    }

    #[test]
    fn shards_fill_independently() {
        // Each shard holds its own LRU set: filling one shard far past
        // its capacity must not evict entries resident in other shards.
        let cache = ShardedCache::new(4, 4);
        let resident: Vec<CacheKey> = (0..8)
            .map(|i| {
                let body = format!("resident-{i}");
                let key = CacheKey::of(body.as_bytes());
                cache.insert(key, val(&body));
                key
            })
            .collect();
        // Hammer one specific shard with fresh keys.
        let victim_shard = cache.shard_of(resident[0]);
        let mut hammered = 0;
        let mut i = 0u32;
        while hammered < 64 {
            let body = format!("hammer-{i}");
            let key = CacheKey::of(body.as_bytes());
            i += 1;
            if cache.shard_of(key) == victim_shard {
                cache.insert(key, val(&body));
                hammered += 1;
            }
        }
        for key in &resident {
            if cache.shard_of(*key) != victim_shard {
                assert!(
                    cache.get(*key).is_some(),
                    "entry outside the hammered shard was evicted"
                );
            }
        }
    }

    #[test]
    fn concurrent_hits_count_exactly() {
        let cache = Arc::new(ShardedCache::new(8, 32));
        for i in 0..16u32 {
            let body = format!("page-{i}");
            cache.insert(CacheKey::of(body.as_bytes()), val(&body));
        }
        const THREADS: usize = 8;
        const LOOKUPS: usize = 200;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    for j in 0..LOOKUPS {
                        let body = format!("page-{}", (t * 7 + j) % 16);
                        assert!(cache.get(CacheKey::of(body.as_bytes())).is_some());
                    }
                });
            }
        });
        assert_eq!(cache.hits(), (THREADS * LOOKUPS) as u64);
        assert_eq!(cache.misses(), 0);
        let snap = cache.snapshot();
        assert!((snap.hit_rate - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_shape() {
        let cache = ShardedCache::new(2, 4);
        assert!(cache.is_empty());
        let snap = cache.snapshot();
        assert_eq!(snap.shards, 2);
        assert_eq!(snap.capacity_per_shard, 4);
        assert_eq!(snap.hit_rate, 0.0);
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains("\"hit_rate\""));
    }

    #[test]
    fn key_hex_is_stable() {
        let k = CacheKey::of(b"foobar");
        assert_eq!(k.hex(), "85944171f73967e8");
        assert_eq!(k.len, 6);
    }
}

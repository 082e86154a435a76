//! The sharded, content-hash-keyed LRU response cache.
//!
//! Repeated audits of the same page bytes must never re-parse: the server
//! keys the serialized JSON response by a hash of the raw request body and
//! answers cache hits byte-identically. Every request pays for that hash,
//! hit or miss, so it reads the body a word at a time: 16 bytes per step,
//! one folded 64×64→128-bit multiply each ([`CacheKey::of`]). It is not
//! the response's `content_hash`, which stays FNV-1a and is computed by
//! the service only on a miss. The map is split into
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

/// Odd constants for [`key_hash`]: 2^64/φ and splitmix64's two
/// multipliers.
const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const WORD_KEY: u64 = 0xbf58_476d_1ce4_e5b9;
const TAIL_KEY: u64 = 0x94d0_49bb_1331_11eb;

/// 64×64→128-bit multiply folded back to 64 bits by xoring its halves,
/// so the well-mixed middle bits of the product reach both ends.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let product = u128::from(a) * u128::from(b);
    (product as u64) ^ ((product >> 64) as u64)
}

/// The key hash of a body: each 16-byte chunk is two little-endian words,
/// one keyed with a constant, the other with the running state, and one
/// folded multiply of the two is the next state. An 11 KB page is about
/// 700 multiplies where byte-at-a-time FNV-1a is 11,000 dependent ones.
/// The last 0–15 bytes are zero-padded into one more step; the length
/// seeds the state, so a body and its zero-padded extension still hash
/// apart. Like FNV-1a it does not resist bodies crafted to collide.
fn key_hash(body: &[u8]) -> u64 {
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("8-byte half"));
    let (chunks, tail) = body.as_chunks::<16>();
    let mut state = SEED ^ body.len() as u64;
    for chunk in chunks {
        state = folded_multiply(word(&chunk[..8]) ^ WORD_KEY, word(&chunk[8..]) ^ state);
    }
    let mut last = [0u8; 16];
    last[..tail.len()].copy_from_slice(tail);
    folded_multiply(word(&last[..8]) ^ TAIL_KEY, word(&last[8..]) ^ state)
}

/// Murmur3's 64-bit finalizer (fmix64): two xor-shift/multiply rounds that
/// give full avalanche — every input bit flips every output bit with
/// probability ≈ 1/2. Shard selection reduces the hash modulo a small
/// count, so it needs the avalanche whatever the key hash leaves
/// under-mixed.
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
            hash: key_hash(body),
            len: body.len() as u64,
        }
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

    /// Which shard a key lands on: the hash goes through a full 64-bit
    /// finalizer before the modulo reduction.
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
    fn every_body_bit_reaches_the_key() {
        // A 100-byte body covers six full chunks and a 4-byte tail. Each
        // single-bit flip must change the key hash, and on average flip
        // about half of its 64 bits.
        let body: Vec<u8> = (0..100u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        let base = key_hash(&body);
        let mut flipped_bits = 0;
        for bit in 0..body.len() * 8 {
            let mut changed = body.clone();
            changed[bit / 8] ^= 1 << (bit % 8);
            let diff = (key_hash(&changed) ^ base).count_ones();
            assert!(diff > 0, "flipping body bit {bit} left the key unchanged");
            flipped_bits += diff;
        }
        let mean = f64::from(flipped_bits) / (body.len() * 8) as f64;
        assert!(
            (28.0..=36.0).contains(&mean),
            "mean key bits flipped {mean}"
        );
        // A body and its zero-padded extension hash apart.
        assert_ne!(key_hash(b"ab"), key_hash(b"ab\0"));
        assert_ne!(key_hash(b""), key_hash(&[0; 16]));
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
        // The keys distribute: no shard may be empty or hold the majority.
        for (i, len) in lens.iter().enumerate() {
            assert!(*len > 0, "shard {i} empty: {lens:?}");
            assert!(*len < 128, "shard {i} overloaded: {lens:?}");
        }
    }

    #[test]
    fn short_keys_stripe_across_shards() {
        // One- and two-byte bodies, where a key hash mixes least: with
        // the fmix64 finalizer every shard must take a fair share.
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
        assert_eq!(format!("{:016x}", k.hash), "3ac13b7259bb77ab");
        assert_eq!(k.len, 6);
    }
}

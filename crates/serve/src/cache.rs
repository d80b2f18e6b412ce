//! Schedule memoization in two tiers, both sharded LRUs over the same
//! rendered response bytes (`Arc<Vec<u8>>`, shared between the tiers):
//!
//! * the **wire tier**, keyed by [`WireKey`]: a hash of the request
//!   payload's raw bytes, header and graph body alike. The connection
//!   thread probes it before parsing anything, so a repeat of an
//!   already-answered payload is written straight back without a decode,
//!   a platform parse, a registry lookup, a structural hash or a wait
//!   for a scheduling slot;
//! * the **structural tier**, keyed by [`CacheKey`]: (structural graph
//!   hash, platform spec, canonical algorithm name). The connection
//!   thread probes it after decoding, so payloads that differ only in algorithm spelling
//!   (`mcp`/`MCP`), wire tag (TGF/bin) or labels share one schedule.
//!   [`dagsched_graph::binio::structural_hash`] covers weights and edges
//!   but not labels, matching the determinism contract: two graphs that
//!   schedule identically share an entry.
//!
//! Both tiers store *rendered response bytes*, not schedules, so a hit
//! returns byte-identical output to the original computation by
//! construction, which is the property the e2e suite pins. The wire key
//! covers everything the structural key is derived from, so it is
//! strictly finer: a wire hit can only return what the structural tier
//! would have returned for the same payload. Only successful schedules
//! are stored, in either tier; an error is recomputed every time.
//!
//! **Hash assumption.** Both keys are 128-bit hashes, and equal hashes
//! are taken to mean equal inputs. That holds for non-adversarial
//! clients: with n entries alive, the chance that two distinct inputs
//! share a hash is about n²/2¹²⁹, negligible at any cache size. Neither
//! hash is keyed, so a client that crafts a collision on purpose could
//! be served another input's schedule.
//!
//! Sharding is by the second hash word, so concurrent requests for
//! different graphs rarely contend on a lock. Each shard runs its own
//! LRU via a global monotonic stamp; eviction is an O(shard) min-stamp
//! scan, fine at the per-shard capacities a daemon uses (≤ a few
//! hundred). Hit/miss/eviction counters land in
//! [`dagsched_obs::registry::global`]: each schedule request that ends
//! in a schedule counts one hit (`serve.cache_hits`, plus
//! `serve.cache_wire_hits` when the wire tier answered) or one miss
//! (`serve.cache_misses`, counted by the structural tier); a wire miss
//! counts nothing, since the structural lookup that follows counts it.
//! `serve.cache_evictions` counts structural-tier evictions only.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};

use dagsched_graph::binio;
use dagsched_obs::registry::{global, Metric};

const SHARDS: usize = 8;

/// A key a [`ShardedLru`] can be keyed by: it picks its shard and names
/// the counters a lookup or an eviction bumps.
pub trait TierKey: Clone + Eq + Hash {
    /// Counters a hit increments.
    const HIT: &'static [Metric];
    /// Counters a miss increments.
    const MISS: &'static [Metric];
    /// Counters an eviction increments.
    const EVICT: &'static [Metric];
    /// The word that selects the key's shard.
    fn shard_word(&self) -> u64;
}

/// What a cached schedule is looked up by in the structural tier.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`dagsched_graph::binio::structural_hash`] of the graph.
    pub graph: [u64; 2],
    /// Platform spec string as sent (`bnp:8`, `hypercube:3`, …).
    pub platform: String,
    /// Canonical algorithm name (`Scheduler::name()`, not the request
    /// spelling — so `mcp` and `MCP` share an entry).
    pub algo: String,
}

impl TierKey for CacheKey {
    const HIT: &'static [Metric] = &[Metric::ServeCacheHits];
    const MISS: &'static [Metric] = &[Metric::ServeCacheMisses];
    const EVICT: &'static [Metric] = &[Metric::ServeCacheEvictions];
    fn shard_word(&self) -> u64 {
        self.graph[1]
    }
}

/// What a cached schedule is looked up by in the wire tier: a 128-bit
/// hash of the whole request payload, header and graph body. Only the
/// hash is kept, never the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WireKey(pub [u64; 2]);

impl WireKey {
    /// Hash `payload` one 8-byte word at a time through
    /// [`binio::WordHasher`] seeded with the length, two words per step
    /// (the zero-padded tail is one last pair of words).
    pub fn of(payload: &[u8]) -> WireKey {
        let mut h = binio::WordHasher::new(payload.len() as u64);
        let mut eat = |pair: &[u8; 16]| {
            let word =
                |i: usize| u64::from_le_bytes(pair[8 * i..8 * i + 8].try_into().expect("8 bytes"));
            h.pair([word(0), word(1)]);
        };
        let mut pairs = payload.chunks_exact(16);
        for pair in &mut pairs {
            eat(pair.try_into().expect("16 bytes"));
        }
        let mut tail = [0u8; 16];
        tail[..pairs.remainder().len()].copy_from_slice(pairs.remainder());
        eat(&tail);
        WireKey(h.finish())
    }
}

impl TierKey for WireKey {
    /// A wire hit answers the request, so it counts as a cache hit; a
    /// wire miss counts nothing, because the structural lookup that
    /// follows counts the request's hit or miss.
    const HIT: &'static [Metric] = &[Metric::ServeCacheHits, Metric::ServeCacheWireHits];
    const MISS: &'static [Metric] = &[];
    /// A wire eviction loses no schedule (the structural tier may still
    /// hold it), so `serve.cache_evictions` counts structural ones only.
    const EVICT: &'static [Metric] = &[];
    fn shard_word(&self) -> u64 {
        self.0[1]
    }
}

fn count(metrics: &[Metric]) {
    for &m in metrics {
        global().incr(m);
    }
}

struct Entry {
    val: Arc<Vec<u8>>,
    stamp: u64,
}

/// Sharded LRU over rendered response bytes, keyed by either tier's key.
pub struct ShardedLru<K = CacheKey> {
    shards: [Mutex<HashMap<K, Entry>>; SHARDS],
    clock: AtomicU64,
    shard_cap: usize,
}

impl<K: TierKey> ShardedLru<K> {
    /// `capacity` is the total entry budget across shards; `0` disables
    /// the cache entirely (every `get` is a miss, `insert` is a no-op).
    pub fn new(capacity: usize) -> Self {
        ShardedLru {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            clock: AtomicU64::new(0),
            shard_cap: capacity.div_ceil(SHARDS) * usize::from(capacity > 0),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Entry>> {
        &self.shards[key.shard_word() as usize % SHARDS]
    }

    /// Look up a key, bumping its recency on a hit. Counts the key type's
    /// hit or miss counters in the global metric registry either way.
    pub fn get(&self, key: &K) -> Option<Arc<Vec<u8>>> {
        let hit = if self.shard_cap == 0 {
            None
        } else {
            let mut g = self.shard(key).lock().unwrap();
            g.get_mut(key).map(|e| {
                // relaxed-ok: LRU stamps only order evictions; the entry
                // itself is protected by the shard mutex, and an
                // occasionally stale victim choice is harmless.
                e.stamp = self.clock.fetch_add(1, Relaxed);
                Arc::clone(&e.val)
            })
        };
        count(if hit.is_some() { K::HIT } else { K::MISS });
        hit
    }

    /// Insert (or refresh) an entry, evicting the least-recently-used
    /// entry of the shard when it is full.
    pub fn insert(&self, key: K, val: Arc<Vec<u8>>) {
        if self.shard_cap == 0 {
            return;
        }
        let mut g = self.shard(&key).lock().unwrap();
        // relaxed-ok: same LRU-stamp contract as get().
        let stamp = self.clock.fetch_add(1, Relaxed);
        if g.len() >= self.shard_cap && !g.contains_key(&key) {
            if let Some(victim) = g
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| k.clone())
            {
                g.remove(&victim);
                count(K::EVICT);
            }
        }
        g.insert(key, Entry { val, stamp });
    }

    /// Total live entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(graph: u64, algo: &str) -> CacheKey {
        CacheKey {
            graph: [graph, graph.wrapping_mul(31)],
            platform: "bnp:8".into(),
            algo: algo.into(),
        }
    }

    #[test]
    fn hit_returns_the_inserted_bytes() {
        let c = ShardedLru::new(16);
        let k = key(7, "MCP");
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), Arc::new(b"ok MCP\n".to_vec()));
        assert_eq!(*c.get(&k).unwrap(), b"ok MCP\n".to_vec());
    }

    #[test]
    fn distinct_algo_or_platform_are_distinct_entries() {
        let c = ShardedLru::new(64);
        let a = key(7, "MCP");
        let mut b = key(7, "DSC");
        c.insert(a.clone(), Arc::new(vec![1]));
        c.insert(b.clone(), Arc::new(vec![2]));
        b.platform = "bnp:2".into();
        c.insert(b.clone(), Arc::new(vec![3]));
        assert_eq!(*c.get(&a).unwrap(), vec![1]);
        assert_eq!(*c.get(&key(7, "DSC")).unwrap(), vec![2]);
        assert_eq!(*c.get(&b).unwrap(), vec![3]);
    }

    #[test]
    fn lru_evicts_the_stalest_entry_per_shard() {
        // Capacity 8 over 8 shards = 1 entry per shard; two keys in the
        // same shard force an eviction of the older one.
        let c = ShardedLru::new(8);
        let a = key(8, "A"); // 8*31 % 8 == 0
        let b = key(16, "B"); // 16*31 % 8 == 0 — same shard
        c.insert(a.clone(), Arc::new(vec![1]));
        c.insert(b.clone(), Arc::new(vec![2]));
        assert!(c.get(&a).is_none(), "older entry evicted");
        assert_eq!(*c.get(&b).unwrap(), vec![2]);
    }

    #[test]
    fn refreshing_a_key_does_not_evict() {
        let c = ShardedLru::new(8);
        let a = key(8, "A");
        c.insert(a.clone(), Arc::new(vec![1]));
        c.insert(a.clone(), Arc::new(vec![2]));
        assert_eq!(*c.get(&a).unwrap(), vec![2]);
    }

    #[test]
    fn wire_keys_see_every_byte_and_the_length() {
        let base: Vec<u8> = b"schedule tgf bnp:8 MCP\ntask 0 3\ntask 1 4\nedge 0 1 2\n".to_vec();
        let k = WireKey::of(&base);
        assert_eq!(
            WireKey::of(&base.clone()),
            k,
            "a pure function of the bytes"
        );
        // Pinned, so an edit to the shared word hasher cannot re-key the
        // wire tier unnoticed.
        assert_eq!(k.0, [0xd995_8ed7_ef56_0b62, 0xdc6d_87c3_fbd9_c022]);
        for i in 0..base.len() {
            for bit in [0x01, 0x80] {
                let mut flipped = base.clone();
                flipped[i] ^= bit;
                let f = WireKey::of(&flipped);
                assert!(
                    f.0[0] != k.0[0] && f.0[1] != k.0[1],
                    "byte {i} bit {bit:#x}"
                );
            }
        }
        let mut padded = base.clone();
        padded.push(0);
        assert_ne!(
            WireKey::of(&padded),
            k,
            "a trailing zero byte is not padding"
        );
        assert_ne!(WireKey::of(b""), WireKey::of(&[0]));
    }

    #[test]
    fn wire_tier_shares_the_lru() {
        let c: ShardedLru<WireKey> = ShardedLru::new(8);
        let k = WireKey::of(b"schedule bin bnp:2 MCP\n");
        assert!(c.get(&k).is_none());
        let bytes = Arc::new(b"ok MCP\n".to_vec());
        c.insert(k, Arc::clone(&bytes));
        assert!(
            Arc::ptr_eq(&c.get(&k).unwrap(), &bytes),
            "entries share bytes"
        );
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = ShardedLru::new(0);
        let k = key(1, "MCP");
        c.insert(k.clone(), Arc::new(vec![1]));
        assert!(c.get(&k).is_none());
        assert_eq!(c.len(), 0);
    }
}

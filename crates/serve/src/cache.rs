//! The canonicalized, versioned result cache.
//!
//! Keys are [`CacheKey`]s — already-normalized queries — paired with the
//! snapshot version that computed the result, so a hot-swap invalidates
//! every cached answer *logically* (new version, new key space) without a
//! stop-the-world flush; stale generations simply age out of the LRU.
//! The map is sharded by the key's run-stable hash so concurrent workers
//! rarely contend on the same lock, and each shard runs its own LRU
//! bounded at `capacity / shards` entries.  Eviction is generation-aware:
//! when an insert under snapshot version `v` needs a victim, entries from
//! generations older than `v` (superseded — unreachable to any future
//! lookup at `v`) are evicted first, in LRU order among themselves; only
//! a shard holding nothing stale falls back to plain LRU.  Each shard
//! keeps one LRU list per live generation, so a hit relinks one entry and
//! choosing a victim compares the lists' heads: O(live generations), not
//! O(shard size).  A shard's map hashes `(key, version)` from the key's
//! stored [`CacheKey::stable_hash`] with one multiply-and-rotate per word
//! ([`KeyHasher`]) instead of SipHash.

use acic::{CacheKey, SystemConfig};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shared, immutable top-k answer: `(configuration, predicted
/// improvement)` pairs, best first.  `Arc`d so a cache hit is a refcount
/// bump, not a copy of the candidate list.
pub type CachedTopK = Arc<Vec<(SystemConfig, f64)>>;

/// Link sentinel: no entry.
const NIL: usize = usize::MAX;

/// The shard map's hasher.  `(CacheKey, u64)` hashes as two words, the
/// key's stable hash and the version, and each word costs one multiply and
/// one rotate.  Mixing matters: every key in a shard shares the low bits
/// that [`CacheKey::shard`] picked the shard by, and the map indexes its
/// buckets by the low bits of the hash, so the finish rotates the well
/// mixed high bits of the last product down.  The hash is not keyed, but
/// a shard holds at most `capacity / shards` entries, so crafted
/// collisions cost at most a scan of one shard.
#[derive(Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(26) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[derive(Debug)]
struct Entry {
    key: (CacheKey, u64),
    /// `None` while the slot sits on the free list.
    value: Option<CachedTopK>,
    last_used: u64,
    /// Slot of the generation list this entry is on.
    gen: usize,
    /// Neighbours on that list: `prev` is colder, `next` hotter.
    prev: usize,
    next: usize,
}

/// One snapshot generation's entries, linked in LRU order: `head` is the
/// least recently used.  Every touch stamps a fresh shard tick and moves
/// the entry to `tail`, so the list stays sorted by `last_used`.
#[derive(Debug)]
struct Generation {
    version: u64,
    head: usize,
    tail: usize,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<(CacheKey, u64), usize, BuildHasherDefault<KeyHasher>>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    /// Generation lists by slot; a slot whose list has emptied is reused
    /// for the next new generation, so slots track live generations.
    gens: Vec<Generation>,
    tick: u64,
}

impl Shard {
    fn touch(&mut self, key: &(CacheKey, u64)) -> Option<CachedTopK> {
        self.tick += 1;
        let i = *self.map.get(key)?;
        self.entries[i].last_used = self.tick;
        self.move_to_tail(i);
        self.entries[i].value.clone()
    }

    fn insert(&mut self, key: (CacheKey, u64), value: CachedTopK, capacity: usize) {
        self.tick += 1;
        if let Some(&i) = self.map.get(&key) {
            let e = &mut self.entries[i];
            e.value = Some(value);
            e.last_used = self.tick;
            self.move_to_tail(i);
            return;
        }
        if self.map.len() >= capacity {
            // Victim choice is generation-aware: an entry from a snapshot
            // generation older than the one being inserted is superseded —
            // no future lookup under the new generation can hit it — so
            // any such entry is evicted (LRU among them) before a
            // same-generation entry is considered.  Only when every
            // resident entry is at or above the inserted generation does
            // plain LRU pick the victim.  That is the minimum of
            // `(version >= inserted, last_used)` over all entries, which
            // is the minimum over the generation lists' heads; ticks are
            // unique per shard, so the victim is unambiguous.
            let inserted_version = key.1;
            if let Some(victim) = self
                .gens
                .iter()
                .filter(|g| g.head != NIL)
                .min_by_key(|g| (g.version >= inserted_version, self.entries[g.head].last_used))
                .map(|g| g.head)
            {
                self.remove(victim);
            }
        }
        let gen = match self.gens.iter().position(|g| g.version == key.1 && g.head != NIL) {
            Some(g) => g,
            None => {
                let slot = Generation { version: key.1, head: NIL, tail: NIL };
                match self.gens.iter().position(|g| g.head == NIL) {
                    Some(g) => {
                        self.gens[g] = slot;
                        g
                    }
                    None => {
                        self.gens.push(slot);
                        self.gens.len() - 1
                    }
                }
            }
        };
        let entry =
            Entry { key, value: Some(value), last_used: self.tick, gen, prev: NIL, next: NIL };
        let i = match self.free.pop() {
            Some(i) => {
                self.entries[i] = entry;
                i
            }
            None => {
                self.entries.push(entry);
                self.entries.len() - 1
            }
        };
        self.push_back(i);
        self.map.insert(key, i);
    }

    /// Drop every entry of a generation older than `min_version`.
    fn evict_older_than(&mut self, min_version: u64) -> usize {
        let mut evicted = 0;
        for g in 0..self.gens.len() {
            if self.gens[g].version >= min_version {
                continue;
            }
            while self.gens[g].head != NIL {
                self.remove(self.gens[g].head);
                evicted += 1;
            }
        }
        evicted
    }

    fn remove(&mut self, i: usize) {
        self.unlink(i);
        let e = &mut self.entries[i];
        e.value = None;
        self.map.remove(&e.key);
        self.free.push(i);
    }

    fn move_to_tail(&mut self, i: usize) {
        if self.entries[i].next != NIL {
            self.unlink(i);
            self.push_back(i);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Entry { gen, prev, next, .. } = self.entries[i];
        match prev {
            NIL => self.gens[gen].head = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.gens[gen].tail = prev,
            n => self.entries[n].prev = prev,
        }
    }

    fn push_back(&mut self, i: usize) {
        let gen = self.entries[i].gen;
        let tail = self.gens[gen].tail;
        self.entries[i].prev = tail;
        self.entries[i].next = NIL;
        match tail {
            NIL => self.gens[gen].head = i,
            t => self.entries[t].next = i,
        }
        self.gens[gen].tail = i;
    }
}

/// Sharded LRU cache of top-k answers, namespaced by snapshot version.
#[derive(Debug)]
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ResultCache {
    /// A cache holding up to ~`capacity` results across `shards` shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards).max(1);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[key.shard(self.shards.len())]
    }

    /// Look up a result computed under snapshot `version`.
    pub fn get(&self, key: &CacheKey, version: u64) -> Option<CachedTopK> {
        let found = self.shard(key).lock().touch(&(*key, version));
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Store a result computed under snapshot `version`.
    pub fn insert(&self, key: CacheKey, version: u64, value: CachedTopK) {
        self.shard(&key).lock().insert((key, version), value, self.per_shard_capacity);
    }

    /// Drop every entry computed under a snapshot version older than
    /// `min_version`; returns how many entries were evicted.
    ///
    /// Versioned keys make stale generations *unreachable* the instant a
    /// hot-swap publishes, but unreachable is not evicted: under sustained
    /// republish churn with little new traffic, dead generations squatted
    /// in the LRU until capacity pressure happened to push them out — the
    /// cache's resident size tracked the number of publishes, not the
    /// working set.  [`crate::Server`] calls this on every publish, keeping
    /// the current and previous generations (in-flight batches may still
    /// answer on the generation they loaded).
    pub fn evict_older_than(&self, min_version: u64) -> usize {
        self.shards.iter().map(|s| s.lock().evict_older_than(min_version)).sum()
    }

    /// Entries currently cached (all shards, all versions).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that missed since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups answered from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let (h, m) = (self.hits() as f64, self.misses() as f64);
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acic::space::SpacePoint;
    use acic::{Objective, SystemConfig};
    use acic_cloudsim::instance::InstanceType;
    use std::sync::Arc;

    fn key(nprocs: usize, k: usize) -> CacheKey {
        let mut app = SpacePoint::default_point().app;
        app.nprocs = nprocs;
        app.io_procs = nprocs;
        CacheKey::new(&app, Objective::Performance, InstanceType::Cc2_8xlarge, k)
    }

    fn result(tag: f64) -> CachedTopK {
        Arc::new(vec![(SystemConfig::baseline(), tag)])
    }

    #[test]
    fn hit_after_insert_miss_before() {
        let c = ResultCache::new(16, 2);
        let k = key(64, 3);
        assert!(c.get(&k, 1).is_none());
        c.insert(k, 1, result(1.5));
        let got = c.get(&k, 1).expect("cached");
        assert_eq!(got[0].1, 1.5);
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn new_version_logically_invalidates() {
        let c = ResultCache::new(16, 2);
        let k = key(64, 3);
        c.insert(k, 1, result(1.0));
        assert!(c.get(&k, 2).is_none(), "v2 must never see v1's answer");
        c.insert(k, 2, result(2.0));
        assert_eq!(c.get(&k, 1).unwrap()[0].1, 1.0, "v1 entry still intact until evicted");
        assert_eq!(c.get(&k, 2).unwrap()[0].1, 2.0);
    }

    #[test]
    fn superseded_generations_are_evicted_before_in_generation_lru_victims() {
        // Single shard at capacity 4, filled across two snapshot
        // generations.  The gen-1 entries are deliberately made the *most*
        // recently used, so plain LRU would sacrifice the colder gen-2
        // entries — the versioned policy must instead clear out the
        // superseded generation first.
        let c = ResultCache::new(4, 1);
        let (a, b, x, y, z, w) = (key(32, 1), key(64, 2), key(128, 3), key(256, 4), key(32, 5), key(64, 6));
        c.insert(a, 1, result(1.0));
        c.insert(b, 1, result(1.1));
        c.insert(x, 2, result(2.0));
        c.insert(y, 2, result(2.1));
        // Touch the gen-1 entries: hottest by LRU, stale by generation.
        assert!(c.get(&a, 1).is_some());
        assert!(c.get(&b, 1).is_some());
        // Two more gen-2 inserts must claim both gen-1 slots (LRU order
        // within the stale class: a before b)...
        c.insert(z, 2, result(2.2));
        assert!(c.get(&a, 1).is_none(), "stale gen-1 LRU entry evicted first");
        assert!(c.get(&b, 1).is_some(), "stale class evicts in LRU order");
        c.insert(w, 2, result(2.3));
        assert!(c.get(&b, 1).is_none(), "second stale entry evicted next");
        for k in [&x, &y, &z, &w] {
            assert!(c.get(k, 2).is_some(), "no in-generation entry was sacrificed");
        }
        // ...and only once no superseded entry remains does LRU run within
        // the current generation (x is now coldest after the sweep above).
        let fresh = key(128, 7);
        let x_last_used_refreshed = c.get(&x, 2).is_some(); // touch x: now y is coldest
        assert!(x_last_used_refreshed);
        c.insert(fresh, 2, result(2.4));
        assert!(c.get(&y, 2).is_none(), "in-generation LRU victim once no stale entries remain");
        assert!(c.get(&x, 2).is_some());
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        // Single shard, capacity 2: touch the first entry, insert a third,
        // and the untouched second entry is the victim.
        let c = ResultCache::new(2, 1);
        let (k1, k2, k3) = (key(32, 1), key(64, 2), key(128, 3));
        c.insert(k1, 1, result(1.0));
        c.insert(k2, 1, result(2.0));
        assert!(c.get(&k1, 1).is_some());
        c.insert(k3, 1, result(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&k1, 1).is_some(), "recently-used survives");
        assert!(c.get(&k2, 1).is_none(), "coldest entry evicted");
        assert!(c.get(&k3, 1).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let c = ResultCache::new(2, 1);
        let (k1, k2) = (key(32, 1), key(64, 2));
        c.insert(k1, 1, result(1.0));
        c.insert(k2, 1, result(2.0));
        c.insert(k1, 1, result(1.5));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k1, 1).unwrap()[0].1, 1.5);
        assert!(c.get(&k2, 1).is_some());
    }

    #[test]
    fn evict_older_than_drops_only_stale_generations() {
        let c = ResultCache::new(16, 2);
        let (k1, k2) = (key(32, 1), key(64, 2));
        c.insert(k1, 1, result(1.0));
        c.insert(k2, 1, result(1.0));
        c.insert(k1, 2, result(2.0));
        c.insert(k1, 3, result(3.0));
        assert_eq!(c.evict_older_than(2), 2, "both v1 entries go");
        assert!(c.get(&k1, 1).is_none());
        assert!(c.get(&k2, 1).is_none());
        assert_eq!(c.get(&k1, 2).unwrap()[0].1, 2.0, "v2 survives");
        assert_eq!(c.get(&k1, 3).unwrap()[0].1, 3.0);
        assert_eq!(c.evict_older_than(2), 0, "idempotent once clean");
    }

    #[test]
    fn memory_stays_bounded_across_a_hundred_republishes() {
        // The stale-generation bug: a big cache under republish churn with
        // a small working set accumulated one dead entry per (key, old
        // version) because LRU pressure alone never arrived.  With the
        // publish-time sweep (keep current + previous generation) the
        // resident size is bounded by 2 generations × working set,
        // regardless of how many versions have come and gone.
        let working_set: Vec<CacheKey> = (0..4).map(|i| key(32 << i, 3)).collect();
        let c = ResultCache::new(4096, 8);
        for version in 1..=100u64 {
            for k in &working_set {
                c.insert(*k, version, result(version as f64));
            }
            // What Server::publish does on each hot-swap.
            c.evict_older_than(version.saturating_sub(1));
            assert!(
                c.len() <= 2 * working_set.len(),
                "version {version}: {} entries resident, stale generations leaked",
                c.len()
            );
        }
        // Current generation still answers after all that churn.
        for k in &working_set {
            assert_eq!(c.get(k, 100).unwrap()[0].1, 100.0);
        }
    }

    /// The shard as it was before the generation lists: a whole-map scan
    /// for the victim on every insert at capacity.  Kept as the oracle the
    /// indexed shard must match victim for victim.
    #[derive(Default)]
    struct ScanShard {
        map: HashMap<(CacheKey, u64), (u64, CachedTopK)>,
        tick: u64,
    }

    impl ScanShard {
        fn touch(&mut self, key: &(CacheKey, u64)) -> Option<CachedTopK> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(key).map(|e| {
                e.0 = tick;
                e.1.clone()
            })
        }

        fn insert(&mut self, key: (CacheKey, u64), value: CachedTopK, capacity: usize) {
            self.tick += 1;
            if self.map.len() >= capacity && !self.map.contains_key(&key) {
                let inserted_version = key.1;
                if let Some(victim) = self
                    .map
                    .iter()
                    .min_by_key(|((_, v), e)| (*v >= inserted_version, e.0))
                    .map(|(k, _)| *k)
                {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(key, (self.tick, value));
        }

        fn evict_older_than(&mut self, min_version: u64) -> usize {
            let before = self.map.len();
            self.map.retain(|(_, v), _| *v >= min_version);
            before - self.map.len()
        }
    }

    #[test]
    fn indexed_eviction_replays_the_full_scan_exactly() {
        use acic_cloudsim::rng::SplitMix64;
        let keys: Vec<CacheKey> = (0..12).map(|i| key(16 << (i % 4), 1 + i / 4)).collect();
        let tag = |r: &Option<CachedTopK>| r.as_ref().map(|v| v[0].1.to_bits());
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let capacity = 1 + rng.below(8);
            let (mut indexed, mut scan) = (Shard::default(), ScanShard::default());
            let mut current = 1u64;
            let mut generations = 1;
            for step in 0..2_000 {
                let k = keys[rng.below(keys.len())];
                // Mostly the current generation, sometimes an older one
                // (an in-flight batch answering on the snapshot it loaded).
                let v = current - rng.below(current.min(3) as usize) as u64;
                match rng.below(100) {
                    0..=44 => {
                        let (a, b) = (indexed.touch(&(k, v)), scan.touch(&(k, v)));
                        assert_eq!(tag(&a), tag(&b), "seed {seed} step {step}: get diverged");
                    }
                    45..=93 => {
                        let value = result((seed * 10_000 + step) as f64);
                        indexed.insert((k, v), Arc::clone(&value), capacity);
                        scan.insert((k, v), value, capacity);
                    }
                    94..=97 => {
                        current += 1;
                        generations += 1;
                    }
                    _ => {
                        let min = current.saturating_sub(1);
                        assert_eq!(indexed.evict_older_than(min), scan.evict_older_than(min));
                    }
                }
                assert_eq!(indexed.map.len(), scan.map.len(), "seed {seed} step {step}");
                for (key, (_, value)) in &scan.map {
                    let i = indexed.map[key];
                    assert_eq!(tag(&indexed.entries[i].value), tag(&Some(value.clone())));
                }
            }
            assert!(generations >= 3, "seed {seed}: the replay must span 3+ generations");
        }
    }

    #[test]
    fn a_shards_keys_spread_over_the_map_buckets() {
        // Every key of one shard shares `stable_hash % shards`.  The map
        // indexes buckets by the low bits of its hash, so those bits must
        // differ between the shard's keys.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let keys: Vec<CacheKey> =
            (1..=4096).map(|n| key(n, 3)).filter(|k| k.shard(8) == 0).take(256).collect();
        assert_eq!(keys.len(), 256);
        let buckets: std::collections::BTreeSet<u64> =
            keys.iter().map(|k| build.hash_one((*k, 1u64)) & 63).collect();
        assert!(buckets.len() >= 48, "256 keys of one shard fill {} of 64 buckets", buckets.len());
        assert_ne!(build.hash_one((keys[0], 1u64)), build.hash_one((keys[0], 2u64)));
    }

    #[test]
    fn sharding_is_deterministic_and_capacity_splits() {
        let c = ResultCache::new(8, 4);
        assert_eq!(c.per_shard_capacity, 2);
        let k = key(64, 3);
        // Same key always lands in the same shard: inserting twice via
        // different call sites still yields exactly one entry.
        c.insert(k, 1, result(1.0));
        c.insert(k, 1, result(1.0));
        assert_eq!(c.len(), 1);
    }
}

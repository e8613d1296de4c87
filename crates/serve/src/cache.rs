//! The result cache: one plain LRU per serve worker.
//!
//! Every lookup of a key happens on one worker: a request is queued on
//! the shard its [`CacheKey::shard`] picks, and a worker drains only its
//! own shard queue.  So each worker owns a [`ResultCache`] outright, with
//! no lock and no shared counters, keyed by the [`CacheKey`] alone.  A
//! worker clears its cache when a generation marker reaches it: queues
//! are FIFO, so every job admitted under the old generation has been
//! answered by then, and no later lookup can want an old entry.
//!
//! Entries are linked in LRU order, so a hit relinks one entry and the
//! victim of an insert at capacity is the list's head, whose slot the new
//! entry takes.  The map hashes each key's stored
//! [`CacheKey::stable_hash`] with one multiply and one rotate
//! ([`KeyHasher`]) instead of SipHash.

use acic::{CacheKey, SystemConfig};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A shared, immutable top-k answer: `(configuration, predicted
/// improvement)` pairs, best first.  `Arc`d so a cache hit is a refcount
/// bump, not a copy of the candidate list.
pub type CachedTopK = Arc<Vec<(SystemConfig, f64)>>;

/// Link sentinel: no entry.
const NIL: usize = usize::MAX;

/// The map's hasher.  A [`CacheKey`] hashes as one word, its stable hash,
/// at one multiply and one rotate.  Mixing matters: every key of a worker
/// shares the low bits that [`CacheKey::shard`] picked the worker by, and
/// the map indexes its buckets by the low bits of the hash, so the finish
/// rotates the well mixed high bits of the product down.  The hash is not
/// keyed, but a worker holds at most its share of the capacity, so
/// crafted collisions cost at most a scan of one worker's cache.
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
    key: CacheKey,
    value: CachedTopK,
    /// Neighbours on the LRU list: `prev` is colder, `next` hotter.
    prev: usize,
    next: usize,
}

/// One worker's LRU cache of top-k answers.
#[derive(Debug)]
pub struct ResultCache {
    map: HashMap<CacheKey, usize, BuildHasherDefault<KeyHasher>>,
    entries: Vec<Entry>,
    /// The least recently used entry.
    head: usize,
    /// The most recently used entry.
    tail: usize,
    capacity: usize,
}

impl ResultCache {
    /// A cache holding up to `capacity` (at least 1) results.
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self { map: HashMap::default(), entries: Vec::new(), head: NIL, tail: NIL, capacity }
    }

    /// Look up `key`, marking it the most recently used.
    pub fn get(&mut self, key: &CacheKey) -> Option<CachedTopK> {
        let i = *self.map.get(key)?;
        self.move_to_tail(i);
        Some(Arc::clone(&self.entries[i].value))
    }

    /// Store `value` under `key` as the most recently used entry, evicting
    /// the least recently used one if the cache is full.
    pub fn insert(&mut self, key: CacheKey, value: CachedTopK) {
        if let Some(&i) = self.map.get(&key) {
            self.entries[i].value = value;
            self.move_to_tail(i);
            return;
        }
        let entry = Entry { key, value, prev: NIL, next: NIL };
        let i = if self.map.len() < self.capacity {
            self.entries.push(entry);
            self.entries.len() - 1
        } else {
            let victim = self.head;
            self.unlink(victim);
            self.map.remove(&self.entries[victim].key);
            self.entries[victim] = entry;
            victim
        };
        self.push_back(i);
        self.map.insert(key, i);
    }

    /// Drop every entry; returns how many there were.
    pub fn clear(&mut self) -> usize {
        let n = self.map.len();
        self.map.clear();
        self.entries.clear();
        (self.head, self.tail) = (NIL, NIL);
        n
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn move_to_tail(&mut self, i: usize) {
        if self.entries[i].next != NIL {
            self.unlink(i);
            self.push_back(i);
        }
    }

    fn unlink(&mut self, i: usize) {
        let Entry { prev, next, .. } = self.entries[i];
        match prev {
            NIL => self.head = next,
            p => self.entries[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n].prev = prev,
        }
    }

    fn push_back(&mut self, i: usize) {
        self.entries[i].prev = self.tail;
        self.entries[i].next = NIL;
        match self.tail {
            NIL => self.head = i,
            t => self.entries[t].next = i,
        }
        self.tail = i;
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
        let mut c = ResultCache::new(16);
        let k = key(64, 3);
        assert!(c.get(&k).is_none());
        c.insert(k, result(1.5));
        assert_eq!(c.get(&k).expect("cached")[0].1, 1.5);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Capacity 2: touch the first entry, insert a third, and the
        // untouched second entry is the victim.
        let mut c = ResultCache::new(2);
        let (k1, k2, k3) = (key(32, 1), key(64, 2), key(128, 3));
        c.insert(k1, result(1.0));
        c.insert(k2, result(2.0));
        assert!(c.get(&k1).is_some());
        c.insert(k3, result(3.0));
        assert_eq!(c.len(), 2);
        assert!(c.get(&k1).is_some(), "recently-used survives");
        assert!(c.get(&k2).is_none(), "coldest entry evicted");
        assert!(c.get(&k3).is_some());
    }

    #[test]
    fn reinserting_an_existing_key_does_not_evict() {
        let mut c = ResultCache::new(2);
        let (k1, k2) = (key(32, 1), key(64, 2));
        c.insert(k1, result(1.0));
        c.insert(k2, result(2.0));
        c.insert(k1, result(1.5));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(&k1).unwrap()[0].1, 1.5);
        assert!(c.get(&k2).is_some());
    }

    #[test]
    fn clear_drops_every_entry_and_counts_them() {
        let mut c = ResultCache::new(4);
        for n in [32, 64, 128] {
            c.insert(key(n, 3), result(n as f64));
        }
        assert_eq!(c.clear(), 3);
        assert!(c.is_empty());
        assert!(c.get(&key(32, 3)).is_none());
        assert_eq!(c.clear(), 0, "idempotent once clean");
        c.insert(key(32, 3), result(2.0));
        assert_eq!(c.get(&key(32, 3)).unwrap()[0].1, 2.0);
    }

    /// The LRU as a whole-map scan: each touch stamps a unique tick, and
    /// the victim is the entry with the smallest.  Kept as the oracle the
    /// linked LRU must match victim for victim.
    #[derive(Default)]
    struct ScanShard {
        map: HashMap<CacheKey, (u64, CachedTopK)>,
        tick: u64,
    }

    impl ScanShard {
        fn get(&mut self, key: &CacheKey) -> Option<CachedTopK> {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(key).map(|e| {
                e.0 = tick;
                e.1.clone()
            })
        }

        fn insert(&mut self, key: CacheKey, value: CachedTopK, capacity: usize) {
            self.tick += 1;
            if self.map.len() >= capacity && !self.map.contains_key(&key) {
                if let Some(victim) = self.map.iter().min_by_key(|(_, e)| e.0).map(|(k, _)| *k) {
                    self.map.remove(&victim);
                }
            }
            self.map.insert(key, (self.tick, value));
        }

        fn clear(&mut self) -> usize {
            let n = self.map.len();
            self.map.clear();
            n
        }
    }

    #[test]
    fn the_linked_lru_replays_the_full_scan_exactly() {
        use acic_cloudsim::rng::SplitMix64;
        let keys: Vec<CacheKey> = (0..12).map(|i| key(16 << (i % 4), 1 + i / 4)).collect();
        let tag = |r: Option<CachedTopK>| r.map(|v| v[0].1.to_bits());
        for seed in 0..40u64 {
            let mut rng = SplitMix64::new(seed);
            let capacity = 1 + rng.below(8);
            let (mut lru, mut scan) = (ResultCache::new(capacity), ScanShard::default());
            let mut clears = 0;
            for step in 0..2_000 {
                let k = keys[rng.below(keys.len())];
                match rng.below(100) {
                    0..=47 => {
                        let (a, b) = (lru.get(&k), scan.get(&k));
                        assert_eq!(tag(a), tag(b), "seed {seed} step {step}: get diverged");
                    }
                    48..=97 => {
                        let value = result((seed * 10_000 + step) as f64);
                        lru.insert(k, Arc::clone(&value));
                        scan.insert(k, value, capacity);
                    }
                    _ => {
                        assert_eq!(lru.clear(), scan.clear(), "seed {seed} step {step}");
                        clears += 1;
                    }
                }
                assert_eq!(lru.len(), scan.map.len(), "seed {seed} step {step}");
                for (key, (_, value)) in &scan.map {
                    let i = lru.map[key];
                    assert_eq!(lru.entries[i].value[0].1.to_bits(), value[0].1.to_bits());
                }
            }
            assert!(clears >= 3, "seed {seed}: the replay must clear 3+ times");
        }
    }

    #[test]
    fn a_shards_keys_spread_over_the_map_buckets() {
        // Every key of one shard, and so of one worker's cache, shares
        // `stable_hash % workers`.  The map indexes buckets by the low bits
        // of its hash, so those bits must differ between the shard's keys.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<KeyHasher>::default();
        let keys: Vec<CacheKey> =
            (1..=4096).map(|n| key(n, 3)).filter(|k| k.shard(8) == 0).take(256).collect();
        assert_eq!(keys.len(), 256);
        let buckets: std::collections::BTreeSet<u64> =
            keys.iter().map(|k| build.hash_one(k) & 63).collect();
        assert!(buckets.len() >= 48, "256 keys of one shard fill {} of 64 buckets", buckets.len());
    }
}

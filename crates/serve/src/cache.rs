//! A shared, sharded, single-flight result cache: the serving-layer
//! complement of the per-run [`ImplicationCache`].
//!
//! `xnf-serve` handles many concurrent requests over a small set of hot
//! schemas, so the expensive artifacts — a normalization trace, an XNF
//! verdict, a full analysis — should be computed **once per distinct
//! `(D, Σ)` and operation** and served from memory thereafter. This
//! module provides the machinery:
//!
//! * [`SpecKey`] — a canonical content key for `(D, Σ)`: the
//!   parsed DTD and FD set are re-rendered through their canonical
//!   `Display` forms, so two textually different but semantically
//!   identical specs (whitespace, comments, FD order is *not*
//!   canonicalized by design — `Σ` is ordered in this system) share an
//!   entry exactly when the engine would treat them identically.
//! * [`ShardedCache`] — `N`-way sharded map with per-shard locks, an
//!   LRU byte cap bounding the resident set, and **single-flight**
//!   computation: concurrent requests for the same key coalesce onto
//!   one computing leader while the rest block on the result. A failed
//!   or exhausted computation caches *nothing* — waiters observe the
//!   miss and retry as new leaders, so a fault can never poison the
//!   cache with a partial verdict.
//!
//! The cache stores opaque `Arc<V>` values plus a caller-supplied byte
//! size (for the LRU cap); it deliberately knows nothing about HTTP.
//!
//! [`ImplicationCache`]: xnf_core::ImplicationCache

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use xnf_core::XmlFdSet;
use xnf_dtd::Dtd;

/// The canonical content of a parsed `(D, Σ)` pair, rendered once per
/// request; [`SpecKey::key`] builds every key the request needs from
/// it. Built from the *parsed* spec's canonical renderings, so
/// formatting differences in the source text coalesce.
pub struct SpecKey(String);

impl SpecKey {
    /// Renders `dtd` and `sigma` through their canonical `Display`
    /// forms.
    pub fn new(dtd: &Dtd, sigma: &XmlFdSet) -> SpecKey {
        SpecKey(format!("{dtd}\u{1}{sigma}"))
    }

    /// The key of this spec under a named operation and an
    /// operation-options fingerprint (e.g. `"sigma-only"` — the empty
    /// string for defaults).
    pub fn key(&self, op: &str, options: &str) -> String {
        format!("{op}\u{1}{options}\u{1}{}", self.0)
    }
}

/// Aggregate counters of a `ShardedCache` since construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from a resident entry.
    pub hits: u64,
    /// Lookups that computed (as leader) or waited on a leader that
    /// failed (and then led a retry).
    pub misses: u64,
    /// Lookups that blocked on another request's in-flight computation
    /// and received its result (coalesced work).
    pub joined: u64,
    /// Entries evicted by the LRU byte cap.
    pub evictions: u64,
    /// Resident payload bytes across all shards.
    pub resident_bytes: u64,
    /// Resident entry count across all shards.
    pub entries: u64,
}

/// One in-flight computation: waiters block on the condvar until the
/// leader publishes `Some(result)` (success) or `None` (failure — the
/// entry is gone and a waiter must retry as the new leader).
struct Flight<V> {
    done: Mutex<Option<Option<Arc<V>>>>,
    cv: Condvar,
}

enum Slot<V> {
    Pending(Arc<Flight<V>>),
    Ready {
        value: Arc<V>,
        bytes: usize,
        last_used: u64,
    },
}

struct Shard<V> {
    map: HashMap<Arc<str>, Slot<V>>,
    /// The keys of the `Ready` slots by `last_used`, oldest first: the
    /// order `make_room` evicts in, without scanning the map. Ticks
    /// come from one clock, so no two entries share one.
    lru: BTreeMap<u64, Arc<str>>,
    resident_bytes: usize,
}

/// A sharded, byte-capped, single-flight cache of `Arc<V>` results
/// keyed by [`SpecKey::key`] strings. See the module docs.
pub struct ShardedCache<V> {
    shards: Vec<Mutex<Shard<V>>>,
    /// Per-shard byte cap (total cap divided across shards), so one
    /// global lock is never needed for eviction.
    shard_byte_cap: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    joined: AtomicU64,
    evictions: AtomicU64,
}

impl<V> std::fmt::Debug for ShardedCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedCache")
            .field("shards", &self.shards.len())
            .field("shard_byte_cap", &self.shard_byte_cap)
            .finish_non_exhaustive()
    }
}

/// Publishes a flight's verdict and wakes every waiter (free function
/// so the panic-abort guard in `lead` can call it without a `Self`
/// type).
fn publish_flight<V>(flight: &Flight<V>, result: Option<Arc<V>>) {
    if let Ok(mut done) = flight.done.lock() {
        *done = Some(result);
    }
    flight.cv.notify_all();
}

fn shard_of(key: &str, n: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % n
}

impl<V> ShardedCache<V> {
    /// A cache with `shards` independent shards and a total resident
    /// byte cap of `byte_cap` (split evenly across shards; each shard
    /// evicts LRU entries once its slice would overflow). A `byte_cap`
    /// of 0 still caches in-flight computations (single-flight keeps
    /// coalescing) but retains no completed entries.
    pub fn new(shards: usize, byte_cap: usize) -> ShardedCache<V> {
        let n = shards.max(1);
        ShardedCache {
            shards: (0..n)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        lru: BTreeMap::new(),
                        resident_bytes: 0,
                    })
                })
                .collect(),
            shard_byte_cap: byte_cap / n,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            joined: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Looks up `key`; on a miss, runs `compute` (as the single leader —
    /// concurrent callers with the same key block and share the result).
    /// `compute` returns the value plus its resident byte size. On
    /// `Err`, nothing is cached and every waiter retries leadership, so
    /// no error and no partial result ever becomes resident.
    ///
    /// Returns the value and whether it was served from cache (a
    /// coalesced join counts as a hit for reporting purposes).
    ///
    /// # Errors
    ///
    /// Propagates the leader's `compute` error to the leader only;
    /// waiters retry and surface their own outcome.
    pub fn get_or_compute<E>(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<(Arc<V>, bool), E> {
        let shard_ix = shard_of(key, self.shards.len());
        loop {
            let flight = {
                // A poisoned shard (a panicking compute elsewhere)
                // degrades to compute-without-caching: correctness
                // over reuse.
                let Ok(mut guard) = self.shards[shard_ix].lock() else {
                    let (v, _) = compute()?;
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Ok((Arc::new(v), false));
                };
                let shard = &mut *guard;
                match shard.map.get_mut(key) {
                    Some(Slot::Ready {
                        value, last_used, ..
                    }) => {
                        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                        let was = std::mem::replace(last_used, tick);
                        if let Some(k) = shard.lru.remove(&was) {
                            shard.lru.insert(tick, k);
                        }
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((Arc::clone(value), true));
                    }
                    Some(Slot::Pending(f)) => Arc::clone(f),
                    None => {
                        // Claim leadership: install the flight, drop the
                        // shard lock, compute outside it.
                        let flight = Arc::new(Flight {
                            done: Mutex::new(None),
                            cv: Condvar::new(),
                        });
                        let key: Arc<str> = Arc::from(key);
                        shard
                            .map
                            .insert(Arc::clone(&key), Slot::Pending(Arc::clone(&flight)));
                        drop(guard);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return self.lead(&key, shard_ix, &flight, compute);
                    }
                }
            };
            // Joiner path: wait for the leader's verdict; on a failed
            // leader, loop and contend for leadership again.
            if let Some(value) = self.join(&flight) {
                self.joined.fetch_add(1, Ordering::Relaxed);
                return Ok((value, true));
            }
        }
    }

    fn lead<E>(
        &self,
        key: &Arc<str>,
        shard_ix: usize,
        flight: &Arc<Flight<V>>,
        compute: impl FnOnce() -> Result<(V, usize), E>,
    ) -> Result<(Arc<V>, bool), E> {
        // If `compute` panics, the unwind must not strand the pending
        // slot (and the waiters parked on it): this guard removes the
        // slot and publishes a failure so every waiter retries. It is
        // disarmed on the normal path, where the code below does the
        // same bookkeeping with the actual outcome in hand.
        struct Abort<'a, V> {
            shard: &'a Mutex<Shard<V>>,
            key: &'a str,
            flight: &'a Arc<Flight<V>>,
            armed: bool,
        }
        impl<V> Drop for Abort<'_, V> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                if let Ok(mut shard) = self.shard.lock() {
                    shard.map.remove(self.key);
                }
                publish_flight(self.flight, None);
            }
        }
        let mut abort = Abort {
            shard: &self.shards[shard_ix],
            key,
            flight,
            armed: true,
        };
        let outcome = compute();
        abort.armed = false;
        drop(abort);
        let Ok(mut shard) = self.shards[shard_ix].lock() else {
            // Can't publish; wake waiters with a failure so they
            // retry rather than hang, then surface our own outcome.
            Self::publish(flight, None);
            return outcome.map(|(v, _)| (Arc::new(v), false));
        };
        match outcome {
            Ok((value, bytes)) => {
                let value = Arc::new(value);
                if bytes <= self.shard_byte_cap {
                    self.make_room(&mut shard, bytes);
                    let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
                    shard.map.insert(
                        Arc::clone(key),
                        Slot::Ready {
                            value: Arc::clone(&value),
                            bytes,
                            last_used: tick,
                        },
                    );
                    shard.lru.insert(tick, Arc::clone(key));
                    shard.resident_bytes += bytes;
                } else {
                    // Oversized result: serve it, cache nothing.
                    shard.map.remove(key);
                }
                drop(shard);
                Self::publish(flight, Some(Arc::clone(&value)));
                Ok((value, false))
            }
            Err(e) => {
                // Remove the pending slot so the failure is not
                // observable later — no poisoned entries.
                shard.map.remove(key);
                drop(shard);
                Self::publish(flight, None);
                Err(e)
            }
        }
    }

    /// Evicts least-recently-used entries until `bytes` more fit under
    /// the shard cap. Only `Ready` entries are in the LRU index, so
    /// pending flights (the leader's own among them) are never evicted.
    fn make_room(&self, shard: &mut Shard<V>, bytes: usize) {
        while shard.resident_bytes + bytes > self.shard_byte_cap {
            let Some((_, victim)) = shard.lru.pop_first() else {
                return;
            };
            if let Some(Slot::Ready { bytes: freed, .. }) = shard.map.remove(&*victim) {
                shard.resident_bytes -= freed;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn publish(flight: &Arc<Flight<V>>, result: Option<Arc<V>>) {
        publish_flight(flight, result);
    }

    /// Blocks until the flight's leader publishes; `None` means the
    /// leader failed and the caller should retry. The published verdict
    /// is *read*, never taken: any number of waiters can join one
    /// flight, and each must observe the same outcome.
    fn join(&self, flight: &Arc<Flight<V>>) -> Option<Arc<V>> {
        let mut done = flight.done.lock().ok()?;
        loop {
            if let Some(outcome) = done.as_ref() {
                return outcome.clone();
            }
            done = flight.cv.wait(done).ok()?;
        }
    }

    /// Point-in-time counters (resident figures summed across shards).
    pub fn stats(&self) -> CacheStats {
        let mut resident_bytes = 0u64;
        let mut entries = 0u64;
        for shard in &self.shards {
            if let Ok(s) = shard.lock() {
                resident_bytes += s.resident_bytes as u64;
                entries += s.lru.len() as u64;
            }
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            joined: self.joined.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes,
            entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// The key in one call, rendering the spec for every key: the
    /// reference a [`SpecKey`] rendered once must reproduce byte for
    /// byte, or result-cache and estimate-book lookups would miss.
    fn spec_cache_key(op: &str, dtd: &Dtd, sigma: &XmlFdSet, options: &str) -> String {
        format!("{op}\u{1}{options}\u{1}{dtd}\u{1}{sigma}")
    }

    #[test]
    fn every_waiter_of_one_flight_receives_the_result() {
        // One slow leader, several joiners on the same key: all of
        // them must return the published value (a regression here
        // hangs — the old `take()`-based join woke only one waiter).
        let cache: Arc<ShardedCache<String>> = Arc::new(ShardedCache::new(2, 1 << 20));
        let gate = Arc::new(std::sync::Barrier::new(4));
        let mut handles = Vec::new();
        for _ in 0..3 {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            handles.push(std::thread::spawn(move || {
                gate.wait();
                let (v, _) = cache
                    .get_or_compute("k", || {
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        Ok::<_, ()>(("slow".to_string(), 4))
                    })
                    .unwrap();
                (*v).clone()
            }));
        }
        gate.wait();
        for h in handles {
            assert_eq!(h.join().unwrap(), "slow");
        }
        let s = cache.stats();
        assert_eq!(s.misses, 1, "{s:?}");
        assert_eq!(s.hits + s.joined, 2, "{s:?}");
    }

    #[test]
    fn a_panicking_leader_does_not_strand_waiters() {
        let cache: Arc<ShardedCache<String>> = Arc::new(ShardedCache::new(1, 1 << 20));
        let gate = Arc::new(std::sync::Barrier::new(2));
        // Leader: panics mid-compute.
        let leader = {
            let cache = Arc::clone(&cache);
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = cache.get_or_compute::<()>("k", || {
                        gate.wait();
                        std::thread::sleep(std::time::Duration::from_millis(30));
                        panic!("leader dies")
                    });
                }));
            })
        };
        // Waiter: joins the pending flight, must not hang, and must be
        // able to win leadership on retry.
        gate.wait();
        let (v, hit) = cache
            .get_or_compute("k", || Ok::<_, ()>(("recovered".to_string(), 9)))
            .unwrap();
        assert_eq!(*v, "recovered");
        assert!(!hit);
        leader.join().unwrap();
        // No partial entry: the resident value is the waiter's.
        let (again, hit) = cache
            .get_or_compute("k", || Err::<(String, usize), &str>("cached"))
            .unwrap();
        assert!(hit);
        assert_eq!(*again, "recovered");
    }

    #[test]
    fn hit_after_miss_returns_the_same_arc() {
        let cache: ShardedCache<String> = ShardedCache::new(8, 1 << 20);
        let (a, hit) = cache
            .get_or_compute("k", || Ok::<_, ()>(("value".to_string(), 5)))
            .unwrap();
        assert!(!hit);
        let (b, hit) = cache
            .get_or_compute("k", || Err::<(String, usize), &str>("must not recompute"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.resident_bytes, 5);
    }

    #[test]
    fn errors_are_never_cached() {
        let cache: ShardedCache<String> = ShardedCache::new(2, 1 << 20);
        let err = cache
            .get_or_compute("k", || Err::<(String, usize), _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        // The next lookup computes fresh and can succeed.
        let (v, hit) = cache
            .get_or_compute("k", || Ok::<_, &str>(("ok".to_string(), 2)))
            .unwrap();
        assert!(!hit);
        assert_eq!(*v, "ok");
    }

    #[test]
    fn lru_byte_cap_evicts_oldest() {
        // One shard so the cap is exact: room for two 4-byte entries.
        let cache: ShardedCache<String> = ShardedCache::new(1, 8);
        for key in ["a", "b"] {
            cache
                .get_or_compute(key, || Ok::<_, ()>((key.repeat(4), 4)))
                .unwrap();
        }
        // Touch "a" so "b" is the LRU victim when "c" arrives.
        let (_, hit) = cache
            .get_or_compute("a", || Ok::<_, ()>((String::new(), 0)))
            .unwrap();
        assert!(hit, "touching a resident entry must not recompute");
        cache
            .get_or_compute("c", || Ok::<_, ()>(("cccc".to_string(), 4)))
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.resident_bytes, 8);
        // "a" survived, "b" was evicted.
        let (_, hit_a) = cache
            .get_or_compute("a", || Ok::<_, ()>(("resident".to_string(), 4)))
            .unwrap();
        assert!(hit_a);
        let (_, hit_b) = cache
            .get_or_compute("b", || Ok::<_, ()>(("fresh".to_string(), 4)))
            .unwrap();
        assert!(!hit_b);
    }

    #[test]
    fn eviction_follows_recency_across_hits_and_multi_entry_evictions() {
        // A reference LRU list (oldest first) next to a one-shard cache:
        // after every lookup both hold the same entries, so the index
        // evicts exactly what a scan for the oldest tick would, also
        // when one arrival must push out several entries.
        const CAP: usize = 40;
        let cache: ShardedCache<String> = ShardedCache::new(1, CAP);
        let mut model: Vec<(String, usize)> = Vec::new();
        let mut evicted = 0u64;
        let mut state = 7u64;
        for _ in 0..2000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let key = format!("k{}", (state >> 33) % 12);
            let bytes = 1 + ((state >> 20) % 12) as usize;
            let (_, hit) = cache
                .get_or_compute(&key, || Ok::<_, ()>((key.clone(), bytes)))
                .unwrap();
            let resident = model.iter().position(|(k, _)| *k == key);
            assert_eq!(hit, resident.is_some(), "{key}");
            if let Some(i) = resident {
                let touched = model.remove(i);
                model.push(touched);
            } else {
                while model.iter().map(|e| e.1).sum::<usize>() + bytes > CAP {
                    model.remove(0);
                    evicted += 1;
                }
                model.push((key, bytes));
            }
            let s = cache.stats();
            assert_eq!(s.entries, model.len() as u64);
            assert_eq!(
                s.resident_bytes,
                model.iter().map(|e| e.1).sum::<usize>() as u64
            );
            assert_eq!(s.evictions, evicted);
        }
        assert!(evicted > 100, "the sequence must exercise eviction");
    }

    #[test]
    fn oversized_results_are_served_but_not_resident() {
        let cache: ShardedCache<String> = ShardedCache::new(1, 4);
        let (v, hit) = cache
            .get_or_compute("big", || Ok::<_, ()>(("x".repeat(100), 100)))
            .unwrap();
        assert!(!hit);
        assert_eq!(v.len(), 100);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn concurrent_lookups_single_flight() {
        let cache: Arc<ShardedCache<String>> = Arc::new(ShardedCache::new(4, 1 << 20));
        let computed = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let computed = Arc::clone(&computed);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let (v, _) = cache
                        .get_or_compute("hot", || {
                            computed.fetch_add(1, Ordering::SeqCst);
                            // Hold the flight open long enough that the
                            // other threads join rather than race past.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            Ok::<_, ()>(("shared".to_string(), 6))
                        })
                        .unwrap();
                    assert_eq!(*v, "shared");
                });
            }
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one leader");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.joined + s.hits, 7);
    }

    #[test]
    fn failed_leader_hands_off_to_a_waiter() {
        let cache: Arc<ShardedCache<String>> = Arc::new(ShardedCache::new(1, 1 << 20));
        let attempts = Arc::new(AtomicUsize::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let ok = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cache = Arc::clone(&cache);
                let attempts = Arc::clone(&attempts);
                let barrier = Arc::clone(&barrier);
                let ok = Arc::clone(&ok);
                scope.spawn(move || {
                    barrier.wait();
                    let r = cache.get_or_compute("k", || {
                        let n = attempts.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        if n == 0 {
                            Err("first leader fails")
                        } else {
                            Ok(("recovered".to_string(), 9))
                        }
                    });
                    if let Ok((v, _)) = r {
                        assert_eq!(*v, "recovered");
                        ok.fetch_add(1, Ordering::SeqCst);
                    }
                });
            }
        });
        // Exactly one caller saw the injected failure; everyone else
        // got the recovered value (retried leadership or joined it).
        assert_eq!(ok.load(Ordering::SeqCst), 3);
        assert!(attempts.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn spec_cache_key_is_canonical_over_formatting() {
        let a = xnf_dtd::parse_dtd("<!ELEMENT r (a*)><!ELEMENT a EMPTY>").unwrap();
        let b = xnf_dtd::parse_dtd("<!-- comment -->\n<!ELEMENT r  ( a* ) >\n<!ELEMENT a EMPTY>")
            .unwrap();
        let sigma = XmlFdSet::parse("r.a -> r\n").unwrap();
        let ka = spec_cache_key("normalize", &a, &sigma, "");
        let kb = spec_cache_key("normalize", &b, &sigma, "");
        assert_eq!(ka, kb);
        // Operation and options are part of the key.
        assert_ne!(ka, spec_cache_key("analyze", &a, &sigma, ""));
        assert_ne!(ka, spec_cache_key("normalize", &a, &sigma, "sigma-only"));
    }

    #[test]
    fn spec_key_renders_once_and_matches_spec_cache_key() {
        let dtd =
            xnf_dtd::parse_dtd(include_str!("../../../examples/specs/university.dtd")).unwrap();
        let sigma =
            XmlFdSet::parse(include_str!("../../../examples/specs/university.fds")).unwrap();
        let spec = SpecKey::new(&dtd, &sigma);
        for (op, options) in [
            ("spec", ""),
            ("is-xnf", "no_lint=false"),
            (
                "normalize",
                "sigma_only=false,threads=1,stats=false,no_lint=false",
            ),
            ("analyze", "format=json,sigma_only=true"),
        ] {
            assert_eq!(
                spec.key(op, options),
                spec_cache_key(op, &dtd, &sigma, options),
                "{op} {options}"
            );
        }
    }
}

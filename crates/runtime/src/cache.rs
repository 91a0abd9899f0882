//! LRU caches over the expensive per-request work: compiled kernels (so each
//! distinct kernel is compiled, and planned for simulation, once no matter
//! how many requests reference it) and functional simulation runs (so
//! repeated tenant requests — same kernel, same workload — skip the
//! cycle-accurate simulation entirely).

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use overlay_arch::FuVariant;
use overlay_scheduler::CompiledKernel;
use overlay_sim::{OverlaySimulator, SimRun};

/// A compiled kernel as the [`KernelCache`] holds it: loaded onto an
/// untraced simulator of its own variant, so it is decoded and timed at its
/// first memo miss and at most once however many serves and devices see it.
pub use overlay_sim::Kernel;

use crate::error::RuntimeError;

/// A minimal FNV-1a [`Hasher`] for the runtime's hot-path maps: the keys are
/// small fixed-size identifiers (kernel fingerprints, sim keys, intake
/// indices), where SipHash's per-lookup setup cost is pure overhead and DoS
/// resistance buys nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut hash = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.0 = hash;
    }

    fn write_u64(&mut self, value: u64) {
        let mut hash = if self.0 == 0 {
            0xcbf2_9ce4_8422_2325
        } else {
            self.0
        };
        hash ^= value;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        hash ^= hash >> 29;
        self.0 = hash;
    }

    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    fn write_u128(&mut self, value: u128) {
        self.write_u64(value as u64);
        self.write_u64((value >> 64) as u64);
    }

    fn write_u8(&mut self, value: u8) {
        self.write_u64(u64::from(value));
    }
}

/// [`HashMap`] keyed through [`FnvHasher`] — the runtime's hot-path map type.
pub type FnvHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// `HashSet` keyed through [`FnvHasher`].
pub(crate) type FnvHashSet<K> = HashSet<K, BuildHasherDefault<FnvHasher>>;

/// Identity of one compiled artifact: kernel content hash + overlay variant +
/// mapped depth (0 when the depth follows the kernel, as it does for the
/// feed-forward variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelKey {
    /// Content fingerprint from [`KernelSpec::fingerprint`](crate::KernelSpec::fingerprint).
    pub fingerprint: u64,
    /// The overlay variant the kernel was compiled for.
    pub variant: FuVariant,
    /// The fixed overlay depth for the write-back variants, 0 when the depth
    /// follows the kernel.
    pub depth: usize,
}

impl fmt::Display for KernelKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:016x}@{}/d{}",
            self.fingerprint, self.variant, self.depth
        )
    }
}

/// Hit/miss/eviction counters for one cache lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: usize,
    /// Lookups that had to compile.
    pub misses: usize,
    /// Entries evicted to make room.
    pub evictions: usize,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when never used).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// The counters accumulated since the earlier snapshot `before` — one
    /// serve's share of a cache's lifetime counters.
    pub(crate) fn since(self, before: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} hit(s), {} miss(es), {} eviction(s), {:.0}% hit rate",
            self.hits,
            self.misses,
            self.evictions,
            self.hit_rate() * 100.0
        )
    }
}

/// The least-recently-used bookkeeping the kernel cache and the simulation
/// memo share: a logical clock, each entry's last use and the counters.
#[derive(Debug)]
struct Lru<K, V> {
    capacity: usize,
    clock: u64,
    entries: FnvHashMap<K, (V, u64)>,
    stats: CacheStats,
}

impl<K: Copy + Eq + Hash, V> Lru<K, V> {
    fn new(capacity: usize) -> Self {
        Lru {
            capacity,
            clock: 0,
            entries: FnvHashMap::default(),
            stats: CacheStats::default(),
        }
    }

    /// Ticks the clock and returns `key`'s value, counting a hit, when
    /// resident.
    fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let (value, last_used) = self.entries.get_mut(key)?;
        *last_used = self.clock;
        self.stats.hits += 1;
        Some(value)
    }

    /// Stores `value` as used now, first evicting the least-recently-used
    /// entry when a new key finds the map full. The O(n) scan is the
    /// trade-off: insertions are rare next to lookups.
    fn insert(&mut self, key: K, value: V) {
        if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| key)
            {
                self.entries.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.entries.insert(key, (value, self.clock));
    }
}

/// An LRU cache mapping [`KernelKey`]s to compiled kernels.
///
/// Kernels are shared as [`Arc`]s, so a cached kernel stays valid on the
/// tiles executing it even if it is evicted mid-trace, and its plan travels
/// with it.
#[derive(Debug)]
pub struct KernelCache {
    lru: Lru<KernelKey, Arc<Kernel>>,
}

impl KernelCache {
    /// A cache holding at most `capacity` compiled kernels.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::ZeroCacheCapacity`] when `capacity` is 0.
    pub fn new(capacity: usize) -> Result<Self, RuntimeError> {
        if capacity == 0 {
            return Err(RuntimeError::ZeroCacheCapacity);
        }
        Ok(KernelCache {
            lru: Lru::new(capacity),
        })
    }

    /// Returns the cached kernel for `key`, or compiles it via `compile`,
    /// caching the result (evicting the least-recently-used entry if full).
    /// Compiling loads the kernel but does not plan it; its first
    /// [`Kernel::run`] or [`Kernel::plan`] does.
    ///
    /// # Errors
    ///
    /// Propagates whatever `compile` returns.
    pub fn get_or_compile<F>(
        &mut self,
        key: KernelKey,
        compile: F,
    ) -> Result<Arc<Kernel>, RuntimeError>
    where
        F: FnOnce() -> Result<CompiledKernel, RuntimeError>,
    {
        if let Some(kernel) = self.lru.get(&key) {
            return Ok(Arc::clone(kernel));
        }
        self.lru.stats.misses += 1;
        let compiled = compile()?;
        let simulator = OverlaySimulator::new(compiled.variant).with_trace_capacity(0);
        let kernel = Arc::new(simulator.load(compiled));
        self.lru.insert(key, Arc::clone(&kernel));
        Ok(kernel)
    }

    /// Returns whether `key` is cached, or adopts `artifact` (sharing the
    /// `Arc`, evicting the least-recently-used entry if full) and counts a
    /// miss. This is how a cluster device acquires a kernel image compiled
    /// on another device's store: the artifact is shared, never recompiled
    /// nor re-planned — only the modeled transfer is charged by the caller.
    pub fn get_or_share(&mut self, key: KernelKey, artifact: &Arc<Kernel>) -> bool {
        if self.lru.get(&key).is_some() {
            return true;
        }
        self.lru.stats.misses += 1;
        self.lru.insert(key, Arc::clone(artifact));
        false
    }

    /// Whether `key` is currently resident (does not touch LRU order).
    pub fn contains(&self, key: &KernelKey) -> bool {
        self.lru.entries.contains_key(key)
    }

    /// Drops every entry but preserves the accumulated counters — a device
    /// kill wipes the store mid-serve, and the hits and misses recorded so
    /// far still happened.
    pub fn wipe(&mut self) {
        self.lru.entries.clear();
    }

    /// Number of resident compiled kernels.
    pub fn len(&self) -> usize {
        self.lru.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.entries.is_empty()
    }

    /// Maximum number of resident kernels.
    pub fn capacity(&self) -> usize {
        self.lru.capacity
    }

    /// The accumulated hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats
    }
}

/// Identity of one memoizable simulation: the compiled kernel it ran through
/// plus a content digest of the workload streamed into it.
///
/// Functional simulation is placement-independent — the same kernel over the
/// same input records produces the same outputs and cycle counts on every
/// tile — so this pair fully determines a [`SimRun`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SimKey {
    /// The compiled-kernel identity.
    pub kernel: KernelKey,
    /// 128-bit content digest of the workload records
    /// (see [`Request::workload_digest`](crate::Request::workload_digest)).
    pub workload: u128,
}

impl fmt::Display for SimKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}+w{:032x}", self.kernel, self.workload)
    }
}

/// An LRU memo of completed simulation runs keyed by [`SimKey`], so a
/// repeated tenant request (same kernel, same workload) is answered without
/// re-running the functional simulator.
///
/// Runs are shared as [`Arc`]s: a memo hit costs one clone of the pointer,
/// and an evicted run stays valid wherever it is still referenced. A
/// capacity of 0 disables memoization entirely (every lookup misses and
/// nothing is stored).
#[derive(Debug)]
pub struct SimMemo {
    lru: Lru<SimKey, Arc<SimRun>>,
}

impl SimMemo {
    /// A memo holding at most `capacity` simulation runs (0 disables it).
    pub fn new(capacity: usize) -> Self {
        SimMemo {
            lru: Lru::new(capacity),
        }
    }

    /// Returns the memoized run for `key`, counting a hit when found.
    ///
    /// A `None` counts nothing: the event loop counts the simulation it then
    /// runs as a [`note_miss`](Self::note_miss). The invariant is
    /// `hits + misses == admitted requests`.
    pub fn get(&mut self, key: &SimKey) -> Option<Arc<SimRun>> {
        self.lru.get(key).map(Arc::clone)
    }

    /// Counts a simulation actually run (a memo miss).
    pub fn note_miss(&mut self) {
        self.lru.stats.misses += 1;
    }

    /// Stores a completed run, evicting the least-recently-used entry when
    /// full. A no-op when the memo is disabled (capacity 0).
    pub fn insert(&mut self, key: SimKey, run: Arc<SimRun>) {
        if self.lru.capacity == 0 {
            return;
        }
        self.lru.clock += 1;
        self.lru.insert(key, run);
    }

    /// Whether `key` is currently memoized (does not touch LRU order).
    pub fn contains(&self, key: &SimKey) -> bool {
        self.lru.entries.contains_key(key)
    }

    /// Number of memoized runs.
    pub fn len(&self) -> usize {
        self.lru.entries.len()
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.entries.is_empty()
    }

    /// Maximum number of memoized runs (0 = disabled).
    pub fn capacity(&self) -> usize {
        self.lru.capacity
    }

    /// The accumulated hit/miss/eviction counters.
    pub fn stats(&self) -> CacheStats {
        self.lru.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_frontend::compile_kernel;
    use overlay_scheduler::{generate_program, schedule};

    fn key(fingerprint: u64) -> KernelKey {
        KernelKey {
            fingerprint,
            variant: FuVariant::V3,
            depth: 8,
        }
    }

    fn compile_saxpy() -> Result<CompiledKernel, RuntimeError> {
        let dfg = compile_kernel("kernel saxpy(a, x, y) { out r = a * x + y; }")?;
        let stages = schedule(&dfg, FuVariant::V3, Some(8))?;
        Ok(generate_program(&dfg, &stages, FuVariant::V3)?)
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_the_artifact() {
        let mut cache = KernelCache::new(4).unwrap();
        let first = cache.get_or_compile(key(1), compile_saxpy).unwrap();
        let second = cache
            .get_or_compile(key(1), || panic!("must not recompile"))
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hit_rate(), 0.5);
    }

    #[test]
    fn lru_eviction_removes_the_stalest_key() {
        let mut cache = KernelCache::new(2).unwrap();
        cache.get_or_compile(key(1), compile_saxpy).unwrap();
        cache.get_or_compile(key(2), compile_saxpy).unwrap();
        // Touch key 1 so key 2 is the LRU victim.
        cache.get_or_compile(key(1), || panic!("hit")).unwrap();
        cache.get_or_compile(key(3), compile_saxpy).unwrap();
        assert!(cache.contains(&key(1)));
        assert!(!cache.contains(&key(2)));
        assert!(cache.contains(&key(3)));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.len(), 2);
    }

    /// The online runtime's in-flight requests hold compiled kernels as
    /// `Arc`s while the event loop keeps compiling new arrivals through the
    /// cache (and callers may hold one on any thread): an eviction must
    /// never invalidate a kernel a tile is still executing.
    #[test]
    fn eviction_under_concurrent_pin_keeps_the_artifact_alive() {
        let mut cache = KernelCache::new(1).unwrap();
        let pinned = cache.get_or_compile(key(1), compile_saxpy).unwrap();
        let holder = std::thread::spawn({
            let pinned = Arc::clone(&pinned);
            move || {
                // A tile "executing" the kernel while the cache churns.
                for _ in 0..100 {
                    assert!(pinned.compiled().ii > 0.0);
                    assert!(pinned.compiled().num_fus() > 0);
                }
                Arc::strong_count(&pinned)
            }
        });
        // Churn the 1-entry cache so key 1 is evicted and recompiled while
        // the other thread still holds the original artifact.
        for fingerprint in 2..10 {
            cache
                .get_or_compile(key(fingerprint), compile_saxpy)
                .unwrap();
        }
        assert!(!cache.contains(&key(1)));
        assert_eq!(cache.stats().evictions, 8);
        assert!(holder.join().unwrap() >= 1);
        // The evicted pin still works and a fresh lookup recompiles rather
        // than resurrecting the dropped entry.
        assert!(pinned.compiled().ii > 0.0);
        let recompiled = cache.get_or_compile(key(1), compile_saxpy).unwrap();
        assert!(
            !Arc::ptr_eq(&pinned, &recompiled),
            "eviction dropped the cache's reference; the pin kept its own"
        );
    }

    /// A device acquiring a peer-compiled image adopts the shared `Arc`
    /// (miss counted, no recompilation); the next lookup is a hit, and the
    /// adoption path still evicts LRU entries when full.
    #[test]
    fn get_or_share_adopts_the_artifact_without_recompiling() {
        let mut home = KernelCache::new(2).unwrap();
        let artifact = home.get_or_compile(key(1), compile_saxpy).unwrap();
        let mut peer = KernelCache::new(1).unwrap();
        assert!(!peer.get_or_share(key(1), &artifact), "first sight misses");
        assert_eq!(peer.stats().misses, 1);
        assert!(peer.get_or_share(key(1), &artifact), "now resident");
        assert_eq!(peer.stats().hits, 1);
        let shared = peer
            .get_or_compile(key(1), || panic!("must not recompile"))
            .unwrap();
        assert!(Arc::ptr_eq(&artifact, &shared), "the Arc is shared");
        // Adoption respects capacity: a second key evicts the first.
        let other = home.get_or_compile(key(2), compile_saxpy).unwrap();
        assert!(!peer.get_or_share(key(2), &other));
        assert_eq!(peer.stats().evictions, 1);
        assert!(!peer.contains(&key(1)));
    }

    /// The first `plan` plans, once, and the plan travels with the shared
    /// `Arc` to a store that adopts the image. It proves the compiled II.
    /// (That loading does not plan is `overlay_sim`'s test.)
    #[test]
    fn a_shared_kernel_brings_its_plan() {
        let mut home = KernelCache::new(2).unwrap();
        let kernel = home.get_or_compile(key(1), compile_saxpy).unwrap();
        let plan = kernel.plan().unwrap();
        assert!(std::ptr::eq(plan, kernel.plan().unwrap()), "planned once");
        assert_eq!(plan.steady_ii(), Some(kernel.compiled().ii));
        let mut peer = KernelCache::new(1).unwrap();
        assert!(!peer.get_or_share(key(1), &kernel));
        let adopted = peer
            .get_or_compile(key(1), || panic!("must not recompile"))
            .unwrap();
        assert!(std::ptr::eq(adopted.plan().unwrap(), plan));
    }

    #[test]
    fn zero_capacity_is_rejected() {
        assert!(matches!(
            KernelCache::new(0),
            Err(RuntimeError::ZeroCacheCapacity)
        ));
    }

    #[test]
    fn displays_are_descriptive() {
        assert!(key(0xAB).to_string().contains("V3"));
        let stats = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
        };
        assert!(stats.to_string().contains("75% hit rate"));
        let sim_key = SimKey {
            kernel: key(0xAB),
            workload: 0xFEED,
        };
        assert!(sim_key
            .to_string()
            .contains("w0000000000000000000000000000feed"));
    }

    fn sim_run() -> Arc<SimRun> {
        let compiled = compile_saxpy().unwrap();
        let workload = overlay_sim::Workload::ramp(3, 2);
        let run = overlay_sim::OverlaySimulator::new(FuVariant::V3)
            .run(&compiled, &workload)
            .unwrap();
        Arc::new(run)
    }

    fn sim_key(workload: u128) -> SimKey {
        SimKey {
            kernel: key(1),
            workload,
        }
    }

    #[test]
    fn sim_memo_shares_runs_and_counts_hits() {
        let mut memo = SimMemo::new(4);
        assert!(memo.is_empty());
        assert!(memo.get(&sim_key(1)).is_none(), "cold lookup finds nothing");
        memo.note_miss();
        let run = sim_run();
        memo.insert(sim_key(1), Arc::clone(&run));
        let hit = memo.get(&sim_key(1)).expect("memoized run");
        assert!(Arc::ptr_eq(&hit, &run), "hits share the run, not a copy");
        let stats = memo.stats();
        assert_eq!(stats.hits, 1, "the cold lookup counted nothing");
        assert_eq!(stats.misses, 1, "only the simulation run is a miss");
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn sim_memo_evicts_least_recently_used() {
        let mut memo = SimMemo::new(2);
        let run = sim_run();
        memo.insert(sim_key(1), Arc::clone(&run));
        memo.insert(sim_key(2), Arc::clone(&run));
        // Touch key 1 so key 2 is the LRU victim.
        assert!(memo.get(&sim_key(1)).is_some());
        memo.insert(sim_key(3), Arc::clone(&run));
        assert!(memo.contains(&sim_key(1)));
        assert!(!memo.contains(&sim_key(2)));
        assert!(memo.contains(&sim_key(3)));
        assert_eq!(memo.stats().evictions, 1);
        // The evicted run stays valid through its other references.
        assert!(!run.outputs().is_empty());
    }

    #[test]
    fn zero_capacity_disables_the_sim_memo() {
        let mut memo = SimMemo::new(0);
        memo.insert(sim_key(1), sim_run());
        assert!(memo.is_empty(), "a disabled memo stores nothing");
        assert!(memo.get(&sim_key(1)).is_none());
    }
}

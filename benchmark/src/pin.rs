//! Pins the process to one CPU and one allocator arena, and lifts the pin for
//! the one probe that measures parallel speed-up.
//!
//! On the 2-vCPU host the benchmark was sized on, a serve that hands
//! simulations to worker threads is slower *and* noisier on two CPUs than on
//! one: six-second runs of the same 1 024 cold requests took 62–72 ms per
//! repetition (61–72 ms of process CPU time) unpinned and 38–48 ms pinned,
//! because every hand-off to a thread on the other vCPU is a wake-up through
//! the hypervisor. Threads inherit the affinity of the thread that spawns
//! them and the program spawns its workers from the load-generating thread,
//! so pinning that thread pins them too: the program's threads still exist
//! and still hand work to each other, they just never wait for another vCPU.
//! The cost is that no end-to-end metric can show a parallel speed-up;
//! `runtime.shard.t2_speedup` is therefore measured inside [`unpinned`].

use std::sync::OnceLock;

/// `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// What [`pin_to_one_cpu`] found and did.
#[derive(Debug, Clone, Copy)]
struct Pin {
    /// The CPUs the process could run on before it was pinned.
    allowed: CpuSet,
    /// The one CPU it runs on since.
    cpu: usize,
}

static PIN: OnceLock<Pin> = OnceLock::new();

#[cfg(target_os = "linux")]
mod sys {
    use super::CpuSet;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    const SIZE: usize = std::mem::size_of::<CpuSet>();

    /// The calling thread's affinity mask.
    pub fn get() -> Option<CpuSet> {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable buffer of exactly `SIZE` bytes,
        // which is what the call fills; pid 0 names the calling thread.
        (unsafe { sched_getaffinity(0, SIZE, mask.as_mut_ptr()) } == 0).then_some(mask)
    }

    /// Sets the calling thread's affinity mask; threads it spawns from now
    /// on inherit it.
    pub fn set(mask: &CpuSet) -> bool {
        // SAFETY: `mask` is a live buffer of exactly `SIZE` bytes the call
        // only reads; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, SIZE, mask.as_ptr()) == 0 }
    }
}

/// Affinity is a Linux call; elsewhere every run goes unpinned.
#[cfg(not(target_os = "linux"))]
mod sys {
    use super::CpuSet;

    pub fn get() -> Option<CpuSet> {
        None
    }

    pub fn set(_mask: &CpuSet) -> bool {
        false
    }
}

fn only(cpu: usize) -> CpuSet {
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    mask
}

/// Tells glibc's allocator to serve every thread from one arena. By default
/// each of the eight workers a serve spawns gets an arena of its own, and
/// which pages of them a run ends up touching depends on how the threads
/// happened to interleave: `cluster_surge` peaked at 58–70 MiB over ten seeds
/// with the default and at 58.1–59.6 MiB with one arena, at the same speed.
/// On one CPU the extra arenas buy nothing. Returns whether the call took.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub fn one_malloc_arena() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    /// `M_ARENA_MAX` of `<malloc.h>`.
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only stores the limit; it may be called at any time
    // from any thread.
    unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
}

/// Arenas are a glibc notion; other allocators are left as they are.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub fn one_malloc_arena() -> bool {
    false
}

/// Restricts this thread, and every thread it spawns from now on, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` where
/// the affinity calls are unavailable or fail (the run then goes unpinned).
pub fn pin_to_one_cpu() -> Option<usize> {
    if let Some(pin) = PIN.get() {
        return Some(pin.cpu);
    }
    let allowed = sys::get()?;
    let (word, bits) = allowed.iter().enumerate().rfind(|(_, bits)| **bits != 0)?;
    let cpu = word * 64 + 63 - bits.leading_zeros() as usize;
    sys::set(&only(cpu)).then(|| PIN.get_or_init(|| Pin { allowed, cpu }).cpu)
}

/// CPUs the process may use: those it was allowed before it was pinned.
pub fn allowed_cpus() -> usize {
    match PIN.get() {
        Some(pin) => pin
            .allowed
            .iter()
            .map(|bits| bits.count_ones() as usize)
            .sum(),
        None => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

/// Runs `work` on every CPU the process was allowed before it was pinned —
/// the threads `work` spawns inherit that — and pins this thread again
/// afterwards. Without a pin it just runs `work`.
pub fn unpinned<T>(work: impl FnOnce() -> T) -> T {
    let Some(pin) = PIN.get() else {
        return work();
    };
    sys::set(&pin.allowed);
    let result = work();
    sys::set(&only(pin.cpu));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unpinned_runs_the_work_with_or_without_a_pin() {
        assert_eq!(unpinned(|| 7), 7);
        assert!(allowed_cpus() >= 1);
        assert_eq!(only(65)[1], 2);
    }
}

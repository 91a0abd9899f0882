//! A fixed kernel that prices the CPU and the cache the run was given, so
//! host times can be read at the speed of a reference host.
//!
//! The host the benchmark was sized on is a shared VM. Its vCPU delivers
//! anything between the full throughput of a core and a little over half of
//! it, changing within a millisecond and drifting over minutes with what the
//! neighbours do: twenty 20 s runs of the same `sim_sweep` within one hour
//! had median repetitions of 35 to 58 ms, and two sets of ten `serve_cold`
//! runs half an hour apart differed by 78 %. Wall time equals thread CPU
//! time throughout, so none of it shows as steal, and no statistic over the
//! repetitions of one run sees through it (the 5th percentile moved 46 %
//! where the median moved 78 %).
//!
//! What does see it is a second, frozen piece of code run between the
//! repetitions. One pass is two halves of about 90 µs each on that host when
//! nothing shares its core: 1.44 M integer operations on eight independent
//! words, which slow down when a neighbour takes issue slots, and 850
//! dependent loads over 4 MiB (twice the private cache), which slow down
//! when a neighbour takes shared cache. Over 80 s recordings, the mean
//! repetition of overlapping 20 s windows ranged 17–32 % on the five
//! workloads; divided by the mean pass of the same window, 5–12 %. So a run
//! reports its host times at the speed of a reference host — `ops_per_s`
//! divided by [`Probe::speed`], `setup_s` multiplied by it — and prints the
//! as-measured figures and the speed beside them.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Rounds of the integer half: a xor, a rotate and an add on each of eight
/// independent words per round.
const ROUNDS: u64 = 60_000;
/// Dependent loads of the memory half.
const LOADS: usize = 850;
/// Entries of the load chain: 4 MiB of `u32`.
const CHAIN: usize = 1 << 20;
/// Passes in the shortest burst.
const MIN_BURST: u64 = 8;

/// Wall time of one pass on the reference host, ns: a round number close to
/// what the sizing host takes when nothing shares its core or its cache, so
/// that [`Probe::speed`] reads about 1.0 there. Only a scale: it cancels in
/// every comparison of two runs.
pub const REFERENCE_PASS_NS: f64 = 180_000.0;

/// One cycle through every entry, in an order a prefetcher cannot guess
/// (Sattolo's shuffle of the identity: swapping entry `i` only with earlier
/// ones leaves a single cycle).
fn chain() -> &'static [u32] {
    static CHAIN_ONCE: OnceLock<Vec<u32>> = OnceLock::new();
    CHAIN_ONCE.get_or_init(|| {
        let mut next: Vec<u32> = (0..CHAIN as u32).collect();
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..CHAIN).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            next.swap(i, (state % i as u64) as usize);
        }
        next
    })
}

/// The passes of one phase of a run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Probe {
    passes: u64,
    wall: Duration,
    /// Where the next pass enters the load chain.
    at: u32,
}

impl Probe {
    fn pass(&mut self, chain: &[u32]) {
        let started = Instant::now();
        let mut words = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
        for round in 0..ROUNDS {
            for (lane, word) in words.iter_mut().enumerate() {
                *word = (*word ^ round).rotate_left(7).wrapping_add(lane as u64);
            }
        }
        black_box(words);
        let mut at = self.at;
        for _ in 0..LOADS {
            at = chain[at as usize];
        }
        self.at = black_box(at);
        self.wall += started.elapsed();
        self.passes += 1;
    }

    /// Runs passes for `budget`, at least eight of them. Called after every
    /// repetition with a fixed share of the repetition's wall time, so the
    /// probe samples the stretch of time the repetitions ran in.
    pub fn burst(&mut self, budget: Duration) {
        let chain = chain();
        let started = Instant::now();
        let first = self.passes;
        while self.passes < first + MIN_BURST || started.elapsed() < budget {
            self.pass(chain);
        }
    }

    /// Passes run so far.
    pub fn passes(&self) -> u64 {
        self.passes
    }

    /// The speed of the host over the passes so far, relative to the
    /// reference host (1.0 before any pass).
    pub fn speed(&self) -> f64 {
        if self.passes == 0 {
            return 1.0;
        }
        REFERENCE_PASS_NS * self.passes as f64 / self.wall.as_nanos() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chain_is_one_cycle() {
        let chain = chain();
        let mut at = 0u32;
        let mut steps = 0;
        loop {
            at = chain[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHAIN);
    }

    #[test]
    fn a_burst_runs_at_least_eight_passes_and_prices_them() {
        let mut probe = Probe::default();
        assert_eq!(probe.speed(), 1.0);
        probe.burst(Duration::ZERO);
        assert_eq!(probe.passes(), MIN_BURST);
        assert!(probe.speed() > 0.0 && probe.speed().is_finite());
    }
}

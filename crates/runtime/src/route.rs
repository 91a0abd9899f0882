//! Device-tier routing: which NoC array a request is served on, and what an
//! inter-device kernel transfer costs.
//!
//! A [`Cluster`](crate::Cluster) adds one decision *above* tile placement:
//! every arrival is first routed to a device, and only then does that
//! device's [`Dispatcher`](crate::Dispatcher) pick a tile. Three policies
//! cover the classic sharding trade-offs:
//!
//! * [`RoutePolicy::KernelHash`] — a stable shard by kernel content: every
//!   request for kernel `k` lands on `hash(k) mod devices`, so each device
//!   only ever hosts its own kernel subset (maximum residency, zero
//!   balancing);
//! * [`RoutePolicy::LeastLoaded`] — the device with the fewest waiting
//!   requests (ties: fewest busy tiles, then lowest id), a minimum over
//!   the devices' live load summaries;
//! * [`RoutePolicy::PowerOfTwoChoices`] — two deterministically-hashed
//!   candidate devices, compared by *estimated completion* (each answered
//!   from that device's residency index, with the transfer-adjusted switch
//!   cost), taking the better. The classic load-balancing compromise:
//!   almost as balanced as least-loaded, almost as sticky as hashing.
//!
//! # The transfer model
//!
//! Devices sit on a linear inter-device link (hop distance = id distance).
//! Before a tile can context-switch to kernel `k`, the device needs `k`'s
//! compiled image in its local store (the per-device
//! [`KernelCache`](crate::KernelCache)). A device that does not hold the
//! image acquires it over the cheapest path:
//!
//! * **host load** — from host memory: `host_latency_us + bytes ·
//!   host_us_per_byte` (the "local cold load"), or
//! * **peer transfer** — from the nearest device whose store holds the
//!   image: `hops · hop_latency_us + bytes · link_us_per_byte`, counted in
//!   the per-device transfer metrics.
//!
//! The acquisition delay is charged into the request's switch phase and —
//! crucially — into the completion *estimates* routing and placement
//! compare, so sending a kernel to a device where it is cold correctly
//! weighs the transfer (or host load) against queueing behind the device
//! where it is warm. A single-device cluster never acquires anything
//! (images enter the store at compile time).
//!
//! The same [`TransferModel`] prices the session tier's *activation*
//! transfers: when consecutive stages of a
//! [`PipelineRequest`](crate::PipelineRequest) land on different devices,
//! the producer's output bytes cross the same linear link (`hops ·
//! hop_latency_us + bytes · link_us_per_byte`), and a stage whose producer
//! died restores its inputs from the host checkpoint at host-load rates.
//! Stage-affinity routing, always on for pipeline serves, may override
//! the policy's pick with the producer's device when the modeled transfer
//! saving outweighs the queueing penalty — kernel-image acquisition is then
//! re-priced for the overridden device, so both costs always describe the
//! device the stage actually runs on.

use std::fmt;

/// How a [`Cluster`](crate::Cluster) routes each arrival to a device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutePolicy {
    /// Stable shard by kernel content hash: requests for one kernel always
    /// land on the same device (deterministic under resubmission).
    #[default]
    KernelHash,
    /// The device with the fewest waiting requests (ties: fewest busy
    /// tiles, then lowest id).
    LeastLoaded,
    /// Two hash-sampled candidate devices, compared by estimated completion
    /// (transfer cost included); the better one wins.
    PowerOfTwoChoices,
}

impl RoutePolicy {
    /// Every policy, in documentation order.
    pub const ALL: [RoutePolicy; 3] = [
        RoutePolicy::KernelHash,
        RoutePolicy::LeastLoaded,
        RoutePolicy::PowerOfTwoChoices,
    ];

    /// The policy's export label (what trace route-choice spans carry).
    pub fn label(&self) -> &'static str {
        match self {
            RoutePolicy::KernelHash => "kernel-hash",
            RoutePolicy::LeastLoaded => "least-loaded",
            RoutePolicy::PowerOfTwoChoices => "power-of-two",
        }
    }
}

impl fmt::Display for RoutePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutePolicy::KernelHash => f.write_str("kernel-hash"),
            RoutePolicy::LeastLoaded => f.write_str("least-loaded"),
            RoutePolicy::PowerOfTwoChoices => f.write_str("power-of-two"),
        }
    }
}

/// Timing model for moving a compiled kernel image onto a device: a linear
/// inter-device link (per-hop latency plus per-byte cost) against a host
/// load path (fixed latency plus a slower per-byte cost).
///
/// The defaults model a ~10 GB/s device-to-device serial link with 0.5 µs
/// per-hop setup against a host DMA path with ~10× the per-byte cost and a
/// 5 µs driver round trip — so pulling a kernel that is warm on a neighbor
/// device beats reloading it from the host, and both are visible next to
/// the [`ReconfigModel`](overlay_arch::ReconfigModel) switch costs they
/// precede.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Per-hop link latency between adjacent devices, microseconds.
    pub hop_latency_us: f64,
    /// Per-byte cost on the inter-device link, microseconds.
    pub link_us_per_byte: f64,
    /// Fixed latency of a host load, microseconds.
    pub host_latency_us: f64,
    /// Per-byte cost of a host load, microseconds.
    pub host_us_per_byte: f64,
}

impl TransferModel {
    /// The default model (see the type-level docs).
    pub const fn new() -> Self {
        TransferModel {
            hop_latency_us: 0.5,
            link_us_per_byte: 1.0e-4,
            host_latency_us: 5.0,
            host_us_per_byte: 1.0e-3,
        }
    }

    /// A zero-cost model: transfers and host loads are free (useful to
    /// isolate routing behavior from acquisition costs).
    pub const fn free() -> Self {
        TransferModel {
            hop_latency_us: 0.0,
            link_us_per_byte: 0.0,
            host_latency_us: 0.0,
            host_us_per_byte: 0.0,
        }
    }

    /// Cost of moving `bytes` over `hops` inter-device links (pipelined:
    /// the per-byte cost is paid once, the latency per hop).
    pub fn link_transfer_us(&self, hops: usize, bytes: usize) -> f64 {
        hops as f64 * self.hop_latency_us + bytes as f64 * self.link_us_per_byte
    }

    /// Cost of loading `bytes` from the host.
    pub fn host_load_us(&self, bytes: usize) -> f64 {
        self.host_latency_us + bytes as f64 * self.host_us_per_byte
    }

    /// This model with its inter-device link slowed by `multiplier` (≥ 1:
    /// think a flapping or oversubscribed serial link). Per-hop latency and
    /// per-byte link cost scale together; the host path does not ride the
    /// link and keeps its price, so a saturated multiplier prices every
    /// peer out and acquisition falls back to host loads.
    #[must_use]
    pub fn degraded(&self, multiplier: f64) -> Self {
        TransferModel {
            hop_latency_us: self.hop_latency_us * multiplier,
            link_us_per_byte: self.link_us_per_byte * multiplier,
            ..*self
        }
    }
}

impl Default for TransferModel {
    fn default() -> Self {
        Self::new()
    }
}

/// How a routed request will acquire its kernel image on the chosen device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Acquisition {
    /// The device already holds the image (or is its compile home).
    Resident,
    /// Loaded from the host at this cost.
    HostLoad { cost_us: f64 },
    /// Transferred from a peer device's store at this cost.
    Transfer {
        from: usize,
        cost_us: f64,
        bytes: usize,
    },
}

impl Acquisition {
    /// The delay the acquisition adds ahead of the context switch.
    pub(crate) fn cost_us(&self) -> f64 {
        match *self {
            Acquisition::Resident => 0.0,
            Acquisition::HostLoad { cost_us } | Acquisition::Transfer { cost_us, .. } => cost_us,
        }
    }

    /// Where the image comes from.
    pub(crate) fn source(&self) -> AcquireSource {
        match self {
            Acquisition::Resident => AcquireSource::Resident,
            Acquisition::HostLoad { .. } => AcquireSource::Host,
            Acquisition::Transfer { .. } => AcquireSource::Transfer,
        }
    }

    /// Image bytes moved over the inter-device link (0 off-link).
    pub(crate) fn bytes(&self) -> u64 {
        match *self {
            Acquisition::Transfer { bytes, .. } => bytes as u64,
            _ => 0,
        }
    }
}

/// Where a routed request's kernel image comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum AcquireSource {
    #[default]
    Resident,
    Host,
    Transfer,
}

impl AcquireSource {
    /// The source's export label (what trace acquire spans carry).
    pub(crate) fn label(self) -> &'static str {
        match self {
            AcquireSource::Resident => "resident",
            AcquireSource::Host => "host",
            AcquireSource::Transfer => "transfer",
        }
    }
}

/// What routing decided for one request — a row of the fleet tier's
/// per-intake table ([`LoopTables::routed`](crate::LoopTables)); the plain
/// tier routes nothing and keeps none.
#[derive(Debug, Default)]
pub(crate) struct Routed {
    /// The image-acquisition delay resolved at arrival, with where the image
    /// comes from and the bytes it moves over the link for the acquire span.
    pub(crate) acquire_us: f64,
    pub(crate) acquire_src: AcquireSource,
    pub(crate) acquire_bytes: u64,
    /// Devices a fault displaced the request off — routing avoids them
    /// while any other serviceable device exists.
    pub(crate) exclusions: ExclusionSet,
    /// The inter-stage activation delay priced at the routing commit (zero
    /// without a session driver).
    pub(crate) activation_us: f64,
}

/// The cheapest way for `target` to acquire a `bytes`-sized kernel image,
/// given the devices whose stores currently hold it: a transfer from the
/// nearest holding peer over the linear link, or the host-load path —
/// whichever is cheaper (peer ties break toward the lowest id). Shared by
/// demand acquisition (charged into the requester's switch phase) and the
/// replication layer's prefetch-cost accounting.
pub(crate) fn cheapest_acquisition(
    transfer: &TransferModel,
    holders: impl Iterator<Item = usize>,
    target: usize,
    bytes: usize,
) -> Acquisition {
    let host_us = transfer.host_load_us(bytes);
    let mut best: Option<(f64, usize)> = None;
    for peer in holders {
        if peer == target {
            continue;
        }
        let cost = transfer.link_transfer_us(peer.abs_diff(target), bytes);
        if best.is_none_or(|(current, from)| (cost, peer) < (current, from)) {
            best = Some((cost, peer));
        }
    }
    match best {
        Some((cost_us, from)) if cost_us < host_us => Acquisition::Transfer {
            from,
            cost_us,
            bytes,
        },
        _ => Acquisition::HostLoad { cost_us: host_us },
    }
}

/// SplitMix64: a cheap, well-mixed finalizer for shard hashing — one
/// multiply-xor chain, no state. Also the deterministic "randomness" behind
/// the [`scenario`](crate::fault::scenario) workload generator's tenant
/// picks (no host RNG anywhere in the virtual-time path).
pub(crate) fn splitmix64(mut value: u64) -> u64 {
    value = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
    value = (value ^ (value >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    value = (value ^ (value >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    value ^ (value >> 31)
}

/// The kernel's home device under stable sharding: every request for the
/// same kernel fingerprint maps here, on every resubmission.
pub(crate) fn kernel_home(fingerprint: u64, devices: usize) -> usize {
    debug_assert!(devices > 0);
    (splitmix64(fingerprint) % devices as u64) as usize
}

/// A per-request set of devices the router must not pick again — built up
/// as a request requeues off dead or draining devices, so a retry never
/// lands back on the device that just failed it. A word-packed bitmask:
/// empty sets allocate nothing, and membership is one shift and mask.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ExclusionSet {
    words: Vec<u64>,
}

impl ExclusionSet {
    pub(crate) fn insert(&mut self, device: usize) {
        let word = device / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (device % 64);
    }

    pub(crate) fn contains(&self, device: usize) -> bool {
        self.words
            .get(device / 64)
            .is_some_and(|word| word & (1 << (device % 64)) != 0)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&word| word == 0)
    }
}

/// The kernel's home under stable sharding, restricted to eligible devices:
/// the first eligible device scanning cyclically upward from
/// [`kernel_home`]. With every device eligible this *is* `kernel_home` (the
/// no-fault path reduces exactly); `None` when no device is eligible.
pub(crate) fn kernel_home_eligible(
    fingerprint: u64,
    devices: usize,
    eligible: impl Fn(usize) -> bool,
) -> Option<usize> {
    let home = kernel_home(fingerprint, devices);
    (0..devices)
        .map(|offset| (home + offset) % devices)
        .find(|&device| eligible(device))
}

/// The two candidate devices power-of-two-choices probes for a request,
/// drawn from the eligible devices: hashed from the kernel fingerprint
/// *and* the request id, so a kernel's stream of requests spreads its
/// probes while staying a pure (deterministic) function of the request.
/// The hash picks two distinct ranks among the eligible devices in id
/// order, and a scan finds each, so nothing is collected; with every
/// device eligible a rank is the device id. A single eligible device
/// probes itself twice; `None` when none is.
pub(crate) fn power_of_two_pair_eligible(
    fingerprint: u64,
    request_id: u64,
    devices: usize,
    eligible: impl Fn(usize) -> bool,
) -> Option<(usize, usize)> {
    let eligible_devices = || (0..devices).filter(|&device| eligible(device));
    match eligible_devices().count() {
        0 => None,
        1 => eligible_devices().next().map(|only| (only, only)),
        n => {
            let hash = splitmix64(fingerprint ^ splitmix64(request_id));
            let first = (hash % n as u64) as usize;
            let mut second = ((hash >> 32) % (n as u64 - 1)) as usize;
            if second >= first {
                second += 1;
            }
            Some((
                eligible_devices().nth(first)?,
                eligible_devices().nth(second)?,
            ))
        }
    }
}

/// The least-loaded eligible device: the minimum `(waiting, busy_tiles,
/// id)` load key among the eligible devices, in whatever order the keys
/// come. `None` when no device is eligible.
pub(crate) fn least_loaded_eligible(
    load_keys: impl Iterator<Item = (usize, usize, usize)>,
    eligible: impl Fn(usize) -> bool,
) -> Option<usize> {
    load_keys
        .filter(|&(_, _, id)| eligible(id))
        .min()
        .map(|(_, _, id)| id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_home_is_stable_and_in_range() {
        for devices in 1..=8usize {
            for fingerprint in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                let home = kernel_home(fingerprint, devices);
                assert!(home < devices);
                assert_eq!(home, kernel_home(fingerprint, devices), "stable");
            }
        }
        // The shard spreads distinct kernels: 64 fingerprints over 4 devices
        // must not all collapse onto one shard.
        let mut counts = [0usize; 4];
        for fingerprint in 0..64u64 {
            counts[kernel_home(fingerprint, 4)] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "spread: {counts:?}");
    }

    #[test]
    fn power_of_two_pairs_are_distinct_and_deterministic() {
        // Every device eligible: the plain probe pair.
        let pair = |fingerprint: u64, id: u64, devices: usize| {
            power_of_two_pair_eligible(fingerprint, id, devices, |_| true).unwrap()
        };
        for devices in 2..=8usize {
            for id in 0..32u64 {
                let (a, b) = pair(0xFEED, id, devices);
                assert!(a < devices && b < devices);
                assert_ne!(a, b, "candidates must differ");
                assert_eq!((a, b), pair(0xFEED, id, devices));
            }
        }
        assert_eq!(pair(7, 7, 1), (0, 0));
        // Different request ids probe different pairs at least sometimes.
        let pairs: std::collections::HashSet<(usize, usize)> =
            (0..16u64).map(|id| pair(1, id, 8)).collect();
        assert!(pairs.len() > 1, "probes must spread across requests");
    }

    #[test]
    fn transfer_model_costs_scale_with_hops_and_bytes() {
        let model = TransferModel::new();
        assert!(model.link_transfer_us(1, 0) > 0.0);
        assert!(model.link_transfer_us(2, 100) > model.link_transfer_us(1, 100));
        assert!(model.link_transfer_us(1, 200) > model.link_transfer_us(1, 100));
        // A one-hop transfer of a small image beats the host load.
        assert!(model.link_transfer_us(1, 512) < model.host_load_us(512));
        let free = TransferModel::free();
        assert_eq!(free.link_transfer_us(3, 4096), 0.0);
        assert_eq!(free.host_load_us(4096), 0.0);
        assert_eq!(TransferModel::default(), TransferModel::new());
    }

    #[test]
    fn policies_display_and_default() {
        assert_eq!(RoutePolicy::default(), RoutePolicy::KernelHash);
        let names: Vec<String> = RoutePolicy::ALL.iter().map(|p| p.to_string()).collect();
        assert_eq!(names, vec!["kernel-hash", "least-loaded", "power-of-two"]);
    }

    #[test]
    fn cheapest_acquisition_prefers_the_nearest_peer_then_the_host() {
        let model = TransferModel::new();
        // Peers at 1 and 3 hold the image; target 0 pulls from the nearest.
        let acquisition = cheapest_acquisition(&model, [3usize, 1].into_iter(), 0, 512);
        assert!(matches!(acquisition, Acquisition::Transfer { from: 1, .. }));
        // The target itself holding the image is not a source.
        let acquisition = cheapest_acquisition(&model, [0usize].into_iter(), 0, 512);
        assert!(matches!(acquisition, Acquisition::HostLoad { .. }));
        // No holders at all: host load.
        let acquisition = cheapest_acquisition(&model, std::iter::empty(), 2, 64);
        assert!(matches!(acquisition, Acquisition::HostLoad { .. }));
        // A free host path beats any priced transfer.
        let free_host = TransferModel {
            host_latency_us: 0.0,
            host_us_per_byte: 0.0,
            ..TransferModel::new()
        };
        let acquisition = cheapest_acquisition(&free_host, [1usize].into_iter(), 0, 512);
        assert!(matches!(acquisition, Acquisition::HostLoad { cost_us } if cost_us == 0.0));
    }

    #[test]
    fn exclusion_sets_grow_on_demand() {
        let mut set = ExclusionSet::default();
        assert!(set.is_empty());
        assert!(!set.contains(0));
        assert!(!set.contains(200));
        set.insert(3);
        set.insert(130);
        assert!(!set.is_empty());
        assert!(set.contains(3));
        assert!(set.contains(130));
        assert!(!set.contains(2));
        assert!(!set.contains(131));
        assert_eq!(set, set.clone());
    }

    #[test]
    fn kernel_home_eligible_reduces_and_walks_and_fails() {
        for devices in 1..=8usize {
            for fingerprint in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
                // Everything eligible: exactly the legacy shard map.
                assert_eq!(
                    kernel_home_eligible(fingerprint, devices, |_| true),
                    Some(kernel_home(fingerprint, devices))
                );
                // Nothing eligible: the all-excluded error path.
                assert_eq!(kernel_home_eligible(fingerprint, devices, |_| false), None);
            }
        }
        // Excluding the home walks cyclically to the next device up.
        let home = kernel_home(0xFEED, 4);
        let next = kernel_home_eligible(0xFEED, 4, |d| d != home);
        assert_eq!(next, Some((home + 1) % 4));
        // Only one survivor: every kernel routes there.
        for fingerprint in 0..32u64 {
            assert_eq!(kernel_home_eligible(fingerprint, 4, |d| d == 2), Some(2));
        }
    }

    #[test]
    fn power_of_two_pair_eligible_reduces_and_respects_exclusions() {
        // The oracle: the pair formula from before eligibility filtering,
        // the hash's two distinct ranks among `n` candidates (both 0 for one).
        let ranks = |id: u64, n: usize| {
            if n == 1 {
                return (0, 0);
            }
            let hash = splitmix64(0xFEED ^ splitmix64(id));
            let first = (hash % n as u64) as usize;
            let mut second = ((hash >> 32) % (n as u64 - 1)) as usize;
            if second >= first {
                second += 1;
            }
            (first, second)
        };
        for devices in 1..=8usize {
            for id in 0..32u64 {
                // Everything eligible: the ranks are the devices.
                assert_eq!(
                    power_of_two_pair_eligible(0xFEED, id, devices, |_| true),
                    Some(ranks(id, devices))
                );
                // Any eligible subset, none included: the ranks index the
                // eligible devices in id order, so an excluded device is
                // never probed and a single survivor probes itself twice.
                for mask in 0..1u32 << devices {
                    let eligible = |device: usize| mask & (1 << device) != 0;
                    let pool: Vec<usize> = (0..devices).filter(|&d| eligible(d)).collect();
                    let expected = (!pool.is_empty()).then(|| {
                        let (a, b) = ranks(id, pool.len());
                        (pool[a], pool[b])
                    });
                    assert_eq!(
                        power_of_two_pair_eligible(0xFEED, id, devices, eligible),
                        expected,
                        "{devices} devices, mask {mask:#b}, request {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn least_loaded_eligible_skips_to_the_first_eligible_key() {
        // Device-id order, as the cluster hands the keys over.
        let keys = [(1usize, 0usize, 0usize), (3, 1, 1), (0, 0, 2)];
        // Everything eligible: the overall minimum wins, as without faults.
        assert_eq!(
            least_loaded_eligible(keys.iter().copied(), |_| true),
            Some(2)
        );
        // Minimum excluded: the next-least-loaded key.
        assert_eq!(
            least_loaded_eligible(keys.iter().copied(), |d| d != 2),
            Some(0)
        );
        assert_eq!(
            least_loaded_eligible(keys.iter().copied(), |d| d == 1),
            Some(1)
        );
        // Nothing eligible (or no devices): the all-excluded path.
        assert_eq!(least_loaded_eligible(keys.iter().copied(), |_| false), None);
        assert_eq!(least_loaded_eligible(std::iter::empty(), |_| true), None);
    }

    #[test]
    fn degraded_links_scale_link_costs_only() {
        let model = TransferModel::new();
        let slow = model.degraded(4.0);
        // Zero-byte images still pay the (scaled) per-hop setup.
        assert_eq!(
            slow.link_transfer_us(2, 0),
            4.0 * model.link_transfer_us(2, 0)
        );
        assert_eq!(slow.host_load_us(0), model.host_load_us(0));
        // Byte costs scale on the link, never on the host path.
        assert_eq!(
            slow.link_transfer_us(1, 1000),
            4.0 * model.link_transfer_us(1, 1000)
        );
        assert_eq!(slow.host_load_us(4096), model.host_load_us(4096));
        // A multiplier of 1 is the identity.
        assert_eq!(model.degraded(1.0), model);
    }

    #[test]
    fn saturated_links_push_acquisition_to_the_host() {
        let slow = TransferModel::new().degraded(1.0e12);
        // A next-door peer holds the image, but the link is priced out.
        let acquisition = cheapest_acquisition(&slow, [1usize].into_iter(), 0, 512);
        assert!(matches!(acquisition, Acquisition::HostLoad { .. }));
        // The host price is untouched by the degradation.
        assert!(
            matches!(acquisition, Acquisition::HostLoad { cost_us } if cost_us == TransferModel::new().host_load_us(512))
        );
    }

    #[test]
    fn host_versus_degraded_link_crossover_pricing() {
        let model = TransferModel::new();
        // Defaults, one hop, 512 bytes: link 0.5512 µs vs host 5.512 µs —
        // the crossover multiplier is exactly 10.
        let link = model.link_transfer_us(1, 512);
        let host = model.host_load_us(512);
        let crossover = host / link;
        assert_eq!(crossover, 10.0);
        // Just below the crossover the peer still wins.
        let nearly = model.degraded(crossover * 0.99);
        assert!(matches!(
            cheapest_acquisition(&nearly, [1usize].into_iter(), 0, 512),
            Acquisition::Transfer { from: 1, .. }
        ));
        // At the crossover the tie goes to the host (transfers must be
        // strictly cheaper), and beyond it the host clearly wins.
        for multiplier in [crossover, crossover * 2.0] {
            let degraded = model.degraded(multiplier);
            assert!(matches!(
                cheapest_acquisition(&degraded, [1usize].into_iter(), 0, 512),
                Acquisition::HostLoad { .. }
            ));
        }
    }

    #[test]
    fn acquisition_costs_flow_through() {
        assert_eq!(Acquisition::Resident.cost_us(), 0.0);
        assert_eq!(Acquisition::HostLoad { cost_us: 5.0 }.cost_us(), 5.0);
        let transfer = Acquisition::Transfer {
            from: 2,
            cost_us: 1.5,
            bytes: 64,
        };
        assert_eq!(transfer.cost_us(), 1.5);
    }
}

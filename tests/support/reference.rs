//! The reference serve: what [`Cluster::serve`] models, restated as plain
//! definitions that every serve is held to bit for bit.
//!
//! Pending events sit in a list in time order, ties in push order. Requests
//! come off the sorted arrival list one at a time, once no pending event is
//! at or before the last arrival taken: that is when a compile warms the
//! kernel's home store. Each tile keeps its busy-until time, backlog and
//! queue in plain fields, each device its image store as a list, least
//! recently used first. Every decision is a minimum by key over every tile,
//! waiter or device, ties to the lowest id. There is no heap, lane, packed
//! key, lazily dropped entry or probe.
//!
//! The per-request facts come from the public compile and sim API, with the
//! float expressions the serve uses. The transfer prices and the SplitMix64
//! shard hash are definitions, so they are restated here. Pipeline serves
//! (sessions and their fair share) are out of scope.

use std::collections::HashMap;

use tm_overlay::arch::{NocConfig, Tile, TileComposition};
use tm_overlay::frontend::LowerOptions;
use tm_overlay::{
    BatchStats, Cluster, CompiledKernel, Compiler, DispatchPolicy, FaultKind, FuVariant, Overlay,
    Request, RoutePolicy,
};

/// What a serve decides: every started request in submission order, the
/// rejected ids in the order they were rejected, each device's counters and
/// the batching counters.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub outcomes: Vec<Started>,
    pub rejected: Vec<u64>,
    pub devices: Vec<DeviceCounts>,
    pub batch: BatchStats,
}

/// Where and when a request ran, its times as bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Started {
    pub id: u64,
    pub device: usize,
    pub tile: usize,
    pub start_bits: u64,
    pub end_bits: u64,
    pub switched: bool,
    pub missed: bool,
}

/// One device's counters, its lost work as bits.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceCounts {
    pub rejects: usize,
    pub transfers: usize,
    pub transfer_bytes: u64,
    pub host_loads: usize,
    pub requeues: usize,
    pub faults: usize,
    pub lost_work_bits: u64,
    /// Image-store hits, misses and evictions.
    pub store: (usize, usize, usize),
    pub tile_requests: Vec<usize>,
    pub switches: usize,
}

/// The placement- and time-independent facts of requests, kept across
/// serves: each kernel compiles once per variant, each workload simulates
/// once per kernel.
#[derive(Default)]
pub struct Facts {
    kernels: HashMap<(FuVariant, u64), (CompiledKernel, Overlay)>,
    cycles: HashMap<(FuVariant, u64, u128), usize>,
}

/// One request as the reference reads it.
#[derive(Debug, Clone, Copy)]
struct Row {
    id: u64,
    kernel: u64,
    arrival_us: f64,
    deadline_us: Option<f64>,
    est_us: f64,
    switch_us: f64,
    fmax_mhz: f64,
    image_bytes: usize,
    cycles: usize,
}

impl Facts {
    /// `request`'s row on `variant` tiles: its kernel compiled for the
    /// tile's depth, on an overlay of that depth (write-back) or of the
    /// kernel's own (feed-forward, rebuilt at each switch).
    fn row(&mut self, variant: FuVariant, request: &Request) -> Row {
        let fingerprint = request.kernel.fingerprint();
        let key = (variant, fingerprint);
        let (compiled, overlay) = self.kernels.entry(key).or_insert_with(|| {
            let depth = Tile::new(variant, TileComposition::Parallel).logical_depth();
            let dfg = request.kernel.dfg(&LowerOptions::default()).unwrap();
            let compiler = Compiler::new(variant).with_fixed_depth(depth);
            let compiled = compiler.compile_dfg(&dfg).unwrap();
            let (writeback, own) = (variant.has_writeback(), compiled.num_fus());
            let depth = if writeback { depth } else { own };
            (compiled, Overlay::new(variant, depth).unwrap())
        });
        let workload = (variant, fingerprint, request.workload_digest());
        let cycles = *self.cycles.entry(workload).or_insert_with(|| {
            let run = overlay.execute(compiled, &request.workload).unwrap();
            run.metrics().total_cycles
        });
        // The planning estimate: steady-state II per invocation plus a
        // pipeline-fill allowance of four cycles per FU.
        let fill_cycles = (4 * compiled.num_fus()) as f64;
        let invocations = request.workload.len() as f64;
        Row {
            id: request.id,
            kernel: fingerprint,
            arrival_us: request.arrival_us,
            deadline_us: request.deadline_us,
            est_us: (compiled.ii * invocations + fill_cycles) / overlay.fmax_mhz(),
            switch_us: overlay.context_switch(compiled).total_us(),
            fmax_mhz: overlay.fmax_mhz(),
            image_bytes: compiled.program.config_bytes(),
            cycles,
        }
    }
}

/// SplitMix64, the shard and probe hash.
fn splitmix64(mut value: u64) -> u64 {
    value = value.wrapping_add(0x9e37_79b9_7f4a_7c15);
    value = (value ^ (value >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    value = (value ^ (value >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    value ^ (value >> 31)
}

/// The link's per-hop latency and per-byte cost, and the host path's fixed
/// latency and per-byte cost, in microseconds.
const HOP_US: f64 = 0.5;
const LINK_US_PER_BYTE: f64 = 1.0e-4;
const HOST_US: f64 = 5.0;
const HOST_US_PER_BYTE: f64 = 1.0e-3;

/// The least of `keys` (none is NaN), the first on ties.
fn least<K: PartialOrd>(keys: impl Iterator<Item = K>) -> Option<K> {
    keys.reduce(|best, key| if key < best { key } else { best })
}

#[derive(Debug, Clone, Copy)]
enum Event {
    Fault(FaultKind),
    /// A request (by intake index) reaches routing at its arrival.
    Arrival(usize),
    /// A displaced request, admitted already, goes back through routing.
    Requeue(usize),
    /// A `(device, tile)`'s running request completes, unless a kill
    /// withdrew it.
    Free(usize, usize),
}

#[derive(Debug, Clone, Default)]
struct TileState {
    resident: Option<u64>,
    busy_until_us: f64,
    /// The queue's estimated service, kept as the serve keeps it: added on
    /// joining, taken off (never below zero) on leaving, zero when empty.
    backlog_us: f64,
    /// Intake indices, in the order they joined.
    queue: Vec<usize>,
    running: Option<usize>,
    /// Consecutive starts of the resident kernel (0 after a kill).
    run_len: usize,
    switches: usize,
    served: usize,
    /// The run (switch count) that last formed a batch.
    formed: Option<usize>,
}

#[derive(Debug, Clone, Default)]
struct DeviceState {
    tiles: Vec<TileState>,
    dead: bool,
    draining: bool,
    /// Kernels whose image the store holds, least recently used first.
    store: Vec<u64>,
    counts: DeviceCounts,
}

struct Serve<'c> {
    cluster: &'c Cluster,
    noc: NocConfig,
    now_us: f64,
    pending: Vec<(f64, Event)>,
    rows: Vec<Row>,
    /// Per intake index: the devices it was displaced off, the acquisition
    /// delay charged at its last routing and where it started.
    excluded: Vec<Vec<usize>>,
    acquire_us: Vec<f64>,
    started: Vec<Option<Started>>,
    devices: Vec<DeviceState>,
    link_multiplier: f64,
    rejected: Vec<u64>,
    batch: BatchStats,
}

/// The reference serve of `requests` on `cluster` were it fresh.
pub fn serve(cluster: &Cluster, requests: &[Request], facts: &mut Facts) -> Served {
    let tiles = cluster.tiles_per_device();
    let device = DeviceState {
        tiles: vec![TileState::default(); tiles],
        ..DeviceState::default()
    };
    let tile = Tile::new(cluster.variant(), TileComposition::Parallel);
    let mut serve = Serve {
        cluster,
        noc: NocConfig::new(1, tiles, tile).unwrap(),
        now_us: 0.0,
        pending: Vec::new(),
        rows: Vec::new(),
        excluded: Vec::new(),
        acquire_us: Vec::new(),
        started: Vec::new(),
        devices: vec![device; cluster.num_devices()],
        link_multiplier: 1.0,
        rejected: Vec::new(),
        batch: BatchStats::default(),
    };
    // Pushed first, faults fire ahead of everything else at their instant.
    for fault in cluster.fault_plan().map_or(&[][..], |plan| plan.events()) {
        serve.push(fault.time_us, Event::Fault(fault.kind));
    }
    let mut horizon_us = 0.0;
    loop {
        while serve.rows.len() < requests.len()
            && serve.pending.first().is_none_or(|e| e.0 > horizon_us)
        {
            let request = &requests[serve.rows.len()];
            horizon_us = request.arrival_us;
            serve.take_in(request, facts);
        }
        if serve.pending.is_empty() {
            break;
        }
        let (now_us, event) = serve.pending.remove(0);
        serve.now_us = now_us;
        match event {
            Event::Fault(kind) => serve.fault(kind),
            Event::Arrival(index) => serve.place(index, true),
            Event::Requeue(index) => serve.place(index, false),
            Event::Free(device, tile) => serve.free(device, tile),
        }
    }
    for device in &mut serve.devices {
        device.counts.tile_requests = device.tiles.iter().map(|t| t.served).collect();
        device.counts.switches = device.tiles.iter().map(|t| t.switches).sum();
    }
    Served {
        outcomes: serve.started.into_iter().flatten().collect(),
        rejected: serve.rejected,
        devices: serve.devices.into_iter().map(|d| d.counts).collect(),
        batch: serve.batch,
    }
}

impl Serve<'_> {
    fn push(&mut self, time_us: f64, event: Event) {
        let at = self.pending.partition_point(|e| e.0 <= time_us);
        self.pending.insert(at, (time_us, event));
    }

    /// Takes a request in: compiles its kernel in the home store (the first
    /// living device from its shard upward) and schedules its arrival.
    fn take_in(&mut self, request: &Request, facts: &mut Facts) {
        let kernel = request.kernel.fingerprint();
        let home = self.home(kernel, |d| !self.devices[d].dead);
        self.use_store(home.unwrap_or(self.shard(kernel)), kernel);
        self.rows.push(facts.row(self.cluster.variant(), request));
        self.excluded.push(Vec::new());
        self.acquire_us.push(0.0);
        self.started.push(None);
        self.push(request.arrival_us, Event::Arrival(self.rows.len() - 1));
    }

    fn shard(&self, kernel: u64) -> usize {
        (splitmix64(kernel) % self.devices.len() as u64) as usize
    }

    /// The eligible device nearest the kernel's shard counting upward,
    /// cyclically.
    fn home(&self, kernel: u64, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let (shard, devices) = (self.shard(kernel), self.devices.len());
        (0..devices)
            .filter(|&d| eligible(d))
            .min_by_key(|&d| (d + devices - shard) % devices)
    }

    /// A store lookup: a hit refreshes the kernel, a miss inserts it,
    /// evicting the least recently used kernel from a full store.
    fn use_store(&mut self, device: usize, kernel: u64) {
        let capacity = self.cluster.devices()[device].cache().capacity();
        let device = &mut self.devices[device];
        let counts = &mut device.counts.store;
        if let Some(at) = device.store.iter().position(|&k| k == kernel) {
            device.store.remove(at);
            counts.0 += 1;
        } else {
            counts.1 += 1;
            if device.store.len() >= capacity {
                device.store.remove(0);
                counts.2 += 1;
            }
        }
        device.store.push(kernel);
    }

    fn holds(&self, device: usize, kernel: u64) -> bool {
        self.devices[device].store.contains(&kernel)
    }

    fn available(&self, device: usize) -> bool {
        !self.devices[device].dead && !self.devices[device].draining
    }

    /// Routes request `index` among the available devices it was not
    /// displaced off, or, if none, among all available devices.
    fn route(&self, index: usize) -> Option<usize> {
        let excluded = &self.excluded[index];
        let strict = |d: usize| self.available(d) && !excluded.contains(&d);
        self.pick(index, strict)
            .or_else(|| match excluded.is_empty() {
                true => None,
                false => self.pick(index, |d| self.available(d)),
            })
    }

    fn pick(&self, index: usize, eligible: impl Fn(usize) -> bool) -> Option<usize> {
        let (devices, row) = (self.devices.len(), &self.rows[index]);
        let candidates: Vec<usize> = (0..devices).filter(|&d| eligible(d)).collect();
        let pair = match (self.cluster.route_policy(), candidates.len() as u64) {
            (_, 0) => return None,
            (_, _) if devices == 1 => return Some(0),
            (RoutePolicy::KernelHash, _) => return self.home(row.kernel, eligible),
            (RoutePolicy::PowerOfTwoChoices, 1) => [candidates[0]; 2],
            (RoutePolicy::PowerOfTwoChoices, n) => {
                let hash = splitmix64(row.kernel ^ splitmix64(row.id));
                let first = (hash % n) as usize;
                let second = ((hash >> 32) % (n - 1)) as usize;
                let second = second + usize::from(second >= first);
                [candidates[first], candidates[second]]
            }
        };
        // The pair's better device: the earlier completion on its best tile
        // with the acquisition added to the switch, then no switch, then no
        // eviction, then the lower id.
        let keys = pair.into_iter().map(|d| {
            let acquire_us = self.acquisition(d, row).map_or(0.0, |a| a.0);
            let (end, switch, evict, _) = self.best_tile(d, row, row.switch_us + acquire_us);
            (end, switch, evict, d)
        });
        least(keys).map(|key| key.3)
    }

    /// How `device` gets `row`'s image: `None` if it holds it already (one
    /// device holds all it compiles), else the cost of the cheaper of a host
    /// load and the cheapest peer transfer, and whether it is the transfer.
    fn acquisition(&self, device: usize, row: &Row) -> Option<(f64, bool)> {
        if self.devices.len() == 1 || self.holds(device, row.kernel) {
            return None;
        }
        let bytes = row.image_bytes as f64;
        let host_us = HOST_US + bytes * HOST_US_PER_BYTE;
        let hop_us = HOP_US * self.link_multiplier;
        let per_byte_us = LINK_US_PER_BYTE * self.link_multiplier;
        let peers = (0..self.devices.len())
            .filter(|&p| p != device && self.holds(p, row.kernel))
            .map(|p| (p.abs_diff(device) as f64 * hop_us + bytes * per_byte_us, p));
        match least(peers) {
            Some((cost_us, _)) if cost_us < host_us => Some((cost_us, true)),
            _ => Some((host_us, false)),
        }
    }

    /// The `(completion, needs a switch, evicts a warm kernel, tile)` of
    /// `row` on `device`'s best tile: the earliest completion of its
    /// backlog, its switch against the kernel the tile will hold once that
    /// backlog drains, and its service.
    fn best_tile(&self, device: usize, row: &Row, switch_us: f64) -> (f64, bool, bool, usize) {
        let keys = self.devices[device]
            .tiles
            .iter()
            .enumerate()
            .map(|(t, tile)| {
                let last = tile.queue.last().map(|&j| self.rows[j].kernel);
                let projected = last.or(tile.resident);
                let switch = projected != Some(row.kernel);
                let start_us = tile.busy_until_us.max(self.now_us) + tile.backlog_us;
                let paid_us = if switch { switch_us } else { 0.0 };
                let end_us = start_us + paid_us + row.est_us;
                (end_us, switch, switch && projected.is_some(), t)
            });
        least(keys).unwrap()
    }

    /// Routes request `index` and places it on the device's best tile,
    /// where it starts at once or queues. A fresh arrival is admitted only
    /// if it starts at once or fewer than the limit are waiting; a requeue
    /// was admitted already. No device to route to rejects it.
    fn place(&mut self, index: usize, fresh: bool) {
        let row = self.rows[index];
        let Some(device) = self.route(index) else {
            self.rejected.push(row.id);
            return;
        };
        let acquire = self.acquisition(device, &row);
        self.acquire_us[index] = acquire.map_or(0.0, |a| a.0);
        let tile = self.best_tile(device, &row, self.switch_us(index)).3;
        let starts_now = self.devices[device].tiles[tile].running.is_none();
        let tiles = self.devices.iter().flat_map(|d| &d.tiles);
        let waiting: usize = tiles.map(|t| t.queue.len()).sum();
        if fresh && !starts_now && waiting >= self.cluster.admission_limit() {
            self.devices[device].counts.rejects += 1;
            self.rejected.push(row.id);
            return;
        }
        // The routed device adopts the image; a single device holds all.
        if self.devices.len() > 1 {
            self.use_store(device, row.kernel);
        }
        let counts = &mut self.devices[device].counts;
        match acquire {
            None => {}
            Some((_, false)) => counts.host_loads += 1,
            Some((_, true)) => {
                counts.transfers += 1;
                counts.transfer_bytes += row.image_bytes as u64;
            }
        }
        if starts_now {
            self.start(device, tile, index);
        } else {
            let state = &mut self.devices[device].tiles[tile];
            state.backlog_us += row.est_us;
            state.queue.push(index);
        }
    }

    /// The switch request `index` pays on a tile that must change kernels:
    /// its reconfiguration plus the acquisition its routing charged.
    fn switch_us(&self, index: usize) -> f64 {
        self.rows[index].switch_us + self.acquire_us[index]
    }

    /// A tile's completion: the tile runs its next request, if any waits.
    fn free(&mut self, device: usize, tile: usize) {
        let state = &self.devices[device].tiles[tile];
        let end_bits = state.running.map(|j| self.started[j].unwrap().end_bits);
        // Any other completion is stale: a kill withdrew its start.
        if end_bits != Some(self.now_us.to_bits()) {
            return;
        }
        self.devices[device].tiles[tile].running = None;
        if !self.devices[device].tiles[tile].queue.is_empty() {
            self.start_next(device, tile);
        }
    }

    /// A freed tile's next request: the oldest in the queue, or the least
    /// slack (deadline − service − the switch against the resident kernel,
    /// then deadline − service, then the lowest intake index); batching may
    /// run the oldest waiter of the resident kernel instead.
    fn start_next(&mut self, device: usize, tile: usize) {
        let state = &self.devices[device].tiles[tile];
        let slack = |j: usize| {
            let row = &self.rows[j];
            let base = row.deadline_us.unwrap_or(f64::INFINITY) - row.est_us;
            let adjusted = match state.resident == Some(row.kernel) {
                true => base,
                false => base - row.switch_us,
            };
            (adjusted, base, j)
        };
        let choice = match self.cluster.policy() {
            DispatchPolicy::KernelAffinity => state.queue[0],
            DispatchPolicy::SlackAware => least(state.queue.iter().map(|&j| slack(j))).unwrap().2,
        };
        let index = self.batch_pick(device, tile, choice).unwrap_or(choice);
        let state = &mut self.devices[device].tiles[tile];
        state.queue.retain(|&j| j != index);
        state.backlog_us = match state.queue.is_empty() {
            true => 0.0,
            false => (state.backlog_us - self.rows[index].est_us).max(0.0),
        };
        self.start(device, tile, index);
    }

    /// Same-kernel batching over the policy's `choice` at a freed tile.
    fn batch_pick(&mut self, device: usize, tile: usize, choice: usize) -> Option<usize> {
        let config = self.cluster.batching();
        let (state, row) = (&self.devices[device].tiles[tile], &self.rows[choice]);
        if config.max_batch <= 1 || state.run_len >= config.max_batch {
            return None;
        }
        let kernel = state.resident.filter(|&k| k != row.kernel)?;
        if self.now_us - row.arrival_us > config.max_hold_us {
            return None;
        }
        let queue = &state.queue;
        let candidate = *queue.iter().find(|&&j| self.rows[j].kernel == kernel)?;
        if let Some(deadline_us) = row.deadline_us {
            let run_now_us = self.now_us + self.switch_us(choice) + row.est_us;
            if run_now_us <= deadline_us && run_now_us + self.rows[candidate].est_us > deadline_us {
                return None;
            }
        }
        self.batch.batched_requests += 1;
        self.batch.switches_avoided += 1;
        let state = &mut self.devices[device].tiles[tile];
        if state.formed != Some(state.switches) {
            state.formed = Some(state.switches);
            self.batch.batches_formed += 1;
        }
        Some(candidate)
    }

    /// Starts request `index` on the tile now, switching it first if need be.
    fn start(&mut self, device: usize, tile: usize, index: usize) {
        let (row, switch_us) = (self.rows[index], self.switch_us(index));
        let (home, here) = ((0, 0), (0, tile));
        let roundtrip = self.noc.route_latency(home, here) + self.noc.route_latency(here, home);
        let exec_us = (row.cycles + roundtrip) as f64 / row.fmax_mhz;
        let state = &mut self.devices[device].tiles[tile];
        let start_us = state.busy_until_us.max(self.now_us);
        let switched = state.resident != Some(row.kernel);
        let paid_us = if switched { switch_us } else { 0.0 };
        let end_us = start_us + paid_us + exec_us;
        state.switches += usize::from(switched);
        state.run_len = if switched { 1 } else { state.run_len + 1 };
        state.resident = Some(row.kernel);
        state.busy_until_us = end_us;
        state.served += 1;
        state.running = Some(index);
        self.started[index] = Some(Started {
            id: row.id,
            device,
            tile,
            start_bits: start_us.to_bits(),
            end_bits: end_us.to_bits(),
            switched,
            missed: row.deadline_us.is_some_and(|deadline| end_us > deadline),
        });
        self.push(end_us, Event::Free(device, tile));
    }

    fn fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::Kill { device } => self.evacuate(device, true),
            FaultKind::Drain { device } => self.evacuate(device, false),
            FaultKind::Revive { device } => {
                (self.devices[device].dead, self.devices[device].draining) = (false, false);
            }
            FaultKind::Undrain { device } => self.devices[device].draining = false,
            FaultKind::DegradeLinks { multiplier } => self.link_multiplier = multiplier,
        }
    }

    /// Kills or drains `device`: displaces every queued request, and on a
    /// `kill` every running one too (its progress lost, its start
    /// withdrawn), rewinds the tiles to now and wipes the store. Each
    /// displaced request goes back through routing at this instant with
    /// `device` excluded.
    fn evacuate(&mut self, device: usize, kill: bool) {
        let now_us = self.now_us;
        let mut displaced = Vec::new();
        let state = &mut self.devices[device];
        state.counts.faults += 1;
        match kill {
            true => (state.dead, state.store) = (true, Vec::new()),
            false => state.draining = true,
        }
        for tile in &mut state.tiles {
            if let Some(index) = tile.running.filter(|_| kill) {
                let started = self.started[index].take().unwrap();
                let lost_us = (now_us - f64::from_bits(started.start_bits)).max(0.0);
                let lost = &mut state.counts.lost_work_bits;
                *lost = (f64::from_bits(*lost) + lost_us).to_bits();
                displaced.push(index);
            }
            if kill {
                (tile.running, tile.run_len) = (None, 0);
                (tile.resident, tile.busy_until_us) = (None, now_us);
            }
            displaced.append(&mut tile.queue);
            tile.backlog_us = 0.0;
        }
        state.counts.requeues += displaced.len();
        for index in displaced {
            self.excluded[index].push(device);
            self.push(now_us, Event::Requeue(index));
        }
    }
}

//! Fixed-depth iterative greedy clustering for the write-back overlays
//! (V3–V5).
//!
//! The write-back path lets several dependence levels of the DFG share one
//! FU, so a kernel whose critical path exceeds the overlay depth can still be
//! mapped. The scheduler groups the DFG's ASAP levels into `depth` clusters,
//! balances the per-cluster work (the iterative part), and orders the
//! operations inside each cluster so that dependent operations are separated
//! by at least the internal write-back path (IWP); where that is impossible,
//! NOPs are inserted — exactly the procedure illustrated on the 'qspline'
//! example in Sec. IV of the paper.
//!
//! # What the boundary search caches, and why the result does not change
//!
//! The search moves one cluster boundary at a time and keeps a move when it
//! lowers the worst per-stage II contribution `max(#load + 1, #slots + 2)`.
//! That cost depends on a partition only through two things:
//!
//! * `#slots` of a cluster is the length of its ordered, NOP-padded issue
//!   list, a function of the cluster's level range alone. `PartitionCost`
//!   puts each distinct `(start, end]` range's list once into one arena;
//!   moving a boundary changes the two ranges next to it and leaves the
//!   others as hits. A single level is copied, never ordered: no op of an
//!   ASAP level reads another, so the pick (most in-cluster consumers, all 0,
//!   then creation order) would issue it as it stands, at its floor (below).
//! * `#load` of a stage is the number of values alive across the boundary
//!   the stage starts at: produced at or before that level (or a kernel
//!   input), consumed after it (or a kernel output). It depends on that one
//!   boundary, not on where the others are, so it is counted once per level
//!   from each value's producing and last consuming level.
//!
//! So a candidate is costed from table lookups, and only the winning
//! partition is materialised — its issue lists copied out of the arena into
//! the schedule's one slot array, then through the same liveness analysis as
//! every other schedule. The cost function, the visiting order and the
//! strict-improvement rule are the ones the search has always used; tests
//! below hold the cost to a full rebuild of the candidate's schedule, and
//! every range's issue list, single levels included, to the rescan.
//!
//! # Which moves are costed, and why a skipped one could not have won
//!
//! The search keeps each cluster's cost for the current partition, whose
//! maximum is the best cost so far. A move changes only the two clusters
//! beside the boundary, and is kept only if the new maximum is strictly
//! below the best cost. It therefore cannot win, and is skipped without
//! ordering anything, when
//!
//! * a cluster it leaves alone already costs the best cost (the maximum
//!   cannot fall below it), or
//! * one of the two new ranges has a floor at or above the best cost. The
//!   floor is `max(#load + 1, #ops + 2)`: `#load` is a table lookup, `#ops`
//!   a difference of [`DfgAnalysis::level_bounds`], and a range issues at
//!   least one slot per operation, so its cost is never below the floor.
//!
//! Otherwise the lower range is ordered, and the upper one only if the lower
//! one still costs less than the best. Every move is decided as the
//! exhaustive search decides it; the tests below hold the two searches to
//! each other on the paper suite and on generated graphs.
//!
//! Ordering a range is event-driven: an op becomes ready `iwp` slots after
//! its last in-range operand is placed, so the ops wait in a FIFO in the
//! order they become ready, and a run of NOPs is written at once up to the
//! next ready time. The tests hold it to the slot-by-slot rescan it replaced
//! on every range of every graph they try.

use std::cmp::Reverse;

use overlay_dfg::{Dfg, DfgAnalysis, NodeId};
use overlay_isa::program::DEFAULT_IMEM_CAPACITY;

use crate::asap::level_schedule;
use crate::error::ScheduleError;
use crate::stage::{Slot, StageBound, StageSchedule, Strategy};

/// Options for the fixed-depth cluster scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterOptions {
    /// Number of FUs (clusters) in the fixed overlay. The paper uses 8.
    pub depth: usize,
    /// Internal write-back path in cycles: dependent operations inside one
    /// cluster must be at least this many issue slots apart.
    pub iwp: usize,
}

impl Default for ClusterOptions {
    fn default() -> Self {
        ClusterOptions {
            depth: overlay_arch::overlay::FIXED_DEPTH,
            iwp: 5,
        }
    }
}

/// Schedules `dfg` onto a fixed-depth write-back overlay.
///
/// Kernels whose depth already fits the overlay are scheduled ASAP, as the
/// paper does; deeper kernels go through level clustering, intra-cluster list
/// scheduling and NOP insertion.
///
/// # Errors
///
/// Returns [`ScheduleError::ZeroDepth`] for a zero overlay depth,
/// [`ScheduleError::EmptyKernel`] for graphs without operations and
/// [`ScheduleError::IwpTooLong`] for a kernel that needs clustering under an
/// IWP no instruction memory of [`DEFAULT_IMEM_CAPACITY`] words can hold.
///
/// # Example
///
/// ```
/// use overlay_frontend::Benchmark;
/// use overlay_scheduler::{cluster_schedule, ClusterOptions};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = Benchmark::Poly6.dfg()?; // depth 11 > 8
/// let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 })?;
/// assert_eq!(schedule.num_stages(), 8);
/// # Ok(())
/// # }
/// ```
pub fn cluster_schedule(
    dfg: &Dfg,
    options: &ClusterOptions,
) -> Result<StageSchedule, ScheduleError> {
    if options.depth == 0 {
        return Err(ScheduleError::ZeroDepth);
    }
    let analysis = dfg.analysis();
    let kernel_depth = analysis.depth();
    if kernel_depth == 0 {
        return Err(ScheduleError::EmptyKernel);
    }
    let strategy = Strategy::FixedDepth {
        depth: options.depth,
        iwp: options.iwp,
    };

    // Shallow kernels: plain ASAP, as the paper does for depth <= 8.
    if kernel_depth <= options.depth {
        return Ok(level_schedule(dfg, &analysis, strategy));
    }
    // Some cluster now holds two adjacent levels, so a dependent pair at
    // least `iwp` slots apart: more than `iwp` instruction words on one FU.
    if options.iwp > DEFAULT_IMEM_CAPACITY {
        return Err(ScheduleError::IwpTooLong {
            iwp: options.iwp,
            capacity: DEFAULT_IMEM_CAPACITY,
        });
    }

    // 1. Partition the level sequence into `depth` contiguous groups,
    //    balancing the operation count (linear-partition DP), then
    //    iteratively improve by shifting cluster boundaries while it lowers
    //    the worst per-cluster cost.
    let mut boundaries = balanced_partition(analysis.level_bounds(), options.depth);
    let mut search = PartitionCost::new(dfg, &analysis, options.iwp);
    let mut costs: Vec<usize> = cluster_ranges(&boundaries, kernel_depth)
        .map(|(start, end)| search.range_cost(start, end))
        .collect();
    let mut best_cost = costs.iter().copied().max().unwrap_or(0);
    let mut improved = true;
    while improved {
        improved = false;
        for b in 0..boundaries.len() {
            for delta in [-1isize, 1] {
                let moved = boundaries[b].wrapping_add_signed(delta);
                // The neighbours fence the move: clusters stay non-empty.
                let lower = if b == 0 { 0 } else { boundaries[b - 1] };
                let upper = boundaries.get(b + 1).copied().unwrap_or(kernel_depth);
                if moved <= lower || moved >= upper {
                    continue;
                }
                // Clusters `b` and `b + 1` become `(lower, moved]` and
                // `(moved, upper]`; a move that cannot bring the maximum
                // below `best_cost` is skipped (see the module docs).
                let unchanged = costs
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != b && k != b + 1);
                let others = unchanged.map(|(_, &cost)| cost).max().unwrap_or(0);
                if others >= best_cost
                    || search.floor(lower, moved) >= best_cost
                    || search.floor(moved, upper) >= best_cost
                {
                    continue;
                }
                let below = search.range_cost(lower, moved);
                if below >= best_cost {
                    continue;
                }
                let above = search.range_cost(moved, upper);
                if above >= best_cost {
                    continue;
                }
                boundaries[b] = moved;
                (costs[b], costs[b + 1]) = (below, above);
                best_cost = others.max(below).max(above);
                improved = true;
            }
        }
    }

    // 2. Only the winner becomes a schedule, copied out of the search once.
    let ranges = cluster_ranges(&boundaries, kernel_depth);
    let total = ranges
        .clone()
        .map(|(a, b)| search.cluster(a, b).len())
        .sum();
    let mut slots = Vec::with_capacity(total);
    let mut bounds = Vec::with_capacity(boundaries.len() + 2);
    bounds.push(StageBound::default());
    for (start, end) in ranges {
        slots.extend_from_slice(search.cluster(start, end));
        let slots = slots.len();
        bounds.push(StageBound { slots, loads: 0 });
    }
    Ok(StageSchedule::assemble(dfg, strategy, slots, bounds))
}

/// Splits `n` sizes, given as their prefix sums (`prefix[i]` the sum of the
/// first `i`, so `n + 1` entries), into `groups` contiguous groups minimising
/// the maximum group sum (classic linear partition); returns the exclusive
/// end index of each group except the last.
fn balanced_partition(prefix: &[usize], groups: usize) -> Vec<usize> {
    let n = prefix.len() - 1;
    let groups = groups.min(n);
    let sum = |a: usize, b: usize| prefix[b] - prefix[a];

    // dp[at(g, i)] = (minimal possible maximum group sum splitting the first
    // i sizes into g groups, where the last of them starts — the earliest
    // such start on a tie). Only the `i` that leave each later group a size
    // of its own are ever read back.
    let inf = usize::MAX / 2;
    let at = |g: usize, i: usize| g * (n + 1) + i;
    let mut dp = vec![(inf, 0usize); (groups + 1) * (n + 1)];
    dp[at(0, 0)].0 = 0;
    for g in 1..=groups {
        for i in g..=n - (groups - g) {
            // The last group's sum only grows as its start moves down, so
            // once it passes the best maximum no earlier start can reach
            // that maximum; `<=` keeps the earliest start of a tie.
            let mut best = (inf, 0);
            for j in (g - 1..i).rev() {
                let last = sum(j, i);
                if last > best.0 {
                    break;
                }
                let candidate = dp[at(g - 1, j)].0.max(last);
                if candidate <= best.0 {
                    best = (candidate, j);
                }
            }
            dp[at(g, i)] = best;
        }
    }
    // Recover boundaries (exclusive end level index of each group but the last).
    let mut boundaries = Vec::with_capacity(groups.saturating_sub(1));
    let mut i = n;
    for g in (1..=groups).rev() {
        let j = dp[at(g, i)].1;
        if g > 1 {
            boundaries.push(j);
        }
        i = j;
    }
    boundaries.reverse();
    boundaries
}

/// The level range `(start, end]` of each cluster the boundaries delimit.
fn cluster_ranges(
    boundaries: &[usize],
    levels: usize,
) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
    let ends = boundaries.iter().copied().chain([levels]);
    [0].into_iter().chain(boundaries.iter().copied()).zip(ends)
}

/// What any partition of one kernel's levels costs; see the module
/// documentation. A cluster is the level range `(start, end]`, levels being
/// 1-based, so `start` is also the boundary the cluster's stage starts at.
struct PartitionCost<'a> {
    dfg: &'a Dfg,
    analysis: &'a DfgAnalysis,
    iwp: usize,
    /// `crossing[b]`: how many values are alive across boundary `b`, i.e. the
    /// `#load` of a stage starting there (`b = 0`: the input stream; the
    /// spare `b = depth` is 0).
    crossing: Vec<usize>,
    /// The issue lists asked for so far, back to back; cluster
    /// `(start, end]`'s is `arena[from..to]` for the `(from, to)` at
    /// `start * depth + end - 1` of `ordered_at` (`to` is 0 until first asked
    /// for: a list is never empty).
    arena: Vec<Slot>,
    ordered_at: Vec<(u32, u32)>,
    // `order_cluster`'s working state, valid for the cluster in hand only:
    // each op's entry (by `NodeId::index`), and the in-cluster successor
    // lists back to back, followed by the ops whose in-cluster operands are
    // all placed, in the order that happened.
    waiting: Vec<Waiting>,
    queue: Vec<NodeId>,
}

/// A node's state while its cluster is ordered, and two facts the search keeps.
#[derive(Clone, Copy, Default)]
struct Waiting {
    /// Distinct in-cluster consumers: the pick's priority, and the length of
    /// the op's successor list.
    consumers: usize,
    /// Distinct in-cluster operands not placed yet.
    operands: usize,
    /// The first slot the op may issue in, once `operands` is 0.
    ready_at: usize,
    /// One past the op's successor list in `queue`.
    successors_end: usize,
    /// The last level consuming the value; read only while `crossing` is
    /// counted, before any cluster is ordered.
    last_use: usize,
    /// The op's ASAP level, 0 for any other node; kept from cluster to
    /// cluster.
    level: usize,
}

impl<'a> PartitionCost<'a> {
    fn new(dfg: &'a Dfg, analysis: &'a DfgAnalysis, iwp: usize) -> Self {
        let depth = analysis.depth();
        let mut waiting = vec![Waiting::default(); dfg.num_nodes()];
        let mut edges = 0usize;
        // Readers come level by level, and an output node reads its source
        // past every boundary, which `depth` stands for: the last write to
        // each value's `last_use` is its last reading level.
        let mut read = |reader: NodeId, level: usize| {
            let operands = dfg.node_unchecked(reader).operands();
            edges += operands.len();
            for operand in operands {
                waiting[operand.index()].last_use = level;
            }
        };
        for (ops, level) in analysis.levels().zip(1..) {
            ops.iter().for_each(|&op| read(op, level));
        }
        dfg.outputs().iter().for_each(|&output| read(output, depth));
        // A value is alive across every boundary from the level producing
        // it (0 for an input) up to its last use; constants are immediates.
        // Counted as one step up where each value is produced and one down
        // where it dies (the spare last entry), then summed.
        let mut crossing = vec![0usize; depth + 1];
        let mut alive_from = |value: NodeId, produced: usize| {
            let entry = &mut waiting[value.index()];
            entry.level = produced;
            let last_use = entry.last_use.max(produced);
            crossing[produced] = crossing[produced].wrapping_add(1);
            crossing[last_use] = crossing[last_use].wrapping_sub(1);
        };
        dfg.inputs().iter().for_each(|&input| alive_from(input, 0));
        for (ops, level) in analysis.levels().zip(1..) {
            ops.iter().for_each(|&op| alive_from(op, level));
        }
        let mut alive = 0usize;
        for count in &mut crossing {
            alive = alive.wrapping_add(*count);
            *count = alive;
        }
        PartitionCost {
            dfg,
            analysis,
            iwp,
            crossing,
            // What the search orders at depth 8 fits (1.3 slots per op and
            // IWP cycle at most); it grows past that if it must.
            arena: Vec::with_capacity(analysis.level_bounds()[depth] * (2 * iwp).min(16)),
            ordered_at: vec![(0, 0); depth * depth],
            waiting,
            // Every cluster's successor lists and queue fit: one entry per
            // operand reference and one per node.
            queue: Vec::with_capacity(edges + dfg.num_nodes()),
        }
    }

    /// The cost used to balance cluster boundaries: the maximum per-cluster
    /// II contribution `max(#load + 1, #slots + 2)`.
    #[cfg(test)]
    fn cost(&mut self, boundaries: &[usize]) -> usize {
        let depth = self.analysis.depth();
        let mut start = 0usize;
        let mut worst = 0usize;
        for &end in boundaries.iter().chain(std::iter::once(&depth)) {
            worst = worst.max(self.range_cost(start, end));
            start = end;
        }
        worst
    }

    /// Cluster `(start, end]`'s II contribution `max(#load + 1, #slots + 2)`.
    fn range_cost(&mut self, start: usize, end: usize) -> usize {
        let slots = self.cluster(start, end).len();
        (self.crossing[start] + 1).max(slots + 2)
    }

    /// A bound `range_cost` never goes below, found without ordering: the
    /// cluster issues at least one slot per operation.
    fn floor(&self, start: usize, end: usize) -> usize {
        let bounds = self.analysis.level_bounds();
        (self.crossing[start] + 1).max(bounds[end] - bounds[start] + 2)
    }

    /// The issue list of cluster `(start, end]`, put into the arena on first
    /// use. A single level is never ordered: no op of a level reads another,
    /// so it issues as it stands.
    fn cluster(&mut self, start: usize, end: usize) -> &[Slot] {
        let key = start * self.analysis.depth() + end - 1;
        if self.ordered_at[key].1 == 0 {
            let from = self.arena.len();
            match end - start {
                1 => {
                    let level = self.analysis.level_span(start, end).iter();
                    self.arena.extend(level.map(|&op| Slot::Op(op)));
                }
                _ => self.order_cluster(start, end),
            }
            self.ordered_at[key] = (from as u32, self.arena.len() as u32);
        }
        let (from, to) = self.ordered_at[key];
        &self.arena[from as usize..to as usize]
    }

    /// Orders the operations of cluster `(start, end]` with greedy list
    /// scheduling under the IWP spacing constraint, inserting NOPs when
    /// nothing is ready, onto the end of the arena.
    fn order_cluster(&mut self, start: usize, end: usize) {
        let (dfg, iwp) = (self.dfg, self.iwp);
        let ops = self.analysis.level_span(start, end);
        // Whether `operands[at]` is a distinct operand inside the cluster: a
        // consumer naming a value twice waits for it, and counts for it, once.
        let inside = |waiting: &[Waiting], operands: &[NodeId], at: usize| {
            let level = waiting[operands[at].index()].level;
            level > start && level <= end && !operands[..at].contains(&operands[at])
        };
        for &op in ops {
            let entry = &mut self.waiting[op.index()];
            (entry.consumers, entry.operands, entry.ready_at) = (0, 0, 0);
        }
        // Count in-cluster consumers as a priority hint (direct consumers
        // are enough of a signal for these small clusters).
        for &op in ops {
            let operands = dfg.node_unchecked(op).operands();
            for at in 0..operands.len() {
                if inside(&self.waiting, operands, at) {
                    self.waiting[operands[at].index()].consumers += 1;
                    self.waiting[op.index()].operands += 1;
                }
            }
        }
        // Lay the successor lists out back to back, then fill them.
        let mut edges = 0;
        for &op in ops {
            let entry = &mut self.waiting[op.index()];
            entry.successors_end = edges;
            edges += entry.consumers;
        }
        self.queue.clear();
        self.queue.resize(edges, ops[0]);
        for &op in ops {
            let operands = dfg.node_unchecked(op).operands();
            for at in 0..operands.len() {
                if inside(&self.waiting, operands, at) {
                    let end = &mut self.waiting[operands[at].index()].successors_end;
                    self.queue[*end] = op;
                    *end += 1;
                }
            }
        }
        let ready_now = ops
            .iter()
            .filter(|op| self.waiting[op.index()].operands == 0);
        self.queue.extend(ready_now);

        // `queue[head..cut]` is ready at slot `t`; behind it the ops wait in
        // the order of their ready times, which never decrease.
        let (mut head, mut cut) = (edges, edges);
        let from = self.arena.len();
        while head < self.queue.len() {
            let t = self.arena.len() - from;
            let ready_at = |at: usize| self.waiting[self.queue[at].index()].ready_at;
            while cut < self.queue.len() && ready_at(cut) <= t {
                cut += 1;
            }
            if head == cut {
                self.arena.resize(from + ready_at(cut), Slot::Nop);
                continue;
            }
            // Prefer ops with more in-cluster consumers (they unlock later
            // work sooner), then earlier creation order for determinism.
            let priority = |at: usize| {
                let op = self.queue[at];
                (Reverse(self.waiting[op.index()].consumers), op.index())
            };
            let chosen = (head..cut).min_by_key(|&at| priority(at)).unwrap_or(head);
            self.queue.swap(head, chosen);
            let op = self.queue[head];
            head += 1;
            self.arena.push(Slot::Op(op));
            // A successor is ready `iwp` slots after its last in-cluster
            // operand (the write-back latency).
            let Waiting {
                consumers,
                successors_end,
                ..
            } = self.waiting[op.index()];
            for at in successors_end - consumers..successors_end {
                let successor = self.queue[at];
                let entry = &mut self.waiting[successor.index()];
                entry.operands -= 1;
                if entry.operands == 0 {
                    entry.ready_at = t + iwp;
                    self.queue.push(successor);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;
    use overlay_dfg::{DfgBuilder, DfgGenerator, GeneratorConfig, Op};
    use overlay_frontend::Benchmark;
    use proptest::prelude::{
        any, prop_assert, prop_assert_eq, prop_assume, proptest, TestCaseError,
    };

    fn is_valid_partition(boundaries: &[usize], levels: usize) -> bool {
        let mut previous = 0usize;
        for &b in boundaries {
            if b <= previous || b >= levels {
                return false;
            }
            previous = b;
        }
        true
    }

    /// `order_cluster` as it was before it went dense: hash-addressed
    /// membership, priorities and placements, a `Dfg::consumers` scan per
    /// op, the ready set re-collected and sorted for every slot.
    fn order_cluster_by_rescanning(dfg: &Dfg, ops: &[NodeId], iwp: usize) -> Vec<Slot> {
        let in_cluster: HashSet<NodeId> = ops.iter().copied().collect();
        let descendants: HashMap<NodeId, usize> = ops
            .iter()
            .map(|&op| {
                let direct = dfg.consumers(op).into_iter();
                (op, direct.filter(|c| in_cluster.contains(c)).count())
            })
            .collect();
        let mut placed: HashMap<NodeId, usize> = HashMap::new();
        let mut slots: Vec<Slot> = Vec::new();
        let mut remaining: Vec<NodeId> = ops.to_vec();
        while !remaining.is_empty() {
            let t = slots.len();
            let mut ready: Vec<NodeId> = remaining
                .iter()
                .copied()
                .filter(|&op| {
                    dfg.node_unchecked(op).operands().iter().all(|operand| {
                        !in_cluster.contains(operand)
                            || placed.get(operand).is_some_and(|&slot| t >= slot + iwp)
                    })
                })
                .collect();
            if ready.is_empty() {
                slots.push(Slot::Nop);
                continue;
            }
            ready.sort_by_key(|&op| (Reverse(descendants[&op]), op.index()));
            let chosen = ready[0];
            placed.insert(chosen, t);
            slots.push(Slot::Op(chosen));
            remaining.retain(|&op| op != chosen);
        }
        slots
    }

    /// The boundary search as it was before it skipped moves: every ±1 move
    /// costed over every cluster, each range ordered by rescanning. `ordered`
    /// holds the issue lists already ordered for `options.iwp`, by range.
    fn cluster_schedule_exhaustively(
        dfg: &Dfg,
        options: &ClusterOptions,
        ordered: &mut HashMap<(usize, usize), Vec<Slot>>,
    ) -> StageSchedule {
        let analysis = dfg.analysis();
        let levels = analysis.depth();
        let strategy = Strategy::FixedDepth {
            depth: options.depth,
            iwp: options.iwp,
        };
        if levels <= options.depth {
            return level_schedule(dfg, &analysis, strategy);
        }
        let crossing = PartitionCost::new(dfg, &analysis, options.iwp).crossing;
        let mut cost = |boundaries: &[usize]| {
            let ranges = cluster_ranges(boundaries, levels);
            ranges
                .map(|(start, end)| {
                    let slots = ordered.entry((start, end)).or_insert_with(|| {
                        order_cluster_by_rescanning(
                            dfg,
                            analysis.level_span(start, end),
                            options.iwp,
                        )
                    });
                    (crossing[start] + 1).max(slots.len() + 2)
                })
                .max()
                .unwrap()
        };
        let mut boundaries = balanced_partition(analysis.level_bounds(), options.depth);
        let mut best_cost = cost(&boundaries);
        let mut improved = true;
        while improved {
            improved = false;
            for b in 0..boundaries.len() {
                for delta in [-1isize, 1] {
                    let current = boundaries[b];
                    let moved = current.wrapping_add_signed(delta);
                    let lower = if b == 0 { 0 } else { boundaries[b - 1] };
                    let upper = boundaries.get(b + 1).copied().unwrap_or(levels);
                    if moved <= lower || moved >= upper {
                        continue;
                    }
                    boundaries[b] = moved;
                    let cost = cost(&boundaries);
                    if cost < best_cost {
                        best_cost = cost;
                        improved = true;
                    } else {
                        boundaries[b] = current;
                    }
                }
            }
        }
        let stage_slots = cluster_ranges(&boundaries, levels).map(|range| &ordered[&range]);
        StageSchedule::from_stages(dfg, strategy, stage_slots)
    }

    /// Holds the pruned search to the exhaustive one for each depth, and
    /// the event-driven ordering to the rescan on every level range of
    /// `dfg` — whether or not a search visits it.
    fn check_against_the_exhaustive_search(
        dfg: &Dfg,
        depths: impl Iterator<Item = usize> + Clone,
        iwps: impl Iterator<Item = usize>,
    ) -> Result<(), TestCaseError> {
        let analysis = dfg.analysis();
        let levels = analysis.depth();
        for iwp in iwps {
            let mut search = PartitionCost::new(dfg, &analysis, iwp);
            let mut ordered = HashMap::new();
            for start in 0..levels {
                for end in start + 1..=levels {
                    let rescanned =
                        order_cluster_by_rescanning(dfg, analysis.level_span(start, end), iwp);
                    let event_driven = search.cluster(start, end);
                    prop_assert!(
                        *event_driven == rescanned,
                        "({start}, {end}] at iwp {iwp}: {event_driven:?} != {rescanned:?}"
                    );
                    ordered.insert((start, end), rescanned);
                }
            }
            for depth in depths.clone() {
                let options = ClusterOptions { depth, iwp };
                let pruned = cluster_schedule(dfg, &options).unwrap();
                let exhaustive = cluster_schedule_exhaustively(dfg, &options, &mut ordered);
                prop_assert!(
                    pruned == exhaustive,
                    "depth {depth} iwp {iwp}: {pruned:?} != {exhaustive:?}"
                );
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn the_pruned_search_is_the_exhaustive_search(
            (seed, ops, target_depth) in (any::<u64>(), 16usize..=128, 6usize..=16),
            iwp in 1usize..=6,
        ) {
            let config = GeneratorConfig {
                inputs: 3 + ops / 32,
                ops,
                target_depth,
                ..GeneratorConfig::default()
            };
            let dfg = DfgGenerator::new(seed).generate(&config).unwrap();
            check_against_the_exhaustive_search(&dfg, [2, 4, 8].into_iter(), iwp..=iwp)?;
        }
    }

    #[test]
    fn the_pruned_search_is_the_exhaustive_search_on_the_paper_suite() {
        for benchmark in Benchmark::ALL {
            let dfg = benchmark.dfg().unwrap();
            check_against_the_exhaustive_search(&dfg, 1..=12, 1..=6).unwrap();
        }
    }

    #[test]
    fn an_iwp_past_the_instruction_memory_is_an_error() {
        let deep = Benchmark::Poly6.dfg().unwrap();
        let shallow = Benchmark::Gradient.dfg().unwrap();
        for iwp in [DEFAULT_IMEM_CAPACITY + 1, 1 << 20, usize::MAX] {
            let options = ClusterOptions { depth: 8, iwp };
            assert_eq!(
                cluster_schedule(&deep, &options),
                Err(ScheduleError::IwpTooLong {
                    iwp,
                    capacity: DEFAULT_IMEM_CAPACITY
                })
            );
            let strategy = Strategy::FixedDepth { depth: 8, iwp };
            let asap = level_schedule(&shallow, &shallow.analysis(), strategy);
            assert_eq!(cluster_schedule(&shallow, &options), Ok(asap));
        }
        // The largest IWP that may still fit is scheduled.
        let options = ClusterOptions {
            depth: 8,
            iwp: DEFAULT_IMEM_CAPACITY,
        };
        assert!(cluster_schedule(&deep, &options).is_ok());
    }

    /// A candidate partition as the search used to cost it: every cluster
    /// ordered from scratch and the whole schedule assembled.
    fn full_rebuild(
        dfg: &Dfg,
        analysis: &DfgAnalysis,
        boundaries: &[usize],
        iwp: usize,
    ) -> StageSchedule {
        let stage_slots = cluster_ranges(boundaries, analysis.depth()).map(|(start, end)| {
            order_cluster_by_rescanning(dfg, analysis.level_span(start, end), iwp)
        });
        StageSchedule::from_stages(dfg, Strategy::Asap, stage_slots)
    }

    /// ... and the two counts per stage it read off that schedule.
    fn cost_by_full_rebuild(rebuilt: &StageSchedule) -> usize {
        let stages = rebuilt.stages();
        stages
            .map(|stage| (stage.num_loads() + 1).max(stage.num_slots() + 2))
            .max()
            .unwrap()
    }

    /// Holds [`PartitionCost`] to the full rebuild — the cost, and stage by
    /// stage the crossing count against the rebuilt load count and the
    /// cached issue list against the rebuilt slot list — for the balanced
    /// partition of `dfg` into `depth` clusters and every one-level move of
    /// one of its boundaries.
    fn check_against_full_rebuild(
        dfg: &Dfg,
        iwp: usize,
        depth: usize,
    ) -> Result<(), TestCaseError> {
        let analysis = dfg.analysis();
        let levels = analysis.depth();
        prop_assume!(levels > depth);

        let initial = balanced_partition(analysis.level_bounds(), depth);
        let mut partitions = vec![initial.clone()];
        for b in 0..initial.len() {
            for moved in [initial[b] - 1, initial[b] + 1] {
                let mut neighbour = initial.clone();
                neighbour[b] = moved;
                if is_valid_partition(&neighbour, levels) {
                    partitions.push(neighbour);
                }
            }
        }
        prop_assert!(partitions.len() > 1);

        let mut search = PartitionCost::new(dfg, &analysis, iwp);
        for boundaries in &partitions {
            let rebuilt = full_rebuild(dfg, &analysis, boundaries, iwp);
            prop_assert_eq!(search.cost(boundaries), cost_by_full_rebuild(&rebuilt));
            let ranges = cluster_ranges(boundaries, levels);
            for ((start, end), stage) in ranges.zip(rebuilt.stages()) {
                prop_assert_eq!(search.crossing[start], stage.num_loads());
                prop_assert_eq!(search.cluster(start, end), stage.slots);
            }
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn incremental_cost_is_the_full_rebuild_cost(
            (seed, ops, target_depth) in (any::<u64>(), 16usize..=72, 10usize..=16),
            iwp in 3usize..=5,
            depth_pick in 0usize..2,
        ) {
            let config = GeneratorConfig {
                inputs: 3 + ops / 32,
                ops,
                target_depth,
                ..GeneratorConfig::default()
            };
            let dfg = DfgGenerator::new(seed).generate(&config).unwrap();
            check_against_full_rebuild(&dfg, iwp, [4, 8][depth_pick])?;
        }
    }

    /// The generator's graphs have one output, off the last level. Here
    /// values leave for the output FIFO from levels 3, 5 and 7 as well — one
    /// of them also consumed later — so they cross every later boundary.
    #[test]
    fn incremental_cost_counts_values_that_leave_early() {
        let mut b = DfgBuilder::new("early-outputs");
        let x = b.input("x");
        let y = b.input("y");
        let mut chain = b.op(Op::Add, &[x, y]).unwrap();
        for level in 2..=12 {
            if level == 3 || level == 7 {
                let side = b.op(Op::Mul, &[chain, x]).unwrap();
                b.output(format!("side{level}"), side);
            }
            chain = b.op(Op::Square, &[chain]).unwrap();
            if level == 5 {
                b.output("tap", chain);
            }
        }
        let last = b.op(Op::Sub, &[chain, y]).unwrap();
        b.output("last", last);
        let dfg = b.build().unwrap();
        for iwp in 3..=5 {
            for depth in [4, 8] {
                check_against_full_rebuild(&dfg, iwp, depth).unwrap();
            }
        }
    }

    #[test]
    fn shallow_kernels_fall_back_to_asap() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 }).unwrap();
        assert_eq!(schedule.num_stages(), 4);
        assert_eq!(schedule.total_nops(), 0);
        assert!(matches!(
            schedule.strategy(),
            Strategy::FixedDepth { depth: 8, iwp: 5 }
        ));
    }

    #[test]
    fn deep_kernels_are_compressed_to_the_overlay_depth() {
        for benchmark in [Benchmark::Poly6, Benchmark::Poly7, Benchmark::Poly8] {
            let dfg = benchmark.dfg().unwrap();
            assert!(dfg.analysis().depth() > 8, "{benchmark} must be deep");
            for iwp in [5, 4, 3] {
                let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp }).unwrap();
                assert_eq!(schedule.num_stages(), 8, "{benchmark}");
                assert_eq!(schedule.total_ops(), dfg.num_ops(), "{benchmark}");
                assert!(schedule.is_consistent_with(&dfg), "{benchmark} iwp={iwp}");
            }
        }
    }

    #[test]
    fn iwp_spacing_is_respected_inside_every_cluster() {
        let dfg = Benchmark::Poly7.dfg().unwrap();
        for iwp in [3, 4, 5] {
            let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp }).unwrap();
            for stage in schedule.stages() {
                let mut position: HashMap<NodeId, usize> = HashMap::new();
                for (slot_index, slot) in stage.slots.iter().enumerate() {
                    if let Some(op) = slot.op() {
                        position.insert(op, slot_index);
                    }
                }
                for (&op, &slot_index) in &position {
                    for &operand in dfg.node_unchecked(op).operands() {
                        if let Some(&producer_slot) = position.get(&operand) {
                            assert!(
                                slot_index >= producer_slot + iwp,
                                "dependent ops too close with iwp={iwp}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn smaller_iwp_never_needs_more_nops() {
        let dfg = Benchmark::Poly7.dfg().unwrap();
        let nops_iwp5 = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 5 })
            .unwrap()
            .total_nops();
        let nops_iwp3 = cluster_schedule(&dfg, &ClusterOptions { depth: 8, iwp: 3 })
            .unwrap()
            .total_nops();
        assert!(nops_iwp3 <= nops_iwp5);
    }

    #[test]
    fn depth_four_qspline_matches_the_papers_worked_example_shape() {
        // Sec. IV maps the depth-8 qspline onto a depth-4 overlay: 25 ops in
        // 4 clusters.
        let dfg = Benchmark::Qspline.dfg().unwrap();
        let schedule = cluster_schedule(&dfg, &ClusterOptions { depth: 4, iwp: 5 }).unwrap();
        assert_eq!(schedule.num_stages(), 4);
        assert_eq!(schedule.total_ops(), 25);
        assert!(schedule.is_consistent_with(&dfg));
    }

    #[test]
    fn zero_depth_is_rejected() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        assert!(matches!(
            cluster_schedule(&dfg, &ClusterOptions { depth: 0, iwp: 5 }),
            Err(ScheduleError::ZeroDepth)
        ));
    }

    #[test]
    fn balanced_partition_minimises_the_maximum_group() {
        let sizes = [5, 4, 4, 3, 3, 3, 2, 2, 1];
        let mut prefix = vec![0];
        for size in sizes {
            prefix.push(prefix[prefix.len() - 1] + size);
        }
        let boundaries = balanced_partition(&prefix, 3);
        assert_eq!(boundaries.len(), 2);
        let ranges = cluster_ranges(&boundaries, sizes.len());
        let max_group: usize = ranges.map(|(a, b)| sizes[a..b].iter().sum()).max().unwrap();
        // Total is 27 over 3 groups, so the best possible maximum is 9..=10.
        assert!(max_group <= 10, "got {max_group}");
    }

    /// `balanced_partition` as it was before it scanned only the reachable
    /// states and only the starts that can tie: every state, every start.
    fn balanced_partition_by_full_table(prefix: &[usize], groups: usize) -> Vec<usize> {
        let n = prefix.len() - 1;
        let groups = groups.min(n);
        let inf = usize::MAX / 2;
        let at = |g: usize, i: usize| g * (n + 1) + i;
        let mut dp = vec![(inf, 0usize); (groups + 1) * (n + 1)];
        dp[at(0, 0)].0 = 0;
        for g in 1..=groups {
            for i in g..=n {
                for j in (g - 1)..i {
                    let candidate = dp[at(g - 1, j)].0.max(prefix[i] - prefix[j]);
                    if candidate < dp[at(g, i)].0 {
                        dp[at(g, i)] = (candidate, j);
                    }
                }
            }
        }
        let mut boundaries = Vec::new();
        let mut i = n;
        for g in (1..=groups).rev() {
            let j = dp[at(g, i)].1;
            if g > 1 {
                boundaries.push(j);
            }
            i = j;
        }
        boundaries.reverse();
        boundaries
    }

    proptest! {
        #[test]
        fn balanced_partition_is_the_full_table_partition(
            (seed, n, groups) in (any::<u64>(), 1usize..=40, 1usize..=12),
            largest in 0usize..=8,
        ) {
            // Sizes from 0 to `largest`, ties and empty levels included.
            let mut state = seed | 1;
            let mut prefix = vec![0];
            for _ in 0..n {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let size = (state % (largest as u64 + 1)) as usize;
                prefix.push(prefix[prefix.len() - 1] + size);
            }
            prop_assert_eq!(
                balanced_partition(&prefix, groups),
                balanced_partition_by_full_table(&prefix, groups)
            );
        }
    }
}

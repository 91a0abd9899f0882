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
//!   list, a function of the cluster's level range alone. [`PartitionCost`]
//!   orders each distinct `(start, end]` range once; moving a boundary
//!   changes the two ranges next to it and leaves the others as hits.
//! * `#load` of a stage is the number of values alive across the boundary
//!   the stage starts at: produced at or before that level (or a kernel
//!   input), consumed after it (or a kernel output). It depends on that one
//!   boundary, not on where the others are, so it is counted once per level
//!   from each value's producing and last consuming level.
//!
//! So a candidate is costed from table lookups, and only the winning
//! partition is materialised — from the issue lists the search already
//! ordered, through the same liveness analysis as every other schedule. The
//! cost function, the visiting order and the strict-improvement rule are the
//! ones the search has always used; a test below holds the cost to the value
//! a full rebuild of the candidate's schedule gives.

use std::cmp::Reverse;

use overlay_dfg::{Dfg, DfgAnalysis, NodeId};

use crate::asap::level_schedule;
use crate::error::ScheduleError;
use crate::stage::{Slot, StageSchedule, Strategy};

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
/// Returns [`ScheduleError::ZeroDepth`] for a zero overlay depth and
/// [`ScheduleError::EmptyKernel`] for graphs without operations.
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

    // 1. Partition the level sequence into `depth` contiguous groups,
    //    balancing the operation count (linear-partition DP), then
    //    iteratively improve by shifting cluster boundaries while it lowers
    //    the worst per-cluster cost.
    let mut boundaries = balanced_partition(analysis.level_bounds(), options.depth);
    let mut search = PartitionCost::new(dfg, &analysis, options.iwp);
    let mut best_cost = search.cost(&boundaries);
    let mut improved = true;
    while improved {
        improved = false;
        for b in 0..boundaries.len() {
            for delta in [-1isize, 1] {
                let current = boundaries[b];
                let moved = current.wrapping_add_signed(delta);
                // The neighbours fence the move: clusters stay non-empty.
                let lower = if b == 0 { 0 } else { boundaries[b - 1] };
                let upper = boundaries.get(b + 1).copied().unwrap_or(kernel_depth);
                if moved <= lower || moved >= upper {
                    continue;
                }
                boundaries[b] = moved;
                let cost = search.cost(&boundaries);
                if cost < best_cost {
                    best_cost = cost;
                    improved = true;
                } else {
                    boundaries[b] = current;
                }
            }
        }
    }

    // 2. Only the winner becomes a schedule.
    let stage_slots = cluster_ranges(&boundaries, kernel_depth)
        .into_iter()
        .map(|(start, end)| std::mem::take(search.cluster(start, end)))
        .collect();
    Ok(StageSchedule::assemble(dfg, strategy, stage_slots))
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
    // i sizes into g groups, where the last of them starts).
    let inf = usize::MAX / 2;
    let at = |g: usize, i: usize| g * (n + 1) + i;
    let mut dp = vec![(inf, 0usize); (groups + 1) * (n + 1)];
    dp[at(0, 0)].0 = 0;
    for g in 1..=groups {
        for i in g..=n {
            for j in (g - 1)..i {
                let candidate = dp[at(g - 1, j)].0.max(sum(j, i));
                if candidate < dp[at(g, i)].0 {
                    dp[at(g, i)] = (candidate, j);
                }
            }
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

/// Expands partition boundaries into the per-cluster level ranges.
fn cluster_ranges(boundaries: &[usize], levels: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::with_capacity(boundaries.len() + 1);
    let mut start = 0usize;
    for &b in boundaries {
        ranges.push((start, b));
        start = b;
    }
    ranges.push((start, levels));
    ranges
}

/// What any partition of one kernel's levels costs; see the module
/// documentation. A cluster is the level range `(start, end]`, levels being
/// 1-based, so `start` is also the boundary the cluster's stage starts at.
struct PartitionCost<'a> {
    dfg: &'a Dfg,
    analysis: &'a DfgAnalysis,
    iwp: usize,
    /// `crossing[b]`: how many values are alive across boundary `b`, i.e. the
    /// `#load` of a stage starting there (`b = 0`: the input stream).
    crossing: Vec<usize>,
    /// The issue lists ordered so far, and for cluster `(start, end]`, at
    /// `start * depth + end - 1`, one past its index among them (0 until
    /// first asked for).
    ordered: Vec<Vec<Slot>>,
    ordered_at: Vec<u32>,
    // `order_cluster`'s working state, addressed by `NodeId::index` and
    // valid for the cluster in hand only.
    consumers: Vec<usize>,
    placed: Vec<usize>,
    remaining: Vec<NodeId>,
}

impl<'a> PartitionCost<'a> {
    fn new(dfg: &'a Dfg, analysis: &'a DfgAnalysis, iwp: usize) -> Self {
        let depth = analysis.depth();
        // The last level consuming each value; an output node reads its
        // source past every boundary, which `depth` stands for.
        let mut last_use = vec![0usize; dfg.num_nodes()];
        for node in dfg.nodes() {
            let level = analysis.asap_level(node.id()).unwrap_or(depth);
            for operand in node.operands() {
                let last = &mut last_use[operand.index()];
                *last = (*last).max(level);
            }
        }
        // A value is alive across every boundary from the level producing
        // it (0 for an input) up to its last use; constants are immediates.
        let mut crossing = vec![0usize; depth];
        for node in dfg.nodes().iter().filter(|n| !n.kind().is_const()) {
            let produced = analysis.asap_level(node.id()).unwrap_or(0);
            let alive = crossing.iter_mut().take(last_use[node.id().index()]);
            alive.skip(produced).for_each(|count| *count += 1);
        }
        PartitionCost {
            dfg,
            analysis,
            iwp,
            crossing,
            ordered: Vec::with_capacity(4 * depth),
            ordered_at: vec![0; depth * depth],
            consumers: vec![0; dfg.num_nodes()],
            placed: vec![0; dfg.num_nodes()],
            remaining: Vec::new(),
        }
    }

    /// The cost used to balance cluster boundaries: the maximum per-cluster
    /// II contribution `max(#load + 1, #slots + 2)`.
    fn cost(&mut self, boundaries: &[usize]) -> usize {
        let depth = self.analysis.depth();
        let mut start = 0usize;
        let mut worst = 0usize;
        for &end in boundaries.iter().chain(std::iter::once(&depth)) {
            let slots = self.cluster(start, end).len();
            worst = worst.max((self.crossing[start] + 1).max(slots + 2));
            start = end;
        }
        worst
    }

    /// The issue list of cluster `(start, end]`, ordered on first use.
    fn cluster(&mut self, start: usize, end: usize) -> &mut Vec<Slot> {
        let key = start * self.analysis.depth() + end - 1;
        if self.ordered_at[key] == 0 {
            let slots = self.order_cluster(start, end);
            self.ordered.push(slots);
            self.ordered_at[key] = self.ordered.len() as u32;
        }
        &mut self.ordered[self.ordered_at[key] as usize - 1]
    }

    /// Orders the operations of cluster `(start, end]` with greedy list
    /// scheduling under the IWP spacing constraint, inserting NOPs when
    /// nothing is ready.
    fn order_cluster(&mut self, start: usize, end: usize) -> Vec<Slot> {
        let (dfg, analysis, iwp) = (self.dfg, self.analysis, self.iwp);
        let inside = |id: NodeId| {
            analysis
                .asap_level(id)
                .is_some_and(|level| level > start && level <= end)
        };
        self.remaining.clear();
        self.remaining
            .extend_from_slice(analysis.level_span(start, end));
        for &op in &self.remaining {
            self.consumers[op.index()] = 0;
            self.placed[op.index()] = usize::MAX;
        }
        // Count in-cluster consumers as a priority hint (direct consumers
        // are enough of a signal for these small clusters); a consumer
        // naming a value twice still counts once.
        for &op in &self.remaining {
            let operands = dfg.node_unchecked(op).operands();
            for (position, &operand) in operands.iter().enumerate() {
                if inside(operand) && !operands[..position].contains(&operand) {
                    self.consumers[operand.index()] += 1;
                }
            }
        }

        let mut slots = Vec::with_capacity(self.remaining.len());
        while !self.remaining.is_empty() {
            let t = slots.len();
            // An op is ready if all in-cluster predecessors are placed at
            // least `iwp` slots earlier (the write-back latency). Prefer ops
            // with more in-cluster consumers (they unlock later work sooner),
            // then earlier creation order for determinism.
            let chosen = self
                .remaining
                .iter()
                .enumerate()
                .filter(|&(_, &op)| {
                    dfg.node_unchecked(op).operands().iter().all(|&operand| {
                        !inside(operand)
                            || self.placed[operand.index()]
                                .checked_add(iwp)
                                .is_some_and(|ready_at| t >= ready_at)
                    })
                })
                .map(|(position, &op)| (position, op))
                .min_by_key(|&(_, op)| (Reverse(self.consumers[op.index()]), op.index()));
            match chosen {
                Some((position, op)) => {
                    self.placed[op.index()] = t;
                    slots.push(Slot::Op(op));
                    self.remaining.swap_remove(position);
                }
                None => slots.push(Slot::Nop),
            }
        }
        slots
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

    /// A candidate partition as the search used to cost it: every cluster
    /// ordered from scratch and the whole schedule assembled.
    fn full_rebuild(
        dfg: &Dfg,
        analysis: &DfgAnalysis,
        boundaries: &[usize],
        iwp: usize,
    ) -> StageSchedule {
        let stage_slots = cluster_ranges(boundaries, analysis.depth())
            .into_iter()
            .map(|(start, end)| {
                order_cluster_by_rescanning(dfg, analysis.level_span(start, end), iwp)
            })
            .collect();
        StageSchedule::assemble(dfg, Strategy::Asap, stage_slots)
    }

    /// ... and the two counts per stage it read off that schedule.
    fn cost_by_full_rebuild(rebuilt: &StageSchedule) -> usize {
        let stages = rebuilt.stages().iter();
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
            for ((start, end), stage) in ranges.into_iter().zip(rebuilt.stages()) {
                prop_assert_eq!(search.crossing[start], stage.num_loads());
                prop_assert_eq!(&*search.cluster(start, end), &stage.slots);
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
        let max_group: usize = ranges
            .iter()
            .map(|&(a, b)| sizes[a..b].iter().sum())
            .max()
            .unwrap();
        // Total is 27 over 3 groups, so the best possible maximum is 9..=10.
        assert!(max_group <= 10, "got {max_group}");
    }
}

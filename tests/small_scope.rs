//! Every serve inside a small scope is the reference serve, bit for bit:
//! the exhaustive half of the check whose random half is
//! `runtime_equivalence`'s `every_serve_matches_the_reference`. Random
//! traces seldom tie an arrival with a completion or a fault with either;
//! the small-scope hypothesis (Jackson, *Software Abstractions*, 2006) is
//! that most faults show in some small case, so every case inside the bound
//! is served:
//!
//! * every trace of 1–4 requests over two kernels, arrivals on a grid of
//!   three instants chosen to tie with completions (0, the first kernel's
//!   cold run on tile 0, and a warm second run behind it), each request of
//!   the first kernel with a deadline one cold run after its arrival or at
//!   its arrival (a negative slack), the second kernel's with none;
//! * 1–2 devices × 1–2 tiles, and one device of 3 tiles (the smallest
//!   pool in which two busy tiles' backlogs tie, so the residency index's
//!   tile tie-break is reached), both dispatch and both route policies,
//!   admission limits 1 and unlimited;
//! * no fault; on one device also an empty fault plan (the fleet tier); and
//!   at every instant an event fires in the fault-free serve, on each
//!   device, a kill revived at the next such instant or a drain.
//!
//! It runs optimised only (`cargo test --release --test small_scope`) and
//! prints its case count.

mod support;

use support::reference::{self, Facts};
use support::{check_serve, dsl_kernels};
use tm_overlay::{Cluster, DispatchPolicy, FaultPlan, FuVariant, Request, RoutePolicy, Workload};

/// Every non-decreasing sequence of `len` instants out of `grid`.
fn arrivals(grid: &[f64], len: usize) -> Vec<Vec<f64>> {
    if len == 0 {
        return vec![vec![]];
    }
    let mut sequences = Vec::new();
    for shorter in arrivals(grid, len - 1) {
        let floor = shorter.last().copied().unwrap_or(grid[0]);
        for &at in grid.iter().filter(|&&at| at >= floor) {
            let mut sequence = shorter.clone();
            sequence.push(at);
            sequences.push(sequence);
        }
    }
    sequences
}

/// The fault-free serve's event instants: every arrival and completion.
fn instants(requests: &[Request], served: &reference::Served) -> Vec<f64> {
    let ends = served.outcomes.iter().map(|o| f64::from_bits(o.end_bits));
    let mut instants: Vec<f64> = requests.iter().map(|r| r.arrival_us).chain(ends).collect();
    instants.sort_by(f64::total_cmp);
    instants.dedup();
    instants
}

/// No plan, on one device an empty one, and one fault at each instant.
fn plans(devices: usize, instants: &[f64]) -> Vec<Option<FaultPlan>> {
    let mut plans = vec![None];
    if devices == 1 {
        plans.push(Some(FaultPlan::new()));
    }
    for (at, &time_us) in instants.iter().enumerate() {
        let revive_us = instants.get(at + 1).copied().unwrap_or(time_us);
        for device in 0..devices {
            plans.push(Some(
                FaultPlan::new()
                    .kill(time_us, device)
                    .revive(revive_us, device),
            ));
            plans.push(Some(FaultPlan::new().drain(time_us, device)));
        }
    }
    plans
}

#[test]
#[cfg_attr(debug_assertions, ignore = "exhaustive: run it optimised")]
fn every_small_serve_matches_the_reference() {
    let [(a, a_inputs), (b, b_inputs), _] = dsl_kernels();
    let kernels = [
        (a, Workload::random(a_inputs, 1, 1)),
        (b, Workload::random(b_inputs, 1, 2)),
    ];
    let mut facts = Facts::default();
    let alone = Cluster::new(FuVariant::V4, 1, 1).unwrap();
    let run = |count: usize, facts: &mut Facts| {
        let (spec, workload) = &kernels[0];
        let requests: Vec<Request> = (0..count as u64)
            .map(|id| Request::new(id, spec.clone(), workload.clone()))
            .collect();
        let served = reference::serve(&alone, &requests, facts);
        f64::from_bits(served.outcomes[count - 1].end_bits)
    };
    let cold_us = run(1, &mut facts);
    let grid = [0.0, cold_us, run(2, &mut facts)];

    let mut cases = 0usize;
    for len in 1..=4 {
        for times in arrivals(&grid, len) {
            for pick in 0..3usize.pow(len as u32) {
                let requests: Vec<Request> = times
                    .iter()
                    .enumerate()
                    .map(|(id, &at)| {
                        let kind = pick / 3usize.pow(id as u32) % 3;
                        let (spec, workload) = &kernels[usize::from(kind == 2)];
                        let request =
                            Request::new(id as u64, spec.clone(), workload.clone()).at(at);
                        match kind {
                            0 => request.with_deadline(at + cold_us),
                            1 => request.with_deadline(at),
                            _ => request,
                        }
                    })
                    .collect();
                cases += serve_every_config(&requests, &mut facts);
            }
        }
    }
    println!("{cases} small-scope serves match the reference");
}

/// Holds every configuration's serve of `requests` to the reference;
/// returns how many it served.
fn serve_every_config(requests: &[Request], facts: &mut Facts) -> usize {
    let mut cases = 0;
    for (devices, tiles) in [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2)] {
        for dispatch in DispatchPolicy::ALL {
            for route in RoutePolicy::ALL {
                for limit in [1, usize::MAX] {
                    let cluster = |plan: Option<FaultPlan>| {
                        let cluster = Cluster::new(FuVariant::V4, devices, tiles)
                            .unwrap()
                            .with_policy(dispatch)
                            .with_route_policy(route)
                            .with_admission_limit(limit);
                        match plan {
                            Some(plan) => cluster.with_fault_plan(plan),
                            None => cluster,
                        }
                    };
                    let fault_free = reference::serve(&cluster(None), requests, facts);
                    for plan in plans(devices, &instants(requests, &fault_free)) {
                        let case = format!("{devices}x{tiles} {dispatch} {route} {limit} {plan:?}");
                        if let Err(failed) = check_serve(cluster(plan), requests, facts) {
                            panic!("{case} {requests:?}: {failed:?}");
                        }
                        cases += 1;
                    }
                }
            }
        }
    }
    cases
}

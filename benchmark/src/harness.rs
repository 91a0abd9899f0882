//! The run shape every workload shares: set up, repeat identical work for
//! the asked number of seconds, check, report.
//!
//! One process, one load-generating thread, pinned to one CPU (see
//! [`crate::pin`]); the simulation workers a serve spawns belong to the
//! program. `setup_s` runs from process start to the first timed repetition.
//! Set-up — inputs from the seed, reference outputs from
//! `dfg::evaluate_stream`, program state, warm-up repetitions — is a fixed
//! amount of work done [`SETUPS`] times from scratch, which makes it long
//! enough to time on a noisy host while every one-time cost (a constructor,
//! a first compile, a memo fill) keeps the share of it that it has of one
//! set-up. `ops_per_s` is the ops of the timed repetitions over their wall
//! time. Both are reported at the speed of a reference host, which a probe
//! kernel run after every repetition measures; see [`crate::probe`].

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use crate::cli::Args;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::pin;
use crate::probe::Probe;
use crate::span::Tracer;
use crate::stats::{self, ratio};
use crate::workloads::{self, Layers, Modeled, RepOutcome, Sizing, Workload};

/// Complete set-ups per run, one after the other, each from scratch.
pub const SETUPS: usize = 5;
/// Share of a repetition's wall time the host-speed probe runs for after it.
const PROBE_SHARE: f64 = 0.03;
/// A measuring phase never ends before this many repetitions.
pub const MIN_REPS: usize = 3;
/// Share of a traced run's measuring phase spent on untraced repetitions,
/// the base `harness.trace_overhead_share` compares against.
const PLAIN_SHARE_OF_TRACED: f64 = 0.3;
/// Layers whose traced self time `bench-traced` reports as a share.
const SELF_SHARE_LAYERS: [(&str, &str); 7] = [
    ("frontend", "harness.self_share.frontend"),
    ("dfg", "harness.self_share.dfg"),
    ("scheduler", "harness.self_share.scheduler"),
    ("isa", "harness.self_share.isa"),
    ("core", "harness.self_share.core"),
    ("sim", "harness.self_share.sim"),
    ("runtime", "harness.self_share.runtime"),
];

/// Which binary is running.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `bench`: tracing off, end-to-end metrics.
    Plain,
    /// `bench-traced`: spans on, per-layer metrics.
    Traced,
}

/// What one run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Ops attempted: every op of every repetition plus the check pass's.
    pub attempted: u64,
    /// Ops that returned `Err`, produced a wrong output, or belong to a
    /// repetition whose modelled statistics differ from repetition 0's.
    pub failed: u64,
    /// `(name, value, unit)`, in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Timed repetitions.
    pub reps: usize,
}

impl RunResult {
    /// No op failed.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The value of metric `name`.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(metric, _, _)| *metric == name)
            .map(|(_, value, _)| *value)
    }

    /// The result line the contract asks for: one JSON object.
    pub fn json_line(&self) -> String {
        let mut line = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (index, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if index == 0 { "" } else { ", " };
            let _ = write!(
                line,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        line.push_str("}}");
        line
    }

    /// 0 when every output check passed, 1 otherwise.
    pub fn exit_code(&self) -> u8 {
        u8::from(!self.correct())
    }
}

/// Peak resident set of this process, MiB (`VmHWM`); 0 where `/proc` has
/// no such line.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A workload set up [`SETUPS`] times, the last set-up kept.
pub struct Prepared {
    /// The workload, warmed up.
    pub workload: Box<dyn Workload>,
    /// Wall time from `started` to the end of the last set-up, seconds, as
    /// measured.
    pub setup_s: f64,
    /// The host-speed probe's passes during the set-ups.
    pub probe: Probe,
    /// Warm-up repetitions run, over every set-up.
    pub warmup_reps: usize,
    /// Ops those repetitions reported wrong. Their modelled statistics are
    /// not compared: the first serve of a cluster loads cold kernel stores
    /// and legitimately differs from every later one.
    pub warmup_failed: u64,
}

/// Sets workload `name` up `setups` times from scratch — inputs, reference
/// outputs, program state, warm-up repetitions. `started` is when the
/// process started. `None` for an unknown name.
pub fn prepare(
    name: &str,
    seed: u64,
    sizing: &Sizing,
    setups: usize,
    started: Instant,
) -> Option<Prepared> {
    let mut warmup_reps = 0;
    let mut warmup_failed = 0;
    let mut probe = Probe::default();
    let mut kept = None;
    for _ in 0..setups {
        // The previous set-up goes first, so peak memory is one set-up's.
        drop(kept.take());
        let built = Instant::now();
        let mut workload = workloads::build(name, seed, sizing)?;
        probe.burst(built.elapsed().mul_f64(PROBE_SHARE));
        for _ in 0..workload.warmup_reps() {
            let outcome = workload.rep();
            probe.burst(outcome.wall.mul_f64(PROBE_SHARE));
            warmup_failed += outcome.failed;
            warmup_reps += 1;
        }
        kept = Some(workload);
    }
    Some(Prepared {
        workload: kept?,
        setup_s: started.elapsed().as_secs_f64(),
        probe,
        warmup_reps,
        warmup_failed,
    })
}

/// Repeats `rep` until `seconds` have passed, at least [`MIN_REPS`] times,
/// the host-speed probe running after each.
fn repeat_for(seconds: f64, mut rep: impl FnMut() -> RepOutcome) -> (Vec<RepOutcome>, Probe) {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut probe = Probe::default();
    while reps.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        let outcome = rep();
        probe.burst(outcome.wall.mul_f64(PROBE_SHARE));
        reps.push(outcome);
    }
    (reps, probe)
}

fn wall_seconds(reps: &[RepOutcome]) -> Vec<f64> {
    reps.iter().map(|rep| rep.wall.as_secs_f64()).collect()
}

/// Ops per host second over `reps`, at the speed of the reference host.
///
/// Total over total, not the median repetition: the probe prices the mean
/// speed of the host over the phase, and it is the mean repetition that is
/// proportional to that (dividing the median by it left three times the
/// spread on `sim_sweep`).
fn ops_per_s(ops_per_rep: u64, reps: &[RepOutcome], probe: &Probe) -> f64 {
    let ops = (ops_per_rep * reps.len() as u64) as f64;
    ratio(ops, wall_seconds(reps).iter().sum()) / probe.speed()
}

/// Ops failed across the timed `reps`: those the repetitions reported
/// themselves, and every op of a repetition whose modelled statistics
/// differ from repetition 0's.
fn failed_ops(ops_per_rep: u64, reps: &[RepOutcome]) -> u64 {
    let digest = reps[0].digest;
    reps.iter()
        .map(|rep| {
            if rep.digest == digest {
                rep.failed
            } else {
                ops_per_rep
            }
        })
        .sum()
}

fn end_to_end(
    setup_s: f64,
    ops_per_s: f64,
    modeled: &Modeled,
) -> Vec<(&'static str, f64, &'static str)> {
    let values = [
        setup_s,
        ops_per_s,
        peak_rss_mb(),
        modeled.ops_per_s,
        modeled.p99_us,
        modeled.met_share,
        modeled.ii_geomean,
        modeled.ii_err_vs_paper,
        modeled.code_words_per_kernel,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// Runs workload `name` with tracing off. `started` is when the process
/// started.
///
/// # Errors
///
/// An unknown workload name.
pub fn run_plain(
    name: &str,
    seed: u64,
    seconds: f64,
    sizing: &Sizing,
    started: Instant,
) -> Result<RunResult, String> {
    let prepared = prepare(name, seed, sizing, SETUPS, started).ok_or_else(|| unknown(name))?;
    Ok(measure(prepared, seconds))
}

/// The measuring phase and the check pass of a run with tracing off.
pub fn measure(prepared: Prepared, seconds: f64) -> RunResult {
    let Prepared {
        mut workload,
        setup_s,
        probe: setup_probe,
        warmup_reps,
        warmup_failed,
    } = prepared;
    let ops_per_rep = workload.ops_per_rep();
    let (reps, probe) = repeat_for(seconds, || workload.rep());
    let (modeled, checked_failed) = workload.check();

    let walls = wall_seconds(&reps);
    let ops_per_s = ops_per_s(ops_per_rep, &reps, &probe);
    println!(
        "{} repetitions of {ops_per_rep} ops, timed {:.3} s; repetition mean {:.6} s, median \
         {:.6} s, p5 {:.6} s, IQR {:.1} % of the median",
        reps.len(),
        walls.iter().sum::<f64>(),
        stats::mean(&walls),
        stats::median(&walls),
        stats::percentile(&walls, 5.0),
        100.0 * stats::iqr_share(&walls),
    );
    // One line `run_sets.sh` reads: the two host times as the clock gave
    // them, and the host speeds they are reported at.
    println!(
        "as measured: {{\"setup_s\": {setup_s}, \"setup_host_speed\": {}, \"ops_per_s\": {}, \
         \"host_speed\": {}, \"probe_passes\": {}}}",
        setup_probe.speed(),
        ops_per_s * probe.speed(),
        probe.speed(),
        setup_probe.passes() + probe.passes(),
    );
    RunResult {
        attempted: ops_per_rep * (warmup_reps + reps.len() + 1) as u64,
        failed: warmup_failed + failed_ops(ops_per_rep, &reps) + checked_failed,
        metrics: end_to_end(setup_s * setup_probe.speed(), ops_per_s, &modeled),
        reps: reps.len(),
    }
}

/// Runs workload `name` with spans on and returns its per-layer metrics and
/// the trace file's contents. Every other workload runs briefly at
/// [`Sizing::SMALL`] too, so a traced run prints every layer's metrics; a
/// layer's figures are best read from the workload that exercises it.
///
/// # Errors
///
/// An unknown workload name, or a per-layer metric nobody produced.
pub fn run_traced(
    name: &str,
    seed: u64,
    seconds: f64,
    sizing: &Sizing,
) -> Result<(RunResult, String), String> {
    if !workloads::NAMES.contains(&name) {
        return Err(unknown(name));
    }
    let mut layers = Layers::new();
    for other in workloads::NAMES.into_iter().filter(|other| *other != name) {
        let probe = trace_one(other, seed, 0.0, &Sizing::SMALL, 1, &mut layers)?;
        if !probe.result.correct() {
            return Err(format!("the {other} probe failed its output check"));
        }
    }
    let main = trace_one(name, seed, seconds, sizing, SETUPS, &mut layers)?;
    layers.extend(main.harness);

    let metrics = PER_LAYER
        .iter()
        .map(|&(metric, unit)| {
            layers
                .get(metric)
                .filter(|value| value.is_finite())
                .map(|&value| (metric, value, unit))
                .ok_or_else(|| format!("no finite value for per-layer metric {metric}"))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let result = RunResult {
        metrics,
        ..main.result
    };
    Ok((result, main.tracer.to_json(name, seed)))
}

struct Traced {
    result: RunResult,
    tracer: Tracer,
    harness: Layers,
}

/// One workload, plain repetitions then traced ones, its layer metrics
/// added to `layers`.
fn trace_one(
    name: &str,
    seed: u64,
    seconds: f64,
    sizing: &Sizing,
    setups: usize,
    layers: &mut Layers,
) -> Result<Traced, String> {
    let Prepared {
        mut workload,
        warmup_reps,
        warmup_failed,
        ..
    } = prepare(name, seed, sizing, setups, Instant::now()).ok_or_else(|| unknown(name))?;
    let ops_per_rep = workload.ops_per_rep();
    let (plain, plain_probe) = repeat_for(seconds * PLAIN_SHARE_OF_TRACED, || workload.rep());

    let mut tracer = Tracer::new();
    let traced_seconds = seconds * (1.0 - PLAIN_SHARE_OF_TRACED);
    let (traced, traced_probe) = repeat_for(traced_seconds, || workload.rep_traced(&mut tracer));
    let traced_wall_ns: f64 = traced.iter().map(|rep| rep.wall.as_nanos() as f64).sum();
    let self_ns = |layer: &str| tracer.layer_self_ns(layer) as f64;
    let in_program_ns: f64 = SELF_SHARE_LAYERS
        .iter()
        .map(|(layer, _)| self_ns(layer))
        .sum();
    let mut harness: Layers = SELF_SHARE_LAYERS
        .iter()
        .map(|&(layer, metric)| (metric, ratio(self_ns(layer), traced_wall_ns)))
        .collect();

    let (_, checked_failed) = workload.check();
    // Per-layer times are as measured, so the untraced cost of an op is too.
    let plain_ops_per_s = ops_per_s(ops_per_rep, &plain, &plain_probe);
    let plain_ns_per_op = ratio(1e9, plain_ops_per_s * plain_probe.speed());
    workload.layers(&mut tracer, plain_ns_per_op, layers);

    // Allocations inside the traced repetitions' timers only: the harness's
    // own copies, checks and span storage stay outside the count.
    let traced_ops = (ops_per_rep * traced.len() as u64) as f64;
    let allocs: u64 = traced.iter().map(|rep| rep.allocs.count).sum();
    let alloc_bytes: u64 = traced.iter().map(|rep| rep.allocs.bytes).sum();
    let walls = wall_seconds(&traced);
    harness.extend([
        ("harness.host_speed", traced_probe.speed()),
        ("harness.reps", traced.len() as f64),
        ("harness.timed_s", walls.iter().sum()),
        ("harness.rep_iqr_share", stats::iqr_share(&walls)),
        (
            "harness.in_program_share",
            ratio(in_program_ns, traced_wall_ns),
        ),
        (
            "harness.trace_overhead_share",
            1.0 - ratio(
                ops_per_s(ops_per_rep, &traced, &traced_probe),
                plain_ops_per_s,
            ),
        ),
        ("harness.allocs_per_op", ratio(allocs as f64, traced_ops)),
        (
            "harness.alloc_bytes_per_op",
            ratio(alloc_bytes as f64, traced_ops),
        ),
    ]);

    let timed: Vec<RepOutcome> = plain.iter().chain(&traced).copied().collect();
    let reps = warmup_reps + timed.len();
    Ok(Traced {
        result: RunResult {
            attempted: ops_per_rep * (reps + 1) as u64,
            failed: warmup_failed + failed_ops(ops_per_rep, &timed) + checked_failed,
            metrics: Vec::new(),
            reps: traced.len(),
        },
        tracer,
        harness,
    })
}

fn unknown(name: &str) -> String {
    format!(
        "unknown workload `{name}`; the workloads are {}",
        workloads::NAMES.join(", ")
    )
}

fn print_metrics(result: &RunResult) {
    for (name, value, unit) in &result.metrics {
        println!("{name:<44} {value:>22.6} {unit}");
    }
    println!("{}", result.json_line());
}

fn write_trace(out_dir: &Path, workload: &str, trace: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(out_dir)?;
    std::fs::write(out_dir.join(format!("{workload}.trace.json")), trace)
}

/// `main` of both binaries: parses the arguments, runs the workload, prints
/// every metric by name with its unit and the result line last. Exits 0
/// when every output check passed, 1 when one failed (after printing), 2
/// for a usage error.
pub fn main(mode: Mode) -> ExitCode {
    let usage = |message: String| {
        eprintln!("{message}");
        eprintln!("usage: --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]");
        ExitCode::from(2)
    };
    let started = Instant::now();
    if let Some(cpu) = pin::pin_to_one_cpu() {
        println!(
            "pinned to cpu {cpu}, one allocator arena: {}",
            pin::one_malloc_arena()
        );
    }
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => return usage(message),
    };
    if args
        .trace
        .is_some_and(|trace| trace != (mode == Mode::Traced))
    {
        return usage("--trace 1 is `bench-traced`, --trace 0 is `bench`".to_owned());
    }
    let outcome = match mode {
        Mode::Plain => run_plain(
            &args.workload,
            args.seed,
            args.seconds,
            &Sizing::FULL,
            started,
        ),
        Mode::Traced => run_traced(&args.workload, args.seed, args.seconds, &Sizing::FULL)
            .and_then(|(result, trace)| {
                write_trace(&args.out_dir, &args.workload, &trace)
                    .map_err(|error| format!("cannot write the trace file: {error}"))?;
                Ok(result)
            }),
    };
    match outcome {
        Ok(result) => {
            print_metrics(&result);
            ExitCode::from(result.exit_code())
        }
        Err(message) => usage(message),
    }
}

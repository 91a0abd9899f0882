//! Regenerates the paper's tables and figures from the models and the
//! cycle-accurate simulator.
//!
//! ```text
//! cargo run --release --bin repro              # everything
//! cargo run --release --bin repro -- table3    # one artefact
//! ```
//!
//! Valid selectors: `table1`, `table2`, `table3`, `fig5`, `fig6`,
//! `context-switch`, `examples`, `ablation`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use tm_overlay::arch::{scalability_sweep, FuVariant, OverlayConfig, ReconfigModel};
use tm_overlay::frontend::Benchmark;
use tm_overlay::scheduler::{asap_schedule, ii_for_variant, schedule, schedule_table};
use tm_overlay::{compare_variants, Compiler, Overlay};

/// Every selector, in the order a bare `repro` prints them.
const ALL: [&str; 8] = [
    "table1",
    "table2",
    "table3",
    "fig5",
    "fig6",
    "context-switch",
    "examples",
    "ablation",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selectors: Vec<&str> = if args.is_empty() {
        ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    match render(&selectors) {
        Ok(text) => print!("{text}"),
        Err(other) => {
            eprintln!("unknown selector `{other}`");
            std::process::exit(2);
        }
    }
}

/// The text `repro` prints for `selectors`: each artefact followed by a
/// separator line. Fails on the first unknown selector.
fn render<'a>(selectors: &[&'a str]) -> Result<String, &'a str> {
    let mut out = String::new();
    for &selector in selectors {
        let text = match selector {
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(),
            "fig5" => fig5(),
            "fig6" => fig6(),
            "context-switch" => context_switch(),
            "examples" => worked_examples(),
            "ablation" => iwp_ablation(),
            other => return Err(other),
        };
        let _ = writeln!(out, "{text}");
        let _ = writeln!(out, "{}", "=".repeat(100));
    }
    Ok(out)
}

/// Table I: per-FU resources, frequency and IWP for every variant.
fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table I: comparison of the FU designs (Zynq XC7Z020)");
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>6} {:>6} {:>10} {:>5}  description",
        "variant", "DSPs", "LUTs", "FFs", "fmax (MHz)", "IWP"
    );
    for variant in FuVariant::ALL {
        let r = variant.fu_resources();
        let iwp = variant
            .iwp()
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_owned());
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>6} {:>6} {:>10.0} {:>5}  {}",
            variant.name(),
            r.dsps,
            r.luts,
            r.ffs,
            variant.fu_fmax_mhz(),
            iwp,
            variant.description()
        );
    }
    out
}

/// Table II: the first cycles of the pipelined 'gradient' schedule on the V1
/// overlay (II = 6).
fn table2() -> String {
    let dfg = Benchmark::Gradient.dfg().expect("gradient builds");
    let stages = asap_schedule(&dfg).expect("gradient schedules");
    let ii = ii_for_variant(&stages, FuVariant::V1) as usize;
    let table = schedule_table(&dfg, &stages, ii, 6, 32);
    format!(
        "Table II: first 32 cycles of the 'gradient' schedule (II = {ii})\n{}",
        table.to_text()
    )
}

/// Table III: DFG characteristics and the II achieved by each overlay
/// variant across the benchmark suite, with the paper's values alongside.
fn table3() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Table III: benchmark characteristics and initiation interval (measured | paper)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>5} {:>6} | {:>11} {:>11} {:>11} {:>11} {:>11}",
        "kernel", "I/O", "#ops", "depth", "[14]", "V1", "V2", "V3", "V4"
    );
    for benchmark in Benchmark::TABLE3 {
        let record = benchmark.paper_record();
        let dfg = benchmark.dfg().expect("benchmark builds");
        let stats = dfg.analysis().stats(&dfg);
        let mut cells = Vec::new();
        for (variant, paper) in [
            (FuVariant::Baseline, record.ii_baseline),
            (FuVariant::V1, record.ii_v1),
            (FuVariant::V2, record.ii_v2),
            (FuVariant::V3, record.ii_v3),
            (FuVariant::V4, record.ii_v4),
        ] {
            let stages = schedule(&dfg, variant, Some(8)).expect("schedules");
            let ii = ii_for_variant(&stages, variant);
            cells.push(format!("{ii:>5.1}|{paper:<5.1}"));
        }
        let _ = writeln!(
            out,
            "{:<10} {:>2}/{:<2} {:>5} {:>6} | {}",
            benchmark.name(),
            stats.inputs,
            stats.outputs,
            stats.ops,
            stats.depth,
            cells.join(" ")
        );
    }
    out
}

/// Fig. 5: overlay scalability — slices, DSPs and fmax against overlay size.
fn fig5() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Fig. 5: V1/V2 overlay scalability on the Zynq XC7Z020");
    let _ = writeln!(
        out,
        "{:>5} | {:>11} {:>5} {:>6} | {:>11} {:>5} {:>6} | {:>11} {:>5} {:>6}",
        "FUs",
        "[14] slices",
        "DSPs",
        "fmax",
        "V1 slices",
        "DSPs",
        "fmax",
        "V2 slices",
        "DSPs",
        "fmax"
    );
    let sizes: Vec<usize> = (1..=8).map(|i| i * 2).collect();
    let series: Vec<_> = [FuVariant::Baseline, FuVariant::V1, FuVariant::V2]
        .iter()
        .map(|&v| scalability_sweep(v, &sizes).expect("sweep"))
        .collect();
    for i in 0..sizes.len() {
        let _ = writeln!(
            out,
            "{:>5} | {:>11} {:>5} {:>6.0} | {:>11} {:>5} {:>6.0} | {:>11} {:>5} {:>6.0}",
            sizes[i],
            series[0][i].slices,
            series[0][i].dsps,
            series[0][i].fmax_mhz,
            series[1][i].slices,
            series[1][i].dsps,
            series[1][i].fmax_mhz,
            series[2][i].slices,
            series[2][i].dsps,
            series[2][i].fmax_mhz,
        );
    }
    let _ = writeln!(
        out,
        "fixed depth-8 overlays: V3 {} slices @ {:.0} MHz, V4 {} slices @ {:.0} MHz",
        OverlayConfig::new(FuVariant::V3, 8)
            .unwrap()
            .resource_estimate()
            .slices,
        OverlayConfig::new(FuVariant::V3, 8).unwrap().fmax_mhz(),
        OverlayConfig::new(FuVariant::V4, 8)
            .unwrap()
            .resource_estimate()
            .slices,
        OverlayConfig::new(FuVariant::V4, 8).unwrap().fmax_mhz(),
    );
    out
}

/// Fig. 6: simulated throughput and latency for every benchmark and variant.
fn fig6() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Fig. 6: throughput (GOPS) and latency (ns) per benchmark"
    );
    let _ = writeln!(
        out,
        "{:<10} | {:>22} {:>22} {:>22} {:>22} {:>22}",
        "kernel", "[14]", "V1", "V2", "V3", "V4"
    );
    for benchmark in Benchmark::TABLE3 {
        let dfg = benchmark.dfg().expect("benchmark builds");
        let results =
            compare_variants(&dfg, &FuVariant::EVALUATED, 48, 2024).expect("comparison runs");
        let cells: Vec<String> = results
            .iter()
            .map(|r| {
                format!(
                    "{:>8.2} GOPS {:>6.0} ns",
                    r.performance.throughput_gops, r.performance.latency_ns
                )
            })
            .collect();
        let _ = writeln!(out, "{:<10} | {}", benchmark.name(), cells.join(" "));
    }
    out
}

/// Sec. V context-switch comparison: PCAP reconfiguration vs. instruction
/// reload, and the resulting speedup.
fn context_switch() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Hardware context switch (largest benchmark per column):"
    );
    let model = ReconfigModel::new();
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>14} {:>14} {:>12}",
        "kernel", "V1 full (us)", "V2 full (us)", "V3 reload (us)", "speedup"
    );
    for benchmark in Benchmark::TABLE3 {
        let v1 = Compiler::new(FuVariant::V1)
            .compile_benchmark(benchmark)
            .unwrap();
        let v2 = Compiler::new(FuVariant::V2)
            .compile_benchmark(benchmark)
            .unwrap();
        let v3 = Compiler::new(FuVariant::V3)
            .compile_benchmark(benchmark)
            .unwrap();
        let v1_switch = model.full_switch(
            &OverlayConfig::new(FuVariant::V1, v1.num_fus()).unwrap(),
            v1.program.config_bits(),
        );
        let v2_switch = model.full_switch(
            &OverlayConfig::new(FuVariant::V2, v2.num_fus()).unwrap(),
            v2.program.config_bits(),
        );
        let v3_switch = model.program_only_switch(FuVariant::V3, v3.program.config_bits());
        let _ = writeln!(
            out,
            "{:<10} {:>14.2} {:>14.2} {:>14.3} {:>11.0}x",
            benchmark.name(),
            v1_switch.total_us(),
            v2_switch.total_us(),
            v3_switch.total_us(),
            v3_switch.speedup_over(&v1_switch)
        );
    }
    out
}

/// The worked examples of Sections III–IV: gradient and qspline figures.
fn worked_examples() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Worked examples (Sec. III-IV):");
    // gradient on V1/V2
    let gradient = Benchmark::Gradient.dfg().unwrap();
    let schedule_g = asap_schedule(&gradient).unwrap();
    let _ = writeln!(
        out,
        "  gradient: II [14] = {}, V1 = {}, V2 = {} (paper: 11 / 6 / 3)",
        ii_for_variant(&schedule_g, FuVariant::Baseline),
        ii_for_variant(&schedule_g, FuVariant::V1),
        ii_for_variant(&schedule_g, FuVariant::V2),
    );
    // qspline on a depth-4 V3/V4 overlay vs the depth-8 V1 overlay
    for (variant, depth) in [(FuVariant::V3, 4), (FuVariant::V4, 4), (FuVariant::V1, 8)] {
        let compiled = Compiler::new(variant)
            .with_fixed_depth(depth)
            .compile_benchmark(Benchmark::Qspline)
            .unwrap();
        let overlay = Overlay::new(variant, depth.max(compiled.num_fus())).unwrap();
        let workload = tm_overlay::Workload::random(7, 48, 5);
        let run = overlay.execute(&compiled, &workload).unwrap();
        let report = overlay.performance(&compiled, &run);
        let _ = writeln!(
            out,
            "  qspline on depth-{depth} {variant}: II {:.1}, {:.2} GOPS, {:.0} ns latency",
            report.measured_ii, report.throughput_gops, report.latency_ns
        );
    }
    out
}

/// Ablation: how the internal write-back path length (IWP 5/4/3 for V3/V4/V5)
/// trades NOP insertion against operating frequency on the deep benchmarks.
fn iwp_ablation() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "IWP ablation on the fixed depth-8 overlay (deep kernels):"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10}",
        "kernel", "V3 nops", "V4 nops", "V5 nops", "V3 GOPS", "V4 GOPS", "V5 GOPS"
    );
    for benchmark in [Benchmark::Poly6, Benchmark::Poly7, Benchmark::Poly8] {
        let dfg = benchmark.dfg().unwrap();
        let mut nops = Vec::new();
        let mut gops = Vec::new();
        for variant in [FuVariant::V3, FuVariant::V4, FuVariant::V5] {
            let stages = schedule(&dfg, variant, Some(8)).unwrap();
            nops.push(stages.total_nops());
            let ii = ii_for_variant(&stages, variant);
            let fmax = OverlayConfig::new(variant, 8).unwrap().fmax_mhz();
            gops.push(dfg.num_ops() as f64 * fmax / ii / 1_000.0);
        }
        let _ = writeln!(
            out,
            "{:<10} {:>8} {:>8} {:>8} {:>10.2} {:>10.2} {:>10.2}",
            benchmark.name(),
            nops[0],
            nops[1],
            nops[2],
            gops[0],
            gops[1],
            gops[2]
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stable 64-bit FNV-1a.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
            (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Every table and figure, byte for byte: the digest of what a bare
    /// `repro` prints (109 lines, the same in debug and release builds).
    /// Never edit the constant to make this pass; a mismatch prints the
    /// text the models produce now.
    #[test]
    fn default_output_matches_its_golden_digest() {
        const GOLDEN_OUTPUT_FNV: u64 = 0xba2a_8167_79af_2b9b;
        let text = render(&ALL).expect("every default selector is known");
        assert_eq!(text.lines().count(), 109);
        assert_eq!(
            fnv1a(text.as_bytes()),
            GOLDEN_OUTPUT_FNV,
            "digest {:#018x} of the output below is not the golden one\n{text}",
            fnv1a(text.as_bytes())
        );
        assert_eq!(render(&["table1", "fig7"]), Err("fig7"));
    }
}

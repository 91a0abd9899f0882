//! Checks of the headline claims and published numbers of the paper, as far
//! as the reproduction supports them. `cargo run --release --bin repro`
//! prints the full paper-vs-measured comparison; these tests pin the values
//! that must not drift.

use tm_overlay::arch::{FpgaDevice, OverlayConfig, ReconfigModel};
use tm_overlay::scheduler::{asap_schedule, ii_baseline, ii_v1, ii_v2};
use tm_overlay::{Benchmark, Compiler, FuVariant, Overlay};

#[test]
#[allow(clippy::type_complexity)] // one tuple row per Table I column
fn table1_fu_characteristics_match_the_paper() {
    let expected: &[(FuVariant, usize, usize, usize, f64, Option<usize>)] = &[
        (FuVariant::Baseline, 1, 160, 293, 325.0, None),
        (FuVariant::V1, 1, 196, 237, 334.0, None),
        (FuVariant::V2, 2, 292, 333, 335.0, None),
        (FuVariant::V3, 1, 212, 228, 323.0, Some(5)),
        (FuVariant::V4, 1, 207, 163, 254.0, Some(4)),
        (FuVariant::V5, 1, 248, 126, 182.0, Some(3)),
    ];
    for &(variant, dsps, luts, ffs, fmax, iwp) in expected {
        let resources = variant.fu_resources();
        assert_eq!(resources.dsps, dsps, "{variant} DSPs");
        assert_eq!(resources.luts, luts, "{variant} LUTs");
        assert_eq!(resources.ffs, ffs, "{variant} FFs");
        assert_eq!(variant.fu_fmax_mhz(), fmax, "{variant} fmax");
        assert_eq!(variant.iwp(), iwp, "{variant} IWP");
    }
}

#[test]
fn gradient_worked_example_ii_values() {
    // Sec. IV: the 'gradient' II drops from 11 ([14]) to 6 (V1) and 3 (V2).
    let dfg = Benchmark::Gradient.dfg().unwrap();
    let schedule = asap_schedule(&dfg).unwrap();
    assert_eq!(ii_baseline(&schedule), 11.0);
    assert_eq!(ii_v1(&schedule), 6.0);
    assert_eq!(ii_v2(&schedule), 3.0);
}

#[test]
fn table3_dfg_characteristics_match_exactly() {
    for benchmark in Benchmark::TABLE3 {
        let record = benchmark.paper_record();
        let dfg = benchmark.dfg().unwrap();
        assert_eq!(dfg.num_inputs(), record.inputs, "{benchmark} inputs");
        assert_eq!(dfg.num_outputs(), record.outputs, "{benchmark} outputs");
        assert_eq!(dfg.num_ops(), record.ops, "{benchmark} ops");
        assert_eq!(dfg.analysis().depth(), record.depth, "{benchmark} depth");
    }
}

#[test]
fn table3_ii_shape_holds_across_the_suite() {
    // The paper's central quantitative claims over Table III: V1 reduces the
    // II by ~42% on average vs [14], V2 by ~71%, and the fixed-depth V3/V4
    // stay between V1 and the baseline.
    let mut v1_reductions = Vec::new();
    let mut v2_reductions = Vec::new();
    for benchmark in Benchmark::TABLE3 {
        let dfg = benchmark.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let baseline = ii_baseline(&schedule);
        let v1 = ii_v1(&schedule);
        let v2 = ii_v2(&schedule);
        assert!(v1 < baseline, "{benchmark}: V1 must improve on [14]");
        assert_eq!(v2, v1 / 2.0, "{benchmark}: V2 halves the V1 II");
        v1_reductions.push(1.0 - v1 / baseline);
        v2_reductions.push(1.0 - v2 / baseline);

        // Fixed-depth variants: at most a modest II increase over V1 and
        // never worse than the baseline.
        for variant in [FuVariant::V3, FuVariant::V4] {
            let compiled = Compiler::new(variant).compile_benchmark(benchmark).unwrap();
            assert!(
                compiled.ii <= baseline,
                "{benchmark} {variant}: fixed-depth II must not exceed the baseline"
            );
            assert!(
                compiled.ii >= v1 - 1e-9,
                "{benchmark} {variant}: compressing depth cannot beat the depth-matched V1"
            );
        }
    }
    let avg_v1 = v1_reductions.iter().sum::<f64>() / v1_reductions.len() as f64;
    let avg_v2 = v2_reductions.iter().sum::<f64>() / v2_reductions.len() as f64;
    assert!(
        (0.30..=0.55).contains(&avg_v1),
        "average V1 reduction {avg_v1:.2} should be near the paper's 42%"
    );
    assert!(
        (0.60..=0.80).contains(&avg_v2),
        "average V2 reduction {avg_v2:.2} should be near the paper's 71%"
    );
}

#[test]
fn depth8_overlay_footprints_match_section_v() {
    // "A depth 8 V1 overlay consumes 654 logic slices and 8 DSP slices …
    // less than 5% of the logic and DSP resources on Zynq. The depth 8 V2
    // overlay consumes 893 logic slices and 16 DSP blocks or less than 8%."
    let zynq = FpgaDevice::zynq_7020();
    let v1 = OverlayConfig::new(FuVariant::V1, 8).unwrap();
    assert_eq!(v1.resource_estimate().slices, 654);
    assert_eq!(v1.resource_estimate().dsps, 8);
    assert!(v1.utilization_on(&zynq).max_fraction() < 0.05);
    let v2 = OverlayConfig::new(FuVariant::V2, 8).unwrap();
    assert_eq!(v2.resource_estimate().slices, 893);
    assert_eq!(v2.resource_estimate().dsps, 16);
    assert!(v2.utilization_on(&zynq).max_fraction() < 0.08);
    // Fixed depth-8 V3/V4: 814 / 817 slices at 286 / 233 MHz.
    let v3 = OverlayConfig::new(FuVariant::V3, 8).unwrap();
    assert_eq!(v3.resource_estimate().slices, 814);
    assert!((v3.fmax_mhz() - 286.0).abs() < 1e-9);
    let v4 = OverlayConfig::new(FuVariant::V4, 8).unwrap();
    assert_eq!(v4.resource_estimate().slices, 817);
    assert!((v4.fmax_mhz() - 233.0).abs() < 1e-9);
}

#[test]
fn pcap_reconfiguration_times_match_section_v() {
    // 0.73 ms for the V1 region (7 CLB + 1 DSP tiles), 1.02 ms for V2.
    let model = ReconfigModel::new();
    let v1_region = model.region_for(&OverlayConfig::new(FuVariant::V1, 8).unwrap());
    assert_eq!((v1_region.clb_tiles, v1_region.dsp_tiles), (7, 1));
    let v1_us = model.partial_reconfig_us(v1_region);
    assert!((v1_us - 730.0).abs() < 30.0, "got {v1_us} µs");
    let v2_region = model.region_for(&OverlayConfig::new(FuVariant::V2, 8).unwrap());
    assert_eq!((v2_region.clb_tiles, v2_region.dsp_tiles), (9, 2));
    let v2_us = model.partial_reconfig_us(v2_region);
    assert!((v2_us - 1020.0).abs() < 40.0, "got {v2_us} µs");
}

#[test]
fn context_switch_speedup_is_three_orders_of_magnitude() {
    // The paper reports a ~2900x reduction in hardware context-switch time
    // for the fixed-depth V3 overlay vs reconfiguring the V1 overlay.
    let mut worst_speedup = f64::INFINITY;
    for benchmark in Benchmark::TABLE3 {
        let v1 = Compiler::new(FuVariant::V1)
            .compile_benchmark(benchmark)
            .unwrap();
        let v3 = Compiler::new(FuVariant::V3)
            .compile_benchmark(benchmark)
            .unwrap();
        let overlay_v1 = Overlay::for_kernel(FuVariant::V1, &v1).unwrap();
        let overlay_v3 = Overlay::for_kernel(FuVariant::V3, &v3).unwrap();
        let speedup = overlay_v3
            .context_switch(&v3)
            .speedup_over(&overlay_v1.context_switch(&v1));
        worst_speedup = worst_speedup.min(speedup);
    }
    assert!(
        worst_speedup > 1_000.0 && worst_speedup < 10_000.0,
        "expected ~2900x, worst observed {worst_speedup:.0}x"
    );
}

#[test]
fn config_load_times_are_sub_microsecond() {
    // "the overlays require a further 0.29 µs to load the configuration data
    // for the largest benchmark" / "a hardware context switch on the V3
    // overlay requires just 0.25 µs for the largest benchmark".
    let model = ReconfigModel::new();
    for benchmark in Benchmark::TABLE3 {
        let compiled = Compiler::new(FuVariant::V3)
            .compile_benchmark(benchmark)
            .unwrap();
        let us = model.config_load_us(compiled.program.config_bits());
        assert!(
            us < 1.0,
            "{benchmark}: config load {us} µs should be sub-µs"
        );
    }
}

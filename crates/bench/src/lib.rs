//! Reproduction harness: regenerates every table and figure of the paper's
//! evaluation from the models and the cycle-accurate simulator.
//!
//! Each `table*` / `fig*` function returns the formatted text that the
//! `repro` binary prints; the Criterion benches in `benches/` time the
//! underlying computations (scheduling, compilation, simulation) on the same
//! workloads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use tm_overlay::arch::{scalability_sweep, FuVariant, OverlayConfig, ReconfigModel};
use tm_overlay::frontend::Benchmark;
use tm_overlay::scheduler::{asap_schedule, ii_for_variant, schedule, schedule_table};
use tm_overlay::{compare_variants, Compiler, Overlay};

/// Table I: per-FU resources, frequency and IWP for every variant.
pub fn table1() -> String {
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
pub fn table2() -> String {
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
pub fn table3() -> String {
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
pub fn fig5() -> String {
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
pub fn fig6() -> String {
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
pub fn context_switch() -> String {
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
pub fn worked_examples() -> String {
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
pub fn iwp_ablation() -> String {
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

/// The known top-level sections of `BENCH_runtime.json`, in emission order.
const BENCH_JSON_SECTIONS: [&str; 6] = [
    "runtime_scalability",
    "cluster_scalability",
    "batching_replication",
    "fault_recovery",
    "dag_pipeline",
    "profile",
];

/// Why [`splice_bench_json`] refused to produce a combined document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpliceError {
    /// The requested section is not a known `BENCH_runtime.json` section.
    UnknownSection {
        /// The section name that was requested.
        section: String,
    },
    /// The payload does not carry the `"bench": "<section>"` marker naming
    /// the section it claims to be — a malformed or misrouted payload would
    /// silently overwrite good data.
    MissingMarker {
        /// The section the payload was offered for.
        section: String,
    },
    /// The existing document already holds this section under a *newer*
    /// declared `"schema"` version than the incoming payload (a payload
    /// declaring none counts as oldest) — splicing would silently downgrade
    /// data a different reader expects. Same-version replacement and
    /// upgrades to a newer schema are allowed.
    SchemaMismatch {
        /// The section being spliced.
        section: String,
        /// The schema version declared by the existing section.
        existing: Option<u64>,
        /// The schema version declared by the incoming payload.
        incoming: Option<u64>,
    },
}

impl std::fmt::Display for SpliceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpliceError::UnknownSection { section } => {
                write!(f, "unknown bench section {section}")
            }
            SpliceError::MissingMarker { section } => write!(
                f,
                "payload for section {section} lacks its \"bench\": \"{section}\" marker"
            ),
            SpliceError::SchemaMismatch {
                section,
                existing,
                incoming,
            } => write!(
                f,
                "section {section} schema mismatch: existing {existing:?} vs incoming \
                 {incoming:?} — refusing to overwrite"
            ),
        }
    }
}

impl std::error::Error for SpliceError {}

/// Splices one bench's JSON `payload` (a complete JSON object string) into
/// the combined `BENCH_runtime.json` document under `section`, preserving
/// every other known section of `existing` verbatim.
///
/// The combined document is one object with a top-level key per bench.
/// Returns the new document text.
///
/// # Errors
///
/// Refuses — instead of silently overwriting the existing section — when
/// the section is unknown, when the payload does not carry its own
/// `"bench": "<section>"` marker, or when the existing section declares a
/// `"schema"` version *newer* than the incoming payload's (a payload
/// declaring none counts as oldest). Same-version replacement and schema
/// upgrades pass.
pub fn splice_bench_json(
    existing: Option<&str>,
    section: &str,
    payload: &str,
) -> Result<String, SpliceError> {
    if !BENCH_JSON_SECTIONS.contains(&section) {
        return Err(SpliceError::UnknownSection {
            section: section.to_owned(),
        });
    }
    let has_marker = payload.contains(&format!("\"bench\": \"{section}\""))
        || payload.contains(&format!("\"bench\":\"{section}\""));
    if !has_marker {
        return Err(SpliceError::MissingMarker {
            section: section.to_owned(),
        });
    }
    if let Some(kept) = existing.and_then(|doc| extract_json_section(doc, section)) {
        let existing_schema = section_schema(&kept);
        let incoming_schema = section_schema(payload);
        // `None < Some(_)`: an undeclared schema is older than any declared.
        if incoming_schema < existing_schema {
            return Err(SpliceError::SchemaMismatch {
                section: section.to_owned(),
                existing: existing_schema,
                incoming: incoming_schema,
            });
        }
    }
    let mut sections: Vec<(&str, String)> = Vec::new();
    for &name in &BENCH_JSON_SECTIONS {
        if name == section {
            sections.push((name, payload.trim().to_owned()));
        } else if let Some(kept) = existing.and_then(|doc| extract_json_section(doc, name)) {
            sections.push((name, kept));
        }
    }
    let mut out = String::from("{\n");
    for (i, (name, body)) in sections.iter().enumerate() {
        let comma = if i + 1 < sections.len() { "," } else { "" };
        let _ = writeln!(out, "\"{name}\": {body}{comma}");
    }
    out.push_str("}\n");
    Ok(out)
}

/// The schema version every section of `BENCH_runtime.json` emits as of the
/// observability PR: versions ≥ 2 carry the [`provenance_json_fields`]
/// block next to the `"bench"` marker.
pub const BENCH_JSON_SCHEMA: u64 = 2;

/// The provenance fields a schema-2 bench section embeds right after its
/// `"bench"`/`"schema"` markers: the emitting host, the unix timestamp of
/// the run, and the repository revision — so a spliced
/// `BENCH_runtime.json` records where each section's numbers came from.
/// Returns a fragment like
/// `"host": "ci-runner", "timestamp": 1754600000, "git_rev": "abc1234"`
/// (no surrounding braces, no trailing comma); unknown values degrade to
/// `"unknown"` / 0 rather than failing the bench.
pub fn provenance_json_fields() -> String {
    // `/etc/hostname` first — the env fallbacks are login-shell variables
    // CI runners and containers rarely export.
    let host = std::fs::read_to_string("/etc/hostname")
        .ok()
        .map(|name| name.trim().to_owned())
        .filter(|name| !name.is_empty())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .or_else(|| std::env::var("HOST").ok())
        .unwrap_or_else(|| "unknown".to_owned());
    let timestamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|elapsed| elapsed.as_secs())
        .unwrap_or(0);
    let git_rev = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|rev| rev.trim().to_owned())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_owned());
    let escape = |s: &str| -> String {
        s.chars()
            .filter(|c| !c.is_control() && *c != '"' && *c != '\\')
            .collect()
    };
    format!(
        "\"host\": \"{}\", \"timestamp\": {timestamp}, \"git_rev\": \"{}\"",
        escape(&host),
        escape(&git_rev)
    )
}

/// The `"schema": N` version a section payload declares at its top level,
/// if any (the first occurrence — section payloads declare it right after
/// their `"bench"` marker).
fn section_schema(payload: &str) -> Option<u64> {
    let marker = "\"schema\":";
    let rest = &payload[payload.find(marker)? + marker.len()..];
    let digits: String = rest
        .trim_start()
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// Extracts the balanced-brace object stored under top-level `key` in the
/// combined document.
fn extract_json_section(doc: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":");
    let body = &doc[doc.find(&marker)? + marker.len()..];
    let start = body.find('{')?;
    let mut depth = 0usize;
    for (offset, ch) in body[start..].char_indices() {
        match ch {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(body[start..start + offset + 1].to_owned());
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_report_renders_nonempty_text() {
        for text in [
            table1(),
            table2(),
            table3(),
            fig5(),
            context_switch(),
            worked_examples(),
            iwp_ablation(),
        ] {
            assert!(text.lines().count() > 3, "report too short:\n{text}");
        }
    }

    #[test]
    fn table3_lists_every_benchmark() {
        let text = table3();
        for benchmark in Benchmark::TABLE3 {
            assert!(text.contains(benchmark.name()));
        }
    }

    #[test]
    fn bench_json_sections_splice_and_preserve_each_other() {
        let runtime = "{\n  \"bench\": \"runtime_scalability\",\n  \"entries\": [{\"a\": 1}]\n}";
        // First write: only the runtime section exists.
        let doc = splice_bench_json(None, "runtime_scalability", runtime).unwrap();
        assert!(doc.contains("\"runtime_scalability\": {"));
        assert!(!doc.contains("cluster_scalability"));
        // Adding the cluster section preserves the runtime payload verbatim.
        let cluster = "{\n  \"bench\": \"cluster_scalability\",\n  \"entries\": []\n}";
        let doc = splice_bench_json(Some(&doc), "cluster_scalability", cluster).unwrap();
        assert!(doc.contains("\"runtime_scalability\": {"));
        assert!(doc.contains("\"cluster_scalability\": {"));
        assert!(doc.contains("\"entries\": [{\"a\": 1}]"));
        // Re-splicing one section leaves the other untouched.
        let updated = "{\n  \"bench\": \"runtime_scalability\",\n  \"entries\": [{\"a\": 2}]\n}";
        let doc = splice_bench_json(Some(&doc), "runtime_scalability", updated).unwrap();
        assert!(doc.contains("[{\"a\": 2}]"));
        assert!(doc.contains("\"cluster_scalability\": {"));
        // The third section rides alongside the first two.
        let batching = "{\n  \"bench\": \"batching_replication\",\n  \"entries\": []\n}";
        let doc = splice_bench_json(Some(&doc), "batching_replication", batching).unwrap();
        assert!(doc.contains("\"runtime_scalability\": {"));
        assert!(doc.contains("\"cluster_scalability\": {"));
        assert!(doc.contains("\"batching_replication\": {"));
    }

    /// The splice guard: a payload whose schema version or shape does not
    /// match what the combined file already holds is refused instead of
    /// silently overwriting the existing section.
    #[test]
    fn bench_json_refuses_mismatched_sections() {
        // Unknown sections never splice.
        assert_eq!(
            splice_bench_json(None, "nonsense", "{\"bench\": \"nonsense\"}"),
            Err(SpliceError::UnknownSection {
                section: "nonsense".into()
            })
        );
        // A payload without its own bench marker is malformed (or aimed at
        // the wrong section) and must not replace good data.
        let err = splice_bench_json(None, "cluster_scalability", "{\"entries\": []}");
        assert_eq!(
            err,
            Err(SpliceError::MissingMarker {
                section: "cluster_scalability".into()
            })
        );
        let misrouted = "{\"bench\": \"runtime_scalability\", \"entries\": []}";
        assert!(splice_bench_json(None, "cluster_scalability", misrouted).is_err());
        // Compact (no-space) emitters still carry a valid marker.
        let compact = "{\"bench\":\"cluster_scalability\",\"entries\":[]}";
        assert!(splice_bench_json(None, "cluster_scalability", compact).is_ok());

        // A versioned section refuses a payload with an *older* version...
        let v2 = "{\"bench\": \"runtime_scalability\", \"schema\": 2, \"entries\": [{\"a\": 1}]}";
        let doc = splice_bench_json(None, "runtime_scalability", v2).unwrap();
        let v1 = "{\"bench\": \"runtime_scalability\", \"schema\": 1, \"entries\": []}";
        assert_eq!(
            splice_bench_json(Some(&doc), "runtime_scalability", v1),
            Err(SpliceError::SchemaMismatch {
                section: "runtime_scalability".into(),
                existing: Some(2),
                incoming: Some(1),
            })
        );
        // ...and one that dropped the version entirely (a shape regression).
        let unversioned = "{\"bench\": \"runtime_scalability\", \"entries\": []}";
        let refused = splice_bench_json(Some(&doc), "runtime_scalability", unversioned);
        assert!(matches!(
            refused,
            Err(SpliceError::SchemaMismatch { incoming: None, .. })
        ));
        // The refusal left the file buildable: the existing doc still holds
        // the v2 payload and same-version re-splices keep working.
        let v2_again =
            "{\"bench\": \"runtime_scalability\", \"schema\": 2, \"entries\": [{\"a\": 9}]}";
        let doc = splice_bench_json(Some(&doc), "runtime_scalability", v2_again).unwrap();
        assert!(doc.contains("[{\"a\": 9}]"));
        // Errors render a readable reason.
        assert!(SpliceError::UnknownSection {
            section: "x".into()
        }
        .to_string()
        .contains("unknown bench section"));
    }

    /// Schema upgrades splice over older sections (a reader of version N
    /// understands N, not N+1 — so upgrading is safe, downgrading is not),
    /// and the schema-2 provenance block carries its three fields.
    #[test]
    fn bench_json_upgrades_schemas_and_stamps_provenance() {
        let v1 = "{\"bench\": \"runtime_scalability\", \"schema\": 1, \"entries\": []}";
        let doc = splice_bench_json(None, "runtime_scalability", v1).unwrap();
        let v2 = format!(
            "{{\"bench\": \"runtime_scalability\", \"schema\": {BENCH_JSON_SCHEMA}, {}, \
             \"entries\": [{{\"a\": 1}}]}}",
            provenance_json_fields()
        );
        let doc = splice_bench_json(Some(&doc), "runtime_scalability", &v2).unwrap();
        assert!(doc.contains("\"schema\": 2"));
        assert!(doc.contains("\"host\":"));
        assert!(doc.contains("\"timestamp\":"));
        assert!(doc.contains("\"git_rev\":"));
        // The new profile section splices alongside the existing ones.
        let profile = "{\"bench\": \"profile\", \"schema\": 2, \"stages\": []}";
        let doc = splice_bench_json(Some(&doc), "profile", profile).unwrap();
        assert!(doc.contains("\"profile\":"));
        assert!(doc.contains("\"runtime_scalability\":"));
    }
}

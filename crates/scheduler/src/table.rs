//! Cycle-by-cycle rendering of the steady-state schedule, in the style of
//! the paper's Table II.
//!
//! The table shows, for each cycle and each FU, the data-transfer or
//! execution action taking place. Because the V1+ variants overlap loading
//! (performed by the input controller) with execution (performed by the
//! ALU), a single FU can have both a `Load` and an operation in the same
//! cycle; such cells are rendered as `Load R0 / SUB (R1 R2)`.

use overlay_dfg::{Dfg, NodeId};

use crate::stage::{Slot, StageSchedule};

/// A rendered steady-state schedule table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleTable {
    /// Kernel name.
    pub kernel: String,
    /// The initiation interval used to space consecutive blocks.
    pub ii: usize,
    /// Column headers (`FU0`, `FU1`, …).
    pub headers: Vec<String>,
    /// The rows back to back, one cell per FU.
    cells: Vec<Option<String>>,
}

impl ScheduleTable {
    /// One row per cycle: `row(c)[k]` is the action of FU `k` at cycle
    /// `c + 1` (cycles are 1-based as in the paper), or `None` when idle.
    ///
    /// # Panics
    ///
    /// If the table has no row `c`.
    pub fn row(&self, c: usize) -> &[Option<String>] {
        let width = self.headers.len();
        &self.cells[c * width..(c + 1) * width]
    }

    /// The rows, first cycle first.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Option<String>]> {
        self.cells.chunks(self.headers.len().max(1))
    }

    /// Renders the table as fixed-width text.
    pub fn to_text(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in self.rows() {
            for (k, cell) in row.iter().enumerate() {
                if let Some(text) = cell {
                    widths[k] = widths[k].max(text.len());
                }
            }
        }
        let mut out = String::new();
        out.push_str("cyc | ");
        for (header, width) in self.headers.iter().zip(&widths) {
            out.push_str(&format!("{header:<width$} | "));
        }
        out.push('\n');
        for (cycle, row) in self.rows().enumerate() {
            out.push_str(&format!("{:>3} | ", cycle + 1));
            for (cell, width) in row.iter().zip(&widths) {
                let text = cell.as_deref().unwrap_or("");
                out.push_str(&format!("{text:<width$} | "));
            }
            out.push('\n');
        }
        out
    }
}

/// Builds the steady-state schedule table for `schedule`, pipelining
/// `num_blocks` kernel invocations spaced `ii` cycles apart and truncating
/// the rendering at `max_cycles` rows.
///
/// # Example
///
/// ```
/// use overlay_frontend::Benchmark;
/// use overlay_scheduler::{asap_schedule, schedule_table};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dfg = Benchmark::Gradient.dfg()?;
/// let schedule = asap_schedule(&dfg)?;
/// let table = schedule_table(&dfg, &schedule, 6, 6, 32);
/// assert_eq!(table.rows().len(), 32);
/// assert!(table.to_text().contains("SUB"));
/// # Ok(())
/// # }
/// ```
pub fn schedule_table(
    dfg: &Dfg,
    schedule: &StageSchedule,
    ii: usize,
    num_blocks: usize,
    max_cycles: usize,
) -> ScheduleTable {
    let num_stages = schedule.num_stages();

    // Cycle at which the first word of block 0 reaches each stage: each
    // upstream stage forwards its first word one cycle after loading it, and
    // has finished forwarding after `#load + 1` cycles.
    let mut offsets = vec![0usize; num_stages];
    for k in 1..num_stages {
        offsets[k] = offsets[k - 1] + schedule.stage(k - 1).num_loads() + 1;
    }

    let mut cells = vec![None; max_cycles * num_stages];
    let mut put = |cycle: usize, stage: usize, text: String| {
        if cycle == 0 || cycle > max_cycles {
            return;
        }
        let cell: &mut Option<String> = &mut cells[(cycle - 1) * num_stages + stage];
        *cell = Some(match cell.take() {
            Some(existing) => format!("{existing} / {text}"),
            None => text,
        });
    };

    for block in 0..num_blocks {
        for (stage_index, stage) in schedule.stages().enumerate() {
            let base = offsets[stage_index] + block * ii;
            // Data transfers performed by the input controller.
            for (j, _value) in stage.loads.iter().enumerate() {
                put(base + 1 + j, stage_index, format!("Load R{j}"));
            }
            // Execution slots start once the block's data is in the register
            // file.
            let exec_base = base + stage.num_loads() + 1;
            let mut result_reg = stage.num_loads();
            let mut issued: std::collections::HashMap<NodeId, usize> =
                std::collections::HashMap::new();
            for (s, slot) in stage.slots.iter().enumerate() {
                match slot {
                    Slot::Nop => put(exec_base + s, stage_index, "NOP".to_owned()),
                    Slot::Op(op_id) => {
                        let node = dfg.node_unchecked(*op_id);
                        let op = node.op().expect("operation node");
                        let operand_names: Vec<String> = node
                            .operands()
                            .iter()
                            .map(|operand| {
                                if let Some(position) =
                                    stage.loads.iter().position(|v| v == operand)
                                {
                                    format!("R{position}")
                                } else if let Some(&reg) = issued.get(operand) {
                                    format!("R{reg}")
                                } else {
                                    // Constant operand: show its value.
                                    match dfg.node_unchecked(*operand).kind() {
                                        overlay_dfg::NodeKind::Const { value } => {
                                            format!("#{value}")
                                        }
                                        _ => "R?".to_owned(),
                                    }
                                }
                            })
                            .collect();
                        put(
                            exec_base + s,
                            stage_index,
                            format!("{} ({})", op.mnemonic(), operand_names.join(" ")),
                        );
                        issued.insert(*op_id, result_reg);
                        result_reg += 1;
                    }
                }
            }
        }
    }

    ScheduleTable {
        kernel: schedule.kernel().to_owned(),
        ii,
        headers: (0..num_stages).map(|k| format!("FU{k}")).collect(),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asap::asap_schedule;
    use overlay_frontend::Benchmark;

    #[test]
    fn gradient_table_covers_32_cycles_like_the_paper() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let table = schedule_table(&dfg, &schedule, 6, 6, 32);
        assert_eq!(table.rows().len(), 32);
        assert_eq!(table.headers.len(), 4);
        // Cycle 1: FU0 loads its first word, everything else idle.
        assert_eq!(table.row(0)[0].as_deref(), Some("Load R0"));
        assert!(table.row(0)[1].is_none());
        // Every FU eventually has work in the first 32 cycles.
        for stage in 0..4 {
            assert!(
                table.rows().any(|row| row[stage].is_some()),
                "FU{stage} never active"
            );
        }
    }

    #[test]
    fn steady_state_repeats_with_period_ii() {
        let dfg = Benchmark::Gradient.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let table = schedule_table(&dfg, &schedule, 6, 8, 48);
        // Once the pipeline is full (after ~3 blocks), rows repeat with
        // period II = 6 on FU0.
        for cycle in 12..36 {
            assert_eq!(
                table.row(cycle)[0],
                table.row(cycle + 6)[0],
                "FU0 not periodic at cycle {cycle}"
            );
        }
    }

    #[test]
    fn text_rendering_is_aligned_and_contains_all_headers() {
        let dfg = Benchmark::Chebyshev.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let table = schedule_table(&dfg, &schedule, 4, 4, 24);
        let text = table.to_text();
        for header in &table.headers {
            assert!(text.contains(header));
        }
        assert!(text.lines().count() >= 25);
    }

    #[test]
    fn constants_render_as_immediates() {
        let dfg = Benchmark::Chebyshev.dfg().unwrap();
        let schedule = asap_schedule(&dfg).unwrap();
        let table = schedule_table(&dfg, &schedule, 4, 2, 24);
        let text = table.to_text();
        assert!(text.contains('#'), "constant operands should be visible");
    }
}

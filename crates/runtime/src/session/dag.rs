//! Pipeline requests: a validated DAG of kernel stages served as one unit.
//!
//! A [`PipelineRequest`] names a small directed acyclic graph of
//! [`KernelSpec`] stages — the multi-kernel workloads real tenants run, where
//! one kernel's outputs become the next kernel's activations. Validation
//! happens once, at submit time ([`PipelineRequest::validate`]): every
//! dependency edge is arity-checked (in range, no self-loops, no duplicate
//! edges), the graph is proven acyclic, and a deterministic topological order
//! is computed so the cluster's event loop can flatten the stages into its
//! intake without ever re-walking the graph.
//!
//! Every stage is served as one [`Request`](crate::Request), whose id packs
//! the pipeline id above the stage index
//! ([`PipelineRequest::stage_request_id`]), single-stage pipelines
//! included: distinct pipeline ids give distinct stage ids. A single-stage
//! pipeline's request keeps the pipeline's arrival and deadline; it is
//! admitted under its session's weighted-fair share (see the
//! [`session`](crate::session) module docs).

use crate::error::RuntimeError;
use crate::request::{check_deadline, KernelSpec};
use overlay_sim::Workload;

/// Default activation payload a stage hands its successors when the caller
/// does not size it explicitly: one 4 KiB output tile.
pub const DEFAULT_ACTIVATION_BYTES: u64 = 4096;

/// Stage ids are packed into the low bits of synthesized per-stage request
/// ids, so a pipeline id must fit in the remaining 48 bits.
pub(crate) const STAGE_ID_BITS: u32 = 16;

/// One stage of a pipeline: a kernel, the workload streamed through it, the
/// stages whose outputs it consumes, and the activation bytes it emits for
/// its own successors.
#[derive(Debug, Clone)]
pub struct PipelineStage {
    /// The kernel this stage runs.
    pub kernel: KernelSpec,
    /// The invocation records streamed through the kernel.
    pub workload: Workload,
    /// Indices (within the owning pipeline) of the stages whose outputs this
    /// stage consumes. Empty for root stages.
    pub deps: Vec<usize>,
    /// Bytes of activation data this stage produces for each consumer —
    /// what the inter-device transfer model prices when a consumer lands on
    /// a different device.
    pub output_bytes: u64,
}

impl PipelineStage {
    /// A root stage (no dependencies) emitting one 4 KiB output tile of
    /// activations.
    pub fn new(kernel: KernelSpec, workload: Workload) -> Self {
        PipelineStage {
            kernel,
            workload,
            deps: Vec::new(),
            output_bytes: DEFAULT_ACTIVATION_BYTES,
        }
    }

    /// Declares the stages (by index within the pipeline) this stage
    /// consumes outputs from.
    #[must_use]
    pub fn after(mut self, deps: &[usize]) -> Self {
        self.deps = deps.to_vec();
        self
    }

    /// Sizes the activation payload this stage emits.
    #[must_use]
    pub fn emits(mut self, output_bytes: u64) -> Self {
        self.output_bytes = output_bytes;
        self
    }
}

/// A multi-kernel serving request: a DAG of [`PipelineStage`]s submitted by
/// one tenant session, arriving as a unit on the modeled timeline.
///
/// The deadline, when set, is the completion deadline of the *pipeline* — it
/// attaches to the sink stages (those nothing depends on); interior stages
/// run deadline-free.
#[derive(Debug, Clone)]
pub struct PipelineRequest {
    /// Caller-chosen identifier, echoed per stage into outcomes. Must be
    /// below 2⁴⁸ and unique within a serve: each stage's request id packs it
    /// above the stage index, in the low `STAGE_ID_BITS` (16) bits.
    pub id: u64,
    /// The tenant [`Session`](crate::session::Session) this pipeline belongs
    /// to, by id. Sessions carry the SLO class.
    pub session: u64,
    /// Arrival time of the whole pipeline, microseconds.
    pub arrival_us: f64,
    /// Optional absolute completion deadline for the pipeline's sinks.
    pub deadline_us: Option<f64>,
    /// The stages, in submission order. Dependency indices refer into this
    /// vector.
    pub stages: Vec<PipelineStage>,
}

impl PipelineRequest {
    /// An empty pipeline for session `session`, arriving at time zero.
    pub fn new(id: u64, session: u64) -> Self {
        PipelineRequest {
            id,
            session,
            arrival_us: 0.0,
            deadline_us: None,
            stages: Vec::new(),
        }
    }

    /// Sets the arrival time (microseconds on the modeled timeline).
    #[must_use]
    pub fn at(mut self, arrival_us: f64) -> Self {
        self.arrival_us = arrival_us;
        self
    }

    /// Sets the pipeline's absolute completion deadline (attached to the
    /// sink stages).
    #[must_use]
    pub fn with_deadline(mut self, deadline_us: f64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Appends a stage.
    #[must_use]
    pub fn stage(mut self, stage: PipelineStage) -> Self {
        self.stages.push(stage);
        self
    }

    /// A linear chain: each stage depends on the previous one. The common
    /// pipeline shape (preprocess → infer → postprocess) without spelling
    /// out edge lists.
    pub fn chain(
        id: u64,
        session: u64,
        stages: impl IntoIterator<Item = (KernelSpec, Workload)>,
    ) -> Self {
        let mut pipeline = PipelineRequest::new(id, session);
        for (index, (kernel, workload)) in stages.into_iter().enumerate() {
            let mut stage = PipelineStage::new(kernel, workload);
            if index > 0 {
                stage = stage.after(&[index - 1]);
            }
            pipeline = pipeline.stage(stage);
        }
        pipeline
    }

    /// The synthesized request id for `stage`: the pipeline id shifted past
    /// `STAGE_ID_BITS` (16) with the stage index in the low bits.
    pub fn stage_request_id(&self, stage: usize) -> u64 {
        (self.id << STAGE_ID_BITS) | stage as u64
    }

    /// Validates the DAG and returns its stages in a deterministic
    /// topological order (Kahn's algorithm, ready stages released in
    /// ascending index order).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::InvalidPipeline`] when the pipeline is empty, an edge
    /// is out of range / a self-loop / duplicated, the graph has a cycle, or
    /// the id or stage count overflows the packed request-id layout;
    /// [`RuntimeError::InvalidDeadline`] when the deadline is set but not
    /// finite.
    pub fn validate(&self) -> Result<Vec<usize>, RuntimeError> {
        let invalid = |reason: String| RuntimeError::InvalidPipeline {
            pipeline: self.id,
            reason,
        };
        let n = self.stages.len();
        if n == 0 {
            return Err(invalid("pipeline has no stages".into()));
        }
        if n > 1 << STAGE_ID_BITS {
            return Err(invalid(format!(
                "pipeline has {n} stages; at most {} fit the packed stage-id layout",
                1usize << STAGE_ID_BITS
            )));
        }
        if self.id >> (64 - STAGE_ID_BITS) != 0 {
            return Err(invalid(format!(
                "pipeline id {} does not fit in {} bits",
                self.id,
                64 - STAGE_ID_BITS
            )));
        }
        // A best-effort pipeline's deadline reaches no stage request, so the
        // serve's intake check would never see it.
        check_deadline(self.id, self.deadline_us)?;
        // Arity checks and in-degree counting in one pass.
        let mut in_degree = vec![0usize; n];
        let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (index, stage) in self.stages.iter().enumerate() {
            let mut seen = vec![false; n];
            for &dep in &stage.deps {
                if dep >= n {
                    return Err(invalid(format!(
                        "stage {index} depends on stage {dep}, but there are only {n} stages"
                    )));
                }
                if dep == index {
                    return Err(invalid(format!("stage {index} depends on itself")));
                }
                if seen[dep] {
                    return Err(invalid(format!(
                        "stage {index} lists dependency {dep} twice"
                    )));
                }
                seen[dep] = true;
                in_degree[index] += 1;
                successors[dep].push(index);
            }
        }
        // Kahn's algorithm with a deterministic (ascending-index) ready
        // queue: a BinaryHeap of Reverse(index).
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&index| in_degree[index] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(index)) = ready.pop() {
            order.push(index);
            for &succ in &successors[index] {
                in_degree[succ] -= 1;
                if in_degree[succ] == 0 {
                    ready.push(std::cmp::Reverse(succ));
                }
            }
        }
        if order.len() != n {
            let stuck: Vec<usize> = (0..n).filter(|&index| in_degree[index] > 0).collect();
            return Err(invalid(format!(
                "dependency cycle through stages {stuck:?}"
            )));
        }
        Ok(order)
    }

    /// The sink stages: those no other stage depends on. The pipeline
    /// deadline attaches to these.
    pub fn sinks(&self) -> Vec<usize> {
        let mut is_dep = vec![false; self.stages.len()];
        for stage in &self.stages {
            for &dep in &stage.deps {
                if dep < is_dep.len() {
                    is_dep[dep] = true;
                }
            }
        }
        (0..self.stages.len())
            .filter(|&index| !is_dep[index])
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel(tag: u64) -> KernelSpec {
        KernelSpec::from_source(
            format!("k{tag}"),
            format!("kernel k{tag}(x) {{ out y = x + {tag}; }}"),
        )
    }

    fn stage(tag: u64) -> PipelineStage {
        PipelineStage::new(kernel(tag), Workload::ramp(1, 4))
    }

    #[test]
    fn a_diamond_validates_in_ascending_topo_order() {
        // 0 → {1, 2} → 3
        let pipeline = PipelineRequest::new(7, 1)
            .stage(stage(0))
            .stage(stage(1).after(&[0]))
            .stage(stage(2).after(&[0]))
            .stage(stage(3).after(&[1, 2]));
        assert_eq!(pipeline.validate().unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(pipeline.sinks(), vec![3]);
        assert_eq!(pipeline.stage_request_id(2), (7 << STAGE_ID_BITS) | 2);
    }

    #[test]
    fn chains_link_each_stage_to_the_previous() {
        let pipeline =
            PipelineRequest::chain(1, 0, (0..3).map(|tag| (kernel(tag), Workload::ramp(1, 4))));
        assert_eq!(pipeline.stages[0].deps, Vec::<usize>::new());
        assert_eq!(pipeline.stages[1].deps, vec![0]);
        assert_eq!(pipeline.stages[2].deps, vec![1]);
        assert_eq!(pipeline.validate().unwrap(), vec![0, 1, 2]);
    }

    #[test]
    fn cycles_self_loops_and_bad_edges_are_rejected() {
        let cyclic = PipelineRequest::new(1, 0)
            .stage(stage(0).after(&[1]))
            .stage(stage(1).after(&[0]));
        assert!(matches!(
            cyclic.validate(),
            Err(RuntimeError::InvalidPipeline { pipeline: 1, .. })
        ));
        let self_loop = PipelineRequest::new(2, 0).stage(stage(0).after(&[0]));
        assert!(self_loop.validate().is_err());
        let out_of_range = PipelineRequest::new(3, 0).stage(stage(0).after(&[5]));
        assert!(out_of_range.validate().is_err());
        let duplicate = PipelineRequest::new(4, 0)
            .stage(stage(0))
            .stage(stage(1).after(&[0, 0]));
        assert!(duplicate.validate().is_err());
        assert!(PipelineRequest::new(5, 0).validate().is_err(), "empty");
        let wide_id = PipelineRequest::new(1 << 50, 0)
            .stage(stage(0))
            .stage(stage(1).after(&[0]));
        assert!(
            wide_id.validate().is_err(),
            "id overflows the packed layout"
        );
        // A single stage's id is packed too.
        let single = |id| PipelineRequest::new(id, 0).stage(stage(0));
        assert!(single((1 << 48) - 1).validate().is_ok());
        assert!(matches!(
            single(1 << 48).validate(),
            Err(RuntimeError::InvalidPipeline { pipeline, .. }) if pipeline == 1 << 48
        ));
    }
}

//! Input workloads for simulation runs.

use std::sync::Arc;

use overlay_dfg::Value;
use rand::prelude::*;
use rand::rngs::StdRng;

/// A stream of kernel invocations: each record holds one word per kernel
/// input, in stream order.
///
/// # Example
///
/// ```
/// use overlay_sim::Workload;
/// use overlay_dfg::Value;
///
/// let workload = Workload::random(5, 100, 42);
/// assert_eq!(workload.len(), 100);
/// assert_eq!(workload.records()[0].len(), 5);
///
/// let explicit = Workload::from_records(vec![vec![Value::new(1), Value::new(2)]]);
/// assert_eq!(explicit.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    records: Arc<[Vec<Value>]>,
}

impl Workload {
    /// Wraps explicit records.
    pub fn from_records(records: Vec<Vec<Value>>) -> Self {
        Workload {
            records: records.into(),
        }
    }

    /// Generates `blocks` random records of `inputs` words each, with values
    /// in a small range so squaring chains stay within 32 bits.
    pub fn random(inputs: usize, blocks: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..blocks)
            .map(|_| {
                (0..inputs)
                    .map(|_| Value::new(rng.gen_range(-8..=8)))
                    .collect()
            })
            .collect()
    }

    /// A simple ramp workload (record `b` holds `b, b+1, …`), useful for
    /// deterministic examples.
    pub fn ramp(inputs: usize, blocks: usize) -> Self {
        (0..blocks)
            .map(|b| (0..inputs).map(|i| Value::new((b + i) as i32)).collect())
            .collect()
    }

    /// The invocation records.
    pub fn records(&self) -> &[Vec<Value>] {
        &self.records
    }

    /// Number of invocations.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl FromIterator<Vec<Value>> for Workload {
    fn from_iter<T: IntoIterator<Item = Vec<Value>>>(iter: T) -> Self {
        Workload {
            records: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_workload_is_reproducible() {
        let a = Workload::random(3, 10, 7);
        let b = Workload::random(3, 10, 7);
        assert_eq!(a, b);
        assert_ne!(a, Workload::random(3, 10, 8));
    }

    #[test]
    fn ramp_workload_is_deterministic() {
        let w = Workload::ramp(2, 3);
        assert_eq!(w.records()[2], vec![Value::new(2), Value::new(3)]);
        assert!(!w.is_empty());
    }

    #[test]
    fn collects_from_iterator() {
        let w: Workload = (0..4).map(|i| vec![Value::new(i)]).collect();
        assert_eq!(w.len(), 4);
    }
}

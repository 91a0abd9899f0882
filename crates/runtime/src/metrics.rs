//! Aggregate serving metrics over one request trace — and the per-device
//! dimension a [`Cluster`](crate::Cluster) breaks its totals down by.

use std::fmt;

use crate::cache::CacheStats;
use crate::obs::LogHistogram;
use crate::session::SloClass;

/// Aggregate metrics for one [`serve`](crate::Cluster::serve) call, built
/// from the per-request outcomes and the per-tile serving state.
///
/// All times are on the modeled hardware timeline (simulator cycles converted
/// at the overlay's operating frequency, plus modeled context-switch and NoC
/// routing time) — not host wall-clock time. The one exception is
/// [`events_fired`](RuntimeMetrics::events_fired), a host-side counter of
/// how many discrete events the serve processed.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeMetrics {
    /// Number of requests served.
    pub requests: usize,
    /// Total kernel invocations streamed across all requests.
    pub invocations: usize,
    /// End-to-end modeled makespan: latest completion time, microseconds.
    pub makespan_us: f64,
    /// Served requests per modeled second.
    pub requests_per_sec: f64,
    /// Streamed invocations per modeled second.
    pub invocations_per_sec: f64,
    /// Mean request latency (completion − arrival), microseconds.
    pub mean_latency_us: f64,
    /// Median request latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_latency_us: f64,
    /// Worst request latency, microseconds.
    pub max_latency_us: f64,
    /// Total hardware context switches across all tiles.
    pub switch_count: usize,
    /// Total modeled context-switch time across all tiles, microseconds.
    pub total_switch_us: f64,
    /// Per-tile busy fraction of the makespan (switching + executing).
    pub tile_utilization: Vec<f64>,
    /// Per-tile request counts.
    pub tile_requests: Vec<usize>,
    /// Kernel-cache counters for the serve call.
    pub cache: CacheStats,
    /// Simulation-memo counters for the serve call: hits are requests whose
    /// functional simulation was skipped entirely (answered from the memo),
    /// misses are simulations actually executed.
    pub sim_memo: CacheStats,
    /// Discrete events (arrivals + tile-free) the event loop fired — the
    /// host-side denominator for ns/event throughput figures.
    pub events_fired: u64,
    /// Requests whose completion exceeded their deadline.
    pub deadline_misses: usize,
    /// Served requests that carried a deadline (the miss-rate denominator).
    pub deadline_requests: usize,
    /// Same-kernel batching counters for the serve call (all zero while
    /// batching is disabled, the default).
    pub batch: BatchStats,
    /// Requests turned away by admission control (never placed on a tile).
    pub rejects: usize,
    /// Rejected requests that carried a deadline: shed deadline work, which
    /// counts in neither [`deadline_misses`](RuntimeMetrics::deadline_misses)
    /// nor [`deadline_requests`](RuntimeMetrics::deadline_requests) — compare
    /// miss rates across admission limits with this number in view.
    pub rejected_deadlines: usize,
    /// Highest number of requests waiting across all tile queues at any
    /// instant of the serve.
    pub peak_queue_depth: usize,
    /// Time-weighted mean of the total waiting count over the makespan.
    pub mean_queue_depth: f64,
    /// Per-tile high-water marks of queued (waiting) requests.
    pub tile_peak_queue: Vec<usize>,
    /// Log-bucketed request-latency histogram, recorded online as requests
    /// complete. Exact percentiles above come from the sorted samples; this
    /// histogram is the constant-memory view an exporter can stream, within
    /// one bucket width of the exact answer. A cluster rolls per-device
    /// histograms up by bucket-count addition
    /// ([`LogHistogram::merged`](crate::obs::LogHistogram::merged)).
    pub latency_hist: LogHistogram,
    /// Log-bucketed histogram of the total waiting count, sampled at every
    /// event-loop step (event-weighted, unlike the time-weighted
    /// [`mean_queue_depth`](RuntimeMetrics::mean_queue_depth)).
    pub queue_depth_hist: LogHistogram,
}

impl RuntimeMetrics {
    /// Mean tile utilization across the pool.
    pub fn mean_utilization(&self) -> f64 {
        if self.tile_utilization.is_empty() {
            0.0
        } else {
            self.tile_utilization.iter().sum::<f64>() / self.tile_utilization.len() as f64
        }
    }

    /// Fraction of *served* deadline-carrying requests that missed their
    /// deadline (0 when no served request carried one). Deadline work shed
    /// by admission control is excluded; see
    /// [`rejected_deadlines`](RuntimeMetrics::rejected_deadlines).
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.deadline_requests == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.deadline_requests as f64
        }
    }

    /// Fraction of submitted requests rejected by admission control
    /// (0 when nothing was submitted).
    pub fn reject_rate(&self) -> f64 {
        let submitted = self.requests + self.rejects;
        if submitted == 0 {
            0.0
        } else {
            self.rejects as f64 / submitted as f64
        }
    }
}

impl fmt::Display for RuntimeMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} request(s) ({} invocations) in {:.1} us: {:.0} req/s, {:.0} inv/s; {} event(s)",
            self.requests,
            self.invocations,
            self.makespan_us,
            self.requests_per_sec,
            self.invocations_per_sec,
            self.events_fired,
        )?;
        writeln!(
            f,
            "latency us: mean {:.2}, p50 {:.2}, p99 {:.2}, max {:.2}",
            self.mean_latency_us, self.p50_latency_us, self.p99_latency_us, self.max_latency_us,
        )?;
        writeln!(
            f,
            "deadlines: {} miss(es) of {} served ({:.0}% miss rate); rejects: {} ({} with \
             deadlines); queue depth: peak {}, mean {:.2}",
            self.deadline_misses,
            self.deadline_requests,
            self.deadline_miss_rate() * 100.0,
            self.rejects,
            self.rejected_deadlines,
            self.peak_queue_depth,
            self.mean_queue_depth,
        )?;
        writeln!(
            f,
            "switches: {} totalling {:.2} us; batching: {}; cache: {}; sim memo: {}",
            self.switch_count, self.total_switch_us, self.batch, self.cache, self.sim_memo,
        )?;
        writeln!(
            f,
            "latency hist: p50 {:.2}, p99 {:.2} us over {} sample(s); queue hist: p99 {:.1} \
             over {} sample(s)",
            self.latency_hist.percentile(0.5),
            self.latency_hist.percentile(0.99),
            self.latency_hist.count(),
            self.queue_depth_hist.percentile(0.99),
            self.queue_depth_hist.count(),
        )?;
        write!(f, "tile utilization:")?;
        for (tile, utilization) in self.tile_utilization.iter().enumerate() {
            write!(
                f,
                " t{tile} {:.0}% ({} req)",
                utilization * 100.0,
                self.tile_requests.get(tile).copied().unwrap_or(0)
            )?;
        }
        Ok(())
    }
}

/// Counters of the same-kernel batching layer
/// ([`BatchConfig`](crate::BatchConfig)) for one serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchStats {
    /// Same-kernel runs that were extended by at least one batched
    /// (policy-overriding) dispatch.
    pub batches_formed: usize,
    /// Requests dispatched by the batcher instead of the policy's choice.
    pub batched_requests: usize,
    /// Context switches avoided: each batched dispatch ran the resident
    /// kernel where the policy's choice would have swapped.
    pub switches_avoided: usize,
    /// Batched dispatches whose request was a pipeline stage — same-kernel
    /// runs extended *within* the session tier. Zero outside
    /// [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines).
    pub stage_batched: usize,
}

impl fmt::Display for BatchStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} batch(es), {} batched request(s), {} switch(es) avoided",
            self.batches_formed, self.batched_requests, self.switches_avoided
        )?;
        if self.stage_batched > 0 {
            write!(f, " ({} pipeline stage(s))", self.stage_batched)?;
        }
        Ok(())
    }
}

/// Latency breakdown for one pipeline stage *depth* (the stage's position
/// in its pipeline's topological order) across a
/// [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines) call:
/// how long stages at that depth took end to end, and what they paid in
/// inter-device activation transfers.
#[derive(Debug, Clone, PartialEq)]
pub struct StageMetrics {
    /// The stage depth (0 = pipeline roots).
    pub depth: usize,
    /// Stages served at this depth.
    pub served: usize,
    /// Mean stage latency (completion − pipeline arrival for roots,
    /// completion − readiness for successors), microseconds.
    pub mean_latency_us: f64,
    /// Median stage latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile stage latency, microseconds.
    pub p99_latency_us: f64,
    /// Inter-device activation transfers paid by stages at this depth.
    pub transfers: usize,
    /// Total modeled activation-transfer time at this depth, microseconds.
    pub transfer_us: f64,
}

impl StageMetrics {
    /// Rolls one depth's stage-latency samples up. `latencies` is scratch
    /// (reordered by selection, not sorted).
    pub fn from_samples(
        depth: usize,
        latencies: &mut [f64],
        transfers: usize,
        transfer_us: f64,
    ) -> Self {
        let served = latencies.len();
        let mean = if served == 0 {
            0.0
        } else {
            latencies.iter().sum::<f64>() / served as f64
        };
        StageMetrics {
            depth,
            served,
            mean_latency_us: mean,
            p50_latency_us: percentile_by_selection(latencies, 0.5),
            p99_latency_us: percentile_by_selection(latencies, 0.99),
            transfers,
            transfer_us,
        }
    }
}

impl fmt::Display for StageMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "stage {}: {} served, p50 {:.2} us, p99 {:.2} us, {} transfer(s) ({:.2} us)",
            self.depth,
            self.served,
            self.p50_latency_us,
            self.p99_latency_us,
            self.transfers,
            self.transfer_us
        )
    }
}

/// Pipeline-latency breakdown for one [`SloClass`] across a
/// [`Cluster::serve_pipelines`](crate::Cluster::serve_pipelines) call.
/// Latencies are *commit* latencies: in-order commit time minus pipeline
/// arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassMetrics {
    /// The SLO class.
    pub slo: SloClass,
    /// Pipelines submitted under this class.
    pub pipelines: usize,
    /// Pipelines that failed (at least one stage rejected).
    pub rejected: usize,
    /// Mean commit latency of completed pipelines, microseconds.
    pub mean_latency_us: f64,
    /// Median commit latency, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile commit latency, microseconds.
    pub p99_latency_us: f64,
    /// Completed pipelines that committed past their deadline.
    pub deadline_misses: usize,
    /// Completed pipelines that carried a deadline.
    pub deadline_pipelines: usize,
}

impl ClassMetrics {
    /// Rolls one class's completed-pipeline commit latencies up.
    /// `latencies` is scratch (reordered by selection, not sorted).
    pub fn from_samples(
        slo: SloClass,
        latencies: &mut [f64],
        rejected: usize,
        deadline_misses: usize,
        deadline_pipelines: usize,
    ) -> Self {
        let completed = latencies.len();
        let mean = if completed == 0 {
            0.0
        } else {
            latencies.iter().sum::<f64>() / completed as f64
        };
        ClassMetrics {
            slo,
            pipelines: completed + rejected,
            rejected,
            mean_latency_us: mean,
            p50_latency_us: percentile_by_selection(latencies, 0.5),
            p99_latency_us: percentile_by_selection(latencies, 0.99),
            deadline_misses,
            deadline_pipelines,
        }
    }

    /// Fraction of completed deadline-carrying pipelines that missed.
    pub fn deadline_miss_rate(&self) -> f64 {
        if self.deadline_pipelines == 0 {
            0.0
        } else {
            self.deadline_misses as f64 / self.deadline_pipelines as f64
        }
    }
}

impl fmt::Display for ClassMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} pipeline(s) ({} rejected), p50 {:.2} us, p99 {:.2} us, {} miss(es) of {}",
            self.slo,
            self.pipelines,
            self.rejected,
            self.p50_latency_us,
            self.p99_latency_us,
            self.deadline_misses,
            self.deadline_pipelines
        )
    }
}

/// One device's slice of a [`Cluster`](crate::Cluster) serve: the same
/// utilization / queue / cache / deadline figures [`RuntimeMetrics`] reports
/// pool-wide, keyed by device id, plus the cross-device transfer traffic the
/// transfer model charged.
///
/// Latency percentiles are per-device; the cluster-wide percentiles in the
/// report's [`RuntimeMetrics`] totals are taken over every outcome. Both
/// are exact order statistics, found by selection.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceMetrics {
    /// The device id (index into the cluster).
    pub device: usize,
    /// Requests this device served.
    pub requests: usize,
    /// Mean request latency on this device, microseconds.
    pub mean_latency_us: f64,
    /// Median request latency on this device, microseconds.
    pub p50_latency_us: f64,
    /// 99th-percentile request latency on this device, microseconds.
    pub p99_latency_us: f64,
    /// Worst request latency on this device, microseconds.
    pub max_latency_us: f64,
    /// Hardware context switches across this device's tiles.
    pub switch_count: usize,
    /// Modeled context-switch time across this device's tiles, microseconds
    /// (includes any kernel-image acquisition delay charged ahead of a
    /// switch).
    pub total_switch_us: f64,
    /// Per-tile busy fraction of the cluster makespan.
    pub tile_utilization: Vec<f64>,
    /// Per-tile request counts.
    pub tile_requests: Vec<usize>,
    /// This device's kernel-store counters (compiles at the home shard,
    /// image adoptions from peers, lookups either way).
    pub cache: CacheStats,
    /// Served requests on this device whose completion exceeded their
    /// deadline.
    pub deadline_misses: usize,
    /// Served requests on this device that carried a deadline.
    pub deadline_requests: usize,
    /// Requests routed to this device but shed by admission control.
    pub rejects: usize,
    /// Highest number of requests waiting across this device's tile queues
    /// at any instant.
    pub peak_queue_depth: usize,
    /// Kernel images pulled *into* this device over the inter-device link.
    pub transfers_in: usize,
    /// Bytes of kernel image pulled into this device over the link.
    pub transfer_bytes_in: u64,
    /// Kernel images loaded into this device from the host (the "local cold
    /// load" path the transfer weighs against).
    pub host_loads: usize,
    /// Fraction of the serve's makespan this device was alive and admitting
    /// routed work (1.0 on a fault-free serve).
    pub availability: f64,
    /// Faults (kills + drains) that hit this device during the serve.
    pub faults: usize,
    /// Requests displaced *off* this device (queued or running) by a kill
    /// or drain and requeued through routing.
    pub requeues_out: usize,
    /// Started-but-abandoned execution time a kill destroyed on this
    /// device, in virtual microseconds. The per-request latency samples
    /// record *attempts* (a retried request's final latency spans its whole
    /// life), so this is the device-side cost view of the same churn.
    pub lost_work_us: f64,
}

impl DeviceMetrics {
    /// Mean tile utilization on this device.
    pub fn mean_utilization(&self) -> f64 {
        if self.tile_utilization.is_empty() {
            0.0
        } else {
            self.tile_utilization.iter().sum::<f64>() / self.tile_utilization.len() as f64
        }
    }
}

impl fmt::Display for DeviceMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "d{}: {} req, util {:.0}%, p99 {:.2} us, {} switch(es), queue peak {}, \
             cache {:.0}% hit, {} transfer(s) in ({} B), {} host load(s), \
             avail {:.0}%, {} requeue(s) out",
            self.device,
            self.requests,
            self.mean_utilization() * 100.0,
            self.p99_latency_us,
            self.switch_count,
            self.peak_queue_depth,
            self.cache.hit_rate() * 100.0,
            self.transfers_in,
            self.transfer_bytes_in,
            self.host_loads,
            self.availability * 100.0,
            self.requeues_out,
        )
    }
}

/// Linear-interpolated percentile (`p` in 0..=1) by partial selection:
/// `select_nth_unstable` partitions out the two neighboring order statistics
/// in O(n) expected time instead of an O(n log n) full sort. The slice is
/// reordered, not sorted.
pub fn percentile_by_selection(values: &mut [f64], p: f64) -> f64 {
    match values.len() {
        0 => 0.0,
        1 => values[0],
        len => {
            let rank = p.clamp(0.0, 1.0) * (len - 1) as f64;
            let low = rank.floor() as usize;
            let high = rank.ceil() as usize;
            let weight = rank - low as f64;
            // Partition at `high`: everything left of it is ≤ the pivot, so
            // the `low` statistic is a second selection over that prefix.
            let (left, high_value, _) = values.select_nth_unstable_by(high, f64::total_cmp);
            let high_value = *high_value;
            let low_value = if low == high {
                high_value
            } else {
                *left.select_nth_unstable_by(low, f64::total_cmp).1
            };
            // Held to its two order statistics: equal neighbours can round
            // one ulp past them, which would put a p99 above the maximum.
            (low_value * (1.0 - weight) + high_value * weight)
                .min(high_value)
                .max(low_value)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        // Unsorted on purpose: selection does not need sorted input.
        let mut values = [3.0, 1.0, 4.0, 2.0];
        assert_eq!(percentile_by_selection(&mut values, 0.0), 1.0);
        assert_eq!(percentile_by_selection(&mut values, 1.0), 4.0);
        assert_eq!(percentile_by_selection(&mut values, 0.5), 2.5);
        assert_eq!(percentile_by_selection(&mut [], 0.5), 0.0);
        assert_eq!(percentile_by_selection(&mut [7.0], 0.99), 7.0);
        // Out-of-range p clamps to the extremes.
        assert_eq!(percentile_by_selection(&mut values, -1.0), 1.0);
        assert_eq!(percentile_by_selection(&mut values, 2.0), 4.0);
    }

    #[test]
    fn tied_neighbours_interpolate_to_their_value() {
        // 0.14 × v + 0.86 × v rounds one ulp above this v.
        let v = 370.461_056_034_482_74;
        assert_eq!(percentile_by_selection(&mut [v; 15], 0.99), v);
        assert_eq!(percentile_by_selection(&mut [1.0, v, v], 0.99), v);
    }

    #[test]
    fn selection_matches_the_sorted_reference() {
        // A deterministic pseudo-random latency population, checked against
        // the sort-everything formulation the runtime used to pay for.
        let mut seed = 0x5EEDu64;
        let values: Vec<f64> = (0..257)
            .map(|_| {
                seed ^= seed << 13;
                seed ^= seed >> 7;
                seed ^= seed << 17;
                (seed % 10_000) as f64 * 0.125
            })
            .collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let rank = p * (sorted.len() - 1) as f64;
            let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
            let weight = rank - low as f64;
            let expected = sorted[low] * (1.0 - weight) + sorted[high] * weight;
            let mut scratch = values.clone();
            assert_eq!(percentile_by_selection(&mut scratch, p), expected, "p={p}");
        }
    }

    #[test]
    fn batch_stats_display() {
        let batch = BatchStats {
            batches_formed: 2,
            batched_requests: 9,
            switches_avoided: 9,
            ..BatchStats::default()
        };
        assert_eq!(
            batch.to_string(),
            "2 batch(es), 9 batched request(s), 9 switch(es) avoided"
        );
        let staged = BatchStats {
            stage_batched: 4,
            ..batch
        };
        assert_eq!(
            staged.to_string(),
            "2 batch(es), 9 batched request(s), 9 switch(es) avoided (4 pipeline stage(s))"
        );
        assert_eq!(BatchStats::default(), BatchStats::default());
    }

    #[test]
    fn stage_and_class_metrics_roll_up_samples() {
        let mut latencies = [30.0, 10.0, 20.0];
        let stage = StageMetrics::from_samples(1, &mut latencies, 2, 5.5);
        assert_eq!(stage.depth, 1);
        assert_eq!(stage.served, 3);
        assert!((stage.mean_latency_us - 20.0).abs() < 1e-12);
        assert_eq!(stage.p50_latency_us, 20.0);
        let text = stage.to_string();
        assert!(text.contains("stage 1: 3 served"));
        assert!(text.contains("2 transfer(s) (5.50 us)"));

        let mut commits = [100.0, 300.0];
        let class = ClassMetrics::from_samples(SloClass::Latency, &mut commits, 1, 1, 2);
        assert_eq!(class.pipelines, 3);
        assert_eq!(class.rejected, 1);
        assert!((class.mean_latency_us - 200.0).abs() < 1e-12);
        assert!((class.deadline_miss_rate() - 0.5).abs() < 1e-12);
        assert!(class
            .to_string()
            .contains("latency: 3 pipeline(s) (1 rejected)"));
        let empty = ClassMetrics::from_samples(SloClass::BestEffort, &mut [], 0, 0, 0);
        assert_eq!(empty.mean_latency_us, 0.0);
        assert_eq!(empty.deadline_miss_rate(), 0.0);
    }

    #[test]
    fn device_metrics_summarise_one_shard() {
        let metrics = DeviceMetrics {
            device: 2,
            requests: 5,
            mean_latency_us: 10.0,
            p50_latency_us: 9.0,
            p99_latency_us: 21.0,
            max_latency_us: 22.0,
            switch_count: 3,
            total_switch_us: 0.75,
            tile_utilization: vec![0.5, 0.7],
            tile_requests: vec![3, 2],
            cache: CacheStats {
                hits: 4,
                misses: 1,
                evictions: 0,
            },
            deadline_misses: 1,
            deadline_requests: 2,
            rejects: 1,
            peak_queue_depth: 3,
            transfers_in: 2,
            transfer_bytes_in: 256,
            host_loads: 1,
            availability: 0.75,
            faults: 1,
            requeues_out: 4,
            lost_work_us: 12.5,
        };
        assert!((metrics.mean_utilization() - 0.6).abs() < 1e-12);
        let text = metrics.to_string();
        assert!(text.contains("d2: 5 req"));
        assert!(text.contains("2 transfer(s) in (256 B)"));
        assert!(text.contains("1 host load(s)"));
        assert!(text.contains("avail 75%"));
        assert!(text.contains("4 requeue(s) out"));
        assert_eq!(
            DeviceMetrics {
                tile_utilization: vec![],
                ..metrics
            }
            .mean_utilization(),
            0.0
        );
    }

    #[test]
    fn display_summarises_the_serve() {
        let metrics = RuntimeMetrics {
            requests: 10,
            invocations: 320,
            makespan_us: 100.0,
            requests_per_sec: 100_000.0,
            invocations_per_sec: 3_200_000.0,
            mean_latency_us: 12.0,
            p50_latency_us: 10.0,
            p99_latency_us: 30.0,
            max_latency_us: 31.0,
            switch_count: 4,
            total_switch_us: 1.0,
            tile_utilization: vec![0.8, 0.6],
            tile_requests: vec![6, 4],
            cache: CacheStats {
                hits: 8,
                misses: 2,
                evictions: 0,
            },
            sim_memo: CacheStats {
                hits: 6,
                misses: 4,
                evictions: 0,
            },
            events_fired: 20,
            deadline_misses: 1,
            deadline_requests: 4,
            batch: BatchStats {
                batches_formed: 1,
                batched_requests: 3,
                switches_avoided: 3,
                ..BatchStats::default()
            },
            rejects: 2,
            rejected_deadlines: 1,
            peak_queue_depth: 5,
            mean_queue_depth: 1.25,
            tile_peak_queue: vec![3, 2],
            latency_hist: {
                let mut hist = LogHistogram::new();
                hist.record(10.0);
                hist
            },
            queue_depth_hist: LogHistogram::new(),
        };
        let text = metrics.to_string();
        assert!(text.contains("10 request(s)"));
        assert!(text.contains("over 1 sample(s)"));
        assert!(text.contains("20 event(s)"));
        assert!(text.contains("p99 30.00"));
        assert!(text.contains("1 miss(es) of 4 served (25% miss rate)"));
        assert!(text.contains("rejects: 2 (1 with deadlines)"));
        assert!(text.contains("queue depth: peak 5, mean 1.25"));
        assert!(text.contains("batching: 1 batch(es), 3 batched request(s), 3 switch(es) avoided"));
        assert!(text.contains("sim memo: 6 hit(s)"));
        assert!(text.contains("t1 60%"));
        assert!((metrics.mean_utilization() - 0.7).abs() < 1e-12);
        assert!((metrics.deadline_miss_rate() - 0.25).abs() < 1e-12);
        assert!((metrics.reject_rate() - 2.0 / 12.0).abs() < 1e-12);
    }

    #[test]
    fn rates_are_zero_when_undefined() {
        let metrics = RuntimeMetrics {
            requests: 0,
            invocations: 0,
            makespan_us: 0.0,
            requests_per_sec: 0.0,
            invocations_per_sec: 0.0,
            mean_latency_us: 0.0,
            p50_latency_us: 0.0,
            p99_latency_us: 0.0,
            max_latency_us: 0.0,
            switch_count: 0,
            total_switch_us: 0.0,
            tile_utilization: vec![],
            tile_requests: vec![],
            cache: CacheStats::default(),
            sim_memo: CacheStats::default(),
            events_fired: 0,
            deadline_misses: 0,
            deadline_requests: 0,
            batch: BatchStats::default(),
            rejects: 0,
            rejected_deadlines: 0,
            peak_queue_depth: 0,
            mean_queue_depth: 0.0,
            tile_peak_queue: vec![],
            latency_hist: LogHistogram::new(),
            queue_depth_hist: LogHistogram::new(),
        };
        assert_eq!(metrics.deadline_miss_rate(), 0.0);
        assert_eq!(metrics.reject_rate(), 0.0);
        assert_eq!(metrics.mean_utilization(), 0.0);
    }
}

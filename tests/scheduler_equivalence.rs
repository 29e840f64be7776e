//! The dynamic scheduler's contract: checking engines out of a pool per
//! request and serving a work queue with any number of workers must yield
//! **exactly** the results of the legacy statically round-robin-pinned
//! runner — per-stream results in input order (a statement strictly stronger
//! than multiset equality), aggregated stats, modelled makespan and energy,
//! and the same deterministic error choice — for every worker count.

use proptest::prelude::*;
use sne::batch::{BatchRunner, EnginePool, LatencySummary, Scheduler};
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::SneConfig;
use std::sync::Arc;

/// The scheduler worker counts every property is checked against (the
/// single-worker runner always runs the oracle).
const WORKERS: [usize; 4] = [1, 2, 3, 8];

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn workload(count: usize, seed: u64) -> Vec<EventStream> {
    (0..count)
        .map(|i| {
            sne::proportionality::stream_with_activity(
                (2, 8, 8),
                8,
                0.02 + 0.01 * i as f64,
                seed + i as u64,
            )
        })
        .collect()
}

proptest! {
    /// For any fleet size, stream count and worker count, the dynamic
    /// scheduler's report carries the identical result vector (input order,
    /// hence identical multiset) and identical deterministic aggregates as
    /// the round-robin oracle.
    #[test]
    fn dynamic_scheduler_equals_round_robin_for_every_strategy(
        lanes in 1usize..5,
        num_streams in 0usize..9,
        network_seed in 0u64..12,
        stream_seed in 0u64..1000,
    ) {
        let network = Arc::new(compiled(network_seed));
        let streams = workload(num_streams, stream_seed);
        // The oracle: the statically pinned walk, driven sequentially.
        let mut oracle =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
        let expected = oracle.run_round_robin(&streams).unwrap();
        for workers in WORKERS {
            let mut runner = BatchRunner::with_workers(
                Arc::clone(&network),
                SneConfig::with_slices(2),
                lanes,
                workers,
            )
            .unwrap();
            let dynamic = runner.run(&streams).unwrap();
            prop_assert_eq!(&dynamic.results, &expected.results);
            prop_assert_eq!(dynamic.total_stats, expected.total_stats);
            prop_assert_eq!(dynamic.lanes, expected.lanes);
            prop_assert!((dynamic.makespan_ms - expected.makespan_ms).abs() < 1e-12);
            prop_assert!((dynamic.total_energy_uj - expected.total_energy_uj).abs() < 1e-12);
            prop_assert!(
                (dynamic.aggregate_rate - expected.aggregate_rate).abs() < 1e-9
                    || (dynamic.aggregate_rate.is_infinite()
                        && expected.aggregate_rate.is_infinite())
            );
            // And the oracle does not depend on the runner's worker count.
            let rr = runner.run_round_robin(&streams).unwrap();
            prop_assert_eq!(&rr.results, &expected.results);
        }
    }

    /// Incremental submission (requests arriving one by one, drained at the
    /// end) equals the closed-batch entry point, record ids recover
    /// submission order, and every record's result matches a dedicated
    /// session.
    #[test]
    fn incremental_submit_drain_equals_closed_batch(
        lanes in 1usize..4,
        num_streams in 1usize..7,
        stream_seed in 0u64..1000,
    ) {
        let network = Arc::new(compiled(3));
        let streams = workload(num_streams, stream_seed);
        let mut runner =
            BatchRunner::with_workers(Arc::clone(&network), SneConfig::with_slices(2), lanes, lanes)
                .unwrap();
        let closed = runner.run(&streams).unwrap();

        for stream in &streams {
            let _ = runner.submit(stream.clone());
        }
        let records = runner.drain();
        prop_assert_eq!(records.len(), streams.len());
        let mut session =
            InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
        for ((record, stream), closed_result) in
            records.iter().zip(&streams).zip(&closed.results)
        {
            let result = record.result.as_ref().unwrap();
            prop_assert_eq!(result, closed_result);
            prop_assert_eq!(result, &session.infer(stream).unwrap());
            prop_assert!(record.lane < lanes);
        }
    }

    /// The fairness/utilization gate: a saturating closed batch on N >= 2
    /// lanes must spread busy-time across every worker-owned lane — the
    /// `[0, 0, 0, 0.981]` collapse of the old FIFO + blocking-checkout
    /// scheduler can never come back silently. Jobs are uniform-cost so the
    /// spread measures the scheduler, not workload variance.
    #[test]
    fn saturating_batches_spread_load_across_worker_lanes(
        lanes in 2usize..5,
        jobs_per_lane in 2usize..4,
        chunk_len in 6u32..13,
        workers_index in 0usize..4,
        stream_seed in 0u64..500,
    ) {
        let workers = WORKERS[workers_index];
        let network = Arc::new(compiled(7));
        let count = lanes * jobs_per_lane;
        let streams: Vec<EventStream> = (0..count)
            .map(|i| {
                sne::proportionality::stream_with_activity(
                    (2, 8, 8),
                    chunk_len,
                    0.05,
                    stream_seed + i as u64,
                )
            })
            .collect();
        let mut runner = BatchRunner::with_workers(
            Arc::clone(&network),
            SneConfig::with_slices(2),
            lanes,
            workers,
        )
        .unwrap();
        // Warmup: the first batch pays worker-thread startup in its
        // queue-wait samples; the gates measure the steady-state fleet.
        let _ = runner.run(&streams).unwrap();
        let report = runner.run(&streams).unwrap();
        // The busy-time spread gates assume the worker threads actually run
        // concurrently. A 1-core host serializes them: which worker the
        // kernel schedules first (and for how long) decides the wall-clock
        // busy split, so the spread measures the OS scheduler, not ours.
        // The steal-floor keeps placement fair even there — the per-lane
        // job-count gate below still runs — but the busy-time ratios are
        // only meaningful with real parallelism.
        let single_core = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            == 1;
        if !single_core {
            // Only a worker-owned lane can be busy at all, so the gate is
            // over the `threads` busiest lanes (threads == owned lanes).
            let mut busy = report.lane_utilization.clone();
            busy.sort_by(|a, b| b.partial_cmp(a).unwrap());
            let owned = &busy[..report.threads];
            let mean = owned.iter().sum::<f64>() / owned.len() as f64;
            let min = owned.iter().copied().fold(f64::INFINITY, f64::min);
            prop_assert!(mean > 0.0);
            prop_assert!(
                min >= 0.25 * mean,
                "lane-utilization collapse: {:?} (threads = {})",
                report.lane_utilization,
                report.threads
            );
            // With one worker per lane the report's own spread stat is the
            // same gate; it must agree with the recomputation.
            if report.threads == report.lanes {
                prop_assert!(report.utilization_spread >= 0.25);
                prop_assert!((report.utilization_spread - min / mean).abs() < 1e-9);
            }
        }
        // Arrivals must wait on the hardware, not the queue. A closed burst
        // cannot show that (every job necessarily waits for the backlog
        // ahead of it — Little's law — and a one-core host serializes the
        // workers on top), so the queue gate runs open-loop: arrivals paced
        // near the measured service rate, the serving steady state. The
        // old FIFO + blocking-checkout scheduler queued ~5x its service
        // p50 here; 2x plus a scheduling-noise floor is the gate.
        let pace = std::time::Duration::from_micros(
            (report.service_latency.p50_us * 1.25).max(50.0) as u64,
        );
        for stream in &streams {
            let _ = runner.submit(stream.clone());
            std::thread::sleep(pace);
        }
        let records = runner.drain();
        prop_assert_eq!(records.len(), streams.len());
        let queue: Vec<f64> = records.iter().map(|r| r.queue_us).collect();
        let service: Vec<f64> = records.iter().map(|r| r.service_us).collect();
        let queue_p50 = LatencySummary::from_samples_us(&queue).p50_us;
        let service_p50 = LatencySummary::from_samples_us(&service).p50_us;
        prop_assert!(
            queue_p50 <= 2.0 * service_p50 + 1500.0,
            "paced arrivals queued on the scheduler: queue p50 {} vs service p50 {}",
            queue_p50,
            service_p50
        );
        // Paced arrivals also reach every worker-owned lane (the rotating
        // placement tiebreak): no lane is starved. The gate counts jobs, not
        // busy-time — wall-clock service on a time-sliced host attributes
        // arbitrarily across interleaved lanes, but a collapsed placement
        // shows up as a zero count regardless of the clock.
        let owned_lanes = runner.scheduler().worker_lanes().to_vec();
        let mut lane_jobs = vec![0usize; lanes];
        for record in &records {
            lane_jobs[record.lane] += 1;
        }
        for &lane in &owned_lanes {
            prop_assert!(
                lane_jobs[lane] >= 1,
                "paced lane starved: {:?} over lanes {:?}",
                lane_jobs,
                owned_lanes
            );
        }
    }

    /// Error choice is deterministic: whatever the worker count or arrival
    /// order, the batch reports the error of the lowest-numbered failing
    /// stream — the same one the round-robin oracle picks.
    #[test]
    fn error_choice_matches_the_round_robin_oracle(
        lanes in 1usize..4,
        bad_a in 0usize..6,
        bad_b in 0usize..6,
    ) {
        let network = Arc::new(compiled(5));
        let mut streams = workload(6, 77);
        streams[bad_a] = EventStream::new(16, 16, 2, 8); // wrong geometry
        streams[bad_b] = EventStream::new(4, 4, 1, 8);
        let mut oracle =
            BatchRunner::new(Arc::clone(&network), SneConfig::with_slices(2), lanes).unwrap();
        let expected = oracle.run_round_robin(&streams).unwrap_err();
        for workers in WORKERS {
            let mut runner = BatchRunner::with_workers(
                Arc::clone(&network),
                SneConfig::with_slices(2),
                lanes,
                workers,
            )
            .unwrap();
            prop_assert_eq!(runner.run(&streams).unwrap_err(), expected.clone());
        }
    }
}

/// Requests `call`ed concurrently from many threads (the server's request
/// pattern) produce bit-identical results to dedicated sessions, and the
/// scheduler's recorder counts every one of them.
#[test]
fn concurrent_callers_get_dedicated_session_results() {
    let network = Arc::new(compiled(9));
    let streams = workload(8, 123);
    let pool = Arc::new(
        EnginePool::new(
            Arc::new(
                sne::RuntimeArtifact::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap(),
            ),
            3,
        )
        .unwrap(),
    );
    let scheduler = Arc::new(Scheduler::new(Arc::clone(&pool), 3));
    let records: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .iter()
            .map(|stream| {
                let scheduler = Arc::clone(&scheduler);
                let stream = stream.clone();
                scope.spawn(move || scheduler.call(stream))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut session = InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
    for (record, stream) in records.iter().zip(&streams) {
        assert_eq!(
            record.result.as_ref().unwrap(),
            &session.infer(stream).unwrap()
        );
    }
    let stats = scheduler.stats();
    assert_eq!(stats.completed, 8);
    assert_eq!(stats.errors, 0);
    assert_eq!(stats.service.count, 8);
    assert!(stats.service.max_us >= stats.service.p99_us);
    // Workers own every engine while the scheduler lives; shutdown (via
    // drop) returns them all.
    assert_eq!(pool.idle_lanes(), 0);
    drop(scheduler);
    assert_eq!(pool.idle_lanes(), 3);
}

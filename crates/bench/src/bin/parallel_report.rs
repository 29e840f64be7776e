//! Measures the wall-clock scaling of the scheduler's worker threads and
//! emits a machine-readable `BENCH_parallel.json` (the companion of
//! `BENCH_session.json`).
//!
//! One workload, `batch16`, swept over 1/2/4/8 scheduler workers: a 16-lane
//! [`BatchRunner`] serving 16 Fig. 6 streams, separate requests running on
//! separate workers (the fleet-serving scenario). Engines themselves always
//! run on their worker's thread.
//!
//! The binary asserts that every worker count produces **bit-identical**
//! aggregate statistics before reporting any timing. The measured speedups
//! are bounded by the host's available parallelism (recorded in the JSON as
//! `host_parallelism`): on a single-core host all worker counts measure
//! ~1.0x.
//!
//! ```bash
//! cargo run --release -p sne_bench --bin parallel_report              # full sweep
//! cargo run --release -p sne_bench --bin parallel_report -- --smoke   # CI smoke
//! cargo run --release -p sne_bench --bin parallel_report -- --out x.json
//! ```

use std::time::Instant;

use sne::batch::BatchRunner;
use sne_bench::{fig6_network, workload};
use sne_sim::SneConfig;

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];

fn measure(iterations: u32, mut run: impl FnMut() -> u64) -> f64 {
    let _ = run(); // warm-up: thread pools, page faults, lazy buffers
    let start = Instant::now();
    let mut checksum = 0u64;
    for _ in 0..iterations {
        checksum = checksum.wrapping_add(run());
    }
    assert!(checksum > 0, "benchmark workload produced no cycles");
    start.elapsed().as_secs_f64() * 1e3 / f64::from(iterations)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = sne_bench::report_out_path(&args, "BENCH_parallel.json");
    let iterations: u32 = if smoke { 2 } else { 15 };
    let host_parallelism = std::thread::available_parallelism().map_or(1, usize::from);

    let network = fig6_network(32, 11, 5);
    let config = SneConfig::with_slices(8);
    let streams: Vec<_> = (0..16).map(|i| workload(32, 12, 0.01, 100 + i)).collect();

    // 16 lanes over 16 streams, requests spread over the scheduler workers.
    let mut reference: Option<sne::BatchReport> = None;
    let mut points: Vec<(usize, f64)> = Vec::new();
    for workers in WORKER_SWEEP {
        let mut runner = BatchRunner::with_workers(network.clone(), config, 16, workers).unwrap();
        // Bit-exactness gate: every worker count must reproduce the
        // single-worker report (modulo the recorded worker count itself and
        // the host-measured serving telemetry, which varies run to run).
        let mut report = runner.run(&streams).unwrap();
        report.threads = 1;
        report.queue_latency = Default::default();
        report.service_latency = Default::default();
        report.lane_utilization.clear();
        report.utilization_spread = 0.0;
        report.steals = 0;
        report.affinity_hits = 0;
        report.affinity_misses = 0;
        match &reference {
            None => reference = Some(report),
            Some(reference) => assert_eq!(
                &report, reference,
                "batch report at {workers} workers diverged from one worker"
            ),
        }
        let mean = measure(iterations, || {
            runner.run(&streams).unwrap().total_stats.total_cycles
        });
        points.push((workers, mean));
    }
    let speedup = |mean: f64| points[0].1 / mean;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"parallel_scaling\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"host_parallelism\": {host_parallelism},\n"));
    json.push_str(&format!("  \"iterations\": {iterations},\n"));
    json.push_str(
        "  \"workload\": {\"network\": \"fig6_32x32\", \"timesteps\": 12, \"activity\": 0.01, \"slices\": 8, \"lanes\": 16, \"streams\": 16},\n",
    );
    json.push_str("  \"batch16\": {\n");
    for (j, (workers, mean)) in points.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {{\"mean_ms\": {:.3}, \"speedup_vs_1\": {:.3}}}{}\n",
            workers,
            mean,
            speedup(*mean),
            if j + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  }\n}\n");
    sne_bench::write_report(&out_path, &json);

    println!(
        "Scheduler worker scaling — Fig. 6 @ 32x32, 1 % activity, 8 slices, 16 lanes (host parallelism: {host_parallelism})"
    );
    println!();
    println!("{:>10} {:>12} {:>10}", "workers", "ms/batch", "speedup");
    for (workers, mean) in &points {
        println!("{:>10} {:>12.3} {:>9.2}x", workers, mean, speedup(*mean));
    }
    println!();
    println!("bit-exact across all worker counts: verified");
    println!("wrote {}", out_path.display());
}

//! Shared helpers for the benchmark binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see `DESIGN.md` for the experiment index); the helpers
//! here build the workloads and networks those binaries share.

use std::path::{Path, PathBuf};

use rand::rngs::StdRng;
use rand::SeedableRng;
use sne::compile::CompiledNetwork;
use sne::SneAccelerator;
use sne_event::{Event, EventStream};
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::SneConfig;

/// The slice counts swept by Fig. 4 and Fig. 5.
pub const SLICE_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Input activity range the paper measures on IBM DVS-Gesture (§IV-B).
pub const DVS_GESTURE_ACTIVITY_RANGE: (f64, f64) = (0.012, 0.049);

/// Builds a small eCNN (two accelerated layers) with random 4-bit weights on
/// a `resolution x resolution` two-polarity input, used as the benchmark
/// workload when a trained network is not needed.
///
/// # Panics
///
/// Panics if the topology cannot be compiled (it always can for the
/// resolutions used by the benches).
#[must_use]
pub fn benchmark_network(
    resolution: u16,
    hidden_channels: u16,
    classes: u16,
    seed: u64,
) -> CompiledNetwork {
    let topology = Topology::tiny(
        Shape::new(2, resolution, resolution),
        hidden_channels,
        classes,
    );
    let mut rng = StdRng::seed_from_u64(seed);
    CompiledNetwork::random(&topology, &mut rng).expect("benchmark topology compiles")
}

/// Builds the paper's Fig. 6 topology at a reduced resolution, compiled with
/// random 4-bit weights.
///
/// # Panics
///
/// Panics if the topology cannot be compiled (requires `resolution >= 16`).
#[must_use]
pub fn fig6_network(resolution: u16, classes: u16, seed: u64) -> CompiledNetwork {
    let topology = Topology::paper_fig6(Shape::new(2, resolution, resolution), classes);
    let mut rng = StdRng::seed_from_u64(seed);
    CompiledNetwork::random(&topology, &mut rng).expect("fig6 topology compiles")
}

/// Generates a deterministic input stream with approximately the requested
/// activity for a square two-polarity input.
#[must_use]
pub fn workload(resolution: u16, timesteps: u32, activity: f64, seed: u64) -> EventStream {
    sne::proportionality::stream_with_activity(
        (2, resolution, resolution),
        timesteps,
        activity,
        seed,
    )
}

/// The worst-case power-benchmark layer of §IV-A.2: every input event causes
/// a state update on every cluster of every slice. A dense layer whose output
/// count equals the engine's neuron capacity has exactly that property.
///
/// # Panics
///
/// Panics if the mapping cannot be constructed (it always can for the paper
/// configurations).
#[must_use]
pub fn full_activity_mapping(config: &SneConfig) -> sne_sim::LayerMapping {
    use sne_sim::mapping::{LifHardwareParams, MapShape};
    let outputs = config.total_neurons().min(usize::from(u16::MAX)) as u16;
    let input = MapShape::new(1, 1, 16);
    let weights = vec![1i8; usize::from(outputs) * input.len()];
    sne_sim::LayerMapping::dense(
        input,
        outputs,
        weights,
        LifHardwareParams {
            leak: 0,
            threshold: 100,
        },
    )
    .expect("full-activity mapping is valid")
}

/// Input stream for the power benchmark: events spread over 100 timesteps
/// (the paper's benchmark layer spreads its input over 100 timesteps).
#[must_use]
pub fn full_activity_stream(events_per_timestep: usize) -> EventStream {
    let mut stream = EventStream::new(16, 1, 1, 100);
    for t in 0..100 {
        for i in 0..events_per_timestep {
            stream.push_unchecked(Event::update(t, 0, (i % 16) as u16, 0));
        }
    }
    stream
}

/// Convenience: one accelerator per slice count of the sweep.
#[must_use]
pub fn accelerator_sweep() -> Vec<(usize, SneAccelerator)> {
    SLICE_SWEEP
        .iter()
        .map(|&s| (s, SneAccelerator::new(SneConfig::with_slices(s))))
        .collect()
}

/// Directory a `--smoke` run of a `*_report` binary writes to when no
/// `--out` is given, so a smoke run never overwrites a committed full-mode
/// `BENCH_*.json`.
pub const SMOKE_OUT_DIR: &str = "target/bench-smoke";

/// Where a `*_report` binary writes its JSON artifact, given its arguments
/// (program name excluded): the path after `--out` if there is one;
/// otherwise `artifact` (the committed `BENCH_*.json` name) for a full run,
/// or `artifact` under [`SMOKE_OUT_DIR`] for a `--smoke` run.
#[must_use]
pub fn report_out_path(args: &[String], artifact: &str) -> PathBuf {
    if let Some(out) = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
    {
        PathBuf::from(out)
    } else if args.iter().any(|a| a == "--smoke") {
        Path::new(SMOKE_OUT_DIR).join(artifact)
    } else {
        PathBuf::from(artifact)
    }
}

/// Writes a report artifact to `path`, creating its parent directory.
///
/// # Panics
///
/// Panics if the directory or the file cannot be written.
pub fn write_report(path: &Path, json: &str) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    }
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_network_compiles_and_runs() {
        let network = benchmark_network(8, 2, 3, 1);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(1));
        let stream = workload(8, 8, 0.05, 2);
        let result = accelerator.run(&network, &stream).unwrap();
        assert!(result.stats.total_cycles > 0);
    }

    #[test]
    fn full_activity_mapping_touches_every_cluster() {
        let config = SneConfig::with_slices(2);
        let mapping = full_activity_mapping(&config);
        assert_eq!(mapping.total_output_neurons(), config.total_neurons());
    }

    #[test]
    fn workload_activity_is_close_to_request() {
        let stream = workload(16, 50, 0.03, 3);
        assert!((stream.activity() - 0.03).abs() < 0.01);
    }

    #[test]
    fn accelerator_sweep_covers_the_paper_configs() {
        let sweep = accelerator_sweep();
        assert_eq!(sweep.len(), 4);
        assert_eq!(sweep[3].1.config().num_slices, 8);
    }

    #[test]
    fn smoke_runs_never_default_to_the_committed_artifact() {
        let args = |list: &[&str]| list.iter().map(|a| (*a).to_owned()).collect::<Vec<_>>();
        assert_eq!(
            report_out_path(&args(&[]), "BENCH_x.json"),
            PathBuf::from("BENCH_x.json")
        );
        assert_eq!(
            report_out_path(&args(&["--smoke"]), "BENCH_x.json"),
            Path::new(SMOKE_OUT_DIR).join("BENCH_x.json")
        );
        for list in [
            &["--smoke", "--out", "y.json"][..],
            &["--out", "y.json", "--smoke"],
        ] {
            assert_eq!(
                report_out_path(&args(list), "BENCH_x.json"),
                PathBuf::from("y.json")
            );
        }
    }
}

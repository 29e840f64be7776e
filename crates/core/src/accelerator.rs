//! The end-to-end accelerator runner.

use std::sync::Arc;

use sne_energy::{EnergyModel, PerformanceModel};
use sne_event::EventStream;
use sne_sim::{Engine, LayerMapping, LayerPlan, SneConfig};

use crate::compile::{CompiledNetwork, Stage};
use crate::run::InferenceResult;
use crate::session::{
    check_geometry, classify, pipeline_engines, pipeline_shares, run_stages, wavefront_makespan,
};
use crate::SneError;

/// An SNE instance ready to run compiled networks.
///
/// The accelerator runs the network in the time-multiplexed mapping mode of
/// paper §III-D.5: each accelerated layer executes on the engine, its output
/// event stream is written back to memory, the host folds any pooling stage
/// into the stream, and the next layer reads it back.
#[derive(Debug)]
pub struct SneAccelerator {
    engine: Engine,
    energy: EnergyModel,
    performance: PerformanceModel,
    /// Sparse-datapath plan set of the most recent network, reused across
    /// calls: repeated `run`s against the same network skip the
    /// configure-time plan compilation (the weight digest is re-verified per
    /// call, so an edited network can never run on a stale plan).
    cached_plans: Option<Arc<Vec<LayerPlan>>>,
}

impl SneAccelerator {
    /// Creates an accelerator with the given engine configuration.
    #[must_use]
    pub fn new(config: SneConfig) -> Self {
        Self {
            engine: Engine::new(config),
            energy: EnergyModel::new(),
            performance: PerformanceModel::new(),
            cached_plans: None,
        }
    }

    /// Returns the sparse-datapath plans for `network`, reusing the cached
    /// set when it verifiably matches (geometry **and** weight digests of
    /// every accelerated layer) and recompiling otherwise.
    fn plans_for(&mut self, network: &CompiledNetwork) -> Arc<Vec<LayerPlan>> {
        let mappings: Vec<&LayerMapping> =
            network.stages().iter().filter_map(Stage::mapping).collect();
        if let Some(plans) = &self.cached_plans {
            if plans.len() == mappings.len()
                && plans.iter().zip(&mappings).all(|(p, m)| p.matches(m))
            {
                return Arc::clone(plans);
            }
        }
        let plans = Arc::new(network.build_plans());
        self.cached_plans = Some(Arc::clone(&plans));
        plans
    }

    /// Whether a plan set is currently cached (for tests and diagnostics).
    #[must_use]
    pub fn has_cached_plans(&self) -> bool {
        self.cached_plans.is_some()
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &SneConfig {
        self.engine.config()
    }

    /// The underlying cycle-level engine (e.g. to enable tracing).
    #[must_use]
    pub fn engine_mut(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Runs one inference over an input event stream.
    ///
    /// Every call executes the compiled stages on this accelerator's engine,
    /// starting from resting neuron state. For repeated inference on the same
    /// network prefer an [`crate::session::InferenceSession`], which is what
    /// this method routes through — the session additionally keeps the
    /// per-layer state buffers alive across calls and supports streaming.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::GeometryMismatch`] if the stream does not match
    /// the network input, and propagates simulator errors.
    pub fn run(
        &mut self,
        network: &CompiledNetwork,
        input: &EventStream,
    ) -> Result<InferenceResult, SneError> {
        check_geometry(network, input)?;
        if network.accelerated_layers() == 0 {
            return Err(SneError::EmptyNetwork);
        }

        let config = *self.engine.config();
        // Configure-time work is cached across calls: the sparse-datapath
        // tables are compiled on the first run of a network and reused
        // (digest-verified) until a different network shows up.
        let plans = self.plans_for(network);
        let outcome = run_stages(
            std::slice::from_mut(&mut self.engine),
            network,
            input,
            Some(&plans),
            None,
            false,
        )?;

        // The final stream's neurons are the classes; count spikes per class.
        let (predicted_class, counts) =
            classify(&outcome.stream, usize::from(network.output_classes()));
        let energy = self.energy.report(&config, &outcome.total);
        let inference_time_ms = self.performance.inference_time_ms(&config, &outcome.total);
        let inference_rate = self.performance.inference_rate(&config, &outcome.total);
        let mean_activity = outcome.mean_activity();

        Ok(InferenceResult {
            predicted_class,
            output_spike_counts: counts,
            stats: outcome.total,
            layers: outcome.layers,
            energy,
            inference_time_ms,
            inference_rate,
            mean_activity,
        })
    }
}

impl SneAccelerator {
    /// Runs one inference in the **pipelined layer-per-slice mode** of paper
    /// §III-D.5: the engine's slices are partitioned among the accelerated
    /// layers, every layer must fit its allocation in a single pass, output
    /// events flow to the next layer through the C-XBAR instead of external
    /// memory, and all layers execute concurrently. Functionally the result
    /// is identical to [`SneAccelerator::run`]; the timing differs — the
    /// inference duration is the *makespan* (the slowest layer) rather than
    /// the sum of the layer runtimes.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::PipelineDoesNotFit`] if there are fewer slices
    /// than accelerated layers or a layer exceeds its slice allocation, plus
    /// the same errors as [`SneAccelerator::run`].
    pub fn run_pipelined(
        &mut self,
        network: &CompiledNetwork,
        input: &EventStream,
    ) -> Result<InferenceResult, SneError> {
        check_geometry(network, input)?;
        let config = *self.engine.config();
        // Distribute the slices: every layer gets an equal share, the first
        // `num_slices % layers` layers get one extra slice. The one-shot
        // entry point discards neuron state at the end, so run stateless;
        // `PipelinedSession` is the persistent variant.
        let shares = pipeline_shares(network, &config)?;
        let mut engines = pipeline_engines(&config, &shares);
        let plans = self.plans_for(network);
        let outcome = run_stages(&mut engines, network, input, Some(&plans), None, false)?;

        // In the pipelined mode the layers overlap in time: the inference
        // duration is the makespan of the wavefront across the real
        // per-timestep layer schedules — layer `l` starts timestep `t` once
        // it finished `t - 1` and layer `l - 1` delivered `t` over the
        // C-XBAR.
        let mut pipeline_stats = outcome.total;
        pipeline_stats.total_cycles = wavefront_makespan(&outcome.profiles);

        let (predicted_class, counts) =
            classify(&outcome.stream, usize::from(network.output_classes()));
        let energy = self.energy.report(&config, &pipeline_stats);
        let inference_time_ms = self.performance.inference_time_ms(&config, &pipeline_stats);
        let inference_rate = self.performance.inference_rate(&config, &pipeline_stats);
        let mean_activity = outcome.mean_activity();

        Ok(InferenceResult {
            predicted_class,
            output_spike_counts: counts,
            stats: pipeline_stats,
            layers: outcome.layers,
            energy,
            inference_time_ms,
            inference_rate,
            mean_activity,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::CompiledNetwork;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sne_event::Event;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    fn compiled() -> CompiledNetwork {
        let mut rng = StdRng::seed_from_u64(11);
        CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
    }

    fn input_stream(spikes_per_timestep: usize) -> EventStream {
        let mut stream = EventStream::new(8, 8, 2, 16);
        for t in 0..16 {
            for i in 0..spikes_per_timestep {
                stream
                    .push(Event::update(
                        t,
                        (i % 2) as u16,
                        (i % 8) as u16,
                        ((i * 3) % 8) as u16,
                    ))
                    .unwrap();
            }
        }
        stream
    }

    #[test]
    fn run_produces_prediction_and_per_layer_stats() {
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
        let result = accelerator.run(&compiled(), &input_stream(4)).unwrap();
        assert!(result.predicted_class < 3);
        assert_eq!(result.output_spike_counts.len(), 3);
        assert_eq!(result.layers.len(), 2);
        assert!(result.stats.total_cycles > 0);
        assert!(result.inference_time_ms > 0.0);
        assert!(result.inference_rate > 0.0);
        assert!(result.energy.energy_uj > 0.0);
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(1));
        let wrong = EventStream::new(16, 16, 2, 8);
        assert!(matches!(
            accelerator.run(&compiled(), &wrong),
            Err(SneError::GeometryMismatch { .. })
        ));
    }

    #[test]
    fn more_input_events_cost_more_cycles_and_energy() {
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
        let network = compiled();
        let sparse = accelerator.run(&network, &input_stream(1)).unwrap();
        let dense = accelerator.run(&network, &input_stream(8)).unwrap();
        assert!(dense.stats.total_cycles > sparse.stats.total_cycles);
        assert!(dense.energy.energy_uj > sparse.energy.energy_uj);
        assert!(dense.input_events() > sparse.input_events());
    }

    #[test]
    fn plan_cache_is_reused_and_invalidated_per_network() {
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
        assert!(!accelerator.has_cached_plans());
        let network = compiled();
        let first = accelerator.run(&network, &input_stream(3)).unwrap();
        assert!(accelerator.has_cached_plans());
        let cached = Arc::clone(accelerator.cached_plans.as_ref().unwrap());
        // Same network: the cached set is reused pointer-identically and the
        // result is unchanged.
        let again = accelerator.run(&network, &input_stream(3)).unwrap();
        assert_eq!(first, again);
        assert!(Arc::ptr_eq(
            &cached,
            accelerator.cached_plans.as_ref().unwrap()
        ));
        // A different network (same topology, different weights) must miss
        // the cache and recompile — never run on a stale plan.
        let mut rng = StdRng::seed_from_u64(77);
        let other =
            CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap();
        let mut dedicated = SneAccelerator::new(SneConfig::with_slices(2));
        let expected = dedicated.run(&other, &input_stream(3)).unwrap();
        assert_eq!(accelerator.run(&other, &input_stream(3)).unwrap(), expected);
        assert!(!Arc::ptr_eq(
            &cached,
            accelerator.cached_plans.as_ref().unwrap()
        ));
    }

    #[test]
    fn reruns_are_deterministic() {
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
        let network = compiled();
        let a = accelerator.run(&network, &input_stream(3)).unwrap();
        let b = accelerator.run(&network, &input_stream(3)).unwrap();
        assert_eq!(a.output_spike_counts, b.output_spike_counts);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn config_accessors_expose_engine() {
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(4));
        assert_eq!(accelerator.config().num_slices, 4);
        accelerator.engine_mut().enable_trace(16);
    }

    #[test]
    fn pipelined_mode_matches_time_multiplexed_functionally() {
        let network = compiled();
        let stream = input_stream(4);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(8));
        let tm = accelerator.run(&network, &stream).unwrap();
        let pipelined = accelerator.run_pipelined(&network, &stream).unwrap();
        assert_eq!(tm.output_spike_counts, pipelined.output_spike_counts);
        assert_eq!(tm.predicted_class, pipelined.predicted_class);
        // The pipeline makespan is never longer than the serial schedule.
        assert!(pipelined.stats.total_cycles <= tm.stats.total_cycles);
        assert!(pipelined.inference_time_ms <= tm.inference_time_ms);
    }

    #[test]
    fn pipelined_mode_requires_enough_slices() {
        let network = compiled(); // two accelerated layers
        let stream = input_stream(2);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(1));
        assert!(matches!(
            accelerator.run_pipelined(&network, &stream),
            Err(SneError::PipelineDoesNotFit { .. })
        ));
    }

    #[test]
    fn pipelined_mode_rejects_oversized_layers() {
        // The Fig. 6 network at 32x32 has a 32*32*32 = 32768-neuron conv
        // layer, which cannot fit the 4096 neurons of its 4-slice allocation.
        let mut rng = StdRng::seed_from_u64(2);
        let network =
            CompiledNetwork::random(&Topology::paper_fig6(Shape::new(2, 32, 32), 11), &mut rng)
                .unwrap();
        let stream = EventStream::new(32, 32, 2, 4);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(8));
        assert!(matches!(
            accelerator.run_pipelined(&network, &stream),
            Err(SneError::PipelineDoesNotFit { .. })
        ));
    }

    #[test]
    fn pipelined_mode_checks_geometry() {
        let network = compiled();
        let wrong = EventStream::new(16, 16, 2, 8);
        let mut accelerator = SneAccelerator::new(SneConfig::with_slices(8));
        assert!(matches!(
            accelerator.run_pipelined(&network, &wrong),
            Err(SneError::GeometryMismatch { .. })
        ));
    }
}

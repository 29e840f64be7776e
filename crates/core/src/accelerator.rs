//! The end-to-end accelerator runner.

use sne_event::EventStream;
use sne_sim::SneConfig;

use crate::compile::CompiledNetwork;
use crate::run::InferenceResult;
use crate::session::{check_geometry, InferenceSession, PipelinedSession};
use crate::SneError;

/// An SNE instance ready to run compiled networks.
///
/// The accelerator runs the network in the time-multiplexed mapping mode of
/// paper §III-D.5: each accelerated layer executes on the engine, its output
/// event stream is written back to memory, the host folds any pooling stage
/// into the stream, and the next layer reads it back.
///
/// It is a thin wrapper over the session runtime: [`SneAccelerator::run`]
/// goes through an [`InferenceSession`] kept for the most recent network,
/// so repeated runs against an equal network reuse its engine, compiled
/// plans and state buffers, and any change to the network (weights,
/// geometry or a neuron parameter) builds a fresh session.
#[derive(Debug)]
pub struct SneAccelerator {
    config: SneConfig,
    session: Option<InferenceSession>,
}

impl SneAccelerator {
    /// Creates an accelerator with the given engine configuration.
    #[must_use]
    pub fn new(config: SneConfig) -> Self {
        Self {
            config,
            session: None,
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &SneConfig {
        &self.config
    }

    /// Runs one inference over an input event stream, starting from resting
    /// neuron state. For repeated inference on one network, or for
    /// streaming, hold an [`InferenceSession`] directly.
    ///
    /// # Errors
    ///
    /// Returns [`SneError::GeometryMismatch`] if the stream does not match
    /// the network input, [`SneError::EmptyNetwork`] for a network without
    /// an accelerated stage, and propagates configuration and simulator
    /// errors.
    pub fn run(
        &mut self,
        network: &CompiledNetwork,
        input: &EventStream,
    ) -> Result<InferenceResult, SneError> {
        check_geometry(network, input)?;
        let session = match self.session.take() {
            Some(session) if session.network() == network => session,
            _ => InferenceSession::new(network.clone(), self.config)?,
        };
        self.session.insert(session).infer(input)
    }

    /// Runs one inference in the **pipelined layer-per-slice mode** of paper
    /// §III-D.5 through a [`PipelinedSession`]: the engine's slices are
    /// partitioned among the accelerated layers, every layer must fit its
    /// allocation in a single pass, output events flow to the next layer
    /// through the C-XBAR instead of external memory, and all layers execute
    /// concurrently. Functionally the result is identical to
    /// [`SneAccelerator::run`]; the timing differs — the inference duration
    /// is the *makespan* of the overlapped schedule rather than the sum of
    /// the layer runtimes.
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
        PipelinedSession::new(network.clone(), self.config)?.infer(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::Stage;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sne_event::Event;
    use sne_model::topology::Topology;
    use sne_model::Shape;
    use sne_sim::LayerMapping;
    use std::sync::Arc;

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
        assert!(accelerator.session.is_none());
        let network = compiled();
        let first = accelerator.run(&network, &input_stream(3)).unwrap();
        let cached = Arc::clone(accelerator.session.as_ref().unwrap().plans());
        // An equal network reuses the session (and its plans) pointer-
        // identically, and the result is unchanged.
        let again = accelerator.run(&network.clone(), &input_stream(3)).unwrap();
        assert_eq!(first, again);
        assert!(Arc::ptr_eq(
            &cached,
            accelerator.session.as_ref().unwrap().plans()
        ));
        // A different network must never run on the cached session: other
        // weights, or the same weights with another firing threshold (which
        // the plans' weight digest does not see).
        let mut rng = StdRng::seed_from_u64(77);
        let other_weights =
            CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap();
        let mut stages = network.stages().to_vec();
        for stage in &mut stages {
            if let Stage::Accelerated {
                mapping: LayerMapping::Conv { params, .. } | LayerMapping::Dense { params, .. },
                ..
            } = stage
            {
                params.threshold = 1;
            }
        }
        let other_threshold = CompiledNetwork::from_parts(
            network.input_shape(),
            network.output_classes(),
            stages,
            network.scales().to_vec(),
        )
        .unwrap();
        for other in [other_weights, other_threshold] {
            let expected = SneAccelerator::new(SneConfig::with_slices(2))
                .run(&other, &input_stream(3))
                .unwrap();
            assert_ne!(expected, first);
            assert_eq!(accelerator.run(&other, &input_stream(3)).unwrap(), expected);
            assert!(!Arc::ptr_eq(
                &cached,
                accelerator.session.as_ref().unwrap().plans()
            ));
        }
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
        accelerator.run(&compiled(), &input_stream(2)).unwrap();
        let session = accelerator.session.as_ref().unwrap();
        assert_eq!(session.config(), accelerator.config());
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

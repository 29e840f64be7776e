//! Equivalence suite of the compiled sparse datapath: the precompiled
//! [`LayerPlan`] tables must reproduce the naive [`LayerMapping`] walk
//! **bit-exactly** — contribution lists (order included), engine outputs,
//! cycle statistics and per-timestep profiles — over random conv/dense
//! geometries, border events, multi-pass layers and stateful chunked
//! resume. The naive path is the reference oracle; the plan
//! is only allowed to move host wall-clock time.

use proptest::prelude::*;
use sne_event::{Event, EventStream};
use sne_sim::mapping::{LayerMapping, LifHardwareParams, MapShape};
use sne_sim::plan::LayerPlan;
use sne_sim::{Engine, LayerState, SneConfig};

fn small_config(num_slices: usize) -> SneConfig {
    SneConfig {
        num_slices,
        clusters_per_slice: 4,
        neurons_per_cluster: 8,
        ..SneConfig::default()
    }
}

fn conv_mapping(
    in_channels: u16,
    height: u16,
    width: u16,
    out_channels: u16,
    kernel: u16,
    weight_seed: u64,
    params: LifHardwareParams,
) -> LayerMapping {
    let count = usize::from(out_channels)
        * usize::from(in_channels)
        * usize::from(kernel)
        * usize::from(kernel);
    let weights: Vec<i8> = (0..count as u64)
        .map(|i| ((i.wrapping_mul(weight_seed.wrapping_add(13)) % 15) as i8) - 7)
        .collect();
    LayerMapping::conv(
        MapShape::new(in_channels, height, width),
        out_channels,
        kernel,
        weights,
        params,
    )
    .unwrap()
}

fn dense_mapping(
    input: MapShape,
    outputs: u16,
    weight_seed: u64,
    params: LifHardwareParams,
) -> LayerMapping {
    let count = usize::from(outputs) * input.len();
    let weights: Vec<i8> = (0..count as u64)
        .map(|i| ((i.wrapping_mul(weight_seed.wrapping_add(29)) % 15) as i8) - 7)
        .collect();
    LayerMapping::dense(input, outputs, weights, params).unwrap()
}

proptest! {
    /// Table level: for any conv geometry (including kernels wider than the
    /// feature map, so every position is a border position), any event
    /// position and any slice range, the plan emits the identical
    /// contribution list — neuron indices, weights *and order*.
    #[test]
    fn plan_contributions_match_the_naive_walk(
        in_channels in 1u16..4,
        height in 2u16..8,
        width in 2u16..8,
        out_channels in 1u16..9,
        kernel_index in 0usize..3,
        weight_seed in 0u64..1000,
        event_seed in 0u64..1000,
        range_lo in 0usize..64,
        range_len in 0usize..96,
    ) {
        let kernel = [1u16, 3, 5][kernel_index];
        let mapping = conv_mapping(
            in_channels, height, width, out_channels, kernel, weight_seed,
            LifHardwareParams::default(),
        );
        let plan = LayerPlan::build(&mapping);
        prop_assert!(plan.matches(&mapping));
        let range = range_lo..(range_lo + range_len);
        // A pseudo-random event position plus the four corners (the extreme
        // border classes) every single case.
        let e = event_seed;
        let positions = [
            ((e % u64::from(in_channels)) as u16,
             ((e / 7) % u64::from(height)) as u16,
             ((e / 49) % u64::from(width)) as u16),
            (0, 0, 0),
            (in_channels - 1, height - 1, width - 1),
            (0, height - 1, 0),
            (in_channels - 1, 0, width - 1),
        ];
        for (ch, y, x) in positions {
            let event = Event::update(0, ch, x, y);
            let mut naive = Vec::new();
            mapping.contributions_in_range_into(&event, range.clone(), &mut naive);
            let mut planned = Vec::new();
            plan.contributions_in_range_into(&event, range.clone(), &mut planned);
            prop_assert_eq!(&planned, &naive);
        }
    }

    /// Dense table level: the transposed weight rows reproduce the strided
    /// naive walk for any geometry and range.
    #[test]
    fn dense_plan_contributions_match_the_naive_walk(
        channels in 1u16..3,
        height in 1u16..5,
        width in 1u16..5,
        outputs in 1u16..40,
        weight_seed in 0u64..1000,
        range_lo in 0usize..48,
        range_len in 0usize..64,
    ) {
        let input = MapShape::new(channels, height, width);
        let mapping = dense_mapping(input, outputs, weight_seed, LifHardwareParams::default());
        let plan = LayerPlan::build(&mapping);
        let range = range_lo..(range_lo + range_len);
        for ch in 0..channels {
            for y in 0..height {
                for x in 0..width {
                    let event = Event::update(0, ch, x, y);
                    let mut naive = Vec::new();
                    mapping.contributions_in_range_into(&event, range.clone(), &mut naive);
                    let mut planned = Vec::new();
                    plan.contributions_in_range_into(&event, range.clone(), &mut planned);
                    prop_assert_eq!(&planned, &naive);
                }
            }
        }
    }

    /// Engine level: a planned layer run — including multi-pass layers —
    /// produces the identical [`sne_sim::LayerRunOutput`]
    /// (output events, stats, per-timestep profile) as the naive run.
    #[test]
    fn planned_engine_runs_are_bit_exact(
        out_channels in 1u16..11,
        kernel_index in 0usize..2,
        leak in 0i16..3,
        threshold in 1i16..6,
        num_slices in 2usize..4,
        spikes in prop::collection::vec(
            (0u32..12, 0u16..4, 0u16..4),
            30..120,
        ),
        weight_seed in 0u64..1000,
    ) {
        let kernel = [1u16, 3][kernel_index];
        let mapping = conv_mapping(
            1, 4, 4, out_channels, kernel, weight_seed,
            LifHardwareParams { leak, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 12);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        let mut naive = Engine::new(small_config(num_slices));
        let expected = naive.run_layer(&mapping, &stream).unwrap();
        // Layers larger than one pass must exercise the per-pass slice
        // ranges against the shared plan.
        if usize::from(out_channels) * 16 > small_config(num_slices).total_neurons() {
            prop_assert!(naive.passes_for(&mapping) > 1);
        }
        let mut planned = Engine::new(small_config(num_slices));
        let result = planned.run_layer_planned(&mapping, &plan, &stream).unwrap();
        prop_assert_eq!(&result.output, &expected.output);
        prop_assert_eq!(result.stats, expected.stats);
        prop_assert_eq!(&result.timestep_cycles, &expected.timestep_cycles);
    }

    /// Engine level, dense: the fast weight-row path is bit-exact end to end.
    #[test]
    fn planned_dense_runs_are_bit_exact(
        outputs in 1u16..40,
        leak in 0i16..3,
        threshold in 1i16..6,
        spikes in prop::collection::vec(
            (0u32..10, 0u16..4, 0u16..4),
            10..80,
        ),
        weight_seed in 0u64..1000,
    ) {
        let mapping = dense_mapping(
            MapShape::new(1, 4, 4), outputs, weight_seed,
            LifHardwareParams { leak, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 10);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        let mut naive = Engine::new(small_config(2));
        let expected = naive.run_layer(&mapping, &stream).unwrap();
        let mut planned = Engine::new(small_config(2));
        let result = planned.run_layer_planned(&mapping, &plan, &stream).unwrap();
        prop_assert_eq!(result, expected.clone());
    }

    /// Stateful streaming: pushing chunks through the planned datapath (with
    /// resume) is bit-identical to pushing the same chunks through the naive
    /// datapath, for any cut point and leaky multi-pass layer —
    /// membrane state, TLU bookkeeping and deferred leak all carry across
    /// chunk boundaries identically. (Chunked and *whole* runs agree as
    /// per-timestep event multisets but not always in within-timestep
    /// collector interleave on multi-pass layers — a pre-existing property of
    /// the round-robin arbiter's per-run pointer reset, identical on both
    /// datapaths, so the oracle here is the naive run over the same chunks.)
    #[test]
    fn planned_stateful_chunked_resume_matches_naive_chunked(
        cut in 1u32..12,
        out_channels in 4u16..9,
        threshold in 2i16..7,
        spikes in prop::collection::vec(
            (0u32..12, 0u16..4, 0u16..4),
            40..140,
        ),
        weight_seed in 0u64..1000,
    ) {
        let mapping = conv_mapping(
            1, 4, 4, out_channels, 3, weight_seed,
            LifHardwareParams { leak: 1, threshold },
        );
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 12);
        for (t, x, y) in spikes {
            stream.push(Event::update(t, 0, x, y)).unwrap();
        }
        // Naive oracle: the same chunk cuts, stateful resume, sequential.
        let mut oracle_engine = Engine::new(small_config(2));
        let mut oracle_state = LayerState::new(&small_config(2), &mapping);
        let mut expected_events = Vec::new();
        let mut expected_stats = Vec::new();
        for (i, (start, end)) in [(0, cut), (cut, 12)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = oracle_engine
                .run_layer_stateful(&mapping, &chunk, &mut oracle_state, i > 0)
                .unwrap();
            expected_stats.push(run.stats);
            expected_events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }

        let mut chunked = Engine::new(small_config(2));
        let mut state = LayerState::new(&small_config(2), &mapping);
        let mut events = Vec::new();
        for (i, (start, end)) in [(0, cut), (cut, 12)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = chunked
                .run_layer_stateful_planned(&mapping, &plan, &chunk, &mut state, i > 0)
                .unwrap();
            prop_assert_eq!(run.stats, expected_stats[i]);
            events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }
        prop_assert_eq!(&events[..], &expected_events[..]);
        prop_assert_eq!(&state, &oracle_state);
    }
}

/// Session level: the full Fig. 6 network (two convs, pools, two dense
/// layers, multi-pass first conv) gives the identical inference result on
/// the compiled plan and on the naive oracle, whole-sample and chunked.
#[test]
fn session_plan_and_naive_datapaths_agree_on_the_fig6_network() {
    use sne::compile::CompiledNetwork;
    use sne::session::InferenceSession;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let network =
        CompiledNetwork::random(&Topology::paper_fig6(Shape::new(2, 16, 16), 11), &mut rng)
            .unwrap();
    let stream = sne::proportionality::stream_with_activity((2, 16, 16), 8, 0.05, 17);

    let mut naive = InferenceSession::new(network.clone(), SneConfig::with_slices(8)).unwrap();
    naive.set_plan_enabled(false);
    let expected = naive.infer(&stream).unwrap();

    let mut planned = InferenceSession::new(network, SneConfig::with_slices(8)).unwrap();
    assert_eq!(planned.infer(&stream).unwrap(), expected);

    // Chunked streaming on the plan matches the naive whole run spike for
    // spike.
    planned.reset();
    let mut spikes = 0;
    for chunk in stream.chunks(3) {
        spikes += planned.push(&chunk).unwrap().output.spike_count();
    }
    assert_eq!(
        spikes as u32,
        expected.output_spike_counts.iter().sum::<u32>()
    );
}

//! Equivalence suite of the blocked membrane kernel: the SIMD-blocked
//! [`Kernel::Blocked`] datapath must reproduce the scalar oracle
//! ([`Kernel::Scalar`]) and the naive mapping walk **bit-exactly** — kernel
//! primitives, engine outputs, cycle statistics, execution traces, energy
//! reports and persisted [`LayerState`] — over random conv/dense geometries,
//! span lengths straddling the block-width boundary, all-`±127` saturation
//! storms and chunked stateful resume. The scalar
//! path is the reference; the blocked path is only allowed to move host
//! wall-clock time.

use proptest::prelude::*;
use sne_event::{Event, EventStream};
use sne_sim::mapping::{LayerMapping, LifHardwareParams, MapShape};
use sne_sim::plan::LayerPlan;
use sne_sim::{Engine, Kernel, LayerState, SneConfig};

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

/// Runs one layer on an engine forced to `kernel`, naive or planned.
fn run_with_kernel(
    config: SneConfig,
    kernel: Kernel,
    mapping: &LayerMapping,
    plan: Option<&LayerPlan>,
    stream: &EventStream,
) -> sne_sim::LayerRunOutput {
    let mut engine = Engine::new(config);
    engine.set_kernel(kernel);
    match plan {
        Some(plan) => engine.run_layer_planned(mapping, plan, stream).unwrap(),
        None => engine.run_layer(mapping, stream).unwrap(),
    }
}

proptest! {
    /// Primitive level: `accumulate_span` over random membrane states and
    /// span lengths 0..=3·block-width (every boundary straddle) — identical
    /// rewritten states and identical span max on both kernels, with the
    /// out-of-span arena lanes untouched.
    #[test]
    fn accumulate_span_blocked_matches_scalar(
        // Arena lanes always hold clamped membrane states (the datapath
        // invariant the blocked kernel's masked tail relies on).
        mem in prop::collection::vec(-128i16..=127, 1..64),
        weights in prop::collection::vec(-128i8..=127, 0..25),
        start_seed in 0usize..64,
    ) {
        let start = start_seed % mem.len();
        let len = weights.len().min(mem.len() - start);
        let weights = &weights[..len];

        let mut scalar = mem.clone();
        let scalar_max = Kernel::Scalar.accumulate_span(&mut scalar, start, weights);
        let mut blocked = mem.clone();
        let blocked_max = Kernel::Blocked.accumulate_span(&mut blocked, start, weights);
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(blocked_max, scalar_max);
        // Lanes outside the span are untouched (the masked-tail contract).
        prop_assert_eq!(&blocked[..start], &mem[..start]);
        prop_assert_eq!(&blocked[start + len..], &mem[start + len..]);
    }

    /// Primitive level: the windowed lane-max form (`accumulate_span_max` +
    /// `reduce_lane_max`, the slice hot path) — identical rewritten states
    /// and identical reduced window maximum on both kernels, and identical
    /// to folding the per-span `accumulate_span` maxima, over multi-span
    /// windows straddling the block width. Half the spans carry trailing
    /// weight padding past `len` (the plan-pool layout) whose junk values
    /// must be ignored.
    #[test]
    fn lane_max_accumulation_matches_scalar_and_per_span_reduction(
        mem in prop::collection::vec(-128i16..=127, 8..64),
        spans in prop::collection::vec(
            (0usize..64, prop::collection::vec(-128i8..=127, 0..20), 0u8..2),
            1..6,
        ),
    ) {
        use sne_sim::simd::{BLOCK_LANES, LANE_FLOOR};

        let mut scalar = mem.clone();
        let mut blocked = mem.clone();
        let mut folded = mem.clone();
        let mut scalar_lanes = LANE_FLOOR;
        let mut blocked_lanes = LANE_FLOOR;
        let mut folded_max = i16::from(i8::MIN);
        for (start_seed, weights, pad) in &spans {
            let start = start_seed % mem.len();
            let len = weights.len().min(mem.len() - start);
            let mut weights = weights[..len].to_vec();
            if *pad == 1 {
                // Padding bytes past `len` must never influence anything.
                weights.extend(std::iter::repeat_n(0x55u8 as i8, BLOCK_LANES + 1));
            }
            Kernel::Scalar.accumulate_span_max(
                &mut scalar, start, &weights, len, &mut scalar_lanes,
            );
            Kernel::Blocked.accumulate_span_max(
                &mut blocked, start, &weights, len, &mut blocked_lanes,
            );
            folded_max = folded_max.max(
                Kernel::Scalar.accumulate_span(&mut folded, start, &weights[..len]),
            );
        }
        prop_assert_eq!(&scalar, &folded);
        prop_assert_eq!(&blocked, &folded);
        let scalar_reduced = Kernel::Scalar.reduce_lane_max(&scalar_lanes);
        let blocked_reduced = Kernel::Blocked.reduce_lane_max(&blocked_lanes);
        prop_assert_eq!(scalar_reduced, folded_max);
        prop_assert_eq!(blocked_reduced, folded_max);
        // Reduction is kernel-independent of the lane distribution.
        prop_assert_eq!(Kernel::Blocked.reduce_lane_max(&scalar_lanes), folded_max);
        prop_assert_eq!(Kernel::Scalar.reduce_lane_max(&blocked_lanes), folded_max);
    }

    /// Primitive level: saturation storm — every state and weight pinned to
    /// `±127`, the worst case for the saturating lane adds and the clamp.
    #[test]
    fn saturation_storm_is_bit_exact(
        signs in prop::collection::vec(0u8..2, 8..40),
        weight_signs in prop::collection::vec(0u8..2, 8..40),
        leak_total in -600i32..600,
        threshold in 1i16..128,
    ) {
        let mem: Vec<i16> = signs.iter().map(|&s| if s == 1 { 127 } else { -128 }).collect();
        let weights: Vec<i8> = weight_signs
            .iter()
            .take(mem.len())
            .map(|&s| if s == 1 { 127 } else { -127 })
            .collect();

        let mut scalar = mem.clone();
        let scalar_max = Kernel::Scalar.accumulate_span(&mut scalar, 0, &weights);
        let mut blocked = mem.clone();
        let blocked_max = Kernel::Blocked.accumulate_span(&mut blocked, 0, &weights);
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(blocked_max, scalar_max);

        let mut scalar_leak = mem.clone();
        Kernel::Scalar.apply_leak(&mut scalar_leak, leak_total);
        let mut blocked_leak = mem.clone();
        Kernel::Blocked.apply_leak(&mut blocked_leak, leak_total);
        prop_assert_eq!(&blocked_leak, &scalar_leak);

        let mut scalar_fire = mem.clone();
        let mut scalar_out = Vec::new();
        let sm = Kernel::Scalar.fire_walk(&mut scalar_fire, 1, threshold, &mut scalar_out);
        let mut blocked_fire = mem;
        let mut blocked_out = Vec::new();
        let bm = Kernel::Blocked.fire_walk(&mut blocked_fire, 1, threshold, &mut blocked_out);
        prop_assert_eq!(&blocked_fire, &scalar_fire);
        prop_assert_eq!(&blocked_out, &scalar_out);
        prop_assert_eq!(bm, sm);
    }

    /// Primitive level: `fire_walk` — identical post-leak states, identical
    /// fired indices (order included) and identical running max for any
    /// leak/threshold over lengths straddling the block width.
    #[test]
    fn fire_walk_blocked_matches_scalar(
        mem in prop::collection::vec(-128i16..=127, 1..41),
        leak in 0i16..5,
        threshold in 1i16..40,
    ) {
        let mut scalar = mem.clone();
        let mut scalar_out = vec![7usize];
        let sm = Kernel::Scalar.fire_walk(&mut scalar, leak, threshold, &mut scalar_out);
        let mut blocked = mem;
        let mut blocked_out = vec![7usize];
        let bm = Kernel::Blocked.fire_walk(&mut blocked, leak, threshold, &mut blocked_out);
        prop_assert_eq!(&blocked, &scalar);
        prop_assert_eq!(&blocked_out, &scalar_out);
        prop_assert_eq!(bm, sm);
    }

    /// Engine level: blocked ≡ scalar ≡ naive. One conv layer over random
    /// geometry, on the naive *and* the planned datapath — identical
    /// outputs, statistics and per-timestep profiles everywhere. The scalar naive run is the single oracle.
    #[test]
    fn engine_runs_agree_across_kernels_and_datapaths(
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
        let config = small_config(num_slices);
        let expected = run_with_kernel(
            config, Kernel::Scalar, &mapping, None, &stream,
        );
        for membrane_kernel in [Kernel::Scalar, Kernel::Blocked] {
            for plan in [None, Some(&plan)] {
                let result = run_with_kernel(
                    config, membrane_kernel, &mapping, plan, &stream,
                );
                prop_assert_eq!(&result.output, &expected.output);
                prop_assert_eq!(result.stats, expected.stats);
                prop_assert_eq!(&result.timestep_cycles, &expected.timestep_cycles);
            }
        }
    }

    /// Engine level, dense: the long contiguous dense strides are the
    /// blocked kernel's best case — and must still be bit-exact.
    #[test]
    fn dense_runs_agree_across_kernels(
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
        let expected = run_with_kernel(
            small_config(2), Kernel::Scalar, &mapping, None, &stream,
        );
        for plan in [None, Some(&plan)] {
            let result = run_with_kernel(
                small_config(2), Kernel::Blocked,
                &mapping, plan, &stream,
            );
            prop_assert_eq!(result, expected.clone());
        }
    }

    /// Stateful streaming: chunked resume on the blocked kernel leaves the
    /// *identical persisted state* (membranes, pending leaks, dirty flags)
    /// as the scalar kernel, for any cut point. The membrane
    /// bound decides fire-scan walk elision, so an inexact blocked span max
    /// would diverge here.
    #[test]
    fn chunked_resume_persists_identical_state_across_kernels(
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
        // Scalar oracle: the same chunk cuts, stateful planned resume.
        let mut oracle_engine = Engine::new(small_config(2));
        oracle_engine.set_kernel(Kernel::Scalar);
        let mut oracle_state = LayerState::new(&small_config(2), &mapping);
        let mut expected_events = Vec::new();
        let mut expected_stats = Vec::new();
        for (i, (start, end)) in [(0, cut), (cut, 12)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = oracle_engine
                .run_layer_stateful_planned(&mapping, &plan, &chunk, &mut oracle_state, i > 0)
                .unwrap();
            expected_stats.push(run.stats);
            expected_events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }

        let mut chunked = Engine::new(small_config(2));
        chunked.set_kernel(Kernel::Blocked);
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

/// Trace level: the cycle-level execution trace — pass starts, event
/// dispatches, fire scans, TLU skips — is record-for-record identical on
/// both kernels (the blocked kernel may not change *when* anything happens,
/// only how fast the host computes it).
#[test]
fn execution_traces_are_identical_across_kernels() {
    let mapping = conv_mapping(
        2,
        6,
        6,
        4,
        3,
        17,
        LifHardwareParams {
            leak: 1,
            threshold: 3,
        },
    );
    let plan = LayerPlan::build(&mapping);
    let mut stream = EventStream::new(6, 6, 2, 8);
    for i in 0u64..60 {
        let t = (i % 8) as u32;
        let ch = ((i / 8) % 2) as u16;
        let x = ((i * 5) % 6) as u16;
        let y = ((i * 11) % 6) as u16;
        stream.push(Event::update(t, ch, x, y)).unwrap();
    }
    let mut traces = Vec::new();
    for kernel in [Kernel::Scalar, Kernel::Blocked] {
        let mut engine = Engine::new(small_config(3));
        engine.set_kernel(kernel);
        engine.enable_trace(4096);
        let _ = engine.run_layer_planned(&mapping, &plan, &stream).unwrap();
        traces.push(engine.trace().clone());
    }
    assert_eq!(traces[0], traces[1]);
    assert!(!traces[0].records().is_empty());
}

/// Session level: the full Fig. 6 network gives the identical
/// [`InferenceResult`] — prediction, spike counts, statistics, **energy**
/// and timing — on the blocked and the scalar kernel, whole-sample and
/// chunked, against the naive-datapath oracle.
#[test]
fn session_results_agree_across_kernels_on_the_fig6_network() {
    use sne::compile::CompiledNetwork;
    use sne::session::InferenceSession;
    use sne_model::topology::Topology;
    use sne_model::Shape;

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let network =
        CompiledNetwork::random(&Topology::paper_fig6(Shape::new(2, 16, 16), 11), &mut rng)
            .unwrap();
    let stream = sne::proportionality::stream_with_activity((2, 16, 16), 8, 0.05, 17);

    let mut oracle = InferenceSession::new(network.clone(), SneConfig::with_slices(8)).unwrap();
    oracle.set_kernel(Kernel::Scalar);
    oracle.set_plan_enabled(false);
    let expected = oracle.infer(&stream).unwrap();

    for kernel in [Kernel::Scalar, Kernel::Blocked] {
        let mut session =
            InferenceSession::new(network.clone(), SneConfig::with_slices(8)).unwrap();
        session.set_kernel(kernel);
        assert_eq!(session.kernel(), kernel);
        assert_eq!(
            session.infer(&stream).unwrap(),
            expected,
            "kernel {kernel:?}"
        );

        // Chunked streaming matches the whole run spike for spike.
        session.reset();
        let mut spikes = 0;
        for chunk in stream.chunks(3) {
            spikes += session.push(&chunk).unwrap().output.spike_count();
        }
        assert_eq!(
            spikes as u32,
            expected.output_spike_counts.iter().sum::<u32>(),
            "kernel {kernel:?}"
        );
    }
}

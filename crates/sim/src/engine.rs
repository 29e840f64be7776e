//! The top-level SNE engine.
//!
//! The engine owns the slices, the crossbar, the streamers, the collector and
//! the register file, and executes one mapped layer at a time over an input
//! event stream (the time-multiplexed operating mode of paper §III-D.5; the
//! layer-per-slice pipelined mode is built on top of this in the `sne` crate
//! by chaining layer runs through memory).
//!
//! Timing model (cycle-approximate, calibrated on the paper's figures):
//!
//! * one consumed `UPDATE_OP` costs [`SneConfig::cycles_per_event`] cycles
//!   (48 → 120 ns at 400 MHz), during which every addressed cluster performs
//!   one state update per cycle;
//! * a `FIRE_OP` costs one TDM scan of [`SneConfig::neurons_per_cluster`]
//!   cycles unless every cluster skipped it via the TLU, in which case it
//!   costs a single sequencer cycle;
//! * a `RST_OP` costs one cycle (all clusters clear in parallel);
//! * streamer stalls (memory slower than the consumption rate) add to the
//!   total cycle count.

use sne_event::stream::Geometry;
use sne_event::{Event, EventFormat, EventOp, EventStream};

use crate::collector::Collector;
use crate::config::SneConfig;
use crate::mapping::LayerMapping;
use crate::memory::MemoryModel;
use crate::plan::{EventRow, LayerPlan};
use crate::regfile::{Register, RegisterFile};
use crate::simd::Kernel;
use crate::slice::Slice;
use crate::state::LayerState;
use crate::stats::CycleStats;
use crate::streamer::Streamer;
use crate::trace::{Trace, TraceRecord};
use crate::worker::{run_slice_pass, SliceRecord, SliceTask, WorkerContext};
use crate::xbar::{CrossBar, XbarPort};
use crate::SimError;

/// Result of running one layer on the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRunOutput {
    /// Output events produced by the layer (spikes of the output feature map).
    pub output: EventStream,
    /// Cycle and activity accounting of the run.
    pub stats: CycleStats,
    /// Cycles attributed to each input timestep (`timestep_cycles[t]` sums to
    /// `stats.total_cycles`); DMA fill stalls are charged to the first
    /// timestep and drain stalls to the last. This per-timestep schedule is
    /// what the pipelined layer-per-slice mode overlaps across layers.
    pub timestep_cycles: Vec<u64>,
}

/// The SNE engine.
#[derive(Debug)]
pub struct Engine {
    config: SneConfig,
    regfile: RegisterFile,
    xbar: CrossBar,
    collector: Collector,
    slices: Vec<Slice>,
    memory: MemoryModel,
    format: EventFormat,
    trace: Trace,
    /// Per-slice worker records, reused across timesteps, passes and runs
    /// (the hot path performs no per-timestep allocation).
    records: Vec<SliceRecord>,
    /// Per-slice read cursors of the reduction, reused across passes.
    cursors: Vec<usize>,
    /// The membrane kernel every slice runs (see [`Kernel`]); host time
    /// only, bit-exact either way.
    kernel: Kernel,
    /// Whether [`SneConfig::validate`] already passed for the owned (and
    /// immutable) configuration: the per-run check then collapses to one
    /// boolean test instead of re-walking the config on every chunk.
    config_validated: bool,
    /// Reusable op-sequence buffer: each run rebuilds the sequence for its
    /// input chunk in place, so steady-state streaming does not reallocate
    /// it.
    op_scratch: Vec<Event>,
}

impl Engine {
    /// Creates an engine with the given configuration.
    #[must_use]
    pub fn new(config: SneConfig) -> Self {
        let slices = (0..config.num_slices)
            .map(|_| Slice::new(&config))
            .collect();
        Self {
            regfile: RegisterFile::new(),
            xbar: CrossBar::new(config.num_slices, config.broadcast),
            collector: Collector::new(config.num_slices),
            slices,
            memory: MemoryModel::new(config.memory_latency, 2),
            format: EventFormat::default(),
            trace: Trace::disabled(),
            records: Vec::new(),
            cursors: Vec::new(),
            kernel: Kernel::auto(),
            config_validated: false,
            op_scratch: Vec::new(),
            config,
        }
    }

    /// The membrane kernel the engine's slices run.
    #[must_use]
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// Selects the membrane kernel for every slice (takes effect on the next
    /// run). Host wall-clock choice only: outputs, statistics, traces and
    /// persisted state are bit-identical for every kernel.
    pub fn set_kernel(&mut self, kernel: Kernel) {
        self.kernel = kernel;
        for slice in &mut self.slices {
            slice.set_kernel(kernel);
        }
    }

    /// The engine configuration.
    #[must_use]
    pub fn config(&self) -> &SneConfig {
        &self.config
    }

    /// The configuration register file (for host-style programming).
    #[must_use]
    pub fn regfile_mut(&mut self) -> &mut RegisterFile {
        &mut self.regfile
    }

    /// Enables execution tracing with the given record capacity.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// The execution trace collected so far.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of mapping passes needed to run `mapping` on this engine.
    #[must_use]
    pub fn passes_for(&self, mapping: &LayerMapping) -> usize {
        let per_pass = self.config.num_slices * self.config.neurons_per_slice();
        mapping.total_output_neurons().div_ceil(per_pass)
    }

    /// Runs one mapped layer over an input event stream.
    ///
    /// Neuron state starts at rest (the stream's op sequence opens with a
    /// `RST_OP`) and is discarded at the end of the run; use
    /// [`Engine::run_layer_stateful`] to persist state across invocations.
    ///
    /// # Errors
    ///
    /// Returns an error if the configuration is invalid, the mapping does not
    /// fit the filter buffer, or an event addresses a position outside the
    /// mapped input feature map.
    pub fn run_layer(
        &mut self,
        mapping: &LayerMapping,
        input: &EventStream,
    ) -> Result<LayerRunOutput, SimError> {
        self.run_layer_inner(mapping, None, input, None, false)
    }

    /// [`Engine::run_layer`] on the compiled sparse datapath: the per-event
    /// receptive-field resolution uses the precompiled contribution tables of
    /// `plan` instead of re-deriving them through the mapping. Outputs,
    /// statistics, traces and modelled cycles are **bit-identical** to the
    /// naive path — the plan only moves host time.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `plan` was not built from
    /// exactly `mapping`, plus the same errors as [`Engine::run_layer`].
    pub fn run_layer_planned(
        &mut self,
        mapping: &LayerMapping,
        plan: &LayerPlan,
        input: &EventStream,
    ) -> Result<LayerRunOutput, SimError> {
        self.check_plan(mapping, plan)?;
        self.run_layer_inner(mapping, Some(plan), input, None, false)
    }

    /// Runs one mapped layer over a chunk of an input event stream, keeping
    /// the neuron state in `state` so a continuous feed can be consumed in
    /// chunks.
    ///
    /// With `resume == false` the run starts from rest exactly like
    /// [`Engine::run_layer`] (the op sequence opens with a `RST_OP`), and the
    /// state left behind by the chunk is saved into `state`. With
    /// `resume == true` the engine first restores the membranes and TLU
    /// bookkeeping from `state`, consumes the chunk *without* an initial
    /// reset, and saves the updated state back — pushing the chunks of a
    /// stream one by one is then functionally identical to consuming the
    /// whole stream at once.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `state` was not sized for this
    /// engine configuration and mapping, plus the same errors as
    /// [`Engine::run_layer`].
    pub fn run_layer_stateful(
        &mut self,
        mapping: &LayerMapping,
        input: &EventStream,
        state: &mut LayerState,
        resume: bool,
    ) -> Result<LayerRunOutput, SimError> {
        self.check_state(mapping, state)?;
        self.run_layer_inner(mapping, None, input, Some(state), resume)
    }

    /// [`Engine::run_layer_stateful`] on the compiled sparse datapath (see
    /// [`Engine::run_layer_planned`]); bit-identical to the naive path.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] if `plan` was not built from
    /// exactly `mapping`, plus the same errors as
    /// [`Engine::run_layer_stateful`].
    pub fn run_layer_stateful_planned(
        &mut self,
        mapping: &LayerMapping,
        plan: &LayerPlan,
        input: &EventStream,
        state: &mut LayerState,
        resume: bool,
    ) -> Result<LayerRunOutput, SimError> {
        self.check_plan(mapping, plan)?;
        self.check_state(mapping, state)?;
        self.run_layer_inner(mapping, Some(plan), input, Some(state), resume)
    }

    fn check_state(&self, mapping: &LayerMapping, state: &LayerState) -> Result<(), SimError> {
        if !state.matches(&self.config, mapping) {
            return Err(SimError::InvalidConfig {
                name: "layer state",
                reason: "state was sized for a different engine configuration or mapping"
                    .to_owned(),
            });
        }
        Ok(())
    }

    fn check_plan(&self, mapping: &LayerMapping, plan: &LayerPlan) -> Result<(), SimError> {
        // Geometry is checked on every run in O(1); the O(weights) digest is
        // verified where plans are built/shared (sessions, tests) and in
        // debug builds here.
        if !plan.matches_geometry(mapping) {
            return Err(SimError::InvalidConfig {
                name: "layer plan",
                reason: "plan was compiled from a different layer mapping".to_owned(),
            });
        }
        debug_assert!(
            plan.matches(mapping),
            "plan weights diverged from the mapping"
        );
        Ok(())
    }

    /// Executes a layer run as a sequence of mapping passes, each decomposed
    /// into independent per-slice worker units ([`crate::worker`]) run in
    /// slice order and merged back by a deterministic slice-order reduction
    /// ([`Engine::reduce_pass`]).
    fn run_layer_inner(
        &mut self,
        mapping: &LayerMapping,
        plan: Option<&LayerPlan>,
        input: &EventStream,
        mut state: Option<&mut LayerState>,
        resume: bool,
    ) -> Result<LayerRunOutput, SimError> {
        // The configuration is owned and immutable after construction, so
        // one successful validation holds for the engine's lifetime.
        if !self.config_validated {
            self.config.validate()?;
            self.config_validated = true;
        }
        // When the layer's weight sets fit the per-slice filter buffer they
        // are loaded once per pass; otherwise (large fully-connected layers)
        // the weights are streamed from memory per event, which costs extra
        // memory words and, if the fetch exceeds the event-consumption
        // window, stall cycles.
        let weights_resident = mapping.weight_sets() <= self.config.weight_buffer_sets;
        for event in input.iter().filter(|e| e.is_spike()) {
            mapping.validate_event(event)?;
        }
        self.program_registers(mapping, input)?;
        self.xbar.reset_counters();
        self.collector.reset_counters();

        // A resumed chunk continues from saved state: no initial RST_OP.
        // Built into the engine's reusable scratch buffer (taken out for the
        // borrow, put back at the end) so steady-state streaming does not
        // reallocate it per chunk.
        let mut op_sequence = std::mem::take(&mut self.op_scratch);
        if resume {
            input.to_op_sequence_continuing_into(&mut op_sequence);
        } else {
            input.to_op_sequence_into(&mut op_sequence);
        }
        let timesteps = input.geometry().timesteps;
        // Per-timestep cycle attribution, the layer's schedule for the
        // pipelined mapping mode.
        let mut timestep_cycles = vec![0u64; timesteps as usize];
        // The double-buffered latch state memory sustains one state update per
        // cycle; a single-ported memory (the ablation case) needs a read cycle
        // and a write-back cycle per update.
        let state_access_factor: u64 = if self.config.double_buffered_state {
            1
        } else {
            2
        };

        let mut stats = CycleStats::new();
        // Model the input DMA: pack the operation sequence into memory words
        // and stream them in through the 16-word FIFO. If the stream does not
        // fit the 32-bit format (e.g. very long synthetic runs), fall back to
        // pure word counting.
        let (in_reads, in_stalls) = self.model_input_dma(&op_sequence);

        let total_neurons = mapping.total_output_neurons();
        let neurons_per_slice = self.config.neurons_per_slice();
        let per_pass = self.config.num_slices * neurons_per_slice;
        let passes = total_neurons.div_ceil(per_pass);

        let out_shape = mapping.output_shape();
        let mut output_events: Vec<Event> = Vec::new();

        // The worker records are long-lived buffers: sized once per engine
        // configuration, cleared (capacity kept) on every pass.
        if self.records.len() != self.config.num_slices {
            self.records = vec![SliceRecord::default(); self.config.num_slices];
        }
        // Resolve every UPDATE_OP's plan row once per run; the slice workers
        // of every pass then index instead of repeating the border-class
        // lookup per (event, slice, pass).
        let event_rows: Option<Vec<EventRow<'_>>> = plan.map(|p| {
            op_sequence
                .iter()
                .filter(|op| op.op == EventOp::Update)
                .map(|op| p.event_row(op))
                .collect()
        });
        let ctx = WorkerContext {
            mapping,
            rows: event_rows.as_deref(),
            ops: &op_sequence,
            params: mapping.params(),
            clock_gating: self.config.clock_gating,
            tlu_enabled: self.config.tlu_enabled,
            neurons_per_cluster: self.config.neurons_per_cluster as u64,
            resume,
        };

        for pass in 0..passes {
            stats.passes += 1;
            if self.trace.is_enabled() {
                self.trace.push(TraceRecord::PassStart {
                    pass,
                    channels: (0..out_shape.channels)
                        .filter(|&c| {
                            let first = out_shape.index(c, 0, 0);
                            first >= pass * per_pass && first < (pass + 1) * per_pass
                        })
                        .collect(),
                });
            }

            // One worker unit per slice: the slice, its record and its
            // disjoint share of the persistent state.
            let mut shares = state.as_deref_mut().map(|st| st.pass_slices_mut(pass));
            for (s, (slice, record)) in self.slices.iter_mut().zip(&mut self.records).enumerate() {
                let base = pass * per_pass + s * neurons_per_slice;
                let mut task = SliceTask {
                    slice,
                    record,
                    state: shares.as_mut().and_then(Iterator::next),
                    base: base.min(total_neurons),
                    count: neurons_per_slice.min(total_neurons.saturating_sub(base)),
                };
                run_slice_pass(&mut task, &ctx);
            }

            stats.streamer_reads += in_reads;
            stats.stall_cycles += in_stalls;
            stats.total_cycles += in_stalls;
            timestep_cycles[0] += in_stalls;

            // Merge: a single deterministic walk over the op sequence in
            // slice order reproduces the crossbar broadcasts, the collector
            // arbitration and the cycle accounting of the hardware exactly.
            self.reduce_pass(
                &op_sequence,
                weights_resident,
                state_access_factor,
                &mut stats,
                &mut timestep_cycles,
                &mut output_events,
            );
        }

        // Hand the op-sequence buffer back for the next run.
        self.op_scratch = op_sequence;

        // Model the output DMA.
        let (out_writes, out_stalls) = self.model_output_dma(&output_events);
        stats.streamer_writes += out_writes;
        stats.stall_cycles += out_stalls;
        stats.total_cycles += out_stalls;
        timestep_cycles[timesteps as usize - 1] += out_stalls;
        stats.xbar_transfers = self.xbar.transfers();
        stats.collector_events = self.collector.merged_events();

        let geometry = Geometry::new(
            out_shape.width.max(1),
            out_shape.height.max(1),
            out_shape.channels.max(1),
            timesteps,
        )
        .map_err(|e| SimError::MalformedOpSequence(e.to_string()))?;
        let mut output = EventStream::with_geometry(geometry);
        output.extend(output_events);
        output.sort_by_time();

        Ok(LayerRunOutput {
            output,
            stats,
            timestep_cycles,
        })
    }

    /// The deterministic reduction of one pass: walks the op sequence once,
    /// combining the per-slice worker records **in slice order** into the
    /// global cycle accounting, the crossbar/collector activity, the trace
    /// and the output event stream — exactly the arbitration the sequential
    /// engine (and the hardware's collector tree) performs.
    fn reduce_pass(
        &mut self,
        ops: &[Event],
        weights_resident: bool,
        state_access_factor: u64,
        stats: &mut CycleStats,
        timestep_cycles: &mut [u64],
        output_events: &mut Vec<Event>,
    ) {
        // Split the engine into its disjoint parts so the records can be read
        // while the crossbar/collector/trace are driven.
        let records = &self.records;
        let collector = &mut self.collector;
        let xbar = &mut self.xbar;
        let trace = &mut self.trace;
        let cursors = &mut self.cursors;
        cursors.clear();
        cursors.resize(records.len(), 0);
        let event_cost = u64::from(self.config.cycles_per_event) * state_access_factor;
        let scan_cost = self.config.neurons_per_cluster as u64 * state_access_factor;

        let mut views: Vec<&[Event]> = Vec::with_capacity(records.len());
        let mut update_index = 0usize;
        let mut fire_index = 0usize;
        for op in ops {
            match op.op {
                EventOp::Reset => {
                    let _ = xbar.broadcast(XbarPort::StreamerIn);
                    stats.reset_cycles += 1;
                    stats.total_cycles += 1;
                    timestep_cycles[op.t as usize] += 1;
                    trace.push(TraceRecord::Reset { time: op.t });
                }
                EventOp::Update => {
                    let _ = xbar.broadcast(XbarPort::StreamerIn);
                    stats.input_events += 1;
                    stats.update_cycles += event_cost;
                    stats.total_cycles += event_cost;
                    timestep_cycles[op.t as usize] += event_cost;
                    // The cross-slice ops sum is only observable through the
                    // weight-streaming stall model and the trace; when
                    // neither consumes it, don't compute it.
                    let mut event_ops = 0u64;
                    if !weights_resident || trace.is_enabled() {
                        for record in records.iter().filter(|r| r.active) {
                            event_ops += record.update_ops[update_index];
                        }
                    }
                    if !weights_resident {
                        // Weights streamed per event: 8 packed 4-bit
                        // weights per 32-bit memory word (Fig. 1).
                        let words = event_ops.div_ceil(8);
                        stats.streamer_reads += words;
                        if words > event_cost {
                            let stall = words - event_cost;
                            stats.stall_cycles += stall;
                            stats.total_cycles += stall;
                            timestep_cycles[op.t as usize] += stall;
                        }
                    }
                    trace.push(TraceRecord::EventConsumed {
                        time: op.t,
                        channel: op.ch,
                        address: (op.x, op.y),
                        synaptic_ops: event_ops,
                    });
                    update_index += 1;
                }
                EventOp::Fire => {
                    let mut any_scanned = false;
                    let mut emitted = 0u64;
                    views.clear();
                    for (s, record) in records.iter().enumerate() {
                        if !record.active {
                            views.push(&record.fired[0..0]);
                            continue;
                        }
                        any_scanned |= record.scanned[fire_index];
                        let count = record.fire_counts[fire_index] as usize;
                        let start = cursors[s];
                        views.push(&record.fired[start..start + count]);
                        cursors[s] = start + count;
                        emitted += count as u64;
                    }
                    let fire_cost = if any_scanned { scan_cost } else { 1 };
                    // State updates performed during an executed scan are
                    // synaptic-side bookkeeping, not SOPs; only cycle cost
                    // is accounted here.
                    stats.fire_cycles += fire_cost;
                    stats.total_cycles += fire_cost;
                    timestep_cycles[op.t as usize] += fire_cost;
                    stats.output_events += emitted;
                    let merged = collector.merge_slices(&views, output_events);
                    for _ in 0..merged {
                        let _ = xbar.route(XbarPort::Collector, XbarPort::StreamerOut);
                    }
                    trace.push(TraceRecord::FireScan {
                        time: op.t,
                        emitted,
                    });
                    fire_index += 1;
                }
            }
        }
        // The per-slice activity counters are plain sums: merge them in one
        // go (associative and slice-order independent).
        for record in records.iter().filter(|r| r.active) {
            record.merge_into(stats, u64::from(self.config.cycles_per_event));
        }
    }

    fn program_registers(
        &mut self,
        mapping: &LayerMapping,
        input: &EventStream,
    ) -> Result<(), SimError> {
        let params = mapping.params();
        let in_shape = mapping.input_shape();
        let kernel = match mapping {
            LayerMapping::Conv { kernel, .. } => u32::from(*kernel),
            LayerMapping::Dense { .. } => 0,
        };
        let features = u32::from(self.config.tlu_enabled)
            | (u32::from(self.config.clock_gating) << 1)
            | (u32::from(self.config.broadcast) << 2);
        self.regfile.set(Register::Control, 1)?;
        self.regfile.set(Register::Leak, params.leak as u32)?;
        self.regfile
            .set(Register::Threshold, params.threshold as u32)?;
        self.regfile
            .set(Register::ActiveSlices, self.config.num_slices as u32)?;
        self.regfile
            .set(Register::LayerWidth, u32::from(in_shape.width))?;
        self.regfile
            .set(Register::LayerHeight, u32::from(in_shape.height))?;
        self.regfile
            .set(Register::LayerChannels, u32::from(in_shape.channels))?;
        self.regfile.set(Register::KernelSize, kernel)?;
        self.regfile.set(Register::Features, features)?;
        self.regfile.set(Register::EventBase, input.len() as u32)?;
        Ok(())
    }

    /// Streams the operation sequence through the input DMA model, returning
    /// `(words_read, stall_cycles)`.
    fn model_input_dma(&mut self, ops: &[Event]) -> (u64, u64) {
        match self.format.pack_all(ops) {
            Ok(words) => {
                self.memory.load_events(words);
                let mut streamer = Streamer::new(
                    self.format,
                    self.config.streamer_fifo_depth,
                    self.config.cycles_per_event,
                );
                match streamer.stream_in(&mut self.memory, self.config.num_streamers as u32) {
                    Ok(result) => (result.words_read, result.stall_cycles),
                    Err(_) => (ops.len() as u64, 0),
                }
            }
            Err(_) => (ops.len() as u64, 0),
        }
    }

    /// Streams the produced output events through the output DMA model,
    /// returning `(words_written, stall_cycles)`.
    fn model_output_dma(&mut self, events: &[Event]) -> (u64, u64) {
        let mut memory = MemoryModel::new(self.config.memory_latency, 2);
        let mut streamer = Streamer::new(
            self.format,
            self.config.streamer_fifo_depth,
            self.config.cycles_per_event,
        );
        match streamer.stream_out(events, &mut memory, self.config.num_streamers as u32) {
            Ok(result) => (result.words_written, result.stall_cycles),
            Err(_) => (events.len() as u64, 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{LifHardwareParams, MapShape};

    fn small_config() -> SneConfig {
        SneConfig {
            num_slices: 2,
            clusters_per_slice: 4,
            neurons_per_cluster: 8,
            ..SneConfig::default()
        }
    }

    /// 1 input channel, 4x4 map, 2 output channels, all-ones 3x3 kernels,
    /// threshold 1 so every touched neuron fires at the end of the timestep.
    fn conv_mapping(threshold: i16) -> LayerMapping {
        let mut weights = vec![1i8; 9];
        weights.extend(vec![1i8; 9]);
        LayerMapping::conv(
            MapShape::new(1, 4, 4),
            2,
            3,
            weights,
            LifHardwareParams { leak: 0, threshold },
        )
        .unwrap()
    }

    fn single_spike_stream() -> EventStream {
        let mut s = EventStream::new(4, 4, 1, 3);
        s.push(Event::update(0, 0, 2, 2)).unwrap();
        s
    }

    #[test]
    fn single_event_produces_receptive_field_spikes() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(1);
        let result = engine.run_layer(&mapping, &single_spike_stream()).unwrap();
        // A centre spike with all-ones kernel and threshold 1 makes the full
        // 3x3 receptive field fire in both output channels.
        assert_eq!(result.output.spike_count(), 18);
        assert_eq!(result.stats.input_events, 1);
        assert_eq!(result.stats.synaptic_ops, 18);
        assert!(result.output.iter().all(|e| e.t == 0));
    }

    #[test]
    fn cycle_count_follows_events_and_timesteps() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(100); // nothing fires
        let mut stream = EventStream::new(4, 4, 1, 10);
        for t in 0..5 {
            stream.push(Event::update(t, 0, 1, 1)).unwrap();
        }
        let result = engine.run_layer(&mapping, &stream).unwrap();
        let cfg = small_config();
        // 5 events * 48 cycles of update time.
        assert_eq!(
            result.stats.update_cycles,
            5 * u64::from(cfg.cycles_per_event)
        );
        // 5 timesteps execute a scan (8 cycles), 5 idle timesteps cost 1 cycle.
        assert_eq!(result.stats.fire_cycles, 5 * 8 + 5);
        assert_eq!(result.stats.reset_cycles, 1);
        assert_eq!(result.stats.output_events, 0);
    }

    #[test]
    fn energy_proportionality_cycles_scale_with_events() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(100);
        let run = |engine: &mut Engine, n: u32| {
            let mut stream = EventStream::new(4, 4, 1, 50);
            for t in 0..n {
                stream.push(Event::update(t % 50, 0, 1, 1)).unwrap();
            }
            engine.run_layer(&mapping, &stream).unwrap().stats
        };
        let few = run(&mut engine, 10);
        let many = run(&mut engine, 40);
        let delta_cycles = many.update_cycles - few.update_cycles;
        assert_eq!(delta_cycles, 30 * 48);
        assert!(many.synaptic_ops > few.synaptic_ops);
    }

    #[test]
    fn multi_pass_when_layer_exceeds_capacity() {
        // Engine capacity: 2 slices * 32 neurons = 64; layer has 2*16=32 per
        // channel * 8 channels = 128 neurons -> 2 passes.
        let mut engine = Engine::new(small_config());
        let weights = vec![1i8; 8 * 9];
        let mapping = LayerMapping::conv(
            MapShape::new(1, 4, 4),
            8,
            3,
            weights,
            LifHardwareParams {
                leak: 0,
                threshold: 1,
            },
        )
        .unwrap();
        assert_eq!(engine.passes_for(&mapping), 2);
        let result = engine.run_layer(&mapping, &single_spike_stream()).unwrap();
        assert_eq!(result.stats.passes, 2);
        // All 8 output channels observed the spike.
        assert_eq!(result.output.spike_count(), 8 * 9);
    }

    #[test]
    fn non_resident_weights_are_streamed_per_event() {
        // A dense layer with 16 input positions needs 16 weight sets; with a
        // 2-set filter buffer the weights are streamed from memory per event,
        // which shows up as additional streamer reads.
        let mapping = |_: ()| {
            LayerMapping::dense(
                MapShape::new(1, 4, 4),
                4,
                vec![1; 64],
                LifHardwareParams::default(),
            )
            .unwrap()
        };
        let mut stream = EventStream::new(4, 4, 1, 2);
        stream.push(Event::update(0, 0, 1, 1)).unwrap();
        stream.push(Event::update(1, 0, 2, 2)).unwrap();

        let mut small_buffer = Engine::new(SneConfig {
            weight_buffer_sets: 2,
            ..small_config()
        });
        let mut big_buffer = Engine::new(SneConfig {
            weight_buffer_sets: 256,
            ..small_config()
        });
        let streamed = small_buffer.run_layer(&mapping(()), &stream).unwrap();
        let resident = big_buffer.run_layer(&mapping(()), &stream).unwrap();
        assert!(streamed.stats.streamer_reads > resident.stats.streamer_reads);
        // Functional results are identical either way.
        assert_eq!(streamed.output, resident.output);
    }

    #[test]
    fn out_of_range_events_are_rejected() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(1);
        let mut stream = EventStream::new(8, 8, 1, 2);
        stream.push(Event::update(0, 0, 7, 7)).unwrap();
        assert!(matches!(
            engine.run_layer(&mapping, &stream),
            Err(SimError::EventOutOfRange { .. })
        ));
    }

    #[test]
    fn registers_reflect_the_programmed_layer() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(5);
        let _ = engine.run_layer(&mapping, &single_spike_stream()).unwrap();
        assert_eq!(engine.regfile_mut().get(Register::Threshold).unwrap(), 5);
        assert_eq!(engine.regfile_mut().get(Register::KernelSize).unwrap(), 3);
        assert_eq!(engine.regfile_mut().get(Register::LayerWidth).unwrap(), 4);
        assert_eq!(engine.regfile_mut().get(Register::ActiveSlices).unwrap(), 2);
    }

    #[test]
    fn trace_records_pass_events_and_fires() {
        let mut engine = Engine::new(small_config());
        engine.enable_trace(128);
        let mapping = conv_mapping(1);
        let _ = engine.run_layer(&mapping, &single_spike_stream()).unwrap();
        let records = engine.trace().records();
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::PassStart { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::EventConsumed { .. })));
        assert!(records
            .iter()
            .any(|r| matches!(r, TraceRecord::FireScan { .. })));
    }

    #[test]
    fn dense_layer_runs_end_to_end() {
        let mut engine = Engine::new(small_config());
        // 2x2 input, 4 outputs, weight 2 everywhere, threshold 2: every input
        // spike makes all outputs fire at the end of its timestep.
        let mapping = LayerMapping::dense(
            MapShape::new(1, 2, 2),
            4,
            vec![2; 16],
            LifHardwareParams {
                leak: 0,
                threshold: 2,
            },
        )
        .unwrap();
        let mut stream = EventStream::new(2, 2, 1, 3);
        stream.push(Event::update(1, 0, 0, 0)).unwrap();
        let result = engine.run_layer(&mapping, &stream).unwrap();
        assert_eq!(result.output.spike_count(), 4);
        assert!(result.output.iter().all(|e| e.t == 1));
        assert_eq!(result.stats.synaptic_ops, 4);
    }

    #[test]
    fn invalid_config_is_rejected_at_run_time() {
        let mut engine = Engine::new(SneConfig {
            num_slices: 0,
            ..SneConfig::default()
        });
        let mapping = conv_mapping(1);
        assert!(engine.run_layer(&mapping, &single_spike_stream()).is_err());
    }

    #[test]
    fn timestep_cycles_sum_to_total() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(2);
        let mut stream = EventStream::new(4, 4, 1, 6);
        for t in 0..6 {
            stream.push(Event::update(t, 0, 2, 2)).unwrap();
        }
        let result = engine.run_layer(&mapping, &stream).unwrap();
        assert_eq!(result.timestep_cycles.len(), 6);
        assert_eq!(
            result.timestep_cycles.iter().sum::<u64>(),
            result.stats.total_cycles
        );
        // Every timestep consumed one event, so each carries real work.
        assert!(result.timestep_cycles.iter().all(|&c| c > 0));
    }

    #[test]
    fn stateful_chunks_match_a_single_whole_stream_run() {
        let mapping = |_: ()| {
            // Leak 1 + threshold 7 make the result depend on state carried
            // across timesteps (and therefore across chunk boundaries).
            let mut weights = vec![2i8; 9];
            weights.extend(vec![3i8; 9]);
            LayerMapping::conv(
                MapShape::new(1, 4, 4),
                2,
                3,
                weights,
                LifHardwareParams {
                    leak: 1,
                    threshold: 7,
                },
            )
            .unwrap()
        };
        let mut stream = EventStream::new(4, 4, 1, 12);
        for t in 0..12 {
            stream.push(Event::update(t, 0, (t % 4) as u16, 1)).unwrap();
            if t % 3 == 0 {
                stream.push(Event::update(t, 0, 2, 2)).unwrap();
            }
        }

        let mut whole_engine = Engine::new(small_config());
        let whole = whole_engine.run_layer(&mapping(()), &stream).unwrap();

        let mut chunk_engine = Engine::new(small_config());
        let mut state = LayerState::new(&small_config(), &mapping(()));
        let mut events = Vec::new();
        for (i, (start, end)) in [(0, 5), (5, 6), (6, 12)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = chunk_engine
                .run_layer_stateful(&mapping(()), &chunk, &mut state, i > 0)
                .unwrap();
            events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }
        assert_eq!(events, whole.output.as_slice());
    }

    #[test]
    fn stateful_multi_pass_chunks_match_whole_run() {
        // 8 output channels on a 2-slice engine: two mapping passes, so the
        // persistent state must round-trip per (pass, slice) slot.
        let weights = vec![1i8; 8 * 9];
        let mapping = LayerMapping::conv(
            MapShape::new(1, 4, 4),
            8,
            3,
            weights,
            LifHardwareParams {
                leak: 0,
                threshold: 2,
            },
        )
        .unwrap();
        let mut stream = EventStream::new(4, 4, 1, 8);
        for t in 0..8 {
            stream.push(Event::update(t, 0, 2, 2)).unwrap();
        }
        let mut whole_engine = Engine::new(small_config());
        let whole = whole_engine.run_layer(&mapping, &stream).unwrap();

        let mut chunk_engine = Engine::new(small_config());
        let mut state = LayerState::new(&small_config(), &mapping);
        assert_eq!(state.passes(), 2);
        let mut spikes = 0;
        for (i, (start, end)) in [(0, 3), (3, 8)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = chunk_engine
                .run_layer_stateful(&mapping, &chunk, &mut state, i > 0)
                .unwrap();
            spikes += run.output.spike_count();
        }
        assert_eq!(spikes, whole.output.spike_count());
    }

    #[test]
    fn mismatched_layer_state_is_rejected() {
        let mut engine = Engine::new(small_config());
        let mapping = conv_mapping(1);
        let mut state = LayerState::new(&SneConfig::default(), &mapping);
        assert!(matches!(
            engine.run_layer_stateful(&mapping, &single_spike_stream(), &mut state, false),
            Err(SimError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn non_resumed_stateful_run_matches_stateless_run() {
        let mapping = conv_mapping(3);
        let stream = single_spike_stream();
        let mut a = Engine::new(small_config());
        let mut b = Engine::new(small_config());
        let mut state = LayerState::new(&small_config(), &mapping);
        let stateless = a.run_layer(&mapping, &stream).unwrap();
        let stateful = b
            .run_layer_stateful(&mapping, &stream, &mut state, false)
            .unwrap();
        assert_eq!(stateless, stateful);
        // The state left behind is the end-of-stream state, not rest: the
        // spike at t=0 fired and reset, later timesteps stayed idle.
        assert!(state.membrane(0).is_some());
    }

    #[test]
    fn multi_pass_chunked_resume_matches_the_whole_run() {
        // Multi-pass layer (2 passes on the small config), leak + threshold
        // so state carries across timesteps, chunked stateful resume.
        let weights: Vec<i8> = (0..8 * 9).map(|i| ((i % 7) as i8) - 3).collect();
        let mapping = LayerMapping::conv(
            crate::mapping::MapShape::new(1, 4, 4),
            8,
            3,
            weights,
            crate::mapping::LifHardwareParams {
                leak: 1,
                threshold: 3,
            },
        )
        .unwrap();
        let mut stream = EventStream::new(4, 4, 1, 250);
        for t in 0..250 {
            stream.push(Event::update(t, 0, (t % 4) as u16, 2)).unwrap();
            if t % 2 == 0 {
                stream.push(Event::update(t, 0, 1, 1)).unwrap();
            }
        }
        let expected = Engine::new(small_config())
            .run_layer(&mapping, &stream)
            .unwrap();
        assert_eq!(expected.stats.passes, 2);

        let mut chunked = Engine::new(small_config());
        let mut state = LayerState::new(&small_config(), &mapping);
        let mut events = Vec::new();
        for (i, (start, end)) in [(0, 100), (100, 250)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = chunked
                .run_layer_stateful(&mapping, &chunk, &mut state, i > 0)
                .unwrap();
            events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }
        assert_eq!(events, expected.output.as_slice());
    }

    #[test]
    fn planned_runs_are_bit_exact_with_naive_runs() {
        let mapping = conv_mapping(2);
        let plan = LayerPlan::build(&mapping);
        let mut stream = EventStream::new(4, 4, 1, 8);
        for t in 0..8 {
            stream.push(Event::update(t, 0, (t % 4) as u16, 2)).unwrap();
            stream.push(Event::update(t, 0, 0, 0)).unwrap();
        }

        let mut naive = Engine::new(small_config());
        naive.enable_trace(128);
        let expected = naive.run_layer(&mapping, &stream).unwrap();

        let mut planned = Engine::new(small_config());
        planned.enable_trace(128);
        let result = planned.run_layer_planned(&mapping, &plan, &stream).unwrap();
        assert_eq!(result, expected);
        assert_eq!(planned.trace().records(), naive.trace().records());

        // Stateful chunked resume on the planned path matches the whole run.
        let mut chunked = Engine::new(small_config());
        let mut state = LayerState::new(&small_config(), &mapping);
        let mut events = Vec::new();
        for (i, (start, end)) in [(0, 3), (3, 8)].into_iter().enumerate() {
            let chunk = stream.window(start, end);
            let run = chunked
                .run_layer_stateful_planned(&mapping, &plan, &chunk, &mut state, i > 0)
                .unwrap();
            events.extend(run.output.into_events().into_iter().map(|e| Event {
                t: e.t + start,
                ..e
            }));
        }
        assert_eq!(events, expected.output.as_slice());
    }

    #[test]
    fn mismatched_plans_are_rejected() {
        let mapping = conv_mapping(2);
        let other = conv_mapping(3); // different threshold -> different layer
        let plan = LayerPlan::build(&other);
        let mut engine = Engine::new(small_config());
        assert!(matches!(
            engine.run_layer_planned(&mapping, &plan, &single_spike_stream()),
            Err(SimError::InvalidConfig {
                name: "layer plan",
                ..
            })
        ));
        let mut state = LayerState::new(&small_config(), &mapping);
        assert!(engine
            .run_layer_stateful_planned(&mapping, &plan, &single_spike_stream(), &mut state, false)
            .is_err());
    }

    #[test]
    fn tlu_reduces_fire_cycles_on_sparse_streams() {
        let sparse_stream = || {
            let mut s = EventStream::new(4, 4, 1, 100);
            s.push(Event::update(0, 0, 2, 2)).unwrap();
            s
        };
        let mapping = conv_mapping(100);
        let mut with_tlu = Engine::new(SneConfig {
            tlu_enabled: true,
            ..small_config()
        });
        let mut without_tlu = Engine::new(SneConfig {
            tlu_enabled: false,
            ..small_config()
        });
        let a = with_tlu
            .run_layer(&mapping, &sparse_stream())
            .unwrap()
            .stats;
        let b = without_tlu
            .run_layer(&mapping, &sparse_stream())
            .unwrap()
            .stats;
        assert!(a.fire_cycles < b.fire_cycles);
        assert!(a.tlu_skipped_updates > 0);
        assert_eq!(b.tlu_skipped_updates, 0);
    }
}

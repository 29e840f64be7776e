//! Compiled per-layer contribution tables — the configure-time half of the
//! sparse datapath.
//!
//! The naive event resolution in [`LayerMapping::contributions_in_range_into`]
//! re-derives the receptive field of every spike with a triple loop (output
//! channels × kernel × kernel) of index arithmetic, border clipping and range
//! checks. All of that is a pure function of the layer geometry and the
//! event's *border class* — for a stride-1 "same" convolution the (ky, kx)
//! clipping pattern takes only a handful of distinct shapes — so it can be
//! resolved once, at configure time, into flat lookup tables. This mirrors
//! what the hardware itself does: the address filter, address shift and
//! filter buffer of paper §III-D.4 are static per-layer dataflow programmed
//! through the register interface before any event streams in (the same
//! precompiled-dataflow discipline accelerators like Eyeriss and NullHop bake
//! into silicon).
//!
//! A [`LayerPlan`] holds, per border class, one *span descriptor* per
//! (output channel, kernel row): the receptive-field taps of a kernel row
//! land on **contiguous** output neurons, so a single base offset plus a run
//! of pre-resolved weights (in ascending-neuron order) describes them all.
//! Resolving an event is then one offset add per kernel row and one clipped
//! span accumulation per cluster — no per-tap index arithmetic at all.
//! Dense layers get an even simpler fast path: the weight matrix is
//! transposed once so the contribution weights of an input position are a
//! single contiguous row slice.
//!
//! The span *weights* are deduplicated: every border class of every input
//! channel reads one canonical **weight pool** (the kernel stored with its
//! `kx` axis reversed, so ascending-neuron span order is a contiguous pool
//! slice), and the per-class tables store only `u32` start offsets into it.
//! Materializing the weights per `(border class, input channel)` pair — the
//! layout this one replaced — blew the resident tables up by the border
//! class count times the channel count; [`LayerPlan::table_entries`] still
//! reports that logical size while [`LayerPlan::table_bytes`] reports the
//! deduplicated resident footprint.
//!
//! **The plan is a host-side optimisation only.** It changes neither the
//! modelled cycles nor any output: the naive mapping walk remains the
//! reference oracle, and `tests/plan_equivalence.rs` pins plan ≡ naive
//! bit-exactly (outputs, stats, traces, energy) over random geometries,
//! border events, multi-pass layers and chunked stateful resume.

use sne_event::Event;

use crate::mapping::{Contribution, LayerMapping, MapShape};
use crate::simd::BLOCK_LANES;

/// The resolved view of one event against the plan: everything the fused
/// slice datapath ([`crate::slice::Slice::process_update_planned`]) needs to
/// integrate the event's contributions in place, and what
/// [`LayerPlan::contributions_in_range_into`] itself walks to materialize
/// them.
///
/// The engine resolves each `UPDATE_OP` **once per run** through
/// [`LayerPlan::event_row`] and hands the row to every slice worker of every
/// pass, so the border-class lookup is never repeated per slice.
#[derive(Debug, Clone, Copy)]
pub enum EventRow<'a> {
    /// Convolution: the border-class span table of the event.
    Conv {
        /// Offset of each kernel row's *lowest* neuron relative to the
        /// event's in-plane position, `rows_per_oc` per output channel.
        row_offsets: &'a [i32],
        /// Start of each span's weights inside [`EventRow::Conv::weights`],
        /// parallel to `row_offsets`: the taps of span `s` in
        /// ascending-neuron order are
        /// `weights[weight_starts[s]..][..taps_per_row]`, and tap `j`
        /// belongs to neuron `event_base + row_offsets[s] + j`.
        weight_starts: &'a [u32],
        /// The event channel's slice of the canonical deduplicated weight
        /// pool (`kx`-reversed kernel, one copy shared by every border
        /// class). The slice runs to the **end** of the pool — past the
        /// channel's own `out_channels * k * k` bytes — so the blocked
        /// kernel can always load a full weight vector from any tap (the
        /// pool carries [`BLOCK_LANES`] bytes of
        /// trailing padding for the last channel).
        weights: &'a [i8],
        /// Kernel rows per output channel (un-clipped `ky` taps).
        rows_per_oc: usize,
        /// Taps per kernel row (un-clipped `kx` taps).
        taps_per_row: usize,
        /// `y * width + x` of the event (in-plane position).
        event_base: i64,
        /// Neurons per output-channel plane.
        plane: usize,
        /// Total output neurons of the layer.
        total_neurons: usize,
    },
    /// Dense: the event's transposed weight row (`weights[o]` is output `o`).
    Dense {
        /// One weight per output neuron; like [`EventRow::Conv::weights`]
        /// the slice runs to the end of the (padded) transposed matrix, so
        /// only the first [`EventRow::Dense::outputs`] entries belong to
        /// this event.
        weights: &'a [i8],
        /// Number of output neurons (the row's logical length).
        outputs: usize,
    },
}

/// The span table of one border class — shared by every input channel (the
/// offsets and pool-relative starts do not depend on the channel).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct PlanRow {
    /// Lowest-neuron offset of each (output channel, kernel row) span.
    row_offsets: Vec<i32>,
    /// Start of each span's weights, relative to the event channel's slice
    /// of the weight pool (see [`EventRow::Conv`]).
    weight_starts: Vec<u32>,
    /// Kernel rows per output channel.
    rows_per_oc: usize,
    /// Taps per kernel row.
    taps_per_row: usize,
}

/// The layer-specific table layout.
#[derive(Debug, Clone, PartialEq)]
enum PlanKind {
    /// Stride-1 "same" convolution: span tables keyed by
    /// `(y class, x class, input channel)`.
    Conv {
        /// Neurons per output-channel plane (`height * width`).
        plane: usize,
        /// Input feature-map width (== output width).
        width: usize,
        /// Input channels.
        in_channels: usize,
        /// Border class of each input row (`y -> class`).
        y_class: Vec<u32>,
        /// Border class of each input column (`x -> class`).
        x_class: Vec<u32>,
        /// Number of distinct column classes (row stride of the class grid).
        x_classes: usize,
        /// Rows indexed by `yc * x_classes + xc` (channel-independent).
        rows: Vec<PlanRow>,
        /// Canonical deduplicated span weights: the kernel transposed to
        /// `[in_channel][out_channel][ky][k - 1 - kx]`, so every span is a
        /// contiguous slice in ascending-neuron order. One copy total,
        /// shared by all border classes.
        weight_pool: Vec<i8>,
        /// Pool stride of one input channel (`out_channels * k * k`).
        pool_stride: usize,
    },
    /// Fully-connected layer: one transposed weight row per input position.
    Dense {
        /// Input feature-map shape (for the position flattening).
        input: MapShape,
        /// Number of output neurons.
        outputs: usize,
        /// Weights transposed to `[in][out]`, so the contributions of one
        /// input position are a contiguous slice.
        transposed: Vec<i8>,
    },
}

/// A compiled, immutable contribution table for one [`LayerMapping`].
///
/// Built once at configure time ([`LayerPlan::build`]) and shared read-only
/// across timesteps, chunks, mapping passes, batch lanes and worker threads
/// (`LayerPlan` is `Send + Sync` plain data). The per-event resolution
/// ([`LayerPlan::contributions_in_range_into`]) is bit-exact with the naive
/// mapping walk, entry order included.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerPlan {
    kind: PlanKind,
    total_neurons: usize,
    /// Geometry digest of the source mapping (kind, shapes, kernel, LIF
    /// parameters — everything but the weights), checked by the engine on
    /// **every** run in O(1).
    geometry: u64,
    /// FNV-1a digest over the mapping's weights. Verified by
    /// [`LayerPlan::matches`] (session construction, tests) and by the
    /// engine's debug builds; it is O(weights), so release-mode runs check
    /// only the geometry digest.
    weights_digest: u64,
}

impl LayerPlan {
    /// Compiles the contribution tables for `mapping`.
    ///
    /// Cost is `O(border classes × in_channels × out_channels × kernel²)` for
    /// a convolution and `O(inputs × outputs)` (one transpose) for a dense
    /// layer — configure-time work in the compile-once/run-many split.
    ///
    /// # Panics
    ///
    /// Panics if the layer has 2^31 or more output neurons (far beyond any
    /// realizable state memory; the offsets are stored as `i32`).
    #[must_use]
    pub fn build(mapping: &LayerMapping) -> Self {
        let kind = match mapping {
            LayerMapping::Conv {
                input,
                out_channels,
                kernel,
                weights,
                ..
            } => build_conv(*input, *out_channels, *kernel, weights),
            LayerMapping::Dense {
                input,
                outputs,
                weights,
                ..
            } => build_dense(*input, *outputs, weights),
        };
        let (geometry, weights_digest) = fingerprints_of(mapping);
        Self {
            kind,
            total_neurons: mapping.total_output_neurons(),
            geometry,
            weights_digest,
        }
    }

    /// Returns `true` if this plan was compiled from exactly `mapping`
    /// (geometry, weights and LIF parameters). The weight digest makes
    /// running a stale plan against an edited mapping an error instead of
    /// silent corruption; it is O(weights), so sessions verify it once at
    /// construction while the engine's per-run check uses
    /// [`LayerPlan::matches_geometry`] (plus this full check in debug
    /// builds).
    #[must_use]
    pub fn matches(&self, mapping: &LayerMapping) -> bool {
        let (geometry, weights_digest) = fingerprints_of(mapping);
        self.geometry == geometry && self.weights_digest == weights_digest
    }

    /// O(1) variant of [`LayerPlan::matches`] covering everything but the
    /// weight values — the per-run hot-path check.
    #[must_use]
    pub fn matches_geometry(&self, mapping: &LayerMapping) -> bool {
        self.geometry == geometry_fingerprint_of(mapping)
    }

    /// The plan's `(geometry digest, weights digest)` pair — the stable
    /// per-layer fingerprint the durable-store layer folds into its
    /// artifact digest, so a parked session can never be resumed against a
    /// model with different weights or geometry.
    #[must_use]
    pub fn fingerprint(&self) -> (u64, u64) {
        (self.geometry, self.weights_digest)
    }

    /// Total number of precompiled tap weights the plan *resolves* — the
    /// logical table size, counting each (border class, input channel) span
    /// combination. Deduplication does not change this number; see
    /// [`LayerPlan::table_bytes`] for the resident footprint.
    #[must_use]
    pub fn table_entries(&self) -> usize {
        match &self.kind {
            PlanKind::Conv {
                rows, in_channels, ..
            } => {
                rows.iter()
                    .map(|r| r.weight_starts.len() * r.taps_per_row)
                    .sum::<usize>()
                    * in_channels
            }
            PlanKind::Dense { input, outputs, .. } => input.len() * outputs,
        }
    }

    /// Bytes actually resident in the compiled tables after span-descriptor
    /// deduplication: the canonical weight pool plus the per-border-class
    /// offset/start tables and the axis class indices.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        match &self.kind {
            PlanKind::Conv {
                rows,
                weight_pool,
                y_class,
                x_class,
                ..
            } => {
                weight_pool.len() * std::mem::size_of::<i8>()
                    + rows
                        .iter()
                        .map(|r| {
                            r.row_offsets.len() * std::mem::size_of::<i32>()
                                + r.weight_starts.len() * std::mem::size_of::<u32>()
                        })
                        .sum::<usize>()
                    + (y_class.len() + x_class.len()) * std::mem::size_of::<u32>()
            }
            PlanKind::Dense { transposed, .. } => transposed.len() * std::mem::size_of::<i8>(),
        }
    }

    /// Resolves the contributions of `event` restricted to the output
    /// neurons in `range`, appending them to `out` (not cleared first) —
    /// the drop-in, allocation-free replacement for
    /// [`LayerMapping::contributions_in_range_into`], emitting the identical
    /// contributions in the identical order.
    ///
    /// # Panics
    ///
    /// May panic if `event` lies outside the mapped input feature map; the
    /// engine validates every event before resolution, exactly as it does on
    /// the naive path.
    pub fn contributions_in_range_into(
        &self,
        event: &Event,
        range: std::ops::Range<usize>,
        out: &mut Vec<Contribution>,
    ) {
        if range.is_empty() {
            return;
        }
        match self.event_row(event) {
            EventRow::Conv {
                row_offsets,
                weight_starts,
                weights: pool,
                rows_per_oc,
                taps_per_row,
                event_base,
                plane,
                total_neurons,
            } => {
                let end = range.end.min(total_neurons);
                if range.start >= end {
                    return;
                }
                // Only the output channels whose planes intersect the range
                // can contribute (the slice's address filter).
                let first_oc = range.start / plane;
                let last_oc = (end - 1) / plane;
                for oc in first_oc..=last_oc {
                    for r in 0..rows_per_oc {
                        let span_index = oc * rows_per_oc + r;
                        let lowest = (event_base + i64::from(row_offsets[span_index])) as usize;
                        let weights = &pool[weight_starts[span_index] as usize..][..taps_per_row];
                        // Naive emission order walks kx ascending, i.e. the
                        // span's neurons *descending*.
                        for j in (0..taps_per_row).rev() {
                            let neuron = lowest + j;
                            if neuron >= range.start && neuron < end {
                                out.push(Contribution {
                                    neuron,
                                    weight: weights[j],
                                });
                            }
                        }
                    }
                }
            }
            EventRow::Dense { weights, outputs } => {
                let end = range.end.min(outputs);
                for (o, &weight) in weights.iter().enumerate().take(end).skip(range.start) {
                    out.push(Contribution { neuron: o, weight });
                }
            }
        }
    }

    /// Resolves the event's border class / input position to its table row —
    /// the shared lookup behind [`LayerPlan::contributions_in_range_into`]
    /// and the fused slice datapath (resolved once per event per run by the
    /// engine, consumed by every slice worker of every pass).
    ///
    /// # Panics
    ///
    /// May panic if `event` lies outside the mapped input feature map.
    #[inline]
    #[must_use]
    pub fn event_row(&self, event: &Event) -> EventRow<'_> {
        match &self.kind {
            PlanKind::Conv {
                plane,
                width,
                y_class,
                x_class,
                x_classes,
                rows,
                weight_pool,
                pool_stride,
                ..
            } => {
                let yc = y_class[usize::from(event.y)] as usize;
                let xc = x_class[usize::from(event.x)] as usize;
                let row = &rows[yc * x_classes + xc];
                let ch = usize::from(event.ch);
                EventRow::Conv {
                    row_offsets: &row.row_offsets,
                    weight_starts: &row.weight_starts,
                    weights: &weight_pool[ch * pool_stride..],
                    rows_per_oc: row.rows_per_oc,
                    taps_per_row: row.taps_per_row,
                    event_base: (usize::from(event.y) * width + usize::from(event.x)) as i64,
                    plane: *plane,
                    total_neurons: self.total_neurons,
                }
            }
            PlanKind::Dense {
                input,
                outputs,
                transposed,
            } => {
                let in_idx = input.index(event.ch, event.y, event.x);
                EventRow::Dense {
                    weights: &transposed[in_idx * outputs..],
                    outputs: *outputs,
                }
            }
        }
    }
}

/// Distinct clipped kernel ranges along one axis: `classes[class] = (lo, hi)`
/// is the inclusive valid tap range, `index[pos] = class`.
fn axis_classes(extent: u16, kernel: u16) -> (Vec<(u16, u16)>, Vec<u32>) {
    let half = kernel / 2;
    let mut classes: Vec<(u16, u16)> = Vec::new();
    let mut index = Vec::with_capacity(usize::from(extent));
    for pos in 0..i32::from(extent) {
        // Valid taps k satisfy 0 <= pos + half - k < extent.
        let lo = (pos + i32::from(half) - (i32::from(extent) - 1)).max(0) as u16;
        let hi = (pos + i32::from(half)).min(i32::from(kernel) - 1) as u16;
        let class = classes
            .iter()
            .position(|&c| c == (lo, hi))
            .unwrap_or_else(|| {
                classes.push((lo, hi));
                classes.len() - 1
            });
        index.push(class as u32);
    }
    (classes, index)
}

fn build_conv(input: MapShape, out_channels: u16, kernel: u16, weights: &[i8]) -> PlanKind {
    let half = i64::from(kernel / 2);
    let width = usize::from(input.width);
    let plane = usize::from(input.height) * width;
    let in_channels = usize::from(input.channels);
    let (y_ranges, y_class) = axis_classes(input.height, kernel);
    let (x_ranges, x_class) = axis_classes(input.width, kernel);
    let k = usize::from(kernel);
    // One canonical copy of every weight, `[ch][oc][ky][k - 1 - kx]`: the
    // kx reversal makes the ascending-neuron order of every span (which
    // walks kx *downwards*) a contiguous forward slice of the pool.
    let pool_stride = usize::from(out_channels) * k * k;
    // `BLOCK_LANES` trailing bytes of padding let the blocked kernel load a
    // full weight vector from any tap of any span (out-of-span lanes are
    // masked to zero before use, so the padding's value is irrelevant —
    // zero only for cleanliness).
    let mut weight_pool = vec![0i8; in_channels * pool_stride + BLOCK_LANES];
    for ch in 0..in_channels {
        for oc in 0..usize::from(out_channels) {
            for ky in 0..k {
                for rk in 0..k {
                    let kx = k - 1 - rk;
                    weight_pool[(ch * pool_stride) + (oc * k + ky) * k + rk] =
                        weights[((oc * in_channels + ch) * k + ky) * k + kx];
                }
            }
        }
    }
    // The span geometry (offsets, pool starts) depends only on the border
    // class, never on the input channel: one table per (y class, x class).
    let mut rows = Vec::with_capacity(y_ranges.len() * x_ranges.len());
    for &(ky_lo, ky_hi) in &y_ranges {
        for &(kx_lo, kx_hi) in &x_ranges {
            let rows_per_oc = usize::from(ky_hi - ky_lo + 1);
            let taps_per_row = usize::from(kx_hi - kx_lo + 1);
            let spans = usize::from(out_channels) * rows_per_oc;
            let mut row_offsets = Vec::with_capacity(spans);
            let mut weight_starts = Vec::with_capacity(spans);
            for oc in 0..usize::from(out_channels) {
                for ky in ky_lo..=ky_hi {
                    // The span's lowest neuron belongs to the largest kx
                    // tap; ascending neurons walk kx downwards.
                    let lowest = (oc * plane) as i64
                        + (half - i64::from(ky)) * width as i64
                        + (half - i64::from(kx_hi));
                    row_offsets.push(
                        i32::try_from(lowest).expect("layer exceeds the 2^31-neuron plan limit"),
                    );
                    let start = (oc * k + usize::from(ky)) * k + (k - 1 - usize::from(kx_hi));
                    weight_starts
                        .push(u32::try_from(start).expect("weight pool exceeds the u32 limit"));
                }
            }
            rows.push(PlanRow {
                row_offsets,
                weight_starts,
                rows_per_oc,
                taps_per_row,
            });
        }
    }
    PlanKind::Conv {
        plane,
        width,
        in_channels,
        y_class,
        x_class,
        x_classes: x_ranges.len(),
        rows,
        weight_pool,
        pool_stride,
    }
}

fn build_dense(input: MapShape, outputs: u16, weights: &[i8]) -> PlanKind {
    let inputs = input.len();
    let outputs = usize::from(outputs);
    // Same `BLOCK_LANES` trailing padding as the conv pool: the blocked
    // kernel may load one full weight vector straddling a row's end.
    let mut transposed = vec![0i8; inputs * outputs + BLOCK_LANES];
    for o in 0..outputs {
        for i in 0..inputs {
            transposed[i * outputs + o] = weights[o * inputs + i];
        }
    }
    PlanKind::Dense {
        input,
        outputs,
        transposed,
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_feed(hash: &mut u64, byte: u8) {
    *hash ^= u64::from(byte);
    *hash = hash.wrapping_mul(FNV_PRIME);
}

fn fnv_feed_u16(hash: &mut u64, v: u16) {
    for b in v.to_le_bytes() {
        fnv_feed(hash, b);
    }
}

/// O(1) FNV-1a digest over the mapping's discriminant, geometry and LIF
/// parameters (no weights).
fn geometry_fingerprint_of(mapping: &LayerMapping) -> u64 {
    let (tag, input, major, kernel, params) = match mapping {
        LayerMapping::Conv {
            input,
            out_channels,
            kernel,
            params,
            ..
        } => (1u8, input, *out_channels, *kernel, params),
        LayerMapping::Dense {
            input,
            outputs,
            params,
            ..
        } => (2u8, input, *outputs, 0u16, params),
    };
    let mut hash = FNV_OFFSET;
    fnv_feed(&mut hash, tag);
    fnv_feed_u16(&mut hash, input.channels);
    fnv_feed_u16(&mut hash, input.height);
    fnv_feed_u16(&mut hash, input.width);
    fnv_feed_u16(&mut hash, major);
    fnv_feed_u16(&mut hash, kernel);
    fnv_feed_u16(&mut hash, params.leak as u16);
    fnv_feed_u16(&mut hash, params.threshold as u16);
    hash
}

/// `(geometry digest, weight digest)` of a mapping.
fn fingerprints_of(mapping: &LayerMapping) -> (u64, u64) {
    let weights = match mapping {
        LayerMapping::Conv { weights, .. } | LayerMapping::Dense { weights, .. } => weights,
    };
    let mut weight_hash = FNV_OFFSET;
    for &w in weights {
        fnv_feed(&mut weight_hash, w as u8);
    }
    (geometry_fingerprint_of(mapping), weight_hash)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::LifHardwareParams;

    fn conv(input: MapShape, out_channels: u16, kernel: u16, seed: i8) -> LayerMapping {
        let count = usize::from(out_channels)
            * usize::from(input.channels)
            * usize::from(kernel)
            * usize::from(kernel);
        let weights: Vec<i8> = (0..count)
            .map(|i| ((i as i64 * 7 + i64::from(seed)) % 15) as i8 - 7)
            .collect();
        LayerMapping::conv(
            input,
            out_channels,
            kernel,
            weights,
            LifHardwareParams::default(),
        )
        .unwrap()
    }

    fn dense(input: MapShape, outputs: u16, seed: i8) -> LayerMapping {
        let count = usize::from(outputs) * input.len();
        let weights: Vec<i8> = (0..count)
            .map(|i| ((i as i64 * 5 + i64::from(seed)) % 15) as i8 - 7)
            .collect();
        LayerMapping::dense(input, outputs, weights, LifHardwareParams::default()).unwrap()
    }

    fn assert_plan_matches_naive(mapping: &LayerMapping, ranges: &[std::ops::Range<usize>]) {
        let plan = LayerPlan::build(mapping);
        assert!(plan.matches(mapping));
        let input = mapping.input_shape();
        for ch in 0..input.channels {
            for y in 0..input.height {
                for x in 0..input.width {
                    let event = Event::update(0, ch, x, y);
                    for range in ranges {
                        let mut naive = Vec::new();
                        mapping.contributions_in_range_into(&event, range.clone(), &mut naive);
                        let mut planned = Vec::new();
                        plan.contributions_in_range_into(&event, range.clone(), &mut planned);
                        assert_eq!(
                            planned, naive,
                            "event ({ch},{y},{x}) range {range:?} diverged"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv_plan_matches_naive_for_every_position_and_range() {
        let mapping = conv(MapShape::new(2, 5, 4), 3, 3, 1);
        let total = mapping.total_output_neurons();
        let ranges = [
            0..total,
            0..7,
            7..33,
            20..total,
            5..5,
            total..total + 10,
            0..usize::MAX,
        ];
        assert_plan_matches_naive(&mapping, &ranges);
    }

    #[test]
    fn kernel_wider_than_map_still_matches() {
        // Every position is a border position here: 4x3 map, 5x5 kernel.
        let mapping = conv(MapShape::new(1, 4, 3), 2, 5, 3);
        let total = mapping.total_output_neurons();
        assert_plan_matches_naive(&mapping, &[0..total, 3..9, 0..usize::MAX]);
    }

    #[test]
    fn one_by_one_kernel_is_a_single_tap() {
        let mapping = conv(MapShape::new(2, 3, 3), 2, 1, 0);
        let plan = LayerPlan::build(&mapping);
        // One class per axis, one tap per output channel, two table rows
        // (one per input channel).
        assert_eq!(plan.table_entries(), 2 * 2);
        let full = 0..mapping.total_output_neurons();
        assert_plan_matches_naive(&mapping, std::slice::from_ref(&full));
    }

    #[test]
    fn dense_plan_matches_naive() {
        let mapping = dense(MapShape::new(2, 3, 2), 7, 2);
        assert_plan_matches_naive(&mapping, &[0..7, 0..3, 3..7, 2..5, 0..usize::MAX, 9..12]);
    }

    #[test]
    fn border_classes_collapse_the_interior() {
        // 8x8 map, 3x3 kernel: 3 row classes x 3 column classes.
        let (classes, index) = axis_classes(8, 3);
        assert_eq!(classes.len(), 3);
        assert_eq!(index[0], index.iter().copied().min().unwrap());
        assert!(index[1..7].iter().all(|&c| c == index[1]));
        let mapping = conv(MapShape::new(1, 8, 8), 2, 3, 5);
        let plan = LayerPlan::build(&mapping);
        // 9 class pairs x 1 input channel rows, 2 output channels x up to
        // 9 taps each.
        assert!(plan.table_entries() > 0);
        assert_plan_matches_naive(&mapping, &[0..128, 17..40]);
    }

    #[test]
    fn dedupe_keeps_the_logical_size_but_shrinks_the_resident_tables() {
        // 16 input channels x 9 border classes share one weight pool: the
        // logical table counts every (class, channel) span combination,
        // while the resident bytes hold each weight exactly once and the
        // span geometry once per border class (it is channel-independent).
        let mapping = conv(MapShape::new(16, 8, 8), 6, 3, 2);
        let plan = LayerPlan::build(&mapping);
        let pool = 16 * 6 * 3 * 3; // one canonical copy of every weight
        assert!(plan.table_entries() > pool, "logical size kept");
        assert!(
            plan.table_bytes() < plan.table_entries(),
            "resident tables ({} B) must undercut the naive materialization \
             ({} weights)",
            plan.table_bytes(),
            plan.table_entries()
        );
        // Dense plans have nothing to dedupe: bytes == entries plus the
        // kernel's vector-load padding.
        let dense = LayerPlan::build(&dense(MapShape::new(2, 3, 2), 7, 2));
        assert_eq!(dense.table_bytes(), dense.table_entries() + BLOCK_LANES);
    }

    #[test]
    fn fingerprint_detects_any_edit() {
        let mapping = conv(MapShape::new(1, 4, 4), 2, 3, 1);
        let plan = LayerPlan::build(&mapping);
        assert!(plan.matches(&mapping));
        assert!(plan.matches_geometry(&mapping));

        // Different weights: same geometry digest, different full digest.
        let other_weights = conv(MapShape::new(1, 4, 4), 2, 3, 2);
        assert!(!plan.matches(&other_weights));
        assert!(plan.matches_geometry(&other_weights));

        let other_geometry = conv(MapShape::new(1, 4, 5), 2, 3, 1);
        assert!(!plan.matches(&other_geometry));
        assert!(!plan.matches_geometry(&other_geometry));

        let dense_twin = dense(MapShape::new(1, 4, 4), 2, 1);
        assert!(!plan.matches(&dense_twin));
        assert!(!plan.matches_geometry(&dense_twin));
    }

    #[test]
    fn plans_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LayerPlan>();
    }
}

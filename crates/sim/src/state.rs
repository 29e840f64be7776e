//! Persistent neuron state of a mapped layer across engine invocations.
//!
//! The physical SNE keeps its membrane potentials in the cluster state
//! memories between input chunks: the network is configured once and events
//! then stream through continuously. The cycle simulator re-uses its slices
//! for every layer (and for every mapping pass of a large layer), so a layer
//! that must survive between [`crate::Engine::run_layer_stateful`] calls
//! stores its state here: one [`ClusterState`] snapshot per architectural
//! cluster slot the layer occupies, in `(pass, slice, cluster)` order.
//!
//! A [`LayerState`] is created once per layer per session from the engine
//! configuration and the layer mapping, pre-sized so the streaming hot path
//! performs no allocation beyond the snapshot copies.

use serde::{Deserialize, Serialize};

use crate::cluster::ClusterState;
use crate::config::SneConfig;
use crate::mapping::LayerMapping;

/// Persistent architectural state of one mapped layer on one engine
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerState {
    /// One snapshot per cluster slot, `(pass, slice, cluster)` row-major.
    clusters: Vec<ClusterState>,
    passes: usize,
    slices: usize,
    clusters_per_slice: usize,
    neurons_per_cluster: usize,
}

impl LayerState {
    /// Allocates resting state for `mapping` executed on an engine with
    /// configuration `config` (covering every mapping pass the layer needs).
    #[must_use]
    pub fn new(config: &SneConfig, mapping: &LayerMapping) -> Self {
        let per_pass = config.num_slices * config.neurons_per_slice();
        let passes = if per_pass == 0 {
            0
        } else {
            mapping.total_output_neurons().div_ceil(per_pass)
        };
        let slots = passes * config.num_slices * config.clusters_per_slice;
        Self {
            clusters: vec![ClusterState::resting(config.neurons_per_cluster); slots],
            passes,
            slices: config.num_slices,
            clusters_per_slice: config.clusters_per_slice,
            neurons_per_cluster: config.neurons_per_cluster,
        }
    }

    /// Number of mapping passes the layer needs on this configuration.
    #[must_use]
    pub fn passes(&self) -> usize {
        self.passes
    }

    /// Returns all membranes and TLU bookkeeping to the resting state
    /// (the software equivalent of a `RST_OP`).
    pub fn reset(&mut self) {
        for cluster in &mut self.clusters {
            cluster.reset();
        }
    }

    /// Returns `true` if every cluster slot is at rest (as after
    /// [`LayerState::reset`] or construction).
    #[must_use]
    pub fn is_resting(&self) -> bool {
        self.clusters.iter().all(ClusterState::is_resting)
    }

    /// Returns `true` if this state was sized for `config` and `mapping`.
    #[must_use]
    pub fn matches(&self, config: &SneConfig, mapping: &LayerMapping) -> bool {
        let per_pass = config.num_slices * config.neurons_per_slice();
        per_pass > 0
            && self.slices == config.num_slices
            && self.clusters_per_slice == config.clusters_per_slice
            && self.neurons_per_cluster == config.neurons_per_cluster
            && self.passes == mapping.total_output_neurons().div_ceil(per_pass)
    }

    /// Cluster slots of slice `slice` in pass `pass` (shared view).
    ///
    /// # Panics
    ///
    /// Panics if `pass` or `slice` is out of range.
    #[must_use]
    pub fn slice_state(&self, pass: usize, slice: usize) -> &[ClusterState] {
        let range = self.slot_range(pass, slice);
        &self.clusters[range]
    }

    /// Cluster slots of slice `slice` in pass `pass` (mutable view, used by
    /// the engine to export state after a pass).
    ///
    /// # Panics
    ///
    /// Panics if `pass` or `slice` is out of range.
    #[must_use]
    pub fn slice_state_mut(&mut self, pass: usize, slice: usize) -> &mut [ClusterState] {
        let range = self.slot_range(pass, slice);
        &mut self.clusters[range]
    }

    /// Disjoint mutable views of every slice's cluster slots in pass `pass`,
    /// in slice order — one view per per-slice worker unit.
    ///
    /// # Panics
    ///
    /// Panics if `pass` is out of range.
    pub fn pass_slices_mut(&mut self, pass: usize) -> impl Iterator<Item = &mut [ClusterState]> {
        assert!(pass < self.passes, "pass {pass} out of range");
        let per_slice = self.clusters_per_slice;
        let start = pass * self.slices * per_slice;
        let end = start + self.slices * per_slice;
        self.clusters[start..end].chunks_mut(per_slice)
    }

    fn slot_range(&self, pass: usize, slice: usize) -> std::ops::Range<usize> {
        assert!(pass < self.passes, "pass {pass} out of range");
        assert!(slice < self.slices, "slice {slice} out of range");
        let start = (pass * self.slices + slice) * self.clusters_per_slice;
        start..start + self.clusters_per_slice
    }

    /// Membrane state of the global output neuron `neuron`, if the layer
    /// state covers it (observability helper for tests and debugging).
    #[must_use]
    pub fn membrane(&self, neuron: usize) -> Option<i16> {
        let per_cluster = self.neurons_per_cluster;
        let slot = neuron / per_cluster;
        let local = neuron % per_cluster;
        self.clusters.get(slot).map(|c| c.states[local])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{LifHardwareParams, MapShape};

    fn config() -> SneConfig {
        SneConfig {
            num_slices: 2,
            clusters_per_slice: 4,
            neurons_per_cluster: 8,
            ..SneConfig::default()
        }
    }

    fn mapping(out_channels: u16) -> LayerMapping {
        LayerMapping::conv(
            MapShape::new(1, 4, 4),
            out_channels,
            3,
            vec![1i8; usize::from(out_channels) * 9],
            LifHardwareParams::default(),
        )
        .unwrap()
    }

    #[test]
    fn sizing_covers_every_pass() {
        // Capacity 64 per pass; 2 channels * 16 = 32 neurons -> 1 pass.
        let one_pass = LayerState::new(&config(), &mapping(2));
        assert_eq!(one_pass.passes(), 1);
        // 8 channels * 16 = 128 neurons -> 2 passes of 8 slice slots each.
        let two_pass = LayerState::new(&config(), &mapping(8));
        assert_eq!(two_pass.passes(), 2);
        assert!(two_pass.matches(&config(), &mapping(8)));
        assert!(!two_pass.matches(&config(), &mapping(2)));
        assert!(!two_pass.matches(&SneConfig::default(), &mapping(8)));
    }

    #[test]
    fn reset_restores_the_resting_state() {
        let mut state = LayerState::new(&config(), &mapping(2));
        assert!(state.is_resting());
        state.slice_state_mut(0, 1)[2].states[3] = 17;
        state.slice_state_mut(0, 1)[2].dirty = true;
        assert!(!state.is_resting());
        // Pass 0, slice 1, cluster 2, neuron 3 -> global neuron 51.
        assert_eq!(state.membrane(51), Some(17));
        state.reset();
        assert!(state.is_resting());
        assert_eq!(state.membrane(0), Some(0));
    }

    #[test]
    fn pass_slices_mut_hands_out_disjoint_per_slice_views() {
        let mut state = LayerState::new(&config(), &mapping(8));
        let views: Vec<_> = state.pass_slices_mut(1).collect();
        assert_eq!(views.len(), 2);
        assert!(views.iter().all(|v| v.len() == 4));
        views
            .into_iter()
            .enumerate()
            .for_each(|(s, v)| v[0].pending_leak_steps = s as u32 + 1);
        assert_eq!(state.slice_state(1, 0)[0].pending_leak_steps, 1);
        assert_eq!(state.slice_state(1, 1)[0].pending_leak_steps, 2);
        assert_eq!(state.slice_state(0, 0)[0].pending_leak_steps, 0);
    }

    #[test]
    fn slice_views_address_distinct_slots() {
        let mut state = LayerState::new(&config(), &mapping(8));
        state.slice_state_mut(1, 0)[0].pending_leak_steps = 5;
        assert_eq!(state.slice_state(1, 0)[0].pending_leak_steps, 5);
        assert_eq!(state.slice_state(0, 0)[0].pending_leak_steps, 0);
        assert!(state.membrane(10_000).is_none());
    }
}

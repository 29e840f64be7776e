//! Top-level API of the SNE reproduction.
//!
//! This crate ties the workspace together: it compiles event-based
//! convolutional networks (trained with `sne-model` or generated with random
//! quantized weights) into [`sne_sim::mapping::LayerMapping`]s for the
//! cycle-approximate simulator in `sne-sim`, runs inferences end to end, and
//! attaches the
//! calibrated energy/performance models of `sne-energy` to the measured
//! cycle counts.
//!
//! The typical flow is:
//!
//! 1. build or train a network topology ([`sne_model::topology::Topology`]),
//! 2. compile it with [`compile::CompiledNetwork`] — the *compile-once*
//!    phase: validated geometry and per-layer hardware mappings,
//! 3. open a [`session::InferenceSession`] — the *run-many* phase: a
//!    long-lived engine plus persistent per-layer neuron state, supporting
//!    both repeated whole-sample inference and chunked streaming
//!    ([`session::InferenceSession::push`]),
//! 4. read the [`run::InferenceResult`]: prediction, cycle statistics,
//!    inference time/rate and energy.
//!
//! [`accelerator::SneAccelerator`] remains the one-shot convenience wrapper
//! (it routes through the same runtime and caches the compiled plans across
//! calls).
//!
//! For the *serving* scenario the run-many layer splits further into three
//! tiers (DESIGN.md §10): an immutable, shareable
//! [`artifact::RuntimeArtifact`] (compiled network + plan set +
//! configuration) that any number of engines execute against; a cheap
//! per-client [`artifact::ClientState`] (per-layer neuron state + streaming
//! cursor) that parks between requests; and the fleet machinery in
//! [`batch`] — an [`batch::EnginePool`] of warm engines checked out per
//! request and a work-queue [`batch::Scheduler`] with per-request
//! queue/service latency accounting. [`batch::BatchRunner`] is the
//! closed-batch convenience on top (its legacy statically pinned walk
//! survives as [`batch::BatchRunner::run_round_robin`], the oracle the
//! dynamic scheduler is proven bit-identical against), and the `sne_serve`
//! crate is the HTTP front-end over the same tiers.
//!
//! Host parallelism lives at one level only: the scheduler's worker threads,
//! one per warm engine ([`batch::BatchRunner::with_workers`]). Engines and
//! sessions run on the calling thread.
//!
//! # Example
//!
//! ```
//! use rand::SeedableRng;
//! use sne::accelerator::SneAccelerator;
//! use sne::compile::CompiledNetwork;
//! use sne_model::topology::Topology;
//! use sne_model::Shape;
//! use sne_sim::SneConfig;
//! use sne_event::{Event, EventStream};
//!
//! # fn main() -> Result<(), sne::SneError> {
//! let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 3);
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let compiled = CompiledNetwork::random(&topology, &mut rng)?;
//!
//! let mut accelerator = SneAccelerator::new(SneConfig::with_slices(2));
//! let mut stream = EventStream::new(8, 8, 2, 16);
//! for t in 0..16 {
//!     stream.push(Event::update(t, 0, 3, 4)).map_err(sne::SneError::from)?;
//! }
//! let result = accelerator.run(&compiled, &stream)?;
//! assert!(result.predicted_class < 3);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accelerator;
pub mod artifact;
pub mod batch;
pub mod compile;
pub mod proportionality;
pub mod report;
pub mod run;
pub mod session;
pub mod snapshot;

mod error;

pub use accelerator::SneAccelerator;
pub use artifact::{ClientState, RuntimeArtifact};
pub use batch::{
    BatchReport, BatchRunner, EnginePool, LatencySummary, PooledEngine, RequestRecord, Scheduler,
};
pub use compile::{CompiledNetwork, Stage};
pub use error::SneError;
pub use run::{InferenceResult, LayerExecution};
pub use session::{ChunkOutput, InferenceSession, PipelinedSession};

// Re-export the crates a downstream user needs to drive the API.
pub use sne_energy;
pub use sne_event;
pub use sne_model;
pub use sne_sim;
pub use sne_store;

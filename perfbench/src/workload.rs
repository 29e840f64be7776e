//! The three traffic mixes: their models, server settings, seeded inputs,
//! request scripts and the in-process oracle every served response is
//! checked against.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sne::artifact::RuntimeArtifact;
use sne::compile::CompiledNetwork;
use sne::run::InferenceResult;
use sne::session::InferenceSession;
use sne_event::datasets::{EventDataset, GestureDataset};
use sne_event::EventStream;
use sne_serve::client;
use sne_sim::{ExecStrategy, SneConfig};
use sne_store::FsyncPolicy;

/// Name every workload registers its model under.
pub const MODEL: &str = "bench";

/// One traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shot inference on the small 16x16 eCNN: the request path
    /// (reactor, HTTP, JSON, render, write) does most of the work.
    InferTiny,
    /// One-shot inference on the paper's Fig. 6 topology at 32x32 over the
    /// DVS-Gesture surrogate: the datapath does almost all of the work.
    InferFig6Gesture,
    /// Streaming pushes and closes against a durable session store with
    /// more live sessions than warm capacity.
    StreamDurable,
}

/// Server settings fixed per workload (recorded in `BENCHMARK.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settings {
    /// Engines in the model's pool (one scheduler worker each).
    pub lanes: usize,
    /// Reactor shards.
    pub shards: usize,
    /// Slices of the modelled accelerator.
    pub slices: usize,
    /// Warm session capacity with a durable store, `None` without one.
    pub warm_capacity: Option<usize>,
    /// Offered rate of the open-loop phase, requests per second.
    pub open_rps: f64,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::InferTiny,
        Workload::InferFig6Gesture,
        Workload::StreamDurable,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::InferTiny => "infer-tiny",
            Workload::InferFig6Gesture => "infer-fig6-gesture",
            Workload::StreamDurable => "stream-durable",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Server settings. The open-loop rates are absolute, at about half the
    /// closed-loop capacity measured on a 2-core host.
    #[must_use]
    pub fn settings(self) -> Settings {
        match self {
            Workload::InferTiny => Settings {
                lanes: 2,
                shards: 1,
                slices: 4,
                warm_capacity: None,
                open_rps: 1700.0,
            },
            Workload::InferFig6Gesture => Settings {
                lanes: 2,
                shards: 1,
                slices: 8,
                warm_capacity: None,
                open_rps: 20.0,
            },
            Workload::StreamDurable => Settings {
                lanes: 2,
                shards: 1,
                slices: 4,
                warm_capacity: Some(WARM_CAPACITY),
                open_rps: 500.0,
            },
        }
    }

    /// Whether requests are streaming pushes rather than one-shot
    /// inferences.
    #[must_use]
    pub fn is_stream(self) -> bool {
        self == Workload::StreamDurable
    }

    /// The served network. Weights are fixed; only inputs follow `--seed`.
    #[must_use]
    pub fn network(self) -> CompiledNetwork {
        match self {
            Workload::InferTiny | Workload::StreamDurable => {
                sne_bench::benchmark_network(16, 8, 5, 5)
            }
            Workload::InferFig6Gesture => sne_bench::fig6_network(32, GESTURE_CLASSES, 5),
        }
    }

    /// Requests per open-loop window of `p90_us`. One-shot workloads cut
    /// whole passes over their request set, so that every request weighs
    /// the same in every window, and at least [`TAIL_WINDOW_MIN`]. Streams
    /// have no fixed set and cut [`STREAM_TAIL_WINDOW`].
    #[must_use]
    pub fn tail_window(self) -> usize {
        match self {
            Workload::InferTiny => TINY_REQUESTS * TAIL_WINDOW_MIN.div_ceil(TINY_REQUESTS),
            Workload::InferFig6Gesture => {
                GESTURE_REQUESTS * TAIL_WINDOW_MIN.div_ceil(GESTURE_REQUESTS)
            }
            Workload::StreamDurable => STREAM_TAIL_WINDOW,
        }
    }

    /// The accelerator configuration the model is compiled for.
    #[must_use]
    pub fn config(self) -> SneConfig {
        SneConfig::with_slices(self.settings().slices)
    }
}

/// Warm capacity of the durable workload's session table.
pub const WARM_CAPACITY: usize = 8;
/// Fsync policy of the durable workload's store. Every push still parks
/// a snapshot: encode, file write, rename and journal append. Only the
/// device flush is left out. On a shared virtual disk its latency swings
/// by 10 to 100 times from one minute to the next, which measures the
/// disk and not the program.
pub const FSYNC: FsyncPolicy = FsyncPolicy::Never;
/// Live sessions of the durable workload: three times the warm capacity.
pub const LIVE_SESSIONS: usize = 3 * WARM_CAPACITY;
/// Chunks each streamed session pushes before it closes.
pub const CHUNKS_PER_SESSION: usize = 6;
/// Timesteps per pushed chunk.
pub const CHUNK_TIMESTEPS: u32 = 4;
/// Distinct session feeds (sessions reuse them round-robin).
pub const FEEDS: usize = 16;
/// Zipf exponent of session popularity.
pub const ZIPF_EXPONENT: f64 = 1.0;
/// Classes of the gesture surrogate.
pub const GESTURE_CLASSES: u16 = 11;
/// Distinct one-shot requests of `infer-tiny`.
pub const TINY_REQUESTS: usize = 64;
/// Distinct one-shot requests of `infer-fig6-gesture`: two per class. A
/// pass over them is short, so each block's open loop (26 requests) holds
/// about one, and the kept blocks hold every request about as often.
pub const GESTURE_REQUESTS: usize = 2 * GESTURE_CLASSES as usize;

/// Fewest requests in a `p90_us` window: its p90 then has 10 samples
/// beyond it.
pub const TAIL_WINDOW_MIN: usize = 100;
/// Requests per `p90_us` window of the streaming workload.
pub const STREAM_TAIL_WINDOW: usize = 300;

/// SplitMix64 finaliser: derives independent sub-seeds from `--seed`.
#[must_use]
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded inputs of one run.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// One-shot workloads: the distinct request streams; the durable
    /// workload: the session feeds, whole (chunked at send time).
    pub streams: Vec<EventStream>,
    /// One-shot workloads: one body per stream. The durable workload: one
    /// body per chunk, `chunk_bodies[feed][chunk]`.
    pub bodies: Vec<String>,
    /// Push bodies of the durable workload.
    pub chunk_bodies: Vec<Vec<String>>,
}

impl Inputs {
    /// Builds the inputs of `workload` from `seed`.
    #[must_use]
    pub fn generate(workload: Workload, seed: u64) -> Self {
        match workload {
            Workload::InferTiny => {
                let streams: Vec<EventStream> = (0..TINY_REQUESTS as u64)
                    .map(|i| {
                        sne::proportionality::stream_with_activity(
                            (2, 16, 16),
                            12,
                            0.03,
                            mix(seed, i),
                        )
                    })
                    .collect();
                Self::one_shot(streams)
            }
            Workload::InferFig6Gesture => {
                // Consecutive indices cycle through the classes, so every
                // run holds the same number of samples of each gesture.
                let dataset = GestureDataset::new(32, 32, mix(seed, 0x6e57));
                let streams = (0..GESTURE_REQUESTS as u64)
                    .map(|i| dataset.sample(i).stream)
                    .collect();
                Self::one_shot(streams)
            }
            Workload::StreamDurable => {
                let streams: Vec<EventStream> = (0..FEEDS as u64)
                    .map(|i| {
                        sne::proportionality::stream_with_activity(
                            (2, 16, 16),
                            CHUNK_TIMESTEPS * CHUNKS_PER_SESSION as u32,
                            0.03,
                            mix(seed, 0x5000 + i),
                        )
                    })
                    .collect();
                let chunk_bodies = streams
                    .iter()
                    .map(|s| {
                        s.chunks(CHUNK_TIMESTEPS)
                            .map(|c| client::infer_body(MODEL, &c))
                            .collect()
                    })
                    .collect();
                Self {
                    streams,
                    bodies: Vec::new(),
                    chunk_bodies,
                }
            }
        }
    }

    fn one_shot(streams: Vec<EventStream>) -> Self {
        let bodies = streams
            .iter()
            .map(|s| client::infer_body(MODEL, s))
            .collect();
        Self {
            streams,
            bodies,
            chunk_bodies: Vec::new(),
        }
    }

    /// Chunks of feed `feed`, in push order.
    #[must_use]
    pub fn chunks(&self, feed: usize) -> Vec<EventStream> {
        self.streams[feed].chunks(CHUNK_TIMESTEPS).collect()
    }
}

/// One request of a script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// `POST /v1/infer` with request `index` of the set.
    Infer {
        /// Index into [`Inputs::bodies`].
        index: usize,
    },
    /// `POST /v1/stream/{session}/push` of chunk `chunk` of `feed`.
    Push {
        /// Session id.
        session: String,
        /// Feed the session streams.
        feed: usize,
        /// Chunk index within the feed.
        chunk: usize,
    },
    /// `POST /v1/stream/{session}/close` after its last chunk.
    Close {
        /// Session id.
        session: String,
        /// Feed the session streamed.
        feed: usize,
    },
}

impl Op {
    /// Request path.
    #[must_use]
    pub fn path(&self) -> String {
        match self {
            Op::Infer { .. } => "/v1/infer".to_owned(),
            Op::Push { session, .. } => format!("/v1/stream/{session}/push"),
            Op::Close { session, .. } => format!("/v1/stream/{session}/close"),
        }
    }

    /// The streamed session the request belongs to.
    #[must_use]
    pub fn session(&self) -> Option<&str> {
        match self {
            Op::Infer { .. } => None,
            Op::Push { session, .. } | Op::Close { session, .. } => Some(session),
        }
    }

    /// Request body.
    #[must_use]
    pub fn body<'a>(&self, inputs: &'a Inputs) -> &'a str {
        match self {
            Op::Infer { index } => &inputs.bodies[*index],
            Op::Push { feed, chunk, .. } => &inputs.chunk_bodies[*feed][*chunk],
            Op::Close { .. } => "",
        }
    }
}

/// A deterministic request sequence: one per closed-loop client, or one
/// for the whole open loop (`client` 0 of 1). One-shot scripts walk the
/// request set with a stride of the client count. Streaming scripts own a
/// disjoint set of session slots (so two closed-loop clients never race
/// one session), pick the next slot by Zipf popularity, and replace a
/// session by a fresh one once it has pushed all its chunks and closed.
#[derive(Debug)]
pub struct Script {
    workload: Workload,
    requests: usize,
    client: usize,
    clients: usize,
    phase: String,
    step: usize,
    rng: StdRng,
    /// Per owned slot: (generation, feed, next chunk).
    slots: Vec<(usize, usize, usize)>,
    zipf_cdf: Vec<f64>,
    sessions_started: usize,
}

impl Script {
    /// The script of client `client` of `clients` in `phase`.
    #[must_use]
    pub fn new(
        workload: Workload,
        inputs: &Inputs,
        seed: u64,
        phase: &str,
        client: usize,
        clients: usize,
    ) -> Self {
        let owned = if workload.is_stream() {
            (client..LIVE_SESSIONS).step_by(clients).count()
        } else {
            0
        };
        let weights: Vec<f64> = (0..owned)
            .map(|r| 1.0 / ((r + 1) as f64).powf(ZIPF_EXPONENT))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        let phase_salt = phase.bytes().fold(0u64, |h, b| h * 131 + u64::from(b));
        let mut script = Self {
            workload,
            requests: inputs.bodies.len(),
            client,
            clients,
            phase: phase.to_owned(),
            step: 0,
            rng: StdRng::seed_from_u64(mix(seed, phase_salt ^ (client as u64) << 40)),
            slots: Vec::with_capacity(owned),
            zipf_cdf,
            sessions_started: 0,
        };
        for _ in 0..owned {
            let feed = script.next_feed();
            script.slots.push((0, feed, 0));
        }
        script
    }

    fn next_feed(&mut self) -> usize {
        let feed = (self.client + self.sessions_started * self.clients) % FEEDS;
        self.sessions_started += 1;
        feed
    }
}

impl Iterator for Script {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let step = self.step;
        self.step += 1;
        if !self.workload.is_stream() {
            return Some(Op::Infer {
                index: (self.client + step * self.clients) % self.requests,
            });
        }
        let u: f64 = self.rng.gen();
        let slot = self
            .zipf_cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.slots.len() - 1);
        let (generation, feed, chunk) = self.slots[slot];
        let session = format!("{}-c{}-s{slot}-g{generation}", self.phase, self.client);
        if chunk < CHUNKS_PER_SESSION {
            self.slots[slot].2 += 1;
            Some(Op::Push {
                session,
                feed,
                chunk,
            })
        } else {
            let next_feed = self.next_feed();
            self.slots[slot] = (generation + 1, next_feed, 0);
            Some(Op::Close { session, feed })
        }
    }
}

/// The fixed sequence the correctness gate, the lone client and the
/// replay send: every one-shot request once, or every feed as its own
/// session, pushed round-robin (more sessions than warm capacity, so
/// sessions are demoted and faulted back in) and then closed.
#[must_use]
pub fn sequence(workload: Workload, inputs: &Inputs, prefix: &str) -> Vec<Op> {
    if !workload.is_stream() {
        return (0..inputs.bodies.len())
            .map(|index| Op::Infer { index })
            .collect();
    }
    let session = |feed: usize| format!("{prefix}-f{feed}");
    let feeds = inputs.chunk_bodies.len();
    let mut ops: Vec<Op> = (0..CHUNKS_PER_SESSION)
        .flat_map(|chunk| {
            (0..feeds).map(move |feed| Op::Push {
                session: session(feed),
                feed,
                chunk,
            })
        })
        .collect();
    ops.extend((0..feeds).map(|feed| Op::Close {
        session: session(feed),
        feed,
    }));
    ops
}

/// Due time of open-loop slot `k`, in seconds from the phase start.
#[must_use]
pub fn due_s(k: usize, rate: f64) -> f64 {
    k as f64 / rate
}

/// What a served response must contain.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Predicted class (one-shot and close).
    pub predicted_class: Option<u64>,
    /// Modelled cycles.
    pub total_cycles: u64,
    /// Synaptic operations (one-shot and close).
    pub synaptic_ops: Option<u64>,
    /// Modelled energy, µJ, compared bit for bit (one-shot and close).
    pub energy_uj: Option<f64>,
    /// Output spike events of a push.
    pub events: Option<usize>,
}

impl Expected {
    fn from_result(result: &InferenceResult) -> Self {
        Self {
            predicted_class: Some(result.predicted_class as u64),
            total_cycles: result.stats.total_cycles,
            synaptic_ops: Some(result.stats.synaptic_ops),
            energy_uj: Some(result.energy.energy_uj),
            events: None,
        }
    }

    /// Checks a parsed response body against the expectation; `Err` names
    /// the first field that differs.
    pub fn check(&self, doc: &sne_serve::Json) -> Result<(), String> {
        use sne_serve::Json;
        let u = |key: &str| doc.get(key).and_then(Json::as_u64);
        if u("total_cycles") != Some(self.total_cycles) {
            return Err(format!(
                "total_cycles {:?} != {}",
                u("total_cycles"),
                self.total_cycles
            ));
        }
        if self.predicted_class.is_some() && u("predicted_class") != self.predicted_class {
            return Err("predicted_class differs".to_owned());
        }
        if self.synaptic_ops.is_some() && u("synaptic_ops") != self.synaptic_ops {
            return Err("synaptic_ops differs".to_owned());
        }
        if let Some(energy) = self.energy_uj {
            let served = doc.get("energy_uj").and_then(Json::as_f64);
            if served.map(f64::to_bits) != Some(energy.to_bits()) {
                return Err(format!("energy_uj {served:?} != {energy} bit for bit"));
            }
        }
        if let Some(events) = self.events {
            let served = doc
                .get("events")
                .and_then(Json::as_array)
                .map(<[Json]>::len);
            if served != Some(events) {
                return Err(format!("events {served:?} != {events}"));
            }
        }
        Ok(())
    }
}

/// Expected responses, computed in-process before any timing.
#[derive(Debug, Clone)]
pub struct Oracle {
    /// One-shot: the direct session's result per request.
    pub infer: Vec<InferenceResult>,
    /// Durable: per feed, the uninterrupted session's chunk expectations.
    pub pushes: Vec<Vec<Expected>>,
    /// Durable: per feed, the uninterrupted session's close summary.
    pub closes: Vec<InferenceResult>,
}

impl Oracle {
    /// Runs every input through a direct, uninterrupted session.
    ///
    /// # Panics
    ///
    /// Panics if the model rejects a generated input (a benchmark bug).
    #[must_use]
    pub fn compute(workload: Workload, network: &Arc<CompiledNetwork>, inputs: &Inputs) -> Self {
        let config = workload.config();
        if !workload.is_stream() {
            let mut session =
                InferenceSession::new(Arc::clone(network), config).expect("direct session builds");
            let infer = inputs
                .streams
                .iter()
                .map(|s| session.infer(s).expect("direct inference runs"))
                .collect();
            return Self {
                infer,
                pushes: Vec::new(),
                closes: Vec::new(),
            };
        }
        let artifact = RuntimeArtifact::new(Arc::clone(network), config).expect("artifact builds");
        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        let mut pushes = Vec::with_capacity(FEEDS);
        let mut closes = Vec::with_capacity(FEEDS);
        for feed in 0..inputs.streams.len() {
            let mut client = artifact.new_client();
            let expected = inputs
                .chunks(feed)
                .iter()
                .map(|chunk| {
                    let out = artifact
                        .push(&mut engine, &mut client, chunk, true)
                        .expect("direct push runs");
                    Expected {
                        predicted_class: None,
                        total_cycles: out.stats.total_cycles,
                        synaptic_ops: None,
                        energy_uj: None,
                        events: Some(out.output.iter().filter(|e| e.is_spike()).count()),
                    }
                })
                .collect();
            pushes.push(expected);
            closes.push(artifact.summary(&client));
        }
        Self {
            infer: Vec::new(),
            pushes,
            closes,
        }
    }

    /// What the response to `op` must contain.
    #[must_use]
    pub fn expected(&self, op: &Op) -> Expected {
        match op {
            Op::Infer { index } => Expected::from_result(&self.infer[*index]),
            Op::Push { feed, chunk, .. } => self.pushes[*feed][*chunk].clone(),
            Op::Close { feed, .. } => Expected::from_result(&self.closes[*feed]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn script_ops(w: Workload, inputs: &Inputs, seed: u64, n: usize) -> Vec<Op> {
        (0..2)
            .flat_map(|c| Script::new(w, inputs, seed, "closed", c, 2).take(n))
            .collect()
    }

    #[test]
    fn the_same_seed_gives_identical_bodies_and_schedules() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 7);
            assert_eq!(a.bodies, b.bodies, "{}", w.name());
            assert_eq!(a.chunk_bodies, b.chunk_bodies, "{}", w.name());
            assert_eq!(
                script_ops(w, &a, 7, 400),
                script_ops(w, &b, 7, 400),
                "{}",
                w.name()
            );
        }
        let due: Vec<u64> = (0..100).map(|k| due_s(k, 40.0).to_bits()).collect();
        let again: Vec<u64> = (0..100).map(|k| due_s(k, 40.0).to_bits()).collect();
        assert_eq!(due, again);
    }

    #[test]
    fn a_different_seed_gives_different_bodies_and_schedules() {
        for w in Workload::ALL {
            let a = Inputs::generate(w, 7);
            let b = Inputs::generate(w, 8);
            assert_ne!(
                (&a.bodies, &a.chunk_bodies),
                (&b.bodies, &b.chunk_bodies),
                "{}",
                w.name()
            );
        }
        let w = Workload::StreamDurable;
        let inputs = Inputs::generate(w, 7);
        assert_ne!(
            script_ops(w, &inputs, 7, 400),
            script_ops(w, &inputs, 8, 400),
            "session popularity follows the seed"
        );
    }

    #[test]
    fn streaming_scripts_push_every_chunk_then_close_on_owned_slots() {
        let w = Workload::StreamDurable;
        let inputs = Inputs::generate(w, 3);
        let mut pushed: std::collections::HashMap<String, usize> = Default::default();
        let mut closed = 0;
        for c in 0..2 {
            for op in Script::new(w, &inputs, 3, "open", c, 2).take(3000) {
                match op {
                    Op::Push { session, chunk, .. } => {
                        assert!(session.starts_with(&format!("open-c{c}-")));
                        let next = pushed.entry(session).or_default();
                        assert_eq!(*next, chunk, "chunks go out in order");
                        *next += 1;
                    }
                    Op::Close { session, .. } => {
                        assert_eq!(pushed[&session], CHUNKS_PER_SESSION);
                        closed += 1;
                    }
                    Op::Infer { .. } => unreachable!(),
                }
            }
        }
        assert!(closed > 50, "sessions turn over: {closed}");
        // Popularity is skewed: the hottest slot outnumbers the coldest.
        let hot = pushed.keys().filter(|s| s.contains("-s0-")).count();
        let cold = pushed.keys().filter(|s| s.contains("-s11-")).count();
        assert!(hot > 3 * cold.max(1), "hot {hot} cold {cold}");
    }

    #[test]
    fn one_shot_tail_windows_are_whole_passes() {
        assert_eq!(Workload::InferTiny.tail_window(), 128);
        assert_eq!(Workload::InferFig6Gesture.tail_window(), 110);
        for w in Workload::ALL {
            assert!(w.tail_window() >= TAIL_WINDOW_MIN, "{}", w.name());
        }
    }

    #[test]
    fn gesture_requests_are_class_balanced() {
        let inputs = Inputs::generate(Workload::InferFig6Gesture, 1);
        assert_eq!(inputs.bodies.len(), GESTURE_REQUESTS);
        assert_eq!(GESTURE_REQUESTS % usize::from(GESTURE_CLASSES), 0);
    }
}

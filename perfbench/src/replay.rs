//! The traced replay: the run's request sequence, in-process, through each
//! layer's public functions, with a span around every call.
//!
//! Layers, in request order: `http.parse` (`RequestParser::feed` and
//! `try_take`), `json.decode` (`Json::parse`), `event.build` (building and
//! validating the `EventStream` from the decoded body, as the server does,
//! and dropping the body),
//! `store.load` and `snapshot.decode` (fault-in of a cold session),
//! `batch` (`Scheduler::call` / `call_push`) with its `engine` child (the
//! service interval the scheduler's record reports), `snapshot.encode` and
//! `store.park` (the write-ahead park of a push), `store.remove` and
//! `engine.summary` (close), `json.encode` (the response document) and
//! `http.render` (`append_response`). The root span of each request is
//! named `request`.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use sne::artifact::{ClientState, RuntimeArtifact};
use sne::batch::{EnginePool, Scheduler};
use sne::compile::CompiledNetwork;
use sne::run::InferenceResult;
use sne_event::{Event, EventStream};
use sne_serve::http::{append_response, RequestParser};
use sne_serve::Json;
use sne_sim::ExecStrategy;
use sne_store::SessionStore;

use crate::trace::Tracer;
use crate::workload::{Inputs, Op, Workload, FSYNC, MODEL, WARM_CAPACITY};

/// What one pass of the replay produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each request, ns (root span, or timed directly when
    /// spans are off).
    pub request_ns: Vec<u64>,
    /// The rendered response document of each request, in order.
    pub responses: Vec<Json>,
    /// Scheduler queue wait of each engine call, µs.
    pub queue_us: Vec<f64>,
    /// Engine service time of each engine call, µs.
    pub service_us: Vec<f64>,
    /// Input events decoded from the request bodies.
    pub body_events: u64,
    /// Bytes of each snapshot encoded.
    pub snapshot_bytes: Vec<usize>,
    /// Results the per-layer counts come from: one per one-shot request,
    /// one per closed session.
    pub results: Vec<InferenceResult>,
}

/// The in-process stack a replay drives: an engine pool and scheduler
/// built like the server's, and for streams a session table and store.
pub struct Stack {
    artifact: Arc<RuntimeArtifact>,
    scheduler: Scheduler,
    store: Option<SessionStore>,
    warm: HashMap<String, (ClientState, u64)>,
    cold: HashSet<String>,
    clock: u64,
}

impl Stack {
    /// Builds the stack for `workload`; a durable workload parks into a
    /// fresh store under `store_dir` with the server's fsync policy.
    ///
    /// # Panics
    ///
    /// Panics when the pool or store cannot be built.
    #[must_use]
    pub fn new(workload: Workload, network: &Arc<CompiledNetwork>, store_dir: &Path) -> Self {
        let settings = workload.settings();
        let pool = Arc::new(
            EnginePool::for_network(
                Arc::clone(network),
                workload.config(),
                settings.lanes,
                ExecStrategy::Sequential,
            )
            .expect("engine pool builds"),
        );
        let artifact = Arc::clone(pool.artifact());
        let scheduler = Scheduler::new(Arc::clone(&pool), pool.lanes());
        let store = workload.is_stream().then(|| {
            let _ = std::fs::remove_dir_all(store_dir);
            SessionStore::open(store_dir, FSYNC).expect("replay store opens")
        });
        Self {
            artifact,
            scheduler,
            store,
            warm: HashMap::new(),
            cold: HashSet::new(),
            clock: 0,
        }
    }

    /// Replays `ops` once. Session ids are prefixed with `prefix` so
    /// passes never share a session.
    ///
    /// # Panics
    ///
    /// Panics when a layer rejects a request the server accepted (the
    /// correctness gate ran first, so this is a benchmark bug).
    pub fn pass(&mut self, ops: &[Op], inputs: &Inputs, prefix: &str, tracer: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        for op in ops {
            // The bytes a client sends, built before the clock starts.
            let body = op.body(inputs);
            let raw = format!(
                "POST {} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                op.path(),
                body.len()
            );
            let start = Instant::now();
            let response = tracer.span("request", |t| {
                self.request(op, raw.as_bytes(), prefix, t, &mut pass)
            });
            pass.request_ns.push(start.elapsed().as_nanos() as u64);
            pass.responses.push(response);
        }
        pass
    }

    fn request(
        &mut self,
        op: &Op,
        raw: &[u8],
        prefix: &str,
        t: &mut Tracer,
        pass: &mut Pass,
    ) -> Json {
        let request = t.span("http.parse", |_| {
            let mut parser = RequestParser::new();
            parser.feed(raw);
            parser
                .try_take()
                .expect("replayed request parses")
                .expect("replayed request is complete")
        });
        let (body, doc) = match op {
            Op::Infer { .. } => {
                let doc = t.span("json.decode", |_| {
                    Json::parse(&request.body).expect("body decodes")
                });
                let stream = t.span("event.build", |_| self.build_stream(doc));
                pass.body_events += stream.len() as u64;
                let record = t.span("batch", |t| {
                    let record = self.scheduler.call(stream);
                    engine_span(t, record.service_us);
                    record
                });
                pass.queue_us.push(record.queue_us);
                pass.service_us.push(record.service_us);
                let result = record.result.expect("replayed inference runs");
                let doc = t.span("json.encode", |_| {
                    let mut members = result_members(&result);
                    members.push(("lane", Json::from(record.lane)));
                    members.push(("queue_us", Json::from(record.queue_us)));
                    members.push(("service_us", Json::from(record.service_us)));
                    members.push(("request_id", Json::from("replay")));
                    let doc = Json::obj(members);
                    (doc.to_string(), doc)
                });
                pass.results.push(result);
                doc
            }
            Op::Push { session, chunk, .. } => {
                let id = format!("{prefix}{session}");
                let doc = t.span("json.decode", |_| {
                    Json::parse(&request.body).expect("body decodes")
                });
                let stream = t.span("event.build", |_| self.build_stream(doc));
                pass.body_events += stream.len() as u64;
                let client = if *chunk == 0 {
                    self.make_room();
                    self.artifact.new_client()
                } else {
                    self.take(&id, true, t)
                };
                let record = t.span("batch", |t| {
                    let record = self.scheduler.call_push(client, stream, None);
                    engine_span(t, record.service_us);
                    record
                });
                pass.queue_us.push(record.queue_us);
                pass.service_us.push(record.service_us);
                let output = record.result.expect("replayed push runs");
                let bytes = t.span("snapshot.encode", |_| {
                    self.artifact.snapshot_client(&record.client)
                });
                pass.snapshot_bytes.push(bytes.len());
                let store = self.store.as_mut().expect("streams have a store");
                t.span("store.park", |_| store.park(&id, &bytes))
                    .expect("replay park succeeds");
                let chunks_pushed = record.client.chunks_pushed();
                self.clock += 1;
                self.warm.insert(id.clone(), (record.client, self.clock));
                let doc = t.span("json.encode", |_| {
                    let doc = Json::obj(vec![
                        ("session", Json::from(id.as_str())),
                        ("model", Json::from(MODEL)),
                        (
                            "start_timestep",
                            Json::from(u64::from(output.start_timestep)),
                        ),
                        ("timesteps", Json::from(u64::from(output.timesteps))),
                        ("chunks_pushed", Json::from(chunks_pushed)),
                        ("total_cycles", Json::from(output.stats.total_cycles)),
                        ("events", events_json(&output.output)),
                        ("lane", Json::from(record.lane)),
                        ("queue_us", Json::from(record.queue_us)),
                        ("service_us", Json::from(record.service_us)),
                        ("request_id", Json::from("replay")),
                    ]);
                    (doc.to_string(), doc)
                });
                doc
            }
            Op::Close { session, .. } => {
                let id = format!("{prefix}{session}");
                let client = self.take(&id, false, t);
                let store = self.store.as_mut().expect("streams have a store");
                t.span("store.remove", |_| store.remove(&id))
                    .expect("replay remove succeeds");
                let summary = t.span("engine.summary", |_| self.artifact.summary(&client));
                let doc = t.span("json.encode", |_| {
                    let mut members = result_members(&summary);
                    members.insert(0, ("session", Json::from(id.as_str())));
                    members.push(("closed", Json::from(true)));
                    members.push(("chunks_pushed", Json::from(client.chunks_pushed())));
                    members.push((
                        "elapsed_timesteps",
                        Json::from(u64::from(client.elapsed_timesteps())),
                    ));
                    let doc = Json::obj(members);
                    (doc.to_string(), doc)
                });
                pass.results.push(summary);
                doc
            }
        };
        t.span("http.render", |_| {
            let mut out = Vec::with_capacity(256 + body.len());
            append_response(&mut out, 200, &body, true, Some("replay"), &[]);
            out
        });
        doc
    }

    /// Builds and validates the request's event stream against the model's
    /// input geometry, as the server does from a decoded body, and releases
    /// the body.
    fn build_stream(&self, doc: Json) -> EventStream {
        let timesteps = doc
            .get("timesteps")
            .and_then(Json::as_u64)
            .expect("timesteps");
        let (channels, height, width) = self.artifact.network().input_shape();
        let mut stream = EventStream::new(width, height, channels, timesteps as u32);
        for event in doc.get("events").and_then(Json::as_array).expect("events") {
            let f = event.as_array().expect("event quadruple");
            let int = |i: usize| f[i].as_u64().expect("integer field");
            stream
                .push(Event::update(
                    int(0) as u32,
                    int(1) as u16,
                    int(2) as u16,
                    int(3) as u16,
                ))
                .expect("event is valid");
        }
        stream
    }

    /// Takes a session's state out of the table: from the warm tier, or
    /// loaded from the store (making room in the warm tier when it is
    /// promoted back, as a push's fault-in is).
    fn take(&mut self, id: &str, promote: bool, t: &mut Tracer) -> ClientState {
        if let Some((client, _)) = self.warm.remove(id) {
            return client;
        }
        assert!(self.cold.remove(id), "session {id} is live");
        let store = self.store.as_ref().expect("streams have a store");
        let bytes = t
            .span("store.load", |_| store.load(id))
            .expect("replay load succeeds")
            .expect("parked snapshot exists");
        let client = t
            .span("snapshot.decode", |_| self.artifact.restore_client(&bytes))
            .expect("parked snapshot restores");
        if promote {
            self.make_room();
        }
        client
    }

    /// Demotes the least recently used warm session when the warm tier is
    /// full (its snapshot is already current in the store).
    fn make_room(&mut self) {
        if self.warm.len() + 1 > WARM_CAPACITY {
            if let Some(lru) = self
                .warm
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(id, _)| id.clone())
            {
                self.warm.remove(&lru);
                self.cold.insert(lru);
            }
        }
    }
}

/// Records the engine's service interval as a child ending now.
fn engine_span(t: &mut Tracer, service_us: f64) {
    let end = t.now_ns();
    t.record("engine", end.saturating_sub((service_us * 1e3) as u64), end);
}

/// The result members of a one-shot or close response.
fn result_members(result: &InferenceResult) -> Vec<(&'static str, Json)> {
    vec![
        ("model", Json::from(MODEL)),
        ("predicted_class", Json::from(result.predicted_class)),
        (
            "output_spike_counts",
            Json::Arr(
                result
                    .output_spike_counts
                    .iter()
                    .map(|&c| Json::from(u64::from(c)))
                    .collect(),
            ),
        ),
        ("total_cycles", Json::from(result.stats.total_cycles)),
        ("synaptic_ops", Json::from(result.stats.synaptic_ops)),
        ("energy_uj", Json::from(result.energy.energy_uj)),
        ("inference_time_ms", Json::from(result.inference_time_ms)),
        ("inference_rate", Json::from(result.inference_rate)),
        ("mean_activity", Json::from(result.mean_activity)),
    ]
}

/// Spike events of a stream as `[[t, ch, x, y], ...]`.
fn events_json(stream: &EventStream) -> Json {
    Json::Arr(
        stream
            .iter()
            .filter(|e| e.is_spike())
            .map(|e| {
                Json::Arr(vec![
                    Json::from(u64::from(e.t)),
                    Json::from(u64::from(e.ch)),
                    Json::from(u64::from(e.x)),
                    Json::from(u64::from(e.y)),
                ])
            })
            .collect(),
    )
}

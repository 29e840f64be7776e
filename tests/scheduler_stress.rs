//! Seeded randomized stress of the work-stealing scheduler: concurrent
//! interactive callers, fuzzed submit/call/drain interleavings,
//! and shutdown landing mid-steal. The invariants are always the same —
//! no completion is ever lost or duplicated, ids recover submission order,
//! and every result is bit-exact against a sequential replay on a
//! dedicated session (placement, stealing and priority are invisible in
//! the output).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sne::batch::{BatchRunner, EnginePool, Scheduler};
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne::RuntimeArtifact;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::{ExecStrategy, SneConfig};
use std::sync::Arc;

/// Scheduler worker counts the runner fuzz draws from.
const WORKERS: [usize; 4] = [1, 2, 3, 8];

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = StdRng::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn workload(count: usize, seed: u64) -> Vec<EventStream> {
    (0..count)
        .map(|i| sne::proportionality::stream_with_activity((2, 8, 8), 8, 0.04, seed + i as u64))
        .collect()
}

/// Many threads hammer one scheduler with a seeded random mix of plain
/// calls, affinity-hinted calls and chunked push chains. Every thread
/// verifies its own round trips bit-exactly against a dedicated session;
/// the recorder must count exactly one completion per request.
#[test]
fn seeded_call_storm_matches_dedicated_sessions() {
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let lanes = rng.gen_range(2..=3);
        let network = Arc::new(compiled(seed));
        let artifact = Arc::new(
            RuntimeArtifact::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap(),
        );
        let pool = Arc::new(EnginePool::new(Arc::clone(&artifact), lanes).unwrap());
        let scheduler = Arc::new(Scheduler::new(Arc::clone(&pool), lanes));
        let threads = 4usize;
        let per_thread_calls = 3usize;
        let completed: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let scheduler = Arc::clone(&scheduler);
                    let artifact = Arc::clone(&artifact);
                    let network = Arc::clone(&network);
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(seed * 100 + t as u64);
                        let mut session =
                            InferenceSession::new(network, SneConfig::with_slices(2)).unwrap();
                        let mut done = 0usize;
                        // Whole-sample calls, randomly affinity-hinted.
                        let streams = workload(per_thread_calls, seed * 1000 + t as u64);
                        for stream in &streams {
                            let affinity = if rng.gen_bool(0.5) {
                                Some(rng.gen_range(0..lanes))
                            } else {
                                None
                            };
                            let record = scheduler.call_with_affinity(stream.clone(), affinity);
                            assert!(record.lane < lanes);
                            assert_eq!(
                                record.result.as_ref().unwrap(),
                                &session.infer(stream).unwrap()
                            );
                            done += 1;
                        }
                        // One chunked push chain: the ClientState travels
                        // through the fleet and back; any engine may serve
                        // any chunk.
                        let feed = &workload(1, seed * 2000 + t as u64)[0];
                        let mut reference = InferenceSession::new(
                            Arc::clone(artifact.network_arc()),
                            SneConfig::with_slices(2),
                        )
                        .unwrap();
                        let mut client = artifact.new_client();
                        let mut affinity = None;
                        for chunk in feed.chunks(4) {
                            let record = scheduler.call_push(client, chunk.clone(), affinity);
                            client = record.client;
                            affinity = Some(record.lane);
                            assert_eq!(
                                record.result.as_ref().unwrap(),
                                &reference.push(&chunk).unwrap()
                            );
                            done += 1;
                        }
                        assert_eq!(artifact.summary(&client), reference.summary());
                        done
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let stats = scheduler.stats();
        assert_eq!(stats.completed, completed as u64, "seed {seed}");
        assert_eq!(stats.errors, 0);
        drop(scheduler);
        assert_eq!(pool.idle_lanes(), lanes, "engines leaked, seed {seed}");
    }
}

/// Fuzzes the `BatchRunner` owner API: random interleavings of `submit`
/// (single and bursts), interactive `call` and `drain`,
/// model-checked against precomputed per-stream expectations. Bursts
/// followed by an immediate drain make the drain race in-flight steals.
#[test]
fn seeded_runner_op_fuzz_replays_sequentially() {
    let network = Arc::new(compiled(21));
    let streams = workload(6, 555);
    let mut session =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    let expected: Vec<_> = streams.iter().map(|s| session.infer(s).unwrap()).collect();

    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let lanes = rng.gen_range(1..=3);
        let workers = WORKERS[rng.gen_range(0..WORKERS.len())];
        let mut runner = BatchRunner::with_workers(
            Arc::clone(&network),
            SneConfig::with_slices(2),
            lanes,
            workers,
        )
        .unwrap();
        let mut pending: Vec<usize> = Vec::new();
        let mut last_id: Option<u64> = None;
        for _ in 0..20 {
            match rng.gen_range(0..8) {
                // Submit one random stream.
                0..=3 => {
                    let index = rng.gen_range(0..streams.len());
                    let id = runner.submit(streams[index].clone());
                    assert!(last_id.is_none_or(|prev| id > prev), "ids not monotonic");
                    last_id = Some(id);
                    pending.push(index);
                }
                // Burst-submit, so the following ops race live steals.
                4 => {
                    for _ in 0..rng.gen_range(3..7) {
                        let index = rng.gen_range(0..streams.len());
                        let id = runner.submit(streams[index].clone());
                        assert!(last_id.is_none_or(|prev| id > prev));
                        last_id = Some(id);
                        pending.push(index);
                    }
                }
                // Interactive call cuts ahead of the bulk backlog but is
                // still bit-exact.
                5..=6 => {
                    let index = rng.gen_range(0..streams.len());
                    let record = runner.scheduler().call(streams[index].clone());
                    assert_eq!(record.result.as_ref().unwrap(), &expected[index]);
                }
                // Drain: exactly the pending set, in submission order.
                _ => {
                    let records = runner.drain();
                    assert_eq!(records.len(), pending.len(), "seed {seed}");
                    for (record, &index) in records.iter().zip(&pending) {
                        assert_eq!(record.result.as_ref().unwrap(), &expected[index]);
                        assert!(record.lane < lanes);
                    }
                    assert!(records.windows(2).all(|w| w[0].id < w[1].id));
                    pending.clear();
                }
            }
        }
        let records = runner.drain();
        assert_eq!(records.len(), pending.len(), "final drain, seed {seed}");
        for (record, &index) in records.iter().zip(&pending) {
            assert_eq!(record.result.as_ref().unwrap(), &expected[index]);
        }
    }
}

/// Shutdown while the backlog is still being served (and, with the grace
/// waived at close, actively stolen): every already-submitted request must
/// still complete exactly once, bit-exactly, and every engine must come
/// home.
#[test]
fn shutdown_mid_steal_loses_nothing() {
    let network = Arc::new(compiled(33));
    let mut session =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    for seed in 0..5u64 {
        let mut rng = StdRng::seed_from_u64(40 + seed);
        let lanes = rng.gen_range(2..=4);
        let backlog = rng.gen_range(5..16);
        let pool = Arc::new(
            EnginePool::for_network(
                (*network).clone(),
                SneConfig::with_slices(2),
                lanes,
                ExecStrategy::Sequential,
            )
            .unwrap(),
        );
        let mut scheduler = Scheduler::new(Arc::clone(&pool), lanes);
        let streams = workload(backlog, 7000 + seed);
        for stream in &streams {
            let _ = scheduler.submit(stream.clone());
        }
        // Close immediately: workers are mid-serve and mid-steal.
        scheduler.shutdown();
        let stats = scheduler.stats();
        assert_eq!(stats.completed, backlog as u64, "seed {seed}");
        assert_eq!(stats.errors, 0);
        let records = scheduler.drain();
        assert_eq!(records.len(), backlog, "lost/duplicated completions");
        assert!(records.windows(2).all(|w| w[0].id < w[1].id));
        for (record, stream) in records.iter().zip(&streams) {
            assert_eq!(
                record.result.as_ref().unwrap(),
                &session.infer(stream).unwrap()
            );
        }
        // Idempotent close; every engine returned.
        scheduler.shutdown();
        assert_eq!(pool.idle_lanes(), lanes, "engines leaked, seed {seed}");
    }
}

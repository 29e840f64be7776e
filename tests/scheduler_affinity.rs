//! Affinity is a placement hint, never a correctness constraint — and
//! interactive work cuts ahead of bulk floods without starving them.
//!
//! The neuron state of a streaming session lives in its [`ClientState`],
//! not in any engine, so a chunk served on the affine (warm) engine and a
//! chunk served after a steal or a deliberate migration are bit-identical.
//! These tests pin that invariant down, together with the priority-lane
//! latency contract.

use sne::batch::{BatchRunner, EnginePool, LatencySummary, Scheduler};
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne::RuntimeArtifact;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::SneConfig;
use std::sync::Arc;

fn compiled(seed: u64) -> CompiledNetwork {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap()
}

fn stream(timesteps: u32, seed: u64) -> EventStream {
    sne::proportionality::stream_with_activity((2, 8, 8), timesteps, 0.04, seed)
}

fn fixture(lanes: usize, seed: u64) -> (Arc<RuntimeArtifact>, Arc<EnginePool>, Scheduler) {
    let network = Arc::new(compiled(seed));
    let artifact = Arc::new(RuntimeArtifact::new(network, SneConfig::with_slices(2)).unwrap());
    let pool = Arc::new(EnginePool::new(Arc::clone(&artifact), lanes).unwrap());
    let scheduler = Scheduler::new(Arc::clone(&pool), lanes);
    (artifact, pool, scheduler)
}

/// A streaming chain that follows its previous serving lane stays warm
/// (affinity hits accumulate) and matches a dedicated session bit for bit.
#[test]
fn affine_streaming_chain_is_warm_and_bit_exact() {
    let (artifact, _pool, scheduler) = fixture(3, 1);
    let feed = stream(32, 10);
    let mut reference = InferenceSession::new(
        Arc::clone(artifact.network_arc()),
        SneConfig::with_slices(2),
    )
    .unwrap();
    let mut client = artifact.new_client();
    let mut affinity = None;
    let mut hinted = 0u64;
    for chunk in feed.chunks(4) {
        let record = scheduler.call_push(client, chunk.clone(), affinity);
        client = record.client;
        hinted += u64::from(affinity.is_some());
        affinity = Some(record.lane);
        assert_eq!(
            record.result.as_ref().unwrap(),
            &reference.push(&chunk).unwrap()
        );
    }
    assert_eq!(artifact.summary(&client), reference.summary());
    let stats = scheduler.stats();
    // Every hinted chunk was counted either way; on an idle fleet the hint
    // is honored at least once (typically always).
    assert_eq!(stats.affinity_hits + stats.affinity_misses, hinted);
    assert!(stats.affinity_hits >= 1);
}

/// The same feed with every chunk deliberately migrated (an out-of-range
/// hint falls back to least-loaded placement and is counted as a miss)
/// produces exactly the same outputs: an affinity miss — hence a steal —
/// can never change a result.
#[test]
fn forced_affinity_misses_are_bit_identical_to_the_warm_chain() {
    let (artifact, _pool, scheduler) = fixture(3, 1);
    let feed = stream(32, 10);

    let run_chain = |affinity_for: &dyn Fn(Option<usize>) -> Option<usize>| {
        let mut client = artifact.new_client();
        let mut outputs = Vec::new();
        let mut last_lane = None;
        for chunk in feed.chunks(4) {
            let record = scheduler.call_push(client, chunk, affinity_for(last_lane));
            client = record.client;
            last_lane = Some(record.lane);
            outputs.push(record.result.unwrap());
        }
        (artifact.summary(&client), outputs)
    };

    let (warm_summary, warm_outputs) = run_chain(&|last| last);
    let before = scheduler.stats();
    // Hint a lane that does not exist: placement ignores it, the counter
    // records a miss for every hinted chunk, and the chunk is served by
    // whatever engine is free — the affinity-miss path, deterministically.
    let (cold_summary, cold_outputs) = run_chain(&|_| Some(usize::MAX));
    let after = scheduler.stats();
    assert_eq!(warm_outputs, cold_outputs);
    assert_eq!(warm_summary, cold_summary);
    assert_eq!(
        after.affinity_misses - before.affinity_misses,
        cold_outputs.len() as u64
    );
}

/// Real steal pressure: several clients all pinned to the same lane. The
/// grace expires while that worker grinds through the pile, the peer steals
/// the surplus — and every stolen request still matches its dedicated
/// session exactly.
///
/// The pressure is engineered to be host-speed-independent: a deliberately
/// heavy stream parks the hot worker in service for many times the steal
/// grace, so the light requests pinned behind it are guaranteed to still be
/// queued when the idle peer's grace expires and it comes stealing.
#[test]
fn steals_under_affinity_pressure_stay_bit_exact() {
    let (artifact, pool, scheduler) = fixture(2, 3);
    let scheduler = Arc::new(scheduler);
    let hot_lane = scheduler.worker_lanes()[0];
    // ~milliseconds of service on any host — the backlog behind it outlives
    // the 2 ms steal grace by construction.
    let heavy = sne::proportionality::stream_with_activity((2, 8, 8), 512, 0.3, 77);
    let light: Vec<EventStream> = (0..4).map(|i| stream(8, 60 + i)).collect();
    let mut session = InferenceSession::new(
        Arc::clone(artifact.network_arc()),
        SneConfig::with_slices(2),
    )
    .unwrap();
    let expected_heavy = session.infer(&heavy).unwrap();
    let expected_light: Vec<_> = light.iter().map(|s| session.infer(s).unwrap()).collect();
    std::thread::scope(|scope| {
        let heavy_scheduler = Arc::clone(&scheduler);
        let heavy_stream = heavy.clone();
        let expected_heavy = &expected_heavy;
        scope.spawn(move || {
            let record = heavy_scheduler.call_with_affinity(heavy_stream, Some(hot_lane));
            assert_eq!(record.result.as_ref().unwrap(), expected_heavy);
        });
        // Let the heavy request reach service (its service time dwarfs this
        // sleep many times over, on any host and build profile).
        std::thread::sleep(std::time::Duration::from_millis(1));
        for (stream, expected) in light.iter().zip(&expected_light) {
            let scheduler = Arc::clone(&scheduler);
            let stream = stream.clone();
            scope.spawn(move || {
                // Everyone insists on the hot lane.
                let record = scheduler.call_with_affinity(stream, Some(hot_lane));
                assert_eq!(record.result.as_ref().unwrap(), expected);
            });
        }
    });
    let stats = scheduler.stats();
    assert_eq!(stats.errors, 0);
    // The light requests piled onto the busy worker; the idle peer's grace
    // expired long before the heavy service finished, so it must have
    // stolen part of the pile.
    assert!(
        stats.steals >= 1,
        "no steal relieved the hot lane: {stats:?}"
    );
    drop(scheduler);
    assert_eq!(pool.idle_lanes(), 2);
}

/// The priority lanes: interactive calls issued into a standing bulk flood
/// wait a small fraction of what the flood's own tail waits — and the
/// flood still completes in full (the bypass guard never starves bulk).
#[test]
fn interactive_calls_cut_ahead_of_a_bulk_flood_without_starving_it() {
    let network = Arc::new(compiled(5));
    let mut runner =
        BatchRunner::with_workers(Arc::clone(&network), SneConfig::with_slices(2), 2, 2).unwrap();
    let flood: Vec<EventStream> = (0..24).map(|i| stream(8, 300 + i)).collect();
    let probe = stream(8, 999);
    let mut session =
        InferenceSession::new(Arc::clone(&network), SneConfig::with_slices(2)).unwrap();
    let expected_probe = session.infer(&probe).unwrap();

    for burst in &flood {
        let _ = runner.submit(burst.clone());
    }
    // Interactive probes while the flood is pending.
    let mut probe_queue_us = Vec::new();
    for _ in 0..4 {
        let record = runner.scheduler().call(probe.clone());
        assert_eq!(record.result.as_ref().unwrap(), &expected_probe);
        probe_queue_us.push(record.queue_us);
    }
    let records = runner.drain();
    // Bulk progressed to completion: nothing lost, nothing starved.
    assert_eq!(records.len(), flood.len());
    assert!(records.iter().all(|r| r.result.is_ok()));
    let bulk_queue: Vec<f64> = records.iter().map(|r| r.queue_us).collect();
    let bulk_p50 = LatencySummary::from_samples_us(&bulk_queue).p50_us;
    let probe_p50 = LatencySummary::from_samples_us(&probe_queue_us).p50_us;
    // The flood's median job waits behind ~half the flood; an interactive
    // probe waits at most a couple of in-flight services. Half the bulk
    // median is a loose, timing-noise-proof bound.
    assert!(
        probe_p50 <= bulk_p50 / 2.0 + 1000.0,
        "interactive p50 {probe_p50} vs bulk p50 {bulk_p50}"
    );
}

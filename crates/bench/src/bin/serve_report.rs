//! Measures the serving front-end end to end over loopback HTTP and emits a
//! machine-readable `BENCH_serve.json`, with **bit-exactness against a
//! direct session asserted before any timing**. Four phases:
//!
//! 1. **Closed-loop** — 1/4/16 keep-alive clients issuing back-to-back
//!    requests: throughput and p50/p99 request latency per level.
//! 2. **Streaming sessions** — concurrent chunked sessions over keep-alive
//!    connections, exercising the scheduler's affinity hints (the
//!    `affinity_hits + affinity_misses > 0` telemetry gate).
//! 3. **Open-loop** — a fixed arrival-rate sweep (fractions of the measured
//!    closed-loop capacity). Latency is measured from each request's
//!    *scheduled* arrival, so queueing delay at over-capacity rates is not
//!    coordinated away; per-response server-side queue/service breakdowns
//!    identify what saturates first.
//! 4. **Idle soak** — thousands of parked keep-alive connections held
//!    through a quiet window: process CPU over the window must stay ~idle
//!    and every parked connection must still answer afterwards.
//! 5. **Durable tier** — the server runs with a park-to-disk session store
//!    (DESIGN.md §14) and a warm capacity smaller than the session count
//!    driven here, so LRU demotion and fault-in both fire; the report
//!    asserts the durability counters are live and records them.
//!
//! The closed-loop phase runs as a **shard sweep**: a 1-shard arm and an
//! N-shard arm (N from host parallelism, capped), each against a freshly
//! started server, so the report pins both the single-reactor baseline and
//! the multi-core scaling factor. `--shards N` pins a single arm instead.
//!
//! ```bash
//! cargo run --release -p sne_bench --bin serve_report                   # full run (1-vs-N sweep)
//! cargo run --release -p sne_bench --bin serve_report -- --smoke        # CI smoke
//! cargo run --release -p sne_bench --bin serve_report -- --shards 2     # pin one arm, skip the sweep
//! cargo run --release -p sne_bench --bin serve_report -- --phase open   # open-loop + soak only
//! cargo run --release -p sne_bench --bin serve_report -- --out x.json
//! ```

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sne::batch::LatencySummary;
use sne::compile::CompiledNetwork;
use sne::session::InferenceSession;
use sne_bench::benchmark_network;
use sne_event::EventStream;
use sne_serve::client::{self, Connection};
use sne_serve::{FsyncPolicy, Json, ServerBuilder};
use sne_sim::{ExecStrategy, SneConfig};

/// Closed-loop concurrency levels (clients issuing back-to-back requests).
const CLIENT_LEVELS: [usize; 3] = [1, 4, 16];
/// Engines in the served model's pool.
const LANES: usize = 4;
/// Open-loop offered rates as fractions of measured closed-loop capacity.
const OPEN_FRACTIONS_FULL: [f64; 4] = [0.5, 0.8, 1.1, 1.5];
const OPEN_FRACTIONS_SMOKE: [f64; 2] = [0.8, 1.5];
/// Committed p99 at the 1-client closed-loop level (the regression floor),
/// evaluated on the 1-shard arm where one ran: sharding buys throughput and
/// the single-request path must not pay for it.
const P99_1CLIENT_FLOOR_US: f64 = 699.0;
/// Per-core throughput target, scaled by min(host cores, LANES): the engine
/// pool has LANES lanes, so cores beyond that stop adding serve capacity.
const THROUGHPUT_FLOOR_RPS_PER_CORE: f64 = 4800.0;
/// On a multi-core host the N-shard arm must clear this multiple of the
/// 1-shard arm's best closed-loop throughput (full runs only).
const SHARD_SPEEDUP_FLOOR: f64 = 1.5;
/// Top shard count for the automatic 1-vs-N sweep.
const SWEEP_SHARD_CAP: usize = 8;
/// Idle-soak CPU budget as a fraction of the soak window.
const SOAK_CPU_BUDGET: f64 = 0.10;
/// Warm-session capacity of the served model: the durability phase drives
/// more sessions than this so LRU park-to-disk demotion actually fires.
const WARM_CAPACITY: usize = 8;

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Closed,
    Open,
    All,
}

struct LevelResult {
    clients: usize,
    requests: u32,
    throughput_rps: f64,
    latency: LatencySummary,
}

struct OpenResult {
    offered_rps: f64,
    achieved_rps: f64,
    sent: u64,
    ok: u64,
    shed: u64,
    failed: u64,
    latency: LatencySummary,
    queue_mean_us: f64,
    service_mean_us: f64,
}

struct SoakResult {
    connections: usize,
    window_s: f64,
    cpu_ms: f64,
    failed_requests: u64,
}

/// This process's cumulative CPU time (user + system) in milliseconds,
/// from `/proc/self/stat` (0.0 where unavailable — the soak gate then
/// passes trivially on non-Linux hosts).
fn process_cpu_ms() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesized comm; utime/stime are stat fields
    // 14/15, i.e. indices 11/12 past the comm, in clock ticks (100 Hz).
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> f64 { fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0.0) };
    (tick(11) + tick(12)) * 1000.0 / 100.0
}

/// Runs `clients` closed-loop client threads, each on one persistent
/// keep-alive connection, for `per_client` requests each.
fn run_level(addr: SocketAddr, bodies: &[String], clients: usize, per_client: u32) -> LevelResult {
    let start = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect failed");
                    let mut samples = Vec::with_capacity(per_client as usize);
                    for i in 0..per_client {
                        let body = &bodies[(c + i as usize * clients) % bodies.len()];
                        let sent = Instant::now();
                        let (status, response) =
                            conn.post("/v1/infer", body).expect("request failed");
                        assert_eq!(status, 200, "{response}");
                        samples.push(sent.elapsed().as_secs_f64() * 1e6);
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    LevelResult {
        clients,
        requests: latencies.len() as u32,
        throughput_rps: latencies.len() as f64 / elapsed,
        latency: LatencySummary::from_samples_us(&latencies),
    }
}

/// Streaming-session phase: `sessions` concurrent chunked sessions, each
/// over one keep-alive connection, pushing `chunks` chunks then closing.
/// This is what makes the scheduler's affinity telemetry live: every push
/// after a session's first carries the parked lane hint.
fn run_streaming(addr: SocketAddr, sessions: usize, chunks: usize) -> LevelResult {
    let start = Instant::now();
    let latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|s| {
                scope.spawn(move || {
                    let feed = sne::proportionality::stream_with_activity(
                        (2, 16, 16),
                        (chunks * 4) as u32,
                        0.03,
                        7000 + s as u64,
                    );
                    let mut conn = Connection::connect(addr).expect("connect failed");
                    let mut samples = Vec::with_capacity(chunks);
                    for (i, chunk) in feed.chunks(4).enumerate() {
                        let body = client::infer_body("bench", &chunk);
                        let path = format!("/v1/stream/bench-s{s}/push");
                        let sent = Instant::now();
                        let (status, response) = conn.post(&path, &body).expect("push failed");
                        assert_eq!(status, 200, "push {i}: {response}");
                        samples.push(sent.elapsed().as_secs_f64() * 1e6);
                    }
                    let (status, response) = conn
                        .post(&format!("/v1/stream/bench-s{s}/close"), "")
                        .expect("close failed");
                    assert_eq!(status, 200, "{response}");
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("session thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed().as_secs_f64();
    LevelResult {
        clients: sessions,
        requests: latencies.len() as u32,
        throughput_rps: latencies.len() as f64 / elapsed,
        latency: LatencySummary::from_samples_us(&latencies),
    }
}

/// Open-loop run at a fixed offered rate: arrival `k` is *due* at
/// `t0 + k/rate`; a pool of sender threads serves the schedule and each
/// request's latency is measured from its due time, so when the server
/// falls behind the wait shows up in the numbers instead of silently
/// stretching the arrival process.
fn run_open_loop(
    addr: SocketAddr,
    bodies: &[String],
    offered_rps: f64,
    window: Duration,
    senders: usize,
) -> OpenResult {
    let total = ((offered_rps * window.as_secs_f64()) as usize).max(senders);
    let next = AtomicUsize::new(0);
    let t0 = Instant::now();
    let per_thread: Vec<(Vec<f64>, u64, u64, u64, f64, f64)> = std::thread::scope(|scope| {
        let next = &next;
        let handles: Vec<_> = (0..senders)
            .map(|_| {
                scope.spawn(move || {
                    let mut conn = Connection::connect(addr).expect("connect failed");
                    let mut latencies = Vec::new();
                    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
                    let (mut queue_us, mut service_us) = (0.0f64, 0.0f64);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= total {
                            break;
                        }
                        let due = t0 + Duration::from_secs_f64(k as f64 / offered_rps);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        match conn.post("/v1/infer", &bodies[k % bodies.len()]) {
                            Ok((200, body)) => {
                                ok += 1;
                                latencies.push(due.elapsed().as_secs_f64() * 1e6);
                                if let Ok(doc) = Json::parse(&body) {
                                    queue_us +=
                                        doc.get("queue_us").and_then(Json::as_f64).unwrap_or(0.0);
                                    service_us +=
                                        doc.get("service_us").and_then(Json::as_f64).unwrap_or(0.0);
                                }
                            }
                            Ok((429, _)) => shed += 1,
                            Ok(_) => failed += 1,
                            Err(_) => {
                                failed += 1;
                                if let Ok(fresh) = Connection::connect(addr) {
                                    conn = fresh;
                                }
                            }
                        }
                    }
                    (latencies, ok, shed, failed, queue_us, service_us)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sender thread panicked"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let mut latencies = Vec::new();
    let (mut ok, mut shed, mut failed) = (0u64, 0u64, 0u64);
    let (mut queue_total, mut service_total) = (0.0f64, 0.0f64);
    for (l, o, s, f, q, sv) in per_thread {
        latencies.extend(l);
        ok += o;
        shed += s;
        failed += f;
        queue_total += q;
        service_total += sv;
    }
    OpenResult {
        offered_rps,
        achieved_rps: ok as f64 / elapsed,
        sent: total as u64,
        ok,
        shed,
        failed,
        latency: LatencySummary::from_samples_us(&latencies),
        queue_mean_us: if ok > 0 { queue_total / ok as f64 } else { 0.0 },
        service_mean_us: if ok > 0 {
            service_total / ok as f64
        } else {
            0.0
        },
    }
}

/// Idle-connection soak: `target` keep-alive connections parked through a
/// quiet `window` (process CPU measured across it), then one probe request
/// over every parked connection — all must still answer.
fn run_soak(addr: SocketAddr, target: usize, window: Duration) -> SoakResult {
    let mut parked = Vec::with_capacity(target);
    for i in 0..target {
        parked.push(Connection::connect(addr).expect("soak connect failed"));
        if i % 64 == 63 {
            // Give the reactor's accept loop a scheduling quantum so the
            // listener backlog never overflows.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    // Quiesce (late ACKs, accept bursts), then measure the quiet window.
    std::thread::sleep(Duration::from_millis(300));
    let cpu_before = process_cpu_ms();
    std::thread::sleep(window);
    let cpu_ms = process_cpu_ms() - cpu_before;
    // Every parked connection must still be live.
    let mut failed = 0u64;
    for conn in &mut parked {
        let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
        match conn.get("/healthz") {
            Ok((200, _)) => {}
            _ => failed += 1,
        }
    }
    SoakResult {
        connections: target,
        window_s: window.as_secs_f64(),
        cpu_ms,
        failed_requests: failed,
    }
}

/// Durable-tier exercise: `sessions` streaming sessions (more than the
/// warm capacity) pushed round-robin over one connection for `rounds`
/// passes, so LRU demotion to disk and fault-in from disk both fire
/// deterministically, then every session closes with a summary — cold
/// ones included. Returns the push latencies.
fn run_durability(addr: SocketAddr, sessions: usize, rounds: usize) -> LevelResult {
    let start = Instant::now();
    let mut conn = Connection::connect(addr).expect("connect failed");
    let mut samples = Vec::with_capacity(sessions * rounds);
    for r in 0..rounds {
        for s in 0..sessions {
            let feed = sne::proportionality::stream_with_activity(
                (2, 16, 16),
                4,
                0.03,
                8600 + (r * sessions + s) as u64,
            );
            let body = client::infer_body("bench", &feed);
            let sent = Instant::now();
            let (status, response) = conn
                .post(&format!("/v1/stream/park-{s}/push"), &body)
                .expect("push failed");
            assert_eq!(status, 200, "round {r} session {s}: {response}");
            samples.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    for s in 0..sessions {
        let (status, response) = conn
            .post(&format!("/v1/stream/park-{s}/close"), "")
            .expect("close failed");
        assert_eq!(status, 200, "close {s}: {response}");
    }
    let elapsed = start.elapsed().as_secs_f64();
    LevelResult {
        clients: sessions,
        requests: samples.len() as u32,
        throughput_rps: samples.len() as f64 / elapsed,
        latency: LatencySummary::from_samples_us(&samples),
    }
}

/// Gate: every served result must be BIT-identical to a direct session
/// call before anything is timed — over a keep-alive connection, like all
/// the traffic that follows. Runs once per sweep arm: every shard count
/// must honour the same contract.
fn assert_bit_exact(
    addr: SocketAddr,
    session: &mut InferenceSession,
    streams: &[EventStream],
    bodies: &[String],
) {
    let mut conn = Connection::connect(addr).expect("connect failed");
    for (stream, body) in streams.iter().zip(bodies) {
        let expected = session.infer(stream).unwrap();
        let (status, body) = conn.post("/v1/infer", body).unwrap();
        assert_eq!(status, 200, "{body}");
        let doc = Json::parse(&body).unwrap();
        assert_eq!(
            doc.get("predicted_class").and_then(Json::as_u64),
            Some(expected.predicted_class as u64),
            "served prediction diverged from the direct session"
        );
        assert_eq!(
            doc.get("total_cycles").and_then(Json::as_u64),
            Some(expected.stats.total_cycles),
            "served cycles diverged from the direct session"
        );
        assert_eq!(
            doc.get("energy_uj")
                .and_then(Json::as_f64)
                .map(f64::to_bits),
            Some(expected.energy.energy_uj.to_bits()),
            "served energy diverged bit-wise from the direct session"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let shards_arg: Option<usize> = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--shards takes a positive integer"));
    let out_path = sne_bench::report_out_path(&args, "BENCH_serve.json");
    let phase = match args
        .iter()
        .position(|a| a == "--phase")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
    {
        Some("closed") => Phase::Closed,
        Some("open") => Phase::Open,
        Some("all") | None => Phase::All,
        Some(other) => panic!("unknown --phase {other} (closed|open|all)"),
    };
    let per_client: u32 = if smoke { 6 } else { 200 };

    // A 16x16 two-layer eCNN: small enough that the HTTP wire is a visible
    // fraction of the request, large enough to exercise the whole datapath.
    let network = Arc::new(benchmark_network(16, 8, 5, 5));
    let config = SneConfig::with_slices(4);
    let streams: Vec<EventStream> = (0..8)
        .map(|i| sne::proportionality::stream_with_activity((2, 16, 16), 12, 0.03, 900 + i))
        .collect();
    let bodies: Vec<String> = streams
        .iter()
        .map(|s| client::infer_body("bench", s))
        .collect();

    // Shard sweep: a 1-shard baseline arm and an N-shard arm (the last arm
    // is "primary" and runs every phase); `--shards` pins a single arm.
    let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let sweep: Vec<usize> = match shards_arg {
        Some(n) => vec![n.max(1)],
        None => vec![1, host.clamp(2, SWEEP_SHARD_CAP)],
    };
    let primary_shards = *sweep.last().expect("sweep is never empty");
    let mut session =
        InferenceSession::new(Arc::clone(&network) as Arc<CompiledNetwork>, config).unwrap();

    println!("Serving front-end over loopback HTTP ({LANES}-engine pool, 16x16 eCNN, 12 timesteps, 3 % activity)");
    println!("reactor shard sweep {sweep:?} on {host} host core(s); bit-exactness vs direct session verified per arm");
    println!();

    // ---- shard sweep: closed-loop baseline arms ----------------------------
    let mut sweep_arms: Vec<(usize, Vec<LevelResult>)> = Vec::new();
    if phase != Phase::Open {
        for &arm_shards in &sweep[..sweep.len() - 1] {
            let server = ServerBuilder::new()
                .register(
                    "bench",
                    Arc::clone(&network),
                    config,
                    LANES,
                    ExecStrategy::Sequential,
                )
                .expect("model registers")
                .reactor_shards(arm_shards)
                .start("127.0.0.1:0")
                .expect("server starts");
            assert_bit_exact(server.addr(), &mut session, &streams, &bodies);
            // Untimed warmup: a fresh server's first requests pay one-time
            // costs (allocator pool growth, lazy registration, frequency
            // ramp) that would otherwise land in the tail percentiles.
            let _ = run_level(server.addr(), &bodies, 2, if smoke { 4 } else { 60 });
            let mut arm_levels = Vec::new();
            for clients in CLIENT_LEVELS {
                let level = run_level(server.addr(), &bodies, clients, per_client);
                println!(
                    "closed [{arm_shards} shard] {:>2} clients: {:>8.1} req/s   p50 {:>8.1} us   p99 {:>8.1} us",
                    level.clients, level.throughput_rps, level.latency.p50_us, level.latency.p99_us
                );
                arm_levels.push(level);
            }
            server.shutdown();
            sweep_arms.push((arm_shards, arm_levels));
        }
    }

    // The primary bench server runs the durable tier for real: every push
    // parks a snapshot (write-ahead, FsyncPolicy::Never keeps the wire
    // numbers about the datapath, not the disk), and the warm capacity is
    // small enough that the durability phase forces demotion + fault-in.
    let store_dir = std::env::temp_dir().join(format!("sne-serve-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let server = ServerBuilder::new()
        .register(
            "bench",
            Arc::clone(&network),
            config,
            LANES,
            ExecStrategy::Sequential,
        )
        .expect("model registers")
        .reactor_shards(primary_shards)
        .durable_store(&store_dir)
        .fsync_policy(FsyncPolicy::Never)
        .session_capacity(WARM_CAPACITY)
        .start("127.0.0.1:0")
        .expect("server starts");
    let addr = server.addr();
    assert_bit_exact(addr, &mut session, &streams, &bodies);

    // ---- closed-loop phase (primary arm) -----------------------------------
    let mut levels = Vec::new();
    let mut streaming: Option<LevelResult> = None;
    if phase != Phase::Open {
        // Same untimed warmup as the sweep arms: this server is fresh too.
        let _ = run_level(addr, &bodies, 2, if smoke { 4 } else { 60 });
        for clients in CLIENT_LEVELS {
            let level = run_level(addr, &bodies, clients, per_client);
            println!(
                "closed [{primary_shards} shard] {:>2} clients: {:>8.1} req/s   p50 {:>8.1} us   p99 {:>8.1} us",
                level.clients, level.throughput_rps, level.latency.p50_us, level.latency.p99_us
            );
            levels.push(level);
        }
        let (sessions, chunks) = if smoke { (4, 6) } else { (8, 12) };
        let result = run_streaming(addr, sessions, chunks);
        println!(
            "stream  {:>2} sessions: {:>7.1} push/s  p50 {:>8.1} us   p99 {:>8.1} us",
            result.clients, result.throughput_rps, result.latency.p50_us, result.latency.p99_us
        );
        streaming = Some(result);
    }

    // ---- open-loop phase ---------------------------------------------------
    let mut open_results = Vec::new();
    let mut soak: Option<SoakResult> = None;
    if phase != Phase::Closed {
        // Capacity estimate drives the offered-rate sweep: best closed-loop
        // level when that phase ran, a short probe otherwise.
        let capacity = levels
            .iter()
            .map(|l| l.throughput_rps)
            .fold(f64::NAN, f64::max);
        let capacity = if capacity.is_nan() {
            let probe = run_level(addr, &bodies, 8, if smoke { 8 } else { 100 });
            println!(
                "probe    8 clients: {:>8.1} req/s (capacity estimate)",
                probe.throughput_rps
            );
            probe.throughput_rps
        } else {
            capacity
        };
        let fractions: &[f64] = if smoke {
            &OPEN_FRACTIONS_SMOKE
        } else {
            &OPEN_FRACTIONS_FULL
        };
        let window = if smoke {
            Duration::from_millis(400)
        } else {
            Duration::from_millis(2500)
        };
        let senders = if smoke { 8 } else { 64 };
        for &fraction in fractions {
            let offered = capacity * fraction;
            let result = run_open_loop(addr, &bodies, offered, window, senders);
            println!(
                "open   {:>7.0} rps offered: {:>8.1} achieved   p50 {:>9.1} us   p99 {:>9.1} us   queue {:>8.1} us   shed {}",
                result.offered_rps,
                result.achieved_rps,
                result.latency.p50_us,
                result.latency.p99_us,
                result.queue_mean_us,
                result.shed
            );
            open_results.push(result);
        }

        // Idle soak: parked keep-alive connections must cost ~nothing.
        let (target, window) = if smoke {
            (256, Duration::from_secs(1))
        } else {
            (5000, Duration::from_secs(2))
        };
        let result = run_soak(addr, target, window);
        println!(
            "soak   {:>5} parked keep-alive conns over {:.1} s: {:.1} ms CPU, {} failed probes",
            result.connections, result.window_s, result.cpu_ms, result.failed_requests
        );
        soak = Some(result);
    }

    // ---- durable-tier phase ------------------------------------------------
    // More sessions than the warm capacity, pushed round-robin: park-to-disk
    // demotion and fault-in must both fire, and every close — cold sessions
    // included — must still produce a summary.
    let (park_sessions, park_rounds) = if smoke {
        (WARM_CAPACITY + 2, 2)
    } else {
        (WARM_CAPACITY + 4, 3)
    };
    let durability_level = run_durability(addr, park_sessions, park_rounds);
    println!(
        "durable {:>2} sessions: {:>7.1} push/s  p50 {:>8.1} us   p99 {:>8.1} us   (warm capacity {WARM_CAPACITY})",
        durability_level.clients,
        durability_level.throughput_rps,
        durability_level.latency.p50_us,
        durability_level.latency.p99_us
    );

    // ---- telemetry + gates -------------------------------------------------
    let (status, stats_body) = client::get(addr, "/v1/stats").unwrap();
    assert_eq!(status, 200);
    let stats = Json::parse(&stats_body).unwrap();
    let completed = stats.get("completed").and_then(Json::as_u64).unwrap();
    let errors = stats.get("errors").and_then(Json::as_u64).unwrap();
    assert_eq!(errors, 0, "server recorded errors during the bench");
    let model = stats.get("models").and_then(|m| m.get("bench")).unwrap();
    let field = |key: &str| model.get(key).and_then(Json::as_u64).unwrap();
    let workers = field("workers");
    let steals = field("steals");
    let coalesced = field("coalesced");
    let affinity_hits = field("affinity_hits");
    let affinity_misses = field("affinity_misses");
    assert_eq!(field("pending"), 0, "backlog left after the bench");

    // Per-shard accept/open/eviction counters from the primary server: the
    // stats endpoint must expose exactly one block per reactor shard.
    let shard_counters: Vec<(u64, u64, u64)> = stats
        .get("shards")
        .and_then(Json::as_array)
        .expect("stats exposes per-shard counters")
        .iter()
        .map(|shard| {
            let gauge = |key: &str| shard.get(key).and_then(Json::as_u64).unwrap();
            (gauge("accepted"), gauge("open"), gauge("evictions"))
        })
        .collect();
    assert_eq!(
        shard_counters.len(),
        primary_shards,
        "stats shard blocks disagree with the configured shard count"
    );
    if streaming.is_some() {
        // The telemetry gate: the streaming phase must leave the affinity
        // counters live — a zeroed pair means the hint path is dead again.
        assert!(
            affinity_hits + affinity_misses > 0,
            "streaming phase ran but scheduler affinity telemetry is dead"
        );
    }

    // The durability gate: the round-robin phase oversubscribed the warm
    // capacity, so both directions of the disk tier must have fired, and
    // closing every session must have reclaimed every snapshot.
    let durability = stats
        .get("durability")
        .expect("durable server exposes durability stats");
    let dur = |key: &str| durability.get(key).and_then(Json::as_u64).unwrap();
    let parked_to_disk = dur("parked_to_disk");
    let faulted_in = dur("faulted_in");
    assert!(
        parked_to_disk > 0,
        "oversubscribed warm capacity but no session was demoted to disk"
    );
    assert!(
        faulted_in > 0,
        "cold sessions were pushed to but none faulted in from disk"
    );
    assert_eq!(dur("cold_sessions"), 0, "closes left cold sessions behind");
    assert_eq!(
        dur("corrupt_discarded"),
        0,
        "the store discarded snapshots during a clean bench"
    );

    // The committed p99 floor holds on the 1-shard arm: the single-request
    // path must not pay for the sharding machinery.
    let one_shard_levels = sweep_arms
        .iter()
        .find(|(s, _)| *s == 1)
        .map(|(_, l)| l)
        .or_else(|| (primary_shards == 1).then_some(&levels));
    let p99_1client = one_shard_levels
        .and_then(|arm| arm.iter().find(|l| l.clients == 1))
        .map(|l| l.latency.p99_us);
    if let Some(p99) = p99_1client {
        let floor = if smoke {
            // Smoke runs are tiny and often share noisy CI hosts: gate
            // loosely, the full run enforces the committed floor.
            P99_1CLIENT_FLOOR_US * 10.0
        } else {
            P99_1CLIENT_FLOOR_US
        };
        assert!(
            p99 <= floor,
            "1-shard 1-client p99 {p99:.1} us regressed past the {floor:.1} us floor"
        );
    }

    // Best sustained rate across every measured arm and phase: the sweep
    // arms ran the same workload on the same host, so they count.
    let best_rps = levels
        .iter()
        .chain(sweep_arms.iter().flat_map(|(_, arm)| arm.iter()))
        .map(|l| l.throughput_rps)
        .chain(open_results.iter().map(|r| r.achieved_rps))
        .fold(0.0f64, f64::max);
    // The absolute floor scales with usable cores: lanes cap how many
    // engines can run, so cores past LANES stop adding serve capacity.
    let throughput_floor_rps = THROUGHPUT_FLOOR_RPS_PER_CORE * host.min(LANES) as f64;
    let throughput_met = best_rps >= throughput_floor_rps;
    // The documented fallback: on a small host the bound must be
    // queue-wait (inference capacity), not connection handling — the
    // per-response breakdown at the top offered rate shows which.
    let queue_bound = open_results
        .last()
        .is_some_and(|top| top.queue_mean_us > top.service_mean_us);
    if !open_results.is_empty() && !smoke {
        assert!(
            throughput_met || queue_bound,
            "throughput {best_rps:.1} rps under the {throughput_floor_rps:.0} floor \
             ({THROUGHPUT_FLOOR_RPS_PER_CORE}/core x {} usable cores) and the top offered rate \
             is not queue-bound (queue-wait must dominate service when capacity saturates)",
            host.min(LANES)
        );
    }

    // Multi-core scaling gate: the N-shard arm must actually buy throughput
    // over the 1-shard baseline. Only meaningful when both arms ran and the
    // host has cores to scale onto; smoke runs are too short to gate.
    let best_closed =
        |arm: &[LevelResult]| arm.iter().map(|l| l.throughput_rps).fold(0.0f64, f64::max);
    let shard_speedup = sweep_arms
        .iter()
        .find(|(s, _)| *s == 1)
        .map(|(_, l)| best_closed(l))
        .filter(|base| *base > 0.0 && primary_shards > 1 && !levels.is_empty())
        .map(|base| best_closed(&levels) / base);
    if let Some(speedup) = shard_speedup {
        println!(
            "shard speedup: {primary_shards} shards vs 1 shard = {speedup:.2}x best closed-loop"
        );
        if !smoke && host >= 2 {
            assert!(
                speedup >= SHARD_SPEEDUP_FLOOR,
                "{primary_shards}-shard arm only {speedup:.2}x the 1-shard arm on a {host}-core \
                 host (floor {SHARD_SPEEDUP_FLOOR}x)"
            );
        }
    }
    if let Some(soak) = &soak {
        assert_eq!(
            soak.failed_requests, 0,
            "parked keep-alive connections failed their post-soak probes"
        );
        let budget_ms = soak.window_s * 1000.0 * SOAK_CPU_BUDGET;
        assert!(
            soak.cpu_ms <= budget_ms,
            "idle soak burned {:.1} ms CPU over {:.1} s (budget {budget_ms:.0} ms): parked \
             connections are not free",
            soak.cpu_ms,
            soak.window_s
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&store_dir);

    // ---- report ------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve_report\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!(
        "  \"phase\": \"{}\",\n",
        match phase {
            Phase::Closed => "closed",
            Phase::Open => "open",
            Phase::All => "all",
        }
    ));
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"reactor_shards\": {primary_shards},\n"));
    json.push_str(&format!("  \"lanes\": {LANES},\n"));
    json.push_str(
        "  \"workload\": {\"network\": \"tiny_16x16\", \"timesteps\": 12, \"activity\": 0.03, \"slices\": 4},\n",
    );
    json.push_str("  \"bit_exact_vs_direct_session\": true,\n");
    json.push_str(&format!("  \"server_completed_requests\": {completed},\n"));
    json.push_str(&format!(
        "  \"scheduler\": {{\"workers\": {workers}, \"steals\": {steals}, \"coalesced\": {coalesced}, \"affinity_hits\": {affinity_hits}, \"affinity_misses\": {affinity_misses}}},\n"
    ));
    json.push_str("  \"shard_counters\": [\n");
    for (i, (accepted, open, evictions)) in shard_counters.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shard\": {i}, \"accepted\": {accepted}, \"open\": {open}, \"evictions\": {evictions}}}{}\n",
            if i + 1 < shard_counters.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"shard_sweep\": [\n");
    {
        let arms: Vec<(usize, &[LevelResult])> = sweep_arms
            .iter()
            .map(|(s, l)| (*s, l.as_slice()))
            .chain(std::iter::once((primary_shards, levels.as_slice())))
            .filter(|(_, l)| !l.is_empty())
            .collect();
        for (i, (arm_shards, arm)) in arms.iter().enumerate() {
            let arm_p99 = arm
                .iter()
                .find(|l| l.clients == 1)
                .map_or(0.0, |l| l.latency.p99_us);
            json.push_str(&format!(
                "    {{\"shards\": {arm_shards}, \"best_closed_rps\": {:.1}, \"p99_1client_us\": {arm_p99:.1}}}{}\n",
                arm.iter().map(|l| l.throughput_rps).fold(0.0f64, f64::max),
                if i + 1 < arms.len() { "," } else { "" }
            ));
        }
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"durability\": {{\"warm_capacity\": {WARM_CAPACITY}, \"sessions\": {}, \"pushes\": {}, \"push_p50_us\": {:.1}, \"push_p99_us\": {:.1}, \"parked_to_disk\": {parked_to_disk}, \"faulted_in\": {faulted_in}, \"recovered_on_boot\": {}, \"corrupt_discarded\": {}, \"cold_sessions\": {}}},\n",
        durability_level.clients,
        durability_level.requests,
        durability_level.latency.p50_us,
        durability_level.latency.p99_us,
        dur("recovered_on_boot"),
        dur("corrupt_discarded"),
        dur("cold_sessions"),
    ));
    json.push_str("  \"levels\": [\n");
    for (i, level) in levels.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"requests\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"mean_us\": {:.1}}}{}\n",
            level.clients,
            level.requests,
            level.throughput_rps,
            level.latency.p50_us,
            level.latency.p99_us,
            level.latency.mean_us,
            if i + 1 < levels.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if let Some(streaming) = &streaming {
        json.push_str(&format!(
            "  \"streaming\": {{\"sessions\": {}, \"pushes\": {}, \"throughput_rps\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}},\n",
            streaming.clients,
            streaming.requests,
            streaming.throughput_rps,
            streaming.latency.p50_us,
            streaming.latency.p99_us,
        ));
    }
    json.push_str("  \"open_loop\": [\n");
    for (i, r) in open_results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"sent\": {}, \"ok\": {}, \"shed\": {}, \"failed\": {}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"queue_mean_us\": {:.1}, \"service_mean_us\": {:.1}}}{}\n",
            r.offered_rps,
            r.achieved_rps,
            r.sent,
            r.ok,
            r.shed,
            r.failed,
            r.latency.p50_us,
            r.latency.p99_us,
            r.queue_mean_us,
            r.service_mean_us,
            if i + 1 < open_results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    if let Some(soak) = &soak {
        json.push_str(&format!(
            "  \"idle_soak\": {{\"connections\": {}, \"window_s\": {:.1}, \"cpu_ms\": {:.1}, \"failed_requests\": {}}},\n",
            soak.connections, soak.window_s, soak.cpu_ms, soak.failed_requests
        ));
    }
    json.push_str(&format!(
        "  \"gates\": {{\"p99_1client_floor_us\": {P99_1CLIENT_FLOOR_US}, \"throughput_floor_rps\": {throughput_floor_rps:.0}, \"throughput_met\": {throughput_met}, \"queue_bound_saturation\": {queue_bound}, \"shard_speedup_floor\": {SHARD_SPEEDUP_FLOOR}, \"shard_speedup\": {}}}\n",
        shard_speedup.map_or("null".to_owned(), |s| format!("{s:.2}"))
    ));
    json.push_str("}\n");
    sne_bench::write_report(&out_path, &json);

    println!();
    println!(
        "scheduler: {workers} workers, {steals} steals, {coalesced} coalesced pushes, affinity {affinity_hits} hits / {affinity_misses} misses"
    );
    for (i, (accepted, open, evictions)) in shard_counters.iter().enumerate() {
        println!("shard {i}: {accepted} accepted, {open} open at exit, {evictions} evictions");
    }
    println!(
        "durable tier: {parked_to_disk} demotions to disk, {faulted_in} fault-ins, all snapshots reclaimed on close"
    );
    println!("wrote {}", out_path.display());
}

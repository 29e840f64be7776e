//! One workload's run end to end, the metrics it reports, the per-run
//! result file, and the summary over runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use sne_serve::{client, Json};

use crate::load::{self, LoadSpec, Phase};
use crate::proc::{self, Fingerprint, ServerProcess};
use crate::replay::{Pass, Stack};
use crate::stats::{self, Spread};
use crate::trace::{self, Tracer};
use crate::workload::{sequence, Inputs, Oracle, Workload, FSYNC};
use crate::Args;

/// Untimed closed-loop warm-up before the measured phases.
const WARMUP: Duration = Duration::from_millis(500);
/// Share of each block spent in the closed loop; the open loop gets the
/// rest.
const CLOSED_SHARE: f64 = 0.3;
/// Alternating closed/open blocks the measured seconds are cut into. A
/// server is spawned for `setup_s` before each, and once to serve the run.
const BLOCKS: usize = 16;
/// Accelerated layers reported one by one (the Fig. 6 network has four;
/// missing layers read 0).
const SIM_LAYERS: usize = 4;
/// Replay requests per arm (whole passes over the sequence, at least one).
const REPLAY_REQUESTS: usize = 256;
/// Largest share of a replayed request its own glue may take before the
/// layer self times no longer count as adding back up to the total.
const GLUE_TOLERANCE_PCT: f64 = 5.0;
/// Runs `summarize --record` needs before it writes the committed result.
const RECORD_MIN_RUNS: usize = 10;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Spread over the run's rounds or spawns, where it has them.
    pub spread: Option<Spread>,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
        spread: None,
    }
}

/// What one workload's run reports.
#[derive(Debug)]
pub struct RunOutcome {
    /// Every response matched the oracle (and, traced, the replay).
    pub correct: bool,
    /// Requests sent.
    pub attempted: u64,
    /// Requests shed or failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones on a traced run.
    pub metrics: Vec<Metric>,
}

/// Runs `workload` once: set-up, gate, closed and open loop, and with
/// `--trace 1` the lone-client pass and the replay.
///
/// # Errors
///
/// Fails when a server cannot be spawned, stopped or queried.
pub fn run_workload(
    workload: Workload,
    args: &Args,
    fingerprint: &Fingerprint,
) -> Result<RunOutcome, String> {
    let settings = workload.settings();
    let out = proc::out_dir();
    let run_tag = format!("{}-{}", workload.name(), std::process::id());
    let store_root = out.join("store");
    std::fs::create_dir_all(&store_root).map_err(|e| format!("create {store_root:?}: {e}"))?;

    let inputs = Inputs::generate(workload, args.seed);
    let network = Arc::new(workload.network());
    let oracle = Oracle::compute(workload, &network, &inputs);

    // Set-up: spawn to first healthy /healthz. The first server serves
    // the run; one more is spawned and stopped before each block, so the
    // set-up times sample the whole run.
    let spawn = |i: usize| -> Result<(ServerProcess, PathBuf), String> {
        let dir = store_root.join(format!("{run_tag}-{i}"));
        let _ = std::fs::remove_dir_all(&dir);
        let process = ServerProcess::spawn(workload, &dir).map_err(|e| format!("spawn: {e}"))?;
        Ok((process, dir))
    };
    let (server, server_dir) = spawn(0)?;
    let mut setups = vec![server.setup.as_secs_f64()];
    let addr = server.addr();

    // Correctness gate, before any timing.
    let gate_ops = sequence(workload, &inputs, "gate");
    let (gate, gate_docs) = load::gate(addr, &gate_ops, &inputs, &oracle);
    let mut problems: Vec<String> = gate.mismatches.clone();
    if gate.ok != gate_ops.len() as u64 {
        problems.push(format!(
            "gate: {} of {} requests ok",
            gate.ok,
            gate_ops.len()
        ));
    }
    let (model_uj, model_pj) = model_energy(&gate_docs);

    let spec = LoadSpec {
        addr,
        workload,
        inputs: &inputs,
        oracle: &oracle,
        seed: args.seed,
        clients: proc::nproc(),
    };
    let _ = load::closed_loop(spec, &mut load::Feed::closed(spec, "warm"), WARMUP);
    let block_s = args.seconds as f64 / BLOCKS as f64;
    let ticks_before = proc::host_ticks();
    let mut feeds = load::Feeds::new(spec);
    let mut blocks = Vec::with_capacity(BLOCKS);
    for b in 0..BLOCKS {
        let (probe, dir) = spawn(b + 1)?;
        setups.push(probe.setup.as_secs_f64());
        probe.stop().map_err(|e| format!("stop: {e}"))?;
        let _ = std::fs::remove_dir_all(&dir);
        blocks.push(load::run_block(
            spec,
            &mut feeds,
            settings.open_rps,
            (
                Duration::from_secs_f64(block_s * CLOSED_SHARE),
                Duration::from_secs_f64(block_s * (1.0 - CLOSED_SHARE)),
            ),
            || server.cpu_us(),
            proc::host_ticks,
        ));
    }
    let steal_pct = load::steal_pct(ticks_before, proc::host_ticks());
    // throughput_rps, p50_us and cpu_us_per_req are medians over the half
    // of the blocks the hypervisor stole the least from, so a slow spell
    // of the host does not move them. Every block's requests are counted
    // and checked.
    let kept = load::least_stolen(&blocks, BLOCKS.div_ceil(2));
    let block_steal: Vec<f64> = blocks.iter().map(|b| b.steal_pct).collect();
    let block_rows = Json::Arr(
        blocks
            .iter()
            .map(|b| {
                Json::obj(vec![
                    ("steal_pct", Json::from(b.steal_pct)),
                    ("throughput_rps", Json::from(b.throughput_rps())),
                    ("p50_us", Json::from(b.open.p50_us())),
                    (
                        "cpu_us_per_req",
                        b.cpu_us_per_req().map_or(Json::Null, Json::from),
                    ),
                ])
            })
            .collect(),
    );
    let block_rps: Vec<f64> = kept.iter().map(|&b| blocks[b].throughput_rps()).collect();
    let block_p50: Vec<f64> = kept.iter().map(|&b| blocks[b].open.p50_us()).collect();
    let block_cpu: Vec<f64> = kept
        .iter()
        .filter_map(|&b| blocks[b].cpu_us_per_req())
        .collect();
    // p90_us takes its windows from the kept blocks too, joined in run
    // order; the set-aside blocks are appended after them for the counts.
    let window = workload.tail_window();
    let (mut kept_blocks, mut set_aside) = (Vec::new(), Vec::new());
    for (b, block) in blocks.into_iter().enumerate() {
        if kept.contains(&b) {
            kept_blocks.push(block);
        } else {
            set_aside.push(block);
        }
    }
    let (mut closed, mut open) = load::join(kept_blocks);
    let window_p90: Vec<f64> = open
        .window_tails(90.0, window)
        .iter()
        .map(|t| t.value)
        .collect();
    let (aside_closed, aside_open) = load::join(set_aside);
    closed.append(aside_closed);
    open.append(aside_open);
    let peak_rss_mb = server.peak_rss_mb().unwrap_or(0.0);
    let stats_doc = client::get(addr, "/v1/stats")
        .ok()
        .and_then(|(status, body)| (status == 200).then_some(body))
        .and_then(|body| Json::parse(&body).ok())
        .ok_or("could not read /v1/stats")?;
    let lone = args
        .trace
        .then(|| load::lone_client(addr, &sequence(workload, &inputs, "lone"), &inputs, &oracle));
    server.stop().map_err(|e| format!("stop: {e}"))?;
    let _ = std::fs::remove_dir_all(&server_dir);

    for phase in [&closed, &open].into_iter().chain(lone.as_ref()) {
        problems.extend(phase.mismatches.iter().cloned());
    }
    let valid = !open.fell_behind();

    let tail = open.tail();
    let window_tails = open.window_tails(99.0, load::WINDOW_SAMPLES);
    let window_p99: Vec<f64> = window_tails.iter().map(|t| t.value).collect();
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let e2e = vec![
        Metric {
            spread: Some(Spread::of(&setups)),
            ..metric("setup_s", stats::median(&setups), "s")
        },
        Metric {
            spread: Some(Spread::of(&block_rps)),
            ..metric("throughput_rps", stats::median(&block_rps), "1/s")
        },
        Metric {
            spread: Some(Spread::of(&block_p50)),
            ..metric("p50_us", stats::median(&block_p50), "us")
        },
        Metric {
            spread: (!window_p90.is_empty()).then(|| Spread::of(&window_p90)),
            ..metric("p90_us", median_or_zero(&window_p90), "us")
        },
        Metric {
            spread: (!block_cpu.is_empty()).then(|| Spread::of(&block_cpu)),
            ..metric("cpu_us_per_req", median_or_zero(&block_cpu), "us")
        },
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("model_uj_per_inf", model_uj, "uJ"),
        metric("model_pj_per_sop", model_pj, "pJ"),
    ];

    println!();
    println!(
        "== {} · lanes {} · shards {} · slices {} · warm capacity {} · open loop {} rps · {} clients",
        workload.name(),
        settings.lanes,
        settings.shards,
        settings.slices,
        settings
            .warm_capacity
            .map_or("none (no store)".to_owned(), |c| format!("{c}, fsync {FSYNC:?}")),
        settings.open_rps,
        spec.clients
    );
    for (name, phase) in [("gate", &gate), ("closed", &closed), ("open", &open)]
        .into_iter()
        .chain(lone.as_ref().map(|l| ("lone", l)))
    {
        println!(
            "  phase {name:<6} sent {:>6}  ok {:>6}  shed {}  failed {}  mismatches {}",
            phase.sent,
            phase.ok,
            phase.shed,
            phase.failed,
            phase.mismatches.len()
        );
    }
    let late = if open.lateness_us.is_empty() {
        Spread::of(&[0.0])
    } else {
        Spread::of(&open.lateness_us)
    };
    println!(
        "  open-loop generator lateness: median {:.1} us, max {:.1} us, latest final send of a block {:.0} us → run {}",
        late.median,
        late.max,
        open.final_lateness_us
            .iter()
            .copied()
            .fold(0.0, f64::max),
        if valid {
            "valid"
        } else {
            "INVALID (generator fell behind)"
        }
    );
    let steal = Spread::of(&block_steal);
    println!(
        "  host CPU stolen by the hypervisor while measuring: {steal_pct:.2} % (per block: min {:.2} · median {:.2} · max {:.2})",
        steal.min, steal.median, steal.max
    );
    println!(
        "  {BLOCKS} alternating closed/open blocks; time metrics from the {} least stolen from: {kept:?}; throughput_rps, p50_us and cpu_us_per_req are medians over them",
        kept.len()
    );
    if let Some(first) = window_tails.first() {
        println!(
            "  p90_us: median over {} windows of at least {window} open-loop requests of the kept blocks, of each window's p90",
            window_p90.len(),
        );
        println!(
            "  p99 (not gated): windowed p{:.2} (the highest with {} beyond) {:.1} us · pooled {}",
            first.percentile,
            stats::MIN_BEYOND,
            median_or_zero(&window_p99),
            tail.map_or("n/a".to_owned(), |t| format!(
                "p{:.2} of {} samples {:.1} us",
                t.percentile, t.samples, t.value
            ))
        );
    }
    print_metrics("end to end", &e2e);

    let mut per_layer = Vec::new();
    if args.trace {
        let lone = lone.as_ref().expect("traced runs have a lone-client pass");
        let replay_dir = store_root.join(format!("{run_tag}-replay"));
        let layer = replay_metrics(
            workload,
            &network,
            &inputs,
            &replay_dir,
            lone,
            &gate_docs,
            &stats_doc,
            &mut problems,
        );
        let _ = std::fs::remove_dir_all(&replay_dir);
        per_layer = layer.metrics;
        write_file(
            &run_dir(workload).join(format!("spans-seed{}.jsonl", args.seed)),
            &layer.spans,
        );
        print_metrics("per layer", &per_layer);
    }

    let correct = problems.is_empty();
    for p in problems.iter().take(10) {
        eprintln!("{}: MISMATCH {p}", workload.name());
    }
    println!("  correct: {correct}");
    let (attempted, failed) = [&closed, &open]
        .into_iter()
        .chain(lone.as_ref())
        .fold((gate.sent, gate.shed + gate.failed), |(s, f), p| {
            (s + p.sent, f + p.shed + p.failed)
        });

    let metrics = if args.trace { per_layer } else { e2e };
    let detail = Json::obj(vec![
        ("workload", Json::from(workload.name())),
        ("mode", Json::from(args.mode())),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        ("valid", Json::from(valid)),
        ("host_steal_pct", Json::from(steal_pct)),
        ("blocks", block_rows),
        (
            "kept_blocks",
            Json::Arr(kept.iter().map(|&b| Json::from(b)).collect()),
        ),
        ("correct", Json::from(correct)),
        ("host", fingerprint_json(fingerprint)),
        (
            "settings",
            Json::obj(vec![
                ("lanes", Json::from(settings.lanes)),
                ("shards", Json::from(settings.shards)),
                ("slices", Json::from(settings.slices)),
                (
                    "warm_capacity",
                    settings.warm_capacity.map_or(Json::Null, Json::from),
                ),
                (
                    "fsync",
                    Json::from(if settings.warm_capacity.is_some() {
                        format!("{FSYNC:?}").to_lowercase()
                    } else {
                        "none".to_owned()
                    }),
                ),
                ("open_rps", Json::from(settings.open_rps)),
                ("clients", Json::from(spec.clients)),
            ]),
        ),
        (
            "phases",
            Json::obj(vec![
                ("gate", phase_json(&gate)),
                ("closed", phase_json(&closed)),
                ("open", phase_json(&open)),
            ]),
        ),
        (
            "open_tail",
            Json::obj(vec![
                ("p90_windows", Json::from(window_p90.len())),
                ("p90_window_requests", Json::from(window)),
                ("p99_windows", Json::from(window_tails.len())),
                (
                    "window_p90_median_us",
                    Json::from(median_or_zero(&window_p90)),
                ),
                (
                    "window_p99_median_us",
                    Json::from(median_or_zero(&window_p99)),
                ),
                (
                    "window_p99_percentile",
                    window_tails
                        .first()
                        .map_or(Json::Null, |t| Json::from(t.percentile)),
                ),
                (
                    "pooled_p99_us",
                    tail.map_or(Json::Null, |t| Json::from(t.value)),
                ),
                (
                    "pooled_percentile",
                    tail.map_or(Json::Null, |t| Json::from(t.percentile)),
                ),
            ]),
        ),
        ("metrics", metrics_json(&metrics)),
    ]);
    write_file(
        &run_dir(workload).join(format!(
            "{}-seed{}-trace{}.json",
            args.mode(),
            args.seed,
            u8::from(args.trace)
        )),
        &format!("{detail}\n"),
    );
    Ok(RunOutcome {
        correct,
        attempted,
        failed,
        metrics,
    })
}

/// Modelled energy per inference (or per closed session) and per SOP,
/// from the served bodies of the gate: one-shot responses, or the close
/// summaries of a streaming run.
fn model_energy(docs: &[Json]) -> (f64, f64) {
    let results: Vec<&Json> = docs
        .iter()
        .filter(|d| d.get("synaptic_ops").is_some())
        .collect();
    let energy: f64 = results
        .iter()
        .filter_map(|d| d.get("energy_uj").and_then(Json::as_f64))
        .sum();
    let sops: f64 = results
        .iter()
        .filter_map(|d| d.get("synaptic_ops").and_then(Json::as_f64))
        .sum();
    if results.is_empty() || sops == 0.0 {
        return (0.0, 0.0);
    }
    (energy / results.len() as f64, energy * 1e6 / sops)
}

/// The replay's per-layer metrics and its spans as JSON lines.
struct LayerReport {
    metrics: Vec<Metric>,
    spans: String,
}

/// Whether two response documents carry the same modelled counts.
fn same_counts(served: &Json, replayed: &Json) -> bool {
    let bits = |d: &Json, k: &str| d.get(k).and_then(Json::as_f64).map(f64::to_bits);
    let events = |d: &Json| d.get("events").and_then(Json::as_array).map(<[Json]>::len);
    [
        "total_cycles",
        "synaptic_ops",
        "energy_uj",
        "predicted_class",
        "chunks_pushed",
    ]
    .iter()
    .all(|k| bits(served, k) == bits(replayed, k))
        && events(served) == events(replayed)
}

#[allow(clippy::too_many_arguments)]
fn replay_metrics(
    workload: Workload,
    network: &Arc<sne::compile::CompiledNetwork>,
    inputs: &Inputs,
    store_dir: &Path,
    lone: &Phase,
    gate_docs: &[Json],
    stats_doc: &Json,
    problems: &mut Vec<String>,
) -> LayerReport {
    let ops = sequence(workload, inputs, "replay");
    let reps = (REPLAY_REQUESTS / ops.len()).max(1);
    let mut stack = Stack::new(workload, network, store_dir);
    let mut off = Tracer::new(false);
    let mut on = Tracer::new(true);
    let _ = stack.pass(&ops, inputs, "warm-", &mut off);
    let mut traced: Vec<Pass> = Vec::new();
    let mut untraced: Vec<Pass> = Vec::new();
    for rep in 0..reps {
        traced.push(stack.pass(&ops, inputs, &format!("on{rep}-"), &mut on));
        untraced.push(stack.pass(&ops, inputs, &format!("off{rep}-"), &mut off));
    }

    // The counts the server reported must be the replay's.
    let first = &traced[0];
    if first.responses.len() != gate_docs.len() {
        problems.push("replay: response count differs from the gate".to_owned());
    } else if let Some(i) =
        (0..gate_docs.len()).find(|&i| !same_counts(&gate_docs[i], &first.responses[i]))
    {
        problems.push(format!(
            "replay: request {i} counts differ from the served response"
        ));
    }

    let spans = on.spans();
    let layers = trace::layer_times(spans);
    let root_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(trace::Span::duration_ns)
        .sum();
    let self_sum: u64 = layers.values().map(|l| l.self_ns).sum();
    let glue_ns = layers.get("request").map_or(0, |l| l.self_ns);
    let requests = spans.iter().filter(|s| s.parent.is_none()).count().max(1) as f64;
    let per_call_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / l.calls.max(1) as f64 / 1e3)
    };
    let per_request_us = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.self_ns as f64 / requests / 1e3)
    };

    let all_ns = |passes: &[Pass]| -> Vec<f64> {
        passes
            .iter()
            .flat_map(|p| p.request_ns.iter().map(|&n| n as f64))
            .collect()
    };
    let traced_us = stats::mean(&all_ns(&traced)) / 1e3;
    let untraced_us = stats::mean(&all_ns(&untraced)) / 1e3;
    let lone_us = stats::mean(&lone.latencies_us);
    let service: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.service_us.iter().copied())
        .collect();
    let queue: Vec<f64> = traced
        .iter()
        .flat_map(|p| p.queue_us.iter().copied())
        .collect();
    let body_events: u64 = traced.iter().map(|p| p.body_events).sum();
    let snapshot_bytes: Vec<f64> = first.snapshot_bytes.iter().map(|&b| b as f64).collect();

    // Exact counts over one pass.
    let results = &first.results;
    let layer_events: u64 = results
        .iter()
        .flat_map(|r| &r.layers)
        .map(|l| l.input_events)
        .sum();
    let sops: u64 = results.iter().map(|r| r.stats.synaptic_ops).sum();
    let cycles: u64 = results.iter().map(|r| r.stats.total_cycles).sum();
    let first_service_ns: f64 = first.service_us.iter().sum::<f64>() * 1e3;

    let model = stats_doc
        .get("models")
        .and_then(|m| m.get(crate::workload::MODEL));
    let stat = |key: &str| {
        model
            .and_then(|m| m.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let durability = |key: &str| {
        stats_doc
            .get("durability")
            .and_then(|d| d.get(key))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let accepted: Vec<f64> = stats_doc
        .get("shards")
        .and_then(Json::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|s| s.get("accepted").and_then(Json::as_f64))
        .collect();
    let imbalance = if stats::mean(&accepted) > 0.0 {
        accepted.iter().copied().fold(0.0, f64::max) / stats::mean(&accepted)
    } else {
        0.0
    };
    let (hits, misses) = (stat("affinity_hits"), stat("affinity_misses"));
    let pushes = stats_doc
        .get("routes")
        .and_then(|r| r.get("stream_push"))
        .and_then(|r| r.get("requests"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let faulted_in = durability("faulted_in");
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut metrics = vec![
        metric("http.parse_us", per_call_us("http.parse"), "us"),
        metric("http.render_us", per_call_us("http.render"), "us"),
        metric("json.decode_us", per_call_us("json.decode"), "us"),
        metric(
            "json.decode_ns_per_event",
            ratio(
                layers.get("json.decode").map_or(0.0, |l| l.self_ns as f64),
                body_events as f64,
            ),
            "ns",
        ),
        metric("json.encode_us", per_call_us("json.encode"), "us"),
        metric("event.build_us", per_call_us("event.build"), "us"),
        metric("serve.unattributed_us", lone_us - untraced_us, "us"),
        metric("serve.shard_imbalance", imbalance, "ratio"),
        metric("batch.queue_us", stats::mean(&queue), "us"),
        metric("batch.steals", stat("steals"), "count"),
        metric("batch.coalesced", stat("coalesced"), "count"),
        metric(
            "batch.affinity_hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        metric("engine.service_us", stats::mean(&service), "us"),
        metric(
            "engine.ns_per_layer_event",
            ratio(first_service_ns, layer_events as f64),
            "ns",
        ),
        metric("engine.layer_events", layer_events as f64, "count"),
        metric("engine.sops", sops as f64, "count"),
        metric("engine.model_cycles", cycles as f64, "count"),
    ];
    for n in 0..SIM_LAYERS {
        let sum = |f: &dyn Fn(&sne::run::LayerExecution) -> u64| -> f64 {
            results
                .iter()
                .filter_map(|r| r.layers.get(n))
                .map(f)
                .sum::<u64>() as f64
        };
        metrics.push(metric(
            &format!("sim.layer{n}.input_events"),
            sum(&|l| l.input_events),
            "count",
        ));
        metrics.push(metric(
            &format!("sim.layer{n}.output_events"),
            sum(&|l| l.output_events),
            "count",
        ));
        metrics.push(metric(
            &format!("sim.layer{n}.model_cycles"),
            sum(&|l| l.stats.total_cycles),
            "count",
        ));
    }
    metrics.extend([
        metric("snapshot.encode_us", per_call_us("snapshot.encode"), "us"),
        metric("snapshot.decode_us", per_call_us("snapshot.decode"), "us"),
        metric("snapshot.bytes", stats::mean(&snapshot_bytes), "bytes"),
        metric("store.park_us", per_call_us("store.park"), "us"),
        metric("store.load_us", per_call_us("store.load"), "us"),
        metric("store.parked", durability("parked_to_disk"), "count"),
        metric("store.faulted_in", faulted_in, "count"),
        metric(
            "session.warm_hit_ratio",
            if pushes > 0.0 {
                1.0 - faulted_in / pushes
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.overhead_us", traced_us - untraced_us, "us"),
        metric("replay.request_us", untraced_us, "us"),
        metric(
            "replay.glue_pct",
            ratio(glue_ns as f64, root_ns as f64) * 100.0,
            "%",
        ),
    ]);

    // The traced run's purpose checks.
    let engine_us = per_request_us("engine");
    let request_path_us: f64 = [
        "http.parse",
        "json.decode",
        "event.build",
        "json.encode",
        "http.render",
    ]
    .iter()
    .map(|n| per_request_us(n))
    .sum();
    let top = layers
        .iter()
        .filter(|(name, _)| **name != "request")
        .max_by_key(|(_, l)| l.self_ns)
        .map_or("none", |(name, _)| *name);
    let glue_pct = ratio(glue_ns as f64, root_ns as f64) * 100.0;
    println!(
        "  replay: {reps} pass(es) of {} requests per arm · {:.1} us/request traced, {:.1} untraced · lone client {:.1} us",
        ops.len(),
        traced_us,
        untraced_us,
        lone_us
    );
    println!(
        "  add-back: layer self times sum to {} of {} ns per replay ({:.2} % is replay glue, tolerance {GLUE_TOLERANCE_PCT} %) → {}",
        self_sum,
        root_ns,
        glue_pct,
        pass_fail(self_sum == root_ns && glue_pct <= GLUE_TOLERANCE_PCT)
    );
    let mut shares = String::new();
    for (name, l) in &layers {
        let _ = write!(
            shares,
            " {name} {:.1}%",
            ratio(l.self_ns as f64, root_ns as f64) * 100.0
        );
    }
    println!("  self-time shares:{shares}");
    match workload {
        Workload::InferFig6Gesture => println!(
            "  purpose: engine has the largest self time (top layer: {top}) → {}",
            pass_fail(top == "engine")
        ),
        Workload::InferTiny => println!(
            "  purpose: request path {request_path_us:.1} us + unattributed {:.1} us > engine {engine_us:.1} us → {}",
            lone_us - untraced_us,
            pass_fail(request_path_us + lone_us - untraced_us > engine_us)
        ),
        Workload::StreamDurable => println!(
            "  purpose: parked {} · faulted in {} · warm hit ratio {:.3} → {}",
            durability("parked_to_disk"),
            faulted_in,
            1.0 - ratio(faulted_in, pushes),
            pass_fail(durability("parked_to_disk") > 0.0 && faulted_in > 0.0 && faulted_in < pushes)
        ),
    }
    if !workload.is_stream() {
        println!(
            "  purpose: no parks on a one-shot workload (parked {}) → {}",
            durability("parked_to_disk"),
            pass_fail(durability("parked_to_disk") == 0.0)
        );
    }
    LayerReport {
        metrics,
        spans: trace::to_json_lines(spans),
    }
}

fn pass_fail(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        let spread = m.spread.map_or(String::new(), |s| {
            format!(
                "   [min {:.4} · q1 {:.4} · median {:.4} · q3 {:.4} · max {:.4}]",
                s.min, s.q1, s.median, s.q3, s.max
            )
        });
        println!("    {:<28} {:>16.4} {:<6}{spread}", m.name, m.value, m.unit);
    }
}

fn fingerprint_json(f: &Fingerprint) -> Json {
    Json::obj(vec![
        ("nproc", Json::from(f.nproc)),
        ("cpu", Json::from(f.cpu.as_str())),
        ("kernel", Json::from(f.kernel.as_str())),
        ("rustc", Json::from(f.rustc.as_str())),
        ("store_fs", Json::from(f.store_fs.as_str())),
    ])
}

fn phase_json(p: &Phase) -> Json {
    let late = if p.lateness_us.is_empty() {
        None
    } else {
        Some(Spread::of(&p.lateness_us))
    };
    Json::obj(vec![
        ("sent", Json::from(p.sent)),
        ("ok", Json::from(p.ok)),
        ("shed", Json::from(p.shed)),
        ("failed", Json::from(p.failed)),
        ("mismatches", Json::from(p.mismatches.len())),
        ("duration_s", Json::from(p.duration_s)),
        (
            "lateness_median_us",
            late.map_or(Json::Null, |s| Json::from(s.median)),
        ),
        (
            "lateness_max_us",
            late.map_or(Json::Null, |s| Json::from(s.max)),
        ),
        ("fell_behind", Json::from(p.fell_behind())),
    ])
}

fn spread_json(s: &Spread) -> Json {
    Json::obj(vec![
        ("min", Json::from(s.min)),
        ("q1", Json::from(s.q1)),
        ("median", Json::from(s.median)),
        ("q3", Json::from(s.q3)),
        ("max", Json::from(s.max)),
    ])
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut members =
                    vec![("value", Json::from(m.value)), ("unit", Json::from(m.unit))];
                if let Some(s) = &m.spread {
                    members.push(("spread", spread_json(s)));
                }
                (m.name.clone(), Json::obj(members))
            })
            .collect(),
    )
}

fn run_dir(workload: Workload) -> PathBuf {
    proc::out_dir().join("runs").join(workload.name())
}

fn write_file(path: &Path, contents: &str) {
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// Directory of the committed results, one file per workload.
fn results_dir() -> PathBuf {
    PathBuf::from("perfbench").join("results")
}

/// Prints min, quartiles, median and max of every metric over the full,
/// valid, correct runs of each workload found under `.bench_out/runs`.
/// With `record`, writes the summary to `perfbench/results/<workload>.json`
/// — only from at least [`RECORD_MIN_RUNS`] full-mode runs, so a smoke or
/// short run can never replace the committed result.
pub fn summarize(workloads: &[Workload], record: bool) {
    for &workload in workloads {
        for trace in [0, 1] {
            let suffix = format!("-trace{trace}.json");
            let mut runs: Vec<Json> = std::fs::read_dir(run_dir(workload))
                .into_iter()
                .flatten()
                .flatten()
                .filter(|e| {
                    let name = e.file_name().to_string_lossy().into_owned();
                    name.starts_with("full-") && name.ends_with(&suffix)
                })
                .filter_map(|e| std::fs::read_to_string(e.path()).ok())
                .filter_map(|s| Json::parse(s.trim()).ok())
                .filter(|d| {
                    d.get("mode").and_then(Json::as_str) == Some("full")
                        && d.get("valid").and_then(Json::as_bool) == Some(true)
                        && d.get("correct").and_then(Json::as_bool) == Some(true)
                })
                .collect();
            runs.sort_by_key(|d| d.get("seed").and_then(Json::as_u64));
            if runs.is_empty() {
                continue;
            }
            let mut values: BTreeMap<String, (Vec<f64>, String)> = BTreeMap::new();
            let mut order: Vec<String> = Vec::new();
            for run in &runs {
                if let Some(Json::Obj(members)) = run.get("metrics") {
                    for (name, m) in members {
                        let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                        let unit = m
                            .get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_owned();
                        if !values.contains_key(name) {
                            order.push(name.clone());
                        }
                        values
                            .entry(name.clone())
                            .or_insert_with(|| (Vec::new(), unit))
                            .0
                            .push(value);
                    }
                }
            }
            println!(
                "== {} · trace {trace} · {} full runs",
                workload.name(),
                runs.len()
            );
            let mut summary = Vec::new();
            for name in &order {
                let (v, unit) = &values[name];
                let s = Spread::of(v);
                println!(
                    "  {name:<28} median {:>14.4} {unit:<6} iqr/median {:>7.4}  [min {:.4} · q1 {:.4} · q3 {:.4} · max {:.4}]",
                    s.median,
                    s.relative_iqr(),
                    s.min,
                    s.q1,
                    s.q3,
                    s.max
                );
                let mut members = match spread_json(&s) {
                    Json::Obj(m) => m,
                    _ => unreachable!("spread_json builds an object"),
                };
                members.push(("unit".to_owned(), Json::from(unit.as_str())));
                members.push(("relative_iqr".to_owned(), Json::from(s.relative_iqr())));
                summary.push((name.clone(), Json::Obj(members)));
            }
            if record {
                if runs.len() < RECORD_MIN_RUNS {
                    println!(
                        "  not recorded: {} full runs, {RECORD_MIN_RUNS} needed",
                        runs.len()
                    );
                    continue;
                }
                let seeds: Vec<Json> = runs.iter().filter_map(|d| d.get("seed").cloned()).collect();
                let doc = Json::obj(vec![
                    ("workload", Json::from(workload.name())),
                    ("trace", Json::from(trace == 1)),
                    ("mode", Json::from("full")),
                    ("runs", Json::from(runs.len())),
                    ("seeds", Json::Arr(seeds)),
                    ("host", runs[0].get("host").cloned().unwrap_or(Json::Null)),
                    (
                        "settings",
                        runs[0].get("settings").cloned().unwrap_or(Json::Null),
                    ),
                    (
                        "seconds",
                        runs[0].get("seconds").cloned().unwrap_or(Json::Null),
                    ),
                    ("metrics", Json::Obj(summary)),
                ]);
                let path = results_dir().join(format!("{}-trace{trace}.json", workload.name()));
                write_file(&path, &format!("{doc}\n"));
                println!("  recorded {}", path.display());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_energy_averages_results_and_divides_by_sops() {
        let docs = vec![
            Json::parse(r#"{"energy_uj": 2.0, "synaptic_ops": 1000000}"#).unwrap(),
            Json::parse(r#"{"energy_uj": 4.0, "synaptic_ops": 3000000}"#).unwrap(),
            Json::parse(r#"{"total_cycles": 5}"#).unwrap(),
        ];
        let (uj, pj) = model_energy(&docs);
        assert_eq!(uj, 3.0);
        assert_eq!(pj, 1.5);
    }

    #[test]
    fn counts_compare_bit_for_bit() {
        let a = Json::parse(r#"{"total_cycles": 10, "energy_uj": 0.1, "events": [[0,0,0,0]]}"#)
            .unwrap();
        let b = Json::parse(
            r#"{"total_cycles": 10, "energy_uj": 0.1, "events": [[1,1,1,1]], "lane": 3}"#,
        )
        .unwrap();
        let c = Json::parse(
            r#"{"total_cycles": 10, "energy_uj": 0.10000000000000002, "events": [[0,0,0,0]]}"#,
        )
        .unwrap();
        assert!(same_counts(&a, &b));
        assert!(!same_counts(&a, &c));
    }
}

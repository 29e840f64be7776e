//! The load generator: a correctness gate, a closed loop and an open loop
//! over keep-alive loopback connections, each response checked against the
//! oracle and each outcome counted.

use std::collections::HashSet;
use std::net::SocketAddr;
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

use sne_serve::client::Connection;
use sne_serve::Json;

use crate::stats::{self, Tail};
use crate::workload::{due_s, Inputs, Op, Oracle, Script, Workload};

/// Longest a response may take before the request counts as failed.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// Requests per open-loop window of the p99 report: enough for a p96.7
/// with 10 samples beyond it, short enough that a host stall spoils only
/// a few windows.
pub const WINDOW_SAMPLES: usize = 300;

/// What one phase sent and got back.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests sent.
    pub sent: u64,
    /// 200 responses.
    pub ok: u64,
    /// 429 responses.
    pub shed: u64,
    /// Other statuses, I/O errors and timeouts.
    pub failed: u64,
    /// Responses whose content differed from the oracle's.
    pub mismatches: Vec<String>,
    /// Latency of each ok response, µs (open loop: from its due time).
    pub latencies_us: Vec<f64>,
    /// When each ok request was due (open loop) or sent, s since the
    /// phase start; index-aligned with `latencies_us`.
    pub starts_s: Vec<f64>,
    /// When each shed or failed request was due or sent.
    pub miss_starts_s: Vec<f64>,
    /// How late each send left against its due time, µs (open loop).
    pub lateness_us: Vec<f64>,
    /// How late each client's final send left, µs (open loop).
    pub final_lateness_us: Vec<f64>,
    /// Phase length, s.
    pub duration_s: f64,
    /// Blocks the phase was measured in (see [`interleaved`]).
    pub blocks: usize,
}

impl Phase {
    /// Appends a later block of the same phase: its times are shifted to
    /// start where this phase ends.
    pub fn append(&mut self, mut other: Phase) {
        let offset = self.duration_s;
        for t in other.starts_s.iter_mut().chain(&mut other.miss_starts_s) {
            *t += offset;
        }
        self.duration_s += other.duration_s;
        self.blocks += other.blocks;
        self.merge(other);
    }

    fn merge(&mut self, other: Phase) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.shed += other.shed;
        self.failed += other.failed;
        self.mismatches.extend(other.mismatches);
        self.latencies_us.extend(other.latencies_us);
        self.starts_s.extend(other.starts_s);
        self.miss_starts_s.extend(other.miss_starts_s);
        self.lateness_us.extend(other.lateness_us);
        self.final_lateness_us.extend(other.final_lateness_us);
    }

    /// Latencies with every shed or failed request ranked above every
    /// success, at the phase length: a miss misses any latency limit.
    #[must_use]
    pub fn latencies_with_misses(&self) -> Vec<f64> {
        let miss = self.duration_s * 1e6;
        let mut all = self.latencies_us.clone();
        all.extend(std::iter::repeat_n(
            miss,
            (self.shed + self.failed) as usize,
        ));
        all.sort_by(f64::total_cmp);
        all
    }

    /// Percentile `want` per window: requests are ordered by start time
    /// and cut into consecutive windows of `size`; the remainder, shorter
    /// than a window, joins the last one (one window of all when there
    /// are fewer). Each window's percentile is taken under the percentile
    /// rule, misses ranked last.
    #[must_use]
    pub fn window_tails(&self, want: f64, size: usize) -> Vec<Tail> {
        let miss = self.duration_s * 1e6;
        let mut all: Vec<(f64, f64)> = self
            .starts_s
            .iter()
            .copied()
            .zip(self.latencies_us.iter().copied())
            .chain(self.miss_starts_s.iter().map(|&t| (t, miss)))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        let windows = (all.len() / size.max(1)).max(1);
        (0..windows)
            .filter_map(|w| {
                let end = if w + 1 == windows {
                    all.len()
                } else {
                    (w + 1) * size
                };
                let mut lat: Vec<f64> = all[w * size..end].iter().map(|s| s.1).collect();
                lat.sort_by(f64::total_cmp);
                stats::tail(&lat, want)
            })
            .collect()
    }

    /// Median latency, µs.
    #[must_use]
    pub fn p50_us(&self) -> f64 {
        let all = self.latencies_with_misses();
        if all.is_empty() {
            0.0
        } else {
            stats::percentile(&all, 50.0)
        }
    }

    /// The p99 tail under the percentile rule.
    #[must_use]
    pub fn tail(&self) -> Option<Tail> {
        stats::tail(&self.latencies_with_misses(), 99.0)
    }

    /// Whether the open-loop generator fell behind its schedule: some
    /// client's final send of a block left more than a tenth of the block
    /// late.
    #[must_use]
    pub fn fell_behind(&self) -> bool {
        let limit = self.duration_s * 1e6 / 10.0 / self.blocks.max(1) as f64;
        self.final_lateness_us.iter().any(|&l| l > limit)
    }
}

/// One keep-alive connection that reconnects after an I/O error.
struct Client {
    addr: SocketAddr,
    conn: Option<Connection>,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Self { addr, conn: None }
    }

    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        if self.conn.is_none() {
            let conn = Connection::connect(self.addr)?;
            conn.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
            self.conn = Some(conn);
        }
        let result = self
            .conn
            .as_mut()
            .expect("connected above")
            .post(path, body);
        if result.is_err() {
            self.conn = None;
        }
        result
    }
}

/// Sends `op` and accounts for the outcome in `phase`; returns the parsed
/// body of a 200. A session whose push was not applied is tainted: its
/// later responses are counted but not checked.
fn send(
    client: &mut Client,
    op: &Op,
    inputs: &Inputs,
    oracle: &Oracle,
    tainted: &mut HashSet<String>,
    phase: &mut Phase,
) -> Option<Json> {
    phase.sent += 1;
    let session = op.session();
    match client.post(&op.path(), op.body(inputs)) {
        Ok((200, body)) => {
            phase.ok += 1;
            let checked = session.is_none_or(|s| !tainted.contains(s));
            match Json::parse(&body) {
                Ok(doc) => {
                    if checked {
                        if let Err(e) = oracle.expected(op).check(&doc) {
                            phase.mismatches.push(format!("{}: {e}", op.path()));
                        }
                    }
                    Some(doc)
                }
                Err(e) => {
                    phase
                        .mismatches
                        .push(format!("{}: unparsable body: {e}", op.path()));
                    None
                }
            }
        }
        Ok((status, _)) => {
            if status == 429 {
                phase.shed += 1;
            } else {
                phase.failed += 1;
            }
            if let Some(s) = session {
                tainted.insert(s.to_owned());
            }
            None
        }
        Err(_) => {
            phase.failed += 1;
            if let Some(s) = session {
                tainted.insert(s.to_owned());
            }
            None
        }
    }
}

/// The correctness gate: sends `ops` in order on one connection and
/// checks each response fully against the oracle. Returns the phase and
/// the parsed 200 bodies, in order.
#[must_use]
pub fn gate(addr: SocketAddr, ops: &[Op], inputs: &Inputs, oracle: &Oracle) -> (Phase, Vec<Json>) {
    let mut client = Client::new(addr);
    let mut phase = Phase::default();
    let mut tainted = HashSet::new();
    let start = Instant::now();
    let docs = ops
        .iter()
        .filter_map(|op| send(&mut client, op, inputs, oracle, &mut tainted, &mut phase))
        .collect();
    phase.duration_s = start.elapsed().as_secs_f64();
    (phase, docs)
}

/// Sends `ops` one at a time on one connection, timing each from its send
/// (the lone-client latency the replay is compared with).
#[must_use]
pub fn lone_client(addr: SocketAddr, ops: &[Op], inputs: &Inputs, oracle: &Oracle) -> Phase {
    let mut client = Client::new(addr);
    let mut phase = Phase::default();
    let mut tainted = HashSet::new();
    let start = Instant::now();
    for op in ops {
        let sent = Instant::now();
        let before = phase.ok;
        let _ = send(&mut client, op, inputs, oracle, &mut tainted, &mut phase);
        if phase.ok > before {
            phase.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
        }
    }
    phase.duration_s = start.elapsed().as_secs_f64();
    phase
}

/// Everything a load phase needs to know.
#[derive(Debug, Clone, Copy)]
pub struct LoadSpec<'a> {
    /// Server address.
    pub addr: SocketAddr,
    /// Traffic mix.
    pub workload: Workload,
    /// Seeded inputs.
    pub inputs: &'a Inputs,
    /// Expected responses.
    pub oracle: &'a Oracle,
    /// Run seed (scripts derive from it).
    pub seed: u64,
    /// Client threads, one keep-alive connection each.
    pub clients: usize,
}

/// A request script with the sessions whose responses it no longer checks
/// (a push that was not applied taints its session). A feed is kept
/// across the blocks of a run, so streamed sessions carry on where the
/// last block stopped.
#[derive(Debug)]
pub struct Feed {
    script: Script,
    tainted: HashSet<String>,
}

impl Feed {
    /// One feed per closed-loop client, scripted for `phase`.
    #[must_use]
    pub fn closed(spec: LoadSpec<'_>, phase: &str) -> Vec<Feed> {
        (0..spec.clients)
            .map(|c| Self::new(spec, phase, c, spec.clients))
            .collect()
    }

    /// The single feed of an open loop, scripted for `phase`.
    #[must_use]
    pub fn open(spec: LoadSpec<'_>, phase: &str) -> Feed {
        Self::new(spec, phase, 0, 1)
    }

    fn new(spec: LoadSpec<'_>, phase: &str, client: usize, clients: usize) -> Self {
        Self {
            script: Script::new(
                spec.workload,
                spec.inputs,
                spec.seed,
                phase,
                client,
                clients,
            ),
            tainted: HashSet::new(),
        }
    }
}

/// Closed loop: each feed's client sends its next request when the
/// previous one completes, for `duration`. Latency is timed from each
/// send. The phase lasts until the last response is in.
#[must_use]
pub fn closed_loop(spec: LoadSpec<'_>, feeds: &mut [Feed], duration: Duration) -> Phase {
    let barrier = Barrier::new(feeds.len());
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = feeds
            .iter_mut()
            .map(|feed| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::new(spec.addr);
                    let mut phase = Phase::default();
                    barrier.wait();
                    let t0 = Instant::now();
                    // The clock is read before the next request is taken,
                    // so a feed never loses a request it did not send.
                    while t0.elapsed() < duration {
                        let Some(op) = feed.script.next() else { break };
                        let sent = Instant::now();
                        let before = phase.ok;
                        let _ = send(
                            &mut client,
                            &op,
                            spec.inputs,
                            spec.oracle,
                            &mut feed.tainted,
                            &mut phase,
                        );
                        if phase.ok > before {
                            phase.latencies_us.push(sent.elapsed().as_secs_f64() * 1e6);
                            phase.starts_s.push((sent - t0).as_secs_f64());
                        } else {
                            phase.miss_starts_s.push((sent - t0).as_secs_f64());
                        }
                    }
                    phase.duration_s = t0.elapsed().as_secs_f64();
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    let mut total = Phase {
        duration_s: parts.iter().map(|p| p.duration_s).fold(0.0, f64::max),
        blocks: 1,
        ..Phase::default()
    };
    for part in parts {
        total.merge(part);
    }
    total
}

/// Open loop at a fixed `rate` for `duration`: slot `k` is due at
/// `k / rate` after the start and carries the next request of `feed`.
/// Whichever of the `spec.clients` clients is free takes the next slot
/// and sends it when due, so a slow response delays later slots only
/// while every client is busy. A push or close waits until the previous
/// request of its session has completed. Latency is timed from the due
/// time, so a stall counts against every request it delays; how late
/// each send left is recorded too.
#[must_use]
pub fn open_loop(spec: LoadSpec<'_>, feed: &mut Feed, rate: f64, duration: Duration) -> Phase {
    let slots = (rate * duration.as_secs_f64()).round() as usize;
    let ops: Vec<Op> = feed.script.by_ref().take(slots).collect();
    let slots = ops.len();
    // Next slot to take, sessions with a request in flight, and sessions
    // whose responses are no longer checked.
    let state = Mutex::new((
        0usize,
        HashSet::<String>::new(),
        std::mem::take(&mut feed.tainted),
    ));
    let freed = Condvar::new();
    let barrier = Barrier::new(spec.clients);
    let t0 = std::sync::OnceLock::new();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.clients)
            .map(|_| {
                let (barrier, state, freed, ops, t0) = (&barrier, &state, &freed, &ops, &t0);
                scope.spawn(move || {
                    let mut client = Client::new(spec.addr);
                    let mut phase = Phase::default();
                    barrier.wait();
                    let t0 = *t0.get_or_init(Instant::now);
                    loop {
                        let (k, mut tainted) = {
                            let mut guard = state.lock().expect("open-loop state poisoned");
                            loop {
                                let (next, in_flight, _) = &*guard;
                                let busy = ops
                                    .get(*next)
                                    .and_then(Op::session)
                                    .is_some_and(|s| in_flight.contains(s));
                                if !busy {
                                    break;
                                }
                                guard = freed.wait(guard).expect("open-loop state poisoned");
                            }
                            let (next, in_flight, tainted) = &mut *guard;
                            let k = *next;
                            if k >= slots {
                                break;
                            }
                            *next += 1;
                            let mut local = HashSet::new();
                            if let Some(session) = ops[k].session() {
                                in_flight.insert(session.to_owned());
                                if tainted.contains(session) {
                                    local.insert(session.to_owned());
                                }
                            }
                            (k, local)
                        };
                        let op = &ops[k];
                        let due = t0 + Duration::from_secs_f64(due_s(k, rate));
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        phase.lateness_us.push((sent - due).as_secs_f64() * 1e6);
                        let before = phase.ok;
                        let _ = send(
                            &mut client,
                            op,
                            spec.inputs,
                            spec.oracle,
                            &mut tainted,
                            &mut phase,
                        );
                        if phase.ok > before {
                            phase.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
                            phase.starts_s.push((due - t0).as_secs_f64());
                        } else {
                            phase.miss_starts_s.push((due - t0).as_secs_f64());
                        }
                        if let Some(session) = op.session() {
                            let mut guard = state.lock().expect("open-loop state poisoned");
                            guard.1.remove(session);
                            guard.2.extend(tainted);
                            freed.notify_all();
                        }
                    }
                    phase
                        .final_lateness_us
                        .extend(phase.lateness_us.last().copied());
                    phase
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client panicked"))
            .collect()
    });
    feed.tainted = state.into_inner().expect("open-loop state poisoned").2;
    let mut total = Phase {
        duration_s: duration.as_secs_f64(),
        blocks: 1,
        ..Phase::default()
    };
    for part in parts {
        total.merge(part);
    }
    total
}

/// One block of the measured run: a closed loop, then an open loop.
#[derive(Debug)]
pub struct Block {
    /// The closed-loop part.
    pub closed: Phase,
    /// The open-loop part.
    pub open: Phase,
    /// Server CPU time over both parts, µs.
    pub server_cpu_us: Option<f64>,
    /// Host CPU time the hypervisor stole over both parts, %.
    pub steal_pct: f64,
}

impl Block {
    /// Completed closed-loop requests per second.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        self.closed.ok as f64 / self.closed.duration_s
    }

    /// Server CPU time per completed request, µs.
    #[must_use]
    pub fn cpu_us_per_req(&self) -> Option<f64> {
        let completed = self.closed.ok + self.open.ok;
        self.server_cpu_us
            .filter(|_| completed > 0)
            .map(|cpu| cpu / completed as f64)
    }
}

/// The closed-loop feeds and the open-loop feed of a measured run.
#[derive(Debug)]
pub struct Feeds {
    closed: Vec<Feed>,
    open: Feed,
}

impl Feeds {
    /// Fresh feeds for the phases `closed` and `open`.
    #[must_use]
    pub fn new(spec: LoadSpec<'_>) -> Self {
        Self {
            closed: Feed::closed(spec, "closed"),
            open: Feed::open(spec, "open"),
        }
    }
}

/// One block of the measured run: a closed loop for `closed`, then an
/// open loop at `rate` for `open`, each carrying on its feed. A run
/// alternates such blocks, so both phases sample the whole run and a slow
/// spell of the host falls on a few blocks of both rather than on all of
/// one. `server_cpu_us` reads the server's CPU time and `host_ticks` the
/// host's `(all, stolen)` CPU ticks; both are taken around the block.
#[must_use]
pub fn run_block(
    spec: LoadSpec<'_>,
    feeds: &mut Feeds,
    rate: f64,
    (closed, open): (Duration, Duration),
    server_cpu_us: impl Fn() -> Option<f64>,
    host_ticks: impl Fn() -> Option<(u64, u64)>,
) -> Block {
    let (cpu_before, ticks_before) = (server_cpu_us(), host_ticks());
    let closed = closed_loop(spec, &mut feeds.closed, closed);
    let open = open_loop(spec, &mut feeds.open, rate, open);
    Block {
        closed,
        open,
        server_cpu_us: cpu_before.zip(server_cpu_us()).map(|(a, b)| b - a),
        steal_pct: steal_pct(ticks_before, host_ticks()),
    }
}

/// Share of host CPU time stolen between two `(all, stolen)` tick
/// readings, %.
#[must_use]
pub fn steal_pct(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> f64 {
    match (before, after) {
        (Some((a, sa)), Some((b, sb))) if b > a => 100.0 * (sb - sa) as f64 / (b - a) as f64,
        _ => 0.0,
    }
}

/// Indices of the `keep` blocks the hypervisor stole the least from, in
/// run order.
#[must_use]
pub fn least_stolen(blocks: &[Block], keep: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    order.sort_by(|&a, &b| blocks[a].steal_pct.total_cmp(&blocks[b].steal_pct));
    order.truncate(keep);
    order.sort_unstable();
    order
}

/// The blocks' parts joined end to end into one closed and one open
/// phase.
#[must_use]
pub fn join(blocks: impl IntoIterator<Item = Block>) -> (Phase, Phase) {
    let (mut closed, mut open) = (Phase::default(), Phase::default());
    for block in blocks {
        closed.append(block.closed);
        open.append(block.open);
    }
    (closed, open)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misses_rank_above_every_success() {
        let mut phase = Phase {
            latencies_us: (1..=100).map(f64::from).collect(),
            duration_s: 2.0,
            failed: 2,
            shed: 1,
            ..Phase::default()
        };
        let all = phase.latencies_with_misses();
        assert_eq!(all.len(), 103);
        assert_eq!(all[102], 2e6);
        assert_eq!(all[99], 100.0);
        phase.failed = 0;
        phase.shed = 0;
        assert_eq!(phase.p50_us(), 50.0);
    }

    #[test]
    fn window_tails_cut_by_start_time_and_count_misses() {
        // 1200 requests, started in reverse order of their latency within
        // each of four seconds, plus one miss in the last second.
        let mut phase = Phase {
            duration_s: 4.0,
            failed: 1,
            ..Phase::default()
        };
        for w in 0..4 {
            for i in 0..300 {
                if w == 3 && i == 299 {
                    phase.miss_starts_s.push(3.999);
                    continue;
                }
                phase
                    .starts_s
                    .push(f64::from(w) + f64::from(299 - i) / 300.0);
                phase.latencies_us.push(f64::from(i + 1));
            }
        }
        let tails = phase.window_tails(99.0, WINDOW_SAMPLES);
        assert_eq!(tails.len(), 4);
        // 300 samples: the rule reports rank 290 (10 beyond) → p96.67.
        assert!(tails.iter().all(|t| t.samples == 300 && t.value == 290.0));
        assert!((tails[0].percentile - 100.0 * 290.0 / 300.0).abs() < 1e-9);
        // p90 is supported as asked: rank 270, 30 beyond.
        let p90 = phase.window_tails(90.0, WINDOW_SAMPLES);
        assert!(p90.iter().all(|t| t.percentile == 90.0 && t.value == 270.0));
        // 1200 requests make two windows of 500; the last 200 join the
        // second.
        let whole = phase.window_tails(90.0, 500);
        assert_eq!(
            whole.iter().map(|t| t.samples).collect::<Vec<_>>(),
            vec![500, 700]
        );
        // Too few requests for two windows: one window, the whole phase.
        let small = Phase {
            starts_s: (0..50).map(f64::from).collect(),
            latencies_us: (1..=50).map(f64::from).collect(),
            duration_s: 50.0,
            ..Phase::default()
        };
        let tails = small.window_tails(99.0, WINDOW_SAMPLES);
        assert_eq!(tails.len(), 1);
        assert_eq!(tails[0].value, 40.0);
    }

    #[test]
    fn the_least_stolen_blocks_are_kept_in_run_order() {
        let blocks: Vec<Block> = [3.0, 0.5, 9.0, 0.5, 1.0]
            .into_iter()
            .map(|steal_pct| Block {
                closed: Phase::default(),
                open: Phase::default(),
                server_cpu_us: None,
                steal_pct,
            })
            .collect();
        assert_eq!(least_stolen(&blocks, 3), vec![1, 3, 4]);
        assert_eq!(least_stolen(&blocks, 9), vec![0, 1, 2, 3, 4]);
        assert_eq!(steal_pct(Some((100, 5)), Some((300, 25))), 10.0);
        assert_eq!(steal_pct(None, Some((300, 25))), 0.0);
    }

    #[test]
    fn appended_blocks_continue_the_phase_clock() {
        let block = |start: f64| Phase {
            sent: 2,
            ok: 1,
            failed: 1,
            latencies_us: vec![10.0],
            starts_s: vec![start],
            miss_starts_s: vec![start + 0.5],
            final_lateness_us: vec![0.0],
            duration_s: 1.0,
            blocks: 1,
            ..Phase::default()
        };
        let mut phase = Phase::default();
        phase.append(block(0.2));
        phase.append(block(0.3));
        assert_eq!((phase.sent, phase.ok, phase.blocks), (4, 2, 2));
        assert_eq!(phase.duration_s, 2.0);
        assert_eq!(phase.starts_s, vec![0.2, 1.3]);
        assert_eq!(phase.miss_starts_s, vec![0.7, 1.8]);
        // A block is behind when its final send left a tenth of the block
        // (0.1 s) late, not a tenth of the whole phase.
        assert!(!phase.fell_behind());
        phase.final_lateness_us.push(150_000.0);
        assert!(phase.fell_behind());
    }
}

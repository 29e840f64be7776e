//! Measures the durable session store (DESIGN.md §14) and emits a
//! machine-readable `BENCH_store.json`, with **bit-exact round-trip and
//! corruption-rejection asserted before any timing is reported**. Phases:
//!
//! 1. **Codec** — `snapshot_client`/`restore_client` throughput on a
//!    mid-stream client of the 16x16 bench network, with the decoded
//!    state asserted equal to the live one.
//! 2. **Store** — `park`/`load` latency through `SessionStore`, under
//!    both fsync policies: `Never` is the serve default for benchmarks,
//!    `Always` is what the crash-recovery harness runs and is priced
//!    here so the durability cost stays visible.
//! 3. **Recovery** — a store of parked sessions plus three injected
//!    faults (flipped byte, truncated snapshot, torn `.tmp`) is
//!    re-opened and scanned with full validation: every intact session
//!    must be adopted, every fault counted and deleted.
//! 4. **Format gates** — bad magic, header corruption, payload flips,
//!    truncations and a re-sealed future `FORMAT_VERSION` must each fail
//!    with their precise error, never decode.
//!
//! ```bash
//! cargo run --release -p sne_bench --bin store_report            # full run
//! cargo run --release -p sne_bench --bin store_report -- --smoke # CI smoke
//! cargo run --release -p sne_bench --bin store_report -- --out x.json
//! ```

use std::path::PathBuf;
use std::time::Instant;

use sne::artifact::RuntimeArtifact;
use sne::batch::LatencySummary;
use sne::sne_store::{
    fnv1a, FsyncPolicy, Header, SessionStore, StoreError, FORMAT_VERSION, HEADER_LEN,
};
use sne::SneError;
use sne_bench::benchmark_network;
use sne_event::EventStream;
use sne_sim::{ExecStrategy, SneConfig};

/// Chunks pushed before the measured snapshot is taken: the state is
/// mid-stream, not a trivial all-zeros reset.
const WARMUP_CHUNKS: usize = 4;

struct OpResult {
    iters: usize,
    latency: LatencySummary,
    mb_per_s: f64,
}

/// Times `iters` runs of `op`, returning per-op latency and throughput
/// in snapshot megabytes per second.
fn time_op(iters: usize, bytes_per_op: usize, mut op: impl FnMut()) -> OpResult {
    let mut samples = Vec::with_capacity(iters);
    let start = Instant::now();
    for _ in 0..iters {
        let t = Instant::now();
        op();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let elapsed = start.elapsed().as_secs_f64();
    OpResult {
        iters,
        latency: LatencySummary::from_samples_us(&samples),
        mb_per_s: (iters * bytes_per_op) as f64 / elapsed / 1e6,
    }
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sne-store-report-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn hex(id: &str) -> String {
    id.bytes().map(|b| format!("{b:02x}")).collect()
}

/// The recovery validation the serve layer runs at boot: an O(1) header
/// probe against the registered artifact's digest, then a full decode
/// proof before adoption.
fn validates(artifact: &RuntimeArtifact, bytes: &[u8]) -> bool {
    let Ok(header) = Header::parse(bytes) else {
        return false;
    };
    header.artifact_digest == artifact.state_digest() && artifact.restore_client(bytes).is_ok()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = sne_bench::report_out_path(&args, "BENCH_store.json");

    let (codec_iters, park_never_iters, park_always_iters, recovery_sessions) = if smoke {
        (40, 40, 8, 12)
    } else {
        (400, 400, 64, 64)
    };

    // The same 16x16 two-layer eCNN the serve bench runs: the snapshot is
    // a realistically sized mid-stream client state, not a toy.
    let network = benchmark_network(16, 8, 5, 5);
    let artifact = RuntimeArtifact::new(network, SneConfig::with_slices(4)).expect("artifact");
    let mut engine = artifact.new_engine(ExecStrategy::Sequential);
    let mut client = artifact.new_client();
    let feed = sne::proportionality::stream_with_activity((2, 16, 16), 24, 0.03, 4242);
    let chunks: Vec<EventStream> = feed.chunks(4).collect();
    for chunk in chunks.iter().take(WARMUP_CHUNKS) {
        artifact
            .push(&mut engine, &mut client, chunk, true)
            .unwrap();
    }
    let bytes = artifact.snapshot_client(&client);
    let snapshot_bytes = bytes.len();

    // Gate first, time second: the decode must reproduce the live state
    // bit-identically before any throughput number means anything.
    assert_eq!(
        artifact.restore_client(&bytes).unwrap(),
        client,
        "snapshot round-trip is not bit-identical"
    );
    let artifact_bytes = artifact.snapshot_artifact();
    let reloaded = RuntimeArtifact::restore_artifact(&artifact_bytes).unwrap();
    assert_eq!(
        reloaded.state_digest(),
        artifact.state_digest(),
        "artifact snapshot round-trip changed the state digest"
    );

    println!(
        "durable store: {snapshot_bytes} B client snapshot, {} B artifact snapshot (16x16 eCNN, slices 4)",
        artifact_bytes.len()
    );
    println!("round-trip bit-exactness: verified before timing");
    println!();

    // ---- codec phase -------------------------------------------------------
    let encode = time_op(codec_iters, snapshot_bytes, || {
        std::hint::black_box(artifact.snapshot_client(&client));
    });
    let decode = time_op(codec_iters, snapshot_bytes, || {
        std::hint::black_box(artifact.restore_client(&bytes).unwrap());
    });
    println!(
        "encode {:>4} iters: {:>7.1} MB/s   p50 {:>7.1} us   p99 {:>7.1} us",
        encode.iters, encode.mb_per_s, encode.latency.p50_us, encode.latency.p99_us
    );
    println!(
        "decode {:>4} iters: {:>7.1} MB/s   p50 {:>7.1} us   p99 {:>7.1} us",
        decode.iters, decode.mb_per_s, decode.latency.p50_us, decode.latency.p99_us
    );

    // ---- store phase -------------------------------------------------------
    // Re-parking one hot id is exactly the serve write path: every push
    // replaces that session's snapshot through a tmp-file rename.
    let dir = scratch_dir("ops");
    let mut results = Vec::new();
    for (name, policy, iters) in [
        ("park_fsync_never", FsyncPolicy::Never, park_never_iters),
        ("park_fsync_always", FsyncPolicy::Always, park_always_iters),
    ] {
        let mut store = SessionStore::open(dir.join(name), policy).expect("store opens");
        let result = time_op(iters, snapshot_bytes, || {
            store.park("hot", &bytes).expect("park");
        });
        println!(
            "{name:<18} {:>4} iters: {:>7.1} MB/s   p50 {:>7.1} us   p99 {:>7.1} us",
            result.iters, result.mb_per_s, result.latency.p50_us, result.latency.p99_us
        );
        results.push((name, result));
    }
    let store = SessionStore::open(dir.join("park_fsync_never"), FsyncPolicy::Never).unwrap();
    let load = time_op(park_never_iters, snapshot_bytes, || {
        let loaded = store.load("hot").expect("load").expect("present");
        std::hint::black_box(loaded);
    });
    println!(
        "{:<18} {:>4} iters: {:>7.1} MB/s   p50 {:>7.1} us   p99 {:>7.1} us",
        "load", load.iters, load.mb_per_s, load.latency.p50_us, load.latency.p99_us
    );
    results.push(("load", load));

    // ---- recovery phase ----------------------------------------------------
    // A populated store plus three injected faults: a flipped byte inside
    // one snapshot, a truncated snapshot, and a torn in-flight `.tmp`.
    let recovery_dir = scratch_dir("recovery");
    {
        let mut store = SessionStore::open(&recovery_dir, FsyncPolicy::Never).unwrap();
        for s in 0..recovery_sessions {
            store.park(&format!("r{s}"), &bytes).unwrap();
        }
    }
    let victim = recovery_dir.join(format!("s{}.snap", hex("r0")));
    let mut flipped = std::fs::read(&victim).unwrap();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    std::fs::write(&victim, &flipped).unwrap();
    std::fs::write(recovery_dir.join("s6a756e6b.snap"), &bytes[..21]).unwrap();
    std::fs::write(recovery_dir.join("s746f726e.tmp"), b"torn mid-write").unwrap();

    let scan_start = Instant::now();
    let mut store = SessionStore::open(&recovery_dir, FsyncPolicy::Never).unwrap();
    let report = store
        .recover(|_, candidate| validates(&artifact, candidate))
        .expect("recovery scan");
    let scan_ms = scan_start.elapsed().as_secs_f64() * 1e3;
    let recovered = report.recovered.len();
    assert_eq!(
        recovered,
        recovery_sessions - 1,
        "every intact session must be adopted"
    );
    assert_eq!(
        report.discarded, 3,
        "flipped + truncated + torn must each be a counted discard"
    );
    assert!(!victim.exists(), "discarded snapshots must be deleted");
    println!(
        "recover {recovery_sessions} sessions + 3 faults: {recovered} adopted, {} discarded, {scan_ms:.1} ms ({:.1} us/snapshot)",
        report.discarded,
        scan_ms * 1e3 / recovery_sessions as f64
    );

    // ---- format gates ------------------------------------------------------
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(matches!(
        artifact.restore_client(&wrong_magic),
        Err(SneError::Snapshot(StoreError::BadMagic))
    ));
    let mut bad_header = bytes.clone();
    bad_header[9] ^= 0x10;
    assert!(matches!(
        artifact.restore_client(&bad_header),
        Err(SneError::Snapshot(StoreError::HeaderCorrupt))
    ));
    let mut bad_payload = bytes.clone();
    let last = bad_payload.len() - 1;
    bad_payload[last] ^= 0x01;
    assert!(matches!(
        artifact.restore_client(&bad_payload),
        Err(SneError::Snapshot(StoreError::DigestMismatch { .. }))
    ));
    for cut in [3, HEADER_LEN - 1, bytes.len() - 1] {
        assert!(artifact.restore_client(&bytes[..cut]).is_err());
    }
    // A future format version, re-sealed the way a real v2 writer would:
    // refused as UnsupportedVersion, never misread with v1 rules.
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
    let reseal = fnv1a(&future[..HEADER_LEN - 8]);
    future[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&reseal.to_le_bytes());
    assert!(matches!(
        artifact.restore_client(&future),
        Err(SneError::Snapshot(StoreError::UnsupportedVersion(v))) if v == FORMAT_VERSION + 1
    ));
    println!(
        "format gates: magic, header checksum, payload digest, truncation, version — all refused"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&recovery_dir);

    // ---- report ------------------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"store_report\",\n");
    json.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if smoke { "smoke" } else { "full" }
    ));
    json.push_str(&format!("  \"format_version\": {FORMAT_VERSION},\n"));
    json.push_str(&format!(
        "  \"workload\": {{\"network\": \"tiny_16x16\", \"slices\": 4, \"warmup_chunks\": {WARMUP_CHUNKS}}},\n"
    ));
    json.push_str(&format!(
        "  \"snapshot_bytes\": {snapshot_bytes},\n  \"artifact_snapshot_bytes\": {},\n",
        artifact_bytes.len()
    ));
    let mut ops: Vec<(&str, &OpResult)> = vec![("encode", &encode), ("decode", &decode)];
    ops.extend(results.iter().map(|(n, r)| (*n, r)));
    json.push_str("  \"ops\": {\n");
    for (i, (name, r)) in ops.iter().enumerate() {
        json.push_str(&format!(
            "    \"{name}\": {{\"iters\": {}, \"mb_per_s\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"mean_us\": {:.1}}}{}\n",
            r.iters,
            r.mb_per_s,
            r.latency.p50_us,
            r.latency.p99_us,
            r.latency.mean_us,
            if i + 1 < ops.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    json.push_str(&format!(
        "  \"recovery\": {{\"sessions\": {recovery_sessions}, \"injected_faults\": 3, \"recovered\": {recovered}, \"discarded\": {}, \"scan_ms\": {scan_ms:.2}}},\n",
        report.discarded
    ));
    json.push_str(
        "  \"gates\": {\"round_trip_bit_exact\": true, \"corruption_rejected\": true, \"future_version_refused\": true}\n",
    );
    json.push_str("}\n");
    sne_bench::write_report(&out_path, &json);

    println!();
    println!("wrote {}", out_path.display());
}

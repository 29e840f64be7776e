//! Golden-snapshot compatibility suite for the durable store's container
//! format. A v1 client snapshot produced by a fixed seed is **committed**
//! at `tests/fixtures/client_snapshot_v1.snap`; every future revision of
//! the codebase must keep decoding it bit-identically, and a snapshot
//! claiming a newer format version must be refused as
//! `UnsupportedVersion` — never misread as the current layout. Bumping
//! `FORMAT_VERSION` therefore forces a conscious decision here: either
//! keep a v1 decode path or regenerate the fixture and own the break.
//!
//! Regenerate (only on a deliberate format change) with:
//! `cargo test --test snapshot_format regenerate_golden_fixture -- --ignored`

use std::path::PathBuf;

use proptest::prelude::*;
use sne::artifact::{ClientState, RuntimeArtifact};
use sne::compile::CompiledNetwork;
use sne::sne_store::{fnv1a, StoreError, FORMAT_VERSION, HEADER_LEN};
use sne::SneError;
use sne_event::EventStream;
use sne_model::topology::Topology;
use sne_model::Shape;
use sne_sim::{ExecStrategy, SneConfig};

/// Everything that defines the golden snapshot: model seed, engine
/// configuration, feed seed, and how many chunks were pushed before the
/// snapshot was taken.
const GOLDEN_MODEL_SEED: u64 = 2022;
const GOLDEN_FEED_SEED: u64 = 9;
const GOLDEN_CHUNKS: usize = 2;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/client_snapshot_v1.snap")
}

fn golden_artifact() -> RuntimeArtifact {
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(GOLDEN_MODEL_SEED);
    let network =
        CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng).unwrap();
    RuntimeArtifact::new(network, SneConfig::with_slices(2)).unwrap()
}

fn golden_feed() -> Vec<EventStream> {
    sne::proportionality::stream_with_activity((2, 8, 8), 16, 0.05, GOLDEN_FEED_SEED)
        .chunks(4)
        .collect()
}

/// Replays the golden scenario live: the state the fixture must decode to.
fn golden_client(artifact: &RuntimeArtifact) -> ClientState {
    let mut engine = artifact.new_engine(ExecStrategy::Sequential);
    let mut client = artifact.new_client();
    for chunk in golden_feed().iter().take(GOLDEN_CHUNKS) {
        artifact
            .push(&mut engine, &mut client, chunk, true)
            .unwrap();
    }
    client
}

/// Writes the committed fixture. Ignored in normal runs: regenerating is
/// a format break and must be a deliberate act, reviewed together with
/// the `FORMAT_VERSION` bump that requires it.
#[test]
#[ignore = "rewrites the committed golden fixture; run only on a deliberate format change"]
fn regenerate_golden_fixture() {
    let artifact = golden_artifact();
    let bytes = artifact.snapshot_client(&golden_client(&artifact));
    std::fs::create_dir_all(fixture_path().parent().unwrap()).unwrap();
    std::fs::write(fixture_path(), bytes).unwrap();
}

#[test]
fn golden_v1_fixture_decodes_bit_identically_and_resumes() {
    let bytes = std::fs::read(fixture_path()).expect(
        "committed fixture tests/fixtures/client_snapshot_v1.snap missing — \
         regenerate_golden_fixture writes it",
    );
    let artifact = golden_artifact();
    let mut restored = artifact.restore_client(&bytes).unwrap();
    let mut live = golden_client(&artifact);
    assert_eq!(live, restored, "fixture must decode to the replayed state");

    // And it must *behave* identically from here on, not merely compare
    // equal: the remaining chunks advance both states in lockstep.
    let mut engine = artifact.new_engine(ExecStrategy::Sequential);
    for chunk in golden_feed().iter().skip(GOLDEN_CHUNKS) {
        let a = artifact.push(&mut engine, &mut live, chunk, true).unwrap();
        let b = artifact
            .push(&mut engine, &mut restored, chunk, true)
            .unwrap();
        assert_eq!(a, b);
    }
    assert_eq!(artifact.summary(&live), artifact.summary(&restored));
}

#[test]
fn fixture_matches_current_encoder_byte_for_byte() {
    // The committed bytes are exactly what today's encoder emits for the
    // same state — any codec drift (field order, widths, digests) shows
    // up as a byte diff here before it can corrupt real stores.
    let artifact = golden_artifact();
    let fresh = artifact.snapshot_client(&golden_client(&artifact));
    let committed = std::fs::read(fixture_path()).unwrap();
    assert_eq!(fresh, committed);
}

#[test]
fn future_format_versions_are_refused_not_misread() {
    assert_eq!(FORMAT_VERSION, 1, "fixture and version-gate cover v1");
    let mut bytes = std::fs::read(fixture_path()).unwrap();
    // Claim version 2 and re-seal the header checksum, exactly as a v2
    // writer would: the reader must answer UnsupportedVersion — proof the
    // version gate fires before any payload interpretation — rather than
    // decode v2 bytes with v1 rules.
    bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
    let reseal = fnv1a(&bytes[..HEADER_LEN - 8]);
    bytes[HEADER_LEN - 8..HEADER_LEN].copy_from_slice(&reseal.to_le_bytes());
    let artifact = golden_artifact();
    assert!(matches!(
        artifact.restore_client(&bytes),
        Err(SneError::Snapshot(StoreError::UnsupportedVersion(2)))
    ));
}

#[test]
fn tampered_fixtures_fail_with_precise_errors() {
    let artifact = golden_artifact();
    let bytes = std::fs::read(fixture_path()).unwrap();

    // Wrong magic.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(matches!(
        artifact.restore_client(&wrong_magic),
        Err(SneError::Snapshot(StoreError::BadMagic))
    ));

    // A flipped header byte (the digest field itself here) is header
    // corruption, caught by the header's own checksum.
    let mut bad_header = bytes.clone();
    bad_header[9] ^= 0x10;
    assert!(matches!(
        artifact.restore_client(&bad_header),
        Err(SneError::Snapshot(StoreError::HeaderCorrupt))
    ));

    // A torn write (any truncation point) never decodes.
    for cut in [3, HEADER_LEN - 1, HEADER_LEN + 5, bytes.len() - 1] {
        assert!(
            artifact.restore_client(&bytes[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }

    // A flipped payload byte is a payload digest mismatch.
    let mut flipped = bytes.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    assert!(matches!(
        artifact.restore_client(&flipped),
        Err(SneError::Snapshot(StoreError::DigestMismatch { .. }))
    ));
}

proptest! {
    /// The round-trip property behind the whole durable tier, over random
    /// models, feeds and snapshot points: restoring a snapshot yields a
    /// state that is bit-identical *and stays bit-identical under `push`* —
    /// the restored client and the live one advance in lockstep through
    /// the rest of the stream and agree on the final summary.
    #[test]
    fn snapshot_round_trip_resumes_bit_identically(
        model_seed in 0u64..64,
        feed_seed in 0u64..1000,
        snap_after in 0usize..4,
        activity in 0.01f64..0.12,
    ) {
        let mut rng =
            <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(model_seed);
        let network =
            CompiledNetwork::random(&Topology::tiny(Shape::new(2, 8, 8), 4, 3), &mut rng)
                .unwrap();
        let artifact = RuntimeArtifact::new(network, SneConfig::with_slices(2)).unwrap();
        let feed = sne::proportionality::stream_with_activity((2, 8, 8), 16, activity, feed_seed);
        let chunks: Vec<EventStream> = feed.chunks(4).collect();

        let mut engine = artifact.new_engine(ExecStrategy::Sequential);
        let mut live = artifact.new_client();
        for chunk in chunks.iter().take(snap_after) {
            artifact.push(&mut engine, &mut live, chunk, true).unwrap();
        }
        let bytes = artifact.snapshot_client(&live);
        let mut restored = artifact.restore_client(&bytes).unwrap();
        prop_assert_eq!(&restored, &live);

        for chunk in chunks.iter().skip(snap_after) {
            let a = artifact.push(&mut engine, &mut live, chunk, true).unwrap();
            let b = artifact.push(&mut engine, &mut restored, chunk, true).unwrap();
            prop_assert_eq!(a, b);
        }
        prop_assert_eq!(artifact.summary(&live), artifact.summary(&restored));
    }
}

//! The streaming session tier (DESIGN.md §14): the one place the warm/cold
//! policy lives.
//!
//! **Warm** sessions hold their neuron state in memory. With a durable
//! store every successful push also parks a snapshot of the advanced
//! state, so a parked warm session is always current on disk. When the
//! warm tier is full, the least-recently-used parked session is demoted to
//! the **cold** tier — a map move — instead of refusing the newcomer with
//! 503. A push to a cold session faults it back in bit-identically; a
//! snapshot that no longer loads or restores is discarded (file removed,
//! counted once) and costs exactly that one session.
//!
//! Each lifecycle step is one method: [`Sessions::checkout`] before a
//! push, [`Sessions::park`] after a successful one, [`Sessions::release`]
//! after a failed one, [`Sessions::close`], and the boot recovery scan in
//! [`Sessions::open`].
//!
//! Lock order:
//! - the table lock is taken before the store lock, never the reverse
//!   (fault-in and demotion hold both);
//! - the worker's write-ahead park holds only the store lock. The session
//!   stays busy for the whole write, so close and demotion cannot race it,
//!   and a push is parked on disk before it is acknowledged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sne::artifact::{ClientState, RuntimeArtifact};
use sne_store::{Header, SessionStore};

use crate::json::Json;
use crate::server::{error_body, lock_clean};

/// A refused session operation: HTTP status and JSON body.
pub(crate) type Reject = (u16, String);

/// A point-in-time copy of the durability counters
/// ([`crate::Server::durability`]; also under `"durability"` in
/// `/v1/stats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DurabilityStats {
    /// Warm sessions demoted to the disk tier by LRU eviction.
    pub parked_to_disk: u64,
    /// Cold sessions promoted back to memory by a push.
    pub faulted_in: u64,
    /// Snapshots adopted into the cold tier by the boot recovery scan.
    pub recovered_on_boot: u64,
    /// Snapshots discarded as torn, corrupt, or bound to an unregistered
    /// artifact — sessions reported lost rather than resurrected wrong.
    pub corrupt_discarded: u64,
    /// Sessions currently parked on disk.
    pub cold_sessions: u64,
}

/// One warm session. `client` is `None` while a push is in flight for it.
/// `preferred_lane` is the engine that served the last chunk — the
/// affinity hint for the next one. `last_used` is the table's logical
/// clock at the last touch, the LRU key for demotion.
#[derive(Debug)]
struct StreamEntry {
    model: usize,
    client: Option<ClientState>,
    preferred_lane: Option<usize>,
    last_used: u64,
}

/// Cold sessions live only as store snapshots and keep just their model's
/// registry index here; a cold entry exists only with a store.
#[derive(Debug, Default)]
struct Table {
    warm: HashMap<String, StreamEntry>,
    cold: HashMap<String, usize>,
    clock: u64,
}

/// A session checked out for one push: marked busy in the warm tier until
/// [`Sessions::park`] or [`Sessions::release`] hands the client back.
#[derive(Debug)]
pub(crate) struct Checkout {
    /// Registry index of the model the session is bound to.
    pub model: usize,
    pub client: ClientState,
    pub preferred_lane: Option<usize>,
    /// The push opens the session; a failed one removes it again.
    pub created: bool,
}

/// The two-tier session table and its snapshot store.
#[derive(Debug)]
pub(crate) struct Sessions {
    /// Registered models in registry order: name and artifact.
    models: Vec<(String, Arc<RuntimeArtifact>)>,
    capacity: usize,
    table: Mutex<Table>,
    store: Option<Mutex<SessionStore>>,
    parked_to_disk: AtomicU64,
    faulted_in: AtomicU64,
    recovered_on_boot: AtomicU64,
    /// Boot scan and runtime discards combined.
    corrupt_discarded: AtomicU64,
}

impl Sessions {
    /// Builds the tier with room for `capacity` warm sessions. With a
    /// `store`, runs the boot recovery scan: torn `.tmp` orphans and
    /// snapshots that fail header, payload or artifact-digest verification
    /// are deleted and counted; survivors are adopted into the cold tier,
    /// bound to the model whose [`RuntimeArtifact::state_digest`] matches.
    /// A snapshot of a model no longer registered is a discard, not an
    /// error — recovery must always get the server up.
    ///
    /// # Errors
    ///
    /// Propagates directory-level I/O failures of the scan.
    pub(crate) fn open(
        models: Vec<(String, Arc<RuntimeArtifact>)>,
        capacity: usize,
        store: Option<SessionStore>,
    ) -> std::io::Result<Self> {
        let mut table = Table::default();
        let (mut recovered, mut discarded) = (0, 0);
        let store = match store {
            None => None,
            Some(mut store) => {
                let digests: Vec<u64> = models.iter().map(|(_, a)| a.state_digest()).collect();
                let report = store.recover(|id, bytes| {
                    // O(1) header probe picks the candidate model; a full
                    // restore then proves the payload decodes.
                    let Ok(header) = Header::parse(bytes) else {
                        return false;
                    };
                    let Some(model) = digests.iter().position(|&d| d == header.artifact_digest)
                    else {
                        return false;
                    };
                    if models[model].1.restore_client(bytes).is_err() {
                        return false;
                    }
                    table.cold.insert(id.to_owned(), model);
                    true
                })?;
                recovered = report.recovered.len() as u64;
                discarded = report.discarded;
                Some(Mutex::new(store))
            }
        };
        Ok(Self {
            models,
            capacity,
            table: Mutex::new(table),
            store,
            parked_to_disk: AtomicU64::new(0),
            faulted_in: AtomicU64::new(0),
            recovered_on_boot: AtomicU64::new(recovered),
            corrupt_discarded: AtomicU64::new(discarded),
        })
    }

    /// Checks session `id` out for one push. Refuses with 409 while a push
    /// is in flight, 400 when `requested` names another model than the
    /// session's, and 409 when `chunk_seq` is not the session's cursor.
    /// Otherwise it takes the warm client, faults a cold session back in,
    /// or opens the session on its first push; a cold or new session needs
    /// a warm slot, made by demoting the LRU parked session (503 when none
    /// can be demoted).
    pub(crate) fn checkout(
        &self,
        id: &str,
        requested: Option<&str>,
        chunk_seq: Option<u64>,
    ) -> Result<Checkout, Reject> {
        let mut table = lock_clean(&self.table);
        table.clock += 1;
        let stamp = table.clock;
        let bound_elsewhere = |model: usize| requested.is_some_and(|m| m != self.models[model].0);
        let mismatch = || (400, error_body("session is bound to a different model"));

        if let Some(entry) = table.warm.get_mut(id) {
            if bound_elsewhere(entry.model) {
                return Err(mismatch());
            }
            let client = entry.client.take().ok_or_else(busy)?;
            if let Err(conflict) = check_seq(chunk_seq, &client) {
                entry.client = Some(client);
                return Err(conflict);
            }
            entry.last_used = stamp;
            return Ok(Checkout {
                model: entry.model,
                client,
                preferred_lane: entry.preferred_lane,
                created: false,
            });
        }

        let (model, client) = if let Some(&model) = table.cold.get(id) {
            if bound_elsewhere(model) {
                return Err(mismatch());
            }
            match self.restore_or_discard(id, model) {
                Ok(client) => (model, client),
                Err(discarded) => {
                    table.cold.remove(id);
                    return Err(discarded);
                }
            }
        } else {
            let name =
                requested.ok_or_else(|| (400, error_body("first push must name a 'model'")))?;
            let model = self
                .models
                .iter()
                .position(|(n, _)| n == name)
                .ok_or_else(|| (404, error_body("unknown model")))?;
            (model, self.models[model].1.new_client())
        };
        // A rejected cold session stays cold, its snapshot untouched.
        check_seq(chunk_seq, &client)?;
        if table.warm.len() >= self.capacity && !self.demote_lru(&mut table) {
            return Err((503, error_body("session table full: close idle sessions")));
        }
        let created = table.cold.remove(id).is_none();
        if !created {
            self.faulted_in.fetch_add(1, Ordering::Relaxed);
        }
        table.warm.insert(
            id.to_owned(),
            StreamEntry {
                model,
                client: None,
                preferred_lane: None,
                last_used: stamp,
            },
        );
        Ok(Checkout {
            model,
            client,
            preferred_lane: None,
            created,
        })
    }

    /// Hands a checked-out session back after a successful push on `lane`.
    /// Write-ahead: with a store, the advanced state is parked on disk
    /// first, so a crash after the ack replays from the chunk just
    /// acknowledged. A failed write leaves the previous snapshot intact —
    /// the store commits by rename — never a torn one.
    pub(crate) fn park(&self, id: &str, model: usize, client: ClientState, lane: usize) {
        if let Some(store) = &self.store {
            let bytes = self.models[model].1.snapshot_client(&client);
            let _ = lock_clean(store).park(id, &bytes);
        }
        let mut table = lock_clean(&self.table);
        table.clock += 1;
        let stamp = table.clock;
        if let Some(entry) = table.warm.get_mut(id) {
            entry.client = Some(client);
            entry.last_used = stamp;
            entry.preferred_lane = Some(lane);
        }
    }

    /// Hands a checked-out session back after a failed push. A failed first
    /// push removes the session: the client was never told it exists, and
    /// it has no snapshot, so keeping it would leak a warm slot.
    pub(crate) fn release(&self, id: &str, client: ClientState, created: bool) {
        let mut table = lock_clean(&self.table);
        if created {
            table.warm.remove(id);
        } else if let Some(entry) = table.warm.get_mut(id) {
            entry.client = Some(client);
        }
    }

    /// Closes session `id` in either tier and returns its model and final
    /// client state. The id is fully reclaimed — table entry and snapshot
    /// both — so a closed session cannot resurrect after a restart. 409
    /// while a push is in flight, 404 for an unknown id or a cold snapshot
    /// that no longer restores (discarded).
    pub(crate) fn close(&self, id: &str) -> Result<(usize, ClientState), Reject> {
        let mut table = lock_clean(&self.table);
        let (model, client) = if let Some(entry) = table.warm.get_mut(id) {
            let closed = (entry.model, entry.client.take().ok_or_else(busy)?);
            table.warm.remove(id);
            closed
        } else {
            let model = table
                .cold
                .remove(id)
                .ok_or_else(|| (404, error_body("unknown session")))?;
            drop(table);
            (model, self.restore_or_discard(id, model)?)
        };
        if let Some(store) = &self.store {
            let _ = lock_clean(store).remove(id);
        }
        Ok((model, client))
    }

    /// Number of warm (in-memory) sessions.
    pub(crate) fn warm_len(&self) -> usize {
        lock_clean(&self.table).warm.len()
    }

    /// Number of cold (parked-to-disk) sessions.
    pub(crate) fn cold_len(&self) -> usize {
        lock_clean(&self.table).cold.len()
    }

    /// The durability counters, when a store is configured.
    pub(crate) fn durability(&self) -> Option<DurabilityStats> {
        self.store.as_ref()?;
        Some(DurabilityStats {
            parked_to_disk: self.parked_to_disk.load(Ordering::Relaxed),
            faulted_in: self.faulted_in.load(Ordering::Relaxed),
            recovered_on_boot: self.recovered_on_boot.load(Ordering::Relaxed),
            corrupt_discarded: self.corrupt_discarded.load(Ordering::Relaxed),
            cold_sessions: self.cold_len() as u64,
        })
    }

    /// Loads and restores the snapshot of cold session `id`. A snapshot
    /// that is missing, unreadable or fails verification loses that one
    /// session: its file is removed (journaled, so no later boot scan
    /// re-adopts or re-counts it) and it counts as one discard. The
    /// caller drops the cold entry.
    fn restore_or_discard(&self, id: &str, model: usize) -> Result<ClientState, Reject> {
        let Some(store) = &self.store else {
            return Err((404, error_body("unknown session")));
        };
        let loaded = lock_clean(store).load(id);
        let message = match loaded {
            Ok(Some(bytes)) => match self.models[model].1.restore_client(&bytes) {
                Ok(client) => return Ok(client),
                Err(_) => "session snapshot corrupted: session discarded",
            },
            Ok(None) | Err(_) => "session snapshot missing: session discarded",
        };
        let _ = lock_clean(store).remove(id);
        self.corrupt_discarded.fetch_add(1, Ordering::Relaxed);
        Err((404, error_body(message)))
    }

    /// Demotes the least-recently-used parked warm session to the cold
    /// tier. Its snapshot was written when its last push parked it, so
    /// this is a map move. Returns `false` when nothing is demotable: no
    /// store, every warm session busy, or the victim's snapshot never
    /// reached disk (a session must not be silently dropped).
    fn demote_lru(&self, table: &mut Table) -> bool {
        let Some(store) = &self.store else {
            return false;
        };
        let victim = table
            .warm
            .iter()
            .filter(|(_, e)| e.client.is_some())
            .min_by_key(|(_, e)| e.last_used)
            .map(|(id, e)| (id.clone(), e.model));
        let Some((victim, model)) = victim else {
            return false;
        };
        if !lock_clean(store).contains(&victim) {
            return false;
        }
        table.warm.remove(&victim);
        table.cold.insert(victim, model);
        self.parked_to_disk.fetch_add(1, Ordering::Relaxed);
        true
    }
}

fn busy() -> Reject {
    (409, error_body("session busy: a push is in flight"))
}

/// Checks a push's optional `chunk_seq` against the session's cursor. A
/// mismatch means the client's view diverged (duplicate, dropped or
/// reordered push); the 409 tells it where to resume.
fn check_seq(chunk_seq: Option<u64>, client: &ClientState) -> Result<(), Reject> {
    let expected = client.chunks_pushed();
    match chunk_seq {
        Some(got) if got != expected => {
            let body = Json::obj(vec![
                (
                    "error",
                    Json::from("chunk_seq mismatch: duplicate or out-of-order push"),
                ),
                ("chunks_pushed", Json::from(expected)),
                ("got_chunk_seq", Json::from(got)),
            ]);
            Err((409, body.to_string()))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use rand::SeedableRng;
    use sne::compile::CompiledNetwork;
    use sne_model::topology::Topology;
    use sne_model::Shape;
    use sne_sim::SneConfig;
    use sne_store::FsyncPolicy;

    use super::*;

    fn models() -> Vec<(String, Arc<RuntimeArtifact>)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        ["a", "b"]
            .into_iter()
            .map(|name| {
                let topology = Topology::tiny(Shape::new(2, 8, 8), 4, 3);
                let network = CompiledNetwork::random(&topology, &mut rng).unwrap();
                let artifact = RuntimeArtifact::new(network, SneConfig::with_slices(2)).unwrap();
                (name.to_owned(), Arc::new(artifact))
            })
            .collect()
    }

    /// A store directory of its own per test (tests run on parallel
    /// threads), removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir()
                .join(format!("sne-serve-sessions-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            Self(dir)
        }

        /// The snapshot file of `id` (the store names it by the id's hex).
        fn snap(&self, id: &str) -> PathBuf {
            let hex: String = id.bytes().map(|b| format!("{b:02x}")).collect();
            self.0.join(format!("s{hex}.snap"))
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn memory_only(capacity: usize) -> Sessions {
        Sessions::open(models(), capacity, None).unwrap()
    }

    fn durable(dir: &Path, capacity: usize) -> Sessions {
        let store = SessionStore::open(dir, FsyncPolicy::Never).unwrap();
        Sessions::open(models(), capacity, Some(store)).unwrap()
    }

    /// Opens session `id` on model "a" and parks it after a push.
    fn open_parked(sessions: &Sessions, id: &str) {
        let checkout = sessions.checkout(id, Some("a"), None).unwrap();
        assert!(checkout.created);
        sessions.park(id, checkout.model, checkout.client, 0);
    }

    fn status<T: std::fmt::Debug>(result: Result<T, Reject>) -> u16 {
        result.expect_err("operation must be refused").0
    }

    fn stats(sessions: &Sessions) -> DurabilityStats {
        sessions.durability().expect("store configured")
    }

    #[test]
    fn busy_session_refuses_push_and_close() {
        let sessions = memory_only(4);
        let checkout = sessions.checkout("s", Some("a"), None).unwrap();
        assert_eq!(status(sessions.checkout("s", None, None)), 409);
        assert_eq!(status(sessions.close("s")), 409);
        sessions.park("s", checkout.model, checkout.client, 1);
        let resumed = sessions.checkout("s", None, None).unwrap();
        assert_eq!(resumed.preferred_lane, Some(1));
        assert!(!resumed.created);
        sessions.release("s", resumed.client, false);
        let (model, client) = sessions.close("s").unwrap();
        assert_eq!((model, client.chunks_pushed()), (0, 0));
        assert_eq!(status(sessions.close("s")), 404);
        assert!(sessions.durability().is_none());
    }

    #[test]
    fn model_mismatch_is_400_in_either_tier() {
        let dir = TempDir::new("mismatch");
        let sessions = durable(&dir.0, 1);
        open_parked(&sessions, "cold");
        open_parked(&sessions, "warm");
        assert_eq!(sessions.cold_len(), 1);
        for id in ["warm", "cold"] {
            for model in ["b", "unregistered"] {
                assert_eq!(status(sessions.checkout(id, Some(model), None)), 400);
            }
        }
        assert_eq!((sessions.warm_len(), sessions.cold_len()), (1, 1));
        assert_eq!(status(sessions.checkout("new", Some("zzz"), None)), 404);
        assert_eq!(status(sessions.checkout("new", None, None)), 400);
    }

    #[test]
    fn chunk_seq_conflict_leaves_every_tier_untouched() {
        let dir = TempDir::new("seq");
        let sessions = durable(&dir.0, 1);
        open_parked(&sessions, "cold");
        open_parked(&sessions, "warm");
        let snapshot = std::fs::read(dir.snap("cold")).unwrap();

        let (code, body) = sessions.checkout("warm", None, Some(3)).unwrap_err();
        assert_eq!(code, 409);
        let body = Json::parse(&body).unwrap();
        assert_eq!(body.get("chunks_pushed").and_then(Json::as_u64), Some(0));
        assert_eq!(body.get("got_chunk_seq").and_then(Json::as_u64), Some(3));
        assert_eq!(status(sessions.checkout("cold", None, Some(1))), 409);
        assert_eq!(status(sessions.checkout("new", Some("a"), Some(2))), 409);

        assert_eq!((sessions.warm_len(), sessions.cold_len()), (1, 1));
        assert_eq!(std::fs::read(dir.snap("cold")).unwrap(), snapshot);
        assert_eq!(stats(&sessions).faulted_in, 0);
        assert_eq!(stats(&sessions).parked_to_disk, 1);
        // The warm session was handed back, not left busy, and the new id
        // was never opened.
        assert!(sessions.checkout("warm", None, Some(0)).is_ok());
        assert_eq!(status(sessions.checkout("new", None, None)), 400);
    }

    #[test]
    fn full_table_without_store_is_503() {
        let sessions = memory_only(1);
        open_parked(&sessions, "s0");
        assert_eq!(status(sessions.checkout("s1", Some("a"), None)), 503);
        assert_eq!(sessions.warm_len(), 1);
    }

    #[test]
    fn demotion_picks_the_least_recently_used_parked_session() {
        let dir = TempDir::new("lru");
        let sessions = durable(&dir.0, 2);
        open_parked(&sessions, "s0");
        open_parked(&sessions, "s1");
        // Touch s0 again: s1 becomes the least recently used.
        let touch = sessions.checkout("s0", None, None).unwrap();
        sessions.park("s0", touch.model, touch.client, 0);

        let _s2 = sessions.checkout("s2", Some("a"), None).unwrap();
        assert_eq!(stats(&sessions).parked_to_disk, 1);
        let s0 = sessions.checkout("s0", None, None).unwrap();
        assert!(!s0.created, "s0 stayed warm");
        assert_eq!(stats(&sessions).faulted_in, 0);

        // Every warm session is busy now: nothing is demotable, so the cold
        // s1 cannot fault in and stays cold.
        assert_eq!(status(sessions.checkout("s1", None, None)), 503);
        assert_eq!(sessions.cold_len(), 1);
        sessions.park("s0", s0.model, s0.client, 0);
        let s1 = sessions.checkout("s1", None, None).unwrap();
        assert!(!s1.created);
        assert_eq!(stats(&sessions).faulted_in, 1);
        assert_eq!(stats(&sessions).parked_to_disk, 2);
    }

    #[test]
    fn corrupt_snapshot_at_fault_in_is_discarded_once() {
        let dir = TempDir::new("corrupt-push");
        let sessions = durable(&dir.0, 1);
        open_parked(&sessions, "x");
        open_parked(&sessions, "y");
        let mut bytes = std::fs::read(dir.snap("x")).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(dir.snap("x"), &bytes).unwrap();

        let (code, body) = sessions.checkout("x", None, None).unwrap_err();
        assert_eq!(code, 404);
        assert!(body.contains("corrupted"), "{body}");
        assert!(
            !dir.snap("x").exists(),
            "discarded snapshot must be deleted"
        );
        assert_eq!(stats(&sessions).corrupt_discarded, 1);
        assert_eq!(sessions.cold_len(), 0);
        assert_eq!(status(sessions.checkout("x", None, None)), 400);

        drop(sessions);
        let rebooted = durable(&dir.0, 1);
        assert_eq!(stats(&rebooted).recovered_on_boot, 1);
        assert_eq!(stats(&rebooted).corrupt_discarded, 0);
    }

    #[test]
    fn missing_snapshot_at_fault_in_is_not_counted_again_on_boot() {
        let dir = TempDir::new("missing-push");
        let sessions = durable(&dir.0, 1);
        open_parked(&sessions, "x");
        open_parked(&sessions, "y");
        std::fs::remove_file(dir.snap("x")).unwrap();

        let (code, body) = sessions.checkout("x", None, None).unwrap_err();
        assert_eq!(code, 404);
        assert!(body.contains("missing"), "{body}");
        assert_eq!(stats(&sessions).corrupt_discarded, 1);
        assert_eq!(sessions.cold_len(), 0);

        // The discard is journaled: the next boot scan neither re-adopts
        // nor re-counts the session.
        drop(sessions);
        let rebooted = durable(&dir.0, 1);
        assert_eq!(stats(&rebooted).recovered_on_boot, 1);
        assert_eq!(stats(&rebooted).corrupt_discarded, 0);
    }

    #[test]
    fn corrupt_snapshot_at_cold_close_is_discarded_once() {
        let dir = TempDir::new("corrupt-close");
        let sessions = durable(&dir.0, 1);
        open_parked(&sessions, "x");
        open_parked(&sessions, "y");
        std::fs::write(dir.snap("x"), b"not a snapshot").unwrap();

        let (code, body) = sessions.close("x").unwrap_err();
        assert_eq!(code, 404);
        assert!(body.contains("corrupted"), "{body}");
        assert!(
            !dir.snap("x").exists(),
            "discarded snapshot must be deleted"
        );
        assert_eq!(stats(&sessions).corrupt_discarded, 1);
        assert_eq!(status(sessions.close("x")), 404);
        assert_eq!(stats(&sessions).corrupt_discarded, 1);

        // An intact cold session closes with its state and leaves no file.
        let demote = sessions.checkout("x2", Some("a"), None).unwrap();
        sessions.park("x2", demote.model, demote.client, 0);
        assert!(dir.snap("y").exists());
        let (model, _) = sessions.close("y").unwrap();
        assert_eq!(model, 0);
        assert!(!dir.snap("y").exists());
    }

    #[test]
    fn failed_push_frees_a_new_session_and_keeps_an_old_one() {
        let sessions = memory_only(1);
        let first = sessions.checkout("s0", Some("a"), None).unwrap();
        sessions.release("s0", first.client, first.created);
        assert_eq!(sessions.warm_len(), 0);

        open_parked(&sessions, "s1");
        let again = sessions.checkout("s1", None, None).unwrap();
        sessions.release("s1", again.client, again.created);
        assert_eq!(sessions.warm_len(), 1);
        assert!(sessions.checkout("s1", None, Some(0)).is_ok());
    }
}

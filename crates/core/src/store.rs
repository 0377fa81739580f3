//! Durable, crash-consistent snapshots of an orchestration run.
//!
//! A [`CheckpointStore`] owns a directory of snapshot files. Every write
//! is atomic (temp file + rename in the same directory, fsync'd
//! best-effort) so a kill at *any* instant leaves either the previous
//! snapshot set or the previous set plus one complete new file — never a
//! half-written one. Every file is framed in a small binary envelope:
//!
//! ```text
//! magic "ESCK" | version u32 LE | payload_len u64 LE | crc32 u32 LE | JSON payload
//! ```
//!
//! Readers validate magic, version, length and CRC32 before touching the
//! payload; a truncated or bit-flipped file is rejected with a typed
//! [`EdgeSliceError::CorruptSnapshot`] (or
//! [`EdgeSliceError::UnsupportedSnapshotVersion`]) and
//! [`CheckpointStore::latest_run`] falls back to the newest snapshot that
//! *does* validate. The payload is JSON: `serde_json` round-trips `f64`
//! exactly (Ryu), which is what makes resumed runs byte-identical to
//! uninterrupted ones.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use crate::coordinator::CoordinatorState;
use crate::orchestrator::{RoundRecord, SupervisionStats};
use crate::workload::LifecycleSnapshot;
use crate::{EdgeSliceError, PolicyCheckpoint, RaId, RaSliceEnv, SliceSpec};
use edgeslice_netsim::ServiceQueue;

/// The envelope format version this build reads and writes.
///
/// Version history:
/// * 1 — static slice set only.
/// * 2 — run snapshots record the admitted slice set explicitly plus the
///   dynamic-workload lifecycle state (admission ledger, slot status,
///   negotiated rates), so kill-and-resume stays byte-identical under
///   slice churn.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 2;

/// Envelope magic: **E**dge**S**lice **C**hec**K**point.
const MAGIC: &[u8; 4] = b"ESCK";

/// Envelope header length: magic + version + payload_len + crc32.
const HEADER_LEN: usize = 4 + 4 + 8 + 4;

/// One RA worker's round-boundary state: everything `run_round` reads
/// besides the (re-derivable) RNG stream and the (re-installable) policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSnapshot {
    /// The RA this state belongs to.
    pub ra: RaId,
    /// The per-slice service queues at the end of the snapshot round.
    pub queues: Vec<ServiceQueue>,
    /// The coordination vector `z − y` the environment last received.
    pub coordination: Vec<f64>,
    /// The global interval counter (trace position).
    pub global_t: usize,
    /// Whether the worker was down (outage or caught panic) at the end of
    /// the snapshot round, so a resumed worker takes the same rejoin path
    /// the live one would.
    pub was_down: bool,
    /// Per-slot activity flags at the snapshot boundary (empty means "all
    /// active", the static-workload default).
    pub active: Vec<bool>,
    /// Per-slot traffic-rate overrides installed by lifecycle events
    /// (empty means "no overrides").
    pub rates: Vec<Option<f64>>,
}

impl WorkerSnapshot {
    /// `env`'s state as it stands at a round boundary, for an RA that is
    /// up.
    pub(crate) fn capture(ra: RaId, env: &RaSliceEnv) -> Self {
        Self {
            ra,
            queues: env.queues().to_vec(),
            coordination: env.coordination().to_vec(),
            global_t: env.global_t(),
            was_down: false,
            active: env.slice_active().to_vec(),
            rates: env.rate_overrides().to_vec(),
        }
    }

    /// Rewinds `env` to this boundary, including its slot activity and
    /// rate overrides (absent on pre-churn snapshots, which leave the
    /// environment's present lifecycle state alone).
    pub(crate) fn rewind(&self, env: &mut RaSliceEnv) {
        env.restore_round_state(self.queues.clone(), &self.coordination, self.global_t);
        if !self.active.is_empty() {
            env.restore_lifecycle(&self.active, &self.rates);
        }
    }
}

/// A complete, resumable picture of an interrupted `run`/`run_with_faults`
/// call, written every K rounds by the coordinator task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSnapshot {
    /// The run's master seed (drawn once; every worker stream derives
    /// from it).
    pub master_seed: u64,
    /// Global round index of the run's round 0.
    pub round_base: usize,
    /// The first round the resumed engine must execute (engine-local).
    pub next_round: usize,
    /// The coordinator's complete mutable state.
    pub coordinator: CoordinatorState,
    /// Per-RA worker state at the snapshot boundary.
    pub workers: Vec<WorkerSnapshot>,
    /// The effective policy per RA (`None` for TARO): what a fresh
    /// process re-installs instead of retraining.
    pub policies: Vec<Option<PolicyCheckpoint>>,
    /// Caught panics per RA so far; seeds the resumed supervisors'
    /// restart budgets.
    pub panic_counts: Vec<usize>,
    /// The report rounds completed before the snapshot.
    pub rounds: Vec<RoundRecord>,
    /// The supervision telemetry accumulated before the snapshot.
    pub supervision: SupervisionStats,
    /// The slice slots (admitted set) this run was configured with,
    /// recorded explicitly so a resume against a differently-shaped
    /// system is a typed mismatch, not silent corruption.
    pub slices: Vec<SliceSpec>,
    /// The dynamic-workload state machine at the snapshot boundary
    /// (`None` for static runs).
    pub lifecycle: Option<LifecycleSnapshot>,
}

impl RunSnapshot {
    /// Validates that this snapshot was taken from a run over exactly the
    /// given slice slots. An empty recorded set (a pre-v2 payload migrated
    /// forward, or a hand-built snapshot) is accepted for compatibility;
    /// a non-empty set must match slot-for-slot.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::SnapshotMismatch`] naming the first
    /// differing slot (or the count difference).
    pub fn validate_slices(&self, expected: &[SliceSpec]) -> Result<(), EdgeSliceError> {
        if self.slices.is_empty() {
            return Ok(());
        }
        if self.slices.len() != expected.len() {
            return Err(EdgeSliceError::SnapshotMismatch {
                reason: format!(
                    "snapshot records {} slice slots, system has {}",
                    self.slices.len(),
                    expected.len()
                ),
            });
        }
        for (stored, live) in self.slices.iter().zip(expected) {
            if stored != live {
                return Err(EdgeSliceError::SnapshotMismatch {
                    reason: format!(
                        "slice slot {} differs between snapshot and system",
                        stored.id.0
                    ),
                });
            }
        }
        Ok(())
    }
}

/// One RA's completed offline-training outcome, written after the RA's
/// training unit finishes so a re-run of the same `train` call skips
/// straight to the trained policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSnapshot {
    /// The RA whose agent was trained.
    pub ra: RaId,
    /// The training call's master seed (all per-RA streams derive from it).
    pub master_seed: u64,
    /// The `env_steps` the agent was trained for.
    pub env_steps: usize,
    /// The trained policy.
    pub policy: PolicyCheckpoint,
    /// The environment exactly as training left it (queues flushed to the
    /// deployment baseline, trace position advanced), so a process that
    /// skips retraining still starts its run from the identical state.
    pub env: WorkerSnapshot,
}

/// The outcome of [`CheckpointStore::latest_run`]: the newest snapshot
/// that validated, plus every newer file that was rejected (and why) on
/// the way there.
#[derive(Debug)]
pub struct LatestRun {
    /// The newest valid snapshot, if any file validated.
    pub snapshot: Option<RunSnapshot>,
    /// Files rejected during the scan, newest first, with their errors.
    pub rejected: Vec<(PathBuf, EdgeSliceError)>,
}

/// A directory of durable snapshots with atomic writes and checksummed
/// reads.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    dir: PathBuf,
}

impl CheckpointStore {
    /// Opens (creating if needed) the store at `dir`.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Io`] if the directory cannot be created.
    pub fn open(dir: &Path) -> Result<Self, EdgeSliceError> {
        fs::create_dir_all(dir).map_err(|source| EdgeSliceError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        Ok(Self {
            dir: dir.to_path_buf(),
        })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a run snapshot as `run_{next_round:06}.ckpt`, atomically.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Io`] on filesystem failure and
    /// [`EdgeSliceError::Checkpoint`]/`Serialization` if encoding fails.
    pub fn save_run(&self, snapshot: &RunSnapshot) -> Result<PathBuf, EdgeSliceError> {
        let path = self.run_path(snapshot.next_round);
        let payload = serde_json::to_string(snapshot)?.into_bytes();
        self.write_envelope(&path, &payload)?;
        Ok(path)
    }

    /// Reads and validates one run-snapshot file.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::CorruptSnapshot`] for truncated,
    /// magic-less, mis-sized or checksum-failing files,
    /// [`EdgeSliceError::UnsupportedSnapshotVersion`] for foreign
    /// versions, and [`EdgeSliceError::Io`] on read failure.
    pub fn load_run(&self, path: &Path) -> Result<RunSnapshot, EdgeSliceError> {
        let payload = self.read_envelope(path)?;
        decode_payload(&payload, path)
    }

    /// Scans the store for the newest run snapshot that validates,
    /// collecting (not hiding) every newer file that had to be rejected.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Io`] only if the directory itself cannot
    /// be listed; per-file corruption is reported in
    /// [`LatestRun::rejected`], never as a hard error.
    pub fn latest_run(&self) -> Result<LatestRun, EdgeSliceError> {
        let entries = fs::read_dir(&self.dir).map_err(|source| EdgeSliceError::Io {
            path: self.dir.clone(),
            source,
        })?;
        let mut candidates: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("run_") && n.ends_with(".ckpt"))
            })
            .collect();
        // File names embed the zero-padded round, so lexicographic order
        // is round order; scan newest first.
        candidates.sort();
        candidates.reverse();
        let mut rejected = Vec::new();
        for path in candidates {
            match self.load_run(&path) {
                Ok(snapshot) => {
                    return Ok(LatestRun {
                        snapshot: Some(snapshot),
                        rejected,
                    })
                }
                Err(err) => rejected.push((path, err)),
            }
        }
        Ok(LatestRun {
            snapshot: None,
            rejected,
        })
    }

    /// Writes RA `snapshot.ra`'s training outcome as
    /// `train_ra{ra:04}.ckpt`, atomically.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::Io`] on filesystem failure.
    pub fn save_train(&self, snapshot: &TrainSnapshot) -> Result<PathBuf, EdgeSliceError> {
        let path = self.train_path(snapshot.ra);
        let payload = serde_json::to_string(snapshot)?.into_bytes();
        self.write_envelope(&path, &payload)?;
        Ok(path)
    }

    /// Loads RA `ra`'s training snapshot, if one exists.
    ///
    /// # Errors
    ///
    /// A missing file is `Ok(None)`; an existing file that fails
    /// validation is a hard error (the caller decides whether to retrain).
    pub fn load_train(&self, ra: RaId) -> Result<Option<TrainSnapshot>, EdgeSliceError> {
        let path = self.train_path(ra);
        if !path.exists() {
            return Ok(None);
        }
        let payload = self.read_envelope(&path)?;
        decode_payload(&payload, &path).map(Some)
    }

    fn run_path(&self, next_round: usize) -> PathBuf {
        self.dir.join(format!("run_{next_round:06}.ckpt"))
    }

    fn train_path(&self, ra: RaId) -> PathBuf {
        self.dir.join(format!("train_ra{:04}.ckpt", ra.0))
    }

    /// Atomic framed write: temp file in the same directory, full
    /// envelope, fsync, rename over the target, best-effort directory
    /// fsync.
    fn write_envelope(&self, path: &Path, payload: &[u8]) -> Result<(), EdgeSliceError> {
        let io_err = |p: &Path| {
            let p = p.to_path_buf();
            move |source| EdgeSliceError::Io { path: p, source }
        };
        let tmp = path.with_extension("ckpt.tmp");
        let mut buf = Vec::with_capacity(HEADER_LEN + payload.len());
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&SNAPSHOT_FORMAT_VERSION.to_le_bytes());
        buf.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        buf.extend_from_slice(&crc32(payload).to_le_bytes());
        buf.extend_from_slice(payload);
        {
            let mut file = fs::File::create(&tmp).map_err(io_err(&tmp))?;
            file.write_all(&buf).map_err(io_err(&tmp))?;
            // Durability is best-effort: a failed fsync degrades crash
            // coverage, not correctness (the CRC catches torn writes).
            let _ = file.sync_all();
        }
        fs::rename(&tmp, path).map_err(io_err(path))?;
        if let Ok(dir) = fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// Framed read: validates magic, version, length and CRC before
    /// handing back the payload.
    fn read_envelope(&self, path: &Path) -> Result<Vec<u8>, EdgeSliceError> {
        let bytes = fs::read(path).map_err(|source| EdgeSliceError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let corrupt = |reason: String| EdgeSliceError::CorruptSnapshot {
            path: path.to_path_buf(),
            reason,
        };
        if bytes.len() < HEADER_LEN {
            return Err(corrupt(format!(
                "truncated header: {} bytes, need {HEADER_LEN}",
                bytes.len()
            )));
        }
        if &bytes[..4] != MAGIC {
            return Err(corrupt("bad magic (not an EdgeSlice snapshot)".into()));
        }
        let version = u32::from_le_bytes(
            bytes[4..8]
                .try_into()
                .expect("invariant: 4-byte slice of a length-checked header"),
        );
        if version != SNAPSHOT_FORMAT_VERSION {
            return Err(EdgeSliceError::UnsupportedSnapshotVersion {
                path: path.to_path_buf(),
                found: version,
                supported: SNAPSHOT_FORMAT_VERSION,
            });
        }
        let declared = u64::from_le_bytes(
            bytes[8..16]
                .try_into()
                .expect("invariant: 8-byte slice of a length-checked header"),
        ) as usize;
        let payload = &bytes[HEADER_LEN..];
        if payload.len() != declared {
            return Err(corrupt(format!(
                "truncated payload: {} bytes, header declares {declared}",
                payload.len()
            )));
        }
        let expected = u32::from_le_bytes(
            bytes[16..20]
                .try_into()
                .expect("invariant: 4-byte slice of a length-checked header"),
        );
        let actual = crc32(payload);
        if actual != expected {
            return Err(corrupt(format!(
                "CRC32 mismatch: stored {expected:#010x}, computed {actual:#010x}"
            )));
        }
        Ok(payload.to_vec())
    }
}

/// Decodes a CRC-validated JSON payload into `T`, mapping decode failures
/// (which can only mean a foreign or hand-edited payload at this point)
/// to [`EdgeSliceError::CorruptSnapshot`].
fn decode_payload<T: serde::de::DeserializeOwned>(
    payload: &[u8],
    path: &Path,
) -> Result<T, EdgeSliceError> {
    let corrupt = |reason: String| EdgeSliceError::CorruptSnapshot {
        path: path.to_path_buf(),
        reason,
    };
    let text = std::str::from_utf8(payload)
        .map_err(|e| corrupt(format!("payload passed CRC but is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| corrupt(format!("payload passed CRC but failed to decode: {e}")))
}

/// Reflected CRC-32 (IEEE 802.3, polynomial `0xEDB88320`) — the classic
/// table-free bitwise formulation; snapshots are small and written at most
/// once per K rounds, so simplicity beats a lookup table here.
fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgeslice_optim::AdmmResiduals;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("edgeslice-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn snapshot(next_round: usize) -> RunSnapshot {
        RunSnapshot {
            master_seed: 42,
            round_base: 0,
            next_round,
            coordinator: CoordinatorState {
                z: vec![vec![1.5, -2.5]],
                y: vec![vec![0.25, 0.0]],
                last_known: vec![vec![-3.0, -4.0]],
                staleness: vec![0, 1],
                dead: vec![false, false],
                residual_history: vec![AdmmResiduals {
                    primal: 0.5,
                    dual: 0.25,
                }],
                dual_clamp: 50.0,
                staleness_budget: 3,
                active: vec![true],
                umins: vec![-50.0],
            },
            workers: vec![WorkerSnapshot {
                ra: RaId(0),
                queues: vec![ServiceQueue::with_capacity(10.0)],
                coordination: vec![0.5],
                global_t: 7,
                was_down: false,
                active: vec![true],
                rates: vec![None],
            }],
            policies: vec![None],
            panic_counts: vec![0],
            rounds: Vec::new(),
            supervision: SupervisionStats::default(),
            slices: vec![SliceSpec::experiment_slice1()],
            lifecycle: None,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn save_load_round_trips_exactly() {
        let dir = tmp_dir("roundtrip");
        let store = CheckpointStore::open(&dir).unwrap();
        let snap = snapshot(4);
        let path = store.save_run(&snap).unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("000004"));
        let back = store.load_run(&path).unwrap();
        assert_eq!(back, snap);
        let latest = store.latest_run().unwrap();
        assert_eq!(latest.snapshot, Some(snap));
        assert!(latest.rejected.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_and_bit_flipped_files_are_rejected_with_fallback() {
        let dir = tmp_dir("corrupt");
        let store = CheckpointStore::open(&dir).unwrap();
        let old = snapshot(2);
        let p2 = store.save_run(&old).unwrap();
        let p4 = store.save_run(&snapshot(4)).unwrap();
        let p6 = store.save_run(&snapshot(6)).unwrap();

        // Truncate the newest mid-payload; bit-flip the middle one.
        let bytes = fs::read(&p6).unwrap();
        fs::write(&p6, &bytes[..bytes.len() - 7]).unwrap();
        let mut bytes = fs::read(&p4).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&p4, &bytes).unwrap();

        assert!(matches!(
            store.load_run(&p6),
            Err(EdgeSliceError::CorruptSnapshot { .. })
        ));
        assert!(matches!(
            store.load_run(&p4),
            Err(EdgeSliceError::CorruptSnapshot { .. })
        ));
        let latest = store.latest_run().unwrap();
        assert_eq!(latest.snapshot, Some(old), "must fall back past corruption");
        assert_eq!(latest.rejected.len(), 2);
        assert!(latest.rejected.iter().all(|(p, e)| {
            (p == &p6 || p == &p4) && matches!(e, EdgeSliceError::CorruptSnapshot { .. })
        }));
        let _ = (p2, fs::remove_dir_all(&dir));
    }

    #[test]
    fn foreign_versions_and_bad_magic_are_typed_errors() {
        let dir = tmp_dir("version");
        let store = CheckpointStore::open(&dir).unwrap();
        let path = store.save_run(&snapshot(1)).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = 99; // version LE low byte
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_run(&path),
            Err(EdgeSliceError::UnsupportedSnapshotVersion { found: 99, .. })
        ));
        bytes[0] = b'X';
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_run(&path),
            Err(EdgeSliceError::CorruptSnapshot { .. })
        ));
        let latest = store.latest_run().unwrap();
        assert!(latest.snapshot.is_none());
        assert_eq!(latest.rejected.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_records_slice_set_and_rejects_mismatched_counts() {
        let dir = tmp_dir("slices");
        let store = CheckpointStore::open(&dir).unwrap();
        let snap = snapshot(3);
        let path = store.save_run(&snap).unwrap();
        let back = store.load_run(&path).unwrap();

        // The admitted slice set is recorded explicitly and round-trips.
        let expected = vec![SliceSpec::experiment_slice1()];
        assert_eq!(back.slices, expected);
        assert!(back.validate_slices(&expected).is_ok());

        // A system with a different slot count must be a typed mismatch...
        let two = vec![
            SliceSpec::experiment_slice1(),
            SliceSpec::experiment_slice2(),
        ];
        assert!(matches!(
            back.validate_slices(&two),
            Err(EdgeSliceError::SnapshotMismatch { .. })
        ));
        // ...and so must the same count with a different contract.
        let mut respec = expected.clone();
        respec[0].sla = crate::Sla::new(-10.0);
        assert!(matches!(
            back.validate_slices(&respec),
            Err(EdgeSliceError::SnapshotMismatch { .. })
        ));

        // A pre-v2-style snapshot (no recorded slices) is accepted.
        let mut legacy = snap.clone();
        legacy.slices = Vec::new();
        assert!(legacy.validate_slices(&two).is_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_snapshots_are_per_ra_and_optional() {
        let dir = tmp_dir("train");
        let store = CheckpointStore::open(&dir).unwrap();
        assert!(store.load_train(RaId(0)).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}

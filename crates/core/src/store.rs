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
use crate::{EdgeSliceError, PolicyCheckpoint, RaId, RaSliceEnv, ResourceKind, SliceSpec};
use edgeslice_netsim::ServiceQueue;

/// The envelope format version this build reads and writes.
///
/// Version history:
/// * 1 — static slice set only.
/// * 2 — run snapshots record the admitted slice set explicitly plus the
///   dynamic-workload lifecycle state (admission ledger, slot status,
///   negotiated rates), so kill-and-resume stays byte-identical under
///   slice churn.
/// * 3 — the policies in run and train snapshots hold `f32` weights
///   ([`crate::checkpoint::POLICY_CHECKPOINT_VERSION`] 2); a version-2 file is
///   rejected rather than narrowed.
/// * 4 — the coordinator state keeps its round count and last residuals,
///   not every round's residuals, nor its dual clamp and staleness budget
///   (constants of the build); service queues keep only their backlog and
///   capacity.
pub(crate) const SNAPSHOT_FORMAT_VERSION: u32 = 4;

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
    /// Per-slot activity flags at the snapshot boundary.
    pub active: Vec<bool>,
    /// Per-slot traffic-rate overrides installed by lifecycle events
    /// (`None` where a slot has none).
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

    /// Why this cannot be RA `ra`'s state on `n_slices` slice slots, if it
    /// cannot: it names another RA, a per-slice field (queues,
    /// coordination, activity, rates) is not one entry per slot, a backlog
    /// or rate is not finite and non-negative, or a coordination value is
    /// not finite. The one check of an RA's state from outside the process,
    /// whether a peer's report body or a snapshot file carried it.
    pub(crate) fn check(&self, ra: RaId, n_slices: usize) -> Result<(), String> {
        if self.ra != ra {
            return Err(format!("the state of {ra} names {}", self.ra));
        }
        let lens = [
            self.queues.len(),
            self.coordination.len(),
            self.active.len(),
            self.rates.len(),
        ];
        if lens != [n_slices; 4] {
            return Err(format!(
                "{ra}'s per-slice state (queues, coordination, active, rates) is {lens:?} \
                 long, not {n_slices}"
            ));
        }
        // Each number with its floor.
        let mut numbers = (self.queues.iter().map(|q| (q.backlog(), 0.0)))
            .chain(self.coordination.iter().map(|&c| (c, f64::NEG_INFINITY)))
            .chain(self.rates.iter().flatten().map(|&r| (r, 0.0)));
        match numbers.find(|&(v, floor)| !(v.is_finite() && v >= floor)) {
            Some((v, _)) => Err(format!(
                "{ra}'s state holds {v}: backlogs and rates must be finite and \
                 non-negative, coordination values finite"
            )),
            None => Ok(()),
        }
    }

    /// Rewinds `env` to this boundary, including its slot activity and
    /// rate overrides.
    ///
    /// # Panics
    ///
    /// Panics if a per-slice field is not one entry per slot of `env`:
    /// [`WorkerSnapshot::check`] rejects such a state first.
    pub(crate) fn rewind(&self, env: &mut RaSliceEnv) {
        env.restore_round_state(self.queues.clone(), &self.coordination, self.global_t);
        env.restore_lifecycle(&self.active, &self.rates);
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
    /// given slice slots: the recorded set matches slot for slot; every
    /// worker's state passes `WorkerSnapshot::check` for its RA; there
    /// is one policy and one panic count per worker; and every policy
    /// produces one share per (slot, resource) from an input its network
    /// reads.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeSliceError::SnapshotMismatch`] naming the count
    /// difference, the first differing slot, the mis-shaped worker or the
    /// policy that does not fit.
    pub fn validate_slices(&self, expected: &[SliceSpec]) -> Result<(), EdgeSliceError> {
        self.validate(expected, None)
    }

    /// [`RunSnapshot::validate_slices`], and — given the `state_dim` a
    /// system's environments produce, as `resume` and a `serve_ra` re-sync
    /// give it — every policy observes that many inputs.
    pub(crate) fn validate(
        &self,
        expected: &[SliceSpec],
        state_dim: Option<usize>,
    ) -> Result<(), EdgeSliceError> {
        let mismatch = |reason: String| EdgeSliceError::SnapshotMismatch { reason };
        if self.slices.len() != expected.len() {
            return Err(mismatch(format!(
                "snapshot records {} slice slots, system has {}",
                self.slices.len(),
                expected.len()
            )));
        }
        if let Some((stored, _)) = self.slices.iter().zip(expected).find(|(s, l)| s != l) {
            return Err(mismatch(format!(
                "slice slot {} differs between snapshot and system",
                stored.id.0
            )));
        }
        let n = expected.len();
        for (j, ws) in self.workers.iter().enumerate() {
            ws.check(RaId(j), n).map_err(mismatch)?;
        }
        let counts = [self.policies.len(), self.panic_counts.len()];
        if counts != [self.workers.len(); 2] {
            return Err(mismatch(format!(
                "{counts:?} policies and panic counts for {} workers",
                self.workers.len()
            )));
        }
        let shares = n * ResourceKind::COUNT;
        let mut policies = self.policies.iter().flatten();
        match policies.find(|p| !p.fits(state_dim.unwrap_or(p.state_dim()), shares)) {
            Some(p) => Err(mismatch(format!(
                "a policy of {} inputs and {} shares does not fit this system",
                p.state_dim(),
                p.action_dim()
            ))),
            None => Ok(()),
        }
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

impl TrainSnapshot {
    /// Why this cannot be RA `ra`'s training outcome on `n_slices` slice
    /// slots observed through `state_dim` inputs, if it cannot: its state
    /// fails [`WorkerSnapshot::check`], or its policy does not fit.
    pub(crate) fn check(&self, ra: RaId, n_slices: usize, state_dim: usize) -> Result<(), String> {
        self.env.check(ra, n_slices)?;
        if !self.policy.fits(state_dim, n_slices * ResourceKind::COUNT) {
            return Err(format!(
                "{ra}'s policy of {} inputs and {} shares does not fit this system",
                self.policy.state_dim(),
                self.policy.action_dim()
            ));
        }
        Ok(())
    }
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
    pub(crate) fn save_train(&self, snapshot: &TrainSnapshot) -> Result<PathBuf, EdgeSliceError> {
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
    pub(crate) fn load_train(&self, ra: RaId) -> Result<Option<TrainSnapshot>, EdgeSliceError> {
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
    use edgeslice_optim::{AdmmResiduals, ConvergenceTracker};

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
                convergence: {
                    let mut tracker = ConvergenceTracker::new();
                    tracker.record(AdmmResiduals {
                        primal: 0.5,
                        dual: 0.25,
                    });
                    tracker
                },
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

    /// A write cut short at any byte — header, length, CRC or payload — is
    /// a typed rejection, and the scan falls back to the older snapshot.
    #[test]
    fn newest_snapshot_truncated_at_every_offset_falls_back_to_the_older() {
        let dir = tmp_dir("truncate-every");
        let store = CheckpointStore::open(&dir).unwrap();
        let old = snapshot(2);
        store.save_run(&old).unwrap();
        let newest = store.save_run(&snapshot(4)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        for len in 0..bytes.len() {
            fs::write(&newest, &bytes[..len]).unwrap();
            assert!(
                matches!(
                    store.load_run(&newest),
                    Err(EdgeSliceError::CorruptSnapshot { .. })
                ),
                "truncated to {len} of {} bytes",
                bytes.len()
            );
            let latest = store.latest_run().unwrap();
            assert_eq!(latest.snapshot.as_ref(), Some(&old), "truncated to {len}");
            assert_eq!(latest.rejected.len(), 1, "truncated to {len}");
            assert_eq!(latest.rejected[0].0, newest, "truncated to {len}");
        }
        let _ = fs::remove_dir_all(&dir);
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

    /// A version-3 snapshot (its coordinator keeping every round's
    /// residuals and its queues their counters) is a typed rejection, never
    /// read into a run; a version-4 one carries its policy's f32 weights
    /// through the envelope bit for bit. The policy fits only a system
    /// whose observation it reads: queues and coordination, two per slot.
    #[test]
    fn v3_snapshots_are_rejected_and_f32_policies_round_trip() {
        use crate::{AgentConfig, OrchestrationAgent, RaEnvConfig};
        use edgeslice_netsim::PoissonTraffic;
        use edgeslice_rl::Technique;
        use rand::SeedableRng;
        let dir = tmp_dir("f32-policy");
        let store = CheckpointStore::open(&dir).unwrap();
        let slices = vec![SliceSpec::experiment_slice1()];
        let env = RaSliceEnv::with_dataset(
            RaEnvConfig::experiment(slices.clone()),
            vec![Box::new(PoissonTraffic::paper())],
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let agent = OrchestrationAgent::new(
            RaId(0),
            Technique::Ddpg,
            &env,
            &AgentConfig::default(),
            &mut rng,
        );
        let mut snap = snapshot(2);
        snap.policies = vec![Some(PolicyCheckpoint::from_agent(&agent))];
        assert!(snap.validate(&slices, Some(2)).is_ok());
        assert!(matches!(
            snap.validate(&slices, Some(1)),
            Err(EdgeSliceError::SnapshotMismatch { .. })
        ));
        // A network without layers fits nothing: the network is the
        // policy's last field, its layers its only one.
        let mut no_layers = snap.clone();
        let json = PolicyCheckpoint::from_agent(&agent).to_json().unwrap();
        let json = format!(
            "{}\"layers\":[]}}}}",
            &json[..json.find("\"layers\"").unwrap()]
        );
        no_layers.policies = vec![Some(PolicyCheckpoint::from_json(&json).unwrap())];
        assert!(matches!(
            no_layers.validate_slices(&slices),
            Err(EdgeSliceError::SnapshotMismatch { .. })
        ));
        let path = store.save_run(&snap).unwrap();
        let weights = |s: &RunSnapshot| -> Vec<u32> {
            let policy = s.policies[0].as_ref().expect("a policy");
            let params = policy.network().flat_params();
            params.iter().map(|w| w.to_bits()).collect()
        };
        assert_eq!(weights(&store.load_run(&path).unwrap()), weights(&snap));

        let mut bytes = fs::read(&path).unwrap();
        bytes[4..8].copy_from_slice(&3u32.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load_run(&path),
            Err(EdgeSliceError::UnsupportedSnapshotVersion {
                found: 3,
                supported: 4,
                ..
            })
        ));
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

        // A snapshot that records no slice set fits no system.
        let mut unrecorded = snap.clone();
        unrecorded.slices = Vec::new();
        assert!(matches!(
            unrecorded.validate_slices(&expected),
            Err(EdgeSliceError::SnapshotMismatch { .. })
        ));
        // Nor does one whose worker holds per-slice state for other slots,
        // out-of-range state or another RA's, or that is short of a policy
        // or a panic count.
        for edit in 0..10 {
            let mut bad = snap.clone();
            let ws = &mut bad.workers[0];
            match edit {
                0 => ws.queues.clear(),
                1 => ws.coordination.push(0.0),
                2 => ws.active.clear(),
                3 => ws.rates.clear(),
                4 => ws.rates[0] = Some(-1.0),
                5 => ws.rates[0] = Some(f64::INFINITY),
                6 => ws.coordination[0] = f64::NAN,
                7 => ws.ra = RaId(1),
                8 => bad.policies.clear(),
                _ => bad.panic_counts.clear(),
            }
            assert!(
                matches!(
                    bad.validate_slices(&expected),
                    Err(EdgeSliceError::SnapshotMismatch { .. })
                ),
                "edit {edit}"
            );
        }
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

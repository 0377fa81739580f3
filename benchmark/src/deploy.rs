//! Building the system under test through its public API, and judging what
//! it returns: digests, the per-round audit, scratch directories.

use std::path::{Path, PathBuf};

use edgeslice::{
    AgentConfig, EdgeSliceSystem, OrchestrationAgent, OrchestratorKind, PolicyCheckpoint,
    RunReport, Scheduler, SystemConfig,
};
use edgeslice_rl::Technique;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::error::{Error, Result};
use crate::sizes::{DEPLOYMENT_SEED, N_SLICES, REPLAY_CAPACITY};

/// `AgentConfig::default()` with the replay capacity of timing rule T5.
pub fn agent_config() -> AgentConfig {
    let mut config = AgentConfig::default();
    config.ddpg.replay_capacity = REPLAY_CAPACITY;
    config
}

/// The deployment's system configuration: the slice set is drawn from
/// [`DEPLOYMENT_SEED`] (rule T1) and the ADMM stopping rules are disabled
/// (rule T4: negative tolerances never converge, the cap is out of reach),
/// so `run(R)` runs exactly `R` rounds.
pub fn system_config(n_ras: usize) -> SystemConfig {
    let mut rng = StdRng::seed_from_u64(DEPLOYMENT_SEED);
    let mut config = SystemConfig::simulation(N_SLICES, n_ras, &mut rng);
    config.admm.max_rounds = 1_000_000_000;
    config.admm.primal_tol = -1.0;
    config.admm.dual_tol = -1.0;
    config
}

/// A fresh learned (DDPG) system on the sequential scheduler. `rng` draws
/// the traffic areas and the (soon replaced) network initialisation.
pub fn new_system(n_ras: usize, rng: &mut StdRng) -> EdgeSliceSystem {
    let mut system = EdgeSliceSystem::new(
        system_config(n_ras),
        OrchestratorKind::Learned(Technique::Ddpg),
        &agent_config(),
        rng,
    );
    system.set_scheduler(Scheduler::Sequential);
    system
}

/// 64-bit FNV-1a: the digest behind every byte-identity check.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Digest of an agent's policy (its checkpoint JSON, which round-trips
/// every weight bit-exactly).
pub fn policy_digest(agent: &OrchestrationAgent) -> Result<u64> {
    let json = PolicyCheckpoint::from_agent(agent)
        .to_json()
        .map_err(|e| Error::program("serialising a policy", e))?;
    Ok(fnv1a(json.as_bytes()))
}

/// Digest of a run report's compact JSON.
pub fn report_digest(report: &RunReport) -> Result<u64> {
    let json =
        serde_json::to_string(report).map_err(|e| Error::program("serialising a report", e))?;
    Ok(fnv1a(json.as_bytes()))
}

/// Operations attempted and failed (one operation = one coordination round
/// or one `train` call).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations the block was asked to perform.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Ops {
    /// Adds another count to this one.
    pub fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// Audits a report that should hold `expected` fault-free rounds. A round
/// fails if it is missing, degraded although no fault was injected, or
/// holds a non-finite number; run-level supervision counters that cannot be
/// pinned to a round each count as one more failure.
pub fn audit_report(report: &RunReport, expected: usize) -> Ops {
    let finite = |v: &[f64]| v.iter().all(|x| x.is_finite());
    let mut failed = expected.saturating_sub(report.rounds.len());
    for (i, r) in report.rounds.iter().take(expected).enumerate() {
        let healthy = r.round == i
            && r.downed.is_empty()
            && r.outages.is_empty()
            && r.discarded_reports == 0
            && r.system_performance.is_finite()
            && r.served_fraction.is_finite()
            && r.residuals.primal.is_finite()
            && r.residuals.dual.is_finite()
            && finite(&r.slice_performance)
            && finite(&r.load)
            && r.usage.iter().all(|u| finite(u));
        failed += usize::from(!healthy);
    }
    let s = &report.supervision;
    failed += s.worker_downs.len()
        + s.deadline_timeouts
        + s.disconnects
        + s.discarded_reports
        + s.sends_abandoned
        + s.leases_expired;
    Ops {
        attempted: expected as u64,
        failed: failed.min(expected) as u64,
    }
}

/// A scratch directory inside the checkout (timing rule T6), removed when
/// dropped — on every exit path that unwinds.
#[derive(Debug)]
pub struct Scratch {
    root: PathBuf,
    next: std::sync::atomic::AtomicUsize,
}

impl Scratch {
    /// Creates `<out_dir>/scratch-<pid>-<n>/` for the first free `n`. The
    /// path stays short and relative: a Unix socket's `sun_path` holds 108
    /// bytes.
    pub fn create(out_dir: &Path) -> Result<Self> {
        std::fs::create_dir_all(out_dir)
            .map_err(|e| Error::io(format!("creating {}", out_dir.display()), e))?;
        let pid = std::process::id();
        for n in 0..1000 {
            let root = out_dir.join(format!("scratch-{pid}-{n}"));
            match std::fs::create_dir(&root) {
                Ok(()) => {
                    return Ok(Self {
                        root,
                        next: std::sync::atomic::AtomicUsize::new(0),
                    })
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(Error::io(format!("creating {}", root.display()), e)),
            }
        }
        Err(Error::Program(format!(
            "no free scratch directory under {}",
            out_dir.display()
        )))
    }

    /// A path under the scratch directory that no earlier call returned
    /// (not created).
    pub fn fresh(&self, tag: &str) -> PathBuf {
        // A counter that publishes no other data.
        let n = self.next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.root.join(format!("{tag}{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Removes a directory the program wrote into, reporting failure.
pub fn remove_dir(dir: &Path) -> Result<()> {
    std::fs::remove_dir_all(dir).map_err(|e| Error::io(format!("removing {}", dir.display()), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_published_vectors() {
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_F739_67E8);
    }

    #[test]
    fn audit_counts_missing_and_degraded_rounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut sys = EdgeSliceSystem::new(
            system_config(2),
            OrchestratorKind::Taro,
            &agent_config(),
            &mut rng,
        );
        let mut report = sys.run(4, &mut rng);
        assert_eq!(
            report.rounds.len(),
            4,
            "negative tolerances must not converge"
        );
        assert_eq!(
            audit_report(&report, 4),
            Ops {
                attempted: 4,
                failed: 0
            }
        );
        // One round short, one degraded, one non-finite.
        assert_eq!(audit_report(&report, 5).failed, 1);
        report.rounds[1].discarded_reports = 1;
        report.rounds[2].system_performance = f64::NAN;
        assert_eq!(audit_report(&report, 4).failed, 2);
        report.supervision.deadline_timeouts = 7;
        assert_eq!(audit_report(&report, 4).failed, 4, "capped at attempted");
    }

    #[test]
    fn scratch_paths_are_unique_and_removed_on_drop() {
        let out = std::env::temp_dir().join(format!("edgeslice-bench-test-{}", std::process::id()));
        let root;
        {
            let scratch = Scratch::create(&out).unwrap();
            let other = Scratch::create(&out).unwrap();
            assert_ne!(scratch.root, other.root);
            assert_ne!(scratch.fresh("ckpt"), scratch.fresh("ckpt"));
            root = scratch.root.clone();
            std::fs::create_dir_all(scratch.fresh("d")).unwrap();
            assert!(root.is_dir());
        }
        assert!(!root.exists());
        let _ = std::fs::remove_dir_all(&out);
    }
}

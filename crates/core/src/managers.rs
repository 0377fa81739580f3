//! The resource managers and interfaces (paper Sec. V, Fig. 2).
//!
//! The orchestration agent's decision reaches the infrastructure through
//! three managers — radio (VR-R), transport (VR-T) and computing (VR-C) —
//! each a middleware over its platform (OAI / ODL / CUDA in the prototype;
//! the [`edgeslice_netsim`] simulators here). The managers hide platform
//! mechanics (PRB mapping, make-before-break meter swaps, kernel splits)
//! behind a uniform *virtual resource* abstraction.

use edgeslice_netsim::{DomainShares, ReconfigMode, ResourceAutonomy, SliceRates};
use serde::{Deserialize, Serialize};

use crate::{RaId, ResourceKind, SliceId};

/// A VR (virtual resource) message: one slice's end-to-end allocation in
/// one RA for the next time interval (the agent's action, Eq. 14).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SliceAllocation {
    /// The slice being configured.
    pub slice: SliceId,
    /// Its per-domain shares.
    pub shares: DomainShares,
}

/// Errors raised by the manager layer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ManagerError {
    /// An allocation referenced a slice the RA does not serve.
    UnknownSlice {
        /// The offending slice.
        slice: SliceId,
        /// Slices actually served.
        served: usize,
    },
    /// The same slice appeared twice in one update.
    DuplicateSlice {
        /// The duplicated slice.
        slice: SliceId,
    },
    /// A share component was non-finite or outside `[0, 1]` (possible when
    /// a [`DomainShares`] is built field-wise rather than via its clamping
    /// constructor).
    InvalidShare {
        /// The offending slice.
        slice: SliceId,
        /// The offending domain.
        kind: ResourceKind,
        /// The rejected value.
        value: f64,
    },
}

impl std::fmt::Display for ManagerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ManagerError::UnknownSlice { slice, served } => {
                write!(f, "{slice} is not served by this RA ({served} slices)")
            }
            ManagerError::DuplicateSlice { slice } => {
                write!(f, "{slice} appears more than once in the update")
            }
            ManagerError::InvalidShare { slice, kind, value } => {
                write!(
                    f,
                    "{slice} {kind} share {value} is not a fraction in [0, 1]"
                )
            }
        }
    }
}

impl std::error::Error for ManagerError {}

/// The manager stack of one RA: applies VR updates atomically across all
/// three domains and reports the achieved rates back (the information the
/// system monitor collects over the VR interface).
///
/// # Make-before-break commits
///
/// [`apply`](Self::apply) is a two-phase commit. Phase 1 validates the
/// whole update (unknown slice, duplicate, non-finite share) without
/// touching any substrate; a rejection leaves the previously **committed**
/// configuration serving traffic untouched. Phase 2 installs the new
/// configuration; the transport domain swaps meters make-before-break
/// (parallel install, atomic repoint, old release) so the flow never goes
/// dark. Only after the substrates accept the new configuration does it
/// replace the committed one; [`rollback`](Self::rollback) re-installs the committed
/// configuration explicitly.
#[derive(Debug)]
pub struct ResourceManagers {
    ra: ResourceAutonomy,
    /// Last rates produced, for the monitor.
    last_rates: Vec<SliceRates>,
    /// The configuration currently serving traffic (phase-2 survivor).
    committed: Vec<DomainShares>,
}

impl ResourceManagers {
    /// Wraps the manager stack around an RA's substrates.
    pub fn new(ra: ResourceAutonomy) -> Self {
        Self {
            ra,
            last_rates: Vec::new(),
            committed: Vec::new(),
        }
    }

    /// Builds the prototype manager stack for RA `ra_id` serving
    /// `n_slices` slices.
    pub fn prototype(ra_id: RaId, n_slices: usize) -> Self {
        Self::new(ResourceAutonomy::prototype(ra_id.0, n_slices))
    }

    /// The underlying substrates (read-only).
    pub fn substrates(&self) -> &ResourceAutonomy {
        &self.ra
    }

    /// Applies a full VR update (one allocation per served slice; order
    /// free) and returns the achieved per-slice rates in slice order.
    ///
    /// Two-phase: the whole update is validated before any substrate is
    /// touched, so a rejection leaves the previously committed allocation
    /// serving traffic (see the type docs).
    ///
    /// # Errors
    ///
    /// Returns [`ManagerError`] if a slice is unknown or duplicated, or a
    /// share is not a fraction in `[0, 1]`.
    pub fn apply(&mut self, updates: &[SliceAllocation]) -> Result<Vec<SliceRates>, ManagerError> {
        // Phase 1: validate everything; no substrate is touched on error.
        let shares = self.validate(updates)?;
        // Phase 2: commit. The transport manager swaps meters
        // make-before-break inside `ResourceAutonomy::apply`, so the old
        // configuration serves until the new one is installed.
        let rates = self.ra.apply(&shares);
        self.committed = shares;
        self.last_rates = rates.clone();
        Ok(rates)
    }

    /// Phase-1 validation: resolves `updates` into a dense per-slice share
    /// vector without touching the substrates.
    fn validate(&self, updates: &[SliceAllocation]) -> Result<Vec<DomainShares>, ManagerError> {
        let n = self.ra.n_slices();
        let mut shares = vec![None; n];
        for u in updates {
            if u.slice.0 >= n {
                return Err(ManagerError::UnknownSlice {
                    slice: u.slice,
                    served: n,
                });
            }
            for kind in ResourceKind::ALL {
                let v = u.shares.as_array()[kind.index()];
                if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                    return Err(ManagerError::InvalidShare {
                        slice: u.slice,
                        kind,
                        value: v,
                    });
                }
            }
            if shares[u.slice.0].replace(u.shares).is_some() {
                return Err(ManagerError::DuplicateSlice { slice: u.slice });
            }
        }
        // Slices without an explicit update keep nothing (zero resources):
        // the radio manager simply does not schedule them.
        Ok(shares
            .into_iter()
            .map(|s| s.unwrap_or(DomainShares::new(0.0, 0.0, 0.0)))
            .collect())
    }

    /// The configuration currently serving traffic (empty before the first
    /// successful [`apply`](Self::apply)).
    pub fn committed_shares(&self) -> &[DomainShares] {
        &self.committed
    }

    /// Re-installs the committed configuration (e.g. after an out-of-band
    /// substrate change) and refreshes the achieved rates. Returns `None`
    /// when nothing was ever committed.
    pub fn rollback(&mut self) -> Option<&[SliceRates]> {
        if self.committed.is_empty() {
            return None;
        }
        let shares = self.committed.clone();
        self.last_rates = self.ra.apply(&shares);
        Some(&self.last_rates)
    }

    /// Sets the transport reconfiguration strategy (default
    /// make-before-break).
    pub fn set_reconfig_mode(&mut self, mode: ReconfigMode) {
        self.ra.set_reconfig_mode(mode);
    }

    /// The rates achieved by the most recent update.
    pub fn last_rates(&self) -> &[SliceRates] {
        &self.last_rates
    }

    /// The rate a slice obtains in one domain, from the last update.
    pub fn rate_of(&self, slice: SliceId, kind: ResourceKind) -> Option<f64> {
        self.last_rates.get(slice.0).map(|r| match kind {
            ResourceKind::Radio => r.radio_mbps,
            ResourceKind::Transport => r.transport_mbps,
            ResourceKind::Computing => r.compute_gflops_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn managers() -> ResourceManagers {
        ResourceManagers::prototype(RaId(0), 2)
    }

    #[test]
    fn apply_routes_to_all_domains() {
        let mut m = managers();
        let rates = m
            .apply(&[
                SliceAllocation {
                    slice: SliceId(0),
                    shares: DomainShares::new(0.6, 0.5, 0.25),
                },
                SliceAllocation {
                    slice: SliceId(1),
                    shares: DomainShares::new(0.4, 0.5, 0.75),
                },
            ])
            .unwrap();
        assert_eq!(rates.len(), 2);
        assert!(rates[0].radio_mbps > rates[1].radio_mbps);
        assert!(rates[1].compute_gflops_s > rates[0].compute_gflops_s);
        assert_eq!(
            m.rate_of(SliceId(0), ResourceKind::Transport),
            Some(rates[0].transport_mbps)
        );
    }

    #[test]
    fn unknown_slice_is_rejected() {
        let mut m = managers();
        let err = m
            .apply(&[SliceAllocation {
                slice: SliceId(9),
                shares: DomainShares::new(0.1, 0.1, 0.1),
            }])
            .unwrap_err();
        assert!(matches!(err, ManagerError::UnknownSlice { .. }));
        assert!(err.to_string().contains("slice-9"));
    }

    #[test]
    fn duplicate_slice_is_rejected() {
        let mut m = managers();
        let a = SliceAllocation {
            slice: SliceId(0),
            shares: DomainShares::new(0.1, 0.1, 0.1),
        };
        assert!(matches!(
            m.apply(&[a, a]),
            Err(ManagerError::DuplicateSlice { .. })
        ));
    }

    #[test]
    fn invalid_share_is_rejected() {
        let mut m = managers();
        let mut shares = DomainShares::new(0.2, 0.2, 0.2);
        shares.transport = f64::NAN;
        let err = m
            .apply(&[SliceAllocation {
                slice: SliceId(0),
                shares,
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            ManagerError::InvalidShare {
                kind: ResourceKind::Transport,
                ..
            }
        ));
    }

    #[test]
    fn rejected_update_leaves_committed_allocation_serving() {
        let mut m = managers();
        let good = [
            SliceAllocation {
                slice: SliceId(0),
                shares: DomainShares::new(0.6, 0.5, 0.25),
            },
            SliceAllocation {
                slice: SliceId(1),
                shares: DomainShares::new(0.4, 0.5, 0.75),
            },
        ];
        let rates = m.apply(&good).unwrap();
        let committed = m.committed_shares().to_vec();

        // A bad update (out-of-range share, built field-wise) must not
        // disturb the committed configuration or the reported rates.
        let mut bad = DomainShares::new(0.0, 0.0, 0.0);
        bad.radio = 1.7;
        let err = m
            .apply(&[SliceAllocation {
                slice: SliceId(0),
                shares: bad,
            }])
            .unwrap_err();
        assert!(matches!(
            err,
            ManagerError::InvalidShare {
                kind: ResourceKind::Radio,
                ..
            }
        ));
        assert_eq!(m.committed_shares(), &committed[..]);
        assert_eq!(m.last_rates(), &rates[..]);

        // Same for an unknown slice mixed into an otherwise valid update.
        let err = m
            .apply(&[
                good[0],
                SliceAllocation {
                    slice: SliceId(5),
                    shares: DomainShares::new(0.1, 0.1, 0.1),
                },
            ])
            .unwrap_err();
        assert!(matches!(err, ManagerError::UnknownSlice { .. }));
        assert_eq!(m.committed_shares(), &committed[..]);

        // Explicit rollback re-installs the committed configuration.
        let rolled = m
            .rollback()
            .expect("a configuration was committed")
            .to_vec();
        assert_eq!(rolled, rates);
    }

    #[test]
    fn rollback_before_any_commit_is_none() {
        let mut m = managers();
        assert!(m.rollback().is_none());
        let _ = m.apply(&[SliceAllocation {
            slice: SliceId(9),
            shares: DomainShares::new(0.1, 0.1, 0.1),
        }]);
        assert!(
            m.rollback().is_none(),
            "a rejected first update commits nothing"
        );
    }

    #[test]
    fn missing_slice_gets_zero_resources() {
        let mut m = managers();
        let rates = m
            .apply(&[SliceAllocation {
                slice: SliceId(0),
                shares: DomainShares::new(0.5, 0.5, 0.5),
            }])
            .unwrap();
        assert_eq!(rates[1].radio_mbps, 0.0);
        assert_eq!(rates[1].transport_mbps, 0.0);
        assert_eq!(rates[1].compute_gflops_s, 0.0);
    }
}

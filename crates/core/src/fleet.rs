//! Per-RA policy inference over a set of frozen policies.
//!
//! The paper's orchestration agents are decentralized: each RA maps its
//! own state to its own action (Sec. IV-B). A [`PolicyFleet`] holds one
//! frozen policy per RA and decides for every RA in turn, each state one
//! batch-1 forward ([`crate::PolicyCheckpoint::decide_into`]) on one
//! shared scratch, so its actions are bit-identical to calling
//! [`crate::PolicyCheckpoint::decide`] one RA at a time.

use edgeslice_nn::RowScratch;

use crate::PolicyCheckpoint;

/// The schedule argument of [`PolicyFleet::new`] and
/// [`crate::EdgeSliceSystem::policy_fleet`]. It carries no choice: the
/// fleet's forward runs on the caller's thread, and parallelism across RAs
/// belongs to the runtime's `Scheduler`. It remains only because the
/// benchmark's two fleet probes still pass it, and goes with this module
/// once they stop (ROADMAP.md item 3(c)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Run on the caller's thread.
    Sequential,
}

/// One frozen policy per RA and the scratch their decisions share.
/// Steady-state [`PolicyFleet::decide_into`] performs zero heap
/// allocations.
#[derive(Debug, Clone)]
pub struct PolicyFleet {
    /// One frozen policy per RA, in RA order.
    policies: Vec<PolicyCheckpoint>,
    /// The batch-1 forward scratch every RA's decision reuses.
    scratch: RowScratch,
}

impl PolicyFleet {
    /// Builds a fleet from one frozen policy per RA.
    pub fn new(policies: Vec<PolicyCheckpoint>, _par: Parallelism) -> Self {
        Self {
            policies,
            scratch: RowScratch::new(),
        }
    }

    /// The per-RA policies, in RA order.
    pub fn policies(&self) -> &[PolicyCheckpoint] {
        &self.policies
    }

    /// Greedy actions for all RAs. `actions[i]` is rewritten in place with
    /// RA `i`'s action and is bit-identical to
    /// `self.policies()[i].decide(&states[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from the number of policies or any
    /// state's length differs from its policy's `state_dim`.
    pub fn decide_into(&mut self, states: &[Vec<f64>], actions: &mut Vec<Vec<f64>>) {
        assert_eq!(
            states.len(),
            self.policies.len(),
            "fleet decide_into: {} states for {} RAs",
            states.len(),
            self.policies.len()
        );
        // Empty rows hold no heap block; each grows once, at warm-up.
        actions.resize_with(self.policies.len(), Default::default);
        for ((policy, state), action) in self.policies.iter().zip(states).zip(actions) {
            policy.decide_into(state, &mut self.scratch, action);
        }
    }
}

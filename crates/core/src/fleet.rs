//! Cross-RA batched policy inference.
//!
//! The paper's orchestration agents are decentralized, but after
//! [`crate::EdgeSliceSystem::train_shared`] / `install_agents` every RA
//! runs a policy with bit-identical parameters — the shared-policy
//! structure the FDRL-for-6G line of work leans on. A [`PolicyFleet`]
//! exploits that: it groups RAs whose frozen policies are bit-identical
//! and serves each group with **one** fused `(n_ra × state_dim)` batched
//! forward ([`edgeslice_nn::Mlp::forward_fleet_scratch`]) instead of N
//! per-agent forwards. Per-RA actions are bit-identical to calling
//! [`crate::PolicyCheckpoint::decide`] one RA at a time — batching never
//! changes a row's arithmetic — so the fleet is purely a wall-clock
//! optimization.

use edgeslice_nn::FleetScratch;

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

/// A set of per-RA frozen policies served by fused batched inference.
///
/// Construction groups the policies by bit-identical parameters
/// ([`PolicyCheckpoint::policy_bit_identical`]); a fully shared-policy
/// system collapses to a single group and a single GEMM chain per
/// decision round. All scratch buffers are reused across calls, so
/// steady-state [`PolicyFleet::decide_into`] performs zero heap
/// allocations.
#[derive(Debug, Clone)]
pub struct PolicyFleet {
    /// One frozen policy per RA, in RA order.
    policies: Vec<PolicyCheckpoint>,
    /// Disjoint RA-index groups; all members of a group share
    /// bit-identical policies and are served by one batched forward.
    groups: Vec<Vec<usize>>,
    /// One inference scratch per group.
    scratches: Vec<FleetScratch>,
}

impl PolicyFleet {
    /// Builds a fleet from one frozen policy per RA, grouping RAs whose
    /// policies are bit-identical.
    pub fn new(policies: Vec<PolicyCheckpoint>, _par: Parallelism) -> Self {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        for (i, p) in policies.iter().enumerate() {
            let existing = groups.iter().position(|g| {
                let rep = *g.first().expect("invariant: fleet groups are never empty");
                policies[rep].policy_bit_identical(p)
            });
            match existing {
                Some(gi) => groups[gi].push(i),
                None => groups.push(vec![i]),
            }
        }
        let scratches = groups.iter().map(|_| FleetScratch::new()).collect();
        Self {
            policies,
            groups,
            scratches,
        }
    }

    /// Number of RAs served by this fleet.
    pub fn len(&self) -> usize {
        self.policies.len()
    }

    /// True when the fleet serves no RAs.
    pub fn is_empty(&self) -> bool {
        self.policies.is_empty()
    }

    /// Number of distinct parameter groups (1 for a fully shared-policy
    /// system: a single fused GEMM serves every RA).
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// The per-RA policies, in RA order.
    pub fn policies(&self) -> &[PolicyCheckpoint] {
        &self.policies
    }

    /// Greedy actions for all RAs: one fused batched forward per parameter
    /// group. `actions[i]` is rewritten in place with RA `i`'s action and
    /// is bit-identical to `self.policies()[i].decide(&states[i])`.
    ///
    /// # Panics
    ///
    /// Panics if `states.len()` differs from [`PolicyFleet::len`] or any
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
        for (group, scratch) in self.groups.iter().zip(&mut self.scratches) {
            let rep = *group
                .first()
                .expect("invariant: fleet groups are never empty");
            let policy = &self.policies[rep];
            scratch.begin(group.len(), policy.state_dim());
            for (slot, &member) in group.iter().enumerate() {
                scratch.set_input_row(slot, &states[member]);
            }
            let out = policy.network().forward_fleet_scratch(scratch);
            for (slot, &member) in group.iter().enumerate() {
                policy.decode_row(out.row(slot), &mut actions[member]);
            }
        }
    }
}

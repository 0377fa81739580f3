//! GPU computing simulator — the CUDA/MPS substitute.
//!
//! Reproduces the mechanics the paper's **computing manager** controls
//! (Sec. V-C): user applications launch kernels that request CUDA threads;
//! with the multi-process service (MPS) several tenants share the GPU, but
//! NVIDIA does not expose the scheduling, so a tenant's occupancy cannot be
//! controlled directly. The manager's **kernel-split** mechanism rewrites a
//! kernel requesting many threads into multiple small consecutive kernels
//! of at most the tenant's virtual resource, so — because kernel execution
//! is in-order — the tenant never occupies more threads than allocated.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A CUDA kernel launch: a thread request plus the work it performs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Kernel {
    /// Threads named in the execution-configuration syntax `<<<...>>>`.
    pub threads: u32,
    /// Work carried by this kernel, GFLOPs.
    pub gflops: f64,
}

impl Kernel {
    /// Creates a kernel.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `gflops` is negative.
    pub fn new(threads: u32, gflops: f64) -> Self {
        assert!(threads > 0, "a kernel needs at least one thread");
        assert!(
            gflops >= 0.0 && gflops.is_finite(),
            "invalid workload {gflops}"
        );
        Self { threads, gflops }
    }
}

/// Splits `kernel` into consecutive kernels of at most `max_threads` each,
/// preserving total work (work divides proportionally to threads).
///
/// This is the kernel-split mechanism of Sec. V-C. Returns an empty vector
/// when `max_threads == 0` (a tenant with no virtual resources runs
/// nothing).
pub fn split_kernel(kernel: Kernel, max_threads: u32) -> Vec<Kernel> {
    if max_threads == 0 {
        return Vec::new();
    }
    if kernel.threads <= max_threads {
        return vec![kernel];
    }
    let full_chunks = kernel.threads / max_threads;
    let tail = kernel.threads % max_threads;
    let per_thread_work = kernel.gflops / kernel.threads as f64;
    let mut out = Vec::with_capacity(full_chunks as usize + usize::from(tail > 0));
    for _ in 0..full_chunks {
        out.push(Kernel {
            threads: max_threads,
            gflops: per_thread_work * max_threads as f64,
        });
    }
    if tail > 0 {
        out.push(Kernel {
            threads: tail,
            gflops: per_thread_work * tail as f64,
        });
    }
    out
}

/// A tenant application's identity on the GPU (associated to a slice by IP
/// address in the computing manager).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TenantId(pub u32);

/// A shared GPU under MPS: tenants hold virtual thread budgets and submit
/// kernels that execute in order per tenant.
///
/// The prototype's edge servers are GTX 1080 Ti cards budgeted at 51200
/// concurrent threads per RA (Sec. VI-A).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gpu {
    total_threads: u32,
    /// Throughput at full occupancy, GFLOPs/s.
    peak_gflops_s: f64,
    /// Tenant → maximum concurrent threads (its virtual resource).
    budgets: BTreeMap<TenantId, u32>,
    /// Tenant → pending kernel queue (in launch order, post-split).
    queues: BTreeMap<TenantId, Vec<Kernel>>,
    /// Set if any kernel ever executed with more threads than its tenant's
    /// budget at that moment (the invariant the kernel-split mechanism
    /// guarantees can never happen).
    occupancy_violated: bool,
}

impl Gpu {
    /// Creates a GPU with the given thread capacity and peak throughput.
    ///
    /// # Panics
    ///
    /// Panics on zero capacity or non-positive throughput.
    pub fn new(total_threads: u32, peak_gflops_s: f64) -> Self {
        assert!(total_threads > 0, "GPU needs threads");
        assert!(peak_gflops_s > 0.0, "GPU needs throughput");
        Self {
            total_threads,
            peak_gflops_s,
            budgets: BTreeMap::new(),
            queues: BTreeMap::new(),
            occupancy_violated: false,
        }
    }

    /// The prototype GPU: 51200 threads, ~8000 GFLOPs/s effective YOLO
    /// throughput per RA (a GTX 1080 Ti runs YOLOv3-608 at ~30 fps ≈
    /// 4200 GFLOPs/s; the prototype pairs two cards per edge server,
    /// Table II).
    pub fn prototype() -> Self {
        Self::new(51_200, 8_000.0)
    }

    /// Total thread capacity.
    pub(crate) fn total_threads(&self) -> u32 {
        self.total_threads
    }

    /// Sets a tenant's virtual resource (maximum concurrent threads).
    ///
    /// Pending kernels are re-split against the new budget: the manager
    /// performs splitting in the modified user application at launch time
    /// (Sec. V-C), so anything not yet on the GPU is re-shaped by the next
    /// virtual-resource update.
    pub(crate) fn set_budget(&mut self, tenant: TenantId, max_threads: u32) {
        self.budgets.insert(tenant, max_threads);
        if let Some(queue) = self.queues.get_mut(&tenant) {
            let pending = std::mem::take(queue);
            for k in pending {
                queue.extend(split_kernel(k, max_threads));
            }
        }
    }

    /// A tenant's current budget (0 if unknown).
    pub(crate) fn budget(&self, tenant: TenantId) -> u32 {
        self.budgets.get(&tenant).copied().unwrap_or(0)
    }

    /// Submits an application kernel. The computing manager splits it
    /// against the tenant's budget before it reaches the kernel queue, so
    /// in-order execution bounds the tenant's occupancy by its budget.
    pub(crate) fn submit(&mut self, tenant: TenantId, kernel: Kernel) {
        let budget = self.budget(tenant);
        let queue = self.queues.entry(tenant).or_default();
        for k in split_kernel(kernel, budget) {
            queue.push(k);
        }
    }

    /// The tenant's effective throughput in GFLOPs/s: its budget share of
    /// the card (MPS partitions SMs proportionally to occupancy).
    pub(crate) fn tenant_gflops_s(&self, tenant: TenantId) -> f64 {
        self.peak_gflops_s * self.budget(tenant) as f64 / self.total_threads as f64
    }

    /// Advances the execution timeline by `dt` seconds, draining each
    /// tenant's kernel queue in order at the tenant's effective throughput.
    /// Returns the completed work per tenant in GFLOPs.
    pub fn advance(&mut self, dt: f64) -> BTreeMap<TenantId, f64> {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid time step {dt}");
        let mut done = BTreeMap::new();
        for (&tenant, queue) in &mut self.queues {
            let budget = self.budgets.get(&tenant).copied().unwrap_or(0);
            let rate = self.peak_gflops_s * budget as f64 / self.total_threads as f64;
            let mut capacity = rate * dt;
            let mut completed = 0.0;
            while capacity > 0.0 {
                let Some(front) = queue.first_mut() else {
                    break;
                };
                // In-order execution: the running kernel's threads are the
                // tenant's occupancy — checked against the budget in effect
                // *now*.
                if front.threads > budget {
                    self.occupancy_violated = true;
                }
                if front.gflops <= capacity {
                    capacity -= front.gflops;
                    completed += front.gflops;
                    queue.remove(0);
                } else {
                    front.gflops -= capacity;
                    completed += capacity;
                    capacity = 0.0;
                }
            }
            if completed > 0.0 {
                done.insert(tenant, completed);
            }
        }
        done
    }

    /// The invariant the kernel-split mechanism guarantees: no kernel ever
    /// executed with more threads than its tenant's budget at that moment.
    pub(crate) fn occupancy_within_budgets(&self) -> bool {
        !self.occupancy_violated
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pending kernels for a tenant.
    fn pending(gpu: &Gpu, tenant: TenantId) -> usize {
        gpu.queues.get(&tenant).map_or(0, Vec::len)
    }

    #[test]
    fn split_preserves_threads_and_work() {
        let k = Kernel::new(1000, 50.0);
        let parts = split_kernel(k, 300);
        assert_eq!(parts.len(), 4); // 300+300+300+100
        assert_eq!(parts.iter().map(|p| p.threads).sum::<u32>(), 1000);
        let work: f64 = parts.iter().map(|p| p.gflops).sum();
        assert!((work - 50.0).abs() < 1e-9);
        assert!(parts.iter().all(|p| p.threads <= 300));
        // A YOLO-sized kernel on the prototype GPU's 51 200 threads.
        let yolo = Kernel::new(51_200, 140.0);
        for (budget, pieces) in [(51_200, 1), (25_600, 2), (10_000, 6), (1_024, 50)] {
            let parts = split_kernel(yolo, budget);
            assert_eq!(parts.len(), pieces);
            assert_eq!(parts.iter().map(|p| p.threads).sum::<u32>(), 51_200);
            let work: f64 = parts.iter().map(|p| p.gflops).sum();
            assert!((work - 140.0).abs() < 1e-9);
            assert!(parts.iter().all(|p| p.threads <= budget));
        }
    }

    #[test]
    fn split_is_identity_when_within_budget() {
        let k = Kernel::new(100, 5.0);
        assert_eq!(split_kernel(k, 100), vec![k]);
        assert_eq!(split_kernel(k, 500), vec![k]);
    }

    #[test]
    fn zero_budget_runs_nothing() {
        assert!(split_kernel(Kernel::new(100, 5.0), 0).is_empty());
        let mut gpu = Gpu::prototype();
        let t = TenantId(1);
        gpu.submit(t, Kernel::new(4096, 10.0));
        assert_eq!(pending(&gpu, t), 0);
        assert_eq!(gpu.tenant_gflops_s(t), 0.0);
    }

    #[test]
    fn occupancy_never_exceeds_budget() {
        let mut gpu = Gpu::prototype();
        let t = TenantId(7);
        gpu.set_budget(t, 10_000);
        // An application kernel far larger than the budget.
        gpu.submit(t, Kernel::new(51_200, 140.0));
        gpu.advance(10.0);
        assert!(gpu.occupancy_within_budgets());
    }

    #[test]
    fn budget_shrink_resplits_pending_kernels() {
        let mut gpu = Gpu::prototype();
        let t = TenantId(3);
        gpu.set_budget(t, 40_000);
        gpu.submit(t, Kernel::new(51_200, 100.0));
        // Shrink before execution: queued kernels must be re-split.
        gpu.set_budget(t, 8_000);
        gpu.advance(10.0);
        assert!(gpu.occupancy_within_budgets());
    }

    #[test]
    fn throughput_is_proportional_to_budget() {
        let mut gpu = Gpu::new(1000, 100.0);
        gpu.set_budget(TenantId(1), 250);
        gpu.set_budget(TenantId(2), 750);
        assert!((gpu.tenant_gflops_s(TenantId(1)) - 25.0).abs() < 1e-12);
        assert!((gpu.tenant_gflops_s(TenantId(2)) - 75.0).abs() < 1e-12);
    }

    #[test]
    fn advance_drains_in_order() {
        let mut gpu = Gpu::new(1000, 100.0);
        let t = TenantId(1);
        gpu.set_budget(t, 1000); // full card: 100 GFLOPs/s
        gpu.submit(t, Kernel::new(100, 30.0));
        gpu.submit(t, Kernel::new(100, 30.0));
        let done = gpu.advance(0.5); // 50 GFLOPs of capacity
        assert!((done[&t] - 50.0).abs() < 1e-9);
        assert_eq!(pending(&gpu, t), 1); // first kernel done, second partial
        let done = gpu.advance(0.1); // 10 more
        assert!((done[&t] - 10.0).abs() < 1e-9);
        assert_eq!(pending(&gpu, t), 0);
    }

    #[test]
    fn tenants_share_without_interference() {
        let mut gpu = Gpu::new(1000, 100.0);
        gpu.set_budget(TenantId(1), 400);
        gpu.set_budget(TenantId(2), 600);
        gpu.submit(TenantId(1), Kernel::new(400, 100.0));
        gpu.submit(TenantId(2), Kernel::new(600, 100.0));
        let done = gpu.advance(1.0);
        assert!((done[&TenantId(1)] - 40.0).abs() < 1e-9);
        assert!((done[&TenantId(2)] - 60.0).abs() < 1e-9);
        assert!(gpu.occupancy_within_budgets());
    }
}

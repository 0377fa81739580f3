//! Per-slice FIFO service queues (paper Sec. VI-B, Fig. 5).
//!
//! Each network slice buffers its users' arriving tasks in a FIFO queue; an
//! interval's resource orchestration determines the per-task service time
//! and therefore how much of the queue drains. The queue length `l` is the
//! network state observed by orchestration agents (Eq. 13) and the argument
//! of the performance function `U = −l^α` (Sec. VII).

use serde::{Deserialize, Serialize};

/// A FIFO queue of service tasks, measured in (possibly fractional) tasks.
///
/// Fractional backlog models a task partially served at an interval
/// boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServiceQueue {
    backlog: f64,
    total_arrived: f64,
    total_served: f64,
    total_dropped: f64,
    capacity: Option<f64>,
}

impl ServiceQueue {
    /// Creates an empty, unbounded queue.
    pub fn new() -> Self {
        Self {
            backlog: 0.0,
            total_arrived: 0.0,
            total_served: 0.0,
            total_dropped: 0.0,
            capacity: None,
        }
    }

    /// Creates an empty queue that drops arrivals beyond `capacity` tasks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub fn with_capacity(capacity: f64) -> Self {
        assert!(capacity > 0.0, "queue capacity must be positive");
        Self {
            capacity: Some(capacity),
            ..Self::new()
        }
    }

    /// Current backlog in tasks (the paper's `l`).
    pub fn backlog(&self) -> f64 {
        self.backlog
    }

    /// Enqueues `tasks` arrivals, returning how many were accepted.
    ///
    /// # Panics
    ///
    /// Panics if `tasks` is negative or non-finite.
    pub fn arrive(&mut self, tasks: f64) -> f64 {
        assert!(
            tasks.is_finite() && tasks >= 0.0,
            "invalid arrival count {tasks}"
        );
        let accepted = match self.capacity {
            Some(cap) => tasks.min((cap - self.backlog).max(0.0)),
            None => tasks,
        };
        self.total_dropped += tasks - accepted;
        self.backlog += accepted;
        self.total_arrived += accepted;
        accepted
    }

    /// Serves up to `capacity` tasks, returning how many were actually
    /// served (bounded by the backlog).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is negative or non-finite.
    pub fn serve(&mut self, capacity: f64) -> f64 {
        assert!(
            capacity.is_finite() && capacity >= 0.0,
            "invalid service capacity {capacity}"
        );
        let served = capacity.min(self.backlog);
        self.backlog -= served;
        self.total_served += served;
        served
    }

    /// Empties the queue and returns the flushed backlog (counters are
    /// preserved; the flushed work counts as dropped).
    pub fn flush(&mut self) -> f64 {
        let b = self.backlog;
        self.backlog = 0.0;
        self.total_dropped += b;
        b
    }

    /// Flow-conservation check:
    /// `arrived == served + backlog` (within floating-point tolerance).
    pub fn is_conserving(&self) -> bool {
        (self.total_arrived - self.total_served - self.backlog).abs() < 1e-6
    }
}

impl Default for ServiceQueue {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_and_service_update_backlog() {
        let mut q = ServiceQueue::new();
        q.arrive(10.0);
        assert_eq!(q.backlog(), 10.0);
        let served = q.serve(4.0);
        assert_eq!(served, 4.0);
        assert_eq!(q.backlog(), 6.0);
        assert!(q.is_conserving());
    }

    #[test]
    fn service_is_bounded_by_backlog() {
        let mut q = ServiceQueue::new();
        q.arrive(3.0);
        assert_eq!(q.serve(100.0), 3.0);
        assert_eq!(q.backlog(), 0.0);
        assert!(q.is_conserving());
    }

    #[test]
    fn bounded_queue_drops_overflow() {
        let mut q = ServiceQueue::with_capacity(5.0);
        let accepted = q.arrive(8.0);
        assert_eq!(accepted, 5.0);
        assert_eq!(q.total_dropped, 3.0);
        assert_eq!(q.backlog(), 5.0);
        assert!(q.is_conserving());
    }

    #[test]
    fn flush_counts_as_drops() {
        let mut q = ServiceQueue::new();
        q.arrive(7.0);
        q.serve(2.0);
        assert_eq!(q.flush(), 5.0);
        assert_eq!(q.backlog(), 0.0);
        assert_eq!(q.total_dropped, 5.0);
    }

    #[test]
    #[should_panic(expected = "invalid arrival count")]
    fn negative_arrival_panics() {
        ServiceQueue::new().arrive(-1.0);
    }

    #[test]
    fn conservation_over_random_walk() {
        let mut q = ServiceQueue::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            // Cheap deterministic pseudo-random walk.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as f64 / 4e9;
            q.arrive(a * 10.0);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) as f64 / 4e9;
            q.serve(s * 10.0);
        }
        assert!(q.is_conserving());
    }
}

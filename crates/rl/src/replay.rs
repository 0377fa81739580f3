//! Experience replay memory (Fig. 3).

use edgeslice_nn::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

use crate::Transition;

/// A fixed-capacity ring buffer of transitions with uniform sampling. It
/// stores in `f32`, the networks' precision: [`ReplayBuffer::push`] narrows
/// each `f64` [`Transition`] once.
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    capacity: usize,
    state_dim: usize,
    action_dim: usize,
    states: Vec<f32>,
    actions: Vec<f32>,
    rewards: Vec<f32>,
    next_states: Vec<f32>,
    dones: Vec<bool>,
    len: usize,
    head: usize,
}

/// A sampled minibatch in matrix form, ready for batched forward passes.
///
/// A `Batch` is a *reusable buffer*: [`ReplayBuffer::sample_into`] reshapes
/// the matrices in place, so a long-lived batch reaches steady-state
/// capacity after the first sample and never allocates again.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    /// `batch × state_dim` states.
    pub states: Matrix,
    /// `batch × action_dim` actions.
    pub actions: Matrix,
    /// Rewards, one per row.
    pub rewards: Vec<f32>,
    /// `batch × state_dim` successor states.
    pub next_states: Matrix,
    /// Termination flags, one per row.
    pub dones: Vec<bool>,
}

impl Batch {
    /// An empty batch buffer, sized lazily by the first
    /// [`ReplayBuffer::sample_into`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of sampled transitions.
    pub fn len(&self) -> usize {
        self.rewards.len()
    }

    /// True if the batch holds no transitions.
    pub fn is_empty(&self) -> bool {
        self.rewards.is_empty()
    }
}

/// Why [`ReplayBuffer::sample`] could not produce a batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// The buffer holds fewer transitions than the requested batch size —
    /// the warm-up contract: agents must not learn before `len >= batch`.
    NotEnoughSamples {
        /// Transitions currently stored.
        have: usize,
        /// Transitions the caller asked for.
        need: usize,
    },
    /// The caller asked for an empty batch, which is never meaningful.
    EmptyBatch,
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::NotEnoughSamples { have, need } => write!(
                f,
                "replay buffer holds {have} transitions but the batch needs {need} (still warming up)"
            ),
            SampleError::EmptyBatch => write!(f, "cannot sample an empty batch"),
        }
    }
}

impl std::error::Error for SampleError {}

impl ReplayBuffer {
    /// Creates a buffer for transitions of the given dimensions. It
    /// reserves nothing until the first [`ReplayBuffer::push`]: a learner
    /// that is built and replaced before it stores a transition never
    /// asks the allocator for its memory.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize, state_dim: usize, action_dim: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        Self {
            capacity,
            state_dim,
            action_dim,
            states: Vec::new(),
            actions: Vec::new(),
            rewards: Vec::new(),
            next_states: Vec::new(),
            dones: Vec::new(),
            len: 0,
            head: 0,
        }
    }

    /// Number of stored transitions (≤ capacity).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no transitions are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Appends a transition, narrowed to `f32`, overwriting the oldest when
    /// full.
    ///
    /// # Panics
    ///
    /// Panics if the transition's dimensions don't match the buffer's.
    pub fn push(&mut self, t: &Transition) {
        assert_eq!(t.state.len(), self.state_dim, "state dim mismatch");
        assert_eq!(t.action.len(), self.action_dim, "action dim mismatch");
        assert_eq!(
            t.next_state.len(),
            self.state_dim,
            "next state dim mismatch"
        );
        if self.len < self.capacity {
            // Still filling: append. The stores are reserved at full size
            // on the first push but written only as transitions arrive, so a
            // part-filled memory keeps only its filled pages resident —
            // wherever the allocator places it (a zero-filled store is
            // wholly resident as soon as it lands on recycled memory).
            let cap = self.capacity;
            append(&mut self.states, narrow(&t.state), cap * self.state_dim);
            append(&mut self.actions, narrow(&t.action), cap * self.action_dim);
            append(&mut self.rewards, narrow(&[t.reward]), cap);
            append(
                &mut self.next_states,
                narrow(&t.next_state),
                cap * self.state_dim,
            );
            append(&mut self.dones, [t.done].into_iter(), cap);
            self.len += 1;
        } else {
            let i = self.head;
            let (sd, ad) = (self.state_dim, self.action_dim);
            overwrite(&mut self.states[i * sd..(i + 1) * sd], &t.state);
            overwrite(&mut self.actions[i * ad..(i + 1) * ad], &t.action);
            self.rewards[i] = t.reward as f32;
            overwrite(&mut self.next_states[i * sd..(i + 1) * sd], &t.next_state);
            self.dones[i] = t.done;
        }
        self.head = (self.head + 1) % self.capacity;
    }

    /// Uniformly samples `batch_size` transitions (with replacement) into a
    /// freshly allocated [`Batch`].
    ///
    /// Returns a typed [`SampleError`] when the buffer is still warming up
    /// (fewer than `batch_size` transitions stored) or `batch_size == 0`;
    /// agents treat that as "skip this update" and leave their networks
    /// untouched.
    ///
    /// # Errors
    ///
    /// [`SampleError::NotEnoughSamples`] during warm-up,
    /// [`SampleError::EmptyBatch`] for `batch_size == 0`.
    pub fn sample(&self, batch_size: usize, rng: &mut StdRng) -> Result<Batch, SampleError> {
        let mut out = Batch::new();
        self.sample_into(batch_size, rng, &mut out)?;
        Ok(out)
    }

    /// [`ReplayBuffer::sample`] into a caller-owned [`Batch`], reusing its
    /// allocations. Draws the RNG in the same per-row order as `sample`, so
    /// both produce identical batches from identical RNG states.
    ///
    /// # Errors
    ///
    /// [`SampleError::NotEnoughSamples`] during warm-up,
    /// [`SampleError::EmptyBatch`] for `batch_size == 0`. `out` is left
    /// unchanged on error.
    pub fn sample_into(
        &self,
        batch_size: usize,
        rng: &mut StdRng,
        out: &mut Batch,
    ) -> Result<(), SampleError> {
        if batch_size == 0 {
            return Err(SampleError::EmptyBatch);
        }
        if self.len < batch_size {
            return Err(SampleError::NotEnoughSamples {
                have: self.len,
                need: batch_size,
            });
        }
        out.states.resize_for(batch_size, self.state_dim);
        out.actions.resize_for(batch_size, self.action_dim);
        out.rewards.resize(batch_size, 0.0);
        out.next_states.resize_for(batch_size, self.state_dim);
        out.dones.resize(batch_size, false);
        for b in 0..batch_size {
            let i = rng.gen_range(0..self.len);
            out.states
                .row_mut(b)
                .copy_from_slice(&self.states[i * self.state_dim..(i + 1) * self.state_dim]);
            out.actions
                .row_mut(b)
                .copy_from_slice(&self.actions[i * self.action_dim..(i + 1) * self.action_dim]);
            out.rewards[b] = self.rewards[i];
            out.next_states
                .row_mut(b)
                .copy_from_slice(&self.next_states[i * self.state_dim..(i + 1) * self.state_dim]);
            out.dones[b] = self.dones[i];
        }
        Ok(())
    }
}

/// Appends `row` to a store that never holds more than `full` values,
/// reserving all of it on the first append: a clone of a part-filled store
/// starts at its length, and amortised growth would overshoot.
fn append<T>(store: &mut Vec<T>, row: impl Iterator<Item = T>, full: usize) {
    store.reserve_exact(full - store.len());
    store.extend(row);
}

/// `values` narrowed to the store's `f32`.
fn narrow(values: &[f64]) -> impl Iterator<Item = f32> + '_ {
    values.iter().map(|&v| v as f32)
}

/// Overwrites a stored row with `values`, narrowed.
fn overwrite(row: &mut [f32], values: &[f64]) {
    for (dst, v) in row.iter_mut().zip(narrow(values)) {
        *dst = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(v: f64) -> Transition {
        Transition {
            state: vec![v, v],
            action: vec![v],
            reward: v,
            next_state: vec![v + 1.0, v + 1.0],
            done: false,
        }
    }

    #[test]
    fn fills_then_wraps() {
        let mut b = ReplayBuffer::new(3, 2, 1);
        for i in 0..5 {
            b.push(&t(i as f64));
        }
        assert_eq!(b.len(), 3);
        // Oldest two (0, 1) evicted: all stored rewards are in {2,3,4}.
        assert!(b.rewards.iter().all(|&r| (2.0..=4.0).contains(&r)));
    }

    /// An empty buffer holds no memory; the first push reserves all of it.
    #[test]
    fn memory_is_reserved_by_the_first_push() {
        let mut b = ReplayBuffer::new(4, 2, 1);
        assert_eq!(b.states.capacity() + b.rewards.capacity(), 0);
        b.push(&t(0.0));
        assert_eq!(b.states.capacity(), 4 * 2);
        assert_eq!(b.dones.capacity(), 4);
    }

    /// A clone taken mid-fill keeps filling, then wraps, exactly like the
    /// buffer it was cloned from, and stays at its capacity.
    #[test]
    fn part_filled_clone_fills_and_wraps_like_the_original() {
        let mut a = ReplayBuffer::new(4, 2, 1);
        a.push(&t(0.0));
        a.push(&t(1.0));
        let mut b = a.clone();
        for i in 2..7 {
            a.push(&t(i as f64));
            b.push(&t(i as f64));
        }
        assert_eq!((a.len(), a.head), (b.len(), b.head));
        assert_eq!(a.rewards, vec![4.0, 5.0, 6.0, 3.0]);
        assert_eq!(b.rewards, a.rewards);
        assert_eq!(b.states, a.states);
        assert_eq!(b.next_states, a.next_states);
        assert_eq!(b.states.capacity(), 4 * 2);
    }

    #[test]
    fn sample_requires_enough_data() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut b = ReplayBuffer::new(10, 2, 1);
        assert_eq!(
            b.sample(1, &mut rng).unwrap_err(),
            SampleError::NotEnoughSamples { have: 0, need: 1 }
        );
        b.push(&t(1.0));
        assert_eq!(
            b.sample(2, &mut rng).unwrap_err(),
            SampleError::NotEnoughSamples { have: 1, need: 2 }
        );
        assert_eq!(b.sample(0, &mut rng).unwrap_err(), SampleError::EmptyBatch);
        assert!(b.sample(1, &mut rng).is_ok());
    }

    #[test]
    fn sample_into_reuses_buffers_and_matches_sample() {
        let mut b = ReplayBuffer::new(16, 2, 1);
        for i in 0..16 {
            b.push(&t(i as f64));
        }
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let fresh = b.sample(8, &mut rng_a).unwrap();
        let mut reused = Batch::new();
        // Warm the buffer with a differently-sized draw first, then check
        // the reshaped re-draw matches `sample` exactly.
        b.sample_into(4, &mut StdRng::seed_from_u64(0), &mut reused)
            .unwrap();
        b.sample_into(8, &mut rng_b, &mut reused).unwrap();
        assert_eq!(fresh.states, reused.states);
        assert_eq!(fresh.actions, reused.actions);
        assert_eq!(fresh.rewards, reused.rewards);
        assert_eq!(fresh.next_states, reused.next_states);
        assert_eq!(fresh.dones, reused.dones);
        assert_eq!(reused.len(), 8);
        assert!(!reused.is_empty());
    }

    #[test]
    fn sampled_rows_are_consistent_tuples() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = ReplayBuffer::new(16, 2, 1);
        for i in 0..16 {
            b.push(&t(i as f64));
        }
        let batch = b.sample(8, &mut rng).unwrap();
        assert_eq!(batch.states.shape(), (8, 2));
        assert_eq!(batch.actions.shape(), (8, 1));
        for r in 0..8 {
            let v = batch.rewards[r];
            assert_eq!(batch.states.row(r), &[v, v], "state must match reward row");
            assert_eq!(batch.actions.row(r), &[v]);
            assert_eq!(batch.next_states.row(r), &[v + 1.0, v + 1.0]);
        }
    }

    #[test]
    #[should_panic(expected = "state dim mismatch")]
    fn dimension_mismatch_panics() {
        let mut b = ReplayBuffer::new(4, 3, 1);
        b.push(&t(0.0));
    }
}

//! Dense row-major matrices over `f64`.
//!
//! This is deliberately a small, allocation-explicit matrix type rather than
//! a general tensor library: everything EdgeSlice needs is 2-D (batches of
//! states/actions flowing through fully-connected layers) and small (layer
//! widths of 64–256), so one register-tiled, cache-blocked product over a
//! contiguous `Vec<f64>` ([`Matrix::gemm_into`]) is both simple and fast
//! enough to train the paper's 2×128 networks on a laptop.

use std::fmt;
use std::ops::{Add, Mul, Sub};

use serde::{Deserialize, Serialize};

/// Inner-dimension (`k`) tile for the cache-blocked GEMM kernels: terms per
/// packed B panel. `TILE_K × TILE_N` f64 values are 64 KiB — sized so one
/// panel plus the active A rows stay resident in L1/L2 while every output
/// tile is visited.
pub const TILE_K: usize = 128;

/// Output-width (`n`) tile for the cache-blocked GEMM kernels: columns per
/// packed B panel.
pub const TILE_N: usize = 64;

/// Length of one packed B panel (`TILE_K × TILE_N`), held in a per-thread
/// array ([`BLOCKED_BUFFERS`]) so the blocked kernels never touch the
/// allocator.
const PANEL_LEN: usize = TILE_K * TILE_N;

/// A dense, row-major matrix of `f64` values.
///
/// # Examples
///
/// ```
/// use edgeslice_nn::{GemmOp, Matrix};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::identity(2);
/// assert_eq!(Matrix::gemm(GemmOp::AB, &a, &b), a);
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

/// Which product of its two operands [`Matrix::gemm_into`] computes — the
/// three a dense layer's update is made of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GemmOp {
    /// `A·B` with `A` `m × k` and `B` `k × n`: a layer's input gradient
    /// `dz·W`.
    AB,
    /// `Aᵀ·B` with `A` `k × m` and `B` `k × n`, the transpose never
    /// materialized: a layer's weight gradient `dzᵀ·x`.
    AtB,
    /// `A·Bᵀ` with `A` `m × k` and `B` `n × k`, the transpose never
    /// materialized: a layer's forward product `x·Wᵀ`.
    ABt,
}

impl Matrix {
    /// Creates a `rows × cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a row-major data vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "matrix data length {} does not match {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "inconsistent row length");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Creates a single-row matrix from a slice (a row vector).
    pub fn row_vector(values: &[f64]) -> Self {
        Self::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates a single-column matrix from a slice (a column vector).
    pub fn col_vector(values: &[f64]) -> Self {
        Self::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a matrix by evaluating `f(row, col)` at every position.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Borrow the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consume the matrix and return its row-major data.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols)
    }

    /// The transpose of this matrix. Written one output row at a time (a
    /// column of `self`): it fills an `Mlp`'s output-major weight memo
    /// after every weight change, so its speed shows in training.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        if self.rows > 0 {
            for (j, out) in t.data.chunks_exact_mut(self.rows).enumerate() {
                for (i, o) in out.iter_mut().enumerate() {
                    *o = self.data[i * self.cols + j];
                }
            }
        }
        t
    }

    /// Reshapes this matrix to `rows × cols` in place, reusing the existing
    /// allocation whenever capacity allows. Element values after the call
    /// are unspecified; callers are expected to overwrite them.
    ///
    /// This is the backbone of the scratch-arena pattern: after the first
    /// training step every buffer has reached its steady-state capacity and
    /// `resize_for` never touches the allocator again.
    #[inline]
    pub fn resize_for(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Sets every element to `value` in place.
    #[inline]
    pub fn fill(&mut self, value: f64) {
        self.data.fill(value);
    }

    /// Makes this matrix an element-for-element copy of `src`, reusing the
    /// existing allocation whenever capacity allows.
    #[inline]
    pub fn copy_from(&mut self, src: &Matrix) {
        self.resize_for(src.rows, src.cols);
        self.data.copy_from_slice(&src.data);
    }

    /// The one matrix product: `op` of `a` and `b` written into `out`
    /// (resized as needed), on the caller's thread.
    ///
    /// `op` only picks the row body. Every body computes each output element
    /// as one accumulator seeded from `+0.0` running over the contraction
    /// index ascending — the sum a naive triple loop produces, bit for bit
    /// (the property suite holds every body to that loop by `to_bits`) —
    /// whichever schedule the operand shape selects:
    ///
    /// * `A·B` is register-tiled two output rows at a time (a lone row — the
    ///   batch-1 policy forward against an output-major `Wᵀ` — in fixed
    ///   16/8/4/2/1-wide tiles), and cache-blocked from
    ///   [`BLOCKED_MIN_ROWS`] × 32 × [`TILE_N`];
    /// * `Aᵀ·B` streams the operands for outputs narrower than one 8-column
    ///   sliver and is cache-blocked, with a transpose-packed `A` block,
    ///   from there up;
    /// * `A·Bᵀ` runs a 2×4 dot tile (eight independent accumulator chains
    ///   hide the floating-point add latency of a single dot product), a 1×8
    ///   tile on an odd last row — a one-row product is nothing else — and
    ///   is cache-blocked from [`BLOCKED_MIN_ROWS`] × 32 × [`TILE_N`].
    ///
    /// The schedules only reorder *which* outputs are in flight, never the
    /// sum inside one output.
    ///
    /// # Panics
    ///
    /// Panics if the contraction lengths of `a` and `b` under `op` differ.
    pub fn gemm_into(op: GemmOp, a: &Matrix, b: &Matrix, out: &mut Matrix) {
        // `out` is `m × n`; `k` and `kb` are the contraction length as each
        // operand has it.
        let (m, k, kb, n) = match op {
            GemmOp::AB => (a.rows, a.cols, b.rows, b.cols),
            GemmOp::AtB => (a.cols, a.rows, b.rows, b.cols),
            GemmOp::ABt => (a.rows, a.cols, b.cols, b.rows),
        };
        assert_eq!(
            k, kb,
            "gemm dimension mismatch: {op:?} of {}x{} and {}x{}",
            a.rows, a.cols, b.rows, b.cols
        );
        out.resize_for(m, n);
        let (a, b, out) = (&a.data, &b.data, &mut out.data);
        match op {
            GemmOp::AB => matmul_rows(a, m, k, b, n, out),
            GemmOp::AtB => matmul_at_b_rows(a, m, k, b, n, out),
            GemmOp::ABt => matmul_a_bt_rows(a, m, k, b, n, out),
        }
    }

    /// The product `op` names, as a new matrix: [`Matrix::gemm_into`] on a
    /// fresh output, for callers off the training hot path.
    ///
    /// # Panics
    ///
    /// Panics if the contraction lengths of `a` and `b` under `op` differ.
    pub fn gemm(op: GemmOp, a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        Matrix::gemm_into(op, a, b, &mut out);
        out
    }

    /// Applies `f` to every element in place.
    pub fn apply(&mut self, f: impl Fn(f64) -> f64) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// `self += alpha * rhs` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn axpy(&mut self, alpha: f64, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Adds `row` (a 1×cols matrix or slice) to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn add_row_broadcast(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in r.iter_mut().zip(row) {
                *x += b;
            }
        }
    }

    /// Column-wise sum written into `out` (resized to `cols` as needed):
    /// each column accumulates from `+0.0` over the rows top to bottom.
    pub fn sum_rows_into(&self, out: &mut Vec<f64>) {
        out.resize(self.cols, 0.0);
        out.fill(0.0);
        for r in self.data.chunks_exact(self.cols) {
            for (o, &x) in out.iter_mut().zip(r) {
                *o += x;
            }
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns 0 for an empty matrix.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Dot product of the flattened matrices.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.data.len(), rhs.data.len(), "dot length mismatch");
        self.data.iter().zip(&rhs.data).map(|(a, b)| a * b).sum()
    }

    /// Selects the given rows into a new matrix (used for minibatch
    /// sampling).
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn select_rows(&self, indices: &[usize]) -> Matrix {
        let mut data = Vec::with_capacity(indices.len() * self.cols);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Matrix {
            rows: indices.len(),
            cols: self.cols,
            data,
        }
    }

    /// Stacks matrices vertically.
    ///
    /// # Panics
    ///
    /// Panics if column counts differ or `mats` is empty.
    pub fn vstack(mats: &[&Matrix]) -> Matrix {
        assert!(!mats.is_empty(), "vstack requires at least one matrix");
        let cols = mats[0].cols;
        let rows: usize = mats.iter().map(|m| m.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for m in mats {
            assert_eq!(m.cols, cols, "vstack column mismatch");
            data.extend_from_slice(&m.data);
        }
        Matrix { rows, cols, data }
    }

    /// Concatenates matrices horizontally (same number of rows) into `out`
    /// (resized as needed): row `i` of `out` is row `i` of each input in
    /// turn.
    ///
    /// # Panics
    ///
    /// Panics if row counts differ or `mats` is empty.
    pub fn hstack_into(mats: &[&Matrix], out: &mut Matrix) {
        assert!(!mats.is_empty(), "hstack requires at least one matrix");
        let rows = mats[0].rows;
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        out.resize_for(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for m in mats {
                assert_eq!(m.rows, rows, "hstack row mismatch");
                out.data[i * cols + off..i * cols + off + m.cols].copy_from_slice(m.row(i));
                off += m.cols;
            }
        }
    }

    /// True if all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

/// Single-accumulator dot product, `k` ascending — the scalar tail of
/// [`matmul_a_bt_rows`].
#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// Computes one output row `out[j] = Σ_t a[t] · b[t·n + j]` with every
/// output's accumulation seeded from `+0.0` and running over `t` ascending
/// — the per-output term order of a naive triple loop, so results are
/// bit-identical to it. No term is skipped for an exact-zero `a[t]`: a
/// branch-free inner loop is what lets the compiler vectorize it
/// (DESIGN.md §14).
///
/// This is the batch-1 policy forward's kernel (`x·Wᵀ` as `A·B` against the
/// output-major `Wᵀ` an `Mlp` memoises). Outputs run in fixed-width register
/// tiles — 16 wide, then at most one each of 8, 4, 2 and 1 for the rest — so
/// every tile is one pass over `t` whose inner step is a fully unrolled
/// multiply-add across `W` adjacent outputs of one contiguous `b` row:
/// independent FP-add chains hide the add latency, and narrow trailing
/// columns never fall back to a one-column-at-a-time scalar loop (which
/// once cost `matmul` 0.91× at `n = 18`). The widths are fixed
/// because a variable-width tail loop cost the 64 → 15 output layer all of
/// its gain over the dot tiles.
#[inline]
fn accumulate_row(a: &[f64], b: &[f64], n: usize, out: &mut [f64]) {
    let mut j = 0;
    while j + 16 <= n {
        row_tile::<16>(a, b, n, j, out);
        j += 16;
    }
    if j + 8 <= n {
        row_tile::<8>(a, b, n, j, out);
        j += 8;
    }
    if j + 4 <= n {
        row_tile::<4>(a, b, n, j, out);
        j += 4;
    }
    if j + 2 <= n {
        row_tile::<2>(a, b, n, j, out);
        j += 2;
    }
    if j < n {
        row_tile::<1>(a, b, n, j, out);
    }
}

/// `W` adjacent outputs of [`accumulate_row`] from column `j`: `W` register
/// accumulators seeded from `+0.0`, one pass over the rows of `b` (`n`
/// wide) in ascending `t`.
#[inline]
fn row_tile<const W: usize>(a: &[f64], b: &[f64], n: usize, j: usize, out: &mut [f64]) {
    let mut acc = [0.0f64; W];
    for (&a_t, b_row) in a.iter().zip(b.chunks_exact(n)) {
        for (o, &bv) in acc.iter_mut().zip(&b_row[j..j + W]) {
            *o += a_t * bv;
        }
    }
    out[j..j + W].copy_from_slice(&acc);
}

/// Like [`accumulate_row`] but for **two output rows** at once: `out0[j] =
/// Σ_t a0[t] · b[t·n + j]` and likewise for `a1`/`out1`. Each output keeps
/// its own accumulator and its own `t`-ascending order, so results are
/// bit-identical to two independent [`accumulate_row`] calls — the pairing
/// only halves the passes over `b` (the cause of PR 4's `matmul` 0.91×
/// regression: every row re-streamed the full `b`).
#[inline]
fn accumulate_row_pair(
    a0: &[f64],
    a1: &[f64],
    b: &[f64],
    n: usize,
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let mut j = 0;
    while j + 8 <= n {
        let mut acc0 = [0.0f64; 8];
        let mut acc1 = [0.0f64; 8];
        for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row = &b[t * n + j..t * n + j + 8];
            for i in 0..8 {
                acc0[i] += x0 * b_row[i];
                acc1[i] += x1 * b_row[i];
            }
        }
        out0[j..j + 8].copy_from_slice(&acc0);
        out1[j..j + 8].copy_from_slice(&acc1);
        j += 8;
    }
    if j < n {
        let w = n - j;
        let mut acc0 = [0.0f64; 8];
        let mut acc1 = [0.0f64; 8];
        for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
            let b_row = &b[t * n + j..t * n + j + w];
            for ((o0, o1), &bv) in acc0[..w].iter_mut().zip(&mut acc1[..w]).zip(b_row) {
                *o0 += x0 * bv;
                *o1 += x1 * bv;
            }
        }
        out0[j..j + w].copy_from_slice(&acc0[..w]);
        out1[j..j + w].copy_from_slice(&acc1[..w]);
    }
}

/// Packs the `kc × nc` sub-panel of row-major `b` (terms `kt..kt+kc`,
/// columns `jt..jt+nc`) into `panel`, sliver-major: 8-wide column slivers
/// (one variable-width tail sliver) laid out term-contiguous, so the
/// accumulate loops read the panel strictly forward in 64-byte lines
/// instead of striding across `b`'s full width per term.
#[inline]
fn pack_b_panel(
    b: &[f64],
    n: usize,
    kt: usize,
    kc: usize,
    jt: usize,
    nc: usize,
    panel: &mut [f64],
) {
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        for t in 0..kc {
            let src = (kt + t) * n + jt + js;
            panel[off + t * w..off + t * w + w].copy_from_slice(&b[src..src + w]);
        }
        off += kc * w;
        js += w;
    }
}

/// [`accumulate_row`] against a packed panel, *resuming* partial sums: the
/// accumulators are loaded from `out`, run over this panel's terms in
/// ascending order, and stored back. An `f64` load/store round-trip is
/// exact, so chaining these calls over ascending `k`-tiles reproduces the
/// unblocked kernel's accumulation sequence bit for bit. The 8-wide
/// slivers are a fixed-width fast path so the inner loop stays fully
/// unrolled; only the one tail sliver (< 8 columns) runs variable-width.
#[inline]
fn accumulate_row_panel(a: &[f64], panel: &[f64], nc: usize, out: &mut [f64]) {
    let terms = a.len();
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        if w == 8 {
            let mut acc = [0.0f64; 8];
            acc.copy_from_slice(&out[js..js + 8]);
            for (t, &a_t) in a.iter().enumerate() {
                let b_row = &panel[off + t * 8..off + t * 8 + 8];
                for i in 0..8 {
                    acc[i] += a_t * b_row[i];
                }
            }
            out[js..js + 8].copy_from_slice(&acc);
        } else {
            let mut acc = [0.0f64; 8];
            acc[..w].copy_from_slice(&out[js..js + w]);
            for (t, &a_t) in a.iter().enumerate() {
                let b_row = &panel[off + t * w..off + t * w + w];
                for (o, &bv) in acc[..w].iter_mut().zip(b_row) {
                    *o += a_t * bv;
                }
            }
            out[js..js + w].copy_from_slice(&acc[..w]);
        }
        off += terms * w;
        js += w;
    }
}

/// [`pack_b_panel`]'s transposed sibling for `A·Bᵀ`: packs the
/// `kc × nc` sub-panel of `bᵀ` (terms `kt..kt+kc` of B rows
/// `jt..jt+nc`) into the same sliver-major layout. Reads of `b` stay
/// row-contiguous (one B row per output column); the transpose happens
/// in the strided panel *writes*, paid once per tile and amortized over
/// every A row that reuses the panel.
#[inline]
fn pack_bt_panel(
    b: &[f64],
    k: usize,
    kt: usize,
    kc: usize,
    jt: usize,
    nc: usize,
    panel: &mut [f64],
) {
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        for c in 0..w {
            let src = (jt + js + c) * k + kt;
            for (t, &v) in b[src..src + kc].iter().enumerate() {
                panel[off + t * w + c] = v;
            }
        }
        off += kc * w;
        js += w;
    }
}

/// [`accumulate_row_pair`] against a packed panel, resuming partial sums
/// from `out0`/`out1` exactly as [`accumulate_row_panel`] does: a 2×8
/// register microkernel (sixteen independent accumulator chains) whose two
/// `a` operands are contiguous term slices — an A row for `A·B` and
/// `A·Bᵀ`, a transpose-packed A column for `Aᵀ·B`.
#[inline]
fn accumulate_pair_panel(
    a0: &[f64],
    a1: &[f64],
    panel: &[f64],
    nc: usize,
    out0: &mut [f64],
    out1: &mut [f64],
) {
    let terms = a0.len();
    let mut js = 0;
    let mut off = 0;
    while js < nc {
        let w = (nc - js).min(8);
        if w == 8 {
            let mut acc0 = [0.0f64; 8];
            let mut acc1 = [0.0f64; 8];
            acc0.copy_from_slice(&out0[js..js + 8]);
            acc1.copy_from_slice(&out1[js..js + 8]);
            for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                let b_row = &panel[off + t * 8..off + t * 8 + 8];
                for i in 0..8 {
                    acc0[i] += x0 * b_row[i];
                    acc1[i] += x1 * b_row[i];
                }
            }
            out0[js..js + 8].copy_from_slice(&acc0);
            out1[js..js + 8].copy_from_slice(&acc1);
        } else {
            let mut acc0 = [0.0f64; 8];
            let mut acc1 = [0.0f64; 8];
            acc0[..w].copy_from_slice(&out0[js..js + w]);
            acc1[..w].copy_from_slice(&out1[js..js + w]);
            for (t, (&x0, &x1)) in a0.iter().zip(a1).enumerate() {
                let b_row = &panel[off + t * w..off + t * w + w];
                for ((o0, o1), &bv) in acc0[..w].iter_mut().zip(&mut acc1[..w]).zip(b_row) {
                    *o0 += x0 * bv;
                    *o1 += x1 * bv;
                }
            }
            out0[js..js + w].copy_from_slice(&acc0[..w]);
            out1[js..js + w].copy_from_slice(&acc1[..w]);
        }
        off += terms * w;
        js += w;
    }
}

/// `A·B` under [`Matrix::gemm_into`]: `a` is `m × k`, `b` is `k × n` and
/// `out` is `m × n`, all row-major. The blocked path engages once `A` is
/// [`BLOCKED_MIN_ROWS`] tall and `B` at least 32×[`TILE_N`] — the panel
/// microkernel beats streaming `B` per row pair well before the operands
/// overflow cache (the paper's 128×128 hidden shapes included), while
/// narrow outputs and short batches keep the register path.
fn matmul_rows(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if m >= BLOCKED_MIN_ROWS && k >= 32 && n >= TILE_N {
        let pack = |kt, kc, jt, nc, panel: &mut [f64]| pack_b_panel(b, n, kt, kc, jt, nc, panel);
        matmul_rows_blocked::<false>(pack, a, k, k, m, n, out);
        return;
    }
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let (lo, hi) = out.split_at_mut((i + 1) * n);
        accumulate_row_pair(a0, a1, b, n, &mut lo[i * n..], &mut hi[..n]);
        i += 2;
    }
    if i < m {
        accumulate_row(&a[i * k..(i + 1) * k], b, n, &mut out[i * n..(i + 1) * n]);
    }
}

/// `Aᵀ·B` under [`Matrix::gemm_into`]: `a` is `r × m` and `b` is `r × n`,
/// row-major; output row `i` is column `i` of `a` against `b`.
///
/// Outputs at least one full sliver (8 columns) wide dispatch to the
/// blocked schedule — its register accumulators touch each output element
/// once per `k`-tile where a stream pays an `out` load/store per term,
/// which wins even for the narrow 12/18-column weight-gradient shapes.
/// Sub-sliver outputs would re-walk the strided `a` column once per
/// register tile, which costs more than it saves; they run a branch-free
/// `t`-outer stream instead — both operand rows and the output walk
/// forward contiguously, never striding across `a`, each output
/// accumulating in memory from `+0.0` over `t` ascending.
fn matmul_at_b_rows(a: &[f64], m: usize, r: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if n >= 8 {
        let pack = |kt, kc, jt, nc, panel: &mut [f64]| pack_b_panel(b, n, kt, kc, jt, nc, panel);
        matmul_rows_blocked::<true>(pack, a, m, r, m, n, out);
        return;
    }
    out.fill(0.0);
    for t in 0..r {
        let a_row = &a[t * m..(t + 1) * m];
        let b_row = &b[t * n..(t + 1) * n];
        for (i, &x) in a_row.iter().enumerate() {
            let out_row = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += x * bv;
            }
        }
    }
}

/// Fewest rows of `A` for which `A·B` and `A·Bᵀ` take the cache-blocked
/// schedule. Every blocked call packs each `B` tile into a 64 KiB panel
/// once — a fixed cost worth a few rows of multiply-adds, repaid only when
/// several rows reuse the packed panel (measured crossover: 8–16 rows at hidden
/// widths 128 and 64, DESIGN.md §14). Below it — the one-row policy forward
/// of every agent step above all — the register tiles read `B` in place.
pub const BLOCKED_MIN_ROWS: usize = 8;

/// `A·Bᵀ` under [`Matrix::gemm_into`]: `a` is `m × k`, `b` is `n × k` and
/// `out` is `m × n`, all row-major. Row pairs run the 2×4 register kernel
/// (eight independent accumulator chains) and an odd last row a 1×8 dot
/// tile — the same eight chains, so a single row is not latency-bound on
/// one accumulator either. Every output is one accumulator over `k`
/// ascending.
///
/// Operands at least 32 deep, [`TILE_N`] wide and
/// [`BLOCKED_MIN_ROWS`] tall dispatch to the blocked schedule: once
/// its panel holds `bᵀ` ([`pack_bt_panel`]), `A·Bᵀ` *is* `A·B'`, and the
/// 2×8 microkernel sustains a higher madd rate than the dot kernels once
/// the panel pack amortizes (the paper's 128×128 hidden forwards at batch
/// 128 included).
fn matmul_a_bt_rows(a: &[f64], m: usize, k: usize, b: &[f64], n: usize, out: &mut [f64]) {
    if m >= BLOCKED_MIN_ROWS && k >= 32 && n >= TILE_N {
        let pack = |kt, kc, jt, nc, panel: &mut [f64]| pack_bt_panel(b, k, kt, kc, jt, nc, panel);
        matmul_rows_blocked::<false>(pack, a, k, k, m, n, out);
        return;
    }
    let mut i = 0;
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [0.0f64; 8];
            for t in 0..k {
                let x0 = a0[t];
                let x1 = a1[t];
                acc[0] += x0 * b0[t];
                acc[1] += x0 * b1[t];
                acc[2] += x0 * b2[t];
                acc[3] += x0 * b3[t];
                acc[4] += x1 * b0[t];
                acc[5] += x1 * b1[t];
                acc[6] += x1 * b2[t];
                acc[7] += x1 * b3[t];
            }
            out[i * n + j..i * n + j + 4].copy_from_slice(&acc[..4]);
            out[(i + 1) * n + j..(i + 1) * n + j + 4].copy_from_slice(&acc[4..]);
            j += 4;
        }
        while j < n {
            let bj = &b[j * k..(j + 1) * k];
            out[i * n + j] = dot(a0, bj);
            out[(i + 1) * n + j] = dot(a1, bj);
            j += 1;
        }
        i += 2;
    }
    if i < m {
        let a0 = &a[i * k..(i + 1) * k];
        let out = &mut out[i * n..(i + 1) * n];
        let mut j = 0;
        while j + 8 <= n {
            out[j..j + 8].copy_from_slice(&dot_tile::<8>(a0, &b[j * k..(j + 8) * k]));
            j += 8;
        }
        if j + 4 <= n {
            out[j..j + 4].copy_from_slice(&dot_tile::<4>(a0, &b[j * k..(j + 4) * k]));
            j += 4;
        }
        while j < n {
            out[j] = dot(a0, &b[j * k..(j + 1) * k]);
            j += 1;
        }
    }
}

/// One row of `A` against `W` consecutive rows of `B` (`b_rows`, `W × k`
/// row-major): `W` independent accumulator chains, each running over `k`
/// ascending exactly like [`dot`].
#[inline]
fn dot_tile<const W: usize>(a0: &[f64], b_rows: &[f64]) -> [f64; W] {
    let k = a0.len();
    let rows: [&[f64]; W] = std::array::from_fn(|c| &b_rows[c * k..(c + 1) * k]);
    let mut acc = [0.0f64; W];
    for t in 0..k {
        let x = a0[t];
        for c in 0..W {
            acc[c] += x * rows[c][t];
        }
    }
    acc
}

/// Rows of the left operand staged together by [`matmul_rows_blocked`]. For
/// `Aᵀ·B` it is the column count of the transpose-packed A block: eight
/// columns of `a` re-laid term-contiguous (8 KiB) so the 2×8 microkernel
/// reads its `a` operands forward instead of striding across `a`'s full
/// width per term.
const AT_B_IBLOCK: usize = 8;

/// The blocked schedule's working set: a packed `B` panel and a
/// transpose-packed `A` block.
type BlockedBuffers = ([f64; PANEL_LEN], [f64; TILE_K * AT_B_IBLOCK]);

thread_local! {
    /// One [`BlockedBuffers`] per thread, reused by every blocked call on
    /// it. `const`-initialised and without a destructor, so it lives in the
    /// thread's static TLS block (72 KiB, zeroed once when the thread
    /// starts): no allocation, no registration on first use. Nothing is
    /// read before it is packed — every panel and block element a
    /// microkernel reads was written by the same call's packing — so a
    /// previous call's leftovers never reach an output and the buffers
    /// need no zero-fill.
    static BLOCKED_BUFFERS: std::cell::RefCell<BlockedBuffers> =
        const { std::cell::RefCell::new(([0.0; PANEL_LEN], [0.0; TILE_K * AT_B_IBLOCK])) };
}

/// The cache-blocked schedule of all three products: computes the `m × n`
/// output `out` over `terms` contraction terms. Per `k`/`n` tile,
/// `pack_panel(kt, kc, jt, nc, panel)` lays the right operand's sub-block
/// out sliver-major ([`pack_b_panel`], or [`pack_bt_panel`] for `A·Bᵀ`) and
/// the [`accumulate_pair_panel`] microkernel runs over it in row pairs
/// ([`accumulate_row_panel`] for an odd tail), resuming partial sums from
/// `out` between `k`-tiles. `k`-tiles ascend and packing only copies
/// operands, so each output element still accumulates its terms in
/// ascending order from `+0.0` — bit for bit what the unblocked bodies
/// compute, regardless of tile or block boundaries.
///
/// `a` has row stride `lda`. With `A_COLS` unset an output row's terms are
/// a row of `a`, read in place (`A·B`, `A·Bᵀ`); with it set they are a
/// *column* of `a` (`Aᵀ·B`), and each block of [`AT_B_IBLOCK`] columns is
/// transpose-packed per tile first.
///
/// The panel and the `A` block are this thread's [`BLOCKED_BUFFERS`]. Kept
/// out of line so the register paths — the one-row policy forward of every
/// agent step above all — do not carry the blocked schedule's frame on
/// every call.
#[inline(never)]
fn matmul_rows_blocked<const A_COLS: bool>(
    pack_panel: impl Fn(usize, usize, usize, usize, &mut [f64]),
    a: &[f64],
    lda: usize,
    terms: usize,
    m: usize,
    n: usize,
    out: &mut [f64],
) {
    BLOCKED_BUFFERS.with_borrow_mut(|(panel, ablock)| {
        out.fill(0.0);
        let mut kt = 0;
        while kt < terms {
            let kc = (terms - kt).min(TILE_K);
            let mut jt = 0;
            while jt < n {
                let nc = (n - jt).min(TILE_N);
                pack_panel(kt, kc, jt, nc, panel);
                let mut ib = 0;
                while ib < m {
                    let bc = (m - ib).min(AT_B_IBLOCK);
                    // `lhs[c * stride..][..kc]` holds this tile's terms of
                    // output row `ib + c`.
                    let (lhs, stride): (&[f64], usize) = if A_COLS {
                        for t in 0..kc {
                            let src = (kt + t) * lda + ib;
                            for (c, &v) in a[src..src + bc].iter().enumerate() {
                                ablock[c * kc + t] = v;
                            }
                        }
                        (&ablock[..], kc)
                    } else {
                        (&a[ib * lda + kt..], lda)
                    };
                    let mut rr = 0;
                    while rr + 2 <= bc {
                        let row = ib + rr;
                        let (lo, hi) = out.split_at_mut((row + 1) * n);
                        accumulate_pair_panel(
                            &lhs[rr * stride..][..kc],
                            &lhs[(rr + 1) * stride..][..kc],
                            &panel[..],
                            nc,
                            &mut lo[row * n + jt..row * n + jt + nc],
                            &mut hi[jt..jt + nc],
                        );
                        rr += 2;
                    }
                    if rr < bc {
                        let row = ib + rr;
                        accumulate_row_panel(
                            &lhs[rr * stride..][..kc],
                            &panel[..],
                            nc,
                            &mut out[row * n + jt..row * n + jt + nc],
                        );
                    }
                    ib += bc;
                }
                jt += nc;
            }
            kt += kc;
        }
    });
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "add shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a + b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "sub shape mismatch");
        let data = self
            .data
            .iter()
            .zip(&rhs.data)
            .map(|(a, b)| a - b)
            .collect();
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale(alpha);
        out
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        for r in self.rows_iter().take(8) {
            writeln!(f, "  {r:?}")?;
        }
        if self.rows > 8 {
            writeln!(f, "  ... ({} more rows)", self.rows - 8)?;
        }
        write!(f, "]")
    }
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        Matrix::gemm(GemmOp::AB, a, b)
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(matmul(&a, &Matrix::identity(3)), a);
        assert_eq!(matmul(&Matrix::identity(2), &a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 3.0]]);
        assert_eq!(
            Matrix::gemm(GemmOp::AtB, &a, &b),
            matmul(&a.transpose(), &b)
        );
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[-1.0, 1.0, 0.5]]);
        assert_eq!(
            Matrix::gemm(GemmOp::ABt, &a, &b),
            matmul(&a, &b.transpose())
        );
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_accumulates_scaled_rhs() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[2.0, 0.5], &[1.0, -1.0]]);
        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c, Matrix::from_rows(&[&[5.0, 3.0], &[5.0, 2.0]]));
    }

    #[test]
    fn broadcast_and_sums() {
        let mut a = Matrix::zeros(3, 2);
        a.add_row_broadcast(&[1.0, 2.0]);
        let mut col_sums = vec![9.0; 5];
        a.sum_rows_into(&mut col_sums);
        assert_eq!(col_sums, vec![3.0, 6.0]);
        assert_eq!(a.sum(), 9.0);
        assert!((a.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn select_rows_picks_the_right_rows() {
        let a = Matrix::from_rows(&[&[0.0, 0.0], &[1.0, 1.0], &[2.0, 2.0]]);
        let s = a.select_rows(&[2, 0]);
        assert_eq!(s, Matrix::from_rows(&[&[2.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn stacks() {
        let a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(
            Matrix::vstack(&[&a, &b]),
            Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
        );
        let mut wide = Matrix::zeros(3, 3);
        Matrix::hstack_into(&[&a, &b], &mut wide);
        assert_eq!(wide, Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
    }

    #[test]
    fn norm_and_dot() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert!((a.dot(&b) - 11.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "gemm dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}

//! Dense row-major matrices over `f32`.
//!
//! This is deliberately a small, allocation-explicit matrix type rather than
//! a general tensor library: everything EdgeSlice needs is 2-D (batches of
//! states/actions flowing through fully-connected layers) and small (layer
//! widths of 64–256), so one register-tiled product over a contiguous
//! `Vec<f32>` ([`Matrix::gemm_into`]), its operands read in place, is both
//! simple and fast enough to train the paper's 2×128 networks on a laptop. Single precision
//! is the paper's GPU working precision; values built from `f64` callers
//! ([`Matrix::filled`], [`Matrix::from_fn`]) are narrowed once on the way
//! in, and the reductions ([`Matrix::sum`], [`Matrix::norm`], …) accumulate
//! and return `f64`.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{DeError, Deserialize, Serialize, Value};

use crate::Activation;

/// A dense, row-major matrix of `f32` values.
///
/// # Examples
///
/// ```
/// use edgeslice_nn::{GemmOp, Matrix};
///
/// let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
/// assert_eq!(Matrix::gemm(GemmOp::AB, &a, &b), a);
/// ```
#[derive(Clone, PartialEq, Serialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Deserialize for Matrix {
    /// Decodes a matrix only if it holds exactly `rows × cols` entries: a
    /// short or long `data` is an error here, not an out-of-bounds index
    /// (or silently ignored entries) at the first product.
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let field = |name| {
            v.get_field(name)
                .ok_or_else(|| DeError::missing_field("Matrix", name))
        };
        let rows = usize::from_value(field("rows")?)?;
        let cols = usize::from_value(field("cols")?)?;
        let data = Vec::<f32>::from_value(field("data")?)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(DeError::msg(format!(
                "a {rows} × {cols} matrix with {} entries",
                data.len()
            )));
        }
        Ok(Self { rows, cols, data })
    }
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

    /// Creates a `rows × cols` matrix filled with `value`, narrowed to
    /// `f32`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Self {
            rows,
            cols,
            data: vec![value as f32; rows * cols],
        }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
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

    /// Creates a matrix by evaluating `f(row, col)` at every position, each
    /// value narrowed to `f32`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j) as f32);
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
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrow the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow row `i` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
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
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        assert!(
            i < self.rows,
            "row {i} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Iterate over rows as slices.
    pub fn rows_iter(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols)
    }

    /// The transpose of this matrix.
    pub fn transpose(&self) -> Matrix {
        self.transpose_padded(self.rows)
    }

    /// The transpose, each row zero-padded to `width ≥ rows` columns and
    /// written whole (a column of `self`): it refills an `Mlp`'s lone-row
    /// memo after every weight change, so its speed shows in training.
    pub(crate) fn transpose_padded(&self, width: usize) -> Matrix {
        let mut t = Matrix::zeros(self.cols, width);
        for j in 0..self.cols {
            for (i, o) in t.data[j * width..][..self.rows].iter_mut().enumerate() {
                *o = self.data[i * self.cols + j];
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
    pub fn fill(&mut self, value: f32) {
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
    /// (the property suite holds every body to that loop by `to_bits`).
    /// All three run one register tile, a group of output rows × 8 columns
    /// against a row-major right operand, with narrower tiles for the last
    /// columns and smaller groups for the last rows:
    ///
    /// * `A·B` reads both operands in place, four rows of `A` at a time;
    /// * `Aᵀ·B` reads eight adjacent columns of `A` in place at each term;
    /// * `A·Bᵀ` from 8 rows and 8 columns copies `Bᵀ` into a per-thread
    ///   buffer once per call and runs the `A·B` tile on it; below that, or
    ///   too deep for the buffer, it runs dot tiles (2×4, a 1×8 tile on an
    ///   odd last row, 8×1 for outputs under 4 columns wide).
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
            GemmOp::AtB => matmul_at_b_rows(a, m, b, n, out),
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

    /// `self += alpha * rhs` in place.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub(crate) fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&rhs.data) {
            *a += alpha * b;
        }
    }

    /// Multiplies every element by `alpha` in place.
    pub(crate) fn scale(&mut self, alpha: f32) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// Adds `row` (a 1×cols matrix or slice) to every row in place.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != cols`.
    pub fn add_row_broadcast(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "broadcast row length mismatch");
        for r in self.data.chunks_exact_mut(self.cols) {
            for (x, &b) in r.iter_mut().zip(row) {
                *x += b;
            }
        }
    }

    /// Column-wise sum written into `out` (resized to `cols` as needed):
    /// each column accumulates from `+0.0` over the rows top to bottom.
    pub(crate) fn sum_rows_into(&self, out: &mut Vec<f32>) {
        out.resize(self.cols, 0.0);
        out.fill(0.0);
        for r in self.data.chunks_exact(self.cols) {
            for (o, &x) in out.iter_mut().zip(r) {
                *o += x;
            }
        }
    }

    /// Sum of all elements, accumulated in `f64`.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| f64::from(x)).sum()
    }

    /// Frobenius norm, accumulated in `f64`.
    pub fn norm(&self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Dot product of the flattened matrices, accumulated in `f64` over
    /// eight interleaved lanes.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn dot(&self, rhs: &Matrix) -> f64 {
        assert_eq!(self.data.len(), rhs.data.len(), "dot length mismatch");
        dot_f64(&self.data, &rhs.data)
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
        assert!(mats.iter().all(|m| m.rows == rows), "hstack row mismatch");
        let cols: usize = mats.iter().map(|m| m.cols).sum();
        out.resize_for(rows, cols);
        for i in 0..rows {
            let mut off = 0;
            for m in mats {
                out.data[i * cols + off..i * cols + off + m.cols].copy_from_slice(m.row(i));
                off += m.cols;
            }
        }
    }
}

/// `Σ a[i]·b[i]` in `f64` over eight interleaved lanes — element `i` into
/// lane `i % 8`, the lanes summed in order — so the reduction vectorises
/// instead of running one add chain per element (gradient clipping takes
/// two per update).
pub(crate) fn dot_f64(a: &[f32], b: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 8];
    let (a8, b8) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail = a8.remainder().iter().zip(b8.remainder());
    for (a, b) in a8.zip(b8) {
        for (l, (&x, &y)) in lanes.iter_mut().zip(a.iter().zip(b)) {
            *l += f64::from(x) * f64::from(y);
        }
    }
    for (l, (&x, &y)) in lanes.iter_mut().zip(tail) {
        *l += f64::from(x) * f64::from(y);
    }
    lanes.iter().sum()
}

/// Single-accumulator dot product, `k` ascending — the scalar tail of
/// [`matmul_a_bt_rows`].
#[inline]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        acc += x * y;
    }
    acc
}

/// The register tile every product's batch path runs: `R` output rows ×
/// `W` adjacent output columns. `terms` yields term `t`'s `R` left-operand
/// values, `t` ascending; its `W` right-operand values are
/// `b[t * ldb + j..][..W]` — a row of `B` read in place, of a staged `Bᵀ`
/// or of a padded lone-row memo. Every accumulator starts from `+0.0` and
/// runs over `t` ascending, the per-output term order of a naive triple
/// loop, and row `r`'s `W` sums are stored whole to `out[r * ldo..][..W]`:
/// a compile-time width, so the store is `W / 8` vector moves, not a
/// `memcpy` call around which the accumulators spill. The inner step is a
/// fully unrolled multiply-add of `R` broadcast terms across `W` lanes:
/// `R × W / 8` independent 256-bit add chains, 4 at 4 × 8, 8 at 8 × 8 and
/// in a 64-wide [`lone_row_into`] pass. No term is skipped for an
/// exact-zero value: a branch-free inner loop is what lets the compiler
/// vectorize it (DESIGN.md §14). Always inlined: called out of line, the
/// tile no longer knows that its rows are `k` long, checks every row's
/// index at every term, and the staged 128 × 64 × 64 `A·Bᵀ` ran 1.3×
/// slower.
#[inline(always)]
fn accumulate_tile<const R: usize, const W: usize>(
    terms: impl Iterator<Item = [f32; R]>,
    b: &[f32],
    ldb: usize,
    j: usize,
    out: &mut [f32],
    ldo: usize,
) {
    let mut acc = [[0.0f32; W]; R];
    assert!(j + W <= ldb, "tile past the end of its row");
    for (b_row, x) in b.chunks_exact(ldb).zip(terms) {
        let b_t = &b_row[j..j + W];
        for (acc, x) in acc.iter_mut().zip(x) {
            for (o, &bv) in acc.iter_mut().zip(b_t) {
                *o += x * bv;
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        out[r * ldo..][..W].copy_from_slice(acc);
    }
}

/// The terms of `R` rows of `A` read in place: row `r`'s are `a[r]`. Row
/// 0's come from its iterator, so a lone row's loop carries no bounds
/// check: indexed, it ran the 64 → 15 decide layer ≈ 1.4× slower.
#[inline]
fn row_terms<'a, const R: usize>(a: [&'a [f32]; R]) -> impl Iterator<Item = [f32; R]> + 'a {
    let k = a[0].len();
    let a = a.map(|row| &row[..k]);
    a[0].iter()
        .enumerate()
        .map(move |(t, &x0)| std::array::from_fn(|r| if r == 0 { x0 } else { a[r][t] }))
}

/// The terms of `R` adjacent columns of `a` (row-major, `lda` wide) from
/// column `i`, read in place: term `t` is one contiguous `R`-float load
/// from row `t`.
#[inline]
fn column_terms<'a, const R: usize>(
    a: &'a [f32],
    lda: usize,
    i: usize,
) -> impl Iterator<Item = [f32; R]> + 'a {
    a.chunks_exact(lda).map(move |row| {
        let x = &row[i..i + R];
        std::array::from_fn(|r| x[r])
    })
}

/// `R` output rows of a product against `b` (`k × n`) read in place:
/// [`accumulate_tile`]s 8 columns wide, then at most one each of 4, 2 and
/// 1 — fixed widths, because a variable-width tail loop cost the 64 → 15
/// output layer all of its gain. Each tile takes a fresh pass over the
/// group's terms from `terms()`; `out` starts at the group's first output
/// row.
#[inline]
fn accumulate_rows<const R: usize, T: Iterator<Item = [f32; R]>>(
    terms: impl Fn() -> T,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    let mut j = 0;
    while j + 8 <= n {
        accumulate_tile::<R, 8>(terms(), b, n, j, &mut out[j..], n);
        j += 8;
    }
    if j + 4 <= n {
        accumulate_tile::<R, 4>(terms(), b, n, j, &mut out[j..], n);
        j += 4;
    }
    if j + 2 <= n {
        accumulate_tile::<R, 2>(terms(), b, n, j, &mut out[j..], n);
        j += 2;
    }
    if j < n {
        accumulate_tile::<R, 1>(terms(), b, n, j, &mut out[j..], n);
    }
}

/// Row width of a layer's lone-row memo for `n` outputs: whole 64-wide
/// passes, then the rest zero-padded to 8, 16, 32 or 64 columns.
pub(crate) fn lone_row_width(n: usize) -> usize {
    match n % 64 {
        0 => n,
        rest => n - rest + rest.next_power_of_two().max(8),
    }
}

/// One row `x` through a dense layer, the batch-1 decide: `y[j] =
/// act(x·wt[.., j] + b[j])`, `wt` its `Wᵀ` padded to [`lone_row_width`].
/// Each run of up to 64 outputs is one [`accumulate_tile`] pass over `k` at
/// the padded width (eight chains at 64; a 15-wide layer is one 16-wide
/// pass whose padded column is dropped), then bias and activation in its
/// epilogue: the batch forward's sum, `+ b` and `act`, bit for bit.
pub(crate) fn lone_row_into(x: &[f32], wt: &Matrix, b: &[f32], act: Activation, y: &mut [f32]) {
    let (w, ld) = (&wt.data[..], wt.cols);
    for (j, y) in (0..).step_by(64).zip(y.chunks_mut(64)) {
        let mut acc = [0.0f32; 64];
        let x = row_terms([x]);
        match ld - j {
            64.. => accumulate_tile::<1, 64>(x, w, ld, j, &mut acc, 64),
            32 => accumulate_tile::<1, 32>(x, w, ld, j, &mut acc, 64),
            16 => accumulate_tile::<1, 16>(x, w, ld, j, &mut acc, 64),
            _ => accumulate_tile::<1, 8>(x, w, ld, j, &mut acc, 64),
        }
        act.eval_into(acc.iter().zip(&b[j..]).map(|(&z, &b)| z + b), y);
    }
}

/// `A·B` under [`Matrix::gemm_into`]: `a` is `m × k`, `b` is `k × n` and
/// `out` is `m × n`, all row-major: [`accumulate_rows`] four rows of `a`
/// at a time, then at most one pair and one single row, reading both
/// operands in place.
fn matmul_rows(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let rows = |i: usize| -> &[f32] { &a[i * k..(i + 1) * k] };
    let mut i = 0;
    while i + 4 <= m {
        let group: [_; 4] = std::array::from_fn(|r| rows(i + r));
        accumulate_rows(move || row_terms(group), b, n, &mut out[i * n..]);
        i += 4;
    }
    if i + 2 <= m {
        let pair = [rows(i), rows(i + 1)];
        accumulate_rows(move || row_terms(pair), b, n, &mut out[i * n..]);
        i += 2;
    }
    if i < m {
        accumulate_rows(move || row_terms([rows(i)]), b, n, &mut out[i * n..]);
    }
}

/// `Aᵀ·B` under [`Matrix::gemm_into`]: `a` is `k × m` and `b` is `k × n`,
/// row-major; output row `i` is column `i` of `a` against `b`. The `A·B`
/// schedule with its terms read down eight adjacent columns of `a` at a
/// time ([`column_terms`]), then at most one group of four, one pair and
/// one single column: nothing is packed. Eight, where `A·B` groups four
/// rows: each term is then one 32-byte load of `a`, and a group's pass
/// over `b` serves twice the outputs — at batch 512 (`k = 512`) the
/// operands outgrow L1, and four columns ran 128 × 512 × 128 slower than
/// the cache-blocked kernels this replaced (DESIGN.md §14). Kept out of
/// line: inlined, its tiles grew the `gemm_into` body around `A·B`, and
/// the one-deep 128 × 1 × 64 `A·B` read 0.65 → 0.69 µs.
#[inline(never)]
fn matmul_at_b_rows(a: &[f32], m: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let mut i = 0;
    while i + 8 <= m {
        accumulate_rows(move || column_terms::<8>(a, m, i), b, n, &mut out[i * n..]);
        i += 8;
    }
    while i + 4 <= m {
        accumulate_rows(move || column_terms::<4>(a, m, i), b, n, &mut out[i * n..]);
        i += 4;
    }
    if i + 2 <= m {
        accumulate_rows(move || column_terms::<2>(a, m, i), b, n, &mut out[i * n..]);
        i += 2;
    }
    if i < m {
        accumulate_rows(move || column_terms::<1>(a, m, i), b, n, &mut out[i * n..]);
    }
}

/// Fewest rows of `A` for which `A·Bᵀ` stages `Bᵀ`. Staging is one pass
/// over `B` per call, repaid only when several rows reuse it (DESIGN.md
/// §14); below it the dot tiles read `B` in place.
const STAGED_MIN_ROWS: usize = 8;

/// Floats in a thread's `Bᵀ` staging buffer, 32 KiB: a chunk holds as many
/// whole 8-column slivers as fit `k` rows, so depths up to `STAGE_LEN / 8`
/// fit at least one.
const STAGE_LEN: usize = 8192;

thread_local! {
    /// The staged `Bᵀ` of this thread's `A·Bᵀ` calls. `const`-initialised
    /// and without a destructor, so it lives in the thread's static TLS
    /// block (zeroed once when the thread starts): no allocation, no
    /// registration on first use. Each call writes every element its tiles
    /// read, the padding of a short last sliver included, so a previous
    /// call's leftovers never reach an output.
    static STAGE: std::cell::RefCell<[f32; STAGE_LEN]> =
        const { std::cell::RefCell::new([0.0; STAGE_LEN]) };
}

/// `A·Bᵀ` under [`Matrix::gemm_into`]: `a` is `m × k`, `b` is `n × k` and
/// `out` is `m × n`, all row-major. Every output is one accumulator over
/// `k` ascending.
///
/// From [`STAGED_MIN_ROWS`] rows and one full sliver (8 columns) of
/// output, at depths 1 to `STAGE_LEN / 8`, it stages `Bᵀ` and runs the
/// `A·B` tile on it ([`matmul_a_bt_staged`]). Otherwise row pairs run a
/// 2×4 dot tile (eight independent accumulator chains hide the
/// floating-point add latency of a single dot product), an odd last row a
/// 1×8 dot tile, and outputs under 4 columns wide an 8×1 one.
fn matmul_a_bt_rows(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    if m >= STAGED_MIN_ROWS && n >= 8 && (1..=STAGE_LEN / 8).contains(&k) {
        matmul_a_bt_staged(a, m, k, b, n, out);
        return;
    }
    let mut i = 0;
    while n < 4 && i + 8 <= m {
        for j in 0..n {
            let col = dot_tile::<8>(&b[j * k..(j + 1) * k], &a[i * k..(i + 8) * k]);
            for (r, v) in col.into_iter().enumerate() {
                out[(i + r) * n + j] = v;
            }
        }
        i += 8;
    }
    while i + 2 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &b[j * k..(j + 1) * k];
            let b1 = &b[(j + 1) * k..(j + 2) * k];
            let b2 = &b[(j + 2) * k..(j + 3) * k];
            let b3 = &b[(j + 3) * k..(j + 4) * k];
            let mut acc = [0.0f32; 8];
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
fn dot_tile<const W: usize>(a0: &[f32], b_rows: &[f32]) -> [f32; W] {
    let k = a0.len();
    let rows: [&[f32]; W] = std::array::from_fn(|c| &b_rows[c * k..(c + 1) * k]);
    let mut acc = [0.0f32; W];
    for t in 0..k {
        let x = a0[t];
        for c in 0..W {
            acc[c] += x * rows[c][t];
        }
    }
    acc
}

/// The staged `A·Bᵀ`: `Bᵀ` is `A·B`'s right operand. Per chunk of output
/// columns — as many whole 8-column slivers as [`STAGE`] holds `k` rows
/// of — it writes that chunk of `Bᵀ` into the buffer row-major, each row
/// zero-padded to a whole sliver, then runs four rows of `a` at a time
/// (then at most one pair and one single row) across its slivers
/// ([`accumulate_slivers`]), reading `a` in place. Staging only copies
/// `b`, so each output is still the one chain over `k` ascending. Kept out
/// of line, so that the buffer's access and its tiles stay out of the
/// `gemm_into` body every one-row batch forward enters.
#[inline(never)]
fn matmul_a_bt_staged(a: &[f32], m: usize, k: usize, b: &[f32], n: usize, out: &mut [f32]) {
    let width = STAGE_LEN / k / 8 * 8;
    let rows = |i: usize| -> &[f32] { &a[i * k..(i + 1) * k] };
    STAGE.with_borrow_mut(|stage| {
        for jc in (0..n).step_by(width) {
            let nc = (n - jc).min(width);
            let ld = nc.next_multiple_of(8);
            let bt = &mut stage[..k * ld];
            // Eight rows of `b` at a time fill one sliver, a contiguous
            // 8-float store per term; the last sliver's few rows are
            // copied one term at a time beside their zero padding.
            let full = nc / 8 * 8;
            for (s, src) in b[jc * k..][..full * k].chunks_exact(8 * k).enumerate() {
                let src: [&[f32]; 8] = std::array::from_fn(|c| &src[c * k..][..k]);
                for (t, row) in (0..k).zip(bt.chunks_exact_mut(ld)) {
                    let terms: [f32; 8] = std::array::from_fn(|c| src[c][t]);
                    row[s * 8..][..8].copy_from_slice(&terms);
                }
            }
            for (t, row) in bt.chunks_exact_mut(ld).enumerate() {
                let (cols, pad) = row[full..].split_at_mut(nc - full);
                for (c, o) in cols.iter_mut().enumerate() {
                    *o = b[(jc + full + c) * k + t];
                }
                pad.fill(0.0);
            }
            let (bt, out) = (&bt[..], &mut out[jc..]);
            let mut i = 0;
            while i + 4 <= m {
                let group: [_; 4] = std::array::from_fn(|r| rows(i + r));
                accumulate_slivers(move || row_terms(group), bt, ld, nc, &mut out[i * n..], n);
                i += 4;
            }
            if i + 2 <= m {
                let pair = [rows(i), rows(i + 1)];
                accumulate_slivers(move || row_terms(pair), bt, ld, nc, &mut out[i * n..], n);
                i += 2;
            }
            if i < m {
                let row = [rows(i)];
                accumulate_slivers(move || row_terms(row), bt, ld, nc, &mut out[i * n..], n);
            }
        }
    });
}

/// `R` output rows against a staged chunk `bt` of `nc` columns, its rows
/// zero-padded to `ld`: one 8-wide [`accumulate_tile`] per sliver into
/// `out` (`n`-strided, starting at the group's first output of the chunk).
/// A padded last sliver runs the same tile into a stack tile, and only its
/// real columns reach `out`.
#[inline]
fn accumulate_slivers<const R: usize, T: Iterator<Item = [f32; R]>>(
    terms: impl Fn() -> T,
    bt: &[f32],
    ld: usize,
    nc: usize,
    out: &mut [f32],
    n: usize,
) {
    let mut j = 0;
    while j + 8 <= nc {
        accumulate_tile::<R, 8>(terms(), bt, ld, j, &mut out[j..], n);
        j += 8;
    }
    if j < nc {
        let mut tail = [[0.0f32; 8]; R];
        accumulate_tile::<R, 8>(terms(), bt, ld, j, tail.as_flattened_mut(), 8);
        for (r, tail) in tail.iter().enumerate() {
            out[r * n + j..][..nc - j].copy_from_slice(&tail[..nc - j]);
        }
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;

    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
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
        let identity = |n| Matrix::from_fn(n, n, |i, j| f64::from(u8::from(i == j)));
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(matmul(&a, &identity(3)), a);
        assert_eq!(matmul(&identity(2), &a), a);
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
        let mut wide = Matrix::zeros(3, 3);
        Matrix::hstack_into(&[&a, &b], &mut wide);
        assert_eq!(wide, Matrix::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]));
        // Row counts are checked even when the first operand has no rows.
        let (empty, tall) = (Matrix::zeros(0, 2), Matrix::zeros(2, 2));
        let mismatched = std::panic::catch_unwind(|| {
            Matrix::hstack_into(&[&empty, &tall], &mut Matrix::default());
        });
        assert!(mismatched.is_err(), "0-row beside 2-row operand must panic");
    }

    #[test]
    fn norm_and_dot() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        let b = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert!((a.dot(&b) - 11.0).abs() < 1e-12);
    }

    /// The kernels are tiled for 256-bit registers, and `.cargo/config.toml`
    /// is what builds them for AVX2: without it this test does not compile,
    /// instead of the products silently running 2-wide.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn x86_64_builds_target_avx2() {
        const { assert!(cfg!(target_feature = "avx2"), "built without AVX2") };
    }

    #[test]
    #[should_panic(expected = "gemm dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }
}

//! Property-based tests for the linear-algebra core.
//!
//! The three matrix products have one reference, [`naive`]: a triple loop
//! with a single `f32` accumulator per output, seeded from `+0.0`, running
//! over the contraction index ascending. [`Matrix::gemm_into`] — every row
//! body: the register tiles and the dot tiles — is held to it by `to_bits`,
//! on operands that carry exact `±0.0`, a subnormal and large magnitudes
//! (the values under which a skipped term, a re-seeded accumulator or a
//! reordered sum would show).

use edgeslice_nn::{
    Activation, Adam, Dense, DenseGrad, GemmOp, Gradients, Matrix, Mlp, RowScratch, TrainScratch,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [GemmOp; 3] = [GemmOp::AB, GemmOp::AtB, GemmOp::ABt];

const ACTS: [Activation; 6] = [
    Activation::Identity,
    Activation::Relu,
    Activation::LeakyRelu(0.01),
    Activation::Sigmoid,
    Activation::Tanh,
    Activation::Softplus,
];

/// The GEMM oracle: output `(i, j)` is one `f32` accumulator from `+0.0`
/// over the contraction index ascending, no term skipped (widened for
/// `from_fn`, which narrows it back exactly).
fn naive(op: GemmOp, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = match op {
        GemmOp::AB => (a.rows(), a.cols(), b.cols()),
        GemmOp::AtB => (a.cols(), a.rows(), b.cols()),
        GemmOp::ABt => (a.rows(), a.cols(), b.rows()),
    };
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0f32;
        for t in 0..k {
            acc += match op {
                GemmOp::AB => a[(i, t)] * b[(t, j)],
                GemmOp::AtB => a[(t, i)] * b[(t, j)],
                GemmOp::ABt => a[(i, t)] * b[(j, t)],
            };
        }
        f64::from(acc)
    })
}

fn bits(m: &Matrix) -> ((usize, usize), Vec<u32>) {
    let data = m.as_slice().iter().map(|v| v.to_bits()).collect();
    (m.shape(), data)
}

/// `gemm_into(op, a, b, out)` equals [`naive`] bit for bit, whatever `out`
/// held before.
fn assert_gemm_is_naive(op: GemmOp, a: &Matrix, b: &Matrix, out: &mut Matrix, what: &str) {
    Matrix::gemm_into(op, a, b, out);
    assert_eq!(bits(out), bits(&naive(op, a, b)), "{op:?} {what}");
}

fn mul(a: &Matrix, b: &Matrix) -> Matrix {
    Matrix::gemm(GemmOp::AB, a, b)
}

fn small_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_fn(rows, cols, |i, j| v[i * cols + j]))
}

/// Mostly ordinary magnitudes, with the values a kernel could mishandle
/// mixed in: both exact zeros, the smallest `f32` subnormal, and magnitudes
/// that absorb every ordinary term beside them (their products and sums
/// stay finite in `f32`). Drawn in `f64`; the matrices narrow them.
fn rand_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..12) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from(f32::from_bits(1)),
        3 => rng.gen_range(-1e15f64..1e15),
        _ => rng.gen_range(-10.0f64..10.0),
    }
}

/// A row of `f32` values widened to `f64`, exactly.
fn widen(row: &[f32]) -> Vec<f64> {
    row.iter().map(|&v| f64::from(v)).collect()
}

fn rand_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rand_value(rng))
}

/// Operands of `op` whose product is `m × n` over `k` terms.
fn rand_operands(rng: &mut StdRng, op: GemmOp, m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    match op {
        GemmOp::AB => (rand_matrix(rng, m, k), rand_matrix(rng, k, n)),
        GemmOp::AtB => (rand_matrix(rng, k, m), rand_matrix(rng, k, n)),
        GemmOp::ABt => (rand_matrix(rng, m, k), rand_matrix(rng, n, k)),
    }
}

/// A randomly-shaped `(A, B)` pair per `op` plus one `dirty_out`.
/// Dimensions are drawn from `0..=4`, so empty-batch (0-row), row-vector
/// (1×N) and column-vector (N×1) operands all occur many times across the
/// 48 cases. `dirty_out` arrives with an unrelated shape and garbage
/// contents to prove the product fully overwrites a reused buffer.
struct SmallGemmCase;

impl Strategy for SmallGemmCase {
    type Value = ([(Matrix, Matrix); 3], Matrix);

    fn generate(&self, rng: &mut StdRng) -> Self::Value {
        let mut dim = || rng.gen_range(0..5);
        let (m, k, n, dr, dc) = (dim(), dim(), dim(), dim(), dim());
        let operands = OPS.map(|op| rand_operands(rng, op, m, k, n));
        (operands, rand_matrix(rng, dr, dc))
    }
}

proptest! {
    #[test]
    fn matmul_is_associative(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(2, 5),
    ) {
        let left = mul(&mul(&a, &b), &c);
        let right = mul(&a, &mul(&b, &c));
        let diff = (&left - &right).norm();
        prop_assert!(diff < 1e-2, "associativity violated by {diff}");
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        let left = mul(&a, &(&b + &c));
        let right = &mul(&a, &b) + &mul(&a, &c);
        prop_assert!((&left - &right).norm() < 1e-3);
    }

    #[test]
    fn transpose_reverses_product(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        let left = mul(&a, &b).transpose();
        let right = mul(&b.transpose(), &a.transpose());
        prop_assert!((&left - &right).norm() < 1e-3);
    }

    #[test]
    fn fused_transpose_products_agree(a in small_matrix(4, 3), b in small_matrix(4, 2)) {
        let fused = Matrix::gemm(GemmOp::AtB, &a, &b);
        prop_assert!((&fused - &mul(&a.transpose(), &b)).norm() < 1e-3);
    }

    #[test]
    fn flat_params_round_trip_preserves_forward(
        input in proptest::collection::vec(-2.0f64..2.0, 3),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut net = Mlp::new(&[3, 6, 2], Activation::leaky_default(), Activation::Tanh, &mut rng);
        let before = net.forward_one(&input);
        let params = net.flat_params();
        net.set_flat_params(&params);
        let after = net.forward_one(&input);
        prop_assert_eq!(before, after);
    }

    #[test]
    fn gemm_into_bit_identical_to_naive_and_explicit_transpose_on_random_shapes(
        case in SmallGemmCase,
    ) {
        let (operands, mut out) = case;
        for (op, (a, b)) in OPS.into_iter().zip(&operands) {
            assert_gemm_is_naive(op, a, b, &mut out, "random shape");
            // The transpose-free products equal `A·B` on the materialized
            // transpose: the same terms in the same order.
            let explicit = match op {
                GemmOp::AB => continue,
                GemmOp::AtB => mul(&a.transpose(), b),
                GemmOp::ABt => mul(a, &b.transpose()),
            };
            prop_assert_eq!(bits(&out), bits(&explicit), "{:?} vs explicit transpose", op);
        }
    }

    #[test]
    fn sigmoid_output_always_in_unit_interval(
        input in proptest::collection::vec(-50.0f64..50.0, 4),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&[4, 8, 3], Activation::leaky_default(), Activation::Sigmoid, &mut rng);
        let out = net.forward_one(&input);
        prop_assert!(out.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

/// Every product on every side of every dispatch term and tile edge: output
/// rows at every remainder of the 8-, 4- and 2-row groups and around the
/// 8 rows from which `A·Bᵀ` stages `Bᵀ` (one row is the batch forward on
/// one row); widths around the tiles' 8/4/2/1 widths and every combination
/// of their tails, the `A·Bᵀ` 8-column cutover and its zero-padded last
/// sliver, and 64; depths around empty (1–3 reach the staged `A·Bᵀ`,
/// which takes any depth that fits its buffer), 32 and 128. At 129 and
/// 261 a staged chunk holds fewer columns than the widest outputs, so
/// those calls stage several chunks.
#[test]
fn dispatch_bit_identical_to_naive_around_every_threshold() {
    let mut rng = StdRng::seed_from_u64(1717);
    let rows = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 16, 17];
    let widths = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 141,
    ];
    let depths = [0, 1, 2, 3, 31, 32, 33, 127, 128, 129, 261];
    let mut out = Matrix::zeros(1, 1);
    for op in OPS {
        for m in rows {
            for n in widths {
                for k in depths {
                    let (a, b) = rand_operands(&mut rng, op, m, k, n);
                    assert_gemm_is_naive(op, &a, &b, &mut out, &format!("{m}x{k}x{n}"));
                }
            }
        }
    }
}

/// `A·Bᵀ` from 8 rows stages `Bᵀ` in a 8 192-float buffer, one chunk of
/// whole 8-column slivers at a time: at depth 512 a chunk holds 16
/// columns, so every width past 16 stages two chunks or more, and a
/// ragged width pads the last chunk's last sliver; at 1 024 a chunk is one
/// sliver; at 1 025 not even one fits and the dot tiles take over.
#[test]
fn staged_a_bt_bit_identical_to_naive_across_chunks() {
    let mut rng = StdRng::seed_from_u64(1818);
    let mut out = Matrix::zeros(1, 1);
    for m in [8, 9, 10, 11, 13] {
        for n in [8, 15, 16, 17, 23, 24, 33, 41] {
            for k in [512, 1024, 1025] {
                let (a, b) = rand_operands(&mut rng, GemmOp::ABt, m, k, n);
                assert_gemm_is_naive(GemmOp::ABt, &a, &b, &mut out, &format!("{m}x{k}x{n}"));
            }
        }
    }
}

/// `Aᵀ·B` reads its terms down adjacent columns of `A` in place, eight
/// output rows at a time, then at most one group of 4, 2 and 1: every
/// output-row remainder of those groups, crossed with every combination
/// of the 8/4/2/1-wide column tiles, at depths 0–3 and 512.
#[test]
fn at_b_row_remainders_bit_identical_to_naive() {
    let mut rng = StdRng::seed_from_u64(1919);
    let mut out = Matrix::zeros(1, 1);
    for m in 1..=19 {
        for n in 1..=16 {
            for k in [0, 1, 2, 3, 512] {
                let (a, b) = rand_operands(&mut rng, GemmOp::AtB, m, k, n);
                assert_gemm_is_naive(GemmOp::AtB, &a, &b, &mut out, &format!("{m}x{k}x{n}"));
            }
        }
    }
}

/// The products one DDPG update actually makes: per layer `in → out` at
/// batch `B`, the forward `x·Wᵀ` (`B × in × out`), the weight gradient
/// `dzᵀ·x` (`out × B × in`) and the input gradient `dz·W` (`B × out × in`),
/// for actor (`s → h → h → a`) and critic (`s + a → h → h → 1`) at the
/// benchmark's `train-paper` configuration, at `DdpgConfig::paper()` on the
/// same 5-slice environment, and at `tests/train_equivalence.rs`'s 2-slice
/// one (whose 4-wide state is the only caller of the `Aᵀ·B` stream) — plus
/// each layer's product on one row, in both layouts: `A·Bᵀ` against `W`
/// (the batch forward `Mlp::forward` / `forward_scratch` on one row) and
/// `A·B` against `Wᵀ`.
#[test]
fn training_layer_shapes_bit_identical_to_naive() {
    let mut rng = StdRng::seed_from_u64(2020);
    let mut out = Matrix::zeros(1, 1);
    // (batch, hidden, state, action)
    for (batch, h, s, a) in [(128, 64, 10, 15), (512, 128, 10, 15), (32, 24, 4, 6)] {
        for dims in [[s, h, h, a], [s + a, h, h, 1]] {
            for layer in dims.windows(2) {
                let (i, o) = (layer[0], layer[1]);
                let products = [
                    (GemmOp::ABt, batch, i, o),
                    (GemmOp::AtB, o, batch, i),
                    (GemmOp::AB, batch, o, i),
                    (GemmOp::ABt, 1, i, o),
                    (GemmOp::AB, 1, i, o),
                ];
                for (op, m, k, n) in products {
                    let (x, y) = rand_operands(&mut rng, op, m, k, n);
                    let what = format!("batch {batch} layer {i}->{o}: {m}x{k}x{n}");
                    assert_gemm_is_naive(op, &x, &y, &mut out, &what);
                }
            }
        }
    }
}

/// `forward_one` on an `f64` row (narrowed into the batch-1 forward's fused
/// lone-row kernel, against the padded `Wᵀ` memo, and widened out) against
/// row 0 of the batch `forward` on the narrowed rows (the training pass's
/// `forward_scratch`, `A·Bᵀ` against `W`, at three rows), bit for bit, with
/// every activation in the
/// hidden and in the output position, on a narrow net and on the paper
/// actor's shape.
#[test]
fn forward_one_bit_identical_to_row_zero_of_forward_for_every_activation() {
    let mut rng = StdRng::seed_from_u64(2929);
    for dims in [&[3, 6, 2][..], &[10, 64, 64, 15][..]] {
        for hidden in ACTS {
            for output in ACTS {
                let net = Mlp::new(dims, hidden, output, &mut rng);
                let rows: Vec<Vec<f64>> = (0..3)
                    .map(|_| (0..dims[0]).map(|_| rng.gen_range(-3.0..3.0)).collect())
                    .collect();
                let want = net.forward(&Matrix::from_fn(3, dims[0], |i, j| rows[i][j]));
                let got = net.forward_one(&rows[0]);
                assert_eq!(
                    row_bits(&got),
                    row_bits(&widen(want.row(0))),
                    "{dims:?} {hidden:?} → {output:?}"
                );
            }
        }
    }
}

/// Per layer: the weight gradient's shape, then the bits of its weights
/// and of its bias.
fn grad_bits(layers: &[DenseGrad]) -> Vec<Vec<u64>> {
    layers
        .iter()
        .map(|g| {
            let (rows, cols) = g.weights.shape();
            let values = g.weights.as_slice().iter().chain(&g.bias);
            [rows as u64, cols as u64]
                .into_iter()
                .chain(values.map(|v| u64::from(v.to_bits())))
                .collect()
        })
        .collect()
}

/// A textbook backward pass built from public pieces: a cached forward,
/// then per layer, top down, the activation's delta, `dW = dzᵀ·x` and the
/// column sums through [`naive`], and `dz·W` for the layer below —
/// delta, weight gradient and input gradient interleaved layer by layer.
fn textbook_grads(net: &Mlp, x: &Matrix, d_output: &Matrix) -> Vec<DenseGrad> {
    let mut inputs = vec![x.clone()];
    let mut pres = Vec::new();
    for layer in net.layers() {
        let (mut z, mut y) = (Matrix::default(), Matrix::default());
        layer.forward_into(inputs.last().expect("an input"), &mut z, &mut y);
        pres.push(z);
        inputs.push(y);
    }
    let mut grads = vec![DenseGrad::default(); net.layers().len()];
    let mut upstream = d_output.clone();
    for (l, layer) in net.layers().iter().enumerate().rev() {
        let mut dz = Matrix::default();
        layer
            .activation()
            .backward_weighted_into(&pres[l], &inputs[l + 1], &upstream, &mut dz);
        grads[l].weights = naive(GemmOp::AtB, &dz, &inputs[l]);
        grads[l].bias = (0..dz.cols())
            .map(|j| (0..dz.rows()).fold(0.0, |acc, i| acc + dz[(i, j)]))
            .collect();
        upstream = naive(GemmOp::AB, &dz, layer.weights());
    }
    grads
}

/// The delta chain run in two pieces, top piece first, with the weight
/// gradients of the layers above the split computed apart from the
/// scratch ([`DenseGrad::compute`] on moved-out copies of each layer's
/// input and delta, as a helper thread does) and the rest by
/// [`TrainScratch::weight_grads`] — at every split point — against
/// `backward_scratch`, and both against [`textbook_grads`]: every gradient
/// by `to_bits`. Batch 1, an odd batch and 128 rows (tall enough for the
/// staged `A·Bᵀ`), through networks of 2, 3 and 4 layers, one
/// with tanh hidden layers, whose deltas read the recorded outputs.
#[test]
fn split_backward_bit_identical_to_backward_scratch() {
    let mut rng = StdRng::seed_from_u64(2626);
    let nets: [(&[usize], Activation, Activation); 3] = [
        (
            &[7, 16, 3],
            Activation::leaky_default(),
            Activation::Identity,
        ),
        (
            &[10, 64, 64, 15],
            Activation::leaky_default(),
            Activation::Sigmoid,
        ),
        (&[6, 40, 24, 16, 1], Activation::Tanh, Activation::Tanh),
    ];
    for (dims, hidden, output) in nets {
        let net = Mlp::new(dims, hidden, output, &mut rng);
        let depth = net.layers().len();
        let out_dim = net.out_dim();
        for batch in [1, 33, 128] {
            let mut value = || match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-2.0f64..2.0),
            };
            let x = Matrix::from_fn(batch, dims[0], |_, _| value());
            let d_out = Matrix::from_fn(batch, out_dim, |_, _| value());
            let what = format!("{dims:?} at batch {batch}");

            let want = grad_bits(&textbook_grads(&net, &x, &d_out));
            let mut whole = TrainScratch::new();
            net.forward_scratch(&x, &mut whole);
            net.backward_scratch(&mut whole, &d_out);
            assert_eq!(grad_bits(&whole.grads().layers), want, "whole, {what}");

            for split in 1..depth {
                let mut s = TrainScratch::new();
                net.forward_scratch(&x, &mut s);
                net.backward_deltas(&mut s, &d_out, split..depth);
                let apart: Vec<DenseGrad> = (split..depth)
                    .map(|l| {
                        let (input, dz, _) = s.layer_mut(l);
                        let (input, dz) = (input.clone(), dz.clone());
                        let mut g = DenseGrad::default();
                        g.compute(&dz, &input);
                        g
                    })
                    .collect();
                net.backward_deltas(&mut s, &d_out, 0..split);
                s.weight_grads(0..split);
                let mut got: Gradients = s.grads().clone();
                got.layers.truncate(split);
                got.layers.extend(apart);
                assert_eq!(grad_bits(&got.layers), want, "split at {split}, {what}");
            }
        }
    }
}

/// The batch-1 forward on one scratch reused across rows and nets: each
/// output row is bit-identical to a fresh-scratch `forward_one` of the same
/// input — at 17 rows and at the 10 rows of a `run-long` round on the
/// paper actor's shape, the wider net first.
#[test]
fn forward_row_on_a_reused_scratch_matches_a_fresh_one() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut scratch = RowScratch::new();
    for (dims, rows) in [([6, 24, 24, 4], 17), ([10, 64, 64, 15], 10)] {
        let net = Mlp::new(
            &dims,
            Activation::leaky_default(),
            Activation::Sigmoid,
            &mut rng,
        );
        for i in 0..rows {
            let x: Vec<f64> = (0..dims[0]).map(|_| rng.gen_range(-3.0f64..3.0)).collect();
            let out = net.forward_row(&x, &mut scratch);
            assert_eq!(out.len(), dims[3]);
            assert_eq!(widen(out), net.forward_one(&x), "{dims:?} row {i}");
        }
    }
}

/// One layer on one row by the oracle: [`naive`] `x·Wᵀ`, then `+ b`, then
/// the activation — the batch forward's three steps.
fn naive_layer(layer: &Dense, x: &[f32]) -> Vec<f32> {
    let z = naive(GemmOp::ABt, &Matrix::from_rows(&[x]), layer.weights());
    let act = layer.activation();
    let biased = z.row(0).iter().zip(layer.bias());
    biased.map(|(&z, &b)| act.eval(z + b)).collect()
}

/// [`naive_layer`] down every layer of `net`.
fn naive_net(net: &Mlp, x: &[f32]) -> Vec<f32> {
    let layers = net.layers().iter();
    layers.fold(x.to_vec(), |x, layer| naive_layer(layer, &x))
}

/// A net of `dims` whose weights and biases are [`rand_value`]s.
fn rand_net(rng: &mut StdRng, dims: &[usize], act: Activation) -> Mlp {
    let mut net = Mlp::new(dims, act, act, rng);
    for layer in net.layers_mut() {
        let (o, i) = layer.weights().shape();
        *layer.weights_mut() = rand_matrix(rng, o, i);
        for b in layer.bias_mut() {
            *b = rand_value(rng) as f32;
        }
    }
    net
}

/// The fused lone-row kernel under `forward_one`, one layer `k → n` at a
/// time, against [`naive_layer`] by `to_bits`: every width on both sides of
/// the memo's 8/16/32/64 row padding and of one and two 64-wide passes, at
/// depths from empty to a hidden layer's, under every activation.
#[test]
fn lone_row_layer_bit_identical_to_naive_at_every_width() {
    let mut rng = StdRng::seed_from_u64(3434);
    let mut widths: Vec<usize> = (1..=9).collect();
    widths.extend([15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129]);
    for act in ACTS {
        for &n in &widths {
            for k in [0, 1, 2, 3, 10, 64] {
                let net = rand_net(&mut rng, &[k, n], act);
                let x = rand_matrix(&mut rng, 1, k);
                let got = net.forward_one(&widen(x.row(0)));
                let want = widen(&naive_net(&net, x.row(0)));
                assert_eq!(row_bits(&got), row_bits(&want), "{k} -> {n}, {act:?}");
            }
        }
    }
}

/// A padded memo column is computed and dropped: it never reaches a
/// layer's output, so never the next layer's input nor the network's.
/// Nets whose every width is padded, one scratch reused from the widest
/// down (stale values from a wider net sit past each narrower one's
/// columns), against [`naive_net`] by `to_bits`, with the output exactly
/// `n` wide.
#[test]
fn padded_memo_columns_never_reach_an_output() {
    let mut rng = StdRng::seed_from_u64(3535);
    let mut scratch = RowScratch::new();
    for n in [129, 65, 33, 17, 15, 9, 5, 1] {
        for dims in [[7, n, n, 3], [5, 3, n, n]] {
            let net = rand_net(&mut rng, &dims, Activation::Identity);
            let x = rand_matrix(&mut rng, 2, dims[0]);
            for i in 0..2 {
                let out = net.forward_row(&widen(x.row(i)), &mut scratch);
                assert_eq!(out.len(), dims[3], "{dims:?}");
                let want = naive_net(&net, x.row(i));
                assert_eq!(row_bits(&widen(out)), row_bits(&widen(&want)));
            }
        }
    }
}

/// The degenerate shapes the replay/training path actually produces —
/// pinned explicitly rather than left to the random-shape generator.
#[test]
fn gemm_into_handles_degenerate_shapes() {
    let row = Matrix::from_rows(&[&[1.0, -2.0, 3.0]]); // 1×N
    let col = Matrix::from_rows(&[&[0.5], &[1.5], &[-0.5]]); // N×1
    let empty_batch = Matrix::zeros(0, 3); // 0-row batch
    let mut out = Matrix::zeros(2, 2);

    let cases = [
        (GemmOp::AB, &row, &col, (1, 1)),
        (GemmOp::AB, &col, &row, (3, 3)),
        (GemmOp::AtB, &row, &row, (3, 3)),
        (GemmOp::ABt, &row, &row, (1, 1)),
        (GemmOp::AB, &empty_batch, &col, (0, 1)),
        (GemmOp::AtB, &empty_batch, &empty_batch, (3, 3)),
        (GemmOp::ABt, &empty_batch, &empty_batch, (0, 0)),
    ];
    for (op, a, b, shape) in cases {
        assert_gemm_is_naive(op, a, b, &mut out, "degenerate");
        assert_eq!(out.shape(), shape, "{op:?}");
    }
}

fn row_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The batch-1 forward (against the padded `Wᵀ` memo) equals row 0 of the
/// batch `forward` (against the live `W`), bit for bit, and differs
/// from `before` — so a stale memo could not pass unnoticed.
fn assert_batch1_tracks_weights(net: &Mlp, x: &Matrix, before: &[f64], what: &str) {
    let got = net.forward_one(&widen(x.row(0)));
    let want = widen(net.forward(x).row(0));
    assert_eq!(row_bits(&got), row_bits(&want), "{what}");
    assert_ne!(
        row_bits(&got),
        row_bits(before),
        "{what} left the output unchanged"
    );
}

/// The padded output-major weights `forward_one` runs against are a memo of
/// the live weights: every way to change a network's weights —
/// `Adam::step` (through `layers_mut`), `soft_update_from`,
/// `set_flat_params`, a direct `layers_mut` edit, mutating a clone, and
/// deserializing — leaves a net whose memo was warm before the change
/// deciding on the new weights. On the paper actor and on a net whose every
/// layer is padded (65, 33 and 9 outputs to 72, 64 and 16 columns).
#[test]
fn batch1_forward_tracks_every_weight_mutation() {
    let mut rng = StdRng::seed_from_u64(2121);
    for dims in [[10, 64, 64, 15], [10, 65, 33, 9]] {
        let mut new_net = || {
            Mlp::new(
                &dims,
                Activation::leaky_default(),
                Activation::Sigmoid,
                &mut rng,
            )
        };
        let (net, other) = (new_net(), new_net());
        check_batch1_tracks_every_weight_mutation(net, &other);
    }
}

fn check_batch1_tracks_every_weight_mutation(mut net: Mlp, other: &Mlp) {
    let x = Matrix::from_fn(3, 10, |i, j| ((i * 10 + j) as f64 * 0.37).sin());

    let before = net.forward_one(&widen(x.row(0)));
    let mut opt = Adam::new(&net, 1e-2);
    let mut s = TrainScratch::new();
    net.forward_scratch(&x, &mut s);
    net.backward_scratch(&mut s, &Matrix::filled(3, net.out_dim(), 1.0));
    opt.step(&mut net, s.grads());
    assert_batch1_tracks_weights(&net, &x, &before, "Adam::step");

    let before = net.forward_one(&widen(x.row(0)));
    net.soft_update_from(other, 0.5);
    assert_batch1_tracks_weights(&net, &x, &before, "soft_update_from");

    let before = net.forward_one(&widen(x.row(0)));
    net.set_flat_params(&other.flat_params());
    assert_batch1_tracks_weights(&net, &x, &before, "set_flat_params");

    let before = net.forward_one(&widen(x.row(0)));
    net.layers_mut()[1].weights_mut()[(3, 5)] += 1.0;
    assert_batch1_tracks_weights(&net, &x, &before, "layers_mut");

    let before = net.forward_one(&widen(x.row(0)));
    let mut copy = net.clone();
    copy.layers_mut()[2].bias_mut()[0] -= 1.0;
    assert_batch1_tracks_weights(&copy, &x, &before, "clone, then mutate the clone");
    assert_eq!(
        row_bits(&net.forward_one(&widen(x.row(0)))),
        row_bits(&before),
        "mutating a clone reached the original"
    );

    let json = serde_json::to_string(other).expect("serializable");
    net = serde_json::from_str(&json).expect("deserializable");
    assert_batch1_tracks_weights(&net, &x, &before, "deserialize");
}

/// The memo is not part of a network's value: serializing, `Debug`
/// printing and comparing a net give the same answers before and after a
/// batch-1 forward has filled it, and the JSON is the bare `{"layers":[..]}`
/// checkpoints and snapshots have always held.
#[test]
fn memo_is_invisible_to_serialization_debug_and_equality() {
    let mut rng = StdRng::seed_from_u64(2222);
    let net = Mlp::new(
        &[4, 8, 3],
        Activation::leaky_default(),
        Activation::Sigmoid,
        &mut rng,
    );
    let cold = net.clone();
    let (json, debug) = (
        serde_json::to_string(&net).expect("serializable"),
        format!("{net:?}"),
    );
    assert!(json.starts_with("{\"layers\":[{\"weights\":"), "{json}");
    net.forward_one(&[0.1, -0.2, 0.3, -0.4]);
    assert_eq!(serde_json::to_string(&net).expect("serializable"), json);
    assert_eq!(format!("{net:?}"), debug);
    assert_eq!(net, cold);
    let back: Mlp = serde_json::from_str(&json).expect("deserializable");
    assert_eq!(back, net);
}

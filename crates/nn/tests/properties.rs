//! Property-based tests for the linear-algebra core.
//!
//! The three matrix products have one reference, [`naive`]: a triple loop
//! with a single `f32` accumulator per output, seeded from `+0.0`, running
//! over the contraction index ascending. [`Matrix::gemm_into`] — every row
//! body, both schedules — is held to it by `to_bits`,
//! on operands that carry exact `±0.0`, a subnormal and large magnitudes
//! (the values under which a skipped term, a re-seeded accumulator or a
//! reordered sum would show).

use edgeslice_nn::{
    Activation, Adam, DenseGrad, GemmOp, Gradients, Matrix, Mlp, TrainScratch, BLOCKED_MIN_ROWS,
    TILE_K, TILE_N,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [GemmOp; 3] = [GemmOp::AB, GemmOp::AtB, GemmOp::ABt];

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
/// rows at every remainder of the 4-row groups (4, 2 and 1 rows) inside
/// one 8-row block of the cache-blocked driver and across it, and around
/// [`BLOCKED_MIN_ROWS`] (one row is the per-RA policy forward); widths
/// around the one-row `A·B` tiles' 16/8/4/2/1 widths and every
/// combination of their tails, the 4- and 8-wide register tiles, the
/// `A·Bᵀ` 8-column cutover and [`TILE_N`]; depths around empty (1–3 reach
/// the blocked `A·Bᵀ`, which takes any depth), 32 and [`TILE_K`]. The
/// largest of each crosses two full tiles with a ragged tail, so the
/// blocked driver's partial `k`-tiles, partial `n`-tiles and zero-padded
/// tail slivers are all reached through the shapes that select it.
#[test]
fn dispatch_bit_identical_to_naive_around_every_threshold() {
    let mut rng = StdRng::seed_from_u64(1717);
    let (t, tn, tk) = (BLOCKED_MIN_ROWS, TILE_N, TILE_K);
    let rows = [1, 2, 3, 4, 5, 6, t - 1, t, t + 1, 10, 11, 12, 13, 16, 17];
    let widths = [
        1,
        2,
        3,
        4,
        5,
        6,
        7,
        8,
        9,
        15,
        16,
        17,
        31,
        32,
        33,
        tn - 1,
        tn,
        tn + 1,
        2 * tn + 13,
    ];
    let depths = [0, 1, 2, 3, 31, 32, 33, tk - 1, tk, tk + 1, 2 * tk + 5];
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

/// The products one DDPG update actually makes: per layer `in → out` at
/// batch `B`, the forward `x·Wᵀ` (`B × in × out`), the weight gradient
/// `dzᵀ·x` (`out × B × in`) and the input gradient `dz·W` (`B × out × in`),
/// for actor (`s → h → h → a`) and critic (`s + a → h → h → 1`) at the
/// benchmark's `train-paper` configuration, at `DdpgConfig::paper()` on the
/// same 5-slice environment, and at `tests/train_equivalence.rs`'s 2-slice
/// one (whose 4-wide state is the only caller of the `Aᵀ·B` stream) — plus
/// the one-row forward every agent step decides through, in both layouts:
/// `A·Bᵀ` against `W` (the batch forward `Mlp::forward` / `forward_scratch`
/// on one row) and `A·B` against `Wᵀ` (the memoised batch-1 forward).
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

/// `forward_one` on an `f64` row (narrowed into the fleet forward, `A·B`
/// against `Wᵀ`, and widened out) against row 0 of the batch `forward` on
/// the narrowed rows (the training pass's `forward_scratch`, `A·Bᵀ`
/// against `W`, at three rows), bit for bit, with every activation in the
/// hidden and in the output position, on a narrow net and on one whose
/// layers cross the blocked schedule's depth and width thresholds.
#[test]
fn forward_one_bit_identical_to_row_zero_of_forward_for_every_activation() {
    const ACTS: [Activation; 6] = [
        Activation::Identity,
        Activation::Relu,
        Activation::LeakyRelu(0.01),
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Softplus,
    ];
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
/// cache-blocked products), through networks of 2, 3 and 4 layers, one
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

/// Fleet (batched multi-network) forward: each stacked output row is
/// bit-identical to a solo 1-row forward of the same input.
#[test]
fn fleet_forward_rows_bit_identical_to_solo_forwards() {
    let mut rng = StdRng::seed_from_u64(4242);
    let net = Mlp::new(
        &[6, 24, 24, 4],
        Activation::leaky_default(),
        Activation::Sigmoid,
        &mut rng,
    );
    let inputs: Vec<Vec<f64>> = (0..17)
        .map(|_| (0..6).map(|_| rng.gen_range(-3.0f64..3.0)).collect())
        .collect();
    let mut scratch = edgeslice_nn::FleetScratch::new();
    scratch.begin(inputs.len(), 6);
    for (i, x) in inputs.iter().enumerate() {
        scratch.set_input_row(i, x);
    }
    let out = net.forward_fleet_scratch(&mut scratch);
    assert_eq!(out.shape(), (17, 4));
    for (i, x) in inputs.iter().enumerate() {
        assert_eq!(widen(out.row(i)), net.forward_one(x), "row {i}");
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

/// The batch-1 forward (against the memoised `Wᵀ`) equals row 0 of the
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

/// The output-major weights `forward_one` runs against are a memo of the
/// live weights: every way to change a network's weights — `Adam::step`
/// (through `layers_mut`), `soft_update_from`, `set_flat_params`, a direct
/// `layers_mut` edit, mutating a clone, and deserializing — leaves a net
/// whose memo was warm before the change deciding on the new weights.
#[test]
fn batch1_forward_tracks_every_weight_mutation() {
    let mut rng = StdRng::seed_from_u64(2121);
    let dims = [10, 64, 64, 15];
    let mut new_net = || {
        Mlp::new(
            &dims,
            Activation::leaky_default(),
            Activation::Sigmoid,
            &mut rng,
        )
    };
    let (mut net, other) = (new_net(), new_net());
    let x = Matrix::from_fn(3, 10, |i, j| ((i * 10 + j) as f64 * 0.37).sin());

    let before = net.forward_one(&widen(x.row(0)));
    let mut opt = Adam::new(&net, 1e-2);
    let mut s = TrainScratch::new();
    net.forward_scratch(&x, &mut s);
    net.backward_scratch(&mut s, &Matrix::filled(3, 15, 1.0));
    opt.step(&mut net, s.grads());
    assert_batch1_tracks_weights(&net, &x, &before, "Adam::step");

    let before = net.forward_one(&widen(x.row(0)));
    net.soft_update_from(&other, 0.5);
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

    let json = serde_json::to_string(&other).expect("serializable");
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

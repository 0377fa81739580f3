//! Property-based tests for the linear-algebra core.
//!
//! The three matrix products have one reference, [`naive`]: a triple loop
//! with a single accumulator per output, seeded from `+0.0`, running over
//! the contraction index ascending. [`Matrix::gemm_into`] — every row
//! body, both schedules — is held to it by `to_bits`,
//! on operands that carry exact `±0.0`, a subnormal and large magnitudes
//! (the values under which a skipped term, a re-seeded accumulator or a
//! reordered sum would show).

use edgeslice_nn::{
    Activation, Adam, GemmOp, Matrix, Mlp, TrainScratch, BLOCKED_MIN_ROWS, TILE_K, TILE_N,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const OPS: [GemmOp; 3] = [GemmOp::AB, GemmOp::AtB, GemmOp::ABt];

/// The GEMM oracle: output `(i, j)` is one accumulator from `+0.0` over
/// the contraction index ascending, no term skipped.
fn naive(op: GemmOp, a: &Matrix, b: &Matrix) -> Matrix {
    let (m, k, n) = match op {
        GemmOp::AB => (a.rows(), a.cols(), b.cols()),
        GemmOp::AtB => (a.cols(), a.rows(), b.cols()),
        GemmOp::ABt => (a.rows(), a.cols(), b.rows()),
    };
    Matrix::from_fn(m, n, |i, j| {
        let mut acc = 0.0;
        for t in 0..k {
            acc += match op {
                GemmOp::AB => a[(i, t)] * b[(t, j)],
                GemmOp::AtB => a[(t, i)] * b[(t, j)],
                GemmOp::ABt => a[(i, t)] * b[(j, t)],
            };
        }
        acc
    })
}

fn bits(m: &Matrix) -> ((usize, usize), Vec<u64>) {
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
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Mostly ordinary magnitudes, with the values a kernel could mishandle
/// mixed in: both exact zeros, the smallest subnormal, and magnitudes that
/// absorb every ordinary term beside them (their products stay finite).
fn rand_value(rng: &mut StdRng) -> f64 {
    match rng.gen_range(0..12) {
        0 => 0.0,
        1 => -0.0,
        2 => f64::from_bits(1),
        3 => rng.gen_range(-1e100f64..1e100),
        _ => rng.gen_range(-10.0f64..10.0),
    }
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
        prop_assert!(diff < 1e-9, "associativity violated by {diff}");
    }

    #[test]
    fn matmul_distributes_over_addition(
        a in small_matrix(3, 4),
        b in small_matrix(4, 2),
        c in small_matrix(4, 2),
    ) {
        let left = mul(&a, &(&b + &c));
        let right = &mul(&a, &b) + &mul(&a, &c);
        prop_assert!((&left - &right).norm() < 1e-9);
    }

    #[test]
    fn transpose_reverses_product(a in small_matrix(3, 4), b in small_matrix(4, 2)) {
        let left = mul(&a, &b).transpose();
        let right = mul(&b.transpose(), &a.transpose());
        prop_assert!((&left - &right).norm() < 1e-9);
    }

    #[test]
    fn fused_transpose_products_agree(a in small_matrix(4, 3), b in small_matrix(4, 2)) {
        let fused = Matrix::gemm(GemmOp::AtB, &a, &b);
        prop_assert!((&fused - &mul(&a.transpose(), &b)).norm() < 1e-9);
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
/// rows around the row pairing (1, 2, odd), the
/// 8-row blocks of the cache-blocked driver and [`BLOCKED_MIN_ROWS`]
/// (one row is the per-RA policy forward); widths around the one-row
/// `A·B` kernel's 16/8/4/2/1-wide tiles and every combination of its
/// tails, the 4- and 8-wide register tiles, the `Aᵀ·B` stream's 8-column
/// cutover and [`TILE_N`];
/// depths around empty, the blocked schedule's 32 and [`TILE_K`]. The
/// largest of each crosses two full tiles with a ragged tail, so the
/// blocked driver's partial `k`-tiles, partial `n`-tiles and sub-sliver
/// tails are all reached through the shapes that select it.
#[test]
fn dispatch_bit_identical_to_naive_around_every_threshold() {
    let mut rng = StdRng::seed_from_u64(1717);
    let (t, tn, tk) = (BLOCKED_MIN_ROWS, TILE_N, TILE_K);
    let rows = [1, 2, 3, t - 1, t, t + 1];
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
    let depths = [0, 1, 2, 31, 32, 33, tk - 1, tk, tk + 1, 2 * tk + 5];
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

/// `forward_one` (one row through the fleet forward, `A·B` against `Wᵀ`)
/// against row 0 of the batch `forward` (the training pass's
/// `forward_scratch`, `A·Bᵀ` against `W`, at three rows), bit for bit, with
/// every activation in the hidden and
/// in the output position, on a narrow net and on one whose layers cross
/// the blocked schedule's depth and width thresholds.
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
                let x = rand_matrix(&mut rng, 3, dims[0]);
                let want = net.forward(&x);
                let got = net.forward_one(x.row(0));
                assert_eq!(
                    got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.row(0).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "{dims:?} {hidden:?} → {output:?}"
                );
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
        assert_eq!(out.row(i), net.forward_one(x).as_slice(), "row {i}");
    }
}

/// The degenerate shapes the replay/training path actually produces —
/// pinned explicitly rather than left to the random-shape generator.
#[test]
fn gemm_into_handles_degenerate_shapes() {
    let row = Matrix::row_vector(&[1.0, -2.0, 3.0]); // 1×N
    let col = Matrix::col_vector(&[0.5, 1.5, -0.5]); // N×1
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
    let got = net.forward_one(x.row(0));
    assert_eq!(row_bits(&got), row_bits(net.forward(x).row(0)), "{what}");
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

    let before = net.forward_one(x.row(0));
    let mut opt = Adam::new(&net, 1e-2);
    let mut s = TrainScratch::new();
    net.forward_scratch(&x, &mut s);
    net.backward_scratch(&mut s, &Matrix::filled(3, 15, 1.0));
    opt.step(&mut net, s.grads());
    assert_batch1_tracks_weights(&net, &x, &before, "Adam::step");

    let before = net.forward_one(x.row(0));
    net.soft_update_from(&other, 0.5);
    assert_batch1_tracks_weights(&net, &x, &before, "soft_update_from");

    let before = net.forward_one(x.row(0));
    net.set_flat_params(&other.flat_params());
    assert_batch1_tracks_weights(&net, &x, &before, "set_flat_params");

    let before = net.forward_one(x.row(0));
    net.layers_mut()[1].weights_mut()[(3, 5)] += 1.0;
    assert_batch1_tracks_weights(&net, &x, &before, "layers_mut");

    let before = net.forward_one(x.row(0));
    let mut copy = net.clone();
    copy.layers_mut()[2].bias_mut()[0] -= 1.0;
    assert_batch1_tracks_weights(&copy, &x, &before, "clone, then mutate the clone");
    assert_eq!(
        row_bits(&net.forward_one(x.row(0))),
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

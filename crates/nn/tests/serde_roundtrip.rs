//! Networks and matrices must serialize losslessly (checkpointing trained
//! orchestration agents).

use edgeslice_nn::{Activation, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn matrix_json_round_trip() {
    let m = Matrix::from_rows(&[&[1.5, -2.25], &[0.0, 1e-9]]);
    let json = serde_json::to_string(&m).unwrap();
    let back: Matrix = serde_json::from_str(&json).unwrap();
    assert_eq!(m, back);
}

#[test]
fn mlp_json_round_trip_preserves_policy() {
    let mut rng = StdRng::seed_from_u64(1);
    let net = Mlp::new(
        &[3, 16, 2],
        Activation::leaky_default(),
        Activation::Sigmoid,
        &mut rng,
    );
    let json = serde_json::to_string(&net).unwrap();
    let back: Mlp = serde_json::from_str(&json).unwrap();
    let x = [0.25, -0.5, 0.75];
    assert_eq!(net.forward_one(&x), back.forward_one(&x));
}

/// `json` with the first entry of the first array opened by `key` removed.
fn drop_first_entry(json: &str, key: &str) -> String {
    let start = json.find(key).unwrap() + key.len();
    let end = start + json[start..].find(',').unwrap() + 1;
    format!("{}{}", &json[..start], &json[end..])
}

/// A decoded network has the shape its weights say: a matrix with one
/// entry short, a layer with one bias short, and two layers that do not
/// chain are each a decode error, never a network that panics (or reads
/// past its bias) at its first forward.
#[test]
fn misshapen_networks_do_not_decode() {
    let mut rng = StdRng::seed_from_u64(2);
    let net = Mlp::new(&[3, 4, 2], Activation::Tanh, Activation::Sigmoid, &mut rng);
    let json = serde_json::to_string(&net).unwrap();
    assert!(serde_json::from_str::<Mlp>(&json).is_ok());
    for key in ["\"data\":[", "\"bias\":["] {
        let err = serde_json::from_str::<Mlp>(&drop_first_entry(&json, key));
        assert!(err.is_err(), "{key}");
    }
    let m = serde_json::to_string(&Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])).unwrap();
    assert!(serde_json::from_str::<Matrix>(&m.replace("\"rows\":2", "\"rows\":3")).is_err());
    // Layer 1 reads the 3 inputs layer 0 reads, not the 4 it writes.
    let other = Mlp::new(&[3, 3, 2], Activation::Tanh, Activation::Sigmoid, &mut rng);
    let layers = |net: &Mlp| {
        let json = serde_json::to_string(net).unwrap();
        json["{\"layers\":[".len()..json.len() - 2].to_string()
    };
    let (a, b) = (layers(&net), layers(&other));
    let first = |layers: &str| layers[..layers.find("},{\"weights\"").unwrap() + 1].to_string();
    let last = |layers: &str| layers[layers.find("},{\"weights\"").unwrap() + 2..].to_string();
    let chained = format!("{{\"layers\":[{},{}]}}", first(&a), last(&a));
    assert!(serde_json::from_str::<Mlp>(&chained).is_ok());
    let broken = format!("{{\"layers\":[{},{}]}}", first(&a), last(&b));
    assert!(serde_json::from_str::<Mlp>(&broken).is_err());
}

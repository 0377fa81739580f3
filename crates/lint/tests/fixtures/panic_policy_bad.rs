//! Fixture: violates `panic-policy` both ways (analyzed as crate `core`).

fn first_share(shares: &[f64]) -> f64 {
    shares[0]
}

fn head_expect(v: Vec<u8>) -> u8 {
    *v.first().expect("should not happen")
}

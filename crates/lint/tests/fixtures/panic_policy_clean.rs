//! Fixture: panic-free counterpart of `panic_policy_bad.rs` — a handled
//! miss and an `invariant:`-documented expect (analyzed as crate `core`).

#[derive(Debug)]
enum FixtureError {
    Empty,
}

fn first_share(shares: &[f64]) -> Result<f64, FixtureError> {
    shares.first().copied().ok_or(FixtureError::Empty)
}

fn head(v: Vec<u8>) -> u8 {
    // An expect stating the invariant that makes it infallible is an
    // assertion, not error handling, and passes the rule.
    *v.first()
        .expect("invariant: callers construct v with at least one element")
}

fn table() -> [u8; 3] {
    // Array literals and array types are not index expressions.
    [0, 1, 2]
}

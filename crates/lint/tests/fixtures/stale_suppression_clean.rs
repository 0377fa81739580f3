//! Fixture: counterpart of `stale_suppression_bad.rs` — the allow still
//! covers a live finding (analyzed as crate `optim`). Lexed, never
//! compiled.

fn damp_into(out: &mut [f64]) {
    // lint:allow(hot-path-alloc): the staging copy is a one-off warm-up
    let staged = out.to_vec();
    out.copy_from_slice(&staged);
}

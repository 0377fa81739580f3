//! Fixture: a justified allow whose excused code has drifted away
//! (analyzed as crate `optim`). Lexed, never compiled.

fn damp_into(out: &mut [f64]) {
    // lint:allow(hot-path-alloc): the staging copy was a one-off warm-up
    out.iter_mut().for_each(|x| *x *= 0.5);
}

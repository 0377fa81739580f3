//! Fixture: a hot-path `*_into` kernel whose only call is made through a
//! turbofish, `tile::<4>(..)` (analyzed as crate `nn`). That is an edge
//! like any other, so the allocation one call down is reached. Lexed,
//! never compiled.

pub fn accumulate_into(a: &[f64], out: &mut [f64]) {
    for chunk in out.chunks_exact_mut(4) {
        chunk.copy_from_slice(&tile::<4>(a));
    }
}

fn tile<const W: usize>(a: &[f64]) -> [f64; W] {
    let staged = a.to_vec();
    let mut acc = [0.0; W];
    for (o, x) in acc.iter_mut().zip(&staged) {
        *o += x;
    }
    acc
}

//! Fixture: analyzed as crate `nn` (which depends on no workspace crate)
//! together with `transitive_alloc_dep_graph_other.rs` as crate `lint`.
//! `rand::random` lives outside the analyzed set, so this free call has no
//! candidate in `nn` — and it must not resolve to the same-named,
//! allocating fn of a crate `nn` cannot call. Lexed, never compiled.

pub fn jitter_into(out: &mut [f64]) {
    for o in out.iter_mut() {
        let r: f64 = rand::random();
        *o += r;
    }
}

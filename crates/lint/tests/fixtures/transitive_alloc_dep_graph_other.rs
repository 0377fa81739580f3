//! Fixture: the other half of `transitive_alloc_dep_graph_clean.rs`,
//! analyzed as crate `lint` — a crate `nn` does not depend on, holding a
//! free fn of the same name that allocates. Lexed, never compiled.

pub fn random() -> Vec<f64> {
    Vec::new()
}

//! Fixture: a helper `fn` nested in a method's body (analyzed as crate
//! `nn`). It is a free fn scoped to that body, not a method of the `impl`
//! around it, and inside the body it shadows the same-named module-level
//! `driver::run` — so the `run(..)` calls resolve to the clean nested
//! helper, never to the allocating item. Lexed, never compiled.

pub enum Activation {
    Identity,
    Relu,
}

impl Activation {
    pub fn forward_into(self, z: &[f64], out: &mut [f64]) {
        fn run(out: &mut [f64], z: &[f64], f: impl Fn(f64) -> f64) {
            for (o, &x) in out.iter_mut().zip(z) {
                *o = f(x);
            }
        }
        match self {
            Activation::Identity => run(out, z, |x| x),
            Activation::Relu => run(out, z, |x| x.max(0.0)),
        }
    }
}

pub mod driver {
    pub fn run(specs: &[String]) -> Vec<String> {
        specs.to_vec()
    }
}

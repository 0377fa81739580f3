//! Fixture: the agent step's shape — a `core` environment's `*_into`
//! entry point whose own body is clean, reaching a `Vec` two calls down
//! (through a method, then a free fn: the corner list the dataset model's
//! `predict` used to build per call). Analyzed as crate `core`, which the
//! hot-path family covers since the agent step went allocation-free.
//! Lexed, never compiled.

pub struct Env {
    granularity: f64,
}

impl Env {
    pub fn advance_into(&mut self, action: &[f64], service: &mut [f64]) {
        for (s, a) in service.iter_mut().zip(action) {
            *s = self.service_time(*a);
        }
    }

    fn service_time(&self, share: f64) -> f64 {
        fit_cell(share, self.granularity)
    }
}

fn fit_cell(share: f64, granularity: f64) -> f64 {
    let mut corners: Vec<f64> = Vec::new();
    corners.push((share / granularity).floor() * granularity);
    corners.push((share / granularity).ceil() * granularity);
    corners.iter().sum::<f64>() / 2.0
}

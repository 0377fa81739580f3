//! Fixture: violates `hot-path-alloc` inside the banned function families
//! — the `*_into`/`*_scratch`/`*_row` suffixes and the
//! `matmul_*`/`pack_*`/`accumulate_*` kernel layer (analyzed as crate
//! `nn`).

fn scaled_copy_into(src: &[f64], dst: &mut Vec<f64>, k: f64) {
    let mut tmp = Vec::new();
    for &x in src {
        tmp.push(k * x);
    }
    *dst = tmp.to_vec();
}

fn gather_scratch(src: &[f64], scratch: &mut Vec<f64>) {
    *scratch = src.iter().map(|x| x * 2.0).collect();
    let _backup = scratch.clone();
}

fn forward_row(x: &[f64], scratch: &mut Vec<f32>) {
    *scratch = x.iter().map(|&v| v as f32).collect();
}

fn matmul_rows_blocked(a: &[f64], out: &mut [f64]) {
    // Kernel family: a heap panel instead of the stack array is a violation.
    let panel = vec![0.0; 64];
    for (o, (&x, &p)) in out.iter_mut().zip(a.iter().zip(&panel)) {
        *o = x * p;
    }
}

fn pack_b_panel(b: &[f64]) -> Vec<f64> {
    b.to_vec()
}

fn accumulate_row_panel(acc: &mut [f64], terms: &[f64]) {
    let staged: Vec<f64> = terms.iter().map(|t| t * 0.5).collect();
    for (a, s) in acc.iter_mut().zip(staged) {
        *a += s;
    }
}

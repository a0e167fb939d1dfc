//! Regenerates Table 1: embedding dimensions, arithmetic, read/writes and distortion
//! for every sketch, plus a measured-counter check at a small size.

use sketch_bench::analytic::SketchMethod;
use sketch_bench::report::{sci, Table};

fn main() {
    let (d, n, eps) = (1usize << 21, 128usize, 0.5f64);
    let mut symbolic = Table::new(
        format!("Table 1 (symbolic, evaluated at d = 2^21, n = {n}, eps = {eps})"),
        &[
            "Sketch",
            "Embed dim",
            "Arithmetic",
            "Read/Writes",
            "Max distortion",
        ],
    );
    for method in SketchMethod::TABLE1 {
        symbolic.push_row(vec![
            method.label().to_string(),
            sci(method.asymptotic_embedding_dim(n, eps)),
            sci(method.arithmetic(d, n)),
            sci(method.read_writes(d, n)),
            format!("{:.2}", method.max_distortion(eps)),
        ]);
    }
    symbolic.print();

    let mut measured = Table::new(
        "Measured kernel counters (d = 2^16, n = 64, experimental embedding dims)",
        &["Method", "flops", "bytes read", "bytes written"],
    );
    let (dm, nm) = (1usize << 16, 64usize);
    for method in SketchMethod::ALL {
        let cost = method.apply_cost(dm, nm);
        measured.push_row(vec![
            method.label().to_string(),
            sci(cost.flops as f64),
            sci(cost.bytes_read as f64),
            sci(cost.bytes_written as f64),
        ]);
    }
    measured.print();
}

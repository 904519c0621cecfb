//! Figures 5–12, the paper's evaluation: one campaign and its extra runs;
//! rows and expected shape in `apt_bench::paper`. Exits 1 when a figure
//! breaks that shape.

use apt_bench::paper::{emit, Paper};

fn main() -> std::process::ExitCode {
    emit(&Paper::run(apt_bench::scale()).figures())
}

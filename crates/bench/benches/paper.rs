//! Every table and figure of the paper, and the substrate ablations: one
//! campaign and the runs it does not define; rows and expected shape in
//! `apt_bench::paper`. Exits 1 when a figure breaks that shape.

use apt_bench::paper::{emit, Paper};

fn main() -> std::process::ExitCode {
    emit(&Paper::run(apt_bench::scale()).figures())
}

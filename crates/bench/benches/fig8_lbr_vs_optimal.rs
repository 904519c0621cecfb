//! Figure 8: the LBR-derived configuration vs the best static distance; rows and expected shape in
//! `apt_bench::paper`. Exits 1 when the figure breaks that shape.

use apt_bench::paper::{emit, Paper};

fn main() -> std::process::ExitCode {
    emit(&[Paper::run(apt_bench::scale()).fig8()])
}

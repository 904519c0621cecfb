//! Figure 6: APT-GET's and A&J's speedups over the baseline; rows and expected shape in
//! `apt_bench::paper`. Exits 1 when the figure breaks that shape.

use apt_bench::paper::{emit, Paper};

fn main() -> std::process::ExitCode {
    emit(&[Paper::run(apt_bench::scale()).fig6()])
}

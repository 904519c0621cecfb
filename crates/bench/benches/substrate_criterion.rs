//! Criterion micro-benchmarks of the substrate itself: cache lookups
//! (streaming and random), warming, MSHR traffic, LBR recording,
//! interpreter throughput, slice extraction and CWT peak detection. These track the *simulator's* performance, not
//! the paper's results.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use apt_workloads::micro::{self, Complexity, MicroParams};
use aptget::{execute, Machine, MemImage, PipelineConfig, SimConfig};

fn bench_hierarchy(c: &mut Criterion) {
    use apt_mem::{Hierarchy, MemConfig};
    c.bench_function("hierarchy/demand_load_stream", |b| {
        let cfg = MemConfig::scaled_machine();
        let mut h = Hierarchy::new(&cfg);
        let mut addr = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            addr = (addr + 64) & 0xfffff;
            let r = h.demand_load(0x400100, 0x1000_0000 + addr, now);
            now += r.latency;
            black_box(r.latency)
        })
    });
    // Random lines over four times the modelled LLC, so every level's
    // miss path runs (and about a quarter of the accesses hit the LLC).
    let random_lines = |cfg: &MemConfig| {
        let lines = 4 * cfg.llc.size_bytes / 64;
        let mut x = 1u64;
        move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            0x1000_0000 + (x >> 33) % lines * 64
        }
    };
    c.bench_function("hierarchy/demand_load_random", |b| {
        let cfg = MemConfig::scaled_machine();
        let mut h = Hierarchy::new(&cfg);
        let mut next = random_lines(&cfg);
        let mut now = 0u64;
        b.iter(|| {
            let r = h.demand_load(0x400100, next(), now);
            now += r.latency;
            black_box(r.latency)
        })
    });
    c.bench_function("hierarchy/warm_access_random", |b| {
        let cfg = MemConfig::scaled_machine();
        let mut h = Hierarchy::new(&cfg);
        let mut next = random_lines(&cfg);
        b.iter(|| h.warm_access(next()))
    });
    c.bench_function("hierarchy/sw_prefetch", |b| {
        let cfg = MemConfig::scaled_machine();
        let mut h = Hierarchy::new(&cfg);
        let mut addr = 0u64;
        let mut now = 0u64;
        b.iter(|| {
            addr = (addr * 1103515245 + 12345) & 0xffffff;
            h.sw_prefetch(0x400100, 0x1000_0000 + addr, now);
            now += 4;
        })
    });
}

fn bench_interpreter(c: &mut Criterion) {
    c.bench_function("machine/micro_10k_iters", |b| {
        let w = micro::build(MicroParams {
            outer: 40,
            inner: 256,
            complexity: Complexity::Low,
            t_len: 1 << 16,
            window: 1 << 12,
            seed: 1,
        });
        b.iter(|| {
            let mut mach = Machine::new(&w.module, SimConfig::default(), w.image.clone());
            for (f, args) in &w.calls {
                black_box(mach.call(f, args).expect("runs"));
            }
        })
    });
}

fn bench_passes(c: &mut Criterion) {
    c.bench_function("passes/aj_injection", |b| {
        let m = micro::build_module(Complexity::Low);
        b.iter(|| {
            let mut m2 = m.clone();
            black_box(apt_passes::ainsworth_jones(&mut m2, 32).injected.len())
        })
    });
}

fn bench_cwt(c: &mut Criterion) {
    c.bench_function("profile/find_peaks_cwt_256bins", |b| {
        let mut signal = vec![0.0f64; 256];
        for (i, v) in signal.iter_mut().enumerate() {
            let x1 = (i as f64 - 40.0) / 6.0;
            let x2 = (i as f64 - 180.0) / 10.0;
            *v = 10.0 * (-x1 * x1 / 2.0).exp() + 5.0 * (-x2 * x2 / 2.0).exp();
        }
        let widths: Vec<usize> = (1..=16).collect();
        b.iter(|| black_box(apt_profile::find_peaks_cwt(&signal, &widths, 1.0).len()))
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.bench_function("optimize_micro", |b| {
        let w = micro::build(MicroParams {
            outer: 40,
            inner: 256,
            complexity: Complexity::Low,
            t_len: 1 << 16,
            window: 1 << 12,
            seed: 1,
        });
        let cfg = PipelineConfig::default();
        b.iter(|| {
            let apt = aptget::AptGet::new(cfg);
            let o = apt
                .optimize(&w.module, w.image.clone(), &w.calls)
                .expect("profiles");
            black_box(o.injection.injected.len())
        })
    });
    g.finish();
    // Silence the unused-import warning path for MemImage/execute.
    let _ = |i: MemImage| i;
    let _ = execute;
}

criterion_group!(
    benches,
    bench_hierarchy,
    bench_interpreter,
    bench_passes,
    bench_cwt,
    bench_pipeline
);
criterion_main!(benches);

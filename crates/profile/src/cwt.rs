//! Continuous-wavelet-transform peak detection.
//!
//! A from-scratch implementation of the algorithm behind
//! `scipy.signal.find_peaks_cwt` [Du, Kibbe & Lin 2006], which the paper
//! uses to locate the peaks of the loop-latency distribution (§3.4):
//!
//! 1. convolve the signal with Ricker ("Mexican hat") wavelets over a range
//!    of widths,
//! 2. find relative maxima at each width,
//! 3. link maxima across adjacent widths into *ridge lines*,
//! 4. keep ridges that are long enough and whose signal-to-noise ratio at
//!    the smallest width clears a threshold.

/// A detected peak.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Peak {
    /// Index into the input signal.
    pub index: usize,
    /// Signal-to-noise ratio of the supporting ridge line.
    pub snr: f64,
    /// Length of the supporting ridge line (in widths).
    pub ridge_len: usize,
}

/// The Ricker (Mexican-hat) wavelet with width parameter `a`, sampled at
/// `points` points centred on zero.
pub fn ricker(points: usize, a: f64) -> Vec<f64> {
    let norm = 2.0 / ((3.0 * a).sqrt() * std::f64::consts::PI.powf(0.25));
    let half = (points as f64 - 1.0) / 2.0;
    (0..points)
        .map(|i| {
            let t = i as f64 - half;
            let x = t / a;
            norm * (1.0 - x * x) * (-x * x / 2.0).exp()
        })
        .collect()
}

/// The Ricker kernel for width `w` over a signal of `n` points: ten
/// widths long, but no longer than the signal (at least 8 points).
fn wavelet(w: usize, n: usize) -> Vec<f64> {
    ricker((10 * w).min(n.max(8)).max(3), w as f64)
}

/// "Same"-mode convolution of `signal` with `kernel`, with *reflected*
/// boundaries. Reflection keeps the zero-mean property of the wavelet at
/// the edges, so a flat signal transforms to (near) zero everywhere and
/// genuine peaks at the histogram's first bins remain detectable.
///
/// The reflected signal is padded once, so each output is a dot product
/// over a window of the padded copy, and four outputs share each pass
/// over the kernel. Every output still adds its products one kernel tap
/// at a time, in tap order, starting from 0.0 — the same operations as
/// the direct form — so the result is bit-identical to it.
fn convolve_same(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
    let n = signal.len() as isize;
    let k = kernel.len();
    if n == 0 {
        return Vec::new();
    }
    let half = (k / 2) as isize;
    let padded: Vec<f64> = (0..signal.len() + k - 1)
        .map(|m| {
            let mut idx = m as isize - half;
            // Reflect (repeatedly, in case the kernel is wider than the
            // signal).
            loop {
                if idx < 0 {
                    idx = -idx - 1;
                } else if idx >= n {
                    idx = 2 * n - 1 - idx;
                } else {
                    break signal[idx as usize];
                }
            }
        })
        .collect();
    let mut out = vec![0.0; signal.len()];
    let mut quads = out.chunks_exact_mut(4);
    for (i, quad) in (0..).step_by(4).zip(&mut quads) {
        let mut acc = [0.0f64; 4];
        for (&kv, window) in kernel.iter().zip(padded[i..].windows(4)) {
            for (a, &x) in acc.iter_mut().zip(window) {
                *a += x * kv;
            }
        }
        quad.copy_from_slice(&acc);
    }
    let tail = quads.into_remainder();
    let first = signal.len() - tail.len();
    for (i, o) in (first..).zip(tail) {
        *o = kernel
            .iter()
            .zip(&padded[i..])
            .fold(0.0, |acc, (&kv, &x)| acc + x * kv);
    }
    out
}

/// Indices of relative maxima of `row`, requiring the point to be ≥ its
/// neighbours within `order` on both sides and strictly positive.
fn relative_maxima(row: &[f64], order: usize) -> Vec<usize> {
    let n = row.len();
    let mut out = Vec::new();
    'outer: for i in 0..n {
        if row[i] <= 0.0 {
            continue;
        }
        let lo = i.saturating_sub(order);
        let hi = (i + order).min(n - 1);
        for j in lo..=hi {
            if j != i && row[j] > row[i] {
                continue 'outer;
            }
        }
        // Break flat-top ties towards the leftmost point.
        if i > lo && row[i - 1] == row[i] {
            continue;
        }
        out.push(i);
    }
    out
}

#[derive(Debug)]
struct Ridge {
    /// `(width_index, signal_index)` points, from the largest width down.
    points: Vec<(usize, usize)>,
    gap: usize,
}

/// Finds peaks in `signal` using wavelet widths `widths` (ascending).
///
/// `min_snr` is the minimum (exclusive) signal-to-noise ratio; noise is
/// estimated as the median of |CWT| at the smallest width.
pub fn find_peaks_cwt(signal: &[f64], widths: &[usize], min_snr: f64) -> Vec<Peak> {
    if signal.is_empty() || widths.is_empty() {
        return Vec::new();
    }
    // CWT matrix: one row per width, ascending.
    let rows: Vec<Vec<f64>> = widths
        .iter()
        .map(|&w| convolve_same(signal, &wavelet(w, signal.len())))
        .collect();
    let mut abs0: Vec<f64> = rows[0].iter().map(|v| v.abs()).collect();
    let mid = (abs0.len() - 1) / 2;
    let (_, median, _) = abs0.select_nth_unstable_by(mid, |a, b| a.partial_cmp(b).expect("finite"));
    let noise = median.max(1e-12);
    ridge_peaks(signal, widths, &rows, noise, min_snr)
}

/// Links the CWT `rows`' relative maxima into ridge lines and keeps the
/// ridges long enough and, against the `noise` floor, strong enough.
fn ridge_peaks(
    signal: &[f64],
    widths: &[usize],
    rows: &[Vec<f64>],
    noise: f64,
    min_snr: f64,
) -> Vec<Peak> {
    let n = signal.len();

    // Ridge lines: start from maxima of the largest width, connect down.
    let max_gap = 2usize;
    let mut ridges: Vec<Ridge> = Vec::new();
    for wi in (0..widths.len()).rev() {
        let order = widths[wi].max(1);
        let maxima = relative_maxima(&rows[wi], order);
        let max_dist = (widths[wi] / 4).max(2);
        let mut used = vec![false; maxima.len()];
        for ridge in ridges.iter_mut() {
            if ridge.gap > max_gap {
                continue;
            }
            let last = ridge.points.last().expect("ridge is non-empty").1;
            // Nearest unused maximum within max_dist.
            let mut best: Option<(usize, usize)> = None;
            for (mi, &m) in maxima.iter().enumerate() {
                if used[mi] {
                    continue;
                }
                let d = m.abs_diff(last);
                if d <= max_dist && best.map(|(bd, _)| d < bd).unwrap_or(true) {
                    best = Some((d, mi));
                }
            }
            match best {
                Some((_, mi)) => {
                    used[mi] = true;
                    ridge.points.push((wi, maxima[mi]));
                    ridge.gap = 0;
                }
                None => ridge.gap += 1,
            }
        }
        for (mi, &m) in maxima.iter().enumerate() {
            if !used[mi] {
                ridges.push(Ridge {
                    points: vec![(wi, m)],
                    gap: 0,
                });
            }
        }
    }

    let signal_max = signal.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
    let min_len = (widths.len() / 4).max(2);
    let mut peaks: Vec<Peak> = Vec::new();
    for r in &ridges {
        if r.points.len() < min_len {
            continue;
        }
        // Position: the ridge's point at the smallest width it reaches.
        let &(wi_min, pos) = r
            .points
            .iter()
            .min_by_key(|(wi, _)| *wi)
            .expect("non-empty");
        let strength = rows[wi_min][pos].max(rows[0][pos.min(n - 1)]);
        if strength < 1e-6 * signal_max.max(1e-300) {
            continue; // Numerical residue, not a real response.
        }
        let snr = strength / noise;
        // Strict: a response indistinguishable from the noise floor (snr
        // exactly 1, e.g. any constant signal) is not a peak.
        if snr > min_snr {
            peaks.push(Peak {
                index: pos,
                snr,
                ridge_len: r.points.len(),
            });
        }
    }

    // De-duplicate nearby peaks (keep the strongest) and sort by index.
    peaks.sort_by(|a, b| b.snr.partial_cmp(&a.snr).expect("finite"));
    let min_sep = widths[0].max(2);
    let mut kept: Vec<Peak> = Vec::new();
    for p in peaks {
        if kept.iter().all(|q| q.index.abs_diff(p.index) > min_sep) {
            kept.push(p);
        }
    }
    kept.sort_by_key(|p| p.index);
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The reference [`convolve_same`] must equal bit for bit: each
    /// output reflects its own indices and sums its products in tap
    /// order.
    fn convolve_same_direct(signal: &[f64], kernel: &[f64]) -> Vec<f64> {
        let n = signal.len() as isize;
        let k = kernel.len();
        let mut out = vec![0.0; signal.len()];
        let half = (k / 2) as isize;
        for (i, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (j, &kv) in kernel.iter().enumerate() {
                let mut idx = i as isize + j as isize - half;
                loop {
                    if idx < 0 {
                        idx = -idx - 1;
                    } else if idx >= n {
                        idx = 2 * n - 1 - idx;
                    } else {
                        break;
                    }
                }
                acc += signal[idx as usize] * kv;
            }
            *o = acc;
        }
        out
    }

    /// [`find_peaks_cwt`] over the reference rows, with the noise median
    /// taken by a full sort.
    fn find_peaks_cwt_direct(signal: &[f64], widths: &[usize], min_snr: f64) -> Vec<Peak> {
        let rows: Vec<Vec<f64>> = widths
            .iter()
            .map(|&w| convolve_same_direct(signal, &wavelet(w, signal.len())))
            .collect();
        let mut abs0: Vec<f64> = rows[0].iter().map(|v| v.abs()).collect();
        abs0.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let noise = abs0[((abs0.len() - 1) as f64 * 0.5) as usize].max(1e-12);
        ridge_peaks(signal, widths, &rows, noise, min_snr)
    }

    /// Histogram-like signals of 1–300 points built from runs of zeros,
    /// flat runs and hashed noise, cycled up to the drawn length. Half
    /// are shorter than the shortest kernel (8 points), so reflection
    /// repeats.
    fn signal() -> impl Strategy<Value = Vec<f64>> {
        let run = (0u64..3, any::<u64>(), 1usize..=24);
        let len = prop_oneof![1usize..=7, 8usize..=300];
        (len, prop::collection::vec(run, 1..=12)).prop_map(|(len, runs)| {
            let mut out = Vec::with_capacity(len);
            for (i, &(kind, seed, run_len)) in runs.iter().cycle().enumerate() {
                for j in 0..run_len {
                    if out.len() == len {
                        return out;
                    }
                    out.push(match kind {
                        0 => 0.0,
                        1 => (seed % 1000) as f64 / 8.0,
                        _ => {
                            let mut z =
                                seed ^ ((i * 64 + j) as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                            ((z ^ (z >> 31)) % 100_000) as f64 / 97.0
                        }
                    });
                }
            }
            unreachable!("runs cycle forever")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The padded four-output convolution is bit-identical to the
        /// direct form, including kernels wider than the signal, and
        /// the peaks found on it are the same.
        #[test]
        fn padded_convolution_matches_the_direct_form(
            signal in signal(),
            max_width in 1usize..=24,
            min_snr in prop::sample::select(vec![0.5, 1.0, 2.0, 12.0]),
        ) {
            let widths: Vec<usize> = (1..=max_width).collect();
            for &w in &widths {
                let kernel = wavelet(w, signal.len());
                let fast: Vec<u64> =
                    convolve_same(&signal, &kernel).iter().map(|v| v.to_bits()).collect();
                let direct: Vec<u64> =
                    convolve_same_direct(&signal, &kernel).iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(fast, direct, "width {} over {} points", w, signal.len());
            }
            prop_assert_eq!(
                find_peaks_cwt(&signal, &widths, min_snr),
                find_peaks_cwt_direct(&signal, &widths, min_snr)
            );
        }
    }

    fn gaussian_bump(signal: &mut [f64], center: f64, sigma: f64, amp: f64) {
        for (i, v) in signal.iter_mut().enumerate() {
            let x = (i as f64 - center) / sigma;
            *v += amp * (-x * x / 2.0).exp();
        }
    }

    #[test]
    fn ricker_shape() {
        let w = ricker(101, 10.0);
        // Maximum at the centre, negative side lobes.
        let center = 50;
        assert!(w[center] > 0.0);
        assert!(w.iter().all(|&v| v <= w[center]));
        assert!(w[center + 15] < 0.0);
        // Near-zero mean (admissibility).
        let mean: f64 = w.iter().sum::<f64>() / w.len() as f64;
        assert!(mean.abs() < 1e-3, "{mean}");
    }

    #[test]
    fn finds_two_well_separated_peaks() {
        let mut s = vec![0.0; 300];
        gaussian_bump(&mut s, 80.0, 6.0, 10.0);
        gaussian_bump(&mut s, 220.0, 8.0, 6.0);
        let widths: Vec<usize> = (1..=12).collect();
        let peaks = find_peaks_cwt(&s, &widths, 1.0);
        assert_eq!(peaks.len(), 2, "{peaks:?}");
        assert!(peaks[0].index.abs_diff(80) <= 4, "{peaks:?}");
        assert!(peaks[1].index.abs_diff(220) <= 4, "{peaks:?}");
    }

    #[test]
    fn finds_four_paper_like_peaks() {
        // Fig. 4's structure: peaks at ~80, 230, 400, 650 (scaled to bins).
        let mut s = vec![0.0; 700];
        gaussian_bump(&mut s, 80.0, 8.0, 20.0);
        gaussian_bump(&mut s, 230.0, 10.0, 9.0);
        gaussian_bump(&mut s, 400.0, 12.0, 6.0);
        gaussian_bump(&mut s, 650.0, 12.0, 4.0);
        let widths: Vec<usize> = (1..=16).collect();
        let peaks = find_peaks_cwt(&s, &widths, 1.0);
        assert_eq!(peaks.len(), 4, "{peaks:?}");
        let expect = [80usize, 230, 400, 650];
        for (p, e) in peaks.iter().zip(expect) {
            assert!(p.index.abs_diff(e) <= 6, "{peaks:?}");
        }
    }

    #[test]
    fn flat_signal_has_no_peaks() {
        let s = vec![1.0; 200];
        let widths: Vec<usize> = (1..=10).collect();
        let peaks = find_peaks_cwt(&s, &widths, 1.0);
        assert!(peaks.is_empty(), "{peaks:?}");
    }

    #[test]
    fn noise_yields_no_high_confidence_peaks() {
        // Deterministic hash-based noise (splitmix64 avalanche).
        let s: Vec<f64> = (0..200u64)
            .map(|i| {
                let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                ((z ^ (z >> 31)) % 1000) as f64 / 10_000.0
            })
            .collect();
        let widths: Vec<usize> = (1..=10).collect();
        // A genuine peak in this codebase's distributions clears SNR 10+
        // easily; noise must not.
        let peaks = find_peaks_cwt(&s, &widths, 12.0);
        assert!(peaks.len() <= 1, "{peaks:?}");
    }

    #[test]
    fn empty_inputs() {
        assert!(find_peaks_cwt(&[], &[1, 2], 1.0).is_empty());
        assert!(find_peaks_cwt(&[1.0, 2.0], &[], 1.0).is_empty());
    }

    #[test]
    fn single_sharp_peak() {
        let mut s = vec![0.0; 100];
        gaussian_bump(&mut s, 50.0, 3.0, 5.0);
        let widths: Vec<usize> = (1..=8).collect();
        let peaks = find_peaks_cwt(&s, &widths, 1.0);
        assert_eq!(peaks.len(), 1, "{peaks:?}");
        assert!(peaks[0].index.abs_diff(50) <= 3);
    }
}

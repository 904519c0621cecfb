//! Ranking delinquent loads from LLC-miss samples (§3.2, step 1).

use std::collections::BTreeMap;

use apt_cpu::PebsRecord;
use apt_lir::Pc;

/// A load PC that frequently misses the LLC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelinquentLoad {
    pub pc: Pc,
    /// Number of LLC-miss samples attributed to this PC.
    pub samples: u64,
    /// Fraction of all LLC-miss samples attributed to this PC.
    pub share: f64,
}

/// Ranks per-PC LLC-miss counts into delinquent loads.
///
/// Returns PCs covering at least `min_share` of `total` samples,
/// most-delinquent first (ties by PC, for determinism), at most
/// `max_loads` of them. This mirrors the paper's use of "loads that
/// cause frequent LLC misses" \[39\].
pub fn rank_counts(
    counts: impl IntoIterator<Item = (Pc, u64)>,
    total: u64,
    min_share: f64,
    max_loads: usize,
) -> Vec<DelinquentLoad> {
    if total == 0 {
        return Vec::new();
    }
    let mut counts: Vec<(Pc, u64)> = counts.into_iter().collect();
    counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    counts
        .into_iter()
        .map(|(pc, n)| DelinquentLoad {
            pc,
            samples: n,
            share: n as f64 / total as f64,
        })
        .filter(|d| d.share >= min_share)
        .take(max_loads)
        .collect()
}

/// Counts PEBS records per PC and ranks them with [`rank_counts`].
pub fn rank_delinquent_loads(
    records: &[PebsRecord],
    min_share: f64,
    max_loads: usize,
) -> Vec<DelinquentLoad> {
    let mut counts: BTreeMap<Pc, u64> = BTreeMap::new();
    for r in records {
        *counts.entry(r.pc).or_default() += 1;
    }
    rank_counts(counts, records.len() as u64, min_share, max_loads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apt_mem::Level;

    fn rec(pc: u64) -> PebsRecord {
        PebsRecord {
            pc: Pc(pc),
            served: Level::Dram,
            cycle: 0,
        }
    }

    #[test]
    fn ranks_by_frequency() {
        let mut rs = vec![];
        rs.extend(std::iter::repeat_n(rec(0x100), 70));
        rs.extend(std::iter::repeat_n(rec(0x200), 25));
        rs.extend(std::iter::repeat_n(rec(0x300), 5));
        let d = rank_delinquent_loads(&rs, 0.10, 10);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].pc, Pc(0x100));
        assert!((d[0].share - 0.70).abs() < 1e-12);
        assert_eq!(d[1].pc, Pc(0x200));
    }

    #[test]
    fn caps_the_list() {
        let mut rs = vec![];
        for i in 0..20u64 {
            rs.extend(std::iter::repeat_n(rec(0x100 + i * 4), 5));
        }
        let d = rank_delinquent_loads(&rs, 0.0, 3);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn empty_input() {
        assert!(rank_delinquent_loads(&[], 0.01, 10).is_empty());
    }

    #[test]
    fn ties_break_by_pc_for_determinism() {
        let rs = vec![rec(0x200), rec(0x100)];
        let d = rank_delinquent_loads(&rs, 0.0, 10);
        assert_eq!(d[0].pc, Pc(0x100));
    }
}

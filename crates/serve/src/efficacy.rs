//! The per-tenant hint-efficacy ledger: prefetch-outcome evidence
//! segmented by the hint generation that produced it, plus the
//! regression policy that turns a bad generation into an automatic
//! rollback.
//!
//! Deployed binaries running under a hot-swapped generation report
//! per-PC prefetch outcomes back through tagged dumps (`# hintgen:` +
//! `# pf-outcome:` headers). The committer lands every accepted epoch's
//! outcome counters here, keyed by generation — generation 0 collects
//! untagged (pre-feedback / baseline) epochs — so the daemon can answer
//! "did the hints it shipped actually help" per generation, not just in
//! aggregate.
//!
//! The same serializer discipline as the `APTDB1` shards applies:
//!
//! * **pure-addition merge** — a [`GenEfficacy`] is a sum of epoch
//!   counters (the `rolled_back` flag ORs), so merging ledgers is
//!   associative and commutative and the ledger *content* never depends
//!   on upload arrival order.
//! * **canonical bytes** — `BTreeMap` ordering everywhere; encode of
//!   equal ledgers is byte-identical, so ledger files are
//!   arrival-order-independent too.
//! * **crash safety** — the ledger is an `apt-store` word-framed file
//!   saved by whole-file replace (DESIGN.md §3), so the
//!   [`crate::ShardStore`] orphan sweep covers torn ledger writes in the
//!   shared `db_dir` for free.

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use apt_ingest::AggregateProfile;
use apt_store::{WordReader, WordWriter};
use apt_trace::PcOutcomes;

/// Magic + format version; bump when the layout changes.
pub const LEDGER_MAGIC: &[u8; 8] = b"APTEL1\0\0";
/// Ledger file extension (files live beside the `.aptdb` shards).
pub const LEDGER_EXT: &str = "aptel";

/// The ledger key untagged (pre-feedback) epochs collect under.
pub const GEN_BASELINE: u64 = 0;

/// Everything the ledger knows about one hint generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenEfficacy {
    /// Epochs that reported under this generation.
    pub epochs: u64,
    /// Instructions across those epochs (IPC proxy numerator).
    pub instructions: u64,
    /// Cycles across those epochs (IPC proxy denominator).
    pub cycles: u64,
    /// Per-prefetch-PC outcome counters, summed across epochs.
    pub per_pc: BTreeMap<u64, PcOutcomes>,
    /// Set once the regression policy has rolled this generation back,
    /// so the policy fires at most once per generation regardless of
    /// how later evidence arrives.
    pub rolled_back: bool,
}

impl GenEfficacy {
    /// Sum of the per-PC outcome counters.
    pub fn total(&self) -> PcOutcomes {
        let mut t = PcOutcomes::default();
        for o in self.per_pc.values() {
            t.add(o);
        }
        t
    }

    /// Timely share of issued prefetches, or `None` before any outcome
    /// evidence (baseline epochs report no `# pf-outcome:` headers).
    pub fn timely_share(&self) -> Option<f64> {
        let t = self.total();
        (t.issued > 0).then(|| t.timely as f64 / t.issued as f64)
    }

    /// Eq. 1 residual proxy in cycles per classified prefetch: mean
    /// timely slack minus mean late head-start, weighted together.
    /// Positive residual means prefetches land with room to spare;
    /// negative means demand loads are catching the fills in flight.
    pub fn residual_cycles(&self) -> f64 {
        let t = self.total();
        let classified = (t.timely + t.late).max(1);
        (t.timely_slack_cycles as f64 - t.late_head_start_cycles as f64) / classified as f64
    }

    /// Instructions-per-cycle proxy over this generation's epochs.
    pub fn ipc(&self) -> Option<f64> {
        (self.cycles > 0).then(|| self.instructions as f64 / self.cycles as f64)
    }

    /// Pure-addition merge (the `rolled_back` flag ORs).
    pub fn merge(&mut self, other: &GenEfficacy) {
        self.epochs += other.epochs;
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        for (pc, o) in &other.per_pc {
            self.per_pc.entry(*pc).or_default().add(o);
        }
        self.rolled_back |= other.rolled_back;
    }
}

/// One tenant's efficacy ledger: evidence per hint generation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EfficacyLedger {
    /// Keyed by generation number; 0 is the untagged baseline bucket.
    pub generations: BTreeMap<u64, GenEfficacy>,
}

impl EfficacyLedger {
    /// The ledger file a tenant maps to inside `dir`.
    pub fn path(dir: &Path, tenant: &str) -> PathBuf {
        dir.join(format!("{tenant}.{LEDGER_EXT}"))
    }

    /// Folds one accepted epoch's aggregate in under `gen_key`
    /// (`agg.gen.ledger_key()`: its tagged generation, or 0).
    pub fn record_epoch(&mut self, gen_key: u64, agg: &AggregateProfile) {
        let g = self.generations.entry(gen_key).or_default();
        g.epochs += 1;
        g.instructions += agg.instructions;
        g.cycles += agg.cycles;
        for (pc, o) in &agg.pf_outcomes {
            g.per_pc.entry(*pc).or_default().add(o);
        }
    }

    /// Merges another ledger in; associative and commutative.
    pub fn merge(&mut self, other: &EfficacyLedger) {
        for (gen, g) in &other.generations {
            self.generations.entry(*gen).or_default().merge(g);
        }
    }

    /// Total epochs recorded across every generation.
    pub fn total_epochs(&self) -> u64 {
        self.generations.values().map(|g| g.epochs).sum()
    }

    /// The regression-policy verdict for the active generation `gen`:
    /// `Some(prior_gen)` when `gen` has at least `window` epochs of
    /// outcome evidence, has not already been rolled back, and its
    /// timely share trails the best earlier evidenced generation by
    /// more than `threshold`.
    pub fn regression(&self, gen: u64, window: u64, threshold: f64) -> Option<u64> {
        if window == 0 || gen <= 1 {
            return None;
        }
        let cur = self.generations.get(&gen)?;
        if cur.rolled_back || cur.epochs < window {
            return None;
        }
        let cur_share = cur.timely_share()?;
        // Compare against the best evidenced real generation before
        // this one — the baseline bucket (gen 0) has no issued
        // prefetches and never qualifies.
        let (prior, prior_share) = self
            .generations
            .range(1..gen)
            .filter_map(|(g, e)| e.timely_share().map(|s| (*g, s)))
            .max_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)))?;
        (prior_share - cur_share > threshold).then_some(prior)
    }

    /// Canonical serialization; equal ledgers encode byte-identically.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WordWriter::new(LEDGER_MAGIC);
        w.put(self.generations.len() as u64);
        for (gen, g) in &self.generations {
            w.extend([
                *gen,
                g.epochs,
                g.instructions,
                g.cycles,
                u64::from(g.rolled_back),
                g.per_pc.len() as u64,
            ]);
            for (pc, o) in &g.per_pc {
                w.put(*pc);
                w.extend(o.words());
            }
        }
        w.finish()
    }

    /// Strict inverse of [`EfficacyLedger::encode`]: any damage the
    /// [`WordReader`] rejects, or an out-of-range flag, reads as `None`.
    pub fn decode(bytes: &[u8]) -> Option<EfficacyLedger> {
        let mut r = WordReader::open(bytes, LEDGER_MAGIC)?;
        let generations = r.map(|r| {
            let [gen, epochs, instructions, cycles, rolled_back] = r.words()?;
            let g = GenEfficacy {
                epochs,
                instructions,
                cycles,
                per_pc: r.map(|r| Some((r.word()?, PcOutcomes::from_words(r.words()?))))?,
                rolled_back: match rolled_back {
                    0 => false,
                    1 => true,
                    _ => return None,
                },
            };
            Some((gen, g))
        })?;
        r.finish(EfficacyLedger { generations })
    }

    /// Loads a ledger file; missing or corrupt reads as empty (the
    /// evidence re-accumulates, mirroring `ProfileDb::load_or_empty`).
    pub fn load_or_empty(path: impl AsRef<Path>) -> EfficacyLedger {
        fs::read(path)
            .ok()
            .and_then(|b| EfficacyLedger::decode(&b))
            .unwrap_or_default()
    }

    /// Saves the ledger with [`apt_store::replace`].
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        apt_store::replace(path.as_ref(), &self.encode())
    }

    /// The `serve-status` efficacy lines: one per generation, stable
    /// formatting, no clocks — a pure function of the ledger.
    pub fn render_status(&self) -> String {
        let mut out = String::new();
        for (gen, g) in &self.generations {
            let name = if *gen == GEN_BASELINE {
                "  efficacy baseline:".to_string()
            } else {
                format!("  efficacy gen {gen}:")
            };
            out.push_str(&name);
            out.push_str(&format!(" {} epoch(s)", g.epochs));
            if let Some(share) = g.timely_share() {
                out.push_str(&format!(
                    ", timely {share:.4}, residual {:+.1} cyc",
                    self.generations[gen].residual_cycles()
                ));
            }
            if let Some(ipc) = g.ipc() {
                out.push_str(&format!(", ipc {ipc:.3}"));
            }
            if g.rolled_back {
                out.push_str(" (rolled back)");
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcomes(issued: u64, timely: u64, late: u64) -> PcOutcomes {
        PcOutcomes {
            issued,
            timely,
            late,
            useless: issued - timely - late,
            timely_slack_cycles: timely * 80,
            late_head_start_cycles: late * 30,
            ..PcOutcomes::default()
        }
    }

    fn agg(gen_key: u64, issued: u64, timely: u64) -> (u64, AggregateProfile) {
        let mut a = AggregateProfile {
            instructions: 1000,
            cycles: 2000,
            ..AggregateProfile::default()
        };
        if issued > 0 {
            a.pf_outcomes
                .insert(0x400100, outcomes(issued, timely, issued - timely));
        }
        (gen_key, a)
    }

    #[test]
    fn record_and_shares() {
        let mut l = EfficacyLedger::default();
        let (k, a) = agg(2, 16, 12);
        l.record_epoch(k, &a);
        l.record_epoch(k, &a);
        let g = &l.generations[&2];
        assert_eq!(g.epochs, 2);
        assert_eq!(g.instructions, 2000);
        assert_eq!(g.timely_share(), Some(0.75));
        assert_eq!(g.ipc(), Some(0.5));
        // Baseline epochs carry no outcomes: share is None, IPC works.
        let (k, a) = agg(0, 0, 0);
        l.record_epoch(k, &a);
        assert_eq!(l.generations[&0].timely_share(), None);
        assert_eq!(l.total_epochs(), 3);
    }

    #[test]
    fn encode_decode_round_trips_and_rejects_damage() {
        let mut l = EfficacyLedger::default();
        l.record_epoch(0, &agg(0, 0, 0).1);
        l.record_epoch(1, &agg(1, 32, 30).1);
        l.record_epoch(2, &agg(2, 32, 4).1);
        l.generations.get_mut(&2).unwrap().rolled_back = true;
        let bytes = l.encode();
        assert_eq!(&bytes[..8], LEDGER_MAGIC);
        assert_eq!(EfficacyLedger::decode(&bytes), Some(l.clone()));
        // Truncation, trailing garbage, bad magic, bad flag.
        assert_eq!(EfficacyLedger::decode(&bytes[..bytes.len() - 1]), None);
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(EfficacyLedger::decode(&trailing), None);
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(EfficacyLedger::decode(&bad), None);
        let mut huge = bytes.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(EfficacyLedger::decode(&huge), None);
    }

    #[test]
    fn merge_is_associative_and_commutative_with_canonical_bytes() {
        // Deterministic xorshift so the property sweep needs no RNG dep.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50 {
            let mut parts = Vec::new();
            for _ in 0..3 {
                let mut l = EfficacyLedger::default();
                for _ in 0..(next() % 4) {
                    let gen = next() % 3;
                    let issued = 8 + next() % 32;
                    let timely = next() % (issued + 1);
                    l.record_epoch(gen, &agg(gen, issued, timely).1);
                }
                if next() % 4 == 0 {
                    l.generations.entry(next() % 3).or_default().rolled_back = true;
                }
                parts.push(l);
            }
            let [a, b, c] = [&parts[0], &parts[1], &parts[2]];
            // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c)
            let mut left = a.clone();
            left.merge(b);
            left.merge(c);
            let mut bc = b.clone();
            bc.merge(c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "associativity");
            // a ⊕ b == b ⊕ a, byte-for-byte.
            let mut ab = a.clone();
            ab.merge(b);
            let mut ba = b.clone();
            ba.merge(a);
            assert_eq!(ab.encode(), ba.encode(), "commutativity");
        }
    }

    #[test]
    fn regression_fires_only_with_enough_evidence_and_a_real_gap() {
        let mut l = EfficacyLedger::default();
        for _ in 0..3 {
            l.record_epoch(1, &agg(1, 32, 30).1); // ~0.94 timely
        }
        l.record_epoch(2, &agg(2, 32, 4).1); // 0.125 timely
                                             // One epoch of gen-2 evidence is below the window.
        assert_eq!(l.regression(2, 2, 0.2), None);
        l.record_epoch(2, &agg(2, 32, 4).1);
        assert_eq!(l.regression(2, 2, 0.2), Some(1));
        // Tolerance above the gap: no rollback.
        assert_eq!(l.regression(2, 2, 0.9), None);
        // Gen 1 has nothing earlier to fall back to.
        assert_eq!(l.regression(1, 1, 0.0), None);
        // Window 0 disables the policy outright.
        assert_eq!(l.regression(2, 0, 0.2), None);
        // A rolled-back generation never re-fires.
        l.generations.get_mut(&2).unwrap().rolled_back = true;
        assert_eq!(l.regression(2, 2, 0.2), None);
    }

    #[test]
    fn save_load_round_trips_and_tolerates_missing_or_corrupt_files() {
        let dir = std::env::temp_dir().join(format!("apt-efficacy-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = EfficacyLedger::path(&dir, "BFS");
        assert_eq!(
            EfficacyLedger::load_or_empty(&path),
            EfficacyLedger::default()
        );
        let mut l = EfficacyLedger::default();
        l.record_epoch(1, &agg(1, 16, 12).1);
        l.save(&path).unwrap();
        assert_eq!(EfficacyLedger::load_or_empty(&path), l);
        fs::write(&path, b"garbage").unwrap();
        assert_eq!(
            EfficacyLedger::load_or_empty(&path),
            EfficacyLedger::default()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn status_rendering_is_stable() {
        let mut l = EfficacyLedger::default();
        l.record_epoch(0, &agg(0, 0, 0).1);
        l.record_epoch(1, &agg(1, 32, 24).1);
        l.generations.get_mut(&1).unwrap().rolled_back = true;
        assert_eq!(
            l.render_status(),
            "  efficacy baseline: 1 epoch(s), ipc 0.500\n  \
             efficacy gen 1: 1 epoch(s), timely 0.7500, residual +52.5 cyc, ipc 0.500 (rolled back)\n"
        );
    }
}

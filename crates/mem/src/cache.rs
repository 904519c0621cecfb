//! A set-associative LRU cache of line tags.
//!
//! Only tags are modelled — data lives in the functional memory image of
//! `apt-cpu`. Each resident line carries two bookkeeping bits used by the
//! prefetch-quality counters: whether it was installed by a prefetch, and
//! whether a demand access has touched it since the fill.
//!
//! # Layout
//!
//! Ways live in two flat arrays, `assoc` consecutive slots per set: the
//! line tags, and a recency *stamp* per way. A stamp holds, from the top,
//! the cache's own access clock at the way's last touch, the way's index
//! in its set, and the two usage bits. A hit rewrites one stamp and a fill
//! overwrites one way in place, so no lookup allocates or moves a way.
//!
//! The victim of a fill is the way with the smallest stamp. Clocks are
//! unique and grow with every touch, so that is the least recently used
//! way — the same true LRU as a recency-ordered list — and the index bits
//! name it without a second scan. An empty way holds [`EMPTY`] and clock
//! 0, below any touched way's, so a set fills its empty ways (lowest index
//! first) before it evicts; ways never empty again.

use crate::config::CacheConfig;

/// Tag of a way holding no line. Lines are addresses over
/// [`crate::LINE_BYTES`], so no real line reaches it.
const EMPTY: u64 = u64::MAX;
/// Stamp bit: installed by a (hardware or software) prefetch.
const PREFETCHED: u64 = 1;
/// Stamp bit: touched by a demand access since the fill.
const USED: u64 = 2;
/// Both usage bits of a stamp.
const FLAGS: u64 = PREFETCHED | USED;
/// Position of the way's index in its set within a stamp.
const WAY_SHIFT: u32 = 2;
/// Most ways a set may have: the index field is six bits wide.
const MAX_ASSOC: usize = 64;
/// The index field of a stamp.
const WAY_BITS: u64 = (MAX_ASSOC as u64 - 1) << WAY_SHIFT;
/// Clock increment per touch: one above the index field.
const TICK: u64 = (MAX_ASSOC as u64) << WAY_SHIFT;

/// Outcome of an eviction, for prefetch-quality accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Evicted {
    /// Nothing was evicted (free way available).
    None,
    /// A demand-installed or already-used line was evicted; carries the
    /// victim line number.
    Normal(u64),
    /// A prefetched line was evicted before any demand access used it —
    /// the paper's "too early" prefetch failure. Carries the victim line.
    UnusedPrefetch(u64),
}

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitInfo {
    /// The line was present.
    pub hit: bool,
    /// The line was present, had been installed by a prefetch, and this is
    /// the first demand access touching it.
    pub first_use_of_prefetch: bool,
}

/// A set-associative, true-LRU cache of line numbers.
#[derive(Debug, Clone)]
pub struct Cache {
    /// Line tag of every way, set by set; [`EMPTY`] when free.
    tags: Vec<u64>,
    /// Recency stamp of every way (see the module docs).
    stamps: Vec<u64>,
    /// Clock field of the most recent touch.
    clock: u64,
    assoc: usize,
    set_mask: u64,
}

impl Cache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two (required for
    /// masking) or a set has more than 64 ways.
    pub fn new(config: &CacheConfig) -> Cache {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let assoc = config.assoc as usize;
        assert!(assoc <= MAX_ASSOC, "at most {MAX_ASSOC} ways per set");
        let ways = sets as usize * assoc;
        Cache {
            tags: vec![EMPTY; ways],
            stamps: (0..ways)
                .map(|i| ((i % assoc) as u64) << WAY_SHIFT)
                .collect(),
            clock: 0,
            assoc,
            set_mask: sets - 1,
        }
    }

    /// Index of the first way of `line`'s set.
    #[inline]
    fn base_of(&self, line: u64) -> usize {
        debug_assert_ne!(line, EMPTY, "line number collides with the empty tag");
        (line & self.set_mask) as usize * self.assoc
    }

    /// Index of the way holding `line`, if resident. Scans every way of
    /// the set with no early exit: a hit lands on any way, and a loop
    /// leaving at a varying way costs a mispredicted branch.
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.base_of(line);
        let mut found = usize::MAX;
        for (w, &t) in self.tags[base..base + self.assoc].iter().enumerate() {
            found = if t == line { w } else { found };
        }
        (found != usize::MAX).then(|| base + found)
    }

    /// Makes way `i` the most recently used, with usage bits `flags`.
    #[inline]
    fn touch(&mut self, i: usize, flags: u64) {
        self.clock += TICK;
        self.stamps[i] = self.clock | self.stamps[i] & WAY_BITS | flags;
    }

    /// Looks up `line`; on a demand hit, promotes it to MRU and updates the
    /// usage bits. `demand` distinguishes demand accesses from prefetch
    /// probes (which must not perturb the usage bits).
    #[inline]
    pub fn access(&mut self, line: u64, demand: bool) -> HitInfo {
        let Some(i) = self.find(line) else {
            return HitInfo {
                hit: false,
                first_use_of_prefetch: false,
            };
        };
        let flags = self.stamps[i] & FLAGS;
        self.touch(i, if demand { flags | USED } else { flags });
        HitInfo {
            hit: true,
            first_use_of_prefetch: demand && flags == PREFETCHED,
        }
    }

    /// True if `line` is resident (no LRU update).
    #[inline]
    pub fn contains(&self, line: u64) -> bool {
        self.find(line).is_some()
    }

    /// Installs `line` as MRU, evicting the LRU way if the set is full.
    #[inline]
    pub fn fill(&mut self, line: u64, from_prefetch: bool) -> Evicted {
        // One pass finds the line and the oldest stamp, independently.
        let base = self.base_of(line);
        let ways = base..base + self.assoc;
        let mut found = usize::MAX;
        let mut oldest = u64::MAX;
        for (w, (&t, &s)) in self.tags[ways.clone()]
            .iter()
            .zip(&self.stamps[ways])
            .enumerate()
        {
            found = if t == line { w } else { found };
            oldest = oldest.min(s);
        }
        if found != usize::MAX {
            // Refill of a resident line (e.g. racing fills): keep the
            // existing usage bits, just refresh recency.
            let i = base + found;
            self.touch(i, self.stamps[i] & FLAGS);
            return Evicted::None;
        }
        let victim = base + ((oldest & WAY_BITS) >> WAY_SHIFT) as usize;
        let old = std::mem::replace(&mut self.tags[victim], line);
        let old_flags = oldest & FLAGS;
        self.touch(victim, if from_prefetch { PREFETCHED } else { 0 });
        if old == EMPTY {
            Evicted::None
        } else if old_flags == PREFETCHED {
            Evicted::UnusedPrefetch(old)
        } else {
            Evicted::Normal(old)
        }
    }

    /// Number of resident lines (for tests/diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways.
        Cache::new(&CacheConfig {
            size_bytes: 4 * crate::LINE_BYTES,
            assoc: 2,
            latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(10, true).hit);
        c.fill(10, false);
        assert!(c.access(10, true).hit);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 2, 4 share set 0 (mask = 1).
        c.fill(0, false);
        c.fill(2, false);
        // Touch 0 → 2 becomes LRU.
        c.access(0, true);
        assert_eq!(c.fill(4, false), Evicted::Normal(2));
        assert!(c.contains(0));
        assert!(!c.contains(2));
        assert!(c.contains(4));
    }

    #[test]
    fn unused_prefetch_eviction_detected() {
        let mut c = tiny();
        c.fill(0, true); // Prefetch, never used.
        c.fill(2, false);
        c.access(2, true);
        assert_eq!(c.fill(4, false), Evicted::UnusedPrefetch(0));
    }

    #[test]
    fn used_prefetch_eviction_is_normal() {
        let mut c = tiny();
        c.fill(0, true);
        let h = c.access(0, true);
        assert!(h.hit && h.first_use_of_prefetch);
        // Second access is no longer a first use.
        assert!(!c.access(0, true).first_use_of_prefetch);
        c.fill(2, false);
        c.access(2, true);
        assert_eq!(c.fill(4, false), Evicted::Normal(0));
    }

    #[test]
    fn prefetch_probe_does_not_mark_used() {
        let mut c = tiny();
        c.fill(0, true);
        // A prefetch probe (demand = false) must not consume the first-use.
        assert!(!c.access(0, false).first_use_of_prefetch);
        assert!(c.access(0, true).first_use_of_prefetch);
    }

    #[test]
    fn refill_keeps_residency() {
        let mut c = tiny();
        c.fill(0, false);
        assert_eq!(c.fill(0, true), Evicted::None);
        assert_eq!(c.resident_lines(), 1);
    }
}

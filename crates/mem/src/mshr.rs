//! Miss-status-holding registers (a.k.a. fill buffers).
//!
//! Every outstanding prefetch fill — software or hardware — occupies one
//! entry until its data arrives from DRAM. Demand misses are blocking and
//! never occupy an entry (see the timing model in [`crate::hierarchy`]). A
//! demand load to a line already in flight waits on the existing entry;
//! this is precisely the structure behind the `LOAD_HIT_PRE.SW_PF` *late
//! prefetch* event the paper uses in §2.3.

use crate::hierarchy::ReqSource;
use crate::Cycle;

/// One outstanding fill request.
#[derive(Debug, Clone, Copy)]
pub struct MshrEntry {
    /// Cache-line number being filled.
    pub line: u64,
    /// Cycle at which the data arrives.
    pub ready: Cycle,
    /// Who allocated the entry.
    pub source: ReqSource,
}

/// A fixed-capacity file of outstanding fills.
#[derive(Debug, Clone)]
pub struct MshrFile {
    entries: Vec<MshrEntry>,
    capacity: usize,
    peak: usize,
    window_peak: usize,
    /// ∫ occupancy d(cycle) since creation, advanced by [`MshrFile::advance`].
    occ_cycles: u64,
    last_advance: Cycle,
}

impl MshrFile {
    /// Creates an empty file with `capacity` entries.
    pub fn new(capacity: usize) -> MshrFile {
        MshrFile {
            entries: Vec::with_capacity(capacity),
            capacity,
            peak: 0,
            window_peak: 0,
            occ_cycles: 0,
            last_advance: 0,
        }
    }

    /// Looks up an in-flight request for `line`.
    pub fn find(&self, line: u64) -> Option<&MshrEntry> {
        self.entries.iter().find(|e| e.line == line)
    }

    /// Number of occupied entries.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// High-water mark of [`MshrFile::occupancy`] over the file's lifetime.
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Accumulates the occupancy-time integral up to `now`. Occupancy only
    /// changes inside `Hierarchy` calls, which all advance first, so the
    /// occupancy seen here held for the whole `[last_advance, now)` span.
    pub fn advance(&mut self, now: Cycle) {
        if now > self.last_advance {
            self.occ_cycles += self.entries.len() as u64 * (now - self.last_advance);
            self.last_advance = now;
        }
    }

    /// Cumulative ∫ occupancy d(cycle) as of the last [`MshrFile::advance`].
    pub fn occ_cycles(&self) -> u64 {
        self.occ_cycles
    }

    /// High-water mark since the last [`MshrFile::take_window_peak`] call.
    /// Resets to the *current* occupancy (still-outstanding fills keep
    /// counting toward the next window's peak).
    pub fn take_window_peak(&mut self) -> usize {
        let peak = self.window_peak;
        self.window_peak = self.entries.len();
        peak
    }

    /// Configured entry count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// True if a new entry can be allocated.
    pub fn has_free(&self) -> bool {
        self.entries.len() < self.capacity
    }

    /// Allocates an entry; returns `false` (dropping the request) when full.
    ///
    /// Callers must have checked [`MshrFile::find`] first — allocating a
    /// duplicate line is a logic error.
    pub fn allocate(&mut self, entry: MshrEntry) -> bool {
        debug_assert!(self.find(entry.line).is_none(), "duplicate MSHR entry");
        if self.entries.len() >= self.capacity {
            return false;
        }
        self.entries.push(entry);
        self.peak = self.peak.max(self.entries.len());
        self.window_peak = self.window_peak.max(self.entries.len());
        true
    }

    /// Removes and returns every entry whose data has arrived by `now`.
    pub fn drain_ready(&mut self, now: Cycle) -> Vec<MshrEntry> {
        let mut done = Vec::new();
        self.entries.retain(|e| {
            if e.ready <= now {
                done.push(*e);
                false
            } else {
                true
            }
        });
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(line: u64, ready: Cycle) -> MshrEntry {
        MshrEntry {
            line,
            ready,
            source: ReqSource::SwPrefetch,
        }
    }

    #[test]
    fn allocate_and_find() {
        let mut m = MshrFile::new(2);
        assert!(m.allocate(entry(1, 10)));
        assert!(m.find(1).is_some());
        assert!(m.find(2).is_none());
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn drops_when_full() {
        let mut m = MshrFile::new(1);
        assert!(m.allocate(entry(1, 10)));
        assert!(!m.allocate(entry(2, 10)));
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn drain_ready_splits_by_time() {
        let mut m = MshrFile::new(4);
        m.allocate(entry(1, 10));
        m.allocate(entry(2, 20));
        m.allocate(entry(3, 30));
        let done = m.drain_ready(20);
        let lines: Vec<u64> = done.iter().map(|e| e.line).collect();
        assert_eq!(lines, vec![1, 2]);
        assert_eq!(m.occupancy(), 1);
    }

    #[test]
    fn peak_is_a_high_water_mark() {
        let mut m = MshrFile::new(4);
        assert_eq!(m.peak(), 0);
        assert_eq!(m.capacity(), 4);
        m.allocate(entry(1, 10));
        m.allocate(entry(2, 20));
        assert_eq!(m.peak(), 2);
        // Draining lowers occupancy but never the peak.
        m.drain_ready(15);
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.peak(), 2);
        m.allocate(entry(3, 30));
        assert_eq!(m.peak(), 2);
        m.allocate(entry(4, 40));
        assert_eq!(m.peak(), 3);
    }

    #[test]
    fn advance_integrates_occupancy_over_time() {
        let mut m = MshrFile::new(4);
        m.advance(10);
        assert_eq!(m.occ_cycles(), 0, "empty file integrates to zero");
        m.allocate(entry(1, 100));
        m.allocate(entry(2, 100));
        m.advance(20); // 2 entries × 10 cycles
        assert_eq!(m.occ_cycles(), 20);
        m.drain_ready(100);
        m.advance(30); // still 20: drain happened at t=20's occupancy already integrated
        assert_eq!(m.occ_cycles(), 20);
        // Time never runs backwards; a stale advance is a no-op.
        m.advance(25);
        assert_eq!(m.occ_cycles(), 20);
    }

    #[test]
    fn window_peak_resets_to_current_occupancy() {
        let mut m = MshrFile::new(4);
        m.allocate(entry(1, 50));
        m.allocate(entry(2, 10));
        m.drain_ready(20);
        assert_eq!(m.take_window_peak(), 2);
        // Entry 1 is still outstanding, so the new window starts at 1.
        assert_eq!(m.occupancy(), 1);
        assert_eq!(m.take_window_peak(), 1);
        m.allocate(entry(3, 60));
        assert_eq!(m.take_window_peak(), 2);
        // Lifetime peak is untouched by window resets.
        assert_eq!(m.peak(), 2);
    }
}

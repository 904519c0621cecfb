//! Compact structured event records for the memory-hierarchy hooks.
//!
//! Events are `Copy` and allocation-free so the recorder can run inside the
//! simulation hot loop. One [`TraceEvent`] is emitted per hook firing; the
//! [`EventKind`] payload carries the hook-specific data.

/// Who created a fill request (mirror of `apt-mem`'s `ReqSource`, kept
/// separate because this crate sits *below* `apt-mem` in the workspace
/// dependency DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfSource {
    /// A demand load/store.
    Demand,
    /// A software `prefetch` instruction.
    Sw,
    /// A hardware prefetcher (stride or next-line).
    Hw,
}

impl PfSource {
    pub fn name(self) -> &'static str {
        match self {
            PfSource::Demand => "demand",
            PfSource::Sw => "sw-pf",
            PfSource::Hw => "hw-pf",
        }
    }
}

/// What happened to a software prefetch at issue time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PfDisposition {
    /// Allocated an MSHR entry and went to DRAM.
    Offcore,
    /// Served by an on-chip level (L2/LLC → L1 install).
    Oncore,
    /// Line already resident in L1 or already in flight: no-op.
    Redundant,
    /// No free MSHR entry: the prefetch was discarded.
    DroppedFull,
}

impl PfDisposition {
    pub fn name(self) -> &'static str {
        match self {
            PfDisposition::Offcore => "offcore",
            PfDisposition::Oncore => "oncore",
            PfDisposition::Redundant => "redundant",
            PfDisposition::DroppedFull => "dropped-full",
        }
    }
}

/// The hook a [`TraceEvent`] came from, with its payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A software `prefetch` instruction executed.
    SwPfIssue { disposition: PfDisposition },
    /// An MSHR (fill-buffer) entry was allocated.
    MshrAlloc { source: PfSource, ready: u64 },
    /// A prefetch was dropped because the MSHR file was full.
    MshrDrop { source: PfSource },
    /// An outstanding fill completed and installed into the hierarchy.
    Fill { source: PfSource },
    /// A demand load coalesced onto an in-flight fill (`LOAD_HIT_PRE`);
    /// `swpf` marks the paper's late-software-prefetch case.
    FbHit { swpf: bool },
    /// A demand load missed every level and allocated a blocking DRAM fill.
    DemandFill,
    /// A line was evicted from the LLC; `unused_prefetch` marks the
    /// paper's early-prefetch failure (prefetched, never demanded).
    Eviction { unused_prefetch: bool },
    /// First demand access to a prefetch-installed line.
    PfFirstUse,
}

impl EventKind {
    /// Stable display name of the kind.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::SwPfIssue { .. } => "sw_pf_issue",
            EventKind::MshrAlloc { .. } => "mshr_alloc",
            EventKind::MshrDrop { .. } => "mshr_drop",
            EventKind::Fill { .. } => "fill",
            EventKind::FbHit { .. } => "fb_hit",
            EventKind::DemandFill => "demand_fill",
            EventKind::Eviction { .. } => "eviction",
            EventKind::PfFirstUse => "pf_first_use",
        }
    }
}

/// One structured event from the simulated memory system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated cycle at which the hook fired.
    pub cycle: u64,
    /// Program counter responsible (issuing load/prefetch), 0 if none.
    pub pc: u64,
    /// Cache-line index the event concerns.
    pub line: u64,
    /// Hook identity + payload.
    pub kind: EventKind,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable() {
        assert_eq!(EventKind::DemandFill.name(), "demand_fill");
        assert_eq!(PfDisposition::DroppedFull.name(), "dropped-full");
        assert_eq!(PfSource::Sw.name(), "sw-pf");
    }
}

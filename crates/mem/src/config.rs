//! Memory-system configuration.

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity (ways).
    pub assoc: u32,
    /// Load-to-use latency in cycles when served from this level.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into whole sets.
    pub fn sets(&self) -> u64 {
        let lines = self.size_bytes / crate::LINE_BYTES;
        assert!(
            lines.is_multiple_of(self.assoc as u64) && lines > 0,
            "cache geometry must divide into whole sets"
        );
        lines / self.assoc as u64
    }
}

/// Full memory-system configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub llc: CacheConfig,
    /// Load-to-use latency when served from DRAM.
    pub dram_latency: u64,
    /// Minimum spacing between DRAM line transfers (bandwidth model): one
    /// offcore fill can start every `dram_service_interval` cycles.
    pub dram_service_interval: u64,
    /// Fill-buffer / MSHR entries for in-flight prefetches (demand misses
    /// block and never hold one).
    pub mshr_entries: usize,
    /// Enables the per-PC stride hardware prefetcher.
    pub stride_prefetcher: bool,
    /// Lookahead of the stride prefetcher, in strides.
    pub stride_lookahead: u64,
    /// Enables the L2 next-line hardware prefetcher.
    pub next_line_prefetcher: bool,
}

impl MemConfig {
    /// The paper's evaluation machine (Table 2): Xeon Gold 5218-class
    /// hierarchy. Use for full-scale runs.
    pub fn paper_machine() -> MemConfig {
        MemConfig {
            l1: CacheConfig {
                size_bytes: 32 << 10,
                assoc: 8,
                latency: 4,
            },
            l2: CacheConfig {
                size_bytes: 1 << 20,
                assoc: 16,
                latency: 14,
            },
            llc: CacheConfig {
                size_bytes: 22 << 20,
                assoc: 11,
                latency: 44,
            },
            dram_latency: 220,
            dram_service_interval: 4,
            mshr_entries: 16,
            stride_prefetcher: true,
            stride_lookahead: 8,
            next_line_prefetcher: true,
        }
    }

    /// A scaled-down hierarchy for fast experiments. Capacities shrink so
    /// that scaled workload footprints keep the paper's hit/miss behaviour;
    /// latencies shrink because this core is scalar and in-order (≈1 IPC)
    /// while the paper's Xeon is 4-wide out-of-order — dividing the memory
    /// latencies by roughly the width ratio restores the paper's
    /// compute-to-memory balance, keeping speedup *magnitudes* comparable.
    pub fn scaled_machine() -> MemConfig {
        MemConfig {
            l1: CacheConfig {
                size_bytes: 8 << 10,
                assoc: 8,
                latency: 2,
            },
            l2: CacheConfig {
                size_bytes: 64 << 10,
                assoc: 8,
                latency: 8,
            },
            llc: CacheConfig {
                size_bytes: 512 << 10,
                assoc: 16,
                latency: 20,
            },
            dram_latency: 120,
            dram_service_interval: 8,
            mshr_entries: 16,
            stride_prefetcher: true,
            stride_lookahead: 8,
            // Off by default: on random-access workloads a naive next-line
            // prefetcher only burns DRAM bandwidth (real parts throttle it;
            // our model has no such feedback).
            next_line_prefetcher: false,
        }
    }
}

impl Default for MemConfig {
    fn default() -> MemConfig {
        MemConfig::scaled_machine()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_counts() {
        let c = CacheConfig {
            size_bytes: 32 << 10,
            assoc: 8,
            latency: 4,
        };
        assert_eq!(c.sets(), 64);
    }

    #[test]
    fn paper_machine_matches_table2() {
        let m = MemConfig::paper_machine();
        assert_eq!(m.l2.size_bytes, 1 << 20);
        assert_eq!(m.llc.size_bytes, 22 << 20);
        assert!(m.dram_latency > m.llc.latency);
    }

    #[test]
    #[should_panic(expected = "whole sets")]
    fn bad_geometry_panics() {
        CacheConfig {
            size_bytes: 100,
            assoc: 3,
            latency: 1,
        }
        .sets();
    }
}

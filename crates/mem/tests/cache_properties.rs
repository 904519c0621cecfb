//! Property tests of the memory hierarchy against simple reference models.

use apt_mem::cache::{Cache, Evicted, HitInfo};
use apt_mem::mshr::{MshrEntry, MshrFile};
use apt_mem::{CacheConfig, Hierarchy, Level, MemConfig, ReqSource};
use apt_trace::TraceConfig;
use proptest::prelude::*;

/// One resident way of the reference model.
#[derive(Debug, Clone, Copy)]
struct RefWay {
    line: u64,
    from_prefetch: bool,
    used: bool,
}

/// Reference model: fully-explicit LRU per set, most recent way first,
/// carrying each way's prefetched and used bits.
struct RefCache {
    sets: Vec<Vec<RefWay>>,
    assoc: usize,
}

impl RefCache {
    fn new(sets: u64, assoc: usize) -> RefCache {
        RefCache {
            sets: vec![Vec::new(); sets as usize],
            assoc,
        }
    }
    fn set(&mut self, line: u64) -> &mut Vec<RefWay> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }
    fn access(&mut self, line: u64, demand: bool) -> HitInfo {
        let set = self.set(line);
        match set.iter().position(|w| w.line == line) {
            Some(p) => {
                let mut w = set.remove(p);
                let first_use_of_prefetch = demand && w.from_prefetch && !w.used;
                w.used |= demand;
                set.insert(0, w);
                HitInfo {
                    hit: true,
                    first_use_of_prefetch,
                }
            }
            None => HitInfo {
                hit: false,
                first_use_of_prefetch: false,
            },
        }
    }
    fn contains(&mut self, line: u64) -> bool {
        self.set(line).iter().any(|w| w.line == line)
    }
    fn fill(&mut self, line: u64, from_prefetch: bool) -> Evicted {
        let assoc = self.assoc;
        let set = self.set(line);
        if let Some(p) = set.iter().position(|w| w.line == line) {
            let w = set.remove(p);
            set.insert(0, w);
            return Evicted::None;
        }
        set.insert(
            0,
            RefWay {
                line,
                from_prefetch,
                used: false,
            },
        );
        if set.len() <= assoc {
            return Evicted::None;
        }
        let victim = set.pop().unwrap();
        if victim.from_prefetch && !victim.used {
            Evicted::UnusedPrefetch(victim.line)
        } else {
            Evicted::Normal(victim.line)
        }
    }
    fn resident_lines(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Reference model of the fill-buffer file: a plain list in allocation
/// order plus the occupancy statistics, integrated by hand.
struct RefMshr {
    entries: Vec<(u64, u64, ReqSource)>,
    capacity: usize,
    peak: usize,
    window_peak: usize,
    occ_cycles: u64,
    last_advance: u64,
}

impl RefMshr {
    fn advance(&mut self, now: u64) {
        if now > self.last_advance {
            self.occ_cycles += self.entries.len() as u64 * (now - self.last_advance);
            self.last_advance = now;
        }
    }
    fn allocate(&mut self, line: u64, ready: u64, source: ReqSource) -> bool {
        if self.entries.len() == self.capacity {
            return false;
        }
        self.entries.push((line, ready, source));
        self.peak = self.peak.max(self.entries.len());
        self.window_peak = self.window_peak.max(self.entries.len());
        true
    }
    fn drain(&mut self, now: u64) -> Vec<(u64, u64, ReqSource)> {
        let (done, left) = self.entries.iter().partition(|e| e.1 <= now);
        self.entries = left;
        done
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Demand loads: hit levels are consistent — after an access, the line
    /// is in L1, so an immediate re-access hits L1.
    #[test]
    fn reaccess_always_hits_l1(addrs in prop::collection::vec(0u64..(1 << 22), 1..200)) {
        let cfg = MemConfig {
            stride_prefetcher: false,
            next_line_prefetcher: false,
            ..MemConfig::scaled_machine()
        };
        let mut h = Hierarchy::new(&cfg);
        let mut now = 0;
        for a in addrs {
            let addr = 0x1000_0000 + a * 8;
            let r1 = h.demand_load(0x400000, addr, now);
            now += r1.latency;
            let r2 = h.demand_load(0x400000, addr, now);
            prop_assert_eq!(r2.served, Level::L1);
            now += r2.latency;
        }
    }

    /// Counter conservation: loads = hits at each level + fills + FB hits.
    #[test]
    fn load_counters_conserve(addrs in prop::collection::vec(0u64..(1 << 16), 1..300)) {
        let cfg = MemConfig::scaled_machine();
        let mut h = Hierarchy::new(&cfg);
        let mut now = 0;
        for a in addrs {
            let r = h.demand_load(0x400000, 0x1000_0000 + a * 64, now);
            now += r.latency + 1;
        }
        let c = h.counters;
        prop_assert_eq!(
            c.loads,
            c.l1_hits + c.l2_hits + c.llc_hits + c.demand_fills
                + c.fb_hits_swpf + c.fb_hits_other
        );
    }

    /// Prefetch → wait → demand is always an L1/L2 hit (never a fill).
    #[test]
    fn waited_prefetch_always_hits(lines in prop::collection::vec(0u64..(1 << 14), 1..100)) {
        let cfg = MemConfig {
            stride_prefetcher: false,
            next_line_prefetcher: false,
            ..MemConfig::scaled_machine()
        };
        let mut h = Hierarchy::new(&cfg);
        let mut now = 0;
        for l in lines {
            let addr = 0x1000_0000 + l * 64;
            h.sw_prefetch(0x400020, addr, now);
            now += cfg.dram_latency + cfg.dram_service_interval + 1;
            let r = h.demand_load(0x400000, addr, now);
            prop_assert!(r.served == Level::L1 || r.served == Level::L2,
                "served {:?}", r.served);
            now += r.latency;
        }
    }

    /// Prefetch-outcome conservation: on random interleavings of software
    /// prefetches and demand loads, every issued prefetch is classified
    /// into exactly one of timely / late / early / useless / redundant /
    /// dropped, and the classes reconcile with the PMU counters
    /// (`sw_pf_issued`, `fb_hits_swpf`, `sw_pf_dropped_full`).
    #[test]
    fn prefetch_outcomes_conserve_pmu_counters(
        ops in prop::collection::vec(
            (any::<bool>(), 0u64..(1 << 10), 0u64..500), 1..400),
        mshr_entries in 2usize..8,
    ) {
        let cfg = MemConfig {
            stride_prefetcher: false,
            next_line_prefetcher: false,
            mshr_entries,
            ..MemConfig::scaled_machine()
        };
        let mut h = Hierarchy::new(&cfg);
        h.set_trace(TraceConfig::outcomes());
        let mut now = 0;
        for (is_pf, l, gap) in ops {
            let addr = 0x1000_0000 + l * 64;
            if is_pf {
                h.sw_prefetch(0x400020, addr, now);
                now += 1 + gap;
            } else {
                let r = h.demand_load(0x400000, addr, now);
                now += r.latency + gap;
            }
        }
        h.drain(now + cfg.dram_latency + 1);
        let c = h.counters;
        let table = h.take_trace().outcomes;
        prop_assert!(table.is_conserved());
        let t = table.total;
        prop_assert_eq!(t.issued, c.sw_pf_issued);
        prop_assert_eq!(
            t.issued,
            t.timely + t.late + t.early + t.useless + t.redundant + t.dropped
        );
        prop_assert_eq!(t.late, c.fb_hits_swpf);
        prop_assert_eq!(t.dropped, c.sw_pf_dropped_full);
        prop_assert_eq!(t.redundant, c.sw_pf_redundant);
        // Early ⊆ PMU unused-prefetch evictions (the PMU counter also
        // includes hardware prefetches; here HW prefetchers are off, but
        // L1/L2 evictions of still-LLC-resident lines are not counted).
        prop_assert!(t.early <= c.pf_evicted_unused);
    }

    /// The DRAM bandwidth model never reorders: issuing the same trace
    /// twice gives identical latencies (determinism).
    #[test]
    fn hierarchy_is_deterministic(addrs in prop::collection::vec(0u64..(1 << 18), 1..200)) {
        let cfg = MemConfig::scaled_machine();
        let run = || {
            let mut h = Hierarchy::new(&cfg);
            let mut now = 0;
            let mut out = Vec::new();
            for &a in &addrs {
                let r = h.demand_load(0x400004, 0x1000_0000 + a * 8, now);
                out.push(r.latency);
                now += r.latency;
            }
            out
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The tag cache matches an independently written LRU model on random
    /// traces of demand and probe accesses, demand and prefetch fills and
    /// residency checks, at every associativity from direct-mapped to 16
    /// ways: every hit, first use of a prefetch, victim and victim kind,
    /// and the resident-line count after every operation.
    #[test]
    fn cache_matches_reference_lru(
        assoc in prop::sample::select(vec![1u64, 2, 4, 8, 16]),
        sets in prop::sample::select(vec![1u64, 2, 4, 8]),
        ops in prop::collection::vec((0u8..5, any::<u64>()), 1..600),
    ) {
        let cfg = CacheConfig { size_bytes: sets * assoc * 64, assoc: assoc as u32, latency: 1 };
        let mut c = Cache::new(&cfg);
        let mut r = RefCache::new(cfg.sets(), assoc as usize);
        // A few more lines per set than it has ways, so sets fill, hits
        // land at every recency and fills evict.
        let lines = sets * (assoc + 3);
        for (i, (op, raw)) in ops.into_iter().enumerate() {
            let line = raw % lines;
            match op {
                0 | 1 => {
                    let demand = op == 0;
                    prop_assert_eq!(c.access(line, demand), r.access(line, demand),
                        "op {} access({}, {})", i, line, demand);
                }
                2 | 3 => {
                    let from_prefetch = op == 3;
                    prop_assert_eq!(c.fill(line, from_prefetch), r.fill(line, from_prefetch),
                        "op {} fill({}, {})", i, line, from_prefetch);
                }
                _ => prop_assert_eq!(c.contains(line), r.contains(line),
                    "op {} contains({})", i, line),
            }
            prop_assert_eq!(c.resident_lines(), r.resident_lines(), "op {}", i);
        }
    }

    /// The fill-buffer file matches a plain list on random allocate, find,
    /// drain and window-close calls at non-decreasing cycles: the same
    /// entries arrive in allocation order, and occupancy, both peaks and
    /// the occupancy-time integral agree after every call.
    #[test]
    fn mshr_matches_reference_list(
        capacity in 1usize..9,
        ops in prop::collection::vec((0u8..5, 0u64..24, 0u64..200, 0u64..40), 1..400),
    ) {
        let mut m = MshrFile::new(capacity);
        let mut r = RefMshr {
            entries: Vec::new(),
            capacity,
            peak: 0,
            window_peak: 0,
            occ_cycles: 0,
            last_advance: 0,
        };
        let mut now = 0u64;
        for (i, (op, line, latency, step)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    // Allocation is only legal for a line not in flight.
                    if r.entries.iter().all(|e| e.0 != line) {
                        let source = if op == 0 { ReqSource::SwPrefetch } else { ReqSource::HwPrefetch };
                        // Every entry-count change is preceded by an advance,
                        // as `Hierarchy` does.
                        m.advance(now);
                        r.advance(now);
                        let ok = m.allocate(MshrEntry { line, ready: now + latency, source });
                        prop_assert_eq!(ok, r.allocate(line, now + latency, source), "op {}", i);
                    }
                }
                2 => {
                    let got = m.find(line).map(|e| (e.line, e.ready, e.source));
                    let want = r.entries.iter().find(|e| e.0 == line).copied();
                    prop_assert_eq!(got, want, "op {} find({})", i, line);
                }
                3 => {
                    m.advance(now);
                    r.advance(now);
                    let got: Vec<(u64, u64, ReqSource)> = std::iter::from_fn(|| m.pop_ready(now))
                        .map(|e| (e.line, e.ready, e.source))
                        .collect();
                    prop_assert_eq!(got, r.drain(now), "op {} drain at {}", i, now);
                }
                _ => {
                    m.advance(now);
                    r.advance(now);
                    let want = r.window_peak;
                    r.window_peak = r.entries.len();
                    prop_assert_eq!(m.take_window_peak(), want, "op {}", i);
                }
            }
            prop_assert_eq!(m.occupancy(), r.entries.len(), "op {}", i);
            prop_assert_eq!(m.has_free(), r.entries.len() < capacity, "op {}", i);
            prop_assert_eq!(m.peak(), r.peak, "op {}", i);
            prop_assert_eq!(m.occ_cycles(), r.occ_cycles, "op {}", i);
            now += step;
        }
    }
}

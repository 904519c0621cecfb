//! The event ring: where structured [`TraceEvent`]s go.
//!
//! The hot loop records into a concrete ring (no `dyn` in the fast path);
//! `aptgetsim run --trace-out` exports what it holds.

use crate::event::TraceEvent;

/// Fixed-capacity ring buffer keeping the **latest** `capacity` events.
///
/// Allocates once at construction; recording never allocates, so it is safe
/// to leave enabled during long simulations — old events are overwritten.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<TraceEvent>,
    capacity: usize,
    /// Next write position when the ring has wrapped.
    head: usize,
    offered: u64,
}

impl RingRecorder {
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            buf: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            head: 0,
            offered: 0,
        }
    }

    /// Receives one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, ev: TraceEvent) {
        self.offered += 1;
        if self.buf.len() < self.capacity {
            self.buf.push(ev);
        } else {
            self.buf[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
        }
    }

    /// Total events offered to the ring, including overwritten ones.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Number of events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events dropped because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.offered - self.buf.len() as u64
    }

    /// Events in arrival order, oldest first.
    pub fn iter_in_order(&self) -> impl Iterator<Item = &TraceEvent> {
        let (newer, older) = self.buf.split_at(self.head.min(self.buf.len()));
        older.iter().chain(newer.iter())
    }

    /// Drains into a plain `Vec`, oldest first, leaving the ring empty.
    pub fn take_in_order(&mut self) -> Vec<TraceEvent> {
        let out: Vec<TraceEvent> = self.iter_in_order().copied().collect();
        self.buf.clear();
        self.head = 0;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(cycle: u64) -> TraceEvent {
        TraceEvent {
            cycle,
            pc: 0x40,
            line: cycle,
            kind: EventKind::DemandFill,
        }
    }

    #[test]
    fn ring_keeps_latest_in_order() {
        let mut r = RingRecorder::new(3);
        for c in 0..7 {
            r.record(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.offered(), 7);
        assert_eq!(r.dropped(), 4);
        let cycles: Vec<u64> = r.iter_in_order().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![4, 5, 6]);
        assert_eq!(
            r.take_in_order()
                .iter()
                .map(|e| e.cycle)
                .collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn ring_below_capacity() {
        let mut r = RingRecorder::new(8);
        r.record(ev(1));
        r.record(ev(2));
        let cycles: Vec<u64> = r.iter_in_order().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![1, 2]);
        assert_eq!(r.dropped(), 0);
    }
}

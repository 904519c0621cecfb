//! Functional memory: a flat byte image with a bump allocator.
//!
//! Workload data (graphs, tables, key arrays) is allocated here and its
//! simulated addresses are passed to kernels as function arguments. The
//! image starts at [`DATA_BASE`], well away from the synthetic text section
//! of `apt-lir::pcmap`.

use std::fmt;

/// Base address of the data segment.
pub const DATA_BASE: u64 = 0x1000_0000;

/// An out-of-bounds or misaligned access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    pub addr: u64,
    pub width: u64,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "memory fault at {:#x} (width {})", self.addr, self.width)
    }
}

impl std::error::Error for MemFault {}

/// A flat, bump-allocated memory image.
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    bytes: Vec<u8>,
}

impl MemImage {
    /// Creates an empty image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    /// Total allocated bytes (the workload's data footprint).
    pub fn footprint(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Allocates `len` bytes aligned to `align` (a power of two), returning
    /// the simulated address. Contents are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two.
    pub fn alloc(&mut self, len: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let cur = self.bytes.len() as u64;
        let aligned = (cur + align - 1) & !(align - 1);
        self.bytes.resize((aligned + len) as usize, 0);
        DATA_BASE + aligned
    }

    /// Allocates and initialises a `u32` array; returns its base address.
    pub fn alloc_u32_slice(&mut self, data: &[u32]) -> u64 {
        let base = self.alloc(data.len() as u64 * 4, 64);
        for (i, &v) in data.iter().enumerate() {
            self.write_u32(base + i as u64 * 4, v).expect("in bounds");
        }
        base
    }

    /// Allocates and initialises a `u64` array; returns its base address.
    pub fn alloc_u64_slice(&mut self, data: &[u64]) -> u64 {
        let base = self.alloc(data.len() as u64 * 8, 64);
        for (i, &v) in data.iter().enumerate() {
            self.write_u64(base + i as u64 * 8, v).expect("in bounds");
        }
        base
    }

    /// Allocates and initialises an `f64` array; returns its base address.
    pub fn alloc_f64_slice(&mut self, data: &[f64]) -> u64 {
        let base = self.alloc(data.len() as u64 * 8, 64);
        for (i, &v) in data.iter().enumerate() {
            self.write_u64(base + i as u64 * 8, v.to_bits())
                .expect("in bounds");
        }
        base
    }

    /// Offset of `addr` in the image. An address below [`DATA_BASE`]
    /// wraps to an offset past any image's end, so the one slice check
    /// that refuses the end refuses it too.
    #[inline]
    fn offset(addr: u64) -> Option<usize> {
        usize::try_from(addr.wrapping_sub(DATA_BASE)).ok()
    }

    /// Reads `width` (1/2/4/8) bytes, little-endian, zero-extended. An
    /// access outside the image, or of any other width, is a
    /// [`MemFault`].
    ///
    /// Every interpreter load goes through here, detailed or functional,
    /// so each access is checked once: the image from `addr` on, then a
    /// fixed-width chunk of it, which compiles to a plain load.
    #[inline]
    pub fn read(&self, addr: u64, width: u64) -> Result<u64, MemFault> {
        let b = MemImage::offset(addr).and_then(|off| self.bytes.get(off..));
        b.and_then(|b| match width {
            1 => b.first().map(|&v| v as u64),
            2 => b.first_chunk().map(|c| u16::from_le_bytes(*c) as u64),
            4 => b.first_chunk().map(|c| u32::from_le_bytes(*c) as u64),
            8 => b.first_chunk().map(|c| u64::from_le_bytes(*c)),
            _ => None,
        })
        .ok_or(MemFault { addr, width })
    }

    /// Writes the low `width` (1/2/4/8) bytes of `value`, little-endian,
    /// with [`MemImage::read`]'s one check and faults.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64, width: u64) -> Result<(), MemFault> {
        let b = MemImage::offset(addr).and_then(|off| self.bytes.get_mut(off..));
        b.and_then(|b| match width {
            1 => b.first_mut().map(|d| *d = value as u8),
            2 => b
                .first_chunk_mut()
                .map(|d| *d = (value as u16).to_le_bytes()),
            4 => b
                .first_chunk_mut()
                .map(|d| *d = (value as u32).to_le_bytes()),
            8 => b.first_chunk_mut().map(|d| *d = value.to_le_bytes()),
            _ => None,
        })
        .ok_or(MemFault { addr, width })
    }

    /// Reads a `u32`.
    pub fn read_u32(&self, addr: u64) -> Result<u32, MemFault> {
        self.read(addr, 4).map(|v| v as u32)
    }

    /// Reads a `u64`.
    pub fn read_u64(&self, addr: u64) -> Result<u64, MemFault> {
        self.read(addr, 8)
    }

    /// Reads an `f64`.
    pub fn read_f64(&self, addr: u64) -> Result<f64, MemFault> {
        self.read(addr, 8).map(f64::from_bits)
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, addr: u64, v: u32) -> Result<(), MemFault> {
        self.write(addr, v as u64, 4)
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, addr: u64, v: u64) -> Result<(), MemFault> {
        self.write(addr, v, 8)
    }

    /// Reads back a `u32` array (for result checking).
    pub fn read_u32_slice(&self, base: u64, len: usize) -> Result<Vec<u32>, MemFault> {
        (0..len)
            .map(|i| self.read_u32(base + i as u64 * 4))
            .collect()
    }

    /// Reads back a `u64` array (for result checking).
    pub fn read_u64_slice(&self, base: u64, len: usize) -> Result<Vec<u64>, MemFault> {
        (0..len)
            .map(|i| self.read_u64(base + i as u64 * 8))
            .collect()
    }

    /// Reads back an `f64` array (for result checking).
    pub fn read_f64_slice(&self, base: u64, len: usize) -> Result<Vec<f64>, MemFault> {
        (0..len)
            .map(|i| self.read_f64(base + i as u64 * 8))
            .collect()
    }

    /// The raw data segment (address [`DATA_BASE`] onwards).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// FNV-1a digest of the full data segment — a cheap architectural
    /// fingerprint for differential testing: two executions that leave
    /// memory in the same state produce the same digest.
    pub fn digest(&self) -> u64 {
        apt_metrics::fnv1a(&self.bytes)
    }
}

/// Architectural runs of the interpreter (`apt_lir::eval::run_function`,
/// the sampled driver's cold fast-forward) use the image directly, with
/// the bounds behaviour [`crate::Machine`]'s timed accesses use too.
/// Nothing but load and store values observes the image, so those runs
/// skip injected prefetch slices.
impl apt_lir::eval::Memory for MemImage {
    const ARCHITECTURAL: bool = true;

    #[inline]
    fn read(&mut self, _pc: apt_lir::Pc, addr: u64, width: u64) -> Option<u64> {
        MemImage::read(self, addr, width).ok()
    }

    #[inline]
    fn write(&mut self, _pc: apt_lir::Pc, addr: u64, value: u64, width: u64) -> Option<()> {
        MemImage::write(self, addr, value, width).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = MemImage::new();
        let a = m.alloc(10, 64);
        let b = m.alloc(10, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 10);
        assert!(a >= DATA_BASE);
    }

    #[test]
    fn rw_round_trip() {
        let mut m = MemImage::new();
        let a = m.alloc(64, 8);
        m.write(a, 0xdead_beef_cafe, 8).unwrap();
        assert_eq!(m.read(a, 8).unwrap(), 0xdead_beef_cafe);
        m.write(a + 8, 0x1234_5678, 4).unwrap();
        assert_eq!(m.read(a + 8, 4).unwrap(), 0x1234_5678);
        // Narrow read is zero-extended.
        assert_eq!(m.read(a + 8, 2).unwrap(), 0x5678);
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m = MemImage::new();
        let a = m.alloc(8, 8);
        assert!(m.read(a + 8, 1).is_err());
        assert!(m.read(DATA_BASE - 4, 4).is_err());
        assert!(m.write(a + 4, 0, 8).is_err()); // Straddles the end.
    }

    #[test]
    fn slice_helpers_round_trip() {
        let mut m = MemImage::new();
        let xs = [3u32, 1, 4, 1, 5];
        let base = m.alloc_u32_slice(&xs);
        assert_eq!(m.read_u32_slice(base, 5).unwrap(), xs);
        let ys = [1.5f64, -2.25];
        let fb = m.alloc_f64_slice(&ys);
        assert_eq!(m.read_f64_slice(fb, 2).unwrap(), ys);
    }

    #[test]
    fn footprint_tracks_allocations() {
        let mut m = MemImage::new();
        assert_eq!(m.footprint(), 0);
        m.alloc(100, 64);
        assert!(m.footprint() >= 100);
    }

    #[test]
    fn digest_tracks_contents() {
        let mut a = MemImage::new();
        let pa = a.alloc(64, 8);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.write(pa, 1, 8).unwrap();
        assert_ne!(a.digest(), b.digest());
        a.write(pa, 1, 8).unwrap();
        assert_eq!(a.digest(), b.digest());
    }

    #[test]
    fn memory_trait_matches_inherent_semantics() {
        use apt_lir::eval::Memory;
        use apt_lir::Pc;
        let mut m = MemImage::new();
        let a = m.alloc(16, 8);
        Memory::write(&mut m, Pc(0), a, 0xabcd, 4).unwrap();
        assert_eq!(Memory::read(&mut m, Pc(0), a, 4), Some(0xabcd));
        assert_eq!(Memory::read(&mut m, Pc(0), a + 16, 4), None);
        assert_eq!(Memory::write(&mut m, Pc(0), a + 16, 0, 4), None);
    }
}

//! Property tests of the image accessors every interpreter load and store
//! goes through: on generated images and addresses, `MemImage::read` and
//! `MemImage::write`, and the `eval::Memory` methods built on them, agree
//! with a byte-wise reference model, faults included, and never panic.

use apt_cpu::memimg::{MemFault, MemImage, DATA_BASE};
use apt_lir::eval::Memory;
use apt_lir::Pc;
use proptest::prelude::*;

/// Offset of byte `i` of an access at `addr` into an image of `len`
/// bytes, if that byte is inside it.
fn byte_offset(addr: u64, i: u64, len: usize) -> Option<usize> {
    let off = addr.checked_add(i)?.checked_sub(DATA_BASE)?;
    (off < len as u64).then_some(off as usize)
}

/// Offsets of every byte of the access, or the fault that refuses it.
fn byte_offsets(addr: u64, width: u64, len: usize) -> Result<Vec<usize>, MemFault> {
    (0..width)
        .map(|i| byte_offset(addr, i, len))
        .collect::<Option<_>>()
        .ok_or(MemFault { addr, width })
}

fn model_read(bytes: &[u8], addr: u64, width: u64) -> Result<u64, MemFault> {
    let offs = byte_offsets(addr, width, bytes.len())?;
    Ok(offs
        .iter()
        .enumerate()
        .fold(0, |v, (i, &off)| v | (bytes[off] as u64) << (8 * i)))
}

fn model_write(bytes: &mut [u8], addr: u64, value: u64, width: u64) -> Result<(), MemFault> {
    for (i, off) in byte_offsets(addr, width, bytes.len())?
        .into_iter()
        .enumerate()
    {
        bytes[off] = (value >> (8 * i)) as u8;
    }
    Ok(())
}

/// An image holding exactly `data` at [`DATA_BASE`].
fn image(data: &[u8]) -> MemImage {
    let mut m = MemImage::new();
    assert_eq!(m.alloc(data.len() as u64, 1), DATA_BASE);
    for (i, &b) in data.iter().enumerate() {
        m.write(DATA_BASE + i as u64, b as u64, 1).unwrap();
    }
    assert_eq!(m.as_bytes(), data);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Every width at addresses around the image's start and end (±16
    /// bytes), and at 0 and `u64::MAX`: the same value, the same
    /// `MemFault { addr, width }`, the same bytes after a write.
    #[test]
    fn accessors_match_a_bytewise_model(
        data in prop::collection::vec(any::<u8>(), 0..=300),
        near in 0u8..4,
        delta in 0u64..=32,
        width in prop::sample::select(vec![1u64, 2, 4, 8]),
        value in any::<u64>(),
    ) {
        let end = DATA_BASE + data.len() as u64;
        let addr = match near {
            0 => DATA_BASE - 16 + delta,
            1 => end - 16 + delta,
            2 => 0,
            _ => u64::MAX,
        };
        let mut img = image(&data);

        let want = model_read(&data, addr, width);
        prop_assert_eq!(img.read(addr, width), want, "read {:#x}/{}", addr, width);
        prop_assert_eq!(Memory::read(&mut img, Pc(0), addr, width), want.ok());

        let mut model = data.clone();
        let want = model_write(&mut model, addr, value, width);
        let mut inherent = img.clone();
        prop_assert_eq!(inherent.write(addr, value, width), want, "write {:#x}/{}", addr, width);
        prop_assert_eq!(inherent.as_bytes(), &model[..]);
        prop_assert_eq!(Memory::write(&mut img, Pc(0), addr, value, width), want.ok());
        prop_assert_eq!(img.as_bytes(), &model[..]);
    }
}

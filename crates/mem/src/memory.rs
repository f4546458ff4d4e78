//! Sparse paged target memory behind a two-level page table.

/// Size of one memory page in bytes.
pub const PAGE_BYTES: u32 = 4096;

/// Pages per leaf of the page table: the low 10 bits of a page number
/// pick the page within its leaf, the top 10 bits the directory slot.
const LEAF_PAGES: usize = 1024;

type Page = Box<[u8; PAGE_BYTES as usize]>;

/// Sparse byte-addressable target memory.
///
/// Pages are allocated on first write; reads of untouched memory return
/// zero, which lets workloads run without an explicit loader zeroing BSS.
/// All multi-byte accesses are little-endian and may straddle page
/// boundaries (and wrap from the top of the address space to zero).
///
/// Pages are found through a two-level page table: a directory grown on
/// demand, whose slots hold lazily allocated leaves of 1,024 pages, so an
/// access costs two indexed loads and hashes nothing.
///
/// # Example
///
/// ```
/// use fastsim_mem::Memory;
///
/// let mut m = Memory::new();
/// m.write_u32(0x1000, 0xdead_beef);
/// assert_eq!(m.read_u32(0x1000), 0xdead_beef);
/// assert_eq!(m.read_u8(0x1003), 0xde);
/// assert_eq!(m.read_u32(0x9999_0000), 0, "untouched memory reads as zero");
/// ```
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Leaves indexed by the top bits of the page number.
    dir: Vec<Option<Box<[Option<Page>]>>>,
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of pages written so far.
    pub fn page_count(&self) -> usize {
        self.dir.iter().flatten().flat_map(|leaf| leaf.iter().flatten()).count()
    }

    /// The page holding `addr`, if it has been written.
    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        let n = (addr / PAGE_BYTES) as usize;
        self.dir.get(n / LEAF_PAGES)?.as_ref()?[n % LEAF_PAGES].as_ref()
    }

    /// The page holding `addr`, allocated (zeroed) on first write.
    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let n = (addr / PAGE_BYTES) as usize;
        let d = n / LEAF_PAGES;
        if d >= self.dir.len() {
            self.dir.resize_with(d + 1, || None);
        }
        let leaf = self.dir[d].get_or_insert_with(|| vec![None; LEAF_PAGES].into_boxed_slice());
        leaf[n % LEAF_PAGES].get_or_insert_with(|| Box::new([0; PAGE_BYTES as usize]))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr).map_or(0, |page| page[(addr % PAGE_BYTES) as usize])
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr % PAGE_BYTES) as usize] = value;
    }

    /// Reads `N` little-endian bytes starting at `addr`.
    #[inline]
    pub fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let mut out = [0u8; N];
        // Fast path: the whole access falls inside one page.
        let off = (addr % PAGE_BYTES) as usize;
        if off + N <= PAGE_BYTES as usize {
            if let Some(page) = self.page(addr) {
                out.copy_from_slice(&page[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    #[inline]
    pub fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = (addr % PAGE_BYTES) as usize;
        if off + N <= PAGE_BYTES as usize {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads a little-endian `u16`.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u32`.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: u32) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: u32, value: u64) {
        self.write_bytes(addr, value.to_le_bytes());
    }

    /// Reads an `f64` (bit pattern stored little-endian).
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64`.
    pub fn write_f64(&mut self, addr: u32, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_slice(&mut self, addr: u32, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads `len` bytes starting at `addr` into a new vector.
    pub fn read_vec(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_u8(addr.wrapping_add(i as u32))).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsim_prng::{for_each_case, Rng};
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn zero_before_touch() {
        let m = Memory::new();
        assert_eq!(m.read_u64(12345), 0);
        assert_eq!(m.page_count(), 0);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = PAGE_BYTES - 2; // straddles pages 0 and 1
        m.write_u32(addr, 0x1122_3344);
        assert_eq!(m.read_u32(addr), 0x1122_3344);
        assert_eq!(m.read_u8(addr), 0x44);
        assert_eq!(m.read_u8(addr + 3), 0x11);
        assert_eq!(m.page_count(), 2);
    }

    #[test]
    fn widths_agree() {
        let mut m = Memory::new();
        m.write_u64(0x100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(0x100), 0x0506_0708);
        assert_eq!(m.read_u32(0x104), 0x0102_0304);
        assert_eq!(m.read_u16(0x100), 0x0708);
    }

    #[test]
    fn f64_round_trip() {
        let mut m = Memory::new();
        m.write_f64(0x200, -1234.5678);
        assert_eq!(m.read_f64(0x200), -1234.5678);
    }

    #[test]
    fn slice_round_trip() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_slice(PAGE_BYTES - 100, &data);
        assert_eq!(m.read_vec(PAGE_BYTES - 100, 256), data);
    }

    #[test]
    fn random_read_back() {
        let mut rng = Rng::new(0x3e3);
        for _ in 0..500 {
            let addr = rng.range_u32(0..u32::MAX - 8);
            let v = rng.next_u64();
            let mut m = Memory::new();
            m.write_u64(addr, v);
            assert_eq!(m.read_u64(addr), v, "addr {addr:#x}");
        }
    }

    /// Thousands of mixed-width reads and writes on one `Memory`, aimed at
    /// page boundaries, the top page and the u32 wrap, agree with a byte
    /// model; only writes allocate pages.
    #[test]
    fn random_accesses_match_a_byte_model() {
        // Pages on either side of the low end, of a 1,024-page boundary,
        // in the middle and at the top of the address space.
        const PAGES: [u32; 8] = [0, 1, 2, 1_023, 1_024, 0x8_0000, 0xf_fffe, 0xf_ffff];
        for_each_case(0x3e30de1, 64, |seed, rng| {
            let mut m = Memory::new();
            let mut model: BTreeMap<u32, u8> = BTreeMap::new();
            for _ in 0..3_000 {
                let width = *rng.pick(&[1u32, 2, 4, 8]);
                let page = *rng.pick(&PAGES) * PAGE_BYTES;
                let addr = match rng.range_u32(0..5) {
                    0 => page.wrapping_add(rng.range_u32(0..16)).wrapping_sub(8),
                    1 => page + rng.range_u32(0..PAGE_BYTES),
                    2 => u32::MAX - rng.range_u32(0..PAGE_BYTES),
                    3 => u32::MAX - rng.range_u32(0..8),
                    _ => rng.next_u32(),
                };
                if rng.next_bool() {
                    let v = rng.next_u64() >> (64 - 8 * width);
                    match width {
                        1 => m.write_u8(addr, v as u8),
                        2 => m.write_u16(addr, v as u16),
                        4 => m.write_u32(addr, v as u32),
                        _ => m.write_u64(addr, v),
                    }
                    for i in 0..width {
                        model.insert(addr.wrapping_add(i), (v >> (8 * i)) as u8);
                    }
                } else {
                    let got = match width {
                        1 => u64::from(m.read_u8(addr)),
                        2 => u64::from(m.read_u16(addr)),
                        4 => u64::from(m.read_u32(addr)),
                        _ => m.read_u64(addr),
                    };
                    let want = (0..width).fold(0u64, |acc, i| {
                        let b = model.get(&addr.wrapping_add(i)).copied().unwrap_or(0);
                        acc | u64::from(b) << (8 * i)
                    });
                    assert_eq!(got, want, "seed {seed:#x}: {width}-byte read at {addr:#x}");
                }
            }
            let written: BTreeSet<u32> = model.keys().map(|a| a / PAGE_BYTES).collect();
            assert_eq!(m.page_count(), written.len(), "seed {seed:#x}");
        });
    }

    #[test]
    fn random_byte_decomposition() {
        let mut rng = Rng::new(0xb17e5);
        for _ in 0..500 {
            let addr = rng.range_u32(0..u32::MAX - 4);
            let v = rng.next_u32();
            let mut m = Memory::new();
            m.write_u32(addr, v);
            let bytes = v.to_le_bytes();
            for i in 0..4u32 {
                assert_eq!(m.read_u8(addr + i), bytes[i as usize], "addr {addr:#x}");
            }
        }
    }
}

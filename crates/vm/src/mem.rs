//! Guest address space: disjoint permissioned regions backed by
//! zero-on-demand pages.

use std::fmt;

/// Access permissions of a mapped region.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Perm {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perm {
    /// Read-only data.
    pub const R: Perm = Perm {
        r: true,
        w: false,
        x: false,
    };
    /// Read-write data.
    pub const RW: Perm = Perm {
        r: true,
        w: true,
        x: false,
    };
    /// Read-execute code.
    pub const RX: Perm = Perm {
        r: true,
        w: false,
        x: true,
    };
    /// Writable code (JIT regions).
    pub const RWX: Perm = Perm {
        r: true,
        w: true,
        x: true,
    };
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.r { 'r' } else { '-' },
            if self.w { 'w' } else { '-' },
            if self.x { 'x' } else { '-' }
        )
    }
}

/// The kind of access that faulted.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Access {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Fetch,
}

/// A memory fault: unmapped address or permission violation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// Faulting guest address.
    pub addr: u64,
    /// Access kind.
    pub access: Access,
    /// Whether the address was mapped at all (false) or mapped without the
    /// needed permission (true).
    pub mapped: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match self.access {
            Access::Read => "read",
            Access::Write => "write",
            Access::Fetch => "fetch",
        };
        if self.mapped {
            write!(f, "permission violation on {what} at {:#x}", self.addr)
        } else {
            write!(f, "unmapped {what} at {:#x}", self.addr)
        }
    }
}

impl std::error::Error for MemFault {}

/// Size of one backing page. Pages are counted from each region's start.
const PAGE: usize = 4096;

type Page = Box<[u8; PAGE]>;

struct Region {
    start: u64,
    size: u64,
    perm: Perm,
    label: String,
    /// One slot per `PAGE` bytes of the region, up to the highest page
    /// ever written, so mapping or growing a region allocates nothing. A
    /// page is `None` until first written; reads of a `None` page, or of
    /// one past the table's end, see zeros.
    pages: Vec<Option<Page>>,
}

impl Region {
    fn end(&self) -> u64 {
        self.start + self.size
    }

    /// Copies the bytes at region offset `off` into `buf`; pages never
    /// written read as zeros and stay unbacked.
    #[inline]
    fn load(&self, off: usize, buf: &mut [u8]) {
        let at = off % PAGE;
        if at + buf.len() > PAGE {
            return self.load_straddling(off, buf);
        }
        match self.pages.get(off / PAGE) {
            Some(Some(page)) => buf.copy_from_slice(&page[at..at + buf.len()]),
            _ => buf.fill(0),
        }
    }

    /// The byte at region offset `off` (0 on a page never written).
    #[inline]
    fn byte(&self, off: usize) -> u8 {
        match self.pages.get(off / PAGE) {
            Some(Some(page)) => page[off % PAGE],
            _ => 0,
        }
    }

    /// [`Region::load`] of a fixed width, so an in-page read is one
    /// fixed-size copy.
    #[inline]
    fn load_n<const N: usize>(&self, off: usize) -> [u8; N] {
        let mut buf = [0u8; N];
        let at = off % PAGE;
        if at + N > PAGE {
            self.load_straddling(off, &mut buf);
        } else if let Some(Some(page)) = self.pages.get(off / PAGE) {
            buf.copy_from_slice(&page[at..at + N]);
        }
        buf
    }

    /// [`Region::store`] of a fixed width: one fixed-size copy into an
    /// already backed page, else the general path.
    #[inline]
    fn store_n<const N: usize>(&mut self, off: usize, bytes: [u8; N]) {
        let at = off % PAGE;
        match self.pages.get_mut(off / PAGE) {
            Some(Some(page)) if at + N <= PAGE => page[at..at + N].copy_from_slice(&bytes),
            _ => self.store_backing(off, &bytes),
        }
    }

    /// [`Region::store`] where it may have to back a page.
    #[cold]
    #[inline(never)]
    fn store_backing(&mut self, off: usize, bytes: &[u8]) {
        self.store(off, bytes);
    }

    /// Copies `bytes` to region offset `off`, backing only the pages they
    /// touch (and extending the table to reach them).
    #[inline]
    fn store(&mut self, off: usize, bytes: &[u8]) {
        let at = off % PAGE;
        if at + bytes.len() > PAGE {
            return self.store_straddling(off, bytes);
        }
        let idx = off / PAGE;
        if idx >= self.pages.len() {
            self.pages.resize_with(idx + 1, || None);
        }
        let page = self.pages[idx].get_or_insert_with(zeroed_page);
        page[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// The slow path of [`Region::load`]: one in-page load per page.
    #[cold]
    fn load_straddling(&self, off: usize, buf: &mut [u8]) {
        let mut done = 0;
        while done < buf.len() {
            let n = (PAGE - (off + done) % PAGE).min(buf.len() - done);
            self.load(off + done, &mut buf[done..done + n]);
            done += n;
        }
    }

    /// The slow path of [`Region::store`]: one in-page store per page.
    #[cold]
    fn store_straddling(&mut self, off: usize, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let n = (PAGE - (off + done) % PAGE).min(bytes.len() - done);
            self.store(off + done, &bytes[done..done + n]);
            done += n;
        }
    }
}

fn zeroed_page() -> Page {
    vec![0u8; PAGE]
        .into_boxed_slice()
        .try_into()
        .expect("PAGE-sized buffer")
}

/// Number of slots in the region-hint table; a guest page hints slot
/// `page % HINT_SLOTS`.
const HINT_SLOTS: usize = 64;

/// Sparse guest memory.
///
/// Regions are mapped explicitly with [`Memory::map`]; any access outside a
/// region faults, which is how wild pointers in the guest surface as
/// [`MemFault`]s instead of silent corruption.
pub struct Memory {
    regions: Vec<Region>,
    /// The region index last found for each guest page (direct-mapped by
    /// page number). A hint is trusted only if that region still contains
    /// the address; regions are disjoint, so such a region is the right
    /// one even after `map`, `grow` or `protect` left the index stale.
    hints: [u32; HINT_SLOTS],
    /// Bumped whenever executable bytes are written, so instruction-decode
    /// caches can invalidate (needed for JIT-generated code).
    code_generation: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            regions: Vec::new(),
            hints: [0; HINT_SLOTS],
            code_generation: 0,
        }
    }
}

impl fmt::Debug for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Memory");
        d.field("regions", &self.regions.len());
        d.field("code_generation", &self.code_generation);
        d.finish()
    }
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Maps `[start, start+size)` with the given permissions.
    ///
    /// # Errors
    ///
    /// Returns `Err` (with the overlapping region's label) if the range
    /// overlaps an existing region or is empty.
    pub fn map(
        &mut self,
        start: u64,
        size: u64,
        perm: Perm,
        label: impl Into<String>,
    ) -> Result<(), String> {
        if size == 0 {
            return Err("cannot map empty region".into());
        }
        let end = start
            .checked_add(size)
            .ok_or_else(|| "region wraps the address space".to_string())?;
        for r in &self.regions {
            if start < r.end() && r.start < end {
                return Err(format!("overlaps region `{}`", r.label));
            }
        }
        let idx = self
            .regions
            .partition_point(|r| r.start < start);
        self.regions.insert(
            idx,
            Region {
                start,
                size,
                perm,
                label: label.into(),
                pages: Vec::new(),
            },
        );
        Ok(())
    }

    /// Changes the permissions of the region starting exactly at `start`.
    pub fn protect(&mut self, start: u64, perm: Perm) -> Result<(), String> {
        let r = self
            .regions
            .iter_mut()
            .find(|r| r.start == start)
            .ok_or_else(|| format!("no region at {start:#x}"))?;
        if r.perm.x || perm.x {
            self.code_generation += 1;
        }
        r.perm = perm;
        Ok(())
    }

    /// Extends the region starting at `start` by `delta` bytes (sbrk-style).
    ///
    /// # Errors
    ///
    /// Fails if the region does not exist or the extension would overlap
    /// the next region.
    pub fn grow(&mut self, start: u64, delta: u64) -> Result<(), String> {
        let idx = self
            .regions
            .iter()
            .position(|r| r.start == start)
            .ok_or_else(|| format!("no region at {start:#x}"))?;
        let new_end = self.regions[idx].end() + delta;
        if let Some(next) = self.regions.get(idx + 1) {
            if new_end > next.start {
                return Err(format!("growth collides with `{}`", next.label));
            }
        }
        self.regions[idx].size += delta;
        Ok(())
    }

    /// Generation counter for executable contents; bump means any decoded
    /// instruction cache must be flushed.
    pub fn code_generation(&self) -> u64 {
        self.code_generation
    }

    /// Whether `[addr, addr+len)` is fully inside one mapped region.
    pub fn is_mapped(&self, addr: u64, len: u64) -> bool {
        self.find(addr)
            .map(|i| addr + len <= self.regions[i].end())
            .unwrap_or(false)
    }

    /// The label of the region containing `addr`, if mapped.
    pub fn region_label(&self, addr: u64) -> Option<&str> {
        self.find(addr).map(|i| self.regions[i].label.as_str())
    }

    fn find(&self, addr: u64) -> Option<usize> {
        let idx = self.regions.partition_point(|r| r.start <= addr);
        if idx == 0 {
            return None;
        }
        let r = &self.regions[idx - 1];
        (addr < r.end()).then_some(idx - 1)
    }

    /// [`Memory::find`] through the page's hint: the hinted region if it
    /// contains `addr`, else a binary search whose hit re-hints the page.
    #[inline]
    fn find_hinted(&mut self, addr: u64) -> Option<usize> {
        let slot = (addr / PAGE as u64) as usize % HINT_SLOTS;
        let hint = self.hints[slot] as usize;
        if let Some(r) = self.regions.get(hint) {
            if r.start <= addr && addr < r.end() {
                return Some(hint);
            }
        }
        let idx = self.find(addr)?;
        // A truncated index would only be a hint that fails the check above.
        self.hints[slot] = idx as u32;
        Some(idx)
    }

    #[inline]
    fn access(
        &mut self,
        addr: u64,
        len: u64,
        access: Access,
    ) -> Result<(&mut Region, usize), MemFault> {
        let fault = |mapped| MemFault {
            addr,
            access,
            mapped,
        };
        let idx = self.find_hinted(addr).ok_or(fault(false))?;
        let r = &self.regions[idx];
        if addr + len > r.end() {
            return Err(fault(false));
        }
        let ok = match access {
            Access::Read => r.perm.r,
            Access::Write => r.perm.w,
            Access::Fetch => r.perm.x,
        };
        if !ok {
            return Err(fault(true));
        }
        if access == Access::Write && r.perm.x {
            self.code_generation += 1;
        }
        let r = &mut self.regions[idx];
        let off = (addr - r.start) as usize;
        Ok((r, off))
    }

    /// Reads `len ≤ 8` bytes, zero-extended. Widths 1, 2, 4 and 8 take
    /// a fixed-size copy.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or unreadable addresses.
    #[inline(always)]
    pub fn read_int(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        debug_assert!(len <= 8);
        let (r, off) = self.access(addr, len, Access::Read)?;
        Ok(match len {
            1 => u64::from(r.byte(off)),
            2 => u64::from(u16::from_le_bytes(r.load_n(off))),
            4 => u64::from(u32::from_le_bytes(r.load_n(off))),
            8 => u64::from_le_bytes(r.load_n(off)),
            _ => {
                let mut buf = [0u8; 8];
                r.load(off, &mut buf[..len as usize]);
                u64::from_le_bytes(buf)
            }
        })
    }

    /// Reads one byte: [`Memory::read_int`] with `len == 1`, without the
    /// variable-length copy.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or unreadable addresses.
    #[inline]
    pub fn read_u8(&mut self, addr: u64) -> Result<u8, MemFault> {
        let (r, off) = self.access(addr, 1, Access::Read)?;
        Ok(r.byte(off))
    }

    /// Writes the low `len ≤ 8` bytes of `value`. Widths 1, 2, 4 and 8
    /// take a fixed-size copy into an already backed page.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or unwritable addresses.
    #[inline(always)]
    pub fn write_int(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        debug_assert!(len <= 8);
        let (r, off) = self.access(addr, len, Access::Write)?;
        match len {
            1 => r.store_n(off, (value as u8).to_le_bytes()),
            2 => r.store_n(off, (value as u16).to_le_bytes()),
            4 => r.store_n(off, (value as u32).to_le_bytes()),
            8 => r.store_n(off, value.to_le_bytes()),
            _ => r.store(off, &value.to_le_bytes()[..len as usize]),
        }
        Ok(())
    }

    /// Copies bytes out of guest memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any byte is unmapped or unreadable.
    pub fn read_bytes(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let (r, off) = self.access(addr, len, Access::Read)?;
        let mut buf = vec![0; len as usize];
        r.load(off, &mut buf);
        Ok(buf)
    }

    /// Copies bytes into guest memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any byte is unmapped or unwritable.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let (r, off) = self.access(addr, bytes.len() as u64, Access::Write)?;
        r.store(off, bytes);
        Ok(())
    }

    /// Host-privileged write that ignores the W permission (used by the
    /// loader to populate read-only and executable sections, and by the
    /// kernel-side lazy resolver to patch GOT slots).
    pub fn poke_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let len = bytes.len() as u64;
        let fault = MemFault {
            addr,
            access: Access::Write,
            mapped: false,
        };
        let idx = self.find_hinted(addr).ok_or(fault)?;
        if addr + len > self.regions[idx].end() {
            return Err(fault);
        }
        if self.regions[idx].perm.x {
            self.code_generation += 1;
        }
        let r = &mut self.regions[idx];
        r.store((addr - r.start) as usize, bytes);
        Ok(())
    }

    /// Reads bytes for instruction fetch (requires X permission).
    ///
    /// Returns up to `len` bytes, possibly fewer at a region's end.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for non-executable or unmapped addresses.
    pub fn fetch_bytes(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let fault = MemFault {
            addr,
            access: Access::Fetch,
            mapped: false,
        };
        let idx = self.find_hinted(addr).ok_or(fault)?;
        if !self.regions[idx].perm.x {
            return Err(MemFault {
                addr,
                access: Access::Fetch,
                mapped: true,
            });
        }
        let avail = self.regions[idx].end() - addr;
        let take = avail.min(len);
        let r = &self.regions[idx];
        let mut buf = vec![0; take as usize];
        r.load((addr - r.start) as usize, &mut buf);
        Ok(buf)
    }

    /// Bytes of backing actually allocated: one `PAGE` per page ever
    /// written. Reads never add to it.
    pub fn backed_bytes(&self) -> u64 {
        let pages: usize = self
            .regions
            .iter()
            .map(|r| r.pages.iter().filter(|p| p.is_some()).count())
            .sum();
        (pages * PAGE) as u64
    }

    /// Lists mapped regions as `(start, size, perm, label)`.
    pub fn regions(&self) -> Vec<(u64, u64, Perm, &str)> {
        self.regions
            .iter()
            .map(|r| (r.start, r.size, r.perm, r.label.as_str()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_read_write_roundtrip() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW, "data").unwrap();
        m.write_int(0x1008, 8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_int(0x1008, 8).unwrap(), 0xdead_beef_cafe_f00d);
        assert_eq!(m.read_int(0x1008, 4).unwrap(), 0xcafe_f00d);
        assert_eq!(m.read_int(0x100c, 4).unwrap(), 0xdead_beef);
        assert_eq!(m.read_int(0x1100, 8).unwrap(), 0, "untouched memory is zero");
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW, "data").unwrap();
        let f = m.read_int(0x3000, 8).unwrap_err();
        assert!(!f.mapped);
        assert_eq!(f.access, Access::Read);
        // Straddling the end of a region faults too.
        assert!(m.read_int(0x1ffc, 8).is_err());
        assert!(m.write_int(0x1fff, 2, 0).is_err());
    }

    #[test]
    fn permissions_enforced() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100, Perm::R, "ro").unwrap();
        m.map(0x2000, 0x100, Perm::RX, "code").unwrap();
        assert!(m.read_int(0x1000, 8).is_ok());
        let f = m.write_int(0x1000, 8, 1).unwrap_err();
        assert!(f.mapped);
        assert!(m.fetch_bytes(0x2000, 4).is_ok());
        assert!(m.fetch_bytes(0x1000, 4).is_err(), "no exec on data");
        assert!(m.write_int(0x2000, 8, 1).is_err(), "no write on code");
        // poke bypasses W for the loader.
        m.poke_bytes(0x2000, &[1, 2, 3]).unwrap();
        assert_eq!(m.fetch_bytes(0x2000, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn overlapping_maps_rejected() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW, "a").unwrap();
        assert!(m.map(0x1800, 0x1000, Perm::RW, "b").is_err());
        assert!(m.map(0x0800, 0x1000, Perm::RW, "c").is_err());
        assert!(m.map(0x0fff, 0x2002, Perm::RW, "d").is_err());
        m.map(0x2000, 0x1000, Perm::RW, "e").unwrap();
    }

    #[test]
    fn grow_extends_until_collision() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW, "heap").unwrap();
        m.map(0x4000, 0x1000, Perm::RW, "other").unwrap();
        m.grow(0x1000, 0x1000).unwrap();
        assert!(m.is_mapped(0x1fff, 1));
        assert!(m.is_mapped(0x2fff, 1));
        assert!(m.grow(0x1000, 0x2000).is_err(), "would hit `other`");
    }

    #[test]
    fn code_generation_tracks_jit_writes() {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RWX, "jit").unwrap();
        m.map(0x3000, 0x1000, Perm::RW, "data").unwrap();
        let g0 = m.code_generation();
        m.write_int(0x3000, 8, 1).unwrap();
        assert_eq!(m.code_generation(), g0, "data writes do not invalidate");
        m.write_int(0x1000, 8, 1).unwrap();
        assert!(m.code_generation() > g0, "JIT writes invalidate");
    }

    #[test]
    fn region_labels() {
        let mut m = Memory::new();
        m.map(0x1000, 0x100, Perm::RW, "stack").unwrap();
        assert_eq!(m.region_label(0x1050), Some("stack"));
        assert_eq!(m.region_label(0x5000), None);
    }

    #[test]
    fn map_below_hinted_regions_shifts_their_indices() {
        let mut m = Memory::new();
        m.map(0x1000_0040, 0x640, Perm::RX, "text").unwrap();
        m.map(0x1000_0680, 0x100, Perm::RW, "got").unwrap();
        assert_eq!(m.fetch_bytes(0x1000_0040, 1).unwrap(), vec![0]);
        m.write_int(0x1000_0680, 8, 0x77).unwrap();
        // Both regions share one page, so its hint now names `got` (index
        // 1). Mapping `plt` below them moves `text` to index 1, and `got`
        // to 2.
        m.map(0x1000_0000, 0x40, Perm::RX, "plt").unwrap();
        assert_eq!(m.read_int(0x1000_0680, 8).unwrap(), 0x77);
        let f = m.write_int(0x1000_0040, 8, 1).unwrap_err();
        assert!(f.mapped, "text is not writable");
        m.poke_bytes(0x1000_0000, &[0xc3]).unwrap();
        assert_eq!(m.fetch_bytes(0x1000_0000, 1).unwrap(), vec![0xc3]);
        assert_eq!(m.region_label(0x1000_0000), Some("plt"));
        assert!(m.fetch_bytes(0x1000_0680, 1).unwrap_err().mapped);
        assert!(!m.read_int(0x1000_0780, 1).unwrap_err().mapped);
    }

    const BIG: u64 = 192 << 20;

    #[test]
    fn reads_never_back_pages() {
        let mut m = Memory::new();
        m.map(0x1000_0000, BIG, Perm::RWX, "big").unwrap();
        for off in [0, 0x123, BIG / 2, BIG - PAGE as u64 - 4, BIG - 8] {
            assert_eq!(m.read_int(0x1000_0000 + off, 8).unwrap(), 0);
        }
        assert_eq!(
            m.read_bytes(0x1000_0000 + BIG / 3, 3 * PAGE as u64)
                .unwrap(),
            vec![0; 3 * PAGE]
        );
        assert_eq!(
            m.fetch_bytes(0x1000_0000 + BIG - 2, 16).unwrap(),
            vec![0, 0]
        );
        assert_eq!(m.backed_bytes(), 0);
    }

    #[test]
    fn far_write_backs_one_page() {
        let mut m = Memory::new();
        m.map(0x1000_0000, BIG, Perm::RW, "big").unwrap();
        m.write_int(0x1000_0000 + BIG - 8, 8, 0x0102_0304_0506_0708)
            .unwrap();
        assert_eq!(m.backed_bytes(), PAGE as u64);
        assert_eq!(
            m.read_int(0x1000_0000 + BIG - 8, 8).unwrap(),
            0x0102_0304_0506_0708
        );
        assert_eq!(m.read_int(0x1000_0000 + BIG - 16, 8).unwrap(), 0);
    }

    #[test]
    fn straddling_write_backs_two_pages() {
        let mut m = Memory::new();
        m.map(0x1000_0000, BIG, Perm::RW, "big").unwrap();
        let addr = 0x1000_0000 + 5 * PAGE as u64 - 3;
        m.write_int(addr, 8, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(m.backed_bytes(), 2 * PAGE as u64);
        assert_eq!(m.read_int(addr, 8).unwrap(), 0x1122_3344_5566_7788);
        assert_eq!(m.read_int(addr + 3, 4).unwrap(), 0x2233_4455);
        assert_eq!(m.read_bytes(addr - 1, 3).unwrap(), vec![0, 0x88, 0x77]);
    }

    #[test]
    fn grown_tail_reads_zero_until_written() {
        let mut m = Memory::new();
        m.map(0x1000, 0x10, Perm::RW, "heap").unwrap();
        m.write_int(0x1008, 8, 7).unwrap();
        m.grow(0x1000, 3 * PAGE as u64).unwrap();
        let last = 0x1000 + 0x10 + 3 * PAGE as u64 - 8;
        assert_eq!(m.read_int(last, 8).unwrap(), 0);
        m.write_int(last, 8, 9).unwrap();
        assert_eq!(m.read_int(0x1008, 8).unwrap(), 7);
        assert_eq!(m.read_int(last, 8).unwrap(), 9);
        assert_eq!(m.backed_bytes(), 2 * PAGE as u64);
    }
}

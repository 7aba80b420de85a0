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

/// Size of one backing page (a frame). Pages are counted from each
/// region's start.
const PAGE: usize = 4096;

type Frame = Box<[u8; PAGE]>;

/// Index of the zero frame in `Memory::frames`: it backs every page never
/// written and is itself never written.
const ZERO_FRAME: u32 = 0;

/// Slots in each TLB array; `addr` uses slot `(addr >> 12) % TLB_SLOTS`.
const TLB_SLOTS: usize = 256;

/// One TLB entry: the guest bytes `[lo, lo + span)` are bytes
/// `0..span` of frame `frame`. The range lies inside one backing page
/// and one region, so a hit never straddles either. The all-zero entry
/// (`span == 0`) is the empty one.
#[derive(Clone, Copy, Default)]
struct TlbEntry {
    lo: u64,
    span: u32,
    frame: u32,
}

impl TlbEntry {
    /// The frame offset of `[addr, addr + len)` if this entry holds all
    /// of it.
    #[inline(always)]
    fn hit(self, addr: u64, len: u64) -> Option<usize> {
        let off = addr.wrapping_sub(self.lo);
        let span = u64::from(self.span);
        (off < span && len <= span - off).then_some(off as usize)
    }
}

#[inline(always)]
fn slot(addr: u64) -> usize {
    (addr >> 12) as usize % TLB_SLOTS
}

struct Region {
    start: u64,
    size: u64,
    perm: Perm,
    label: String,
    /// The frame of each `PAGE` bytes of the region, up to the highest
    /// page ever written, so mapping or growing a region allocates
    /// nothing. A page is `ZERO_FRAME` until first written, and so is
    /// every page past the table's end.
    pages: Vec<u32>,
}

impl Region {
    fn end(&self) -> u64 {
        self.start + self.size
    }

    fn frame(&self, page: usize) -> u32 {
        self.pages.get(page).copied().unwrap_or(ZERO_FRAME)
    }
}

fn zeroed_frame() -> Frame {
    vec![0u8; PAGE]
        .into_boxed_slice()
        .try_into()
        .expect("PAGE-sized buffer")
}

/// The `N` bytes of `frame` at `at`.
#[inline(always)]
fn frame_get<const N: usize>(frame: &[u8; PAGE], at: usize) -> [u8; N] {
    frame[at..at + N].try_into().expect("N-byte slice")
}

/// Sparse guest memory.
///
/// Regions are mapped explicitly with [`Memory::map`]; any access outside a
/// region faults, which is how wild pointers in the guest surface as
/// [`MemFault`]s instead of silent corruption.
///
/// Guest loads and stores go through a software TLB: two direct-mapped
/// arrays, one for reads and one for writes, that map a guest page to
/// the frame backing it. A miss takes the full region lookup and
/// permission check, then fills the entry. Entries hold no region
/// index, and each one is clamped to its region's end at fill time, so:
///
/// * `map` needs no flush: regions are disjoint, so no entry covers the
///   new region;
/// * `grow` needs none: an entry of the old last page still ends at the
///   old end, and the grown bytes miss and refill;
/// * `protect` flushes both arrays, since any entry may carry a
///   permission the region no longer grants;
/// * backing a page clears the (at most two) read slots that may cache
///   its zero frame. Write entries are only filled for backed pages.
///
/// Write entries are filled only for writable, non-executable regions,
/// so every write to executable memory takes the checked path and bumps
/// [`Memory::code_generation`].
pub struct Memory {
    regions: Vec<Region>,
    /// Backing pages of every region; `frames[ZERO_FRAME]` is the zero
    /// frame. Regions are never unmapped, so frames are never freed.
    frames: Vec<Frame>,
    /// Read TLB.
    reads: [TlbEntry; TLB_SLOTS],
    /// Write TLB.
    writes: [TlbEntry; TLB_SLOTS],
    /// Bumped whenever executable bytes are written, so instruction-decode
    /// caches can invalidate (needed for JIT-generated code).
    code_generation: u64,
}

impl Default for Memory {
    fn default() -> Memory {
        Memory {
            regions: Vec::new(),
            frames: vec![zeroed_frame()],
            reads: [TlbEntry::default(); TLB_SLOTS],
            writes: [TlbEntry::default(); TLB_SLOTS],
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
        let idx = self.regions.partition_point(|r| r.start < start);
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
        self.reads = [TlbEntry::default(); TLB_SLOTS];
        self.writes = [TlbEntry::default(); TLB_SLOTS];
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

    /// The checks of a guest access: the index of the region holding all
    /// of `[addr, addr+len)` with the permission `access` needs, and the
    /// offset of `addr` in it.
    fn access(&mut self, addr: u64, len: u64, access: Access) -> Result<(usize, usize), MemFault> {
        let fault = |mapped| MemFault {
            addr,
            access,
            mapped,
        };
        let idx = self.find(addr).ok_or(fault(false))?;
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
        Ok((idx, (addr - r.start) as usize))
    }

    /// Fills the TLB entry of `addr`, which an access of region `idx`
    /// just passed the checks for: the read entry, or the write entry if
    /// the region is not executable and `addr`'s page is backed.
    fn fill(&mut self, idx: usize, addr: u64, write: bool) {
        let r = &self.regions[idx];
        let page = (addr - r.start) as usize / PAGE;
        let lo = r.start + (page * PAGE) as u64;
        let entry = TlbEntry {
            lo,
            span: (r.end() - lo).min(PAGE as u64) as u32,
            frame: r.frame(page),
        };
        if !write {
            self.reads[slot(addr)] = entry;
        } else if !r.perm.x && entry.frame != ZERO_FRAME {
            self.writes[slot(addr)] = entry;
        }
    }

    /// Copies the bytes at offset `off` of region `idx` into `buf`, one
    /// page at a time; pages never written read as zeros.
    fn load(&self, idx: usize, off: usize, buf: &mut [u8]) {
        let r = &self.regions[idx];
        let mut done = 0;
        while done < buf.len() {
            let at = (off + done) % PAGE;
            let n = (PAGE - at).min(buf.len() - done);
            let frame = &self.frames[r.frame((off + done) / PAGE) as usize];
            buf[done..done + n].copy_from_slice(&frame[at..at + n]);
            done += n;
        }
    }

    /// Copies `bytes` to offset `off` of region `idx`, one page at a
    /// time, backing only the pages they touch.
    fn store(&mut self, idx: usize, off: usize, bytes: &[u8]) {
        let mut done = 0;
        while done < bytes.len() {
            let at = (off + done) % PAGE;
            let n = (PAGE - at).min(bytes.len() - done);
            let frame = self.back(idx, (off + done) / PAGE);
            self.frames[frame][at..at + n].copy_from_slice(&bytes[done..done + n]);
            done += n;
        }
    }

    /// The frame of page `page` of region `idx`, allocated (and its zero
    /// frame dropped from the read TLB) on first use.
    fn back(&mut self, idx: usize, page: usize) -> usize {
        let r = &mut self.regions[idx];
        if page >= r.pages.len() {
            r.pages.resize(page + 1, ZERO_FRAME);
        }
        if r.pages[page] == ZERO_FRAME {
            r.pages[page] = u32::try_from(self.frames.len()).expect("frame index fits u32");
            self.frames.push(zeroed_frame());
            // The page's bytes span at most two guest pages, so a read
            // entry of its zero frame sits in one of their two slots.
            let lo = r.start + (page * PAGE) as u64;
            let last = (lo + PAGE as u64).min(r.end()) - 1;
            self.reads[slot(lo)] = TlbEntry::default();
            self.reads[slot(last)] = TlbEntry::default();
        }
        r.pages[page] as usize
    }

    /// Reads `len ≤ 8` bytes, zero-extended. A TLB hit of width 1, 2, 4
    /// or 8 is one fixed-size copy.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or unreadable addresses.
    #[inline(always)]
    pub fn read_int(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        debug_assert!(len <= 8);
        let e = self.reads[slot(addr)];
        if let Some(at) = e.hit(addr, len) {
            let frame = &self.frames[e.frame as usize];
            match len {
                1 => return Ok(u64::from(frame[at])),
                2 => return Ok(u64::from(u16::from_le_bytes(frame_get(frame, at)))),
                4 => return Ok(u64::from(u32::from_le_bytes(frame_get(frame, at)))),
                8 => return Ok(u64::from_le_bytes(frame_get(frame, at))),
                _ => {}
            }
        }
        self.read_int_missed(addr, len)
    }

    /// [`Memory::read_int`] past the TLB: checks, fills and loads.
    #[cold]
    #[inline(never)]
    fn read_int_missed(&mut self, addr: u64, len: u64) -> Result<u64, MemFault> {
        let (idx, off) = self.access(addr, len, Access::Read)?;
        self.fill(idx, addr, false);
        let mut buf = [0u8; 8];
        self.load(idx, off, &mut buf[..len as usize]);
        Ok(u64::from_le_bytes(buf))
    }

    /// Reads one byte: [`Memory::read_int`] with `len == 1`.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or unreadable addresses.
    #[inline]
    pub fn read_u8(&mut self, addr: u64) -> Result<u8, MemFault> {
        self.read_int(addr, 1).map(|v| v as u8)
    }

    /// Writes the low `len ≤ 8` bytes of `value`. A TLB hit of width 1,
    /// 2, 4 or 8 is one fixed-size copy.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] for unmapped or unwritable addresses.
    #[inline(always)]
    pub fn write_int(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        debug_assert!(len <= 8);
        let e = self.writes[slot(addr)];
        if let Some(at) = e.hit(addr, len) {
            let frame = &mut self.frames[e.frame as usize];
            match len {
                1 => frame[at] = value as u8,
                2 => frame[at..at + 2].copy_from_slice(&(value as u16).to_le_bytes()),
                4 => frame[at..at + 4].copy_from_slice(&(value as u32).to_le_bytes()),
                8 => frame[at..at + 8].copy_from_slice(&value.to_le_bytes()),
                _ => return self.write_int_missed(addr, len, value),
            }
            return Ok(());
        }
        self.write_int_missed(addr, len, value)
    }

    /// [`Memory::write_int`] past the TLB: checks, stores and fills.
    #[cold]
    #[inline(never)]
    fn write_int_missed(&mut self, addr: u64, len: u64, value: u64) -> Result<(), MemFault> {
        let (idx, off) = self.access(addr, len, Access::Write)?;
        self.store(idx, off, &value.to_le_bytes()[..len as usize]);
        self.fill(idx, addr, true);
        Ok(())
    }

    /// Copies bytes out of guest memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any byte is unmapped or unreadable.
    pub fn read_bytes(&mut self, addr: u64, len: u64) -> Result<Vec<u8>, MemFault> {
        let (idx, off) = self.access(addr, len, Access::Read)?;
        let mut buf = vec![0; len as usize];
        self.load(idx, off, &mut buf);
        Ok(buf)
    }

    /// Copies bytes into guest memory.
    ///
    /// # Errors
    ///
    /// Returns a [`MemFault`] if any byte is unmapped or unwritable.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), MemFault> {
        let (idx, off) = self.access(addr, bytes.len() as u64, Access::Write)?;
        self.store(idx, off, bytes);
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
        let idx = self.find(addr).ok_or(fault)?;
        let r = &self.regions[idx];
        if addr + len > r.end() {
            return Err(fault);
        }
        let off = (addr - r.start) as usize;
        if r.perm.x {
            self.code_generation += 1;
        }
        self.store(idx, off, bytes);
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
        let idx = self.find(addr).ok_or(fault)?;
        let r = &self.regions[idx];
        if !r.perm.x {
            return Err(MemFault {
                addr,
                access: Access::Fetch,
                mapped: true,
            });
        }
        let off = (addr - r.start) as usize;
        let mut buf = vec![0; (r.end() - addr).min(len) as usize];
        self.load(idx, off, &mut buf);
        Ok(buf)
    }

    /// Bytes of backing actually allocated: one `PAGE` per page ever
    /// written. Reads never add to it.
    pub fn backed_bytes(&self) -> u64 {
        ((self.frames.len() - 1) * PAGE) as u64
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
        assert_eq!(
            m.read_int(0x1100, 8).unwrap(),
            0,
            "untouched memory is zero"
        );
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
    fn map_below_cached_regions_leaves_their_entries_valid() {
        let mut m = Memory::new();
        m.map(0x1000_0040, 0x640, Perm::RX, "text").unwrap();
        m.map(0x1000_0680, 0x100, Perm::RW, "got").unwrap();
        assert_eq!(m.fetch_bytes(0x1000_0040, 1).unwrap(), vec![0]);
        m.write_int(0x1000_0680, 8, 0x77).unwrap();
        assert_eq!(m.read_int(0x1000_0680, 8).unwrap(), 0x77);
        // Both regions share one guest page, whose read and write TLB
        // entries now cover `got`. Mapping `plt` below them shifts both
        // region indices; the entries hold none, so `map` flushes nothing
        // and they must still serve `got` alone.
        m.map(0x1000_0000, 0x40, Perm::RX, "plt").unwrap();
        m.write_int(0x1000_0688, 8, 0x78).unwrap();
        assert_eq!(m.read_int(0x1000_0688, 8).unwrap(), 0x78);
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

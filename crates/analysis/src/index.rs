//! Address tables over one image, built once per analysis: which section
//! holds an address, whether that section is code, and which pointer a
//! relocated word stores.
//!
//! [`Image::section_containing`] is a linear search; the analyzer asks it
//! for every decoded instruction, every jump-table entry and — in the
//! code-pointer scan — every byte offset of the image. The index answers
//! the same questions with a binary search over disjoint ranges, keeping
//! its first-match semantics: where hostile images lay sections over one
//! another, an address belongs to the first section (in image order)
//! that contains it, and that section alone decides whether it is code.

use janitizer_isa::PcMap;
use janitizer_obj::{DynTarget, Image, Section};
use std::collections::BTreeSet;

/// One image's address tables.
pub(crate) struct ImageIndex<'a> {
    image: &'a Image,
    /// Disjoint `[start, end)` ranges sorted by start, each with the
    /// index of the first section covering it.
    spans: Vec<(u64, u64, usize)>,
    /// Disjoint `[start, end)` ranges, sorted, whose owning section is
    /// code.
    code: Vec<(u64, u64)>,
    /// The pointer stored by the first dynamic relocation at each offset.
    relocs: PcMap<Option<u64>>,
}

impl<'a> ImageIndex<'a> {
    /// Builds the tables with one sweep over the section boundaries.
    pub(crate) fn new(image: &'a Image) -> ImageIndex<'a> {
        let mut events: Vec<(u64, usize, bool)> = Vec::with_capacity(2 * image.sections.len());
        for (i, s) in image.sections.iter().enumerate() {
            if s.mem_size > 0 {
                events.push((s.addr, i, true));
                events.push((s.end(), i, false));
            }
        }
        events.sort_unstable();
        let mut active: BTreeSet<usize> = BTreeSet::new();
        let mut spans: Vec<(u64, u64, usize)> = Vec::new();
        let mut k = 0;
        while k < events.len() {
            let at = events[k].0;
            while let Some(&(_, i, opens)) = events.get(k).filter(|e| e.0 == at) {
                if opens {
                    active.insert(i);
                } else {
                    active.remove(&i);
                }
                k += 1;
            }
            // An open section always closes later, so a next event exists.
            if let (Some(&owner), Some(&(next, _, _))) = (active.first(), events.get(k)) {
                match spans.last_mut() {
                    Some(last) if last.1 == at && last.2 == owner => last.1 = next,
                    _ => spans.push((at, next, owner)),
                }
            }
        }
        let mut code: Vec<(u64, u64)> = Vec::new();
        for &(lo, hi, owner) in &spans {
            if !image.sections[owner].kind.is_code() {
                continue;
            }
            match code.last_mut() {
                Some(last) if last.1 == lo => last.1 = hi,
                _ => code.push((lo, hi)),
            }
        }
        let mut relocs: PcMap<Option<u64>> = PcMap::default();
        relocs.reserve(image.dyn_relocs.len());
        for r in &image.dyn_relocs {
            relocs
                .entry(r.offset)
                .or_insert_with(|| reloc_pointer(&r.target));
        }
        ImageIndex {
            image,
            spans,
            code,
            relocs,
        }
    }

    /// The indexed image.
    pub(crate) fn image(&self) -> &'a Image {
        self.image
    }

    /// The first section containing `addr`, as
    /// [`Image::section_containing`] finds it.
    fn section(&self, addr: u64) -> Option<&'a Section> {
        let i = self.spans.partition_point(|&(_, end, _)| end <= addr);
        let &(start, _, owner) = self.spans.get(i)?;
        (start <= addr).then(|| &self.image.sections[owner])
    }

    /// The section containing `addr` if that section is code.
    pub(crate) fn code_section(&self, addr: u64) -> Option<&'a Section> {
        self.section(addr).filter(|s| s.kind.is_code())
    }

    /// Whether `addr` lies in code.
    pub(crate) fn in_code(&self, addr: u64) -> bool {
        let i = self.code.partition_point(|&(_, end)| end <= addr);
        self.code.get(i).is_some_and(|&(start, _)| start <= addr)
    }

    /// The raw little-endian word at `addr`, ignoring relocations.
    fn word(&self, addr: u64) -> Option<u64> {
        let sec = self.section(addr)?;
        let off = (addr - sec.addr) as usize;
        let bytes = sec.data.get(off..off.checked_add(8)?)?;
        Some(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    /// The 8-byte pointer at `addr`, honouring dynamic relocations (PIC
    /// jump tables store their targets as `Base` relocations, not bytes).
    pub(crate) fn pointer(&self, addr: u64) -> Option<u64> {
        match self.relocs.get(&addr) {
            Some(&p) => p,
            None => self.word(addr),
        }
    }
}

/// The image-space pointer a dynamic relocation stores: `Base` targets
/// are module-local, `Symbol` targets are unknown until load time.
fn reloc_pointer(target: &DynTarget) -> Option<u64> {
    match target {
        DynTarget::Base(off) => Some(*off),
        DynTarget::Symbol(_) => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use janitizer_obj::SectionKind;

    fn section(kind: SectionKind, addr: u64, len: u64) -> Section {
        Section {
            kind,
            addr,
            data: vec![0; len as usize],
            mem_size: len,
        }
    }

    /// Every address near every boundary gets the linear search's answer,
    /// including where sections overlap or nest.
    #[test]
    fn matches_the_linear_first_match_search() {
        let mut image = Image::new("overlaid", true, true);
        image.sections = vec![
            section(SectionKind::Rodata, 0x100, 0x40),
            section(SectionKind::Text, 0x120, 0x80),
            section(SectionKind::Data, 0x180, 0x10),
            section(SectionKind::Plt, 0x1a0, 0x20),
            section(SectionKind::Text, 0x1c0, 0),
            section(SectionKind::Init, 0x1c0, 0x10),
            section(SectionKind::Bss, 0x300, 0x20),
        ];
        let index = ImageIndex::new(&image);
        for addr in 0xf0..0x330 {
            let want = image.section_containing(addr);
            let got = index.section(addr);
            assert_eq!(
                got.map(|s| s as *const Section),
                want.map(|s| s as *const Section),
                "{addr:#x}"
            );
            assert_eq!(
                index.in_code(addr),
                want.is_some_and(|s| s.kind.is_code()),
                "{addr:#x}"
            );
        }
    }
}

//! # Rewrite rules
//!
//! The interface between Janitizer's static analyzer and dynamic modifier
//! (paper §3.3.1, Figure 3). Each [`RewriteRule`] names a handler routine
//! (by [`RuleId`]), the basic block and instruction it applies to, and up
//! to four words of payload. Rules are serialized to a per-module
//! [`RuleFile`] ("recorded in separate files for each binary module") and
//! loaded at run time into a per-module [`RuleTable`] whose addresses are
//! adjusted by the module's load bias — the PIC/non-PIC support of §3.4.2
//! and Figure 5.
//!
//! Rule ids are tool-defined except [`NO_OP`]: the paper's *no-op rule*
//! (§3.3.4) marking a block as statically seen and proven to need no
//! modification, which lets the dynamic modifier distinguish
//! "statically safe" from "never analyzed".

use janitizer_obj::{cap_alloc, checksum64, FormatError, Reader, Writer};
use std::collections::HashMap;

/// Identifies the dynamic modifier's handler routine for a rule.
pub type RuleId = u16;

/// The universal "statically seen, no modification needed" marker rule.
pub const NO_OP: RuleId = 0;

/// Magic prefix of serialized rule files.
pub const RULE_MAGIC: &[u8; 4] = b"JRUL";
/// Current rule-file format version. Version 2 added the integrity
/// header: a content checksum over the payload plus the fingerprint of
/// the module the rules were computed for. Version-1 files decode to
/// [`FormatError::BadVersion`]`(1)` — the "stale rules" signal the
/// hybrid driver turns into per-module degradation.
pub const RULE_VERSION: u32 = 2;

/// One rewrite rule (Figure 3: RuleID, BB addr, instr addr, 4 data words).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RewriteRule {
    /// Handler id.
    pub id: RuleId,
    /// Address of the enclosing basic block (module-relative for PIC
    /// modules, absolute for non-PIC executables — exactly as the static
    /// analyzer saw it).
    pub bb_addr: u64,
    /// Address of the instruction the rule applies to.
    pub instr_addr: u64,
    /// Optional payload (Data1–Data4).
    pub data: [u64; 4],
}

impl RewriteRule {
    /// Convenience constructor for a rule without payload.
    pub fn new(id: RuleId, bb_addr: u64, instr_addr: u64) -> RewriteRule {
        RewriteRule {
            id,
            bb_addr,
            instr_addr,
            data: [0; 4],
        }
    }

    /// Builder-style payload setter.
    pub fn with_data(mut self, idx: usize, v: u64) -> RewriteRule {
        self.data[idx] = v;
        self
    }

    /// A no-op marker for a basic block.
    pub fn no_op(bb_addr: u64) -> RewriteRule {
        RewriteRule::new(NO_OP, bb_addr, bb_addr)
    }
}

/// All rewrite rules produced by one static-analyzer run over one module.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct RuleFile {
    /// Name of the module the rules were computed for.
    pub module: String,
    /// Whether the module was PIC (addresses need load-time adjustment).
    pub pic: bool,
    /// Fingerprint of the module build the rules were computed for
    /// ([`janitizer_obj::Image::fingerprint`]); 0 when unknown. Carried
    /// in the integrity header so a loader can detect rules that were
    /// computed for a different build of a same-named module.
    pub fingerprint: u64,
    /// The rules, in no particular order.
    pub rules: Vec<RewriteRule>,
}

impl RuleFile {
    /// Creates an empty rule file for a module.
    pub fn new(module: impl Into<String>, pic: bool) -> RuleFile {
        RuleFile {
            module: module.into(),
            pic,
            fingerprint: 0,
            rules: Vec::new(),
        }
    }

    /// Serializes the rule file.
    ///
    /// Layout (version 2): `JRUL`, version `u32`, payload checksum
    /// `u64`, length-prefixed payload. The payload holds the module
    /// fingerprint, name, PIC flag and the rules; the checksum
    /// ([`janitizer_obj::checksum64`]) covers the whole payload so any
    /// byte corruption past the header surfaces as one typed error.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut p = Writer::new();
        p.put_u64(self.fingerprint);
        p.put_str(&self.module);
        p.put_u8(self.pic as u8);
        p.put_u32(self.rules.len() as u32);
        for r in &self.rules {
            p.put_u32(r.id as u32);
            p.put_u64(r.bb_addr);
            p.put_u64(r.instr_addr);
            for d in r.data {
                p.put_u64(d);
            }
        }
        let payload = p.into_bytes();
        let mut w = Writer::with_header(RULE_MAGIC, RULE_VERSION);
        w.put_u64(checksum64(&payload));
        w.put_bytes(&payload);
        w.into_bytes()
    }

    /// Deserializes a rule file, verifying the integrity header.
    ///
    /// # Errors
    ///
    /// Returns [`FormatError`] on bad magic, a stale version, truncation,
    /// or a checksum mismatch
    /// ([`FormatError::Invalid`]`{ what: "rule-file checksum" }`).
    pub fn from_bytes(bytes: &[u8]) -> Result<RuleFile, FormatError> {
        let (mut r, version) = Reader::with_header(bytes, RULE_MAGIC)?;
        if version != RULE_VERSION {
            return Err(FormatError::BadVersion(version));
        }
        let sum = r.u64()?;
        let payload = r.bytes()?;
        if checksum64(&payload) != sum {
            return Err(FormatError::Invalid {
                what: "rule-file checksum",
            });
        }
        let mut r = Reader::new(&payload);
        let fingerprint = r.u64()?;
        let module = r.str()?;
        let pic = r.u8()? != 0;
        let n = r.u32()?;
        let mut rules = Vec::with_capacity(cap_alloc(n, r.remaining(), 52));
        for _ in 0..n {
            let id = r.u32()? as RuleId;
            let bb_addr = r.u64()?;
            let instr_addr = r.u64()?;
            let mut data = [0u64; 4];
            for d in &mut data {
                *d = r.u64()?;
            }
            rules.push(RewriteRule {
                id,
                bb_addr,
                instr_addr,
                data,
            });
        }
        Ok(RuleFile {
            module,
            pic,
            fingerprint,
            rules,
        })
    }
}

/// The run-time, per-module hash table of rewrite rules, keyed by
/// **run-time** basic-block address (Figure 5).
///
/// Construction applies the module's load bias to every address, so "any
/// run-time address will exist in at most one hash table" even when PIC
/// modules were all analyzed at link address 0.
#[derive(Clone, Debug, Default)]
pub struct RuleTable {
    /// bb runtime address -> rules of that block, sorted by instr addr.
    by_bb: HashMap<u64, Vec<RewriteRule>>,
    /// instruction runtime address -> rules attached to that instruction.
    by_instr: HashMap<u64, Vec<RewriteRule>>,
    len: usize,
}

impl RuleTable {
    /// Builds the table from a rule file, adjusting addresses by
    /// `load_bias` (0 for non-PIC executables).
    pub fn from_file(file: &RuleFile, load_bias: u64) -> RuleTable {
        let mut by_bb: HashMap<u64, Vec<RewriteRule>> = HashMap::new();
        let mut by_instr: HashMap<u64, Vec<RewriteRule>> = HashMap::new();
        for r in &file.rules {
            let mut adj = *r;
            adj.bb_addr = r.bb_addr.wrapping_add(load_bias);
            adj.instr_addr = r.instr_addr.wrapping_add(load_bias);
            by_bb.entry(adj.bb_addr).or_default().push(adj);
            if adj.id != NO_OP {
                by_instr.entry(adj.instr_addr).or_default().push(adj);
            }
        }
        for v in by_bb.values_mut() {
            v.sort_by_key(|r| (r.instr_addr, r.id));
        }
        for v in by_instr.values_mut() {
            v.sort_by_key(|r| r.id);
        }
        let len = file.rules.len();
        RuleTable {
            by_bb,
            by_instr,
            len,
        }
    }

    /// Looks up the rules for the basic block starting at the given
    /// run-time address. `None` is a **miss**: the block was never seen
    /// statically and must go to the dynamic analyzer (Figure 4, step 3a).
    pub fn lookup_bb(&self, runtime_bb_addr: u64) -> Option<&[RewriteRule]> {
        self.by_bb.get(&runtime_bb_addr).map(Vec::as_slice)
    }

    /// Rules attached to the instruction at the given run-time address
    /// (no-op markers excluded). Used when a translation-time block spans
    /// several statically-recovered blocks.
    pub fn lookup_instr(&self, runtime_instr_addr: u64) -> &[RewriteRule] {
        self.by_instr
            .get(&runtime_instr_addr)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no rules.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of distinct basic blocks with rules.
    pub fn blocks(&self) -> usize {
        self.by_bb.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_file() -> RuleFile {
        let mut f = RuleFile::new("libdemo.so", true);
        f.rules
            .push(RewriteRule::new(3, 0x100, 0x104).with_data(0, 7));
        f.rules.push(RewriteRule::new(3, 0x100, 0x10a));
        f.rules.push(RewriteRule::no_op(0x200));
        f.rules
            .push(RewriteRule::new(9, 0x300, 0x30c).with_data(3, u64::MAX));
        f
    }

    #[test]
    fn file_roundtrip() {
        let f = sample_file();
        let back = RuleFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(f, back);
    }

    #[test]
    fn corrupt_file_rejected() {
        let mut b = sample_file().to_bytes();
        b[1] = b'X';
        assert!(RuleFile::from_bytes(&b).is_err());
        let b = sample_file().to_bytes();
        assert!(RuleFile::from_bytes(&b[..b.len() - 4]).is_err());
    }

    #[test]
    fn fingerprint_roundtrips() {
        let mut f = sample_file();
        f.fingerprint = 0xdead_beef_cafe_f00d;
        let back = RuleFile::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(back.fingerprint, 0xdead_beef_cafe_f00d);
        assert_eq!(f, back);
    }

    #[test]
    fn payload_corruption_fails_checksum() {
        let f = sample_file();
        let mut b = f.to_bytes();
        // Past the 20-byte header (magic, version, checksum, payload len):
        // flip one payload byte and the checksum must catch it.
        let i = b.len() - 3;
        b[i] ^= 0x40;
        assert_eq!(
            RuleFile::from_bytes(&b).unwrap_err(),
            FormatError::Invalid {
                what: "rule-file checksum"
            }
        );
    }

    #[test]
    fn stale_version_rejected() {
        // A version-1 file (pre-integrity-header) must surface as
        // BadVersion — the driver's "stale rules" degradation signal.
        let mut w = Writer::with_header(RULE_MAGIC, 1);
        w.put_str("m");
        w.put_u8(0);
        w.put_u32(0);
        assert_eq!(
            RuleFile::from_bytes(&w.into_bytes()).unwrap_err(),
            FormatError::BadVersion(1)
        );
    }

    #[test]
    fn table_adjusts_pic_addresses() {
        let f = sample_file();
        let t = RuleTable::from_file(&f, 0x1000_0000);
        assert!(t.lookup_bb(0x100).is_none(), "unadjusted address misses");
        let rules = t.lookup_bb(0x1000_0100).unwrap();
        assert_eq!(rules.len(), 2);
        assert_eq!(rules[0].instr_addr, 0x1000_0104);
        assert_eq!(rules[0].data[0], 7);
        assert_eq!(rules[1].instr_addr, 0x1000_010a);
    }

    #[test]
    fn non_pic_uses_zero_bias() {
        let mut f = sample_file();
        f.pic = false;
        let t = RuleTable::from_file(&f, 0);
        assert!(t.lookup_bb(0x100).is_some());
        assert_eq!(t.len(), 4);
        assert_eq!(t.blocks(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn noop_rule_hits_but_carries_no_payload() {
        let f = sample_file();
        let t = RuleTable::from_file(&f, 0);
        let rules = t.lookup_bb(0x200).unwrap();
        assert_eq!(rules.len(), 1);
        assert_eq!(rules[0].id, NO_OP);
        // The crucial distinction: a no-op rule is a HIT (statically seen),
        // an absent block is a MISS (needs dynamic analysis).
        assert!(t.lookup_bb(0x999).is_none());
    }

    #[test]
    fn rules_sorted_within_block() {
        let mut f = RuleFile::new("m", false);
        f.rules.push(RewriteRule::new(1, 0x10, 0x30));
        f.rules.push(RewriteRule::new(1, 0x10, 0x10));
        f.rules.push(RewriteRule::new(1, 0x10, 0x20));
        let t = RuleTable::from_file(&f, 0);
        let addrs: Vec<u64> = t
            .lookup_bb(0x10)
            .unwrap()
            .iter()
            .map(|r| r.instr_addr)
            .collect();
        assert_eq!(addrs, vec![0x10, 0x20, 0x30]);
    }
}

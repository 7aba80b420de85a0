//! Model-based property tests for guest memory: random operations checked
//! against a simple `HashMap<u64, u8>` reference model.

use janitizer_vm::{Memory, Perm};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[derive(Clone, Debug)]
enum Op {
    Write { off: u64, len: u8, value: u64 },
    Read { off: u64, len: u8 },
    WriteBytes { off: u64, data: Vec<u8> },
    ReadBytes { off: u64, len: u8 },
}

const BASE: u64 = 0x10_0000;
const SIZE: u64 = 0x4000;

fn arb_len() -> impl Strategy<Value = u8> {
    prop_oneof![Just(1u8), Just(2), Just(4), Just(8)]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SIZE, arb_len(), any::<u64>()).prop_map(|(off, len, value)| Op::Write {
            off,
            len,
            value
        }),
        (0..SIZE, arb_len()).prop_map(|(off, len)| Op::Read { off, len }),
        (0..SIZE, prop::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(off, data)| Op::WriteBytes { off, data }),
        (0..SIZE, 0u8..24).prop_map(|(off, len)| Op::ReadBytes { off, len }),
    ]
}

/// Operations on the large sparse layout: a big RW region that can grow
/// and an RX region reached through `poke_bytes` and `fetch_bytes`.
#[derive(Clone, Debug)]
enum SparseOp {
    Write { addr: u64, len: u8, value: u64 },
    Read { addr: u64, len: u8 },
    WriteBytes { addr: u64, data: Vec<u8> },
    ReadBytes { addr: u64, len: u16 },
    Poke { addr: u64, data: Vec<u8> },
    Fetch { addr: u64, len: u16 },
    Grow { delta: u64 },
}

/// The backing page size of `Memory`; offsets are biased around it.
const PAGE: u64 = 4096;
const DATA: u64 = 0x1000_0000;
const DATA_SIZE: u64 = 64 << 20;
const CODE: u64 = 0x2000_0000;
const CODE_SIZE: u64 = 64 << 20;

/// An offset into a region of `size` bytes: anywhere, a few bytes around a
/// handful of page boundaries (so later ops revisit the same pages), or
/// near and past the region's far end.
fn arb_sparse_off(size: u64) -> impl Strategy<Value = u64> {
    let pages = size / PAGE;
    prop_oneof![
        0..size,
        (
            prop::sample::select(vec![0, 1, 2, pages / 2, pages - 1, pages]),
            0u64..24,
        )
            .prop_map(|(p, d)| (p * PAGE + d).saturating_sub(12)),
        (0u64..3 * PAGE).prop_map(move |d| size - 64 + d),
    ]
}

fn arb_sparse_op() -> impl Strategy<Value = SparseOp> {
    let data = || arb_sparse_off(DATA_SIZE).prop_map(|off| DATA + off);
    let code = || arb_sparse_off(CODE_SIZE).prop_map(|off| CODE + off);
    let bytes = || prop::collection::vec(any::<u8>(), 1..40);
    prop_oneof![
        (data(), arb_len(), any::<u64>()).prop_map(|(addr, len, value)| SparseOp::Write {
            addr,
            len,
            value
        }),
        (data(), arb_len()).prop_map(|(addr, len)| SparseOp::Read { addr, len }),
        (data(), bytes()).prop_map(|(addr, data)| SparseOp::WriteBytes { addr, data }),
        (data(), 1u16..PAGE as u16 + 40).prop_map(|(addr, len)| SparseOp::ReadBytes { addr, len }),
        (prop_oneof![code(), data()], bytes())
            .prop_map(|(addr, data)| SparseOp::Poke { addr, data }),
        (prop_oneof![code(), data()], 1u16..64)
            .prop_map(|(addr, len)| SparseOp::Fetch { addr, len }),
        prop::sample::select(vec![1, 7, PAGE, 3 * PAGE + 5])
            .prop_map(|delta| SparseOp::Grow { delta }),
    ]
}

/// Model of the sparse layout: written bytes, region ends and the pages
/// any write has touched (pages count from page-aligned region starts).
struct SparseModel {
    bytes: HashMap<u64, u8>,
    data_end: u64,
    touched: HashSet<u64>,
}

impl SparseModel {
    fn read(&self, addr: u64) -> u8 {
        *self.bytes.get(&addr).unwrap_or(&0)
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        for (i, b) in data.iter().enumerate() {
            self.bytes.insert(addr + i as u64, *b);
            self.touched.insert((addr + i as u64) / PAGE);
        }
    }

    /// Whether `[addr, addr+len)` lies inside the data or the code region.
    fn fits(&self, addr: u64, len: u64) -> bool {
        (addr >= DATA && addr + len <= self.data_end)
            || (addr >= CODE && addr + len <= CODE + CODE_SIZE)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every successful int/byte write is later read back identically;
    /// out-of-region accesses fail in both the model and the real memory.
    #[test]
    fn memory_matches_reference_model(ops in prop::collection::vec(arb_op(), 1..80)) {
        let mut mem = Memory::new();
        mem.map(BASE, SIZE, Perm::RW, "play").unwrap();
        let mut model: HashMap<u64, u8> = HashMap::new();

        for op in ops {
            match op {
                Op::Write { off, len, value } => {
                    let addr = BASE + off;
                    let fits = off + len as u64 <= SIZE;
                    let r = mem.write_int(addr, len as u64, value);
                    prop_assert_eq!(r.is_ok(), fits);
                    if fits {
                        for i in 0..len as u64 {
                            model.insert(addr + i, (value >> (8 * i)) as u8);
                        }
                    }
                }
                Op::Read { off, len } => {
                    let addr = BASE + off;
                    let fits = off + len as u64 <= SIZE;
                    let r = mem.read_int(addr, len as u64);
                    prop_assert_eq!(r.is_ok(), fits);
                    if let Ok(v) = r {
                        let mut expect = 0u64;
                        for i in (0..len as u64).rev() {
                            expect = expect << 8 | *model.get(&(addr + i)).unwrap_or(&0) as u64;
                        }
                        prop_assert_eq!(v, expect);
                    }
                }
                Op::WriteBytes { off, data } => {
                    let addr = BASE + off;
                    let fits = off + data.len() as u64 <= SIZE;
                    let r = mem.write_bytes(addr, &data);
                    if data.is_empty() {
                        // Zero-length writes are trivially fine.
                        continue;
                    }
                    prop_assert_eq!(r.is_ok(), fits);
                    if fits {
                        for (i, b) in data.iter().enumerate() {
                            model.insert(addr + i as u64, *b);
                        }
                    }
                }
                Op::ReadBytes { off, len } => {
                    let addr = BASE + off;
                    let fits = off + len as u64 <= SIZE;
                    let r = mem.read_bytes(addr, len as u64);
                    if len == 0 { continue; }
                    prop_assert_eq!(r.is_ok(), fits);
                    if let Ok(bytes) = r {
                        for (i, b) in bytes.iter().enumerate() {
                            prop_assert_eq!(
                                *b,
                                *model.get(&(addr + i as u64)).unwrap_or(&0)
                            );
                        }
                    }
                }
            }
        }
    }

    /// Permissions are enforced for every access size.
    #[test]
    fn readonly_region_rejects_all_writes(off in 0..SIZE, len in arb_len(), v in any::<u64>()) {
        let mut mem = Memory::new();
        mem.map(BASE, SIZE, Perm::R, "ro").unwrap();
        prop_assert!(mem.write_int(BASE + off, len as u64, v).is_err());
        if off + (len as u64) <= SIZE {
            prop_assert!(mem.read_int(BASE + off, len as u64).is_ok());
        }
    }

    /// The same model check on a 64 MiB region with far and page-straddling
    /// offsets, growth, loader pokes and instruction fetches. Never-written
    /// pages read as zero, and only pages some write touched are backed.
    #[test]
    fn sparse_memory_matches_reference_model(ops in prop::collection::vec(arb_sparse_op(), 1..120)) {
        let mut mem = Memory::new();
        mem.map(DATA, DATA_SIZE, Perm::RW, "data").unwrap();
        mem.map(CODE, CODE_SIZE, Perm::RX, "code").unwrap();
        let mut model = SparseModel {
            bytes: HashMap::new(),
            data_end: DATA + DATA_SIZE,
            touched: HashSet::new(),
        };

        for op in ops {
            match op {
                SparseOp::Write { addr, len, value } => {
                    let fits = addr < CODE && model.fits(addr, len as u64);
                    let r = mem.write_int(addr, len as u64, value);
                    prop_assert_eq!(r.is_ok(), fits, "write_int {:#x}+{}", addr, len);
                    if fits {
                        model.write(addr, &value.to_le_bytes()[..len as usize]);
                    }
                }
                SparseOp::Read { addr, len } => {
                    let r = mem.read_int(addr, len as u64);
                    prop_assert_eq!(r.is_ok(), model.fits(addr, len as u64), "read_int {:#x}+{}", addr, len);
                    if let Ok(v) = r {
                        let expect = (0..len as u64)
                            .rev()
                            .fold(0u64, |acc, i| acc << 8 | model.read(addr + i) as u64);
                        prop_assert_eq!(v, expect, "read_int {:#x}+{}", addr, len);
                    }
                }
                SparseOp::WriteBytes { addr, data } => {
                    let fits = addr < CODE && model.fits(addr, data.len() as u64);
                    let r = mem.write_bytes(addr, &data);
                    prop_assert_eq!(r.is_ok(), fits, "write_bytes {:#x}+{}", addr, data.len());
                    if fits {
                        model.write(addr, &data);
                    }
                }
                SparseOp::ReadBytes { addr, len } => {
                    let r = mem.read_bytes(addr, len as u64);
                    prop_assert_eq!(r.is_ok(), model.fits(addr, len as u64), "read_bytes {:#x}+{}", addr, len);
                    if let Ok(bytes) = r {
                        for (i, b) in bytes.iter().enumerate() {
                            prop_assert_eq!(*b, model.read(addr + i as u64), "byte {:#x}", addr + i as u64);
                        }
                    }
                }
                SparseOp::Poke { addr, data } => {
                    let fits = model.fits(addr, data.len() as u64);
                    let r = mem.poke_bytes(addr, &data);
                    prop_assert_eq!(r.is_ok(), fits, "poke_bytes {:#x}+{}", addr, data.len());
                    if fits {
                        model.write(addr, &data);
                    }
                }
                SparseOp::Fetch { addr, len } => {
                    let r = mem.fetch_bytes(addr, len as u64);
                    let in_code = (CODE..CODE + CODE_SIZE).contains(&addr);
                    prop_assert_eq!(r.is_ok(), in_code, "fetch_bytes {:#x}", addr);
                    if let Ok(bytes) = r {
                        // A fetch is clipped at the region's end.
                        let take = (len as u64).min(CODE + CODE_SIZE - addr);
                        prop_assert_eq!(bytes.len() as u64, take);
                        for (i, b) in bytes.iter().enumerate() {
                            prop_assert_eq!(*b, model.read(addr + i as u64), "code byte {:#x}", addr + i as u64);
                        }
                    }
                }
                SparseOp::Grow { delta } => {
                    mem.grow(DATA, delta).unwrap();
                    model.data_end += delta;
                }
            }
            prop_assert_eq!(mem.backed_bytes(), model.touched.len() as u64 * PAGE);
        }
    }
}

//! Model-based property tests for guest memory: random operations checked
//! against a simple `HashMap<u64, u8>` reference model.

use janitizer_vm::{Access, MemFault, Memory, Perm};
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

/// The multi-region layout: a loader-style `.plt`/`.text`/`.got` trio
/// sharing one 4 KiB page, a small heap that grows into unmapped pages
/// up to an mmap region, and a region 256 pages above the trio, whose
/// page shares the trio's slot in `Memory`'s 256-entry TLB arrays.
const PLT: u64 = 0x1000_0000;
const TEXT: u64 = 0x1000_0040;
const GOT: u64 = 0x1000_0680;
const HEAP: u64 = 0x1000_2000;
const MMAP: u64 = 0x1000_6000;
const ALIAS: u64 = PLT + 256 * PAGE;

/// Regions mapped at the start, as `(start, size, perm)`.
const INITIAL: [(u64, u64, Perm); 6] = [
    (PLT, 0x40, Perm::RX),
    (TEXT, 0x640, Perm::RX),
    (GOT, 0x100, Perm::RW),
    (HEAP, 0x10, Perm::RW),
    (MMAP, PAGE, Perm::RW),
    (ALIAS, 0x800, Perm::RW),
];

/// Regions `MultiOp::Map` may add later: one below every other region
/// (TLB entries hold no region index, so shifting every index must not
/// disturb them), one in the heap's growth path, an RWX one 256 pages
/// above the heap (aliasing its TLB slot), and one that always overlaps.
const LATE: [(u64, u64, Perm); 4] = [
    (PLT - PAGE, PAGE, Perm::RW),
    (HEAP + 2 * PAGE, PAGE, Perm::RW),
    (HEAP + 256 * PAGE, PAGE, Perm::RWX),
    (TEXT + 0x600, 0x100, Perm::RW),
];

#[derive(Clone, Debug)]
enum MultiOp {
    Write {
        addr: u64,
        len: u8,
        value: u64,
    },
    Read {
        addr: u64,
        len: u8,
    },
    WriteBytes {
        addr: u64,
        data: Vec<u8>,
    },
    ReadBytes {
        addr: u64,
        len: u16,
    },
    Poke {
        addr: u64,
        data: Vec<u8>,
    },
    Fetch {
        addr: u64,
        len: u16,
    },
    Map {
        which: usize,
    },
    Grow {
        delta: u64,
    },
    Protect {
        start: u64,
        perm: Perm,
    },
    /// Reads the heap's last byte (filling its TLB entry, clamped to the
    /// heap's end), grows the heap by `delta`, then reads across the old
    /// end and writes and reads just past it.
    GrowCached {
        delta: u64,
    },
}

/// An address a few bytes around a region edge or page boundary of the
/// multi-region layout, or anywhere in the windows that span it.
fn arb_multi_addr() -> impl Strategy<Value = u64> {
    let mut anchors = vec![GOT + 0x100, HEAP + 0x10, ALIAS + 0x800];
    for &(start, size, _) in INITIAL.iter().chain(&LATE) {
        anchors.extend([start, start + size]);
    }
    anchors.extend((1..5).map(|p| HEAP + p * PAGE));
    prop_oneof![
        (prop::sample::select(anchors), -16i64..40).prop_map(|(a, d)| a.wrapping_add(d as u64)),
        PLT - PAGE..HEAP + 5 * PAGE,
        ALIAS - PAGE..ALIAS + PAGE,
        HEAP + 255 * PAGE..HEAP + 258 * PAGE,
    ]
}

fn arb_multi_op() -> impl Strategy<Value = MultiOp> {
    let bytes = || prop::collection::vec(any::<u8>(), 0..24);
    let starts: Vec<u64> = INITIAL.iter().chain(&LATE).map(|r| r.0).collect();
    let perm = prop::sample::select(vec![Perm::R, Perm::RW, Perm::RX, Perm::RWX]);
    prop_oneof![
        (arb_multi_addr(), arb_len(), any::<u64>()).prop_map(|(addr, len, value)| MultiOp::Write {
            addr,
            len,
            value
        }),
        (arb_multi_addr(), arb_len()).prop_map(|(addr, len)| MultiOp::Read { addr, len }),
        (arb_multi_addr(), bytes()).prop_map(|(addr, data)| MultiOp::WriteBytes { addr, data }),
        (arb_multi_addr(), 0u16..100).prop_map(|(addr, len)| MultiOp::ReadBytes { addr, len }),
        (arb_multi_addr(), bytes()).prop_map(|(addr, data)| MultiOp::Poke { addr, data }),
        (arb_multi_addr(), 1u16..64).prop_map(|(addr, len)| MultiOp::Fetch { addr, len }),
        (0..LATE.len()).prop_map(|which| MultiOp::Map { which }),
        prop::sample::select(vec![8, 0x100, PAGE, 2 * PAGE + 8])
            .prop_map(|delta| MultiOp::Grow { delta }),
        (prop::sample::select(starts), perm)
            .prop_map(|(start, perm)| MultiOp::Protect { start, perm }),
    ]
}

/// A writable region of the layout and an 8-byte-aligned address in its
/// first page.
fn arb_rw_target() -> impl Strategy<Value = (u64, u64)> {
    let rw: Vec<(u64, u64)> = INITIAL
        .iter()
        .chain(&LATE)
        .filter(|r| r.2 == Perm::RW)
        .map(|r| (r.0, r.1))
        .collect();
    (prop::sample::select(rw), any::<u64>())
        .prop_map(|((start, size), k)| (start, start + (k % size.min(PAGE)) / 8 * 8))
}

/// One op, or a short sequence that drives one TLB transition:
/// - a read, first write and read again of one address, whose page is
///   usually never written before (a zero-frame entry, then its backing);
/// - a write (filling a write entry), `protect` to read-only and a write
///   that must fault, then `protect` back;
/// - `protect` to RWX, then a read (filling a read entry) and two writes,
///   each of which must bump the code generation, then `protect` back;
/// - [`MultiOp::GrowCached`].
fn arb_multi_ops() -> impl Strategy<Value = Vec<MultiOp>> {
    prop_oneof![
        arb_multi_op().prop_map(|op| vec![op]),
        (arb_multi_addr(), arb_len(), any::<u64>()).prop_map(|(addr, len, value)| vec![
            MultiOp::Read { addr, len },
            MultiOp::Write { addr, len, value },
            MultiOp::Read { addr, len },
        ]),
        (arb_rw_target(), any::<u64>()).prop_map(|((start, addr), value)| vec![
            MultiOp::Write {
                addr,
                len: 8,
                value
            },
            MultiOp::Protect {
                start,
                perm: Perm::R
            },
            MultiOp::Write {
                addr,
                len: 8,
                value: !value
            },
            MultiOp::Read { addr, len: 8 },
            MultiOp::Protect {
                start,
                perm: Perm::RW
            },
        ]),
        (arb_rw_target(), any::<u64>()).prop_map(|((start, addr), value)| vec![
            MultiOp::Protect {
                start,
                perm: Perm::RWX
            },
            MultiOp::Read { addr, len: 8 },
            MultiOp::Write {
                addr,
                len: 8,
                value
            },
            MultiOp::Write {
                addr,
                len: 4,
                value: !value
            },
            MultiOp::Read { addr, len: 8 },
            MultiOp::Protect {
                start,
                perm: Perm::RW
            },
        ]),
        prop::sample::select(vec![1, 8, 0x100, PAGE])
            .prop_map(|delta| vec![MultiOp::GrowCached { delta }]),
    ]
}

/// Reference model of the multi-region layout: a flat region list searched
/// linearly, written bytes, and the expected code generation.
struct MultiModel {
    regions: Vec<(u64, u64, Perm)>,
    bytes: HashMap<u64, u8>,
    code_generation: u64,
}

impl MultiModel {
    fn region(&self, addr: u64) -> Option<usize> {
        self.regions
            .iter()
            .position(|&(start, size, _)| start <= addr && addr < start + size)
    }

    /// The index of the region holding all of `[addr, addr+len)`, or the
    /// unmapped fault `Memory` reports for an `access` there.
    fn bounds(&self, addr: u64, len: u64, access: Access) -> Result<usize, MemFault> {
        let fault = MemFault {
            addr,
            access,
            mapped: false,
        };
        let i = self.region(addr).ok_or(fault)?;
        let (start, size, _) = self.regions[i];
        if addr + len > start + size {
            return Err(fault);
        }
        Ok(i)
    }

    /// [`MultiModel::bounds`] plus the permission `access` needs.
    fn check(&self, addr: u64, len: u64, access: Access) -> Result<usize, MemFault> {
        let i = self.bounds(addr, len, access)?;
        let perm = self.regions[i].2;
        let ok = match access {
            Access::Read => perm.r,
            Access::Write => perm.w,
            Access::Fetch => perm.x,
        };
        if ok {
            Ok(i)
        } else {
            Err(MemFault {
                addr,
                access,
                mapped: true,
            })
        }
    }

    fn read(&self, addr: u64, len: u64) -> Vec<u8> {
        (addr..addr + len)
            .map(|a| *self.bytes.get(&a).unwrap_or(&0))
            .collect()
    }

    /// Applies a guest write; it bumps the generation on executable bytes.
    fn write(&mut self, addr: u64, data: &[u8]) -> Result<(), MemFault> {
        let i = self.check(addr, data.len() as u64, Access::Write)?;
        self.store(i, addr, data);
        Ok(())
    }

    fn store(&mut self, i: usize, addr: u64, data: &[u8]) {
        if self.regions[i].2.x {
            self.code_generation += 1;
        }
        for (k, b) in data.iter().enumerate() {
            self.bytes.insert(addr + k as u64, *b);
        }
    }
}

/// Applies `op` to `mem` and to `model` and checks that they agree on its
/// result, the code generation and the region list.
fn step(mem: &mut Memory, model: &mut MultiModel, op: MultiOp) -> Result<(), TestCaseError> {
    match op {
        MultiOp::Write { addr, len, value } => {
            let data = &value.to_le_bytes()[..len as usize];
            prop_assert_eq!(
                mem.write_int(addr, len as u64, value),
                model.write(addr, data),
                "write_int {:#x}+{}",
                addr,
                len
            );
        }
        MultiOp::Read { addr, len } => {
            let expect = model.check(addr, len as u64, Access::Read).map(|_| {
                let mut buf = [0u8; 8];
                buf[..len as usize].copy_from_slice(&model.read(addr, len as u64));
                u64::from_le_bytes(buf)
            });
            prop_assert_eq!(
                mem.read_int(addr, len as u64),
                expect,
                "read_int {:#x}+{}",
                addr,
                len
            );
        }
        MultiOp::WriteBytes { addr, data } => {
            prop_assert_eq!(
                mem.write_bytes(addr, &data),
                model.write(addr, &data),
                "write_bytes {:#x}+{}",
                addr,
                data.len()
            );
        }
        MultiOp::ReadBytes { addr, len } => {
            let expect = model
                .check(addr, len as u64, Access::Read)
                .map(|_| model.read(addr, len as u64));
            prop_assert_eq!(
                mem.read_bytes(addr, len as u64),
                expect,
                "read_bytes {:#x}+{}",
                addr,
                len
            );
        }
        MultiOp::Poke { addr, data } => {
            // The loader's write: only the bounds are checked.
            let expect = model
                .bounds(addr, data.len() as u64, Access::Write)
                .map(|i| model.store(i, addr, &data));
            prop_assert_eq!(
                mem.poke_bytes(addr, &data),
                expect,
                "poke_bytes {:#x}+{}",
                addr,
                data.len()
            );
        }
        MultiOp::Fetch { addr, len } => {
            // A fetch needs only its first byte mapped and is
            // clipped at the region's end.
            let expect = model.check(addr, 1, Access::Fetch).map(|i| {
                let (start, size, _) = model.regions[i];
                model.read(addr, (len as u64).min(start + size - addr))
            });
            prop_assert_eq!(
                mem.fetch_bytes(addr, len as u64),
                expect,
                "fetch_bytes {:#x}+{}",
                addr,
                len
            );
        }
        MultiOp::Map { which } => {
            let (start, size, perm) = LATE[which];
            let free = model
                .regions
                .iter()
                .all(|&(s, n, _)| start + size <= s || s + n <= start);
            prop_assert_eq!(
                mem.map(start, size, perm, "late").is_ok(),
                free,
                "map {:#x}",
                start
            );
            if free {
                model.regions.push((start, size, perm));
            }
        }
        MultiOp::Grow { delta } => {
            let i = model.region(HEAP).unwrap();
            let new_end = HEAP + model.regions[i].1 + delta;
            let fits = model
                .regions
                .iter()
                .all(|&(s, _, _)| s <= HEAP || new_end <= s);
            prop_assert_eq!(mem.grow(HEAP, delta).is_ok(), fits, "grow by {:#x}", delta);
            if fits {
                model.regions[i].1 += delta;
            }
        }
        MultiOp::GrowCached { delta } => {
            let end = HEAP + model.regions[model.region(HEAP).unwrap()].1;
            step(
                mem,
                model,
                MultiOp::Read {
                    addr: end - 1,
                    len: 1,
                },
            )?;
            step(mem, model, MultiOp::Grow { delta })?;
            step(
                mem,
                model,
                MultiOp::Read {
                    addr: end - 4,
                    len: 8,
                },
            )?;
            step(
                mem,
                model,
                MultiOp::Write {
                    addr: end,
                    len: 8,
                    value: delta,
                },
            )?;
            step(mem, model, MultiOp::Read { addr: end, len: 8 })?;
        }
        MultiOp::Protect { start, perm } => {
            let i = model.regions.iter().position(|r| r.0 == start);
            prop_assert_eq!(
                mem.protect(start, perm).is_ok(),
                i.is_some(),
                "protect {:#x}",
                start
            );
            if let Some(i) = i {
                if model.regions[i].2.x || perm.x {
                    model.code_generation += 1;
                }
                model.regions[i].2 = perm;
            }
        }
    }
    prop_assert_eq!(mem.code_generation(), model.code_generation);
    let mut regions = model.regions.clone();
    regions.sort_by_key(|r| r.0);
    let mapped: Vec<_> = mem
        .regions()
        .into_iter()
        .map(|(s, n, p, _)| (s, n, p))
        .collect();
    prop_assert_eq!(mapped, regions);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Guest accesses across several small regions, some sharing a page
    /// and some aliasing one TLB slot, interleaved with `map` below and
    /// between them, `grow` into unmapped pages and `protect`, and with
    /// the sequences of [`arb_multi_ops`]. Every value, fault, region
    /// list and code generation matches the model, so a stale TLB entry
    /// can never serve a wrong frame or a revoked permission.
    #[test]
    fn multi_region_memory_matches_reference_model(ops in prop::collection::vec(arb_multi_ops(), 1..120)) {
        let mut mem = Memory::new();
        for (i, &(start, size, perm)) in INITIAL.iter().enumerate() {
            mem.map(start, size, perm, format!("r{i}")).unwrap();
        }
        let mut model = MultiModel {
            regions: INITIAL.to_vec(),
            bytes: HashMap::new(),
            code_generation: 0,
        };

        for op in ops.into_iter().flatten() {
            step(&mut mem, &mut model, op)?;
        }
    }

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

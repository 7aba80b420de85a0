//! A SIGPROF sampling profiler for the host side of a guest run: which
//! out-of-line function of this binary the CPU was in, ranked.
//!
//! Spans time the engine from outside; this looks inside it. An
//! `ITIMER_PROF` interval timer raises `SIGPROF` every `interval_us` of
//! process CPU time, and the handler stores the interrupted instruction
//! pointer into a ring allocated before the timer starts (no allocation,
//! lock or I/O in the handler). After the run, [`Symbolizer`] maps each
//! address through `/proc/self/maps` and the `PT_LOAD` headers of the
//! binary's own ELF file to a file virtual address, and looks that up in
//! the `.symtab` function symbols. Nothing beyond `std` and two libc
//! calls (`setitimer`, `sigaction`) is used. Inlined code is charged to
//! the function it was inlined into.
//!
//! Linux x86-64 only; [`Sampler::start`] reports an error elsewhere.

use std::collections::HashMap;

/// Raw instruction-pointer samples and how many the ring dropped.
#[derive(Debug, Default)]
pub struct Samples {
    /// Sampled addresses, oldest first.
    pub rips: Vec<u64>,
    /// Samples overwritten because the ring was full.
    pub dropped: u64,
}

/// One row of the ranked function table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Row {
    /// Demangled function name, `[file]` for samples outside this
    /// binary, or `<unknown>` for addresses no symbol covers.
    pub function: String,
    /// Samples that landed in the function.
    pub samples: u64,
}

/// Ranks samples by function: most samples first, ties by name.
pub fn rank(samples: &Samples, sym: &Symbolizer) -> Vec<Row> {
    rank_names(samples.rips.iter().map(|&rip| sym.name(rip)))
}

fn rank_names(names: impl Iterator<Item = String>) -> Vec<Row> {
    let mut by: HashMap<String, u64> = HashMap::new();
    for name in names {
        *by.entry(name).or_insert(0) += 1;
    }
    let mut rows: Vec<Row> = by
        .into_iter()
        .map(|(function, samples)| Row { function, samples })
        .collect();
    rows.sort_by(|a, b| {
        b.samples
            .cmp(&a.samples)
            .then_with(|| a.function.cmp(&b.function))
    });
    rows
}

/// Renders the top `top` rows as a fixed-width table.
pub fn table(rows: &[Row], top: usize) -> String {
    let total: u64 = rows.iter().map(|r| r.samples).sum();
    let mut out = format!(
        "{:>4}  {:>7}  {:>8}  function\n",
        "rank", "self%", "samples"
    );
    for (i, r) in rows.iter().take(top).enumerate() {
        let pct = 100.0 * r.samples as f64 / total.max(1) as f64;
        out += &format!(
            "{:>4}  {:>6.2}%  {:>8}  {}\n",
            i + 1,
            pct,
            r.samples,
            r.function
        );
    }
    out
}

/// Demangles a Rust legacy (`_ZN…E`) symbol, dropping the trailing hash
/// segment. Other names are returned unchanged.
fn demangle(sym: &str) -> String {
    let Some(mut rest) = sym.strip_prefix("_ZN") else {
        return sym.to_string();
    };
    let mut segs: Vec<&str> = Vec::new();
    while !rest.starts_with('E') {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        let Ok(len) = rest[..digits].parse::<usize>() else {
            return sym.to_string();
        };
        let Some(seg) = rest.get(digits..digits + len) else {
            return sym.to_string();
        };
        segs.push(seg);
        rest = &rest[digits + len..];
    }
    if segs.last().is_some_and(|h| {
        h.len() == 17 && h.starts_with('h') && h[1..].bytes().all(|b| b.is_ascii_hexdigit())
    }) {
        segs.pop();
    }
    let joined = segs
        .iter()
        .map(|s| if s.starts_with("_$") { &s[1..] } else { s })
        .collect::<Vec<_>>()
        .join("::");
    let mut out = String::with_capacity(joined.len());
    let mut s = joined.as_str();
    while let Some(c) = s.chars().next() {
        if let Some(t) = s.strip_prefix("..") {
            out.push_str("::");
            s = t;
            continue;
        }
        if c == '$' {
            if let Some(end) = s[1..].find('$') {
                let code = &s[1..1 + end];
                let decoded = match code {
                    "SP" => Some('@'),
                    "BP" => Some('*'),
                    "RF" => Some('&'),
                    "LT" => Some('<'),
                    "GT" => Some('>'),
                    "LP" => Some('('),
                    "RP" => Some(')'),
                    "C" => Some(','),
                    _ => code
                        .strip_prefix('u')
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32),
                };
                if let Some(d) = decoded {
                    out.push(d);
                    s = &s[end + 2..];
                    continue;
                }
            }
        }
        out.push(c);
        s = &s[c.len_utf8()..];
    }
    out
}

/// A `.symtab` function symbol: file virtual address range and name.
#[derive(Clone, Debug)]
struct Func {
    addr: u64,
    size: u64,
    name: String,
}

/// A `PT_LOAD` segment: file bytes `[offset, offset + filesz)` map to
/// virtual addresses from `vaddr`.
#[derive(Clone, Copy, Debug)]
struct Load {
    offset: u64,
    filesz: u64,
    vaddr: u64,
}

/// One `/proc/self/maps` line: `[start, end)` maps the file `path` from
/// byte `offset`.
#[derive(Clone, Debug)]
struct Mapping {
    start: u64,
    end: u64,
    offset: u64,
    path: String,
}

/// Maps run-time addresses of this process to function names.
#[derive(Debug)]
pub struct Symbolizer {
    exe: String,
    funcs: Vec<Func>,
    loads: Vec<Load>,
    maps: Vec<Mapping>,
}

fn field<const N: usize>(b: &[u8], at: usize) -> Result<[u8; N], String> {
    b.get(at..at + N)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| format!("ELF truncated at {at:#x}"))
}

fn u16_at(b: &[u8], at: usize) -> Result<u64, String> {
    Ok(u64::from(u16::from_le_bytes(field(b, at)?)))
}

fn u32_at(b: &[u8], at: usize) -> Result<u64, String> {
    Ok(u64::from(u32::from_le_bytes(field(b, at)?)))
}

fn u64_at(b: &[u8], at: usize) -> Result<u64, String> {
    Ok(u64::from_le_bytes(field(b, at)?))
}

fn c_str(b: &[u8], at: usize) -> &str {
    let tail = b.get(at..).unwrap_or(&[]);
    let end = tail.iter().position(|&c| c == 0).unwrap_or(tail.len());
    std::str::from_utf8(&tail[..end]).unwrap_or("")
}

impl Symbolizer {
    /// Reads this process's own executable and memory map.
    ///
    /// # Errors
    ///
    /// Fails if `/proc/self/exe` or `/proc/self/maps` cannot be read, the
    /// binary is not a little-endian ELF64 file, or it has no `.symtab`.
    pub fn for_self() -> Result<Symbolizer, String> {
        let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
        let exe = std::fs::read_link("/proc/self/exe").map_err(|e| io("/proc/self/exe", e))?;
        let exe = exe.to_string_lossy().into_owned();
        let elf = std::fs::read(&exe).map_err(|e| io(&exe, e))?;
        let maps =
            std::fs::read_to_string("/proc/self/maps").map_err(|e| io("/proc/self/maps", e))?;
        Symbolizer::from_parts(exe, &elf, &maps)
    }

    /// Builds a symbolizer from an ELF image and a `maps` listing in
    /// which that image appears as `exe`.
    ///
    /// # Errors
    ///
    /// Fails on a malformed or non-ELF64-LE image, or one without a
    /// `.symtab`.
    fn from_parts(exe: String, elf: &[u8], maps: &str) -> Result<Symbolizer, String> {
        if elf.get(..4) != Some(b"\x7fELF") || elf.get(4) != Some(&2) || elf.get(5) != Some(&1) {
            return Err(format!("{exe}: not a little-endian ELF64 file"));
        }
        let (phoff, phentsize, phnum) =
            (u64_at(elf, 0x20)?, u16_at(elf, 0x36)?, u16_at(elf, 0x38)?);
        let (shoff, shentsize, shnum) =
            (u64_at(elf, 0x28)?, u16_at(elf, 0x3a)?, u16_at(elf, 0x3c)?);
        let mut loads = Vec::new();
        for i in 0..phnum {
            let ph = (phoff + i * phentsize) as usize;
            if u32_at(elf, ph)? == 1 {
                loads.push(Load {
                    offset: u64_at(elf, ph + 8)?,
                    vaddr: u64_at(elf, ph + 16)?,
                    filesz: u64_at(elf, ph + 32)?,
                });
            }
        }
        let section = |i: u64| -> Result<(u64, u64, u64, u64), String> {
            let sh = (shoff + i * shentsize) as usize;
            // (type, offset, size, link)
            Ok((
                u32_at(elf, sh + 4)?,
                u64_at(elf, sh + 24)?,
                u64_at(elf, sh + 32)?,
                u32_at(elf, sh + 40)?,
            ))
        };
        let mut funcs = Vec::new();
        let mut symtabs = 0;
        for i in 0..shnum {
            let (ty, off, size, link) = section(i)?;
            if ty != 2 {
                continue; // SHT_SYMTAB only
            }
            symtabs += 1;
            let (_, str_off, _, _) = section(link)?;
            let strtab = elf.get(str_off as usize..).unwrap_or(&[]);
            for s in (off..off + size).step_by(24) {
                let s = s as usize;
                let info = field::<1>(elf, s + 4)?[0];
                let addr = u64_at(elf, s + 8)?;
                if info & 0xf != 2 || addr == 0 {
                    continue; // STT_FUNC with an address
                }
                funcs.push(Func {
                    addr,
                    size: u64_at(elf, s + 16)?,
                    name: demangle(c_str(strtab, u32_at(elf, s)? as usize)),
                });
            }
        }
        if symtabs == 0 {
            return Err(format!("{exe}: no .symtab (stripped binary?)"));
        }
        funcs.sort_by_key(|f| f.addr);
        let maps = maps
            .lines()
            .filter_map(|line| {
                let mut cols = line.split_whitespace();
                let (start, end) = cols.next()?.split_once('-')?;
                let _perms = cols.next()?;
                let offset = u64::from_str_radix(cols.next()?, 16).ok()?;
                let (_dev, _inode) = (cols.next()?, cols.next()?);
                Some(Mapping {
                    start: u64::from_str_radix(start, 16).ok()?,
                    end: u64::from_str_radix(end, 16).ok()?,
                    offset,
                    path: cols.collect::<Vec<_>>().join(" "),
                })
            })
            .collect();
        Ok(Symbolizer {
            exe,
            funcs,
            loads,
            maps,
        })
    }

    /// The function containing run-time address `rip`.
    pub fn name(&self, rip: u64) -> String {
        let Some(m) = self.maps.iter().find(|m| m.start <= rip && rip < m.end) else {
            return "<unmapped>".into();
        };
        if m.path != self.exe {
            let base = m.path.rsplit('/').next().unwrap_or("");
            return if base.is_empty() {
                "[anon]".into()
            } else {
                format!("[{base}]")
            };
        }
        let file_off = rip - m.start + m.offset;
        let Some(vaddr) = self
            .loads
            .iter()
            .find(|l| l.offset <= file_off && file_off < l.offset + l.filesz)
            .map(|l| file_off - l.offset + l.vaddr)
        else {
            return "<unknown>".into();
        };
        let i = self.funcs.partition_point(|f| f.addr <= vaddr);
        match i.checked_sub(1).map(|i| &self.funcs[i]) {
            Some(f) if vaddr < f.addr + f.size.max(1) => f.name.clone(),
            _ => "<unknown>".into(),
        }
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::Samples;
    use std::ffi::c_void;
    use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in glibc's x86-64
    /// `ucontext_t`: `uc_flags` (8) + `uc_link` (8) + `uc_stack` (24),
    /// then 16 general registers of 8 bytes before RIP.
    const RIP_OFFSET: usize = 40 + 16 * 8;

    #[repr(C)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    /// glibc's x86-64 `struct sigaction`: handler, a 1024-bit mask,
    /// flags (padded to 8) and the restorer glibc fills in itself.
    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    /// Claimed by [`start`] and released by [`Active::stop`]: one
    /// sampler at a time.
    static ACTIVE: AtomicBool = AtomicBool::new(false);
    /// The ring the handler writes, or null when no sampler runs. `CAP`
    /// is written before the ring is published with `Release`; the
    /// handler's `Acquire` load of `RING` then sees it.
    static RING: AtomicPtr<AtomicU64> = AtomicPtr::new(std::ptr::null_mut());
    static CAP: AtomicUsize = AtomicUsize::new(0);
    /// Samples taken (a statistic; it publishes nothing).
    static NEXT: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_prof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
        let ring = RING.load(Ordering::Acquire);
        let cap = CAP.load(Ordering::Relaxed);
        if ring.is_null() || ctx.is_null() || cap == 0 {
            return;
        }
        // SAFETY: the kernel passes a valid `ucontext_t` to an
        // SA_SIGINFO handler, and a non-null `ring` points at `cap`
        // slots that are never freed (see `start`).
        unsafe {
            let rip = std::ptr::read_unaligned(ctx.cast::<u8>().add(RIP_OFFSET).cast::<u64>());
            let i = NEXT.fetch_add(1, Ordering::Relaxed);
            (*ring.add(i % cap)).store(rip, Ordering::Relaxed);
        }
    }

    /// A running sampler; [`Active::stop`] disarms it.
    pub struct Active {
        ring: &'static [AtomicU64],
        old: SigAction,
    }

    fn timer(interval_us: u64) -> Itimerval {
        let tv = || Timeval {
            tv_sec: (interval_us / 1_000_000) as i64,
            tv_usec: (interval_us % 1_000_000) as i64,
        };
        Itimerval {
            it_interval: tv(),
            it_value: tv(),
        }
    }

    pub fn start(interval_us: u64, capacity: usize) -> Result<Active, String> {
        if ACTIVE
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return Err("a sampler is already running".into());
        }
        // Leaked on purpose: a handler running on another thread may
        // still hold the pointer after `stop` unpublishes it.
        let ring: &'static [AtomicU64] =
            Box::leak((0..capacity.max(1)).map(|_| AtomicU64::new(0)).collect());
        NEXT.store(0, Ordering::Relaxed);
        CAP.store(ring.len(), Ordering::Relaxed);
        RING.store(ring.as_ptr().cast_mut(), Ordering::Release);
        let act = SigAction {
            sa_sigaction: on_prof as extern "C" fn(i32, *mut c_void, *mut c_void) as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        let mut old = SigAction {
            sa_sigaction: 0,
            sa_mask: [0; 16],
            sa_flags: 0,
            sa_restorer: 0,
        };
        // SAFETY: both structs have glibc's layout and outlive the calls.
        let ok = unsafe {
            sigaction(SIGPROF, &act, &mut old) == 0
                && setitimer(
                    ITIMER_PROF,
                    &timer(interval_us.max(1)),
                    std::ptr::null_mut(),
                ) == 0
        };
        if !ok {
            let err = std::io::Error::last_os_error();
            RING.store(std::ptr::null_mut(), Ordering::Release);
            ACTIVE.store(false, Ordering::Release);
            return Err(format!("setitimer/sigaction failed: {err}"));
        }
        Ok(Active { ring, old })
    }

    impl Active {
        pub fn stop(self) -> Samples {
            // SAFETY: disarming the timer, then restoring the handler
            // saved by `start`, both with glibc-layout structs.
            unsafe {
                setitimer(ITIMER_PROF, &timer(0), std::ptr::null_mut());
                sigaction(SIGPROF, &self.old, std::ptr::null_mut());
            }
            RING.store(std::ptr::null_mut(), Ordering::Release);
            let n = NEXT.load(Ordering::Relaxed);
            let cap = self.ring.len();
            let first = n.saturating_sub(cap);
            let samples = Samples {
                rips: (first..n)
                    .map(|i| self.ring[i % cap].load(Ordering::Relaxed))
                    .collect(),
                dropped: first as u64,
            };
            ACTIVE.store(false, Ordering::Release);
            samples
        }
    }
}

/// A SIGPROF sampler armed over this process. Disarm it with
/// [`Sampler::stop`]; dropping it leaves the timer running.
pub struct Sampler {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    active: imp::Active,
}

impl Sampler {
    /// Starts sampling every `interval_us` of process CPU time into a
    /// ring of `capacity` slots (the newest samples win once it wraps).
    ///
    /// # Errors
    ///
    /// Fails if another sampler is running, the timer cannot be armed,
    /// or the platform is not Linux x86-64.
    pub fn start(interval_us: u64, capacity: usize) -> Result<Sampler, String> {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            imp::start(interval_us, capacity).map(|active| Sampler { active })
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            let _ = (interval_us, capacity);
            Err("the sampler needs Linux on x86-64".into())
        }
    }

    /// Disarms the timer and returns the samples taken.
    pub fn stop(self) -> Samples {
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        {
            self.active.stop()
        }
        #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
        {
            Samples::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demangles_legacy_symbols() {
        assert_eq!(
            demangle("_ZN13janitizer_dbt6Engine10exec_items17h0123456789abcdefE"),
            "janitizer_dbt::Engine::exec_items"
        );
        assert_eq!(
            demangle(
                "_ZN4core3ptr47drop_in_place$LT$janitizer_dbt..CachedBlock$GT$17hfedcba9876543210E"
            ),
            "core::ptr::drop_in_place<janitizer_dbt::CachedBlock>"
        );
        assert_eq!(
            demangle("_ZN11foo$u20$bar3baz17h00000000000000ffE"),
            "foo bar::baz"
        );
        assert_eq!(demangle("_ZN3fooE"), "foo");
        assert_eq!(demangle("memcpy"), "memcpy");
        assert_eq!(demangle("_ZN9truncated"), "_ZN9truncated");
    }

    #[test]
    fn ranks_by_samples_then_name() {
        let names = ["b", "c", "a", "c", "b", "a", "c", "b", "a", "c"];
        let rows = rank_names(names.iter().map(|n| n.to_string()));
        let t = table(&rows, 2);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 3, "header plus the top two rows:\n{t}");
        assert!(
            lines[1].contains("40.00%") && lines[1].ends_with(" c"),
            "{t}"
        );
        assert!(lines[2].ends_with(" a"), "{t}");
    }

    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    #[test]
    fn samples_resolve_to_this_binary() {
        #[inline(never)]
        fn spin(until: std::time::Instant) -> u64 {
            let mut x = 1u64;
            while std::time::Instant::now() < until {
                for _ in 0..1000 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            }
            x
        }
        let s = Sampler::start(1000, 1 << 12).expect("arm the sampler");
        spin(std::time::Instant::now() + std::time::Duration::from_millis(300));
        let samples = s.stop();
        assert!(!samples.rips.is_empty(), "a busy 300 ms takes samples");
        let sym = Symbolizer::for_self().expect("test binaries keep .symtab");
        let rows = rank(&samples, &sym);
        assert!(
            rows.iter().any(|r| r.function.ends_with("spin")),
            "the spinning function is named: {rows:?}"
        );
    }
}

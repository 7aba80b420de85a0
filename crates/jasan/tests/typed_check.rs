//! Differential test of JASan's typed shadow check: the check the engine
//! runs inline, as JASan builds it, against a reference model made of
//! the reference walk (`check_access`) and the effects the check's
//! inline sequence had when it ran as a callback — scratch registers,
//! flags, charged cycles, the `(address, poison epoch)` verdict cache,
//! the report and the probe-result class.

use janitizer_core::{BlockRules, ProbeResult, ProbeRun, SecurityPlugin, TbItem, ToolContext};
use janitizer_dbt::{DecodedBlock, ShadowCheck, ViolationKind};
use janitizer_isa::{Flags, Instr, MemRef, MemSize, Reg};
use janitizer_jasan::{
    check_access, map_shadow, shadow_addr, Jasan, JasanOptions, RULE_MEM_ACCESS, SHADOW_BASE,
};
use janitizer_rules::RewriteRule;
use janitizer_vm::{load_process, LoadOptions, ModuleStore, Op, Perm, Process};
use proptest::prelude::*;

/// Application region whose shadow is mapped.
const PLAY: u64 = 0x20_0000;
/// Application bases the accesses start from: the mapped play region,
/// the shadow itself (its shadow-of-shadow is unmapped and reads clean),
/// and the last granules of `shadow:low`'s coverage, so an access can
/// straddle from mapped shadow into the unmapped gap.
const BASES: [u64; 3] = [PLAY + 0x100, SHADOW_BASE + 0x100, SHADOW_BASE - 0x10];
/// Shadow granules the test sets: two below the base, and past the
/// farthest access (move 24 + disp 24 + index 24 + width 8 bytes).
const GRANULES: u64 = 14;
const PC: u64 = 0x40_0000;
const BASE_REG: Reg = Reg::R8;
const IDX_REG: Reg = Reg::R9;

fn process() -> Process {
    let mut store = ModuleStore::new();
    let obj = janitizer_asm::assemble(
        "t.s",
        ".section text\n.global _start\n_start:\n ret\n",
        &janitizer_asm::AsmOptions::default(),
    )
    .unwrap();
    store.add(janitizer_link::link(&[obj], &janitizer_link::LinkOptions::executable("t")).unwrap());
    let mut p = load_process(&store, "t", &LoadOptions::default()).unwrap();
    map_shadow(&mut p.mem).unwrap();
    p.mem.map(PLAY, 0x1000, Perm::RW, "play").unwrap();
    p
}

/// One check site: the JASan configuration and the static facts.
#[derive(Clone, Debug)]
struct Site {
    use_liveness: bool,
    dynamic: bool,
    dead: u16,
    flags_live: bool,
    /// The rule's invariance bits: 0 plain, 1 cached, 3 hoisted.
    inv: u64,
    size: MemSize,
    store: bool,
    indexed: Option<u8>,
    disp: i32,
}

/// What happens between two executions of the check.
#[derive(Clone, Debug)]
enum Step {
    Run,
    /// A canary probe or allocator call bumped the poison epoch.
    Bump,
    /// The base register moved to another offset of the same base.
    Move(u64),
    /// A granule near the access got a new shadow byte (no epoch bump).
    Shadow(u64, u8),
}

fn arb_shadow_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        Just(0u8),
        1u8..8,
        Just(0xfau8),
        Just(0xfd),
        Just(0xf1),
        0x80u8..=0xff,
    ]
}

fn arb_site() -> impl Strategy<Value = Site> {
    (
        (any::<bool>(), any::<bool>(), any::<u16>(), any::<bool>()),
        prop::sample::select(vec![0u64, 1, 3]),
        prop::sample::select(vec![MemSize::B1, MemSize::B2, MemSize::B4, MemSize::B8]),
        any::<bool>(),
        prop::option::of(0u8..4),
        -16i32..24,
    )
        .prop_map(
            |((use_liveness, dynamic, dead, flags_live), inv, size, store, indexed, disp)| Site {
                use_liveness,
                dynamic,
                dead,
                flags_live,
                inv,
                size,
                store,
                indexed,
                disp,
            },
        )
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        Just(Step::Run),
        Just(Step::Run),
        Just(Step::Run),
        Just(Step::Bump),
        (0u64..24).prop_map(Step::Move),
        (0..GRANULES, arb_shadow_byte()).prop_map(|(g, s)| Step::Shadow(g, s)),
    ]
}

impl Site {
    fn insn(&self) -> Instr {
        let (size, base, disp) = (self.size, BASE_REG, self.disp);
        match (self.indexed, self.store) {
            (None, false) => Instr::Ld {
                size,
                rd: Reg::R10,
                base,
                disp,
            },
            (None, true) => Instr::St {
                size,
                rs: Reg::R10,
                base,
                disp,
            },
            (Some(scale), false) => Instr::LdIdx {
                size,
                rd: Reg::R10,
                base,
                idx: IDX_REG,
                scale,
                disp,
            },
            (Some(scale), true) => Instr::StIdx {
                size,
                rs: Reg::R10,
                base,
                idx: IDX_REG,
                scale,
                disp,
            },
        }
    }

    /// The typed check JASan builds for this site, and its probe cost.
    fn build(&self, jasan: &mut Jasan, p: &mut Process) -> (ShadowCheck, u64) {
        let block = DecodedBlock {
            start: PC,
            ops: vec![Op::new(PC, self.insn(), PC + 8)],
        };
        let items = if self.dynamic {
            jasan.instrument_dynamic(p, &block)
        } else {
            let rules = [RewriteRule::new(RULE_MEM_ACCESS, PC, PC)
                .with_data(0, u64::from(self.dead) | u64::from(self.flags_live) << 16)
                .with_data(1, self.inv)];
            jasan.instrument_static(p, &block, &BlockRules::new(vec![(PC, &rules[..])]))
        };
        let mut checks = items.into_iter().filter_map(|i| match i {
            TbItem::Probe(probe) => match probe.run {
                ProbeRun::ShadowCheck(c) => Some((*c, probe.cost)),
                ProbeRun::Custom(_) => None,
            },
            _ => None,
        });
        let check = checks.next().expect("one shadow check");
        assert!(checks.next().is_none());
        check
    }
}

/// The result class of one execution, with the charged cycles.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Class {
    Ok,
    Extra(u64),
    Hoisted,
    Violation(ViolationKind, u64, String),
}

fn classify(r: ProbeResult) -> Class {
    match r {
        ProbeResult::Ok => Class::Ok,
        ProbeResult::Extra(c) => Class::Extra(c),
        ProbeResult::Hoisted => Class::Hoisted,
        ProbeResult::Violation(r) => Class::Violation(r.kind, r.pc, r.details),
    }
}

/// The reference: the check as the callback implemented it, with the
/// verdict from `check_access` and shadow bytes read through `read_int`.
struct Model {
    scratch: Vec<Reg>,
    preserve_flags: bool,
    mode: u64,
    cost: u64,
    miss_extra: u64,
    cache: Option<(u64, u64)>,
}

impl Model {
    fn new(site: &Site) -> Model {
        const SCRATCH_PREF: [Reg; 8] = [
            Reg::R5,
            Reg::R4,
            Reg::R3,
            Reg::R2,
            Reg::R6,
            Reg::R7,
            Reg::R1,
            Reg::R0,
        ];
        let (dead, flags_live, inv) = if site.dynamic {
            (0, true, 0)
        } else {
            (site.dead, site.flags_live, site.inv)
        };
        let scratch: Vec<Reg> = if site.use_liveness {
            SCRATCH_PREF
                .into_iter()
                .filter(|r| dead & r.bit() != 0)
                .take(2)
                .collect()
        } else {
            Vec::new()
        };
        let preserve_flags = !site.use_liveness || flags_live;
        let full = 10
            + (2 - scratch.len() as u64) * 3
            + if preserve_flags { 3 } else { 0 }
            + if site.dynamic { 3 } else { 0 };
        let (cost, miss_extra) = match inv {
            3 => (0, full),
            1 => (4, full - 4 + 2),
            _ => (full, 0),
        };
        Model {
            scratch,
            preserve_flags,
            mode: inv,
            cost,
            miss_extra,
            cache: None,
        }
    }

    fn run(&mut self, p: &mut Process, m: &MemRef) -> Class {
        let mut addr = p.cpu.reg(m.base).wrapping_add(m.disp as i64 as u64);
        if let Some(idx) = m.idx {
            addr = addr.wrapping_add(p.cpu.reg(idx) << m.scale);
        }
        let hit = self.cache == Some((addr, p.note_counter));
        if self.mode == 3 && hit {
            return Class::Hoisted;
        }
        if self.mode == 1 && hit {
            if let Some(&s0) = self.scratch.first() {
                p.cpu.set_reg(s0, addr);
            }
            return Class::Ok;
        }
        let shadow_byte = p.mem.read_int(shadow_addr(addr), 1).unwrap_or(0);
        if let Some(&s0) = self.scratch.first() {
            p.cpu.set_reg(s0, shadow_addr(addr));
        }
        if let Some(&s1) = self.scratch.get(1) {
            p.cpu.set_reg(s1, shadow_byte);
        }
        if !self.preserve_flags {
            p.cpu.flags = Flags {
                zf: shadow_byte == 0,
                sf: false,
                cf: false,
                of: false,
            };
        }
        let size = m.size.bytes();
        if let Some(kind) = check_access(p, addr, size) {
            let details = format!(
                "{} of size {} at {:#x} (shadow {:#04x})",
                if m.is_store { "WRITE" } else { "READ" },
                size,
                addr,
                shadow_byte
            );
            return Class::Violation(kind, PC, details);
        }
        self.cache = Some((addr, p.note_counter));
        match self.mode {
            0 => Class::Ok,
            _ => Class::Extra(self.miss_extra),
        }
    }
}

fn regs(p: &Process) -> Vec<u64> {
    Reg::ALL.iter().map(|&r| p.cpu.reg(r)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn typed_check_matches_reference_walk_and_callback_effects(
        site in arb_site(),
        base in prop::sample::select(BASES.to_vec()),
        idx in 0u64..4,
        init in prop::collection::vec(arb_shadow_byte(), GRANULES as usize..GRANULES as usize + 1),
        steps in prop::collection::vec(arb_step(), 1..24),
    ) {
        let mut jasan = Jasan::new(JasanOptions { use_liveness: site.use_liveness, ..JasanOptions::default() });
        let (mut typed, mut model) = (process(), process());
        let (mut check, cost) = site.build(&mut jasan, &mut typed);
        let mut reference = Model::new(&site);
        prop_assert_eq!(cost, reference.cost);
        let mem = site.insn().mem_access().unwrap();
        // Sentinel register values, so a wrong scratch write shows.
        for p in [&mut typed, &mut model] {
            for r in Reg::ALL {
                p.cpu.set_reg(r, 0x5a5a_0000 + r.index() as u64);
            }
            p.cpu.flags = Flags { zf: false, sf: true, cf: true, of: true };
            p.cpu.set_reg(BASE_REG, base);
            p.cpu.set_reg(IDX_REG, idx);
        }
        // Granules from two before the base to past the farthest access.
        let first_granule = (base >> 3) - 2;
        let set_shadow = |p: &mut Process, g: u64, s: u8| {
            let _ = p.mem.write_int(SHADOW_BASE + first_granule + g, 1, u64::from(s));
        };
        for (g, &s) in init.iter().enumerate() {
            set_shadow(&mut typed, g as u64, s);
            set_shadow(&mut model, g as u64, s);
        }
        let mut reports = 0;
        for step in &steps {
            match *step {
                Step::Run => {
                    let got = classify(check.run(&mut typed));
                    let want = reference.run(&mut model, &mem);
                    prop_assert_eq!(&got, &want, "{:?}", site);
                    prop_assert_eq!(regs(&typed), regs(&model));
                    prop_assert_eq!(typed.cpu.flags, model.cpu.flags);
                    prop_assert_eq!(check.cache, reference.cache);
                    reports += usize::from(matches!(got, Class::Violation(..)));
                }
                Step::Bump => {
                    typed.note_counter += 1;
                    model.note_counter += 1;
                }
                Step::Move(off) => {
                    typed.cpu.set_reg(BASE_REG, base + off);
                    model.cpu.set_reg(BASE_REG, base + off);
                }
                Step::Shadow(g, s) => {
                    set_shadow(&mut typed, g, s);
                    set_shadow(&mut model, g, s);
                }
            }
        }
        // Every violation left exactly one forensic capture.
        let caps = jasan.take_violation_contexts();
        prop_assert_eq!(caps.len(), reports);
        prop_assert!(caps.iter().all(|c| matches!(c, ToolContext::Jasan(_))));
    }
}

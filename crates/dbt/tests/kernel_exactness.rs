//! Cycle exactness of translated blocks run through the execution
//! kernel: a fault part-way through a block charges only what ran before
//! it, and the guest's `cycles` syscall reads the same counts as the
//! per-item loop the kernel replaced.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_dbt::*;
use janitizer_link::{link, LinkOptions};
use janitizer_vm::{load_process, FaultKind, LoadOptions, ModuleStore, Process};

fn proc_from(src: &str) -> Process {
    let o = assemble("t.s", src, &AsmOptions::default()).unwrap();
    let img = link(&[o], &LinkOptions::executable("t")).unwrap();
    let mut store = ModuleStore::new();
    store.add(img);
    load_process(&store, "t", &LoadOptions::default()).unwrap()
}

const PROBE_COST: u64 = 7;

/// Puts a probe of [`PROBE_COST`] cycles before every guest instruction.
struct ProbeEach;

impl Tool for ProbeEach {
    fn name(&self) -> &str {
        "probe-each"
    }

    fn instrument_block(&mut self, _proc: &mut Process, block: &DecodedBlock) -> Vec<TbItem> {
        let mut items = Vec::new();
        for &op in &block.ops {
            items.push(TbItem::Probe(Probe::new(
                PROBE_COST,
                Box::new(|_| ProbeResult::Ok),
            )));
            items.push(TbItem::Guest(op));
        }
        items
    }
}

#[test]
fn a_fault_at_instruction_k_charges_instructions_one_to_k_and_their_probes() {
    let filler = [
        " add r2, 3\n",
        " mul r2, r2\n",
        " push r2\n",
        " pop r3\n",
        " div r2, 5\n",
    ];
    for k in 1..=filler.len() + 1 {
        let before: String = filler[..k - 1].concat();
        let src = format!(
            ".section text\n.global _start\n_start:\n mov r2, 9\n mov r1, 0x1234\n{before}\
             ld8 r0, [r1]\n mov r3, 1\n ret\n"
        );
        let mut p = proc_from(&src);
        // Enter at `_start` itself, so the first block is the one under
        // test (no bootstrap blocks before it).
        p.cpu.pc = p.resolve_symbol("_start").unwrap();
        let ops = p.decode_block(p.cpu.pc, usize::MAX).unwrap();
        // Two set-up instructions, k - 1 fillers, then the load.
        let faulting = k + 1;
        let mut engine = Engine::new(EngineOptions::default());
        let out = engine.run(&mut p, &mut ProbeEach, u64::MAX);
        let RunOutcome::Fault(f) = out else {
            panic!("k={k}: expected a fault, got {out:?}")
        };
        assert_eq!(f.pc, ops[faulting].pc, "k={k}: the load faults");
        assert!(matches!(f.kind, FaultKind::Mem(_)));

        let costs = CostModel::default();
        let translate = costs.block_build + costs.translate_per_insn * ops.len() as u64;
        let guest: u64 = ops[..=faulting].iter().map(|o| o.cost).sum();
        let probes = PROBE_COST * (faulting as u64 + 1);
        assert_eq!(p.insns, faulting as u64 + 1, "k={k}");
        assert_eq!(engine.stats.guest_insns, faulting as u64 + 1, "k={k}");
        assert_eq!(
            engine.stats.probe_runs,
            faulting as u64 + 1,
            "k={k}: no probe after the fault"
        );
        assert_eq!(engine.stats.probe_cycles, probes, "k={k}");
        assert_eq!(p.cycles, translate + guest + probes, "k={k}");
    }
}

/// Loops, calls and returns (indirect dispatch), then exits with the
/// value of the `cycles` syscall.
const CYCLES_PROBE: &str = ".section text\n.global _start\n_start:\n\
    mov r2, 30\n mov r4, 0\n\
    loop:\n call leaf\n sub r2, 1\n cmp r2, 0\n jne loop\n\
    mov r0, 11\n syscall\n mov r1, r0\n mov r0, 0\n syscall\n\
    leaf:\n add r4, r2\n mul r4, 3\n ret\n";

#[test]
fn the_cycles_syscall_reads_the_counts_pinned_before_the_kernel() {
    for (tool, want) in [("null", 3_073), ("probe-each", 4_578)] {
        let mut p = proc_from(CYCLES_PROBE);
        let mut engine = Engine::new(EngineOptions::default());
        let out = match tool {
            "null" => engine.run(&mut p, &mut NullTool, u64::MAX),
            _ => engine.run(&mut p, &mut ProbeEach, u64::MAX),
        };
        assert_eq!(out, RunOutcome::Exited(want), "{tool}");
    }
    let mut p = proc_from(CYCLES_PROBE);
    assert_eq!(
        p.run_native(u64::MAX),
        janitizer_vm::Exit::Exited(485),
        "native"
    );
}

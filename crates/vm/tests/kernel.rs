//! The native loop runs blocks through the execution kernel; these tests
//! hold it to a per-instruction interpreter on fuel exhaustion and on
//! code that rewrites its own current block.

use janitizer_asm::{assemble, AsmOptions};
use janitizer_isa::{Instr, MemSize, Reg};
use janitizer_link::{link, LinkOptions};
use janitizer_vm::*;
use proptest::prelude::*;

fn proc_from(src: &str) -> Process {
    let o = assemble("k.s", src, &AsmOptions::default()).unwrap();
    let mut store = ModuleStore::new();
    store.add(link(&[o], &LinkOptions::executable("k")).unwrap());
    load_process(&store, "k", &LoadOptions::default()).unwrap()
}

/// The reference model: fetch, decode and run one instruction at a time,
/// checking fuel before each, as the native loop did before blocks.
fn run_per_instruction(p: &mut Process, fuel: u64) -> Exit {
    loop {
        if p.cycles >= fuel {
            return Exit::OutOfFuel;
        }
        let pc = p.cpu.pc;
        let (insn, next) = match p.fetch_decode(pc) {
            Ok(v) => v,
            Err(f) => return Exit::Fault(f),
        };
        match run_ops(p, &[Op::new(pc, insn, next)]).end {
            RunEnd::Next(t) => p.cpu.pc = t,
            RunEnd::Exited(c) => return Exit::Exited(c),
            RunEnd::Fault(f) => return Exit::Fault(f),
        }
    }
}

/// Long blocks of mixed-cost instructions (loads, stores, multiplies,
/// divides, calls), so most fuel values land mid-block.
const MIXED: &str = ".section text\n.global _start\n_start:\n\
    la r8, buf\n mov r2, 40\n mov r0, 0\n\
    loop:\n ld8 r3, [r8]\n add r3, r2\n mul r3, 3\n st8 [r8], r3\n\
    mov r4, r3\n div r4, 7\n add r0, r4\n push r0\n pop r5\n\
    call leaf\n sub r2, 1\n cmp r2, 0\n jne loop\n and r0, 255\n ret\n\
    leaf:\n add r0, 1\n ret\n\
    .section data\nbuf: .space 8\n";

fn total_cycles() -> u64 {
    let mut p = proc_from(MIXED);
    assert!(p.run_native(u64::MAX).code().is_some());
    p.cycles
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn out_of_fuel_stops_where_a_per_instruction_loop_does(frac in 0.0f64..1.0) {
        let fuel = 1 + (frac * total_cycles() as f64) as u64;
        let mut kernel = proc_from(MIXED);
        let mut reference = proc_from(MIXED);
        let got = kernel.run_native(fuel);
        let want = run_per_instruction(&mut reference, fuel);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(
            (kernel.cpu.pc, kernel.insns, kernel.cycles),
            (reference.cpu.pc, reference.insns, reference.cycles)
        );
        prop_assert_eq!(kernel.cpu.regs, reference.cpu.regs);
    }
}

#[test]
fn every_fuel_value_matches_over_the_first_blocks() {
    for fuel in 0..200 {
        let mut kernel = proc_from(MIXED);
        let mut reference = proc_from(MIXED);
        assert_eq!(
            kernel.run_native(fuel),
            run_per_instruction(&mut reference, fuel),
            "fuel {fuel}"
        );
        assert_eq!(
            (kernel.cpu.pc, kernel.insns, kernel.cycles),
            (reference.cpu.pc, reference.insns, reference.cycles),
            "fuel {fuel}"
        );
    }
}

fn encode(code: &[Instr]) -> Vec<u8> {
    let mut out = Vec::new();
    for i in code {
        i.encode(&mut out);
    }
    out
}

/// A guest that copies `jit` into a fresh executable mapping and calls
/// it (with the mapping's address in `r8`).
fn jit_program(jit: &[u8]) -> String {
    let mut src = String::from(
        ".section text\n.global _start\n_start:\n\
         mov r0, 3\n mov r1, 4096\n mov r2, 1\n syscall\n mov r8, r0\n",
    );
    for (i, chunk) in jit.chunks(8).enumerate() {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        src += &format!(
            " mov r9, {}\n st8 [r8+{}], r9\n",
            u64::from_le_bytes(word),
            i * 8
        );
    }
    src + " call r8\n ret\n"
}

#[test]
fn a_write_to_a_later_instruction_of_the_current_block_takes_effect() {
    // One straight-line block: patch the immediate of the `mov r0, 1`
    // two instructions ahead to 7, then run it.
    let patch = |imm_at: i32| {
        vec![
            Instr::MovI32 {
                rd: Reg::R9,
                imm: 7,
            },
            Instr::St {
                size: MemSize::B1,
                rs: Reg::R9,
                base: Reg::R8,
                disp: imm_at,
            },
            Instr::MovI32 {
                rd: Reg::R0,
                imm: 1,
            },
            Instr::Ret,
        ]
    };
    // Where the immediate's low byte sits: the one byte the two
    // encodings of the target instruction differ in.
    let one = encode(&[Instr::MovI32 {
        rd: Reg::R0,
        imm: 1,
    }]);
    let seven = encode(&[Instr::MovI32 {
        rd: Reg::R0,
        imm: 7,
    }]);
    let diff = (0..one.len()).find(|&i| one[i] != seven[i]).unwrap();
    let target = encode(&patch(0)[..2]).len();
    let jit = encode(&patch((target + diff) as i32));
    assert_eq!(
        encode(&patch(0)).len(),
        jit.len(),
        "the displacement does not change the length"
    );

    let src = jit_program(&jit);
    let mut native = proc_from(&src);
    assert_eq!(
        native.run_native(1_000_000),
        Exit::Exited(7),
        "the new bytes run"
    );
    let mut reference = proc_from(&src);
    assert_eq!(
        run_per_instruction(&mut reference, 1_000_000),
        Exit::Exited(7)
    );
    assert_eq!(
        (native.insns, native.cycles),
        (reference.insns, reference.cycles)
    );
}

#[test]
fn a_looping_block_that_patches_itself_runs_each_new_version() {
    // Each lap bumps the immediate of the block's own `add r0, k` just
    // before running it: 5 laps add 2 + 3 + 4 + 5 + 6. Running the lap's
    // stale decode instead would add 1 + 2 + 3 + 4 + 5.
    use janitizer_isa::{AluOp, Cc};
    let add = |rd, imm| Instr::AluRi {
        op: AluOp::Add,
        rd,
        imm,
    };
    let body = |imm_at: i32| {
        vec![
            Instr::Ld {
                size: MemSize::B1,
                rd: Reg::R9,
                base: Reg::R8,
                disp: imm_at,
            },
            add(Reg::R9, 1),
            Instr::St {
                size: MemSize::B1,
                rs: Reg::R9,
                base: Reg::R8,
                disp: imm_at,
            },
            add(Reg::R0, 1),
            Instr::AluRi {
                op: AluOp::Sub,
                rd: Reg::R2,
                imm: 1,
            },
            Instr::AluRi {
                op: AluOp::Cmp,
                rd: Reg::R2,
                imm: 0,
            },
        ]
    };
    let (one, two) = (encode(&[add(Reg::R0, 1)]), encode(&[add(Reg::R0, 2)]));
    let diff = (0..one.len()).find(|&i| one[i] != two[i]).unwrap();
    let imm_at = (encode(&body(0)[..3]).len() + diff) as i32;
    let mut code = body(imm_at);
    // `jne` back to the start of the JIT code, measured from its end.
    let jne_len = encode(&[Instr::Jcc { cc: Cc::Ne, rel: 0 }]).len();
    let rel = -((encode(&code).len() + jne_len) as i32);
    code.push(Instr::Jcc { cc: Cc::Ne, rel });
    code.push(Instr::Ret);
    let src =
        jit_program(&encode(&code)).replace(" call r8\n", " mov r0, 0\n mov r2, 5\n call r8\n");
    let mut native = proc_from(&src);
    assert_eq!(native.run_native(1_000_000), Exit::Exited(20));
    let mut reference = proc_from(&src);
    assert_eq!(
        run_per_instruction(&mut reference, 1_000_000),
        Exit::Exited(20)
    );
    assert_eq!(
        (native.insns, native.cycles),
        (reference.insns, reference.cycles)
    );
}

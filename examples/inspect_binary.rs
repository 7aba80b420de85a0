//! Static-analyzer tour: disassemble a workload binary and print what the
//! core layer recovers — blocks, functions, jump tables, liveness,
//! canaries, code pointers — followed by the rewrite rules JASan's static
//! pass emits for it (paper Figures 2a, 3 and 6).
//!
//! ```sh
//! cargo run --example inspect_binary [workload]
//! ```

use janitizer::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "gcc".into());
    let world = build_world(&BuildOptions {
        scale: 0.1,
        ..Default::default()
    });
    let image = world
        .store
        .get(&which)
        .ok_or_else(|| format!("unknown workload `{which}`"))?;

    println!(
        "module `{}` ({}, {} code bytes)",
        image.name,
        if image.pic { "PIC" } else { "non-PIC" },
        image.code_bytes()
    );

    let ctx = StaticContext::analyze(&image);
    println!("\n-- control-flow recovery --");
    println!("basic blocks        : {}", ctx.cfg.blocks.len());
    println!("instructions        : {}", ctx.cfg.insn_count());
    println!("functions           : {}", ctx.cfg.functions.len());
    println!("jump tables         : {}", ctx.cfg.jump_tables.len());
    println!(
        "unresolved indirect : {}",
        ctx.cfg.unresolved_indirect.len()
    );

    if let Some(jt) = ctx.cfg.jump_tables.first() {
        println!(
            "first jump table    : jmp @{:#x}, {} targets from {:#x}",
            jt.jmp_addr,
            jt.targets.len(),
            jt.table_addr
        );
    }

    println!("\n-- analyses --");
    println!("canary sites        : {}", ctx.canaries.len());
    for site in ctx.canaries.iter().take(3) {
        println!(
            "  poison after {:#x}, unpoison before {:#x} (slot fp{:+})",
            site.poison_at, site.check_load_addr, site.slot_disp
        );
    }
    println!("natural loops       : {}", ctx.loops.len());
    println!("invariant accesses  : {}", ctx.invariants.len());
    println!(
        "code-ptr scan       : {} at instruction boundaries, {} at function entries",
        ctx.scan.at_insn_boundary.len(),
        ctx.scan.at_func_entry.len()
    );

    // Liveness sample: how many checks could skip spills entirely?
    let mut free2 = 0usize;
    let mut total = 0usize;
    let mut flags_dead = 0usize;
    for block in ctx.cfg.blocks.values() {
        for (addr, insn) in &block.insns {
            if insn.mem_access().is_some() {
                total += 1;
                if ctx.liveness.dead_regs_at(*addr, insn).count_ones() >= 2 {
                    free2 += 1;
                }
                if !ctx.liveness.flags_live_at(*addr) {
                    flags_dead += 1;
                }
            }
        }
    }
    println!("\n-- liveness headroom over {total} memory accesses --");
    println!(
        "two dead scratch regs : {free2} ({:.0}%)",
        100.0 * free2 as f64 / total.max(1) as f64
    );
    println!(
        "flags dead            : {flags_dead} ({:.0}%)",
        100.0 * flags_dead as f64 / total.max(1) as f64
    );

    // The rewrite rules the JASan static pass would ship (Figure 3).
    let file = analyze_statically(&image, &Jasan::hybrid());
    println!("\n-- rewrite rules ({} total) --", file.rules.len());
    for r in file.rules.iter().take(8) {
        let name = match r.id {
            0 => "NO_OP",
            janitizer::jasan::RULE_MEM_ACCESS => "MEM_ACCESS",
            janitizer::jasan::RULE_POISON_CANARY => "POISON_CANARY",
            janitizer::jasan::RULE_UNPOISON_CANARY => "UNPOISON_CANARY",
            _ => "?",
        };
        println!(
            "  {:<16} bb {:#010x} instr {:#010x} data {:#06x}",
            name, r.bb_addr, r.instr_addr, r.data[0]
        );
    }
    println!("  ...");
    Ok(())
}

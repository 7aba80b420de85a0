//! Property tests for the JX-64 encoder/decoder.

use janitizer_isa::{decode, AluOp, Cc, DecodeError, Instr, MemSize, Reg, MAX_INSTR_LEN};
use proptest::prelude::*;

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0usize..16).prop_map(Reg::from_index)
}

fn arb_size() -> impl Strategy<Value = MemSize> {
    prop_oneof![
        Just(MemSize::B1),
        Just(MemSize::B2),
        Just(MemSize::B4),
        Just(MemSize::B8)
    ]
}

fn arb_alu() -> impl Strategy<Value = AluOp> {
    (0u8..13).prop_map(|v| AluOp::from_u8(v).unwrap())
}

fn arb_cc() -> impl Strategy<Value = Cc> {
    (0u8..8).prop_map(|v| Cc::from_u8(v).unwrap())
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    prop_oneof![
        Just(Instr::Nop),
        Just(Instr::Halt),
        Just(Instr::Trap),
        Just(Instr::Ret),
        Just(Instr::Syscall),
        Just(Instr::PushF),
        Just(Instr::PopF),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Instr::MovRr { rd, rs }),
        (arb_reg(), any::<u64>()).prop_map(|(rd, imm)| Instr::MovI64 { rd, imm }),
        (arb_reg(), any::<i32>()).prop_map(|(rd, imm)| Instr::MovI32 { rd, imm }),
        (arb_reg(), any::<i32>()).prop_map(|(rd, disp)| Instr::LeaPc { rd, disp }),
        (arb_reg(), arb_reg(), any::<i32>()).prop_map(|(rd, base, disp)| Instr::Lea {
            rd,
            base,
            disp
        }),
        (arb_size(), arb_reg(), arb_reg(), any::<i32>()).prop_map(|(size, rd, base, disp)| {
            Instr::Ld {
                size,
                rd,
                base,
                disp,
            }
        }),
        (arb_size(), arb_reg(), arb_reg(), any::<i32>()).prop_map(|(size, rs, base, disp)| {
            Instr::St {
                size,
                rs,
                base,
                disp,
            }
        }),
        (
            arb_size(),
            arb_reg(),
            arb_reg(),
            arb_reg(),
            0u8..4,
            any::<i32>()
        )
            .prop_map(|(size, rd, base, idx, scale, disp)| Instr::LdIdx {
                size,
                rd,
                base,
                idx,
                scale,
                disp
            }),
        (
            arb_size(),
            arb_reg(),
            arb_reg(),
            arb_reg(),
            0u8..4,
            any::<i32>()
        )
            .prop_map(|(size, rs, base, idx, scale, disp)| Instr::StIdx {
                size,
                rs,
                base,
                idx,
                scale,
                disp
            }),
        (arb_alu(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs)| Instr::AluRr { op, rd, rs }),
        (arb_alu(), arb_reg(), any::<i32>()).prop_map(|(op, rd, imm)| Instr::AluRi { op, rd, imm }),
        arb_reg().prop_map(|rd| Instr::Neg { rd }),
        arb_reg().prop_map(|rd| Instr::Not { rd }),
        arb_reg().prop_map(|rs| Instr::Push { rs }),
        arb_reg().prop_map(|rd| Instr::Pop { rd }),
        any::<i32>().prop_map(|rel| Instr::Jmp { rel }),
        (arb_cc(), any::<i32>()).prop_map(|(cc, rel)| Instr::Jcc { cc, rel }),
        any::<i32>().prop_map(|rel| Instr::Call { rel }),
        arb_reg().prop_map(|rs| Instr::CallInd { rs }),
        arb_reg().prop_map(|rs| Instr::JmpInd { rs }),
        (arb_reg(), any::<i32>()).prop_map(|(rd, off)| Instr::RdTls { rd, off }),
        (arb_reg(), any::<i32>()).prop_map(|(rs, off)| Instr::WrTls { rs, off }),
    ]
}

proptest! {
    /// encode ∘ decode is the identity and reports the exact length.
    #[test]
    fn encode_decode_roundtrip(insn in arb_instr()) {
        let mut buf = Vec::new();
        insn.encode(&mut buf);
        prop_assert_eq!(buf.len(), insn.encoded_len());
        prop_assert!(buf.len() <= MAX_INSTR_LEN);
        let (decoded, next) = decode(&buf, 0).unwrap();
        prop_assert_eq!(decoded, insn);
        prop_assert_eq!(next, buf.len());
    }

    /// A stream of instructions decodes back instruction-by-instruction,
    /// even when embedded at a non-zero offset.
    #[test]
    fn stream_roundtrip(insns in prop::collection::vec(arb_instr(), 1..40), prefix in 0usize..8) {
        let mut buf = vec![0u8; prefix]; // leading nops
        let mut offsets = Vec::new();
        for i in &insns {
            offsets.push(buf.len());
            i.encode(&mut buf);
        }
        for (i, &off) in insns.iter().zip(&offsets) {
            let (decoded, _) = decode(&buf, off).unwrap();
            prop_assert_eq!(decoded, *i);
        }
    }

    /// Decoding arbitrary bytes never panics: it either yields an
    /// instruction with an in-bounds length or a structured error.
    #[test]
    fn decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        match decode(&bytes, 0) {
            Ok((_, next)) => prop_assert!(next <= bytes.len()),
            Err(DecodeError::UnknownOpcode { .. })
            | Err(DecodeError::Truncated { .. })
            | Err(DecodeError::BadScale { .. }) => {}
        }
    }

    /// Truncating any valid encoding yields `Truncated`, never garbage.
    #[test]
    fn truncation_detected(insn in arb_instr(), cut in 1usize..10) {
        let mut buf = Vec::new();
        insn.encode(&mut buf);
        if cut < buf.len() {
            buf.truncate(buf.len() - cut);
            if !buf.is_empty() {
                prop_assert_eq!(decode(&buf, 0), Err(DecodeError::Truncated { offset: 0 }));
            }
        }
    }

    /// Display never panics and is non-empty (C-DEBUG-NONEMPTY analogue).
    #[test]
    fn display_nonempty(insn in arb_instr()) {
        let text = format!("{insn}");
        prop_assert!(!text.is_empty());
    }

    /// defs ⊆ (defs ∪ uses) sanity and cost is positive.
    #[test]
    fn metadata_sanity(insn in arb_instr()) {
        prop_assert!(insn.cost() >= 1);
        if insn.is_indirect_cti() {
            prop_assert!(insn.is_cti());
        }
    }
}

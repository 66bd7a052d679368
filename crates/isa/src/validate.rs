//! Static validation of kernels.

use crate::instr::{Op, MAX_SRCS};
use crate::kernel::Kernel;

/// Reasons a kernel fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// Program has no instructions.
    EmptyProgram,
    /// Last reachable path never exits; programs must end in `Exit`.
    MissingExit,
    /// An instruction claims more than [`MAX_SRCS`] source operands.
    TooManySources { pc: usize, nsrc: u8 },
    /// A register operand `reg` is `>= regs_per_thread`.
    RegOutOfRange {
        pc: usize,
        reg: u16,
        regs_per_thread: u32,
    },
    /// A branch target points at or beyond its own pc (only back-edges are
    /// legal) or beyond the program.
    BadBranchTarget { pc: usize, target: u16 },
    /// Two `BranchBack` instructions reuse a loop id.
    DuplicateLoopId { pc: usize, loop_id: u8 },
    /// A scratchpad access touches bytes `>= smem_per_block`.
    SmemOutOfRange {
        pc: usize,
        max_byte: u32,
        smem_per_block: u32,
    },
    /// `decl_seq` is not a permutation of `0..regs_per_thread`.
    BadDeclOrder,
    /// Zero threads or zero grid blocks.
    EmptyLaunch,
    /// More threads per block than the architectural maximum the ISA allows
    /// (1024, the CUDA limit for the modelled generation).
    BlockTooLarge { threads: u32 },
    /// A [`crate::KernelBuilder::reg_window`] clamped to fewer than two
    /// registers, so every rolled source operand would silently alias its
    /// destination (reported by the builder, never by a built [`Kernel`]).
    NarrowRegWindow {
        /// Requested window low bound.
        lo: u16,
        /// Requested window high bound (exclusive).
        hi: u16,
    },
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidateError::EmptyProgram => write!(f, "program is empty"),
            ValidateError::MissingExit => write!(f, "program does not end with Exit"),
            ValidateError::TooManySources { pc, nsrc } => {
                write!(f, "pc {pc}: {nsrc} source operands (at most {MAX_SRCS})")
            }
            ValidateError::RegOutOfRange {
                pc,
                reg,
                regs_per_thread,
            } => {
                write!(
                    f,
                    "pc {pc}: register $r{reg} out of range (regs/thread = {regs_per_thread})"
                )
            }
            ValidateError::BadBranchTarget { pc, target } => {
                write!(f, "pc {pc}: branch target {target} is not a back-edge")
            }
            ValidateError::DuplicateLoopId { pc, loop_id } => {
                write!(f, "pc {pc}: loop id {loop_id} already used")
            }
            ValidateError::SmemOutOfRange {
                pc,
                max_byte,
                smem_per_block,
            } => {
                write!(f, "pc {pc}: scratchpad byte {max_byte} out of range ({smem_per_block} bytes/block)")
            }
            ValidateError::BadDeclOrder => write!(f, "decl_seq is not a permutation"),
            ValidateError::EmptyLaunch => write!(f, "kernel launches zero threads or blocks"),
            ValidateError::BlockTooLarge { threads } => {
                write!(f, "{threads} threads per block exceeds the 1024 limit")
            }
            ValidateError::NarrowRegWindow { lo, hi } => {
                write!(
                    f,
                    "reg_window [{lo}, {hi}) holds fewer than 2 registers after \
                     clamping; rolled sources would alias their destinations"
                )
            }
        }
    }
}

impl std::error::Error for ValidateError {}

/// Validate a kernel's static well-formedness. Every kernel entering the
/// simulator or the transform passes must pass this check.
pub fn validate(kernel: &Kernel) -> Result<(), ValidateError> {
    if kernel.program.is_empty() {
        return Err(ValidateError::EmptyProgram);
    }
    if kernel.threads_per_block == 0 || kernel.grid_blocks == 0 {
        return Err(ValidateError::EmptyLaunch);
    }
    if kernel.threads_per_block > 1024 {
        return Err(ValidateError::BlockTooLarge {
            threads: kernel.threads_per_block,
        });
    }
    match kernel.program.instrs.last().map(|i| i.op) {
        Some(Op::Exit) => {}
        _ => return Err(ValidateError::MissingExit),
    }
    // decl_seq must be a permutation of 0..regs_per_thread.
    {
        let n = kernel.regs_per_thread as usize;
        if kernel.decl_seq.len() != n {
            return Err(ValidateError::BadDeclOrder);
        }
        let mut seen = vec![false; n];
        for &s in &kernel.decl_seq {
            let s = s as usize;
            if s >= n || seen[s] {
                return Err(ValidateError::BadDeclOrder);
            }
            seen[s] = true;
        }
    }
    let mut loop_ids_seen = [false; 256];
    for (pc, instr) in kernel.program.instrs.iter().enumerate() {
        // Checked first: the operands are `srcs[..nsrc]`.
        if usize::from(instr.nsrc) > MAX_SRCS {
            return Err(ValidateError::TooManySources {
                pc,
                nsrc: instr.nsrc,
            });
        }
        for reg in instr.operands() {
            if u32::from(reg.0) >= kernel.regs_per_thread {
                return Err(ValidateError::RegOutOfRange {
                    pc,
                    reg: reg.0,
                    regs_per_thread: kernel.regs_per_thread,
                });
            }
        }
        match instr.op {
            Op::BranchBack {
                target, loop_id, ..
            } => {
                if usize::from(target) >= pc {
                    return Err(ValidateError::BadBranchTarget { pc, target });
                }
                if loop_ids_seen[loop_id as usize] {
                    return Err(ValidateError::DuplicateLoopId { pc, loop_id });
                }
                loop_ids_seen[loop_id as usize] = true;
            }
            Op::LdShared(p) | Op::StShared(p) if p.max_byte() >= kernel.smem_per_block => {
                return Err(ValidateError::SmemOutOfRange {
                    pc,
                    max_byte: p.max_byte(),
                    smem_per_block: kernel.smem_per_block,
                });
            }
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use crate::instr::Instr;
    use crate::pattern::SharedPattern;
    use crate::program::Program;
    use crate::reg::Reg;

    fn ok_kernel() -> Kernel {
        KernelBuilder::new("ok")
            .regs_per_thread(8)
            .smem_per_block(256)
            .ialu(3)
            .build()
    }

    #[test]
    fn accepts_well_formed_kernel() {
        assert_eq!(validate(&ok_kernel()), Ok(()));
    }

    #[test]
    fn rejects_empty_program() {
        let mut k = ok_kernel();
        k.program = Program::new(vec![]);
        assert_eq!(validate(&k), Err(ValidateError::EmptyProgram));
    }

    #[test]
    fn rejects_missing_exit() {
        let mut k = ok_kernel();
        k.program.instrs.pop();
        assert_eq!(validate(&k), Err(ValidateError::MissingExit));
    }

    #[test]
    fn rejects_out_of_range_register() {
        let mut k = ok_kernel();
        k.program
            .instrs
            .insert(0, Instr::new(Op::IAlu, Some(Reg(99)), &[]));
        assert!(matches!(
            validate(&k),
            Err(ValidateError::RegOutOfRange { reg: 99, .. })
        ));
    }

    #[test]
    fn rejects_more_sources_than_an_instruction_stores() {
        for nsrc in [4, 255] {
            let mut k = ok_kernel();
            k.program.instrs[1].nsrc = nsrc;
            assert_eq!(
                validate(&k),
                Err(ValidateError::TooManySources { pc: 1, nsrc })
            );
        }
    }

    #[test]
    fn rejects_forward_branch() {
        let mut k = ok_kernel();
        let end = k.program.len() as u16;
        k.program.instrs.insert(
            0,
            Instr::new(
                Op::BranchBack {
                    target: end,
                    trips: 1,
                    loop_id: 0,
                },
                None,
                &[],
            ),
        );
        assert!(matches!(
            validate(&k),
            Err(ValidateError::BadBranchTarget { .. })
        ));
    }

    #[test]
    fn rejects_duplicate_loop_ids() {
        let mut k = ok_kernel();
        let n = k.program.len();
        k.program.instrs.insert(
            n - 1,
            Instr::new(
                Op::BranchBack {
                    target: 0,
                    trips: 1,
                    loop_id: 7,
                },
                None,
                &[],
            ),
        );
        k.program.instrs.insert(
            n,
            Instr::new(
                Op::BranchBack {
                    target: 1,
                    trips: 1,
                    loop_id: 7,
                },
                None,
                &[],
            ),
        );
        assert!(matches!(
            validate(&k),
            Err(ValidateError::DuplicateLoopId { loop_id: 7, .. })
        ));
    }

    #[test]
    fn rejects_smem_overflow() {
        let mut k = ok_kernel(); // 256 bytes of smem
        k.program.instrs.insert(
            0,
            Instr::new(
                Op::LdShared(SharedPattern::new(200, 100)),
                Some(Reg(0)),
                &[],
            ),
        );
        assert!(matches!(
            validate(&k),
            Err(ValidateError::SmemOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_bad_decl_order() {
        let mut k = ok_kernel();
        k.decl_seq = vec![0; k.regs_per_thread as usize];
        assert_eq!(validate(&k), Err(ValidateError::BadDeclOrder));
    }

    #[test]
    fn rejects_empty_launch_and_giant_blocks() {
        let mut k = ok_kernel();
        k.grid_blocks = 0;
        assert_eq!(validate(&k), Err(ValidateError::EmptyLaunch));
        let mut k2 = ok_kernel();
        k2.threads_per_block = 2048;
        assert!(matches!(
            validate(&k2),
            Err(ValidateError::BlockTooLarge { .. })
        ));
    }

    #[test]
    fn error_messages_are_human_readable() {
        let e = ValidateError::RegOutOfRange {
            pc: 3,
            reg: 9,
            regs_per_thread: 8,
        };
        assert!(e.to_string().contains("$r9"));
    }
}

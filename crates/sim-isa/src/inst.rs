//! Static and dynamic instruction representations.

use crate::addr::Addr;
use crate::reg::Reg;
use serde::{Deserialize, Serialize};

/// Execution latency class of a non-control µ-op.
///
/// Latencies themselves live in the pipeline configuration; the ISA only
/// records the class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ExecClass {
    /// Simple integer ALU operation (1-cycle class).
    Alu,
    /// Integer multiply (3-cycle class).
    Mul,
    /// Integer divide (long-latency class).
    Div,
    /// Floating-point add/convert class.
    FpAdd,
    /// Floating-point multiply/FMA class.
    FpMul,
}

/// Control-flow class of a branch, as the BTB/BPU categorize it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchClass {
    /// Conditional direct branch.
    CondDirect,
    /// Unconditional direct jump.
    UncondDirect,
    /// Direct call (pushes a return address).
    Call,
    /// Indirect jump through a register.
    IndirectJump,
    /// Indirect call through a register.
    IndirectCall,
    /// Function return (pops the return address stack).
    Return,
}

impl BranchClass {
    /// `true` for the classes whose target comes from a register at run time
    /// (indirect jumps/calls and returns).
    #[inline]
    pub const fn is_indirect(self) -> bool {
        matches!(
            self,
            BranchClass::IndirectJump | BranchClass::IndirectCall | BranchClass::Return
        )
    }

    /// `true` if this class is always taken.
    #[inline]
    pub const fn is_unconditional(self) -> bool {
        !matches!(self, BranchClass::CondDirect)
    }
}

/// The operation performed by a [`StaticInst`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InstKind {
    /// Non-memory compute operation of the given latency class.
    Op(ExecClass),
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional direct branch; not-taken falls through.
    CondBranch {
        /// Taken target.
        target: Addr,
    },
    /// Unconditional direct jump.
    Jump {
        /// Jump target.
        target: Addr,
    },
    /// Direct call; pushes `pc + 4` on the call stack.
    Call {
        /// Callee entry point.
        target: Addr,
    },
    /// Indirect jump; target produced by the workload's behaviour model.
    IndirectJump,
    /// Indirect call; target produced by the workload's behaviour model.
    IndirectCall,
    /// Return to the most recent call site.
    Return,
}

impl InstKind {
    /// The branch class, or `None` for non-control instructions.
    #[inline]
    pub const fn branch_class(self) -> Option<BranchClass> {
        match self {
            InstKind::CondBranch { .. } => Some(BranchClass::CondDirect),
            InstKind::Jump { .. } => Some(BranchClass::UncondDirect),
            InstKind::Call { .. } => Some(BranchClass::Call),
            InstKind::IndirectJump => Some(BranchClass::IndirectJump),
            InstKind::IndirectCall => Some(BranchClass::IndirectCall),
            InstKind::Return => Some(BranchClass::Return),
            InstKind::Op(_) | InstKind::Load | InstKind::Store => None,
        }
    }

    /// The statically encoded target for direct control flow, if any.
    #[inline]
    pub const fn direct_target(self) -> Option<Addr> {
        match self {
            InstKind::CondBranch { target }
            | InstKind::Jump { target }
            | InstKind::Call { target } => Some(target),
            _ => None,
        }
    }

    /// `true` for loads and stores.
    #[inline]
    pub const fn is_mem(self) -> bool {
        matches!(self, InstKind::Load | InstKind::Store)
    }
}

/// An instruction as it exists in the program image.
///
/// `StaticInst` deliberately does not know its own address: the program
/// stores instructions densely and the address is implied by position. Use
/// [`StaticInst::new`] plus the `with_*` builders to construct one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticInst {
    /// What the instruction does.
    pub kind: InstKind,
    /// Destination register, if the instruction writes one.
    pub dst: Option<Reg>,
    /// Up to two source registers.
    pub srcs: [Option<Reg>; 2],
}

impl StaticInst {
    /// Creates an instruction with no register operands.
    #[inline]
    pub const fn new(kind: InstKind) -> Self {
        StaticInst {
            kind,
            dst: None,
            srcs: [None, None],
        }
    }

    /// Sets the destination register.
    #[inline]
    pub const fn with_dst(mut self, dst: Reg) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Sets up to two source registers; extras are ignored.
    #[inline]
    pub fn with_srcs(mut self, srcs: &[Reg]) -> Self {
        for (slot, &r) in self.srcs.iter_mut().zip(srcs.iter()) {
            *slot = Some(r);
        }
        self
    }

    /// `true` if this is any control-flow instruction.
    #[inline]
    pub const fn is_branch(&self) -> bool {
        self.kind.branch_class().is_some()
    }

    /// `true` if this is a conditional direct branch.
    #[inline]
    pub const fn is_cond_branch(&self) -> bool {
        matches!(self.kind, InstKind::CondBranch { .. })
    }
}

/// One dynamic execution of an instruction on the architecturally correct
/// path, as produced by the oracle executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DynInst {
    /// Address of the instruction.
    pub pc: Addr,
    /// The static instruction.
    pub inst: StaticInst,
    /// Address of the next instruction on the correct path.
    pub next_pc: Addr,
    /// For branches: whether the branch was taken. `false` otherwise.
    pub taken: bool,
    /// For loads/stores: the effective address. [`Addr::NULL`] otherwise.
    pub mem_addr: Addr,
}

impl DynInst {
    /// `true` if the correct path leaves the sequential stream here.
    #[inline]
    pub fn redirects(&self) -> bool {
        self.next_pc != self.pc.next_inst()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn branch_classes() {
        assert_eq!(
            InstKind::CondBranch {
                target: Addr::new(8)
            }
            .branch_class(),
            Some(BranchClass::CondDirect)
        );
        assert_eq!(InstKind::Return.branch_class(), Some(BranchClass::Return));
        assert_eq!(InstKind::Op(ExecClass::Alu).branch_class(), None);
        assert!(BranchClass::Return.is_indirect());
        assert!(BranchClass::IndirectCall.is_indirect());
        assert!(!BranchClass::CondDirect.is_indirect());
        assert!(!BranchClass::CondDirect.is_unconditional());
        assert!(BranchClass::Call.is_unconditional());
    }

    #[test]
    fn direct_targets() {
        let t = Addr::new(0x80);
        assert_eq!(InstKind::Call { target: t }.direct_target(), Some(t));
        assert_eq!(InstKind::IndirectJump.direct_target(), None);
        assert_eq!(InstKind::Load.direct_target(), None);
    }

    #[test]
    fn builder_sets_operands() {
        let i = StaticInst::new(InstKind::Op(ExecClass::Mul))
            .with_dst(Reg::new(1))
            .with_srcs(&[Reg::new(2), Reg::new(3)]);
        assert_eq!(i.dst, Some(Reg::new(1)));
        assert_eq!(i.srcs, [Some(Reg::new(2)), Some(Reg::new(3))]);
        assert!(!i.is_branch());
    }

    #[test]
    fn extra_srcs_ignored() {
        let i = StaticInst::new(InstKind::Load).with_srcs(&[Reg::new(1), Reg::new(2), Reg::new(3)]);
        assert_eq!(i.srcs, [Some(Reg::new(1)), Some(Reg::new(2))]);
        assert!(i.kind.is_mem());
    }

    #[test]
    fn dyn_inst_redirect() {
        let pc = Addr::new(0x100);
        let d = DynInst {
            pc,
            inst: StaticInst::new(InstKind::CondBranch {
                target: Addr::new(0x200),
            }),
            next_pc: Addr::new(0x200),
            taken: true,
            mem_addr: Addr::NULL,
        };
        assert!(d.redirects());
        let seq = DynInst {
            next_pc: pc.next_inst(),
            taken: false,
            ..d
        };
        assert!(!seq.redirects());
    }
}

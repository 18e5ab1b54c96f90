//! The static program image: one packed record per instruction, laid out
//! densely, plus a table holding only the behaviours that exist.

use crate::behavior::{Behavior, IndirectBehavior};
use sim_isa::reg::NUM_REGS;
use sim_isa::{Addr, ExecClass, InstKind, Reg, StaticInst, INST_BYTES};

/// Base address at which programs are laid out.
pub const PROGRAM_BASE: u64 = 0x0001_0000;

/// Register id of an absent operand in a [`Packed`] record.
const NO_REG: u8 = u8::MAX;
/// Behaviour slot of an instruction without a behaviour.
const NO_BEHAVIOR: u32 = u32::MAX;
/// What [`Program::behavior`] returns for an instruction without one.
static NO_BEHAVIOR_MODEL: Behavior = Behavior::None;

/// The address of the instruction at index `idx` of an image.
pub(crate) fn addr_at(idx: usize) -> Addr {
    Addr::new(PROGRAM_BASE + idx as u64 * INST_BYTES)
}

/// The operation of a [`Packed`] record: an [`InstKind`] without its
/// target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
enum Op {
    Alu,
    Mul,
    Div,
    FpAdd,
    FpMul,
    Load,
    Store,
    CondBranch,
    Jump,
    Call,
    IndirectJump,
    IndirectCall,
    Return,
}

/// One static instruction in 12 bytes: its operation, `u8` register ids
/// ([`NO_REG`] when absent), its direct target as an instruction index
/// (0 for other kinds) and its slot in the behaviour table
/// ([`NO_BEHAVIOR`] when it has none).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packed {
    op: Op,
    dst: u8,
    srcs: [u8; 2],
    target: u32,
    behavior: u32,
}

fn pack_reg(r: Option<Reg>) -> u8 {
    r.map_or(NO_REG, |r| r.index() as u8)
}

#[inline]
fn unpack_reg(r: u8) -> Option<Reg> {
    (r < NUM_REGS).then(|| Reg::new(r))
}

impl Packed {
    #[inline]
    fn decode(self) -> StaticInst {
        let target = addr_at(self.target as usize);
        let kind = match self.op {
            Op::Alu => InstKind::Op(ExecClass::Alu),
            Op::Mul => InstKind::Op(ExecClass::Mul),
            Op::Div => InstKind::Op(ExecClass::Div),
            Op::FpAdd => InstKind::Op(ExecClass::FpAdd),
            Op::FpMul => InstKind::Op(ExecClass::FpMul),
            Op::Load => InstKind::Load,
            Op::Store => InstKind::Store,
            Op::CondBranch => InstKind::CondBranch { target },
            Op::Jump => InstKind::Jump { target },
            Op::Call => InstKind::Call { target },
            Op::IndirectJump => InstKind::IndirectJump,
            Op::IndirectCall => InstKind::IndirectCall,
            Op::Return => InstKind::Return,
        };
        StaticInst {
            kind,
            dst: unpack_reg(self.dst),
            srcs: [unpack_reg(self.srcs[0]), unpack_reg(self.srcs[1])],
        }
    }
}

/// A program image being written: instructions are appended in layout
/// order, and branch targets can be patched in place until
/// [`ImageWriter::finish`] freezes it into a [`Program`].
#[derive(Debug, Default)]
pub(crate) struct ImageWriter {
    image: Vec<Packed>,
    behaviors: Vec<Behavior>,
}

impl ImageWriter {
    /// Number of instructions written so far: the index the next one gets.
    pub(crate) fn len(&self) -> usize {
        self.image.len()
    }

    /// Appends `inst` with `behavior` and returns its index. A direct
    /// target must be an instruction address at or above
    /// [`PROGRAM_BASE`]; [`ImageWriter::finish`] checks that it lands
    /// inside the image.
    ///
    /// # Panics
    ///
    /// Panics if a direct target lies below the image or off an
    /// instruction boundary.
    pub(crate) fn push(&mut self, inst: StaticInst, behavior: Behavior) -> usize {
        let (op, target) = match inst.kind {
            InstKind::Op(ExecClass::Alu) => (Op::Alu, None),
            InstKind::Op(ExecClass::Mul) => (Op::Mul, None),
            InstKind::Op(ExecClass::Div) => (Op::Div, None),
            InstKind::Op(ExecClass::FpAdd) => (Op::FpAdd, None),
            InstKind::Op(ExecClass::FpMul) => (Op::FpMul, None),
            InstKind::Load => (Op::Load, None),
            InstKind::Store => (Op::Store, None),
            InstKind::CondBranch { target } => (Op::CondBranch, Some(target)),
            InstKind::Jump { target } => (Op::Jump, Some(target)),
            InstKind::Call { target } => (Op::Call, Some(target)),
            InstKind::IndirectJump => (Op::IndirectJump, None),
            InstKind::IndirectCall => (Op::IndirectCall, None),
            InstKind::Return => (Op::Return, None),
        };
        let at = self.image.len();
        let target = target.map_or(0, |t| {
            let raw = t.raw();
            assert!(
                raw >= PROGRAM_BASE && raw.is_multiple_of(INST_BYTES),
                "branch at {} targets {t}, outside program",
                addr_at(at)
            );
            u32::try_from((raw - PROGRAM_BASE) / INST_BYTES).expect("target index fits u32")
        });
        let slot = if matches!(behavior, Behavior::None) {
            NO_BEHAVIOR
        } else {
            self.behaviors.push(behavior);
            u32::try_from(self.behaviors.len() - 1).expect("behaviour slot fits u32")
        };
        self.image.push(Packed {
            op,
            dst: pack_reg(inst.dst),
            srcs: [pack_reg(inst.srcs[0]), pack_reg(inst.srcs[1])],
            target,
            behavior: slot,
        });
        at
    }

    /// Points the direct branch at index `at` to instruction `target`.
    pub(crate) fn set_target(&mut self, at: usize, target: usize) {
        self.image[at].target = u32::try_from(target).expect("target index fits u32");
    }

    /// Rewrites every target of the instruction at `at` through `f`, on
    /// instruction indices: its direct target, or each target of its
    /// indirect behaviour.
    pub(crate) fn retarget(&mut self, at: usize, f: impl Fn(usize) -> usize) {
        let rec = &mut self.image[at];
        if matches!(rec.op, Op::CondBranch | Op::Jump | Op::Call) {
            rec.target = u32::try_from(f(rec.target as usize)).expect("target index fits u32");
        }
        let Some(Behavior::Indirect(b)) = self.behaviors.get_mut(rec.behavior as usize) else {
            return;
        };
        let targets = match b {
            IndirectBehavior::Mono { target } => std::slice::from_mut(target),
            IndirectBehavior::Rotate { targets } | IndirectBehavior::Scramble { targets } => {
                &mut targets[..]
            }
        };
        for t in targets {
            *t = addr_at(f(((t.raw() - PROGRAM_BASE) / INST_BYTES) as usize));
        }
    }

    /// Sets the source registers of the instruction at `at`.
    pub(crate) fn set_srcs(&mut self, at: usize, srcs: [Option<Reg>; 2]) {
        self.image[at].srcs = srcs.map(pack_reg);
    }

    /// Freezes the image into a program entered at `entry`.
    ///
    /// # Panics
    ///
    /// Panics if the image is empty, if `entry` is outside it, or if a
    /// direct branch targets an instruction past its end.
    pub(crate) fn finish(mut self, entry: Addr) -> Program {
        assert!(!self.image.is_empty(), "empty program");
        self.image.shrink_to_fit();
        self.behaviors.shrink_to_fit();
        let p = Program {
            base: Addr::new(PROGRAM_BASE),
            image: self.image.into_boxed_slice(),
            behaviors: self.behaviors.into_boxed_slice(),
            entry,
        };
        assert!(p.index_of(entry).is_some(), "entry point outside program");
        p.validate();
        p
    }
}

/// A static program: instructions laid out densely from [`PROGRAM_BASE`],
/// each with at most one [`Behavior`].
///
/// The whole image is addressable, which is what lets the simulator walk
/// speculative paths (wrong path, alternate path) through real code.
/// Instructions are stored packed and decoded on access, and only the
/// instructions that have a behaviour occupy a slot of the behaviour
/// table (a third of a server program's).
#[derive(Clone, Debug, PartialEq)]
pub struct Program {
    base: Addr,
    image: Box<[Packed]>,
    behaviors: Box<[Behavior]>,
    entry: Addr,
}

impl Program {
    /// Assembles a program from instructions and their parallel behaviours.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors differ in length, if the program is empty,
    /// if `entry` is out of range or if a direct target is outside the
    /// program.
    pub fn new(insts: Vec<StaticInst>, behaviors: Vec<Behavior>, entry: Addr) -> Self {
        assert_eq!(
            insts.len(),
            behaviors.len(),
            "behaviour table length mismatch"
        );
        let mut w = ImageWriter::default();
        for (inst, behavior) in insts.into_iter().zip(behaviors) {
            w.push(inst, behavior);
        }
        w.finish(entry)
    }

    /// First address of the program image.
    #[inline]
    pub fn base(&self) -> Addr {
        self.base
    }

    /// The execution entry point (the driver function).
    #[inline]
    pub fn entry(&self) -> Addr {
        self.entry
    }

    /// Number of static instructions.
    #[inline]
    pub fn len(&self) -> usize {
        self.image.len()
    }

    /// `true` if the program holds no instructions (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.image.is_empty()
    }

    /// Static code footprint in bytes.
    #[inline]
    pub fn footprint_bytes(&self) -> u64 {
        self.image.len() as u64 * INST_BYTES
    }

    /// One-past-the-end address of the image.
    #[inline]
    pub fn end(&self) -> Addr {
        Addr::new(self.base.raw() + self.footprint_bytes())
    }

    /// Index of the instruction at `pc`, or `None` if `pc` is outside the
    /// image or misaligned.
    #[inline]
    pub fn index_of(&self, pc: Addr) -> Option<usize> {
        let raw = pc.raw();
        let base = self.base.raw();
        if raw < base || !raw.is_multiple_of(INST_BYTES) {
            return None;
        }
        let idx = ((raw - base) / INST_BYTES) as usize;
        (idx < self.image.len()).then_some(idx)
    }

    /// Address of the instruction at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn addr_of(&self, idx: usize) -> Addr {
        assert!(idx < self.image.len());
        Addr::new(self.base.raw() + idx as u64 * INST_BYTES)
    }

    /// The instruction at index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn inst(&self, idx: usize) -> StaticInst {
        self.image[idx].decode()
    }

    /// The instruction at `pc`, if inside the image.
    #[inline]
    pub fn inst_at(&self, pc: Addr) -> Option<StaticInst> {
        self.index_of(pc).map(|i| self.inst(i))
    }

    /// The behaviour of the instruction at index `idx`
    /// ([`Behavior::None`] if it has none).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    #[inline]
    pub fn behavior(&self, idx: usize) -> &Behavior {
        self.behaviors
            .get(self.image[idx].behavior as usize)
            .unwrap_or(&NO_BEHAVIOR_MODEL)
    }

    /// Iterates `(address, instruction)` pairs in layout order.
    pub fn iter(&self) -> impl Iterator<Item = (Addr, StaticInst)> + '_ {
        (0..self.len()).map(move |i| (self.addr_of(i), self.inst(i)))
    }

    /// Sanity-checks internal consistency: every direct branch target and
    /// every indirect behaviour's target lands inside the image. Returns
    /// the number of direct branches checked.
    ///
    /// # Panics
    ///
    /// Panics if a target is out of range.
    pub fn validate(&self) -> usize {
        let mut checked = 0;
        for (pc, inst) in self.iter() {
            if let Some(t) = inst.kind.direct_target() {
                assert!(
                    self.index_of(t).is_some(),
                    "branch at {pc} targets {t}, outside program"
                );
                checked += 1;
            }
        }
        for b in self.behaviors.iter() {
            if let Behavior::Indirect(b) = b {
                for &t in b.targets() {
                    assert!(
                        self.index_of(t).is_some(),
                        "indirect target {t} outside program"
                    );
                }
            }
        }
        checked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{ExecClass, InstKind};

    fn tiny() -> Program {
        let insts = vec![
            StaticInst::new(InstKind::Op(ExecClass::Alu)),
            StaticInst::new(InstKind::Jump {
                target: Addr::new(PROGRAM_BASE),
            }),
        ];
        let behaviors = vec![Behavior::None, Behavior::None];
        Program::new(insts, behaviors, Addr::new(PROGRAM_BASE))
    }

    #[test]
    fn a_packed_instruction_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Packed>(), 12);
    }

    #[test]
    fn every_kind_and_operand_round_trips() {
        let t = addr_at(1);
        let kinds = [
            InstKind::Op(ExecClass::Alu),
            InstKind::Op(ExecClass::Mul),
            InstKind::Op(ExecClass::Div),
            InstKind::Op(ExecClass::FpAdd),
            InstKind::Op(ExecClass::FpMul),
            InstKind::Load,
            InstKind::Store,
            InstKind::CondBranch { target: t },
            InstKind::Jump { target: t },
            InstKind::Call { target: t },
            InstKind::IndirectJump,
            InstKind::IndirectCall,
            InstKind::Return,
        ];
        let insts: Vec<StaticInst> = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| match i % 3 {
                0 => StaticInst::new(k),
                1 => StaticInst::new(k).with_dst(Reg::new(NUM_REGS - 1)),
                _ => StaticInst::new(k)
                    .with_dst(Reg::new(0))
                    .with_srcs(&[Reg::new(7), Reg::new(63)]),
            })
            .collect();
        let behaviors = vec![Behavior::None; insts.len()];
        let p = Program::new(insts.clone(), behaviors, addr_at(0));
        let back: Vec<StaticInst> = p.iter().map(|(_, i)| i).collect();
        assert_eq!(back, insts);
    }

    #[test]
    fn only_present_behaviours_take_a_slot() {
        let m = crate::behavior::MemBehavior::RandomIn { base: 64, span: 8 };
        let insts = vec![
            StaticInst::new(InstKind::Load),
            StaticInst::new(InstKind::Op(ExecClass::Alu)),
            StaticInst::new(InstKind::Store),
        ];
        let behaviors = vec![Behavior::Mem(m), Behavior::None, Behavior::Mem(m)];
        let p = Program::new(insts, behaviors.clone(), addr_at(0));
        assert_eq!(p.behaviors.len(), 2);
        for (i, b) in behaviors.iter().enumerate() {
            assert_eq!(p.behavior(i), b);
        }
    }

    #[test]
    fn index_addr_round_trip() {
        let p = tiny();
        for i in 0..p.len() {
            assert_eq!(p.index_of(p.addr_of(i)), Some(i));
        }
    }

    #[test]
    fn out_of_range_lookups_fail() {
        let p = tiny();
        assert_eq!(p.index_of(Addr::new(PROGRAM_BASE - 4)), None);
        assert_eq!(p.index_of(p.end()), None);
        assert_eq!(p.index_of(Addr::new(PROGRAM_BASE + 1)), None, "misaligned");
        assert!(p.inst_at(Addr::new(0)).is_none());
    }

    #[test]
    fn footprint_matches_len() {
        let p = tiny();
        assert_eq!(p.footprint_bytes(), 8);
        assert_eq!(p.end().raw(), PROGRAM_BASE + 8);
        assert!(!p.is_empty());
    }

    #[test]
    fn validate_accepts_in_range_targets() {
        assert_eq!(tiny().validate(), 1);
    }

    #[test]
    #[should_panic(expected = "outside program")]
    fn targets_below_the_image_are_rejected() {
        let insts = vec![StaticInst::new(InstKind::Jump {
            target: Addr::new(0x10),
        })];
        let _ = Program::new(insts, vec![Behavior::None], Addr::new(PROGRAM_BASE));
    }

    #[test]
    #[should_panic(expected = "outside program")]
    fn targets_past_the_image_are_rejected() {
        let insts = vec![StaticInst::new(InstKind::Jump { target: addr_at(1) })];
        let _ = Program::new(insts, vec![Behavior::None], Addr::new(PROGRAM_BASE));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_tables_rejected() {
        let insts = vec![StaticInst::new(InstKind::Op(ExecClass::Alu))];
        let _ = Program::new(insts, vec![], Addr::new(PROGRAM_BASE));
    }

    #[test]
    fn iter_yields_layout_order() {
        let p = tiny();
        let addrs: Vec<_> = p.iter().map(|(a, _)| a).collect();
        assert_eq!(
            addrs,
            vec![Addr::new(PROGRAM_BASE), Addr::new(PROGRAM_BASE + 4)]
        );
    }
}

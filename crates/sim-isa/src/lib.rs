//! Fixed-width RISC-like ISA model for the UCP reproduction.
//!
//! The paper evaluates on ARMv8 traces and assumes that every architectural
//! instruction is 4 bytes, aligned, and decodes to exactly one µ-op. This
//! crate models exactly that: a small RISC-like ISA with fixed 4-byte
//! instructions, 64 architectural registers, and a one-to-one
//! instruction-to-µ-op mapping.
//!
//! The two central types are [`StaticInst`] (an instruction as it exists in
//! the program image — what a decoder sees) and [`DynInst`] (one dynamic
//! execution of an instruction on the architecturally correct path — what the
//! oracle executor produces).
//!
//! # Examples
//!
//! ```
//! use sim_isa::{Addr, InstKind, Reg, StaticInst};
//!
//! let branch = StaticInst::new(InstKind::CondBranch { target: Addr::new(0x40) })
//!     .with_srcs(&[Reg::new(3)]);
//! assert!(branch.is_cond_branch());
//! assert_eq!(branch.kind.direct_target(), Some(Addr::new(0x40)));
//! ```

pub mod addr;
pub mod inst;
pub mod reg;
pub mod state;

pub use addr::{Addr, CACHE_LINE_BYTES, INST_BYTES, UOP_WINDOW_BYTES};
pub use inst::{BranchClass, DynInst, ExecClass, InstKind, StaticInst};
pub use reg::Reg;
pub use state::{fnv1a64, fnv1a64_parts, State, StateReader, StateWriter};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Addr>();
        assert_send_sync::<Reg>();
        assert_send_sync::<StaticInst>();
        assert_send_sync::<DynInst>();
        assert_send_sync::<InstKind>();
    }
}

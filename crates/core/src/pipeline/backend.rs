//! Event-time out-of-order backend: ROB + register scoreboard, in-order
//! commit.
//!
//! Each dispatched µ-op computes its completion cycle from its producers'
//! completion cycles (dataflow) plus a latency-class delay; loads probe the
//! data hierarchy. Commit retires completed µ-ops in order at the commit
//! width. This is the ChampSim style of backend modelling: precise enough
//! to expose frontend starvation and misprediction-resolution timing, which
//! is what the paper's evaluation measures.

use crate::config::BackendConfig;
use sim_isa::{DynInst, ExecClass, InstKind};
use ucp_frontend::BoundedQueue;

/// One ROB entry.
#[derive(Clone, Copy, Debug, Default)]
pub struct RobEntry {
    /// Correct-path position of the instruction.
    pub pos: u64,
    /// Cycle at which execution completes.
    pub complete: u64,
    /// Prediction record to resolve at completion, if this is a branch.
    pub rec: Option<u64>,
}

/// The backend.
#[derive(Clone, Debug)]
pub struct Backend {
    cfg: BackendConfig,
    rob: BoundedQueue<RobEntry>,
    /// Completion cycle of the last writer of each architectural register.
    reg_avail: [u64; 64],
}

impl Backend {
    /// Creates an empty backend.
    pub fn new(cfg: BackendConfig) -> Self {
        Backend {
            rob: BoundedQueue::new(cfg.rob_entries),
            reg_avail: [0; 64],
            cfg,
        }
    }

    /// `true` if another µ-op can be dispatched this cycle.
    pub fn has_space(&self) -> bool {
        !self.rob.is_full()
    }

    /// Current ROB occupancy.
    pub fn occupancy(&self) -> usize {
        self.rob.len()
    }

    /// Dispatches one µ-op at cycle `now`. For loads, `mem_ready` is the
    /// cycle the data hierarchy returns the value. Returns the µ-op's
    /// completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full (callers check [`Backend::has_space`]).
    pub fn dispatch(
        &mut self,
        now: u64,
        d: &DynInst,
        pos: u64,
        mem_ready: Option<u64>,
        rec: Option<u64>,
    ) -> u64 {
        assert!(self.has_space(), "dispatch into a full ROB");
        // Operand readiness.
        let mut ready = now + 1;
        for s in d.inst.srcs.iter().flatten() {
            ready = ready.max(self.reg_avail[s.index()]);
        }
        let complete = match d.inst.kind {
            InstKind::Op(class) => {
                let lat = match class {
                    ExecClass::Alu => self.cfg.lat_alu,
                    ExecClass::Mul => self.cfg.lat_mul,
                    ExecClass::Div => self.cfg.lat_div,
                    ExecClass::FpAdd => self.cfg.lat_fp_add,
                    ExecClass::FpMul => self.cfg.lat_fp_mul,
                };
                ready + lat
            }
            InstKind::Load => {
                let m = mem_ready.unwrap_or(ready + 1);
                ready.max(m)
            }
            // Stores complete once address/data are ready; the write drains
            // in the background.
            InstKind::Store => ready + 1,
            // Control transfers resolve in the branch unit.
            _ => ready + self.cfg.lat_branch,
        };
        if let Some(dst) = d.inst.dst {
            self.reg_avail[dst.index()] = complete;
        }
        self.rob
            .push(RobEntry { pos, complete, rec })
            .expect("ROB space was checked on entry");
        complete
    }

    /// Retires completed head entries, up to the commit width, and
    /// returns how many retired. `next_pos` is the correct-path position
    /// the oldest of them must carry (checked in debug builds).
    pub fn commit(&mut self, now: u64, next_pos: u64) -> usize {
        let mut retired = 0;
        while retired < self.cfg.commit_width as usize {
            match self.rob.front() {
                Some(e) if e.complete <= now => {
                    debug_assert_eq!(e.pos, next_pos + retired as u64, "in-order commit");
                    self.rob.pop();
                    retired += 1;
                }
                _ => break,
            }
        }
        retired
    }
}

sim_isa::state_fields!(Backend { rob, reg_avail } skip { cfg });
sim_isa::state_fields!(RobEntry { pos, complete, rec } skip {});

#[cfg(test)]
mod tests {
    use super::*;
    use sim_isa::{Addr, Reg, StaticInst};

    fn dyn_inst(kind: InstKind, dst: Option<Reg>, srcs: &[Reg]) -> DynInst {
        let mut inst = StaticInst::new(kind);
        if let Some(d) = dst {
            inst = inst.with_dst(d);
        }
        let inst = inst.with_srcs(srcs);
        DynInst {
            pc: Addr::new(0x100),
            inst,
            next_pc: Addr::new(0x104),
            taken: false,
            mem_addr: Addr::NULL,
        }
    }

    fn backend() -> Backend {
        Backend::new(BackendConfig::default())
    }

    #[test]
    fn independent_ops_complete_quickly() {
        let mut b = backend();
        let c = b.dispatch(
            10,
            &dyn_inst(InstKind::Op(ExecClass::Alu), Some(Reg::new(1)), &[]),
            0,
            None,
            None,
        );
        assert_eq!(c, 12, "now+1 issue, +1 ALU");
    }

    #[test]
    fn dependency_chains_serialize() {
        let mut b = backend();
        let c1 = b.dispatch(
            0,
            &dyn_inst(InstKind::Op(ExecClass::Div), Some(Reg::new(1)), &[]),
            0,
            None,
            None,
        );
        let c2 = b.dispatch(
            0,
            &dyn_inst(
                InstKind::Op(ExecClass::Alu),
                Some(Reg::new(2)),
                &[Reg::new(1)],
            ),
            1,
            None,
            None,
        );
        assert_eq!(c2, c1 + 1, "consumer waits for the divide");
    }

    #[test]
    fn loads_wait_for_memory() {
        let mut b = backend();
        let c = b.dispatch(
            0,
            &dyn_inst(InstKind::Load, Some(Reg::new(3)), &[]),
            0,
            Some(200),
            None,
        );
        assert_eq!(c, 200);
    }

    #[test]
    fn commit_is_in_order_and_width_limited() {
        let mut b = Backend::new(BackendConfig {
            commit_width: 2,
            ..BackendConfig::default()
        });
        for i in 0..4 {
            b.dispatch(
                0,
                &dyn_inst(InstKind::Op(ExecClass::Alu), None, &[]),
                i,
                None,
                None,
            );
        }
        assert_eq!(b.commit(100, 0), 2, "commit width");
        assert_eq!(b.rob.front().map(|e| e.pos), Some(2), "oldest first");
        assert_eq!(b.commit(100, 2), 2);
        assert_eq!(b.occupancy(), 0);
    }

    #[test]
    fn incomplete_head_blocks_commit() {
        let mut b = backend();
        b.dispatch(
            0,
            &dyn_inst(InstKind::Op(ExecClass::Div), None, &[]),
            0,
            None,
            None,
        );
        b.dispatch(
            0,
            &dyn_inst(InstKind::Op(ExecClass::Alu), None, &[]),
            1,
            None,
            None,
        );
        // At cycle 3 the ALU op is done but the div head is not.
        assert_eq!(b.commit(3, 0), 0);
    }

    #[test]
    fn rob_space_bounded() {
        let mut b = Backend::new(BackendConfig {
            rob_entries: 2,
            ..BackendConfig::default()
        });
        assert!(b.has_space());
        b.dispatch(
            0,
            &dyn_inst(InstKind::Op(ExecClass::Alu), None, &[]),
            0,
            None,
            None,
        );
        b.dispatch(
            0,
            &dyn_inst(InstKind::Op(ExecClass::Alu), None, &[]),
            1,
            None,
            None,
        );
        assert!(!b.has_space());
        assert_eq!(b.occupancy(), 2);
    }

    #[test]
    fn branch_records_flow_through() {
        let mut b = backend();
        let target = Addr::new(0x200);
        b.dispatch(
            0,
            &dyn_inst(InstKind::CondBranch { target }, None, &[]),
            0,
            None,
            Some(99),
        );
        assert_eq!(b.rob.front().and_then(|e| e.rec), Some(99));
        assert_eq!(b.commit(100, 0), 1);
    }
}

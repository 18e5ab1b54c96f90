//! Branch prediction for the UCP reproduction.
//!
//! Implements the full predictor stack of the paper's Table II and §IV:
//!
//! * [`TageScL`] — the conditional predictor (TAGE + statistical corrector
//!   plus loop predictor) at 64 KB (main), 8 KB (Alt-BP) and 128 KB
//!   (Fig. 16's doubled budget), with per-prediction **provider
//!   attribution** (HitBank, AltBank, bimodal, bimodal>1in8, SC, LP),
//! * [`Ittage`] — the indirect-target predictor at 64 KB (main) and 4 KB
//!   (Alt-Ind),
//! * [`TageConf`] / [`UcpConf`] — the storage-free H2P confidence
//!   estimators compared in Fig. 9,
//! * [`HistoryState`] / [`PathHistory`] — speculative global and path
//!   histories with folded views; path folds are computed when read, and
//!   a [`HistCheckpoint`] of either is its write pointer.
//!
//! Tables and histories are deliberately separated: the UCP engine runs an
//! *alternate-path* history against the same Alt-BP tables, exactly as
//! §IV-C of the paper describes.
//!
//! # Examples
//!
//! ```
//! use ucp_bpred::{SclPreset, TageScL};
//! use sim_isa::Addr;
//!
//! let mut bp = TageScL::new(SclPreset::Main64K);
//! let mut hist = bp.new_history();
//! let pc = Addr::new(0x1000);
//! for i in 0..100u32 {
//!     let pred = bp.predict(&hist, pc);
//!     let outcome = i % 2 == 0;
//!     bp.update(pc, &pred, outcome);
//!     hist.push(outcome);
//! }
//! ```

pub mod bimodal;
pub mod confidence;
pub mod history;
pub mod ittage;
pub mod loop_pred;
pub mod sc;
pub mod tage;
pub mod tage_sc_l;

pub use bimodal::Bimodal;
pub use confidence::{ConfidenceEstimator, TageConf, UcpConf};
pub use history::{FoldSpec, HistCheckpoint, HistoryState, PathHistory};
pub use ittage::{push_target_history, Ittage, IttageParams, IttagePrediction};
pub use loop_pred::{LoopPrediction, LoopPredictor};
pub use sc::{Sc, ScParams, ScPrediction};
pub use tage::{Tage, TageParams, TagePrediction, TageProvider};
pub use tage_sc_l::{Provider, SclPrediction, SclPreset, TageScL};

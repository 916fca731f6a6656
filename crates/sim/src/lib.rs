//! Cycle-level HNLPU system simulator.
//!
//! Reproduces the paper's §6.1 performance methodology: a cycle-level
//! single-chip model plus a CNSim-style multi-chip interconnect model,
//! generating Table 2's throughput and Figure 14's execution-time breakdown.
//!
//! * [`config`] — the simulated machine description (4×4 CXL fabric,
//!   projection/nonlinear timings, VEX attention rate, buffer/HBM rates).
//! * [`fabric`] — collective-communication timing over the row/column
//!   fully-connected CXL fabric.
//! * [`pipeline`] — per-layer/6-stage timing, the pipeline advance interval,
//!   steady-state throughput, and the per-token execution-time breakdown.
//! * [`hbm`] — KV-cache capacity/bandwidth accounting (attention buffer vs
//!   HBM spill, double buffering).
//! * [`scheduler`] — continuous batching over the 216 pipeline slots.
//! * [`engine`] — the top-level [`engine::HnlpuEngine`] facade.
//!
//! # Example
//!
//! ```
//! use hnlpu_sim::engine::HnlpuEngine;
//! let engine = HnlpuEngine::paper_default();
//! let tput = engine.decode_throughput(2048);
//! // Table 2: 249,960 tokens/s at 2K context.
//! assert!((tput - 249_960.0).abs() / 249_960.0 < 0.05);
//! ```

#![warn(missing_docs)]
pub mod config;
pub mod engine;
pub mod fabric;
pub mod hbm;
pub mod packet;
pub mod pipeline;
pub mod power;
pub mod scheduler;
pub mod workload;

pub use config::{CxlParams, SimConfig};
pub use engine::HnlpuEngine;
pub use fabric::{collective_cycles, collective_retry_ns, retry_round_factor, CollectiveKind};
pub use hbm::KvCacheModel;
pub use packet::{PacketFabric, PacketSim, PacketSimReport};
pub use pipeline::{Breakdown, LayerTiming};
pub use power::{SystemPowerModel, WorkloadEnergy};
pub use scheduler::{
    BatchScheduler, NoPrefix, PrefixOracle, Request, Round, RoundPlan, RoundPolicy,
    SchedulerReport, Step,
};
pub use workload::{
    shared_prefix_len, shared_prefix_tokens, WorkloadKind, WorkloadSpec, DIURNAL_PERIOD_S,
    SHARED_PREFIX_GROUPS,
};

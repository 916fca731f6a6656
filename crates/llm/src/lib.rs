//! Functional LLM inference: the reference transformer and the 16-chip
//! HNLPU dataflow executor.
//!
//! The paper's HNLPU is a *complete physical implementation* of gpt-oss
//! 120 B: token ids in, token ids out. This crate validates that the
//! partitioning/dataflow of §5 and Appendix A computes the same function as
//! a straightforward single-device transformer:
//!
//! * [`kernels`] — region-accumulation matvec kernels computing directly
//!   on packed FP4 codes (Figure 4's 16 POPCNT regions in software); both
//!   engines route every projection through them.
//! * [`tensor`] — minimal dense row-major matrix/vector kernels (the naive
//!   baseline path, LoRA, and dot products).
//! * [`ops`] — RMSNorm, softmax, SwiGLU, rotary embedding, top-k.
//! * [`scratch`] — the per-sequence [`Scratch`] arena of activation
//!   panels + rotary table that make the steady-state forward pass
//!   allocation-free.
//! * [`kv_cache`] — per-layer KV storage.
//! * [`sampler`] — greedy and seeded-multinomial logit sampling.
//! * [`mod@reference`] — the single-device decoder (GQA + MoE, pre-norm).
//! * [`dataflow`] — the 4×4-chip executor with explicit partial sums and
//!   collectives mirroring Figure 10, plus communication counters.
//! * [`batch`] — the batched engine: per-sequence KV slots stepped
//!   round by round as `hnlpu-sim`'s round policy decides, parallel
//!   across sequences (feature `parallel`, on by default), and offline
//!   replay of a closed batch.
//! * [`naive`] — the pre-optimization dense-`f32`, allocating decoder kept
//!   as the benchmark baseline and semantic cross-check.
//! * [`serve`] — the online serving frontend: bounded-queue admission,
//!   incremental prefill/decode scheduling on a virtual clock, per-token
//!   streaming, cancellation, and p50/p99 TTFT/TPOT SLO reporting —
//!   stepping the same round policy as the analytical planner.
//! * [`fault`] — deterministic chaos: seeded [`fault::FaultPlan`]s (chip
//!   kills, stragglers, link faults, request deadlines) that the server
//!   consumes on its virtual clock, making every degraded-mode run exactly
//!   reproducible; hardwired chips cannot be re-flashed, so failures are
//!   survived by remapping ([`dataflow::DegradedLayout`]), not repair.
//!
//! # Example
//!
//! ```
//! use hnlpu_llm::reference::Transformer;
//! use hnlpu_llm::dataflow::DataflowExecutor;
//! use hnlpu_model::{zoo, ModelWeights, WeightGenerator};
//!
//! let card = zoo::dataflow_test_model();
//! let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(7));
//! let reference = Transformer::new(w.clone());
//! let hnlpu = DataflowExecutor::new(w);
//! let prompt = [1u32, 5, 9];
//! let a = reference.generate_greedy(&prompt, 8);
//! let b = hnlpu.generate_greedy(&prompt, 8);
//! assert_eq!(a, b); // same tokens out of both machines
//! ```

#![warn(missing_docs)]
pub mod batch;
pub mod dataflow;
pub mod fault;
pub mod kernels;
pub mod kv_cache;
pub mod lora;
pub mod naive;
pub mod ops;
pub mod reference;
pub mod sampler;
pub mod scratch;
pub mod serve;
pub mod tensor;
pub mod tokenizer;

pub use batch::{BatchRunReport, BatchedDataflowExecutor, RecoveryStats, SequenceRequest};
pub use dataflow::{CommCounters, DataflowExecutor, DegradedLayout, GridError, GridHealth};
pub use fault::{ChaosSpec, FaultError, FaultPlan};
pub use kv_cache::{
    KvCache, PageBuf, PagePool, PageRef, PrefixCache, PrefixCacheConfig, PrefixMatch, PrefixStats,
    BLOCK_POSITIONS, PAGE_SLOTS,
};
pub use lora::LoraAdapter;
pub use naive::NaiveTransformer;
pub use reference::Transformer;
pub use sampler::Sampler;
pub use scratch::Scratch;
pub use serve::{OnlineServer, SeqId, SeqState, ServeError, ServeEvent, SloReport};
pub use tokenizer::AsciiTokenizer;

//! Set-up and one pass of a workload through the serving engine, plus
//! the checks every pass must satisfy.

use crate::workload::{self, Kind, Trace};
use hnlpu_llm::kv_cache::{PageBuf, PrefixCache, PrefixCacheConfig};
use hnlpu_llm::serve::{SeqState, ServeReport};
use hnlpu_llm::{
    BatchRunReport, BatchedDataflowExecutor, CommCounters, DataflowExecutor, OnlineServer,
};
use hnlpu_model::{zoo, ModelWeights, WeightGenerator};
use hnlpu_sim::scheduler::{BatchScheduler, PrefixOracle, Request, RoundPlan, SchedulerReport};
use hnlpu_sim::SimConfig;

/// Concurrent sequence slots of the engine (the machine's 6 × 36).
pub const SLOTS: usize = 216;
/// Nominal context the scheduler times rounds at.
pub const NOMINAL_CONTEXT: u64 = 2048;

/// The bench-mid model: hidden 256, 2 layers, vocab 2048, 8 query / 4 KV
/// heads of 32, 16 experts top-4 of 512, weight seed 2026. The same
/// configuration as `hnlpu_bench::inference::prefill_bench_weights`
/// (the self-test pins the two together).
pub fn bench_mid_weights() -> ModelWeights {
    let mut c = zoo::dataflow_test_model().config;
    c.hidden_size = 256;
    c.vocab_size = 2048;
    c.num_layers = 2;
    c.attention.head_dim = 32;
    c.attention.num_query_heads = 8;
    c.attention.num_kv_heads = 4;
    c.moe.num_experts = 16;
    c.moe.experts_per_token = 4;
    c.moe.intermediate_size = 512;
    ModelWeights::materialize(&c, &WeightGenerator::new(2026))
}

/// Everything a pass needs, built before timing starts.
pub struct Setup {
    pub kind: Kind,
    pub trace: Trace,
    /// The engine's weights (the executor keeps its own copy private),
    /// for the kernel probe.
    pub weights: ModelWeights,
    pub engine: BatchedDataflowExecutor,
    pub scheduler: BatchScheduler,
    /// A ready server for the first online pass.
    pub server: Option<OnlineServer>,
}

impl Setup {
    /// Materialize the weights, build engine, scheduler and (online)
    /// server, and generate the trace.
    pub fn build(kind: Kind, seed: u64, small: bool) -> Setup {
        let weights = bench_mid_weights();
        let vocab = weights.config.vocab_size as u32;
        let engine = BatchedDataflowExecutor::new(DataflowExecutor::new(weights.clone()), SLOTS)
            .with_prefix_cache(PrefixCacheConfig {
                page_budget: kind.page_budget(),
                ..PrefixCacheConfig::default()
            });
        let scheduler = BatchScheduler::new(SimConfig::paper_default(), NOMINAL_CONTEXT);
        let trace = workload::generate(kind, seed, vocab, small);
        let mut setup = Setup {
            kind,
            trace,
            weights,
            engine,
            scheduler,
            server: None,
        };
        if kind.is_online() {
            setup.server = Some(setup.new_server());
        }
        setup
    }

    /// A fresh server over a copy of the engine, its queue deep enough
    /// that the open-loop trace is never refused.
    pub fn new_server(&self) -> OnlineServer {
        OnlineServer::new(
            self.engine.clone(),
            &self.scheduler,
            self.trace.requests.len(),
        )
        .expect("the scheduler's slots fit the engine pool")
    }

    /// The analytical plan `run_with_scheduler` replays, with a
    /// benchmark-side oracle over a planning prefix tree.
    pub fn plan(&self) -> (SchedulerReport, Vec<RoundPlan>) {
        let sim: Vec<Request> = self
            .trace
            .requests
            .iter()
            .map(|r| r.to_sim_request())
            .collect();
        let mut oracle = TreeOracle {
            trace: &self.trace,
            // Eviction off, as the offline engine plans.
            cache: PrefixCache::new(PrefixCacheConfig::default()),
        };
        self.scheduler.plan_with_prefixes(&sim, &mut oracle)
    }
}

/// Prefix oracle over a tree of placeholder pages: the planner's view of
/// the prompts it schedules.
struct TreeOracle<'a> {
    trace: &'a Trace,
    cache: PrefixCache,
}

impl PrefixOracle for TreeOracle<'_> {
    fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
        self.trace
            .requests
            .get(seq)
            .map_or(0, |r| self.cache.match_prompt(&r.prompt).matched as u32)
    }

    fn on_prefill_complete(&mut self, seq: usize, _req: &Request) {
        let Some(r) = self.trace.requests.get(seq) else {
            return;
        };
        let per_block = self.cache.config().pages_per_block;
        let mut grant = Vec::new();
        self.cache.commit(
            &r.prompt,
            |_| vec![PageBuf::placeholder(); per_block],
            &mut grant,
        );
        self.cache.release_grant(&mut grant);
    }
}

/// What one pass produced, in the terms the metrics use.
#[derive(Debug, Clone, PartialEq)]
pub struct Pass {
    /// Completed token streams, indexed like the trace.
    pub outputs: Vec<Vec<u32>>,
    pub attempted: usize,
    pub completed: usize,
    /// Prompt tokens of completed requests plus decoded tokens.
    pub served_tokens: u64,
    /// Virtual time-to-first-token of each completed request, seconds.
    pub ttfts_s: Vec<f64>,
    /// Modeled decode throughput, tokens/s.
    pub virtual_tokens_per_s: f64,
    pub rounds: u64,
    pub decoded_tokens: u64,
    pub prefill_tokens: u64,
    /// Prompt chunks each request prefilled per round, from the round log.
    pub chunks: Vec<Vec<u32>>,
    pub comm: CommCounters,
    pub prefix: hnlpu_llm::PrefixStats,
    pub peak_kv_bytes: u64,
    pub peak_kv_owned_bytes: u64,
    /// Online only: virtual admission wait per request, seconds.
    pub queue_waits_s: Vec<f64>,
    /// Offline only: prefill panels executed.
    pub prefill_panels: u64,
}

/// Prompt chunk sizes per request, read off a round log whose sequence
/// `s` serves request `req_of[s]`.
fn chunks_of(plans: &[RoundPlan], req_of: &[usize], n: usize) -> Vec<Vec<u32>> {
    let mut chunks = vec![Vec::new(); n];
    for plan in plans {
        for &(seq, take) in &plan.prefill {
            if let Some(c) = req_of.get(seq).and_then(|&r| chunks.get_mut(r)) {
                c.push(take);
            }
        }
    }
    chunks
}

/// Summarize an online pass, checking its lifecycle ledger.
pub fn online_pass(
    setup: &Setup,
    server: &OnlineServer,
    submissions: &[Result<hnlpu_llm::SeqId, hnlpu_llm::ServeError>],
    report: &ServeReport,
) -> Result<Pass, String> {
    let reqs = &setup.trace.requests;
    // Request index of each accepted sequence; refused submissions stay
    // uncompleted and count as failed.
    let mut req_of = vec![usize::MAX; report.outcomes.len()];
    for (i, s) in submissions.iter().enumerate() {
        if let Ok(id) = s {
            match req_of.get_mut(id.0) {
                Some(r) => *r = i,
                None => return Err(format!("request {i} got {id}, which has no outcome")),
            }
        }
    }
    let slo = &report.slo;
    let mut outputs = vec![Vec::new(); reqs.len()];
    let mut ttfts_s = Vec::new();
    let mut queue_waits_s = Vec::new();
    let mut completed = 0;
    let mut served_prompt = 0u64;
    let mut comm = CommCounters::default();
    for o in &report.outcomes {
        if o.slot_frees != o.admissions {
            return Err(format!(
                "{}: {} slot frees for {} admissions",
                o.id, o.slot_frees, o.admissions
            ));
        }
        comm += o.comm;
        let i = req_of[o.id.0];
        let Some(req) = reqs.get(i) else {
            return Err(format!("{} answers no request", o.id));
        };
        if o.state == SeqState::Finished && o.tokens.len() == req.decode_tokens as usize {
            completed += 1;
            served_prompt += req.prompt.len() as u64;
            outputs[i] = o.tokens.clone();
            if let Some(t) = o.ttft_s {
                ttfts_s.push(t);
            }
        }
        if let Some(a) = o.admitted_s {
            queue_waits_s.push(a - o.arrival_s);
        }
    }
    if let Some(cache) = server.prefix_cache() {
        // After the drain no sequence holds a grant: every live page is
        // referenced by the tree alone, and the pool's ledger adds up.
        let pool = cache.pool();
        let s = pool.stats();
        if pool.max_ref_count() > 1 || s.registered - s.freed != pool.live() as u64 {
            return Err(format!(
                "prefix ledger unbalanced after drain: max refcount {}, registered {}, freed {}, live {}",
                pool.max_ref_count(),
                s.registered,
                s.freed,
                pool.live()
            ));
        }
    }
    Ok(Pass {
        outputs,
        attempted: reqs.len(),
        completed,
        served_tokens: served_prompt + slo.decoded_tokens,
        ttfts_s,
        virtual_tokens_per_s: slo.decode_tokens_per_s_virtual,
        rounds: slo.rounds,
        decoded_tokens: slo.decoded_tokens,
        prefill_tokens: slo.prefill_tokens,
        chunks: chunks_of(&report.plans, &req_of, reqs.len()),
        comm,
        prefix: slo.prefix,
        peak_kv_bytes: slo.peak_kv_bytes_fp16,
        peak_kv_owned_bytes: slo.peak_kv_owned_bytes_fp16,
        queue_waits_s,
        prefill_panels: 0,
    })
}

/// Summarize an offline pass. `plans` is the analytical plan the engine
/// replayed (see [`Setup::plan`]); it supplies the virtual
/// time-to-first-token of each request and its prefill chunks.
pub fn offline_pass(
    setup: &Setup,
    report: &BatchRunReport,
    timing: &SchedulerReport,
    plans: &[RoundPlan],
) -> Result<Pass, String> {
    let reqs = &setup.trace.requests;
    if !report.recovery.is_clean() {
        return Err("offline replay reported fault recovery".to_string());
    }
    if report.outputs.len() != reqs.len() {
        return Err(format!(
            "{} output streams for {} requests",
            report.outputs.len(),
            reqs.len()
        ));
    }
    let round_s = setup.scheduler.round_s();
    let mut first_decode: Vec<Option<usize>> = vec![None; reqs.len()];
    for (r, plan) in plans.iter().enumerate() {
        for &seq in &plan.decode {
            if let Some(f @ None) = first_decode.get_mut(seq) {
                *f = Some(r);
            }
        }
    }
    let mut outputs = vec![Vec::new(); reqs.len()];
    let mut ttfts_s = Vec::new();
    let mut completed = 0;
    let mut served_prompt = 0u64;
    for (i, (req, out)) in reqs.iter().zip(&report.outputs).enumerate() {
        if out.len() != req.decode_tokens as usize {
            continue;
        }
        completed += 1;
        served_prompt += req.prompt.len() as u64;
        outputs[i] = out.clone();
        if let Some(r) = first_decode[i] {
            // Rounds run back to back from t = 0; round r ends at (r+1)·round.
            ttfts_s.push((r + 1) as f64 * round_s - req.arrival_s_micros as f64 / 1e6);
        }
    }
    Ok(Pass {
        outputs,
        attempted: reqs.len(),
        completed,
        served_tokens: served_prompt + report.decoded_tokens,
        ttfts_s,
        virtual_tokens_per_s: timing.throughput_tokens_per_s,
        rounds: report.rounds,
        decoded_tokens: report.decoded_tokens,
        prefill_tokens: report.prefill_tokens,
        chunks: chunks_of(plans, &(0..reqs.len()).collect::<Vec<_>>(), reqs.len()),
        comm: report.comm,
        prefix: report.prefix,
        peak_kv_bytes: report.peak_kv_bytes_fp16,
        peak_kv_owned_bytes: report.peak_kv_owned_bytes_fp16,
        queue_waits_s: Vec::new(),
        prefill_panels: report.prefill_panels,
    })
}

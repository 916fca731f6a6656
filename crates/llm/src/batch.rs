//! Batched parallel inference over the 216 pipeline slots (§5.2).
//!
//! [`BatchedDataflowExecutor`] runs many sequences through one
//! [`DataflowExecutor`] the way the hardware does: a pool of KV-cache
//! slots (one per resident sequence), continuous-batching admission and
//! eviction, and per-round mixed prefill + decode stepping. Every round
//! is decided by `hnlpu-sim`'s [`RoundPolicy`](hnlpu_sim::RoundPolicy), the
//! same policy the
//! cycle-level timing model ([`BatchScheduler`]) steps, so the functional
//! engine executes *exactly* the slot assignments the timing model
//! priced. [`run_with_scheduler`](BatchedDataflowExecutor::run_with_scheduler)
//! replays a closed batch through the online server's loop
//! ([`crate::serve::OnlineServer`]) with no faults; the differential
//! harnesses in `tests/` assert the token streams are identical to running
//! [`DataflowExecutor`] per sequence.
//!
//! Sequences are mutually independent (each owns its KV state), so rounds
//! fan out across cores with `rayon` when the `parallel` feature (default)
//! is on; with `--no-default-features` the same rounds run serially.
//! Both paths are bit-exact: no cross-sequence arithmetic exists.

use crate::dataflow::{CommCounters, DataflowExecutor, DataflowState, GRID};
use crate::kv_cache::{PrefixCache, PrefixCacheConfig, PrefixStats};
use crate::reference::PrefillStats;
use crate::sampler::Sampler;
use crate::scratch::Scratch;
use crate::serve::OnlineServer;
use hnlpu_sim::scheduler::{BatchScheduler, Completion, Request, SchedulerReport, Step};
use serde::Serialize;
use std::fmt;
use std::time::Instant;

/// Why a batched run was rejected.
///
/// Requests are external input to the engine, so malformed ones surface
/// as typed errors before any compute instead of aborting a process that
/// may be serving hundreds of other sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// A request's prompt was empty.
    EmptyPrompt {
        /// Offending request index.
        seq: usize,
    },
    /// A request's prompt holds a token id outside the model vocabulary.
    TokenOutOfVocab {
        /// Offending request index.
        seq: usize,
        /// The first out-of-vocabulary token.
        token: u32,
    },
    /// The scheduler plans more slots than the engine pools.
    SlotsExceedCapacity {
        /// Slots the scheduler schedules.
        scheduled: usize,
        /// Slots the engine pools.
        capacity: usize,
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            BatchError::EmptyPrompt { seq } => {
                write!(f, "request {seq}: prompt must contain at least one token")
            }
            BatchError::TokenOutOfVocab { seq, token } => {
                write!(
                    f,
                    "request {seq}: prompt token {token} is outside the vocabulary"
                )
            }
            BatchError::SlotsExceedCapacity {
                scheduled,
                capacity,
            } => write!(
                f,
                "scheduler schedules {scheduled} slots but the engine pools {capacity}"
            ),
        }
    }
}

impl std::error::Error for BatchError {}

/// One sequence to serve: real prompt tokens plus a decode budget.
#[derive(Debug, Clone)]
pub struct SequenceRequest {
    /// Arrival time in microseconds (scheduler admission order).
    pub arrival_s_micros: u64,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<u32>,
    /// Tokens to decode after prefill.
    pub decode_tokens: u32,
    /// Per-sequence sampling policy.
    pub sampler: Sampler,
}

impl SequenceRequest {
    /// A greedy-decoded request.
    pub fn greedy(arrival_s_micros: u64, prompt: Vec<u32>, decode_tokens: u32) -> Self {
        SequenceRequest {
            arrival_s_micros,
            prompt,
            decode_tokens,
            sampler: Sampler::Greedy,
        }
    }

    /// The timing-model view of this request (token counts only).
    pub fn to_sim_request(&self) -> Request {
        Request::new(
            self.arrival_s_micros,
            self.prompt.len() as u32,
            self.decode_tokens,
        )
    }

    /// The first prompt token outside a `vocab`-entry embedding table.
    /// Both serving entry points refuse such a request before any compute:
    /// its embedding lookup would fail mid-round, taking every co-resident
    /// stream down with it.
    pub(crate) fn token_out_of_vocab(&self, vocab: usize) -> Option<u32> {
        self.prompt
            .iter()
            .copied()
            .find(|&t| usize::try_from(t).map_or(true, |t| t >= vocab))
    }
}

/// Typed accounting for fault recovery: sequences evicted by chip
/// failures and what became of them. Offline replay never injects
/// faults, so its reports carry the all-zero default; the online server
/// folds these from its event log.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// In-flight sequences evicted because a chip holding their KV died.
    pub evictions: u64,
    /// Evicted sequences re-admitted and re-prefilled into fresh slots.
    pub resumed: u64,
    /// Evicted sequences abandoned after exhausting recovery retries.
    pub failed: u64,
    /// Prompt + already-emitted tokens re-prefilled during recoveries.
    pub re_prefill_tokens: u64,
}

impl RecoveryStats {
    /// True when no fault ever touched a resident sequence.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

/// Result of one batched run.
#[derive(Debug, Clone)]
pub struct BatchRunReport {
    /// Fault-recovery accounting (all zero for offline replay).
    pub recovery: RecoveryStats,
    /// Decoded token streams, indexed like the input request slice.
    pub outputs: Vec<Vec<u32>>,
    /// Per-sequence communication counters, same indexing.
    pub per_sequence_comm: Vec<CommCounters>,
    /// Aggregate counters (the sum of `per_sequence_comm`).
    pub comm: CommCounters,
    /// Pipeline rounds executed.
    pub rounds: u64,
    /// Total decoded tokens.
    pub decoded_tokens: u64,
    /// Total prefilled prompt tokens.
    pub prefill_tokens: u64,
    /// Matmul prefill panels executed across all sequences. A healthy
    /// schedule keeps this far below `prefill_tokens` — equality means
    /// every panel degenerated to T=1.
    pub prefill_panels: u64,
    /// Tokens in the widest prefill panel any sequence ran.
    pub prefill_max_panel: usize,
    /// Most live KV slots at once. A sequence takes its slot in the
    /// first round it receives prefill budget, not at admission, so this
    /// counts sequences that have started prefill and not yet finished.
    pub peak_resident: usize,
    /// Largest pooled KV footprint at fp16 storage, bytes. This is the
    /// *logical* footprint (what dense caches of the same fill would
    /// occupy); shared pages are counted once per referencing sequence.
    pub peak_kv_bytes_fp16: u64,
    /// Largest footprint of privately owned KV pages at fp16, bytes.
    /// Page-granular (can exceed `peak_kv_bytes_fp16` without sharing)
    /// and excluding every page committed to the prefix pool, so the gap
    /// between the two is not the capacity sharing recovered.
    pub peak_kv_owned_bytes_fp16: u64,
    /// Prefix-reuse counters (all zero when the engine runs dense).
    pub prefix: PrefixStats,
    /// Measured wall-clock time of the functional execution, seconds.
    pub wall_s: f64,
}

impl BatchRunReport {
    /// Measured functional decode rate, tokens/s.
    pub fn measured_decode_tokens_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.decoded_tokens as f64 / self.wall_s
        } else {
            0.0
        }
    }

    /// Measured functional total token rate (prefill + decode), tokens/s.
    pub fn measured_tokens_per_s(&self) -> f64 {
        if self.wall_s > 0.0 {
            (self.decoded_tokens + self.prefill_tokens) as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// A sequence's KV slot: its KV state plus generation progress. Created
/// the first round the [`RoundPolicy`](hnlpu_sim::RoundPolicy) gives the
/// sequence prefill budget
/// and dropped the round it leaves, so only sequences actually running
/// hold KV memory.
#[derive(Debug)]
pub(crate) struct SeqSlot {
    pub(crate) prompt: Vec<u32>,
    pub(crate) target: usize,
    pub(crate) sampler: Sampler,
    pub(crate) state: DataflowState,
    /// Per-slot scratch arena; its `logits()` hold the most recent step's
    /// output (valid once anything was stepped), and reusing it keeps the
    /// whole residency of the sequence allocation-free.
    pub(crate) scratch: Scratch,
    /// Prompt tokens consumed so far (a prefix-cache hit starts past the
    /// matched positions).
    pub(crate) prefill_pos: usize,
    /// Shared-pool page ids this sequence holds references on, released
    /// exactly once when the sequence leaves its slot.
    pub(crate) grant: Vec<u32>,
    /// Panel accounting for this sequence's prefill chunks.
    pub(crate) prefill_stats: PrefillStats,
    pub(crate) out: Vec<u32>,
}

/// The batched inference engine.
#[derive(Debug, Clone)]
pub struct BatchedDataflowExecutor {
    inner: DataflowExecutor,
    max_slots: usize,
    prefix: Option<PrefixCacheConfig>,
}

impl BatchedDataflowExecutor {
    /// An engine over `inner` with capacity for `max_slots` concurrently
    /// resident sequences (the hardware's 216 pipeline slots).
    ///
    /// # Panics
    ///
    /// Panics if `max_slots` is zero.
    pub fn new(inner: DataflowExecutor, max_slots: usize) -> Self {
        assert!(max_slots > 0, "need at least one sequence slot");
        BatchedDataflowExecutor {
            inner,
            max_slots,
            prefix: None,
        }
    }

    /// Enable paged prefix reuse: admitted prompts are matched against a
    /// shared radix tree and matched positions are attached by reference
    /// instead of being prefilled. `pages_per_block` is forced to the
    /// grid's shard count — one page per chip per committed block.
    ///
    /// Offline replay ([`run_with_scheduler`](Self::run_with_scheduler))
    /// shares with an *unbounded* page budget, so its schedule equals the
    /// analytical planner's with a never-evicting prefix oracle;
    /// `page_budget` governs the online server
    /// ([`crate::serve::OnlineServer`]), where budgeted LRU eviction runs.
    pub fn with_prefix_cache(mut self, mut cfg: PrefixCacheConfig) -> Self {
        cfg.pages_per_block = GRID * GRID;
        self.prefix = Some(cfg);
        self
    }

    /// The prefix-reuse configuration, when enabled.
    pub fn prefix_config(&self) -> Option<PrefixCacheConfig> {
        self.prefix
    }

    /// The wrapped per-sequence executor.
    pub fn executor(&self) -> &DataflowExecutor {
        &self.inner
    }

    /// Sequence-slot capacity.
    pub fn max_slots(&self) -> usize {
        self.max_slots
    }

    /// Serve a closed batch with `scheduler`'s slot count and round
    /// timing: a fault-free [`OnlineServer::run_trace`] over `requests`
    /// stably sorted by arrival, with the prefix cache (if any) on an
    /// unbounded page budget.
    ///
    /// Returns the functional report and the analytical timing report of
    /// the schedule that ran. The timing report equals
    /// [`BatchScheduler::plan_with_prefixes`] under a prefix oracle that
    /// matches what the engine's cache matched.
    ///
    /// # Errors
    ///
    /// [`BatchError::SlotsExceedCapacity`] when the scheduler's slot count
    /// exceeds this engine's capacity; [`BatchError::EmptyPrompt`] or
    /// [`BatchError::TokenOutOfVocab`] for the first malformed request.
    /// Nothing runs when an error is returned.
    pub fn run_with_scheduler(
        &self,
        requests: &[SequenceRequest],
        scheduler: &BatchScheduler,
    ) -> Result<(BatchRunReport, SchedulerReport), BatchError> {
        let mut engine = self.clone();
        if let Some(cfg) = engine.prefix.as_mut() {
            cfg.page_budget = usize::MAX;
        }
        // The server refuses only a scheduler wider than the slot pool.
        let mut server = OnlineServer::new(engine, scheduler, requests.len()).map_err(|_| {
            BatchError::SlotsExceedCapacity {
                scheduled: scheduler.slots(),
                capacity: self.max_slots,
            }
        })?;
        let vocab = self.inner.config().vocab_size;
        for (seq, r) in requests.iter().enumerate() {
            if r.prompt.is_empty() {
                return Err(BatchError::EmptyPrompt { seq });
            }
            if let Some(token) = r.token_out_of_vocab(vocab) {
                return Err(BatchError::TokenOutOfVocab { seq, token });
            }
        }
        // Server ids follow submission order; `order[id]` is the input
        // index of the request submitted as `id`.
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by_key(|&i| requests.get(i).map_or(0, |r| r.arrival_s_micros));
        let sorted: Vec<SequenceRequest> = order
            .iter()
            .filter_map(|&i| requests.get(i).cloned())
            .collect();

        let started = Instant::now();
        let trace = server.run_trace(&sorted, &[]);
        let wall_s = started.elapsed().as_secs_f64();

        let report = trace.report;
        let slo = report.slo;
        let mut outputs = vec![Vec::new(); requests.len()];
        let mut per_sequence_comm = vec![CommCounters::default(); requests.len()];
        let mut prefill = PrefillStats::default();
        let mut completions = Vec::with_capacity(requests.len());
        for (o, &seq) in report.outcomes.into_iter().zip(&order) {
            prefill.merge(o.prefill);
            if let Some(comm) = per_sequence_comm.get_mut(seq) {
                *comm = o.comm;
            }
            if let (Some(finish_s), Some(req)) = (o.finish_s, requests.get(seq)) {
                completions.push(Completion {
                    request: req.to_sim_request(),
                    finish_s,
                    latency_s: finish_s - o.arrival_s,
                });
            }
            if let Some(out) = outputs.get_mut(seq) {
                *out = o.tokens;
            }
        }
        // Stable: sequences finishing in one round keep admission order.
        completions.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s));
        let timing = SchedulerReport::from_rounds(
            &report.plans,
            completions,
            slo.makespan_s,
            scheduler.slots(),
        );
        let run = BatchRunReport {
            recovery: slo.recovery,
            comm: per_sequence_comm.iter().copied().sum(),
            outputs,
            per_sequence_comm,
            rounds: slo.rounds,
            decoded_tokens: slo.decoded_tokens,
            prefill_tokens: slo.prefill_tokens,
            prefill_panels: prefill.panels,
            prefill_max_panel: prefill.max_panel,
            peak_resident: slo.peak_resident,
            peak_kv_bytes_fp16: slo.peak_kv_bytes_fp16,
            peak_kv_owned_bytes_fp16: slo.peak_kv_owned_bytes_fp16,
            prefix: slo.prefix,
            wall_s,
        };
        Ok((run, timing))
    }

    /// The KV slot a sequence takes the first round it receives prefill
    /// budget: fresh for a new sequence, or its evicted `carcass` rebuilt.
    /// With a `cache`, the prompt is matched against the shared tree and
    /// the hit attached — full blocks by reference, the copy-on-write
    /// boundary page by copy — so the slot prefills only the unmatched
    /// suffix. Returns the slot and the matched positions (at most
    /// `prompt.len() − 1`).
    ///
    /// A carcass keeps its sampler state, emitted tokens and buffers; its
    /// KV context is cleared (the chip holding part of it died) and its
    /// prompt extended with every token already emitted. Token-exactness:
    /// the panel prefill is bit-identical to stepping tokens one at a
    /// time (`panel_prefill_is_bitwise_per_token_loop` pins this), and in
    /// the original run every emitted token except the last was stepped
    /// back into the machine. Re-prefilling `prompt ++ out` with logits on
    /// the final chunk therefore leaves the state and logits exactly where
    /// the interrupted sequence's next sample would have read them — the
    /// recovered stream continues bit-for-bit.
    pub(crate) fn open_slot(
        &self,
        req: &SequenceRequest,
        carcass: Option<SeqSlot>,
        cache: Option<&mut PrefixCache>,
    ) -> (SeqSlot, usize) {
        let mut slot = match carcass {
            Some(mut carcass) => {
                debug_assert!(
                    carcass.grant.is_empty(),
                    "evicted slot must have released its page grant"
                );
                carcass.state.reset_context();
                carcass.prompt = req.prompt.clone();
                carcass.prompt.extend_from_slice(&carcass.out);
                carcass.prefill_pos = 0;
                carcass
            }
            None => SeqSlot {
                prompt: req.prompt.clone(),
                target: req.decode_tokens as usize,
                sampler: req.sampler.clone(),
                state: self.inner.new_state(),
                scratch: self.inner.new_scratch(),
                prefill_pos: 0,
                grant: Vec::new(),
                prefill_stats: PrefillStats::default(),
                out: Vec::new(),
            },
        };
        let Some(cache) = cache else {
            return (slot, 0);
        };
        let m = cache.match_prompt(&slot.prompt);
        if m.matched > 0 {
            cache.retain_match(&m, &mut slot.grant);
            slot.state.attach_prefix(m.matched, &m.blocks, cache.pool());
            slot.prefill_pos = m.matched;
        }
        (slot, m.matched)
    }

    /// One pipeline round: every work item advances independently, so this
    /// is where sequence-level parallelism happens.
    #[cfg(feature = "parallel")]
    pub(crate) fn run_round(&self, work: Vec<(&mut SeqSlot, Step)>) {
        use rayon::prelude::*;
        work.into_par_iter()
            .for_each(|(slot, action)| self.advance(slot, action));
    }

    /// Serial twin of the rayon round (`--no-default-features`); bit-exact
    /// with the parallel path because sequences share no arithmetic.
    #[cfg(not(feature = "parallel"))]
    pub(crate) fn run_round(&self, work: Vec<(&mut SeqSlot, Step)>) {
        for (slot, action) in work {
            self.advance(slot, action);
        }
    }

    /// Advance one sequence by its round action. Exactly mirrors
    /// [`DataflowExecutor::generate_with_report`]: the round's prompt
    /// tokens run as one matmul prefill panel (bit-identical to stepping
    /// them in order, and logits are only unembedded on the chunk that
    /// completes the prompt), then the sampled token is emitted without
    /// being stepped back through the machine when it is the last one
    /// requested.
    fn advance(&self, slot: &mut SeqSlot, action: Step) {
        if action.prefill > 0 {
            // The round policy never assigns more than the unmatched
            // remainder of the prompt.
            let end = (slot.prefill_pos + action.prefill as usize).min(slot.prompt.len());
            let chunk = slot.prompt.get(slot.prefill_pos..end).unwrap_or(&[]);
            if !chunk.is_empty() {
                let want_logits = end == slot.prompt.len();
                let stats =
                    self.inner
                        .prefill_with(chunk, &mut slot.state, &mut slot.scratch, want_logits);
                slot.prefill_stats.merge(stats);
                slot.prefill_pos = end;
            }
        }
        if action.decode {
            let next = slot.sampler.sample(slot.scratch.logits());
            slot.out.push(next);
            if slot.out.len() < slot.target {
                self.inner
                    .step_with(next, &mut slot.state, &mut slot.scratch);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::GRID;
    use hnlpu_model::{zoo, ModelWeights, WeightGenerator};
    use hnlpu_sim::SimConfig;

    fn engine() -> BatchedDataflowExecutor {
        let card = zoo::dataflow_test_model();
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216)
    }

    fn scheduler() -> BatchScheduler {
        BatchScheduler::new(SimConfig::paper_default(), 2048)
    }

    #[test]
    fn batched_matches_per_sequence_greedy() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 8),
            SequenceRequest::greedy(0, vec![100, 2], 5),
            SequenceRequest::greedy(0, vec![64], 12),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        for (r, out) in requests.iter().zip(&report.outputs) {
            let solo = eng
                .executor()
                .generate_greedy(&r.prompt, r.decode_tokens as usize);
            assert_eq!(&solo, out);
        }
    }

    #[test]
    fn batch_comm_is_sum_of_sequences() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![3, 1, 4], 6),
            SequenceRequest::greedy(0, vec![2, 7], 4),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        let mut total = CommCounters::default();
        for (r, &per) in requests.iter().zip(&report.per_sequence_comm) {
            let (_, solo) = eng.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut Sampler::Greedy,
            );
            assert_eq!(solo, per);
            total += per;
        }
        assert_eq!(report.comm, total);
    }

    #[test]
    fn kv_pool_slots_shard_by_position_mod_4() {
        // The batched engine's pooled KV states keep the dataflow
        // executor's ownership invariant: position p lives on chip p % 4.
        let eng = engine();
        let mut state = eng.executor().new_state();
        let mut scratch = eng.executor().new_scratch();
        for t in 0..7u32 {
            eng.executor().step_with(t, &mut state, &mut scratch);
        }
        for col in 0..GRID {
            for chip in 0..GRID {
                let expected = (7 + GRID - 1 - chip) / GRID;
                assert_eq!(state.kv_shard(col, chip).len(), expected);
            }
        }
        assert_eq!(state.position(), 7);
        assert!(state.kv_bytes_fp16() > 0);
    }

    #[test]
    fn eviction_frees_slots_for_later_arrivals() {
        let eng = engine();
        // Two waves with arrivals 2 s apart: wave 1 finishes long before
        // wave 2 arrives, so peak residency stays at the wave size.
        let mut requests = Vec::new();
        for _ in 0..3 {
            requests.push(SequenceRequest::greedy(0, vec![1, 2], 3));
        }
        for _ in 0..3 {
            requests.push(SequenceRequest::greedy(2_000_000, vec![4, 5], 3));
        }
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        assert_eq!(report.peak_resident, 3);
        assert_eq!(report.decoded_tokens, 6 * 3);
        assert_eq!(report.prefill_tokens, 6 * 2);
        for out in &report.outputs {
            assert_eq!(out.len(), 3);
        }
    }

    #[test]
    fn zero_decode_requests_complete_with_empty_output() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![9, 9, 9], 0),
            SequenceRequest::greedy(0, vec![1], 2),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        assert!(report.outputs[0].is_empty());
        assert_eq!(report.outputs[1].len(), 2);
    }

    #[test]
    fn seeded_samplers_match_per_sequence_runs() {
        let eng = engine();
        let mk = |seed| SequenceRequest {
            arrival_s_micros: 0,
            prompt: vec![3, 1, 4],
            decode_tokens: 6,
            sampler: Sampler::multinomial(0.7, seed),
        };
        let requests = vec![mk(11), mk(99)];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        for (r, out) in requests.iter().zip(&report.outputs) {
            let (solo, _) = eng.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut r.sampler.clone(),
            );
            assert_eq!(&solo, out);
        }
    }

    #[test]
    fn prefill_panels_are_counted_per_round_chunk() {
        let eng = engine();
        let requests = vec![SequenceRequest::greedy(0, vec![1, 5, 9, 2, 7], 2)];
        // Two slots per round: the prompt spans three rounds (2 + 2 + 1
        // tokens), and each round's chunk is one full panel, never a loop
        // of T=1 steps.
        let (report, timing) = eng
            .run_with_scheduler(&requests, &scheduler().with_slot_cap(2))
            .expect("plan executes");
        assert_eq!(report.rounds, 4);
        assert_eq!(report.prefill_tokens, 5);
        assert_eq!(report.prefill_panels, 3);
        assert_eq!(report.prefill_max_panel, 2);
        assert_eq!(timing.prefill_tokens, 5);
        let solo = eng.executor().generate_greedy(&requests[0].prompt, 2);
        assert_eq!(report.outputs[0], solo);
    }

    #[test]
    fn scheduler_driven_prefill_is_not_degenerate() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 2),
            SequenceRequest::greedy(0, vec![100, 2], 2),
        ];
        let (report, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        // Multi-token prompts must arrive at the kernels as multi-token
        // panels: fewer panels than prompt tokens, and the widest panel
        // covers the longest prompt (chunk budget 2048 ≫ both prompts).
        assert_eq!(report.prefill_tokens, 5);
        assert_eq!(report.prefill_panels, 2);
        assert_eq!(report.prefill_max_panel, 3);
    }

    /// A 40-token deterministic "system prompt" for sharing tests.
    fn system_prefix() -> Vec<u32> {
        (0..40u32).map(|i| (i * 7 + 3) % 97).collect()
    }

    fn with_suffix(arrival: u64, tail: &[u32], decode: u32) -> SequenceRequest {
        let mut prompt = system_prefix();
        prompt.extend_from_slice(tail);
        SequenceRequest::greedy(arrival, prompt, decode)
    }

    #[test]
    fn prefix_reuse_is_token_exact_and_charges_only_suffixes() {
        let dense_eng = engine();
        let shared_eng = engine().with_prefix_cache(PrefixCacheConfig::default());
        // Wave 1 commits the system prompt's two full blocks; wave 2
        // arrives after it finished and matches 32 positions each.
        let requests = vec![
            with_suffix(0, &[5, 9], 6),
            with_suffix(2_000_000, &[5, 9], 6),
            with_suffix(2_000_000, &[70, 71, 72], 4),
        ];
        let (dense, _) = dense_eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("dense plan executes");
        let (shared, timing) = shared_eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("shared plan executes");
        assert_eq!(dense.outputs, shared.outputs);
        // Dense prefills 42 + 42 + 43 tokens; sharing serves 32 cached
        // positions to each wave-2 sequence.
        assert_eq!(dense.prefill_tokens, 127);
        assert_eq!(shared.prefill_tokens, 127 - 2 * 32);
        // The timing plan charged the identical suffixes.
        assert_eq!(timing.prefill_tokens, shared.prefill_tokens);
        assert_eq!(shared.prefix.lookups, 3);
        assert_eq!(shared.prefix.hits, 2);
        assert_eq!(shared.prefix.reused_positions, 64);
        assert!(shared.prefix.committed_blocks >= 2);
        assert_eq!(dense.prefix.lookups, 0);
    }

    #[test]
    fn simultaneous_identical_prompts_commit_once() {
        let shared_eng = engine().with_prefix_cache(PrefixCacheConfig::default());
        let requests = vec![with_suffix(0, &[1], 3), with_suffix(0, &[1], 3)];
        let (report, _) = shared_eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        // Both admitted the same round: neither matches (the tree is
        // empty at round start) and the duplicate commit deduplicates.
        assert_eq!(report.prefill_tokens, 2 * 41);
        assert_eq!(report.prefix.hits, 0);
        assert_eq!(report.prefix.committed_blocks, 2);
        assert_eq!(report.outputs[0], report.outputs[1]);
        let solo = shared_eng
            .executor()
            .generate_greedy(&requests[0].prompt, 3);
        assert_eq!(report.outputs[0], solo);
    }

    #[test]
    fn empty_prompt_rejected() {
        let eng = engine();
        let requests = vec![SequenceRequest::greedy(0, vec![], 1)];
        let err = eng.run_with_scheduler(&requests, &scheduler()).unwrap_err();
        assert_eq!(err, BatchError::EmptyPrompt { seq: 0 });
    }

    #[test]
    fn out_of_vocab_token_rejected_before_compute() {
        let eng = engine();
        let vocab = eng.executor().config().vocab_size as u32;
        let good = vec![
            SequenceRequest::greedy(0, vec![1, 2], 2),
            SequenceRequest::greedy(0, vec![9, 4, 4], 3),
        ];
        let bad = SequenceRequest::greedy(0, vec![1, vocab + 3], 2);
        let with_bad = vec![good[0].clone(), bad, good[1].clone()];
        let err = eng.run_with_scheduler(&with_bad, &scheduler()).unwrap_err();
        assert_eq!(
            err,
            BatchError::TokenOutOfVocab {
                seq: 1,
                token: vocab + 3
            }
        );
        // Without it, every other stream equals its solo run.
        let (report, _) = eng
            .run_with_scheduler(&good, &scheduler())
            .expect("plan executes");
        for (r, out) in good.iter().zip(&report.outputs) {
            let solo = eng
                .executor()
                .generate_greedy(&r.prompt, r.decode_tokens as usize);
            assert_eq!(&solo, out);
        }
    }

    #[test]
    fn unsorted_arrivals_keep_input_indexing() {
        let eng = engine();
        let requests = vec![
            SequenceRequest::greedy(3_000_000, vec![4, 2], 3),
            SequenceRequest::greedy(0, vec![7], 5),
        ];
        let (report, timing) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        for (r, out) in requests.iter().zip(&report.outputs) {
            let solo = eng
                .executor()
                .generate_greedy(&r.prompt, r.decode_tokens as usize);
            assert_eq!(&solo, out);
        }
        let sim: Vec<Request> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        assert_eq!(timing, scheduler().plan(&sim).0);
    }
}

//! Paged-vs-dense differential harness for radix prefix reuse.
//!
//! The paged KV engine — shared pages, copy-on-write boundaries, and a
//! scheduler that charges only unmatched prompt suffixes — must be a pure
//! optimization: for arbitrary traces of prefix-sharing requests it
//! produces **bit-identical token streams** to the dense engine, the
//! online server reproduces the offline prefixed planner's RoundPlans and
//! finish times exactly, and under seeded chip-death chaos every shared
//! page reference is dropped exactly once (the pool drains to
//! tree-only references).
//!
//! Run under both feature sets:
//! `cargo test -p hnlpu-integration --test paged_prefix_differential` and
//! the same with `--no-default-features` — bit-exact either way.

use hnlpu::llm::fault::{ChaosSpec, ChipFailure, FaultPlan};
use hnlpu::llm::serve::{OnlineServer, SeqState};
use hnlpu::llm::{
    BatchedDataflowExecutor, DataflowExecutor, PageBuf, PrefixCache, PrefixCacheConfig,
    SequenceRequest,
};
use hnlpu::sim::scheduler::{PrefixOracle, Request, SchedulerReport};
use hnlpu::sim::{BatchScheduler, RoundPlan, SimConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

fn weights() -> &'static hnlpu::model::ModelWeights {
    static WEIGHTS: OnceLock<hnlpu::model::ModelWeights> = OnceLock::new();
    WEIGHTS.get_or_init(|| {
        let card = hnlpu::model::zoo::dataflow_test_model();
        hnlpu::model::ModelWeights::materialize(
            &card.config,
            &hnlpu::model::WeightGenerator::new(2026),
        )
    })
}

fn dense_engine() -> BatchedDataflowExecutor {
    BatchedDataflowExecutor::new(DataflowExecutor::new(weights().clone()), 216)
}

fn paged_engine() -> BatchedDataflowExecutor {
    dense_engine().with_prefix_cache(PrefixCacheConfig::default())
}

fn scheduler() -> BatchScheduler {
    BatchScheduler::new(SimConfig::paper_default(), 2048)
}

/// One of a few deterministic "system prompts", long enough to span
/// full 16-token blocks plus a copy-on-write boundary.
fn system_prompt(k: usize) -> Vec<u32> {
    let len = 24 + 5 * (k % 4);
    (0..len as u32)
        .map(|i| (i * 13 + k as u32 * 31 + 2) % 120)
        .collect()
}

/// Requests drawn from a mixture of shared system prompts and private
/// user suffixes, sorted by arrival.
fn shared_prefix_requests(specs: &[(usize, Vec<u32>, u32, u64)]) -> Vec<SequenceRequest> {
    let mut sorted = specs.to_vec();
    sorted.sort_by_key(|&(_, _, _, arrival)| arrival);
    sorted
        .into_iter()
        .map(|(k, suffix, decode, arrival)| {
            let mut prompt = system_prompt(k);
            prompt.extend_from_slice(&suffix);
            SequenceRequest::greedy(arrival, prompt, decode)
        })
        .collect()
}

/// The harness's own planning oracle: mirrors the engine's match/commit
/// schedule on a tree of placeholder pages through the *public* cache
/// API, so the offline RoundPlan log can be reconstructed independently
/// of the engine's internal planner.
struct HarnessOracle<'a> {
    requests: &'a [SequenceRequest],
    cache: PrefixCache,
}

impl PrefixOracle for HarnessOracle<'_> {
    fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
        match self.requests.get(seq) {
            Some(r) => self.cache.match_prompt(&r.prompt).matched as u32,
            None => 0,
        }
    }

    fn on_prefill_complete(&mut self, seq: usize, _req: &Request) {
        let Some(r) = self.requests.get(seq) else {
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

/// The offline prefixed timing report and RoundPlan log, reconstructed
/// via the public API.
fn offline_prefixed_plan(requests: &[SequenceRequest]) -> (SchedulerReport, Vec<RoundPlan>) {
    let sim_reqs: Vec<Request> = requests
        .iter()
        .map(SequenceRequest::to_sim_request)
        .collect();
    let mut oracle = HarnessOracle {
        requests,
        cache: PrefixCache::new(PrefixCacheConfig::default()),
    };
    scheduler().plan_with_prefixes(&sim_reqs, &mut oracle)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// THE paged-vs-dense differential: for arbitrary shared-prefix
    /// traces, the paged engine streams bit-identical tokens to the
    /// dense engine while prefilling no more (and, whenever any prompt
    /// matched, strictly fewer) tokens. The timing plan and the
    /// functional engine agree on the suffix accounting.
    #[test]
    fn paged_engine_is_token_exact_vs_dense(
        specs in prop::collection::vec(
            (0usize..3, prop::collection::vec(0u32..128, 1..6), 0u32..8, 0u64..5_000_000),
            1..7,
        ),
    ) {
        let requests = shared_prefix_requests(&specs);
        let (dense, dense_timing) = dense_engine()
            .run_with_scheduler(&requests, &scheduler())
            .expect("dense plan executes");
        let (paged, paged_timing) = paged_engine()
            .run_with_scheduler(&requests, &scheduler())
            .expect("paged plan executes");

        prop_assert_eq!(&dense.outputs, &paged.outputs);
        prop_assert_eq!(dense.decoded_tokens, paged.decoded_tokens);
        prop_assert!(paged.prefill_tokens <= dense.prefill_tokens);
        prop_assert_eq!(
            dense.prefill_tokens - paged.prefill_tokens,
            paged.prefix.reused_positions
        );
        if paged.prefix.hits > 0 {
            prop_assert!(paged.prefill_tokens < dense.prefill_tokens);
        }
        // The timing model charged exactly what the engine prefilled.
        prop_assert_eq!(paged_timing.prefill_tokens, paged.prefill_tokens);
        prop_assert_eq!(dense_timing.decoded_tokens, paged_timing.decoded_tokens);
        // Both timing reports equal the analytical planner's, field for
        // field: the dense one under the null oracle, the paged one under
        // the harness's own placeholder-tree oracle.
        let sim_reqs: Vec<Request> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        prop_assert_eq!(&dense_timing, &scheduler().plan(&sim_reqs).0);
        prop_assert_eq!(&paged_timing, &offline_prefixed_plan(&requests).0);
    }

    /// Online/offline differential with sharing on: the event-driven
    /// server reproduces the offline prefixed planner's RoundPlan log,
    /// token streams, and finish times bit for bit, and drains its page
    /// pool to tree-only references.
    #[test]
    fn online_paged_run_is_bit_identical_to_offline_prefixed_replay(
        specs in prop::collection::vec(
            (0usize..3, prop::collection::vec(0u32..128, 1..6), 0u32..8, 0u64..5_000_000),
            1..6,
        ),
    ) {
        let requests = shared_prefix_requests(&specs);
        let (offline_run, offline_timing) = paged_engine()
            .run_with_scheduler(&requests, &scheduler())
            .expect("offline paged plan executes");
        let (offline_prefixed_timing, offline_plans) = offline_prefixed_plan(&requests);
        prop_assert_eq!(&offline_timing, &offline_prefixed_timing);

        let mut server = OnlineServer::new(paged_engine(), &scheduler(), requests.len())
            .expect("slots fit");
        let outcome = server.run_trace(&requests, &[]);
        prop_assert!(outcome.submissions.iter().all(Result::is_ok));

        prop_assert_eq!(&outcome.report.plans, &offline_plans);
        for (out, offline_out) in outcome.report.outcomes.iter().zip(&offline_run.outputs) {
            prop_assert_eq!(&out.tokens, offline_out);
            prop_assert_eq!(out.state, SeqState::Finished);
        }
        let mut online_finish: Vec<f64> = outcome
            .report
            .outcomes
            .iter()
            .filter_map(|o| o.finish_s)
            .collect();
        online_finish.sort_by(f64::total_cmp);
        let mut offline_finish: Vec<f64> =
            offline_timing.completions.iter().map(|c| c.finish_s).collect();
        offline_finish.sort_by(f64::total_cmp);
        prop_assert_eq!(online_finish, offline_finish);
        prop_assert_eq!(outcome.report.slo.prefill_tokens, offline_run.prefill_tokens);

        // Quiescence: every sequence grant was released; only the tree
        // still references pages.
        let cache = server.prefix_cache().expect("prefix engine serves a cache");
        prop_assert!(cache.pool().max_ref_count() <= 1);
        let stats = cache.pool().stats();
        prop_assert_eq!(stats.registered - stats.freed, cache.pool().live() as u64);
    }

    /// Chip-death chaos with sharing on: a died chip's shared pages drop
    /// their references exactly once (evicted grants + one tree flush),
    /// survivors stream the fault-free dense tokens bit for bit, and the
    /// pool drains to tree-only references.
    #[test]
    fn chip_death_drops_shared_page_refs_exactly_once(
        specs in prop::collection::vec(
            (0usize..2, prop::collection::vec(0u32..128, 1..5), 1u32..8, 0u64..2_000_000),
            2..6,
        ),
        seed in 0u64..1_000_000,
        kills in 1usize..3,
    ) {
        let requests = shared_prefix_requests(&specs);
        let plan = FaultPlan::seeded(seed, &ChaosSpec {
            horizon_micros: 3_000_000,
            submissions: requests.len(),
            chip_failures: kills,
            stragglers: 0,
            link_faults: 0,
            deadlines: 0,
            min_deadline_micros: 2_000,
        });
        plan.validate().expect("seeded plans validate");

        let mut baseline =
            OnlineServer::new(dense_engine(), &scheduler(), requests.len()).expect("fits");
        let base = baseline.run_trace(&requests, &[]);
        prop_assert!(base.submissions.iter().all(Result::is_ok));

        let mut chaos = OnlineServer::with_faults(
            paged_engine(), &scheduler(), requests.len(), plan.clone(),
        ).expect("seeded plan is valid");
        let outcome = chaos.run_trace(&requests, &[]);
        prop_assert!(outcome.submissions.iter().all(Result::is_ok));

        for (out, base_out) in outcome.report.outcomes.iter().zip(&base.report.outcomes) {
            prop_assert_eq!(out.slot_frees, out.admissions);
            prop_assert!(out.tokens.len() <= base_out.tokens.len());
            prop_assert_eq!(&out.tokens[..], &base_out.tokens[..out.tokens.len()]);
            if out.state == SeqState::Finished {
                prop_assert_eq!(&out.tokens, &base_out.tokens);
            }
        }

        // Ledger: every page freed at most once, grants all released, and
        // the run replays byte for byte under the same seed.
        let cache = chaos.prefix_cache().expect("prefix engine serves a cache");
        prop_assert!(cache.pool().max_ref_count() <= 1);
        let stats = cache.pool().stats();
        prop_assert!(stats.freed <= stats.registered);
        prop_assert_eq!(stats.registered - stats.freed, cache.pool().live() as u64);

        let mut replay = OnlineServer::with_faults(
            paged_engine(), &scheduler(), requests.len(), plan,
        ).expect("valid");
        let again = replay.run_trace(&requests, &[]);
        prop_assert_eq!(&again.report.slo, &outcome.report.slo);
        prop_assert_eq!(&again.report.plans, &outcome.report.plans);
    }
}

/// Deterministic fixture: two admission waves over one system prompt; a
/// chip dies between them. The flush frees every pre-fault page, the
/// post-fault wave rebuilds and re-shares the prefix, and all streams
/// stay token-exact against the dense fault-free reference.
#[test]
fn deterministic_chip_death_flushes_and_rebuilds_the_tree() {
    let mut requests = Vec::new();
    for i in 0..4u64 {
        let mut prompt = system_prompt(0);
        prompt.extend_from_slice(&[7 + i as u32]);
        requests.push(SequenceRequest::greedy(i * 1_000, prompt, 4));
    }
    for i in 0..4u64 {
        let mut prompt = system_prompt(0);
        prompt.extend_from_slice(&[90 + i as u32]);
        requests.push(SequenceRequest::greedy(2_000_000 + i * 1_000, prompt, 4));
    }
    let plan = FaultPlan {
        chip_failures: vec![ChipFailure {
            at_micros: 1_000_000,
            chip: 5,
        }],
        ..FaultPlan::default()
    };
    plan.validate().expect("hand-built plan validates");

    let mut baseline =
        OnlineServer::new(dense_engine(), &scheduler(), requests.len()).expect("fits");
    let base = baseline.run_trace(&requests, &[]);

    let mut server = OnlineServer::with_faults(paged_engine(), &scheduler(), requests.len(), plan)
        .expect("valid plan");
    let outcome = server.run_trace(&requests, &[]);
    assert!(outcome.submissions.iter().all(Result::is_ok));

    for (out, base_out) in outcome.report.outcomes.iter().zip(&base.report.outcomes) {
        assert_eq!(out.state, SeqState::Finished, "all sequences recover");
        assert_eq!(&out.tokens, &base_out.tokens, "recovered streams are exact");
        assert_eq!(out.slot_frees, out.admissions);
    }
    let slo = &outcome.report.slo;
    assert_eq!(slo.chip_failures, 1);
    let cache = server.prefix_cache().expect("cache");
    // The fault flushed every pre-fault page; wave 2 (and recoveries)
    // committed fresh ones, still held only by the tree.
    assert!(cache.stats().flushed_pages > 0, "flush released tree refs");
    assert!(
        cache.stats().hits > 0,
        "wave 2 re-shared the rebuilt prefix"
    );
    assert!(cache.pool().max_ref_count() <= 1);
    let stats = cache.pool().stats();
    assert_eq!(stats.registered - stats.freed, cache.pool().live() as u64);
}

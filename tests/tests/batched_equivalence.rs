//! Differential harness for the batched inference engine.
//!
//! The batched engine executes the exact per-round slot schedule that
//! `hnlpu-sim`'s continuous-batching scheduler prices, so every property
//! here is a three-way agreement check: for arbitrary mixes of prompts,
//! decode budgets, and arrival times, the batched token streams must be
//! identical to running [`DataflowExecutor`] per sequence and to the
//! single-device [`Transformer`], and the batch communication counters
//! must equal the sum of the per-sequence counters.
//!
//! Run with rayon on (default) and off:
//! `cargo test -p hnlpu-integration --test batched_equivalence` and the
//! same with `--no-default-features` — the streams are bit-exact either
//! way because sequences share no arithmetic.

use hnlpu::llm::{
    BatchedDataflowExecutor, CommCounters, DataflowExecutor, Sampler, SequenceRequest, Transformer,
};
use hnlpu::model::{zoo, ModelWeights, WeightGenerator};
use hnlpu::sim::{BatchScheduler, SimConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One materialization serves every case (weights are deterministic).
fn machines() -> &'static (BatchedDataflowExecutor, Transformer) {
    static MACHINES: OnceLock<(BatchedDataflowExecutor, Transformer)> = OnceLock::new();
    MACHINES.get_or_init(|| {
        let card = zoo::dataflow_test_model();
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        (
            BatchedDataflowExecutor::new(DataflowExecutor::new(w.clone()), 216),
            Transformer::new(w),
        )
    })
}

fn scheduler() -> BatchScheduler {
    BatchScheduler::new(SimConfig::paper_default(), 2048)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batched greedy streams equal per-sequence `DataflowExecutor` runs
    /// and the single-device reference, token for token.
    #[test]
    fn batched_greedy_matches_per_sequence_engines(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..6), 0u32..8),
            1..5,
        ),
    ) {
        let (engine, reference) = machines();
        let requests: Vec<SequenceRequest> = specs
            .iter()
            .map(|(prompt, decode)| SequenceRequest::greedy(0, prompt.clone(), *decode))
            .collect();
        let (report, _) = engine
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        prop_assert_eq!(report.outputs.len(), requests.len());
        for (r, out) in requests.iter().zip(&report.outputs) {
            let n = r.decode_tokens as usize;
            prop_assert_eq!(&engine.executor().generate_greedy(&r.prompt, n), out);
            prop_assert_eq!(&reference.generate_greedy(&r.prompt, n), out);
        }
    }

    /// Batch `CommCounters` are exactly the sum of per-sequence counters,
    /// and each per-sequence counter matches a solo run.
    #[test]
    fn batch_comm_counters_are_additive(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..6), 0u32..8),
            1..5,
        ),
    ) {
        let (engine, _) = machines();
        let requests: Vec<SequenceRequest> = specs
            .iter()
            .map(|(prompt, decode)| SequenceRequest::greedy(0, prompt.clone(), *decode))
            .collect();
        let (report, _) = engine
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        let mut total = CommCounters::default();
        for (r, &per) in requests.iter().zip(&report.per_sequence_comm) {
            let (_, solo) = engine.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut Sampler::Greedy,
            );
            prop_assert_eq!(solo, per);
            total += per;
        }
        prop_assert_eq!(report.comm, total);
    }

    /// Staggered arrivals change the schedule (admission rounds, slot
    /// reuse) but never the token streams.
    #[test]
    fn arrival_times_do_not_change_tokens(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..5), 1u32..6, 0u64..5_000_000),
            1..4,
        ),
    ) {
        let (engine, _) = machines();
        let requests: Vec<SequenceRequest> = specs
            .iter()
            .map(|(prompt, decode, arrival)| {
                SequenceRequest::greedy(*arrival, prompt.clone(), *decode)
            })
            .collect();
        let (report, timing) = engine
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        prop_assert_eq!(timing.completions.len(), requests.len());
        for (r, out) in requests.iter().zip(&report.outputs) {
            let n = r.decode_tokens as usize;
            prop_assert_eq!(&engine.executor().generate_greedy(&r.prompt, n), out);
        }
    }

    /// Seeded multinomial sampling agrees between batched and solo runs:
    /// the schedule may interleave sequences arbitrarily, but each
    /// sequence's sampler consumes the same logits in the same order.
    #[test]
    fn batched_sampled_streams_match_solo_runs(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..5), 1u32..6, 0u64..10_000),
            1..4,
        ),
    ) {
        let (engine, _) = machines();
        let requests: Vec<SequenceRequest> = specs
            .iter()
            .map(|(prompt, decode, seed)| SequenceRequest {
                arrival_s_micros: 0,
                prompt: prompt.clone(),
                decode_tokens: *decode,
                sampler: Sampler::multinomial(0.8, *seed),
            })
            .collect();
        let (report, _) = engine
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");
        for (r, out) in requests.iter().zip(&report.outputs) {
            let (solo, _) = engine.executor().generate_with_report(
                &r.prompt,
                r.decode_tokens as usize,
                &mut r.sampler.clone(),
            );
            prop_assert_eq!(&solo, out);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `BatchRunReport` accounting under mixed prefill/decode rounds:
    /// token totals are exactly conserved (every prompt prefilled once,
    /// every requested decode token produced once), the round count
    /// equals the plan length, and the per-round plan tallies reconcile
    /// with the aggregate counters. Holds identically under rayon and
    /// the `--no-default-features` serial build (CI runs both).
    #[test]
    fn run_report_accounting_is_conserved(
        specs in prop::collection::vec(
            (prop::collection::vec(0u32..128, 1..6), 0u32..8, 0u64..4_000_000),
            1..6,
        ),
    ) {
        let (engine, _) = machines();
        let requests: Vec<SequenceRequest> = specs
            .iter()
            .map(|(prompt, decode, arrival)| {
                SequenceRequest::greedy(*arrival, prompt.clone(), *decode)
            })
            .collect();
        let sim_reqs: Vec<_> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        let (_, plans) = scheduler().plan(&sim_reqs);
        let (report, _) = engine
            .run_with_scheduler(&requests, &scheduler())
            .expect("plan executes");

        // Rounds executed == rounds planned.
        prop_assert_eq!(report.rounds, plans.len() as u64);
        // Output streams conserve the decode budget exactly.
        let want_decode: u64 = requests.iter().map(|r| r.decode_tokens as u64).sum();
        let got_decode: u64 = report.outputs.iter().map(|o| o.len() as u64).sum();
        prop_assert_eq!(got_decode, want_decode);
        prop_assert_eq!(report.decoded_tokens, want_decode);
        // Every prompt token is prefilled exactly once.
        let want_prefill: u64 = requests.iter().map(|r| r.prompt.len() as u64).sum();
        prop_assert_eq!(report.prefill_tokens, want_prefill);
        // The plan's own per-round tallies reconcile with the aggregates.
        let plan_prefill: u64 = plans
            .iter()
            .flat_map(|p| p.prefill.iter().map(|&(_, n)| n as u64))
            .sum();
        let plan_decode: u64 = plans.iter().map(|p| p.decode.len() as u64).sum();
        prop_assert_eq!(plan_prefill, want_prefill);
        prop_assert_eq!(plan_decode, want_decode);
        // Residency stays within the machine.
        prop_assert!(report.peak_resident <= scheduler().slots());
        prop_assert!(report.peak_resident <= requests.len());
    }
}

/// Accounting specifically across rounds that mix prefill and decode:
/// a late arrival prefills while an early sequence is mid-decode, and
/// the aggregate counters still reconcile with the per-round plans.
#[test]
fn accounting_reconciles_across_mixed_rounds() {
    let (engine, _) = machines();
    // First request decodes for many rounds; the second arrives early
    // enough to prefill during them.
    let requests = vec![
        SequenceRequest::greedy(0, vec![3, 1, 4], 24),
        SequenceRequest::greedy(1_000, vec![1, 5, 9, 2, 6], 8),
    ];
    let sim_reqs: Vec<_> = requests
        .iter()
        .map(SequenceRequest::to_sim_request)
        .collect();
    let (_, plans) = scheduler().plan(&sim_reqs);
    // The schedule really does mix: some round both prefills and decodes.
    assert!(
        plans
            .iter()
            .any(|p| !p.prefill.is_empty() && !p.decode.is_empty()),
        "expected at least one mixed prefill/decode round"
    );
    let (report, _) = engine
        .run_with_scheduler(&requests, &scheduler())
        .expect("plan executes");
    assert_eq!(report.rounds, plans.len() as u64);
    assert_eq!(report.decoded_tokens, 24 + 8);
    assert_eq!(report.prefill_tokens, 3 + 5);
    assert_eq!(report.outputs[0].len(), 24);
    assert_eq!(report.outputs[1].len(), 8);
    assert_eq!(report.peak_resident, 2);
    // Streams are unchanged by the interleaving.
    for (r, out) in requests.iter().zip(&report.outputs) {
        assert_eq!(
            &engine
                .executor()
                .generate_greedy(&r.prompt, r.decode_tokens as usize),
            out
        );
    }
}

/// The functional engine's accounting agrees with the timing model's for
/// the shared schedule: same decode/prefill token totals, and residency
/// bounded by the machine's slot count.
#[test]
fn functional_and_timing_accounting_agree() {
    let (engine, _) = machines();
    let requests: Vec<SequenceRequest> = (0..6)
        .map(|i| SequenceRequest::greedy(i as u64 * 1_000, vec![1 + i as u32, 2, 3], 4))
        .collect();
    let (report, timing) = engine
        .run_with_scheduler(&requests, &scheduler())
        .expect("plan executes");
    assert_eq!(report.decoded_tokens, timing.decoded_tokens);
    assert_eq!(report.prefill_tokens, timing.prefill_tokens);
    assert!(report.peak_resident <= scheduler().slots());
    assert!(report.wall_s > 0.0);
    assert!(report.measured_decode_tokens_per_s() > 0.0);
}

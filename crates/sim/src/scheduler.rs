//! Continuous batching over the pipeline slots (§5.2).
//!
//! HNLPU implements continuous batching in hardware: up to 216 sequences
//! occupy the 6 × 36 pipeline slots; finished sequences release their slot
//! immediately to queued requests. This is a discrete-time simulation at
//! token granularity: every "pipeline round" (one full traversal of the
//! pipeline) offers 216 token slots. Decoding sequences take one slot each
//! (autoregressive dependency); the remaining slots prefill queued prompt
//! tokens in parallel — prompt tokens have no mutual dependencies (§5.2),
//! so a single sequence can soak up every free slot of a round.

use crate::config::SimConfig;
use crate::pipeline::advance_interval_cycles;
use serde::Serialize;
use std::collections::VecDeque;

/// One inference request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Request {
    /// Arrival time in seconds.
    pub arrival_s_micros: u64,
    /// Prompt tokens (prefilled in parallel).
    pub prompt_tokens: u32,
    /// Tokens to decode.
    pub decode_tokens: u32,
}

impl Request {
    /// Build a request; arrival is given in microseconds for exactness.
    pub fn new(arrival_s_micros: u64, prompt_tokens: u32, decode_tokens: u32) -> Self {
        Request {
            arrival_s_micros,
            prompt_tokens,
            decode_tokens,
        }
    }
}

/// Per-request completion record.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Completion {
    /// The request.
    pub request: Request,
    /// Time the request finished, seconds.
    pub finish_s: f64,
    /// End-to-end latency, seconds.
    pub latency_s: f64,
}

/// Aggregate scheduler statistics.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SchedulerReport {
    /// All completions, in finish order.
    pub completions: Vec<Completion>,
    /// Total decoded tokens.
    pub decoded_tokens: u64,
    /// Total prefilled prompt tokens.
    pub prefill_tokens: u64,
    /// Makespan, seconds.
    pub makespan_s: f64,
    /// Aggregate decode throughput, tokens/s.
    pub throughput_tokens_per_s: f64,
    /// Mean token-slot occupancy (0..=1), counting both decode and prefill
    /// slots.
    pub mean_occupancy: f64,
}

impl SchedulerReport {
    /// Tally a schedule over `slots` concurrent sequences from its round
    /// log: token totals, throughput over `makespan_s`, and mean slot
    /// occupancy.
    pub fn from_rounds(
        plans: &[RoundPlan],
        completions: Vec<Completion>,
        makespan_s: f64,
        slots: usize,
    ) -> Self {
        let decoded_tokens: u64 = plans.iter().map(|p| p.decode.len() as u64).sum();
        let occupancy_sum = plans
            .iter()
            .fold(0.0, |acc, p| acc + p.budgeted_slots() as f64 / slots as f64);
        SchedulerReport {
            completions,
            decoded_tokens,
            prefill_tokens: plans.iter().map(RoundPlan::prefill_slots).sum(),
            makespan_s,
            throughput_tokens_per_s: if makespan_s > 0.0 {
                decoded_tokens as f64 / makespan_s
            } else {
                0.0
            },
            mean_occupancy: if plans.is_empty() {
                0.0
            } else {
                occupancy_sum / plans.len() as f64
            },
        }
    }
}

/// One pipeline round's slot assignment.
///
/// Sequence ids index the *input order* of the request slice handed to
/// [`BatchScheduler::plan`], so a functional engine holding the real
/// token streams can replay exactly the schedule the timing model priced.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct RoundPlan {
    /// Sequences emitting one decode token this round (autoregressive), in
    /// admission order. A sequence whose prefill completes this round
    /// chains straight into its first decode, so it may appear in both
    /// lists.
    pub decode: Vec<usize>,
    /// `(sequence id, prompt tokens prefilled this round)` pairs, FCFS in
    /// admission order. Counts are nonzero.
    pub prefill: Vec<(usize, u32)>,
}

impl RoundPlan {
    /// Token slots consumed this round (decode + prefill).
    pub fn used_slots(&self) -> u64 {
        self.decode.len() as u64 + self.prefill_slots()
    }

    /// Prompt tokens prefilled this round.
    pub fn prefill_slots(&self) -> u64 {
        self.prefill.iter().map(|&(_, n)| u64::from(n)).sum()
    }

    /// Token slots drawn from the round's budget:
    /// [`used_slots`](Self::used_slots) less the chained first decodes,
    /// which share their sequence's slot with the prefill that completed
    /// it.
    pub fn budgeted_slots(&self) -> u64 {
        let chained = self
            .decode
            .iter()
            .filter(|seq| self.prefill.iter().any(|(p, _)| p == *seq))
            .count();
        self.used_slots() - chained as u64
    }
}

/// The continuous-batching simulator.
#[derive(Debug, Clone)]
pub struct BatchScheduler {
    cfg: SimConfig,
    /// Average context assumed for interval computation.
    pub nominal_context: u64,
    /// Optional cap on concurrent sequences below the machine's pipeline
    /// slots — a degraded grid (dead chips) plans with the surviving
    /// capacity. `None` uses the full machine.
    slot_cap: Option<usize>,
}

impl BatchScheduler {
    /// A scheduler over `cfg` assuming `nominal_context` for pipeline
    /// timing.
    pub fn new(cfg: SimConfig, nominal_context: u64) -> Self {
        BatchScheduler {
            cfg,
            nominal_context,
            slot_cap: None,
        }
    }

    /// Cap concurrent sequences at `cap` (clamped to at least 1 and at
    /// most the machine's pipeline slots): the slot budget a degraded
    /// grid's survivors can actually serve. Round timing is unchanged —
    /// the pipeline still traverses every stage; dead chips just host no
    /// sequences.
    pub fn with_slot_cap(mut self, cap: usize) -> Self {
        self.slot_cap = Some(cap.max(1));
        self
    }

    /// Concurrent-sequence capacity (the machine's pipeline slots, less
    /// any degraded-grid cap).
    pub fn slots(&self) -> usize {
        let machine = self.cfg.pipeline_slots() as usize;
        match self.slot_cap {
            Some(cap) => cap.min(machine),
            None => machine,
        }
    }

    /// Virtual-time length of one pipeline round, seconds: every slot
    /// advances one token, so a round costs `pipeline_slots()` advance
    /// intervals at this scheduler's nominal context.
    ///
    /// The online serving frontend (`hnlpu-llm::serve`) advances its
    /// virtual clock by exactly this amount per round so its incremental
    /// schedule reproduces [`plan`](Self::plan) bit for bit.
    pub fn round_s(&self) -> f64 {
        self.cfg.pipeline_slots() as f64 * advance_interval_cycles(&self.cfg, self.nominal_context)
            / self.cfg.clock_hz
    }

    /// Simulate `requests` (any order; sorted internally by arrival).
    ///
    /// Each round offers `pipeline_slots()` token slots: one per decoding
    /// sequence (autoregressive), with the remainder shared round-robin by
    /// prefilling sequences (prompt tokens are mutually independent).
    pub fn run(&self, requests: &[Request]) -> SchedulerReport {
        self.plan(requests).0
    }

    /// As [`run`](Self::run), but also return the per-round slot
    /// assignments so a functional engine can execute the same schedule.
    pub fn plan(&self, requests: &[Request]) -> (SchedulerReport, Vec<RoundPlan>) {
        self.plan_with_prefixes(requests, &mut NoPrefix)
    }

    /// As [`plan`](Self::plan), but admissions consult a [`PrefixOracle`]
    /// so the schedule charges only the *unmatched suffix* of each
    /// prompt: tokens served from a shared prefix cache never occupy a
    /// prefill slot. The oracle's commit hook fires, in admission order,
    /// for every sequence the round finishes prefilling — mirroring the
    /// engine, where a prompt's blocks enter the shared tree at the end
    /// of the round that completes its prefill, and admissions only see
    /// commits from strictly earlier rounds.
    pub fn plan_with_prefixes(
        &self,
        requests: &[Request],
        oracle: &mut dyn PrefixOracle,
    ) -> (SchedulerReport, Vec<RoundPlan>) {
        let mut queue: Vec<(usize, Request)> = requests.iter().copied().enumerate().collect();
        // Stable: equal arrivals keep input order.
        queue.sort_by_key(|(_, r)| r.arrival_s_micros);
        let mut queue: VecDeque<(usize, Request)> = queue.into();

        let slots = self.slots();
        // One pipeline round = all slots advance one token = slots x the
        // advance interval.
        let round_s = self.round_s();

        let mut policy = RoundPolicy::new(slots);
        let mut completions = Vec::new();
        let mut plans = Vec::new();
        let mut now = 0.0f64;

        while !queue.is_empty() || !policy.is_empty() {
            // Admit arrivals into free sequence slots.
            while policy.has_room() {
                let due =
                    matches!(queue.front(), Some((_, r)) if micros_to_s(r.arrival_s_micros) <= now);
                let Some((seq, req)) = (if due { queue.pop_front() } else { None }) else {
                    break;
                };
                policy.admit(seq, &req);
            }
            if policy.is_empty() {
                // Idle until the next arrival.
                if let Some((_, r)) = queue.front() {
                    now = now.max(micros_to_s(r.arrival_s_micros));
                }
                continue;
            }
            now += round_s;
            let round = policy.next_round(|seq| match requests.get(seq) {
                Some(req) => oracle.matched_on_admit(seq, req),
                None => 0,
            });
            // Commits land at the end of the round, so every consultation
            // within one round sees the same tree — exactly what the
            // functional engine does (match at first prefill budget,
            // commit completed prompts after the round's compute).
            for step in round.steps.iter().filter(|s| s.prefill_done) {
                if let Some(req) = requests.get(step.seq) {
                    oracle.on_prefill_complete(step.seq, req);
                }
            }
            for req in round.finished.iter().filter_map(|&seq| requests.get(seq)) {
                let arrival_s = micros_to_s(req.arrival_s_micros);
                completions.push(Completion {
                    request: *req,
                    finish_s: now,
                    latency_s: now - arrival_s,
                });
            }
            plans.push(round.plan());
        }
        let report = SchedulerReport::from_rounds(&plans, completions, now, slots);
        (report, plans)
    }
}

/// Virtual-time µs → seconds.
fn micros_to_s(micros: u64) -> f64 {
    micros as f64 / 1e6
}

/// The continuous-batching round policy (§5.2), the one place a round's
/// slot assignment is decided.
///
/// It holds the resident sequences in admission order and, each round,
/// applies the hardware's policy: decoding sequences claim one slot each,
/// the remaining slots go to prompt tokens first-come-first-served, a
/// sequence consults the prefix cache the first round it receives prefill
/// budget (the answer clamped to `prompt_tokens − 1`, because the last
/// prompt token must run to produce the first decode's logits), a prompt
/// that completes chains straight into its first decode, and a sequence
/// leaves when its last token is out.
///
/// Three loops step it: the analytical planner
/// ([`BatchScheduler::plan_with_prefixes`]), and the functional engine's
/// online server and offline replay in `hnlpu-llm`. Callers own the clock
/// and the arrival queue; the policy only knows token counts.
#[derive(Debug, Clone, Default)]
pub struct RoundPolicy {
    slots: usize,
    resident: Vec<Resident>,
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    seq: usize,
    remaining_prefill: u32,
    remaining_decode: u32,
    /// Whether the prefix cache was consulted for this residency.
    consulted: bool,
}

/// What one sequence does in one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Step {
    /// The sequence.
    pub seq: usize,
    /// Prompt tokens to prefill first (0 for a pure decode).
    pub prefill: u32,
    /// Whether this round's prefill completes the prompt; its blocks are
    /// committed to the prefix cache at the end of the round.
    pub prefill_done: bool,
    /// Then emit one decode token.
    pub decode: bool,
}

/// One round decided by [`RoundPolicy::next_round`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Round {
    /// One entry per sequence the round advances, in admission order.
    pub steps: Vec<Step>,
    /// Sequences whose last token came out this round, in admission
    /// order. They have already left the policy.
    pub finished: Vec<usize>,
}

impl Round {
    /// The round's slot assignment in the [`RoundPlan`] log format.
    pub fn plan(&self) -> RoundPlan {
        let steps = self.steps.iter();
        let decode = steps.clone().filter(|s| s.decode).map(|s| s.seq).collect();
        let prefill = steps
            .filter(|s| s.prefill > 0)
            .map(|s| (s.seq, s.prefill))
            .collect();
        RoundPlan { decode, prefill }
    }
}

impl RoundPolicy {
    /// An empty policy over `slots` concurrent sequences.
    pub fn new(slots: usize) -> Self {
        RoundPolicy {
            slots,
            resident: Vec::new(),
        }
    }

    /// Change the slot budget (a degraded grid serves fewer sequences).
    /// Residents beyond the new budget stay; admission waits for room.
    pub fn set_slots(&mut self, slots: usize) {
        self.slots = slots;
    }

    /// The slot budget.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Resident sequences.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// True when no sequence is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// True while another sequence may be admitted.
    pub fn has_room(&self) -> bool {
        self.resident.len() < self.slots
    }

    /// Resident sequence ids in admission order.
    pub fn resident(&self) -> impl Iterator<Item = usize> + '_ {
        self.resident.iter().map(|r| r.seq)
    }

    /// Admit `seq` with `req`'s token counts behind every resident.
    /// Callers check [`has_room`](Self::has_room) first.
    pub fn admit(&mut self, seq: usize, req: &Request) {
        self.resident.push(Resident {
            seq,
            remaining_prefill: req.prompt_tokens,
            remaining_decode: req.decode_tokens,
            consulted: false,
        });
    }

    /// Drop `seq` (cancelled, retired or evicted). Returns whether it was
    /// resident.
    pub fn remove(&mut self, seq: usize) -> bool {
        let at = self.resident.iter().position(|r| r.seq == seq);
        at.map(|i| self.resident.remove(i)).is_some()
    }

    /// Decide and account one round. `consult(seq)` is called once per
    /// residency, the first round `seq` receives prefill budget, and
    /// answers how many leading prompt positions a prefix cache already
    /// holds; that is also the instant a functional engine gives the
    /// sequence its KV slot.
    pub fn next_round(&mut self, mut consult: impl FnMut(usize) -> u32) -> Round {
        // Decode slots are claimed at round start; prefill fills the rest.
        let decoding = self
            .resident
            .iter()
            .filter(|r| r.remaining_prefill == 0 && r.remaining_decode > 0)
            .count();
        let mut budget = u32::try_from(self.slots.saturating_sub(decoding)).unwrap_or(u32::MAX);
        let mut round = Round::default();
        for r in &mut self.resident {
            let mut step = Step {
                seq: r.seq,
                ..Step::default()
            };
            // First-come-first-served prefill: finish early arrivals'
            // prompts before starting later ones.
            if r.remaining_prefill > 0 && budget > 0 {
                if !r.consulted {
                    // Charge only the unmatched suffix (the whole prompt
                    // is still unprefilled here). The clamp also
                    // guarantees a consulted sequence prefills at least
                    // one token this round.
                    r.consulted = true;
                    r.remaining_prefill -= consult(r.seq).min(r.remaining_prefill - 1);
                }
                step.prefill = r.remaining_prefill.min(budget);
                budget -= step.prefill;
                r.remaining_prefill -= step.prefill;
                step.prefill_done = r.remaining_prefill == 0;
            }
            // A prompt completed this round chains into its first decode.
            if r.remaining_prefill == 0 && r.remaining_decode > 0 {
                r.remaining_decode -= 1;
                step.decode = true;
            }
            if step.prefill > 0 || step.decode {
                round.steps.push(step);
            }
        }
        self.resident.retain(|r| {
            let done = r.remaining_prefill == 0 && r.remaining_decode == 0;
            if done {
                round.finished.push(r.seq);
            }
            !done
        });
        round
    }
}

/// Admission-time prefix consultation for
/// [`plan_with_prefixes`](BatchScheduler::plan_with_prefixes).
///
/// The scheduler is a pure timing model: it knows token *counts*, not token
/// *ids*. An oracle holding the real prompts (e.g. a planning
/// `hnlpu-llm::PrefixCache`) answers how many leading positions of each
/// admitted sequence are already resident in the shared prefix tree, and is
/// told when a sequence's prefill completes so its blocks become matchable
/// by strictly later rounds — exactly the commit schedule the functional
/// engine follows.
pub trait PrefixOracle {
    /// Leading prompt positions of `seq` served from cache. Called once
    /// per sequence, in the round it first receives prefill slots — the
    /// round the functional engine admits it into a KV slot and matches
    /// its prompt. The scheduler clamps the answer to `prompt_tokens - 1`:
    /// the final prompt token is always prefilled to produce the first
    /// decode's logits.
    fn matched_on_admit(&mut self, seq: usize, req: &Request) -> u32;

    /// `seq` finished prefilling this round; its prompt blocks are now
    /// committed and visible to later admissions.
    fn on_prefill_complete(&mut self, seq: usize, req: &Request);
}

/// The null oracle: nothing matches, commits are ignored. [`plan`]
/// (BatchScheduler::plan) delegates through this, so dense scheduling is
/// the `NoPrefix` special case.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoPrefix;

impl PrefixOracle for NoPrefix {
    fn matched_on_admit(&mut self, _seq: usize, _req: &Request) -> u32 {
        0
    }
    fn on_prefill_complete(&mut self, _seq: usize, _req: &Request) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler() -> BatchScheduler {
        BatchScheduler::new(SimConfig::paper_default(), 2048)
    }

    #[test]
    fn slot_cap_bounds_concurrency_not_round_time() {
        let full = scheduler();
        let capped = scheduler().with_slot_cap(2);
        assert_eq!(capped.slots(), 2);
        assert_eq!(capped.round_s(), full.round_s());
        // Zero clamps to one slot; an over-machine cap clamps to machine.
        assert_eq!(scheduler().with_slot_cap(0).slots(), 1);
        assert_eq!(scheduler().with_slot_cap(usize::MAX).slots(), full.slots());
        // With 2 slots, 3 concurrent arrivals serialize: never > 2 live.
        let reqs: Vec<Request> = (0..3).map(|_| Request::new(0, 1, 2)).collect();
        let (_, plans) = capped.plan(&reqs);
        for plan in &plans {
            let mut live: Vec<usize> = plan.decode.clone();
            for &(seq, _) in &plan.prefill {
                if !live.contains(&seq) {
                    live.push(seq);
                }
            }
            assert!(live.len() <= 2, "round exceeded the slot cap: {plan:?}");
        }
    }

    #[test]
    fn empty_workload() {
        let rep = scheduler().run(&[]);
        assert_eq!(rep.decoded_tokens, 0);
        assert_eq!(rep.completions.len(), 0);
    }

    #[test]
    fn single_request_latency() {
        let rep = scheduler().run(&[Request::new(0, 128, 100)]);
        assert_eq!(rep.completions.len(), 1);
        // 100 decode rounds + 1 prefill round at ~1.1k tokens/s/sequence.
        let lat = rep.completions[0].latency_s;
        assert!(lat > 0.05 && lat < 0.25, "latency = {lat}");
    }

    #[test]
    fn full_batch_reaches_system_throughput() {
        // 216 long-running sequences saturate the pipeline: aggregate
        // decode rate approaches the Table 2 figure.
        let reqs: Vec<Request> = (0..216).map(|_| Request::new(0, 64, 2000)).collect();
        let rep = scheduler().run(&reqs);
        // Decode-priority lets the tail of the prefill work starve briefly
        // (a real continuous-batching queueing effect), so occupancy sits
        // just below 1.
        assert!(
            rep.mean_occupancy > 0.85,
            "occupancy = {}",
            rep.mean_occupancy
        );
        assert!(
            rep.throughput_tokens_per_s > 200_000.0,
            "throughput = {:.0}",
            rep.throughput_tokens_per_s
        );
    }

    #[test]
    fn oversubscription_queues_requests() {
        let reqs: Vec<Request> = (0..400).map(|_| Request::new(0, 16, 50)).collect();
        let rep = scheduler().run(&reqs);
        assert_eq!(rep.completions.len(), 400);
        // Later completions belong to the second wave.
        let first = rep.completions.first().unwrap().finish_s;
        let last = rep.completions.last().unwrap().finish_s;
        assert!(last > first * 1.5);
    }

    #[test]
    fn arrivals_respected() {
        let rep = scheduler().run(&[
            Request::new(0, 16, 10),
            Request::new(5_000_000, 16, 10), // arrives at t = 5 s
        ]);
        assert_eq!(rep.completions.len(), 2);
        assert!(rep.completions[1].finish_s >= 5.0);
        // The second request's latency is small (machine was idle).
        assert!(rep.completions[1].latency_s < 0.1);
    }

    #[test]
    fn decoded_token_accounting() {
        let rep = scheduler().run(&[Request::new(0, 8, 25)]);
        // Exactly the 25 decode tokens and the 8 prompt tokens.
        assert_eq!(rep.decoded_tokens, 25);
        assert_eq!(rep.prefill_tokens, 8);
    }

    #[test]
    fn long_prompt_prefills_at_pipeline_width() {
        // A 2,160-token prompt = 10 full rounds of 216-wide prefill before
        // any decode token; short prompts prefill in one round.
        let long = scheduler().run(&[Request::new(0, 2160, 1)]);
        let short = scheduler().run(&[Request::new(0, 100, 1)]);
        // 10 rounds (decode chains onto the final prefill round) vs 1.
        let ratio = long.makespan_s / short.makespan_s;
        assert!((ratio - 10.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn plans_replay_the_run_report() {
        let reqs: Vec<Request> = (0..10)
            .map(|i| Request::new(i * 100_000, 32 + i as u32, 20))
            .collect();
        let s = scheduler();
        let (report, plans) = s.plan(&reqs);
        assert_eq!(report, s.run(&reqs));
        let decoded: u64 = plans.iter().map(|p| p.decode.len() as u64).sum();
        let prefilled: u64 = plans
            .iter()
            .flat_map(|p| p.prefill.iter())
            .map(|&(_, n)| n as u64)
            .sum();
        assert_eq!(decoded, report.decoded_tokens);
        assert_eq!(prefilled, report.prefill_tokens);
        assert!(plans.len() as u64 * s.slots() as u64 >= decoded + prefilled);
    }

    #[test]
    fn decode_chains_onto_final_prefill_round() {
        // Seed-locked semantics: the round that finishes a prompt also
        // emits the first decode token (see long_prompt_prefills_at
        // pipeline_width), and the plan records that chained decode.
        let (_, plans) = scheduler().plan(&[Request::new(0, 8, 2)]);
        assert_eq!(plans.len(), 2);
        assert_eq!(plans[0].prefill, vec![(0, 8)]);
        assert_eq!(plans[0].decode, vec![0]);
        assert_eq!(plans[1].decode, vec![0]);
        assert!(plans[1].prefill.is_empty());
    }

    #[test]
    fn round_s_times_rounds_is_the_makespan() {
        // With every arrival at t = 0 the clock never idle-jumps, so the
        // makespan is exactly the round count times the exposed round
        // length — the invariant the online serving loop builds on.
        let s = scheduler();
        let reqs: Vec<Request> = (0..40).map(|i| Request::new(0, 8 + i, 12)).collect();
        let (report, plans) = s.plan(&reqs);
        let expect = plans.len() as f64 * s.round_s();
        assert!((report.makespan_s - expect).abs() < 1e-12, "{expect}");
        assert!(s.round_s() > 0.0);
    }

    #[test]
    fn decode_has_priority_over_prefill() {
        // With 216 decoding sequences resident, a late-arriving giant
        // prompt must not stall decode: occupancy stays ~1 and decode
        // tokens keep flowing every round.
        let mut reqs: Vec<Request> = (0..216).map(|_| Request::new(0, 1, 300)).collect();
        reqs.push(Request::new(1, 50_000, 1));
        let rep = scheduler().run(&reqs);
        assert_eq!(rep.completions.len(), 217);
        assert_eq!(rep.decoded_tokens, 216 * 300 + 1);
    }

    fn build(specs: &[(u64, u32, u32)]) -> Vec<Request> {
        specs
            .iter()
            .map(|&(a, p, d)| Request::new(a, p, d))
            .collect()
    }

    /// Fixed per-sequence match counts plus a commit log, for checking the
    /// oracle plumbing without a real prefix tree.
    struct FixedOracle {
        matched: Vec<u32>,
        commits: Vec<usize>,
    }

    impl PrefixOracle for FixedOracle {
        fn matched_on_admit(&mut self, seq: usize, _req: &Request) -> u32 {
            self.matched.get(seq).copied().unwrap_or(0)
        }
        fn on_prefill_complete(&mut self, seq: usize, _req: &Request) {
            self.commits.push(seq);
        }
    }

    #[test]
    fn oracle_charges_only_the_unmatched_suffix() {
        let reqs = build(&[(0, 100, 5), (0, 100, 5), (0, 100, 5)]);
        let (dense, _) = scheduler().plan(&reqs);
        // Seq 1 matches 60 positions, seq 2 matches its whole prompt —
        // clamped to 99 so the final token still prefills.
        let mut oracle = FixedOracle {
            matched: vec![0, 60, 400],
            commits: Vec::new(),
        };
        let (rep, plans) = scheduler().plan_with_prefixes(&reqs, &mut oracle);
        assert_eq!(rep.prefill_tokens, dense.prefill_tokens - 60 - 99);
        assert_eq!(rep.decoded_tokens, dense.decoded_tokens);
        assert_eq!(rep.completions.len(), 3);
        // Every sequence committed exactly once, in admission order.
        assert_eq!(oracle.commits, vec![0, 1, 2]);
        // Per-sequence prefill totals equal the unmatched suffix.
        let mut per_seq = [0u64; 3];
        for plan in &plans {
            for &(seq, n) in &plan.prefill {
                per_seq[seq] += n as u64;
            }
        }
        assert_eq!(per_seq, [100, 40, 1]);
    }

    #[test]
    fn policy_consults_once_at_first_prefill_budget() {
        let mut policy = RoundPolicy::new(4);
        policy.admit(0, &Request::new(0, 6, 1));
        policy.admit(1, &Request::new(0, 6, 1));
        let mut asked = Vec::new();
        // Round 1: the whole budget goes to seq 0; seq 1 gets none and is
        // not consulted yet.
        let r1 = policy.next_round(|seq| {
            asked.push(seq);
            0
        });
        assert_eq!(asked, vec![0]);
        let step = |seq, prefill, decode| Step {
            seq,
            prefill,
            prefill_done: true,
            decode,
        };
        let first = Step {
            prefill_done: false,
            ..step(0, 4, false)
        };
        assert_eq!(r1.steps, vec![first]);
        assert!(r1.finished.is_empty());
        // Round 2: seq 0 completes and chains its decode; seq 1's match of
        // 9 is clamped to 5, so it prefills its last token and decodes.
        let r2 = policy.next_round(|seq| {
            asked.push(seq);
            9
        });
        assert_eq!(asked, vec![0, 1]);
        assert_eq!(r2.steps, vec![step(0, 2, true), step(1, 1, true)]);
        assert_eq!(r2.finished, vec![0, 1]);
        assert!(policy.is_empty());
    }

    #[test]
    fn policy_remove_and_slot_budget() {
        let mut policy = RoundPolicy::new(2);
        policy.admit(3, &Request::new(0, 1, 5));
        policy.admit(7, &Request::new(0, 1, 5));
        assert!(!policy.has_room());
        assert!(policy.remove(3));
        assert!(!policy.remove(3));
        assert_eq!(policy.resident().collect::<Vec<_>>(), vec![7]);
        policy.set_slots(1);
        assert!(!policy.has_room());
        assert_eq!(policy.slots(), 1);
        let round = policy.next_round(|_| 0);
        assert_eq!(round.plan().prefill, vec![(7, 1)]);
        assert_eq!(round.plan().decode, vec![7]);
    }

    #[test]
    fn null_oracle_reproduces_dense_plan() {
        let reqs = build(&[(0, 37, 9), (5_000, 120, 3), (9_000, 4, 30)]);
        let (dense, dense_plans) = scheduler().plan(&reqs);
        let (rep, plans) = scheduler().plan_with_prefixes(&reqs, &mut NoPrefix);
        assert_eq!(rep, dense);
        assert_eq!(plans, dense_plans);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn scheduler() -> BatchScheduler {
        BatchScheduler::new(SimConfig::paper_default(), 2048)
    }

    /// Requests from (arrival micros, prompt, decode) triples.
    fn build(specs: &[(u64, u32, u32)]) -> Vec<Request> {
        specs
            .iter()
            .map(|&(a, p, d)| Request::new(a, p, d))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Token conservation: every prompt token is prefilled exactly
        /// once, every decode token decoded exactly once, and every
        /// request completes.
        #[test]
        fn tokens_are_conserved(
            specs in prop::collection::vec(
                (0u64..2_000_000, 0u32..600, 0u32..120),
                1..40,
            ),
        ) {
            let reqs = build(&specs);
            let rep = scheduler().run(&reqs);
            prop_assert_eq!(rep.completions.len(), reqs.len());
            let prompts: u64 = specs.iter().map(|s| s.1 as u64).sum();
            let decodes: u64 = specs.iter().map(|s| s.2 as u64).sum();
            prop_assert_eq!(rep.prefill_tokens, prompts);
            prop_assert_eq!(rep.decoded_tokens, decodes);
        }

        /// Slot occupancy never exceeds `pipeline_slots()`: per round, the
        /// budgeted token slots and the concurrently active sequences both
        /// stay within capacity, and mean occupancy is a true fraction.
        #[test]
        fn occupancy_never_exceeds_pipeline_slots(
            specs in prop::collection::vec(
                (0u64..1_000_000, 0u32..2_000, 0u32..80),
                1..60,
            ),
        ) {
            let s = scheduler();
            let slots = s.slots() as u64;
            let reqs = build(&specs);
            let (rep, plans) = s.plan(&reqs);
            prop_assert!(rep.mean_occupancy <= 1.0 + 1e-12);
            for plan in &plans {
                // A chained decode shares its sequence's round with the
                // prefill that completed it, so budgeted slots are the
                // prefill tokens plus the non-chained decodes.
                let chained = plan
                    .decode
                    .iter()
                    .filter(|seq| plan.prefill.iter().any(|(p, _)| p == *seq))
                    .count() as u64;
                let budgeted = plan.used_slots() - chained;
                prop_assert!(budgeted <= slots, "budgeted {budgeted} > {slots}");
                // Active sequences this round never exceed the machine's
                // concurrent-sequence capacity.
                let mut active: Vec<usize> = plan.decode.clone();
                active.extend(plan.prefill.iter().map(|&(seq, _)| seq));
                active.sort_unstable();
                active.dedup();
                prop_assert!(active.len() as u64 <= slots);
            }
        }

        /// Mean latency is monotone in arrival rate: spreading the same
        /// requests further apart (lower rate) never increases the mean
        /// latency produced by FCFS admission with decode priority.
        #[test]
        fn latency_monotone_in_arrival_rate(
            n in 2usize..40,
            gap_micros in 1_000u64..500_000,
            prompt in 1u32..400,
            decode in 1u32..80,
        ) {
            let fast: Vec<Request> = (0..n)
                .map(|i| Request::new(i as u64 * gap_micros, prompt, decode))
                .collect();
            let slow: Vec<Request> = (0..n)
                .map(|i| Request::new(i as u64 * gap_micros * 2, prompt, decode))
                .collect();
            let mean = |rep: &SchedulerReport| {
                rep.completions.iter().map(|c| c.latency_s).sum::<f64>()
                    / rep.completions.len() as f64
            };
            let s = scheduler();
            let fast_mean = mean(&s.run(&fast));
            let slow_mean = mean(&s.run(&slow));
            // Round-boundary alignment can move individual latencies by a
            // fraction of a round; allow that slack on the mean.
            prop_assert!(
                slow_mean <= fast_mean + 1e-9 + 2e-3,
                "halving the arrival rate raised mean latency: {slow_mean} > {fast_mean}"
            );
        }
    }
}

//! Online serving frontend: admission, incremental scheduling, streaming.
//!
//! [`OnlineServer`] is the event-driven serving loop: requests arrive
//! dynamically (a bounded admission queue applies backpressure as typed
//! [`ServeError::QueueFull`] rejections), each mixed prefill/decode round
//! is decided by the [`RoundPolicy`] that [`BatchScheduler::plan`] also
//! steps, tokens stream out per sequence as [`ServeEvent`]s, and
//! sequences can be cancelled mid-flight (any KV slot is freed exactly
//! once). Offline replay
//! ([`BatchedDataflowExecutor::run_with_scheduler`]) is this loop run
//! over a closed, fault-free trace.
//!
//! The loop is a deterministic discrete-event simulation: time is a
//! virtual clock advanced by [`BatchScheduler::round_s`] per pipeline
//! round (idle gaps jump straight to the next arrival), and no wall-clock
//! or ambient RNG exists anywhere on the path — the `hnlpu-analyze`
//! determinism gate audits this module. Because the planner and this
//! loop step one policy with the same admissions on the same clock, an
//! online run of any workload yields bit-identical [`RoundPlan`]s and
//! finish times to planning the whole trace up front, and token streams
//! identical to running each sequence alone
//! (`tests/tests/online_differential.rs` checks both by property testing).
//!
//! The server's append-only [`ServeEvent`] log, stamped in virtual time,
//! is its only record of the run. [`OnlineServer::report`] folds from it
//! the p50/p99 TTFT and inter-token-gap [`SloReport`] (the serving-side
//! metrics the RPU memory-wall analysis motivates), the
//! [`RecoveryStats`], every [`SequenceOutcome`] and the round log.
//!
//! Sequence lifecycle: `Queued → Prefilling → Decoding → Finished`, with
//! `Cancelled` reachable from every live state and `QueueFull` rejections
//! never entering the lifecycle at all. Every retirement is one
//! [`ServeEvent::Retired`] carrying the terminal [`SeqState`].
//!
//! # Fault tolerance
//!
//! A validated [`FaultPlan`] (see [`crate::fault`]) injects chip
//! failures, straggler slowdowns, link faults, and per-request deadlines
//! onto the same virtual clock, so every chaos run replays exactly.
//! Hardwired chips cannot be re-flashed: a failure is survived, not
//! repaired. Because the KV cache shards every resident sequence across
//! all 16 chips (`position % 4` per column), a chip death evicts every
//! resident sequence; capacity shrinks to the survivor share
//! ([`DegradedLayout::effective_slots`]), evicted sequences park their
//! slots and re-admit with bounded exponential backoff (re-prefilling
//! `prompt ++ emitted` token-exactly — see
//! `BatchedDataflowExecutor::open_slot`), queued requests are shed
//! before admitted ones when the backlog overflows, and expired deadlines
//! retire sequences with typed [`ServeError::Deadline`] outcomes.
//! Stragglers and link faults stretch round time
//! ([`hnlpu_sim::fabric::retry_round_factor`]); latencies sampled in
//! degraded rounds land in separate [`SloReport`] percentile rows. An
//! empty plan leaves every arithmetic operation of the loop bit-identical
//! to a fault-free server — the differential harnesses still hold.
//!
//! Extended lifecycle: `Recovering` (evicted, awaiting re-admission) is
//! live; `DeadlineMissed`, `Shed`, and `ChipLost` are terminal.

use crate::batch::{BatchedDataflowExecutor, RecoveryStats, SeqSlot, SequenceRequest};
use crate::dataflow::{CommCounters, DegradedLayout, GridHealth};
use crate::fault::{ChipFailure, FaultError, FaultPlan};
use crate::kv_cache::{PrefixCache, PrefixStats};
use crate::reference::PrefillStats;
use hnlpu_sim::fabric::retry_round_factor;
use hnlpu_sim::scheduler::{BatchScheduler, Request, RoundPlan, RoundPolicy, Step};
use serde::Serialize;
use std::collections::VecDeque;
use std::fmt;

/// Handle for a submitted sequence: the `n`th accepted
/// [`OnlineServer::submit`] call returns `SeqId(n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SeqId(pub usize);

impl fmt::Display for SeqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "seq#{}", self.0)
    }
}

/// Why the serving frontend refused an operation. All admission-path
/// failures are typed — a malformed or over-limit request must never
/// abort a process serving hundreds of co-resident sequences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue is full (backpressure). Nothing was
    /// enqueued; the client may retry later.
    QueueFull {
        /// Admission-queue capacity.
        capacity: usize,
    },
    /// The request's prompt was empty.
    EmptyPrompt,
    /// A prompt token lies outside the model vocabulary.
    TokenOutOfVocab {
        /// The first out-of-vocabulary token.
        token: u32,
        /// The model's vocabulary size.
        vocab: usize,
    },
    /// Submissions must carry non-decreasing arrival times (the arrival
    /// process is a totally ordered virtual-time trace).
    ArrivalOutOfOrder {
        /// Latest previously submitted arrival, microseconds.
        last_micros: u64,
        /// Offending earlier arrival, microseconds.
        arrival_micros: u64,
    },
    /// The id does not name a submitted sequence.
    UnknownSequence {
        /// The unknown handle.
        id: SeqId,
    },
    /// Cancelling a sequence that already finished or was cancelled.
    AlreadyRetired {
        /// The retired handle.
        id: SeqId,
    },
    /// The scheduler plans more concurrent sequences than the engine's
    /// KV pool holds.
    SlotsExceedCapacity {
        /// Slots the scheduler schedules.
        scheduled: usize,
        /// Slots the engine pools.
        capacity: usize,
    },
    /// The per-request deadline passed before completion; the sequence
    /// was retired and any KV slot freed exactly once.
    Deadline {
        /// The retired handle.
        id: SeqId,
        /// The deadline that expired, microseconds of virtual time.
        deadline_micros: u64,
    },
    /// A chip failure evicted the sequence and recovery retries were
    /// exhausted before a slot freed up on the surviving grid.
    ChipLost {
        /// The abandoned handle.
        id: SeqId,
        /// The failed chip that evicted it.
        chip: usize,
    },
    /// The sequence was shed from the admission queue under fault
    /// pressure: queued requests are sacrificed before admitted ones.
    Shed {
        /// The shed handle.
        id: SeqId,
    },
    /// The fault plan handed to [`OnlineServer::with_faults`] failed
    /// validation.
    InvalidFaultPlan {
        /// The underlying validation failure.
        error: FaultError,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ServeError::QueueFull { capacity } => {
                write!(f, "admission queue full ({capacity} waiting); retry later")
            }
            ServeError::EmptyPrompt => {
                write!(f, "request prompt must contain at least one token")
            }
            ServeError::TokenOutOfVocab { token, vocab } => {
                write!(
                    f,
                    "prompt token {token} is outside the {vocab}-token vocabulary"
                )
            }
            ServeError::ArrivalOutOfOrder {
                last_micros,
                arrival_micros,
            } => write!(
                f,
                "arrival {arrival_micros} µs precedes an earlier submission at {last_micros} µs"
            ),
            ServeError::UnknownSequence { id } => {
                write!(f, "{id} was never submitted")
            }
            ServeError::AlreadyRetired { id } => {
                write!(f, "{id} already finished or was cancelled")
            }
            ServeError::SlotsExceedCapacity {
                scheduled,
                capacity,
            } => write!(
                f,
                "scheduler schedules {scheduled} slots but the engine pools {capacity}"
            ),
            ServeError::Deadline {
                id,
                deadline_micros,
            } => write!(f, "{id} missed its deadline at {deadline_micros} µs"),
            ServeError::ChipLost { id, chip } => {
                write!(f, "{id} lost to chip {chip} failure; recovery exhausted")
            }
            ServeError::Shed { id } => {
                write!(f, "{id} shed from the queue under fault pressure")
            }
            ServeError::InvalidFaultPlan { error } => {
                write!(f, "invalid fault plan: {error}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Lifecycle state of a submitted sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SeqState {
    /// Waiting in the bounded admission queue.
    Queued,
    /// Admitted to the round policy, consuming prompt tokens. Its KV
    /// slot is created the first round it receives prefill budget.
    Prefilling,
    /// Resident in a KV slot, prompt consumed, streaming output tokens.
    Decoding,
    /// Every requested token was streamed; the KV slot is freed.
    Finished,
    /// Cancelled before completion; any KV slot was freed.
    Cancelled,
    /// Evicted by a chip failure; the KV slot was freed and the sequence
    /// awaits re-admission onto the surviving grid (still live).
    Recovering,
    /// Terminal: the per-request deadline passed before completion.
    DeadlineMissed,
    /// Terminal: shed from the admission queue under fault pressure.
    Shed,
    /// Terminal: chip-failure recovery retries were exhausted.
    ChipLost,
}

impl SeqState {
    /// Queued, resident or recovering: not yet retired.
    fn is_live(self) -> bool {
        matches!(
            self,
            SeqState::Queued | SeqState::Prefilling | SeqState::Decoding | SeqState::Recovering
        )
    }
}

/// One entry of the server's event log, stamped with virtual time.
/// [`OnlineServer::poll_events`] returns the entries added since the last
/// poll — the streaming interface: a `Token` event is visible as soon as
/// the round that produced it completes, long before the sequence ends.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeEvent {
    /// The sequence left the admission queue for the round policy (its KV
    /// slot is created at its first prefill budget).
    Admitted {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// One pipeline round ran; logged after its prefix commit, before
    /// its `Token` events.
    Round {
        /// The round policy's slot assignment.
        plan: RoundPlan,
        /// Virtual time at the end of the round, seconds.
        t_s: f64,
        /// Degraded grid, or a straggler or link-fault stretch.
        degraded: bool,
        /// Link-fault retransmissions stretched the round.
        link_retry: bool,
        /// Sequences holding a KV slot during the round.
        live_slots: usize,
        /// Logical fp16 KV bytes of the slots that outlive the round.
        kv_bytes_fp16: u64,
        /// Bytes of the pages those slots own privately.
        kv_owned_bytes_fp16: u64,
    },
    /// One streamed output token.
    Token {
        /// Sequence handle.
        id: SeqId,
        /// Position in the sequence's output stream (0-based).
        index: usize,
        /// The token id.
        token: u32,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// An injected chip failure took effect; every resident sequence was
    /// evicted and slot capacity shrank to the survivor share.
    ChipFailed {
        /// The chip that died (row-major in the 4×4 grid).
        chip: usize,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// A resident sequence lost its KV to a chip failure; its slot was
    /// freed and it entered recovery.
    Evicted {
        /// Sequence handle.
        id: SeqId,
        /// The failed chip.
        chip: usize,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// An evicted sequence re-admitted: its retained prompt + emitted
    /// tokens re-prefill into a fresh slot, resuming token-exact.
    Recovered {
        /// Sequence handle.
        id: SeqId,
        /// Virtual time, seconds.
        t_s: f64,
    },
    /// The sequence reached a terminal state and any KV slot was freed.
    /// Always the sequence's last event.
    Retired {
        /// Sequence handle.
        id: SeqId,
        /// The terminal state.
        state: SeqState,
        /// Virtual time, seconds.
        t_s: f64,
    },
}

/// Per-request bookkeeping.
#[derive(Debug)]
struct SeqRecord {
    request: SequenceRequest,
    state: SeqState,
    /// Its KV slot, from its first prefill round until it leaves the
    /// round policy.
    slot: Option<SeqSlot>,
    arrival_s: f64,
    /// Tokens streamed so far (grown one per decode round).
    tokens: Vec<u32>,
    comm: CommCounters,
    /// Prefill panel accounting harvested from its slots.
    prefill: PrefillStats,
    /// Times this sequence left the round policy, releasing any KV slot.
    /// Kept apart from the event log so harnesses can check it against
    /// the logged admissions (0 for queue-only lifetimes).
    slot_frees: u32,
    /// Completion deadline in virtual microseconds, from the fault plan.
    deadline: Option<u64>,
    /// Recovery re-admission attempts since the last eviction.
    retries: u32,
    /// Earliest virtual time the next recovery attempt may run.
    retry_at_s: f64,
    /// The chip whose failure last evicted this sequence.
    evicted_by: Option<usize>,
    /// The evicted slot, parked between eviction and re-admission (keeps
    /// emitted tokens, sampler state, and warm buffers).
    parked: Option<SeqSlot>,
    /// The typed fault outcome for retired-by-fault sequences.
    error: Option<ServeError>,
}

/// Per-sequence outcome in a [`ServeReport`].
#[derive(Debug, Clone)]
pub struct SequenceOutcome {
    /// Sequence handle (index in submission order).
    pub id: SeqId,
    /// Final lifecycle state.
    pub state: SeqState,
    /// Arrival time, virtual seconds.
    pub arrival_s: f64,
    /// When the sequence entered the round policy (None if never
    /// admitted); its KV slot comes at its first prefill budget.
    pub admitted_s: Option<f64>,
    /// Time to first token: first decode emission minus arrival.
    pub ttft_s: Option<f64>,
    /// When the sequence finished, was cancelled, or was retired by a fault.
    pub finish_s: Option<f64>,
    /// The streamed token ids, in emission order.
    pub tokens: Vec<u32>,
    /// Collective-communication counters accumulated while resident.
    pub comm: CommCounters,
    /// Prefill panels run while resident.
    pub prefill: PrefillStats,
    /// Departures from the round policy, each freeing any KV slot
    /// (exactly once per admission; see tests).
    pub slot_frees: u32,
    /// Times the sequence entered the round policy (1 + recoveries;
    /// equals `slot_frees` for every retired sequence).
    pub admissions: u32,
    /// Typed fault outcome when the sequence was retired by a deadline,
    /// shedding, or an unrecoverable chip loss.
    pub error: Option<ServeError>,
}

/// Aggregate service-level-objective statistics in virtual time.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloReport {
    /// Accepted submissions.
    pub submitted: usize,
    /// Sequences that streamed every requested token.
    pub completed: usize,
    /// Sequences cancelled before completion.
    pub cancelled: usize,
    /// Submissions rejected by queue backpressure.
    pub rejected: usize,
    /// Queued sequences shed under fault pressure.
    pub shed: usize,
    /// Sequences retired by an expired deadline.
    pub deadline_missed: usize,
    /// Sequences abandoned after exhausting chip-failure recovery.
    pub chip_lost: usize,
    /// Injected chip failures that took effect.
    pub chip_failures: usize,
    /// Eviction/re-prefill accounting for chip-failure recovery.
    pub recovery: RecoveryStats,
    /// Rounds run on a degraded grid or under a straggler/link stretch.
    pub degraded_rounds: u64,
    /// Rounds stretched by link-fault retransmissions.
    pub link_retry_rounds: u64,
    /// Pipeline rounds executed.
    pub rounds: u64,
    /// Prompt tokens prefilled.
    pub prefill_tokens: u64,
    /// Output tokens decoded.
    pub decoded_tokens: u64,
    /// Most live KV slots at once. A sequence takes its slot in the
    /// first round it receives prefill budget, not at admission, so this
    /// counts sequences that have started prefill and not yet left.
    pub peak_resident: usize,
    /// Largest pooled KV footprint at fp16 storage, bytes (logical:
    /// shared pages counted once per referencing sequence).
    pub peak_kv_bytes_fp16: u64,
    /// Largest footprint of privately owned KV pages, bytes. Page-granular
    /// (can exceed `peak_kv_bytes_fp16` without sharing) and excluding
    /// every page committed to the prefix pool, so the gap between the
    /// two is not the capacity sharing recovered.
    pub peak_kv_owned_bytes_fp16: u64,
    /// Prefix-reuse counters (all zero for a dense engine).
    pub prefix: PrefixStats,
    /// Final virtual time, seconds.
    pub makespan_s: f64,
    /// Decode throughput in virtual time, tokens/s.
    pub decode_tokens_per_s_virtual: f64,
    /// Median time-to-first-token, seconds (healthy-mode samples only;
    /// degraded-mode samples get their own rows below).
    pub ttft_p50_s: f64,
    /// 99th-percentile time-to-first-token, seconds.
    pub ttft_p99_s: f64,
    /// Mean time-to-first-token, seconds.
    pub ttft_mean_s: f64,
    /// Median inter-token gap (time per output token), seconds.
    pub tpot_p50_s: f64,
    /// 99th-percentile inter-token gap, seconds.
    pub tpot_p99_s: f64,
    /// Mean inter-token gap, seconds.
    pub tpot_mean_s: f64,
    /// Median TTFT over degraded-mode samples (degraded round, or the
    /// sequence was ever evicted). `0.0` when no degraded sample exists.
    pub ttft_degraded_p50_s: f64,
    /// 99th-percentile degraded-mode TTFT, seconds.
    pub ttft_degraded_p99_s: f64,
    /// Median degraded-mode inter-token gap, seconds.
    pub tpot_degraded_p50_s: f64,
    /// 99th-percentile degraded-mode inter-token gap, seconds.
    pub tpot_degraded_p99_s: f64,
}

/// Full result of an online run: SLO summary, per-sequence outcomes, and
/// the recorded round log (for differential comparison against
/// [`BatchScheduler::plan`]).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Aggregate latency/throughput statistics.
    pub slo: SloReport,
    /// One outcome per accepted submission, indexed by [`SeqId`].
    pub outcomes: Vec<SequenceOutcome>,
    /// The per-round slot assignments the online loop produced.
    pub plans: Vec<RoundPlan>,
}

/// Result of driving a whole timed trace through [`OnlineServer::run_trace`].
#[derive(Debug)]
pub struct TraceOutcome {
    /// Per-submission result, in input order: the assigned [`SeqId`] or
    /// the typed rejection.
    pub submissions: Vec<Result<SeqId, ServeError>>,
    /// The final report after the server drained.
    pub report: ServeReport,
}

/// The event-driven online serving engine.
#[derive(Debug)]
pub struct OnlineServer {
    engine: BatchedDataflowExecutor,
    /// Virtual seconds per pipeline round (from [`BatchScheduler::round_s`]).
    round_s: f64,
    /// Concurrent-sequence capacity (the machine's pipeline slots).
    slots: usize,
    /// Bounded admission-queue capacity.
    queue_capacity: usize,
    /// The virtual clock, seconds.
    now_s: f64,
    last_arrival_micros: u64,
    /// Admission queue, FCFS.
    waiting: VecDeque<SeqId>,
    /// Decides every round; holds the admitted sequences (by `SeqId`
    /// index) in admission order, with the survivor grid's slot budget.
    policy: RoundPolicy,
    seqs: Vec<SeqRecord>,
    /// The append-only event log every report is folded from.
    events: Vec<ServeEvent>,
    /// Log length at the previous [`poll_events`](Self::poll_events).
    polled: usize,
    /// `QueueFull` refusals: they get no `SeqId`, so never reach the log.
    rejected: usize,
    /// The injected fault schedule (validated at construction).
    faults: FaultPlan,
    /// Chip failures sorted by time; `next_failure` indexes the first
    /// not-yet-applied entry.
    pending_failures: Vec<ChipFailure>,
    next_failure: usize,
    /// Survivor set of the 4×4 grid.
    health: GridHealth,
    /// Row-partition hosting for the current survivor set.
    layout: DegradedLayout,
    /// Evicted sequences awaiting re-admission, FCFS.
    recovering: VecDeque<SeqId>,
    /// Submission attempts (accepted or not) — the index the fault
    /// plan's deadlines key on, so a trace's deadline targets stay stable
    /// regardless of rejections.
    submit_attempts: usize,
    /// Shared prefix tree + page pool, when the engine was built with
    /// [`BatchedDataflowExecutor::with_prefix_cache`]. Unlike the offline
    /// path (which rebuilds its tree per run), this cache persists across
    /// the server's whole lifetime — and is flushed whole on chip death,
    /// since every committed page stripes across all 16 chips.
    prefix: Option<PrefixCache>,
}

impl OnlineServer {
    /// A server running `engine` with the slot count and round timing of
    /// `scheduler`, and an admission queue bounded at `queue_capacity`
    /// waiting requests.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::SlotsExceedCapacity`] when the scheduler
    /// plans more concurrent sequences than the engine pools.
    pub fn new(
        engine: BatchedDataflowExecutor,
        scheduler: &BatchScheduler,
        queue_capacity: usize,
    ) -> Result<Self, ServeError> {
        Self::with_faults(engine, scheduler, queue_capacity, FaultPlan::none())
    }

    /// As [`new`](Self::new), with a fault schedule to inject on the
    /// virtual clock. An empty plan yields a server whose every
    /// arithmetic operation is bit-identical to [`new`](Self::new)'s.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidFaultPlan`] for a malformed plan (out-of-range
    /// chip, no survivors, empty windows, duplicate deadlines, …), or
    /// [`ServeError::SlotsExceedCapacity`] as for [`new`](Self::new).
    pub fn with_faults(
        engine: BatchedDataflowExecutor,
        scheduler: &BatchScheduler,
        queue_capacity: usize,
        faults: FaultPlan,
    ) -> Result<Self, ServeError> {
        faults
            .validate()
            .map_err(|error| ServeError::InvalidFaultPlan { error })?;
        let slots = scheduler.slots();
        if slots > engine.max_slots() {
            return Err(ServeError::SlotsExceedCapacity {
                scheduled: slots,
                capacity: engine.max_slots(),
            });
        }
        let pending_failures = faults.failures_sorted();
        let health = GridHealth::full();
        // A full grid always has survivors.
        let layout =
            DegradedLayout::for_health(&health).map_err(|_| ServeError::InvalidFaultPlan {
                error: FaultError::NoSurvivors,
            })?;
        let prefix = engine.prefix_config().map(PrefixCache::new);
        Ok(OnlineServer {
            round_s: scheduler.round_s(),
            slots,
            queue_capacity,
            engine,
            prefix,
            now_s: 0.0,
            last_arrival_micros: 0,
            waiting: VecDeque::new(),
            policy: RoundPolicy::new(slots),
            seqs: Vec::new(),
            events: Vec::new(),
            polled: 0,
            rejected: 0,
            faults,
            pending_failures,
            next_failure: 0,
            health,
            layout,
            recovering: VecDeque::new(),
            submit_attempts: 0,
        })
    }

    /// Recovery re-admission attempts before an evicted sequence is
    /// abandoned as [`SeqState::ChipLost`]. Backoff is exponential in
    /// round time, so the last attempt waits `2^6 = 64` rounds.
    pub const MAX_RECOVERY_RETRIES: u32 = 6;

    /// The survivor set of the 4×4 chip grid.
    pub fn grid_health(&self) -> GridHealth {
        self.health
    }

    /// The row-partition hosting for the current survivor set.
    pub fn degraded_layout(&self) -> &DegradedLayout {
        &self.layout
    }

    /// Concurrent-sequence capacity under the current survivor set.
    pub fn effective_slots(&self) -> usize {
        self.policy.slots()
    }

    /// The injected fault schedule.
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Current virtual time, seconds.
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Requests waiting in the admission queue.
    pub fn queued(&self) -> usize {
        self.waiting.len()
    }

    /// Sequences admitted to the round policy (those not yet given
    /// prefill budget hold no KV slot yet).
    pub fn resident(&self) -> usize {
        self.policy.len()
    }

    /// Evicted sequences awaiting recovery re-admission.
    pub fn recovering(&self) -> usize {
        self.recovering.len()
    }

    /// Lifecycle state of a submitted sequence.
    pub fn state_of(&self, id: SeqId) -> Option<SeqState> {
        self.seqs.get(id.0).map(|r| r.state)
    }

    /// Tokens streamed so far for a sequence.
    pub fn tokens_of(&self, id: SeqId) -> Option<&[u32]> {
        self.seqs.get(id.0).map(|r| r.tokens.as_slice())
    }

    /// The wrapped batched engine.
    pub fn engine(&self) -> &BatchedDataflowExecutor {
        &self.engine
    }

    /// The server's shared prefix cache, when the engine enables one —
    /// exposed so harnesses can check refcount-ledger invariants (every
    /// page freed exactly once) after a run drains.
    pub fn prefix_cache(&self) -> Option<&PrefixCache> {
        self.prefix.as_ref()
    }

    /// Submit a request to the admission queue. The request's
    /// `arrival_s_micros` stamps its place in the virtual arrival
    /// process; submissions must be fed in non-decreasing arrival order
    /// (as [`run_trace`](Self::run_trace) does).
    ///
    /// # Errors
    ///
    /// [`ServeError::EmptyPrompt`] for an empty prompt,
    /// [`ServeError::TokenOutOfVocab`] for a prompt token the model cannot
    /// embed, [`ServeError::ArrivalOutOfOrder`] for a time-travelling
    /// arrival,
    /// and [`ServeError::QueueFull`] when backpressure rejects the
    /// request (nothing is enqueued; the rejection is counted).
    pub fn submit(&mut self, request: SequenceRequest) -> Result<SeqId, ServeError> {
        // Deadlines key on the submission *attempt* index (counted even
        // for rejected calls), so a fault plan's deadline targets line up
        // with trace positions regardless of backpressure.
        let attempt = self.submit_attempts;
        self.submit_attempts += 1;
        if request.prompt.is_empty() {
            return Err(ServeError::EmptyPrompt);
        }
        let vocab = self.engine.executor().config().vocab_size;
        if let Some(token) = request.token_out_of_vocab(vocab) {
            return Err(ServeError::TokenOutOfVocab { token, vocab });
        }
        if request.arrival_s_micros < self.last_arrival_micros {
            return Err(ServeError::ArrivalOutOfOrder {
                last_micros: self.last_arrival_micros,
                arrival_micros: request.arrival_s_micros,
            });
        }
        if self.waiting.len() >= self.queue_capacity {
            self.rejected += 1;
            return Err(ServeError::QueueFull {
                capacity: self.queue_capacity,
            });
        }
        self.last_arrival_micros = request.arrival_s_micros;
        let id = SeqId(self.seqs.len());
        self.seqs.push(SeqRecord {
            arrival_s: micros_to_s(request.arrival_s_micros),
            request,
            state: SeqState::Queued,
            slot: None,
            tokens: Vec::new(),
            comm: CommCounters::default(),
            prefill: PrefillStats::default(),
            slot_frees: 0,
            deadline: self.faults.deadline_of(attempt),
            retries: 0,
            retry_at_s: 0.0,
            evicted_by: None,
            parked: None,
            error: None,
        });
        self.waiting.push_back(id);
        Ok(id)
    }

    /// Cancel a sequence. A queued sequence leaves the admission queue; a
    /// resident one releases any KV slot immediately (exactly once). Either
    /// way a [`SeqState::Cancelled`] [`ServeEvent::Retired`] is logged and
    /// no further tokens stream.
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownSequence`] for a handle never issued,
    /// [`ServeError::AlreadyRetired`] when the sequence already finished
    /// or was cancelled.
    pub fn cancel(&mut self, id: SeqId) -> Result<(), ServeError> {
        let Some(rec) = self.seqs.get(id.0) else {
            return Err(ServeError::UnknownSequence { id });
        };
        if !rec.state.is_live() {
            return Err(ServeError::AlreadyRetired { id });
        }
        self.retire(id, SeqState::Cancelled, None);
        Ok(())
    }

    /// The events logged since the previous call, in emission order. The
    /// log itself keeps every event, so polling never changes a report.
    pub fn poll_events(&mut self) -> Vec<ServeEvent> {
        let new = self.events.get(self.polled..).unwrap_or_default().to_vec();
        self.polled = self.events.len();
        new
    }

    /// Run rounds until no sequence is queued, recovering, or resident.
    /// Idle gaps jump the virtual clock to the next wake event (queued
    /// arrival, recovery retry, pending chip failure, or live deadline).
    pub fn run_until_idle(&mut self) {
        self.advance_to(None);
    }

    /// Run rounds while work is resident and hop idle gaps wake event by
    /// wake event, until the clock reaches `until_s` (`None`: until the
    /// server drains).
    fn advance_to(&mut self, until_s: Option<f64>) {
        loop {
            self.apply_due_faults();
            self.enforce_deadlines();
            self.admit_waiting();
            if !self.policy.is_empty() {
                if until_s.is_some_and(|t| self.now_s >= t) {
                    return;
                }
                self.round();
                continue;
            }
            match self.next_wake() {
                Some(wake) if until_s.is_none_or(|t| wake <= t) => self.now_s = wake,
                _ => {
                    if let Some(t) = until_s {
                        self.now_s = self.now_s.max(t);
                    }
                    return;
                }
            }
        }
    }

    /// The next instant strictly after `now_s` at which an idle server
    /// must act: the front queued arrival, a recovery retry, a pending
    /// chip failure, or the deadline of a non-resident live sequence.
    /// `None` means the server is fully drained (fault-free servers
    /// reduce to the front-arrival rule the differential harness pins).
    fn next_wake(&self) -> Option<f64> {
        let mut candidates: Vec<f64> = Vec::new();
        if let Some(r) = self.waiting.front().and_then(|id| self.seqs.get(id.0)) {
            candidates.push(r.arrival_s);
        }
        for r in self.recovering.iter().filter_map(|id| self.seqs.get(id.0)) {
            if r.state == SeqState::Recovering {
                candidates.push(r.retry_at_s);
            }
        }
        if let Some(f) = self.pending_failures.get(self.next_failure) {
            candidates.push(micros_to_s(f.at_micros));
        }
        for r in &self.seqs {
            if matches!(r.state, SeqState::Queued | SeqState::Recovering) {
                if let Some(d) = r.deadline {
                    candidates.push(micros_to_s(d));
                }
            }
        }
        candidates
            .into_iter()
            .filter(|&t| t > self.now_s)
            .min_by(f64::total_cmp)
    }

    /// Drive a complete timed trace: each request is submitted when the
    /// virtual clock reaches its `arrival_s_micros` (requests must be
    /// sorted by arrival; out-of-order entries surface as typed errors in
    /// the result), `cancels` are `(at_micros, request index)` pairs
    /// applied at their times, and the server then runs until drained.
    ///
    /// Submissions at the same instant as a cancellation are delivered
    /// first. Cancels aimed at rejected or not-yet-submitted requests are
    /// ignored; cancelling an already-finished sequence is a no-op.
    pub fn run_trace(
        &mut self,
        requests: &[SequenceRequest],
        cancels: &[(u64, usize)],
    ) -> TraceOutcome {
        let mut cancels: Vec<(u64, usize)> = cancels.to_vec();
        cancels.sort_by_key(|&(t, _)| t);
        let mut submissions: Vec<Result<SeqId, ServeError>> = Vec::with_capacity(requests.len());
        let mut ids: Vec<Option<SeqId>> = vec![None; requests.len()];
        let mut si = 0usize;
        let mut ci = 0usize;
        loop {
            let next_sub = requests.get(si).map(|r| r.arrival_s_micros);
            let next_cancel = cancels.get(ci).map(|&(t, _)| t);
            let (t_micros, is_submit) = match (next_sub, next_cancel) {
                (Some(s), Some(c)) if s <= c => (s, true),
                (Some(s), None) => (s, true),
                (None, Some(c)) | (Some(_), Some(c)) => (c, false),
                (None, None) => break,
            };
            self.advance_to(Some(micros_to_s(t_micros)));
            if is_submit {
                if let Some(req) = requests.get(si) {
                    let res = self.submit(req.clone());
                    if let (Ok(id), Some(entry)) = (&res, ids.get_mut(si)) {
                        *entry = Some(*id);
                    }
                    submissions.push(res);
                }
                si += 1;
            } else {
                if let Some(&(_, target)) = cancels.get(ci) {
                    if let Some(&Some(id)) = ids.get(target) {
                        // Already-retired sequences make this a no-op.
                        let _ = self.cancel(id);
                    }
                }
                ci += 1;
            }
        }
        self.run_until_idle();
        TraceOutcome {
            submissions,
            report: self.report(),
        }
    }

    /// Apply every not-yet-applied chip failure whose time has come: kill
    /// the chip, shrink capacity to the survivor share, evict every
    /// resident sequence (each holds KV shards on all 16 chips, so none
    /// survives a chip death), and shed queue overflow.
    fn apply_due_faults(&mut self) {
        while let Some(&f) = self.pending_failures.get(self.next_failure) {
            if micros_to_s(f.at_micros) > self.now_s {
                break;
            }
            self.next_failure += 1;
            if !self.health.fail(f.chip) {
                // Already dead (validation forbids duplicates, but a
                // stale plan must not corrupt accounting).
                continue;
            }
            if let Ok(layout) = DegradedLayout::for_health(&self.health) {
                self.policy.set_slots(layout.effective_slots(self.slots));
                self.layout = layout;
            }
            self.events.push(ServeEvent::ChipFailed {
                chip: f.chip,
                t_s: self.now_s,
            });
            self.evict_all_resident(f.chip);
            // Every committed page stripes one shard per chip, so the
            // dead chip invalidates the entire tree: drop each tree
            // reference exactly once. Residents released their grants in
            // the eviction above, so this frees every page.
            if let Some(cache) = self.prefix.as_mut() {
                cache.flush();
            }
            self.shed_queue_overflow();
        }
    }

    /// Evict every resident sequence after `chip` died: free its slot
    /// (exactly once), harvest communication counters, park the carcass
    /// (emitted tokens + sampler state survive; the KV context is rebuilt
    /// at re-admission), and enqueue it for recovery.
    fn evict_all_resident(&mut self, chip: usize) {
        let victims: Vec<SeqId> = self.policy.resident().map(SeqId).collect();
        for id in victims {
            // A died chip invalidates the sequence's shared pages along
            // with its private ones: `leave` drops its page references
            // exactly once, before the caller flushes the whole tree. A
            // sequence that never got prefill budget parks no carcass.
            let carcass = self.leave(id);
            let Some(rec) = self.seqs.get_mut(id.0) else {
                continue;
            };
            rec.state = SeqState::Recovering;
            rec.evicted_by = Some(chip);
            rec.retries = 0;
            rec.retry_at_s = self.now_s;
            // A sequence evicted again before its rebuilt slot was
            // created keeps the carcass parked at the first eviction.
            if carcass.is_some() {
                rec.parked = carcass;
            }
            self.recovering.push_back(id);
            self.events.push(ServeEvent::Evicted {
                id,
                chip,
                t_s: self.now_s,
            });
        }
    }

    /// Load-shedding under fault pressure: while the backlog (queued +
    /// recovering) overflows the admission queue's bound, drop the
    /// *newest* queued requests — queued work is sacrificed before
    /// admitted work, and earlier arrivals keep their FCFS promise.
    fn shed_queue_overflow(&mut self) {
        while self.waiting.len() + self.recovering.len() > self.queue_capacity {
            let Some(id) = self.waiting.pop_back() else {
                break;
            };
            self.retire(id, SeqState::Shed, Some(ServeError::Shed { id }));
        }
    }

    /// Retire every live sequence whose deadline the clock stands
    /// strictly past. No-op (and no arithmetic) for plans without
    /// deadlines.
    fn enforce_deadlines(&mut self) {
        if self.faults.deadlines.is_empty() {
            return;
        }
        let expired: Vec<SeqId> = self
            .seqs
            .iter()
            .enumerate()
            .filter(|(_, r)| {
                r.state.is_live() && r.deadline.is_some_and(|d| self.now_s > micros_to_s(d))
            })
            .map(|(i, _)| SeqId(i))
            .collect();
        for id in expired {
            self.miss_deadline(id);
        }
    }

    /// Retire one sequence whose deadline expired with its typed
    /// outcome.
    fn miss_deadline(&mut self, id: SeqId) {
        let Some(deadline_micros) = self.seqs.get(id.0).and_then(|r| r.deadline) else {
            return;
        };
        let error = ServeError::Deadline {
            id,
            deadline_micros,
        };
        self.retire(id, SeqState::DeadlineMissed, Some(error));
    }

    /// Retire live sequence `id` into terminal `state`: it leaves the
    /// admission queue, the recovery line and the round policy (freeing
    /// any KV slot exactly once), drops any parked carcass, and logs its
    /// [`ServeEvent::Retired`].
    fn retire(&mut self, id: SeqId, state: SeqState, error: Option<ServeError>) {
        self.waiting.retain(|&w| w != id);
        self.recovering.retain(|&r| r != id);
        self.leave(id);
        if let Some(rec) = self.seqs.get_mut(id.0) {
            rec.state = state;
            rec.parked = None;
            rec.error = error;
        }
        self.events.push(ServeEvent::Retired {
            id,
            state,
            t_s: self.now_s,
        });
    }

    /// Re-admit evicted sequences, FCFS with exponential backoff:
    /// admitted work outranks queued work for the survivors' shrunken
    /// capacity. A due sequence with room re-enters the round policy to
    /// re-prefill `prompt ++ emitted`
    /// (`BatchedDataflowExecutor::open_slot` — token-exact); one
    /// out of retries is abandoned as [`SeqState::ChipLost`].
    fn admit_recovering(&mut self) {
        let queue = std::mem::take(&mut self.recovering);
        for id in queue {
            let Some(rec) = self.seqs.get_mut(id.0) else {
                continue;
            };
            if rec.state != SeqState::Recovering {
                // Cancelled or retired while parked; already accounted.
                continue;
            }
            if rec.retry_at_s > self.now_s {
                self.recovering.push_back(id);
                continue;
            }
            if self.policy.has_room() {
                // The emitted tokens re-prefill behind the prompt; only
                // the decode budget left is still owed.
                let emitted = u32::try_from(rec.tokens.len()).unwrap_or(u32::MAX);
                let req = rec.request.to_sim_request();
                let resumed = Request::new(
                    req.arrival_s_micros,
                    req.prompt_tokens.saturating_add(emitted),
                    req.decode_tokens.saturating_sub(emitted),
                );
                self.policy.admit(id.0, &resumed);
                rec.state = SeqState::Prefilling;
                self.events.push(ServeEvent::Recovered {
                    id,
                    t_s: self.now_s,
                });
            } else if rec.retries >= Self::MAX_RECOVERY_RETRIES {
                let chip = rec.evicted_by.unwrap_or(0);
                self.retire(
                    id,
                    SeqState::ChipLost,
                    Some(ServeError::ChipLost { id, chip }),
                );
            } else {
                rec.retries += 1;
                // Exponential backoff in round time: 2, 4, … 64 rounds.
                rec.retry_at_s = self.now_s + self.round_s * retry_round_factor(rec.retries);
                self.recovering.push_back(id);
            }
        }
    }

    /// Admit queued arrivals to the round policy, FCFS, exactly as the
    /// offline planner does at each round boundary. Recovering evicted
    /// sequences re-admit first: admitted work outranks queued work.
    fn admit_waiting(&mut self) {
        self.admit_recovering();
        while self.policy.has_room() {
            let Some(&id) = self.waiting.front() else {
                break;
            };
            let Some(rec) = self.seqs.get_mut(id.0) else {
                self.waiting.pop_front();
                continue;
            };
            if rec.arrival_s > self.now_s {
                break;
            }
            self.waiting.pop_front();
            self.policy.admit(id.0, &rec.request.to_sim_request());
            rec.state = SeqState::Prefilling;
            self.events.push(ServeEvent::Admitted {
                id,
                t_s: self.now_s,
            });
        }
    }

    /// Take `id` out of the round policy and free its KV slot, if it has
    /// one. Returns the freed slot.
    fn leave(&mut self, id: SeqId) -> Option<SeqSlot> {
        if !self.policy.remove(id.0) {
            return None;
        }
        self.free_slot(id)
    }

    /// Count `id`'s departure from the round policy — exactly one
    /// `slot_frees` per admission — and free its KV slot, if it has one:
    /// page grant released, counters harvested into its record.
    fn free_slot(&mut self, id: SeqId) -> Option<SeqSlot> {
        let rec = self.seqs.get_mut(id.0)?;
        rec.slot_frees += 1;
        let mut slot = rec.slot.take()?;
        if let Some(cache) = self.prefix.as_mut() {
            cache.release_grant(&mut slot.grant);
        }
        // `+=`: a recovered sequence's pre-eviction counters were
        // harvested at eviction time.
        rec.comm += slot.state.comm;
        rec.prefill.merge(std::mem::take(&mut slot.prefill_stats));
        Some(slot)
    }

    /// One pipeline round: the [`RoundPolicy`] assigns slots (creating a
    /// sequence's KV slot when it first gets prefill budget), the shared
    /// batch machinery executes them, the round is logged, produced
    /// tokens stream out, and completions retire.
    fn round(&mut self) {
        // Stragglers and link faults stretch round time. Fault-free runs
        // compute `round_s * 1.0 * 1.0`, exact in IEEE f64, so the clock
        // stays bit-identical to a server without the fault machinery.
        let health = self.health;
        let slowdown = self
            .faults
            .slowdown_at(self.now_s, |chip| health.is_alive(chip));
        let link_retries = self.faults.link_retries_at(self.now_s);
        let stretch = slowdown * retry_round_factor(link_retries);
        let degraded = self.health.is_degraded() || stretch > 1.0;
        self.now_s += self.round_s * stretch;

        // The policy's lazy prefix consult is the instant a sequence
        // takes its KV slot: a fresh one, or an evicted sequence's
        // rebuilt carcass. Its prompt is matched against the shared tree
        // and the hit attached, so only the unmatched suffix is charged.
        let (engine, seqs, prefix) = (&self.engine, &mut self.seqs, &mut self.prefix);
        let round = self.policy.next_round(|seq| {
            let Some(rec) = seqs.get_mut(seq) else {
                return 0;
            };
            let (slot, matched) =
                engine.open_slot(&rec.request, rec.parked.take(), prefix.as_mut());
            rec.slot = Some(slot);
            u32::try_from(matched).unwrap_or(u32::MAX)
        });

        // Execute the round through the shared (rayon-or-serial) batch
        // machinery, one disjoint `&mut` slot per step.
        let mut steps = round.steps.clone();
        steps.sort_unstable_by_key(|s| s.seq);
        let work: Vec<(&mut SeqSlot, Step)> = self
            .seqs
            .iter_mut()
            .enumerate()
            .filter_map(|(seq, rec)| {
                let step = steps.get(steps.binary_search_by_key(&seq, |s| s.seq).ok()?)?;
                Some((rec.slot.as_mut()?, *step))
            })
            .collect();
        self.engine.run_round(work);

        // Commit completed prompts into the shared tree, in admission
        // order, before completions leave below: each new block's pages
        // freeze in place (owned → shared, no copy) and strictly later
        // rounds match against them — the same end-of-round commit
        // schedule the timing planner's oracle follows.
        if let Some(cache) = self.prefix.as_mut() {
            for step in round.steps.iter().filter(|s| s.prefill_done) {
                let slot = self.seqs.get_mut(step.seq).and_then(|r| r.slot.as_mut());
                if let Some(SeqSlot {
                    prompt,
                    state,
                    grant,
                    ..
                }) = slot
                {
                    cache.commit(prompt, |b| state.share_block(b), grant);
                }
            }
        }

        // Log the round before its tokens. Its KV footprint counts the
        // slots that outlive the round: the commit above was the last
        // change to them, so this is the pool after completions leave.
        let live = self
            .seqs
            .iter()
            .enumerate()
            .filter_map(|(seq, r)| Some((seq, r.slot.as_ref()?)));
        let live_slots = live.clone().count();
        let (kv_bytes_fp16, kv_owned_bytes_fp16) = live
            .filter(|(seq, _)| !round.finished.contains(seq))
            .fold((0u64, 0u64), |(b, o), (_, s)| {
                (
                    b.saturating_add(s.state.kv_bytes_fp16()),
                    o.saturating_add(s.state.kv_owned_bytes_fp16()),
                )
            });
        let now = self.now_s;
        self.events.push(ServeEvent::Round {
            plan: round.plan(),
            t_s: now,
            degraded,
            link_retry: link_retries > 0,
            live_slots,
            kv_bytes_fp16,
            kv_owned_bytes_fp16,
        });

        // Stream freshly decoded tokens and advance lifecycle states.
        for step in &round.steps {
            let Some(rec) = self.seqs.get_mut(step.seq) else {
                continue;
            };
            if step.prefill_done && rec.state == SeqState::Prefilling {
                rec.state = SeqState::Decoding;
            }
            if !step.decode {
                continue;
            }
            let Some(&token) = rec.slot.as_ref().and_then(|s| s.out.last()) else {
                continue;
            };
            self.events.push(ServeEvent::Token {
                id: SeqId(step.seq),
                index: rec.tokens.len(),
                token,
                t_s: now,
            });
            rec.tokens.push(token);
        }

        // Completions free their KV slots and retire.
        for &seq in &round.finished {
            // The policy already dropped it.
            self.free_slot(SeqId(seq));
            self.retire(SeqId(seq), SeqState::Finished, None);
        }
    }

    /// The full report: SLO summary, recovery accounting, per-sequence
    /// outcomes and the round log, folded in one pass over the event log.
    pub fn report(&self) -> ServeReport {
        let mut outcomes: Vec<SequenceOutcome> = self
            .seqs
            .iter()
            .enumerate()
            .map(|(i, r)| SequenceOutcome {
                id: SeqId(i),
                state: r.state,
                arrival_s: r.arrival_s,
                admitted_s: None,
                ttft_s: None,
                finish_s: None,
                tokens: r.tokens.clone(),
                comm: r.comm,
                prefill: r.prefill,
                slot_frees: r.slot_frees,
                admissions: 0,
                error: r.error,
            })
            .collect();
        // Per sequence: its previous token's time and its prompt ++ emitted
        // length, which a recovery re-prefills.
        let mut streams: Vec<(Option<f64>, u32)> = self
            .seqs
            .iter()
            .map(|r| (None, r.request.to_sim_request().prompt_tokens))
            .collect();
        let mut plans = Vec::new();
        let mut recovery = RecoveryStats::default();
        let (mut ttfts, mut gaps) = (Vec::new(), Vec::new());
        let (mut ttfts_degraded, mut gaps_degraded) = (Vec::new(), Vec::new());
        let (mut chip_failures, mut degraded_rounds, mut link_retry_rounds) = (0, 0u64, 0u64);
        let (mut prefill_tokens, mut decoded_tokens) = (0u64, 0u64);
        let (mut peak_resident, mut peak_kv_bytes, mut peak_kv_owned_bytes) = (0, 0u64, 0u64);
        let mut degraded_round = false;
        for event in &self.events {
            match event {
                ServeEvent::Admitted { id, t_s } => {
                    if let Some(o) = outcomes.get_mut(id.0) {
                        o.admitted_s = Some(*t_s);
                        o.admissions += 1;
                    }
                }
                ServeEvent::Round {
                    plan,
                    degraded,
                    link_retry,
                    live_slots,
                    kv_bytes_fp16,
                    kv_owned_bytes_fp16,
                    ..
                } => {
                    degraded_round = *degraded;
                    degraded_rounds = degraded_rounds.saturating_add(u64::from(*degraded));
                    link_retry_rounds = link_retry_rounds.saturating_add(u64::from(*link_retry));
                    prefill_tokens = prefill_tokens.saturating_add(plan.prefill_slots());
                    // cast: per-round decode counts are small usize values, value-preserving in u64
                    decoded_tokens = decoded_tokens.saturating_add(plan.decode.len() as u64);
                    peak_resident = peak_resident.max(*live_slots);
                    peak_kv_bytes = peak_kv_bytes.max(*kv_bytes_fp16);
                    peak_kv_owned_bytes = peak_kv_owned_bytes.max(*kv_owned_bytes_fp16);
                    plans.push(plan.clone());
                }
                ServeEvent::Token { id, t_s, .. } => {
                    let (Some(o), Some((prev, context))) =
                        (outcomes.get_mut(id.0), streams.get_mut(id.0))
                    else {
                        continue;
                    };
                    // Samples from degraded rounds land in the degraded
                    // rows, keeping healthy percentiles honest under chaos.
                    // That covers every evicted sequence: evictions follow
                    // a chip death, and a dead chip stays dead.
                    let (ttft_rows, gap_rows) = if degraded_round {
                        (&mut ttfts_degraded, &mut gaps_degraded)
                    } else {
                        (&mut ttfts, &mut gaps)
                    };
                    match *prev {
                        None => {
                            let ttft = t_s - o.arrival_s;
                            o.ttft_s = Some(ttft);
                            ttft_rows.push(ttft);
                        }
                        Some(p) => gap_rows.push(t_s - p),
                    }
                    *prev = Some(*t_s);
                    *context = context.saturating_add(1);
                }
                ServeEvent::ChipFailed { .. } => chip_failures += 1,
                ServeEvent::Evicted { .. } => recovery.evictions += 1,
                ServeEvent::Recovered { id, .. } => {
                    recovery.resumed += 1;
                    if let (Some(o), Some(&(_, context))) =
                        (outcomes.get_mut(id.0), streams.get(id.0))
                    {
                        o.admissions += 1;
                        recovery.re_prefill_tokens =
                            recovery.re_prefill_tokens.saturating_add(context.into());
                    }
                }
                ServeEvent::Retired { id, state, t_s } => {
                    if let Some(o) = outcomes.get_mut(id.0) {
                        o.finish_s = Some(*t_s);
                    }
                    recovery.failed += u64::from(*state == SeqState::ChipLost);
                }
            }
        }
        let sorted = |mut v: Vec<f64>| {
            v.sort_by(f64::total_cmp);
            v
        };
        let (ttfts, gaps) = (sorted(ttfts), sorted(gaps));
        let (ttfts_degraded, gaps_degraded) = (sorted(ttfts_degraded), sorted(gaps_degraded));
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                // cast: sample counts are small usize values, exact in f64
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let count = |s: SeqState| outcomes.iter().filter(|o| o.state == s).count();
        let slo = SloReport {
            submitted: outcomes.len(),
            completed: count(SeqState::Finished),
            cancelled: count(SeqState::Cancelled),
            shed: count(SeqState::Shed),
            deadline_missed: count(SeqState::DeadlineMissed),
            chip_lost: count(SeqState::ChipLost),
            chip_failures,
            recovery,
            degraded_rounds,
            link_retry_rounds,
            rejected: self.rejected,
            // cast: round counts are small usize values, value-preserving in u64
            rounds: plans.len() as u64,
            prefill_tokens,
            decoded_tokens,
            peak_resident,
            peak_kv_bytes_fp16: peak_kv_bytes,
            peak_kv_owned_bytes_fp16: peak_kv_owned_bytes,
            prefix: match &self.prefix {
                Some(c) => c.stats(),
                None => PrefixStats::default(),
            },
            makespan_s: self.now_s,
            decode_tokens_per_s_virtual: if self.now_s > 0.0 {
                // cast: decoded-token counts stay far below 2^53, exact in f64
                decoded_tokens as f64 / self.now_s
            } else {
                0.0
            },
            ttft_p50_s: percentile(&ttfts, 0.50),
            ttft_p99_s: percentile(&ttfts, 0.99),
            ttft_mean_s: mean(&ttfts),
            tpot_p50_s: percentile(&gaps, 0.50),
            tpot_p99_s: percentile(&gaps, 0.99),
            tpot_mean_s: mean(&gaps),
            ttft_degraded_p50_s: percentile(&ttfts_degraded, 0.50),
            ttft_degraded_p99_s: percentile(&ttfts_degraded, 0.99),
            tpot_degraded_p50_s: percentile(&gaps_degraded, 0.50),
            tpot_degraded_p99_s: percentile(&gaps_degraded, 0.99),
        };
        ServeReport {
            slo,
            outcomes,
            plans,
        }
    }
}

/// Nearest-rank percentile over an ascending-sorted slice (0.0 for an
/// empty sample, matching an idle server's report).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    // cast: sample counts are small (exact in f64) and the rounded rank is clamped by get()
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted.get(idx).copied().unwrap_or(0.0)
}

/// Virtual-time µs → seconds (arrivals, deadlines, fault timestamps).
fn micros_to_s(micros: u64) -> f64 {
    // cast: virtual timestamps are bounded by the run horizon (< 2^53 µs), value-preserving in f64
    micros as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::DataflowExecutor;
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

    fn server(queue_capacity: usize) -> OnlineServer {
        OnlineServer::new(engine(), &scheduler(), queue_capacity).expect("capacity fits")
    }

    #[test]
    fn online_matches_offline_plan_and_tokens() {
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 8),
            SequenceRequest::greedy(40_000, vec![100, 2], 5),
            SequenceRequest::greedy(2_000_000, vec![64], 12),
        ];
        let eng = engine();
        let sched = scheduler();
        let sim_reqs: Vec<_> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        let (offline, offline_plans) = sched.plan(&sim_reqs);
        let solo: Vec<Vec<u32>> = requests
            .iter()
            .map(|r| {
                eng.executor()
                    .generate_greedy(&r.prompt, r.decode_tokens as usize)
            })
            .collect();

        let mut server = OnlineServer::new(eng, &sched, requests.len()).expect("fits");
        let outcome = server.run_trace(&requests, &[]);
        assert!(outcome.submissions.iter().all(Result::is_ok));
        assert_eq!(outcome.report.plans, offline_plans);
        for (out, solo_out) in outcome.report.outcomes.iter().zip(&solo) {
            assert_eq!(&out.tokens, solo_out);
            assert_eq!(out.state, SeqState::Finished);
        }
        // Finish times replay the analytical completions exactly (same
        // f64 operations in the same order).
        let mut online_finish: Vec<f64> = outcome
            .report
            .outcomes
            .iter()
            .filter_map(|o| o.finish_s)
            .collect();
        online_finish.sort_by(f64::total_cmp);
        let mut offline_finish: Vec<f64> = offline.completions.iter().map(|c| c.finish_s).collect();
        offline_finish.sort_by(f64::total_cmp);
        assert_eq!(online_finish, offline_finish);
    }

    #[test]
    fn tokens_stream_before_completion() {
        let mut server = server(4);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![7, 3], 5))
            .expect("accepted");
        // Run rounds manually until the first token appears; the sequence
        // must still be live (decoding) at that moment.
        let mut streamed_early = false;
        for _ in 0..3 {
            server.admit_waiting();
            server.round();
            let events = server.poll_events();
            if events
                .iter()
                .any(|e| matches!(e, ServeEvent::Token { id: t, .. } if *t == id))
                && server.state_of(id) == Some(SeqState::Decoding)
            {
                streamed_early = true;
                break;
            }
        }
        assert!(streamed_early, "no token streamed while live");
        server.run_until_idle();
        assert_eq!(server.state_of(id), Some(SeqState::Finished));
        assert_eq!(server.tokens_of(id).map(<[u32]>::len), Some(5));
    }

    #[test]
    fn queue_full_rejection_is_typed() {
        let mut server = server(1);
        assert!(server
            .submit(SequenceRequest::greedy(0, vec![1], 2))
            .is_ok());
        let err = server
            .submit(SequenceRequest::greedy(0, vec![2], 2))
            .expect_err("queue of 1 is full");
        assert_eq!(err, ServeError::QueueFull { capacity: 1 });
        server.run_until_idle();
        assert_eq!(server.report().slo.rejected, 1);
        assert_eq!(server.report().slo.completed, 1);
    }

    #[test]
    fn empty_prompt_rejected() {
        let mut server = server(4);
        assert_eq!(
            server.submit(SequenceRequest::greedy(0, vec![], 1)),
            Err(ServeError::EmptyPrompt)
        );
    }

    #[test]
    fn out_of_vocab_token_is_refused_and_others_stream_unperturbed() {
        let vocab = engine().executor().config().vocab_size;
        let bad_token = u32::try_from(vocab).expect("small vocab") + 3;
        let good = [
            SequenceRequest::greedy(0, vec![1, 5, 9], 6),
            SequenceRequest::greedy(0, vec![100, 2], 4),
        ];
        let mut baseline = server(4);
        let base = baseline.run_trace(&good, &[]);

        let mut srv = server(4);
        let a = srv.submit(good[0].clone()).expect("accepted");
        assert_eq!(
            srv.submit(SequenceRequest::greedy(0, vec![1, bad_token], 2)),
            Err(ServeError::TokenOutOfVocab {
                token: bad_token,
                vocab
            })
        );
        let b = srv.submit(good[1].clone()).expect("accepted");
        srv.run_until_idle();
        let report = srv.report();
        assert_eq!(
            report.outcomes.len(),
            2,
            "the refused request never entered"
        );
        for (id, base_out) in [a, b].into_iter().zip(&base.report.outcomes) {
            assert_eq!(srv.state_of(id), Some(SeqState::Finished));
            assert_eq!(srv.tokens_of(id), Some(&base_out.tokens[..]));
        }
        assert_eq!(report.plans, base.report.plans);
    }

    #[test]
    fn kv_slots_are_created_at_first_prefill_budget() {
        // 216 requests at t = 0 with 64-token prompts: all are admitted
        // in round 1, but the 216-slot round budget lets only a few start
        // prefill at once, and only those hold a KV slot.
        let requests: Vec<SequenceRequest> = (0..216u32)
            .map(|i| SequenceRequest::greedy(0, (0..64).map(|t| (t + i) % 100).collect(), 1))
            .collect();
        let sim: Vec<_> = requests
            .iter()
            .map(SequenceRequest::to_sim_request)
            .collect();
        let (_, plans) = scheduler().plan(&sim);
        let expected = live_after_first_prefill(&plans, requests.len());
        assert!(expected < 216, "peak live slots {expected}");

        // One layer keeps 2 × 216 × 64 prefill tokens cheap; the
        // schedule depends on token counts only.
        let mut cfg = zoo::dataflow_test_model().config;
        cfg.num_layers = 1;
        let w = ModelWeights::materialize(&cfg, &WeightGenerator::new(2026));
        let eng = BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216);
        let mut srv = OnlineServer::new(eng.clone(), &scheduler(), requests.len()).expect("fits");
        let outcome = srv.run_trace(&requests, &[]);
        assert_eq!(outcome.report.plans, plans);
        assert_eq!(outcome.report.slo.peak_resident, expected);
        let (offline, _) = eng
            .run_with_scheduler(&requests, &scheduler())
            .expect("offline replay");
        assert_eq!(offline.peak_resident, expected);
    }

    /// The most sequences in any round that have started prefill and not
    /// finished before that round, read off a plan log.
    fn live_after_first_prefill(plans: &[RoundPlan], n: usize) -> usize {
        let mut first = vec![usize::MAX; n];
        let mut last = vec![0usize; n];
        for (r, plan) in plans.iter().enumerate() {
            let seqs = plan
                .prefill
                .iter()
                .map(|&(s, _)| s)
                .chain(plan.decode.iter().copied());
            for s in seqs {
                first[s] = first[s].min(r);
                last[s] = r;
            }
        }
        (0..plans.len())
            .map(|r| (0..n).filter(|&s| first[s] <= r && r <= last[s]).count())
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn out_of_order_arrival_rejected() {
        let mut server = server(4);
        assert!(server
            .submit(SequenceRequest::greedy(5_000, vec![1], 1))
            .is_ok());
        assert_eq!(
            server.submit(SequenceRequest::greedy(4_999, vec![2], 1)),
            Err(ServeError::ArrivalOutOfOrder {
                last_micros: 5_000,
                arrival_micros: 4_999,
            })
        );
    }

    #[test]
    fn cancel_queued_sequence_never_runs() {
        let mut server = server(8);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![1, 2], 4))
            .expect("accepted");
        server.cancel(id).expect("cancellable while queued");
        server.run_until_idle();
        assert_eq!(server.state_of(id), Some(SeqState::Cancelled));
        assert_eq!(server.tokens_of(id).map(<[u32]>::len), Some(0));
        let report = server.report();
        assert_eq!(report.outcomes[0].slot_frees, 0);
        assert_eq!(report.slo.rounds, 0);
    }

    #[test]
    fn cancel_resident_frees_slot_exactly_once() {
        let mut server = server(8);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![1, 2, 3], 50))
            .expect("accepted");
        server.admit_waiting();
        server.round();
        assert_eq!(server.resident(), 1);
        server.cancel(id).expect("cancellable while resident");
        assert_eq!(server.resident(), 0);
        assert_eq!(server.cancel(id), Err(ServeError::AlreadyRetired { id }));
        server.run_until_idle();
        let report = server.report();
        assert_eq!(report.outcomes[0].slot_frees, 1);
        assert_eq!(report.outcomes[0].state, SeqState::Cancelled);
        // The freed slot is reusable: a new sequence admits and finishes.
        let id2 = server
            .submit(SequenceRequest::greedy(10_000, vec![9], 2))
            .expect("accepted");
        server.run_until_idle();
        assert_eq!(server.state_of(id2), Some(SeqState::Finished));
    }

    #[test]
    fn unknown_sequence_cancel_is_typed() {
        let mut server = server(4);
        assert_eq!(
            server.cancel(SeqId(7)),
            Err(ServeError::UnknownSequence { id: SeqId(7) })
        );
    }

    #[test]
    fn zero_decode_requests_finish_with_empty_stream() {
        let mut server = server(4);
        let id = server
            .submit(SequenceRequest::greedy(0, vec![3, 1, 4], 0))
            .expect("accepted");
        server.run_until_idle();
        assert_eq!(server.state_of(id), Some(SeqState::Finished));
        assert_eq!(server.tokens_of(id).map(<[u32]>::len), Some(0));
        assert_eq!(server.report().outcomes[0].slot_frees, 1);
    }

    #[test]
    fn slo_report_counts_reconcile() {
        let requests: Vec<SequenceRequest> = (0..6)
            .map(|i| SequenceRequest::greedy(i * 30_000, vec![1 + i as u32, 2], 4))
            .collect();
        let mut server = server(16);
        let outcome = server.run_trace(&requests, &[]);
        let slo = &outcome.report.slo;
        assert_eq!(slo.submitted, 6);
        assert_eq!(slo.completed, 6);
        assert_eq!(slo.decoded_tokens, 6 * 4);
        assert_eq!(slo.prefill_tokens, 6 * 2);
        assert_eq!(slo.rounds, outcome.report.plans.len() as u64);
        assert!(slo.ttft_p50_s > 0.0 && slo.ttft_p99_s >= slo.ttft_p50_s);
        assert!(slo.tpot_p50_s > 0.0 && slo.tpot_p99_s >= slo.tpot_p50_s);
        assert!(slo.makespan_s > 0.0);
        // 4 tokens per sequence -> 3 gaps each.
        let streamed: usize = outcome.report.outcomes.iter().map(|o| o.tokens.len()).sum();
        assert_eq!(streamed as u64, slo.decoded_tokens);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[2.0], 0.99), 2.0);
    }

    // ---- fault injection ----

    use crate::fault::{ChaosSpec, Deadline, LinkFault, Straggler};

    fn fault_server(queue_capacity: usize, faults: FaultPlan) -> OnlineServer {
        OnlineServer::with_faults(engine(), &scheduler(), queue_capacity, faults)
            .expect("valid plan")
    }

    fn kill(at_micros: u64, chip: usize) -> FaultPlan {
        FaultPlan {
            chip_failures: vec![ChipFailure { at_micros, chip }],
            ..FaultPlan::none()
        }
    }

    #[test]
    fn invalid_fault_plan_is_typed() {
        let err = OnlineServer::with_faults(engine(), &scheduler(), 4, kill(0, 99))
            .expect_err("chip 99 does not exist");
        assert_eq!(
            err,
            ServeError::InvalidFaultPlan {
                error: FaultError::ChipOutOfRange { chip: 99 }
            }
        );
    }

    #[test]
    fn empty_plan_is_bit_identical_to_faultless_server() {
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 8),
            SequenceRequest::greedy(40_000, vec![100, 2], 5),
        ];
        let mut plain = server(8);
        let mut chaos = fault_server(8, FaultPlan::none());
        let a = plain.run_trace(&requests, &[]);
        let b = chaos.run_trace(&requests, &[]);
        assert_eq!(a.report.plans, b.report.plans);
        assert_eq!(a.report.slo, b.report.slo);
        for (x, y) in a.report.outcomes.iter().zip(&b.report.outcomes) {
            assert_eq!(x.tokens, y.tokens);
            assert_eq!(x.finish_s, y.finish_s);
        }
        assert!(b.report.slo.recovery.is_clean());
        assert_eq!(b.report.slo.degraded_rounds, 0);
    }

    #[test]
    fn chip_failure_evicts_recovers_and_resumes_token_exact() {
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 40),
            SequenceRequest::greedy(0, vec![100, 2], 40),
        ];
        let baseline = server(8).run_trace(&requests, &[]);
        let mid = (baseline.report.slo.makespan_s * 1e6 / 2.0) as u64;
        let mut chaos = fault_server(8, kill(mid, 5));
        let outcome = chaos.run_trace(&requests, &[]);
        // Survivor capacity: 15 of 16 chips keep 15/16 of the slots.
        assert!(chaos.grid_health().is_degraded());
        assert_eq!(chaos.effective_slots(), 216 * 15 / 16);
        assert!(!chaos.degraded_layout().is_identity());
        let slo = &outcome.report.slo;
        assert_eq!(slo.chip_failures, 1);
        assert_eq!(slo.recovery.evictions, 2);
        assert_eq!(slo.recovery.resumed, 2);
        assert_eq!(slo.recovery.failed, 0);
        assert!(slo.recovery.re_prefill_tokens > 0);
        assert!(slo.degraded_rounds > 0);
        // The recovered streams are bit-identical to the fault-free run:
        // re-prefilling prompt ++ emitted reconstructs the exact context.
        for (out, base) in outcome
            .report
            .outcomes
            .iter()
            .zip(&baseline.report.outcomes)
        {
            assert_eq!(out.state, SeqState::Finished);
            assert_eq!(out.tokens, base.tokens);
            assert_eq!(out.admissions, 2, "evicted once, admitted twice");
            assert_eq!(out.slot_frees, 2, "freed at eviction and at finish");
        }
        // Degraded latency rows got the post-eviction samples.
        assert!(slo.ttft_degraded_p50_s > 0.0 || slo.tpot_degraded_p50_s > 0.0);
    }

    #[test]
    fn deadline_expiry_is_typed_and_frees_the_slot_once() {
        let faults = FaultPlan {
            deadlines: vec![Deadline {
                submission: 0,
                at_micros: 5_000,
            }],
            ..FaultPlan::none()
        };
        let requests = vec![
            SequenceRequest::greedy(0, vec![1, 5, 9], 500),
            SequenceRequest::greedy(0, vec![4, 4], 5),
        ];
        let mut chaos = fault_server(8, faults);
        let outcome = chaos.run_trace(&requests, &[]);
        let missed = &outcome.report.outcomes[0];
        assert_eq!(missed.state, SeqState::DeadlineMissed);
        assert_eq!(
            missed.error,
            Some(ServeError::Deadline {
                id: SeqId(0),
                deadline_micros: 5_000,
            })
        );
        assert_eq!(missed.slot_frees, missed.admissions);
        assert_eq!(outcome.report.outcomes[1].state, SeqState::Finished);
        assert_eq!(outcome.report.slo.deadline_missed, 1);
        assert_eq!(outcome.report.slo.completed, 1);
    }

    #[test]
    fn queued_requests_are_shed_before_admitted_ones() {
        let mut chaos = fault_server(2, kill(10_000, 3));
        let a = chaos
            .submit(SequenceRequest::greedy(0, vec![1, 2, 3], 60))
            .expect("admits");
        // Admit `a` so the capacity-2 queue is free for the two future
        // arrivals (they stay queued until the clock reaches them).
        chaos.admit_waiting();
        assert_eq!(chaos.resident(), 1);
        let b = chaos
            .submit(SequenceRequest::greedy(20_000, vec![5], 4))
            .expect("queued");
        let c = chaos
            .submit(SequenceRequest::greedy(25_000, vec![6], 4))
            .expect("queued");
        chaos.run_until_idle();
        // The failure evicts resident `a`; backlog (1 recovering + 2
        // queued) overflows the capacity-2 queue, shedding the newest
        // queued request — never the admitted one.
        assert_eq!(chaos.state_of(c), Some(SeqState::Shed));
        assert_eq!(chaos.state_of(a), Some(SeqState::Finished));
        assert_eq!(chaos.state_of(b), Some(SeqState::Finished));
        let report = chaos.report();
        assert_eq!(report.slo.shed, 1);
        assert_eq!(report.outcomes[c.0].error, Some(ServeError::Shed { id: c }));
        assert_eq!(report.outcomes[c.0].slot_frees, 0);
    }

    #[test]
    fn straggler_stretches_the_clock_without_changing_tokens() {
        let requests = vec![SequenceRequest::greedy(0, vec![7, 3], 12)];
        let baseline = server(4).run_trace(&requests, &[]);
        let faults = FaultPlan {
            stragglers: vec![Straggler {
                chip: 9,
                from_micros: 0,
                until_micros: u64::MAX,
                slowdown: 4.0,
            }],
            ..FaultPlan::none()
        };
        let mut chaos = fault_server(4, faults);
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(
            outcome.report.outcomes[0].tokens,
            baseline.report.outcomes[0].tokens
        );
        let slo = &outcome.report.slo;
        assert!(slo.makespan_s > baseline.report.slo.makespan_s * 3.5);
        assert_eq!(slo.degraded_rounds, slo.rounds);
        // Every latency sample is a degraded one; healthy rows are empty.
        assert_eq!(slo.ttft_p50_s, 0.0);
        assert!(slo.ttft_degraded_p50_s > 0.0);
    }

    #[test]
    fn link_faults_stretch_and_count_rounds() {
        let requests = vec![SequenceRequest::greedy(0, vec![7, 3], 12)];
        let baseline = server(4).run_trace(&requests, &[]);
        let faults = FaultPlan {
            link_faults: vec![LinkFault {
                from_micros: 0,
                until_micros: u64::MAX,
                retries: 1,
            }],
            ..FaultPlan::none()
        };
        let mut chaos = fault_server(4, faults);
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(
            outcome.report.outcomes[0].tokens,
            baseline.report.outcomes[0].tokens
        );
        let slo = &outcome.report.slo;
        assert_eq!(slo.link_retry_rounds, slo.rounds);
        // One retry doubles each round.
        let ratio = slo.makespan_s / baseline.report.slo.makespan_s;
        assert!((ratio - 2.0).abs() < 0.01, "ratio = {ratio}");
    }

    #[test]
    fn cancelling_a_recovering_sequence_retires_it() {
        let mut chaos = fault_server(4, kill(10_000, 0));
        let id = chaos
            .submit(SequenceRequest::greedy(0, vec![1, 2, 3], 500))
            .expect("admits");
        // Run until the eviction lands.
        while chaos.state_of(id) != Some(SeqState::Recovering) {
            chaos.admit_waiting();
            chaos.round();
            chaos.apply_due_faults();
        }
        chaos.cancel(id).expect("recovering is live");
        assert_eq!(chaos.state_of(id), Some(SeqState::Cancelled));
        assert_eq!(chaos.recovering(), 0);
        chaos.run_until_idle();
        let report = chaos.report();
        assert_eq!(report.outcomes[0].slot_frees, 1);
        assert_eq!(report.outcomes[0].admissions, 1);
        assert_eq!(report.slo.recovery.evictions, 1);
        assert_eq!(report.slo.recovery.resumed, 0);
    }

    #[test]
    fn chip_loss_after_exhausted_retries_is_typed() {
        // Kill 15 of 16 chips: the lone survivor keeps 1/16 of the
        // slots, so most of the evicted fleet cannot fit back.
        let card = zoo::dataflow_test_model();
        let w = ModelWeights::materialize(&card.config, &WeightGenerator::new(2026));
        let eng = BatchedDataflowExecutor::new(DataflowExecutor::new(w), 216);
        let sched = scheduler();
        let mut chaos = OnlineServer::with_faults(
            eng,
            &sched,
            8,
            FaultPlan {
                chip_failures: (0..15)
                    .map(|i| ChipFailure {
                        at_micros: 10_000 + i as u64,
                        chip: i,
                    })
                    .collect(),
                ..FaultPlan::none()
            },
        )
        .expect("valid plan");
        // 15 dead chips leave effective_slots = max(216/16, 1) = 13; far
        // fewer than 20 long sequences, so some recoveries starve through
        // the whole ~126-round backoff ladder and exhaust their retries.
        let requests: Vec<SequenceRequest> = (0..20)
            .map(|i| SequenceRequest::greedy(0, vec![1 + i as u32], 400))
            .collect();
        let outcome = chaos.run_trace(&requests, &[]);
        assert_eq!(chaos.effective_slots(), 216 / 16);
        let slo = &outcome.report.slo;
        assert_eq!(slo.chip_failures, 15);
        let lost: Vec<_> = outcome
            .report
            .outcomes
            .iter()
            .filter(|o| o.state == SeqState::ChipLost)
            .collect();
        assert_eq!(lost.len(), slo.chip_lost);
        assert_eq!(slo.recovery.failed, slo.chip_lost as u64);
        for o in &lost {
            assert!(matches!(o.error, Some(ServeError::ChipLost { .. })));
            assert_eq!(o.slot_frees, o.admissions);
        }
        // Everyone else still finished, token-exact continuation included.
        assert_eq!(
            slo.completed + slo.chip_lost,
            20,
            "every sequence retired one way or the other"
        );
        assert!(slo.completed > 0);
    }

    /// The sequence an event belongs to, if any.
    fn seq_of(event: &ServeEvent) -> Option<SeqId> {
        match *event {
            ServeEvent::Admitted { id, .. }
            | ServeEvent::Token { id, .. }
            | ServeEvent::Evicted { id, .. }
            | ServeEvent::Recovered { id, .. }
            | ServeEvent::Retired { id, .. } => Some(id),
            ServeEvent::Round { .. } | ServeEvent::ChipFailed { .. } => None,
        }
    }

    #[test]
    fn event_log_is_the_whole_record_and_polling_never_changes_it() {
        let n = 8;
        let requests: Vec<SequenceRequest> = (0..n as u32)
            .map(|i| SequenceRequest::greedy(u64::from(i) * 2_000, vec![1 + i, 7, 3], 40 + 8 * i))
            .collect();
        let spec = ChaosSpec {
            horizon_micros: 20_000,
            submissions: n,
            chip_failures: 1,
            stragglers: 1,
            link_faults: 0,
            deadlines: 1,
            min_deadline_micros: 5_000,
        };
        let faults = FaultPlan::seeded(11, &spec);
        // Submit each request at its arrival and cancel sequence 4 right
        // after sequence 5 arrives; with `poll`, drain new events after
        // every submit as well as at the end.
        let drive = |poll: bool| {
            let mut srv = fault_server(n, faults.clone());
            let mut polled = Vec::new();
            for req in &requests {
                srv.advance_to(Some(micros_to_s(req.arrival_s_micros)));
                let id = srv.submit(req.clone()).expect("the queue fits the trace");
                if id == SeqId(5) {
                    srv.cancel(SeqId(4)).expect("sequence 4 is still live");
                }
                if poll {
                    polled.extend(srv.poll_events());
                }
            }
            srv.run_until_idle();
            polled.extend(srv.poll_events());
            (srv, polled)
        };
        let (mut polled_srv, polled) = drive(true);
        let (twin, log) = drive(false);
        assert_eq!(polled, log);
        assert_eq!(log, twin.events, "one final poll returns the whole log");
        assert!(polled_srv.poll_events().is_empty());
        let report = twin.report();
        assert_eq!(format!("{:?}", polled_srv.report()), format!("{report:?}"));

        // The seeded plan reaches every fault path the log records.
        let slo = &report.slo;
        assert_eq!(slo.chip_failures, 1);
        assert!(slo.recovery.evictions > 0 && slo.recovery.resumed > 0);
        assert!(slo.degraded_rounds > 0);
        assert_eq!((slo.cancelled, slo.deadline_missed), (1, 1));

        for o in &report.outcomes {
            let mine: Vec<&ServeEvent> = log.iter().filter(|e| seq_of(e) == Some(o.id)).collect();
            let retired = mine
                .iter()
                .filter(|e| matches!(e, ServeEvent::Retired { .. }))
                .count();
            assert_eq!(retired, 1, "{}", o.id);
            assert!(
                matches!(mine.last(), Some(ServeEvent::Retired { state, .. }) if *state == o.state),
                "{} ends in its retirement",
                o.id
            );
            let indices: Vec<usize> = mine
                .iter()
                .filter_map(|e| match e {
                    ServeEvent::Token { index, .. } => Some(*index),
                    _ => None,
                })
                .collect();
            assert_eq!(indices, (0..o.tokens.len()).collect::<Vec<_>>());
            let admissions = mine
                .iter()
                .filter(|e| {
                    matches!(
                        e,
                        ServeEvent::Admitted { .. } | ServeEvent::Recovered { .. }
                    )
                })
                .count();
            assert_eq!(admissions, o.slot_frees as usize, "{}", o.id);
        }
        let plans: Vec<&RoundPlan> = log
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Round { plan, .. } => Some(plan),
                _ => None,
            })
            .collect();
        let tokens = log
            .iter()
            .filter(|e| matches!(e, ServeEvent::Token { .. }))
            .count();
        assert_eq!(plans.iter().map(|p| p.decode.len()).sum::<usize>(), tokens);
        assert_eq!(plans.len() as u64, slo.rounds);
    }
}

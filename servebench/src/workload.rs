//! The three serving workloads, generated from the seed argument.
//!
//! Arrival times come from `hnlpu_sim::workload::WorkloadSpec`; prompt
//! tokens, lengths and shared-prefix groups come from the benchmark's own
//! RNG, because `sim::Request` carries token counts only and drops the
//! group a shared-prefix prompt was drawn from.

use hnlpu_llm::SequenceRequest;
use hnlpu_sim::workload::{shared_prefix_tokens, WorkloadKind, WorkloadSpec, SHARED_PREFIX_GROUPS};

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Online, open loop, near-full slots, unshared prompts, long decodes.
    ChatSaturated,
    /// Online, open loop, system prompt + suffix, tight page budget.
    SharedPrefix,
    /// Offline closed batch through the analytical plan replay.
    OfflineBatch,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ChatSaturated, Kind::SharedPrefix, Kind::OfflineBatch];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ChatSaturated => "chat-saturated",
            Kind::SharedPrefix => "shared-prefix",
            Kind::OfflineBatch => "offline-batch",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn is_online(self) -> bool {
        self != Kind::OfflineBatch
    }

    /// Requests in one trace. Fixed per workload so every run has the
    /// same sample count (and so the same tail percentile).
    pub fn requests(self, small: bool) -> usize {
        match (self, small) {
            (Kind::ChatSaturated, false) => 128,
            (Kind::SharedPrefix, false) => 300,
            (Kind::OfflineBatch, false) => 216,
            (Kind::ChatSaturated, true) => 12,
            (Kind::SharedPrefix, true) => 40,
            (Kind::OfflineBatch, true) => 24,
        }
    }

    /// Committed-page budget of the paged prefix cache.
    pub fn page_budget(self) -> usize {
        match self {
            Kind::SharedPrefix => 256,
            Kind::ChatSaturated | Kind::OfflineBatch => usize::MAX,
        }
    }

    /// Virtual arrival rate, requests/s (unused by the closed batch).
    fn arrivals_per_s(self) -> f64 {
        match self {
            Kind::ChatSaturated => 8_000.0,
            Kind::SharedPrefix => 2_000.0,
            Kind::OfflineBatch => 1.0,
        }
    }

    fn spec_kind(self) -> WorkloadKind {
        match self {
            Kind::ChatSaturated => WorkloadKind::Chat,
            Kind::SharedPrefix => WorkloadKind::SharedPrefixChat,
            Kind::OfflineBatch => WorkloadKind::OfflineBatch,
        }
    }

    /// Distinguishes the workloads' RNG streams for one seed.
    fn stream(self) -> u64 {
        match self {
            Kind::ChatSaturated => 0x6368_6174,
            Kind::SharedPrefix => 0x7368_7270,
            Kind::OfflineBatch => 0x6f66_666c,
        }
    }
}

/// SplitMix64: the benchmark's own RNG, so its inputs do not depend on
/// the vendored `rand` stand-in beyond the arrival process.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }
}

/// One generated trace: the engine's requests, sorted by arrival.
pub struct Trace {
    pub requests: Vec<SequenceRequest>,
}

impl Trace {
    pub fn prompt_tokens(&self) -> u64 {
        self.requests.iter().map(|r| r.prompt.len() as u64).sum()
    }
}

/// Build the trace of `kind` for `seed` over a vocabulary of `vocab`.
pub fn generate(kind: Kind, seed: u64, vocab: u32, small: bool) -> Trace {
    let spec = WorkloadSpec {
        kind: kind.spec_kind(),
        requests: kind.requests(small),
        arrivals_per_s: kind.arrivals_per_s(),
        seed,
    };
    let arrivals = spec.generate_with_seed(seed);
    let mut rng = Rng::new(seed ^ kind.stream());
    let system: Vec<Vec<u32>> = (0..SHARED_PREFIX_GROUPS)
        .map(|g| shared_prefix_tokens(seed, g, vocab))
        .collect();
    let tokens =
        |rng: &mut Rng, n: u32| -> Vec<u32> { (0..n).map(|_| rng.range(0, vocab - 1)).collect() };
    let requests = arrivals
        .iter()
        .map(|a| {
            let (prompt, decode) = match kind {
                Kind::ChatSaturated => {
                    let len = rng.range(4, 16);
                    (tokens(&mut rng, len), rng.range(32, 128))
                }
                Kind::SharedPrefix => {
                    let group = rng.range(0, SHARED_PREFIX_GROUPS as u32 - 1) as usize;
                    let suffix = rng.range(8, 64);
                    let mut p = system[group].clone();
                    p.extend(tokens(&mut rng, suffix));
                    (p, rng.range(4, 16))
                }
                Kind::OfflineBatch => {
                    let len = rng.range(32, 128);
                    (tokens(&mut rng, len), rng.range(1, 8))
                }
            };
            SequenceRequest::greedy(a.arrival_s_micros, prompt, decode)
        })
        .collect();
    Trace { requests }
}

//! The single-device reference transformer (pre-norm GQA + MoE + SwiGLU),
//! the functional ground truth the HNLPU dataflow is verified against.
//!
//! The hot path is allocation-free: all projections run the
//! region-accumulation kernels ([`crate::kernels`]) directly on packed FP4
//! weights, and every intermediate lives in a caller-provided [`Scratch`]
//! arena ([`step_with`](Transformer::step_with)). Decode and prefill share
//! one block path: a decode step is a width-1 prefill panel.

use crate::kernels::matmul_into;
use crate::kv_cache::KvCache;
use crate::lora::LoraAdapter;
use crate::ops::{rmsnorm_into, softmax, softmax_in_place, swiglu_in_place, topk_into};
use crate::sampler::{argmax, Sampler};
use crate::scratch::{Scratch, MAX_PREFILL_PANEL};
use crate::tensor::{add_assign, dot};
use hnlpu_model::{ModelWeights, TransformerConfig};

/// How a prompt was consumed by a panel-prefill call: how many matmul
/// panels ran and the widest one. Aggregated into
/// [`crate::batch::BatchRunReport`] so degenerate T=1 panel streams are
/// observable.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefillStats {
    /// Matmul panels executed.
    pub panels: u64,
    /// Tokens in the widest panel.
    pub max_panel: usize,
}

impl PrefillStats {
    /// Fold another chunk run into this one.
    pub fn merge(&mut self, other: PrefillStats) {
        self.panels += other.panels;
        self.max_panel = self.max_panel.max(other.max_panel);
    }
}

/// The reference decoder.
#[derive(Debug, Clone)]
pub struct Transformer {
    weights: ModelWeights,
    /// Optional LoRA side-channel adapters on the query projection,
    /// one slot per layer (§8 future work 4).
    q_adapters: Vec<Option<LoraAdapter>>,
}

impl Transformer {
    /// Wrap materialized weights.
    pub fn new(weights: ModelWeights) -> Self {
        let layers = weights.config.num_layers;
        Transformer {
            weights,
            q_adapters: vec![None; layers],
        }
    }

    /// Install a LoRA adapter on `layer`'s query projection.
    ///
    /// # Panics
    ///
    /// Panics if the adapter shape does not match `Wq` or the layer index
    /// is out of range.
    pub fn set_q_adapter(&mut self, layer: usize, adapter: LoraAdapter) {
        let c = self.config();
        assert_eq!(adapter.rows, c.hidden_size, "adapter rows");
        assert_eq!(adapter.cols, c.attention.q_width(), "adapter cols");
        self.q_adapters[layer] = Some(adapter);
    }

    /// The architecture.
    pub fn config(&self) -> &TransformerConfig {
        &self.weights.config
    }

    /// An empty KV cache for this model.
    pub fn new_cache(&self) -> KvCache {
        let c = self.config();
        KvCache::new(c.num_layers, c.attention.num_kv_heads, c.attention.head_dim)
    }

    /// A scratch arena sized for this model (reusable across steps and
    /// sequences).
    pub fn new_scratch(&self) -> Scratch {
        Scratch::new(self.config())
    }

    /// Run one decode step: consume `token` at the cache's current position,
    /// append its KV, and leave the next-token logits in
    /// `scratch.logits()`. Decode is the width-1 panel of
    /// [`prefill_with`](Self::prefill_with), so both run one block path.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn step_with(&self, token: u32, cache: &mut KvCache, scratch: &mut Scratch) {
        self.prefill_panel_with(&[token], cache, scratch, true);
    }

    /// As [`step_with`](Self::step_with), but skip the unembedding: the
    /// final normalized hidden state (the representation text-embedding
    /// uses) lands in `scratch.hidden()`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn hidden_step_with(&self, token: u32, cache: &mut KvCache, scratch: &mut Scratch) {
        self.prefill_panel_with(&[token], cache, scratch, false);
    }

    /// Sequence scoring (§8 future work 3): total log-probability the model
    /// assigns to `tokens[1..]` given the growing prefix.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` has fewer than two entries.
    pub fn score_sequence(&self, tokens: &[u32]) -> f64 {
        assert!(tokens.len() >= 2, "need at least two tokens to score");
        let mut cache = self.new_cache();
        let mut scratch = self.new_scratch();
        let mut total = 0.0f64;
        self.step_with(tokens[0], &mut cache, &mut scratch);
        for &next in &tokens[1..] {
            let probs = softmax(scratch.logits());
            total += (probs[next as usize].max(f32::MIN_POSITIVE) as f64).ln();
            self.step_with(next, &mut cache, &mut scratch);
        }
        total
    }

    /// Text embedding (§8 future work 3): mean-pooled normalized hidden
    /// states over the sequence.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty.
    pub fn text_embedding(&self, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty(), "need at least one token to embed");
        let mut cache = self.new_cache();
        let mut scratch = self.new_scratch();
        let mut pooled = vec![0.0f32; self.config().hidden_size];
        for &t in tokens {
            self.hidden_step_with(t, &mut cache, &mut scratch);
            add_assign(&mut pooled, scratch.hidden());
        }
        let inv = 1.0 / tokens.len() as f32;
        for v in &mut pooled {
            *v *= inv;
        }
        pooled
    }

    /// Panel prefill: consume `tokens` through the multi-token matmul
    /// kernels, chunked into panels of at most
    /// [`MAX_PREFILL_PANEL`] tokens. Appends every token's KV exactly as a
    /// [`step_with`](Self::step_with) loop would — **bit-identically**, for
    /// every model size: a step is the width-1 panel of the same block, and
    /// a width-T matmul is bitwise a loop of width-1 ones (see
    /// [`crate::kernels::matmul_block_into`]) — but reads each packed weight
    /// byte once per panel instead of once per token, and computes logits
    /// (into `scratch.logits()`) only for the final token, and only when
    /// `want_logits` is set.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an out-of-vocabulary id.
    pub fn prefill_with(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        scratch: &mut Scratch,
        want_logits: bool,
    ) -> PrefillStats {
        self.prefill_chunked(tokens, cache, scratch, MAX_PREFILL_PANEL, want_logits)
    }

    /// As [`prefill_with`](Self::prefill_with) with an explicit panel
    /// width `panel` (clamped to `1..=MAX_PREFILL_PANEL`) — the knob the
    /// prefill-throughput sweep in `hnlpu-bench` turns.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains an out-of-vocabulary id.
    pub fn prefill_chunked(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        scratch: &mut Scratch,
        panel: usize,
        want_logits: bool,
    ) -> PrefillStats {
        assert!(!tokens.is_empty(), "prompt must contain at least one token");
        let panel = panel.clamp(1, MAX_PREFILL_PANEL);
        let mut stats = PrefillStats::default();
        let mut consumed = 0;
        while consumed < tokens.len() {
            let end = (consumed + panel).min(tokens.len());
            let chunk = &tokens[consumed..end];
            consumed = end;
            let logits_now = want_logits && consumed == tokens.len();
            self.prefill_panel_with(chunk, cache, scratch, logits_now);
            stats.panels += 1;
            stats.max_panel = stats.max_panel.max(chunk.len());
        }
        stats
    }

    /// Run one panel of ≤ `MAX_PREFILL_PANEL` tokens through every layer,
    /// leave the last token's normalized hidden state in `scratch.xn`,
    /// and unembed it into `scratch.logits` when `want_logits` is set.
    // analyze: hot
    fn prefill_panel_with(
        &self,
        tokens: &[u32],
        cache: &mut KvCache,
        scratch: &mut Scratch,
        want_logits: bool,
    ) {
        let c = *self.config();
        let h = c.hidden_size;
        let t = tokens.len();
        debug_assert!(t <= MAX_PREFILL_PANEL);
        for (tt, &tok) in tokens.iter().enumerate() {
            assert!((tok as usize) < c.vocab_size, "token out of vocabulary");
            scratch.xp[tt * h..(tt + 1) * h]
                .copy_from_slice(&self.weights.embedding[tok as usize * h..(tok as usize + 1) * h]);
        }
        let base = cache.len();
        for layer in 0..c.num_layers {
            self.panel_block_with(layer, base, t, cache, scratch);
        }
        let Scratch { xp, xn, logits, .. } = scratch;
        rmsnorm_into(&xp[(t - 1) * h..t * h], xn);
        if want_logits {
            // Unembedding (weight-tied): logits over the vocabulary.
            for (tok, l) in logits.iter_mut().enumerate() {
                *l = dot(xn, &self.weights.embedding[tok * h..(tok + 1) * h]);
            }
        }
    }

    /// One transformer block over a `t`-token panel starting at context
    /// position `base`: reads the residual panel from `scratch.xp`, writes
    /// the updated panel back into it. Decode runs it at `t == 1`. The
    /// projections go through the matmul kernels, which are bitwise a loop
    /// of width-1 products, and attention/RoPE/MoE math runs per token in
    /// the same order on the same values — so the KV entries and residuals
    /// it produces are bit-equal for every chunking, width-1 included.
    // analyze: hot
    fn panel_block_with(
        &self,
        layer: usize,
        base: usize,
        t: usize,
        cache: &mut KvCache,
        scratch: &mut Scratch,
    ) {
        let c = *self.config();
        let w = &self.weights.layers[layer];
        let h = c.hidden_size;
        let (hd, qh, kvh) = (
            c.attention.head_dim,
            c.attention.num_query_heads,
            c.attention.num_kv_heads,
        );
        let qw = c.attention.q_width();
        let kvw = c.attention.kv_width();
        let group = c.attention.group_size();
        let inter = c.moe.intermediate_size;
        let n_experts = c.moe.num_experts;
        let k_experts = c.moe.experts_per_token;
        let Scratch {
            y,
            scores,
            chosen,
            expert_w,
            delta,
            lora_hidden,
            rope,
            xp,
            xnp,
            xop,
            qp,
            kp,
            vp,
            attnp,
            routerp,
            chosenp,
            expertwp,
            gatherp,
            upp,
            gatep,
            stagep,
            gidx,
            ..
        } = scratch;

        // --- Attention ---
        for tt in 0..t {
            rmsnorm_into(&xp[tt * h..(tt + 1) * h], &mut xnp[tt * h..(tt + 1) * h]);
        }
        matmul_into(xnp, h, t, &w.wq, qp, qw);
        if let Some(adapter) = &self.q_adapters[layer] {
            for tt in 0..t {
                adapter.delta_into(&xnp[tt * h..(tt + 1) * h], lora_hidden, delta);
                add_assign(&mut qp[tt * qw..(tt + 1) * qw], delta);
            }
        }
        matmul_into(xnp, h, t, &w.wk, kp, kvw);
        matmul_into(xnp, h, t, &w.wv, vp, kvw);
        for tt in 0..t {
            rope.prepare(base + tt);
            for head in 0..qh {
                rope.apply(&mut qp[tt * qw + head * hd..][..hd]);
            }
            for head in 0..kvh {
                rope.apply(&mut kp[tt * kvw + head * hd..][..hd]);
            }
            cache.append(
                layer,
                &kp[tt * kvw..(tt + 1) * kvw],
                &vp[tt * kvw..(tt + 1) * kvw],
            );
        }
        let scale = 1.0 / (hd as f32).sqrt();
        attnp[..t * qw].fill(0.0);
        for tt in 0..t {
            // Causal: token `tt` sees positions `0 ..= base + tt`, even
            // though the whole panel's KV is already appended.
            let ctx = base + tt + 1;
            for head in 0..qh {
                let kv_head = head / group;
                let qh_vec = &qp[tt * qw + head * hd..][..hd];
                scores.clear();
                scores.extend((0..ctx).map(|p| dot(qh_vec, cache.key(layer, p, kv_head)) * scale));
                softmax_in_place(scores);
                let out = &mut attnp[tt * qw + head * hd..][..hd];
                for (p, &pr) in scores.iter().enumerate() {
                    let val = cache.value(layer, p, kv_head);
                    for (o, &vv) in out.iter_mut().zip(val.iter()) {
                        *o += pr * vv;
                    }
                }
            }
        }
        matmul_into(attnp, qw, t, &w.wo, xop, h);
        for tt in 0..t {
            add_assign(&mut xop[tt * h..(tt + 1) * h], &xp[tt * h..(tt + 1) * h]);
        }

        // --- MoE FFN ---
        for tt in 0..t {
            rmsnorm_into(&xop[tt * h..(tt + 1) * h], &mut xnp[tt * h..(tt + 1) * h]);
        }
        matmul_into(xnp, h, t, &w.router, routerp, n_experts);
        for tt in 0..t {
            topk_into(
                &routerp[tt * n_experts..(tt + 1) * n_experts],
                k_experts,
                chosen,
            );
            expert_w.clear();
            expert_w.extend(
                chosen
                    .iter()
                    .map(|&e| routerp[tt * n_experts..(tt + 1) * n_experts][e]),
            );
            softmax_in_place(expert_w);
            chosenp[tt * k_experts..(tt + 1) * k_experts].copy_from_slice(chosen);
            expertwp[tt * k_experts..(tt + 1) * k_experts].copy_from_slice(expert_w);
        }
        // Expert-grouped panels: gather every token routed to expert `e`,
        // run the expert's three projections as one matmul each, and stage
        // the down outputs per (token, chosen slot).
        for e in 0..n_experts {
            gidx.clear();
            for tt in 0..t {
                for s in 0..k_experts {
                    if chosenp[tt * k_experts + s] == e {
                        gidx.push(tt * k_experts + s);
                    }
                }
            }
            if gidx.is_empty() {
                continue;
            }
            let g = gidx.len();
            for (gi, &slot) in gidx.iter().enumerate() {
                let tt = slot / k_experts;
                gatherp[gi * h..(gi + 1) * h].copy_from_slice(&xnp[tt * h..(tt + 1) * h]);
            }
            matmul_into(&gatherp[..g * h], h, g, &w.up[e], upp, inter);
            matmul_into(&gatherp[..g * h], h, g, &w.gate[e], gatep, inter);
            for gi in 0..g {
                let (gate_row, up_row) = (
                    &mut gatep[gi * inter..(gi + 1) * inter],
                    &upp[gi * inter..(gi + 1) * inter],
                );
                swiglu_in_place(gate_row, up_row);
            }
            // The group's activations are no longer needed, so the down
            // outputs overwrite `gatherp` before scattering to the stage.
            matmul_into(&gatep[..g * inter], inter, g, &w.down[e], gatherp, h);
            for (gi, &slot) in gidx.iter().enumerate() {
                stagep[slot * h..(slot + 1) * h].copy_from_slice(&gatherp[gi * h..(gi + 1) * h]);
            }
        }
        // Replay each token's expert mixture in its original chosen order,
        // reproducing the per-token accumulation bit for bit.
        for tt in 0..t {
            y.fill(0.0);
            for s in 0..k_experts {
                let slot = tt * k_experts + s;
                let ew = expertwp[slot];
                for (yo, &d) in y.iter_mut().zip(stagep[slot * h..(slot + 1) * h].iter()) {
                    *yo += ew * d;
                }
            }
            add_assign(y, &xop[tt * h..(tt + 1) * h]);
            xp[tt * h..(tt + 1) * h].copy_from_slice(y);
        }
    }

    /// Prefill `prompt` then greedily decode `n` tokens.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate_greedy(&self, prompt: &[u32], n: usize) -> Vec<u32> {
        self.generate(prompt, n, &mut Sampler::Greedy)
    }

    /// Prefill `prompt` then decode `n` tokens with `sampler`. One scratch
    /// arena serves the whole sequence, so the loop never allocates.
    ///
    /// # Panics
    ///
    /// Panics if `prompt` is empty.
    pub fn generate(&self, prompt: &[u32], n: usize, sampler: &mut Sampler) -> Vec<u32> {
        assert!(!prompt.is_empty(), "prompt must contain at least one token");
        let mut cache = self.new_cache();
        let mut scratch = self.new_scratch();
        self.prefill_with(prompt, &mut cache, &mut scratch, true);
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let next = sampler.sample(scratch.logits());
            out.push(next);
            if out.len() == n {
                break;
            }
            self.step_with(next, &mut cache, &mut scratch);
        }
        out
    }

    /// Greedy argmax of the current logits (exposed for sequence-scoring
    /// style uses).
    pub fn argmax_token(logits: &[f32]) -> u32 {
        argmax(logits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hnlpu_model::{zoo, WeightGenerator};

    fn model() -> Transformer {
        let card = zoo::test_model();
        Transformer::new(ModelWeights::materialize(
            &card.config,
            &WeightGenerator::new(42),
        ))
    }

    #[test]
    fn step_produces_vocab_logits() {
        let m = model();
        let mut cache = m.new_cache();
        let mut scratch = m.new_scratch();
        m.step_with(3, &mut cache, &mut scratch);
        let logits = scratch.logits();
        assert_eq!(logits.len(), m.config().vocab_size);
        assert_eq!(cache.len(), 1);
        assert!(logits.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn fresh_and_reused_scratch_agree_bitwise() {
        // The arena must be a pure workspace: a scratch dirtied by other
        // sequences produces the same logits as a fresh one.
        let m = model();
        let mut dirty = m.new_scratch();
        let mut warm_cache = m.new_cache();
        for t in [9u32, 2, 5] {
            m.step_with(t, &mut warm_cache, &mut dirty);
        }
        let mut c1 = m.new_cache();
        let mut c2 = m.new_cache();
        let mut fresh = m.new_scratch();
        for t in [1u32, 2, 3] {
            m.step_with(t, &mut c1, &mut fresh);
            m.step_with(t, &mut c2, &mut dirty);
            assert_eq!(fresh.logits(), dirty.logits());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let m = model();
        let a = m.generate_greedy(&[1, 2, 3], 6);
        let b = m.generate_greedy(&[1, 2, 3], 6);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
    }

    #[test]
    fn different_prompts_diverge() {
        let m = model();
        let a = m.generate_greedy(&[1, 2, 3], 8);
        let b = m.generate_greedy(&[4, 5, 6], 8);
        assert_ne!(a, b);
    }

    #[test]
    fn context_affects_logits() {
        // Causal attention: the same token in different contexts produces
        // different logits.
        let m = model();
        let (mut s1, mut s2) = (m.new_scratch(), m.new_scratch());
        let mut c1 = m.new_cache();
        m.step_with(1, &mut c1, &mut s1);
        m.step_with(7, &mut c1, &mut s1);
        let mut c2 = m.new_cache();
        m.step_with(2, &mut c2, &mut s2);
        m.step_with(7, &mut c2, &mut s2);
        assert_ne!(s1.logits(), s2.logits());
    }

    #[test]
    fn multinomial_generation_runs() {
        let m = model();
        let mut s = Sampler::multinomial(0.8, 123);
        let out = m.generate(&[1], 5, &mut s);
        assert_eq!(out.len(), 5);
        assert!(out.iter().all(|&t| (t as usize) < m.config().vocab_size));
    }

    #[test]
    #[should_panic(expected = "token out of vocabulary")]
    fn oversized_token_rejected() {
        let m = model();
        m.step_with(u32::MAX, &mut m.new_cache(), &mut m.new_scratch());
    }

    #[test]
    fn sequence_scoring_prefers_model_output() {
        // A greedily generated continuation must score at least as high as
        // a perturbed one.
        let m = model();
        let prompt = [1u32, 2];
        let gen = m.generate_greedy(&prompt, 4);
        let mut good: Vec<u32> = prompt.to_vec();
        good.extend_from_slice(&gen);
        let mut bad = good.clone();
        let last = *bad.last().unwrap();
        *bad.last_mut().unwrap() = (last + 17) % m.config().vocab_size as u32;
        assert!(m.score_sequence(&good) >= m.score_sequence(&bad));
    }

    #[test]
    fn text_embedding_shape_and_sensitivity() {
        let m = model();
        let a = m.text_embedding(&[1, 2, 3]);
        let b = m.text_embedding(&[4, 5, 6]);
        assert_eq!(a.len(), m.config().hidden_size);
        assert_ne!(a, b);
        // Pooled RMS-normalized states have bounded magnitude.
        let rms = (a.iter().map(|v| v * v).sum::<f32>() / a.len() as f32).sqrt();
        assert!(rms < 2.0, "rms = {rms}");
    }

    #[test]
    fn lora_adapter_changes_generation() {
        use crate::lora::LoraAdapter;
        let mut m = model();
        let before = m.generate_greedy(&[1, 2, 3], 6);
        let c = *m.config();
        m.set_q_adapter(
            0,
            LoraAdapter::seeded(c.hidden_size, c.attention.q_width(), 4, 8.0, 3),
        );
        let after = m.generate_greedy(&[1, 2, 3], 6);
        assert_ne!(before, after, "a strong adapter must steer decoding");
    }

    #[test]
    fn zero_lora_adapter_is_identity() {
        use crate::lora::LoraAdapter;
        let mut m = model();
        let before = m.generate_greedy(&[1, 2, 3], 6);
        let c = *m.config();
        m.set_q_adapter(
            1,
            LoraAdapter::zeros(c.hidden_size, c.attention.q_width(), 4, 1.0),
        );
        assert_eq!(m.generate_greedy(&[1, 2, 3], 6), before);
    }

    #[test]
    #[should_panic(expected = "prompt must contain")]
    fn empty_prompt_rejected() {
        model().generate_greedy(&[], 3);
    }

    #[test]
    fn panel_prefill_is_bitwise_per_token_loop() {
        // One width-T panel appends the same KV and produces the same
        // final logits as a `step_with` loop of width-1 panels, bit for
        // bit.
        let m = model();
        let prompt: Vec<u32> = (0..23u32).map(|i| (i * 13 + 2) % 48).collect();
        let mut loop_cache = m.new_cache();
        let mut loop_scratch = m.new_scratch();
        for &t in &prompt {
            m.step_with(t, &mut loop_cache, &mut loop_scratch);
        }
        let mut panel_cache = m.new_cache();
        let mut panel_scratch = m.new_scratch();
        let stats = m.prefill_with(&prompt, &mut panel_cache, &mut panel_scratch, true);
        assert_eq!(stats.panels, 1);
        assert_eq!(stats.max_panel, prompt.len());
        assert_eq!(loop_scratch.logits(), panel_scratch.logits());
        assert_eq!(panel_cache.len(), prompt.len());
        let c = m.config();
        for layer in 0..c.num_layers {
            for p in 0..prompt.len() {
                for head in 0..c.attention.num_kv_heads {
                    assert_eq!(
                        loop_cache.key(layer, p, head),
                        panel_cache.key(layer, p, head),
                        "key layer {layer} pos {p} head {head}"
                    );
                    assert_eq!(
                        loop_cache.value(layer, p, head),
                        panel_cache.value(layer, p, head),
                        "value layer {layer} pos {p} head {head}"
                    );
                }
            }
        }
        // Decoding after either prefill yields identical continuations.
        let mut a = Vec::new();
        let mut tok = Sampler::Greedy.sample(loop_scratch.logits());
        for _ in 0..6 {
            a.push(tok);
            m.step_with(tok, &mut loop_cache, &mut loop_scratch);
            tok = Sampler::Greedy.sample(loop_scratch.logits());
        }
        let mut b = Vec::new();
        let mut tok = Sampler::Greedy.sample(panel_scratch.logits());
        for _ in 0..6 {
            b.push(tok);
            m.step_with(tok, &mut panel_cache, &mut panel_scratch);
            tok = Sampler::Greedy.sample(panel_scratch.logits());
        }
        assert_eq!(a, b);
    }

    #[test]
    fn prefill_is_chunking_invariant() {
        // Any panel width yields bit-identical logits: the matmul is
        // bit-equal to the matvec loop per token, so chunk boundaries
        // cannot be observed.
        let m = model();
        let prompt: Vec<u32> = (0..41u32).map(|i| (i * 7 + 1) % 48).collect();
        let mut want: Option<Vec<f32>> = None;
        for panel in [1usize, 3, 16, 64] {
            let mut cache = m.new_cache();
            let mut scratch = m.new_scratch();
            let stats = m.prefill_chunked(&prompt, &mut cache, &mut scratch, panel, true);
            assert_eq!(stats.panels as usize, prompt.len().div_ceil(panel));
            assert_eq!(stats.max_panel, panel.min(prompt.len()));
            match &want {
                None => want = Some(scratch.logits().to_vec()),
                Some(w) => assert_eq!(w.as_slice(), scratch.logits(), "panel {panel}"),
            }
        }
    }

    #[test]
    fn panel_prefill_respects_lora_adapter() {
        // The LoRA delta is added per token, so a width-T panel matches a
        // loop of width-1 panels bit for bit with an adapter installed.
        use crate::lora::LoraAdapter;
        let mut m = model();
        let c = *m.config();
        m.set_q_adapter(
            0,
            LoraAdapter::seeded(c.hidden_size, c.attention.q_width(), 4, 8.0, 3),
        );
        let prompt = [1u32, 2, 3, 4, 5];
        let mut loop_cache = m.new_cache();
        let mut loop_scratch = m.new_scratch();
        for &t in &prompt {
            m.step_with(t, &mut loop_cache, &mut loop_scratch);
        }
        let mut cache = m.new_cache();
        let mut scratch = m.new_scratch();
        m.prefill_with(&prompt, &mut cache, &mut scratch, true);
        assert_eq!(loop_scratch.logits(), scratch.logits());
    }

    #[test]
    fn large_projection_prefill_is_bitwise_step_loop() {
        // `wq` holds exactly 2^21 cells (hidden 1024 × 16 heads × 128), the
        // size at which the row-split kernels switch to a 4-way partial-sum
        // reduction. Decode and prefill must still share one accumulation
        // order: logits and KV of the panel equal the step loop's bit for
        // bit.
        use hnlpu_model::{AttentionConfig, MoeConfig};
        let config = TransformerConfig {
            hidden_size: 1024,
            num_layers: 1,
            attention: AttentionConfig {
                num_query_heads: 16,
                num_kv_heads: 2,
                head_dim: 128,
            },
            moe: MoeConfig {
                num_experts: 2,
                experts_per_token: 1,
                intermediate_size: 64,
            },
            vocab_size: 64,
        };
        assert_eq!(
            config.hidden_size * config.attention.q_width(),
            crate::kernels::ROWS_PARALLEL_MIN_WORK
        );
        let m = Transformer::new(ModelWeights::materialize(&config, &WeightGenerator::new(7)));
        let prompt = [3u32, 9, 27, 17];
        let mut loop_cache = m.new_cache();
        let mut loop_scratch = m.new_scratch();
        for &t in &prompt {
            m.step_with(t, &mut loop_cache, &mut loop_scratch);
        }
        let mut panel_cache = m.new_cache();
        let mut panel_scratch = m.new_scratch();
        m.prefill_with(&prompt, &mut panel_cache, &mut panel_scratch, true);
        let differing = loop_scratch
            .logits()
            .iter()
            .zip(panel_scratch.logits())
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(differing, 0, "{differing} of 64 logits differ");
        for p in 0..prompt.len() {
            for head in 0..config.attention.num_kv_heads {
                assert_eq!(loop_cache.key(0, p, head), panel_cache.key(0, p, head));
                assert_eq!(loop_cache.value(0, p, head), panel_cache.value(0, p, head));
            }
        }
    }
}

//! Per-layer probes: each wraps calls into one layer's public API in
//! spans. The dataflow replay doubles as the output check of every run.

use crate::engine::Setup;
use crate::trace::Tracer;
use hnlpu_llm::dataflow::DataflowState;
use hnlpu_llm::kernels::{matmul_into, matvec_into};
use hnlpu_llm::kv_cache::{PageBuf, PrefixCache};
use hnlpu_llm::{DataflowExecutor, Sampler};
use hnlpu_model::{ModelWeights, PackedFp4Matrix};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Replay every request one sequence at a time through the per-sequence
/// executor: positions the run served from the prefix cache first (span
/// `dataflow.prefill_matched`), then the run's own prefill chunks
/// (`dataflow.prefill_with`), then greedy decode (`dataflow.step_with`).
/// Returns the greedy stream of each request.
///
/// The state after a matched prefix is a pure function of its tokens, so
/// it is computed once per distinct prefix and cloned for later requests
/// that matched the same positions.
pub fn dataflow_replay(
    exec: &DataflowExecutor,
    setup: &Setup,
    chunks: &[Vec<u32>],
    tracer: &mut Tracer,
) -> Vec<Vec<u32>> {
    let mut scratch = exec.new_scratch();
    let mut prefixes: BTreeMap<Vec<u32>, DataflowState> = BTreeMap::new();
    let mut outputs = Vec::with_capacity(setup.trace.requests.len());
    for (i, req) in setup.trace.requests.iter().enumerate() {
        tracer.enter("dataflow", "dataflow.request", Some(i));
        let mut state = exec.new_state();
        let prompt = &req.prompt;
        let mut sizes: Vec<usize> = chunks[i].iter().map(|&n| n as usize).collect();
        let own: usize = sizes.iter().sum();
        if own == 0 || own > prompt.len() {
            sizes = vec![prompt.len()];
        }
        let mut pos = prompt.len() - sizes.iter().sum::<usize>();
        if pos > 0 {
            let prefix = &prompt[..pos];
            match prefixes.get(prefix) {
                Some(done) => state = done.clone(),
                None => {
                    tracer.span("dataflow", "dataflow.prefill_matched", Some(i), || {
                        exec.prefill_with(prefix, &mut state, &mut scratch, false)
                    });
                    prefixes.insert(prefix.to_vec(), state.clone());
                }
            }
        }
        for n in sizes {
            let end = pos + n;
            let last = end == prompt.len();
            tracer.span("dataflow", "dataflow.prefill_with", Some(i), || {
                exec.prefill_with(&prompt[pos..end], &mut state, &mut scratch, last)
            });
            pos = end;
        }
        let target = req.decode_tokens as usize;
        let mut sampler = Sampler::Greedy;
        let mut out = Vec::with_capacity(target);
        while out.len() < target {
            let next = sampler.sample(scratch.logits());
            out.push(next);
            if out.len() < target {
                tracer.span("dataflow", "dataflow.step_with", Some(i), || {
                    exec.step_with(next, &mut state, &mut scratch)
                });
            }
        }
        outputs.push(out);
        tracer.exit();
    }
    outputs
}

/// Replay the trace's prefix-cache traffic at the workload's page budget,
/// one request at a time in arrival order: match, retain, commit the
/// prompt's blocks (placeholder pages), release. Checks the ledger
/// balances once the tree is flushed.
pub fn kv_replay(setup: &Setup, tracer: &mut Tracer) -> Result<(), String> {
    let cfg = setup
        .engine
        .prefix_config()
        .expect("the engine runs the paged prefix cache");
    let per_block = cfg.pages_per_block;
    let mut cache = PrefixCache::new(cfg);
    for (i, req) in setup.trace.requests.iter().enumerate() {
        let mut grant = Vec::new();
        let (m, _) = tracer.span("kv_cache", "kv_cache.match_prompt", Some(i), || {
            cache.match_prompt(&req.prompt)
        });
        cache.retain_match(&m, &mut grant);
        tracer.span("kv_cache", "kv_cache.commit", Some(i), || {
            cache.commit(
                &req.prompt,
                |_| vec![PageBuf::placeholder(); per_block],
                &mut grant,
            )
        });
        tracer.span("kv_cache", "kv_cache.release_grant", Some(i), || {
            cache.release_grant(&mut grant)
        });
    }
    cache.flush();
    if cache.ledger_balanced() {
        Ok(())
    } else {
        let s = cache.pool().stats();
        Err(format!(
            "prefix replay ledger unbalanced: registered {}, freed {}",
            s.registered, s.freed
        ))
    }
}

/// Matrices one decode token runs through, with calls per token.
pub fn decode_matrices(w: &ModelWeights) -> Vec<(&PackedFp4Matrix, u32)> {
    let k = w.config.moe.experts_per_token as u32;
    let mut v = Vec::new();
    for l in &w.layers {
        v.push((&l.wq, 1));
        v.push((&l.wk, 1));
        v.push((&l.wv, 1));
        v.push((&l.wo, 1));
        v.push((&l.router, 1));
        v.push((&l.up[0], k));
        v.push((&l.gate[0], k));
        v.push((&l.down[0], k));
    }
    v
}

/// Packed FP4 bytes one decode token reads: every attention and router
/// matrix once and `experts_per_token` experts per layer. Computed from
/// the tensor sizes, not measured.
pub fn packed_bytes_per_decode_token(w: &ModelWeights) -> u64 {
    decode_matrices(w)
        .iter()
        .map(|(m, calls)| m.bytes() as u64 * u64::from(*calls))
        .sum()
}

/// Median of a non-empty sample.
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Kernel timings from the median call on each decode matrix:
/// `(matvec ns/cell, matmul ns/cell at a panel of `panel` tokens,
/// Σ calls per token × ns per matvec call)`.
pub fn kernel_probe(
    w: &ModelWeights,
    panel: usize,
    reps: usize,
    tracer: &mut Tracer,
) -> (f64, f64, f64) {
    let panel = panel.clamp(1, hnlpu_llm::scratch::MAX_PREFILL_PANEL);
    let (mut mv_ns, mut mv_cells, mut mm_ns, mut mm_cells, mut decode_ns) = (0.0, 0, 0.0, 0, 0.0);
    for (m, calls) in decode_matrices(w) {
        let cells = m.rows() * m.cols();
        let x: Vec<f32> = (0..m.rows() * panel)
            .map(|i| ((i % 7) as f32 - 3.0) * 0.25)
            .collect();
        let mut out = vec![0.0f32; m.cols() * panel];
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                tracer
                    .span("kernels", "kernels.matvec_into", None, || {
                        matvec_into(black_box(&x[..m.rows()]), m, &mut out[..m.cols()])
                    })
                    .1
            })
            .collect();
        let call_ns = median(times) * 1e9;
        mv_ns += call_ns;
        mv_cells += cells;
        decode_ns += call_ns * f64::from(calls);
        let times: Vec<f64> = (0..(reps / panel).max(3))
            .map(|_| {
                tracer
                    .span("kernels", "kernels.matmul_into", None, || {
                        matmul_into(black_box(&x), m.rows(), panel, m, &mut out, m.cols())
                    })
                    .1
            })
            .collect();
        mm_ns += median(times) * 1e9;
        mm_cells += cells * panel;
        black_box(&out);
    }
    (mv_ns / mv_cells as f64, mm_ns / mm_cells as f64, decode_ns)
}

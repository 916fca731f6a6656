//! Serving benchmark of the HNLPU functional engine on the bench-mid model.
//!
//! ```text
//! cargo run --release --offline --manifest-path servebench/Cargo.toml -- \
//!     --workload <chat-saturated|shared-prefix|offline-batch> \
//!     --seed <n> --seconds <s> --trace <0|1> [--small] [--spans-dir <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics: host tokens/s of the timed
//! call, modeled TTFT and tokens/s, set-up time, peak RSS and the
//! completed share. `--trace 1` runs the per-layer probes inside spans and
//! prints the per-layer metrics. Either way every completed stream is
//! checked against a one-sequence-at-a-time greedy replay after timing,
//! and any mismatch exits non-zero. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See
//! `servebench/GLOSSARY.md` for what each metric means.

use hnlpu_servebench::engine::{self, offline_pass, online_pass, Pass, Setup};
use hnlpu_servebench::trace::Tracer;
use hnlpu_servebench::workload::Kind;
use hnlpu_servebench::{host, layers};
use hnlpu_sim::pipeline::Breakdown;
use hnlpu_sim::scheduler::{RoundPlan, SchedulerReport};
use hnlpu_sim::SimConfig;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Span layers, in the order their self times are reported.
const LAYERS: [&str; 7] = [
    "bench",
    "serve",
    "batch",
    "sim.scheduler",
    "dataflow",
    "kv_cache",
    "kernels",
];
/// Fewest timed passes per end-to-end run, however long each takes.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    small: bool,
    spans_dir: String,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut small = false;
    let mut spans_dir = "servebench/out".to_string();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--small" {
            small = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--spans-dir" => spans_dir = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        small,
        spans_dir,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::host_json());
    let result = if args.trace {
        traced_run(&args)
    } else {
        timed_run(&args)
    };
    match result {
        Ok(r) => {
            r.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.kind.name());
            ExitCode::from(1)
        }
    }
}

/// Named metrics of one run, with the counts the result line carries.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    fn new(attempted: usize, failed: usize) -> Self {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// The metrics as a JSON object body: `"name": {"value": v, "unit": u}`.
    fn metrics_json(&self) -> String {
        let mut json = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let v = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json
    }

    fn print(&self) {
        for (name, value, unit) in &self.metrics {
            println!("{name:<42} {value:>20.6} {unit}");
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            self.metrics_json()
        );
    }
}

/// Median of a non-empty sample (mean of the middle two when even).
fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..1) of a sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest of the usual tail percentiles with at least ten samples
/// beyond its rank: `(percentile, samples beyond)`.
fn tail_percentile(n: usize) -> (f64, usize) {
    for p in [0.999, 0.99, 0.95, 0.9, 0.75] {
        let beyond = n - ((p * n as f64).ceil() as usize).min(n);
        if beyond >= 10 {
            return (p, beyond);
        }
    }
    (0.5, n / 2)
}

/// One pass of the workload's engine call. `online` picks the API:
/// `OnlineServer::run_trace` (layer `serve`) or
/// `BatchedDataflowExecutor::run_with_scheduler` (layer `batch`). Only
/// the call itself is timed; returns the pass, wall seconds and process
/// CPU seconds of the call.
fn pass(
    setup: &mut Setup,
    plan: &(SchedulerReport, Vec<RoundPlan>),
    online: bool,
    tracer: Option<&mut Tracer>,
) -> Result<(Pass, f64, f64), String> {
    let timed = |tracer: Option<&mut Tracer>, layer, name, f: &mut dyn FnMut()| {
        let cpu0 = host::process_cpu_s();
        let wall = match tracer {
            Some(t) => t.span(layer, name, None, f).1,
            None => {
                let t0 = Instant::now();
                f();
                t0.elapsed().as_secs_f64()
            }
        };
        (wall, host::process_cpu_s() - cpu0)
    };
    if online {
        let mut server = match setup.server.take() {
            Some(s) => s,
            None => setup.new_server(),
        };
        let mut out = None;
        let (wall, cpu) = timed(tracer, "serve", "serve.run_trace", &mut || {
            out = Some(server.run_trace(&setup.trace.requests, &[]));
        });
        let out = out.expect("run_trace returned");
        let p = online_pass(setup, &server, &out.submissions, &out.report)?;
        Ok((p, wall, cpu))
    } else {
        let mut out = None;
        let (wall, cpu) = timed(tracer, "batch", "batch.run_with_scheduler", &mut || {
            out = Some(
                setup
                    .engine
                    .run_with_scheduler(&setup.trace.requests, &setup.scheduler),
            );
        });
        let (report, timing) = out
            .expect("run_with_scheduler returned")
            .map_err(|e| format!("batch error: {e}"))?;
        let p = offline_pass(setup, &report, &timing, &plan.1)?;
        Ok((p, wall, cpu))
    }
}

/// Set up `SETUP_REPS` times; returns the last set-up and the median
/// set-up seconds.
fn timed_setup(args: &Args) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let s = Setup::build(args.kind, args.seed, args.small);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Timed passes of the workload's own engine call until `seconds` have
/// been measured (at least `min_passes`). Every pass must reproduce the
/// first exactly.
fn timed_passes(
    setup: &mut Setup,
    plan: &(SchedulerReport, Vec<RoundPlan>),
    seconds: f64,
    min_passes: usize,
) -> Result<(Pass, Vec<f64>, Vec<f64>), String> {
    let online = setup.kind.is_online();
    let mut first: Option<Pass> = None;
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let start = Instant::now();
    while walls.len() < min_passes || start.elapsed().as_secs_f64() < seconds {
        let (p, wall, cpu) = pass(setup, plan, online, None)?;
        walls.push(wall);
        cpus.push(cpu);
        match &first {
            None => first = Some(p),
            Some(f) if *f == p => {}
            Some(_) => return Err(format!("pass {} differs from pass 1", walls.len())),
        }
    }
    Ok((first.expect("at least one pass"), walls, cpus))
}

/// Every completed stream must equal the greedy replay.
fn check_outputs(p: &Pass, replay: &[Vec<u32>], what: &str) -> Result<(), String> {
    for (i, (got, want)) in p.outputs.iter().zip(replay).enumerate() {
        if !got.is_empty() && got != want {
            return Err(format!(
                "{what}: request {i} streamed {got:?}, replay gives {want:?}"
            ));
        }
    }
    Ok(())
}

fn timed_run(args: &Args) -> Result<Report, String> {
    let (mut setup, setup_s) = timed_setup(args);
    let plan = setup.plan();
    let steal0 = host::steal_s();
    let (p, walls, _) = timed_passes(&mut setup, &plan, args.seconds, MIN_PASSES)?;
    let steal = host::steal_s() - steal0;
    let tok_s: Vec<f64> = walls.iter().map(|w| p.served_tokens as f64 / w).collect();

    // Output check, outside every timed region.
    let mut scratch_tracer = Tracer::default();
    let replay = layers::dataflow_replay(
        setup.engine.executor(),
        &setup,
        &p.chunks,
        &mut scratch_tracer,
    );
    check_outputs(&p, &replay, "timed pass")?;

    let attempted = p.attempted * walls.len();
    let failed = (p.attempted - p.completed) * walls.len();
    let mut ttfts = p.ttfts_s.clone();
    ttfts.sort_by(f64::total_cmp);
    let (tail_p, beyond) = tail_percentile(ttfts.len());
    eprintln!(
        "{}: seed {}, {} requests, timed passes {:?} s with {:.2} s stolen, failed_share {}, \
         ttft tail = p{} ({} samples beyond, {} total)",
        args.kind.name(),
        args.seed,
        p.attempted,
        walls,
        steal,
        failed as f64 / attempted as f64,
        tail_p * 100.0,
        beyond,
        ttfts.len()
    );
    let mut r = Report::new(attempted, failed);
    r.add("served_tokens_per_s", median(&tok_s), "tok/s");
    r.add("setup_s", setup_s, "s");
    r.add("peak_rss_mib", host::peak_rss_mib(), "MiB");
    r.add("virtual_ttft_p50_ms", percentile(&ttfts, 0.5) * 1e3, "ms");
    r.add(
        "virtual_ttft_tail_ms",
        percentile(&ttfts, tail_p) * 1e3,
        "ms",
    );
    r.add("virtual_tokens_per_s", p.virtual_tokens_per_s, "tok/s");
    r.add(
        "completed_share",
        p.completed as f64 / p.attempted as f64,
        "share",
    );
    Ok(r)
}

fn traced_run(args: &Args) -> Result<Report, String> {
    let mut setup = Setup::build(args.kind, args.seed, args.small);
    let plan = setup.plan();
    let online = setup.kind.is_online();
    let nproc = host::nproc() as f64;

    // Untraced reference passes: the overhead baseline and CPU use.
    let (base, walls, cpus) = timed_passes(&mut setup, &plan, args.seconds / 3.0, 1)?;
    let untraced_busy = median(&walls);
    let utilization: Vec<f64> = walls
        .iter()
        .zip(&cpus)
        .map(|(w, c)| c / (w * nproc))
        .collect();

    let mut t = Tracer::default();
    t.enter("bench", "bench.run", None);
    // Both engine entry points on the same requests: the serve layer
    // (the closed batch is a trace with every arrival at t = 0) and the
    // batch layer (the analytical plan replay).
    let (serve, serve_busy, _) = pass(&mut setup, &plan, true, Some(&mut t))?;
    let (batch, batch_busy, _) = pass(&mut setup, &plan, false, Some(&mut t))?;
    let traced_busy = if online { serve_busy } else { batch_busy };

    // The analytical planner with a benchmark-side prefix oracle.
    let plan_reps = if args.small { 3 } else { 20 };
    let mut occupancy = 0.0;
    for _ in 0..plan_reps {
        let ((report, _), _) = t.span(
            "sim.scheduler",
            "sim.scheduler.plan_with_prefixes",
            None,
            || setup.plan(),
        );
        occupancy = report.mean_occupancy;
    }

    // One sequence at a time through the dataflow executor, at the
    // prefill chunks the workload's own engine call scheduled.
    let own = if online { &serve } else { &batch };
    let replay = layers::dataflow_replay(setup.engine.executor(), &setup, &own.chunks, &mut t);
    layers::kv_replay(&setup, &mut t)?;
    let mean_panel = batch.prefill_tokens as f64 / batch.prefill_panels.max(1) as f64;
    let kernel_reps = if args.small { 5 } else { 200 };
    let (matvec_ns, matmul_ns, decode_kernel_ns) = layers::kernel_probe(
        &setup.weights,
        mean_panel.round() as usize,
        kernel_reps,
        &mut t,
    );
    t.exit();

    // Checks, after all timing.
    check_outputs(&base, &replay, "untraced pass")?;
    check_outputs(&serve, &replay, "serve pass")?;
    check_outputs(&batch, &replay, "batch pass")?;
    if (if online { &serve } else { &batch }) != &base {
        return Err("the traced pass differs from the untraced passes".to_string());
    }

    let per_token = |n: f64, tokens: u64| n / tokens.max(1) as f64;
    let decode_us = per_token(
        t.total_s("dataflow.step_with") * 1e6,
        t.count("dataflow.step_with") as u64,
    );
    let prefill_tokens: u64 = own.chunks.iter().flatten().map(|&n| u64::from(n)).sum();
    let processed = own.prefill_tokens + own.decoded_tokens;
    let c = own.comm;
    let collectives = c.all_reduces + c.all_chip_all_reduces + c.reduces + c.all_gathers;
    let prompt_tokens = setup.trace.prompt_tokens();
    let mut waits = serve.queue_waits_s.clone();
    waits.sort_by(f64::total_cmp);
    let fig14 = Breakdown::at(&SimConfig::paper_default(), engine::NOMINAL_CONTEXT);

    let failed = base.attempted - base.completed;
    let mut r = Report::new(base.attempted, failed);
    r.add("serve.busy_s", serve_busy, "s");
    r.add("serve.rounds", serve.rounds as f64, "count");
    r.add(
        "serve.host_us_per_round",
        serve_busy * 1e6 / serve.rounds.max(1) as f64,
        "us",
    );
    r.add(
        "serve.mean_decode_batch",
        serve.decoded_tokens as f64 / serve.rounds.max(1) as f64,
        "seq",
    );
    r.add(
        "serve.queue_wait_virtual_ms_p50",
        percentile(&waits, 0.5) * 1e3,
        "ms",
    );
    r.add(
        "sim.scheduler.plan_us",
        t.total_s("sim.scheduler.plan_with_prefixes") * 1e6 / plan_reps as f64,
        "us",
    );
    r.add("sim.scheduler.mean_occupancy", occupancy, "share");
    r.add("batch.busy_s", batch_busy, "s");
    r.add(
        "batch.host_us_per_round",
        batch_busy * 1e6 / batch.rounds.max(1) as f64,
        "us",
    );
    r.add("batch.mean_panel_width", mean_panel, "tok");
    r.add("batch.cpu_utilization", median(&utilization), "share");
    r.add("dataflow.decode_us_per_token", decode_us, "us");
    r.add(
        "dataflow.prefill_us_per_token",
        per_token(t.total_s("dataflow.prefill_with") * 1e6, prefill_tokens),
        "us",
    );
    r.add(
        "dataflow.collectives_per_token",
        per_token(collectives as f64, processed),
        "count",
    );
    r.add(
        "dataflow.comm_bytes_per_token",
        per_token(c.bytes as f64, processed),
        "B",
    );
    let px = own.prefix;
    r.add(
        "kv_cache.hit_rate",
        px.hits as f64 / px.lookups.max(1) as f64,
        "share",
    );
    r.add(
        "kv_cache.reused_share",
        px.reused_positions as f64 / prompt_tokens.max(1) as f64,
        "share",
    );
    r.add("kv_cache.evicted_pages", px.evicted_pages as f64, "count");
    r.add(
        "kv_cache.committed_blocks",
        px.committed_blocks as f64,
        "count",
    );
    r.add(
        "kv_cache.owned_over_logical",
        own.peak_kv_owned_bytes as f64 / own.peak_kv_bytes.max(1) as f64,
        "share",
    );
    r.add(
        "kv_cache.match_us",
        t.total_s("kv_cache.match_prompt") * 1e6 / t.count("kv_cache.match_prompt").max(1) as f64,
        "us",
    );
    r.add(
        "kv_cache.commit_us",
        t.total_s("kv_cache.commit") * 1e6 / t.count("kv_cache.commit").max(1) as f64,
        "us",
    );
    r.add("kernels.matvec_ns_per_cell", matvec_ns, "ns");
    r.add("kernels.matmul_ns_per_cell", matmul_ns, "ns");
    r.add(
        "kernels.packed_bytes_per_decode_token",
        layers::packed_bytes_per_decode_token(&setup.weights) as f64,
        "B",
    );
    r.add(
        "kernels.share_of_decode",
        decode_kernel_ns / (decode_us * 1e3),
        "share",
    );
    let [comm, projection, nonlinear, attention, _stall] = fig14.shares;
    r.add("model.fig14_comm_pct", comm, "%");
    r.add("model.fig14_projection_pct", projection, "%");
    r.add("model.fig14_nonlinear_pct", nonlinear, "%");
    r.add("model.fig14_attention_pct", attention, "%");
    for layer in LAYERS {
        r.add(&format!("self_s.{layer}"), t.self_time_s(layer), "s");
    }
    r.add("trace.overhead_ratio", traced_busy / untraced_busy, "ratio");
    r.add("trace.spans", t.spans().len() as f64, "count");

    write_spans(args, &t, &r)?;
    Ok(r)
}

/// Write the spans, with the host block and the run's metrics, as
/// Chrome trace-event JSON under `--spans-dir`.
fn write_spans(args: &Args, t: &Tracer, r: &Report) -> Result<(), String> {
    let meta = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {}, \"metrics\": {{{}}}}}",
        args.kind.name(),
        args.seed,
        host::host_json(),
        r.metrics_json()
    );
    std::fs::create_dir_all(&args.spans_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.spans_dir))?;
    let path = format!("{}/spans-{}.json", args.spans_dir, args.kind.name());
    std::fs::write(&path, t.to_chrome_json(&meta)).map_err(|e| format!("cannot write {path}: {e}"))
}

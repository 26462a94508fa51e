//! `perfbench` — the end-to-end and per-layer benchmark of vqd.
//!
//! vqd has two pipelines, and every workload runs both, in-process,
//! through the public `vqd-core` / `vqd-probes` API:
//!
//! * **lab**: simulate a labelled corpus on one thread, write it as
//!   `.vqdc`, train the exact, location and existence diagnosers in
//!   memory, the exact one out of core from the `.vqdc`, and 10-fold
//!   cross-validate the exact one;
//! * **operator**: replicate the lab corpus into a seeded JSONL event
//!   stream and serve it with `StreamServer::push_line` — closed loop at
//!   saturation, open loop at the fixed `light` and `busy` rates — then
//!   journal a pass, crash it, and recover cold from the journal.
//!
//! The workloads differ in weight: `offline` simulates a large seeded
//! corpus, `serve` a small fixed one and serves a large stream, and
//! `serve_durable` adds degraded sessions plus journal, snapshots,
//! audit and drift monitoring to every serve phase.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 12 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! `--trace 0` prints the end-to-end metrics with vqd-obs disabled;
//! `--trace 1` enables vqd-obs, wraps a span around every call into a
//! layer, and prints the per-layer metrics. Metric names, units and the
//! fixed rates and fingerprints live in `BENCHMARK.json`, read from the
//! working directory. The last stdout line is one JSON object; any
//! failed correctness gate makes the run exit 1.

mod lab;
mod serve;
mod stats;
mod stream;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use vqd_core::dataset::{CorpusSpec, LabeledRun};
use vqd_core::diagnoser::{Diagnoser, Diagnosis};
use vqd_core::VqdError;
use vqd_obs::json::Json;
use vqd_obs::Snapshot;
use vqd_simnet::engine::SimArena;
use vqd_video::catalog::Catalog;

use crate::stats::{beyond, median, Summary};
use crate::stream::{Stream, StreamSpec};
use crate::trace::Tracer;

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Rounds of repeated measurements (closed-loop pass, recovery,
/// training passes, a piece of each round copy of the lab corpus)
/// spread over the serve part of a run; those figures are medians (the
/// corpus rate a total) over the rounds.
const ROUNDS: usize = 5;
/// Warm-up sessions simulated in every set-up, drawn from [`BASE_SEED`]
/// so that the set-up costs the same at every seed.
const WARMUP_SESSIONS: usize = 2;
/// Seed of the fixed base corpus the serve workloads replicate (the
/// default `CorpusConfig` seed).
const BASE_SEED: u64 = 20150101;
/// Floor on stream sessions that keeps ten answers beyond each p99.
const MIN_SESSIONS: usize = 1000;

/// What a workload runs; its rates and fingerprint come from
/// `BENCHMARK.json`.
struct Workload {
    name: &'static str,
    /// Lab corpus size.
    sessions: usize,
    /// Lab corpus drawn from `--seed` (else from [`BASE_SEED`]).
    seeded: bool,
    /// Stream sessions per second of `--seconds`.
    stream_sessions_per_second: usize,
    degrade_share: f64,
    durable: bool,
    /// Copies of the lab corpus simulated during the rounds, each one
    /// in pieces spread over all of them.
    round_copies: usize,
    /// Training passes per round.
    train_passes: usize,
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "offline",
        sessions: 140,
        seeded: true,
        stream_sessions_per_second: 50,
        degrade_share: 0.0,
        durable: false,
        round_copies: 1,
        train_passes: 3,
    },
    Workload {
        name: "serve",
        sessions: 28,
        seeded: false,
        stream_sessions_per_second: 80,
        degrade_share: 0.0,
        durable: false,
        round_copies: 3,
        train_passes: 8,
    },
    Workload {
        name: "serve_durable",
        sessions: 28,
        seeded: false,
        stream_sessions_per_second: 80,
        degrade_share: 0.2,
        durable: true,
        round_copies: 3,
        train_passes: 8,
    },
];

fn stream_spec(w: &Workload, seconds: u64) -> StreamSpec {
    StreamSpec {
        sessions: (w.stream_sessions_per_second * seconds as usize).max(MIN_SESSIONS),
        concurrency: 64,
        reorder_share: 0.02,
        duplicate_share: 0.01,
        degrade_share: w.degrade_share,
    }
}

// ---------------------------------------------------------------------------
// BENCHMARK.json
// ---------------------------------------------------------------------------

struct MetricDef {
    name: String,
    unit: String,
}

struct BenchFile {
    whys: BTreeMap<String, String>,
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

fn load_bench(path: &Path) -> Result<BenchFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let root = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = |key: &str| -> Result<&[Json], String> {
        root.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing array {key:?}"))
    };
    let field = |item: &Json, key: &str| -> Result<String, String> {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without string {key:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricDef {
                    name: field(m, "name")?,
                    unit: field(m, "unit")?,
                })
            })
            .collect()
    };
    let mut whys = BTreeMap::new();
    for w in list("workloads")? {
        whys.insert(field(w, "name")?, field(w, "why")?);
    }
    Ok(BenchFile {
        whys,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// `key=value` from a workload's `why` line.
fn why_param(why: &str, key: &str) -> Option<String> {
    why.split(|c: char| c.is_whitespace() || c == ',' || c == ';')
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('=').map(str::to_string))
}

fn why_num(why: &str, key: &str) -> Result<f64, String> {
    why_param(why, key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("BENCHMARK.json: workload why lacks {key}=<number>"))
}

fn why_hex(why: &str, key: &str) -> Result<u64, String> {
    why_param(why, key)
        .and_then(|v| u64::from_str_radix(v.trim_start_matches("0x"), 16).ok())
        .ok_or_else(|| format!("BENCHMARK.json: workload why lacks {key}=0x<hex>"))
}

// ---------------------------------------------------------------------------
// Host record
// ---------------------------------------------------------------------------

/// The checked-out commit, read from `.git` without running git.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "none".to_string())
}

/// FNV-1a over the benchmarked sources (`crates/`, `perfbench/src`),
/// file names included, in sorted order: identifies the code a run
/// measured even where there is no git metadata.
fn source_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench/src"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        if flag == "--list" {
            return Ok(None);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    }))
}

/// One reported metric: value plus the detail line that states its
/// base (numerator, denominator, sample count).
struct Metric {
    name: String,
    value: f64,
    detail: String,
}

#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    /// Gate violations, described.
    violations: Vec<String>,
    e2e: Vec<Metric>,
    layer: Vec<Metric>,
    notes: Vec<String>,
}

impl Ledger {
    /// Count `n` operations of which `bad` failed; a failure is a gate
    /// violation described by `what`.
    fn ops(&mut self, n: u64, bad: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.violations.push(format!("{} ({bad} of {n})", what()));
        }
    }

    fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops(1, u64::from(!ok), what);
    }

    fn e2e(&mut self, name: &str, value: f64, detail: String) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            detail,
        });
    }

    fn layer(&mut self, name: &str, value: f64, detail: String) {
        self.layer.push(Metric {
            name: name.to_string(),
            value,
            detail,
        });
    }

    fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// `num / den` with the base spelled out; 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> (f64, String) {
    let v = if den > 0.0 { num / den } else { 0.0 };
    (v, format!("{num} / {den}"))
}

/// Counter growth between two registry snapshots.
fn counter_delta(before: &Snapshot, after: &Snapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}

/// Histogram `(sum, count)` growth between two registry snapshots.
fn hist_delta(before: &Snapshot, after: &Snapshot, name: &str) -> (f64, f64) {
    let (s0, c0) = hist_sum_count(before, name);
    let (s1, c1) = hist_sum_count(after, name);
    (s1 - s0, c1 - c0)
}

fn hist_sum_count(s: &Snapshot, name: &str) -> (f64, f64) {
    s.hist(name)
        .map(|h| (h.sum(), h.count() as f64))
        .unwrap_or((0.0, 0.0))
}

fn summary_detail(s: &Summary, p: f64) -> String {
    format!("n={} beyond p{p}={} max={:.4}", s.n, beyond(s.n, p), s.max)
}

fn spread(values: &[f64]) -> String {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    format!("{} samples, min {lo:.6} max {hi:.6}", values.len())
}

/// One whole simulation of the lab corpus, written by `finish_corpus`.
fn simulate_copy(tr: &Tracer, specs: &[CorpusSpec], catalog: &Catalog) -> lab::Corpus {
    let _p = tr.phase("lab.corpus");
    let mut corpus = lab::Corpus::new();
    corpus.simulate(specs, catalog, tr);
    corpus
}

/// The lab corpus and what the serve phases derive from it.
struct Prepared {
    runs: Vec<LabeledRun>,
    model: Arc<Diagnoser>,
    stream: Stream,
    reference: Vec<Diagnosis>,
}

fn run(
    w: &Workload,
    args: &Args,
    why: &str,
    work: &Path,
    led: &mut Ledger,
) -> Result<(), VqdError> {
    let config_err = |e: String| VqdError::Config(e);
    let light = why_num(why, "light").map_err(config_err)?;
    let busy = why_num(why, "busy").map_err(config_err)?;
    let want_fp = why_hex(why, "fp").map_err(config_err)?;
    // The seeded corpus is pinned at one seed; a fixed corpus always.
    let fp_seed = why_param(why, "fpseed").and_then(|s| s.parse::<u64>().ok());
    let corpus_seed = if w.seeded { args.seed } else { BASE_SEED };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shards = nproc.saturating_sub(1).max(1);
    let sspec = stream_spec(w, args.seconds);
    let vqdc = work.join("corpus.vqdc");
    let spill = work.join("spill");
    std::fs::create_dir_all(&spill).map_err(|e| VqdError::io(&spill, e))?;
    let mut tr = Tracer::new(args.trace);

    // Wall seconds of each timed simulation of the lab corpus.
    let mut corpus_times: Vec<f64> = Vec::new();
    let mut train_secs = Vec::new();
    let mut cv_accuracy = 0.0;
    // A fixed corpus is always gated on its recorded fingerprint; a
    // seeded one at the recorded seed.
    let fp_gated = !w.seeded || fp_seed == Some(args.seed);
    // Finish one simulation of the lab corpus: write it, and gate it on
    // its fingerprint.
    let mut corpus_fp: Option<u64> = None;
    let mut finish_corpus = |tr: &mut Tracer,
                             led: &mut Ledger,
                             mut corpus: lab::Corpus|
     -> Result<Vec<LabeledRun>, VqdError> {
        {
            let _p = tr.phase("lab.corpus");
            corpus.write(&vqdc, tr)?;
        }
        corpus_times.push(corpus.secs);
        led.ops(corpus.runs.len() as u64, 0, String::new);
        let fp = lab::fingerprint(&corpus.runs);
        led.gate(*corpus_fp.get_or_insert(fp) == fp, || {
            "two simulations of one corpus differ".to_string()
        });
        if fp_gated {
            led.gate(fp == want_fp, || {
                format!(
                    "corpus fingerprint {fp:#018x} != {want_fp:#018x} recorded in BENCHMARK.json"
                )
            });
        }
        Ok(corpus.runs)
    };
    // One training pass, counted in `train_s` when `timed`.
    let mut train_pass = |tr: &mut Tracer,
                          led: &mut Ledger,
                          runs: &[LabeledRun],
                          timed: bool|
     -> Result<Diagnoser, VqdError> {
        let pass = {
            let _p = tr.phase("lab.train");
            lab::train(runs, &vqdc, &spill, args.seed, tr)?
        };
        tr.drain();
        led.gate(pass.same_bytes, || {
            "in-memory and out-of-core exact models differ in bytes".to_string()
        });
        if timed {
            train_secs.push(pass.secs);
        }
        cv_accuracy = pass.cv_accuracy;
        Ok(pass.exact)
    };

    // ---- Set-up: catalogue, corpus specs, warm-up sessions. ----------
    let mut setup_env = Vec::new();
    let mut warm_fp = None;
    let mut env = None;
    for _ in 0..SETUP_REPS {
        let p = tr.phase("setup");
        let t0 = Instant::now();
        let catalog = {
            let _s = tr.leaf("video.catalog");
            Catalog::top100(lab::CATALOG_SEED)
        };
        let (specs, warm_specs) = {
            let _s = tr.leaf("core.dataset.draw_specs");
            (
                lab::stratified_specs(w.sessions, corpus_seed),
                lab::stratified_specs(WARMUP_SESSIONS, BASE_SEED),
            )
        };
        let mut arena = SimArena::default();
        let warm: Vec<LabeledRun> = warm_specs
            .iter()
            .map(|s| lab::simulate(s, &catalog, &mut arena, &tr, Some("simnet.warmup")))
            .collect();
        setup_env.push(t0.elapsed().as_secs_f64());
        drop(p);
        let fp = lab::fingerprint(&warm);
        led.gate(*warm_fp.get_or_insert(fp) == fp, || {
            "warm-up sessions differ between set-ups of one seed".to_string()
        });
        env = Some((catalog, specs));
    }
    tr.drain();
    let (catalog, specs) = env.expect("at least one set-up");

    // A seeded corpus is the timed lab step; a fixed base corpus is
    // part of every serve set-up (with the model and the stream).
    let seeded_lab = if w.seeded {
        let copy = simulate_copy(&tr, &specs, &catalog);
        let runs = finish_corpus(&mut tr, led, copy)?;
        let model = train_pass(&mut tr, led, &runs, false)?;
        Some((runs, Arc::new(model)))
    } else {
        None
    };
    let mut setup_stage = Vec::new();
    let mut prepared: Option<Prepared> = None;
    let mut model_bytes: Option<String> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (runs, model) = match &seeded_lab {
            Some((runs, model)) => (runs.clone(), Arc::clone(model)),
            None => {
                let copy = simulate_copy(&tr, &specs, &catalog);
                let runs = finish_corpus(&mut tr, led, copy)?;
                let model = train_pass(&mut tr, led, &runs, false)?;
                let bytes = model.serialize();
                led.gate(
                    *model_bytes.get_or_insert_with(|| bytes.clone()) == bytes,
                    || "set-ups of one seed trained different models".to_string(),
                );
                (runs, Arc::new(model))
            }
        };
        let p = tr.phase("setup.stream");
        let stream = stream::build(&runs, &sspec, args.seed, &tr);
        let reference: Vec<Diagnosis> = {
            let _s = tr.leaf("core.serving.diagnose_batch");
            let views: Vec<&[(String, f64)]> =
                stream.metrics.iter().map(|m| m.as_slice()).collect();
            let batch = model.diagnose_batch(&views, 1);
            (0..views.len()).map(|i| batch.get(i)).collect()
        };
        drop(p);
        tr.drain();
        setup_stage.push(t0.elapsed().as_secs_f64());
        match &prepared {
            Some(first) => led.gate(first.stream.text == stream.text, || {
                "the same seed built two different input streams".to_string()
            }),
            None => {
                prepared = Some(Prepared {
                    runs,
                    model,
                    stream,
                    reference,
                })
            }
        }
    }
    let Prepared {
        runs,
        model,
        stream,
        reference,
    } = prepared.expect("at least one set-up");
    let (env_s, stage_s) = (median(&setup_env), median(&setup_stage));
    led.e2e(
        "setup_s",
        env_s + stage_s,
        format!(
            "median of {SETUP_REPS} environment set-ups {env_s:.4} s + median of {SETUP_REPS} {} set-ups {stage_s:.4} s",
            if w.seeded { "stream" } else { "base corpus, model and stream" }
        ),
    );
    let fp = lab::fingerprint(&runs);
    led.note(format!(
        "corpus seed={corpus_seed} sessions={} fingerprint={fp:#018x}{}",
        runs.len(),
        if fp_gated { " (gated)" } else { "" }
    ));
    led.note(format!(
        "stream: {} lines, {} sessions, {} open at once, {} degraded, {} events reordered, {} duplicated",
        stream.len(),
        stream.sessions(),
        sspec.concurrency,
        stream.degraded,
        stream.reordered,
        stream.duplicated
    ));
    let vqdc_bytes = std::fs::metadata(&vqdc).map(|m| m.len()).unwrap_or(0);
    let serve_before = vqd_obs::snapshot();

    // ---- Serve: one crash, then rounds of closed-loop passes,
    // recoveries, training passes and corpus pieces, with the open-loop
    // phases between rounds, so each repeated figure samples the whole
    // run. ----------
    let server = serve::Server {
        model: Arc::clone(&model),
        stream: &stream,
        reference,
        shards,
        durable: w.durable,
        work: work.to_path_buf(),
    };
    let lines = stream.len();
    let sessions = stream.sessions() as u64;
    let crashed = {
        let _p = tr.phase("serve.crash");
        server.crash(&mut tr)?
    };
    tr.drain();
    let mut round_copies: Vec<lab::Corpus> =
        (0..w.round_copies).map(|_| lab::Corpus::new()).collect();
    let mut reports = Vec::new();
    let mut closed_rates = Vec::new();
    let mut untraced_secs = Vec::new();
    let mut traced_secs = Vec::new();
    let mut recover_rates = Vec::new();
    let mut replayed = Vec::new();
    let mut lag_p99 = BTreeMap::new();
    let mut queue_depth = Vec::new();
    let open_after = [
        (0, "light", light, "serve.light"),
        (2, "busy", busy, "serve.busy"),
    ];
    for round in 0..ROUNDS {
        // Closed loop; a traced run adds a traced pass to each round to
        // measure what tracing costs.
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            if traced {
                vqd_obs::enable_tracing();
            } else {
                vqd_obs::disable();
            }
            let out = {
                let _p = tr.phase("serve.closed");
                server.closed(&mut tr, round)?
            };
            tr.drain();
            led.ops(sessions, out.failures, || {
                format!("closed loop round {round}: sessions not answered exactly once, bitwise equal to diagnose_batch")
            });
            if traced {
                traced_secs.push(out.secs);
            } else {
                untraced_secs.push(out.secs);
                closed_rates.push(lines as f64 / out.secs);
            }
            reports.push(out.report);
        }
        if args.trace {
            vqd_obs::enable_tracing();
        }

        let rec = server.recover(&mut tr, &crashed, round)?;
        led.ops(sessions, rec.failures, || {
            format!(
                "recovery {round}: sessions not answered exactly once, or recovered answers differ from live ones"
            )
        });
        recover_rates.push((rec.replayed + rec.refed) as f64 / rec.secs);
        replayed.push(rec.replayed + rec.refed);

        for _ in 0..w.train_passes {
            train_pass(&mut tr, led, &runs, true)?;
        }
        // Every round simulates its share of each round copy of the lab
        // corpus, so those copies sample the whole run.
        {
            let _p = tr.phase("lab.corpus");
            let piece = &specs[round * specs.len() / ROUNDS..(round + 1) * specs.len() / ROUNDS];
            for copy in &mut round_copies {
                copy.simulate(piece, &catalog, &tr);
            }
        }

        for &(after, tag, rate, phase) in &open_after {
            if after != round {
                continue;
            }
            let out = {
                let _p = tr.phase(phase);
                server.open(&mut tr, rate, tag)?
            };
            tr.drain();
            led.ops(sessions, out.failures, || {
                format!("open loop {tag}: sessions not answered exactly once, bitwise equal to diagnose_batch")
            });
            // An unsustained phase is marked, not failed: whether a rate
            // is sustained depends on how fast the host runs right now.
            let sustained = out.sustained(lines);
            let ans = Summary::of(&out.answer_ms);
            let lag = Summary::of(&out.lag_ms);
            led.note(format!(
                "open loop {tag}: {rate} lines/s for {:.3} s; generator lag p50 {:.4} ms p99 {:.4} ms max {:.4} ms; backlog first quarter {:.1}, last quarter {:.1} events; {}",
                out.secs,
                lag.p50,
                lag.p99,
                lag.max,
                out.backlog_first,
                out.backlog_last,
                if sustained { "sustained" } else { "UNSUSTAINED" }
            ));
            let detail = format!(
                "due time of the completing line to answer, {} sessions at {rate} lines/s{}",
                ans.n,
                if sustained { "" } else { ", UNSUSTAINED" }
            );
            led.e2e(
                &format!("answer_ms_p50_{tag}"),
                ans.p50,
                format!("{detail}; {}", summary_detail(&ans, 50.0)),
            );
            led.e2e(
                &format!("answer_ms_p99_{tag}"),
                ans.p99,
                format!("{detail}; {}", summary_detail(&ans, 99.0)),
            );
            lag_p99.insert(tag, (lag.p99, lag.n));
            queue_depth.extend(out.queue_depth);
            reports.push(out.report);
        }
    }
    tr.drain();
    let serve_after = vqd_obs::snapshot();

    for copy in round_copies {
        finish_corpus(&mut tr, led, copy)?;
    }
    tr.drain();
    // Sessions over seconds, summed over every timed simulation of the
    // corpus (set-up copies and copies spread over the rounds), so the
    // figure averages the host's speed over the whole run.
    let copies: Vec<String> = corpus_times.iter().map(|s| format!("{s:.3}")).collect();
    led.note(format!(
        "corpus simulations, seconds each: {}",
        copies.join(" ")
    ));
    let corpus_secs: f64 = corpus_times.iter().sum();
    let simulated = runs.len() * corpus_times.len();
    led.e2e(
        "corpus_sessions_per_s",
        simulated as f64 / corpus_secs,
        format!(
            "{simulated} sessions ({} simulations of {}) / {corpus_secs:.4} s simulated + .vqdc-written on 1 thread",
            corpus_times.len(),
            runs.len()
        ),
    );
    led.note(format!(
        "exact model: {} tree nodes, {} features, 10-fold CV accuracy {cv_accuracy:.4}",
        model.tree().size(),
        model.feature_names.len()
    ));
    led.e2e(
        "train_s",
        median(&train_secs),
        format!("median of {}", spread(&train_secs)),
    );
    led.e2e(
        "serve_events_per_s",
        median(&closed_rates),
        format!(
            "{lines} lines per closed-loop pass, first push to last answer; median of {}",
            spread(&closed_rates)
        ),
    );
    led.e2e(
        "recover_events_per_s",
        median(&recover_rates),
        format!(
            "{replayed:?} replayed + re-fed events per recovery, recover_state to final flush; median of {}",
            spread(&recover_rates)
        ),
    );

    if !args.trace {
        return Ok(());
    }

    // ---- Per-layer metrics (traced run only). --------------------------
    let sim_n = serve_before.counter("simnet.sessions") as f64;
    let session_ms: Vec<f64> = lab::FAULTS
        .iter()
        .flat_map(|k| {
            tr.stat(lab::session_span(*k))
                .map(|s| s.raw_ms())
                .unwrap_or_default()
        })
        .collect();
    let s = Summary::of(&session_ms);
    led.layer("simnet.session_ms_p50", s.p50, summary_detail(&s, 50.0));
    led.layer("simnet.session_ms_p99", s.p99, summary_detail(&s, 99.0));
    for k in lab::FAULTS {
        let raw = tr
            .stat(lab::session_span(k))
            .map(|s| s.raw_ms())
            .unwrap_or_default();
        let (v, d) = ratio(raw.iter().sum(), raw.len() as f64);
        led.layer(
            &format!("simnet.session_ms.{}", k.name()),
            v,
            format!("mean: {d} sessions"),
        );
    }
    let c = |name: &str| serve_before.counter(name) as f64;
    for (name, num, den) in [
        (
            "simnet.sched.dispatched_per_session",
            c("simnet.sched.dispatched"),
            sim_n,
        ),
        (
            "simnet.sched.events_per_delivered_pkt",
            c("simnet.sched.dispatched"),
            c("simnet.link.delivered_pkts"),
        ),
        (
            "simnet.sched.timer_stale_share",
            c("simnet.sched.timer_stale"),
            c("simnet.sched.dispatched"),
        ),
        (
            "simnet.link.delivered_pkts_per_session",
            c("simnet.link.delivered_pkts"),
            sim_n,
        ),
        (
            "simnet.link.drop_share",
            c("simnet.link.drop_tail_pkts") + c("simnet.link.drop_loss_pkts"),
            c("simnet.link.enq_pkts"),
        ),
        (
            "simnet.tcp.retx_per_session",
            c("simnet.tcp.retx_pkts"),
            sim_n,
        ),
        (
            "probes.samples_per_session",
            c("probes.samples.hw") + c("probes.samples.phy") + c("probes.samples.nic"),
            sim_n,
        ),
    ] {
        let (v, d) = ratio(num, den);
        led.layer(name, v, d);
    }
    let write = tr.stat("core.vqdc.write").map_or(0.0, |s| s.total_ms());
    led.layer(
        "core.vqdc.write_ms",
        write,
        format!("one write of {} sessions", runs.len()),
    );
    let (v, d) = ratio(vqdc_bytes as f64, runs.len() as f64);
    led.layer("core.vqdc.bytes_per_session", v, format!("{d} sessions"));

    let raw_median = |name: &str| {
        let raw = tr.stat(name).map(|s| s.raw_ms()).unwrap_or_default();
        (median(&raw), format!("median of {} spans", raw.len()))
    };
    for (_, scheme, prepare, fit) in lab::SCHEMES {
        let (v, d) = raw_median(prepare);
        led.layer(&format!("features.prepare_ms.{scheme}"), v, d);
        let (v, d) = raw_median(fit);
        led.layer(&format!("ml.fit_ms.{scheme}"), v, d);
    }
    let (v, d) = raw_median("ml.cv");
    led.layer("ml.cv_ms", v, d);
    let (sum, count) = hist_sum_count(&serve_after, "ml.fit.nodes");
    let (v, d) = ratio(sum, count);
    led.layer("ml.fit.nodes", v, format!("mean nodes per fit: {d} fits"));
    let (v, d) = raw_median("core.octrain");
    led.layer("core.octrain_ms", v, d);

    let per_event = |name: &str| {
        let st = tr.stat(name);
        let (n, ns) = st.map_or((0, 0), |s| (s.count, s.total_ns));
        ratio(ns as f64, n as f64)
    };
    let (v, d) = per_event("probes.event.parse");
    led.layer("probes.event.parse_ns", v, format!("{d} events"));
    let (v, d) = per_event("core.stream.push");
    led.layer("core.stream.push_ns", v, format!("{d} events"));
    let q = Summary::of(&queue_depth);
    led.layer(
        "core.stream.queue_depth_p50",
        q.p50,
        summary_detail(&q, 50.0),
    );
    led.layer(
        "core.stream.queue_depth_p99",
        q.p99,
        summary_detail(&q, 99.0),
    );
    let (sum, count) = hist_delta(&serve_before, &serve_after, "serve.flush.sessions");
    let (v, d) = ratio(sum, count);
    led.layer("core.stream.sessions_per_flush", v, format!("{d} flushes"));
    let (sum, count) = hist_delta(&serve_before, &serve_after, "serve.flush.ms");
    let (v, d) = ratio(sum, count);
    led.layer("core.serving.flush_ms_mean", v, format!("{d} flushes"));
    let stage_ms: f64 = ["construct", "descend", "score"]
        .iter()
        .map(|st| {
            hist_delta(
                &serve_before,
                &serve_after,
                &format!("core.batch.stage.{st}_ms"),
            )
            .0
        })
        .sum();
    let (v, d) = ratio(
        stage_ms * 1e3,
        counter_delta(&serve_before, &serve_after, "core.batch.sessions"),
    );
    led.layer(
        "core.serving.diagnose_us_per_session",
        v,
        format!("{d} sessions"),
    );
    let (dups, events, degraded, served) = reports.iter().fold((0, 0, 0, 0), |a, r| {
        (
            a.0 + r.duplicates,
            a.1 + r.events,
            a.2 + r.tiers[1] + r.tiers[2],
            a.3 + r.sessions,
        )
    });
    let (v, d) = ratio(dups as f64, events as f64);
    led.layer("core.stream.duplicates_share", v, format!("{d} events"));
    let (v, d) = ratio(degraded as f64, served as f64);
    led.layer(
        "core.serving.degraded_share",
        v,
        format!("non-exact tiers: {d} sessions"),
    );
    for (tag, (p99, n)) in &lag_p99 {
        led.layer(
            &format!("bench.gen_lag_ms_p99.{tag}"),
            *p99,
            format!("n={n} lines"),
        );
    }
    let (v, d) = ratio(crashed.journal_bytes as f64, crashed.journal_records as f64);
    led.layer(
        "probes.journal.bytes_per_event",
        v,
        format!("{d} records on disk"),
    );
    let snaps = tr
        .stat("core.stream.snapshot")
        .map(|s| s.raw_ms())
        .unwrap_or_default();
    let s = Summary::of(&snaps);
    led.layer(
        "core.stream.snapshot_ms_p50",
        s.p50,
        summary_detail(&s, 50.0),
    );
    led.layer("core.stream.snapshot_ms_max", s.max, format!("n={}", s.n));
    let total = |name: &str| tr.stat(name).map_or(0.0, |s| s.total_ms());
    let (v, d) = raw_median("core.stream.recover_scan");
    led.layer("core.stream.recover_scan_ms", v, d);
    let (v, d) = ratio(total("core.stream.replay"), replayed.len() as f64);
    led.layer(
        "core.stream.replay_ms",
        v,
        format!("restart and finish, mean: {d} recoveries; {replayed:?} events replayed"),
    );
    let steps = counter_delta(&serve_before, &serve_after, "core.audit.path.steps");
    let audited = counter_delta(&serve_before, &serve_after, "core.audit.path.sessions");
    let (v, d) = ratio(steps, audited);
    led.layer(
        "core.audit.steps_per_session",
        v,
        format!("{d} audited sessions"),
    );

    let (v, d) = ratio(tr.covered_ns() as f64, tr.timed_wall_ns() as f64);
    led.layer("trace.coverage_share", v, format!("{d} ns of timed wall"));
    let (u, t) = (median(&untraced_secs), median(&traced_secs));
    let pct = (t / u - 1.0) * 100.0;
    // Noise: the interquartile range of the untraced passes.
    let mut sorted = untraced_secs.clone();
    stats::sort(&mut sorted);
    let noise = stats::percentile(&sorted, 75.0).unwrap_or(0.0)
        - stats::percentile(&sorted, 25.0).unwrap_or(0.0);
    let within = (t - u).abs() <= noise;
    led.layer(
        "trace.overhead_pct",
        if within { 0.0 } else { pct },
        format!(
            "closed loop traced median {t:.4} s vs untraced {u:.4} s ({pct:.2}%){}",
            if within { ", within noise" } else { "" }
        ),
    );
    let wall = tr.timed_wall_ns() as f64;
    let mut shares: Vec<(&str, f64, u64)> = tr
        .leaves
        .iter()
        .map(|(n, s)| (*n, s.self_ns as f64, s.count))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, ns, count) in shares {
        led.note(format!(
            "span {name}: {count} spans, self {:.3} ms, {:.4} of timed wall",
            ns / 1e6,
            ns / wall
        ));
    }
    let other = wall - tr.covered_ns() as f64;
    led.note(format!(
        "span other: {:.3} ms, {:.4} of timed wall",
        other / 1e6,
        other / wall
    ));
    for (phase, ns) in &tr.phases {
        led.note(format!("phase {phase}: {:.3} ms", *ns as f64 / 1e6));
    }
    Ok(())
}

fn json_num(v: f64) -> String {
    // Rust's shortest round-trip form: every digit as measured.
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) || s.contains("inf") || s.contains("NaN") {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1> | --list");
            std::process::exit(2);
        }
    };
    let bench = match load_bench(Path::new("BENCHMARK.json")) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(args) = args else {
        for (kind, list) in [
            ("end_to_end", &bench.end_to_end),
            ("per_layer", &bench.per_layer),
        ] {
            for m in list {
                println!("{kind}\t{}\t{}", m.name, m.unit);
            }
        }
        return;
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let Some(why) = bench.whys.get(w.name) else {
        eprintln!("perfbench: workload {} is not in BENCHMARK.json", w.name);
        std::process::exit(2);
    };

    let work = PathBuf::from(".perfbench_work").join(format!("{}-{}", w.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(1);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host nproc={nproc} commit={} source={:#018x} rustc=\"{}\"",
        commit(),
        source_fingerprint(),
        env!("PERFBENCH_RUSTC_VERSION")
    );
    let mut led = Ledger::default();
    let outcome = run(w, &args, why, &work, &mut led);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".perfbench_work");
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }

    if args.trace {
        let (v, d) = ratio(led.failed as f64, led.attempted as f64);
        led.layer("failed_share", v, format!("{d} operations"));
    }
    for n in &led.notes {
        println!("{n}");
    }
    let (defs, got) = if args.trace {
        (&bench.per_layer, &led.layer)
    } else {
        (&bench.end_to_end, &led.e2e)
    };
    let mut fields = Vec::new();
    for def in defs {
        match got.iter().find(|m| m.name == def.name) {
            Some(m) if m.value.is_finite() => {
                println!(
                    "metric {} {} {}  [{}]",
                    m.name,
                    json_num(m.value),
                    def.unit,
                    m.detail
                );
                fields.push(format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_num(m.value),
                    def.unit
                ));
            }
            Some(m) => led
                .violations
                .push(format!("metric {} is not finite: {}", m.name, m.value)),
            None => led
                .violations
                .push(format!("metric {} was not measured", def.name)),
        }
    }
    for m in got {
        if !defs.iter().any(|d| d.name == m.name) {
            led.violations
                .push(format!("metric {} is not listed in BENCHMARK.json", m.name));
        }
    }
    let (v, d) = ratio(led.failed as f64, led.attempted as f64);
    println!("failed_share {} [{d} operations]", json_num(v));
    for v in &led.violations {
        println!("VIOLATION {v}");
    }
    let correct = led.violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        led.attempted.max(1),
        led.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

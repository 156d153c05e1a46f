//! The `serve_rn_open` workload: an open-loop stream of seeded Poisson
//! arrivals at [`RATE_PER_S`] into an `InferenceServer` running the
//! `fp8_fp12_rn` ResNet-20 (w8, 16×16) on [`WORKERS`] workers with
//! dynamic batching up to [`MAX_BATCH`]. The model is loaded from a
//! `.srmc` in set-up. Latency is timed from each request's *scheduled*
//! send, so a late sender cannot hide queueing.
//!
//! Replies are collected by one thread per worker lane. The router deals
//! admitted requests to lanes round-robin and each worker answers its
//! lane in order, so a lane's replies arrive in the order its collector
//! waits for them. `PendingPrediction` has only a blocking `wait`, so a
//! reply that lands while its collector is still waiting on the one
//! before it is timed late; that error is bounded per request and
//! recorded (`loadgen.fifo_*`).

use std::path::Path;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use srmac_io::{read_checkpoint_with, save_model, CheckpointMeta, FsStorage, Storage};
use srmac_models::serve::PendingPrediction;
use srmac_models::{
    data, resnet, InferenceServer, Prediction, ServeConfig, ServeError, ServeStats,
};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::layers::Layer;
use srmac_tensor::{Sequential, Tensor};

use crate::host::peak_rss_mib;
use crate::ledger::{self, now_ns, Ledger, FWD, ROLES};
use crate::report::{Outcome, LAYERS};
use crate::stats::{beyond, median, percentile};
use crate::train::numerics;
use crate::wrap::{instrument, IoSnapshot, TimedStorage};

/// Offered load, requests per second: under half of what two workers
/// answer at batch 1 on a 2-core host, so batches form and the backlog
/// stays bounded.
pub const RATE_PER_S: f64 = 40.0;
/// Latency limit of the SLO, from scheduled send.
pub const LIMIT_MS: f64 = 250.0;
/// Serve workers.
pub const WORKERS: usize = 2;
/// Dynamic batch cap.
pub const MAX_BATCH: usize = 8;
/// ResNet-20 width.
pub const WIDTH: usize = 8;
/// Image side.
pub const SIZE: usize = 16;
/// Distinct inputs the stream draws from.
pub const POOL: usize = 64;
/// Fewest requests per run: leaves at least 10 beyond p99.
pub const MIN_REQUESTS: usize = 1000;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Leading requests of the stream (about a second of load) whose replies
/// are checked but not timed.
pub const WARMUP_REQUESTS: usize = 40;
const ENGINE: &str = "fp8_fp12_rn";
const ARCH: &str = "resnet20-w8-c10";
/// A `wait` shorter than this found its reply already queued.
const READY_NS: u64 = 20_000;

/// Loads the served model from `path` (`storage` sees the read), wrapping
/// it for tracing when asked.
fn load(storage: &dyn Storage, path: &Path, traced: bool) -> Sequential {
    let ckpt = read_checkpoint_with(storage, path).expect("served checkpoint decodes");
    ckpt.require_arch(ARCH)
        .expect("served checkpoint architecture");
    let spec = ckpt
        .meta
        .numerics
        .as_deref()
        .expect("checkpoint names its numerics");
    let cfg: MacGemmConfig = spec.parse().expect("served engine atom");
    let engine = Arc::new(MacGemm::new(cfg.with_threads(1)));
    let mut model = resnet::resnet20_with(&numerics(engine, traced), WIDTH, 10, 0);
    ckpt.apply_to(&mut model)
        .expect("checkpoint fits the model");
    if traced {
        let (timed, names) = instrument(&mut model);
        assert_eq!(names, LAYERS, "ResNet-20 has the catalogued children");
        model = timed;
    }
    model
}

struct Setup {
    server: InferenceServer,
    load_ns: u64,
    io: IoSnapshot,
}

fn setup(path: &Path, traced: bool, sample: &[f32]) -> Setup {
    let storage = TimedStorage::new(Arc::new(FsStorage));
    let t = now_ns();
    let model = load(&storage, path, traced);
    let load_ns = now_ns() - t;
    let cfg = ServeConfig {
        workers: WORKERS,
        max_batch: MAX_BATCH,
        max_wait_items: 1,
        queue_depth: 1024,
        ..ServeConfig::default()
    };
    let server = InferenceServer::start(model, SIZE, cfg).expect("RN forward serves");
    // One request per worker, so every replica is warm; the router's
    // round-robin is back at lane 0 afterwards.
    let client = server.client();
    let warm: Vec<_> = (0..WORKERS)
        .map(|_| client.submit(sample.to_vec()).expect("warm-up submit"))
        .collect();
    for p in warm {
        p.wait().expect("warm-up reply");
    }
    Setup {
        server,
        load_ns,
        io: storage.counters.take(),
    }
}

/// One admitted request as its collector sees it.
struct Reply {
    idx: usize,
    sched: u64,
    waited_from: u64,
    at: u64,
    result: Result<Prediction, ServeError>,
}

fn collector(rx: mpsc::Receiver<(usize, u64, PendingPrediction)>) -> Vec<Reply> {
    let mut out = Vec::new();
    for (idx, sched, pending) in rx {
        let waited_from = now_ns();
        let result = pending.wait();
        out.push(Reply {
            idx,
            sched,
            waited_from,
            at: now_ns(),
            result,
        });
    }
    out
}

/// Arrival offsets (ns from stream start) of `n` requests over `span_s`:
/// a Poisson process conditioned on its count is `n` sorted uniforms.
fn arrivals(rng: &mut SplitMix64, n: usize, span_s: f64) -> Vec<u64> {
    let mut t: Vec<u64> = (0..n)
        .map(|_| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            (u * span_s * 1e9) as u64
        })
        .collect();
    t.sort_unstable();
    t
}

fn forward_one(model: &mut Sequential, sample: &[f32]) -> Vec<u32> {
    let x = Tensor::from_vec(sample.to_vec(), &[1, 3, SIZE, SIZE]);
    model
        .forward(&x, false)
        .data()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn hist_ms(d: Option<Duration>) -> f64 {
    d.map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// Runs the serve workload end to end: `seconds` of offered load, and
/// never fewer than [`MIN_REQUESTS`] requests.
pub fn workload(seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let n = ((RATE_PER_S * seconds).ceil() as usize).max(MIN_REQUESTS);
    run(seed, n, traced, work)
}

/// Serves a stream of [`WARMUP_REQUESTS`] and then `n` timed requests.
pub fn run(seed: u64, n: usize, traced: bool, work: &Path) -> Outcome {
    // The served model, written before set-up: set-up reads it back.
    let path = work.join("served.srmc");
    let cfg: MacGemmConfig = ENGINE.parse().expect("engine atom");
    let mut model = resnet::resnet20(
        &(Arc::new(MacGemm::new(cfg.with_threads(1))) as _),
        WIDTH,
        10,
        seed,
    );
    let meta = CheckpointMeta {
        arch: ARCH.into(),
        engine: None,
        numerics: Some(ENGINE.into()),
    };
    save_model(&path, &mut model, meta).expect("write served checkpoint");
    drop(model);
    let pool = data::synth_cifar10(POOL, SIZE, seed ^ 0x9001);
    let samples: Vec<Vec<f32>> = (0..POOL)
        .map(|i| pool.batch(&[i]).0.data().to_vec())
        .collect();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut load_ms = Vec::with_capacity(SETUP_REPS);
    let mut last: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        if let Some(s) = last.take() {
            let _ = s.server.shutdown();
        }
        let t = Instant::now();
        let s = setup(&path, traced, &samples[0]);
        setups.push(t.elapsed().as_secs_f64());
        load_ms.push(ms(s.load_ns));
        last = Some(s);
    }
    let Setup { server, io, .. } = last.expect("at least one set-up");
    let _ = ledger::drain();

    // The stream.
    let total = WARMUP_REQUESTS + n;
    let mut rng = SplitMix64::new(seed ^ 0xA11_1CE);
    let offsets = arrivals(&mut rng, total, total as f64 / RATE_PER_S);
    #[allow(clippy::cast_possible_truncation)]
    let picks: Vec<usize> = (0..total)
        .map(|_| (rng.next_u64() % POOL as u64) as usize)
        .collect();
    let client = server.client();
    let (lanes, collectors): (Vec<_>, Vec<_>) = (0..WORKERS)
        .map(|_| {
            let (tx, rx) = mpsc::channel();
            (tx, std::thread::spawn(move || collector(rx)))
        })
        .unzip();
    let mut lag_ms = Vec::with_capacity(total);
    let mut refused = Vec::new();
    let mut admitted = 0usize;
    let epoch = now_ns() + 2_000_000;
    for (i, &off) in offsets.iter().enumerate() {
        let sched = epoch + off;
        let now = now_ns();
        if sched > now {
            std::thread::sleep(Duration::from_nanos(sched - now));
        }
        lag_ms.push(ms(now_ns().saturating_sub(sched)));
        match client.submit(samples[picks[i]].clone()) {
            Ok(p) => {
                lanes[admitted % WORKERS]
                    .send((i, sched, p))
                    .expect("collector alive");
                admitted += 1;
            }
            Err(_) => refused.push(i),
        }
    }
    drop(lanes);
    let mut replies: Vec<Vec<Reply>> = collectors
        .into_iter()
        .map(|h| h.join().expect("collector thread"))
        .collect();
    drop(client);
    let start = epoch + offsets[WARMUP_REQUESTS];
    let end = replies
        .iter()
        .flatten()
        .map(|r| r.at)
        .max()
        .unwrap_or(start);
    let wall_ns = end.saturating_sub(start);
    let (served_model, stats) = server.shutdown().expect("clean shutdown");
    let ledgers = ledger::drain();
    let rss = peak_rss_mib();

    // Output checks, outside the timed window: every reply must equal the
    // batch-1 forward of its input on an untraced copy of the model.
    let mut plain = load(&FsStorage, &path, false);
    let t = now_ns();
    let reference: Vec<Vec<u32>> = samples.iter().map(|s| forward_one(&mut plain, s)).collect();
    let plain_ns = now_ns() - t;
    let mut o = Outcome::default();
    let mut latency_ms = Vec::with_capacity(n);
    let timed = |i: usize| i >= WARMUP_REQUESTS;
    // Refused submissions are errors, and SLO misses when timed.
    let mut failed = refused.len() as u64;
    let mut misses = refused.iter().filter(|&&i| timed(i)).count() as u64;
    let (mut ready, mut bias_max) = (0usize, 0u64);
    for lane in &mut replies {
        lane.sort_by_key(|r| r.idx);
        let (mut prev_at, mut prev_bound) = (0u64, 0u64);
        for r in lane.iter() {
            let lat = ms(r.at - r.sched);
            let good = r.result.as_ref().is_ok_and(|p| {
                let bits: Vec<u32> = p.logits.iter().map(|v| v.to_bits()).collect();
                bits == reference[picks[r.idx]]
            });
            failed += u64::from(!good);
            if timed(r.idx) {
                latency_ms.push(lat);
                misses += u64::from(!good || lat > LIMIT_MS);
            }
            // A reply already queued when its wait began arrived no earlier
            // than its lane predecessor's (lane FIFO), whose own arrival is
            // known to within that predecessor's bound.
            let bound = if r.at - r.waited_from < READY_NS {
                ready += 1;
                r.at - r.sched.max(prev_at.saturating_sub(prev_bound))
            } else {
                0
            };
            bias_max = bias_max.max(bound);
            (prev_at, prev_bound) = (r.at, bound);
        }
    }
    o.attempted = total as u64;
    o.failed = failed;
    let miss_frac = misses as f64 / n as f64;
    let ok = n as u64 - misses.min(n as u64);

    let p50 = median(&latency_ms);
    let p90 = percentile(&latency_ms, 90.0);
    let p99 = percentile(&latency_ms, 99.0);
    let setup_s = median(&setups);
    let samples_per_s = ok as f64 / (wall_ns as f64 / 1e9);
    let failed_frac = o.failed as f64 / total as f64;
    o.e2e = vec![
        ("setup_s", setup_s),
        ("samples_per_s", samples_per_s),
        ("latency_ms_p50", p50),
        ("ok_frac", 1.0 - miss_frac),
    ];
    o.named = vec![
        ("setup_s", setup_s),
        ("serve_latency_ms_p50", p50),
        ("serve_latency_ms_p90", p90),
        ("serve_latency_ms_p99", p99),
        ("serve_slo_miss_frac", miss_frac),
        ("failed_frac", failed_frac),
        ("peak_rss_mib", rss),
    ];
    o.config = vec![
        ("engine", ENGINE.to_owned()),
        ("model", format!("resnet20 w{WIDTH} {SIZE}x{SIZE}")),
        ("rate_per_s", RATE_PER_S.to_string()),
        ("limit_ms", LIMIT_MS.to_string()),
        ("workers", WORKERS.to_string()),
        ("max_batch", MAX_BATCH.to_string()),
        ("requests", n.to_string()),
        ("warmup_requests", WARMUP_REQUESTS.to_string()),
        ("requests_beyond_p99", beyond(&latency_ms, 99.0).to_string()),
        ("fifo_bias_ms_max", ms(bias_max).to_string()),
    ];

    if traced {
        // The traced model must compute the untraced bits; its batch-1
        // time against the plain model's is the tracing overhead.
        let mut traced_model = served_model;
        let t = now_ns();
        let traced_out: Vec<Vec<u32>> = samples
            .iter()
            .map(|s| forward_one(&mut traced_model, s))
            .collect();
        let traced_ns = now_ns() - t;
        let _ = ledger::drain();
        o.attempted += POOL as u64;
        o.failed += traced_out
            .iter()
            .zip(&reference)
            .filter(|(a, b)| a != b)
            .count() as u64;
        let mut all = Ledger::default();
        for l in &ledgers {
            all.add(l);
        }
        let mut m = Vec::new();
        trace_metrics(&mut o, &mut m, &all, WORKERS as u64 * wall_ns);
        let lag_p99 = percentile(&lag_ms, 99.0);
        m.extend([
            ("io.load_ms".into(), median(&load_ms)),
            ("io.bytes_read".into(), io.bytes_read as f64),
            ("loadgen.lag_ms_p99".into(), lag_p99),
            ("loadgen.sent".into(), admitted as f64),
            (
                "loadgen.fifo_ready_frac".into(),
                ready as f64 / admitted.max(1) as f64,
            ),
            ("loadgen.fifo_bias_ms_max".into(), ms(bias_max)),
            (
                "trace.overhead_frac".into(),
                traced_ns as f64 / plain_ns as f64 - 1.0,
            ),
        ]);
        serve_stats(&mut m, &stats);
        crate::report::push_hwcost(&mut m);
        o.layers = m;
    }
    o
}

fn serve_stats(m: &mut Vec<(String, f64)>, s: &ServeStats) {
    let reqs = &s.worker_requests;
    let mean = reqs.iter().sum::<usize>() as f64 / reqs.len().max(1) as f64;
    let max = reqs.iter().copied().max().unwrap_or(0) as f64;
    m.extend([
        (
            "serve.queue_wait_ms_p50".into(),
            hist_ms(s.queue_wait.p50()),
        ),
        (
            "serve.queue_wait_ms_p99".into(),
            hist_ms(s.queue_wait.p99()),
        ),
        (
            "serve.batch_assembly_ms_p50".into(),
            hist_ms(s.batch_assembly.p50()),
        ),
        ("serve.inference_ms_p50".into(), hist_ms(s.inference.p50())),
        ("serve.inference_ms_p99".into(), hist_ms(s.inference.p99())),
        (
            "serve.mean_batch".into(),
            s.requests as f64 / s.batches.max(1) as f64,
        ),
        ("serve.shed".into(), s.shed as f64),
        ("serve.expired".into(), s.expired as f64),
        (
            "serve.worker_skew".into(),
            if mean > 0.0 { max / mean } else { 0.0 },
        ),
    ]);
}

/// The serve layer table, in worker time: every worker's share of the
/// stream splits into forward passes (layer rows and their GEMM rows)
/// and time outside any forward (idle, batch assembly, replies).
fn trace_metrics(o: &mut Outcome, m: &mut Vec<(String, f64)>, all: &Ledger, worker_ns: u64) {
    let batches = all.spans.max(1) as usize;
    let per = |ns: u64| ms(ns) / batches as f64;
    crate::report::push_gemm_metrics(m, all, batches as f64);
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (i, name) in LAYERS.iter().enumerate() {
        let f = all.self_ns(FWD, i);
        m.push((format!("layers.{name}.fwd_self_ms"), per(f)));
        m.push((format!("layers.{name}.bwd_self_ms"), 0.0));
        rows.push((format!("layers.{name}.fwd_self"), f));
    }
    for (r, role) in ROLES.iter().enumerate() {
        for (p, part) in ["pack_a", "pack_b", "accumulate"].iter().enumerate() {
            rows.push((format!("qgemm.{role}.{part}"), all.marked_ns[r][p]));
        }
    }
    rows.push((
        "serve.outside_forward".into(),
        worker_ns.saturating_sub(all.busy_ns),
    ));
    let fwd_self: u64 = (0..LAYERS.len()).map(|i| all.self_ns(FWD, i)).sum();
    let unattributed = crate::report::push_table(o, &rows, worker_ns, batches, "batch");
    m.extend([
        ("layers.fwd_self_ms".into(), per(fwd_self)),
        ("layers.bwd_self_ms".into(), 0.0),
        (
            "layers.unattributed_ms".into(),
            unattributed / batches as f64,
        ),
        (
            "trace.unattributed_frac".into(),
            unattributed / ms(worker_ns),
        ),
    ]);
}

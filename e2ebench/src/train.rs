//! The train workloads: ResNet-20 (w4, 12×12 synthetic CIFAR-10,
//! batch 32) stepped through the data-parallel `Trainer` with
//! `grad_shards = 2` pinned and `replicas = 2` on a 2-thread runtime.
//!
//! * `train_sr13`: the paper's `fp8_fp12_sr13` MAC, 1-thread engines.
//! * `train_f32_ckpt`: the exact f32 engine, with a keep-3 rotation save
//!   (`Trainer::checkpoint_now`) every [`CKPT_EVERY`] steps.
//!
//! A train "step" as timed here is what a training loop pays per
//! minibatch: batch assembly, `train_step`, and the save when one is due.
//! Losses are checked bit for bit against a reference run: at
//! `replicas = 1` untraced, with 2-thread engines (the replica- and
//! thread-invariance contracts), or, in a traced run, at the same replica
//! count untraced (tracing changes no bit). The reference is run after
//! the timed window and outside setup.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use srmac_io::{recover_latest, CheckpointMeta, FsStorage, RetryPolicy, Storage};
use srmac_models::{data, resnet, Dataset, TrainConfig, Trainer};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_rng::SplitMix64;
use srmac_tensor::layers::Layer;
use srmac_tensor::{
    F32Engine, GemmEngine, GemmRole, Numerics, RoleEngines, Runtime, Sequential, Tensor,
};

use crate::host::peak_rss_mib;
use crate::ledger::{self, now_ns, Ledger, BWD, FWD, ROLES};
use crate::report::{Outcome, LAYERS};
use crate::stats::{beyond, median, percentile};
use crate::wrap::{instrument, IoCounters, IoSnapshot, TimedGemm, TimedStorage};

/// Minibatch size.
pub const BATCH: usize = 32;
/// Training-set size (32 steps per epoch).
pub const TRAIN_N: usize = 1024;
/// ResNet-20 width.
pub const WIDTH: usize = 4;
/// Image side.
pub const SIZE: usize = 12;
/// Gradient shards (the numerics knob, pinned).
pub const SHARDS: usize = 2;
/// Replicas and runtime threads of the timed run.
pub const REPLICAS: usize = 2;
/// Steps between rotation saves on `train_f32_ckpt`: one step in five
/// saves, so the saving steps form the p90 tail.
pub const CKPT_EVERY: usize = 5;
/// Rotation depth.
pub const KEEP: usize = 3;
/// Fewest timed steps: leaves at least 10 steps beyond p90.
pub const MIN_STEPS: usize = 100;
/// Untimed steps before the timed window (allocations, caches, clocks).
pub const WARMUP_STEPS: usize = 5;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Blocks of consecutive timed steps whose throughputs give the median
/// `samples_per_s`.
pub const THROUGHPUT_BLOCKS: usize = 5;
const LR: f32 = 0.05;

/// Which train workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `train_sr13`.
    Sr13,
    /// `train_f32_ckpt`.
    F32Ckpt,
}

impl Kind {
    fn engine(self, threads: usize) -> Arc<dyn GemmEngine> {
        match self {
            Kind::Sr13 => {
                let cfg: MacGemmConfig = "fp8_fp12_sr13".parse().expect("engine atom");
                Arc::new(MacGemm::new(cfg.with_threads(threads)))
            }
            Kind::F32Ckpt => Arc::new(F32Engine::new(threads)),
        }
    }

    fn spec(self) -> &'static str {
        match self {
            Kind::Sr13 => "fp8_fp12_sr13",
            Kind::F32Ckpt => "f32",
        }
    }
}

/// Everything one training run needs.
pub struct Rig {
    model: Sequential,
    trainer: Trainer,
    data: Dataset,
    runtime: Arc<Runtime>,
    ckpt: Option<PathBuf>,
    /// Steps taken so far (drives the save cadence).
    steps: usize,
    /// Storage counters of a traced checkpointing rig.
    pub io: Option<Arc<IoCounters>>,
}

/// Numerics of the model: one engine for every role, each role behind
/// its own [`TimedGemm`] when traced.
pub fn numerics(engine: Arc<dyn GemmEngine>, traced: bool) -> Numerics {
    if traced {
        Numerics::per_role(RoleEngines::new(
            TimedGemm::wrap(Arc::clone(&engine), GemmRole::Forward),
            TimedGemm::wrap(Arc::clone(&engine), GemmRole::BackwardData),
            TimedGemm::wrap(engine, GemmRole::BackwardWeight),
        ))
    } else {
        Numerics::uniform(engine)
    }
}

/// Builds a rig: data, engines, model, trainer and (for the checkpoint
/// workload) its rotation under `ckpt_dir`. The [`REPLICAS`] cores go to
/// the replicas, or, with fewer replicas, into each product (engine
/// results do not depend on their thread count).
#[must_use]
pub fn build(kind: Kind, seed: u64, replicas: usize, traced: bool, ckpt_dir: Option<&Path>) -> Rig {
    let data = data::synth_cifar10(TRAIN_N, SIZE, seed);
    let engine = kind.engine(REPLICAS / replicas);
    let mut model = resnet::resnet20_with(&numerics(engine, traced), WIDTH, 10, seed ^ 0x5EED);
    if traced {
        let (timed, names) = instrument(&mut model);
        assert_eq!(names, LAYERS, "ResNet-20 has the catalogued children");
        model = timed;
    }
    let runtime = Arc::new(Runtime::new(replicas));
    let cfg = TrainConfig {
        batch_size: BATCH,
        replicas,
        grad_shards: SHARDS,
        seed,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&cfg).with_runtime(Arc::clone(&runtime));
    let mut io = None;
    let ckpt = ckpt_dir.map(|d| d.join("ckpt.srmc"));
    if let Some(path) = &ckpt {
        let storage: Arc<dyn Storage> = if traced {
            let t = TimedStorage::new(Arc::new(FsStorage));
            io = Some(Arc::clone(&t.counters));
            Arc::new(t)
        } else {
            Arc::new(FsStorage)
        };
        let meta = CheckpointMeta {
            arch: format!("resnet20-w{WIDTH}-c10"),
            engine: None,
            numerics: Some(kind.spec().to_owned()),
        };
        // The cadence is driven by the loop below (`checkpoint_now`), not
        // by `Trainer::run`.
        trainer = trainer
            .checkpoint_every(usize::MAX, path.clone(), meta)
            .with_keep(KEEP)
            .with_retry(RetryPolicy::none())
            .with_storage(storage);
    }
    Rig {
        model,
        trainer,
        data,
        runtime,
        ckpt,
        steps: 0,
        io,
    }
}

/// The seeded minibatch order: per-epoch Fisher-Yates shuffles.
pub struct Order {
    rng: SplitMix64,
    perm: Vec<usize>,
    pos: usize,
}

impl Order {
    /// The order of run `seed`.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::new(seed ^ 0x0DDE_5EED),
            perm: (0..TRAIN_N).collect(),
            pos: TRAIN_N,
        }
    }

    fn next_batch(&mut self) -> &[usize] {
        if self.pos + BATCH > TRAIN_N {
            for i in (1..TRAIN_N).rev() {
                #[allow(clippy::cast_possible_truncation)]
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.perm.swap(i, j);
            }
            self.pos = 0;
        }
        self.pos += BATCH;
        &self.perm[self.pos - BATCH..self.pos]
    }
}

/// When the loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this long and at least [`MIN_STEPS`] steps.
    Time(f64),
    /// After exactly this many steps.
    Steps(usize),
}

/// The critical-path account of a traced loop.
#[derive(Debug, Default)]
pub struct Trace {
    /// The slowest replica's ledger, summed over steps.
    pub critical: Ledger,
    /// Every thread's ledger, summed over steps.
    pub all: Ledger,
    /// Σ of the slowest replica's busy time.
    pub critical_ns: u64,
    /// Σ `train_step` wall time.
    pub step_ns: u64,
}

/// What a loop measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Loss bits per step.
    pub losses: Vec<u32>,
    /// Wall time per step (batch + train_step + save), ns.
    pub op_ns: Vec<u64>,
    /// Σ batch assembly, ns.
    pub batch_ns: u64,
    /// Σ save wall time, ns, and the saves made.
    pub save_ns: u64,
    /// Saves made.
    pub saves: u64,
    /// Saves that returned an error.
    pub save_errors: u64,
    /// Per-step ledger account (traced rigs).
    pub trace: Trace,
}

/// Runs training steps on `rig`, drawing minibatches from `order`,
/// until `stop`.
pub fn run(rig: &mut Rig, order: &mut Order, stop: Stop, traced: bool) -> Run {
    let mut x = Tensor::zeros(&[BATCH, 3, SIZE, SIZE]);
    let mut labels = Vec::with_capacity(BATCH);
    let mut out = Run::default();
    let start = Instant::now();
    loop {
        let steps = out.op_ns.len();
        let done = match stop {
            Stop::Time(s) => steps >= MIN_STEPS && start.elapsed().as_secs_f64() >= s,
            Stop::Steps(n) => steps >= n,
        };
        if done {
            break;
        }
        let t0 = now_ns();
        rig.data
            .batch_into(&rig.runtime, order.next_batch(), &mut x, &mut labels);
        let t1 = now_ns();
        let loss = rig.trainer.train_step(&mut rig.model, &x, &labels, LR);
        let t2 = now_ns();
        rig.steps += 1;
        if rig.ckpt.is_some() && rig.steps.is_multiple_of(CKPT_EVERY) {
            out.saves += 1;
            if rig.trainer.checkpoint_now(&mut rig.model).is_err() {
                out.save_errors += 1;
            }
        }
        let t3 = now_ns();
        out.losses.push(loss.to_bits());
        out.op_ns.push(t3 - t0);
        out.batch_ns += t1 - t0;
        out.save_ns += t3 - t2;
        if traced {
            let ledgers = ledger::drain();
            let tr = &mut out.trace;
            tr.step_ns += t2 - t1;
            if let Some(crit) = ledgers.iter().max_by_key(|l| l.busy_ns) {
                tr.critical_ns += crit.busy_ns;
                tr.critical.add(crit);
            }
            for l in &ledgers {
                tr.all.add(l);
            }
        }
    }
    out
}

/// Flattened parameter bits of a model.
fn param_bits(model: &mut Sequential) -> Vec<u32> {
    let mut out = Vec::new();
    model.visit_params(&mut |p| out.extend(p.value.data().iter().map(|v| v.to_bits())));
    model.visit_state(&mut |s| out.extend(s.iter().map(|v| v.to_bits())));
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Runs one train workload end to end.
pub fn workload(kind: Kind, seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let ckpt_dir = |tag: &str| {
        (kind == Kind::F32Ckpt).then(|| {
            let d = work.join(tag);
            std::fs::create_dir_all(&d).expect("work directory");
            d
        })
    };
    let main_dir = ckpt_dir("run");

    // Set-up, several times; the last rig is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut rig = None;
    for _ in 0..SETUP_REPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(build(kind, seed, REPLICAS, traced, main_dir.as_deref()));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let _ = ledger::drain();

    let mut order = Order::new(seed);
    let warm = run(&mut rig, &mut order, Stop::Steps(WARMUP_STEPS), traced);
    let take_io = |rig: &Rig| rig.io.as_ref().map(|c| c.take());
    let _ = take_io(&rig);
    let timed = run(&mut rig, &mut order, Stop::Time(seconds), traced);
    let rss = peak_rss_mib();
    let io = take_io(&rig);
    let steps = timed.op_ns.len();
    let mut o = Outcome::default();

    // Output checks, outside the timed window.
    let (ref_replicas, ref_dir) = if traced {
        (REPLICAS, ckpt_dir("reference"))
    } else {
        (1, None)
    };
    let mut reference = build(kind, seed, ref_replicas, false, ref_dir.as_deref());
    let ref_run = run(
        &mut reference,
        &mut Order::new(seed),
        Stop::Steps(WARMUP_STEPS + steps),
        false,
    );
    let losses = warm.losses.iter().chain(&timed.losses);
    let mismatched = losses.zip(&ref_run.losses).filter(|(a, b)| a != b).count();
    o.attempted += (WARMUP_STEPS + steps) as u64 + 1;
    o.failed += mismatched as u64 + timed.save_errors;
    if param_bits(&mut rig.model) != param_bits(&mut reference.model) {
        o.failed += 1;
    }
    if let Some(path) = &rig.ckpt {
        // The rotation head must restore the live weights exactly.
        o.attempted += 1;
        let restored = rig
            .trainer
            .checkpoint_now(&mut rig.model)
            .ok()
            .and_then(|_| {
                let rec = recover_latest(&FsStorage, path).ok()?;
                let mut fresh = build(kind, seed, 1, false, None).model;
                rec.checkpoint.apply_to(&mut fresh).ok()?;
                Some(param_bits(&mut fresh))
            });
        if restored != Some(param_bits(&mut rig.model)) {
            o.failed += 1;
        }
    }

    let op_ms: Vec<f64> = timed.op_ns.iter().map(|&n| ms(n)).collect();
    let wall_ns: u64 = timed.op_ns.iter().sum();
    let p50 = median(&op_ms);
    let p90 = percentile(&op_ms, 90.0);
    // The median over consecutive blocks of steps: a stall that slows one
    // block does not move it.
    let block = steps / THROUGHPUT_BLOCKS;
    let block_rates: Vec<f64> = timed
        .op_ns
        .chunks_exact(block)
        .map(|b| (b.len() * BATCH) as f64 / (b.iter().sum::<u64>() as f64 / 1e9))
        .collect();
    let samples_per_s = median(&block_rates);
    let setup_s = median(&setups);
    let failed_frac = o.failed as f64 / o.attempted as f64;
    o.e2e = vec![
        ("setup_s", setup_s),
        ("samples_per_s", samples_per_s),
        ("latency_ms_p50", p50),
        ("ok_frac", 1.0 - failed_frac),
    ];
    o.named = vec![
        ("setup_s", setup_s),
        ("train_samples_per_s", samples_per_s),
        ("train_step_ms_p50", p50),
        ("train_step_ms_p90", p90),
        ("failed_frac", failed_frac),
        ("peak_rss_mib", rss),
    ];
    o.config = vec![
        ("engine", kind.spec().to_owned()),
        (
            "model",
            format!("resnet20 w{WIDTH} {SIZE}x{SIZE} batch {BATCH}"),
        ),
        ("grad_shards", SHARDS.to_string()),
        ("replicas", REPLICAS.to_string()),
        ("reference_replicas", ref_replicas.to_string()),
        (
            "reference_gemm_threads",
            (REPLICAS / ref_replicas).to_string(),
        ),
        ("steps", steps.to_string()),
        ("warmup_steps", WARMUP_STEPS.to_string()),
        ("steps_beyond_p90", beyond(&op_ms, 90.0).to_string()),
        (
            "checkpoint_every",
            if rig.ckpt.is_some() {
                CKPT_EVERY.to_string()
            } else {
                "none".into()
            },
        ),
    ];
    if traced {
        let ref_wall: u64 = ref_run.op_ns[WARMUP_STEPS..].iter().sum();
        trace_metrics(&mut o, &timed, io, steps, wall_ns, ref_wall);
    }
    o
}

/// Per-layer metrics and the critical-path layer table of a traced run.
pub fn trace_metrics(
    o: &mut Outcome,
    t: &Run,
    io: Option<IoSnapshot>,
    steps: usize,
    wall_ns: u64,
    ref_wall_ns: u64,
) {
    let per = |ns: u64| ms(ns) / steps as f64;
    let tr = &t.trace;
    let mut m: Vec<(String, f64)> = Vec::new();
    crate::report::push_gemm_metrics(&mut m, &tr.all, steps as f64);
    let mut rows: Vec<(String, u64)> = Vec::new();
    for (i, name) in LAYERS.iter().enumerate() {
        let (f, b) = (tr.critical.self_ns(FWD, i), tr.critical.self_ns(BWD, i));
        m.push((format!("layers.{name}.fwd_self_ms"), per(f)));
        m.push((format!("layers.{name}.bwd_self_ms"), per(b)));
        rows.push((format!("layers.{name}.fwd_self"), f));
        rows.push((format!("layers.{name}.bwd_self"), b));
    }
    let fwd_self: u64 = (0..LAYERS.len()).map(|i| tr.critical.self_ns(FWD, i)).sum();
    let bwd_self: u64 = (0..LAYERS.len()).map(|i| tr.critical.self_ns(BWD, i)).sum();
    for (r, role) in ROLES.iter().enumerate() {
        for (p, part) in ["pack_a", "pack_b", "accumulate"].iter().enumerate() {
            rows.push((format!("qgemm.{role}.{part}"), tr.critical.marked_ns[r][p]));
        }
    }
    let outside = tr.step_ns.saturating_sub(tr.critical_ns);
    rows.push(("trainer.outside_model".into(), outside));
    rows.push(("data.batch".into(), t.batch_ns));
    rows.push(("io.save".into(), t.save_ns));
    let unattributed = crate::report::push_table(o, &rows, wall_ns, steps, "step");

    let step_ms = per(tr.step_ns);
    let busy = tr.all.busy_ns;
    m.extend([
        ("layers.fwd_self_ms".into(), per(fwd_self)),
        ("layers.bwd_self_ms".into(), per(bwd_self)),
        ("layers.unattributed_ms".into(), unattributed / steps as f64),
        ("trainer.step_ms".into(), step_ms),
        ("trainer.replica_busy_ms".into(), per(busy)),
        ("trainer.critical_path_ms".into(), per(tr.critical_ns)),
        ("trainer.outside_model_ms".into(), per(outside)),
        (
            "trainer.fanout_eff".into(),
            busy as f64 / (REPLICAS as f64 * tr.step_ns as f64),
        ),
        ("data.batch_ms".into(), per(t.batch_ns)),
        (
            "trace.overhead_frac".into(),
            wall_ns as f64 / ref_wall_ns as f64 - 1.0,
        ),
        ("trace.unattributed_frac".into(), unattributed / ms(wall_ns)),
    ]);
    if let Some(io) = io {
        // Save time not spent in storage calls: capture and encode.
        let saves = t.saves.max(1) as f64;
        let storage = io.write_ns + io.rename_ns + io.other_ns;
        m.extend([
            ("io.save_ms".into(), ms(t.save_ns) / saves),
            (
                "io.encode_ms".into(),
                ms(t.save_ns.saturating_sub(storage)) / saves,
            ),
            ("io.write_ms".into(), ms(io.write_ns) / saves),
            ("io.rename_ms".into(), ms(io.rename_ns) / saves),
            ("io.bytes_written".into(), io.bytes_written as f64 / saves),
        ]);
    }
    crate::report::push_hwcost(&mut m);
    o.layers = m;
}

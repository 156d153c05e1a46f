//! Self-tests of the wrappers: they must change no bit, forward every
//! trait method, and split a traced wall time without double counting.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use srmac_models::{data, resnet, TrainConfig, Trainer};
use srmac_qgemm::{MacGemm, MacGemmConfig};
use srmac_tensor::layers::{Layer, Param, Relu};
use srmac_tensor::{GemmEngine, GemmRole, Numerics, PackedOperand, Runtime, Sequential, Tensor};

use crate::ledger::{self, FWD};
use crate::report::{Outcome, LAYERS};
use crate::train::{self, Kind, Stop};
use crate::wrap::{instrument, TimedGemm, TimedLayer};

fn sr13() -> Arc<dyn GemmEngine> {
    let cfg: MacGemmConfig = "fp8_fp12_sr13".parse().expect("engine atom");
    Arc::new(MacGemm::new(cfg.with_threads(1)))
}

/// A deliberately incomplete wrapper: forwards everything but
/// `with_row_base`, the mistake the sharded-step test must catch.
struct NoRowBase(Arc<dyn GemmEngine>);

impl GemmEngine for NoRowBase {
    fn pack_a(&self, r: usize, c: usize, a: &[f32]) -> PackedOperand {
        self.0.pack_a(r, c, a)
    }
    fn pack_b(&self, r: usize, c: usize, b: &[f32]) -> PackedOperand {
        self.0.pack_b(r, c, b)
    }
    fn gemm_packed(
        &self,
        m: usize,
        k: usize,
        n: usize,
        a: &PackedOperand,
        b: &PackedOperand,
        out: &mut [f32],
    ) {
        self.0.gemm_packed(m, k, n, a, b, out);
    }
    fn name(&self) -> String {
        self.0.name()
    }
    fn position_invariant(&self) -> bool {
        self.0.position_invariant()
    }
}

/// Two SR13 steps sharded over two replicas; returns loss and weight bits.
fn sharded_steps(numerics: &Numerics, traced_layers: bool) -> Vec<u32> {
    let mut model = resnet::resnet20_with(numerics, 4, 10, 7);
    if traced_layers {
        model = instrument(&mut model).0;
    }
    let ds = data::synth_cifar10(16, 12, 3);
    let idx: Vec<usize> = (0..16).collect();
    let (x, labels) = ds.batch(&idx);
    let cfg = TrainConfig {
        batch_size: 16,
        replicas: 2,
        grad_shards: 2,
        ..TrainConfig::default()
    };
    let mut trainer = Trainer::new(&cfg).with_runtime(Arc::new(Runtime::new(2)));
    let mut bits = Vec::new();
    for _ in 0..2 {
        bits.push(trainer.train_step(&mut model, &x, &labels, 0.05).to_bits());
    }
    model.visit_params(&mut |p| bits.extend(p.value.data().iter().map(|v| v.to_bits())));
    bits
}

#[test]
fn timed_gemm_keeps_sharded_sr13_bits() {
    let _g = ledger::test_lock();
    let engine = sr13();
    let plain = sharded_steps(&Numerics::uniform(Arc::clone(&engine)), false);
    let timed = sharded_steps(&train::numerics(Arc::clone(&engine), true), true);
    assert_eq!(
        plain, timed,
        "tracing changed the bits of a sharded SR13 step"
    );
    let _ = ledger::drain();
    let broken = sharded_steps(&Numerics::uniform(Arc::new(NoRowBase(engine))), false);
    assert_ne!(
        plain, broken,
        "the test must notice a wrapper that drops with_row_base"
    );
}

#[test]
fn timed_gemm_forwards_the_engine_surface() {
    let _g = ledger::test_lock();
    let engine = sr13();
    let timed = TimedGemm::wrap(Arc::clone(&engine), GemmRole::BackwardData);
    assert_eq!(timed.name(), engine.name());
    assert_eq!(timed.spec(), engine.spec());
    assert_eq!(timed.position_invariant(), engine.position_invariant());
    assert_eq!(
        timed.benefits_from_packing(),
        engine.benefits_from_packing()
    );
    assert!(
        timed.with_row_base(3).is_some(),
        "SR engines derive row-offset engines"
    );
    assert!(timed.with_row_base(0).is_none());
    let (a, b): (Vec<f32>, Vec<f32>) = (
        (0..12).map(|i| i as f32 * 0.3).collect(),
        (0..20).map(|i| 1.0 - i as f32 * 0.1).collect(),
    );
    let (mut o1, mut o2) = (vec![0.0; 15], vec![0.0; 15]);
    engine.gemm(3, 4, 5, &a, &b, &mut o1);
    timed.gemm(3, 4, 5, &a, &b, &mut o2);
    assert_eq!(o1, o2);
}

/// Counts the calls a wrapper must forward.
#[derive(Default)]
struct Calls {
    params: AtomicUsize,
    state: AtomicUsize,
    engines: AtomicUsize,
    offset: AtomicUsize,
    warm: AtomicUsize,
}

struct Probe {
    inner: Relu,
    calls: Arc<Calls>,
    engine: Arc<dyn GemmEngine>,
}

impl Layer for Probe {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.inner.forward(x, train)
    }
    fn backward(&mut self, grad: &Tensor) -> Tensor {
        self.inner.backward(grad)
    }
    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {
        self.calls.params.fetch_add(1, Ordering::SeqCst);
    }
    fn visit_state(&mut self, _f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.calls.state.fetch_add(1, Ordering::SeqCst);
    }
    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        self.calls.engines.fetch_add(1, Ordering::SeqCst);
        f(GemmRole::Forward, &self.engine);
    }
    fn describe(&self) -> String {
        "Probe".into()
    }
    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        Some(Box::new(Probe {
            inner: Relu::new(),
            calls: Arc::clone(&self.calls),
            engine: Arc::clone(&self.engine),
        }))
    }
    fn set_batch_offset(&mut self, offset: usize) {
        self.calls.offset.fetch_add(offset, Ordering::SeqCst);
    }
    fn warm_weight_packs(&mut self) {
        self.calls.warm.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn timed_layer_forwards_every_layer_method() {
    let _g = ledger::test_lock();
    let calls = Arc::new(Calls::default());
    let probe = Probe {
        inner: Relu::new(),
        calls: Arc::clone(&calls),
        engine: sr13(),
    };
    let mut layer = TimedLayer::new(Box::new(probe), 0, 0);
    layer.visit_params(&mut |_| {});
    layer.visit_state(&mut |_| {});
    let mut seen = 0;
    layer.visit_role_engines(&mut |role, _| {
        assert_eq!(role, GemmRole::Forward);
        seen += 1;
    });
    layer.set_batch_offset(5);
    layer.warm_weight_packs();
    let mut clone = layer.clone_layer().expect("clonable");
    clone.set_batch_offset(2);
    assert_eq!(layer.describe(), "Probe");
    let get = |c: &AtomicUsize| c.load(Ordering::SeqCst);
    assert_eq!(seen, 1);
    assert_eq!(
        [
            get(&calls.params),
            get(&calls.state),
            get(&calls.engines),
            get(&calls.offset),
            get(&calls.warm)
        ],
        [1, 1, 1, 7, 1]
    );
}

#[test]
fn gemm_time_is_booked_to_the_enclosing_layer() {
    let _g = ledger::test_lock();
    let _ = ledger::drain();
    let engine = TimedGemm::wrap(sr13(), GemmRole::Forward);
    let mut model = resnet::resnet20_with(&Numerics::uniform(engine), 4, 10, 1);
    let (mut model, names) = instrument(&mut model);
    assert_eq!(names, LAYERS);
    let x = data::synth_cifar10(2, 12, 1).batch(&[0, 1]).0;
    model.forward(&x, false);
    let l = ledger::drain()
        .into_iter()
        .next()
        .expect("this thread recorded");
    assert_eq!(l.spans, 1, "one forward pass is one busy span");
    assert_eq!(l.gemm_unmarked_ns, 0, "every product ran inside a layer");
    assert!(
        l.gemm_in_layer_ns[FWD][0] > 0,
        "the stem conv owns its product"
    );
    assert_eq!(l.gemm_in_layer_ns[FWD][2], 0, "ReLU runs no product");
    let inclusive: u64 = l.layer_ns[FWD].iter().sum();
    assert!(inclusive <= l.busy_ns);
}

fn closes(kind: Kind) {
    let _g = ledger::test_lock();
    let dir =
        std::env::temp_dir().join(format!("e2ebench-selftest-{kind:?}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ckpt = (kind == Kind::F32Ckpt).then_some(dir.as_path());
    let mut rig = train::build(kind, 3, train::REPLICAS, true, ckpt);
    let _ = ledger::drain();
    let run = train::run(&mut rig, &mut train::Order::new(3), Stop::Steps(6), true);
    let wall: u64 = run.op_ns.iter().sum();
    let mut o = Outcome::default();
    train::trace_metrics(
        &mut o,
        &run,
        rig.io.as_ref().map(|c| c.take()),
        6,
        wall,
        wall,
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        (o.attempted, o.failed),
        (1, 0),
        "table does not close:\n{}",
        o.table
    );
    let un = o
        .layers
        .iter()
        .find(|m| m.0 == "trace.unattributed_frac")
        .expect("closure row")
        .1;
    assert!(
        (-0.005..0.25).contains(&un),
        "unattributed share {un}:\n{}",
        o.table
    );
}

#[test]
fn train_sr13_layer_table_closes() {
    closes(Kind::Sr13);
}

#[test]
fn train_f32_ckpt_layer_table_closes() {
    closes(Kind::F32Ckpt);
}

#[test]
fn serve_layer_table_closes_and_replies_match() {
    let _g = ledger::test_lock();
    let dir = std::env::temp_dir().join(format!("e2ebench-selftest-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let o = crate::serve::run(5, 40, true, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(o.failed, 0, "serve checks failed:\n{}", o.table);
    assert!(o.attempted > 40);
    let un = o
        .layers
        .iter()
        .find(|m| m.0 == "trace.unattributed_frac")
        .expect("closure row")
        .1;
    assert!(un > -0.005, "unattributed share {un}:\n{}", o.table);
}

#[test]
fn instrumenting_keeps_the_model_shape() {
    let _g = ledger::test_lock();
    let mut model: Sequential = resnet::resnet20(&sr13(), 4, 10, 1);
    let (mut timed, _) = instrument(&mut model);
    assert_eq!(timed.len(), model.len());
    assert_eq!(timed.param_count(), model.param_count());
}

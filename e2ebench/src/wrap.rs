//! Outside-in timing wrappers around the stack's public trait objects:
//! [`TimedGemm`] around a `GemmEngine`, [`TimedLayer`] around a `Layer`,
//! [`TimedStorage`] around a `Storage`. Each forwards every trait method
//! to the wrapped object and only adds clock reads, so a traced run
//! computes the same bits as an untraced one.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use srmac_io::Storage;
use srmac_tensor::layers::{Layer, Param};
use srmac_tensor::{GemmEngine, GemmRole, PackedOperand, Sequential, Tensor};

use crate::ledger::{
    enter, mark, now_ns, with_ledger, ACCUMULATE, BWD, FWD, MAX_LAYERS, PACK_A, PACK_B,
};

/// Index of `role` in [`crate::ledger::ROLES`].
#[must_use]
pub fn role_index(role: GemmRole) -> usize {
    match role {
        GemmRole::Forward => 0,
        GemmRole::BackwardData => 1,
        GemmRole::BackwardWeight => 2,
    }
}

/// A `GemmEngine` that times the engine it wraps, per role.
pub struct TimedGemm {
    inner: Arc<dyn GemmEngine>,
    role: usize,
}

impl TimedGemm {
    /// Wraps `inner`, booking its time under `role`.
    #[must_use]
    pub fn wrap(inner: Arc<dyn GemmEngine>, role: GemmRole) -> Arc<dyn GemmEngine> {
        Arc::new(Self {
            inner,
            role: role_index(role),
        })
    }

    fn book(&self, part: usize, ns: u64, macs: Option<u64>) {
        with_ledger(|l| {
            let r = &mut l.roles[self.role];
            r.ns[part] += ns;
            if part == PACK_B {
                r.pack_b_calls += 1;
            }
            if let Some(m) = macs {
                r.calls += 1;
                r.macs += m;
            }
            match mark() {
                Some((phase, layer)) => {
                    l.gemm_in_layer_ns[phase][layer] += ns;
                    l.marked_ns[self.role][part] += ns;
                }
                None => l.gemm_unmarked_ns += ns,
            }
        });
    }
}

fn macs(m: usize, k: usize, n: usize) -> u64 {
    (m as u64) * (k as u64) * (n as u64)
}

impl GemmEngine for TimedGemm {
    fn pack_a(&self, rows: usize, cols: usize, a: &[f32]) -> PackedOperand {
        let t = now_ns();
        let p = self.inner.pack_a(rows, cols, a);
        self.book(PACK_A, now_ns() - t, None);
        p
    }

    fn pack_b(&self, rows: usize, cols: usize, b: &[f32]) -> PackedOperand {
        let t = now_ns();
        let p = self.inner.pack_b(rows, cols, b);
        self.book(PACK_B, now_ns() - t, None);
        p
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
        let t = now_ns();
        self.inner.gemm_packed(m, k, n, a, b, out);
        self.book(ACCUMULATE, now_ns() - t, Some(macs(m, k, n)));
    }

    // An engine that packs is split into its timed phases; by the trait
    // contract `gemm_packed` is bitwise identical to `gemm`. An engine
    // whose packing is a plain copy keeps its own one-shot path.
    fn gemm(&self, m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
        if self.inner.benefits_from_packing() {
            let pa = self.pack_a(m, k, a);
            let pb = self.pack_b(k, n, b);
            self.gemm_packed(m, k, n, &pa, &pb, out);
        } else {
            let t = now_ns();
            self.inner.gemm(m, k, n, a, b, out);
            self.book(ACCUMULATE, now_ns() - t, Some(macs(m, k, n)));
        }
    }

    fn benefits_from_packing(&self) -> bool {
        self.inner.benefits_from_packing()
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn spec(&self) -> Option<String> {
        self.inner.spec()
    }

    fn position_invariant(&self) -> bool {
        self.inner.position_invariant()
    }

    // The derived engine is wrapped too, so a replica's row-offset engine
    // is timed under the same role.
    fn with_row_base(&self, first_row: usize) -> Option<Arc<dyn GemmEngine>> {
        self.inner.with_row_base(first_row).map(|inner| {
            Arc::new(Self {
                inner,
                role: self.role,
            }) as Arc<dyn GemmEngine>
        })
    }
}

/// A `Layer` that times the top-level child it wraps and marks its calls
/// so GEMM time is booked to it.
pub struct TimedLayer {
    inner: Box<dyn Layer>,
    idx: usize,
    last: usize,
}

impl TimedLayer {
    /// Wraps child `idx` of a model whose last child is `last`.
    ///
    /// # Panics
    ///
    /// Panics if `idx > last` or `last >= MAX_LAYERS`.
    #[must_use]
    pub fn new(inner: Box<dyn Layer>, idx: usize, last: usize) -> Self {
        assert!(idx <= last && last < MAX_LAYERS, "layer index out of range");
        Self { inner, idx, last }
    }

    fn run<T>(&mut self, phase: usize, f: impl FnOnce(&mut dyn Layer) -> T) -> (T, u64) {
        let t0 = now_ns();
        let out = {
            let _mark = enter(phase, self.idx);
            f(self.inner.as_mut())
        };
        let t1 = now_ns();
        with_ledger(|l| l.layer_ns[phase][self.idx] += t1 - t0);
        (out, t1)
    }
}

fn close_span(end: u64) {
    with_ledger(|l| {
        if let Some(start) = l.open_span.take() {
            l.busy_ns += end.saturating_sub(start);
            l.spans += 1;
        }
    });
}

impl Layer for TimedLayer {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        if self.idx == 0 {
            let t = now_ns();
            with_ledger(|l| l.open_span = Some(t));
        }
        let (y, end) = self.run(FWD, |l| l.forward(x, train));
        if !train && self.idx == self.last {
            close_span(end);
        }
        y
    }

    fn backward(&mut self, grad: &Tensor) -> Tensor {
        let (g, end) = self.run(BWD, |l| l.backward(grad));
        if self.idx == 0 {
            close_span(end);
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        self.inner.visit_params(f);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        self.inner.visit_state(f);
    }

    fn visit_role_engines(&mut self, f: &mut dyn FnMut(GemmRole, &Arc<dyn GemmEngine>)) {
        self.inner.visit_role_engines(f);
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn clone_layer(&self) -> Option<Box<dyn Layer>> {
        let inner = self.inner.clone_layer()?;
        Some(Box::new(Self {
            inner,
            idx: self.idx,
            last: self.last,
        }))
    }

    fn set_batch_offset(&mut self, offset: usize) {
        self.inner.set_batch_offset(offset);
    }

    fn warm_weight_packs(&mut self) {
        self.inner.warm_weight_packs();
    }
}

/// Short kind tag of a layer from its description (`conv`, `bn`, …).
#[must_use]
pub fn kind_of(describe: &str) -> &'static str {
    const KINDS: [(&str, &str); 6] = [
        ("Conv2d", "conv"),
        ("BatchNorm2d", "bn"),
        ("ReLU", "relu"),
        ("Residual", "block"),
        ("GlobalAvgPool", "gap"),
        ("Linear", "fc"),
    ];
    KINDS
        .iter()
        .find(|(p, _)| describe.starts_with(p))
        .map_or("layer", |(_, k)| k)
}

/// Rebuilds `model` with every top-level child wrapped in a
/// [`TimedLayer`] (children are CoW clones, so the original can be
/// dropped), and returns it with the row names `NN_kind`.
///
/// # Panics
///
/// Panics if a child cannot be cloned or the model has more than
/// [`MAX_LAYERS`] children.
#[must_use]
pub fn instrument(model: &mut Sequential) -> (Sequential, Vec<String>) {
    let mut children = Vec::new();
    model.for_each_layer(&mut |l| children.push((l.clone_layer(), l.describe())));
    let last = children.len().saturating_sub(1);
    let mut out = Sequential::new();
    let mut names = Vec::new();
    for (i, (child, desc)) in children.into_iter().enumerate() {
        let child = child.expect("every ResNet-20 child supports clone_layer");
        out.push_boxed(Box::new(TimedLayer::new(child, i, last)));
        names.push(format!("{i:02}_{}", kind_of(&desc)));
    }
    (out, names)
}

/// Byte and time counters of a [`TimedStorage`].
#[derive(Debug, Default)]
pub struct IoCounters {
    /// Nanoseconds in `write`.
    pub write_ns: AtomicU64,
    /// Bytes handed to `write`.
    pub bytes_written: AtomicU64,
    /// Nanoseconds in `rename`.
    pub rename_ns: AtomicU64,
    /// Bytes returned by `read`.
    pub bytes_read: AtomicU64,
    /// Nanoseconds in `remove` and `exists`.
    pub other_ns: AtomicU64,
}

/// The counts an [`IoCounters`] gathered since it was last taken.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSnapshot {
    /// See [`IoCounters::write_ns`].
    pub write_ns: u64,
    /// See [`IoCounters::bytes_written`].
    pub bytes_written: u64,
    /// See [`IoCounters::rename_ns`].
    pub rename_ns: u64,
    /// See [`IoCounters::bytes_read`].
    pub bytes_read: u64,
    /// See [`IoCounters::other_ns`].
    pub other_ns: u64,
}

impl IoCounters {
    /// Reads and zeroes the counters.
    pub fn take(&self) -> IoSnapshot {
        let take = |c: &AtomicU64| c.swap(0, Ordering::Relaxed);
        IoSnapshot {
            write_ns: take(&self.write_ns),
            bytes_written: take(&self.bytes_written),
            rename_ns: take(&self.rename_ns),
            bytes_read: take(&self.bytes_read),
            other_ns: take(&self.other_ns),
        }
    }
}

/// A `Storage` that times the storage it wraps.
#[derive(Debug)]
pub struct TimedStorage {
    inner: Arc<dyn Storage>,
    /// Shared counters.
    pub counters: Arc<IoCounters>,
}

impl TimedStorage {
    /// Wraps `inner`.
    #[must_use]
    pub fn new(inner: Arc<dyn Storage>) -> Self {
        Self {
            inner,
            counters: Arc::default(),
        }
    }
}

fn timed<T>(ns: &AtomicU64, f: impl FnOnce() -> T) -> T {
    let t = now_ns();
    let out = f();
    ns.fetch_add(now_ns() - t, Ordering::Relaxed);
    out
}

impl Storage for TimedStorage {
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        timed(&c.write_ns, || self.inner.write(path, bytes))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        timed(&self.counters.rename_ns, || self.inner.rename(from, to))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let out = self.inner.read(path)?;
        self.counters
            .bytes_read
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(out)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        timed(&self.counters.other_ns, || self.inner.remove(path))
    }

    fn exists(&self, path: &Path) -> bool {
        timed(&self.counters.other_ns, || self.inner.exists(path))
    }
}

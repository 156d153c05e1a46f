//! Per-thread time ledgers and the thread-local layer marker.
//!
//! Every wrapper in [`crate::wrap`] records into the ledger of the thread
//! it runs on. A replica's forward/backward runs on one thread, so a
//! thread's ledger is that replica's (or that serve worker's) account:
//! which top-level layer ran how long, which GEMM calls ran inside which
//! layer, and how long the replica was busy. The benchmark loop drains
//! every ledger after each step (or once after a serve stream) and turns them
//! into the critical-path layer table.
//!
//! The marker is how GEMM time finds its layer: [`crate::wrap::TimedLayer`]
//! sets it around the inner call, [`crate::wrap::TimedGemm`] reads it.

use std::cell::Cell;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// Most top-level children a traced model may have.
pub const MAX_LAYERS: usize = 16;

/// Forward and backward.
pub const PHASES: usize = 2;
/// Phase index of a forward call.
pub const FWD: usize = 0;
/// Phase index of a backward call.
pub const BWD: usize = 1;

/// GEMM roles, in `GemmRole::ALL` order.
pub const ROLES: [&str; 3] = ["fwd", "dgrad", "wgrad"];

/// The parts of one GEMM role's time.
pub const PACK_A: usize = 0;
/// See [`PACK_A`].
pub const PACK_B: usize = 1;
/// See [`PACK_A`]: the product proper (`gemm_packed`, or a forwarded
/// one-shot `gemm` of an engine that does not pack).
pub const ACCUMULATE: usize = 2;

/// Counters of one GEMM role.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoleCounts {
    /// Products computed (`gemm_packed` plus one-shot `gemm`).
    pub calls: u64,
    /// Σ m·k·n over those products.
    pub macs: u64,
    /// `pack_b` calls.
    pub pack_b_calls: u64,
    /// Nanoseconds in pack A, pack B and accumulate.
    pub ns: [u64; 3],
}

impl RoleCounts {
    fn add(&mut self, o: &RoleCounts) {
        self.calls += o.calls;
        self.macs += o.macs;
        self.pack_b_calls += o.pack_b_calls;
        for (a, b) in self.ns.iter_mut().zip(o.ns) {
            *a += b;
        }
    }
}

/// One thread's account since the last drain.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Inclusive wall time of each top-level layer, per phase.
    pub layer_ns: [[u64; MAX_LAYERS]; PHASES],
    /// GEMM time that ran inside each layer call, per phase.
    pub gemm_in_layer_ns: [[u64; MAX_LAYERS]; PHASES],
    /// GEMM time with no layer marker set.
    pub gemm_unmarked_ns: u64,
    /// GEMM time inside a marked layer call, per role and part (the
    /// layer table's GEMM rows).
    pub marked_ns: [[u64; 3]; 3],
    /// Per-role GEMM counters.
    pub roles: [RoleCounts; 3],
    /// Busy spans: first layer's forward entry to the end of the pass
    /// (first layer's backward exit when training, last layer's forward
    /// exit otherwise).
    pub busy_ns: u64,
    /// Number of busy spans (replica passes or served batches).
    pub spans: u64,
    /// Start of the open busy span, as nanoseconds since the trace epoch.
    pub open_span: Option<u64>,
}

impl Ledger {
    /// True when nothing was recorded.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        *self == Ledger::default()
    }

    /// Adds `o` into `self` (open spans are not carried).
    pub fn add(&mut self, o: &Ledger) {
        for p in 0..PHASES {
            for l in 0..MAX_LAYERS {
                self.layer_ns[p][l] += o.layer_ns[p][l];
                self.gemm_in_layer_ns[p][l] += o.gemm_in_layer_ns[p][l];
            }
        }
        self.gemm_unmarked_ns += o.gemm_unmarked_ns;
        for (a, b) in self.marked_ns.iter_mut().zip(&o.marked_ns) {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        }
        for (a, b) in self.roles.iter_mut().zip(&o.roles) {
            a.add(b);
        }
        self.busy_ns += o.busy_ns;
        self.spans += o.spans;
    }

    /// Layer time net of the GEMM time inside it, per phase and layer.
    #[must_use]
    pub fn self_ns(&self, phase: usize, layer: usize) -> u64 {
        self.layer_ns[phase][layer].saturating_sub(self.gemm_in_layer_ns[phase][layer])
    }
}

/// Nanoseconds since the first call in this process (monotonic).
#[must_use]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let e = EPOCH.get_or_init(Instant::now);
    u64::try_from(e.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

type Shared = Arc<Mutex<Ledger>>;

fn lock(l: &Mutex<Ledger>) -> MutexGuard<'_, Ledger> {
    // A panicking replica poisons nothing worth losing: keep the counts.
    l.lock().unwrap_or_else(PoisonError::into_inner)
}

fn registry() -> &'static Mutex<Vec<Shared>> {
    static REG: OnceLock<Mutex<Vec<Shared>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static MINE: Shared = {
        let l: Shared = Arc::default();
        registry()
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(Arc::clone(&l));
        l
    };
    static MARK: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Runs `f` on this thread's ledger.
pub fn with_ledger<R>(f: impl FnOnce(&mut Ledger) -> R) -> R {
    MINE.with(|l| f(&mut lock(l)))
}

/// Takes every thread's ledger that recorded anything, leaving them
/// empty (open busy spans stay open).
#[must_use]
pub fn drain() -> Vec<Ledger> {
    let reg = registry().lock().unwrap_or_else(PoisonError::into_inner);
    let mut out = Vec::new();
    for l in reg.iter() {
        let mut g = lock(l);
        if g.is_idle() {
            continue;
        }
        let open = g.open_span;
        let taken = std::mem::take(&mut *g);
        g.open_span = open;
        out.push(taken);
    }
    out
}

/// The `(phase, layer)` whose call is running on this thread, if any.
#[must_use]
pub fn mark() -> Option<(usize, usize)> {
    MARK.with(Cell::get)
}

/// Sets the marker to `(phase, layer)` until the guard drops.
#[must_use]
pub fn enter(phase: usize, layer: usize) -> MarkGuard {
    MarkGuard(MARK.with(|m| m.replace(Some((phase, layer)))))
}

/// Restores the previous marker on drop.
#[derive(Debug)]
pub struct MarkGuard(Option<(usize, usize)>);

impl Drop for MarkGuard {
    fn drop(&mut self) {
        MARK.with(|m| m.set(self.0));
    }
}

/// Serializes tests that read the process-wide ledgers.
#[cfg(test)]
pub fn test_lock() -> MutexGuard<'static, ()> {
    static L: Mutex<()> = Mutex::new(());
    L.lock().unwrap_or_else(PoisonError::into_inner)
}

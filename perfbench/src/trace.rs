//! Spans recorded from outside the program: the benchmark wraps its own
//! calls into each layer (`SolverService::{submit,step}`, the drivers'
//! `solve`) and, through [`TimedBackend`], every `Backend::execute_batch`
//! and `ScalarBackend` kernel call.
//!
//! Spans nest strictly (every workload drives one thread and the
//! default backend runs kernels on the calling thread), so a stack of
//! open spans gives each span its parent, and a span's self time is its
//! duration minus the durations of its direct children. Aggregates are
//! kept online; individual spans are kept in memory up to
//! [`SPAN_CAP`] and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Most spans kept individually per run (aggregates stay exact past it).
pub const SPAN_CAP: usize = 1 << 20;

/// One recorded span. Simulated times are `NaN` where the span's code
/// cannot see the simulated clock (kernel and batch spans run below
/// `GpuContext`).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Index of the enclosing span, `u32::MAX` at top level.
    pub parent: u32,
    /// Request id (service spans) or pool slot (solve spans); 0 below.
    pub request: u64,
    pub host_start: f64,
    pub host_end: f64,
    pub sim_start: f64,
    pub sim_end: f64,
}

/// Per-name totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Agg {
    pub calls: u64,
    /// Inclusive host seconds.
    pub host_s: f64,
    /// Host seconds not covered by direct children.
    pub self_s: f64,
    /// Bytes computed from operand sizes (kernel spans only).
    pub bytes: u64,
}

struct Open {
    index: u32,
    name: &'static str,
    start: f64,
    bytes: u64,
    child_s: f64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    agg: BTreeMap<&'static str, Agg>,
    /// Host durations of every closed span, by name (for percentiles of
    /// the service spans); only names in `keep_durations`.
    durations: BTreeMap<&'static str, Vec<f64>>,
    batches: u64,
    batch_ops: u64,
}

/// The span recorder shared by the harness and [`TimedBackend`].
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

/// Span names whose individual durations are kept for percentiles.
const KEEP_DURATIONS: [&str; 2] = ["service.submit", "service.step"];

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer poisoned by a panicking span")
    }

    /// Open a span; close it with [`Tracer::exit`].
    pub fn enter(&self, name: &'static str, request: u64, sim: f64, bytes: u64) {
        let start = self.now();
        let mut st = self.lock();
        let parent = st.stack.last().map_or(u32::MAX, |o| o.index);
        let index = if st.spans.len() < SPAN_CAP {
            st.spans.push(Span {
                name,
                parent,
                request,
                host_start: start,
                host_end: f64::NAN,
                sim_start: sim,
                sim_end: f64::NAN,
            });
            (st.spans.len() - 1) as u32
        } else {
            st.dropped += 1;
            u32::MAX
        };
        st.stack.push(Open {
            index,
            name,
            start,
            bytes,
            child_s: 0.0,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&self, sim: f64) {
        let end = self.now();
        let mut st = self.lock();
        let open = st.stack.pop().expect("span exit without enter");
        let dur = end - open.start;
        if let Some(parent) = st.stack.last_mut() {
            parent.child_s += dur;
        }
        if let Some(span) = st.spans.get_mut(open.index as usize) {
            span.host_end = end;
            span.sim_end = sim;
        }
        let a = st.agg.entry(open.name).or_default();
        a.calls += 1;
        a.host_s += dur;
        a.self_s += dur - open.child_s;
        a.bytes += open.bytes;
        if KEEP_DURATIONS.contains(&open.name) {
            st.durations.entry(open.name).or_default().push(dur);
        }
    }

    /// Forget everything recorded so far (set-up work), keeping the
    /// clock origin.
    pub fn clear(&self) {
        let mut st = self.lock();
        assert!(st.stack.is_empty(), "clear with open spans");
        *st = State::default();
    }

    fn note_batch(&self, ops: usize) {
        let mut st = self.lock();
        st.batches += 1;
        st.batch_ops += ops as u64;
    }

    /// Aggregates by span name.
    pub fn aggregates(&self) -> BTreeMap<&'static str, Agg> {
        self.lock().agg.clone()
    }

    /// Individual host durations of a kept span name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.lock().durations.get(name).cloned().unwrap_or_default()
    }

    /// `(execute_batch calls, ops across them)`.
    pub fn batch_counts(&self) -> (u64, u64) {
        let st = self.lock();
        (st.batches, st.batch_ops)
    }

    /// `(spans kept, spans dropped past the cap)`.
    pub fn span_counts(&self) -> (usize, u64) {
        let st = self.lock();
        (st.spans.len(), st.dropped)
    }

    /// Every kept span as CSV (`index,name,parent,request,host_start,
    /// host_end,sim_start,sim_end`; seconds, empty for unknown).
    pub fn spans_csv(&self) -> String {
        let st = self.lock();
        let mut out = String::with_capacity(64 * st.spans.len() + 64);
        out.push_str("index,name,parent,request,host_start,host_end,sim_start,sim_end\n");
        let num = |v: f64| {
            if v.is_finite() {
                format!("{v:.9}")
            } else {
                String::new()
            }
        };
        for (i, s) in st.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX {
                String::new()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i},{},{parent},{},{},{},{},{}",
                s.name,
                s.request,
                num(s.host_start),
                num(s.host_end),
                num(s.sim_start),
                num(s.sim_end)
            );
        }
        out
    }
}

pub use backend::TimedBackend;

mod backend {
    use std::sync::Arc;

    use mpgmres_backend::stream::Batch;
    use mpgmres_backend::{Backend, BackendScalar, ScalarBackend};
    use mpgmres_la::basis::BasisStore;
    use mpgmres_la::csr::Csr;
    use mpgmres_la::multivec::MultiVec;
    use mpgmres_la::multivector::MultiVector;
    use mpgmres_la::store::MatrixStore;
    use mpgmres_la::vec_ops::ReductionOrder;
    use mpgmres_scalar::{Half, Scalar};

    use super::Tracer;

    /// A timing decorator over the default backend: every
    /// `ScalarBackend` method (defaulted ones included) is forwarded to
    /// the wrapped backend inside a `kernel.<family>` span carrying its
    /// bytes computed from operand sizes, and every `execute_batch` is a
    /// `stream.execute_batch` span.
    ///
    /// Batches run serially in record order through the decorator, so
    /// their ops reach the timed kernel methods. That is exactly what a
    /// one-thread backend's `execute_batch` does, which is why the
    /// wrapped backend must report `parallelism() == 1`.
    #[derive(Debug)]
    pub struct TimedBackend {
        inner: Arc<dyn Backend>,
        tracer: Arc<Tracer>,
    }

    impl std::fmt::Debug for Tracer {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.write_str("Tracer")
        }
    }

    impl TimedBackend {
        pub fn new(inner: Arc<dyn Backend>, tracer: Arc<Tracer>) -> Self {
            assert_eq!(
                inner.parallelism(),
                1,
                "TimedBackend serializes batches; wrap a one-thread backend"
            );
            TimedBackend { inner, tracer }
        }

        #[inline]
        fn timed<R>(&self, name: &'static str, bytes: usize, f: impl FnOnce() -> R) -> R {
            self.tracer.enter(name, 0, f64::NAN, bytes as u64);
            let r = f();
            self.tracer.exit(f64::NAN);
            r
        }
    }

    // Bytes one call moves, from operand sizes: every operand element
    // read or written once, CSR structure as `usize` row pointers plus
    // `u32` column indices.
    fn csr_bytes<S: Scalar>(a: &Csr<S>) -> usize {
        a.nnz() * (S::BYTES + 4) + (a.nrows() + 1) * 8
    }
    fn store_bytes<S: Scalar>(a: &MatrixStore<S>) -> usize {
        a.value_bytes() + a.nnz() * 4 + (a.nrows() + 1) * 8
    }
    fn gemv_bytes<S: Scalar>(n: usize, ncols: usize, elem: usize, vec_passes: usize) -> usize {
        ncols * n * elem + vec_passes * n * S::BYTES + ncols * S::BYTES
    }
    fn lanes_len<S>(srcs: &[&[S]]) -> usize {
        srcs.iter().map(|s| s.len()).sum()
    }

    macro_rules! timed_scalar_backend {
        ($($t:ty),*) => {$(
        impl ScalarBackend<$t> for TimedBackend {
            fn spmv(&self, a: &Csr<$t>, x: &[$t], y: &mut [$t]) {
                let b = csr_bytes(a) + (x.len() + y.len()) * <$t>::BYTES;
                self.timed("kernel.spmv", b, || <$t>::view(&*self.inner).spmv(a, x, y))
            }
            fn residual(&self, a: &Csr<$t>, b: &[$t], x: &[$t], r: &mut [$t]) {
                let by = csr_bytes(a) + (b.len() + x.len() + r.len()) * <$t>::BYTES;
                self.timed("kernel.residual", by, || {
                    <$t>::view(&*self.inner).residual(a, b, x, r)
                })
            }
            fn gemv_t(&self, v: &MultiVector<$t>, ncols: usize, w: &[$t], h: &mut [$t], order: ReductionOrder) {
                let b = gemv_bytes::<$t>(v.n(), ncols, <$t>::BYTES, 1);
                self.timed("kernel.gemv_t", b, || {
                    <$t>::view(&*self.inner).gemv_t(v, ncols, w, h, order)
                })
            }
            fn gemv_n_sub(&self, v: &MultiVector<$t>, ncols: usize, h: &[$t], w: &mut [$t]) {
                let b = gemv_bytes::<$t>(v.n(), ncols, <$t>::BYTES, 2);
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).gemv_n_sub(v, ncols, h, w)
                })
            }
            fn gemv_n_add(&self, v: &MultiVector<$t>, ncols: usize, h: &[$t], y: &mut [$t]) {
                let b = gemv_bytes::<$t>(v.n(), ncols, <$t>::BYTES, 2);
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).gemv_n_add(v, ncols, h, y)
                })
            }
            fn dot(&self, x: &[$t], y: &[$t], order: ReductionOrder) -> $t {
                let b = (x.len() + y.len()) * <$t>::BYTES;
                self.timed("kernel.dot", b, || <$t>::view(&*self.inner).dot(x, y, order))
            }
            fn norm2(&self, x: &[$t], order: ReductionOrder) -> $t {
                let b = x.len() * <$t>::BYTES;
                self.timed("kernel.norm", b, || <$t>::view(&*self.inner).norm2(x, order))
            }
            fn axpy(&self, alpha: $t, x: &[$t], y: &mut [$t]) {
                let b = (x.len() + 2 * y.len()) * <$t>::BYTES;
                self.timed("kernel.axpy_scal_copy", b, || {
                    <$t>::view(&*self.inner).axpy(alpha, x, y)
                })
            }
            fn scal(&self, alpha: $t, x: &mut [$t]) {
                let b = 2 * x.len() * <$t>::BYTES;
                self.timed("kernel.axpy_scal_copy", b, || <$t>::view(&*self.inner).scal(alpha, x))
            }
            fn copy(&self, src: &[$t], dst: &mut [$t]) {
                let b = (src.len() + dst.len()) * <$t>::BYTES;
                self.timed("kernel.axpy_scal_copy", b, || <$t>::view(&*self.inner).copy(src, dst))
            }
            fn spmm(&self, a: &Csr<$t>, x: &MultiVec<$t>, k: usize, y: &mut MultiVec<$t>) {
                let b = csr_bytes(a) + k * (a.ncols() + a.nrows()) * <$t>::BYTES;
                self.timed("kernel.spmm", b, || <$t>::view(&*self.inner).spmm(a, x, k, y))
            }
            fn block_gemv_t(&self, vs: &[&MultiVector<$t>], ncols: usize, w: &MultiVec<$t>, h: &mut [$t], order: ReductionOrder) {
                let b = vs.iter().map(|v| gemv_bytes::<$t>(v.n(), ncols, <$t>::BYTES, 1)).sum();
                self.timed("kernel.gemv_t", b, || {
                    <$t>::view(&*self.inner).block_gemv_t(vs, ncols, w, h, order)
                })
            }
            fn block_gemv_n_sub(&self, vs: &[&MultiVector<$t>], ncols: usize, h: &[$t], w: &mut MultiVec<$t>) {
                let b = vs.iter().map(|v| gemv_bytes::<$t>(v.n(), ncols, <$t>::BYTES, 2)).sum();
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).block_gemv_n_sub(vs, ncols, h, w)
                })
            }
            fn block_gemv_n_add(&self, vs: &[&MultiVector<$t>], ncols: usize, h: &[$t], y: &mut MultiVec<$t>) {
                let b = vs.iter().map(|v| gemv_bytes::<$t>(v.n(), ncols, <$t>::BYTES, 2)).sum();
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).block_gemv_n_add(vs, ncols, h, y)
                })
            }
            fn block_dot(&self, x: &MultiVec<$t>, y: &MultiVec<$t>, k: usize, out: &mut [$t], order: ReductionOrder) {
                let b = 2 * k * x.n() * <$t>::BYTES;
                self.timed("kernel.dot", b, || {
                    <$t>::view(&*self.inner).block_dot(x, y, k, out, order)
                })
            }
            fn block_norm2(&self, x: &MultiVec<$t>, k: usize, out: &mut [$t], order: ReductionOrder) {
                let b = k * x.n() * <$t>::BYTES;
                self.timed("kernel.norm", b, || {
                    <$t>::view(&*self.inner).block_norm2(x, k, out, order)
                })
            }
            fn block_axpy(&self, alpha: &[$t], x: &MultiVec<$t>, k: usize, y: &mut MultiVec<$t>) {
                let b = 3 * k * x.n() * <$t>::BYTES;
                self.timed("kernel.axpy_scal_copy", b, || {
                    <$t>::view(&*self.inner).block_axpy(alpha, x, k, y)
                })
            }
            fn block_scal(&self, alpha: &[$t], x: &mut MultiVec<$t>, k: usize) {
                let b = 2 * k * x.n() * <$t>::BYTES;
                self.timed("kernel.axpy_scal_copy", b, || {
                    <$t>::view(&*self.inner).block_scal(alpha, x, k)
                })
            }
            fn block_copy(&self, src: &MultiVec<$t>, k: usize, dst: &mut MultiVec<$t>) {
                let b = 2 * k * src.n() * <$t>::BYTES;
                self.timed("kernel.axpy_scal_copy", b, || {
                    <$t>::view(&*self.inner).block_copy(src, k, dst)
                })
            }
            fn store_spmv(&self, a: &MatrixStore<$t>, x: &[$t], y: &mut [$t]) {
                let b = store_bytes(a) + (x.len() + y.len()) * <$t>::BYTES;
                self.timed("kernel.store_spmv", b, || {
                    <$t>::view(&*self.inner).store_spmv(a, x, y)
                })
            }
            fn store_residual(&self, a: &MatrixStore<$t>, b: &[$t], x: &[$t], r: &mut [$t]) {
                let by = store_bytes(a) + (b.len() + x.len() + r.len()) * <$t>::BYTES;
                self.timed("kernel.residual", by, || {
                    <$t>::view(&*self.inner).store_residual(a, b, x, r)
                })
            }
            fn store_spmm(&self, a: &MatrixStore<$t>, x: &MultiVec<$t>, k: usize, y: &mut MultiVec<$t>) {
                let b = store_bytes(a) + k * (a.ncols() + a.nrows()) * <$t>::BYTES;
                self.timed("kernel.spmm", b, || <$t>::view(&*self.inner).store_spmm(a, x, k, y))
            }
            fn lane_copy(&self, srcs: &[&[$t]], dsts: &mut [&mut [$t]]) {
                let b = 2 * lanes_len(srcs) * <$t>::BYTES;
                self.timed("kernel.lane", b, || <$t>::view(&*self.inner).lane_copy(srcs, dsts))
            }
            fn lane_scal_copy(&self, alpha: &[$t], srcs: &[&[$t]], dsts: &mut [&mut [$t]]) {
                let b = 2 * lanes_len(srcs) * <$t>::BYTES;
                self.timed("kernel.lane", b, || {
                    <$t>::view(&*self.inner).lane_scal_copy(alpha, srcs, dsts)
                })
            }
            fn basis_gemv_t(&self, v: &BasisStore<$t>, ncols: usize, w: &[$t], h: &mut [$t], order: ReductionOrder) {
                let b = gemv_bytes::<$t>(v.n(), ncols, v.elem_bytes(), 1);
                self.timed("kernel.gemv_t", b, || {
                    <$t>::view(&*self.inner).basis_gemv_t(v, ncols, w, h, order)
                })
            }
            fn basis_gemv_n_sub(&self, v: &BasisStore<$t>, ncols: usize, h: &[$t], w: &mut [$t]) {
                let b = gemv_bytes::<$t>(v.n(), ncols, v.elem_bytes(), 2);
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).basis_gemv_n_sub(v, ncols, h, w)
                })
            }
            fn basis_gemv_n_add(&self, v: &BasisStore<$t>, ncols: usize, h: &[$t], y: &mut [$t]) {
                let b = gemv_bytes::<$t>(v.n(), ncols, v.elem_bytes(), 2);
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).basis_gemv_n_add(v, ncols, h, y)
                })
            }
            fn basis_append(&self, v: &mut BasisStore<$t>, j: usize, src: &[$t]) {
                let b = src.len() * (<$t>::BYTES + v.elem_bytes());
                self.timed("kernel.basis", b, || {
                    <$t>::view(&*self.inner).basis_append(v, j, src)
                })
            }
            fn basis_scal_copy(&self, v: &mut BasisStore<$t>, j: usize, alpha: $t, src: &[$t]) {
                let b = src.len() * (<$t>::BYTES + v.elem_bytes());
                self.timed("kernel.basis", b, || {
                    <$t>::view(&*self.inner).basis_scal_copy(v, j, alpha, src)
                })
            }
            fn basis_promote_col(&self, v: &BasisStore<$t>, j: usize, out: &mut [$t]) {
                let b = out.len() * (<$t>::BYTES + v.elem_bytes());
                self.timed("kernel.basis", b, || {
                    <$t>::view(&*self.inner).basis_promote_col(v, j, out)
                })
            }
            fn basis_block_gemv_t(&self, vs: &[&BasisStore<$t>], ncols: usize, w: &MultiVec<$t>, h: &mut [$t], order: ReductionOrder) {
                let b = vs.iter().map(|v| gemv_bytes::<$t>(v.n(), ncols, v.elem_bytes(), 1)).sum();
                self.timed("kernel.gemv_t", b, || {
                    <$t>::view(&*self.inner).basis_block_gemv_t(vs, ncols, w, h, order)
                })
            }
            fn basis_block_gemv_n_sub(&self, vs: &[&BasisStore<$t>], ncols: usize, h: &[$t], w: &mut MultiVec<$t>) {
                let b = vs.iter().map(|v| gemv_bytes::<$t>(v.n(), ncols, v.elem_bytes(), 2)).sum();
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).basis_block_gemv_n_sub(vs, ncols, h, w)
                })
            }
            fn basis_block_gemv_n_add(&self, vs: &[&BasisStore<$t>], ncols: usize, h: &[$t], y: &mut MultiVec<$t>) {
                let b = vs.iter().map(|v| gemv_bytes::<$t>(v.n(), ncols, v.elem_bytes(), 2)).sum();
                self.timed("kernel.gemv_n", b, || {
                    <$t>::view(&*self.inner).basis_block_gemv_n_add(vs, ncols, h, y)
                })
            }
            fn basis_lane_copy(&self, vs: &mut [&mut BasisStore<$t>], j: usize, srcs: &[&[$t]]) {
                let b = vs.iter().zip(srcs).map(|(v, s)| s.len() * (<$t>::BYTES + v.elem_bytes())).sum();
                self.timed("kernel.basis", b, || {
                    <$t>::view(&*self.inner).basis_lane_copy(vs, j, srcs)
                })
            }
            fn basis_lane_scal_copy(&self, vs: &mut [&mut BasisStore<$t>], j: usize, alpha: &[$t], srcs: &[&[$t]]) {
                let b = vs.iter().zip(srcs).map(|(v, s)| s.len() * (<$t>::BYTES + v.elem_bytes())).sum();
                self.timed("kernel.basis", b, || {
                    <$t>::view(&*self.inner).basis_lane_scal_copy(vs, j, alpha, srcs)
                })
            }
        }
        )*};
    }
    timed_scalar_backend!(f64, f32, Half);

    impl Backend for TimedBackend {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn parallelism(&self) -> usize {
            self.inner.parallelism()
        }
        fn shard_count(&self) -> usize {
            self.inner.shard_count()
        }
        fn execute_batch(&self, batch: Batch<'_>) {
            self.tracer.note_batch(batch.len());
            self.timed("stream.execute_batch", 0, || batch.run_serial(self))
        }
    }
}

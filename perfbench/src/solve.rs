//! The two single-solve workloads, `laplace64` and `implicit3000`: a
//! seeded pool of right-hand sides, each solved by fp64 GMRES(m) and by
//! GMRES-IR(m) (fp32 inner, fp64 outer) until the run's seconds are
//! spent, every answer refereed.

use std::sync::Arc;
use std::time::Instant;

use mpgmres::prelude::*;
use mpgmres_bench::experiments::serving::{quantile, traffic};
use mpgmres_gpusim::PaperCategory;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::{galeri, suitesparse};

use crate::layers::{self, LayerInputs, SetupTimes, SolveTotals};
use crate::trace::{TimedBackend, Tracer};
use crate::{bits_hash, device_for, machine, quartiles, Options, Referee, Report, Workload};

/// Shape of one single-solve workload.
struct Spec {
    nx: usize,
    /// Diagonal shift of the implicit time-step operator (integer, so
    /// every value is exact in fp32 and fp16).
    shift: Option<f64>,
    m: usize,
    rtol: f64,
    pool: usize,
    ir_store: StorePath,
    /// Warm-up solves capped at one restart cycle fill the graph cache
    /// during set-up. Skipped where one cycle costs more than the whole
    /// recording it would save (bandwidth-bound `implicit3000`).
    warmup: bool,
    setup_reps: usize,
}

fn spec(opts: &Options) -> Spec {
    match opts.workload {
        Workload::Laplace64 => Spec {
            nx: if opts.tiny { 12 } else { 64 },
            shift: None,
            m: 30,
            rtol: 1e-10,
            pool: 2,
            ir_store: StorePath::Native,
            warmup: true,
            setup_reps: 5,
        },
        Workload::Implicit3000 => Spec {
            nx: if opts.tiny { 40 } else { 3000 },
            shift: Some(64.0),
            m: 10,
            rtol: 1e-10,
            pool: 1,
            ir_store: StorePath::Shadow(Precision::Fp32),
            warmup: false,
            // One set-up: each costs ~10 s, and a run must fit the budget.
            setup_reps: 1,
        },
        Workload::ServeOpen => unreachable!("serve_open is not a single-solve workload"),
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Fp64,
    Ir,
}

/// One timed, refereed solve.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SolveRec {
    pub kind: Kind,
    pub slot: usize,
    pub wall: f64,
    pub sim: f64,
    pub critical: f64,
    pub iters: usize,
    pub restarts: usize,
    pub hash: u64,
    pub cats: [f64; 5],
}

/// The drivers over one operand.
pub(crate) struct Drivers<'a> {
    pub a: &'a GpuMatrix<f64>,
    pub gmres: Gmres<'a, f64>,
    pub ir: GmresIr<'a, f32, f64>,
    pub rtol: f64,
}

impl Drivers<'_> {
    /// Solve `b` once with `kind`, refereed; spans around the driver's
    /// `solve` when traced.
    pub fn solve(
        &self,
        ctx: &mut GpuContext,
        kind: Kind,
        slot: usize,
        b: &[f64],
        referee: &mut Referee,
        tracer: Option<&Tracer>,
    ) -> SolveRec {
        let mut x = vec![0.0f64; b.len()];
        ctx.reset_profile();
        if let Some(t) = tracer {
            t.enter("driver.solve", slot as u64, 0.0, 0);
        }
        let t0 = Instant::now();
        let r = match kind {
            Kind::Fp64 => self.gmres.solve(ctx, b, &mut x),
            Kind::Ir => self.ir.solve(ctx, b, &mut x),
        };
        let wall = t0.elapsed().as_secs_f64();
        if let Some(t) = tracer {
            t.exit(ctx.elapsed());
        }
        referee.check(self.a.csr(), b, &x, Some(r.status), self.rtol);
        let rep = ctx.report();
        SolveRec {
            kind,
            slot,
            wall,
            sim: ctx.elapsed(),
            critical: ctx.critical_elapsed(),
            iters: r.iterations,
            restarts: r.restarts,
            hash: bits_hash(&x),
            cats: PaperCategory::ALL.map(|c| rep.seconds(c)),
        }
    }

    /// Passes over the pool (fp64 then IR per rhs) until `seconds` are
    /// spent, at least one pass.
    pub fn measure(
        &self,
        ctx: &mut GpuContext,
        rhs: &[Vec<f64>],
        seconds: f64,
        referee: &mut Referee,
        tracer: Option<&Tracer>,
    ) -> Vec<SolveRec> {
        let t0 = Instant::now();
        let mut recs = Vec::new();
        loop {
            for (slot, b) in rhs.iter().enumerate() {
                for kind in [Kind::Fp64, Kind::Ir] {
                    recs.push(self.solve(ctx, kind, slot, b, referee, tracer));
                }
            }
            if t0.elapsed().as_secs_f64() >= seconds {
                return recs;
            }
        }
    }
}

/// The default backend, one thread per kernel, GPU-like reductions.
pub(crate) fn plain_ctx(n: usize) -> GpuContext {
    GpuContext::new(device_for(n))
}

/// The same context with the timing decorator in front of the default
/// backend.
pub(crate) fn traced_ctx(n: usize, tracer: &Arc<Tracer>) -> GpuContext {
    let backend = Arc::new(TimedBackend::new(
        BackendKind::default().create(),
        Arc::clone(tracer),
    ));
    GpuContext::with_backend(device_for(n), ReductionOrder::GPU_LIKE, backend)
}

/// One SpMV per matrix store (fp64 plain, fp32 and fp16 shadows),
/// repeated until each timing covers enough bytes to resolve; returns
/// `[(host s, sim s) per call]` in that order.
pub(crate) fn spmv_per_store(
    ctx: &mut GpuContext,
    a: &GpuMatrix<f64>,
    shadows: &[GpuStore<f64>; 2],
) -> [(f64, f64); 3] {
    let n = a.n();
    let reps = (200_000_000 / (12 * a.nnz()).max(1)).clamp(1, 20_000);
    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut y = vec![0.0f64; n];
    let mut time = |ctx: &mut GpuContext, f: &mut dyn FnMut(&mut GpuContext, &mut [f64])| {
        ctx.reset_profile();
        let t = Instant::now();
        for _ in 0..reps {
            f(ctx, &mut y);
        }
        let host = t.elapsed().as_secs_f64() / reps as f64;
        (host, ctx.elapsed() / reps as f64)
    };
    [
        time(ctx, &mut |c, y| c.spmv(a, &x, y)),
        time(ctx, &mut |c, y| c.store_spmv(&shadows[0], &x, y)),
        time(ctx, &mut |c, y| c.store_spmv(&shadows[1], &x, y)),
    ]
}

/// Run `laplace64` or `implicit3000`.
pub fn run(opts: &Options) -> Report {
    let sp = spec(opts);
    let mut report = Report {
        parity: true,
        ..Report::default()
    };
    report.referee.corrupt_next = opts.corrupt;
    let triad = machine::provenance(
        &mut report,
        BackendKind::default().create().name(),
        opts.trace,
    );

    let mut setups = Vec::new();
    for rep in 0..sp.setup_reps {
        let t0 = Instant::now();
        let base = galeri::laplace2d(sp.nx, sp.nx);
        let csr = match sp.shift {
            Some(s) => suitesparse::shift_diagonal(base, s),
            None => base,
        };
        let a = GpuMatrix::new(csr);
        let matgen = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let shadows = [
            GpuStore::shadow_of(&a, Precision::Fp32),
            GpuStore::shadow_of(&a, Precision::Fp16),
        ];
        let gcfg = GmresConfig::default()
            .with_m(sp.m)
            .with_rtol(sp.rtol)
            .with_max_iters(200_000);
        let icfg = IrConfig::default()
            .with_m(sp.m)
            .with_rtol(sp.rtol)
            .with_max_iters(200_000)
            .with_store(sp.ir_store);
        let drivers = Drivers {
            a: &a,
            gmres: Gmres::new(&a, &Identity, gcfg),
            ir: GmresIr::new(&a, &Identity, icfg),
            rtol: sp.rtol,
        };
        let store = t1.elapsed().as_secs_f64();

        let rhs = traffic(opts.input_seed(), a.n(), sp.pool);
        let t2 = Instant::now();
        let warm = |ctx: &mut GpuContext| {
            if sp.warmup {
                let mut x = vec![0.0f64; a.n()];
                Gmres::new(&a, &Identity, gcfg.with_max_iters(sp.m)).solve(ctx, &rhs[0], &mut x);
                x.fill(0.0);
                GmresIr::<f32, f64>::new(&a, &Identity, icfg.with_max_iters(sp.m))
                    .solve(ctx, &rhs[0], &mut x);
            }
        };
        let mut ctx = plain_ctx(a.n());
        warm(&mut ctx);
        let warmup = t2.elapsed().as_secs_f64();
        setups.push(SetupTimes {
            total: t0.elapsed().as_secs_f64(),
            matgen,
            store,
            warmup,
        });
        if rep + 1 < sp.setup_reps {
            continue;
        }

        report.line(format!(
            "workload {}: n = {}, nnz = {}, GMRES({}) and GMRES-IR({}) fp32 inner / fp64 outer, \
             IR store {}, rtol {:e}, {} seeded rhs, {} set-ups",
            opts.workload.name(),
            a.n(),
            a.nnz(),
            sp.m,
            sp.m,
            sp.ir_store.label(),
            sp.rtol,
            sp.pool,
            sp.setup_reps
        ));
        let budget = if opts.trace {
            opts.seconds / 2.0
        } else {
            opts.seconds
        };
        let recs = drivers.measure(&mut ctx, &rhs, budget, &mut report.referee, None);
        if !opts.trace {
            end_to_end(&mut report, &recs, &setups);
            return report;
        }

        let tracer = Arc::new(Tracer::new());
        let mut tctx = traced_ctx(a.n(), &tracer);
        warm(&mut tctx);
        tracer.clear();
        let stream0 = tctx.stream_stats();
        let traced = drivers.measure(&mut tctx, &rhs, budget, &mut report.referee, Some(&tracer));
        let stream1 = tctx.stream_stats();
        let spmv = spmv_per_store(&mut ctx, &a, &shadows);
        report.parity = check_parity(&mut report, &recs, &traced);
        layers::emit(
            &mut report,
            &LayerInputs {
                tracer: &tracer,
                triad_gbs: triad,
                stream: (stream0, stream1),
                solves: SolveTotals::of(&recs, &traced),
                spmv,
                service: None,
                setups: &setups,
            },
        );
        if let Some(path) = &opts.spans_out {
            layers::write_spans(&mut report, &tracer, path);
        }
        return report;
    }
    unreachable!("setup_reps >= 1")
}

/// Whether every traced solve reproduced its untraced twin bit for bit
/// (solution hash and iteration count); prints the verdict.
pub(crate) fn check_parity(
    report: &mut Report,
    untraced: &[SolveRec],
    traced: &[SolveRec],
) -> bool {
    let mut checked = 0;
    let mut ok = true;
    for t in traced {
        if let Some(u) = untraced
            .iter()
            .find(|u| u.kind == t.kind && u.slot == t.slot)
        {
            checked += 1;
            ok &= u.hash == t.hash && u.iters == t.iters;
        }
    }
    report.line(format!(
        "parity: {checked} traced solves vs untraced: solution bits and iterations {}",
        if ok { "identical" } else { "DIFFER" }
    ));
    ok && checked > 0
}

/// Means over the pool's first pass (exact per seed).
pub(crate) fn pool_mean(recs: &[SolveRec], kind: Kind, f: impl Fn(&SolveRec) -> f64) -> f64 {
    let slots = recs.iter().map(|r| r.slot).max().map_or(0, |m| m + 1);
    let firsts: Vec<f64> = (0..slots)
        .filter_map(|s| recs.iter().find(|r| r.kind == kind && r.slot == s))
        .map(f)
        .collect();
    firsts.iter().sum::<f64>() / firsts.len().max(1) as f64
}

/// The end-to-end metrics of a single-solve workload (see README).
fn end_to_end(report: &mut Report, recs: &[SolveRec], setups: &[SetupTimes]) {
    for (kind, tag) in [(Kind::Fp64, "fp64"), (Kind::Ir, "ir")] {
        let walls: Vec<f64> = recs
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.wall)
            .collect();
        let (q1, med, q3) = quartiles(&walls);
        report.e2e(
            &format!("wall_s.{tag}"),
            med,
            "s",
            format!("q1 {q1:.4} q3 {q3:.4}, {} solves", walls.len()),
        );
    }
    for (kind, tag) in [(Kind::Fp64, "fp64"), (Kind::Ir, "ir")] {
        report.e2e(
            &format!("sim_s.{tag}"),
            pool_mean(recs, kind, |r| r.sim),
            "sim_s",
            "simulated V100, mean over the rhs pool".into(),
        );
    }
    for (kind, tag) in [(Kind::Fp64, "fp64"), (Kind::Ir, "ir")] {
        report.e2e(
            &format!("iters.{tag}"),
            pool_mean(recs, kind, |r| r.iters as f64),
            "count",
            "mean over the rhs pool".into(),
        );
    }
    let mut walls: Vec<f64> = recs.iter().map(|r| r.wall).collect();
    walls.sort_by(f64::total_cmp);
    let note = format!("over {} back-to-back solves", walls.len());
    report.e2e("latency_p50_s", quantile(&walls, 0.5), "s", note.clone());
    report.e2e("latency_p99_s", quantile(&walls, 0.99), "s", note.clone());
    report.e2e(
        "slo_rate_rps",
        walls.len() as f64 / walls.iter().sum::<f64>(),
        "1/s",
        format!("verified solves per host second, {note}"),
    );
    let mut sims: Vec<f64> = recs.iter().map(|r| r.sim).collect();
    sims.sort_by(f64::total_cmp);
    report.e2e(
        "sim_latency_p99_s",
        quantile(&sims, 0.99),
        "sim_s",
        "simulated per-solve seconds".into(),
    );
    layers::common_end_to_end(report, setups);
}

//! Restarted GMRES(m) with two-pass classical Gram-Schmidt (Algorithm 1).
//!
//! Matches the paper's solver protocol:
//! - CGS2 orthogonalization: two projection passes, each one GEMV-Trans
//!   and one GEMV-NoTrans (§III-A) — these four calls per iteration are
//!   the dominant bars of Figure 4.
//! - Right preconditioning `A M^{-1}`, so residuals match the
//!   unpreconditioned problem in exact arithmetic (§III-D).
//! - Implicit residual from the Givens recurrence monitored every
//!   iteration; explicit residual recomputed at each restart.
//! - Belos-style "loss of accuracy" detection when the two disagree
//!   (§V-F).

use crate::block_gmres::BlockGmres;
use crate::config::{GmresConfig, OrthoMethod, StorePath};
use crate::context::{GpuContext, GpuMatrix};
use crate::precond::Preconditioner;
use crate::service::{
    Disposition, Operator, RequestId, SolveError, SolveOutcome, SolveRequest, Solver,
};
use crate::status::{HistoryKind, HistoryPoint, SolveResult, SolveStatus};
use mpgmres_backend::BackendScalar;
use mpgmres_la::givens::GivensLsq;

/// Restarted GMRES(m) in a single working precision `S`.
pub struct Gmres<'a, S: BackendScalar> {
    a: &'a GpuMatrix<S>,
    precond: &'a dyn Preconditioner<S>,
    cfg: GmresConfig,
}

impl<'a, S: BackendScalar> Solver<'a, S> for Gmres<'a, S> {
    /// Serve one [`SolveRequest`]. A plain native-path matrix operand
    /// runs this single-RHS driver directly; packed-storage requests
    /// route through the one-lane block driver, whose columns are
    /// bit-identical to this driver by the block parity contract — the
    /// outcome does not depend on the route.
    fn serve(
        ctx: &mut GpuContext,
        req: &SolveRequest<'a, '_, S>,
    ) -> Result<SolveOutcome<S>, SolveError> {
        req.validate()?;
        match (req.operator, req.store) {
            (Operator::Matrix(a), StorePath::Native) => {
                let solver = Self::try_new(a, req.precond, req.config)?;
                let n = a.n();
                let mut x = req
                    .x0
                    .map(|x| x.to_vec())
                    .unwrap_or_else(|| vec![S::zero(); n]);
                let start = ctx.elapsed();
                let result = solver.solve(ctx, req.rhs, &mut x);
                Ok(SolveOutcome {
                    id: RequestId(0),
                    x,
                    result: Some(result),
                    disposition: Disposition::Completed,
                    degraded: None,
                    queued_seconds: 0.0,
                    solve_seconds: ctx.elapsed() - start,
                })
            }
            _ => BlockGmres::serve(ctx, req),
        }
    }
}

impl<'a, S: BackendScalar> Gmres<'a, S> {
    /// Build a solver for `A x = b` with a right preconditioner.
    /// Panics on an invalid configuration; see [`Gmres::try_new`] for
    /// the typed-error variant.
    pub fn new(a: &'a GpuMatrix<S>, precond: &'a dyn Preconditioner<S>, cfg: GmresConfig) -> Self {
        Self::try_new(a, precond, cfg).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Gmres::new`] with the configuration checked into a typed
    /// [`SolveError`] instead of a panic.
    pub fn try_new(
        a: &'a GpuMatrix<S>,
        precond: &'a dyn Preconditioner<S>,
        cfg: GmresConfig,
    ) -> Result<Self, SolveError> {
        cfg.validate()?;
        Ok(Gmres { a, precond, cfg })
    }

    /// The configuration in use.
    pub fn config(&self) -> &GmresConfig {
        &self.cfg
    }

    /// Solve `A x = b` starting from the initial guess in `x`; the
    /// solution is written back into `x`.
    pub fn solve(&self, ctx: &mut GpuContext, b: &[S], x: &mut [S]) -> SolveResult {
        let n = self.a.n();
        // The request surface reports these as SolveError::DimensionMismatch;
        // callers reaching the raw driver keep the debug-build guard.
        debug_assert_eq!(b.len(), n, "rhs length mismatch");
        debug_assert_eq!(x.len(), n, "solution length mismatch");
        let m = self.cfg.m;

        let mut history: Vec<HistoryPoint> = Vec::new();
        // Basis storage path: Native is the classic full-width
        // MultiVector (bit-identical to the pre-BasisStore driver);
        // Compressed stores columns narrow and promotes on read.
        let mut v = self.cfg.basis.store::<S>(n, m + 1);
        // Scratch for promoting a compressed basis column before the
        // SpMV (a native basis borrows the column in place).
        let mut vj = vec![S::zero(); if v.is_native() { 0 } else { n }];
        let mut r = vec![S::zero(); n];
        let mut w = vec![S::zero(); n];
        let mut z = vec![S::zero(); n];
        let mut u = vec![S::zero(); n];
        let mut h1 = vec![S::zero(); m];
        let mut h2 = vec![S::zero(); m];
        let mut hcol = vec![S::zero(); m + 2];

        // Initial residual r0 = b - A x0 and reference norm (paper
        // normalizes by ||r0||; with the standard x0 = 0 this is ||b||).
        ctx.residual_as(mpgmres_gpusim::KernelClass::SpMV, self.a, b, x, &mut r);
        let mut gamma = ctx.norm2(&r);
        let r0_norm = gamma.to_f64();
        if !r0_norm.is_finite() {
            return SolveResult {
                status: SolveStatus::Breakdown,
                iterations: 0,
                restarts: 0,
                final_relative_residual: f64::NAN,
                history,
            };
        }
        if r0_norm == 0.0 {
            return SolveResult {
                status: SolveStatus::Converged,
                iterations: 0,
                restarts: 0,
                final_relative_residual: 0.0,
                history,
            };
        }
        let scale = r0_norm;
        let mut total_iters = 0usize;
        let mut restarts = 0usize;
        if self.cfg.record_history {
            history.push(HistoryPoint {
                iteration: 0,
                relative_residual: 1.0,
                kind: HistoryKind::Explicit,
            });
        }
        if self.cfg.rtol >= 1.0 {
            return SolveResult {
                status: SolveStatus::Converged,
                iterations: 0,
                restarts: 0,
                final_relative_residual: 1.0,
                history,
            };
        }

        let mut status: Option<SolveStatus> = None;
        let mut final_rel = 1.0f64;

        'outer: loop {
            if total_iters >= self.cfg.max_iters {
                status = Some(SolveStatus::MaxIters);
                break;
            }

            // Start a cycle: v1 = r / gamma.
            let inv_gamma = S::from_f64(1.0 / gamma.to_f64());
            ctx.basis_scal_copy(&mut v, 0, inv_gamma, &r);
            let mut lsq = GivensLsq::new(m, gamma);
            let mut j = 0usize;
            let mut implicit_claims_convergence = false;
            let mut lucky = false;

            while j < m && total_iters < self.cfg.max_iters {
                // Direction for w = A M^{-1} v_j (preconditioner
                // applications stay eager — they run their own kernels).
                // A native basis lends the column in place — the exact
                // pre-BasisStore path; a compressed basis promotes the
                // narrow column into scratch first (a charged cast).
                let dir: &[S] = match v.as_native() {
                    Some(nv) if self.precond.is_identity() => nv.col(j),
                    Some(nv) => {
                        self.precond.apply(ctx, Some(self.a), nv.col(j), &mut z);
                        &z
                    }
                    None => {
                        ctx.basis_promote_col(&v, j, &mut vj);
                        if self.precond.is_identity() {
                            &vj
                        } else {
                            self.precond.apply(ctx, Some(self.a), &vj, &mut z);
                            &z
                        }
                    }
                };

                // SpMV + orthogonalization of w against V_{j+1}. The
                // CGS passes form one recorded region: the ops chain
                // through w/h, so the DAG reproduces eager order (and
                // eager timing) exactly — this region is the parity
                // anchor for recorded single-RHS execution.
                let ncols = j + 1;
                let mut hj1 = S::zero();
                match self.cfg.ortho {
                    OrthoMethod::Cgs2 => {
                        // Two classical passes: 2x (GEMV-T + GEMV-N).
                        let mut st = ctx.stream();
                        let ah = st.matrix(self.a);
                        let dh = st.slice(dir);
                        let vh = st.basis(&v);
                        let wh = st.slice_mut(&mut w);
                        let h1h = st.slice_mut(&mut h1);
                        let h2h = st.slice_mut(&mut h2);
                        let nh = st.val_mut(&mut hj1);
                        st.spmv(ah, dh, wh);
                        st.gemv_t(vh, ncols, wh.read(), h1h);
                        st.gemv_n_sub(vh, ncols, h1h.read(), wh);
                        st.gemv_t(vh, ncols, wh.read(), h2h);
                        st.gemv_n_sub(vh, ncols, h2h.read(), wh);
                        st.norm2_into(wh.read(), nh);
                        st.sync();
                        for i in 0..ncols {
                            hcol[i] = h1[i] + h2[i];
                        }
                    }
                    OrthoMethod::Cgs1 => {
                        let mut st = ctx.stream();
                        let ah = st.matrix(self.a);
                        let dh = st.slice(dir);
                        let vh = st.basis(&v);
                        let wh = st.slice_mut(&mut w);
                        let h1h = st.slice_mut(&mut h1);
                        let nh = st.val_mut(&mut hj1);
                        st.spmv(ah, dh, wh);
                        st.gemv_t(vh, ncols, wh.read(), h1h);
                        st.gemv_n_sub(vh, ncols, h1h.read(), wh);
                        st.norm2_into(wh.read(), nh);
                        st.sync();
                        hcol[..ncols].copy_from_slice(&h1[..ncols]);
                    }
                    OrthoMethod::Mgs => {
                        // 2j skinny kernels: stable, launch-heavy, and
                        // each dot feeds the next host decision — nothing
                        // to record.
                        // MGS reads columns through S-typed views, so it
                        // is native-only (validate() rejects the combo).
                        let nv = v.expect_native();
                        ctx.spmv(self.a, dir, &mut w);
                        for i in 0..ncols {
                            let hi = ctx.dot(nv.col(i), &w);
                            ctx.axpy(-hi, nv.col(i), &mut w);
                            hcol[i] = hi;
                        }
                        hj1 = ctx.norm2(&w);
                    }
                }
                hcol[ncols] = hj1;
                total_iters += 1;
                ctx.charge_iteration_host(j);

                if !hj1.is_finite() {
                    // Overflow/NaN (a real risk in fp16): stop absorbing
                    // columns and fall through to the update with what we
                    // have.
                    status = Some(SolveStatus::Breakdown);
                    break;
                }

                let implicit = lsq.push_column(&hcol[..ncols + 1]);
                let implicit_rel = implicit.to_f64() / scale;
                j += 1;

                if self.cfg.record_history {
                    history.push(HistoryPoint {
                        iteration: total_iters,
                        relative_residual: implicit_rel,
                        kind: HistoryKind::Implicit,
                    });
                }

                // Lucky breakdown: the Krylov space is invariant; the
                // least-squares solution over the current columns is exact.
                if hj1.to_f64() <= scale * f64::from(f32::MIN_POSITIVE) * f64::EPSILON {
                    lucky = true;
                    implicit_claims_convergence = true;
                    break;
                }
                // v_{j+1} = w / h_{j+1,j}.
                let inv = S::from_f64(1.0 / hj1.to_f64());
                ctx.basis_scal_copy(&mut v, j, inv, &w);

                if self.cfg.monitor_implicit && implicit_rel <= self.cfg.rtol {
                    implicit_claims_convergence = true;
                    break;
                }
            }

            // Assemble the update x += M^{-1} V_k y.
            let k = lsq.ncols();
            if k > 0 {
                if lsq.is_degenerate() {
                    status = Some(SolveStatus::Breakdown);
                } else {
                    let y = lsq.solve(k);
                    ctx.charge_restart_host(k);
                    for ui in u.iter_mut() {
                        *ui = S::zero();
                    }
                    ctx.basis_gemv_n_add(&v, k, &y, &mut u);
                    if self.precond.is_identity() {
                        ctx.axpy(S::one(), &u, x);
                    } else {
                        self.precond.apply(ctx, Some(self.a), &u, &mut z);
                        ctx.axpy(S::one(), &z, x);
                    }
                }
            }
            restarts += 1;

            // Explicit residual check (every restart, as in Belos).
            ctx.residual_as(mpgmres_gpusim::KernelClass::SpMV, self.a, b, x, &mut r);
            gamma = ctx.norm2(&r);
            let explicit_rel = gamma.to_f64() / scale;
            final_rel = explicit_rel;
            if self.cfg.record_history {
                history.push(HistoryPoint {
                    iteration: total_iters,
                    relative_residual: explicit_rel,
                    kind: HistoryKind::Explicit,
                });
            }

            if let Some(s) = status {
                // Breakdown paths: report convergence if the explicit
                // residual happens to clear the tolerance (lucky breakdown
                // usually does).
                if explicit_rel <= self.cfg.rtol {
                    status = Some(SolveStatus::Converged);
                } else {
                    status = Some(s);
                }
                break 'outer;
            }
            if !explicit_rel.is_finite() {
                status = Some(SolveStatus::Breakdown);
                break 'outer;
            }
            if explicit_rel <= self.cfg.rtol {
                status = Some(SolveStatus::Converged);
                break 'outer;
            }
            if (implicit_claims_convergence || lucky)
                && explicit_rel > self.cfg.loa_factor * self.cfg.rtol
            {
                // The implicit recurrence says "done" but the true
                // residual disagrees: Belos's loss-of-accuracy signal.
                status = Some(SolveStatus::LossOfAccuracy);
                break 'outer;
            }
            if total_iters >= self.cfg.max_iters {
                status = Some(SolveStatus::MaxIters);
                break 'outer;
            }
        }

        SolveResult {
            status: status.unwrap_or(SolveStatus::MaxIters),
            iterations: total_iters,
            restarts,
            final_relative_residual: final_rel,
            history,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::Identity;
    use mpgmres_gpusim::DeviceModel;
    use mpgmres_la::coo::Coo;
    use mpgmres_la::csr::Csr;
    use mpgmres_la::vec_ops::ReductionOrder;

    fn ctx() -> GpuContext {
        GpuContext::with_reduction(DeviceModel::v100_belos(), ReductionOrder::Sequential)
    }

    fn laplace1d(n: usize) -> GpuMatrix<f64> {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
            if i + 1 < n {
                coo.push(i, i + 1, -1.0);
            }
        }
        GpuMatrix::new(coo.into_csr())
    }

    fn check_residual(a: &GpuMatrix<f64>, b: &[f64], x: &[f64], rtol: f64) {
        let mut r = vec![0.0; b.len()];
        a.csr().residual(b, x, &mut r);
        let rn = mpgmres_la::vec_ops::norm2(&r);
        let bn = mpgmres_la::vec_ops::norm2(b);
        assert!(
            rn <= rtol * bn * 1.01,
            "true residual {rn:e} vs {:e}",
            rtol * bn
        );
    }

    #[test]
    fn identity_system_converges_immediately() {
        let a = GpuMatrix::new(Csr::<f64>::identity(10));
        let b = vec![1.0; 10];
        let mut x = vec![0.0; 10];
        let g = Gmres::new(&a, &Identity, GmresConfig::default());
        let res = g.solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.iterations <= 1);
        check_residual(&a, &b, &x, 1e-10);
    }

    #[test]
    fn zero_rhs_trivially_converged() {
        let a = laplace1d(8);
        let b = vec![0.0; 8];
        let mut x = vec![0.0; 8];
        let res = Gmres::new(&a, &Identity, GmresConfig::default()).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert_eq!(res.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn tridiagonal_system_converges_without_restart() {
        let n = 32;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(n + 2);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.iterations <= n + 1, "needed {}", res.iterations);
        check_residual(&a, &b, &x, 1e-10);
    }

    #[test]
    fn restarting_still_converges() {
        let n = 64;
        let a = laplace1d(n);
        let b: Vec<f64> = (0..n).map(|i| ((i % 5) as f64) - 2.0).collect();
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(8).with_max_iters(10_000);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        assert!(res.restarts > 1, "restarts should occur with m = 8");
        check_residual(&a, &b, &x, 1e-10);
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        // Convergence is judged relative to ||r0|| (Alg. 1 of the paper),
        // so the check here is correctness: starting from a perturbed
        // guess must still land on the solution of the ORIGINAL system.
        let n = 16;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let cfg = GmresConfig::default().with_m(n + 2);
        let mut x_ref = vec![0.0; n];
        Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x_ref);
        let mut x: Vec<f64> = x_ref
            .iter()
            .enumerate()
            .map(|(i, v)| v + ((i % 3) as f64 - 1.0))
            .collect();
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::Converged);
        check_residual(&a, &b, &x, 1e-9);
        for (xi, ri) in x.iter().zip(&x_ref) {
            assert!((xi - ri).abs() < 1e-6 * ri.abs().max(1.0));
        }
    }

    #[test]
    fn fp32_stalls_above_fp64_tolerance() {
        // The paper's Fig. 3: fp32 GMRES reaches ~5e-6 and stalls; it can
        // never certify 1e-10.
        let n = 64;
        let a64 = laplace1d(n);
        let a = a64.convert::<f32>();
        let b = vec![1.0f32; n];
        let mut x = vec![0.0f32; n];
        let cfg = GmresConfig::default().with_m(20).with_max_iters(2000);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_ne!(res.status, SolveStatus::Converged);
        // But it should get well below single-precision epsilon scale.
        assert!(res.best_residual() < 1e-4, "best {}", res.best_residual());
    }

    #[test]
    fn implicit_history_is_monotone_within_cycles() {
        let n = 48;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(12);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        let mut prev: Option<(usize, f64)> = None;
        for h in res
            .history
            .iter()
            .filter(|h| h.kind == HistoryKind::Implicit)
        {
            if let Some((pi, pr)) = prev {
                if h.iteration == pi + 1 {
                    assert!(
                        h.relative_residual <= pr * (1.0 + 1e-12),
                        "implicit residual rose within a cycle"
                    );
                }
            }
            prev = Some((h.iteration, h.relative_residual));
        }
    }

    #[test]
    fn max_iters_is_respected() {
        let n = 256;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let cfg = GmresConfig::default().with_m(10).with_max_iters(25);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_eq!(res.status, SolveStatus::MaxIters);
        assert!(
            res.iterations <= 25 + 10,
            "cap overshoot: {}",
            res.iterations
        );
    }

    #[test]
    fn kernel_mix_matches_cgs2_shape() {
        // Per iteration: 2 GEMV-T, 2 GEMV-N (+1 per restart), 1 SpMV
        // (+1 residual per restart), 1 norm (+1 per restart).
        let n = 40;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let mut x = vec![0.0; n];
        let mut c = ctx();
        let cfg = GmresConfig::default().with_m(50);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
        let iters = res.iterations as u64;
        let restarts = res.restarts as u64;
        let rep = c.report();
        use mpgmres_gpusim::PaperCategory as P;
        assert_eq!(rep.categories[&P::GemvTrans].calls, 2 * iters);
        assert_eq!(rep.categories[&P::GemvNoTrans].calls, 2 * iters + restarts);
        assert_eq!(rep.categories[&P::SpMV].calls, iters + restarts + 1);
        assert_eq!(rep.categories[&P::Norm].calls, iters + restarts + 1);
    }

    #[test]
    fn all_ortho_methods_converge_in_fp64() {
        let n = 40;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        for ortho in [OrthoMethod::Cgs2, OrthoMethod::Cgs1, OrthoMethod::Mgs] {
            let mut x = vec![0.0; n];
            let cfg = GmresConfig::default()
                .with_m(12)
                .with_ortho(ortho)
                .with_max_iters(5_000);
            let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
            assert_eq!(res.status, SolveStatus::Converged, "{ortho:?}");
            check_residual(&a, &b, &x, 1e-10);
        }
    }

    #[test]
    fn mgs_charges_skinny_kernels_cgs_charges_wide() {
        // MGS issues 2j Dot/Axpy kernels per iteration; CGS2 issues 4
        // GEMVs. The simulated-launch-overhead difference is the GPU
        // argument for CGS2 (paper §III-A).
        let n = 40;
        let a = laplace1d(n);
        let b = vec![1.0; n];
        let count = |ortho: OrthoMethod| {
            let mut c = ctx();
            let mut x = vec![0.0; n];
            let cfg = GmresConfig::default()
                .with_m(10)
                .with_ortho(ortho)
                .with_max_iters(200);
            Gmres::new(&a, &Identity, cfg).solve(&mut c, &b, &mut x);
            let p = c.profiler();
            (
                p.class_stats(mpgmres_gpusim::KernelClass::GemvT).calls,
                p.class_stats(mpgmres_gpusim::KernelClass::Dot).calls,
            )
        };
        let (gemv_cgs, dot_cgs) = count(OrthoMethod::Cgs2);
        let (gemv_mgs, dot_mgs) = count(OrthoMethod::Mgs);
        assert!(gemv_cgs > 0 && dot_cgs == 0);
        assert!(gemv_mgs == 0 && dot_mgs > 0);
    }

    #[test]
    fn cgs1_is_no_more_accurate_than_cgs2_in_fp32() {
        // The reason the paper uses two passes: a single CGS pass loses
        // orthogonality in low precision. Compare the best residual both
        // reach within the same iteration budget.
        let n = 96;
        let a64 = laplace1d(n);
        let a = a64.convert::<f32>();
        let b = vec![1.0f32; n];
        let run = |ortho: OrthoMethod| {
            let mut x = vec![0.0f32; n];
            let cfg = GmresConfig::default()
                .with_m(24)
                .with_ortho(ortho)
                .with_max_iters(600);
            Gmres::new(&a, &Identity, cfg)
                .solve(&mut ctx(), &b, &mut x)
                .best_residual()
        };
        let cgs2 = run(OrthoMethod::Cgs2);
        let cgs1 = run(OrthoMethod::Cgs1);
        assert!(
            cgs1 >= cgs2 * 0.5,
            "single-pass CGS should not beat CGS2 materially: {cgs1:e} vs {cgs2:e}"
        );
    }

    #[test]
    fn singular_system_reports_breakdown_not_panic() {
        // Singular matrix (zero row): GMRES cannot converge; it must
        // terminate with a non-converged status and finite values.
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 2, 1.0);
        // row 3 is zero
        coo.push(3, 3, 0.0);
        let a = GpuMatrix::new(coo.into_csr());
        let b = vec![1.0; 4];
        let mut x = vec![0.0; 4];
        let cfg = GmresConfig::default().with_m(6).with_max_iters(50);
        let res = Gmres::new(&a, &Identity, cfg).solve(&mut ctx(), &b, &mut x);
        assert_ne!(res.status, SolveStatus::Converged);
    }

    #[test]
    fn fp64_and_fp32_convergence_curves_track_early() {
        // Paper Fig. 3: the fp32 curve follows fp64 until ~1e-5. Compare
        // explicit residuals at matching restarts.
        let n = 100;
        let a64 = laplace1d(n);
        let a32 = a64.convert::<f32>();
        let b64 = vec![1.0f64; n];
        let b32 = vec![1.0f32; n];
        let cfg = GmresConfig::default().with_m(10).with_max_iters(300);
        let mut x64 = vec![0.0f64; n];
        let mut x32 = vec![0.0f32; n];
        let r64 = Gmres::new(&a64, &Identity, cfg).solve(&mut ctx(), &b64, &mut x64);
        let r32 = Gmres::new(&a32, &Identity, cfg).solve(&mut ctx(), &b32, &mut x32);
        let e64: Vec<f64> = r64
            .explicit_history()
            .map(|h| h.relative_residual)
            .collect();
        let e32: Vec<f64> = r32
            .explicit_history()
            .map(|h| h.relative_residual)
            .collect();
        for (a, b) in e64.iter().zip(&e32) {
            if *a < 1e-4 {
                break;
            }
            let ratio = b / a;
            assert!(
                (0.2..5.0).contains(&ratio),
                "curves diverged early: fp64 {a:e} vs fp32 {b:e}"
            );
        }
    }
}

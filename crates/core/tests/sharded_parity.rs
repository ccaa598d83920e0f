//! End-to-end solver parity for the sharded backend: `Gmres` and
//! `BlockGmres` on `BackendKind::Sharded { shards }` must produce
//! bit-identical results and solutions to `BackendKind::Reference` at
//! every shard count — sharding only decides *which shard computes
//! which rows*, never the arithmetic.
//!
//! Unlike `backend_parity.rs` this deliberately does **not** compare
//! timing reports: the sharded context charges each matvec as per-shard
//! interior/boundary pieces plus explicit `Halo` exchange traffic, so
//! the simulated timeline is restructured by design. Instead the
//! sharded runs are checked for the things sharding *should* change:
//! halo bytes on the interconnect and comm/compute overlap
//! (critical-path seconds strictly below serial seconds at >= 2
//! shards).

use mpgmres::precond::block_jacobi::BlockJacobi;
use mpgmres::precond::poly::PolyPreconditioner;
use mpgmres::precond::Identity;
use mpgmres::{
    BackendKind, BlockGmres, Gmres, GmresConfig, GpuContext, GpuMatrix, MultiVec, SolveResult,
};
use mpgmres_gpusim::{DeviceModel, KernelClass};
use mpgmres_la::coo::Coo;
use mpgmres_la::vec_ops::ReductionOrder;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 4];

fn laplace2d(nx: usize) -> GpuMatrix<f64> {
    let n = nx * nx;
    let mut coo = Coo::new(n, n);
    let idx = |i: usize, j: usize| i * nx + j;
    for i in 0..nx {
        for j in 0..nx {
            let r = idx(i, j);
            coo.push(r, r, 4.0);
            if i > 0 {
                coo.push(r, idx(i - 1, j), -1.0);
            }
            if i + 1 < nx {
                coo.push(r, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(r, idx(i, j - 1), -1.0);
            }
            if j + 1 < nx {
                coo.push(r, idx(i, j + 1), -1.0);
            }
        }
    }
    GpuMatrix::new(coo.into_csr())
}

fn rhs(n: usize, salt: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let z = (i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(salt.wrapping_mul(0xBF58_476D_1CE4_E5B9));
            (z >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

fn ctx(kind: BackendKind, order: ReductionOrder) -> GpuContext {
    GpuContext::with_backend_kind(DeviceModel::v100_belos(), order, kind)
}

fn assert_same_result(a: &SolveResult, b: &SolveResult, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.iterations, b.iterations, "{what}: iterations");
    assert_eq!(a.restarts, b.restarts, "{what}: restarts");
    assert_eq!(
        a.final_relative_residual.to_bits(),
        b.final_relative_residual.to_bits(),
        "{what}: final residual must be bit-identical"
    );
    assert_eq!(a.history.len(), b.history.len(), "{what}: history length");
    for (i, (ha, hb)) in a.history.iter().zip(&b.history).enumerate() {
        assert_eq!(ha.iteration, hb.iteration, "{what}: history[{i}] iteration");
        assert_eq!(
            ha.relative_residual.to_bits(),
            hb.relative_residual.to_bits(),
            "{what}: history[{i}] residual"
        );
    }
}

fn assert_same_bits(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (p, q)) in a.iter().zip(b).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: x[{i}]");
    }
}

/// Assert the sharded-specific invariants on a finished context: halo
/// traffic was charged and the recorded pieces overlapped on the
/// timeline (only meaningful at >= 2 shards; a single shard degenerates
/// to the reference schedule with no halo).
fn assert_sharded_profile(c: &GpuContext, shards: usize, what: &str) {
    let halo = c.profiler().class_stats(KernelClass::Halo);
    if shards >= 2 {
        assert!(halo.bytes > 0, "{what}: {shards} shards must charge halo");
        let (serial, critical) = (
            c.profiler().total_seconds(),
            c.profiler().critical_seconds(),
        );
        assert!(
            critical < serial,
            "{what}: {shards} shards must overlap comm and compute \
             ({critical} !< {serial})"
        );
    } else {
        assert_eq!(halo.bytes, 0, "{what}: 1 shard has no halo");
    }
}

/// Run one closure on the reference backend and on every sharded shard
/// count; results and solutions must match bit-for-bit, and the sharded
/// contexts must show halo traffic + overlap.
fn compare<F>(what: &str, order: ReductionOrder, run: F)
where
    F: Fn(&mut GpuContext) -> (SolveResult, Vec<f64>),
{
    let mut c_ref = ctx(BackendKind::Reference, order);
    let (r_ref, x_ref) = run(&mut c_ref);
    assert_eq!(
        c_ref.profiler().class_stats(KernelClass::Halo).bytes,
        0,
        "{what}: reference backend must never touch the Halo class"
    );
    for shards in SHARD_COUNTS {
        let mut c_s = ctx(BackendKind::Sharded { shards }, order);
        let (r_s, x_s) = run(&mut c_s);
        let tag = format!("{what}@{shards}shards");
        assert_same_result(&r_ref, &r_s, &tag);
        assert_same_bits(&x_ref, &x_s, &tag);
        assert_sharded_profile(&c_s, shards, &tag);
    }
}

#[test]
fn gmres_sharded_matches_reference_both_orders() {
    let nx = 14;
    let n = nx * nx;
    let a = laplace2d(nx);
    let b = rhs(n, 7);
    for order in [ReductionOrder::Sequential, ReductionOrder::GPU_LIKE] {
        compare(&format!("gmres/{order:?}"), order, |c| {
            let mut x = vec![0.0f64; n];
            let cfg = GmresConfig::default().with_m(20).with_max_iters(10_000);
            let r = Gmres::new(&a, &Identity, cfg).solve(c, &b, &mut x);
            (r, x)
        });
    }
}

#[test]
fn poly_preconditioned_gmres_sharded_matches_reference() {
    // The polynomial preconditioner's setup (Arnoldi + eigensolve) and
    // its apply both run through the sharded backend too.
    let nx = 12;
    let n = nx * nx;
    let a = laplace2d(nx);
    let b = rhs(n, 11);
    compare("gmres+poly", ReductionOrder::GPU_LIKE, |c| {
        let poly = PolyPreconditioner::build_auto_seed(c, &a, 8).expect("poly build");
        let mut x = vec![0.0f64; n];
        let cfg = GmresConfig::default().with_m(20).with_max_iters(5_000);
        let r = Gmres::new(&a, &poly, cfg).solve(c, &b, &mut x);
        (r, x)
    });
}

#[test]
fn block_gmres_sharded_matches_reference() {
    // k = 3 exercises the sharded SpMM path (per-column halo spans).
    let nx = 12;
    let n = nx * nx;
    let a = laplace2d(nx);
    let cols: Vec<Vec<f64>> = (0..3).map(|s| rhs(n, 21 + s)).collect();
    let precond = BlockJacobi::build(&a, 8);
    let run_block = |c: &mut GpuContext, cfg: GmresConfig| {
        let bb = MultiVec::from_columns(&[&cols[0][..], &cols[1][..], &cols[2][..]]);
        let mut xb = MultiVec::zeros(n, 3);
        let r = BlockGmres::new(&a, &precond, cfg).solve(c, &bb, &mut xb);
        (r, xb)
    };
    for (what, cfg) in [
        (
            "block-gmres",
            GmresConfig::default().with_m(25).with_max_iters(5_000),
        ),
        (
            // Pipelined: host-side steps are software-pipelined behind
            // device work, which must not perturb the arithmetic.
            "block-gmres+pipeline",
            GmresConfig::default()
                .with_m(25)
                .with_max_iters(5_000)
                .with_pipeline_depth(1),
        ),
    ] {
        let mut c_ref = ctx(BackendKind::Reference, ReductionOrder::GPU_LIKE);
        let (r_ref, x_ref) = run_block(&mut c_ref, cfg);
        for shards in SHARD_COUNTS {
            let mut c_s = ctx(BackendKind::Sharded { shards }, ReductionOrder::GPU_LIKE);
            let (r_s, x_s) = run_block(&mut c_s, cfg);
            let tag = format!("{what}@{shards}shards");
            for (col, (rr, rs)) in r_ref.iter().zip(&r_s).enumerate() {
                assert_same_result(rr, rs, &format!("{tag} col{col}"));
            }
            for col in 0..3 {
                assert_same_bits(x_ref.col(col), x_s.col(col), &format!("{tag} col{col}"));
            }
            assert_sharded_profile(&c_s, shards, &tag);
        }
    }
}

/// A second identical sharded solve on the same context is
/// bit-identical to the first (results and solution bits).
#[test]
fn sharded_solver_warm_solve_is_bit_identical() {
    let nx = 10;
    let n = nx * nx;
    let a = laplace2d(nx);
    let b = rhs(n, 3);
    let mut c = ctx(
        BackendKind::Sharded { shards: 3 },
        ReductionOrder::Sequential,
    );
    let cfg = GmresConfig::default().with_m(20).with_max_iters(10_000);
    let solve = |c: &mut GpuContext| {
        let mut x = vec![0.0f64; n];
        let r = Gmres::new(&a, &Identity, cfg).solve(c, &b, &mut x);
        (r, x)
    };
    let (r0, x0) = solve(&mut c);
    let (r1, x1) = solve(&mut c);
    assert_same_result(&r0, &r1, "warm solve");
    assert_same_bits(&x0, &x1, "warm solve");
}

//! Sharding bench: the row-sharded backend's halo-exchange traffic and
//! comm/compute overlap on a full `Gmres` solve, archived as
//! `results/sharding.json` for the CI perf gate.
//!
//! Two properties are measured per shard count and pinned by the gate
//! fields:
//!
//! - **halo model**: the simulator's charged `Halo`-class bytes must
//!   match the machine-independent analytic form exactly — every
//!   matvec exchanges `Σ halo_bytes(region.halo_len(), 1, 8)` over the
//!   plan's halo-carrying regions, so charged bytes = sweeps x that
//!   sum, ratio 1.0 (hard-gated: the model is pure accounting, no
//!   wall-clock in sight);
//! - **overlap**: at >= 2 shards the recorded per-shard pieces must
//!   overlap on the simulated timeline (critical path strictly below
//!   serial, ratio < 1.0).
//!
//! Every sharded solution, and a second (warm) solve on the same
//! context, is also checked bit-identical to the reference backend
//! (`sharding_parity_ok`): sharding decides which shard computes which
//! rows, never the arithmetic.

use criterion::{criterion_group, criterion_main, Criterion};
use mpgmres::precond::Identity;
use mpgmres::{BackendKind, Gmres, GmresConfig, GpuContext, GpuMatrix};
use mpgmres_bench::output;
use mpgmres_gpusim::{analytic, DeviceModel, KernelClass};
use mpgmres_la::shard::ShardPlan;
use mpgmres_la::vec_ops::ReductionOrder;
use mpgmres_matgen::galeri;
use serde::Serialize;

/// One shard count's measurements.
#[derive(Serialize)]
struct ShardPoint {
    shards: usize,
    /// `Halo`-class interconnect bytes the profiler charged.
    halo_bytes: u64,
    /// What the analytic model predicts for the same sweep count.
    halo_model_bytes: usize,
    halo_exchanges: u64,
    serial_seconds: f64,
    critical_seconds: f64,
    overlap_ratio: f64,
}

/// Flat, uniquely-named gate fields for the CI perf gate.
#[derive(Serialize)]
struct GateRecord {
    /// Worst-case |charged/model - 1| across shard counts (hard-gated
    /// at ~0: the halo cost model is machine-independent accounting).
    sharding_halo_model_error: f64,
    /// Worst (largest) critical/serial ratio across shard counts >= 2.
    sharding_overlap_ratio: f64,
    /// Every sharded solution bit-identical to the reference backend.
    sharding_parity_ok: bool,
}

#[derive(Serialize)]
struct ShardingArtifact {
    problem: String,
    n: usize,
    m: usize,
    points: Vec<ShardPoint>,
    gate: GateRecord,
}

fn summary(_c: &mut Criterion) {
    let side = 48;
    let a = GpuMatrix::new(galeri::laplace2d(side, side));
    let n = a.n();
    let cfg = GmresConfig::default()
        .with_m(30)
        .with_rtol(1e-8)
        .with_max_iters(4_000);
    let b: Vec<f64> = (0..n).map(|i| 1.0 + ((i * 7) % 23) as f64 / 23.0).collect();
    let solve = |ctx: &mut GpuContext| {
        let mut x = vec![0.0f64; n];
        Gmres::new(&a, &Identity, cfg).solve(ctx, &b, &mut x);
        x
    };

    println!(
        "\n[sharding summary] Gmres on laplace2d({side}x{side}), m={}",
        cfg.m
    );
    let mut ref_ctx = GpuContext::with_backend_kind(
        DeviceModel::v100_belos(),
        ReductionOrder::GPU_LIKE,
        BackendKind::Reference,
    );
    let x_ref = solve(&mut ref_ctx);

    let mut points = Vec::new();
    let mut parity_ok = true;
    let mut worst_model_error = 0.0f64;
    let mut worst_overlap = 0.0f64;
    for shards in [1usize, 2, 4] {
        let mut ctx = GpuContext::with_backend_kind(
            DeviceModel::v100_belos(),
            ReductionOrder::GPU_LIKE,
            BackendKind::Sharded { shards },
        );
        let x = solve(&mut ctx);
        parity_ok &= x
            .iter()
            .zip(&x_ref)
            .all(|(p, q)| p.to_bits() == q.to_bits());

        // Halo model: each matvec charges one Halo op per halo-carrying
        // region, so charged bytes = (calls / halo regions) x the
        // per-sweep analytic sum. Exact in integers — no tolerance.
        let plan = ShardPlan::build(a.csr(), shards);
        let per_sweep: usize = plan
            .regions
            .iter()
            .map(|r| analytic::halo_bytes(r.halo_len(), 1, 8))
            .sum();
        let halo_regions = plan.regions.iter().filter(|r| r.halo_len() > 0).count();
        let halo = ctx.profiler().class_stats(KernelClass::Halo);
        let model_bytes = (halo.calls as usize)
            .checked_div(halo_regions)
            .map_or(0, |sweeps| sweeps * per_sweep);
        let model_error = if model_bytes > 0 {
            (halo.bytes as f64 / model_bytes as f64 - 1.0).abs()
        } else {
            halo.bytes as f64
        };
        worst_model_error = worst_model_error.max(model_error);

        let serial = ctx.profiler().total_seconds();
        let critical = ctx.profiler().critical_seconds();
        let overlap = critical / serial;
        if shards >= 2 {
            worst_overlap = worst_overlap.max(overlap);
            assert!(
                critical < serial,
                "{shards} shards must overlap comm and compute"
            );
            assert!(halo.bytes > 0, "{shards} shards must exchange halos");
        }

        // A second identical solve on the warm context must reproduce
        // the first bit for bit.
        let x_warm = solve(&mut ctx);
        parity_ok &= x_warm
            .iter()
            .zip(&x)
            .all(|(p, q)| p.to_bits() == q.to_bits());

        println!(
            "  {shards} shard(s): halo {} B over {} exchanges (model {} B, err {model_error:.2e}), \
             overlap {overlap:.3}",
            halo.bytes, halo.calls, model_bytes
        );
        points.push(ShardPoint {
            shards,
            halo_bytes: halo.bytes,
            halo_model_bytes: model_bytes,
            halo_exchanges: halo.calls,
            serial_seconds: serial,
            critical_seconds: critical,
            overlap_ratio: overlap,
        });
    }

    assert!(parity_ok, "sharded solves must match the reference backend");
    assert_eq!(worst_model_error, 0.0, "halo traffic must match the model");

    let gate = GateRecord {
        sharding_halo_model_error: worst_model_error,
        sharding_overlap_ratio: worst_overlap,
        sharding_parity_ok: parity_ok,
    };
    let artifact = ShardingArtifact {
        problem: format!("laplace2d({side}x{side})"),
        n,
        m: cfg.m,
        points,
        gate,
    };
    let dir = output::results_dir(None);
    match output::write_json(&dir, "sharding", &artifact) {
        Ok(path) => println!("  wrote {}", path.display()),
        Err(e) => println!("  could not write results JSON: {e}"),
    }
}

criterion_group!(sharding_group, summary);
criterion_main!(sharding_group);

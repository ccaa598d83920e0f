//! The metrics every workload shares: the set-up and resource
//! end-to-end metrics, and the whole per-layer set of a traced run
//! (layers a workload does not exercise report 0).

use std::path::Path;

use mpgmres::stream::StreamStats;
use mpgmres_gpusim::PaperCategory;
use mpgmres_matgen::suitesparse::TABLE3;

use crate::solve::{pool_mean, Kind, SolveRec};
use crate::trace::Tracer;
use crate::{category_stem, machine, quartiles, Report};

/// Kernel families the timing decorator groups `ScalarBackend` methods
/// into (`kernel.<family>` spans).
pub const KERNEL_FAMILIES: [&str; 11] = [
    "spmv",
    "store_spmv",
    "residual",
    "spmm",
    "gemv_t",
    "gemv_n",
    "dot",
    "norm",
    "axpy_scal_copy",
    "basis",
    "lane",
];

/// The paper's GMRES-IR speed-up band (Table I/III; the band
/// `tests/paper_shapes.rs` asserts).
pub const PAPER_IR_BAND: (f64, f64) = (1.2, 1.5);
/// The paper's fp32/fp64 SpMV kernel speed-up (Table I; quoted by
/// `tests/paper_shapes.rs`).
pub const PAPER_SPMV_SPEEDUP: f64 = 2.48;

/// Host seconds of one set-up.
#[derive(Clone, Copy, Debug)]
pub struct SetupTimes {
    pub total: f64,
    pub matgen: f64,
    pub store: f64,
    pub warmup: f64,
}

/// Service-layer counters of a traced `serve_open` run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceLayer {
    pub cycles: f64,
    pub admissions: f64,
    pub occupancy: f64,
    pub queue_wait_cycles: f64,
    pub payload_allocs: f64,
    pub sheds: f64,
    pub lag_p99_s: f64,
}

/// Totals over a workload's refereed solves.
#[derive(Clone, Copy, Debug)]
pub struct SolveTotals {
    /// Iterations across the traced solves.
    pub traced_iters: usize,
    /// Restarts over one pass of the pool (both drivers).
    pub restarts: usize,
    /// Simulated seconds per paper category over one pass of the pool.
    pub cats: [f64; 5],
    pub critical: f64,
    pub sim_fp64: f64,
    pub sim_ir: f64,
    pub spmv_fp64: f64,
    pub spmv_ir: f64,
    pub untraced_median: f64,
    pub traced_median: f64,
}

impl SolveTotals {
    pub(crate) fn of(untraced: &[SolveRec], traced: &[SolveRec]) -> Self {
        let first_pass: Vec<&SolveRec> = untraced
            .iter()
            .enumerate()
            .filter(|(i, r)| {
                !untraced[..*i]
                    .iter()
                    .any(|p| p.kind == r.kind && p.slot == r.slot)
            })
            .map(|(_, r)| r)
            .collect();
        let mut cats = [0.0; 5];
        for r in &first_pass {
            for (c, v) in cats.iter_mut().zip(r.cats) {
                *c += v;
            }
        }
        let spmv = PaperCategory::ALL
            .iter()
            .position(|&c| c == PaperCategory::SpMV)
            .expect("SpMV category");
        let median = |recs: &[SolveRec]| {
            let w: Vec<f64> = recs.iter().map(|r| r.wall).collect();
            quartiles(&w).1
        };
        SolveTotals {
            traced_iters: traced.iter().map(|r| r.iters).sum(),
            restarts: first_pass.iter().map(|r| r.restarts).sum(),
            cats,
            critical: first_pass.iter().map(|r| r.critical).sum(),
            sim_fp64: pool_mean(untraced, Kind::Fp64, |r| r.sim),
            sim_ir: pool_mean(untraced, Kind::Ir, |r| r.sim),
            spmv_fp64: pool_mean(untraced, Kind::Fp64, |r| r.cats[spmv]),
            spmv_ir: pool_mean(untraced, Kind::Ir, |r| r.cats[spmv]),
            untraced_median: median(untraced),
            traced_median: median(traced),
        }
    }
}

/// Everything the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub triad_gbs: f64,
    /// Graph-cache counters before and after the traced phase.
    pub stream: (StreamStats, StreamStats),
    pub solves: SolveTotals,
    /// `(host s, sim s)` per SpMV on the fp64, fp32 and fp16 stores.
    pub spmv: [(f64, f64); 3],
    pub service: Option<ServiceLayer>,
    pub setups: &'a [SetupTimes],
}

fn median_of(setups: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    quartiles(&setups.iter().map(f).collect::<Vec<_>>()).1
}

/// `fail_rate`, `setup_s` and `peak_rss_mb`.
pub fn common_end_to_end(report: &mut Report, setups: &[SetupTimes]) {
    let rate = report.referee.fail_rate();
    let note = format!(
        "{} of {} attempted; worst true residual {:.3} x rtol",
        report.referee.failed, report.referee.attempted, report.referee.worst_ratio
    );
    report.e2e("fail_rate", rate, "fraction", note);
    report.e2e(
        "setup_s",
        median_of(setups, |s| s.total),
        "s",
        format!("median of {} set-ups", setups.len()),
    );
    report.e2e("peak_rss_mb", machine::peak_rss_mb(), "MB", String::new());
}

/// Signed relative distance of `v` outside `[lo, hi]` (0 inside).
fn band_err(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if v < lo {
        v / lo - 1.0
    } else if v > hi {
        v / hi - 1.0
    } else {
        0.0
    }
}

/// Emit every per-layer metric, the self-time table and the simulator
/// accuracy table.
pub fn emit(report: &mut Report, inp: &LayerInputs<'_>) {
    let aggs = inp.tracer.aggregates();
    let agg = |name: &str| aggs.get(name).copied().unwrap_or_default();

    for k in KERNEL_FAMILIES {
        let a = agg(&format!("kernel.{k}"));
        let gbs = if a.host_s > 0.0 {
            a.bytes as f64 / a.host_s / 1e9
        } else {
            0.0
        };
        report.layer(&format!("kernel.{k}.calls"), a.calls as f64, "count", "");
        report.layer(&format!("kernel.{k}.host_s"), a.host_s, "s", "");
        report.layer(
            &format!("kernel.{k}.bytes"),
            a.bytes as f64,
            "bytes",
            "computed",
        );
        report.layer(&format!("kernel.{k}.gbs"), gbs, "GB/s", "computed bytes");
        report.layer(
            &format!("kernel.{k}.roof"),
            gbs / inp.triad_gbs,
            "fraction",
            "of triad",
        );
    }
    let [(h64, s64), (h32, s32), (h16, s16)] = inp.spmv;
    let (sim32, sim16) = (s32 / s64, s16 / s64);
    report.layer(
        "kernel.spmv_fp32_ratio.host",
        h32 / h64,
        "ratio",
        &format!("gpusim predicts {sim32:.3}"),
    );
    report.layer(
        "kernel.spmv_fp16_ratio.host",
        h16 / h64,
        "ratio",
        &format!("gpusim predicts {sim16:.3}"),
    );

    let (s0, s1) = inp.stream;
    let (batches, ops) = inp.tracer.batch_counts();
    report.layer("stream.hits", (s1.hits - s0.hits) as f64, "count", "");
    report.layer("stream.misses", (s1.misses - s0.misses) as f64, "count", "");
    report.layer(
        "stream.nodes_allocated",
        (s1.nodes_allocated - s0.nodes_allocated) as f64,
        "count",
        "",
    );
    report.layer("stream.batches", batches as f64, "count", "");
    report.layer(
        "stream.ops_per_batch",
        ops as f64 / batches.max(1) as f64,
        "ops",
        "",
    );
    report.layer(
        "stream.dispatch_s",
        agg("stream.execute_batch").self_s,
        "s",
        "execute_batch minus its kernels",
    );

    let sv = &inp.solves;
    let drv = agg("driver.solve");
    report.layer(
        "driver.self_s",
        drv.self_s,
        "s",
        "solve minus kernel children",
    );
    report.layer(
        "driver.self_us_per_iter",
        drv.self_s / sv.traced_iters.max(1) as f64 * 1e6,
        "us",
        "",
    );
    report.layer(
        "driver.restarts",
        sv.restarts as f64,
        "count",
        "one pass of the pool",
    );

    let svc = inp.service.unwrap_or_default();
    let pct = |name: &str, q: f64| {
        let mut d = inp.tracer.durations(name);
        d.sort_by(f64::total_cmp);
        if d.is_empty() {
            0.0
        } else {
            mpgmres_bench::experiments::serving::quantile(&d, q) * 1e6
        }
    };
    report.layer("service.submit_us", pct("service.submit", 0.5), "us", "p50");
    report.layer("service.step_us.p50", pct("service.step", 0.5), "us", "");
    report.layer("service.step_us.p99", pct("service.step", 0.99), "us", "");
    report.layer("service.cycles", svc.cycles, "count", "");
    report.layer("service.admissions", svc.admissions, "count", "");
    report.layer("service.occupancy", svc.occupancy, "fraction", "");
    report.layer(
        "service.queue_wait_cycles",
        svc.queue_wait_cycles,
        "cycles",
        "mean, from wait_hist",
    );
    report.layer(
        "service.payload_allocs",
        svc.payload_allocs,
        "count",
        "warm delta over the nominal rate",
    );
    report.layer("service.sheds", svc.sheds, "count", "");
    report.layer("generator.lag_p99_s", svc.lag_p99_s, "s", "");

    for (c, v) in PaperCategory::ALL.iter().zip(sv.cats) {
        report.layer(
            &format!("sim.{}_s", category_stem(*c)),
            v,
            "sim_s",
            "one pass of the pool",
        );
    }
    report.layer(
        "sim.critical_s",
        sv.critical,
        "sim_s",
        "one pass of the pool",
    );
    let ir_speedup = sv.sim_fp64 / sv.sim_ir;
    let spmv_speedup = sv.spmv_fp64 / sv.spmv_ir;
    let spmv32_err = sim32 / (h32 / h64) - 1.0;
    report.layer("gpusim.ir_speedup", ir_speedup, "ratio", "");
    report.layer(
        "gpusim.ir_speedup_err",
        band_err(ir_speedup, PAPER_IR_BAND).abs(),
        "fraction",
        "vs paper band 1.2-1.5",
    );
    report.layer("gpusim.spmv_speedup", spmv_speedup, "ratio", "");
    report.layer(
        "gpusim.spmv_speedup_err",
        (spmv_speedup / PAPER_SPMV_SPEEDUP - 1.0).abs(),
        "fraction",
        "vs paper 2.48",
    );
    report.layer(
        "gpusim.spmv_fp32_ratio_err",
        spmv32_err.abs(),
        "fraction",
        "unvalidated: vs this host",
    );

    report.layer(
        "setup.matgen_s",
        median_of(inp.setups, |s| s.matgen),
        "s",
        "median",
    );
    report.layer(
        "setup.store_s",
        median_of(inp.setups, |s| s.store),
        "s",
        "median",
    );
    report.layer(
        "setup.warmup_s",
        median_of(inp.setups, |s| s.warmup),
        "s",
        "median",
    );
    report.layer(
        "trace.overhead_frac",
        sv.traced_median / sv.untraced_median - 1.0,
        "fraction",
        "traced vs untraced median solve",
    );

    report.line("self time by span (host seconds; self = span minus child coverage):".into());
    report.line(format!(
        "  {:<26} {:>10} {:>12} {:>12}",
        "span", "calls", "total_s", "self_s"
    ));
    for (name, a) in &aggs {
        report.line(format!(
            "  {name:<26} {:>10} {:>12.6} {:>12.6}",
            a.calls, a.host_s, a.self_s
        ));
    }

    let mut table3: Vec<f64> = TABLE3.iter().map(|t| t.paper.speedup).collect();
    table3.sort_by(f64::total_cmp);
    let t3_med = mpgmres_bench::experiments::serving::quantile(&table3, 0.5);
    report.line("simulator accuracy (simulated V100 vs the paper's own numbers):".into());
    report.line(format!(
        "  IR speed-up      {ir_speedup:.3}  vs band 1.2-1.5: err {:+.3}; vs Table III median {t3_med:.2} \
         (range {:.2}-{:.2}): err {:+.3}",
        band_err(ir_speedup, PAPER_IR_BAND),
        table3[0],
        table3[table3.len() - 1],
        ir_speedup / t3_med - 1.0
    ));
    report.line(format!(
        "  SpMV speed-up    {spmv_speedup:.3}  vs paper 2.48: err {:+.3}",
        spmv_speedup / PAPER_SPMV_SPEEDUP - 1.0
    ));
    report.line(format!(
        "  fp32/fp64 SpMV   sim {sim32:.3} vs host {:.3}: err {spmv32_err:+.3} (unvalidated: no paper reference)",
        h32 / h64
    ));
    report.line(format!(
        "  fp16/fp64 SpMV   sim {sim16:.3} vs host {:.3}: err {:+.3} (unvalidated: no paper reference)",
        h16 / h64,
        sim16 / (h16 / h64) - 1.0
    ));
}

/// Write the kept spans as CSV and say where.
pub fn write_spans(report: &mut Report, tracer: &Tracer, path: &Path) {
    let (kept, dropped) = tracer.span_counts();
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(path, tracer.spans_csv()));
    report.line(match written {
        Ok(()) => format!(
            "spans: {kept} kept ({dropped} past the cap) written to {}",
            path.display()
        ),
        Err(e) => format!("spans: could not write {}: {e}", path.display()),
    });
}

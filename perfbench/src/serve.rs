//! `serve_open`: `SolverService` with 4 lanes over Laplace2D 16²,
//! GMRES(25), a seeded mix of rtol 1e-6 and 1e-10 requests in one
//! group. Arrivals are an open loop on the host clock at fixed rates
//! set from the seed's measured closed-loop capacity; each request is
//! timed from when it was due.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mpgmres::prelude::*;
use mpgmres::StreamStats;
use mpgmres_bench::experiments::serving::{drive_with, quantile, traffic, DriveOpts, Lcg};
use mpgmres_matgen::galeri;

use crate::layers::{self, LayerInputs, ServiceLayer, SetupTimes, SolveTotals};
use crate::solve::{check_parity, plain_ctx, pool_mean, spmv_per_store, traced_ctx, Drivers, Kind};
use crate::trace::Tracer;
use crate::{machine, quartiles, Options, Referee, Report};

const LANES: usize = 4;
const M: usize = 25;
/// Requests the service sees per seed (rhs and rtol drawn per slot).
const POOL: usize = 64;
/// Solo-solve pool (the unbatched baseline of the same problem).
const SOLO_POOL: usize = 4;
/// Share of the run's seconds the solo solves get.
const SOLO_SHARE: f64 = 0.25;
/// Host latency limit on p99 for `slo_rate_rps`.
pub const LATENCY_LIMIT_S: f64 = 0.25;
/// Offered rates as fractions of the measured closed-loop capacity.
/// The first is the nominal rate; the last two lie above capacity, so a
/// faster program raises the capacity they are set from.
const RATE_FRACTIONS: [f64; 4] = [0.5, 0.75, 1.5, 2.0];
/// Arrival window of each rate: a share of the run's seconds, and at
/// least long enough for an over-capacity rate to build a backlog well
/// past [`BACKLOG_LIMIT`].
const RATE_SHARES: [f64; 4] = [0.45, 0.1, 0.0, 0.0];
const RATE_MIN_WINDOW_S: [f64; 4] = [0.0, 0.3, 0.4, 0.3];
/// Closed-loop capacity batches (median taken) and their size.
const CAL_BATCHES: usize = 2;
const CAL_SIZE: usize = 48;
/// Backlog above which a rate counts as growing its queue.
const BACKLOG_LIMIT: usize = 2 * LANES;

/// The seeded request mix: request `i` solves `rhs[i % POOL]` to
/// `rtol[i % POOL]`.
struct Mix {
    rhs: Vec<Vec<f64>>,
    rtol: Vec<f64>,
}

impl Mix {
    fn new(seed: u64, n: usize) -> Self {
        // A fixed quarter at the loose rtol, in seeded order (Fisher-Yates):
        // with a 50/50 mix the median latency would sit in the gap between
        // the short and the long requests and jump from run to run.
        let mut rtol: Vec<f64> = (0..POOL)
            .map(|i| if i < POOL / 4 { 1e-6 } else { 1e-10 })
            .collect();
        let mut lcg = Lcg(seed ^ 0x5eed_5e7e);
        for i in (1..POOL).rev() {
            let j = ((lcg.signed_unit() + 1.0) * 0.5 * (i + 1) as f64) as usize;
            rtol.swap(i, j.min(i));
        }
        Mix {
            rhs: traffic(seed.wrapping_add(1), n, POOL),
            rtol,
        }
    }

    fn get(&self, i: usize) -> (&[f64], f64) {
        (&self.rhs[i % POOL], self.rtol[i % POOL])
    }
}

fn config(rtol: f64) -> GmresConfig {
    GmresConfig::default()
        .with_m(M)
        .with_rtol(rtol)
        .with_max_iters(20_000)
}

/// The service plus what a phase needs to referee it.
struct Serving<'a, 'm> {
    svc: SolverService<'a, f64>,
    a: &'a GpuMatrix<f64>,
    mix: &'m Mix,
    next_req: usize,
    tracer: Option<&'m Tracer>,
}

/// One open-loop (or closed-loop) phase's outcome.
struct Phase {
    rate: f64,
    submitted: usize,
    latencies: Vec<f64>,
    lags: Vec<f64>,
    backlog_end: usize,
    failed: u64,
    seconds: f64,
    /// Payload buffers the service allocated during the phase.
    payload_allocs: usize,
}

impl Phase {
    fn p(&self, q: f64) -> f64 {
        let mut l = self.latencies.clone();
        l.sort_by(f64::total_cmp);
        if l.is_empty() {
            f64::INFINITY
        } else {
            quantile(&l, q)
        }
    }

    fn meets_slo(&self) -> bool {
        self.failed == 0 && self.backlog_end <= BACKLOG_LIMIT && self.p(0.99) <= LATENCY_LIMIT_S
    }
}

impl Serving<'_, '_> {
    fn submit(&mut self, ctx: &GpuContext, referee: &mut Referee) -> Option<(u64, usize, f64)> {
        let i = self.next_req;
        self.next_req += 1;
        let (b, rtol) = self.mix.get(i);
        let req = SolveRequest::new(Operator::Matrix(self.a), b).with_config(config(rtol));
        if let Some(t) = self.tracer {
            t.enter("service.submit", i as u64, ctx.elapsed(), 0);
        }
        let id = self.svc.submit(ctx, &req);
        if let Some(t) = self.tracer {
            t.exit(ctx.elapsed());
        }
        match id {
            Ok(id) => Some((id.0, i, rtol)),
            Err(_) => {
                referee.refused();
                None
            }
        }
    }

    fn step(&mut self, ctx: &mut GpuContext) {
        if let Some(t) = self.tracer {
            t.enter("service.step", 0, ctx.elapsed(), 0);
        }
        self.svc.step(ctx);
        if let Some(t) = self.tracer {
            t.exit(ctx.elapsed());
        }
    }

    /// Drive arrivals due at `k / rate` seconds (`k < count`) from the
    /// phase start, stepping the service between them, until every
    /// request resolved. With `rate = inf` every request is due at once
    /// (closed submission).
    fn phase(
        &mut self,
        ctx: &mut GpuContext,
        rate: f64,
        count: usize,
        referee: &mut Referee,
    ) -> Phase {
        let failed0 = referee.failed;
        let allocs0 = self.svc.stats().payload_allocs;
        let start = Instant::now();
        let due = |k: usize| {
            if rate.is_finite() {
                k as f64 / rate
            } else {
                0.0
            }
        };
        let mut waiting: HashMap<u64, (f64, usize, f64)> = HashMap::new();
        let mut out = Vec::new();
        let mut ph = Phase {
            rate,
            submitted: count,
            latencies: Vec::with_capacity(count),
            lags: Vec::with_capacity(count),
            backlog_end: 0,
            failed: 0,
            seconds: 0.0,
            payload_allocs: 0,
        };
        let mut next = 0;
        loop {
            let now = start.elapsed().as_secs_f64();
            while next < count && due(next) <= now {
                if let Some((id, i, rtol)) = self.submit(ctx, referee) {
                    waiting.insert(id, (due(next), i, rtol));
                }
                ph.lags.push(start.elapsed().as_secs_f64() - due(next));
                next += 1;
                if next == count {
                    ph.backlog_end = self.svc.pending();
                }
            }
            if self.svc.pending() + self.svc.in_flight() > 0 {
                self.step(ctx);
                self.svc.drain_outcomes_into(&mut out);
                let done = start.elapsed().as_secs_f64();
                for o in out.drain(..) {
                    let (t_due, i, rtol) = waiting
                        .remove(&o.id.0)
                        .expect("outcome of a submitted request");
                    ph.latencies.push(done - t_due);
                    let (b, _) = self.mix.get(i);
                    if o.disposition == Disposition::Completed {
                        referee.check(
                            self.a.csr(),
                            b,
                            &o.x,
                            o.result.as_ref().map(|r| r.status),
                            rtol,
                        );
                    } else {
                        referee.refused();
                    }
                    self.svc.recycle(o);
                }
            } else if next < count {
                // Spin, not sleep: a sleeping generator's wake-up delay on
                // a busy host would show up as latency the service never
                // caused.
                std::hint::spin_loop();
            } else {
                break;
            }
        }
        ph.seconds = start.elapsed().as_secs_f64();
        ph.failed = referee.failed - failed0;
        ph.payload_allocs = self.svc.stats().payload_allocs - allocs0;
        ph
    }
}

/// Graph-cache counters of the solo and service contexts together.
fn stream_sum(a: &GpuContext, b: &GpuContext) -> StreamStats {
    let (x, y) = (a.stream_stats(), b.stream_stats());
    StreamStats {
        hits: x.hits + y.hits,
        misses: x.misses + y.misses,
        nodes_allocated: x.nodes_allocated + y.nodes_allocated,
    }
}

/// Run `serve_open`.
pub fn run(opts: &Options) -> Report {
    let nx = if opts.tiny { 6 } else { 16 };
    let setup_reps = 3;
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
    let tracer = Arc::new(Tracer::new());
    let s = opts.seconds;

    let mut setups = Vec::new();
    for rep in 0..setup_reps {
        let t0 = Instant::now();
        let a = GpuMatrix::new(galeri::laplace2d(nx, nx));
        let matgen = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let shadows = [
            GpuStore::shadow_of(&a, Precision::Fp32),
            GpuStore::shadow_of(&a, Precision::Fp16),
        ];
        let icfg = IrConfig::default()
            .with_m(M)
            .with_rtol(1e-10)
            .with_max_iters(20_000);
        let drivers = Drivers {
            a: &a,
            gmres: Gmres::new(&a, &Identity, config(1e-10)),
            ir: GmresIr::new(&a, &Identity, icfg),
            rtol: 1e-10,
        };
        let store = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let mix = Mix::new(opts.input_seed(), a.n());
        let solo_rhs = traffic(opts.input_seed(), a.n(), SOLO_POOL);
        let make_ctx = |traced: bool| {
            if traced {
                traced_ctx(a.n(), &tracer)
            } else {
                plain_ctx(a.n())
            }
        };
        let mut solo_ctx = make_ctx(opts.trace);
        let mut svc_ctx = make_ctx(opts.trace);
        let mut serving = Serving {
            svc: SolverService::new(ServiceConfig::default().with_lanes(LANES)),
            a: &a,
            mix: &mix,
            next_req: 0,
            tracer: None,
        };
        // Warm-up: one full solo pass fills the solo graph cache; two
        // lane-fulls of requests fill the service's cache and pools.
        let mut unscored = Referee::default();
        drivers.measure(&mut solo_ctx, &solo_rhs, 0.0, &mut unscored, None);
        serving.phase(&mut svc_ctx, f64::INFINITY, 2 * LANES, &mut unscored);
        let warmup = t2.elapsed().as_secs_f64();
        setups.push(SetupTimes {
            total: t0.elapsed().as_secs_f64(),
            matgen,
            store,
            warmup,
        });
        if rep + 1 < setup_reps {
            continue;
        }
        tracer.clear();
        let referee = &mut report.referee;
        let t = opts.trace.then_some(&*tracer);
        serving.tracer = t;

        // Untraced solo baseline (traced runs only: overhead and parity).
        let untraced = if opts.trace {
            let mut ctx = plain_ctx(a.n());
            drivers.measure(&mut ctx, &solo_rhs, 0.0, &mut Referee::default(), None);
            drivers.measure(&mut ctx, &solo_rhs, SOLO_SHARE * s, referee, None)
        } else {
            Vec::new()
        };
        let stream0 = stream_sum(&solo_ctx, &svc_ctx);
        let solo = drivers.measure(&mut solo_ctx, &solo_rhs, SOLO_SHARE * s, referee, t);
        let stats0 = serving.svc.stats();

        let mut caps = Vec::new();
        for _ in 0..CAL_BATCHES {
            let ph = serving.phase(&mut svc_ctx, f64::INFINITY, CAL_SIZE, referee);
            caps.push(CAL_SIZE as f64 / ph.seconds);
        }
        let capacity = quartiles(&caps).1;
        let phases: Vec<Phase> = RATE_FRACTIONS
            .iter()
            .zip(RATE_SHARES.iter().zip(RATE_MIN_WINDOW_S))
            .map(|(&f, (share, min_window))| {
                let rate = f * capacity;
                let count = ((rate * (share * s).max(min_window)).round() as usize).max(1);
                serving.phase(&mut svc_ctx, rate, count, referee)
            })
            .collect();
        let stats1 = serving.svc.stats();
        let stream1 = stream_sum(&solo_ctx, &svc_ctx);

        // Simulated latency under the repo's cycle-credit drive.
        let mut sim_ctx = plain_ctx(a.n());
        let drive = drive_with(
            &mut sim_ctx,
            &a,
            config(1e-10),
            LANES,
            &mix.rhs,
            1.0,
            &DriveOpts::default(),
        );
        let mut sim_lat = Vec::new();
        // Outcomes come back sorted by id, i.e. in submission order.
        for (o, b) in drive.outcomes.iter().zip(&mix.rhs) {
            sim_lat.push(o.queued_seconds + o.solve_seconds);
            referee.check(a.csr(), b, &o.x, o.result.as_ref().map(|r| r.status), 1e-10);
        }
        sim_lat.sort_by(f64::total_cmp);
        let sim_p99 = quantile(&sim_lat, 0.99);

        report.line(format!(
            "workload serve_open: n = {}, {LANES} lanes, GMRES({M}), {POOL}-request seeded mix \
             (a quarter at rtol 1e-6, the rest 1e-10), closed-loop capacity {capacity:.1} req/s \
             (median of {CAL_BATCHES} x {CAL_SIZE}), latency limit {LATENCY_LIMIT_S} s on p99, \
             {setup_reps} set-ups",
            a.n()
        ));
        report.line(format!(
            "  {:>9} {:>9} {:>9} {:>10} {:>10} {:>8} {:>10} {:>5}",
            "rate_rps", "x_cap", "requests", "p50_s", "p99_s", "backlog", "lag_p99_s", "slo"
        ));
        for (ph, f) in phases.iter().zip(RATE_FRACTIONS) {
            let mut lags = ph.lags.clone();
            lags.sort_by(f64::total_cmp);
            report.line(format!(
                "  {:>9.1} {:>9.2} {:>9} {:>10.5} {:>10.5} {:>8} {:>10.6} {:>5}",
                ph.rate,
                f,
                ph.submitted,
                ph.p(0.5),
                ph.p(0.99),
                ph.backlog_end,
                quantile(&lags, 0.99),
                if ph.meets_slo() { "ok" } else { "miss" }
            ));
        }
        let nominal = &phases[0];
        let mut lags = nominal.lags.clone();
        lags.sort_by(f64::total_cmp);
        let lag_p99 = quantile(&lags, 0.99);

        if !opts.trace {
            for (kind, tag) in [(Kind::Fp64, "fp64"), (Kind::Ir, "ir")] {
                let walls: Vec<f64> = solo
                    .iter()
                    .filter(|r| r.kind == kind)
                    .map(|r| r.wall)
                    .collect();
                let (q1, med, q3) = quartiles(&walls);
                report.e2e(
                    &format!("wall_s.{tag}"),
                    med,
                    "s",
                    format!("solo solve; q1 {q1:.6} q3 {q3:.6}, {} solves", walls.len()),
                );
            }
            for (kind, tag) in [(Kind::Fp64, "fp64"), (Kind::Ir, "ir")] {
                report.e2e(
                    &format!("sim_s.{tag}"),
                    pool_mean(&solo, kind, |r| r.sim),
                    "sim_s",
                    "solo solve, simulated V100".into(),
                );
            }
            for (kind, tag) in [(Kind::Fp64, "fp64"), (Kind::Ir, "ir")] {
                report.e2e(
                    &format!("iters.{tag}"),
                    pool_mean(&solo, kind, |r| r.iters as f64),
                    "count",
                    "solo solve".into(),
                );
            }
            let note = format!(
                "at the nominal {:.1} req/s, {} requests",
                nominal.rate,
                nominal.latencies.len()
            );
            report.e2e("latency_p50_s", nominal.p(0.5), "s", note.clone());
            report.e2e("latency_p99_s", nominal.p(0.99), "s", note);
            let slo = phases
                .iter()
                .filter(|p| p.meets_slo())
                .map(|p| p.rate)
                .fold(0.0, f64::max);
            report.e2e(
                "slo_rate_rps",
                slo,
                "1/s",
                format!(
                    "highest fixed rate with p99 <= {LATENCY_LIMIT_S} s and no growing backlog"
                ),
            );
            report.e2e(
                "sim_latency_p99_s",
                sim_p99,
                "sim_s",
                format!(
                    "drive_with at 1 arrival per cycle, {} requests",
                    drive.outcomes.len()
                ),
            );
            layers::common_end_to_end(&mut report, &setups);
            return report;
        }

        let spmv = spmv_per_store(&mut plain_ctx(a.n()), &a, &shadows);
        report.parity = check_parity(&mut report, &untraced, &solo);
        let d_hist: Vec<usize> = stats1
            .wait_hist
            .iter()
            .zip(stats0.wait_hist)
            .map(|(a, b)| a - b)
            .collect();
        // Bucket midpoints of [0, 1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+].
        let mids = [0.0, 1.0, 2.5, 5.5, 11.5, 23.5, 47.5, 64.0];
        let waits: usize = d_hist.iter().sum();
        let cycles = stats1.cycles - stats0.cycles;
        let service = ServiceLayer {
            cycles: cycles as f64,
            admissions: (stats1.admissions - stats0.admissions) as f64,
            occupancy: (stats1.lane_cycles - stats0.lane_cycles) as f64
                / (cycles * stats1.lanes_per_group).max(1) as f64,
            queue_wait_cycles: d_hist
                .iter()
                .zip(mids)
                .map(|(&c, m)| c as f64 * m)
                .sum::<f64>()
                / waits.max(1) as f64,
            payload_allocs: nominal.payload_allocs as f64,
            sheds: (stats1.sheds - stats0.sheds) as f64,
            lag_p99_s: lag_p99,
        };
        layers::emit(
            &mut report,
            &LayerInputs {
                tracer: &tracer,
                triad_gbs: triad,
                stream: (stream0, stream1),
                solves: SolveTotals::of(&untraced, &solo),
                spmv,
                service: Some(service),
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

//! Time to a verified fp64 solution, on the host clock and the simulated
//! V100 clock, for three named workloads (see `README.md` in this
//! directory for the metric definitions and why each workload exists).
//!
//! Every answer is refereed outside the solver: [`Referee`] recomputes
//! the true fp64 relative residual against the original fp64 matrix.

pub mod layers;
pub mod machine;
pub mod serve;
pub mod solve;
pub mod trace;

use std::path::PathBuf;

use mpgmres::prelude::*;
use mpgmres_bench::experiments::serving::quantile;
use mpgmres_gpusim::PaperCategory;
use mpgmres_la::csr::Csr;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Laplace64,
    Implicit3000,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Laplace64,
        Workload::Implicit3000,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Laplace64 => "laplace64",
            Workload::Implicit3000 => "implicit3000",
            Workload::ServeOpen => "serve_open",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings (the command line).
#[derive(Clone, Debug)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Which of a run's processes this is: each draws its own inputs
    /// from `(seed, part)`, so a run of several processes covers more
    /// distinct inputs and more memory layouts.
    pub part: u64,
    /// Host seconds the measured phase runs for (at least one full
    /// pass of the workload's inputs).
    pub seconds: f64,
    /// Per-layer run: an untraced pass, then the same work traced.
    pub trace: bool,
    /// Tiny problem sizes (the benchmark's own smoke test).
    pub tiny: bool,
    /// Corrupt the first verified solution before the referee sees it
    /// (the smoke test's proof that a wrong answer is counted).
    pub corrupt: bool,
    /// Where a traced run writes its spans (CSV).
    pub spans_out: Option<PathBuf>,
}

impl Options {
    /// The seed every generated input of this process derives from.
    pub fn input_seed(&self) -> u64 {
        self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ self.part
    }
}

/// One named metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Printed beside the value (`computed`, `unvalidated`, quartiles).
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced runs).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (traced runs).
    pub per_layer: Vec<Metric>,
    /// Human-readable lines printed before the metrics.
    pub lines: Vec<String>,
    pub referee: Referee,
    /// Traced solutions reproduced the untraced bits and iteration
    /// counts (always true for untraced runs).
    pub parity: bool,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        self.end_to_end.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.per_layer.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        });
    }

    pub fn line(&mut self, s: String) {
        self.lines.push(s);
    }

    /// Whether every answer was verified and parity held.
    pub fn correct(&self) -> bool {
        self.referee.failed == 0 && self.referee.attempted > 0 && self.parity
    }
}

/// Counts verified answers. A solve or request fails when its status
/// is not `Converged`, when its recomputed fp64 residual is above its
/// rtol, or when it was refused, shed or expired.
#[derive(Clone, Debug, Default)]
pub struct Referee {
    pub attempted: u64,
    pub failed: u64,
    /// Largest recomputed relative residual over rtol seen.
    pub worst_ratio: f64,
    /// Corrupt the next checked solution (see [`Options::corrupt`]).
    pub corrupt_next: bool,
}

impl Referee {
    /// Check one answer; returns whether it passed.
    pub fn check(
        &mut self,
        a: &Csr<f64>,
        b: &[f64],
        x: &[f64],
        status: Option<SolveStatus>,
        rtol: f64,
    ) -> bool {
        self.attempted += 1;
        let rel = if std::mem::take(&mut self.corrupt_next) {
            let mut bad = x.to_vec();
            bad[0] += 1.0;
            true_relative_residual(a, b, &bad)
        } else {
            true_relative_residual(a, b, x)
        };
        self.worst_ratio = self.worst_ratio.max(rel / rtol);
        let ok = status == Some(SolveStatus::Converged) && rel <= rtol;
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// Count a refused, shed or expired request.
    pub fn refused(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    pub fn fail_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// `||b - A x|| / ||b||` in plain sequential fp64, independent of every
/// kernel the solvers use.
pub fn true_relative_residual(a: &Csr<f64>, b: &[f64], x: &[f64]) -> f64 {
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.vals());
    let mut rr = 0.0f64;
    let mut bb = 0.0f64;
    for r in 0..a.nrows() {
        let mut ax = 0.0f64;
        for k in rp[r]..rp[r + 1] {
            ax += v[k] * x[ci[k] as usize];
        }
        let d = b[r] - ax;
        rr += d * d;
        bb += b[r] * b[r];
    }
    (rr / bb).sqrt()
}

/// The simulated device: a V100 with latencies scaled to the paper's
/// 2.25M-row protocol for problems smaller than it (the repo's
/// convention for downscaled instances; see `tests/paper_shapes.rs`).
pub fn device_for(n: usize) -> DeviceModel {
    DeviceModel::v100_belos().scaled_latencies((n as f64 / 2_250_000.0).min(1.0))
}

/// 64-bit FNV-1a over a solution's bits (traced/untraced parity).
pub fn bits_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Median and quartiles (nearest rank) of unsorted samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// Metric-name stem of a paper category (`sim.<stem>_s`).
pub fn category_stem(c: PaperCategory) -> &'static str {
    match c {
        PaperCategory::GemvTrans => "gemv_t",
        PaperCategory::Norm => "norm",
        PaperCategory::GemvNoTrans => "gemv_n",
        PaperCategory::SpMV => "spmv",
        PaperCategory::Other => "other",
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::Laplace64 | Workload::Implicit3000 => solve::run(opts),
        Workload::ServeOpen => serve::run(opts),
    }
}

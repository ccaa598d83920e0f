//! Incremental Givens-rotation least squares for the Arnoldi Hessenberg
//! matrix.
//!
//! GMRES minimizes `||gamma e1 - Hbar y||` where `Hbar` is the
//! `(j+1) x j` Hessenberg matrix after `j` Arnoldi steps. Applying one new
//! Givens rotation per column keeps `Hbar` upper triangular as it grows,
//! and the absolute value of the last rotated right-hand-side entry is the
//! **implicit residual norm** — the quantity Belos monitors every
//! iteration without forming `x` (paper §V-F). When rounding makes this
//! implicit value diverge from the explicitly computed `||b - A x||`,
//! Belos declares "loss of accuracy"; we reproduce that check in the
//! solver crate.

use mpgmres_scalar::Scalar;

/// Growing least-squares factorization of the GMRES Hessenberg matrix.
#[derive(Clone, Debug)]
pub struct GivensLsq<S> {
    max_m: usize,
    j: usize,
    /// Rotated upper-triangular columns, column-major with stride max_m.
    r: Vec<S>,
    cos: Vec<S>,
    sin: Vec<S>,
    /// Rotated right-hand side, length max_m + 1.
    g: Vec<S>,
}

impl<S: Scalar> GivensLsq<S> {
    /// Start a new cycle with initial residual norm `gamma` and room for
    /// `max_m` columns.
    pub fn new(max_m: usize, gamma: S) -> Self {
        let mut g = vec![S::zero(); max_m + 1];
        g[0] = gamma;
        GivensLsq {
            max_m,
            j: 0,
            r: vec![S::zero(); max_m * max_m],
            cos: Vec::with_capacity(max_m),
            sin: Vec::with_capacity(max_m),
            g,
        }
    }

    /// Number of columns absorbed so far.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.j
    }

    /// Append Hessenberg column `h[0..=j+1]` (length `j+2`), apply all
    /// previous rotations plus one new rotation, and return the updated
    /// implicit residual norm `|g[j+1]|`.
    pub fn push_column(&mut self, h: &[S]) -> S {
        let j = self.j;
        assert!(j < self.max_m, "GivensLsq: cycle is full");
        assert_eq!(h.len(), j + 2, "push_column expects j+2 entries");
        let col = &mut self.r[j * self.max_m..(j + 1) * self.max_m];
        // Apply existing rotations to the new column.
        let mut hj = h.to_vec();
        for i in 0..j {
            let (c, s) = (self.cos[i], self.sin[i]);
            let t0 = c.mul_add(hj[i], s * hj[i + 1]);
            let t1 = (-s).mul_add(hj[i], c * hj[i + 1]);
            hj[i] = t0;
            hj[i + 1] = t1;
        }
        // Generate the rotation annihilating the subdiagonal.
        let (a, b) = (hj[j], hj[j + 1]);
        let (c, s, rr) = givens(a, b);
        self.cos.push(c);
        self.sin.push(s);
        hj[j] = rr;
        // Store the triangular part.
        col[..=j].copy_from_slice(&hj[..=j]);
        // Rotate the right-hand side.
        let g0 = self.g[j];
        self.g[j] = c * g0;
        self.g[j + 1] = -s * g0;
        self.j += 1;
        self.g[j + 1].abs()
    }

    /// Current implicit residual norm `|g[j]|`.
    #[inline]
    pub fn implicit_residual(&self) -> S {
        self.g[self.j].abs()
    }

    /// Solve the triangular system for the first `k <= j` coefficients
    /// (the GMRES correction in the Krylov basis). `k = ncols()` uses the
    /// whole subspace.
    pub fn solve(&self, k: usize) -> Vec<S> {
        assert!(k <= self.j, "cannot solve beyond absorbed columns");
        let mut y = self.g[..k].to_vec();
        for i in (0..k).rev() {
            let col_i = &self.r[i * self.max_m..];
            let mut acc = y[i];
            for (l, yl) in y.iter().enumerate().take(k).skip(i + 1) {
                let r_il = self.r[l * self.max_m + i];
                acc = (-r_il).mul_add(*yl, acc);
            }
            y[i] = acc / col_i[i];
        }
        y
    }

    /// `true` if the diagonal of the triangular factor carries a
    /// (near-)zero or non-finite pivot, which makes `solve` unreliable.
    pub fn is_degenerate(&self) -> bool {
        (0..self.j).any(|i| {
            let d = self.r[i * self.max_m + i];
            !(d.abs() > S::zero()) || !d.is_finite()
        })
    }
}

/// Compute `(c, s, r)` with `c*a + s*b = r`, `-s*a + c*b = 0`, `c^2+s^2=1`.
fn givens<S: Scalar>(a: S, b: S) -> (S, S, S) {
    if b == S::zero() {
        if a == S::zero() {
            return (S::one(), S::zero(), S::zero());
        }
        return (S::one(), S::zero(), a);
    }
    // Hypot without overflow: scale by the larger magnitude.
    let (aa, ab) = (a.abs(), b.abs());
    let scale = if aa > ab { aa } else { ab };
    let (an, bn) = (a / scale, b / scale);
    let r = scale * (an * an + bn * bn).sqrt();
    (a / r, b / r, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn givens_annihilates() {
        let (c, s, r) = givens(3.0f64, 4.0);
        assert!((r - 5.0).abs() < 1e-14);
        assert!((-s * 3.0 + c * 4.0).abs() < 1e-14);
        assert!((c * c + s * s - 1.0).abs() < 1e-14);
    }

    #[test]
    fn givens_zero_cases() {
        let (c, s, r) = givens(0.0f64, 0.0);
        assert_eq!((c, s, r), (1.0, 0.0, 0.0));
        let (c, s, r) = givens(2.0f64, 0.0);
        assert_eq!((c, s, r), (1.0, 0.0, 2.0));
    }

    #[test]
    fn one_column_reduces_residual_correctly() {
        // Hbar = [[2],[1]], gamma = 1. After rotation, residual should be
        // |gamma| * |sin of the angle| = 1/sqrt(5) * 1 ... compute directly:
        // c = 2/sqrt5, s = 1/sqrt5; g = (c*1, -s*1); residual = 1/sqrt5.
        let mut lsq = GivensLsq::new(3, 1.0f64);
        let res = lsq.push_column(&[2.0, 1.0]);
        assert!((res - 1.0 / 5.0f64.sqrt()).abs() < 1e-14);
        let y = lsq.solve(1);
        // minimizes ||e1 - [2,1]^T y||: y = 2/5.
        assert!((y[0] - 0.4).abs() < 1e-14);
    }

    #[test]
    fn agrees_with_brute_force_least_squares() {
        // Random 4-column Hessenberg; compare against solving the normal
        // equations densely.
        let m = 4;
        let gamma = 2.5f64;
        let cols: Vec<Vec<f64>> = vec![
            vec![1.0, 0.5],
            vec![0.3, 1.2, 0.7],
            vec![-0.2, 0.4, 0.9, 0.25],
            vec![0.1, -0.3, 0.55, 1.1, 0.6],
        ];
        let mut lsq = GivensLsq::new(m, gamma);
        for col in &cols {
            lsq.push_column(col);
        }
        let y = lsq.solve(m);

        // Dense Hbar (5x4) and normal equations Hbar^T Hbar y = Hbar^T (gamma e1).
        let mut hb = crate::dense::DenseMat::<f64>::zeros(m + 1, m);
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                hb[(i, j)] = v;
            }
        }
        let ht = hb.transpose();
        let hth = ht.matmul(&hb);
        let mut rhs = vec![0.0; m];
        let mut e1 = vec![0.0; m + 1];
        e1[0] = gamma;
        ht.matvec(&e1, &mut rhs);
        let lu = crate::dense::LuFactors::factor(&hth).unwrap();
        let y_ref = lu.solve(&rhs);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 1e-10, "Givens {a} vs normal eq {b}");
        }
        // Residual norm check: ||gamma e1 - Hbar y|| == implicit residual.
        let mut hy = vec![0.0; m + 1];
        hb.matvec(&y, &mut hy);
        let explicit: f64 = e1
            .iter()
            .zip(&hy)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!((explicit - lsq.implicit_residual()).abs() < 1e-12);
    }

    #[test]
    fn residual_monotonically_nonincreasing() {
        let mut lsq = GivensLsq::new(5, 1.0f64);
        let mut prev = 1.0f64;
        let cols: Vec<Vec<f64>> = vec![
            vec![0.9, 0.8],
            vec![0.1, 1.0, 0.6],
            vec![0.0, 0.2, 1.1, 0.5],
            vec![0.3, 0.0, 0.1, 0.9, 0.4],
            vec![0.05, 0.1, 0.0, 0.2, 1.0, 0.3],
        ];
        for col in &cols {
            let r = lsq.push_column(col);
            assert!(r <= prev + 1e-15, "residual increased: {r} > {prev}");
            prev = r;
        }
    }

    #[test]
    fn lucky_breakdown_column_gives_zero_subdiag() {
        // h[j+1] = 0 (lucky breakdown): rotation is identity, residual
        // becomes 0 if the column solves the system exactly... here just
        // check no NaN and residual equals |previous g| * 0 when the new
        // column kills it.
        let mut lsq = GivensLsq::new(2, 1.0f64);
        let r1 = lsq.push_column(&[1.0, 0.0]);
        assert_eq!(r1, 0.0);
        assert!(!lsq.is_degenerate());
        let y = lsq.solve(1);
        assert_eq!(y[0], 1.0);
    }

    #[test]
    fn degenerate_detection() {
        let mut lsq = GivensLsq::new(2, 1.0f64);
        lsq.push_column(&[0.0, 0.0]);
        assert!(lsq.is_degenerate());
    }

    #[test]
    fn works_in_f32() {
        let mut lsq = GivensLsq::new(2, 1.0f32);
        lsq.push_column(&[1.0, 0.5]);
        lsq.push_column(&[0.25, 1.5, 0.75]);
        let y = lsq.solve(2);
        assert!(y.iter().all(|v| v.is_finite()));
        assert!(lsq.implicit_residual() < 1.0);
    }

    #[test]
    #[should_panic(expected = "cycle is full")]
    fn overflow_panics() {
        let mut lsq = GivensLsq::new(1, 1.0f64);
        lsq.push_column(&[1.0, 0.1]);
        lsq.push_column(&[1.0, 0.1, 0.0]);
    }
}

//! Shared substrate for the three simulated-CFD applications (BT, SP, LU).
//!
//! All three NAS pseudo-applications solve the same implicitly discretized
//! PDE system with different factorizations: block-tridiagonal line solves
//! (BT), scalar pentadiagonal line solves (SP), and SSOR sweeps (LU). We
//! mirror that structure on a model problem with the same shape —
//! a 5-component coupled elliptic system
//!
//! ```text
//!   M u = f,   M = I + σ·L ⊗ I₅ + ε·Ĉ
//! ```
//!
//! where `L` is the periodic 7-point Laplacian and `Ĉ` a constant symmetric
//! 5×5 inter-component coupling. `M` is symmetric positive definite, so
//! each method's convergence is provable and *verified* on every run:
//! the preconditioned Richardson iteration (BT/SP) and SSOR (LU) must
//! contract the true residual.
//!
//! Everything that depends only on the operator is computed once: BT's and
//! SP's line systems are factored per sweep ([`BlockCyclic`],
//! [`PentaCyclic`]) and every constant 5×5 block once ([`Lu5`]), and a
//! right-hand side then takes exactly the floating-point operations, in
//! the order, that eliminating afresh gave it — every value is
//! bit-identical to the one-shot solvers.

use paxsim_omp::prelude::*;

/// Number of solution components per grid cell (as in NAS CFD codes).
pub const NC: usize = 5;
/// Implicit diffusion weight σ.
pub const SIGMA: f64 = 0.05;
/// Component coupling weight ε.
pub const EPS: f64 = 0.02;

/// The constant symmetric coupling matrix Ĉ (unit diagonal dominance kept
/// by EPS scaling at use sites).
pub const COUPLE: [[f64; NC]; NC] = [
    [2.0, 0.5, 0.0, 0.0, 0.3],
    [0.5, 2.0, 0.5, 0.0, 0.0],
    [0.0, 0.5, 2.0, 0.5, 0.0],
    [0.0, 0.0, 0.5, 2.0, 0.5],
    [0.3, 0.0, 0.0, 0.5, 2.0],
];

/// A periodic cubic grid of `n³` cells × `NC` components, flattened as
/// `c + NC·(i + n·(j + n·k))`.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    pub n: usize,
}

impl Grid {
    pub fn new(n: usize) -> Self {
        assert!(n >= 4);
        Self { n }
    }

    #[inline]
    pub fn cell(&self, i: usize, j: usize, k: usize) -> usize {
        i + self.n * (j + self.n * k)
    }

    #[inline]
    pub fn at(&self, c: usize, i: usize, j: usize, k: usize) -> usize {
        c + NC * self.cell(i, j, k)
    }

    #[inline]
    pub fn wrap(&self, i: isize) -> usize {
        i.rem_euclid(self.n as isize) as usize
    }

    pub fn cells(&self) -> usize {
        self.n * self.n * self.n
    }

    pub fn values(&self) -> usize {
        NC * self.cells()
    }
}

/// Native (untraced) application of M: out = u + σ(6u − Σnb) + ε·Ĉu.
pub fn apply_m_native(g: &Grid, u: &[f64], out: &mut [f64]) {
    each_m_native(g, u, |id, m| out[id] = m);
}

/// Native residual norm ‖f − M·u‖₂, summed in index order without
/// holding M·u.
pub fn residual_norm_native(g: &Grid, u: &[f64], f: &[f64]) -> f64 {
    let mut sum = 0.0;
    each_m_native(g, u, |id, m| sum += (f[id] - m) * (f[id] - m));
    sum.sqrt()
}

/// Every value of M·u with its index, in index order.
fn each_m_native(g: &Grid, u: &[f64], mut value: impl FnMut(usize, f64)) {
    let n = g.n;
    for k in 0..n {
        for j in 0..n {
            for i in 0..n {
                for c in 0..NC {
                    let id = g.at(c, i, j, k);
                    let nb = u[g.at(c, g.wrap(i as isize - 1), j, k)]
                        + u[g.at(c, g.wrap(i as isize + 1), j, k)]
                        + u[g.at(c, i, g.wrap(j as isize - 1), k)]
                        + u[g.at(c, i, g.wrap(j as isize + 1), k)]
                        + u[g.at(c, i, j, g.wrap(k as isize - 1))]
                        + u[g.at(c, i, j, g.wrap(k as isize + 1))];
                    let mut couple = 0.0;
                    for c2 in 0..NC {
                        couple += COUPLE[c][c2] * u[g.at(c2, i, j, k)];
                    }
                    value(id, u[id] + SIGMA * (6.0 * u[id] - nb) + EPS * couple);
                }
            }
        }
    }
}

/// Traced residual: r = f − M·u, parallel over k-planes.
///
/// The numerics run natively per cell; the trace records memory traffic at
/// cache-line granularity (one touch per 5-component cell — a 40 B record
/// — per stencil leg), which keeps traces compact while preserving the
/// bandwidth-per-flop signature of the real 5-variable CFD stencils.
/// `site` is the benchmark's basic-block base for this phase.
pub fn compute_residual(
    team: &mut Team,
    site: u32,
    g: Grid,
    u: &Array<f64>,
    f: &Array<f64>,
    r: &mut Array<f64>,
) {
    let n = g.n;
    team.parallel("cfd.rhs", |p| {
        p.for_static(site, 5, n, |p, k| {
            for j in 0..n {
                p.block(site + 1, 2);
                for i in 0..n {
                    p.block(site + 2, 4);
                    let im = g.wrap(i as isize - 1);
                    let ip = g.wrap(i as isize + 1);
                    let jm = g.wrap(j as isize - 1);
                    let jp = g.wrap(j as isize + 1);
                    let km = g.wrap(k as isize - 1);
                    let kp = g.wrap(k as isize + 1);
                    // Native math over the full coupled stencil.
                    let mut cell = [0.0; NC];
                    for (c, v) in cell.iter_mut().enumerate() {
                        *v = u.get(g.at(c, i, j, k));
                    }
                    for c in 0..NC {
                        let nb = u.get(g.at(c, im, j, k))
                            + u.get(g.at(c, ip, j, k))
                            + u.get(g.at(c, i, jm, k))
                            + u.get(g.at(c, i, jp, k))
                            + u.get(g.at(c, i, j, km))
                            + u.get(g.at(c, i, j, kp));
                        let mut couple = 0.0;
                        for c2 in 0..NC {
                            couple += COUPLE[c][c2] * cell[c2];
                        }
                        let mu = cell[c] + SIGMA * (6.0 * cell[c] - nb) + EPS * couple;
                        r.set(g.at(c, i, j, k), f.get(g.at(c, i, j, k)) - mu);
                    }
                    // Traffic: the center record (spans two lines), one
                    // touch per neighbour record, the forcing record, and
                    // the residual store.
                    p.raw_load(u.addr(g.at(0, i, j, k)));
                    p.raw_load(u.addr(g.at(NC - 1, i, j, k)));
                    p.raw_load(u.addr(g.at(0, im, j, k)));
                    p.raw_load(u.addr(g.at(0, ip, j, k)));
                    p.raw_load(u.addr(g.at(0, i, jm, k)));
                    p.raw_load(u.addr(g.at(0, i, jp, k)));
                    p.raw_load(u.addr(g.at(0, i, j, km)));
                    p.raw_load(u.addr(g.at(0, i, j, kp)));
                    p.raw_load(f.addr(g.at(0, i, j, k)));
                    p.raw_store(r.addr(g.at(0, i, j, k)));
                    p.raw_store(r.addr(g.at(NC - 1, i, j, k)));
                    p.flops(20);
                    p.branch(site + 2, i + 1 < n);
                }
                p.branch(site + 1, j + 1 < n);
            }
        });
    });
}

// ---------------------------------------------------------------------------
// Dense 5×5 block operations (BT's workhorse).
// ---------------------------------------------------------------------------

pub type Block = [[f64; NC]; NC];
pub type Vec5 = [f64; NC];

/// y = A·x.
pub fn matvec(a: &Block, x: &Vec5) -> Vec5 {
    let mut y = [0.0; NC];
    for r in 0..NC {
        for c in 0..NC {
            y[r] += a[r][c] * x[c];
        }
    }
    y
}

/// C = A·B.
pub fn matmul(a: &Block, b: &Block) -> Block {
    let mut out = [[0.0; NC]; NC];
    for r in 0..NC {
        for c in 0..NC {
            for k in 0..NC {
                out[r][c] += a[r][k] * b[k][c];
            }
        }
    }
    out
}

/// A 5×5 block factored once by Gaussian elimination with partial
/// pivoting: the row each step swapped in, the multipliers it eliminated
/// with, and the upper factor. [`Lu5::solve`] gives a right-hand side
/// exactly the operations the one-shot elimination gave it, in the same
/// order, so solving against a factored block is bit-identical to
/// eliminating the block afresh beside every right-hand side.
#[derive(Debug, Clone, Copy)]
pub struct Lu5 {
    /// `piv[col]`: the row swapped with row `col` at step `col`.
    piv: [usize; NC],
    /// `mul[r][col]` (`r > col`): the multiple of pivot row `col` that step
    /// `col` subtracted from row `r`.
    mul: Block,
    /// The eliminated block; its upper triangle is the upper factor.
    upper: Block,
}

impl Lu5 {
    /// Factor `a`. Panics on a (numerically) singular block — never
    /// happens for the diagonally dominant blocks the benchmarks build.
    pub fn new(a: &Block) -> Self {
        let mut m = *a;
        let mut piv = [0; NC];
        let mut mul = [[0.0; NC]; NC];
        for col in 0..NC {
            let mut p = col;
            for r in col + 1..NC {
                if m[r][col].abs() > m[p][col].abs() {
                    p = r;
                }
            }
            assert!(m[p][col].abs() > 1e-12, "singular 5x5 block");
            m.swap(col, p);
            piv[col] = p;
            let d = m[col][col];
            for r in col + 1..NC {
                let fct = m[r][col] / d;
                for c in col..NC {
                    m[r][c] -= fct * m[col][c];
                }
                mul[r][col] = fct;
            }
        }
        Self { piv, mul, upper: m }
    }

    /// Solve A·x = b.
    pub fn solve(&self, b: &Vec5) -> Vec5 {
        let mut x = *b;
        for col in 0..NC {
            x.swap(col, self.piv[col]);
            for r in col + 1..NC {
                x[r] -= self.mul[r][col] * x[col];
            }
        }
        for col in (0..NC).rev() {
            let mut s = x[col];
            for c in col + 1..NC {
                s -= self.upper[col][c] * x[c];
            }
            x[col] = s / self.upper[col][col];
        }
        x
    }

    /// Solve A·X = B for a block RHS, column by column.
    pub fn solve_block(&self, b: &Block) -> Block {
        let mut out = [[0.0; NC]; NC];
        for c in 0..NC {
            let x = self.solve(&std::array::from_fn(|r| b[r][c]));
            for r in 0..NC {
                out[r][c] = x[r];
            }
        }
        out
    }
}

/// Solve A·x = b by Gaussian elimination with partial pivoting (see
/// [`Lu5`]; factor once where `a` is shared by many right-hand sides).
pub fn solve5(a: &Block, b: &Vec5) -> Vec5 {
    Lu5::new(a).solve(b)
}

/// Solve A·X = B for a block RHS.
pub fn solve5_block(a: &Block, b: &Block) -> Block {
    Lu5::new(a).solve_block(b)
}

/// The one-direction implicit operator's blocks: diagonal
/// `D = (1 + 2σ)I + (ε/3)Ĉ` and off-diagonal `O = −σI` — so that the
/// product over three directions approximates `M` to O(σ²).
pub fn line_blocks() -> (Block, Block) {
    let mut d = [[0.0; NC]; NC];
    let mut o = [[0.0; NC]; NC];
    for r in 0..NC {
        for c in 0..NC {
            d[r][c] = EPS / 3.0 * COUPLE[r][c];
            if r == c {
                d[r][c] += 1.0 + 2.0 * SIGMA;
                o[r][c] = -SIGMA;
            }
        }
    }
    (d, o)
}

/// The *periodic* block-tridiagonal system `O·x[i−1] + D·x[i] + O·x[i+1]
/// = rhs[i]` over lines of one length, factored once: everything the
/// cyclic block-Thomas elimination computes from `(D, O)` and the line
/// length alone is kept here, and [`BlockCyclic::solve`] performs only the
/// operations a right-hand side takes part in — in the order the one-shot
/// solver performed them, so every `x` is bit-identical to its.
///
/// The cyclic system is condensed: write `x[i] = p[i] + Q[i]·x[m−1]` for
/// `i < m−1`, where `p` solves the open chain with `x[m−1] ≔ 0` and `Q`
/// propagates the influence of `x[m−1]` through both ends, then close the
/// loop with row `m−1`.
pub struct BlockCyclic {
    o: Block,
    /// Pivot blocks of the open chain's forward elimination, factored.
    diag: Vec<Lu5>,
    /// `Q[i]`: what one unit of `x[m−1]` adds to `x[i]`.
    qmat: Vec<Block>,
    /// The closing row's block, `D + O·Q[m−2] + O·Q[0]`, factored.
    lhs: Lu5,
}

impl BlockCyclic {
    /// Factor for lines of `m` cells.
    pub fn factor(d: &Block, o: &Block, m: usize) -> Self {
        assert!(m >= 3);
        let mm = m - 1;
        // Open-chain block Thomas for: O x[i-1] + D x[i] + O x[i+1] = r[i],
        // i = 0..mm, with the cyclic terms moved to the RHS:
        //   row 0 gains −O·x[m−1]; row mm−1 gains −O·x[m−1].
        // Forward elimination of the pivots and of Z (block rhs).
        let mut diag: Vec<Lu5> = Vec::with_capacity(mm);
        let mut z: Vec<Block> = vec![[[0.0; NC]; NC]; mm];
        let neg_o: Block = {
            let mut t = *o;
            for r in t.iter_mut().flatten() {
                *r = -*r;
            }
            t
        };
        for i in 0..mm {
            let mut dd = *d;
            let mut zz = [[0.0; NC]; NC];
            if i == 0 {
                zz = neg_o; // −O·x[m−1] influence on row 0
            }
            if i == mm - 1 {
                for r in 0..NC {
                    for c in 0..NC {
                        zz[r][c] += neg_o[r][c]; // and on the last open row
                    }
                }
            }
            if i > 0 {
                // Eliminate the subdiagonal O: row_i ← row_i − O·diag_{i−1}⁻¹·row_{i−1},
                // so dd ← dd − O·diag⁻¹·O.
                let correction = matmul(o, &diag[i - 1].solve_block(o));
                for r in 0..NC {
                    for c in 0..NC {
                        dd[r][c] -= correction[r][c];
                    }
                }
                let oz = matmul(o, &diag[i - 1].solve_block(&z[i - 1]));
                for r in 0..NC {
                    for c in 0..NC {
                        zz[r][c] -= oz[r][c];
                    }
                }
            }
            diag.push(Lu5::new(&dd));
            z[i] = zz;
        }
        // Back substitution of the block rhs: Q[i] = diag⁻¹(Z[i] − O·Q[i+1]).
        let mut qmat: Vec<Block> = vec![[[0.0; NC]; NC]; mm];
        for i in (0..mm).rev() {
            let mut zz = z[i];
            if i + 1 < mm {
                let oq = matmul(o, &qmat[i + 1]);
                for r in 0..NC {
                    for c in 0..NC {
                        zz[r][c] -= oq[r][c];
                    }
                }
            }
            qmat[i] = diag[i].solve_block(&zz);
        }
        // Row m−1: O·x[m−2] + D·x[m−1] + O·x[0] = r[m−1], i.e.
        //   O·(p[m−2] + Q[m−2]w) + D·w + O·(p[0] + Q[0]w) = r[m−1]
        let mut lhs = *d;
        let t1 = matmul(o, &qmat[mm - 1]);
        let t2 = matmul(o, &qmat[0]);
        for r in 0..NC {
            for c in 0..NC {
                lhs[r][c] += t1[r][c] + t2[r][c];
            }
        }
        Self {
            o: *o,
            diag,
            qmat,
            lhs: Lu5::new(&lhs),
        }
    }

    /// Solve one line (`rhs.len()` is the `m` this was factored for).
    pub fn solve(&self, rhs: &[Vec5]) -> Vec<Vec5> {
        let (o, diag) = (&self.o, &self.diag);
        let mm = diag.len();
        assert_eq!(rhs.len(), mm + 1, "factored for another line length");
        // Forward elimination of the numeric rhs.
        let mut y: Vec<Vec5> = vec![[0.0; NC]; mm];
        for i in 0..mm {
            let mut rr = rhs[i];
            if i > 0 {
                let oy = matvec(o, &diag[i - 1].solve(&y[i - 1]));
                for r in 0..NC {
                    rr[r] -= oy[r];
                }
            }
            y[i] = rr;
        }
        // Back substitution: p[i] = diag⁻¹(y[i] − O·p[i+1]).
        let mut pvec: Vec<Vec5> = vec![[0.0; NC]; mm];
        for i in (0..mm).rev() {
            let mut rr = y[i];
            if i + 1 < mm {
                let oy = matvec(o, &pvec[i + 1]);
                for r in 0..NC {
                    rr[r] -= oy[r];
                }
            }
            pvec[i] = diag[i].solve(&rr);
        }
        // Close the loop for w = x[m−1], then add its influence.
        let mut rr = rhs[mm];
        let o1 = matvec(o, &pvec[mm - 1]);
        let o2 = matvec(o, &pvec[0]);
        for r in 0..NC {
            rr[r] -= o1[r] + o2[r];
        }
        let w = self.lhs.solve(&rr);
        let mut x = vec![[0.0; NC]; mm + 1];
        x[mm] = w;
        for i in 0..mm {
            let qw = matvec(&self.qmat[i], &w);
            for r in 0..NC {
                x[i][r] = pvec[i][r] + qw[r];
            }
        }
        x
    }
}

/// Residual of the cyclic block-tridiagonal system (test/verify helper).
pub fn block_cyclic_residual(d: &Block, o: &Block, x: &[Vec5], rhs: &[Vec5]) -> f64 {
    let m = x.len();
    let mut s = 0.0;
    for i in 0..m {
        let left = &x[(i + m - 1) % m];
        let right = &x[(i + 1) % m];
        let dv = matvec(d, &x[i]);
        let lv = matvec(o, left);
        let rv = matvec(o, right);
        for r in 0..NC {
            let res = rhs[i][r] - (dv[r] + lv[r] + rv[r]);
            s += res * res;
        }
    }
    s.sqrt()
}

// ---------------------------------------------------------------------------
// Scalar pentadiagonal line solver (SP's workhorse).
// ---------------------------------------------------------------------------

/// The one-direction pentadiagonal stencil for SP: the tridiagonal
/// implicit operator squared-ish — `(1+2σ)` main, `−σ` first band, plus a
/// weak second band `σ²/4` for the pentadiagonal structure. Diagonally
/// dominant for σ < 0.4.
pub fn penta_coeffs() -> (f64, f64, f64) {
    let main = 1.0 + 2.0 * SIGMA + SIGMA * SIGMA / 2.0;
    let b1 = -SIGMA;
    let b2 = SIGMA * SIGMA / 4.0;
    (main, b1, b2)
}

/// The *periodic* pentadiagonal system with constant bands `(b2, b1, main,
/// b1, b2)` over lines of `m` unknowns, factored once. `m` is small (the
/// grid edge), so the cyclic matrix is taken as `C = B + U·Vᵀ` — `B` the
/// open banded matrix, `U`/`V` the four wraparound couplings (two per
/// corner) — and solved by Woodbury: `B y = rhs`, `B W = U`, `x = y −
/// W(I + VᵀW)⁻¹Vᵀy`. The banded LU of `B`, `W` and `I + VᵀW` do not depend
/// on the right-hand side and are kept here; [`PentaCyclic::solve`]
/// performs what does, in the order the one-shot solver did, so every `x`
/// is bit-identical to its.
pub struct PentaCyclic {
    /// Banded LU of `B` (bandwidth 2, no pivoting — diagonally dominant):
    /// pivots, sub-1 and sub-2 multipliers, super-1 band.
    d0: Vec<f64>,
    l1: Vec<f64>,
    l2: Vec<f64>,
    u1: Vec<f64>,
    /// `W = B⁻¹U`, one column per wraparound coupling.
    w: [Vec<f64>; 4],
    /// `S = I + VᵀW`.
    s: [[f64; 4]; 4],
}

impl PentaCyclic {
    /// Factor for lines of `m` unknowns.
    pub fn factor(m: usize) -> Self {
        assert!(m >= 5);
        let (dm, b1, b2) = penta_coeffs();
        let mut d0 = vec![dm; m];
        let mut l1 = vec![b1; m]; // sub-1 multipliers (in place)
        let mut l2 = vec![b2; m]; // sub-2 multipliers
        let mut u1 = vec![b1; m]; // super-1; super-2 stays `b2`
        for i in 0..m {
            if i + 1 < m {
                let f = l1[i + 1] / d0[i];
                d0[i + 1] -= f * u1[i];
                if i + 2 < m {
                    u1[i + 1] -= f * b2;
                }
                l1[i + 1] = f;
            }
            if i + 2 < m {
                let f = l2[i + 2] / d0[i];
                l1[i + 2] -= f * u1[i];
                d0[i + 2] -= f * b2;
                l2[i + 2] = f;
            }
        }
        let mut this = Self {
            d0,
            l1,
            l2,
            u1,
            w: Default::default(),
            s: [[0.0; 4]; 4],
        };
        // Corner couplings: row 0 ← x[m−1](b1) + x[m−2](b2); row 1 ← x[m−1](b2);
        // row m−1 ← x[0](b1) + x[1](b2); row m−2 ← x[0](b2).
        // Unit U columns at the affected rows, with V selecting the sources.
        this.w = [0, 1, m - 1, m - 2].map(|row| {
            let mut u = vec![0.0; m];
            u[row] = 1.0;
            this.solve_open(u)
        });
        for r in 0..4 {
            for c in 0..4 {
                this.s[r][c] = vt(r, &this.w[c]) + if r == c { 1.0 } else { 0.0 };
            }
        }
        this
    }

    /// `B⁻¹x`, in place: the factored forward elimination, then back
    /// substitution.
    fn solve_open(&self, mut x: Vec<f64>) -> Vec<f64> {
        let (_, _, b2) = penta_coeffs();
        let m = x.len();
        for i in 0..m {
            if i + 1 < m {
                x[i + 1] -= self.l1[i + 1] * x[i];
            }
            if i + 2 < m {
                x[i + 2] -= self.l2[i + 2] * x[i];
            }
        }
        for i in (0..m).rev() {
            let mut s = x[i];
            if i + 1 < m {
                s -= self.u1[i] * x[i + 1];
            }
            if i + 2 < m {
                s -= b2 * x[i + 2];
            }
            x[i] = s / self.d0[i];
        }
        x
    }

    /// Solve one line (`rhs.len()` is the `m` this was factored for).
    pub fn solve(&self, rhs: &[f64]) -> Vec<f64> {
        assert_eq!(rhs.len(), self.d0.len(), "factored for another line length");
        let y = self.solve_open(rhs.to_vec());
        // Solve S h = Vᵀy (tiny dense solve).
        let mut a = self.s;
        let mut h: [f64; 4] = std::array::from_fn(|r| vt(r, &y));
        for col in 0..4 {
            let mut piv = col;
            for r in col + 1..4 {
                if a[r][col].abs() > a[piv][col].abs() {
                    piv = r;
                }
            }
            a.swap(col, piv);
            h.swap(col, piv);
            for r in col + 1..4 {
                let f = a[r][col] / a[col][col];
                for c in col..4 {
                    a[r][c] -= f * a[col][c];
                }
                h[r] -= f * h[col];
            }
        }
        for col in (0..4).rev() {
            let mut sum = h[col];
            for c in col + 1..4 {
                sum -= a[col][c] * h[c];
            }
            h[col] = sum / a[col][col];
        }
        // x = y − Σ h[c]·w[c].
        let mut x = y;
        for c in 0..4 {
            for i in 0..x.len() {
                x[i] -= h[c] * self.w[c][i];
            }
        }
        x
    }
}

/// Row `col` of `Vᵀ` applied to `x`: the wraparound terms of one corner row.
fn vt(col: usize, x: &[f64]) -> f64 {
    let (_, b1, b2) = penta_coeffs();
    let m = x.len();
    match col {
        0 => b1 * x[m - 1] + b2 * x[m - 2],
        1 => b2 * x[m - 1],
        2 => b1 * x[0] + b2 * x[1],
        _ => b2 * x[0],
    }
}

/// Residual of the cyclic pentadiagonal system (test/verify helper).
pub fn penta_cyclic_residual(m: usize, x: &[f64], rhs: &[f64]) -> f64 {
    let (dm, b1, b2) = penta_coeffs();
    let mut s = 0.0;
    for i in 0..m {
        let v = dm * x[i]
            + b1 * (x[(i + 1) % m] + x[(i + m - 1) % m])
            + b2 * (x[(i + 2) % m] + x[(i + m - 2) % m]);
        let r = rhs[i] - v;
        s += r * r;
    }
    s.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve5_roundtrip() {
        let (d, _) = line_blocks();
        let b = [1.0, -2.0, 3.0, 0.5, 4.0];
        let x = solve5(&d, &b);
        let back = matvec(&d, &x);
        for r in 0..NC {
            assert!((back[r] - b[r]).abs() < 1e-10, "comp {r}");
        }
    }

    #[test]
    fn matmul_identity() {
        let (d, _) = line_blocks();
        let mut eye = [[0.0; NC]; NC];
        for i in 0..NC {
            eye[i][i] = 1.0;
        }
        let p = matmul(&d, &eye);
        assert_eq!(p, d);
    }

    #[test]
    fn solve5_block_inverts() {
        let (d, o) = line_blocks();
        let x = solve5_block(&d, &o);
        let back = matmul(&d, &x);
        for r in 0..NC {
            for c in 0..NC {
                assert!((back[r][c] - o[r][c]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn block_cyclic_solver_exact() {
        let (d, o) = line_blocks();
        for m in [3usize, 4, 7, 16] {
            let rhs: Vec<Vec5> = (0..m)
                .map(|i| std::array::from_fn(|c| ((i * NC + c) as f64).sin()))
                .collect();
            let x = BlockCyclic::factor(&d, &o, m).solve(&rhs);
            let res = block_cyclic_residual(&d, &o, &x, &rhs);
            assert!(res < 1e-9, "m={m}: residual {res}");
        }
    }

    #[test]
    fn penta_cyclic_solver_exact() {
        for m in [5usize, 8, 20, 33] {
            let rhs: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).cos()).collect();
            let x = PentaCyclic::factor(m).solve(&rhs);
            let res = penta_cyclic_residual(m, &x, &rhs);
            assert!(res < 1e-9, "m={m}: residual {res}");
        }
    }

    #[test]
    fn operator_is_symmetric_positive() {
        // xᵀMx > 0 for random x on a small grid.
        let g = Grid::new(6);
        let mut rng = crate::common::Randlc::new(5);
        let x: Vec<f64> = (0..g.values()).map(|_| rng.next_f64() - 0.5).collect();
        let mut mx = vec![0.0; g.values()];
        apply_m_native(&g, &x, &mut mx);
        let quad: f64 = x.iter().zip(mx.iter()).map(|(a, b)| a * b).sum();
        assert!(quad > 0.0, "xᵀMx = {quad}");
    }

    #[test]
    fn residual_zero_for_exact_rhs() {
        let g = Grid::new(5);
        let mut rng = crate::common::Randlc::new(9);
        let u: Vec<f64> = (0..g.values()).map(|_| rng.next_f64()).collect();
        let mut f = vec![0.0; g.values()];
        apply_m_native(&g, &u, &mut f);
        assert!(residual_norm_native(&g, &u, &f) < 1e-10);
    }

    /// The one-shot elimination [`Lu5`] replaced, kept as its oracle: pivot,
    /// eliminate and carry the right-hand side along, all in one pass.
    fn eliminate_once(a: &Block, b: &Vec5) -> Vec5 {
        let mut m = *a;
        let mut x = *b;
        for col in 0..NC {
            let mut piv = col;
            for r in col + 1..NC {
                if m[r][col].abs() > m[piv][col].abs() {
                    piv = r;
                }
            }
            assert!(m[piv][col].abs() > 1e-12, "singular 5x5 block");
            m.swap(col, piv);
            x.swap(col, piv);
            let d = m[col][col];
            for r in col + 1..NC {
                let fct = m[r][col] / d;
                for c in col..NC {
                    m[r][c] -= fct * m[col][c];
                }
                x[r] -= fct * x[col];
            }
        }
        for col in (0..NC).rev() {
            let mut s = x[col];
            for c in col + 1..NC {
                s -= m[col][c] * x[c];
            }
            x[col] = s / m[col][col];
        }
        x
    }

    /// A row-diagonally-dominant block from 25 off-diagonal draws, its rows
    /// then dealt out in the `perm`-th order of 5! (0 keeps them in place),
    /// so that partial pivoting has to put them back.
    fn dominant(vals: &[f64], perm: usize) -> Block {
        let mut a = [[0.0; NC]; NC];
        for r in 0..NC {
            let mut off = 0.0;
            for c in 0..NC {
                if r != c {
                    a[r][c] = vals[r * NC + c];
                    off += a[r][c].abs();
                }
            }
            a[r][r] = off + 1.0;
        }
        let mut rows: Vec<usize> = (0..NC).collect();
        let mut code = perm;
        let mut out = [[0.0; NC]; NC];
        for (slot, left) in (1..=NC).rev().enumerate() {
            out[slot] = a[rows.remove(code % left)];
            code /= left;
        }
        out
    }

    fn bits(x: &Vec5) -> [u64; NC] {
        x.map(f64::to_bits)
    }

    #[test]
    fn lu5_pivots_a_permuted_block_and_matches_the_oracle() {
        let vals: Vec<f64> = (0..25).map(|i| ((i * 7) as f64 * 0.31).sin()).collect();
        let b = [0.5, -1.0, 2.0, 3.5, -0.25];
        let a = dominant(&vals, 119); // rows reversed
        let lu = Lu5::new(&a);
        assert_ne!(lu.piv, [0, 1, 2, 3, 4], "a reversed block needs pivoting");
        assert_eq!(bits(&lu.solve(&b)), bits(&eliminate_once(&a, &b)));
        let (d, _) = line_blocks();
        assert_eq!(bits(&Lu5::new(&d).solve(&b)), bits(&eliminate_once(&d, &b)));
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Factoring once and solving is the one-shot elimination, bit
            /// for bit, on random dominant blocks in any row order and for
            /// several right-hand sides per factorization.
            #[test]
            fn lu5_solve_is_the_one_shot_elimination_bit_for_bit(
                vals in proptest::collection::vec(-1.0f64..1.0, 25),
                perm in 0usize..120,
                rhs in proptest::collection::vec(-10.0f64..10.0, 15),
            ) {
                let a = dominant(&vals, perm);
                let lu = Lu5::new(&a);
                for b in rhs.chunks(NC) {
                    let b: Vec5 = std::array::from_fn(|i| b[i]);
                    prop_assert_eq!(bits(&lu.solve(&b)), bits(&eliminate_once(&a, &b)));
                }
            }

            /// solve5 inverts any diagonally dominant random block.
            #[test]
            fn solve5_random_dominant(vals in proptest::collection::vec(-1.0f64..1.0, 25), b in proptest::collection::vec(-10.0f64..10.0, 5)) {
                let mut a = [[0.0; NC]; NC];
                for r in 0..NC {
                    let mut off = 0.0;
                    for c in 0..NC {
                        if r != c {
                            a[r][c] = vals[r * NC + c];
                            off += a[r][c].abs();
                        }
                    }
                    a[r][r] = off + 1.0;
                }
                let bv: Vec5 = std::array::from_fn(|i| b[i]);
                let x = solve5(&a, &bv);
                let back = matvec(&a, &x);
                for r in 0..NC {
                    prop_assert!((back[r] - bv[r]).abs() < 1e-8);
                }
            }

            /// The cyclic penta solver is exact for random RHS.
            #[test]
            fn penta_random(m in 5usize..40, seed in 0u64..1000) {
                let mut rng = crate::common::Randlc::new(seed + 1);
                let rhs: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
                let x = PentaCyclic::factor(m).solve(&rhs);
                prop_assert!(penta_cyclic_residual(m, &x, &rhs) < 1e-8);
            }
        }
    }
}

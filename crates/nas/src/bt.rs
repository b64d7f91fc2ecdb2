//! BT — block-tridiagonal simulated-CFD application.
//!
//! NPB-BT solves a 3-D implicit system by approximate factorization into
//! three directional block-tridiagonal solves with 5×5 blocks. We mirror
//! that exactly on the [`crate::cfd`] model operator: each iteration
//! computes the residual, sweeps cyclic 5×5 block-tridiagonal line solves
//! in x, y and z, and applies the correction — a preconditioned Richardson
//! iteration whose contraction we verify on every run, together with exact
//! per-line solve residuals.
//!
//! Architecturally BT is flop-dense (block Gaussian eliminations) with
//! long strided line sweeps in the y and z directions.

use std::sync::Arc;

use paxsim_omp::prelude::*;

use crate::cfd::{
    self, block_cyclic_residual, compute_residual, line_blocks, residual_norm_native, BlockCyclic,
    Grid, Vec5, NC,
};
use crate::common::{bbid, Built, Class, NasKernel, Randlc, VerifyReport};

/// (grid edge, iterations).
pub fn size(class: Class) -> (usize, usize) {
    match class {
        Class::T => (10, 2),
        Class::S => (44, 2),
        Class::W => (56, 3),
    }
}

const SEED: u64 = 223_606_797;

/// BT benchmark.
pub struct Bt;

impl NasKernel for Bt {
    fn name(&self) -> &'static str {
        "bt"
    }

    fn build(&self, class: Class, nthreads: usize, sched: Schedule) -> Built {
        let (n, iters) = size(class);
        let g = Grid::new(n);
        let (dblk, oblk) = line_blocks();

        let mut arena = Arena::new();
        let mut u = arena.alloc::<f64>("bt.u", g.values());
        let mut f = arena.alloc::<f64>("bt.f", g.values());
        let mut r = arena.alloc::<f64>("bt.r", g.values());
        // The constant line blocks, resident like NPB's per-cell Jacobians
        // (loaded in the solves).
        let mut dmat = arena.alloc::<f64>("bt.d", NC * NC);
        let mut omat = arena.alloc::<f64>("bt.o", NC * NC);
        for rr in 0..NC {
            for cc in 0..NC {
                dmat.set(rr * NC + cc, dblk[rr][cc]);
                omat.set(rr * NC + cc, oblk[rr][cc]);
            }
        }
        {
            let mut rng = Randlc::new(SEED);
            for i in 0..g.values() {
                f.set(i, rng.next_f64() - 0.5);
            }
        }

        let mut team = Team::new(format!("bt.{class}"), nthreads);
        team.set_schedule(sched);
        // Model the real code's decoded footprint (see Team::set_code_expansion).
        team.set_code_expansion(120);

        let initial = residual_norm_native(&g, u.as_slice(), f.as_slice());
        let mut norms = vec![initial];
        let mut max_line_residual = 0.0f64;

        for _it in 0..iters {
            compute_residual(&mut team, bbid::BT, g, &u, &f, &mut r);
            for dir in 0..3 {
                // Sites are per-direction, not per-iteration: iterations
                // re-execute the same code, as on the real machine.
                let lr = line_sweep(
                    &mut team,
                    bbid::BT + 10 + 4 * dir,
                    g,
                    dir as usize,
                    &dblk,
                    &oblk,
                    &dmat,
                    &omat,
                    &mut r,
                );
                max_line_residual = max_line_residual.max(lr);
            }
            // u += z (the factored solve left the correction in r).
            team.parallel("bt.add", |p| {
                p.for_static(bbid::BT + 40, 3, g.cells(), |p, cell| {
                    for c in 0..NC {
                        let v = u.get(c + NC * cell) + r.get(c + NC * cell);
                        u.set(c + NC * cell, v);
                    }
                    p.raw_load(r.addr(NC * cell));
                    p.raw_load(u.addr(NC * cell));
                    p.raw_store(u.addr(NC * cell));
                    p.raw_store(u.addr(NC * cell + NC - 1));
                    p.flops(5);
                });
            });
            norms.push(residual_norm_native(&g, u.as_slice(), f.as_slice()));
        }

        let contracted = norms.windows(2).all(|w| w[1] < w[0]);
        let final_ok = norms[iters] < 0.5 * initial;
        let verify = if max_line_residual > 1e-8 {
            VerifyReport::fail(format!("line solve residual {max_line_residual:.3e}"))
        } else if !contracted || !final_ok {
            VerifyReport::fail(format!("no contraction: {norms:?}"))
        } else {
            VerifyReport::pass(format!(
                "residual {initial:.4e} → {:.4e} in {iters} ADI iterations; max line residual {max_line_residual:.1e}",
                norms[iters]
            ))
        };

        Built {
            trace: Arc::new(team.finish()),
            verify,
        }
    }
}

/// Solve all lines along `dir` in place in `r`. Returns the max native
/// solve residual over the verification-sampled lines.
#[allow(clippy::too_many_arguments)]
fn line_sweep(
    team: &mut Team,
    site: u32,
    g: Grid,
    dir: usize,
    dblk: &cfd::Block,
    oblk: &cfd::Block,
    dmat: &Array<f64>,
    omat: &Array<f64>,
    r: &mut Array<f64>,
) -> f64 {
    let n = g.n;
    let nlines = n * n;
    let mut max_res = 0.0f64;
    let label = match dir {
        0 => "bt.xsolve",
        1 => "bt.ysolve",
        _ => "bt.zsolve",
    };
    // Every line of the sweep has the same blocks and the same length.
    let lines = BlockCyclic::factor(dblk, oblk, n);
    team.parallel(label, |p| {
        p.for_static(site, 5, nlines, |p, line| {
            let (a, b) = (line % n, line / n);
            let at = |e: usize| match dir {
                0 => g.cell(e, a, b),
                1 => g.cell(a, e, b),
                _ => g.cell(a, b, e),
            };
            // Gather the line's RHS (traced at cell-record granularity,
            // strided along dir).
            let mut rhs: Vec<Vec5> = Vec::with_capacity(n);
            for e in 0..n {
                p.block(site + 1, 3);
                let cell = at(e);
                let mut v = [0.0; NC];
                for (c, vc) in v.iter_mut().enumerate() {
                    *vc = r.get(c + NC * cell);
                }
                p.raw_load(r.addr(NC * cell));
                p.raw_load(r.addr(NC * cell + NC - 1));
                rhs.push(v);
                p.branch(site + 1, e + 1 < n);
            }
            // Block-Thomas work: per cell, the elimination touches the
            // D/O blocks and does ~2 block solves + 2 block multiplies.
            for e in 0..n {
                p.block(site + 2, 4);
                // Representative block traffic (blocks are resident, the
                // loads mostly hit L1 — matching NPB-BT's lhs reuse).
                for w in 0..6 {
                    p.raw_load(dmat.addr((w * 5) % (NC * NC)));
                    p.raw_load(omat.addr((w * 7) % (NC * NC)));
                }
                p.flops(60);
                p.branch(site + 2, e + 1 < n);
            }
            let x = lines.solve(&rhs);
            // Verify the first line of each sweep exactly.
            if p.tid == 0 && line == 0 {
                let res = block_cyclic_residual(dblk, oblk, &x, &rhs);
                max_res = max_res.max(res);
            }
            // Scatter the solution back (traced).
            for e in 0..n {
                p.block(site + 3, 2);
                let cell = at(e);
                for (c, &xc) in x[e].iter().enumerate() {
                    r.set(c + NC * cell, xc);
                }
                p.raw_store(r.addr(NC * cell));
                p.raw_store(r.addr(NC * cell + NC - 1));
                p.flops(8);
                p.branch(site + 3, e + 1 < n);
            }
        });
    });
    max_res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bt_contracts_for_thread_counts() {
        for threads in [1, 2, 4] {
            let b = Bt.build(Class::T, threads, Schedule::Static);
            assert!(b.verify.passed, "t={threads}: {}", b.verify.details);
        }
    }

    #[test]
    fn numerics_thread_invariant() {
        let a = Bt.build(Class::T, 1, Schedule::Static);
        let b = Bt.build(Class::T, 8, Schedule::Static);
        assert_eq!(a.verify.details, b.verify.details);
    }

    #[test]
    fn trace_is_flop_dense() {
        let b = Bt.build(Class::T, 2, Schedule::Static);
        let s = b.trace.stats();
        assert!(
            s.flop_uops > 2 * s.memory_ops(),
            "BT block solves are flop-dense: {} vs {}",
            s.flop_uops,
            s.memory_ops()
        );
    }

    #[test]
    fn three_directions_per_iteration() {
        let b = Bt.build(Class::T, 1, Schedule::Static);
        let (_, iters) = size(Class::T);
        // regions: per iter = rhs + 3 sweeps + add = 5.
        assert_eq!(b.trace.regions.len(), iters * 5);
    }
}

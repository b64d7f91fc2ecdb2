//! SP — scalar-pentadiagonal simulated-CFD application.
//!
//! NPB-SP factors the same implicit system as BT, but after diagonalization
//! each directional solve decomposes into *scalar* pentadiagonal systems,
//! one per component. We mirror that: each iteration computes the residual
//! against the full coupled operator, then sweeps cyclic pentadiagonal
//! solves (per component) in x, y and z and applies the correction. The
//! factorization drops the inter-component coupling — exactly the kind of
//! term NPB-SP's approximate factorization drops — so convergence is
//! slower than BT's but still contractive, and verified.
//!
//! Architecturally SP does much less arithmetic per memory operation than
//! BT: it is the more bandwidth-sensitive of the two ADI codes.

use std::sync::Arc;

use paxsim_omp::prelude::*;

use crate::cfd::{
    compute_residual, penta_cyclic_residual, residual_norm_native, Grid, PentaCyclic, NC,
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

const SEED: u64 = 244_948_974;

/// SP benchmark.
pub struct Sp;

impl NasKernel for Sp {
    fn name(&self) -> &'static str {
        "sp"
    }

    fn build(&self, class: Class, nthreads: usize, sched: Schedule) -> Built {
        let (n, iters) = size(class);
        let g = Grid::new(n);

        let mut arena = Arena::new();
        let mut u = arena.alloc::<f64>("sp.u", g.values());
        let mut f = arena.alloc::<f64>("sp.f", g.values());
        let mut r = arena.alloc::<f64>("sp.r", g.values());
        {
            let mut rng = Randlc::new(SEED);
            for i in 0..g.values() {
                f.set(i, rng.next_f64() - 0.5);
            }
        }

        let mut team = Team::new(format!("sp.{class}"), nthreads);
        team.set_schedule(sched);
        // Model the real code's decoded footprint (see Team::set_code_expansion).
        team.set_code_expansion(96);

        let initial = residual_norm_native(&g, u.as_slice(), f.as_slice());
        let mut norms = vec![initial];
        let mut max_line_residual = 0.0f64;

        for _it in 0..iters {
            compute_residual(&mut team, bbid::SP, g, &u, &f, &mut r);
            for dir in 0..3 {
                let lr = penta_sweep(&mut team, bbid::SP + 10 + 4 * dir, g, dir as usize, &mut r);
                max_line_residual = max_line_residual.max(lr);
            }
            team.parallel("sp.add", |p| {
                p.for_static(bbid::SP + 40, 3, g.cells(), |p, cell| {
                    for c in 0..NC {
                        let v = u.get(c + NC * cell) + r.get(c + NC * cell);
                        u.set(c + NC * cell, v);
                    }
                    p.raw_load(r.addr(NC * cell));
                    p.raw_load(u.addr(NC * cell));
                    p.raw_store(u.addr(NC * cell));
                    p.raw_store(u.addr(NC * cell + NC - 1));
                    p.flops(2);
                });
            });
            norms.push(residual_norm_native(&g, u.as_slice(), f.as_slice()));
        }

        let contracted = norms.windows(2).all(|w| w[1] < w[0]);
        let final_ok = norms[iters] < 0.6 * initial;
        let verify = if max_line_residual > 1e-8 {
            VerifyReport::fail(format!("penta solve residual {max_line_residual:.3e}"))
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

/// Solve all pentadiagonal lines along `dir`, per component, in place.
fn penta_sweep(team: &mut Team, site: u32, g: Grid, dir: usize, r: &mut Array<f64>) -> f64 {
    let n = g.n;
    let nlines = n * n;
    let mut max_res = 0.0f64;
    let label = match dir {
        0 => "sp.xsolve",
        1 => "sp.ysolve",
        _ => "sp.zsolve",
    };
    // Every line of the sweep, whatever its component, is the same system.
    let lines = PentaCyclic::factor(n);
    team.parallel(label, |p| {
        p.for_static(site, 5, nlines, |p, line| {
            let (a, b) = (line % n, line / n);
            let at = |e: usize| match dir {
                0 => g.cell(e, a, b),
                1 => g.cell(a, e, b),
                _ => g.cell(a, b, e),
            };
            for c in 0..NC {
                // Gather this component's line (the c-th word of each
                // 40 B cell record; traced once per record, strided).
                let mut rhs = Vec::with_capacity(n);
                for e in 0..n {
                    p.block(site + 1, 2);
                    rhs.push(r.get(c + NC * at(e)));
                    p.raw_load(r.addr(c + NC * at(e)));
                    // Forward elimination work for this cell/component.
                    p.flops(4);
                    p.branch(site + 1, e + 1 < n);
                }
                let x = lines.solve(&rhs);
                if p.tid == 0 && line == 0 && c == 0 {
                    max_res = max_res.max(penta_cyclic_residual(n, &x, &rhs));
                }
                // Back substitution + scatter.
                for e in 0..n {
                    p.block(site + 2, 2);
                    p.flops(5);
                    r.set(c + NC * at(e), x[e]);
                    p.raw_store(r.addr(c + NC * at(e)));
                    p.branch(site + 2, e + 1 < n);
                }
            }
        });
    });
    max_res
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sp_contracts_for_thread_counts() {
        for threads in [1, 2, 4] {
            let b = Sp.build(Class::T, threads, Schedule::Static);
            assert!(b.verify.passed, "t={threads}: {}", b.verify.details);
        }
    }

    #[test]
    fn numerics_thread_invariant() {
        let a = Sp.build(Class::T, 1, Schedule::Static);
        let b = Sp.build(Class::T, 4, Schedule::Static);
        assert_eq!(a.verify.details, b.verify.details);
    }

    #[test]
    fn sp_is_less_flop_dense_than_bt() {
        let sp = Sp.build(Class::T, 2, Schedule::Static);
        let bt = crate::bt::Bt.build(Class::T, 2, Schedule::Static);
        let fs = sp.trace.stats();
        let fb = bt.trace.stats();
        let density_sp = fs.flop_uops as f64 / fs.memory_ops() as f64;
        let density_bt = fb.flop_uops as f64 / fb.memory_ops() as f64;
        assert!(
            density_sp < density_bt,
            "SP {density_sp:.2} should be leaner than BT {density_bt:.2}"
        );
    }

    #[test]
    fn region_structure_matches_adi() {
        let b = Sp.build(Class::T, 1, Schedule::Static);
        let (_, iters) = size(Class::T);
        assert_eq!(b.trace.regions.len(), iters * 5);
    }
}

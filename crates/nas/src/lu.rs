//! LU — SSOR simulated-CFD application.
//!
//! NPB-LU solves the implicit system with symmetric successive
//! over-relaxation: a lower-triangular sweep in ascending grid order
//! followed by an upper-triangular sweep in descending order, with a 5×5
//! block-diagonal solve per cell. We run genuine SSOR on the coupled model
//! operator of [`crate::cfd`]: native execution is exactly sequential
//! SSOR (threads trace plane blocks in order), which for SPD operators
//! provably converges — and is verified on every run.
//!
//! Architecturally LU is the *recurrence* benchmark: each cell's update
//! consumes freshly written upwind neighbours, so its traced loads along
//! the sweep direction are dependent loads — the pattern that made LU's
//! trace-cache and pipeline behaviour stand out in the paper.
//!
//! Parallelization note: NPB-LU pipelines the sweep over thread-owned
//! blocks; our trace assigns each thread a contiguous block of k-planes
//! and replays them concurrently (the steady-state of a deep pipeline).

use std::sync::Arc;

use paxsim_omp::prelude::*;

use crate::cfd::{residual_norm_native, Block, Grid, Lu5, COUPLE, EPS, NC, SIGMA};
use crate::common::{bbid, Built, Class, NasKernel, Randlc, VerifyReport};

/// (grid edge, SSOR iterations).
pub fn size(class: Class) -> (usize, usize) {
    match class {
        Class::T => (10, 2),
        Class::S => (44, 2),
        Class::W => (56, 3),
    }
}

const SEED: u64 = 264_575_131;
/// SSOR relaxation factor (NPB-LU uses 1.2).
const OMEGA: f64 = 1.2;

/// The cell-diagonal block of M: (1+6σ)I + ε·Ĉ.
fn diag_block() -> Block {
    let mut d = [[0.0; NC]; NC];
    for r in 0..NC {
        for c in 0..NC {
            d[r][c] = EPS * COUPLE[r][c];
            if r == c {
                d[r][c] += 1.0 + 6.0 * SIGMA;
            }
        }
    }
    d
}

/// LU benchmark.
pub struct Lu;

impl NasKernel for Lu {
    fn name(&self) -> &'static str {
        "lu"
    }

    fn build(&self, class: Class, nthreads: usize, sched: Schedule) -> Built {
        let (n, iters) = size(class);
        let g = Grid::new(n);
        // Every cell's block-diagonal solve is against this one block.
        let dblk = Lu5::new(&diag_block());

        let mut arena = Arena::new();
        let mut u = arena.alloc::<f64>("lu.u", g.values());
        let mut f = arena.alloc::<f64>("lu.f", g.values());
        {
            let mut rng = Randlc::new(SEED);
            for i in 0..g.values() {
                f.set(i, rng.next_f64() - 0.5);
            }
        }

        let mut team = Team::new(format!("lu.{class}"), nthreads);
        team.set_schedule(sched);
        // Model the real code's decoded footprint (see Team::set_code_expansion).
        team.set_code_expansion(240);

        let initial = residual_norm_native(&g, u.as_slice(), f.as_slice());
        let mut norms = vec![initial];

        for _it in 0..iters {
            ssor_sweep(&mut team, bbid::LU, g, &dblk, &f, &mut u, false);
            ssor_sweep(&mut team, bbid::LU + 10, g, &dblk, &f, &mut u, true);
            norms.push(residual_norm_native(&g, u.as_slice(), f.as_slice()));
        }

        let final_ok = norms[iters] < 0.5 * initial;
        let monotone = norms.windows(2).all(|w| w[1] < w[0] * 1.0001);
        let verify = if !final_ok || !monotone {
            VerifyReport::fail(format!("SSOR failed to contract: {norms:?}"))
        } else {
            VerifyReport::pass(format!(
                "residual {initial:.4e} → {:.4e} in {iters} SSOR iterations",
                norms[iters]
            ))
        };

        Built {
            trace: Arc::new(team.finish()),
            verify,
        }
    }
}

/// One Gauss-Seidel sweep (forward or backward) with 5×5 block-diagonal
/// solves, parallel over k-plane blocks (pipelined in NPB, traced as
/// concurrent plane blocks here).
fn ssor_sweep(
    team: &mut Team,
    site: u32,
    g: Grid,
    dblk: &Lu5,
    f: &Array<f64>,
    u: &mut Array<f64>,
    backward: bool,
) {
    let n = g.n;
    let label = if backward { "lu.buts" } else { "lu.blts" };
    team.parallel(label, |p| {
        p.for_static(site, 5, n, |p, kk| {
            let k = if backward { n - 1 - kk } else { kk };
            for jj in 0..n {
                let j = if backward { n - 1 - jj } else { jj };
                p.block(site + 1, 2);
                for ii in 0..n {
                    let i = if backward { n - 1 - ii } else { ii };
                    p.block(site + 2, 3);
                    let im = g.wrap(i as isize - 1);
                    let ip = g.wrap(i as isize + 1);
                    let jm = g.wrap(j as isize - 1);
                    let jp = g.wrap(j as isize + 1);
                    let km = g.wrap(k as isize - 1);
                    let kp = g.wrap(k as isize + 1);
                    // Residual at this cell with *current* u (native math).
                    let mut cell = [0.0; NC];
                    let mut rhs = [0.0; NC];
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
                        rhs[c] = f.get(g.at(c, i, j, k)) - mu;
                    }
                    // Traffic at cell-record granularity. Upwind (freshly
                    // written) neighbour records are the SSOR recurrence:
                    // dependent loads. Downwind records stream.
                    let (up, dn) = if backward {
                        (
                            [(ip, j, k), (i, jp, k), (i, j, kp)],
                            [(im, j, k), (i, jm, k), (i, j, km)],
                        )
                    } else {
                        (
                            [(im, j, k), (i, jm, k), (i, j, km)],
                            [(ip, j, k), (i, jp, k), (i, j, kp)],
                        )
                    };
                    p.raw_load(u.addr(g.at(0, i, j, k)));
                    p.raw_load(u.addr(g.at(NC - 1, i, j, k)));
                    for &(a, b, c3) in &up {
                        p.raw_load_dep(u.addr(g.at(0, a, b, c3)));
                    }
                    for &(a, b, c3) in &dn {
                        p.raw_load(u.addr(g.at(0, a, b, c3)));
                    }
                    p.raw_load(f.addr(g.at(0, i, j, k)));
                    p.flops(16);
                    // Block-diagonal solve and relaxed update.
                    let dx = dblk.solve(&rhs);
                    p.flops(20);
                    for c in 0..NC {
                        u.set(g.at(c, i, j, k), cell[c] + OMEGA * dx[c]);
                    }
                    p.raw_store(u.addr(g.at(0, i, j, k)));
                    p.raw_store(u.addr(g.at(NC - 1, i, j, k)));
                    p.flops(10);
                }
                p.branch(site + 1, jj + 1 < n);
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ssor_contracts_for_thread_counts() {
        for threads in [1, 2, 4] {
            let b = Lu.build(Class::T, threads, Schedule::Static);
            assert!(b.verify.passed, "t={threads}: {}", b.verify.details);
        }
    }

    #[test]
    fn numerics_thread_invariant() {
        // Tracing is sequential in thread order, so the SSOR result is the
        // sequential one regardless of the team size.
        let a = Lu.build(Class::T, 1, Schedule::Static);
        let b = Lu.build(Class::T, 8, Schedule::Static);
        assert_eq!(a.verify.details, b.verify.details);
    }

    #[test]
    fn lu_has_recurrence_loads() {
        let b = Lu.build(Class::T, 2, Schedule::Static);
        let s = b.trace.stats();
        // Three dependent upwind loads per component per cell.
        assert!(
            s.dep_loads >= s.loads / 2,
            "LU should be recurrence-heavy: {} dep vs {} streaming",
            s.dep_loads,
            s.loads
        );
    }

    #[test]
    fn two_sweeps_per_iteration() {
        let b = Lu.build(Class::T, 1, Schedule::Static);
        let (_, iters) = size(Class::T);
        assert_eq!(b.trace.regions.len(), 2 * iters);
    }

    #[test]
    fn diag_block_is_dominant() {
        let d = diag_block();
        for r in 0..NC {
            let off: f64 = (0..NC).filter(|&c| c != r).map(|c| d[r][c].abs()).sum();
            assert!(d[r][r] > off);
        }
    }
}

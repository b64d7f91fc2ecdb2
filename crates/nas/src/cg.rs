//! CG — conjugate gradient on a random sparse symmetric positive-definite
//! matrix.
//!
//! Builds a strictly-diagonally-dominant symmetric matrix with a random
//! sparsity pattern (the NPB-CG `makea` idea, simplified but genuinely
//! random), then runs textbook conjugate gradient. Every iteration performs
//! the benchmark's signature access pattern: a CSR sparse
//! matrix-vector product whose `x[col[j]]` gathers are dependent, cache-
//! unfriendly loads over a vector larger than L1 — the canonical
//! memory-bound NAS kernel, which is why the paper's multi-program section
//! pairs it against FT.

use std::sync::Arc;

use paxsim_omp::prelude::*;

use crate::common::{bbid, Built, Class, NasKernel, Randlc, VerifyReport};

/// (rows, nonzeros per row off-diagonal, CG iterations).
pub fn size(class: Class) -> (usize, usize, usize) {
    match class {
        Class::T => (1_200, 6, 6),
        Class::S => (60_000, 12, 7),
        Class::W => (80_000, 13, 10),
    }
}

const SEED: u64 = 141_421_356;

/// A CSR sparse matrix.
pub struct Csr {
    pub n: usize,
    pub rowptr: Vec<u32>,
    pub colidx: Vec<u32>,
    pub values: Vec<f64>,
}

impl Csr {
    /// y = A·x (native, untraced).
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        spmv(&self.rowptr, &self.colidx, &self.values, x, y);
    }
}

/// y = A·x over A's CSR arrays (native, untraced).
fn spmv(rowptr: &[u32], colidx: &[u32], values: &[f64], x: &[f64], y: &mut [f64]) {
    for (i, y) in y.iter_mut().enumerate() {
        let mut s = 0.0;
        for j in rowptr[i] as usize..rowptr[i + 1] as usize {
            s += values[j] * x[colidx[j] as usize];
        }
        *y = s;
    }
}

/// Build the SPD test matrix: random symmetric pattern, off-diagonal
/// values in (0, 1), diagonal = 1 + row absolute sum (strict dominance ⇒
/// positive definite).
pub fn make_matrix(n: usize, nz_per_row: usize) -> Csr {
    let mut rng = Randlc::new(SEED);
    // Collect strictly-lower entries, then mirror.
    let mut entries: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n];
    for i in 0..n {
        for _ in 0..nz_per_row / 2 + 1 {
            if i == 0 {
                break;
            }
            let j = rng.next_usize(i);
            let v = 0.1 + 0.8 * rng.next_f64();
            entries[i].push((j as u32, v));
            entries[j].push((i as u32, v));
        }
    }
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::new();
    let mut values = Vec::new();
    rowptr.push(0u32);
    for i in 0..n {
        let row = &mut entries[i];
        row.sort_unstable_by_key(|e| e.0);
        row.dedup_by_key(|e| e.0);
        let absum: f64 = row.iter().map(|e| e.1.abs()).sum();
        // Insert the diagonal in sorted position.
        let mut placed = false;
        for &(c, v) in row.iter() {
            if !placed && c as usize > i {
                colidx.push(i as u32);
                values.push(1.0 + absum);
                placed = true;
            }
            colidx.push(c);
            values.push(v);
        }
        if !placed {
            colidx.push(i as u32);
            values.push(1.0 + absum);
        }
        rowptr.push(colidx.len() as u32);
    }
    Csr {
        n,
        rowptr,
        colidx,
        values,
    }
}

/// CG benchmark.
pub struct Cg;

impl NasKernel for Cg {
    fn name(&self) -> &'static str {
        "cg"
    }

    fn build(&self, class: Class, nthreads: usize, sched: Schedule) -> Built {
        let (n, nz, iters) = size(class);
        let m = make_matrix(n, nz);

        let mut arena = Arena::new();
        let mut rowptr = arena.alloc::<u32>("cg.rowptr", n + 1);
        let mut colidx = arena.alloc::<u32>("cg.colidx", m.colidx.len());
        let mut values = arena.alloc::<f64>("cg.values", m.values.len());
        rowptr.as_mut_slice().copy_from_slice(&m.rowptr);
        colidx.as_mut_slice().copy_from_slice(&m.colidx);
        values.as_mut_slice().copy_from_slice(&m.values);
        // The arena holds the matrix from here on.
        drop(m);

        let mut x = arena.alloc::<f64>("cg.x", n); // solution (starts 0)
        let mut r = arena.alloc_with::<f64>("cg.r", n, 1.0); // residual = b = 1
        let mut pv = arena.alloc_with::<f64>("cg.p", n, 1.0); // search dir
        let mut q = arena.alloc::<f64>("cg.q", n); // A·p

        let mut team = Team::new(format!("cg.{class}"), nthreads);
        team.set_schedule(sched);
        // Model the real code's decoded footprint (see Team::set_code_expansion).
        team.set_code_expansion(48);

        let rho0: f64 = n as f64; // r·r with r = 1-vector
        let mut rho = rho0;

        for _ in 0..iters {
            // q = A·p — the gather-heavy SpMV. The colidx/values
            // streams are traced at line granularity (they stream
            // perfectly); every x[col] gather is a dependent load over a
            // vector larger than L1 — CG's signature access.
            team.parallel("cg.spmv", |p| {
                p.for_static(bbid::CG, 5, n, |p, i| {
                    let lo = rowptr.get(i) as usize;
                    let hi = rowptr.get(i + 1) as usize;
                    p.raw_load(rowptr.addr(i));
                    let mut s = 0.0;
                    for j in lo..hi {
                        p.block(bbid::CG + 1, 2);
                        if j % 8 == 0 {
                            p.raw_load(values.addr(j));
                        }
                        if j % 16 == 0 {
                            p.raw_load(colidx.addr(j));
                        }
                        let c = colidx.get(j) as usize;
                        let v = values.get(j);
                        p.raw_load_dep(pv.addr(c));
                        s += v * pv.get(c);
                        p.flops(2);
                        p.branch(bbid::CG + 1, j + 1 < hi);
                    }
                    p.st(&mut q, i, s);
                });
            });

            // alpha = rho / (p·q)
            let pq = team.parallel_reduce(
                "cg.dot_pq",
                0.0,
                |a, b| a + b,
                |par| {
                    let mut s = 0.0;
                    par.for_static(bbid::CG + 2, 3, n, |par, i| {
                        s += par.ld(&pv, i) * par.ld(&q, i);
                        par.flops(2);
                    });
                    s
                },
            );
            let alpha = rho / pq;

            // x += alpha·p ; r -= alpha·q ; rho' = r·r (fused as NPB does).
            let rho_new = team.parallel_reduce(
                "cg.update",
                0.0,
                |a, b| a + b,
                |par| {
                    let mut s = 0.0;
                    par.for_static(bbid::CG + 3, 4, n, |par, i| {
                        let xi = par.ld(&x, i) + alpha * par.ld(&pv, i);
                        par.st(&mut x, i, xi);
                        let ri = par.ld(&r, i) - alpha * par.ld(&q, i);
                        par.st(&mut r, i, ri);
                        s += ri * ri;
                        par.flops(6);
                    });
                    s
                },
            );

            // beta = rho'/rho ; p = r + beta·p.
            let beta = rho_new / rho;
            rho = rho_new;
            team.parallel("cg.newp", |p| {
                p.for_static(bbid::CG + 4, 3, n, |p, i| {
                    let v = p.ld(&r, i) + beta * p.ld(&pv, i);
                    p.st(&mut pv, i, v);
                    p.flops(2);
                });
            });
        }

        // Verify: the true residual ‖b − A·x‖ matches the recurrence and
        // has dropped substantially (dominant SPD ⇒ fast convergence).
        let mut ax = vec![0.0; n];
        let (a, ja, ia) = (values.as_slice(), colidx.as_slice(), rowptr.as_slice());
        spmv(ia, ja, a, x.as_slice(), &mut ax);
        let true_res: f64 = ax
            .iter()
            .map(|&v| (1.0 - v) * (1.0 - v))
            .sum::<f64>()
            .sqrt();
        let rec_res = rho.sqrt();
        let init_res = rho0.sqrt();
        let verify = if (true_res - rec_res).abs() > 1e-6 * init_res {
            VerifyReport::fail(format!(
                "recurrence residual {rec_res:.3e} diverged from true residual {true_res:.3e}"
            ))
        } else if true_res > 5e-2 * init_res {
            VerifyReport::fail(format!(
                "insufficient convergence: {true_res:.3e} vs initial {init_res:.3e}"
            ))
        } else {
            VerifyReport::pass(format!(
                "residual {init_res:.3e} → {true_res:.3e} in {iters} iterations"
            ))
        };

        Built {
            trace: Arc::new(team.finish()),
            verify,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_is_symmetric() {
        let m = make_matrix(200, 6);
        // Check A[i][j] == A[j][i] by dense reconstruction.
        let mut dense = vec![0.0f64; 200 * 200];
        for i in 0..200 {
            for j in m.rowptr[i] as usize..m.rowptr[i + 1] as usize {
                dense[i * 200 + m.colidx[j] as usize] = m.values[j];
            }
        }
        for i in 0..200 {
            for j in 0..200 {
                assert_eq!(dense[i * 200 + j], dense[j * 200 + i], "({i},{j})");
            }
        }
    }

    #[test]
    fn matrix_is_diagonally_dominant() {
        let m = make_matrix(500, 8);
        for i in 0..500 {
            let mut diag = 0.0;
            let mut off = 0.0;
            for j in m.rowptr[i] as usize..m.rowptr[i + 1] as usize {
                if m.colidx[j] as usize == i {
                    diag = m.values[j];
                } else {
                    off += m.values[j].abs();
                }
            }
            assert!(diag > off, "row {i}: diag {diag} ≤ off {off}");
        }
    }

    #[test]
    fn rows_sorted_and_unique() {
        let m = make_matrix(300, 7);
        for i in 0..300 {
            let row = &m.colidx[m.rowptr[i] as usize..m.rowptr[i + 1] as usize];
            for w in row.windows(2) {
                assert!(w[0] < w[1], "row {i} not strictly sorted: {row:?}");
            }
        }
    }

    #[test]
    fn cg_converges_all_thread_counts() {
        for threads in [1, 2, 4, 8] {
            let b = Cg.build(Class::T, threads, Schedule::Static);
            assert!(b.verify.passed, "t={threads}: {}", b.verify.details);
        }
    }

    #[test]
    fn thread_count_does_not_change_numerics() {
        // Identical region structure → identical instruction totals modulo
        // the reduction protocol; the verification value is bitwise stable
        // because summation order within threads is sequential.
        let a = Cg.build(Class::T, 1, Schedule::Static);
        let b = Cg.build(Class::T, 4, Schedule::Static);
        assert!(a.verify.passed && b.verify.passed);
        assert_eq!(
            a.verify.details.split("→").last(),
            b.verify.details.split("→").last()
        );
    }

    #[test]
    fn trace_is_gather_heavy() {
        let b = Cg.build(Class::T, 2, Schedule::Static);
        let s = b.trace.stats();
        let (n, nz, iters) = size(Class::T);
        // One dependent gather per nonzero per iteration (≥ n·nz·iters/2).
        assert!(
            s.dep_loads as usize >= n * nz * iters / 2,
            "dep loads {}",
            s.dep_loads
        );
    }

    #[test]
    fn iterations_are_interned() {
        // Every CG iteration emits the same four regions with identical
        // op streams (the runtime keeps reduction slots stable across
        // iterations), so the runtime's region interner must collapse
        // `4 × iters` regions down to 4 shared ones — this is what makes
        // the engine's steady-state memoization and the ≥2× trace-memory
        // reduction effective on iterative kernels.
        let b = Cg.build(Class::T, 4, Schedule::Static);
        let (_, _, iters) = size(Class::T);
        assert_eq!(b.trace.regions.len(), 4 * iters);
        assert_eq!(b.trace.unique_regions(), 4, "one shared region per phase");
        assert!(
            b.trace.packed_bytes() * 2 <= b.trace.unpacked_bytes(),
            "packing + interning must at least halve trace memory: {} vs {}",
            b.trace.packed_bytes(),
            b.trace.unpacked_bytes()
        );
    }

    #[test]
    fn working_set_exceeds_l2_at_class_s() {
        let (n, nz, _) = size(Class::S);
        let m = make_matrix(n, nz);
        let bytes = m.values.len() * 8 + m.colidx.len() * 4 + 5 * n * 8;
        assert!(
            bytes > 2 * 1024 * 1024,
            "class S working set {bytes} must exceed the 2 MB L2"
        );
    }
}

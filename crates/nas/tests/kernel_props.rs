//! Property tests over the benchmark numerics and their trace generation.

use proptest::prelude::*;

use paxsim_nas::cfd::{
    block_cyclic_residual, line_blocks, penta_cyclic_residual, BlockCyclic, PentaCyclic, Vec5, NC,
};
use paxsim_nas::common::Randlc;
use paxsim_nas::ft::{dft_naive, stockham, twiddles};
use paxsim_nas::is::generate_keys;

proptest! {
    /// The Stockham FFT matches the naive DFT for random inputs at every
    /// power-of-two size up to 128.
    #[test]
    fn fft_matches_dft(log_n in 1u32..8, seed in 1u64..10_000) {
        let m = 1usize << log_n;
        let mut rng = Randlc::new(seed);
        let re: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
        let im: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
        let (er, ei) = dft_naive(&re, &im, false);
        let tw = twiddles(m);
        let mut ar = re.clone();
        let mut ai = im.clone();
        let mut sr = vec![0.0; m];
        let mut si = vec![0.0; m];
        stockham(&mut ar, &mut ai, &mut sr, &mut si, &tw, false);
        for k in 0..m {
            prop_assert!((ar[k] - er[k]).abs() < 1e-8, "re[{k}]");
            prop_assert!((ai[k] - ei[k]).abs() < 1e-8, "im[{k}]");
        }
    }

    /// Forward followed by inverse FFT is the identity, and Parseval holds.
    #[test]
    fn fft_roundtrip_and_parseval(log_n in 1u32..9, seed in 1u64..10_000) {
        let m = 1usize << log_n;
        let mut rng = Randlc::new(seed);
        let re: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
        let im: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
        let tw = twiddles(m);
        let mut ar = re.clone();
        let mut ai = im.clone();
        let mut sr = vec![0.0; m];
        let mut si = vec![0.0; m];
        stockham(&mut ar, &mut ai, &mut sr, &mut si, &tw, false);
        let e_time: f64 = re.iter().zip(&im).map(|(r, i)| r * r + i * i).sum();
        let e_freq: f64 = ar.iter().zip(&ai).map(|(r, i)| r * r + i * i).sum();
        prop_assert!((e_freq / m as f64 - e_time).abs() < 1e-9 * (1.0 + e_time));
        stockham(&mut ar, &mut ai, &mut sr, &mut si, &tw, true);
        for k in 0..m {
            prop_assert!((ar[k] - re[k]).abs() < 1e-9);
            prop_assert!((ai[k] - im[k]).abs() < 1e-9);
        }
    }

    /// The NAS key generator respects the bucket bound and hits a broad
    /// middle of the distribution.
    #[test]
    fn is_keys_bounded(n in 256usize..4096, log_b in 4u32..12) {
        let b = 1usize << log_b;
        let keys = generate_keys(n, b);
        prop_assert_eq!(keys.len(), n);
        prop_assert!(keys.iter().all(|&k| (k as usize) < b));
        let mean: f64 = keys.iter().map(|&k| k as f64).sum::<f64>() / n as f64;
        prop_assert!(mean > 0.3 * b as f64 && mean < 0.7 * b as f64);
    }

    /// randlc's skip-ahead equals stepping, from any seed and distance.
    #[test]
    fn randlc_skip_equivalence(seed in 1u64..(1 << 40), k in 0u64..5_000) {
        let mut a = Randlc::new(seed);
        let mut b = Randlc::new(seed);
        for _ in 0..k {
            a.next_f64();
        }
        b.skip(k);
        prop_assert_eq!(a.next_f64(), b.next_f64());
    }

    /// The cyclic block-tridiagonal solver is exact for random RHS at any
    /// line length the grids use.
    #[test]
    fn block_solver_exact(m in 3usize..48, seed in 1u64..10_000) {
        let (d, o) = line_blocks();
        let mut rng = Randlc::new(seed);
        let rhs: Vec<Vec5> = (0..m)
            .map(|_| std::array::from_fn(|_| rng.next_f64() - 0.5))
            .collect();
        let x = BlockCyclic::factor(&d, &o, m).solve(&rhs);
        prop_assert!(block_cyclic_residual(&d, &o, &x, &rhs) < 1e-8);
    }

    /// The cyclic pentadiagonal solver is exact likewise.
    #[test]
    fn penta_solver_exact(m in 5usize..64, seed in 1u64..10_000) {
        let mut rng = Randlc::new(seed);
        let rhs: Vec<f64> = (0..m).map(|_| rng.next_f64() - 0.5).collect();
        let x = PentaCyclic::factor(m).solve(&rhs);
        prop_assert!(penta_cyclic_residual(m, &x, &rhs) < 1e-8);
    }
}

#[test]
fn coupling_matrix_is_symmetric() {
    for r in 0..NC {
        for c in 0..NC {
            assert_eq!(paxsim_nas::cfd::COUPLE[r][c], paxsim_nas::cfd::COUPLE[c][r]);
        }
    }
}

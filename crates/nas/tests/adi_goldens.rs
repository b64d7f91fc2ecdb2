//! BT and SP factor their constant line systems once per sweep and solve
//! per line. The split must not move a bit: every value below was recorded
//! from the one-shot per-line solvers it replaced (commit dc48f63), the
//! trace digests over the 8-byte words of the codec then in use.

mod common;

use std::hash::{Hash, Hasher};

use common::eight_byte_words;

use paxsim_nas::cfd::{line_blocks, BlockCyclic, PentaCyclic, Vec5};
use paxsim_nas::{Class, KernelId};
use paxsim_omp::schedule::Schedule;

/// FNV-1a, so no digest depends on the standard library's hasher.
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(feed: impl FnOnce(&mut Fnv)) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    feed(&mut h);
    h.finish()
}

/// The traces (every region's label and ops, hashed as `RegionTrace`
/// hashed its 8-byte words) and the verdicts (which print the residuals
/// the solves produced) of class T.
#[test]
fn class_t_traces_and_verdicts_did_not_move() {
    const BT: &str = "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16";
    const SP: &str = "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16";
    let recorded = [
        (KernelId::Bt, 1, 0x738d_3272_d941_c9fb, BT),
        (KernelId::Bt, 2, 0xb40f_3fb1_e193_9967, BT),
        (KernelId::Bt, 4, 0x369c_f3ef_323a_cb97, BT),
        (KernelId::Bt, 8, 0x175b_2839_83d3_e01f, BT),
        (KernelId::Sp, 1, 0x91e8_7f34_5e8f_7059, SP),
        (KernelId::Sp, 2, 0xf1b5_3cb8_5190_cb87, SP),
        (KernelId::Sp, 4, 0xd5d7_c215_bec6_3e0f, SP),
        (KernelId::Sp, 8, 0xd57a_5cc3_4dd9_9e0f, SP),
    ];
    for (id, threads, regions, details) in recorded {
        let built = id.kernel().build(Class::T, threads, Schedule::Static);
        let got = digest(|h| {
            for r in &built.trace.regions {
                r.label.hash(h);
                r.threads.iter().for_each(|t| eight_byte_words(t).hash(h));
            }
        });
        assert_eq!(got, regions, "{id} on {threads} threads: region content");
        assert_eq!(built.verify.details, details, "{id} on {threads} threads");
    }
}

/// The solutions themselves, bit for bit, at the shortest line each solver
/// takes and at the class T and class S grid edges.
#[test]
fn line_solutions_did_not_move_a_bit() {
    let (d, o) = line_blocks();
    let block = [
        (3usize, 0xeaac_d32a_86e6_8773u64),
        (10, 0xe58b_1bb4_d3ee_6b1d),
        (44, 0x0c88_0edd_a56a_3028),
    ];
    for (m, recorded) in block {
        let rhs: Vec<Vec5> = (0..m)
            .map(|i| std::array::from_fn(|c| ((i * 5 + c) as f64 * 0.37).sin()))
            .collect();
        let x = BlockCyclic::factor(&d, &o, m).solve(&rhs);
        let got = digest(|h| x.iter().flatten().for_each(|v| v.to_bits().hash(h)));
        assert_eq!(got, recorded, "block-tridiagonal line of {m}");
    }
    let penta = [
        (5usize, 0x9513_165b_c1dd_c5efu64),
        (10, 0x0634_95bb_98e2_9a37),
        (44, 0x9930_7010_ded9_cedf),
    ];
    for (m, recorded) in penta {
        let rhs: Vec<f64> = (0..m).map(|i| (i as f64 * 0.7).cos()).collect();
        let x = PentaCyclic::factor(m).solve(&rhs);
        let got = digest(|h| x.iter().for_each(|v| v.to_bits().hash(h)));
        assert_eq!(got, recorded, "pentadiagonal line of {m}");
    }
}

//! What a trace build emits, pinned: every kernel at class T on 1, 2, 4
//! and 8 threads under `static` and `dynamic,2`. A build may get faster
//! (interning by a bucket key instead of hashing every word, thread buffers
//! recycled across repeated regions, 5×5 pivots factored once) or smaller
//! (4-byte words against a per-buffer address base) but must not move an
//! op, a region or a verdict. Every digest was recorded at the commit before
//! those changes (956ac97), over the 8-byte words of the codec then in use;
//! the digest re-encodes each decoded op that way, so a changed storage
//! format leaves it alone. Only the `packed_bytes()` column was re-recorded
//! for the 4-byte words: 0.54–0.58× what the 8-byte ones took, and 0.61×
//! on CG and SP, where a fifth of the ops are blocks and a block still
//! takes two words. It was re-recorded once more, downward only, when the
//! kept thread buffers of one build with equal words came to hold one
//! array: one thread is unchanged, and on 8 threads MG and SP keep
//! 0.40–0.49× of what they did. And once more, downward only, when kept
//! arrays came to be run-encoded (a word for each stretch of at least 16
//! words that repeats the words one loop body back at their stride, and
//! an index of those words): MG, BT and SP keep 0.26–0.30×, LU 0.36×, FT
//! 0.41×, EP 0.75×, CG 0.70–0.78× and IS 0.93–0.96×, where gathers
//! break every stretch short.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::eight_byte_words;
use paxsim_machine::trace::{ProgramTrace, TraceBuf};
use paxsim_nas::KernelId::{self, *};
use paxsim_nas::{all_kernels, Class};
use paxsim_omp::schedule::Schedule;

/// FNV-1a over every region occurrence: its label's bytes, then per thread
/// the word count and the words of [`eight_byte_words`], a word at a time.
/// No digest depends on the standard library's hasher or on how
/// `RegionTrace` hashes itself.
fn digest(trace: &ProgramTrace) -> u64 {
    let mix = |h: u64, v: u64| (h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let mut h = 0xcbf2_9ce4_8422_2325;
    for region in &trace.regions {
        h = region.label.bytes().fold(h, |h, b| mix(h, b as u64));
        for thread in &region.threads {
            let words = eight_byte_words(thread);
            h = mix(h, words.len() as u64);
            h = words.iter().fold(h, |h, &w| mix(h, w));
        }
    }
    h
}

/// Assert that `trace`'s kept arrays are canonical, as interning by
/// identity requires: no two arrays hold equal words, and no two regions
/// with one label hold the same array at the same base on every thread.
fn assert_canonical(trace: &ProgramTrace, point: &str) {
    let id = |t: &TraceBuf| (!t.words().is_empty()).then(|| t.words().as_ptr());
    let (mut arrays, mut regions) = (HashMap::new(), HashMap::new());
    for region in &trace.regions {
        for t in region.threads.iter().filter(|t| !t.words().is_empty()) {
            let array = t.words().as_ptr();
            let first = *arrays.entry(t.words()).or_insert(array);
            assert_eq!(first, array, "{point}: equal words in two arrays");
        }
        let holds: Vec<_> = region.threads.iter().map(|t| (id(t), t.base())).collect();
        let first = *regions
            .entry((&region.label, holds))
            .or_insert(Arc::as_ptr(region));
        let label = &region.label;
        assert_eq!(first, Arc::as_ptr(region), "{point}: {label} kept twice");
    }
}

/// (kernel, threads, schedule, digest, `regions.len()`, `unique_regions()`,
/// `packed_bytes()`, `verify.details`).
type Row = (
    KernelId,
    usize,
    &'static str,
    u64,
    usize,
    usize,
    usize,
    &'static str,
);

#[rustfmt::skip]
const RECORDED: [Row; 64] = [
    (Ep, 1, "static", 0xd176_4701_35ac_079d, 2, 2, 181_184, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 1, "dynamic,2", 0xd176_4701_35ac_079d, 2, 2, 181_184, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 2, "static", 0xfd8d_1da2_a145_d0cc, 2, 2, 181_236, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 2, "dynamic,2", 0xfd8d_1da2_a145_d0cc, 2, 2, 181_236, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 4, "static", 0xf286_89fd_97cb_1b40, 2, 2, 181_284, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 4, "dynamic,2", 0xf286_89fd_97cb_1b40, 2, 2, 181_284, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 8, "static", 0xe88c_c1fd_e07c_4be4, 2, 2, 181_372, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Ep, 8, "dynamic,2", 0xe88c_c1fd_e07c_4be4, 2, 2, 181_372, "accepted=6376 sx=-6.289100 sy=128.523207"),
    (Is, 1, "static", 0x0751_d250_e398_08c6, 7, 7, 989_540, "16384 keys fully ranked and sorted"),
    (Is, 1, "dynamic,2", 0x0751_d250_e398_08c6, 7, 7, 989_540, "16384 keys fully ranked and sorted"),
    (Is, 2, "static", 0x4962_e084_1a6c_5c6c, 7, 7, 988_364, "16384 keys fully ranked and sorted"),
    (Is, 2, "dynamic,2", 0x5e64_5695_58b2_5914, 7, 7, 990_476, "16384 keys fully ranked and sorted"),
    (Is, 4, "static", 0x7362_440a_ceef_1418, 7, 7, 987_932, "16384 keys fully ranked and sorted"),
    (Is, 4, "dynamic,2", 0x76ed_c479_5e15_6860, 7, 7, 989_236, "16384 keys fully ranked and sorted"),
    (Is, 8, "static", 0x97a8_5c79_31ef_a510, 7, 7, 988_208, "16384 keys fully ranked and sorted"),
    (Is, 8, "dynamic,2", 0x1b88_2d0c_2c2a_9e68, 7, 7, 997_868, "16384 keys fully ranked and sorted"),
    (Cg, 1, "static", 0x5ef2_0805_4285_f841, 24, 4, 250_136, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 1, "dynamic,2", 0x5ef2_0805_4285_f841, 24, 4, 250_136, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 2, "static", 0x209e_9cd5_2db8_7eed, 24, 4, 249_784, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 2, "dynamic,2", 0xd32c_3ef3_987f_c615, 24, 4, 254_768, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 4, "static", 0x5a37_2d08_7adb_bcd9, 24, 4, 250_000, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 4, "dynamic,2", 0x0cea_caad_cbfb_2e55, 24, 4, 254_872, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 8, "static", 0x4252_2d31_4608_faad, 24, 4, 250_724, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Cg, 8, "dynamic,2", 0xf9c1_37b4_3442_57c1, 24, 4, 256_132, "residual 3.464e1 → 7.092e-1 in 6 iterations"),
    (Mg, 1, "static", 0xd553_fdc0_5828_3833, 13, 13, 163_136, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 1, "dynamic,2", 0xd553_fdc0_5828_3833, 13, 13, 163_136, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 2, "static", 0x1c0c_9002_2c29_12ea, 13, 13, 152_936, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 2, "dynamic,2", 0x22ad_4bc6_5ce0_912a, 13, 13, 153_096, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 4, "static", 0xa794_03ac_796f_44ac, 13, 13, 118_184, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 4, "dynamic,2", 0x5677_443e_e376_c64e, 13, 13, 118_392, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 8, "static", 0x01fa_1371_61d7_acb4, 13, 13, 71_164, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Mg, 8, "dynamic,2", 0x7920_bfec_5d6e_e3aa, 13, 13, 76_492, "residual 6.3246e0 → 2.2910e0 after 1 V-cycle(s)"),
    (Ft, 1, "static", 0xeb91_6287_3515_37b0, 8, 8, 833_868, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 1, "dynamic,2", 0xeb91_6287_3515_37b0, 8, 8, 833_868, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 2, "static", 0xb565_ede5_0ac9_a5f8, 8, 8, 830_064, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 2, "dynamic,2", 0x4a17_0a28_e49c_b438, 8, 8, 831_096, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 4, "static", 0x4477_94d4_c90b_e216, 8, 8, 831_568, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 4, "dynamic,2", 0x85b8_e209_6c2c_3376, 8, 8, 832_936, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 8, "static", 0xb98a_80de_a2f1_95ca, 8, 8, 816_604, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Ft, 8, "dynamic,2", 0xbb0f_e032_a380_54de, 8, 8, 819_616, "parseval rel err 1.6e-15; checksum(1) = 19.538246 + 3.787884i"),
    (Bt, 1, "static", 0x6c9e_5586_d058_b9d1, 10, 5, 112_300, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 1, "dynamic,2", 0x6c9e_5586_d058_b9d1, 10, 5, 112_300, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 2, "static", 0xe992_49d7_57dc_b2dd, 10, 5, 112_060, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 2, "dynamic,2", 0x3efe_8a0e_a8f4_2085, 10, 5, 112_380, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 4, "static", 0x53e8_77f9_dc8f_ab79, 10, 5, 112_876, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 4, "dynamic,2", 0xa8d5_d348_74a2_b701, 10, 5, 103_964, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 8, "static", 0x2b11_21b9_f9c1_ab51, 10, 5, 104_428, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Bt, 8, "dynamic,2", 0x8d6f_3195_d546_4c25, 10, 5, 104_940, "residual 2.0555e1 → 3.5244e-2 in 2 ADI iterations; max line residual 3.5e-16"),
    (Sp, 1, "static", 0xbc51_d7a1_e7e8_5969, 10, 5, 201_060, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 1, "dynamic,2", 0xbc51_d7a1_e7e8_5969, 10, 5, 201_060, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 2, "static", 0xcbfa_5067_85f8_3c05, 10, 5, 111_872, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 2, "dynamic,2", 0x7cec_7db4_7a29_b39d, 10, 5, 141_952, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 4, "static", 0x775c_f35a_4456_eec9, 10, 5, 82_364, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 4, "dynamic,2", 0xb5cc_b275_b302_6421, 10, 5, 133_200, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 8, "static", 0x83ce_6fb1_956e_80e1, 10, 5, 103_500, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Sp, 8, "dynamic,2", 0x4832_b7bb_c282_816d, 10, 5, 97_616, "residual 2.0433e1 → 1.6735e-2 in 2 ADI iterations; max line residual 2.2e-16"),
    (Lu, 1, "static", 0x5ec2_5014_43e5_6a35, 4, 2, 44_712, "residual 2.0357e1 → 5.5343e-2 in 2 SSOR iterations"),
    (Lu, 1, "dynamic,2", 0x5ec2_5014_43e5_6a35, 4, 2, 44_712, "residual 2.0357e1 → 5.5343e-2 in 2 SSOR iterations"),
    (Lu, 2, "static", 0x924b_2650_c8e8_7769, 4, 2, 44_640, "residual 2.0357e1 → 5.5343e-2 in 2 SSOR iterations"),
    (Lu, 2, "dynamic,2", 0x3766_6bac_1689_bdc9, 4, 2, 44_640, "residual 2.0357e1 → 5.5247e-2 in 2 SSOR iterations"),
    (Lu, 4, "static", 0x3341_e7c6_02fa_9ea1, 4, 2, 44_736, "residual 2.0357e1 → 5.5343e-2 in 2 SSOR iterations"),
    (Lu, 4, "dynamic,2", 0x595c_01ba_c3c4_a971, 4, 2, 26_792, "residual 2.0357e1 → 5.5243e-2 in 2 SSOR iterations"),
    (Lu, 8, "static", 0x8576_ba6c_f0d8_8aa9, 4, 2, 26_736, "residual 2.0357e1 → 5.5343e-2 in 2 SSOR iterations"),
    (Lu, 8, "dynamic,2", 0xc370_32a1_263d_0179, 4, 2, 26_688, "residual 2.0357e1 → 5.5343e-2 in 2 SSOR iterations"),
];

#[test]
fn class_t_traces_did_not_move() {
    for (kernel, threads, schedule, want, regions, unique, packed, details) in RECORDED {
        let sched: Schedule = schedule.parse().expect("a schedule the study uses");
        let built = kernel.build(Class::T, threads, sched);
        let t = &built.trace;
        let point = format!("{kernel} on {threads} threads, {schedule}");
        assert_eq!(digest(t), want, "{point}: region labels and words");
        assert_eq!(t.regions.len(), regions, "{point}: region occurrences");
        assert_eq!(t.unique_regions(), unique, "{point}: interned regions");
        assert_eq!(t.packed_bytes(), packed, "{point}: packed bytes");
        assert_eq!(built.verify.details, details, "{point}: verdict");
        assert_canonical(t, &point);
    }
    // Every kernel × thread count × schedule, each once.
    let mut seen: Vec<_> = RECORDED.iter().map(|r| (r.0, r.1, r.2)).collect();
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), all_kernels().len() * 4 * 2);
}

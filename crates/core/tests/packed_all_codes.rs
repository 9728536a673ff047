//! The packed datapath that every `fixed` spec builds (one frame,
//! adjacent nodes in byte lanes) against the per-edge [`FixedDecoder`],
//! frame by frame, on every code in the registry.
//!
//! The packed decoder stores its messages slot-major: the `k`-th edge of
//! check `m` at position `k·M′ + m`, with unused slots of low-degree
//! checks padded by neutral lanes, and walks the bit nodes in runs of
//! bits whose positions advance together. Demo and C2 are check-regular,
//! so only the AR4JA codes (check degrees 3 to 18) pad slots, and only
//! codes without long circulant runs (demo, whose runs average 4 bits)
//! send most bits through the per-bit path for runs shorter than a block.
//! Every registry code is therefore decoded here, in blocks of 1, 2, 7
//! and 8 frames that converge at different iterations.
//!
//! On a CPU with AVX2 this pins the lane loops' AVX2 compile, elsewhere
//! their baseline compile; the packed unit test
//! `portable_and_avx2_phases_write_identical_planes` keeps the baseline
//! compile pinned on AVX2 machines too.

use ldpc_core::{
    BlockDecoder, CodeSpec, DecoderSpec, FixedConfig, FixedDecoder, PackedFixedDecoder,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MAX_ITERATIONS: u32 = 12;

/// Frame `f` of a block: clean frames converge at once, lightly noisy
/// ones after a few iterations, and random ones never. LLRs sit on a 0.25
/// grid, so some land exactly on quantizer ties, and some are 0 (the
/// value punctured positions carry).
fn frame(n: usize, f: usize, rng: &mut StdRng) -> Vec<f32> {
    (0..n)
        .map(|_| match f % 3 {
            0 => 4.0,
            1 => {
                let v = rng.gen_range(0..=12) as f32 * 0.25;
                if rng.gen_bool(0.06) {
                    -v
                } else {
                    v
                }
            }
            _ => rng.gen_range(-30..=30) as f32 * 0.25,
        })
        .collect()
}

#[test]
fn packed_fixed_matches_scalar_fixed_on_every_registry_code() {
    let fixed = DecoderSpec::parse("fixed").expect("registry spec");
    let mut rng = StdRng::seed_from_u64(0x51_07);
    for spec in CodeSpec::all_codes() {
        let code = spec.build().expect("registry code builds").code().clone();
        let n = code.n();
        let mut scalar = FixedDecoder::new(code.clone(), FixedConfig::default());
        let mut packed = fixed.build(&code);
        for frames in [1, 2, 7, 8] {
            let llrs: Vec<f32> = (0..frames).flat_map(|f| frame(n, f, &mut rng)).collect();
            let want = scalar.decode_block(&llrs, MAX_ITERATIONS);
            if frames >= 7 {
                assert!(
                    want.iter().any(|r| r.converged) && want.iter().any(|r| !r.converged),
                    "{spec}: a {frames}-frame block must mix convergence"
                );
            }
            let got = packed.decode_block(&llrs, MAX_ITERATIONS);
            assert_eq!(got.len(), frames, "{spec}: result count");
            for (f, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(g, w, "{spec}: frame {f} of {frames}");
            }
        }
    }
    println!(
        "packed path: {}",
        if PackedFixedDecoder::simd_active() {
            "AVX2 compile"
        } else {
            "baseline compile"
        }
    );
}

/// The AVX2 compile of the lane loops must actually run wherever it can:
/// every x86-64 build compiles it, and one that silently fell back to the
/// baseline compile on a CPU with AVX2 would still pass every
/// bit-exactness test.
#[cfg(target_arch = "x86_64")]
#[test]
fn simd_build_runs_the_avx2_mirror_when_the_cpu_has_it() {
    let avx2 = std::arch::is_x86_feature_detected!("avx2");
    println!(
        "CPU AVX2: {avx2}; packed path: {}",
        if PackedFixedDecoder::simd_active() {
            "AVX2 compile"
        } else {
            "baseline compile"
        }
    );
    assert_eq!(PackedFixedDecoder::simd_active(), avx2);
    let code = ldpc_core::codes::ccsds_c2::code();
    let llrs = frame(code.n(), 1, &mut StdRng::seed_from_u64(7));
    let mut dec = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
    let _ = dec.decode(&llrs, 2);
    println!("AVX2 path ran: {}", dec.ran_simd());
    assert_eq!(dec.ran_simd(), avx2);
}

//! Property-based tests over codes, encoders, and decoders.

use gf2::{BitSlices, BitVec};
use ldpc_core::codes::ar4ja::{base_matrix, Ar4jaCode, Ar4jaRate};
use ldpc_core::codes::small::{demo_code, random_c2_like};
use ldpc_core::decoder::kernels::{cn_scan, Scaling};
use ldpc_core::{
    BatchMinSumDecoder, BitsliceGallagerBDecoder, BlockDecoder, DecoderSpec, Encoder, FixedConfig,
    FixedDecoder, GallagerBDecoder, LlrQuantizer, MinSumConfig, MinSumDecoder, PackedFixedDecoder,
    SpecError, SumProductDecoder,
};
use proptest::prelude::*;

/// A batch of frames with per-frame noise quality drawn independently, so
/// batches mix immediately-converging, slowly-converging, and
/// never-converging frames (exercising per-frame early termination).
fn mixed_quality_batch(qualities: &[u8], noise: &[f32], n: usize) -> Vec<f32> {
    let mut llrs = Vec::with_capacity(qualities.len() * n);
    for (f, &q) in qualities.iter().enumerate() {
        for b in 0..n {
            let x = noise[(f * n + b) % noise.len()];
            llrs.push(match q % 3 {
                0 => 4.0 + x,       // clean: converges in one iteration
                1 => 1.2 + 1.8 * x, // marginal: converges late or never
                _ => 3.0 * x,       // garbage: usually never converges
            });
        }
    }
    llrs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any message encodes to a word in the null space of H.
    #[test]
    fn encoder_always_produces_codewords(seed in 0u64..20, bits in prop::collection::vec(any::<bool>(), 0..64)) {
        let code = random_c2_like(seed, 13, 4);
        let enc = Encoder::new(&code).unwrap();
        let mut msg = BitVec::zeros(enc.dimension());
        for (i, &b) in bits.iter().enumerate() {
            if i < msg.len() && b {
                msg.set(i, true);
            }
        }
        let cw = enc.encode(&msg).unwrap();
        prop_assert!(code.is_codeword(&cw));
        prop_assert_eq!(enc.extract_message(&cw), msg);
    }

    /// The fixed-point CN kernel agrees with a brute-force reference for
    /// arbitrary degrees and values.
    #[test]
    fn cn_kernel_matches_bruteforce(
        inputs in prop::collection::vec(-31i16..=31, 2..20),
    ) {
        let state = cn_scan(&inputs);
        for i in 0..inputs.len() {
            let mut mag = i16::MAX;
            let mut neg = false;
            for (j, &x) in inputs.iter().enumerate() {
                if i != j {
                    mag = mag.min(x.abs());
                    neg ^= x < 0;
                }
            }
            let expect = if neg { -mag } else { mag };
            prop_assert_eq!(state.output(i as u32, Scaling::Unity), expect);
            // Scaled outputs shrink magnitudes but keep signs.
            let scaled = state.output(i as u32, Scaling::ThreeQuarters);
            prop_assert!(scaled.abs() <= expect.abs());
            if expect != 0 && scaled != 0 {
                prop_assert_eq!(scaled.signum(), expect.signum());
            }
        }
    }

    /// Quantizer: monotone, symmetric, saturating.
    #[test]
    fn quantizer_properties(bits in 2u32..10, llr in -100.0f32..100.0, step in 0.1f32..2.0) {
        let q = LlrQuantizer::new(bits, step);
        let level = q.quantize(llr);
        prop_assert!(level.abs() <= q.max_level());
        prop_assert_eq!(q.quantize(-llr), -level);
        // Monotonicity in a small neighbourhood.
        prop_assert!(q.quantize(llr + step) >= level);
    }

    /// Decoding a noiseless codeword recovers it exactly, for every decoder.
    #[test]
    fn noiseless_codewords_are_fixed_points(
        seed in 0u64..10,
        msg_bits in prop::collection::vec(any::<bool>(), 32),
    ) {
        let code = random_c2_like(seed, 13, 4);
        let enc = Encoder::new(&code).unwrap();
        let mut msg = BitVec::zeros(enc.dimension());
        for (i, &b) in msg_bits.iter().enumerate() {
            if i < msg.len() && b {
                msg.set(i, true);
            }
        }
        let cw = enc.encode(&msg).unwrap();
        let llrs: Vec<f32> = (0..code.n())
            .map(|i| if cw.get(i) { -4.0 } else { 4.0 })
            .collect();
        let mut spa = SumProductDecoder::new(code.clone());
        let mut ms = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(4.0 / 3.0));
        let mut fx = FixedDecoder::new(code.clone(), FixedConfig::default());
        for out in [spa.decode(&llrs, 8), ms.decode(&llrs, 8), fx.decode(&llrs, 8)] {
            prop_assert!(out.converged);
            prop_assert_eq!(&out.hard_decision, &cw);
        }
    }

    /// A converged decode always reports a zero syndrome.
    #[test]
    fn converged_implies_valid_codeword(
        noise in prop::collection::vec(-2.0f32..4.0, 248),
    ) {
        let code = demo_code();
        let mut dec = MinSumDecoder::new(code.clone(), MinSumConfig::normalized(1.25));
        let out = dec.decode(&noise, 20);
        if out.converged {
            prop_assert!(code.is_codeword(&out.hard_decision));
        }
    }

    /// Batched min-sum decoding equals per-frame decoding bit for bit, on
    /// mixed-convergence batches of any width up to the capacity, for all
    /// check-node correction variants.
    #[test]
    fn batch_minsum_equals_per_frame(
        qualities in prop::collection::vec(any::<u8>(), 1..9),
        // 251 is coprime to n = 248, so each frame reads a shifted window
        // of the noise pool — same-quality lanes still get distinct LLRs.
        noise in prop::collection::vec(-1.0f32..1.0, 251),
        variant in 0u8..3,
        early_stop in any::<bool>(),
    ) {
        let code = demo_code();
        let cfg = match variant {
            0 => MinSumConfig::plain(),
            1 => MinSumConfig::normalized(4.0 / 3.0),
            _ => MinSumConfig::offset(0.2),
        }
        .with_early_stop(early_stop);
        let llrs = mixed_quality_batch(&qualities, &noise, code.n());
        let mut batched = BatchMinSumDecoder::new(code.clone(), cfg.clone(), qualities.len());
        let mut single = MinSumDecoder::new(code.clone(), cfg);
        let got = batched.decode_batch(&llrs, 12);
        let want = single.decode_block(&llrs, 12);
        prop_assert_eq!(got, want);
    }

    /// Batched (packed) fixed-point decoding equals per-frame decoding
    /// bit for bit on mixed-convergence batches of 1 to 8 frames (the
    /// hardware-exact datapath).
    #[test]
    fn batch_fixed_equals_per_frame(
        qualities in prop::collection::vec(any::<u8>(), 1..9),
        noise in prop::collection::vec(-1.0f32..1.0, 251),
        early_stop in any::<bool>(),
    ) {
        let code = demo_code();
        let cfg = FixedConfig::default().with_early_stop(early_stop);
        let llrs = mixed_quality_batch(&qualities, &noise, code.n());
        let mut batched = PackedFixedDecoder::new(code.clone(), cfg);
        let mut single = FixedDecoder::new(code.clone(), cfg);
        let got = batched.decode_batch(&llrs, 12);
        let want = single.decode_block(&llrs, 12);
        prop_assert_eq!(got, want);
    }

    /// The packed fixed decoder accepts quantized (hardware-format)
    /// input and matches `decode_quantized` frame by frame.
    #[test]
    fn batch_fixed_quantized_equals_per_frame(
        frames in 1usize..6,
        seed in any::<u16>(),
    ) {
        let code = demo_code();
        let n = code.n();
        // Cheap deterministic level pattern in the 5-bit channel range.
        let channel: Vec<i16> = (0..frames * n)
            .map(|i| {
                let x = (i as u64).wrapping_mul(6364136223846793005).wrapping_add(seed as u64);
                ((x >> 33) % 31) as i16 - 15 // uniform in the 5-bit range -15..=15
            })
            .collect();
        let mut batched = PackedFixedDecoder::new(code.clone(), FixedConfig::default());
        let mut single = FixedDecoder::new(code.clone(), FixedConfig::default());
        let got = batched.decode_quantized_batch(&channel, 10);
        for (f, got_f) in got.iter().enumerate() {
            let want = single.decode_quantized(&channel[f * n..(f + 1) * n], 10);
            prop_assert_eq!(got_f, &want);
        }
    }

    /// Fixed-point decoding is invariant to LLR scaling that maps to the
    /// same quantization levels.
    #[test]
    fn fixed_decoder_depends_only_on_levels(scale in 1.0f32..1.24) {
        let code = demo_code();
        let mut dec = FixedDecoder::new(code.clone(), FixedConfig::default());
        // Levels of llr=2.0 at step 0.5 is 4; 2.0*scale stays level 4 while
        // scale < 1.125 keeps round(4*scale)==4.
        prop_assume!(scale < 1.12);
        let a: Vec<f32> = (0..code.n()).map(|i| if i % 9 == 0 { -2.0 } else { 2.0 }).collect();
        let b: Vec<f32> = a.iter().map(|x| x * scale).collect();
        let ra = dec.decode(&a, 10);
        let rb = dec.decode(&b, 10);
        prop_assert_eq!(ra, rb);
    }

    /// Bit-sliced Gallager-B is bit-exact per lane against the scalar
    /// decoder over mixed-convergence words — lanes that converge at
    /// iteration 0, lanes that converge late, lanes that stall, and lanes
    /// that exhaust the budget — including partial final words (any frame
    /// count 1..=64).
    #[test]
    fn bitslice_gallager_b_equals_scalar_per_lane(
        frames in 1usize..=64,
        qualities in prop::collection::vec(any::<u8>(), 64),
        noise in prop::collection::vec(-1.0f32..1.0, 251),
        threshold in 2usize..5,
        budget in 0u32..20,
    ) {
        let code = demo_code();
        let llrs = mixed_quality_batch(&qualities[..frames], &noise, code.n());
        let mut sliced = BitsliceGallagerBDecoder::new(code.clone(), threshold);
        let mut scalar = GallagerBDecoder::new(code.clone(), threshold);
        let got = sliced.decode_batch(&llrs, budget);
        let want = scalar.decode_block(&llrs, budget);
        prop_assert_eq!(got, want);
    }

    /// Packing hard decisions through `BitSlices` and decoding the word
    /// agrees with the LLR front door.
    #[test]
    fn bitslice_hard_slices_agree_with_llr_entry(
        frames in 1usize..=64,
        qualities in prop::collection::vec(any::<u8>(), 64),
        noise in prop::collection::vec(-1.0f32..1.0, 251),
    ) {
        let code = demo_code();
        let llrs = mixed_quality_batch(&qualities[..frames], &noise, code.n());
        let hard: Vec<BitVec> = llrs
            .chunks_exact(code.n())
            .map(|frame| frame.iter().map(|&l| l < 0.0).collect())
            .collect();
        let slices = BitSlices::from_frames(&hard);
        let mut a = BitsliceGallagerBDecoder::new(code.clone(), 3);
        let mut b = BitsliceGallagerBDecoder::new(code.clone(), 3);
        prop_assert_eq!(
            a.decode_hard_slices(&slices, 12),
            b.decode_batch(&llrs, 12)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Structure recovery round trips: a random circulant spec (non-square
    /// block arrays and zero blocks included) expands to a matrix from
    /// which [`QcLdpcSpec::recover`] finds a spec with the *identical*
    /// expansion. Recovery prefers the coarsest description, so its
    /// circulant size is at least the original's; when they agree the
    /// recovered spec is the original, block for block.
    #[test]
    fn qc_structure_recovery_roundtrips(
        l in 2usize..14,
        block_rows in 1usize..4,
        block_cols in 1usize..5,
        tap_seeds in prop::collection::vec(prop::collection::vec(0u32..64, 0..4), 1..20),
    ) {
        use gf2::Circulant;
        use ldpc_core::QcLdpcSpec;
        let mut spec = QcLdpcSpec::new(l, block_rows, block_cols);
        // Scatter the generated tap lists over the block array; blocks
        // with no list (or an empty one) stay zero circulants.
        for (idx, taps) in tap_seeds.iter().enumerate() {
            let r = (idx / block_cols) % block_rows;
            let c = idx % block_cols;
            let positions: Vec<u32> = taps.iter().map(|&t| t % l as u32).collect();
            spec.set_block(r, c, Circulant::new(l, &positions));
        }
        let h = spec.expand();
        let recovered = QcLdpcSpec::recover(&h).expect("expanded spec must recover");
        prop_assert_eq!(recovered.expand(), h);
        prop_assert!(recovered.circulant_size() >= l);
        if recovered.circulant_size() == l {
            prop_assert_eq!(recovered, spec);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The spec grammar round trips: for every family and random valid
    /// parameters (with and without execution modifiers),
    /// `parse(display(spec)) == spec`. Rust's shortest-round-trip float
    /// formatting makes this exact even for awkward alphas like 4/3.
    #[test]
    fn decoder_spec_roundtrips(
        family_idx in 0usize..DecoderSpec::family_names().len(),
        alpha in 1.0f32..4.0,
        beta in 0.0f32..2.0,
        threshold in 1usize..9,
        batch in 1usize..65,
        modified in any::<bool>(),
        explicit_param in any::<bool>(),
    ) {
        let name = DecoderSpec::family_names()[family_idx];
        let head = if explicit_param {
            match name {
                "nms" | "layered" | "qc-layered" | "self-corrected" => format!("{name}:{alpha}"),
                "oms" => format!("oms:{beta}"),
                "gallager-b" => format!("gallager-b:t={threshold}"),
                other => other.to_string(),
            }
        } else {
            name.to_string()
        };
        let mut spec = DecoderSpec::parse(&head).unwrap();
        if modified {
            if spec.family.supports_batch() {
                spec = spec.with_batch(batch).unwrap();
            } else if spec.family.supports_bitslice() {
                spec = spec.with_bitslice().unwrap();
            }
        }
        let rendered = spec.to_string();
        let reparsed = DecoderSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        prop_assert_eq!(&reparsed, &spec, "{} did not round trip", rendered);
        // Display is canonical: rendering the reparsed spec is a fixpoint.
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    /// Unknown or malformed specs never panic and always explain
    /// themselves: the error names the offender and what is valid.
    #[test]
    fn malformed_specs_error_actionably(
        family_idx in 0usize..DecoderSpec::family_names().len(),
        junk_idx in 0usize..6,
    ) {
        let name = DecoderSpec::family_names()[family_idx];
        let junk = ["zz", "-1", "@", ":", "t=", "1..5"][junk_idx];
        // A bad parameter...
        let err = DecoderSpec::parse(&format!("{name}:{junk}:{junk}"))
            .expect_err("malformed spec accepted");
        prop_assert!(!err.to_string().is_empty());
        // ...and an unknown family always lists the registered ones.
        let err = DecoderSpec::parse(&format!("{junk}{name}")).unwrap_err();
        match err {
            SpecError::UnknownFamily(_) => {
                prop_assert!(err.to_string().contains("known families"));
            }
            // e.g. "-1ms" parses as unknown family too; anything else
            // (like an alias prefix forming a valid name) must build.
            other => prop_assert!(!other.to_string().is_empty()),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The code-spec grammar round trips: for every family and random
    /// valid parameters, `parse(display(spec)) == spec`, and display is a
    /// fixpoint (canonical).
    #[test]
    fn code_spec_roundtrips(
        family_idx in 0usize..4,
        rate_idx in 0usize..3,
        m in 8usize..600,
        base_demo in any::<bool>(),
        k in 1usize..8000,
    ) {
        use ldpc_core::codes::ar4ja::Ar4jaRate;
        use ldpc_core::{CodeSpec, ShortenedBase};
        let spec = match family_idx {
            0 => CodeSpec::Demo,
            1 => CodeSpec::C2,
            2 => {
                let rate = [Ar4jaRate::Half, Ar4jaRate::TwoThirds, Ar4jaRate::FourFifths][rate_idx];
                CodeSpec::Ar4ja { rate, k: m * (rate.var_blocks() - 3) }
            }
            _ => CodeSpec::Shortened {
                base: if base_demo { ShortenedBase::Demo } else { ShortenedBase::C2 },
                k,
            },
        };
        let rendered = spec.to_string();
        let reparsed = CodeSpec::parse(&rendered)
            .unwrap_or_else(|e| panic!("{rendered}: {e}"));
        prop_assert_eq!(reparsed, spec, "{} did not round trip", rendered);
        prop_assert_eq!(reparsed.to_string(), rendered);
    }

    /// Unknown or malformed code specs never panic and always explain
    /// themselves.
    #[test]
    fn malformed_code_specs_error_actionably(junk_idx in 0usize..6) {
        let junk = ["zz", "-1", "@", ":", "k=", "r=9/9"][junk_idx];
        let err = ldpc_core::CodeSpec::parse(&format!("ar4ja:{junk}"))
            .expect_err("malformed ar4ja parameters accepted");
        prop_assert!(!err.to_string().is_empty());
        let err = ldpc_core::CodeSpec::parse(&format!("{junk}-code")).unwrap_err();
        prop_assert!(!err.to_string().is_empty());
    }
}

// AR4JA construction properties.

fn arb_rate() -> impl Strategy<Value = Ar4jaRate> {
    prop::sample::select(vec![
        Ar4jaRate::Half,
        Ar4jaRate::TwoThirds,
        Ar4jaRate::FourFifths,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Lifted dimensions follow the protograph for any circulant size and
    /// seed; the rate accounting is consistent.
    #[test]
    fn lifted_dimensions(rate in arb_rate(), m in 8usize..48, seed in 0u64..100) {
        let code = Ar4jaCode::build(rate, m, seed);
        let vars = rate.var_blocks();
        prop_assert_eq!(code.full_len(), vars * m);
        prop_assert_eq!(code.transmitted_len(), (vars - 1) * m);
        prop_assert_eq!(code.info_len(), (vars - 3) * m);
        prop_assert!((code.rate() - rate.as_f64()).abs() < 1e-9);
        prop_assert_eq!(code.code().n_checks(), 3 * m);
        // Edge count equals total base multiplicity x m.
        let mult: usize = base_matrix(rate).iter().flatten().map(|&e| e as usize).sum();
        prop_assert_eq!(code.code().h().nnz(), mult * m);
    }

    /// The true dimension never falls below the nominal k (the lifting can
    /// only add degeneracy, not remove codewords).
    #[test]
    fn dimension_at_least_nominal(rate in arb_rate(), seed in 0u64..20) {
        let code = Ar4jaCode::build(rate, 24, seed);
        prop_assert!(code.code().dimension() >= code.info_len());
    }

    /// Puncture/expand are consistent: expanding transmitted LLRs zeroes
    /// exactly the punctured block.
    #[test]
    fn puncture_expand_consistency(rate in arb_rate(), m in 8usize..32) {
        let code = Ar4jaCode::build(rate, m, 1);
        let tx = vec![1.25f32; code.transmitted_len()];
        let full = code.expand_llrs(&tx);
        prop_assert_eq!(full.len(), code.full_len());
        prop_assert!(full[..code.transmitted_len()].iter().all(|&x| x == 1.25));
        prop_assert!(full[code.transmitted_len()..].iter().all(|&x| x == 0.0));
        let cw = gf2::BitVec::ones(code.full_len());
        prop_assert_eq!(code.puncture(&cw).len(), code.transmitted_len());
    }
}

//! Cross-decoder conformance suite: one parameterized harness over every
//! decoder family in the workspace, **derived from the
//! [`DecoderSpec`] registry** — a newly registered family is covered
//! automatically, and a family missing from the registry fails the
//! completeness test below.
//!
//! Two classes of guarantee, asserted on a shared corpus of noisy frames:
//!
//! 1. **Soundness** — whenever any decoder reports success (`converged`),
//!    its hard decision is a valid codeword (zero syndrome). A decoder
//!    may fail to decode; it must never claim success on a non-codeword.
//! 2. **Documented bit-exact pairs** — the batched decoders against their
//!    per-frame counterparts, and the bit-sliced Gallager-B against the
//!    scalar one, must agree bit for bit, frame by frame.
//!
//! Every family is additionally checked to be deterministic (same corpus
//! twice → same results), which is what makes the golden vectors in
//! `golden_vectors.rs` meaningful.
//!
//! The corpus seed defaults to a fixed value and can be pinned from the
//! environment (`LDPC_CONFORMANCE_SEED`) — CI runs this suite single
//! threaded with an explicit seed so lane-masking bugs that depend on a
//! specific noise interleaving stay reproducible.

use ccsds_ldpc::channel::{AwgnChannel, ChannelSpec};
use ccsds_ldpc::core::codes::small::demo_code;
use ccsds_ldpc::core::{BlockDecoder, DecoderSpec, FixedConfig, FixedDecoder};
use ccsds_ldpc::gf2::BitVec;

const MAX_ITERATIONS: u32 = 15;

/// The corpus seed: fixed by default, overridable from the environment so
/// CI can pin (or sweep) the exact noise realization.
fn corpus_seed() -> u64 {
    std::env::var("LDPC_CONFORMANCE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0DE_2009)
}

/// Noisy all-zero frames over AWGN at several operating points, from the
/// clearly-decodable to the clearly-hopeless, stored back to back.
fn corpus() -> Vec<f32> {
    let code = demo_code();
    let seed = corpus_seed();
    let mut llrs = Vec::new();
    for (i, ebn0) in [8.0, 5.0, 3.0, 1.0, -1.0].into_iter().enumerate() {
        let mut channel = AwgnChannel::from_ebn0(ebn0, code.rate(), seed.wrapping_add(i as u64));
        let zero = BitVec::zeros(code.n());
        for _ in 0..16 {
            llrs.extend(channel.transmit_codeword(&zero));
        }
    }
    llrs
}

/// Every decoder family in the registry, built over the demo code. The
/// suite iterates the registry — not a hand-maintained list — so
/// registering a family in [`DecoderSpec::all_families`] is all it takes
/// to be covered here.
fn all_families() -> Vec<(DecoderSpec, Box<dyn BlockDecoder>)> {
    let code = demo_code();
    DecoderSpec::all_families()
        .into_iter()
        .map(|spec| {
            let decoder = spec.build(&code);
            (spec, decoder)
        })
        .collect()
}

/// The registry must cover every family the grammar can name: each
/// registered keyword appears among `all_families()`, with the expected
/// totals. Adding a family to the parser without registering it — or the
/// reverse — fails here.
#[test]
fn registry_is_complete() {
    let all = DecoderSpec::all_families();
    for name in DecoderSpec::family_names() {
        let spec = DecoderSpec::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            all.iter()
                .any(|s| std::mem::discriminant(&s.family) == std::mem::discriminant(&spec.family)),
            "family {name} is parseable but missing from DecoderSpec::all_families()"
        );
    }
    // 11 scalar families + 4 modified specs (two of them the `fixed`
    // aliases). Update both the grammar and this count when registering
    // a new family.
    assert_eq!(DecoderSpec::family_names().len(), 11);
    assert_eq!(all.len(), 15);
    // Canonical specs round trip through the grammar.
    for spec in &all {
        assert_eq!(
            &DecoderSpec::parse(&spec.to_string()).unwrap(),
            spec,
            "canonical spec {spec} does not round trip"
        );
    }
}

#[test]
fn every_family_reports_success_only_on_valid_codewords() {
    let code = demo_code();
    let llrs = corpus();
    let n_frames = llrs.len() / code.n();
    for (spec, mut decoder) in all_families() {
        let results = decoder.decode_block(&llrs, MAX_ITERATIONS);
        assert_eq!(results.len(), n_frames, "{spec}: result count mismatch");
        let mut successes = 0usize;
        for (f, r) in results.iter().enumerate() {
            assert_eq!(
                r.hard_decision.len(),
                code.n(),
                "{spec}: frame {f} wrong length"
            );
            if r.converged {
                successes += 1;
                assert!(
                    code.is_codeword(&r.hard_decision),
                    "{spec}: frame {f} claimed success on a non-codeword"
                );
                assert!(
                    r.iterations <= MAX_ITERATIONS,
                    "{spec}: frame {f} overspent the budget"
                );
            }
        }
        // The corpus spans clean to hopeless: every family must decode
        // the clean end and none may decode everything.
        assert!(
            successes >= 16,
            "{spec}: only {successes}/{n_frames} frames decoded — corpus broken?"
        );
        assert!(
            successes < n_frames,
            "{spec}: decoded the hopeless frames too — corpus broken?"
        );
    }
}

#[test]
fn every_family_is_deterministic_on_the_corpus() {
    let llrs = corpus();
    for (spec, mut decoder) in all_families() {
        let a = decoder.decode_block(&llrs, MAX_ITERATIONS);
        let b = decoder.decode_block(&llrs, MAX_ITERATIONS);
        assert_eq!(a, b, "{spec}: decode is not deterministic");
    }
}

/// The documented bit-exact pairs: each packed mirror in the registry
/// promises byte-identical `DecodeResult`s to its scalar reference.
#[test]
fn documented_bit_exact_pairs_agree() {
    let code = demo_code();
    let llrs = corpus();
    let spec = |s: &str| DecoderSpec::parse(s).unwrap().build(&code);
    // The fixed-point specs answer to the per-edge `FixedDecoder` itself:
    // plain `fixed` and its aliases build the packed datapath.
    let per_edge = || -> Box<dyn BlockDecoder> {
        Box::new(FixedDecoder::new(code.clone(), FixedConfig::default()))
    };
    // Every grammar-reachable packed mirror, not just the registry's
    // canonical four: ms@batch and oms@batch share the batched min-sum
    // datapath but exercise the plain/offset correction arms, and
    // fixed@batch=N is an alias of plain `fixed` for any N.
    let pairs = [
        ("ms", spec("ms"), "ms@batch=8"),
        ("nms", spec("nms"), "nms@batch=8"),
        ("oms", spec("oms"), "oms@batch=8"),
        ("FixedDecoder", per_edge(), "fixed"),
        ("FixedDecoder", per_edge(), "fixed@batch=8"),
        ("FixedDecoder", per_edge(), "fixed@batch=3"),
        ("FixedDecoder", per_edge(), "fixed@batch=16"),
        ("FixedDecoder", per_edge(), "fixed@pack=8"),
        ("gallager-b", spec("gallager-b"), "gallager-b@bitslice"),
    ];
    for (reference, mut decoder, mirror) in pairs {
        let want = decoder.decode_block(&llrs, MAX_ITERATIONS);
        let got = DecoderSpec::parse(mirror)
            .unwrap()
            .build(&code)
            .decode_block(&llrs, MAX_ITERATIONS);
        assert_eq!(
            got, want,
            "{mirror} diverged from its reference {reference}"
        );
    }
}

/// Noisy all-zero frames over a non-AWGN channel named by a
/// [`ChannelSpec`], at several Eb/N0 operating points (the BSC's
/// severity is its fixed crossover; Eb/N0 only varies the Gaussian
/// models). Mirrors [`corpus`] so the registry families face the same
/// clean-to-hopeless spread on every channel model.
fn channel_corpus(channel: &str) -> Vec<f32> {
    let code = demo_code();
    let spec = ChannelSpec::parse(channel).unwrap_or_else(|e| panic!("{channel}: {e}"));
    let seed = corpus_seed();
    let mut llrs = Vec::new();
    for (i, ebn0) in [10.0, 7.0, 4.0, 1.0].into_iter().enumerate() {
        let mut ch = spec.build(ebn0, code.rate(), seed.wrapping_add(i as u64));
        let zero = BitVec::zeros(code.n());
        for _ in 0..16 {
            llrs.extend(ch.transmit_codeword(&zero));
        }
    }
    llrs
}

/// The soundness contract is channel-independent, asserted on every
/// non-default channel family in the registry: BSC (constant LLR
/// magnitudes — the hard-decision regime), Rayleigh fading (wildly
/// varying magnitudes), symbol erasures (zero LLRs among known-symbol
/// certainties), and the Gilbert-Elliott burst channel (clustered weak
/// wrong beliefs; a mild operating point so its clean end stays
/// decodable). Every registry family may fail to decode but must never
/// claim success on a non-codeword, and must stay deterministic under
/// the pinned corpus seed.
#[test]
fn every_family_sound_and_deterministic_on_every_channel_family() {
    let code = demo_code();
    for channel in [
        "bsc:0.02",
        "rayleigh",
        "erasure:0.05",
        "burst:0.005,0.06,0.02",
    ] {
        let llrs = channel_corpus(channel);
        let n_frames = llrs.len() / code.n();
        let mut any_success = 0usize;
        for (spec, mut decoder) in all_families() {
            let results = decoder.decode_block(&llrs, MAX_ITERATIONS);
            assert_eq!(
                results.len(),
                n_frames,
                "{channel}/{spec}: result count mismatch"
            );
            for (f, r) in results.iter().enumerate() {
                if r.converged {
                    any_success += 1;
                    assert!(
                        code.is_codeword(&r.hard_decision),
                        "{channel}/{spec}: frame {f} claimed success on a non-codeword"
                    );
                }
            }
            // Determinism under the pinned seed: the corpus is fixed, so
            // decoding it twice is bit-identical.
            let again = decoder.decode_block(&llrs, MAX_ITERATIONS);
            assert_eq!(
                again, results,
                "{channel}/{spec}: decode is not deterministic"
            );
        }
        // The corpus has a clean end: across the registry, successes
        // must actually occur on every channel model.
        assert!(
            any_success > 0,
            "{channel}: no family decoded anything — corpus broken?"
        );
    }
}

/// Reorders a frame-major corpus so consecutive frames cycle through the
/// operating points: every 8 consecutive frames then mix
/// immediately-converging, late-converging, and never-converging ones.
fn stripe_operating_points(llrs: &[f32], n: usize, points: usize) -> Vec<f32> {
    let frames = llrs.len() / n;
    let per_point = frames / points;
    let mut out = Vec::with_capacity(llrs.len());
    for i in 0..per_point {
        for p in 0..points {
            let f = p * per_point + i;
            out.extend_from_slice(&llrs[f * n..(f + 1) * n]);
        }
    }
    out
}

/// The packed `fixed` datapath, through plain `fixed` and its alias
/// `fixed@pack=8`, against the per-edge `FixedDecoder`, under **mixed
/// convergence**: the corpora are striped across their operating points
/// so every run of 8 frames holds frames that converge at different
/// iterations (and some that never do). Hard decisions, convergence flags, and
/// iteration counts must be bit-exact per frame on every channel model —
/// AWGN, BSC, and Rayleigh fading.
#[test]
fn packed_fixed_lanes_bit_exact_under_mixed_convergence() {
    let code = demo_code();
    let n = code.n();
    let corpora = [
        ("awgn", corpus(), 5),
        ("bsc:0.02", channel_corpus("bsc:0.02"), 4),
        ("rayleigh", channel_corpus("rayleigh"), 4),
    ];
    for (channel, llrs, points) in corpora {
        let striped = stripe_operating_points(&llrs, n, points);
        let want = FixedDecoder::new(code.clone(), FixedConfig::default())
            .decode_block(&striped, MAX_ITERATIONS);
        // Words genuinely mix convergence: the first word must hold both
        // a converged and an unconverged lane, or the striping is broken.
        assert!(
            want[..8].iter().any(|r| r.converged) && want[..8].iter().any(|r| !r.converged),
            "{channel}: first packed word does not mix convergence"
        );
        for mirror in ["fixed@pack=8", "fixed"] {
            let got = DecoderSpec::parse(mirror)
                .unwrap()
                .build(&code)
                .decode_block(&striped, MAX_ITERATIONS);
            assert_eq!(want.len(), got.len(), "{channel}: result count mismatch");
            for (f, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    g,
                    w,
                    "{channel}: {mirror} frame {f} (lane {} of word {}) diverged from FixedDecoder",
                    f % 8,
                    f / 8
                );
            }
        }
    }
}

/// The QC block-layered schedule against the serial layered reference:
/// the schedules differ inside a block row (Jacobi vs fully serial), so
/// LLR trajectories diverge — but on the corpus's clearly decodable
/// frames (the 8 and 5 dB operating points) both must converge and land
/// on the same codeword.
#[test]
fn qc_layered_matches_layered_on_decodable_frames() {
    let code = demo_code();
    let llrs = corpus();
    let n = code.n();
    let mut qc = DecoderSpec::parse("qc-layered").unwrap().build(&code);
    let mut serial = DecoderSpec::parse("layered").unwrap().build(&code);
    let a = qc.decode_block(&llrs, MAX_ITERATIONS);
    let b = serial.decode_block(&llrs, MAX_ITERATIONS);
    assert_eq!(a.len(), b.len());
    // The first 32 frames are the 8 and 5 dB points: clearly decodable.
    for (f, (qa, qb)) in a.iter().zip(&b).take(32).enumerate() {
        assert!(qa.converged, "qc-layered failed decodable frame {f}");
        assert!(qb.converged, "layered failed decodable frame {f}");
        assert_eq!(
            qa.hard_decision, qb.hard_decision,
            "schedules disagree on decodable frame {f}"
        );
        assert_eq!(qa.hard_decision.len(), n);
    }
}

/// The soundness contract holds at a tiny iteration budget too, where
/// most frames end unconverged — and at budget 0, where every family
/// reports its channel decision.
#[test]
fn starved_budget_still_sound() {
    let code = demo_code();
    let n = code.n();
    let llrs = corpus();
    for (spec, mut decoder) in all_families() {
        // Budget 1 first, so the budget-0 decode starts from a decoder
        // that has already decoded other frames.
        for budget in [1, 0] {
            let results = decoder.decode_block(&llrs, budget);
            for (f, r) in results.iter().enumerate() {
                if r.converged {
                    assert!(
                        code.is_codeword(&r.hard_decision),
                        "{spec}: success on non-codeword at budget {budget}"
                    );
                }
                if budget > 0 {
                    continue;
                }
                // No iteration: the same result as a fresh decoder's, and
                // the channel sign wherever the LLR is clear of zero.
                let frame = &llrs[f * n..(f + 1) * n];
                let fresh = spec.build(&code).decode_block(frame, 0).remove(0);
                assert_eq!(
                    r, &fresh,
                    "{spec}: frame {f} at budget 0 depends on history"
                );
                assert_eq!(r.iterations, 0, "{spec}: frame {f} iterated at budget 0");
                for (b, &llr) in frame.iter().enumerate() {
                    if llr.abs() >= 1.0 {
                        assert_eq!(
                            r.hard_decision.get(b),
                            llr < 0.0,
                            "{spec}: frame {f} bit {b} at budget 0 is not the channel sign"
                        );
                    }
                }
            }
        }
    }
}

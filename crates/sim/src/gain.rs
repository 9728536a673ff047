//! Coding-gain measurement: the Eb/N0 a decoder needs to reach a target
//! error rate, and dB gaps between decoders.
//!
//! The paper's §5 headline — "BER and PER which are 0.05 dB better than
//! the CCSDS FPGA tests results" — is a statement about the *horizontal*
//! gap between two waterfall curves. [`ebn0_at_per`] finds where one curve
//! crosses a target PER by bisection on the (monotone) PER-vs-Eb/N0
//! characteristic, and [`gain_db`] subtracts two such thresholds.

use crate::{run_point_blocks, MonteCarloConfig, PointResult};
use ldpc_core::{BlockDecoder, Encoder, LdpcCode};
use std::sync::Arc;

/// Result of a threshold search.
#[derive(Debug, Clone)]
pub struct ThresholdResult {
    /// Eb/N0 (dB) at which the decoder's PER crosses the target.
    pub ebn0_db: f64,
    /// The Monte-Carlo points evaluated during the search, in evaluation
    /// order (useful for plotting the probed curve).
    pub probes: Vec<PointResult>,
}

/// Finds the Eb/N0 at which the decoder's packet error rate equals
/// `target_per`, by bisection over `[lo_db, hi_db]`.
///
/// PER decreases monotonically with Eb/N0, so bisection converges; the
/// search runs `steps` halvings (each costing one Monte-Carlo point with
/// `cfg`'s frame budget). Accuracy is limited jointly by the bisection
/// resolution `(hi−lo)/2^steps` and the Monte-Carlo noise of each probe —
/// for fine gaps (hundredths of a dB, as in the paper's §5 claim) use
/// generous frame budgets.
///
/// # Panics
///
/// Panics if the bracket is invalid, `target_per` is not in (0, 1), or
/// `steps == 0`.
#[allow(clippy::too_many_arguments)]
pub fn ebn0_at_per<F, D>(
    code: &Arc<LdpcCode>,
    encoder: Option<&Arc<Encoder>>,
    cfg: &MonteCarloConfig,
    target_per: f64,
    lo_db: f64,
    hi_db: f64,
    steps: u32,
    factory: F,
) -> ThresholdResult
where
    F: Fn() -> D + Sync,
    D: BlockDecoder,
{
    assert!(lo_db < hi_db, "invalid bisection bracket");
    assert!(
        target_per > 0.0 && target_per < 1.0,
        "target PER must be in (0,1)"
    );
    assert!(steps > 0, "need at least one bisection step");
    let mut lo = lo_db;
    let mut hi = hi_db;
    let mut probes = Vec::new();
    for step in 0..steps {
        let mid = 0.5 * (lo + hi);
        let point_cfg = MonteCarloConfig {
            ebn0_db: mid,
            // Fresh noise per probe, deterministic per step.
            seed: cfg.seed.wrapping_add(u64::from(step) * 0x9E37),
            ..cfg.clone()
        };
        let point = run_point_blocks(code, encoder, &point_cfg, &factory);
        let per = point.per();
        probes.push(point);
        if per > target_per {
            lo = mid; // too noisy: need more Eb/N0
        } else {
            hi = mid;
        }
    }
    ThresholdResult {
        ebn0_db: 0.5 * (lo + hi),
        probes,
    }
}

/// Coding gain of decoder `a` over decoder `b` at a target PER, in dB
/// (positive = `a` needs less Eb/N0).
///
/// Both thresholds are measured with the same configuration and bracket.
#[allow(clippy::too_many_arguments)]
pub fn gain_db<Fa, Fb, Da, Db>(
    code: &Arc<LdpcCode>,
    encoder: Option<&Arc<Encoder>>,
    cfg: &MonteCarloConfig,
    target_per: f64,
    lo_db: f64,
    hi_db: f64,
    steps: u32,
    factory_a: Fa,
    factory_b: Fb,
) -> (f64, ThresholdResult, ThresholdResult)
where
    Fa: Fn() -> Da + Sync,
    Fb: Fn() -> Db + Sync,
    Da: BlockDecoder,
    Db: BlockDecoder,
{
    let a = ebn0_at_per(
        code, encoder, cfg, target_per, lo_db, hi_db, steps, factory_a,
    );
    let b = ebn0_at_per(
        code, encoder, cfg, target_per, lo_db, hi_db, steps, factory_b,
    );
    (b.ebn0_db - a.ebn0_db, a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transmission;
    use ldpc_core::codes::small::demo_code;
    use ldpc_core::{MinSumConfig, MinSumDecoder};

    fn cfg() -> MonteCarloConfig {
        MonteCarloConfig {
            ebn0_db: 0.0,
            max_frames: 600,
            target_frame_errors: 0,
            max_iterations: 20,
            seed: 0x6A1,
            threads: 0,
            transmission: Transmission::AllZero,
        }
    }

    #[test]
    fn threshold_lands_inside_bracket_on_the_waterfall() {
        let code = demo_code();
        let t = ebn0_at_per(&code, None, &cfg(), 0.1, 0.0, 8.0, 5, || {
            MinSumDecoder::new(demo_code(), MinSumConfig::normalized(1.25))
        });
        assert!(
            t.ebn0_db > 0.5 && t.ebn0_db < 7.5,
            "threshold {}",
            t.ebn0_db
        );
        assert_eq!(t.probes.len(), 5);
    }

    #[test]
    fn stricter_target_needs_more_snr() {
        let code = demo_code();
        let loose = ebn0_at_per(&code, None, &cfg(), 0.3, 0.0, 8.0, 5, || {
            MinSumDecoder::new(demo_code(), MinSumConfig::normalized(1.25))
        });
        let strict = ebn0_at_per(&code, None, &cfg(), 0.01, 0.0, 8.0, 5, || {
            MinSumDecoder::new(demo_code(), MinSumConfig::normalized(1.25))
        });
        assert!(
            strict.ebn0_db > loose.ebn0_db,
            "PER 1e-2 at {} dB vs PER 0.3 at {} dB",
            strict.ebn0_db,
            loose.ebn0_db
        );
    }

    #[test]
    fn normalized_min_sum_gains_over_plain() {
        // The §5 mechanism: the correction factor buys a positive dB gain
        // at equal iteration count.
        let code = demo_code();
        let (gain, _, _) = gain_db(
            &code,
            None,
            &cfg(),
            0.1,
            0.0,
            8.0,
            5,
            || MinSumDecoder::new(demo_code(), MinSumConfig::normalized(4.0 / 3.0)),
            || MinSumDecoder::new(demo_code(), MinSumConfig::plain()),
        );
        assert!(
            gain > -0.3,
            "normalized should not lose to plain: gain {gain} dB"
        );
    }

    #[test]
    #[should_panic(expected = "bracket")]
    fn invalid_bracket_rejected() {
        let code = demo_code();
        let _ = ebn0_at_per(&code, None, &cfg(), 0.1, 5.0, 2.0, 3, || {
            MinSumDecoder::new(demo_code(), MinSumConfig::plain())
        });
    }
}

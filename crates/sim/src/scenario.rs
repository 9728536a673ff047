//! The scenario front door: one string names a complete experiment.
//!
//! A [`Scenario`] composes the three spec grammars of the workspace —
//! [`CodeSpec`] (`ldpc-core`), [`ChannelSpec`] (`ldpc-channel`), and
//! [`DecoderSpec`] (`ldpc-core`) — into a single serializable record:
//!
//! ```text
//!   <code> / <channel> / <decoder>
//! ```
//!
//! ```
//! use ldpc_sim::Scenario;
//!
//! let sc = Scenario::parse("c2 / awgn / nms:1.25")?;
//! assert_eq!(sc.to_string(), "c2 / awgn / nms:1.25");
//!
//! // Parameters nest freely; the separator is a slash with whitespace
//! // around it, so AR4JA's rate fraction is unambiguous.
//! let sc = Scenario::parse("ar4ja:r=2/3,k=1024 / bsc:0.02 / fixed@batch=8")?;
//! assert_eq!(sc.code.to_string(), "ar4ja:r=2/3");
//!
//! // Two-part shorthand: `code / decoder`, channel defaults to awgn.
//! // The serving wire protocol (`ldpc-served`) and the docs share this
//! // parser, so "c2 / fixed@pack=8" is a complete spec there.
//! let sc = Scenario::parse("c2 / fixed@pack=8")?;
//! assert_eq!(sc.to_string(), "c2 / awgn / fixed@pack=8");
//! # Ok::<(), ldpc_sim::ScenarioError>(())
//! ```
//!
//! [`run_point_scenario_with`] drives the same Monte-Carlo engine as
//! every other door in this crate: the code spec builds a [`CodeHandle`]
//! (transmission profile included), the channel spec builds the
//! [`Channel`](ldpc_channel::Channel), and the decoder spec builds the
//! [`BlockDecoder`](ldpc_core::BlockDecoder). For plain codes on `awgn`,
//! the counts are bit-identical to
//! [`run_point_blocks`](crate::run_point_blocks) with the spec-built
//! decoder (pinned by tests) — the scenario door adds scope, not a
//! second engine.
//!
//! Scenario runs simulate the all-zero codeword (standard practice for
//! linear codes on symmetric channels; also the only transmission the
//! punctured/shortened profiles support). Error counting runs over the
//! transmitted positions.
//!
//! The full grammar, the registry tables, and copy-pasteable recipes
//! live in `docs/scenarios.md`.

use crate::{engine_seed, run_point_engine, MonteCarloConfig, PointResult};
use ldpc_channel::{ChannelSpec, ChannelSpecError};
use ldpc_core::{CodeHandle, CodeSpec, CodeSpecError, DecoderSpec, SpecError};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// A complete, serializable experiment description: code × channel ×
/// decoder.
///
/// Parse one from `"<code> / <channel> / <decoder>"`, from the two-part
/// shorthand `"<code> / <decoder>"` (channel defaults to `awgn`), or
/// assemble the three specs directly — the fields are public.
/// [`Display`](fmt::Display) renders the canonical three-part form of
/// each part joined by `" / "`, and `parse(display(s)) == s` for every
/// valid scenario (proptested).
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// What is transmitted: the code and its transmission profile.
    pub code: CodeSpec,
    /// What it is transmitted over.
    pub channel: ChannelSpec,
    /// What decodes it.
    pub decoder: DecoderSpec,
}

impl Scenario {
    /// Parses a scenario string — alias of the [`FromStr`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError`] naming the offending part (code,
    /// channel, or decoder) with that grammar's own actionable message.
    pub fn parse(s: &str) -> Result<Self, ScenarioError> {
        s.parse()
    }

    /// Builds the code handle of this scenario.
    ///
    /// # Errors
    ///
    /// Returns [`ScenarioError::Code`] if the code spec cannot be built
    /// (e.g. a `shortened:` k at or above the base dimension).
    pub fn build_code(&self) -> Result<Arc<dyn CodeHandle>, ScenarioError> {
        self.code.build().map_err(ScenarioError::Code)
    }
}

impl fmt::Display for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} / {} / {}", self.code, self.channel, self.decoder)
    }
}

/// Splits a scenario string on standalone slashes (whitespace on at
/// least one side), so `ar4ja:r=1/2` survives intact. A compact string
/// with no standalone slash falls back to splitting on every slash —
/// fine for `c2/awgn/nms`, rejected with a hint otherwise.
fn split_parts(s: &str) -> Vec<&str> {
    let bytes = s.as_bytes();
    let mut parts = Vec::new();
    let mut start = 0;
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'/' {
            continue;
        }
        let space_before = i > 0 && bytes[i - 1].is_ascii_whitespace();
        let space_after = i + 1 < bytes.len() && bytes[i + 1].is_ascii_whitespace();
        if space_before || space_after {
            parts.push(s[start..i].trim());
            start = i + 1;
        }
    }
    parts.push(s[start..].trim());
    if parts.len() == 1 && matches!(s.matches('/').count(), 1 | 2) {
        return s.split('/').map(str::trim).collect();
    }
    parts
}

impl FromStr for Scenario {
    type Err = ScenarioError;

    fn from_str(s: &str) -> Result<Self, ScenarioError> {
        let parts = split_parts(s.trim());
        match parts.len() {
            2 => {
                let code = parts[0].parse().map_err(ScenarioError::Code)?;
                let decoder = match parts[1].parse() {
                    Ok(d) => d,
                    // A channel where the decoder belongs means the caller
                    // meant the 3-part form and stopped early — name it.
                    Err(_) if parts[1].parse::<ChannelSpec>().is_ok() => {
                        return Err(ScenarioError::ChannelNeedsDecoder {
                            channel: parts[1].to_string(),
                        });
                    }
                    Err(e) => return Err(ScenarioError::Decoder(e)),
                };
                Ok(Scenario {
                    code,
                    channel: ChannelSpec::awgn(),
                    decoder,
                })
            }
            3 => Ok(Scenario {
                code: parts[0].parse().map_err(ScenarioError::Code)?,
                channel: parts[1].parse().map_err(ScenarioError::Channel)?,
                decoder: parts[2].parse().map_err(ScenarioError::Decoder)?,
            }),
            found => Err(ScenarioError::Shape { found }),
        }
    }
}

/// Error produced while parsing or building a [`Scenario`].
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The string did not split into code / channel / decoder (or the
    /// two-part code / decoder shorthand).
    Shape {
        /// How many parts were found.
        found: usize,
    },
    /// A two-part scenario put a channel where the decoder belongs.
    ChannelNeedsDecoder {
        /// The channel spec found in the decoder position.
        channel: String,
    },
    /// The code part failed to parse or build.
    Code(CodeSpecError),
    /// The channel part failed to parse.
    Channel(ChannelSpecError),
    /// The decoder part failed to parse.
    Decoder(SpecError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Shape { found } => write!(
                f,
                "a scenario is `code / channel / decoder` \
                 (e.g. \"c2 / awgn / nms:1.25\") or the two-part shorthand \
                 `code / decoder` (channel defaults to awgn), but {found} \
                 part(s) were found; separate the parts with ` / ` (slash \
                 needs whitespace when a spec itself contains one, as in \
                 ar4ja:r=1/2)"
            ),
            Self::ChannelNeedsDecoder { channel } => write!(
                f,
                "two-part scenarios are `code / decoder` (channel defaults \
                 to awgn), but \"{channel}\" is a channel; name the decoder \
                 too, as in the full form `code / channel / decoder`"
            ),
            Self::Code(e) => write!(f, "in the code part: {e}"),
            Self::Channel(e) => write!(f, "in the channel part: {e}"),
            Self::Decoder(e) => write!(f, "in the decoder part: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Simulates one Eb/N0 point of a [`Scenario`] over its already-built
/// code handle (normally `scenario.build_code()?`) — the fully
/// declarative door of the one Monte-Carlo engine. Only the scenario's
/// channel and decoder specs are consulted; the code comes from
/// `handle`, so grid sweeps build each code once and reuse it across
/// channels and decoders.
///
/// The point runs on the caller's thread: one channel (from the
/// scenario's channel spec at `cfg.ebn0_db` and the code's effective
/// rate) and one decoder drive the engine loop, so the counts depend
/// only on `cfg` (`cfg.threads` is ignored). `cfg.ebn0_db` sets σ for
/// the Gaussian models; a `bsc:p` channel's severity is its fixed
/// crossover probability, so Eb/N0 is bookkeeping there.
///
/// Error counting runs over the transmitted positions.
///
/// # Panics
///
/// Panics if `cfg.max_frames == 0`, if `cfg.transmission` is
/// [`Transmission::Random`](crate::Transmission::Random) (scenario runs
/// simulate the all-zero codeword, and only
/// [`run_point_blocks`](crate::run_point_blocks) takes an encoder), or
/// if a Gaussian channel gets no finite noise level from `cfg.ebn0_db`
/// (`nan`, `±inf`, `-1e300`).
pub fn run_point_scenario_with(
    handle: &Arc<dyn CodeHandle>,
    scenario: &Scenario,
    cfg: &MonteCarloConfig,
) -> PointResult {
    let mut decoder = scenario.decoder.build(handle.code());
    let mut channel = scenario
        .channel
        .build(cfg.ebn0_db, handle.rate(), engine_seed(cfg.seed));
    run_point_engine(
        handle.as_ref(),
        None,
        &handle.transmitted_positions(),
        channel.as_mut(),
        decoder.as_mut(),
        cfg,
    )
}

/// Splits a comma-separated list of spec strings, re-attaching
/// parameter continuations to the previous element so parameterized
/// specs survive: `demo,ar4ja:r=2/3,k=1024` splits into `demo` and
/// `ar4ja:r=2/3,k=1024`, because `k=1024` is a parameter continuation,
/// not a spec. A continuation is either a `key=value` token or a bare
/// number (optionally carrying an `@modifier` tail), so the burst
/// channel's probability triple holds together too:
/// `awgn,burst:0.01,0.3,0.05@quant=4` splits into `awgn` and
/// `burst:0.01,0.3,0.05@quant=4`. No spec grammar in the workspace
/// starts with a bare number, so the rule is unambiguous.
///
/// This is the one list-splitting rule of the workspace: `ldpc-tool`'s
/// `sweep --codes/--channels/--decoders` flags use it, and the docs
/// link-check validates the cookbook's recipes with it — so documented
/// commands and the CLI can never disagree about where one spec ends.
///
/// ```
/// assert_eq!(
///     ldpc_sim::split_spec_list("demo,ar4ja:r=2/3,k=1024"),
///     vec!["demo".to_string(), "ar4ja:r=2/3,k=1024".to_string()]
/// );
/// assert_eq!(
///     ldpc_sim::split_spec_list("erasure:0.05,burst:0.01,0.3,0.05"),
///     vec!["erasure:0.05".to_string(), "burst:0.01,0.3,0.05".to_string()]
/// );
/// ```
pub fn split_spec_list(list: &str) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    for token in list.split(',') {
        let continuation = match token.split_once('=') {
            Some((key, _)) => !key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric()),
            // A bare number (with an optional @modifier tail) can only be
            // the next field of the previous spec's parameter list.
            None => {
                let head = token.split('@').next().unwrap_or(token);
                !head.is_empty() && head.parse::<f64>().is_ok()
            }
        };
        match out.last_mut() {
            Some(prev) if continuation => {
                prev.push(',');
                prev.push_str(token);
            }
            _ => out.push(token.to_string()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_point_blocks, run_sweep, sweep_grid, SweepConfig, Transmission};

    fn quick_cfg(ebn0_db: f64) -> MonteCarloConfig {
        MonteCarloConfig {
            ebn0_db,
            max_frames: 200,
            target_frame_errors: 0,
            max_iterations: 20,
            seed: 11,
            threads: 1,
            transmission: Transmission::AllZero,
        }
    }

    fn run_scenario(sc: &Scenario, cfg: &MonteCarloConfig) -> PointResult {
        run_point_scenario_with(&sc.build_code().unwrap(), sc, cfg)
    }

    #[test]
    fn parses_and_displays_canonically() {
        let sc = Scenario::parse("c2 / awgn / nms:1.25").unwrap();
        assert_eq!(sc.code, CodeSpec::C2);
        assert_eq!(sc.channel, ChannelSpec::awgn());
        assert_eq!(sc.to_string(), "c2 / awgn / nms:1.25");

        // Compact form without embedded slashes.
        let sc = Scenario::parse("demo/bsc:0.02/fixed").unwrap();
        assert_eq!(sc.to_string(), "demo / bsc:0.02 / fixed");

        // Embedded slash in the code part survives.
        let sc = Scenario::parse("ar4ja:r=2/3,k=2048 / rayleigh / gallager-b@bitslice").unwrap();
        assert_eq!(
            sc.to_string(),
            "ar4ja:r=2/3,k=2048 / rayleigh / gallager-b@bitslice"
        );
        let again = Scenario::parse(&sc.to_string()).unwrap();
        assert_eq!(again, sc);
    }

    #[test]
    fn two_part_shorthand_defaults_the_channel_to_awgn() {
        let sc = Scenario::parse("c2 / fixed@pack=8").unwrap();
        assert_eq!(sc.code, CodeSpec::C2);
        assert_eq!(sc.channel, ChannelSpec::awgn());
        // Display stays canonical three-part.
        assert_eq!(sc.to_string(), "c2 / awgn / fixed@pack=8");
        assert_eq!(Scenario::parse(&sc.to_string()).unwrap(), sc);

        // Compact form without embedded slashes.
        let sc = Scenario::parse("demo/nms:1.25").unwrap();
        assert_eq!(sc.to_string(), "demo / awgn / nms:1.25");

        // Embedded slash in the code part survives with whitespace.
        let sc = Scenario::parse("ar4ja:r=2/3,k=2048 / gallager-b@bitslice").unwrap();
        assert_eq!(
            sc.to_string(),
            "ar4ja:r=2/3,k=2048 / awgn / gallager-b@bitslice"
        );
    }

    #[test]
    fn errors_name_the_offending_part() {
        // A channel in the decoder slot of a two-part scenario points at
        // the full three-part form.
        let err = Scenario::parse("c2 / awgn").unwrap_err();
        assert!(
            err.to_string().contains("code / channel / decoder"),
            "{err}"
        );
        let err = Scenario::parse("c2 / bsc:0.02").unwrap_err();
        assert!(err.to_string().contains("name the decoder"), "{err}");

        // One part is a shape error naming both accepted forms.
        let err = Scenario::parse("c2").unwrap_err();
        assert!(err.to_string().contains("code / decoder"), "{err}");
        assert!(
            err.to_string().contains("code / channel / decoder"),
            "{err}"
        );

        // Garbage in the decoder slot of a two-part scenario is a
        // decoder error, not a channel error.
        let err = Scenario::parse("c2 / zeta").unwrap_err();
        assert!(err.to_string().contains("decoder part"), "{err}");

        let err = Scenario::parse("zeta / awgn / nms").unwrap_err();
        assert!(err.to_string().contains("code part"), "{err}");
        assert!(err.to_string().contains("known families"), "{err}");

        let err = Scenario::parse("c2 / zeta / nms").unwrap_err();
        assert!(err.to_string().contains("channel part"), "{err}");

        let err = Scenario::parse("c2 / awgn / zeta").unwrap_err();
        assert!(err.to_string().contains("decoder part"), "{err}");

        // Compact form with an embedded slash cannot split cleanly.
        let err = Scenario::parse("ar4ja:r=1/2/awgn/nms").unwrap_err();
        assert!(err.to_string().contains("whitespace"), "{err}");
    }

    #[test]
    fn plain_awgn_scenario_matches_run_point_blocks_exactly() {
        // The scenario door is the same engine: for a plain code on awgn
        // the single-threaded counts are bit-identical to the
        // explicit-factory door driving the spec-built decoder.
        let cfg = quick_cfg(2.0);
        let sc = Scenario::parse("demo / awgn / nms:1.25").unwrap();
        let via_scenario = run_scenario(&sc, &cfg);
        let code = ldpc_core::codes::small::demo_code();
        let via_spec = run_point_blocks(&code, None, &cfg, || sc.decoder.build(&code));
        assert_eq!(via_scenario, via_spec);
    }

    #[test]
    fn bsc_and_rayleigh_scenarios_run_and_are_reproducible() {
        for s in [
            "demo / bsc:0.02 / nms:1.25",
            "demo / rayleigh / fixed",
            "demo / awgn@quant=5 / fixed@batch=8",
        ] {
            let sc = Scenario::parse(s).unwrap();
            let cfg = quick_cfg(4.0);
            let a = run_scenario(&sc, &cfg);
            let b = run_scenario(&sc, &cfg);
            assert_eq!(a, b, "{s}");
            assert_eq!(a.frames, 200, "{s}");
            assert!(a.ber() <= 1.0, "{s}");
        }
    }

    #[test]
    fn shortened_scenario_counts_only_transmitted_positions() {
        let sc = Scenario::parse("shortened:demo,k=120 / awgn / nms:1.25").unwrap();
        let handle = sc.build_code().unwrap();
        let point = run_scenario(&sc, &quick_cfg(3.0));
        assert_eq!(point.info_bits_per_frame as usize, handle.transmitted_len());
    }

    #[test]
    fn ar4ja_scenario_decodes_cleanly_at_high_snr() {
        let sc = Scenario::parse("ar4ja:r=1/2,k=256 / awgn / nms:1.25").unwrap();
        let cfg = MonteCarloConfig {
            max_frames: 60,
            max_iterations: 40,
            ..quick_cfg(6.0)
        };
        let point = run_scenario(&sc, &cfg);
        assert_eq!(point.frames, 60);
        assert_eq!(point.frame_errors, 0, "per={}", point.per());
    }

    #[test]
    fn quantized_channel_changes_counts_but_not_frames() {
        let cfg = quick_cfg(2.0);
        let exact = run_scenario(&Scenario::parse("demo / awgn / fixed").unwrap(), &cfg);
        let coarse = run_scenario(
            &Scenario::parse("demo / awgn@quant=3 / fixed").unwrap(),
            &cfg,
        );
        assert_eq!(exact.frames, coarse.frames);
        // 3-bit channel LLRs are a measurably worse front end at 2 dB.
        assert!(coarse.bit_errors >= exact.bit_errors);
    }

    #[test]
    fn curve_points_match_individual_runs() {
        // A curve is a sweep at target 0 with one chunk of the frame
        // budget per point: point i reproduces a single-threaded point
        // run seeded base + i * 0x5151_5151.
        let sc = Scenario::parse("demo / bsc:0.04 / nms:1.25").unwrap();
        let base = quick_cfg(3.0);
        let cfg = SweepConfig {
            max_frames: base.max_frames,
            target_frame_errors: 0,
            chunk_frames: base.max_frames,
            max_iterations: base.max_iterations,
            threads: 2,
            ..SweepConfig::default()
        };
        let points = run_sweep(
            &sweep_grid(std::slice::from_ref(&sc), &[2.0, 4.0], base.seed),
            &cfg,
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        let second = run_scenario(
            &sc,
            &MonteCarloConfig {
                ebn0_db: 4.0,
                seed: base.seed.wrapping_add(0x5151_5151),
                ..base
            },
        );
        assert_eq!(points[1].point, second);
    }

    #[test]
    fn bad_code_build_is_an_error_not_a_panic() {
        let sc = Scenario::parse("shortened:demo,k=9999 / awgn / nms").unwrap();
        let err = sc.build_code().err().expect("oversized k");
        assert!(err.to_string().contains("dimension"), "{err}");
    }
}

//! Declarative channel specification: one grammar, one registry, one
//! front door for every channel model in the workspace — the channel-side
//! mirror of `ldpc-core`'s `DecoderSpec`.
//!
//! A spec is a small string —
//!
//! ```text
//!   family[:param][@quant=B]
//! ```
//!
//! | Spec | Channel | Parameter |
//! |------|---------|-----------|
//! | `awgn` | [`AwgnChannel`] — BPSK over additive white Gaussian noise | — (σ from Eb/N0 and rate) |
//! | `bsc:0.02` | [`BscChannel`] — binary symmetric, hard-decision input | crossover p ∈ (0, 0.5) (default 0.05) |
//! | `rayleigh` | [`RayleighChannel`] — flat fading, perfect CSI | — (σ from Eb/N0 and rate) |
//! | `erasure:0.05` | [`ErasureChannel`] — symbol erasures to zero LLR | erasure p ∈ (0, 1) (default 0.1) |
//! | `burst:0.01,0.3,0.05` | [`GilbertElliottChannel`] — two-state Markov bursts, per-state CSI | `p_good,p_bad,p_switch` (defaults 0.01, 0.3, 0.05) |
//!
//! The one modifier changes *what the demodulator delivers*, not the
//! channel itself:
//!
//! | Modifier | Effect |
//! |----------|--------|
//! | `@quant=B` | LLRs uniformly quantized to `B` bits at 0.5 LLR per level (the hardware front end's grid; see [`QUANT_LLR_STEP`]) |
//!
//! Parsing ([`FromStr`]) and rendering ([`Display`](fmt::Display)) round
//! trip with canonical output (the default crossover is omitted), pinned
//! by proptests. [`ChannelSpec::all_channels`] enumerates one canonical
//! spec per registered model, and [`ChannelSpec::build`] constructs any
//! of them behind the object-safe [`Channel`] trait for a given
//! operating point (Eb/N0, code rate) and noise seed:
//!
//! ```
//! use gf2::BitVec;
//! use ldpc_channel::ChannelSpec;
//!
//! let spec = ChannelSpec::parse("awgn@quant=5")?;
//! let mut channel = spec.build(4.0, 0.875, 42);
//! let llrs = channel.transmit_codeword(&BitVec::zeros(64));
//! assert_eq!(llrs.len(), 64);
//! // Every LLR sits on the 0.5-per-level quantizer grid.
//! assert!(llrs.iter().all(|l| (l / 0.5).fract() == 0.0));
//! # Ok::<(), ldpc_channel::ChannelSpecError>(())
//! ```

use crate::{
    ebn0_to_sigma, AwgnChannel, BscChannel, ErasureChannel, GilbertElliottChannel, RayleighChannel,
};
use gf2::BitVec;
use std::fmt;
use std::str::FromStr;

/// Default BSC crossover probability when `bsc` is given without `:p`.
pub const DEFAULT_BSC_P: f64 = 0.05;

/// Default symbol-erasure probability when `erasure` is given without
/// `:p` (deliberately distinct from [`DEFAULT_BSC_P`], so the common
/// operating point `erasure:0.05` renders with its parameter).
pub const DEFAULT_ERASURE_P: f64 = 0.1;

/// Default Gilbert-Elliott good-state crossover probability.
pub const DEFAULT_BURST_P_GOOD: f64 = 0.01;

/// Default Gilbert-Elliott bad-state crossover probability.
pub const DEFAULT_BURST_P_BAD: f64 = 0.3;

/// Default Gilbert-Elliott per-symbol state-switch probability (mean
/// burst length `1/p_switch` = 20 symbols).
pub const DEFAULT_BURST_P_SWITCH: f64 = 0.05;

/// LLR value of one quantizer level under `@quant=B` — the same
/// 0.5 LLR/LSB grid as the hardware datapath's 5-bit channel quantizer
/// (`ldpc-core`'s `FixedConfig`).
pub const QUANT_LLR_STEP: f32 = 0.5;

/// An object-safe channel: transmits a codeword and demaps the
/// observations to channel LLRs.
///
/// All channel models implement this trait, so the Monte-Carlo engine
/// (and anything else generic over channels) holds a
/// `Box<dyn Channel>` built by [`ChannelSpec::build`] instead of
/// hardcoding AWGN. The positive-LLR-means-bit-0 sign convention of the
/// decoders applies throughout.
pub trait Channel {
    /// Modulates `codeword`, transmits it through the channel, and
    /// appends the demapped observations to `out`, one LLR per bit.
    ///
    /// This is each model's one sampling body. Appending into a
    /// caller-owned buffer lets a frame loop reuse one allocation, and
    /// `k` calls draw exactly the stream of one call on the `k`
    /// codewords concatenated.
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>);

    /// [`transmit_into`](Self::transmit_into) a fresh vector.
    fn transmit_codeword(&mut self, codeword: &BitVec) -> Vec<f32> {
        let mut llrs = Vec::with_capacity(codeword.len());
        self.transmit_into(codeword, &mut llrs);
        llrs
    }
}

/// A channel whose LLR output is uniformly quantized to `bits` levels of
/// [`QUANT_LLR_STEP`] each — the `@quant=B` modifier.
///
/// Quantized LLRs stay `f32` (values land on the grid
/// `level × 0.5` for `level ∈ [-(2^(B-1)-1), 2^(B-1)-1]`), so every
/// decoder consumes them unchanged; this models a demodulator that
/// delivers B-bit soft decisions.
pub struct QuantizedChannel {
    inner: Box<dyn Channel>,
    max_level: f32,
}

impl QuantizedChannel {
    /// Wraps `inner`, quantizing its LLR output to `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=15` (the parser never lets an
    /// out-of-range width through).
    pub fn new(inner: Box<dyn Channel>, bits: u32) -> Self {
        assert!(
            (2..=15).contains(&bits),
            "quantizer width must be in 2..=15 bits"
        );
        Self {
            inner,
            max_level: ((1i32 << (bits - 1)) - 1) as f32,
        }
    }
}

impl Channel for QuantizedChannel {
    fn transmit_into(&mut self, codeword: &BitVec, out: &mut Vec<f32>) {
        let start = out.len();
        self.inner.transmit_into(codeword, out);
        for llr in &mut out[start..] {
            let level = (*llr / QUANT_LLR_STEP)
                .round()
                .clamp(-self.max_level, self.max_level);
            *llr = level * QUANT_LLR_STEP;
        }
    }
}

/// The channel model named by a spec, without modifiers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChannelKind {
    /// BPSK over additive white Gaussian noise (the paper's link model).
    Awgn,
    /// Binary symmetric channel with crossover probability `p`.
    Bsc {
        /// Crossover probability ∈ (0, 0.5).
        p: f64,
    },
    /// Flat Rayleigh fading with AWGN and perfect CSI.
    Rayleigh,
    /// Binary erasure channel: symbols erased to zero LLR with
    /// probability `p`.
    Erasure {
        /// Symbol-erasure probability ∈ (0, 1).
        p: f64,
    },
    /// Two-state Gilbert-Elliott Markov burst channel with per-state
    /// crossover probability and perfect state CSI.
    Burst {
        /// Good-state crossover probability ∈ (0, 0.5).
        p_good: f64,
        /// Bad-state crossover probability ∈ (0, 0.5).
        p_bad: f64,
        /// Per-symbol state-switch probability ∈ (0, 1].
        p_switch: f64,
    },
}

impl ChannelKind {
    /// The grammar keyword of this model (`awgn`, `bsc`, `rayleigh`,
    /// `erasure`, `burst`).
    pub fn keyword(&self) -> &'static str {
        match self {
            Self::Awgn => "awgn",
            Self::Bsc { .. } => "bsc",
            Self::Rayleigh => "rayleigh",
            Self::Erasure { .. } => "erasure",
            Self::Burst { .. } => "burst",
        }
    }
}

/// A complete channel specification: a model plus the optional
/// LLR-quantization modifier. See the module docs for the grammar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelSpec {
    /// The channel model and its parameters.
    pub kind: ChannelKind,
    /// `@quant=B`: quantize output LLRs to `B` bits (`None` = exact
    /// floating-point LLRs).
    pub quant: Option<u32>,
}

impl ChannelSpec {
    /// The canonical BPSK/AWGN spec — the historical default of the
    /// Monte-Carlo engine.
    pub fn awgn() -> Self {
        Self {
            kind: ChannelKind::Awgn,
            quant: None,
        }
    }

    /// Parses a spec string — alias of the [`FromStr`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelSpecError`] with an actionable message on
    /// unknown models, malformed parameters, or invalid modifiers.
    pub fn parse(s: &str) -> Result<Self, ChannelSpecError> {
        s.parse()
    }

    /// The grammar keywords of every registered channel model, in
    /// registry order.
    pub fn family_names() -> &'static [&'static str] {
        &["awgn", "bsc", "rayleigh", "erasure", "burst"]
    }

    /// One canonical spec per registered channel model — the five
    /// models at default parameters, plus the quantized-AWGN mirror at
    /// the hardware's 5-bit width.
    pub fn all_channels() -> Vec<ChannelSpec> {
        vec![
            ChannelSpec::awgn(),
            ChannelSpec {
                kind: ChannelKind::Bsc { p: DEFAULT_BSC_P },
                quant: None,
            },
            ChannelSpec {
                kind: ChannelKind::Rayleigh,
                quant: None,
            },
            ChannelSpec {
                kind: ChannelKind::Erasure {
                    p: DEFAULT_ERASURE_P,
                },
                quant: None,
            },
            ChannelSpec {
                kind: ChannelKind::Burst {
                    p_good: DEFAULT_BURST_P_GOOD,
                    p_bad: DEFAULT_BURST_P_BAD,
                    p_switch: DEFAULT_BURST_P_SWITCH,
                },
                quant: None,
            },
            ChannelSpec {
                kind: ChannelKind::Awgn,
                quant: Some(5),
            },
        ]
    }

    /// Constructs the specified channel for one operating point behind
    /// the object-safe [`Channel`] trait.
    ///
    /// `ebn0_db` and `rate` fix the noise level of the Gaussian models
    /// (σ from [`ebn0_to_sigma`]); the BSC, erasure, and burst models
    /// carry their operating points in their own parameters, so both are
    /// ignored there (an erasure channel does not get harder as Eb/N0
    /// drops — sweep `erasure:p` / `burst:...` values instead). `seed`
    /// makes the noise stream deterministic.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `(0, 1]` or the spec holds a
    /// parameter the parser would have rejected (hand-constructed specs
    /// only).
    pub fn build(&self, ebn0_db: f64, rate: f64, seed: u64) -> Box<dyn Channel> {
        let inner: Box<dyn Channel> = match self.kind {
            ChannelKind::Awgn => Box::new(AwgnChannel::new(ebn0_to_sigma(ebn0_db, rate), seed)),
            ChannelKind::Bsc { p } => Box::new(BscChannel::new(p, seed)),
            ChannelKind::Rayleigh => {
                Box::new(RayleighChannel::new(ebn0_to_sigma(ebn0_db, rate), seed))
            }
            ChannelKind::Erasure { p } => Box::new(ErasureChannel::new(p, seed)),
            ChannelKind::Burst {
                p_good,
                p_bad,
                p_switch,
            } => Box::new(GilbertElliottChannel::new(p_good, p_bad, p_switch, seed)),
        };
        match self.quant {
            None => inner,
            Some(bits) => Box::new(QuantizedChannel::new(inner, bits)),
        }
    }

    /// Validates parameters and the modifier.
    fn validated(self) -> Result<Self, ChannelSpecError> {
        if let ChannelKind::Bsc { p } = self.kind {
            if !(p > 0.0 && p < 0.5 && p.is_finite()) {
                return Err(ChannelSpecError::InvalidParameter {
                    family: "bsc",
                    value: p.to_string(),
                    expected: "a crossover probability in (0, 0.5) (e.g. bsc:0.02)",
                });
            }
        }
        if let ChannelKind::Erasure { p } = self.kind {
            if !(p > 0.0 && p < 1.0 && p.is_finite()) {
                return Err(ChannelSpecError::InvalidParameter {
                    family: "erasure",
                    value: p.to_string(),
                    expected: "an erasure probability in (0, 1) (e.g. erasure:0.05)",
                });
            }
        }
        if let ChannelKind::Burst {
            p_good,
            p_bad,
            p_switch,
        } = self.kind
        {
            for (name, p) in [("p_good", p_good), ("p_bad", p_bad)] {
                if !(p > 0.0 && p < 0.5 && p.is_finite()) {
                    return Err(ChannelSpecError::InvalidParameter {
                        family: "burst",
                        value: format!("{name}={p}"),
                        expected: "per-state crossover probabilities in (0, 0.5) \
                                   (e.g. burst:0.01,0.3,0.05)",
                    });
                }
            }
            if !(p_switch > 0.0 && p_switch <= 1.0 && p_switch.is_finite()) {
                return Err(ChannelSpecError::InvalidParameter {
                    family: "burst",
                    value: format!("p_switch={p_switch}"),
                    expected: "a state-switch probability in (0, 1] (e.g. burst:0.01,0.3,0.05)",
                });
            }
        }
        if let Some(bits) = self.quant {
            if !(2..=15).contains(&bits) {
                return Err(ChannelSpecError::InvalidParameter {
                    family: self.kind.keyword(),
                    value: format!("quant={bits}"),
                    expected: "a quantizer width in 2..=15 bits (e.g. @quant=5)",
                });
            }
        }
        Ok(self)
    }
}

impl fmt::Display for ChannelSpec {
    /// Canonical rendering: the default BSC crossover is omitted, so
    /// `parse("bsc:0.05").to_string() == "bsc"` while
    /// `parse("bsc:0.02").to_string() == "bsc:0.02"`. Always round trips
    /// through [`FromStr`] to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            ChannelKind::Awgn => write!(f, "awgn")?,
            ChannelKind::Rayleigh => write!(f, "rayleigh")?,
            ChannelKind::Bsc { p } => {
                if p == DEFAULT_BSC_P {
                    write!(f, "bsc")?;
                } else {
                    write!(f, "bsc:{p}")?;
                }
            }
            ChannelKind::Erasure { p } => {
                if p == DEFAULT_ERASURE_P {
                    write!(f, "erasure")?;
                } else {
                    write!(f, "erasure:{p}")?;
                }
            }
            ChannelKind::Burst {
                p_good,
                p_bad,
                p_switch,
            } => {
                if p_good == DEFAULT_BURST_P_GOOD
                    && p_bad == DEFAULT_BURST_P_BAD
                    && p_switch == DEFAULT_BURST_P_SWITCH
                {
                    write!(f, "burst")?;
                } else {
                    write!(f, "burst:{p_good},{p_bad},{p_switch}")?;
                }
            }
        }
        if let Some(bits) = self.quant {
            write!(f, "@quant={bits}")?;
        }
        Ok(())
    }
}

impl FromStr for ChannelSpec {
    type Err = ChannelSpecError;

    fn from_str(s: &str) -> Result<Self, ChannelSpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(ChannelSpecError::Empty);
        }
        let mut parts = s.split('@');
        let head = parts.next().expect("split yields at least one part");
        let (keyword, param) = match head.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (head, None),
        };
        let no_param = |kind: ChannelKind, family: &'static str| match param {
            None => Ok(kind),
            Some(p) => Err(ChannelSpecError::UnexpectedParameter {
                family,
                value: p.to_string(),
            }),
        };
        let kind = match keyword {
            "awgn" | "gaussian" => no_param(ChannelKind::Awgn, "awgn")?,
            "rayleigh" | "fading" => no_param(ChannelKind::Rayleigh, "rayleigh")?,
            "bsc" | "binary-symmetric" => match param {
                None => ChannelKind::Bsc { p: DEFAULT_BSC_P },
                Some(p) => ChannelKind::Bsc {
                    p: p.parse().map_err(|_| ChannelSpecError::InvalidParameter {
                        family: "bsc",
                        value: p.to_string(),
                        expected: "a crossover probability in (0, 0.5) (e.g. bsc:0.02)",
                    })?,
                },
            },
            "erasure" | "bec" => match param {
                None => ChannelKind::Erasure {
                    p: DEFAULT_ERASURE_P,
                },
                Some(p) => ChannelKind::Erasure {
                    p: p.parse().map_err(|_| ChannelSpecError::InvalidParameter {
                        family: "erasure",
                        value: p.to_string(),
                        expected: "an erasure probability in (0, 1) (e.g. erasure:0.05)",
                    })?,
                },
            },
            "burst" | "gilbert-elliott" => match param {
                None => ChannelKind::Burst {
                    p_good: DEFAULT_BURST_P_GOOD,
                    p_bad: DEFAULT_BURST_P_BAD,
                    p_switch: DEFAULT_BURST_P_SWITCH,
                },
                Some(p) => {
                    let invalid = || ChannelSpecError::InvalidParameter {
                        family: "burst",
                        value: p.to_string(),
                        expected: "three comma-separated probabilities p_good,p_bad,p_switch \
                                   (e.g. burst:0.01,0.3,0.05)",
                    };
                    let fields: Vec<&str> = p.split(',').collect();
                    if fields.len() != 3 {
                        return Err(invalid());
                    }
                    let mut probs = [0.0f64; 3];
                    for (slot, field) in probs.iter_mut().zip(&fields) {
                        *slot = field.trim().parse().map_err(|_| invalid())?;
                    }
                    ChannelKind::Burst {
                        p_good: probs[0],
                        p_bad: probs[1],
                        p_switch: probs[2],
                    }
                }
            },
            other => return Err(ChannelSpecError::UnknownFamily(other.to_string())),
        };
        let mut spec = ChannelSpec { kind, quant: None };
        for modifier in parts {
            if let Some(value) = modifier.strip_prefix("quant=") {
                if spec.quant.is_some() {
                    return Err(ChannelSpecError::DuplicateModifier("@quant"));
                }
                let bits: u32 = value
                    .parse()
                    .map_err(|_| ChannelSpecError::InvalidParameter {
                        family: kind.keyword(),
                        value: format!("quant={value}"),
                        expected: "a quantizer width in 2..=15 bits (e.g. @quant=5)",
                    })?;
                spec.quant = Some(bits);
            } else {
                return Err(ChannelSpecError::UnknownModifier(modifier.to_string()));
            }
        }
        spec.validated()
    }
}

/// Error produced while parsing or validating a [`ChannelSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelSpecError {
    /// The spec string was empty.
    Empty,
    /// The model keyword is not registered.
    UnknownFamily(String),
    /// A parameter failed to parse or is out of range.
    InvalidParameter {
        /// Model keyword the parameter belongs to.
        family: &'static str,
        /// The offending raw value.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// A parameter was given to a model that takes none.
    UnexpectedParameter {
        /// Model keyword.
        family: &'static str,
        /// The offending raw value.
        value: String,
    },
    /// A modifier keyword is not registered.
    UnknownModifier(String),
    /// The same modifier was given twice.
    DuplicateModifier(&'static str),
}

impl fmt::Display for ChannelSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(
                f,
                "empty channel spec; expected family[:param][@quant=B], e.g. awgn or bsc:0.02"
            ),
            Self::UnknownFamily(name) => write!(
                f,
                "unknown channel model {name:?}; known models: {}",
                ChannelSpec::family_names().join(", ")
            ),
            Self::InvalidParameter {
                family,
                value,
                expected,
            } => write!(
                f,
                "invalid parameter {value:?} for {family}: expected {expected}"
            ),
            Self::UnexpectedParameter { family, value } => {
                write!(f, "{family} takes no parameter, but got {value:?}")
            }
            Self::UnknownModifier(name) => {
                write!(f, "unknown modifier {name:?}; known modifiers: @quant=B")
            }
            Self::DuplicateModifier(name) => write!(f, "modifier {name} given more than once"),
        }
    }
}

impl std::error::Error for ChannelSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_model_keyword_with_defaults() {
        for name in ChannelSpec::family_names() {
            let spec = ChannelSpec::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.to_string(), *name, "canonical display of {name}");
            assert!(spec.quant.is_none());
        }
    }

    #[test]
    fn parses_parameters_and_modifiers() {
        let spec = ChannelSpec::parse("bsc:0.02").unwrap();
        assert_eq!(spec.kind, ChannelKind::Bsc { p: 0.02 });
        assert_eq!(spec.to_string(), "bsc:0.02");

        let spec = ChannelSpec::parse("awgn@quant=5").unwrap();
        assert_eq!(spec.kind, ChannelKind::Awgn);
        assert_eq!(spec.quant, Some(5));
        assert_eq!(spec.to_string(), "awgn@quant=5");

        let spec = ChannelSpec::parse("bsc:0.1@quant=3").unwrap();
        assert_eq!(spec.to_string(), "bsc:0.1@quant=3");

        let spec = ChannelSpec::parse("erasure:0.05").unwrap();
        assert_eq!(spec.kind, ChannelKind::Erasure { p: 0.05 });
        assert_eq!(spec.to_string(), "erasure:0.05");

        let spec = ChannelSpec::parse("burst:0.02,0.25,0.1").unwrap();
        assert_eq!(
            spec.kind,
            ChannelKind::Burst {
                p_good: 0.02,
                p_bad: 0.25,
                p_switch: 0.1
            }
        );
        assert_eq!(spec.to_string(), "burst:0.02,0.25,0.1");

        let spec = ChannelSpec::parse("burst:0.02,0.25,0.1@quant=4").unwrap();
        assert_eq!(spec.quant, Some(4));
        assert_eq!(spec.to_string(), "burst:0.02,0.25,0.1@quant=4");
    }

    #[test]
    fn aliases_parse_to_the_same_model() {
        assert_eq!(
            ChannelSpec::parse("gaussian").unwrap(),
            ChannelSpec::parse("awgn").unwrap()
        );
        assert_eq!(
            ChannelSpec::parse("fading").unwrap(),
            ChannelSpec::parse("rayleigh").unwrap()
        );
        assert_eq!(
            ChannelSpec::parse("binary-symmetric:0.1").unwrap(),
            ChannelSpec::parse("bsc:0.1").unwrap()
        );
        assert_eq!(
            ChannelSpec::parse("bec:0.05").unwrap(),
            ChannelSpec::parse("erasure:0.05").unwrap()
        );
        assert_eq!(
            ChannelSpec::parse("gilbert-elliott:0.01,0.3,0.05").unwrap(),
            ChannelSpec::parse("burst:0.01,0.3,0.05").unwrap()
        );
    }

    #[test]
    fn display_omits_default_parameters_only() {
        assert_eq!(ChannelSpec::parse("bsc:0.05").unwrap().to_string(), "bsc");
        assert_eq!(
            ChannelSpec::parse("bsc:0.02").unwrap().to_string(),
            "bsc:0.02"
        );
        assert_eq!(
            ChannelSpec::parse("erasure:0.1").unwrap().to_string(),
            "erasure"
        );
        assert_eq!(
            ChannelSpec::parse("erasure:0.05").unwrap().to_string(),
            "erasure:0.05"
        );
        assert_eq!(
            ChannelSpec::parse("burst:0.01,0.3,0.05")
                .unwrap()
                .to_string(),
            "burst"
        );
        assert_eq!(
            ChannelSpec::parse("burst:0.01,0.3,0.02")
                .unwrap()
                .to_string(),
            "burst:0.01,0.3,0.02"
        );
    }

    #[test]
    fn errors_are_actionable() {
        let err = ChannelSpec::parse("magic").unwrap_err();
        assert!(err.to_string().contains("known models"), "{err}");
        assert!(err.to_string().contains("rayleigh"), "{err}");

        let err = ChannelSpec::parse("bsc:0.6").unwrap_err();
        assert!(err.to_string().contains("(0, 0.5)"), "{err}");

        let err = ChannelSpec::parse("bsc:zero").unwrap_err();
        assert!(err.to_string().contains("bsc:0.02"), "{err}");

        let err = ChannelSpec::parse("awgn:0.5").unwrap_err();
        assert!(err.to_string().contains("takes no parameter"), "{err}");

        let err = ChannelSpec::parse("erasure:1.5").unwrap_err();
        assert!(err.to_string().contains("(0, 1)"), "{err}");

        let err = ChannelSpec::parse("erasure:lots").unwrap_err();
        assert!(err.to_string().contains("erasure:0.05"), "{err}");

        let err = ChannelSpec::parse("burst:0.01,0.3").unwrap_err();
        assert!(err.to_string().contains("p_good,p_bad,p_switch"), "{err}");

        let err = ChannelSpec::parse("burst:0.01,0.7,0.05").unwrap_err();
        assert!(err.to_string().contains("p_bad=0.7"), "{err}");

        let err = ChannelSpec::parse("burst:0.01,0.3,0").unwrap_err();
        assert!(err.to_string().contains("p_switch=0"), "{err}");

        let err = ChannelSpec::parse("awgn@turbo").unwrap_err();
        assert!(err.to_string().contains("@quant"), "{err}");

        let err = ChannelSpec::parse("awgn@quant=1").unwrap_err();
        assert!(err.to_string().contains("2..=15"), "{err}");

        let err = ChannelSpec::parse("awgn@quant=5@quant=5").unwrap_err();
        assert!(matches!(err, ChannelSpecError::DuplicateModifier(_)));

        assert_eq!(ChannelSpec::parse("").unwrap_err(), ChannelSpecError::Empty);
    }

    #[test]
    fn every_registered_model_builds_and_transmits() {
        let cw = BitVec::zeros(128);
        for spec in ChannelSpec::all_channels() {
            let mut channel = spec.build(4.0, 0.5, 7);
            let llrs = channel.transmit_codeword(&cw);
            assert_eq!(llrs.len(), 128, "{spec}");
            // All-zero codeword at a benign operating point: the LLR mass
            // must lean positive for every model.
            let positives = llrs.iter().filter(|&&l| l > 0.0).count();
            assert!(positives > 64, "{spec}: only {positives}/128 positive");
        }
    }

    #[test]
    fn built_channels_are_deterministic_per_seed() {
        let cw = BitVec::zeros(64);
        for spec in ChannelSpec::all_channels() {
            let a = spec.build(3.0, 0.5, 11).transmit_codeword(&cw);
            let b = spec.build(3.0, 0.5, 11).transmit_codeword(&cw);
            let c = spec.build(3.0, 0.5, 12).transmit_codeword(&cw);
            assert_eq!(a, b, "{spec}");
            assert_ne!(a, c, "{spec}");
        }
    }

    #[test]
    fn appending_calls_draw_the_stream_of_one_concatenated_call() {
        let lengths = [1usize, 37, 64, 130, 255];
        let frames: Vec<BitVec> = lengths
            .iter()
            .enumerate()
            .map(|(f, &len)| (0..len).map(|i| (i * 7 + f) % 5 < 2).collect())
            .collect();
        let whole = frames
            .iter()
            .fold(BitVec::zeros(0), |acc, frame| acc.concat(frame));
        let mut specs = ChannelSpec::all_channels();
        for extra in ["bsc:0.02@quant=3", "rayleigh@quant=4", "burst@quant=5"] {
            specs.push(ChannelSpec::parse(extra).unwrap());
        }
        for spec in specs {
            // k appending calls after existing content…
            let mut split = vec![-7.0f32; 3];
            let mut channel = spec.build(2.5, 0.5, 23);
            for frame in &frames {
                channel.transmit_into(frame, &mut split);
            }
            assert_eq!(split[..3], [-7.0; 3], "{spec}: clobbered the prefix");
            // …equal one call on the concatenated codeword…
            let mut joined = Vec::new();
            spec.build(2.5, 0.5, 23).transmit_into(&whole, &mut joined);
            assert_eq!(split[3..], joined[..], "{spec}");
            // …and the allocating wrapper is the same call.
            let wrapped = spec.build(2.5, 0.5, 23).transmit_codeword(&whole);
            assert_eq!(wrapped, joined, "{spec}");
        }
    }

    #[test]
    fn awgn_spec_matches_direct_awgn_channel() {
        // The spec door must not perturb the historical AWGN noise
        // stream: same seed, same LLRs as constructing AwgnChannel
        // directly (this is what keeps the Monte-Carlo engine's counts
        // stable across the spec refactor).
        let cw = BitVec::zeros(256);
        let sigma = ebn0_to_sigma(3.5, 0.875);
        let direct = AwgnChannel::new(sigma, 99).transmit_codeword(&cw);
        let via_spec = ChannelSpec::awgn()
            .build(3.5, 0.875, 99)
            .transmit_codeword(&cw);
        assert_eq!(direct, via_spec);
    }

    #[test]
    fn quantized_llrs_sit_on_the_grid_and_saturate() {
        let cw = BitVec::zeros(512);
        let mut channel = ChannelSpec::parse("awgn@quant=3")
            .unwrap()
            .build(2.0, 0.5, 5);
        let llrs = channel.transmit_codeword(&cw);
        let max = 3.0 * QUANT_LLR_STEP; // 3-bit: levels -3..=3
        for &l in &llrs {
            assert!((l / QUANT_LLR_STEP).fract() == 0.0, "off-grid LLR {l}");
            assert!(l.abs() <= max + 1e-6, "unsaturated LLR {l}");
        }
        // The grid is coarse enough that saturation actually occurs.
        assert!(llrs.iter().any(|&l| (l - max).abs() < 1e-6));
    }
}

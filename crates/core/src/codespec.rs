//! Declarative code specification: one grammar, one registry, one front
//! door for every code family in the workspace — the code-side mirror of
//! [`DecoderSpec`](crate::DecoderSpec).
//!
//! A spec is a small string —
//!
//! ```text
//!   family[:param[,param...]]
//! ```
//!
//! | Spec | Code | Parameters |
//! |------|------|------------|
//! | `demo` | [`codes::small::demo_code`] — (248, ~188) QC demo code | — |
//! | `c2` | [`codes::ccsds_c2`] — CCSDS 131.1-O-2 (8176, 7156) | — |
//! | `ar4ja:r=1/2,k=1024` | [`Ar4jaCode`] deep-space protograph lift | rate ∈ {1/2, 2/3, 4/5} (default 1/2), info length k (default 1024) |
//! | `shortened:c2,k=4096` | [`ShortenedCode`] over a base code | base ∈ {demo, c2}, remaining info bits k (required) |
//!
//! [`codes::small::demo_code`]: crate::codes::small::demo_code
//! [`codes::ccsds_c2`]: crate::codes::ccsds_c2
//!
//! Parsing ([`FromStr`]) and rendering ([`Display`](fmt::Display)) round
//! trip with canonical output (default parameters are omitted), pinned by
//! proptests. [`CodeSpec::all_codes`] enumerates one canonical spec per
//! registered family, and [`CodeSpec::build`] constructs any of them
//! behind the object-safe [`CodeHandle`] trait — the code-side handle the
//! Monte-Carlo scenario engine (`ldpc_sim`) drives: the full decode
//! graph, the transmitted-position profile (puncturing / shortening), and
//! the received-LLR expansion back to full decoder input.
//!
//! ```
//! use ldpc_core::CodeSpec;
//!
//! let spec = CodeSpec::parse("shortened:demo,k=120")?;
//! let handle = spec.build()?;
//! assert_eq!(handle.code().n(), 248);          // mother code length
//! assert!(handle.transmitted_len() < 248);     // pinned bits withheld
//! assert_eq!(spec.to_string(), "shortened:demo,k=120");
//! # Ok::<(), ldpc_core::CodeSpecError>(())
//! ```

use crate::codes::ar4ja::{Ar4jaCode, Ar4jaRate};
use crate::codes::{ccsds_c2, small::demo_code};
use crate::{Encoder, LdpcCode, ShortenedCode};
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Default AR4JA information block length (the smallest CCSDS 131.0-B
/// size).
pub const DEFAULT_AR4JA_K: usize = 1024;

/// Largest AR4JA information block length, the largest CCSDS 131.0-B
/// size. A code's memory grows linearly in `k`, and a decode request
/// builds its code before its payload is checked, so the parser bounds
/// it.
const MAX_AR4JA_K: usize = 16_384;

/// Seed of the deterministic AR4JA circulant lift (documented
/// substitution, DESIGN.md §3.2: seeded selection replaces the blue
/// book's shift tables).
pub const AR4JA_LIFT_SEED: u64 = 0x4A4A;

/// Object-safe handle to a built code: the decode graph plus the
/// transmission profile.
///
/// This is what [`CodeSpec::build`] returns and what the Monte-Carlo
/// scenario engine consumes. Plain codes transmit every bit; shortened
/// codes withhold pinned (known-zero) positions, AR4JA codes withhold
/// the punctured block — the handle hides that difference behind four
/// questions: what is the decode graph, which positions travel over the
/// channel, at what effective rate, and how do received LLRs expand back
/// to full-length decoder input.
pub trait CodeHandle: Send + Sync {
    /// The full decode graph, including punctured / pinned positions.
    fn code(&self) -> &Arc<LdpcCode>;

    /// Number of codeword positions that are actually transmitted.
    fn transmitted_len(&self) -> usize;

    /// Effective code rate over the transmitted positions (drives the
    /// Eb/N0 → σ conversion).
    fn rate(&self) -> f64;

    /// Transmitted codeword positions, ascending — the positions error
    /// counting runs over.
    fn transmitted_positions(&self) -> Vec<u32>;

    /// Expands received LLRs (one per transmitted position, in the order
    /// of [`transmitted_positions`](Self::transmitted_positions)) to
    /// full-length decoder input, appending to `out`: pinned positions
    /// get known-bit certainty, punctured positions get erasures.
    ///
    /// # Panics
    ///
    /// Panics if `received.len() != self.transmitted_len()`.
    fn expand_llrs_into(&self, received: &[f32], out: &mut Vec<f32>);

    /// The quasi-cyclic block structure of the decode graph, if the
    /// transmission profile preserves it.
    ///
    /// The default is `None`: shortening pins positions and AR4JA
    /// punctures them, so the transmitted code no longer has the clean
    /// block-circulant form even though the underlying graph may.
    /// Handles that transmit the full codeword (e.g. [`PlainCode`])
    /// forward to [`LdpcCode::qc_structure`].
    fn qc_structure(&self) -> Option<&crate::QcLdpcSpec> {
        None
    }
}

/// A code that transmits every codeword position — the [`CodeHandle`]
/// adapter for plain [`LdpcCode`]s (`demo`, `c2`, or any hand-built
/// code driven through `ldpc_sim`'s explicit-factory doors).
pub struct PlainCode {
    code: Arc<LdpcCode>,
}

impl PlainCode {
    /// Wraps a code whose transmission profile is the identity.
    pub fn new(code: Arc<LdpcCode>) -> Self {
        Self { code }
    }
}

impl CodeHandle for PlainCode {
    fn code(&self) -> &Arc<LdpcCode> {
        &self.code
    }

    fn transmitted_len(&self) -> usize {
        self.code.n()
    }

    fn rate(&self) -> f64 {
        self.code.rate()
    }

    fn transmitted_positions(&self) -> Vec<u32> {
        (0..self.code.n() as u32).collect()
    }

    fn expand_llrs_into(&self, received: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            received.len(),
            self.code.n(),
            "received LLR length mismatch"
        );
        out.extend_from_slice(received);
    }

    fn qc_structure(&self) -> Option<&crate::QcLdpcSpec> {
        self.code.qc_structure()
    }
}

impl CodeHandle for ShortenedCode {
    fn code(&self) -> &Arc<LdpcCode> {
        // Inherent methods shadow the trait's, so these calls dispatch to
        // the existing implementations.
        self.code()
    }

    fn transmitted_len(&self) -> usize {
        self.transmitted_len()
    }

    fn rate(&self) -> f64 {
        self.rate()
    }

    fn transmitted_positions(&self) -> Vec<u32> {
        self.pinned_mask()
            .iter()
            .enumerate()
            .filter(|(_, &is_pinned)| !is_pinned)
            .map(|(i, _)| i as u32)
            .collect()
    }

    fn expand_llrs_into(&self, received: &[f32], out: &mut Vec<f32>) {
        self.expand_llrs_into(received, out);
    }
}

impl CodeHandle for Ar4jaCode {
    fn code(&self) -> &Arc<LdpcCode> {
        self.code()
    }

    fn transmitted_len(&self) -> usize {
        self.transmitted_len()
    }

    fn rate(&self) -> f64 {
        self.rate()
    }

    fn transmitted_positions(&self) -> Vec<u32> {
        (0..self.transmitted_len() as u32).collect()
    }

    fn expand_llrs_into(&self, received: &[f32], out: &mut Vec<f32>) {
        assert_eq!(
            received.len(),
            self.transmitted_len(),
            "received LLR length mismatch"
        );
        out.reserve(self.full_len());
        out.extend_from_slice(received);
        out.extend(std::iter::repeat_n(
            0.0f32,
            self.full_len() - self.transmitted_len(),
        ));
    }
}

/// Base code of a `shortened:<base>,k=N` spec.
///
/// Restricted to the keyword-only families so the grammar stays
/// unambiguous (an `ar4ja:...` base would nest comma-separated
/// parameters inside comma-separated parameters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShortenedBase {
    /// The (248, ~188) demo code.
    Demo,
    /// The CCSDS C2 (8176, 7156) code.
    C2,
}

impl ShortenedBase {
    /// The grammar keyword of this base code.
    pub fn keyword(&self) -> &'static str {
        match self {
            Self::Demo => "demo",
            Self::C2 => "c2",
        }
    }
}

/// A complete code specification. See the module docs for the grammar.
///
/// Construct by parsing ([`CodeSpec::parse`] / [`FromStr`]) — which
/// validates — or from the variants directly (then
/// [`build`](CodeSpec::build) reports combinations the parser would have
/// rejected as errors).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpec {
    /// The (248, ~188) QC demo code — C2's structure at 1/33 scale.
    Demo,
    /// The CCSDS 131.1-O-2 near-earth (8176, 7156) code.
    C2,
    /// An AR4JA deep-space protograph lift.
    Ar4ja {
        /// Nominal rate of the protograph family.
        rate: Ar4jaRate,
        /// Information block length; the circulant size is
        /// `k / (var_blocks − 3)`.
        k: usize,
    },
    /// A shortened view of a base code.
    Shortened {
        /// The mother code.
        base: ShortenedBase,
        /// Remaining (transmittable) information bits.
        k: usize,
    },
}

impl CodeSpec {
    /// Parses a spec string — alias of the [`FromStr`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`CodeSpecError`] with an actionable message on unknown
    /// families, malformed parameters, or out-of-range sizes.
    pub fn parse(s: &str) -> Result<Self, CodeSpecError> {
        s.parse()
    }

    /// The grammar keywords of every registered code family, in registry
    /// order.
    pub fn family_names() -> &'static [&'static str] {
        &["demo", "c2", "ar4ja", "shortened"]
    }

    /// One canonical spec per registered code family: the two plain
    /// codes, the three AR4JA rates at the default k = 1024, and a
    /// shortened C2 sub-code.
    ///
    /// The docs cookbook (`docs/scenarios.md`) tables these entries; a
    /// family registered here without a doc row (or vice versa) fails
    /// the docs link-check test.
    pub fn all_codes() -> Vec<CodeSpec> {
        vec![
            CodeSpec::Demo,
            CodeSpec::C2,
            CodeSpec::Ar4ja {
                rate: Ar4jaRate::Half,
                k: DEFAULT_AR4JA_K,
            },
            CodeSpec::Ar4ja {
                rate: Ar4jaRate::TwoThirds,
                k: DEFAULT_AR4JA_K,
            },
            CodeSpec::Ar4ja {
                rate: Ar4jaRate::FourFifths,
                k: DEFAULT_AR4JA_K,
            },
            CodeSpec::Shortened {
                base: ShortenedBase::C2,
                k: 4096,
            },
        ]
    }

    /// Validates parameters (AR4JA size bound and divisibility, positive
    /// k).
    fn validated(self) -> Result<Self, CodeSpecError> {
        match self {
            CodeSpec::Ar4ja { k, .. } if k > MAX_AR4JA_K => {
                return Err(CodeSpecError::InvalidParameter {
                    family: "ar4ja",
                    value: format!("k={k}"),
                    expected: "k at most 16384, the largest CCSDS AR4JA information length \
                               (e.g. ar4ja:r=1/2,k=16384)",
                });
            }
            CodeSpec::Ar4ja { rate, k } => {
                let info_blocks = rate.var_blocks() - 3;
                if k == 0 || k % info_blocks != 0 || k / info_blocks < 8 {
                    return Err(CodeSpecError::InvalidParameter {
                        family: "ar4ja",
                        value: format!("k={k}"),
                        expected:
                            "k must be a positive multiple of the rate's info blocks (2 for r=1/2, \
                             4 for r=2/3, 8 for r=4/5) with circulant size k/blocks >= 8 \
                             (e.g. ar4ja:r=1/2,k=1024)",
                    });
                }
            }
            CodeSpec::Shortened { k: 0, .. } => {
                return Err(CodeSpecError::InvalidParameter {
                    family: "shortened",
                    value: "k=0".to_string(),
                    expected: "a positive remaining info length (e.g. shortened:c2,k=4096)",
                });
            }
            _ => {}
        }
        Ok(self)
    }

    /// Constructs the specified code behind the object-safe
    /// [`CodeHandle`] front door.
    ///
    /// `demo` and `c2` reuse the process-wide cached code (and, for
    /// shortened views, the cached C2 encoder); AR4JA codes are lifted
    /// deterministically from [`AR4JA_LIFT_SEED`], so equal specs always
    /// build equal codes.
    ///
    /// # Errors
    ///
    /// Returns [`CodeSpecError`] for parameter combinations the parser
    /// rejects, or for a `shortened` k that is not below the base code's
    /// dimension (only checkable once the base encoder exists).
    pub fn build(&self) -> Result<Arc<dyn CodeHandle>, CodeSpecError> {
        self.validated()?;
        Ok(match *self {
            CodeSpec::Demo => Arc::new(PlainCode::new(demo_code())),
            CodeSpec::C2 => Arc::new(PlainCode::new(ccsds_c2::code())),
            CodeSpec::Ar4ja { rate, k } => {
                let m = k / (rate.var_blocks() - 3);
                Arc::new(Ar4jaCode::build(rate, m, AR4JA_LIFT_SEED))
            }
            CodeSpec::Shortened { base, k } => {
                let (code, encoder) = match base {
                    ShortenedBase::Demo => {
                        let code = demo_code();
                        let enc = Arc::new(
                            Encoder::new(&code).expect("demo code has positive dimension"),
                        );
                        (code, enc)
                    }
                    ShortenedBase::C2 => (ccsds_c2::code(), ccsds_c2::encoder()),
                };
                let dim = encoder.dimension();
                if k >= dim {
                    return Err(CodeSpecError::InvalidParameter {
                        family: "shortened",
                        value: format!("k={k} (base dimension {dim})"),
                        expected: "a remaining info length below the base code's dimension \
                                   (e.g. shortened:c2,k=4096)",
                    });
                }
                Arc::new(
                    ShortenedCode::new(code, encoder, dim - k)
                        .expect("shortened count below dimension"),
                )
            }
        })
    }
}

impl fmt::Display for CodeSpec {
    /// Canonical rendering: parameters equal to their defaults are
    /// omitted, so `parse("ar4ja:r=1/2,k=1024").to_string() == "ar4ja"`.
    /// Always round trips through [`FromStr`] to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeSpec::Demo => write!(f, "demo"),
            CodeSpec::C2 => write!(f, "c2"),
            CodeSpec::Ar4ja { rate, k } => {
                let mut parts = Vec::new();
                if *rate != Ar4jaRate::Half {
                    parts.push(format!("r={}", rate_keyword(*rate)));
                }
                if *k != DEFAULT_AR4JA_K {
                    parts.push(format!("k={k}"));
                }
                if parts.is_empty() {
                    write!(f, "ar4ja")
                } else {
                    write!(f, "ar4ja:{}", parts.join(","))
                }
            }
            CodeSpec::Shortened { base, k } => {
                write!(f, "shortened:{},k={}", base.keyword(), k)
            }
        }
    }
}

/// The grammar rendering of an AR4JA rate.
fn rate_keyword(rate: Ar4jaRate) -> &'static str {
    match rate {
        Ar4jaRate::Half => "1/2",
        Ar4jaRate::TwoThirds => "2/3",
        Ar4jaRate::FourFifths => "4/5",
    }
}

fn parse_rate(s: &str) -> Result<Ar4jaRate, CodeSpecError> {
    match s {
        "1/2" => Ok(Ar4jaRate::Half),
        "2/3" => Ok(Ar4jaRate::TwoThirds),
        "4/5" => Ok(Ar4jaRate::FourFifths),
        other => Err(CodeSpecError::InvalidParameter {
            family: "ar4ja",
            value: format!("r={other}"),
            expected: "one of the CCSDS rates 1/2, 2/3, 4/5 (e.g. ar4ja:r=1/2,k=1024)",
        }),
    }
}

fn parse_usize(family: &'static str, key: &str, value: &str) -> Result<usize, CodeSpecError> {
    value.parse().map_err(|_| CodeSpecError::InvalidParameter {
        family,
        value: format!("{key}={value}"),
        expected: "a positive integer",
    })
}

impl FromStr for CodeSpec {
    type Err = CodeSpecError;

    fn from_str(s: &str) -> Result<Self, CodeSpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(CodeSpecError::Empty);
        }
        if let Some(at) = s.find('@') {
            return Err(CodeSpecError::UnsupportedModifier(s[at..].to_string()));
        }
        let (keyword, param) = match s.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (s, None),
        };
        let no_param = |spec: CodeSpec, family: &'static str| match param {
            None => Ok(spec),
            Some(p) => Err(CodeSpecError::UnexpectedParameter {
                family,
                value: p.to_string(),
            }),
        };
        let spec = match keyword {
            "demo" | "small" => no_param(CodeSpec::Demo, "demo")?,
            "c2" | "ccsds-c2" => no_param(CodeSpec::C2, "c2")?,
            "ar4ja" => {
                let mut rate = None;
                let mut k = None;
                for part in param.into_iter().flat_map(|p| p.split(',')) {
                    let part = part.trim();
                    match part.split_once('=') {
                        Some(("r", v)) if rate.is_none() => rate = Some(parse_rate(v)?),
                        Some(("k", v)) if k.is_none() => {
                            k = Some(parse_usize("ar4ja", "k", v)?);
                        }
                        Some(("r" | "k", _)) => {
                            return Err(CodeSpecError::InvalidParameter {
                                family: "ar4ja",
                                value: part.to_string(),
                                expected: "each of r=, k= at most once",
                            });
                        }
                        _ => {
                            return Err(CodeSpecError::InvalidParameter {
                                family: "ar4ja",
                                value: part.to_string(),
                                expected: "r=<1/2|2/3|4/5> and/or k=<info bits> \
                                           (e.g. ar4ja:r=1/2,k=1024)",
                            });
                        }
                    }
                }
                CodeSpec::Ar4ja {
                    rate: rate.unwrap_or(Ar4jaRate::Half),
                    k: k.unwrap_or(DEFAULT_AR4JA_K),
                }
            }
            "shortened" | "short" => {
                let param = param.ok_or(CodeSpecError::InvalidParameter {
                    family: "shortened",
                    value: String::new(),
                    expected: "a base code and info length (e.g. shortened:c2,k=4096)",
                })?;
                let mut parts = param.split(',').map(str::trim);
                let base = match parts.next() {
                    Some("demo") | Some("small") => ShortenedBase::Demo,
                    Some("c2") | Some("ccsds-c2") => ShortenedBase::C2,
                    other => {
                        return Err(CodeSpecError::UnknownBase(
                            other.unwrap_or_default().to_string(),
                        ))
                    }
                };
                let k = match (parts.next(), parts.next()) {
                    (Some(kv), None) => match kv.split_once('=') {
                        Some(("k", v)) => parse_usize("shortened", "k", v)?,
                        _ => {
                            return Err(CodeSpecError::InvalidParameter {
                                family: "shortened",
                                value: kv.to_string(),
                                expected: "k=<remaining info bits> (e.g. shortened:c2,k=4096)",
                            })
                        }
                    },
                    _ => {
                        return Err(CodeSpecError::InvalidParameter {
                            family: "shortened",
                            value: param.to_string(),
                            expected: "exactly <base>,k=N (e.g. shortened:c2,k=4096)",
                        })
                    }
                };
                CodeSpec::Shortened { base, k }
            }
            other => return Err(CodeSpecError::UnknownFamily(other.to_string())),
        };
        spec.validated()
    }
}

/// Error produced while parsing, validating, or building a [`CodeSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeSpecError {
    /// The spec string was empty.
    Empty,
    /// The family keyword is not registered.
    UnknownFamily(String),
    /// The base of a `shortened:` spec is not a keyword-only family.
    UnknownBase(String),
    /// A parameter failed to parse or is out of range.
    InvalidParameter {
        /// Family keyword the parameter belongs to.
        family: &'static str,
        /// The offending raw value.
        value: String,
        /// What a valid value looks like.
        expected: &'static str,
    },
    /// A parameter was given to a family that takes none.
    UnexpectedParameter {
        /// Family keyword.
        family: &'static str,
        /// The offending raw value.
        value: String,
    },
    /// Code specs take no `@modifier`s (those belong to channel and
    /// decoder specs).
    UnsupportedModifier(String),
}

impl fmt::Display for CodeSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(
                f,
                "empty code spec; expected family[:param,...], e.g. c2 or ar4ja:r=1/2,k=1024"
            ),
            Self::UnknownFamily(name) => write!(
                f,
                "unknown code family {name:?}; known families: {}",
                CodeSpec::family_names().join(", ")
            ),
            Self::UnknownBase(name) => write!(
                f,
                "unknown shortening base {name:?}; supported bases: demo, c2"
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
            Self::UnsupportedModifier(value) => write!(
                f,
                "code specs take no modifiers, but got {value:?} \
                 (@quant belongs to channel specs, @batch/@bitslice to decoder specs)"
            ),
        }
    }
}

impl std::error::Error for CodeSpecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_family_keyword_with_defaults() {
        assert_eq!(CodeSpec::parse("demo").unwrap(), CodeSpec::Demo);
        assert_eq!(CodeSpec::parse("c2").unwrap(), CodeSpec::C2);
        assert_eq!(
            CodeSpec::parse("ar4ja").unwrap(),
            CodeSpec::Ar4ja {
                rate: Ar4jaRate::Half,
                k: DEFAULT_AR4JA_K
            }
        );
    }

    #[test]
    fn parses_parameters_in_any_order() {
        let want = CodeSpec::Ar4ja {
            rate: Ar4jaRate::TwoThirds,
            k: 2048,
        };
        assert_eq!(CodeSpec::parse("ar4ja:r=2/3,k=2048").unwrap(), want);
        assert_eq!(CodeSpec::parse("ar4ja:k=2048,r=2/3").unwrap(), want);
        assert_eq!(
            CodeSpec::parse("shortened:c2,k=4096").unwrap(),
            CodeSpec::Shortened {
                base: ShortenedBase::C2,
                k: 4096
            }
        );
    }

    #[test]
    fn aliases_parse_to_the_same_family() {
        assert_eq!(
            CodeSpec::parse("small").unwrap(),
            CodeSpec::parse("demo").unwrap()
        );
        assert_eq!(
            CodeSpec::parse("ccsds-c2").unwrap(),
            CodeSpec::parse("c2").unwrap()
        );
        assert_eq!(
            CodeSpec::parse("short:demo,k=100").unwrap(),
            CodeSpec::parse("shortened:demo,k=100").unwrap()
        );
    }

    #[test]
    fn display_omits_default_parameters_only() {
        assert_eq!(
            CodeSpec::parse("ar4ja:r=1/2,k=1024").unwrap().to_string(),
            "ar4ja"
        );
        assert_eq!(
            CodeSpec::parse("ar4ja:r=2/3,k=1024").unwrap().to_string(),
            "ar4ja:r=2/3"
        );
        assert_eq!(
            CodeSpec::parse("ar4ja:k=2048").unwrap().to_string(),
            "ar4ja:k=2048"
        );
        assert_eq!(
            CodeSpec::parse("shortened:c2,k=4096").unwrap().to_string(),
            "shortened:c2,k=4096"
        );
    }

    #[test]
    fn registry_specs_roundtrip() {
        for spec in CodeSpec::all_codes() {
            let rendered = spec.to_string();
            assert_eq!(
                CodeSpec::parse(&rendered).unwrap(),
                spec,
                "{rendered} does not round trip"
            );
        }
    }

    #[test]
    fn errors_are_actionable() {
        let err = CodeSpec::parse("magic").unwrap_err();
        assert!(err.to_string().contains("known families"), "{err}");
        assert!(err.to_string().contains("ar4ja"), "{err}");

        let err = CodeSpec::parse("demo:8").unwrap_err();
        assert!(err.to_string().contains("takes no parameter"), "{err}");

        let err = CodeSpec::parse("ar4ja:r=3/4").unwrap_err();
        assert!(err.to_string().contains("1/2"), "{err}");

        let err = CodeSpec::parse("ar4ja:k=1001").unwrap_err();
        assert!(err.to_string().contains("multiple"), "{err}");

        let err = CodeSpec::parse("ar4ja:r=4/5,k=1004").unwrap_err();
        assert!(err.to_string().contains("multiple"), "{err}");

        let err = CodeSpec::parse("ar4ja:r=1/2,r=2/3").unwrap_err();
        assert!(err.to_string().contains("at most once"), "{err}");

        let err = CodeSpec::parse("shortened:zeta,k=10").unwrap_err();
        assert!(err.to_string().contains("demo, c2"), "{err}");

        let err = CodeSpec::parse("shortened:demo").unwrap_err();
        assert!(err.to_string().contains("k="), "{err}");

        let err = CodeSpec::parse("shortened:demo,k=0").unwrap_err();
        assert!(err.to_string().contains("positive"), "{err}");

        let err = CodeSpec::parse("demo@quant=5").unwrap_err();
        assert!(err.to_string().contains("no modifiers"), "{err}");

        assert_eq!(CodeSpec::parse("").unwrap_err(), CodeSpecError::Empty);
    }

    #[test]
    fn ar4ja_k_is_capped_at_the_largest_ccsds_length() {
        for spec in ["ar4ja:r=1/2,k=16386", "ar4ja:r=4/5,k=67108864"] {
            let err = CodeSpec::parse(spec).unwrap_err();
            assert!(err.to_string().contains("at most 16384"), "{spec}: {err}");
        }
        for rate in ["1/2", "2/3", "4/5"] {
            let spec = format!("ar4ja:r={rate},k={MAX_AR4JA_K}");
            assert!(CodeSpec::parse(&spec).is_ok(), "{spec}");
        }
    }

    #[test]
    fn cheap_specs_build_with_consistent_profiles() {
        // The full registry (C2 encoder included) is built by the
        // integration suite; here the fast entries pin the handle
        // contract: positions ascending, expansion length = n.
        for spec_str in ["demo", "shortened:demo,k=120", "ar4ja:r=1/2,k=64"] {
            let spec = CodeSpec::parse(spec_str).unwrap();
            let handle = spec.build().unwrap_or_else(|e| panic!("{spec_str}: {e}"));
            let n = handle.code().n();
            let positions = handle.transmitted_positions();
            assert_eq!(positions.len(), handle.transmitted_len(), "{spec_str}");
            assert!(
                positions.windows(2).all(|w| w[0] < w[1]),
                "{spec_str}: positions not ascending"
            );
            assert!(positions.iter().all(|&p| (p as usize) < n), "{spec_str}");
            let tx = vec![1.5f32; handle.transmitted_len()];
            let mut full = Vec::new();
            handle.expand_llrs_into(&tx, &mut full);
            assert_eq!(full.len(), n, "{spec_str}: expansion length");
            // Transmitted positions carry the received values.
            for (i, &p) in positions.iter().enumerate() {
                let _ = i;
                assert_eq!(full[p as usize], 1.5, "{spec_str}: position {p}");
            }
            assert!(handle.rate() > 0.0 && handle.rate() < 1.0, "{spec_str}");
        }
    }

    #[test]
    fn shortened_build_rejects_oversized_k() {
        let spec = CodeSpec::Shortened {
            base: ShortenedBase::Demo,
            k: 10_000,
        };
        let Err(err) = spec.build() else {
            panic!("oversized k must be rejected")
        };
        assert!(err.to_string().contains("dimension"), "{err}");
    }

    #[test]
    fn ar4ja_builds_are_deterministic() {
        let spec = CodeSpec::parse("ar4ja:r=1/2,k=64").unwrap();
        let a = spec.build().unwrap();
        let b = spec.build().unwrap();
        assert_eq!(a.code().h(), b.code().h());
    }
}

//! Declarative decoder specification: one grammar, one registry, one
//! front door for every decoder family in the workspace.
//!
//! The paper's thesis is that a *single generic architecture* serves
//! every CCSDS near-earth decoding configuration; [`DecoderSpec`] is the
//! software mirror of that idea. A spec is a small string —
//!
//! ```text
//!   family[:param][@modifier[@modifier...]]
//! ```
//!
//! | Spec | Decoder | Parameter |
//! |------|---------|-----------|
//! | `spa` | [`SumProductDecoder`] | — |
//! | `ms` | [`MinSumDecoder`] (plain) | — |
//! | `nms:1.25` | [`MinSumDecoder`] (normalized) | α ≥ 1 (default 4/3) |
//! | `oms:0.15` | [`MinSumDecoder`] (offset) | β ≥ 0 (default 0.15) |
//! | `fixed` | [`PackedFixedDecoder`]: one frame, adjacent nodes in i8 lanes, bit-exact against [`FixedDecoder`](crate::FixedDecoder) | — (default datapath) |
//! | `layered:1.25` | [`LayeredMinSumDecoder`] | α ≥ 1 (default 4/3) |
//! | `qc-layered:1.25` | [`QcLayeredDecoder`] | α ≥ 1 (default 4/3) |
//! | `self-corrected:1.25` | [`SelfCorrectedMinSumDecoder`] | α ≥ 1 (default 4/3) |
//! | `gallager-b:t=2` | [`GallagerBDecoder`] | flip threshold ≥ 1 (default 3) |
//! | `wbf` | [`WeightedBitFlipDecoder`] | — |
//! | `peeling` | [`PeelingDecoder`] | — (erasure peeling + inactivation) |
//!
//! Modifiers change *how* the family runs, not *what* it computes (the
//! packed mirrors are bit-exact against their scalar references):
//!
//! | Modifier | Effect | Applies to |
//! |----------|--------|------------|
//! | `@batch=8` | lockstep frame batching ([`BatchMinSumDecoder`]; on `fixed`, an alias of plain `fixed` for any N) | `ms`, `nms`, `oms`, `fixed` |
//! | `@bitslice` | 64 frames per `u64` word ([`BitsliceGallagerBDecoder`]) | `gallager-b` |
//! | `@pack=8` | an alias of plain `fixed`, whose i8 lanes hold adjacent nodes ([`PackedFixedDecoder`]) | `fixed` |
//!
//! Parsing ([`FromStr`]) and rendering ([`Display`](fmt::Display)) round
//! trip: `parse(display(spec)) == spec` for every valid spec (pinned by
//! proptests). [`DecoderSpec::all_families`] enumerates one canonical
//! spec per registered family, and [`DecoderSpec::build`] constructs any
//! of them behind the object-safe [`BlockDecoder`] trait:
//!
//! ```
//! use ldpc_core::codes::small::demo_code;
//! use ldpc_core::{BlockDecoder, DecoderSpec};
//!
//! let code = demo_code();
//! let mut decoder = DecoderSpec::parse("nms:1.25@batch=8")?.build(&code);
//! let results = decoder.decode_block(&vec![2.5; 3 * code.n()], 20);
//! assert!(results.iter().all(|r| r.converged));
//! # Ok::<(), ldpc_core::SpecError>(())
//! ```

use crate::decoder::block::BlockDecoder;
use crate::decoder::{
    BatchMinSumDecoder, BitsliceGallagerBDecoder, FixedConfig, GallagerBDecoder,
    LayeredMinSumDecoder, MinSumConfig, MinSumDecoder, PackedFixedDecoder, PeelingDecoder,
    QcLayeredDecoder, SelfCorrectedMinSumDecoder, SumProductDecoder, WeightedBitFlipDecoder,
    PACK_LANES,
};
use crate::LdpcCode;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

/// Default normalization factor α — the hardware's ×0.75 shift-add.
pub const DEFAULT_ALPHA: f32 = 4.0 / 3.0;
/// Default offset β for offset min-sum.
pub const DEFAULT_BETA: f32 = 0.15;
/// Default Gallager-B flip threshold (majority rule at column weight 4).
pub const DEFAULT_GALLAGER_THRESHOLD: usize = 3;
/// Canonical batch capacity (Table 3 packs 8 frames per memory word).
pub const DEFAULT_BATCH: usize = 8;

/// A decoder family with its algorithmic parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecoderFamily {
    /// Sum-product ("BP") in `f32` — the reference decoder.
    SumProduct,
    /// Plain min-sum (no correction).
    MinSum,
    /// Normalized min-sum, magnitudes divided by `alpha`.
    NormalizedMinSum {
        /// Normalization factor α ≥ 1.
        alpha: f32,
    },
    /// Offset min-sum, magnitudes reduced by `beta` (floored at 0).
    OffsetMinSum {
        /// Subtractive offset β ≥ 0.
        beta: f32,
    },
    /// Bit-accurate fixed-point normalized min-sum (default datapath).
    Fixed,
    /// Serial-schedule (layered) normalized min-sum.
    Layered {
        /// Normalization factor α ≥ 1.
        alpha: f32,
    },
    /// Block-layered normalized min-sum over the quasi-cyclic structure
    /// (rotate-indexed circulant planes; requires a QC code).
    QcLayered {
        /// Normalization factor α ≥ 1.
        alpha: f32,
    },
    /// Self-corrected normalized min-sum (Savin).
    SelfCorrected {
        /// Normalization factor α ≥ 1.
        alpha: f32,
    },
    /// Gallager-B hard-decision bit flipping.
    GallagerB {
        /// Flip threshold ≥ 1 (failing checks required to flip a bit).
        threshold: usize,
    },
    /// Weighted bit-flipping (hard decisions + channel reliabilities).
    WeightedBitFlip,
    /// Degree-1 erasure peeling with a dense inactivation fallback.
    Peeling,
}

impl DecoderFamily {
    /// The grammar keyword of this family (`nms`, `gallager-b`, …).
    pub fn keyword(&self) -> &'static str {
        match self {
            Self::SumProduct => "spa",
            Self::MinSum => "ms",
            Self::NormalizedMinSum { .. } => "nms",
            Self::OffsetMinSum { .. } => "oms",
            Self::Fixed => "fixed",
            Self::Layered { .. } => "layered",
            Self::QcLayered { .. } => "qc-layered",
            Self::SelfCorrected { .. } => "self-corrected",
            Self::GallagerB { .. } => "gallager-b",
            Self::WeightedBitFlip => "wbf",
            Self::Peeling => "peeling",
        }
    }

    /// Whether `@batch=N` applies to this family.
    pub fn supports_batch(&self) -> bool {
        matches!(
            self,
            Self::MinSum | Self::NormalizedMinSum { .. } | Self::OffsetMinSum { .. } | Self::Fixed
        )
    }

    /// Whether `@bitslice` applies to this family.
    pub fn supports_bitslice(&self) -> bool {
        matches!(self, Self::GallagerB { .. })
    }

    /// Whether `@pack=8` applies to this family. Only the fixed-point
    /// datapath is packed: packing relies on i8 message lanes, so
    /// float-message families cannot support it.
    pub fn supports_pack(&self) -> bool {
        matches!(self, Self::Fixed)
    }
}

/// A complete decoder specification: a family plus execution modifiers.
///
/// See the module docs above for the grammar. Construct by parsing
/// ([`DecoderSpec::parse`] / [`FromStr`]) — which validates — or from the
/// public fields directly (then [`build`](DecoderSpec::build) panics on
/// combinations the parser would have rejected).
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderSpec {
    /// The decoder family and its parameters.
    pub family: DecoderFamily,
    /// `@batch=N`: decode N frames in lockstep (families with a batched
    /// mirror only). `None` = scalar per-frame decoding. On `fixed` it is
    /// an alias: the decoder is plain `fixed`'s, and N stays part of the
    /// canonical string.
    pub batch: Option<usize>,
    /// `@bitslice`: 64 frames per `u64` word (`gallager-b` only).
    pub bitslice: bool,
    /// `@pack=8` (`fixed` only): an alias of plain `fixed`, whose only
    /// valid value is [`PACK_LANES`]. It stays part of the canonical
    /// string.
    pub pack: Option<usize>,
}

impl DecoderSpec {
    /// A scalar spec for `family` (no modifiers).
    pub fn scalar(family: DecoderFamily) -> Self {
        Self {
            family,
            batch: None,
            bitslice: false,
            pack: None,
        }
    }

    /// Parses a spec string — alias of the [`FromStr`] impl.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] with an actionable message on unknown
    /// families, malformed parameters, or unsupported modifier
    /// combinations.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        s.parse()
    }

    /// The grammar keywords of every registered family, in registry
    /// order. Parsing any of these (without parameters) yields that
    /// family with default parameters.
    pub fn family_names() -> &'static [&'static str] {
        &[
            "spa",
            "ms",
            "nms",
            "oms",
            "fixed",
            "layered",
            "qc-layered",
            "self-corrected",
            "gallager-b",
            "wbf",
            "peeling",
        ]
    }

    /// One canonical spec per registered decoder family: the eleven scalar
    /// families of [`family_names`](Self::family_names) plus the four
    /// modified specs (`nms@batch=8`, `gallager-b@bitslice`, and the
    /// `fixed` aliases `fixed@batch=8` and `fixed@pack=8`).
    ///
    /// The conformance suite derives its decoder list from this registry,
    /// so a family registered here is automatically covered; one missing
    /// fails the suite's completeness test.
    pub fn all_families() -> Vec<DecoderSpec> {
        let mut specs: Vec<DecoderSpec> = Self::family_names()
            .iter()
            .map(|name| Self::parse(name).expect("registry keyword must parse"))
            .collect();
        for packed in ["nms", "fixed"] {
            specs.push(
                Self::parse(packed)
                    .expect("registry keyword must parse")
                    .with_batch(DEFAULT_BATCH)
                    .expect("registry family supports @batch"),
            );
        }
        specs.push(
            Self::parse("fixed")
                .expect("registry keyword must parse")
                .with_pack(PACK_LANES)
                .expect("fixed supports @pack"),
        );
        specs.push(
            Self::parse("gallager-b")
                .expect("registry keyword must parse")
                .with_bitslice()
                .expect("gallager-b supports @bitslice"),
        );
        specs
    }

    /// This spec with `@batch=N` applied.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the family has no batched mirror, the
    /// spec is already bit-sliced, or `n` is zero.
    pub fn with_batch(mut self, n: usize) -> Result<Self, SpecError> {
        self.batch = Some(n);
        self.validated()
    }

    /// This spec with `@bitslice` applied.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the family has no bit-sliced mirror or
    /// the spec is already batched.
    pub fn with_bitslice(mut self) -> Result<Self, SpecError> {
        self.bitslice = true;
        self.validated()
    }

    /// This spec with `@pack=n` applied.
    ///
    /// # Errors
    ///
    /// Returns [`SpecError`] if the family has no packed mirror,
    /// `n` is not [`PACK_LANES`], or another packing modifier is already
    /// present.
    pub fn with_pack(mut self, n: usize) -> Result<Self, SpecError> {
        self.pack = Some(n);
        self.validated()
    }

    /// Validates parameters and modifier combinations.
    fn validated(self) -> Result<Self, SpecError> {
        match self.family {
            DecoderFamily::NormalizedMinSum { alpha }
            | DecoderFamily::Layered { alpha }
            | DecoderFamily::QcLayered { alpha }
            | DecoderFamily::SelfCorrected { alpha }
                if alpha < 1.0 || !alpha.is_finite() =>
            {
                return Err(SpecError::InvalidParameter {
                    family: self.family.keyword(),
                    value: alpha.to_string(),
                    expected: "a finite normalization factor >= 1 (e.g. nms:1.25)",
                });
            }
            DecoderFamily::OffsetMinSum { beta } if beta < 0.0 || !beta.is_finite() => {
                return Err(SpecError::InvalidParameter {
                    family: "oms",
                    value: beta.to_string(),
                    expected: "a finite offset >= 0 (e.g. oms:0.15)",
                });
            }
            DecoderFamily::GallagerB { threshold: 0 } => {
                return Err(SpecError::InvalidParameter {
                    family: "gallager-b",
                    value: "t=0".to_string(),
                    expected: "a flip threshold >= 1 (e.g. gallager-b:t=2)",
                });
            }
            _ => {}
        }
        if let Some(batch) = self.batch {
            if !self.family.supports_batch() {
                return Err(SpecError::UnsupportedModifier {
                    modifier: "@batch",
                    family: self.family.keyword(),
                    supported: "ms, nms, oms, fixed",
                });
            }
            if batch == 0 {
                return Err(SpecError::InvalidParameter {
                    family: self.family.keyword(),
                    value: "batch=0".to_string(),
                    expected: "a batch size >= 1 (e.g. @batch=8)",
                });
            }
        }
        if self.bitslice && !self.family.supports_bitslice() {
            return Err(SpecError::UnsupportedModifier {
                modifier: "@bitslice",
                family: self.family.keyword(),
                supported: "gallager-b",
            });
        }
        if let Some(pack) = self.pack {
            if !self.family.supports_pack() {
                return Err(SpecError::UnsupportedModifier {
                    modifier: "@pack",
                    family: self.family.keyword(),
                    supported:
                        "fixed (packing needs i8 message lanes; float-message families have none)",
                });
            }
            if pack != PACK_LANES {
                return Err(SpecError::InvalidParameter {
                    family: self.family.keyword(),
                    value: format!("pack={pack}"),
                    expected: "the word-width lane count @pack=8 (8 i8 lanes per u64)",
                });
            }
        }
        if self.bitslice && self.batch.is_some() {
            return Err(SpecError::ConflictingModifiers("@batch", "@bitslice"));
        }
        if self.pack.is_some() && self.batch.is_some() {
            return Err(SpecError::ConflictingModifiers("@batch", "@pack"));
        }
        if self.pack.is_some() && self.bitslice {
            return Err(SpecError::ConflictingModifiers("@bitslice", "@pack"));
        }
        Ok(self)
    }

    /// Constructs the specified decoder over `code`, behind the
    /// object-safe [`BlockDecoder`] front door.
    ///
    /// # Panics
    ///
    /// Panics on modifier/parameter combinations the parser rejects
    /// (reachable only by constructing invalid specs from the public
    /// fields directly).
    pub fn build(&self, code: &Arc<LdpcCode>) -> Box<dyn BlockDecoder> {
        self.clone()
            .validated()
            .unwrap_or_else(|e| panic!("invalid decoder spec: {e}"));
        let code = Arc::clone(code);
        if self.bitslice {
            let DecoderFamily::GallagerB { threshold } = self.family else {
                unreachable!("validated above");
            };
            return Box::new(BitsliceGallagerBDecoder::new(code, threshold));
        }
        if let Some(batch) = self.batch.filter(|_| self.family != DecoderFamily::Fixed) {
            return match self.family {
                DecoderFamily::MinSum => {
                    Box::new(BatchMinSumDecoder::new(code, MinSumConfig::plain(), batch))
                }
                DecoderFamily::NormalizedMinSum { alpha } => Box::new(BatchMinSumDecoder::new(
                    code,
                    MinSumConfig::normalized(alpha),
                    batch,
                )),
                DecoderFamily::OffsetMinSum { beta } => Box::new(BatchMinSumDecoder::new(
                    code,
                    MinSumConfig::offset(beta),
                    batch,
                )),
                _ => unreachable!("validated above"),
            };
        }
        match self.family {
            DecoderFamily::SumProduct => Box::new(SumProductDecoder::new(code)),
            DecoderFamily::MinSum => Box::new(MinSumDecoder::new(code, MinSumConfig::plain())),
            DecoderFamily::NormalizedMinSum { alpha } => {
                Box::new(MinSumDecoder::new(code, MinSumConfig::normalized(alpha)))
            }
            DecoderFamily::OffsetMinSum { beta } => {
                Box::new(MinSumDecoder::new(code, MinSumConfig::offset(beta)))
            }
            // Validation pinned `@pack` to `fixed` and PACK_LANES, and
            // `@pack=8` and `@batch=N` on `fixed` are aliases: every
            // `fixed` spec builds the packed datapath, one frame across
            // each word's lanes, bit-exact against `FixedDecoder`.
            DecoderFamily::Fixed => Box::new(PackedFixedDecoder::new(code, FixedConfig::default())),
            DecoderFamily::Layered { alpha } => Box::new(LayeredMinSumDecoder::new(code, alpha)),
            DecoderFamily::QcLayered { alpha } => Box::new(QcLayeredDecoder::new(code, alpha)),
            DecoderFamily::SelfCorrected { alpha } => {
                Box::new(SelfCorrectedMinSumDecoder::new(code, alpha))
            }
            DecoderFamily::GallagerB { threshold } => {
                Box::new(GallagerBDecoder::new(code, threshold))
            }
            DecoderFamily::WeightedBitFlip => Box::new(WeightedBitFlipDecoder::new(code)),
            DecoderFamily::Peeling => Box::new(PeelingDecoder::new(code)),
        }
    }
}

impl fmt::Display for DecoderSpec {
    /// Canonical rendering: parameters equal to their defaults are
    /// omitted, so `parse("nms").to_string() == "nms"` while
    /// `parse("nms:1.25").to_string() == "nms:1.25"`. Always round trips
    /// through [`FromStr`] to an equal spec.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family {
            DecoderFamily::SumProduct
            | DecoderFamily::MinSum
            | DecoderFamily::Fixed
            | DecoderFamily::WeightedBitFlip
            | DecoderFamily::Peeling => write!(f, "{}", self.family.keyword())?,
            DecoderFamily::NormalizedMinSum { alpha }
            | DecoderFamily::Layered { alpha }
            | DecoderFamily::QcLayered { alpha }
            | DecoderFamily::SelfCorrected { alpha } => {
                if alpha == DEFAULT_ALPHA {
                    write!(f, "{}", self.family.keyword())?;
                } else {
                    write!(f, "{}:{alpha}", self.family.keyword())?;
                }
            }
            DecoderFamily::OffsetMinSum { beta } => {
                if beta == DEFAULT_BETA {
                    write!(f, "oms")?;
                } else {
                    write!(f, "oms:{beta}")?;
                }
            }
            DecoderFamily::GallagerB { threshold } => {
                if threshold == DEFAULT_GALLAGER_THRESHOLD {
                    write!(f, "gallager-b")?;
                } else {
                    write!(f, "gallager-b:t={threshold}")?;
                }
            }
        }
        if let Some(batch) = self.batch {
            write!(f, "@batch={batch}")?;
        }
        if self.bitslice {
            write!(f, "@bitslice")?;
        }
        if let Some(pack) = self.pack {
            write!(f, "@pack={pack}")?;
        }
        Ok(())
    }
}

impl FromStr for DecoderSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, SpecError> {
        let s = s.trim();
        if s.is_empty() {
            return Err(SpecError::Empty);
        }
        let mut parts = s.split('@');
        let head = parts.next().expect("split yields at least one part");
        let (keyword, param) = match head.split_once(':') {
            Some((k, p)) => (k, Some(p)),
            None => (head, None),
        };
        let family = parse_family(keyword, param)?;
        let mut spec = DecoderSpec::scalar(family);
        for modifier in parts {
            if modifier == "bitslice" {
                if spec.bitslice {
                    return Err(SpecError::DuplicateModifier("@bitslice"));
                }
                spec.bitslice = true;
            } else if let Some(value) = modifier.strip_prefix("batch=") {
                if spec.batch.is_some() {
                    return Err(SpecError::DuplicateModifier("@batch"));
                }
                let batch: usize = value.parse().map_err(|_| SpecError::InvalidParameter {
                    family: family.keyword(),
                    value: format!("batch={value}"),
                    expected: "a batch size >= 1 (e.g. @batch=8)",
                })?;
                spec.batch = Some(batch);
            } else if let Some(value) = modifier.strip_prefix("pack=") {
                if spec.pack.is_some() {
                    return Err(SpecError::DuplicateModifier("@pack"));
                }
                let pack: usize = value.parse().map_err(|_| SpecError::InvalidParameter {
                    family: family.keyword(),
                    value: format!("pack={value}"),
                    expected: "the word-width lane count @pack=8 (8 i8 lanes per u64)",
                })?;
                spec.pack = Some(pack);
            } else {
                return Err(SpecError::UnknownModifier(modifier.to_string()));
            }
        }
        spec.validated()
    }
}

/// Parses a family keyword plus its optional `:param` tail.
fn parse_family(keyword: &str, param: Option<&str>) -> Result<DecoderFamily, SpecError> {
    let no_param = |family: DecoderFamily| match param {
        None => Ok(family),
        Some(p) => Err(SpecError::UnexpectedParameter {
            family: family.keyword(),
            value: p.to_string(),
        }),
    };
    let alpha_param = |make: fn(f32) -> DecoderFamily, example: &'static str| match param {
        None => Ok(make(DEFAULT_ALPHA)),
        Some(p) => p
            .parse::<f32>()
            .map(make)
            .map_err(|_| SpecError::InvalidParameter {
                family: keyword_of(make),
                value: p.to_string(),
                expected: example,
            }),
    };
    fn keyword_of(make: fn(f32) -> DecoderFamily) -> &'static str {
        make(DEFAULT_ALPHA).keyword()
    }
    match keyword {
        "spa" | "sum-product" => no_param(DecoderFamily::SumProduct),
        "ms" | "min-sum" => no_param(DecoderFamily::MinSum),
        "nms" => alpha_param(
            |alpha| DecoderFamily::NormalizedMinSum { alpha },
            "a normalization factor >= 1 (e.g. nms:1.25)",
        ),
        "layered" => alpha_param(
            |alpha| DecoderFamily::Layered { alpha },
            "a normalization factor >= 1 (e.g. layered:1.25)",
        ),
        "qc-layered" | "qcl" => alpha_param(
            |alpha| DecoderFamily::QcLayered { alpha },
            "a normalization factor >= 1 (e.g. qc-layered:1.25)",
        ),
        "self-corrected" | "scms" => alpha_param(
            |alpha| DecoderFamily::SelfCorrected { alpha },
            "a normalization factor >= 1 (e.g. self-corrected:1.25)",
        ),
        "oms" => match param {
            None => Ok(DecoderFamily::OffsetMinSum { beta: DEFAULT_BETA }),
            Some(p) => p
                .parse::<f32>()
                .map(|beta| DecoderFamily::OffsetMinSum { beta })
                .map_err(|_| SpecError::InvalidParameter {
                    family: "oms",
                    value: p.to_string(),
                    expected: "an offset >= 0 (e.g. oms:0.15)",
                }),
        },
        "fixed" => no_param(DecoderFamily::Fixed),
        "gallager-b" | "gb" => match param {
            None => Ok(DecoderFamily::GallagerB {
                threshold: DEFAULT_GALLAGER_THRESHOLD,
            }),
            Some(p) => {
                let value = p.strip_prefix("t=").unwrap_or(p);
                value
                    .parse::<usize>()
                    .map(|threshold| DecoderFamily::GallagerB { threshold })
                    .map_err(|_| SpecError::InvalidParameter {
                        family: "gallager-b",
                        value: p.to_string(),
                        expected: "a flip threshold >= 1 (e.g. gallager-b:t=2)",
                    })
            }
        },
        "wbf" | "weighted-bit-flip" => no_param(DecoderFamily::WeightedBitFlip),
        "peeling" => no_param(DecoderFamily::Peeling),
        other => Err(SpecError::UnknownFamily(other.to_string())),
    }
}

/// Error produced while parsing or validating a [`DecoderSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The spec string was empty.
    Empty,
    /// The family keyword is not registered.
    UnknownFamily(String),
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
    /// A modifier keyword is not registered.
    UnknownModifier(String),
    /// The same modifier was given twice.
    DuplicateModifier(&'static str),
    /// A modifier was applied to a family without that execution mirror.
    UnsupportedModifier {
        /// The modifier (`@batch` / `@bitslice` / `@pack`).
        modifier: &'static str,
        /// Family keyword it was applied to.
        family: &'static str,
        /// Families that do support it.
        supported: &'static str,
    },
    /// Two frame-packing execution mirrors were combined.
    ConflictingModifiers(&'static str, &'static str),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Empty => write!(
                f,
                "empty decoder spec; expected family[:param][@modifier], e.g. nms:1.25@batch=8"
            ),
            Self::UnknownFamily(name) => write!(
                f,
                "unknown decoder family {name:?}; known families: {}",
                DecoderSpec::family_names().join(", ")
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
            Self::UnknownModifier(name) => write!(
                f,
                "unknown modifier {name:?}; known modifiers: @batch=N, @bitslice, @pack=8"
            ),
            Self::DuplicateModifier(name) => write!(f, "modifier {name} given more than once"),
            Self::UnsupportedModifier {
                modifier,
                family,
                supported,
            } => write!(
                f,
                "{modifier} is not supported for {family}; supported families: {supported}"
            ),
            Self::ConflictingModifiers(a, b) => write!(
                f,
                "{a} and {b} cannot be combined (pick one frame-packing execution mirror)"
            ),
        }
    }
}

impl std::error::Error for SpecError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::demo_code;

    #[test]
    fn parses_every_family_keyword_with_defaults() {
        for name in DecoderSpec::family_names() {
            let spec = DecoderSpec::parse(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(spec.to_string(), *name, "canonical display of {name}");
            assert!(spec.batch.is_none());
            assert!(!spec.bitslice);
        }
    }

    #[test]
    fn parses_parameters_and_modifiers() {
        let spec = DecoderSpec::parse("nms:1.25@batch=8").unwrap();
        assert_eq!(spec.family, DecoderFamily::NormalizedMinSum { alpha: 1.25 });
        assert_eq!(spec.batch, Some(8));
        assert_eq!(spec.to_string(), "nms:1.25@batch=8");

        let spec = DecoderSpec::parse("gallager-b:t=2@bitslice").unwrap();
        assert_eq!(spec.family, DecoderFamily::GallagerB { threshold: 2 });
        assert!(spec.bitslice);
        assert_eq!(spec.to_string(), "gallager-b:t=2@bitslice");

        assert_eq!(
            DecoderSpec::parse("oms:0.2").unwrap().family,
            DecoderFamily::OffsetMinSum { beta: 0.2 }
        );
        assert_eq!(
            DecoderSpec::parse("layered:1.5").unwrap().family,
            DecoderFamily::Layered { alpha: 1.5 }
        );
    }

    #[test]
    fn default_parameters_are_the_hardware_ones() {
        assert_eq!(
            DecoderSpec::parse("nms").unwrap().family,
            DecoderFamily::NormalizedMinSum {
                alpha: DEFAULT_ALPHA
            }
        );
        assert_eq!(
            DecoderSpec::parse("gallager-b").unwrap().family,
            DecoderFamily::GallagerB { threshold: 3 }
        );
    }

    #[test]
    fn aliases_parse_to_the_same_family() {
        assert_eq!(
            DecoderSpec::parse("gb:t=2").unwrap(),
            DecoderSpec::parse("gallager-b:t=2").unwrap()
        );
        assert_eq!(
            DecoderSpec::parse("sum-product").unwrap(),
            DecoderSpec::parse("spa").unwrap()
        );
        assert_eq!(
            DecoderSpec::parse("min-sum").unwrap(),
            DecoderSpec::parse("ms").unwrap()
        );
        assert_eq!(
            DecoderSpec::parse("scms:1.5").unwrap(),
            DecoderSpec::parse("self-corrected:1.5").unwrap()
        );
        assert_eq!(
            DecoderSpec::parse("qcl:1.5").unwrap(),
            DecoderSpec::parse("qc-layered:1.5").unwrap()
        );
        assert_eq!(
            DecoderSpec::parse("weighted-bit-flip").unwrap(),
            DecoderSpec::parse("wbf").unwrap()
        );
    }

    #[test]
    fn display_omits_default_parameters_only() {
        assert_eq!(
            DecoderSpec::parse("nms:1.3333334").unwrap().to_string(),
            "nms"
        );
        assert_eq!(
            DecoderSpec::parse("nms:1.25").unwrap().to_string(),
            "nms:1.25"
        );
        assert_eq!(
            DecoderSpec::parse("gallager-b:t=3").unwrap().to_string(),
            "gallager-b"
        );
        assert_eq!(DecoderSpec::parse("oms:0.15").unwrap().to_string(), "oms");
    }

    #[test]
    fn errors_are_actionable() {
        let err = DecoderSpec::parse("magic").unwrap_err();
        assert!(matches!(err, SpecError::UnknownFamily(_)));
        assert!(err.to_string().contains("known families"));
        assert!(err.to_string().contains("nms"));

        let err = DecoderSpec::parse("nms:zero").unwrap_err();
        assert!(err.to_string().contains("nms:1.25"), "{err}");

        let err = DecoderSpec::parse("nms:0.5").unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");

        let err = DecoderSpec::parse("qc-layered:0.5").unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");

        let err = DecoderSpec::parse("qcl:fast").unwrap_err();
        assert!(err.to_string().contains("qc-layered:1.25"), "{err}");

        let err = DecoderSpec::parse("qc-layered@batch=8").unwrap_err();
        assert!(
            err.to_string().contains("not supported for qc-layered"),
            "{err}"
        );

        let err = DecoderSpec::parse("spa:1.5").unwrap_err();
        assert!(err.to_string().contains("takes no parameter"), "{err}");

        let err = DecoderSpec::parse("spa@batch=8").unwrap_err();
        assert!(err.to_string().contains("not supported for spa"), "{err}");

        let err = DecoderSpec::parse("nms@bitslice").unwrap_err();
        assert!(err.to_string().contains("gallager-b"), "{err}");

        let err = DecoderSpec::parse("nms@turbo").unwrap_err();
        assert!(err.to_string().contains("known modifiers"), "{err}");

        let err = DecoderSpec::parse("nms@batch=0").unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");

        let err = DecoderSpec::parse("gallager-b:t=0").unwrap_err();
        assert!(err.to_string().contains(">= 1"), "{err}");

        let err = DecoderSpec::parse("gallager-b@bitslice@bitslice").unwrap_err();
        assert!(matches!(err, SpecError::DuplicateModifier(_)));

        let err = DecoderSpec::parse("").unwrap_err();
        assert_eq!(err, SpecError::Empty);
    }

    #[test]
    fn pack_modifier_parses_and_round_trips() {
        let spec = DecoderSpec::parse("fixed@pack=8").unwrap();
        assert_eq!(spec.family, DecoderFamily::Fixed);
        assert_eq!(spec.pack, Some(8));
        assert_eq!(spec.to_string(), "fixed@pack=8");
        assert_eq!(DecoderSpec::parse(&spec.to_string()).unwrap(), spec);
        assert_eq!(
            DecoderSpec::parse("fixed").unwrap().with_pack(8).unwrap(),
            spec
        );
    }

    #[test]
    fn pack_modifier_rejections_are_actionable() {
        // Only the word-width lane count exists.
        let err = DecoderSpec::parse("fixed@pack=7").unwrap_err();
        assert!(err.to_string().contains("@pack=8"), "{err}");
        let err = DecoderSpec::parse("fixed@pack=16").unwrap_err();
        assert!(err.to_string().contains("8 i8 lanes per u64"), "{err}");
        let err = DecoderSpec::parse("fixed@pack=fast").unwrap_err();
        assert!(err.to_string().contains("@pack=8"), "{err}");

        // Float-message families have no i8 lanes to pack.
        let err = DecoderSpec::parse("spa@pack=8").unwrap_err();
        assert!(err.to_string().contains("not supported for spa"), "{err}");
        assert!(err.to_string().contains("fixed"), "{err}");
        assert!(err.to_string().contains("i8 message lanes"), "{err}");
        let err = DecoderSpec::parse("nms:1.25@pack=8").unwrap_err();
        assert!(err.to_string().contains("not supported for nms"), "{err}");

        // One frame-packing mirror at a time, and no duplicates.
        let err = DecoderSpec::parse("fixed@batch=8@pack=8").unwrap_err();
        assert!(
            matches!(err, SpecError::ConflictingModifiers(_, _)),
            "{err}"
        );
        assert!(err.to_string().contains("@pack"), "{err}");
        let err = DecoderSpec::parse("fixed@pack=8@pack=8").unwrap_err();
        assert_eq!(err, SpecError::DuplicateModifier("@pack"));
        assert!(DecoderSpec::parse("gallager-b@bitslice@pack=8").is_err());
    }

    #[test]
    fn pack_spec_builds_the_packed_mirror() {
        // `@pack=8` and `@batch=N` on `fixed` are aliases: they keep their
        // canonical strings and build plain `fixed`'s decoder.
        let code = demo_code();
        let fixed = DecoderSpec::parse("fixed").unwrap().build(&code);
        for spec in ["fixed@pack=8", "fixed@batch=8", "fixed@batch=3"] {
            let mut dec = DecoderSpec::parse(spec).unwrap().build(&code);
            assert_eq!(dec.block_frames(), 1, "{spec}");
            assert_eq!(dec.name(), fixed.name(), "{spec}");
            assert!(dec.name().contains("packed"), "{spec}: {}", dec.name());
            let out = dec.decode_block(&vec![3.0_f32; 2 * code.n()], 10);
            assert!(out.iter().all(|r| r.converged && r.hard_decision.is_zero()));
        }
    }

    #[test]
    fn every_registered_family_builds_and_decodes() {
        let code = demo_code();
        let llrs = vec![3.0_f32; 2 * code.n()];
        for spec in DecoderSpec::all_families() {
            let mut dec = spec.build(&code);
            assert_eq!(dec.n(), code.n(), "{spec}");
            assert!(dec.block_frames() >= 1, "{spec}");
            let out = dec.decode_block(&llrs, 10);
            assert_eq!(out.len(), 2, "{spec}");
            assert!(
                out.iter().all(|r| r.converged && r.hard_decision.is_zero()),
                "{spec} failed on noiseless frames"
            );
        }
    }

    #[test]
    fn builder_modifiers_validate() {
        let nms = DecoderSpec::parse("nms").unwrap();
        assert_eq!(
            nms.clone().with_batch(4).unwrap().to_string(),
            "nms@batch=4"
        );
        assert!(nms.clone().with_batch(0).is_err());
        assert!(nms.with_bitslice().is_err());
        let gb = DecoderSpec::parse("gallager-b").unwrap();
        assert_eq!(
            gb.with_bitslice().unwrap().to_string(),
            "gallager-b@bitslice"
        );
    }

    /// Non-circular registry completeness, at the variant level: one
    /// instance of every `DecoderFamily` variant must surface through
    /// `family_names()` / `all_families()`. Adding a variant makes the
    /// guard match below stop compiling until the list gains it, and a
    /// listed variant whose keyword is missing from `family_names()`
    /// fails the assertions — so a new family cannot be parseable
    /// without being registered.
    #[test]
    fn every_family_variant_is_registered() {
        use DecoderFamily as F;
        let one_of_each = [
            F::SumProduct,
            F::MinSum,
            F::NormalizedMinSum {
                alpha: DEFAULT_ALPHA,
            },
            F::OffsetMinSum { beta: DEFAULT_BETA },
            F::Fixed,
            F::Layered {
                alpha: DEFAULT_ALPHA,
            },
            F::QcLayered {
                alpha: DEFAULT_ALPHA,
            },
            F::SelfCorrected {
                alpha: DEFAULT_ALPHA,
            },
            F::GallagerB {
                threshold: DEFAULT_GALLAGER_THRESHOLD,
            },
            F::WeightedBitFlip,
            F::Peeling,
        ];
        for family in one_of_each {
            // Exhaustiveness guard: extend `one_of_each` when this match
            // gains an arm.
            match family {
                F::SumProduct
                | F::MinSum
                | F::NormalizedMinSum { .. }
                | F::OffsetMinSum { .. }
                | F::Fixed
                | F::Layered { .. }
                | F::QcLayered { .. }
                | F::SelfCorrected { .. }
                | F::GallagerB { .. }
                | F::WeightedBitFlip
                | F::Peeling => {}
            }
            let keyword = family.keyword();
            assert!(
                DecoderSpec::family_names().contains(&keyword),
                "{keyword} has no entry in family_names()"
            );
            let parsed = DecoderSpec::parse(keyword).unwrap();
            assert_eq!(
                std::mem::discriminant(&parsed.family),
                std::mem::discriminant(&family),
                "{keyword} parses to a different family"
            );
            assert!(
                DecoderSpec::all_families().iter().any(|s| {
                    std::mem::discriminant(&s.family) == std::mem::discriminant(&family)
                }),
                "{keyword} missing from all_families()"
            );
        }
        assert_eq!(one_of_each.len(), DecoderSpec::family_names().len());
    }

    #[test]
    #[should_panic(expected = "invalid decoder spec")]
    fn build_rejects_hand_rolled_invalid_combinations() {
        let spec = DecoderSpec {
            family: DecoderFamily::SumProduct,
            batch: Some(8),
            bitslice: false,
            pack: None,
        };
        spec.build(&demo_code());
    }
}

//! The newline-delimited wire protocol of the decode service.
//!
//! Every request and every response is one line of UTF-8 text (the
//! `STATS` response body spans several lines and is terminated by a
//! line containing a single `.`). Fields are separated by `|`, which
//! therefore cannot appear inside a scenario spec (none of the spec
//! grammars use it).
//!
//! Requests:
//!
//! ```text
//!   DECODE|<scenario>|<kind>|<payload>
//!   STATS
//!   PING
//!   SHUTDOWN
//! ```
//!
//! `<scenario>` is any string the [`Scenario`](ldpc_sim::Scenario)
//! grammar accepts — the two-part shorthand `"c2 / fixed@pack=8"`
//! (channel defaulted) or the full three-part form. The channel part
//! must parse under the full channel grammar (an unknown channel model
//! earns an `ERR` naming the grammar's known models), but a valid
//! channel is then dropped from the queue key; the server decodes what
//! it is sent, it does not simulate a channel. `<kind>` names the
//! payload encoding:
//!
//! | kind       | payload                                              |
//! |------------|------------------------------------------------------|
//! | `llr8-hex` | one signed byte per code bit at [`LLR_LSB`] LLR/LSB, hex |
//! | `llr8-b64` | the same bytes, standard base64                      |
//! | `bits-hex` | hard decisions packed MSB-first, hex                 |
//! | `bits-b64` | the same bytes, standard base64                      |
//!
//! Responses:
//!
//! ```text
//!   OK|<iterations>|<converged 0/1>|<bit_len>|<hex packed bits>
//!   BUSY|<retry_after_us>
//!   ERR|<kind>|<message>
//!   PONG
//!   BYE
//!   STATS\n<body lines>\n.
//! ```
//!
//! Both directions round-trip: `parse(render(x)) == x` for every valid
//! request and response (proptested), and no input line — truncated,
//! reordered, or random bytes — can make the parser panic.

use gf2::BitVec;
use std::fmt;

/// LLR magnitude represented by one quantization step of the `llr8`
/// payload: a wire byte `q` means the LLR `q as f32 * LLR_LSB`. Matches
/// the `@quant` channel convention of 0.5 LLR per LSB.
pub const LLR_LSB: f32 = 0.5;

/// LLR magnitude assigned to a hard-decision input bit (`bits-*`
/// payloads): bit 0 becomes `+HARD_BIT_LLR`, bit 1 becomes
/// `-HARD_BIT_LLR` (positive LLR votes for bit 0).
pub const HARD_BIT_LLR: f32 = 4.0;

/// Hard upper bound on one protocol line, requests and responses alike.
/// Generous: a full C2 frame is 8176 LLR bytes = 16352 hex digits.
pub const MAX_LINE_BYTES: usize = 1 << 22;

/// A decode payload: quantized soft LLRs or packed hard decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// One signed byte per code bit, [`LLR_LSB`] LLR per LSB.
    Llr8(Vec<i8>),
    /// Hard decisions packed MSB-first into bytes (the final byte is
    /// padded with zero bits). The server checks the byte count against
    /// the code length of the spec.
    Bits(Vec<u8>),
}

/// Which textual encoding a payload travels in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Encoding {
    /// Lowercase hex, two digits per byte.
    Hex,
    /// Standard base64 with `=` padding.
    Base64,
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Decode one frame under the given scenario spec.
    Decode {
        /// Scenario spec string (two- or three-part form).
        spec: String,
        /// The frame to decode.
        payload: Payload,
        /// How the payload was (and will be) encoded on the wire.
        encoding: Encoding,
    },
    /// Ask for the plaintext metrics snapshot.
    Stats,
    /// Liveness probe.
    Ping,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Error kinds carried by `ERR` responses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line itself was malformed.
    BadRequest,
    /// The scenario spec did not parse or build.
    BadSpec,
    /// The payload did not decode or had the wrong length.
    BadPayload,
    /// The server is draining and accepts no new frames.
    ShuttingDown,
    /// The server failed internally (e.g. a worker died).
    Internal,
}

impl ErrorKind {
    /// Wire token of this kind.
    pub fn as_str(self) -> &'static str {
        match self {
            Self::BadRequest => "bad-request",
            Self::BadSpec => "bad-spec",
            Self::BadPayload => "bad-payload",
            Self::ShuttingDown => "shutting-down",
            Self::Internal => "internal",
        }
    }

    fn from_token(s: &str) -> Option<Self> {
        Some(match s {
            "bad-request" => Self::BadRequest,
            "bad-spec" => Self::BadSpec,
            "bad-payload" => Self::BadPayload,
            "shutting-down" => Self::ShuttingDown,
            "internal" => Self::Internal,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One decoded frame as carried by an `OK` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Hard decisions packed MSB-first; `bit_len.div_ceil(8)` bytes.
    pub bits: Vec<u8>,
    /// Number of valid bits in `bits` (the code length n).
    pub bit_len: usize,
    /// Iterations the decoder actually ran.
    pub iterations: u32,
    /// Whether the hard decision satisfies every parity check.
    pub converged: bool,
}

impl DecodedFrame {
    /// Bit `i` of the decoded frame (MSB-first within each byte).
    ///
    /// # Panics
    ///
    /// Panics if `i >= bit_len`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.bit_len, "bit index {i} out of {}", self.bit_len);
        (self.bits[i / 8] >> (7 - (i % 8))) & 1 == 1
    }
}

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// A decoded frame.
    Decoded(DecodedFrame),
    /// Queue full — retry after roughly this many microseconds.
    Busy {
        /// Suggested client backoff in microseconds.
        retry_after_us: u64,
    },
    /// The request failed.
    Error {
        /// Machine-readable failure class.
        kind: ErrorKind,
        /// Human-readable detail (may contain `|`, never a newline).
        message: String,
    },
    /// Reply to `PING`.
    Pong,
    /// Reply to `SHUTDOWN`: acknowledged, draining.
    Bye,
    /// Reply to `STATS`: the plaintext metrics body.
    Stats(String),
}

/// Error produced when a protocol line cannot be parsed. Carries one
/// actionable message; the server turns it into an `ERR|bad-request`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError(pub String);

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtocolError {}

fn err(msg: impl Into<String>) -> ProtocolError {
    ProtocolError(msg.into())
}

// ---------------------------------------------------------------------
// byte codecs
// ---------------------------------------------------------------------

/// Encodes bytes as lowercase hex.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(char::from_digit((b >> 4) as u32, 16).unwrap());
        out.push(char::from_digit((b & 0xF) as u32, 16).unwrap());
    }
    out
}

/// Decodes hex (either case) into bytes.
///
/// # Errors
///
/// Returns [`ProtocolError`] on odd length or a non-hex digit.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, ProtocolError> {
    if !s.len().is_multiple_of(2) {
        return Err(err(format!("hex payload has odd length {}", s.len())));
    }
    let digit = |c: char| {
        c.to_digit(16)
            .ok_or_else(|| err(format!("invalid hex digit {c:?}")))
    };
    let mut out = Vec::with_capacity(s.len() / 2);
    let mut chars = s.chars();
    while let (Some(hi), Some(lo)) = (chars.next(), chars.next()) {
        out.push(((digit(hi)? << 4) | digit(lo)?) as u8);
    }
    Ok(out)
}

const B64_ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encodes bytes as standard base64 with `=` padding.
pub fn b64_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let word = (b0 << 16) | (b1 << 8) | b2;
        out.push(B64_ALPHABET[(word >> 18) as usize & 63] as char);
        out.push(B64_ALPHABET[(word >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            B64_ALPHABET[(word >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            B64_ALPHABET[word as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Decodes standard base64 (strict: length a multiple of 4, padding
/// only at the end) into bytes.
///
/// # Errors
///
/// Returns [`ProtocolError`] on bad length, a character outside the
/// alphabet, or interior padding.
pub fn b64_decode(s: &str) -> Result<Vec<u8>, ProtocolError> {
    if !s.len().is_multiple_of(4) {
        return Err(err(format!(
            "base64 payload length {} is not a multiple of 4",
            s.len()
        )));
    }
    let value = |c: u8| -> Result<u32, ProtocolError> {
        match c {
            b'A'..=b'Z' => Ok((c - b'A') as u32),
            b'a'..=b'z' => Ok((c - b'a') as u32 + 26),
            b'0'..=b'9' => Ok((c - b'0') as u32 + 52),
            b'+' => Ok(62),
            b'/' => Ok(63),
            _ => Err(err(format!("invalid base64 character {:?}", c as char))),
        }
    };
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len() / 4 * 3);
    for (i, quad) in bytes.chunks(4).enumerate() {
        let last = (i + 1) * 4 == bytes.len();
        let pad = quad.iter().rev().take_while(|&&c| c == b'=').count();
        if pad > 2 || (pad > 0 && !last) || quad[..4 - pad].contains(&b'=') {
            return Err(err("misplaced base64 padding"));
        }
        let mut word = 0u32;
        for &c in &quad[..4 - pad] {
            word = (word << 6) | value(c)?;
        }
        word <<= 6 * pad as u32;
        out.push((word >> 16) as u8);
        if pad < 2 {
            out.push((word >> 8) as u8);
        }
        if pad < 1 {
            out.push(word as u8);
        }
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// LLR conventions
// ---------------------------------------------------------------------

/// Quantizes a channel LLR to the wire's signed-byte scale
/// ([`LLR_LSB`] per step, saturating at ±127).
pub fn quantize_llr(llr: f32) -> i8 {
    (llr / LLR_LSB).round().clamp(-127.0, 127.0) as i8
}

/// Expands wire LLR bytes to the `f32` LLRs the decoders consume.
pub fn llr8_to_f32(quantized: &[i8]) -> Vec<f32> {
    quantized.iter().map(|&q| q as f32 * LLR_LSB).collect()
}

/// Expands `n` packed hard-decision bits (MSB-first) to ±[`HARD_BIT_LLR`]
/// LLRs (bit 1 maps to the negative rail).
///
/// # Panics
///
/// Panics if `packed` holds fewer than `n` bits; the server validates
/// the byte count before calling this.
pub fn bits_to_llrs(packed: &[u8], n: usize) -> Vec<f32> {
    assert!(packed.len() * 8 >= n, "packed bits shorter than n");
    (0..n)
        .map(|i| {
            if (packed[i / 8] >> (7 - (i % 8))) & 1 == 1 {
                -HARD_BIT_LLR
            } else {
                HARD_BIT_LLR
            }
        })
        .collect()
}

/// Packs bits (MSB-first) into bytes, zero-padding the final byte.
pub fn pack_bits(bits: impl ExactSizeIterator<Item = bool>) -> Vec<u8> {
    let mut out = vec![0u8; bits.len().div_ceil(8)];
    for (i, bit) in bits.enumerate() {
        if bit {
            out[i / 8] |= 1 << (7 - (i % 8));
        }
    }
    out
}

/// Packs a bit vector MSB-first into bytes, zero-padding the final
/// byte: the same bytes as [`pack_bits`] over its bits, built a word at
/// a time. A [`BitVec`] keeps bit `i` at bit `i % 64` of word `i / 64`
/// and zeros past its length, so each little-endian byte bit-reversed is
/// one output byte.
pub fn pack_bitvec(bits: &BitVec) -> Vec<u8> {
    let mut out: Vec<u8> = bits
        .words()
        .iter()
        .flat_map(|w| w.to_le_bytes())
        .map(u8::reverse_bits)
        .collect();
    out.truncate(bits.len().div_ceil(8));
    out
}

// ---------------------------------------------------------------------
// request lines
// ---------------------------------------------------------------------

fn payload_kind(payload: &Payload, encoding: Encoding) -> &'static str {
    match (payload, encoding) {
        (Payload::Llr8(_), Encoding::Hex) => "llr8-hex",
        (Payload::Llr8(_), Encoding::Base64) => "llr8-b64",
        (Payload::Bits(_), Encoding::Hex) => "bits-hex",
        (Payload::Bits(_), Encoding::Base64) => "bits-b64",
    }
}

fn payload_bytes(payload: &Payload) -> Vec<u8> {
    match payload {
        Payload::Llr8(q) => q.iter().map(|&v| v as u8).collect(),
        Payload::Bits(b) => b.clone(),
    }
}

/// Renders a request as one wire line (no trailing newline).
pub fn render_request(req: &Request) -> String {
    match req {
        Request::Decode {
            spec,
            payload,
            encoding,
        } => {
            let bytes = payload_bytes(payload);
            let body = match encoding {
                Encoding::Hex => hex_encode(&bytes),
                Encoding::Base64 => b64_encode(&bytes),
            };
            format!("DECODE|{spec}|{}|{body}", payload_kind(payload, *encoding))
        }
        Request::Stats => "STATS".to_string(),
        Request::Ping => "PING".to_string(),
        Request::Shutdown => "SHUTDOWN".to_string(),
    }
}

fn check_spec(spec: &str) -> Result<(), ProtocolError> {
    if spec.is_empty() {
        return Err(err("empty scenario spec"));
    }
    if spec.chars().any(|c| c.is_control()) {
        return Err(err("scenario spec contains control characters"));
    }
    Ok(())
}

/// Parses one request line (without its newline; a trailing `\r` is
/// tolerated). Never panics, whatever the input.
///
/// # Errors
///
/// Returns [`ProtocolError`] with an actionable message on any
/// malformed line.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let line = line.strip_suffix('\r').unwrap_or(line);
    if line.len() > MAX_LINE_BYTES {
        return Err(err(format!(
            "request line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
            line.len()
        )));
    }
    let mut fields = line.split('|');
    let cmd = fields.next().unwrap_or("");
    match cmd {
        "DECODE" => {
            let (Some(spec), Some(kind), Some(body), None) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Err(err(
                    "DECODE takes exactly `DECODE|<spec>|<kind>|<payload>` \
                     (kind: llr8-hex, llr8-b64, bits-hex, bits-b64)",
                ));
            };
            check_spec(spec)?;
            let (soft, encoding) = match kind {
                "llr8-hex" => (true, Encoding::Hex),
                "llr8-b64" => (true, Encoding::Base64),
                "bits-hex" => (false, Encoding::Hex),
                "bits-b64" => (false, Encoding::Base64),
                other => {
                    return Err(err(format!(
                        "unknown payload kind {other:?}; expected llr8-hex, \
                         llr8-b64, bits-hex, or bits-b64"
                    )));
                }
            };
            let bytes = match encoding {
                Encoding::Hex => hex_decode(body)?,
                Encoding::Base64 => b64_decode(body)?,
            };
            if bytes.is_empty() {
                return Err(err("empty payload"));
            }
            let payload = if soft {
                Payload::Llr8(bytes.iter().map(|&b| b as i8).collect())
            } else {
                Payload::Bits(bytes)
            };
            Ok(Request::Decode {
                spec: spec.to_string(),
                payload,
                encoding,
            })
        }
        "STATS" if fields.next().is_none() => Ok(Request::Stats),
        "PING" if fields.next().is_none() => Ok(Request::Ping),
        "SHUTDOWN" if fields.next().is_none() => Ok(Request::Shutdown),
        "" => Err(err("empty request line")),
        other => Err(err(format!(
            "unknown request {other:?}; expected DECODE, STATS, PING, or SHUTDOWN"
        ))),
    }
}

// ---------------------------------------------------------------------
// response lines
// ---------------------------------------------------------------------

/// Terminator line of a multi-line `STATS` response body.
pub const STATS_END: &str = ".";

/// Renders a response as its wire form (no trailing newline; the
/// `STATS` form is multi-line internally).
pub fn render_response(resp: &Response) -> String {
    match resp {
        Response::Decoded(f) => format!(
            "OK|{}|{}|{}|{}",
            f.iterations,
            u8::from(f.converged),
            f.bit_len,
            hex_encode(&f.bits)
        ),
        Response::Busy { retry_after_us } => format!("BUSY|{retry_after_us}"),
        Response::Error { kind, message } => {
            format!("ERR|{kind}|{}", message.replace(['\n', '\r'], " "))
        }
        Response::Pong => "PONG".to_string(),
        Response::Bye => "BYE".to_string(),
        Response::Stats(body) => {
            let mut out = String::from("STATS");
            for line in body.lines().filter(|l| *l != STATS_END) {
                out.push('\n');
                out.push_str(line);
            }
            out.push('\n');
            out.push_str(STATS_END);
            out
        }
    }
}

/// Parses one response (the full multi-line text for `STATS`). Never
/// panics, whatever the input.
///
/// # Errors
///
/// Returns [`ProtocolError`] on any malformed response.
pub fn parse_response(text: &str) -> Result<Response, ProtocolError> {
    let (first, rest) = match text.split_once('\n') {
        Some((f, r)) => (f, Some(r)),
        None => (text, None),
    };
    let first = first.strip_suffix('\r').unwrap_or(first);
    let mut fields = first.split('|');
    let cmd = fields.next().unwrap_or("");
    match cmd {
        "OK" => {
            let (Some(iters), Some(conv), Some(len), Some(body), None) = (
                fields.next(),
                fields.next(),
                fields.next(),
                fields.next(),
                fields.next(),
            ) else {
                return Err(err("OK takes `OK|<iters>|<0/1>|<bit_len>|<hex>`"));
            };
            let iterations: u32 = iters
                .parse()
                .map_err(|_| err(format!("bad iteration count {iters:?}")))?;
            let converged = match conv {
                "0" => false,
                "1" => true,
                other => return Err(err(format!("bad converged flag {other:?}"))),
            };
            let bit_len: usize = len
                .parse()
                .map_err(|_| err(format!("bad bit length {len:?}")))?;
            let bits = hex_decode(body)?;
            if bits.len() != bit_len.div_ceil(8) {
                return Err(err(format!(
                    "OK payload holds {} bytes but bit_len {bit_len} needs {}",
                    bits.len(),
                    bit_len.div_ceil(8)
                )));
            }
            Ok(Response::Decoded(DecodedFrame {
                bits,
                bit_len,
                iterations,
                converged,
            }))
        }
        "BUSY" => {
            let (Some(us), None) = (fields.next(), fields.next()) else {
                return Err(err("BUSY takes `BUSY|<retry_after_us>`"));
            };
            let retry_after_us = us
                .parse()
                .map_err(|_| err(format!("bad retry-after {us:?}")))?;
            Ok(Response::Busy { retry_after_us })
        }
        "ERR" => {
            // The message may itself contain `|`: re-join everything
            // after the kind.
            let Some(kind_tok) = fields.next() else {
                return Err(err("ERR takes `ERR|<kind>|<message>`"));
            };
            let kind = ErrorKind::from_token(kind_tok)
                .ok_or_else(|| err(format!("unknown error kind {kind_tok:?}")))?;
            let message = fields.collect::<Vec<_>>().join("|");
            Ok(Response::Error { kind, message })
        }
        "PONG" if fields.next().is_none() => Ok(Response::Pong),
        "BYE" if fields.next().is_none() => Ok(Response::Bye),
        "STATS" if fields.next().is_none() => {
            let Some(rest) = rest else {
                return Err(err("STATS response body missing its `.` terminator"));
            };
            let mut body = String::new();
            let mut terminated = false;
            for line in rest.lines() {
                if line == STATS_END {
                    terminated = true;
                    break;
                }
                if !body.is_empty() {
                    body.push('\n');
                }
                body.push_str(line);
            }
            if !terminated {
                return Err(err("STATS response body missing its `.` terminator"));
            }
            Ok(Response::Stats(body))
        }
        other => Err(err(format!("unknown response {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_and_b64_round_trip() {
        for len in [0usize, 1, 2, 3, 4, 7, 255] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
            assert_eq!(b64_decode(&b64_encode(&bytes)).unwrap(), bytes);
        }
        assert_eq!(b64_encode(b"any"), "YW55");
        assert_eq!(b64_encode(b"an"), "YW4=");
        assert_eq!(b64_encode(b"a"), "YQ==");
    }

    #[test]
    fn codecs_reject_malformed_input() {
        assert!(hex_decode("abc").is_err());
        assert!(hex_decode("zz").is_err());
        assert!(b64_decode("abc").is_err());
        assert!(b64_decode("a=bc").is_err());
        assert!(b64_decode("====").is_err());
        assert!(b64_decode("YQ==YQ==").is_err());
    }

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::Decode {
                spec: "c2 / fixed@pack=8".into(),
                payload: Payload::Llr8(vec![-128, -1, 0, 1, 127]),
                encoding: Encoding::Hex,
            },
            Request::Decode {
                spec: "demo / awgn / gallager-b@bitslice".into(),
                payload: Payload::Bits(vec![0xA5, 0x0F]),
                encoding: Encoding::Base64,
            },
            Request::Stats,
            Request::Ping,
            Request::Shutdown,
        ];
        for req in reqs {
            assert_eq!(parse_request(&render_request(&req)).unwrap(), req);
        }
    }

    #[test]
    fn response_lines_round_trip() {
        let resps = [
            Response::Decoded(DecodedFrame {
                bits: vec![0xFF, 0x01],
                bit_len: 16,
                iterations: 7,
                converged: true,
            }),
            Response::Busy {
                retry_after_us: 1500,
            },
            Response::Error {
                kind: ErrorKind::BadSpec,
                message: "in the code part: unknown family | try `c2`".into(),
            },
            Response::Pong,
            Response::Bye,
            Response::Stats("a 1\nb 2".into()),
        ];
        for resp in resps {
            assert_eq!(parse_response(&render_response(&resp)).unwrap(), resp);
        }
    }

    #[test]
    fn llr_conventions() {
        assert_eq!(quantize_llr(1.0), 2);
        assert_eq!(quantize_llr(-0.74), -1);
        assert_eq!(quantize_llr(1e9), 127);
        assert_eq!(quantize_llr(-1e9), -127);
        assert_eq!(llr8_to_f32(&[-2, 0, 3]), vec![-1.0, 0.0, 1.5]);
        let llrs = bits_to_llrs(&[0b1010_0000], 4);
        assert_eq!(llrs, vec![-4.0, 4.0, -4.0, 4.0]);
        let packed = pack_bits([true, false, true, false].into_iter());
        assert_eq!(packed, vec![0b1010_0000]);
    }

    #[test]
    fn pack_bitvec_matches_pack_bits() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for len in (1..=130).chain([248, 8176]) {
            let bools: Vec<bool> = (0..len).map(|_| rng.gen_bool(0.5)).collect();
            let v = BitVec::from_bools(&bools);
            assert_eq!(
                pack_bitvec(&v),
                pack_bits(bools.iter().copied()),
                "len {len}"
            );
        }
    }

    #[test]
    fn garbage_is_rejected_without_panic() {
        for line in [
            "",
            "NOPE",
            "DECODE",
            "DECODE|c2 / fixed",
            "DECODE|c2 / fixed|llr8-hex",
            "DECODE|c2 / fixed|llr8-hex|zz",
            "DECODE|c2 / fixed|wat|00",
            "DECODE||llr8-hex|00",
            "DECODE|c2 / fixed|llr8-hex|00|extra",
            "PING|extra",
            "\u{0}\u{1}\u{2}",
        ] {
            assert!(parse_request(line).is_err(), "{line:?}");
        }
        for text in ["", "OK", "OK|a|b|c|d", "BUSY|x", "ERR", "STATS", "WAT|1"] {
            assert!(parse_response(text).is_err(), "{text:?}");
        }
    }
}

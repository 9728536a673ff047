//! Block-layered normalized min-sum over the quasi-cyclic structure.
//!
//! Where [`LayeredMinSumDecoder`](crate::LayeredMinSumDecoder) walks H
//! check-by-check through per-edge index lists, this decoder exploits the
//! block-circulant form directly: one circulant block row (a *layer*) of
//! `L` checks is processed at a time, and within a layer every non-zero
//! tap of every block column becomes a *plane* of `L` contiguous
//! messages. Lane `i` of a plane with shift `p` in block column `bc`
//! talks to bit `bc·L + (p + i) mod L` — a cyclically contiguous range,
//! so the gather is two slice copies instead of `L` indexed loads, and
//! the two-minimum reduction runs lane-parallel over whole planes. This
//! is the software image of the paper's conflict-free banked memory
//! layout (one bank per block, rotate-indexed addressing).

use crate::decoder::block::runs;
use crate::decoder::{sign_decision, BlockDecoder, DecodeResult};
use crate::LdpcCode;
use gf2::BitVec;
use std::sync::Arc;

const SIGN_MASK: u32 = 0x8000_0000;

/// One circulant tap inside a layer: `L` messages between the layer's
/// checks and block column `base / L`, rotate-indexed by `shift`.
struct Plane {
    /// First bit index of the block column (`bc · L`).
    base: usize,
    /// Circulant shift of this tap.
    shift: usize,
    /// Offset of this plane's messages in the flat `cb` array.
    cb_offset: usize,
}

/// Normalized min-sum with a block-layered (circulant-aware) schedule.
///
/// Check updates are Gauss–Seidel *across* block rows — a-posteriori
/// values refresh between layers, like the serial schedule — and Jacobi
/// *within* a block row: all `L` checks of a layer see the a-posteriori
/// values from the start of the layer. (Bit-exact agreement with the
/// fully serial [`LayeredMinSumDecoder`](crate::LayeredMinSumDecoder) is
/// impossible for weight-2 circulants, where two checks of one layer
/// share a bit; the schedules coincide exactly when every block column
/// of every layer has weight ≤ 1.) Because two taps of one block column
/// *do* land on the same bit within a layer, the a-posteriori writeback
/// is a delta update (`app += new − old`), never an overwrite.
///
/// Requires the code to expose its quasi-cyclic structure via
/// [`LdpcCode::qc_structure`].
///
/// # Example
///
/// ```
/// use ldpc_core::codes::small::demo_code;
/// use ldpc_core::{QcLayeredDecoder};
///
/// let code = demo_code();
/// let mut dec = QcLayeredDecoder::new(code.clone(), 4.0 / 3.0);
/// let out = dec.decode(&vec![3.0; code.n()], 10);
/// assert!(out.converged);
/// ```
pub struct QcLayeredDecoder {
    code: Arc<LdpcCode>,
    alpha: f32,
    /// Circulant dimension `L` (checks per layer).
    l: usize,
    /// Planes of each layer, in block-column-then-tap order.
    layers: Vec<Vec<Plane>>,
    /// Stored check→bit messages, one `L`-lane block per plane.
    cb: Vec<f32>,
    /// Scratch bit→check messages of the layer in flight, per plane.
    m: Vec<f32>,
    /// Per-lane two-minimum state of the layer in flight.
    min1: Vec<f32>,
    min2: Vec<f32>,
    /// Per-lane running sign product (as f32 sign bits).
    signs: Vec<u32>,
    /// A-posteriori LLR of each bit.
    app: Vec<f32>,
    hard: Vec<u8>,
    early_stop: bool,
}

impl QcLayeredDecoder {
    /// Creates a block-layered decoder with normalization factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 1.0` or the code has no quasi-cyclic structure
    /// (see [`try_new`](Self::try_new) for the fallible form).
    pub fn new(code: Arc<LdpcCode>, alpha: f32) -> Self {
        Self::try_new(code, alpha).expect(
            "qc-layered needs a quasi-cyclic code: LdpcCode::qc_structure() returned None \
             (shortened and punctured matrices lose the block-circulant form)",
        )
    }

    /// Creates a block-layered decoder, or `None` if the code's
    /// parity-check matrix has no quasi-cyclic block structure.
    ///
    /// # Panics
    ///
    /// Panics if `alpha < 1.0`.
    pub fn try_new(code: Arc<LdpcCode>, alpha: f32) -> Option<Self> {
        assert!(alpha >= 1.0, "normalization factor must be >= 1");
        let spec = code.qc_structure()?.clone();
        let l = spec.circulant_size();
        let mut layers = Vec::with_capacity(spec.block_rows());
        let mut cb_offset = 0;
        let mut max_planes = 0;
        for br in 0..spec.block_rows() {
            let mut planes = Vec::new();
            for bc in 0..spec.block_cols() {
                for &p in spec.block(br, bc).first_row() {
                    planes.push(Plane {
                        base: bc * l,
                        shift: p as usize,
                        cb_offset,
                    });
                    cb_offset += l;
                }
            }
            max_planes = max_planes.max(planes.len());
            layers.push(planes);
        }
        let n = code.n();
        Some(Self {
            code,
            alpha,
            l,
            layers,
            cb: vec![0.0; cb_offset],
            m: vec![0.0; max_planes * l],
            min1: vec![0.0; l],
            min2: vec![0.0; l],
            signs: vec![0; l],
            app: vec![0.0; n],
            hard: vec![0; n],
            early_stop: true,
        })
    }

    /// Disables or enables early termination.
    pub fn with_early_stop(mut self, early_stop: bool) -> Self {
        self.early_stop = early_stop;
        self
    }

    /// The normalization factor α.
    pub fn alpha(&self) -> f32 {
        self.alpha
    }

    /// Decodes one frame of channel LLRs — the per-frame form of
    /// [`BlockDecoder::decode_block`].
    ///
    /// # Panics
    ///
    /// Panics if `channel_llrs.len()` differs from the code length.
    pub fn decode(&mut self, channel_llrs: &[f32], max_iterations: u32) -> DecodeResult {
        let graph = self.code.graph();
        assert_eq!(
            channel_llrs.len(),
            graph.n_bits(),
            "channel LLR length mismatch"
        );
        self.app.copy_from_slice(channel_llrs);
        self.cb.iter_mut().for_each(|m| *m = 0.0);
        let l = self.l;
        let inv_alpha = 1.0 / self.alpha;
        let mut iterations = 0;
        let mut converged =
            max_iterations == 0 && sign_decision(graph, channel_llrs, &mut self.hard);
        for _ in 0..max_iterations {
            for planes in &self.layers {
                self.min1.iter_mut().for_each(|x| *x = f32::INFINITY);
                self.min2.iter_mut().for_each(|x| *x = f32::INFINITY);
                self.signs.iter_mut().for_each(|s| *s = 0);
                // Pass A: reconstruct bit→check messages (APP minus stored
                // cb) plane by plane, folding each into the lane-parallel
                // two-minimum / sign-product state. The rotate-indexed
                // gather is two contiguous zips, split at the wraparound.
                for (k, plane) in planes.iter().enumerate() {
                    let split = l - plane.shift;
                    let app_blk = &self.app[plane.base..plane.base + l];
                    let cb_plane = &self.cb[plane.cb_offset..plane.cb_offset + l];
                    let m_plane = &mut self.m[k * l..(k + 1) * l];
                    for seg in 0..2 {
                        let (lanes, cols) = if seg == 0 {
                            (0..split, plane.shift..l)
                        } else {
                            (split..l, 0..plane.shift)
                        };
                        let mins = self.min1[lanes.clone()]
                            .iter_mut()
                            .zip(&mut self.min2[lanes.clone()])
                            .zip(&mut self.signs[lanes.clone()]);
                        for (((m, &a), &c), ((m1, m2), s)) in m_plane[lanes.clone()]
                            .iter_mut()
                            .zip(&app_blk[cols])
                            .zip(&cb_plane[lanes])
                            .zip(mins)
                        {
                            let x = a - c;
                            *m = x;
                            let mag = x.abs();
                            *s ^= x.to_bits() & SIGN_MASK;
                            *m2 = m2.min(mag.max(*m1));
                            *m1 = m1.min(mag);
                        }
                    }
                }
                // Pass B: per plane, select the extrinsic minimum (the
                // runner-up where this plane holds the minimum — value
                // equality is exact because min1 came from these very
                // magnitudes), normalize, apply the product sign minus
                // this plane's own sign, and delta-update APP.
                for (k, plane) in planes.iter().enumerate() {
                    let split = l - plane.shift;
                    let app_blk = &mut self.app[plane.base..plane.base + l];
                    let cb_plane = &mut self.cb[plane.cb_offset..plane.cb_offset + l];
                    let m_plane = &self.m[k * l..(k + 1) * l];
                    for seg in 0..2 {
                        let (lanes, cols) = if seg == 0 {
                            (0..split, plane.shift..l)
                        } else {
                            (split..l, 0..plane.shift)
                        };
                        let mins = self.min1[lanes.clone()]
                            .iter()
                            .zip(&self.min2[lanes.clone()])
                            .zip(&self.signs[lanes.clone()]);
                        for (((&x, c), a), ((&m1, &m2), &s)) in m_plane[lanes.clone()]
                            .iter()
                            .zip(&mut cb_plane[lanes])
                            .zip(&mut app_blk[cols])
                            .zip(mins)
                        {
                            let mag = x.abs();
                            let sel = if mag == m1 { m2 } else { m1 };
                            let sign = (s ^ x.to_bits()) & SIGN_MASK;
                            let new_cb = f32::from_bits((sel * inv_alpha).to_bits() | sign);
                            *a += new_cb - *c;
                            *c = new_cb;
                        }
                    }
                }
            }
            for n in 0..graph.n_bits() {
                self.hard[n] = u8::from(self.app[n] < 0.0);
            }
            iterations += 1;
            if graph.syndrome_ok(&self.hard) {
                converged = true;
                if self.early_stop {
                    break;
                }
            } else {
                converged = false;
            }
        }
        DecodeResult {
            hard_decision: BitVec::from_bits(&self.hard),
            iterations,
            converged,
        }
    }
}

impl BlockDecoder for QcLayeredDecoder {
    fn decode_block(&mut self, llrs: &[f32], max_iterations: u32) -> Vec<DecodeResult> {
        runs(llrs, self.n(), 1)
            .map(|frame| self.decode(frame, max_iterations))
            .collect()
    }

    fn n(&self) -> usize {
        self.code.n()
    }

    fn name(&self) -> String {
        format!("qc block-layered normalized min-sum (alpha={})", self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codes::small::{demo_code, random_c2_like};
    use crate::LayeredMinSumDecoder;
    use gf2::SparseMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn converges_on_clean_frames() {
        let code = demo_code();
        let mut dec = QcLayeredDecoder::new(code.clone(), 4.0 / 3.0);
        let out = dec.decode(&vec![5.0; code.n()], 10);
        assert!(out.converged);
        assert_eq!(out.iterations, 1);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn success_implies_valid_codeword_under_noise() {
        let code = random_c2_like(17, 31, 8);
        let mut dec = QcLayeredDecoder::new(code.clone(), 4.0 / 3.0);
        let mut rng = StdRng::seed_from_u64(33);
        let mut successes = 0;
        for _ in 0..40 {
            let mut llrs: Vec<f32> = (0..code.n())
                .map(|_| 2.5 + rng.gen_range(-0.8f32..0.8))
                .collect();
            for _ in 0..6 {
                llrs[rng.gen_range(0..code.n())] = -2.0;
            }
            let out = dec.decode(&llrs, 30);
            if out.converged {
                successes += 1;
                assert!(code.is_codeword(&out.hard_decision));
            }
        }
        assert!(successes >= 20, "only {successes}/40 frames decoded");
    }

    #[test]
    fn matches_serial_layered_on_decodable_frames() {
        // The schedules differ (Jacobi within a layer vs fully serial),
        // so LLR trajectories diverge — but on clearly decodable frames
        // both land on the same codeword.
        let code = demo_code();
        let mut qc = QcLayeredDecoder::new(code.clone(), 4.0 / 3.0);
        let mut serial = LayeredMinSumDecoder::new(code.clone(), 4.0 / 3.0);
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..30 {
            let mut llrs: Vec<f32> = (0..code.n())
                .map(|_| 3.0 + rng.gen_range(-0.5f32..0.5))
                .collect();
            for _ in 0..4 {
                llrs[rng.gen_range(0..code.n())] = -1.5;
            }
            let a = qc.decode(&llrs, 30);
            let b = serial.decode(&llrs, 30);
            assert!(a.converged && b.converged, "frame should be decodable");
            assert_eq!(a.hard_decision, b.hard_decision);
        }
    }

    #[test]
    fn state_resets_between_frames() {
        let code = demo_code();
        let mut dec = QcLayeredDecoder::new(code.clone(), 1.25);
        let mut rng = StdRng::seed_from_u64(35);
        let noisy: Vec<f32> = (0..code.n()).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let _ = dec.decode(&noisy, 5);
        let out = dec.decode(&vec![5.0; code.n()], 5);
        assert!(out.converged);
        assert!(out.hard_decision.is_zero());
    }

    #[test]
    fn rejects_codes_without_qc_structure() {
        // Row 1 is not the +1 cyclic shift of row 0, so no L works.
        let h = SparseMatrix::from_rows(3, vec![vec![0, 1], vec![0, 2], vec![1, 2]]);
        let code = LdpcCode::from_parity_check("unstructured", h).unwrap();
        assert!(QcLayeredDecoder::try_new(code, 4.0 / 3.0).is_none());
    }

    #[test]
    #[should_panic(expected = ">= 1")]
    fn rejects_alpha_below_one() {
        QcLayeredDecoder::new(demo_code(), 0.9);
    }
}

//! Adaptive, resumable sweep orchestration — the scale-out door of the
//! Monte-Carlo engine (ROADMAP item "sweep orchestration at scale").
//!
//! Publication-depth waterfall curves (the paper's Fig. 4 at BER 1e-7)
//! need ~1e7 frames per point at high SNR but only thousands at low SNR.
//! Running every grid point to a fixed frame budget wastes work on the
//! easy points and starves the hard ones; running points one after
//! another lets a single slow point serialize the grid. This module
//! fixes both, and makes the whole computation incremental:
//!
//! * **Work stealing across points.** [`run_sweep`] decomposes every
//!   (scenario, Eb/N0) unit into fixed-size *chunks* and schedules
//!   chunks — not points — over the worker pool, so workers drain the
//!   whole grid together and a slow high-SNR point keeps every core
//!   busy instead of idle.
//! * **Adaptive stopping.** Each point runs until it has accumulated
//!   [`SweepConfig::target_frame_errors`] frame errors (standard
//!   Monte-Carlo practice: the relative error of a PER estimate depends
//!   on the *error count*, not the frame count) or until the frame cap,
//!   whichever comes first. Wilson confidence intervals on the merged
//!   counts come from [`PointResult::per_confidence`].
//! * **Content-addressed resume.** Every finished chunk is written to an
//!   on-disk cache keyed by the SHA-256 of its full identity (canonical
//!   scenario string, Eb/N0, seed, frame budget, iteration budget — see
//!   [`chunk_key`]). A re-run with a warm cache adopts the cached chunks
//!   and simulates nothing; a run with a *larger* budget or a different
//!   error target re-uses every chunk it can and simulates only the
//!   extension.
//!
//! # Determinism
//!
//! Chunk `c` of a unit seeded `s` is one engine run — one worker on one
//! pool thread — seeded `s + c · WORKER_SEED_STRIDE`, so chunk 0 is
//! bit-identical to a plain
//! [`run_point_scenario_with`](crate::run_point_scenario_with) run of the
//! chunk budget at seed `s`. A point stops at the shortest chunk
//! *prefix* whose cumulative frame errors reach the target, and its
//! merged [`PointResult`] sums exactly that prefix — so the merged
//! counts are **invariant under the worker-thread count and under
//! cold/warm/resumed execution** (pinned by tests). Speculative chunks beyond the stop prefix are bounded by
//! the in-flight window (one chunk per worker) and are cached for
//! future resumes rather than discarded.
//!
//! This pool is the only parallelism in the crate: the single-point
//! doors run one worker on the caller's thread. A chunk that panics (a
//! noise level the channel rejects, say) fails the sweep with
//! [`SweepError::Panic`] instead of leaving the other workers waiting.
//!
//! # Example
//!
//! ```
//! use ldpc_sim::{run_sweep, sweep_grid, Scenario, SweepConfig};
//!
//! let scenario = Scenario::parse("demo / awgn / nms:1.25")?;
//! let units = sweep_grid(&[scenario], &[4.0], 0xC11);
//! let cfg = SweepConfig {
//!     max_frames: 100,
//!     target_frame_errors: 10,
//!     chunk_frames: 50,
//!     ..SweepConfig::default()
//! };
//! let results = run_sweep(&units, &cfg).unwrap();
//! assert_eq!(results.len(), 1);
//! assert!(results[0].point.frames > 0);
//! # Ok::<(), ldpc_sim::ScenarioError>(())
//! ```

use crate::{
    run_point_scenario_with, MonteCarloConfig, PointResult, Scenario, ScenarioError, Transmission,
    WORKER_SEED_STRIDE,
};
use ldpc_core::CodeHandle;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

// ---------------------------------------------------------------------------
// SHA-256 (the cache's content address; no external crates in this tree)
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const SHA256_K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// SHA-256 digest of `data`, as 64 lowercase hex characters.
///
/// This is the cache's content-address function (FIPS 180-4,
/// hand-rolled because the workspace vendors no hashing crate), exposed
/// so external tooling — the CI resume smoke test, plotting scripts —
/// can locate or verify chunk files without re-deriving the algorithm.
///
/// ```
/// assert_eq!(
///     ldpc_sim::sha256_hex(b"abc"),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256_hex(data: &[u8]) -> String {
    use fmt::Write;
    let mut out = String::with_capacity(64);
    for byte in sha256(data) {
        let _ = write!(out, "{byte:02x}");
    }
    out
}

fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h: [u32; 8] = [
        0x6a09_e667,
        0xbb67_ae85,
        0x3c6e_f372,
        0xa54f_f53a,
        0x510e_527f,
        0x9b05_688c,
        0x1f83_d9ab,
        0x5be0_cd19,
    ];
    let mut msg = data.to_vec();
    let bit_len = (data.len() as u64).wrapping_mul(8);
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in msg.chunks_exact(64) {
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(SHA256_K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (state, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(v);
        }
    }

    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(h) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    out
}

// ---------------------------------------------------------------------------
// Chunk cache
// ---------------------------------------------------------------------------

/// Raw additive counts of one finished chunk — the unit of caching and
/// merging. A chunk is one engine run of a fixed frame budget with no
/// early stopping, so its counts are a pure function of its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ChunkCounts {
    frames: u64,
    bit_errors: u64,
    frame_errors: u64,
    undetected_frame_errors: u64,
    total_iterations: u64,
    info_bits_per_frame: u64,
}

impl ChunkCounts {
    fn from_point(point: &PointResult) -> Self {
        Self {
            frames: point.frames,
            bit_errors: point.bit_errors,
            frame_errors: point.frame_errors,
            undetected_frame_errors: point.undetected_frame_errors,
            total_iterations: point.total_iterations,
            info_bits_per_frame: point.info_bits_per_frame,
        }
    }

    fn render(&self) -> String {
        format!(
            "frames={}\nbit_errors={}\nframe_errors={}\nundetected_frame_errors={}\n\
             total_iterations={}\ninfo_bits_per_frame={}\n",
            self.frames,
            self.bit_errors,
            self.frame_errors,
            self.undetected_frame_errors,
            self.total_iterations,
            self.info_bits_per_frame
        )
    }

    fn parse(text: &str) -> Option<Self> {
        let mut counts = Self {
            frames: 0,
            bit_errors: 0,
            frame_errors: 0,
            undetected_frame_errors: 0,
            total_iterations: 0,
            info_bits_per_frame: 0,
        };
        let mut seen = 0u32;
        for line in text.lines() {
            let (key, value) = line.split_once('=')?;
            let value: u64 = value.parse().ok()?;
            let field = match key {
                "frames" => &mut counts.frames,
                "bit_errors" => &mut counts.bit_errors,
                "frame_errors" => &mut counts.frame_errors,
                "undetected_frame_errors" => &mut counts.undetected_frame_errors,
                "total_iterations" => &mut counts.total_iterations,
                "info_bits_per_frame" => &mut counts.info_bits_per_frame,
                _ => return None,
            };
            *field = value;
            seen += 1;
        }
        (seen == 6).then_some(counts)
    }
}

/// Separator between the embedded key and the counts in a chunk file.
const CHUNK_SEPARATOR: &str = "----\n";

/// The canonical, versioned identity of one chunk — the preimage of its
/// cache address.
///
/// Everything that determines the chunk's counts is in the key: the
/// canonical scenario string (specs render canonically, so `minsum` and
/// `ms` address the same chunks), the operating point (`{:?}` on `f64`
/// is the shortest round-trip form), the chunk's own engine seed, its
/// frame budget, and the decoder iteration budget. The version line
/// names the noise streams a seed expands to: `v2` is the ziggurat
/// Gaussian sampler, so chunks cached under `v1` (Box–Muller) are never
/// merged with new ones. The error *target* is deliberately absent:
/// chunks always run their full budget with no early stop, so the same
/// cache serves any target — adaptive stopping is applied between
/// chunks at merge time.
///
/// The chunk file stored at `sha256_hex(key).chunk` embeds this key and
/// is rejected on mismatch, so a (astronomically unlikely) hash
/// collision or a torn file degrades to a cache miss, never to wrong
/// counts.
pub fn chunk_key(
    scenario: &Scenario,
    ebn0_db: f64,
    seed: u64,
    frames: u64,
    max_iterations: u32,
) -> String {
    format!(
        "ldpc-sweep-chunk-v2\nscenario={scenario}\nebn0_db={ebn0_db:?}\nseed={seed}\n\
         frames={frames}\nmax_iterations={max_iterations}\ntransmission=all-zero\n"
    )
}

fn chunk_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{}.chunk", sha256_hex(key.as_bytes())))
}

/// Loads a chunk from the cache; any miss, parse failure, key mismatch,
/// or frame-count mismatch is a plain `None` (the chunk is re-simulated
/// and the file overwritten — corruption can cost work, never
/// correctness).
fn load_chunk(dir: &Path, key: &str, expect_frames: u64) -> Option<ChunkCounts> {
    let text = fs::read_to_string(chunk_path(dir, key)).ok()?;
    let (stored_key, body) = text.split_once(CHUNK_SEPARATOR)?;
    if stored_key != key.strip_suffix('\n').unwrap_or(key) {
        return None;
    }
    let counts = ChunkCounts::parse(body)?;
    (counts.frames == expect_frames).then_some(counts)
}

/// Distinguishes concurrent writers' temporary files within one process.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Persists a finished chunk: write-to-temp + rename, so a reader never
/// observes a torn file and concurrent sweeps over the same cache
/// directory last-write-win identical content.
fn store_chunk(dir: &Path, key: &str, counts: &ChunkCounts) -> Result<(), SweepError> {
    let cache_err = |path: &Path, e: std::io::Error| SweepError::Cache {
        path: path.to_path_buf(),
        message: e.to_string(),
    };
    fs::create_dir_all(dir).map_err(|e| cache_err(dir, e))?;
    let path = chunk_path(dir, key);
    let tmp = dir.join(format!(
        "{}.tmp-{}-{}",
        sha256_hex(key.as_bytes()),
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let body = format!(
        "{}{CHUNK_SEPARATOR}{}",
        key.strip_suffix('\n').unwrap_or(key),
        counts.render()
    );
    fs::write(&tmp, body).map_err(|e| cache_err(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| cache_err(&path, e))
}

// ---------------------------------------------------------------------------
// Public sweep types
// ---------------------------------------------------------------------------

/// One work unit of a sweep: a scenario at one operating point with its
/// own base seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnit {
    /// The experiment (code / channel / decoder).
    pub scenario: Scenario,
    /// Operating point in dB.
    pub ebn0_db: f64,
    /// Base seed of this point; chunk `c` derives its engine seed as
    /// `seed + c · WORKER_SEED_STRIDE`.
    pub seed: u64,
}

impl SweepUnit {
    fn chunk_seed(&self, chunk_index: usize) -> u64 {
        self.seed
            .wrapping_add(WORKER_SEED_STRIDE.wrapping_mul(chunk_index as u64))
    }
}

/// Seed offset between consecutive Eb/N0 points of a grid: point `i` is
/// seeded `base_seed + i · CURVE_SEED_STRIDE`.
const CURVE_SEED_STRIDE: u64 = 0x5151_5151;

/// Expands scenarios × Eb/N0 points into [`SweepUnit`]s with the
/// workspace's standard seed derivation: point `i` of every scenario is
/// seeded `base_seed + i · 0x5151_5151`. A sweep at
/// `target_frame_errors: 0` with a whole-budget chunk is therefore a
/// curve: point `i` equals a
/// [`run_point_scenario_with`](crate::run_point_scenario_with) run at
/// that seed, bit for bit (pinned by tests). Unit order is
/// scenario-major with Eb/N0 innermost, matching `ldpc-tool sweep`'s CSV
/// row order.
pub fn sweep_grid(scenarios: &[Scenario], ebn0_points: &[f64], base_seed: u64) -> Vec<SweepUnit> {
    let mut units = Vec::with_capacity(scenarios.len() * ebn0_points.len());
    for scenario in scenarios {
        for (i, &ebn0_db) in ebn0_points.iter().enumerate() {
            units.push(SweepUnit {
                scenario: scenario.clone(),
                ebn0_db,
                seed: base_seed.wrapping_add(i as u64 * CURVE_SEED_STRIDE),
            });
        }
    }
    units
}

/// Configuration of one orchestrated sweep (applies to every unit).
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Frame cap per point, rounded **up** to a whole number of chunks
    /// (see [`SweepUnitResult::effective_max_frames`]) so resumed and
    /// cold runs decompose identically.
    pub max_frames: u64,
    /// Stop a point once its merged chunk prefix has this many frame
    /// errors (0 = run every point to the cap).
    pub target_frame_errors: u64,
    /// Frames per chunk — the scheduling and caching quantum. Clamped
    /// to `1..=max_frames`. Smaller chunks stop more precisely and
    /// parallelize better; larger chunks amortize per-chunk setup.
    pub chunk_frames: u64,
    /// Decoder iteration budget per frame (part of the cache key).
    pub max_iterations: u32,
    /// Worker threads (0 = available parallelism). Merged counts do not
    /// depend on this; only wall time and speculative overshoot do.
    pub threads: usize,
    /// Chunk cache directory (`None` disables caching and resume).
    pub cache_dir: Option<PathBuf>,
    /// Optional live gauge: incremented by every frame the sweep
    /// accounts for — a chunk's frames when the chunk finishes, cached
    /// frames at adoption time — for progress reporting from another
    /// thread.
    pub progress_frames: Option<Arc<AtomicU64>>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        Self {
            max_frames: 10_000,
            target_frame_errors: 100,
            chunk_frames: 1_000,
            max_iterations: 18,
            threads: 0,
            cache_dir: None,
            progress_frames: None,
        }
    }
}

/// The outcome of one [`SweepUnit`]: merged statistics plus the
/// accounting that makes resume auditable.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepUnitResult {
    /// The experiment this point belongs to.
    pub scenario: Scenario,
    /// Operating point in dB.
    pub ebn0_db: f64,
    /// Merged counts of the stop prefix — invariant under thread count
    /// and cold/warm/resumed execution.
    pub point: PointResult,
    /// Frames actually simulated by this run (0 on a fully warm cache).
    pub frames_simulated: u64,
    /// Frames adopted from the cache instead of simulated.
    pub frames_from_cache: u64,
    /// Chunks merged into `point` (the stop prefix length).
    pub chunks_merged: u64,
    /// The cap after rounding up to whole chunks.
    pub effective_max_frames: u64,
    /// `true` if the point stopped on reaching the frame-error target,
    /// `false` if it exhausted `effective_max_frames`.
    pub hit_target: bool,
}

/// Error produced by [`run_sweep`].
#[derive(Debug)]
pub enum SweepError {
    /// A unit's code spec failed to build.
    Code(ScenarioError),
    /// The chunk cache could not be written.
    Cache {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying I/O error.
        message: String,
    },
    /// A chunk panicked, e.g. on a noise level the channel rejects.
    Panic {
        /// The chunk: `<scenario> at <Eb/N0> dB, chunk <c>`.
        unit: String,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Code(e) => write!(f, "building a sweep unit's code: {e}"),
            Self::Cache { path, message } => {
                write!(f, "writing sweep cache entry {}: {message}", path.display())
            }
            Self::Panic { unit, message } => write!(f, "sweep unit {unit} panicked: {message}"),
        }
    }
}

impl std::error::Error for SweepError {}

// ---------------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------------

/// Stop decision of one point: how many prefix chunks are merged, and
/// whether the error target (rather than the cap) ended it.
#[derive(Debug, Clone, Copy)]
struct Stop {
    chunks: usize,
    hit_target: bool,
}

/// Per-point scheduling state. Chunks complete in any order; the merge
/// prefix only ever advances over contiguous completed chunks from 0,
/// and the stop rule is evaluated on that prefix alone — which is what
/// makes the merged result independent of scheduling.
struct PointState {
    n_chunks: usize,
    /// Next chunk index not yet handed to a worker.
    next: usize,
    completed: Vec<Option<ChunkCounts>>,
    /// Contiguous completed chunks from 0 already counted into the
    /// prefix error tally.
    prefix_len: usize,
    prefix_errors: u64,
    stop: Option<Stop>,
    frames_simulated: u64,
    frames_from_cache: u64,
}

impl PointState {
    fn new(n_chunks: usize) -> Self {
        Self {
            n_chunks,
            next: 0,
            completed: vec![None; n_chunks],
            prefix_len: 0,
            prefix_errors: 0,
            stop: None,
            frames_simulated: 0,
            frames_from_cache: 0,
        }
    }

    /// Advances the merge prefix over newly contiguous chunks and
    /// applies the stop rule.
    fn advance(&mut self, target_frame_errors: u64) {
        while self.stop.is_none() {
            let Some(Some(counts)) = self.completed.get(self.prefix_len) else {
                break;
            };
            self.prefix_errors += counts.frame_errors;
            self.prefix_len += 1;
            if target_frame_errors > 0 && self.prefix_errors >= target_frame_errors {
                self.stop = Some(Stop {
                    chunks: self.prefix_len,
                    hit_target: true,
                });
            } else if self.prefix_len == self.n_chunks {
                self.stop = Some(Stop {
                    chunks: self.n_chunks,
                    hit_target: false,
                });
            }
        }
    }
}

struct Sched {
    points: Vec<PointState>,
    /// Points whose stop rule has not fired yet.
    unresolved: usize,
    error: Option<SweepError>,
}

impl Sched {
    /// Hands out the lowest unscheduled chunk of the first point that
    /// can still make progress. The per-point speculation window
    /// (`prefix_len + window`) bounds wasted work past an undecided
    /// stop rule to one chunk per worker; when a point's window is
    /// full, workers flow to the next point — work stealing across the
    /// grid.
    fn take_job(&mut self, window: usize) -> Option<(usize, usize)> {
        for (p, point) in self.points.iter_mut().enumerate() {
            if point.stop.is_none()
                && point.next < point.n_chunks
                && point.next < point.prefix_len + window
            {
                let c = point.next;
                point.next += 1;
                return Some((p, c));
            }
        }
        None
    }
}

/// The message of a caught panic: the `&str` or `String` payload that
/// `panic!` and `assert!` carry.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Builds (or reuses) the code handle of a scenario. Handles are shared
/// across every unit of the sweep by canonical code spec, so each code
/// is constructed exactly once — and never at all when the cache fully
/// resolves every unit that needs it.
fn code_handle(
    handles: &Mutex<HashMap<String, Arc<dyn CodeHandle>>>,
    scenario: &Scenario,
) -> Result<Arc<dyn CodeHandle>, SweepError> {
    let key = scenario.code.to_string();
    let mut map = handles.lock().unwrap();
    if let Some(handle) = map.get(&key) {
        return Ok(Arc::clone(handle));
    }
    let handle = scenario.build_code().map_err(SweepError::Code)?;
    map.insert(key, Arc::clone(&handle));
    Ok(handle)
}

/// Runs a sweep: every unit chunked, scheduled across the worker pool,
/// stopped adaptively, and (with a cache directory) resumable.
///
/// DESIGN.md §7 records the scheduling and determinism contract.
/// Returns one [`SweepUnitResult`] per unit, in unit order.
///
/// # Errors
///
/// [`SweepError::Code`] if a unit's code spec cannot be built;
/// [`SweepError::Cache`] if a finished chunk cannot be persisted;
/// [`SweepError::Panic`] if a chunk panics (for example on an Eb/N0 that
/// gives no finite noise level) — the other workers finish their chunks
/// and stop. Cache *read* problems are never errors — unreadable or
/// corrupt entries are re-simulated.
///
/// # Panics
///
/// Panics if `cfg.max_frames == 0`.
pub fn run_sweep(
    units: &[SweepUnit],
    cfg: &SweepConfig,
) -> Result<Vec<SweepUnitResult>, SweepError> {
    assert!(cfg.max_frames > 0, "max_frames must be positive");
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        cfg.threads
    };
    let chunk = cfg.chunk_frames.clamp(1, cfg.max_frames);
    let n_chunks = usize::try_from(cfg.max_frames.div_ceil(chunk)).expect("chunk count fits usize");
    let progress = cfg.progress_frames.as_deref();

    // Phase 1: adopt each unit's contiguous cached prefix serially. A
    // fully warm cache resolves every point here — no worker threads,
    // no code construction, no simulation.
    let mut points = Vec::with_capacity(units.len());
    for unit in units {
        let mut state = PointState::new(n_chunks);
        if let Some(dir) = &cfg.cache_dir {
            while state.stop.is_none() && state.prefix_len < n_chunks {
                let c = state.prefix_len;
                let key = chunk_key(
                    &unit.scenario,
                    unit.ebn0_db,
                    unit.chunk_seed(c),
                    chunk,
                    cfg.max_iterations,
                );
                let Some(counts) = load_chunk(dir, &key, chunk) else {
                    break;
                };
                state.frames_from_cache += counts.frames;
                if let Some(progress) = progress {
                    progress.fetch_add(counts.frames, Ordering::Relaxed);
                }
                state.completed[c] = Some(counts);
                state.advance(cfg.target_frame_errors);
            }
            state.next = state.prefix_len;
        }
        points.push(state);
    }

    let unresolved = points.iter().filter(|p| p.stop.is_none()).count();
    let sched = Mutex::new(Sched {
        points,
        unresolved,
        error: None,
    });
    let work_cv = Condvar::new();
    let handles: Mutex<HashMap<String, Arc<dyn CodeHandle>>> = Mutex::new(HashMap::new());

    // Phase 2: the worker pool drains chunks until every point's stop
    // rule has fired (or an error aborts the sweep).
    if unresolved > 0 {
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| loop {
                    let (p, c) = {
                        let mut st = sched.lock().unwrap();
                        loop {
                            if st.error.is_some() || st.unresolved == 0 {
                                return;
                            }
                            if let Some(job) = st.take_job(threads) {
                                break job;
                            }
                            st = work_cv.wait(st).unwrap();
                        }
                    };
                    let unit = &units[p];
                    let key = chunk_key(
                        &unit.scenario,
                        unit.ebn0_db,
                        unit.chunk_seed(c),
                        chunk,
                        cfg.max_iterations,
                    );
                    let mut from_cache = false;
                    // A panicking chunk must fail the sweep, not leave the
                    // other workers waiting on the Condvar for it.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        if let Some(dir) = &cfg.cache_dir {
                            // Beyond-prefix chunks cached by an earlier
                            // speculative run are found here, after the
                            // serial preload stopped at its first miss.
                            if let Some(counts) = load_chunk(dir, &key, chunk) {
                                from_cache = true;
                                return Ok(counts);
                            }
                        }
                        let handle = code_handle(&handles, &unit.scenario)?;
                        let mc = MonteCarloConfig {
                            ebn0_db: unit.ebn0_db,
                            max_frames: chunk,
                            target_frame_errors: 0,
                            max_iterations: cfg.max_iterations,
                            seed: unit.chunk_seed(c),
                            threads: 1,
                            transmission: Transmission::AllZero,
                        };
                        let point = run_point_scenario_with(&handle, &unit.scenario, &mc);
                        let counts = ChunkCounts::from_point(&point);
                        if let Some(dir) = &cfg.cache_dir {
                            store_chunk(dir, &key, &counts)?;
                        }
                        Ok(counts)
                    }))
                    .unwrap_or_else(|payload| {
                        Err(SweepError::Panic {
                            unit: format!("{} at {} dB, chunk {c}", unit.scenario, unit.ebn0_db),
                            message: panic_message(payload.as_ref()),
                        })
                    });
                    let mut st = sched.lock().unwrap();
                    match outcome {
                        Ok(counts) => {
                            if let Some(progress) = progress {
                                progress.fetch_add(counts.frames, Ordering::Relaxed);
                            }
                            let point = &mut st.points[p];
                            if from_cache {
                                point.frames_from_cache += counts.frames;
                            } else {
                                point.frames_simulated += counts.frames;
                            }
                            point.completed[c] = Some(counts);
                            let was_resolved = point.stop.is_some();
                            point.advance(cfg.target_frame_errors);
                            if !was_resolved && point.stop.is_some() {
                                st.unresolved -= 1;
                            }
                        }
                        Err(e) => {
                            st.error.get_or_insert(e);
                        }
                    }
                    work_cv.notify_all();
                });
            }
        });
    }

    let sched = sched.into_inner().unwrap();
    if let Some(e) = sched.error {
        return Err(e);
    }

    Ok(units
        .iter()
        .zip(sched.points)
        .map(|(unit, state)| {
            let stop = state.stop.expect("every point resolved");
            let mut point = PointResult {
                ebn0_db: unit.ebn0_db,
                frames: 0,
                bit_errors: 0,
                frame_errors: 0,
                undetected_frame_errors: 0,
                total_iterations: 0,
                info_bits_per_frame: 0,
            };
            for counts in state.completed[..stop.chunks]
                .iter()
                .map(|c| c.expect("merged prefix is complete"))
            {
                debug_assert!(
                    point.frames == 0 || point.info_bits_per_frame == counts.info_bits_per_frame,
                    "chunks of one unit must count the same positions"
                );
                point.frames += counts.frames;
                point.bit_errors += counts.bit_errors;
                point.frame_errors += counts.frame_errors;
                point.undetected_frame_errors += counts.undetected_frame_errors;
                point.total_iterations += counts.total_iterations;
                point.info_bits_per_frame = counts.info_bits_per_frame;
            }
            SweepUnitResult {
                scenario: unit.scenario.clone(),
                ebn0_db: unit.ebn0_db,
                point,
                frames_simulated: state.frames_simulated,
                frames_from_cache: state.frames_from_cache,
                chunks_merged: stop.chunks as u64,
                effective_max_frames: n_chunks as u64 * chunk,
                hit_target: stop.hit_target,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_point_scenario_with;

    fn sc(s: &str) -> Scenario {
        Scenario::parse(s).unwrap()
    }

    fn quick_sweep_cfg() -> SweepConfig {
        SweepConfig {
            max_frames: 200,
            target_frame_errors: 0,
            chunk_frames: 200,
            max_iterations: 20,
            threads: 1,
            cache_dir: None,
            progress_frames: None,
        }
    }

    fn point_cfg(ebn0_db: f64, seed: u64, max_frames: u64) -> MonteCarloConfig {
        MonteCarloConfig {
            ebn0_db,
            max_frames,
            target_frame_errors: 0,
            max_iterations: 20,
            seed,
            threads: 1,
            transmission: Transmission::AllZero,
        }
    }

    fn temp_cache(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ldpc-sweep-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn sha256_matches_fips_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        // Two-block message (FIPS 180-4 example B.2).
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn chunk_cache_roundtrips_and_rejects_corruption() {
        let dir = temp_cache("roundtrip");
        let key = chunk_key(&sc("demo / awgn / nms:1.25"), 4.0, 42, 100, 20);
        let counts = ChunkCounts {
            frames: 100,
            bit_errors: 7,
            frame_errors: 3,
            undetected_frame_errors: 1,
            total_iterations: 250,
            info_bits_per_frame: 128,
        };
        assert_eq!(load_chunk(&dir, &key, 100), None, "cold cache is a miss");
        store_chunk(&dir, &key, &counts).unwrap();
        assert_eq!(load_chunk(&dir, &key, 100), Some(counts));
        // A frame-budget mismatch is a miss even with matching content.
        assert_eq!(load_chunk(&dir, &key, 200), None);
        // Truncation and key tampering degrade to misses, not bad counts.
        let path = chunk_path(&dir, &key);
        fs::write(&path, "garbage").unwrap();
        assert_eq!(load_chunk(&dir, &key, 100), None);
        let other = chunk_key(&sc("demo / awgn / nms:1.25"), 4.0, 43, 100, 20);
        let body = format!(
            "{}{CHUNK_SEPARATOR}{}",
            other.strip_suffix('\n').unwrap(),
            counts.render()
        );
        fs::write(&path, body).unwrap();
        assert_eq!(load_chunk(&dir, &key, 100), None, "embedded key must match");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn chunks_cached_under_the_v1_key_are_misses() {
        // A cache filled before the sampler change holds v1 chunks for
        // the same units: they must be re-simulated, never merged.
        let dir = temp_cache("v1");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[2.0], 31);
        let cfg = SweepConfig {
            max_frames: 100,
            chunk_frames: 50,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        let stale = ChunkCounts {
            frames: 50,
            bit_errors: 1,
            frame_errors: 1,
            undetected_frame_errors: 0,
            total_iterations: 50,
            info_bits_per_frame: 248,
        };
        for c in 0..2 {
            let key = chunk_key(&units[0].scenario, 2.0, units[0].chunk_seed(c), 50, 20);
            let v1 = key.replacen("ldpc-sweep-chunk-v2", "ldpc-sweep-chunk-v1", 1);
            assert_ne!(v1, key);
            store_chunk(&dir, &v1, &stale).unwrap();
        }
        let warm = &run_sweep(&units, &cfg).unwrap()[0];
        assert_eq!(warm.frames_from_cache, 0, "a v1 chunk was adopted");
        assert_eq!(warm.frames_simulated, 100);
        let cold = &run_sweep(
            &units,
            &SweepConfig {
                cache_dir: None,
                ..cfg
            },
        )
        .unwrap()[0];
        assert_eq!(warm.point, cold.point);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn whole_budget_chunk_matches_run_point_scenario_with_exactly() {
        // target 0 + one chunk per point ≡ a curve: each point equals one
        // single-threaded engine run at the unit's seed, bit for bit.
        let scenario = sc("demo / awgn / nms:1.25");
        let ebn0s = [2.0, 4.0];
        let units = sweep_grid(std::slice::from_ref(&scenario), &ebn0s, 99);
        assert_eq!(units[1].seed, 99u64.wrapping_add(CURVE_SEED_STRIDE));
        let results = run_sweep(&units, &quick_sweep_cfg()).unwrap();
        let handle = scenario.build_code().unwrap();
        assert_eq!(results.len(), 2);
        for (r, unit) in results.iter().zip(&units) {
            let expected = run_point_scenario_with(
                &handle,
                &scenario,
                &point_cfg(unit.ebn0_db, unit.seed, 200),
            );
            assert_eq!(r.point, expected);
            assert_eq!(r.frames_simulated, 200);
            assert_eq!(r.frames_from_cache, 0);
            assert_eq!(r.chunks_merged, 1);
            assert!(!r.hit_target);
        }
    }

    #[test]
    fn chunked_merge_is_the_exact_sum_of_chunk_runs() {
        let scenario = sc("demo / awgn / fixed");
        let units = sweep_grid(std::slice::from_ref(&scenario), &[3.0], 7);
        let cfg = SweepConfig {
            max_frames: 150,
            chunk_frames: 50,
            ..quick_sweep_cfg()
        };
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        let handle = scenario.build_code().unwrap();
        let mut expected = (0u64, 0u64, 0u64, 0u64);
        for c in 0..3 {
            let seed = 7u64.wrapping_add(WORKER_SEED_STRIDE.wrapping_mul(c));
            let p = run_point_scenario_with(&handle, &scenario, &point_cfg(3.0, seed, 50));
            expected.0 += p.frames;
            expected.1 += p.bit_errors;
            expected.2 += p.frame_errors;
            expected.3 += p.total_iterations;
        }
        assert_eq!(result.point.frames, expected.0);
        assert_eq!(result.point.bit_errors, expected.1);
        assert_eq!(result.point.frame_errors, expected.2);
        assert_eq!(result.point.total_iterations, expected.3);
        assert_eq!(result.chunks_merged, 3);
    }

    #[test]
    fn adaptive_stop_halts_at_the_first_satisfying_prefix() {
        // At -4 dB essentially every frame errors: the first chunk
        // already satisfies the target, so exactly one chunk is merged.
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[-4.0], 3);
        let cfg = SweepConfig {
            max_frames: 400,
            target_frame_errors: 5,
            chunk_frames: 40,
            ..quick_sweep_cfg()
        };
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        assert!(result.hit_target);
        assert_eq!(result.point.frames, 40);
        assert!(result.point.frame_errors >= 5);
        assert_eq!(result.chunks_merged, 1);
    }

    #[test]
    fn cap_rounds_up_to_whole_chunks() {
        let units = sweep_grid(&[sc("demo / awgn / fixed")], &[4.0], 1);
        let cfg = SweepConfig {
            max_frames: 250,
            chunk_frames: 100,
            ..quick_sweep_cfg()
        };
        let result = &run_sweep(&units, &cfg).unwrap()[0];
        assert_eq!(result.effective_max_frames, 300);
        assert_eq!(result.point.frames, 300);
        assert!(!result.hit_target);
    }

    #[test]
    fn warm_cache_rerun_simulates_nothing() {
        let dir = temp_cache("warm");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[2.0, 4.0], 5);
        let progress = Arc::new(AtomicU64::new(0));
        let cfg = SweepConfig {
            max_frames: 120,
            chunk_frames: 60,
            cache_dir: Some(dir.clone()),
            progress_frames: Some(Arc::clone(&progress)),
            ..quick_sweep_cfg()
        };
        let cold = run_sweep(&units, &cfg).unwrap();
        assert!(cold.iter().all(|r| r.frames_simulated == 120));
        assert_eq!(progress.load(Ordering::Relaxed), 240);
        let warm = run_sweep(&units, &cfg).unwrap();
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!(c.point, w.point);
            assert_eq!(w.frames_simulated, 0);
            assert_eq!(w.frames_from_cache, 120);
        }
        assert_eq!(progress.load(Ordering::Relaxed), 480);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_extends_budget_and_matches_cold_run_bit_for_bit() {
        let dir = temp_cache("resume");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[1.0], 21);
        let small = SweepConfig {
            max_frames: 100,
            chunk_frames: 50,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        let first = &run_sweep(&units, &small).unwrap()[0];
        assert_eq!(first.frames_simulated, 100);
        // Double the budget: only the extension is simulated…
        let big = SweepConfig {
            max_frames: 200,
            ..small.clone()
        };
        let resumed = &run_sweep(&units, &big).unwrap()[0];
        assert_eq!(resumed.frames_from_cache, 100);
        assert_eq!(resumed.frames_simulated, 100);
        // …and the merged counts equal a cold cacheless run of the
        // combined budget.
        let cold_cfg = SweepConfig {
            cache_dir: None,
            ..big
        };
        let cold = &run_sweep(&units, &cold_cfg).unwrap()[0];
        assert_eq!(resumed.point, cold.point);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cached_chunks_serve_any_error_target() {
        // The target is not part of the chunk key: chunks cached by a
        // capped run are reused verbatim by an adaptive run.
        let dir = temp_cache("targets");
        let units = sweep_grid(&[sc("demo / awgn / nms:1.25")], &[-2.0], 13);
        let full = SweepConfig {
            max_frames: 120,
            chunk_frames: 40,
            cache_dir: Some(dir.clone()),
            ..quick_sweep_cfg()
        };
        run_sweep(&units, &full).unwrap();
        let adaptive = SweepConfig {
            target_frame_errors: 3,
            ..full
        };
        let result = &run_sweep(&units, &adaptive).unwrap()[0];
        assert_eq!(result.frames_simulated, 0, "warm chunks cover the target");
        assert!(result.hit_target);
        assert_eq!(result.point.frames, 40);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn merged_point_is_thread_count_invariant() {
        // The prefix stop rule makes the merged counts a pure function
        // of the unit — speculative chunks never leak into the result.
        let units = sweep_grid(
            &[sc("demo / awgn / nms:1.25"), sc("demo / bsc:0.04 / fixed")],
            &[0.0, 2.0],
            17,
        );
        let cfg = SweepConfig {
            max_frames: 200,
            target_frame_errors: 3,
            chunk_frames: 40,
            ..quick_sweep_cfg()
        };
        let serial = run_sweep(&units, &cfg).unwrap();
        let parallel = run_sweep(&units, &SweepConfig { threads: 4, ..cfg }).unwrap();
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.point, b.point);
            assert_eq!(a.hit_target, b.hit_target);
            assert_eq!(a.chunks_merged, b.chunks_merged);
        }
    }

    #[test]
    fn panicking_chunk_fails_the_sweep_instead_of_hanging_it() {
        // One worker panics in the AWGN channel on the NaN point; the
        // other must be woken and stop, and the sweep must name the unit.
        let units = sweep_grid(&[sc("demo / awgn / fixed")], &[f64::NAN, 4.0], 3);
        let cfg = SweepConfig {
            max_frames: 40,
            chunk_frames: 40,
            threads: 2,
            ..quick_sweep_cfg()
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = std::thread::spawn(move || {
            let _ = tx.send(run_sweep(&units, &cfg).map(|r| r.len()));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_sweep hung on a panicking chunk");
        helper
            .join()
            .expect("the helper thread returns after sending");
        let err = outcome.unwrap_err();
        assert!(matches!(err, SweepError::Panic { .. }), "{err:?}");
        let text = err.to_string();
        assert!(
            text.contains("demo / awgn / fixed at NaN dB, chunk 0"),
            "{text}"
        );
        assert!(text.contains("sigma must be finite"), "{text}");
    }

    #[test]
    fn bad_code_spec_surfaces_as_an_error() {
        let units = sweep_grid(&[sc("shortened:demo,k=9999 / awgn / nms")], &[4.0], 1);
        let err = run_sweep(&units, &quick_sweep_cfg()).unwrap_err();
        assert!(err.to_string().contains("code"), "{err}");
    }
}

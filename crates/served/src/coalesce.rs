//! The adaptive frame coalescer: per-(code, decoder) queues that trade
//! a bounded wait for full packed words.
//!
//! Every decode request lands in the queue of its key — the canonical
//! `"<code> / <decoder>"` rendering of its scenario. The channel part,
//! if present, must parse under the full channel grammar (`awgn`,
//! `bsc:p`, `erasure:p`, `burst:…`, `@quant=B`, …) — an unknown channel
//! is rejected with that grammar's own actionable error — but a valid
//! channel does not enter the key: the server decodes what it is sent,
//! it does not simulate a channel. A pool
//! of worker threads watches the queues and dispatches a batch when
//! either
//!
//! * a queue holds a full word — `block_frames()` of the key's decoder:
//!   8 for `nms@batch=8` (and the other float min-sum batches), 64 for
//!   `@bitslice`, 1 for scalar specs and every `fixed` spec, whose
//!   aliases `@pack=8` and `@batch=N` decode one frame per word — or
//! * the oldest queued frame has waited the configured latency budget
//!   (`max_wait`), in which case a partial word ships (the engine's
//!   partial-block path is lane-exact against scalar decoding), or
//! * the server is draining for shutdown, in which case everything
//!   queued ships immediately.
//!
//! This is the software analogue of the paper's 8-frames-in-flight
//! datapath: a batched decode costs nearly the same wall clock whether 1
//! or 8 lanes carry real frames, so throughput scales with fill, and fill
//! comes from *independent* concurrent clients. One connection decoding
//! alone degrades gracefully to batch-of-1 at `max_wait` latency. A
//! one-frame word never waits: it is full when it arrives.
//!
//! Queues are bounded (`queue_frames` per key): when full, the enqueue
//! reports backpressure and the connection answers `BUSY` with a
//! retry-after hint instead of letting latency grow without bound.
//!
//! Decoder instances are *not* shared: [`BlockDecoder`] is stateful
//! workspace and not `Send`, so each worker lazily builds and caches
//! its own decoder per key, as each chunk of `ldpc_sim`'s sweep pool
//! builds its own.

use crate::metrics::Metrics;
use crate::protocol::{pack_bitvec, DecodedFrame};
use ldpc_core::{BlockDecoder, CodeHandle, DecoderSpec};
use ldpc_sim::{Scenario, ScenarioError};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One queued frame: its LLRs and the channel its reply travels back on.
struct Job {
    llrs: Vec<f32>,
    enqueued: Instant,
    reply: Sender<DecodedFrame>,
}

/// Per-key queue plus everything a worker needs to build the decoder.
struct KeyEntry {
    scenario: Scenario,
    handle: Arc<dyn CodeHandle>,
    /// Code length n — every frame of this key carries n LLRs.
    n: usize,
    /// Full word width: the decoder's preferred `block_frames()`.
    word: usize,
    queue: VecDeque<Job>,
}

struct State {
    keys: HashMap<String, KeyEntry>,
    shutting_down: bool,
}

/// A batch a worker has claimed: jobs plus the build recipe for the
/// worker-local decoder cache.
struct Batch {
    key: String,
    jobs: Vec<Job>,
    handle: Arc<dyn CodeHandle>,
    decoder: DecoderSpec,
}

/// Outcome of trying to enqueue one frame.
pub(crate) enum Enqueue {
    /// Accepted; the decoded frame will arrive on this receiver.
    Queued(Receiver<DecodedFrame>),
    /// Queue full; retry after roughly this many microseconds.
    Busy {
        /// Suggested client backoff.
        retry_after_us: u64,
    },
    /// The server is draining and accepts no new frames.
    ShuttingDown,
}

/// Spec errors surfaced to the wire, split by responsibility.
#[derive(Debug)]
pub(crate) enum KeyError {
    /// The scenario string failed to parse.
    Parse(ScenarioError),
    /// The scenario parsed but its code could not be built.
    Build(ScenarioError),
}

impl KeyError {
    pub(crate) fn message(&self) -> String {
        match self {
            Self::Parse(e) | Self::Build(e) => e.to_string(),
        }
    }
}

/// The shared coalescer: keyed bounded queues + the worker rendezvous.
pub(crate) struct Coalescer {
    state: Mutex<State>,
    work: Condvar,
    max_wait: Duration,
    queue_frames: usize,
    max_iterations: u32,
    metrics: Arc<Metrics>,
}

impl Coalescer {
    pub(crate) fn new(
        max_wait: Duration,
        queue_frames: usize,
        max_iterations: u32,
        metrics: Arc<Metrics>,
    ) -> Self {
        Self {
            state: Mutex::new(State {
                keys: HashMap::new(),
                shutting_down: false,
            }),
            work: Condvar::new(),
            max_wait,
            queue_frames: queue_frames.max(1),
            max_iterations,
            metrics,
        }
    }

    /// Resolves a spec string to its canonical queue key, creating the
    /// key (code handle + word probe) on first use. Returns the key and
    /// the code length n. The expensive build runs outside the lock.
    pub(crate) fn ensure_key(&self, spec: &str) -> Result<(String, usize), KeyError> {
        let scenario: Scenario = spec.parse().map_err(KeyError::Parse)?;
        let key = format!("{} / {}", scenario.code, scenario.decoder);
        if let Some(entry) = self.state.lock().unwrap().keys.get(&key) {
            return Ok((key, entry.n));
        }
        let handle = scenario.build_code().map_err(KeyError::Build)?;
        let probe = scenario.decoder.build(handle.code());
        let n = probe.n();
        let word = probe.block_frames();
        let mut st = self.state.lock().unwrap();
        st.keys.entry(key.clone()).or_insert(KeyEntry {
            scenario,
            handle,
            n,
            word,
            queue: VecDeque::new(),
        });
        Ok((key, n))
    }

    /// Queues one frame under an existing key (from [`ensure_key`]).
    ///
    /// # Panics
    ///
    /// Panics if the key was never ensured or `llrs.len()` is not the
    /// key's code length — the server validates both first.
    pub(crate) fn enqueue(&self, key: &str, llrs: Vec<f32>) -> Enqueue {
        let mut st = self.state.lock().unwrap();
        if st.shutting_down {
            return Enqueue::ShuttingDown;
        }
        let entry = st.keys.get_mut(key).expect("enqueue on an ensured key");
        assert_eq!(entry.n, llrs.len(), "frame length mismatch");
        if entry.queue.len() >= self.queue_frames {
            // Heuristic backoff: a couple of latency budgets from now
            // the deadline dispatcher will have drained at least one
            // word from this queue.
            let retry_after_us =
                u64::try_from(self.max_wait.as_micros()).unwrap_or(u64::MAX) * 2 + 500;
            self.metrics.record_rejected();
            return Enqueue::Busy { retry_after_us };
        }
        let (tx, rx) = std::sync::mpsc::channel();
        entry.queue.push_back(Job {
            llrs,
            enqueued: Instant::now(),
            reply: tx,
        });
        self.metrics.record_enqueued();
        self.work.notify_all();
        Enqueue::Queued(rx)
    }

    /// Starts the drain: no new frames are accepted, every queued frame
    /// ships immediately, and workers exit once the queues are empty.
    /// Idempotent.
    pub(crate) fn begin_shutdown(&self) {
        self.state.lock().unwrap().shutting_down = true;
        self.work.notify_all();
    }

    /// Current `(key, depth, word)` snapshot for `STATS`.
    pub(crate) fn queue_depths(&self) -> Vec<(String, usize, usize)> {
        let st = self.state.lock().unwrap();
        let mut depths: Vec<_> = st
            .keys
            .iter()
            .map(|(k, e)| (k.clone(), e.queue.len(), e.word))
            .collect();
        depths.sort();
        depths
    }

    /// When the earliest queued frame must ship, if any frame is queued.
    fn next_deadline(st: &State, max_wait: Duration) -> Option<Instant> {
        st.keys
            .values()
            .filter_map(|e| e.queue.front())
            .map(|j| j.enqueued + max_wait)
            .min()
    }

    /// Claims the ripest batch, if any queue is ready to ship. Prefers
    /// the queue whose front frame has waited longest.
    fn take_batch(st: &mut State, now: Instant, max_wait: Duration) -> Option<Batch> {
        let drain = st.shutting_down;
        let key = st
            .keys
            .iter()
            .filter(|(_, e)| {
                let Some(front) = e.queue.front() else {
                    return false;
                };
                e.queue.len() >= e.word || drain || now >= front.enqueued + max_wait
            })
            .min_by_key(|(_, e)| e.queue.front().map(|j| j.enqueued))
            .map(|(k, _)| k.clone())?;
        let entry = st.keys.get_mut(&key).unwrap();
        let take = entry.word.min(entry.queue.len());
        let jobs = entry.queue.drain(..take).collect();
        Some(Batch {
            key,
            jobs,
            handle: entry.handle.clone(),
            decoder: entry.scenario.decoder.clone(),
        })
    }

    /// One worker: wait for a ripe batch, decode it through the cached
    /// per-key decoder, reply per frame. Returns when the server is
    /// draining and every queue is empty.
    pub(crate) fn worker_loop(&self) {
        let mut decoders: HashMap<String, Box<dyn BlockDecoder>> = HashMap::new();
        loop {
            let batch = {
                let mut st = self.state.lock().unwrap();
                loop {
                    let now = Instant::now();
                    if let Some(b) = Self::take_batch(&mut st, now, self.max_wait) {
                        break Some(b);
                    }
                    if st.shutting_down {
                        break None;
                    }
                    // Sleep until the earliest deadline or new work;
                    // cap the wait so a shutdown begun while we hold no
                    // deadline is still noticed promptly.
                    let wait = Self::next_deadline(&st, self.max_wait)
                        .map(|d| d.saturating_duration_since(now))
                        .unwrap_or(Duration::from_millis(100))
                        .clamp(Duration::from_micros(50), Duration::from_millis(100));
                    st = self.work.wait_timeout(st, wait).unwrap().0;
                }
            };
            let Some(batch) = batch else { return };
            self.run_batch(batch, &mut decoders);
        }
    }

    fn run_batch(&self, batch: Batch, decoders: &mut HashMap<String, Box<dyn BlockDecoder>>) {
        let Batch {
            key,
            jobs,
            handle,
            decoder: spec,
        } = batch;
        let decoder = decoders
            .entry(key)
            .or_insert_with(|| spec.build(handle.code()));
        let n = decoder.n();
        let mut llrs = Vec::with_capacity(jobs.len() * n);
        for job in &jobs {
            llrs.extend_from_slice(&job.llrs);
        }
        let results = decoder.decode_block(&llrs, self.max_iterations);
        self.metrics.record_batch(jobs.len());
        for (job, result) in jobs.into_iter().zip(results) {
            let frame = DecodedFrame {
                bits: pack_bitvec(&result.hard_decision),
                bit_len: n,
                iterations: result.iterations,
                converged: result.converged,
            };
            self.metrics
                .record_frame_done(job.enqueued.elapsed(), result.converged);
            // A client that hung up mid-flight is not an error.
            let _ = job.reply.send(frame);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    /// A decoder that still fills multi-frame words: `block_frames()` is
    /// 8, so the coalescer waits for word-mates.
    const WORD_SPEC: &str = "demo / nms:1.25@batch=8";

    fn coalescer(max_wait: Duration, queue_frames: usize) -> Arc<Coalescer> {
        Arc::new(Coalescer::new(
            max_wait,
            queue_frames,
            20,
            Arc::new(Metrics::new()),
        ))
    }

    /// Starts the drain when dropped, also while a failed assertion
    /// unwinds, so a scoped worker always exits and the test fails
    /// instead of hanging.
    struct ShutdownOnDrop<'a>(&'a Coalescer);

    impl Drop for ShutdownOnDrop<'_> {
        fn drop(&mut self) {
            self.0.begin_shutdown();
        }
    }

    /// Clean all-zero demo frames: every LLR votes hard for bit 0.
    fn clean_frame(n: usize) -> Vec<f32> {
        vec![4.0; n]
    }

    #[test]
    fn full_word_dispatches_without_waiting_for_the_deadline() {
        // Deadline far away: only the full-word trigger can fire.
        let c = coalescer(Duration::from_secs(30), 1024);
        let (key, n) = c.ensure_key(WORD_SPEC).unwrap();
        let receivers: Vec<_> = (0..8)
            .map(|_| match c.enqueue(&key, clean_frame(n)) {
                Enqueue::Queued(rx) => rx,
                _ => panic!("queue refused a frame"),
            })
            .collect();
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&c);
            s.spawn(|| c.worker_loop());
            for rx in receivers {
                let frame = rx.recv_timeout(Duration::from_secs(10)).unwrap();
                assert!(frame.converged);
                assert_eq!(frame.bit_len, n);
                assert!(frame.bits.iter().all(|&b| b == 0));
            }
            assert_eq!(c.metrics.batches(), 1, "8 frames must ship as one word");
            assert_eq!(c.metrics.batch_fill_count(8), 1);
        });
    }

    #[test]
    fn deadline_ships_a_partial_word() {
        let c = coalescer(Duration::from_millis(30), 1024);
        let (key, n) = c.ensure_key(WORD_SPEC).unwrap();
        let Enqueue::Queued(rx) = c.enqueue(&key, clean_frame(n)) else {
            panic!("queue refused a frame");
        };
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&c);
            s.spawn(|| c.worker_loop());
            let frame = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            assert!(frame.converged);
            assert_eq!(c.metrics.batch_fill_count(1), 1, "partial word of 1");
        });
    }

    #[test]
    fn bounded_queue_reports_busy_and_recovers() {
        // No worker running: the queue can only fill.
        let c = coalescer(Duration::from_millis(1), 2);
        let (key, n) = c.ensure_key("demo / fixed").unwrap();
        let _rx1 = match c.enqueue(&key, clean_frame(n)) {
            Enqueue::Queued(rx) => rx,
            _ => panic!(),
        };
        let _rx2 = match c.enqueue(&key, clean_frame(n)) {
            Enqueue::Queued(rx) => rx,
            _ => panic!(),
        };
        match c.enqueue(&key, clean_frame(n)) {
            Enqueue::Busy { retry_after_us } => assert!(retry_after_us > 0),
            _ => panic!("third frame must bounce off the 2-frame bound"),
        }
        assert_eq!(c.metrics.frames_rejected(), 1);
    }

    #[test]
    fn shutdown_drains_queued_frames_then_stops_workers() {
        // 3 frames in an 8-lane word with a 30 s deadline: neither the
        // full-word nor the deadline trigger can fire — only the drain.
        let c = coalescer(Duration::from_secs(30), 1024);
        let (key, n) = c.ensure_key(WORD_SPEC).unwrap();
        let receivers: Vec<_> = (0..3)
            .map(|_| match c.enqueue(&key, clean_frame(n)) {
                Enqueue::Queued(rx) => rx,
                _ => panic!(),
            })
            .collect();
        let worker_exited = AtomicBool::new(false);
        std::thread::scope(|s| {
            let _shutdown = ShutdownOnDrop(&c);
            s.spawn(|| {
                c.worker_loop();
                worker_exited.store(true, Ordering::SeqCst);
            });
            c.begin_shutdown();
            for rx in receivers {
                assert!(rx.recv_timeout(Duration::from_secs(10)).unwrap().converged);
            }
            assert_eq!(
                c.metrics.batch_fill_count(3),
                1,
                "drain ships a partial word"
            );
        });
        assert!(worker_exited.load(Ordering::SeqCst));
        assert!(matches!(
            c.enqueue(&key, clean_frame(n)),
            Enqueue::ShuttingDown
        ));
    }

    #[test]
    fn spec_errors_are_actionable() {
        let c = coalescer(Duration::from_millis(1), 8);
        let err = c.ensure_key("c2 / bsc:0.02").unwrap_err();
        assert!(
            err.message().contains("name the decoder"),
            "{}",
            err.message()
        );
        let err = c.ensure_key("wat / fixed").unwrap_err();
        assert!(err.message().contains("code part"), "{}", err.message());
        // An unknown channel in a 3-part spec is rejected with the
        // channel grammar's own error, which names the known models.
        let err = c.ensure_key("demo / zeta / fixed").unwrap_err();
        assert!(err.message().contains("channel part"), "{}", err.message());
        assert!(err.message().contains("known models"), "{}", err.message());
        assert!(err.message().contains("erasure"), "{}", err.message());
        assert!(err.message().contains("burst"), "{}", err.message());
        // A malformed parameter of a known channel is rejected too.
        let err = c.ensure_key("demo / burst:0.01,0.3 / fixed").unwrap_err();
        assert!(
            err.message().contains("p_good,p_bad,p_switch"),
            "{}",
            err.message()
        );
        // A *valid* channel part of a 3-part spec must parse but does
        // not enter the key: the key collapses to code / decoder, for
        // the loss channels exactly as for the noise channels.
        for channel in ["rayleigh", "erasure:0.05", "burst:0.01,0.3,0.05"] {
            let (key, _) = c.ensure_key(&format!("demo / {channel} / fixed")).unwrap();
            assert_eq!(key, "demo / fixed", "{channel}");
        }
        let (key2, _) = c.ensure_key("demo / fixed").unwrap();
        assert_eq!(key2, "demo / fixed");
    }
}

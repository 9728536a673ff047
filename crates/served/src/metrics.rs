//! Lock-free counters behind the `STATS` request.
//!
//! Everything here is plain atomics so the hot path (enqueue, batch
//! dispatch, reply) never takes an extra lock for accounting. The
//! `STATS` renderer reads a consistent-enough snapshot: counters are
//! monotone, so a reader can at worst see a frame enqueued but not yet
//! decoded.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Widest word any decoder family packs (64-lane `@bitslice`); sizes
/// the batch-fill histogram.
pub const MAX_WORD_LANES: usize = 64;

/// Upper bounds (inclusive, microseconds) of the request-latency
/// histogram buckets; the last bucket is unbounded.
const LATENCY_BOUNDS_US: [u64; 17] = [
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    u64::MAX,
];

/// Shared serving counters: request totals, batch-fill histogram, and a
/// log-bucketed enqueue-to-reply latency histogram.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    requests_total: AtomicU64,
    bad_requests_total: AtomicU64,
    frames_enqueued_total: AtomicU64,
    frames_decoded_total: AtomicU64,
    frames_converged_total: AtomicU64,
    frames_rejected_total: AtomicU64,
    batches_total: AtomicU64,
    batch_fill: [AtomicU64; MAX_WORD_LANES],
    latency: [AtomicU64; LATENCY_BOUNDS_US.len()],
}

impl Default for Metrics {
    fn default() -> Self {
        Self::new()
    }
}

impl Metrics {
    /// Fresh counters with the uptime clock starting now.
    pub fn new() -> Self {
        Self {
            started: Instant::now(),
            requests_total: AtomicU64::new(0),
            bad_requests_total: AtomicU64::new(0),
            frames_enqueued_total: AtomicU64::new(0),
            frames_decoded_total: AtomicU64::new(0),
            frames_converged_total: AtomicU64::new(0),
            frames_rejected_total: AtomicU64::new(0),
            batches_total: AtomicU64::new(0),
            batch_fill: std::array::from_fn(|_| AtomicU64::new(0)),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Counts one request line of any kind.
    pub fn record_request(&self) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one request that produced an `ERR` response.
    pub fn record_bad_request(&self) {
        self.bad_requests_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one frame accepted into a queue.
    pub fn record_enqueued(&self) {
        self.frames_enqueued_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one frame refused with `BUSY`.
    pub fn record_rejected(&self) {
        self.frames_rejected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one dispatched batch of `fill` frames (1..=`word` lanes).
    pub fn record_batch(&self, fill: usize) {
        self.batches_total.fetch_add(1, Ordering::Relaxed);
        let idx = fill.clamp(1, MAX_WORD_LANES) - 1;
        self.batch_fill[idx].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one decoded frame and its enqueue-to-reply latency.
    pub fn record_frame_done(&self, latency: Duration, converged: bool) {
        self.frames_decoded_total.fetch_add(1, Ordering::Relaxed);
        if converged {
            self.frames_converged_total.fetch_add(1, Ordering::Relaxed);
        }
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let idx = LATENCY_BOUNDS_US.partition_point(|&b| b < us);
        self.latency[idx.min(LATENCY_BOUNDS_US.len() - 1)].fetch_add(1, Ordering::Relaxed);
    }

    /// Total frames decoded so far.
    pub fn frames_decoded(&self) -> u64 {
        self.frames_decoded_total.load(Ordering::Relaxed)
    }

    /// Total frames refused with `BUSY` so far.
    pub fn frames_rejected(&self) -> u64 {
        self.frames_rejected_total.load(Ordering::Relaxed)
    }

    /// Total request lines seen so far.
    pub fn requests(&self) -> u64 {
        self.requests_total.load(Ordering::Relaxed)
    }

    /// Total batches dispatched so far.
    pub fn batches(&self) -> u64 {
        self.batches_total.load(Ordering::Relaxed)
    }

    /// How many dispatched batches carried exactly `lanes` frames.
    pub fn batch_fill_count(&self, lanes: usize) -> u64 {
        assert!((1..=MAX_WORD_LANES).contains(&lanes));
        self.batch_fill[lanes - 1].load(Ordering::Relaxed)
    }

    /// Latency quantile in microseconds, reported as the upper bound of
    /// the histogram bucket containing it (0 when nothing is recorded;
    /// the unbounded top bucket reports its lower bound).
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .latency
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if LATENCY_BOUNDS_US[i] == u64::MAX {
                    LATENCY_BOUNDS_US[i - 1]
                } else {
                    LATENCY_BOUNDS_US[i]
                };
            }
        }
        LATENCY_BOUNDS_US[LATENCY_BOUNDS_US.len() - 2]
    }

    /// Seconds since the server started.
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// Renders the plaintext `STATS` body. `queue_depths` is the
    /// current per-key queue snapshot `(key, depth, word_lanes)`.
    pub fn render(&self, queue_depths: &[(String, usize, usize)]) -> String {
        let uptime = self.uptime().as_secs_f64();
        let decoded = self.frames_decoded();
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!("ldpc_served_uptime_seconds {uptime:.3}"));
        line(format!("ldpc_served_requests_total {}", self.requests()));
        line(format!(
            "ldpc_served_bad_requests_total {}",
            self.bad_requests_total.load(Ordering::Relaxed)
        ));
        line(format!(
            "ldpc_served_frames_enqueued_total {}",
            self.frames_enqueued_total.load(Ordering::Relaxed)
        ));
        line(format!("ldpc_served_frames_decoded_total {decoded}"));
        line(format!(
            "ldpc_served_frames_converged_total {}",
            self.frames_converged_total.load(Ordering::Relaxed)
        ));
        line(format!(
            "ldpc_served_frames_rejected_total {}",
            self.frames_rejected_total.load(Ordering::Relaxed)
        ));
        line(format!("ldpc_served_batches_total {}", self.batches()));
        line(format!(
            "ldpc_served_frames_per_sec {:.1}",
            if uptime > 0.0 {
                decoded as f64 / uptime
            } else {
                0.0
            }
        ));
        for lanes in 1..=MAX_WORD_LANES {
            let count = self.batch_fill_count(lanes);
            if count > 0 {
                line(format!(
                    "ldpc_served_batch_fill{{lanes=\"{lanes}\"}} {count}"
                ));
            }
        }
        line(format!(
            "ldpc_served_latency_us{{quantile=\"0.5\"}} {}",
            self.latency_quantile_us(0.5)
        ));
        line(format!(
            "ldpc_served_latency_us{{quantile=\"0.99\"}} {}",
            self.latency_quantile_us(0.99)
        ));
        for (key, depth, word) in queue_depths {
            line(format!(
                "ldpc_served_queue_depth{{key=\"{key}\",word=\"{word}\"}} {depth}"
            ));
        }
        // Drop the final newline: the protocol's STATS renderer owns
        // line framing.
        out.pop();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let m = Metrics::new();
        assert_eq!(m.latency_quantile_us(0.5), 0);
        for _ in 0..90 {
            m.record_frame_done(Duration::from_micros(800), true);
        }
        for _ in 0..10 {
            m.record_frame_done(Duration::from_micros(40_000), false);
        }
        assert_eq!(m.latency_quantile_us(0.5), 1_000);
        assert_eq!(m.latency_quantile_us(0.99), 50_000);
        assert_eq!(m.frames_decoded(), 100);
    }

    #[test]
    fn render_exposes_fill_histogram_and_queues() {
        let m = Metrics::new();
        m.record_request();
        m.record_enqueued();
        m.record_batch(8);
        m.record_batch(3);
        m.record_frame_done(Duration::from_micros(100), true);
        let body = m.render(&[("c2 / nms:1.25@batch=8".into(), 2, 8)]);
        assert!(
            body.contains("ldpc_served_batch_fill{lanes=\"8\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("ldpc_served_batch_fill{lanes=\"3\"} 1"),
            "{body}"
        );
        assert!(
            body.contains("ldpc_served_queue_depth{key=\"c2 / nms:1.25@batch=8\",word=\"8\"} 2"),
            "{body}"
        );
        assert!(
            body.contains("ldpc_served_frames_decoded_total 1"),
            "{body}"
        );
        assert!(!body.ends_with('\n'));
    }
}

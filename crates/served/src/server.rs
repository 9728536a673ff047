//! The TCP front end: blocking accept loop, one thread per connection,
//! and a decode-worker pool over the shared [`Coalescer`](crate::coalesce).
//!
//! No async runtime is involved (none is vendored): concurrency is the
//! classic thread-per-connection model, which is exactly what the
//! coalescer wants — many independent blocked requests are what fill
//! packed words. All threads live inside one [`std::thread::scope`] in
//! [`Server::run`], so a graceful shutdown is a plain structured join:
//! stop accepting, refuse new frames, drain the queues, answer the
//! in-flight requests, return.

use crate::coalesce::{Coalescer, Enqueue};
use crate::metrics::Metrics;
use crate::protocol::{self, ErrorKind, Payload, Request, Response, MAX_LINE_BYTES};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long a blocked socket read may sit before the handler re-checks
/// the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// How long a connection waits for its frame to come back from the
/// worker pool before reporting an internal error.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// Configuration of one serving process.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"` (`:0` picks a free port).
    pub addr: String,
    /// Latency budget: how long a frame may wait for word-mates before
    /// a partial word ships.
    pub max_wait: Duration,
    /// Decode worker threads; `0` means one per available core.
    pub workers: usize,
    /// Iteration cap handed to every decode.
    pub max_iterations: u32,
    /// Bound of each per-key queue; a full queue answers `BUSY`.
    pub queue_frames: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_wait: Duration::from_micros(500),
            workers: 0,
            max_iterations: 18,
            queue_frames: 1024,
        }
    }
}

/// What one serving run did, returned by [`Server::run`] after the
/// drain completes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Request lines handled (all kinds).
    pub requests: u64,
    /// Frames decoded and answered.
    pub frames_decoded: u64,
    /// Frames refused with `BUSY`.
    pub frames_rejected: u64,
    /// Milliseconds the server was up.
    pub uptime_ms: u64,
}

impl fmt::Display for ServeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "served {} requests, {} frames decoded, {} rejected, up {:.1}s",
            self.requests,
            self.frames_decoded,
            self.frames_rejected,
            self.uptime_ms as f64 / 1e3
        )
    }
}

/// A clonable handle for stopping a running server from another thread
/// (the CLI's signal watcher, tests, or a `SHUTDOWN` request).
#[derive(Clone)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    coalescer: Arc<Coalescer>,
}

impl ServerHandle {
    /// The bound address (useful after binding port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown has been requested.
    pub fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Requests a graceful shutdown: stop accepting connections, refuse
    /// new frames, drain every queue, answer in-flight requests.
    /// Idempotent and safe from any thread.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        self.coalescer.begin_shutdown();
        // The accept loop blocks in `accept()` with no timeout; a
        // throwaway local connection wakes it so it can observe the
        // flag. Failure is fine — the listener may already be gone.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A bound, not-yet-running decode server.
pub struct Server {
    listener: TcpListener,
    coalescer: Arc<Coalescer>,
    metrics: Arc<Metrics>,
    cfg: ServeConfig,
    stop: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address and prepares the coalescer.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, bad syntax)
    /// untouched, so callers can report it cleanly.
    pub fn bind(cfg: ServeConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let metrics = Arc::new(Metrics::new());
        let coalescer = Arc::new(Coalescer::new(
            cfg.max_wait,
            cfg.queue_frames,
            cfg.max_iterations,
            Arc::clone(&metrics),
        ));
        Ok(Self {
            listener,
            coalescer,
            metrics,
            cfg,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address.
    ///
    /// # Panics
    ///
    /// Panics if the OS cannot report the local address of a bound
    /// listener (not observed in practice).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            .expect("bound listener has an address")
    }

    /// A handle that can stop this server once [`run`](Self::run) is
    /// looping.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            addr: self.local_addr(),
            stop: Arc::clone(&self.stop),
            coalescer: Arc::clone(&self.coalescer),
        }
    }

    /// Serves until [`ServerHandle::shutdown`] (or a client `SHUTDOWN`)
    /// fires, then drains and returns the run's totals.
    pub fn run(self) -> ServeSummary {
        let handle = self.handle();
        let workers = if self.cfg.workers == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.cfg.workers
        };
        let coalescer = &self.coalescer;
        let metrics = &self.metrics;
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(move || coalescer.worker_loop());
            }
            loop {
                match self.listener.accept() {
                    Ok((stream, _)) => {
                        if handle.stopped() {
                            break;
                        }
                        let conn_handle = handle.clone();
                        s.spawn(move || {
                            handle_connection(stream, coalescer, metrics, &conn_handle);
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        if handle.stopped() {
                            break;
                        }
                    }
                }
            }
            // `shutdown()` already marked the coalescer; make it
            // unconditional in case the loop broke on an accept error.
            coalescer.begin_shutdown();
        });
        ServeSummary {
            requests: self.metrics.requests(),
            frames_decoded: self.metrics.frames_decoded(),
            frames_rejected: self.metrics.frames_rejected(),
            uptime_ms: u64::try_from(self.metrics.uptime().as_millis()).unwrap_or(u64::MAX),
        }
    }
}

fn error_response(kind: ErrorKind, message: impl Into<String>) -> Response {
    Response::Error {
        kind,
        message: message.into(),
    }
}

/// Handles one DECODE request end to end: key resolution, payload
/// expansion, enqueue, and the blocking wait for the decoded frame.
fn handle_decode(coalescer: &Coalescer, spec: &str, payload: &Payload) -> Response {
    let (key, n) = match coalescer.ensure_key(spec) {
        Ok(kn) => kn,
        Err(e) => return error_response(ErrorKind::BadSpec, e.message()),
    };
    let llrs = match payload {
        Payload::Llr8(q) => {
            if q.len() != n {
                return error_response(
                    ErrorKind::BadPayload,
                    format!(
                        "llr8 payload holds {} bytes but {key:?} expects n={n}",
                        q.len()
                    ),
                );
            }
            protocol::llr8_to_f32(q)
        }
        Payload::Bits(b) => {
            if b.len() != n.div_ceil(8) {
                return error_response(
                    ErrorKind::BadPayload,
                    format!(
                        "bits payload holds {} bytes but {key:?} expects {} ({} bits)",
                        b.len(),
                        n.div_ceil(8),
                        n
                    ),
                );
            }
            protocol::bits_to_llrs(b, n)
        }
    };
    match coalescer.enqueue(&key, llrs) {
        Enqueue::Queued(rx) => match rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(frame) => Response::Decoded(frame),
            Err(_) => error_response(
                ErrorKind::Internal,
                "decode worker did not answer within the reply timeout",
            ),
        },
        Enqueue::Busy { retry_after_us } => Response::Busy { retry_after_us },
        Enqueue::ShuttingDown => {
            error_response(ErrorKind::ShuttingDown, "server is draining; no new frames")
        }
    }
}

/// Processes one request line into the response to write. The second
/// tuple element is true when the connection asked the server to shut
/// down (the response still goes out first).
fn process_line(line: &[u8], coalescer: &Coalescer, metrics: &Metrics) -> (Response, bool) {
    metrics.record_request();
    let Ok(text) = std::str::from_utf8(line) else {
        metrics.record_bad_request();
        return (
            error_response(ErrorKind::BadRequest, "request line is not UTF-8"),
            false,
        );
    };
    match protocol::parse_request(text) {
        Ok(Request::Decode { spec, payload, .. }) => {
            let resp = handle_decode(coalescer, &spec, &payload);
            if matches!(resp, Response::Error { .. }) {
                metrics.record_bad_request();
            }
            (resp, false)
        }
        Ok(Request::Stats) => {
            let body = metrics.render(&coalescer.queue_depths());
            (Response::Stats(body), false)
        }
        Ok(Request::Ping) => (Response::Pong, false),
        Ok(Request::Shutdown) => (Response::Bye, true),
        Err(e) => {
            metrics.record_bad_request();
            (error_response(ErrorKind::BadRequest, e.to_string()), false)
        }
    }
}

/// One connection: accumulate bytes, peel newline-framed requests,
/// answer each in order. Polls the shutdown flag between reads so a
/// draining server closes idle connections promptly.
fn handle_connection(
    mut stream: TcpStream,
    coalescer: &Coalescer,
    metrics: &Metrics,
    handle: &ServerHandle,
) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let (resp, shutdown_after) = process_line(&line[..line.len() - 1], coalescer, metrics);
            let mut wire = protocol::render_response(&resp);
            wire.push('\n');
            if stream.write_all(wire.as_bytes()).is_err() || stream.flush().is_err() {
                return;
            }
            if shutdown_after {
                handle.shutdown();
                return;
            }
        }
        if handle.stopped() {
            return;
        }
        if buf.len() > MAX_LINE_BYTES {
            let resp = error_response(
                ErrorKind::BadRequest,
                format!("request line exceeds {MAX_LINE_BYTES} bytes"),
            );
            let mut wire = protocol::render_response(&resp);
            wire.push('\n');
            let _ = stream.write_all(wire.as_bytes());
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                continue
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::protocol::Encoding;

    fn demo_server(
        max_wait: Duration,
        queue_frames: usize,
    ) -> (ServerHandle, std::thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(ServeConfig {
            max_wait,
            workers: 1,
            queue_frames,
            ..ServeConfig::default()
        })
        .expect("bind port 0");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    /// A clean all-zero demo frame on the wire scale: +4.0 LLR per bit.
    fn clean_llr8(n: usize) -> Vec<i8> {
        vec![protocol::quantize_llr(4.0); n]
    }

    #[test]
    fn decode_ping_stats_shutdown_over_loopback() {
        let (handle, join) = demo_server(Duration::from_millis(1), 64);
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();

        let n = ldpc_core::codes::small::demo_code().n();
        let frame = client
            .decode_llr8("demo / fixed", &clean_llr8(n), Encoding::Hex)
            .unwrap();
        assert!(frame.converged);
        assert_eq!(frame.bit_len, n);
        assert!((0..n).all(|i| !frame.bit(i)));

        // Hard-decision payloads drive the same path.
        let frame = client
            .decode_bits(
                "demo / gallager-b@bitslice",
                &vec![0u8; n.div_ceil(8)],
                Encoding::Base64,
            )
            .unwrap();
        assert!(frame.converged);

        // A loss-channel part parses and is dropped from the key, and
        // the peeling decoder serves erasure-marked (zero-LLR) frames:
        // knock out a run of symbols and let it peel them back.
        let mut erased = clean_llr8(n);
        for llr in erased.iter_mut().take(24) {
            *llr = 0;
        }
        let frame = client
            .decode_llr8("demo / erasure:0.05 / peeling", &erased, Encoding::Hex)
            .unwrap();
        assert!(frame.converged);
        assert!((0..n).all(|i| !frame.bit(i)));

        let stats = client.stats().unwrap();
        assert!(
            stats.contains("ldpc_served_frames_decoded_total 3"),
            "{stats}"
        );
        assert!(
            stats.contains("ldpc_served_batch_fill{lanes=\"1\"}"),
            "{stats}"
        );

        client.shutdown_server().unwrap();
        let summary = join.join().unwrap();
        assert_eq!(summary.frames_decoded, 3);
        assert!(summary.requests >= 5);
    }

    #[test]
    fn malformed_requests_get_errors_not_disconnects() {
        let (handle, join) = demo_server(Duration::from_millis(1), 64);
        let mut client = Client::connect(handle.addr()).unwrap();

        for (line, want) in [
            ("HELLO", "unknown request"),
            ("DECODE|demo / fixed|llr8-hex|zz", "hex"),
            ("DECODE|wat / fixed|llr8-hex|00", "code part"),
            ("DECODE|demo / bsc:0.02|llr8-hex|00", "name the decoder"),
            // An unknown channel in a 3-part spec earns the channel
            // grammar's own error, naming the known models.
            ("DECODE|demo / zeta / fixed|llr8-hex|00", "known models"),
            ("DECODE|demo / burst:0.5 / fixed|llr8-hex|00", "p_switch"),
            ("DECODE|demo / fixed|llr8-hex|00", "expects n="),
        ] {
            let resp = client.raw_request(line).unwrap();
            match resp {
                Response::Error { message, .. } => {
                    assert!(message.contains(want), "{line} -> {message}");
                }
                other => panic!("{line} -> {other:?}"),
            }
        }
        // The connection survives every error above.
        client.ping().unwrap();
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn oversized_ar4ja_code_is_refused_and_the_next_request_served() {
        let (handle, join) = demo_server(Duration::from_millis(1), 64);
        let mut client = Client::connect(handle.addr()).unwrap();
        // Built, this code would ask for about 17 GB; the spec parser
        // refuses it before the coalescer builds anything.
        let line = "DECODE|ar4ja:r=1/2,k=67108864 / fixed|llr8-hex|00";
        match client.raw_request(line).unwrap() {
            Response::Error { message, .. } => {
                assert!(message.contains("at most 16384"), "{line} -> {message}");
            }
            other => panic!("{line} -> {other:?}"),
        }
        let n = ldpc_core::codes::small::demo_code().n();
        let frame = client
            .decode_llr8("demo / fixed", &clean_llr8(n), Encoding::Hex)
            .unwrap();
        assert!(frame.converged);
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn full_queue_answers_busy() {
        // One worker, 30 s deadline, 8-lane word, 2-frame bound: two
        // connections park frames in the queue, the third bounces.
        let (handle, join) = demo_server(Duration::from_secs(30), 2);
        let n = ldpc_core::codes::small::demo_code().n();
        let addr = handle.addr();
        let spec = "demo / nms:1.25@batch=8";

        let parked: Vec<_> = (0..2)
            .map(|_| {
                let llr = clean_llr8(n);
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    c.decode_llr8(spec, &llr, Encoding::Hex).unwrap()
                })
            })
            .collect();
        // Wait until both frames are queued server-side.
        let mut client = Client::connect(addr).unwrap();
        for _ in 0..200 {
            let stats = client.stats().unwrap();
            if stats.contains("ldpc_served_frames_enqueued_total 2") {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }

        let resp = client
            .decode_llr8_once(spec, &clean_llr8(n), Encoding::Hex)
            .unwrap();
        match resp {
            Response::Busy { retry_after_us } => assert!(retry_after_us > 0),
            other => panic!("expected BUSY, got {other:?}"),
        }

        // Shutdown drains the two parked frames; their clients get
        // bit-exact answers.
        handle.shutdown();
        for t in parked {
            assert!(t.join().unwrap().converged);
        }
        let summary = join.join().unwrap();
        assert_eq!(summary.frames_decoded, 2);
        assert_eq!(summary.frames_rejected, 1);
    }
}

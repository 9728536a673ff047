//! Decode-as-a-service: a TCP front end that coalesces many clients'
//! single frames into the full packed words the decoder kernels want.
//!
//! The paper's high-speed architecture (Demangel et al., DATE 2009) only
//! reaches throughput when 8 independent frames share the datapath; the
//! workspace's `@batch=8` / `@bitslice` kernels reproduce that in
//! software, and this crate supplies the missing ingredient —
//! *independent concurrent frames* — by serving many connections and
//! batching across them. Every `fixed` spec (`@pack=8` and `@batch=N`
//! are its aliases) fills its word's lanes with one frame, so its frames
//! ship as soon as a worker is free:
//!
//! ```text
//!   clients ──▶ connection threads ──▶ per-(code,decoder) queues
//!                                          │  full word OR deadline
//!                                          ▼
//!                                    worker pool ──▶ BlockDecoder
//!                                          │        (1/8/64-frame word)
//!                                          ▼
//!               connection threads ◀── per-frame replies
//! ```
//!
//! Everything is `std`: `std::net` sockets, thread-per-connection, and
//! the same Mutex/Condvar worker-pool idiom as `ldpc_sim`'s
//! orchestrator. See [`protocol`] for the wire format, [`ServeConfig`]
//! for the knobs, and `DESIGN.md` §8 for the architecture write-up.
//!
//! ```no_run
//! use ldpc_served::{Client, Encoding, ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::default())?; // 127.0.0.1:0
//! let handle = server.handle();
//! let worker = std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(handle.addr())?;
//! let llrs = vec![8i8; 8176]; // a clean all-zero C2 frame, 0.5 LLR/LSB
//! let frame = client.decode_llr8("c2 / fixed@pack=8", &llrs, Encoding::Hex)?;
//! assert!(frame.converged);
//!
//! handle.shutdown();
//! let summary = worker.join().unwrap();
//! assert_eq!(summary.frames_decoded, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod coalesce;
pub mod metrics;
pub mod protocol;
mod server;
mod signals;

pub use client::{Client, ClientError};
pub use metrics::Metrics;
pub use protocol::{DecodedFrame, Encoding, ErrorKind, Payload, Request, Response};
pub use server::{ServeConfig, ServeSummary, Server, ServerHandle};
pub use signals::shutdown_flag;

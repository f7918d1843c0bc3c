//! Network serving for FT-BFS query engines: a long-running TCP service
//! with explicit admission control, and the client pieces to drive it.
//!
//! The preprocess-once/query-many shape of the Parter–Peleg structures is
//! exactly a server's shape: build the expensive
//! [`EngineCore`](ftb_core::EngineCore) once, then
//! answer cheap queries forever. This crate turns that observation into a
//! deployable pair of binaries:
//!
//! * **`ftb-serve`** — owns one `Arc<EngineCore>`; a thread-per-worker pool
//!   drains a *bounded* request queue, each worker holding its private
//!   [`QueryContext`](ftb_core::QueryContext). A full queue is answered
//!   with an `Overloaded` frame instead of unbounded buffering (see
//!   [`server`]).
//! * **`ftb-loadgen`** — an open-loop load generator: request send times
//!   are fixed *before* the run by an
//!   [`ArrivalSchedule`](ftb_workloads::ArrivalSchedule), and latency is
//!   measured from the scheduled send time, so client-side backlog counts
//!   against the server — the methodology that makes p99/p999 numbers
//!   honest near saturation.
//! * **`ftb-build`** — runs the expensive preprocessing *offline* and
//!   persists the result as a flat-binary snapshot
//!   ([`save_snapshot`]/[`load_snapshot`]); `ftb-serve --snapshot FILE`
//!   then restores it in milliseconds instead of rebuilding, turning
//!   server restarts from a preprocessing event into a file read.
//!
//! Both speak the length-prefixed binary protocol of [`protocol`], whose
//! hello handshake checks the one protocol version and carries the served
//! graph's [fingerprint](ftb_graph::Graph::fingerprint) so a client
//! regenerating the workload locally can prove it is naming the same
//! graph.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod setup;

pub use client::{Client, ServerInfo};
pub use metrics::{ConnCell, ServerMetrics, DEFAULT_SLOW_LOG_CAPACITY};
pub use protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, write_frame,
    DecodeError, ErrorCode, MetricsFormat, Request, Response, SlowQueryReport, WirePath,
    MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use retry::{RetryPolicy, RetryStats};
pub use server::{
    wait_until_ready, wait_until_stopped, wait_until_stopped_with, Provenance, ServeOptions, Server,
};
pub use setup::{
    decode_spec, encode_spec, load_snapshot, parse_family, save_snapshot, EngineSpec,
    SnapshotLoadError,
};

//! A minimal blocking client for the query service: one connection, one
//! in-flight request. The load generator opens one of these per client
//! thread; the smoke test uses it to compare wire answers against an
//! in-process engine.

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, MetricsFormat, Request, Response,
    SlowQueryReport, PROTOCOL_VERSION,
};
use crate::retry::{classify, failure_is_retryable, request_is_idempotent, RetryState};
use crate::{RetryPolicy, RetryStats};
use ftb_graph::{FaultSet, VertexId};
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// What the server declared about itself in the handshake.
#[derive(Clone, Debug)]
pub struct ServerInfo {
    /// The server's protocol version (always [`PROTOCOL_VERSION`]: the
    /// handshake rejects any other).
    pub version: u16,
    /// Fingerprint of the served graph
    /// ([`Graph::fingerprint`](ftb_graph::Graph::fingerprint)).
    pub fingerprint: u64,
    /// Vertex count of the served graph.
    pub num_vertices: u32,
    /// Edge count of the served graph.
    pub num_edges: u32,
    /// The sources the engine answers from.
    pub sources: Vec<VertexId>,
}

/// A connected, handshaken session with an `ftb-serve` process.
pub struct Client {
    stream: TcpStream,
    info: ServerInfo,
    /// Resolved peer address, kept so a retry can re-dial after a reset.
    addr: SocketAddr,
    /// Read timeout re-applied across reconnects.
    read_timeout: Option<Duration>,
}

fn bad_data<E: std::fmt::Display>(e: E) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

impl Client {
    /// Connect and perform the hello handshake.
    ///
    /// Fails with `InvalidData` if the server rejects the handshake (e.g. a
    /// protocol version mismatch), answers with anything but `HelloOk`, or
    /// answers `HelloOk` with a version other than [`PROTOCOL_VERSION`].
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let mut client = Client {
            stream,
            info: ServerInfo {
                version: 0,
                fingerprint: 0,
                num_vertices: 0,
                num_edges: 0,
                sources: Vec::new(),
            },
            addr: peer,
            read_timeout: None,
        };
        client.handshake()?;
        Ok(client)
    }

    fn handshake(&mut self) -> io::Result<()> {
        match self.request(&Request::Hello {
            client_version: PROTOCOL_VERSION,
        })? {
            Response::HelloOk { version, .. } if version != PROTOCOL_VERSION => Err(bad_data(
                format!("server speaks protocol version {version}, client {PROTOCOL_VERSION}"),
            )),
            Response::HelloOk {
                version,
                fingerprint,
                num_vertices,
                num_edges,
                sources,
            } => {
                self.info = ServerInfo {
                    version,
                    fingerprint,
                    num_vertices,
                    num_edges,
                    sources,
                };
                Ok(())
            }
            Response::Error { message, .. } => {
                Err(bad_data(format!("handshake rejected: {message}")))
            }
            other => Err(bad_data(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// Drop the current connection and establish a fresh, handshaken one
    /// to the same address, preserving any configured read timeout.
    ///
    /// This is what [`Client::request_with_retry`] reaches for after a
    /// transport error; it is public so callers with their own retry
    /// loops can self-heal the same way.
    pub fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(self.read_timeout)?;
        self.stream = stream;
        self.handshake()
    }

    /// The handshake information.
    pub fn info(&self) -> &ServerInfo {
        &self.info
    }

    /// Bound how long a single response read may block. `None` removes the
    /// bound. Survives [`Client::reconnect`].
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.read_timeout = timeout;
        Ok(())
    }

    /// Send one request and block for its response.
    pub fn request(&mut self, req: &Request) -> io::Result<Response> {
        write_frame(&mut self.stream, &encode_request(req))?;
        let payload = read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed before answering",
            )
        })?;
        decode_response(&payload).map_err(bad_data)
    }

    /// Send one request under a client-supplied deadline.
    ///
    /// The request is wrapped in [`Request::Deadline`]; the budget starts
    /// when the server admits the request, so time spent waiting for a
    /// query context counts against it.
    pub fn request_with_deadline(
        &mut self,
        req: &Request,
        budget: Duration,
    ) -> io::Result<Response> {
        let budget_ms = budget.as_millis().min(u32::MAX as u128) as u32;
        self.request(&Request::Deadline {
            budget_ms,
            inner: Box::new(req.clone()),
        })
    }

    /// Send one request, retrying transient failures under `policy`.
    ///
    /// Transport errors trigger a reconnect-and-rehandshake before the next
    /// attempt; `Overloaded`/`Internal` reply frames are retried on the
    /// live connection. Non-idempotent requests ([`Request::Shutdown`]) and
    /// deterministic rejections are never retried — see [`crate::retry`]
    /// for the classification. Counters for every attempt land in `stats`.
    pub fn request_with_retry(
        &mut self,
        req: &Request,
        policy: &RetryPolicy,
        stats: &mut RetryStats,
    ) -> io::Result<Response> {
        let mut state = RetryState::new(policy);
        let retryable_request = request_is_idempotent(req);
        let mut attempt = 0u32;
        loop {
            stats.attempts += 1;
            let result = self.request(req);
            let failure = match classify(&result) {
                None => return result,
                Some(f) => f,
            };
            let budget_left = attempt < policy.max_retries;
            if !retryable_request || !failure_is_retryable(&failure) || !budget_left {
                if retryable_request && failure_is_retryable(&failure) {
                    stats.gave_up += 1;
                }
                return result;
            }
            attempt += 1;
            stats.retries += 1;
            std::thread::sleep(state.next_backoff());
            if result.is_err() {
                // The transport failed: this connection is dead (or at
                // least desynchronized). Re-dial before the next attempt;
                // if the server itself is gone, surface that error.
                stats.reconnects += 1;
                self.reconnect()?;
            }
        }
    }

    /// Distance query convenience wrapper.
    pub fn dist(
        &mut self,
        source: VertexId,
        target: VertexId,
        faults: FaultSet,
    ) -> io::Result<Response> {
        self.request(&Request::Dist {
            source,
            target,
            faults,
        })
    }

    /// One-to-many distance query convenience wrapper: one source, one
    /// shared fault set, many targets, answered in target order.
    pub fn dist_many(
        &mut self,
        source: VertexId,
        targets: Vec<VertexId>,
        faults: FaultSet,
    ) -> io::Result<Response> {
        self.request(&Request::DistMany {
            source,
            targets,
            faults,
        })
    }

    /// Fetch the server's metrics snapshot in the Prometheus text
    /// exposition format; [`ftb_obs::Scrape::parse`] reads it back.
    pub fn metrics_text(&mut self) -> io::Result<String> {
        self.metrics(MetricsFormat::Prometheus)
    }

    /// Fetch the server's metrics snapshot as a JSON object keyed by
    /// `name{labels}` — the payload
    /// `ftb-loadgen --metrics-out` writes.
    pub fn metrics_json(&mut self) -> io::Result<String> {
        self.metrics(MetricsFormat::Json)
    }

    fn metrics(&mut self, format: MetricsFormat) -> io::Result<String> {
        match self.request(&Request::Metrics { format })? {
            Response::MetricsText(text) => Ok(text),
            other => Err(bad_data(format!("unexpected metrics reply: {other:?}"))),
        }
    }

    /// Fetch the slow-query board, slowest first.
    pub fn slow_queries(&mut self) -> io::Result<Vec<SlowQueryReport>> {
        match self.request(&Request::SlowQueries)? {
            Response::SlowQueries(board) => Ok(board),
            other => Err(bad_data(format!("unexpected slow-query reply: {other:?}"))),
        }
    }

    /// Ask the server to shut down; returns once it acknowledged.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(bad_data(format!("unexpected shutdown reply: {other:?}"))),
        }
    }
}

//! Blocking client speaking the [`crate::protocol`] codec.
//!
//! One request at a time via [`Client::query`] and friends, or pipelined
//! via [`Client::send_query`] / [`Client::recv_query_reply`]. Every call
//! that crosses admission control returns a [`Reply`], because the server
//! may answer `Overloaded` instead — load shedding is part of the contract,
//! not an error. Server-pushed [`Message::Delta`] frames arriving between
//! replies are buffered and drained with [`Client::take_deltas`] (or
//! awaited with [`Client::recv_delta`]).

use crate::protocol::{
    frame_bytes, prune_payload, read_frame, IntrospectReport, IntrospectWhat, Message, OverloadInfo,
};
use rknnt_core::{FilterSet, RknntQuery};
use rknnt_data::codec::CodecError;
use rknnt_fault::{Failpoints, FaultAction};
use rknnt_index::TransitionId;
use rknnt_service::{DeltaReason, StoreUpdate};
use std::fmt;
use std::io::{self, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// A failed client call.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// A blocking read exceeded the configured
    /// [`ClientConfig::read_timeout`] deadline. The connection is left in an
    /// indeterminate mid-read state — retry on a fresh connection, never on
    /// this one.
    Timeout,
    /// The server sent bytes the codec rejects.
    Protocol(CodecError),
    /// The server answered with a typed [`Message::Error`].
    Server {
        /// Echoed request id (0 if the server could not recover it).
        id: u64,
        /// The server's description of the failure.
        message: String,
    },
    /// The server answered with a structurally valid but contextually wrong
    /// message kind or id.
    UnexpectedReply(&'static str),
    /// The server closed the connection.
    Disconnected,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Timeout => write!(f, "read timed out waiting for a reply"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Server { id, message } => {
                write!(f, "server error (request {id}): {message}")
            }
            ClientError::UnexpectedReply(what) => write!(f, "unexpected reply: {what}"),
            ClientError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        // A timed-out blocking socket read surfaces as `WouldBlock` on Unix
        // and `TimedOut` on Windows; both mean the deadline fired.
        if matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
        ) {
            return ClientError::Timeout;
        }
        ClientError::Io(e)
    }
}

impl From<CodecError> for ClientError {
    fn from(e: CodecError) -> Self {
        ClientError::Protocol(e)
    }
}

/// The outcome of an admitted-or-shed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply<T> {
    /// The request was admitted, executed, and answered.
    Answered(T),
    /// Admission control shed the request; nothing was executed.
    Overloaded(OverloadInfo),
}

impl<T> Reply<T> {
    /// The answer, if the request was not shed.
    pub fn answered(self) -> Option<T> {
        match self {
            Reply::Answered(v) => Some(v),
            Reply::Overloaded(_) => None,
        }
    }

    /// Whether the request was shed.
    pub fn is_overloaded(&self) -> bool {
        matches!(self, Reply::Overloaded(_))
    }
}

/// A successful subscription registration.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Handle for [`Client::unsubscribe`] and delta correlation.
    pub subscription: u64,
    /// The standing query's initial result.
    pub transitions: Vec<TransitionId>,
}

/// Counts from a successful [`Client::apply_updates`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateCounts {
    /// Updates applied to the stores.
    pub applied: u64,
    /// Updates rejected at the store boundary.
    pub rejected: u64,
}

/// A server-pushed subscription result change.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEvent {
    /// The subscription handle the delta belongs to.
    pub subscription: u64,
    /// Transitions that entered the result, sorted ascending.
    pub entered: Vec<TransitionId>,
    /// Transitions that left the result, sorted ascending.
    pub left: Vec<TransitionId>,
    /// Why the result changed.
    pub reason: DeltaReason,
}

/// A [`Client::prune`] answer: surviving origins, destinations, nodes pruned.
pub type Pruned = (Vec<TransitionId>, Vec<TransitionId>, u64);

/// Backend health as reported by a [`Client::health`] probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthStatus {
    /// Applied-update watermark (see [`Message::HealthOk`]).
    pub watermark: u64,
}

/// Connection-level knobs for [`Client::connect_with`].
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Deadline for each blocking read. `None` (the default) blocks forever
    /// — the pre-existing behaviour. With a deadline, a stalled server
    /// surfaces as [`ClientError::Timeout`] instead of a hang.
    pub read_timeout: Option<Duration>,
    /// Armed failpoints for deterministic fault injection on this
    /// connection's write path (site `net.client.write`, hit once per
    /// outgoing frame). `None` sends clean frames.
    pub failpoints: Option<Arc<Failpoints>>,
}

impl ClientConfig {
    /// Sets the per-read deadline.
    pub fn with_read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Arms failpoints on the write path.
    pub fn with_failpoints(mut self, failpoints: Arc<Failpoints>) -> Self {
        self.failpoints = Some(failpoints);
        self
    }
}

/// Failpoint site hit once per frame the client writes.
pub const CLIENT_WRITE_SITE: &str = "net.client.write";

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    next_id: u64,
    deltas: Vec<DeltaEvent>,
    failpoints: Option<Arc<Failpoints>>,
}

impl Client {
    /// Connects to a server with default [`ClientConfig`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects to a server with explicit connection-level knobs.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        Ok(Client {
            stream,
            buf: Vec::new(),
            next_id: 1,
            deltas: Vec::new(),
            failpoints: config.failpoints,
        })
    }

    /// Changes the per-read deadline on the live connection. `None` removes
    /// it (reads block forever again).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn send(&mut self, payload: &[u8]) -> Result<(), ClientError> {
        let mut frame = frame_bytes(payload)?;
        if let Some(fp) = &self.failpoints {
            match fp.hit(CLIENT_WRITE_SITE) {
                Some(FaultAction::Cut { after }) => {
                    // Sever mid-frame: push a prefix of the frame, then shut
                    // the write half so the server sees a hard EOF inside
                    // the frame, never a clean boundary.
                    let keep = after.unwrap_or(0).min(frame.len().saturating_sub(1));
                    self.stream.write_all(&frame[..keep])?;
                    let _ = self.stream.shutdown(Shutdown::Write);
                    return Err(ClientError::Io(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        format!("injected cut after {keep} of {} frame bytes", frame.len()),
                    )));
                }
                Some(FaultAction::Corrupt { offset, mask }) => {
                    // Flip bits in the wire bytes; the frame still ships, so
                    // the corruption must be caught by the server's
                    // checksum, not by this client erroring early.
                    let at = offset.min(frame.len() - 1);
                    frame[at] ^= if mask == 0 { 0x01 } else { mask };
                }
                Some(FaultAction::Fail { message }) => {
                    return Err(ClientError::Io(io::Error::other(message)));
                }
                Some(FaultAction::Delay { nanos }) => {
                    std::thread::sleep(Duration::from_nanos(nanos));
                }
                Some(FaultAction::Kill) | Some(FaultAction::Panic { .. }) | None => {}
            }
        }
        self.stream.write_all(&frame)?;
        Ok(())
    }

    /// Reads one frame: a delta push is buffered (`None`), any other
    /// message returned.
    fn recv_one(&mut self) -> Result<Option<Message>, ClientError> {
        if read_frame(&mut self.stream, &mut self.buf)?.is_none() {
            return Err(ClientError::Disconnected);
        }
        match Message::decode(&self.buf)? {
            Message::Delta {
                subscription,
                entered,
                left,
                reason,
            } => {
                self.deltas.push(DeltaEvent {
                    subscription,
                    entered,
                    left,
                    reason,
                });
                Ok(None)
            }
            msg => Ok(Some(msg)),
        }
    }

    /// Reads the next non-push message, buffering any deltas that arrive
    /// in between.
    fn recv(&mut self) -> Result<Message, ClientError> {
        loop {
            if let Some(msg) = self.recv_one()? {
                return Ok(msg);
            }
        }
    }

    /// Executes one query round-trip.
    pub fn query(&mut self, query: &RknntQuery) -> Result<Reply<Vec<TransitionId>>, ClientError> {
        let id = self.send_query(query)?;
        let (rid, reply) = self.recv_query_reply()?;
        if rid != id {
            return Err(ClientError::UnexpectedReply("reply id mismatch"));
        }
        Ok(reply)
    }

    /// Pipelining: sends a query without waiting, returning its request id.
    pub fn send_query(&mut self, query: &RknntQuery) -> Result<u64, ClientError> {
        let id = self.fresh_id();
        let query = Message::Query {
            id,
            query: query.clone(),
            trace: None,
        };
        self.send(&query.encode())?;
        Ok(id)
    }

    /// [`Client::query`] with a trace id: the server samples the id
    /// deterministically and, if kept, records a span tree for this exact
    /// request (retrievable via [`Client::introspect`] once the request is
    /// slow enough to promote). The answer is byte-identical to the
    /// untraced call.
    pub fn query_traced(
        &mut self,
        query: &RknntQuery,
        trace_id: u64,
    ) -> Result<Reply<Vec<TransitionId>>, ClientError> {
        let id = self.fresh_id();
        let query = Message::Query {
            id,
            query: query.clone(),
            trace: Some(trace_id),
        };
        self.send(&query.encode())?;
        let (rid, reply) = self.recv_query_reply()?;
        if rid != id {
            return Err(ClientError::UnexpectedReply("reply id mismatch"));
        }
        Ok(reply)
    }

    /// Pipelining: receives the next query reply (answered or shed) with
    /// its request id. Answers come back in request order per connection,
    /// but a shed is written the moment it is decided, so an `Overloaded`
    /// reply may overtake answers to earlier requests still queued — match
    /// replies by id.
    pub fn recv_query_reply(&mut self) -> Result<(u64, Reply<Vec<TransitionId>>), ClientError> {
        match self.recv()? {
            Message::QueryOk { id, transitions } => Ok((id, Reply::Answered(transitions))),
            Message::Overloaded { id, info } => Ok((id, Reply::Overloaded(info))),
            Message::Error { id, message } => Err(ClientError::Server { id, message }),
            _ => Err(ClientError::UnexpectedReply("wanted a query reply")),
        }
    }

    /// One request/reply round trip: sends the request payload `request`
    /// encodes under a fresh id and reads its reply, which `answer` unwraps from the
    /// reply kind it expects (`what` names that kind in the error for any
    /// other). A shed comes back as [`Reply::Overloaded`], the server's typed
    /// error as [`ClientError::Server`].
    fn round_trip<T>(
        &mut self,
        request: impl FnOnce(u64) -> Vec<u8>,
        what: &'static str,
        answer: impl FnOnce(Message) -> Option<T>,
    ) -> Result<Reply<T>, ClientError> {
        let id = self.fresh_id();
        self.send(&request(id))?;
        match self.recv()? {
            Message::Overloaded { id: rid, info } if rid == id => Ok(Reply::Overloaded(info)),
            Message::Error { id, message } => Err(ClientError::Server { id, message }),
            reply if reply.request_id() == id => answer(reply)
                .map(Reply::Answered)
                .ok_or(ClientError::UnexpectedReply(what)),
            _ => Err(ClientError::UnexpectedReply(what)),
        }
    }

    /// Registers a standing query.
    pub fn subscribe(&mut self, query: &RknntQuery) -> Result<Reply<Subscription>, ClientError> {
        let query = query.clone();
        let request = |id| Message::Subscribe { id, query }.encode();
        self.round_trip(request, "wanted a subscribe reply", |reply| match reply {
            Message::SubscribeOk {
                subscription,
                transitions,
                ..
            } => Some(Subscription {
                subscription,
                transitions,
            }),
            _ => None,
        })
    }

    /// Drops a standing query. `Answered(true)` iff the handle named a live
    /// subscription owned by this connection.
    pub fn unsubscribe(&mut self, subscription: u64) -> Result<Reply<bool>, ClientError> {
        let request = |id| Message::Unsubscribe { id, subscription }.encode();
        self.round_trip(
            request,
            "wanted an unsubscribe reply",
            |reply| match reply {
                Message::UnsubscribeOk { existed, .. } => Some(existed),
                _ => None,
            },
        )
    }

    /// Applies store updates through the server.
    pub fn apply_updates(
        &mut self,
        updates: Vec<StoreUpdate>,
    ) -> Result<Reply<UpdateCounts>, ClientError> {
        self.apply_updates_inner(updates, None)
    }

    /// [`Client::apply_updates`] with a trace id — the update-side twin of
    /// [`Client::query_traced`]; the WAL append lands in the span tree.
    pub fn apply_updates_traced(
        &mut self,
        updates: Vec<StoreUpdate>,
        trace_id: u64,
    ) -> Result<Reply<UpdateCounts>, ClientError> {
        self.apply_updates_inner(updates, Some(trace_id))
    }

    fn apply_updates_inner(
        &mut self,
        updates: Vec<StoreUpdate>,
        trace: Option<u64>,
    ) -> Result<Reply<UpdateCounts>, ClientError> {
        let request = |id| Message::ApplyUpdates { id, updates, trace }.encode();
        self.round_trip(request, "wanted an updates reply", |reply| match reply {
            Message::UpdatesOk {
                applied, rejected, ..
            } => Some(UpdateCounts { applied, rejected }),
            _ => None,
        })
    }

    /// Fetches server internals: metrics exposition or the slow-query log.
    /// Answered from the server's reader thread,
    /// so it works even while the executor is saturated — there is no
    /// `Overloaded` arm because introspection is never queued or shed.
    pub fn introspect(&mut self, what: IntrospectWhat) -> Result<IntrospectReport, ClientError> {
        let id = self.fresh_id();
        self.send(&Message::Introspect { id, what }.encode())?;
        match self.recv()? {
            Message::IntrospectOk { id: rid, report } if rid == id => Ok(report),
            Message::Error { id, message } => Err(ClientError::Server { id, message }),
            _ => Err(ClientError::UnexpectedReply("wanted an introspect reply")),
        }
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<Reply<()>, ClientError> {
        let pong = |reply| matches!(reply, Message::Pong { .. }).then_some(());
        self.round_trip(|id| Message::Ping { id }.encode(), "wanted a pong", pong)
    }

    /// Health / resync probe: fetches the backend's applied-update
    /// watermark. Travels the full executor path (unlike
    /// [`Client::introspect`], and unlike a resident query, which the
    /// connection's reader answers), so an answer proves the request
    /// pipeline is live end to end.
    pub fn health(&mut self) -> Result<Reply<HealthStatus>, ClientError> {
        let request = |id| Message::Health { id }.encode();
        self.round_trip(request, "wanted a health reply", |reply| match reply {
            Message::HealthOk { watermark, .. } => Some(HealthStatus { watermark }),
            _ => None,
        })
    }

    /// The prune step of one query on the server's transitions
    /// ([`Message::Prune`]): the server's ids of the transitions whose
    /// origin and whose destination `filter` (built at `k`) does not
    /// filter, and the TR-tree nodes pruned unopened.
    pub fn prune(&mut self, filter: &FilterSet, k: usize) -> Result<Reply<Pruned>, ClientError> {
        let payload = |id| prune_payload(id, filter, k);
        self.round_trip(payload, "wanted a prune reply", |reply| match reply {
            Message::PruneOk {
                pruned_nodes,
                origins,
                destinations,
                ..
            } => Some((origins, destinations, pruned_nodes)),
            _ => None,
        })
    }

    /// Drains deltas buffered while waiting for replies.
    pub fn take_deltas(&mut self) -> Vec<DeltaEvent> {
        std::mem::take(&mut self.deltas)
    }

    /// Blocks until at least one delta is available, then pops the oldest.
    pub fn recv_delta(&mut self) -> Result<DeltaEvent, ClientError> {
        while self.deltas.is_empty() {
            match self.recv_one()? {
                None => {}
                Some(Message::Error { id, message }) => {
                    return Err(ClientError::Server { id, message })
                }
                Some(_) => return Err(ClientError::UnexpectedReply("wanted a delta push")),
            }
        }
        Ok(self.deltas.remove(0))
    }
}

//! Wire protocol: CRC-guarded length-prefixed frames carrying little-endian
//! binary messages.
//!
//! Every frame on the socket is `crc:u32 | len:u32 | payload[len]`, all
//! little-endian, where the checksum covers the length bytes *and* the
//! payload — the same discipline as the storage WAL, so a frame whose length
//! field is corrupted in flight cannot silently re-frame the stream. Payloads
//! are [`Message`]s encoded through the `rknnt-data` codec (the build is
//! hermetic — no serde backend — so the serving edge reuses the exact
//! encoder/decoder the snapshots and WAL already trust).
//!
//! Decoding is hostile-input safe end to end: the frame length is capped at
//! [`MAX_FRAME_BYTES`] before any allocation, the checksum is verified before
//! the payload is parsed, and [`Message::decode`] inherits the codec's
//! bounds-checked reads plus an exhaustion check, so trailing garbage inside
//! a structurally valid frame is rejected too.

use rknnt_core::{RknntQuery, Semantics};
use rknnt_data::codec::{crc32, CodecError, CodecResult, Decoder, Encoder};
use rknnt_index::TransitionId;
use rknnt_obs::SlowQueryEntry;
use rknnt_service::{DeltaReason, StoreUpdate};
use std::io::{self, Read, Write};

/// Hard cap on a frame payload. A hostile or corrupted length field fails
/// fast instead of driving a multi-gigabyte allocation.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// Builds the full wire bytes of one frame: `crc | len | payload`. The
/// fault-injection paths need the frame as a contiguous buffer (to corrupt
/// a byte or sever mid-frame at an exact offset), so framing and writing
/// are split.
pub fn frame_bytes(payload: &[u8]) -> io::Result<Vec<u8>> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds cap", payload.len()),
        ));
    }
    // The checksum covers the length bytes and the payload in one pass, so
    // build `len | payload` contiguously and prepend the crc on the wire.
    let mut body = Vec::with_capacity(8 + payload.len());
    body.extend_from_slice(&[0u8; 4]);
    body.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    body.extend_from_slice(payload);
    let crc = crc32(&body[4..]);
    body[..4].copy_from_slice(&crc.to_le_bytes());
    Ok(body)
}

/// Writes one frame: `crc | len | payload`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    w.write_all(&frame_bytes(payload)?)
}

/// Reads one frame into `buf` (payload only, header stripped).
///
/// Returns `Ok(None)` on a clean EOF — the peer closed the connection on a
/// frame boundary. EOF *inside* a frame, an over-cap length, or a checksum
/// mismatch are all errors.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<Option<()>> {
    let mut header = [0u8; 8];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let crc = u32::from_le_bytes(header[..4].try_into().expect("4 bytes"));
    let len = u32::from_le_bytes(header[4..].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_BYTES}-byte cap"),
        ));
    }
    buf.clear();
    buf.resize(4 + len, 0);
    buf[..4].copy_from_slice(&header[4..]);
    r.read_exact(&mut buf[4..])?;
    if crc32(buf) != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame checksum mismatch",
        ));
    }
    buf.drain(..4);
    Ok(Some(()))
}

/// Why the server refused a request, echoed back in the [`Message::Overloaded`]
/// reply so clients can make an informed backoff decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverloadInfo {
    /// Requests waiting in the global queue at the shed decision.
    pub queue_depth: u64,
    /// Summed cost estimate of the queued requests.
    pub queue_cost: u64,
    /// Cost estimate of the request that was shed.
    pub estimated_cost: u64,
    /// The server's queued-cost budget.
    pub cost_budget: u64,
}

/// What a [`Message::Introspect`] request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntrospectWhat {
    /// The server's `net.*` metrics plus the backend's registries, in the
    /// text exposition format.
    Metrics,
    /// The slow-query log: promoted traces with their span trees.
    SlowQueries,
}

/// One span of a slow trace as it travels on the wire: the in-memory
/// [`rknnt_obs::TraceSpan`]'s static strings become owned ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSpan {
    /// Span name.
    pub name: String,
    /// Start offset in nanoseconds on the trace's clock.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the parent span in the trace, or `u32::MAX` for a root.
    pub parent: u32,
    /// Integer attributes, in recording order.
    pub attrs: Vec<(String, u64)>,
}

impl WireSpan {
    /// The parent span's index, if any.
    pub fn parent_index(&self) -> Option<usize> {
        if self.parent == u32::MAX {
            None
        } else {
            Some(self.parent as usize)
        }
    }
}

/// One promoted slow query as reported by [`Message::IntrospectOk`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireSlowQuery {
    /// The trace id.
    pub trace_id: u64,
    /// Root span duration in nanoseconds.
    pub root_dur_ns: u64,
    /// Spans that overflowed the trace slab and were dropped.
    pub dropped: u32,
    /// The retained span tree, in recording order (root first).
    pub spans: Vec<WireSpan>,
}

impl From<&SlowQueryEntry> for WireSlowQuery {
    fn from(entry: &SlowQueryEntry) -> Self {
        WireSlowQuery {
            trace_id: entry.trace.id().raw(),
            root_dur_ns: entry.trace.root_duration_ns(),
            dropped: entry.trace.dropped(),
            spans: entry
                .trace
                .spans()
                .iter()
                .map(|span| WireSpan {
                    name: span.name().to_string(),
                    start_ns: span.start_ns(),
                    dur_ns: span.dur_ns(),
                    parent: span
                        .parent()
                        .and_then(|p| p.index())
                        .map(|i| i as u32)
                        .unwrap_or(u32::MAX),
                    attrs: span
                        .attrs()
                        .iter()
                        .map(|&(name, value)| (name.to_string(), value))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// An [`Message::IntrospectOk`] payload.
#[derive(Debug, Clone, PartialEq)]
pub enum IntrospectReport {
    /// Text exposition of every registry the server can reach.
    Metrics {
        /// The rendered metrics.
        text: String,
    },
    /// The retained slow-query entries, oldest first.
    SlowQueries {
        /// Promoted traces with their span trees.
        entries: Vec<WireSlowQuery>,
    },
}

/// One protocol message. Requests carry a client-chosen `id` that the
/// matching reply echoes; [`Message::Delta`] is server-initiated (no id).
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Execute one RkNNT query.
    Query {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
        /// The query to execute.
        query: RknntQuery,
        /// Optional trace id for end-to-end request tracing. `None`
        /// encodes to the original (pre-tracing) wire bytes, so old
        /// clients and servers interoperate unchanged.
        trace: Option<u64>,
    },
    /// Register a standing query; deltas stream back as the store churns.
    Subscribe {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
        /// The standing query.
        query: RknntQuery,
    },
    /// Drop a standing query previously registered on this connection.
    Unsubscribe {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
        /// The subscription handle from [`Message::SubscribeOk`].
        subscription: u64,
    },
    /// Apply store updates through the service's normal update path.
    ApplyUpdates {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
        /// Updates, applied in order.
        updates: Vec<StoreUpdate>,
        /// Optional trace id (same backwards-compatible encoding rule as
        /// [`Message::Query`]).
        trace: Option<u64>,
    },
    /// Liveness probe.
    Ping {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
    },
    /// Fetch server-side observability state. Answered directly from the
    /// connection's reader thread — never queued, never shed — so it works
    /// even while the executor is saturated.
    Introspect {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
        /// What to fetch.
        what: IntrospectWhat,
    },
    /// Health / resync probe: asks the backend for its applied-update
    /// watermark. Routed through the executor queue (unlike
    /// [`Message::Introspect`]) — a probe that comes back proves the whole
    /// request path is live, which is exactly what a half-open circuit
    /// breaker needs to know.
    Health {
        /// Client-chosen request id, echoed by the reply.
        id: u64,
    },
    /// Successful [`Message::Query`] reply.
    QueryOk {
        /// Echoed request id.
        id: u64,
        /// Qualifying transition ids, sorted ascending — byte-identical to
        /// in-process execution.
        transitions: Vec<TransitionId>,
    },
    /// Successful [`Message::Subscribe`] reply.
    SubscribeOk {
        /// Echoed request id.
        id: u64,
        /// Handle for [`Message::Unsubscribe`] and delta correlation.
        subscription: u64,
        /// The subscription's initial result.
        transitions: Vec<TransitionId>,
    },
    /// Successful [`Message::Unsubscribe`] reply.
    UnsubscribeOk {
        /// Echoed request id.
        id: u64,
        /// Whether the handle named a live subscription of this connection.
        existed: bool,
    },
    /// Successful [`Message::ApplyUpdates`] reply.
    UpdatesOk {
        /// Echoed request id.
        id: u64,
        /// Updates applied to the stores.
        applied: u64,
        /// Updates rejected at the store boundary.
        rejected: u64,
    },
    /// [`Message::Ping`] reply.
    Pong {
        /// Echoed request id.
        id: u64,
    },
    /// Successful [`Message::Introspect`] reply.
    IntrospectOk {
        /// Echoed request id.
        id: u64,
        /// The requested observability state.
        report: IntrospectReport,
    },
    /// Successful [`Message::Health`] reply.
    HealthOk {
        /// Echoed request id.
        id: u64,
        /// Applied-update watermark: how many update records this backend
        /// has ever received, durable across restarts when storage is
        /// attached (`StorageStats::next_seq − 1` — one WAL frame per
        /// record). A router replays its per-shard update log from exactly
        /// this index to resync a recovered shard.
        watermark: u64,
    },
    /// Admission control refused the request — fast-failed, never queued.
    Overloaded {
        /// Echoed request id.
        id: u64,
        /// The admission state that triggered the shed.
        info: OverloadInfo,
    },
    /// Protocol-level failure (malformed message, unexpected kind). `id` is
    /// 0 when the request id could not be recovered.
    Error {
        /// Echoed request id, or 0.
        id: u64,
        /// Human-readable description.
        message: String,
    },
    /// Server-initiated push: a subscription's result changed.
    Delta {
        /// The subscription handle from [`Message::SubscribeOk`].
        subscription: u64,
        /// Transitions that entered the result, sorted ascending.
        entered: Vec<TransitionId>,
        /// Transitions that left the result, sorted ascending.
        left: Vec<TransitionId>,
        /// Why the result changed.
        reason: DeltaReason,
    },
}

const TAG_QUERY: u8 = 0x01;
const TAG_SUBSCRIBE: u8 = 0x02;
const TAG_UNSUBSCRIBE: u8 = 0x03;
const TAG_APPLY_UPDATES: u8 = 0x04;
const TAG_PING: u8 = 0x05;
const TAG_INTROSPECT: u8 = 0x06;
// Traced twins of Query / ApplyUpdates. Untraced messages keep the original
// tags and byte layout, so pre-tracing peers interoperate unchanged; the
// trace id only ever appears under a tag an old decoder would reject
// outright rather than misparse.
const TAG_QUERY_TRACED: u8 = 0x07;
const TAG_APPLY_UPDATES_TRACED: u8 = 0x08;
const TAG_HEALTH: u8 = 0x09;
const TAG_QUERY_OK: u8 = 0x81;
const TAG_SUBSCRIBE_OK: u8 = 0x82;
const TAG_UNSUBSCRIBE_OK: u8 = 0x83;
const TAG_UPDATES_OK: u8 = 0x84;
const TAG_PONG: u8 = 0x85;
const TAG_INTROSPECT_OK: u8 = 0x86;
const TAG_HEALTH_OK: u8 = 0x87;
const TAG_OVERLOADED: u8 = 0x90;
const TAG_ERROR: u8 = 0x91;
const TAG_DELTA: u8 = 0xA0;

fn encode_query(enc: &mut Encoder, query: &RknntQuery) {
    enc.u8(match query.semantics {
        Semantics::Exists => 0,
        Semantics::ForAll => 1,
    });
    enc.len_prefix(query.k);
    enc.points(&query.route);
}

fn decode_query(dec: &mut Decoder<'_>) -> CodecResult<RknntQuery> {
    let semantics = match dec.u8()? {
        0 => Semantics::Exists,
        1 => Semantics::ForAll,
        other => {
            return Err(CodecError {
                offset: dec.position().saturating_sub(1),
                detail: format!("bad semantics byte {other}"),
            })
        }
    };
    let k = dec.usize()?;
    let route = dec.points()?;
    Ok(RknntQuery {
        route,
        k,
        semantics,
    })
}

fn encode_transitions(enc: &mut Encoder, transitions: &[TransitionId]) {
    enc.len_prefix(transitions.len());
    for t in transitions {
        enc.u32(t.raw());
    }
}

fn decode_transitions(dec: &mut Decoder<'_>) -> CodecResult<Vec<TransitionId>> {
    let len = dec.len_prefix(4)?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(TransitionId::from(dec.u32()?));
    }
    Ok(out)
}

impl Message {
    /// The request id this message carries (0 for [`Message::Delta`]).
    pub fn request_id(&self) -> u64 {
        match *self {
            Message::Query { id, .. }
            | Message::Subscribe { id, .. }
            | Message::Unsubscribe { id, .. }
            | Message::ApplyUpdates { id, .. }
            | Message::Ping { id }
            | Message::Introspect { id, .. }
            | Message::Health { id }
            | Message::QueryOk { id, .. }
            | Message::SubscribeOk { id, .. }
            | Message::UnsubscribeOk { id, .. }
            | Message::UpdatesOk { id, .. }
            | Message::Pong { id }
            | Message::IntrospectOk { id, .. }
            | Message::HealthOk { id, .. }
            | Message::Overloaded { id, .. }
            | Message::Error { id, .. } => id,
            Message::Delta { .. } => 0,
        }
    }

    /// Whether this is a client→server request kind.
    pub fn is_request(&self) -> bool {
        matches!(
            self,
            Message::Query { .. }
                | Message::Subscribe { .. }
                | Message::Unsubscribe { .. }
                | Message::ApplyUpdates { .. }
                | Message::Ping { .. }
                | Message::Introspect { .. }
                | Message::Health { .. }
        )
    }

    /// Encodes the message to a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            Message::Query { id, query, trace } => {
                // An untraced query encodes byte-for-byte like the
                // pre-tracing protocol; the trace id rides a new tag.
                match trace {
                    None => enc.u8(TAG_QUERY),
                    Some(t) => {
                        enc.u8(TAG_QUERY_TRACED);
                        enc.u64(*t);
                    }
                }
                enc.u64(*id);
                encode_query(&mut enc, query);
            }
            Message::Subscribe { id, query } => {
                enc.u8(TAG_SUBSCRIBE);
                enc.u64(*id);
                encode_query(&mut enc, query);
            }
            Message::Unsubscribe { id, subscription } => {
                enc.u8(TAG_UNSUBSCRIBE);
                enc.u64(*id);
                enc.u64(*subscription);
            }
            Message::ApplyUpdates { id, updates, trace } => {
                match trace {
                    None => enc.u8(TAG_APPLY_UPDATES),
                    Some(t) => {
                        enc.u8(TAG_APPLY_UPDATES_TRACED);
                        enc.u64(*t);
                    }
                }
                enc.u64(*id);
                enc.len_prefix(updates.len());
                for update in updates {
                    enc.bytes(&update.to_wal_record());
                }
            }
            Message::Ping { id } => {
                enc.u8(TAG_PING);
                enc.u64(*id);
            }
            Message::Introspect { id, what } => {
                enc.u8(TAG_INTROSPECT);
                enc.u64(*id);
                enc.u8(match what {
                    IntrospectWhat::Metrics => 0,
                    IntrospectWhat::SlowQueries => 1,
                });
            }
            Message::Health { id } => {
                enc.u8(TAG_HEALTH);
                enc.u64(*id);
            }
            Message::QueryOk { id, transitions } => {
                enc.u8(TAG_QUERY_OK);
                enc.u64(*id);
                encode_transitions(&mut enc, transitions);
            }
            Message::SubscribeOk {
                id,
                subscription,
                transitions,
            } => {
                enc.u8(TAG_SUBSCRIBE_OK);
                enc.u64(*id);
                enc.u64(*subscription);
                encode_transitions(&mut enc, transitions);
            }
            Message::UnsubscribeOk { id, existed } => {
                enc.u8(TAG_UNSUBSCRIBE_OK);
                enc.u64(*id);
                enc.bool(*existed);
            }
            Message::UpdatesOk {
                id,
                applied,
                rejected,
            } => {
                enc.u8(TAG_UPDATES_OK);
                enc.u64(*id);
                enc.u64(*applied);
                enc.u64(*rejected);
            }
            Message::Pong { id } => {
                enc.u8(TAG_PONG);
                enc.u64(*id);
            }
            Message::IntrospectOk { id, report } => {
                enc.u8(TAG_INTROSPECT_OK);
                enc.u64(*id);
                match report {
                    IntrospectReport::Metrics { text } => {
                        enc.u8(0);
                        enc.str(text);
                    }
                    IntrospectReport::SlowQueries { entries } => {
                        enc.u8(1);
                        enc.len_prefix(entries.len());
                        for entry in entries {
                            enc.u64(entry.trace_id);
                            enc.u64(entry.root_dur_ns);
                            enc.u32(entry.dropped);
                            enc.len_prefix(entry.spans.len());
                            for span in &entry.spans {
                                enc.str(&span.name);
                                enc.u64(span.start_ns);
                                enc.u64(span.dur_ns);
                                enc.u32(span.parent);
                                enc.len_prefix(span.attrs.len());
                                for (name, value) in &span.attrs {
                                    enc.str(name);
                                    enc.u64(*value);
                                }
                            }
                        }
                    }
                }
            }
            Message::HealthOk { id, watermark } => {
                enc.u8(TAG_HEALTH_OK);
                enc.u64(*id);
                enc.u64(*watermark);
            }
            Message::Overloaded { id, info } => {
                enc.u8(TAG_OVERLOADED);
                enc.u64(*id);
                enc.u64(info.queue_depth);
                enc.u64(info.queue_cost);
                enc.u64(info.estimated_cost);
                enc.u64(info.cost_budget);
            }
            Message::Error { id, message } => {
                enc.u8(TAG_ERROR);
                enc.u64(*id);
                enc.str(message);
            }
            Message::Delta {
                subscription,
                entered,
                left,
                reason,
            } => {
                enc.u8(TAG_DELTA);
                enc.u64(*subscription);
                encode_transitions(&mut enc, entered);
                encode_transitions(&mut enc, left);
                enc.u8(match reason {
                    DeltaReason::TransitionExpired => 0,
                    DeltaReason::RouteRemoved => 1,
                    DeltaReason::TransitionArrived => 2,
                    DeltaReason::RouteInserted => 3,
                });
            }
        }
        enc.into_bytes()
    }

    /// Decodes a frame payload, rejecting unknown tags and trailing bytes.
    pub fn decode(payload: &[u8]) -> CodecResult<Message> {
        let mut dec = Decoder::new(payload);
        let tag = dec.u8()?;
        let msg = match tag {
            TAG_QUERY => Message::Query {
                id: dec.u64()?,
                query: decode_query(&mut dec)?,
                trace: None,
            },
            TAG_QUERY_TRACED => {
                let trace = Some(dec.u64()?);
                Message::Query {
                    id: dec.u64()?,
                    query: decode_query(&mut dec)?,
                    trace,
                }
            }
            TAG_SUBSCRIBE => Message::Subscribe {
                id: dec.u64()?,
                query: decode_query(&mut dec)?,
            },
            TAG_UNSUBSCRIBE => Message::Unsubscribe {
                id: dec.u64()?,
                subscription: dec.u64()?,
            },
            TAG_APPLY_UPDATES | TAG_APPLY_UPDATES_TRACED => {
                let trace = if tag == TAG_APPLY_UPDATES_TRACED {
                    Some(dec.u64()?)
                } else {
                    None
                };
                let id = dec.u64()?;
                let len = dec.len_prefix(8)?;
                let mut updates = Vec::with_capacity(len);
                for _ in 0..len {
                    updates.push(StoreUpdate::from_wal_record(dec.bytes()?)?);
                }
                Message::ApplyUpdates { id, updates, trace }
            }
            TAG_PING => Message::Ping { id: dec.u64()? },
            TAG_INTROSPECT => Message::Introspect {
                id: dec.u64()?,
                what: match dec.u8()? {
                    0 => IntrospectWhat::Metrics,
                    1 => IntrospectWhat::SlowQueries,
                    other => {
                        return Err(CodecError {
                            offset: dec.position().saturating_sub(1),
                            detail: format!("bad introspect kind byte {other}"),
                        })
                    }
                },
            },
            TAG_HEALTH => Message::Health { id: dec.u64()? },
            TAG_QUERY_OK => Message::QueryOk {
                id: dec.u64()?,
                transitions: decode_transitions(&mut dec)?,
            },
            TAG_SUBSCRIBE_OK => Message::SubscribeOk {
                id: dec.u64()?,
                subscription: dec.u64()?,
                transitions: decode_transitions(&mut dec)?,
            },
            TAG_UNSUBSCRIBE_OK => Message::UnsubscribeOk {
                id: dec.u64()?,
                existed: dec.bool()?,
            },
            TAG_UPDATES_OK => Message::UpdatesOk {
                id: dec.u64()?,
                applied: dec.u64()?,
                rejected: dec.u64()?,
            },
            TAG_PONG => Message::Pong { id: dec.u64()? },
            TAG_INTROSPECT_OK => {
                let id = dec.u64()?;
                let report = match dec.u8()? {
                    0 => IntrospectReport::Metrics { text: dec.str()? },
                    1 => {
                        let len = dec.len_prefix(21)?;
                        let mut entries = Vec::with_capacity(len);
                        for _ in 0..len {
                            let trace_id = dec.u64()?;
                            let root_dur_ns = dec.u64()?;
                            let dropped = dec.u32()?;
                            let span_count = dec.len_prefix(25)?;
                            let mut spans = Vec::with_capacity(span_count);
                            for _ in 0..span_count {
                                let name = dec.str()?;
                                let start_ns = dec.u64()?;
                                let dur_ns = dec.u64()?;
                                let parent = dec.u32()?;
                                let attr_count = dec.len_prefix(12)?;
                                let mut attrs = Vec::with_capacity(attr_count);
                                for _ in 0..attr_count {
                                    let attr_name = dec.str()?;
                                    attrs.push((attr_name, dec.u64()?));
                                }
                                spans.push(WireSpan {
                                    name,
                                    start_ns,
                                    dur_ns,
                                    parent,
                                    attrs,
                                });
                            }
                            entries.push(WireSlowQuery {
                                trace_id,
                                root_dur_ns,
                                dropped,
                                spans,
                            });
                        }
                        IntrospectReport::SlowQueries { entries }
                    }
                    other => {
                        return Err(CodecError {
                            offset: dec.position().saturating_sub(1),
                            detail: format!("bad introspect report byte {other}"),
                        })
                    }
                };
                Message::IntrospectOk { id, report }
            }
            TAG_HEALTH_OK => Message::HealthOk {
                id: dec.u64()?,
                watermark: dec.u64()?,
            },
            TAG_OVERLOADED => Message::Overloaded {
                id: dec.u64()?,
                info: OverloadInfo {
                    queue_depth: dec.u64()?,
                    queue_cost: dec.u64()?,
                    estimated_cost: dec.u64()?,
                    cost_budget: dec.u64()?,
                },
            },
            TAG_ERROR => Message::Error {
                id: dec.u64()?,
                message: dec.str()?,
            },
            TAG_DELTA => Message::Delta {
                subscription: dec.u64()?,
                entered: decode_transitions(&mut dec)?,
                left: decode_transitions(&mut dec)?,
                reason: match dec.u8()? {
                    0 => DeltaReason::TransitionExpired,
                    1 => DeltaReason::RouteRemoved,
                    2 => DeltaReason::TransitionArrived,
                    3 => DeltaReason::RouteInserted,
                    other => {
                        return Err(CodecError {
                            offset: dec.position().saturating_sub(1),
                            detail: format!("bad delta reason byte {other}"),
                        })
                    }
                },
            },
            other => {
                return Err(CodecError {
                    offset: 0,
                    detail: format!("unknown message tag 0x{other:02X}"),
                })
            }
        };
        dec.expect_exhausted()?;
        Ok(msg)
    }
}

/// The admission-control cost estimate for a request.
///
/// Queries and subscriptions cost `route_points × k` — the same two
/// quantities the batch layer's grouping and filter-sharing work scales
/// with, so summed queue cost tracks queued execution work rather than
/// request count. Control messages (unsubscribe, updates, ping) cost 1:
/// they are store-bound, not query-engine-bound.
pub fn estimate_cost(msg: &Message) -> u64 {
    match msg {
        Message::Query { query, .. } | Message::Subscribe { query, .. } => {
            (query.route.len().max(1) as u64) * (query.k.max(1) as u64)
        }
        _ => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rknnt_geo::Point;

    fn sample_messages() -> Vec<Message> {
        let query = RknntQuery {
            route: vec![Point::new(1.5, -2.5), Point::new(3.0, 4.0)],
            k: 3,
            semantics: Semantics::ForAll,
        };
        vec![
            Message::Query {
                id: 7,
                query: query.clone(),
                trace: None,
            },
            Message::Query {
                id: 13,
                query: query.clone(),
                trace: Some(0xDEAD_BEEF),
            },
            Message::Subscribe { id: 8, query },
            Message::Unsubscribe {
                id: 9,
                subscription: 42,
            },
            Message::ApplyUpdates {
                id: 10,
                updates: vec![
                    StoreUpdate::InsertTransition {
                        origin: Point::new(0.0, 1.0),
                        destination: Point::new(2.0, 3.0),
                    },
                    StoreUpdate::ExpireTransition(TransitionId::from(5)),
                ],
                trace: None,
            },
            Message::ApplyUpdates {
                id: 14,
                updates: vec![StoreUpdate::ExpireTransition(TransitionId::from(6))],
                trace: Some(0xDEAD_BEEF),
            },
            Message::Ping { id: 11 },
            Message::Introspect {
                id: 15,
                what: IntrospectWhat::Metrics,
            },
            Message::Introspect {
                id: 16,
                what: IntrospectWhat::SlowQueries,
            },
            Message::Health { id: 18 },
            Message::QueryOk {
                id: 7,
                transitions: vec![TransitionId::from(1), TransitionId::from(9)],
            },
            Message::SubscribeOk {
                id: 8,
                subscription: 42,
                transitions: vec![TransitionId::from(2)],
            },
            Message::UnsubscribeOk {
                id: 9,
                existed: true,
            },
            Message::UpdatesOk {
                id: 10,
                applied: 2,
                rejected: 0,
            },
            Message::Pong { id: 11 },
            Message::IntrospectOk {
                id: 15,
                report: IntrospectReport::Metrics {
                    text: "counter=net.admitted value=3\n".into(),
                },
            },
            Message::IntrospectOk {
                id: 16,
                report: IntrospectReport::SlowQueries {
                    entries: vec![WireSlowQuery {
                        trace_id: 0xDEAD_BEEF,
                        root_dur_ns: 1_234_567,
                        dropped: 2,
                        spans: vec![
                            WireSpan {
                                name: "request".into(),
                                start_ns: 0,
                                dur_ns: 1_234_567,
                                parent: u32::MAX,
                                attrs: vec![],
                            },
                            WireSpan {
                                name: "shard".into(),
                                start_ns: 100,
                                dur_ns: 900,
                                parent: 0,
                                attrs: vec![("shard".into(), 3), ("pruned".into(), 1)],
                            },
                        ],
                    }],
                },
            },
            Message::HealthOk {
                id: 18,
                watermark: 37,
            },
            Message::Overloaded {
                id: 12,
                info: OverloadInfo {
                    queue_depth: 3,
                    queue_cost: 17,
                    estimated_cost: 6,
                    cost_budget: 20,
                },
            },
            Message::Error {
                id: 0,
                message: "malformed frame".into(),
            },
            Message::Delta {
                subscription: 42,
                entered: vec![TransitionId::from(4)],
                left: vec![],
                reason: DeltaReason::RouteRemoved,
            },
        ]
    }

    #[test]
    fn every_delta_reason_roundtrips_and_an_unknown_one_is_a_typed_error() {
        let delta = |reason| Message::Delta {
            subscription: 7,
            entered: vec![TransitionId::from(9)],
            left: vec![TransitionId::from(2)],
            reason,
        };
        for (reason, tag) in [
            (DeltaReason::TransitionExpired, 0u8),
            (DeltaReason::RouteRemoved, 1),
            (DeltaReason::TransitionArrived, 2),
            (DeltaReason::RouteInserted, 3),
        ] {
            let bytes = delta(reason).encode();
            assert_eq!(bytes.last(), Some(&tag), "{reason:?} is the final byte");
            assert_eq!(Message::decode(&bytes).unwrap(), delta(reason));
        }
        let mut bytes = delta(DeltaReason::TransitionArrived).encode();
        *bytes.last_mut().unwrap() = 4;
        let err = Message::decode(&bytes).unwrap_err();
        assert!(err.detail.contains("bad delta reason byte 4"), "{err:?}");
        assert_eq!(err.offset, bytes.len() - 1);
    }

    #[test]
    fn messages_roundtrip() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            let back = Message::decode(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut wire = Vec::new();
        for msg in sample_messages() {
            write_frame(&mut wire, &msg.encode()).unwrap();
        }
        let mut reader = wire.as_slice();
        let mut buf = Vec::new();
        let mut decoded = Vec::new();
        while read_frame(&mut reader, &mut buf).unwrap().is_some() {
            decoded.push(Message::decode(&buf).unwrap());
        }
        assert_eq!(decoded, sample_messages());
    }

    #[test]
    fn truncated_frame_is_unexpected_eof() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Message::Ping { id: 1 }.encode()).unwrap();
        for cut in 1..wire.len() {
            let mut reader = &wire[..cut];
            let mut buf = Vec::new();
            let err = read_frame(&mut reader, &mut buf).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn corrupted_frame_fails_checksum() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &Message::Ping { id: 1 }.encode()).unwrap();
        for byte in 0..wire.len() {
            let mut bad = wire.clone();
            bad[byte] ^= 0x40;
            let mut reader = bad.as_slice();
            let mut buf = Vec::new();
            // Every single-bit-ish corruption must fail — either the checksum
            // or (if the length field grew) an EOF mid-payload.
            assert!(
                read_frame(&mut reader, &mut buf).is_err(),
                "corruption at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn hostile_frame_length_is_capped_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&0u32.to_le_bytes());
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut reader = wire.as_slice();
        let mut buf = Vec::new();
        let err = read_frame(&mut reader, &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cap"));
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        assert!(Message::decode(&[0x7F]).is_err());
        let mut bytes = Message::Ping { id: 3 }.encode();
        bytes.push(0);
        let err = Message::decode(&bytes).unwrap_err();
        assert!(err.detail.contains("trailing"));
    }

    /// The wire-compatibility contract: an untraced Query / ApplyUpdates
    /// encodes byte-for-byte under the original tags, so a pre-tracing
    /// decoder still accepts it — the trace id only ever travels under the
    /// new tags.
    #[test]
    fn untraced_messages_keep_the_original_wire_tags() {
        let query = RknntQuery {
            route: vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)],
            k: 2,
            semantics: Semantics::Exists,
        };
        let untraced = Message::Query {
            id: 1,
            query: query.clone(),
            trace: None,
        }
        .encode();
        assert_eq!(untraced[0], TAG_QUERY);
        let traced = Message::Query {
            id: 1,
            query: query.clone(),
            trace: Some(99),
        }
        .encode();
        assert_eq!(traced[0], TAG_QUERY_TRACED);
        // Dropping the tag and the 8 trace-id bytes recovers exactly the
        // untraced encoding's body.
        assert_eq!(&traced[9..], &untraced[1..]);

        let updates = vec![StoreUpdate::ExpireTransition(TransitionId::from(1))];
        let untraced = Message::ApplyUpdates {
            id: 2,
            updates: updates.clone(),
            trace: None,
        }
        .encode();
        assert_eq!(untraced[0], TAG_APPLY_UPDATES);
        let traced = Message::ApplyUpdates {
            id: 2,
            updates,
            trace: Some(7),
        }
        .encode();
        assert_eq!(traced[0], TAG_APPLY_UPDATES_TRACED);
        assert_eq!(&traced[9..], &untraced[1..]);
    }

    /// Only codes 0 (metrics) and 1 (slow queries) exist, on the request and
    /// on the report; anything else is a typed error at the code byte.
    #[test]
    fn bad_introspect_bytes_are_rejected() {
        for (tag, needle) in [
            (TAG_INTROSPECT, "bad introspect kind byte"),
            (TAG_INTROSPECT_OK, "bad introspect report byte"),
        ] {
            for code in [2u8, 9] {
                let mut enc = Encoder::new();
                enc.u8(tag);
                enc.u64(1);
                enc.u8(code);
                enc.str("payload of a kind this build does not know");
                let bytes = enc.into_bytes();
                let err = Message::decode(&bytes).unwrap_err();
                assert_eq!(err.detail, format!("{needle} {code}"));
                assert_eq!(err.offset, 9);
            }
        }
    }

    #[test]
    fn cost_estimate_scales_with_route_and_k() {
        let small = Message::Query {
            id: 1,
            query: RknntQuery {
                route: vec![Point::new(0.0, 0.0); 2],
                k: 1,
                semantics: Semantics::Exists,
            },
            trace: None,
        };
        let big = Message::Query {
            id: 2,
            query: RknntQuery {
                route: vec![Point::new(0.0, 0.0); 10],
                k: 8,
                semantics: Semantics::Exists,
            },
            trace: None,
        };
        assert_eq!(estimate_cost(&small), 2);
        assert_eq!(estimate_cost(&big), 80);
        assert_eq!(estimate_cost(&Message::Ping { id: 3 }), 1);
    }
}

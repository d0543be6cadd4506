//! Observability substrate for the Mimir reproduction.
//!
//! Four pieces, all dependency-free:
//!
//! - **Event tracing** ([`recorder`]): a per-rank [`Recorder`] holding a
//!   preallocated ring of fixed-size [`Event`]s. Rank threads install a
//!   recorder; instrumentation throughout the stack calls [`emit`] /
//!   [`phase_span`] / [`step_span`], which cost nothing when tracing is
//!   off and never allocate when it is on. Enabled with `MIMIR_TRACE=1`.
//! - **Metrics registry** ([`report`]): [`RankReport`] unifies the
//!   communication, memory-pool, shuffle, grouping, cache and job
//!   statistics of every layer into one serializable record with
//!   cross-rank [`RankReport::merge`]. Each section is declared once with
//!   [`counters!`], which generates its struct, merge and JSON from one
//!   per-field rule table ([`mod@counters`]).
//! - **Exporters** ([`chrome`], [`jsonl`]): chrome trace_event JSON for
//!   Perfetto / `about://tracing`, and JSON-lines for scripting. Both sit
//!   on the crate's own minimal [`json`] module, so nothing external is
//!   needed to write *or* parse them.
//! - **Flight recorder** ([`live`]): crash-scoped postmortem dumps
//!   (`MIMIR_FLIGHT_DIR`), so failed runs still leave a
//!   doctor-ingestible record.

#![warn(missing_docs)]

pub mod chrome;
pub mod counters;
pub mod event;
pub mod json;
pub mod jsonl;
pub mod live;
pub mod recorder;
pub mod report;

pub use chrome::{chrome_trace, chrome_trace_string};
pub use counters::Counter;
pub use event::{pack_rank_bytes, unpack_rank_bytes, Event, EventKind, Phase, Step};
pub use json::{Json, JsonError};
pub use jsonl::jsonl_string;
pub use live::{arm_sigterm, disarm_sigterm, flight_dump};
pub use recorder::{
    active, emit, env_capacity, env_enabled, env_flow_enabled, flow_recv, flow_send, install,
    next_flow_id, phase_span, span, step_span, take, Recorder, SpanGuard, DEFAULT_CAPACITY,
    FLOW_SEQ_BITS,
};
pub use report::{
    CacheCounters, CacheNameRecord, CommCounters, GroupCounters, JobCounters, MemCounters,
    PhasePeaks, PhaseTimes, RankReport, ShuffleCounters, WaitCounters, PROBE_HIST_BUCKETS,
};

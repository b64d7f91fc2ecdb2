//! # paxsim-serve
//!
//! A long-running simulation service over the paxsim experiment stack.
//! Clients describe a simulation point — NAS kernel, problem class,
//! Table 1 configuration (or a full machine model), trial count — as one
//! line of JSON over TCP or a Unix socket; the daemon canonicalizes the
//! request into a stable content hash ([`paxsim_core::hash`]) and answers
//! from a two-tier content-addressed cache:
//!
//! * an in-memory LRU for the hot working set (records plus their
//!   rendered reply lines);
//! * a CRC-checked on-disk journal (the same record format the resilient
//!   sweep drivers checkpoint into), so results survive restarts and
//!   corruption is *detected* — a bit-flipped entry recomputes, it is
//!   never served. The file is read only at open: the journal keeps every
//!   record in an in-memory index, so a "disk hit" is a second map lookup,
//!   not I/O, and that index — not the LRU — is what bounds the daemon's
//!   resident records ([`cache`]).
//!
//! The cache is **sharded**: N independent shards selected by
//! consistent-hashing the content hash, each with its own LRU and
//! journal, so lookups for different keys never contend on one lock
//! ([`cache`]).
//!
//! Misses are computed through the existing drivers on a shared
//! [`TraceStore`](paxsim_core::store::TraceStore) and the bounded,
//! panic-isolating [`pool`](paxsim_core::pool) executor. Identical
//! concurrent requests collapse to one computation
//! ([`Inflight`](paxsim_core::inflight::Inflight)); *compatible* distinct
//! requests — same study, different sweep coordinates — gather in the
//! [`batch`] layer and run as one shared sweep under one admission-gate
//! permit. Overload is a typed rejection, not a hung socket. `SIGTERM`
//! drains gracefully: in-flight work finishes and its replies flush, new
//! connections are refused at the socket, and every handler thread is
//! joined.
//!
//! The connection layer is a readiness-driven reactor ([`server`]): one
//! thread per listener, blocked in `poll(2)` on its non-blocking sockets
//! and a wake pipe, plus a fixed compute-worker pool, with
//! per-connection frame reassembly ([`frame`]) — thread count is
//! independent of connection count.
//!
//! The wire protocol is documented in `DESIGN.md` §10 (scaling layers in
//! §13); [`protocol`] is the single source of truth for parsing and
//! rendering it.
//!
//! Failure behavior is a first-class surface (DESIGN.md §14): the
//! [`chaos`] hooks extend the deterministic fault harness into the
//! reactor, workers, batcher, and shard journals; the [`breaker`]
//! quarantines deterministically-crashing configs with typed rejections;
//! the admission gate sheds deadline-expired queued work; and `op=health`
//! reports per-shard + breaker state for orchestrators.

pub mod batch;
pub mod breaker;
pub mod cache;
pub mod chaos;
pub mod frame;
pub mod protocol;
pub mod server;
pub mod service;

pub use cache::ResultCache;
pub use protocol::Request;
pub use server::Server;
pub use service::{ServeConfig, Service};

//! # harp-serve
//!
//! An online scoring service over the compiled
//! [`FlatForest`](harpgbdt::FlatForest) engine: a long-running TCP server
//! speaking a simple length-prefixed binary protocol, built entirely on
//! `std` (no async runtime).
//!
//! The serving pipeline mirrors the paper's training-side discipline —
//! batch the work, bound the queues, account for every phase:
//!
//! * **Protocol** ([`protocol`]): versioned 12-byte frame header with a
//!   client correlation id; dense (`f32`, NaN = missing) and quantized
//!   (`u8` bins, 255 = missing) row payloads; typed error frames. Framing
//!   violations close the connection, semantic ones keep it.
//! * **Adaptive micro-batching** ([`batch`]): requests landing within a
//!   latency window coalesce into one scoring batch — individual 1–64-row
//!   requests ride the same blocked traversal kernels that make offline
//!   batch inference fast. The window is a pure state machine over an
//!   injectable [`clock::Clock`], so its flush policy is tested
//!   deterministically.
//! * **Admission control** ([`server`]): a bounded queue between readers
//!   and the dispatcher; a full queue sheds with a typed `Overloaded`
//!   response instead of letting latency collapse for everyone.
//! * **Zero-downtime hot-swap** ([`swap`]): the forest lives behind an
//!   atomically replaceable `Arc`; each batch scores against one snapshot,
//!   so every response comes from exactly one complete model.
//! * **Observability** ([`stats`], [`metrics_http`]): one declaration per
//!   counter (a `counter_table!`, as the trainer's `Profile`) and per
//!   latency phase (queue-wait / assemble / predict / write plus
//!   end-to-end, one histogram each), and every output a view of one
//!   [`StatsSnapshot`]: a `Stats` protocol frame, serve-epoch
//!   [`RunLedger`](harp_metrics::RunLedger) records compatible with
//!   `harpgbdt report` (including `--slo` gating), and a std-only
//!   plain-HTTP `/metrics` endpoint in Prometheus text exposition.
//! * **Hostile-input battery** ([`battery`]): one shared set of
//!   malformed-frame attacks used by the integration tests, the
//!   `bench_serve` load generator, and CI.

pub mod batch;
pub mod battery;
pub mod client;
pub mod clock;
pub mod metrics_http;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod swap;

pub use batch::BatchWindow;
pub use client::{ScoreReply, ServeClient};
pub use clock::{Clock, ManualClock, SystemClock};
pub use metrics_http::render_prometheus;
pub use protocol::{ErrorCode, Frame, FrameType, ProtocolError, RowsPayload};
pub use server::{serve, serve_with_clock, ServeConfig, ServerHandle};
pub use stats::{Phase, ServeCounters, ServeCounts, ServeStats, StatsSnapshot};
pub use swap::{ForestSlot, ServingForest};

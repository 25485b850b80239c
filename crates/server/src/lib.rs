//! # lr-server
//!
//! The **networked multi-session front-end**: where [`lr_dc::server`]
//! puts the TC↔DC boundary on the wire, this crate puts the *client*
//! boundary on the wire — Deuteronomy's TC as a server that many remote
//! sessions talk to concurrently (§1.1's "TC and DC on disparate
//! physical system configurations" extended one layer up, to the
//! application). Both boundaries run on the one RPC stack in
//! [`lr_common::rpc`]: its connections (TCP, in-process channels), accept
//! loop, serve loop and client call.
//!
//! The pieces:
//!
//! * [`protocol`] — [`ClientRequest`] / [`ClientReply`]: the full
//!   [`lr_core::Session`] surface (begin/read/write/commit/abort/
//!   savepoint/scan) plus handshake, liveness, and metrics introspection;
//! * [`server`] — max-session **admission control** (typed
//!   [`lr_common::rpc::WireError::ServerBusy`] rejection, never a silent
//!   hang), dispatch onto one engine session per connection,
//!   abort-on-disconnect, and `server_`-prefixed metrics;
//! * [`client`] — a remote session: same methods, same typed errors, plus
//!   the same no-wait conflict-retry helper the session layer has.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use protocol::{ClientReply, ClientRequest};
pub use server::{Server, ServerConfig, ServerStats};

//! qnet: the network serving layer — the execution service over TCP.
//!
//! Everything below `qexec` is a library: the executor, the backends, the samplers
//! all live in the caller's process.  This crate puts the executor behind a socket
//! so a fleet of drivers can share one, in three layers:
//!
//! * [`wire`] — a versioned, length-prefixed binary codec for jobs, submit options,
//!   results, and structured errors.  This is the system's first untrusted-input
//!   boundary: every decode is bounds-checked, frames are capped
//!   ([`wire::DEFAULT_MAX_FRAME`], tunable via `QNET_MAX_FRAME`), and malformed
//!   payloads produce recoverable errors, never panics.
//! * [`server`] — a [`NetServer`] binding a `TcpListener` over an
//!   [`std::sync::Arc`]`<`[`qexec::Executor`]`>`.  Each connection maps to one
//!   [`qexec::ExecClient`], so the executor's fair round-robin and per-client
//!   admission apply **per connection**.  A submitted frame is one unit both ways:
//!   a batch frame's shared circuit and operators are decoded once, and its results
//!   leave in one write when its last job completes, out of order across frames as
//!   request-id-tagged frames; rejections travel as structured error frames, not
//!   dropped connections; a peer that stops reading is dropped once
//!   `max_frame` bytes wait behind its unfinished write; shutdown drains in-flight work before closing.
//! * [`client`] — a [`NetClient`] with the local client's blocking submit/handle
//!   API ([`RemoteHandle`]`::{wait, wait_timeout, try_result}`), backed by a
//!   demultiplexer thread.  It implements [`qexec::JobSubmitter`], so the drivers
//!   built on it — `qexec::run_single_vqa`, the TreeVQA controller — run against a
//!   remote executor unchanged.
//!
//! Determinism crosses the wire: [`qexec::SubmitOptions::rng_stream`] is part of
//! the submit frame, so a job pinned to a [`qrng::StreamId`] draws the same
//! randomness whether it runs in-process or on a server three hops away.  The
//! schedule-independence contract (PR 9) does the rest — results are bit-identical
//! regardless of which connection or interleaving carried the job.
//!
//! ```no_run
//! use qexec::{EvalJob, Executor};
//! use qnet::{NetClient, NetServer};
//! use std::sync::Arc;
//! use vqa::StatevectorBackend;
//!
//! # fn job() -> EvalJob { unimplemented!() }
//! let executor = Arc::new(Executor::builder().register("sv", StatevectorBackend::new()).start());
//! let server = NetServer::bind("127.0.0.1:0", executor).unwrap();
//! let client = NetClient::connect(server.local_addr()).unwrap();
//! let result = client.submit(job()).unwrap().wait().unwrap();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod server;
pub mod wire;

pub use client::{NetClient, RemoteHandle};
pub use server::{NetServer, NetServerBuilder};
pub use wire::{Frame, WireError};

/// The bind address for a serving process from `QNET_ADDR` (default
/// `127.0.0.1:0`: loopback, OS-assigned port).  The library itself never reads
/// this — [`NetServer::bind`] takes an explicit address — but serving binaries
/// (`qnet_serve`) use it so deployments choose the listen interface without a
/// flag parser.
pub fn addr_from_env() -> String {
    std::env::var("QNET_ADDR")
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "127.0.0.1:0".to_string())
}

/// Maximum simultaneous connections from `QNET_MAX_CONNS` (default 64; values
/// below 1 are clamped to 1).  Connections beyond the cap receive a polite
/// over-capacity control frame and are closed, rather than hanging in the accept
/// backlog.
pub fn max_conns_from_env() -> usize {
    std::env::var("QNET_MAX_CONNS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or(64)
}

/// Maximum frame size in bytes from `QNET_MAX_FRAME` (default
/// [`wire::DEFAULT_MAX_FRAME`]; values below 1024 are clamped to 1024 so headers
/// and error frames always fit).
pub fn max_frame_from_env() -> usize {
    std::env::var("QNET_MAX_FRAME")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|v| v.max(1024))
        .unwrap_or(wire::DEFAULT_MAX_FRAME)
}

#[cfg(test)]
mod tests {
    #[test]
    fn env_helpers_defaults() {
        // Note: relies on the vars being unset in the test environment; the CI net
        // job sets them only for the dedicated tuning tests.
        assert_eq!(super::max_conns_from_env(), 64);
        assert_eq!(super::max_frame_from_env(), super::wire::DEFAULT_MAX_FRAME);
        assert_eq!(super::addr_from_env(), "127.0.0.1:0");
    }
}

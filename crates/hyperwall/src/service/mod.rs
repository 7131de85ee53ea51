//! # Multi-tenant session service
//!
//! The wall (one server, fifteen display clients it controls) assumes a
//! single tenant. This module turns the same TCP protocol into a shared
//! analysis service: many concurrent client **sessions**, each with an
//! id, a token-bucket quota, and a bounded inbox, multiplexed onto a
//! fixed worker pool. The one thing sessions share besides the pool is
//! the process-global regrid-plan cache ([`cdat::plan_cache`]); there is
//! no cross-session module-result cache.
//!
//! The load-management ladder reuses the wall's Degraded philosophy —
//! *answer worse before answering nothing, and never answer nothing
//! silently*:
//!
//! 1. **Healthy** — full-quality results.
//! 2. **Overloaded** (queue past the overload watermark) — every request
//!    still runs, but coarsened: quarter-resolution mirror frames,
//!    strided analyses, smaller regrid plans. Clients get `Busy`
//!    advisories carrying the queue depth (backpressure in wire form).
//! 3. **Shedding** (queue past the shed watermark) — queued requests are
//!    evicted in a strict deterministic priority order (most-misbehaving
//!    session first), and **every** evicted request is answered with
//!    `RetryAfter`. Zero silent drops.
//!
//! Fairness is deficit round-robin over two tiers: sessions that keep
//! their quota (conforming) are served strictly before sessions that
//! keep getting rejected (misbehaving), so one open-loop flooder cannot
//! starve everyone else. The scheduler itself is pure, deterministic
//! data ([`mux::SessionMux`]) driven by a logical round clock — the
//! property tests replay scripted traffic and assert never-starves /
//! quota-exact / shed-order invariants without touching a socket.
//!
//! Module map:
//!
//! * [`quota`] — fixed-point token buckets on the round clock.
//! * [`mux`] — admission, DRR scheduling, overload state machine.
//! * [`worker`] — executes [`crate::protocol::ServiceWork`], full or
//!   degraded (regrids plan through the shared plan cache).
//! * [`server`] — the TCP front-end (accept/connection/scheduler/worker
//!   threads, all I/O under total-frame deadlines).
//! * [`client`] — the tenant side, plus scripted misbehavior
//!   (slow-loris, mid-request disconnect, reconnect storm, quota storm)
//!   driven by [`crate::fault::FaultPlan`].

pub mod client;
pub mod mux;
pub mod quota;
pub mod server;
pub mod worker;

pub use client::{ClientRunStats, ServiceClient};
pub use mux::{Admission, MuxConfig, MuxStats, ServiceState, SessionMux, SessionSnapshot};
pub use quota::{QuotaConfig, TokenBucket};
pub use server::{spawn_service, ServiceConfig, ServiceHandle, ServiceReport};

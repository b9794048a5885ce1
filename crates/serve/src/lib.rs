//! # cqa-serve — the persistent solver service
//!
//! The dichotomy's economics (Hannula & Wijsen, PODS 2022) make
//! classification plus plan compilation the expensive, once-per-`(q, FK)`
//! step and per-instance answering cheap. This crate turns that shape
//! into a long-lived server: `cqa serve` speaks a line-delimited JSON
//! protocol over a Unix-domain or TCP socket, and every request for an
//! already-seen problem is answered through one shared, cached
//! [`Solver`](cqa_core::Solver) — classification and compilation
//! amortized across the whole request stream.
//!
//! Three pieces, one per module:
//!
//! * [`cache`] — the bounded LRU [`PlanCache`], keyed by canonicalized
//!   `(schema, query, fks, join)`, holding `Arc<Solver>`s
//!   (`Solver: Send + Sync`, pinned by a compile-time assertion in
//!   `cqa-core`) so concurrent connections share one compiled route;
//! * [`service`] — the transport-free request handler: per-request
//!   [`ExecOptions`](cqa_core::ExecOptions) resolution (the environment
//!   is consulted only at startup, never per request) and admission
//!   control that *rejects* over-budget work instead of queueing it;
//! * [`net`] — the sockets: a nonblocking accept loop with scoped worker
//!   threads bounded by the `rayon_lite` width, clean shutdown with a
//!   metrics dump, and the one-shot [`request`] client behind
//!   `cqa request`.
//!
//! ```
//! use cqa_serve::{ServeConfig, Service};
//!
//! let service = Service::new(ServeConfig::default());
//! let reply = service.handle_line(
//!     r#"{"op":"solve","schema":"N[2,1] O[1,1] P[1,1]",
//!         "query":"N('c',y), O(y), P(y)","fks":"N[2] -> O",
//!         "db":"N(c,a) O(a) P(a)"}"#
//!         .replace('\n', " ")
//!         .as_str(),
//! );
//! assert!(reply.contains(r#""certainty":"certain""#), "{reply}");
//! assert!(reply.contains(r#""cache":"miss""#));
//! // Same problem again: served from the shared compiled plan.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod metrics;
pub mod net;
pub mod service;

pub use cache::{CachedPlan, Lookup, PlanCache, RawKey};
pub use metrics::MetricsRegistry;
pub use net::{request, serve, Endpoint};
pub use service::{ServeConfig, Service};

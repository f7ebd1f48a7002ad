#![warn(missing_docs)]
//! # ofd-serve
//!
//! A resilient, zero-dependency HTTP/1.1 service layer over the FastOFD /
//! OFDClean engines — the piece that turns the batch binaries into a
//! long-running process that survives overload, bad requests and
//! restarts:
//!
//! * **Endpoints** — `POST /v1/discover`, `POST /v1/clean`,
//!   `POST /v1/validate` (inputs inline as JSON — CSV text, ontology
//!   text, OFD specs — or by `dataset: "name@version"` reference), the
//!   [`catalog`] API under `/v1/datasets`, plus `GET /healthz`,
//!   `GET /readyz` (tri-state: `ok` | `degraded` | `draining`),
//!   `GET /metrics` (ofd-obs schema-v1 JSON) and `POST /admin/drain`.
//! * **Admission control** — a bounded queue ([`queue::BoundedQueue`])
//!   feeding a fixed worker pool; each admitted job runs under a
//!   per-request [`ExecGuard`](ofd_core::ExecGuard) deadline derived from
//!   the server budget, started at admission so queue wait counts.
//! * **Load shedding** — 429 + `Retry-After` + `retry_after_ms` backoff
//!   hints when the queue is full or the process RSS crosses a high-water
//!   mark; 503 while draining.
//! * **Circuit breaking** — per-endpoint [`breaker::Breaker`]s open after
//!   N consecutive handler panics, refuse with a cooldown hint, then
//!   half-open a single probe.
//! * **Cooperative cancel** — a disconnect watcher cancels the guard when
//!   the client goes away; the engine stops at its next checkpoint.
//! * **Checkpointed graceful drain** — SIGTERM (or `/admin/drain`)
//!   cancels in-flight jobs to their next snapshot boundary; per-job
//!   [`SnapshotStore`](ofd_core::SnapshotStore) directories (keyed by a
//!   request fingerprint) let a restarted server resume the same request
//!   byte-identically.
//! * **Dataset catalog** — [`catalog::Catalog`] registers immutable,
//!   append-only dataset versions under `<checkpoint-dir>/catalog`;
//!   requests reference `dataset: "name@version"` instead of re-shipping
//!   rows, parses are interned per version, and the catalog is shared by
//!   every replica pointed at the same directory.
//! * **Fleet mode** — [`router::Router`] routes over one member list:
//!   the worker processes [`supervisor::Supervisor`] spawns and respawns
//!   (behind a restart-storm breaker), followed by any fixed `--peers`
//!   hosts. Requests are consistent-hash routed by dataset content
//!   fingerprint and fail over to the next member on connect/5xx errors.
//!   Checkpoints are content-keyed, so the member that inherits a dead
//!   worker's request resumes its work mid-level, still byte-identical
//!   (`serve.router.adopted`): from the shared checkpoint root when the
//!   fleet shares one, else shipped from a live peer's private root
//!   (`resumed_from: "peer"`).
//! * **One of each mechanism** — every outgoing request (router
//!   forwards, `/readyz` probes, drain fan-out, quorum rounds, peer
//!   fetches, the chaos proxy's relay) goes through [`http::exchange`];
//!   the server, the router and [`netfault::NetFaultProxy`] all run
//!   [`http::AcceptLoop`]; and the `serve` flags are parsed by one table,
//!   [`flags::SERVE_FLAGS`].
//!
//! The soak harness for all of this is `serve_probe` in `ofd-bench`
//! (`--stream`, `--router`, `--peers` and `--chaos-net` select the other
//! soaks).

pub mod breaker;
pub mod catalog;
pub mod flags;
pub mod http;
pub mod jobs;
pub mod netfault;
pub mod peers;
pub mod queue;
pub mod retry;
pub mod router;
pub mod server;
pub mod stream;
pub mod supervisor;

pub use breaker::{Admission, Breaker};
pub use catalog::{content_fingerprint, Catalog, CatalogEntry, CatalogError};
pub use flags::{ServeArgs, SERVE_FLAGS};
pub use jobs::{BadRequest, Endpoint, JobContext, JobError, JobOutcome};
pub use netfault::{NetFaultProxy, NET_COUNTERS};
pub use http::{exchange, PeerTimeouts};
pub use peers::parse_peer_list;
pub use retry::{RetryPolicy, RetrySession, RETRIES_EXHAUSTED};
pub use stream::{StreamSessions, STREAM_COUNTERS};
pub use router::{Router, RouterConfig, ROUTER_COUNTERS};
pub use server::{termination_flag, ServeConfig, ServeSummary, Server, SERVE_COUNTERS};
pub use supervisor::{spawn_worker, Supervisor, SupervisorConfig, WorkerSpec};

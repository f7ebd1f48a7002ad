//! The resilient HTTP server: admission queue → worker pool → engines.
//!
//! Request lifecycle for the job endpoints (`/v1/*`):
//!
//! ```text
//!          conn thread                         worker pool
//!   ┌──────────────────────┐       ┌──────────────────────────────┐
//!   │ parse → drain gate → │ queue │ pop → disconnect watcher →   │
//!   │ breaker → RSS gate → │ ────▶ │ catch_unwind(engine) →       │
//!   │ guard → try_push     │  429  │ breaker verdict → respond    │
//!   └──────────────────────┘ shed  └──────────────────────────────┘
//! ```
//!
//! Every rejection path answers immediately with a backoff hint; every
//! admitted request is answered exactly once — complete, `INCOMPLETE`
//! sound partial (guard trip, drain, disconnect), or 500 after a caught
//! panic. Drain cancels the guards of queued and running jobs, so the
//! pool converges in one checkpoint interval and in-flight discovery
//! state survives in the per-job snapshot directories.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ofd_core::guard::rss_kib;
use ofd_core::{ExecGuard, FaultPlan, GuardConfig, Interrupt, Obs};
use serde_json::{json, Value};

use crate::breaker::{Admission, Breaker};
use crate::catalog::{Catalog, CatalogError};
use crate::http::{read_or_reject, AcceptLoop, Request, Response};
use crate::jobs::{self, Endpoint, JobContext, JobError, ENDPOINTS, ENDPOINT_COUNT};
use crate::stream::{StreamSessions, STREAM_COUNTERS};
use crate::queue::{BoundedQueue, Full};

/// Server configuration; every knob has a production-shaped default.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-queue capacity; requests beyond it are shed with 429.
    pub queue_cap: usize,
    /// Per-request wall-clock budget (ms). A client `timeout_ms` may only
    /// lower it. The guard starts at admission, so queue wait burns the
    /// same budget the engine does.
    pub budget_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Load-shed when the process RSS crosses this many MiB (`None`
    /// disables the gate).
    pub rss_high_water_mib: Option<usize>,
    /// Consecutive handler panics that open an endpoint's circuit
    /// breaker (`0` disables breakers).
    pub breaker_threshold: u32,
    /// Cooldown before an open circuit admits its half-open probe (ms).
    pub breaker_cooldown_ms: u64,
    /// Root directory for per-job checkpoints (`None` disables
    /// checkpointed drain/resume).
    pub checkpoint_dir: Option<PathBuf>,
    /// Directory for the persistent dataset catalog. Defaults to
    /// `<checkpoint_dir>/catalog`; with neither set, `dataset:`
    /// references are refused (there is nowhere to persist them).
    pub catalog_dir: Option<PathBuf>,
    /// Sibling workers of a multi-host fleet (`--peers host:port,...`).
    /// Used for peer-to-peer recovery when nothing is shared through a
    /// filesystem: catalog read repair on local miss, and job/stream
    /// checkpoint shipping from the dead owner's replica.
    pub peers: Vec<SocketAddr>,
    /// How long a client may take to deliver its request head/body
    /// before the connection is abandoned (slowloris bound). Chaos runs
    /// tighten it.
    pub head_timeout_ms: u64,
    /// Connect/read deadline for peer conversations (catalog read
    /// repair, quorum confirmation, checkpoint shipping).
    pub peer_timeout_ms: u64,
    /// Seeded fault plan passed through to the engines and snapshot
    /// stores (inert by default; the soak harness sets it).
    pub faults: FaultPlan,
    /// Metrics handle backing `/metrics` and the shutdown summary.
    pub obs: Obs,
    /// Base backoff hint (ms) attached to shed responses; scaled by the
    /// queue depth so a deeper backlog pushes retries further out.
    pub retry_after_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            budget_ms: 30_000,
            max_body_bytes: 16 * 1024 * 1024,
            rss_high_water_mib: None,
            breaker_threshold: 5,
            breaker_cooldown_ms: 1_000,
            checkpoint_dir: None,
            catalog_dir: None,
            peers: Vec::new(),
            head_timeout_ms: 10_000,
            peer_timeout_ms: 10_000,
            faults: FaultPlan::none(),
            obs: Obs::enabled(),
            retry_after_ms: 250,
        }
    }
}

/// The `serve.*` counters pinned by the metrics schema test; touched at
/// bind time so they are present (zero) in every `/metrics` document.
pub const SERVE_COUNTERS: [&str; 18] = [
    "serve.requests",
    "serve.admitted",
    "serve.shed",
    "serve.breaker_open",
    "serve.drained",
    "serve.resumed",
    "serve.completed",
    "serve.incomplete",
    "serve.panics",
    "serve.bad_request",
    "serve.conflict",
    "serve.catalog.put",
    "serve.catalog.hit",
    "serve.catalog.miss",
    "serve.catalog.peer_fetch",
    "serve.catalog.read_repaired",
    "serve.ship.served",
    "serve.ship.fetched",
];

/// One queued job: everything the worker needs to run and answer it.
struct Job {
    id: u64,
    endpoint: Endpoint,
    body: Value,
    stream: TcpStream,
    guard: ExecGuard,
}

struct Shared {
    cfg: ServeConfig,
    obs: Obs,
    queue: BoundedQueue<Job>,
    /// Admission closed; in-flight work being cancelled to checkpoints.
    draining: AtomicBool,
    /// Drain finished; threads should exit.
    stopping: AtomicBool,
    /// Set by `POST /admin/drain` — the run loop polls it.
    drain_requested: AtomicBool,
    /// Guards of every admitted-but-unanswered job, for drain to cancel.
    inflight: Mutex<HashMap<u64, ExecGuard>>,
    next_job: AtomicU64,
    breakers: [Breaker; ENDPOINT_COUNT],
    /// Persistent dataset catalog; `None` when no directory is
    /// configured (in-memory-only servers refuse `dataset:` references).
    catalog: Option<Arc<Catalog>>,
    /// Streaming sessions for `/v1/append` / `/v1/retract`; their
    /// durable state lives under the checkpoint directory.
    sessions: Arc<StreamSessions>,
}

impl Shared {
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        // Cancel queued and running jobs; each engine stops at its next
        // checkpoint and the worker answers with a sound INCOMPLETE
        // partial. Discovery state up to the last completed level is
        // already in the per-job snapshot directory.
        for guard in self.inflight.lock().expect("inflight lock").values() {
            guard.cancel();
        }
    }
}

/// Final tallies returned by [`Server::shutdown`].
#[derive(Debug, Clone, Default)]
pub struct ServeSummary {
    /// Jobs admitted past the queue.
    pub admitted: u64,
    /// Requests shed (queue full or RSS high-water).
    pub shed: u64,
    /// Requests refused by an open circuit breaker.
    pub breaker_open: u64,
    /// Admitted jobs answered `INCOMPLETE` because drain cancelled them.
    pub drained: u64,
    /// Jobs that restored engine state from a checkpoint.
    pub resumed: u64,
}

/// A running server; dropping it without [`Server::shutdown`] leaves the
/// threads detached, so call `shutdown` (tests and binaries all do).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: AcceptLoop,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop and worker pool, and returns the
    /// running server. `/readyz` turns 200 as soon as this returns.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;

        let obs = cfg.obs.clone();
        for name in SERVE_COUNTERS {
            obs.touch_counter(name);
        }
        for name in STREAM_COUNTERS {
            obs.touch_counter(name);
        }
        for name in crate::netfault::NET_COUNTERS {
            obs.touch_counter(name);
        }
        // Satellite of the guard work: an RSS gate that cannot read the
        // resident set is inert — say so once, loudly, instead of letting
        // the operator believe the ceiling is enforced.
        if cfg.rss_high_water_mib.is_some() && rss_kib().is_none() {
            obs.inc("guard.rss.unavailable");
            eprintln!(
                "warning: guard.rss.unavailable: --rss-high-water-mib is inert \
                 (no readable RSS source on this platform)"
            );
        }

        // First-scrape presence for the queue gauge, like the counters.
        obs.set_gauge("serve.queue.depth", 0.0);

        let catalog_dir = cfg
            .catalog_dir
            .clone()
            .or_else(|| cfg.checkpoint_dir.as_ref().map(|d| d.join("catalog")));
        let catalog = catalog_dir.map(|dir| {
            Arc::new(
                Catalog::open(dir, cfg.faults.clone(), obs.clone())
                    .with_peers(cfg.peers.clone())
                    .with_peer_timeouts(crate::http::PeerTimeouts::from_ms(cfg.peer_timeout_ms)),
            )
        });

        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(cfg.queue_cap),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            inflight: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
            breakers: std::array::from_fn(|_| {
                Breaker::new(
                    cfg.breaker_threshold,
                    Duration::from_millis(cfg.breaker_cooldown_ms),
                )
            }),
            catalog,
            sessions: Arc::new(StreamSessions::new()),
            obs,
            cfg,
        });

        let accept = {
            let shared = shared.clone();
            AcceptLoop::spawn(listener, "ofd-serve-accept", move |stream| {
                let shared = shared.clone();
                // One short-lived thread per connection for the parse +
                // admission stage only; heavy work happens in the fixed
                // worker pool. A slow client therefore cannot stall the
                // accept loop, and admission itself never blocks.
                let _ = std::thread::Builder::new()
                    .name("ofd-serve-conn".into())
                    .spawn(move || handle_connection(stream, shared));
            })?
        };
        let mut threads = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("ofd-serve-worker-{i}"))
                    .spawn(move || worker_loop(shared))?,
            );
        }
        Ok(Server {
            shared,
            addr,
            accept,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's metrics handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The dataset catalog, when one is configured.
    pub fn catalog(&self) -> Option<&Arc<Catalog>> {
        self.shared.catalog.as_ref()
    }

    /// Starts a graceful drain: admission closes (503), queued and
    /// running jobs are cancelled to their next checkpoint. Idempotent.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain is in progress (or done).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Whether a client asked for drain via `POST /admin/drain` — the
    /// serve binaries poll this next to their SIGTERM flag.
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Drains, waits for every admitted job to be answered (bounded by
    /// `wait`), stops the threads and returns the final tallies.
    pub fn shutdown(mut self, wait: Duration) -> ServeSummary {
        self.shared.begin_drain();
        let deadline = Instant::now() + wait;
        while Instant::now() < deadline {
            let idle = self.shared.queue.is_empty()
                && self.shared.inflight.lock().expect("inflight lock").is_empty();
            if idle {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.accept.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Exact lookups: `counter_sum` is prefix-based and would fold the
        // `serve.shed.*` reason breakdowns into `serve.shed` twice over.
        let snap = self.shared.obs.snapshot();
        let exact = |name: &str| snap.counter(name).unwrap_or(0);
        ServeSummary {
            admitted: exact("serve.admitted"),
            shed: exact("serve.shed"),
            breaker_open: exact("serve.breaker_open"),
            drained: exact("serve.drained"),
            resumed: exact("serve.resumed"),
        }
    }
}

// ------------------------------------------------------------ accept side

fn retry_after_headers(resp: Response, hint: Duration) -> Response {
    let secs = hint.as_secs() + u64::from(hint.subsec_nanos() > 0);
    resp.with_header("retry-after", secs.max(1).to_string())
}

fn shed_body(error: &str, retry_after_ms: u64) -> Value {
    json!({ "error": error, "retry_after_ms": retry_after_ms })
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    let cfg = &shared.cfg;
    let Some(req) = read_or_reject(&mut stream, cfg.max_body_bytes, Duration::from_millis(cfg.head_timeout_ms.max(1))) else {
        return;
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = Response::text(200, "ok\n").write_to(&mut stream);
        }
        ("GET", "/readyz") => {
            let (status, body) = readiness(&shared);
            let _ = Response::json(status, &body).write_to(&mut stream);
        }
        ("GET", "/metrics") => {
            shared
                .obs
                .set_gauge("serve.queue.depth", shared.queue.len() as f64);
            shared.obs.set_gauge(
                "serve.inflight",
                shared.inflight.lock().expect("inflight lock").len() as f64,
            );
            let text = shared.obs.snapshot().to_json_string(true);
            let _ = Response::json_text(200, text).write_to(&mut stream);
        }
        ("POST", "/admin/drain") => {
            shared.drain_requested.store(true, Ordering::SeqCst);
            shared.begin_drain();
            let _ = Response::json(200, &json!({ "draining": true })).write_to(&mut stream);
        }
        (_, path) if path == "/v1/datasets" || path.starts_with("/v1/datasets/") => {
            handle_datasets(req, stream, &shared);
        }
        ("GET", path)
            if (path.starts_with("/v1/jobs/") || path.starts_with("/v1/streams/"))
                && path.ends_with("/snapshot") =>
        {
            handle_snapshot_transfer(&req, stream, &shared);
        }
        ("POST", path) => match Endpoint::from_path(path) {
            Some(endpoint) => admit(endpoint, req, stream, &shared),
            None => {
                let _ = Response::json(404, &json!({ "error": "unknown endpoint" }))
                    .write_to(&mut stream);
            }
        },
        _ => {
            let _ = Response::json(405, &json!({ "error": "method not allowed" }))
                .write_to(&mut stream);
        }
    }
}

/// `/readyz` tri-state: `ok` (200), `degraded` (200 — still serving, but
/// an open breaker, a full queue or RSS past the high water mean callers
/// should expect shed responses) or `draining` (503 — routers take the
/// replica out of rotation). The body always carries `ready`/`draining`
/// plus queue depth and the per-endpoint breaker states, so an operator
/// gets the shape of the trouble from one probe.
fn readiness(shared: &Shared) -> (u16, Value) {
    let draining = shared.draining.load(Ordering::SeqCst);
    let depth = shared.queue.len();
    let cap = shared.cfg.queue_cap;
    let mut breakers: Vec<(String, Value)> = Vec::with_capacity(ENDPOINT_COUNT);
    let mut any_open = false;
    for (endpoint, b) in ENDPOINTS.iter().zip(shared.breakers.iter()) {
        any_open |= b.is_open();
        breakers.push((endpoint.label().to_string(), json!(b.state_label())));
    }
    let rss_high = shared
        .cfg
        .rss_high_water_mib
        .is_some_and(|hw| rss_kib().is_some_and(|rss| rss > hw as u64 * 1024));
    let state = if draining {
        "draining"
    } else if any_open || depth >= cap || rss_high {
        "degraded"
    } else {
        "ok"
    };
    let body = json!({
        "ready": !draining,
        "draining": draining,
        "state": state,
        "queue_depth": depth as u64,
        "queue_cap": cap as u64,
        "breakers": Value::Object(breakers),
    });
    (if draining { 503 } else { 200 }, body)
}

fn catalog_error_response(e: &CatalogError) -> Response {
    let status = match e {
        CatalogError::BadRequest(_) => 400,
        CatalogError::Conflict(_) => 409,
        CatalogError::Storage(_) => 500,
    };
    Response::json(status, &json!({ "error": e.message() }))
}

/// The internal checkpoint-transfer endpoints:
/// `GET /v1/jobs/{fingerprint}/snapshot` and
/// `GET /v1/streams/{fingerprint}/snapshot` serve the newest snapshot
/// per stream from the fingerprint-keyed checkpoint directory, as one
/// JSON bundle a recovering peer installs verbatim. Because job and
/// session directories are keyed by request *content*, any replica
/// computes the same fingerprint — no name service needed to find a dead
/// owner's state, only its address. 404 when there is nothing to ship
/// (no checkpoint root, or no surviving snapshot) — the requester then
/// falls back to re-execution from inputs.
fn handle_snapshot_transfer(req: &Request, mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.obs.inc("serve.requests");
    let (kind, rest) = if let Some(rest) = req.path.strip_prefix("/v1/jobs/") {
        ("job", rest)
    } else if let Some(rest) = req.path.strip_prefix("/v1/streams/") {
        ("stream", rest)
    } else {
        let _ = Response::json(404, &json!({ "error": "unknown endpoint" })).write_to(&mut stream);
        return;
    };
    let fingerprint = rest.strip_suffix("/snapshot").unwrap_or("");
    // Fingerprints are exactly 16 hex digits; anything else is rejected
    // before it can touch the filesystem.
    if fingerprint.len() != 16 || !fingerprint.bytes().all(|b| b.is_ascii_hexdigit()) {
        let _ = Response::json(400, &json!({ "error": "bad snapshot fingerprint" }))
            .write_to(&mut stream);
        return;
    }
    let Some(root) = &shared.cfg.checkpoint_dir else {
        let _ = Response::json(404, &json!({ "error": "no checkpoint root on this server" }))
            .write_to(&mut stream);
        return;
    };
    let store = ofd_core::SnapshotStore::new(root.join(format!("{kind}-{fingerprint}")));
    match crate::peers::snapshot_bundle(&store) {
        Some(bundle) => {
            shared.obs.inc("serve.ship.served");
            let _ = Response::json(200, &bundle).write_to(&mut stream);
        }
        None => {
            let _ = Response::json(404, &json!({ "error": "no snapshots for this fingerprint" }))
                .write_to(&mut stream);
        }
    }
}

/// The dataset catalog API: `PUT /v1/datasets/{name}` registers a
/// version, `GET /v1/datasets` lists names, `GET /v1/datasets/{name}`
/// (or `{name}@{version}`) describes one. Reads stay open during drain —
/// they are cheap and a draining replica may still be asked "what do you
/// have?" — but writes are refused like any other new work.
fn handle_datasets(req: Request, mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.obs.inc("serve.requests");
    let Some(catalog) = &shared.catalog else {
        let _ = Response::json(
            503,
            &json!({ "error": "no dataset catalog on this server (start it with --checkpoint-dir)" }),
        )
        .write_to(&mut stream);
        return;
    };
    let reference = req
        .path
        .strip_prefix("/v1/datasets")
        .map(|r| r.trim_start_matches('/'))
        .unwrap_or("");
    let resp = match (req.method.as_str(), reference) {
        ("GET", "") => match catalog.list() {
            Ok(names) => Response::json(200, &json!({ "datasets": names })),
            Err(e) => catalog_error_response(&e),
        },
        ("GET", reference) if !reference.contains('/') => match catalog.describe(reference) {
            Ok(meta) => Response::json(200, &meta),
            Err(e) => catalog_error_response(&e),
        },
        // Internal transfer endpoint: the raw stored payload of one
        // version, for a peer repairing a missed replicated write.
        ("GET", path) => match path.split('/').collect::<Vec<_>>().as_slice() {
            [name, version, "snapshot"] => match version.parse::<u64>() {
                Ok(version) => match catalog.snapshot_payload(name, version) {
                    Ok(payload) => {
                        shared.obs.inc("serve.ship.served");
                        Response::json(200, &payload)
                    }
                    Err(e) => catalog_error_response(&e),
                },
                Err(_) => Response::json(400, &json!({ "error": "bad version in path" })),
            },
            // Quorum-confirmation probe: does this replica hold the
            // version, and has it been committed? Readers repairing a
            // pending version poll this across the fleet.
            [name, version, "stat"] => match version.parse::<u64>() {
                Ok(version) => match catalog.stat(name, version) {
                    Ok((present, committed)) => Response::json(
                        200,
                        &json!({
                            "name": *name,
                            "version": version,
                            "present": present,
                            "committed": committed,
                        }),
                    ),
                    Err(e) => catalog_error_response(&e),
                },
                Err(_) => Response::json(400, &json!({ "error": "bad version in path" })),
            },
            _ => Response::json(404, &json!({ "error": "unknown catalog path" })),
        },
        // Second phase of a replicated write: flip a pending version to
        // committed once the router saw a quorum of acks. Idempotent.
        ("POST", path) => match path.split('/').collect::<Vec<_>>().as_slice() {
            [name, version, "commit"] => match version.parse::<u64>() {
                Ok(version) => match catalog.commit_version(name, version) {
                    Ok(committed) => Response::json(
                        200,
                        &json!({ "name": *name, "version": version, "committed": committed }),
                    ),
                    Err(e) => catalog_error_response(&e),
                },
                Err(_) => Response::json(400, &json!({ "error": "bad version in path" })),
            },
            _ => Response::json(404, &json!({ "error": "unknown catalog path" })),
        },
        // Quorum-write rollback: `DELETE /v1/datasets/{name}/{version}`
        // removes one version. Not drain-gated — rollback is how a
        // failed replicated write avoids leaving a torn version behind,
        // and it must work on a replica that is on its way out.
        ("DELETE", path) => match path.split_once('/') {
            Some((name, version)) if !version.contains('/') => match version.parse::<u64>() {
                Ok(version) => match catalog.delete_version(name, version) {
                    Ok(deleted) => Response::json(
                        200,
                        &json!({ "name": name, "version": version, "deleted": deleted }),
                    ),
                    Err(e) => catalog_error_response(&e),
                },
                Err(_) => Response::json(400, &json!({ "error": "bad version in path" })),
            },
            _ => Response::json(400, &json!({ "error": "expected /v1/datasets/{name}/{version}" })),
        },
        ("PUT", "") => Response::json(400, &json!({ "error": "missing dataset name in path" })),
        ("PUT", name) if !name.contains('/') => {
            if shared.draining.load(Ordering::SeqCst) {
                let resp = Response::json(
                    503,
                    &shed_body("draining", shared.cfg.retry_after_ms),
                );
                let _ = retry_after_headers(
                    resp,
                    Duration::from_millis(shared.cfg.retry_after_ms),
                )
                .write_to(&mut stream);
                return;
            }
            match serde_json::from_str::<Value>(std::str::from_utf8(&req.body).unwrap_or("")) {
                Err(e) => Response::json(400, &json!({ "error": format!("body: {e}") })),
                Ok(body) => {
                    let csv_text = body.get("csv").and_then(Value::as_str).unwrap_or("");
                    let onto_text = body.get("ontology").and_then(Value::as_str).unwrap_or("");
                    // A body `version` marks the replicated-write path:
                    // the router pinned one version number for the whole
                    // fleet, and this replica applies it idempotently.
                    let put = match body.get("version").and_then(Value::as_u64) {
                        Some(version) => catalog.put_pinned(name, csv_text, onto_text, version),
                        None => catalog.put(name, csv_text, onto_text),
                    };
                    match put {
                        Ok(entry) => Response::json(
                            200,
                            &json!({
                                "name": entry.name.clone(),
                                "version": entry.version,
                                "fingerprint": format!("{:016x}", entry.fingerprint),
                            }),
                        ),
                        Err(e) => catalog_error_response(&e),
                    }
                }
            }
        }
        _ => Response::json(405, &json!({ "error": "method not allowed" })),
    };
    let _ = resp.write_to(&mut stream);
}

/// The admission pipeline for a job endpoint; answers inline on every
/// rejection path, enqueues on success.
fn admit(endpoint: Endpoint, req: Request, mut stream: TcpStream, shared: &Arc<Shared>) {
    let cfg = &shared.cfg;
    let obs = &shared.obs;
    obs.inc("serve.requests");

    // Gate 1: drain. New work is refused outright so the pool converges.
    if shared.draining.load(Ordering::SeqCst) {
        let resp = Response::json(503, &shed_body("draining", cfg.retry_after_ms));
        let _ = retry_after_headers(resp, Duration::from_millis(cfg.retry_after_ms))
            .write_to(&mut stream);
        return;
    }

    // Gate 2: circuit breaker — a repeatedly-panicking endpoint must not
    // keep consuming worker slots the healthy endpoints need.
    let breaker = &shared.breakers[endpoint.index()];
    if let Admission::Rejected { retry_after } = breaker.admit() {
        obs.inc("serve.breaker_open");
        let resp = Response::json(
            503,
            &json!({
                "error": "circuit_open",
                "endpoint": endpoint.label(),
                "retry_after_ms": retry_after.as_millis() as u64,
            }),
        );
        let _ = retry_after_headers(resp, retry_after).write_to(&mut stream);
        return;
    }

    // Gate 3: memory high-water. Shed before parsing the body into a
    // long-lived job — admission is the last point where refusing is
    // cheap.
    if let Some(hw_mib) = cfg.rss_high_water_mib {
        if rss_kib().is_some_and(|rss| rss > hw_mib as u64 * 1024) {
            obs.inc("serve.shed");
            obs.inc("serve.shed.rss");
            breaker.probe_aborted();
            let resp = Response::json(429, &shed_body("rss_high_water", cfg.retry_after_ms));
            let _ = retry_after_headers(resp, Duration::from_millis(cfg.retry_after_ms))
                .write_to(&mut stream);
            return;
        }
    }

    let body: Value = match serde_json::from_str(
        std::str::from_utf8(&req.body).unwrap_or(""),
    ) {
        Ok(v) => v,
        Err(e) => {
            obs.inc("serve.bad_request");
            breaker.probe_aborted();
            let _ = Response::json(400, &json!({ "error": format!("body: {e}") }))
                .write_to(&mut stream);
            return;
        }
    };

    // The guard starts here: queue wait spends the same budget the engine
    // does, so a request stuck behind a backlog times out instead of
    // running long after its client gave up. Clients may lower (never
    // raise) the server budget.
    let budget_ms = match body.get("timeout_ms").and_then(Value::as_u64) {
        Some(client_ms) => client_ms.min(cfg.budget_ms),
        None => cfg.budget_ms,
    };
    let guard = ExecGuard::new(GuardConfig {
        timeout: Some(Duration::from_millis(budget_ms)),
        ..GuardConfig::default()
    });

    let id = shared.next_job.fetch_add(1, Ordering::Relaxed);
    shared
        .inflight
        .lock()
        .expect("inflight lock")
        .insert(id, guard.clone());
    // Drain may have raced admission: a job registered after the cancel
    // sweep still gets cancelled here, preserving "no new work after
    // drain" without a queue-wide lock.
    if shared.draining.load(Ordering::SeqCst) {
        guard.cancel();
    }

    let job = Job {
        id,
        endpoint,
        body,
        stream,
        guard,
    };
    match shared.queue.try_push(job) {
        Ok(depth) => {
            obs.inc("serve.admitted");
            obs.set_gauge("serve.queue.depth", depth as f64);
        }
        Err(Full(mut job)) => {
            // Gate 4: bounded queue. The backoff hint scales with the
            // backlog so clients spread their retries.
            shared
                .inflight
                .lock()
                .expect("inflight lock")
                .remove(&job.id);
            obs.inc("serve.shed");
            obs.inc("serve.shed.queue_full");
            breaker.probe_aborted();
            let hint_ms = cfg.retry_after_ms * (1 + shared.queue.len() as u64);
            let resp = Response::json(429, &shed_body("queue_full", hint_ms));
            let _ = retry_after_headers(resp, Duration::from_millis(hint_ms))
                .write_to(&mut job.stream);
        }
    }
}

// ------------------------------------------------------------ worker side

fn worker_loop(shared: Arc<Shared>) {
    loop {
        match shared.queue.pop(Duration::from_millis(50)) {
            Some(job) => execute_job(job, &shared),
            None => {
                if shared.stopping.load(Ordering::SeqCst) && shared.queue.is_empty() {
                    return;
                }
            }
        }
    }
}

/// Watches the client socket while the engine runs; EOF means the client
/// went away, and the guard is cancelled so the engine stops burning a
/// worker slot on an answer nobody will read.
fn spawn_disconnect_watcher(
    job_stream: &TcpStream,
    guard: ExecGuard,
    obs: Obs,
    done: Arc<AtomicBool>,
) -> Option<JoinHandle<()>> {
    let mut watch = job_stream.try_clone().ok()?;
    if watch
        .set_read_timeout(Some(Duration::from_millis(50)))
        .is_err()
    {
        return None;
    }
    std::thread::Builder::new()
        .name("ofd-serve-watch".into())
        .spawn(move || {
            use std::io::Read;
            let mut buf = [0u8; 64];
            while !done.load(Ordering::SeqCst) {
                match watch.read(&mut buf) {
                    Ok(0) => {
                        obs.inc("serve.client_disconnect");
                        guard.cancel();
                        return;
                    }
                    // Unexpected extra bytes: ignore them, keep watching.
                    Ok(_) => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut => {}
                    Err(_) => return,
                }
            }
        })
        .ok()
}

fn execute_job(mut job: Job, shared: &Arc<Shared>) {
    let obs = &shared.obs;
    let done = Arc::new(AtomicBool::new(false));
    let watcher = spawn_disconnect_watcher(&job.stream, job.guard.clone(), obs.clone(), done.clone());

    let ctx = JobContext {
        guard: job.guard.clone(),
        obs: obs.clone(),
        faults: shared.cfg.faults.clone(),
        checkpoint_root: shared.cfg.checkpoint_dir.clone(),
        catalog: shared.catalog.clone(),
        sessions: shared.sessions.clone(),
        peers: shared.cfg.peers.clone(),
        peer_timeouts: crate::http::PeerTimeouts::from_ms(shared.cfg.peer_timeout_ms),
    };
    let span = obs.span(&format!("serve.job.{}", job.endpoint.label()));
    let result = catch_unwind(AssertUnwindSafe(|| {
        jobs::execute(job.endpoint, &job.body, &ctx)
    }));
    drop(span);
    done.store(true, Ordering::SeqCst);
    if let Some(w) = watcher {
        let _ = w.join();
    }

    let breaker = &shared.breakers[job.endpoint.index()];
    let response = match result {
        Ok(Ok((value, outcome))) => {
            breaker.on_success();
            if outcome.incomplete {
                obs.inc("serve.incomplete");
                // A cancel observed while draining is the drain path: the
                // job's progress is in its checkpoint directory, waiting
                // for the restarted server.
                if outcome.interrupt == Some(Interrupt::Cancelled)
                    && shared.draining.load(Ordering::SeqCst)
                {
                    obs.inc("serve.drained");
                }
            } else {
                obs.inc("serve.completed");
            }
            if outcome.resumed {
                obs.inc("serve.resumed");
            }
            Response::json(200, &value)
        }
        Ok(Err(JobError::BadRequest(msg))) => {
            // Client errors say nothing about endpoint health: the
            // breaker treats them as a successful handler run.
            breaker.on_success();
            obs.inc("serve.bad_request");
            Response::json(400, &json!({ "error": msg }))
        }
        Ok(Err(JobError::Conflict(msg))) => {
            // A stale client view of a streaming session — also a client
            // error; the session itself stays healthy and usable.
            breaker.on_success();
            obs.inc("serve.conflict");
            Response::json(409, &json!({ "error": msg }))
        }
        Err(_panic) => {
            obs.inc("serve.panics");
            if breaker.on_failure() {
                obs.inc("serve.breaker_opened");
            }
            job.guard.trip_external(Interrupt::WorkerPanic);
            Response::json(
                500,
                &json!({ "error": "internal", "endpoint": job.endpoint.label() }),
            )
        }
    };
    let _ = response.write_to(&mut job.stream);
    // Unregister only after the response hit the socket: shutdown's
    // "all answered" wait keys off this map.
    shared
        .inflight
        .lock()
        .expect("inflight lock")
        .remove(&job.id);
}

// --------------------------------------------------------------- signals

#[cfg(unix)]
mod termination {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Once;

    static FLAG: AtomicBool = AtomicBool::new(false);
    static INSTALL: Once = Once::new();

    extern "C" fn on_signal(_sig: i32) {
        // Only async-signal-safe work here: one atomic store.
        FLAG.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn termination_flag() -> &'static AtomicBool {
        INSTALL.call_once(|| unsafe {
            signal(15, on_signal as *const () as usize); // SIGTERM
            signal(2, on_signal as *const () as usize); // SIGINT
        });
        &FLAG
    }
}

#[cfg(not(unix))]
mod termination {
    use std::sync::atomic::AtomicBool;

    static FLAG: AtomicBool = AtomicBool::new(false);

    pub fn termination_flag() -> &'static AtomicBool {
        // No signals to hook; the flag simply never flips and binaries
        // fall back to /admin/drain.
        &FLAG
    }
}

/// Installs SIGTERM/SIGINT handlers (first call only) and returns the
/// flag they flip. Serve binaries poll it next to
/// [`Server::drain_requested`] and run [`Server::shutdown`] when either
/// fires; on platforms without Unix signals the flag never flips and
/// `POST /admin/drain` is the drain path.
pub fn termination_flag() -> &'static AtomicBool {
    termination::termination_flag()
}

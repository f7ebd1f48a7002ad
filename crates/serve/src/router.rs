//! The shard router: one front process, N worker replicas.
//!
//! ```text
//!                       ┌────────────┐  consistent hash   ┌──────────┐
//!   clients ──────────▶ │   router   │ ─────────────────▶ │ worker 0 │──┐
//!            POST /v1/* │ (no engine │   retry next       ├──────────┤  │ shared
//!            PUT  /v1/  │   inside)  │   replica on       │ worker 1 │──┤ checkpoint
//!            datasets/* │            │   connect/5xx      ├──────────┤  │ + catalog
//!                       └─────┬──────┘                    │ worker N │──┘ root
//!                             │ supervises (respawn,      └──────────┘
//!                             ▼  restart-storm breaker)
//!                       [Supervisor]
//! ```
//!
//! Routing is by **dataset content fingerprint**: inline bodies hash
//! their CSV/ontology text, `"dataset": "name@version"` references
//! resolve through the shared catalog to the same digest, and catalog
//! API calls hash the dataset name — so a dataset's jobs, versions and
//! checkpoint traffic land on one worker in the steady state, keeping
//! its interned parse and partition caches hot. The hash ring hashes
//! *slot indices*, not addresses, so a respawned worker (fresh port)
//! inherits its predecessor's ring segment.
//!
//! The ring's members are one list, built in one place
//! (`RouterShared::members`): the supervised workers first, then the
//! fixed `--peers` addresses. The router treats both alike — probes,
//! ejection, quorum writes and failover see only addresses — and only
//! the supervisor knows which ones it spawned.
//!
//! Failover is what makes the fleet resilient rather than just wide:
//! a connect failure, i/o error mid-reply, or 5xx moves the request to
//! the next distinct replica on the ring after a backoff
//! (`serve.router.retried`). Because every worker shares one checkpoint
//! root and job directories are keyed by request content (never worker
//! identity), the replica that inherits a SIGKILLed worker's request
//! **adopts its checkpoint** and resumes mid-level — observed as a 200
//! with a non-null `resumed_from_*` field on a retried request, counted
//! as `serve.router.adopted`.
//!
//! The router never parses engine results; it relays worker reply bytes
//! verbatim, which is why byte-identical-response assertions hold
//! through it.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ofd_core::{fnv1a64, FaultPlan, Obs};
use serde_json::{json, Value};

use crate::catalog::{content_fingerprint, Catalog};
use crate::http::{
    exchange, read_or_reject, AcceptLoop, PeerTimeouts, Reply, Request, Response,
};
use crate::netfault::NET_COUNTERS;
use crate::retry::{RetryPolicy, RETRIES_EXHAUSTED};
use crate::supervisor::Supervisor;

/// The `serve.router.*` counters pinned by the metrics schema test;
/// touched at bind so they are present (zero) in every router
/// `/metrics` document.
pub const ROUTER_COUNTERS: [&str; 7] = [
    "serve.router.routed",
    "serve.router.retried",
    "serve.router.respawned",
    "serve.router.adopted",
    "serve.router.ring.ejected",
    "serve.router.ring.readmitted",
    "serve.catalog.replicated_partial",
];

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — the router plays
    /// by the same OS-assigned-port rule as its workers).
    pub addr: String,
    /// Virtual nodes per worker slot on the hash ring; more vnodes
    /// smooth the key distribution across slots.
    pub vnodes_per_slot: usize,
    /// Base backoff between failover attempts (grows linearly).
    pub retry_backoff_ms: u64,
    /// Extra failover passes over the replica list after the first
    /// (covers the window where every replica is mid-respawn).
    pub extra_rounds: usize,
    /// TCP connect timeout per forward attempt.
    pub connect_timeout_ms: u64,
    /// Read/write timeout on a forwarded request (must cover the worker
    /// job budget, or the router gives up on jobs that would finish).
    /// Clamped per attempt to the client's remaining `timeout_ms`
    /// deadline when one is present.
    pub forward_timeout_ms: u64,
    /// How long the router waits for a client to finish sending its
    /// request head/body before giving up on the connection.
    pub head_timeout_ms: u64,
    /// Connect/read deadline for router→worker peer conversations
    /// (quorum fan-out, commit round, rollback).
    pub peer_timeout_ms: u64,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Worker `/readyz` probe cadence.
    pub probe_interval_ms: u64,
    /// Consecutive failed probes before a slot is ejected from the hash
    /// ring (`serve.router.ring.ejected`). Hysteresis: one blip never
    /// moves keys.
    pub eject_after: u32,
    /// Consecutive successful probes before an ejected slot is
    /// re-admitted (`serve.router.ring.readmitted`).
    pub readmit_after: u32,
    /// Catalog directory (the fleet-shared one) so the router can
    /// resolve `dataset:` references to content fingerprints for
    /// routing. `None` falls back to hashing the reference string.
    pub catalog_dir: Option<PathBuf>,
    /// Router-side metrics (`serve.router.*`).
    pub obs: Obs,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            vnodes_per_slot: 40,
            retry_backoff_ms: 100,
            extra_rounds: 1,
            connect_timeout_ms: 1_000,
            forward_timeout_ms: 120_000,
            head_timeout_ms: 10_000,
            peer_timeout_ms: 10_000,
            max_body_bytes: 16 * 1024 * 1024,
            probe_interval_ms: 500,
            eject_after: 3,
            readmit_after: 2,
            catalog_dir: None,
            obs: Obs::enabled(),
        }
    }
}

/// Per-slot probe verdict with hysteresis counters: the prober ejects a
/// slot from the hash ring after `eject_after` consecutive failures and
/// re-admits it after `readmit_after` consecutive successes, so one
/// dropped probe never migrates keys and a flapping peer settles instead
/// of oscillating.
#[derive(Clone)]
struct SlotHealth {
    /// Last probed `/readyz` state label (`down` when unreachable).
    state: String,
    /// Consecutive failed probes since the last success.
    fails: u32,
    /// Consecutive successful probes since the last failure.
    oks: u32,
    /// Whether the slot is currently ejected from the ring.
    ejected: bool,
}

impl SlotHealth {
    fn unknown() -> SlotHealth {
        SlotHealth {
            state: "unknown".into(),
            fails: 0,
            oks: 0,
            ejected: false,
        }
    }
}

struct RouterShared {
    cfg: RouterConfig,
    obs: Obs,
    /// The local workers, when this router spawns its own.
    supervisor: Option<Supervisor>,
    /// Fixed members this router never spawns (`--peers`).
    peers: Vec<SocketAddr>,
    catalog: Option<Catalog>,
    stopping: AtomicBool,
    /// Set by `POST /admin/drain`; the serve binary polls it and shuts
    /// the whole fleet down (otherwise the supervisor would respawn the
    /// drained workers right back).
    drain_requested: AtomicBool,
    /// Per-slot probe verdicts; written by the prober, read by `/readyz`
    /// and by the routing loop (ejected slots take no traffic).
    probe_states: Mutex<Vec<SlotHealth>>,
}

impl RouterShared {
    /// The ring's members, one entry per slot (`None` while a supervised
    /// worker is down): the supervised workers first, then the fixed
    /// peers. Slot order never changes, so respawns and peers keep their
    /// ring positions however many local workers come up.
    fn members(&self) -> Vec<Option<SocketAddr>> {
        let mut members = self.supervisor.as_ref().map(Supervisor::addrs).unwrap_or_default();
        members.extend(self.peers.iter().copied().map(Some));
        members
    }

    /// Snapshot of the per-slot ejection flags. Slots the prober has not
    /// seen yet (fresh bind, growing fleet) default to in-ring.
    fn ejected_flags(&self) -> Vec<bool> {
        self.probe_states
            .lock()
            .expect("probe states lock")
            .iter()
            .map(|h| h.ejected)
            .collect()
    }
}

/// A running router; see the module docs for the topology.
pub struct Router {
    shared: Arc<RouterShared>,
    addr: SocketAddr,
    accept: AcceptLoop,
    prober: Option<JoinHandle<()>>,
}

impl Router {
    /// Binds the front listener and starts the accept and probe loops.
    /// The ring's members are `supervisor`'s workers (if any) followed by
    /// the fixed `peers`; the router spawns nothing itself.
    pub fn bind(
        cfg: RouterConfig,
        supervisor: Option<Supervisor>,
        peers: Vec<SocketAddr>,
    ) -> std::io::Result<Router> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let obs = cfg.obs.clone();
        for name in ROUTER_COUNTERS {
            obs.touch_counter(name);
        }
        for name in NET_COUNTERS {
            obs.touch_counter(name);
        }
        let catalog = cfg
            .catalog_dir
            .clone()
            .map(|dir| Catalog::open(dir, FaultPlan::none(), obs.clone()));
        let shared = Arc::new(RouterShared {
            obs,
            supervisor,
            peers,
            catalog,
            stopping: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            probe_states: Mutex::new(Vec::new()),
            cfg,
        });
        let accept = {
            let shared = shared.clone();
            AcceptLoop::spawn(listener, "ofd-router-accept", move |stream| {
                let shared = shared.clone();
                let _ = std::thread::Builder::new()
                    .name("ofd-router-conn".into())
                    .spawn(move || handle_connection(stream, shared));
            })?
        };
        let prober = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ofd-router-probe".into())
                .spawn(move || probe_loop(&shared))?
        };
        Ok(Router {
            shared,
            addr,
            accept,
            prober: Some(prober),
        })
    }

    /// The bound front address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's metrics handle.
    pub fn obs(&self) -> &Obs {
        &self.shared.obs
    }

    /// The supervisor of the local workers, if this router spawned any
    /// (e.g. to SIGKILL a worker from a chaos harness).
    pub fn supervisor(&self) -> Option<&Supervisor> {
        self.shared.supervisor.as_ref()
    }

    /// Whether a client asked the fleet to drain via `POST /admin/drain`.
    pub fn drain_requested(&self) -> bool {
        self.shared.drain_requested.load(Ordering::SeqCst)
    }

    /// Stops the router threads and, when it has one, the supervisor
    /// and its workers. The front port can be bound again on return.
    pub fn shutdown(mut self) {
        self.shared.stopping.store(true, Ordering::SeqCst);
        self.accept.stop();
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
        if let Some(s) = &self.shared.supervisor {
            s.stop();
        }
    }
}

// -------------------------------------------------------------- hash ring

/// Murmur3-style finalizer: FNV over the short, near-identical vnode
/// labels clusters in the upper bits, and ring balance is entirely a
/// property of how uniformly the points spread.
fn mix(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    h
}

/// Consistent-hash ring over worker *slot indices*: `vnodes` points per
/// slot, sorted by hash. Stable across respawns because addresses never
/// enter the hash.
fn build_ring(slots: usize, vnodes: usize) -> Vec<(u64, usize)> {
    let mut ring = Vec::with_capacity(slots * vnodes);
    for slot in 0..slots {
        for v in 0..vnodes {
            ring.push((
                mix(fnv1a64(format!("slot-{slot}-vnode-{v}").as_bytes())),
                slot,
            ));
        }
    }
    ring.sort_unstable();
    ring
}

/// Failover order for `key`: the owning slot first, then each remaining
/// distinct slot in ring-walk order.
fn candidates(ring: &[(u64, usize)], slots: usize, key: u64) -> Vec<usize> {
    let mut order = Vec::with_capacity(slots);
    if ring.is_empty() {
        return order;
    }
    // Keys get the same finalizer as ring points: FNV digests of small
    // inputs live in a narrow band and would otherwise walk the same arc.
    let key = mix(key);
    let start = ring.partition_point(|&(h, _)| h < key) % ring.len();
    for i in 0..ring.len() {
        let slot = ring[(start + i) % ring.len()].1;
        if !order.contains(&slot) {
            order.push(slot);
            if order.len() == slots {
                break;
            }
        }
    }
    order
}

/// The routing key for a request; see the module docs for the scheme.
fn route_key(req: &Request, body: Option<&Value>, shared: &RouterShared) -> u64 {
    if let Some(reference) = req.path.strip_prefix("/v1/datasets/") {
        // All versions of a dataset co-locate: hash the bare name.
        let name = reference.split('@').next().unwrap_or(reference);
        return fnv1a64(name.as_bytes());
    }
    if let Some(body) = body {
        if let Some(reference) = body.get("dataset").and_then(Value::as_str) {
            return match &shared.catalog {
                Some(catalog) => catalog.route_fingerprint(reference),
                None => fnv1a64(reference.as_bytes()),
            };
        }
        if let Some(csv) = body.get("csv").and_then(Value::as_str) {
            let onto = body.get("ontology").and_then(Value::as_str).unwrap_or("");
            return content_fingerprint(csv, onto);
        }
    }
    fnv1a64(req.path.as_bytes())
}

// ------------------------------------------------------------- forwarding

/// Forwards `req` to `addr` through [`exchange`], which clamps the
/// per-attempt I/O timeout to the client's remaining deadline and turns
/// a reply shorter than its `content-length` into an error, so a
/// connection reset mid-body is never relayed as a success.
fn forward(
    addr: SocketAddr,
    req: &Request,
    cfg: &RouterConfig,
    deadline: Option<Instant>,
) -> std::io::Result<Reply> {
    let timeouts = PeerTimeouts {
        connect: Duration::from_millis(cfg.connect_timeout_ms),
        read: Duration::from_millis(cfg.forward_timeout_ms),
    };
    exchange(addr, &req.method, &req.path, &req.body, &timeouts, deadline)
}

/// Whether a 200 reply reports a checkpoint resume — on a *retried*
/// request this is adoption: the replica restored a checkpoint some
/// other worker wrote.
fn reply_resumed(body: Option<Value>) -> bool {
    body.is_some_and(|v| {
        ["resumed_from_level", "resumed_from_phase", "resumed_from_seq"]
            .iter()
            .any(|f| v.get(f).is_some_and(|x| !x.is_null()))
    })
}

// ------------------------------------------------------------ front loops

/// Polls every worker's `/readyz` and records its `state` label; a slot
/// that refuses the connection is `down`. The verdicts drive ring
/// membership: `eject_after` consecutive failures ejects a slot
/// (`serve.router.ring.ejected`), `readmit_after` consecutive successes
/// re-admits it (`serve.router.ring.readmitted`). A probe counts as
/// failed when the peer is unreachable *or* reports a non-routable state
/// (`draining`, `down`) — a host that answers but refuses work sheds its
/// ring segment just like a dead one. The aggregated view is what the
/// router's own `/readyz` serves.
fn probe_loop(shared: &RouterShared) {
    while !shared.stopping.load(Ordering::SeqCst) {
        let addrs = shared.members();
        {
            let mut health = shared.probe_states.lock().expect("probe states lock");
            if health.len() != addrs.len() {
                health.resize(addrs.len(), SlotHealth::unknown());
            }
        }
        for (slot, addr) in addrs.into_iter().enumerate() {
            let state = addr.and_then(|addr| probe_one(addr, &shared.cfg));
            let routable = matches!(state.as_deref(), Some("ok") | Some("degraded"));
            let label = state.unwrap_or_else(|| "down".into());
            let mut health = shared.probe_states.lock().expect("probe states lock");
            let Some(h) = health.get_mut(slot) else {
                continue;
            };
            h.state = label;
            if routable {
                h.fails = 0;
                h.oks = h.oks.saturating_add(1);
                if h.ejected && h.oks >= shared.cfg.readmit_after {
                    h.ejected = false;
                    shared.obs.inc("serve.router.ring.readmitted");
                }
            } else {
                h.oks = 0;
                h.fails = h.fails.saturating_add(1);
                if !h.ejected && h.fails >= shared.cfg.eject_after {
                    h.ejected = true;
                    shared.obs.inc("serve.router.ring.ejected");
                }
            }
        }
        // Sleep in short slices so `shutdown()` never blocks on a parked
        // prober — chaos soaks stretch the interval to minutes to keep the
        // probe schedule deterministic, and a join against a monolithic
        // sleep would stall teardown for the full interval.
        let mut waited = 0u64;
        while waited < shared.cfg.probe_interval_ms && !shared.stopping.load(Ordering::SeqCst) {
            let step = (shared.cfg.probe_interval_ms - waited).min(50);
            std::thread::sleep(Duration::from_millis(step));
            waited += step;
        }
    }
}

fn probe_one(addr: SocketAddr, cfg: &RouterConfig) -> Option<String> {
    let connect = Duration::from_millis(cfg.connect_timeout_ms);
    let timeouts = PeerTimeouts {
        connect,
        read: connect.max(Duration::from_millis(250)),
    };
    let reply = exchange(addr, "GET", "/readyz", b"", &timeouts, None).ok()?;
    let state = reply
        .json()?
        .get("state")
        .and_then(Value::as_str)
        .unwrap_or("unknown")
        .to_string();
    Some(state)
}

fn handle_connection(mut stream: TcpStream, shared: Arc<RouterShared>) {
    let cfg = &shared.cfg;
    let Some(req) = read_or_reject(&mut stream, cfg.max_body_bytes, Duration::from_millis(cfg.head_timeout_ms)) else {
        return;
    };

    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let _ = Response::text(200, "ok\n").write_to(&mut stream);
        }
        ("GET", "/readyz") => {
            let addrs = shared.members();
            let states = shared.probe_states.lock().expect("probe states lock").clone();
            let workers: Vec<Value> = addrs
                .iter()
                .enumerate()
                .map(|(slot, addr)| {
                    let health = states.get(slot);
                    json!({
                        "addr": addr.map(|a| a.to_string()),
                        "state": health.map_or("unknown", |h| h.state.as_str()),
                        "ejected": health.is_some_and(|h| h.ejected),
                    })
                })
                .collect();
            let total = addrs.len();
            // A slot counts as live when it has an address and is still
            // in the ring; a partial ring is `degraded`, not down.
            let live = addrs
                .iter()
                .enumerate()
                .filter(|(slot, addr)| {
                    addr.is_some() && !states.get(*slot).is_some_and(|h| h.ejected)
                })
                .count();
            let ready = live > 0;
            let state = if live == 0 {
                "down"
            } else if live < total {
                "degraded"
            } else {
                "ok"
            };
            let body = json!({
                "ready": ready,
                "state": state,
                "role": "router",
                "workers": workers,
                "live_workers": live as u64,
                "total_workers": total as u64,
            });
            let _ = Response::json(if ready { 200 } else { 503 }, &body).write_to(&mut stream);
        }
        ("GET", "/metrics") => {
            let text = shared.obs.snapshot().to_json_string(true);
            let _ = Response::json_text(200, text).write_to(&mut stream);
        }
        ("POST", "/admin/drain") => {
            // Fan the drain out to every live worker; the router itself
            // holds no in-flight engine state to checkpoint.
            shared.drain_requested.store(true, Ordering::SeqCst);
            let mut drained = 0u64;
            let drain = Request {
                method: "POST".into(),
                path: "/admin/drain".into(),
                headers: Vec::new(),
                body: Vec::new(),
            };
            for addr in shared.members().into_iter().flatten() {
                if forward(addr, &drain, cfg, None).is_ok() {
                    drained += 1;
                }
            }
            let _ = Response::json(200, &json!({ "draining": true, "workers": drained }))
                .write_to(&mut stream);
        }
        ("PUT", path)
            if path
                .strip_prefix("/v1/datasets/")
                .is_some_and(|name| !name.is_empty() && !name.contains('/')) =>
        {
            // Catalog writes do not route to one owner: they replicate
            // write-through to a quorum of live peers so a dataset
            // version survives the loss of any minority of hosts.
            let name = req
                .path
                .strip_prefix("/v1/datasets/")
                .unwrap_or_default()
                .to_string();
            replicate_put(&req, &mut stream, &shared, &name);
        }
        _ => route(req, stream, &shared),
    }
}

/// Fans a catalog `PUT /v1/datasets/{name}` out to every live peer with
/// a pinned version number, succeeding at majority ack:
///
/// 1. pre-flight — fewer live peers than the quorum (majority of all
///    slots) means an immediate 503 with **zero writes**, so a partition
///    can never produce a torn version;
/// 2. pin — the new version is `max(live peers' newest) + 1`, carried in
///    the fan-out body so every replica stores the same number;
/// 3. fan out — workers store the pinned write **pending**
///    (`committed: false`) and apply it idempotently (re-registering
///    identical content at an existing version acks), each peer under a
///    small [`RetryPolicy`] budget so a transient reset or torn reply
///    does not cost the quorum a replica;
/// 4. commit — `acks ≥ quorum` runs a commit round flipping the pinned
///    version readable on every acker. A coordinator that dies between
///    quorum ack and commit leaves only *pending* files behind; readers
///    quorum-confirm those and either commit or delete them
///    (`serve.catalog.read_repaired`) — a torn version is never
///    readable;
/// 5. settle — quorum answers 200 (counting
///    `serve.catalog.replicated_partial` when some peer missed the
///    write); fewer acks rolls the pinned version back off every peer
///    that took it and answers 503.
fn replicate_put(req: &Request, stream: &mut TcpStream, shared: &RouterShared, name: &str) {
    let obs = &shared.obs;
    let body: Value = match std::str::from_utf8(&req.body)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
    {
        Ok(v) => v,
        Err(e) => {
            let _ = Response::json(400, &json!({ "error": format!("body is not JSON: {e}") }))
                .write_to(stream);
            return;
        }
    };
    let addrs = shared.members();
    let total = addrs.len();
    let quorum = total / 2 + 1;
    let ejected = shared.ejected_flags();
    let live: Vec<SocketAddr> = addrs
        .iter()
        .enumerate()
        .filter(|(slot, _)| !ejected.get(*slot).copied().unwrap_or(false))
        .filter_map(|(_, addr)| *addr)
        .collect();
    if live.len() < quorum {
        let _ = Response::json(
            503,
            &json!({
                "error": "catalog write quorum unavailable",
                "live": live.len() as u64,
                "total": total as u64,
                "quorum": quorum as u64,
            }),
        )
        .write_to(stream);
        return;
    }

    let timeouts = PeerTimeouts::from_ms(shared.cfg.peer_timeout_ms);
    let policy = RetryPolicy::new(3, shared.cfg.retry_backoff_ms.clamp(10, 250));
    let describe = format!("/v1/datasets/{name}");
    let mut newest = 0u64;
    for &addr in &live {
        if let Ok((200, reply)) = crate::peers::peer_json(addr, "GET", &describe, None, &timeouts)
        {
            newest = newest.max(reply.get("version").and_then(Value::as_u64).unwrap_or(0));
        }
    }
    let pinned = newest + 1;
    let mut put_body = body;
    if let Value::Object(fields) = &mut put_body {
        fields.retain(|(k, _)| k != "version");
        fields.push(("version".into(), json!(pinned)));
    }

    let mut acks: Vec<SocketAddr> = Vec::new();
    let mut first_ack: Option<Value> = None;
    let mut rejection: Option<(u16, Value)> = None;
    for &addr in &live {
        // Pinned writes are idempotent by content, so retrying a PUT
        // whose ack was torn off the wire is safe — the replica re-acks
        // without rewriting.
        match policy.run(
            |_| crate::peers::peer_json(addr, "PUT", &describe, Some(&put_body), &timeouts),
            |e| e.kind() == std::io::ErrorKind::ConnectionRefused,
        ) {
            Ok((200, reply)) => {
                if first_ack.is_none() {
                    first_ack = Some(reply);
                }
                acks.push(addr);
            }
            Ok((status, reply)) if (400..500).contains(&status) && rejection.is_none() => {
                // A validation rejection (bad CSV, bad name) is the
                // client's fault, not a replication failure — remember
                // it so the client sees the real reason, not a 503.
                rejection = Some((status, reply));
            }
            Ok(_) => {}
            Err(_) => {
                obs.inc(RETRIES_EXHAUSTED);
            }
        }
    }

    if acks.len() >= quorum {
        // Commit round: flip the pinned version readable on every acker.
        // Best-effort — the write is durable at quorum ack; a replica
        // the commit misses repairs itself at read time via quorum
        // confirmation.
        let commit = format!("/v1/datasets/{name}/{pinned}/commit");
        for &addr in &acks {
            let _ = policy.run(
                |_| crate::peers::peer_json(addr, "POST", &commit, None, &timeouts),
                |e| e.kind() == std::io::ErrorKind::ConnectionRefused,
            );
        }
        if acks.len() < total {
            obs.inc("serve.catalog.replicated_partial");
        }
        let mut reply = first_ack.unwrap_or_else(|| json!({ "name": name, "version": pinned }));
        if let Value::Object(fields) = &mut reply {
            fields.push(("replicas".into(), json!(acks.len() as u64)));
            fields.push(("quorum".into(), json!(quorum as u64)));
        }
        obs.inc("serve.router.routed");
        let _ = Response::json(200, &reply).write_to(stream);
        return;
    }

    // Quorum failed: delete the pinned version wherever it landed, so no
    // surviving peer ever serves a write the fleet did not commit.
    let rollback = format!("/v1/datasets/{name}/{pinned}");
    for &addr in &acks {
        let _ = exchange(addr, "DELETE", &rollback, b"", &timeouts, None);
    }
    match rejection {
        Some((status, reply)) => {
            let _ = Response::json(status, &reply).write_to(stream);
        }
        None => {
            let _ = Response::json(
                503,
                &json!({
                    "error": "catalog write failed to reach quorum",
                    "acks": acks.len() as u64,
                    "quorum": quorum as u64,
                }),
            )
            .write_to(stream);
        }
    }
}

/// Routes one request: pick the ring owner, forward, fail over with
/// backoff to the next distinct replica on connect error, i/o error or
/// 5xx. Replies are relayed byte-for-byte.
fn route(req: Request, mut stream: TcpStream, shared: &Arc<RouterShared>) {
    let cfg = &shared.cfg;
    let obs = &shared.obs;

    let body: Option<Value> = if req.body.is_empty() {
        None
    } else {
        std::str::from_utf8(&req.body)
            .ok()
            .and_then(|text| serde_json::from_str(text).ok())
    };
    let key = route_key(&req, body.as_ref(), shared);

    let slots = shared.members().len();
    let ring = build_ring(slots, cfg.vnodes_per_slot.max(1));
    let order = candidates(&ring, slots, key);

    // The client's own timeout hint bounds the failover schedule: the
    // linear backoff must never sleep past the moment the caller stops
    // listening. Without the hint, backoff runs as configured.
    let deadline = body
        .as_ref()
        .and_then(|b| b.get("timeout_ms"))
        .and_then(Value::as_u64)
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    let mut last_error = String::from("no worker replicas configured");
    // One RetryPolicy session spans the whole failover walk: it owns the
    // jittered backoff, the deadline clamp, and the fast-fail rule
    // (connection-refused means nothing is listening, so the next
    // replica is tried immediately — only timeouts, torn replies and
    // 5xx consume the backoff budget). The loop structure itself bounds
    // the attempt count, so the session's budget is effectively the
    // deadline.
    let policy = RetryPolicy::new(u32::MAX, cfg.retry_backoff_ms).deadline(deadline);
    let mut session = policy.session();
    // Sleep decided after the previous failure, applied only right
    // before another forward actually happens — skipped slots (ejected,
    // down) must not consume it.
    let mut pending_sleep: Option<Duration> = None;
    'failover: for round in 0..=cfg.extra_rounds {
        // Re-read ejection each round: the prober may eject the very
        // peer that just failed us mid-failover.
        let ejected = shared.ejected_flags();
        for &slot in &order {
            // An ejected slot takes no traffic and costs no sleep — the
            // prober already decided it is gone; failover walks straight
            // past it to the next replica on the ring.
            if ejected.get(slot).copied().unwrap_or(false) {
                last_error = format!("worker slot {slot} is ejected from the ring");
                continue;
            }
            // Re-read the slot's address every attempt: a respawn during
            // failover swaps the port under us, and that fresh worker is
            // exactly who we want next. A down slot costs no sleep — the
            // backoff belongs to real retries, not skipped ones.
            let Some(addr) = shared.members().get(slot).copied().flatten() else {
                last_error = format!("worker slot {slot} is down");
                continue;
            };
            if let Some(sleep) = pending_sleep.take() {
                obs.inc("serve.router.retried");
                if !sleep.is_zero() {
                    std::thread::sleep(sleep);
                }
            }
            match forward(addr, &req, cfg, deadline) {
                Ok(reply) if reply.status < 500 => {
                    obs.inc("serve.router.routed");
                    if session.failures() > 0 && reply.status == 200 && reply_resumed(reply.json()) {
                        obs.inc("serve.router.adopted");
                    }
                    let _ = stream.write_all(&reply.raw);
                    return;
                }
                Ok(Reply { status, .. }) => {
                    last_error = format!("worker {addr} answered {status} (round {round})");
                    match session.after_failure(false) {
                        Some(sleep) => pending_sleep = Some(sleep),
                        None => break 'failover,
                    }
                }
                Err(e) => {
                    let fast_fail = e.kind() == std::io::ErrorKind::ConnectionRefused;
                    last_error = format!("worker {addr}: {e} (round {round})");
                    match session.after_failure(fast_fail) {
                        Some(sleep) => pending_sleep = Some(sleep),
                        None => break 'failover,
                    }
                }
            }
        }
    }
    if deadline.is_some_and(|d| Instant::now() >= d) {
        last_error = format!(
            "request deadline passed after {} attempts; last: {last_error}",
            session.failures()
        );
    }
    obs.inc(RETRIES_EXHAUSTED);
    let _ = Response::json(
        502,
        &json!({ "error": "no replica could answer", "detail": last_error }),
    )
    .write_to(&mut stream);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_covers_all_slots_and_is_deterministic() {
        let ring = build_ring(4, 40);
        assert_eq!(ring.len(), 160);
        assert_eq!(ring, build_ring(4, 40), "same inputs, same ring");
        for slot in 0..4 {
            assert!(ring.iter().any(|&(_, s)| s == slot), "slot {slot} present");
        }
    }

    #[test]
    fn candidates_visit_each_slot_exactly_once() {
        let ring = build_ring(3, 40);
        for key in [0u64, 1, u64::MAX, fnv1a64(b"clinical")] {
            let order = candidates(&ring, 3, key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "key {key}: order {order:?}");
        }
        assert!(candidates(&build_ring(0, 40), 0, 7).is_empty());
    }

    #[test]
    fn same_key_routes_to_the_same_owner() {
        let ring = build_ring(5, 40);
        let a = candidates(&ring, 5, fnv1a64(b"dataset-a"));
        let b = candidates(&ring, 5, fnv1a64(b"dataset-a"));
        assert_eq!(a, b);
    }

    #[test]
    fn keys_spread_across_slots() {
        // Not a uniformity proof — just that 40 vnodes/slot doesn't
        // degenerate to one owner for everything.
        let ring = build_ring(4, 40);
        let mut owners = std::collections::HashSet::new();
        for i in 0..64u64 {
            owners.insert(candidates(&ring, 4, fnv1a64(format!("key-{i}").as_bytes()))[0]);
        }
        assert!(owners.len() >= 3, "64 keys landed on {} slot(s)", owners.len());
    }

    #[test]
    fn resumed_detection_reads_the_reply_body() {
        assert!(reply_resumed(Some(json!({"resumed_from_level": 3}))));
        assert!(
            reply_resumed(Some(json!({"resumed_from_seq": 7}))),
            "stream-session adoption is detected"
        );
        assert!(!reply_resumed(Some(json!({
            "resumed_from_level": null, "resumed_from_phase": null, "resumed_from_seq": null
        }))));
        assert!(!reply_resumed(None), "a non-JSON body is no resume");
    }

    #[test]
    fn router_with_zero_workers_answers_502_and_serves_metrics() {
        let obs = Obs::enabled();
        let router = Router::bind(
            RouterConfig {
                obs: obs.clone(),
                ..RouterConfig::default()
            },
            None,
            Vec::new(),
        )
        .expect("bind");
        let addr = router.addr();

        let (status, _) = call(addr, "POST", "/v1/discover", b"{}");
        assert_eq!(status, 502, "no replicas → bad gateway");

        let (status, body) = call(addr, "GET", "/metrics", b"");
        assert_eq!(status, 200);
        let body = body.expect("metrics json");
        let counters = body.get("counters").expect("counters");
        for name in ROUTER_COUNTERS {
            assert!(counters.get(name).is_some(), "{name} pinned at bind");
        }
        router.shutdown();
    }

    #[test]
    fn routes_dataset_references_and_inline_content_identically() {
        // The whole point of fingerprint routing: a job shipped inline
        // and the same job shipped by reference land on the same worker.
        let dir = std::env::temp_dir().join(format!(
            "ofd-router-key-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = Catalog::open(dir.clone(), FaultPlan::none(), Obs::disabled());
        catalog.put("routed", "A,B\n1,2\n", "").expect("put");
        let shared = RouterShared {
            cfg: RouterConfig {
                catalog_dir: Some(dir.clone()),
                ..RouterConfig::default()
            },
            obs: Obs::disabled(),
            supervisor: None,
            peers: Vec::new(),
            catalog: Some(catalog),
            stopping: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            probe_states: Mutex::new(Vec::new()),
        };
        let post = |body: &Value| Request {
            method: "POST".into(),
            path: "/v1/discover".into(),
            headers: Vec::new(),
            body: serde_json::to_string(body).expect("body").into_bytes(),
        };
        let inline = json!({"csv": "A,B\n1,2\n"});
        let by_ref = json!({"dataset": "routed@1"});
        assert_eq!(
            route_key(&post(&inline), Some(&inline), &shared),
            route_key(&post(&by_ref), Some(&by_ref), &shared),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An address nothing listens on (bound, then immediately released).
    fn dead_addr() -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr")
    }

    /// One request through the crate's client; (status, JSON body).
    fn call(addr: SocketAddr, method: &str, path: &str, body: &[u8]) -> (u16, Option<Value>) {
        let timeouts = PeerTimeouts::from_ms(30_000);
        let reply = exchange(addr, method, path, body, &timeouts, None).expect("exchange");
        (reply.status, reply.json())
    }

    /// Runs `route` over fixed `peers` and returns (status, elapsed).
    fn route_once(cfg: RouterConfig, peers: Vec<SocketAddr>, body: &Value) -> (u16, Duration) {
        let shared = Arc::new(RouterShared {
            cfg,
            obs: Obs::disabled(),
            supervisor: None,
            peers,
            catalog: None,
            stopping: AtomicBool::new(false),
            drain_requested: AtomicBool::new(false),
            probe_states: Mutex::new(Vec::new()),
        });
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let front = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            let req = read_or_reject(&mut stream, 1 << 20, Duration::from_secs(5)).expect("request");
            route(req, stream, &shared);
        });
        let started = Instant::now();
        let (status, _) = call(addr, "POST", "/v1/discover", body.to_string().as_bytes());
        let elapsed = started.elapsed();
        front.join().expect("front thread");
        (status, elapsed)
    }

    #[test]
    fn failover_backoff_is_clamped_to_the_request_deadline() {
        // A backoff schedule of minutes, but a client that only waits
        // 50 ms: the old loop would sleep the full backoff between every
        // failed attempt; the fix clamps each sleep to the remaining
        // deadline and answers 502 as soon as it has passed.
        let cfg = RouterConfig {
            retry_backoff_ms: 120_000,
            extra_rounds: 3,
            connect_timeout_ms: 200,
            obs: Obs::disabled(),
            ..RouterConfig::default()
        };
        let peers = vec![dead_addr(), dead_addr()];
        let (status, elapsed) = route_once(cfg, peers, &json!({"timeout_ms": 50u64}));
        assert_eq!(status, 502, "dead fleet → bad gateway");
        assert!(
            elapsed < Duration::from_secs(10),
            "deadline-clamped failover must not sleep the configured {:?}-scale backoff (took {elapsed:?})",
            Duration::from_millis(120_000),
        );
    }

    #[test]
    fn single_attempt_failover_never_sleeps() {
        // One replica, no extra rounds: there is no retry to back off
        // for, so a pathological backoff setting must cost nothing.
        let cfg = RouterConfig {
            retry_backoff_ms: 600_000,
            extra_rounds: 0,
            connect_timeout_ms: 200,
            obs: Obs::disabled(),
            ..RouterConfig::default()
        };
        let (status, elapsed) = route_once(cfg, vec![dead_addr()], &json!({"csv": "A\n1\n"}));
        assert_eq!(status, 502);
        assert!(
            elapsed < Duration::from_secs(5),
            "no-retry path must answer without backoff (took {elapsed:?})"
        );
    }

    #[test]
    fn connection_refused_fails_over_without_backoff() {
        // Three dead replicas and a minutes-scale backoff, but no client
        // deadline: connection-refused means nothing is listening, so
        // failover must jump straight to the next replica instead of
        // sleeping toward an address that cannot recover mid-request.
        let cfg = RouterConfig {
            retry_backoff_ms: 600_000,
            extra_rounds: 2,
            connect_timeout_ms: 200,
            obs: Obs::disabled(),
            ..RouterConfig::default()
        };
        let peers = vec![dead_addr(), dead_addr(), dead_addr()];
        let (status, elapsed) = route_once(cfg, peers, &json!({"csv": "A\n1\n"}));
        assert_eq!(status, 502);
        assert!(
            elapsed < Duration::from_secs(5),
            "refused connections must not consume the backoff budget (took {elapsed:?})"
        );
    }

    /// A fake worker whose `/readyz` health is scripted: while
    /// `fail_budget > 0` every request consumes one unit and answers
    /// 503 `draining`; otherwise 200 `ok`. Flipping health through the
    /// budget (instead of rebinding a listener) keeps the port stable
    /// across the flap, which is exactly the case hysteresis exists for.
    fn scripted_worker(fail_budget: Arc<std::sync::atomic::AtomicU32>) -> (SocketAddr, AcceptLoop) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let accept = AcceptLoop::spawn(listener, "scripted-worker", move |mut s| {
            let _ = read_or_reject(&mut s, 1024, Duration::from_millis(500));
            let failing = fail_budget
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |b| b.checked_sub(1))
                .is_ok();
            let (status, state) = if failing { (503, "draining") } else { (200, "ok") };
            let _ = Response::json(status, &json!({ "state": state })).write_to(&mut s);
        })
        .expect("scripted worker");
        (addr, accept)
    }

    fn counter(obs: &Obs, name: &str) -> u64 {
        obs.snapshot().counter(name).unwrap_or(0)
    }

    fn wait_until(deadline: Duration, what: &str, mut done: impl FnMut() -> bool) {
        let end = Instant::now() + deadline;
        while !done() {
            assert!(Instant::now() < end, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    #[test]
    fn flapping_peer_ejects_and_readmits_with_hysteresis() {
        use std::sync::atomic::AtomicU32;
        let steady = Arc::new(AtomicU32::new(0));
        let flappy = Arc::new(AtomicU32::new(0));
        let (addr_a, mut worker_a) = scripted_worker(steady.clone());
        let (addr_b, mut worker_b) = scripted_worker(flappy.clone());
        let obs = Obs::enabled();
        let router = Router::bind(
            RouterConfig {
                probe_interval_ms: 20,
                eject_after: 3,
                readmit_after: 2,
                connect_timeout_ms: 200,
                obs: obs.clone(),
                ..RouterConfig::default()
            },
            None,
            vec![addr_a, addr_b],
        )
        .expect("bind");

        // A single failed probe is absorbed: the budget feeds exactly one
        // 503 to the prober, well under eject_after = 3.
        flappy.store(1, Ordering::SeqCst);
        wait_until(Duration::from_secs(10), "the blip to be probed away", || {
            flappy.load(Ordering::SeqCst) == 0
        });
        std::thread::sleep(Duration::from_millis(200)); // ≥ several probe cycles
        assert_eq!(counter(&obs, "serve.router.ring.ejected"), 0, "one blip must not eject");

        // A sustained failure ejects exactly once, and the router reports
        // a degraded (not down) fleet while the ring is partial.
        flappy.store(u32::MAX, Ordering::SeqCst);
        wait_until(Duration::from_secs(10), "ejection", || {
            counter(&obs, "serve.router.ring.ejected") == 1
        });
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(
            counter(&obs, "serve.router.ring.ejected"),
            1,
            "continued failures must not re-count an already ejected slot"
        );
        let (status, body) = call(router.addr(), "GET", "/readyz", b"");
        assert_eq!(status, 200, "one live worker keeps the router ready");
        let body = body.expect("readyz body");
        assert_eq!(body.get("state").and_then(Value::as_str), Some("degraded"));
        assert_eq!(body.get("live_workers").and_then(Value::as_u64), Some(1));
        let workers = body.get("workers").and_then(Value::as_array).expect("workers");
        assert_eq!(workers[1].get("ejected").and_then(Value::as_bool), Some(true));

        // Recovery readmits after readmit_after consecutive healthy probes.
        flappy.store(0, Ordering::SeqCst);
        wait_until(Duration::from_secs(10), "readmission", || {
            counter(&obs, "serve.router.ring.readmitted") == 1
        });
        let (status, body) = call(router.addr(), "GET", "/readyz", b"");
        assert_eq!(status, 200);
        let body = body.expect("readyz body");
        assert_eq!(body.get("state").and_then(Value::as_str), Some("ok"));
        assert_eq!(body.get("live_workers").and_then(Value::as_u64), Some(2));

        // A second flap cycles the same hysteresis again.
        flappy.store(u32::MAX, Ordering::SeqCst);
        wait_until(Duration::from_secs(10), "second ejection", || {
            counter(&obs, "serve.router.ring.ejected") == 2
        });

        router.shutdown();
        worker_a.stop();
        worker_b.stop();
    }

    /// Three real workers with *disjoint* catalog roots behind a static
    /// router — the multi-host shape, shrunk onto localhost.
    fn quorum_fleet() -> (Vec<crate::Server>, Router, Obs, std::path::PathBuf) {
        let tmp = std::env::temp_dir().join(format!(
            "ofd-router-quorum-test-{}-{:x}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0)
        ));
        let _ = std::fs::remove_dir_all(&tmp);
        let mut servers = Vec::new();
        for who in ["a", "b", "c"] {
            let cfg = crate::ServeConfig {
                checkpoint_dir: Some(tmp.join(who)),
                ..crate::ServeConfig::default()
            };
            servers.push(crate::Server::bind(cfg).expect("worker bind"));
        }
        let addrs: Vec<SocketAddr> = servers.iter().map(|s| s.addr()).collect();
        let obs = Obs::enabled();
        let router = Router::bind(
            RouterConfig {
                connect_timeout_ms: 500,
                obs: obs.clone(),
                ..RouterConfig::default()
            },
            None,
            addrs,
        )
        .expect("router bind");
        (servers, router, obs, tmp)
    }

    #[test]
    fn quorum_put_survives_one_dead_peer_and_counts_partial_replication() {
        let (mut servers, router, obs, tmp) = quorum_fleet();
        let body = json!({"csv": "A,B\n1,2\n", "ontology": ""});

        // Full fleet: the write lands everywhere.
        let (status, reply) = crate::peers::peer_json(router.addr(), "PUT", "/v1/datasets/q", Some(&body), &PeerTimeouts::default())
            .expect("router put");
        assert_eq!(status, 200, "full-fleet put: {reply:?}");
        assert_eq!(reply.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(reply.get("replicas").and_then(Value::as_u64), Some(3));
        assert_eq!(counter(&obs, "serve.catalog.replicated_partial"), 0);

        // Kill C; two of three still make quorum, partial is counted.
        servers.pop().expect("worker c").shutdown(Duration::from_millis(200));
        let body2 = json!({"csv": "A,B\n1,3\n", "ontology": ""});
        let (status, reply) = crate::peers::peer_json(router.addr(), "PUT", "/v1/datasets/q", Some(&body2), &PeerTimeouts::default())
            .expect("router put");
        assert_eq!(status, 200, "majority put: {reply:?}");
        assert_eq!(reply.get("version").and_then(Value::as_u64), Some(2));
        assert_eq!(reply.get("replicas").and_then(Value::as_u64), Some(2));
        assert_eq!(counter(&obs, "serve.catalog.replicated_partial"), 1);

        // Every surviving peer serves the committed version directly.
        for s in &servers {
            let (status, reply) =
                crate::peers::peer_json(s.addr(), "GET", "/v1/datasets/q", None, &PeerTimeouts::default())
                    .expect("describe");
            assert_eq!(status, 200);
            assert_eq!(
                reply.get("version").and_then(Value::as_u64),
                Some(2),
                "survivor {} must hold the committed write",
                s.addr()
            );
        }

        router.shutdown();
        for s in servers {
            s.shutdown(Duration::from_millis(200));
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn quorum_put_with_a_dead_majority_rolls_back_and_answers_503() {
        let (mut servers, router, obs, tmp) = quorum_fleet();
        let body = json!({"csv": "A,B\n1,2\n", "ontology": ""});
        let (status, _) = crate::peers::peer_json(router.addr(), "PUT", "/v1/datasets/q", Some(&body), &PeerTimeouts::default())
            .expect("router put");
        assert_eq!(status, 200);

        // Kill B and C: one ack cannot make a quorum of two.
        servers.pop().expect("worker c").shutdown(Duration::from_millis(200));
        servers.pop().expect("worker b").shutdown(Duration::from_millis(200));
        let body2 = json!({"csv": "A,B\n9,9\n", "ontology": ""});
        let (status, reply) = crate::peers::peer_json(router.addr(), "PUT", "/v1/datasets/q", Some(&body2), &PeerTimeouts::default())
            .expect("router put");
        assert_eq!(status, 503, "minority put must fail: {reply:?}");
        assert_eq!(counter(&obs, "serve.catalog.replicated_partial"), 0);

        // No torn version: the survivor still serves version 1 and has no
        // trace of the aborted version 2.
        let survivor = servers[0].addr();
        let (status, reply) =
            crate::peers::peer_json(survivor, "GET", "/v1/datasets/q", None, &PeerTimeouts::default())
                .expect("describe");
        assert_eq!(status, 200);
        assert_eq!(reply.get("version").and_then(Value::as_u64), Some(1));
        let (status, _) =
            crate::peers::peer_json(survivor, "GET", "/v1/datasets/q@2", None, &PeerTimeouts::default())
                .expect("resolve");
        assert_ne!(status, 200, "aborted version must be rolled back");

        router.shutdown();
        for s in servers {
            s.shutdown(Duration::from_millis(200));
        }
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn idle_shutdown_returns_promptly_and_frees_the_port() {
        let router = Router::bind(RouterConfig::default(), None, Vec::new()).expect("bind");
        let addr = router.addr();
        let t = Instant::now();
        router.shutdown();
        assert!(t.elapsed() < Duration::from_secs(1), "shutdown took {:?}", t.elapsed());
        TcpListener::bind(addr).expect("the port can be bound again");
    }

    #[cfg(unix)]
    #[test]
    fn peers_follow_the_supervised_slots_on_the_ring_and_are_never_spawned() {
        use crate::supervisor::{SupervisorConfig, WorkerSpec};
        // A local worker that only prints its banner and sleeps.
        let supervisor = Supervisor::start(SupervisorConfig {
            workers: 1,
            banner_timeout: Duration::from_secs(5),
            obs: Obs::disabled(),
            ..SupervisorConfig::new(WorkerSpec {
                program: "/bin/sh".into(),
                args: vec!["-c".into(), "echo listening on 127.0.0.1:9005; sleep 30".into()],
            })
        })
        .expect("supervisor");
        let remote: SocketAddr = "10.1.2.3:7777".parse().unwrap();
        let router = Router::bind(
            RouterConfig {
                probe_interval_ms: 20,
                connect_timeout_ms: 50,
                obs: Obs::disabled(),
                ..RouterConfig::default()
            },
            Some(supervisor),
            vec![remote],
        )
        .expect("bind");
        let local: SocketAddr = "127.0.0.1:9005".parse().unwrap();
        assert_eq!(
            router.shared.members(),
            vec![Some(local), Some(remote)],
            "supervised slots first, then the peers"
        );
        let (_, body) = call(router.addr(), "GET", "/readyz", b"");
        let body = body.expect("readyz body");
        let workers = body.get("workers").and_then(Value::as_array).expect("workers");
        assert_eq!(workers[0].get("addr"), Some(&json!("127.0.0.1:9005")));
        assert_eq!(workers[1].get("addr"), Some(&json!("10.1.2.3:7777")));
        // Several probe rounds later the peer is still a fixed member,
        // and the supervisor still owns exactly its one local child.
        std::thread::sleep(Duration::from_millis(200));
        let sup = router.supervisor().expect("supervisor");
        assert_eq!(sup.pids().len(), 1, "the peer never became a spawned slot");
        assert!(sup.pids()[0].is_some());
        assert!(!sup.kill_worker(1), "nothing local to kill at the peer's slot");
        assert_eq!(router.shared.members()[1], Some(remote));
        router.shutdown();
    }
}

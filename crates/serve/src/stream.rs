//! Streaming OFD maintenance sessions behind `POST /v1/append` and
//! `POST /v1/retract`.
//!
//! A *session* is the incremental counterpart of a batch `/v1/validate`
//! (or `/v1/discover`) call: the same inputs — CSV text or a catalog
//! reference, ontology, and either an explicit `"ofds"` list or discovery
//! parameters — plus an [`IncrementalChecker`] that absorbs tuple
//! inserts, retractions and cell updates without re-running validation
//! from scratch. Sessions are keyed by a fingerprint of the *resolved*
//! base inputs and Σ configuration, so any replica handed the same
//! request computes the same session id.
//!
//! Durability follows the server's checkpoint discipline: after every
//! applied batch the session saves a snapshot (base fingerprint, Σ spec
//! strings, the normalized edit log) under
//! `<checkpoint-root>/stream-<fp>` via [`SnapshotStore`]. A restarted —
//! or routed-over — replica rebuilds the base relation from the request's
//! own inputs and replays the edit log, adopting the dead sibling's
//! session mid-stream (`resumed_from_seq` in the first response after
//! adoption). The snapshot never stores the CSV: the request that resumes
//! a session necessarily carries the same inputs, because that is what
//! the session key hashes.
//!
//! Conflicts (a stale `"old"` guard on an update, a retract index past
//! the current row count) are client-state errors, not endpoint
//! failures: they map to 409, never move the circuit breaker, and the
//! applied prefix of the batch is persisted before the error returns.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use ofd_core::{
    CoreError, Fingerprint, IncrementalChecker, Obs, Ofd, OfdKind, Relation, SenseIndex,
    SnapshotStore,
};
use ofd_datagen::csv;
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_ontology::{parse_ontology, Ontology};
use serde_json::{json, Value};

use crate::catalog::CatalogEntry;
use crate::jobs::{
    field, opt_f64, opt_str, opt_u64, parse_spec_list, required_str, JobContext, JobError,
    JobOutcome,
};

/// Counters owned by the streaming layer, touched at server bind so the
/// metrics schema is stable from the first scrape.
pub const STREAM_COUNTERS: [&str; 10] = [
    "serve.stream.sessions",
    "serve.stream.resumed",
    "serve.stream.edits",
    "serve.stream.conflicts",
    "serve.stream.replay_failed",
    "incremental.inserts",
    "incremental.retracts",
    "incremental.updates",
    "incremental.reverified_classes",
    "incremental.stale_updates",
];

/// In-memory sessions are bounded; beyond this, checkpointed sessions are
/// evicted (they rebuild from their snapshot on next touch). Sessions
/// without a snapshot store are never evicted — dropping them would lose
/// state irrecoverably.
const MAX_RESIDENT_SESSIONS: usize = 64;

/// A resident session plus the logical time of its last touch — the LRU
/// clock is a counter advanced under the table lock, not wall time, so
/// recency stays total-ordered without a syscall.
struct Resident {
    sess: Arc<Mutex<Session>>,
    touched: u64,
}

struct Table {
    entries: HashMap<u64, Resident>,
    clock: u64,
}

/// Live streaming sessions, keyed by base-input fingerprint.
///
/// Lock order: the map mutex is never held while a session mutex is held.
/// Lookups clone the `Arc` out and release the map before locking the
/// session, so edits to different sessions proceed concurrently across
/// the worker pool. Eviction follows the same discipline: the victim is
/// removed from the table first, then its snapshot directory is pruned
/// after the table lock is released.
pub struct StreamSessions {
    map: Mutex<Table>,
    capacity: usize,
}

impl Default for StreamSessions {
    fn default() -> StreamSessions {
        StreamSessions::new()
    }
}

impl StreamSessions {
    /// An empty session table with the default residency bound.
    pub fn new() -> StreamSessions {
        StreamSessions::with_capacity(MAX_RESIDENT_SESSIONS)
    }

    /// An empty session table evicting beyond `capacity` resident
    /// sessions (tests shrink this to exercise eviction cheaply).
    pub fn with_capacity(capacity: usize) -> StreamSessions {
        StreamSessions {
            map: Mutex::new(Table {
                entries: HashMap::new(),
                clock: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Number of resident sessions (for tests and readiness detail).
    pub fn len(&self) -> usize {
        self.map.lock().expect("sessions lock").entries.len()
    }

    /// True when no session is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn get(&self, key: u64) -> Option<Arc<Mutex<Session>>> {
        let mut table = self.map.lock().expect("sessions lock");
        table.clock += 1;
        let now = table.clock;
        table.entries.get_mut(&key).map(|r| {
            r.touched = now;
            r.sess.clone()
        })
    }

    /// Inserts `built` unless a concurrent open won the race, in which
    /// case the winner is returned and `built` is discarded (both were
    /// constructed from identical inputs, so the states are identical).
    ///
    /// At capacity, the least-recently-touched checkpointed session is
    /// evicted and its snapshot directory pruned to the newest file —
    /// enough to rebuild on next touch, nothing more. Sessions without a
    /// store are never evicted (dropping them would lose state), and the
    /// prune happens outside the table lock so a slow filesystem never
    /// stalls unrelated opens.
    fn insert(&self, key: u64, built: Session) -> Arc<Mutex<Session>> {
        let (sess, evicted) = {
            let mut table = self.map.lock().expect("sessions lock");
            table.clock += 1;
            let now = table.clock;
            let mut evicted = None;
            if table.entries.len() >= self.capacity && !table.entries.contains_key(&key) {
                let victim = table
                    .entries
                    .iter()
                    .filter(|(k, r)| {
                        **k != key
                            && r.sess.try_lock().map(|s| s.store.is_some()).unwrap_or(false)
                    })
                    .min_by_key(|(_, r)| r.touched)
                    .map(|(k, _)| *k);
                if let Some(v) = victim {
                    evicted = table.entries.remove(&v);
                }
            }
            let sess = table
                .entries
                .entry(key)
                .or_insert_with(|| Resident {
                    sess: Arc::new(Mutex::new(built)),
                    touched: now,
                })
                .sess
                .clone();
            (sess, evicted)
        };
        if let Some(resident) = evicted {
            if let Ok(victim) = resident.sess.lock() {
                if let Some(store) = &victim.store {
                    // Keep only the newest snapshot: everything the next
                    // touch needs to rebuild, while older generations stop
                    // accumulating on disk for cold sessions.
                    let _ = store.prune("session", 1);
                }
            }
        }
        sess
    }
}

/// One streaming session: the live relation, its sense index, the
/// maintained checker, and the durable edit log.
struct Session {
    fingerprint: u64,
    rel: Relation,
    onto: Ontology,
    index: SenseIndex,
    theta: Option<usize>,
    /// Σ as re-parseable `"A,B->C"` strings — what the snapshot persists.
    specs: Vec<String>,
    checker: IncrementalChecker,
    /// Normalized ops applied so far, in order — the replay log.
    edits: Vec<Value>,
    /// Snapshot sequence number == batches applied so far.
    seq: u64,
    store: Option<SnapshotStore>,
    /// Set when this in-memory session was rebuilt from a snapshot; taken
    /// by the first response so the router can count the adoption.
    resumed_from: Option<u64>,
}

impl Session {
    fn id(&self) -> String {
        format!("stream-{:016x}", self.fingerprint)
    }

    fn extend_index(&mut self) {
        match self.theta {
            Some(theta) => self.index.extend_inheritance(&self.rel, &self.onto, theta),
            None => self.index.extend_synonym(&self.rel, &self.onto),
        }
    }

    fn snapshot_body(&self) -> Value {
        json!({
            "version": 1u64,
            "fingerprint": format!("{:016x}", self.fingerprint),
            "theta": match self.theta {
                Some(t) => json!(t as u64),
                None => Value::Null,
            },
            "specs": self.specs.clone(),
            "edits": self.edits.clone(),
            "batches": self.seq,
        })
    }

    /// Persists the current edit log. Snapshot failures are soft — the
    /// session stays usable, resume just loses the tail.
    fn persist(&mut self, obs: &Obs) {
        self.seq += 1;
        if let Some(store) = &self.store {
            if store.save("session", self.seq, &self.snapshot_body()).is_ok() {
                let _ = store.prune("session", 2);
            } else {
                obs.inc("serve.stream.snapshot_errors");
            }
        }
    }
}

// ------------------------------------------------------------- edit ops

/// Stats accumulated while applying one batch of ops.
#[derive(Default)]
struct BatchStats {
    applied: usize,
    reverified: usize,
    moved: Vec<(usize, usize)>,
}

/// Applies one normalized op. `live` distinguishes a client batch from a
/// snapshot replay: replay must not bump the per-op counters (the ops
/// were already counted when first applied).
fn apply_op(
    sess: &mut Session,
    op: &Value,
    live: bool,
    obs: &Obs,
    stats: &mut BatchStats,
) -> Result<(), JobError> {
    let kind = op
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| JobError::BadRequest("edit op missing \"op\" tag".into()))?;
    match kind {
        "append" => {
            let cells = op
                .get("cells")
                .and_then(Value::as_array)
                .ok_or_else(|| JobError::BadRequest("append op missing \"cells\" array".into()))?;
            let mut texts = Vec::with_capacity(cells.len());
            for c in cells {
                texts.push(c.as_str().ok_or_else(|| {
                    JobError::BadRequest("append cells must be strings".into())
                })?);
            }
            let row = sess
                .rel
                .push_row(texts.iter().copied())
                .map_err(bad_request)?;
            sess.extend_index();
            let n = sess
                .checker
                .apply_insert(&sess.rel, &sess.index, row)
                .map_err(core_error)?;
            stats.reverified += n;
            if live {
                obs.inc("incremental.inserts");
                obs.add("incremental.reverified_classes", n as u64);
            }
        }
        "retract" => {
            let row = op
                .get("row")
                .and_then(Value::as_u64)
                .ok_or_else(|| JobError::BadRequest("retract op missing \"row\" index".into()))?
                as usize;
            let out = sess
                .checker
                .apply_retract(&mut sess.rel, &sess.index, row)
                .map_err(core_error)?;
            stats.reverified += out.reverified;
            if let Some(from) = out.moved_from {
                stats.moved.push((from, row));
            }
            if live {
                obs.inc("incremental.retracts");
                obs.add("incremental.reverified_classes", out.reverified as u64);
            }
        }
        "update" => {
            let row = op
                .get("row")
                .and_then(Value::as_u64)
                .ok_or_else(|| JobError::BadRequest("update op missing \"row\" index".into()))?
                as usize;
            let attr_name = op
                .get("attr")
                .and_then(Value::as_str)
                .ok_or_else(|| JobError::BadRequest("update op missing \"attr\" name".into()))?;
            let value = op
                .get("value")
                .and_then(Value::as_str)
                .ok_or_else(|| JobError::BadRequest("update op missing \"value\"".into()))?;
            let attr = sess.rel.schema().attr(attr_name).map_err(bad_request)?;
            // Antecedent cells key the delta partitions: changing one
            // moves the tuple between equivalence classes, which the
            // update path does not model (the paper's repair scope only
            // edits consequents). Model it as retract + append instead.
            if sess.checker.sigma().iter().any(|o| o.lhs.contains(attr)) {
                return Err(JobError::BadRequest(format!(
                    "attribute {attr_name:?} is an OFD antecedent; retract and re-append the row instead of updating it"
                )));
            }
            if row >= sess.rel.n_rows() {
                return Err(conflict(
                    obs,
                    live,
                    format!("update row {row} is past the current {} rows", sess.rel.n_rows()),
                ));
            }
            // The client's optimistic-concurrency guard: when the request
            // names the value it believes it is replacing, a mismatch
            // means its view of the session is stale.
            if live {
                if let Some(expected) = op.get("old").and_then(Value::as_str) {
                    let actual = sess.rel.text(row, attr);
                    if actual != expected {
                        obs.inc("incremental.stale_updates");
                        return Err(conflict(
                            obs,
                            live,
                            format!(
                                "stale update at row {row}, {attr_name}: expected {expected:?}, session holds {actual:?}"
                            ),
                        ));
                    }
                }
            }
            let old = sess.rel.value(row, attr);
            let new = sess.rel.set(row, attr, value).map_err(core_error)?;
            sess.extend_index();
            let n = sess
                .checker
                .apply_update(&sess.index, row, attr, old, new)
                .map_err(core_error)?;
            stats.reverified += n;
            if live {
                obs.inc("incremental.updates");
                obs.add("incremental.reverified_classes", n as u64);
            }
        }
        other => {
            return Err(JobError::BadRequest(format!(
                "unknown edit op {other:?}; expected append | retract | update"
            )))
        }
    }
    stats.applied += 1;
    if live {
        obs.inc("serve.stream.edits");
    }
    Ok(())
}

fn bad_request(e: CoreError) -> JobError {
    JobError::BadRequest(e.to_string())
}

/// Maps engine errors at the session boundary: desync errors are 409, the
/// rest are malformed requests.
fn core_error(e: CoreError) -> JobError {
    match e {
        CoreError::StaleUpdate { .. } | CoreError::RowOutOfBounds { .. } => {
            JobError::Conflict(e.to_string())
        }
        other => JobError::BadRequest(other.to_string()),
    }
}

fn conflict(obs: &Obs, live: bool, msg: String) -> JobError {
    if live {
        obs.inc("serve.stream.conflicts");
    }
    JobError::Conflict(msg)
}

// -------------------------------------------------------------- sessions

fn spec_string(ofd: &Ofd, schema: &ofd_core::Schema) -> String {
    let lhs: Vec<&str> = ofd.lhs.iter().map(|a| schema.name(a)).collect();
    format!("{}->{}", lhs.join(","), schema.name(ofd.rhs))
}

/// The request's base inputs, *resolved but not parsed*: the edit hot
/// path (a resident session absorbing a one-row batch) must never pay a
/// full CSV parse, so parsing is deferred to [`BaseRef::materialize`],
/// which only runs when a session is actually built or rebuilt.
struct BaseRef<'a> {
    key: u64,
    /// `(csv, ontology)` texts for inline requests.
    inline: Option<(&'a str, &'a str)>,
    /// The interned catalog entry for `dataset: "name@version"` requests.
    entry: Option<Arc<CatalogEntry>>,
}

impl BaseRef<'_> {
    fn csv_text(&self) -> &str {
        match (&self.entry, self.inline) {
            (Some(e), _) => &e.csv,
            (None, Some((csv, _))) => csv,
            (None, None) => unreachable!("resolve_base always sets one source"),
        }
    }

    fn onto_text(&self) -> &str {
        match (&self.entry, self.inline) {
            (Some(e), _) => &e.ontology,
            (None, Some((_, onto))) => onto,
            (None, None) => unreachable!("resolve_base always sets one source"),
        }
    }

    /// `"name@version"` echo for responses; `Null` for inline inputs.
    fn dataset_field(&self) -> Value {
        match &self.entry {
            Some(e) => json!(format!("{}@{}", e.name, e.version)),
            None => Value::Null,
        }
    }

    /// Parses (or clones the interned parse of) the base relation and
    /// ontology — the one expensive step, paid only at session build.
    fn materialize(&self) -> Result<(Relation, Ontology), JobError> {
        if let Some(e) = &self.entry {
            return Ok((e.relation.clone(), e.ontology_parsed.clone()));
        }
        let (csv_text, onto_text) = self.inline.expect("resolve_base always sets one source");
        let rel = csv::read_csv(csv_text)
            .map_err(|e| JobError::BadRequest(format!("csv: {e}")))?;
        let onto = if onto_text.is_empty() {
            Ontology::empty()
        } else {
            parse_ontology(onto_text)
                .map_err(|e| JobError::BadRequest(format!("ontology: {e}")))?
        };
        Ok((rel, onto))
    }
}

/// Resolves the base inputs and computes the session key: a fingerprint
/// of the resolved texts and the Σ configuration. Resolved content only —
/// a session opened inline and touched later by `dataset: "name@version"`
/// reference is the same session, on any replica.
fn resolve_base<'a>(body: &'a Value, ctx: &JobContext) -> Result<BaseRef<'a>, JobError> {
    let mut base = if let Some(reference) = opt_str(body, "dataset")? {
        if field(body, "csv").is_some() {
            return Err(JobError::BadRequest(
                "request carries both \"dataset\" and inline \"csv\"; pick one".into(),
            ));
        }
        let catalog = ctx.catalog.as_ref().ok_or_else(|| {
            JobError::BadRequest(
                "no dataset catalog on this server (start it with --checkpoint-dir)".into(),
            )
        })?;
        let entry = catalog
            .resolve(reference)
            .map_err(|e| JobError::BadRequest(format!("dataset: {}", e.message())))?;
        BaseRef {
            key: 0,
            inline: None,
            entry: Some(entry),
        }
    } else {
        let csv_text = required_str(body, "csv")?;
        let onto_text = opt_str(body, "ontology")?.unwrap_or("");
        BaseRef {
            key: 0,
            inline: Some((csv_text, onto_text)),
            entry: None,
        }
    };
    let mut fp = Fingerprint::new();
    fp.update_str("stream");
    fp.update_str(base.csv_text());
    fp.update_str(base.onto_text());
    fp.update_u64(opt_u64(body, "theta")?.map_or(u64::MAX, |t| t.wrapping_add(1)));
    if let Some(specs) = field(body, "ofds").and_then(Value::as_array) {
        fp.update_str("explicit");
        for spec in specs {
            fp.update_str(spec.as_str().unwrap_or(""));
        }
    } else {
        fp.update_str("discover");
        fp.update_u64(opt_f64(body, "kappa")?.unwrap_or(-1.0).to_bits());
        fp.update_u64(opt_u64(body, "max_level")?.map_or(u64::MAX, |v| v.wrapping_add(1)));
    }
    base.key = fp.finish();
    Ok(base)
}

fn build_index(rel: &Relation, onto: &Ontology, theta: Option<usize>) -> SenseIndex {
    match theta {
        Some(theta) => SenseIndex::inheritance(rel, onto, theta),
        None => SenseIndex::synonym(rel, onto),
    }
}

/// How a session open resolved.
enum Opened {
    Ready(Arc<Mutex<Session>>),
    /// Discovery-mode open tripped the guard before Σ was complete: the
    /// caller gets a sound `incomplete` reply and no session is created
    /// (a partial Σ must never be frozen into a session).
    Incomplete(Value, JobOutcome),
}

/// Finds or builds the session for `body`: resident map first, then the
/// snapshot (replica adoption / restart), then a fresh build.
fn open_session(
    body: &Value,
    ctx: &JobContext,
    endpoint: &str,
    base: &BaseRef<'_>,
) -> Result<Opened, JobError> {
    let key = base.key;
    if let Some(sess) = ctx.sessions.get(key) {
        return Ok(Opened::Ready(sess));
    }

    let store = ctx.checkpoint_root.as_ref().map(|root| {
        let mut s = SnapshotStore::new(root.join(format!("stream-{key:016x}")));
        if ctx.faults.is_active() {
            s = s.with_faults(ctx.faults.clone());
        }
        s
    });

    // Adoption path: a snapshot left by this process before a restart, or
    // by a dead sibling replica sharing the checkpoint root. When the
    // local directory is empty and the fleet spans filesystems, the dead
    // owner's edit log is shipped over from whichever peer holds it.
    if let Some(store) = &store {
        let mut loaded = store.load_latest("session").ok().flatten();
        if loaded.is_none()
            && !ctx.peers.is_empty()
            && crate::peers::fetch_and_install(
                &ctx.peers,
                &format!("/v1/streams/{key:016x}/snapshot"),
                store,
                &ctx.peer_timeouts,
            ) > 0
        {
            ctx.obs.inc("serve.ship.fetched");
            loaded = store.load_latest("session").ok().flatten();
        }
        if let Some(loaded) = loaded {
            match rebuild(ctx, base, &loaded.body) {
                Ok(mut sess) => {
                    ctx.obs.inc("serve.stream.resumed");
                    sess.store = store.clone().into();
                    sess.resumed_from = Some(loaded.seq);
                    sess.seq = loaded.seq;
                    return Ok(Opened::Ready(ctx.sessions.insert(key, sess)));
                }
                Err(_) => ctx.obs.inc("serve.stream.replay_failed"),
            }
        }
    }

    // Fresh build. Σ comes from the request's "ofds" list, or from a
    // discovery run over the base relation when none is given.
    let theta = opt_u64(body, "theta").map_err(JobError::from)?.map(|t| t as usize);
    let (rel, onto) = base.materialize()?;
    let specs: Vec<String> = match field(body, "ofds").and_then(Value::as_array) {
        Some(raw) => {
            let mut strings = Vec::with_capacity(raw.len());
            for s in raw {
                strings.push(
                    s.as_str()
                        .ok_or_else(|| JobError::BadRequest("\"ofds\" entries must be strings".into()))?,
                );
            }
            // Validate now so a bad spec is a 400 at open, then keep the
            // normalized strings for the snapshot.
            parse_spec_list(&strings, theta, rel.schema()).map_err(JobError::from)?;
            strings.iter().map(|s| s.to_string()).collect()
        }
        None => {
            let mut opts = DiscoveryOptions::new()
                .guard(ctx.guard.clone())
                .obs(ctx.obs.clone())
                .faults(ctx.faults.clone());
            if let Some(kappa) = opt_f64(body, "kappa").map_err(JobError::from)? {
                if !(0.0..=1.0).contains(&kappa) || kappa == 0.0 {
                    return Err(JobError::BadRequest("\"kappa\" must be in (0, 1]".into()));
                }
                opts = opts.min_support(kappa);
            }
            if let Some(theta) = theta {
                opts = opts.kind(OfdKind::Inheritance { theta });
            }
            if let Some(level) = opt_u64(body, "max_level").map_err(JobError::from)? {
                opts = opts.max_level(level as usize);
            }
            let out = FastOfd::new(&rel, &onto).options(opts).run();
            if !out.complete {
                let value = json!({
                    "endpoint": endpoint,
                    "status": "incomplete",
                    "interrupt": match out.interrupt {
                        Some(i) => json!(i.label()),
                        None => Value::Null,
                    },
                    "dataset": base.dataset_field(),
                    "session": Value::Null,
                    "detail": "discovery interrupted before Σ was complete; no session opened",
                });
                let outcome = JobOutcome {
                    incomplete: true,
                    resumed: false,
                    interrupt: out.interrupt,
                };
                return Ok(Opened::Incomplete(value, outcome));
            }
            out.ofds
                .iter()
                .map(|d| spec_string(&d.ofd, rel.schema()))
                .collect()
        }
    };

    let sigma = if specs.is_empty() {
        Vec::new()
    } else {
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        parse_spec_list(&refs, theta, rel.schema()).map_err(JobError::from)?
    };
    let index = build_index(&rel, &onto, theta);
    let checker = IncrementalChecker::new(&rel, &index, &sigma);
    let sess = Session {
        fingerprint: key,
        rel,
        onto,
        index,
        theta,
        specs,
        checker,
        edits: Vec::new(),
        seq: 0,
        store,
        resumed_from: None,
    };
    ctx.obs.inc("serve.stream.sessions");
    // Seed snapshot: persists Σ so a resume never re-runs discovery.
    if let Some(store) = &sess.store {
        let _ = store.save("session", 0, &sess.snapshot_body());
    }
    Ok(Opened::Ready(ctx.sessions.insert(key, sess)))
}

/// Rebuilds a session from its snapshot: base relation from the request's
/// own inputs, Σ from the persisted spec strings, state by replaying the
/// edit log. Any replay failure poisons the whole rebuild — the caller
/// falls back to a fresh session.
fn rebuild(ctx: &JobContext, base: &BaseRef<'_>, snap: &Value) -> Result<Session, JobError> {
    if snap.get("version").and_then(Value::as_u64) != Some(1) {
        return Err(JobError::BadRequest("unknown session snapshot version".into()));
    }
    let theta = snap.get("theta").and_then(Value::as_u64).map(|t| t as usize);
    let specs: Vec<String> = snap
        .get("specs")
        .and_then(Value::as_array)
        .map(|a| {
            a.iter()
                .filter_map(Value::as_str)
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let (rel, onto) = base.materialize()?;
    let sigma = if specs.is_empty() {
        Vec::new()
    } else {
        let refs: Vec<&str> = specs.iter().map(String::as_str).collect();
        parse_spec_list(&refs, theta, rel.schema()).map_err(JobError::from)?
    };
    let index = build_index(&rel, &onto, theta);
    let checker = IncrementalChecker::new(&rel, &index, &sigma);
    let mut sess = Session {
        fingerprint: base.key,
        rel,
        onto,
        index,
        theta,
        specs,
        checker,
        edits: Vec::new(),
        seq: 0,
        store: None,
        resumed_from: None,
    };
    let edits = snap
        .get("edits")
        .and_then(Value::as_array)
        .cloned()
        .unwrap_or_default();
    let mut stats = BatchStats::default();
    for op in &edits {
        apply_op(&mut sess, op, false, &ctx.obs, &mut stats)?;
        sess.edits.push(op.clone());
    }
    Ok(sess)
}

// -------------------------------------------------------------- handlers

/// Normalizes an `/v1/append` body into edit ops: `"rows"` (arrays of
/// cell strings) become append ops, `"updates"` become update ops, in
/// that order.
fn append_ops(body: &Value) -> Result<Vec<Value>, JobError> {
    let mut ops = Vec::new();
    if let Some(rows) = field(body, "rows") {
        let rows = rows
            .as_array()
            .ok_or_else(|| JobError::BadRequest("\"rows\" must be an array of rows".into()))?;
        for row in rows {
            if row.as_array().is_none() {
                return Err(JobError::BadRequest(
                    "\"rows\" entries must be arrays of cell strings".into(),
                ));
            }
            ops.push(json!({"op": "append", "cells": row.clone()}));
        }
    }
    if let Some(updates) = field(body, "updates") {
        let updates = updates
            .as_array()
            .ok_or_else(|| JobError::BadRequest("\"updates\" must be an array".into()))?;
        for u in updates {
            let mut op = json!({
                "op": "update",
                "row": u.get("row").cloned().unwrap_or(Value::Null),
                "attr": u.get("attr").cloned().unwrap_or(Value::Null),
                "value": u.get("value").cloned().unwrap_or(Value::Null),
            });
            if let Some(old) = u.get("old").filter(|v| !v.is_null()) {
                if let Value::Object(fields) = &mut op {
                    fields.push(("old".into(), old.clone()));
                }
            }
            ops.push(op);
        }
    }
    if ops.is_empty() {
        return Err(JobError::BadRequest(
            "append request carries neither \"rows\" nor \"updates\"".into(),
        ));
    }
    Ok(ops)
}

/// Normalizes a `/v1/retract` body: `"rows"` is a list of row indexes,
/// applied in order against the session's *current* state — swap-remove
/// renames mean later indexes in the same batch see the post-removal
/// layout (the response's `moved_rows` reports every rename).
fn retract_ops(body: &Value) -> Result<Vec<Value>, JobError> {
    let rows = field(body, "rows")
        .and_then(Value::as_array)
        .ok_or_else(|| JobError::BadRequest("retract requires a \"rows\" index array".into()))?;
    if rows.is_empty() {
        return Err(JobError::BadRequest("\"rows\" must not be empty".into()));
    }
    let mut ops = Vec::with_capacity(rows.len());
    for r in rows {
        let row = r
            .as_u64()
            .ok_or_else(|| JobError::BadRequest("\"rows\" entries must be row indexes".into()))?;
        ops.push(json!({"op": "retract", "row": row}));
    }
    Ok(ops)
}

/// `POST /v1/append`: insert rows and/or update cells in a session.
pub(crate) fn append(body: &Value, ctx: &JobContext) -> Result<(Value, JobOutcome), JobError> {
    run_batch(body, ctx, "append", append_ops(body)?)
}

/// `POST /v1/retract`: remove rows from a session.
pub(crate) fn retract(body: &Value, ctx: &JobContext) -> Result<(Value, JobOutcome), JobError> {
    run_batch(body, ctx, "retract", retract_ops(body)?)
}

fn run_batch(
    body: &Value,
    ctx: &JobContext,
    endpoint: &str,
    ops: Vec<Value>,
) -> Result<(Value, JobOutcome), JobError> {
    let base = resolve_base(body, ctx)?;
    let sess = match open_session(body, ctx, endpoint, &base)? {
        Opened::Ready(s) => s,
        Opened::Incomplete(value, outcome) => return Ok((value, outcome)),
    };
    let mut sess = sess.lock().expect("session lock");
    let mut stats = BatchStats::default();
    let mut outcome = JobOutcome {
        resumed: sess.resumed_from.is_some(),
        ..JobOutcome::default()
    };
    let mut failure: Option<JobError> = None;
    for op in &ops {
        // Checkpoint boundary between ops: drain or disconnect stops the
        // batch with the applied prefix intact and persisted.
        if let Err(i) = ctx.guard.check() {
            outcome.incomplete = true;
            outcome.interrupt = Some(i);
            break;
        }
        match apply_op(&mut sess, op, true, &ctx.obs, &mut stats) {
            Ok(()) => sess.edits.push(op.clone()),
            Err(e) => {
                failure = Some(e);
                break;
            }
        }
    }
    if stats.applied > 0 {
        sess.persist(&ctx.obs);
    }
    if let Some(e) = failure {
        // The applied prefix is durable; the client refreshes and retries
        // the remainder.
        return Err(e);
    }

    let schema = sess.rel.schema();
    let per_ofd = sess.checker.per_ofd_violations();
    let sigma: Vec<Value> = sess
        .checker
        .sigma()
        .iter()
        .zip(&per_ofd)
        .map(|(ofd, &v)| {
            json!({
                "ofd": ofd.display(schema),
                "satisfied": v == 0,
                "violating_classes": v as u64,
            })
        })
        .collect();
    let moved: Vec<Value> = stats
        .moved
        .iter()
        .map(|&(from, to)| json!({"from": from as u64, "to": to as u64}))
        .collect();
    let resumed_from = sess.resumed_from.take();
    let value = json!({
        "endpoint": endpoint,
        "status": if outcome.incomplete { "incomplete" } else { "complete" },
        "interrupt": match outcome.interrupt {
            Some(i) => json!(i.label()),
            None => Value::Null,
        },
        "dataset": base.dataset_field(),
        "session": sess.id(),
        "seq": sess.seq,
        "applied": stats.applied as u64,
        "n_rows": sess.rel.n_rows() as u64,
        "violations": sess.checker.violation_count() as u64,
        "all_satisfied": sess.checker.is_satisfied(),
        "sigma": Value::Array(sigma),
        "reverified_classes": stats.reverified as u64,
        "moved_rows": Value::Array(moved),
        "resumed_from_seq": match resumed_from {
            Some(s) => json!(s),
            None => Value::Null,
        },
    });
    Ok((value, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofd_core::{ExecGuard, FaultPlan, Validator};
    use ofd_datagen::csv;

    fn ctx() -> JobContext {
        JobContext {
            guard: ExecGuard::unlimited(),
            obs: Obs::enabled(),
            faults: FaultPlan::none(),
            checkpoint_root: None,
            catalog: None,
            sessions: Arc::new(StreamSessions::new()),
            peers: Vec::new(),
            peer_timeouts: crate::http::PeerTimeouts::default(),
        }
    }

    fn sample_body() -> (Value, ofd_datagen::Dataset) {
        let ds = ofd_datagen::clinical(&ofd_datagen::PresetConfig {
            n_rows: 80,
            n_attrs: 5,
            n_ofds: 2,
            seed: 11,
            ..ofd_datagen::PresetConfig::default()
        });
        let specs: Vec<String> = ds
            .ofds
            .iter()
            .map(|o| spec_string(o, ds.clean.schema()))
            .collect();
        let body = json!({
            "csv": csv::write_csv(&ds.clean),
            "ontology": ofd_ontology::write_ontology(&ds.full_ontology),
            "ofds": specs,
        });
        (body, ds)
    }

    fn with_ops(base: &Value, extra: &[(&str, Value)]) -> Value {
        let mut body = base.clone();
        if let Value::Object(fields) = &mut body {
            for (k, v) in extra {
                fields.push(((*k).into(), v.clone()));
            }
        }
        body
    }

    #[test]
    fn append_then_retract_round_trips_and_matches_full_validation() {
        let (base, ds) = sample_body();
        let c = ctx();
        let row: Vec<String> = ds.clean.row_texts(0).iter().map(|s| s.to_string()).collect();
        let body = with_ops(&base, &[("rows", json!([row]))]);
        let (v, outcome) = append(&body, &c).expect("append");
        assert!(!outcome.incomplete);
        assert_eq!(v.get("applied").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v.get("n_rows").and_then(Value::as_u64),
            Some(ds.clean.n_rows() as u64 + 1)
        );

        // Differential check: incremental violations == from-scratch.
        let mut rel = ds.clean.clone();
        let dup: Vec<String> = ds.clean.row_texts(0).iter().map(|s| s.to_string()).collect();
        rel.push_row(dup.iter().map(String::as_str)).expect("push");
        let validator = Validator::new(&rel, &ds.full_ontology);
        let expect: usize = ds.ofds.iter().map(|o| validator.check(o).violation_count()).sum();
        assert_eq!(
            v.get("violations").and_then(Value::as_u64),
            Some(expect as u64)
        );

        let retract_body = with_ops(&base, &[("rows", json!([ds.clean.n_rows()]))]);
        let (v2, _) = retract(&retract_body, &c).expect("retract");
        assert_eq!(
            v2.get("n_rows").and_then(Value::as_u64),
            Some(ds.clean.n_rows() as u64)
        );
        let validator = Validator::new(&ds.clean, &ds.full_ontology);
        let expect: usize = ds.ofds.iter().map(|o| validator.check(o).violation_count()).sum();
        assert_eq!(
            v2.get("violations").and_then(Value::as_u64),
            Some(expect as u64)
        );
    }

    #[test]
    fn stale_old_guard_is_a_conflict_and_keeps_the_session_usable() {
        let (base, ds) = sample_body();
        let c = ctx();
        let attr = ds.clean.schema().name(ds.ofds[0].rhs).to_string();
        let body = with_ops(
            &base,
            &[(
                "updates",
                json!([{"row": 0, "attr": attr, "value": "whatever", "old": "not-the-real-value"}]),
            )],
        );
        match append(&body, &c) {
            Err(JobError::Conflict(msg)) => assert!(msg.contains("stale"), "actual: {msg}"),
            other => panic!("expected conflict, got {other:?}"),
        }
        let snap = c.obs.snapshot();
        assert_eq!(snap.counter("serve.stream.conflicts"), Some(1));
        assert_eq!(snap.counter("incremental.stale_updates"), Some(1));

        // The failed op must not have corrupted the session: a correct
        // update with the real old value still applies.
        let real_old = ds.clean.text(0, ds.ofds[0].rhs).to_string();
        let attr = ds.clean.schema().name(ds.ofds[0].rhs).to_string();
        let body = with_ops(
            &base,
            &[(
                "updates",
                json!([{"row": 0, "attr": attr, "value": real_old.clone(), "old": real_old}]),
            )],
        );
        let (v, _) = append(&body, &c).expect("no-op update");
        assert_eq!(v.get("applied").and_then(Value::as_u64), Some(1));
    }

    #[test]
    fn antecedent_updates_are_rejected_as_bad_requests() {
        let (base, ds) = sample_body();
        let c = ctx();
        let lhs_attr = ds.ofds[0].lhs.iter().next().expect("planted lhs");
        let attr = ds.clean.schema().name(lhs_attr).to_string();
        let body = with_ops(
            &base,
            &[("updates", json!([{"row": 0, "attr": attr, "value": "x"}]))],
        );
        match append(&body, &c) {
            Err(JobError::BadRequest(msg)) => {
                assert!(msg.contains("antecedent"), "actual: {msg}")
            }
            other => panic!("expected bad request, got {other:?}"),
        }
    }

    #[test]
    fn retract_past_the_end_is_a_conflict() {
        let (base, ds) = sample_body();
        let c = ctx();
        let body = with_ops(&base, &[("rows", json!([ds.clean.n_rows() + 5]))]);
        match retract(&body, &c) {
            Err(JobError::Conflict(msg)) => assert!(msg.contains("out of bounds"), "actual: {msg}"),
            other => panic!("expected conflict, got {other:?}"),
        }
    }

    #[test]
    fn empty_batches_and_bad_cells_are_bad_requests() {
        let (base, _) = sample_body();
        let c = ctx();
        match append(&base, &c) {
            Err(JobError::BadRequest(msg)) => assert!(msg.contains("neither")),
            other => panic!("expected bad request, got {other:?}"),
        }
        let body = with_ops(&base, &[("rows", json!([[1, 2, 3]]))]);
        match append(&body, &c) {
            Err(JobError::BadRequest(msg)) => assert!(msg.contains("strings")),
            other => panic!("expected bad request, got {other:?}"),
        }
        let body = with_ops(&base, &[("rows", json!([["just-one-cell"]]))]);
        match append(&body, &c) {
            Err(JobError::BadRequest(msg)) => {
                assert!(msg.contains("schema has"), "actual: {msg}")
            }
            other => panic!("expected bad request, got {other:?}"),
        }
    }

    #[test]
    fn sessions_survive_eviction_via_snapshot_resume() {
        let tmp = std::env::temp_dir().join("ofd-stream-resume-test");
        let _ = std::fs::remove_dir_all(&tmp);
        let (base, ds) = sample_body();
        let mut c = ctx();
        c.checkpoint_root = Some(tmp.clone());
        let row: Vec<String> = ds.clean.row_texts(3).iter().map(|s| s.to_string()).collect();
        let body = with_ops(&base, &[("rows", json!([row]))]);
        let (v1, _) = append(&body, &c).expect("append");
        assert_eq!(v1.get("resumed_from_seq").and_then(Value::as_u64), None);

        // Simulate a restart or a sibling replica: fresh session table,
        // same checkpoint root.
        let mut c2 = ctx();
        c2.checkpoint_root = Some(tmp.clone());
        let row2: Vec<String> = ds.clean.row_texts(4).iter().map(|s| s.to_string()).collect();
        let body2 = with_ops(&base, &[("rows", json!([row2]))]);
        let (v2, outcome2) = append(&body2, &c2).expect("resumed append");
        assert!(outcome2.resumed, "adopted from snapshot");
        assert_eq!(v2.get("resumed_from_seq").and_then(Value::as_u64), Some(1));
        assert_eq!(
            v2.get("n_rows").and_then(Value::as_u64),
            Some(ds.clean.n_rows() as u64 + 2),
            "the first batch's row survived the restart"
        );
        assert_eq!(
            c2.obs.snapshot().counter("serve.stream.resumed"),
            Some(1)
        );

        // Final state must equal a from-scratch build over both edits.
        let mut rel = ds.clean.clone();
        for r in [3usize, 4] {
            let cells: Vec<String> = ds.clean.row_texts(r).iter().map(|s| s.to_string()).collect();
            rel.push_row(cells.iter().map(String::as_str)).expect("push");
        }
        let validator = Validator::new(&rel, &ds.full_ontology);
        let expect: usize = ds.ofds.iter().map(|o| validator.check(o).violation_count()).sum();
        assert_eq!(v2.get("violations").and_then(Value::as_u64), Some(expect as u64));
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn lru_eviction_prunes_the_victims_snapshot_directory() {
        let tmp = std::env::temp_dir().join("ofd-stream-evict-prune-test");
        let _ = std::fs::remove_dir_all(&tmp);
        let (base_a, ds) = sample_body();
        let mut c = ctx();
        c.checkpoint_root = Some(tmp.clone());
        c.sessions = Arc::new(StreamSessions::with_capacity(1));

        // Two batches leave two snapshot generations on disk for A.
        for r in [3usize, 4] {
            let row: Vec<String> = ds.clean.row_texts(r).iter().map(|s| s.to_string()).collect();
            let body = with_ops(&base_a, &[("rows", json!([row]))]);
            append(&body, &c).expect("append to A");
        }
        let dir_a = std::fs::read_dir(&tmp)
            .expect("root")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .is_some_and(|n| n.to_string_lossy().starts_with("stream-"))
            })
            .expect("session A directory");
        let ckpts = |dir: &std::path::Path| -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .map(|rd| {
                    rd.filter_map(|e| e.ok())
                        .map(|e| e.file_name().to_string_lossy().into_owned())
                        .collect()
                })
                .unwrap_or_default();
            names.sort();
            names
        };
        assert_eq!(ckpts(&dir_a).len(), 2, "persist keeps the last two generations");

        // A second session at capacity 1 evicts A; the victim's directory
        // is pruned down to the single newest snapshot.
        let ds_b = ofd_datagen::clinical(&ofd_datagen::PresetConfig {
            n_rows: 60,
            n_attrs: 5,
            n_ofds: 2,
            seed: 12,
            ..ofd_datagen::PresetConfig::default()
        });
        let specs_b: Vec<String> = ds_b
            .ofds
            .iter()
            .map(|o| spec_string(o, ds_b.clean.schema()))
            .collect();
        let base_b = json!({
            "csv": csv::write_csv(&ds_b.clean),
            "ontology": ofd_ontology::write_ontology(&ds_b.full_ontology),
            "ofds": specs_b,
        });
        let row_b: Vec<String> = ds_b.clean.row_texts(0).iter().map(|s| s.to_string()).collect();
        let body_b = with_ops(&base_b, &[("rows", json!([row_b]))]);
        append(&body_b, &c).expect("append to B");
        assert_eq!(c.sessions.len(), 1, "capacity-1 table holds only session B");
        assert_eq!(
            ckpts(&dir_a),
            vec!["session.000002.ckpt".to_string()],
            "victim pruned to its newest snapshot"
        );

        // A's next touch rebuilds from the surviving snapshot — eviction
        // cleaned the disk without losing state.
        let row: Vec<String> = ds.clean.row_texts(5).iter().map(|s| s.to_string()).collect();
        let body = with_ops(&base_a, &[("rows", json!([row]))]);
        let (v, outcome) = append(&body, &c).expect("resumed append to A");
        assert!(outcome.resumed, "A rebuilt from its pruned-but-present snapshot");
        assert_eq!(v.get("resumed_from_seq").and_then(Value::as_u64), Some(2));
        assert_eq!(
            v.get("n_rows").and_then(Value::as_u64),
            Some(ds.clean.n_rows() as u64 + 3)
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn discovery_mode_opens_a_session_with_the_discovered_sigma() {
        let (base, _ds) = sample_body();
        let c = ctx();
        let mut body = base.clone();
        if let Value::Object(fields) = &mut body {
            fields.retain(|(k, _)| k != "ofds");
        }
        let body = with_ops(&body, &[("rows", json!([])), ("updates", json!([]))]);
        // Empty batch is still a 400; give it a real op so open runs.
        match append(&body, &c) {
            Err(JobError::BadRequest(_)) => {}
            other => panic!("empty batch must 400, got {other:?}"),
        }
        let (base_no_ofds, ds) = {
            let (b, ds) = sample_body();
            let mut b2 = b.clone();
            if let Value::Object(fields) = &mut b2 {
                fields.retain(|(k, _)| k != "ofds");
            }
            (b2, ds)
        };
        let row: Vec<String> = ds.clean.row_texts(0).iter().map(|s| s.to_string()).collect();
        let body = with_ops(&base_no_ofds, &[("rows", json!([row]))]);
        let (v, _) = append(&body, &c).expect("discovery-mode append");
        let sigma = v.get("sigma").and_then(Value::as_array).expect("sigma");
        assert!(!sigma.is_empty(), "clinical preset plants discoverable OFDs");
    }

    #[test]
    fn discovery_mode_under_a_tripped_guard_opens_no_session() {
        let (base, _) = sample_body();
        let mut c = ctx();
        c.guard = ExecGuard::with_max_work(1);
        let mut body = base.clone();
        if let Value::Object(fields) = &mut body {
            fields.retain(|(k, _)| k != "ofds");
        }
        let body = with_ops(&body, &[("rows", json!([["a", "b", "c", "d", "e"]]))]);
        let (v, outcome) = append(&body, &c).expect("incomplete open");
        assert!(outcome.incomplete);
        assert_eq!(v.get("session"), Some(&Value::Null));
        assert!(c.sessions.is_empty(), "no partial-Σ session may exist");
    }
}

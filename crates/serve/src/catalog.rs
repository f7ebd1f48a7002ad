//! A persistent, versioned dataset/ontology catalog.
//!
//! `PUT /v1/datasets/{name}` registers a dataset (CSV text plus optional
//! ontology text) once; job requests then reference it as
//! `"dataset": "name"` or `"dataset": "name@version"` instead of
//! re-shipping hundreds of kilobytes of rows on every request. Entries
//! are:
//!
//! * **persistent** — each version is one checksummed snapshot file
//!   (`<name>.<version>.ckpt`, the same `OFDSNAP` envelope and atomic
//!   write path as checkpoints) in a catalog directory under the
//!   checkpoint root, so a registered dataset survives process restarts
//!   and full-fleet restarts;
//! * **versioned** — a re-`PUT` of an existing name appends the next
//!   version; older versions stay readable, and `name@version` pins one;
//! * **interned once** — the first job to touch `name@version` parses the
//!   CSV/ontology into a [`Relation`]/[`Ontology`] and caches the parsed
//!   entry behind an [`Arc`]; every later job on any worker thread shares
//!   it instead of re-parsing.
//!
//! The catalog directory is *shared between fleet workers* (they all
//! point at the same checkpoint root), which is what lets the router
//! route by dataset fingerprint: any worker can resolve any registered
//! dataset straight from disk even if a different worker registered it.
//! Cross-process freshness comes from re-listing the directory on cache
//! miss, not from any coordination protocol — the router's
//! consistent-hash routing keeps each dataset's writes on one worker in
//! the common case.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use ofd_core::{fnv1a64, FaultPlan, FxHashMap, Obs, Relation, SnapshotStore};
use ofd_datagen::csv;
use ofd_ontology::{parse_ontology, Ontology};
use serde_json::{json, Value};

use crate::http::PeerTimeouts;
use crate::retry::RetryPolicy;

/// One resolved catalog entry: the raw texts (for fingerprinting and
/// byte-identical checkpoint keys) and the parsed, shareable inputs.
#[derive(Debug)]
pub struct CatalogEntry {
    /// Registered dataset name.
    pub name: String,
    /// Version of this entry (1-based, append-only).
    pub version: u64,
    /// The CSV text exactly as registered.
    pub csv: String,
    /// The ontology text exactly as registered (empty when none).
    pub ontology: String,
    /// FNV-1a digest of `csv` + `ontology`; the router routes on it.
    pub fingerprint: u64,
    /// Parsed relation, interned once per process.
    pub relation: Relation,
    /// Parsed ontology, interned once per process.
    pub ontology_parsed: Ontology,
}

/// Why a catalog operation failed, split the same way job errors are:
/// client mistakes map to 4xx, storage trouble to 5xx.
#[derive(Debug)]
pub enum CatalogError {
    /// Bad name, bad version syntax, unknown dataset, unparsable inputs.
    BadRequest(String),
    /// A pinned replicated write collided with *different* content
    /// already stored at that version — the replica must refuse rather
    /// than silently fork history (409).
    Conflict(String),
    /// The snapshot layer failed underneath a well-formed request.
    Storage(String),
}

impl CatalogError {
    /// The message, whichever side it is.
    pub fn message(&self) -> &str {
        match self {
            CatalogError::BadRequest(m)
            | CatalogError::Conflict(m)
            | CatalogError::Storage(m) => m,
        }
    }
}

/// Content digest of a dataset's raw texts — shared by [`Catalog::put`]
/// and the router, which fingerprints inline bodies the same way so a
/// dataset routes to the same worker whether shipped by name or inline.
pub fn content_fingerprint(csv_text: &str, onto_text: &str) -> u64 {
    let mut fp = ofd_core::Fingerprint::new();
    fp.update_str(csv_text);
    fp.update_str(onto_text);
    fp.finish()
}

/// Validates a dataset name: 1–64 chars of `[A-Za-z0-9_-]`. Dots are
/// excluded on purpose — the snapshot store uses `.` to separate the
/// stream name from the sequence number.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Whether a stored catalog body is committed. Entries written before
/// the two-phase scheme carry no flag and are treated as committed.
fn is_committed(body: &Value) -> bool {
    body.get("committed").and_then(Value::as_bool).unwrap_or(true)
}

/// Splits a `name` / `name@version` reference.
fn parse_reference(reference: &str) -> Result<(&str, Option<u64>), CatalogError> {
    let (name, version) = match reference.split_once('@') {
        Some((n, v)) => {
            let v: u64 = v.parse().map_err(|_| {
                CatalogError::BadRequest(format!("bad dataset version in {reference:?}"))
            })?;
            (n, Some(v))
        }
        None => (reference, None),
    };
    if !valid_name(name) {
        return Err(CatalogError::BadRequest(format!(
            "bad dataset name {name:?}: expected 1-64 chars of [A-Za-z0-9_-]"
        )));
    }
    Ok((name, version))
}

/// The persistent catalog; cheap to clone handles via [`Arc`].
#[derive(Debug)]
pub struct Catalog {
    store: SnapshotStore,
    obs: Obs,
    /// Sibling workers consulted when a reference misses the local disk
    /// (multi-host mode: the catalog is quorum-replicated, not shared
    /// through one filesystem, so a replica that missed a write — down
    /// during the PUT, or freshly re-imaged — repairs itself by fetching
    /// the version's snapshot from a peer).
    peers: Vec<std::net::SocketAddr>,
    /// Connect/read deadlines for all peer conversations.
    peer_timeouts: PeerTimeouts,
    /// Interned `(name, version)` → parsed entry. Never invalidated:
    /// versions are append-only and immutable once written. Only
    /// **committed** versions are ever interned — a pending version must
    /// re-run quorum confirmation on every touch until it commits.
    interned: Mutex<FxHashMap<(String, u64), Arc<CatalogEntry>>>,
}

/// What quorum confirmation of a pending (uncommitted) version decided.
enum PendingVerdict {
    /// A majority of the fleet holds the version: the write committed;
    /// flip it locally and serve it.
    Confirmed,
    /// A majority answered and fewer than a quorum hold it: the fan-out
    /// died before commit. The version is torn — delete it.
    Torn,
    /// Not enough peers answered to decide either way. Don't serve it,
    /// don't delete it; a later read retries.
    Unknown,
}

impl Catalog {
    /// Opens (or creates on first `put`) a catalog rooted at `dir`.
    pub fn open(dir: impl Into<PathBuf>, faults: FaultPlan, obs: Obs) -> Catalog {
        let mut store = SnapshotStore::new(dir);
        if faults.is_active() {
            store = store.with_faults(faults);
        }
        Catalog {
            store,
            obs,
            peers: Vec::new(),
            peer_timeouts: PeerTimeouts::default(),
            interned: Mutex::new(FxHashMap::default()),
        }
    }

    /// Installs the sibling-worker list used for peer-to-peer read
    /// repair on local miss.
    pub fn with_peers(mut self, peers: Vec<std::net::SocketAddr>) -> Catalog {
        self.peers = peers;
        self
    }

    /// Sets the connect/read deadlines used for every peer conversation.
    pub fn with_peer_timeouts(mut self, timeouts: PeerTimeouts) -> Catalog {
        self.peer_timeouts = timeouts;
        self
    }

    /// The directory entries persist in.
    pub fn dir(&self) -> &std::path::Path {
        self.store.dir()
    }

    /// Registers (or re-registers, bumping the version) a dataset. The
    /// CSV and ontology must parse — a catalog that accepts garbage
    /// would turn every later job into a 4xx lottery. Returns the entry.
    pub fn put(
        &self,
        name: &str,
        csv_text: &str,
        onto_text: &str,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        let version = self
            .store
            .versions(name)
            .map_err(|e| CatalogError::Storage(e.to_string()))?
            .last()
            .copied()
            .unwrap_or(0)
            + 1;
        self.save_entry(name, csv_text, onto_text, version, true)
    }

    /// Registers a dataset at an explicitly pinned version — the
    /// replicated-write path: the router picks one version number and
    /// fans it out, so every replica stores the same history. The stored
    /// version is **pending** (`"committed": false`) until the router's
    /// commit round flips it: a coordinator that dies mid-fan-out leaves
    /// pending files behind, never a readable torn version (reads run
    /// quorum confirmation — see `confirm_pending`). Pinned writes are
    /// **idempotent by content**: re-registering identical texts at an
    /// existing version acks without rewriting (a retried fan-out, or a
    /// shared-disk fleet where a sibling already landed the file), while
    /// different content at an existing version is a
    /// [`CatalogError::Conflict`] — replicas never fork history.
    pub fn put_pinned(
        &self,
        name: &str,
        csv_text: &str,
        onto_text: &str,
        version: u64,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        self.install_replica(name, csv_text, onto_text, version, false)
    }

    /// The body of [`Self::put_pinned`], with the commit state explicit —
    /// peer read-repair installs an already-committed copy directly.
    /// The idempotent-ack path parses the texts itself rather than going
    /// through `resolve`, so a retried fan-out PUT never triggers quorum
    /// confirmation mid-write.
    fn install_replica(
        &self,
        name: &str,
        csv_text: &str,
        onto_text: &str,
        version: u64,
        committed: bool,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        if version == 0 {
            return Err(CatalogError::BadRequest(
                "pinned version must be >= 1".into(),
            ));
        }
        if let Some(existing) = self
            .store
            .load_seq(name, version)
            .map_err(|e| CatalogError::Storage(e.to_string()))?
        {
            let same = existing.body.get("csv").and_then(Value::as_str) == Some(csv_text)
                && existing.body.get("ontology").and_then(Value::as_str) == Some(onto_text);
            if same {
                return self.parse_entry(name, version, csv_text, onto_text, false);
            }
            return Err(CatalogError::Conflict(format!(
                "dataset {name:?} version {version} already exists with different content"
            )));
        }
        self.save_entry(name, csv_text, onto_text, version, committed)
    }

    /// Parse, persist and (when committed) intern one `(name, version)`
    /// entry. The CSV and ontology must parse — a catalog that accepts
    /// garbage would turn every later job into a 4xx lottery.
    fn save_entry(
        &self,
        name: &str,
        csv_text: &str,
        onto_text: &str,
        version: u64,
        committed: bool,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadRequest(format!(
                "bad dataset name {name:?}: expected 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        let body = json!({
            "name": name,
            "version": version,
            "csv": csv_text,
            "ontology": onto_text,
            "committed": committed,
        });
        let entry = self.parse_entry(name, version, csv_text, onto_text, committed)?;
        self.store
            .save(name, version, &body)
            .map_err(|e| CatalogError::Storage(e.to_string()))?;
        self.obs.inc("serve.catalog.put");
        Ok(entry)
    }

    /// Parses the raw texts of one version into a [`CatalogEntry`],
    /// interning it only when `intern` (committed versions only — a
    /// pending version must stay un-cached so reads keep re-running
    /// quorum confirmation until it commits).
    fn parse_entry(
        &self,
        name: &str,
        version: u64,
        csv_text: &str,
        onto_text: &str,
        intern: bool,
    ) -> Result<Arc<CatalogEntry>, CatalogError> {
        let relation =
            csv::read_csv(csv_text).map_err(|e| CatalogError::BadRequest(format!("csv: {e}")))?;
        let ontology_parsed = if onto_text.is_empty() {
            Ontology::empty()
        } else {
            parse_ontology(onto_text)
                .map_err(|e| CatalogError::BadRequest(format!("ontology: {e}")))?
        };
        let entry = Arc::new(CatalogEntry {
            name: name.to_owned(),
            version,
            csv: csv_text.to_owned(),
            ontology: onto_text.to_owned(),
            fingerprint: content_fingerprint(csv_text, onto_text),
            relation,
            ontology_parsed,
        });
        if intern {
            self.interned
                .lock()
                .expect("catalog intern lock")
                .insert((name.to_owned(), version), entry.clone());
        }
        Ok(entry)
    }

    /// Local state of one version for the peer `stat` endpoint:
    /// `(present, committed)`. Distinguishing *answered without the
    /// version* from *unreachable* is what lets quorum confirmation
    /// declare a version torn instead of merely unknown.
    pub fn stat(&self, name: &str, version: u64) -> Result<(bool, bool), CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadRequest(format!(
                "bad dataset name {name:?}: expected 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        match self
            .store
            .load_seq(name, version)
            .map_err(|e| CatalogError::Storage(e.to_string()))?
        {
            Some(loaded) => Ok((true, is_committed(&loaded.body))),
            None => Ok((false, false)),
        }
    }

    /// Flips one stored version to committed — the second phase of the
    /// replicated write, and the repair action after a read confirms a
    /// pending version reached quorum. Idempotent; re-saving goes through
    /// the same atomic tmp+rename path as the original write. Returns
    /// whether the flag actually flipped.
    pub fn commit_version(&self, name: &str, version: u64) -> Result<bool, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadRequest(format!(
                "bad dataset name {name:?}: expected 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        let Some(loaded) = self
            .store
            .load_seq(name, version)
            .map_err(|e| CatalogError::Storage(e.to_string()))?
        else {
            return Err(CatalogError::BadRequest(format!(
                "unknown dataset {name:?} version {version}"
            )));
        };
        if is_committed(&loaded.body) {
            return Ok(false);
        }
        let mut body = loaded.body;
        if let Value::Object(fields) = &mut body {
            match fields.iter_mut().find(|(k, _)| k == "committed") {
                Some((_, v)) => *v = Value::Bool(true),
                None => fields.push(("committed".to_owned(), Value::Bool(true))),
            }
        }
        self.store
            .save(name, version, &body)
            .map_err(|e| CatalogError::Storage(e.to_string()))?;
        Ok(true)
    }

    /// Deletes one stored version — the quorum-write *rollback* path:
    /// when a replicated PUT fails to reach majority ack, the router
    /// removes the pinned version from every replica that took it, so no
    /// survivor serves a write the fleet did not commit. Returns whether
    /// a file was actually removed; deleting an absent version is a
    /// no-op, keeping rollback idempotent.
    pub fn delete_version(&self, name: &str, version: u64) -> Result<bool, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadRequest(format!(
                "bad dataset name {name:?}: expected 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        self.interned
            .lock()
            .expect("catalog intern lock")
            .remove(&(name.to_owned(), version));
        self.store
            .remove(name, version)
            .map_err(|e| CatalogError::Storage(e.to_string()))
    }

    /// The raw stored payload of one version (`{name, version, csv,
    /// ontology}`) — served by the internal
    /// `GET /v1/datasets/{name}/{version}/snapshot` transfer endpoint so
    /// a peer that missed the replicated write can install the entry
    /// verbatim.
    pub fn snapshot_payload(&self, name: &str, version: u64) -> Result<Value, CatalogError> {
        if !valid_name(name) {
            return Err(CatalogError::BadRequest(format!(
                "bad dataset name {name:?}: expected 1-64 chars of [A-Za-z0-9_-]"
            )));
        }
        let loaded = self
            .store
            .load_seq(name, version)
            .map_err(|e| CatalogError::Storage(e.to_string()))?
            .ok_or_else(|| {
                CatalogError::BadRequest(format!("unknown dataset {name:?} version {version}"))
            })?;
        Ok(loaded.body)
    }

    /// Resolves a `name` / `name@version` reference to its entry,
    /// interning the parse on first touch. A bare name means the newest
    /// **committed** version: pending versions (a replicated write whose
    /// coordinator may have died mid-fan-out) are quorum-confirmed on
    /// read, and a version confirmed torn is skipped in favour of the
    /// next older one — a torn version is never readable.
    pub fn resolve(&self, reference: &str) -> Result<Arc<CatalogEntry>, CatalogError> {
        let (name, version) = parse_reference(reference)?;
        match version {
            Some(v) => self.resolve_version(name, v)?.ok_or_else(|| {
                CatalogError::BadRequest(format!("unknown dataset {name:?} version {v}"))
            }),
            None => {
                let versions = self
                    .store
                    .versions(name)
                    .map_err(|e| CatalogError::Storage(e.to_string()))?;
                if versions.is_empty() {
                    // Nothing local: in multi-host mode this replica may
                    // simply have missed the quorum write — ask the
                    // peers what the newest version is before declaring
                    // unknown.
                    let v = self.newest_on_peers(name).ok_or_else(|| {
                        CatalogError::BadRequest(format!("unknown dataset {name:?}"))
                    })?;
                    return self.resolve_version(name, v)?.ok_or_else(|| {
                        CatalogError::BadRequest(format!("unknown dataset {name:?}"))
                    });
                }
                // Newest first; a torn newest version must not shadow
                // the last committed one.
                for &v in versions.iter().rev() {
                    if let Some(entry) = self.resolve_version(name, v)? {
                        return Ok(entry);
                    }
                }
                Err(CatalogError::BadRequest(format!(
                    "unknown dataset {name:?}"
                )))
            }
        }
    }

    /// Resolves one pinned `(name, version)`. `Ok(None)` means the
    /// version is not servable here — absent everywhere, or confirmed
    /// torn (and deleted) by quorum confirmation.
    fn resolve_version(
        &self,
        name: &str,
        version: u64,
    ) -> Result<Option<Arc<CatalogEntry>>, CatalogError> {
        if let Some(entry) = self
            .interned
            .lock()
            .expect("catalog intern lock")
            .get(&(name.to_owned(), version))
        {
            self.obs.inc("serve.catalog.hit");
            return Ok(Some(entry.clone()));
        }
        let loaded = match self
            .store
            .load_seq(name, version)
            .map_err(|e| CatalogError::Storage(e.to_string()))?
        {
            Some(loaded) => loaded,
            None => {
                // Read repair: fetch the version's snapshot from a peer,
                // install it locally, then resolve from disk like
                // everyone else — so a fetched *pending* copy still runs
                // quorum confirmation instead of being served blind.
                if self.fetch_from_peers(name, version).is_some() {
                    return self.resolve_version(name, version);
                }
                return Ok(None);
            }
        };
        if !is_committed(&loaded.body) {
            match self.confirm_pending(name, version) {
                PendingVerdict::Confirmed => {
                    self.commit_version(name, version)?;
                    self.obs.inc("serve.catalog.read_repaired");
                }
                PendingVerdict::Torn => {
                    self.delete_version(name, version)?;
                    self.obs.inc("serve.catalog.read_repaired");
                    return Ok(None);
                }
                PendingVerdict::Unknown => {
                    return Err(CatalogError::Storage(format!(
                        "dataset {name:?} version {version} is pending and the \
                         quorum is unreachable — retry when the fleet heals"
                    )));
                }
            }
        }
        let text = |field: &str| {
            loaded
                .body
                .get(field)
                .and_then(Value::as_str)
                .map(str::to_owned)
                .ok_or_else(|| {
                    CatalogError::Storage(format!(
                        "catalog entry {name}@{version} is missing field {field:?}"
                    ))
                })
        };
        let csv_text = text("csv")?;
        let onto_text = text("ontology")?;
        self.obs.inc("serve.catalog.miss");
        self.parse_entry(name, version, &csv_text, &onto_text, true)
            .map(Some)
            .map_err(|e| CatalogError::Storage(format!("catalog entry {name}@{version}: {e}", e = e.message())))
    }

    /// Quorum confirmation of a locally-pending version: ask every peer
    /// for its `stat` of `(name, version)` and count holders among those
    /// that answered. This replica counts as one holder and one answer.
    /// A peer that reports the version *committed* is proof positive —
    /// the commit round reached at least one replica, which it only does
    /// after quorum ack.
    fn confirm_pending(&self, name: &str, version: u64) -> PendingVerdict {
        let fleet = self.peers.len() + 1;
        let quorum = fleet / 2 + 1;
        let mut holders = 1usize;
        let mut answered = 1usize;
        let path = format!("/v1/datasets/{name}/{version}/stat");
        let policy = RetryPolicy::new(2, 25);
        for &peer in &self.peers {
            let reply = policy.run(
                |_| crate::peers::peer_json(peer, "GET", &path, None, &self.peer_timeouts),
                |e| e.kind() == std::io::ErrorKind::ConnectionRefused,
            );
            if let Ok((200, reply)) = reply {
                answered += 1;
                if reply.get("committed").and_then(Value::as_bool) == Some(true) {
                    return PendingVerdict::Confirmed;
                }
                if reply.get("present").and_then(Value::as_bool) == Some(true) {
                    holders += 1;
                }
            }
        }
        if holders >= quorum {
            PendingVerdict::Confirmed
        } else if answered >= quorum {
            PendingVerdict::Torn
        } else {
            PendingVerdict::Unknown
        }
    }

    /// Metadata for `GET /v1/datasets/{name}` — never the row payload;
    /// clients that want the data reference it from a job instead.
    pub fn describe(&self, reference: &str) -> Result<Value, CatalogError> {
        let entry = self.resolve(reference)?;
        let versions = self
            .store
            .versions(&entry.name)
            .map_err(|e| CatalogError::Storage(e.to_string()))?;
        Ok(json!({
            "name": entry.name.clone(),
            "version": entry.version,
            "versions": versions,
            "n_rows": entry.relation.n_rows() as u64,
            "n_attrs": entry.relation.schema().len() as u64,
            "csv_bytes": entry.csv.len() as u64,
            "ontology_bytes": entry.ontology.len() as u64,
            "fingerprint": format!("{:016x}", entry.fingerprint),
        }))
    }

    /// All registered dataset names (from disk, so fleet-wide).
    pub fn list(&self) -> Result<Vec<String>, CatalogError> {
        self.store
            .streams()
            .map_err(|e| CatalogError::Storage(e.to_string()))
    }

    /// The newest version any peer reports for `name` (via describe), or
    /// `None` when no peer knows it either. A peer is asked to describe
    /// `name` only when its own listing has it: a peer that lacks it
    /// would ask its peers in turn, and two mutual peers would bounce one
    /// miss back and forth, a thread and two sockets per hop, until the
    /// processes run out of them.
    fn newest_on_peers(&self, name: &str) -> Option<u64> {
        let path = format!("/v1/datasets/{name}");
        let lists = |reply: &Value| {
            reply
                .get("datasets")
                .and_then(Value::as_array)
                .is_some_and(|names| names.iter().any(|n| n.as_str() == Some(name)))
        };
        self.peers
            .iter()
            .filter(|&&peer| {
                matches!(
                    crate::peers::peer_json(peer, "GET", "/v1/datasets", None, &self.peer_timeouts),
                    Ok((200, reply)) if lists(&reply)
                )
            })
            .filter_map(|&peer| {
                match crate::peers::peer_json(peer, "GET", &path, None, &self.peer_timeouts) {
                    Ok((200, reply)) => reply.get("version").and_then(Value::as_u64),
                    _ => None,
                }
            })
            .max()
    }

    /// Fetches `name@version` from the first peer that has it and
    /// installs it locally via the pinned-write path (so the repaired
    /// copy is byte-compatible with the quorum's), preserving the peer's
    /// commit state. Counted as `serve.catalog.peer_fetch`. Transient
    /// transport errors get a small retry budget; connection-refused
    /// moves on to the next peer without sleeping.
    fn fetch_from_peers(&self, name: &str, version: u64) -> Option<Arc<CatalogEntry>> {
        let path = format!("/v1/datasets/{name}/{version}/snapshot");
        let policy = RetryPolicy::new(2, 50);
        for &peer in &self.peers {
            let Ok((200, payload)) = policy.run(
                |_| crate::peers::peer_json(peer, "GET", &path, None, &self.peer_timeouts),
                |e| e.kind() == std::io::ErrorKind::ConnectionRefused,
            ) else {
                continue;
            };
            let (Some(csv_text), Some(onto_text)) = (
                payload.get("csv").and_then(Value::as_str),
                payload.get("ontology").and_then(Value::as_str),
            ) else {
                continue;
            };
            let committed = is_committed(&payload);
            if let Ok(entry) =
                self.install_replica(name, csv_text, onto_text, version, committed)
            {
                self.obs.inc("serve.catalog.peer_fetch");
                return Some(entry);
            }
        }
        None
    }

    /// Routing digest of a dataset reference without parsing the data:
    /// the digest of the *content* of the resolved version, falling back
    /// to a digest of the reference string when the dataset is unknown
    /// here (the target worker will answer the 4xx).
    pub fn route_fingerprint(&self, reference: &str) -> u64 {
        match self.resolve(reference) {
            Ok(entry) => entry.fingerprint,
            Err(_) => fnv1a64(reference.as_bytes()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ofd-catalog-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample() -> (String, String) {
        let ds = ofd_datagen::clinical(&ofd_datagen::PresetConfig {
            n_rows: 60,
            n_attrs: 4,
            n_ofds: 1,
            seed: 3,
            ..ofd_datagen::PresetConfig::default()
        });
        (
            csv::write_csv(&ds.clean),
            ofd_ontology::write_ontology(&ds.full_ontology),
        )
    }

    fn catalog(dir: &Path) -> Catalog {
        Catalog::open(dir.to_path_buf(), FaultPlan::none(), Obs::disabled())
    }

    #[test]
    fn put_resolve_and_versioning() {
        let dir = tmp("versioning");
        let c = catalog(&dir);
        let (csv_text, onto_text) = sample();
        let v1 = c.put("clinical", &csv_text, &onto_text).expect("put v1");
        assert_eq!(v1.version, 1);
        let v2 = c.put("clinical", &csv_text, "").expect("put v2");
        assert_eq!(v2.version, 2);

        // Bare name resolves newest; @version pins.
        assert_eq!(c.resolve("clinical").expect("latest").version, 2);
        let pinned = c.resolve("clinical@1").expect("pinned");
        assert_eq!(pinned.version, 1);
        assert_eq!(pinned.ontology, onto_text);
        assert!(c.resolve("clinical@9").is_err());
        assert!(c.resolve("nope").is_err());
        assert_eq!(c.list().expect("list"), vec!["clinical"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_survive_reopen_and_intern_once() {
        let dir = tmp("reopen");
        let (csv_text, onto_text) = sample();
        catalog(&dir).put("kiva", &csv_text, &onto_text).expect("put");

        // A fresh catalog (fresh process, restarted fleet) sees it.
        let c2 = catalog(&dir);
        let a = c2.resolve("kiva").expect("resolve after reopen");
        let b = c2.resolve("kiva@1").expect("resolve again");
        assert!(Arc::ptr_eq(&a, &b), "second resolve reuses the interned parse");
        assert_eq!(a.csv, csv_text);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_handles_share_one_directory() {
        // A worker registers; a *different* worker (separate handle, same
        // dir — the fleet case) resolves without any coordination.
        let dir = tmp("shared");
        let (csv_text, _) = sample();
        let writer = catalog(&dir);
        let reader = catalog(&dir);
        writer.put("shared", &csv_text, "").expect("put");
        let got = reader.resolve("shared").expect("cross-handle resolve");
        assert_eq!(got.csv, csv_text);
        assert_eq!(
            got.fingerprint,
            content_fingerprint(&csv_text, ""),
            "router and worker agree on the routing digest"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_bad_names_versions_and_garbage() {
        let dir = tmp("reject");
        let c = catalog(&dir);
        let (csv_text, _) = sample();
        for bad in ["", "has.dot", "has/slash", "has space", &"x".repeat(65)] {
            assert!(matches!(
                c.put(bad, &csv_text, ""),
                Err(CatalogError::BadRequest(_))
            ));
        }
        assert!(matches!(
            c.put("ok", &csv_text, "not an ontology {{{"),
            Err(CatalogError::BadRequest(_))
        ));
        assert!(matches!(
            c.resolve("ok@notanumber"),
            Err(CatalogError::BadRequest(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn describe_reports_metadata_not_rows() {
        let dir = tmp("describe");
        let c = catalog(&dir);
        let (csv_text, onto_text) = sample();
        c.put("meta", &csv_text, &onto_text).expect("put");
        let d = c.describe("meta").expect("describe");
        assert_eq!(d.get("name").and_then(Value::as_str), Some("meta"));
        assert_eq!(d.get("version").and_then(Value::as_u64), Some(1));
        assert_eq!(d.get("n_rows").and_then(Value::as_u64), Some(60));
        assert!(d.get("csv").is_none(), "metadata only, no payload");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

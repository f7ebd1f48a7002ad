//! Static peer lists and the peer conversations behind cross-host recovery.
//!
//! Multi-host mode (`fastofd serve --peers host:port,...`) gives every
//! process a fixed list of sibling workers. Three subsystems use it:
//!
//! * the router fans catalog `PUT`s out to a write quorum of peers,
//! * [`Catalog`](crate::catalog::Catalog) resolves a locally-missing
//!   dataset version by fetching its snapshot from a peer, and
//! * job / stream recovery ships a dead owner's newest checkpoint across
//!   filesystems via `GET /v1/{jobs,streams}/{fingerprint}/snapshot`.
//!
//! Every conversation goes through the crate's one client,
//! [`exchange`]: bounded connect/read deadlines ([`PeerTimeouts`]) and a
//! reply verified against its `content-length` (a torn reply is a
//! transport error, never a parsed success). The fetch path adds a shared
//! [`RetryPolicy`](crate::retry::RetryPolicy).

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};

use ofd_core::SnapshotStore;
use serde_json::Value;

use crate::http::{exchange, PeerTimeouts};
use crate::retry::RetryPolicy;

/// Parse a comma-separated `host:port,...` peer list into socket
/// addresses. Entries are trimmed; empty entries are rejected so a typo
/// like `a:1,,b:2` fails loudly instead of silently shrinking the quorum.
pub fn parse_peer_list(spec: &str) -> Result<Vec<SocketAddr>, String> {
    let mut peers = Vec::new();
    for entry in spec.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            return Err(format!("empty entry in peer list {spec:?}"));
        }
        let addr = entry
            .to_socket_addrs()
            .map_err(|e| format!("peer {entry:?}: {e}"))?
            .next()
            .ok_or_else(|| format!("peer {entry:?}: no addresses"))?;
        peers.push(addr);
    }
    Ok(peers)
}

/// One [`exchange`] with a peer, the body parsed as JSON. Non-JSON
/// bodies become `Null` so callers can treat "peer answered garbage" the
/// same as "peer answered nothing".
pub(crate) fn peer_json(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&Value>,
    timeouts: &PeerTimeouts,
) -> io::Result<(u16, Value)> {
    let payload = body.map(Value::to_string).unwrap_or_default();
    let reply = exchange(addr, method, path, payload.as_bytes(), timeouts, None)?;
    Ok((reply.status, reply.json().unwrap_or(Value::Null)))
}

/// Fetch a snapshot bundle (`{"files": [{name, seq, body}, ...]}`) from
/// the first peer that answers 200 for `path`, and install every file
/// into `store` via [`SnapshotStore::save`]. Each peer gets a small
/// retry budget (transient resets and torn replies are exactly what the
/// chaos proxy injects); connection-refused moves on without sleeping.
/// Returns the number of snapshot files installed (0 when no peer had
/// anything to ship — callers then fall back to re-execution from
/// inputs).
pub(crate) fn fetch_and_install(
    peers: &[SocketAddr],
    path: &str,
    store: &SnapshotStore,
    timeouts: &PeerTimeouts,
) -> usize {
    let policy = RetryPolicy::new(2, 50);
    for &peer in peers {
        let Ok((200, bundle)) = policy.run(
            |_| peer_json(peer, "GET", path, None, timeouts),
            |e| e.kind() == io::ErrorKind::ConnectionRefused,
        ) else {
            continue;
        };
        let Some(files) = bundle.get("files").and_then(Value::as_array) else {
            continue;
        };
        let mut installed = 0usize;
        for file in files {
            let (Some(name), Some(seq), Some(body)) = (
                file.get("name").and_then(Value::as_str),
                file.get("seq").and_then(Value::as_u64),
                file.get("body"),
            ) else {
                continue;
            };
            if store.save(name, seq, body).is_ok() {
                installed += 1;
            }
        }
        if installed > 0 {
            return installed;
        }
    }
    0
}

/// Build the snapshot-bundle JSON a transfer endpoint serves: the newest
/// snapshot per stream name found in `store`. Returns `None` when the
/// store holds nothing to ship.
pub(crate) fn snapshot_bundle(store: &SnapshotStore) -> Option<Value> {
    let names = store.streams().ok()?;
    let mut files = Vec::new();
    for name in names {
        if let Ok(Some(loaded)) = store.load_latest(&name) {
            files.push(serde_json::json!({
                "name": name,
                "seq": loaded.seq,
                "body": loaded.body,
            }));
        }
    }
    if files.is_empty() {
        None
    } else {
        Some(serde_json::json!({ "files": files }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn peer_lists_parse_and_reject_empty_entries() {
        let peers = parse_peer_list("127.0.0.1:7001, 127.0.0.1:7002").expect("two peers");
        assert_eq!(peers.len(), 2);
        assert_eq!(peers[0].port(), 7001);
        assert_eq!(peers[1].port(), 7002);
        assert!(parse_peer_list("127.0.0.1:7001,,127.0.0.1:7002").is_err());
        assert!(parse_peer_list("").is_err());
        assert!(parse_peer_list("not-an-addr").is_err());
    }

    #[test]
    fn snapshot_bundles_round_trip_through_fetch_and_install() {
        let src_dir = std::env::temp_dir().join(format!("ofd-peers-src-{}", std::process::id()));
        let dst_dir = std::env::temp_dir().join(format!("ofd-peers-dst-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
        let src = SnapshotStore::new(&src_dir);
        src.save("session", 3, &serde_json::json!({"edits": [1, 2, 3]}))
            .expect("seed snapshot");
        let bundle = snapshot_bundle(&src).expect("bundle with one file");

        // Serve the bundle from a throwaway listener, then install it
        // into a second store through the real client path.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let body = bundle.to_string();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().expect("accept");
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
            let reply = format!(
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
                body.len(),
                body
            );
            conn.write_all(reply.as_bytes()).expect("reply");
        });

        let dst = SnapshotStore::new(&dst_dir);
        let installed =
            fetch_and_install(&[addr], "/v1/streams/00/snapshot", &dst, &PeerTimeouts::default());
        server.join().expect("server thread");
        assert_eq!(installed, 1);
        let loaded = dst.load_latest("session").expect("load").expect("present");
        assert_eq!(loaded.seq, 3);
        assert_eq!(
            loaded.body.get("edits"),
            Some(&serde_json::json!([1, 2, 3]))
        );

        let _ = std::fs::remove_dir_all(&src_dir);
        let _ = std::fs::remove_dir_all(&dst_dir);
    }
}

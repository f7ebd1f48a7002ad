//! Regression: a bare-name lookup that misses everywhere, on two servers
//! that list each other as peers, must end after one question per peer.
//! It used to bounce between them — each hop a describe that asked the
//! other side again — until the processes ran out of threads.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use ofd_serve::{exchange, PeerTimeouts, ServeConfig, Server};

fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap()
        .port()
}

#[test]
fn unknown_dataset_describe_with_mutual_peers_stays_bounded() {
    let pa = free_port();
    let pb = free_port();
    let tmp = std::env::temp_dir().join(format!("ofd-recursion-repro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);

    let obs_a = ofd_core::Obs::enabled();
    let obs_b = ofd_core::Obs::enabled();
    let mk = |port: u16, peer: u16, who: &str, obs: &ofd_core::Obs| ServeConfig {
        addr: format!("127.0.0.1:{port}"),
        checkpoint_dir: Some(tmp.join(who)),
        peers: vec![format!("127.0.0.1:{peer}").parse().unwrap()],
        obs: obs.clone(),
        ..ServeConfig::default()
    };
    let a = Server::bind(mk(pa, pb, "a", &obs_a)).expect("bind a");
    let b = Server::bind(mk(pb, pa, "b", &obs_b)).expect("bind b");

    let start = Instant::now();
    let reply = exchange(a.addr(), "GET", "/v1/datasets/nope", b"", &PeerTimeouts::from_ms(30_000), None)
        .expect("describe");
    assert_eq!(reply.status, 400, "an unknown dataset is a bad request");
    assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());

    let count = |obs: &ofd_core::Obs| obs.snapshot().counter("serve.requests").unwrap_or(0);
    assert_eq!(count(&obs_a), 1, "a served only the client");
    assert_eq!(count(&obs_b), 1, "b answered one listing and was never asked to describe");

    a.shutdown(Duration::from_secs(5));
    b.shutdown(Duration::from_secs(5));
    let _ = std::fs::remove_dir_all(&tmp);
}

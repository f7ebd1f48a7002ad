//! Deterministic in-process chaos proxy for network fault injection.
//!
//! [`NetFaultProxy`] fronts any worker/peer TCP address and injects the
//! five network [`FaultSite`](ofd_core::FaultSite)s as a deterministic
//! function of `(seed, site, occurrence)`, driven by the same seeded
//! [`FaultPlan`](ofd_core::FaultPlan) and `--faults` spec grammar as the
//! process-local sites. Connections are probed **in accept order**, so a
//! sequential client replays the identical toxic schedule from the same
//! seed — that replayability is what turns a chaos soak from "we saw it
//! fail once" into a pinned regression test.
//!
//! Toxic semantics (one per connection, severity-ordered short-circuit —
//! see `NET_SITES` in ofd-core):
//!
//! * `net-refuse` — close the client connection immediately, before
//!   reading a byte: the upstream might as well not be listening.
//! * `net-blackhole` — read the request, then never respond; the
//!   connection stays open until the client gives up. Exercises client
//!   read deadlines.
//! * `net-reset` — relay the request, then write the reply head plus
//!   roughly half the body and close abruptly: a connection reset
//!   mid-body. Exercises short-read detection.
//! * `net-partial` — like reset, but after the partial write the
//!   connection stalls *open*: the client's own deadline must fire.
//! * `net-delay` — sleep the plan's `delay-ms`, then relay cleanly. The
//!   reply is untouched; only latency is injected.
//!
//! Every applied toxic is counted under `serve.net.*` (pinned in the
//! metrics schema) and appended to an in-memory schedule log so a soak
//! can assert `injected == Σ plan.fired(net-*)` and that two proxies
//! with the same spec replay the same schedule.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ofd_core::{FaultPlan, NetFault, Obs};

use crate::http::{exchange, read_request, AcceptLoop, PeerTimeouts};

/// The network-chaos counters, touched at proxy (and router) bind time
/// so a metrics scrape of an idle process still shows them at zero.
pub const NET_COUNTERS: [&str; 4] = [
    "serve.net.injected",
    "serve.net.resets",
    "serve.net.blackholes",
    "serve.net.retries_exhausted",
];

/// How long a toxic handler will babysit a stalled connection before
/// force-closing it — a backstop so a client that never times out cannot
/// leak proxy threads forever.
const STALL_CAP: Duration = Duration::from_secs(30);

/// Timeouts for the proxy's own relay I/O (connect to upstream, read the
/// client request). Generous: the proxy must never be the bottleneck the
/// faults are attributed to.
const RELAY_IO: Duration = Duration::from_secs(30);

/// An in-process TCP proxy that forwards `127.0.0.1:<port> -> upstream`
/// and fires deterministic network toxics. Bind one per worker/peer
/// address and point the router (or a peer list) at [`Self::addr`].
pub struct NetFaultProxy {
    addr: SocketAddr,
    plan: Arc<FaultPlan>,
    schedule: Arc<Mutex<Vec<String>>>,
    /// Releases stalled toxic handlers on [`Self::stop`].
    stopping: Arc<AtomicBool>,
    accept: AcceptLoop,
}

impl NetFaultProxy {
    /// Binds the proxy on an ephemeral localhost port in front of
    /// `upstream`. `plan` decides the toxic schedule; `obs` receives the
    /// `serve.net.*` counters.
    pub fn bind(upstream: SocketAddr, plan: Arc<FaultPlan>, obs: Obs) -> io::Result<NetFaultProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        for name in NET_COUNTERS {
            obs.touch_counter(name);
        }
        let schedule = Arc::new(Mutex::new(Vec::new()));
        let stopping = Arc::new(AtomicBool::new(false));
        let accept = {
            let plan = Arc::clone(&plan);
            let schedule = Arc::clone(&schedule);
            let stopping = Arc::clone(&stopping);
            AcceptLoop::spawn(listener, "ofd-netfault-accept", move |client| {
                // Probe in the accept loop, not the handler thread:
                // occurrence order == accept order, which is what makes
                // the schedule a pure function of the seed.
                let toxic = plan.net_fault();
                schedule
                    .lock()
                    .unwrap()
                    .push(toxic.map(|t| t.label().to_string()).unwrap_or_else(|| "pass".into()));
                if let Some(t) = toxic {
                    obs.inc("serve.net.injected");
                    match t {
                        NetFault::Reset => obs.inc("serve.net.resets"),
                        NetFault::Blackhole => obs.inc("serve.net.blackholes"),
                        _ => {}
                    }
                }
                let delay = plan.delay_duration();
                let stopping = Arc::clone(&stopping);
                std::thread::spawn(move || {
                    let _ = handle(client, upstream, toxic, delay, &stopping);
                });
            })?
        };
        Ok(NetFaultProxy {
            addr,
            plan,
            schedule,
            stopping,
            accept,
        })
    }

    /// The proxy's listen address — point clients here instead of at the
    /// upstream.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The fault plan driving this proxy (for `fired()` accounting).
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// The per-connection toxic schedule so far, in accept order: one
    /// entry per connection, a toxic label or `"pass"`.
    pub fn schedule(&self) -> Vec<String> {
        self.schedule.lock().unwrap().clone()
    }

    /// Stops the accept loop and joins it. Called on drop; explicit for
    /// tests that want deterministic teardown.
    pub fn stop(&mut self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.accept.stop();
    }
}

impl Drop for NetFaultProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Reads the client's request and relays it upstream through
/// [`exchange`], returning the upstream's raw reply.
fn relay(client: &mut TcpStream, upstream: SocketAddr) -> io::Result<Vec<u8>> {
    let req = read_request(client, usize::MAX, RELAY_IO)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let timeouts = PeerTimeouts {
        connect: RELAY_IO,
        read: RELAY_IO,
    };
    Ok(exchange(upstream, &req.method, &req.path, &req.body, &timeouts, None)?.raw)
}

/// Parks on the connection until the client closes, `stop` flips, or the
/// stall cap expires — the shared tail of `blackhole` and `partial`.
fn stall_until_abandoned(client: &mut TcpStream, stop: &AtomicBool) {
    let _ = client.set_read_timeout(Some(Duration::from_millis(100)));
    let start = std::time::Instant::now();
    let mut sink = [0u8; 1024];
    while start.elapsed() < STALL_CAP && !stop.load(Ordering::SeqCst) {
        match client.read(&mut sink) {
            Ok(0) => break,                 // client gave up
            Ok(_) => continue,              // drain stray bytes
            Err(e) if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
                continue
            }
            Err(_) => break,
        }
    }
}

/// Handles one proxied connection under an optional toxic.
fn handle(
    mut client: TcpStream,
    upstream: SocketAddr,
    toxic: Option<NetFault>,
    delay: Duration,
    stop: &AtomicBool,
) -> io::Result<()> {
    match toxic {
        Some(NetFault::Refuse) => {
            // Close before reading a byte: indistinguishable from a
            // refused/reset connection at the client.
            let _ = client.shutdown(Shutdown::Both);
            Ok(())
        }
        Some(NetFault::Blackhole) => {
            let _ = read_request(&mut client, usize::MAX, RELAY_IO);
            stall_until_abandoned(&mut client, stop);
            let _ = client.shutdown(Shutdown::Both);
            Ok(())
        }
        Some(NetFault::Reset) | Some(NetFault::Partial) => {
            let reply = relay(&mut client, upstream)?;
            // Write the head plus about half the body, so the client has
            // a status line and a content-length it can never satisfy.
            let head_end = reply
                .windows(4)
                .position(|w| w == b"\r\n\r\n")
                .map(|p| p + 4)
                .unwrap_or(0);
            let torn = head_end + (reply.len() - head_end) / 2;
            client.set_write_timeout(Some(RELAY_IO))?;
            client.write_all(&reply[..torn])?;
            let _ = client.flush();
            if matches!(toxic, Some(NetFault::Partial)) {
                // Stall open: the client's own read deadline must fire.
                stall_until_abandoned(&mut client, stop);
            }
            let _ = client.shutdown(Shutdown::Both);
            Ok(())
        }
        Some(NetFault::Delay) | None => {
            if matches!(toxic, Some(NetFault::Delay)) {
                std::thread::sleep(delay);
            }
            let reply = relay(&mut client, upstream)?;
            client.set_write_timeout(Some(RELAY_IO))?;
            client.write_all(&reply)?;
            let _ = client.flush();
            let _ = client.shutdown(Shutdown::Both);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Reply;

    /// A scripted upstream that answers every request with a fixed JSON
    /// body, `connection: close`.
    fn scripted_upstream(body: &'static str) -> SocketAddr {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind upstream");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(mut conn) = conn else { continue };
                std::thread::spawn(move || {
                    let mut buf = [0u8; 8192];
                    let _ = conn.set_read_timeout(Some(Duration::from_secs(5)));
                    let _ = conn.read(&mut buf);
                    let reply = format!(
                        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    let _ = conn.write_all(reply.as_bytes());
                });
            }
        });
        addr
    }

    /// One `GET /x` through the proxy with 500 ms deadlines.
    fn get(proxy: &NetFaultProxy) -> io::Result<Reply> {
        let quick = PeerTimeouts {
            connect: Duration::from_millis(500),
            read: Duration::from_millis(500),
        };
        exchange(proxy.addr(), "GET", "/x", b"", &quick, None)
    }

    #[test]
    fn clean_passthrough_relays_byte_identical_replies() {
        let upstream = scripted_upstream("{\"ok\":true}");
        let plan = Arc::new(FaultPlan::parse("seed=1").expect("plan"));
        let proxy = NetFaultProxy::bind(upstream, plan, Obs::disabled()).expect("proxy");
        for _ in 0..3 {
            let reply = get(&proxy).expect("clean relay");
            assert_eq!(reply.status, 200);
            assert_eq!(reply.body(), b"{\"ok\":true}");
        }
        assert_eq!(proxy.schedule(), vec!["pass", "pass", "pass"]);
    }

    #[test]
    fn reset_and_partial_surface_as_short_read_transport_errors() {
        let upstream = scripted_upstream("{\"payload\":\"0123456789abcdef\"}");
        for spec in ["seed=9,net-reset@1", "seed=9,net-partial@1"] {
            let plan = Arc::new(FaultPlan::parse(spec).expect("plan"));
            let proxy = NetFaultProxy::bind(upstream, Arc::clone(&plan), Obs::disabled()).expect("proxy");
            let err = get(&proxy).expect_err("torn reply must be a transport error");
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::UnexpectedEof | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{spec}: unexpected error {err:?}"
            );
            // After the toxic fires once, the proxy relays cleanly again.
            let reply = get(&proxy).expect("clean after the scheduled toxic");
            assert_eq!(reply.status, 200);
        }
    }

    #[test]
    fn refuse_and_blackhole_never_yield_a_reply() {
        let upstream = scripted_upstream("{}");
        let plan = Arc::new(FaultPlan::parse("seed=3,net-refuse@1,net-blackhole@1").expect("plan"));
        let obs = Obs::enabled();
        let proxy = NetFaultProxy::bind(upstream, plan, obs.clone()).expect("proxy");
        // Connection 1: refuse (severity order puts it first).
        assert!(get(&proxy).is_err());
        // Connection 2: blackhole — the client's read deadline fires.
        assert!(get(&proxy).is_err());
        assert_eq!(proxy.schedule(), vec!["refuse", "blackhole"]);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("serve.net.injected"), Some(2));
        assert_eq!(snap.counter("serve.net.blackholes"), Some(1));
        assert_eq!(snap.counter("serve.net.resets"), Some(0));
    }

    #[test]
    fn same_seed_replays_the_same_toxic_schedule_across_proxies() {
        let upstream = scripted_upstream("{\"n\":1}");
        let spec = "seed=77,net-reset%0.3,net-delay%0.3,delay-ms=1";
        let run = |spec: &str| -> Vec<String> {
            let plan = Arc::new(FaultPlan::parse(spec).expect("plan"));
            let proxy = NetFaultProxy::bind(upstream, plan, Obs::disabled()).expect("proxy");
            for _ in 0..24 {
                let _ = get(&proxy);
            }
            let schedule = proxy.schedule();
            assert_eq!(schedule.len(), 24, "one schedule entry per connection");
            schedule
        };
        let first = run(spec);
        let second = run(spec);
        assert_eq!(first, second, "same seed, same toxic schedule");
        assert!(first.iter().any(|t| t != "pass"), "schedule actually fired toxics");
        let other = run("seed=78,net-reset%0.3,net-delay%0.3,delay-ms=1");
        assert_ne!(first, other, "different seed, different schedule");
    }

    #[test]
    fn injected_counter_matches_the_plans_fired_total() {
        let upstream = scripted_upstream("{}");
        let plan = Arc::new(FaultPlan::parse("seed=5,net-delay%0.5,delay-ms=1").expect("plan"));
        let obs = Obs::enabled();
        let proxy = NetFaultProxy::bind(upstream, Arc::clone(&plan), obs.clone()).expect("proxy");
        for _ in 0..16 {
            let _ = get(&proxy);
        }
        let snap = obs.snapshot();
        assert_eq!(
            snap.counter("serve.net.injected"),
            Some(proxy.plan().net_fired()),
            "every injected toxic is attributed"
        );
    }

    #[test]
    fn idle_stop_returns_promptly_and_frees_the_port() {
        let upstream = scripted_upstream("{}");
        let plan = Arc::new(FaultPlan::parse("seed=1").expect("plan"));
        let mut proxy = NetFaultProxy::bind(upstream, plan, Obs::disabled()).expect("proxy");
        let addr = proxy.addr();
        let t = std::time::Instant::now();
        proxy.stop();
        assert!(t.elapsed() < Duration::from_secs(1), "stop took {:?}", t.elapsed());
        assert!(proxy.schedule().is_empty(), "the wake connection draws no fault");
        TcpListener::bind(addr).expect("the port can be bound again");
    }
}

//! End-to-end tests for the resilient service layer: real sockets, real
//! worker pool, real engines. Each test binds its own server on a free
//! port and shuts it down explicitly.

use std::io::Write;
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ofd_datagen::{clinical, csv, PresetConfig};
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_serve::{exchange, PeerTimeouts, ServeConfig, Server};
use serde_json::{json, Value};

// ----------------------------------------------------------------- client

struct Reply {
    status: u16,
    retry_after: Option<String>,
    body: Value,
}

/// One request through the crate's own client, `http::exchange`.
fn request(addr: std::net::SocketAddr, method: &str, path: &str, body: Option<&Value>) -> Reply {
    let body_text = body
        .map(|b| serde_json::to_string(b).expect("serialize"))
        .unwrap_or_default();
    let timeouts = PeerTimeouts::from_ms(120_000);
    let reply = exchange(addr, method, path, body_text.as_bytes(), &timeouts, None).expect("exchange");
    let text = String::from_utf8(reply.body().to_vec()).expect("utf8 reply");
    Reply {
        status: reply.status,
        retry_after: reply.header("retry-after").map(str::to_owned),
        body: if text.is_empty() {
            Value::Null
        } else {
            serde_json::from_str(&text).unwrap_or(Value::String(text))
        },
    }
}

// --------------------------------------------------------------- fixtures

fn dataset(rows: usize) -> (String, String) {
    let ds = clinical(&PresetConfig {
        n_rows: rows,
        n_attrs: 6,
        n_ofds: 2,
        seed: 11,
        ..PresetConfig::default()
    });
    (
        csv::write_csv(&ds.clean),
        ofd_ontology::write_ontology(&ds.full_ontology),
    )
}

/// Σ of the response as comparable keys — `support_bits` makes the
/// comparison bit-exact, no float formatting in the loop.
fn sigma_keys(reply: &Value) -> Vec<(String, String, u64, u64)> {
    let mut keys: Vec<_> = reply
        .get("ofds")
        .and_then(Value::as_array)
        .expect("ofds array")
        .iter()
        .map(|o| {
            let lhs: Vec<&str> = o
                .get("lhs")
                .and_then(Value::as_array)
                .expect("lhs")
                .iter()
                .map(|v| v.as_str().expect("lhs name"))
                .collect();
            (
                lhs.join(","),
                o.get("rhs").and_then(Value::as_str).expect("rhs").to_string(),
                o.get("support_bits").and_then(Value::as_u64).expect("bits"),
                o.get("level").and_then(Value::as_u64).expect("level"),
            )
        })
        .collect();
    keys.sort();
    keys
}

fn reference_sigma(csv_text: &str, onto_text: &str) -> Vec<(String, String, u64, u64)> {
    let rel = csv::read_csv(csv_text).expect("csv");
    let onto = ofd_ontology::parse_ontology(onto_text).expect("onto");
    let out = FastOfd::new(&rel, &onto)
        .options(DiscoveryOptions::new())
        .run();
    assert!(out.complete, "reference run is uninterrupted");
    let schema = rel.schema();
    let mut keys: Vec<_> = out
        .ofds
        .iter()
        .map(|d| {
            let lhs: Vec<&str> = d.ofd.lhs.iter().map(|a| schema.name(a)).collect();
            (
                lhs.join(","),
                schema.name(d.ofd.rhs).to_string(),
                d.support.to_bits(),
                d.level as u64,
            )
        })
        .collect();
    keys.sort();
    keys
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ofd-serve-e2e-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ------------------------------------------------------------------ tests

#[test]
fn health_ready_metrics_and_routing() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", None);
    assert_eq!(health.status, 200);

    let ready = request(addr, "GET", "/readyz", None);
    assert_eq!(ready.status, 200);
    assert_eq!(ready.body.get("ready").and_then(Value::as_bool), Some(true));

    let metrics = request(addr, "GET", "/metrics", None);
    assert_eq!(metrics.status, 200);
    assert_eq!(
        metrics.body.get("version").and_then(Value::as_u64),
        Some(1),
        "metrics speak schema v1"
    );
    let counters = metrics.body.get("counters").expect("counters");
    for name in ofd_serve::SERVE_COUNTERS {
        assert!(
            counters.get(name).and_then(Value::as_u64).is_some(),
            "pinned counter {name} present from the first scrape"
        );
    }

    assert_eq!(request(addr, "GET", "/nope", None).status, 405);
    assert_eq!(request(addr, "POST", "/v1/nope", None).status, 404);
    let bad = request(addr, "POST", "/v1/discover", Some(&json!("not an object")));
    assert_eq!(bad.status, 400);

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn discover_roundtrip_matches_in_process_run() {
    let (csv_text, onto_text) = dataset(200);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let reply = request(
        addr,
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.body.get("status").and_then(Value::as_str),
        Some("complete")
    );
    assert_eq!(
        sigma_keys(&reply.body),
        reference_sigma(&csv_text, &onto_text),
        "served Σ is bit-identical to the in-process run"
    );

    let summary = server.shutdown(Duration::from_secs(5));
    assert_eq!(summary.admitted, 1);
    assert_eq!(summary.shed, 0);
}

#[test]
fn validate_and_clean_roundtrip() {
    let (csv_text, onto_text) = dataset(150);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    // Discover to get a real OFD spec, then validate and clean with it.
    let discovered = request(
        addr,
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    let specs: Vec<Value> = discovered
        .body
        .get("ofds")
        .and_then(Value::as_array)
        .expect("ofds")
        .iter()
        .take(2)
        .map(|o| {
            let lhs: Vec<&str> = o
                .get("lhs")
                .and_then(Value::as_array)
                .expect("lhs")
                .iter()
                .map(|v| v.as_str().expect("name"))
                .collect();
            json!(format!(
                "{}->{}",
                lhs.join(","),
                o.get("rhs").and_then(Value::as_str).expect("rhs")
            ))
        })
        .collect();
    assert!(!specs.is_empty(), "clinical preset plants OFDs");

    let validated = request(
        addr,
        "POST",
        "/v1/validate",
        Some(&json!({
            "csv": &csv_text,
            "ontology": &onto_text,
            "ofds": Value::Array(specs.clone()),
        })),
    );
    assert_eq!(validated.status, 200);
    assert_eq!(
        validated.body.get("all_satisfied").and_then(Value::as_bool),
        Some(true),
        "discovered OFDs validate on the clean instance"
    );

    let cleaned = request(
        addr,
        "POST",
        "/v1/clean",
        Some(&json!({
            "csv": &csv_text,
            "ontology": &onto_text,
            "ofds": Value::Array(specs),
        })),
    );
    assert_eq!(cleaned.status, 200);
    assert_eq!(
        cleaned.body.get("satisfied").and_then(Value::as_bool),
        Some(true)
    );
    assert!(cleaned
        .body
        .get("repaired_csv")
        .and_then(Value::as_str)
        .is_some());

    server.shutdown(Duration::from_secs(5));
}

#[test]
fn tiny_queue_sheds_with_backoff_hints_and_retries_succeed() {
    let (csv_text, onto_text) = dataset(800);
    let server = Server::bind(ServeConfig {
        workers: 1,
        queue_cap: 1,
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();
    let reference = reference_sigma(&csv_text, &onto_text);

    // Fire a burst bigger than workers + queue; some must shed.
    let mut clients = Vec::new();
    for _ in 0..6 {
        let (csv_text, onto_text) = (csv_text.clone(), onto_text.clone());
        clients.push(std::thread::spawn(move || {
            request(
                addr,
                "POST",
                "/v1/discover",
                Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
            )
        }));
    }
    let replies: Vec<Reply> = clients.into_iter().map(|c| c.join().expect("client")).collect();
    let shed: Vec<&Reply> = replies.iter().filter(|r| r.status == 429).collect();
    let ok: Vec<&Reply> = replies.iter().filter(|r| r.status == 200).collect();
    assert!(!shed.is_empty(), "burst of 6 over capacity 2 must shed");
    assert!(!ok.is_empty(), "some of the burst is admitted");
    for r in &shed {
        assert!(r.retry_after.is_some(), "shed carries Retry-After");
        assert!(
            r.body.get("retry_after_ms").and_then(Value::as_u64).is_some(),
            "shed carries a millisecond hint"
        );
    }
    for r in &ok {
        assert_eq!(sigma_keys(&r.body), reference, "admitted bursts are correct");
    }

    // A shed client that retries with backoff eventually gets through.
    let mut backoff = Duration::from_millis(50);
    let deadline = Instant::now() + Duration::from_secs(60);
    let reply = loop {
        let r = request(
            addr,
            "POST",
            "/v1/discover",
            Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
        );
        if r.status == 200 {
            break r;
        }
        assert_eq!(r.status, 429, "only shedding on this path");
        assert!(Instant::now() < deadline, "retry must eventually succeed");
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(Duration::from_secs(1));
    };
    assert_eq!(sigma_keys(&reply.body), reference);

    let summary = server.shutdown(Duration::from_secs(10));
    assert!(summary.shed >= 1);
    assert!(summary.admitted >= 1);
}

#[test]
fn drain_cancels_in_flight_then_restart_resumes_byte_identically() {
    let (csv_text, onto_text) = dataset(2500);
    let ckpt = tmp_dir("drain");
    let reference = reference_sigma(&csv_text, &onto_text);

    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Long job in flight...
    let inflight = {
        let (csv_text, onto_text) = (csv_text.clone(), onto_text.clone());
        std::thread::spawn(move || {
            request(
                addr,
                "POST",
                "/v1/discover",
                Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(300));

    // ...when the drain hits (the /admin/drain path, same as SIGTERM).
    let drained = request(addr, "POST", "/admin/drain", None);
    assert_eq!(drained.status, 200);
    assert!(server.is_draining());
    assert!(server.drain_requested());

    // The in-flight job is answered: complete if it won the race, else a
    // sound INCOMPLETE partial cancelled at a checkpoint.
    let reply = inflight.join().expect("inflight client");
    assert_eq!(reply.status, 200, "admitted work is answered, not dropped");
    let status = reply.body.get("status").and_then(Value::as_str).expect("status");
    if status == "incomplete" {
        assert_eq!(
            reply.body.get("interrupt").and_then(Value::as_str),
            Some("cancelled")
        );
        // Soundness: the partial Σ is a subset of the reference.
        for key in sigma_keys(&reply.body) {
            assert!(reference.contains(&key), "partial Σ entry {key:?} is sound");
        }
    } else {
        assert_eq!(sigma_keys(&reply.body), reference);
    }

    // Draining server refuses new work and reports not-ready.
    assert_eq!(request(addr, "GET", "/readyz", None).status, 503);
    let refused = request(
        addr,
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(refused.status, 503);
    assert!(refused.retry_after.is_some());

    server.shutdown(Duration::from_secs(30));

    // Restart on the same checkpoint dir: the same request resumes (when
    // the drained run got far enough to snapshot) and the final Σ is
    // byte-identical to the uninterrupted reference either way.
    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind restarted");
    let reply = request(
        server.addr(),
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.body.get("status").and_then(Value::as_str),
        Some("complete")
    );
    assert_eq!(
        sigma_keys(&reply.body),
        reference,
        "post-restart result is byte-identical to an uninterrupted run"
    );
    server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn breaker_opens_after_consecutive_panics_and_recovers() {
    let (csv_text, onto_text) = dataset(120);
    let server = Server::bind(ServeConfig {
        breaker_threshold: 2,
        breaker_cooldown_ms: 200,
        // The inject_panic chaos hook only arms under an active plan; a
        // zero-probability site keeps the plan itself inert.
        faults: ofd_core::FaultPlan::parse("seed=1,delay%0").expect("plan"),
        ..ServeConfig::default()
    })
    .expect("bind");
    ofd_core::silence_injected_panics();
    let addr = server.addr();
    let body = json!({ "csv": &csv_text, "ontology": &onto_text, "inject_panic": true });

    // Two consecutive handler panics → 500, 500, then the circuit opens.
    assert_eq!(request(addr, "POST", "/v1/discover", Some(&body)).status, 500);
    assert_eq!(request(addr, "POST", "/v1/discover", Some(&body)).status, 500);
    let open = request(addr, "POST", "/v1/discover", Some(&body));
    assert_eq!(open.status, 503);
    assert_eq!(
        open.body.get("error").and_then(Value::as_str),
        Some("circuit_open")
    );
    assert!(open.retry_after.is_some());

    // Other endpoints are isolated: their breakers are untouched.
    let other = request(
        addr,
        "POST",
        "/v1/validate",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text, "ofds": ["A->B"] })),
    );
    assert_ne!(other.status, 503, "validate endpoint unaffected");

    // After the cooldown a healthy request is the half-open probe; its
    // success closes the circuit for good.
    std::thread::sleep(Duration::from_millis(300));
    let healthy = json!({ "csv": &csv_text, "ontology": &onto_text });
    let probe = request(addr, "POST", "/v1/discover", Some(&healthy));
    assert_eq!(probe.status, 200, "half-open probe admitted and succeeds");
    let after = request(addr, "POST", "/v1/discover", Some(&healthy));
    assert_eq!(after.status, 200, "circuit closed again");

    let summary = server.shutdown(Duration::from_secs(10));
    assert!(summary.breaker_open >= 1);
}

#[test]
fn client_disconnect_cancels_the_running_job() {
    let (csv_text, onto_text) = dataset(2500);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();

    // Send a long discover request, then hang up without reading.
    {
        let body_text =
            serde_json::to_string(&json!({ "csv": &csv_text, "ontology": &onto_text }))
                .expect("serialize");
        let mut stream = TcpStream::connect(addr).expect("connect");
        let head = format!(
            "POST /v1/discover HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n",
            body_text.len()
        );
        stream.write_all(head.as_bytes()).expect("head");
        stream.write_all(body_text.as_bytes()).expect("body");
        // Dropping the stream closes the socket → watcher sees EOF.
    }

    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let snap = server.obs().snapshot();
        if snap.counter_sum("serve.client_disconnect") >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "disconnect watcher must cancel the abandoned job"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    server.shutdown(Duration::from_secs(30));
}

#[test]
fn readyz_reports_state_queue_depth_and_breaker_summary() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let ready = request(server.addr(), "GET", "/readyz", None);
    assert_eq!(ready.status, 200);
    assert_eq!(ready.body.get("state").and_then(Value::as_str), Some("ok"));
    assert_eq!(ready.body.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert!(
        ready.body.get("queue_cap").and_then(Value::as_u64).unwrap_or(0) > 0,
        "capacity reported next to depth"
    );
    let breakers = ready.body.get("breakers").expect("breaker summary");
    for endpoint in ["discover", "clean", "validate"] {
        assert_eq!(
            breakers.get(endpoint).and_then(Value::as_str),
            Some("closed"),
            "fresh server: {endpoint} breaker closed"
        );
    }
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn dataset_catalog_registers_resolves_and_survives_restart() {
    let (csv_text, onto_text) = dataset(200);
    let ckpt = tmp_dir("catalog");
    let reference = reference_sigma(&csv_text, &onto_text);

    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind");
    let addr = server.addr();

    // Register once...
    let put = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text })),
    );
    assert_eq!(put.status, 200);
    assert_eq!(put.body.get("version").and_then(Value::as_u64), Some(1));

    // ...then run jobs by reference instead of re-shipping rows.
    let by_ref = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "clinical" })));
    assert_eq!(by_ref.status, 200);
    assert_eq!(
        by_ref.body.get("dataset").and_then(Value::as_str),
        Some("clinical@1"),
        "response echoes the resolved reference"
    );
    assert_eq!(
        sigma_keys(&by_ref.body),
        reference,
        "by-reference Σ is bit-identical to the inline run"
    );

    // Catalog API: list and describe (metadata only).
    let list = request(addr, "GET", "/v1/datasets", None);
    assert_eq!(list.status, 200);
    assert_eq!(
        list.body.get("datasets").and_then(Value::as_array).map(Vec::len),
        Some(1)
    );
    let meta = request(addr, "GET", "/v1/datasets/clinical", None);
    assert_eq!(meta.status, 200);
    assert_eq!(meta.body.get("n_rows").and_then(Value::as_u64), Some(200));
    assert!(meta.body.get("csv").is_none(), "describe never ships rows");

    // Re-registration appends a version; the pin still resolves v1.
    let put2 = request(
        addr,
        "PUT",
        "/v1/datasets/clinical",
        Some(&json!({ "csv": &csv_text })),
    );
    assert_eq!(put2.body.get("version").and_then(Value::as_u64), Some(2));

    // Unknown references and bad names are client errors.
    let unknown = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "nope" })));
    assert_eq!(unknown.status, 400);
    let bad = request(addr, "PUT", "/v1/datasets/has.dot", Some(&json!({ "csv": "A\n1\n" })));
    assert_eq!(bad.status, 400);

    server.shutdown(Duration::from_secs(10));

    // Full restart on the same root: the catalog is durable and the
    // pinned version still answers byte-identically.
    let server = Server::bind(ServeConfig {
        checkpoint_dir: Some(ckpt.clone()),
        ..ServeConfig::default()
    })
    .expect("bind restarted");
    let reply = request(
        server.addr(),
        "POST",
        "/v1/discover",
        Some(&json!({ "dataset": "clinical@1" })),
    );
    assert_eq!(reply.status, 200);
    assert_eq!(sigma_keys(&reply.body), reference, "catalog survives restart");
    server.shutdown(Duration::from_secs(10));
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn dataset_reference_on_a_catalogless_server_is_refused() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let reply = request(addr, "POST", "/v1/discover", Some(&json!({ "dataset": "x" })));
    assert_eq!(reply.status, 400, "no catalog dir → dataset refs are client errors");
    let put = request(addr, "PUT", "/v1/datasets/x", Some(&json!({ "csv": "A\n1\n" })));
    assert_eq!(put.status, 503, "catalog API reports the missing configuration");
    server.shutdown(Duration::from_secs(5));
}

#[test]
fn timeout_budget_yields_incomplete_not_error() {
    let (csv_text, onto_text) = dataset(2500);
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let reply = request(
        server.addr(),
        "POST",
        "/v1/discover",
        Some(&json!({ "csv": &csv_text, "ontology": &onto_text, "timeout_ms": 1 })),
    );
    assert_eq!(reply.status, 200, "a timed-out job is a sound partial, not a failure");
    assert_eq!(
        reply.body.get("status").and_then(Value::as_str),
        Some("incomplete")
    );
    assert_eq!(
        reply.body.get("interrupt").and_then(Value::as_str),
        Some("deadline_exceeded")
    );
    server.shutdown(Duration::from_secs(10));
}

#[test]
fn idle_shutdown_returns_promptly_and_frees_the_port() {
    let server = Server::bind(ServeConfig::default()).expect("bind");
    let addr = server.addr();
    let t = Instant::now();
    server.shutdown(Duration::from_secs(30));
    assert!(t.elapsed() < Duration::from_secs(1), "shutdown took {:?}", t.elapsed());
    std::net::TcpListener::bind(addr).expect("the port can be bound again");
}

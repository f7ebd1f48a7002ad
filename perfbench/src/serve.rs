//! `serve-mixed` and `fleet-mixed`: open-loop traffic at a fixed rate
//! against `fastofd serve` (or `fastofd serve --router`), half single-row
//! stream edits (appends, consequent-cell updates, retracts) to one
//! session, half `/v1/validate` reads of Σ by catalog reference, on
//! clinical 40K registered in the catalog.
//!
//! `serve-mixed` then climbs a rate ladder for `max_rps`; `fleet-mixed`
//! runs the same traffic through the router and no ladder: its `max_rps`
//! is the rate it sustained at the fixed rate, as is `serve-mixed`'s when
//! the fixed rate itself misses the ladder's rule.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ofd_core::{AttrId, IncrementalChecker, Obs, Ofd, Relation, SenseIndex, Validator};
use ofd_datagen::{clinical, csv, PresetConfig};
use ofd_ontology::{parse_ontology, write_ontology, Ontology};
use serde_json::{json, Value};

use crate::http::{get_json, request};
use crate::inputs::{permutation, permute, spec, CONTENT_SEED};
use crate::loadgen::{run_phase, Failure, Kind, Phase, FAILED_MS};
use crate::procs::{fresh_dir, group_hwm_kib, Server};
use crate::stats::{mean, median, percentile, Rng};
use crate::{ms, secs, timed, Args, Report, Scale, Tamper};

/// The fixed rate, and the ladder's first step up from it.
const RATE: f64 = 20.0;
const RUNG: Duration = Duration::from_secs(4);
const MAX_RATE: f64 = 640.0;
const TIMEOUT: Duration = Duration::from_secs(10);
const DATASET: &str = "clinical";

fn base_rows(scale: Scale) -> usize {
    match scale {
        Scale::Full => 40_000,
        Scale::Smoke => 2_000,
    }
}

/// The generated base dataset, as bytes and parsed.
struct Base {
    csv: String,
    onto_text: String,
    rel: Relation,
    sigma: Vec<Ofd>,
    specs: Vec<String>,
    /// The first OFD's consequent: the cell an append may give a novel value.
    append_attr: AttrId,
    /// The first consequent that is no OFD's antecedent: the cell a stream
    /// update changes.
    update_attr: AttrId,
}

/// A server set up for traffic: started, ready, dataset registered,
/// stream session open.
struct Setup {
    server: Server,
    ckpt: PathBuf,
    dataset: String,
    put_ms: f64,
    open_ms: f64,
}

fn generate(n: usize, seed: u64, report: &mut Report, obs: &Obs) -> Result<Base, String> {
    let ds = clinical(&PresetConfig {
        n_rows: n,
        seed: CONTENT_SEED,
        ..PresetConfig::default()
    });
    let rel = permute(&ds.relation, &permutation(n, seed))?;
    let csv_text = timed(obs, report, "csv.write_ms", || csv::write_csv(&rel));
    let onto_text = write_ontology(&ds.ontology);
    let specs: Vec<String> = ds
        .ofds
        .iter()
        .map(|o| spec(o, ds.relation.schema()))
        .collect();
    let update_attr = ds
        .ofds
        .iter()
        .map(|o| o.rhs)
        .find(|&a| ds.ofds.iter().all(|o| !o.lhs.contains(a)))
        .ok_or("Σ has no consequent-only attribute to update")?;
    Ok(Base {
        csv: csv_text,
        onto_text,
        rel,
        append_attr: ds.ofds[0].rhs,
        update_attr,
        sigma: ds.ofds,
        specs,
    })
}

fn post(addr: &str, path: &str, body: &Value) -> Result<Value, String> {
    let reply = request(addr, "POST", path, body.to_string().as_bytes(), TIMEOUT)?;
    if reply.status != 200 {
        return Err(format!(
            "POST {path}: status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    reply.json()
}

fn wait_ready(server: &Server, fleet: bool) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Ok(body) = get_json(&server.addr, "/readyz", Duration::from_secs(2)) {
            let ok = body.get("state").and_then(Value::as_str) == Some("ok");
            let workers_up = !fleet || body.get("live_workers").and_then(Value::as_u64) == Some(2);
            if ok && workers_up {
                return Ok(());
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    Err("server never reported /readyz ok".into())
}

/// Starts a server, waits for `/readyz`, registers the dataset and opens
/// the stream session with a no-op update (cell set to its own value).
fn setup(args: &Args, fleet: bool, base: &Base, k: usize) -> Result<Setup, String> {
    let ckpt = fresh_dir(args.work.join(format!("ckpt-{k}")))?;
    let mut argv: Vec<String> = vec!["serve".into(), "--addr".into(), "127.0.0.1:0".into()];
    if fleet {
        argv.push("--router".into());
    }
    argv.extend([
        "--workers".into(),
        "2".into(),
        "--checkpoint-dir".into(),
        ckpt.display().to_string(),
    ]);
    let server = Server::start(&args.fastofd, &argv, &args.work, Duration::from_secs(30))?;
    wait_ready(&server, fleet)?;
    let t = Instant::now();
    let put_body = json!({"csv": base.csv.as_str(), "ontology": base.onto_text.as_str()});
    let reply = request(
        &server.addr,
        "PUT",
        &format!("/v1/datasets/{DATASET}"),
        put_body.to_string().as_bytes(),
        Duration::from_secs(60),
    )?;
    let put_ms = ms(t.elapsed());
    if reply.status != 200 {
        return Err(format!(
            "catalog PUT: status {}: {}",
            reply.status,
            String::from_utf8_lossy(&reply.body)
        ));
    }
    let version = reply
        .json()?
        .get("version")
        .and_then(Value::as_u64)
        .ok_or("catalog PUT reply has no version")?;
    let dataset = format!("{DATASET}@{version}");
    let t = Instant::now();
    let attr = base.update_attr;
    let body = json!({
        "dataset": dataset.as_str(),
        "ofds": base.specs.clone(),
        "updates": [{"row": 0u64, "attr": base.rel.schema().name(attr), "value": base.rel.text(0, attr)}],
    });
    let reply = post(&server.addr, "/v1/append", &body)?;
    let open_ms = ms(t.elapsed());
    if reply.get("applied").and_then(Value::as_u64) != Some(1) {
        return Err(format!("session open applied no edit: {reply}"));
    }
    Ok(Setup {
        server,
        ckpt,
        dataset,
        put_ms,
        open_ms,
    })
}

/// One applied stream edit, replayable in-process.
#[derive(Clone)]
enum Edit {
    Append(Vec<String>),
    Update {
        row: usize,
        attr: AttrId,
        value: String,
    },
    Retract(usize),
}

/// The write lane's view of the session: the edits the server applied,
/// in order, and what its last reply said.
struct Writer<'a> {
    base: &'a Base,
    addr: String,
    dataset: String,
    rng: Rng,
    /// Edits drawn so far, which names each novel value.
    drawn: usize,
    n_rows: usize,
    applied: Vec<Edit>,
    /// Per-OFD violating classes in the last reply.
    last_violations: Vec<u64>,
    /// A request whose effect is unknown (transport error after sending).
    uncertain: bool,
}

impl Writer<'_> {
    /// The edit mix of `incremental_probe` (`BENCH_incremental.json`), so
    /// the two streams are comparable: 40% appends of a base row, a third
    /// of them with a novel consequent; 30% updates of the update
    /// attribute, a quarter of them to a novel value, the rest to a value
    /// from the base; 30% retracts.
    fn next_edit(&mut self) -> Edit {
        let base = self.base;
        let n = base.rel.n_rows();
        let i = self.drawn;
        self.drawn += 1;
        match self.rng.below(10) {
            0..=3 => {
                let mut cells: Vec<String> = base
                    .rel
                    .row_texts(self.rng.below(n))
                    .into_iter()
                    .map(str::to_owned)
                    .collect();
                if self.rng.below(3) == 0 {
                    cells[base.append_attr.index()] = format!("novel-{i}");
                }
                Edit::Append(cells)
            }
            4..=6 => {
                let row = self.rng.below(self.n_rows);
                let value = if self.rng.below(4) == 0 {
                    format!("novel-{i}")
                } else {
                    base.rel
                        .text(self.rng.below(n), base.update_attr)
                        .to_owned()
                };
                Edit::Update {
                    row,
                    attr: base.update_attr,
                    value,
                }
            }
            _ => Edit::Retract(self.rng.below(self.n_rows)),
        }
    }

    fn send(&mut self) -> Result<(), Failure> {
        let edit = self.next_edit();
        let schema = self.base.rel.schema();
        let mut body = json!({"dataset": self.dataset.as_str(), "ofds": self.base.specs.clone()});
        let (path, field, n_after) = match &edit {
            Edit::Append(cells) => (
                "/v1/append",
                ("rows".to_string(), json!([cells.clone()])),
                self.n_rows + 1,
            ),
            Edit::Update { row, attr, value } => (
                "/v1/append",
                (
                    "updates".to_string(),
                    json!([{"row": *row, "attr": schema.name(*attr), "value": value.as_str()}]),
                ),
                self.n_rows,
            ),
            Edit::Retract(row) => (
                "/v1/retract",
                ("rows".to_string(), json!([*row])),
                self.n_rows - 1,
            ),
        };
        if let Value::Object(fields) = &mut body {
            fields.push(field);
        }
        let reply = match request(
            &self.addr,
            "POST",
            path,
            body.to_string().as_bytes(),
            TIMEOUT,
        ) {
            Ok(r) => r,
            Err(e) => {
                self.uncertain = true;
                return Err(Failure::Refused(format!("{path}: {e}")));
            }
        };
        if reply.status != 200 {
            return Err(Failure::Refused(format!("{path}: status {}", reply.status)));
        }
        let v = reply.json().map_err(Failure::Wrong)?;
        let complete = v.get("status").and_then(Value::as_str) == Some("complete");
        let applied = v.get("applied").and_then(Value::as_u64) == Some(1);
        let rows = v.get("n_rows").and_then(Value::as_u64);
        if !(complete && applied && rows == Some(n_after as u64)) {
            self.uncertain = true;
            return Err(Failure::Wrong(format!(
                "{path}: reply {v} (expected {n_after} rows)"
            )));
        }
        self.n_rows = n_after;
        self.applied.push(edit);
        self.last_violations = v
            .get("sigma")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .map(|o| {
                        o.get("violating_classes")
                            .and_then(Value::as_u64)
                            .unwrap_or(u64::MAX)
                    })
                    .collect()
            })
            .unwrap_or_default();
        Ok(())
    }
}

/// Per-OFD `(satisfied, support bits, violating classes)`.
type Verdicts = Vec<(bool, u64, u64)>;

fn reference_verdicts(base: &Base, rel: &Relation, onto: &Ontology) -> Verdicts {
    let validator = Validator::new(rel, onto);
    base.sigma
        .iter()
        .map(|o| {
            let v = validator.check(o);
            (
                v.satisfied(),
                v.support().to_bits(),
                v.violation_count() as u64,
            )
        })
        .collect()
}

fn reply_verdicts(v: &Value) -> Option<Verdicts> {
    v.get("results")?
        .as_array()?
        .iter()
        .map(|r| {
            Some((
                r.get("satisfied")?.as_bool()?,
                r.get("support_bits")?.as_u64()?,
                r.get("violating_classes")?.as_u64()?,
            ))
        })
        .collect()
}

/// Applies `edits` to a copy of the base, as the session does.
fn replay(base: &Relation, edits: &[Edit]) -> Result<Relation, String> {
    let mut rel = base.clone();
    for e in edits {
        match e {
            Edit::Append(cells) => {
                rel.push_row(cells.iter().map(String::as_str))
                    .map_err(|e| e.to_string())?;
            }
            Edit::Update { row, attr, value } => {
                rel.set(*row, *attr, value).map_err(|e| e.to_string())?;
            }
            Edit::Retract(row) => {
                rel.swap_remove_row(*row).map_err(|e| e.to_string())?;
            }
        }
    }
    Ok(rel)
}

pub fn run(args: &Args, fleet: bool) -> Result<Report, String> {
    let mut report = Report::default();
    let obs = Obs::enabled();
    let n = base_rows(args.scale);

    // Set-up, repeated: generate → files/bodies → server → /readyz →
    // catalog PUT → session open. The last one carries the traffic.
    let mut setups = Vec::new();
    let mut kept: Option<(Base, Setup)> = None;
    while crate::more_setups(&setups) {
        let k = setups.len();
        if let Some((_, mut old)) = kept.take() {
            old.server.stop();
        }
        let t = Instant::now();
        let base = generate(n, args.seed, &mut report, &obs)?;
        let s = setup(args, fleet, &base, k)?;
        setups.push(secs(t.elapsed()));
        kept = Some((base, s));
    }
    let (base, mut setup) = kept.expect("set-up ran");
    report.set("setup_s", median(&setups).expect("set-up ran"));
    report.set("catalog.put_ms", setup.put_ms);
    report.set("stream.open_ms", setup.open_ms);
    report.set("csv.mib", base.csv.len() as f64 / (1024.0 * 1024.0));

    // What every validate reply must say: Σ over the catalog version's
    // own bytes, checked in-process.
    let rel = csv::read_csv_bytes(base.csv.as_bytes()).map_err(|e| e.to_string())?;
    let onto = parse_ontology(&base.onto_text).map_err(|e| e.to_string())?;
    let expected = reference_verdicts(&base, &rel, &onto);

    let addr = setup.server.addr.clone();
    let open_edit = {
        let attr = base.update_attr;
        Edit::Update {
            row: 0,
            attr,
            value: base.rel.text(0, attr).to_owned(),
        }
    };
    let mut writer = Writer {
        base: &base,
        addr: addr.clone(),
        dataset: setup.dataset.clone(),
        rng: Rng::new(args.seed ^ 0xED17),
        drawn: 0,
        n_rows: n,
        applied: vec![open_edit],
        last_violations: Vec::new(),
        uncertain: false,
    };
    let validate_body =
        json!({"dataset": setup.dataset.as_str(), "ofds": base.specs.clone()}).to_string();
    let mut tamper = args.tamper == Tamper::ValidateReply;
    let mut reads_ok = 0usize;
    let mut read = || -> Result<(), Failure> {
        let reply = request(
            &addr,
            "POST",
            "/v1/validate",
            validate_body.as_bytes(),
            TIMEOUT,
        )
        .map_err(|e| Failure::Refused(format!("/v1/validate: {e}")))?;
        if reply.status != 200 {
            return Err(Failure::Refused(format!(
                "/v1/validate: status {}",
                reply.status
            )));
        }
        let v = reply.json().map_err(Failure::Wrong)?;
        let mut got = reply_verdicts(&v)
            .ok_or_else(|| Failure::Wrong(format!("malformed validate reply {v}")))?;
        if std::mem::take(&mut tamper) {
            if let Some(first) = got.first_mut() {
                first.2 += 1;
            }
        }
        if got != expected || v.get("status").and_then(Value::as_str) != Some("complete") {
            return Err(Failure::Wrong(format!(
                "validate reply {got:?} differs from the in-process Validator {expected:?}"
            )));
        }
        reads_ok += 1;
        Ok(())
    };

    // The fixed-rate phase, then (serve-mixed) the ladder.
    let length = Duration::from_secs_f64(args.seconds);
    let fixed = run_phase(RATE, length, &mut || writer.send(), &mut read);
    let mut wrong = fixed.wrong();
    let max_rps = if fleet || !fixed.sustained() {
        // No ladder through the router, nor below the fixed rate: the rate
        // sustained at the fixed rate, which falls when it cannot keep up.
        fixed.delivered_rps()
    } else {
        let mut max_rps = RATE;
        let mut rate = RATE;
        let mut ladder = Vec::new();
        while rate < MAX_RATE {
            rate *= 2.0;
            let rung = run_phase(rate, RUNG, &mut || writer.send(), &mut read);
            wrong += rung.wrong();
            let ok = rung.sustained();
            ladder.push((
                rate,
                ok,
                percentile(&rung.latencies(None), 95.0).unwrap_or(FAILED_MS),
            ));
            if !ok {
                break;
            }
            max_rps = rate;
        }
        eprintln!("{}: ladder {ladder:?} -> max_rps {max_rps}", args.workload);
        max_rps
    };

    report.attempted = fixed.outcomes.len() as u64;
    report.failed = (fixed.failed() + (wrong - fixed.wrong())) as u64;
    report.check(wrong == 0, || format!("{wrong} replies had wrong answers"));

    // The session's final state against a from-scratch Validator over the
    // base plus every applied edit.
    let final_rel = replay(&rel, &writer.applied)?;
    let final_expected: Vec<u64> = reference_verdicts(&base, &final_rel, &onto)
        .iter()
        .map(|v| v.2)
        .collect();
    let state_ok = !writer.uncertain
        && writer.last_violations == final_expected
        && writer.n_rows == final_rel.n_rows();
    report.check(state_ok, || {
        format!(
            "session ended with violations {:?} over {} rows; from scratch: {final_expected:?} over {} rows{}",
            writer.last_violations,
            writer.n_rows,
            final_rel.n_rows(),
            if writer.uncertain { " (an edit's outcome is unknown)" } else { "" }
        )
    });
    if !state_ok {
        report.failed += 1;
    }
    eprintln!(
        "{}: {} edits applied, final violations {:?}, {} validate replies checked",
        args.workload,
        writer.applied.len(),
        writer.last_violations,
        reads_ok
    );

    let all = fixed.latencies(None);
    let writes = fixed.latencies(Some(Kind::Write));
    let reads = fixed.latencies(Some(Kind::Read));
    let p = |v: &[f64], q: f64| percentile(v, q).unwrap_or(FAILED_MS);
    if args.trace {
        trace(
            args,
            &mut report,
            &obs,
            &mut setup,
            &base,
            &rel,
            &onto,
            &writer.applied,
            &final_expected,
            &fixed,
            fleet,
        )?;
    } else {
        report.set("wall_s", p(&all, 50.0) / 1000.0);
        report.set("append_p50_ms", p(&writes, 50.0));
        report.set("append_p95_ms", p(&writes, 95.0));
        report.set("validate_p50_ms", p(&reads, 50.0));
        report.set("validate_p95_ms", p(&reads, 95.0));
        report.set("max_rps", max_rps);
        report.set("peak_rss_mib", group_hwm_kib(&setup.server) as f64 / 1024.0);
        let correct = fixed.outcomes.iter().filter(|o| o.ok).count();
        let answered = fixed.outcomes.iter().filter(|o| o.ok || o.wrong).count();
        report.set(
            "precision",
            if answered == 0 {
                0.0
            } else {
                correct as f64 / answered as f64
            },
        );
        report.set(
            "recall",
            correct as f64 / fixed.outcomes.len().max(1) as f64,
        );
    }
    eprintln!(
        "{}: {} requests at {RATE}/s, append p50 {:.1} ms p95 {:.1} ms, validate p50 {:.1} ms p95 {:.1} ms, lag p95 {:.1} ms",
        args.workload,
        fixed.outcomes.len(),
        p(&writes, 50.0),
        p(&writes, 95.0),
        p(&reads, 50.0),
        p(&reads, 95.0),
        fixed.lag_p95_ms()
    );
    setup.server.stop();
    crate::finish_shares(&mut report);
    Ok(report)
}

/// Every `/metrics` document of the deployment: the server, or the router
/// and each worker.
fn scrape(addr: &str, fleet: bool) -> Result<Vec<(Value, usize)>, String> {
    let mut addrs = vec![addr.to_string()];
    if fleet {
        let ready = get_json(addr, "/readyz", TIMEOUT)?;
        for w in ready
            .get("workers")
            .and_then(Value::as_array)
            .ok_or("router /readyz lists no workers")?
        {
            addrs.push(
                w.get("addr")
                    .and_then(Value::as_str)
                    .ok_or("worker without address")?
                    .to_string(),
            );
        }
    }
    addrs
        .iter()
        .map(|a| {
            let reply = request(a, "GET", "/metrics", b"", TIMEOUT)?;
            Ok((reply.json()?, reply.body.len()))
        })
        .collect()
}

fn span_ms(docs: &[(Value, usize)], names: &[&str]) -> Vec<f64> {
    docs.iter()
        .filter_map(|(d, _)| d.get("spans").and_then(Value::as_array))
        .flatten()
        .filter(|s| {
            s.get("name")
                .and_then(Value::as_str)
                .is_some_and(|n| names.contains(&n))
        })
        .filter_map(|s| s.get("elapsed_us").and_then(Value::as_u64))
        .map(|us| us as f64 / 1000.0)
        .collect()
}

fn counter(docs: &[(Value, usize)], name: &str) -> f64 {
    docs.iter()
        .filter_map(|(d, _)| {
            d.get("counters")
                .and_then(|c| c.get(name))
                .and_then(Value::as_u64)
        })
        .sum::<u64>() as f64
}

/// Size of the newest session snapshot under the checkpoint root.
fn newest_snapshot_kib(ckpt: &Path) -> f64 {
    let mut newest: Option<(std::time::SystemTime, u64)> = None;
    let dirs = std::fs::read_dir(ckpt).into_iter().flatten().flatten();
    for dir in dirs.filter(|d| d.file_name().to_string_lossy().starts_with("stream-")) {
        for f in std::fs::read_dir(dir.path())
            .into_iter()
            .flatten()
            .flatten()
        {
            if let Ok(meta) = f.metadata() {
                let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
                if newest.is_none_or(|(t, _)| modified >= t) {
                    newest = Some((modified, meta.len()));
                }
            }
        }
    }
    newest.map_or(0.0, |(_, len)| len as f64 / 1024.0)
}

/// The traced run's layer metrics for a serving workload.
#[allow(clippy::too_many_arguments)]
fn trace(
    args: &Args,
    report: &mut Report,
    obs: &Obs,
    setup: &mut Setup,
    base: &Base,
    rel: &Relation,
    onto: &Ontology,
    edits: &[Edit],
    final_violations: &[u64],
    fixed: &Phase,
    fleet: bool,
) -> Result<(), String> {
    let addr = setup.server.addr.clone();
    let docs = scrape(&addr, fleet)?;
    let append_ms = span_ms(&docs, &["serve.job.append", "serve.job.retract"]);
    let validate_ms = span_ms(&docs, &["serve.job.validate"]);
    let all_ms: Vec<f64> = append_ms.iter().chain(&validate_ms).copied().collect();
    report.set("server.execute_ms.append", mean(&append_ms).unwrap_or(0.0));
    report.set(
        "server.execute_ms.validate",
        mean(&validate_ms).unwrap_or(0.0),
    );
    let client_p50 = percentile(&fixed.latencies(None), 50.0).unwrap_or(FAILED_MS);
    report.set(
        "server.overhead_ms",
        client_p50 - mean(&all_ms).unwrap_or(0.0),
    );
    report.set("server.admitted", counter(&docs, "serve.admitted"));
    report.set("server.shed", counter(&docs, "serve.shed"));
    report.set("router.retries", counter(&docs, "serve.router.retried"));
    report.set(
        "obs.spans_retained",
        docs.iter()
            .map(|(d, _)| d.get("spans").and_then(Value::as_array).map_or(0, Vec::len))
            .sum::<usize>() as f64,
    );
    report.set(
        "obs.metrics_kib",
        docs.iter().map(|(_, len)| *len).sum::<usize>() as f64 / 1024.0,
    );
    // The server's registry is always on; there is no untraced server to
    // compare against, so its cost shows only as the two figures above.
    report.set("obs.overhead_pct", 0.0);
    report.set("stream.snapshot_kib", newest_snapshot_kib(&setup.ckpt));
    report.set("loadgen.lag_p95_ms", fixed.lag_p95_ms());

    if fleet {
        // The router hop: the same validate sent alternately through the
        // router and straight to a worker, closed loop.
        let ready = get_json(&addr, "/readyz", TIMEOUT)?;
        let worker = ready
            .get("workers")
            .and_then(Value::as_array)
            .and_then(|w| w.first())
            .and_then(|w| w.get("addr"))
            .and_then(Value::as_str)
            .ok_or("no worker address for the hop probe")?
            .to_owned();
        let body =
            json!({"dataset": setup.dataset.as_str(), "ofds": base.specs.clone()}).to_string();
        let (mut via, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..15 {
            for (target, out) in [(&addr, &mut via), (&worker, &mut direct)] {
                let t = Instant::now();
                let r = request(target, "POST", "/v1/validate", body.as_bytes(), TIMEOUT)?;
                if r.status != 200 {
                    return Err(format!("hop probe: status {}", r.status));
                }
                out.push(ms(t.elapsed()));
            }
        }
        report.set(
            "router.hop_ms",
            median(&via).unwrap_or(0.0) - median(&direct).unwrap_or(0.0),
        );
    }
    setup.server.stop();

    // In-process: the catalog PUT's parse, the index, a validate job's
    // checks, and the edit stream replayed through the incremental engine.
    timed(obs, report, "csv.read_ms", || {
        csv::read_csv_bytes(base.csv.as_bytes()).map(drop)
    })
    .map_err(|e| e.to_string())?;
    timed(obs, report, "ontology.parse_ms", || {
        parse_ontology(&base.onto_text).map(drop)
    })
    .map_err(|e| e.to_string())?;
    let mut builds = Vec::new();
    let mut checks = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        std::hint::black_box(SenseIndex::synonym(rel, onto));
        builds.push(ms(t.elapsed()));
        let t = Instant::now();
        let _s = obs.span("perfbench.validate.check");
        let validator = Validator::new(rel, onto);
        std::hint::black_box(
            base.sigma
                .iter()
                .map(|o| validator.check(o).violation_count())
                .sum::<usize>(),
        );
        checks.push(ms(t.elapsed()));
    }
    report.set(
        "sense_index.build_ms",
        median(&builds).expect("five builds"),
    );
    report.set("validate.check_ms", median(&checks).expect("five checks"));

    // Each edit is timed as `incremental_probe` times one: the relation
    // mutation, the sense-index extension and the checker's maintenance.
    let _s = obs.span("perfbench.incremental.replay");
    let mut live = rel.clone();
    let mut index = SenseIndex::synonym(&live, onto);
    let mut checker = IncrementalChecker::new(&live, &index, &base.sigma);
    let mut apply_us = Vec::with_capacity(edits.len());
    let mut reverified = 0usize;
    for e in edits {
        let n = match e {
            Edit::Append(cells) => {
                let t = Instant::now();
                let row = live
                    .push_row(cells.iter().map(String::as_str))
                    .map_err(|e| e.to_string())?;
                index.extend_synonym(&live, onto);
                let n = checker
                    .apply_insert(&live, &index, row)
                    .map_err(|e| e.to_string())?;
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                n
            }
            Edit::Update { row, attr, value } => {
                let t = Instant::now();
                let old = live.value(*row, *attr);
                let new = live.set(*row, *attr, value).map_err(|e| e.to_string())?;
                index.extend_synonym(&live, onto);
                let n = checker
                    .apply_update(&index, *row, *attr, old, new)
                    .map_err(|e| e.to_string())?;
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                n
            }
            Edit::Retract(row) => {
                let t = Instant::now();
                let out = checker
                    .apply_retract(&mut live, &index, *row)
                    .map_err(|e| e.to_string())?;
                apply_us.push(t.elapsed().as_secs_f64() * 1e6);
                out.reverified
            }
        };
        reverified += n;
    }
    drop(_s);
    report.set("incremental.apply_us", median(&apply_us).unwrap_or(0.0));
    report.set("incremental.reverified_classes", reverified as f64);
    let incremental: Vec<u64> = checker
        .per_ofd_violations()
        .iter()
        .map(|&v| v as u64)
        .collect();
    report.check(incremental == final_violations, || {
        format!("in-process incremental replay {incremental:?} differs from scratch {final_violations:?}")
    });
    crate::write_trace(args, obs);
    Ok(())
}

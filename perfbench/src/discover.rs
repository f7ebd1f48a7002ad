//! `discover-deep`: `fastofd discover` at full lattice depth on the
//! clinical preset, 100K rows × 15 attributes (a 17 MB CSV).
//!
//! The one workload where CSV ingest, the sample oracle, the per-level
//! precheck/produce/verify and the partition cache do the work.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use ofd_core::{AttrSet, Obs, Ofd, Relation, SenseIndex, Validator};
use ofd_datagen::{clinical, csv, PresetConfig};
use ofd_discovery::{DiscoveryOptions, FastOfd};
use ofd_ontology::{parse_ontology, write_ontology, Ontology};

use crate::inputs::{parse_specs, permutation, permute, spec, CONTENT_SEED};
use crate::procs::{run_cli, RunOutcome};
use crate::stats::{median, Rng};
use crate::{ms, secs, timed, Args, Report, Scale, Tamper};

/// Σ of the full-scale input, computed once with `--sample-rounds 0` (no
/// sample oracle: the plain lattice, about 400 s) and pinned. Row order
/// does not change Σ, so it holds for every seed. `(rows, |Σ|, digest)`;
/// see [`sigma_digest`].
const PINNED: (usize, usize, u64) = (100_000, 1385, 0xac40_8c53_e904_98b7);

/// Σ members whose validity and minimality are re-checked per run, and
/// neighbouring dependencies probed for soundness and completeness.
const SAMPLED_MEMBERS: usize = 12;
const PROBES: usize = 12;

fn rows(scale: Scale) -> usize {
    match scale {
        Scale::Full => 100_000,
        Scale::Smoke => 3_000,
    }
}

/// One CLI run and the Σ text it wrote.
struct Iteration {
    out: RunOutcome,
    sigma: String,
}

pub fn run(args: &Args) -> Result<Report, String> {
    let n = rows(args.scale);
    let mut report = Report::default();
    let data = args.work.join("data.csv");
    let onto_path = args.work.join("ontology.txt");

    // Set-up: generate the input bytes and write the files, repeated so
    // the reported set-up time is a median.
    let mut setups = Vec::new();
    let mut write_ms = 0.0;
    let mut csv_bytes = 0usize;
    let mut planted = Vec::new();
    while crate::more_setups(&setups) {
        let t = Instant::now();
        let ds = clinical(&PresetConfig {
            n_rows: n,
            seed: CONTENT_SEED,
            ..PresetConfig::default()
        });
        let rel = permute(&ds.relation, &permutation(n, args.seed))?;
        let w = Instant::now();
        let text = csv::write_csv(&rel);
        write_ms = ms(w.elapsed());
        csv_bytes = text.len();
        write_file(&data, text.as_bytes())?;
        write_file(&onto_path, write_ontology(&ds.ontology).as_bytes())?;
        setups.push(secs(t.elapsed()));
        // The CSV keeps the schema's attribute order, so the generator's
        // attribute ids are valid on the relation read back from it.
        planted = ds.ofds;
    }
    report.set("setup_s", median(&setups).expect("set-up ran"));
    report.set("csv.write_ms", write_ms);
    report.set("csv.mib", csv_bytes as f64 / (1024.0 * 1024.0));

    let cli_args: Vec<String> = [
        "discover",
        "--data",
        "data.csv",
        "--ontology",
        "ontology.txt",
        "--threads",
        "2",
        "--out",
        "sigma.txt",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let run_once = || -> Result<Iteration, String> {
        let _ = std::fs::remove_file(args.work.join("sigma.txt"));
        let out = run_cli(
            &args.fastofd,
            &cli_args,
            &args.work,
            Duration::from_secs(150),
        )?;
        let mut sigma = std::fs::read_to_string(args.work.join("sigma.txt")).unwrap_or_default();
        if args.tamper == Tamper::DropOfd {
            sigma = drop_first_ofd(&sigma);
        }
        Ok(Iteration { out, sigma })
    };

    // Timed runs (untraced), or the single untraced run a traced run
    // compares its in-process pipeline against.
    let iterations = crate::batch_runs(args, run_once)?;

    // In-process inputs for the checks (and the traced pipeline).
    let bytes = std::fs::read(&data).map_err(|e| format!("{}: {e}", data.display()))?;
    let rel = csv::read_csv_bytes(&bytes).map_err(|e| format!("data.csv: {e}"))?;
    let onto_text = std::fs::read_to_string(&onto_path).map_err(|e| e.to_string())?;
    let onto = parse_ontology(&onto_text).map_err(|e| format!("ontology.txt: {e}"))?;

    // The Σ every run must print, so runs also agree with each other:
    // pinned at full scale, recomputed without the sample oracle at smoke
    // scale.
    let reference = if n == PINNED.0 {
        (PINNED.1, PINNED.2)
    } else {
        let out = FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().sample_rounds(0))
            .run();
        (
            out.len(),
            sigma_digest(&sigma_text(rel.schema(), out.ofds())),
        )
    };
    let first = sigma_digest(&iterations[0].sigma);
    for (i, it) in iterations.iter().enumerate() {
        let digest = sigma_digest(&it.sigma);
        let count = sigma_lines(&it.sigma).len();
        report.attempted += 1;
        let mut ok = it.out.code == Some(0);
        report.check(ok, || {
            format!("discover run {i} exited with {:?}", it.out.code)
        });
        let (ref_len, ref_digest) = reference;
        let same = digest == ref_digest && count == ref_len;
        report.check(same, || {
            format!("discover run {i}: Σ has {count} OFDs, digest {digest:016x}; reference has {ref_len}, {ref_digest:016x}")
        });
        ok &= same;
        if !ok {
            report.failed += 1;
        }
    }
    eprintln!(
        "discover-deep: |Σ| = {}, digest {first:016x}",
        sigma_lines(&iterations[0].sigma).len()
    );

    let sigma = parse_specs(&iterations[0].sigma, &rel)?;
    let quality = sampled_checks(&rel, &onto, &sigma, &planted, args.seed);
    if quality.wrong > 0 {
        report.fail(format!("{} sampled Σ checks failed", quality.wrong));
        report.failed = report.attempted;
    }

    if args.trace {
        trace(args, &mut report, &iterations[0], reference, first)?;
    } else {
        crate::batch_metrics(
            &mut report,
            &args.workload,
            iterations.iter().map(|it| &it.out),
        );
        report.set("precision", quality.precision());
        report.set("recall", quality.recall());
    }
    crate::finish_shares(&mut report);
    Ok(report)
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `A,B->C` lines of a Σ file, comments and blanks dropped.
fn sigma_lines(text: &str) -> Vec<&str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// FNV-1a over the sorted Σ lines: independent of output order and of
/// the program's own hash functions.
fn sigma_digest(text: &str) -> u64 {
    let mut lines = sigma_lines(text);
    lines.sort_unstable();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for line in lines {
        for b in line.bytes().chain(std::iter::once(b'\n')) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Σ in the CLI's `--out` format.
fn sigma_text<'a>(schema: &ofd_core::Schema, ofds: impl Iterator<Item = &'a Ofd>) -> String {
    ofds.map(|o| spec(o, schema) + "\n").collect()
}

fn drop_first_ofd(text: &str) -> String {
    let mut dropped = false;
    text.lines()
        .filter(|l| {
            let keep = dropped || l.trim().is_empty() || l.starts_with('#');
            if !keep {
                dropped = true;
            }
            keep
        })
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Outcome of the sampled checks on Σ.
#[derive(Default)]
struct Quality {
    /// Claims that a dependency holds (sampled members, implied probes).
    claims: usize,
    claims_true: usize,
    /// Dependencies that hold (planted OFDs, holding probes).
    truths: usize,
    truths_found: usize,
    wrong: usize,
}

impl Quality {
    fn precision(&self) -> f64 {
        if self.claims == 0 {
            1.0
        } else {
            self.claims_true as f64 / self.claims as f64
        }
    }
    fn recall(&self) -> f64 {
        if self.truths == 0 {
            1.0
        } else {
            self.truths_found as f64 / self.truths as f64
        }
    }
}

fn implied(sigma: &[Ofd], lhs: AttrSet, rhs: ofd_core::AttrId) -> bool {
    sigma.iter().any(|o| o.rhs == rhs && o.lhs.is_subset(lhs))
}

/// Checks Σ against the data without trusting the program:
/// * structural minimality over all of Σ (no member's antecedent contains
///   another's with the same consequent);
/// * a seeded sample of members holds, and no antecedent with one
///   attribute dropped does (semantic minimality);
/// * every planted OFD is implied by some member (augmentation);
/// * seeded neighbours of members (one antecedent attribute swapped) hold
///   exactly when Σ implies them.
fn sampled_checks(
    rel: &Relation,
    onto: &Ontology,
    sigma: &[Ofd],
    planted: &[Ofd],
    seed: u64,
) -> Quality {
    let mut q = Quality::default();
    let mut by_rhs: BTreeMap<usize, Vec<AttrSet>> = BTreeMap::new();
    for o in sigma {
        by_rhs.entry(o.rhs.index()).or_default().push(o.lhs);
    }
    for lhss in by_rhs.values() {
        for (i, a) in lhss.iter().enumerate() {
            if lhss
                .iter()
                .enumerate()
                .any(|(j, b)| i != j && b.is_subset(*a))
            {
                q.wrong += 1;
                eprintln!(
                    "Σ is not minimal: an antecedent contains another with the same consequent"
                );
            }
        }
    }
    if sigma.is_empty() {
        q.wrong += 1;
        return q;
    }
    let validator = Validator::new(rel, onto);
    let holds = |lhs: AttrSet, rhs| validator.check(&Ofd::synonym(lhs, rhs)).satisfied();
    let mut rng = Rng::new(seed ^ 0x51_6D_A7);
    for _ in 0..SAMPLED_MEMBERS.min(sigma.len()) {
        let o = sigma[rng.below(sigma.len())];
        q.claims += 1;
        let ok = holds(o.lhs, o.rhs) && o.lhs.iter().all(|b| !holds(o.lhs.without(b), o.rhs));
        if ok {
            q.claims_true += 1;
        } else {
            q.wrong += 1;
            eprintln!(
                "Σ member {:?} -> {:?} does not hold minimally",
                o.lhs, o.rhs
            );
        }
    }
    for p in planted {
        q.truths += 1;
        if implied(sigma, p.lhs, p.rhs) {
            q.truths_found += 1;
        } else {
            q.wrong += 1;
            eprintln!("planted OFD {:?} -> {:?} is not implied by Σ", p.lhs, p.rhs);
        }
    }
    let n_attrs = rel.schema().len();
    for _ in 0..PROBES {
        let o = sigma[rng.below(sigma.len())];
        let add = ofd_core::AttrId::from_index(rng.below(n_attrs));
        if o.lhs.contains(add) || add == o.rhs {
            continue;
        }
        let mut lhs = o.lhs.with(add);
        if !o.lhs.is_empty() {
            let members: Vec<_> = o.lhs.iter().collect();
            lhs = lhs.without(members[rng.below(members.len())]);
        }
        let truth = holds(lhs, o.rhs);
        let claim = implied(sigma, lhs, o.rhs);
        if claim {
            q.claims += 1;
            q.claims_true += usize::from(truth);
        }
        if truth {
            q.truths += 1;
            q.truths_found += usize::from(claim);
        }
        if truth != claim {
            q.wrong += 1;
            eprintln!(
                "probe {lhs:?} -> {:?}: holds = {truth}, Σ implies = {claim}",
                o.rhs
            );
        }
    }
    q
}

/// The traced run: the CLI's pipeline in-process, each layer timed from
/// outside, the lattice's own spans read from an enabled `Obs`.
fn trace(
    args: &Args,
    report: &mut Report,
    untraced: &Iteration,
    reference: (usize, u64),
    cli_digest: u64,
) -> Result<(), String> {
    let obs = Obs::enabled();
    let t_wall = Instant::now();
    let rel = timed(&obs, report, "csv.read_ms", || {
        let bytes = std::fs::read(args.work.join("data.csv")).map_err(|e| e.to_string())?;
        csv::read_csv_bytes(&bytes).map_err(|e| e.to_string())
    })?;
    let onto = timed(&obs, report, "ontology.parse_ms", || {
        let text =
            std::fs::read_to_string(args.work.join("ontology.txt")).map_err(|e| e.to_string())?;
        parse_ontology(&text).map_err(|e| e.to_string())
    })?;
    let out = {
        let _s = obs.span("perfbench.discover");
        FastOfd::new(&rel, &onto)
            .options(DiscoveryOptions::new().threads(2).obs(obs.clone()))
            .run()
    };
    let text = sigma_text(rel.schema(), out.ofds());
    std::fs::write(args.work.join("sigma-traced.txt"), &text).map_err(|e| e.to_string())?;
    let wall_ms = ms(t_wall.elapsed());

    report.attempted += 1;
    let digest = sigma_digest(&text);
    let mut ok = out.complete && digest == cli_digest;
    report.check(ok, || {
        format!("traced Σ digest {digest:016x} differs from the CLI's {cli_digest:016x}")
    });
    let (len, ref_digest) = reference;
    let same = out.len() == len && digest == ref_digest;
    report.check(same, || {
        format!("traced Σ digest {digest:016x} differs from the reference {ref_digest:016x}")
    });
    ok &= same;
    if !ok {
        report.failed += 1;
    }

    let snap = obs.snapshot();
    let span_ms = |pred: &dyn Fn(&str) -> bool| -> Vec<f64> {
        snap.spans
            .iter()
            .filter(|s| pred(&s.name))
            .map(|s| s.elapsed_us as f64 / 1000.0)
            .collect()
    };
    let sample_ms: f64 = span_ms(&|n| n == "fastofd.sample").iter().sum();
    let levels = span_ms(&|n| n.starts_with("fastofd.level."));
    let lattice_ms: f64 = levels.iter().sum();
    let next_ms: f64 = span_ms(&|n| n == "fastofd.next_level").iter().sum();
    let verify_ms: f64 = span_ms(&|n| n == "fastofd.verify").iter().sum();
    let candidates: usize = out.stats.levels.iter().map(|l| l.candidates).sum();
    let verified: usize = out.stats.levels.iter().map(|l| l.verified).sum();
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;

    report.set("sample.ms", sample_ms);
    report.set(
        "sample.evidence_pairs",
        counter("discovery.sample.evidence_pairs"),
    );
    report.set(
        "sample.pruned_share",
        if candidates == 0 {
            0.0
        } else {
            counter("discovery.sample.candidates_pruned") / candidates as f64
        },
    );
    report.set("lattice.ms", lattice_ms);
    report.set(
        "lattice.peak_level_ms",
        levels.iter().copied().fold(0.0, f64::max),
    );
    report.set("lattice.next_level_ms", next_ms);
    report.set("lattice.verify_ms", verify_ms);
    report.set("lattice.unattributed_ms", lattice_ms - next_ms - verify_ms);
    report.set("lattice.candidates", candidates as f64);
    report.set("lattice.verified", verified as f64);
    report.set("lattice.ofds", out.len() as f64);
    if let Some(c) = &out.stats.cache {
        let lookups = c.hits + c.misses;
        report.set("cache.products", c.products as f64);
        report.set(
            "cache.hit_rate",
            if lookups == 0 {
                0.0
            } else {
                c.hits as f64 / lookups as f64
            },
        );
        report.set(
            "cache.peak_mib",
            c.peak_resident_bytes as f64 / (1024.0 * 1024.0),
        );
    }
    let layers = report.metrics["csv.read_ms"]
        + report.metrics["ontology.parse_ms"]
        + sample_ms
        + lattice_ms;
    crate::remainder_metrics(report, wall_ms, layers);
    report.set(
        "obs.overhead_pct",
        (wall_ms / (secs(untraced.out.wall) * 1000.0) - 1.0) * 100.0,
    );
    report.set("obs.spans_retained", snap.spans.len() as f64);
    report.set(
        "obs.metrics_kib",
        snap.to_json_string(false).len() as f64 / 1024.0,
    );

    // The attribute index alone, timed as its own call.
    let mut builds = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let _s = obs.span("perfbench.sense_index");
        std::hint::black_box(SenseIndex::synonym(&rel, &onto));
        builds.push(ms(t.elapsed()));
    }
    report.set(
        "sense_index.build_ms",
        median(&builds).expect("three builds"),
    );
    crate::write_trace(args, &obs);
    Ok(())
}

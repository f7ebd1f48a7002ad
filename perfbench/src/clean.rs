//! `clean-beam`: `fastofd clean` with default settings on clinical 12K
//! rows with 3% injected errors and 4% ontology incompleteness, Σ the ten
//! planted OFDs. Beam search (the paper's Alg. 7) is nearly all of it.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use ofd_clean::{
    assign_all, beam_search_guarded, build_classes, local_refinement_guarded, repair_data_guarded,
    repair_quality, OfdCleanConfig, SenseView,
};
use ofd_core::{AttrId, Obs, Relation, SenseIndex, Validator, ValueId};
use ofd_datagen::{clinical, csv, PresetConfig};
use ofd_ontology::{parse_ontology, write_ontology, Ontology, OntologyRepair, SenseId};

use crate::inputs::{parse_specs, permutation, permute, spec, CONTENT_SEED};
use crate::procs::{run_cli, RunOutcome};
use crate::stats::median;
use crate::{ms, secs, timed, Args, Report, Scale, Tamper};

fn rows(scale: Scale) -> usize {
    match scale {
        Scale::Full => 12_000,
        Scale::Smoke => 1_500,
    }
}

/// The generator's ground truth, in the benchmark's row order.
struct Truth {
    dirty: Relation,
    clean: Relation,
    /// Injected errors that violate Σ, as `(row, attribute)`.
    detectable: Vec<(usize, AttrId)>,
    full_ontology: Ontology,
}

/// What one `fastofd clean` run printed and wrote.
struct Iteration {
    out: RunOutcome,
    satisfied: bool,
    cell_repairs: usize,
    repaired_csv: Vec<u8>,
    repaired_onto: String,
}

/// The `satisfied: …, N cell repair(s)` summary line of `fastofd clean`.
fn parse_summary(stdout: &str) -> Option<(bool, usize)> {
    let line = stdout.lines().find(|l| l.starts_with("satisfied: "))?;
    let satisfied = line
        .strip_prefix("satisfied: ")?
        .split_whitespace()
        .next()?
        == "true";
    let repairs = line
        .split(", ")
        .find(|part| part.contains("cell repair"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some((satisfied, repairs))
}

pub fn run(args: &Args) -> Result<Report, String> {
    let n = rows(args.scale);
    let mut report = Report::default();
    let w = &args.work;

    let mut setups = Vec::new();
    let mut truth: Option<Truth> = None;
    let mut csv_len = 0;
    while crate::more_setups(&setups) {
        let t = Instant::now();
        let mut d = clinical(&PresetConfig {
            n_rows: n,
            seed: CONTENT_SEED,
            ..PresetConfig::default()
        });
        d.degrade_ontology(0.04, CONTENT_SEED);
        d.inject_errors(0.03, CONTENT_SEED);
        let perm = permutation(n, args.seed);
        let dirty = permute(&d.relation, &perm)?;
        let text = csv::write_csv(&dirty);
        csv_len = text.len();
        let specs: Vec<String> = d
            .ofds
            .iter()
            .map(|o| spec(o, d.relation.schema()))
            .collect();
        for (name, bytes) in [
            ("data.csv", text.into_bytes()),
            ("ontology.txt", write_ontology(&d.ontology).into_bytes()),
            ("sigma.txt", (specs.join("\n") + "\n").into_bytes()),
        ] {
            std::fs::write(w.join(name), bytes).map_err(|e| format!("{name}: {e}"))?;
        }
        setups.push(secs(t.elapsed()));
        let mut new_row = vec![0; n];
        for (new, &old) in perm.iter().enumerate() {
            new_row[old] = new;
        }
        truth = Some(Truth {
            clean: permute(&d.clean, &perm)?,
            detectable: d
                .detectable_errors()
                .iter()
                .map(|e| (new_row[e.row], e.attr))
                .collect(),
            dirty,
            full_ontology: d.full_ontology,
        });
    }
    let truth = truth.expect("set-up ran");
    report.set("setup_s", median(&setups).expect("set-up ran"));
    report.set("csv.mib", csv_len as f64 / (1024.0 * 1024.0));

    let cli_args: Vec<String> = [
        "clean",
        "--data",
        "data.csv",
        "--ontology",
        "ontology.txt",
        "--ofds-file",
        "sigma.txt",
        "--out",
        "repaired.csv",
        "--onto-out",
        "repaired-ontology.txt",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let run_once = || -> Result<Iteration, String> {
        let _ = std::fs::remove_file(w.join("repaired.csv"));
        let _ = std::fs::remove_file(w.join("repaired-ontology.txt"));
        let out = run_cli(&args.fastofd, &cli_args, w, Duration::from_secs(150))?;
        let (mut satisfied, cell_repairs) =
            parse_summary(&out.stdout).unwrap_or((false, usize::MAX));
        if args.tamper == Tamper::CleanUnsatisfied {
            satisfied = false;
        }
        Ok(Iteration {
            satisfied,
            cell_repairs,
            repaired_csv: std::fs::read(w.join("repaired.csv")).unwrap_or_default(),
            repaired_onto: std::fs::read_to_string(w.join("repaired-ontology.txt"))
                .unwrap_or_default(),
            out,
        })
    };

    let iterations = crate::batch_runs(args, run_once)?;

    // Checks on each run's output bytes.
    let sigma_specs = std::fs::read_to_string(w.join("sigma.txt")).map_err(|e| e.to_string())?;
    // `fastofd clean` runs with `OfdCleanConfig`'s defaults.
    let budget = (OfdCleanConfig::default().tau * n as f64).floor() as usize;
    let mut quality = None;
    for (i, it) in iterations.iter().enumerate() {
        report.attempted += 1;
        let before = report.failures.len();
        report.check(it.out.code == Some(0), || {
            format!("clean run {i} exited with {:?} (0 = complete)", it.out.code)
        });
        report.check(it.satisfied, || {
            format!("clean run {i} reports satisfied = false")
        });
        report.check(it.cell_repairs <= budget, || {
            format!(
                "clean run {i}: {} cell repairs exceed τ·|I| = {budget}",
                it.cell_repairs
            )
        });
        report.check(
            it.repaired_csv == iterations[0].repaired_csv
                && it.repaired_onto == iterations[0].repaired_onto,
            || format!("clean run {i}: output differs from run 0"),
        );
        match verify_output(&it.repaired_csv, &it.repaired_onto, &sigma_specs, n) {
            Ok(repaired) => {
                if quality.is_none() {
                    quality = Some(repair_quality(
                        &truth.dirty,
                        &repaired,
                        &truth.clean,
                        &truth.detectable,
                        &truth.full_ontology,
                    ));
                }
            }
            Err(e) => report.fail(format!("clean run {i}: {e}")),
        }
        if report.failures.len() > before {
            report.failed += 1;
        }
    }

    if args.trace {
        trace(args, &mut report, &iterations[0])?;
    } else {
        crate::batch_metrics(
            &mut report,
            &args.workload,
            iterations.iter().map(|it| &it.out),
        );
        let (precision, recall) = quality.map_or((0.0, 0.0), |q| (q.precision, q.recall));
        report.set("precision", precision);
        report.set("recall", recall);
        eprintln!("clean-beam: precision {precision:.4} recall {recall:.4}");
    }
    crate::finish_shares(&mut report);
    Ok(report)
}

/// Parses the repaired outputs and re-checks Σ on them from scratch.
fn verify_output(
    csv_bytes: &[u8],
    onto_text: &str,
    specs: &str,
    n: usize,
) -> Result<Relation, String> {
    let rel =
        csv::read_csv_bytes(csv_bytes).map_err(|e| format!("repaired CSV does not parse: {e}"))?;
    let onto =
        parse_ontology(onto_text).map_err(|e| format!("repaired ontology does not parse: {e}"))?;
    if rel.n_rows() != n {
        return Err(format!(
            "repaired CSV has {} rows, input has {n}",
            rel.n_rows()
        ));
    }
    let validator = Validator::new(&rel, &onto);
    for ofd in parse_specs(specs, &rel)? {
        if !validator.check(&ofd).satisfied() {
            return Err(format!(
                "{} does not hold on the repaired output",
                spec(&ofd, rel.schema())
            ));
        }
    }
    Ok(rel)
}

/// The traced run: `ofd_clean`'s phases called in-process the way
/// `clean_probe` calls them, each timed from outside.
fn trace(args: &Args, report: &mut Report, untraced: &Iteration) -> Result<(), String> {
    let w = &args.work;
    let obs = Obs::enabled();
    let config = OfdCleanConfig::default();
    let guard = &config.guard;
    let t_wall = Instant::now();
    let rel = timed(&obs, report, "csv.read_ms", || {
        let bytes = std::fs::read(w.join("data.csv")).map_err(|e| e.to_string())?;
        csv::read_csv_bytes(&bytes).map_err(|e| e.to_string())
    })?;
    let onto = timed(&obs, report, "ontology.parse_ms", || {
        let text = std::fs::read_to_string(w.join("ontology.txt")).map_err(|e| e.to_string())?;
        parse_ontology(&text).map_err(|e| e.to_string())
    })?;
    let specs = std::fs::read_to_string(w.join("sigma.txt")).map_err(|e| e.to_string())?;
    let sigma = parse_specs(&specs, &rel)?;

    let mut working = rel.clone();
    let mut index = timed(&obs, report, "sense_index.build_ms", || {
        SenseIndex::synonym(&working, &onto)
    });
    let classes = timed(&obs, report, "classes.build_ms", || {
        build_classes(&working, &sigma)
    });
    let empty: HashSet<(ValueId, SenseId)> = HashSet::new();
    let view = SenseView {
        base: &index,
        overlay: &empty,
    };
    let mut assignment = timed(&obs, report, "sense.assign_ms", || {
        assign_all(&classes, view)
    });
    timed(&obs, report, "graph.refine_ms", || {
        for _ in 0..config.refinement_passes {
            let reassigned = local_refinement_guarded(
                &working,
                &onto,
                &classes,
                &mut assignment,
                view,
                config.theta,
                guard,
            );
            if reassigned == 0 {
                break;
            }
        }
    });
    let plan = timed(&obs, report, "ontrepair.beam_ms", || {
        beam_search_guarded(
            &working,
            &sigma,
            &classes,
            &assignment,
            &index,
            config.beam,
            config.max_ontology_repairs,
            guard,
        )
    });
    report.set("ontrepair.candidates", plan.candidates.len() as f64);
    report.set("ontrepair.frontier", plan.frontier.len() as f64);
    let tau_max = (config.tau * working.n_rows() as f64).floor() as usize;
    let chosen = plan.select(tau_max).clone();
    let mut repair = OntologyRepair::new();
    for &(v, s) in &chosen.adds {
        repair.add(s, working.pool().resolve(v));
    }
    let repaired_onto = onto.with_repair(&repair).map_err(|e| e.to_string())?;
    let overlay: HashSet<(ValueId, SenseId)> = chosen.adds.iter().copied().collect();
    let (repairs, _) = timed(&obs, report, "conflict.repair_ms", || {
        repair_data_guarded(
            &mut working,
            &repaired_onto,
            &sigma,
            &assignment,
            &mut index,
            &overlay,
            tau_max,
            config.max_rounds,
            guard,
        )
    });
    report.set("conflict.repairs", repairs.len() as f64);
    let satisfied = timed(&obs, report, "clean.verify_ms", || {
        let validator = Validator::new(&working, &repaired_onto);
        sigma.iter().all(|o| validator.check(o).satisfied())
    });
    let (out_csv, out_onto) = timed(&obs, report, "csv.write_ms", || {
        let out_csv = csv::write_csv(&working);
        let out_onto = write_ontology(&repaired_onto);
        std::fs::write(w.join("repaired-traced.csv"), &out_csv).map_err(|e| e.to_string())?;
        std::fs::write(w.join("repaired-ontology-traced.txt"), &out_onto)
            .map_err(|e| e.to_string())?;
        Ok::<_, String>((out_csv, out_onto))
    })?;
    let wall_ms = ms(t_wall.elapsed());

    report.attempted += 1;
    let same = satisfied
        && out_csv.as_bytes() == untraced.repaired_csv.as_slice()
        && out_onto == untraced.repaired_onto;
    report.check(same, || {
        "traced clean output differs from the CLI's (or is unsatisfied)".to_string()
    });
    if !same {
        report.failed += 1;
    }
    let layers: f64 = [
        "csv.read_ms",
        "ontology.parse_ms",
        "sense_index.build_ms",
        "classes.build_ms",
        "sense.assign_ms",
        "graph.refine_ms",
        "ontrepair.beam_ms",
        "conflict.repair_ms",
        "clean.verify_ms",
        "csv.write_ms",
    ]
    .iter()
    .map(|k| report.metrics[k])
    .sum();
    crate::remainder_metrics(report, wall_ms, layers);
    report.set(
        "obs.overhead_pct",
        (wall_ms / (secs(untraced.out.wall) * 1000.0) - 1.0) * 100.0,
    );
    crate::obs_metrics(report, &obs);
    crate::write_trace(args, &obs);
    Ok(())
}

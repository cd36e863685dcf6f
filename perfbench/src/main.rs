//! The repository benchmark: end-to-end and per-layer performance of the
//! Across-FTL simulator on seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload nearfull-hosted-lun1 --seed 1 --seconds 50 --trace 0
//! ```
//!
//! One invocation runs *rounds* of the workload (trace preparation, then
//! the four schemes one after another) until `--seconds` have passed.
//! With `--trace 1` it then runs one traced round (spans on) and reports
//! the per-layer metrics instead of the end-to-end ones. Every invocation
//! ends with one untimed oracle pass (content tracking on, every read
//! checked). The last line of standard output is the JSON result; a
//! human-readable summary goes to standard error and the traced round's
//! spans to `.bench_out/spans-<workload>.csv`. See `README.md`.

mod prof;
mod report;
#[cfg(test)]
mod selftest;
mod speed;
mod timed;
mod trace_io;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use report::Metric;
use workloads::{slug, Mode, Round, Workload};

/// Command-line arguments.
#[derive(Debug, Clone, Copy)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds: {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace: {value} (0 or 1)")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Run rounds until `seconds` have passed (at least one).
fn rounds_for(args: &Args, mode: Mode) -> Vec<Round> {
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        rounds.push(workloads::run_round(args.workload, args.seed, mode));
        if start.elapsed().as_secs_f64() >= args.seconds {
            return rounds;
        }
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), less the
/// host-speed probe's tables, which stay resident from the first probe on.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| {
            (kb * 1024.0 - speed::PROBE_RESIDENT_BYTES as f64) / (1024.0 * 1024.0)
        })
}

/// Schemes of `round` whose simulated outcome differs from `reference`.
fn sim_mismatches(reference: &Round, round: &Round) -> u64 {
    reference
        .schemes
        .iter()
        .zip(&round.schemes)
        .filter(|(a, b)| a.sim != b.sim)
        .count() as u64
}

fn write_spans(workload: Workload, prof: &prof::Profiler) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("spans-{}.csv", workload.name()));
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        prof.write_csv(file)
    });
    match written {
        Ok(()) => eprintln!("wrote {} spans to {}", prof.records().len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn summary(args: &Args, rounds: &[Round], metrics: &[Metric]) {
    eprintln!(
        "{} seed {}: {} round(s); window s by round as raw/nominal",
        args.workload.name(),
        args.seed,
        rounds.len(),
    );
    for (i, run) in rounds[0].schemes.iter().enumerate() {
        let windows: Vec<String> = rounds
            .iter()
            .map(|r| {
                let w = r.schemes[i].window;
                format!("{:.3}/{:.3}", w.raw_ns / 1e9, w.nominal_ns / 1e9)
            })
            .collect();
        eprintln!(
            "  {:<8} requests {:>7}  failed {:>3}  setup {:>7.3}s  flash ops {:>9}  erases {:>6}  window s by round {}",
            slug(run.kind),
            run.sim.requests,
            run.failed + run.violations,
            run.setup.raw_ns / 1e9,
            run.sim.flash_ops(),
            run.sim.erases,
            windows.join(" ")
        );
    }
    for m in metrics {
        eprintln!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    if args.trace && args.workload == Workload::PaperLun6 {
        eprintln!("  Across-FTL vs FTL next to the paper (informational; the model is unvalidated at this trace length):");
        for (name, paper) in report::PAPER_ACROSS_VS_FTL {
            if let Some(m) = metrics.iter().find(|m| m.name == name) {
                eprintln!("    {name:<36} measured {:.3}  paper {paper:.3}", m.value);
            }
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <paper-lun6|nearfull-hosted-lun1|crash-lun3> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };

    let untraced = rounds_for(&args, Mode::default());
    let rss = peak_rss_mib();
    let mut attempted: u64 = untraced.iter().map(Round::ops).sum();
    let mut failed: u64 = untraced.iter().map(Round::failed).sum();
    // Simulated results are a pure function of the seed: every round must
    // reproduce the first.
    let mut mismatches: u64 = untraced[1..]
        .iter()
        .map(|r| sim_mismatches(&untraced[0], r))
        .sum();

    let mut traced = Vec::new();
    let mut profile = None;
    if args.trace {
        prof::enable();
        traced = vec![workloads::run_round(
            args.workload,
            args.seed,
            Mode {
                traced: true,
                ..Mode::default()
            },
        )];
        profile = prof::disable();
        attempted += traced.iter().map(Round::ops).sum::<u64>();
        failed += traced.iter().map(Round::failed).sum::<u64>();
        mismatches += traced
            .iter()
            .map(|r| sim_mismatches(&untraced[0], r))
            .sum::<u64>();
    }

    let oracle_pass = workloads::run_round(
        args.workload,
        args.seed,
        Mode {
            oracle: true,
            ..Mode::default()
        },
    );
    attempted += oracle_pass.ops();
    failed += oracle_pass.failed();
    mismatches += sim_mismatches(&untraced[0], &oracle_pass);
    failed += mismatches;

    let metrics = match &profile {
        Some(p) => {
            write_spans(args.workload, p);
            report::per_layer(&untraced, &traced, p, &oracle_pass)
        }
        None => report::end_to_end(&untraced, rss),
    };
    summary(&args, &untraced, &metrics);
    if mismatches > 0 {
        eprintln!(
            "simulated results differ between runs of the same seed ({mismatches} scheme runs)"
        );
    }
    println!(
        "{}",
        report::result_json(failed == 0, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv(
            "--workload crash-lun3 --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::CrashLun3);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload paper-lun6")).is_err());
        assert!(parse_args(&argv("--workload paper-lun6 --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload paper-lun6 --seed")).is_err());
    }
}

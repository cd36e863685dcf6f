//! Metric assembly: the end-to-end metrics of the untraced rounds, the
//! per-layer metrics of the traced rounds, and the one-line JSON result.

use crate::prof::{Name, Phase, Profiler, NO_SCHEME};
use crate::workloads::{slug, Round, SchemeRun, SCHEMES};

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Median of `v` (mean of the middle pair for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The end-to-end metrics of the untraced `rounds` (simulated values from
/// the first round; the rounds are checked equal elsewhere).
///
/// Host times are in nominal host seconds, each stretch scaled to the
/// host speed the probes saw around it (see [`crate::speed`]). Set-up time
/// is the median over the rounds; replay throughput counts the operations
/// of all rounds over their summed nominal window time, so that a round
/// weighs by its length.
pub fn end_to_end(rounds: &[Round], peak_rss_mib: f64) -> Vec<Metric> {
    let mut out = vec![
        metric(
            "setup_s",
            median(rounds.iter().map(|r| r.setup().nominal_ns / 1e9).collect()),
            "s",
        ),
        metric("peak_rss_mib", peak_rss_mib, "MiB"),
    ];
    let first = &rounds[0];
    for (i, &kind) in SCHEMES.iter().enumerate() {
        let s = slug(kind);
        out.push(metric(
            format!("{s}.replay_req_per_s"),
            ratio(
                rounds.iter().map(|r| r.schemes[i].completed() as f64).sum(),
                rounds
                    .iter()
                    .map(|r| r.schemes[i].window.nominal_ns / 1e9)
                    .sum(),
            ),
            "req/s",
        ));
        out.push(metric(
            format!("{s}.sim_mean_ms"),
            first.schemes[i].sim.mean_ms(),
            "ms",
        ));
    }
    out.push(metric(
        "erases",
        first.schemes.iter().map(|s| s.sim.erases as f64).sum(),
        "count",
    ));
    out
}

/// The per-layer metrics: host times from the traced rounds' profile
/// (`prof`, per-round means over `traced` rounds), counts from the first
/// untraced round, oracle figures from the oracle pass.
pub fn per_layer(
    untraced: &[Round],
    traced: &[Round],
    prof: &Profiler,
    oracle_pass: &Round,
) -> Vec<Metric> {
    let n = traced.len().max(1) as f64;
    let secs = |scheme: usize, phase: Phase, name: Name| {
        prof.agg(scheme, phase, name).total_ns as f64 / 1e9 / n
    };
    let self_secs = |scheme: usize, phase: Phase, name: Name| {
        prof.agg(scheme, phase, name).self_ns as f64 / 1e9 / n
    };
    let m = Phase::Measured;
    let first = &untraced[0];
    let run = |i: usize| -> &SchemeRun { &first.schemes[i] };

    let mut out = vec![
        metric(
            "trace.gen_s",
            secs(NO_SCHEME, Phase::Setup, Name::TraceGen),
            "s",
        ),
        metric(
            "trace.parse_s",
            secs(NO_SCHEME, Phase::Setup, Name::TraceParse),
            "s",
        ),
    ];
    for (i, &kind) in SCHEMES.iter().enumerate() {
        let s = slug(kind);
        let sim = &run(i).sim;
        let submit = secs(i, m, Name::SsdSubmit) + secs(i, m, Name::SsdIdle);
        out.extend([
            metric(
                format!("latency.{s}.sim_p999_ms"),
                sim.p999_ns as f64 / 1e6,
                "ms",
            ),
            metric(
                format!("warmup.{s}.host_s"),
                secs(i, Phase::Setup, Name::WarmupAge),
                "s",
            ),
            metric(
                format!("ssd.{s}.submit_s"),
                secs(i, m, Name::SsdSubmit),
                "s",
            ),
            metric(
                format!("ssd.{s}.self_s"),
                self_secs(i, m, Name::SsdSubmit) + self_secs(i, m, Name::SsdIdle),
                "s",
            ),
            metric(
                format!("ssd.{s}.host_ns_per_flash_op"),
                ratio(submit * 1e9, sim.flash_ops() as f64),
                "ns/op",
            ),
            metric(
                format!("scheme.{s}.write_s"),
                secs(i, m, Name::SchemeWrite),
                "s",
            ),
            metric(
                format!("scheme.{s}.read_s"),
                secs(i, m, Name::SchemeRead),
                "s",
            ),
            metric(
                format!("gc.{s}.host_s"),
                secs(i, m, Name::GcMaybe) + secs(i, m, Name::GcIdle),
                "s",
            ),
            metric(
                format!("gc.{s}.migrated_pages"),
                sim.gc_migrated as f64,
                "count",
            ),
            metric(format!("gc.{s}.erased_blocks"), sim.erases as f64, "count"),
            metric(
                format!("mapping.{s}.hit_ratio"),
                ratio(sim.cache[1] as f64, sim.cache[0] as f64),
                "ratio",
            ),
            metric(
                format!("mapping.{s}.map_reads"),
                sim.reads[2] as f64,
                "count",
            ),
            metric(
                format!("mapping.{s}.map_writes"),
                sim.programs[2] as f64,
                "count",
            ),
            metric(
                format!("mapping.{s}.coalesced_lookups"),
                sim.coalesced_lookups as f64,
                "count",
            ),
            metric(
                format!("flash.{s}.reads"),
                sim.reads.iter().sum::<u64>() as f64,
                "count",
            ),
            metric(
                format!("flash.{s}.programs"),
                sim.programs.iter().sum::<u64>() as f64,
                "count",
            ),
            metric(
                format!("host.{s}.engine_self_s"),
                self_secs(i, m, Name::HostRun),
                "s",
            ),
            metric(
                format!("recovery.{s}.checkpoint_s"),
                secs(i, m, Name::RecoveryCheckpoint),
                "s",
            ),
            metric(
                format!("recovery.{s}.rebuild_s"),
                secs(i, m, Name::RecoveryRebuild),
                "s",
            ),
            metric(
                format!("recovery.{s}.rebuild_flash_reads"),
                sim.recovery.map_or(0, |r| r.0) as f64,
                "count",
            ),
            metric(
                format!("tracing.{s}.overhead_ratio"),
                ratio(
                    median(traced.iter().map(|r| r.schemes[i].window.raw_ns).collect()),
                    median(
                        untraced
                            .iter()
                            .map(|r| r.schemes[i].window.raw_ns)
                            .collect(),
                    ),
                ),
                "ratio",
            ),
        ]);
    }

    let across = SCHEMES
        .iter()
        .position(|k| slug(*k) == "across")
        .expect("across runs");
    let learned = SCHEMES
        .iter()
        .position(|k| slug(*k) == "learned")
        .expect("learned runs");
    let ftl = SCHEMES
        .iter()
        .position(|k| slug(*k) == "ftl")
        .expect("ftl runs");
    let a = &run(across).sim;
    let l = &run(learned).sim;
    let f = &run(ftl).sim;
    let round_ns = (0..=NO_SCHEME)
        .map(|s| prof.agg(s, Phase::Setup, Name::Round).total_ns)
        .sum::<u64>() as f64;
    out.extend([
        metric("scheme.across.direct_writes", a.across[0] as f64, "count"),
        metric("scheme.across.amerges", a.across[1] as f64, "count"),
        metric("scheme.across.arollbacks", a.across[2] as f64, "count"),
        metric("learned.predict_hits", l.learned[0] as f64, "count"),
        metric("learned.mispredicts", l.learned[1] as f64, "count"),
        metric(
            "learned.hit_ratio",
            ratio(l.learned[0] as f64, (l.learned[0] + l.learned[1]) as f64),
            "ratio",
        ),
        metric("learned.segment_rebuilds", l.learned[2] as f64, "count"),
        metric(
            "host.queue_full_stalls",
            first
                .schemes
                .iter()
                .map(|s| s.sim.queue_full_stalls)
                .sum::<u64>() as f64,
            "count",
        ),
        metric(
            "recovery.sim_ms",
            first
                .schemes
                .iter()
                .map(|s| s.sim.recovery.map_or(0, |r| r.1))
                .sum::<u64>() as f64
                / 1e6,
            "ms",
        ),
        metric(
            "oracle.check_s",
            oracle_pass.schemes.iter().map(|s| s.oracle_ns).sum::<u64>() as f64 / 1e9,
            "s",
        ),
        metric(
            "oracle.violations",
            oracle_pass
                .schemes
                .iter()
                .map(|s| s.violations)
                .sum::<u64>() as f64,
            "count",
        ),
        metric(
            "tracing.coverage",
            ratio(prof.layer_self_ns() as f64, round_ns),
            "ratio",
        ),
        metric(
            "paper.across_vs_ftl.io_time",
            ratio(a.latency_sum_ns as f64, f.latency_sum_ns as f64),
            "ratio",
        ),
        metric(
            "paper.across_vs_ftl.flash_writes",
            ratio(
                a.programs.iter().sum::<u64>() as f64,
                f.programs.iter().sum::<u64>() as f64,
            ),
            "ratio",
        ),
        metric(
            "paper.across_vs_ftl.flash_reads",
            ratio(
                a.reads.iter().sum::<u64>() as f64,
                f.reads.iter().sum::<u64>() as f64,
            ),
            "ratio",
        ),
        metric(
            "paper.across_vs_ftl.erases",
            ratio(a.erases as f64, f.erases as f64),
            "ratio",
        ),
    ]);
    out
}

/// The paper's Across-FTL/FTL ratios (EXPERIMENTS.md, Figs. 9–11), for
/// the informational comparison printed next to `paper.across_vs_ftl.*`.
pub const PAPER_ACROSS_VS_FTL: [(&str, f64); 4] = [
    ("paper.across_vs_ftl.io_time", 0.916),
    ("paper.across_vs_ftl.flash_writes", 0.841),
    ("paper.across_vs_ftl.flash_reads", 0.903),
    ("paper.across_vs_ftl.erases", 0.867),
];

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                json_escape(&m.name),
                m.value,
                json_escape(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(vec![]), 0.0);
    }

    #[test]
    fn result_line_is_json_with_full_digits() {
        let line = result_json(
            true,
            3,
            0,
            &[metric("a.b", 1.0 / 3.0, "ms"), metric("c", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}, \
             \"c\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
    }
}

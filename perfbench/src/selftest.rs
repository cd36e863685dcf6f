//! Self-tests of the benchmark: the timing decorator is transparent, the
//! simulated results are a pure function of the seed, a scheme serving a
//! wrong version is caught, and every metric `BENCHMARK.json` lists is
//! reported with its unit.
//!
//! They run the hosted workload on a shortened trace; run them with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use aftl_core::gc::GcReport;
use aftl_core::learned::LearnedStats;
use aftl_core::mapping::cache::CacheStats;
use aftl_core::mapping::engine::MapEngineStats;
use aftl_core::request::HostRequest;
use aftl_core::scheme::{FtlEnv, FtlScheme, SchemeKind, ServiceOutcome};
use aftl_core::SchemeCounters;
use aftl_flash::Result;
use aftl_sim::SimConfig;

use crate::prof;
use crate::report::{self, Metric};
use crate::timed::{self, build_device, BoxedScheme};
use crate::workloads::{run_round, Mode, Round, Workload, SCHEMES};

const SMALL: Option<u64> = Some(1_500);

fn hosted(seed: u64, mode: Mode) -> Round {
    run_round(
        Workload::NearfullHostedLun1,
        seed,
        Mode {
            requests: SMALL,
            ..mode
        },
    )
}

#[test]
fn decorator_is_transparent() {
    let plain = hosted(3, Mode::default());
    prof::enable();
    let traced = hosted(
        3,
        Mode {
            traced: true,
            ..Mode::default()
        },
    );
    let profile = prof::disable().expect("profiler was on");
    for (a, b) in plain.schemes.iter().zip(&traced.schemes) {
        assert_eq!(
            a.sim, b.sim,
            "{:?}: decorator changed the simulation",
            a.kind
        );
        assert!(a.sim.requests > 0 && a.sim.erases > 0);
    }
    assert!(profile.records().len() > 1_000, "spans were recorded");

    // Forwarded defaulted methods: checkpoint capture works through the
    // decorator, and the reported sizes agree.
    for kind in SCHEMES {
        let config = SimConfig::test_tiny(kind);
        let mut bare = build_device(config.clone(), None).unwrap();
        let mut wrapped = build_device(config, Some(timed::timed)).unwrap();
        bare.arm_crash(u64::MAX);
        wrapped.arm_crash(u64::MAX);
        for ssd in [&mut bare, &mut wrapped] {
            timed::submit(ssd, &HostRequest::write(0, 4, 8)).unwrap();
        }
        assert_eq!(
            bare.take_checkpoint(),
            wrapped.take_checkpoint(),
            "{kind:?}"
        );
        assert!(
            wrapped.checkpoint().is_some(),
            "{kind:?}: capture_image forwarded"
        );
        assert_eq!(bare.scheme().name(), wrapped.scheme().name());
        assert_eq!(
            bare.scheme().mapping_table_bytes(),
            wrapped.scheme().mapping_table_bytes()
        );
        assert_eq!(bare.logical_sectors(), wrapped.logical_sectors());
    }
}

#[test]
fn same_seed_same_simulation() {
    let a = hosted(5, Mode::default());
    let b = hosted(5, Mode::default());
    let c = hosted(6, Mode::default());
    for i in 0..SCHEMES.len() {
        assert_eq!(a.schemes[i].sim, b.schemes[i].sim);
        assert_ne!(
            a.schemes[i].sim, c.schemes[i].sim,
            "the seed moves the trace"
        );
    }
    assert_eq!(a.failed(), 0);
    let oracle = hosted(
        5,
        Mode {
            oracle: true,
            ..Mode::default()
        },
    );
    assert_eq!(oracle.failed(), 0);
    for i in 0..SCHEMES.len() {
        assert_eq!(
            a.schemes[i].sim, oracle.schemes[i].sim,
            "content tracking is invisible"
        );
    }
}

/// Serves every read correctly except the 20th, whose first sector it
/// reports one version newer than the device served.
struct Corrupt {
    inner: BoxedScheme,
    reads: u64,
}

impl FtlScheme for Corrupt {
    fn kind(&self) -> SchemeKind {
        self.inner.kind()
    }
    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        self.inner.write(env, req)
    }
    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        let mut out = self.inner.read(env, req)?;
        self.reads += 1;
        if self.reads == 20 {
            if let Some(s) = out.served.first_mut() {
                s.version += 1;
            }
        }
        Ok(out)
    }
    fn maybe_gc(&mut self, env: &mut FtlEnv<'_>) -> Result<GcReport> {
        self.inner.maybe_gc(env)
    }
    fn idle_gc(&mut self, env: &mut FtlEnv<'_>, max_pages: u64) -> Result<GcReport> {
        self.inner.idle_gc(env, max_pages)
    }
    fn counters(&self) -> &SchemeCounters {
        self.inner.counters()
    }
    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }
    fn map_engine_stats(&self) -> MapEngineStats {
        self.inner.map_engine_stats()
    }
    fn learned_stats(&self) -> LearnedStats {
        self.inner.learned_stats()
    }
    fn mapping_table_bytes(&self) -> u64 {
        self.inner.mapping_table_bytes()
    }
    fn logical_pages(&self) -> u64 {
        self.inner.logical_pages()
    }
}

#[test]
fn corrupted_version_is_a_failed_op() {
    let round = hosted(
        7,
        Mode {
            oracle: true,
            wrap: Some(|inner| Box::new(Corrupt { inner, reads: 0 })),
            ..Mode::default()
        },
    );
    for run in &round.schemes {
        assert_eq!(run.violations, 1, "{:?}", run.kind);
    }
    assert_eq!(round.failed(), SCHEMES.len() as u64);
}

/// `(name, unit)` of every metric a `BENCHMARK.json` section lists.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let doc = serde_json::parse_value(text).expect("BENCHMARK.json parses");
    let serde::Value::Seq(items) = doc.field(section).expect("section present") else {
        panic!("{section} is not a list");
    };
    let mut out: Vec<(String, String)> = items
        .iter()
        .map(|m| {
            let s = |k: &str| m.field(k).unwrap().as_str().unwrap().to_string();
            (s("name"), s("unit"))
        })
        .collect();
    out.sort();
    out
}

fn reported(metrics: &[Metric]) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    out.sort();
    out
}

#[test]
fn every_listed_metric_is_reported_with_its_unit() {
    let untraced = vec![hosted(9, Mode::default())];
    prof::enable();
    let traced = vec![hosted(
        9,
        Mode {
            traced: true,
            ..Mode::default()
        },
    )];
    let profile = prof::disable().unwrap();
    let oracle = hosted(
        9,
        Mode {
            oracle: true,
            ..Mode::default()
        },
    );
    let e2e = report::end_to_end(&untraced, 1.0);
    assert_eq!(reported(&e2e), listed("end_to_end"));
    assert!(
        e2e.iter().all(|m| m.value > 0.0),
        "end-to-end metrics are never 0: {e2e:?}"
    );
    let layers = report::per_layer(&untraced, &traced, &profile, &oracle);
    assert_eq!(reported(&layers), listed("per_layer"));
    let coverage = layers
        .iter()
        .find(|m| m.name == "tracing.coverage")
        .unwrap();
    assert!(
        coverage.value > 0.5 && coverage.value <= 1.0,
        "{coverage:?}"
    );
}

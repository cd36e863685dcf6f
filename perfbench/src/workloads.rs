//! The three workloads and one measurement round of each.
//!
//! A round prepares the trace (generate, write SYSTOR CSV, parse), then
//! runs the four schemes one after another: build and age the device
//! (set-up), then drive the measured window through the simulator's
//! public entry points. Everything simulated is a pure function of the
//! workload and the seed; only host times vary between rounds.

use std::time::Instant;

use aftl_core::recovery::RecoveryStats;
use aftl_core::request::{HostRequest, ReqKind};
use aftl_core::scheme::SchemeConfig;
use aftl_core::scheme::{SchemeKind, ServedSector};
use aftl_core::Oracle;
use aftl_flash::GeometryBuilder;
use aftl_flash::{FlashError, Nanos};
use aftl_host::{
    run_host, Arbitration, ArrivalModel, HostConfig, IssueModel, QueuedDevice, Served, TenantConfig,
};
use aftl_sim::metrics::StatsSnapshot;
use aftl_sim::ssd::Ssd;
use aftl_sim::{warmup, CrashConfig, SimConfig};
use aftl_trace::{IoRecord, LunPreset, Trace};

use crate::prof::{self, Name, Phase, NO_SCHEME};
use crate::speed::{Clock, HostTime};
use crate::timed::{self, build_device, submit, BoxedScheme};
use crate::trace_io::{self, TraceSpec};

/// The schemes every workload runs, in order.
pub const SCHEMES: [SchemeKind; 4] = SchemeKind::WITH_LEARNED;

/// Metric-name slug of a scheme.
pub fn slug(kind: SchemeKind) -> &'static str {
    match kind {
        SchemeKind::Baseline => "ftl",
        SchemeKind::Mrsm => "mrsm",
        SchemeKind::Across => "across",
        SchemeKind::Learned => "learned",
    }
}

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// lun6 on the 16 GiB paper device, direct `Ssd::submit` replay.
    PaperLun6,
    /// lun1 on the DRAM-starved, pipelined 512 MiB device behind the
    /// host engine, four open-loop WRR tenants.
    NearfullHostedLun1,
    /// lun3 streamed into a fresh crash-armed 128 MiB device up to a
    /// seeded power cut, then recovery and a full read-back.
    CrashLun3,
}

/// Requests of the paper-lun6 trace: enough traffic for GC to run on the
/// aged 16 GiB device.
pub const PAPER_REQUESTS: u64 = 200_000;
/// Requests of the nearfull-hosted-lun1 trace.
pub const HOSTED_REQUESTS: u64 = 30_000;
/// Requests of the crash-lun3 trace (the cut lands before the end).
pub const CRASH_REQUESTS: u64 = 70_000;
/// Footprint of the fig8-small traces.
pub const SMALL_LUN_BYTES: u64 = 64 << 20;
/// Mapping-cache size of the hosted device, in translation pages.
pub const HOSTED_CACHE_TPAGES: u64 = 2;
/// WRR weights of the four hosted tenants.
pub const HOSTED_WEIGHTS: [u32; 4] = [4, 2, 1, 1];
/// Host writes between two crash-workload checkpoints.
pub const CHECKPOINT_EVERY: u64 = 2_000;
/// The crash cut lands between these two flash-op counts (seeded).
pub const CUT_RANGE: (u64, u64) = (110_000, 113_000);
/// Blocks per plane of the crash device: fig8-small at a quarter of its
/// capacity (128 MiB), so GC starts within a few thousand writes.
pub const CRASH_BLOCKS_PER_PLANE: u32 = 16;

impl Workload {
    /// Every workload; `BENCHMARK.json` gates all but `paper-lun6`.
    pub const ALL: [Workload; 3] = [
        Workload::PaperLun6,
        Workload::NearfullHostedLun1,
        Workload::CrashLun3,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperLun6 => "paper-lun6",
            Workload::NearfullHostedLun1 => "nearfull-hosted-lun1",
            Workload::CrashLun3 => "crash-lun3",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn trace_spec(self) -> TraceSpec {
        match self {
            Workload::PaperLun6 => TraceSpec {
                preset: LunPreset::Lun6,
                requests: PAPER_REQUESTS,
                lun_bytes: None,
            },
            Workload::NearfullHostedLun1 => TraceSpec {
                preset: LunPreset::Lun1,
                requests: HOSTED_REQUESTS,
                lun_bytes: Some(SMALL_LUN_BYTES),
            },
            Workload::CrashLun3 => TraceSpec {
                preset: LunPreset::Lun3,
                requests: CRASH_REQUESTS,
                lun_bytes: Some(SMALL_LUN_BYTES),
            },
        }
    }

    /// The device `scheme` runs on in this workload.
    pub fn config(self, scheme: SchemeKind, seed: u64) -> SimConfig {
        match self {
            Workload::PaperLun6 => SimConfig::experiment(scheme, 8192),
            Workload::NearfullHostedLun1 => {
                let mut c = aftl_bench::replay::fig8_small_config_with(scheme, true);
                c.scheme_cfg.cache_bytes = HOSTED_CACHE_TPAGES * u64::from(c.geometry.page_bytes);
                c
            }
            Workload::CrashLun3 => {
                let mut c = aftl_bench::replay::fig8_small_config(scheme);
                c.geometry = GeometryBuilder::new()
                    .channels(c.geometry.channels)
                    .chips_per_channel(c.geometry.chips_per_channel)
                    .dies_per_chip(c.geometry.dies_per_chip)
                    .planes_per_die(c.geometry.planes_per_die)
                    .blocks_per_plane(CRASH_BLOCKS_PER_PLANE)
                    .pages_per_block(c.geometry.pages_per_block)
                    .page_bytes(c.geometry.page_bytes)
                    .build()
                    .expect("crash geometry is valid");
                c.scheme_cfg = SchemeConfig::for_geometry(&c.geometry);
                c.track_content = true;
                c.crash = CrashConfig {
                    crash_at: Some(crash_cut(seed)),
                    recover: true,
                    checkpoint_every: Some(CHECKPOINT_EVERY),
                };
                c
            }
        }
    }
}

/// SplitMix64 finaliser: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seed of the VDI trace spec.
pub fn trace_seed(seed: u64) -> u64 {
    mix(seed, 1)
}

/// Seed of the host engine's initiators.
pub fn host_seed(seed: u64) -> u64 {
    mix(seed, 2)
}

/// Flash-op budget of the crash workload's power cut.
pub fn crash_cut(seed: u64) -> u64 {
    CUT_RANGE.0 + mix(seed, 3) % (CUT_RANGE.1 - CUT_RANGE.0)
}

/// How a round runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mode {
    /// Record spans (wrap each scheme in the timing decorator).
    pub traced: bool,
    /// Track content and check every read with the sector-stamp oracle.
    pub oracle: bool,
    /// Replace the scheme wrapper (self-tests inject faulty schemes).
    pub wrap: Option<fn(BoxedScheme) -> BoxedScheme>,
    /// Shorten the trace to this many requests (self-tests).
    pub requests: Option<u64>,
}

/// Everything one scheme's run simulated: deterministic per seed, so two
/// runs of the same inputs must produce equal values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Sim {
    /// Requests with a latency sample (completed host requests).
    pub requests: u64,
    /// Sum of arrival-to-completion latencies (ns).
    pub latency_sum_ns: u128,
    /// p99.9 latency (ns, nearest rank).
    pub p999_ns: u64,
    /// Flash reads by page kind (data, across, map).
    pub reads: [u64; 3],
    /// Flash programs by page kind (data, across, map).
    pub programs: [u64; 3],
    /// Block erases.
    pub erases: u64,
    /// Pages GC migrated.
    pub gc_migrated: u64,
    /// Mapping-cache lookups, hits, misses, loads, flushes.
    pub cache: [u64; 5],
    /// Pipelined map-engine coalesced lookups.
    pub coalesced_lookups: u64,
    /// Learned predictions verified, mis-predicted, segment rebuilds.
    pub learned: [u64; 3],
    /// Across-FTL direct writes, AMerges, ARollbacks.
    pub across: [u64; 3],
    /// Host-engine queue-full stall episodes.
    pub queue_full_stalls: u64,
    /// Crash recovery: rebuild flash reads and simulated rebuild time.
    pub recovery: Option<(u64, u64)>,
}

impl Sim {
    /// Mean latency in ms.
    pub fn mean_ms(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.latency_sum_ns as f64 / self.requests as f64 / 1e6
        }
    }

    /// Flash operations of every kind.
    pub fn flash_ops(&self) -> u64 {
        self.reads.iter().sum::<u64>() + self.programs.iter().sum::<u64>() + self.erases
    }

    fn from_window(base: &StatsSnapshot, end: &StatsSnapshot, latencies: &mut [u64]) -> Sim {
        latencies.sort_unstable();
        let n = latencies.len();
        let p999_ns = if n == 0 {
            0
        } else {
            latencies[(n * 999).div_ceil(1000).max(1) - 1]
        };
        let kinds = |a: aftl_flash::stats::KindCounts, b: aftl_flash::stats::KindCounts| {
            [a.data - b.data, a.across - b.across, a.map - b.map]
        };
        Sim {
            requests: n as u64,
            latency_sum_ns: latencies.iter().map(|&x| u128::from(x)).sum(),
            p999_ns,
            reads: kinds(end.flash.reads, base.flash.reads),
            programs: kinds(end.flash.programs, base.flash.programs),
            erases: end.flash.erases - base.flash.erases,
            gc_migrated: end.flash.gc_migrations - base.flash.gc_migrations,
            ..Sim::default()
        }
    }

    /// Add the scheme-side counters (cache, map engine, learned, Across)
    /// one scheme instance accumulated between `base` and `end`. Flash
    /// statistics live in the array and span the whole window; scheme
    /// counters restart when recovery installs a rebuilt scheme, so the
    /// crash workload adds one delta per scheme instance.
    fn add_scheme(&mut self, base: &StatsSnapshot, end: &StatsSnapshot) {
        let (c, bc) = (&end.counters, &base.counters);
        let (l, bl) = (&end.learned, &base.learned);
        let add = |into: &mut [u64], deltas: &[u64]| {
            for (x, d) in into.iter_mut().zip(deltas) {
                *x += d;
            }
        };
        add(
            &mut self.cache,
            &[
                end.cache.lookups - base.cache.lookups,
                end.cache.hits - base.cache.hits,
                end.cache.misses - base.cache.misses,
                end.cache.loads - base.cache.loads,
                end.cache.flushes - base.cache.flushes,
            ],
        );
        self.coalesced_lookups +=
            end.map_engine.coalesced_lookups - base.map_engine.coalesced_lookups;
        add(
            &mut self.learned,
            &[
                l.predict_hits - bl.predict_hits,
                l.mispredicts - bl.mispredicts,
                l.segment_rebuilds - bl.segment_rebuilds,
            ],
        );
        add(
            &mut self.across,
            &[
                c.across_direct_writes - bc.across_direct_writes,
                (c.profitable_amerge + c.unprofitable_amerge)
                    - (bc.profitable_amerge + bc.unprofitable_amerge),
                c.arollbacks - bc.arollbacks,
            ],
        );
    }
}

/// One scheme's part of a round.
#[derive(Debug, Clone)]
pub struct SchemeRun {
    /// The scheme.
    pub kind: SchemeKind,
    /// Host time building and aging the device.
    pub setup: HostTime,
    /// Host time of the measured window.
    pub window: HostTime,
    /// Operations attempted in the window (host requests, verification
    /// reads).
    pub ops: u64,
    /// Operations that failed.
    pub failed: u64,
    /// What was simulated.
    pub sim: Sim,
    /// Oracle pass: sectors that served the wrong version.
    pub violations: u64,
    /// Oracle pass: host ns inside `Oracle::check_read`.
    pub oracle_ns: u64,
}

impl SchemeRun {
    /// Operations completed in the window.
    pub fn completed(&self) -> u64 {
        self.ops - self.failed
    }
}

/// One round: the trace, then every scheme.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host time generating, writing and parsing the trace.
    pub trace: HostTime,
    /// Records the SYSTOR round trip changed.
    pub trace_mismatches: u64,
    /// Per-scheme results, in [`SCHEMES`] order.
    pub schemes: Vec<SchemeRun>,
}

impl Round {
    /// Set-up host time: trace preparation plus building and aging
    /// every scheme's device.
    pub fn setup(&self) -> HostTime {
        let mut t = self.trace;
        for s in &self.schemes {
            t.add(s.setup);
        }
        t
    }

    /// Operations attempted, trace records included once per scheme.
    pub fn ops(&self) -> u64 {
        self.schemes.iter().map(|s| s.ops).sum()
    }

    /// Failed operations, SYSTOR round-trip mismatches included.
    pub fn failed(&self) -> u64 {
        self.trace_mismatches
            + self
                .schemes
                .iter()
                .map(|s| s.failed + s.violations)
                .sum::<u64>()
    }
}

/// Run one round of `workload` with `seed`.
pub fn run_round(workload: Workload, seed: u64, mode: Mode) -> Round {
    prof::set_context(NO_SCHEME, Phase::Setup);
    let _round = prof::span(Name::Round);
    let mut spec = workload.trace_spec();
    spec.requests = mode.requests.unwrap_or(spec.requests);
    // The traced round's spans and the oracle pass go unprobed.
    let mut clock = Clock::new(!mode.traced && !mode.oracle);
    let ((trace, mismatches), trace_time) =
        clock.time(|| trace_io::prepare(spec, trace_seed(seed)));
    let schemes = SCHEMES
        .iter()
        .enumerate()
        .map(|(i, &kind)| {
            prof::set_context(i, Phase::Setup);
            let mut config = workload.config(kind, seed);
            config.track_content |= mode.oracle;
            let (mut d, setup) = clock.time(|| set_up(config, mode, trace.records.len()));
            prof::set_context(i, Phase::Measured);
            let ((crash, stalls), window) = clock.time(|| match workload {
                Workload::PaperLun6 => {
                    replay_direct(&mut d, &trace);
                    (None, 0)
                }
                Workload::NearfullHostedLun1 => (None, replay_hosted(&mut d, &trace, seed)),
                Workload::CrashLun3 => (replay_crash(&mut d, &trace, mode.oracle), 0),
            });
            d.run.setup = setup;
            d.run.window = window;
            d.finish(crash, stalls)
        })
        .collect();
    prof::set_context(NO_SCHEME, Phase::Setup);
    Round {
        trace: trace_time,
        trace_mismatches: mismatches,
        schemes,
    }
}

/// One scheme's device between set-up and the end of its window.
struct Device {
    ssd: Ssd,
    run: SchemeRun,
    base: StatsSnapshot,
    latencies: Vec<u64>,
    oracle: Option<Oracle>,
}

/// Build the device for `config` and, except for the crash workload, age
/// it; the crash workload arms its cut instead.
fn set_up(config: SimConfig, mode: Mode, requests: usize) -> Device {
    let kind = config.scheme;
    let wrap = mode.wrap.or(if mode.traced {
        Some(timed::timed)
    } else {
        None
    });
    let mut ssd = build_device(config, wrap).expect("benchmark device configuration is valid");
    let mut failed = 0;
    if let Some(cut) = ssd.config().crash.crash_at {
        // Armed before the first write, so every page carries OOB records.
        ssd.arm_crash(cut);
    } else {
        let _s = prof::span(Name::WarmupAge);
        let warm = ssd.config().warmup;
        if warmup::age(&mut ssd, &warm).is_err() {
            failed = 1;
        }
    }
    let base = ssd.snapshot();
    Device {
        ssd,
        run: SchemeRun {
            kind,
            setup: HostTime::default(),
            window: HostTime::default(),
            ops: 0,
            failed,
            sim: Sim::default(),
            violations: 0,
            oracle_ns: 0,
        },
        base,
        latencies: Vec::with_capacity(requests),
        oracle: mode.oracle.then(Oracle::new),
    }
}

impl Device {
    /// Close the window: what the device simulated since set-up.
    fn finish(mut self, crash: Option<Recovered>, stalls: u64) -> SchemeRun {
        let end = self.ssd.snapshot();
        let mut sim = Sim::from_window(&self.base, &end, &mut self.latencies);
        sim.queue_full_stalls = stalls;
        match crash {
            Some(Recovered {
                stats,
                pre_cut,
                after,
            }) => {
                sim.add_scheme(&self.base, &pre_cut);
                sim.add_scheme(&after, &end);
                sim.recovery = Some((stats.rebuild_flash_reads, stats.recovery_ns));
            }
            None => sim.add_scheme(&self.base, &end),
        }
        self.run.sim = sim;
        self.run
    }
}

/// Stamp a write with the oracle's next version, recording it as expected.
fn stamp(oracle: &mut Oracle, req: &mut HostRequest) {
    let _s = prof::span(Name::OracleStamp);
    oracle.stamp_write(req);
}

/// Check what a read served against the oracle; returns the violating
/// sectors (missing ones included) and charges the check's host time.
fn check(oracle: &Oracle, req: &HostRequest, served: &[ServedSector], run: &mut SchemeRun) -> u64 {
    let _s = prof::span(Name::OracleCheck);
    let t = Instant::now();
    let bad = oracle.check_read(req, served).len() as u64;
    run.oracle_ns += t.elapsed().as_nanos() as u64;
    bad
}

/// paper-lun6: one `Ssd::submit` per trace record at its timestamp.
fn replay_direct(d: &mut Device, trace: &Trace) {
    let Device {
        ssd,
        run,
        latencies,
        oracle,
        ..
    } = d;
    for (i, rec) in trace.records.iter().enumerate() {
        prof::set_request(i as u64 + 1);
        let mut req = timed::request_of(ssd, rec);
        if let (Some(o), ReqKind::Write) = (oracle.as_mut(), req.kind) {
            stamp(o, &mut req);
        }
        run.ops += 1;
        match submit(ssd, &req) {
            Ok(c) => {
                latencies.push(c.latency_ns);
                if let (Some(o), ReqKind::Read) = (oracle.as_ref(), req.kind) {
                    run.violations += check(o, &req, &c.served, run);
                }
            }
            Err(_) => run.failed += 1,
        }
    }
}

/// nearfull-hosted-lun1: the trace split round-robin over four open-loop
/// tenants issuing at their records' timestamps, WRR 4:2:1:1, through
/// `run_host`. Returns the queue-full stall count.
fn replay_hosted(d: &mut Device, trace: &Trace, seed: u64) -> u64 {
    let tenants: Vec<TenantConfig> = trace
        .shard(HOSTED_WEIGHTS.len())
        .into_iter()
        .zip(HOSTED_WEIGHTS)
        .enumerate()
        .map(|(i, (shard, weight))| TenantConfig {
            name: format!("tenant{i}"),
            trace: shard,
            issue: IssueModel::Open(ArrivalModel::TraceTimed { speedup: 1.0 }),
            queue_depth: 16,
            weight,
        })
        .collect();
    let host = HostConfig {
        arbitration: Arbitration::WeightedRoundRobin,
        device_inflight: 16,
        seed: host_seed(seed),
    };
    let Device {
        ssd,
        run,
        latencies,
        oracle,
        ..
    } = d;
    let mut device = HostDevice {
        ssd,
        oracle: oracle.as_mut(),
        run,
        next_request: 0,
    };
    let outcome = {
        let _s = prof::span(Name::HostRun);
        run_host(&mut device, tenants, &host, |c| {
            if !c.rejected {
                latencies.push(c.complete_ns.saturating_sub(c.arrival_ns));
            }
        })
    };
    device.run.ops += outcome
        .tenants
        .iter()
        .map(|t| t.completed + t.rejected)
        .sum::<u64>();
    outcome
        .tenants
        .iter()
        .map(|t| t.queue.queue_full_stalls)
        .sum()
}

/// The device behind the host engine: every command goes to `Ssd::submit`
/// at the host clock, idle gaps go to `Ssd::on_idle`; failures and
/// oracle checks are charged to the scheme's run.
struct HostDevice<'a> {
    ssd: &'a mut Ssd,
    oracle: Option<&'a mut Oracle>,
    run: &'a mut SchemeRun,
    next_request: u64,
}

impl QueuedDevice for HostDevice<'_> {
    fn submit(&mut self, now_ns: Nanos, record: &IoRecord) -> Served {
        self.next_request += 1;
        prof::set_request(self.next_request);
        let rec = IoRecord {
            at_ns: now_ns,
            ..*record
        };
        let mut req = timed::request_of(self.ssd, &rec);
        if let (Some(o), ReqKind::Write) = (self.oracle.as_deref_mut(), req.kind) {
            stamp(o, &mut req);
        }
        match submit(self.ssd, &req) {
            Ok(c) => {
                if let (Some(o), ReqKind::Read) = (self.oracle.as_deref(), req.kind) {
                    self.run.violations += check(o, &req, &c.served, self.run);
                }
                Served::Done {
                    complete_ns: now_ns.saturating_add(c.latency_ns),
                }
            }
            Err(_) => {
                self.run.failed += 1;
                Served::Rejected
            }
        }
    }

    fn on_idle(&mut self, now_ns: Nanos, until_ns: Nanos) {
        let _s = prof::span(Name::SsdIdle);
        if self.ssd.on_idle(now_ns, until_ns).is_err() {
            self.run.failed += 1;
        }
    }
}

/// A crash workload's recovery: the rebuild statistics and the device
/// snapshots just before and just after the rebuild.
struct Recovered {
    stats: RecoveryStats,
    pre_cut: StatsSnapshot,
    after: StatsSnapshot,
}

/// crash-lun3: stream the trace into the crash-armed device (checkpoint
/// every [`CHECKPOINT_EVERY`] writes) until the power cut, recover, then
/// read back every acknowledged sector and the torn request's extent.
///
/// The sector-stamp oracle records a write only once it is acknowledged,
/// so after recovery every acknowledged sector must serve the version the
/// oracle expects, and the torn request none of its own. With
/// `check_reads` the oracle also checks every read before the cut.
/// Returns `None` when no recovery ran.
fn replay_crash(d: &mut Device, trace: &Trace, check_reads: bool) -> Option<Recovered> {
    let Device {
        ssd,
        run,
        latencies,
        ..
    } = d;
    let mut oracle = Oracle::new();
    let mut written = vec![false; ssd.logical_sectors() as usize];
    let mut writes = 0u64;
    let mut torn: Option<HostRequest> = None;
    let mut last_at = 0;
    for (i, rec) in trace.records.iter().enumerate() {
        prof::set_request(i as u64 + 1);
        let mut req = timed::request_of(ssd, rec);
        last_at = req.at_ns;
        if req.kind == ReqKind::Write {
            if writes > 0 && writes.is_multiple_of(CHECKPOINT_EVERY) {
                let _s = prof::span(Name::RecoveryCheckpoint);
                ssd.take_checkpoint();
            }
            writes += 1;
            req.version = oracle.current_version() + 1;
        }
        run.ops += 1;
        match submit(ssd, &req) {
            Ok(c) => {
                latencies.push(c.latency_ns);
                match req.kind {
                    ReqKind::Write => {
                        stamp(&mut oracle, &mut req.clone());
                        written[req.sector as usize..req.end_sector() as usize].fill(true);
                    }
                    ReqKind::Read if check_reads => {
                        run.violations += check(&oracle, &req, &c.served, run);
                    }
                    ReqKind::Read => {}
                }
                if ssd.powered_off() {
                    // The cut fired in the GC slice after an acked write.
                    break;
                }
            }
            Err(FlashError::PowerCut) => {
                // A read cut short changes nothing; only a write is torn.
                if req.kind == ReqKind::Write {
                    torn = Some(req);
                }
                break;
            }
            Err(_) => run.failed += 1,
        }
    }
    if !ssd.powered_off() {
        // The workload is sized so the cut always fires; a run that never
        // cut measured no recovery.
        run.failed += 1;
        return None;
    }
    let pre_cut = ssd.snapshot();
    let stats = {
        let _s = prof::span(Name::RecoveryRebuild);
        ssd.power_cycle_recover()
    };
    let Ok(stats) = stats else {
        run.failed += 1;
        return None;
    };
    let after = ssd.snapshot();

    // Read back every acknowledged sector, one read per page-aligned run
    // of acknowledged sectors.
    let spp = ssd.spp() as usize;
    let mut t = last_at;
    let read_back = |ssd: &mut Ssd, req: HostRequest, run: &mut SchemeRun| {
        run.ops += 1;
        submit(ssd, &req).map(|c| c.served)
    };
    let mut start = 0;
    while start < written.len() {
        if !written[start] {
            start += 1;
            continue;
        }
        let page_end = (start / spp + 1) * spp;
        let mut end = start + 1;
        while end < page_end.min(written.len()) && written[end] {
            end += 1;
        }
        t += 1_000;
        let req = HostRequest::read(t, start as u64, (end - start) as u32);
        match read_back(ssd, req, run) {
            Ok(served) => run.failed += check(&oracle, &req, &served, run),
            Err(_) => run.failed += 1,
        }
        start = end;
    }
    // The torn request must be invisible: none of its sectors may serve
    // its version.
    if let Some(cut) = torn {
        t += 1_000;
        let req = HostRequest::read(t, cut.sector, cut.sectors);
        match read_back(ssd, req, run) {
            Ok(served) => {
                run.failed += served.iter().filter(|s| s.version == cut.version).count() as u64;
            }
            Err(_) => run.failed += 1,
        }
    }
    Some(Recovered {
        stats,
        pre_cut,
        after,
    })
}

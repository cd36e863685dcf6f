//! Timing wrappers around the simulator's public seams: a [`FtlScheme`]
//! decorator installed through `Ssd::with_scheme`, and `Ssd::submit`
//! inside a span.

use aftl_core::gc::GcReport;
use aftl_core::learned::LearnedStats;
use aftl_core::mapping::cache::CacheStats;
use aftl_core::mapping::engine::MapEngineStats;
use aftl_core::obs::SchemeEvent;
use aftl_core::recovery::SchemeImage;
use aftl_core::request::{HostRequest, ReqKind};
use aftl_core::scheme::{FtlEnv, FtlScheme, SchemeKind, ServiceOutcome};
use aftl_core::{AcrossFtl, BaselineFtl, LearnedFtl, MrsmFtl, SchemeCounters};
use aftl_flash::Result;
use aftl_sim::ssd::{Completed, Ssd};
use aftl_sim::SimConfig;
use aftl_trace::{IoOp, IoRecord};

use crate::prof::{self, Name};

/// A boxed scheme, as `Ssd::with_scheme` takes it.
pub type BoxedScheme = Box<dyn FtlScheme + Send>;

/// The scheme `config.scheme` names, built the way `Ssd::new` builds it.
pub fn build_scheme(config: &SimConfig) -> BoxedScheme {
    let (g, cfg) = (&config.geometry, config.scheme_cfg);
    match config.scheme {
        SchemeKind::Baseline => Box::new(BaselineFtl::new(g, cfg)),
        SchemeKind::Mrsm => Box::new(MrsmFtl::new(g, cfg)),
        SchemeKind::Across => Box::new(AcrossFtl::new(g, cfg)),
        SchemeKind::Learned => Box::new(LearnedFtl::new(g, cfg)),
    }
}

/// Build the device for `config`, optionally with its scheme wrapped.
pub fn build_device(
    config: SimConfig,
    wrap: Option<fn(BoxedScheme) -> BoxedScheme>,
) -> Result<Ssd> {
    let _s = prof::span(Name::SsdBuild);
    match wrap {
        None => Ssd::new(config),
        Some(wrap) => {
            let scheme = wrap(build_scheme(&config));
            Ssd::with_scheme(config, scheme)
        }
    }
}

/// A scheme decorator that opens a span around every call doing device
/// work and forwards every trait method — defaulted ones included — so
/// counters, statistics and checkpoints pass through unchanged.
pub struct Timed(pub BoxedScheme);

/// Wrap `inner` in the [`Timed`] decorator.
pub fn timed(inner: BoxedScheme) -> BoxedScheme {
    Box::new(Timed(inner))
}

impl FtlScheme for Timed {
    fn kind(&self) -> SchemeKind {
        self.0.kind()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        let _s = prof::span(Name::SchemeWrite);
        self.0.write(env, req)
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        let _s = prof::span(Name::SchemeRead);
        self.0.read(env, req)
    }

    fn maybe_gc(&mut self, env: &mut FtlEnv<'_>) -> Result<GcReport> {
        let _s = prof::span(Name::GcMaybe);
        self.0.maybe_gc(env)
    }

    fn idle_gc(&mut self, env: &mut FtlEnv<'_>, max_pages: u64) -> Result<GcReport> {
        let _s = prof::span(Name::GcIdle);
        self.0.idle_gc(env, max_pages)
    }

    fn counters(&self) -> &SchemeCounters {
        self.0.counters()
    }

    fn cache_stats(&self) -> CacheStats {
        self.0.cache_stats()
    }

    fn map_engine_stats(&self) -> MapEngineStats {
        self.0.map_engine_stats()
    }

    fn learned_stats(&self) -> LearnedStats {
        self.0.learned_stats()
    }

    fn mapping_table_bytes(&self) -> u64 {
        self.0.mapping_table_bytes()
    }

    fn logical_pages(&self) -> u64 {
        self.0.logical_pages()
    }

    fn set_event_log(&mut self, enabled: bool) {
        self.0.set_event_log(enabled)
    }

    fn drain_events(&mut self, into: &mut Vec<SchemeEvent>) {
        self.0.drain_events(into)
    }

    fn capture_image(&self) -> Option<SchemeImage> {
        let _s = prof::span(Name::RecoveryCapture);
        self.0.capture_image()
    }
}

/// `Ssd::submit` inside an `ssd.submit` span.
pub fn submit(ssd: &mut Ssd, req: &HostRequest) -> Result<Completed> {
    let _s = prof::span(Name::SsdSubmit);
    ssd.submit(req)
}

/// The host request a trace record asks for, clamped into `ssd`'s
/// logical space (what `Ssd::submit_record` does).
pub fn request_of(ssd: &Ssd, rec: &IoRecord) -> HostRequest {
    let mut req = HostRequest {
        at_ns: rec.at_ns,
        sector: rec.sector,
        sectors: rec.sectors,
        kind: match rec.op {
            IoOp::Read => ReqKind::Read,
            IoOp::Write => ReqKind::Write,
        },
        version: 0,
    };
    ssd.clamp(&mut req);
    req
}

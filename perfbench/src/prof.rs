//! In-memory span profiler for the traced run.
//!
//! A span is one timed call across a layer boundary: a name, a start and
//! end on the host clock, the span that was open when it started (its
//! parent) and the request id current at the time. Self time — a span's
//! duration minus the time its child spans cover — is folded online into
//! per-(scheme, phase, name) totals, so the totals are exact however many
//! spans a run opens. Individual span records are kept up to
//! [`SPAN_CAP`] and written out once the run ends.
//!
//! The profiler is thread-local and off by default: with it off, [`span`]
//! costs one thread-local flag read and records nothing.

use std::cell::{Cell, RefCell};
use std::io::Write;
use std::time::Instant;

/// The most individual span records kept for export per run; totals stay
/// exact past the cap.
pub const SPAN_CAP: usize = 200_000;

/// Every span name the benchmark records, grouped by the layer (module)
/// whose time it measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One measurement round (root; its self time is benchmark overhead).
    Round,
    /// `VdiWorkload::generate`.
    TraceGen,
    /// SYSTOR CSV formatting plus `parse_systor`.
    TraceParse,
    /// `Ssd::new` / `Ssd::with_scheme`.
    SsdBuild,
    /// `warmup::age`.
    WarmupAge,
    /// `Ssd::submit` / `Ssd::submit_record`.
    SsdSubmit,
    /// `Ssd::on_idle`.
    SsdIdle,
    /// `FtlScheme::write`.
    SchemeWrite,
    /// `FtlScheme::read`.
    SchemeRead,
    /// `FtlScheme::maybe_gc`.
    GcMaybe,
    /// `FtlScheme::idle_gc`.
    GcIdle,
    /// `aftl_host::run_host` (device callbacks are child spans).
    HostRun,
    /// `Ssd::take_checkpoint`.
    RecoveryCheckpoint,
    /// `FtlScheme::capture_image`, inside a checkpoint.
    RecoveryCapture,
    /// `Ssd::power_cycle_recover`.
    RecoveryRebuild,
    /// `Oracle::stamp_write`.
    OracleStamp,
    /// `Oracle::check_read`.
    OracleCheck,
}

impl Name {
    /// Number of names.
    pub const COUNT: usize = 17;

    /// Every name, in index order.
    pub const ALL: [Name; Name::COUNT] = [
        Name::Round,
        Name::TraceGen,
        Name::TraceParse,
        Name::SsdBuild,
        Name::WarmupAge,
        Name::SsdSubmit,
        Name::SsdIdle,
        Name::SchemeWrite,
        Name::SchemeRead,
        Name::GcMaybe,
        Name::GcIdle,
        Name::HostRun,
        Name::RecoveryCheckpoint,
        Name::RecoveryCapture,
        Name::RecoveryRebuild,
        Name::OracleStamp,
        Name::OracleCheck,
    ];

    /// Span label in the exported records.
    pub fn label(self) -> &'static str {
        match self {
            Name::Round => "round",
            Name::TraceGen => "trace.gen",
            Name::TraceParse => "trace.parse",
            Name::SsdBuild => "ssd.build",
            Name::WarmupAge => "warmup.age",
            Name::SsdSubmit => "ssd.submit",
            Name::SsdIdle => "ssd.idle",
            Name::SchemeWrite => "scheme.write",
            Name::SchemeRead => "scheme.read",
            Name::GcMaybe => "gc.maybe_gc",
            Name::GcIdle => "gc.idle_gc",
            Name::HostRun => "host.run_host",
            Name::RecoveryCheckpoint => "recovery.checkpoint",
            Name::RecoveryCapture => "recovery.capture",
            Name::RecoveryRebuild => "recovery.rebuild",
            Name::OracleStamp => "oracle.stamp",
            Name::OracleCheck => "oracle.check",
        }
    }

    /// Whether the span's self time belongs to a named layer (everything
    /// but the round root, whose self time is the benchmark's own loop).
    pub fn is_layer(self) -> bool {
        self != Name::Round
    }
}

/// Which part of a scheme's round the current span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Trace preparation, device build and aging.
    Setup,
    /// The measured window: replay, checkpoints, recovery, verification.
    Measured,
}

/// Scheme slot for spans that belong to no scheme (trace preparation and
/// the round root).
pub const NO_SCHEME: usize = 4;

/// Accumulated time of one (scheme, phase, name) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    /// Spans closed.
    pub calls: u64,
    /// Summed span durations (ns).
    pub total_ns: u64,
    /// Summed self times (ns).
    pub self_ns: u64,
}

/// One exported span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span name.
    pub name: Name,
    /// Start, ns since the profiler was enabled.
    pub start_ns: u64,
    /// End, ns since the profiler was enabled.
    pub end_ns: u64,
    /// Index of the parent's record (`u32::MAX`: none or not kept).
    pub parent: u32,
    /// Request id current when the span opened (0: none).
    pub request: u64,
}

struct Open {
    cell: usize,
    start: Instant,
    child_ns: u64,
    record: u32,
}

/// Profiler state of one thread.
pub struct Profiler {
    epoch: Instant,
    stack: Vec<Open>,
    aggs: Vec<Agg>,
    records: Vec<SpanRecord>,
    scheme: usize,
    phase: Phase,
    request: u64,
}

fn cell(scheme: usize, phase: Phase, name: Name) -> usize {
    (scheme * 2 + phase as usize) * Name::COUNT + name as usize
}

impl Profiler {
    fn new() -> Self {
        Profiler {
            epoch: Instant::now(),
            stack: Vec::with_capacity(16),
            aggs: vec![Agg::default(); (NO_SCHEME + 1) * 2 * Name::COUNT],
            records: Vec::new(),
            scheme: NO_SCHEME,
            phase: Phase::Setup,
            request: 0,
        }
    }

    /// Totals of one cell.
    pub fn agg(&self, scheme: usize, phase: Phase, name: Name) -> Agg {
        self.aggs[cell(scheme, phase, name)]
    }

    /// Self time summed over every cell whose name is a layer.
    pub fn layer_self_ns(&self) -> u64 {
        let mut sum = 0;
        for scheme in 0..=NO_SCHEME {
            for phase in [Phase::Setup, Phase::Measured] {
                for name in Name::ALL {
                    if name.is_layer() {
                        sum += self.agg(scheme, phase, name).self_ns;
                    }
                }
            }
        }
        sum
    }

    /// The kept span records, in opening order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Write the kept records as CSV (`name,start_ns,end_ns,parent,request`).
    pub fn write_csv(&self, mut out: impl Write) -> std::io::Result<()> {
        writeln!(out, "name,start_ns,end_ns,parent,request")?;
        for r in &self.records {
            let parent = if r.parent == u32::MAX {
                String::new()
            } else {
                r.parent.to_string()
            };
            writeln!(
                out,
                "{},{},{},{},{}",
                r.name.label(),
                r.start_ns,
                r.end_ns,
                parent,
                r.request
            )?;
        }
        Ok(())
    }

    fn enter(&mut self, name: Name) {
        let start = Instant::now();
        let record = if self.records.len() < SPAN_CAP {
            let parent = self.stack.last().map_or(u32::MAX, |o| o.record);
            self.records.push(SpanRecord {
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent,
                request: self.request,
            });
            (self.records.len() - 1) as u32
        } else {
            u32::MAX
        };
        self.stack.push(Open {
            cell: cell(self.scheme, self.phase, name),
            start,
            child_ns: 0,
            record,
        });
    }

    fn exit(&mut self) {
        let end = Instant::now();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end.duration_since(open.start).as_nanos() as u64;
        let agg = &mut self.aggs[open.cell];
        agg.calls += 1;
        agg.total_ns += dur;
        agg.self_ns += dur.saturating_sub(open.child_ns);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if open.record != u32::MAX {
            self.records[open.record as usize].end_ns =
                end.duration_since(self.epoch).as_nanos() as u64;
        }
    }
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static PROF: RefCell<Option<Profiler>> = const { RefCell::new(None) };
}

/// Start recording on this thread (drops anything recorded before).
pub fn enable() {
    PROF.with(|p| *p.borrow_mut() = Some(Profiler::new()));
    ENABLED.with(|e| e.set(true));
}

/// Stop recording and hand back what was recorded.
pub fn disable() -> Option<Profiler> {
    ENABLED.with(|e| e.set(false));
    PROF.with(|p| p.borrow_mut().take())
}

/// Whether the profiler is recording on this thread.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(|e| e.get())
}

fn with<R>(f: impl FnOnce(&mut Profiler) -> R) -> Option<R> {
    PROF.with(|p| p.borrow_mut().as_mut().map(f))
}

/// Attribute the spans that follow to `scheme` (index into the scheme
/// list, or [`NO_SCHEME`]) and `phase`.
pub fn set_context(scheme: usize, phase: Phase) {
    if enabled() {
        with(|p| {
            p.scheme = scheme;
            p.phase = phase;
        });
    }
}

/// Tag the spans that follow with request id `id`.
#[inline]
pub fn set_request(id: u64) {
    if enabled() {
        with(|p| p.request = id);
    }
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard is dropped"]
pub struct Guard(bool);

impl Drop for Guard {
    #[inline]
    fn drop(&mut self) {
        if self.0 {
            with(Profiler::exit);
        }
    }
}

/// Open a span named `name` (a no-op guard while the profiler is off).
#[inline]
pub fn span(name: Name) -> Guard {
    if enabled() {
        with(|p| p.enter(name));
        Guard(true)
    } else {
        Guard(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {}
    }

    #[test]
    fn self_time_excludes_children() {
        enable();
        set_context(0, Phase::Measured);
        {
            let _outer = span(Name::SsdSubmit);
            spin(200_000);
            set_request(7);
            let _inner = span(Name::SchemeWrite);
            spin(300_000);
        }
        let p = disable().unwrap();
        let outer = p.agg(0, Phase::Measured, Name::SsdSubmit);
        let inner = p.agg(0, Phase::Measured, Name::SchemeWrite);
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.self_ns >= 300_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns >= 200_000);
        assert_eq!(p.layer_self_ns(), outer.self_ns + inner.self_ns);
        let recs = p.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[1].parent, 0, "inner span points at its parent");
        assert_eq!(recs[1].request, 7);
        assert!(recs[0].end_ns >= recs[1].end_ns);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let _ = disable();
        let _g = span(Name::SsdSubmit);
        assert!(!enabled());
        assert!(disable().is_none());
    }
}

//! Learned LPN→PPN mapping: a fourth FTL comparator that kills
//! translation-page double reads (LearnedFTL-style, ROADMAP item 1).
//!
//! The three paper schemes all pay a "double read" when the DFTL mapping
//! cache misses: a map-in flash read fetches the translation page before
//! the data read can issue. This module replaces most of those map-ins
//! with **piecewise-linear models** over LPN→PPN runs:
//!
//! * A `RunTracker` watches every data-page program. Consecutive
//!   physical pages whose LPNs advance by a constant stride open a
//!   *pending run*; when a run closes (adjacency breaks, the tracker
//!   fills, or a member is overwritten) it is installed into the
//!   `SegmentStore` as a `Segment` — an exact linear model
//!   `ppn = base + (lpn − start) / stride` with integer arithmetic only.
//!   Sequential host writes and the GC migrator's sorted repack are the
//!   two big run producers.
//! * The read path is **predict-then-verify**: the model predicts a PPN
//!   window ([`LearnedConfig::max_error`] wide, default exact), the
//!   candidate page's on-flash OOB LPN tag verifies the prediction, and
//!   the verifying read *is* the data read — no translation-page access
//!   at all. A mis-predict punches the stale member out of its segment
//!   and falls back to the PMT via the shared [`MapEngine`], so serial
//!   mode stays deterministic and pipelined mode batches fallback
//!   map-ins exactly like the baseline.
//! * Writes and GC relocation **retrain**: every program punches the
//!   LPN's old membership (segments accumulate holes; at
//!   [`LearnedConfig::retrain_threshold`] holes the segment is rebuilt by
//!   splitting into its hole-free subruns) and feeds the new (lpn, ppn)
//!   pair to the tracker. The learned GC migrator buffers a slice's
//!   valid data pages, sorts them by LPN and repacks them into one plane
//!   so relocation *recreates* runs instead of shredding them.
//!
//! Simulation concession, documented for honesty: probing a candidate's
//! OOB tag via [`FlashArray::page_info`] is free when the candidate is
//! invalid/erased (a real device would discover that from the same read
//! it charges); a *valid* candidate with the wrong tag charges a full
//! wasted flash read. With the default exact models (`max_error = 0`)
//! mis-predicts are rare — punch-on-write keeps installed members
//! current — so the charged path is the common one.

use aftl_flash::{
    Allocator, FlashArray, Nanos, PageInfo, PageKind, Ppn, Result, SectorStamp, StreamId,
};
use serde::{Deserialize, Serialize};

use crate::counters::SchemeCounters;
use crate::gc::{GcConfig, GcReport, GcState, PageMigrator};
use crate::mapping::cache::CacheStats;
use crate::mapping::engine::{MapEngine, MapEngineStats};
use crate::mapping::pmt::PageMapTable;
use crate::mapping::touched::TouchedSet;
use crate::recover::{
    lost_stamps_of, program_relocating, program_relocating_in_plane, read_with_retry, PageRead,
};
use crate::request::{HostRequest, ReqKind};
use crate::scheme::{
    program_normal_extent, served_from_page, served_lost, served_unwritten, FtlEnv, FtlScheme,
    SchemeConfig, SchemeKind, ServiceOutcome,
};

fn default_retrain_threshold() -> u32 {
    16
}

fn default_min_run() -> u32 {
    1
}

fn default_max_segments() -> u32 {
    4096
}

/// Learned-mapping knobs, carried in [`SchemeConfig`]. Serde-defaulted so
/// pre-v8 manifests still deserialize; only the learned scheme reads them.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LearnedConfig {
    /// Half-width of the prediction window in pages: a prediction probes
    /// `pred`, then `pred±1` … `pred±max_error` until a candidate's OOB
    /// tag verifies. `0` (the default) means models are exact — segments
    /// are built only from observed runs, so the window buys nothing
    /// unless segments are allowed to approximate.
    #[serde(default)]
    pub max_error: u32,
    /// Rebuild (split into hole-free subruns) a segment once this many of
    /// its members have been punched out by overwrites or relocation.
    #[serde(default = "default_retrain_threshold")]
    pub retrain_threshold: u32,
    /// Minimum members for a closed run to be installed as a segment. The
    /// default of 1 ingests every program — isolated single-page writes
    /// become single-member segments, like LeaFTL's point outliers — so
    /// random-overwrite regions stay predictable, not just sequential runs.
    #[serde(default = "default_min_run")]
    pub min_run: u32,
    /// Segment-store capacity; at capacity, installing a segment evicts a
    /// low-coverage victim (clock scan over live member counts).
    #[serde(default = "default_max_segments")]
    pub max_segments: u32,
}

impl Default for LearnedConfig {
    fn default() -> Self {
        LearnedConfig {
            max_error: 0,
            retrain_threshold: default_retrain_threshold(),
            min_run: default_min_run(),
            max_segments: default_max_segments(),
        }
    }
}

/// Learned-mapping event counters (RunReport v8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LearnedStats {
    /// Reads served straight off a verified prediction (no PMT access).
    pub predict_hits: u64,
    /// Predictions whose window held no page tagged with the wanted LPN;
    /// the read fell back to the PMT and the stale member was punched.
    pub mispredicts: u64,
    /// Flash reads issued on the predict path: the verifying data read of
    /// every hit plus any charged wrong-tag window probes.
    pub verify_reads: u64,
    /// Segments rebuilt (split into hole-free subruns) after accumulating
    /// [`LearnedConfig::retrain_threshold`] punched members.
    pub segment_rebuilds: u64,
    /// Predict hits whose PMT fallback would have issued a map-in flash
    /// read at that moment (translation page not resident but on flash) —
    /// the double reads the model actually killed.
    pub map_ins_saved: u64,
}

impl LearnedStats {
    /// Accumulate another device's counters (fleet aggregation).
    pub fn merge(&mut self, o: &LearnedStats) {
        self.predict_hits += o.predict_hits;
        self.mispredicts += o.mispredicts;
        self.verify_reads += o.verify_reads;
        self.segment_rebuilds += o.segment_rebuilds;
        self.map_ins_saved += o.map_ins_saved;
    }

    /// Field-wise `self − b` (measured-window deltas).
    pub fn delta(&self, b: &LearnedStats) -> LearnedStats {
        LearnedStats {
            predict_hits: self.predict_hits - b.predict_hits,
            mispredicts: self.mispredicts - b.mispredicts,
            verify_reads: self.verify_reads - b.verify_reads,
            segment_rebuilds: self.segment_rebuilds - b.segment_rebuilds,
            map_ins_saved: self.map_ins_saved - b.map_ins_saved,
        }
    }
}

// ---------------------------------------------------------------------------
// Segment store
// ---------------------------------------------------------------------------

/// One piecewise-linear model: the members `start_lpn + i × stride` for
/// `i < len` map to `base_ppn + i`. A member punched out since the run was
/// observed (overwritten or relocated) is a *hole*: it is never predicted.
/// Which members are holes is recorded by the store's owner index, not
/// here — a member is live exactly while its LPN's owner is this segment.
#[derive(Debug, Clone, Copy)]
struct Segment {
    start_lpn: u64,
    /// LPN distance between consecutive members (≥ 1; the plane-striping
    /// allocator makes stride = #planes the common case for sequential
    /// host writes, stride 1 for the GC repack).
    stride: u64,
    base_ppn: u64,
    len: u32,
    /// Punched members.
    holes: u32,
    /// Whether the run was created by GC relocation (diagnostics only).
    from_gc: bool,
}

impl Segment {
    /// LPN of member `i`.
    #[inline]
    fn lpn(&self, i: u32) -> u64 {
        self.start_lpn + u64::from(i) * self.stride
    }

    /// Members not punched out.
    #[inline]
    fn live(&self) -> u32 {
        self.len - self.holes
    }
}

/// `owner` entry of an LPN that is no segment's live member.
const NO_OWNER: u32 = u32::MAX;

/// The installed piecewise-linear models, indexed by owner.
///
/// Segments live in a slab (freed slots are reused). Stride > 1 segments
/// interleave and a segment's span can reach tens of thousands of LPNs,
/// so no ordering of the segments bounds a lookup; instead `owner[lpn]` is
/// the slot of the segment holding `lpn` as a live member, which makes
/// every lookup O(1). `order` lists the slots by `start_lpn` (ties in install
/// order) and is walked only by the eviction clock.
///
/// Invariant (maintained by punch-on-program): at most one segment holds
/// any LPN as a live member, and that member's prediction is current — a
/// program always punches the LPN's old membership before the new pair can
/// be observed. Predictions can still go stale through capacity eviction
/// races only in the sense of *disappearing*, never of being wrong, so the
/// verify path is a safety net rather than the common case.
///
/// The owner index costs 4 B of host memory per logical page (grown
/// lazily up to the highest LPN ever installed). It is simulator
/// bookkeeping, not modelled device DRAM: [`SegmentStore::model_bytes`]
/// charges only the segments themselves.
#[derive(Debug)]
struct SegmentStore {
    slab: Vec<Segment>,
    /// Free slab slots.
    free: Vec<u32>,
    /// Per-LPN owning slot, or [`NO_OWNER`].
    owner: Vec<u32>,
    /// Slots sorted by `start_lpn`, ties in install order.
    order: Vec<u32>,
    cfg: LearnedConfig,
    /// Clock hand (an index into `order`) for capacity eviction.
    evict_cursor: usize,
}

impl SegmentStore {
    fn new(cfg: LearnedConfig) -> Self {
        SegmentStore {
            slab: Vec::new(),
            free: Vec::new(),
            owner: Vec::new(),
            order: Vec::new(),
            cfg,
            evict_cursor: 0,
        }
    }

    /// Slot of the segment holding `lpn` as a live member.
    #[inline]
    fn owner_of(&self, lpn: u64) -> Option<u32> {
        let slot = *self.owner.get(lpn as usize)?;
        (slot != NO_OWNER).then_some(slot)
    }

    /// Model prediction for `lpn`.
    fn predict(&self, lpn: u64) -> Option<Ppn> {
        let seg = &self.slab[self.owner_of(lpn)? as usize];
        Some(Ppn(seg.base_ppn + (lpn - seg.start_lpn) / seg.stride))
    }

    /// Punch `lpn` out of its segment (the LPN moved or died). Splits the
    /// segment into hole-free subruns once it carries
    /// [`LearnedConfig::retrain_threshold`] holes.
    fn punch(&mut self, lpn: u64, stats: &mut LearnedStats) {
        let Some(slot) = self.owner_of(lpn) else {
            return;
        };
        self.owner[lpn as usize] = NO_OWNER;
        let seg = &mut self.slab[slot as usize];
        seg.holes += 1;
        if seg.holes >= self.cfg.retrain_threshold || seg.live() < self.cfg.min_run {
            self.rebuild(slot);
            stats.segment_rebuilds += 1;
        }
    }

    /// Replace the segment in `slot` by its maximal hole-free subruns of
    /// at least `min_run` members.
    fn rebuild(&mut self, slot: u32) {
        self.unlink(slot);
        let seg = self.slab[slot as usize];
        let mut run_start: u32 = 0;
        for m in 0..=seg.len {
            if m < seg.len && self.owner[seg.lpn(m) as usize] == slot {
                continue;
            }
            // Members [run_start, m) are live; member m (if any) is a hole.
            let keep = m - run_start >= self.cfg.min_run;
            let new_owner = if keep {
                self.insert(Segment {
                    start_lpn: seg.lpn(run_start),
                    stride: seg.stride,
                    base_ppn: seg.base_ppn + u64::from(run_start),
                    len: m - run_start,
                    holes: 0,
                    from_gc: seg.from_gc,
                })
            } else {
                NO_OWNER
            };
            for i in run_start..m {
                self.owner[seg.lpn(i) as usize] = new_owner;
            }
            run_start = m + 1;
        }
        // Freed last, so each subrun gets a slot of its own while the loop
        // still reads `slot` out of the owner index.
        self.free.push(slot);
    }

    /// Install a closed run as a segment (callers filtered by `min_run`);
    /// member `hole`, if any, was punched before installation.
    fn install(&mut self, seg: Segment, hole: Option<u32>) {
        debug_assert!(seg.stride >= 1 && seg.len >= 1);
        debug_assert_eq!(seg.holes, u32::from(hole.is_some()));
        let last = seg.lpn(seg.len - 1) as usize;
        if self.owner.len() <= last {
            self.owner.resize(last + 1, NO_OWNER);
        }
        let slot = self.insert(seg);
        for m in (0..seg.len).filter(|&m| Some(m) != hole) {
            let owner = &mut self.owner[seg.lpn(m) as usize];
            debug_assert_eq!(*owner, NO_OWNER, "LPN live in two segments");
            *owner = slot;
        }
        self.enforce_capacity();
    }

    /// Place `seg` in a slab slot and link the slot into `order` after
    /// every equal start. The caller claims its members in `owner`.
    fn insert(&mut self, seg: Segment) -> u32 {
        let start = seg.start_lpn;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = seg;
                slot
            }
            None => {
                self.slab.push(seg);
                (self.slab.len() - 1) as u32
            }
        };
        let slab = &self.slab;
        let at = self
            .order
            .partition_point(|&s| slab[s as usize].start_lpn <= start);
        self.order.insert(at, slot);
        slot
    }

    /// Remove `slot` from `order` (its slab entry and owner claims stay).
    fn unlink(&mut self, slot: u32) {
        let start = self.slab[slot as usize].start_lpn;
        let slab = &self.slab;
        let first = self
            .order
            .partition_point(|&s| slab[s as usize].start_lpn < start);
        let at = first
            + self.order[first..]
                .iter()
                .position(|&s| s == slot)
                .expect("installed slot is linked");
        self.order.remove(at);
    }

    /// Evict low-coverage segments while over capacity: an 8-probe clock
    /// scan over `order` picks the victim with the fewest live members.
    fn enforce_capacity(&mut self) {
        while self.order.len() > self.cfg.max_segments as usize {
            let n = self.order.len();
            let live = |k: usize| self.slab[self.order[k % n] as usize].live();
            let mut victim = self.evict_cursor % n;
            let mut best = live(victim);
            for k in 1..8.min(n) {
                let l = live(self.evict_cursor + k);
                if l < best {
                    best = l;
                    victim = (self.evict_cursor + k) % n;
                }
            }
            self.evict_cursor = victim;
            let slot = self.order.remove(victim);
            let seg = &self.slab[slot as usize];
            for m in 0..seg.len {
                let owner = &mut self.owner[seg.lpn(m) as usize];
                if *owner == slot {
                    *owner = NO_OWNER;
                }
            }
            self.free.push(slot);
        }
    }

    /// Installed segments, in `order`.
    fn segments(&self) -> impl Iterator<Item = &Segment> {
        self.order.iter().map(|&s| &self.slab[s as usize])
    }

    /// Installed segments.
    #[inline]
    fn len(&self) -> usize {
        self.order.len()
    }

    /// Segments created by the GC repack.
    fn gc_trained_count(&self) -> usize {
        self.segments().filter(|s| s.from_gc).count()
    }

    /// Modelled DRAM footprint: 16 B per segment (start/stride/base/len
    /// packed) plus 4 B per hole.
    fn model_bytes(&self) -> u64 {
        self.segments().map(|s| 16 + 4 * u64::from(s.holes)).sum()
    }
}

// ---------------------------------------------------------------------------
// Run tracker
// ---------------------------------------------------------------------------

/// A run still being observed: physical pages `base_ppn + i` carrying LPNs
/// in arithmetic progression. `stride` is 0 until the second member fixes
/// it.
#[derive(Debug, Clone)]
struct PendingRun {
    start_lpn: u64,
    stride: u64,
    base_ppn: u64,
    len: u32,
    last_lpn: u64,
    from_gc: bool,
    /// Last-update tick, for LRU eviction.
    tick: u64,
}

impl PendingRun {
    fn index_of(&self, lpn: u64) -> Option<u32> {
        if self.stride == 0 {
            return (lpn == self.start_lpn).then_some(0);
        }
        if lpn < self.start_lpn {
            return None;
        }
        let d = lpn - self.start_lpn;
        if !d.is_multiple_of(self.stride) {
            return None;
        }
        let i = d / self.stride;
        (i < u64::from(self.len)).then_some(i as u32)
    }

    fn into_segment(self, min_run: u32, hole: Option<u32>) -> Option<Segment> {
        let holes = u32::from(hole.is_some());
        if self.len - holes >= min_run {
            Some(Segment {
                start_lpn: self.start_lpn,
                stride: self.stride.max(1),
                base_ppn: self.base_ppn,
                len: self.len,
                holes,
                from_gc: self.from_gc,
            })
        } else {
            None
        }
    }
}

/// Tracks open LPN→PPN runs at program time and installs closed ones into
/// the [`SegmentStore`]. Keyed by physical adjacency: a program at
/// `base + len` whose LPN continues the progression extends the run;
/// anything else closes it. Pending runs are exact mappings too, so the
/// read path consults them alongside installed segments.
#[derive(Debug)]
struct RunTracker {
    pending: Vec<PendingRun>,
    capacity: usize,
    tick: u64,
}

impl RunTracker {
    fn new(capacity: usize) -> Self {
        RunTracker {
            pending: Vec::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Observe a data-page program of `lpn` at `ppn`.
    fn note_program(&mut self, lpn: u64, ppn: Ppn, from_gc: bool, store: &mut SegmentStore) {
        self.tick += 1;
        let p = ppn.0;
        if let Some(i) = self
            .pending
            .iter()
            .position(|r| r.base_ppn + u64::from(r.len) == p)
        {
            let r = &mut self.pending[i];
            let extends = if r.stride == 0 {
                lpn > r.last_lpn
            } else {
                lpn == r.last_lpn.wrapping_add(r.stride)
            };
            if extends {
                if r.stride == 0 {
                    r.stride = lpn - r.last_lpn;
                }
                r.len += 1;
                r.last_lpn = lpn;
                r.tick = self.tick;
                return;
            }
            // Physically adjacent but the LPN progression broke: close.
            let closed = self.pending.swap_remove(i);
            self.close(closed, None, store);
        }
        self.open(lpn, p, from_gc, store);
    }

    fn open(&mut self, lpn: u64, ppn: u64, from_gc: bool, store: &mut SegmentStore) {
        if self.pending.len() >= self.capacity {
            // Evict the least recently extended run.
            let (i, _) = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.tick)
                .expect("capacity ≥ 1 ⇒ nonempty");
            let closed = self.pending.swap_remove(i);
            self.close(closed, None, store);
        }
        self.pending.push(PendingRun {
            start_lpn: lpn,
            stride: 0,
            base_ppn: ppn,
            len: 1,
            last_lpn: lpn,
            from_gc,
            tick: self.tick,
        });
    }

    fn close(&mut self, run: PendingRun, hole: Option<u32>, store: &mut SegmentStore) {
        if let Some(seg) = run.into_segment(store.cfg.min_run, hole) {
            store.install(seg, hole);
        }
    }

    /// `lpn` was overwritten or relocated: if it is a member of a pending
    /// run, close that run with the member punched out (its mapping just
    /// went stale).
    fn punch(&mut self, lpn: u64, store: &mut SegmentStore) {
        if let Some(i) = self.pending.iter().position(|r| r.index_of(lpn).is_some()) {
            let run = self.pending.swap_remove(i);
            let hole = run.index_of(lpn);
            self.close(run, hole, store);
        }
    }

    /// Exact prediction from a pending run.
    fn predict(&self, lpn: u64) -> Option<Ppn> {
        self.pending
            .iter()
            .find_map(|r| r.index_of(lpn).map(|m| Ppn(r.base_ppn + u64::from(m))))
    }
}

// ---------------------------------------------------------------------------
// The learned FTL scheme
// ---------------------------------------------------------------------------

/// How many runs the tracker keeps open at once — comfortably above the
/// plane count of any modelled device, so per-plane host streams and the
/// GC repack never thrash each other out.
const TRACKER_CAPACITY: usize = 32;

/// The learned-mapping FTL: baseline page mapping plus the segment store
/// and predict-then-verify read path described in the module docs.
pub struct LearnedFtl {
    cfg: SchemeConfig,
    gc: GcState,
    pmt: PageMapTable,
    engine: MapEngine,
    counters: SchemeCounters,
    touched_tpages: TouchedSet,
    entries_per_tpage: u64,
    page_bytes: u32,
    store: SegmentStore,
    tracker: RunTracker,
    stats: LearnedStats,
    /// Round-robin plane for the GC repack (each flush fills one plane so
    /// its programs are physically consecutive).
    gc_plane_cursor: u64,
}

impl LearnedFtl {
    /// Construct a learned FTL for the given device geometry.
    pub fn new(env_geometry: &aftl_flash::Geometry, cfg: SchemeConfig) -> Self {
        let page_bytes = env_geometry.page_bytes;
        let entries_per_tpage = u64::from(page_bytes) / crate::baseline::ENTRY_BYTES;
        let engine = MapEngine::new(cfg.cache_tpages(page_bytes), cfg.pipeline);
        LearnedFtl {
            gc: GcState::new(GcConfig {
                threshold: cfg.gc_threshold,
                hysteresis: cfg.gc_hysteresis,
                tuning: cfg.gc,
            }),
            store: SegmentStore::new(cfg.learned),
            tracker: RunTracker::new(TRACKER_CAPACITY),
            cfg,
            pmt: PageMapTable::new(0),
            engine,
            counters: SchemeCounters::default(),
            touched_tpages: TouchedSet::new(),
            entries_per_tpage,
            page_bytes,
            stats: LearnedStats::default(),
            gc_plane_cursor: 0,
        }
    }

    fn ensure_pmt(&mut self) {
        if self.pmt.logical_pages() == 0 {
            self.pmt = PageMapTable::new(self.cfg.logical_pages);
        }
    }

    /// Construct a learned FTL preloaded with a recovered mapping (see
    /// [`crate::recovery`]). Segments and runs start empty — reads fall
    /// back to the PMT and models retrain as writes arrive.
    pub fn from_image(
        geometry: &aftl_flash::Geometry,
        cfg: SchemeConfig,
        pages: &[(u64, Ppn)],
    ) -> Self {
        let mut ftl = Self::new(geometry, cfg);
        ftl.ensure_pmt();
        for &(lpn, ppn) in pages {
            ftl.pmt.set_ppn(lpn, ppn);
        }
        ftl
    }

    #[inline]
    fn tpid(&self, lpn: u64) -> u64 {
        lpn / self.entries_per_tpage
    }

    /// One PMT consultation through the shared map engine (identical to
    /// the baseline's — this is the fallback path).
    fn map_access(&mut self, env: &mut FtlEnv<'_>, lpn: u64, dirty: bool) -> Result<u64> {
        let tpid = self.tpid(lpn);
        self.touched_tpages.insert(tpid);
        self.counters.dram_accesses += 1;
        self.engine
            .resolve(env.array, env.alloc, env.now_ns, tpid, dirty)
    }

    /// Model prediction: installed segments first, then open runs.
    fn predict(&self, lpn: u64) -> Option<Ppn> {
        self.store
            .predict(lpn)
            .or_else(|| self.tracker.predict(lpn))
    }

    /// Retrain after a data-page program: punch the LPN's old membership
    /// everywhere, then feed the new pair to the tracker.
    fn note_program(&mut self, lpn: u64, ppn: Ppn, from_gc: bool) {
        self.store.punch(lpn, &mut self.stats);
        self.tracker.punch(lpn, &mut self.store);
        self.tracker
            .note_program(lpn, ppn, from_gc, &mut self.store);
    }

    /// Installed segments created by the GC repack.
    pub fn gc_segments(&self) -> usize {
        self.store.gc_trained_count()
    }

    fn run_gc(&mut self, env: &mut FtlEnv<'_>, idle_budget: Option<u64>) -> Result<GcReport> {
        self.ensure_pmt();
        let mut migrator = LearnedMigrator {
            pmt: &mut self.pmt,
            engine: &mut self.engine,
            counters: &mut self.counters,
            store: &mut self.store,
            tracker: &mut self.tracker,
            stats: &mut self.stats,
            plane_cursor: &mut self.gc_plane_cursor,
            buf: Vec::new(),
        };
        match idle_budget {
            None => self
                .gc
                .maybe_collect(env.array, env.alloc, env.now_ns, &mut migrator),
            Some(n) => self
                .gc
                .idle_collect(env.array, env.alloc, env.now_ns, n, &mut migrator),
        }
    }
}

impl FtlScheme for LearnedFtl {
    fn kind(&self) -> SchemeKind {
        SchemeKind::Learned
    }

    fn write(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Write);
        self.ensure_pmt();
        self.counters.host_writes += 1;
        let spp = env.spp();
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(spp) {
            // The write path is the baseline's, bit for bit: the PMT stays
            // the source of truth and the model only ever shadows it.
            let ready = self.map_access(env, extent.lpn, true)?;
            let done = program_normal_extent(
                env.array,
                env.alloc,
                &mut self.pmt,
                &mut self.counters,
                &extent,
                req.version,
                env.now_ns,
                ready,
                None,
            )?;
            outcome.merge_time(done);
            let new_ppn = self.pmt.get(extent.lpn).ppn;
            self.note_program(extent.lpn, new_ppn, false);
        }
        Ok(outcome)
    }

    fn read(&mut self, env: &mut FtlEnv<'_>, req: &HostRequest) -> Result<ServiceOutcome> {
        debug_assert_eq!(req.kind, ReqKind::Read);
        self.ensure_pmt();
        self.counters.host_reads += 1;
        let spp = env.spp();
        let track = env.array.tracks_content();
        let max_error = self.cfg.learned.max_error;
        let total_pages = env.geometry().total_pages();
        let mut outcome = ServiceOutcome::default();
        for extent in req.extents(spp) {
            // CMT first, model second (the LearnedFTL lookup order): when
            // the translation page is resident — or has never been flushed
            // to flash — the PMT consultation is free of flash reads, and
            // taking it keeps the cache's LRU state bit-identical to the
            // baseline's. The model is only deployed when the consultation
            // would charge a map-in flash read, so every verified
            // prediction below avoids a real double read.
            let would_load = self.engine.would_load(self.tpid(extent.lpn));
            // Model consultation: one DRAM access, like a cache hit.
            self.counters.dram_accesses += 1;
            let consult_ready = env.now_ns + env.array.timing().cache_access_ns;
            let mut served = false;
            if let Some(pred) = self.predict(extent.lpn).filter(|_| would_load) {
                let mut ready = consult_ready;
                // Probe the window center-out: pred, pred+1, pred−1, …
                let candidates = std::iter::once(0)
                    .chain((1..=i64::from(max_error)).flat_map(|d| [d, -d]))
                    .filter_map(|delta| {
                        let p = pred.0 as i64 + delta;
                        (p >= 0 && (p as u64) < total_pages).then_some(p as u64)
                    });
                for cand in candidates {
                    let Ok(info) = env.array.page_info(Ppn(cand)) else {
                        continue;
                    };
                    if !info.is_valid() || info.kind != PageKind::Data {
                        continue;
                    }
                    if info.tag == extent.lpn {
                        // Verified: this read is the data read. The PMT
                        // invariant (exactly one valid data page per LPN)
                        // makes it the same page the fallback would read.
                        debug_assert_eq!(
                            Ppn(cand),
                            self.pmt.get(extent.lpn).ppn,
                            "verified prediction disagrees with the PMT"
                        );
                        self.stats.verify_reads += 1;
                        // `would_load` held above, so the fallback would
                        // have charged a map-in: this verify avoided it.
                        self.stats.map_ins_saved += 1;
                        let r = read_with_retry(
                            env.array,
                            Ppn(cand),
                            env.sectors_to_bytes(extent.len),
                            env.now_ns,
                            ready,
                        )?;
                        outcome.merge_time(r.complete_ns());
                        match r {
                            PageRead::Ok(_) => {
                                if track {
                                    served_from_page(
                                        env.array,
                                        Ppn(cand),
                                        extent.offset,
                                        extent.start_sector(spp),
                                        extent.len,
                                        &mut outcome.served,
                                    );
                                }
                            }
                            PageRead::Lost { .. } => {
                                self.counters.host_unrecoverable_reads += 1;
                                if track {
                                    served_lost(
                                        extent.start_sector(spp),
                                        extent.len,
                                        &mut outcome.served,
                                    );
                                }
                            }
                        }
                        self.stats.predict_hits += 1;
                        served = true;
                        break;
                    }
                    // Valid page, wrong LPN: a wasted verify read, charged.
                    self.stats.verify_reads += 1;
                    let r = read_with_retry(
                        env.array,
                        Ppn(cand),
                        env.geometry().sector_bytes,
                        env.now_ns,
                        ready,
                    )?;
                    ready = ready.max(r.complete_ns());
                }
                if !served {
                    self.stats.mispredicts += 1;
                    self.store.punch(extent.lpn, &mut self.stats);
                    self.tracker.punch(extent.lpn, &mut self.store);
                    outcome.merge_time(ready);
                }
            }
            if served {
                continue;
            }
            // Fallback: the baseline PMT path through the shared engine.
            let ready = self.map_access(env, extent.lpn, false)?;
            outcome.merge_time(ready);
            let entry = self.pmt.get(extent.lpn);
            if entry.has_ppn() {
                let r = read_with_retry(
                    env.array,
                    entry.ppn,
                    env.sectors_to_bytes(extent.len),
                    env.now_ns,
                    ready,
                )?;
                outcome.merge_time(r.complete_ns());
                match r {
                    PageRead::Ok(_) => {
                        if track {
                            served_from_page(
                                env.array,
                                entry.ppn,
                                extent.offset,
                                extent.start_sector(spp),
                                extent.len,
                                &mut outcome.served,
                            );
                        }
                    }
                    PageRead::Lost { .. } => {
                        self.counters.host_unrecoverable_reads += 1;
                        if track {
                            served_lost(extent.start_sector(spp), extent.len, &mut outcome.served);
                        }
                    }
                }
            } else if track {
                served_unwritten(extent.start_sector(spp), extent.len, &mut outcome.served);
            }
        }
        Ok(outcome)
    }

    fn maybe_gc(&mut self, env: &mut FtlEnv<'_>) -> Result<GcReport> {
        self.run_gc(env, None)
    }

    fn idle_gc(&mut self, env: &mut FtlEnv<'_>, max_pages: u64) -> Result<GcReport> {
        self.run_gc(env, Some(max_pages))
    }

    fn counters(&self) -> &SchemeCounters {
        &self.counters
    }

    fn cache_stats(&self) -> CacheStats {
        *self.engine.cache_stats()
    }

    fn map_engine_stats(&self) -> MapEngineStats {
        *self.engine.stats()
    }

    fn learned_stats(&self) -> LearnedStats {
        self.stats
    }

    fn learned_segments(&self) -> usize {
        self.store.len()
    }

    fn mapping_table_bytes(&self) -> u64 {
        // PMT tpage footprint (the fallback is still a full DFTL table)
        // plus the modelled segment-store bytes.
        self.touched_tpages.len() * u64::from(self.page_bytes) + self.store.model_bytes()
    }

    fn logical_pages(&self) -> u64 {
        self.cfg.logical_pages
    }

    fn capture_image(&self) -> Option<crate::recovery::SchemeImage> {
        let mut pages = Vec::new();
        for lpn in 0..self.pmt.logical_pages() {
            let entry = self.pmt.get(lpn);
            if entry.has_ppn() {
                pages.push((lpn, entry.ppn));
            }
        }
        Some(crate::recovery::SchemeImage::Learned(pages))
    }
}

// ---------------------------------------------------------------------------
// GC migrator: sorted repack
// ---------------------------------------------------------------------------

/// A valid data page buffered during a GC slice, awaiting the sorted
/// repack at [`PageMigrator::finish`].
struct BufferedPage {
    lpn: u64,
    stamps: Option<Box<[Option<SectorStamp>]>>,
    /// When the source read released its chip (the program's ready time).
    read_done: Nanos,
}

/// The learned scheme's [`PageMigrator`]: map pages copy one-to-one (like
/// [`crate::gc::CopyMigrator`]), data pages are buffered — read and
/// invalidated immediately, so the episode machine's re-validation and
/// erase-before-flush stay sound — then sorted by LPN and programmed into
/// a single plane at `finish`. Consecutive programs of LPN-sorted pages in
/// one plane are physically adjacent, so relocation *recreates* runs for
/// the tracker instead of shredding the victims' old ones.
struct LearnedMigrator<'a> {
    pmt: &'a mut PageMapTable,
    engine: &'a mut MapEngine,
    counters: &'a mut SchemeCounters,
    store: &'a mut SegmentStore,
    tracker: &'a mut RunTracker,
    stats: &'a mut LearnedStats,
    plane_cursor: &'a mut u64,
    buf: Vec<BufferedPage>,
}

impl PageMigrator for LearnedMigrator<'_> {
    fn migrate(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        old: Ppn,
        info: &PageInfo,
        report: &mut GcReport,
    ) -> Result<u64> {
        let page_bytes = array.geometry().page_bytes;
        let r = read_with_retry(array, old, page_bytes, now, now)?;
        if r.is_lost() {
            report.lost_pages += 1;
        }
        match info.kind {
            PageKind::Map => {
                let (new_ppn, _) = program_relocating(
                    array,
                    alloc,
                    StreamId::Gc,
                    PageKind::Map,
                    info.tag,
                    page_bytes,
                    now,
                    r.complete_ns(),
                )?;
                array.invalidate(old)?;
                self.counters.dram_accesses += 1;
                self.engine.note_migrated(info.tag, new_ppn);
                Ok(1)
            }
            PageKind::Data => {
                let stamps = if array.tracks_content() {
                    if r.is_lost() {
                        lost_stamps_of(array, old)
                    } else {
                        array.content_of(old).map(|s| s.to_vec().into_boxed_slice())
                    }
                } else {
                    None
                };
                array.invalidate(old)?;
                self.buf.push(BufferedPage {
                    lpn: info.tag,
                    stamps,
                    read_done: r.complete_ns(),
                });
                // Programs are counted when `finish` flushes the buffer.
                Ok(0)
            }
            PageKind::AcrossData => {
                unreachable!("learned FTL never writes across-data pages")
            }
        }
    }

    fn finish(
        &mut self,
        array: &mut FlashArray,
        alloc: &mut Allocator,
        now: Nanos,
        _report: &mut GcReport,
    ) -> Result<u64> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        self.buf.sort_unstable_by_key(|p| p.lpn);
        let plane = *self.plane_cursor % array.geometry().total_planes();
        *self.plane_cursor += 1;
        let page_bytes = array.geometry().page_bytes;
        let mut programmed = 0u64;
        for page in std::mem::take(&mut self.buf) {
            let (new_ppn, _) = program_relocating_in_plane(
                array,
                alloc,
                plane,
                StreamId::Gc,
                PageKind::Data,
                page.lpn,
                page_bytes,
                now,
                page.read_done,
            )?;
            if array.tracks_content() {
                if let Some(stamps) = page.stamps {
                    array.record_content(new_ppn, stamps);
                }
            }
            self.counters.dram_accesses += 1;
            let prev = self.pmt.set_ppn(page.lpn, new_ppn);
            // `prev` was invalidated in `migrate`; only the mapping moves.
            debug_assert!(prev.is_valid(), "GC migrated an unmapped data page");
            self.store.punch(page.lpn, self.stats);
            self.tracker.punch(page.lpn, self.store);
            self.tracker
                .note_program(page.lpn, new_ppn, true, self.store);
            programmed += 1;
        }
        Ok(programmed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aftl_flash::{Allocator, FlashArray, Geometry, TimingSpec};
    use proptest::prelude::*;

    fn store(cfg: LearnedConfig) -> (SegmentStore, LearnedStats) {
        (SegmentStore::new(cfg), LearnedStats::default())
    }

    #[test]
    fn segment_predicts_members_only() {
        let (mut s, _) = store(LearnedConfig::default());
        s.install(
            Segment {
                start_lpn: 100,
                stride: 4,
                base_ppn: 1000,
                len: 8,
                holes: 0,
                from_gc: false,
            },
            None,
        );
        assert_eq!(s.predict(100), Some(Ppn(1000)));
        assert_eq!(s.predict(112), Some(Ppn(1003)));
        assert_eq!(s.predict(128), Some(Ppn(1007)));
        assert_eq!(s.predict(101), None, "off-stride LPN is not a member");
        assert_eq!(s.predict(132), None, "past the end");
        assert_eq!(s.predict(96), None, "before the start");
    }

    #[test]
    fn punch_removes_member_and_split_rebuilds() {
        let cfg = LearnedConfig {
            retrain_threshold: 2,
            ..LearnedConfig::default()
        };
        let (mut s, mut st) = store(cfg);
        s.install(
            Segment {
                start_lpn: 0,
                stride: 1,
                base_ppn: 500,
                len: 10,
                holes: 0,
                from_gc: false,
            },
            None,
        );
        s.punch(3, &mut st);
        assert_eq!(s.predict(3), None, "punched member no longer predicted");
        assert_eq!(s.predict(4), Some(Ppn(504)), "neighbours still predicted");
        assert_eq!(st.segment_rebuilds, 0);
        // Second hole hits the threshold: split into [0..3) and [8..10).
        s.punch(7, &mut st);
        assert_eq!(st.segment_rebuilds, 1);
        assert_eq!(s.predict(1), Some(Ppn(501)));
        assert_eq!(s.predict(8), Some(Ppn(508)));
        assert_eq!(s.predict(9), Some(Ppn(509)));
        // Members between the holes: [4..7) survives as its own subrun.
        assert_eq!(s.predict(5), Some(Ppn(505)));
        assert_eq!(s.predict(3), None);
        assert_eq!(s.predict(7), None);
    }

    #[test]
    fn capacity_eviction_keeps_store_bounded() {
        let cfg = LearnedConfig {
            max_segments: 4,
            ..LearnedConfig::default()
        };
        let (mut s, _) = store(cfg);
        for i in 0..10u64 {
            s.install(
                Segment {
                    start_lpn: i * 100,
                    stride: 1,
                    base_ppn: i * 1000,
                    len: 2 + i as u32,
                    holes: 0,
                    from_gc: false,
                },
                None,
            );
        }
        assert!(s.len() <= 4);
    }

    /// Brute-force reference for [`SegmentStore`]: a `start_lpn`-sorted
    /// Vec with explicit hole lists, located by a full scan.
    #[derive(Debug, Clone)]
    struct RefSeg {
        seg: Segment,
        holes: Vec<u32>,
    }

    struct RefStore {
        segs: Vec<RefSeg>,
        cfg: LearnedConfig,
        cursor: usize,
        rebuilds: u64,
    }

    impl RefStore {
        /// `(segment index, member index)` of every segment with `lpn` live.
        fn owners(&self, lpn: u64) -> Vec<(usize, u32)> {
            let live = |r: &RefSeg| {
                let d = lpn.checked_sub(r.seg.start_lpn)?;
                let m = u32::try_from(d / r.seg.stride).ok()?;
                let member = d % r.seg.stride == 0 && m < r.seg.len;
                (member && !r.holes.contains(&m)).then_some(m)
            };
            let segs = self.segs.iter().enumerate();
            segs.filter_map(|(i, r)| live(r).map(|m| (i, m))).collect()
        }

        fn predict(&self, lpn: u64) -> Option<Ppn> {
            let (i, m) = *self.owners(lpn).first()?;
            Some(Ppn(self.segs[i].seg.base_ppn + u64::from(m)))
        }

        fn insert(&mut self, seg: Segment, holes: Vec<u32>) {
            let at = self
                .segs
                .partition_point(|r| r.seg.start_lpn <= seg.start_lpn);
            self.segs.insert(at, RefSeg { seg, holes });
        }

        fn punch(&mut self, lpn: u64) {
            let Some(&(i, m)) = self.owners(lpn).first() else {
                return;
            };
            let r = &mut self.segs[i];
            r.holes.push(m);
            let live = r.seg.len - r.holes.len() as u32;
            if r.holes.len() as u32 >= self.cfg.retrain_threshold || live < self.cfg.min_run {
                self.rebuilds += 1;
                let RefSeg { seg, holes } = self.segs.remove(i);
                let mut from = 0;
                for m in (0..=seg.len).filter(|m| *m == seg.len || holes.contains(m)) {
                    if m - from >= self.cfg.min_run {
                        let sub = Segment {
                            start_lpn: seg.lpn(from),
                            base_ppn: seg.base_ppn + u64::from(from),
                            len: m - from,
                            holes: 0,
                            ..seg
                        };
                        self.insert(sub, Vec::new());
                    }
                    from = m + 1;
                }
            }
        }

        fn install(&mut self, seg: Segment, hole: Option<u32>) {
            self.insert(seg, hole.into_iter().collect());
            while self.segs.len() > self.cfg.max_segments as usize {
                let n = self.segs.len();
                let live = |k: usize| {
                    let r = &self.segs[k % n];
                    r.seg.len - r.holes.len() as u32
                };
                let victim = (0..8.min(n))
                    .map(|k| self.cursor + k)
                    .min_by_key(|&k| live(k))
                    .expect("n ≥ 1")
                    % n;
                self.cursor = victim;
                self.segs.remove(victim);
            }
        }
    }

    /// LPN range of the store proptest.
    const UNIVERSE: u64 = 2048;
    const STRIDES: [u64; 8] = [1, 1, 2, 3, 4, 7, 333, 1021];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random install / punch sequences (rebuilds and capacity
        /// evictions follow from them) drive the owner-indexed store and
        /// the brute-force reference in lockstep. After every step both
        /// agree on every LPN's prediction, on the segments in start order
        /// (so they evicted the same victims), on the size counters and on
        /// the rebuild count; no LPN is live in two segments, and the
        /// owner index claims exactly each segment's live members.
        #[test]
        fn store_matches_brute_force_reference(
            (knobs, ops) in (
                (1u32..=12, 1u32..=2, 1u32..=6),
                collection::vec(
                    (
                        0u32..4,
                        0u64..UNIVERSE,
                        0usize..STRIDES.len(),
                        1u32..=24,
                        0u32..40,
                    ),
                    1..160,
                ),
            )
        ) {
            let (max_segments, min_run, retrain_threshold) = knobs;
            let cfg = LearnedConfig {
                max_segments,
                min_run,
                retrain_threshold,
                max_error: 0,
            };
            let (mut s, mut st) = store(cfg);
            let mut r = RefStore {
                segs: Vec::new(),
                cfg,
                cursor: 0,
                rebuilds: 0,
            };
            for (step, &(kind, a, stride_sel, len, hole_sel)) in ops.iter().enumerate() {
                if kind == 0 {
                    // Punch a live LPN when there is one, else a raw miss.
                    let live: Vec<u64> =
                        (0..UNIVERSE).filter(|&l| s.predict(l).is_some()).collect();
                    let lpn = if live.is_empty() {
                        a
                    } else {
                        live[a as usize % live.len()]
                    };
                    s.punch(lpn, &mut st);
                    r.punch(lpn);
                } else if kind == 1 {
                    s.punch(a, &mut st);
                    r.punch(a);
                } else {
                    // A freshly programmed run: its members' old
                    // memberships are punched first, as on the write path.
                    let stride = STRIDES[stride_sel];
                    let len = len.min(((UNIVERSE - 1 - a) / stride + 1) as u32);
                    let hole = (hole_sel < len).then_some(hole_sel);
                    let seg = Segment {
                        start_lpn: a,
                        stride,
                        base_ppn: 10_000 + 100 * step as u64,
                        len,
                        holes: u32::from(hole.is_some()),
                        from_gc: kind == 3,
                    };
                    for m in 0..len {
                        s.punch(seg.lpn(m), &mut st);
                        r.punch(seg.lpn(m));
                    }
                    if seg.live() >= min_run {
                        s.install(seg, hole);
                        r.install(seg, hole);
                    }
                }

                for lpn in 0..UNIVERSE {
                    prop_assert!(r.owners(lpn).len() <= 1, "lpn {} live twice", lpn);
                    prop_assert_eq!(s.predict(lpn), r.predict(lpn));
                }
                let key = |g: &Segment, holes: u32| {
                    (g.start_lpn, g.stride, g.base_ppn, g.len, holes, g.from_gc)
                };
                let got: Vec<_> = s.segments().map(|g| key(g, g.holes)).collect();
                let want: Vec<_> =
                    r.segs.iter().map(|x| key(&x.seg, x.holes.len() as u32)).collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(s.len(), r.segs.len());
                let ref_bytes: u64 =
                    r.segs.iter().map(|x| 16 + 4 * x.holes.len() as u64).sum();
                prop_assert_eq!(s.model_bytes(), ref_bytes);
                let ref_gc = r.segs.iter().filter(|x| x.seg.from_gc).count();
                prop_assert_eq!(s.gc_trained_count(), ref_gc);
                prop_assert_eq!(st.segment_rebuilds, r.rebuilds);
                for &slot in &s.order {
                    let g = &s.slab[slot as usize];
                    let claimed = (0..g.len)
                        .filter(|&m| s.owner[g.lpn(m) as usize] == slot)
                        .count();
                    prop_assert_eq!(claimed as u32, g.live());
                }
            }
        }
    }

    #[test]
    fn tracker_builds_runs_from_adjacent_programs() {
        let (mut s, _) = store(LearnedConfig::default());
        let mut t = RunTracker::new(4);
        // Stride-2 LPNs at consecutive PPNs: one pending run.
        for i in 0..5u64 {
            t.note_program(10 + 2 * i, Ppn(700 + i), false, &mut s);
        }
        assert_eq!(t.predict(14), Some(Ppn(702)), "pending runs predict");
        assert_eq!(s.len(), 0, "run still open");
        // A non-adjacent program (different block) closes nothing but the
        // evicted pending run once capacity is hit; force a close by
        // breaking the progression at the adjacent PPN.
        t.note_program(9999, Ppn(705), false, &mut s);
        assert_eq!(s.len(), 1, "broken progression installs the run");
        assert_eq!(s.predict(18), Some(Ppn(704)));
    }

    #[test]
    fn tracker_punch_closes_with_hole() {
        let (mut s, _) = store(LearnedConfig::default());
        let mut t = RunTracker::new(4);
        for i in 0..6u64 {
            t.note_program(i, Ppn(100 + i), false, &mut s);
        }
        t.punch(2, &mut s);
        assert_eq!(t.predict(3), None, "punched run left the tracker");
        assert_eq!(s.predict(2), None, "hole not predicted");
        assert_eq!(s.predict(4), Some(Ppn(104)), "other members installed");
    }

    fn setup() -> (FlashArray, Allocator, LearnedFtl) {
        let g = Geometry::tiny(); // spp = 8
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let alloc = Allocator::new(&array);
        let cfg = SchemeConfig {
            logical_pages: g.total_pages() * 9 / 10,
            cache_bytes: 1 << 20,
            gc_threshold: 0.10,
            gc_hysteresis: 0.0005,
            gc: Default::default(),
            pipeline: Default::default(),
            learned: Default::default(),
        };
        let ftl = LearnedFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    /// A device whose mapping cache actually misses: 512-byte pages put
    /// only 64 PMT entries on a translation page, so the logical span
    /// covers several tpages, and the one-tpage cache must evict. Under
    /// the CMT-first lookup order predictions only fire on would-be
    /// map-ins, so this is the setup that exercises them end to end.
    fn setup_pressured() -> (FlashArray, Allocator, LearnedFtl) {
        let g = Geometry {
            page_bytes: 512,
            ..Geometry::tiny()
        }; // spp = 1, 64 mapping entries per tpage
        let mut array = FlashArray::new(g, TimingSpec::unit()).unwrap();
        array.enable_content_tracking();
        let alloc = Allocator::new(&array);
        let cfg = SchemeConfig {
            logical_pages: g.total_pages() * 9 / 10,
            cache_bytes: u64::from(g.page_bytes), // one resident tpage
            gc_threshold: 0.10,
            gc_hysteresis: 0.0005,
            gc: Default::default(),
            pipeline: Default::default(),
            learned: Default::default(),
        };
        let ftl = LearnedFtl::new(&g, cfg);
        (array, alloc, ftl)
    }

    #[test]
    fn sequential_writes_then_reads_hit_predictions() {
        let (mut array, mut alloc, mut ftl) = setup_pressured();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        // Three translation pages' worth of sequential fill: the one-tpage
        // cache evicts (and flushes) the first two, so reading them back
        // would charge map-ins — exactly where the model takes over.
        for lpn in 0..160u64 {
            let req = HostRequest {
                version: lpn + 1,
                ..HostRequest::write(lpn, lpn, 1)
            };
            ftl.write(&mut env, &req).unwrap();
        }
        for lpn in 0..160u64 {
            let out = ftl
                .read(&mut env, &HostRequest::read(1000 + lpn, lpn, 1))
                .unwrap();
            assert!(
                out.served.iter().all(|s| s.version == lpn + 1),
                "lpn {lpn} served wrong generation: {:?}",
                out.served
            );
        }
        let st = ftl.learned_stats();
        assert!(st.predict_hits > 0, "sequential fill must train the model");
        assert_eq!(st.mispredicts, 0, "exact models never mis-predict");
        assert_eq!(
            st.predict_hits, st.map_ins_saved,
            "under CMT-first every hit avoids a map-in"
        );
    }

    #[test]
    fn overwrites_punch_and_reads_stay_correct() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut env = FtlEnv {
            array: &mut array,
            alloc: &mut alloc,
            now_ns: 0,
        };
        for lpn in 0..16u64 {
            let req = HostRequest {
                version: 1,
                ..HostRequest::write(lpn, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
        }
        // Overwrite the middle of the trained range.
        for lpn in 4..8u64 {
            let req = HostRequest {
                version: 2,
                ..HostRequest::write(100 + lpn, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
        }
        for lpn in 0..16u64 {
            let want = if (4..8).contains(&lpn) { 2 } else { 1 };
            let out = ftl
                .read(&mut env, &HostRequest::read(200 + lpn, lpn * 8, 8))
                .unwrap();
            assert!(
                out.served.iter().all(|s| s.version == want),
                "lpn {lpn}: {:?}, want v{want}",
                out.served
            );
        }
        assert_eq!(ftl.learned_stats().mispredicts, 0);
    }

    #[test]
    fn gc_churn_repacks_and_reads_survive() {
        let (mut array, mut alloc, mut ftl) = setup();
        // Churn a working set past capacity so GC runs repeatedly.
        for round in 0..800u64 {
            let lpn = round % 20;
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let req = HostRequest {
                version: round + 1,
                ..HostRequest::write(round, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
            ftl.maybe_gc(&mut env).unwrap();
        }
        assert!(array.stats().erases > 0, "churn must trigger GC");
        for lpn in 0..20u64 {
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let out = ftl
                .read(&mut env, &HostRequest::read(9000 + lpn, lpn * 8, 8))
                .unwrap();
            let expect = 800 - 20 + lpn + 1;
            assert!(
                out.served.iter().all(|s| s.version == expect),
                "lpn {lpn}: got {:?}, want {expect}",
                out.served.iter().map(|s| s.version).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn cold_data_under_gc_gains_gc_segments() {
        let (mut array, mut alloc, mut ftl) = setup();
        let mut version = 0u64;
        let mut expected = vec![0u64; 420];
        let mut step = |ftl: &mut LearnedFtl,
                        array: &mut FlashArray,
                        alloc: &mut Allocator,
                        expected: &mut Vec<u64>,
                        lpn: u64| {
            version += 1;
            expected[lpn as usize] = version;
            let mut env = FtlEnv {
                array,
                alloc,
                now_ns: 0,
            };
            let req = HostRequest {
                version,
                ..HostRequest::write(0, lpn * 8, 8)
            };
            ftl.write(&mut env, &req).unwrap();
            ftl.maybe_gc(&mut env).unwrap();
        };
        // Sequential fill: every block ends up fully valid, so GC can
        // never find an easy (fully-stale) victim later.
        for lpn in 0..300u64 {
            step(&mut ftl, &mut array, &mut alloc, &mut expected, lpn);
        }
        // Sparse overwrite passes, stride 5 (coprime to the 4-plane
        // stripe): each pass scatters 1–2 invalid pages into every block.
        // Once free space runs out, every GC victim carries 6–7 still-
        // valid pages the sorted repack must relocate.
        for pass in 0..4u64 {
            for i in 0..60u64 {
                let lpn = i * 5 + pass;
                step(&mut ftl, &mut array, &mut alloc, &mut expected, lpn);
            }
        }
        // Fresh tail fill keeps the pressure on through the last passes.
        for lpn in 300..420u64 {
            step(&mut ftl, &mut array, &mut alloc, &mut expected, lpn);
        }
        assert!(array.stats().erases > 0, "fill + overwrites must run GC");
        assert!(
            ftl.gc_segments() > 0,
            "the sorted repack must have installed GC-born segments \
             ({} total segments)",
            ftl.learned_segments()
        );
        // Every LPN reads back its newest generation. (The 1 MB cache
        // holds the whole PMT here, so under CMT-first no read charges a
        // map-in and none consults the model — the model's health is
        // checked directly below instead.)
        for lpn in 0..420u64 {
            let mut env = FtlEnv {
                array: &mut array,
                alloc: &mut alloc,
                now_ns: 0,
            };
            let out = ftl
                .read(&mut env, &HostRequest::read(0, lpn * 8, 8))
                .unwrap();
            assert!(
                out.served
                    .iter()
                    .all(|s| s.version == expected[lpn as usize]),
                "lpn {lpn}: got {:?}, want {}",
                out.served.iter().map(|s| s.version).collect::<Vec<_>>(),
                expected[lpn as usize]
            );
        }
        // Relocated cold data must stay predictable: the model still
        // covers live LPNs, and every prediction it makes agrees with the
        // PMT (the punch-on-program invariant — a wrong prediction would
        // cost a wasted verify read in a pressured cache).
        let predicted: Vec<u64> = (0..420u64).filter(|&l| ftl.predict(l).is_some()).collect();
        assert!(
            !predicted.is_empty(),
            "relocated cold data must stay predictable"
        );
        for &lpn in &predicted {
            assert_eq!(
                ftl.predict(lpn),
                Some(ftl.pmt.get(lpn).ppn),
                "lpn {lpn}: model disagrees with the PMT"
            );
        }
    }
}

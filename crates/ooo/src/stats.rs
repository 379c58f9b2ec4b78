//! Simulation statistics.

use specmpk_core::PkruEngineStats;
use specmpk_mem::MemStats;
use specmpk_trace::{GuestProfile, Histogram, Json, Profiler};

/// Why the rename stage could not process an instruction this cycle.
///
/// Fig. 3's right axis reports the `WrpkruSerialize` share; Fig. 11's
/// sensitivity comes from `RobPkruFull`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RenameStall {
    /// Nothing ready from the front end (fetch bubble / I-cache miss /
    /// post-squash refill).
    FrontendEmpty,
    /// Active List full.
    ActiveListFull,
    /// Issue queue full.
    IssueQueueFull,
    /// Load queue full.
    LoadQueueFull,
    /// Store queue full.
    StoreQueueFull,
    /// Free list empty (out of physical registers).
    PrfFull,
    /// Serialized-WRPKRU barrier: draining before, or blocking after, a
    /// WRPKRU (the overhead SpecMPK removes).
    WrpkruSerialize,
    /// `ROB_pkru` full (SpecMPK's only new stall).
    RobPkruFull,
    /// RDPKRU waiting for in-flight WRPKRUs to drain (§V-C6).
    RdpkruSerialize,
}

impl RenameStall {
    /// All stall causes, for reporting.
    #[must_use]
    pub fn all() -> [RenameStall; 9] {
        [
            RenameStall::FrontendEmpty,
            RenameStall::ActiveListFull,
            RenameStall::IssueQueueFull,
            RenameStall::LoadQueueFull,
            RenameStall::StoreQueueFull,
            RenameStall::PrfFull,
            RenameStall::WrpkruSerialize,
            RenameStall::RobPkruFull,
            RenameStall::RdpkruSerialize,
        ]
    }

    /// Stable snake_case name, used as the JSON key for this cause.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            RenameStall::FrontendEmpty => "frontend_empty",
            RenameStall::ActiveListFull => "active_list_full",
            RenameStall::IssueQueueFull => "issue_queue_full",
            RenameStall::LoadQueueFull => "load_queue_full",
            RenameStall::StoreQueueFull => "store_queue_full",
            RenameStall::PrfFull => "prf_full",
            RenameStall::WrpkruSerialize => "wrpkru_serialize",
            RenameStall::RobPkruFull => "rob_pkru_full",
            RenameStall::RdpkruSerialize => "rdpkru_serialize",
        }
    }

    /// Stable dense index of this cause (the position [`RenameStall::all`]
    /// lists it at); also the stall-cause slot the guest profiler charges.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            RenameStall::FrontendEmpty => 0,
            RenameStall::ActiveListFull => 1,
            RenameStall::IssueQueueFull => 2,
            RenameStall::LoadQueueFull => 3,
            RenameStall::StoreQueueFull => 4,
            RenameStall::PrfFull => 5,
            RenameStall::WrpkruSerialize => 6,
            RenameStall::RobPkruFull => 7,
            RenameStall::RdpkruSerialize => 8,
        }
    }
}

/// The simulator's distribution metrics: one log2-bucketed [`Histogram`]
/// per hot structure/event, all recorded unconditionally (an insert is a
/// handful of ALU ops, cheap enough for per-cycle sampling).
///
/// Means alone hide the paper's microarchitectural stories — a WRPKRU
/// whose latency is bimodal (fast speculative vs serialized drain), a
/// `ROB_pkru` that is empty most cycles but saturates in bursts — so
/// every metric here is reported as count/sum/min/max plus interpolated
/// p50/p90/p99 in the JSON artifacts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimHistograms {
    /// WRPKRU rename(dispatch)-to-retire latency in cycles.
    pub wrpkru_latency: Histogram,
    /// Active List (ROB) occupancy, sampled once per cycle.
    pub rob_occupancy: Histogram,
    /// `ROB_pkru` occupancy (in-flight WRPKRUs), sampled once per cycle.
    pub rob_pkru_occupancy: Histogram,
    /// Instructions squashed per control-flow misprediction.
    pub squash_depth: Histogram,
    /// Length of runs of consecutively retired instructions that each
    /// required a head replay (clustered §V-C2/C4/C5 stalls).
    pub load_replay_burst: Histogram,
    /// Delay in cycles of a §V-C5 deferred TLB permission update, from
    /// the issue-time stall decision to the walk at the AL head (loads)
    /// or at retirement (stores).
    pub deferred_tlb_delay: Histogram,
}

impl SimHistograms {
    /// Stable (name, histogram) pairs, in serialization order.
    #[must_use]
    pub fn named(&self) -> [(&'static str, &Histogram); 6] {
        [
            ("wrpkru_latency", &self.wrpkru_latency),
            ("rob_occupancy", &self.rob_occupancy),
            ("rob_pkru_occupancy", &self.rob_pkru_occupancy),
            ("squash_depth", &self.squash_depth),
            ("load_replay_burst", &self.load_replay_burst),
            ("deferred_tlb_delay", &self.deferred_tlb_delay),
        ]
    }

    /// Full structured form: every histogram with its buckets.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = Json::object();
        for (name, h) in self.named() {
            obj.set(name, h.to_json());
        }
        obj
    }

    /// Compact structured form: summary statistics only (no buckets),
    /// for experiment-row artifacts.
    #[must_use]
    pub fn summary_json(&self) -> Json {
        let mut obj = Json::object();
        for (name, h) in self.named() {
            obj.set(name, h.summary_json());
        }
        obj
    }

    /// Element-wise [`Histogram::diff`] against an `earlier` snapshot of
    /// the same run (interval sampling).
    #[must_use]
    pub fn diff(&self, earlier: &SimHistograms) -> SimHistograms {
        SimHistograms {
            wrpkru_latency: self.wrpkru_latency.diff(&earlier.wrpkru_latency),
            rob_occupancy: self.rob_occupancy.diff(&earlier.rob_occupancy),
            rob_pkru_occupancy: self.rob_pkru_occupancy.diff(&earlier.rob_pkru_occupancy),
            squash_depth: self.squash_depth.diff(&earlier.squash_depth),
            load_replay_burst: self.load_replay_burst.diff(&earlier.load_replay_burst),
            deferred_tlb_delay: self.deferred_tlb_delay.diff(&earlier.deferred_tlb_delay),
        }
    }

    /// Element-wise [`Histogram::merge`].
    pub fn merge(&mut self, other: &SimHistograms) {
        self.wrpkru_latency.merge(&other.wrpkru_latency);
        self.rob_occupancy.merge(&other.rob_occupancy);
        self.rob_pkru_occupancy.merge(&other.rob_pkru_occupancy);
        self.squash_depth.merge(&other.squash_depth);
        self.load_replay_burst.merge(&other.load_replay_burst);
        self.deferred_tlb_delay.merge(&other.deferred_tlb_delay);
    }
}

/// Counters accumulated over a simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Elapsed cycles.
    pub cycles: u64,
    /// Architecturally retired instructions.
    pub retired: u64,
    /// Retired WRPKRU instructions.
    pub retired_wrpkru: u64,
    /// Retired loads.
    pub retired_loads: u64,
    /// Retired stores.
    pub retired_stores: u64,
    /// Conditional branches retired.
    pub retired_branches: u64,
    /// Mispredictions detected (control-flow squashes).
    pub mispredicts: u64,
    /// Instructions squashed (fetched+renamed but never retired).
    pub squashed: u64,
    /// Loads that failed the PKRU Load Check and replayed at the head.
    pub load_replays: u64,
    /// Loads stalled to the head because of a no-forward store match.
    pub forward_blocked_loads: u64,
    /// Loads stalled to the head by the conservative TLB-miss rule (§V-C5).
    pub tlb_miss_stalls: u64,
    /// Successful store-to-load forwards.
    pub forwards: u64,
    /// Protection faults raised at retirement.
    pub protection_faults: u64,
    /// Page faults raised at retirement.
    pub page_faults: u64,
    /// Cycles the idle-skip bulk advance jumped over (each one charged
    /// exactly as if it had been stepped; see `DESIGN.md` §13).
    pub idle_cycles_skipped: u64,
    /// Always 0: the fused rename+issue fast path it counted is gone.
    /// Kept only for readers of the old field.
    pub fused_rename_issue_instrs: u64,
    /// Cycles in which rename processed zero instructions, by cause
    /// (indexed per [`RenameStall`]).
    rename_stall_cycles: [u64; 9],
    /// Per-cycle rename-slot stalls by cause (slot granularity).
    rename_slot_stalls: [u64; 9],
    /// PKRU engine counters (WRPKRU renames, check failures, ...).
    pub pkru: PkruEngineStats,
    /// Memory-system counters.
    pub mem: MemStats,
    /// Distribution metrics (see [`SimHistograms`]).
    pub hist: SimHistograms,
    /// Interval time-series samples, populated when sampling is enabled
    /// ([`Core::set_sample_interval`](crate::Core::set_sample_interval)).
    pub samples: Vec<IntervalSample>,
    /// Host-side profiling spans over the pipeline stages, populated when
    /// profiling is enabled (`SPECMPK_PROFILE` or
    /// [`Core::set_profiling`](crate::Core::set_profiling)). Serialized
    /// as the `host_profile` section only when it has samples, so
    /// artifacts are byte-identical with profiling off.
    pub host: Profiler,
    /// Guest-side attribution profile (per-PC cycles/stalls and WRPKRU
    /// site costs), populated when guest profiling is enabled
    /// ([`Core::set_guest_profiling`](crate::Core::set_guest_profiling)).
    /// Serialized as the `guest_profile` section only when it has
    /// samples, so artifacts stay byte-identical with profiling off.
    pub guest: GuestProfile,
}

impl SimStats {
    /// Instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.retired as f64 / self.cycles as f64
        }
    }

    /// `count` events per kilo-retired-instruction — the normalization
    /// every per-kinstr metric in the paper's figures uses. Zero before
    /// anything retires.
    #[must_use]
    pub fn events_per_kilo_instr(&self, count: u64) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            1000.0 * count as f64 / self.retired as f64
        }
    }

    /// WRPKRU instructions per kilo-instruction (Fig. 10's metric).
    #[must_use]
    pub fn wrpkru_per_kilo_instr(&self) -> f64 {
        self.events_per_kilo_instr(self.retired_wrpkru)
    }

    /// Branch misprediction rate per kilo-instruction.
    #[must_use]
    pub fn mpki(&self) -> f64 {
        self.events_per_kilo_instr(self.mispredicts)
    }

    /// Records a cycle in which rename processed nothing, attributed to
    /// `cause`.
    pub fn note_rename_stall_cycle(&mut self, cause: RenameStall) {
        self.rename_stall_cycles[cause.index()] += 1;
    }

    /// Records one unused rename slot attributed to `cause`.
    pub fn note_rename_slot_stall(&mut self, cause: RenameStall) {
        self.rename_slot_stalls[cause.index()] += 1;
    }

    /// Bulk form used by the idle-skip advance: charges `cycles` fully
    /// stalled cycles and `cycles * width` unused slots to `cause` in one
    /// call, exactly as `cycles` individual stepped cycles would have.
    pub fn note_rename_stall_bulk(&mut self, cause: RenameStall, cycles: u64, width: usize) {
        self.rename_stall_cycles[cause.index()] += cycles;
        self.rename_slot_stalls[cause.index()] += cycles * width as u64;
    }

    /// Cycles fully stalled at rename for `cause`.
    #[must_use]
    pub fn rename_stall_cycles(&self, cause: RenameStall) -> u64 {
        self.rename_stall_cycles[cause.index()]
    }

    /// Unused rename slots attributed to `cause`.
    #[must_use]
    pub fn rename_slot_stalls(&self, cause: RenameStall) -> u64 {
        self.rename_slot_stalls[cause.index()]
    }

    /// Total unused rename slots across all causes. Together with the
    /// renamed-instruction count this accounts for every rename slot of
    /// every cycle (the CPI-stack invariant the rename stage asserts in
    /// debug builds).
    #[must_use]
    pub fn rename_slot_stalls_total(&self) -> u64 {
        self.rename_slot_stalls.iter().sum()
    }

    /// Fraction of all cycles fully stalled at rename for `cause`.
    #[must_use]
    pub fn rename_stall_fraction(&self, cause: RenameStall) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.rename_stall_cycles(cause) as f64 / self.cycles as f64
        }
    }

    /// Fraction of all cycles fully stalled at rename by the WRPKRU
    /// serialization barrier — the paper's Fig. 3 right axis.
    #[must_use]
    pub fn wrpkru_stall_fraction(&self) -> f64 {
        self.rename_stall_fraction(RenameStall::WrpkruSerialize)
    }

    /// Structured form for experiment artifacts: every counter field, the
    /// full 9-cause rename-stall CPI stack (cycle and slot granularity),
    /// the PKRU-engine and memory sub-objects, derived headline metrics,
    /// and any interval samples.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let stalls_by = |get: &dyn Fn(RenameStall) -> u64| {
            let mut obj = Json::object();
            for cause in RenameStall::all() {
                obj.set(cause.name(), get(cause));
            }
            obj
        };
        let mut out = Json::object()
            .with("cycles", self.cycles)
            .with("retired", self.retired)
            .with("retired_wrpkru", self.retired_wrpkru)
            .with("retired_loads", self.retired_loads)
            .with("retired_stores", self.retired_stores)
            .with("retired_branches", self.retired_branches)
            .with("mispredicts", self.mispredicts)
            .with("squashed", self.squashed)
            .with("load_replays", self.load_replays)
            .with("forward_blocked_loads", self.forward_blocked_loads)
            .with("tlb_miss_stalls", self.tlb_miss_stalls)
            .with("forwards", self.forwards)
            .with("protection_faults", self.protection_faults)
            .with("page_faults", self.page_faults)
            .with("ipc", self.ipc())
            .with("wrpkru_per_kilo_instr", self.wrpkru_per_kilo_instr())
            .with("mpki", self.mpki())
            .with("wrpkru_stall_fraction", self.wrpkru_stall_fraction())
            .with("rename_stall_cycles", stalls_by(&|c| self.rename_stall_cycles(c)))
            .with("rename_slot_stalls", stalls_by(&|c| self.rename_slot_stalls(c)))
            .with("pkru", self.pkru.to_json())
            .with("mem", self.mem.to_json())
            .with("histograms", self.hist.to_json())
            .with("samples", Json::Arr(self.samples.iter().map(IntervalSample::to_json).collect()));
        // Only present when profiling actually ran: artifacts stay
        // byte-identical with observability disabled.
        if self.host.has_samples() {
            // The fast-path counter is host-speed observability (it
            // never changes simulated outcomes), so it rides the same
            // gate as the span profile.
            out.set(
                "fast_path",
                Json::object().with("idle_cycles_skipped", self.idle_cycles_skipped),
            );
            out.set("host_profile", self.host.to_json());
        }
        if self.guest.has_samples() {
            out.set("guest_profile", self.guest.to_json(&Self::stall_names()));
        }
        out
    }

    /// The 9 rename-stall cause names in [`RenameStall::index`] order —
    /// the labels the guest profile's per-PC CPI stack uses.
    #[must_use]
    pub fn stall_names() -> [&'static str; 9] {
        RenameStall::all().map(RenameStall::name)
    }
}

/// One interval of the sampled time series: counter deltas over `len`
/// cycles ending at `cycle`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSample {
    /// Cycle at which the sample was taken (the interval's end).
    pub cycle: u64,
    /// Interval length in cycles.
    pub len: u64,
    /// Instructions retired during the interval.
    pub retired: u64,
    /// Cycles fully stalled at rename during the interval, by cause
    /// (indexed per [`RenameStall`]).
    pub stall_cycles: [u64; 9],
    /// Histogram deltas for the interval ([`SimHistograms::diff`] of the
    /// run totals against the previous sample's snapshot), so the
    /// per-interval JSON can reconstruct occupancy-over-time without
    /// full tracing.
    pub hist: SimHistograms,
}

impl IntervalSample {
    /// The interval's IPC.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.retired as f64 / self.len as f64
        }
    }

    /// Fraction of the interval's cycles fully stalled at rename for
    /// `cause`.
    #[must_use]
    pub fn stall_share(&self, cause: RenameStall) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.stall_cycles[cause.index()] as f64 / self.len as f64
        }
    }

    /// Structured form for experiment artifacts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut stalls = Json::object();
        let mut shares = Json::object();
        for cause in RenameStall::all() {
            stalls.set(cause.name(), self.stall_cycles[cause.index()]);
            shares.set(cause.name(), self.stall_share(cause));
        }
        Json::object()
            .with("cycle", self.cycle)
            .with("len", self.len)
            .with("retired", self.retired)
            .with("ipc", self.ipc())
            .with("stall_cycles", stalls)
            .with("stall_share", shares)
            .with("histograms", self.hist.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let mut s =
            SimStats { cycles: 1000, retired: 2500, retired_wrpkru: 50, ..Default::default() };
        s.mispredicts = 25;
        assert!((s.ipc() - 2.5).abs() < 1e-12);
        assert!((s.wrpkru_per_kilo_instr() - 20.0).abs() < 1e-12);
        assert!((s.mpki() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycle_metrics_are_zero() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.wrpkru_per_kilo_instr(), 0.0);
        assert_eq!(s.wrpkru_stall_fraction(), 0.0);
    }

    #[test]
    fn histograms_serialize_with_percentiles() {
        let mut s = SimStats::default();
        s.hist.wrpkru_latency.record_n(12, 50);
        s.hist.rob_pkru_occupancy.record_n(3, 100);
        let j = s.to_json();
        let h = j.get("histograms").unwrap();
        let lat = h.get("wrpkru_latency").unwrap();
        assert_eq!(lat.get("count").unwrap().as_u64(), Some(50));
        assert_eq!(lat.get("p50").unwrap().as_f64(), Some(12.0));
        assert_eq!(lat.get("p99").unwrap().as_f64(), Some(12.0));
        let occ = h.get("rob_pkru_occupancy").unwrap();
        assert_eq!(occ.get("p90").unwrap().as_f64(), Some(3.0));
        // Empty histograms still serialize (zeroed summary, no buckets).
        let sq = h.get("squash_depth").unwrap();
        assert_eq!(sq.get("count").unwrap().as_u64(), Some(0));
        assert_eq!(sq.get("buckets").unwrap().as_arr().unwrap().len(), 0);
    }

    #[test]
    fn interval_histogram_deltas_merge_back_to_totals() {
        let mut total = SimHistograms::default();
        total.rob_occupancy.record_n(10, 40);
        let snap = total.clone();
        total.rob_occupancy.record_n(20, 60);
        total.wrpkru_latency.record(7);
        let delta = total.diff(&snap);
        assert_eq!(delta.rob_occupancy.count(), 60);
        assert_eq!(delta.wrpkru_latency.count(), 1);
        let mut rebuilt = snap.clone();
        rebuilt.merge(&delta);
        assert_eq!(rebuilt.rob_occupancy.count(), total.rob_occupancy.count());
        assert_eq!(rebuilt.rob_occupancy.sum(), total.rob_occupancy.sum());
        assert_eq!(rebuilt.wrpkru_latency.sum(), total.wrpkru_latency.sum());
    }

    #[test]
    fn stall_accounting_by_cause() {
        let mut s = SimStats { cycles: 100, ..Default::default() };
        for _ in 0..30 {
            s.note_rename_stall_cycle(RenameStall::WrpkruSerialize);
        }
        s.note_rename_stall_cycle(RenameStall::ActiveListFull);
        assert_eq!(s.rename_stall_cycles(RenameStall::WrpkruSerialize), 30);
        assert_eq!(s.rename_stall_cycles(RenameStall::ActiveListFull), 1);
        assert!((s.wrpkru_stall_fraction() - 0.3).abs() < 1e-12);
    }
}

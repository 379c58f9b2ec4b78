//! Transient-leakage observability: the speculative-access ledger.
//!
//! The [`LeakObserver`] is a [`TraceSink`] that turns the core's event
//! stream into a security-auditable **ledger**: one entry per speculative
//! (pre-retire) data access, carrying the sequence number, PC, effective
//! address, the accessed page's protection key, the PKRU view the
//! permission check consulted, and the policy's decision
//! ([`AccessDecision`]). Each entry is later resolved to exactly one
//! **fate** — retired (architectural) or squashed (wrong-path) — and
//! squashed entries are joined against the core's [`TraceEvent::Residue`]
//! probes to flag accesses whose cache lines or TLB entries **survive**
//! the squash: the microarchitectural state a flush+reload receiver reads.
//!
//! On top of the ledger sits the witness-chain extractor
//! ([`LeakObserver::witness_chain`]): the causal spine of a transient
//! attack, stitched as
//!
//! ```text
//! train (N retirements of the trigger PC)
//!   → mispredict (squash batch with its cause)
//!     → secret-domain speculative load (allowed, later squashed)
//!       → dependent wrong-path access in another domain
//!         → surviving residue (cache line / TLB entry)
//! ```
//!
//! The joins on sequence numbers go through a window of slots indexed by
//! `seq` (a map only takes a seq whose slot another live seq holds), so
//! the observer hashes nothing per instruction but the retiring PC.
//!
//! Everything is dependency-free and **off by default**: the observer is
//! only attached when explicitly requested (`--leak-ledger`, the
//! `security_matrix` experiment), so default artifacts stay
//! byte-identical and the hot path keeps folding trace calls to nothing.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::json::{Json, ObjectWriter};
use crate::sink::{AccessDecision, PkruCheckKind, SquashCause, TraceEvent, TraceSink};

/// Default maximum number of retained ledger entries (and squash
/// records). Attack PoCs produce a few thousand accesses; a bounded
/// ledger keeps arbitrarily long instrumented runs from growing without
/// limit. Overflow keeps the *earliest* entries and counts the rest in
/// [`LeakObserver::dropped`].
pub const DEFAULT_LEDGER_CAPACITY: usize = 262_144;

/// Default witness-chain cycle window: a dependent access more than this
/// many cycles after the secret-domain load is not considered part of the
/// same transient window.
pub const DEFAULT_WITNESS_WINDOW: u64 = 256;

/// How a ledger entry's instruction left the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The access became architectural.
    Retired {
        /// Retire cycle.
        cycle: u64,
    },
    /// The access was on a wrong path and was squashed.
    Squashed {
        /// Squash cycle.
        cycle: u64,
    },
}

impl Fate {
    /// Stable lowercase name used in ledger lines and report output.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Fate::Retired { .. } => "retired",
            Fate::Squashed { .. } => "squashed",
        }
    }

    /// The cycle the fate was sealed.
    #[must_use]
    pub fn cycle(self) -> u64 {
        match self {
            Fate::Retired { cycle } | Fate::Squashed { cycle } => cycle,
        }
    }
}

/// Which microarchitectural state of a squashed access survived.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResidueFlags {
    /// The accessed cache line is still resident after the squash.
    pub line: bool,
    /// The page's translation is still TLB-resident after the squash.
    pub tlb: bool,
}

impl ResidueFlags {
    /// Whether any state survived at all.
    #[must_use]
    pub fn any(self) -> bool {
        self.line || self.tlb
    }
}

/// One speculative data access, as the ledger records it.
#[derive(Debug, Clone)]
pub struct LedgerEntry {
    /// Rename-time sequence number of the accessing instruction.
    pub seq: u64,
    /// Program counter of the accessing instruction.
    pub pc: u64,
    /// Cycle the access was processed (issue cycle).
    pub cycle: u64,
    /// Effective address.
    pub addr: u64,
    /// Protection key of the accessed page (0 when translation faulted).
    pub pkey: u8,
    /// The 32-bit PKRU view the permission check consulted.
    pub pkru: u32,
    /// Load or store.
    pub kind: PkruCheckKind,
    /// The policy's decision.
    pub decision: AccessDecision,
    /// Resolved fate, or `None` while the instruction is in flight (or
    /// the run ended with it unresolved).
    pub fate: Option<Fate>,
    /// Surviving state, set only for squashed accesses whose footprint
    /// outlived the squash.
    pub residue: Option<ResidueFlags>,
}

impl LedgerEntry {
    /// Appends this entry's compact-JSON ledger line (the `--leak-ledger`
    /// file format, without the newline) to `out`.
    fn write_json(&self, out: &mut String) {
        let residue = self.residue.unwrap_or_default();
        ObjectWriter::new(out)
            .str("record", "access")
            .u64("seq", self.seq)
            .u64("cycle", self.cycle)
            .hex("pc", self.pc)
            .hex("addr", self.addr)
            .u64("pkey", u64::from(self.pkey))
            .hex32("pkru", self.pkru)
            .str("kind", self.kind.name())
            .str("decision", self.decision.name())
            .str("fate", self.fate.map_or("open", Fate::name))
            .u64("fate_cycle", self.fate.map_or(0, Fate::cycle))
            .bool("residue_line", residue.line)
            .bool("residue_tlb", residue.tlb)
            .finish();
    }
}

/// One squash batch, recorded for witness-chain extraction.
#[derive(Debug, Clone)]
pub struct SquashRecord {
    /// Squash cycle.
    pub cycle: u64,
    /// Sequence number of the triggering instruction (the mispredicted
    /// branch or the faulting instruction).
    pub trigger_seq: u64,
    /// Program counter of the triggering instruction (0 when unknown —
    /// the trigger renamed before the observer attached).
    pub trigger_pc: u64,
    /// Why the squash happened.
    pub cause: SquashCause,
    /// Number of squashed victims.
    pub depth: u64,
}

impl SquashRecord {
    /// Appends this record's compact-JSON ledger line (without the
    /// newline) to `out`.
    fn write_json(&self, out: &mut String) {
        ObjectWriter::new(out)
            .str("record", "squash")
            .u64("seq", self.trigger_seq)
            .u64("cycle", self.cycle)
            .hex("pc", self.trigger_pc)
            .str("cause", self.cause.name())
            .u64("depth", self.depth)
            .finish();
    }
}

/// Aggregate ledger counts (the per-cell numbers of the security matrix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerCounts {
    /// Total ledger entries recorded.
    pub accesses: u64,
    /// Entries that retired.
    pub retired: u64,
    /// Entries that were squashed.
    pub squashed: u64,
    /// Entries never resolved (run ended with them in flight).
    pub unresolved: u64,
    /// Squashed entries whose cache line survived.
    pub residue_lines: u64,
    /// Squashed entries whose TLB entry survived.
    pub residue_tlb: u64,
}

impl LedgerCounts {
    /// Structured form for artifacts.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("accesses", self.accesses)
            .with("retired", self.retired)
            .with("squashed", self.squashed)
            .with("unresolved", self.unresolved)
            .with("residue_lines", self.residue_lines)
            .with("residue_tlb", self.residue_tlb)
    }
}

/// The extracted causal spine of a transient-leak attempt: train →
/// mispredict → secret-domain speculative load → dependent wrong-path
/// access → surviving residue.
#[derive(Debug, Clone)]
pub struct WitnessChain {
    /// Architectural retirements of the trigger PC before the squash —
    /// the training evidence.
    pub train_retires: u64,
    /// Sequence number of the mispredicted trigger.
    pub mispredict_seq: u64,
    /// PC of the mispredicted trigger.
    pub mispredict_pc: u64,
    /// Squash cause (branch/indirect/return mispredict, fault flush).
    pub cause: SquashCause,
    /// Cycle the wrong path was squashed.
    pub squash_cycle: u64,
    /// Victims of the squash.
    pub squash_depth: u64,
    /// Sequence number of the secret-domain speculative load.
    pub secret_seq: u64,
    /// PC of the secret-domain load.
    pub secret_pc: u64,
    /// Effective address of the secret-domain load.
    pub secret_addr: u64,
    /// Cycle the secret-domain load was allowed.
    pub secret_cycle: u64,
    /// PKRU view that allowed the secret-domain load (the transient
    /// enable).
    pub secret_pkru: u32,
    /// Sequence number of the dependent (transmitting) access.
    pub dependent_seq: u64,
    /// PC of the dependent access.
    pub dependent_pc: u64,
    /// Effective address of the dependent access.
    pub dependent_addr: u64,
    /// Cycle of the dependent access.
    pub dependent_cycle: u64,
    /// What survived the squash at the dependent access's address.
    pub residue: ResidueFlags,
}

impl WitnessChain {
    /// Structured form for the security-matrix artifact.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::object()
            .with("train_retires", self.train_retires)
            .with("mispredict_seq", self.mispredict_seq)
            .with("mispredict_pc", format!("{:#x}", self.mispredict_pc))
            .with("cause", self.cause.name())
            .with("squash_cycle", self.squash_cycle)
            .with("squash_depth", self.squash_depth)
            .with("secret_seq", self.secret_seq)
            .with("secret_pc", format!("{:#x}", self.secret_pc))
            .with("secret_addr", format!("{:#x}", self.secret_addr))
            .with("secret_cycle", self.secret_cycle)
            .with("secret_pkru", format!("{:#010x}", self.secret_pkru))
            .with("dependent_seq", self.dependent_seq)
            .with("dependent_pc", format!("{:#x}", self.dependent_pc))
            .with("dependent_addr", format!("{:#x}", self.dependent_addr))
            .with("dependent_cycle", self.dependent_cycle)
            .with("residue_line", self.residue.line)
            .with("residue_tlb", self.residue.tlb)
    }
}

/// Hasher for the observer's integer keys (sequence numbers and PCs): one
/// multiply by the 64-bit golden ratio, with the high half folded into
/// the low half so both ends of the hash depend on every key bit. The
/// keys come from the simulated core, so nobody is in a position to
/// craft collisions that SipHash would have resisted.
#[derive(Debug, Default)]
struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let h = (self.0.rotate_left(8) ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }
}

/// A hash map keyed by sequence number or PC.
type IntMap<V> = HashMap<u64, V, BuildHasherDefault<IntHasher>>;

/// End of a same-sequence-number chain in [`LeakObserver::older`].
const NO_ENTRY: usize = usize::MAX;

/// Slots of the [`SeqWindow`]: a power of two above the number of
/// sequence numbers a core keeps in flight at once (an active list of
/// 352), so a pipeline's live seqs rarely share a slot.
const WINDOW_SLOTS: usize = 1024;

/// What the observer knows about one sequence number while it is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Joins {
    /// PC of the instruction, from its rename, until it retires or is
    /// squashed (for squash-trigger attribution and training counts).
    pc: Option<u64>,
    /// Newest not-yet-resolved ledger entry ([`NO_ENTRY`] when none).
    /// An instruction that replays records several entries; they are
    /// linked newest to oldest through [`LeakObserver::older`].
    open: usize,
}

impl Joins {
    const NONE: Joins = Joins { pc: None, open: NO_ENTRY };
}

/// The observer's per-sequence-number state, keyed without hashing: slot
/// `seq % WINDOW_SLOTS` holds the full `seq` beside its [`Joins`]. A
/// core's sequence numbers are dense and increase, so the slot a new seq
/// maps to almost always belongs to a seq that has already retired or
/// been squashed (its joins are empty) and is simply taken over. Only
/// when the slot still holds a different live seq does the new one go to
/// the `spill` map, which keeps any event order exact.
///
/// Each seq lives in exactly one place: a seq enters a slot only when it
/// is not in the spill map, and enters the spill map only when its slot
/// holds another seq.
#[derive(Debug)]
struct SeqWindow {
    slots: Vec<(u64, Joins)>,
    spill: IntMap<Joins>,
}

impl SeqWindow {
    fn new() -> SeqWindow {
        SeqWindow { slots: vec![(0, Joins::NONE); WINDOW_SLOTS], spill: IntMap::default() }
    }

    #[inline]
    fn slot(seq: u64) -> usize {
        seq as usize & (WINDOW_SLOTS - 1)
    }

    /// The joins of `seq` (empty when it is not live).
    #[inline]
    fn get(&self, seq: u64) -> Joins {
        let (held, joins) = self.slots[Self::slot(seq)];
        if held == seq {
            joins
        } else if self.spill.is_empty() {
            Joins::NONE
        } else {
            self.spill.get(&seq).copied().unwrap_or(Joins::NONE)
        }
    }

    /// The joins of `seq`, for update: its slot, taken over if the seq
    /// there is no longer live, else its spill entry.
    #[inline]
    fn get_mut(&mut self, seq: u64) -> &mut Joins {
        let SeqWindow { slots, spill } = self;
        let (held, joins) = &mut slots[Self::slot(seq)];
        if *held == seq
            || (*joins == Joins::NONE && (spill.is_empty() || !spill.contains_key(&seq)))
        {
            *held = seq;
            joins
        } else {
            spill.entry(seq).or_insert(Joins::NONE)
        }
    }

    /// Removes and returns the joins of `seq` (it retired or was
    /// squashed).
    #[inline]
    fn take(&mut self, seq: u64) -> Joins {
        let (held, joins) = &mut self.slots[Self::slot(seq)];
        if *held == seq {
            std::mem::replace(joins, Joins::NONE)
        } else if self.spill.is_empty() {
            Joins::NONE
        } else {
            self.spill.remove(&seq).unwrap_or(Joins::NONE)
        }
    }
}

/// The speculative-access ledger sink.
///
/// Attach it like any other sink (`Core::with_sink`, or one side of a
/// [`Tee`](crate::sink::Tee)); after the run, read the resolved
/// [`entries`](LeakObserver::entries), the aggregate
/// [`counts`](LeakObserver::counts), or extract a
/// [`witness_chain`](LeakObserver::witness_chain).
///
/// The joins on sequence numbers (an access's fate and residue, a
/// squash trigger's PC) go through a window indexed by `seq` rather than
/// a hash map (see `SeqWindow`); only the per-PC retirement counts are
/// hashed. Recording an event allocates nothing beyond amortized growth
/// of the ledger, and the core's inlined [`TraceSink::record`] drops the
/// lifecycle events the ledger ignores (issue, completion and the rest)
/// with a compare at the call site. No output ever iterates a hash map —
/// entries and squash records are reported in arrival order, so ledgers
/// are byte-deterministic for a deterministic core.
#[derive(Debug)]
pub struct LeakObserver {
    entries: Vec<LedgerEntry>,
    squashes: Vec<SquashRecord>,
    capacity: usize,
    dropped: u64,
    /// In-flight PC and newest open entry of every live seq.
    live: SeqWindow,
    /// For each entry, the next older entry of the same sequence number
    /// ([`NO_ENTRY`] ends the chain).
    older: Vec<usize>,
    /// Architectural retirement counts per PC (training evidence).
    retired_pcs: IntMap<u64>,
}

impl Default for LeakObserver {
    fn default() -> Self {
        LeakObserver::with_capacity(DEFAULT_LEDGER_CAPACITY)
    }
}

impl LeakObserver {
    /// An observer retaining at most `capacity` ledger entries (and as
    /// many squash records).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> LeakObserver {
        LeakObserver {
            entries: Vec::new(),
            squashes: Vec::new(),
            capacity: capacity.max(1),
            dropped: 0,
            live: SeqWindow::new(),
            older: Vec::new(),
            retired_pcs: IntMap::default(),
        }
    }

    /// The ledger, in arrival (issue) order.
    #[must_use]
    pub fn entries(&self) -> &[LedgerEntry] {
        &self.entries
    }

    /// Squash batches, in arrival order.
    #[must_use]
    pub fn squashes(&self) -> &[SquashRecord] {
        &self.squashes
    }

    /// Accesses dropped because the ledger was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Architectural retirements recorded for `pc`.
    #[must_use]
    pub fn retire_count(&self, pc: u64) -> u64 {
        self.retired_pcs.get(&pc).copied().unwrap_or(0)
    }

    /// Aggregate counts over the ledger.
    #[must_use]
    pub fn counts(&self) -> LedgerCounts {
        let mut c = LedgerCounts { accesses: self.entries.len() as u64, ..Default::default() };
        for e in &self.entries {
            match e.fate {
                Some(Fate::Retired { .. }) => c.retired += 1,
                Some(Fate::Squashed { .. }) => c.squashed += 1,
                None => c.unresolved += 1,
            }
            if let Some(r) = e.residue {
                c.residue_lines += u64::from(r.line);
                c.residue_tlb += u64::from(r.tlb);
            }
        }
        c
    }

    /// Squashed entries (any domain) with surviving residue — the raw
    /// material a flush+reload receiver measures.
    pub fn residue_entries(&self) -> impl Iterator<Item = &LedgerEntry> {
        self.entries.iter().filter(|e| {
            matches!(e.fate, Some(Fate::Squashed { .. }))
                && e.residue.is_some_and(ResidueFlags::any)
        })
    }

    /// Extracts the first witness chain for `secret_pkey` under the
    /// [`DEFAULT_WITNESS_WINDOW`]; see
    /// [`witness_chain_within`](LeakObserver::witness_chain_within).
    #[must_use]
    pub fn witness_chain(&self, secret_pkey: u8) -> Option<WitnessChain> {
        self.witness_chain_within(secret_pkey, DEFAULT_WITNESS_WINDOW)
    }

    /// Extracts the first (oldest) complete witness chain for
    /// `secret_pkey`: a squashed-but-allowed load of a `secret_pkey`
    /// page, the squash batch that killed it, and a younger dependent
    /// wrong-path access in a *different* domain within `window` cycles
    /// whose line or TLB entry survived the squash. Returns `None` when
    /// no such chain exists — the policy closed the window, deferred the
    /// access, or no residue survived.
    #[must_use]
    pub fn witness_chain_within(&self, secret_pkey: u8, window: u64) -> Option<WitnessChain> {
        for e in &self.entries {
            let Some(Fate::Squashed { cycle: squash_cycle }) = e.fate else { continue };
            if e.pkey != secret_pkey
                || e.kind != PkruCheckKind::Load
                || e.decision != AccessDecision::Allowed
            {
                continue;
            }
            // The squash batch that killed this access: same cycle, older
            // trigger. The youngest matching trigger is the precise one
            // (nested squashes in one cycle are resolved oldest-last).
            let Some(s) = self
                .squashes
                .iter()
                .rev()
                .find(|s| s.cycle == squash_cycle && s.trigger_seq < e.seq)
            else {
                continue;
            };
            // Dependent transmission: a younger wrong-path access outside
            // the secret domain, in the same squash, within the window,
            // with surviving residue.
            let dependent = self.entries.iter().find(|d| {
                d.seq > e.seq
                    && d.pkey != secret_pkey
                    && d.decision == AccessDecision::Allowed
                    && d.fate == Some(Fate::Squashed { cycle: squash_cycle })
                    && d.cycle.saturating_sub(e.cycle) <= window
                    && d.residue.is_some_and(ResidueFlags::any)
            });
            if let Some(d) = dependent {
                return Some(WitnessChain {
                    train_retires: self.retire_count(s.trigger_pc),
                    mispredict_seq: s.trigger_seq,
                    mispredict_pc: s.trigger_pc,
                    cause: s.cause,
                    squash_cycle,
                    squash_depth: s.depth,
                    secret_seq: e.seq,
                    secret_pc: e.pc,
                    secret_addr: e.addr,
                    secret_cycle: e.cycle,
                    secret_pkru: e.pkru,
                    dependent_seq: d.seq,
                    dependent_pc: d.pc,
                    dependent_addr: d.addr,
                    dependent_cycle: d.cycle,
                    residue: d.residue.unwrap_or_default(),
                });
            }
        }
        None
    }

    /// Renders the ledger as JSONL: access lines in arrival order, then
    /// squash lines (one record per line, trailing newline).
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        // Not presized: sizing the buffer up front raised the observed
        // benchmark's peak RSS by 1 MiB, with no measurable speed gain.
        let mut out = String::new();
        for e in &self.entries {
            e.write_json(&mut out);
            out.push('\n');
        }
        for s in &self.squashes {
            s.write_json(&mut out);
            out.push('\n');
        }
        out
    }

    /// Writes the ledger to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }

    /// A rename: `seq` is in flight at `pc`.
    fn renamed(&mut self, seq: u64, pc: u64) {
        self.live.get_mut(seq).pc = Some(pc);
    }

    /// A speculative access: a new open entry, chained to the older open
    /// entries of its seq (a replay).
    fn accessed(&mut self, entry: LedgerEntry) {
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        let newest = self.entries.len();
        self.older.push(std::mem::replace(&mut self.live.get_mut(entry.seq).open, newest));
        self.entries.push(entry);
    }

    /// `seq` retired or was squashed: seals the fate of its open entries,
    /// and counts a retirement against its PC.
    fn sealed(&mut self, seq: u64, fate: Fate) {
        let joins = self.live.take(seq);
        let mut i = joins.open;
        while i != NO_ENTRY {
            self.entries[i].fate = Some(fate);
            i = self.older[i];
        }
        if let (Some(pc), Fate::Retired { .. }) = (joins.pc, fate) {
            *self.retired_pcs.entry(pc).or_insert(0) += 1;
        }
    }

    /// A residue probe of `seq`. Probes arrive before the victim's Squash
    /// event, so its entries are still open.
    fn residue(&mut self, seq: u64, addr: u64, flags: ResidueFlags) {
        let mut i = self.live.get(seq).open;
        while i != NO_ENTRY {
            if self.entries[i].addr == addr {
                self.entries[i].residue = Some(flags);
            }
            i = self.older[i];
        }
    }

    /// A squash batch triggered by `seq`.
    fn squash_batch(&mut self, seq: u64, cycle: u64, depth: u64, cause: SquashCause) {
        if self.squashes.len() < self.capacity {
            let trigger_pc = self.live.get(seq).pc.unwrap_or(0);
            self.squashes.push(SquashRecord { cycle, trigger_seq: seq, trigger_pc, cause, depth });
        }
    }
}

impl TraceSink for LeakObserver {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    /// Inlined into the core's call sites, where the variant is known:
    /// the events the ledger ignores cost nothing there, and each joined
    /// one calls its out-of-line body with just the fields it reads.
    #[inline(always)]
    fn record(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Rename { seq, pc, .. } => self.renamed(seq, pc),
            TraceEvent::SpecAccess { seq, cycle, pc, addr, pkey, pkru, kind, decision } => {
                self.accessed(LedgerEntry {
                    seq,
                    pc,
                    cycle,
                    addr,
                    pkey,
                    pkru,
                    kind,
                    decision,
                    fate: None,
                    residue: None,
                });
            }
            TraceEvent::Retire { seq, cycle } => self.sealed(seq, Fate::Retired { cycle }),
            TraceEvent::Squash { seq, cycle } => self.sealed(seq, Fate::Squashed { cycle }),
            TraceEvent::Residue { seq, addr, line, tlb, .. } => {
                self.residue(seq, addr, ResidueFlags { line, tlb });
            }
            TraceEvent::SquashBatch { seq, cycle, depth, cause, .. } => {
                self.squash_batch(seq, cycle, depth, cause);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn access(seq: u64, cycle: u64, pkey: u8, decision: AccessDecision) -> TraceEvent {
        TraceEvent::SpecAccess {
            seq,
            cycle,
            pc: 0x1000 + 4 * seq,
            addr: 0x2000 + 8 * seq,
            pkey,
            pkru: 0xffff_ffff,
            kind: PkruCheckKind::Load,
            decision,
        }
    }

    fn rename(seq: u64, pc: u64) -> TraceEvent {
        TraceEvent::Rename { seq, pc, fetch_cycle: 0, cycle: 1, instr: specmpk_isa::Instr::Nop }
    }

    #[test]
    fn entries_resolve_to_retired_or_squashed() {
        let mut o = LeakObserver::default();
        o.record(access(1, 10, 0, AccessDecision::Allowed));
        o.record(access(2, 11, 4, AccessDecision::Allowed));
        o.record(access(3, 12, 0, AccessDecision::Deferred));
        o.record(TraceEvent::Retire { seq: 1, cycle: 20 });
        o.record(TraceEvent::Squash { seq: 2, cycle: 21 });
        let c = o.counts();
        assert_eq!((c.accesses, c.retired, c.squashed, c.unresolved), (3, 1, 1, 1));
        assert_eq!(o.entries()[0].fate, Some(Fate::Retired { cycle: 20 }));
        assert_eq!(o.entries()[1].fate, Some(Fate::Squashed { cycle: 21 }));
        assert_eq!(o.entries()[2].fate, None);
    }

    #[test]
    fn residue_joins_on_seq_and_addr_before_squash() {
        let mut o = LeakObserver::default();
        o.record(access(5, 10, 4, AccessDecision::Allowed));
        o.record(TraceEvent::Residue {
            seq: 5,
            cycle: 15,
            addr: 0x2000 + 8 * 5,
            pkey: 4,
            line: true,
            tlb: true,
        });
        o.record(TraceEvent::Squash { seq: 5, cycle: 15 });
        let e = &o.entries()[0];
        assert_eq!(e.residue, Some(ResidueFlags { line: true, tlb: true }));
        assert_eq!(o.counts().residue_lines, 1);
        assert_eq!(o.counts().residue_tlb, 1);
        assert_eq!(o.residue_entries().count(), 1);
    }

    #[test]
    fn witness_chain_stitches_the_full_spine() {
        let mut o = LeakObserver::default();
        // Training: the branch at 0x1008 retires three times.
        for seq in 1..=3 {
            o.record(rename(seq, 0x1008));
            o.record(TraceEvent::Retire { seq, cycle: seq });
        }
        // Attack iteration: branch renames, secret load (pkey 4) and the
        // dependent probe-array load (pkey 0) run speculatively.
        o.record(rename(10, 0x1008));
        o.record(rename(11, 0x100c));
        o.record(rename(12, 0x1010));
        o.record(access(11, 50, 4, AccessDecision::Allowed)); // secret
        o.record(access(12, 55, 0, AccessDecision::Allowed)); // transmit
        o.record(TraceEvent::SquashBatch {
            seq: 10,
            cycle: 60,
            depth: 2,
            cause: SquashCause::BranchMispredict,
            rob: 8,
        });
        o.record(TraceEvent::Residue {
            seq: 12,
            cycle: 60,
            addr: 0x2000 + 8 * 12,
            pkey: 0,
            line: true,
            tlb: false,
        });
        o.record(TraceEvent::Squash { seq: 12, cycle: 60 });
        o.record(TraceEvent::Squash { seq: 11, cycle: 60 });
        let w = o.witness_chain(4).expect("chain found");
        assert_eq!(w.train_retires, 3);
        assert_eq!(w.mispredict_pc, 0x1008);
        assert_eq!(w.cause, SquashCause::BranchMispredict);
        assert_eq!((w.secret_seq, w.dependent_seq), (11, 12));
        assert!(w.residue.line && !w.residue.tlb);
        // A secret domain that never leaked yields no chain.
        assert!(o.witness_chain(7).is_none());
    }

    #[test]
    fn witness_chain_requires_residue_and_window() {
        let mut o = LeakObserver::default();
        o.record(rename(10, 0x1008));
        o.record(access(11, 50, 4, AccessDecision::Allowed));
        o.record(access(12, 55, 0, AccessDecision::Allowed)); // no residue
        o.record(TraceEvent::SquashBatch {
            seq: 10,
            cycle: 60,
            depth: 2,
            cause: SquashCause::BranchMispredict,
            rob: 8,
        });
        o.record(TraceEvent::Squash { seq: 12, cycle: 60 });
        o.record(TraceEvent::Squash { seq: 11, cycle: 60 });
        assert!(o.witness_chain(4).is_none(), "no residue, no chain");
    }

    #[test]
    fn deferred_secret_access_yields_no_chain() {
        let mut o = LeakObserver::default();
        o.record(rename(10, 0x1008));
        o.record(access(11, 50, 4, AccessDecision::Deferred)); // blocked
        o.record(access(12, 55, 0, AccessDecision::Allowed));
        o.record(TraceEvent::SquashBatch {
            seq: 10,
            cycle: 60,
            depth: 2,
            cause: SquashCause::BranchMispredict,
            rob: 8,
        });
        o.record(TraceEvent::Residue {
            seq: 12,
            cycle: 60,
            addr: 0x2000 + 8 * 12,
            pkey: 0,
            line: true,
            tlb: false,
        });
        o.record(TraceEvent::Squash { seq: 12, cycle: 60 });
        o.record(TraceEvent::Squash { seq: 11, cycle: 60 });
        assert!(o.witness_chain(4).is_none(), "deferred secret access is not a leak");
    }

    #[test]
    fn ledger_capacity_counts_drops() {
        let mut o = LeakObserver::with_capacity(2);
        for seq in 0..5 {
            o.record(access(seq, seq, 0, AccessDecision::Allowed));
        }
        assert_eq!(o.entries().len(), 2);
        assert_eq!(o.dropped(), 3);
    }

    #[test]
    fn jsonl_lines_parse_and_carry_the_schema() {
        let mut o = LeakObserver::default();
        o.record(rename(1, 0x1004));
        o.record(access(1, 10, 4, AccessDecision::Allowed));
        o.record(TraceEvent::Retire { seq: 1, cycle: 20 });
        o.record(TraceEvent::SquashBatch {
            seq: 1,
            cycle: 30,
            depth: 0,
            cause: SquashCause::FaultFlush,
            rob: 1,
        });
        let text = o.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let access = Json::parse(lines[0]).expect("valid JSON");
        assert_eq!(access.get("record").and_then(Json::as_str), Some("access"));
        assert_eq!(access.get("fate").and_then(Json::as_str), Some("retired"));
        assert_eq!(access.get("pkey").and_then(Json::as_u64), Some(4));
        let squash = Json::parse(lines[1]).expect("valid JSON");
        assert_eq!(squash.get("record").and_then(Json::as_str), Some("squash"));
        assert_eq!(squash.get("cause").and_then(Json::as_str), Some("fault_flush"));
    }
}

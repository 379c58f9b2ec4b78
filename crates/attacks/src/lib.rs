//! Proof-of-concept speculative attacks on MPK permission updates
//! (paper §IX-C and §III-C).
//!
//! Each attack builds a self-contained victim+attacker [`Program`] and runs
//! it on the out-of-order core under a chosen policy ([`PolicyRef`]); the
//! **flush+reload receiver** then probes the simulated cache from outside
//! the program (exactly what Fig. 13 plots: per-index access latency of the
//! probe array after the attack). Three PoCs are provided:
//!
//! * [`spectre_v1`] — Listing 1 / Fig. 12(c): a bounds-check branch is
//!   trained taken, then mispredicts; the transient path executes a
//!   `WRPKRU` that *enables* access to the secret-colored page and leaks
//!   `array1[X]` through `array2[array1[X] * 512]`;
//! * [`spectre_bti`] — Fig. 12(d): an indirect call's BTB entry is trained
//!   to a gadget containing the enabling `WRPKRU`, then the architectural
//!   target changes; the stale BTB prediction transiently executes the
//!   gadget;
//! * [`store_forward_overflow`] — §III-C: a transient write-enable lets a
//!   wrong-path store forward a poisoned value to a younger load
//!   (speculative buffer overflow, Kiriansky & Waldspurger \[28\]); SpecMPK
//!   blocks the forwarding.
//!
//! The attack drivers follow real-world Spectre PoC discipline: **training
//! and attack run in the same loop with branchless argument selection**, so
//! the victim branch sees an identical global-history context on the attack
//! iteration and the direction predictor's trained state applies.
//!
//! Expected outcome (asserted by the integration tests and reproduced by
//! the `fig13` experiment): **NonSecure SpecMPK leaks** (the secret index
//! is cache-hot), **SpecMPK and Serialized do not**.
//!
//! # Examples
//!
//! ```
//! use specmpk_attacks::{spectre_v1, run_attack, AttackKind};
//! use specmpk_core::PolicyRef;
//!
//! let attack = spectre_v1(101, 72);
//! let outcome = run_attack(&attack, PolicyRef::NONSECURE_SPEC);
//! assert!(outcome.hot_indices().contains(&101));       // leaked
//!
//! let outcome = run_attack(&attack, PolicyRef::SPEC_MPK);
//! assert!(!outcome.hot_indices().contains(&101));      // blocked
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use specmpk_core::PolicyRef;
use specmpk_isa::{AluOp, Assembler, BranchCond, DataSegment, MemWidth, Operand, Program, Reg};
use specmpk_mpk::{Pkey, Pkru};
use specmpk_ooo::{Core, ExitReason, SimConfig};
use specmpk_trace::LeakObserver;

/// Which PoC an [`AttackProgram`] implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Conditional-branch misprediction (Spectre-V1-style, Fig. 12(c)).
    SpectreV1,
    /// Indirect-branch target injection (Spectre-BTI-style, Fig. 12(d)).
    SpectreBti,
    /// Speculative store-to-load-forwarding buffer overflow (§III-C).
    StoreForwardOverflow,
}

impl AttackKind {
    /// Stable machine-readable name, used as the row key of the
    /// `security_matrix` artifact and its golden-verdict file.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::SpectreV1 => "spectre_v1",
            AttackKind::SpectreBti => "spectre_bti",
            AttackKind::StoreForwardOverflow => "store_forward_overflow",
        }
    }
}

/// Builds every PoC with its canonical parameters (secret byte 101 and
/// training byte 72 for the Spectre variants — the paper's Fig. 13
/// values — and poison 13 for the store-forwarding overflow): the rows
/// of the policy × attack security matrix.
#[must_use]
pub fn all_attacks() -> Vec<AttackProgram> {
    vec![spectre_v1(101, 72), spectre_bti(101, 72), store_forward_overflow(13)]
}

/// Number of probe-array slots (one per possible byte value).
pub const PROBE_SLOTS: usize = 256;
/// Stride between probe slots in bytes (Fig. 13 plots multiples of 512).
pub const PROBE_STRIDE: u64 = 512;

const ARRAY1_BASE: u64 = 0x20000;
const ARRAY2_BASE: u64 = 0x100000;
const BOUND_ADDR: u64 = 0x30000;
const FNPTR_ADDR: u64 = 0x30008;
const SAFE_BASE: u64 = 0x40000;

const TRAIN_POS: u64 = 1;
const ATTACK_POS: u64 = 8;
const TRAIN_ROUNDS: i64 = 40;

/// A victim+attacker program plus the receiver's probe parameters.
#[derive(Debug, Clone)]
pub struct AttackProgram {
    kind: AttackKind,
    program: Program,
    secret_index: usize,
    train_index: usize,
}

impl AttackProgram {
    /// Which PoC this is.
    #[must_use]
    pub fn kind(&self) -> AttackKind {
        self.kind
    }

    /// The underlying program (inspect or run manually).
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The probe index the attack tries to leak.
    #[must_use]
    pub fn secret_index(&self) -> usize {
        self.secret_index
    }

    /// The probe index touched architecturally (hot in every policy).
    #[must_use]
    pub fn train_index(&self) -> usize {
        self.train_index
    }

    /// The protection key guarding the secret this attack targets: the
    /// `array1` secret page for the Spectre variants, the write-locked
    /// "safe" page for the store-forwarding overflow. The witness-chain
    /// extractor filters the ledger by this pkey.
    #[must_use]
    pub fn secret_pkey(&self) -> Pkey {
        match self.kind {
            AttackKind::SpectreV1 | AttackKind::SpectreBti => secret_pkey(),
            AttackKind::StoreForwardOverflow => Pkey::new(5).expect("static pkey"),
        }
    }
}

/// Result of running an attack: the receiver's per-index reload latencies.
#[derive(Debug, Clone)]
pub struct AttackOutcome {
    exit: ExitReason,
    latencies: Vec<u64>,
    threshold: u64,
}

impl AttackOutcome {
    /// Builds an outcome from a measured latency vector and a chosen
    /// hit/miss `threshold`.
    ///
    /// [`run_attack`] picks the threshold as the midpoint between the two
    /// latency populations the receiver can observe — an L1 hit
    /// (`l1d.latency`) and a full DRAM round trip (`l3.latency +
    /// dram_extra_latency`, the L3 lookup that misses plus the memory
    /// access): `(l1d + l3 + dram_extra) / 2`. Any index whose reload
    /// latency is **strictly below** the threshold is classified hot; a
    /// latency exactly *at* the threshold counts as cold, so an
    /// equidistant (ambiguous) measurement never produces a leak verdict.
    /// Callers replaying latencies from another hierarchy, or studying
    /// classifier sensitivity, supply their own threshold here.
    #[must_use]
    pub fn new(exit: ExitReason, latencies: Vec<u64>, threshold: u64) -> Self {
        AttackOutcome { exit, latencies, threshold }
    }

    /// How the victim program exited (should be `Halted`).
    #[must_use]
    pub fn exit(&self) -> &ExitReason {
        &self.exit
    }

    /// Reload latency per probe index — the y-axis of Fig. 13.
    #[must_use]
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// The hit/miss latency threshold used by
    /// [`hot_indices`](AttackOutcome::hot_indices) — see
    /// [`AttackOutcome::new`] for how [`run_attack`] derives it.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.threshold
    }

    /// Probe indices whose reload latency indicates a cache hit: strictly
    /// below [`threshold`](AttackOutcome::threshold). Ties are cold (see
    /// [`AttackOutcome::new`]).
    #[must_use]
    pub fn hot_indices(&self) -> Vec<usize> {
        self.latencies
            .iter()
            .enumerate()
            .filter(|(_, &l)| l < self.threshold)
            .map(|(i, _)| i)
            .collect()
    }

    /// Whether `index` was leaked into the cache.
    #[must_use]
    pub fn leaked(&self, index: usize) -> bool {
        self.latencies.get(index).is_some_and(|&l| l < self.threshold)
    }
}

fn secret_pkey() -> Pkey {
    Pkey::new(4).expect("static pkey")
}

fn locked_pkru() -> Pkru {
    Pkru::ALL_ACCESS.with_access_disabled(secret_pkey(), true)
}

/// Emits `clflush` over every probe slot, plus the bound and function
/// pointer lines, so the victim's resolution-critical loads are slow and
/// the transient window is wide. Fully unrolled — no conditional branches —
/// so it neither perturbs the global history the victim branch is trained
/// under nor aliases into the victim's PHT entry (a deterministic gshare
/// collision would silently erase the training every iteration). Clobbers
/// T0.
fn emit_flush_probe(asm: &mut Assembler) {
    asm.li(Reg::T0, ARRAY2_BASE as i64);
    for i in 0..PROBE_SLOTS as i32 {
        asm.clflush(Reg::T0, i * PROBE_STRIDE as i32);
    }
    asm.li(Reg::T0, BOUND_ADDR as i64);
    asm.clflush(Reg::T0, 0);
    asm.li(Reg::T0, FNPTR_ADDR as i64);
    asm.clflush(Reg::T0, 0);
}

/// Emits the branchless selector: `A0 := TRAIN_POS`, except on the last
/// iteration (`i == rounds`) where `A0 := ATTACK_POS`. `i` is in S0 and
/// `rounds` in S1; clobbers T3.
fn emit_branchless_arg(asm: &mut Assembler) {
    // T3 := (i < rounds) ? 1 : 0 ; A0 := ATTACK - (ATTACK-TRAIN)*T3.
    asm.alu(AluOp::Sltu, Reg::T3, Reg::S0, Operand::Reg(Reg::S1));
    asm.alu(AluOp::Mul, Reg::T3, Reg::T3, Operand::Imm((ATTACK_POS - TRAIN_POS) as i32));
    asm.li(Reg::A0, ATTACK_POS as i64);
    asm.alu(AluOp::Sub, Reg::A0, Reg::A0, Operand::Reg(Reg::T3));
}

fn attack_segments(secret_value: u8, train_value: u8) -> Vec<DataSegment> {
    // array1: byte TRAIN_POS holds the training value (in bounds), byte
    // ATTACK_POS holds the "secret". Both share one cache line, so the
    // transient secret load is an L1 hit (standard PoC preparation).
    let mut array1 = vec![0u8; 4096];
    array1[TRAIN_POS as usize] = train_value;
    array1[ATTACK_POS as usize] = secret_value;
    let mut vars = vec![0u8; 4096];
    vars[0] = ATTACK_POS as u8; // bound: X = ATTACK_POS is out of bounds
    vec![
        DataSegment {
            base: ARRAY1_BASE,
            size: 4096,
            init: array1,
            pkey: secret_pkey(),
            perms: specmpk_isa::SegmentPerms::RW,
            name: "array1_secret".into(),
        },
        DataSegment::with_bytes("vars", BOUND_ADDR, vars, Pkey::DEFAULT),
        DataSegment::zeroed(
            "array2_probe",
            ARRAY2_BASE,
            PROBE_SLOTS as u64 * PROBE_STRIDE,
            Pkey::DEFAULT,
        ),
        DataSegment::zeroed("stack", 0x7F00_0000, 4096, Pkey::DEFAULT),
    ]
}

/// The attack driver loop shared by the conditional-branch PoCs:
///
/// ```text
/// for i in 0..=rounds {            // identical context every iteration
///     flush(array2, bound, fnptr); // receiver's flush phase
///     A0 = branchless(i);          // TRAIN_POS, last iteration ATTACK_POS
///     call victim;
/// }
/// touch array2[train_value * 512]; // the surviving training footprint
/// halt;
/// ```
fn emit_driver_loop(asm: &mut Assembler, victim: specmpk_isa::Label, train_value: u8) {
    let outer = asm.fresh_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, TRAIN_ROUNDS);
    asm.bind(outer).expect("fresh");
    emit_flush_probe(asm);
    emit_branchless_arg(asm);
    asm.call(victim);
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Geu, Reg::S1, Reg::S0, outer);
    // The training index stays architecturally hot (the paper's Fig. 13
    // shows it hot under every policy): re-touch it once after the attack.
    asm.li(Reg::T0, (ARRAY2_BASE + u64::from(train_value) * PROBE_STRIDE) as i64);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::B);
    asm.halt();
}

/// Builds the Spectre-V1-style PoC (paper Listing 1 / Fig. 12(c)).
///
/// Victim: `if (X < bound) { wrpkru(enable); y = array2[array1[X] * 512];
/// wrpkru(disable); }`. The bound is flushed before every call, so the
/// bounds check resolves slowly; on the final (attack) iteration the branch
/// is predicted not-taken from training and the transient path runs with
/// `X = ATTACK_POS`, whose `array1` byte is `secret_value`.
#[must_use]
pub fn spectre_v1(secret_value: u8, train_value: u8) -> AttackProgram {
    let mut asm = Assembler::new(0x1000);
    let victim = asm.fresh_label();
    let start = asm.fresh_label();

    asm.jump(start);

    // ---- victim(X in A0) ----
    asm.bind(victim).expect("fresh");
    let skip = asm.fresh_label();
    asm.li(Reg::T0, BOUND_ADDR as i64);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::B); // slow: flushed
    asm.branch(BranchCond::Geu, Reg::A0, Reg::T1, skip); // X >= bound → skip
    asm.set_pkru(Pkru::ALL_ACCESS.bits()); // transient enable on wrong path
    asm.li(Reg::T2, ARRAY1_BASE as i64);
    asm.alu(AluOp::Add, Reg::T2, Reg::T2, Operand::Reg(Reg::A0));
    asm.load(Reg::T3, Reg::T2, 0, MemWidth::B); // secret byte
    asm.alu(AluOp::Sll, Reg::T3, Reg::T3, Operand::Imm(9)); // * 512
    asm.li(Reg::T2, ARRAY2_BASE as i64);
    asm.alu(AluOp::Add, Reg::T2, Reg::T2, Operand::Reg(Reg::T3));
    asm.load(Reg::T4, Reg::T2, 0, MemWidth::B); // transmit
    asm.set_pkru(locked_pkru().bits());
    asm.bind(skip).expect("fresh");
    asm.ret();

    // ---- driver ----
    asm.bind(start).expect("fresh");
    asm.set_pkru(locked_pkru().bits());
    emit_driver_loop(&mut asm, victim, train_value);

    let mut program = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    for seg in attack_segments(secret_value, train_value) {
        program.add_segment(seg);
    }
    AttackProgram {
        kind: AttackKind::SpectreV1,
        program,
        secret_index: secret_value as usize,
        train_index: train_value as usize,
    }
}

/// Builds the Spectre-BTI-style PoC (Fig. 12(d)): the victim makes an
/// indirect call through a function pointer. During training the pointer
/// targets a gadget that (legally) enables access and transmits
/// `array1[X]`; on the attack iteration the pointer is switched
/// (branchlessly) to a benign function, but the pointer line is flushed, so
/// the stale BTB prediction transiently executes the gadget with the
/// attacker's `X`.
#[must_use]
pub fn spectre_bti(secret_value: u8, train_value: u8) -> AttackProgram {
    let mut asm = Assembler::new(0x1000);
    let gadget = asm.fresh_label();
    let benign = asm.fresh_label();
    let victim = asm.fresh_label();
    let start = asm.fresh_label();

    asm.jump(start);

    // ---- gadget(X in A0): enable, transmit array1[X], disable ----
    asm.bind(gadget).expect("fresh");
    asm.set_pkru(Pkru::ALL_ACCESS.bits());
    asm.li(Reg::T2, ARRAY1_BASE as i64);
    asm.alu(AluOp::Add, Reg::T2, Reg::T2, Operand::Reg(Reg::A0));
    asm.load(Reg::T3, Reg::T2, 0, MemWidth::B);
    asm.alu(AluOp::Sll, Reg::T3, Reg::T3, Operand::Imm(9));
    asm.li(Reg::T2, ARRAY2_BASE as i64);
    asm.alu(AluOp::Add, Reg::T2, Reg::T2, Operand::Reg(Reg::T3));
    asm.load(Reg::T4, Reg::T2, 0, MemWidth::B);
    asm.set_pkru(locked_pkru().bits());
    asm.ret();

    // ---- benign(): no memory traffic ----
    asm.bind(benign).expect("fresh");
    asm.ret();

    // ---- victim(X in A0): call (*fnptr)(X) ----
    // A separate victim function gives the indirect call a single static
    // call site (one BTB entry), as in the paper's example.
    asm.bind(victim).expect("fresh");
    asm.addi(Reg::SP, Reg::SP, -16);
    asm.store(Reg::RA, Reg::SP, 8, MemWidth::D);
    asm.li(Reg::T0, FNPTR_ADDR as i64);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::D); // slow: flushed
    asm.jalr(Reg::RA, Reg::T1);
    asm.load(Reg::RA, Reg::SP, 8, MemWidth::D);
    asm.addi(Reg::SP, Reg::SP, 16);
    asm.ret();

    // ---- driver ----
    asm.bind(start).expect("fresh");
    let gadget_addr = asm.address_of(gadget).expect("bound");
    let benign_addr = asm.address_of(benign).expect("bound");
    asm.set_pkru(locked_pkru().bits());
    // Same-context loop; additionally store the (branchlessly selected)
    // pointer target each iteration: gadget while training, benign on the
    // attack iteration.
    let outer = asm.fresh_label();
    asm.li(Reg::S0, 0);
    asm.li(Reg::S1, TRAIN_ROUNDS);
    asm.bind(outer).expect("fresh");
    // T3 := training? 1 : 0 ; ptr := benign + (gadget-benign)*T3. The
    // store happens *before* the long flush block so it has drained by the
    // time the block's final fnptr clflush executes (clflush orders after
    // older same-line stores, and the 256-slot flush gives the flush ample
    // time to land before the victim's pointer load).
    asm.alu(AluOp::Sltu, Reg::T3, Reg::S0, Operand::Reg(Reg::S1));
    asm.li(
        Reg::T4,
        i64::try_from(gadget_addr).expect("small") - i64::try_from(benign_addr).expect("small"),
    );
    asm.alu(AluOp::Mul, Reg::T3, Reg::T3, Operand::Reg(Reg::T4));
    asm.li(Reg::T4, benign_addr as i64);
    asm.alu(AluOp::Add, Reg::T4, Reg::T4, Operand::Reg(Reg::T3));
    asm.li(Reg::T0, FNPTR_ADDR as i64);
    asm.store(Reg::T4, Reg::T0, 0, MemWidth::D);
    emit_flush_probe(&mut asm);
    emit_branchless_arg(&mut asm);
    asm.call(victim);
    asm.addi(Reg::S0, Reg::S0, 1);
    asm.branch(BranchCond::Geu, Reg::S1, Reg::S0, outer);
    asm.li(Reg::T0, (ARRAY2_BASE + u64::from(train_value) * PROBE_STRIDE) as i64);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::B);
    asm.halt();

    let mut program = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    for seg in attack_segments(secret_value, train_value) {
        program.add_segment(seg);
    }
    AttackProgram {
        kind: AttackKind::SpectreBti,
        program,
        secret_index: secret_value as usize,
        train_index: train_value as usize,
    }
}

/// Builds the speculative store-forwarding overflow PoC (§III-C): on the
/// mispredicted path, a `WRPKRU` transiently write-enables a locked page, a
/// store writes `poison * X` there, and a younger load reads it back via
/// store-to-load forwarding and transmits it. SpecMPK's *PKRU Store Check*
/// bars the forwarding (the load waits until it is non-squashable);
/// NonSecure leaks `poison * ATTACK_POS`.
#[must_use]
pub fn store_forward_overflow(poison: u8) -> AttackProgram {
    let write_locked = Pkru::ALL_ACCESS.with_write_disabled(Pkey::new(5).expect("static"), true);
    let mut asm = Assembler::new(0x1000);
    let victim = asm.fresh_label();
    let start = asm.fresh_label();

    asm.jump(start);

    // ---- victim(X in A0) ----
    asm.bind(victim).expect("fresh");
    let skip = asm.fresh_label();
    asm.li(Reg::T0, BOUND_ADDR as i64);
    asm.load(Reg::T1, Reg::T0, 0, MemWidth::B); // slow: flushed
    asm.branch(BranchCond::Geu, Reg::A0, Reg::T1, skip);
    asm.set_pkru(Pkru::ALL_ACCESS.bits()); // transient write-enable
    asm.li(Reg::T2, SAFE_BASE as i64);
    asm.li(Reg::T3, i64::from(poison));
    asm.alu(AluOp::Mul, Reg::T3, Reg::T3, Operand::Reg(Reg::A0)); // poison·X
    asm.store(Reg::T3, Reg::T2, 0, MemWidth::B); // "overflow" into safe page
    asm.load(Reg::T4, Reg::T2, 0, MemWidth::B); // forwarded?
    asm.alu(AluOp::Sll, Reg::T4, Reg::T4, Operand::Imm(9));
    asm.li(Reg::T2, ARRAY2_BASE as i64);
    asm.alu(AluOp::Add, Reg::T2, Reg::T2, Operand::Reg(Reg::T4));
    asm.load(Reg::T0, Reg::T2, 0, MemWidth::B); // transmit
    asm.set_pkru(write_locked.bits());
    asm.bind(skip).expect("fresh");
    asm.ret();

    // ---- driver ----
    asm.bind(start).expect("fresh");
    asm.set_pkru(write_locked.bits());
    emit_driver_loop(&mut asm, victim, poison.wrapping_mul(TRAIN_POS as u8));

    let mut program = Program::new(asm.base(), asm.assemble().expect("labels bound"));
    let mut vars = vec![0u8; 4096];
    vars[0] = ATTACK_POS as u8;
    program.add_segment(DataSegment::with_bytes("vars", BOUND_ADDR, vars, Pkey::DEFAULT));
    program.add_segment(DataSegment {
        base: SAFE_BASE,
        size: 4096,
        init: Vec::new(),
        pkey: Pkey::new(5).expect("static"),
        perms: specmpk_isa::SegmentPerms::RW,
        name: "safe_writelocked".into(),
    });
    program.add_segment(DataSegment::zeroed(
        "array2_probe",
        ARRAY2_BASE,
        PROBE_SLOTS as u64 * PROBE_STRIDE,
        Pkey::DEFAULT,
    ));
    program.add_segment(DataSegment::zeroed("stack", 0x7F00_0000, 4096, Pkey::DEFAULT));
    AttackProgram {
        kind: AttackKind::StoreForwardOverflow,
        program,
        secret_index: (poison as usize * ATTACK_POS as usize) & 0xFF,
        train_index: (poison as usize * TRAIN_POS as usize) & 0xFF,
    }
}

/// Runs an attack under `policy` and performs the flush+reload measurement
/// from outside the program (the receiver's view).
#[must_use]
pub fn run_attack(attack: &AttackProgram, policy: PolicyRef) -> AttackOutcome {
    let config = SimConfig::with_policy(policy);
    let mut core = Core::new(config, attack.program());
    let result = core.run();
    let mem = core.mem();
    let latencies: Vec<u64> = (0..PROBE_SLOTS)
        .map(|i| mem.probe_data_latency(ARRAY2_BASE + i as u64 * PROBE_STRIDE))
        .collect();
    // Threshold: halfway between the L1 hit and DRAM latencies (see
    // `AttackOutcome::new` for the classifier contract).
    let hierarchy = config.mem.hierarchy;
    let threshold =
        (hierarchy.l1d.latency + hierarchy.l3.latency + hierarchy.dram_extra_latency) / 2;
    AttackOutcome::new(result.exit, latencies, threshold)
}

/// Like [`run_attack`], but with the speculative-access ledger attached:
/// returns both the receiver's view (the flush+reload outcome) and the
/// microarchitectural evidence (the [`LeakObserver`] with every
/// speculative access, its fate, and surviving wrong-path residue). The
/// `security_matrix` experiment cross-checks the two: a cache-timing
/// verdict should be backed by a ledger witness chain, and vice versa.
#[must_use]
pub fn run_attack_observed(
    attack: &AttackProgram,
    policy: PolicyRef,
) -> (AttackOutcome, LeakObserver) {
    let config = SimConfig::with_policy(policy);
    let mut core = Core::with_sink(config, attack.program(), LeakObserver::default());
    let result = core.run();
    let latencies: Vec<u64> = {
        let mem = core.mem();
        (0..PROBE_SLOTS)
            .map(|i| mem.probe_data_latency(ARRAY2_BASE + i as u64 * PROBE_STRIDE))
            .collect()
    };
    let hierarchy = config.mem.hierarchy;
    let threshold =
        (hierarchy.l1d.latency + hierarchy.l3.latency + hierarchy.dram_extra_latency) / 2;
    (AttackOutcome::new(result.exit, latencies, threshold), core.into_sink())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_indices_excludes_ties_and_handles_uniform_vectors() {
        // A latency exactly at the threshold is ambiguous: classified cold.
        let outcome = AttackOutcome::new(ExitReason::Halted, vec![9, 10, 11, 10, 2], 10);
        assert_eq!(outcome.hot_indices(), vec![0, 4]);
        assert!(outcome.leaked(0) && outcome.leaked(4));
        assert!(!outcome.leaked(1), "tie with the threshold is not a hit");
        assert!(!outcome.leaked(99), "out-of-range index never leaks");

        // All-cold: every latency at or above the threshold.
        let cold = AttackOutcome::new(ExitReason::Halted, vec![50; 8], 10);
        assert!(cold.hot_indices().is_empty());

        // All-hot: every latency strictly below the threshold.
        let hot = AttackOutcome::new(ExitReason::Halted, vec![3; 8], 10);
        assert_eq!(hot.hot_indices().len(), 8);
        assert_eq!(hot.threshold(), 10);
        assert_eq!(hot.latencies(), &[3; 8]);
    }

    #[test]
    fn observed_run_matches_plain_run_and_fills_the_ledger() {
        let attack = spectre_v1(101, 72);
        let plain = run_attack(&attack, PolicyRef::NONSECURE_SPEC);
        let (observed, ledger) = run_attack_observed(&attack, PolicyRef::NONSECURE_SPEC);
        assert_eq!(observed.exit(), &ExitReason::Halted);
        assert_eq!(
            observed.latencies(),
            plain.latencies(),
            "attaching the observer must not perturb the receiver's view"
        );
        let counts = ledger.counts();
        assert!(counts.accesses > 0, "ledger saw the program's accesses");
        assert!(counts.squashed > 0, "the attack's wrong path squashes");
        assert!(
            ledger.witness_chain(attack.secret_pkey().index() as u8).is_some(),
            "NonSecure leaves a witness chain for the spectre_v1 leak"
        );
    }

    #[test]
    fn spectre_v1_leaks_only_on_nonsecure() {
        let attack = spectre_v1(101, 72);
        for policy in specmpk_core::registry::all() {
            let outcome = run_attack(&attack, policy);
            assert_eq!(outcome.exit(), &ExitReason::Halted, "{policy}");
            assert!(
                outcome.leaked(72),
                "{policy}: training index must be hot (architectural access)"
            );
            let expect_leak = policy == PolicyRef::NONSECURE_SPEC;
            assert_eq!(
                outcome.leaked(101),
                expect_leak,
                "{policy}: secret leak mismatch; hot = {:?}",
                outcome.hot_indices()
            );
        }
    }

    #[test]
    fn spectre_v1_leaks_arbitrary_secret_bytes_on_nonsecure() {
        for secret in [3u8, 33, 200, 255] {
            let attack = spectre_v1(secret, 72);
            let outcome = run_attack(&attack, PolicyRef::NONSECURE_SPEC);
            assert!(
                outcome.leaked(secret as usize),
                "secret {secret} not leaked; hot = {:?}",
                outcome.hot_indices()
            );
            let outcome = run_attack(&attack, PolicyRef::SPEC_MPK);
            assert!(!outcome.leaked(secret as usize), "SpecMPK must block {secret}");
        }
    }

    #[test]
    fn spectre_bti_leaks_only_on_nonsecure() {
        let attack = spectre_bti(101, 72);
        for policy in specmpk_core::registry::all() {
            let outcome = run_attack(&attack, policy);
            assert_eq!(outcome.exit(), &ExitReason::Halted, "{policy}");
            let expect_leak = policy == PolicyRef::NONSECURE_SPEC;
            assert_eq!(
                outcome.leaked(101),
                expect_leak,
                "{policy}: BTI leak mismatch; hot = {:?}",
                outcome.hot_indices()
            );
        }
    }

    #[test]
    fn store_forward_overflow_blocked_by_specmpk() {
        let attack = store_forward_overflow(13);
        let secret = attack.secret_index();
        let leak = run_attack(&attack, PolicyRef::NONSECURE_SPEC);
        assert_eq!(leak.exit(), &ExitReason::Halted);
        assert!(
            leak.leaked(secret),
            "NonSecure must forward the poisoned store; hot = {:?}",
            leak.hot_indices()
        );
        let blocked = run_attack(&attack, PolicyRef::SPEC_MPK);
        assert!(
            !blocked.leaked(secret),
            "SpecMPK bars forwarding; hot = {:?}",
            blocked.hot_indices()
        );
    }
}

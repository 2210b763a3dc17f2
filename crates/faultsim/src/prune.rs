//! Equivalence pruning: classify mutants without executing them.
//!
//! Two prune rules, both gated by [`CampaignConfig::prune`] and both
//! producing classifications identical to actually running the mutant:
//!
//! 1. **Dead injected bits (def-use sweep).** A transient bitflip only
//!    matters once the flipped location is *read*; until then the mutant
//!    executes bit-identically to the golden run. One extra golden
//!    replay with a [`DefUsePlugin`] records, per queried location, the
//!    first post-injection read and write. If the location is written
//!    (full-width register write, or a store covering the byte) before
//!    any read, the flip is erased and the mutant is `Masked`. If it is
//!    never accessed again, the run terminates exactly like the golden
//!    run with only that bit diverged: `SilentCorruption` for register
//!    targets (final registers are always compared), and for memory
//!    targets `SilentCorruption` when final-memory comparison is on,
//!    `Masked` otherwise. Only a post-injection read forces execution.
//!
//!    "Read" is architectural: GPR/FPR source operands
//!    ([`Insn::reg_uses`]), load bytes, and the fetch bytes
//!    `[pc, pc+len)` of every executed instruction (the block cache
//!    re-reads mutated code — stores invalidate, restores drop, and warm
//!    translations re-validate a code-bytes hash — so fetch-per-executed
//!    -instruction is exact, not conservative). Reads win stamp ties:
//!    within one instruction, operand reads and the fetch precede any
//!    write. Stuck-at GPR faults are persistent read-forcing masks and
//!    are never prunable this way; stuck-at FPR/memory faults are
//!    time-zero value forces (see [`FaultKind::StuckAt`]) and prune
//!    either as no-ops (the bit already holds the forced value) or as
//!    time-zero flips.
//!
//! 2. **Post-injection state dedupe.** Two mutants whose post-injection
//!    architectural states are identical — same restore point (by
//!    [`VpSnapshot::fingerprint`]) and same injected delta — execute
//!    deterministically to the same outcome, so only the first runs and
//!    the rest share its classification. Wall-clock-dependent outcomes
//!    (`Cancelled`) and harness panics are never shared.
//!
//! The replay is exact even for interrupt-armed golden runs: it is a
//! single uninterrupted run (no fast-forward seams), and a mutant tracks
//! the golden run's interrupt deliveries cycle for cycle until the first
//! read of its flipped bit.
//!
//! [`CampaignConfig::prune`]: crate::CampaignConfig::prune
//! [`FaultKind::StuckAt`]: crate::FaultKind::StuckAt
//! [`Insn::reg_uses`]: s4e_isa::Insn::reg_uses
//! [`VpSnapshot::fingerprint`]: s4e_vp::VpSnapshot::fingerprint

use crate::campaign::Campaign;
use crate::fault::{FaultKind, FaultOutcome, FaultSpec, FaultTarget};
use s4e_isa::Insn;
use s4e_vp::{Cpu, MemAccess, Plugin, VpSnapshot};
use std::collections::HashMap;
use std::sync::Mutex;

/// Dedupe-map shard count (keys are spread by fingerprint so concurrent
/// workers rarely contend on one shard).
const DEDUP_SHARDS: usize = 16;

/// The injected state delta of a mutant, normalized so that different
/// fault spellings with identical post-injection behaviour share one
/// key: a stuck-at-1 FPR bit on a boot-zero register *is* a time-zero
/// flip, and a stuck memory bit differing from the loaded image *is* a
/// flip of that bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DeltaKey {
    /// XOR of one GPR bit.
    FlipGpr(s4e_isa::Gpr, u8),
    /// XOR of one FPR bit.
    FlipFpr(s4e_isa::Fpr, u8),
    /// XOR of one RAM-byte bit.
    FlipMem(u32, u8),
    /// Persistent stuck-at masks on one GPR bit (not reducible to a
    /// flip: the mask filters every future read).
    StuckGpr(s4e_isa::Gpr, u8, bool),
}

/// What the pre-execution analysis decided for one spec.
enum Case {
    /// Outcome known without running or replaying.
    Known(FaultOutcome),
    /// Needs the def-use replay: injection at `t`, watching `loc`.
    /// `never` is the verdict if the location is never accessed again.
    Query {
        t: u64,
        loc: Loc,
        never: FaultOutcome,
        delta: DeltaKey,
    },
    /// Must execute (no def-use query applies); `delta` keys the dedupe
    /// map when the spec is expressible as a normalized delta.
    Execute(Option<DeltaKey>),
}

/// A watched location.
#[derive(Clone, Copy)]
enum Loc {
    Gpr(u8),
    Fpr(u8),
    Mem(u32),
}

/// The per-sweep pruning plan: pre-computed verdicts for provably
/// equivalent mutants, normalized dedupe deltas for the rest, and the
/// shared (fingerprint, delta) → outcome dedupe map filled in by the
/// workers as they execute.
pub(crate) struct PrunePlan {
    verdicts: Vec<Option<FaultOutcome>>,
    deltas: Vec<Option<DeltaKey>>,
    dedup: Vec<Mutex<HashMap<(u64, DeltaKey), FaultOutcome>>>,
}

impl std::fmt::Debug for PrunePlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrunePlan")
            .field("specs", &self.verdicts.len())
            .field("known", &self.verdicts.iter().flatten().count())
            .finish_non_exhaustive()
    }
}

impl PrunePlan {
    /// Analyses `specs` against the campaign's golden run: pre-verdicts
    /// everything provable, then resolves the remaining def-use queries
    /// with one golden replay.
    pub(crate) fn build(campaign: &Campaign, specs: &[FaultSpec]) -> PrunePlan {
        let golden_len = campaign.golden().instret();
        let mut verdicts = vec![None; specs.len()];
        let mut deltas = vec![None; specs.len()];
        let mut queries = Vec::new();
        for (i, spec) in specs.iter().enumerate() {
            match classify_case(campaign, spec, golden_len) {
                Case::Known(outcome) => verdicts[i] = Some(outcome),
                Case::Query {
                    t,
                    loc,
                    never,
                    delta,
                } => {
                    deltas[i] = Some(delta);
                    queries.push(Query {
                        spec: i,
                        t,
                        loc,
                        never,
                    });
                }
                Case::Execute(delta) => deltas[i] = delta,
            }
        }
        if !queries.is_empty() {
            resolve_queries(campaign, &mut verdicts, queries);
        }
        PrunePlan {
            verdicts,
            deltas,
            dedup: (0..DEDUP_SHARDS).map(|_| Mutex::default()).collect(),
        }
    }

    /// The pre-computed classification for spec `index`, if pruning
    /// proved one.
    pub(crate) fn verdict(&self, index: usize) -> Option<FaultOutcome> {
        self.verdicts.get(index).copied().flatten()
    }

    /// The dedupe key for spec `index` restoring from `snapshot`, when
    /// the spec normalizes to a shared delta.
    pub(crate) fn dedup_key(&self, index: usize, snapshot: &VpSnapshot) -> Option<(u64, DeltaKey)> {
        let delta = self.deltas.get(index).copied().flatten()?;
        Some((snapshot.fingerprint(), delta))
    }

    /// A previously executed classification for the same key, if any.
    pub(crate) fn dedup_lookup(&self, key: &(u64, DeltaKey)) -> Option<FaultOutcome> {
        let shard = self.shard(key);
        shard.lock().ok()?.get(key).copied()
    }

    /// Publishes an executed classification for future lookups. Refuses
    /// outcomes that are not deterministic properties of the mutant
    /// (wall-clock cancellations, harness panics).
    pub(crate) fn dedup_insert(&self, key: (u64, DeltaKey), outcome: FaultOutcome) {
        if matches!(
            outcome,
            FaultOutcome::Cancelled | FaultOutcome::HarnessError | FaultOutcome::Quarantined
        ) {
            return;
        }
        let shard = self.shard(&key);
        if let Ok(mut map) = shard.lock() {
            map.insert(key, outcome);
        }
    }

    fn shard(&self, key: &(u64, DeltaKey)) -> &Mutex<HashMap<(u64, DeltaKey), FaultOutcome>> {
        &self.dedup[(key.0 % DEDUP_SHARDS as u64) as usize]
    }
}

/// Decides, per spec, between a known outcome, a def-use query and
/// unconditional execution. Mirrors the injection code exactly:
/// anything it cannot prove equivalent (invalid bit indices that panic
/// the harness, persistent GPR masks, out-of-image oddities) falls
/// through to `Execute`.
fn classify_case(campaign: &Campaign, spec: &FaultSpec, golden_len: u64) -> Case {
    let t = campaign.injection_point(spec);
    let (ram_lo, ram_size) = campaign.ram_bounds();
    let in_ram = |addr: u32| addr.wrapping_sub(ram_lo) < ram_size;
    let never_mem = if campaign.config().compare_memory {
        FaultOutcome::SilentCorruption
    } else {
        FaultOutcome::Masked
    };
    match (spec.kind, spec.target) {
        // Injecting at or past golden termination: both execution paths
        // classify the unmutated (or post-termination) final state.
        (FaultKind::Transient { .. }, _) if t >= golden_len => Case::Known(FaultOutcome::Masked),
        (FaultKind::Transient { .. }, FaultTarget::GprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None); // flip panics; keep the panic
            }
            if reg == s4e_isa::Gpr::ZERO {
                return Case::Known(FaultOutcome::Masked); // flip is discarded
            }
            Case::Query {
                t,
                loc: Loc::Gpr(reg.index()),
                never: FaultOutcome::SilentCorruption,
                delta: DeltaKey::FlipGpr(reg, bit),
            }
        }
        (FaultKind::Transient { .. }, FaultTarget::FprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None);
            }
            Case::Query {
                t,
                loc: Loc::Fpr(reg.index()),
                never: FaultOutcome::SilentCorruption,
                delta: DeltaKey::FlipFpr(reg, bit),
            }
        }
        (FaultKind::Transient { .. }, FaultTarget::MemBit { addr, bit }) => {
            if bit >= 8 {
                return Case::Execute(None);
            }
            if !in_ram(addr) {
                return Case::Known(FaultOutcome::Masked); // flip is a no-op
            }
            Case::Query {
                t,
                loc: Loc::Mem(addr),
                never: never_mem,
                delta: DeltaKey::FlipMem(addr, bit),
            }
        }
        // Persistent GPR masks filter every future read — not a one-shot
        // delta, so the def-use argument never applies. Still dedupable:
        // identical masks from identical boot state run identically.
        (FaultKind::StuckAt { value }, FaultTarget::GprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None);
            }
            if reg == s4e_isa::Gpr::ZERO && !value {
                // Forces a bit of x0 that is always 0: every read is the
                // golden one, so the mutant replays the golden run.
                return Case::Known(FaultOutcome::Masked);
            }
            Case::Execute(Some(DeltaKey::StuckGpr(reg, bit, value)))
        }
        // FPR stuck-ats are time-zero value forces on boot-zero
        // registers: forcing 0 changes nothing, forcing 1 is a flip.
        (FaultKind::StuckAt { value }, FaultTarget::FprBit { reg, bit }) => {
            if bit >= 32 {
                return Case::Execute(None);
            }
            if !value {
                return Case::Known(FaultOutcome::Masked);
            }
            Case::Query {
                t: 0,
                loc: Loc::Fpr(reg.index()),
                never: FaultOutcome::SilentCorruption,
                delta: DeltaKey::FlipFpr(reg, bit),
            }
        }
        // Memory stuck-ats are time-zero value forces on the loaded
        // image: forcing the value the byte already holds changes
        // nothing, otherwise it is a flip of that bit.
        (FaultKind::StuckAt { value }, FaultTarget::MemBit { addr, bit }) => {
            if bit >= 8 {
                return Case::Execute(None);
            }
            if !in_ram(addr) {
                return Case::Known(FaultOutcome::Masked);
            }
            if campaign.initial_ram_bit(addr, bit) == value {
                return Case::Known(FaultOutcome::Masked);
            }
            Case::Query {
                t: 0,
                loc: Loc::Mem(addr),
                never: never_mem,
                delta: DeltaKey::FlipMem(addr, bit),
            }
        }
    }
}

/// One unresolved def-use question: does the golden run read `loc`
/// after `t` before writing it?
struct Query {
    spec: usize,
    t: u64,
    loc: Loc,
    never: FaultOutcome,
}

/// Replays the golden run once with a [`DefUsePlugin`] watching every
/// queried location, then turns the recorded first-read/first-write
/// stamps into verdicts.
fn resolve_queries(
    campaign: &Campaign,
    verdicts: &mut [Option<FaultOutcome>],
    queries: Vec<Query>,
) {
    let mut plugin = DefUsePlugin::new(queries.len());
    for (qid, q) in queries.iter().enumerate() {
        plugin.watch(q.loc, q.t, qid);
    }
    plugin.sort_watches();
    let mut vp = campaign.loaded_vp();
    vp.add_plugin(Box::new(plugin));
    let outcome = vp.run_for(campaign.golden().instret() + 10);
    debug_assert_eq!(outcome, campaign.golden().outcome());
    let plugin = vp.plugin::<DefUsePlugin>().expect("plugin attached");
    for (qid, q) in queries.iter().enumerate() {
        let (read, written) = plugin.results[qid];
        verdicts[q.spec] = match (read, written) {
            // Read first (ties included: operand reads and the fetch
            // precede any same-instruction write) — the flip is
            // observed, so the mutant must actually execute.
            (Some(r), Some(w)) if r <= w => None,
            (Some(_), None) => None,
            // Overwritten before any read: the flip is erased while the
            // mutant is still bit-identical to the golden run.
            (Some(_), Some(_)) | (None, Some(_)) => Some(FaultOutcome::Masked),
            // Never accessed again: the suffix runs exactly like the
            // golden run with one diverged bit in the final state.
            (None, None) => Some(q.never),
        };
    }
}

/// First-read/first-write tracker for one watched location. Queries are
/// sorted by injection time; events arrive in nondecreasing stamp
/// order, so a pair of monotone cursors resolves every query in O(1)
/// amortized per event.
#[derive(Debug, Default)]
struct LocTrack {
    /// `(t, query id)` sorted ascending by `t`.
    queries: Vec<(u64, usize)>,
    /// First query whose first-read is still unknown.
    rp: usize,
    /// First query whose first-write is still unknown.
    wp: usize,
}

impl LocTrack {
    fn on_read(&mut self, stamp: u64, results: &mut [(Option<u64>, Option<u64>)]) {
        while let Some(&(t, qid)) = self.queries.get(self.rp) {
            if stamp <= t {
                break;
            }
            results[qid].0 = Some(stamp);
            self.rp += 1;
        }
    }

    fn on_write(&mut self, stamp: u64, results: &mut [(Option<u64>, Option<u64>)]) {
        while let Some(&(t, qid)) = self.queries.get(self.wp) {
            if stamp <= t {
                break;
            }
            results[qid].1 = Some(stamp);
            self.wp += 1;
        }
    }
}

/// Records first post-injection reads and writes of watched locations
/// during the golden replay.
///
/// Stamps number instructions 1-based: every event of the k-th executed
/// instruction — operand reads, the `[pc, pc+len)` fetch, loads, stores
/// and the register write — carries stamp `k`, and an injection after
/// `t` retired instructions precedes exactly the events with stamp
/// `> t`. The hook contract makes this derivable from `Cpu::instret`:
/// memory accesses fire mid-instruction (`instret` still `k-1`), the
/// instruction notification fires after retirement (`instret == k`) —
/// except for trapping instructions, which notify without retiring
/// (`instret` still `k-1`, and the *next* retired instruction also
/// stamps `k`; both began after the same `k-1` retirements, so the
/// `> t` predicate is exact for both).
#[derive(Debug)]
struct DefUsePlugin {
    gpr: [Option<Box<LocTrack>>; 32],
    fpr: [Option<Box<LocTrack>>; 32],
    mem: HashMap<u32, LocTrack>,
    results: Vec<(Option<u64>, Option<u64>)>,
    /// `instret` after the most recent retired-instruction event —
    /// distinguishes retired notifications from trap notifications.
    prev_instret: u64,
}

impl DefUsePlugin {
    fn new(queries: usize) -> DefUsePlugin {
        DefUsePlugin {
            gpr: std::array::from_fn(|_| None),
            fpr: std::array::from_fn(|_| None),
            mem: HashMap::new(),
            results: vec![(None, None); queries],
            prev_instret: 0,
        }
    }

    fn watch(&mut self, loc: Loc, t: u64, qid: usize) {
        let track = match loc {
            Loc::Gpr(i) => self.gpr[i as usize].get_or_insert_with(Default::default),
            Loc::Fpr(i) => self.fpr[i as usize].get_or_insert_with(Default::default),
            Loc::Mem(addr) => self.mem.entry(addr).or_default(),
        };
        track.queries.push((t, qid));
    }

    fn sort_watches(&mut self) {
        for track in self
            .gpr
            .iter_mut()
            .chain(self.fpr.iter_mut())
            .flatten()
            .map(Box::as_mut)
            .chain(self.mem.values_mut())
        {
            track.queries.sort_unstable();
        }
    }
}

impl Plugin for DefUsePlugin {
    fn on_insn_executed(&mut self, cpu: &Cpu, pc: u32, insn: &Insn) {
        let stamp = if cpu.instret() > self.prev_instret {
            self.prev_instret = cpu.instret();
            cpu.instret()
        } else {
            // Trap path: notified without retiring.
            cpu.instret() + 1
        };
        if !self.mem.is_empty() {
            for addr in pc..pc.wrapping_add(u32::from(insn.len())) {
                if let Some(track) = self.mem.get_mut(&addr) {
                    track.on_read(stamp, &mut self.results);
                }
            }
        }
        let uses = insn.reg_uses();
        for reg in uses.gprs_read() {
            if let Some(track) = &mut self.gpr[reg.index() as usize] {
                track.on_read(stamp, &mut self.results);
            }
        }
        for reg in uses.fprs_read() {
            if let Some(track) = &mut self.fpr[reg.index() as usize] {
                track.on_read(stamp, &mut self.results);
            }
        }
        if let Some(reg) = uses.effective_gpr_written() {
            if let Some(track) = &mut self.gpr[reg.index() as usize] {
                track.on_write(stamp, &mut self.results);
            }
        }
        if let Some(reg) = uses.fpr_written {
            if let Some(track) = &mut self.fpr[reg.index() as usize] {
                track.on_write(stamp, &mut self.results);
            }
        }
    }

    fn on_mem_access(&mut self, cpu: &Cpu, access: &MemAccess) {
        if self.mem.is_empty() {
            return;
        }
        // Mid-instruction: the accessing instruction has not retired.
        let stamp = cpu.instret() + 1;
        for addr in access.addr..access.addr.wrapping_add(u32::from(access.size)) {
            if let Some(track) = self.mem.get_mut(&addr) {
                if access.is_store {
                    track.on_write(stamp, &mut self.results);
                } else {
                    track.on_read(stamp, &mut self.results);
                }
            }
        }
    }
}

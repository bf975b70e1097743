//! The trace generator: a PC-addressable synthetic program.
//!
//! A [`TraceGenerator`] is not just a linear trace — it is a deterministic
//! function from *(entry PC, path history)* to an instruction stream. The
//! immutable program layout (branch sites, block geometry, chain register
//! assignment) is fixed by the [`WorkloadSpec`]; everything mutable (the
//! RNG, chain positions, stream offsets, call stack, current PC) *is* the
//! path history, and it can be [checkpointed](TraceGenerator::checkpoint),
//! [restored](TraceGenerator::restore) and
//! [redirected](TraceGenerator::enter_wrong_path) to an arbitrary PC.
//!
//! That is what makes real wrong-path speculation possible without a second
//! untestable workload model: when fetch mispredicts a branch, the pipeline
//! checkpoints the generator, enters it at the predicted (wrong) target,
//! and fetches the *same statistical program* from there; at resolution it
//! restores the checkpoint, and the correct path replays bit-identically —
//! as if the wrong path had never been generated.

use crate::WorkloadSpec;
use diq_isa::{ArchReg, BranchKind, Inst, OpClass, RegClass};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Integer utility registers (never used as chain registers).
const R_ZERO: u8 = 0; // invariant
const R_STREAM0: u8 = 1; // r1..r4: stream address registers
const R_COND: u8 = 5; // branch condition
const R_CHASE: u8 = 6; // pointer-chase address
const R_INVARIANT: u8 = 7; // loop-invariant value
const CHAIN_REG_BASE: u8 = 8; // chain registers start here in each class
const AUX_LOAD_BASE: u8 = 28; // aux load destinations (4 per class)

/// FP utility registers.
const F_INVARIANT0: u8 = 0;
const F_INVARIANT1: u8 = 1;
const FP_CHAIN_BASE: u8 = 4;

/// Deepest call nesting the generator emits.
const MAX_CALL_DEPTH: usize = 4;

/// How often (in instructions) a stream induction register is advanced.
const INDUCTION_PERIOD: u64 = 13;

/// Code-block geometry: every block holds [`BLOCK_INSTRS`] fixed-size
/// instructions and ends at a (potential) branch site. `pc()`,
/// `enter_wrong_path()` and the call/return repositioning all translate
/// between PCs and (block, intra) through these — keep them as the single
/// source of truth.
const BLOCK_INSTRS: u64 = 16;
/// Bytes per instruction.
const INST_BYTES: u64 = 4;
/// Bytes per code block.
const BLOCK_BYTES: u64 = BLOCK_INSTRS * INST_BYTES;

/// `(i + 1) % n` for a cursor `i < n` round a non-empty ring, with a
/// compare instead of a division.
#[inline]
fn wrap_next(i: usize, n: usize) -> usize {
    let next = i + 1;
    if next >= n {
        0
    } else {
        next
    }
}

#[derive(Clone, Debug)]
struct Chain {
    reg: ArchReg,
    /// Interior operations left in the current chain generation; 0 means the
    /// chain needs a restart.
    remaining: usize,
}

#[derive(Clone, Debug)]
struct Site {
    pc: u64,
    bias: f64,
    target_block: usize,
    call_target_block: usize,
}

/// The complete mutable state of a [`TraceGenerator`] — the *path history*
/// of the PC-addressable program — and, cloned, its opaque checkpoint
/// (created by [`TraceGenerator::checkpoint`], consumed by
/// [`TraceGenerator::restore`]). The generator embeds this struct directly,
/// so checkpointing is one `clone`/`clone_from` and cannot drift out of
/// sync with the state it must capture.
#[derive(Debug)]
pub struct TraceCheckpoint {
    rng: StdRng,
    chains: Vec<Chain>,
    rr: usize,
    emitted: u64,
    block: usize,
    intra: u64,
    /// Call stack: (return pc, instructions until the return is emitted).
    call_stack: Vec<(u64, u32)>,
    /// Stream positions (byte offsets inside the footprint).
    streams: [u64; 4],
    stream_rr: usize,
    /// Pending aux-load destination to feed into the next arithmetic op.
    aux_feed: [Option<ArchReg>; 2],
    aux_rr: usize,
    induction_rr: usize,
}

impl Clone for TraceCheckpoint {
    fn clone(&self) -> Self {
        let mut cp = TraceCheckpoint {
            rng: self.rng.clone(),
            chains: Vec::new(),
            rr: 0,
            emitted: 0,
            block: 0,
            intra: 0,
            call_stack: Vec::new(),
            streams: [0; 4],
            stream_rr: 0,
            aux_feed: [None, None],
            aux_rr: 0,
            induction_rr: 0,
        };
        cp.clone_from(self);
        cp
    }

    /// Buffer-reusing clone: the per-mispredict checkpoint path allocates
    /// nothing steady-state. The exhaustive destructure means a new state
    /// field cannot be forgotten here without an unused-binding error.
    fn clone_from(&mut self, src: &Self) {
        let TraceCheckpoint {
            rng,
            chains,
            rr,
            emitted,
            block,
            intra,
            call_stack,
            streams,
            stream_rr,
            aux_feed,
            aux_rr,
            induction_rr,
        } = src;
        self.rng = rng.clone();
        self.chains.clone_from(chains);
        self.rr = *rr;
        self.emitted = *emitted;
        self.block = *block;
        self.intra = *intra;
        self.call_stack.clone_from(call_stack);
        self.streams = *streams;
        self.stream_rr = *stream_rr;
        self.aux_feed = *aux_feed;
        self.aux_rr = *aux_rr;
        self.induction_rr = *induction_rr;
    }
}

/// An infinite, deterministic instruction stream with the DDG shape, memory
/// pattern and control flow described by a [`WorkloadSpec`].
///
/// # Example
///
/// ```
/// use diq_workload::{suite, TraceGenerator};
///
/// let spec = suite::by_name("mgrid").unwrap();
/// let first: Vec<_> = TraceGenerator::new(&spec).take(8).collect();
/// assert_eq!(first.len(), 8);
/// ```
#[derive(Debug)]
pub struct TraceGenerator {
    // Immutable program layout.
    spec: WorkloadSpec,
    /// Branch sites.
    sites: Vec<Site>,
    code_base: u64,
    data_base: u64,
    /// The evolving path history (checkpointed/restored wholesale).
    state: TraceCheckpoint,
}

impl TraceGenerator {
    /// Builds a generator for the given workload.
    ///
    /// # Panics
    ///
    /// Panics if `spec.validate()` fails.
    #[must_use]
    pub fn new(spec: &WorkloadSpec) -> Self {
        spec.validate().unwrap_or_else(|e| {
            panic!("invalid workload spec `{}`: {e}", spec.name);
        });
        let mut rng = StdRng::seed_from_u64(spec.seed);

        // Decide chain classes: the FP share of the arithmetic mix decides
        // how many chains carry FP values.
        let w = spec.mix.weights();
        let total: f64 = w.iter().sum();
        let fp_share = if total > 0.0 {
            (w[3] + w[4] + w[5]) / total
        } else {
            0.0
        };
        let n_fp = (fp_share * spec.live_chains as f64).round() as usize;
        let mut chains = Vec::with_capacity(spec.live_chains);
        let mut fp_idx = 0u8;
        let mut int_idx = 0u8;
        for i in 0..spec.live_chains {
            let reg = if i < n_fp {
                let r = ArchReg::fp(FP_CHAIN_BASE + fp_idx);
                fp_idx += 1;
                r
            } else {
                let r = ArchReg::int(CHAIN_REG_BASE + (int_idx % (AUX_LOAD_BASE - CHAIN_REG_BASE)));
                int_idx += 1;
                r
            };
            chains.push(Chain { reg, remaining: 0 });
        }

        let code_base = 0x0040_0000u64;
        // One BLOCK_INSTRS-instruction block per branch site: the code
        // footprint is `sites × BLOCK_BYTES` and every block ends in a
        // (potential) branch.
        let n_blocks = spec.branch.sites;
        let sites: Vec<Site> = (0..spec.branch.sites)
            .map(|s| {
                let spread: f64 = rng.random_range(-0.05..0.05);
                let bias = (spec.branch.taken_bias + spread).clamp(0.02, 0.98);
                let block = s;
                // Mostly short backward targets (loops); occasionally a far
                // jump. This is what gives real codes their I-cache locality
                // and keeps BTB pressure realistic.
                let target_block = if rng.random_bool(0.10) {
                    rng.random_range(0..n_blocks)
                } else {
                    let d = rng.random_range(1..=n_blocks.min(6));
                    (block + n_blocks - d) % n_blocks
                };
                // A varied branch offset inside the block: real branch PCs
                // are spread across cache lines and BTB sets, not pinned to
                // one slot.
                let offset = ((s as u64).wrapping_mul(0x9e37_79b9) >> 8) % BLOCK_INSTRS;
                Site {
                    pc: code_base + block as u64 * BLOCK_BYTES + offset * INST_BYTES,
                    bias,
                    target_block,
                    call_target_block: rng.random_range(0..n_blocks),
                }
            })
            .collect();

        TraceGenerator {
            spec: spec.clone(),
            sites,
            code_base,
            data_base: 0x1000_0000,
            state: TraceCheckpoint {
                rng,
                chains,
                rr: 0,
                emitted: 0,
                block: 0,
                intra: 0,
                // Sized up front: a program's first call may come late.
                call_stack: Vec::with_capacity(MAX_CALL_DEPTH),
                streams: [0, 0, 0, 0],
                stream_rr: 0,
                aux_feed: [None, None],
                aux_rr: 0,
                induction_rr: 0,
            },
        }
    }

    /// Snapshots the full path history — everything that evolves as the
    /// program runs. Restoring it replays the continuation exactly.
    #[must_use]
    pub fn checkpoint(&self) -> TraceCheckpoint {
        self.state.clone()
    }

    /// [`checkpoint`](Self::checkpoint) into a reused slot: the chain and
    /// call-stack buffers keep their capacity, so a pipeline taking a
    /// checkpoint per mispredict allocates nothing steady-state.
    pub fn checkpoint_into(&self, cp: &mut TraceCheckpoint) {
        cp.clone_from(&self.state);
    }

    /// Restores a [`checkpoint`](Self::checkpoint): the generator forgets
    /// every instruction emitted since and continues from the checkpointed
    /// point, bit-identically to a run that never diverged.
    pub fn restore(&mut self, cp: &TraceCheckpoint) {
        self.state.clone_from(cp);
    }

    /// Repositions the program at an arbitrary `pc` — the wrong-path entry
    /// point. Subsequent instructions are the same statistical program
    /// fetched from that address (PCs resume there; the data-flow state
    /// keeps evolving along the new path). Combine with
    /// [`checkpoint`](Self::checkpoint)/[`restore`](Self::restore) to
    /// speculate and recover.
    pub fn enter_wrong_path(&mut self, pc: u64) {
        let n_blocks = self.sites.len().max(1);
        let off = pc.saturating_sub(self.code_base);
        self.state.block = ((off / BLOCK_BYTES) as usize) % n_blocks;
        self.state.intra = (off % BLOCK_BYTES) / INST_BYTES;
    }

    /// The current program counter (where the next instruction is fetched
    /// from).
    #[must_use]
    pub fn current_pc(&self) -> u64 {
        self.pc()
    }

    fn pc(&self) -> u64 {
        self.code_base
            + (self.state.block as u64) * BLOCK_BYTES
            + (self.state.intra % BLOCK_INSTRS) * INST_BYTES
    }

    fn advance_pc(&mut self) {
        self.state.intra += 1;
        if self.state.intra.is_multiple_of(BLOCK_INSTRS) {
            // Fall through into the adjacent block.
            self.state.block = wrap_next(self.state.block, self.sites.len());
            self.state.intra = 0;
        }
    }

    fn sample_chain_len(&mut self) -> usize {
        let (lo, hi) = self.spec.chain_len;
        self.state.rng.random_range(lo..=hi)
    }

    /// Next address of stream `k`, advancing it.
    fn stream_addr(&mut self, k: usize) -> u64 {
        let fp = self.spec.mem.footprint_bytes.max(64);
        let addr = if self.state.rng.random_bool(self.spec.mem.random_frac) {
            self.state.rng.random_range(0..fp) & !7
        } else {
            let a = self.state.streams[k];
            // `(a + stride) % fp` with `a < fp`: a single subtraction
            // unless the stride itself exceeds the footprint.
            let mut next = a + self.spec.mem.stride;
            if next >= fp {
                next -= fp;
                if next >= fp {
                    next %= fp;
                }
            }
            self.state.streams[k] = next;
            a
        };
        self.data_base + (k as u64) * fp + addr
    }

    fn addr_reg(&self, k: usize) -> ArchReg {
        ArchReg::int(R_STREAM0 + k as u8)
    }

    /// Samples an arithmetic op class compatible with `class`.
    fn sample_op(&mut self, class: RegClass) -> OpClass {
        let w = self.spec.mix.weights();
        let (ops, weights): (&[OpClass], [f64; 3]) = match class {
            RegClass::Int => (
                &[OpClass::IntAlu, OpClass::IntMul, OpClass::IntDiv],
                [w[0], w[1], w[2]],
            ),
            RegClass::Fp => (
                &[OpClass::FpAdd, OpClass::FpMul, OpClass::FpDiv],
                [w[3], w[4], w[5]],
            ),
        };
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return match class {
                RegClass::Int => OpClass::IntAlu,
                RegClass::Fp => OpClass::FpAdd,
            };
        }
        let mut x: f64 = self.state.rng.random_range(0.0..total);
        for (op, wt) in ops.iter().zip(weights) {
            if x < wt {
                return *op;
            }
            x -= wt;
        }
        ops[ops.len() - 1]
    }

    fn invariant_for(&self, class: RegClass) -> ArchReg {
        match class {
            RegClass::Int => ArchReg::int(R_INVARIANT),
            RegClass::Fp => ArchReg::fp(F_INVARIANT0),
        }
    }

    fn second_invariant_for(&self, class: RegClass) -> ArchReg {
        match class {
            RegClass::Int => ArchReg::int(R_ZERO),
            RegClass::Fp => ArchReg::fp(F_INVARIANT1),
        }
    }

    /// Picks the second source of an interior op: a pending aux-load result,
    /// a neighbouring chain (cross dependence), or an invariant.
    fn pick_src2(&mut self, class: RegClass, own: ArchReg) -> ArchReg {
        let ci = class.index();
        if let Some(r) = self.state.aux_feed[ci].take() {
            return r;
        }
        if self.state.rng.random_bool(self.spec.cross_dep_prob) {
            // A same-class neighbour chain, if one exists. Counted, then
            // walked to, so the pick never allocates.
            let peers = || {
                self.state
                    .chains
                    .iter()
                    .map(|c| c.reg)
                    .filter(move |r| r.class() == class && *r != own)
            };
            let n = peers().count();
            if n > 0 {
                let k = self.state.rng.random_range(0..n);
                return peers().nth(k).expect("k < peer count");
            }
        }
        self.second_invariant_for(class)
    }

    fn arith(&mut self, op: OpClass, dst: ArchReg, s1: ArchReg, s2: ArchReg) -> Inst {
        let inst = match op {
            OpClass::IntAlu => Inst::int_alu(dst, s1, s2),
            OpClass::IntMul => Inst::int_mul(dst, s1, s2),
            OpClass::IntDiv => Inst::int_div(dst, s1, s2),
            OpClass::FpAdd => Inst::fp_add(dst, s1, s2),
            OpClass::FpMul => Inst::fp_mul(dst, s1, s2),
            OpClass::FpDiv => Inst::fp_div(dst, s1, s2),
            _ => unreachable!("arith called with {op}"),
        };
        inst.at(self.pc())
    }

    /// Emits the periodic induction-variable update.
    fn emit_induction(&mut self) -> Inst {
        self.state.induction_rr = (self.state.induction_rr + 1) % 5;
        let inst = if self.state.induction_rr == 4 {
            // Refresh the branch-condition register from a stream register:
            // short dependence, so branches resolve quickly.
            Inst::int_alu(
                ArchReg::int(R_COND),
                ArchReg::int(R_STREAM0),
                ArchReg::int(R_INVARIANT),
            )
        } else {
            let r = self.addr_reg(self.state.induction_rr % 4);
            Inst::int_alu1(r, r)
        };
        inst.at(self.pc())
    }

    fn emit_branch(&mut self) -> Inst {
        // Calls/returns are a small fraction of transfers.
        if let Some(&(ret_pc, 0)) = self.state.call_stack.last() {
            self.state.call_stack.pop();
            let pc = self.pc();
            // Control returns to the caller: resume emitting there, so the
            // PC stream matches the return target.
            let n_blocks = self.sites.len().max(1);
            self.state.block = (((ret_pc - self.code_base) / BLOCK_BYTES) as usize) % n_blocks;
            self.state.intra = (ret_pc % BLOCK_BYTES) / INST_BYTES;
            return Inst::jump(BranchKind::Return, ret_pc).at(pc);
        }
        if self.state.call_stack.len() < MAX_CALL_DEPTH
            && self.state.rng.random_bool(self.spec.branch.call_frac)
        {
            let pc = self.pc();
            let until_return = self.state.rng.random_range(8..32u32);
            self.state.call_stack.push((pc + 4, until_return));
            // Call targets are static: the same site always calls the same
            // function, as in real code (the BTB learns it once).
            let target_block = self.sites[self.state.block].call_target_block;
            let target = self.code_base + target_block as u64 * BLOCK_BYTES;
            self.state.block = target_block;
            self.state.intra = 0;
            return Inst::jump(BranchKind::Call, target).at(pc);
        }

        let site = &self.sites[self.state.block];
        let pc = site.pc;
        let mut taken = self.state.rng.random_bool(site.bias);
        if self.state.rng.random_bool(self.spec.branch.noise) {
            taken = !taken;
        }
        let target_block = site.target_block;
        let target = self.code_base + target_block as u64 * BLOCK_BYTES;
        let inst = Inst::branch(ArchReg::int(R_COND), taken, target).at(pc);
        if taken {
            self.state.block = target_block;
            self.state.intra = 0;
        } else {
            self.advance_pc();
        }
        inst
    }

    fn emit_load(&mut self) -> Inst {
        let pc = self.pc();
        self.advance_pc();

        // Pointer chase: the load's result is the next chase's address.
        if self.state.rng.random_bool(self.spec.mem.pointer_chase_frac) {
            let k = self.state.stream_rr;
            self.state.stream_rr = (self.state.stream_rr + 1) % 4;
            let addr = self.stream_addr(k);
            return Inst::load(ArchReg::int(R_CHASE), ArchReg::int(R_CHASE), addr, 8).at(pc);
        }

        let k = self.state.stream_rr;
        self.state.stream_rr = (self.state.stream_rr + 1) % 4;
        let addr = self.stream_addr(k);
        let addr_reg = self.addr_reg(k);

        // Prefer starting a chain that is waiting for a restart.
        if self.state.rng.random_bool(self.spec.chain_starts_with_load) {
            if let Some(ci) = self.state.chains.iter().position(|c| c.remaining == 0) {
                let len = self.sample_chain_len();
                let dst = self.state.chains[ci].reg;
                self.state.chains[ci].remaining = len;
                return Inst::load(dst, addr_reg, addr, 8).at(pc);
            }
        }

        // Otherwise an aux load that feeds a later arithmetic op.
        let ci = self.state.aux_rr % 2;
        self.state.aux_rr += 1;
        let class = if ci == 1
            && self
                .state
                .chains
                .iter()
                .any(|c| c.reg.class() == RegClass::Fp)
        {
            RegClass::Fp
        } else {
            RegClass::Int
        };
        let dst = ArchReg::new(class, AUX_LOAD_BASE + (self.state.aux_rr % 4) as u8);
        self.state.aux_feed[class.index()] = Some(dst);
        Inst::load(dst, addr_reg, addr, 8).at(pc)
    }

    fn emit_store(&mut self) -> Inst {
        let pc = self.pc();
        self.advance_pc();
        let k = self.state.stream_rr;
        self.state.stream_rr = (self.state.stream_rr + 1) % 4;
        let addr = self.stream_addr(k);
        let addr_reg = self.addr_reg(k);
        // Prefer storing a chain that just finished (its value is "the
        // result"); otherwise any live chain value.
        let data = self
            .state
            .chains
            .iter()
            .find(|c| c.remaining == 0)
            .or_else(|| self.state.chains.get(self.state.rr))
            .map(|c| c.reg)
            .unwrap_or_else(|| ArchReg::int(R_INVARIANT));
        Inst::store(data, addr_reg, addr, 8).at(pc)
    }

    fn emit_arith(&mut self) -> Inst {
        let pc = self.pc();
        self.advance_pc();
        self.state.rr = wrap_next(self.state.rr, self.state.chains.len());
        let ci = self.state.rr;
        let (reg, remaining) = {
            let c = &self.state.chains[ci];
            (c.reg, c.remaining)
        };
        let class = reg.class();
        let op = self.sample_op(class);
        if remaining == 0 {
            // Restart the chain from invariants (a chain not started by a
            // load; e.g. an accumulator reset).
            let len = self.sample_chain_len();
            self.state.chains[ci].remaining = len;
            let s1 = self.invariant_for(class);
            let s2 = self.pick_src2(class, reg);
            self.arith(op, reg, s1, s2).at(pc)
        } else {
            self.state.chains[ci].remaining = remaining - 1;
            let s2 = self.pick_src2(class, reg);
            self.arith(op, reg, reg, s2).at(pc)
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Inst;

    fn next(&mut self) -> Option<Inst> {
        self.state.emitted += 1;

        // Count down a pending return.
        if let Some(top) = self.state.call_stack.last_mut() {
            top.1 = top.1.saturating_sub(1);
        }

        if self.state.emitted.is_multiple_of(INDUCTION_PERIOD) {
            let inst = self.emit_induction();
            self.advance_pc();
            return Some(inst);
        }

        let b = &self.spec.branch;
        let m = &self.spec.mem;
        let x: f64 = self.state.rng.random_range(0.0..1.0);
        let inst = if x < b.branch_frac || self.state.call_stack.last().is_some_and(|t| t.1 == 0) {
            self.emit_branch()
        } else if x < b.branch_frac + m.load_frac {
            self.emit_load()
        } else if x < b.branch_frac + m.load_frac + m.store_frac {
            self.emit_store()
        } else {
            self.emit_arith()
        };
        Some(inst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BenchClass, BranchPattern, MemPattern, OpMix};

    fn fp_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "fptest".into(),
            class: BenchClass::Fp,
            live_chains: 16,
            chain_len: (3, 7),
            chain_starts_with_load: 0.7,
            chain_ends_with_store: 0.4,
            cross_dep_prob: 0.08,
            mix: OpMix::fp_typical(),
            mem: MemPattern::streaming(8 << 20),
            branch: BranchPattern::loopy(),
            seed: 7,
        }
    }

    fn int_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "inttest".into(),
            class: BenchClass::Int,
            live_chains: 6,
            chain_len: (2, 4),
            chain_starts_with_load: 0.5,
            chain_ends_with_store: 0.3,
            cross_dep_prob: 0.12,
            mix: OpMix::int_typical(),
            mem: MemPattern::irregular(1 << 20),
            branch: BranchPattern::branchy(),
            seed: 7,
        }
    }

    #[test]
    fn all_generated_instructions_are_valid() {
        for spec in [fp_spec(), int_spec()] {
            for inst in TraceGenerator::new(&spec).take(20_000) {
                inst.validate()
                    .unwrap_or_else(|e| panic!("{}: {inst}: {e}", spec.name));
            }
        }
    }

    #[test]
    fn fractions_roughly_match_spec() {
        let spec = fp_spec();
        let trace: Vec<_> = TraceGenerator::new(&spec).take(50_000).collect();
        let frac = |p: fn(&Inst) -> bool| {
            trace.iter().filter(|i| p(i)).count() as f64 / trace.len() as f64
        };
        let loads = frac(|i| i.op == OpClass::Load);
        let branches = frac(|i| i.op == OpClass::Branch);
        assert!(
            (loads - spec.mem.load_frac).abs() < 0.08,
            "load fraction {loads} vs spec {}",
            spec.mem.load_frac
        );
        assert!(
            (branches - spec.branch.branch_frac).abs() < 0.05,
            "branch fraction {branches}"
        );
    }

    #[test]
    fn fp_spec_has_wide_fp_ddg() {
        let spec = fp_spec();
        let trace: Vec<_> = TraceGenerator::new(&spec).take(20_000).collect();
        // Count distinct FP chain destination registers: should reflect the
        // configured DDG width.
        let mut dsts = std::collections::BTreeSet::new();
        for i in &trace {
            if let Some(d) = i.dst {
                if d.class() == RegClass::Fp
                    && d.index() >= FP_CHAIN_BASE as usize
                    && d.index() < 28
                {
                    dsts.insert(d.index());
                }
            }
        }
        assert!(
            dsts.len() >= 12,
            "expected >=12 live FP chains, saw {}",
            dsts.len()
        );
    }

    #[test]
    fn int_spec_is_integer_only() {
        let spec = int_spec();
        assert!(TraceGenerator::new(&spec)
            .take(20_000)
            .all(|i| !i.is_fp_side()));
    }

    #[test]
    fn chains_are_serial_dependences() {
        // An interior chain op must read its own chain register (serial
        // dependence), which is what makes FIFO queues meaningful.
        let spec = fp_spec();
        let trace: Vec<_> = TraceGenerator::new(&spec).take(5_000).collect();
        let mut serial = 0usize;
        let mut fp_arith = 0usize;
        for i in &trace {
            if i.op.is_fp_side() {
                fp_arith += 1;
                if let Some(d) = i.dst {
                    if i.sources().any(|s| s == d) {
                        serial += 1;
                    }
                }
            }
        }
        assert!(
            serial as f64 > 0.6 * fp_arith as f64,
            "only {serial}/{fp_arith} fp ops extend their chain"
        );
    }

    #[test]
    fn branch_targets_stay_in_code_footprint() {
        let spec = int_spec();
        for inst in TraceGenerator::new(&spec).take(20_000) {
            if let Some(b) = inst.branch {
                assert!(b.target >= 0x0040_0000);
                assert!(b.target < 0x0040_0000 + 16 * 4 * (spec.branch.sites as u64 + 1));
            }
        }
    }

    #[test]
    fn deterministic_across_clones() {
        let spec = fp_spec();
        let a: Vec<_> = TraceGenerator::new(&spec).take(1000).collect();
        let b: Vec<_> = TraceGenerator::new(&spec).take(1000).collect();
        assert_eq!(a, b);
    }

    /// The PC-addressable contract: a wrong-path excursion of any length,
    /// followed by a restore, replays the correct path bit-identically.
    #[test]
    fn wrong_path_excursion_then_restore_replays_exactly() {
        let spec = int_spec();
        let reference: Vec<_> = TraceGenerator::new(&spec).take(2_000).collect();

        let mut gen = TraceGenerator::new(&spec);
        let mut replayed = Vec::new();
        for i in 0..2_000 {
            replayed.push(gen.next().unwrap());
            if i % 97 == 13 {
                // Speculate: checkpoint, run down an arbitrary other path,
                // then recover.
                let cp = gen.checkpoint();
                gen.enter_wrong_path(0x0040_0000 + (i as u64 % 64) * 4);
                for _ in 0..(i % 40) {
                    let wrong = gen.next().unwrap();
                    wrong.validate().expect("wrong-path instructions are valid");
                }
                gen.restore(&cp);
            }
        }
        assert_eq!(replayed, reference);
    }

    /// Entering at a wrong-path PC resumes fetching from that address.
    #[test]
    fn enter_wrong_path_positions_the_pc() {
        let spec = int_spec();
        let mut gen = TraceGenerator::new(&spec);
        for _ in 0..100 {
            let _ = gen.next();
        }
        let target = 0x0040_0000 + 5 * 16 * 4;
        gen.enter_wrong_path(target);
        assert_eq!(gen.current_pc(), target);
        // Wrong-path instructions carry PCs from the entered block (until
        // the program's own control flow transfers away).
        let first = gen.next().unwrap();
        assert!(first.pc >= 0x0040_0000);
    }
}

//! The firmware analyses: abstract interpretation for stack depth and
//! register/flag preservation, interprocedural interrupt-flag
//! tracking, and loop-bounded WCET — all over the recovered CFG.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use ulp_mcu8::{Insn, Predecoded, PtrMode};

use super::cfg::{self, Cfg, Function, RawDiag, Term};
use super::{EntryReport, FirmwareConfig, FirmwareReport, VectorDispatch, WcetBound};
use crate::diag::{DiagClass, Diagnostic};

const IO_SPL: u8 = 0x3D;
const IO_SPH: u8 = 0x3E;
const IO_SREG: u8 = 0x3F;

// ---------------------------------------------------------------------
// Abstract domain
// ---------------------------------------------------------------------

/// What a register (or stack slot) holds relative to function entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Val {
    /// The entry value of register `n`, unmodified.
    Orig(u8),
    /// The entry value of `SREG` (read via `in rX, 0x3F`).
    SregOrig,
    /// Anything else.
    Other,
}

/// The interrupt-enable flag, relative to function entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IVal {
    /// Still whatever it was at entry.
    Orig,
    Set,
    Clear,
    Unknown,
}

impl IVal {
    fn join(self, other: IVal) -> IVal {
        if self == other {
            self
        } else {
            IVal::Unknown
        }
    }

    /// Resolve relative to a concrete entry state.
    fn resolve(self, entry: IVal) -> IVal {
        match self {
            IVal::Orig => entry,
            v => v,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct AbsState {
    regs: [Val; 32],
    /// Whether `SREG` (all flags) still holds its entry value.
    sreg_orig: bool,
    i: IVal,
    /// Abstract stack contents, bottom first (one entry per byte).
    stack: Vec<Val>,
}

impl AbsState {
    fn entry() -> AbsState {
        let mut regs = [Val::Other; 32];
        for (n, r) in regs.iter_mut().enumerate() {
            *r = Val::Orig(n as u8);
        }
        AbsState {
            regs,
            sreg_orig: true,
            i: IVal::Orig,
            stack: Vec::new(),
        }
    }

    /// `None` when the stack heights disagree (push/pop imbalance).
    fn join(&self, other: &AbsState) -> Option<AbsState> {
        if self.stack.len() != other.stack.len() {
            return None;
        }
        let mut out = self.clone();
        for (a, b) in out.regs.iter_mut().zip(other.regs.iter()) {
            if *a != *b {
                *a = Val::Other;
            }
        }
        out.sreg_orig = self.sreg_orig && other.sreg_orig;
        out.i = self.i.join(other.i);
        for (a, b) in out.stack.iter_mut().zip(other.stack.iter()) {
            if *a != *b {
                *a = Val::Other;
            }
        }
        Some(out)
    }
}

// ---------------------------------------------------------------------
// Function summaries
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Summary {
    /// Registers whose exit value may differ from their entry value.
    clobbered: [bool; 32],
    /// Whether `SREG` flags may be clobbered at exit.
    sreg_clobbered: bool,
    /// Net effect on the I flag (`Orig` = transparent).
    i_effect: IVal,
    /// Worst-case bytes pushed below the entry SP, including transient
    /// callee frames.
    max_stack: u32,
    /// `false` when recursion or an unresolved indirect call makes the
    /// stack bound unknowable.
    stack_known: bool,
    wcet: WcetBound,
    /// `sleep` sites with the symbolic I state reaching them.
    sleep_sites: Vec<(u16, IVal)>,
    /// `sei` sites (word addresses).
    sei_sites: Vec<u16>,
    /// Call sites: (address, callee entries, symbolic I state there).
    call_sites: Vec<(u16, Vec<u16>, IVal)>,
    /// Word addresses of loop headers the bounder gave up on.
    unbounded_loops: Vec<u16>,
}

impl Summary {
    /// The sound fallback for functions in a recursive cycle.
    fn conservative() -> Summary {
        Summary {
            clobbered: [true; 32],
            sreg_clobbered: true,
            i_effect: IVal::Unknown,
            max_stack: 0,
            stack_known: false,
            wcet: WcetBound::Unbounded,
            sleep_sites: Vec::new(),
            sei_sites: Vec::new(),
            call_sites: Vec::new(),
            unbounded_loops: Vec::new(),
        }
    }
}

/// Union of several callee summaries, for `icall` through a declared
/// target set. An empty target set yields the conservative summary.
fn union_summary(targets: &[u16], cfg: &Cfg, summaries: &BTreeMap<u16, Summary>) -> Summary {
    let mut out: Option<Summary> = None;
    for t in targets {
        if !cfg.func_at.contains_key(t) {
            continue;
        }
        let s = &summaries[t];
        match &mut out {
            None => out = Some(s.clone()),
            Some(acc) => {
                for (a, b) in acc.clobbered.iter_mut().zip(s.clobbered.iter()) {
                    *a |= *b;
                }
                acc.sreg_clobbered |= s.sreg_clobbered;
                acc.i_effect = acc.i_effect.join(s.i_effect);
                acc.max_stack = acc.max_stack.max(s.max_stack);
                acc.stack_known &= s.stack_known;
                acc.wcet = acc.wcet.join_max(s.wcet);
            }
        }
    }
    out.unwrap_or_else(Summary::conservative)
}

// ---------------------------------------------------------------------
// Instruction classification
// ---------------------------------------------------------------------

/// Raw register writes of one instruction (callee effects excluded).
fn reg_writes(insn: &Insn) -> Vec<u8> {
    let ptr_pair = |p: ulp_mcu8::Ptr| vec![p.lo() as u8, p.lo() as u8 + 1];
    match *insn {
        Insn::Add { d, .. }
        | Insn::Adc { d, .. }
        | Insn::Sub { d, .. }
        | Insn::Sbc { d, .. }
        | Insn::And { d, .. }
        | Insn::Or { d, .. }
        | Insn::Eor { d, .. }
        | Insn::Mov { d, .. }
        | Insn::Subi { d, .. }
        | Insn::Sbci { d, .. }
        | Insn::Andi { d, .. }
        | Insn::Ori { d, .. }
        | Insn::Ldi { d, .. }
        | Insn::Com { d }
        | Insn::Neg { d }
        | Insn::Swap { d }
        | Insn::Inc { d }
        | Insn::Dec { d }
        | Insn::Asr { d }
        | Insn::Lsr { d }
        | Insn::Ror { d }
        | Insn::Lds { d, .. }
        | Insn::Pop { d }
        | Insn::In { d, .. }
        | Insn::Bld { d, .. }
        | Insn::Ldd { d, .. } => vec![d],
        Insn::Movw { d, .. } | Insn::Adiw { d, .. } | Insn::Sbiw { d, .. } => vec![d, d + 1],
        Insn::Mul { .. } => vec![0, 1],
        Insn::Ld { d, ptr, mode } => {
            let mut v = vec![d];
            if mode != PtrMode::Plain {
                v.extend(ptr_pair(ptr));
            }
            v
        }
        Insn::St { ptr, mode, .. } => {
            if mode != PtrMode::Plain {
                ptr_pair(ptr)
            } else {
                Vec::new()
            }
        }
        _ => Vec::new(),
    }
}

/// Whether the instruction writes `SREG` flags (I handled separately).
fn writes_flags(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Add { .. }
            | Insn::Adc { .. }
            | Insn::Sub { .. }
            | Insn::Sbc { .. }
            | Insn::And { .. }
            | Insn::Or { .. }
            | Insn::Eor { .. }
            | Insn::Com { .. }
            | Insn::Neg { .. }
            | Insn::Inc { .. }
            | Insn::Dec { .. }
            | Insn::Asr { .. }
            | Insn::Lsr { .. }
            | Insn::Ror { .. }
            | Insn::Adiw { .. }
            | Insn::Sbiw { .. }
            | Insn::Subi { .. }
            | Insn::Sbci { .. }
            | Insn::Andi { .. }
            | Insn::Ori { .. }
            | Insn::Cpi { .. }
            | Insn::Cp { .. }
            | Insn::Cpc { .. }
            | Insn::Mul { .. }
            | Insn::Bst { .. }
            | Insn::Bset { .. }
            | Insn::Bclr { .. }
    )
}

// ---------------------------------------------------------------------
// Per-function dataflow
// ---------------------------------------------------------------------

struct FlowResult {
    summary: Summary,
    /// Join points (block starts) where stack heights disagreed, and
    /// returns executed with bytes still pushed.
    imbalances: Vec<u16>,
}

/// One instruction's effect on the abstract state. Returns `false` if
/// a pop underflowed (recorded by the caller as an imbalance).
fn transfer(state: &mut AbsState, insn: &Insn, callee: Option<&Summary>) -> bool {
    let mut ok = true;
    match *insn {
        Insn::Mov { d, r } => state.regs[d as usize] = state.regs[r as usize],
        Insn::Movw { d, r } => {
            state.regs[d as usize] = state.regs[r as usize];
            state.regs[d as usize + 1] = state.regs[r as usize + 1];
        }
        Insn::Push { r } => state.stack.push(state.regs[r as usize]),
        Insn::Pop { d } => {
            state.regs[d as usize] = match state.stack.pop() {
                Some(v) => v,
                None => {
                    ok = false;
                    Val::Other
                }
            }
        }
        Insn::In { d, a } => {
            state.regs[d as usize] = if a == IO_SREG && state.sreg_orig {
                Val::SregOrig
            } else {
                Val::Other
            };
        }
        Insn::Out { a, r } => match a {
            IO_SREG => {
                let restored = state.regs[r as usize] == Val::SregOrig;
                state.sreg_orig = restored;
                state.i = if restored { IVal::Orig } else { IVal::Unknown };
            }
            IO_SPL | IO_SPH => state.stack.clear(),
            _ => {}
        },
        Insn::Bset { s } => {
            state.sreg_orig = false;
            if s == 7 {
                state.i = IVal::Set;
            }
        }
        Insn::Bclr { s } => {
            state.sreg_orig = false;
            if s == 7 {
                state.i = IVal::Clear;
            }
        }
        Insn::Rcall { .. } | Insn::Call { .. } | Insn::Icall => {
            let summary = callee.expect("call sites carry a callee summary");
            for (n, clob) in summary.clobbered.iter().enumerate() {
                if *clob {
                    state.regs[n] = Val::Other;
                }
            }
            if summary.sreg_clobbered {
                state.sreg_orig = false;
            }
            match summary.i_effect {
                IVal::Orig => {}
                eff => state.i = eff.resolve(state.i),
            }
        }
        ref other => {
            for n in reg_writes(other) {
                state.regs[n as usize] = Val::Other;
            }
            if writes_flags(other) {
                state.sreg_orig = false;
            }
        }
    }
    ok
}

/// Fixpoint dataflow over one function, producing its summary (WCET
/// filled in separately).
fn flow_function(func: &Function, cfg: &Cfg, summaries: &BTreeMap<u16, Summary>) -> FlowResult {
    let n = func.blocks.len();
    let call_at: BTreeMap<u16, &Vec<u16>> =
        func.calls.iter().map(|c| (c.addr, &c.targets)).collect();
    let callee_summary = |targets: &[u16]| union_summary(targets, cfg, summaries);

    let mut in_states: Vec<Option<AbsState>> = vec![None; n];
    let entry_block = func.block_at[&func.entry];
    in_states[entry_block] = Some(AbsState::entry());
    let mut imbalances: BTreeSet<u16> = BTreeSet::new();
    let mut work: VecDeque<usize> = VecDeque::from([entry_block]);
    let mut queued = vec![false; n];
    queued[entry_block] = true;

    while let Some(b) = work.pop_front() {
        queued[b] = false;
        let Some(mut state) = in_states[b].clone() else {
            continue;
        };
        let block = &func.blocks[b];
        for (addr, d) in &block.insns {
            let callee = call_at.get(addr).map(|t| callee_summary(t));
            if !transfer(&mut state, &d.insn, callee.as_ref()) {
                imbalances.insert(*addr);
            }
        }
        if matches!(block.term, Term::Ret | Term::Reti) && !state.stack.is_empty() {
            imbalances.insert(block.insns.last().map(|&(a, _)| a).unwrap_or(block.start));
        }
        for edge in &block.succs {
            let next = match &in_states[edge.to] {
                None => Some(state.clone()),
                Some(prev) => match prev.join(&state) {
                    Some(joined) if &joined != prev => Some(joined),
                    Some(_) => None,
                    None => {
                        imbalances.insert(func.blocks[edge.to].start);
                        None
                    }
                },
            };
            if let Some(next) = next {
                in_states[edge.to] = Some(next);
                if !queued[edge.to] {
                    queued[edge.to] = true;
                    work.push_back(edge.to);
                }
            }
        }
    }

    // Final walk: exit join, max depth, and per-site records.
    let mut exit: Option<AbsState> = None;
    let mut max_stack = 0u32;
    let mut stack_known = true;
    let mut sleep_sites = Vec::new();
    let mut sei_sites = Vec::new();
    let mut call_sites = Vec::new();
    for (b, block) in func.blocks.iter().enumerate() {
        let Some(mut state) = in_states[b].clone() else {
            continue; // unreachable under the (diagnosed) imbalance
        };
        for (addr, d) in &block.insns {
            match d.insn {
                Insn::Sleep => sleep_sites.push((*addr, state.i)),
                Insn::Bset { s: 7 } => sei_sites.push(*addr),
                Insn::Rcall { .. } | Insn::Call { .. } | Insn::Icall => {
                    let targets = call_at[addr];
                    let callee = callee_summary(targets);
                    if !callee.stack_known {
                        stack_known = false;
                    }
                    max_stack = max_stack.max(state.stack.len() as u32 + 2 + callee.max_stack);
                    call_sites.push((*addr, (*targets).clone(), state.i));
                }
                _ => {}
            }
            let callee = call_at.get(addr).map(|t| callee_summary(t));
            let _ = transfer(&mut state, &d.insn, callee.as_ref());
            max_stack = max_stack.max(state.stack.len() as u32);
        }
        if matches!(block.term, Term::Ret | Term::Reti) {
            exit = match exit {
                None => Some(state),
                // Height mismatch across exits falls back to the
                // previous state: the imbalance is already recorded.
                Some(prev) => Some(prev.join(&state).unwrap_or(prev)),
            };
        }
    }

    let mut clobbered = [false; 32];
    let mut sreg_clobbered = false;
    let mut i_effect = IVal::Orig;
    if let Some(exit) = &exit {
        for (n, c) in clobbered.iter_mut().enumerate() {
            *c = exit.regs[n] != Val::Orig(n as u8);
        }
        sreg_clobbered = !exit.sreg_orig;
        i_effect = exit.i;
    }
    // Unresolved indirect calls poison the stack bound.
    for c in &func.calls {
        if c.targets.is_empty() {
            stack_known = false;
        }
    }

    FlowResult {
        summary: Summary {
            clobbered,
            sreg_clobbered,
            i_effect,
            max_stack,
            stack_known,
            wcet: WcetBound::Unbounded, // filled in by wcet_function
            sleep_sites,
            sei_sites,
            call_sites,
            unbounded_loops: Vec::new(),
        },
        imbalances: imbalances.into_iter().collect(),
    }
}

// ---------------------------------------------------------------------
// WCET
// ---------------------------------------------------------------------

/// Loop-bounded WCET for one function: collapse immediate-counted
/// loops innermost-first, then take the longest path over the DAG.
/// Returns the bound plus the headers of loops it could not bound.
fn wcet_function(
    func: &Function,
    cfg: &Cfg,
    summaries: &BTreeMap<u16, Summary>,
    penalty: u8,
) -> (WcetBound, Vec<u16>) {
    let n = func.blocks.len();
    let call_at: BTreeMap<u16, &Vec<u16>> =
        func.calls.iter().map(|c| (c.addr, &c.targets)).collect();

    // Base block costs.
    let mut cost: Vec<WcetBound> = func
        .blocks
        .iter()
        .map(|b| {
            let mut c = WcetBound::Exact(0);
            for (addr, d) in &b.insns {
                c = c.add_cycles(u64::from(d.cycles) + u64::from(d.words) * u64::from(penalty));
                if let Some(targets) = call_at.get(addr) {
                    c = c.add(union_summary(targets, cfg, summaries).wcet);
                }
            }
            c
        })
        .collect();
    let mut succs: Vec<Vec<cfg::Edge>> = func.blocks.iter().map(|b| b.succs.clone()).collect();

    // DFS back-edge detection from the entry block.
    let entry = func.block_at[&func.entry];
    let mut back_edges: Vec<(usize, usize)> = Vec::new(); // (from, header)
    {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Grey,
            Black,
        }
        let mut color = vec![Color::White; n];
        // Iterative DFS with an explicit edge iterator per frame.
        let mut stack: Vec<(usize, usize)> = vec![(entry, 0)];
        color[entry] = Color::Grey;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b].len() {
                let to = succs[b][*i].to;
                *i += 1;
                match color[to] {
                    Color::White => {
                        color[to] = Color::Grey;
                        stack.push((to, 0));
                    }
                    Color::Grey => back_edges.push((b, to)),
                    Color::Black => {}
                }
            } else {
                color[b] = Color::Black;
                stack.pop();
            }
        }
    }

    // Natural loop membership per back edge.
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (b, s) in succs.iter().enumerate() {
        for e in s {
            preds[e.to].push(b);
        }
    }
    let natural_loop = |latch: usize, header: usize, preds: &[Vec<usize>]| -> BTreeSet<usize> {
        let mut set = BTreeSet::from([header, latch]);
        let mut work = vec![latch];
        while let Some(b) = work.pop() {
            if b == header {
                continue;
            }
            for &p in &preds[b] {
                if set.insert(p) {
                    work.push(p);
                }
            }
        }
        set
    };
    let mut loops: Vec<(usize, usize, BTreeSet<usize>)> = back_edges
        .iter()
        .map(|&(latch, header)| (latch, header, natural_loop(latch, header, &preds)))
        .collect();
    loops.sort_by_key(|(latch, header, set)| (set.len(), *header, *latch));

    let mut unbounded: Vec<u16> = Vec::new();
    let mut approx = false;
    for (latch, header, members) in &loops {
        match bound_counted_loop(
            func, cfg, summaries, &call_at, *latch, *header, members, &succs, &preds, &cost,
        ) {
            Some((k, body, body_conditional)) => {
                // K-1 full iterations pay the body plus the taken back
                // edge; the final iteration flows through the DAG path.
                let per_iter = body.add_cycles(1);
                let surcharge = mul(per_iter, k - 1);
                cost[*header] = cost[*header].add(surcharge);
                succs[*latch].retain(|e| e.to != *header);
                if body_conditional {
                    approx = true;
                }
            }
            None => {
                unbounded.push(func.blocks[*header].start);
                // Cut the back edge anyway so the longest-path pass
                // terminates; the bound is Unbounded regardless.
                succs[*latch].retain(|e| e.to != *header);
            }
        }
    }

    // Longest path over the remaining graph (must now be a DAG).
    let order = match topo_order(entry, &succs, n) {
        Some(o) => o,
        None => return (WcetBound::Unbounded, unbounded),
    };
    let mut dist: Vec<Option<WcetBound>> = vec![None; n];
    dist[entry] = Some(WcetBound::Exact(0));
    let mut total: Option<WcetBound> = None;
    for &b in &order {
        let Some(d) = dist[b] else { continue };
        let here = d.add(cost[b]);
        if succs[b].is_empty() {
            total = Some(match total {
                None => here,
                Some(t) => t.join_max(here),
            });
        }
        if succs[b].len() > 1 {
            approx = true;
        }
        for e in &succs[b] {
            let via = here.add_cycles(u64::from(e.extra));
            dist[e.to] = Some(match dist[e.to] {
                None => via,
                Some(prev) => prev.join_max(via),
            });
        }
    }
    let mut wcet = if unbounded.is_empty() {
        total.unwrap_or(WcetBound::Unbounded)
    } else {
        WcetBound::Unbounded
    };
    if approx {
        if let WcetBound::Exact(c) = wcet {
            wcet = WcetBound::UpperBound(c);
        }
    }
    (wcet, unbounded)
}

fn mul(bound: WcetBound, k: u64) -> WcetBound {
    match bound {
        WcetBound::Exact(c) => WcetBound::Exact(c * k),
        WcetBound::UpperBound(c) => WcetBound::UpperBound(c * k),
        WcetBound::Unbounded => WcetBound::Unbounded,
    }
}

/// Kahn topological order of the blocks reachable from `entry`, or
/// `None` if a cycle survives.
fn topo_order(entry: usize, succs: &[Vec<cfg::Edge>], n: usize) -> Option<Vec<usize>> {
    let mut reach = vec![false; n];
    let mut work = vec![entry];
    reach[entry] = true;
    while let Some(b) = work.pop() {
        for e in &succs[b] {
            if !reach[e.to] {
                reach[e.to] = true;
                work.push(e.to);
            }
        }
    }
    let mut indeg = vec![0usize; n];
    for (b, s) in succs.iter().enumerate() {
        if !reach[b] {
            continue;
        }
        for e in s {
            indeg[e.to] += 1;
        }
    }
    let mut queue: VecDeque<usize> = (0..n).filter(|&b| reach[b] && indeg[b] == 0).collect();
    let mut order = Vec::new();
    while let Some(b) = queue.pop_front() {
        order.push(b);
        for e in &succs[b] {
            indeg[e.to] -= 1;
            if indeg[e.to] == 0 {
                queue.push_back(e.to);
            }
        }
    }
    if order.len() == reach.iter().filter(|&&r| r).count() {
        Some(order)
    } else {
        None
    }
}

/// Try to prove an immediate-counted trip count for the loop
/// `header..latch`: the latch must end `dec rN; brne header`, `rN`
/// must be loaded with `ldi rN, K` in every preheader, and nothing in
/// the loop (including callees) may write `rN` besides that `dec`.
/// Returns `(K, body_longest_path, body_has_conditionals)`.
#[allow(clippy::too_many_arguments)]
fn bound_counted_loop(
    func: &Function,
    cfg: &Cfg,
    summaries: &BTreeMap<u16, Summary>,
    call_at: &BTreeMap<u16, &Vec<u16>>,
    latch: usize,
    header: usize,
    members: &BTreeSet<usize>,
    succs: &[Vec<cfg::Edge>],
    preds: &[Vec<usize>],
    cost: &[WcetBound],
) -> Option<(u64, WcetBound, bool)> {
    // Exactly one back edge into this header, and it must be the
    // *taken* edge of the latch's conditional branch (extra = 1).
    let latches: Vec<usize> = preds[header]
        .iter()
        .copied()
        .filter(|p| members.contains(p))
        .collect();
    if latches.len() != 1 || latches[0] != latch {
        return None;
    }
    if !succs[latch].iter().any(|e| e.to == header && e.extra == 1) {
        return None;
    }
    // Latch pattern: `dec rN` immediately before a `brne` whose taken
    // edge is the back edge.
    let insns = &func.blocks[latch].insns;
    let (_, brne) = insns.last()?;
    let counter = match (brne.insn, insns.len() >= 2) {
        (Insn::Brbc { s: 1, .. }, true) => match insns[insns.len() - 2].1.insn {
            Insn::Dec { d } => d,
            _ => return None,
        },
        _ => return None,
    };
    // Initial value from every preheader.
    let mut k: Option<u64> = None;
    for &p in &preds[header] {
        if members.contains(&p) {
            continue;
        }
        let mut found = None;
        for (addr, d) in func.blocks[p].insns.iter().rev() {
            let writes = reg_writes(&d.insn);
            let called = call_at
                .get(addr)
                .map(|t| union_summary(t, cfg, summaries).clobbered[counter as usize])
                .unwrap_or(false);
            if writes.contains(&counter) || called {
                found = match d.insn {
                    Insn::Ldi { d, k } if d == counter => {
                        Some(if k == 0 { 256u64 } else { u64::from(k) })
                    }
                    _ => None,
                };
                break;
            }
        }
        match (found, k) {
            (Some(v), None) => k = Some(v),
            (Some(v), Some(prev)) if v == prev => {}
            _ => return None,
        }
    }
    let k = k?;
    // The counter must not be written inside the loop except by the
    // latch's own `dec`.
    let dec_addr = insns[insns.len() - 2].0;
    for &b in members {
        for (addr, d) in &func.blocks[b].insns {
            if *addr == dec_addr {
                continue;
            }
            if reg_writes(&d.insn).contains(&counter) {
                return None;
            }
            if let Some(targets) = call_at.get(addr) {
                if union_summary(targets, cfg, summaries).clobbered[counter as usize] {
                    return None;
                }
            }
        }
    }
    // Longest path header -> latch within the loop, back edge removed.
    let body = loop_longest_path(header, latch, members, succs, cost)?;
    let conditional = members
        .iter()
        .any(|&b| succs[b].iter().filter(|e| members.contains(&e.to)).count() > 1);
    Some((k, body, conditional))
}

/// Longest path from `header` through `latch` staying inside the loop,
/// ignoring the back edge itself. `None` if the interior still has a
/// cycle (an unbounded inner loop).
fn loop_longest_path(
    header: usize,
    latch: usize,
    members: &BTreeSet<usize>,
    succs: &[Vec<cfg::Edge>],
    cost: &[WcetBound],
) -> Option<WcetBound> {
    // Topological order of the loop interior.
    let in_loop = |b: usize| members.contains(&b);
    let mut indeg: BTreeMap<usize, usize> = members.iter().map(|&b| (b, 0)).collect();
    for &b in members {
        for e in &succs[b] {
            if in_loop(e.to) && !(b == latch && e.to == header) {
                *indeg.get_mut(&e.to).unwrap() += 1;
            }
        }
    }
    let mut queue: VecDeque<usize> = indeg
        .iter()
        .filter(|&(_, &d)| d == 0)
        .map(|(&b, _)| b)
        .collect();
    let mut order = Vec::new();
    while let Some(b) = queue.pop_front() {
        order.push(b);
        for e in &succs[b] {
            if in_loop(e.to) && !(b == latch && e.to == header) {
                let d = indeg.get_mut(&e.to).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push_back(e.to);
                }
            }
        }
    }
    if order.len() != members.len() {
        return None;
    }
    let mut dist: BTreeMap<usize, Option<WcetBound>> = members.iter().map(|&b| (b, None)).collect();
    dist.insert(header, Some(WcetBound::Exact(0)));
    for &b in &order {
        let Some(d) = dist[&b] else { continue };
        let here = d.add(cost[b]);
        for e in &succs[b] {
            if in_loop(e.to) && !(b == latch && e.to == header) {
                let via = here.add_cycles(u64::from(e.extra));
                let entry = dist.get_mut(&e.to).unwrap();
                *entry = Some(match *entry {
                    None => via,
                    Some(prev) => prev.join_max(via),
                });
            }
        }
    }
    dist[&latch].map(|d| d.add(cost[latch]))
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

/// Strongly connected components of the call graph with more than one
/// member (or a self loop): recursion.
fn recursive_sets(cfg: &Cfg) -> Vec<BTreeSet<usize>> {
    // Tarjan, iterative.
    let n = cfg.functions.len();
    let adj: Vec<Vec<usize>> = (0..n).map(|f| cfg.callees(f)).collect();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut out = Vec::new();
    let visit = |v: usize,
                 index: &mut Vec<usize>,
                 low: &mut Vec<usize>,
                 stack: &mut Vec<usize>,
                 on_stack: &mut Vec<bool>,
                 next_index: &mut usize| {
        index[v] = *next_index;
        low[v] = *next_index;
        *next_index += 1;
        stack.push(v);
        on_stack[v] = true;
    };
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        visit(
            root,
            &mut index,
            &mut low,
            &mut stack,
            &mut on_stack,
            &mut next_index,
        );
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut i)) = call.last_mut() {
            if *i < adj[v].len() {
                let w = adj[v][*i];
                *i += 1;
                if index[w] == usize::MAX {
                    visit(
                        w,
                        &mut index,
                        &mut low,
                        &mut stack,
                        &mut on_stack,
                        &mut next_index,
                    );
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                if low[v] == index[v] {
                    let mut scc = BTreeSet::new();
                    loop {
                        let w = stack.pop().unwrap();
                        on_stack[w] = false;
                        scc.insert(w);
                        if w == v {
                            break;
                        }
                    }
                    let self_loop = scc.len() == 1 && adj[v].contains(&v);
                    if scc.len() > 1 || self_loop {
                        out.push(scc);
                    }
                }
                call.pop();
                if let Some(&mut (parent, _)) = call.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                }
            }
        }
    }
    out
}

/// Callee-first order over the non-recursive part of the call graph.
fn bottom_up_order(cfg: &Cfg, recursive: &BTreeSet<usize>) -> Vec<usize> {
    let n = cfg.functions.len();
    let mut state = vec![0u8; n]; // 0 = unvisited, 1 = visiting, 2 = done
    let mut order = Vec::new();
    for root in 0..n {
        if state[root] != 0 || recursive.contains(&root) {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
        state[root] = 1;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let callees = cfg.callees(v);
            if *i < callees.len() {
                let w = callees[*i];
                *i += 1;
                if state[w] == 0 && !recursive.contains(&w) {
                    state[w] = 1;
                    stack.push((w, 0));
                }
            } else {
                state[v] = 2;
                order.push(v);
                stack.pop();
            }
        }
    }
    order
}

/// The whole pipeline: predecode, recover, analyze, report.
pub(super) fn run(words: &[u16], config: &FirmwareConfig) -> FirmwareReport {
    let table = Predecoded::from_words(words);
    let image_words = words.len();
    let n_vectors = config.vectors.len();
    let mut diags: Vec<Diagnostic> = Vec::new();

    // Vector slots: installed dispatches become analysis entries.
    struct Slot {
        vector: u8,
        slot_addr: u16,
        installed: bool,
        target: u16, // handler address (jmp/rjmp destination, or the slot)
    }
    let mut slots: Vec<Slot> = Vec::new();
    for v in 0..n_vectors {
        let slot_addr = (v * 2) as u16;
        let d = table.get(slot_addr);
        let next = slot_addr + u16::from(d.words);
        let (installed, target) = match d.insn {
            Insn::Jmp { addr } => (true, addr),
            Insn::Rjmp { k } => (true, next.wrapping_add(k as u16)),
            Insn::Reti => (true, slot_addr),
            _ => (false, slot_addr),
        };
        if !installed {
            diags.push(Diagnostic {
                class: DiagClass::UnreachableVector,
                offset: Some(u32::from(slot_addr) * 2),
                loc: Some(byte_addr(slot_addr)),
                insn: Some(d.insn.to_string()),
                message: format!("vector {v} ({}) slot holds no dispatch", config.vectors[v]),
                note: Some(
                    "an interrupt through this vector falls through the table \
                     into the next slot"
                        .to_string(),
                ),
            });
        }
        slots.push(Slot {
            vector: v as u8,
            slot_addr,
            installed,
            target,
        });
    }

    // CFG recovery from installed slots plus declared icall targets.
    let mut entries: Vec<u16> = slots
        .iter()
        .filter(|s| s.installed)
        .map(|s| s.slot_addr)
        .collect();
    let indirect: Vec<u16> = config.indirect_targets.iter().map(|(a, _)| *a).collect();
    entries.extend(indirect.iter().copied());
    let graph = cfg::recover(
        &table,
        image_words,
        &entries,
        &indirect,
        config.fetch_penalty,
    );

    // Naming and location rendering.
    let fn_name = |entry: u16| -> String {
        config
            .symbol_at(entry)
            .map(str::to_string)
            .unwrap_or_else(|| byte_addr(entry))
    };
    let loc_for = |addr: u16| -> String {
        // Nearest preceding configured code symbol; fall back to the
        // entry of the containing function, then to the address.
        let anchor = config
            .symbols
            .iter()
            .filter(|(a, _)| *a <= addr)
            .max_by_key(|(a, n)| (*a, std::cmp::Reverse(n.clone())))
            .map(|(a, n)| (*a, n.clone()))
            .or_else(|| {
                graph
                    .functions
                    .iter()
                    .filter(|f| {
                        f.entry <= addr
                            && f.blocks.iter().any(|b| b.start <= addr && addr < b.end())
                    })
                    .map(|f| f.entry)
                    .max()
                    .map(|entry| (entry, fn_name(entry)))
            });
        match anchor {
            Some((at, name)) if at == addr => name,
            Some((at, name)) => format!("{name}+0x{:04X}", u32::from(addr - at) * 2),
            None => byte_addr(addr),
        }
    };

    // Structural diagnostics from recovery.
    for raw in &graph.diags {
        push_raw(&mut diags, raw, &loc_for);
    }

    // Vector-overlap: reachable blocks inside the table region that are
    // not themselves installed slots.
    let table_bytes = (0, n_vectors as u32 * 4);
    let slot_starts: BTreeSet<u16> = slots
        .iter()
        .filter(|s| s.installed)
        .map(|s| s.slot_addr)
        .collect();
    let mut overlapped: BTreeSet<u16> = BTreeSet::new();
    for func in &graph.functions {
        for block in &func.blocks {
            let bytes = (u32::from(block.start) * 2, u32::from(block.end()) * 2);
            if ulp_core::map::ranges_overlap(bytes, table_bytes)
                && !slot_starts.contains(&block.start)
                && overlapped.insert(block.start)
            {
                diags.push(Diagnostic {
                    class: DiagClass::VectorOverlap,
                    offset: Some(bytes.0),
                    loc: Some(loc_for(block.start)),
                    insn: block.insns.first().map(|(_, d)| d.insn.to_string()),
                    message: format!(
                        "reachable code at 0x{:04X}..0x{:04X} overlaps the vector table \
                         (0x0000..0x{:04X})",
                        bytes.0, bytes.1, table_bytes.1
                    ),
                    note: Some("an interrupt through an overlapped slot executes it".to_string()),
                })
            }
        }
    }

    // Recursion.
    let sccs = recursive_sets(&graph);
    let mut recursive: BTreeSet<usize> = BTreeSet::new();
    for scc in &sccs {
        recursive.extend(scc.iter().copied());
        let mut names: Vec<String> = scc
            .iter()
            .map(|&f| fn_name(graph.functions[f].entry))
            .collect();
        names.sort();
        let first = *scc.iter().next().unwrap();
        let entry = graph.functions[first].entry;
        diags.push(Diagnostic {
            class: DiagClass::Recursion,
            offset: Some(u32::from(entry) * 2),
            loc: Some(loc_for(entry)),
            insn: None,
            message: format!("recursive call cycle: {}", names.join(" -> ")),
            note: Some("no static stack or WCET bound exists for recursion".to_string()),
        });
    }

    // Bottom-up summaries.
    let mut summaries: BTreeMap<u16, Summary> = BTreeMap::new();
    for &f in recursive.iter() {
        summaries.insert(graph.functions[f].entry, Summary::conservative());
    }
    let mut imbalance_addrs: BTreeSet<u16> = BTreeSet::new();
    for f in bottom_up_order(&graph, &recursive) {
        let func = &graph.functions[f];
        let mut result = flow_function(func, &graph, &summaries);
        let (wcet, headers) = wcet_function(func, &graph, &summaries, config.fetch_penalty);
        result.summary.wcet = wcet;
        result.summary.unbounded_loops = headers;
        imbalance_addrs.extend(result.imbalances.iter().copied());
        summaries.insert(func.entry, result.summary);
    }
    for addr in &imbalance_addrs {
        diags.push(Diagnostic {
            class: DiagClass::StackImbalance,
            offset: Some(u32::from(*addr) * 2),
            loc: Some(loc_for(*addr)),
            insn: None,
            message: "stack height disagrees across paths reaching this point".to_string(),
            note: Some(
                "pushes and pops must balance on every path; a mismatched join \
                 makes the depth (and any return address) undefined"
                    .to_string(),
            ),
        });
    }

    // Call-graph closure per entry function (for ISR-context lints).
    let closure = |start: usize| -> BTreeSet<usize> {
        let mut seen = BTreeSet::from([start]);
        let mut work = vec![start];
        while let Some(f) = work.pop() {
            for c in graph.callees(f) {
                if seen.insert(c) {
                    work.push(c);
                }
            }
        }
        seen
    };

    // Per-vector reports and ISR lints.
    let mut entry_reports: Vec<EntryReport> = Vec::new();
    let mut isr_reachable: BTreeSet<usize> = BTreeSet::new();
    for slot in &slots {
        let name = config.vectors[slot.vector as usize].clone();
        if !slot.installed {
            entry_reports.push(EntryReport {
                vector: slot.vector,
                name,
                target: "(not installed)".to_string(),
                dispatch: VectorDispatch::NotInstalled,
                wcet: None,
                stack: None,
            });
            continue;
        }
        // A slot outside the image has no function (recovery already
        // diagnosed the bad entry point).
        let (Some(&fidx), Some(summary)) = (
            graph.func_at.get(&slot.slot_addr),
            summaries.get(&slot.slot_addr),
        ) else {
            entry_reports.push(EntryReport {
                vector: slot.vector,
                name,
                target: "(outside image)".to_string(),
                dispatch: VectorDispatch::Installed,
                wcet: None,
                stack: None,
            });
            continue;
        };
        let target = if slot.target == slot.slot_addr {
            "reti".to_string()
        } else {
            fn_name(slot.target)
        };
        let is_reset = slot.vector == 0;
        let wcet = if is_reset {
            None
        } else {
            Some(WcetBound::Exact(4).add(summary.wcet))
        };
        let stack = summary.stack_known.then_some(summary.max_stack);
        if !is_reset {
            isr_reachable.extend(closure(fidx).iter().copied());
            // Clobber lints.
            let clobbered: Vec<String> = summary
                .clobbered
                .iter()
                .enumerate()
                .filter(|(_, c)| **c)
                .map(|(n, _)| format!("r{n}"))
                .collect();
            if !clobbered.is_empty() {
                diags.push(Diagnostic {
                    class: DiagClass::IsrClobbersRegister,
                    offset: Some(u32::from(slot.slot_addr) * 2),
                    loc: Some(loc_for(slot.slot_addr)),
                    insn: None,
                    message: format!(
                        "vector {} ({name}) handler `{target}` returns with {} clobbered",
                        slot.vector,
                        clobbered.join(", ")
                    ),
                    note: Some(
                        "an ISR must save and restore every register it touches; the \
                         interrupted code relies on all of them"
                            .to_string(),
                    ),
                });
            }
            if summary.sreg_clobbered {
                diags.push(Diagnostic {
                    class: DiagClass::IsrClobbersSreg,
                    offset: Some(u32::from(slot.slot_addr) * 2),
                    loc: Some(loc_for(slot.slot_addr)),
                    insn: None,
                    message: format!(
                        "vector {} ({name}) handler `{target}` returns with SREG clobbered",
                        slot.vector
                    ),
                    note: Some(
                        "save SREG through a register (`in rX, 0x3F` ... `out 0x3F, rX`) \
                         around any flag-modifying instruction"
                            .to_string(),
                    ),
                });
            }
            // WCET budget.
            if let (Some(budget), Some(bound)) = (config.isr_budget, wcet) {
                if let Some(c) = bound.cycles() {
                    if c > budget {
                        diags.push(Diagnostic {
                            class: DiagClass::WcetOverrun,
                            offset: Some(u32::from(slot.slot_addr) * 2),
                            loc: Some(loc_for(slot.slot_addr)),
                            insn: None,
                            message: format!(
                                "vector {} ({name}) worst case {c} cycles exceeds the \
                                 {budget}-cycle budget",
                                slot.vector
                            ),
                            note: None,
                        });
                    }
                }
            }
        }
        entry_reports.push(EntryReport {
            vector: slot.vector,
            name,
            target,
            dispatch: VectorDispatch::Installed,
            wcet,
            stack,
        });
    }

    // Lints over ISR-reachable code: sei re-enabling nesting and loops
    // the bounder gave up on (the reset path is exempt from both — the
    // main loop is unbounded by design).
    let mut seen_sei: BTreeSet<u16> = BTreeSet::new();
    let mut seen_loop: BTreeSet<u16> = BTreeSet::new();
    for &f in &isr_reachable {
        let func = &graph.functions[f];
        let summary = &summaries[&func.entry];
        for &addr in &summary.sei_sites {
            if seen_sei.insert(addr) {
                diags.push(Diagnostic {
                    class: DiagClass::IsrReenablesIrq,
                    offset: Some(u32::from(addr) * 2),
                    loc: Some(loc_for(addr)),
                    insn: Some("sei".to_string()),
                    message: "`sei` in interrupt context re-enables nesting".to_string(),
                    note: Some(
                        "the whole-firmware stack bound assumes one interrupt frame; \
                         nested interrupts void it"
                            .to_string(),
                    ),
                });
            }
        }
        for &addr in &summary.unbounded_loops {
            if seen_loop.insert(addr) {
                diags.push(Diagnostic {
                    class: DiagClass::UnboundedLoop,
                    offset: Some(u32::from(addr) * 2),
                    loc: Some(loc_for(addr)),
                    insn: None,
                    message: "loop reachable from an interrupt has no provable bound".to_string(),
                    note: Some(
                        "only immediate-counted loops (`ldi rN, K` ... `dec rN; brne`) \
                         are bounded; this one's trip count is data-dependent"
                            .to_string(),
                    ),
                });
            }
        }
    }

    // Sleep-while-interrupts-disabled: concrete I-flag propagation
    // from every hardware entry (reset and interrupt dispatch both
    // start with I clear).
    let mut seen_sleep: BTreeSet<u16> = BTreeSet::new();
    let mut visited_eval: BTreeSet<(u16, u8)> = BTreeSet::new();
    let i_key = |i: IVal| match i {
        IVal::Set => 0u8,
        IVal::Clear => 1,
        _ => 2,
    };
    let mut eval_stack: Vec<(u16, IVal)> = slots
        .iter()
        .filter(|s| s.installed)
        .map(|s| (s.slot_addr, IVal::Clear))
        .collect();
    while let Some((entry, in_i)) = eval_stack.pop() {
        if !visited_eval.insert((entry, i_key(in_i))) {
            continue;
        }
        let Some(summary) = summaries.get(&entry) else {
            continue;
        };
        for &(addr, sym) in &summary.sleep_sites {
            if sym.resolve(in_i) == IVal::Clear && seen_sleep.insert(addr) {
                diags.push(Diagnostic {
                    class: DiagClass::SleepWhileIrqOff,
                    offset: Some(u32::from(addr) * 2),
                    loc: Some(loc_for(addr)),
                    insn: Some("sleep".to_string()),
                    message: "`sleep` with interrupts provably disabled".to_string(),
                    note: Some(
                        "this core only samples interrupts while I is set: nothing can \
                         ever wake the CPU from this sleep"
                            .to_string(),
                    ),
                });
            }
        }
        for (_, targets, sym) in &summary.call_sites {
            let callee_i = sym.resolve(in_i);
            for t in targets {
                eval_stack.push((*t, callee_i));
            }
        }
    }

    // Whole-firmware stack bound.
    let main_depth = slots
        .iter()
        .find(|s| s.vector == 0 && s.installed)
        .and_then(|s| summaries.get(&s.slot_addr))
        .map(|s| s.stack_known.then_some(s.max_stack))
        .unwrap_or(Some(0));
    let isr_depth = slots
        .iter()
        .filter(|s| s.vector != 0 && s.installed)
        .filter_map(|s| summaries.get(&s.slot_addr))
        .map(|summary| summary.stack_known.then_some(2 + summary.max_stack))
        .try_fold(0u32, |acc, d| d.map(|d| acc.max(d)));
    let stack_bound = match (main_depth, isr_depth) {
        (Some(m), Some(i)) => Some(m + i),
        _ => None,
    };
    let capacity = config.stack_capacity();
    if let Some(bound) = stack_bound {
        if bound > capacity {
            diags.push(Diagnostic {
                class: DiagClass::StackOverflow,
                offset: None,
                loc: None,
                insn: None,
                message: format!(
                    "worst-case stack {bound} bytes exceeds the {capacity}-byte region \
                     0x{:04X}..=0x{:04X}",
                    config.stack_low, config.stack_top
                ),
                note: Some(
                    "bound = deepest main-context path + one interrupt frame + the \
                     deepest ISR"
                        .to_string(),
                ),
            });
        }
    }

    // Deterministic ordering, structural duplicates removed (two
    // functions can share a diagnosed block).
    diags.sort_by(|a, b| {
        (a.offset.unwrap_or(u32::MAX), a.class.code(), &a.message).cmp(&(
            b.offset.unwrap_or(u32::MAX),
            b.class.code(),
            &b.message,
        ))
    });
    diags.dedup_by(|a, b| a.class == b.class && a.offset == b.offset && a.message == b.message);

    FirmwareReport {
        name: config.name.clone(),
        functions: graph.functions.len(),
        blocks: graph.functions.iter().map(|f| f.blocks.len()).sum(),
        insns: graph
            .functions
            .iter()
            .flat_map(|f| f.blocks.iter())
            .map(|b| b.insns.len())
            .sum(),
        image_words,
        entries: entry_reports,
        stack_bound,
        stack_capacity: capacity,
        diags,
    }
}

fn push_raw(diags: &mut Vec<Diagnostic>, raw: &RawDiag, loc_for: &dyn Fn(u16) -> String) {
    diags.push(Diagnostic {
        class: raw.class,
        offset: Some(u32::from(raw.addr) * 2),
        loc: Some(loc_for(raw.addr)),
        insn: raw.insn.clone(),
        message: raw.message.clone(),
        note: raw.note.clone(),
    });
}

/// The byte address of word address `word`, spelled `0xADDR`: the
/// location of code no symbol names.
fn byte_addr(word: u16) -> String {
    format!("0x{:04X}", u32::from(word) * 2)
}

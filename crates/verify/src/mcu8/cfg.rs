//! CFG recovery from the predecoded instruction table.
//!
//! Functions are discovered from a worklist of entry points (vector
//! slots plus declared indirect-call targets); call instructions seed
//! new functions rather than edges, so each function gets its own
//! basic-block graph and the call structure forms a separate call
//! graph. Indirect control flow is either resolved against the
//! declared target list (`icall`) or rejected with a precise
//! diagnostic (`ijmp`, undeclared `icall`).

use std::collections::{BTreeMap, BTreeSet};
use ulp_mcu8::{DecodedInsn, Insn, Predecoded};

use crate::diag::DiagClass;

/// Outgoing edge of a basic block. `extra` is the cycle surcharge the
/// edge itself costs (branch taken +1; skip edges pay for the skipped
/// instruction's words).
#[derive(Debug, Clone, Copy)]
pub(super) struct Edge {
    pub to: usize,
    pub extra: u8,
}

/// How a block's instruction run ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Term {
    /// Falls into (or jumps to) successor blocks.
    Flow,
    /// `ret` — function exit.
    Ret,
    /// `reti` — interrupt exit.
    Reti,
    /// `break` or an invalid encoding — the CPU halts.
    Halt,
    /// `ijmp` or an unresolvable path — analysis cannot continue.
    Cut,
}

/// A basic block: a maximal single-entry straight-line instruction run.
#[derive(Debug, Clone)]
pub(super) struct Block {
    /// First word address.
    pub start: u16,
    /// The instructions, in order, with their word addresses.
    pub insns: Vec<(u16, DecodedInsn)>,
    /// Successor edges (within the same function).
    pub succs: Vec<Edge>,
    pub term: Term,
}

impl Block {
    /// One-past-the-end word address.
    pub fn end(&self) -> u16 {
        match self.insns.last() {
            Some((a, d)) => a + u16::from(d.words),
            None => self.start,
        }
    }
}

/// A call instruction inside a function.
#[derive(Debug, Clone)]
pub(super) struct CallSite {
    /// Word address of the call instruction.
    pub addr: u16,
    /// Resolved callee entries (several for a declared `icall`);
    /// empty means unresolved.
    pub targets: Vec<u16>,
}

/// One discovered function: entry address plus its block graph.
#[derive(Debug, Clone)]
pub(super) struct Function {
    pub entry: u16,
    /// Blocks sorted by start address; `block_at[entry]` is the entry
    /// block.
    pub blocks: Vec<Block>,
    pub block_at: BTreeMap<u16, usize>,
    pub calls: Vec<CallSite>,
}

/// A structural problem found during recovery, before the analyses
/// proper run.
#[derive(Debug, Clone)]
pub(super) struct RawDiag {
    pub class: DiagClass,
    /// Word address.
    pub addr: u16,
    pub insn: Option<String>,
    pub message: String,
    pub note: Option<String>,
}

/// The recovered whole-image CFG.
#[derive(Debug, Clone)]
pub(super) struct Cfg {
    pub functions: Vec<Function>,
    pub func_at: BTreeMap<u16, usize>,
    pub diags: Vec<RawDiag>,
}

impl Cfg {
    /// Callee function indices of `f`, deduplicated, in entry order.
    pub fn callees(&self, f: usize) -> Vec<usize> {
        let mut out = BTreeSet::new();
        for call in &self.functions[f].calls {
            for t in &call.targets {
                if let Some(&idx) = self.func_at.get(t) {
                    out.insert(idx);
                }
            }
        }
        out.into_iter().collect()
    }
}

/// Conditional skip instructions: the *next* instruction may be
/// skipped, costing its word count (plus fetch penalty) in cycles.
fn is_skip(insn: &Insn) -> bool {
    matches!(
        insn,
        Insn::Cpse { .. }
            | Insn::Sbrc { .. }
            | Insn::Sbrs { .. }
            | Insn::Sbic { .. }
            | Insn::Sbis { .. }
    )
}

/// Recover every function reachable from `entries`.
pub(super) fn recover(
    table: &Predecoded,
    image_words: usize,
    entries: &[u16],
    indirect_targets: &[u16],
    fetch_penalty: u8,
) -> Cfg {
    let mut cfg = Cfg {
        functions: Vec::new(),
        func_at: BTreeMap::new(),
        diags: Vec::new(),
    };
    let mut pending: BTreeSet<u16> = entries.iter().copied().collect();
    while let Some(entry) = pending.pop_first() {
        if cfg.func_at.contains_key(&entry) {
            continue;
        }
        if entry as usize >= image_words {
            cfg.diags.push(RawDiag {
                class: DiagClass::RunsOffImage,
                addr: entry,
                insn: None,
                message: format!(
                    "entry point 0x{:04X} is outside the {image_words}-word image",
                    u32::from(entry) * 2
                ),
                note: None,
            });
            continue;
        }
        let func = build_function(
            table,
            image_words,
            entry,
            indirect_targets,
            fetch_penalty,
            &mut cfg.diags,
        );
        for call in &func.calls {
            for t in &call.targets {
                pending.insert(*t);
            }
        }
        cfg.func_at.insert(entry, cfg.functions.len());
        cfg.functions.push(func);
    }
    cfg
}

/// Build one function's block graph by exploring from `entry`.
fn build_function(
    table: &Predecoded,
    image_words: usize,
    entry: u16,
    indirect_targets: &[u16],
    fetch_penalty: u8,
    diags: &mut Vec<RawDiag>,
) -> Function {
    // Phase 1: find leaders (block starts) by walking linear runs.
    let mut leaders: BTreeSet<u16> = BTreeSet::from([entry]);
    let mut explore: Vec<u16> = vec![entry];
    let mut visited_runs: BTreeSet<u16> = BTreeSet::new();
    let in_image = |a: u16| (a as usize) < image_words;
    while let Some(start) = explore.pop() {
        if !visited_runs.insert(start) {
            continue;
        }
        let mut pc = start;
        let mut steps = 0usize;
        loop {
            // A full-address-space image could let a nop sled wrap PC
            // forever; the step bound cuts that (diagnosed in phase 2).
            if !in_image(pc) || steps > image_words {
                break;
            }
            steps += 1;
            let d = table.get(pc);
            let next = pc.wrapping_add(u16::from(d.words));
            let mut branch_to = |t: u16| {
                leaders.insert(t);
                explore.push(t);
            };
            match d.insn {
                Insn::Rjmp { k } => {
                    branch_to(next.wrapping_add(k as u16));
                    break;
                }
                Insn::Jmp { addr } => {
                    branch_to(addr);
                    break;
                }
                Insn::Brbs { k, .. } | Insn::Brbc { k, .. } => {
                    branch_to(next.wrapping_add(k as u16));
                    branch_to(next);
                    break;
                }
                _ if is_skip(&d.insn) => {
                    let skipped = table.get(next);
                    branch_to(next.wrapping_add(u16::from(skipped.words)));
                    branch_to(next);
                    break;
                }
                Insn::Ret | Insn::Reti | Insn::Break | Insn::Invalid(_) | Insn::Ijmp => break,
                _ => pc = next,
            }
        }
    }

    // Phase 2: materialize blocks between leaders.
    let leaders: Vec<u16> = leaders.into_iter().filter(|a| in_image(*a)).collect();
    let leader_set: BTreeSet<u16> = leaders.iter().copied().collect();
    let mut blocks: Vec<Block> = Vec::new();
    let mut block_at: BTreeMap<u16, usize> = BTreeMap::new();
    let mut calls: Vec<CallSite> = Vec::new();
    // Successors recorded as word addresses first, resolved to block
    // ids once all blocks exist.
    let mut raw_succs: Vec<Vec<(u16, u8)>> = Vec::new();
    for &start in &leaders {
        let id = blocks.len();
        block_at.insert(start, id);
        let mut insns = Vec::new();
        let mut succs: Vec<(u16, u8)> = Vec::new();
        let mut term = Term::Flow;
        let mut pc = start;
        let mut steps = 0usize;
        loop {
            if !in_image(pc) || steps > image_words {
                let at = insns.last().map(|&(a, _)| a).unwrap_or(start);
                diags.push(RawDiag {
                    class: DiagClass::RunsOffImage,
                    addr: at,
                    insn: None,
                    message: format!(
                        "execution runs past the end of the {image_words}-word image at 0x{:04X}",
                        u32::from(pc) * 2
                    ),
                    note: Some("zero-filled memory decodes as an endless nop sled".to_string()),
                });
                term = Term::Cut;
                break;
            }
            steps += 1;
            let d = table.get(pc);
            let next = pc.wrapping_add(u16::from(d.words));
            insns.push((pc, d));
            match d.insn {
                Insn::Rjmp { k } => {
                    succs.push((next.wrapping_add(k as u16), 0));
                    break;
                }
                Insn::Jmp { addr } => {
                    succs.push((addr, 0));
                    break;
                }
                Insn::Brbs { k, .. } | Insn::Brbc { k, .. } => {
                    // Taken costs one extra cycle.
                    succs.push((next.wrapping_add(k as u16), 1));
                    succs.push((next, 0));
                    break;
                }
                _ if is_skip(&d.insn) => {
                    let skipped = table.get(next);
                    // Skipping pays for the skipped instruction's words
                    // (each costing a cycle plus the fetch penalty).
                    succs.push((
                        next.wrapping_add(u16::from(skipped.words)),
                        skipped.words * (1 + fetch_penalty),
                    ));
                    succs.push((next, 0));
                    break;
                }
                Insn::Ret => {
                    term = Term::Ret;
                    break;
                }
                Insn::Reti => {
                    term = Term::Reti;
                    break;
                }
                Insn::Break => {
                    term = Term::Halt;
                    break;
                }
                Insn::Invalid(w) => {
                    diags.push(RawDiag {
                        class: DiagClass::InvalidOpcode,
                        addr: pc,
                        insn: Some(d.insn.to_string()),
                        message: format!("reachable word 0x{w:04X} decodes as no instruction"),
                        note: Some("executing it halts the CPU".to_string()),
                    });
                    term = Term::Halt;
                    break;
                }
                Insn::Ijmp => {
                    diags.push(RawDiag {
                        class: DiagClass::UnresolvedIndirect,
                        addr: pc,
                        insn: Some(d.insn.to_string()),
                        message: "indirect jump target cannot be recovered statically".to_string(),
                        note: Some(
                            "the analyzer follows `icall` only through declared targets; \
                             `ijmp` is always rejected"
                                .to_string(),
                        ),
                    });
                    term = Term::Cut;
                    break;
                }
                Insn::Rcall { k } => {
                    calls.push(CallSite {
                        addr: pc,
                        targets: vec![next.wrapping_add(k as u16)],
                    });
                }
                Insn::Call { addr } => {
                    calls.push(CallSite {
                        addr: pc,
                        targets: vec![addr],
                    });
                }
                Insn::Icall => {
                    if indirect_targets.is_empty() {
                        diags.push(RawDiag {
                            class: DiagClass::UnresolvedIndirect,
                            addr: pc,
                            insn: Some(d.insn.to_string()),
                            message: "indirect call with no declared targets".to_string(),
                            note: Some(
                                "declare the possible targets (task entry points) in the \
                                 firmware config so the analyzer can bound them"
                                    .to_string(),
                            ),
                        });
                    }
                    calls.push(CallSite {
                        addr: pc,
                        targets: indirect_targets.to_vec(),
                    });
                }
                _ => {}
            }
            if term != Term::Flow {
                break;
            }
            // Fallthrough into the next leader ends the block.
            if leader_set.contains(&next) {
                succs.push((next, 0));
                break;
            }
            pc = next;
        }
        blocks.push(Block {
            start,
            insns,
            succs: Vec::new(),
            term,
        });
        raw_succs.push(succs);
    }

    // Resolve successor addresses to block ids; targets outside the
    // image were already diagnosed in phase 1.
    for (id, succ) in raw_succs.into_iter().enumerate() {
        for (addr, extra) in succ {
            if let Some(&to) = block_at.get(&addr) {
                blocks[id].succs.push(Edge { to, extra });
            } else {
                diags.push(RawDiag {
                    class: DiagClass::RunsOffImage,
                    addr: blocks[id].insns.last().map(|(a, _)| *a).unwrap_or(addr),
                    insn: blocks[id].insns.last().map(|(_, d)| d.insn.to_string()),
                    message: format!(
                        "control transfers to 0x{:04X}, outside the {image_words}-word image",
                        u32::from(addr) * 2
                    ),
                    note: Some("zero-filled memory decodes as an endless nop sled".to_string()),
                });
                blocks[id].term = Term::Cut;
            }
        }
    }

    Function {
        entry,
        blocks,
        block_at,
        calls,
    }
}

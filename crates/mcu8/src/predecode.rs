//! Shared predecoded instruction table.
//!
//! Decoding is a pure function of the program words, so a bus whose
//! `fetch` is side-effect free (Harvard-style flash, as on the Mica2
//! board) can decode the whole image **once** into a dense table — one
//! [`DecodedInsn`] per 16-bit program word — and answer
//! [`Bus::decode`](crate::Bus::decode) with a table lookup.
//!
//! The same table is the substrate for *static* consumers: the
//! `ulp-verify` firmware analyzer walks it to recover the control-flow
//! graph. Keeping one decode output shared between the simulator and the
//! analyzer guarantees they can never disagree about what a word means.
//!
//! A table is *not* sound for buses whose fetch has side effects (the
//! unified bus of `ulp-core` charges energy and can fault per fetch);
//! those keep the default fetch-and-decode `Bus::decode`.

use crate::insn::{decode, DecodedInsn};

/// A dense decode of an entire program image: entry `i` is the
/// instruction whose first word sits at word address `i`.
///
/// Two-word instructions still get an entry at their *second* word (the
/// decode of the operand word interpreted as an opcode); execution never
/// lands there in well-formed code, and the interpreter's skip/branch
/// logic advances past operand words exactly as the fetch path does, so
/// the dense layout is safe and keeps lookup O(1) with no index
/// translation.
#[derive(Debug, Clone)]
pub struct Predecoded {
    table: Vec<DecodedInsn>,
}

impl Predecoded {
    /// Decode every word of `words` once. Index `i` is decoded with
    /// `words[i + 1]` (or `0` past the end) as its potential second
    /// word, matching what the fetch path would see from zero-filled
    /// memory.
    pub fn from_words(words: &[u16]) -> Predecoded {
        let table = (0..words.len())
            .map(|i| decode(words[i], words.get(i + 1).copied().unwrap_or(0)))
            .collect();
        Predecoded { table }
    }

    /// The decoded instruction at word address `pc`. Addresses past the
    /// table decode as zero-filled memory does (`decode(0, 0)` = `nop`),
    /// mirroring a fetch from an all-zero flash region.
    #[inline]
    pub fn get(&self, pc: u16) -> DecodedInsn {
        self.table
            .get(pc as usize)
            .copied()
            .unwrap_or_else(|| decode(0, 0))
    }

    /// Number of table entries (== number of program words decoded).
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Iterate over `(word_address, decoded)` pairs, skipping the
    /// operand-word entries of two-word instructions — the sequence a
    /// linear disassembly would produce.
    pub fn iter_insns(&self) -> impl Iterator<Item = (u16, DecodedInsn)> + '_ {
        let mut i = 0usize;
        std::iter::from_fn(move || {
            if i >= self.table.len() {
                return None;
            }
            let addr = i as u16;
            let d = self.table[i];
            i += d.words as usize;
            Some((addr, d))
        })
    }
}

/// `Predecoded::get` must agree with `decode` everywhere — the table is
/// only a cache, never a reinterpretation.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::insn::Insn;

    #[test]
    fn table_matches_per_step_decode() {
        // A word soup covering 1- and 2-word instructions and invalids.
        let words = [
            0xE005, // ldi r16, 5
            0x9300, 0x0200, // sts 0x0200, r16
            0x940E, 0x0010, // call 0x0010 (words)
            0x0300, // invalid
            0x950A, // dec r16
            0xF7F1, // brne
            0x9598, // break
        ];
        let p = Predecoded::from_words(&words);
        assert_eq!(p.len(), words.len());
        for i in 0..words.len() {
            let w1 = words.get(i + 1).copied().unwrap_or(0);
            assert_eq!(p.get(i as u16), decode(words[i], w1), "entry {i}");
        }
    }

    #[test]
    fn out_of_range_reads_as_zero_memory() {
        let p = Predecoded::from_words(&[0xE005]);
        assert_eq!(p.get(100), decode(0, 0));
        assert_eq!(p.get(100).insn, Insn::Nop);
    }

    #[test]
    fn iter_insns_skips_operand_words() {
        let words = [0x9300, 0x0200, 0xE005]; // sts (2 words), ldi
        let p = Predecoded::from_words(&words);
        let addrs: Vec<u16> = p.iter_insns().map(|(a, _)| a).collect();
        assert_eq!(addrs, vec![0, 2]);
    }
}

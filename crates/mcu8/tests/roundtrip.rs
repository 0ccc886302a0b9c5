//! Decode→disassemble→reparse round-trip properties over the 16-bit
//! opcode space.
//!
//! Three layers of trust in the disassembler, from weakest to
//! strongest:
//!
//! 1. **Totality** — `decode` accepts *every* 16-bit word pair without
//!    panicking (unknown encodings decode to `Insn::Invalid`), and the
//!    canonical `Display` text renders for all of them. Checked
//!    exhaustively: all 65 536 first words, against several second
//!    words.
//! 2. **Structural sanity** — word counts are 1 or 2, cycle counts are
//!    nonzero, and `Invalid` always spans exactly one word (so a
//!    disassembly listing can always resynchronize on the next word).
//! 3. **Round-trip** — for position-independent instructions the
//!    canonical text reassembles, and re-decoding the reassembled words
//!    yields the *same* `Insn` (the encoding may normalize don't-care
//!    bits; the semantics must not move). Relative branches render as
//!    `.+k`/`.-k` displacements that need a location to reassemble, and
//!    `Invalid` renders as `.dw` data — both are exempt, as documented
//!    on `Display`.

use ulp_mcu8::{assemble, decode, Insn};
use ulp_testkit::Rng;

/// Words sampled as the second word of a potential two-word encoding.
const SECOND_WORDS: [u16; 4] = [0x0000, 0xFFFF, 0x1234, 0x8001];

fn words_of(src: &str) -> Option<Vec<u16>> {
    let img = assemble(src).ok()?;
    Some(
        img.segments()
            .first()?
            .data
            .chunks(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect(),
    )
}

/// Relative branches are rendered as location-dependent displacements;
/// `Invalid` is rendered as raw data. Everything else must reassemble
/// from its canonical text alone.
fn position_independent(insn: &Insn) -> bool {
    !matches!(
        insn,
        Insn::Rjmp { .. }
            | Insn::Rcall { .. }
            | Insn::Brbs { .. }
            | Insn::Brbc { .. }
            | Insn::Invalid(_)
    )
}

#[test]
fn decode_is_total_over_the_exhaustive_opcode_space() {
    let mut invalid = 0u64;
    for w0 in 0..=u16::MAX {
        for w1 in SECOND_WORDS {
            let d = decode(w0, w1);
            // Structural sanity (layer 2).
            assert!(
                d.words == 1 || d.words == 2,
                "0x{w0:04X}: {} words",
                d.words
            );
            assert!(d.cycles >= 1, "0x{w0:04X}: zero-cycle instruction");
            if let Insn::Invalid(raw) = d.insn {
                assert_eq!(raw, w0, "Invalid must carry the raw word");
                assert_eq!(d.words, 1, "Invalid must resynchronize next word");
            }
            // Rendering is total too.
            let text = d.insn.to_string();
            assert!(!text.is_empty());
        }
        if matches!(decode(w0, 0).insn, Insn::Invalid(_)) {
            invalid += 1;
        }
    }
    // The AVR map is dense: most of the space decodes. This pins the
    // decoder against regressions that suddenly reject valid ranges.
    assert!(
        invalid < 1u64 << 15,
        "more than half the opcode space decodes as Invalid ({invalid})"
    );
}

#[test]
fn second_word_never_changes_the_first_words_identity() {
    // The second word is an operand extension (lds/sts/jmp/call); which
    // *instruction* w0 encodes must not depend on it.
    let mut rng = Rng::from_seed(0x5EC0_17D5);
    for _ in 0..20_000 {
        let w0 = rng.next_u32() as u16;
        let a = decode(w0, 0x0000);
        let b = decode(w0, 0xFFFF);
        assert_eq!(
            std::mem::discriminant(&a.insn),
            std::mem::discriminant(&b.insn),
            "0x{w0:04X}: instruction kind changed with the second word"
        );
        assert_eq!(a.words, b.words, "0x{w0:04X}: length changed");
        assert_eq!(a.cycles, b.cycles, "0x{w0:04X}: cycles changed");
    }
}

#[test]
fn random_words_roundtrip_through_disasm_and_reassembly() {
    let mut rng = Rng::from_seed(0x00D1_5A53);
    let mut rounds = 0u64;
    for _ in 0..20_000 {
        let w0 = rng.next_u32() as u16;
        let w1 = rng.next_u32() as u16;
        let d = decode(w0, w1);
        if !position_independent(&d.insn) {
            continue;
        }
        let text = d.insn.to_string();
        let words = words_of(&text)
            .unwrap_or_else(|| panic!("`{text}` (from 0x{w0:04X} 0x{w1:04X}) must reassemble"));
        assert_eq!(
            words.len(),
            d.words as usize,
            "`{text}`: reassembled to a different length"
        );
        let r1 = words.get(1).copied().unwrap_or(0);
        let redecoded = decode(words[0], r1);
        assert_eq!(
            redecoded.insn, d.insn,
            "`{text}`: reassembled words 0x{:04X} decode differently",
            words[0]
        );
        rounds += 1;
    }
    assert!(
        rounds > 5_000,
        "only {rounds} of 20000 samples exercised the round-trip"
    );
}

#[test]
fn relative_branches_roundtrip_via_listing_labels() {
    // The `.+k` rendering is location-dependent by design; the property
    // that *can* hold is semantic: re-assembling an equivalent labeled
    // source reproduces the displacement.
    let mut rng = Rng::from_seed(0xB4A7C4);
    for _ in 0..2_000 {
        let w0 = rng.next_u32() as u16;
        let d = decode(w0, 0);
        let (mnemonic, k) = match d.insn {
            Insn::Rjmp { k } => ("rjmp".to_string(), k as i32),
            Insn::Brbs { s, k } => (format!("brbs {s},"), k as i32),
            Insn::Brbc { s, k } => (format!("brbc {s},"), k as i32),
            _ => continue,
        };
        // Only forward/backward targets that fit a tiny program.
        if !(1..=16).contains(&k) {
            continue;
        }
        let mut src = format!("{mnemonic} target\n");
        for _ in 0..k {
            src.push_str("nop\n");
        }
        src.push_str("target: nop\n");
        let words =
            words_of(&src).unwrap_or_else(|| panic!("labeled `{mnemonic}` source must assemble"));
        assert_eq!(
            decode(words[0], 0).insn,
            d.insn,
            "labeled reassembly changed the branch"
        );
    }
}

#[test]
fn disassemble_covers_every_word_and_never_panics_on_noise() {
    // Pure noise programs disassemble without panicking and account for
    // every input word (Invalid resynchronizes on the next word).
    let mut rng = Rng::from_seed(0x0D15_A53E);
    for _ in 0..200 {
        let n = rng.gen_range(1usize..=64);
        let words: Vec<u16> = (0..n).map(|_| rng.next_u32() as u16).collect();
        let lines = ulp_mcu8::disassemble(&words, 0);
        let covered: usize = lines.iter().map(|l| l.words.len()).sum();
        // A trailing two-word opcode with a missing operand word is the
        // only legal shortfall.
        assert!(
            covered == n || covered + 2 > n,
            "disassembly lost words: {covered} of {n}"
        );
        for line in &lines {
            let _ = line.to_string(); // listing rendering is total
        }
    }
}

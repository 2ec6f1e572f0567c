//! Property tests for the trace-file format: arbitrary access streams must
//! round-trip through the text encoding, and mangled files must fail with
//! typed errors, never panics.

mod mangle;

use banshee_common::Addr;
use banshee_workloads::trace_file::{TraceData, TraceStream, TEXT_HEADER};
use banshee_workloads::MemoryAccess;
use mangle::{flip_bits, swap_numbers, truncate};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

type RawAccess = (u64, bool, u32);
type RawStream = Vec<RawAccess>;

fn build(streams: Vec<RawStream>) -> TraceData {
    TraceData {
        streams: streams
            .into_iter()
            .enumerate()
            .map(|(i, accesses)| TraceStream {
                name: format!("s{i}"),
                footprint_bytes: 1 << 30,
                accesses: accesses
                    .into_iter()
                    .map(|(vaddr, write, inst_gap)| MemoryAccess {
                        vaddr: Addr::new(vaddr),
                        write,
                        inst_gap,
                    })
                    .collect(),
            })
            .collect(),
    }
}

/// Decode a mangled copy of a trace's text. It must not panic, and a trace
/// that does decode must survive a re-encode round trip, so the decoder
/// accepts nothing the encoder cannot write.
fn check_mangled(input: &str) -> Result<Option<TraceData>, TestCaseError> {
    let Ok(decoded) = TraceData::from_text(input) else {
        return Ok(None);
    };
    let text = decoded
        .to_text()
        .map_err(|e| TestCaseError::fail(format!("decoded trace does not re-encode: {e}")))?;
    let again = TraceData::from_text(&text).ok();
    prop_assert_eq!(
        again.as_ref(),
        Some(&decoded),
        "re-encoded trace decodes differently"
    );
    Ok(Some(decoded))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn text_round_trip_preserves_every_access(
        streams in vec(vec((0u64..(1 << 48), any::<bool>(), 0u32..100_000), 0..100), 1..4)
    ) {
        let data = build(streams);
        let text = data.to_text().expect("whitespace-free names encode");
        let back = TraceData::from_text(&text).expect("canonical text decodes");
        prop_assert_eq!(&back, &data);
        prop_assert_eq!(back.to_text().expect("round-trip re-encodes"), text);
    }

    #[test]
    fn truncated_text_never_panics_or_decodes_to_the_trace(
        streams in vec(vec((0u64..(1 << 48), any::<bool>(), 0u32..100_000), 1..50), 1..3),
        a in any::<u64>(),
    ) {
        let data = build(streams);
        let text = data.to_text().expect("whitespace-free names encode");
        let cut = truncate(&text, a);
        let decoded = check_mangled(&cut)?;
        // Only dropping the final newline leaves the content intact.
        if cut.len() + 1 < text.len() {
            prop_assert!(
                decoded.as_ref() != Some(&data),
                "a {}-byte prefix of {} bytes decoded to the whole trace",
                cut.len(),
                text.len()
            );
        }
    }

    #[test]
    fn bit_flipped_text_never_panics(
        streams in vec(vec((0u64..(1 << 48), any::<bool>(), 0u32..100_000), 1..50), 1..3),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let text = build(streams).to_text().expect("whitespace-free names encode");
        check_mangled(&flip_bits(&text, a, b))?;
    }

    #[test]
    fn number_swapped_text_never_panics(
        streams in vec(vec((0u64..(1 << 48), any::<bool>(), 0u32..100_000), 1..50), 1..3),
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let text = build(streams).to_text().expect("whitespace-free names encode");
        check_mangled(&swap_numbers(&text, a, b))?;
    }

    #[test]
    fn read_file_never_panics_on_flipped_bytes(
        accesses in vec((0u64..(1 << 48), any::<bool>(), 0u32..100_000), 1..50),
        flips in vec((any::<u64>(), 0u8..8), 1..5),
    ) {
        // Raw byte flips, unlike `flip_bits`, can leave invalid UTF-8.
        let mut bytes = build(vec![accesses]).to_text().expect("encodes").into_bytes();
        for (pos, bit) in flips {
            let len = bytes.len() as u64;
            bytes[(pos % len) as usize] ^= 1 << bit;
        }
        let dir = std::env::temp_dir().join(format!("banshee_trace_flip_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join("flipped.trace");
        std::fs::write(&path, &bytes).expect("write flipped trace");
        let _ = TraceData::read_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn text_starts_with_the_advertised_header() {
    let data = build(vec![vec![(64, false, 1)]]);
    let text = data.to_text().expect("encodes");
    assert_eq!(text.lines().next(), Some(TEXT_HEADER));
}

//! An on-disk trace format, so externally captured memory traces can be
//! replayed through the simulator and any built-in workload can be
//! exported and replayed bit-identically.
//!
//! A file holds one or more **streams** (one per core), each a finite
//! sequence of [`MemoryAccess`]es plus the stream's name and footprint. The
//! encoding is a human-writable text form (`.trace`): a `banshee-trace v1`
//! first line, then per stream a `stream <name> footprint=<bytes>
//! accesses=<count>` header followed by one access per line
//! (`r <hex-vaddr> <gap>` / `w <hex-vaddr> <gap>`). Blank lines and `#`
//! comments are allowed, and every parse error names its line — never a
//! panic.
//!
//! [`TraceData`] is the in-memory form used for encoding and for
//! [`TraceReplay`], the [`TraceGenerator`] that loops a finite stream so the
//! simulator can run it for any instruction budget.

use crate::trace::{MemoryAccess, TraceFactory, TraceGenerator};
use banshee_common::hash::fnv1a64;
use banshee_common::Addr;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// First line of a trace file.
pub const TEXT_HEADER: &str = "banshee-trace v1";

/// Everything that can go wrong reading a trace file.
#[derive(Debug)]
pub enum TraceFileError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not UTF-8 text whose first line is [`TEXT_HEADER`].
    BadMagic,
    /// Structurally invalid content (bad counts or syntax); the message
    /// says what and where.
    Corrupt(String),
}

impl fmt::Display for TraceFileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceFileError::Io(e) => write!(f, "trace file I/O error: {e}"),
            TraceFileError::BadMagic => write!(
                f,
                "not a banshee trace: expected UTF-8 text whose first line is `{TEXT_HEADER}`"
            ),
            TraceFileError::Corrupt(msg) => write!(f, "corrupt trace file: {msg}"),
        }
    }
}

impl std::error::Error for TraceFileError {}

impl From<io::Error> for TraceFileError {
    fn from(e: io::Error) -> Self {
        TraceFileError::Io(e)
    }
}

/// One core's finite access sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStream {
    /// Stream name (usually the workload name the stream was captured from).
    pub name: String,
    /// Virtual footprint the accesses cover, in bytes.
    pub footprint_bytes: u64,
    /// The accesses, in issue order.
    pub accesses: Vec<MemoryAccess>,
}

/// An in-memory trace file: one stream per core.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceData {
    /// The per-core streams.
    pub streams: Vec<TraceStream>,
}

impl TraceData {
    /// Capture a trace from any workload: `accesses_per_core` accesses from
    /// each of the factory's per-core generators. Replaying the result is
    /// bit-identical to the original generators for that window (and loops
    /// past it).
    pub fn capture(factory: &dyn TraceFactory, cores: usize, accesses_per_core: u64) -> TraceData {
        let streams = factory
            .build_traces(cores)
            .into_iter()
            .map(|mut gen| {
                let accesses = (0..accesses_per_core).map(|_| gen.next_access()).collect();
                TraceStream {
                    name: gen.name().to_string(),
                    footprint_bytes: gen.footprint_bytes(),
                    accesses,
                }
            })
            .collect();
        TraceData { streams }
    }

    /// Encode as the text form. Errors if a stream name cannot be
    /// represented (empty or containing whitespace — the form is
    /// whitespace-delimited), rather than silently rewriting the name and
    /// changing the trace's content identity.
    pub fn to_text(&self) -> Result<String, TraceFileError> {
        let mut out = String::new();
        out.push_str(TEXT_HEADER);
        out.push('\n');
        for s in &self.streams {
            if s.name.is_empty() || s.name.contains(char::is_whitespace) {
                return Err(TraceFileError::Corrupt(format!(
                    "stream name {:?} cannot be written to a trace file (names are \
                     whitespace-delimited); rename the stream",
                    s.name
                )));
            }
            out.push_str(&format!(
                "stream {} footprint={} accesses={}\n",
                s.name,
                s.footprint_bytes,
                s.accesses.len()
            ));
            for a in &s.accesses {
                out.push_str(&format!(
                    "{} 0x{:x} {}\n",
                    if a.write { 'w' } else { 'r' },
                    a.vaddr.raw(),
                    a.inst_gap
                ));
            }
        }
        Ok(out)
    }

    /// Decode the text form, with line-numbered errors. Blank lines and
    /// `#` comments are allowed anywhere after the header line.
    pub fn from_text(text: &str) -> Result<TraceData, TraceFileError> {
        let corrupt =
            |line: usize, msg: String| TraceFileError::Corrupt(format!("line {}: {msg}", line + 1));
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == TEXT_HEADER => {}
            _ => return Err(TraceFileError::BadMagic),
        }
        let mut data = TraceData::default();
        let mut expected: Option<(usize, usize)> = None; // (header line, count)
        for (no, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(rest) = line.strip_prefix("stream ") {
                if let Some((header_line, count)) = expected.take() {
                    let got = data.streams.last().map_or(0, |s| s.accesses.len());
                    if got != count {
                        return Err(corrupt(
                            header_line,
                            format!("stream declares accesses={count} but {got} followed"),
                        ));
                    }
                }
                let mut name = None;
                let mut footprint = None;
                let mut accesses = None;
                for part in rest.split_whitespace() {
                    if let Some(v) = part.strip_prefix("footprint=") {
                        footprint = Some(v.parse::<u64>().map_err(|_| {
                            corrupt(no, format!("invalid footprint `{v}` (want bytes)"))
                        })?);
                    } else if let Some(v) = part.strip_prefix("accesses=") {
                        accesses = Some(
                            v.parse::<usize>()
                                .map_err(|_| corrupt(no, format!("invalid access count `{v}`")))?,
                        );
                    } else if name.is_none() {
                        name = Some(part.to_string());
                    } else {
                        return Err(corrupt(no, format!("unexpected token `{part}`")));
                    }
                }
                let name = name.ok_or_else(|| corrupt(no, "stream needs a name".into()))?;
                let footprint = footprint
                    .ok_or_else(|| corrupt(no, "stream needs footprint=<bytes>".into()))?;
                let count =
                    accesses.ok_or_else(|| corrupt(no, "stream needs accesses=<count>".into()))?;
                expected = Some((no, count));
                data.streams.push(TraceStream {
                    name,
                    footprint_bytes: footprint,
                    accesses: Vec::with_capacity(count.min(1 << 20)),
                });
                continue;
            }
            let stream = data
                .streams
                .last_mut()
                .ok_or_else(|| corrupt(no, "access before the first `stream` header".into()))?;
            let mut parts = line.split_whitespace();
            let op = parts.next().unwrap_or_default();
            let write = match op {
                "r" | "R" => false,
                "w" | "W" => true,
                other => return Err(corrupt(no, format!("expected `r` or `w`, got `{other}`"))),
            };
            let addr_text = parts
                .next()
                .ok_or_else(|| corrupt(no, "missing address".into()))?;
            let vaddr = addr_text
                .strip_prefix("0x")
                .or_else(|| addr_text.strip_prefix("0X"))
                .and_then(|h| u64::from_str_radix(h, 16).ok())
                .ok_or_else(|| {
                    corrupt(no, format!("invalid address `{addr_text}` (want 0x<hex>)"))
                })?;
            let gap_text = parts
                .next()
                .ok_or_else(|| corrupt(no, "missing instruction gap".into()))?;
            let inst_gap = gap_text
                .parse::<u32>()
                .map_err(|_| corrupt(no, format!("invalid instruction gap `{gap_text}`")))?;
            if let Some(extra) = parts.next() {
                return Err(corrupt(no, format!("unexpected trailing token `{extra}`")));
            }
            stream.accesses.push(MemoryAccess {
                vaddr: Addr::new(vaddr),
                write,
                inst_gap,
            });
        }
        if let Some((header_line, count)) = expected {
            let got = data.streams.last().map_or(0, |s| s.accesses.len());
            if got != count {
                return Err(corrupt(
                    header_line,
                    format!("stream declares accesses={count} but {got} followed"),
                ));
            }
        }
        if data.streams.is_empty() {
            return Err(TraceFileError::Corrupt(
                "text trace has no `stream` sections".into(),
            ));
        }
        Ok(data)
    }

    /// Read and decode a trace file.
    pub fn read_file(path: impl AsRef<Path>) -> Result<TraceData, TraceFileError> {
        let bytes = std::fs::read(path.as_ref())?;
        let text = std::str::from_utf8(&bytes).map_err(|_| TraceFileError::BadMagic)?;
        TraceData::from_text(text)
    }

    /// Write the text form to `path` (same name restriction as
    /// [`TraceData::to_text`]).
    pub fn write_text_file(&self, path: impl AsRef<Path>) -> Result<(), TraceFileError> {
        std::fs::write(path, self.to_text()?)?;
        Ok(())
    }

    /// FNV-1a hash of a fixed byte encoding of the streams — the identity
    /// of the trace's *content*, used to key cached results for replay
    /// cells.
    pub fn content_hash(&self) -> u64 {
        fnv1a64(&self.content_bytes())
    }

    /// The bytes [`TraceData::content_hash`] hashes: a `BSHTRACE` magic,
    /// a `u32` version of 1 and a `u32` stream count, then per stream a
    /// `u32`-length-framed name, the footprint (`u64`), the access count
    /// (`u64`) and 13-byte records (vaddr `u64`, gap `u32`, write flag
    /// `u8`), all little-endian. Store keys of trace cells depend on these
    /// bytes, so they must never change.
    fn content_bytes(&self) -> Vec<u8> {
        let records: usize = self.streams.iter().map(|s| s.accesses.len()).sum();
        let mut out = Vec::with_capacity(16 + records * 13);
        out.extend_from_slice(b"BSHTRACE");
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&(self.streams.len() as u32).to_le_bytes());
        for s in &self.streams {
            out.extend_from_slice(&(s.name.len() as u32).to_le_bytes());
            out.extend_from_slice(s.name.as_bytes());
            out.extend_from_slice(&s.footprint_bytes.to_le_bytes());
            out.extend_from_slice(&(s.accesses.len() as u64).to_le_bytes());
            for a in &s.accesses {
                out.extend_from_slice(&a.vaddr.raw().to_le_bytes());
                out.extend_from_slice(&a.inst_gap.to_le_bytes());
                out.push(a.write as u8);
            }
        }
        out
    }

    /// Total accesses across all streams.
    pub fn total_accesses(&self) -> usize {
        self.streams.iter().map(|s| s.accesses.len()).sum()
    }
}

/// Replays one captured stream, looping when it runs out (generators are
/// infinite by contract; the simulator decides when to stop). Holds the
/// shared [`TraceData`] and a stream index, so any number of generators
/// across any number of cells replay one in-memory copy of the trace.
pub struct TraceReplay {
    data: Arc<TraceData>,
    stream_index: usize,
    pos: usize,
}

impl TraceReplay {
    /// Replay stream `stream_index` of `data` from its start.
    pub fn new(data: Arc<TraceData>, stream_index: usize) -> Self {
        assert!(
            !data.streams[stream_index].accesses.is_empty(),
            "cannot replay an empty trace stream"
        );
        TraceReplay {
            data,
            stream_index,
            pos: 0,
        }
    }

    fn stream(&self) -> &TraceStream {
        &self.data.streams[self.stream_index]
    }
}

impl TraceGenerator for TraceReplay {
    fn next_access(&mut self) -> MemoryAccess {
        let accesses = &self.data.streams[self.stream_index].accesses;
        let access = accesses[self.pos];
        self.pos += 1;
        if self.pos == accesses.len() {
            self.pos = 0;
        }
        access
    }

    fn name(&self) -> &str {
        &self.stream().name
    }

    fn footprint_bytes(&self) -> u64 {
        self.stream().footprint_bytes
    }
}

impl TraceData {
    /// Build one replay generator per core, assigning streams round-robin
    /// (a 16-stream file on 16 cores replays 1:1; fewer streams are
    /// shared, each core replaying from the start). The `Arc` receiver
    /// means the trace is never copied, however many cells replay it.
    pub fn replay_generators(self: &Arc<Self>, cores: usize) -> Vec<Box<dyn TraceGenerator>> {
        assert!(
            !self.streams.is_empty(),
            "cannot replay a trace with no streams"
        );
        (0..cores)
            .map(|core| {
                Box::new(TraceReplay::new(
                    Arc::clone(self),
                    core % self.streams.len(),
                )) as Box<dyn TraceGenerator>
            })
            .collect()
    }

    /// The largest single-stream footprint — the trace's effective working
    /// span for reporting and store keying (replay ignores the sweep's
    /// footprint factor; the data is whatever was captured).
    pub fn max_stream_footprint_bytes(&self) -> u64 {
        self.streams
            .iter()
            .map(|s| s.footprint_bytes)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use crate::WorkloadKind;
    use banshee_common::Addr;

    fn sample() -> TraceData {
        TraceData {
            streams: vec![
                TraceStream {
                    name: "alpha".into(),
                    footprint_bytes: 1 << 20,
                    accesses: vec![
                        MemoryAccess::load(Addr::new(0x1000), 3),
                        MemoryAccess::store(Addr::new(0x1040), 0),
                    ],
                },
                TraceStream {
                    name: "beta".into(),
                    footprint_bytes: 2 << 20,
                    accesses: vec![MemoryAccess::load(Addr::new(0xffff_ffff_0000), 9)],
                },
            ],
        }
    }

    #[test]
    fn text_round_trip_preserves_content() {
        let data = sample();
        let text = data.to_text().unwrap();
        let back = TraceData::from_text(&text).unwrap();
        assert_eq!(back, data);
        assert_eq!(back.to_text().unwrap(), text);
        // Names the text form cannot carry are an error, not a rewrite.
        let mut spaced = data.clone();
        spaced.streams[0].name = "has space".into();
        assert!(spaced.to_text().is_err());
    }

    #[test]
    fn read_file_decodes_what_write_text_file_wrote() {
        let dir = std::env::temp_dir().join(format!("banshee_trace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data = sample();
        let txt = dir.join("t.trace");
        data.write_text_file(&txt).unwrap();
        assert_eq!(TraceData::read_file(&txt).unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn files_starting_with_bshtrace_are_rejected() {
        let dir = std::env::temp_dir().join(format!("banshee_btrace_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.btrace");
        // The magic alone, and a whole file in the old binary layout.
        for bytes in [b"BSHTRACE".to_vec(), sample().content_bytes()] {
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                TraceData::read_file(&path),
                Err(TraceFileError::BadMagic)
            ));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn text_errors_carry_line_numbers() {
        let bad = format!("{TEXT_HEADER}\nstream s footprint=10 accesses=1\nq 0x10 1\n");
        let err = TraceData::from_text(&bad).unwrap_err().to_string();
        assert!(err.contains("line 3"), "error was: {err}");
        let wrong_count = format!("{TEXT_HEADER}\nstream s footprint=10 accesses=2\nr 0x10 1\n");
        let err = TraceData::from_text(&wrong_count).unwrap_err().to_string();
        assert!(err.contains("accesses=2"), "error was: {err}");
        assert!(matches!(
            TraceData::from_text("not a trace"),
            Err(TraceFileError::BadMagic)
        ));
    }

    #[test]
    fn capture_then_replay_is_bit_identical() {
        let workload = Workload::new(WorkloadKind::parse("mcf").unwrap(), 4 << 20, 11);
        let captured = TraceData::capture(&workload, 2, 500);
        let decoded = Arc::new(TraceData::from_text(&captured.to_text().unwrap()).unwrap());
        let mut replays = decoded.replay_generators(2);
        let mut originals = Workload::build_traces(&workload, 2);
        for core in 0..2 {
            for i in 0..500 {
                assert_eq!(
                    replays[core].next_access(),
                    originals[core].next_access(),
                    "core {core} access {i}"
                );
            }
        }
    }

    #[test]
    fn replay_loops_past_the_end() {
        let mut gen = TraceReplay::new(Arc::new(sample()), 0);
        let first = gen.next_access();
        let _ = gen.next_access();
        assert_eq!(gen.next_access(), first, "replay must wrap around");
    }

    #[test]
    fn content_hash_tracks_content() {
        let a = sample();
        let mut b = sample();
        assert_eq!(a.content_hash(), b.content_hash());
        b.streams[0].accesses[0].inst_gap += 1;
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_is_pinned() {
        // Trace cells key the result store on this hash: a changed value
        // orphans every stored trace result.
        assert_eq!(sample().content_hash(), 0x0338_cc03_b2c8_5ced);
        let text = include_str!("../../../examples/scenarios/traces/sample_mix.trace");
        let shipped = TraceData::from_text(text).unwrap();
        assert_eq!(shipped.content_hash(), 0x52d1_0cd7_afff_615c);
    }
}

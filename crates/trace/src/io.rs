//! Trace serialization: JSON-lines reading and writing.
//!
//! Generated traces are cheap to re-create (the generators are seeded and
//! deterministic), but persisting them lets experiments pin an exact
//! input, diff runs, or feed external tools. The format is one JSON
//! object per line, mirroring the record schema.

use std::error::Error;
use std::fmt;
use std::io::{BufRead, Write};

use crate::record::TraceRecord;

/// Error raised while reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A line was not a valid trace record.
    Parse {
        /// 1-based line number of the malformed record.
        line: usize,
        /// Decoder message.
        source: serde_json::Error,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse { line, source } => {
                write!(f, "malformed trace record at line {line}: {source}")
            }
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for TraceIoError {
    fn from(e: std::io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Writes `records` to `out`, one JSON object per line.
///
/// # Errors
///
/// Returns an error if writing to `out` fails.
///
/// # Example
///
/// ```
/// use dsp_trace::{write_trace_json, read_trace_json, TraceRecord};
/// use dsp_types::{AccessKind, Address, NodeId, Pc};
///
/// let recs = vec![TraceRecord::new(NodeId::new(1), AccessKind::Load, Address::new(64), Pc::new(8))];
/// let mut buf = Vec::new();
/// write_trace_json(&mut buf, recs.iter().copied())?;
/// let back = read_trace_json(&buf[..])?;
/// assert_eq!(back, recs);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace_json<W: Write, I: IntoIterator<Item = TraceRecord>>(
    mut out: W,
    records: I,
) -> Result<usize, TraceIoError> {
    let mut count = 0;
    for rec in records {
        let line = serde_json::to_string(&rec).expect("trace records always serialize");
        out.write_all(line.as_bytes())?;
        out.write_all(b"\n")?;
        count += 1;
    }
    Ok(count)
}

/// Reads a JSON-lines trace written by [`write_trace_json`].
///
/// Blank lines are skipped.
///
/// # Errors
///
/// Returns an error on I/O failure or if any non-blank line fails to
/// parse (reporting its line number).
pub fn read_trace_json<R: BufRead>(input: R) -> Result<Vec<TraceRecord>, TraceIoError> {
    let mut records = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = serde_json::from_str(&line).map_err(|source| TraceIoError::Parse {
            line: i + 1,
            source,
        })?;
        records.push(rec);
    }
    Ok(records)
}

/// Magic bytes of the compact binary trace format.
const BIN_MAGIC: &[u8; 4] = b"DSPT";
/// Current binary format version.
const BIN_VERSION: u32 = 1;
/// Bytes per record: requester u8, kind u8, addr u64, pc u64.
const BIN_RECORD_BYTES: usize = 18;

/// Writes `records` in the compact binary format (18 bytes per record
/// plus a 16-byte header) — roughly 5× smaller than JSON lines, for
/// paper-scale million-miss traces.
///
/// # Errors
///
/// Returns an error if writing to `out` fails.
///
/// # Example
///
/// ```
/// use dsp_trace::{read_trace_bin, write_trace_bin, TraceRecord};
/// use dsp_types::{AccessKind, Address, NodeId, Pc};
///
/// let recs = vec![TraceRecord::new(NodeId::new(2), AccessKind::Store, Address::new(128), Pc::new(4))];
/// let mut buf = Vec::new();
/// write_trace_bin(&mut buf, recs.iter().copied())?;
/// assert_eq!(read_trace_bin(&buf[..])?, recs);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_trace_bin<W: Write, I: IntoIterator<Item = TraceRecord>>(
    mut out: W,
    records: I,
) -> Result<usize, TraceIoError> {
    // Layout: 8-byte header (magic + version), records, and an 8-byte
    // trailer holding the record count — a trailer rather than a header
    // field so the writer can stream without knowing the count up front.
    out.write_all(BIN_MAGIC)?;
    out.write_all(&BIN_VERSION.to_le_bytes())?;
    let mut count: u64 = 0;
    let mut body = Vec::with_capacity(1024 * BIN_RECORD_BYTES);
    for rec in records {
        body.push(rec.requester.index() as u8);
        body.push(rec.kind.is_store() as u8);
        body.extend_from_slice(&rec.addr.raw().to_le_bytes());
        body.extend_from_slice(&rec.pc.raw().to_le_bytes());
        count += 1;
        if body.len() >= 64 * 1024 {
            out.write_all(&body)?;
            body.clear();
        }
    }
    out.write_all(&body)?;
    out.write_all(&count.to_le_bytes())?;
    Ok(count as usize)
}

/// Reads a binary trace written by [`write_trace_bin`].
///
/// # Errors
///
/// Returns an error on I/O failure, bad magic/version, or a truncated
/// body (the trailer count must match the record bytes present).
pub fn read_trace_bin<R: std::io::Read>(mut input: R) -> Result<Vec<TraceRecord>, TraceIoError> {
    use dsp_types::{AccessKind, Address, NodeId, Pc};
    let mut all = Vec::new();
    input.read_to_end(&mut all)?;
    let bad = |msg: &str| {
        TraceIoError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            msg.to_string(),
        ))
    };
    if all.len() < 16 || &all[0..4] != BIN_MAGIC {
        return Err(bad("not a DSPT binary trace"));
    }
    let version = u32::from_le_bytes(all[4..8].try_into().expect("4 bytes"));
    if version != BIN_VERSION {
        return Err(bad("unsupported binary trace version"));
    }
    let count = u64::from_le_bytes(all[all.len() - 8..].try_into().expect("8 bytes"));
    let body = &all[8..all.len() - 8];
    // The trailer is untrusted input: a count whose byte size overflows
    // cannot describe any body present, so it is a truncation too.
    let body_bytes = usize::try_from(count)
        .ok()
        .and_then(|n| n.checked_mul(BIN_RECORD_BYTES));
    if body_bytes != Some(body.len()) {
        return Err(bad("truncated binary trace body"));
    }
    let mut records = Vec::with_capacity(body.len() / BIN_RECORD_BYTES);
    for chunk in body.chunks_exact(BIN_RECORD_BYTES) {
        let requester = NodeId::new(chunk[0] as usize);
        let kind = if chunk[1] != 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let addr = Address::new(u64::from_le_bytes(
            chunk[2..10].try_into().expect("8 bytes"),
        ));
        let pc = Pc::new(u64::from_le_bytes(
            chunk[10..18].try_into().expect("8 bytes"),
        ));
        records.push(TraceRecord::new(requester, kind, addr, pc));
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Workload, WorkloadSpec};
    use dsp_types::SystemConfig;

    #[test]
    fn round_trip_generated_trace() {
        let spec = WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(4).take(500).collect();
        let mut buf = Vec::new();
        let n = write_trace_json(&mut buf, recs.iter().copied()).expect("write");
        assert_eq!(n, 500);
        let back = read_trace_json(&buf[..]).expect("read");
        assert_eq!(back, recs);
    }

    #[test]
    fn skips_blank_lines() {
        let spec = WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(4).take(3).collect();
        let mut buf = Vec::new();
        write_trace_json(&mut buf, recs.iter().copied()).expect("write");
        buf.extend_from_slice(b"\n\n");
        let back = read_trace_json(&buf[..]).expect("read");
        assert_eq!(back.len(), 3);
    }

    #[test]
    fn reports_malformed_line() {
        let err = read_trace_json(&b"{not json}\n"[..]).unwrap_err();
        match err {
            TraceIoError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("expected parse error, got {other}"),
        }
        assert!(err.to_string().contains("line 1"));
        assert!(err.source().is_some());
    }

    #[test]
    fn binary_round_trip() {
        let spec = WorkloadSpec::preset(Workload::SpecJbb, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(12).take(4_000).collect();
        let mut buf = Vec::new();
        let n = write_trace_bin(&mut buf, recs.iter().copied()).expect("write");
        assert_eq!(n, 4_000);
        assert_eq!(buf.len(), 8 + 4_000 * 18 + 8);
        let back = read_trace_bin(&buf[..]).expect("read");
        assert_eq!(back, recs);
    }

    #[test]
    fn binary_is_much_smaller_than_json() {
        let spec = WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(3).take(1_000).collect();
        let mut json = Vec::new();
        let mut bin = Vec::new();
        write_trace_json(&mut json, recs.iter().copied()).expect("json");
        write_trace_bin(&mut bin, recs.iter().copied()).expect("bin");
        assert!(
            bin.len() * 3 < json.len(),
            "bin {} vs json {}",
            bin.len(),
            json.len()
        );
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_trace_bin(&b"NOPE0000trailer!"[..]).unwrap_err();
        assert!(err.to_string().contains("DSPT"));
    }

    #[test]
    fn binary_rejects_truncation() {
        let spec = WorkloadSpec::preset(Workload::Oltp, &SystemConfig::isca03()).scaled(0.002);
        let recs: Vec<_> = spec.generator(3).take(10).collect();
        let mut buf = Vec::new();
        write_trace_bin(&mut buf, recs.iter().copied()).expect("write");
        // Chop a record out of the middle.
        buf.drain(30..48);
        let err = read_trace_bin(&buf[..]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
        // A header plus a forged trailer count whose byte size overflows.
        let mut forged = BIN_MAGIC.to_vec();
        forged.extend_from_slice(&BIN_VERSION.to_le_bytes());
        forged.extend_from_slice(&(1u64 << 63).to_le_bytes());
        let err = read_trace_bin(&forged[..]).unwrap_err();
        assert!(err.to_string().contains("truncated"));
    }

    #[test]
    fn binary_empty_trace() {
        let mut buf = Vec::new();
        assert_eq!(
            write_trace_bin(&mut buf, std::iter::empty()).expect("write"),
            0
        );
        assert!(read_trace_bin(&buf[..]).expect("read").is_empty());
    }
}

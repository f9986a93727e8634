//! Plain-text instance and stream I/O.
//!
//! Format (whitespace-separated, `#` comments):
//!
//! ```text
//! # header: n m
//! 5 3
//! # one edge per line: set element
//! 0 1
//! 0 2
//! 2 4
//! ```
//!
//! The exact grammar:
//!
//! - Lines end at `'\n'`; the last may lack one. Every line must be
//!   UTF-8.
//! - A line's first `#` starts a comment that runs to the line's end.
//! - What is left, trimmed of whitespace (`char::is_whitespace`, so
//!   also vertical tab, form feed, U+00A0 and U+3000), is either empty
//!   and skipped, or a data line: exactly two whitespace-separated
//!   fields, each a `u64` as `str::parse` reads it (ASCII digits, an
//!   optional leading `+`).
//! - The first data line is the header `n m`, with both in
//!   `1..=u32::MAX`. Every later one is an edge `set element`, with
//!   `set < m` and `element < n`.
//!
//! Errors carry the 1-based line number (0 for a missing header).
//!
//! The common line, `digits blank+ digits blank*` with blank one of
//! space, tab, CR or the closing LF, is parsed in place from the
//! reader's buffer: no allocation, no UTF-8 check. Every other line
//! (comments, `+5`, other whitespace, overflow, every malformed line)
//! goes through the general rule above, so both routes give the same
//! edges and the same errors. Only a line straddling the end of the
//! reader's buffer is copied, into one reused buffer.
//!
//! The same format serves both materialized instances and raw edge
//! streams. Used by the `maxkcov` CLI and by anyone bringing real data.

use std::fmt;
use std::io::{BufRead, ErrorKind, Write};

use crate::edge::Edge;
use crate::instance::SetSystem;

/// Parse error with line context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

/// Parse a data line into its two numeric fields (comments and blanks
/// yield `None`).
fn parse_pair(line: &str, lineno: usize) -> Result<Option<(u64, u64)>, ParseError> {
    let content = line.split('#').next().unwrap_or("").trim();
    if content.is_empty() {
        return Ok(None);
    }
    let mut parts = content.split_whitespace();
    let a: u64 = parts
        .next()
        .ok_or_else(|| err(lineno, "missing first field"))?
        .parse()
        .map_err(|e| err(lineno, format!("bad number: {e}")))?;
    let b: u64 = parts
        .next()
        .ok_or_else(|| err(lineno, "missing second field"))?
        .parse()
        .map_err(|e| err(lineno, format!("bad number: {e}")))?;
    if parts.next().is_some() {
        return Err(err(lineno, "trailing fields"));
    }
    Ok(Some((a, b)))
}

/// Validate the `n m` header. Set and element ids are `u32`, so both
/// must lie in `1..=u32::MAX`: that keeps every id below them
/// representable, and [`check_edge`]'s narrowing lossless.
fn check_header(n: u64, m: u64, lineno: usize) -> Result<(usize, usize), ParseError> {
    if n == 0 || m == 0 {
        return Err(err(lineno, "header must have n >= 1 and m >= 1"));
    }
    let max = u64::from(u32::MAX);
    if n > max || m > max {
        return Err(err(
            lineno,
            format!("header n = {n}, m = {m} exceeds the u32 id range (max {max})"),
        ));
    }
    Ok((n as usize, m as usize))
}

/// Validate an edge line against the header shape.
fn check_edge(a: u64, b: u64, n: usize, m: usize, lineno: usize) -> Result<Edge, ParseError> {
    if a >= m as u64 {
        return Err(err(lineno, format!("set id {a} >= m = {m}")));
    }
    if b >= n as u64 {
        return Err(err(lineno, format!("element id {b} >= n = {n}")));
    }
    Ok(Edge::new(a as u32, b as u32))
}

/// The one line reader behind [`read_edges`] and [`EdgeChunkReader`]:
/// owns the `BufRead` and hands out each data line's `(line number, a,
/// b)`. A line wholly inside the reader's buffer is parsed in place; only
/// a line straddling the buffer's end is copied, into `spill`.
#[derive(Debug)]
struct LineReader<R> {
    reader: R,
    lineno: usize,
    spill: Vec<u8>,
}

impl<R: BufRead> LineReader<R> {
    fn new(reader: R) -> Self {
        LineReader {
            reader,
            lineno: 0,
            spill: Vec::new(),
        }
    }

    /// Lines already buffered, capped at a quarter of the buffered bytes
    /// (the shortest edge line, `0 0\n`, is four), so blank lines cannot
    /// inflate a reservation sized from it. An in-memory reader buffers
    /// its whole input.
    fn buffered_lines(&mut self) -> Result<usize, ParseError> {
        let buf = self.fill()?;
        // Summed as bytes per 128-byte block, which vectorizes; a plain
        // `filter().count()` widens every byte and reads ~10x slower.
        let lines: usize = buf
            .chunks(128)
            .map(|c| usize::from(c.iter().map(|&b| u8::from(b == b'\n')).sum::<u8>()))
            .sum();
        Ok(lines.min(buf.len() / 4))
    }

    /// `fill_buf`, retrying interruptions as `BufRead::lines` does; an
    /// error belongs to the line being read.
    fn fill(&mut self) -> Result<&[u8], ParseError> {
        while let Err(e) = self.reader.fill_buf() {
            if e.kind() != ErrorKind::Interrupted {
                return Err(io_err(self.lineno + 1, e));
            }
        }
        self.reader
            .fill_buf()
            .map_err(|e| io_err(self.lineno + 1, e))
    }

    /// The `n m` header: the first data line.
    fn header(&mut self) -> Result<(usize, usize), ParseError> {
        let (lineno, n, m) = self
            .next_pair()?
            .ok_or_else(|| err(0, "empty input: missing 'n m' header"))?;
        check_header(n, m, lineno)
    }

    /// The next data line's `(line number, a, b)`, skipping comments and
    /// blanks; `Ok(None)` at end of input.
    fn next_pair(&mut self) -> Result<Option<(usize, u64, u64)>, ParseError> {
        loop {
            let lineno = self.lineno + 1;
            let buf = self.fill()?;
            if buf.is_empty() {
                return Ok(None);
            }
            let (pair, len) = if let Some((a, b, len)) = plain_pair(buf) {
                (Some((a, b)), len)
            } else if let Some(end) = buf.iter().position(|&c| c == b'\n') {
                (parse_line(&buf[..end], lineno)?, end + 1)
            } else {
                self.spill.clear();
                self.reader
                    .read_until(b'\n', &mut self.spill)
                    .map_err(|e| io_err(lineno, e))?;
                (parse_line(&self.spill, lineno)?, 0)
            };
            self.reader.consume(len);
            self.lineno = lineno;
            if let Some((a, b)) = pair {
                return Ok(Some((lineno, a, b)));
            }
        }
    }
}

fn io_err(line: usize, e: impl fmt::Display) -> ParseError {
    err(line, format!("io error: {e}"))
}

/// The common line, `digits blank+ digits blank* '\n'` with blank one of
/// space, tab or CR, parsed without UTF-8 validation: the two numbers and
/// the line's length with its `'\n'`. `None` for any other line, on
/// overflow, or when `buf` ends before the `'\n'`; [`parse_line`] decides
/// those.
#[inline]
fn plain_pair(buf: &[u8]) -> Option<(u64, u64, usize)> {
    let blanks = |at: usize| {
        at + buf[at..]
            .iter()
            .take_while(|c| matches!(c, b' ' | b'\t' | b'\r'))
            .count()
    };
    let (a, end) = number(buf, 0)?;
    // The first number stops at a non-digit, so `b` needs a blank first.
    let (b, end) = number(buf, blanks(end))?;
    let end = blanks(end);
    (buf.get(end) == Some(&b'\n')).then_some((a, b, end + 1))
}

/// The decimal digits of `buf` from `at` on, and the index past them;
/// `None` without a digit or on `u64` overflow.
#[inline]
fn number(buf: &[u8], at: usize) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut end = at;
    while let Some(d) = buf
        .get(end)
        .map(|c| c.wrapping_sub(b'0'))
        .filter(|&d| d < 10)
    {
        v = v.checked_mul(10)?.checked_add(u64::from(d))?;
        end += 1;
    }
    (end > at).then_some((v, end))
}

/// Any line, through [`parse_pair`]. A line that is not UTF-8 fails
/// with the error `BufRead::lines` gives it.
fn parse_line(line: &[u8], lineno: usize) -> Result<Option<(u64, u64)>, ParseError> {
    let line = std::str::from_utf8(line)
        .map_err(|_| io_err(lineno, "stream did not contain valid UTF-8"))?;
    parse_pair(line, lineno)
}

/// Read `(n, m, edges)` from the text format. The edge vector is sized
/// once, from the lines the reader has already buffered.
pub fn read_edges<R: BufRead>(reader: R) -> Result<(usize, usize, Vec<Edge>), ParseError> {
    let mut lines = LineReader::new(reader);
    let mut edges = Vec::with_capacity(lines.buffered_lines()?);
    let (n, m) = lines.header()?;
    while let Some((lineno, a, b)) = lines.next_pair()? {
        edges.push(check_edge(a, b, n, m, lineno)?);
    }
    Ok((n, m, edges))
}

/// Streaming reader handing out edges in chunks — the file-backed
/// counterpart of [`crate::ChunkedStream`], feeding the batched
/// ingestion path without ever materializing the full stream. Holds at
/// most `chunk_size` edges in memory.
#[derive(Debug)]
pub struct EdgeChunkReader<R: BufRead> {
    lines: LineReader<R>,
    n: usize,
    m: usize,
    chunk_size: usize,
    buf: Vec<Edge>,
}

impl<R: BufRead> EdgeChunkReader<R> {
    /// Open a reader: consumes lines up to and including the `n m`
    /// header, so the shape is available before the first chunk.
    pub fn new(reader: R, chunk_size: usize) -> Result<Self, ParseError> {
        assert!(chunk_size >= 1, "chunk size must be >= 1");
        let mut lines = LineReader::new(reader);
        let (n, m) = lines.header()?;
        Ok(EdgeChunkReader {
            lines,
            n,
            m,
            chunk_size,
            buf: Vec::with_capacity(chunk_size),
        })
    }

    /// Universe size from the header.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Set count from the header.
    pub fn m(&self) -> usize {
        self.m
    }

    /// The next chunk of up to `chunk_size` edges, in file order;
    /// `Ok(None)` at end of input.
    pub fn next_chunk(&mut self) -> Result<Option<&[Edge]>, ParseError> {
        self.buf.clear();
        while self.buf.len() < self.chunk_size {
            let Some((lineno, a, b)) = self.lines.next_pair()? else {
                break;
            };
            self.buf.push(check_edge(a, b, self.n, self.m, lineno)?);
        }
        if self.buf.is_empty() {
            Ok(None)
        } else {
            Ok(Some(&self.buf))
        }
    }
}

/// Read a materialized [`SetSystem`] from the text format. The header's
/// set count sizes the set table, so a count no allocation can hold is
/// an error, not an abort.
pub fn read_set_system<R: BufRead>(reader: R) -> Result<SetSystem, ParseError> {
    let (n, m, edges) = read_edges(reader)?;
    SetSystem::try_from_edges(n, m, &edges).map_err(|e| {
        err(
            0,
            format!("header m = {m}: cannot allocate the set table ({e})"),
        )
    })
}

/// Write a set system (header + set-contiguous edges), then flush `w`,
/// so a buffered writer's last write error is returned, not dropped.
pub fn write_set_system<W: Write>(system: &SetSystem, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# maxkcov instance: n m, then 'set element' per line")?;
    writeln!(w, "{} {}", system.num_elements(), system.num_sets())?;
    for e in system.iter_edges() {
        writeln!(w, "{} {}", e.set, e.elem)?;
    }
    w.flush()
}

/// Write a raw edge stream with an explicit shape header, then flush
/// `w`.
pub fn write_edges<W: Write>(n: usize, m: usize, edges: &[Edge], mut w: W) -> std::io::Result<()> {
    writeln!(w, "{n} {m}")?;
    for e in edges {
        writeln!(w, "{} {}", e.set, e.elem)?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_set_system() {
        let ss = SetSystem::new(6, vec![vec![0, 1], vec![2, 5], vec![]]);
        let mut buf = Vec::new();
        write_set_system(&ss, &mut buf).unwrap();
        let back = read_set_system(&buf[..]).unwrap();
        assert_eq!(ss, back);
    }

    #[test]
    fn roundtrip_edges_preserves_order() {
        let edges = vec![Edge::new(2, 0), Edge::new(0, 3), Edge::new(2, 0)];
        let mut buf = Vec::new();
        write_edges(5, 3, &edges, &mut buf).unwrap();
        let (n, m, back) = read_edges(&buf[..]).unwrap();
        assert_eq!((n, m), (5, 3));
        assert_eq!(back, edges);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# hello\n\n4 2  # shape\n0 1\n# mid\n1 3\n";
        let (n, m, edges) = read_edges(text.as_bytes()).unwrap();
        assert_eq!((n, m), (4, 2));
        assert_eq!(edges, vec![Edge::new(0, 1), Edge::new(1, 3)]);
    }

    #[test]
    fn out_of_range_set_rejected_with_line() {
        let text = "4 2\n2 0\n";
        let e = read_edges(text.as_bytes()).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("set id 2"));
    }

    #[test]
    fn out_of_range_element_rejected() {
        let text = "4 2\n0 4\n";
        let e = read_edges(text.as_bytes()).unwrap_err();
        assert!(e.message.contains("element id 4"));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(read_edges("4\n".as_bytes()).is_err());
        assert!(read_edges("4 2\n1 2 3\n".as_bytes()).is_err());
        assert!(read_edges("4 2\nx y\n".as_bytes()).is_err());
        assert!(read_edges("".as_bytes()).is_err());
        assert!(read_edges("0 5\n".as_bytes()).is_err());
    }

    /// `read_edges` and `EdgeChunkReader::new` share one header check.
    fn header_error(text: &str) -> ParseError {
        let whole = read_edges(text.as_bytes()).unwrap_err();
        let chunked = EdgeChunkReader::new(text.as_bytes(), 4).unwrap_err();
        assert_eq!(whole, chunked, "{text:?}");
        whole
    }

    #[test]
    fn header_above_u32_range_rejected() {
        // An element id past u32::MAX must not alias a small one.
        let e = header_error(
            "4294967300 2
0 4294967297
",
        );
        assert_eq!(e.line, 1);
        assert!(e.message.contains("u32 id range"), "{e}");
        // A set count past u32::MAX must fail before any allocation.
        let e = header_error(
            "# shape
4 4294967300
",
        );
        assert_eq!(e.line, 2);
        assert!(e.message.contains("u32 id range"), "{e}");
        assert!(header_error(
            "0 5
"
        )
        .message
        .contains("n >= 1"));
    }

    #[test]
    fn header_at_u32_max_keeps_ids_exact() {
        let text = "4294967295 1
0 4294967294
";
        let (n, m, edges) = read_edges(text.as_bytes()).unwrap();
        assert_eq!((n, m), (u32::MAX as usize, 1));
        assert_eq!(edges, vec![Edge::new(0, u32::MAX - 1)]);
        let mut reader = EdgeChunkReader::new(text.as_bytes(), 4).unwrap();
        assert_eq!(reader.next_chunk().unwrap(), Some(&edges[..]));
        // The largest id the header admits is rejected one past it.
        let e = read_edges(
            "4294967295 1
0 4294967295
"
            .as_bytes(),
        )
        .unwrap_err();
        assert!(e.message.contains("element id 4294967295"), "{e}");
    }

    #[test]
    fn plain_pair_takes_only_the_common_line() {
        assert_eq!(plain_pair(b"12 34\n5 6\n"), Some((12, 34, 6)));
        assert_eq!(plain_pair(b"007\t\r8 \r\n"), Some((7, 8, 9)));
        let max = format!("{} 0\n", u64::MAX);
        assert_eq!(plain_pair(max.as_bytes()), Some((u64::MAX, 0, max.len())));
        // Everything else is for `parse_line`: a line the buffer cuts
        // short, a sign, a comment, other whitespace, overflow, a third
        // field, a missing one.
        for line in [
            &b"1 2"[..],
            b"+1 2\n",
            b"1 2#\n",
            b" 1 2\n",
            b"1\x0b2\n",
            b"18446744073709551616 0\n",
            b"1 2 3\n",
            b"1\n2\n",
        ] {
            assert_eq!(plain_pair(line), None, "{line:?}");
        }
    }

    #[test]
    fn display_includes_line() {
        let e = read_edges("4 2\n9 9\n".as_bytes()).unwrap_err();
        let msg = format!("{e}");
        assert!(msg.starts_with("line 2:"), "{msg}");
    }
}

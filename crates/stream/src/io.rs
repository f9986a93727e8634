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
//! The same format serves both materialized instances and raw edge
//! streams; the loader validates ranges and reports line numbers on
//! errors. Used by the `maxkcov` CLI and by anyone bringing real data.

use std::fmt;
use std::io::{BufRead, Write};

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

/// Read `(n, m, edges)` from the text format.
pub fn read_edges<R: BufRead>(reader: R) -> Result<(usize, usize, Vec<Edge>), ParseError> {
    let mut header: Option<(usize, usize)> = None;
    let mut edges = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.map_err(|e| err(lineno, format!("io error: {e}")))?;
        let Some((a, b)) = parse_pair(&line, lineno)? else {
            continue;
        };
        match header {
            None => header = Some(check_header(a, b, lineno)?),
            Some((n, m)) => edges.push(check_edge(a, b, n, m, lineno)?),
        }
    }
    let (n, m) = header.ok_or_else(|| err(0, "empty input: missing 'n m' header"))?;
    Ok((n, m, edges))
}

/// Streaming reader handing out edges in chunks — the file-backed
/// counterpart of [`crate::ChunkedStream`], feeding the batched
/// ingestion path without ever materializing the full stream. Holds at
/// most `chunk_size` edges in memory.
#[derive(Debug)]
pub struct EdgeChunkReader<R: BufRead> {
    lines: std::iter::Enumerate<std::io::Lines<R>>,
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
        let mut lines = reader.lines().enumerate();
        let header = loop {
            let Some((idx, line)) = lines.next() else {
                return Err(err(0, "empty input: missing 'n m' header"));
            };
            let lineno = idx + 1;
            let line = line.map_err(|e| err(lineno, format!("io error: {e}")))?;
            if let Some((a, b)) = parse_pair(&line, lineno)? {
                break check_header(a, b, lineno)?;
            }
        };
        Ok(EdgeChunkReader {
            lines,
            n: header.0,
            m: header.1,
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
            let Some((idx, line)) = self.lines.next() else {
                break;
            };
            let lineno = idx + 1;
            let line = line.map_err(|e| err(lineno, format!("io error: {e}")))?;
            if let Some((a, b)) = parse_pair(&line, lineno)? {
                self.buf.push(check_edge(a, b, self.n, self.m, lineno)?);
            }
        }
        if self.buf.is_empty() {
            Ok(None)
        } else {
            Ok(Some(&self.buf))
        }
    }
}

/// Read a materialized [`SetSystem`] from the text format.
pub fn read_set_system<R: BufRead>(reader: R) -> Result<SetSystem, ParseError> {
    let (n, m, edges) = read_edges(reader)?;
    Ok(SetSystem::from_edges(n, m, &edges))
}

/// Write a set system (header + set-contiguous edges).
pub fn write_set_system<W: Write>(system: &SetSystem, mut w: W) -> std::io::Result<()> {
    writeln!(w, "# maxkcov instance: n m, then 'set element' per line")?;
    writeln!(w, "{} {}", system.num_elements(), system.num_sets())?;
    for e in system.iter_edges() {
        writeln!(w, "{} {}", e.set, e.elem)?;
    }
    Ok(())
}

/// Write a raw edge stream with an explicit shape header.
pub fn write_edges<W: Write>(n: usize, m: usize, edges: &[Edge], mut w: W) -> std::io::Result<()> {
    writeln!(w, "{n} {m}")?;
    for e in edges {
        writeln!(w, "{} {}", e.set, e.elem)?;
    }
    Ok(())
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
    fn display_includes_line() {
        let e = read_edges("4 2\n9 9\n".as_bytes()).unwrap_err();
        let msg = format!("{e}");
        assert!(msg.starts_with("line 2:"), "{msg}");
    }
}

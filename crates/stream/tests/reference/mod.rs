//! The `BufRead::lines` reader that `read_edges` replaced, kept verbatim
//! (one `String` per line, `parse_pair` on each) as the reference the
//! in-place line reader must agree with: the same edges, or the same
//! `ParseError`, line and message.

use std::io::BufRead;

use kcov_stream::{Edge, ParseError};

/// What `read_edges` returns.
pub type Parsed = Result<(usize, usize, Vec<Edge>), ParseError>;

fn err(line: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        line,
        message: message.into(),
    }
}

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

fn check_edge(a: u64, b: u64, n: usize, m: usize, lineno: usize) -> Result<Edge, ParseError> {
    if a >= m as u64 {
        return Err(err(lineno, format!("set id {a} >= m = {m}")));
    }
    if b >= n as u64 {
        return Err(err(lineno, format!("element id {b} >= n = {n}")));
    }
    Ok(Edge::new(a as u32, b as u32))
}

/// The reference `read_edges`.
pub fn read_edges<R: BufRead>(reader: R) -> Parsed {
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

/// Drain an `EdgeChunkReader` into the shape `read_edges` returns.
pub fn read_chunked<R: BufRead>(reader: R, chunk_size: usize) -> Parsed {
    let mut reader = kcov_stream::EdgeChunkReader::new(reader, chunk_size)?;
    let mut edges = Vec::new();
    while let Some(chunk) = reader.next_chunk()? {
        edges.extend_from_slice(chunk);
    }
    Ok((reader.n(), reader.m(), edges))
}

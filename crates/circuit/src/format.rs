//! Plain-text circuit interchange format.
//!
//! Grammar (one record per line, `#` starts a comment):
//!
//! ```text
//! circuit <name> channels <C> grids <G>
//! wire <id> : (<channel>,<x>) (<channel>,<x>) ...
//! ```
//!
//! Example:
//!
//! ```text
//! # two-wire demo
//! circuit demo channels 4 grids 24
//! wire 0 : (0,1) (3,20)
//! wire 1 : (1,4) (1,9) (2,7)
//! ```
//!
//! The format exists so externally produced standard-cell netlists can be
//! routed with this library (the paper's actual benchmarks would be
//! imported this way if their netlists were available).

use crate::circuit::Circuit;
use crate::error::CircuitError;
use crate::wire::{Pin, Wire};

/// Serializes a circuit to the text format.
pub fn to_text(circuit: &Circuit) -> String {
    use std::fmt::Write;
    let mut out = String::with_capacity(circuit.wire_count() * 32 + 64);
    writeln!(out, "circuit {} channels {} grids {}", circuit.name, circuit.channels, circuit.grids)
        .expect("write to String cannot fail");
    for wire in &circuit.wires {
        write!(out, "wire {} :", wire.id).expect("write to String cannot fail");
        for pin in &wire.pins {
            write!(out, " ({},{})", pin.channel, pin.x).expect("write to String cannot fail");
        }
        out.push('\n');
    }
    out
}

/// Parses a circuit from the text format; validates the result.
pub fn from_text(text: &str) -> Result<Circuit, CircuitError> {
    let mut header: Option<(String, u16, u16)> = None;
    let mut wires: Vec<Wire> = Vec::new();

    for (lineno0, raw) in text.lines().enumerate() {
        let line = lineno0 + 1;
        let content = raw.split('#').next().unwrap_or("").trim();
        if content.is_empty() {
            continue;
        }
        let mut tokens = content.split_whitespace();
        match tokens.next() {
            Some("circuit") => {
                if header.is_some() {
                    return parse_err(line, "duplicate circuit header");
                }
                let name = tokens
                    .next()
                    .ok_or_else(|| parse_error(line, "missing circuit name"))?
                    .to_string();
                expect_keyword(&mut tokens, "channels", line)?;
                let channels = parse_u16(tokens.next(), "channel count", line)?;
                expect_keyword(&mut tokens, "grids", line)?;
                let grids = parse_u16(tokens.next(), "grid count", line)?;
                header = Some((name, channels, grids));
            }
            Some("wire") => {
                if header.is_none() {
                    return parse_err(line, "wire record before circuit header");
                }
                let id = tokens
                    .next()
                    .and_then(|t| t.parse::<usize>().ok())
                    .ok_or_else(|| parse_error(line, "missing or invalid wire id"))?;
                expect_keyword(&mut tokens, ":", line)?;
                let mut pins = Vec::new();
                for tok in tokens {
                    pins.push(parse_pin(tok, line)?);
                }
                if pins.len() < 2 {
                    return parse_err(line, "wire needs at least two pins");
                }
                if id != wires.len() {
                    return parse_err(
                        line,
                        &format!("wire id {id} out of order (expected {})", wires.len()),
                    );
                }
                wires.push(Wire::new(id, pins));
            }
            Some(other) => {
                return parse_err(line, &format!("unknown record type {other:?}"));
            }
            None => unreachable!("empty lines are skipped"),
        }
    }

    let (name, channels, grids) = header.ok_or_else(|| parse_error(0, "missing circuit header"))?;
    Circuit::new(name, channels, grids, wires)
}

fn parse_pin(tok: &str, line: usize) -> Result<Pin, CircuitError> {
    let inner = tok
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| parse_error(line, &format!("malformed pin {tok:?}")))?;
    let (c, x) = inner
        .split_once(',')
        .ok_or_else(|| parse_error(line, &format!("malformed pin {tok:?}")))?;
    let channel =
        c.parse::<u16>().map_err(|_| parse_error(line, &format!("bad pin channel {c:?}")))?;
    let x = x.parse::<u16>().map_err(|_| parse_error(line, &format!("bad pin column {x:?}")))?;
    Ok(Pin::new(channel, x))
}

fn expect_keyword<'a>(
    tokens: &mut impl Iterator<Item = &'a str>,
    kw: &str,
    line: usize,
) -> Result<(), CircuitError> {
    match tokens.next() {
        Some(t) if t == kw => Ok(()),
        other => parse_err(line, &format!("expected {kw:?}, found {other:?}")),
    }
}

fn parse_u16(tok: Option<&str>, what: &str, line: usize) -> Result<u16, CircuitError> {
    tok.and_then(|t| t.parse::<u16>().ok())
        .ok_or_else(|| parse_error(line, &format!("missing or invalid {what}")))
}

fn parse_error(line: usize, msg: &str) -> CircuitError {
    CircuitError::Parse { line, msg: msg.to_string() }
}

fn parse_err<T>(line: usize, msg: &str) -> Result<T, CircuitError> {
    Err(parse_error(line, msg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn roundtrip_tiny_circuit() {
        let c = presets::tiny();
        let text = to_text(&c);
        let parsed = from_text(&text).unwrap();
        assert_eq!(parsed.name, c.name);
        assert_eq!(parsed.channels, c.channels);
        assert_eq!(parsed.grids, c.grids);
        assert_eq!(parsed.wires, c.wires);
    }

    #[test]
    fn roundtrip_bnr_e() {
        let c = presets::bnr_e();
        let parsed = from_text(&to_text(&c)).unwrap();
        assert_eq!(parsed.wires, c.wires);
    }

    #[test]
    fn parses_comments_and_blank_lines() {
        let text = "\n# header comment\ncircuit demo channels 4 grids 24\n\nwire 0 : (0,1) (3,20) # trailing\n";
        let c = from_text(text).unwrap();
        assert_eq!(c.name, "demo");
        assert_eq!(c.wire_count(), 1);
    }

    #[test]
    fn rejects_wire_before_header() {
        let err = from_text("wire 0 : (0,1) (1,2)\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn rejects_malformed_pin() {
        let err = from_text("circuit d channels 4 grids 24\nwire 0 : (0,1) 3,20\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_out_of_order_wire_ids() {
        let err = from_text("circuit d channels 4 grids 24\nwire 1 : (0,1) (1,2)\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn rejects_single_pin_wire() {
        let err = from_text("circuit d channels 4 grids 24\nwire 0 : (0,1)\n").unwrap_err();
        assert!(matches!(err, CircuitError::Parse { line: 2, .. }), "{err}");
    }

    /// A three-line text circuit may declare a 65 535 × 65 535 surface;
    /// validation must refuse it before any router allocates a cost array
    /// for it (8.6 GB of cells alone).
    #[test]
    fn rejects_oversized_surface() {
        let text =
            "# hostile surface\ncircuit huge channels 65535 grids 65535\nwire 0 : (0,0) (1,1)\n";
        let err = from_text(text).unwrap_err();
        assert_eq!(err, CircuitError::SurfaceTooLarge { channels: 65535, grids: 65535 });
    }

    #[test]
    fn validates_parsed_pins_against_surface() {
        // Pin channel 9 on a 4-channel surface: caught by Circuit::validate.
        let err = from_text("circuit d channels 4 grids 24\nwire 0 : (9,1) (1,2)\n").unwrap_err();
        assert!(matches!(err, CircuitError::ChannelOutOfRange { .. }), "{err}");
    }
}

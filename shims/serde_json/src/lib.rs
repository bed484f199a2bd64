//! Offline shim for `serde_json`: prints and parses the `serde` shim's
//! [`Value`] tree as JSON text.
//!
//! Supports the full JSON grammar (strings with escapes incl. `\uXXXX`
//! surrogate pairs, exact u64/i64 integers, floats, nested arrays/objects).
//! Non-finite floats are a serialization error, as in real serde_json.

pub use serde::{Error, Number, Value};

use serde::{Deserialize, Serialize};

/// Serialize to compact single-line JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), None, 0, &mut out)?;
    Ok(out)
}

/// Serialize to pretty-printed JSON (two-space indent).
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.serialize(), Some(2), 0, &mut out)?;
    Ok(out)
}

/// Parse JSON text and deserialize into `T`.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let value = parse_value(s)?;
    T::deserialize(&value)
}

// --------------------------------------------------------------- printing

fn write_value(
    v: &Value,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) -> Result<(), Error> {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::Num(n) => write_number(*n, out)?,
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return Ok(());
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(indent, depth + 1, out);
                write_value(item, indent, depth + 1, out)?;
            }
            write_break(indent, depth, out);
            out.push(']');
        }
        Value::Object(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return Ok(());
            }
            out.push('{');
            for (i, (key, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_break(indent, depth + 1, out);
                write_string(key, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(val, indent, depth + 1, out)?;
            }
            write_break(indent, depth, out);
            out.push('}');
        }
    }
    Ok(())
}

fn write_break(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat(' ').take(width * depth));
    }
}

fn write_number(n: Number, out: &mut String) -> Result<(), Error> {
    match n {
        Number::U(v) => out.push_str(&v.to_string()),
        Number::I(v) => out.push_str(&v.to_string()),
        Number::F(v) => {
            if !v.is_finite() {
                return Err(Error::new("cannot serialize non-finite float as JSON"));
            }
            // `{}` on f64 is the shortest representation that round-trips.
            let s = v.to_string();
            out.push_str(&s);
        }
    }
    Ok(())
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------- parsing

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error::new(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_literal(&mut self, lit: &str, v: Value) -> Result<Value, Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("invalid literal, expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        match self.peek() {
            Some(b'n') => self.eat_literal("null", Value::Null),
            Some(b't') => self.eat_literal("true", Value::Bool(true)),
            Some(b'f') => self.eat_literal("false", Value::Bool(false)),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(self.err(&format!("unexpected character `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn array(&mut self) -> Result<Value, Error> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]` in array")),
            }
        }
    }

    fn object(&mut self) -> Result<Value, Error> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}` in object")),
            }
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: expect \uXXXX low half.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("lone high surrogate"));
                                }
                                self.pos += 1;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid surrogate pair"))?
                            } else {
                                char::from_u32(hi).ok_or_else(|| self.err("invalid \\u escape"))?
                            };
                            out.push(c);
                            // hex4 leaves pos past the digits; compensate for
                            // the += 1 below.
                            self.pos -= 1;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (1–4 bytes).
                    let start = self.pos;
                    let rest = &self.bytes[start..];
                    let s = std::str::from_utf8(&rest[..rest.len().min(4)])
                        .or_else(|e| std::str::from_utf8(&rest[..e.valid_up_to().max(1)]))
                        .map_err(|_| self.err("invalid UTF-8 in string"))?;
                    let c = s.chars().next().ok_or_else(|| self.err("bad string"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, Error> {
        if self.pos + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("bad number"))?;
        let num = if is_float {
            Number::F(text.parse::<f64>().map_err(|_| self.err("bad number"))?)
        } else if text.starts_with('-') {
            Number::I(text.parse::<i64>().map_err(|_| self.err("bad number"))?)
        } else {
            match text.parse::<u64>() {
                Ok(v) => Number::U(v),
                Err(_) => Number::F(text.parse::<f64>().map_err(|_| self.err("bad number"))?),
            }
        };
        Ok(Value::Num(num))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(to_string("hi\n").unwrap(), "\"hi\\n\"");
        let v: u64 = from_str("42").unwrap();
        assert_eq!(v, 42);
        let f: f32 = from_str("0.25").unwrap();
        assert_eq!(f, 0.25);
    }

    #[test]
    fn exact_u64_roundtrip() {
        let big = u64::MAX - 1;
        let s = to_string(&big).unwrap();
        let back: u64 = from_str(&s).unwrap();
        assert_eq!(back, big);
    }

    #[test]
    fn nested_containers_roundtrip() {
        let data: Vec<Vec<f32>> = vec![vec![1.0, 2.5], vec![], vec![-0.125]];
        let s = to_string(&data).unwrap();
        let back: Vec<Vec<f32>> = from_str(&s).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn pretty_print_is_indented_and_reparses() {
        let data: Vec<u32> = vec![1, 2];
        let s = to_string_pretty(&data).unwrap();
        assert!(s.contains('\n'));
        let back: Vec<u32> = from_str(&s).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn string_escapes_parse() {
        let s: String = from_str(r#""aA\né😀""#).unwrap();
        assert_eq!(s, "aA\né😀");
    }

    #[test]
    fn errors_on_garbage() {
        assert!(from_str::<u64>("{").is_err());
        assert!(from_str::<u64>("42 trailing").is_err());
        assert!(from_str::<u64>("\"unterminated").is_err());
        assert!(to_string(&f64::NAN).is_err());
    }
}

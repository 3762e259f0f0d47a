//! Newline-delimited wire frames.
//!
//! One request or response per line. Payloads that may contain newlines
//! (CSV text, multi-line error renderings) travel through [`escape`], which
//! maps `\` → `\\`, LF → `\n` and CR → `\r`, so a frame is always exactly
//! one line and framing can never desynchronise on data.

/// Escape a payload so it fits on one line.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Invert [`escape`]. Errors on a dangling or unknown escape.
pub fn unescape(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(other) => return Err(format!("unknown escape \\{other}")),
            None => return Err("dangling escape at end of frame".to_string()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_round_trips() {
        for s in ["", "plain", "a,b\nc,d\n", "back\\slash", "\r\n\\n", "q\\nx"] {
            let esc = escape(s);
            assert!(!esc.contains('\n'), "{esc:?} must be one line");
            assert!(!esc.contains('\r'));
            assert_eq!(unescape(&esc).unwrap(), s);
        }
    }

    #[test]
    fn bad_escapes_are_rejected() {
        assert!(unescape("dangling\\").is_err());
        assert!(unescape("bad\\q").is_err());
    }
}

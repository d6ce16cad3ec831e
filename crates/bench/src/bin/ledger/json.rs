//! A JSON value and its writer, for `--out` and the driver's result line —
//! the workspace builds offline and its `serde` stand-in has no JSON back
//! end. Objects keep insertion order so output diffs stay readable. The
//! benchmark reads no JSON: a child process hands its result back as plain
//! lines (`report::PassOutput`).

use std::fmt::Write as _;

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Compact, one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces per level.
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', w * depth));
            }
        };
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // JSON has no NaN or infinity; every digit of a finite number
            // is kept (`{}` prints the shortest string that round-trips).
            Json::Num(n) if n.is_finite() => write!(out, "{n}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_str(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_keeps_every_digit() {
        let v = Json::obj([
            (
                "q\"\\",
                Json::Str("line\nfeed\r\ttab bell\u{7} snow☃".into()),
            ),
            ("n", Json::Num(1.2034)),
            ("int", Json::Num(8000.0)),
            ("nan", Json::Num(f64::NAN)),
            ("ok", Json::Bool(true)),
            ("empty", Json::Obj(vec![])),
        ]);
        assert_eq!(
            v.render(),
            "{\"q\\\"\\\\\":\"line\\nfeed\\r\\ttab bell\\u0007 snow☃\",\"n\":1.2034,\
             \"int\":8000,\"nan\":null,\"ok\":true,\"empty\":{}}"
        );
        assert_eq!(
            Json::obj([("a", Json::obj([("b", Json::Num(-0.5))]))]).render_pretty(),
            "{\n  \"a\": {\n    \"b\": -0.5\n  }\n}\n"
        );
    }
}
